//! Layer timings taken by replaying a run's own data through a layer's
//! public functions after the run: the global models each round
//! produced, its cohorts and its uplink frame sequence. Replays measure
//! the layers the program calls from places the benchmark cannot wrap.

use crate::median;
use bytes::{Bytes, BytesMut};
use flips_core::fl::codec::Role;
use flips_core::fl::party::LocalUpdate;
use flips_core::fl::server::ServerState;
use flips_core::fl::{ExactWeightedSum, FrameKind, PayloadCodec};
use flips_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median µs of `PayloadCodec::{encode,decode}_{global,update}` over the
/// run's sequence of global models, and whether every lossless decode
/// reproduced its input bit for bit. Each round's update payload is the
/// next round's global model, which differs from the reference by one
/// round of training, as a real update does.
pub struct CodecTimes {
    pub encode_global: f64,
    pub decode_global: f64,
    pub encode_update: f64,
    pub decode_update: f64,
    pub exact: bool,
}

pub fn codec(codec: ModelCodec, globals: &[Vec<f32>]) -> CodecTimes {
    let mut sender = PayloadCodec::new(codec, Role::Sender);
    let mut receiver = PayloadCodec::new(codec, Role::Receiver);
    if let Some(g) = globals.first() {
        receiver.set_expected_len(g.len());
    }
    let (mut eg, mut dg, mut eu, mut du) = (vec![], vec![], vec![], vec![]);
    let mut exact = true;
    let mut buf = BytesMut::new();
    for (r, g) in globals.iter().enumerate() {
        buf.clear();
        let t = Instant::now();
        sender.encode_global(r as u64, g, &mut buf);
        eg.push(us(t));
        let mut bytes = Bytes::from(buf.as_slice().to_vec());
        let t = Instant::now();
        let decoded = receiver.decode_global(r as u64, &mut bytes);
        dg.push(us(t));
        exact &= decoded.is_ok_and(|d| d[..] == g[..]);

        let update = globals.get(r + 1).unwrap_or(g);
        buf.clear();
        let t = Instant::now();
        receiver.encode_update(update, &mut buf);
        eu.push(us(t));
        let mut bytes = Bytes::from(buf.as_slice().to_vec());
        let t = Instant::now();
        let decoded = sender.decode_update(&mut bytes);
        du.push(us(t));
        exact &= decoded.is_ok_and(|d| d[..] == update[..]);
    }
    CodecTimes {
        encode_global: median(&eg),
        decode_global: median(&dg),
        encode_update: median(&eu),
        decode_update: median(&du),
        exact: exact || !codec.is_lossless(),
    }
}

/// Median µs per update of the flat fold (`ServerState::apply_round_refs`)
/// and of the exact fold (`ExactWeightedSum::fold` + `finish_into`), each
/// round folding as many updates as it completed.
pub fn fold(globals: &[Vec<f32>], history: &History, weights: &[usize]) -> (f64, f64) {
    let mut server = ServerState::new(FlAlgorithm::fedyogi());
    let (mut flat, mut exact) = (vec![], vec![]);
    let mut accum = Vec::new();
    for (r, record) in history.records().iter().enumerate() {
        let (Some(g), Some(next)) = (globals.get(r), globals.get(r + 1)) else { break };
        let n = record.completed.len().max(1);
        let updates: Vec<LocalUpdate> = record
            .completed
            .iter()
            .map(|&p| LocalUpdate {
                params: next.clone(),
                num_samples: weights.get(p).copied().unwrap_or(1).max(1),
                mean_loss: 0.0,
                duration: 0.0,
            })
            .collect();
        let refs: Vec<&LocalUpdate> = updates.iter().collect();
        let mut global = g.clone();
        let t = Instant::now();
        server.apply_round_refs(&mut global, &refs).expect("replayed round folds");
        flat.push(us(t) / n as f64);
        black_box(&global);

        let t = Instant::now();
        let mut sum = ExactWeightedSum::new(next.len());
        for u in &updates {
            sum.fold(&u.params, u.num_samples as u64).expect("replayed update folds");
        }
        sum.finish_into(&mut accum).expect("replayed sum finishes");
        exact.push(us(t) / n as f64);
        black_box(&accum);
    }
    (median(&flat), median(&exact))
}

/// Median ms of the coordinator's test-set evaluation of each round's
/// global model, and the balanced accuracies it produced (compared
/// against the history as an output check).
pub fn eval(spec: &ModelSpec, test: &Dataset, globals: &[Vec<f32>]) -> (f64, Vec<f64>) {
    let mut model = spec.build(&mut flips_core::ml::rng::seeded(0));
    let mut times = vec![];
    let mut acc = vec![];
    for g in globals {
        let t = Instant::now();
        model.set_params(g).expect("global fits the model");
        let predictions = flips_core::ml::model::predict(model.as_ref(), &test.x);
        let cm = ConfusionMatrix::from_predictions(test.classes, &test.y, &predictions);
        acc.push(cm.balanced_accuracy());
        times.push(us(t) / 1e3);
    }
    (median(&times), acc)
}

/// Median ns per `GuardPlane::admit` over the run's uplink frames, round
/// by round after `on_round_open` with the recorded cohort.
pub fn guard(config: GuardConfig, history: &History, uplink: &[(u32, u64, u64, bool)]) -> f64 {
    let mut plane = GuardPlane::new(config).expect("workload guard config is valid");
    let mut per_round = vec![];
    for (r, record) in history.records().iter().enumerate() {
        let frames: Vec<&(u32, u64, u64, bool)> =
            uplink.iter().filter(|f| f.0 as usize == r).collect();
        let Some(job) = frames.first().map(|f| f.1) else { continue };
        plane.on_round_open(job, &record.selected);
        let t = Instant::now();
        for &&(_, job, party, update) in &frames {
            let kind = if update { FrameKind::Update } else { FrameKind::Control };
            black_box(plane.admit(job, party, kind));
        }
        per_round.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    median(&per_round)
}

/// GFLOP/s of the blocked 256×256 GEMM kernels (`matmul_into`,
/// `matmul_tn_into`), median of 15 timed calls each.
pub fn gemm() -> (f64, f64) {
    let n = 256;
    let data = |salt: u32| -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt);
                ((h >> 16) as f32 / 65536.0) - 0.5
            })
            .collect()
    };
    let a = Matrix::from_vec(n, n, data(1));
    let b = Matrix::from_vec(n, n, data(2));
    let mut out = Matrix::zeros(n, n);
    let flops = 2.0 * (n * n * n) as f64;
    let mut time = |tn: bool| {
        let mut ns = vec![];
        for i in 0..16 {
            let t = Instant::now();
            if tn {
                a.matmul_tn_into(&b, &mut out);
            } else {
                a.matmul_into(&b, &mut out);
            }
            black_box(out.as_slice()[0]);
            if i > 0 {
                ns.push(t.elapsed().as_nanos() as f64);
            }
        }
        flops / median(&ns)
    };
    (time(false), time(true))
}

/// Median ms from a party's `connect` to its Hello being acknowledged,
/// over `probes` loopback handshakes through the public link types
/// (one connection open at a time).
pub fn connect(probes: usize) -> Result<f64, String> {
    use flips_core::fl::FlError;
    use flips_net::link::prepare_stream;
    use flips_net::{CoordLink, PartyLink};
    use std::net::{TcpListener, TcpStream};
    let err = |e: FlError| e.to_string();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut times = vec![];
    for _ in 0..probes {
        let t = Instant::now();
        let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let (server, _) = listener.accept().map_err(|e| e.to_string())?;
        prepare_stream(&server).map_err(err)?;
        prepare_stream(&client).map_err(err)?;
        let mut coord = CoordLink::new(server);
        let mut party = PartyLink::new(client);
        party.send_hello(0).map_err(err)?;
        party.flush().map_err(err)?;
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while coord.hello().is_none() {
            if coord.try_recv_data().map_err(err)?.is_some() {
                return Err("data frame before Hello".into());
            }
            if Instant::now() > deadline {
                return Err("no Hello within 10 s".into());
            }
        }
        coord.assign_token(1);
        coord.send_hello_ack(true, &[]).map_err(err)?;
        coord.flush().map_err(err)?;
        party.await_hello_ack(std::time::Duration::from_secs(10)).map_err(err)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&times))
}
