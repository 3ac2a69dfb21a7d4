//! `deploy_tcp`: the deployment path `flips-server`/`flips-party` run.
//! The coordinator is `flips_net::serve` on a loopback listener; one
//! `party_loop` thread serves the whole roster over one connection.
//! FEMNIST with an mlp-16×256×192×10 (55,626 parameters), 16 parties,
//! 4 a round, one local epoch, the FLIPS selector, the latency-quantile
//! deadline (q = 0.5, slack 1.1, σ = 0.8) and guard settings of
//! `configs/loopback.toml`, the entropy-coded delta codec, session
//! resume on and a checkpoint at every round boundary. Codec, framing,
//! epoll, guard admission and checkpoint writes carry the round;
//! selection and clustering are trivial at 16 parties.
//!
//! `serve` exposes no per-round seam, so one *session* — build the job,
//! accept the party, run every round, shut down — is the unit: round
//! times are session wall time over rounds. A run serves twelve sessions
//! seeded from `--seed`, in at least two sets; a session's time is the
//! fastest of its sets, so a spell of load from the host's neighbours
//! does not land in the figures. The traced run drives the
//! same seeded job through the lockstep rig, which registers it with
//! `MultiJobDriver::add_parts` so the latency-quantile deadline routes
//! as it does under `serve`; both histories must be identical.

use crate::lockstep::{checkpoint_to, decode_all, Rig, RigOpts};
use crate::setup::{build_traced, Roster, Spec};
use crate::trace;
use crate::{
    accuracy_last10, another_set, mean, median, peak_rss_mb, quantile, refused_frames, replay,
    sub_seeds, wire_bytes, Args, Outcome,
};
use flips_core::fl::FlError;
use flips_core::prelude::*;
use flips_net::{
    connect_with_retry, party_loop_with, serve, PartyOptions, ServerOptions, CHECKPOINT_FILE,
};
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds per session.
const ROUNDS: usize = 16;
/// Independently seeded sessions per set; a run measures whole sets.
const SESSIONS: usize = 12;
/// Sets a run serves at the least.
const MIN_SETS: usize = 2;
/// Restores of each session's final checkpoint per set, each into a
/// rebuilt job; `restore_ms` takes the fastest of a session's restores.
const RESTORES: usize = 2;
const CODEC: ModelCodec = ModelCodec::DeltaEntropy;

fn spec(seed: u64) -> Spec {
    let mut profile = DatasetProfile::femnist();
    profile.name = "femnist-mlp256".into();
    profile.model = ModelSpec::Mlp { dims: vec![16, 256, 192, 10] };
    profile.local_epochs = 1;
    Spec {
        profile,
        parties: 16,
        rounds: ROUNDS,
        participation: 0.25,
        alpha: 0.3,
        restarts: 3,
        fixed_k: None,
        straggler_rate: 0.0,
        deadline: DeadlinePolicy::LatencyQuantile { q: 0.5, slack: 1.1 },
        latency_sigma: 0.8,
        test_per_class: 8,
        codec: CODEC,
        parallel: false,
        roster: Roster::Flat,
        seed,
    }
}

/// The `[guard]` table of `configs/loopback.toml`.
fn guard() -> GuardConfig {
    GuardConfig {
        max_frame_bytes: 1 << 20,
        rate_limit: Some(RateLimit { burst: 64, per_round: 16 }),
        breaker: Some(BreakerConfig {
            strike_threshold: 3,
            cooldown_rounds: 2,
            strike_on_corrupt: true,
            ..BreakerConfig::default()
        }),
        admission_factor: None,
    }
}

fn rig_opts() -> RigOpts {
    RigOpts { guard: Some(guard()), tree: false, codec: CODEC }
}

/// One `serve` session's results.
struct Session {
    setup_s: f64,
    wall_s: f64,
    history: History,
    stats: DriverStats,
}

/// Builds the job, serves it to one `party_loop` thread over loopback
/// TCP with checkpoints written under `dir`, and returns what it saw.
fn session(spec: &Spec, dir: &Path) -> Result<Session, FlError> {
    let io = |e: std::io::Error| FlError::Transport(e.to_string());
    let t = Instant::now();
    let parts = spec.build(dir).into_parts();
    let id = parts.coordinator.job_id();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let setup_s = t.elapsed().as_secs_f64();
    let JobParts { coordinator, endpoints, clock, latency, deadline } = parts;
    let server_parts = JobParts { coordinator, endpoints: Vec::new(), clock, latency, deadline };
    let opts = ServerOptions::new(1).with_guard(guard()).with_resume().with_checkpoint_dir(dir);
    let t = Instant::now();
    let (served, party) = std::thread::scope(|s| {
        let party = s.spawn(move || -> Result<(), FlError> {
            let stream = connect_with_retry(addr, Duration::from_secs(10))?;
            let popts = PartyOptions { resume_addr: Some(addr), ..PartyOptions::default() };
            party_loop_with(stream, 0, vec![(id, CODEC, endpoints)], Some(&guard()), None, &popts)
                .map(drop)
        });
        let served = serve(&listener, vec![server_parts], &opts, None);
        (served, party.join().expect("party thread panicked"))
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut outcome = served?;
    party?;
    let history = outcome
        .histories
        .remove(&id)
        .ok_or_else(|| FlError::Protocol("served job has no history".into()))?;
    Ok(Session { setup_s, wall_s, history, stats: outcome.stats })
}

pub fn run(args: &Args) -> Outcome {
    let seeds = sub_seeds(args.seed, SESSIONS);
    let mut out = Outcome::default();
    if args.trace {
        let base = spec(seeds[0]);
        let s = session(&base, &args.tmp.join("session")).expect("deploy_tcp session runs");
        out.attempted = s.stats.frames_sent + s.stats.frames_received;
        out.failed = refused_frames(&s.stats);
        traced(args, &base, &s.history, &mut out);
        return out;
    }
    let mut setup_s = vec![];
    // Per session, the fastest wall time per round seen, ms.
    let mut session_ms = vec![f64::INFINITY; SESSIONS];
    let mut restore_ms = vec![];
    let mut served: Vec<Session> = vec![];
    let start = Instant::now();
    let mut sets = 0;
    loop {
        for (i, &seed) in seeds.iter().enumerate() {
            let spec = spec(seed);
            let dir = args.tmp.join(format!("session-{i}"));
            let s = session(&spec, &dir).expect("deploy_tcp session runs");
            setup_s.push(s.setup_s);
            session_ms[i] = session_ms[i].min(s.wall_s * 1e3 / ROUNDS as f64);
            out.attempted += s.stats.frames_sent + s.stats.frames_received;
            out.failed += refused_frames(&s.stats);

            // Restore the last on-disk checkpoint into rebuilt jobs; the
            // last of them runs on.
            let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("checkpoint on disk");
            let mut rig = None;
            for _ in 0..RESTORES {
                let t = Instant::now();
                let job = spec.build(&dir);
                setup_s.push(t.elapsed().as_secs_f64());
                let mut r = Rig::new(job, rig_opts()).expect("rig builds");
                let t = Instant::now();
                r.restore(&bytes).expect("checkpoint restores");
                restore_ms.push((i, t.elapsed().as_secs_f64() * 1e3));
                rig = Some(r);
            }
            let mut rig = rig.expect("at least one restore");
            rig.run(|_, _| Ok(())).expect("restored job finishes");
            out.check(
                "restored final checkpoint carries the served history",
                *rig.history() == s.history,
            );
            let _ = std::fs::remove_dir_all(&dir);

            match served.get(i) {
                None => served.push(s),
                Some(first) => {
                    out.check("repeat session history identical", first.history == s.history);
                    out.check(
                        "wire bytes identical across sessions",
                        wire_bytes(&first.stats) == wire_bytes(&s.stats),
                    );
                }
            }
        }
        sets += 1;
        if sets >= MIN_SETS && !another_set(start, sets, args.seconds) {
            break;
        }
    }
    lockstep_checks(&spec(seeds[0]), args, &served[0], &mut out);
    let acc: Vec<f64> = served.iter().map(|s| accuracy_last10(&s.history)).collect();
    let bytes: Vec<f64> =
        served.iter().map(|s| wire_bytes(&s.stats) as f64 / ROUNDS as f64).collect();
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("round_ms_p50", median(&session_ms), "ms");
    out.metric("round_ms_p90", quantile(&session_ms, 0.9), "ms");
    out.metric("rounds_per_s", 1e3 / mean(&session_ms), "1/s");
    out.metric("wire_bytes_per_round", mean(&bytes), "B");
    out.metric("restore_ms", crate::restore_ms(&restore_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("accuracy_last10", mean(&acc), "fraction");
    out.check(
        "every session ran its round budget",
        served.iter().all(|s| s.history.len() == ROUNDS),
    );
    out
}

/// The served history and wire bytes must equal the same job's under
/// the lockstep rig, and a mid-run checkpoint of that run must resume to
/// the served history.
fn lockstep_checks(spec: &Spec, args: &Args, session: &Session, out: &mut Outcome) {
    let served = &session.history;
    let mut rig = Rig::new(spec.build(&args.tmp), rig_opts()).expect("rig builds");
    let mut mid = None;
    rig.run(|rig, len| {
        if len == ROUNDS / 2 {
            mid = Some(rig.driver.checkpoint()?.encode());
        }
        Ok(())
    })
    .expect("lockstep run completes");
    out.check("serve history identical to lockstep add_parts history", rig.history() == served);
    out.check(
        "serve wire bytes identical to lockstep wire bytes",
        wire_bytes(&rig.driver.stats()) == wire_bytes(&session.stats),
    );
    let mut resumed = Rig::new(spec.build(&args.tmp), rig_opts()).expect("rig builds");
    resumed.restore(&mid.expect("mid-run checkpoint")).expect("mid-run checkpoint restores");
    resumed.run(|_, _| Ok(())).expect("resumed run completes");
    out.check("mid-run checkpoint resumes to the served history", resumed.history() == served);
}

fn traced(args: &Args, spec: &Spec, served: &History, out: &mut Outcome) {
    let dir = args.tmp.join("traced");
    // The tracing overhead is taken against the same rig untraced.
    let mut plain = Rig::new(spec.build(&dir), rig_opts()).expect("rig builds");
    let base = plain.run(|_, _| Ok(())).expect("lockstep run completes");
    let untraced_rps = base.round_ms.len() as f64 / base.wall_s;
    out.check("serve history identical to lockstep add_parts history", plain.history() == served);
    trace::enable(true);
    let built = build_traced(spec, &dir).expect("traced deploy_tcp builds");
    let weights = built.job.sample_counts();
    let (test, info) = (built.test, built.info);
    let mut rig = Rig::new(built.job, rig_opts()).expect("rig builds");
    let mut globals = vec![rig.driver.coordinator(rig.id).expect("job").global_params().to_vec()];
    let mut checkpoints: Vec<Vec<u8>> = vec![];
    let stats = rig
        .run(|rig, len| {
            if globals.len() == len {
                globals.push(rig.driver.coordinator(rig.id).expect("job").global_params().to_vec());
            }
            let bytes = checkpoint_to(rig, &dir)?;
            checkpoints.push(bytes);
            Ok(())
        })
        .expect("traced lockstep run completes");
    let history = rig.history().clone();
    out.check("traced lockstep history identical to served history", history == *served);
    let driver_stats = rig.driver.stats();
    let uplink = std::mem::take(&mut rig.pool.transport_mut().uplink);
    let rounds = history.len() as f64;

    // Decode every boundary's checkpoint; restore the last one into
    // rebuilt jobs.
    out.check("every boundary checkpoint decodes", decode_all(&checkpoints));
    let last = checkpoints.last().expect("final boundary checkpoint");
    for _ in 0..3 {
        let mut restored = Rig::new(spec.build(&dir), rig_opts()).expect("rig builds");
        restored.restore(last).expect("final checkpoint restores");
    }
    let ledger = trace::take();

    let codec = replay::codec(CODEC, &globals);
    out.check("codec replay lossless", codec.exact);
    let (flat, exact) = replay::fold(&globals, &history, &weights);
    let (eval_ms, acc) = replay::eval(&spec.profile.model, &test, &globals[1..]);
    out.check("replayed evaluation reproduces the history", acc == history.accuracy_series());
    let (gemm_nn, gemm_tn) = replay::gemm();
    let admit_ns = replay::guard(guard(), &history, &uplink);
    let connect_ms = replay::connect(20).expect("loopback handshakes");

    crate::ledger::setup_layers(out, &ledger, &info);
    crate::ledger::selection(out, &ledger, &history);
    crate::ledger::rig(out, &ledger, rounds);
    out.metric("ml.eval_ms_p50", eval_ms, "ms");
    out.metric("ml.gemm_nn_256_gflops", gemm_nn, "GFLOP/s");
    out.metric("ml.gemm_tn_256_gflops", gemm_tn, "GFLOP/s");
    crate::ledger::codec(out, &codec);
    out.metric("net.connect_ms", connect_ms, "ms");
    out.metric("guard.admit_ns_p50", admit_ns, "ns");
    let refused = driver_stats.oversized_frames
        + driver_stats.rate_limited_frames
        + driver_stats.breaker_dropped_frames
        + driver_stats.admission_refused_frames;
    out.metric("guard.refused", refused as f64, "count");
    out.metric("fold.flat_us_per_update", flat, "us");
    out.metric("fold.exact_us_per_update", exact, "us");
    crate::ledger::checkpoint(out, &ledger, last.len());
    out.metric("driver.clock_advances_per_round", stats.clock_advances as f64 / rounds, "count");
    let rps = stats.round_ms.len() as f64 / stats.wall_s;
    out.metric("trace.overhead_frac", 1.0 - rps / untraced_rps, "fraction");
    crate::ledger::write(args, &ledger);
}
