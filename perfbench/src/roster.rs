//! `roster_10k_flips`: the scale plane. HAM10000 MLP, 10,000 parties on
//! a disk-spilled `RosterStore` (at most 4 segments resident), 5%
//! participation (500 parties a round), one local epoch, FLIPS
//! clustering streamed from the roster, and tree aggregation
//! (exact-fold coordinator, tree-folding party pool) in lockstep over a
//! duplex byte stream. Data synthesis dominates setup; selection, the exact
//! fold over 500 updates and the 500-way fan-out load the round.
//!
//! A run measures three jobs seeded from `--seed`, each built seven
//! times, pass by pass with the jobs in turn. The first pass runs all
//! rounds uninterrupted; each later pass rebuilds the job and restores
//! its own checkpoint at an early round boundary; the next three run on
//! to the end, and their histories must equal the uninterrupted one.
//! Every round past that boundary thus runs four times, seconds apart;
//! its time is the fastest of the four, and a job's restore time is the
//! fastest of its six, so a spell of load from the host's neighbours
//! does not land in the figures.

use crate::lockstep::{checkpoint_to, decode_all, Rig, RigOpts};
use crate::setup::{build_traced, Roster, Spec};
use crate::trace;
use crate::{
    accuracy_last10, another_set, mean, median, peak_rss_mb, quantile, refused_frames, replay,
    sub_seeds, wire_bytes, Args, Outcome,
};
use flips_core::prelude::*;
use std::time::Instant;

/// Rounds per job.
const ROUNDS: usize = 60;
/// The boundary whose checkpoint later passes restore. The rounds before
/// it run once per job, as warm-up, and are not timed into the figures.
const RESTORE_BOUNDARY: usize = 10;
/// Independently seeded jobs per set; a run measures whole sets.
const SEEDS: usize = 3;
/// Passes per job: one uninterrupted, then restored ones that run to the
/// end, up to [`RUN_PASSES`], then restored ones that only restore, for
/// more restores, spread over the run. Three jobs with 50 timed rounds
/// each put fifteen rounds beyond the p90.
const PASSES: usize = 7;
const RUN_PASSES: usize = 4;
/// Clusters, pinned at the builder's floor (twice HAM10000's 7 classes).
/// FLIPS fills a round cluster by cluster, scanning a cluster's members
/// per pick, so the selector's cost per round goes as parties over
/// clusters; an elbow-chosen count (14 to 30 by seed) would swing the
/// cost of selection and of restore's selector replay twofold by seed.
const CLUSTERS: usize = 14;
/// Local samples per party (the profile's default is 200; a quarter
/// keeps a 10,000-party population's set-up time and memory in budget,
/// and leaves the round to selection, fold and fan-out more than to
/// training).
const SAMPLES_PER_PARTY: usize = 50;

fn spec(seed: u64) -> Spec {
    let mut profile = DatasetProfile::ham10000();
    profile.local_epochs = 1;
    profile.default_total_samples = SAMPLES_PER_PARTY * profile.default_parties;
    Spec {
        profile,
        parties: 10_000,
        rounds: ROUNDS,
        participation: 0.05,
        alpha: 0.3,
        restarts: 1,
        fixed_k: Some(CLUSTERS),
        straggler_rate: 0.0,
        deadline: DeadlinePolicy::Injected,
        latency_sigma: 0.4,
        test_per_class: 50,
        codec: ModelCodec::Raw,
        parallel: false,
        roster: Roster::Spill(4),
        seed,
    }
}

fn opts() -> RigOpts {
    RigOpts { guard: None, tree: true, codec: ModelCodec::Raw }
}

/// The first, uninterrupted run of one seeded job.
struct First {
    history: History,
    stats: DriverStats,
    checkpoint: Vec<u8>,
    /// Counters carried in the checkpoint, which restored repetitions
    /// start from.
    at_checkpoint: DriverStats,
}

pub fn run(args: &Args) -> Outcome {
    let seeds = sub_seeds(args.seed, SEEDS);
    let spill = args.tmp.join("roster");
    let mut out = Outcome::default();
    let mut setup_s = vec![];
    let mut restore_ms = vec![];
    // Per job, the fastest time seen of each round.
    let mut fastest = vec![vec![f64::INFINITY; ROUNDS]; SEEDS];
    let mut firsts: Vec<First> = vec![];
    let start = Instant::now();
    let mut sets = 0;
    'sets: loop {
        for pass in 0..PASSES {
            for (i, &seed) in seeds.iter().enumerate() {
                let t = Instant::now();
                let job = spec(seed).build(&spill);
                setup_s.push(t.elapsed().as_secs_f64());
                let mut rig = Rig::new(job, opts()).expect("roster rig builds");
                let first = firsts.get(i);
                if let Some(f) = first {
                    let t = Instant::now();
                    rig.restore(&f.checkpoint).expect("checkpoint restores");
                    restore_ms.push((i, t.elapsed().as_secs_f64() * 1e3));
                    if pass >= RUN_PASSES {
                        out.check(
                            "restored checkpoint carries the uninterrupted history's rounds",
                            rig.history().records() == &f.history.records()[..RESTORE_BOUNDARY],
                        );
                        continue;
                    }
                }
                let mut taken = None;
                let stats = rig
                    .run(|rig, len| {
                        if first.is_none() && len == RESTORE_BOUNDARY {
                            taken = Some((rig.driver.checkpoint()?.encode(), rig.driver.stats()));
                        }
                        Ok(())
                    })
                    .expect("roster rounds run");
                let from = ROUNDS - stats.round_ms.len();
                for (best, &ms) in fastest[i][from..].iter_mut().zip(&stats.round_ms) {
                    *best = best.min(ms);
                }
                let history = rig.history().clone();
                let s = rig.driver.stats();
                let base = first.map_or(DriverStats::default(), |f| f.at_checkpoint);
                out.attempted +=
                    s.frames_sent + s.frames_received - base.frames_sent - base.frames_received;
                out.failed += refused_frames(&s) - refused_frames(&base);
                match first {
                    None => {
                        let (checkpoint, at_checkpoint) =
                            taken.expect("checkpoint at the restore boundary");
                        firsts.push(First { history, stats: s, checkpoint, at_checkpoint });
                    }
                    Some(f) => {
                        out.check(
                            "restored job resumes to the uninterrupted history",
                            f.history == history,
                        );
                        out.check(
                            "wire bytes identical across repetitions",
                            wire_bytes(&f.stats) == wire_bytes(&s),
                        );
                    }
                }
                if args.trace {
                    let rps = stats.round_ms.len() as f64 / stats.wall_s;
                    traced(args, &spec(seeds[0]), &firsts[0].history, rps, &mut out);
                    break 'sets;
                }
            }
        }
        sets += 1;
        if !another_set(start, sets, args.seconds) {
            break;
        }
    }
    if args.trace {
        return out;
    }
    let round_ms: Vec<f64> =
        fastest.iter().flat_map(|job| job[RESTORE_BOUNDARY..].iter().copied()).collect();
    let acc: Vec<f64> = firsts.iter().map(|f| accuracy_last10(&f.history)).collect();
    let bytes: Vec<f64> =
        firsts.iter().map(|f| wire_bytes(&f.stats) as f64 / f.history.len() as f64).collect();
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("round_ms_p50", median(&round_ms), "ms");
    out.metric("round_ms_p90", quantile(&round_ms, 0.9), "ms");
    let round_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
    out.metric("rounds_per_s", round_ms.len() as f64 / round_s, "1/s");
    out.metric("wire_bytes_per_round", mean(&bytes), "B");
    out.metric("restore_ms", crate::restore_ms(&restore_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("accuracy_last10", mean(&acc), "fraction");
    out.check("every job ran its round budget", firsts.iter().all(|f| f.history.len() == ROUNDS));
    out
}

fn traced(args: &Args, spec: &Spec, untraced: &History, untraced_rps: f64, out: &mut Outcome) {
    trace::enable(true);
    let built = build_traced(spec, &args.tmp.join("roster-traced")).expect("traced roster builds");
    let weights = built.job.sample_counts();
    let store = built.roster.clone().expect("spilled roster");
    let (test, info) = (built.test, built.info);
    let mut rig = Rig::new(built.job, opts()).expect("roster rig builds");
    rig.driver.attach_roster(std::sync::Arc::clone(&store));
    let mut globals = vec![rig.driver.coordinator(rig.id).expect("job").global_params().to_vec()];
    let loaded_before = store.loaded();
    let dir = args.tmp.join("checkpoint");
    let mut checkpoints = vec![];
    let stats = rig
        .run(|rig, len| {
            if globals.len() == len {
                globals.push(rig.driver.coordinator(rig.id).expect("job").global_params().to_vec());
            }
            checkpoints.push(checkpoint_to(rig, &dir)?);
            Ok(())
        })
        .expect("traced roster rounds run");
    let page_ins = store.loaded() - loaded_before;
    out.check("every boundary checkpoint decodes", decode_all(&checkpoints));
    let last = checkpoints.last().expect("final boundary checkpoint");
    let mut restored =
        Rig::new(spec.build(&args.tmp.join("roster-restored")), opts()).expect("roster rig builds");
    restored.restore(last).expect("final checkpoint restores");
    let ledger = trace::take();
    let history = rig.history().clone();
    out.check("traced history identical to untraced", history == *untraced);

    let rounds = history.len() as f64;
    let codec = replay::codec(ModelCodec::Raw, &globals);
    out.check("codec replay lossless", codec.exact);
    let (flat, exact) = replay::fold(&globals, &history, &weights);
    let (eval_ms, acc) = replay::eval(&spec.profile.model, &test, &globals[1..]);
    out.check("replayed evaluation reproduces the history", acc == history.accuracy_series());
    let (gemm_nn, gemm_tn) = replay::gemm();

    crate::ledger::setup_layers(out, &ledger, &info);
    out.metric("roster.page_ins_per_round", page_ins as f64 / rounds, "count");
    crate::ledger::selection(out, &ledger, &history);
    crate::ledger::rig(out, &ledger, rounds);
    out.metric("ml.eval_ms_p50", eval_ms, "ms");
    out.metric("ml.gemm_nn_256_gflops", gemm_nn, "GFLOP/s");
    out.metric("ml.gemm_tn_256_gflops", gemm_tn, "GFLOP/s");
    crate::ledger::codec(out, &codec);
    crate::ledger::checkpoint(out, &ledger, last.len());
    out.metric("fold.flat_us_per_update", flat, "us");
    out.metric("fold.exact_us_per_update", exact, "us");
    out.metric("driver.clock_advances_per_round", stats.clock_advances as f64 / rounds, "count");
    let rps = stats.round_ms.len() as f64 / stats.wall_s;
    out.metric("trace.overhead_frac", 1.0 - rps / untraced_rps, "fraction");
    crate::ledger::write(args, &ledger);
}
