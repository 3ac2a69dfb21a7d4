//! `paper_cell`: the paper's own evaluation cell, run in-process the way
//! researchers run it — `SimulationBuilder` → `FlJob::step` with
//! parallel local training. ECG profile (Conv1d), 200 parties, 20%
//! participation, Dirichlet α = 0.3, FedYogi, the FLIPS selector with
//! 20 clustering restarts and the SEV-like TEE overhead model, and 20%
//! of each cohort injected as stragglers. Local training and evaluation
//! dominate the round; this is the one workload where FLIPS
//! over-provisions against stragglers.
//!
//! Dirichlet partitions give heavy-tailed party sizes, so one job's round
//! times and accuracy depend on its seed's draw; a run measures twelve
//! jobs seeded from `--seed` and reports over all of them.

use crate::lockstep::{checkpoint_to, decode_all, Rig, RigOpts};
use crate::setup::{build_traced, Roster, Spec};
use crate::trace::{self, span};
use crate::{
    accounted_bytes_per_round, accuracy_last10, another_set, mean, median, peak_rss_mb, quantile,
    replay, sub_seeds, Args, Outcome,
};
use flips_core::fl::{Checkpoint, FlError, JobSnapshot};
use flips_core::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

/// Rounds per job.
const ROUNDS: usize = 25;
/// Independently seeded jobs per set; a run measures whole sets, and a
/// round's time is the fastest of its sets.
const JOBS: usize = 12;
/// Restores of each job's final checkpoint right after the job runs, and
/// in each of two turns after every job has run; `restore_ms` takes the
/// fastest of a job's restores.
const RESTORES: usize = 2;

fn spec(seed: u64) -> Spec {
    Spec {
        profile: DatasetProfile::ecg(),
        parties: 200,
        rounds: ROUNDS,
        participation: 0.2,
        alpha: 0.3,
        restarts: 20,
        fixed_k: None,
        straggler_rate: 0.2,
        deadline: DeadlinePolicy::Injected,
        latency_sigma: 0.4,
        test_per_class: 50,
        codec: ModelCodec::Raw,
        parallel: true,
        roster: Roster::Flat,
        seed,
    }
}

/// Messages exchanged by a history's rounds in-process: a notice and a
/// model per selected party, a heartbeat per selected party, an update
/// per completed party and an abort per straggler.
fn messages(h: &History) -> u64 {
    h.records()
        .iter()
        .map(|r| (3 * r.selected.len() + r.completed.len() + r.stragglers.len()) as u64)
        .sum()
}

/// One built and stepped job.
struct JobRun {
    setup_s: f64,
    round_ms: Vec<f64>,
    loop_s: f64,
    history: History,
    /// The job's state at its final round boundary, encoded.
    checkpoint: Vec<u8>,
}

fn job_run(spec: &Spec, args: &Args) -> JobRun {
    let t = Instant::now();
    let mut job = spec.build(&args.tmp);
    let setup_s = t.elapsed().as_secs_f64();
    let mut round_ms = Vec::with_capacity(ROUNDS);
    let t_loop = Instant::now();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        job.step().expect("paper_cell round runs");
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    JobRun {
        setup_s,
        round_ms,
        loop_s,
        history: job.history().clone(),
        checkpoint: final_checkpoint(&job),
    }
}

/// The checkpoint `MultiJobDriver::checkpoint` takes at a job's round
/// boundary, assembled from the in-process coordinator's public state:
/// `FlJob` runs without a driver to snapshot it.
fn final_checkpoint(job: &FlJob) -> Vec<u8> {
    let c = job.coordinator();
    Checkpoint {
        tick: 0,
        draining: false,
        stats: DriverStats::default(),
        jobs: vec![JobSnapshot {
            job: c.job_id(),
            global: c.global_params().to_vec(),
            optimizer: c.export_optimizer(),
            active: c.active_mask().to_vec(),
            history: c.history().records().to_vec(),
            feedback: c.feedback_log().to_vec(),
            observed: None,
        }],
        guard: None,
        codec_refs: Vec::new(),
    }
    .encode()
}

pub fn run(args: &Args) -> Outcome {
    let seeds = sub_seeds(args.seed, JOBS);
    let mut out = Outcome::default();
    if args.trace {
        // Two untraced passes; the second, warm one is the overhead base.
        let base = spec(seeds[0]);
        let first = job_run(&base, args);
        let second = job_run(&base, args);
        out.check("repeat job history identical", first.history == second.history);
        out.attempted = 2 * messages(&second.history);
        traced(args, &base, &second.history, ROUNDS as f64 / second.loop_s, &mut out);
        return out;
    }
    let mut setup_s = vec![];
    // Per job, the fastest time seen of each round.
    let mut fastest = vec![vec![f64::INFINITY; ROUNDS]; JOBS];
    let mut restore_ms = vec![];
    let mut runs: Vec<JobRun> = vec![];
    let start = Instant::now();
    let mut sets = 0;
    loop {
        for (i, &seed) in seeds.iter().enumerate() {
            let run = job_run(&spec(seed), args);
            setup_s.push(run.setup_s);
            for (best, &ms) in fastest[i].iter_mut().zip(&run.round_ms) {
                *best = best.min(ms);
            }
            out.attempted += messages(&run.history);
            restores(&spec(seed), args, &run, i, &mut setup_s, &mut restore_ms, &mut out);
            match runs.get(i) {
                None => runs.push(run),
                Some(first) => {
                    out.check("repeat job history identical", first.history == run.history)
                }
            }
        }
        sets += 1;
        if !another_set(start, sets, args.seconds) {
            break;
        }
    }
    // Two more turns of restores, after the rounds of every job, spread
    // each job's restores over the run.
    for _ in 0..2 {
        for (i, (&seed, run)) in seeds.iter().zip(&runs).enumerate() {
            restores(&spec(seed), args, run, i, &mut setup_s, &mut restore_ms, &mut out);
        }
    }
    resume_check(&spec(seeds[0]), args, &runs[0].history, &mut out);

    let round_ms = fastest.concat();
    let acc: Vec<f64> = runs.iter().map(|r| accuracy_last10(&r.history)).collect();
    let bytes: Vec<f64> = runs.iter().map(|r| accounted_bytes_per_round(&r.history)).collect();
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("round_ms_p50", median(&round_ms), "ms");
    out.metric("round_ms_p90", quantile(&round_ms, 0.9), "ms");
    let round_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
    out.metric("rounds_per_s", round_ms.len() as f64 / round_s, "1/s");
    out.metric("wire_bytes_per_round", mean(&bytes), "B");
    out.metric("restore_ms", crate::restore_ms(&restore_ms), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("accuracy_last10", mean(&acc), "fraction");
    out.check("every job ran its round budget", runs.iter().all(|r| r.history.len() == ROUNDS));
    out
}

/// Restores job `i`'s final-boundary checkpoint [`RESTORES`] times, each
/// into a freshly rebuilt job under the lockstep driver, recording the
/// rebuilds in `setup_s` and the restores in `restore_ms`.
fn restores(
    spec: &Spec,
    args: &Args,
    run: &JobRun,
    i: usize,
    setup_s: &mut Vec<f64>,
    restore_ms: &mut Vec<(usize, f64)>,
    out: &mut Outcome,
) {
    for _ in 0..RESTORES {
        let t = Instant::now();
        let job = spec.build(&args.tmp);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut rig = Rig::new(job, rig_opts()).expect("rig builds");
        let t = Instant::now();
        rig.restore(&run.checkpoint).expect("checkpoint restores");
        restore_ms.push((i, t.elapsed().as_secs_f64() * 1e3));
        out.check(
            "restored final checkpoint carries the in-process history",
            *rig.history() == run.history,
        );
    }
}

/// A mid-run checkpoint of the job under the lockstep driver must resume
/// to the job's in-process history.
fn resume_check(spec: &Spec, args: &Args, in_process: &History, out: &mut Outcome) {
    let bytes = checkpoint_bytes(spec, args).expect("paper_cell checkpoint");
    let mut rig = Rig::new(spec.build(&args.tmp), rig_opts()).expect("rig builds");
    rig.restore(&bytes).expect("checkpoint restores");
    rig.run(|_, _| Ok(())).expect("restored job resumes");
    out.check(
        "restored lockstep job resumes to the in-process history",
        rig.history() == in_process,
    );
}

fn rig_opts() -> RigOpts {
    RigOpts { guard: None, tree: false, codec: ModelCodec::Raw }
}

/// The round boundary of the lockstep checkpoint the resume check and
/// the traced checkpoint layer use.
const RESTORE_BOUNDARY: usize = 5;

/// Runs the job under the lockstep rig up to [`RESTORE_BOUNDARY`] and
/// returns the encoded checkpoint taken there.
fn checkpoint_bytes(spec: &Spec, args: &Args) -> Result<Vec<u8>, FlError> {
    let mut short = spec.clone();
    short.rounds = RESTORE_BOUNDARY + 1;
    let mut rig = Rig::new(short.build(&args.tmp), rig_opts())?;
    let mut bytes = None;
    rig.run(|rig, len| {
        if len == RESTORE_BOUNDARY {
            bytes = Some(rig.driver.checkpoint()?.encode());
        }
        Ok(())
    })?;
    bytes.ok_or_else(|| FlError::Protocol("no checkpoint at the restore boundary".into()))
}

/// One `FlJob::step`, rebuilt from the job's public parts with a span
/// around each call (same order of calls and replies as the step).
fn traced_step(parts: &mut JobParts) -> Result<(), FlError> {
    let effects = span("coordinator.open_round", || parts.coordinator.open_round())?;
    let mut notices = vec![];
    let mut broadcasts = vec![];
    let mut selected = vec![];
    for effect in effects {
        let Effect::Send { to, msg } = effect else { continue };
        match msg {
            WireMessage::SelectionNotice { .. } => {
                selected.push(to);
                notices.push(msg);
            }
            _ => broadcasts.push((to, msg)),
        }
    }
    let victims = span("straggler.clock", || {
        Clock::missed_deadline(&mut parts.clock, &selected, &parts.latency)
    });
    let victims: HashSet<PartyId> = victims.iter().map(|&i| selected[i]).collect();
    let mut inbound = vec![];
    span("party.control", || -> Result<(), FlError> {
        for (to, notice) in selected.iter().zip(&notices) {
            inbound.extend(parts.endpoints[*to].handle(notice)?);
        }
        Ok(())
    })?;
    let deliveries: Vec<(PartyId, WireMessage)> =
        broadcasts.into_iter().filter(|(to, _)| !victims.contains(to)).collect();
    inbound.extend(span("party.train", || train(&mut parts.endpoints, &deliveries))?);
    let mut close = vec![];
    for msg in inbound {
        close.extend(span("coordinator.handle", || {
            parts.coordinator.handle(Event::UpdateReceived(msg))
        })?);
    }
    if parts.coordinator.open_cohort().is_some() {
        close.extend(span("coordinator.handle", || {
            parts.coordinator.handle(Event::DeadlineExpired)
        })?);
    }
    span("party.control", || -> Result<(), FlError> {
        for effect in close {
            if let Effect::Send { to, msg } = effect {
                parts.endpoints[to].handle(&msg)?;
            }
        }
        Ok(())
    })
}

/// Trains the delivered parties across at most `nproc` scoped threads
/// (the in-process driver's chunking), recording one `ml.train` span per
/// party.
fn train(
    endpoints: &mut [PartyEndpoint],
    deliveries: &[(PartyId, WireMessage)],
) -> Result<Vec<WireMessage>, FlError> {
    let by_party: std::collections::HashMap<PartyId, &WireMessage> =
        deliveries.iter().map(|(p, m)| (*p, m)).collect();
    let mut jobs: Vec<(&mut PartyEndpoint, &WireMessage)> = endpoints
        .iter_mut()
        .filter_map(|ep| by_party.get(&ep.id()).map(|msg| (ep, *msg)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
    let chunk = jobs.len().div_ceil(threads).max(1);
    let mut replies = vec![];
    let mut intervals = vec![];
    let mut first_err = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks_mut(chunk)
            .map(|chunk_jobs| {
                scope.spawn(move || {
                    chunk_jobs
                        .iter_mut()
                        .map(|(ep, msg)| {
                            let t = Instant::now();
                            let r = ep.handle(msg);
                            (r, t, Instant::now())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (result, s, e) in h.join().expect("training thread panicked") {
                intervals.push((s, e));
                match result {
                    Ok(msgs) => replies.extend(msgs),
                    Err(e) => first_err = first_err.take().or(Some(e)),
                }
            }
        }
    });
    for (s, e) in intervals {
        trace::record("ml.train", s, e);
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(replies),
    }
}

fn traced(args: &Args, spec: &Spec, untraced: &History, untraced_rps: f64, out: &mut Outcome) {
    trace::enable(true);
    let built = build_traced(spec, &args.tmp).expect("traced paper_cell builds");
    let weights = built.job.sample_counts();
    let mut parts = built.job.into_parts();
    let mut globals = vec![parts.coordinator.global_params().to_vec()];
    let t = Instant::now();
    span("rounds", || {
        for r in 0..ROUNDS {
            trace::set_round(r);
            traced_step(&mut parts).expect("traced paper_cell round runs");
            globals.push(parts.coordinator.global_params().to_vec());
        }
    });
    let traced_rps = ROUNDS as f64 / t.elapsed().as_secs_f64();
    let ledger = trace::take();
    let (decoded, last_len, checkpoint_ledger) = traced_checkpoints(args, spec);
    out.check("every boundary checkpoint decodes", decoded);
    crate::ledger::checkpoint(out, &checkpoint_ledger, last_len);
    let history = parts.coordinator.history().clone();
    out.check("traced history identical to untraced", history == *untraced);

    let rounds = ROUNDS as f64;
    let codec = replay::codec(ModelCodec::Raw, &globals);
    out.check("codec replay lossless", codec.exact);
    let (flat, exact) = replay::fold(&globals, &history, &weights);
    let (eval_ms, acc) = replay::eval(&spec.profile.model, &built.test, &globals[1..]);
    out.check("replayed evaluation reproduces the history", acc == history.accuracy_series());
    let (gemm_nn, gemm_tn) = replay::gemm();
    let rounds_ns = ledger.total("rounds");
    let coordinator_self =
        ledger.self_time("coordinator.open_round") + ledger.self_time("coordinator.handle");

    crate::ledger::setup_layers(out, &ledger, &built.info);
    crate::ledger::selection(out, &ledger, &history);
    out.metric("ml.train_ms_p50", median(&ledger.durations("ml.train")) / 1e6, "ms");
    out.metric("ml.train_share", ledger.covered("ml.train") / rounds_ns, "fraction");
    out.metric("ml.eval_ms_p50", eval_ms, "ms");
    out.metric("ml.gemm_nn_256_gflops", gemm_nn, "GFLOP/s");
    out.metric("ml.gemm_tn_256_gflops", gemm_tn, "GFLOP/s");
    crate::ledger::codec(out, &codec);
    let down: u64 = history.records().iter().map(|r| r.bytes_down).sum();
    let up: u64 = history.records().iter().map(|r| r.bytes_up).sum();
    out.metric("codec.bytes_down_per_round", down as f64 / rounds, "B");
    out.metric("codec.bytes_up_per_round", up as f64 / rounds, "B");
    out.metric("fold.flat_us_per_update", flat, "us");
    out.metric("fold.exact_us_per_update", exact, "us");
    out.metric("coordinator.self_us_per_round", coordinator_self / rounds / 1e3, "us");
    out.metric("trace.unattributed_frac", ledger.unattributed_frac("rounds"), "fraction");
    out.metric("trace.overhead_frac", 1.0 - traced_rps / untraced_rps, "fraction");
    crate::ledger::write(args, &ledger);
}

/// The checkpoint layer, which paper_cell's in-process driver has not:
/// the same job under the lockstep rig to [`RESTORE_BOUNDARY`], a
/// checkpoint written at every boundary, each decoded, and the last
/// restored into a rebuilt job. Returns whether every checkpoint
/// decoded and the last one's size, with the spans recorded.
fn traced_checkpoints(args: &Args, spec: &Spec) -> (bool, usize, trace::Ledger) {
    let mut short = spec.clone();
    short.rounds = RESTORE_BOUNDARY;
    let dir = args.tmp.join("checkpoint");
    let mut rig = Rig::new(short.build(&args.tmp), rig_opts()).expect("rig builds");
    trace::enable(true);
    let mut checkpoints = vec![];
    rig.run(|rig, _| {
        checkpoints.push(checkpoint_to(rig, &dir)?);
        Ok(())
    })
    .expect("lockstep twin runs");
    let decoded = decode_all(&checkpoints);
    let last = checkpoints.last().expect("final boundary checkpoint");
    let mut restored = Rig::new(short.build(&args.tmp), rig_opts()).expect("rig builds");
    restored.restore(last).expect("final checkpoint restores");
    (decoded, last.len(), trace::take())
}
