//! The lockstep rig: a `MultiJobDriver` and a `PartyPool` on the two
//! ends of an in-process duplex byte stream, pumped alternately, with
//! round opens deferred so every round boundary can be checkpointed.
//! Both ends sit behind [`Traced`] transports, which cost one branch per
//! call while tracing is off.

use crate::trace::{self, span, Side, Traced};
use flips_core::fl::transport::PipeEnd;
use flips_core::fl::{Checkpoint, FlError};
use flips_core::prelude::*;
use flips_net::CHECKPOINT_FILE;
use std::path::Path;
use std::time::Instant;

pub type Wire = Traced<StreamTransport<PipeEnd>>;

/// How a workload wires its job onto the rig.
#[derive(Debug, Clone, Copy)]
pub struct RigOpts {
    pub guard: Option<GuardConfig>,
    /// Exact-fold coordinator plus a tree-folding party pool.
    pub tree: bool,
    pub codec: ModelCodec,
}

pub struct Rig {
    pub driver: MultiJobDriver<Wire>,
    pub pool: PartyPool<Wire>,
    pub id: u64,
}

/// What one [`Rig::run`] measured.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Wall time of each round closed during the run, ms, boundary to
    /// boundary, with boundary hooks excluded.
    pub round_ms: Vec<f64>,
    /// Wall time of the round loop, s, boundary hooks excluded.
    pub wall_s: f64,
    /// `advance_clock` calls.
    pub clock_advances: u64,
}

impl Rig {
    /// Registers `job` on a fresh driver and pool (the job's rounds are
    /// not started).
    pub fn new(job: FlJob, opts: RigOpts) -> Result<Rig, FlError> {
        let mut parts = job.into_parts();
        let sketch_dim = parts.coordinator.sketch_dim();
        if opts.tree {
            parts.coordinator.set_exact_fold(true);
        }
        let (agg, party) = duplex();
        let mut driver =
            MultiJobDriver::new(Traced::new(StreamTransport::new(agg), Side::Coordinator));
        if let Some(guard) = opts.guard {
            driver.set_guard(guard)?;
        }
        let (id, endpoints) = driver.add_parts(parts)?;
        driver.set_deferred_opens(true)?;
        let mut pool = PartyPool::new(Traced::new(StreamTransport::new(party), Side::Party));
        if let Some(guard) = &opts.guard {
            pool.set_guard(guard);
        }
        pool.pin_codec(id, opts.codec);
        pool.add_job(id, endpoints);
        if opts.tree {
            pool.enable_tree(id, sketch_dim);
        }
        Ok(Rig { driver, pool, id })
    }

    /// `Checkpoint::decode`, `MultiJobDriver::restore` and the party
    /// pool's reference re-seed — the recovery path a restarted
    /// coordinator pays after rebuilding its job.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), FlError> {
        let cp = span("checkpoint.decode", || Checkpoint::decode(bytes))?;
        span("checkpoint.restore", || -> Result<(), FlError> {
            self.driver.restore(&cp)?;
            for r in &cp.codec_refs {
                if !self.pool.seed_reference(r.job, r.ref_round, &r.params) {
                    return Err(FlError::InvalidConfig("reference re-seed refused".into()));
                }
            }
            Ok(())
        })
    }

    pub fn history(&self) -> &History {
        self.driver.history(self.id).expect("the rig's job is registered")
    }

    /// Drives the job until it finishes, calling `at_boundary` at every
    /// round boundary (history length given) before the next round
    /// opens; the hook's time is excluded from the round timings.
    pub fn run(
        &mut self,
        mut at_boundary: impl FnMut(&mut Rig, usize) -> Result<(), FlError>,
    ) -> Result<RunStats, FlError> {
        let mut stats = RunStats::default();
        let mut last_len = self.history().len();
        trace::set_round(last_len);
        let t0 = Instant::now();
        let mut excluded = 0.0f64;
        let mut prev = t0;
        span("rounds", || -> Result<(), FlError> {
            span("driver.open", || self.driver.start())?;
            loop {
                loop {
                    let drove = span("driver.pump", || self.driver.pump())?;
                    let pooled = span("pool.pump", || self.pool.pump())?;
                    if !drove && !pooled {
                        break;
                    }
                }
                let len = self.history().len();
                if len > last_len {
                    let now = Instant::now();
                    let ms = (now - prev).as_secs_f64() * 1e3 - excluded;
                    // A deadline can close several rounds between two
                    // looks; split the interval evenly.
                    for _ in last_len..len {
                        stats.round_ms.push(ms / (len - last_len) as f64);
                    }
                    stats.wall_s += ms / 1e3;
                    excluded = 0.0;
                    prev = now;
                    last_len = len;
                    trace::set_round(len);
                }
                if self.driver.has_pending_opens() {
                    let t = Instant::now();
                    at_boundary(self, len)?;
                    excluded += t.elapsed().as_secs_f64() * 1e3;
                    span("driver.open", || self.driver.open_pending())?;
                    continue;
                }
                if self.driver.is_finished() {
                    break;
                }
                stats.clock_advances += 1;
                if !span("driver.advance_clock", || self.driver.advance_clock())? {
                    return Err(FlError::Protocol("lockstep rig stalled".into()));
                }
            }
            Ok(())
        })?;
        // The final boundary (after the last round) gets its hook too.
        at_boundary(self, last_len)?;
        Ok(stats)
    }
}

/// `MultiJobDriver::checkpoint` + `Checkpoint::encode`, then the atomic
/// tmp-file write and rename `flips_net::serve` performs at every round
/// boundary, each in its own span. Returns the encoded checkpoint.
pub fn checkpoint_to(rig: &Rig, dir: &Path) -> Result<Vec<u8>, FlError> {
    let bytes = span("checkpoint.encode", || -> Result<Vec<u8>, FlError> {
        Ok(rig.driver.checkpoint()?.encode())
    })?;
    span("checkpoint.write", || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
    })
    .map_err(|e| FlError::Transport(format!("checkpoint write failed: {e}")))?;
    Ok(bytes)
}

/// Decodes every checkpoint in its own span; whether all decoded.
pub fn decode_all(checkpoints: &[Vec<u8>]) -> bool {
    checkpoints.iter().all(|b| span("checkpoint.decode", || Checkpoint::decode(b)).is_ok())
}
