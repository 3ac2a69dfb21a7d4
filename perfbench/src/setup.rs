//! The three workloads' seeded jobs, built two ways: through
//! `SimulationBuilder` (the untraced runs) and from the builder's own
//! public parts with a span around each layer (the traced run). The
//! traced build must produce a bit-identical history; the benchmark
//! checks that on every traced run.

use crate::trace::{span, TracedSelector};
use flips_core::middleware::LdTransform;
use flips_core::prelude::*;
use flips_core::FlipsError;
use std::path::Path;
use std::sync::Arc;

/// Minimum samples per party after partitioning (the builder's value).
const MIN_SAMPLES_PER_PARTY: usize = 5;

/// How a workload's roster reaches the selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// Flat in-memory vectors.
    Flat,
    /// Sealed to disk segments with at most this many resident.
    Spill(usize),
}

/// Everything that defines one workload's job; the seed comes from the
/// command line.
#[derive(Debug, Clone)]
pub struct Spec {
    pub profile: DatasetProfile,
    pub parties: usize,
    pub rounds: usize,
    pub participation: f64,
    pub alpha: f64,
    pub restarts: usize,
    /// Pinned cluster count; `None` lets the elbow scan choose it.
    pub fixed_k: Option<usize>,
    pub straggler_rate: f64,
    pub deadline: DeadlinePolicy,
    pub latency_sigma: f64,
    pub test_per_class: usize,
    pub codec: ModelCodec,
    pub parallel: bool,
    pub roster: Roster,
    pub seed: u64,
}

impl Spec {
    /// Builds the job through `SimulationBuilder` (the untraced path),
    /// panicking on a construction failure: the workloads are fixed and
    /// must always build.
    pub fn build(&self, spill_dir: &Path) -> FlJob {
        let b = SimulationBuilder::new(self.profile.clone())
            .parties(self.parties)
            .rounds(self.rounds)
            .participation(self.participation)
            .alpha(self.alpha)
            .algorithm(FlAlgorithm::fedyogi())
            .selector(SelectorKind::Flips)
            .clustering_restarts(self.restarts)
            .tee_overhead(OverheadModel::sev_like())
            .straggler_rate(self.straggler_rate)
            .deadline(self.deadline)
            .latency_sigma(self.latency_sigma)
            .test_per_class(self.test_per_class)
            .codec(self.codec)
            .parallel(self.parallel)
            .seed(self.seed);
        let b = match self.fixed_k {
            Some(k) => b.fixed_k(k),
            None => b,
        };
        let b = match self.roster {
            Roster::Flat => b,
            Roster::Spill(budget) => b.spill_roster(spill_dir, budget),
        };
        b.build().expect("workload job builds").0
    }
}

/// What the setup layers of a traced build reported.
#[derive(Debug, Clone, Copy)]
pub struct SetupInfo {
    pub k: usize,
    pub tee_entries: u64,
    pub tee_overhead_ms: f64,
}

/// A job built on the traced path, with its test set (for the
/// evaluation replay), its roster store when spilled, and setup info.
pub struct Built {
    pub job: FlJob,
    pub test: Dataset,
    pub roster: Option<Arc<RosterStore>>,
    pub info: SetupInfo,
}

/// `SimulationBuilder::build` for the FLIPS selector, step by step from
/// its public parts, with a span around each layer's call and the
/// selector wrapped in a [`TracedSelector`].
pub fn build_traced(spec: &Spec, spill_dir: &Path) -> Result<Built, FlipsError> {
    let profile = spec.profile.scaled(spec.parties, spec.rounds);
    let n = profile.default_parties;
    let (population, test) = span("data.synth", || {
        (
            generate_population(&profile, profile.default_total_samples, spec.seed),
            balanced_test_set(&profile, spec.test_per_class, spec.seed),
        )
    });
    let parts = span("data.partition", || {
        partition(
            &population,
            n,
            PartitionStrategy::Dirichlet { alpha: spec.alpha },
            MIN_SAMPLES_PER_PARTY,
            spec.seed,
        )
    })?;
    drop(population);
    let latency = LatencyModel::sample(n, spec.latency_sigma, spec.seed);
    let parties_per_round = ((spec.participation * n as f64).round() as usize).clamp(1, n);
    let sample_counts = parts.sample_counts();
    let profile_times = latency.profile(&sample_counts, profile.local_epochs);
    let mw_cfg = MiddlewareConfig {
        restarts: spec.restarts,
        fixed_k: spec.fixed_k,
        k_floor: Some((2 * profile.classes).min(parties_per_round)),
        transform: LdTransform::None,
        overprovision: true,
        overhead: OverheadModel::sev_like(),
        seed: spec.seed,
        ..Default::default()
    };
    let lds = parts.label_distributions();
    let (clustering, roster) = match spec.roster {
        Roster::Flat => {
            let pc =
                span("clustering.cluster", || FlipsMiddleware::cluster_privately(&lds, &mw_cfg))?;
            (pc, None)
        }
        Roster::Spill(budget) => {
            let store = span("roster.seal", || -> Result<RosterStore, FlipsError> {
                let mut rb = RosterBuilder::spilling(spill_dir, budget)?;
                for i in 0..n {
                    rb.push(PartyRecord {
                        data_size: sample_counts[i] as u64,
                        latency_hint: profile_times[i],
                        label_counts: lds[i].counts().to_vec(),
                    })?;
                }
                Ok(rb.finish()?)
            })?;
            let pc = span("clustering.cluster", || {
                FlipsMiddleware::cluster_from_source(&store, n, &mw_cfg)
            })?;
            (pc, Some(Arc::new(store)))
        }
    };
    let info = SetupInfo {
        k: clustering.k(),
        tee_entries: clustering.tee_entries(),
        tee_overhead_ms: clustering.tee_overhead().as_secs_f64() * 1e3,
    };
    let selector = Box::new(TracedSelector(Box::new(clustering.into_selector())));

    let config = FlJobConfig {
        model: profile.model.clone(),
        algorithm: FlAlgorithm::fedyogi(),
        rounds: profile.max_rounds,
        parties_per_round,
        local: LocalTrainingConfig {
            epochs: profile.local_epochs,
            batch_size: profile.batch_size,
            lr_schedule: profile.lr_schedule,
            momentum: 0.0,
        },
        straggler_rate: spec.straggler_rate,
        straggler_bias: StragglerBias::Uniform,
        deadline: spec.deadline,
        latency_sigma: spec.latency_sigma,
        latency_override: Some(latency),
        sketch_dim: 32,
        codec: spec.codec,
        parallel: spec.parallel,
        seed: spec.seed,
    };
    let job = span("job.build", || FlJob::new(parts.parties, test.clone(), config, selector))?;
    Ok(Built { job, test, roster, info })
}
