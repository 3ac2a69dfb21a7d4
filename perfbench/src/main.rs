//! The FLIPS benchmark: one workload per process, seeded from the
//! command line, printing one JSON result line.
//!
//! ```text
//! flips-perfbench --workload <paper_cell|deploy_tcp|roster_10k_flips>
//!                 --seed <n> --seconds <s> --trace <0|1> --tmp <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the same seeded job once untraced and once with spans around
//! each layer's public calls, checks that both histories are identical,
//! and reports the per-layer ledger. `perfbench/run.py` builds this
//! binary and owns the per-run temporary directory `--tmp`.

mod deploy_tcp;
mod ledger;
mod lockstep;
mod paper_cell;
mod replay;
mod roster;
mod setup;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub tmp: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: Duration::from_secs(num("seconds")?),
        trace,
        tmp: PathBuf::from(get("tmp")?),
    })
}

/// One run's result: named metrics with units, the operations attempted
/// and failed, and the named output checks.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records an output check; a failed one is reported on stderr.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Keeps exactly the metrics of `names`: a metric whose layer did no
    /// work on this workload reads 0.
    fn complete(&mut self, names: &[(&'static str, &'static str)]) {
        self.metrics.retain(|name, _| {
            let known = names.iter().any(|(n, _)| n == name);
            if !known {
                eprintln!("warning: dropping unlisted metric {name}");
            }
            known
        });
        for &(name, unit) in names {
            self.metrics.entry(name).or_insert((0.0, unit));
        }
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (v, unit))| {
                let v = if v.is_finite() { v + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        // A failed check fails every operation of the run.
        let failed = if self.correct() { self.failed } else { self.attempted.max(1) };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }
}

/// The seeds of the jobs one run measures, derived from `--seed`. Each
/// workload averages over several independently seeded jobs, because one
/// job's round times and accuracy depend strongly on its draw of party
/// sizes and cohorts.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| flips_core::ml::rng::derive_seed(seed, i)).collect()
}

/// Whether another set of jobs taking `per_set` fits in the run's time.
pub fn another_set(start: std::time::Instant, sets: usize, limit: Duration) -> bool {
    let per_set = start.elapsed() / sets.max(1) as u32;
    start.elapsed() + per_set <= limit
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `restore_ms` of a run from `(job index, ms)` samples: the median over
/// jobs of each job's fastest restore. A restore is a single burst whose
/// time on a shared host swings with neighbours' memory traffic; a job's
/// fastest restore tracks the code's cost, and the median over jobs
/// averages out their different checkpoints.
pub fn restore_ms(samples: &[(usize, f64)]) -> f64 {
    let mut fastest: BTreeMap<usize, f64> = BTreeMap::new();
    for &(job, ms) in samples {
        let best = fastest.entry(job).or_insert(ms);
        *best = best.min(ms);
    }
    median(&fastest.into_values().collect::<Vec<_>>())
}

/// Mean test accuracy over the final ten rounds of a history.
pub fn accuracy_last10(h: &flips_core::fl::History) -> f64 {
    let acc = h.accuracy_series();
    mean(&acc[acc.len().saturating_sub(10)..])
}

/// Wire bytes per round of a history, as the coordinator accounts them.
pub fn accounted_bytes_per_round(h: &flips_core::fl::History) -> f64 {
    h.total_bytes() as f64 / h.len().max(1) as f64
}

/// Bytes a driver put on and took off the wire.
pub fn wire_bytes(s: &flips_core::fl::DriverStats) -> u64 {
    s.bytes_sent + s.bytes_received
}

/// Refused or undecodable frames counted by a driver.
pub fn refused_frames(s: &flips_core::fl::DriverStats) -> u64 {
    s.corrupt_frames
        + s.codec_mismatch_frames
        + s.unknown_job_frames
        + s.rejected_messages
        + s.oversized_frames
        + s.rate_limited_frames
        + s.breaker_dropped_frames
        + s.admission_refused_frames
}

/// Removes the per-run temporary directory on every exit path,
/// unwinding included.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("error: cannot create {}: {e}", args.tmp.display());
        std::process::exit(2);
    }
    let tmp = TmpGuard(args.tmp.clone());
    let mut outcome = match args.workload.as_str() {
        "paper_cell" => paper_cell::run(&args),
        "deploy_tcp" => deploy_tcp::run(&args),
        "roster_10k_flips" => roster::run(&args),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    outcome.complete(if args.trace { ledger::PER_LAYER } else { ledger::END_TO_END });
    println!("{}", outcome.to_json());
    let ok = outcome.correct();
    drop(tmp);
    if !ok {
        std::process::exit(1);
    }
}
