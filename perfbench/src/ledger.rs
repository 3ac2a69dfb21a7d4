//! The per-layer ledger: metric names and units, and the helpers the
//! workloads share to fill it from a traced run.

use crate::setup::SetupInfo;
use crate::trace::Ledger;
use crate::{median, replay::CodecTimes, Args, Outcome};
use flips_core::fl::History;

/// Every per-layer metric a traced run prints, with its unit. A metric
/// whose layer does no work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.synth_s", "s"),
    ("data.partition_s", "s"),
    ("clustering.cluster_s", "s"),
    ("clustering.k", "count"),
    ("tee.entries", "count"),
    ("tee.overhead_ms", "ms"),
    ("roster.seal_s", "s"),
    ("roster.page_ins_per_round", "count"),
    ("selection.select_us_p50", "us"),
    ("selection.report_us_p50", "us"),
    ("selection.useful_frac", "fraction"),
    ("ml.train_ms_p50", "ms"),
    ("ml.train_share", "fraction"),
    ("ml.eval_ms_p50", "ms"),
    ("ml.gemm_nn_256_gflops", "GFLOP/s"),
    ("ml.gemm_tn_256_gflops", "GFLOP/s"),
    ("codec.encode_global_us_p50", "us"),
    ("codec.decode_global_us_p50", "us"),
    ("codec.encode_update_us_p50", "us"),
    ("codec.decode_update_us_p50", "us"),
    ("codec.bytes_down_per_round", "B"),
    ("codec.bytes_up_per_round", "B"),
    ("transport.frames_per_round", "count"),
    ("transport.send_us_per_round", "us"),
    ("transport.recv_us_per_round", "us"),
    ("net.connect_ms", "ms"),
    ("guard.admit_ns_p50", "ns"),
    ("guard.refused", "count"),
    ("fold.flat_us_per_update", "us"),
    ("fold.exact_us_per_update", "us"),
    ("coordinator.self_us_per_round", "us"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("driver.pump_self_ms_per_round", "ms"),
    ("pool.pump_self_ms_per_round", "ms"),
    ("driver.clock_advances_per_round", "count"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Every end-to-end metric an untraced run prints, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"),
    ("rounds_per_s", "1/s"),
    ("wire_bytes_per_round", "B"),
    ("restore_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accuracy_last10", "fraction"),
];

/// Setup-phase layers, from the traced build.
pub fn setup_layers(out: &mut Outcome, ledger: &Ledger, info: &SetupInfo) {
    out.metric("data.synth_s", ledger.total("data.synth") / 1e9, "s");
    out.metric("data.partition_s", ledger.total("data.partition") / 1e9, "s");
    out.metric("clustering.cluster_s", ledger.total("clustering.cluster") / 1e9, "s");
    out.metric("clustering.k", info.k as f64, "count");
    out.metric("tee.entries", info.tee_entries as f64, "count");
    out.metric("tee.overhead_ms", info.tee_overhead_ms, "ms");
    out.metric("roster.seal_s", ledger.total("roster.seal") / 1e9, "s");
}

/// Selection timings from the selector wrapper, and the share of
/// selected parties whose training was used.
pub fn selection(out: &mut Outcome, ledger: &Ledger, history: &History) {
    out.metric(
        "selection.select_us_p50",
        median(&ledger.durations("selection.select")) / 1e3,
        "us",
    );
    out.metric(
        "selection.report_us_p50",
        median(&ledger.durations("selection.report")) / 1e3,
        "us",
    );
    let selected: usize = history.records().iter().map(|r| r.selected.len()).sum();
    let completed: usize = history.records().iter().map(|r| r.completed.len()).sum();
    out.metric("selection.useful_frac", completed as f64 / selected.max(1) as f64, "fraction");
}

pub fn codec(out: &mut Outcome, t: &CodecTimes) {
    out.metric("codec.encode_global_us_p50", t.encode_global, "us");
    out.metric("codec.decode_global_us_p50", t.decode_global, "us");
    out.metric("codec.encode_update_us_p50", t.encode_update, "us");
    out.metric("codec.decode_update_us_p50", t.decode_update, "us");
}

/// Lockstep-rig layers: wire counts and transport time, and the self
/// time of the driver's and the pool's pumps. The driver's self time
/// covers `pump`, `open_pending` and `advance_clock`, the three calls
/// inside which the coordinator runs.
pub fn rig(out: &mut Outcome, ledger: &Ledger, rounds: f64) {
    let down = ledger.count("wire.bytes_down") as f64;
    let up = ledger.count("wire.bytes_up") as f64;
    out.metric("codec.bytes_down_per_round", down / rounds, "B");
    out.metric("codec.bytes_up_per_round", up / rounds, "B");
    let frames = ledger.count("wire.frames_down") + ledger.count("wire.frames_up");
    out.metric("transport.frames_per_round", frames as f64 / rounds, "count");
    out.metric("transport.send_us_per_round", ledger.total("transport.send") / rounds / 1e3, "us");
    out.metric("transport.recv_us_per_round", ledger.total("transport.recv") / rounds / 1e3, "us");
    let driver_self = ledger.self_time("driver.pump")
        + ledger.self_time("driver.open")
        + ledger.self_time("driver.advance_clock");
    out.metric("driver.pump_self_ms_per_round", driver_self / rounds / 1e6, "ms");
    // The coordinator runs inside those driver calls, behind no seam the
    // benchmark can wrap: its self time is the driver's.
    out.metric("coordinator.self_us_per_round", driver_self / rounds / 1e3, "us");
    out.metric("pool.pump_self_ms_per_round", ledger.self_time("pool.pump") / rounds / 1e6, "ms");
    out.metric("ml.train_ms_p50", median(&ledger.durations("ml.handle_global")) / 1e6, "ms");
    out.metric(
        "ml.train_share",
        ledger.covered("ml.handle_global") / ledger.total("rounds"),
        "fraction",
    );
    out.metric("trace.unattributed_frac", ledger.unattributed_frac("rounds"), "fraction");
}

/// Checkpoint layer: size of the last checkpoint and median span times.
pub fn checkpoint(out: &mut Outcome, ledger: &Ledger, last_bytes: usize) {
    out.metric("checkpoint.bytes", last_bytes as f64, "B");
    for (metric, span) in [
        ("checkpoint.encode_ms", "checkpoint.encode"),
        ("checkpoint.write_ms", "checkpoint.write"),
        ("checkpoint.decode_ms", "checkpoint.decode"),
        ("checkpoint.restore_ms", "checkpoint.restore"),
    ] {
        out.metric(metric, median(&ledger.durations(span)) / 1e6, "ms");
    }
}

/// Writes the run's spans under `.bench_out/` in the working directory.
pub fn write(args: &Args, ledger: &Ledger) {
    let path = std::path::Path::new(".bench_out")
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = ledger.write(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {} spans to {}", ledger.spans.len(), path.display());
    }
}
