//! End-to-end benchmark of the qokit workspace.
//!
//! Three workloads, each driving default-configured public APIs the way a
//! user calls them:
//!
//! * `labs_deep` — LABS n = 22, p = 4: precompute, then a fixed-budget
//!   Nelder–Mead over the objective (the paper's Fig. 1 loop). State plus
//!   diagonal (96 MiB) sit at the size of the last-level cache, so time
//!   goes to the `statevec`/`costvec` kernels run kernel-parallel.
//! * `landscape_scan` — LABS n = 8, p = 1, a 1024 × 1024 grid through a
//!   2-rank `DistSweepRunner` into a `LandscapeAggregator`. Each 4 KiB
//!   state lives in L1, so per-point overhead in pool, batching and rank
//!   supersteps dominates; the pool runs points-parallel.
//! * `serve_mix` — an in-process server on loopback, loaded by two
//!   closed-loop clients with a seeded mix of warm and cold sweeps,
//!   multi-start and light-cone jobs. Two clients build no queue.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around every public call and reports the
//! per-layer metrics. `README.md` defines every metric and says which layer
//! metric should move which end-to-end metric.

pub mod labs_deep;
pub mod landscape_scan;
pub mod machine;
pub mod serve_mix;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("opt_s", "s"),
    ("eval_p50_s", "s"),
    ("scan_points_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A layer
/// a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("terms.build_s", "s"),
    ("costvec.precompute_s", "s"),
    ("statevec.init_s", "s"),
    ("statevec.transpose_s", "s"),
    ("costvec.phase_s", "s"),
    ("core.mixer_s", "s"),
    ("costvec.expectation_s", "s"),
    ("optim.nm_self_s", "s"),
    ("statevec.serial_eval_s", "s"),
    ("rayon.kernel_speedup", "ratio"),
    ("core.mixer_bytes", "B"),
    ("costvec.phase_bytes", "B"),
    ("core.mixer_computed_gbps", "GB/s"),
    ("costvec.phase_computed_gbps", "GB/s"),
    ("core.point_serial_s", "s"),
    ("core.scan_into_points_per_s", "1/s"),
    ("dist.rank_overhead", "ratio"),
    ("rayon.efficiency", "ratio"),
    ("core.aggregate_s", "s"),
    ("dist.supersteps", "count"),
    ("serve.sweep_warm_p50_s", "s"),
    ("serve.sweep_cold_p50_s", "s"),
    ("serve.multistart_p50_s", "s"),
    ("serve.lightcone_p50_s", "s"),
    ("serve.sweep_warm_overhead_s", "s"),
    ("serve.sweep_cold_overhead_s", "s"),
    ("serve.multistart_overhead_s", "s"),
    ("serve.lightcone_overhead_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_build_s", "s"),
    ("serve.request_bytes", "B"),
    ("serve.rejected", "count"),
    ("serve.errored", "count"),
    ("core.lightcone_hit_rate", "ratio"),
    ("optim.multistart_evals", "count"),
    ("trace.closure", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["labs_deep", "landscape_scan", "serve_mix"];

/// Problem sizes: `Full` is the benchmark; `Smoke` shrinks every workload
/// so the smoke test runs all three in seconds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny sizes for the smoke test.
    Smoke,
}

/// One run's settings.
#[derive(Copy, Clone, Debug)]
pub struct RunCtx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub size: Size,
}

impl RunCtx {
    /// The measurement windows of a run: the whole window untraced, or
    /// an untraced half followed by a traced half (the untraced half is
    /// the baseline of `trace.overhead`).
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            vec![(false, half), (true, half)]
        } else {
            vec![(false, Duration::from_secs_f64(self.seconds))]
        }
    }
}

/// Runs ops until `window` has elapsed, never starting an op that the
/// previous op's duration predicts would end past the window (at least one
/// op always runs). `op` gets the op index and returns whether to go on.
pub fn run_window(window: Duration, mut op: impl FnMut(u64) -> bool) -> Duration {
    let start = Instant::now();
    for i in 0u64.. {
        let t = Instant::now();
        if !op(i) || start.elapsed() + t.elapsed() > window {
            break;
        }
    }
    start.elapsed()
}

/// What a run measured and checked.
#[derive(Default, Debug)]
pub struct RunOutput {
    /// Ops started.
    pub attempted: u64,
    /// Ops whose output failed a check or that did not complete.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind each metric, where it is a statistic.
    pub samples: BTreeMap<&'static str, usize>,
    /// Workload context: working set against the machine.
    pub context: Vec<(&'static str, String)>,
    /// One line per op: its inputs' and outputs' digest, in op order.
    pub ops: Vec<String>,
    /// Failed checks, of ops and of reference runs.
    pub errors: Vec<String>,
    /// Spans of the traced phase.
    pub spans: Option<trace::Tracer>,
}

impl RunOutput {
    /// Sets a metric with the number of samples behind it.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records a failed check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// `true` when every op and every reference run passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Runs one workload.
pub fn run(workload: &str, ctx: RunCtx) -> Result<RunOutput, String> {
    match workload {
        "labs_deep" => Ok(labs_deep::run(ctx)),
        "landscape_scan" => Ok(landscape_scan::run(ctx)),
        "serve_mix" => Ok(serve_mix::run(ctx)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics of
/// the run's mode (end-to-end untraced, per-layer traced), each with its
/// unit. A metric that came out non-finite is reported as 0 and makes the
/// run incorrect when it is end-to-end.
pub fn result_json(out: &RunOutput, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.correct();
    let mut metrics = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let mut value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            correct &= trace;
            value = 0.0;
        }
        if !trace && !out.metrics.contains_key(name) {
            correct = false;
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    )
}

/// FNV-1a over 64-bit words: a fingerprint of an op's inputs or outputs
/// for the op log.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full run record: settings, machine and workload context, every
/// metric with its sample count, failed checks, and the op log.
pub fn record_json(workload: &str, ctx: &RunCtx, out: &RunOutput) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"size\": {},",
        json_str(workload),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        json_str(&format!("{:?}", ctx.size))
    );
    s.push_str("  \"context\": {");
    let ctx_items: Vec<String> = machine::context()
        .into_iter()
        .chain(out.context.iter().cloned())
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(&v)))
        .collect();
    s.push_str(&ctx_items.join(", "));
    s.push_str("},\n  \"metrics\": {");
    let metric_items: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v)| {
            let n = out.samples.get(k).copied().unwrap_or(1);
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("{}: {{\"value\": {v}, \"samples\": {n}}}", json_str(k))
        })
        .collect();
    s.push_str(&metric_items.join(", "));
    let _ = writeln!(
        s,
        "}},\n  \"correct\": {}, \"attempted\": {}, \"failed\": {},",
        out.correct(),
        out.attempted,
        out.failed
    );
    let errs: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    let _ = writeln!(s, "  \"errors\": [{}],", errs.join(", "));
    let ops: Vec<String> = out.ops.iter().map(|o| json_str(o)).collect();
    let _ = writeln!(s, "  \"ops\": [{}]", ops.join(", "));
    s.push('}');
    s
}
