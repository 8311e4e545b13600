//! `landscape_scan`: the README's flagship scan — LABS n = 8, p = 1, a
//! 1024 × 1024 `(γ, β)` grid (2^20 points) through a 2-rank
//! `DistSweepRunner` with default options into `LandscapeAggregator::new(16)`.
//!
//! An op is one full scan. Every op of a run scans the same seeded grid,
//! so one plain `SweepRunner::scan_into` of that grid checks them all.

use crate::stats::{median, quantile};
use crate::trace::{Tracer, OP};
use crate::{digest, machine, run_window, RunCtx, RunOutput, Size};
use qokit_core::batch::{SweepOptions, SweepPoint, SweepRunner};
use qokit_core::landscape::{EnergySink, LandscapeAggregator};
use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
use qokit_dist::{Axis, DistSweepOptions, DistSweepRunner, Grid2d, PointSource};
use qokit_statevec::{ExecPolicy, AMP_BYTES};
use qokit_terms::SpinPolynomial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RANKS: usize = 2;
const TOP_K: usize = 16;

struct Shape {
    n: usize,
    steps: usize,
    /// `setup_s` is the median over `setup_batches` of the mean time of
    /// `setup_reps` runner constructions (each takes microseconds).
    setup_batches: usize,
    setup_reps: usize,
    /// Grid points timed on a serial simulator for the per-point floor.
    serial_points: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            n: 8,
            steps: 1024,
            setup_batches: 5,
            setup_reps: 200,
            serial_points: 1 << 14,
        },
        Size::Smoke => Shape {
            n: 6,
            steps: 48,
            setup_batches: 3,
            setup_reps: 20,
            serial_points: 256,
        },
    }
}

/// The seeded scan grid: symmetric γ and β ranges of seeded half-widths.
pub fn grid(seed: u64, steps: usize) -> Grid2d {
    let mut rng = StdRng::seed_from_u64(seed);
    let g: f64 = rng.gen_range(0.6..1.0);
    let b: f64 = rng.gen_range(0.6..1.0);
    Grid2d::new(Axis::new(-g, g, steps), Axis::new(-b, b, steps))
}

/// The runner as the README builds it: default simulator, default sweep
/// options, two ranks.
fn build_runner(poly: &SpinPolynomial) -> DistSweepRunner {
    DistSweepRunner::with_options(
        Arc::new(FurSimulator::new(poly)),
        DistSweepOptions {
            ranks: RANKS,
            ..DistSweepOptions::default()
        },
    )
}

/// An [`EnergySink`] that times the aggregator it wraps.
struct TimedSink {
    inner: LandscapeAggregator,
    busy: Duration,
}

impl EnergySink for TimedSink {
    fn observe(&mut self, index: u64, energy: f64) {
        let t = Instant::now();
        self.inner.observe(index, energy);
        self.busy += t.elapsed();
    }
}

/// The grid as the scan's [`PointSource`], noting when each rank starts
/// each chunk of its slice: the scan's progress, observed from outside.
struct Progress<'a> {
    grid: &'a Grid2d,
    /// First index of each rank's slice, as `DistSweepRunner` shards it.
    starts: Vec<u64>,
    chunk: u64,
    t0: Instant,
    marks: Mutex<Vec<(usize, f64)>>,
}

impl<'a> Progress<'a> {
    fn new(grid: &'a Grid2d, ranks: usize, chunk: usize) -> Progress<'a> {
        let total = grid.len();
        Progress {
            grid,
            starts: (0..ranks as u64)
                .map(|r| total * r / ranks as u64)
                .collect(),
            chunk: chunk as u64,
            t0: Instant::now(),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Seconds between consecutive chunk starts of the same rank: the
    /// duration of one superstep, barrier included.
    fn intervals(self) -> Vec<f64> {
        let mut marks = self.marks.into_inner().expect("marks lock never poisoned");
        marks.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        marks
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1 - w[0].1)
            .collect()
    }
}

impl PointSource for Progress<'_> {
    fn len(&self) -> u64 {
        self.grid.len()
    }

    fn point(&self, index: u64) -> SweepPoint {
        let rank = self.starts.partition_point(|&s| s <= index) - 1;
        if (index - self.starts[rank]).is_multiple_of(self.chunk) {
            let t = self.t0.elapsed().as_secs_f64();
            self.marks
                .lock()
                .expect("marks lock never poisoned")
                .push((rank, t));
        }
        self.grid.point(index)
    }
}

struct Op {
    wall: f64,
    /// Superstep durations.
    steps: Vec<f64>,
    points: u64,
    count: u64,
    argmin: Option<u64>,
    min: Option<f64>,
    supersteps: u64,
}

/// Runs the workload.
pub fn run(ctx: RunCtx) -> RunOutput {
    let s = shape(ctx.size);
    let mut out = RunOutput::default();
    let t_terms = Instant::now();
    let poly = qokit_terms::labs::labs_terms(s.n);
    let terms_s = t_terms.elapsed().as_secs_f64();
    let grid = grid(ctx.seed, s.steps);
    let total = grid.len();

    let setup: Vec<f64> = (0..s.setup_batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..s.setup_reps {
                std::hint::black_box(build_runner(&poly));
            }
            t.elapsed().as_secs_f64() / s.setup_reps as f64
        })
        .collect();
    let runner = build_runner(&poly);

    let epoch = Instant::now();
    let mut phases: Vec<(Vec<Op>, Tracer)> = Vec::new();
    for (traced, window) in ctx.phases() {
        let mut t = Tracer::new(traced, epoch);
        let mut ops = Vec::new();
        let base = phases.iter().map(|p| p.0.len() as u64).sum::<u64>();
        run_window(window, |i| {
            let op_span = t.begin(OP, base + i);
            let t0 = Instant::now();
            let progress = Progress::new(&grid, RANKS, runner.options().chunk);
            let scan = t.span("dist.scan", base + i, || {
                runner.scan(&progress, LandscapeAggregator::new(TOP_K))
            });
            let wall = t0.elapsed().as_secs_f64();
            t.end(op_span);
            ops.push(Op {
                wall,
                steps: progress.intervals(),
                points: scan.points,
                count: scan.agg.count(),
                argmin: scan.agg.argmin(),
                min: scan.agg.min_energy(),
                supersteps: scan.supersteps,
            });
            true
        });
        phases.push((ops, t));
    }
    let peak_rss = machine::peak_rss_mib();

    // Correctness gate, outside every timed region: the same grid through
    // one plain SweepRunner::scan_into (no ranks) on the same simulator.
    let plain = SweepRunner::from_arc(Arc::clone(runner.simulator()), SweepOptions::default());
    let mut sink = TimedSink {
        inner: LandscapeAggregator::new(TOP_K),
        busy: Duration::ZERO,
    };
    // Chunk starts of the plain scan, as for the ranks' supersteps.
    let chunk = runner.options().chunk;
    let t_ref = Instant::now();
    let mut chunk_starts = Vec::new();
    let scanned = plain.scan_into(
        (0..total).map(|i| {
            if i.is_multiple_of(chunk as u64) {
                chunk_starts.push(t_ref.elapsed().as_secs_f64());
            }
            grid.point(i)
        }),
        chunk,
        &mut sink,
    );
    let plain_chunks: Vec<f64> = chunk_starts.windows(2).map(|w| w[1] - w[0]).collect();
    let reference = &sink.inner;
    if scanned != Ok(total) || reference.count() != total {
        out.fail(format!("reference scan_into: {scanned:?}"));
    }
    let (ref_argmin, ref_min) = (reference.argmin(), reference.min_energy().map(f64::to_bits));
    for (i, op) in phases.iter().flat_map(|p| &p.0).enumerate() {
        out.attempted += 1;
        let ok = op.points == total
            && op.count == total
            && op.argmin == ref_argmin
            && op.min.map(f64::to_bits) == ref_min;
        if !ok {
            out.failed += 1;
            out.fail(format!(
                "op {i}: {} points, argmin {:?} min {:?}; scan_into gives argmin {ref_argmin:?} min {:?}",
                op.count,
                op.argmin,
                op.min,
                reference.min_energy()
            ));
        }
        out.ops.push(format!(
            "op {i}: grid {:016x} points {} argmin {:?} min {:016x}",
            digest(
                [grid.gamma.lo, grid.gamma.hi, grid.beta.lo, grid.beta.hi]
                    .iter()
                    .map(|v| v.to_bits())
            ),
            op.count,
            op.argmin,
            op.min.map_or(0, f64::to_bits)
        ));
    }

    // Each scan's time is its median superstep scaled to the whole scan,
    // so host stalls during a minority of supersteps do not move it. Each
    // scan's wall time is in the record as `scan_wall_p50_s`.
    let untraced = &phases[0].0;
    let walls: Vec<f64> = untraced.iter().map(|o| o.wall).collect();
    let supersteps = total as f64 / (RANKS * runner.options().chunk) as f64;
    let scan_time = |o: &Op| median(&o.steps) * supersteps;
    let scans: Vec<f64> = untraced.iter().map(scan_time).collect();
    let scan_p50 = median(&scans);
    out.put("setup_s", median(&setup), setup.len());
    out.put("opt_s", scan_p50, scans.len());
    out.put("eval_p50_s", scan_p50 / total as f64, scans.len());
    out.put("scan_points_per_s", total as f64 / scan_p50, scans.len());
    out.put("job_p50_s", scan_p50, scans.len());
    out.put("job_p90_s", quantile(&scans, 0.9), scans.len());
    out.put("jobs_per_s", 1.0 / scan_p50, scans.len());
    out.put("scan_wall_p50_s", median(&walls), walls.len());
    out.put("peak_rss_mib", peak_rss, 1);

    out.context = vec![
        (
            "problem",
            format!("LABS n={} p=1, {}x{} grid", s.n, s.steps, s.steps),
        ),
        ("points", total.to_string()),
        (
            "ranks_chunk",
            format!("{RANKS} ranks, chunk {}", runner.options().chunk),
        ),
        (
            "working_set",
            format!(
                "per-point state {} B vs L3 {}",
                (1u64 << s.n) * AMP_BYTES as u64,
                machine::l3_bytes().map_or("unknown".into(), machine::mib)
            ),
        ),
    ];

    if let Some((ops, t)) = phases.get(1) {
        let serial = FurSimulator::with_options(
            &poly,
            SimOptions {
                exec: ExecPolicy::serial(),
                ..SimOptions::default()
            },
        );
        // Serial per-point floor: median over batches of 256 points.
        let batch = 256;
        let batches: Vec<f64> = (0..s.serial_points.min(total) / batch)
            .map(|b| {
                let t = Instant::now();
                for i in b * batch..(b + 1) * batch {
                    let p = grid.point(i);
                    std::hint::black_box(serial.objective(&p.gammas, &p.betas));
                }
                t.elapsed().as_secs_f64() / batch as f64
            })
            .collect();
        let point_serial = median(&batches);
        let plain_scan = median(&plain_chunks) * total as f64 / chunk as f64;
        let traced_scans: Vec<f64> = ops.iter().map(scan_time).collect();
        let workers = rayon::current_num_threads() as f64;
        out.put("terms.build_s", terms_s, 1);
        out.put("core.point_serial_s", point_serial, batches.len());
        out.put(
            "core.scan_into_points_per_s",
            total as f64 / plain_scan,
            plain_chunks.len(),
        );
        out.put("dist.rank_overhead", scan_p50 / plain_scan, scans.len());
        out.put(
            "rayon.efficiency",
            total as f64 * point_serial / (workers * scan_p50),
            scans.len(),
        );
        out.put("core.aggregate_s", sink.busy.as_secs_f64(), 1);
        out.put(
            "dist.supersteps",
            ops.last().map_or(0, |o| o.supersteps) as f64,
            1,
        );
        out.put("trace.closure", t.closure(), ops.len());
        out.put(
            "trace.overhead",
            median(&traced_scans) / scan_p50,
            traced_scans.len(),
        );
    }
    out.spans = phases.pop().map(|p| p.1).filter(Tracer::enabled);
    out
}
