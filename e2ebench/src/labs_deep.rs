//! `labs_deep`: the paper's Fig. 1 loop on LABS n = 22, p = 4.
//!
//! An op is one parameter optimization as a user runs it: build a
//! `FurSimulator` with default options (the cost-diagonal precompute),
//! then a fixed-budget Nelder–Mead over `QaoaSimulator::objective` from a
//! seeded linear ramp. Every op of a run starts from the same ramp, so ops
//! repeat the same work and their outputs can be compared.

use crate::stats::{median, quantile};
use crate::trace::{Tracer, OP};
use crate::{digest, machine, run_window, RunCtx, RunOutput, Size};
use qokit_core::{FurSimulator, QaoaSimulator, SimOptions};
use qokit_optim::NelderMead;
use qokit_statevec::{ExecPolicy, Layout, SplitStateVec, AMP_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Shape {
    n: usize,
    p: usize,
    /// Objective evaluations per optimization. Calls Nelder–Mead makes
    /// past the budget return +∞ without simulating, so every op does the
    /// same work whatever path the simplex takes.
    budget: usize,
    /// Precomputes timed for `setup_s`.
    setup_reps: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            n: 22,
            p: 4,
            budget: 10,
            setup_reps: 5,
        },
        Size::Smoke => Shape {
            n: 10,
            p: 2,
            budget: 7,
            setup_reps: 3,
        },
    }
}

/// The seeded start point `[γ_1..γ_p, β_1..β_p]`: a linear ramp with γ
/// rising and β falling across the layers.
pub fn start_point(seed: u64, p: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = rng.gen_range(0.2..0.6);
    let b = rng.gen_range(0.2..0.6);
    let gammas = (0..p).map(|l| g * (l + 1) as f64 / p as f64);
    let betas = (0..p).map(|l| b * (p - l) as f64 / p as f64);
    gammas.chain(betas).collect()
}

/// `QaoaSimulator::objective` replayed call by call, each public kernel
/// call in its own span. It makes the calls `evolve_in_place_with` makes,
/// following the policy's layout, and returns the same bits.
fn traced_objective(
    sim: &FurSimulator,
    gammas: &[f64],
    betas: &[f64],
    t: &mut Tracer,
    op: u64,
) -> f64 {
    let policy = sim.options().exec;
    let mixer = sim.options().mixer;
    let costs = sim.cost_diagonal();
    let mut state = t.span("statevec.init", op, || sim.initial_state());
    if policy.layout == Layout::Split {
        let mut split = t.span("statevec.transpose", op, || {
            SplitStateVec::from_interleaved(state.amplitudes())
        });
        let (re, im) = split.planes_mut();
        for (&g, &b) in gammas.iter().zip(betas) {
            t.span("costvec.phase", op, || {
                policy.install(|| costs.apply_phase_split(re, im, g, policy))
            });
            t.span("core.mixer", op, || {
                policy.install(|| mixer.apply_split(re, im, b, policy))
            });
        }
        t.span("statevec.transpose", op, || {
            split.write_interleaved(state.amplitudes_mut())
        });
    } else {
        for (&g, &b) in gammas.iter().zip(betas) {
            t.span("costvec.phase", op, || {
                policy.install(|| costs.apply_phase(state.amplitudes_mut(), g, policy))
            });
            t.span("core.mixer", op, || {
                policy.install(|| mixer.apply(state.amplitudes_mut(), b, policy))
            });
        }
    }
    t.span("costvec.expectation", op, || {
        policy.install(|| costs.expectation(state.amplitudes(), policy))
    })
}

/// One optimization's outputs and timings.
struct Op {
    energies: Vec<f64>,
    best_f: f64,
    wall: f64,
    precompute: f64,
    /// Nelder–Mead's own time: its wall time minus the objective calls.
    nm_self: f64,
    evals: Vec<f64>,
}

fn optimize(
    poly: &qokit_terms::SpinPolynomial,
    x0: &[f64],
    s: &Shape,
    t: &mut Tracer,
    i: u64,
) -> Op {
    let op_span = t.begin(OP, i);
    let t0 = Instant::now();
    let sim = t.span("costvec.precompute", i, || FurSimulator::new(poly));
    let precompute = t0.elapsed().as_secs_f64();
    let nm = NelderMead {
        max_evals: s.budget,
        ftol: 0.0,
        xtol: 0.0,
        ..NelderMead::default()
    };
    let (mut energies, mut evals) = (Vec::new(), Vec::new());
    let t_nm = Instant::now();
    let nm_span = t.begin("optim.nelder_mead", i);
    let result = nm.minimize(
        |x| {
            if energies.len() >= s.budget {
                return f64::INFINITY;
            }
            let te = Instant::now();
            let call = t.begin("core.objective", i);
            let (gammas, betas) = x.split_at(s.p);
            let e = if t.enabled() {
                traced_objective(&sim, gammas, betas, t, i)
            } else {
                sim.objective(gammas, betas)
            };
            t.end(call);
            evals.push(te.elapsed().as_secs_f64());
            energies.push(e);
            e
        },
        x0,
    );
    t.end(nm_span);
    let nm_wall = t_nm.elapsed().as_secs_f64();
    drop(sim);
    let wall = t0.elapsed().as_secs_f64();
    t.end(op_span);
    Op {
        energies,
        best_f: result.best_f,
        wall,
        precompute,
        nm_self: nm_wall - evals.iter().sum::<f64>(),
        evals,
    }
}

/// Runs the workload.
pub fn run(ctx: RunCtx) -> RunOutput {
    let s = shape(ctx.size);
    let mut out = RunOutput::default();
    let t_terms = Instant::now();
    let poly = qokit_terms::labs::labs_terms(s.n);
    let terms_s = t_terms.elapsed().as_secs_f64();
    let x0 = start_point(ctx.seed, s.p);

    let setup: Vec<f64> = (0..s.setup_reps)
        .map(|_| {
            let t = Instant::now();
            let sim = FurSimulator::new(&poly);
            let dt = t.elapsed().as_secs_f64();
            drop(sim);
            dt
        })
        .collect();

    let epoch = Instant::now();
    let mut phases: Vec<(Vec<Op>, Tracer)> = Vec::new();
    for (traced, window) in ctx.phases() {
        let mut t = Tracer::new(traced, epoch);
        let mut ops = Vec::new();
        let base = phases.iter().map(|p| p.0.len() as u64).sum::<u64>();
        run_window(window, |i| {
            ops.push(optimize(&poly, &x0, &s, &mut t, base + i));
            true
        });
        phases.push((ops, t));
    }
    let peak_rss = machine::peak_rss_mib();

    // Correctness gate, outside every timed region: a serial simulator of
    // the same instance is the reference for the start-point energy, and
    // its diagonal bounds every energy.
    let serial = FurSimulator::with_options(
        &poly,
        SimOptions {
            exec: ExecPolicy::serial(),
            ..SimOptions::default()
        },
    );
    let t_serial = Instant::now();
    let reference = serial.objective(&x0[..s.p], &x0[s.p..]);
    let serial_eval = t_serial.elapsed().as_secs_f64();
    let (lo, hi) = serial.cost_diagonal().extrema();
    let slack = 1e-9 * lo.abs().max(hi.abs()).max(1.0);
    for (i, op) in phases.iter().flat_map(|p| &p.0).enumerate() {
        out.attempted += 1;
        let min = op.energies.iter().copied().fold(f64::INFINITY, f64::min);
        let checks = [
            (op.energies.len() == s.budget, "budget not spent"),
            (
                (op.energies[0] - reference).abs() <= 1e-10,
                "start-point energy differs from the serial reference",
            ),
            (
                op.energies
                    .iter()
                    .all(|&e| e >= lo - slack && e <= hi + slack),
                "energy outside the cost extrema",
            ),
            (op.best_f == min, "best_f is not the lowest energy seen"),
        ];
        if let Some((_, why)) = checks.iter().find(|c| !c.0) {
            out.failed += 1;
            out.fail(format!("op {i}: {why}"));
        }
        out.ops.push(format!(
            "op {i}: x0 {:016x} energies {:016x} best_f {:016x}",
            digest(x0.iter().map(|v| v.to_bits())),
            digest(op.energies.iter().map(|v| v.to_bits())),
            op.best_f.to_bits()
        ));
    }

    // Each op's time is composed from the median of its objective calls
    // (precompute + budget × median call + Nelder–Mead's own time), so
    // host stalls during a minority of calls do not move it. Each op's
    // wall time is in the record as `op_wall_p50_s`.
    let untraced = &phases[0].0;
    let walls: Vec<f64> = untraced.iter().map(|o| o.wall).collect();
    let evals: Vec<f64> = untraced.iter().flat_map(|o| o.evals.clone()).collect();
    let op_times: Vec<f64> = untraced
        .iter()
        .map(|o| o.precompute + s.budget as f64 * median(&o.evals) + o.nm_self)
        .collect();
    let op_p50 = median(&op_times);
    out.put("setup_s", median(&setup), setup.len());
    out.put("opt_s", op_p50, op_times.len());
    out.put("eval_p50_s", median(&evals), evals.len());
    out.put("scan_points_per_s", 1.0 / median(&evals), evals.len());
    out.put("job_p50_s", op_p50, op_times.len());
    out.put("job_p90_s", quantile(&op_times, 0.9), op_times.len());
    out.put("jobs_per_s", 1.0 / op_p50, op_times.len());
    out.put("op_wall_p50_s", median(&walls), walls.len());
    out.put("peak_rss_mib", peak_rss, 1);

    let policy = SimOptions::default().exec;
    let dim = 1u64 << s.n;
    let state_bytes = dim * AMP_BYTES as u64;
    let diag_bytes = dim * 8;
    out.context = vec![
        ("problem", format!("LABS n={} p={}", s.n, s.p)),
        ("nm_budget_evals", s.budget.to_string()),
        (
            "exec",
            format!("{:?} layout {:?}", policy.backend, policy.layout),
        ),
        (
            "working_set",
            format!(
                "state {} + diagonal {} = {} vs L3 {}",
                machine::mib(state_bytes),
                machine::mib(diag_bytes),
                machine::mib(state_bytes + diag_bytes),
                machine::l3_bytes().map_or("unknown".into(), machine::mib)
            ),
        ),
    ];

    if let Some((ops, t)) = phases.get(1) {
        let per_eval = |name| t.self_s_per_enclosing(name, "core.objective");
        let traced_evals: Vec<f64> = ops.iter().flat_map(|o| o.evals.clone()).collect();
        let mixer_s = per_eval("core.mixer");
        let phase_s = per_eval("costvec.phase");
        // Computed, not counted: one read and one write of the state per
        // qubit per mixer layer, and per phase layer one read of the
        // diagonal plus a read and a write of the state.
        let mixer_bytes = (s.p * s.n) as f64 * 2.0 * state_bytes as f64;
        let phase_bytes = s.p as f64 * (2.0 * state_bytes as f64 + diag_bytes as f64);
        out.put("terms.build_s", terms_s, 1);
        let pre = t.durations_s("costvec.precompute");
        out.put("costvec.precompute_s", median(&pre), pre.len());
        for (metric, span) in [
            ("statevec.init_s", "statevec.init"),
            ("statevec.transpose_s", "statevec.transpose"),
            ("costvec.expectation_s", "costvec.expectation"),
        ] {
            let v = per_eval(span);
            out.put(metric, median(&v), v.len());
        }
        out.put("costvec.phase_s", median(&phase_s), phase_s.len());
        out.put("core.mixer_s", median(&mixer_s), mixer_s.len());
        let nm_self = t.self_s_per_op("optim.nelder_mead");
        out.put("optim.nm_self_s", median(&nm_self), nm_self.len());
        out.put("statevec.serial_eval_s", serial_eval, 1);
        out.put(
            "rayon.kernel_speedup",
            serial_eval / median(&evals),
            evals.len(),
        );
        out.put("core.mixer_bytes", mixer_bytes, 1);
        out.put("costvec.phase_bytes", phase_bytes, 1);
        out.put(
            "core.mixer_computed_gbps",
            mixer_bytes / median(&mixer_s) / 1e9,
            mixer_s.len(),
        );
        out.put(
            "costvec.phase_computed_gbps",
            phase_bytes / median(&phase_s) / 1e9,
            phase_s.len(),
        );
        out.put("trace.closure", t.closure(), ops.len());
        out.put(
            "trace.overhead",
            median(&traced_evals) / median(&evals),
            traced_evals.len(),
        );
    }
    out.spans = phases.pop().map(|p| p.1).filter(Tracer::enabled);
    out
}
