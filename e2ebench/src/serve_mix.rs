//! `serve_mix`: an in-process `Server` on loopback loaded by two
//! closed-loop `ServeClient`s running a seeded job mix.
//!
//! Each client repeats rounds. A round holds one warm sweep per hot LABS
//! problem and one multi-start job (whose problem is also hot) and one
//! light-cone job, in seeded order, then one cold sweep on a never-seen
//! MaxCut problem. The cache budget holds the hot set plus a few cold
//! entries, so cold builds evict older cold entries. Since a client
//! touches every hot entry between two of its cold jobs, LRU never picks a
//! hot entry while the budget leaves room for the cold jobs the other
//! client makes in that time. Two clients build no queue: at most two jobs
//! are ever outstanding.
//!
//! An op is one job, timed from submit to its terminal frame.

use crate::stats::{beyond, median, quantile};
use crate::trace::{Tracer, OP};
use crate::{digest, machine, run_window, RunCtx, RunOutput, Size};
use qokit_core::batch::{SweepNesting, SweepOptions, SweepPoint, SweepRunner};
use qokit_core::SimOptions;
use qokit_core::{FurSimulator, LandscapeAggregator, LightConeEvaluator, LightConeOptions};
use qokit_dist::wire::SweepSimSpec;
use qokit_dist::{Axis, Grid2d, PointSource};
use qokit_optim::{MultiStart, NelderMead, RestartMethod};
use qokit_serve::proto::encode_request;
use qokit_serve::{
    CacheStatsView, ClientError, JobOutcome, LightConeJob, MultiStartJob, ProgressAction,
    ServeClient, ServeRequest, Server, ServerConfig, ServerHandle, SweepJob,
};
use qokit_statevec::{Backend, ExecPolicy};
use qokit_terms::maxcut::maxcut_polynomial;
use qokit_terms::{Graph, SpinPolynomial};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const TOP_K: usize = 4;

struct Shape {
    /// LABS sizes of the hot sweep problems.
    hot_ns: &'static [usize],
    /// Vertices of the 3-regular MaxCut problem of each cold sweep.
    cold_n: usize,
    /// Sweep grids are `grid × grid`.
    grid: usize,
    /// LABS size, depth and restarts of the multi-start jobs.
    ms_n: usize,
    ms_p: usize,
    ms_restarts: usize,
    /// Vertices and depth of the light-cone jobs' 3-regular graphs.
    lc_vertices: usize,
    lc_p: usize,
    /// Cold entries the cache budget holds beyond the hot set.
    cold_slots: usize,
    /// Server set-ups timed for `setup_s`.
    setup_reps: usize,
    /// Every `check_every`-th job of a client, and its first job of each
    /// kind, is re-run through the one-shot API.
    check_every: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            hot_ns: &[14, 15, 16, 17],
            cold_n: 16,
            grid: 4,
            ms_n: 10,
            ms_p: 2,
            ms_restarts: 2,
            lc_vertices: 20_000,
            lc_p: 2,
            cold_slots: 4,
            setup_reps: 5,
            check_every: 16,
        },
        Size::Smoke => Shape {
            hot_ns: &[6, 7],
            cold_n: 6,
            grid: 3,
            ms_n: 5,
            ms_p: 1,
            ms_restarts: 2,
            lc_vertices: 60,
            lc_p: 2,
            cold_slots: 2,
            setup_reps: 2,
            check_every: 2,
        },
    }
}

/// The simulator spec every job carries: the defaults of `SimOptions`.
/// This is the one place the benchmark sets `SweepSimSpec.layout`.
fn sim_spec() -> SweepSimSpec {
    let d = SimOptions::default();
    SweepSimSpec {
        precompute: d.precompute,
        quantize_u16: d.quantize_u16,
        layout: d.exec.layout,
    }
}

/// The server's per-job kernels: serial executor, default layout and
/// thresholds.
fn serial_exec() -> ExecPolicy {
    ExecPolicy {
        backend: Backend::Serial,
        ..ExecPolicy::auto()
    }
}

/// A one-shot simulator built as the server builds its cached ones.
fn oneshot_sim(poly: &SpinPolynomial) -> Arc<FurSimulator> {
    Arc::new(FurSimulator::with_options(
        poly,
        SimOptions {
            exec: serial_exec(),
            ..SimOptions::default()
        },
    ))
}

fn oneshot_runner(sim: Arc<FurSimulator>) -> SweepRunner {
    SweepRunner::from_arc(
        sim,
        SweepOptions {
            exec: serial_exec(),
            nested: SweepNesting::PointsParallel,
        },
    )
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    MultiStart,
    LightCone,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Warm, Kind::Cold, Kind::MultiStart, Kind::LightCone];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Warm => "sweep_warm",
            Kind::Cold => "sweep_cold",
            Kind::MultiStart => "multistart",
            Kind::LightCone => "lightcone",
        }
    }

    fn metrics(self) -> (&'static str, &'static str) {
        match self {
            Kind::Warm => ("serve.sweep_warm_p50_s", "serve.sweep_warm_overhead_s"),
            Kind::Cold => ("serve.sweep_cold_p50_s", "serve.sweep_cold_overhead_s"),
            Kind::MultiStart => ("serve.multistart_p50_s", "serve.multistart_overhead_s"),
            Kind::LightCone => ("serve.lightcone_p50_s", "serve.lightcone_overhead_s"),
        }
    }
}

/// Problems shared by every client, built before set-up.
struct Inputs {
    hot: Vec<SpinPolynomial>,
    ms_poly: SpinPolynomial,
    lc_graphs: Vec<Graph>,
}

impl Inputs {
    fn new(s: &Shape, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1c0e);
        Inputs {
            hot: s
                .hot_ns
                .iter()
                .map(|&n| qokit_terms::labs::labs_terms(n))
                .collect(),
            ms_poly: qokit_terms::labs::labs_terms(s.ms_n),
            lc_graphs: (0..2)
                .map(|_| Graph::random_regular(s.lc_vertices, 3, &mut rng))
                .collect(),
        }
    }

    /// Bytes the hot set occupies in the precompute cache.
    fn hot_bytes(&self) -> usize {
        self.hot
            .iter()
            .chain([&self.ms_poly])
            .map(|p| 8usize << p.n_vars())
            .sum()
    }
}

/// A job as the client submits it.
enum Job {
    Sweep(SweepJob),
    MultiStart(MultiStartJob),
    LightCone(LightConeJob),
}

impl Job {
    fn request(&self) -> ServeRequest {
        match self {
            Job::Sweep(job) => ServeRequest::Sweep(job.clone()),
            Job::MultiStart(job) => ServeRequest::MultiStart(job.clone()),
            Job::LightCone(job) => ServeRequest::LightCone(job.clone()),
        }
    }
}

/// One client's seeded job sequence.
struct JobGen<'a> {
    s: &'a Shape,
    inputs: &'a Inputs,
    rng: StdRng,
    round: VecDeque<(Kind, usize)>,
    next_index: u64,
}

impl<'a> JobGen<'a> {
    fn new(s: &'a Shape, inputs: &'a Inputs, seed: u64, client: usize) -> JobGen<'a> {
        JobGen {
            s,
            inputs,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ client as u64),
            round: VecDeque::new(),
            next_index: 0,
        }
    }

    /// Jobs per round.
    fn round_len(&self) -> u64 {
        self.inputs.hot.len() as u64 + 3
    }

    fn sweep(&mut self, poly: SpinPolynomial) -> Job {
        let (g, b): (f64, f64) = (self.rng.gen_range(0.3..1.0), self.rng.gen_range(0.3..1.0));
        Job::Sweep(SweepJob {
            poly,
            spec: sim_spec(),
            grid: Grid2d::new(Axis::new(-g, g, self.s.grid), Axis::new(-b, b, self.s.grid)),
            top_k: TOP_K,
            chunk: self.s.grid * self.s.grid,
            deadline_ms: 0,
            progress_every: 0,
        })
    }

    fn angles(&mut self, p: usize) -> Vec<f64> {
        (0..p).map(|_| self.rng.gen_range(-0.8..0.8)).collect()
    }

    /// The next job: its index in this client's sequence, kind and job.
    fn next(&mut self) -> (u64, Kind, Job) {
        if self.round.is_empty() {
            let mut round: Vec<(Kind, usize)> = (0..self.inputs.hot.len())
                .map(|h| (Kind::Warm, h))
                .chain([(Kind::MultiStart, 0), (Kind::LightCone, 0)])
                .collect();
            round.shuffle(&mut self.rng);
            round.push((Kind::Cold, 0));
            self.round.extend(round);
        }
        let (kind, h) = self.round.pop_front().expect("round refilled above");
        let req = match kind {
            Kind::Warm => self.sweep(self.inputs.hot[h].clone()),
            Kind::Cold => {
                let graph = Graph::random_regular(self.s.cold_n, 3, &mut self.rng);
                self.sweep(maxcut_polynomial(&graph))
            }
            Kind::MultiStart => Job::MultiStart(MultiStartJob {
                poly: self.inputs.ms_poly.clone(),
                spec: sim_spec(),
                depth: self.s.ms_p,
                restarts: self.s.ms_restarts,
                seed: self.rng.gen(),
                bounds: vec![(-0.8, 0.8); 2 * self.s.ms_p],
                deadline_ms: 0,
            }),
            Kind::LightCone => {
                let graph =
                    &self.inputs.lc_graphs[self.rng.gen_range(0..self.inputs.lc_graphs.len())];
                let (n_vertices, edges) = (graph.n_vertices(), graph.edges().to_vec());
                Job::LightCone(LightConeJob {
                    n_vertices,
                    edges,
                    gammas: self.angles(self.s.lc_p),
                    betas: self.angles(self.s.lc_p),
                    max_cone_qubits: LightConeOptions::default().max_cone_qubits,
                    deadline_ms: 0,
                })
            }
        };
        self.next_index += 1;
        (self.next_index - 1, kind, req)
    }
}

/// A completed job's result: the bits the one-shot API must reproduce
/// (for a light cone: energy, edges, unique cones, cone-cache hits), and
/// the cache flag of sweeps and multi-starts.
#[derive(Debug)]
struct Summary {
    bits: Vec<u64>,
    cache_hit: Option<bool>,
}

#[derive(Debug)]
enum Outcome {
    Done(Summary),
    Rejected,
    Cancelled,
    Errored(String),
}

fn sweep_bits(evaluated: u64, sum: f64, min: f64, argmin: u64, top: &[(u64, f64)]) -> Vec<u64> {
    [evaluated, sum.to_bits(), min.to_bits(), argmin]
        .into_iter()
        .chain(top.iter().flat_map(|&(i, e)| [i, e.to_bits()]))
        .collect()
}

fn ms_bits(best_restart: u64, best_f: f64, best_x: &[f64], fs: &[f64]) -> Vec<u64> {
    [best_restart, best_f.to_bits()]
        .into_iter()
        .chain(best_x.iter().map(|v| v.to_bits()))
        .chain(fs.iter().map(|v| v.to_bits()))
        .collect()
}

fn outcome<T>(r: Result<JobOutcome<T>, ClientError>, f: impl FnOnce(T) -> Summary) -> Outcome {
    match r {
        Ok(JobOutcome::Done(t)) => Outcome::Done(f(t)),
        Ok(JobOutcome::Rejected { .. }) => Outcome::Rejected,
        Ok(JobOutcome::Cancelled { .. }) => Outcome::Cancelled,
        Err(e) => Outcome::Errored(e.to_string()),
    }
}

fn submit(client: &mut ServeClient, job: &Job) -> Outcome {
    match job {
        Job::Sweep(job) => outcome(
            client.submit_sweep(job, |_| ProgressAction::Continue),
            |s| Summary {
                bits: sweep_bits(s.evaluated, s.sum, s.min_energy, s.argmin, &s.top_k),
                cache_hit: Some(s.cache_hit),
            },
        ),
        Job::MultiStart(job) => outcome(client.submit_multistart(job), |s| Summary {
            bits: ms_bits(s.best_restart, s.best_f, &s.best_x, &s.restart_best_fs),
            cache_hit: Some(s.cache_hit),
        }),
        Job::LightCone(job) => outcome(client.submit_lightcone(job), |s| Summary {
            bits: vec![s.energy.to_bits(), s.edges, s.unique_cones, s.cache_hits],
            cache_hit: None,
        }),
    }
}

/// A job re-run through the one-shot API.
struct OneShot {
    bits: Vec<u64>,
    /// Time of the one-shot call. Warm sweeps and multi-starts find their
    /// simulator resident on the server, so their build is not included.
    secs: f64,
    /// Simulator build time (sweeps).
    build_s: Option<f64>,
    /// Objective evaluations over all restarts (multi-starts).
    evals: Option<usize>,
}

/// The same job through the one-shot API, on the caller's pool.
fn oneshot(kind: Kind, job: &Job) -> OneShot {
    match job {
        Job::Sweep(job) => {
            let t = Instant::now();
            let sim = oneshot_sim(&job.poly);
            let build = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut agg = LandscapeAggregator::new(job.top_k);
            let points = (0..job.grid.len()).map(|i| job.grid.point(i));
            oneshot_runner(sim)
                .scan_into(points, job.chunk, &mut agg)
                .expect("one-shot scan");
            let scan = t.elapsed().as_secs_f64();
            OneShot {
                bits: sweep_bits(
                    agg.count(),
                    agg.sum(),
                    agg.min_energy().unwrap_or(f64::NAN),
                    agg.argmin().unwrap_or(u64::MAX),
                    agg.top_k(),
                ),
                secs: if kind == Kind::Cold {
                    build + scan
                } else {
                    scan
                },
                build_s: Some(build),
                evals: None,
            }
        }
        Job::MultiStart(job) => {
            let runner = oneshot_runner(oneshot_sim(&job.poly));
            let p = job.depth;
            let objective = |x: &[f64]| {
                let point = SweepPoint::new(x[..p].to_vec(), x[p..].to_vec());
                runner.energies(std::slice::from_ref(&point))[0]
            };
            let multistart = MultiStart {
                method: RestartMethod::NelderMead(NelderMead::default()),
                restarts: job.restarts,
                seed: job.seed,
                bounds: job.bounds.clone(),
            };
            let t = Instant::now();
            let run = multistart.minimize(&objective);
            let secs = t.elapsed().as_secs_f64();
            let fs: Vec<f64> = run.restarts.iter().map(|r| r.best_f).collect();
            let best = run.best();
            OneShot {
                bits: ms_bits(run.best_restart as u64, best.best_f, &best.best_x, &fs),
                secs,
                build_s: None,
                evals: Some(run.restarts.iter().map(|r| r.n_evals).sum()),
            }
        }
        Job::LightCone(job) => {
            let t = Instant::now();
            let evaluator = LightConeEvaluator::with_options(
                Graph::new(job.n_vertices, job.edges.clone()),
                LightConeOptions {
                    max_cone_qubits: job.max_cone_qubits,
                    ..LightConeOptions::default()
                },
            );
            let run = evaluator
                .try_energy(&job.gammas, &job.betas)
                .expect("one-shot light cone");
            let secs = t.elapsed().as_secs_f64();
            let st = run.stats;
            OneShot {
                bits: vec![
                    run.energy.to_bits(),
                    st.edges as u64,
                    st.unique_cones as u64,
                    st.cache_hits as u64,
                ],
                secs,
                build_s: None,
                evals: None,
            }
        }
    }
}

/// A job as one client saw it.
struct Done {
    client: usize,
    index: u64,
    kind: Kind,
    /// Submit and terminal frame, in seconds since the run's epoch.
    start: f64,
    end: f64,
    /// Grid points of a sweep (0 for other kinds) and its problem size.
    points: u64,
    n_vars: usize,
    request_bytes: usize,
    outcome: Outcome,
    /// Kept for the one-shot re-run when the job is sampled.
    job: Option<Job>,
}

impl Done {
    fn latency(&self) -> f64 {
        self.end - self.start
    }
}

/// Binds, spawns and connects, then warms the hot set: one small sweep
/// per hot problem.
fn set_up(cache_bytes: usize, inputs: &Inputs) -> (ServerHandle, Vec<ServeClient>) {
    let server = Server::bind(ServerConfig {
        cache_bytes,
        ..ServerConfig::default()
    })
    .expect("bind loopback listener");
    let handle = server.spawn_thread().expect("spawn server thread");
    let mut clients: Vec<ServeClient> = (0..CLIENTS)
        .map(|_| ServeClient::connect(handle.addr()).expect("connect to loopback server"))
        .collect();
    for poly in inputs.hot.iter().chain([&inputs.ms_poly]) {
        let warm = SweepJob {
            poly: poly.clone(),
            spec: sim_spec(),
            grid: Grid2d::new(Axis::new(-0.5, 0.5, 2), Axis::new(-0.5, 0.5, 2)),
            top_k: 1,
            chunk: 4,
            deadline_ms: 0,
            progress_every: 0,
        };
        let summary = clients[0]
            .submit_sweep(&warm, |_| ProgressAction::Continue)
            .expect("warm-up sweep")
            .done()
            .expect("warm-up sweep completes");
        assert!(!summary.cache_hit, "a fresh server has nothing cached");
    }
    (handle, clients)
}

fn shut_down(handle: ServerHandle, mut clients: Vec<ServeClient>) {
    clients[0].shutdown_server().expect("shutdown");
    drop(clients);
    handle.join();
}

/// One client's closed loop for one measurement window.
fn client_loop(
    client: &mut ServeClient,
    jobs: &mut JobGen,
    id: usize,
    window: Duration,
    epoch: Instant,
    t: &mut Tracer,
) -> Vec<Done> {
    let mut done = Vec::new();
    let mut seen = [false; 4];
    let check_every = jobs.s.check_every;
    run_window(window, |_| {
        let op = ((id as u64) << 32) | jobs.next_index;
        let op_span = t.begin(OP, op);
        let (index, kind, job) = t.span("terms.job_inputs", op, || jobs.next());
        let request_bytes = if t.enabled() {
            t.span("serve.encode", op, || encode_request(&job.request()).len())
        } else {
            0
        };
        let start = epoch.elapsed().as_secs_f64();
        let outcome = t.span("serve.submit", op, || submit(client, &job));
        let end = epoch.elapsed().as_secs_f64();
        t.end(op_span);
        let sampled = index % check_every == 0 || !seen[kind.index()];
        seen[kind.index()] = true;
        let (points, n_vars) = match &job {
            Job::Sweep(job) => (job.grid.len(), job.poly.n_vars()),
            _ => (0, 0),
        };
        done.push(Done {
            client: id,
            index,
            kind,
            start,
            end,
            points,
            n_vars,
            request_bytes,
            outcome,
            job: sampled.then_some(job),
        });
        true
    });
    done
}

/// Runs the workload.
pub fn run(ctx: RunCtx) -> RunOutput {
    let s = shape(ctx.size);
    let mut out = RunOutput::default();
    let t_terms = Instant::now();
    let inputs = Inputs::new(&s, ctx.seed);
    let terms_s = t_terms.elapsed().as_secs_f64();
    let cold_bytes = 8usize << s.cold_n;
    let cache_bytes = inputs.hot_bytes() + s.cold_slots * cold_bytes;

    let mut setup = Vec::with_capacity(s.setup_reps);
    let mut server = None;
    for rep in 0..s.setup_reps {
        let t = Instant::now();
        let up = set_up(cache_bytes, &inputs);
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < s.setup_reps {
            shut_down(up.0, up.1);
        } else {
            server = Some(up);
        }
    }
    let (handle, mut clients) = server.expect("at least one set-up");

    let mut gens: Vec<JobGen> = (0..CLIENTS)
        .map(|c| JobGen::new(&s, &inputs, ctx.seed, c))
        .collect();
    let epoch = Instant::now();
    let mut phases: Vec<(Vec<Done>, Tracer, CacheStatsView)> = Vec::new();
    for (traced, window) in ctx.phases() {
        let before = clients[0].cache_stats().expect("cache stats");
        let results: Vec<(Vec<Done>, Tracer)> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(gens.iter_mut())
                .enumerate()
                .map(|(id, (client, jobs))| {
                    scope.spawn(move || {
                        let mut t = Tracer::new(traced, epoch);
                        let done = client_loop(client, jobs, id, window, epoch, &mut t);
                        (done, t)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let after = clients[0].cache_stats().expect("cache stats");
        let delta = CacheStatsView {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            ..after
        };
        let mut t = Tracer::new(traced, epoch);
        let mut done = Vec::new();
        for (d, tr) in results {
            done.extend(d);
            t.absorb(tr);
        }
        phases.push((done, t, delta));
    }
    let peak_rss = machine::peak_rss_mib();
    shut_down(handle, clients);

    // Correctness gate, outside every timed region: outcomes and cache
    // flags for every job; sampled jobs re-run through the one-shot API
    // on one worker must give the same bits.
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-worker pool");
    let mut overhead_s: [Vec<f64>; 4] = Default::default();
    let (mut build_s, mut ms_evals) = (Vec::new(), Vec::new());
    let (mut rejected, mut errored) = (0usize, 0usize);
    let mut all: Vec<&Done> = phases.iter().flat_map(|p| &p.0).collect();
    all.sort_by_key(|d| (d.client, d.index));
    for d in all {
        out.attempted += 1;
        let why = match &d.outcome {
            Outcome::Rejected => {
                rejected += 1;
                Some("rejected".to_string())
            }
            Outcome::Cancelled => Some("cancelled".to_string()),
            Outcome::Errored(e) => {
                errored += 1;
                Some(format!("error: {e}"))
            }
            Outcome::Done(summary) => {
                let want_hit = match d.kind {
                    Kind::Warm | Kind::MultiStart => Some(true),
                    Kind::Cold => Some(false),
                    Kind::LightCone => None,
                };
                let mut why = (summary.cache_hit != want_hit)
                    .then(|| format!("cache_hit {:?}, expected {want_hit:?}", summary.cache_hit));
                if d.points > 0 && summary.bits[0] != d.points {
                    why = Some(format!(
                        "evaluated {} of {} points",
                        summary.bits[0], d.points
                    ));
                }
                if let (None, Some(job)) = (&why, &d.job) {
                    // On one worker, as in a server lane.
                    let reference = one_worker.install(|| oneshot(d.kind, job));
                    overhead_s[d.kind.index()].push(d.latency() - reference.secs);
                    if d.kind == Kind::Cold {
                        build_s.extend(reference.build_s);
                    }
                    ms_evals.extend(reference.evals.map(|e| e as f64));
                    if reference.bits != summary.bits {
                        why = Some("summary differs from the one-shot API".into());
                    }
                }
                why
            }
        };
        if let Some(why) = why {
            out.failed += 1;
            out.fail(format!(
                "client {} job {} ({}): {why}",
                d.client,
                d.index,
                d.kind.name()
            ));
        }
        let bits = match &d.outcome {
            Outcome::Done(summary) => digest(summary.bits.iter().copied()),
            _ => 0,
        };
        out.ops.push(format!(
            "client {} job {} {}: summary {bits:016x}",
            d.client,
            d.index,
            d.kind.name()
        ));
    }

    // Throughput is taken per round (a fixed mix of jobs per client), at
    // the median round time of both clients, so host stalls during a
    // minority of rounds do not move it.
    let untraced = &phases[0].0;
    let latencies: Vec<f64> = untraced.iter().map(Done::latency).collect();
    let of_kind = |done: &[Done], kind: Kind| -> Vec<f64> {
        done.iter()
            .filter(|d| d.kind == kind)
            .map(Done::latency)
            .collect()
    };
    let ms_lat = of_kind(untraced, Kind::MultiStart);
    let round_len = gens[0].round_len();
    let mut rounds: BTreeMap<(usize, u64), Vec<&Done>> = BTreeMap::new();
    for d in untraced {
        rounds
            .entry((d.client, d.index / round_len))
            .or_default()
            .push(d);
    }
    let round_s: Vec<f64> = rounds
        .values()
        .filter(|r| r.len() as u64 == round_len)
        .map(|r| r.iter().map(|d| d.end).fold(0.0, f64::max) - r[0].start)
        .collect();
    let round_p50 = median(&round_s);
    let round_points: u64 = ((s.hot_ns.len() + 1) * s.grid * s.grid) as u64;
    // Per-point cost depends on the problem size, so evaluations are timed
    // on one size: warm sweeps of the largest hot problem.
    let largest = s.hot_ns[s.hot_ns.len() - 1];
    let per_point: Vec<f64> = untraced
        .iter()
        .filter(|d| d.kind == Kind::Warm && d.n_vars == largest)
        .map(|d| d.latency() / d.points as f64)
        .collect();
    out.put("setup_s", median(&setup), setup.len());
    out.put("opt_s", median(&ms_lat), ms_lat.len());
    out.put("eval_p50_s", median(&per_point), per_point.len());
    out.put(
        "scan_points_per_s",
        (CLIENTS as u64 * round_points) as f64 / round_p50,
        round_s.len(),
    );
    out.put("job_p50_s", median(&latencies), latencies.len());
    out.put("job_p90_s", quantile(&latencies, 0.9), latencies.len());
    out.put(
        "jobs_per_s",
        (CLIENTS as u64 * round_len) as f64 / round_p50,
        round_s.len(),
    );
    out.put("peak_rss_mib", peak_rss, 1);

    out.context = vec![
        (
            "problem",
            format!(
                "hot LABS n={:?} sweeps {g}x{g}; cold 3-regular MaxCut n={} sweeps; multistart LABS n={} p={} x{}; light cone 3-regular {} vertices p={}",
                s.hot_ns, s.cold_n, s.ms_n, s.ms_p, s.ms_restarts, s.lc_vertices, s.lc_p,
                g = s.grid
            ),
        ),
        ("load", format!("{CLIENTS} closed-loop clients, no queue")),
        (
            "working_set",
            format!(
                "hot set {} + {} cold slots of {} = cache budget {}",
                machine::mib(inputs.hot_bytes() as u64),
                s.cold_slots,
                machine::mib(cold_bytes as u64),
                machine::mib(cache_bytes as u64)
            ),
        ),
        (
            "job_p90_samples_beyond",
            beyond(latencies.len(), 0.9).to_string(),
        ),
    ];

    if let Some((traced, t, cache)) = phases.get(1) {
        let lat: Vec<f64> = traced.iter().map(Done::latency).collect();
        for (k, kind) in Kind::ALL.into_iter().enumerate() {
            let (p50, overhead) = kind.metrics();
            let l = of_kind(traced, kind);
            out.put(p50, median(&l), l.len());
            out.put(overhead, median(&overhead_s[k]), overhead_s[k].len());
        }
        let lookups = cache.hits + cache.misses;
        out.put(
            "serve.cache_hit_rate",
            cache.hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        out.put("serve.cache_evictions", cache.evictions as f64, 1);
        out.put("serve.cache_build_s", median(&build_s), build_s.len());
        let bytes: Vec<f64> = traced.iter().map(|d| d.request_bytes as f64).collect();
        out.put("serve.request_bytes", median(&bytes), bytes.len());
        out.put("serve.rejected", rejected as f64, 1);
        out.put("serve.errored", errored as f64, 1);
        let lc: Vec<f64> = traced
            .iter()
            .filter_map(|d| match &d.outcome {
                Outcome::Done(Summary {
                    bits,
                    cache_hit: None,
                }) => Some(bits[3] as f64 / bits[1].max(1) as f64),
                _ => None,
            })
            .collect();
        out.put("core.lightcone_hit_rate", median(&lc), lc.len());
        out.put("optim.multistart_evals", median(&ms_evals), ms_evals.len());
        out.put("terms.build_s", terms_s, 1);
        out.put("trace.closure", t.closure(), lat.len());
        out.put(
            "trace.overhead",
            median(&lat) / median(&latencies),
            lat.len(),
        );
    }
    out.spans = phases.pop().map(|p| p.1).filter(Tracer::enabled);
    out
}
