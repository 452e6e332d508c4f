//! One benchmark run: set up a workload, measure it for the requested
//! time (untraced, or traced beside untraced), check its outputs and
//! collect the metrics.

use crate::fleet::{self, Daemon, Fleet, ServiceLayer};
use crate::grid::{self, Grid, Pass, SCHEMES_PER_ROW};
use crate::output::{peak_rss_mb, Outcome};
use crate::replay::{self, Replays};
use crate::seed::Source;
use crate::stats::median;
use crate::timed::Span;
use prophet_bench::{Harness, SchemeRow};
use prophet_service::ServiceClient;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated (at least [`MIN_SETUPS`] times, then until
/// [`SETUP_BUDGET_S`] is spent or [`MAX_SETUPS`] ran) and its median
/// reported: a single set-up of a few milliseconds is too noisy to compare.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;
/// Fewest measured grid passes (the first one included).
const MIN_PASSES: usize = 3;
/// Submissions per client in the grids' service replay (enough samples
/// for a p99 with ten beyond it).
const REPLAY_SUBMITS: usize = 1024;

#[derive(Debug, Clone)]
pub struct Config {
    pub grid: Grid,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores; created and removed by the run.
    pub work: PathBuf,
    /// Worker threads and client connections (at most `nproc`).
    pub jobs: usize,
    /// `(warmup, measure)` override for smoke runs; `None` = the figure
    /// binaries' windows.
    pub window: Option<(u64, u64)>,
}

pub fn run(cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.work).expect("benchmark work directory is writable");
    let mut out = Outcome::default();
    run_grid(cfg.grid, cfg, &mut out);
    std::fs::remove_dir_all(&cfg.work).ok();
    out
}

/// Runs `build` repeatedly; returns the last result and the median set-up
/// time. Earlier results are dropped outside the clock.
fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

fn pass_dir(cfg: &Config, i: usize) -> PathBuf {
    cfg.work.join(format!("pass-{i}"))
}

fn check_pass(h: &Harness, n: usize, pass: &Pass, first: &[SchemeRow], out: &mut Outcome) {
    out.attempted += (pass.rows.len() * SCHEMES_PER_ROW) as u64;
    grid::check_rows(h, &pass.rows, &mut out.failures);
    out.check(pass.rows == first, || {
        "simulated results differ between repeats".into()
    });
    if let Some(a) = pass.activity {
        out.check(
            a.checkpoints_created == n as u64 && a.profiles_created == n as u64,
            || {
                format!(
                    "store created {} checkpoints and {} profiles, expected {n} of each",
                    a.checkpoints_created, a.profiles_created
                )
            },
        );
    }
}

fn run_grid(grid: Grid, cfg: &Config, out: &mut Outcome) {
    let h = grid.harness(cfg.window);
    let (sources, setup_s) = repeated_setup(|| grid.ready_sources(cfg.seed, &h));
    let n = sources.len();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let first = grid::untraced_pass(grid, &h, &sources, cfg.jobs, &pass_dir(cfg, 0));
    check_pass(&h, n, &first, &first.rows, out);
    // Peak memory of set-up plus one pass. Not an end-to-end metric: with
    // several workers it depends on which cells happen to overlap, and it
    // ranged 29-45 MB across runs of one spec-fig10 seed.
    out.set("bench.peak_rss_mb", peak_rss_mb());
    let (prophet, over_triangel, traffic) = grid::simulated_ratios(&first.rows);
    out.set("setup_s", setup_s);
    out.set("prophet_speedup", prophet);
    out.set("prophet_over_triangel", over_triangel);
    out.set("prophet_traffic_ratio", traffic);
    if cfg.trace {
        traced_grid(grid, cfg, &h, &sources, first, setup_s, deadline, out);
        return;
    }
    // The first pass warms caches and the allocator; the median is over
    // the passes after it.
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        let pass = grid::untraced_pass(
            grid,
            &h,
            &sources,
            cfg.jobs,
            &pass_dir(cfg, walls.len() + 1),
        );
        check_pass(&h, n, &pass, &first.rows, out);
        walls.push(pass.wall_s);
    }
    out.set("wall_s", median(&walls));
}

/// Self time and leaf-layer totals of a set of cell traces.
#[derive(Debug, Default)]
struct Attribution {
    /// Per span name: summed duration and summed self time (s).
    total: BTreeMap<&'static str, f64>,
    self_s: BTreeMap<&'static str, f64>,
    gen_s: f64,
    gen_calls: u64,
    l1_s: f64,
    l1_requests: u64,
    /// Per L2 layer: time (s) and events.
    l2_s: BTreeMap<&'static str, f64>,
    l2_calls: BTreeMap<&'static str, u64>,
    /// Summed duration of the top-level cell spans.
    cells_s: f64,
}

fn attribute(cells: &[Vec<Span>]) -> Attribution {
    let mut a = Attribution::default();
    for spans in cells {
        for (i, s) in spans.iter().enumerate() {
            let children: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(i)).collect();
            let mut leaf = s.leaf;
            let mut self_ns = s.duration_ns();
            for c in &children {
                leaf = leaf.minus(c.leaf);
                self_ns = self_ns.saturating_sub(c.duration_ns());
            }
            self_ns = self_ns.saturating_sub(leaf.total_ns());
            *a.total.entry(s.name).or_default() += s.duration_ns() as f64 / 1e9;
            *a.self_s.entry(s.name).or_default() += self_ns as f64 / 1e9;
            a.gen_s += leaf.gen_ns as f64 / 1e9;
            a.gen_calls += leaf.gen_calls;
            a.l1_s += leaf.l1_ns as f64 / 1e9;
            a.l1_requests += leaf.l1_requests;
            *a.l2_s.entry(s.l2_layer).or_default() += leaf.l2_ns as f64 / 1e9;
            *a.l2_calls.entry(s.l2_layer).or_default() += leaf.l2_calls;
            if s.parent.is_none() {
                a.cells_s += s.duration_ns() as f64 / 1e9;
            }
        }
    }
    a
}

#[allow(clippy::too_many_arguments)]
fn traced_grid(
    grid: Grid,
    cfg: &Config,
    h: &Harness,
    sources: &[Source],
    first: Pass,
    setup_s: f64,
    deadline: Instant,
    out: &mut Outcome,
) {
    let n = sources.len();
    let mut untraced = vec![first.wall_s];
    let mut traced: Vec<Pass> = Vec::new();
    while traced.is_empty() || Instant::now() < deadline {
        let t = grid::traced_pass(
            grid,
            h,
            sources,
            cfg.jobs,
            &pass_dir(cfg, 2 * traced.len() + 1),
        );
        check_pass(h, n, &t, &first.rows, out);
        traced.push(t);
        if untraced.len() < traced.len() {
            let u =
                grid::untraced_pass(grid, h, sources, cfg.jobs, &pass_dir(cfg, 2 * traced.len()));
            check_pass(h, n, &u, &first.rows, out);
            untraced.push(u.wall_s);
        }
    }
    let per_pass = 1.0 / traced.len() as f64;
    let spans: Vec<Vec<Span>> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    let a = attribute(&spans);
    let get =
        |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0) * per_pass;
    let untraced_wall = median(&untraced);
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let rows = &first.rows;

    out.set("workloads.build_s", setup_s);
    out.set("workloads.next_inst_s", a.gen_s * per_pass);
    out.set("workloads.insts_generated", a.gen_calls as f64 * per_pass);
    out.set(
        "sim.step_self_s",
        ["sim.pass", "core.profile_pass", "core.optimized_pass"]
            .iter()
            .map(|k| get(&a.self_s, k))
            .sum(),
    );
    let simulated = grid::insts_simulated(grid, h, rows) as f64;
    out.set("sim-core.insts_simulated", simulated);
    out.set(
        "sim-core.minsts_simulated_per_s",
        simulated / 1e6 / untraced_wall,
    );
    out.set(
        "sim-core.minsts_credited_per_s",
        grid::insts_credited(h, rows) as f64 / 1e6 / untraced_wall,
    );
    let cells = rows
        .iter()
        .flat_map(|r| [&r.base, &r.rpg2.report, &r.triangel, &r.prophet]);
    let (llc_hits, llc_acc, dram) = cells.fold((0, 0, 0), |(h, a, d), r| {
        (
            h + r.llc.demand_hits,
            a + r.llc.demand_accesses(),
            d + r.dram.reads,
        )
    });
    out.set(
        "sim-mem.llc_hit_rate",
        llc_hits as f64 / llc_acc.max(1) as f64,
    );
    out.set("sim-mem.dram_reads", dram as f64);
    out.set("prefetch.l1_self_s", a.l1_s * per_pass);
    out.set("prefetch.l1_requests", a.l1_requests as f64 * per_pass);
    out.set(
        "temporal.triangel_self_s",
        get(&a.l2_s, "temporal.triangel"),
    );
    out.set(
        "temporal.l2_events",
        a.l2_calls.get("temporal.triangel").copied().unwrap_or(0) as f64 * per_pass,
    );
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let sum = |f: &dyn Fn(&SchemeRow) -> u64| rows.iter().map(f).sum::<u64>();
    out.set(
        "temporal.meta_hit_rate",
        ratio(
            sum(&|r| r.triangel.meta.hits),
            sum(&|r| r.triangel.meta.lookups),
        ),
    );
    out.set(
        "temporal.prefetch_accuracy",
        ratio(
            sum(&|r| r.triangel.useful_prefetches),
            sum(&|r| r.triangel.issued_prefetches),
        ),
    );
    out.set("core.prophet_self_s", get(&a.l2_s, "core.prophet"));
    out.set("core.profile_pass_s", get(&a.total, "core.profile_pass"));
    out.set(
        "core.optimized_pass_s",
        get(&a.total, "core.optimized_pass"),
    );
    out.set("core.analyze_s", get(&a.total, "core.analyze"));
    out.set(
        "core.meta_hit_rate",
        ratio(
            sum(&|r| r.prophet.meta.hits),
            sum(&|r| r.prophet.meta.lookups),
        ),
    );
    out.set(
        "core.prefetch_accuracy",
        ratio(
            sum(&|r| r.prophet.useful_prefetches),
            sum(&|r| r.prophet.issued_prefetches),
        ),
    );
    out.set("rpg2.pipeline_s", get(&a.total, "rpg2.pipeline"));
    let cands = prophet_rpg2::DISTANCE_CANDIDATES.len();
    out.set(
        "rpg2.candidates_simulated",
        rows.iter().filter(|r| r.rpg2.distance.is_some()).count() as f64 * cands as f64,
    );
    out.set(
        "bench.checkpoint_build_s",
        get(&a.total, "bench.checkpoint_build"),
    );
    out.set("bench.materialize_s", get(&a.total, "bench.materialize"));
    out.set("bench.cell_self_s", get(&a.self_s, "bench.cell"));
    out.set("store.ckpt_encode_s", get(&a.total, "store.ckpt_encode"));
    out.set("store.ckpt_decode_s", get(&a.total, "store.ckpt_decode"));
    out.set(
        "store.ckpt_bytes",
        traced[0].ckpt_bytes.iter().sum::<usize>() as f64,
    );
    out.set("store.save_s", get(&a.total, "store.save"));
    out.set("store.other_s", get(&a.total, "store.other"));
    out.set("trace.untraced_wall_s", untraced_wall);
    out.set("trace.traced_wall_s", traced_wall);
    out.set("trace.overhead_s", traced_wall - untraced_wall);
    out.set("trace.attributed_s", a.cells_s * per_pass);
    out.set(
        "trace.unattributed_s",
        cfg.jobs as f64 * traced_wall - a.cells_s * per_pass,
    );
    out.set("trace.workers", cfg.jobs as f64);

    // Isolated replays over streams recorded from each workload.
    let profiles = &traced[0].profiles;
    let mut r = Replays::default();
    for (i, w) in sources.iter().enumerate() {
        replay::replay_workload(h, w, &profiles[i], &rows[i], &mut r, &mut out.failures);
    }
    let ckpt = match &traced[0].first_ckpt {
        Some(c) => c.clone(),
        None => h.build_checkpoint(&sources[0]),
    };
    set_replays(&r, replay::codec_mb_per_s(h, &sources[0], &ckpt), out);

    // The service layer over this grid's own profiles: every key submits
    // the whole set, enough keys for a supported p99.
    let keys = REPLAY_SUBMITS.div_ceil(profiles.len());
    let fleet = Fleet::new(vec![profiles.clone(); keys]);
    let daemon = Daemon::start(&cfg.work.join("daemon"), cfg.jobs);
    let mut clients: Vec<ServiceClient> = (0..cfg.jobs)
        .map(|_| ServiceClient::connect(daemon.addr()).expect("connect to the local daemon"))
        .collect();
    let rnd = fleet::round(&fleet, &mut clients);
    out.attempted += rnd.submits + rnd.fetches;
    out.failures.extend(rnd.errors.iter().cloned());
    out.failures
        .extend(fleet::verify_round(&fleet, &mut clients[0], &rnd));
    let mut layer = fleet::client_view(&rnd, &mut out.failures);
    let inproc = cfg.work.join("inproc");
    fleet::replay_inproc(
        &fleet,
        &inproc,
        &mut clients[0],
        &mut layer,
        &mut out.failures,
    );
    drop(clients);
    daemon.stop();
    set_service(&layer, out);
}

fn set_replays(r: &Replays, codec_mb_per_s: f64, out: &mut Outcome) {
    let per_event = |s: f64| s * 1e9 / r.events.max(1) as f64;
    out.set(
        "sim-core.engine_only_minsts_per_s",
        r.engine_insts as f64 / 1e6 / r.engine_s,
    );
    out.set(
        "sim-mem.replay_maccesses_per_s",
        r.accesses as f64 / 1e6 / r.hierarchy_s,
    );
    out.set("temporal.replay_ns_per_event", per_event(r.triangel_s));
    out.set("core.replay_ns_per_event", per_event(r.prophet_s));
    out.set(
        "core.profile_replay_ns_per_event",
        per_event(r.profile_tp_s),
    );
    out.set("rpg2.replay_ns_per_event", per_event(r.rpg2_s));
    out.set("core.analyze_replay_us", median(&r.analyze_us));
    out.set("store.codec_replay_mb_per_s", codec_mb_per_s);
}

fn set_service(s: &ServiceLayer, out: &mut Outcome) {
    out.set("service.submit_inproc_us", s.submit_inproc_us);
    out.set("service.fetch_inproc_us", s.fetch_inproc_us);
    out.set("service.merge_s", s.merge_s);
    out.set("service.proto_roundtrip_us", s.proto_roundtrip_us);
    out.set("service.submit_per_s", s.submit_per_s);
    out.set("service.submit_p50_us", s.submit_p50_us);
    out.set("service.submit_p99_us", s.submit_p99_us);
    out.set("service.submit_samples", s.submit_samples as f64);
    out.set("service.fetch_per_s", s.fetch_per_s);
    out.set("service.fetch_p50_us", s.fetch_p50_us);
    out.set("service.fetch_p99_us", s.fetch_p99_us);
    out.set("service.fetch_samples", s.fetch_samples as f64);
}

/// The work directory for one run: unique per process under `root`.
pub fn work_dir(root: &Path) -> PathBuf {
    root.join(format!("run-{}", std::process::id()))
}
