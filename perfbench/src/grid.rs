//! The two figure grids: `spec-fig10` (7 SPEC-like mixes, every cell
//! self-warms from a cold start, no store) and `crono-fig15-store`
//! (9 CRONO kernels over a fresh artifact store: one checkpoint per kernel
//! built, encoded, saved and decoded, profiles persisted).
//!
//! An untraced pass calls `Harness::run_matrix_stored`, the entry point
//! the figure binaries call. A traced pass rebuilds the same cells from the
//! public pieces `run_matrix_stored` is made of, with the timed wrappers of
//! [`crate::timed`] passed to the simulator, and must produce bit-identical
//! rows.

use crate::seed::{crono_sources, spec_sources, Source};
use crate::timed::{Recorder, Span, TimedL1, TimedL2, TimedSource};
use prophet::{
    AnalysisConfig, LearnedProfile, ProfileCounters, Prophet, ProphetConfig, SimplifiedTp,
};
use prophet_bench::{Harness, SchemeRow};
use prophet_prefetch::{NoL2Prefetch, StridePrefetcher};
use prophet_rpg2::{Rpg2Result, DISTANCE_CANDIDATES};
use prophet_sim_core::{geomean, simulate, SimReport, TraceSource};
use prophet_store::{
    decode_checkpoint, decode_profile, encode_checkpoint, encode_profile, ArtifactStore,
    ProfileArtifact, StoreActivity, WarmupCheckpoint,
};
use prophet_temporal::{Triangel, TriangelConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Spec,
    Crono,
}

/// The scheme columns of one row, in `run_matrix_stored`'s cell order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Baseline,
    Rpg2,
    Triangel,
    Prophet,
}

const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Rpg2,
    Scheme::Triangel,
    Scheme::Prophet,
];

pub const SCHEMES_PER_ROW: usize = SCHEMES.len();

impl Grid {
    pub const ALL: [Grid; 2] = [Grid::Spec, Grid::Crono];

    /// The workload name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Grid::Spec => "spec-fig10",
            Grid::Crono => "crono-fig15-store",
        }
    }

    pub fn parse(s: &str) -> Option<Grid> {
        Grid::ALL.into_iter().find(|g| g.name() == s)
    }

    /// The harness window the figure binary uses, or `window` =
    /// `(warmup, measure)` for smoke runs.
    pub fn harness(self, window: Option<(u64, u64)>) -> Harness {
        let (warmup, measure) = window.unwrap_or(match self {
            Grid::Spec => (200_000, 650_000),
            Grid::Crono => (1_100_000, 1_000_000),
        });
        Harness {
            warmup,
            measure,
            ..Harness::default()
        }
    }

    /// The set-up: builds the grid's workloads (CSR graphs included) and
    /// opens one cursor on each, which allocates its generator state.
    pub fn ready_sources(self, seed: u64, h: &Harness) -> Vec<Source> {
        let sources = match self {
            Grid::Spec => spec_sources(seed, h.warmup + h.measure),
            Grid::Crono => crono_sources(seed, h.warmup + h.measure),
        };
        for w in &sources {
            std::hint::black_box(w.cursor().next_inst());
        }
        sources
    }

    pub fn uses_store(self) -> bool {
        self == Grid::Crono
    }
}

/// Fans `count` tasks over `jobs` scoped threads; results in task order.
pub fn parallel<T: Send>(count: usize, jobs: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(count).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = run(i);
                *results[i].lock().expect("a task panicked") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("a task panicked")
                .expect("every task ran")
        })
        .collect()
}

/// One pass over a grid.
pub struct Pass {
    pub rows: Vec<SchemeRow>,
    pub wall_s: f64,
    pub activity: Option<StoreActivity>,
    /// Traced passes only: the spans of every cell.
    pub spans: Vec<Vec<Span>>,
    /// Traced passes only: Prophet's profile counters per workload.
    pub profiles: Vec<ProfileCounters>,
    /// Traced crono passes only: one decoded checkpoint (for the codec
    /// replay) and its encoded size, per workload.
    pub ckpt_bytes: Vec<usize>,
    pub first_ckpt: Option<WarmupCheckpoint>,
}

fn open_store(grid: Grid, dir: &Path) -> Option<ArtifactStore> {
    grid.uses_store()
        .then(|| ArtifactStore::open(dir).expect("benchmark work directory is writable"))
}

/// `run_matrix_stored`, timed, over a fresh store when the grid uses one.
pub fn untraced_pass(grid: Grid, h: &Harness, sources: &[Source], jobs: usize, dir: &Path) -> Pass {
    let start = Instant::now();
    let store = open_store(grid, dir);
    let rows = h.run_matrix_stored(sources, jobs, store.as_ref());
    let wall_s = start.elapsed().as_secs_f64();
    let activity = store.as_ref().map(ArtifactStore::activity);
    drop(store);
    std::fs::remove_dir_all(dir).ok();
    Pass {
        rows,
        wall_s,
        activity,
        spans: Vec::new(),
        profiles: Vec::new(),
        ckpt_bytes: Vec::new(),
        first_ckpt: None,
    }
}

enum CellOut {
    Sim(SimReport),
    Rpg2(Rpg2Result),
    Prophet(SimReport, ProfileCounters),
}

/// The traced equivalent of [`untraced_pass`].
pub fn traced_pass(grid: Grid, h: &Harness, sources: &[Source], jobs: usize, dir: &Path) -> Pass {
    let origin = Instant::now();
    let store = open_store(grid, dir);
    let mut spans = Vec::new();
    // Phase 1 (crono): one checkpoint per workload, as checkpoint_via_store
    // builds it on a store miss.
    let ckpts: Option<Vec<(WarmupCheckpoint, usize)>> = store.as_ref().map(|store| {
        let out = parallel(sources.len(), jobs, |i| {
            let mut rec = Recorder::new(origin);
            let w: &dyn TraceSource = &sources[i];
            let ck = rec.span("bench.cell", "none", |rec| {
                let clock = rec.clock().clone();
                let tw = TimedSource::new(w, &clock);
                let key = h.checkpoint_key(w);
                let hit = rec.span("store.other", "none", |_| store.load_checkpoint(&key));
                assert!(matches!(hit, Ok(None)), "fresh store holds no checkpoint");
                let ckpt = rec.span("bench.checkpoint_build", "none", |_| {
                    h.build_checkpoint(&tw)
                });
                let bytes = rec.span("store.ckpt_encode", "none", |_| {
                    encode_checkpoint(&key, &ckpt)
                });
                let (_, decoded) = rec.span("store.ckpt_decode", "none", |_| {
                    decode_checkpoint(&bytes).expect("freshly encoded checkpoint must decode")
                });
                rec.span("store.save", "none", |_| store.save_checkpoint(&key, &ckpt))
                    .expect("checkpoint save");
                (decoded, bytes.len())
            });
            (ck, rec.into_spans())
        });
        out.into_iter()
            .map(|(ck, s)| {
                spans.push(s);
                ck
            })
            .collect()
    });
    let cells = sources.len() * SCHEMES.len();
    let outs = parallel(cells, jobs, |cell| {
        let w: &dyn TraceSource = &sources[cell / SCHEMES.len()];
        let scheme = SCHEMES[cell % SCHEMES.len()];
        let mut rec = Recorder::new(origin);
        let out = rec.span("bench.cell", "none", |rec| match (&ckpts, &store) {
            (Some(ckpts), Some(store)) => {
                warm_cell(h, w, scheme, &ckpts[cell / SCHEMES.len()].0, store, rec)
            }
            _ => cold_cell(h, w, scheme, rec),
        });
        (out, rec.into_spans())
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let activity = store.as_ref().map(ArtifactStore::activity);
    drop(store);
    std::fs::remove_dir_all(dir).ok();

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    let mut outs = outs.into_iter();
    for w in sources {
        let mut four = Vec::new();
        for _ in 0..SCHEMES.len() {
            let (out, s) = outs.next().expect("one output per cell");
            spans.push(s);
            four.push(out);
        }
        let mut four = four.into_iter();
        let sim = |c: Option<CellOut>| match c {
            Some(CellOut::Sim(r)) => r,
            _ => unreachable!("scheme order is fixed"),
        };
        let base = sim(four.next());
        let Some(CellOut::Rpg2(rpg2)) = four.next() else {
            unreachable!("scheme order is fixed")
        };
        let triangel = sim(four.next());
        let Some(CellOut::Prophet(prophet, counters)) = four.next() else {
            unreachable!("scheme order is fixed")
        };
        profiles.push(counters);
        rows.push(SchemeRow {
            workload: w.name(),
            base,
            rpg2,
            triangel,
            prophet,
        });
    }
    let (first_ckpt, ckpt_bytes) = match ckpts {
        Some(c) => {
            let bytes = c.iter().map(|(_, n)| *n).collect();
            (c.into_iter().next().map(|(ck, _)| ck), bytes)
        }
        None => (None, Vec::new()),
    };
    Pass {
        rows,
        wall_s,
        activity,
        spans,
        profiles,
        ckpt_bytes,
        first_ckpt,
    }
}

/// A cold, self-warming cell: what `run_matrix_stored` runs without a store.
fn cold_cell(h: &Harness, w: &dyn TraceSource, scheme: Scheme, rec: &mut Recorder) -> CellOut {
    let clock = rec.clock().clone();
    let tw = TimedSource::new(w, &clock);
    let l1 = || TimedL1::boxed(h.l1.build(), &clock);
    match scheme {
        Scheme::Baseline => CellOut::Sim(rec.span("sim.pass", "none", |_| {
            simulate(
                &h.sys,
                &tw,
                l1(),
                Box::new(NoL2Prefetch),
                h.warmup,
                h.measure,
            )
        })),
        Scheme::Triangel => CellOut::Sim(rec.span("sim.pass", "temporal.triangel", |_| {
            let tp = Box::new(Triangel::new(TriangelConfig::default()));
            simulate(
                &h.sys,
                &tw,
                l1(),
                TimedL2::boxed(tp, &clock),
                h.warmup,
                h.measure,
            )
        })),
        Scheme::Rpg2 => CellOut::Rpg2(rec.span("rpg2.pipeline", "none", |_| h.rpg2(&tw))),
        Scheme::Prophet => {
            // ProphetPipeline::learn_input + run_optimized, step by step.
            let profile = rec.span("core.profile_pass", "core.prophet", |_| {
                let l1 = TimedL1::boxed(Box::new(StridePrefetcher::default()), &clock);
                let tp = TimedL2::boxed(Box::new(SimplifiedTp::new()), &clock);
                simulate(&h.sys, &tw, l1, tp, h.warmup, h.measure)
            });
            let counters = ProfileCounters::from_report(&profile);
            let hints = rec.span("core.analyze", "none", |_| {
                let mut learned = LearnedProfile::new();
                learned.learn(counters.clone());
                learned.build_hints(&AnalysisConfig::default())
            });
            let report = rec.span("core.optimized_pass", "core.prophet", |_| {
                let tp = Box::new(Prophet::new(ProphetConfig::default(), &hints));
                simulate(
                    &h.sys,
                    &tw,
                    l1(),
                    TimedL2::boxed(tp, &clock),
                    h.warmup,
                    h.measure,
                )
            });
            CellOut::Prophet(report, counters)
        }
    }
}

/// A cell measured from the workload's stored checkpoint: what
/// `run_matrix_stored` runs with a fresh store.
fn warm_cell(
    h: &Harness,
    w: &dyn TraceSource,
    scheme: Scheme,
    ckpt: &WarmupCheckpoint,
    store: &ArtifactStore,
    rec: &mut Recorder,
) -> CellOut {
    let clock = rec.clock().clone();
    let tw = TimedSource::new(w, &clock);
    let l1 = || TimedL1::boxed(h.l1.build(), &clock);
    match scheme {
        Scheme::Baseline => CellOut::Sim(rec.span("sim.pass", "none", |_| {
            ckpt.warm
                .simulate(&h.sys, &tw, l1(), Box::new(NoL2Prefetch), h.measure)
        })),
        Scheme::Triangel => CellOut::Sim(rec.span("sim.pass", "temporal.triangel", |_| {
            let mut tp = Triangel::new(TriangelConfig::default());
            tp.seed_warmup(&ckpt.temporal);
            let tp = TimedL2::boxed(Box::new(tp), &clock);
            ckpt.warm.simulate(&h.sys, &tw, l1(), tp, h.measure)
        })),
        Scheme::Rpg2 => {
            CellOut::Rpg2(rec.span("rpg2.pipeline", "none", |_| h.rpg2_warm(&tw, ckpt)))
        }
        Scheme::Prophet => {
            // Harness::prophet_warm_stored on a store miss, step by step.
            let name = w.name();
            let key = h.profile_key(w);
            let window = rec.span("bench.materialize", "none", |_| {
                h.materialize_window(&tw, ckpt.warm.warmup)
            });
            let hit = rec.span("store.other", "none", |_| store.load_profile(&key));
            assert!(matches!(hit, Ok(None)), "fresh store holds no profile");
            let profile = rec.span("core.profile_pass", "core.prophet", |_| {
                let mut tp = SimplifiedTp::new();
                tp.seed_warmup(&ckpt.temporal);
                let l1 = TimedL1::boxed(Box::new(StridePrefetcher::default()), &clock);
                let tp = TimedL2::boxed(Box::new(tp), &clock);
                ckpt.warm.simulate_window(&h.sys, &name, &window, l1, tp)
            });
            let artifact = ProfileArtifact {
                counters: ProfileCounters::from_report(&profile),
                loops: 1,
            };
            let (_, stored) = rec.span("store.other", "none", |_| {
                decode_profile(&encode_profile(&key, &artifact))
                    .expect("freshly encoded profile must decode")
            });
            rec.span("store.save", "none", |_| store.save_profile(&key, &stored))
                .expect("profile save");
            let hints = rec.span("core.analyze", "none", |_| {
                let mut learned = LearnedProfile::new();
                learned.learn(stored.counters.clone());
                learned.build_hints(&AnalysisConfig::default())
            });
            let report = rec.span("core.optimized_pass", "core.prophet", |_| {
                let mut tp = Prophet::new(ProphetConfig::default(), &hints);
                tp.seed_warmup(&ckpt.temporal);
                let tp = TimedL2::boxed(Box::new(tp), &clock);
                ckpt.warm.simulate_window(&h.sys, &name, &window, l1(), tp)
            });
            CellOut::Prophet(report, stored.counters)
        }
    }
}

/// Per-cell report invariants; one failure line per broken invariant.
pub fn check_rows(h: &Harness, rows: &[SchemeRow], failures: &mut Vec<String>) {
    for row in rows {
        for r in [&row.base, &row.rpg2.report, &row.triangel, &row.prophet] {
            let at = || format!("{}/{}", r.workload, r.scheme);
            if r.instructions != h.measure {
                failures.push(format!(
                    "{}: {} instructions, window {}",
                    at(),
                    r.instructions,
                    h.measure
                ));
            }
            if r.useful_prefetches > r.issued_prefetches {
                failures.push(format!("{}: useful > issued", at()));
            }
            if r.late_useful_prefetches > r.useful_prefetches {
                failures.push(format!("{}: late > useful", at()));
            }
            if r.meta.hits > r.meta.lookups {
                failures.push(format!("{}: metadata hits > lookups", at()));
            }
        }
    }
}

/// Instructions the engine actually stepped in one pass: warm-up counts
/// only where it was simulated (cold cells and checkpoint builds), not
/// where a checkpoint restored it.
pub fn insts_simulated(grid: Grid, h: &Harness, rows: &[SchemeRow]) -> u64 {
    let (w, m) = (h.warmup, h.measure);
    let cands = DISTANCE_CANDIDATES.len() as u64;
    rows.iter()
        .map(|r| {
            let rpg2_passes = 1 + if r.rpg2.distance.is_some() { cands } else { 0 };
            match grid {
                // baseline + triangel + prophet's two passes + rpg2's passes
                Grid::Spec => (2 + 2 + rpg2_passes) * (w + m),
                // checkpoint warm-up + the same measured passes
                Grid::Crono => w + (2 + 2 + rpg2_passes) * m,
            }
        })
        .sum()
}

/// Instructions a window-credited figure (BENCH_9's unit) counts: warm-up
/// plus window for every cell, simulated or restored.
pub fn insts_credited(h: &Harness, rows: &[SchemeRow]) -> u64 {
    (rows.len() * SCHEMES.len()) as u64 * (h.warmup + h.measure)
}

/// `(prophet speedup, prophet over triangel, prophet traffic ratio)`: the
/// IPC ratios are geometric means over the rows; the traffic ratio divides
/// summed DRAM traffic, since a workload whose baseline window reaches no
/// DRAM (the dfs kernels) has no per-row ratio.
pub fn simulated_ratios(rows: &[SchemeRow]) -> (f64, f64, f64) {
    let col = |f: &dyn Fn(&SchemeRow) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    let traffic = |f: &dyn Fn(&SchemeRow) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    (
        col(&|r| r.prophet.speedup_over(&r.base)),
        col(&|r| r.prophet.speedup_over(&r.triangel)),
        traffic(&|r| r.prophet.dram_traffic()) / traffic(&|r| r.base.dram_traffic()).max(1.0),
    )
}
