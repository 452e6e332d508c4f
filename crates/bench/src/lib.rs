//! # prophet-bench
//!
//! The benchmark harness reproducing every table and figure of the Prophet
//! paper. One binary per experiment lives in `src/bin/` (see EXPERIMENTS.md
//! for the index); this library holds the shared runners.

use prophet::{
    analyze, AnalysisConfig, HintSet, ProfileCounters, Prophet, ProphetConfig, SimplifiedTp,
};
use prophet_prefetch::{
    IpcpPrefetcher, L1Prefetcher, L2Prefetcher, NoL2Prefetch, StridePrefetcher,
};
use prophet_rpg2::{tune, KernelAnalysis, KernelScan, Rpg2Result};
use prophet_sim_core::{
    simulate, Engine, MemBackend, SimReport, Simulator, TraceInst, TraceSource, WarmStart,
};
use prophet_sim_mem::addr::{Addr, Cycle, Pc};
use prophet_sim_mem::{Hierarchy, SystemConfig};
use prophet_store::{
    config_digest, decode_checkpoint, decode_profile, encode_checkpoint, encode_profile,
    store_warn, ArtifactStore, ProfileArtifact, StoreKey, WarmupCheckpoint,
};
use prophet_temporal::{TemporalConfig, TemporalEngine, Triage, Triangel};
use prophet_workloads::workload_sized;

/// Which L1 prefetcher a run uses (Figure 17 swaps stride for IPCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Scheme {
    Stride,
    Ipcp,
}

impl L1Scheme {
    /// Instantiates the prefetcher.
    pub fn build(self) -> Box<dyn L1Prefetcher> {
        match self {
            L1Scheme::Stride => Box::new(StridePrefetcher::default()),
            L1Scheme::Ipcp => Box::new(IpcpPrefetcher::default()),
        }
    }

    /// Stable tag used in store keys.
    fn tag(self) -> &'static str {
        match self {
            L1Scheme::Stride => "stride",
            L1Scheme::Ipcp => "ipcp",
        }
    }
}

/// Shared experiment runner: system config + run lengths + L1 scheme.
#[derive(Debug, Clone)]
pub struct Harness {
    pub sys: SystemConfig,
    pub warmup: u64,
    pub measure: u64,
    pub l1: L1Scheme,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sys: SystemConfig::isca25(),
            warmup: 200_000,
            measure: 650_000,
            l1: L1Scheme::Stride,
        }
    }
}

/// A temporal-prefetching scheme: one column of the paper's comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No L2 prefetcher (denominator of every speedup in the paper).
    Baseline,
    /// Triage at degree 4 with Triangel's metadata format — the Figure 19
    /// ablation baseline.
    Triage4,
    /// Triangel (the hardware state of the art).
    Triangel,
    /// RPG2 with its identify → instrument → tune pipeline.
    Rpg2,
    /// Prophet: profile, analyze, then the optimized run (single-input
    /// "Direct" mode; the learning figures call [`Harness::profile`] and
    /// [`Harness::optimized`] themselves).
    Prophet,
}

impl Scheme {
    /// Every scheme, in the order `prophet_cli` prints them.
    pub const ALL: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::Triage4,
        Scheme::Triangel,
        Scheme::Rpg2,
        Scheme::Prophet,
    ];

    /// The stable lower-case name: CLI argument and bench cell label.
    pub fn name(self) -> &'static str {
        ["baseline", "triage4", "triangel", "rpg2", "prophet"][self as usize]
    }

    /// The scheme called [`Scheme::name`] `s`.
    pub fn parse(s: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|scheme| scheme.name() == s)
    }
}

/// The scheme columns of a Figure 10/11/12-style matrix, in column order.
pub const MATRIX_SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Rpg2,
    Scheme::Triangel,
    Scheme::Prophet,
];

/// What one [`Harness::run`] produced. RPG2 keeps its pipeline diagnostics
/// (qualified PCs and tuned distance), not just the report.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Sim(SimReport),
    Rpg2(Rpg2Result),
}

impl Outcome {
    /// The measured report.
    pub fn into_report(self) -> SimReport {
        match self {
            Outcome::Sim(r) => r,
            Outcome::Rpg2(r) => r.report,
        }
    }

    /// The RPG2 pipeline result.
    ///
    /// # Panics
    /// Panics unless the run was [`Scheme::Rpg2`].
    pub fn into_rpg2(self) -> Rpg2Result {
        match self {
            Outcome::Rpg2(r) => r,
            Outcome::Sim(r) => panic!("{} run has no RPG2 result", r.scheme),
        }
    }
}

impl Harness {
    /// Runs `scheme` on `w`, every pass simulating the warm-up itself and
    /// then measuring: the one primitive every scheme run goes through (a
    /// cell of [`Harness::cells`] runs each of its schemes with it, except
    /// where RPG2 rides the baseline). Prophet profiles, analyzes with the
    /// paper's defaults, then runs the optimized pass.
    pub fn run(&self, scheme: Scheme, w: &dyn TraceSource) -> Outcome {
        let l2: Box<dyn L2Prefetcher> = match scheme {
            Scheme::Baseline => Box::new(NoL2Prefetch),
            Scheme::Triage4 => Box::new(Triage::degree4()),
            Scheme::Triangel => Box::new(Triangel::default()),
            Scheme::Rpg2 => return Outcome::Rpg2(self.rpg2(w)),
            Scheme::Prophet => {
                let counters = ProfileCounters::from_report(&self.profile(w));
                let hints = analyze(&counters, &AnalysisConfig::default());
                return Outcome::Sim(self.optimized(w, &hints, &ProphetConfig::default()));
            }
        };
        Outcome::Sim(self.pass(w, self.l1.build(), l2))
    }

    /// One measured simulation of `w` under the given prefetchers, warm-up
    /// included.
    fn pass(
        &self,
        w: &dyn TraceSource,
        l1: Box<dyn L1Prefetcher>,
        l2: Box<dyn L2Prefetcher>,
    ) -> SimReport {
        simulate(&self.sys, w, l1, l2, self.warmup, self.measure)
    }

    /// RPG2's identification inputs from one trace stream: the baseline
    /// miss profile (this harness's L1, no L2 prefetcher, this window, from
    /// a cold start) and the kernel scan. The scan rides the pass's cursor
    /// and, after the pass, reads on to the end of the trace, so it sees
    /// every instruction [`KernelAnalysis::scan`] sees. The report is the
    /// cold [`Scheme::Baseline`] run, bit for bit, so a Baseline cell gets
    /// RPG2's identification with it.
    pub fn rpg2_identify(&self, w: &dyn TraceSource) -> (SimReport, KernelAnalysis) {
        let mut scan = KernelScan::new();
        let mut cursor = w.cursor();
        let mut insts = std::iter::from_fn(|| cursor.next_inst()).inspect(|i| scan.observe(i));
        let report = Simulator::new(self.sys.clone(), self.l1.build(), Box::new(NoL2Prefetch))
            .run_cursor(&mut insts, w.name(), self.warmup, self.measure);
        insts.for_each(drop);
        (report, scan.finish())
    }

    /// RPG2 from a cold start: [`Harness::rpg2_identify`], then [`tune`]
    /// over cold passes on this harness's machine. Every pass re-streams
    /// the generator; whether one recorded window replayed by every pass
    /// is cheaper is ROADMAP item 10's open question.
    pub fn rpg2(&self, w: &dyn TraceSource) -> Rpg2Result {
        let (base, analysis) = self.rpg2_identify(w);
        tune(&analysis, base, |l2| self.pass(w, self.l1.build(), l2))
    }

    /// RPG2 from a shared warm-up checkpoint: one stream feeds the kernel
    /// scan while it skips the warm-up and materializes the measurement
    /// window, and the identification baseline and every distance
    /// candidate replay that window from the checkpointed machine. Unlike
    /// [`Harness::rpg2_identify`], the scan stops at the window's end.
    pub fn rpg2_warm(&self, w: &dyn TraceSource, ckpt: &WarmupCheckpoint) -> Rpg2Result {
        let mut scan = KernelScan::new();
        let mut cursor = w.cursor();
        let insts = std::iter::from_fn(|| cursor.next_inst()).inspect(|i| scan.observe(i));
        let window = self.window(insts, ckpt.warm.warmup);
        let name = w.name();
        let pass = |l2: Box<dyn L2Prefetcher>| {
            ckpt.warm
                .simulate_window(&self.sys, &name, &window, self.l1.build(), l2)
        };
        tune(&scan.finish(), pass(Box::new(NoL2Prefetch)), pass)
    }

    /// The cells that run `schemes` on one workload, in order, each as the
    /// schemes it runs: one cell per scheme, except that RPG2 rides the
    /// Baseline cell when `schemes` holds both, where RPG2's identification
    /// pass is that very baseline run.
    pub fn cells(&self, schemes: &[Scheme]) -> Vec<Vec<Scheme>> {
        let rides = schemes.contains(&Scheme::Baseline) && schemes.contains(&Scheme::Rpg2);
        let mut cells: Vec<Vec<Scheme>> = Vec::with_capacity(schemes.len());
        for &s in schemes {
            match s {
                Scheme::Rpg2 if rides => {}
                Scheme::Baseline if rides => cells.push(vec![s, Scheme::Rpg2]),
                _ => cells.push(vec![s]),
            }
        }
        cells
    }

    /// Runs one cell of [`Harness::cells`] on `w`: one outcome per scheme,
    /// in the cell's order. A Baseline cell that carries RPG2 simulates the
    /// baseline once, through [`Harness::rpg2_identify`], and hands it to
    /// RPG2's distance sweep.
    pub fn run_cell(&self, cell: &[Scheme], w: &dyn TraceSource) -> Vec<Outcome> {
        match cell {
            [Scheme::Baseline, Scheme::Rpg2] => {
                let (base, analysis) = self.rpg2_identify(w);
                let rpg2 = tune(&analysis, base.clone(), |l2| {
                    self.pass(w, self.l1.build(), l2)
                });
                vec![Outcome::Sim(base), Outcome::Rpg2(rpg2)]
            }
            _ => cell.iter().map(|&s| self.run(s, w)).collect(),
        }
    }

    /// Prophet's Step 1 from a cold start: the profiling pass, under the
    /// stride L1 (as the paper profiles) and the simplified temporal
    /// prefetcher. [`ProfileCounters::from_report`] reads the profile out.
    pub fn profile(&self, w: &dyn TraceSource) -> SimReport {
        self.pass(
            w,
            Box::new(StridePrefetcher::default()),
            Box::new(SimplifiedTp::new()),
        )
    }

    /// The optimized binary's run from a cold start: Prophet built from
    /// `hints` and `config`, under the harness's L1.
    pub fn optimized(
        &self,
        w: &dyn TraceSource,
        hints: &HintSet,
        config: &ProphetConfig,
    ) -> SimReport {
        let tp = Prophet::new(config.clone(), hints);
        self.pass(w, self.l1.build(), Box::new(tp))
    }

    /// Matrix scheme `scheme` on `w` measured from the shared warm-up
    /// checkpoint `ckpt` (DESIGN.md §6): the machine is restored instead of
    /// warmed, and the temporal prefetchers are seeded from the
    /// checkpoint's passive training. Single-pass schemes stream the trace
    /// cursor; Prophet materializes the measurement window once, replays it
    /// for both passes, and loads its profile counters from `store` or
    /// computes and saves them. Only [`Harness::run_matrix_stored`]'s store
    /// branch measures this way.
    fn run_warm(
        &self,
        scheme: Scheme,
        w: &dyn TraceSource,
        ckpt: &WarmupCheckpoint,
        store: &ArtifactStore,
    ) -> Outcome {
        let l2: Box<dyn L2Prefetcher> = match scheme {
            Scheme::Baseline => Box::new(NoL2Prefetch),
            Scheme::Triangel => {
                let mut tp = Triangel::default();
                tp.seed_warmup(&ckpt.temporal);
                Box::new(tp)
            }
            Scheme::Rpg2 => return Outcome::Rpg2(self.rpg2_warm(w, ckpt)),
            Scheme::Prophet => {
                let name = w.name();
                let window = self.materialize_window(w, ckpt.warm.warmup);
                let counters = self.stored_profile(store, w, || {
                    let mut tp = SimplifiedTp::new();
                    tp.seed_warmup(&ckpt.temporal);
                    let l1 = Box::new(StridePrefetcher::default());
                    let report =
                        ckpt.warm
                            .simulate_window(&self.sys, &name, &window, l1, Box::new(tp));
                    ProfileCounters::from_report(&report)
                });
                let mut tp = Prophet::new(
                    ProphetConfig::default(),
                    &analyze(&counters, &AnalysisConfig::default()),
                );
                tp.seed_warmup(&ckpt.temporal);
                return Outcome::Sim(ckpt.warm.simulate_window(
                    &self.sys,
                    &name,
                    &window,
                    self.l1.build(),
                    Box::new(tp),
                ));
            }
            Scheme::Triage4 => unreachable!("triage4 is not a matrix scheme"),
        };
        Outcome::Sim(
            ckpt.warm
                .simulate(&self.sys, w, self.l1.build(), l2, self.measure),
        )
    }

    /// Prophet's profile counters for `w` from `store` when present,
    /// otherwise from `profile`, saved to the store. Freshly profiled
    /// counters round-trip through the codec before use, exactly like
    /// [`Harness::checkpoint_via_store`], so the run that fills the store
    /// and a later run that reads it learn from bit-identical counter
    /// images. A store hit skips the profiling simulation entirely (half of
    /// Prophet's measured work).
    fn stored_profile(
        &self,
        store: &ArtifactStore,
        w: &dyn TraceSource,
        profile: impl FnOnce() -> ProfileCounters,
    ) -> ProfileCounters {
        let key = self.profile_key(w);
        match store.load_profile(&key) {
            Ok(Some(artifact)) => return artifact.counters,
            Ok(None) => {}
            Err(e) => store_warn(format_args!(
                "store: ignoring unreadable profile for {}: {e}",
                key.workload
            )),
        }
        let artifact = ProfileArtifact {
            counters: profile(),
            loops: 1,
        };
        let (_, round_tripped) = decode_profile(&encode_profile(&key, &artifact))
            .expect("freshly encoded profile must decode");
        if let Err(e) = store.save_profile(&key, &round_tripped) {
            store_warn(format_args!(
                "store: could not save profile for {}: {e}",
                key.workload
            ));
        }
        round_tripped.counters
    }
}

/// The scheme-independent warm-up machine: the baseline memory system (L1
/// prefetcher on, no L2 prefetcher, unpartitioned LLC) plus a *passive*
/// temporal observer — a simplified-configuration engine that trains on the
/// L2 stream but never prefetches and never partitions. Its post-warm-up
/// state is exactly what a [`WarmupCheckpoint`] persists; every scheme then
/// applies its own partition/policies at the measurement boundary (the
/// checkpoint-validity rule, DESIGN.md §6).
struct WarmupMachine {
    mem: Hierarchy,
    l1pf: Box<dyn L1Prefetcher>,
    observer: TemporalEngine,
}

impl WarmupMachine {
    fn observe(&mut self, ev: &prophet_sim_mem::hierarchy::L2Event) {
        // Train and look up (lookups refresh replacement recency exactly as
        // the profiling prefetcher would) but discard all decisions.
        let _ = self.observer.decide(ev, 1);
    }
}

impl MemBackend for WarmupMachine {
    fn access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Cycle {
        let out = self.mem.demand_access(pc, addr.line(), is_store, now);
        if let Some(ev) = out.l2_event {
            self.observe(&ev);
        }
        // Mirror the live simulator's wiring: L1-prefetch requests that
        // propagate past the L1 appear in the L2 stream too (Section 5.1).
        for target in self.l1pf.on_l1_access(pc, addr, out.l1_hit) {
            if let Some(ev) = self.mem.l1_prefetch(pc, target.line(), now) {
                self.observe(&ev);
            }
        }
        out.latency
    }
}

impl Harness {
    /// The workload spec string used in store keys: the registry name plus
    /// everything else that shapes the generated trace (window sizing — a
    /// longer window can change a CRONO graph, not just its length — and
    /// the L1 scheme).
    fn workload_spec(&self, w: &dyn TraceSource) -> String {
        format!(
            "{}@{}+l1={}",
            w.name(),
            self.warmup + self.measure,
            self.l1.tag()
        )
    }

    /// Store key of this harness's warm-up checkpoint for `w`. Checkpoints
    /// are measurement-length independent only through the spec string's
    /// sizing (a different `--insts` can regenerate a different trace), so
    /// the explicit `measure` field stays zero.
    pub fn checkpoint_key(&self, w: &dyn TraceSource) -> StoreKey {
        StoreKey {
            workload: self.workload_spec(w),
            config: config_digest(&self.sys),
            warmup: self.warmup,
            measure: 0,
        }
    }

    /// Store key of a profile artifact for `w` (profiles depend on the
    /// measurement window too).
    pub fn profile_key(&self, w: &dyn TraceSource) -> StoreKey {
        StoreKey {
            workload: self.workload_spec(w),
            config: config_digest(&self.sys),
            warmup: self.warmup,
            measure: self.measure,
        }
    }

    /// Simulates the scheme-independent warm-up of `w` through the
    /// cycle-accurate engine and timing hierarchy and captures it as a
    /// checkpoint: machine state ([`WarmStart`]) plus the passively trained
    /// temporal state.
    pub fn build_checkpoint(&self, w: &dyn TraceSource) -> WarmupCheckpoint {
        let mut engine = Engine::new(self.sys.core);
        let mut machine = WarmupMachine {
            mem: Hierarchy::new(&self.sys),
            l1pf: self.l1.build(),
            observer: TemporalEngine::new(TemporalConfig::simplified_profiling()),
        };
        let mut cursor = w.cursor();
        for inst in std::iter::from_fn(|| cursor.next_inst()).take(self.warmup as usize) {
            engine.step(&inst, &mut machine);
        }
        WarmupCheckpoint {
            warm: WarmStart {
                engine: engine.snapshot(),
                memory: machine.mem.snapshot(),
                warmup: self.warmup,
            },
            temporal: machine.observer.warmup_snapshot(),
        }
    }

    /// Loads `w`'s checkpoint from the store, or builds and saves it. The
    /// built checkpoint is returned *through the codec* (encode → decode),
    /// so the run that fills the store and a later run that reads it
    /// restore bit-identical state — the property `determinism.rs` pins.
    fn checkpoint_via_store(&self, store: &ArtifactStore, w: &dyn TraceSource) -> WarmupCheckpoint {
        let key = self.checkpoint_key(w);
        match store.load_checkpoint(&key) {
            Ok(Some(ckpt)) => return ckpt,
            Ok(None) => {}
            Err(e) => store_warn(format_args!(
                "store: ignoring unreadable checkpoint for {}: {e}",
                key.workload
            )),
        }
        let ckpt = self.build_checkpoint(w);
        let bytes = encode_checkpoint(&key, &ckpt);
        let (_, round_tripped) =
            decode_checkpoint(&bytes).expect("freshly encoded checkpoint must decode");
        if let Err(e) = store.save_checkpoint(&key, &ckpt) {
            store_warn(format_args!(
                "store: could not save checkpoint for {}: {e}",
                key.workload
            ));
        }
        round_tripped
    }

    /// Materializes the measurement window of `w` once: skip `skip`
    /// instructions, then collect up to `self.measure`. Multi-pass
    /// pipelines replay the buffer instead of regenerating the trace per
    /// pass (`WarmStart::simulate_window` pins the replay bit-identical to
    /// the cursor path). Public so callers that time cells can hoist this
    /// scheme-independent work out of the cell wall clocks.
    pub fn materialize_window(&self, w: &dyn TraceSource, skip: u64) -> Vec<TraceInst> {
        let mut cursor = w.cursor();
        self.window(std::iter::from_fn(|| cursor.next_inst()), skip)
    }

    /// Skips `skip` instructions of `insts`, then collects up to
    /// `self.measure`.
    fn window(&self, mut insts: impl Iterator<Item = TraceInst>, skip: u64) -> Vec<TraceInst> {
        for _ in insts.by_ref().take(skip as usize) {}
        let mut window = Vec::with_capacity(self.measure.min(1 << 24) as usize);
        window.extend(insts.take(self.measure as usize));
        window
    }
}

/// Fans `count` independent tasks across `jobs` scoped worker threads
/// (`0` = every core the host reports) and returns the results in task
/// order. Tasks must be order-independent — the determinism tests pin
/// that `jobs = 1` and `jobs = N` agree.
pub fn parallel_tasks<T: Send>(
    count: usize,
    jobs: usize,
    run: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let jobs = match jobs {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
    .min(count)
    .max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<T>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= count {
                    break;
                }
                *results[i].lock().unwrap() = Some(run(i));
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every task ran"))
        .collect()
}

impl Harness {
    /// Runs the full scheme×workload grid, fanning the cells
    /// ([`Harness::cells`] of [`MATRIX_SCHEMES`] per workload) across
    /// `jobs` scoped threads, and returns one [`SchemeRow`] per workload
    /// *in input order*. Without a store RPG2 rides the Baseline cell: its
    /// identification pass is that baseline run. Each workload's
    /// multi-pass cells are queued first — Prophet's two passes, then the
    /// cell carrying RPG2, whose distance sweep can add five more — so the
    /// grid does not end on one long cell while the other workers idle.
    ///
    /// Determinism: every cell simulates a fresh cursor of a deterministic
    /// workload on a fresh machine, so no cell depends on which worker runs
    /// it or when — `jobs = 1` and `jobs = N` produce bit-identical rows
    /// (the integration test in `crates/bench/tests/determinism.rs` pins
    /// this, with and without a store). `jobs = 0` means every core.
    ///
    /// With a store, the grid shares **one scheme-independent warm-up per
    /// workload** (DESIGN.md §6): phase 1 loads (or builds and saves) each
    /// workload's [`WarmupCheckpoint`], phase 2 measures every matrix
    /// scheme in a cell of its own from that checkpoint, and Prophet's
    /// profile goes through the store too. A later run against the same
    /// store skips phase 1's simulations and the profiling passes and,
    /// because freshly built artifacts round-trip through the codec before
    /// use, produces bit-identical rows. These rows differ from the cold
    /// ones: each scheme warms up on a baseline machine instead of with
    /// itself active. No figure measures this way.
    pub fn run_matrix_stored<W: TraceSource + Sync>(
        &self,
        workloads: &[W],
        jobs: usize,
        store: Option<&ArtifactStore>,
    ) -> Vec<SchemeRow> {
        let warm: Option<(&ArtifactStore, Vec<WarmupCheckpoint>)> = store.map(|store| {
            let ckpts = parallel_tasks(workloads.len(), jobs, |i| {
                self.checkpoint_via_store(store, &workloads[i])
            });
            (store, ckpts)
        });
        let passes_rank = |cell: &Vec<Scheme>| {
            if cell.contains(&Scheme::Prophet) {
                0
            } else if cell.contains(&Scheme::Rpg2) {
                1
            } else {
                2
            }
        };
        let mut cells = match warm {
            None => self.cells(&MATRIX_SCHEMES),
            Some(_) => MATRIX_SCHEMES.map(|s| vec![s]).to_vec(),
        };
        cells.sort_by_key(passes_rank);
        let queue: Vec<(usize, &[Scheme])> = (0..workloads.len())
            .flat_map(|i| cells.iter().map(move |cell| (i, cell.as_slice())))
            .collect();
        let outcomes = parallel_tasks(queue.len(), jobs, |t| {
            let (i, cell) = queue[t];
            let w = &workloads[i];
            match &warm {
                Some((store, ckpts)) => cell
                    .iter()
                    .map(|&s| self.run_warm(s, w, &ckpts[i], store))
                    .collect(),
                None => self.run_cell(cell, w),
            }
        });
        // Back from queue order to one slot per workload and scheme.
        let mut slots: Vec<[Option<Outcome>; MATRIX_SCHEMES.len()]> =
            workloads.iter().map(|_| Default::default()).collect();
        for ((i, cell), outs) in queue.into_iter().zip(outcomes) {
            for (scheme, out) in cell.iter().zip(outs) {
                let col = MATRIX_SCHEMES.iter().position(|s| s == scheme);
                slots[i][col.expect("a matrix scheme")] = Some(out);
            }
        }
        workloads
            .iter()
            .zip(slots)
            .map(|(w, row)| {
                let [base, rpg2, triangel, prophet] =
                    row.map(|out| out.expect("one outcome per scheme"));
                SchemeRow {
                    workload: w.name(),
                    base: base.into_report(),
                    rpg2: rpg2.into_rpg2(),
                    triangel: triangel.into_report(),
                    prophet: prophet.into_report(),
                }
            })
            .collect()
    }
}

/// One row of a Figure 10/11/12-style comparison. RPG2 keeps its full
/// pipeline result (qualified PCs, tuned distance) alongside the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRow {
    pub workload: String,
    pub base: SimReport,
    pub rpg2: Rpg2Result,
    pub triangel: SimReport,
    pub prophet: SimReport,
}

impl SchemeRow {
    /// `(rpg2, triangel, prophet)` speedups over the baseline.
    pub fn speedups(&self) -> (f64, f64, f64) {
        (
            self.rpg2.report.speedup_over(&self.base),
            self.triangel.speedup_over(&self.base),
            self.prophet.speedup_over(&self.base),
        )
    }

    /// `(rpg2, triangel, prophet)` DRAM traffic normalized to baseline.
    pub fn traffic(&self) -> (f64, f64, f64) {
        (
            self.rpg2.report.traffic_ratio_over(&self.base),
            self.triangel.traffic_ratio_over(&self.base),
            self.prophet.traffic_ratio_over(&self.base),
        )
    }
}

/// A command-line flag, which takes one value ([`Flag::usage`]). Every
/// binary and `prophet_cli` mode declares the flags it reads and rejects
/// the rest ([`RunArgs::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    Insts,
    Warmup,
    Jobs,
    Store,
    Hints,
    HintsOut,
    Addr,
    ServiceThreads,
}

/// Every flag as typed and its value as usage lines show it, in [`Flag`]
/// order.
const FLAGS: [(Flag, &str, &str); 8] = [
    (Flag::Insts, "--insts", "N"),
    (Flag::Warmup, "--warmup", "N"),
    (Flag::Jobs, "--jobs", "N"),
    (Flag::Store, "--store", "DIR"),
    (Flag::Hints, "--hints", "FILE"),
    (Flag::HintsOut, "--hints-out", "FILE"),
    (Flag::Addr, "--addr", "HOST:PORT"),
    (Flag::ServiceThreads, "--service-threads", "N"),
];

impl Flag {
    /// What a figure grid reads: the window and `--jobs`.
    pub const GRID: [Flag; 3] = [Flag::Insts, Flag::Warmup, Flag::Jobs];

    /// The flag as typed, e.g. `--insts`.
    pub fn name(self) -> &'static str {
        FLAGS[self as usize].1
    }

    /// The flag and its value as a usage line shows them, e.g. `--insts N`.
    pub fn usage(self) -> String {
        let (_, name, value) = FLAGS[self as usize];
        format!("{name} {value}")
    }
}

/// The parsed command line: one field per [`Flag`], positional arguments
/// in `rest`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunArgs {
    pub insts: Option<u64>,
    pub warmup: Option<u64>,
    pub jobs: usize,
    pub store: Option<String>,
    pub hints: Option<String>,
    pub hints_out: Option<String>,
    pub addr: Option<String>,
    pub service_threads: Option<usize>,
    pub rest: Vec<String>,
    /// The flags given, in order.
    given: Vec<Flag>,
}

impl RunArgs {
    /// Parses `args` (without the program name). Returns an error message
    /// for an unknown `--flag`, a missing or malformed value, or
    /// `--insts 0` (a run must measure something; `--warmup 0` is fine).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
        let mut out = RunArgs::default();
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                out.rest.push(a);
                continue;
            }
            let (flag, ..) = FLAGS
                .into_iter()
                .find(|(_, name, _)| *name == a)
                .ok_or_else(|| format!("unknown flag: {a}"))?;
            let v = args.next().ok_or_else(|| format!("{a} needs a value"))?;
            let number = |v: &str| v.parse().map_err(|_| format!("{a}: not a number: {v}"));
            match flag {
                Flag::Insts => match number(&v)? {
                    0 => return Err("--insts must be at least 1".into()),
                    n => out.insts = Some(n),
                },
                Flag::Warmup => out.warmup = Some(number(&v)?),
                Flag::Jobs => out.jobs = number(&v)? as usize,
                Flag::ServiceThreads => out.service_threads = Some(number(&v)? as usize),
                Flag::Store => out.store = Some(v),
                Flag::Hints => out.hints = Some(v),
                Flag::HintsOut => out.hints_out = Some(v),
                Flag::Addr => out.addr = Some(v),
            }
            out.given.push(flag);
        }
        Ok(out)
    }

    /// Checks that `cmd` reads every flag given and was given every flag
    /// it `needs`. The error names the first flag it does not read, and
    /// the flags it does, or the first flag it needs.
    pub fn check(&self, cmd: &str, reads: &[Flag], needs: &[Flag]) -> Result<(), String> {
        let Some(f) = self.given.iter().find(|f| !reads.contains(f)) else {
            return match needs.iter().find(|f| !self.given.contains(f)) {
                Some(f) => Err(format!("{cmd} needs {}", f.usage())),
                None => Ok(()),
            };
        };
        let names: Vec<_> = reads.iter().map(|r| r.name()).collect();
        Err(match names.split_last() {
            None => format!("unexpected argument: {}", f.name()),
            Some((last, [])) => format!("{cmd} takes only {last}, not {}", f.name()),
            Some((last, init)) => format!(
                "{cmd} takes only {} and {last}, not {}",
                init.join(", "),
                f.name()
            ),
        })
    }

    /// The command line of binary `cmd`, which reads the flags `reads` and
    /// no positional argument. Anything else prints the error and a usage
    /// line built from `reads`, and exits 2.
    pub fn parse_or_exit(cmd: &str, reads: &[Flag]) -> RunArgs {
        let parsed = RunArgs::parse(std::env::args().skip(1)).and_then(|args| {
            args.check(cmd, reads, &[])?;
            match args.rest.first() {
                Some(a) => Err(format!("unexpected argument: {a}")),
                None => Ok(args),
            }
        });
        parsed.unwrap_or_else(|e| {
            let flags: Vec<_> = reads.iter().map(|f| format!("[{}]", f.usage())).collect();
            if flags.is_empty() {
                eprintln!("{e}\nusage: {cmd} (takes no arguments)");
            } else {
                eprintln!("{e}\nusage: {cmd} {}", flags.join(" "));
            }
            std::process::exit(2);
        })
    }

    /// Runs the scheme×workload grid over the workloads `names`, sized to
    /// `h`'s window, with `--jobs` workers, every cell from a cold start
    /// (see [`Harness::run_matrix_stored`]).
    pub fn run_grid(&self, h: &Harness, names: &[&str]) -> Vec<SchemeRow> {
        let size = h.warmup + h.measure;
        let workloads: Vec<_> = names.iter().map(|n| workload_sized(n, size)).collect();
        h.run_matrix_stored(&workloads, self.jobs, None)
    }

    /// A harness with this window applied over `default` (flags that were
    /// not given keep the default's values).
    pub fn harness(&self, default: Harness) -> Harness {
        Harness {
            warmup: self.warmup.unwrap_or(default.warmup),
            measure: self.insts.unwrap_or(default.measure),
            ..default
        }
    }
}

/// Prints the speedups of `rows` under a `=== title ===` banner (see
/// [`print_scheme_table`]).
pub fn print_speedup_table(title: &str, rows: &[SchemeRow]) {
    print_scheme_table(&format!("\n=== {title} ==="), rows, SchemeRow::speedups);
}

/// Prints `title`, then one row per workload and a geomean row of
/// `metric`'s `(rpg2, triangel, prophet)` values, the way the paper's bar
/// charts read (one row per workload, one column per scheme).
pub fn print_scheme_table(
    title: &str,
    rows: &[SchemeRow],
    metric: fn(&SchemeRow) -> (f64, f64, f64),
) {
    println!("{title}");
    println!(
        "{:<18} {:>8} {:>10} {:>9}",
        "workload", "RPG2", "Triangel", "Prophet"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for r in rows {
        let (a, b, c) = metric(r);
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(c);
        println!("{:<18} {:>8.3} {:>10.3} {:>9.3}", r.workload, a, b, c);
    }
    println!(
        "{:<18} {:>8.3} {:>10.3} {:>9.3}",
        "geomean",
        prophet_sim_core::geomean(&cols[0]),
        prophet_sim_core::geomean(&cols[1]),
        prophet_sim_core::geomean(&cols[2]),
    );
}
