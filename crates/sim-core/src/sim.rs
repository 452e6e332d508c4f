//! The simulator: core engine + memory hierarchy + prefetchers.
//!
//! Wiring mirrors the paper's system (Section 5.1): the L1 prefetcher
//! observes demand accesses and prefetches into the L1; the temporal (or
//! software) prefetcher observes the *L2 access stream* — demand L1 misses
//! plus L1-prefetch requests — and prefetches lines into the L2, possibly
//! repartitioning LLC ways for its metadata table.

use crate::engine::{Engine, EngineSnapshot, MemBackend};
use crate::report::SimReport;
use crate::trace::{TraceCursor, TraceInst, TraceSource};
use prophet_prefetch::{L1Prefetcher, L2Prefetcher, RecentFilter};
use prophet_sim_mem::addr::{Addr, Cycle, Pc};
use prophet_sim_mem::config::SystemConfig;
use prophet_sim_mem::hierarchy::{Hierarchy, HierarchySnapshot, L2Event};
use prophet_sim_mem::MAX_META_WAYS;

/// The memory side of the simulator: hierarchy plus both prefetchers.
/// Separated from the engine so the two can be mutably borrowed together.
pub struct MemSystem {
    mem: Hierarchy,
    l1pf: Box<dyn L1Prefetcher>,
    l2pf: Box<dyn L2Prefetcher>,
    filter: RecentFilter,
}

impl MemSystem {
    fn handle_l2_event(&mut self, ev: &L2Event) {
        let decision = self.l2pf.on_l2_access(ev);
        for i in 0..decision.metadata_dram_accesses {
            // Spread metadata rows over channels like data does.
            self.mem
                .metadata_dram_access(ev.line.0.wrapping_add(i as u64), ev.now);
        }
        if let Some(k) = decision.resize_meta_ways {
            let k = k.min(MAX_META_WAYS);
            if k != self.mem.llc_meta_ways() {
                self.mem.set_llc_meta_ways(k, ev.now);
            }
        }
        // By reference: moving the inline list into an owning iterator
        // copies its whole buffer on every event.
        for req in &decision.prefetches {
            // The issue variant checks the O(1) inflight probe before the
            // residency way scans; exact (see its docs).
            if self.filter.admit(req.line) {
                self.mem.l2_prefetch_issue(req.trigger_pc, req.line, ev.now);
            }
        }
    }

    /// The underlying hierarchy (for inspection in tests and reports).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.mem
    }
}

impl MemBackend for MemSystem {
    fn access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Cycle {
        let out = self.mem.demand_access(pc, addr.line(), is_store, now);
        if let Some(ev) = out.l2_event {
            self.handle_l2_event(&ev);
        }
        // L1 prefetcher sees the demand byte-address stream; its requests
        // that propagate past the L1 also appear in the L2 stream and train
        // the temporal prefetcher (Section 5.1).
        let l1_reqs = self.l1pf.on_l1_access(pc, addr, out.l1_hit);
        for &target in &l1_reqs {
            if let Some(ev) = self.mem.l1_prefetch(pc, target.line(), now) {
                self.handle_l2_event(&ev);
            }
        }
        out.latency
    }
}

/// A complete single-core simulation instance.
pub struct Simulator {
    engine: Engine,
    memsys: MemSystem,
    cfg: SystemConfig,
}

impl Simulator {
    /// Assembles a simulator. The L2 prefetcher's initial
    /// [`L2Prefetcher::meta_ways`] request is applied before the first
    /// instruction (Prophet's CSR manipulation instruction "at the beginning
    /// of the binary", Section 3.1).
    pub fn new(
        cfg: SystemConfig,
        l1pf: Box<dyn L1Prefetcher>,
        l2pf: Box<dyn L2Prefetcher>,
    ) -> Self {
        let mut mem = Hierarchy::new(&cfg);
        mem.set_llc_meta_ways(l2pf.meta_ways().min(MAX_META_WAYS), 0);
        Simulator {
            engine: Engine::new(cfg.core),
            memsys: MemSystem {
                mem,
                l1pf,
                l2pf,
                filter: RecentFilter::new(64),
            },
            cfg,
        }
    }

    /// Runs `warmup` instructions (not measured), then `measure` instructions
    /// with statistics collection, and returns the report. If the trace is
    /// shorter than `warmup + measure`, measurement covers whatever remains
    /// after warm-up.
    pub fn run(&mut self, source: &dyn TraceSource, warmup: u64, measure: u64) -> SimReport {
        let mut cursor = source.cursor();
        self.run_cursor(&mut *cursor, source.name(), warmup, measure)
    }

    /// [`Simulator::run`] over a cursor the caller owns, reporting under
    /// `name`: the one measurement loop (a warm start restores its machine
    /// and calls it with `warmup` 0). The cursor is left just past the
    /// measured window, so a caller that observes every instruction it
    /// yields (RPG2's kernel scan) can read on to the end of the trace.
    pub fn run_cursor(
        &mut self,
        cursor: &mut dyn TraceCursor,
        name: String,
        warmup: u64,
        measure: u64,
    ) -> SimReport {
        let mut fed = 0u64;
        while fed < warmup {
            match cursor.next_inst() {
                Some(inst) => self.step(&inst),
                None => break,
            }
            fed += 1;
        }
        self.reset_stats();
        let mut measured = 0u64;
        while measured < measure {
            match cursor.next_inst() {
                Some(inst) => self.step(&inst),
                None => break,
            }
            measured += 1;
        }
        self.report(name)
    }

    /// Restores the scheme-independent machine state of a warm-up
    /// checkpoint — pipeline timing plus the memory hierarchy — and then
    /// re-applies this simulator's L2 prefetcher partition (the restored
    /// LLC carries the *warm-up* partition, which is unpartitioned by
    /// construction; the scheme's CSR/initial ways take effect here, at
    /// the measurement boundary). Counters restart at zero.
    pub fn restore_warmup(&mut self, engine: &EngineSnapshot, memory: &HierarchySnapshot) {
        self.engine.restore(engine);
        self.memsys.mem.restore(memory);
        let now = self.engine.now();
        let k = self.memsys.l2pf.meta_ways().min(MAX_META_WAYS);
        self.memsys.mem.set_llc_meta_ways(k, now);
    }

    /// Feeds a single instruction (exposed for incremental drivers/tests).
    pub fn step(&mut self, inst: &TraceInst) {
        self.engine.step(inst, &mut self.memsys);
    }

    /// Clears all statistics at the warm-up boundary.
    pub fn reset_stats(&mut self) {
        self.engine.reset_stats();
        self.memsys.mem.reset_stats();
    }

    /// The memory system (for inspection).
    pub fn mem_system(&self) -> &MemSystem {
        &self.memsys
    }

    /// Snapshot of the engine's pipeline timing state (checkpointing).
    pub fn engine_snapshot(&self) -> EngineSnapshot {
        self.engine.snapshot()
    }

    /// Builds the report for everything measured since the last reset.
    pub fn report(&self, workload: String) -> SimReport {
        let es = self.engine.stats();
        let ms = self.memsys.mem.stats();
        let (l1d, l2, llc) = self.memsys.mem.cache_stats();
        SimReport {
            workload,
            scheme: self.memsys.l2pf.name().to_string(),
            instructions: es.instructions,
            cycles: es.cycles,
            ipc: es.ipc(),
            l1d,
            l2,
            llc,
            dram: *self.memsys.mem.dram_stats(),
            issued_prefetches: ms.issued_prefetches,
            useful_prefetches: ms.useful_prefetches,
            late_useful_prefetches: ms.late_useful_prefetches,
            per_pc: ms.per_pc.iter().map(|(pc, s)| (pc.0, *s)).collect(),
            meta: self.memsys.l2pf.meta_stats(),
            meta_ways: self.memsys.mem.llc_meta_ways(),
        }
    }

    /// The system configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }
}

/// A scheme-independent warm start: the machine state at the warm-up
/// boundary plus how many trace instructions that warm-up consumed.
/// Any number of measurement runs — one per scheme, or the several passes
/// of a profile-guided pipeline — can be launched from one `WarmStart`
/// instead of re-simulating the warm-up each time. `prophet-store`
/// serializes it inside a `WarmupCheckpoint` artifact (DESIGN.md §6).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    pub engine: EngineSnapshot,
    pub memory: HierarchySnapshot,
    /// Trace instructions the warm-up consumed (the measurement phase
    /// resumes the trace here).
    pub warmup: u64,
}

impl WarmStart {
    /// Runs the measurement phase for one prefetcher configuration from
    /// this warm state: builds a fresh simulator, restores the checkpointed
    /// machine, fast-forwards the trace past the warm-up, and measures
    /// `measure` instructions.
    pub fn simulate(
        &self,
        cfg: &SystemConfig,
        source: &dyn TraceSource,
        l1pf: Box<dyn L1Prefetcher>,
        l2pf: Box<dyn L2Prefetcher>,
        measure: u64,
    ) -> SimReport {
        let mut cursor = source.cursor();
        for _ in std::iter::from_fn(|| cursor.next_inst()).take(self.warmup as usize) {}
        let mut sim = Simulator::new(cfg.clone(), l1pf, l2pf);
        sim.restore_warmup(&self.engine, &self.memory);
        sim.run_cursor(&mut *cursor, source.name(), 0, measure)
    }

    /// [`WarmStart::simulate`] over a pre-materialized measurement window
    /// (the `measure` instructions that follow the warm-up). Bit-identical
    /// to the cursor path — [`WarmStart::simulate`] skips the warm-up
    /// without simulating it, so only the fed window matters — while
    /// letting a multi-pass sweep regenerate the trace once instead of
    /// once per pass.
    pub fn simulate_window(
        &self,
        cfg: &SystemConfig,
        name: &str,
        window: &[TraceInst],
        l1pf: Box<dyn L1Prefetcher>,
        l2pf: Box<dyn L2Prefetcher>,
    ) -> SimReport {
        let mut sim = Simulator::new(cfg.clone(), l1pf, l2pf);
        sim.restore_warmup(&self.engine, &self.memory);
        let measure = window.len() as u64;
        sim.run_cursor(&mut window.iter().copied(), name.to_string(), 0, measure)
    }
}

/// Convenience: simulate `source` under the given prefetchers and return the
/// report.
pub fn simulate(
    cfg: &SystemConfig,
    source: &dyn TraceSource,
    l1pf: Box<dyn L1Prefetcher>,
    l2pf: Box<dyn L2Prefetcher>,
    warmup: u64,
    measure: u64,
) -> SimReport {
    let mut sim = Simulator::new(cfg.clone(), l1pf, l2pf);
    sim.run(source, warmup, measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecTrace;
    use prophet_prefetch::{NoL1Prefetch, NoL2Prefetch};
    use prophet_sim_mem::addr::{Addr, Pc};

    fn streaming_trace(n: u64) -> VecTrace {
        let insts = (0..n)
            .map(|i| TraceInst::load(Pc(0x10), Addr(i * 64)))
            .collect();
        VecTrace::new("stream", insts)
    }

    #[test]
    fn baseline_run_produces_report() {
        let cfg = SystemConfig::isca25();
        let r = simulate(
            &cfg,
            &streaming_trace(30_000),
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            5_000,
            20_000,
        );
        assert_eq!(r.instructions, 20_000);
        assert!(r.ipc > 0.0);
        assert_eq!(r.scheme, "none");
        assert_eq!(r.workload, "stream");
    }

    /// A strided walk where each load's address depends on the previous
    /// load (serialized misses — the case prefetching actually helps; an
    /// independent cold stream is bandwidth-bound and cannot be sped up).
    fn dependent_stride_trace(n: u64) -> VecTrace {
        let insts = (0..n)
            .map(|i| {
                if i == 0 {
                    TraceInst::load(Pc(0x10), Addr(i * 64))
                } else {
                    TraceInst::load_dep(Pc(0x10), Addr(i * 64), 1)
                }
            })
            .collect();
        VecTrace::new("dep-stream", insts)
    }

    #[test]
    fn stride_prefetcher_improves_dependent_stream_ipc() {
        let cfg = SystemConfig::isca25();
        let trace = dependent_stride_trace(60_000);
        let base = simulate(
            &cfg,
            &trace,
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            5_000,
            50_000,
        );
        let strided = simulate(
            &cfg,
            &trace,
            Box::new(prophet_prefetch::StridePrefetcher::default()),
            Box::new(NoL2Prefetch),
            5_000,
            50_000,
        );
        assert!(
            strided.ipc > base.ipc * 2.0,
            "stride prefetching must speed up a serialized stream: {} vs {}",
            strided.ipc,
            base.ipc
        );
    }

    #[test]
    fn report_counts_match_hierarchy() {
        let cfg = SystemConfig::isca25();
        let r = simulate(
            &cfg,
            &streaming_trace(10_000),
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            0,
            10_000,
        );
        // No prefetchers: every L2 miss is a demand miss that reached DRAM
        // (cold, no reuse), modulo the LLC being cold too.
        assert_eq!(r.issued_prefetches, 0);
        assert!(r.dram.reads >= r.l2.demand_misses / 2);
        assert!(r.per_pc.contains_key(&0x10));
    }

    /// With no L2 prefetcher the warm-up machine *is* the baseline, so a
    /// warm-started measurement must reproduce the cold run's measurement
    /// phase bit for bit.
    #[test]
    fn warm_start_matches_cold_baseline_run() {
        let cfg = SystemConfig::isca25();
        let trace = dependent_stride_trace(60_000);
        let (warmup, measure) = (20_000u64, 30_000u64);
        let cold = simulate(
            &cfg,
            &trace,
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            warmup,
            measure,
        );

        // Re-create the warm-up by hand, snapshot, and measure from there.
        let mut warmer =
            Simulator::new(cfg.clone(), Box::new(NoL1Prefetch), Box::new(NoL2Prefetch));
        let mut cursor = trace.cursor();
        for _ in 0..warmup {
            warmer.step(&cursor.next_inst().expect("trace covers warm-up"));
        }
        let warm = WarmStart {
            engine: warmer.engine_snapshot(),
            memory: warmer.mem_system().hierarchy().snapshot(),
            warmup,
        };
        let warm_report = warm.simulate(
            &cfg,
            &trace,
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            measure,
        );
        assert_eq!(cold, warm_report);
    }

    /// A materialized measurement window must replay bit-identically to
    /// the cursor fast-forward path — the property the shared-sweep
    /// pipelines (RPG2 tuning, Prophet's passes) rely on.
    #[test]
    fn simulate_window_matches_cursor_path() {
        let cfg = SystemConfig::isca25();
        let trace = dependent_stride_trace(60_000);
        let (warmup, measure) = (20_000u64, 30_000u64);
        let mut warmer =
            Simulator::new(cfg.clone(), Box::new(NoL1Prefetch), Box::new(NoL2Prefetch));
        let mut cursor = trace.cursor();
        for _ in 0..warmup {
            warmer.step(&cursor.next_inst().expect("trace covers warm-up"));
        }
        let warm = WarmStart {
            engine: warmer.engine_snapshot(),
            memory: warmer.mem_system().hierarchy().snapshot(),
            warmup,
        };
        let window: Vec<TraceInst> = (0..measure).map_while(|_| cursor.next_inst()).collect();
        let via_cursor = warm.simulate(
            &cfg,
            &trace,
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            measure,
        );
        let via_window = warm.simulate_window(
            &cfg,
            "dep-stream",
            &window,
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
        );
        assert_eq!(via_cursor, via_window);
    }

    /// An idle-engine snapshot (the fast warm-up's pipeline image) must
    /// restore cleanly and resolve early dependency edges against its
    /// warm-up slot count.
    #[test]
    fn idle_engine_snapshot_measures_from_cycle() {
        let cfg = SystemConfig::isca25();
        let trace = dependent_stride_trace(30_000);
        let warm = WarmStart {
            // A drained pipeline at cycle 5 000: every ROB slot completed
            // and retired, no partial fetch or retire group.
            engine: crate::engine::EngineSnapshot {
                complete: vec![5_000; cfg.core.rob_entries],
                retired: vec![5_000; cfg.core.rob_entries],
                count: 10_000,
                fetch_cycle: 5_000,
                fetch_slots: 0,
                retire_cycle: 5_000,
                retire_slots: 0,
                retire_head: 5_000,
            },
            memory: Hierarchy::new(&cfg).snapshot(),
            warmup: 10_000,
        };
        let r = warm.simulate(
            &cfg,
            &trace,
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            10_000,
        );
        assert_eq!(r.instructions, 10_000);
        assert!(r.ipc > 0.0, "measurement proceeds from the idle snapshot");
    }

    #[test]
    fn short_trace_measures_what_exists() {
        let cfg = SystemConfig::isca25();
        let r = simulate(
            &cfg,
            &streaming_trace(1_000),
            Box::new(NoL1Prefetch),
            Box::new(NoL2Prefetch),
            500,
            10_000,
        );
        assert_eq!(r.instructions, 500);
    }
}
