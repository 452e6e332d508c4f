//! The out-of-order core timing model.
//!
//! A full gem5 O3 pipeline is far more than the prefetching study needs; the
//! quantities that matter are (a) how much memory-level parallelism the ROB
//! window exposes, (b) how address dependencies serialize pointer chases,
//! and (c) how fetch/commit width bound peak IPC. The model:
//!
//! * instructions dispatch in program order, up to `fetch_width` per cycle,
//!   stalling when the 288-entry ROB is full;
//! * an instruction begins executing once dispatched and its address
//!   dependency (if any) has completed — loads then pay the memory latency
//!   returned by the backend, other instructions one cycle;
//! * instructions retire in order, up to `commit_width` per cycle.
//!
//! The whole model is O(1) per instruction: completion and retirement times
//! live in ROB-sized rings.

use crate::trace::{MemOp, TraceInst};
use prophet_sim_mem::addr::{Addr, Cycle, Pc};
use prophet_sim_mem::config::CoreConfig;

/// The memory system as seen by the core: a demand access at `now` returning
/// its load-to-use latency.
pub trait MemBackend {
    /// Performs a demand access and returns its latency in cycles.
    fn access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Cycle;
}

/// Core performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    /// Cycles of the last retired instruction (total execution time).
    pub cycles: Cycle,
}

impl EngineStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Plain-data image of the engine's pipeline timing state, for warm-up
/// checkpointing. Statistics and the measurement epoch are excluded: a
/// checkpoint marks the warm-up boundary, where `reset_stats` re-bases
/// both anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    pub complete: Vec<Cycle>,
    pub retired: Vec<Cycle>,
    pub count: u64,
    pub fetch_cycle: Cycle,
    pub fetch_slots: u64,
    pub retire_cycle: Cycle,
    pub retire_slots: u64,
    pub retire_head: Cycle,
}

/// The timing engine. Feed it instructions with [`Engine::step`]; read
/// [`Engine::stats`] at the end.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: CoreConfig,
    /// Completion time of instruction `i`, at slot `i % rob`.
    complete: Vec<Cycle>,
    /// Retirement time of instruction `i`, at slot `i % rob`.
    retired: Vec<Cycle>,
    /// Instructions dispatched so far.
    count: u64,
    /// Cycle currently accepting fetches and slots already used in it.
    fetch_cycle: Cycle,
    fetch_slots: usize,
    /// Cycle currently accepting retirements and slots already used.
    retire_cycle: Cycle,
    retire_slots: usize,
    /// Retirement time of the most recently retired instruction (in-order
    /// commit: the next instruction cannot retire earlier).
    retire_head: Cycle,
    /// Cycle from which measured time is counted (set by `reset_stats`).
    epoch: Cycle,
    stats: EngineStats,
}

impl Engine {
    /// Creates an idle engine.
    pub fn new(cfg: CoreConfig) -> Self {
        Engine {
            complete: vec![0; cfg.rob_entries],
            retired: vec![0; cfg.rob_entries],
            count: 0,
            fetch_cycle: 0,
            fetch_slots: 0,
            retire_cycle: 0,
            retire_slots: 0,
            retire_head: 0,
            epoch: 0,
            stats: EngineStats::default(),
            cfg,
        }
    }

    /// Counter snapshot (`cycles` is the retirement time of the last
    /// instruction fed so far).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Resets the *counters* at a measurement boundary while keeping the
    /// pipeline timing state, so warm-up work is excluded from IPC.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
        // Rebase time so measured cycles start from zero: the current retire
        // head becomes the new epoch.
        self.epoch = self.retire_head;
    }

    /// Feeds one instruction through the model.
    ///
    /// # Panics
    /// Panics if `dep_back` is zero, reaches beyond the ROB, or past the
    /// beginning of the trace.
    pub fn step<M: MemBackend>(&mut self, inst: &TraceInst, mem: &mut M) {
        let rob = self.cfg.rob_entries as u64;
        let i = self.count;

        // Dispatch: wait for a fetch slot and for ROB space.
        let rob_free = if i >= rob {
            self.retired[(i % rob) as usize]
        } else {
            0
        };
        if rob_free > self.fetch_cycle {
            self.fetch_cycle = rob_free;
            self.fetch_slots = 0;
        }
        let dispatch = self.fetch_cycle;
        self.fetch_slots += 1;
        if self.fetch_slots >= self.cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetch_slots = 0;
        }

        // Execute: wait for the address dependency.
        let mut ready = dispatch;
        if let Some(back) = inst.dep_back {
            let back = back as u64;
            assert!(back > 0, "dependency distance must be positive");
            assert!(back <= i, "dependency reaches before the trace start");
            assert!(back < rob, "dependency distance {back} exceeds ROB size");
            let producer = self.complete[((i - back) % rob) as usize];
            ready = ready.max(producer);
        }

        let latency = match inst.op {
            None => 1,
            Some(MemOp::Load(addr)) => {
                self.stats.loads += 1;
                mem.access(inst.pc, addr, false, ready).max(1)
            }
            Some(MemOp::Store(addr)) => {
                self.stats.stores += 1;
                // Stores retire through the store buffer: cache state is
                // updated but the pipeline does not wait.
                mem.access(inst.pc, addr, true, ready);
                1
            }
        };
        let complete = ready + latency;
        self.complete[(i % rob) as usize] = complete;

        // Retire in order, bounded by commit width.
        let mut rt = complete.max(self.retire_head);
        if rt > self.retire_cycle {
            self.retire_cycle = rt;
            self.retire_slots = 0;
        } else {
            rt = self.retire_cycle;
        }
        self.retire_slots += 1;
        if self.retire_slots >= self.cfg.commit_width {
            self.retire_cycle += 1;
            self.retire_slots = 0;
        }
        self.retire_head = rt;
        self.retired[(i % rob) as usize] = rt;

        self.count += 1;
        self.stats.instructions += 1;
        self.stats.cycles = rt.saturating_sub(self.epoch);
    }

    /// Current simulated time (retirement frontier) — the timestamp handed
    /// to the memory system for background activity.
    pub fn now(&self) -> Cycle {
        self.retire_head
    }

    /// Captures the pipeline timing state for warm-up checkpointing.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            complete: self.complete.clone(),
            retired: self.retired.clone(),
            count: self.count,
            fetch_cycle: self.fetch_cycle,
            fetch_slots: self.fetch_slots as u64,
            retire_cycle: self.retire_cycle,
            retire_slots: self.retire_slots as u64,
            retire_head: self.retire_head,
        }
    }

    /// Restores a snapshot taken from an engine with the same ROB size.
    /// Statistics restart at zero and the epoch re-bases to the restored
    /// retirement head (exactly what `reset_stats` does at the warm-up
    /// boundary).
    ///
    /// # Panics
    /// Panics on a ROB-size mismatch.
    pub fn restore(&mut self, snap: &EngineSnapshot) {
        assert_eq!(
            snap.complete.len(),
            self.cfg.rob_entries,
            "engine snapshot geometry mismatch"
        );
        assert_eq!(
            snap.retired.len(),
            self.cfg.rob_entries,
            "engine snapshot geometry mismatch"
        );
        self.complete.clone_from(&snap.complete);
        self.retired.clone_from(&snap.retired);
        self.count = snap.count;
        self.fetch_cycle = snap.fetch_cycle;
        self.fetch_slots = snap.fetch_slots as usize;
        self.retire_cycle = snap.retire_cycle;
        self.retire_slots = snap.retire_slots as usize;
        self.retire_head = snap.retire_head;
        self.epoch = snap.retire_head;
        self.stats = EngineStats::default();
    }
}

// `epoch` rebases cycle counting after a warm-up reset; kept out of the
// constructor list above for readability.
impl Engine {
    /// Epoch accessor used in tests.
    pub fn epoch(&self) -> Cycle {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceInst;

    /// A memory backend with fixed latency.
    struct FixedMem(Cycle);

    impl MemBackend for FixedMem {
        fn access(&mut self, _pc: Pc, _addr: Addr, _is_store: bool, _now: Cycle) -> Cycle {
            self.0
        }
    }

    fn cfg() -> CoreConfig {
        CoreConfig::isca25()
    }

    #[test]
    fn alu_ipc_bounded_by_fetch_width() {
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(1);
        for _ in 0..10_000 {
            e.step(&TraceInst::op(Pc(1)), &mut m);
        }
        let ipc = e.stats().ipc();
        assert!(
            (ipc - cfg().fetch_width as f64).abs() < 0.1,
            "ALU-only IPC should approach fetch width, got {ipc}"
        );
    }

    #[test]
    fn independent_loads_overlap() {
        // 200-cycle loads with no dependencies: ROB exposes MLP, so IPC is
        // far higher than 1/200.
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(200);
        for i in 0..20_000u64 {
            e.step(&TraceInst::load(Pc(1), Addr(i * 64)), &mut m);
        }
        let ipc = e.stats().ipc();
        assert!(ipc > 1.0, "independent misses must overlap, got {ipc}");
    }

    #[test]
    fn dependent_loads_serialize() {
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(200);
        for i in 0..5_000u64 {
            let inst = if i == 0 {
                TraceInst::load(Pc(1), Addr(i * 64))
            } else {
                TraceInst::load_dep(Pc(1), Addr(i * 64), 1)
            };
            e.step(&inst, &mut m);
        }
        let ipc = e.stats().ipc();
        assert!(
            ipc < 0.01,
            "a pointer chase of 200-cycle loads must serialize, got {ipc}"
        );
    }

    #[test]
    fn dependency_mix_matches_chain_latency() {
        // Chain of loads separated by one ALU op each: cycles ≈ loads × lat.
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(100);
        let n = 1_000u64;
        for i in 0..n {
            if i % 2 == 0 {
                let inst = if i == 0 {
                    TraceInst::load(Pc(1), Addr(i))
                } else {
                    TraceInst::load_dep(Pc(1), Addr(i), 2)
                };
                e.step(&inst, &mut m);
            } else {
                e.step(&TraceInst::op(Pc(2)), &mut m);
            }
        }
        let cycles = e.stats().cycles;
        let expect = (n / 2) * 100;
        assert!(
            cycles as f64 > 0.9 * expect as f64 && (cycles as f64) < 1.2 * expect as f64,
            "chain of {} loads at 100 cycles should take ≈{expect}, got {cycles}",
            n / 2
        );
    }

    #[test]
    fn stores_do_not_stall() {
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(500);
        for i in 0..10_000u64 {
            e.step(&TraceInst::store(Pc(1), Addr(i * 64)), &mut m);
        }
        let ipc = e.stats().ipc();
        assert!(ipc > 3.0, "stores retire through the buffer, got {ipc}");
    }

    #[test]
    fn rob_bounds_outstanding_window() {
        // A load every instruction with huge latency: the ROB (288) bounds
        // how many can be outstanding, so IPC ≈ rob / latency.
        let mut e = Engine::new(cfg());
        let lat = 1_000;
        let mut m = FixedMem(lat);
        for i in 0..50_000u64 {
            e.step(&TraceInst::load(Pc(1), Addr(i * 64)), &mut m);
        }
        let ipc = e.stats().ipc();
        let bound = cfg().rob_entries as f64 / lat as f64;
        assert!(
            (ipc - bound).abs() / bound < 0.2,
            "IPC {ipc} should be near ROB/latency = {bound}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds ROB")]
    fn dependency_beyond_rob_rejected() {
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(1);
        for i in 0..400u64 {
            e.step(&TraceInst::load(Pc(1), Addr(i)), &mut m);
        }
        e.step(&TraceInst::load_dep(Pc(1), Addr(0), 300), &mut m);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let mut a = Engine::new(cfg());
        let mut m = FixedMem(120);
        for i in 0..2_000u64 {
            a.step(&TraceInst::load(Pc(1), Addr(i * 64)), &mut m);
        }
        let snap = a.snapshot();
        let mut b = Engine::new(cfg());
        b.restore(&snap);
        a.reset_stats();
        for i in 0..2_000u64 {
            let inst = TraceInst::load_dep(Pc(1), Addr(i * 64), 1);
            a.step(&inst, &mut m);
            b.step(&inst, &mut m);
        }
        assert_eq!(a.stats(), b.stats(), "restored engine times identically");
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    #[should_panic(expected = "snapshot geometry mismatch")]
    fn restore_rejects_other_rob() {
        let a = Engine::new(cfg());
        let mut small = Engine::new(CoreConfig {
            rob_entries: 64,
            ..cfg()
        });
        small.restore(&a.snapshot());
    }

    #[test]
    fn reset_stats_rebases_cycles() {
        let mut e = Engine::new(cfg());
        let mut m = FixedMem(100);
        for i in 0..1_000u64 {
            e.step(&TraceInst::load(Pc(1), Addr(i * 64)), &mut m);
        }
        e.reset_stats();
        assert_eq!(e.stats().instructions, 0);
        for i in 0..1_000u64 {
            e.step(&TraceInst::load(Pc(1), Addr(i * 64)), &mut m);
        }
        assert!(e.stats().cycles > 0);
        assert!(e.stats().ipc() > 0.0);
    }
}
