//! RPG2 kernel identification.
//!
//! RPG2 (Zhang et al., ASPLOS'24) is a profile-guided *software* prefetching
//! scheme for indirect accesses `a[b[i]]` whose prefetch kernel `b[i]`
//! follows a stride pattern. Identification follows the paper's Section 5.1
//! methodology: find memory instructions that (a) cause at least 10% of
//! cache misses and (b) have an RPG2-supported prefetch kernel — i.e. the
//! load *producing their address* (or the load itself) is stride-dominated.
//!
//! Address-dependency edges are visible to RPG2 through its binary
//! instrumentation; in our substrate they are the `dep_back` links of the
//! trace.

use prophet_sim_core::trace::{MemOp, TraceInst, TraceSource};
use prophet_sim_mem::FlatMap;
use std::collections::HashMap;

/// Fraction of total L2 misses a PC must cause to be considered
/// (the paper: "at least 10% cache misses").
pub const MISS_SHARE_THRESHOLD: f64 = 0.10;

/// Fraction of a PC's address deltas that must equal the modal delta for
/// the stream to count as stride-dominated.
pub const STRIDE_MODE_THRESHOLD: f64 = 0.5;

/// Per-PC stream statistics gathered by one trace scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcStream {
    /// Total loads from this PC.
    pub loads: u64,
    /// Modal non-zero byte delta and its occurrence count.
    pub mode_delta: i64,
    pub mode_count: u64,
    /// Total non-zero deltas observed.
    pub delta_count: u64,
    /// The PC that most often produces this PC's address (via `dep_back`),
    /// with its count.
    pub producer: Option<(u64, u64)>,
}

impl PcStream {
    /// Whether the PC's own access stream is stride-dominated.
    pub fn is_strided(&self) -> bool {
        self.delta_count > 16
            && self.mode_delta != 0
            && self.mode_count as f64 >= STRIDE_MODE_THRESHOLD * self.delta_count as f64
    }
}

/// Result of kernel identification for one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelAnalysis {
    /// Per-PC stream statistics.
    pub streams: HashMap<u64, PcStream>,
}

/// Per-PC accumulator used during the scan: the moving parts of
/// [`PcStream`] plus the last address and the full delta histogram, all in
/// flat containers so the per-instruction scan cost is a couple of probes
/// instead of several SipHash map operations.
#[derive(Debug, Clone, Default)]
struct ScanState {
    loads: u64,
    delta_count: u64,
    last_addr: u64,
    has_last: bool,
    producer_pc: u64,
    producer_count: u64,
    has_producer: bool,
    /// Non-zero byte deltas (stored as `i64 as u64`, a bijection) → count.
    deltas: FlatMap<u64>,
}

/// Dependency-window size. Must be a power of two; dependencies in our
/// traces reach ≤ 280 instructions back, far inside the window.
const WINDOW: usize = 4_096;

/// One ring slot: enough of a past instruction to attribute a producer.
#[derive(Debug, Clone, Copy, Default)]
struct RingSlot {
    pc: u64,
    is_load: bool,
}

/// Incremental trace scanner: feed instructions with [`KernelScan::observe`]
/// in trace order, then [`KernelScan::finish`]. `KernelAnalysis::scan` is a
/// one-call wrapper; the harness instead fuses the scan into the stream it
/// already reads (the baseline pass's cursor, or the checkpointed sweep's
/// warm-up skip and window materialization), so the trace is generated
/// once, not once per analysis.
#[derive(Debug)]
pub struct KernelScan {
    pcs: FlatMap<ScanState>,
    ring: Vec<RingSlot>,
    abs: u64,
    win_start: u64,
}

impl Default for KernelScan {
    fn default() -> Self {
        KernelScan::new()
    }
}

impl KernelScan {
    /// An empty scanner.
    pub fn new() -> Self {
        KernelScan {
            pcs: FlatMap::with_capacity(64),
            ring: vec![RingSlot::default(); WINDOW],
            abs: 0,
            win_start: 0,
        }
    }

    /// Observes the next instruction of the trace.
    ///
    /// The dependency window is a fixed ring over the last `WINDOW`
    /// instructions. Like the drained-`Vec` formulation it replaces, a
    /// `dep_back` edge resolves only while its producer is still inside
    /// the retained window (`win_start` advances by half a window whenever
    /// the window fills, reproducing the old drain boundary exactly).
    pub fn observe(&mut self, inst: &TraceInst) {
        let abs = self.abs;
        self.ring[(abs as usize) & (WINDOW - 1)] = RingSlot {
            pc: inst.pc.0,
            is_load: matches!(inst.op, Some(MemOp::Load(_))),
        };
        if let Some(MemOp::Load(addr)) = inst.op {
            let s = self.pcs.get_or_insert_with(inst.pc.0, ScanState::default);
            s.loads += 1;
            if s.has_last {
                let d = addr.0 as i64 - s.last_addr as i64;
                if d != 0 {
                    s.delta_count += 1;
                    *s.deltas.get_or_insert_with(d as u64, || 0) += 1;
                }
            }
            s.last_addr = addr.0;
            s.has_last = true;
            // Producer attribution through the dependency edge.
            if let Some(back) = inst.dep_back {
                let back = back as u64;
                if back <= abs && abs - back >= self.win_start {
                    let p = self.ring[((abs - back) as usize) & (WINDOW - 1)];
                    if p.is_load {
                        if !s.has_producer {
                            s.has_producer = true;
                            s.producer_pc = p.pc;
                            s.producer_count = 0;
                        }
                        if s.producer_pc == p.pc {
                            s.producer_count += 1;
                        }
                    }
                }
            }
        }
        self.abs += 1;
        if self.abs - self.win_start > WINDOW as u64 {
            self.win_start += (WINDOW / 2) as u64;
        }
    }

    /// Finalizes: modal deltas and the public per-PC map.
    pub fn finish(self) -> KernelAnalysis {
        let mut streams: HashMap<u64, PcStream> = HashMap::with_capacity(self.pcs.len());
        for (pc, st) in self.pcs.iter() {
            let mut s = PcStream {
                loads: st.loads,
                delta_count: st.delta_count,
                producer: st
                    .has_producer
                    .then_some((st.producer_pc, st.producer_count)),
                ..PcStream::default()
            };
            if let Some((d, c)) = st
                .deltas
                .iter()
                .max_by_key(|&(_, &c)| c)
                .map(|(d, &c)| (d as i64, c))
            {
                s.mode_delta = d;
                s.mode_count = c;
            }
            streams.insert(pc, s);
        }
        KernelAnalysis { streams }
    }
}

impl KernelAnalysis {
    /// Scans a trace and gathers per-PC statistics. Pure software analysis
    /// — no simulation involved. One-call wrapper over [`KernelScan`].
    pub fn scan(source: &dyn TraceSource) -> Self {
        let mut scan = KernelScan::new();
        for inst in source.stream() {
            scan.observe(&inst);
        }
        scan.finish()
    }

    /// Applies the RPG2 qualification rule given per-PC L2 miss counts from
    /// a baseline profiling run: qualified PCs cause ≥10% of total misses
    /// and have a stride-dominated kernel (their address producer, or the
    /// stream itself).
    pub fn qualify(&self, miss_per_pc: &HashMap<u64, u64>) -> Vec<u64> {
        let total: u64 = miss_per_pc.values().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut out: Vec<u64> = self
            .streams
            .iter()
            .filter(|(pc, s)| {
                let misses = miss_per_pc.get(pc).copied().unwrap_or(0);
                if (misses as f64) < MISS_SHARE_THRESHOLD * total as f64 {
                    return false;
                }
                // Kernel check: the producing PC's stream (indirect access)
                // or the PC's own stream (direct strided access).
                let kernel_strided = s
                    .producer
                    .and_then(|(kpc, _)| self.streams.get(&kpc))
                    .map(|k| k.is_strided())
                    .unwrap_or(false);
                kernel_strided || s.is_strided()
            })
            .map(|(pc, _)| *pc)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim_core::trace::{TraceInst, VecTrace};
    use prophet_sim_mem::{Addr, Pc};

    /// kernel b[i] strided at PC 1; indirect a[b[i]] at PC 2.
    fn indirect_trace() -> VecTrace {
        let mut insts = Vec::new();
        let idx: Vec<u64> = (0..512u64)
            .map(|i| {
                // A proper bit mixer: a plain `(i*K) % m` has constant
                // deltas and would itself look strided.
                ((i ^ (i >> 3)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 10_000
            })
            .collect();
        for (i, &v) in idx.iter().enumerate() {
            insts.push(TraceInst::load(Pc(1), Addr(1_000_000 + i as u64 * 8)));
            insts.push(TraceInst::load_dep(Pc(2), Addr(8_000_000 + v * 64), 1));
        }
        VecTrace::new("ind", insts)
    }

    #[test]
    fn kernel_pc_detected_as_strided() {
        let a = KernelAnalysis::scan(&indirect_trace());
        assert!(a.streams[&1].is_strided(), "b[i] is a stride kernel");
        assert!(!a.streams[&2].is_strided(), "a[b[i]] itself is irregular");
    }

    #[test]
    fn producer_attribution_through_dep() {
        let a = KernelAnalysis::scan(&indirect_trace());
        assert_eq!(a.streams[&2].producer.map(|(pc, _)| pc), Some(1));
    }

    #[test]
    fn indirect_pc_qualifies_when_missing_enough() {
        let a = KernelAnalysis::scan(&indirect_trace());
        let mut misses = HashMap::new();
        misses.insert(2u64, 400u64);
        misses.insert(1u64, 50u64);
        let q = a.qualify(&misses);
        assert!(
            q.contains(&2),
            "indirect access with strided kernel qualifies"
        );
    }

    #[test]
    fn pointer_chase_does_not_qualify() {
        // Self-dependent irregular chain: no strided kernel anywhere.
        let mut insts = Vec::new();
        let mut l = 7u64;
        for i in 0..512u64 {
            l = (l * 2_654_435_761 + 11) % 100_000;
            let inst = if i == 0 {
                TraceInst::load(Pc(3), Addr(l * 64))
            } else {
                TraceInst::load_dep(Pc(3), Addr(l * 64), 1)
            };
            insts.push(inst);
        }
        let t = VecTrace::new("chase", insts);
        let a = KernelAnalysis::scan(&t);
        let mut misses = HashMap::new();
        misses.insert(3u64, 500u64);
        assert!(
            a.qualify(&misses).is_empty(),
            "mcf/omnetpp-style chains have no supported kernel (footnote 6)"
        );
    }

    #[test]
    fn cold_pcs_below_miss_share_excluded() {
        let a = KernelAnalysis::scan(&indirect_trace());
        let mut misses = HashMap::new();
        misses.insert(2u64, 5u64);
        misses.insert(99u64, 1_000u64); // some other dominant PC
        assert!(a.qualify(&misses).is_empty());
    }
}
