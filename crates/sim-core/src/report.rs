//! Simulation reports: the metrics every figure of the paper is built from.

use prophet_prefetch::MetaTableStats;
use prophet_sim_mem::cache::CacheStats;
use prophet_sim_mem::dram::DramStats;
use prophet_sim_mem::hierarchy::PcMemStats;
use std::collections::BTreeMap;
use std::fmt;

/// Everything measured by one simulation run. `PartialEq` compares every
/// field (the determinism tests assert parallel and replayed runs agree
/// bit for bit).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Workload identifier.
    pub workload: String,
    /// Prefetcher configuration identifier ("none", "rpg2", "triangel", ...).
    pub scheme: String,
    pub instructions: u64,
    pub cycles: u64,
    pub ipc: f64,
    pub l1d: CacheStats,
    pub l2: CacheStats,
    pub llc: CacheStats,
    pub dram: DramStats,
    /// L2 prefetches issued (temporal/software).
    pub issued_prefetches: u64,
    /// Issued prefetches hit by a demand access.
    pub useful_prefetches: u64,
    /// Useful prefetches that were still in flight when demanded.
    pub late_useful_prefetches: u64,
    /// Per-PC counters keyed by raw PC (BTreeMap for deterministic output).
    pub per_pc: BTreeMap<u64, PcMemStats>,
    /// Metadata-table activity of the temporal prefetcher.
    pub meta: MetaTableStats,
    /// LLC ways the metadata table occupied at the end of the run.
    pub meta_ways: usize,
}

impl SimReport {
    /// Prefetch accuracy: useful / issued (Figure 12b). Zero when nothing
    /// was issued.
    pub fn accuracy(&self) -> f64 {
        if self.issued_prefetches == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / self.issued_prefetches as f64
        }
    }

    /// Prefetch coverage: useful / (useful + residual L2 demand misses)
    /// (Figure 12a / Section 5.2 "reduces demand misses").
    pub fn coverage(&self) -> f64 {
        let denom = self.useful_prefetches + self.l2.demand_misses;
        if denom == 0 {
            0.0
        } else {
            self.useful_prefetches as f64 / denom as f64
        }
    }

    /// L2 demand misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2.demand_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// DRAM traffic (reads + writes) — the Figure 11 metric.
    pub fn dram_traffic(&self) -> u64 {
        self.dram.traffic()
    }

    /// IPC speedup of `self` over `base` (same workload, different scheme).
    pub fn speedup_over(&self, base: &SimReport) -> f64 {
        if base.ipc == 0.0 {
            0.0
        } else {
            self.ipc / base.ipc
        }
    }

    /// DRAM traffic of `self` normalized to `base` (Figure 11).
    pub fn traffic_ratio_over(&self, base: &SimReport) -> f64 {
        if base.dram_traffic() == 0 {
            if self.dram_traffic() == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.dram_traffic() as f64 / base.dram_traffic() as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {}: {} insts, {} cycles, IPC {:.4}",
            self.workload, self.scheme, self.instructions, self.cycles, self.ipc
        )?;
        writeln!(
            f,
            "  L1D {:.1}% | L2 {:.1}% | LLC {:.1}% hit; L2 MPKI {:.2}",
            100.0 * self.l1d.hit_rate(),
            100.0 * self.l2.hit_rate(),
            100.0 * self.llc.hit_rate(),
            self.l2_mpki()
        )?;
        writeln!(
            f,
            "  prefetch: issued {} useful {} (acc {:.2} cov {:.2}); DRAM r {} w {}; meta ways {}",
            self.issued_prefetches,
            self.useful_prefetches,
            self.accuracy(),
            self.coverage(),
            self.dram.reads,
            self.dram.writes,
            self.meta_ways
        )
    }
}

/// Geometric mean of a slice of positive ratios (speedups). Returns 1.0 for
/// an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ipc: f64, useful: u64, issued: u64, misses: u64) -> SimReport {
        let mut r = SimReport {
            ipc,
            instructions: 1000,
            cycles: (1000.0 / ipc) as u64,
            issued_prefetches: issued,
            useful_prefetches: useful,
            ..SimReport::default()
        };
        r.l2.demand_misses = misses;
        r
    }

    #[test]
    fn accuracy_and_coverage() {
        let r = report(1.0, 50, 100, 50);
        assert!((r.accuracy() - 0.5).abs() < 1e-12);
        assert!((r.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_issued_means_zero_accuracy() {
        let r = report(1.0, 0, 0, 10);
        assert_eq!(r.accuracy(), 0.0);
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn speedup_ratio() {
        let base = report(1.0, 0, 0, 100);
        let fast = report(1.34, 0, 0, 50);
        assert!((fast.speedup_over(&base) - 1.34).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[1.2, 1.2, 1.2]) - 1.2).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn traffic_ratio_handles_zero_base() {
        let mut a = report(1.0, 0, 0, 0);
        let b = report(1.0, 0, 0, 0);
        assert_eq!(a.traffic_ratio_over(&b), 1.0);
        a.dram.reads = 5;
        assert!(a.traffic_ratio_over(&b).is_infinite());
    }

    #[test]
    fn display_mentions_key_metrics() {
        let r = report(1.5, 5, 10, 5);
        let s = r.to_string();
        assert!(s.contains("IPC 1.5"));
        assert!(s.contains("issued 10"));
    }
}
