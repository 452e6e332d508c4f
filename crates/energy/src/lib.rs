//! # prophet-energy
//!
//! CACTI-like energy model for the memory hierarchy (Section 5.11).
//!
//! The paper models on-chip array energy with CACTI at 22 nm and sets the
//! DRAM access energy to 25× an LLC access, then reports Prophet's memory-
//! hierarchy energy overhead vs. Triangel (≈1.6%). This crate reproduces
//! that accounting: per-access energies follow a capacity^0.5 scaling
//! (CACTI's dynamic-energy trend for SRAM arrays), DRAM is pinned at 25×
//! the LLC, and a [`SimReport`]'s access counts turn into joules.

use prophet_sim_core::SimReport;

/// Per-access energies in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    pub l1_nj: f64,
    pub l2_nj: f64,
    pub llc_nj: f64,
    pub dram_nj: f64,
    /// Small side structures (hint buffer, MVB, replacement state) per
    /// access touched.
    pub side_nj: f64,
}

impl EnergyModel {
    /// The paper's setup: 22 nm CACTI-style scaling with
    /// `DRAM = 25 × LLC` (Section 5.11).
    pub fn isca25() -> Self {
        // sqrt-capacity scaling anchored at a 0.4 nJ LLC access:
        // 64 KB L1 : 512 KB L2 : 2 MB LLC ≈ 1 : 2.8 : 5.7.
        let llc = 0.4;
        EnergyModel {
            l1_nj: llc * (64.0f64 / 2048.0).sqrt(),
            l2_nj: llc * (512.0f64 / 2048.0).sqrt(),
            llc_nj: llc,
            dram_nj: 25.0 * llc,
            side_nj: 0.01,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::isca25()
    }
}

/// Energy breakdown of one simulation run, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    pub l1_nj: f64,
    pub l2_nj: f64,
    pub llc_nj: f64,
    pub dram_nj: f64,
    pub side_nj: f64,
}

impl EnergyBreakdown {
    /// Total memory-hierarchy energy.
    pub fn total_nj(&self) -> f64 {
        self.l1_nj + self.l2_nj + self.llc_nj + self.dram_nj + self.side_nj
    }
}

/// Computes the hierarchy energy of a run. `side_accesses` models hint
/// buffer / MVB / replacement-state touches (zero for non-Prophet schemes).
pub fn energy_of(report: &SimReport, model: &EnergyModel, side_accesses: u64) -> EnergyBreakdown {
    let l1_accesses = report.l1d.demand_accesses();
    let l2_accesses = report.l2.demand_accesses() + report.l2.prefetch_fills;
    let llc_accesses = report.llc.demand_accesses() + report.meta.lookups + report.meta.insertions;
    let dram_accesses = report.dram.traffic();
    EnergyBreakdown {
        l1_nj: l1_accesses as f64 * model.l1_nj,
        l2_nj: l2_accesses as f64 * model.l2_nj,
        llc_nj: llc_accesses as f64 * model.llc_nj,
        dram_nj: dram_accesses as f64 * model.dram_nj,
        side_nj: side_accesses as f64 * model.side_nj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_is_25x_llc() {
        let m = EnergyModel::isca25();
        assert!((m.dram_nj / m.llc_nj - 25.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_ordering() {
        let m = EnergyModel::isca25();
        assert!(m.l1_nj < m.l2_nj);
        assert!(m.l2_nj < m.llc_nj);
        assert!(m.llc_nj < m.dram_nj);
    }

    fn report_with(dram_reads: u64, l1_hits: u64) -> SimReport {
        let mut r = SimReport::default();
        r.dram.reads = dram_reads;
        r.l1d.demand_hits = l1_hits;
        r
    }

    #[test]
    fn dram_dominates_when_missing() {
        let m = EnergyModel::isca25();
        let heavy = energy_of(&report_with(1_000, 1_000), &m, 0);
        assert!(heavy.dram_nj > 0.9 * heavy.total_nj());
    }

    #[test]
    fn overhead_comparison() {
        let m = EnergyModel::isca25();
        let a = energy_of(&report_with(1_000, 10_000), &m, 0);
        let b = energy_of(&report_with(1_100, 10_000), &m, 0);
        let ov = b.total_nj() / a.total_nj() - 1.0;
        assert!(ov > 0.05 && ov < 0.12, "≈10% more DRAM traffic: {ov}");
    }

    #[test]
    fn side_structures_are_cheap() {
        let m = EnergyModel::isca25();
        let without = energy_of(&report_with(1_000, 10_000), &m, 0);
        let with = energy_of(&report_with(1_000, 10_000), &m, 100_000);
        assert!(
            with.total_nj() < 1.1 * without.total_nj(),
            "side structures must stay a small fraction"
        );
    }
}
