//! Whole-system configuration (the paper's Table 1).

use crate::cache::CacheConfig;
use crate::dram::DramConfig;
use crate::replacement::ReplKind;
use std::fmt;

/// Sets of the Table 1 LLC (2 MB / 64 B lines / 16 ways). The metadata table
/// shares the LLC's sets, so its geometry is this many sets.
pub const LLC_SETS: usize = 2048;

/// Most LLC ways the metadata table may occupy: 8 ways of the 2 MB LLC =
/// 1 MB, the paper's maximum table size (Section 5.10).
pub const MAX_META_WAYS: usize = 8;

/// Core pipeline widths and window sizes (Table 1, "Core" row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    pub fetch_width: usize,
    pub decode_width: usize,
    pub issue_width: usize,
    pub commit_width: usize,
    pub rob_entries: usize,
    pub iq_entries: usize,
    pub lq_entries: usize,
    pub sq_entries: usize,
}

impl CoreConfig {
    /// The evaluated core: 5-wide fetch/decode, 10-wide issue/commit,
    /// 120-entry IQ, 85/90-entry LQ/SQ, 288-entry ROB.
    pub fn isca25() -> Self {
        CoreConfig {
            fetch_width: 5,
            decode_width: 5,
            issue_width: 10,
            commit_width: 10,
            rob_entries: 288,
            iq_entries: 120,
            lq_entries: 85,
            sq_entries: 90,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::isca25()
    }
}

/// Full system configuration: core, three cache levels, DRAM.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    pub core: CoreConfig,
    pub l1d: CacheConfig,
    pub l2: CacheConfig,
    pub llc: CacheConfig,
    pub dram: DramConfig,
}

impl SystemConfig {
    /// The paper's Table 1 configuration (single core, so the shared LLC is
    /// its 2 MB/core slice).
    pub fn isca25() -> Self {
        SystemConfig {
            core: CoreConfig::isca25(),
            l1d: CacheConfig {
                name: "L1D",
                size_bytes: 64 * 1024,
                ways: 4,
                hit_latency: 2,
                repl: ReplKind::Plru,
                mshrs: 16,
            },
            l2: CacheConfig {
                name: "L2",
                size_bytes: 512 * 1024,
                ways: 8,
                hit_latency: 9,
                repl: ReplKind::Plru,
                mshrs: 32,
            },
            llc: CacheConfig {
                name: "LLC",
                size_bytes: 2 * 1024 * 1024,
                ways: 16,
                hit_latency: 20,
                repl: ReplKind::Srrip,
                mshrs: 36,
            },
            dram: DramConfig::lpddr5_single_channel(),
        }
    }

    /// Figure 18 variant: same system with `channels` DRAM channels.
    pub fn with_dram_channels(mut self, channels: usize) -> Self {
        self.dram = self.dram.with_channels(channels);
        self
    }

    /// Renders the configuration as the rows of Table 1 (used by the
    /// `tab01_config` harness binary).
    pub fn table1(&self) -> String {
        format!("{self}")
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::isca25()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Module              | Configuration")?;
        writeln!(
            f,
            "--------------------+--------------------------------------------"
        )?;
        writeln!(
            f,
            "Core                | {}-wide fetch, {}-wide decode",
            self.core.fetch_width, self.core.decode_width
        )?;
        writeln!(
            f,
            "                    | {}-wide issue, {}-wide commit",
            self.core.issue_width, self.core.commit_width
        )?;
        writeln!(
            f,
            "                    | {}-entry IQ, {}/{}-entry LQ/SQ",
            self.core.iq_entries, self.core.lq_entries, self.core.sq_entries
        )?;
        writeln!(
            f,
            "                    | {}-entry ROB",
            self.core.rob_entries
        )?;
        for c in [&self.l1d, &self.l2, &self.llc] {
            writeln!(
                f,
                "{:<20}| {} KB, {}-way, 64B line, {} MSHRs, {:?}, {} cycles hit latency",
                c.name,
                c.size_bytes / 1024,
                c.ways,
                c.mshrs,
                c.repl,
                c.hit_latency
            )?;
        }
        writeln!(
            f,
            "Memory              | LPDDR5-class: {} channel(s), {}+queue cycles, {} cycles/64B",
            self.dram.channels, self.dram.base_latency, self.dram.service_cycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry_matches_paper() {
        let cfg = SystemConfig::isca25();
        assert_eq!(cfg.l1d.sets(), 256); // 64KB / 64B / 4
        assert_eq!(cfg.l2.sets(), 1024); // 512KB / 64B / 8
        assert_eq!(cfg.llc.sets(), 2048); // 2MB / 64B / 16
        assert_eq!(cfg.core.rob_entries, 288);
        assert_eq!(cfg.dram.channels, 1);
    }

    #[test]
    fn metadata_capacity_matches_paper() {
        // 1 MB of LLC ways at 12 compressed entries per 64B line = 196,608
        // entries (Section 5.10).
        let cfg = SystemConfig::isca25();
        assert_eq!(cfg.llc.sets(), LLC_SETS, "the table's sets are the LLC's");
        let one_mb_ways = (1024 * 1024) / (cfg.llc.sets() as u64 * 64);
        assert_eq!(one_mb_ways, MAX_META_WAYS as u64);
        assert_eq!(cfg.llc.sets() as u64 * one_mb_ways * 12, 196_608);
    }

    #[test]
    fn display_contains_all_modules() {
        let t = SystemConfig::isca25().table1();
        for needle in ["Core", "L1D", "L2", "LLC", "Memory", "288-entry ROB"] {
            assert!(t.contains(needle), "table 1 output missing {needle}");
        }
    }

    #[test]
    fn channel_override() {
        let cfg = SystemConfig::isca25().with_dram_channels(2);
        assert_eq!(cfg.dram.channels, 2);
    }
}
