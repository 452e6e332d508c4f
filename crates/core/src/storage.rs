//! Storage-overhead accounting (Section 5.10).
//!
//! Prophet's storage cost has three components, all quantified by the
//! paper: 2-bit replacement states for up to [`MAX_META_ENTRIES`] metadata
//! entries (48 KB), the hint buffer (0.19 KB), and the Multi-path Victim
//! Buffer at 43 bits per entry (344 KB). Each component's formula lives
//! with the component; this module adds them up.

use crate::hints::HintBuffer;
use crate::mvb::MultiPathVictimBuffer;
use prophet_temporal::MAX_META_ENTRIES;

/// A storage-overhead breakdown in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageBreakdown {
    pub replacement_state_bytes: f64,
    pub hint_buffer_bytes: f64,
    pub mvb_bytes: f64,
}

impl StorageBreakdown {
    /// The paper's configuration: 1 MB table × 2-bit states, the hint
    /// buffer, and one candidate per MVB entry.
    pub fn isca25() -> Self {
        StorageBreakdown::new(2, 1)
    }

    /// The breakdown with Eq. 2's `n` = `priority_bits` replacement-state
    /// bits per metadata entry and `candidates` targets per MVB entry.
    pub fn new(priority_bits: u32, candidates: usize) -> Self {
        StorageBreakdown {
            replacement_state_bytes: MAX_META_ENTRIES as f64 * priority_bits as f64 / 8.0,
            hint_buffer_bytes: HintBuffer::storage_bytes(),
            mvb_bytes: MultiPathVictimBuffer::storage_bytes(candidates),
        }
    }

    /// Total overhead in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.replacement_state_bytes + self.hint_buffer_bytes + self.mvb_bytes
    }

    /// Renders the Section 5.10 table.
    pub fn table(&self) -> String {
        format!(
            "Component                    | Storage\n\
             -----------------------------+---------\n\
             Prophet replacement states   | {:>7.2} KB\n\
             Hint buffer                  | {:>7.2} KB\n\
             Multi-path Victim Buffer     | {:>7.2} KB\n\
             Total                        | {:>7.2} KB",
            self.replacement_state_bytes / 1024.0,
            self.hint_buffer_bytes / 1024.0,
            self.mvb_bytes / 1024.0,
            self.total_bytes() / 1024.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisConfig;
    use prophet_sim_mem::{SystemConfig, LLC_SETS, MAX_META_WAYS};

    #[test]
    fn geometry_constants_are_pinned() {
        assert_eq!(LLC_SETS, SystemConfig::isca25().llc.sets());
        assert_eq!(MAX_META_ENTRIES, 196_608, "the 1 MB table (Section 5.10)");
        let over_cap = AnalysisConfig::default().resize(2.0 * MAX_META_ENTRIES as f64);
        assert!(over_cap.enabled);
        assert_eq!(over_cap.meta_ways, MAX_META_WAYS);
        assert_eq!(over_cap.meta_ways, 8);
    }

    #[test]
    fn paper_numbers() {
        let s = StorageBreakdown::isca25();
        assert!((s.replacement_state_bytes / 1024.0 - 48.0).abs() < 0.01);
        assert!((s.hint_buffer_bytes / 1024.0 - 0.1875).abs() < 0.01);
        assert!((s.mvb_bytes / 1024.0 - 344.0).abs() < 1.0);
    }

    #[test]
    fn n3_replacement_state_grows() {
        let s2 = StorageBreakdown::new(2, 1);
        let s3 = StorageBreakdown::new(3, 1);
        assert!(s3.replacement_state_bytes > s2.replacement_state_bytes);
        assert!((s3.replacement_state_bytes / 1024.0 - 72.0).abs() < 0.01);
    }

    #[test]
    fn table_renders_all_rows() {
        let t = StorageBreakdown::isca25().table();
        for needle in [
            "replacement states",
            "Hint buffer",
            "Victim Buffer",
            "Total",
        ] {
            assert!(t.contains(needle));
        }
    }
}
