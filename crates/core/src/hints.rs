//! Hint representation and the hint buffer (Section 4.4).
//!
//! Analysis produces at most 3 bits per memory instruction: one insertion
//! bit (Eq. 1) and an n-bit replacement priority (Eq. 2, n = 2 by default).
//! Hints travel with demand requests; the hardware side is a
//! [`HINT_BUFFER_ENTRIES`]-entry PC-indexed *hint buffer* next to the
//! prefetcher (the Whisper-style mechanism), loaded once by hint
//! instructions at program entry.
//! Application-level hints (the metadata-table size, Eq. 3) are written to a
//! CSR by one instruction at program start.

use std::collections::HashMap;

/// Entries of the hardware hint buffer: only the top PCs by L2 misses
/// receive hints (Section 4.4: this many suffice empirically).
pub const HINT_BUFFER_ENTRIES: usize = 128;

/// The per-PC hint: Prophet's at-most-3-bit payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcHint {
    /// Eq. 1: train the prefetcher with this PC's demand requests?
    pub insert: bool,
    /// Eq. 2: replacement priority level in `[0, 2ⁿ)`.
    pub priority: u8,
}

impl PcHint {
    /// The neutral hint used for PCs absent from the hint buffer: insertion
    /// allowed at the lowest non-filtered priority.
    pub const DEFAULT: PcHint = PcHint {
        insert: true,
        priority: 0,
    };
}

impl Default for PcHint {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Application-level hint installed via CSR at program start (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrHint {
    /// Whether temporal prefetching is enabled at all (Eq. 3 disables it
    /// when the required table would be under half a way).
    pub enabled: bool,
    /// LLC ways allocated to the metadata table.
    pub meta_ways: usize,
}

impl Default for CsrHint {
    fn default() -> Self {
        CsrHint {
            enabled: true,
            meta_ways: 4,
        }
    }
}

/// The full output of one Analysis step: PC hints + CSR hint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HintSet {
    /// `(pc, hint)` pairs, at most the hint-buffer capacity.
    pub pc_hints: Vec<(u64, PcHint)>,
    /// The application-level hint.
    pub csr: CsrHint,
}

impl HintSet {
    /// Number of hint instructions the optimized binary needs (one per PC
    /// hint plus one CSR manipulation instruction) — the Section 5.4.3
    /// instruction-overhead metric.
    pub fn instruction_overhead(&self) -> usize {
        self.pc_hints.len() + 1
    }
}

/// The [`HINT_BUFFER_ENTRIES`]-entry hardware hint buffer near the
/// prefetcher.
#[derive(Debug, Clone, Default)]
pub struct HintBuffer {
    map: HashMap<u64, PcHint>,
}

impl HintBuffer {
    /// Loads a hint set, truncating to capacity (analysis already ranks PCs
    /// by miss contribution, so truncation drops the least important).
    pub fn load(&mut self, hints: &HintSet) {
        self.map.clear();
        for (pc, h) in hints.pc_hints.iter().take(HINT_BUFFER_ENTRIES) {
            self.map.insert(*pc, *h);
        }
    }

    /// The hint for `pc`, if present.
    pub fn get(&self, pc: u64) -> Option<PcHint> {
        self.map.get(&pc).copied()
    }

    /// The hint for `pc`, or the neutral default.
    pub fn get_or_default(&self, pc: u64) -> PcHint {
        self.get(pc).unwrap_or(PcHint::DEFAULT)
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer holds no hints.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Storage cost in bytes: each entry holds a ~9-bit PC tag plus the
    /// 3-bit hint (Section 4.4 quotes 0.19 KB for the whole buffer).
    pub fn storage_bytes() -> f64 {
        HINT_BUFFER_ENTRIES as f64 * 12.0 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_lookup() {
        let mut b = HintBuffer::default();
        b.load(&HintSet {
            pc_hints: vec![
                (
                    0x400,
                    PcHint {
                        insert: false,
                        priority: 0,
                    },
                ),
                (
                    0x404,
                    PcHint {
                        insert: true,
                        priority: 3,
                    },
                ),
            ],
            csr: CsrHint::default(),
        });
        assert_eq!(b.len(), 2);
        assert!(!b.get(0x400).unwrap().insert);
        assert_eq!(b.get(0x404).unwrap().priority, 3);
        assert_eq!(b.get(0x999), None);
        assert_eq!(b.get_or_default(0x999), PcHint::DEFAULT);
    }

    #[test]
    fn capacity_truncates() {
        let mut b = HintBuffer::default();
        let hints = HintSet {
            pc_hints: (0..HINT_BUFFER_ENTRIES as u64 + 3)
                .map(|pc| (pc, PcHint::DEFAULT))
                .collect(),
            csr: CsrHint::default(),
        };
        b.load(&hints);
        assert_eq!(b.len(), HINT_BUFFER_ENTRIES, "only the top-ranked PCs fit");
        assert!(b.get(HINT_BUFFER_ENTRIES as u64 - 1).is_some());
        assert!(b.get(HINT_BUFFER_ENTRIES as u64).is_none());
    }

    #[test]
    fn reload_replaces_contents() {
        let mut b = HintBuffer::default();
        b.load(&HintSet {
            pc_hints: vec![(1, PcHint::DEFAULT)],
            csr: CsrHint::default(),
        });
        b.load(&HintSet {
            pc_hints: vec![(2, PcHint::DEFAULT)],
            csr: CsrHint::default(),
        });
        assert!(b.get(1).is_none());
        assert!(b.get(2).is_some());
    }

    #[test]
    fn storage_matches_paper() {
        let kb = HintBuffer::storage_bytes() / 1024.0;
        assert!(
            (kb - 0.1875).abs() < 0.01,
            "128 entries ≈ 0.19 KB, got {kb}"
        );
    }

    #[test]
    fn instruction_overhead_counts_hints_plus_csr() {
        let hints = HintSet {
            pc_hints: (0..10u64).map(|pc| (pc, PcHint::DEFAULT)).collect(),
            csr: CsrHint::default(),
        };
        assert_eq!(hints.instruction_overhead(), 11);
    }
}
