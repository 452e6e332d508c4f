//! Hint-information injection mechanisms (Section 4.4).
//!
//! Analysis produces at most 3 bits per hinted memory instruction. The
//! paper designs two ways to get those bits to the prefetcher and weighs
//! their costs; both are modeled here so the `overheads` harness can
//! report the trade-off:
//!
//! * **Hint buffer** (Whisper-style) — specialized hint instructions,
//!   executed once at program entry (inserted via BOLT), load a PC-indexed
//!   buffer near the prefetcher. Costs: buffer storage (0.19 KB for the
//!   [`HINT_BUFFER_ENTRIES`] entries) plus one dynamic instruction per
//!   hint; works on every ISA.
//! * **Reserved bits / x86 instruction prefix** — hints ride inside the
//!   memory instructions themselves. Costs: nothing at runtime, but the
//!   prefix variant grows the code footprint (3 bits per hinted
//!   instruction → at most 6 bytes of I-cache for a full hint buffer).

use crate::hints::{HintBuffer, HintSet, HINT_BUFFER_ENTRIES};
use std::fmt;

/// Which injection mechanism an optimized binary uses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum InjectionMethod {
    /// Hint instructions filling the hardware [`HintBuffer`] at program
    /// entry.
    HintBuffer,
    /// Hints encoded in reserved bits of existing memory instructions
    /// (requires ISA support; zero overhead).
    ReservedBits,
    /// Hints carried by an added x86 instruction prefix.
    X86Prefix,
}

/// Names the hint buffer with its capacity, `HintBuffer { entries: N }`.
impl fmt::Debug for InjectionMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectionMethod::HintBuffer => f
                .debug_struct("HintBuffer")
                .field("entries", &HINT_BUFFER_ENTRIES)
                .finish(),
            InjectionMethod::ReservedBits => f.write_str("ReservedBits"),
            InjectionMethod::X86Prefix => f.write_str("X86Prefix"),
        }
    }
}

/// Cost report for injecting one hint set with one mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionCost {
    /// Extra dynamic instructions executed (once, at program entry).
    pub dynamic_instructions: u64,
    /// Dedicated storage near the prefetcher, in bytes.
    pub buffer_bytes: f64,
    /// Code-footprint growth visible to the I-cache, in bytes.
    pub icache_bytes: f64,
    /// Whether the mechanism works without ISA changes to memory
    /// instructions.
    pub isa_portable: bool,
}

impl InjectionMethod {
    /// The cost of injecting `hints` with this mechanism.
    pub fn cost(&self, hints: &HintSet) -> InjectionCost {
        let n = hints.pc_hints.len() as u64;
        match *self {
            InjectionMethod::HintBuffer => InjectionCost {
                // One hint instruction per (buffered) PC hint + the CSR
                // write.
                dynamic_instructions: n.min(HINT_BUFFER_ENTRIES as u64) + 1,
                buffer_bytes: HintBuffer::storage_bytes(),
                icache_bytes: 0.0,
                isa_portable: true,
            },
            InjectionMethod::ReservedBits => InjectionCost {
                dynamic_instructions: 1, // the CSR write
                buffer_bytes: 0.0,
                icache_bytes: 0.0,
                isa_portable: false,
            },
            InjectionMethod::X86Prefix => InjectionCost {
                dynamic_instructions: 1, // the CSR write
                buffer_bytes: 0.0,
                // Section 4.4's own arithmetic (6 bytes for a full hint
                // buffer): 3 bits per hinted instruction, reported per
                // 64-bit I-cache word. We reproduce the paper's figure.
                icache_bytes: n as f64 * 3.0 / 64.0,
                isa_portable: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::{CsrHint, PcHint};

    fn hints(n: usize) -> HintSet {
        HintSet {
            pc_hints: (0..n as u64).map(|pc| (pc, PcHint::DEFAULT)).collect(),
            csr: CsrHint::default(),
        }
    }

    #[test]
    fn hint_buffer_costs_match_paper() {
        let m = InjectionMethod::HintBuffer;
        let c = m.cost(&hints(128));
        assert_eq!(c.dynamic_instructions, 129, "128 hints + 1 CSR write");
        assert!((c.buffer_bytes / 1024.0 - 0.1875).abs() < 0.01, "0.19 KB");
        assert_eq!(c.icache_bytes, 0.0);
        assert!(c.isa_portable);
    }

    #[test]
    fn prefix_icache_cost_is_six_bytes_max() {
        let m = InjectionMethod::X86Prefix;
        let c = m.cost(&hints(128));
        assert!((c.icache_bytes - 6.0).abs() < 1e-9, "3×128/64 = 6 bytes");
        assert_eq!(c.dynamic_instructions, 1);
        assert!(!c.isa_portable);
    }

    #[test]
    fn debug_names_the_buffer_capacity() {
        assert_eq!(
            format!("{:?}", InjectionMethod::HintBuffer),
            "HintBuffer { entries: 128 }"
        );
        assert_eq!(format!("{:?}", InjectionMethod::X86Prefix), "X86Prefix");
    }

    #[test]
    fn reserved_bits_are_free() {
        let c = InjectionMethod::ReservedBits.cost(&hints(100));
        assert_eq!(c.buffer_bytes + c.icache_bytes, 0.0);
    }

    #[test]
    fn hint_buffer_truncates_to_capacity() {
        let m = InjectionMethod::HintBuffer;
        let c = m.cost(&hints(HINT_BUFFER_ENTRIES + 72));
        assert_eq!(c.dynamic_instructions, HINT_BUFFER_ENTRIES as u64 + 1);
    }
}
