//! Address newtypes shared by the whole simulator.
//!
//! Three distinct address spaces appear in a trace-driven cache simulator and
//! confusing them is a classic source of bugs, so each gets a newtype
//! ([C-NEWTYPE]):
//!
//! * [`Addr`] — a byte address as produced by the core.
//! * [`Line`] — a cache-line (block) address, i.e. `byte >> 6` for 64-byte
//!   lines. All cache and prefetcher state is keyed by `Line`.
//! * [`Pc`] — the program counter of the memory instruction. Temporal
//!   prefetchers are PC-localized, and Prophet's hints are per-PC.

use std::fmt;

/// Number of bytes in one cache line throughout the simulated system
/// (Table 1 of the paper: 64 B lines at every level).
pub const LINE_BYTES: u64 = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this byte address.
    #[inline]
    pub fn line(self) -> Line {
        Line(self.0 >> LINE_SHIFT)
    }

    /// The byte address `delta` bytes away (wrapping; the simulated address
    /// space is a plain `u64`).
    #[inline]
    pub fn offset(self, delta: i64) -> Addr {
        Addr(self.0.wrapping_add(delta as u64))
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line address (byte address divided by the 64-byte line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Line(pub u64);

impl Line {
    /// The line `delta` lines away (wrapping).
    #[inline]
    pub fn offset(self, delta: i64) -> Line {
        Line(self.0.wrapping_add(delta as u64))
    }
}

impl From<u64> for Line {
    fn from(v: u64) -> Self {
        Line(v)
    }
}

impl From<Addr> for Line {
    fn from(a: Addr) -> Self {
        a.line()
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl fmt::LowerHex for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The program counter of a (memory) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl From<u64> for Pc {
    fn from(v: u64) -> Self {
        Pc(v)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc{:#x}", self.0)
    }
}

/// A point in simulated time, measured in core clock cycles.
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_addr() {
        assert_eq!(Addr(0).line(), Line(0));
        assert_eq!(Addr(63).line(), Line(0));
        assert_eq!(Addr(64).line(), Line(1));
        assert_eq!(Addr(0x1_0040).line(), Line(0x401));
    }

    #[test]
    fn addr_offset_signed() {
        assert_eq!(Addr(100).offset(-36), Addr(64));
        assert_eq!(Addr(100).offset(28), Addr(128));
    }

    #[test]
    fn line_offset_signed() {
        assert_eq!(Line(10).offset(-3), Line(7));
        assert_eq!(Line(10).offset(5), Line(15));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(Line(255).to_string(), "L0xff");
        assert_eq!(Pc(16).to_string(), "pc0x10");
    }
}
