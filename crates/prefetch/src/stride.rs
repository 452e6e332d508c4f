//! The Table 1 L1D stride prefetcher: PC-indexed, degree 8.
//!
//! A classic reference-prediction-table design (Baer & Chen): each PC tracks
//! its last address and last observed stride with a saturating confidence
//! counter; once the stride is confirmed, the next `degree` strided addresses
//! are prefetched. Prefetches stop at page boundaries (hardware L1
//! prefetchers work on physical addresses, Section 5.7 motivates IPCP partly
//! by this limit).

use crate::traits::{L1PrefetchList, L1Prefetcher};
use prophet_sim_mem::addr::{Addr, Pc};

/// Simulated page size (bytes) bounding hardware prefetch reach.
pub const PAGE_BYTES: u64 = 4096;

const CONF_MAX: u8 = 3;
const CONF_ISSUE: u8 = 2;

/// Prefetch degree (Table 1: 8).
const DEGREE: usize = 8;

/// Entries in the PC-indexed reference prediction table (a power of two,
/// for direct-mapped indexing).
const TABLE_ENTRIES: usize = 256;

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// PC-localized stride prefetcher (degree 8, as in Table 1).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    issued: u64,
}

impl StridePrefetcher {
    /// Total prefetch addresses produced so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn index(&self, pc: Pc) -> usize {
        (pc.0 as usize) & (self.table.len() - 1)
    }
}

impl Default for StridePrefetcher {
    /// The prefetcher with an empty table.
    fn default() -> Self {
        StridePrefetcher {
            table: vec![StrideEntry::default(); TABLE_ENTRIES],
            issued: 0,
        }
    }
}

impl L1Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn on_l1_access(&mut self, pc: Pc, addr: Addr, _hit: bool) -> L1PrefetchList {
        let idx = self.index(pc);
        let e = &mut self.table[idx];
        if !e.valid || e.tag != pc.0 {
            *e = StrideEntry {
                tag: pc.0,
                last_addr: addr.0,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return L1PrefetchList::default();
        }
        let delta = addr.0 as i64 - e.last_addr as i64;
        e.last_addr = addr.0;
        if delta == 0 {
            return L1PrefetchList::default();
        }
        if delta == e.stride {
            e.confidence = (e.confidence + 1).min(CONF_MAX);
        } else {
            e.stride = delta;
            e.confidence = e.confidence.saturating_sub(1);
            return L1PrefetchList::default();
        }
        if e.confidence < CONF_ISSUE {
            return L1PrefetchList::default();
        }
        let stride = e.stride;
        let page = addr.0 / PAGE_BYTES;
        let mut out = L1PrefetchList::default();
        for k in 1..=DEGREE {
            let target = addr.0.wrapping_add((stride * k as i64) as u64);
            if target / PAGE_BYTES != page {
                break; // stop at the page boundary
            }
            out.push(Addr(target));
        }
        self.issued += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(pf: &mut StridePrefetcher, pc: u64, addrs: &[u64]) -> Vec<L1PrefetchList> {
        addrs
            .iter()
            .map(|&a| pf.on_l1_access(Pc(pc), Addr(a), false))
            .collect()
    }

    #[test]
    fn constant_stride_is_detected() {
        let mut pf = StridePrefetcher::default();
        let outs = drive(&mut pf, 0x10, &[0, 64, 128, 192, 256]);
        assert!(outs[0].is_empty() && outs[1].is_empty());
        // By the fourth access confidence reaches the issue threshold.
        let issued = &outs[3];
        assert!(!issued.is_empty(), "stable stride must trigger prefetches");
        assert_eq!(issued[0], Addr(192 + 64));
        assert_eq!(
            issued.last().copied(),
            Some(Addr(192 + 64 * issued.len() as u64))
        );
    }

    #[test]
    fn degree_eight_when_within_page() {
        let mut pf = StridePrefetcher::default();
        let outs = drive(&mut pf, 0x10, &[0, 64, 128, 192]);
        assert_eq!(outs[3].len(), 8);
    }

    #[test]
    fn stops_at_page_boundary() {
        let mut pf = StridePrefetcher::default();
        // Addresses near the end of a page.
        let base = PAGE_BYTES - 4 * 64;
        let outs = drive(&mut pf, 0x10, &[base, base + 64, base + 128, base + 192]);
        // From base+192 (= page end − 64) no strided target stays in page.
        assert!(outs[3].len() < 8);
    }

    #[test]
    fn random_stream_stays_quiet() {
        let mut pf = StridePrefetcher::default();
        let outs = drive(&mut pf, 0x20, &[5000, 320, 9984, 128, 77_000, 640]);
        assert!(outs.iter().all(|o| o.is_empty()));
    }

    #[test]
    fn negative_stride_supported() {
        let mut pf = StridePrefetcher::default();
        let outs = drive(&mut pf, 0x30, &[8192, 8128, 8064, 8000]);
        assert!(!outs[3].is_empty());
        assert_eq!(outs[3][0], Addr(8000 - 64));
    }

    #[test]
    fn pc_conflict_resets_entry() {
        let mut pf = StridePrefetcher::default();
        // Two PCs alias to the same entry; neither should ever confirm.
        let alias = TABLE_ENTRIES as u64;
        for i in 0..10u64 {
            assert!(pf.on_l1_access(Pc(0), Addr(i * 64), false).is_empty());
            assert!(pf
                .on_l1_access(Pc(alias), Addr(i * 128 + 7), false)
                .is_empty());
        }
    }

    #[test]
    fn repeated_same_address_no_prefetch() {
        let mut pf = StridePrefetcher::default();
        let outs = drive(&mut pf, 0x40, &[64, 64, 64, 64]);
        assert!(outs.iter().all(|o| o.is_empty()));
    }
}
