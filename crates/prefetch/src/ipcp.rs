//! IPCP: Instruction-Pointer Classifier-based Prefetching (Pakalapati &
//! Panda, ISCA'20), used by the Figure 17 sensitivity study to model the
//! richer L1 prefetcher of a commercial core (Arm Neoverse V2).
//!
//! This is a behavioural reimplementation of the three IPCP classes:
//!
//! * **CS** (constant stride) — like the baseline stride prefetcher but with
//!   per-PC stride confirmation;
//! * **CPLX** (complex) — a signature table correlating a hash of recent
//!   deltas with the next delta, covering repeating non-constant stride
//!   sequences;
//! * **GS** (global stream) — region-density detection that streams ahead of
//!   dense sequential regions regardless of PC.

use crate::stride::PAGE_BYTES;
use crate::traits::{L1PrefetchList, L1Prefetcher, L1_INLINE_PREFETCHES};
use prophet_sim_mem::addr::{Addr, Pc};
use prophet_sim_mem::LINE_BYTES;

const CS_CONF_MAX: u8 = 3;
const CS_CONF_ISSUE: u8 = 2;
const CPLX_CONF_MAX: u8 = 3;
const CPLX_CONF_ISSUE: u8 = 2;
const REGION_BYTES: u64 = 2048;
const REGION_DENSE: u32 = 24; // of 32 lines
/// Prefetch degree of the CS class.
const CS_DEGREE: usize = 6;
/// Lookahead depth of the CPLX class.
const CPLX_DEPTH: usize = 4;
/// Lines streamed ahead by the GS class.
const GS_DEGREE: usize = 8;
// One reply is the GS stream plus either the CS run or the CPLX walk.
const _: () = assert!(
    GS_DEGREE + CS_DEGREE <= L1_INLINE_PREFETCHES && GS_DEGREE + CPLX_DEPTH <= L1_INLINE_PREFETCHES,
    "an IPCP reply must fit an L1PrefetchList"
);
/// IP table entries (a power of two).
const IP_ENTRIES: usize = 256;
/// Complex-stride prediction table entries (a power of two).
const CSPT_ENTRIES: usize = 1024;

#[derive(Debug, Clone, Copy, Default)]
struct IpEntry {
    tag: u64,
    valid: bool,
    last_addr: u64,
    stride: i64,
    cs_conf: u8,
    /// Rolling signature of recent deltas (CPLX class).
    signature: u16,
}

#[derive(Debug, Clone, Copy, Default)]
struct CsptEntry {
    delta: i64,
    conf: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct RegionEntry {
    region: u64,
    bitmap: u32,
    valid: bool,
}

/// The IPCP prefetcher.
#[derive(Debug, Clone)]
pub struct IpcpPrefetcher {
    ip_table: Vec<IpEntry>,
    cspt: Vec<CsptEntry>,
    regions: Vec<RegionEntry>,
    issued: u64,
}

impl IpcpPrefetcher {
    /// Total prefetch addresses produced so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn sig_update(sig: u16, delta: i64) -> u16 {
        // Fold the delta into a rolling 12-bit signature.
        let d = (delta as u64) & 0xfff;
        ((sig << 3) ^ (d as u16)) & 0xfff
    }

    fn cspt_index(&self, sig: u16) -> usize {
        (sig as usize) & (self.cspt.len() - 1)
    }

    fn within_page(a: u64, b: u64) -> bool {
        a / PAGE_BYTES == b / PAGE_BYTES
    }

    fn gs_observe(&mut self, addr: u64) -> L1PrefetchList {
        let region = addr / REGION_BYTES;
        let line_in_region = ((addr % REGION_BYTES) / LINE_BYTES) as u32;
        let slot = (region as usize) & (self.regions.len() - 1);
        let e = &mut self.regions[slot];
        if !e.valid || e.region != region {
            *e = RegionEntry {
                region,
                bitmap: 1 << line_in_region,
                valid: true,
            };
            return L1PrefetchList::default();
        }
        e.bitmap |= 1 << line_in_region;
        if e.bitmap.count_ones() >= REGION_DENSE {
            // Dense region: stream the next lines.
            let mut out = L1PrefetchList::default();
            for k in 1..=GS_DEGREE {
                let target = addr + k as u64 * LINE_BYTES;
                if !Self::within_page(addr, target) {
                    break;
                }
                out.push(Addr(target));
            }
            return out;
        }
        L1PrefetchList::default()
    }
}

impl Default for IpcpPrefetcher {
    /// An IPCP prefetcher with empty tables.
    fn default() -> Self {
        IpcpPrefetcher {
            ip_table: vec![IpEntry::default(); IP_ENTRIES],
            cspt: vec![CsptEntry::default(); CSPT_ENTRIES],
            regions: vec![RegionEntry::default(); 16],
            issued: 0,
        }
    }
}

impl L1Prefetcher for IpcpPrefetcher {
    fn name(&self) -> &'static str {
        "ipcp"
    }

    fn on_l1_access(&mut self, pc: Pc, addr: Addr, _hit: bool) -> L1PrefetchList {
        let gs = self.gs_observe(addr.0);

        let idx = (pc.0 as usize) & (self.ip_table.len() - 1);
        let e = &mut self.ip_table[idx];
        if !e.valid || e.tag != pc.0 {
            *e = IpEntry {
                tag: pc.0,
                valid: true,
                last_addr: addr.0,
                ..IpEntry::default()
            };
            self.issued += gs.len() as u64;
            return gs;
        }
        let delta = addr.0 as i64 - e.last_addr as i64;
        e.last_addr = addr.0;
        if delta == 0 {
            self.issued += gs.len() as u64;
            return gs;
        }

        // Train CPLX on the previous signature → observed delta.
        let prev_sig = e.signature;
        e.signature = Self::sig_update(prev_sig, delta);
        let sig_for_lookup = e.signature;
        let ci = self.cspt_index(prev_sig);
        {
            let c = &mut self.cspt[ci];
            if c.delta == delta {
                c.conf = (c.conf + 1).min(CPLX_CONF_MAX);
            } else if c.conf > 0 {
                c.conf -= 1;
            } else {
                c.delta = delta;
                c.conf = 1;
            }
        }

        // CS class.
        let e = &mut self.ip_table[idx];
        if delta == e.stride {
            e.cs_conf = (e.cs_conf + 1).min(CS_CONF_MAX);
        } else {
            e.stride = delta;
            e.cs_conf = e.cs_conf.saturating_sub(1);
        }
        let mut out = gs;
        if e.cs_conf >= CS_CONF_ISSUE {
            let stride = e.stride;
            for k in 1..=CS_DEGREE {
                let target = addr.0.wrapping_add((stride * k as i64) as u64);
                if !Self::within_page(addr.0, target) {
                    break;
                }
                out.push(Addr(target));
            }
        } else {
            // CPLX class: walk predicted deltas while confident.
            let mut cur = addr.0;
            let mut sig = sig_for_lookup;
            for _ in 0..CPLX_DEPTH {
                let c = self.cspt[self.cspt_index(sig)];
                if c.conf < CPLX_CONF_ISSUE || c.delta == 0 {
                    break;
                }
                let target = cur.wrapping_add(c.delta as u64);
                if !Self::within_page(addr.0, target) {
                    break;
                }
                out.push(Addr(target));
                cur = target;
                sig = Self::sig_update(sig, c.delta);
            }
        }
        self.issued += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(pf: &mut IpcpPrefetcher, pc: u64, addrs: &[u64]) -> Vec<L1PrefetchList> {
        addrs
            .iter()
            .map(|&a| pf.on_l1_access(Pc(pc), Addr(a), false))
            .collect()
    }

    #[test]
    fn cs_class_catches_constant_stride() {
        let mut pf = IpcpPrefetcher::default();
        let addrs: Vec<u64> = (0..6).map(|i| i * 64).collect();
        let outs = drive(&mut pf, 1, &addrs);
        let last = outs.last().unwrap();
        assert!(!last.is_empty());
        assert_eq!(last[0], Addr(5 * 64 + 64));
    }

    #[test]
    fn cplx_class_catches_repeating_delta_pattern() {
        let mut pf = IpcpPrefetcher::default();
        // Repeating delta sequence +64, +192, +64, +192, ... (non-constant).
        let mut addrs = vec![0u64];
        for i in 0..40 {
            let d = if i % 2 == 0 { 64 } else { 192 };
            addrs.push(addrs.last().unwrap() + d);
        }
        // Keep within a page by wrapping the pattern in a fresh page region.
        let outs = drive(&mut pf, 2, &addrs[..28]);
        let produced: usize = outs.iter().map(|o| o.len()).sum();
        assert!(produced > 0, "CPLX must learn the alternating deltas");
    }

    #[test]
    fn gs_class_streams_dense_regions() {
        let mut pf = IpcpPrefetcher::default();
        // Touch 24+ distinct lines of one 2 KB region from many PCs.
        let mut fired = false;
        for i in 0..32u64 {
            let out = pf.on_l1_access(Pc(100 + i), Addr(i * 64), false);
            if !out.is_empty() {
                fired = true;
            }
        }
        assert!(fired, "dense region must trigger streaming");
    }

    #[test]
    fn random_traffic_is_mostly_quiet() {
        let mut pf = IpcpPrefetcher::default();
        let addrs: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % (1 << 30))
            .collect();
        let outs = drive(&mut pf, 3, &addrs);
        let produced: usize = outs.iter().map(|o| o.len()).sum();
        assert!(
            produced < 8,
            "random stream should rarely trigger ({produced})"
        );
    }

    #[test]
    fn respects_page_boundary() {
        let mut pf = IpcpPrefetcher::default();
        let base = PAGE_BYTES - 3 * 64;
        let outs = drive(&mut pf, 4, &[base, base + 64, base + 128, base + 128 + 64]);
        for o in outs {
            for a in o {
                assert!(a.0 < 2 * PAGE_BYTES, "prefetch crossed too far: {a}");
            }
        }
    }
}
