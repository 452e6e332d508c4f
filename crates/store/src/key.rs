//! Content addressing: which artifact belongs to which experiment.
//!
//! An artifact is only reusable when everything that shaped it is
//! identical: the workload spec (name + window sizing, which fully
//! determines the generated trace), the simulated system, the warm-up
//! length, and the artifact format itself. [`StoreKey`] carries those
//! coordinates; [`StoreKey::digest`] folds them (plus
//! [`FORMAT_VERSION`](crate::FORMAT_VERSION)) into the 64-bit FNV-1a hash
//! that names the file on disk, and the full key is echoed into the header
//! so a digest collision degrades to a miss rather than a wrong restore.

use crate::codec::Encoder;
use prophet_sim_mem::SystemConfig;

/// FNV-1a over a byte slice (the offline stand-in for a real content hash;
/// collisions are caught by the key echo in the artifact header).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A stable digest of everything in a [`SystemConfig`] that affects
/// simulation results. Two configs with equal digests warm up and measure
/// identically, so their artifacts are interchangeable.
pub fn config_digest(cfg: &SystemConfig) -> u64 {
    let mut e = Encoder::new();
    let c = &cfg.core;
    for v in [
        c.fetch_width,
        c.decode_width,
        c.issue_width,
        c.commit_width,
        c.rob_entries,
        c.iq_entries,
        c.lq_entries,
        c.sq_entries,
    ] {
        e.u64(v as u64);
    }
    for l in [&cfg.l1d, &cfg.l2, &cfg.llc] {
        e.str(l.name);
        e.u64(l.size_bytes);
        e.u64(l.ways as u64);
        e.u64(l.hit_latency);
        // Discriminant of the replacement policy family. The values are
        // part of every stored key: renumbering them orphans existing stores.
        e.u8(match l.repl {
            prophet_sim_mem::ReplKind::Plru => 1,
            prophet_sim_mem::ReplKind::Srrip => 2,
        });
        e.u64(l.mshrs as u64);
    }
    e.u64(cfg.dram.channels as u64);
    e.u64(cfg.dram.base_latency);
    e.u64(cfg.dram.service_cycles);
    fnv1a(&e.finish())
}

/// The coordinates an artifact was produced at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    /// Workload spec string: the registry name plus anything else that
    /// shapes the trace (the bench harness appends the L1 scheme, e.g.
    /// `"bfs_400000_8+l1=stride"`).
    pub workload: String,
    /// [`config_digest`] of the simulated system.
    pub config: u64,
    /// Warm-up instructions the artifact accounts for.
    pub warmup: u64,
    /// Measured instructions (zero for warm-up checkpoints, which are
    /// measurement-length independent by construction).
    pub measure: u64,
}

impl StoreKey {
    /// The content digest naming this key's artifacts on disk. Includes
    /// the format version: a codec change retires every old file to a miss.
    pub fn digest(&self) -> u64 {
        let mut e = Encoder::new();
        e.u16(crate::FORMAT_VERSION);
        e.str(&self.workload);
        e.u64(self.config);
        e.u64(self.warmup);
        e.u64(self.measure);
        fnv1a(&e.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(workload: &str, warmup: u64, measure: u64) -> StoreKey {
        StoreKey {
            workload: workload.into(),
            config: config_digest(&SystemConfig::isca25()),
            warmup,
            measure,
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = key("mcf", 100, 200);
        assert_eq!(a.digest(), key("mcf", 100, 200).digest());
        assert_ne!(a.digest(), key("mcf", 101, 200).digest());
        assert_ne!(a.digest(), key("mcf", 100, 201).digest());
        assert_ne!(a.digest(), key("omnetpp", 100, 200).digest());
    }

    /// The digest of the shipped configuration names every existing store
    /// file; it must not move when code around it changes.
    #[test]
    fn shipped_config_digest_is_pinned() {
        assert_eq!(
            config_digest(&SystemConfig::isca25()),
            0x438A_6247_3024_75BC
        );
    }

    #[test]
    fn config_changes_change_the_digest() {
        let base = config_digest(&SystemConfig::isca25());
        let two_channels = config_digest(&SystemConfig::isca25().with_dram_channels(2));
        assert_ne!(base, two_channels);
        let mut bigger_llc = SystemConfig::isca25();
        bigger_llc.llc.size_bytes *= 2;
        assert_ne!(base, config_digest(&bigger_llc));
    }
}
