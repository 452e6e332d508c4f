//! The artifact formats (see DESIGN.md §6 for the layout spec).
//!
//! Every artifact file is `header ‖ payload`:
//!
//! * magic `b"PRPHSTOR"` (8 bytes);
//! * format version (u16, currently [`crate::FORMAT_VERSION`]) — files from
//!   *any* other version decode to [`DecodeError::UnsupportedVersion`];
//! * artifact kind (u8: 1 profile, 2 warm-up checkpoint, 3 hint set);
//! * the full [`StoreKey`] echo (workload string, config digest, warm-up,
//!   measure) — a digest collision is detected here and degrades to a miss;
//! * the kind-specific payload sections.
//!
//! Three artifact kinds exist, mirroring the paper's offline workflow:
//!
//! * [`ProfileArtifact`] — the merged PMU/PEBS counters plus the loop count
//!   `l` of Eq. 4: everything `prophet_cli profile` accumulates across
//!   inputs (Section 4.1/4.3);
//! * a [`HintSet`] — the analyzed per-PC hints + CSR, the thing the paper
//!   attaches to an optimized binary (Section 4.2);
//! * [`WarmupCheckpoint`] — the scheme-independent machine state at the
//!   warm-up boundary ([`WarmStart`]) plus the passively trained temporal
//!   state ([`TemporalSnapshot`]).

use crate::codec::{DecodeError, Decoder, Encoder};
use crate::key::StoreKey;
use prophet::{CsrHint, HintSet, PcHint, PcProfile, ProfileCounters};
use prophet_sim_core::{EngineSnapshot, WarmStart};
use prophet_sim_mem::cache::CacheSnapshot;
use prophet_sim_mem::dram::DramSnapshot;
use prophet_sim_mem::hierarchy::HierarchySnapshot;
use prophet_sim_mem::replacement::ReplSnapshot;
use prophet_sim_mem::{Line, LineState, Pc};
use prophet_temporal::metadata::{MetaSlotSnapshot, MetaTableSnapshot};
use prophet_temporal::training::TrainingSnapshot;
use prophet_temporal::TemporalSnapshot;

/// The 8-byte artifact magic.
pub const MAGIC: [u8; 8] = *b"PRPHSTOR";

/// What an artifact file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Merged profile counters (+ loop count).
    Profile = 1,
    /// Scheme-independent warm-up checkpoint.
    Checkpoint = 2,
    /// Analyzed hint set (the "optimized binary" payload).
    Hints = 3,
}

impl ArtifactKind {
    /// File-name prefix of this kind.
    pub fn prefix(self) -> &'static str {
        match self {
            ArtifactKind::Profile => "profile",
            ArtifactKind::Checkpoint => "warmup",
            ArtifactKind::Hints => "hints",
        }
    }
}

/// The profiling artifact: the paper's few-bytes-not-gigabytes point
/// (Figure 2) made literal — merged Eq. 4/5 counter state plus the
/// completed loop count, ready for further [`learning`](prophet::LearnedProfile).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArtifact {
    /// Merged PMU/PEBS counters (Eq. 4/5 state).
    pub counters: ProfileCounters,
    /// Completed Prophet loops `l` (each profile-and-merge is one).
    pub loops: u32,
}

/// The warm-up checkpoint artifact: machine state at the warm-up boundary
/// plus the passively trained temporal state. Validity rule (DESIGN.md §6):
/// a checkpoint covers only the *scheme-independent* warm-up phase — every
/// scheme-specific effect (LLC partitioning, insertion filtering, prefetch
/// traffic, confidence state) begins at the measurement boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmupCheckpoint {
    /// Pipeline + memory-hierarchy state and the warm-up length.
    pub warm: WarmStart,
    /// Metadata table + training unit, trained passively on the warm-up's
    /// L2 stream under the simplified (profiling) configuration.
    pub temporal: TemporalSnapshot,
}

// ---------------------------------------------------------------------------
// Header

fn encode_header(e: &mut Encoder, kind: ArtifactKind, key: &StoreKey) {
    e.bytes(&MAGIC);
    e.u16(crate::FORMAT_VERSION);
    e.u8(kind as u8);
    e.str(&key.workload);
    e.u64(key.config);
    e.u64(key.warmup);
    e.u64(key.measure);
}

/// Reads and validates a header, returning the embedded key.
pub fn decode_header(d: &mut Decoder<'_>, kind: ArtifactKind) -> Result<StoreKey, DecodeError> {
    if d.bytes(8)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = d.u16()?;
    if version != crate::FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let k = d.u8()?;
    if k != kind as u8 {
        return Err(DecodeError::WrongKind {
            expected: kind as u8,
            found: k,
        });
    }
    Ok(StoreKey {
        workload: d.str()?,
        config: d.u64()?,
        warmup: d.u64()?,
        measure: d.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Leaf encoders/decoders

fn enc_line_state(e: &mut Encoder, s: &Option<LineState>) {
    match s {
        None => e.bool(false),
        Some(l) => {
            e.bool(true);
            e.u64(l.line.0);
            e.bool(l.dirty);
            e.bool(l.prefetched);
            match l.trigger_pc {
                None => e.bool(false),
                Some(pc) => {
                    e.bool(true);
                    e.u64(pc.0);
                }
            }
        }
    }
}

fn dec_line_state(d: &mut Decoder<'_>) -> Result<Option<LineState>, DecodeError> {
    if !d.bool()? {
        return Ok(None);
    }
    let line = Line(d.u64()?);
    let dirty = d.bool()?;
    let prefetched = d.bool()?;
    let trigger_pc = if d.bool()? { Some(Pc(d.u64()?)) } else { None };
    Ok(Some(LineState {
        line,
        dirty,
        prefetched,
        trigger_pc,
    }))
}

fn enc_repl(e: &mut Encoder, r: &ReplSnapshot) {
    match r {
        ReplSnapshot::Lru { stamp, clock } => {
            e.u8(0);
            e.len_prefix(stamp.len());
            stamp.iter().for_each(|&v| e.u64(v));
            e.u64(*clock);
        }
        ReplSnapshot::Plru { bits } => {
            e.u8(1);
            e.len_prefix(bits.len());
            bits.iter().for_each(|&b| e.bool(b));
        }
        ReplSnapshot::Srrip { rrpv } => {
            e.u8(2);
            e.len_prefix(rrpv.len());
            rrpv.iter().for_each(|&v| e.u8(v));
        }
        ReplSnapshot::Hawkeye { rrpv, friendly } => {
            e.u8(3);
            e.len_prefix(rrpv.len());
            rrpv.iter().for_each(|&v| e.u8(v));
            e.len_prefix(friendly.len());
            friendly.iter().for_each(|&b| e.bool(b));
        }
        ReplSnapshot::Random { seed } => {
            e.u8(4);
            e.u64(*seed);
        }
    }
}

fn dec_repl(d: &mut Decoder<'_>) -> Result<ReplSnapshot, DecodeError> {
    match d.u8()? {
        0 => {
            let n = d.len_prefix(8)?;
            let mut stamp = Vec::with_capacity(n);
            for _ in 0..n {
                stamp.push(d.u64()?);
            }
            Ok(ReplSnapshot::Lru {
                stamp,
                clock: d.u64()?,
            })
        }
        1 => {
            let n = d.len_prefix(1)?;
            let mut bits = Vec::with_capacity(n);
            for _ in 0..n {
                bits.push(d.bool()?);
            }
            Ok(ReplSnapshot::Plru { bits })
        }
        2 => {
            let n = d.len_prefix(1)?;
            let mut rrpv = Vec::with_capacity(n);
            for _ in 0..n {
                rrpv.push(d.u8()?);
            }
            Ok(ReplSnapshot::Srrip { rrpv })
        }
        3 => {
            let n = d.len_prefix(1)?;
            let mut rrpv = Vec::with_capacity(n);
            for _ in 0..n {
                rrpv.push(d.u8()?);
            }
            let m = d.len_prefix(1)?;
            let mut friendly = Vec::with_capacity(m);
            for _ in 0..m {
                friendly.push(d.bool()?);
            }
            Ok(ReplSnapshot::Hawkeye { rrpv, friendly })
        }
        4 => Ok(ReplSnapshot::Random { seed: d.u64()? }),
        _ => Err(DecodeError::Corrupt("unknown replacement-policy tag")),
    }
}

fn enc_cache(e: &mut Encoder, c: &CacheSnapshot) {
    e.len_prefix(c.lines.len());
    c.lines.iter().for_each(|l| enc_line_state(e, l));
    e.len_prefix(c.repl.len());
    c.repl.iter().for_each(|r| enc_repl(e, r));
    e.u64(c.way_lo as u64);
}

fn dec_cache(d: &mut Decoder<'_>) -> Result<CacheSnapshot, DecodeError> {
    let n = d.len_prefix(1)?;
    let mut lines = Vec::with_capacity(n);
    for _ in 0..n {
        lines.push(dec_line_state(d)?);
    }
    let m = d.len_prefix(1)?;
    let mut repl = Vec::with_capacity(m);
    for _ in 0..m {
        repl.push(dec_repl(d)?);
    }
    Ok(CacheSnapshot {
        lines,
        repl,
        way_lo: d.u64()? as usize,
    })
}

fn enc_hierarchy(e: &mut Encoder, h: &HierarchySnapshot) {
    enc_cache(e, &h.l1d);
    enc_cache(e, &h.l2);
    enc_cache(e, &h.llc);
    e.len_prefix(h.dram.next_free.len());
    h.dram.next_free.iter().for_each(|&v| e.u64(v));
    e.len_prefix(h.inflight.len());
    for &(line, ready) in &h.inflight {
        e.u64(line.0);
        e.u64(ready);
    }
}

fn dec_hierarchy(d: &mut Decoder<'_>) -> Result<HierarchySnapshot, DecodeError> {
    let l1d = dec_cache(d)?;
    let l2 = dec_cache(d)?;
    let llc = dec_cache(d)?;
    let n = d.len_prefix(8)?;
    let mut next_free = Vec::with_capacity(n);
    for _ in 0..n {
        next_free.push(d.u64()?);
    }
    let m = d.len_prefix(16)?;
    let mut inflight = Vec::with_capacity(m);
    for _ in 0..m {
        inflight.push((Line(d.u64()?), d.u64()?));
    }
    Ok(HierarchySnapshot {
        l1d,
        l2,
        llc,
        dram: DramSnapshot { next_free },
        inflight,
    })
}

fn enc_engine(e: &mut Encoder, s: &EngineSnapshot) {
    e.len_prefix(s.complete.len());
    s.complete.iter().for_each(|&v| e.u64(v));
    e.len_prefix(s.retired.len());
    s.retired.iter().for_each(|&v| e.u64(v));
    e.u64(s.count);
    e.u64(s.fetch_cycle);
    e.u64(s.fetch_slots);
    e.u64(s.retire_cycle);
    e.u64(s.retire_slots);
    e.u64(s.retire_head);
}

fn dec_engine(d: &mut Decoder<'_>) -> Result<EngineSnapshot, DecodeError> {
    let n = d.len_prefix(8)?;
    let mut complete = Vec::with_capacity(n);
    for _ in 0..n {
        complete.push(d.u64()?);
    }
    let m = d.len_prefix(8)?;
    let mut retired = Vec::with_capacity(m);
    for _ in 0..m {
        retired.push(d.u64()?);
    }
    Ok(EngineSnapshot {
        complete,
        retired,
        count: d.u64()?,
        fetch_cycle: d.u64()?,
        fetch_slots: d.u64()?,
        retire_cycle: d.u64()?,
        retire_slots: d.u64()?,
        retire_head: d.u64()?,
    })
}

fn enc_temporal(e: &mut Encoder, t: &TemporalSnapshot) {
    e.u64(t.table.sets);
    e.u64(t.table.max_ways);
    e.u64(t.table.ways);
    e.u64(t.table.clock);
    e.len_prefix(t.table.entries.len());
    for s in &t.table.entries {
        e.u64(s.index);
        e.u16(s.tag);
        e.u32(s.target);
        e.u8(s.priority);
        e.u64(s.pc);
        e.u8(s.rrpv);
        e.u64(s.stamp);
    }
    e.len_prefix(t.trainer.entries.len());
    for &(tag, last, valid) in &t.trainer.entries {
        e.u64(tag);
        e.u64(last);
        e.bool(valid);
    }
}

fn dec_temporal(d: &mut Decoder<'_>) -> Result<TemporalSnapshot, DecodeError> {
    let sets = d.u64()?;
    let max_ways = d.u64()?;
    let ways = d.u64()?;
    let clock = d.u64()?;
    let n = d.len_prefix(32)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(MetaSlotSnapshot {
            index: d.u64()?,
            tag: d.u16()?,
            target: d.u32()?,
            priority: d.u8()?,
            pc: d.u64()?,
            rrpv: d.u8()?,
            stamp: d.u64()?,
        });
    }
    let m = d.len_prefix(17)?;
    let mut trainer = Vec::with_capacity(m);
    for _ in 0..m {
        trainer.push((d.u64()?, d.u64()?, d.bool()?));
    }
    Ok(TemporalSnapshot {
        table: MetaTableSnapshot {
            sets,
            max_ways,
            ways,
            clock,
            entries,
        },
        trainer: TrainingSnapshot { entries: trainer },
    })
}

/// Encodes bare [`ProfileCounters`] (no header) into a canonical byte
/// string.
///
/// The encoding is deterministic — `per_pc` is a `BTreeMap`, so two equal
/// counter sets always serialize identically — which makes the bytes a
/// *canonical form*: the service keys submissions by them to deduplicate
/// repeated uploads and to impose one content-defined merge order on any
/// set of concurrent submitters (DESIGN.md §8).
pub fn encode_counters(c: &ProfileCounters) -> Vec<u8> {
    let mut e = Encoder::new();
    enc_counters(&mut e, c);
    e.finish()
}

/// Decodes bare [`ProfileCounters`] produced by [`encode_counters`],
/// requiring the whole slice to be consumed.
pub fn decode_counters(bytes: &[u8]) -> Result<ProfileCounters, DecodeError> {
    let mut d = Decoder::new(bytes);
    let c = dec_counters(&mut d)?;
    d.expect_end()?;
    Ok(c)
}

fn enc_counters(e: &mut Encoder, c: &ProfileCounters) {
    e.len_prefix(c.per_pc.len());
    for (&pc, p) in &c.per_pc {
        e.u64(pc);
        e.f64(p.accuracy);
        e.f64(p.issued);
        e.f64(p.l2_misses);
    }
    e.f64(c.insertions);
    e.f64(c.replacements);
}

fn dec_counters(d: &mut Decoder<'_>) -> Result<ProfileCounters, DecodeError> {
    let n = d.len_prefix(32)?;
    let mut per_pc = std::collections::BTreeMap::new();
    for _ in 0..n {
        let pc = d.u64()?;
        per_pc.insert(
            pc,
            PcProfile {
                accuracy: d.f64()?,
                issued: d.f64()?,
                l2_misses: d.f64()?,
            },
        );
    }
    Ok(ProfileCounters {
        per_pc,
        insertions: d.f64()?,
        replacements: d.f64()?,
    })
}

fn enc_hints(e: &mut Encoder, h: &HintSet) {
    e.len_prefix(h.pc_hints.len());
    for &(pc, hint) in &h.pc_hints {
        e.u64(pc);
        e.bool(hint.insert);
        e.u8(hint.priority);
    }
    e.bool(h.csr.enabled);
    e.u64(h.csr.meta_ways as u64);
}

fn dec_hints(d: &mut Decoder<'_>) -> Result<HintSet, DecodeError> {
    let n = d.len_prefix(10)?;
    let mut pc_hints = Vec::with_capacity(n);
    for _ in 0..n {
        let pc = d.u64()?;
        pc_hints.push((
            pc,
            PcHint {
                insert: d.bool()?,
                priority: d.u8()?,
            },
        ));
    }
    Ok(HintSet {
        pc_hints,
        csr: CsrHint {
            enabled: d.bool()?,
            meta_ways: d.u64()? as usize,
        },
    })
}

// ---------------------------------------------------------------------------
// Whole artifacts

/// Encodes a profile artifact file.
pub fn encode_profile(key: &StoreKey, artifact: &ProfileArtifact) -> Vec<u8> {
    let mut e = Encoder::new();
    encode_header(&mut e, ArtifactKind::Profile, key);
    e.u32(artifact.loops);
    enc_counters(&mut e, &artifact.counters);
    e.finish()
}

/// Decodes a profile artifact file, returning the embedded key too.
pub fn decode_profile(bytes: &[u8]) -> Result<(StoreKey, ProfileArtifact), DecodeError> {
    let mut d = Decoder::new(bytes);
    let key = decode_header(&mut d, ArtifactKind::Profile)?;
    let loops = d.u32()?;
    let counters = dec_counters(&mut d)?;
    d.expect_end()?;
    Ok((key, ProfileArtifact { counters, loops }))
}

/// Encodes a hint-set artifact file.
pub fn encode_hints(key: &StoreKey, hints: &HintSet) -> Vec<u8> {
    let mut e = Encoder::new();
    encode_header(&mut e, ArtifactKind::Hints, key);
    enc_hints(&mut e, hints);
    e.finish()
}

/// Decodes a hint-set artifact file, returning the embedded key too.
pub fn decode_hints(bytes: &[u8]) -> Result<(StoreKey, HintSet), DecodeError> {
    let mut d = Decoder::new(bytes);
    let key = decode_header(&mut d, ArtifactKind::Hints)?;
    let hints = dec_hints(&mut d)?;
    d.expect_end()?;
    Ok((key, hints))
}

/// Encodes a warm-up checkpoint artifact file.
pub fn encode_checkpoint(key: &StoreKey, ckpt: &WarmupCheckpoint) -> Vec<u8> {
    let mut e = Encoder::new();
    encode_header(&mut e, ArtifactKind::Checkpoint, key);
    e.u64(ckpt.warm.warmup);
    enc_engine(&mut e, &ckpt.warm.engine);
    enc_hierarchy(&mut e, &ckpt.warm.memory);
    enc_temporal(&mut e, &ckpt.temporal);
    e.finish()
}

/// Decodes a warm-up checkpoint artifact file, returning the embedded key.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(StoreKey, WarmupCheckpoint), DecodeError> {
    let mut d = Decoder::new(bytes);
    let key = decode_header(&mut d, ArtifactKind::Checkpoint)?;
    let warmup = d.u64()?;
    let engine = dec_engine(&mut d)?;
    let memory = dec_hierarchy(&mut d)?;
    let temporal = dec_temporal(&mut d)?;
    d.expect_end()?;
    Ok((
        key,
        WarmupCheckpoint {
            warm: WarmStart {
                engine,
                memory,
                warmup,
            },
            temporal,
        },
    ))
}
