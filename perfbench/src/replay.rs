//! Isolated layer replays. Per grid workload, record once: the trace
//! through the end of the measured window (address dependencies reach back
//! into the warm-up, so the engine must see it too), the baseline
//! demand-access stream with each access's latency, and its `L2Event`
//! stream. Then time each layer alone over them.

use prophet::{analyze, AnalysisConfig, ProfileCounters, Prophet, ProphetConfig, SimplifiedTp};
use prophet_bench::{Harness, SchemeRow};
use prophet_prefetch::{L1Prefetcher, L2Prefetcher, StridePrefetcher};
use prophet_rpg2::{Rpg2Prefetcher, DISTANCE_CANDIDATES};
use prophet_sim_core::{Engine, MemBackend, TraceInst, TraceSource};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_sim_mem::{Addr, Cycle, Hierarchy, Pc};
use prophet_store::{decode_checkpoint, encode_checkpoint, WarmupCheckpoint};
use prophet_temporal::{Triangel, TriangelConfig};
use std::hint::black_box;
use std::time::Instant;

/// The baseline memory system (stride L1, no L2 prefetcher) recording
/// what the engine asks of it and what reaches the L2.
struct Recording {
    mem: Hierarchy,
    l1: StridePrefetcher,
    accesses: Vec<(Pc, Addr, bool, Cycle)>,
    latencies: Vec<Cycle>,
    events: Vec<L2Event>,
}

impl MemBackend for Recording {
    fn access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Cycle {
        let out = self.mem.demand_access(pc, addr.line(), is_store, now);
        self.events.extend(out.l2_event);
        for target in self.l1.on_l1_access(pc, addr, out.l1_hit) {
            self.events
                .extend(self.mem.l1_prefetch(pc, target.line(), now));
        }
        self.accesses.push((pc, addr, is_store, now));
        self.latencies.push(out.latency);
        out.latency
    }
}

/// Replays recorded latencies in order: a memory system whose every answer
/// is fixed in advance, so only the engine does work.
struct FixedLatency<'a> {
    latencies: &'a [Cycle],
    next: usize,
}

impl MemBackend for FixedLatency<'_> {
    fn access(&mut self, _pc: Pc, _addr: Addr, _is_store: bool, _now: Cycle) -> Cycle {
        let lat = self.latencies[self.next];
        self.next += 1;
        lat
    }
}

/// Sums over every replayed workload.
#[derive(Debug, Default)]
pub struct Replays {
    pub engine_insts: u64,
    pub engine_s: f64,
    pub accesses: u64,
    pub hierarchy_s: f64,
    pub events: u64,
    pub triangel_s: f64,
    pub profile_tp_s: f64,
    pub prophet_s: f64,
    pub rpg2_s: f64,
    /// Median microseconds of one `analyze` call, per workload.
    pub analyze_us: Vec<f64>,
}

fn time_l2(mut pf: Box<dyn L2Prefetcher>, events: &[L2Event]) -> f64 {
    let start = Instant::now();
    for ev in events {
        black_box(pf.on_l2_access(black_box(ev)));
    }
    start.elapsed().as_secs_f64()
}

/// Replays every layer over one workload's recorded streams. `profile` is
/// the workload's Prophet profile and `row` its grid row (for RPG2's
/// qualified PCs and tuned distance).
pub fn replay_workload(
    h: &Harness,
    w: &dyn TraceSource,
    profile: &ProfileCounters,
    row: &SchemeRow,
    out: &mut Replays,
    failures: &mut Vec<String>,
) {
    let window: Vec<TraceInst> = w.stream().take((h.warmup + h.measure) as usize).collect();
    let mut rec = Recording {
        mem: Hierarchy::new(&h.sys),
        l1: StridePrefetcher::default(),
        accesses: Vec::new(),
        latencies: Vec::new(),
        events: Vec::new(),
    };
    let mut engine = Engine::new(h.sys.core);
    for inst in &window {
        engine.step(inst, &mut rec);
    }
    let recorded_cycles = engine.stats().cycles;

    let start = Instant::now();
    let mut engine = Engine::new(h.sys.core);
    let mut fixed = FixedLatency {
        latencies: &rec.latencies,
        next: 0,
    };
    for inst in &window {
        engine.step(black_box(inst), &mut fixed);
    }
    out.engine_s += start.elapsed().as_secs_f64();
    out.engine_insts += window.len() as u64;
    if engine.stats().cycles != recorded_cycles {
        failures.push(format!(
            "{}: engine replay diverged from its recording",
            w.name()
        ));
    }

    let start = Instant::now();
    let mut mem = Hierarchy::new(&h.sys);
    for &(pc, addr, is_store, now) in &rec.accesses {
        black_box(mem.demand_access(pc, addr.line(), is_store, now));
    }
    out.hierarchy_s += start.elapsed().as_secs_f64();
    out.accesses += rec.accesses.len() as u64;

    let cfg = AnalysisConfig::default();
    let hints = analyze(profile, &cfg);
    let ev = &rec.events;
    out.events += ev.len() as u64;
    out.triangel_s += time_l2(Box::new(Triangel::new(TriangelConfig::default())), ev);
    out.profile_tp_s += time_l2(Box::new(SimplifiedTp::new()), ev);
    out.prophet_s += time_l2(Box::new(Prophet::new(ProphetConfig::default(), &hints)), ev);
    let distance = row.rpg2.distance.unwrap_or(DISTANCE_CANDIDATES[0]);
    out.rpg2_s += time_l2(
        Box::new(Rpg2Prefetcher::with_uniform_distance(
            &row.rpg2.qualified_pcs,
            distance,
        )),
        ev,
    );

    let calls: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            black_box(analyze(black_box(profile), &cfg));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.analyze_us.push(crate::stats::median(&calls));
}

/// Checkpoint encode + decode throughput over `ckpt` (median of 5).
pub fn codec_mb_per_s(h: &Harness, w: &dyn TraceSource, ckpt: &WarmupCheckpoint) -> f64 {
    let key = h.checkpoint_key(w);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let bytes = encode_checkpoint(&key, black_box(ckpt));
            let decoded =
                decode_checkpoint(&bytes).expect("freshly encoded checkpoint must decode");
            black_box(decoded);
            2.0 * bytes.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&rates)
}
