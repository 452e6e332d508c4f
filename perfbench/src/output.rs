//! The metric catalogue and the result line. `BENCHMARK.json` lists the
//! same names, units and directions (a test keeps the two in step).

use std::collections::BTreeMap;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed by untraced runs (`--trace 0`), on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("prophet_speedup", "x", "higher"),
    m("prophet_over_triangel", "x", "higher"),
    m("prophet_traffic_ratio", "x", "lower"),
];

/// Printed by traced runs (`--trace 1`), on every workload. Layers named
/// after the crates; a layer a workload never reaches reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.build_s", "s", "lower"),
    m("workloads.next_inst_s", "s", "lower"),
    m("workloads.insts_generated", "count", "lower"),
    m("sim.step_self_s", "s", "lower"),
    m("sim-core.insts_simulated", "count", "lower"),
    m("sim-core.minsts_simulated_per_s", "Minst/s", "higher"),
    m("sim-core.minsts_credited_per_s", "Minst/s", "higher"),
    m("sim-core.engine_only_minsts_per_s", "Minst/s", "higher"),
    m("sim-mem.replay_maccesses_per_s", "Macc/s", "higher"),
    m("sim-mem.llc_hit_rate", "ratio", "higher"),
    m("sim-mem.dram_reads", "count", "lower"),
    m("prefetch.l1_self_s", "s", "lower"),
    m("prefetch.l1_requests", "count", "lower"),
    m("temporal.triangel_self_s", "s", "lower"),
    m("temporal.l2_events", "count", "lower"),
    m("temporal.meta_hit_rate", "ratio", "higher"),
    m("temporal.prefetch_accuracy", "ratio", "higher"),
    m("temporal.replay_ns_per_event", "ns", "lower"),
    m("core.prophet_self_s", "s", "lower"),
    m("core.profile_pass_s", "s", "lower"),
    m("core.optimized_pass_s", "s", "lower"),
    m("core.analyze_s", "s", "lower"),
    m("core.meta_hit_rate", "ratio", "higher"),
    m("core.prefetch_accuracy", "ratio", "higher"),
    m("core.replay_ns_per_event", "ns", "lower"),
    m("core.profile_replay_ns_per_event", "ns", "lower"),
    m("core.analyze_replay_us", "us", "lower"),
    m("rpg2.pipeline_s", "s", "lower"),
    m("rpg2.candidates_simulated", "count", "lower"),
    m("rpg2.replay_ns_per_event", "ns", "lower"),
    m("bench.checkpoint_build_s", "s", "lower"),
    m("bench.materialize_s", "s", "lower"),
    m("bench.cell_self_s", "s", "lower"),
    m("bench.peak_rss_mb", "MB", "lower"),
    m("store.ckpt_encode_s", "s", "lower"),
    m("store.ckpt_decode_s", "s", "lower"),
    m("store.ckpt_bytes", "bytes", "lower"),
    m("store.save_s", "s", "lower"),
    m("store.other_s", "s", "lower"),
    m("store.codec_replay_mb_per_s", "MB/s", "higher"),
    m("service.submit_inproc_us", "us", "lower"),
    m("service.fetch_inproc_us", "us", "lower"),
    m("service.merge_s", "s", "lower"),
    m("service.proto_roundtrip_us", "us", "lower"),
    m("service.submit_per_s", "1/s", "higher"),
    m("service.submit_p50_us", "us", "lower"),
    m("service.submit_p99_us", "us", "lower"),
    m("service.submit_samples", "count", "higher"),
    m("service.fetch_per_s", "1/s", "higher"),
    m("service.fetch_p50_us", "us", "lower"),
    m("service.fetch_p99_us", "us", "lower"),
    m("service.fetch_samples", "count", "higher"),
    m("trace.untraced_wall_s", "s", "lower"),
    m("trace.traced_wall_s", "s", "lower"),
    m("trace.overhead_s", "s", "lower"),
    m("trace.attributed_s", "s", "lower"),
    m("trace.unattributed_s", "s", "lower"),
    m("trace.workers", "count", "higher"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (grid cells, service requests).
    pub attempted: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fills every catalogue metric not measured by this workload with 0
    /// and fails the run on any value that is not a finite number.
    pub fn finish(&mut self, defs: &[MetricDef]) {
        for d in defs {
            let v = *self.values.entry(d.name).or_insert(0.0);
            self.check(v.is_finite(), || {
                format!("metric {} is not finite: {v}", d.name)
            });
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// Human-readable table (name, value, unit, direction) for stderr.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let v = self.values.get(d.name).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "{:<36} {:>16.6} {:<8} better: {}\n",
                d.name, v, d.unit, d.better
            ));
        }
        out
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
