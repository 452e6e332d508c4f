//! Profiling-overhead models (Section 5.4).
//!
//! On real hardware Prophet samples two-to-three PEBS events plus one
//! standard PMU counter; the paper cites [Bitzes & Nowak, CERN openlab] for
//! "<2% overhead when sampling 4 PEBS events". In simulation the counters
//! are free, so these models *account* for what the real system would pay —
//! the `overheads` harness binary prints them next to the paper's claims.

/// Overhead model for PEBS/PMU-based profiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingOverheadModel {
    /// PEBS events sampled concurrently (Prophet: 2–3, Section 5.4.1).
    pub pebs_events: u32,
    /// Standard PMU counters sampled (Prophet: 1).
    pub pmu_events: u32,
    /// Fraction of executions that are profiled at all (Prophet samples at
    /// intervals; "profiling once every 10–100 executions suffices").
    pub profiled_execution_fraction: f64,
}

impl ProfilingOverheadModel {
    /// Prophet's configuration: 2 PEBS events (hint-buffer mode adds a
    /// third), 1 PMU counter, profiling 1 in 10 executions.
    pub fn prophet() -> Self {
        ProfilingOverheadModel {
            pebs_events: 3,
            pmu_events: 1,
            profiled_execution_fraction: 0.1,
        }
    }

    /// Runtime overhead of a *profiled* execution, as a fraction.
    /// Linear in the PEBS event count, calibrated to 2% at 4 events
    /// (the CERN measurement); standard PMU counters are negligible.
    pub fn profiled_run_overhead(&self) -> f64 {
        f64::from(self.pebs_events) * 0.005
    }

    /// Overhead amortized across all executions.
    pub fn amortized_overhead(&self) -> f64 {
        self.profiled_run_overhead() * self.profiled_execution_fraction
    }
}

/// Measures the wall-clock cost of an analysis closure (Section 5.4.2:
/// "less than one second" across all evaluated workloads).
pub fn measure_analysis_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Instruction overhead of an optimized binary (Section 5.4.3): hint
/// instructions execute once at program entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionOverhead {
    /// Hint instructions injected (at most
    /// [`HINT_BUFFER_ENTRIES`](crate::hints::HINT_BUFFER_ENTRIES)) plus the
    /// CSR write.
    pub injected_instructions: u64,
    /// Dynamic instructions of the workload.
    pub workload_instructions: u64,
}

impl InstructionOverhead {
    /// Relative dynamic-instruction overhead.
    pub fn dynamic_fraction(&self) -> f64 {
        if self.workload_instructions == 0 {
            0.0
        } else {
            self.injected_instructions as f64 / self.workload_instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_overhead_under_two_percent() {
        let m = ProfilingOverheadModel::prophet();
        assert!(
            m.profiled_run_overhead() < 0.02,
            "Prophet samples ≤3 PEBS events → <2% (Section 5.4.1)"
        );
    }

    #[test]
    fn four_events_equal_two_percent() {
        let m = ProfilingOverheadModel {
            pebs_events: 4,
            pmu_events: 0,
            profiled_execution_fraction: 1.0,
        };
        assert!((m.profiled_run_overhead() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn amortized_overhead_is_tiny() {
        let m = ProfilingOverheadModel::prophet();
        assert!(m.amortized_overhead() < 0.002);
    }

    #[test]
    fn analysis_timer_runs_closure() {
        let (v, secs) = measure_analysis_seconds(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn instruction_overhead_fraction() {
        let o = InstructionOverhead {
            injected_instructions: 129,
            workload_instructions: 1_000_000_000,
        };
        assert!(
            o.dynamic_fraction() < 1e-6,
            "negligible vs billions of insts"
        );
    }
}
