//! Section 5.4: profiling, analysis and instruction overheads. The
//! `analysis[<mix>]` lines print measured wall time, so they go to stderr.

use prophet::{
    measure_analysis_seconds, AnalysisConfig, InjectionMethod, InstructionOverhead, LearnedProfile,
    ProfileCounters, ProfilingOverheadModel,
};
use prophet_bench::Harness;
use prophet_workloads::{workload, SPEC_WORKLOADS};

fn main() {
    prophet_bench::RunArgs::parse_or_exit("overheads", &[]);
    println!("Section 5.4: Prophet overheads\n");

    // 5.4.1 Profiling overhead: PEBS/PMU event model.
    let m = ProfilingOverheadModel::prophet();
    println!(
        "profiling: {} PEBS events + {} PMU counter -> {:.2}% per profiled run ({:.3}% amortized at 1-in-{:.0} executions)",
        m.pebs_events,
        m.pmu_events,
        100.0 * m.profiled_run_overhead(),
        100.0 * m.amortized_overhead(),
        1.0 / m.profiled_execution_fraction
    );
    println!(
        "  paper: sampling 4 PEBS events costs <2%; Prophet needs 2-3 -> <2% per profiled run\n"
    );

    // 5.4.2 Analysis overhead: wall-clock of the real Analysis step.
    let h = Harness::default();
    for name in SPEC_WORKLOADS {
        println!("[{name}]");
        let mut learned = LearnedProfile::new();
        learned.learn(ProfileCounters::from_report(
            &h.profile(workload(name).as_ref()),
        ));
        let (hints, secs) =
            measure_analysis_seconds(|| learned.build_hints(&AnalysisConfig::default()));
        // Wall time varies run to run, so it goes to stderr: stdout stays
        // byte-stable.
        eprintln!(
            "analysis[{name}]: {:.6} s for {} PC hints + CSR (paper: <1 s)",
            secs,
            hints.pc_hints.len()
        );
        // 5.4.3 Instruction overhead.
        let ov = InstructionOverhead {
            injected_instructions: hints.instruction_overhead() as u64,
            workload_instructions: 1_000_000_000, // SPEC-scale dynamic count
        };
        println!(
            "  instruction overhead: {} hint instructions -> {:.7}% of a billion-instruction run",
            hints.instruction_overhead(),
            100.0 * ov.dynamic_fraction()
        );
        // Section 4.4: the two injection mechanisms compared.
        for method in [
            InjectionMethod::HintBuffer,
            InjectionMethod::ReservedBits,
            InjectionMethod::X86Prefix,
        ] {
            let c = method.cost(&hints);
            println!(
                "  {method:?}: {} dyn insts, {:.1} B buffer, {:.1} B I-cache, portable={}",
                c.dynamic_instructions, c.buffer_bytes, c.icache_bytes, c.isa_portable
            );
        }
    }
}
