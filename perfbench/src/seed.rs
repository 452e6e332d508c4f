//! Workload seeding. Seed 0 keeps every registry seed, so the grids
//! reproduce the committed figure numbers; any other seed perturbs the
//! generator seeds (`MixSpec.seed`, `CronoSpec.seed`, the fleet profile
//! generator) so a claim can be re-checked on held-out inputs.

use prophet_sim_core::TraceSource;
use prophet_workloads::{crono_workload, spec_workload, CRONO_WORKLOADS, SPEC_WORKLOADS};

/// SplitMix64 finalizer: spreads consecutive benchmark seeds over the
/// whole 64-bit generator-seed space.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator seed a workload uses under benchmark seed `seed`.
pub fn perturb(registry_seed: u64, seed: u64) -> u64 {
    if seed == 0 {
        registry_seed
    } else {
        registry_seed ^ mix64(seed)
    }
}

pub type Source = Box<dyn TraceSource + Send + Sync>;

/// The Figure 10 SPEC-like mixes, sized to `min_insts` like
/// `prophet_workloads::workload_sized`.
pub fn spec_sources(seed: u64, min_insts: u64) -> Vec<Source> {
    SPEC_WORKLOADS
        .iter()
        .map(|name| {
            let mut w = spec_workload(name);
            w.seed = perturb(w.seed, seed);
            w.total_insts = w.total_insts.max(min_insts);
            Box::new(w) as Source
        })
        .collect()
}

/// The Figure 15 CRONO kernels, sized to `min_insts`. Sizing builds each
/// CSR graph, so this is the expensive half of the crono set-up.
pub fn crono_sources(seed: u64, min_insts: u64) -> Vec<Source> {
    CRONO_WORKLOADS
        .iter()
        .map(|name| {
            let mut spec = crono_workload(name);
            spec.seed = perturb(spec.seed, seed);
            Box::new(spec.with_min_insts(min_insts)) as Source
        })
        .collect()
}
