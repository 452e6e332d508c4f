//! The simulated RPG2 software prefetcher.
//!
//! Following the paper's evaluation methodology (Section 5.1): "we record
//! the PC of identified memory instructions along with an initial prefetch
//! distance in the hint buffer. Upon encountering recorded PCs, we issue a
//! prefetch request where the target address equals the accessed memory
//! address + distance." The distance is then tuned by RPG2's binary-search
//! procedure (`crate::distance`).

use prophet_prefetch::traits::{L2Decision, L2Prefetcher};
use prophet_sim_mem::hierarchy::L2Event;
use std::collections::HashMap;

/// The software-prefetch table: qualified PC → prefetch distance in lines.
#[derive(Debug, Clone, Default)]
pub struct Rpg2Prefetcher {
    distances: HashMap<u64, i64>,
    issued: u64,
}

impl Rpg2Prefetcher {
    /// Builds the prefetcher from qualified PCs, all at one distance.
    pub fn with_uniform_distance(pcs: &[u64], distance_lines: i64) -> Self {
        Rpg2Prefetcher {
            distances: pcs.iter().map(|&pc| (pc, distance_lines)).collect(),
            issued: 0,
        }
    }

    /// Software prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl L2Prefetcher for Rpg2Prefetcher {
    fn name(&self) -> &'static str {
        "rpg2"
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        if ev.from_l1_prefetch {
            return L2Decision::none();
        }
        match self.distances.get(&ev.pc.0) {
            Some(&d) => {
                self.issued += 1;
                L2Decision::prefetch(ev.line.offset(d), ev.pc)
            }
            None => L2Decision::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_prefetch::traits::{MetaTableStats, PrefetchRequest};
    use prophet_sim_mem::{Line, Pc};

    fn event(pc: u64, line: u64) -> L2Event {
        L2Event {
            pc: Pc(pc),
            line: Line(line),
            l2_hit: false,
            from_l1_prefetch: false,
            now: 0,
        }
    }

    #[test]
    fn instrumented_pc_prefetches_at_distance() {
        let mut p = Rpg2Prefetcher::with_uniform_distance(&[7], 16);
        let d = p.on_l2_access(&event(7, 100));
        assert_eq!(
            d.prefetches,
            vec![PrefetchRequest {
                line: Line(116),
                trigger_pc: Pc(7)
            }]
        );
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn other_pcs_are_ignored() {
        let mut p = Rpg2Prefetcher::with_uniform_distance(&[7], 16);
        assert!(p.on_l2_access(&event(8, 100)).prefetches.is_empty());
    }

    #[test]
    fn l1_prefetch_events_do_not_trigger_software_prefetch() {
        let mut p = Rpg2Prefetcher::with_uniform_distance(&[7], 16);
        let mut ev = event(7, 100);
        ev.from_l1_prefetch = true;
        assert!(p.on_l2_access(&ev).prefetches.is_empty());
    }

    #[test]
    fn zero_table_means_no_prefetches() {
        let mut p = Rpg2Prefetcher::default();
        assert!(p.on_l2_access(&event(1, 1)).prefetches.is_empty());
        assert_eq!(p.meta_stats(), MetaTableStats::default());
    }
}
