//! Synthetic graphs for the CRONO workloads (Figure 15).
//!
//! CRONO's inputs are meshes and road-network-like graphs whose adjacency
//! lists have strong *locality*: a vertex's neighbours are mostly nearby
//! vertex IDs. That locality is what makes the suite friendlier to
//! stride-flavoured prefetching (the paper: "CRONO features more prefetch
//! kernels with stride patterns, aligning with RPG2's strengths"), so the
//! generator reproduces it: neighbours are drawn from a window around the
//! vertex plus a sprinkle of long-range edges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A CSR-format directed graph.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` indexes `edges` for vertex `u`.
    pub offsets: Vec<u32>,
    /// Flattened, per-vertex-sorted adjacency lists.
    pub edges: Vec<u32>,
}

impl Graph {
    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbours of `u`.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.edges[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Generates a locality-clustered graph: each vertex gets `degree`
    /// neighbours — ~60% within a small `window` of its own ID and ~40%
    /// *blocked long-range* (a per-vertex far region, itself a tight run of
    /// IDs), adjacency lists sorted. The far regions are what miss the
    /// caches; because they are fixed per vertex, repeated traversals
    /// produce a repeating miss stream (the temporal pattern), and because
    /// they are runs, distance-based software prefetching lands nearby
    /// (RPG2's strength on CRONO).
    ///
    /// # Panics
    /// Panics if `vertices < 2` or `degree == 0`.
    pub fn clustered(vertices: usize, degree: usize, seed: u64) -> Graph {
        assert!(vertices >= 2, "graph needs at least two vertices");
        assert!(degree >= 1, "graph needs positive degree");
        let mut rng = StdRng::seed_from_u64(seed);
        let window = (vertices / 512).max(8) as i64;
        let mut offsets = Vec::with_capacity(vertices + 1);
        let mut edges = Vec::with_capacity(vertices * degree);
        offsets.push(0u32);
        for u in 0..vertices {
            // A stable far region for this vertex (splitmix of u).
            let mut h = (u as u64).wrapping_add(seed);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let far_center = (h ^ (h >> 31)) % (vertices as u64);
            let mut adj = Vec::with_capacity(degree);
            for _ in 0..degree {
                let v = if rng.gen_bool(0.6) {
                    let d = rng.gen_range(-window..=window);
                    (u as i64 + d).rem_euclid(vertices as i64) as u32
                } else {
                    let off = rng.gen_range(0..64u64);
                    ((far_center + off) % vertices as u64) as u32
                };
                adj.push(v);
            }
            adj.sort_unstable();
            edges.extend_from_slice(&adj);
            offsets.push(edges.len() as u32);
        }
        Graph { offsets, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_consistent() {
        let g = Graph::clustered(1_000, 8, 1);
        assert_eq!(g.vertices(), 1_000);
        for u in 0..g.vertices() {
            assert_eq!(g.neighbors(u).len(), 8);
        }
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let g = Graph::clustered(500, 6, 2);
        for u in 0..g.vertices() {
            let n = g.neighbors(u);
            assert!(n.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn neighbors_are_mostly_local() {
        let g = Graph::clustered(10_000, 8, 3);
        let n = g.vertices() as i64;
        let window = (n / 512).max(8);
        let mut local = 0usize;
        let mut total = 0usize;
        for u in 0..g.vertices() {
            for &v in g.neighbors(u) {
                let d = (v as i64 - u as i64).abs();
                let wrapped = d.min(n - d);
                if wrapped <= window {
                    local += 1;
                }
                total += 1;
            }
        }
        let frac = local as f64 / total as f64;
        assert!(
            frac > 0.45 && frac < 0.75,
            "clustered graph should be ~60% local: {frac}"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let a = Graph::clustered(300, 4, 9);
        let b = Graph::clustered(300, 4, 9);
        assert_eq!(a.edges, b.edges);
        let c = Graph::clustered(300, 4, 10);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn tiny_graph_rejected() {
        let _ = Graph::clustered(1, 4, 0);
    }
}
