//! Profiles of the paper's evaluation datasets.
//!
//! Real Cora/Citeseer/Pubmed/Reddit files are not available offline, so
//! each profile records the *published* statistics (|V|, |E|, feature
//! width, class count) and can (a) synthesize an executable graph matched
//! to those statistics — full-size for the citation graphs, scaled for
//! Reddit — and (b) hand the *full-scale* degree distribution to the
//! analytical simulator so IO/memory figures are computed at paper scale:
//! the model's costs depend on a graph only through those statistics.

use crate::generators;
use crate::{Graph, GraphStats};

/// Which generator family matches a dataset's degree profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Mild skew (citation networks).
    Citation,
    /// Heavy power-law skew (social networks; Reddit).
    Social,
}

/// A named dataset profile with published statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper's figures.
    pub name: &'static str,
    /// Published vertex count.
    pub num_vertices: usize,
    /// Published (directed) edge count.
    pub num_edges: usize,
    /// Input feature width.
    pub feature_dim: usize,
    /// Number of label classes.
    pub num_classes: usize,
    /// Degree-profile family.
    pub topology: Topology,
    /// Scale factor applied when materializing an executable graph
    /// (1 = full size). Reddit uses 1/16 to fit the CPU budget.
    pub exec_scale: f64,
}

/// Cora citation network (2 708 vertices, 10 556 edges).
pub fn cora() -> DatasetSpec {
    DatasetSpec {
        name: "Cora",
        num_vertices: 2708,
        num_edges: 10556,
        feature_dim: 1433,
        num_classes: 7,
        topology: Topology::Citation,
        exec_scale: 1.0,
    }
}

/// Citeseer citation network (3 327 vertices, 9 104 edges).
pub fn citeseer() -> DatasetSpec {
    DatasetSpec {
        name: "Citeseer",
        num_vertices: 3327,
        num_edges: 9104,
        feature_dim: 3703,
        num_classes: 6,
        topology: Topology::Citation,
        exec_scale: 1.0,
    }
}

/// Pubmed citation network (19 717 vertices, 88 648 edges).
pub fn pubmed() -> DatasetSpec {
    DatasetSpec {
        name: "Pubmed",
        num_vertices: 19717,
        num_edges: 88648,
        feature_dim: 500,
        num_classes: 3,
        topology: Topology::Citation,
        exec_scale: 1.0,
    }
}

/// Reddit social network (232 965 vertices, ≈114.6 M edges). Executable
/// graphs are scaled to 1/16 of the vertices at the same average degree;
/// the analytical simulator always sees the full-scale statistics.
pub fn reddit() -> DatasetSpec {
    DatasetSpec {
        name: "Reddit",
        num_vertices: 232_965,
        num_edges: 114_615_892,
        feature_dim: 602,
        num_classes: 41,
        topology: Topology::Social,
        exec_scale: 1.0 / 16.0,
    }
}

/// All four node-classification datasets in the paper's Figure 7 order.
pub fn figure7_datasets() -> Vec<DatasetSpec> {
    vec![cora(), pubmed(), citeseer(), reddit()]
}

impl DatasetSpec {
    /// Average degree implied by the published statistics.
    pub fn avg_degree(&self) -> f64 {
        self.num_edges as f64 / self.num_vertices as f64
    }

    /// Degree skew exponent for the analytical distribution.
    fn skew(&self) -> f64 {
        match self.topology {
            Topology::Citation => 0.55,
            Topology::Social => 0.9,
        }
    }

    /// Full-scale degree statistics for the analytical simulator.
    pub fn full_scale_stats(&self) -> GraphStats {
        GraphStats::synthesize_power_law(self.num_vertices, self.avg_degree(), self.skew())
    }

    /// Vertex count of the executable (possibly scaled) graph.
    pub fn exec_vertices(&self) -> usize {
        ((self.num_vertices as f64 * self.exec_scale).round() as usize).max(16)
    }

    /// Materializes an executable synthetic graph matched to the profile:
    /// `exec_vertices()` vertices at the published average degree, with the
    /// topology family's skew.
    pub fn build_graph(&self, seed: u64) -> Graph {
        let n = self.exec_vertices();
        let target_edges = (n as f64 * self.avg_degree()).round() as usize;
        let el = match self.topology {
            Topology::Citation => generators::erdos_renyi(n, target_edges, seed),
            Topology::Social => {
                // RMAT needs a power-of-two scale; round up, then trim to
                // the n highest-degree vertices with a *bijective* relabel.
                // (Folding surplus ids with `% n` manufactured self-loops
                // and over-weighted low ids whenever n wasn't a power of
                // two.) Trimming discards edges, so oversample the edge
                // factor and prefix-trim back to the target count.
                let scale = (n as f64).log2().ceil() as u32;
                let pow = 1usize << scale;
                let ef = (1.3 * target_edges as f64 / pow as f64).ceil() as usize;
                let el = generators::rmat(scale, ef.max(1), 0.57, 0.19, 0.19, seed);
                // Rank the 2^scale vertices by total degree (dense first,
                // id as tie-break) and keep the densest n.
                let mut deg = vec![0u32; pow];
                for &(s, d) in el.edges() {
                    deg[s as usize] += 1;
                    deg[d as usize] += 1;
                }
                let mut rank: Vec<u32> = (0..pow as u32).collect();
                rank.sort_unstable_by_key(|&v| (std::cmp::Reverse(deg[v as usize]), v));
                // new_id[v] = position of v in the density ranking; only
                // positions < n survive. The map is injective on the kept
                // set, so no two distinct edges can collide post-relabel.
                let mut new_id = vec![u32::MAX; pow];
                for (pos, &v) in rank.iter().enumerate().take(n) {
                    new_id[v as usize] = pos as u32;
                }
                let mut pairs: Vec<(u32, u32)> = el
                    .edges()
                    .iter()
                    .filter_map(|&(s, d)| {
                        let (s, d) = (new_id[s as usize], new_id[d as usize]);
                        (s != u32::MAX && d != u32::MAX).then_some((s, d))
                    })
                    .collect();
                // Deterministic prefix trim back down to the target count.
                pairs.truncate(target_edges);
                crate::EdgeList::from_pairs(n, &pairs)
            }
        };
        Graph::from_edge_list(&el)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_statistics() {
        assert_eq!(cora().num_vertices, 2708);
        assert_eq!(citeseer().feature_dim, 3703);
        assert_eq!(pubmed().num_classes, 3);
        assert!(reddit().avg_degree() > 400.0);
    }

    #[test]
    fn full_scale_stats_match_published_counts() {
        let s = pubmed().full_scale_stats();
        assert_eq!(s.num_vertices(), 19717);
        assert_eq!(s.num_edges(), 88648);
    }

    #[test]
    fn exec_graph_close_to_target_density() {
        let d = cora();
        let g = d.build_graph(3);
        assert_eq!(g.num_vertices(), 2708);
        let got = g.num_edges() as f64;
        let want = 10556.0;
        assert!(
            (got - want).abs() / want < 0.05,
            "edge count {got} too far from {want}"
        );
    }

    #[test]
    fn reddit_exec_graph_is_scaled_but_dense() {
        let d = reddit();
        let g = d.build_graph(4);
        assert!(g.num_vertices() < 20_000);
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg > 100.0, "scaled Reddit should stay dense, got {avg}");
    }

    #[test]
    fn social_exec_graph_has_no_self_loops_and_matches_avg_degree() {
        // Reddit's exec vertex count is NOT a power of two, so this
        // exercises the densest-prefix trim (the old `% n` fold both
        // manufactured self-loops and aliased distinct edges here).
        let d = reddit();
        let g = d.build_graph(11);
        assert_eq!(g.num_vertices() % 2, 0); // sanity: 14560, not 16384
        assert_ne!(
            g.num_vertices().count_ones(),
            1,
            "n must not be a power of two"
        );
        for e in 0..g.num_edges() {
            assert_ne!(g.src(e), g.dst(e), "self-loop at edge {e}");
        }
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        let want = d.avg_degree();
        assert!(
            (avg - want).abs() / want < 0.10,
            "average degree {avg:.1} too far from profile's {want:.1}"
        );
    }

    #[test]
    fn social_stats_skewed() {
        let s = reddit().full_scale_stats().degree_summary();
        assert!(s.cv > 0.5, "Reddit profile must be skewed, cv = {}", s.cv);
    }
}
