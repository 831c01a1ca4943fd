//! GNNAdvisor-style neighbor grouping.
//!
//! A vertex-balanced fused kernel (§5 of the paper) binds one thread
//! group per destination vertex, so a 50 000-degree Reddit hub keeps one
//! group busy while thousands idle. Neighbor grouping splits each
//! vertex's incoming edge set into groups of at most `group_size` edges
//! and binds thread groups to *groups*: the per-worker upper bound drops
//! from `max_degree` to `group_size`, at the price of one extra partial
//! reduction merge per additional group.
//!
//! Figure-side analysis only: the grouping is a degree-statistics model
//! the `reorder_ablation` figure feeds to the simulator's imbalance
//! term. The CPU executor does not use it: its workers own runs of
//! destination tiles.

use gnnopt_graph::GraphStats;

/// The neighbor-grouping decision for one graph: how many bounded-size
/// work items each vertex's in-edge set splits into.
///
/// ```
/// use gnnopt_bench::NeighborGrouping;
/// use gnnopt_graph::GraphStats;
///
/// let skewed = GraphStats::synthesize_power_law(4096, 16.0, 1.4);
/// let grouping = NeighborGrouping::build(&skewed, 32);
/// let flattened = grouping.grouped_stats().vertex_balanced_imbalance(256);
/// assert!(flattened < skewed.vertex_balanced_imbalance(256));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborGrouping {
    group_size: usize,
    in_degrees: Vec<u32>,
    num_edges: usize,
}

impl NeighborGrouping {
    /// Splits every vertex's in-edge set into groups of at most
    /// `group_size` edges.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn build(stats: &GraphStats, group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        Self {
            group_size,
            in_degrees: stats.in_degrees().to_vec(),
            num_edges: stats.num_edges(),
        }
    }

    /// The configured maximum edges per group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Total number of groups (work items of the grouped kernel).
    pub fn num_groups(&self) -> usize {
        self.in_degrees
            .iter()
            .map(|&d| (d as usize).div_ceil(self.group_size))
            .sum()
    }

    /// Number of groups assigned to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn groups_of(&self, v: usize) -> usize {
        (self.in_degrees[v] as usize).div_ceil(self.group_size)
    }

    /// Cross-group merges: each vertex with `g > 1` groups needs `g − 1`
    /// partial-result combinations (atomic adds or a second-stage kernel).
    pub fn merge_ops(&self) -> usize {
        self.in_degrees
            .iter()
            .map(|&d| (d as usize).div_ceil(self.group_size).saturating_sub(1))
            .sum()
    }

    /// Degree statistics of the *grouped* work items: one entry per group,
    /// each holding at most `group_size` edges. Feeding this to the
    /// simulator's imbalance model yields the balanced-workload effect
    /// (zero-degree vertices contribute no groups).
    pub fn grouped_stats(&self) -> GraphStats {
        let mut degrees = Vec::with_capacity(self.num_groups());
        for &d in &self.in_degrees {
            let mut left = d as usize;
            while left > 0 {
                let take = left.min(self.group_size);
                degrees.push(take as u32);
                left -= take;
            }
        }
        GraphStats::from_in_degrees(degrees)
    }

    /// Preprocessing cost in bytes touched: one pass over the edge index
    /// (read) plus the group table (write) — what GNNAdvisor amortizes
    /// over training epochs.
    pub fn preprocessing_bytes(&self) -> u64 {
        (self.num_edges as u64) * 4 + (self.num_groups() as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed() -> GraphStats {
        GraphStats::from_in_degrees(vec![100, 1, 1, 1, 1, 0, 0, 16])
    }

    #[test]
    fn group_counts() {
        let g = NeighborGrouping::build(&skewed(), 16);
        // 100/16 → 7 groups, four degree-1 vertices → 1 each, 16 → 1.
        assert_eq!(g.num_groups(), 7 + 4 + 1);
        assert_eq!(g.merge_ops(), 6);
        assert_eq!(g.group_size(), 16);
        assert_eq!(g.groups_of(0), 7);
        assert_eq!(g.groups_of(5), 0);
    }

    #[test]
    fn grouped_stats_preserve_edges_and_bound_degree() {
        let s = skewed();
        let g = NeighborGrouping::build(&s, 16);
        let gs = g.grouped_stats();
        assert_eq!(gs.num_edges(), s.num_edges());
        assert!(gs.in_degrees().iter().all(|&d| d <= 16 && d > 0));
        assert_eq!(gs.num_vertices(), g.num_groups());
    }

    #[test]
    fn grouping_flattens_imbalance() {
        let s = GraphStats::synthesize_power_law(4096, 16.0, 1.4);
        let before = s.vertex_balanced_imbalance(256);
        let after = NeighborGrouping::build(&s, 32)
            .grouped_stats()
            .vertex_balanced_imbalance(256);
        assert!(
            after < before,
            "grouping must reduce imbalance: {before} -> {after}"
        );
    }

    #[test]
    fn tighter_groups_never_hurt_balance() {
        let s = GraphStats::synthesize_power_law(1024, 32.0, 1.2);
        let imb = |gs: usize| {
            NeighborGrouping::build(&s, gs)
                .grouped_stats()
                .vertex_balanced_imbalance(128)
        };
        assert!(imb(8) <= imb(64) + 1e-9);
        assert!(imb(64) <= imb(4096) + 1e-9);
    }

    #[test]
    fn group_size_one_is_edge_balanced() {
        let s = skewed();
        let gs = NeighborGrouping::build(&s, 1).grouped_stats();
        assert_eq!(gs.num_vertices(), s.num_edges());
        assert!(gs.in_degrees().iter().all(|&d| d == 1));
    }

    #[test]
    fn preprocessing_cost_scales_with_edges() {
        let small = NeighborGrouping::build(&GraphStats::from_in_degrees(vec![4; 8]), 4);
        let large = NeighborGrouping::build(&GraphStats::from_in_degrees(vec![4; 800]), 4);
        assert!(large.preprocessing_bytes() > small.preprocessing_bytes());
    }

    #[test]
    #[should_panic(expected = "group size must be positive")]
    fn zero_group_size_panics() {
        let _ = NeighborGrouping::build(&skewed(), 0);
    }
}
