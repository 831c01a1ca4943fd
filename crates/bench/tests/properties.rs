//! Property tests for neighbor-grouping invariants.

use gnnopt_bench::NeighborGrouping;
use gnnopt_graph::GraphStats;
use proptest::prelude::*;

proptest! {
    /// Grouping preserves the edge count, bounds every group's size, and
    /// produces max-degree ≤ group_size stats.
    #[test]
    fn grouping_invariants(
        degrees in proptest::collection::vec(0u32..200, 1..80),
        group_size in 1usize..64,
    ) {
        let stats = GraphStats::from_in_degrees(degrees);
        let g = NeighborGrouping::build(&stats, group_size);
        let gs = g.grouped_stats();
        prop_assert_eq!(gs.num_edges(), stats.num_edges());
        prop_assert!(gs.in_degrees().iter().all(|&d| d as usize <= group_size));
        prop_assert_eq!(gs.num_vertices(), g.num_groups());
        // Merge ops = groups − vertices-with-edges.
        let nonzero = stats.in_degrees().iter().filter(|&&d| d > 0).count();
        prop_assert_eq!(g.merge_ops(), g.num_groups() - nonzero);
    }

    /// Grouped imbalance obeys the dealing-model bound: every worker gets
    /// at most `ceil(G/W)` groups of at most `group_size` edges, so the
    /// max/mean ratio is at most `1 + group_size·(V + W)/E`. On skewed
    /// graphs this is far below the ungrouped imbalance (see the unit
    /// test `grouping_flattens_imbalance` for the directional claim).
    #[test]
    fn grouped_imbalance_is_bounded(
        n in 16usize..512,
        avg in 2.0f64..24.0,
        skew in 0.0f64..1.6,
        group_size in 4usize..64,
    ) {
        let stats = GraphStats::synthesize_power_law(n, avg, skew);
        let workers = 64usize;
        let after = NeighborGrouping::build(&stats, group_size)
            .grouped_stats()
            .vertex_balanced_imbalance(workers);
        let e = stats.num_edges() as f64;
        let bound = 1.0 + group_size as f64 * (n + workers) as f64 / e;
        prop_assert!(after <= bound + 1e-9, "imbalance {after} exceeds bound {bound}");
    }
}
