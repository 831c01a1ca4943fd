//! Property tests for reordering invariants.

use gnnopt_graph::{generators, EdgeList, Graph};
use gnnopt_reorder::{locality, strategies, Permutation};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

/// A small random graph — with trailing isolated vertices appended, so
/// every strategy must produce a *total* permutation on disconnected
/// graphs (BFS/RCM have to cover unreachable vertices too).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..60, 0u64..1000, 1usize..6, 0usize..5).prop_map(|(n, seed, density, iso)| {
        let edges = (n * density).min(n * (n - 1));
        let el = generators::erdos_renyi(n, edges, seed);
        EdgeList::from_pairs(n + iso, el.edges())
    })
}

fn arb_permutation(n: usize) -> impl Strategy<Value = Permutation> {
    Just(n).prop_perturb(|n, mut rng| {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        Permutation::from_order(&ids).expect("shuffled ids are a bijection")
    })
}

proptest! {
    /// Applying a permutation then its inverse restores the original graph.
    #[test]
    fn permutation_roundtrip(el in arb_graph()) {
        let n = el.num_vertices();
        let run = |p: Permutation| {
            let there = p.apply_to_edges(&el);
            let back = p.inverse().apply_to_edges(&there);
            prop_assert_eq!(&back, &el);
            Ok(())
        };
        run(Permutation::identity(n))?;
    }

    /// Random permutations preserve edge count and the degree multiset.
    #[test]
    fn random_permutation_is_isomorphism(
        (el, p) in arb_graph().prop_flat_map(|el| {
            let n = el.num_vertices();
            (Just(el), arb_permutation(n))
        })
    ) {
        let out = p.apply_to_edges(&el);
        prop_assert_eq!(out.num_edges(), el.num_edges());
        let degrees = |e: &EdgeList| {
            let mut d = vec![0u32; e.num_vertices()];
            for &(_, dst) in e.edges() {
                d[dst as usize] += 1;
            }
            d.sort_unstable();
            d
        };
        prop_assert_eq!(degrees(&out), degrees(&el));
        // Roundtrip through the inverse.
        prop_assert_eq!(p.inverse().apply_to_edges(&out), el);
    }

    /// Every strategy yields a valid *total* permutation — length |V|,
    /// bijective (the constructors validate this), covering isolated and
    /// unreachable vertices — whose application preserves the graph up to
    /// isomorphism.
    #[test]
    fn strategies_are_total_bijections(el in arb_graph()) {
        for p in [
            strategies::degree_sort(&el),
            strategies::bfs(&el, 0),
            strategies::rcm(&el),
            strategies::cluster(&el, 3),
        ] {
            prop_assert_eq!(p.len(), el.num_vertices());
            // Totality: every vertex id appears exactly once as a target.
            let mut seen = vec![false; p.len()];
            for old in 0..p.len() as u32 {
                let new = p.new_id(old) as usize;
                prop_assert!(!std::mem::replace(&mut seen[new], true));
            }
            let out = p.apply_to_edges(&el);
            prop_assert_eq!(out.num_edges(), el.num_edges());
        }
    }

    /// `inverse ∘ apply = id` and `(p⁻¹)⁻¹ = p` for arbitrary
    /// permutations, and composition is associative.
    #[test]
    fn permutation_algebra(
        (a, b, c) in (4usize..40).prop_flat_map(|n| {
            (arb_permutation(n), arb_permutation(n), arb_permutation(n))
        })
    ) {
        let n = a.len();
        prop_assert_eq!(a.compose(&a.inverse()), Permutation::identity(n));
        prop_assert_eq!(a.inverse().compose(&a), Permutation::identity(n));
        prop_assert_eq!(a.inverse().inverse(), a.clone());
        prop_assert_eq!(
            a.compose(&b).compose(&c),
            a.compose(&b.compose(&c)),
            "composition must associate"
        );
    }

    /// `apply_to_edges` preserves the edge multiset (under relabeling)
    /// and both degree sequences.
    #[test]
    fn apply_preserves_edge_multiset_and_degrees(
        (el, p) in arb_graph().prop_flat_map(|el| {
            let n = el.num_vertices();
            (Just(el), arb_permutation(n))
        })
    ) {
        let out = p.apply_to_edges(&el);
        // Multiset: relabeling every original edge reproduces the output
        // edge set exactly.
        let mut relabeled: Vec<(u32, u32)> = el
            .edges()
            .iter()
            .map(|&(s, d)| (p.new_id(s), p.new_id(d)))
            .collect();
        relabeled.sort_unstable();
        let mut got: Vec<(u32, u32)> = out.edges().to_vec();
        got.sort_unstable();
        prop_assert_eq!(relabeled, got);
        // Degree sequences (in and out) are invariant.
        let degrees = |e: &EdgeList, by_src: bool| {
            let mut d = vec![0u32; e.num_vertices()];
            for &(s, dst) in e.edges() {
                d[if by_src { s } else { dst } as usize] += 1;
            }
            d.sort_unstable();
            d
        };
        prop_assert_eq!(degrees(&out, false), degrees(&el, false));
        prop_assert_eq!(degrees(&out, true), degrees(&el, true));
    }

    /// `apply_to_graph` is a stable CSR relabeling: the edge map is a
    /// bijection, every endpoint relabels consistently, and each new
    /// destination group lists its sources in the old group's order —
    /// the contract that keeps `ByDst` reductions bit-identical.
    #[test]
    fn apply_to_graph_is_stable(
        (el, p) in arb_graph().prop_flat_map(|el| {
            let n = el.num_vertices();
            (Just(el), arb_permutation(n))
        })
    ) {
        let g = Graph::from_edge_list(&el);
        let (pg, emap) = p.apply_to_graph(&g);
        prop_assert_eq!(pg.num_vertices(), g.num_vertices());
        prop_assert_eq!(pg.num_edges(), g.num_edges());
        let mut seen = vec![false; emap.len()];
        for (old, &new) in emap.iter().enumerate() {
            prop_assert!(!std::mem::replace(&mut seen[new as usize], true));
            prop_assert_eq!(pg.src(new as usize) as u32, p.new_id(g.src(old) as u32));
            prop_assert_eq!(pg.dst(new as usize) as u32, p.new_id(g.dst(old) as u32));
        }
        for v in 0..g.num_vertices() {
            let relabeled: Vec<u32> = g
                .in_adj()
                .neighbors(v)
                .iter()
                .map(|&u| p.new_id(u))
                .collect();
            prop_assert_eq!(
                pg.in_adj().neighbors(p.new_id(v as u32) as usize),
                relabeled.as_slice()
            );
        }
    }

    /// Tensor row permutes invert each other and move rows with their
    /// vertices.
    #[test]
    fn tensor_rows_follow_vertices(
        (p, cols) in (1usize..32).prop_flat_map(|n| (arb_permutation(n), 1usize..5))
    ) {
        let n = p.len();
        let t = Tensor::from_fn(&[n, cols], |i| i as f32);
        let moved = p.permute_tensor_rows(&t);
        for old in 0..n {
            prop_assert_eq!(moved.row(p.new_id(old as u32) as usize), t.row(old));
        }
        let back = p.unpermute_tensor_rows(&moved);
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    /// LRU hit rate is monotone non-decreasing in cache capacity.
    #[test]
    fn hit_rate_monotone(el in arb_graph(), caps in proptest::collection::vec(1usize..256, 2..5)) {
        let mut sorted = caps;
        sorted.sort_unstable();
        let mut prev = -1.0f64;
        for c in sorted {
            let r = locality::lru_hit_rate(&el, c);
            prop_assert!(r >= prev - 1e-12);
            prop_assert!((0.0..=1.0).contains(&r));
            prev = r;
        }
    }
}
