//! Permutation-transparency contract of reordered sessions: for any
//! graph (isolated vertices included), any strategy and any thread
//! count, a session that relabels the graph at build time returns the
//! *same* user-facing results as the identity-ordering oracle
//! (`refexec::evaluate`) — vertex/edge-space outputs bit-identical (the stable CSR
//! permutation preserves every per-destination reduction order), and
//! parameter gradients equal up to floating-point reassociation (their
//! cross-row sums run in the relabeled row order).

use gnnopt_core::{compile, CompileOptions, ExecPolicy, ReorderPolicy};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, RunStats, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{edgeconv, gat, gcn, EdgeConvConfig, GatConfig, GcnConfig, ModelSpec};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

/// The full strategy × threads matrix every case runs through.
const STRATEGIES: [ReorderPolicy; 5] = [
    ReorderPolicy::DegreeSort,
    ReorderPolicy::Bfs,
    ReorderPolicy::Rcm,
    ReorderPolicy::Cluster,
    ReorderPolicy::Auto,
];
const THREADS: [usize; 2] = [1, 4];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Random multigraphs with guaranteed trailing isolated vertices, so
/// BFS/RCM must cover unreachable vertices and empty reduction groups
/// cross the reordered/reference comparison too.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 1usize..5).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..96)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

/// One training step under an explicit policy, returning
/// `(outputs, param grads, stats)`.
fn step(
    spec: &ModelSpec,
    graph: &Graph,
    vals: &HashMap<String, Tensor>,
    policy: ExecPolicy,
) -> (Vec<Tensor>, HashMap<String, Tensor>, RunStats) {
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut sess = Session::builder(&compiled.plan, graph)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let out = sess.forward(&b).expect("forward");
    let grads = sess
        .backward(Tensor::ones(out[0].shape()))
        .expect("backward");
    (out, grads, sess.stats())
}

/// The oracle's step (identity order, serial, node-by-node) on the same
/// values.
fn oracle(
    spec: &ModelSpec,
    graph: &Graph,
    vals: &HashMap<String, Tensor>,
) -> (Vec<Tensor>, HashMap<String, Tensor>) {
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let out = compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[graph.num_vertices(), out.dim.total()]);
    let e = refexec::evaluate(&compiled.plan, graph, &b, Some(&seed)).expect("oracle");
    (e.outputs, e.grads)
}

/// Runs the oracle against the whole strategy × threads matrix.
fn compare_matrix(spec: &ModelSpec, graph: &Graph) {
    let vals = spec.init_values(graph, 29);
    let (ref_out, ref_grads) = oracle(spec, graph, &vals);
    for strategy in STRATEGIES {
        for threads in THREADS {
            let policy = ExecPolicy {
                threads,
                parallel_threshold: 0,
                ..ExecPolicy::serial()
            }
            .reordered(strategy);
            let (out, grads, stats) = step(spec, graph, &vals, policy);
            let label = format!("{strategy:?}/t{threads}");

            assert_eq!(ref_out.len(), out.len());
            for (a, b) in ref_out.iter().zip(&out) {
                assert_eq!(a.shape(), b.shape(), "{label}: output shapes differ");
                assert_eq!(
                    bits(a),
                    bits(b),
                    "{label}: vertex-space output must be bit-identical \
                     after the session's inverse permutation"
                );
            }
            assert_eq!(ref_grads.len(), grads.len());
            for (k, g) in &ref_grads {
                let r = &grads[k];
                assert_eq!(g.shape(), r.shape(), "{label}: grad '{k}' shape");
                assert!(
                    g.allclose_with(r, 1e-5, 1e-4),
                    "{label}: grad '{k}' diverged beyond FP reassociation: \
                     max |Δ| = {}",
                    g.max_abs_diff(r)
                );
            }
            // Auto may legitimately resolve to identity; a concrete
            // strategy must be reported as itself.
            if strategy != ReorderPolicy::Auto {
                assert_eq!(
                    stats.reorder, strategy,
                    "{label}: stats record the strategy"
                );
                assert!(stats.reorder_seconds >= 0.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// GAT training (softmax + ByDst/BySrc gathers, multi-head).
    #[test]
    fn gat_reordered_matches_reference(g in arb_graph(), heads in 1usize..3) {
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(heads, 4), (1, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        compare_matrix(&spec, &g);
    }

    /// EdgeConv training (max-gather with argmax tables living in the
    /// relabeled edge numbering).
    #[test]
    fn edgeconv_reordered_matches_reference(g in arb_graph()) {
        let spec = edgeconv(&EdgeConvConfig { in_dim: 4, layer_dims: vec![3] })
            .expect("edgeconv builds");
        compare_matrix(&spec, &g);
    }

    /// GCN training (gSpMM with an edge-space input, exercising the
    /// canonical-edge-id permutation of bindings).
    #[test]
    fn gcn_reordered_matches_reference(g in arb_graph()) {
        let spec = gcn(&GcnConfig { in_dim: 4, layer_dims: vec![4, 2] }).expect("gcn builds");
        compare_matrix(&spec, &g);
    }

    /// Grouped worker binding is a pure scheduling choice: a session
    /// with `group_workers` is bit-identical to the oracle, gradients
    /// included, for any thread count and tile budget.
    #[test]
    fn grouped_workers_are_bit_identical(
        g in arb_graph(),
        threads in 1usize..6,
        tile_edges in prop_oneof![Just(1usize), Just(8), Just(4096)],
    ) {
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(2, 4)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        let vals = spec.init_values(&g, 31);
        let (ref_out, ref_grads) = oracle(&spec, &g, &vals);
        let policy = ExecPolicy {
            threads,
            parallel_threshold: 0,
            tile_edges,
            ..ExecPolicy::serial()
        }
        .grouped();
        let (out, grads, _) = step(&spec, &g, &vals, policy);
        for (a, b) in ref_out.iter().zip(&out) {
            prop_assert_eq!(bits(a), bits(b), "grouped fused output differs");
        }
        for (k, gr) in &ref_grads {
            prop_assert_eq!(bits(gr), bits(&grads[k]), "grouped fused grad '{}' differs", k);
        }
    }
}
