//! End-to-end permutation transparency on *randomly generated* model
//! IRs: a session that relabels the graph at build time (any strategy,
//! any thread count) must return the same user-facing results as the
//! identity-ordering oracle (`refexec::evaluate`) — bit-identical
//! vertex-space outputs, parameter gradients equal up to floating-point
//! reassociation — and the `Trainer` must amortize the one-time
//! preprocessing across epochs.

mod common;

use common::{arb_steps, build_ir, oracle};
use gnnopt::core::{compile, CompileOptions, ExecPolicy, ReorderPolicy};
use gnnopt::exec::{Bindings, EnvOverrides, Session};
use gnnopt::graph::{generators, EdgeList, Graph};
use gnnopt::tensor::{Tensor, XavierInit};
use proptest::prelude::*;
use std::collections::HashMap;

fn leaf_values(ir: &gnnopt::core::IrGraph, g: &Graph, seed: u64) -> HashMap<String, Tensor> {
    let mut init = XavierInit::new(seed);
    let mut vals = HashMap::new();
    for n in ir.nodes() {
        match n.kind {
            gnnopt::core::OpKind::InputVertex => {
                vals.insert(
                    n.name.clone(),
                    init.uniform(&[g.num_vertices(), n.dim.total()], 0.1, 1.0),
                );
            }
            gnnopt::core::OpKind::InputEdge => {
                vals.insert(
                    n.name.clone(),
                    init.uniform(&[g.num_edges(), n.dim.total()], 0.1, 1.0),
                );
            }
            gnnopt::core::OpKind::Param => {
                vals.insert(n.name.clone(), init.matrix(n.dim.heads, n.dim.feat));
            }
            _ => {}
        }
    }
    vals
}

fn run(
    ir: &gnnopt::core::IrGraph,
    vals: &HashMap<String, Tensor>,
    g: &Graph,
    policy: ExecPolicy,
) -> (Tensor, HashMap<String, Tensor>) {
    let compiled = compile(ir, true, &CompileOptions::ours()).expect("compiles");
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let mut sess = Session::builder(&compiled.plan, g)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let out = sess.forward(&b).expect("forward");
    let grads = sess
        .backward(Tensor::ones(out[0].shape()))
        .expect("backward");
    (out[0].clone(), grads)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random scatter/softmax/gather/linear chains over random graphs
    /// with isolated vertices, across the full strategy × threads
    /// matrix, against the oracle.
    #[test]
    fn random_models_are_reorder_transparent(
        steps in arb_steps(),
        seed in 0u64..500,
        iso in 0usize..4,
    ) {
        let ir = build_ir(&steps, 3);
        let base = generators::erdos_renyi(12, 40, seed);
        let g = Graph::from_edge_list(&EdgeList::from_pairs(12 + iso, base.edges()));
        let vals = leaf_values(&ir, &g, seed);
        let (ref_out, ref_grads) = oracle(&ir, &vals, &g);
        for strategy in [
            ReorderPolicy::DegreeSort,
            ReorderPolicy::Bfs,
            ReorderPolicy::Rcm,
            ReorderPolicy::Cluster,
            ReorderPolicy::Auto,
        ] {
            for threads in [1usize, 4] {
                let policy = ExecPolicy {
                    threads,
                    parallel_threshold: 0,
                    ..ExecPolicy::serial()
                }
                .reordered(strategy);
                let (out, grads) = run(&ir, &vals, &g, policy);
                prop_assert_eq!(
                    bits(&ref_out),
                    bits(&out),
                    "{:?}/t{}: output must be bit-identical",
                    strategy, threads
                );
                for (k, gr) in &ref_grads {
                    prop_assert!(
                        gr.allclose_with(&grads[k], 1e-5, 1e-4),
                        "{:?}/t{}: grad '{}' off by {}",
                        strategy, threads, k, gr.max_abs_diff(&grads[k])
                    );
                }
            }
        }
    }
}

/// `Auto` must pick a strategy that does not lose locality: the resolved
/// mean gather index gap is never worse than the caller's order, and on
/// a scrambled grid (where RCM-style orders shine) it genuinely
/// reorders.
#[test]
fn auto_never_hurts_and_reorders_a_scrambled_grid() {
    use gnnopt::reorder::{locality, Permutation};
    let grid = gnnopt::graph::generators::grid(16, 16).to_undirected();
    // Deterministic scramble (LCG-driven Fisher–Yates).
    let mut ids: Vec<u32> = (0..grid.num_vertices() as u32).collect();
    let mut state = 0x2545_f491_u64;
    for i in (1..ids.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        ids.swap(i, j);
    }
    let scrambled = Permutation::from_order(&ids).unwrap().apply_to_edges(&grid);
    let g = Graph::from_edge_list(&scrambled);

    let spec = gnnopt::models::gcn(&gnnopt::models::GcnConfig {
        in_dim: 3,
        layer_dims: vec![2],
    })
    .unwrap();
    let compiled = compile(&spec.ir, false, &CompileOptions::ours()).unwrap();
    let sess = Session::builder(&compiled.plan, &g)
        .policy(ExecPolicy::serial().reordered(ReorderPolicy::Auto))
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    let (strategy, seconds) = sess.reorder();
    assert_ne!(
        strategy,
        ReorderPolicy::None,
        "a scrambled grid leaves plenty of locality to recover"
    );
    assert!(seconds > 0.0);
    // The strategy Auto picked genuinely reduces the mean index gap.
    let before = locality::report(&scrambled).mean_gap;
    let after = match strategy {
        ReorderPolicy::DegreeSort => gnnopt::reorder::strategies::degree_sort(&scrambled),
        ReorderPolicy::Bfs => gnnopt::reorder::strategies::bfs(&scrambled, 0),
        ReorderPolicy::Rcm => gnnopt::reorder::strategies::rcm(&scrambled),
        ReorderPolicy::Cluster => {
            gnnopt::reorder::strategies::cluster(&scrambled, ReorderPolicy::CLUSTER_SWEEPS)
        }
        _ => unreachable!("resolved strategies are concrete"),
    };
    let after = locality::report(&after.apply_to_edges(&scrambled)).mean_gap;
    assert!(
        after < before,
        "auto-selected {strategy:?} must improve the mean gap: {before:.1} → {after:.1}"
    );
}
