//! Relabel once, outside the executor: a caller who wants vertex
//! locality permutes the graph and the bindings with `gnnopt-reorder`
//! and runs an ordinary session on the result. On *randomly generated*
//! model IRs that must be invisible — outputs moved back to the caller's
//! order are bit-identical to the identity-order run. A source-grouped
//! sum or mean is the exception: it adds a source's out-edges in
//! ascending edge id, which the relabelling reorders, so such a model
//! agrees with the identity order to rounding and with the oracle on the
//! relabelled graph bit for bit.

mod common;

use common::{arb_steps, build_ir, oracle};
use gnnopt::core::{compile, CompileOptions, EdgeGroup, ExecPolicy, IrGraph, OpKind, ReduceFn};
use gnnopt::exec::{Bindings, EnvOverrides, Session};
use gnnopt::graph::{generators, EdgeList, Graph};
use gnnopt::reorder::{strategies, Permutation};
use gnnopt::tensor::{Tensor, XavierInit};
use proptest::prelude::*;
use std::collections::HashMap;

fn leaf_values(ir: &IrGraph, g: &Graph, seed: u64) -> HashMap<String, Tensor> {
    let mut init = XavierInit::new(seed);
    let mut vals = HashMap::new();
    for n in ir.nodes() {
        let t = match n.kind {
            OpKind::InputVertex => init.uniform(&[g.num_vertices(), n.dim.total()], 0.1, 1.0),
            OpKind::InputEdge => init.uniform(&[g.num_edges(), n.dim.total()], 0.1, 1.0),
            OpKind::Param => init.matrix(n.dim.heads, n.dim.feat),
            _ => continue,
        };
        vals.insert(n.name.clone(), t);
    }
    vals
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random scatter/softmax/gather/linear chains over random graphs
    /// with isolated vertices, under every strategy at one and four
    /// threads: a plain session on `perm.apply_to_graph(&g)`, fed the
    /// vertex bindings permuted by `perm` and the edge bindings by the
    /// canonical-edge map it induces, against the identity-order oracle.
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
        let compiled = compile(&ir, true, &CompileOptions::ours()).expect("compiles");
        // The relabelling keeps every destination group's edge order, but
        // not a source group's: its out-edges follow the new destination
        // ids, so a source-grouped sum adds in another order.
        let sums_by_src = ir.nodes().iter().any(|n| {
            matches!(
                n.kind,
                OpKind::Gather {
                    reduce: ReduceFn::Sum | ReduceFn::Mean,
                    group: EdgeGroup::BySrc
                }
            )
        });

        let el = g.edge_list();
        for (name, perm) in [
            ("degree", strategies::degree_sort(&el)),
            ("bfs", strategies::bfs(&el, 0)),
            ("rcm", strategies::rcm(&el)),
            ("cluster", strategies::cluster(&el, 4)),
        ] {
            let (relabeled, edge_map) = perm.apply_to_graph(&g);
            let edge_perm = Permutation::from_new_of_old(edge_map).expect("edge map is a bijection");
            let mut pvals = HashMap::new();
            for n in ir.nodes() {
                let Some(t) = vals.get(&n.name) else { continue };
                let t = match n.kind {
                    OpKind::InputVertex => perm.permute_tensor_rows(t),
                    OpKind::InputEdge => edge_perm.permute_tensor_rows(t),
                    _ => t.clone(),
                };
                pvals.insert(n.name.clone(), t);
            }
            let mut b = Bindings::new();
            for (k, t) in &pvals {
                b.insert(k, t.clone());
            }
            // Where the sum order moves, the relabelled run is still held
            // to the bits of the oracle on the relabelled graph.
            let rel_out = sums_by_src.then(|| oracle(&ir, &pvals, &relabeled).0);
            for threads in [1usize, 4] {
                let policy = ExecPolicy {
                    threads,
                    parallel_threshold: 0,
                    ..ExecPolicy::serial()
                };
                let mut sess = Session::builder(&compiled.plan, &relabeled)
                    .policy(policy)
                    .env(EnvOverrides::Off)
                    .build()
                    .expect("session");
                let out = sess.forward(&b).expect("forward");
                // A seed of ones is its own permutation.
                let grads = sess.backward(Tensor::ones(out[0].shape())).expect("backward");
                let got = perm.unpermute_tensor_rows(&out[0]);
                if let Some(rel_out) = &rel_out {
                    prop_assert_eq!(
                        bits(rel_out),
                        bits(&out[0]),
                        "{}/t{}: output must match the oracle on the relabelled graph",
                        name, threads
                    );
                    prop_assert!(
                        ref_out.allclose_with(&got, 1e-5, 1e-4),
                        "{}/t{}: output off by {}",
                        name, threads, ref_out.max_abs_diff(&got)
                    );
                } else {
                    prop_assert_eq!(
                        bits(&ref_out),
                        bits(&got),
                        "{}/t{}: output must be bit-identical",
                        name, threads
                    );
                }
                // A parameter gradient sums *across* rows, and that sum
                // now runs in the relabeled row order.
                for (k, gr) in &ref_grads {
                    prop_assert!(
                        gr.allclose_with(&grads[k], 1e-5, 1e-4),
                        "{}/t{}: grad '{}' off by {}",
                        name, threads, k, gr.max_abs_diff(&grads[k])
                    );
                }
            }
        }
    }
}
