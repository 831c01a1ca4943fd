//! Thread-count invariance of the parallelized backward reductions and
//! the one association of a vertex reduction.
//!
//! The engine's determinism contract (see `gnnopt_exec::kernels`) has
//! two tiers: every other kernel keeps the serial accumulation order
//! exactly — a `Sum`/`Mean` row in ascending edge id, hubs included —
//! while the cross-row parameter reductions (`head_dot_bwd_param`,
//! `gaussian_bwd_mu`, `gaussian_bwd_sigma`) re-associate on a fixed
//! chunk grid. Both tiers promise the *same bits at every thread
//! count*, which is what these tests pin — across threads {1, 2, 4},
//! the op library and a full session (against the node-by-node oracle),
//! graphs with isolated vertices, and extreme-hub graphs.

use gnnopt_core::{compile, CompileOptions, Dim, EdgeGroup, ExecPolicy, IrGraph, ReduceFn};
use gnnopt_exec::{kernels, refexec, Bindings, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gat, GatConfig};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

/// Forces the partitioning on arbitrarily small reductions.
fn pol(threads: usize) -> ExecPolicy {
    ExecPolicy {
        threads,
        parallel_threshold: 0,
        ..ExecPolicy::auto()
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{name}: shapes differ");
    assert_eq!(bits(a), bits(b), "{name}: bits differ");
}

fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        (((i as u64 + seed) * 2654435761 % 103) as f32 - 51.0) / 17.0
    })
}

/// An extreme hub: vertex 0 receives an edge from each of `hub_deg`
/// distinct vertices (edge lists deduplicate, so a hub needs that many
/// neighbours), the rest of the graph is a sparse chain, and the last
/// vertex is isolated.
fn hub_graph(hub_deg: usize) -> Graph {
    let n = hub_deg as u32 + 1;
    let mut pairs: Vec<(u32, u32)> = (1..n).map(|u| (u, 0)).collect();
    pairs.extend((1..n - 1).map(|v| (v, v + 1)));
    Graph::from_edge_list(&EdgeList::from_pairs(n as usize + 1, &pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fixed-grid parameter reductions: same bits for 1, 2, and 4
    /// worker threads (the chunk grid depends on the row count only).
    #[test]
    fn param_reductions_are_thread_count_invariant(
        rows in 1usize..300,
        heads in 1usize..4,
        feat in 1usize..5,
        seed in 0u64..1000,
    ) {
        let x = pseudo(rows, heads * feat, seed);
        let gr = pseudo(rows, heads, seed + 1);
        let base = kernels::head_dot_bwd_param(&pol(1), &x, &gr, heads, feat);
        for t in [2usize, 4] {
            assert_bit_identical(
                "head_dot_bwd_param",
                &base,
                &kernels::head_dot_bwd_param(&pol(t), &x, &gr, heads, feat),
            );
        }

        let p = pseudo(rows, feat, seed + 2);
        let mu = pseudo(heads, feat, seed + 3);
        let sig = pseudo(heads, feat, seed + 4);
        let w = kernels::gaussian_weight(&p, &mu, &sig);
        let g2 = pseudo(rows, heads, seed + 5);
        let bmu = kernels::gaussian_bwd_mu(&pol(1), &p, &w, &g2, &mu, &sig);
        let bsig = kernels::gaussian_bwd_sigma(&pol(1), &p, &w, &g2, &mu, &sig);
        for t in [2usize, 4] {
            assert_bit_identical(
                "gaussian_bwd_mu",
                &bmu,
                &kernels::gaussian_bwd_mu(&pol(t), &p, &w, &g2, &mu, &sig),
            );
            assert_bit_identical(
                "gaussian_bwd_sigma",
                &bsig,
                &kernels::gaussian_bwd_sigma(&pol(t), &p, &w, &g2, &mu, &sig),
            );
        }
    }
}

/// One association on hubs: a destination row of any in-degree reduces
/// its edges in ascending id, the order of a hand-written loop over
/// `in_adj().edge_ids(v)` — in the serial op library and in the tile
/// driver at 1, 2 and 4 workers alike (a hub row is never split across
/// workers). Hubs of 2 500 and 5 000 in-edges; the inputs mix
/// magnitudes, so any other association would round differently.
#[test]
fn hub_rows_reduce_in_edge_order() {
    // Vertex 0 hears from 1..=2500, vertex 1 from 2..=5001; a chain
    // links the rest and the last vertex is isolated.
    let n = 5002u32;
    let mut pairs: Vec<(u32, u32)> = (1..=2500).map(|u| (u, 0)).collect();
    pairs.extend((2..n).map(|u| (u, 1)));
    pairs.extend((2..n - 1).map(|v| (v, v + 1)));
    let g = Graph::from_edge_list(&EdgeList::from_pairs(n as usize + 1, &pairs));
    let adj = g.in_adj();
    assert_eq!((adj.degree(0), adj.degree(1)), (2500, 5000));
    let cols = 6;
    let e = Tensor::from_fn(&[g.num_edges(), cols], |i| {
        (i as f32 * 0.7311).sin() * [0.01, 1.0, 100.0][i % 3]
    });
    for reduce in [ReduceFn::Sum, ReduceFn::Mean] {
        let mut want = Tensor::zeros(&[g.num_vertices(), cols]);
        for v in 0..g.num_vertices() {
            let inv = 1.0 / adj.degree(v) as f32;
            let o = want.row_mut(v);
            for &id in adj.edge_ids(v) {
                for (ov, &xv) in o.iter_mut().zip(e.row(id as usize)) {
                    match reduce {
                        ReduceFn::Sum => *ov += xv,
                        _ => *ov += inv * xv,
                    }
                }
            }
        }
        let lib = kernels::gather(&pol(1), &g, reduce, EdgeGroup::ByDst, &e).0;
        assert_bit_identical(&format!("{reduce:?}: op library"), &want, &lib);
        // The same gather alone in a kernel, through a session.
        let mut ir = IrGraph::new();
        let x = ir.input_edge("e", Dim::flat(cols));
        let v = ir.gather(reduce, EdgeGroup::ByDst, x).expect("gather");
        ir.mark_output(v);
        let plan = compile(&ir, false, &CompileOptions::ours())
            .expect("compiles")
            .plan;
        let b = Bindings::new().with("e", e.clone());
        for t in [1usize, 2, 4] {
            let mut sess = Session::builder(&plan, &g)
                .policy(pol(t))
                .env(gnnopt_exec::EnvOverrides::Off)
                .build()
                .expect("session");
            let out = sess.forward(&b).expect("forward");
            assert_bit_identical(&format!("{reduce:?}: session (t={t})"), &want, &out[0]);
        }
    }
}

/// End-to-end on the extreme-hub graph: a full GAT training step is
/// bit-identical to the oracle across threads {1, 2, 4}.
#[test]
fn session_invariant_across_threads_and_fused_on_hub_graph() {
    let g = hub_graph(600);
    let spec = gat(&GatConfig {
        in_dim: 5,
        layers: vec![(2, 4)],
        negative_slope: 0.2,
        reorganized: true,
    })
    .expect("gat builds");
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(&g, 11) {
        b.insert(&k, v);
    }
    let out = compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[g.num_vertices(), out.dim.total()]);
    let oracle = refexec::evaluate(&compiled.plan, &g, &b, Some(&seed)).expect("oracle");

    for threads in [1usize, 2, 4] {
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(pol(threads))
            .env(gnnopt_exec::EnvOverrides::Off)
            .build()
            .expect("session");
        let out = sess.forward(&b).expect("forward");
        let grads = sess.backward(seed.clone()).expect("backward");
        assert_eq!(oracle.outputs.len(), out.len());
        for (a, b) in oracle.outputs.iter().zip(&out) {
            assert_bit_identical(&format!("output (t={threads})"), a, b);
        }
        assert_eq!(oracle.grads.len(), grads.len());
        for (k, gb) in &oracle.grads {
            assert_bit_identical(&format!("grad '{k}' (t={threads})"), gb, &grads[k]);
        }
    }
}
