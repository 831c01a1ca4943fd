//! Thread-count invariance of the parallelized backward reductions and
//! the heavy-row chunk association.
//!
//! The engine's determinism contract (see `gnnopt_exec::kernels`) has
//! two tiers: most kernels keep the serial accumulation order exactly,
//! while the cross-row parameter reductions (`head_dot_bwd_param`,
//! `gaussian_bwd_mu`, `gaussian_bwd_sigma`) re-associate on a fixed
//! chunk grid. Both tiers promise the *same bits at every thread
//! count*, which is what these tests pin — across threads {1, 2, 4},
//! the op library and a full session (against the node-by-node oracle),
//! graphs with isolated vertices, and an extreme-hub graph whose heavy
//! destination row takes the chunked association.

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

/// The heavy-row association: a destination row whose degree crosses the
/// policy threshold reduces as fixed 1024-edge chunk partials folded in
/// ascending order — in the serial op library and in the tile driver at
/// 1, 2 and 4 workers alike (the same bits; a hub row is never split
/// across workers), and they agree with the plain unchunked reduction up
/// to reassociation.
#[test]
fn heavy_row_split_is_thread_count_invariant() {
    // Degree 2500 > 1024: the hub row spans three chunks.
    let g = hub_graph(2500);
    assert_eq!(g.in_adj().degree(0), 2500);
    // Mixed magnitudes, so that a different association rounds differently.
    let e = Tensor::from_fn(&[g.num_edges(), 6], |i| {
        (i as f32 * 0.7311).sin() * [0.01, 1.0, 100.0][i % 3]
    });
    for reduce in [ReduceFn::Sum, ReduceFn::Mean] {
        let chunked = pol(1).with_heavy_row_degree(16);
        let base = kernels::gather(&chunked, &g, reduce, EdgeGroup::ByDst, &e).0;
        // The same gather alone in a kernel, through a session.
        let mut ir = IrGraph::new();
        let x = ir.input_edge("e", Dim::flat(6));
        let v = ir.gather(reduce, EdgeGroup::ByDst, x).expect("gather");
        ir.mark_output(v);
        let plan = compile(&ir, false, &CompileOptions::ours())
            .expect("compiles")
            .plan;
        let b = Bindings::new().with("e", e.clone());
        for t in [1usize, 2, 4] {
            let mut sess = Session::builder(&plan, &g)
                .policy(pol(t).with_heavy_row_degree(16))
                .env(gnnopt_exec::EnvOverrides::Off)
                .build()
                .expect("session");
            let out = sess.forward(&b).expect("forward");
            assert_bit_identical(&format!("heavy-row gather (t={t})"), &base, &out[0]);
        }
        // Sanity: chunking only reassociates, it doesn't change the sum.
        let plain = kernels::gather(
            &pol(1).with_heavy_row_degree(usize::MAX),
            &g,
            reduce,
            EdgeGroup::ByDst,
            &e,
        )
        .0;
        assert!(base.allclose(&plain), "{reduce:?}: chunked vs plain");
        assert_ne!(bits(&base), bits(&plain), "{reduce:?}: the hub row chunks");
    }
    // Max rows are never chunked: first-wins argmax is already
    // scheduling-independent, so the threshold must not change bits.
    let (mx_small, am_small) = kernels::gather(
        &pol(4).with_heavy_row_degree(16),
        &g,
        ReduceFn::Max,
        EdgeGroup::ByDst,
        &e,
    );
    let (mx_plain, am_plain) = kernels::gather(&pol(1), &g, ReduceFn::Max, EdgeGroup::ByDst, &e);
    assert_bit_identical("heavy-row gather max", &mx_small, &mx_plain);
    assert_eq!(am_small, am_plain, "argmax tables differ");
}

/// End-to-end on the extreme-hub graph: a full GAT training step is
/// bit-identical to the oracle across threads {1, 2, 4} with the
/// heavy-row dispatch engaged (tiny pinned threshold; the 600-edge hub
/// row is one chunk, so it associates exactly as the oracle's plain
/// reduction does).
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
            .policy(pol(threads).with_heavy_row_degree(8))
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
