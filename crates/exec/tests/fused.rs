//! Determinism contract of the program interpreter: for any graph
//! (isolated vertices included), any tile budget, and any thread count,
//! a session's results are **bit-identical** to the node-by-node oracle
//! (`refexec::evaluate`) — tiling changes where intermediates live, never
//! what arithmetic is performed — while the measured peak of the value
//! store stays below what the oracle materializes.

use gnnopt_core::{compile, CompileOptions, ExecPolicy};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{edgeconv, gat, gcn, EdgeConvConfig, GatConfig, GcnConfig, ModelSpec};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{name}: shapes differ");
    assert_eq!(bits(a), bits(b), "{name}: bits differ");
}

/// Random multigraphs with guaranteed trailing isolated vertices, so
/// empty reduction groups cross the fused/reference comparison too.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..96)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

fn compare_session_vs_oracle(spec: &ModelSpec, graph: &Graph, threads: usize, tile_edges: usize) {
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(graph, 23) {
        b.insert(&k, v);
    }
    let policy = ExecPolicy {
        threads,
        parallel_threshold: 0,
        tile_edges,
        ..ExecPolicy::serial()
    };
    let mut sess = Session::builder(&compiled.plan, graph)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let out = sess.forward(&b).expect("forward");
    let seed = Tensor::ones(out[0].shape());
    let grads: HashMap<String, Tensor> = sess.backward(seed.clone()).expect("backward");
    let oracle = refexec::evaluate(&compiled.plan, graph, &b, Some(&seed)).expect("oracle");

    assert_eq!(oracle.outputs.len(), out.len());
    for (a, b) in oracle.outputs.iter().zip(&out) {
        assert_bit_identical("output", a, b);
    }
    assert_eq!(oracle.grads.len(), grads.len());
    for (k, g) in &oracle.grads {
        assert_bit_identical(&format!("grad '{k}'"), g, &grads[k]);
    }
    let peak = sess.stats().peak_value_bytes;
    assert!(
        peak <= oracle.materialized_bytes,
        "session peak {peak} exceeds the {} bytes the oracle materializes",
        oracle.materialized_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GAT training (softmax + ByDst/BySrc gathers, multi-head) over
    /// random graphs with isolated vertices: bit-identical session vs
    /// oracle for every thread count and tile budget, including
    /// single-edge tiles.
    #[test]
    fn gat_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..6,
        tile_edges in prop_oneof![Just(1usize), Just(3), Just(16), Just(4096)],
        heads in 1usize..3,
    ) {
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(heads, 4), (1, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        compare_session_vs_oracle(&spec, &g, threads, tile_edges);
    }

    /// EdgeConv training (max-gather: the scattered-write
    /// `gather_max_bwd` runs as a full step or an argmax-routed tiled
    /// one) stays bit-identical under the mixed tiled/full schedule.
    #[test]
    fn edgeconv_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(2usize), Just(64)],
    ) {
        let spec = edgeconv(&EdgeConvConfig { in_dim: 4, layer_dims: vec![3] })
            .expect("edgeconv builds");
        compare_session_vs_oracle(&spec, &g, threads, tile_edges);
    }

    /// GCN training (gSpMM pattern with edge weights).
    #[test]
    fn gcn_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(1usize), Just(32)],
    ) {
        let spec = gcn(&GcnConfig { in_dim: 4, layer_dims: vec![4, 2] }).expect("gcn builds");
        compare_session_vs_oracle(&spec, &g, threads, tile_edges);
    }
}
