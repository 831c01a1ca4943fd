//! Determinism contract of the GEMM engine at the session level: a full
//! GNN training step produces **bit-identical** forward outputs *and*
//! parameter gradients whether the `Linear`-family kernels run on the
//! naive reference loops or the register-tiled blocked engine — blocking
//! changes where operands live, never what arithmetic is performed. The
//! session stays bit-identical to the node-by-node oracle
//! (`refexec::evaluate`) under either engine.

use gnnopt_core::{compile, CompileOptions, ExecPolicy, GemmKernel};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gat, gcn, GatConfig, GcnConfig, ModelSpec};
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

/// Random multigraphs with guaranteed trailing isolated vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20, 0usize..3).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..72)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

/// One training step under a pinned policy.
fn step(
    spec: &ModelSpec,
    graph: &Graph,
    vals: &HashMap<String, Tensor>,
    policy: ExecPolicy,
) -> (Vec<Tensor>, HashMap<String, Tensor>) {
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
    (out, grads)
}

/// The oracle's step on the same values (it runs the default, blocked,
/// engine on one thread).
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
    let out = &compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[graph.num_vertices(), out.dim.total()]);
    let e = refexec::evaluate(&compiled.plan, graph, &b, Some(&seed)).expect("oracle");
    (e.outputs, e.grads)
}

/// Runs a step under both GEMM kernels (same threads) and demands
/// bitwise-equal outputs and gradients — equal to the oracle's too.
fn compare_kernels(spec: &ModelSpec, graph: &Graph, threads: usize) {
    let vals = spec.init_values(graph, 31);
    let base = ExecPolicy {
        threads,
        parallel_threshold: 0,
        ..ExecPolicy::serial()
    };
    let naive = step(spec, graph, &vals, base.with_gemm(GemmKernel::Naive));
    let blocked = step(spec, graph, &vals, base.with_gemm(GemmKernel::Blocked));
    let reference = oracle(spec, graph, &vals);
    assert_eq!(naive.0.len(), blocked.0.len());
    for ((a, b), r) in naive.0.iter().zip(&blocked.0).zip(&reference.0) {
        assert_bit_identical("output", a, b);
        assert_bit_identical("output vs oracle", a, r);
    }
    assert_eq!(naive.1.len(), blocked.1.len());
    for (k, g) in &naive.1 {
        assert_bit_identical(&format!("grad '{k}'"), g, &blocked.1[k]);
        assert_bit_identical(&format!("grad '{k}' vs oracle"), g, &reference.1[k]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GAT training (attention softmax, multi-head linear projections,
    /// `matmul_tn` weight grads) over random graphs: bit-identical
    /// naive-vs-blocked-vs-oracle for every thread count.
    #[test]
    fn gat_step_is_bit_identical_across_gemm_kernels(
        g in arb_graph(),
        threads in 1usize..5,
        heads in 1usize..3,
    ) {
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(heads, 4), (1, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        compare_kernels(&spec, &g, threads);
    }

    /// GCN training (the plainest Linear → gather pipeline, ReLU zeros
    /// feeding the zero-skip decision) over random graphs.
    #[test]
    fn gcn_step_is_bit_identical_across_gemm_kernels(
        g in arb_graph(),
        threads in 1usize..5,
    ) {
        let spec = gcn(&GcnConfig {
            in_dim: 6,
            layer_dims: vec![5, 3],
        }).expect("gcn builds");
        compare_kernels(&spec, &g, threads);
    }

    /// The session-vs-oracle bit-identity contract, rerun with the
    /// blocked engine pinned explicitly and the tile budget varied: the
    /// compute engine must not open any gap between the two.
    #[test]
    fn fused_matches_reference_under_blocked_gemm(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(1usize), Just(16), Just(4096)],
    ) {
        let spec = gat(&GatConfig {
            in_dim: 4,
            layers: vec![(2, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        let vals = spec.init_values(&g, 17);
        let policy = ExecPolicy {
            threads,
            parallel_threshold: 0,
            tile_edges,
            ..ExecPolicy::serial()
        }.with_gemm(GemmKernel::Blocked);
        let reference = oracle(&spec, &g, &vals);
        let fused = step(&spec, &g, &vals, policy);
        for (a, b) in reference.0.iter().zip(&fused.0) {
            assert_bit_identical("output", a, b);
        }
        for (k, gr) in &reference.1 {
            assert_bit_identical(&format!("grad '{k}'"), gr, &fused.1[k]);
        }
    }
}
