//! The determinism contract of the thread-parallel backend: for every
//! kernel and every `ExecPolicy`, parallel results are **bit-identical**
//! to the serial reference (not merely `allclose`) — chunk boundaries
//! never change what arithmetic is performed, only who performs it.
//!
//! Random graphs include isolated vertices on purpose, so the empty-group
//! identity rows are covered by the bitwise comparison too.

use gnnopt_core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, ExecPolicy, ReduceFn, ScatterFn, UnaryFn,
};
use gnnopt_exec::{kernels, Bindings, EnvOverrides, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gat, GatConfig};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

/// Forces the row/vertex partitioning on arbitrarily small kernels.
fn par(threads: usize) -> ExecPolicy {
    ExecPolicy {
        threads,
        parallel_threshold: 0,
        ..ExecPolicy::auto()
    }
}

fn serial() -> ExecPolicy {
    ExecPolicy::serial()
}

/// Bitwise equality — `==` would already distinguish `0.0`/`-0.0` less
/// strictly and conflate NaNs; the backend promises the exact same bits.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{name}: shapes differ");
    assert_eq!(bits(a), bits(b), "{name}: bits differ");
}

/// Random multigraphs with guaranteed trailing isolated vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..96)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        (((i as u64 + seed) * 2654435761 % 103) as f32 - 51.0) / 17.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every parallelized kernel, bit-compared against the serial path
    /// over random graphs, feature widths, head counts, and thread
    /// counts (including more threads than rows).
    #[test]
    fn kernels_are_bit_identical_under_any_thread_count(
        g in arb_graph(),
        seed in 0u64..1000,
        heads in 1usize..4,
        feat in 1usize..5,
        threads in 2usize..7,
    ) {
        let (n, m) = (g.num_vertices(), g.num_edges());
        let total = heads * feat;
        let s = serial();
        let p = par(threads);
        let x = pseudo_tensor(n, total, seed);
        let e = pseudo_tensor(m, total, seed + 1);

        for f in [ScatterFn::CopyU, ScatterFn::CopyV, ScatterFn::Bin(BinaryFn::Sub), ScatterFn::ConcatUV] {
            let dim = if matches!(f, ScatterFn::ConcatUV) {
                Dim::multi(heads, 2 * feat)
            } else {
                Dim::multi(heads, feat)
            };
            let a = kernels::scatter(&s, &g, f, &x, &x, dim);
            let b = kernels::scatter(&p, &g, f, &x, &x, dim);
            assert_bit_identical("scatter", &a, &b);
        }

        for group in [EdgeGroup::ByDst, EdgeGroup::BySrc] {
            for reduce in [ReduceFn::Sum, ReduceFn::Mean, ReduceFn::Max] {
                let (a, am_a) = kernels::gather(&s, &g, reduce, group, &e);
                let (b, am_b) = kernels::gather(&p, &g, reduce, group, &e);
                assert_bit_identical("gather", &a, &b);
                prop_assert_eq!(am_a, am_b, "argmax tables differ");
            }
            let vg = pseudo_tensor(n, total, seed + 2);
            let a = kernels::gather_mean_bwd(&s, &g, group, &vg);
            let b = kernels::gather_mean_bwd(&p, &g, group, &vg);
            assert_bit_identical("gather_mean_bwd", &a, &b);
        }

        let (ys, ms, ds) = kernels::edge_softmax(&s, &g, &e);
        let (yp, mp, dp) = kernels::edge_softmax(&p, &g, &e);
        assert_bit_identical("edge_softmax y", &ys, &yp);
        assert_bit_identical("edge_softmax max", &ms, &mp);
        assert_bit_identical("edge_softmax denom", &ds, &dp);
        assert_bit_identical(
            "edge_softmax_from_aux",
            &kernels::edge_softmax_from_aux(&s, &g, &e, &ms, &ds),
            &kernels::edge_softmax_from_aux(&p, &g, &e, &ms, &ds),
        );
        let eg = pseudo_tensor(m, total, seed + 3);
        assert_bit_identical(
            "edge_softmax_bwd",
            &kernels::edge_softmax_bwd(&s, &g, &eg, &ys),
            &kernels::edge_softmax_bwd(&p, &g, &eg, &ys),
        );

        let b2 = pseudo_tensor(n, heads, seed + 4);
        assert_bit_identical(
            "binary_broadcast (equal feat)",
            &kernels::binary_broadcast(&s, BinaryFn::Add, &x, Dim::multi(heads, feat), &x, Dim::multi(heads, feat)),
            &kernels::binary_broadcast(&p, BinaryFn::Add, &x, Dim::multi(heads, feat), &x, Dim::multi(heads, feat)),
        );
        assert_bit_identical(
            "binary_broadcast (feat-1 broadcast)",
            &kernels::binary_broadcast(&s, BinaryFn::Mul, &x, Dim::multi(heads, feat), &b2, Dim::multi(heads, 1)),
            &kernels::binary_broadcast(&p, BinaryFn::Mul, &x, Dim::multi(heads, feat), &b2, Dim::multi(heads, 1)),
        );

        let f = UnaryFn::LeakyRelu(0.2);
        assert_bit_identical("unary", &kernels::unary(&s, f, &x), &kernels::unary(&p, f, &x));
        let gx = pseudo_tensor(n, total, seed + 5);
        assert_bit_identical(
            "unary_bwd",
            &kernels::unary_bwd(&s, f, &gx, &x),
            &kernels::unary_bwd(&p, f, &gx, &x),
        );

        let a_param = pseudo_tensor(heads, feat, seed + 6);
        assert_bit_identical(
            "head_dot",
            &kernels::head_dot(&s, &x, &a_param, heads, feat),
            &kernels::head_dot(&p, &x, &a_param, heads, feat),
        );
        let gh = pseudo_tensor(n, heads, seed + 7);
        assert_bit_identical(
            "head_dot_bwd_input",
            &kernels::head_dot_bwd_input(&s, &gh, &a_param, heads, feat),
            &kernels::head_dot_bwd_input(&p, &gh, &a_param, heads, feat),
        );

        assert_bit_identical(
            "head_reduce",
            &kernels::head_reduce(&s, &x, heads, feat, true),
            &kernels::head_reduce(&p, &x, heads, feat, true),
        );
        let flat = pseudo_tensor(n, feat, seed + 8);
        assert_bit_identical(
            "head_broadcast",
            &kernels::head_broadcast(&s, &flat, heads),
            &kernels::head_broadcast(&p, &flat, heads),
        );
        assert_bit_identical(
            "feat_sum",
            &kernels::feat_sum(&s, &x, heads, feat),
            &kernels::feat_sum(&p, &x, heads, feat),
        );
        assert_bit_identical(
            "feat_broadcast",
            &kernels::feat_broadcast(&s, &gh, heads, feat),
            &kernels::feat_broadcast(&p, &gh, heads, feat),
        );

        assert_bit_identical(
            "slice_cols",
            &kernels::slice_cols(&s, &x, heads, feat, 0, feat.div_ceil(2)),
            &kernels::slice_cols(&p, &x, heads, feat, 0, feat.div_ceil(2)),
        );
        let sliced = kernels::slice_cols(&s, &x, heads, feat, 0, feat.div_ceil(2));
        assert_bit_identical(
            "embed_cols",
            &kernels::embed_cols(&s, &sliced, heads, feat, 0, feat.div_ceil(2)),
            &kernels::embed_cols(&p, &sliced, heads, feat, 0, feat.div_ceil(2)),
        );

        let mu = pseudo_tensor(heads, feat, seed + 9);
        let sig = pseudo_tensor(heads, feat, seed + 10);
        let ps = pseudo_tensor(m, feat, seed + 11);
        assert_bit_identical(
            "gaussian_weight",
            &kernels::gaussian_weight(&s, &ps, &mu, &sig),
            &kernels::gaussian_weight(&p, &ps, &mu, &sig),
        );
    }
}

/// End-to-end: a full GAT training step under a parallel session matches
/// the serial session bit-for-bit — outputs, every parameter gradient,
/// and the peak-memory accounting (parallelism must not change what the
/// session materializes).
#[test]
fn session_parallel_matches_serial_bitwise_including_peak_memory() {
    let g = Graph::from_edge_list(&EdgeList::from_pairs(
        40,
        &(0..180)
            .map(|i| ((i * 7 % 37) as u32, (i * 13 % 40) as u32))
            .collect::<Vec<_>>(),
    ));
    let spec = gat(&GatConfig {
        in_dim: 6,
        layers: vec![(2, 5), (1, 3)],
        negative_slope: 0.2,
        reorganized: false,
    })
    .expect("gat builds");
    let vals = spec.init_values(&g, 17);
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");

    let run = |policy: ExecPolicy| {
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(policy)
            .env(EnvOverrides::Off)
            .build()
            .expect("session");
        let mut b = Bindings::new();
        for (k, v) in &vals {
            b.insert(k, v.clone());
        }
        let out = sess.forward(&b).expect("forward");
        let grads = sess
            .backward(Tensor::ones(out[0].shape()))
            .expect("backward");
        (out, grads, sess.stats())
    };

    let (out_s, grads_s, stats_s) = run(ExecPolicy::serial());
    for threads in [2, 4, 5] {
        let (out_p, grads_p, stats_p) = run(ExecPolicy {
            threads,
            parallel_threshold: 0,
            ..ExecPolicy::auto()
        });
        assert_eq!(out_s.len(), out_p.len());
        for (a, b) in out_s.iter().zip(&out_p) {
            assert_bit_identical("session output", a, b);
        }
        assert_eq!(grads_s.len(), grads_p.len());
        for (k, gs) in &grads_s {
            assert_bit_identical(&format!("grad '{k}'"), gs, &grads_p[k]);
        }
        assert_eq!(
            stats_s.peak_value_bytes, stats_p.peak_value_bytes,
            "peak-memory accounting must not change under parallelism"
        );
        assert_eq!(
            stats_s.boundary_bytes, stats_p.boundary_bytes,
            "boundary accounting must not change under parallelism"
        );
        assert_eq!(stats_p.threads, threads, "RunStats records the pool size");
    }
    assert_eq!(stats_s.threads, 1);
}
