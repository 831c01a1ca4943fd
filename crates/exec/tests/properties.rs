//! Property-based tests of the executor kernels: the scatter/gather
//! adjointness that underlies the Appendix B backward rules, and
//! softmax/recompute invariants on arbitrary graphs.

use gnnopt_core::{Dim, EdgeGroup, ExecPolicy, ReduceFn, ScatterFn};
use gnnopt_exec::Session;
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

/// Random graphs with `iso` guaranteed isolated trailing vertices (edges
/// only touch the first `n`), so the empty-group reduce contract is
/// always exercised alongside arbitrary multigraph topology.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..80)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

fn serial() -> ExecPolicy {
    ExecPolicy::serial()
}

fn vertex_tensor(g: &Graph, seed: u64, d: usize) -> Tensor {
    Tensor::from_fn(&[g.num_vertices(), d], |i| {
        (((i as u64 + seed) * 2654435761 % 101) as f32 - 50.0) / 25.0
    })
}

fn edge_tensor(g: &Graph, seed: u64, d: usize) -> Tensor {
    Tensor::from_fn(&[g.num_edges(), d], |i| {
        (((i as u64 + seed) * 40503 % 97) as f32 - 48.0) / 24.0
    })
}

use gnnopt_exec::ExecError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ⟨scatter_u(x), m⟩ over edges = ⟨x, gather_src(m)⟩ over vertices —
    /// the adjointness that makes `Gather(BySrc)` the backward of
    /// `Scatter(CopyU)` (Appendix B).
    #[test]
    fn scatter_gather_are_adjoint(g in arb_graph(), seed in 0u64..100, d in 1usize..5) {
        use gnnopt_exec::kernels::{gather, scatter};
        let x = vertex_tensor(&g, seed, d);
        let m = edge_tensor(&g, seed + 1, d);
        let sx = scatter(&serial(), &g, ScatterFn::CopyU, &x, &x, Dim::flat(d));
        let lhs: f32 = sx
            .as_slice()
            .iter()
            .zip(m.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let (gm, _) = gather(&serial(), &g, ReduceFn::Sum, EdgeGroup::BySrc, &m);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(gm.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// The dual adjointness for the destination direction.
    #[test]
    fn scatter_v_gather_dst_adjoint(g in arb_graph(), seed in 0u64..100, d in 1usize..5) {
        use gnnopt_exec::kernels::{gather, scatter};
        let y = vertex_tensor(&g, seed, d);
        let m = edge_tensor(&g, seed + 2, d);
        let sy = scatter(&serial(), &g, ScatterFn::CopyV, &y, &y, Dim::flat(d));
        let lhs: f32 = sy.as_slice().iter().zip(m.as_slice()).map(|(a, b)| a * b).sum();
        let (gm, _) = gather(&serial(), &g, ReduceFn::Sum, EdgeGroup::ByDst, &m);
        let rhs: f32 = y.as_slice().iter().zip(gm.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// Softmax groups always sum to 1 on non-empty groups, and a group's
    /// largest input gets its largest weight, exactly 1 over the
    /// denominator's `exp(0)` term.
    #[test]
    fn softmax_invariants(g in arb_graph(), seed in 0u64..100) {
        use gnnopt_exec::kernels::edge_softmax;
        let x = edge_tensor(&g, seed, 1);
        let y = edge_softmax(&g, &x);
        prop_assert!(y.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        for v in 0..g.num_vertices() {
            let ids = g.in_adj().edge_ids(v);
            if ids.is_empty() {
                continue;
            }
            let s: f32 = ids.iter().map(|&e| y.at(e as usize, 0)).sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "group {v} sums to {s}");
            let top = |t: &Tensor| {
                ids.iter().map(|&e| t.at(e as usize, 0)).fold(f32::NEG_INFINITY, f32::max)
            };
            let d: f32 = ids.iter().map(|&e| (x.at(e as usize, 0) - top(&x)).exp()).sum();
            prop_assert_eq!(top(&y).to_bits(), (1.0 / d).to_bits(), "group {}", v);
        }
    }

    /// Gather(Max) backward routes exactly the vertex gradient mass.
    #[test]
    fn gather_max_bwd_conserves_mass(g in arb_graph(), seed in 0u64..100, d in 1usize..4) {
        use gnnopt_exec::kernels::{gather, gather_max_bwd};
        let m = edge_tensor(&g, seed, d);
        let (_, am) = gather(&serial(), &g, ReduceFn::Max, EdgeGroup::ByDst, &m);
        let am = am.unwrap();
        let grad = vertex_tensor(&g, seed + 3, d);
        let eg = gather_max_bwd(&g, EdgeGroup::ByDst, &grad, &am);
        // Total mass routed = sum of grads over vertices with ≥1 in-edge.
        let expected: f32 = (0..g.num_vertices())
            .filter(|&v| g.in_degree(v) > 0)
            .map(|v| grad.row(v).iter().sum::<f32>())
            .sum();
        let got = eg.sum_all();
        prop_assert!((expected - got).abs() < 1e-2 * (1.0 + expected.abs()));
    }
}

#[test]
fn session_protocol_errors() {
    use gnnopt_core::{compile, CompileOptions};
    let mut ir = gnnopt_core::IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(2));
    let w = ir.param("w", 2, 2);
    let y = ir.linear(h, w).unwrap();
    ir.mark_output(y);
    let g = Graph::from_edge_list(&EdgeList::from_pairs(3, &[(0, 1)]));

    // Inference plan: backward() must be a protocol error.
    let inf = compile(&ir, false, &CompileOptions::ours()).unwrap();
    let mut sess = Session::builder(&inf.plan, &g).build().unwrap();
    assert!(matches!(
        sess.backward(Tensor::zeros(&[3, 2])),
        Err(ExecError::Protocol(_))
    ));

    // Missing binding.
    let mut sess = Session::builder(&inf.plan, &g).build().unwrap();
    let err = sess.forward(&gnnopt_exec::Bindings::new()).unwrap_err();
    assert!(matches!(err, ExecError::MissingBinding(_)));

    // Wrong shape.
    let b = gnnopt_exec::Bindings::new()
        .with("h", Tensor::zeros(&[3, 5]))
        .with("w", Tensor::zeros(&[2, 2]));
    let mut sess = Session::builder(&inf.plan, &g).build().unwrap();
    assert!(matches!(
        sess.forward(&b).unwrap_err(),
        ExecError::BindingShape { .. }
    ));

    // Training plan: backward before forward is a protocol error.
    let tr = compile(&ir, true, &CompileOptions::ours()).unwrap();
    let mut sess = Session::builder(&tr.plan, &g).build().unwrap();
    assert!(matches!(
        sess.backward(Tensor::zeros(&[3, 2])),
        Err(ExecError::Protocol(_))
    ));
}
