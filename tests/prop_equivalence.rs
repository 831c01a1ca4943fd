//! Property-based cross-preset equivalence: on *arbitrary* graphs and
//! dimensions, the optimized plan must agree with the baseline plan to
//! floating-point tolerance — outputs and gradients alike — and the
//! node-by-node oracle must agree with a default session bit for bit.

mod common;

use common::{arb_steps, build_ir};
use gnnopt::core::{compile, CompileOptions, OpKind, Preset};
use gnnopt::exec::{refexec, Bindings, Session};
use gnnopt::graph::{EdgeList, Graph};
use gnnopt::models::{gat, gcn, GatConfig, GcnConfig};
use gnnopt::tensor::{Tensor, XavierInit};
use proptest::prelude::*;

/// Arbitrary multigraphs with `iso` guaranteed isolated trailing vertices
/// (edges only touch the first `n`), so the executor's empty-group
/// identity semantics are exercised by every equivalence case.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..20, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..60)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

fn run(
    ir: &gnnopt::core::IrGraph,
    vals: &std::collections::HashMap<String, Tensor>,
    g: &Graph,
    preset: Preset,
) -> (Tensor, std::collections::HashMap<String, Tensor>) {
    let compiled = compile(ir, true, &CompileOptions::preset(preset)).expect("compiles");
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let mut sess = Session::builder(&compiled.plan, g)
        .build()
        .expect("session");
    let out = sess.forward(&b).expect("forward");
    let grads = sess
        .backward(Tensor::ones(out[0].shape()))
        .expect("backward");
    (out[0].clone(), grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gat_equivalent_on_arbitrary_graphs(
        g in arb_graph(), seed in 0u64..1000, heads in 1usize..3, feat in 1usize..6,
    ) {
        let spec = gat(&GatConfig {
            in_dim: 4,
            layers: vec![(heads, feat)],
            negative_slope: 0.2,
            reorganized: false,
        }).unwrap();
        let vals = spec.init_values(&g, seed);
        let (o1, g1) = run(&spec.ir, &vals, &g, Preset::Dgl);
        let (o2, g2) = run(&spec.ir, &vals, &g, Preset::Ours);
        prop_assert!(o1.allclose_with(&o2, 1e-3, 1e-3), "outputs differ by {}", o1.max_abs_diff(&o2));
        for (k, v) in &g1 {
            prop_assert!(v.allclose_with(&g2[k], 1e-2, 1e-2), "grad {k} differs by {}", v.max_abs_diff(&g2[k]));
        }
    }

    #[test]
    fn gcn_equivalent_on_arbitrary_graphs(
        g in arb_graph(), seed in 0u64..1000, hidden in 1usize..8,
    ) {
        let spec = gcn(&GcnConfig::two_layer(3, hidden, 2)).unwrap();
        let vals = spec.init_values(&g, seed);
        let (o1, g1) = run(&spec.ir, &vals, &g, Preset::Dgl);
        let (o2, g2) = run(&spec.ir, &vals, &g, Preset::Ours);
        prop_assert!(o1.allclose_with(&o2, 1e-3, 1e-3));
        for (k, v) in &g1 {
            prop_assert!(v.allclose_with(&g2[k], 1e-2, 1e-2), "grad {k}");
        }
    }

    /// `refexec::evaluate` and a default session agree bit for bit on
    /// random model IRs, outputs and every parameter gradient.
    #[test]
    fn oracle_matches_default_session_on_random_irs(
        steps in arb_steps(), g in arb_graph(), seed in 0u64..1000,
    ) {
        let ir = build_ir(&steps, 3);
        let compiled = compile(&ir, true, &CompileOptions::ours()).expect("compiles");
        let mut init = XavierInit::new(seed);
        let mut b = Bindings::new();
        for n in compiled.plan.ir.nodes() {
            let rows = match n.kind {
                OpKind::InputVertex => g.num_vertices(),
                OpKind::InputEdge => g.num_edges(),
                OpKind::Param => n.dim.heads,
                _ => continue,
            };
            let cols = if n.kind == OpKind::Param { n.dim.feat } else { n.dim.total() };
            b.insert(&n.name, init.uniform(&[rows, cols], -1.0, 1.0));
        }
        let mut sess = Session::builder(&compiled.plan, &g).build().expect("session");
        let out = sess.forward(&b).expect("forward");
        let seed = Tensor::ones(out[0].shape());
        let grads = sess.backward(seed.clone()).expect("backward");
        let oracle = refexec::evaluate(&compiled.plan, &g, &b, Some(&seed)).expect("oracle");

        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&oracle.outputs[0]), bits(&out[0]), "output bits");
        prop_assert_eq!(oracle.grads.len(), grads.len());
        for (k, v) in &oracle.grads {
            prop_assert_eq!(bits(v), bits(&grads[k]), "grad {} bits", k);
        }
    }
}
