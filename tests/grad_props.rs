//! Gradient property tests on randomly generated model IRs: the
//! autodiff-derived parameter gradients (executed through the *fully
//! optimized* plan — reorganization + fusion + recomputation) must match
//! central finite differences, and every preset must agree with the DGL
//! baseline on the same random model.

mod common;

use common::{arb_steps, build_ir, oracle};
use gnnopt::core::{compile, CompileOptions, Dim, ExecPolicy, IrGraph, Preset};
use gnnopt::exec::{Bindings, EnvOverrides, Session};
use gnnopt::graph::{generators, Graph};
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

fn bindings_from(vals: &HashMap<String, Tensor>) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    b
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A factorized weight, `x · (p1 · p2)`: `∂p1` is the input dual of a
/// product whose data operand is itself a parameter — a parameter-space
/// `g · p2ᵀ`. Every gradient element matches central differences, and a
/// session at one and four threads matches the oracle bit for bit.
#[test]
fn factorized_weight_matches_finite_differences_and_the_oracle() {
    let mut ir = IrGraph::new();
    let x = ir.input_vertex("x", Dim::flat(1));
    let p1 = ir.param("p1", 1, 3);
    let p2 = ir.param("p2", 3, 4);
    let w = ir.linear(p1, p2).unwrap();
    let y = ir.linear(x, w).unwrap();
    ir.mark_output(y);
    let g = Graph::from_edge_list(&generators::erdos_renyi(12, 40, 5));
    let vals = leaf_values(&ir, &g, 5);
    let compiled = compile(&ir, true, &CompileOptions::ours()).expect("compiles");
    let (want_out, want_grads) = oracle(&ir, &vals, &g);
    for threads in [1, 4] {
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(ExecPolicy {
                threads,
                parallel_threshold: 0,
                ..ExecPolicy::serial()
            })
            .env(EnvOverrides::Off)
            .build()
            .expect("session");
        let out = sess.forward(&bindings_from(&vals)).expect("forward");
        let grads = sess
            .backward(Tensor::ones(out[0].shape()))
            .expect("backward");
        assert_eq!(bits(&out[0]), bits(&want_out), "t{threads}: output");
        assert_eq!(grads.len(), 2);
        for (k, gr) in &want_grads {
            assert_eq!(bits(&grads[k]), bits(gr), "t{threads}: grad '{k}'");
        }
    }
    let forward_sum = |vals: &HashMap<String, Tensor>| -> f32 {
        let mut sess = Session::builder(&compiled.plan, &g)
            .build()
            .expect("session");
        sess.forward(&bindings_from(vals)).expect("forward")[0].sum_all()
    };
    let h = 1e-2f32;
    for (pname, grad) in &want_grads {
        for i in 0..grad.numel() {
            let mut probe = vals.clone();
            let base = probe[pname].as_slice()[i];
            probe.get_mut(pname).unwrap().as_mut_slice()[i] = base + h;
            let fp = forward_sum(&probe);
            probe.get_mut(pname).unwrap().as_mut_slice()[i] = base - h;
            let fm = forward_sum(&probe);
            let (numeric, analytic) = ((fp - fm) / (2.0 * h), grad.as_slice()[i]);
            assert!(
                (numeric - analytic).abs() <= 1e-2 * (1.0 + analytic.abs()),
                "fd grad of '{pname}'[{i}] = {numeric}, analytic = {analytic}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// FD check of the first element of every parameter gradient, run
    /// through the fully optimized plan.
    #[test]
    fn optimized_gradients_match_finite_differences(
        steps in arb_steps(),
        seed in 0u64..500,
    ) {
        let ir = build_ir(&steps, 3);
        let g = Graph::from_edge_list(&generators::erdos_renyi(12, 40, seed));
        let vals = leaf_values(&ir, &g, seed);
        let compiled = compile(&ir, true, &CompileOptions::ours()).expect("compiles");

        let forward_sum = |vals: &HashMap<String, Tensor>| -> f32 {
            let mut sess = Session::builder(&compiled.plan, &g).build().expect("session");
            sess.forward(&bindings_from(vals)).expect("forward")[0].sum_all()
        };
        let mut sess = Session::builder(&compiled.plan, &g).build().expect("session");
        let out = sess.forward(&bindings_from(&vals)).expect("forward");
        let grads = sess
            .backward(Tensor::ones(out[0].shape()))
            .expect("backward");

        let h = 1e-2f32;
        for (pname, grad) in &grads {
            let mut probe = vals.clone();
            let base = probe[pname].as_slice()[0];
            probe.get_mut(pname).unwrap().as_mut_slice()[0] = base + h;
            let fp = forward_sum(&probe);
            probe.get_mut(pname).unwrap().as_mut_slice()[0] = base - h;
            let fm = forward_sum(&probe);
            let numeric = (fp - fm) / (2.0 * h);
            let analytic = grad.as_slice()[0];
            // LeakyReLU kinks and f32 give FD limited precision; a
            // relative band is the meaningful check.
            prop_assert!(
                (numeric - analytic).abs() <= 0.15 * (1.0 + analytic.abs().max(numeric.abs())),
                "fd grad of '{pname}' = {numeric}, analytic = {analytic} (steps {steps:?})"
            );
        }
    }

    /// All presets produce identical outputs and gradients on random IRs.
    #[test]
    fn presets_agree_on_random_models(
        steps in arb_steps(),
        seed in 0u64..500,
    ) {
        let ir = build_ir(&steps, 4);
        let g = Graph::from_edge_list(&generators::erdos_renyi(10, 30, seed));
        let vals = leaf_values(&ir, &g, seed);

        let mut results = Vec::new();
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            let compiled =
                compile(&ir, true, &CompileOptions::preset(preset)).expect("compiles");
            let mut sess = Session::builder(&compiled.plan, &g).build().expect("session");
            let out = sess.forward(&bindings_from(&vals)).expect("forward");
            let grads = sess
                .backward(Tensor::ones(out[0].shape()))
                .expect("backward");
            results.push((out[0].clone(), grads));
        }
        let (base_out, base_grads) = &results[0];
        for (out, grads) in &results[1..] {
            prop_assert!(
                out.allclose_with(base_out, 1e-4, 1e-4),
                "outputs diverge by {}",
                out.max_abs_diff(base_out)
            );
            prop_assert_eq!(grads.len(), base_grads.len());
            for (k, v) in grads {
                prop_assert!(
                    v.allclose_with(&base_grads[k], 1e-3, 1e-3),
                    "grad '{}' diverges by {}",
                    k,
                    v.max_abs_diff(&base_grads[k])
                );
            }
        }
    }
}
