//! The mapping autotuner only re-labels kernels (mapping + atomics); the
//! numerical results of the plan must be bit-identical before and after,
//! and the tuned plan must still execute end-to-end.

use gnnopt::bench::autotune_mappings;
use gnnopt::core::{compile, CompileOptions};
use gnnopt::exec::{Bindings, Session};
use gnnopt::graph::{generators, Graph};
use gnnopt::models::{edgeconv, gat, EdgeConvConfig, GatConfig};
use gnnopt::sim::Device;
use gnnopt::tensor::Tensor;

fn bindings_from(vals: &std::collections::HashMap<String, Tensor>) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    b
}

#[test]
fn tuned_plans_execute_identically() {
    let g = Graph::from_edge_list(&generators::rmat(6, 8, 0.6, 0.18, 0.18, 21));
    let stats = g.stats();
    let device = Device::rtx3090();
    let specs = vec![
        (
            "gat",
            gat(&GatConfig {
                in_dim: 6,
                layers: vec![(2, 5)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        (
            "edgeconv",
            edgeconv(&EdgeConvConfig {
                in_dim: 4,
                layer_dims: vec![6],
            })
            .unwrap(),
        ),
    ];
    for (name, spec) in specs {
        let vals = spec.init_values(&g, 31);
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");

        let mut sess = Session::builder(&compiled.plan, &g)
            .build()
            .expect("session");
        let out_before = sess.forward(&bindings_from(&vals)).expect("forward");
        let grads_before = sess
            .backward(Tensor::ones(out_before[0].shape()))
            .expect("backward");

        let mut tuned = compiled.plan.clone();
        let report = autotune_mappings(&mut tuned, &device, &stats);
        assert!(
            report.latency_after <= report.latency_before * (1.0 + 1e-12),
            "{name}: tuning may not slow the plan"
        );

        let mut sess = Session::builder(&tuned, &g).build().expect("tuned session");
        let out_after = sess.forward(&bindings_from(&vals)).expect("tuned forward");
        let grads_after = sess
            .backward(Tensor::ones(out_after[0].shape()))
            .expect("tuned backward");

        assert_eq!(
            out_before[0].as_slice(),
            out_after[0].as_slice(),
            "{name}: outputs must be bit-identical after tuning"
        );
        for (k, gb) in &grads_before {
            assert_eq!(
                gb.as_slice(),
                grads_after[k].as_slice(),
                "{name}: grad '{k}' must be bit-identical after tuning"
            );
        }
    }
}
