//! The `GNNOPT_REORDER` contract of the session builder, isolated in its
//! own test binary: `std::env::set_var` races `getenv` from *any* concurrent
//! thread (glibc UB), and the executor reads the environment on every
//! auto-threaded kernel — so the one test that writes the variable runs
//! alone in its process.

use gnnopt_core::{compile, CompileOptions, ReorderPolicy};
use gnnopt_exec::Session;
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gcn, GcnConfig};

/// Garbage is a loud policy error, a valid strategy overrides a plan
/// that asked for identity, and `0` turns a requested reordering off.
#[test]
fn gnnopt_reorder_env_contract() {
    let spec = gcn(&GcnConfig {
        in_dim: 3,
        layer_dims: vec![2],
    })
    .expect("gcn builds");
    // A path graph: RCM genuinely permutes it.
    let pairs: Vec<(u32, u32)> = (0..9u32).map(|v| (v, v + 1)).collect();
    let graph = Graph::from_edge_list(&EdgeList::from_pairs(10, &pairs));
    let compiled = compile(&spec.ir, false, &CompileOptions::ours()).expect("compiles");
    let saved = std::env::var("GNNOPT_REORDER").ok();

    std::env::set_var("GNNOPT_REORDER", "sideways");
    let garbage = Session::builder(&compiled.plan, &graph).build();

    std::env::set_var("GNNOPT_REORDER", "rcm");
    let on = Session::builder(&compiled.plan, &graph)
        .build()
        .map(|s| s.reorder());

    std::env::set_var("GNNOPT_REORDER", "0");
    let off = Session::builder(&compiled.plan, &graph)
        .build()
        .map(|s| s.reorder());

    match saved {
        Some(v) => std::env::set_var("GNNOPT_REORDER", v),
        None => std::env::remove_var("GNNOPT_REORDER"),
    }

    match garbage {
        Err(gnnopt_exec::ExecError::Policy(msg)) => {
            assert!(msg.contains("GNNOPT_REORDER") && msg.contains("sideways"));
        }
        other => panic!("expected a policy error, got {other:?}"),
    }
    let on = on.expect("rcm session builds");
    assert_eq!(on.0, ReorderPolicy::Rcm);
    assert!(on.1 >= 0.0);
    assert_eq!(
        off.expect("identity session builds"),
        (ReorderPolicy::None, 0.0)
    );
}
