//! The `GNNOPT_GEMM` contract of the session builder, isolated in its own
//! test binary: `std::env::set_var` races `getenv` from *any* concurrent
//! thread (glibc UB), and the executor reads the environment on every
//! auto-threaded kernel — so the one test that writes the variable runs
//! alone in its process.

use gnnopt_core::{compile, CompileOptions, GemmKernel};
use gnnopt_exec::Session;
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{gcn, GcnConfig};

/// Garbage is a loud policy error; `naive` overrides a plan that carries
/// the blocked default; `blocked` spells the default explicitly.
#[test]
fn gnnopt_gemm_env_contract() {
    let spec = gcn(&GcnConfig {
        in_dim: 3,
        layer_dims: vec![2],
    })
    .expect("gcn builds");
    let pairs: Vec<(u32, u32)> = (0..9u32).map(|v| (v, v + 1)).collect();
    let graph = Graph::from_edge_list(&EdgeList::from_pairs(10, &pairs));
    let compiled = compile(&spec.ir, false, &CompileOptions::ours()).expect("compiles");
    let saved = std::env::var("GNNOPT_GEMM").ok();

    std::env::set_var("GNNOPT_GEMM", "turbo");
    let garbage = Session::builder(&compiled.plan, &graph).build();

    std::env::set_var("GNNOPT_GEMM", "naive");
    let naive = Session::builder(&compiled.plan, &graph)
        .build()
        .map(|s| s.policy().gemm);

    std::env::set_var("GNNOPT_GEMM", "blocked");
    let blocked = Session::builder(&compiled.plan, &graph)
        .build()
        .map(|s| s.policy().gemm);

    match saved {
        Some(v) => std::env::set_var("GNNOPT_GEMM", v),
        None => std::env::remove_var("GNNOPT_GEMM"),
    }

    match garbage {
        Err(gnnopt_exec::ExecError::Policy(msg)) => {
            assert!(msg.contains("GNNOPT_GEMM") && msg.contains("turbo"));
        }
        other => panic!("expected a policy error, got {other:?}"),
    }
    assert_eq!(naive.expect("naive session builds"), GemmKernel::Naive);
    assert_eq!(
        blocked.expect("blocked session builds"),
        GemmKernel::Blocked
    );
}
