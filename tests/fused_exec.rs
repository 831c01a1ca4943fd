//! Memory realization of fused execution: the tiled interpreter must
//! turn the *predicted* fusion savings (which `gnnopt-sim` has always
//! reported) into *measured* `peak_value_bytes` drops on the CPU
//! executor — cross-checked against what the node-by-node oracle
//! materializes, the plan's planned arena and the lowered programs'
//! byte arithmetic.

use gnnopt::core::memplan::PERSISTENT;
use gnnopt::core::{compile, plan_memory, CompileOptions, ExecPolicy, Storage};
use gnnopt::exec::{refexec, Bindings, EnvOverrides, RunStats, Session};
use gnnopt::graph::{generators, Graph};
use gnnopt::models::{gat, GatConfig, ModelSpec};
use gnnopt::tensor::Tensor;

/// A GAT training workload big enough that its edge intermediates
/// dominate memory (~66k edges ≫ 4k vertices).
fn workload() -> (Graph, ModelSpec) {
    let graph = Graph::from_edge_list(&generators::rmat(12, 16, 0.57, 0.19, 0.19, 7));
    let spec = gat(&GatConfig {
        in_dim: 16,
        layers: vec![(2, 8)],
        negative_slope: 0.2,
        reorganized: true,
    })
    .expect("gat builds");
    (graph, spec)
}

fn bindings(graph: &Graph, spec: &ModelSpec) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(graph, 3) {
        b.insert(&k, v);
    }
    b
}

fn train_step(
    plan: &gnnopt::core::ExecutionPlan,
    graph: &Graph,
    b: &Bindings,
    threads: usize,
) -> (
    Vec<Tensor>,
    std::collections::HashMap<String, Tensor>,
    RunStats,
) {
    let mut sess = Session::builder(plan, graph)
        .policy(ExecPolicy {
            threads,
            ..ExecPolicy::auto()
        })
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let out = sess.forward(b).expect("forward");
    let grads = sess
        .backward(Tensor::ones(out[0].shape()))
        .expect("backward");
    (out, grads, sess.stats())
}

#[test]
fn gat_training_fused_realizes_the_predicted_memory_savings() {
    let (graph, spec) = workload();
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let plan = &compiled.plan;
    let b = bindings(&graph, &spec);

    let (out_f, grads_f, fused) = train_step(plan, &graph, &b, 2);
    let seed = Tensor::ones(out_f[0].shape());
    let oracle = refexec::evaluate(plan, &graph, &b, Some(&seed)).expect("oracle");

    // Same plan, same numbers: the ByDst tiling preserves per-vertex edge
    // order, so fused results are bit-identical at any thread count.
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&oracle.outputs[0]),
        bits(&out_f[0]),
        "outputs must be bit-identical"
    );
    for (k, g) in &oracle.grads {
        assert_eq!(
            bits(g),
            bits(&grads_f[k]),
            "grad '{k}' must be bit-identical"
        );
    }

    // The realized saving: edge-space intermediates no longer exist as
    // full tensors, so the measured peak sits strictly below what the
    // oracle materializes — by at least one full O(E·d) edge tensor on
    // this workload.
    assert_eq!(
        fused.fused_kernels,
        plan.kernels.len() as u64,
        "every kernel launches as a program"
    );
    let materialized = oracle.materialized_bytes;
    assert!(
        fused.peak_value_bytes < materialized,
        "fused peak {} must beat the {materialized} bytes the oracle materializes",
        fused.peak_value_bytes,
    );
    let edge_tensor = 4 * m as u64; // one [E, 1]-column tensor
    assert!(
        materialized - fused.peak_value_bytes >= edge_tensor,
        "saving {} smaller than one edge tensor {}",
        materialized - fused.peak_value_bytes,
        edge_tensor
    );

    // Scratch — the slots the workers actually held (aliased copies
    // hold none; `crates/exec/tests/fused.rs` pins the exact slot bytes
    // on one-tile programs) — is bounded by the tiling, far below the
    // internals it replaces.
    let internal_total: u64 = plan
        .programs
        .iter()
        .map(|p| p.internal_full_bytes(n, m))
        .sum();
    assert!(fused.scratch_bytes > 0);
    assert!(
        fused.scratch_bytes < internal_total / 4,
        "scratch {} should be a small fraction of the {} internal bytes it replaces",
        fused.scratch_bytes,
        internal_total
    );

    // Against the planner, the one memory accounting: the store never
    // holds more than the arena the plan reserves, and never less than
    // the regions the plan keeps to reset — leaves, stashes, outputs and
    // parameter gradients are all live at once when the step ends.
    let mem = plan_memory(plan, n, m, true);
    let kept: u64 = mem
        .regions
        .iter()
        .filter(|r| r.death == PERSISTENT)
        .map(|r| r.bytes)
        .sum();
    assert!(
        kept <= fused.peak_value_bytes && fused.peak_value_bytes <= mem.arena_bytes,
        "measured fused peak {} outside [kept {kept}, arena {}]",
        fused.peak_value_bytes,
        mem.arena_bytes
    );
    // The oracle, which materializes every kernel-internal node, must
    // sit above the planned arena by at least the internals of the
    // largest program.
    let internal_max: u64 = plan
        .programs
        .iter()
        .map(|p| p.internal_full_bytes(n, m))
        .max()
        .unwrap_or(0);
    assert!(
        materialized >= mem.arena_bytes + internal_max / 2,
        "oracle bytes {materialized} vs arena {} + internals {internal_max}",
        mem.arena_bytes
    );
}

#[test]
fn lowered_programs_classify_the_gat_plan_as_expected() {
    let (graph, spec) = workload();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
    let plan = &compiled.plan;
    // Lowering is total: every kernel — including singleton dense
    // kernels, which lower to one-step programs — has a program.
    assert_eq!(plan.programs.len(), plan.kernels.len());
    for (k, prog) in plan.kernels.iter().zip(&plan.programs) {
        assert!(!prog.steps.is_empty(), "kernel {} lowers", k.id);
        if k.nodes.len() == 1 && k.recompute.is_empty() {
            assert_eq!(prog.steps.len(), 1, "singleton kernel {} is one step", k.id);
        }
    }

    // Structural cross-check with the simulator's materialization
    // analysis: a program materializes exactly the nodes the plan says
    // leave the kernel — nothing more (no hidden full tensors besides
    // declared interior spills), nothing less (no missing boundaries).
    for (k, prog) in plan.kernels.iter().zip(&plan.programs) {
        let mut predicted = plan.materialized_nodes(k);
        predicted.sort_unstable();
        let mut got: Vec<_> = prog.materialized().collect();
        got.sort_unstable();
        assert_eq!(got, predicted, "kernel {} boundary set", k.id);
        for s in &prog.steps {
            if s.storage == Storage::Scratch {
                assert!(
                    !predicted.contains(&s.node),
                    "scratch step {} is a declared boundary",
                    s.node
                );
            }
        }
    }

    // The edge-space internals the tiled interpreter keeps on-chip are
    // the dominant predicted saving (> half of all internal bytes).
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let internal: u64 = plan
        .programs
        .iter()
        .map(|p| p.internal_full_bytes(n, m))
        .sum();
    let edge_internal: u64 = plan
        .programs
        .iter()
        .flat_map(|p| p.steps.iter())
        .filter(|s| s.storage == Storage::Scratch && s.space == gnnopt::core::Space::Edge)
        .map(|s| 4 * m as u64 * s.cols as u64)
        .sum();
    assert!(edge_internal * 2 > internal, "edge internals dominate");
    assert!(edge_internal > 0);
}
