//! Lowering totality: every kernel of every plan lowers to a
//! [`gnnopt_core::KernelProgram`] — a session has no other way to run a
//! kernel, launches exactly one program per kernel, and refuses a plan
//! without programs with a typed error — and cluster-scheduled execution
//! is bit-identical to the node-by-node oracle on adversarial graphs
//! (isolated vertices, extreme hubs) at one and four threads.

mod common;

use common::{arb_steps, build_ir, plan_oracle, zoo};
use gnnopt::core::lower::{is_streamed_gather, StepExec, UnitKind};
use gnnopt::core::op::FusionClass;
use gnnopt::core::{compile, CompileOptions, ExecPolicy, ExecutionPlan, OpKind, Preset, Space};
use gnnopt::exec::{refexec, Bindings, EnvOverrides, ExecError, Session};
use gnnopt::graph::{generators, EdgeList, Graph};
use gnnopt::models::*;
use gnnopt::tensor::{Tensor, XavierInit};
use proptest::prelude::*;
use std::collections::HashMap;

/// Runs `check(tag, plan)` on every zoo model × preset × phase.
fn for_each_zoo_plan(check: impl Fn(&str, &ExecutionPlan)) {
    for (name, spec) in zoo() {
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            for training in [false, true] {
                let compiled =
                    compile(&spec.ir, training, &CompileOptions::preset(preset)).unwrap();
                let tag = format!("{name}/{preset:?}/training={training}");
                check(&tag, &compiled.plan);
            }
        }
    }
}

/// Every kernel of every zoo model × preset × phase has a lowered
/// program — the invariant the CI fallback gate enforces.
#[test]
fn every_zoo_kernel_lowers() {
    for_each_zoo_plan(|tag, plan| {
        assert_eq!(
            plan.programs.len(),
            plan.kernels.len(),
            "{tag}: lowering must be total"
        );
        for (k, prog) in plan.kernels.iter().zip(&plan.programs) {
            assert!(
                !prog.steps.is_empty(),
                "{tag}: kernel {} lowered empty",
                k.id
            );
        }
    });
}

/// One engine per op: the tile driver runs every graph op and every
/// row-local one, alone in its kernel or fused. What is left to the dense
/// dispatch (`StepExec::Full` outside a streamed segment) is the GEMMs,
/// cross-row parameter reductions and parameter-space steps — nothing
/// else, on any zoo model × preset × phase.
#[test]
fn full_steps_cannot_tile() {
    for_each_zoo_plan(|tag, plan| {
        assert_eq!(dense_tile_ops(plan), Vec::<String>::new(), "{tag}");
        let ir = &plan.ir;
        for step in plan.programs.iter().flat_map(|p| &p.steps) {
            let node = ir.node(step.node);
            if step.exec != StepExec::Full || is_streamed_gather(&node.kind) {
                continue;
            }
            let dense = match &node.kind {
                OpKind::Linear
                | OpKind::LinearBwdWeight
                | OpKind::HeadDotBwdParam
                | OpKind::GaussianBwdMu
                | OpKind::GaussianBwdSigma => true,
                _ => node.space == Space::Param,
            };
            assert!(
                dense,
                "{tag}: `{}` runs whole but a tile could run it",
                node.name
            );
        }
    });
}

/// The row-local and graph ops — every fusible op outside parameter
/// space — whose program units are dense calls: none, on every preset,
/// whatever the op's name — the dense set is closed on random IRs too.
fn dense_tile_ops(plan: &ExecutionPlan) -> Vec<String> {
    let units = plan.programs.iter().flat_map(|p| {
        let dense = p.units.iter().filter(|u| u.kind == UnitKind::Dense);
        dense.flat_map(move |u| u.ops.iter().map(move |op| p.steps[op.step].node))
    });
    let nodes = units.map(|id| plan.ir.node(id));
    nodes
        .filter(|n| n.kind.fusion_class() == FusionClass::Fusible && n.space != Space::Param)
        .map(|n| n.name.clone())
        .collect()
}

/// Every zoo model × preset × phase launches exactly
/// `plan.kernels.len()` programs: the interpreter is the only executor,
/// for the baseline presets as much as for `Ours`.
#[test]
fn sessions_launch_one_program_per_kernel() {
    let g = Graph::from_edge_list(&generators::erdos_renyi(32, 160, 9));
    for (name, spec) in zoo() {
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            for training in [false, true] {
                let compiled =
                    compile(&spec.ir, training, &CompileOptions::preset(preset)).unwrap();
                let plan = &compiled.plan;
                let mut b = Bindings::new();
                for (k, v) in spec.init_values(&g, 4) {
                    b.insert(&k, v);
                }
                let mut sess = Session::builder(plan, &g)
                    .env(EnvOverrides::Off)
                    .build()
                    .unwrap();
                let out = sess.forward(&b).unwrap();
                if training {
                    sess.backward(Tensor::ones(out[0].shape())).unwrap();
                }
                assert_eq!(
                    sess.stats().fused_kernels,
                    plan.kernels.len() as u64,
                    "{name}/{preset:?}/training={training}: one launch per kernel"
                );
            }
        }
    }
}

/// The materializing baselines are plans, not executor modes: every
/// fusion level × recompute scope × reorg choice must run on the one
/// executor and agree with the oracle bit for bit. (Unfused plans with
/// `RecomputeScope::All` used to lose a forward intermediate that a
/// backward kernel also recomputes.)
#[test]
fn every_fusion_and_recompute_level_matches_the_oracle() {
    use gnnopt::core::{FusionLevel, RecomputeScope};
    let g = Graph::from_edge_list(&generators::erdos_renyi(24, 96, 5));
    for (name, spec) in zoo() {
        let mut b = Bindings::new();
        for (k, v) in spec.init_values(&g, 4) {
            b.insert(&k, v);
        }
        for fusion in [
            FusionLevel::None,
            FusionLevel::DglBuiltin,
            FusionLevel::EdgeOnly,
            FusionLevel::Unified,
        ] {
            for recompute in [
                RecomputeScope::None,
                RecomputeScope::FusedInternalsOnly,
                RecomputeScope::All,
            ] {
                for reorg in [false, true] {
                    let tag = format!("{name}/{fusion:?}/{recompute:?}/reorg={reorg}");
                    let opts = CompileOptions {
                        fusion,
                        recompute,
                        reorg,
                        ..CompileOptions::ours()
                    };
                    let plan = compile(&spec.ir, true, &opts).unwrap().plan;
                    let mut sess = Session::builder(&plan, &g)
                        .policy(ExecPolicy::serial())
                        .env(EnvOverrides::Off)
                        .build()
                        .unwrap();
                    let out = sess.forward(&b).unwrap_or_else(|e| panic!("{tag}: {e}"));
                    let seed = Tensor::ones(out[0].shape());
                    let grads = sess.backward(seed.clone()).unwrap();
                    let oracle = refexec::evaluate(&plan, &g, &b, Some(&seed)).unwrap();
                    assert_eq!(bits(&oracle.outputs[0]), bits(&out[0]), "{tag}: output");
                    for (k, gr) in &oracle.grads {
                        assert_eq!(bits(gr), bits(&grads[k]), "{tag}: grad '{k}'");
                    }
                }
            }
        }
    }
}

/// A plan assembled without lowering (empty `programs`, as a pass-by-pass
/// harness builds it before calling `lower_plan`) is refused with a typed
/// error at the first kernel instead of being run some other way.
#[test]
fn plan_without_programs_is_refused_at_the_first_kernel() {
    let g = Graph::from_edge_list(&generators::erdos_renyi(16, 48, 3));
    let spec = gcn(&GcnConfig::two_layer(4, 6, 3)).unwrap();
    let mut plan = compile(&spec.ir, true, &CompileOptions::ours())
        .unwrap()
        .plan;
    plan.programs.clear();
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(&g, 4) {
        b.insert(&k, v);
    }
    let mut sess = Session::builder(&plan, &g)
        .env(EnvOverrides::Off)
        .build()
        .expect("building needs no programs");
    match sess.forward(&b) {
        Err(ExecError::Protocol(msg)) => {
            assert!(
                msg.contains("K0") && msg.contains("no lowered program"),
                "{msg}"
            );
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    assert!(!sess.poisoned(), "a refusal is not a contained panic");
}

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

fn run(
    plan: &ExecutionPlan,
    vals: &HashMap<String, Tensor>,
    g: &Graph,
    threads: usize,
) -> (Tensor, HashMap<String, Tensor>) {
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    let mut sess = Session::builder(plan, g)
        .policy(ExecPolicy {
            threads,
            parallel_threshold: 0,
            ..ExecPolicy::serial()
        })
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let out = sess.forward(&b).expect("forward");
    let grads = sess
        .backward(Tensor::ones(out[0].shape()))
        .expect("backward");
    (out[0].clone(), grads)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Random edges plus a guaranteed extreme hub (every vertex feeds vertex
/// 0) plus trailing isolated vertices.
fn hub_graph(n: usize, extra: &[(u32, u32)], iso: usize) -> Graph {
    let mut pairs: Vec<(u32, u32)> = (1..n as u32).map(|u| (u, 0)).collect();
    pairs.extend_from_slice(extra);
    pairs.sort_unstable();
    pairs.dedup();
    Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cluster-scheduled execution of *random* model IRs is bit-identical
    /// to the node-by-node oracle — outputs and every gradient — on
    /// hub-heavy graphs with isolated vertices, at one and four threads,
    /// for the reorganized plan (`Ours`) and the unreorganized one
    /// (`Dgl`) alike: a concat-dot step runs as two vertex scores in one
    /// and whole on the edges in the other.
    #[test]
    fn cluster_programs_match_reference_bit_for_bit(
        steps in arb_steps(),
        extra in proptest::collection::vec((0u32..12, 0u32..12), 0..40),
        seed in 0u64..1000,
        iso in 0usize..4,
    ) {
        let ir = build_ir(&steps, 3);
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            let plan = compile(&ir, true, &CompileOptions::preset(preset)).unwrap().plan;
            let dense = dense_tile_ops(&plan);
            prop_assert!(dense.is_empty(), "{:?}: dense tile ops {:?}", preset, dense);
        }
        let g = hub_graph(12, &extra, iso);
        let vals = leaf_values(&ir, &g, seed);
        for preset in [Preset::Dgl, Preset::Ours] {
            let plan = compile(&ir, true, &CompileOptions::preset(preset)).unwrap().plan;
            let (ref_out, ref_grads) = plan_oracle(&plan, &vals, &g);
            for threads in [1usize, 4] {
                let (out, grads) = run(&plan, &vals, &g, threads);
                prop_assert_eq!(
                    bits(&ref_out),
                    bits(&out),
                    "{:?} t{}: output must be bit-identical",
                    preset, threads
                );
                for (k, gr) in &ref_grads {
                    prop_assert_eq!(
                        bits(gr),
                        bits(&grads[k]),
                        "{:?} t{}: grad '{}' must be bit-identical",
                        preset, threads, k
                    );
                }
            }
        }
    }
}
