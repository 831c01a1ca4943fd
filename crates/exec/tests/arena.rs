//! Arena properties: serving the value store from the planner-seeded
//! buffer pool, with dying inputs freed mid-launch, changes no result.
//! Outputs and gradients are **bit-identical** to the node-by-node
//! oracle (`refexec::evaluate`), which allocates every tensor on the
//! heap and frees none, across the model zoo and thread counts, on
//! adversarial topologies (isolated vertices, extreme hubs), the
//! measured live-set peak never exceeds what the planner promised at
//! build, and the pool — plain and per shard — ends up holding exactly
//! the planned buffers plus the interpreter's bounded working set.

use gnnopt_core::lower::{StepExec, UnitKind};
use gnnopt_core::{compile, CompileOptions, ExecPolicy, OpKind};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, Session, ShardedSession};
use gnnopt_graph::{generators, EdgeList, Graph};
use gnnopt_models::{
    edgeconv, gat, gcn, sage, EdgeConvConfig, GatConfig, GcnConfig, ModelSpec, SageConfig,
};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

fn zoo() -> Vec<(&'static str, ModelSpec)> {
    vec![
        (
            "gat",
            gat(&GatConfig {
                in_dim: 6,
                layers: vec![(2, 4)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        ("gcn", gcn(&GcnConfig::two_layer(6, 8, 3)).unwrap()),
        ("sage", sage(&SageConfig::mean(6, vec![5])).unwrap()),
        (
            "sage-pool",
            sage(&SageConfig::max_pool(6, vec![5])).unwrap(),
        ),
        (
            "edgeconv",
            edgeconv(&EdgeConvConfig {
                in_dim: 6,
                layer_dims: vec![4],
            })
            .unwrap(),
        ),
    ]
}

/// Random multigraphs with `iso` guaranteed-isolated trailing vertices
/// (empty reduce groups) and an extreme hub: vertex 0 additionally
/// sources and sinks up to `hub` edges, so one liveness interval's
/// buffer dwarfs its neighbours and buffer reuse is stressed.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..16, 0usize..4, 0usize..48).prop_flat_map(|(n, iso, hub)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..48).prop_map(move |mut pairs| {
            for k in 0..hub {
                let other = (k % n) as u32;
                if k % 2 == 0 {
                    pairs.push((0, other));
                } else {
                    pairs.push((other, 0));
                }
            }
            Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs))
        })
    })
}

fn bindings(spec: &ModelSpec, g: &Graph, seed: u64) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(g, seed) {
        b.insert(&k, v.clone());
    }
    b
}

/// Runs one forward+backward in a fresh session and returns
/// `(outputs, grads, measured peak, planned peak)`.
#[allow(clippy::type_complexity)]
fn run(
    spec: &ModelSpec,
    g: &Graph,
    b: &Bindings,
    threads: usize,
) -> (Vec<Tensor>, Vec<(String, Tensor)>, u64, u64) {
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let policy = if threads == 1 {
        ExecPolicy::serial()
    } else {
        ExecPolicy::with_threads(threads)
    };
    let mut sess = Session::builder(&compiled.plan, g)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    let out = sess.forward(b).unwrap();
    let seed = Tensor::ones(out[0].shape());
    let mut grads: Vec<(String, Tensor)> = sess.backward(seed).unwrap().into_iter().collect();
    grads.sort_by(|a, b| a.0.cmp(&b.0));
    let stats = sess.stats();
    (out, grads, stats.peak_value_bytes, stats.planned_peak_bytes)
}

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The arena-truth check on one warmed session (a plain one, or a shard
/// of a sharded one): the last step missed nothing, the store lists —
/// tensors and argmax tables — took nothing from the heap beyond their
/// seeding, so every store buffer the steps cycled through was a planned
/// one of its own size class, and the working list holds no more than
/// the sum computed here from the programs: per tiled or streamed
/// segment one slab of tile slots at the largest tile the graph can cut
/// plus one reduction row, per full step its row scratch or its
/// chunk partials, per GEMM its panels.
fn assert_pool_holds_the_plan(what: &str, sess: &Session) {
    let acquired = sess.pool().acquired();
    assert_eq!(
        sess.stats().fallback_allocs,
        0,
        "{what}: a warmed step missed"
    );
    assert_eq!(
        (&acquired.f32s, &acquired.u32s),
        (&vec![], &vec![]),
        "{what}: store buffers beyond the plan's {:?}",
        sess.memory_plan().classes()
    );

    let (g, budget) = (sess.graph(), sess.policy().tile_edges.max(1));
    let (nv, ne) = (g.num_vertices(), g.num_edges());
    let hub = (0..nv).map(|v| g.in_adj().degree(v)).max().unwrap_or(0);
    let (tile_v, tile_e) = (nv.min(budget), ne.min(budget.max(hub)));
    // `gnnopt_tensor::gemm`: (NC + NW) × KC for `B`, (MC + MH) × KC for a
    // transposed `A`; `kernels::PARAM_REDUCE_CHUNK_ROWS` rows a partial.
    let panels = 4 * ((256 + 16) * 256 + (96 + 6) * 256) as u64;
    let partials = (nv.max(ne) as u64).div_ceil(1 << 14).max(1);
    let mut bound = 0u64;
    for prog in &sess.plan().programs {
        for unit in &prog.units {
            let step = |op: &gnnopt_core::lower::TileOp| &prog.steps[op.step];
            if unit.kind != UnitKind::Dense {
                let row = unit.ops.iter().map(|op| op.cols).max().unwrap_or(0);
                bound += 4 * (unit.slab_len((tile_v, tile_e)) + row) as u64;
            }
            for s in unit
                .ops
                .iter()
                .map(step)
                .filter(|s| s.exec == StepExec::Full)
            {
                bound += 4 * s.cols as u64 * partials;
                if matches!(
                    sess.plan().ir.node(s.node).kind,
                    OpKind::Linear | OpKind::LinearBwdWeight
                ) {
                    bound += panels;
                }
            }
        }
    }
    let held: u64 = acquired.work.iter().map(|&(c, n)| 4 * (c * n) as u64).sum();
    assert!(
        held <= bound,
        "{what}: working buffers {:?} hold {held} B, above the {bound} B the programs account for",
        acquired.work
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arena is true where it runs: after a cold and two warm steps
    /// a session's pool holds what its plan seeded and nothing else of
    /// the store's — on every zoo model, plain and over two shards (cut
    /// kernels and the shards' unequal local graphs included), on
    /// hub/isolated-vertex topologies.
    #[test]
    fn pool_holds_what_was_planned(
        g in arb_graph(),
        model in 0usize..5,
        seed in 0u64..50,
    ) {
        let (name, spec) = zoo().swap_remove(model);
        let b = bindings(&spec, &g, seed);
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let out = compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
        let ones = Tensor::ones(&[g.num_vertices(), out.dim.total()]);
        for shards in [1usize, 2] {
            let mut sess = ShardedSession::builder(&compiled.plan, &g)
                .shards(shards)
                .policy(ExecPolicy::serial())
                .env(EnvOverrides::Off)
                .build()
                .unwrap();
            for _ in 0..3 {
                sess.step(&b, &ones).unwrap();
            }
            for (i, shard) in sess.shards().iter().enumerate() {
                assert_pool_holds_the_plan(&format!("{name}, shard {i} of {shards}"), shard);
            }
        }
    }

    /// A session against the oracle: same bits out, for every model ×
    /// thread count, on hub/isolated-vertex topologies.
    #[test]
    fn arena_is_bit_identical_to_the_oracle(
        g in arb_graph(),
        model in 0usize..5,
        seed in 0u64..50,
    ) {
        let (name, spec) = zoo().swap_remove(model);
        let b = bindings(&spec, &g, seed);
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let shape = [g.num_vertices(), compiled.plan.ir.node(compiled.plan.ir.outputs()[0]).dim.total()];
        let oracle = refexec::evaluate(&compiled.plan, &g, &b, Some(&Tensor::ones(&shape))).unwrap();
        let mut gr_o: Vec<(String, Tensor)> = oracle.grads.into_iter().collect();
        gr_o.sort_by(|a, b| a.0.cmp(&b.0));
        for threads in [1usize, 4] {
            let (out_a, gr_a, peak_a, planned) = run(&spec, &g, &b, threads);
            prop_assert_eq!(out_a.len(), oracle.outputs.len());
            for (i, (a, o)) in out_a.iter().zip(&oracle.outputs).enumerate() {
                prop_assert!(
                    bits_equal(a, o),
                    "{}: output {} diverges (threads={})",
                    name, i, threads
                );
            }
            prop_assert_eq!(gr_a.len(), gr_o.len());
            for ((ka, a), (ko, o)) in gr_a.iter().zip(&gr_o) {
                prop_assert_eq!(ka, ko);
                prop_assert!(
                    bits_equal(a, o),
                    "{}: grad '{}' diverges (threads={})",
                    name, ka, threads
                );
            }
            prop_assert!(
                peak_a <= planned,
                "{}: measured peak {} exceeds planned {} (threads={})",
                name, peak_a, planned, threads
            );
        }
    }
}

/// Deterministic peak check on a denser fixed graph: the planner's
/// `planned_peak_bytes` is an upper bound on the executor's measured
/// `peak_value_bytes`, warm and cold.
#[test]
fn measured_peak_never_exceeds_planned() {
    let g = Graph::from_edge_list(&generators::erdos_renyi(128, 1280, 9));
    for (name, spec) in zoo() {
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let b = bindings(&spec, &g, 13);
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let out = sess.forward(&b).unwrap();
        let seed = Tensor::ones(out[0].shape());
        for _ in 0..3 {
            sess.step(&b, &seed).unwrap();
            let stats = sess.stats();
            assert!(
                stats.peak_value_bytes <= stats.planned_peak_bytes,
                "{name}: measured {} > planned {}",
                stats.peak_value_bytes,
                stats.planned_peak_bytes,
            );
        }
    }
}

/// `forward()`/`backward()` return caller-owned clones; building them
/// must not take planned buffers out of the session's pool, or the next
/// step misses. A warmed loop reports no fallback allocation and a
/// constant miss counter.
#[test]
fn warmed_forward_backward_loop_never_misses_the_pool() {
    let g = Graph::from_edge_list(&generators::erdos_renyi(128, 1280, 9));
    for (name, spec) in zoo() {
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let b = bindings(&spec, &g, 13);
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let out = sess.forward(&b).unwrap();
        let seed = Tensor::ones(out[0].shape());
        sess.backward(seed.clone()).unwrap();
        let warmed = sess.pool().misses();
        for step in 0..5 {
            let out = sess.forward(&b).unwrap();
            let grads = sess.backward(seed.clone()).unwrap();
            assert_eq!(sess.stats().fallback_allocs, 0, "{name}: step {step}");
            assert_eq!(sess.pool().misses(), warmed, "{name}: step {step}");
            drop((out, grads));
        }
    }
}

/// Segment-granular liveness on APPNP's propagation backward: each
/// hop's gradient kernel streams its wide `BySrc` gather (stage 0, the
/// last reader of the incoming hop gradient) and then applies the
/// activation's backward to it (stage 1). The input dies where it was
/// last read and the output is born where it is produced, so the output
/// takes the input's slot — same offset, disjoint stages — and the
/// `V[feat]` size class holds one slot fewer than kernel-granular
/// positions would charge it.
#[test]
fn a_backward_output_reuses_the_slot_its_dying_input_released() {
    use gnnopt_core::lower::UnitKind;
    use gnnopt_core::{plan_memory, MemRegion};
    let spec = gnnopt_models::appnp(&gnnopt_models::AppnpConfig::standard(6, 4, 3)).unwrap();
    let plan = compile(&spec.ir, true, &CompileOptions::ours())
        .unwrap()
        .plan;
    let mp = plan_memory(&plan, 96, 960, true);
    let kinds = |p: &gnnopt_core::KernelProgram| p.units.iter().map(|u| u.kind).collect::<Vec<_>>();
    let streams =
        |p: &&gnnopt_core::KernelProgram| kinds(p) == [UnitKind::Streamed, UnitKind::Tile];
    let dies = |n, p| mp.regions.iter().any(|r| r.node == n && r.death == p);
    // The input released after stage 0, the output born at stage 1.
    let dying = |p: &gnnopt_core::KernelProgram| {
        let at_0 = mp.kernel_positions(p.kernel).start;
        let mut ins = p.inputs.iter();
        ins.find(|&&(n, at)| at == 0 && dies(n, at_0))
            .map(|&(n, _)| n)
    };
    let prog = plan
        .programs
        .iter()
        .filter(streams)
        .find(|p| dying(p).is_some());
    let prog = prog.expect("a hop's shape");
    let (span, input) = (mp.kernel_positions(prog.kernel), dying(prog).unwrap());
    let region = |n| mp.regions.iter().find(|r| r.node == n).unwrap();
    let output = prog.materialized().next().expect("one boundary value");
    let (r_in, r_out) = (region(input), region(output));
    assert_eq!(r_out.birth, span.start + 1, "born with its segment");
    assert_eq!(
        (r_out.offset, r_out.bytes),
        (r_in.offset, r_in.bytes),
        "{r_out:?} takes the slot {r_in:?} released"
    );

    // What kernel-granular positions would hold in that class: lifetimes
    // widened to whole launches.
    let kernel_of = |p: usize| {
        let owns = |&k: &usize| mp.kernel_positions(k).contains(&p);
        (0..plan.kernels.len()).find(owns).unwrap()
    };
    let widened = |r: &MemRegion| {
        let end = |p| mp.kernel_positions(kernel_of(p)).end - 1;
        let death = (r.death != usize::MAX).then(|| end(r.death));
        (
            mp.kernel_positions(kernel_of(r.birth)).start,
            death.unwrap_or(usize::MAX),
        )
    };
    let class: Vec<(usize, usize)> = mp
        .regions
        .iter()
        .filter(|r| r.bytes == r_in.bytes)
        .map(widened)
        .collect();
    let live_at = |p: usize| class.iter().filter(|&&(b, d)| b <= p && p <= d).count();
    let kernel_granular = (0..mp.positions).map(live_at).max().unwrap();
    let slots = mp
        .classes()
        .iter()
        .find(|&&(bytes, _)| bytes == r_in.bytes)
        .unwrap()
        .1;
    assert_eq!(slots + 1, kernel_granular, "one buffer of the class fewer");
}

/// The planner reads the stage table the interpreter runs by, zoo-wide:
/// a region is born at its step's stage — never before its segment
/// starts — is alive at every stage that reads it, and ends with the
/// last of them (a launch-transient or unread value, with its kernel).
#[test]
fn regions_follow_the_stage_table() {
    use gnnopt_core::{plan_memory, Preset};
    for (name, spec) in zoo() {
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            for training in [false, true] {
                let what = format!("{name}/{preset:?}/training={training}");
                let plan = compile(&spec.ir, training, &CompileOptions::preset(preset))
                    .unwrap()
                    .plan;
                let mp = plan_memory(&plan, 96, 960, true);
                for (kid, prog) in plan.programs.iter().enumerate() {
                    let span = mp.kernel_positions(kid);
                    let born_here = |r: &&gnnopt_core::MemRegion| span.contains(&r.birth);
                    for r in mp.regions.iter().filter(born_here) {
                        let Some(step) = prog.steps.iter().find(|s| s.node == r.node) else {
                            continue; // a leaf, bound before kernel 0's prelude
                        };
                        assert_eq!(r.birth, span.start + step.stage, "{what}: {r:?}");
                        if r.death == usize::MAX {
                            continue;
                        }
                        // Every stage of every later launch that reads it.
                        let reads = plan.programs.iter().enumerate().flat_map(|(k, p)| {
                            let at = p.inputs.iter().find(|&&(n, _)| n == r.node);
                            at.map(|&(_, stage)| mp.kernel_positions(k).start + stage)
                        });
                        let last = reads.filter(|&p| p > r.birth).max();
                        assert_eq!(
                            r.death,
                            last.unwrap_or(span.end - 1),
                            "{what}: {r:?} does not end with its last reading stage"
                        );
                    }
                }
            }
        }
    }
}
