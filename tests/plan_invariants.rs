//! Plan-level invariants that hold for every model × preset × topology:
//! schedules respect dependencies, the plan's stash accounting is
//! consistent with the executor's measured live set, stash contents obey
//! the §6 policy, and optimized plans never cost more — in simulated
//! latency or in the planned arena a session reserves.

use gnnopt::core::{compile, CompileOptions, OpKind, Preset, ProgramStep, Space, Storage};
use gnnopt::exec::{Bindings, Session};
use gnnopt::graph::{generators, Graph};
use gnnopt::models::*;
use gnnopt::sim::Device;
use gnnopt::tensor::Tensor;

fn all_specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        (
            "gat",
            gat(&GatConfig {
                in_dim: 8,
                layers: vec![(2, 6)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        (
            "edgeconv",
            edgeconv(&EdgeConvConfig {
                in_dim: 4,
                layer_dims: vec![8],
            })
            .unwrap(),
        ),
        (
            "monet",
            monet(&MonetConfig {
                in_dim: 6,
                layer_dims: vec![4],
                kernels: 2,
                pseudo_dim: 2,
            })
            .unwrap(),
        ),
        ("gcn", gcn(&GcnConfig::two_layer(4, 6, 3)).unwrap()),
        ("sage", sage(&SageConfig::mean(4, vec![6])).unwrap()),
        (
            "sage-pool",
            sage(&SageConfig::max_pool(4, vec![6])).unwrap(),
        ),
    ]
}

#[test]
fn schedules_respect_dependencies() {
    for (name, spec) in all_specs() {
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            for training in [false, true] {
                let compiled =
                    compile(&spec.ir, training, &CompileOptions::preset(preset)).unwrap();
                let plan = &compiled.plan;
                let mut seen: Vec<usize> = Vec::new();
                for k in &plan.kernels {
                    for &n in k.nodes.iter().chain(&k.recompute) {
                        for &i in &plan.ir.node(n).inputs {
                            let is_leaf = plan.ir.node(i).inputs.is_empty()
                                && matches!(
                                    plan.ir.node(i).kind,
                                    gnnopt::core::OpKind::InputVertex
                                        | gnnopt::core::OpKind::InputEdge
                                        | gnnopt::core::OpKind::Param
                                        | gnnopt::core::OpKind::GradSeed
                                );
                            assert!(
                                is_leaf
                                    || seen.contains(&i)
                                    || k.nodes.contains(&i)
                                    || k.recompute.contains(&i),
                                "{name}/{preset:?}: node {i} used before production"
                            );
                        }
                    }
                    seen.extend(k.nodes.iter().copied());
                    seen.extend(k.recompute.iter().copied());
                }
            }
        }
    }
}

#[test]
fn ours_stash_holds_no_edge_tensors() {
    // §6: with recomputation, nothing O(|E|) survives the boundary
    // (edge-softmax keeps only O(|V|) auxiliaries).
    for (name, spec) in all_specs() {
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        for &s in &compiled.plan.stash {
            assert_ne!(
                compiled.plan.ir.node(s).space,
                Space::Edge,
                "{name}: edge tensor '{}' stashed under full recomputation",
                compiled.plan.ir.node(s).name
            );
        }
    }
}

#[test]
fn simulated_cost_never_worse_than_dgl() {
    let device = Device::rtx3090();
    let stats = gnnopt::graph::GraphStats::synthesize_power_law(5000, 30.0, 0.8);
    for (name, spec) in all_specs() {
        let dgl = compile(&spec.ir, true, &CompileOptions::dgl()).unwrap();
        let ours = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let sd = dgl.plan.exec_stats(&device, &stats);
        let so = ours.plan.exec_stats(&device, &stats);
        assert!(
            so.latency <= sd.latency * 1.02,
            "{name}: ours latency {} vs dgl {}",
            so.latency,
            sd.latency
        );
        // The planned arenas: what a session on each plan reserves.
        assert!(
            so.peak_memory <= sd.peak_memory,
            "{name}: ours memory {} vs dgl {}",
            so.peak_memory,
            sd.peak_memory
        );
        assert!(so.kernels <= sd.kernels, "{name}: more kernels than DGL");
    }
}

#[test]
fn executor_live_set_tracks_plan_stash() {
    // The executor's measured boundary bytes must stay within the plan's
    // analytic stash accounting (same graph, so both are exact counts).
    let g = Graph::from_edge_list(&generators::erdos_renyi(64, 640, 3));
    let stats = g.stats();
    let device = Device::rtx3090();
    for (name, spec) in all_specs() {
        let vals = spec.init_values(&g, 5);
        for preset in [Preset::Dgl, Preset::Ours] {
            let compiled = compile(&spec.ir, true, &CompileOptions::preset(preset)).unwrap();
            let stash_bytes = compiled.plan.exec_stats(&device, &stats).stashed_bytes;
            let mut b = Bindings::new();
            for (k, v) in &vals {
                b.insert(k, v.clone());
            }
            let mut sess = Session::builder(&compiled.plan, &g).build().unwrap();
            let out = sess.forward(&b).unwrap();
            let measured = sess.stats().boundary_bytes;
            sess.backward(Tensor::ones(out[0].shape())).unwrap();
            // Measured boundary additionally holds inputs/params/outputs;
            // the plan's stash figure must be a lower bound.
            assert!(
                stash_bytes <= measured,
                "{name}/{preset:?}: plan stash {stash_bytes} exceeds measured boundary {measured}"
            );
        }
    }
}

#[test]
fn memory_plan_never_aliases_and_bounds_the_live_set() {
    // Static memory planner invariants, zoo-wide: two regions may share
    // arena bytes only if their [birth, death] intervals are disjoint,
    // every region lies inside the arena and is exactly its request (one
    // size class serves it), `arena_bytes` dominates the
    // tightest-possible live-set peak, a step streamed into a gather has
    // no region, and a softmax has none beyond its own output: its
    // statistics live only while a tile sweeps its groups.
    use gnnopt::core::{plan_memory, MemRegion, OpKind};
    let live = |r: &MemRegion, p: usize| r.birth <= p && (r.death == usize::MAX || p <= r.death);
    let mut streamed_roots = Vec::new();
    for (name, spec) in all_specs() {
        for preset in [Preset::Dgl, Preset::Ours] {
            for training in [false, true] {
                let compiled =
                    compile(&spec.ir, training, &CompileOptions::preset(preset)).unwrap();
                let mp = plan_memory(&compiled.plan, 96, 960, true);
                // Regions born at one of a kernel's positions (its
                // stages) are the ones its program's steps take.
                let plan = &compiled.plan;
                for (kid, prog) in plan.programs.iter().enumerate() {
                    let stages = mp.kernel_positions(kid);
                    assert_eq!(stages.len(), prog.units.len(), "{name}: kernel {kid}");
                    let born = |r: &&MemRegion| stages.contains(&r.birth) && r.death >= r.birth;
                    let regions_of = |n| {
                        mp.regions
                            .iter()
                            .filter(born)
                            .filter(|r| r.node == n)
                            .count()
                    };
                    for s in prog.streamed() {
                        assert_eq!(
                            regions_of(s.node),
                            0,
                            "{name}/{preset:?}: streamed step {} is planned a region",
                            s.node
                        );
                        if preset == Preset::Ours {
                            streamed_roots.push((name, compiled.plan.ir.node(s.node).name.clone()));
                        }
                    }
                    for s in prog.steps.iter().filter(|s| !s.recompute) {
                        let node = compiled.plan.ir.node(s.node);
                        if node.kind == OpKind::EdgeSoftmax {
                            let own = usize::from(s.storage != gnnopt::core::Storage::Scratch);
                            assert_eq!(
                                regions_of(s.node),
                                own,
                                "{name}/{preset:?}: softmax {} has regions beyond its own",
                                s.node
                            );
                        }
                    }
                }
                assert!(
                    mp.arena_bytes >= mp.peak_live_bytes(),
                    "{name}/{preset:?}: arena {} below live-set peak {}",
                    mp.arena_bytes,
                    mp.peak_live_bytes()
                );
                for r in &mp.regions {
                    assert!(
                        r.offset + r.bytes <= mp.arena_bytes,
                        "{name}/{preset:?}: region {r:?} spills past the arena"
                    );
                    assert_eq!(
                        r.bytes, r.request,
                        "{name}/{preset:?}: region {r:?} granted in another size class"
                    );
                }
                for (i, a) in mp.regions.iter().enumerate() {
                    for b in &mp.regions[i + 1..] {
                        let share_bytes =
                            a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes;
                        let share_life = (0..mp.positions).any(|p| live(a, p) && live(b, p));
                        assert!(
                            !(share_bytes && share_life),
                            "{name}/{preset:?}: aliasing regions (training={training}): \
                             {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }
    // The O(|E|·d) spills the backward gathers used to be promised: the
    // `binary_Mul` of GCN's two kernels, and GAT's attention backward
    // and feature gradient, one walk: the feature gradient's product,
    // the head-dot's, the softmax backward's two, and the `E[heads]`
    // score gradient both vertex sums read.
    let count = |model, kind| {
        let muls = streamed_roots
            .iter()
            .filter(|(m, n)| *m == model && n == kind);
        muls.count()
    };
    let found = [
        ("gat", "binary_Mul"),
        ("gat", "unary_bwd"),
        ("gcn", "binary_Mul"),
    ];
    let found = found.map(|(m, k)| count(m, k));
    assert_eq!(found, [4, 1, 2], "{streamed_roots:?}");
}

/// `check_fits` checks the planned arena against the device's usable
/// memory (nine tenths of it): at the smallest device it fits it
/// returns the arena, one byte of device memory less and it errs,
/// naming the arena's largest region.
#[test]
fn check_fits_errs_exactly_past_the_arena() {
    use gnnopt::core::plan_memory;
    let spec = gat(&GatConfig::ablation(64)).unwrap();
    let stats = gnnopt::graph::GraphStats::synthesize_power_law(100_000, 200.0, 0.9);
    let plan = compile(&spec.ir, true, &CompileOptions::dgl())
        .unwrap()
        .plan;
    let mem = plan_memory(&plan, stats.num_vertices(), stats.num_edges(), true);
    assert_eq!(
        plan.exec_stats(&Device::rtx3090(), &stats).peak_memory,
        mem.arena_bytes
    );
    let device = |memory_bytes| Device {
        memory_bytes,
        ..Device::rtx3090()
    };
    let smallest = mem.arena_bytes.div_ceil(9) * 10;
    assert_eq!(
        plan.check_fits(&device(smallest), &stats),
        Ok(mem.arena_bytes)
    );
    let err = plan.check_fits(&device(smallest - 1), &stats).unwrap_err();
    let largest = mem.regions.iter().max_by_key(|r| r.bytes).unwrap();
    assert_eq!(err.requested, largest.bytes);
    assert_eq!(err.requested + err.live, mem.arena_bytes);
    assert_eq!(err.capacity, device(smallest - 1).usable_memory());
    let name = &plan.ir.node(largest.node).name;
    assert!(err.label.ends_with(name.as_str()), "{err}");
}

/// The inspector's zoo (`model_ir` in `src/bin/gnnopt-inspect.rs`).
fn inspector_zoo() -> Vec<(&'static str, ModelSpec)> {
    let monet_config = MonetConfig {
        in_dim: 16,
        layer_dims: vec![16],
        kernels: 2,
        pseudo_dim: 1,
    };
    let gin_config = GinConfig {
        in_dim: 64,
        layer_dims: vec![32, 7],
        epsilon: 0.1,
    };
    vec![
        ("gat", gat(&GatConfig::ablation(64)).unwrap()),
        ("gatv2", gatv2(&Gatv2Config::ablation(64)).unwrap()),
        ("edgeconv", edgeconv(&EdgeConvConfig::ablation()).unwrap()),
        ("monet", monet(&monet_config).unwrap()),
        ("gcn", gcn(&GcnConfig::two_layer(64, 32, 7)).unwrap()),
        ("sage", sage(&SageConfig::mean(64, vec![32, 7])).unwrap()),
        (
            "sage-pool",
            sage(&SageConfig::max_pool(64, vec![32, 7])).unwrap(),
        ),
        ("gin", gin(&gin_config).unwrap()),
        ("appnp", appnp(&AppnpConfig::standard(64, 32, 7)).unwrap()),
    ]
}

/// §6 in the arena a session reserves: for every inspector model, at the
/// suite's power-law stats and at Reddit's full scale, the planned `ours`
/// training arena is no larger than the `dgl` one. And every edge-sized
/// tensor an `ours` training program still writes inside a launch (an
/// interior) is listed with its reason: the steps that read it whole.
/// MoNet's two `E[kernels]` values are what its dense Gaussian
/// gradients read; each is `kernels` columns wide, nothing feature-wide.
#[test]
fn ours_arena_never_exceeds_dgl_and_every_edge_interior_is_named() {
    use gnnopt::core::plan_memory;
    let suite = gnnopt::graph::GraphStats::synthesize_power_law(5000, 30.0, 0.8);
    let reddit = gnnopt::graph::datasets::reddit().full_scale_stats();
    let mut interiors = Vec::new();
    for (name, spec) in inspector_zoo() {
        let dgl = compile(&spec.ir, true, &CompileOptions::dgl())
            .unwrap()
            .plan;
        let ours = compile(&spec.ir, true, &CompileOptions::ours())
            .unwrap()
            .plan;
        for stats in [&suite, &reddit] {
            let (nv, ne) = (stats.num_vertices(), stats.num_edges());
            let arena = |plan| plan_memory(plan, nv, ne, true).arena_bytes;
            let (d, o) = (arena(&dgl), arena(&ours));
            assert!(o <= d, "{name} at |V|={nv}: ours arena {o} B vs dgl {d} B");
        }
        for prog in &ours.programs {
            let edge_interior =
                |s: &&ProgramStep| (s.storage, s.space) == (Storage::Interior, Space::Edge);
            for s in prog.steps.iter().filter(edge_interior) {
                let whole: Vec<String> = prog
                    .steps
                    .iter()
                    .filter(|r| r.segment != s.segment)
                    .filter(|r| ours.ir.node(r.node).inputs.contains(&s.node))
                    .map(|r| format!("%{} {}", r.node, ours.ir.node(r.node).name))
                    .collect();
                let node = format!("%{} {}", s.node, ours.ir.node(s.node).name);
                interiors.push((name, node, s.cols, whole.join(", ")));
            }
        }
    }
    let read_whole = "%21 gaussian_bwd_mu, %22 gaussian_bwd_sigma";
    let expected = [
        (
            "monet",
            "%5 gaussian_weight".to_owned(),
            2,
            read_whole.to_owned(),
        ),
        ("monet", "%18 feat_sum".to_owned(), 2, read_whole.to_owned()),
    ];
    assert_eq!(interiors, expected);
}

/// GAT's and GATv2's `ours` training steps evaluate each edge softmax at
/// most twice — the forward's and one recompute, the attention backward
/// and the feature gradient being one walk (`fusion::merge_shared_recompute`)
/// — and GAT's programs write no edge-sized interior tensor: the score
/// gradient both vertex sums read is a tile slot of that walk. Two and
/// four heads, the reorganized GAT too, each deeper than one layer.
#[test]
fn gat_training_evaluates_each_softmax_at_most_twice() {
    let gats = [(2, 6, false), (4, 8, true)].map(|(heads, feat, reorganized)| {
        let config = GatConfig {
            in_dim: 8,
            layers: vec![(heads, feat), (1, 3)],
            negative_slope: 0.2,
            reorganized,
        };
        ("gat", gat(&config).unwrap())
    });
    let gatv2s = [(2, 6), (4, 8)].map(|layer| {
        let config = Gatv2Config {
            in_dim: 8,
            layers: vec![layer],
            negative_slope: 0.2,
        };
        ("gatv2", gatv2(&config).unwrap())
    });
    for (name, spec) in gats.into_iter().chain(gatv2s) {
        let plan = compile(&spec.ir, true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let steps = || plan.programs.iter().flat_map(|p| &p.steps);
        let softmax = |s: &&ProgramStep| plan.ir.node(s.node).kind == OpKind::EdgeSoftmax;
        let layers = plan
            .ir
            .nodes()
            .iter()
            .filter(|n| n.kind == OpKind::EdgeSoftmax);
        assert!(
            steps().filter(softmax).count() <= 2 * layers.count(),
            "{name}: a softmax evaluated more than twice a step"
        );
        if name == "gat" {
            let spill = |s: &&ProgramStep| (s.storage, s.space) == (Storage::Interior, Space::Edge);
            let spills: Vec<_> = steps().filter(spill).map(|s| s.node).collect();
            assert_eq!(spills, vec![], "{name}: edge-sized interior tensors");
        }
    }
}

/// The inspector's `programs` view is the executable form of a plan —
/// units, slot sizes, aliases, strips, the release schedule — so a
/// change to any of them shows as a text diff against the golden file of
/// each model with layout-changing ops (GAT, GATv2, MoNet) and of GCN,
/// the model most benchmark workloads run. Regenerate
/// (after reading the diff) with
/// `cargo run --release --bin gnnopt-inspect -- <model> ours programs > tests/golden/<model>_ours_programs.txt`.
#[test]
fn inspector_programs_views_match_their_golden_text() {
    let goldens = [
        ("gat", include_str!("golden/gat_ours_programs.txt")),
        ("gatv2", include_str!("golden/gatv2_ours_programs.txt")),
        ("monet", include_str!("golden/monet_ours_programs.txt")),
        ("gcn", include_str!("golden/gcn_ours_programs.txt")),
    ];
    for (model, golden) in goldens {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gnnopt-inspect"))
            .args([model, "ours", "programs"])
            .output()
            .expect("the inspector runs");
        assert!(out.status.success());
        let text = String::from_utf8(out.stdout).expect("utf-8");
        for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "line {} of `{model} ours programs`", i + 1);
        }
        assert_eq!(text.lines().count(), golden.lines().count(), "{model}");
    }
}
