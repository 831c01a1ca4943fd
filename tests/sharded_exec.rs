//! Sharded-execution equivalence and partitioner invariants.
//!
//! The sharding contract is **bit-identity**: for any shard count and
//! any thread count, a [`ShardedSession`] must
//! produce exactly the same output bits and exactly the same
//! parameter-gradient bits as the plain unsharded [`Session`] and as the
//! node-by-node oracle (`refexec::evaluate`) — not merely close,
//! *identical*. The
//! suite enforces that across the model zoo, on adversarial topologies
//! (an extreme hub, isolated vertices), and on property-generated
//! random model IRs; plus the structural invariants of the edge-cut
//! partitioner every exchange map is derived from.

mod common;

use common::{arb_steps, build_ir};
use gnnopt::core::{compile, CompileOptions, ExecPolicy, OpKind};
use gnnopt::exec::{refexec, Bindings, EnvOverrides, ExchangeKind, ExecError, ShardedSession};
use gnnopt::graph::{generators, EdgeList, Graph, Partition};
use gnnopt::models::*;
use gnnopt::tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

fn bindings_from(vals: &HashMap<String, Tensor>) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in vals {
        b.insert(k, v.clone());
    }
    b
}

/// Runs training on the oracle and on a k-shard session (`k = 1` is a
/// plain session) and asserts exact bitwise agreement of outputs and
/// gradients.
fn assert_bit_identical(
    name: &str,
    ir: &gnnopt::core::IrGraph,
    vals: &HashMap<String, Tensor>,
    g: &Graph,
    k: usize,
    threads: usize,
) {
    let policy = ExecPolicy {
        threads,
        ..ExecPolicy::serial()
    };
    assert_bit_identical_under(name, ir, vals, g, k, policy);
}

/// [`assert_bit_identical`] under an explicit policy (tile budget,
/// threads).
fn assert_bit_identical_under(
    name: &str,
    ir: &gnnopt::core::IrGraph,
    vals: &HashMap<String, Tensor>,
    g: &Graph,
    k: usize,
    policy: ExecPolicy,
) {
    let compiled = compile(ir, true, &CompileOptions::ours()).expect("compiles");
    let b = bindings_from(vals);
    let threads = policy.threads;

    let out_node = compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[g.num_vertices(), out_node.dim.total()]);
    let oracle = refexec::evaluate(&compiled.plan, g, &b, Some(&seed)).expect("oracle");
    let (ref_out, ref_grads) = (oracle.outputs, oracle.grads);

    let mut sharded = ShardedSession::builder(&compiled.plan, g)
        .shards(k)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .expect("sharded session");
    let out = sharded.forward(&b).expect("sharded forward");
    let grads = sharded.backward(seed).expect("sharded backward");

    assert_eq!(ref_out.len(), out.len());
    for (i, (a, s)) in ref_out.iter().zip(&out).enumerate() {
        assert_eq!(
            a.as_slice(),
            s.as_slice(),
            "{name}: output {i} diverges at k={k} threads={threads}"
        );
    }
    assert_eq!(ref_grads.len(), grads.len(), "{name}: grad key sets differ");
    for (key, grad) in &ref_grads {
        assert_eq!(
            grad.as_slice(),
            grads[key].as_slice(),
            "{name}: grad '{key}' diverges at k={k} threads={threads}"
        );
    }
}

fn zoo() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("gcn", gcn(&GcnConfig::two_layer(6, 8, 3)).unwrap()),
        (
            "gat",
            gat(&GatConfig {
                in_dim: 5,
                layers: vec![(2, 4)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        (
            "gat-2",
            gat(&GatConfig {
                in_dim: 5,
                layers: vec![(2, 4), (1, 3)],
                negative_slope: 0.2,
                reorganized: true,
            })
            .unwrap(),
        ),
        ("sage-max", sage(&SageConfig::max_pool(5, vec![6])).unwrap()),
        (
            "gin",
            gin(&GinConfig {
                in_dim: 4,
                layer_dims: vec![5, 3],
                epsilon: 0.1,
            })
            .unwrap(),
        ),
        ("monet", monet(&MonetConfig::figure7(4, 3, 2, 2)).unwrap()),
    ]
}

#[test]
fn zoo_bit_identical_across_shard_counts() {
    let g = Graph::from_edge_list(&generators::rmat(6, 6, 0.55, 0.2, 0.2, 17));
    for (name, spec) in zoo() {
        let vals = spec.init_values(&g, 23);
        for k in [1, 2, 4] {
            assert_bit_identical(name, &spec.ir, &vals, &g, k, 1);
        }
        // One multi-threaded leg per model at k=2.
        assert_bit_identical(name, &spec.ir, &vals, &g, 2, 4);
    }
}

/// Three shards over four planted communities: BFS growth cuts inside
/// a community as well as between them.
#[test]
fn zoo_bit_identical_on_a_planted_partition() {
    let g = Graph::from_edge_list(&generators::planted_partition(48, 4, 7.0, 0.8, 5));
    for (name, spec) in zoo() {
        let vals = spec.init_values(&g, 31);
        assert_bit_identical(name, &spec.ir, &vals, &g, 3, 1);
    }
}

#[test]
fn extreme_hub_and_isolated_vertices_bit_identical() {
    // A star: one hub whose halo appears in every other shard; plus
    // trailing isolated vertices that no edge touches (empty groups on
    // every shard that owns some of them).
    let mut pairs: Vec<(u32, u32)> = (1..25u32).map(|v| (v, 0)).collect();
    pairs.extend((1..25u32).map(|v| (0, v)));
    let g = Graph::from_edge_list(&EdgeList::from_pairs(32, &pairs));
    for (name, spec) in [
        ("gcn", gcn(&GcnConfig::two_layer(4, 5, 2)).unwrap()),
        (
            "gat",
            gat(&GatConfig {
                in_dim: 4,
                layers: vec![(2, 3)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        ("sage-max", sage(&SageConfig::max_pool(4, vec![4])).unwrap()),
    ] {
        let vals = spec.init_values(&g, 41);
        for k in [2, 4] {
            assert_bit_identical(name, &spec.ir, &vals, &g, k, 1);
        }
    }
}

/// A shard reduces only the groups it owns, so the seams of that mask —
/// an owned run ending inside a tile or a strip, a hub whose edges are
/// cut across shards — must keep every bit: the Mean aggregator
/// (SAGE-mean) beside GCN and GAT, 16-row tiles, on RMAT-10 and on a hub
/// with 2 100 in- and out-edges.
#[test]
fn owned_group_seams_bit_identical() {
    let rmat = Graph::from_edge_list(&generators::rmat(10, 8, 0.55, 0.2, 0.2, 29));
    let leaves = 2100u32;
    let mut pairs: Vec<(u32, u32)> = (1..=leaves).flat_map(|v| [(v, 0), (0, v)]).collect();
    pairs.extend((1..leaves).map(|v| (v, v + 1)));
    let hub = Graph::from_edge_list(&EdgeList::from_pairs(leaves as usize + 1, &pairs));
    let models = [
        ("gcn", gcn(&GcnConfig::two_layer(5, 6, 3)).unwrap()),
        (
            "gat",
            gat(&GatConfig {
                in_dim: 4,
                layers: vec![(2, 3)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        ("sage-mean", sage(&SageConfig::mean(5, vec![6, 3])).unwrap()),
    ];
    for g in [&rmat, &hub] {
        for (name, spec) in &models {
            let vals = spec.init_values(g, 37);
            for (k, threads) in [(2, 1), (2, 4), (3, 1), (3, 4)] {
                let policy = ExecPolicy {
                    threads,
                    parallel_threshold: 0,
                    tile_edges: 16,
                    ..ExecPolicy::serial()
                };
                assert_bit_identical_under(name, &spec.ir, &vals, g, k, policy);
            }
        }
    }
}

/// Two shards over a graph whose destination groups are longer than a
/// strip (32 edges) and mix both shards' sources: a folded product that
/// pulls its narrow operand — GAT's backward feature gradient, the
/// streamed by-source accumulate over `∂out[dst(e)] · softmax(e)` — takes
/// runs that end at the first source its shard (or its worker) does not
/// own, mid-strip, and the look-ahead hints rows on either side.
#[test]
fn folded_runs_end_mid_strip_on_two_shards() {
    let n = 48u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|v| {
            (0..n)
                .filter(move |&u| u != v && (u * 7 + v * 3) % 5 != 0)
                .map(move |u| (u, v))
        })
        .collect();
    let g = Graph::from_edge_list(&EdgeList::from_pairs(n as usize, &pairs));
    assert!((0..g.num_vertices()).all(|v| g.in_adj().degree(v) > 32));
    let models = [
        (
            "gat",
            gat(&GatConfig {
                in_dim: 4,
                layers: vec![(2, 8)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        ("sage-mean", sage(&SageConfig::mean(5, vec![6, 3])).unwrap()),
    ];
    for (name, spec) in &models {
        let vals = spec.init_values(&g, 43);
        for (threads, tile_edges) in [(1, 16), (1, 4096), (4, 16), (4, 4096)] {
            let policy = ExecPolicy {
                threads,
                parallel_threshold: 0,
                tile_edges,
                ..ExecPolicy::serial()
            };
            assert_bit_identical_under(name, &spec.ir, &vals, &g, 2, policy);
        }
    }
}

/// Two shards reduce a `BySrc` max and mean over the source groups they
/// own — a streamed gather each, the max's argmax table in the shard's
/// own edge ids — and their duals read the gradient at `src(e)` in the
/// tile driver: outputs and gradients keep the unsharded session's bits
/// (`k = 1`) at one and four threads, on RMAT-6 and on a hub whose out-
/// and in-edges are cut across the shards.
#[test]
fn by_src_max_and_mean_with_their_duals_bit_identical_on_two_shards() {
    use gnnopt::core::{BinaryFn, Dim, EdgeGroup, IrGraph, ReduceFn, ScatterFn};
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(4));
    let w = ir.param("w", 4, 3);
    let x = ir.linear(h, w).unwrap();
    let diff = ir.scatter(ScatterFn::Bin(BinaryFn::Sub), x, x).unwrap();
    let mx = ir.gather(ReduceFn::Max, EdgeGroup::BySrc, diff).unwrap();
    let mean = ir.gather(ReduceFn::Mean, EdgeGroup::BySrc, diff).unwrap();
    let out = ir.binary(BinaryFn::Add, mx, mean).unwrap();
    ir.mark_output(out);
    let rmat = Graph::from_edge_list(&generators::rmat(6, 6, 0.55, 0.2, 0.2, 17));
    let mut pairs: Vec<(u32, u32)> = (1..40u32).flat_map(|v| [(v, 0), (0, v)]).collect();
    pairs.extend((1..39u32).map(|v| (v, v + 1)));
    let hub = Graph::from_edge_list(&EdgeList::from_pairs(44, &pairs));
    for g in [&rmat, &hub] {
        let vals = HashMap::from([
            (
                "h".to_owned(),
                Tensor::from_fn(&[g.num_vertices(), 4], |i| (i as f32 * 0.37).sin()),
            ),
            (
                "w".to_owned(),
                Tensor::from_fn(&[4, 3], |i| (i as f32 * 0.71).cos()),
            ),
        ]);
        for (k, threads) in [(1, 1), (2, 1), (2, 4)] {
            let policy = ExecPolicy {
                threads,
                parallel_threshold: 0,
                tile_edges: 16,
                ..ExecPolicy::serial()
            };
            let name = "by-src max and mean";
            assert_bit_identical_under(name, &ir, &vals, g, k, policy);
        }
    }
}

/// A sharded session runs every kernel through the program interpreter
/// of a plan its shards also planned their arenas from, so a warmed
/// step's store never outgrows the planned arena and every tensor comes
/// out of the pool. (While kernels that needed a mid-kernel exchange ran
/// node by node, GAT's and SAGE-max's backward materialized every
/// kernel-internal tensor into the shard stores, past the plan.)
#[test]
fn warmed_sharded_step_stays_inside_the_planned_arena() {
    let g = Graph::from_edge_list(&generators::rmat(6, 6, 0.55, 0.2, 0.2, 17));
    for (name, spec) in zoo() {
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).expect("compiles");
        let b = bindings_from(&spec.init_values(&g, 23));
        let out_node = compiled.plan.ir.node(compiled.plan.ir.outputs()[0]);
        let seed = Tensor::ones(&[g.num_vertices(), out_node.dim.total()]);
        for k in [2, 3, 4] {
            for threads in [1, 4] {
                let policy = ExecPolicy {
                    threads,
                    ..ExecPolicy::serial()
                };
                let mut sess = ShardedSession::builder(&compiled.plan, &g)
                    .shards(k)
                    .policy(policy)
                    .env(EnvOverrides::Off)
                    .build()
                    .expect("sharded session");
                sess.step(&b, &seed).expect("warmup step");
                sess.step(&b, &seed).expect("warmed step");
                let st = sess.stats();
                assert!(
                    st.peak_value_bytes <= st.planned_peak_bytes,
                    "{name} k={k} threads={threads}: peak {} exceeds the planned arena {}",
                    st.peak_value_bytes,
                    st.planned_peak_bytes
                );
                assert_eq!(
                    st.fallback_allocs, 0,
                    "{name} k={k} threads={threads}: a warmed step must not miss the pool"
                );
            }
        }
    }
}

/// A global kernel scatters only what its program materializes: every
/// `GlobalScatter` of a MoNet step — whose whole fused backward runs in
/// the driver — names a model output, a parameter gradient, or a value
/// a later kernel reads from the store.
#[test]
fn global_kernels_scatter_only_what_leaves_the_kernel() {
    let g = Graph::from_edge_list(&generators::rmat(6, 6, 0.55, 0.2, 0.2, 17));
    let spec = monet(&MonetConfig::figure7(4, 3, 2, 2)).unwrap();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let plan = &compiled.plan;
    let b = bindings_from(&spec.init_values(&g, 23));
    let seed = Tensor::ones(&[g.num_vertices(), spec.output_dim()]);
    let mut sess = ShardedSession::builder(plan, &g)
        .shards(2)
        .policy(ExecPolicy::serial())
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    sess.step(&b, &seed).unwrap();

    let leaves_the_kernel = |kernel: usize, value: &str| {
        let owner = &plan.kernels[kernel];
        owner
            .nodes
            .iter()
            .filter(|&&n| plan.ir.node(n).name == value)
            .any(|&n| {
                plan.ir.outputs().contains(&n)
                    || plan.param_grads.iter().any(|&(_, grad)| grad == n)
                    || plan.kernels.iter().any(|later| {
                        later.id > kernel
                            && !later.recompute.contains(&n)
                            && later
                                .nodes
                                .iter()
                                .chain(&later.recompute)
                                .any(|&m| plan.ir.node(m).inputs.contains(&n))
                    })
            })
    };
    let scatters: Vec<_> = sess
        .exchanges()
        .iter()
        .filter(|r| r.kind == ExchangeKind::GlobalScatter)
        .collect();
    assert!(
        scatters
            .iter()
            .any(|r| plan.kernels[r.kernel].nodes.len() > 1),
        "fixture: a fused kernel runs globally"
    );
    for r in scatters {
        assert!(
            leaves_the_kernel(r.kernel, &r.value),
            "kernel {} scattered '{}' ({} bytes), which nothing outside it reads",
            r.kernel,
            r.value,
            r.bytes
        );
    }
}

/// The gradient seed is checked against the seed node before any row
/// selection, at every shard count: surplus rows were silently dropped
/// and missing rows panicked outside every containment boundary.
#[test]
fn seed_shape_is_checked_at_every_shard_count() {
    let g = Graph::from_edge_list(&generators::rmat(6, 6, 0.55, 0.2, 0.2, 17));
    let spec = gcn(&GcnConfig::two_layer(6, 8, 3)).unwrap();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings_from(&spec.init_values(&g, 23));
    let n = g.num_vertices();
    let good = Tensor::ones(&[n, 3]);
    for k in [1, 2] {
        let mut sess = ShardedSession::builder(&compiled.plan, &g)
            .shards(k)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        for rows in [n + 5, n - 5] {
            let bad = Tensor::ones(&[rows, 3]);
            assert!(
                matches!(sess.step(&b, &bad), Err(ExecError::BindingShape { .. })),
                "k={k}: step with a {rows}-row seed"
            );
            sess.forward(&b).unwrap();
            assert!(
                matches!(sess.backward(bad), Err(ExecError::BindingShape { .. })),
                "k={k}: backward with a {rows}-row seed"
            );
            assert!(!sess.poisoned());
            sess.step(&b, &good).expect("the session still steps");
        }
    }
}

/// Every leaf binding is checked against the caller's graph before any
/// shard binds its rows, at every shard count: an unbound leaf is
/// `MissingBinding`; a vertex input with surplus or missing rows and a
/// wrongly shaped parameter are `BindingShape`. None of them poisons the
/// session, and the next good step runs.
#[test]
fn leaf_bindings_are_checked_at_every_shard_count() {
    let g = Graph::from_edge_list(&generators::rmat(6, 6, 0.55, 0.2, 0.2, 17));
    let spec = gcn(&GcnConfig::two_layer(6, 8, 3)).unwrap();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let vals = spec.init_values(&g, 23);
    let good = bindings_from(&vals);
    let leaf = |kind: OpKind| {
        let mut nodes = compiled.plan.ir.nodes().iter();
        nodes.find(|n| n.kind == kind).unwrap().name.clone()
    };
    let (h, w) = (leaf(OpKind::InputVertex), leaf(OpKind::Param));
    let rebound = |name: &str, t: Option<Tensor>| {
        let mut v = vals.clone();
        match t {
            Some(t) => v.insert(name.to_owned(), t),
            None => v.remove(name),
        };
        bindings_from(&v)
    };
    let n = g.num_vertices();
    let (hc, wr, wc) = (vals[&h].cols(), vals[&w].rows(), vals[&w].cols());
    assert_ne!(wr, wc, "fixture: a transposed parameter is misshapen");
    let ones = |rows: usize, cols: usize| Some(Tensor::ones(&[rows, cols]));
    let cases = [
        ("no vertex input", rebound(&h, None), true),
        ("no parameter", rebound(&w, None), true),
        ("n+5 input rows", rebound(&h, ones(n + 5, hc)), false),
        ("n-5 input rows", rebound(&h, ones(n - 5, hc)), false),
        ("a transposed parameter", rebound(&w, ones(wc, wr)), false),
    ];
    let seed = Tensor::ones(&[n, 3]);
    for k in [1, 2] {
        let mut sess = ShardedSession::builder(&compiled.plan, &g)
            .shards(k)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        for (what, b, unbound) in &cases {
            let r = sess.step(b, &seed);
            let expected = match r {
                Err(ExecError::MissingBinding(_)) => *unbound,
                Err(ExecError::BindingShape { .. }) => !unbound,
                _ => false,
            };
            assert!(expected, "k={k}: step with {what}: {r:?}");
            assert!(!sess.poisoned(), "k={k}: {what} poisoned the session");
            sess.step(&good, &seed).expect("the session still steps");
        }
    }
}

/// Arbitrary multigraphs with isolated trailing vertices, as in the
/// cross-preset property suite.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..70)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partition invariants: every vertex lands in exactly one shard,
    /// shard sizes tile the vertex set, no shard is empty when it could
    /// be non-empty, and the cut-edge count equals a direct recount.
    #[test]
    fn partition_invariants(g in arb_graph(), k in 1usize..6) {
        let n = g.num_vertices();
        let part = Partition::edge_cut_bfs(&g, k);
        let ks = part.num_shards();
        prop_assert!(ks >= 1 && ks <= n.max(1));
        // Exactly-one-shard membership: owner() is total and the
        // per-shard sizes recount it.
        let mut sizes = vec![0usize; ks];
        for v in 0..n {
            let s = part.owner_of(v);
            prop_assert!(s < ks, "owner out of range");
            sizes[s] += 1;
        }
        prop_assert_eq!(&sizes, &part.shard_sizes());
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        if n >= ks {
            prop_assert!(sizes.iter().all(|&c| c > 0), "empty shard with n >= k");
        }
        // Cut edges: direct recount over the edge list.
        let recount = (0..g.num_edges())
            .filter(|&e| part.owner_of(g.src(e)) != part.owner_of(g.dst(e)))
            .count() as u64;
        prop_assert_eq!(part.cut_edges(&g), recount);
    }

    /// Shard summaries are consistent with the partition: owned counts
    /// tile |V|, local edges cover every edge at least once, reductions
    /// run over every edge exactly once, and halo rows only ever name
    /// non-owned local vertices.
    #[test]
    fn shard_summaries_consistent(g in arb_graph(), k in 2usize..5) {
        let spec = gcn(&GcnConfig::two_layer(3, 4, 2)).unwrap();
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let sharded = ShardedSession::builder(&compiled.plan, &g)
            .shards(k)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let sums = sharded.shard_summaries();
        prop_assert_eq!(sums.len(), sharded.num_shards());
        prop_assert_eq!(
            sums.iter().map(|s| s.owned_vertices).sum::<usize>(),
            g.num_vertices()
        );
        for s in &sums {
            prop_assert!(s.num_vertices >= s.owned_vertices);
            prop_assert!(s.halo_rows <= s.num_vertices - s.owned_vertices,
                "halo rows must be non-owned local vertices");
            prop_assert!(s.arena_bytes > 0);
        }
        // Every edge lives in at least the shard owning its destination.
        prop_assert!(sums.iter().map(|s| s.num_edges).sum::<usize>() >= g.num_edges());
        // And is reduced once each way: by the shard owning its
        // destination, and (GCN's backward groups by source) by the one
        // owning its source — never by a replica.
        prop_assert_eq!(sums.iter().map(|s| s.dst_reduced_edges).sum::<usize>(), g.num_edges());
        prop_assert_eq!(sums.iter().map(|s| s.src_reduced_edges).sum::<usize>(), g.num_edges());
    }

    /// The strongest form: property-generated model IRs (scatter /
    /// softmax / max-gather / linear chains) stay bit-identical under
    /// sharding — outputs and every parameter gradient.
    #[test]
    fn random_ir_bit_identical(
        steps in arb_steps(),
        g in arb_graph(),
        seed in 0u64..500,
        k in 2usize..5,
    ) {
        let ir = build_ir(&steps, 3);
        let compiled = compile(&ir, true, &CompileOptions::ours()).expect("compiles");
        let mut vals = HashMap::new();
        vals.insert(
            "h".to_string(),
            Tensor::from_fn(&[g.num_vertices(), 3], |i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97) as f32 - 48.0) * 0.021
            }),
        );
        vals.insert(
            "ew".to_string(),
            Tensor::from_fn(&[g.num_edges(), 3], |i| {
                (((i as u64).wrapping_mul(40503).wrapping_add(seed) % 89) as f32 - 44.0) * 0.017
            }),
        );
        for n in compiled.plan.ir.nodes() {
            if n.kind == gnnopt::core::OpKind::Param {
                vals.insert(
                    n.name.clone(),
                    Tensor::from_fn(&[n.dim.heads, n.dim.feat], |i| {
                        (((i as u64).wrapping_mul(69069).wrapping_add(seed) % 83) as f32 - 41.0) * 0.019
                    }),
                );
            }
        }
        let b = bindings_from(&vals);

        let seed_t = Tensor::ones(&[g.num_vertices(), 3]);
        let oracle = refexec::evaluate(&compiled.plan, &g, &b, Some(&seed_t)).unwrap();
        let (ref_out, ref_grads) = (oracle.outputs, oracle.grads);

        let mut sharded = ShardedSession::builder(&compiled.plan, &g)
            .shards(k)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let out = sharded.forward(&b).unwrap();
        let grads = sharded.backward(seed_t).unwrap();

        for (a, s) in ref_out.iter().zip(&out) {
            prop_assert_eq!(a.as_slice(), s.as_slice(), "forward outputs diverge");
        }
        prop_assert_eq!(ref_grads.len(), grads.len());
        for (key, grad) in &ref_grads {
            prop_assert_eq!(grad.as_slice(), grads[key].as_slice(), "grad '{}' diverges", key);
        }
    }
}
