//! Determinism contract of the program interpreter: for any graph
//! (isolated vertices included), any tile budget, and any thread count,
//! a session's results are **bit-identical** to the node-by-node oracle
//! (`refexec::evaluate`) — tiling changes where intermediates live, never
//! what arithmetic is performed — while the measured peak of the value
//! store stays below what the oracle materializes.

use gnnopt_core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, ExecPolicy, ExecutionPlan, IrGraph, OpKind,
    ReduceFn, ScatterFn, Storage, UnaryFn,
};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, RunStats, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{edgeconv, gat, gcn, EdgeConvConfig, GatConfig, GcnConfig, ModelSpec};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;
use std::collections::HashMap;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{name}: shapes differ");
    assert_eq!(bits(a), bits(b), "{name}: bits differ");
}

/// Random multigraphs with guaranteed trailing isolated vertices, so
/// empty reduction groups cross the fused/reference comparison too.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24, 0usize..4).prop_flat_map(|(n, iso)| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..96)
            .prop_map(move |pairs| Graph::from_edge_list(&EdgeList::from_pairs(n + iso, &pairs)))
    })
}

/// One training (or, without parameters, inference) step of `plan` on a
/// fresh session under `threads` × `tile_edges`, demanding the oracle's
/// bits for every output and gradient. `seed` is the backward seed.
fn step_matches_oracle(
    plan: &ExecutionPlan,
    graph: &Graph,
    b: &Bindings,
    seed: &Tensor,
    (threads, tile_edges): (usize, usize),
) -> RunStats {
    let training = !plan.param_grads.is_empty();
    let oracle = refexec::evaluate(plan, graph, b, training.then_some(seed)).expect("oracle");
    let policy = ExecPolicy {
        threads,
        parallel_threshold: 0,
        tile_edges,
        ..ExecPolicy::serial()
    };
    let mut sess = Session::builder(plan, graph)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .expect("session");
    let out = sess.forward(b).expect("forward");
    let tag = format!("threads {threads}, tile_edges {tile_edges}");
    assert_eq!(oracle.outputs.len(), out.len());
    for (a, o) in oracle.outputs.iter().zip(&out) {
        assert_bit_identical(&format!("output ({tag})"), a, o);
    }
    if training {
        let grads: HashMap<String, Tensor> = sess.backward(seed.clone()).expect("backward");
        assert_eq!(oracle.grads.len(), grads.len());
        for (k, g) in &oracle.grads {
            assert_bit_identical(&format!("grad '{k}' ({tag})"), g, &grads[k]);
        }
    }
    let peak = sess.stats().peak_value_bytes;
    assert!(
        peak <= oracle.materialized_bytes,
        "session peak {peak} exceeds the {} bytes the oracle materializes",
        oracle.materialized_bytes
    );
    sess.stats()
}

fn compare_session_vs_oracle(spec: &ModelSpec, graph: &Graph, threads: usize, tile_edges: usize) {
    let plan = plan_of(&spec.ir, true);
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(graph, 23) {
        b.insert(&k, v);
    }
    let out_cols = plan.ir.node(plan.ir.outputs()[0]).dim.total();
    let seed = Tensor::ones(&[graph.num_vertices(), out_cols]);
    step_matches_oracle(&plan, graph, &b, &seed, (threads, tile_edges));
}

fn plan_of(ir: &IrGraph, training: bool) -> ExecutionPlan {
    compile(ir, training, &CompileOptions::ours())
        .expect("compiles")
        .plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GAT training (softmax + ByDst/BySrc gathers, multi-head) over
    /// random graphs with isolated vertices: bit-identical session vs
    /// oracle for every thread count and tile budget, including
    /// single-edge tiles.
    #[test]
    fn gat_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..6,
        tile_edges in prop_oneof![Just(1usize), Just(3), Just(16), Just(4096)],
        heads in 1usize..3,
    ) {
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(heads, 4), (1, 3)],
            negative_slope: 0.2,
            reorganized: false,
        }).expect("gat builds");
        compare_session_vs_oracle(&spec, &g, threads, tile_edges);
    }

    /// EdgeConv training (max-gather: the scattered-write
    /// `gather_max_bwd` runs as a full step or an argmax-routed tiled
    /// one) stays bit-identical under the mixed tiled/full schedule.
    #[test]
    fn edgeconv_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(2usize), Just(64)],
    ) {
        let spec = edgeconv(&EdgeConvConfig { in_dim: 4, layer_dims: vec![3] })
            .expect("edgeconv builds");
        compare_session_vs_oracle(&spec, &g, threads, tile_edges);
    }

    /// GCN training (gSpMM pattern with edge weights).
    #[test]
    fn gcn_step_fused_is_bit_identical(
        g in arb_graph(),
        threads in 1usize..5,
        tile_edges in prop_oneof![Just(1usize), Just(32)],
    ) {
        let spec = gcn(&GcnConfig { in_dim: 4, layer_dims: vec![4, 2] }).expect("gcn builds");
        compare_session_vs_oracle(&spec, &g, threads, tile_edges);
    }
}

// ---- Aliased copies and tile-wide steps --------------------------------
//
// The compiler aliases scratch-class pure copies (`Scatter(CopyU|CopyV)`,
// `SetHeads`) to indexed reads of their source and runs contiguous
// elementwise steps as one call per tile. The hand-built programs below
// pin each shape of that — who reads the alias, when a copy must still be
// written — against the oracle, bit for bit.

/// 12 connected vertices of uneven degree plus three trailing isolated
/// ones (empty reduction groups).
fn small_graph() -> Graph {
    let pairs: Vec<(u32, u32)> = (0..48u32)
        .map(|i| ((i * 7 + 3) % 12, (i * 5 + i / 12) % 12))
        .collect();
    Graph::from_edge_list(&EdgeList::from_pairs(15, &pairs))
}

/// A star: every leaf points at vertex 0, whose in-degree exceeds
/// `heavy_row_degree` (chunked hub reduction, several chunks).
fn star_graph() -> Graph {
    let leaves = ExecPolicy::DEFAULT_HEAVY_ROW_DEGREE as u32 + 900;
    let pairs: Vec<(u32, u32)> = (1..=leaves).map(|u| (u, 0)).collect();
    Graph::from_edge_list(&EdgeList::from_pairs(leaves as usize + 2, &pairs))
}

fn fill(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(&[rows, cols], |i| {
        (((i as u64 + seed) * 2654435761 % 211) as f32 - 105.0) / 64.0
    })
}

/// Storage class of every program step of `plan` whose op matches `pick`.
fn steps_of(plan: &ExecutionPlan, pick: impl Fn(&OpKind) -> bool) -> Vec<Storage> {
    plan.programs
        .iter()
        .flat_map(|p| &p.steps)
        .filter(|s| pick(&plan.ir.node(s.node).kind))
        .map(|s| s.storage)
        .collect()
}

fn is_copy(k: &OpKind) -> bool {
    matches!(
        k,
        OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV) | OpKind::SetHeads { .. }
    )
}

/// Runs `plan` under threads {1, 4} × tile budgets {1, 7, 4096} against
/// the oracle. Returns the serial one-tile run's stats.
fn check_against_oracle(plan: &ExecutionPlan, graph: &Graph, b: &Bindings) -> RunStats {
    let out_cols = plan.ir.node(plan.ir.outputs()[0]).dim.total();
    let seed = fill(graph.num_vertices(), out_cols, 77);
    let mut one_tile = None;
    for threads in [1usize, 4] {
        for tile_edges in [1usize, 7, 4096] {
            let stats = step_matches_oracle(plan, graph, b, &seed, (threads, tile_edges));
            if threads == 1 && tile_edges == 4096 {
                one_tile = Some(stats);
            }
        }
    }
    one_tile.expect("the serial one-tile run is in the sweep")
}

/// `SetHeads → CopyV → Binary`: an alias of an alias — the head-broadcast
/// `Binary` reads `h[dst(e)]` directly. (Fusion cuts a kernel after an
/// edge-space `SetHeads`, so this is the order a chain takes in one
/// kernel.)
#[test]
fn chained_alias_feeds_a_broadcast_binary() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(6));
    let ew = ir.input_edge("ew", Dim::multi(2, 1));
    let hh = ir.set_heads(h, 2).unwrap();
    let hv = ir.scatter(ScatterFn::CopyV, hh, hh).unwrap();
    let me = ir.binary(BinaryFn::Mul, hv, ew).unwrap();
    let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
    ir.mark_output(out);
    let plan = plan_of(&ir, false);
    assert_eq!(plan.programs.len(), 1, "one fused kernel");
    assert_eq!(
        steps_of(&plan, is_copy),
        vec![Storage::Scratch, Storage::Scratch],
        "both copies are kernel-internal, so both alias away"
    );
    let b = Bindings::new()
        .with("h", fill(g.num_vertices(), 6, 1))
        .with("ew", fill(g.num_edges(), 2, 2));
    let stats = check_against_oracle(&plan, &g, &b);
    assert_eq!(
        stats.scratch_bytes,
        4 * 6 * (g.num_edges() + g.num_vertices()) as u64,
        "slots: the product and the gather — neither copy"
    );
}

/// Weight-free GCN: the copy's only reader is the reduction itself, for
/// every reduce function (argmax tables included) — on the small graph
/// and on a star whose hub takes the chunked heavy-row path. The aliased
/// copy holds no slot: one tile's scratch is the gather's rows alone.
#[test]
fn gather_reduces_an_aliased_copy_directly() {
    for (g, reduces) in [
        (
            small_graph(),
            &[ReduceFn::Sum, ReduceFn::Mean, ReduceFn::Max][..],
        ),
        (star_graph(), &[ReduceFn::Sum, ReduceFn::Mean][..]),
    ] {
        for &reduce in reduces {
            let mut ir = IrGraph::new();
            let h = ir.input_vertex("h", Dim::flat(5));
            let hu = ir.scatter(ScatterFn::CopyU, h, h).unwrap();
            let out = ir.gather(reduce, EdgeGroup::ByDst, hu).unwrap();
            ir.mark_output(out);
            let plan = plan_of(&ir, false);
            assert_eq!(steps_of(&plan, is_copy), vec![Storage::Scratch]);
            let b = Bindings::new().with("h", fill(g.num_vertices(), 5, 3));
            let stats = check_against_oracle(&plan, &g, &b);
            if g.num_edges() <= 4096 {
                assert_eq!(
                    stats.scratch_bytes,
                    4 * 5 * g.num_vertices() as u64,
                    "{reduce:?}: scratch is the slots held — the gather's, not the copy's"
                );
            }
        }
    }
}

/// A copy that is a model output is a kernel boundary: it must still be
/// written, and its in-segment reader takes the slot.
#[test]
fn materialized_copy_is_still_written() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(4));
    let hu = ir.scatter(ScatterFn::CopyU, h, h).unwrap();
    let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, hu).unwrap();
    ir.mark_output(out);
    ir.mark_output(hu);
    let plan = plan_of(&ir, false);
    assert_eq!(steps_of(&plan, is_copy), vec![Storage::Materialized]);
    let b = Bindings::new().with("h", fill(g.num_vertices(), 4, 5));
    check_against_oracle(&plan, &g, &b);
}

/// A copy read in its own segment (`ByDst` gather) *and* by a later one
/// (the `BySrc` full step) spills to an interior tensor: written for the
/// later reader, never streamed (it has two consumers), slot-read by the
/// in-segment one.
#[test]
fn copy_read_in_segment_and_by_a_later_segment_spills() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(3));
    let hv = ir.scatter(ScatterFn::CopyV, h, h).unwrap();
    let lr = ir.unary(UnaryFn::LeakyRelu(0.1), hv).unwrap();
    let a = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, lr).unwrap();
    let c = ir.gather(ReduceFn::Sum, EdgeGroup::BySrc, hv).unwrap();
    let out = ir.binary(BinaryFn::Add, a, c).unwrap();
    ir.mark_output(out);
    let plan = plan_of(&ir, false);
    let copies = steps_of(&plan, is_copy);
    assert!(
        copies.contains(&Storage::Interior) || copies.contains(&Storage::Materialized),
        "the doubly-read copy is a real tensor, got {copies:?}"
    );
    let b = Bindings::new().with("h", fill(g.num_vertices(), 3, 6));
    check_against_oracle(&plan, &g, &b);
}

/// `ConcatUV` interleaves two endpoint rows — not a copy of either, so it
/// keeps its slot.
#[test]
fn concat_uv_is_never_aliased() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::multi(2, 2));
    let c = ir.scatter(ScatterFn::ConcatUV, h, h).unwrap();
    let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, c).unwrap();
    ir.mark_output(out);
    let plan = plan_of(&ir, false);
    let b = Bindings::new().with("h", fill(g.num_vertices(), 4, 8));
    let stats = check_against_oracle(&plan, &g, &b);
    assert_eq!(plan.programs.len(), 1, "one fused kernel");
    assert_eq!(
        stats.scratch_bytes,
        4 * 8 * (g.num_edges() + g.num_vertices()) as u64,
        "the concat holds an edge slot beside the gather's"
    );
}

/// A fresh (unstashed) `EdgeSoftmax` and a `FeatSum`, each reading an
/// aliased copy: the three softmax sweeps and the per-head sums index the
/// vertex rows through `src(e)` / `dst(e)`.
#[test]
fn fresh_softmax_and_feat_sum_read_aliased_operands() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let s = ir.input_vertex("s", Dim::multi(2, 1));
    let h = ir.input_vertex("h", Dim::multi(2, 3));
    let su = ir.scatter(ScatterFn::CopyU, s, s).unwrap();
    let sm = ir.edge_softmax(su).unwrap();
    let hv = ir.scatter(ScatterFn::CopyV, h, h).unwrap();
    let fs = ir.feat_sum(hv).unwrap();
    let me = ir.binary(BinaryFn::Mul, sm, fs).unwrap();
    let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
    ir.mark_output(out);
    let plan = plan_of(&ir, false);
    assert_eq!(
        steps_of(&plan, is_copy),
        vec![Storage::Scratch, Storage::Scratch]
    );
    let b = Bindings::new()
        .with("s", fill(g.num_vertices(), 2, 9))
        .with("h", fill(g.num_vertices(), 6, 10));
    check_against_oracle(&plan, &g, &b);
}

/// Training a weight-free aggregation over a projected feature: the
/// backward `BySrc` gather streams a chain that is *only* an aliased
/// `CopyV` — no op runs per edge, the scan accumulates `grad[dst(e)]`.
#[test]
fn streamed_chain_of_one_aliased_copy() {
    for g in [small_graph(), star_graph()] {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(3));
        let w = ir.param("w", 3, 4);
        let hw = ir.linear(h, w).unwrap();
        let hu = ir.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, hu).unwrap();
        ir.mark_output(out);
        let plan = plan_of(&ir, true);
        let b = Bindings::new()
            .with("h", fill(g.num_vertices(), 3, 11))
            .with("w", fill(3, 4, 12));
        check_against_oracle(&plan, &g, &b);
    }
}
