//! Determinism contract of the program interpreter: for any graph
//! (isolated vertices included), any tile budget, and any thread count,
//! a session's results are **bit-identical** to the node-by-node oracle
//! (`refexec::evaluate`) — tiling changes where intermediates live, never
//! what arithmetic is performed — while the measured peak of the value
//! store stays below what the oracle materializes.

use gnnopt_core::lower::{KernelProgram, ProgramStep, RowAt, SlotSize, TileOp, Unit, UnitKind};
use gnnopt_core::{
    compile, BinaryFn, CompileOptions, Dim, EdgeGroup, ExecPolicy, ExecutionPlan, IrGraph, OpKind,
    ReduceFn, ScatterFn, Space, Storage, UnaryFn,
};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, RunStats, Session};
use gnnopt_graph::{EdgeList, Graph};
use gnnopt_models::{
    edgeconv, gat, gatv2, gcn, EdgeConvConfig, GatConfig, Gatv2Config, GcnConfig, ModelSpec,
};
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

    /// EdgeConv training (max-gather: the argmax-routed `gather_max_bwd`
    /// tile op) stays bit-identical under the mixed tiled/full schedule.
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

// ---- Aliased copies, slot sizes and streamed segments -------------------
//
// The compiler aliases scratch-class pure copies (`Scatter(CopyU|CopyV)`)
// to indexed reads of their source, runs contiguous
// elementwise steps as one call per tile, gives a step whose single
// reader takes each row once a row-sized slot (a strip of at most
// `STRIP_ROWS` rows) instead of a tile-sized one, writes boundary values
// in place, and compiles a streamed `BySrc` gather into the same tile
// loop. The hand-built programs below pin each shape of that — who reads
// the alias, when a copy must still be written, which slot size a step
// gets — against the oracle, bit for bit, and, on the one-tile graph, by
// the exact scratch bytes held.

/// Rows a row-sized slot holds at most (`fused::STRIP_ROWS`; the 4 KB
/// element cap does not bind at these widths).
const STRIP_ROWS: usize = 32;

/// 12 connected vertices of uneven degree plus three trailing isolated
/// ones (empty reduction groups).
fn small_graph() -> Graph {
    let pairs: Vec<(u32, u32)> = (0..48u32)
        .map(|i| ((i * 7 + 3) % 12, (i * 5 + i / 12) % 12))
        .collect();
    Graph::from_edge_list(&EdgeList::from_pairs(15, &pairs))
}

/// A star: every leaf points at vertex 0, an in-degree of 4 996.
fn star_graph() -> Graph {
    let leaves = 4996u32;
    let pairs: Vec<(u32, u32)> = (1..=leaves).map(|u| (u, 0)).collect();
    Graph::from_edge_list(&EdgeList::from_pairs(leaves as usize + 2, &pairs))
}

/// The star's hub inside an ordinary graph: vertex 3 takes 4 996
/// in-edges (one tile of its own at every budget), the other vertices of
/// [`small_graph`]'s pattern keep theirs, sources repeat out of
/// destination order, and six trailing vertices are isolated.
fn hub_graph() -> Graph {
    let n = 40u32;
    let hub_edges = 4996u32;
    let mut pairs: Vec<(u32, u32)> = (0..hub_edges).map(|i| ((i * 11 + 5) % n, 3)).collect();
    pairs.extend((0..160u32).map(|i| ((i * 7 + 3) % n, (i * 5 + i / 12) % n)));
    Graph::from_edge_list(&EdgeList::from_pairs(n as usize + 6, &pairs))
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
    matches!(k, OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV))
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

/// `set_heads → CopyV → Binary`: a copy read through a relabel — the
/// head-broadcast `Binary` reads `h[dst(e)]` directly, two heads of it.
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
        vec![Storage::Scratch],
        "the relabel is the copy's read, not a step; the copy aliases away"
    );
    let b = Bindings::new()
        .with("h", fill(g.num_vertices(), 6, 1))
        .with("ew", fill(g.num_edges(), 2, 2));
    let stats = check_against_oracle(&plan, &g, &b);
    assert_eq!(
        stats.scratch_bytes, 0,
        "the copy holds no slot, the gather folds the product and \
         writes the output's rows in place"
    );
}

/// Weight-free GCN: the copy's only reader is the reduction itself, for
/// every reduce function (argmax tables included) — on the small graph
/// and on a star whose hub takes 4 996 edges. The aliased
/// copy holds no slot and the gather reduces straight into the output
/// tensor: the launch holds no scratch at all.
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
            assert_eq!(
                stats.scratch_bytes, 0,
                "{reduce:?}: neither the copy nor the boundary gather holds a slot"
            );
        }
    }
}

/// A copy that is a model output is a kernel boundary: it must still be
/// written — into its tensor, which its in-segment reader then reads.
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

/// A relabelled copy read in its own segment (`ByDst` gather) *and* by a
/// later one (the `BySrc` full step): the relabel sits on the readers'
/// edges, so the copy has two readers and each gets a private duplicate,
/// both aliases: the by-source gather joins the by-destination segment,
/// which streams into it whole, the by-destination gather a sink of the
/// unit. No copy becomes a tensor.
#[test]
fn a_relabelled_copy_read_by_two_segments_is_duplicated() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(3));
    let hv = ir.scatter(ScatterFn::CopyV, h, h).unwrap();
    let sh = ir.set_heads(hv, 3).unwrap();
    let lr = ir.unary(UnaryFn::LeakyRelu(0.1), sh).unwrap();
    let a = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, lr).unwrap();
    let c = ir.gather(ReduceFn::Sum, EdgeGroup::BySrc, sh).unwrap();
    let out = ir.binary(BinaryFn::Add, a, c).unwrap();
    ir.mark_output(out);
    let plan = plan_of(&ir, false);
    let copies = steps_of(&plan, is_copy);
    assert_eq!(
        copies,
        vec![Storage::Scratch; 2],
        "one private copy a reader"
    );
    assert_eq!(
        plan.programs.iter().flat_map(|p| p.streamed()).count(),
        3,
        "both copies and the activation stream"
    );
    let b = Bindings::new().with("h", fill(g.num_vertices(), 3, 6));
    check_against_oracle(&plan, &g, &b);
}

/// `ConcatUV` interleaves two endpoint rows — not a copy of either, so it
/// keeps a slot: row-sized, since the gather is its only reader.
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
        4 * 8 * STRIP_ROWS as u64,
        "the concat holds one strip; the boundary gather no slot"
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

/// A softmax feeding a `ByDst` sum directly (the shape `tests/grad_props.rs`
/// draws at random): backward, `y·(g − Σ_dst g·y)` reads the incoming
/// gradient as an aliased `CopyV` — `grad[dst(e)]` for every row of a
/// group — so the group sum folds `g·y` edge by edge (not in blocks: an
/// operand sits at the destination) and the difference takes that
/// operand through the staged strips; on the hub, whose group is longer
/// than a stage, across strip boundaries inside one group. Two heads are
/// staged, eight read in place row by row.
#[test]
fn softmax_backward_sweeps_read_an_aliased_gradient() {
    for g in [small_graph(), hub_graph()] {
        for heads in [2usize, 8] {
            let mut ir = IrGraph::new();
            let h = ir.input_vertex("h", Dim::flat(3));
            let w = ir.param("w", 3, heads);
            let hw = ir.linear(h, w).unwrap();
            let s = ir.set_heads(hw, heads).unwrap();
            let e = ir.scatter(ScatterFn::Bin(BinaryFn::Add), s, s).unwrap();
            let sm = ir.edge_softmax(e).unwrap();
            let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, sm).unwrap();
            ir.mark_output(out);
            let plan = plan_of(&ir, true);
            let units = plan.programs.iter().flat_map(|p| &p.units);
            let ops: Vec<_> = units.flat_map(|u| &u.ops).collect();
            let sub = ops
                .iter()
                .find(|op| op.kind == OpKind::Binary(BinaryFn::Sub));
            let grad = sub.expect("a tiled difference").srcs[0];
            assert_eq!(
                grad.at,
                RowAt::DstV,
                "the gradient is read through the alias"
            );
            let at_dst = |op: &&&TileOp| op.size == SlotSize::Fold && op.srcs[0].at == RowAt::DstV;
            assert!(
                ops.iter().any(|op| at_dst(&op)),
                "the group sum folds g@dst · y"
            );
            let b = Bindings::new()
                .with("h", fill(g.num_vertices(), 3, 13))
                .with("w", fill(3, heads, 14));
            check_against_oracle(&plan, &g, &b);
        }
    }
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

// ---- Slot sizes --------------------------------------------------------

/// `h[src(e)] ⊙ w(e)` with one weight per head: a head-broadcast
/// `Binary`, so it runs row by row whatever reads it. `E[2×3]`.
fn edge_product(ir: &mut IrGraph) -> usize {
    let h = ir.input_vertex("h", Dim::multi(2, 3));
    let ew = ir.input_edge("ew", Dim::multi(2, 1));
    let hu = ir.scatter(ScatterFn::CopyU, h, h).unwrap();
    ir.binary(BinaryFn::Mul, hu, ew).unwrap()
}

fn edge_product_bindings(g: &Graph) -> Bindings {
    Bindings::new()
        .with("h", fill(g.num_vertices(), 6, 21))
        .with("ew", fill(g.num_edges(), 2, 22))
}

/// Checks `plan` on the one-tile graph and on the hub graph (isolated
/// vertices, a hub of 4 996 in-edges); returns the one-tile
/// serial run's scratch bytes.
fn scratch_on_both_graphs(plan: &ExecutionPlan, bind: impl Fn(&Graph) -> Bindings) -> u64 {
    let hub = hub_graph();
    check_against_oracle(plan, &hub, &bind(&hub));
    let g = small_graph();
    check_against_oracle(plan, &g, &bind(&g)).scratch_bytes
}

/// A product that runs row by row into a single `Gather` holds no tile's
/// edge rows: a `Sum` or `Mean` folds it and it holds nothing, a `Max`
/// (whose argmax compares whole rows) gives it a strip.
#[test]
fn row_sized_producer_feeds_each_reduction() {
    for (reduce, held) in [
        (ReduceFn::Sum, 0),
        (ReduceFn::Mean, 0),
        (ReduceFn::Max, 4 * 6 * STRIP_ROWS as u64),
    ] {
        let mut ir = IrGraph::new();
        let me = edge_product(&mut ir);
        let out = ir.gather(reduce, EdgeGroup::ByDst, me).unwrap();
        ir.mark_output(out);
        let plan = plan_of(&ir, false);
        assert_eq!(plan.programs.len(), 1, "one fused kernel");
        assert_eq!(
            scratch_on_both_graphs(&plan, edge_product_bindings),
            held,
            "{reduce:?}"
        );
    }
}

/// … and into a `FeatSum`, itself row-sized under the gather that reads
/// it: the feat-sum folds the product and holds the one strip.
#[test]
fn row_sized_producer_feeds_feat_sum() {
    let mut ir = IrGraph::new();
    let me = edge_product(&mut ir);
    let fs = ir.feat_sum(me).unwrap();
    let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, fs).unwrap();
    ir.mark_output(out);
    let plan = plan_of(&ir, false);
    assert_eq!(plan.programs.len(), 1, "one fused kernel");
    assert_eq!(
        scratch_on_both_graphs(&plan, edge_product_bindings),
        4 * 2 * STRIP_ROWS as u64,
        "the feat-sum's strip"
    );
}

/// Two readers: whichever runs second would find the strip moved on, so
/// the producer keeps the tile's rows.
#[test]
fn producer_with_two_readers_stays_tile_sized() {
    let mut ir = IrGraph::new();
    let me = edge_product(&mut ir);
    let a = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
    let b = ir.gather(ReduceFn::Max, EdgeGroup::ByDst, me).unwrap();
    ir.mark_output(a);
    ir.mark_output(b);
    let plan = plan_of(&ir, false);
    assert_eq!(plan.programs.len(), 1, "one fused kernel");
    assert_eq!(
        scratch_on_both_graphs(&plan, edge_product_bindings),
        4 * 6 * small_graph().num_edges() as u64,
        "the product holds the tile's edge rows"
    );
}

/// An elementwise reader between the product and the gather: row-sized
/// itself (one call per strip), it takes the product's rows once, so both
/// hold a strip. As a model output it covers the tile in one call into
/// its tensor, and the product keeps the tile's rows for it.
#[test]
fn elementwise_reader_takes_rows_once_only_when_row_sized() {
    for (boundary, held) in [
        (false, 4 * (6 + 6) * STRIP_ROWS as u64),
        (true, 4 * 6 * small_graph().num_edges() as u64),
    ] {
        let mut ir = IrGraph::new();
        let me = edge_product(&mut ir);
        let act = ir.unary(UnaryFn::LeakyRelu(0.2), me).unwrap();
        let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, act).unwrap();
        ir.mark_output(out);
        if boundary {
            ir.mark_output(act);
        }
        let plan = plan_of(&ir, false);
        assert_eq!(plan.programs.len(), 1, "one fused kernel");
        assert_eq!(
            scratch_on_both_graphs(&plan, edge_product_bindings),
            held,
            "activation is a boundary: {boundary}"
        );
    }
}

/// A producer that is itself a model output is written to its tensor,
/// which its reader reads back: no slot of either size.
#[test]
fn materialized_producer_is_written_in_place() {
    let mut ir = IrGraph::new();
    let me = edge_product(&mut ir);
    let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
    ir.mark_output(out);
    ir.mark_output(me);
    let plan = plan_of(&ir, false);
    assert_eq!(
        steps_of(&plan, |k| matches!(k, OpKind::Binary(_))),
        vec![Storage::Materialized]
    );
    assert_eq!(scratch_on_both_graphs(&plan, edge_product_bindings), 0);
}

/// GAT training, one layer of two heads: the backward kernel's
/// `FeatSum` runs row by row but feeds the softmax backward twice — the
/// folded `g·y` of its group sum and the difference `g − s` — so it keeps
/// a tile-sized slot, and folds the `E[2×4]` product in front of it. The
/// attention backward and the feature gradient are one streamed unit
/// behind the recomputed softmax. One tile, so the high-water mark is
/// that unit's: seven `E[2]` tile slots (score, leaky-relu — read by the
/// softmax, which sweeps each group three times — softmax, feat-sum, the
/// difference, its product with the softmax, and the score gradient,
/// which the by-source and the by-destination sum both read), the `V[2]`
/// group sum, and the softmax's pair of `2`-wide group rows (max and
/// denominator).
#[test]
fn producer_read_by_softmax_backward_stays_tile_sized() {
    let spec = gat(&GatConfig {
        in_dim: 5,
        layers: vec![(2, 4)],
        negative_slope: 0.2,
        reorganized: false,
    })
    .expect("gat builds");
    let plan = plan_of(&spec.ir, true);
    let bind = |g: &Graph| {
        let mut b = Bindings::new();
        for (k, v) in spec.init_values(g, 23) {
            b.insert(&k, v);
        }
        b
    };
    let (vertices, edges) = (small_graph().num_vertices(), small_graph().num_edges());
    assert_eq!(
        scratch_on_both_graphs(&plan, bind),
        4 * (7 * 2 * edges + 2 * vertices + 2 * 2) as u64,
    );
}

/// Training `feat_sum(gather(Mean|Max, ByDst, copy_u(linear(h))))` over
/// two heads: the backward kernel broadcasts the incoming gradient per
/// head in vertex space (row by row) and `GatherMeanBwd` / `GatherMaxBwd`
/// is its only reader — at `dst(e)`, not at its own edge row, so the
/// row-sized broadcast is pulled at the destination vertex.
#[test]
fn row_sized_vertex_producer_is_read_at_dst_by_a_gather_backward() {
    for reduce in [ReduceFn::Mean, ReduceFn::Max] {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(3));
        let w = ir.param("w", 3, 6);
        let hw = ir.linear(h, w).unwrap();
        let hh = ir.set_heads(hw, 2).unwrap();
        let hu = ir.scatter(ScatterFn::CopyU, hh, hh).unwrap();
        let agg = ir.gather(reduce, EdgeGroup::ByDst, hu).unwrap();
        let out = ir.feat_sum(agg).unwrap();
        ir.mark_output(out);
        let plan = plan_of(&ir, true);
        let bind = |g: &Graph| {
            Bindings::new()
                .with("h", fill(g.num_vertices(), 3, 41))
                .with("w", fill(3, 6, 42))
        };
        scratch_on_both_graphs(&plan, bind);
    }
}

// ---- Folded products ---------------------------------------------------
//
// A row-sized `Binary(Mul)` whose one reader is a `Gather` `Sum`/`Mean`
// or a `FeatSum` is folded (`SlotSize::Fold`): the reader adds `x·s` per
// edge from the product's operands, hinting the random `src(e)` rows 32
// edges ahead (the streamed accumulate its target row too). The sweeps
// below hold that seam to the oracle's bits.

/// Fewer edges than the look-ahead: every hint runs off the edge array.
fn tiny_graph() -> Graph {
    let pairs = [(1, 0), (2, 0), (3, 1), (0, 2), (4, 2), (2, 3), (1, 3)];
    Graph::from_edge_list(&EdgeList::from_pairs(7, &pairs))
}

/// A product of `Dim::multi(heads, feat)` rows: head-broadcast, `h@src ×
/// w E[heads]`, or equal-shape, `g@dst × h@src`; with its bindings.
fn folded_product(ir: &mut IrGraph, g: &Graph, dim: Dim, per_head: bool) -> (usize, Bindings) {
    let h = ir.input_vertex("h", dim);
    let hu = ir.scatter(ScatterFn::CopyU, h, h).unwrap();
    let b = Bindings::new().with("h", fill(g.num_vertices(), dim.total(), 51));
    if per_head {
        let w = ir.input_edge("w", Dim::multi(dim.heads, 1));
        let b = b.with("w", fill(g.num_edges(), dim.heads, 52));
        (ir.binary(BinaryFn::Mul, hu, w).unwrap(), b)
    } else {
        let gv = ir.input_vertex("g", dim);
        let gv = ir.scatter(ScatterFn::CopyV, gv, gv).unwrap();
        let b = b.with("g", fill(g.num_vertices(), dim.total(), 53));
        (ir.binary(BinaryFn::Mul, gv, hu).unwrap(), b)
    }
}

/// Asserts `plan` folds every `binary_Mul` a sum reads (a `Gather`
/// `Sum`/`Mean` or a `FeatSum`, in its unit; the softmax backward's last
/// product and a head-dot input dual feed no sum); returns how many of
/// them pull a row-sized operand.
fn folds_every_product(plan: &ExecutionPlan) -> usize {
    let sums = |op: &TileOp| match op.kind {
        OpKind::Gather { reduce, .. } => reduce != ReduceFn::Max,
        _ => op.kind == OpKind::FeatSum,
    };
    let mut pulled = 0;
    for u in plan.programs.iter().flat_map(|p| &p.units) {
        for (j, op) in u.ops.iter().enumerate() {
            let summed = u.ops.iter().any(|r| sums(r) && r.srcs[0].slot() == Some(j));
            if op.kind == OpKind::Binary(BinaryFn::Mul) && summed {
                assert_eq!(op.size, SlotSize::Fold, "{:?}", op.kind);
                pulled += usize::from(op.pulls);
            }
        }
    }
    pulled
}

/// The block sweep: a by-destination `Sum` of `a·b`, both edge rows at the
/// gather's own rows and nothing pulled, sums each group as one block;
/// read through an exact `Scale(1)`, `a` is pulled and the same product
/// folds edge by edge. Narrow and wide rows, tile budgets that cut between
/// groups and the hub's one-group tile, isolated vertices: both run the
/// oracle's bits, and the two oracles agree.
#[test]
fn block_sweep_equals_the_per_edge_fold() {
    for g in [small_graph(), hub_graph()] {
        for width in [1usize, 3, 8, 64] {
            let b = Bindings::new()
                .with("a", fill(g.num_edges(), width, 81))
                .with("b", fill(g.num_edges(), width, 82));
            let mut want = Vec::new();
            for pulled in [false, true] {
                let mut ir = IrGraph::new();
                let a = ir.input_edge("a", Dim::flat(width));
                let y = ir.input_edge("b", Dim::flat(width));
                let a = match pulled {
                    true => ir.unary(UnaryFn::Scale(1.0), a).unwrap(),
                    false => a,
                };
                let p = ir.binary(BinaryFn::Mul, a, y).unwrap();
                let out = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, p).unwrap();
                ir.mark_output(out);
                let plan = plan_of(&ir, false);
                assert_eq!(folds_every_product(&plan), usize::from(pulled));
                check_against_oracle(&plan, &g, &b);
                let oracle = refexec::evaluate(&plan, &g, &b, None).expect("oracle");
                want.push(bits(&oracle.outputs[0]));
            }
            assert_eq!(want[0], want[1], "width {width}");
        }
    }
}

/// Both product shapes at heads {1, 2, 4} × feat {1, 3, 8, 32} under each
/// reader — by-destination `Sum`/`Mean`, the streamed by-source
/// `Sum`/`Mean`, a `FeatSum` written out and one read row by row by a
/// gather — on the hub graph and on one with fewer edges than the
/// look-ahead. The sweep's 7-edge tiles put the last tile within the
/// look-ahead of |E|, and its four workers give streamed workers
/// look-ahead sources they do not own.
#[test]
fn folded_products_keep_the_oracle_bits() {
    type Reader = fn(&mut IrGraph, usize) -> usize;
    let readers: [Reader; 6] = [
        |ir, p| ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, p).unwrap(),
        |ir, p| ir.gather(ReduceFn::Mean, EdgeGroup::ByDst, p).unwrap(),
        |ir, p| ir.gather(ReduceFn::Sum, EdgeGroup::BySrc, p).unwrap(),
        |ir, p| ir.gather(ReduceFn::Mean, EdgeGroup::BySrc, p).unwrap(),
        |ir, p| ir.feat_sum(p).unwrap(),
        |ir, p| {
            let fs = ir.feat_sum(p).unwrap();
            ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, fs).unwrap()
        },
    ];
    for g in [tiny_graph(), hub_graph()] {
        for (heads, feat) in [1usize, 2, 4]
            .into_iter()
            .flat_map(|h| [1, 3, 8, 32].map(|f| (h, f)))
        {
            for per_head in [true, false] {
                for read in readers {
                    let mut ir = IrGraph::new();
                    let (p, b) = folded_product(&mut ir, &g, Dim::multi(heads, feat), per_head);
                    let out = read(&mut ir, p);
                    ir.mark_output(out);
                    let plan = plan_of(&ir, false);
                    folds_every_product(&plan);
                    check_against_oracle(&plan, &g, &b);
                }
            }
        }
    }
}

/// Every feature sum, a head-dot's included, runs in ascending feature
/// order from `−0.0`: a head whose products are all `−0.0` — a zero row
/// of `x` times a negative parameter — scores `−0.0`, in the oracle's
/// sum of the written product and in the session's fold of it alike, at
/// one and four threads.
#[test]
fn a_head_dot_of_zero_features_scores_negative_zero() {
    let g = small_graph();
    let mut ir = IrGraph::new();
    let x = ir.input_vertex("x", Dim::flat(5));
    let a = ir.param("a", 1, 5);
    let score = ir.head_dot(x, a).unwrap();
    ir.mark_output(score);
    let plan = plan_of(&ir, false);
    folds_every_product(&plan);
    let b = Bindings::new()
        .with("x", Tensor::zeros(&[g.num_vertices(), 5]))
        .with("a", Tensor::from_fn(&[1, 5], |i| -0.5 - i as f32));
    check_against_oracle(&plan, &g, &b);
    let oracle = refexec::evaluate(&plan, &g, &b, None).expect("oracle");
    let want = vec![(-0.0f32).to_bits(); g.num_vertices()];
    assert_eq!(bits(&oracle.outputs[0]), want);
}

/// A fold that pulls: the streamed by-source `Sum`/`Mean` over `g@dst ×
/// leaky_relu(s)`, whose narrow `E[heads]` operand is row-sized — GAT's
/// backward feature gradient in shape. In a GAT training plan that
/// operand is the recomputed softmax, which sweeps its groups and so is
/// tile-sized: the feature gradient folds it without a pull.
#[test]
fn a_fold_pulls_its_row_sized_operand_in_runs() {
    for g in [tiny_graph(), hub_graph()] {
        for reduce in [ReduceFn::Sum, ReduceFn::Mean] {
            let mut ir = IrGraph::new();
            let gv = ir.input_vertex("g", Dim::multi(2, 8));
            let gv = ir.scatter(ScatterFn::CopyV, gv, gv).unwrap();
            let s = ir.input_edge("s", Dim::multi(2, 1));
            let s = ir.unary(UnaryFn::LeakyRelu(0.2), s).unwrap();
            let p = ir.binary(BinaryFn::Mul, gv, s).unwrap();
            let out = ir.gather(reduce, EdgeGroup::BySrc, p).unwrap();
            ir.mark_output(out);
            let plan = plan_of(&ir, false);
            assert_eq!(folds_every_product(&plan), 1, "{reduce:?}");
            let b = Bindings::new()
                .with("g", fill(g.num_vertices(), 16, 61))
                .with("s", fill(g.num_edges(), 2, 62));
            check_against_oracle(&plan, &g, &b);
        }
        let spec = gat(&GatConfig {
            in_dim: 5,
            layers: vec![(2, 8)],
            negative_slope: 0.2,
            reorganized: false,
        })
        .expect("gat builds");
        let plan = plan_of(&spec.ir, true);
        folds_every_product(&plan);
        let streamed = plan.programs.iter().flat_map(|p| &p.units);
        let folds_softmax = streamed.filter(|u| u.kind == UnitKind::Streamed).any(|u| {
            let softmax = |j: usize| {
                let op = &u.ops[j];
                op.kind == OpKind::EdgeSoftmax && op.size == SlotSize::Tile
            };
            u.ops.iter().any(|op| {
                op.size == SlotSize::Fold && op.srcs.iter().any(|s| s.slot().is_some_and(softmax))
            })
        });
        assert!(
            folds_softmax,
            "the feature gradient folds a tile-sized softmax"
        );
        let mut b = Bindings::new();
        for (k, v) in spec.init_values(&g, 67) {
            b.insert(&k, v);
        }
        check_against_oracle(&plan, &g, &b);
    }
}

// ---- Boundary outputs written in place ---------------------------------

/// Vertex-space boundary outputs are computed straight into their
/// tensors; the rows of isolated vertices — which no edge ever touches —
/// must still read as the reductions' identities, and a same-segment
/// reader must see them.
#[test]
fn in_place_boundary_outputs_keep_isolated_rows() {
    for g in [small_graph(), hub_graph()] {
        for reduce in [ReduceFn::Sum, ReduceFn::Mean, ReduceFn::Max] {
            let mut ir = IrGraph::new();
            let me = edge_product(&mut ir);
            let agg = ir.gather(reduce, EdgeGroup::ByDst, me).unwrap();
            let act = ir.unary(UnaryFn::Sigmoid, agg).unwrap();
            ir.mark_output(agg);
            ir.mark_output(act);
            let plan = plan_of(&ir, false);
            let b = edge_product_bindings(&g);
            check_against_oracle(&plan, &g, &b);
            for threads in [1usize, 4] {
                let mut sess = Session::builder(&plan, &g)
                    .policy(ExecPolicy {
                        threads,
                        parallel_threshold: 0,
                        tile_edges: 7,
                        ..ExecPolicy::serial()
                    })
                    .env(EnvOverrides::Off)
                    .build()
                    .expect("session");
                let out = sess.forward(&b).expect("forward");
                let isolated = (0..g.num_vertices()).filter(|&v| g.in_adj().degree(v) == 0);
                for v in isolated {
                    assert!(
                        out[0].row(v).iter().all(|&x| x == 0.0),
                        "{reduce:?} row {v}"
                    );
                    assert!(
                        out[1].row(v).iter().all(|&x| x == 0.5),
                        "sigmoid(0) row {v}"
                    );
                }
            }
        }
    }
}

// ---- Streamed segments -------------------------------------------------

/// GCN training: the backward `BySrc` gather streams a chain whose
/// `UnaryBwd` is vertex-space, read at `dst(e)` — a vertex-space tile op
/// of the streamed segment.
#[test]
fn streamed_segment_with_a_vertex_op_read_at_dst() {
    let spec = gcn(&GcnConfig {
        in_dim: 4,
        layer_dims: vec![5, 3],
    })
    .expect("gcn builds");
    let plan = plan_of(&spec.ir, true);
    for g in [small_graph(), hub_graph()] {
        let mut b = Bindings::new();
        for (k, v) in spec.init_values(&g, 29) {
            b.insert(&k, v);
        }
        check_against_oracle(&plan, &g, &b);
    }
}

/// `BySrc` Sum and Mean over a product whose vertex operand is an
/// activation read at `src(e)` (lowering ends the segment there, so the
/// chain sees a full tensor) or at `dst(e)` (a chain member).
#[test]
fn streamed_segments_sum_and_mean_over_either_endpoint() {
    for g in [small_graph(), hub_graph()] {
        for reduce in [ReduceFn::Sum, ReduceFn::Mean] {
            for copy in [ScatterFn::CopyU, ScatterFn::CopyV] {
                let mut ir = IrGraph::new();
                let x = ir.input_vertex("x", Dim::flat(4));
                let ew = ir.input_edge("ew", Dim::flat(4));
                let xr = ir.unary(UnaryFn::LeakyRelu(0.3), x).unwrap();
                let xe = ir.scatter(copy, xr, xr).unwrap();
                let me = ir.binary(BinaryFn::Mul, xe, ew).unwrap();
                let out = ir.gather(reduce, EdgeGroup::BySrc, me).unwrap();
                ir.mark_output(out);
                let plan = plan_of(&ir, false);
                let b = Bindings::new()
                    .with("x", fill(g.num_vertices(), 4, 31))
                    .with("ew", fill(g.num_edges(), 4, 32));
                check_against_oracle(&plan, &g, &b);
            }
        }
    }
}

/// A softmax streams into a by-source gather: a tile owns whole
/// destination groups, so the streamed unit sweeps them itself and the
/// edge rows behind the gather never spill. Forward, `gather(Sum, BySrc,
/// mul(copy_u(h), edge_softmax(x)))`; and GAT and GATv2 training plans,
/// whose attention backward and feature gradient are one walk behind the
/// recomputed softmax: two by-source gathers and a by-destination sum
/// the walk writes — GATv2's also a boundary value the walk reads back
/// (`SlotSize::Both`). Threads {1, 4} × tile budgets {1, 7, 4096} on the
/// small and hub graphs, against the oracle. At four threads the
/// streamed unit's workers own source ranges yet each sweeps every
/// tile's groups, so a softmax whose max and denominator rows were
/// chunked by vertex among the workers would miss the destinations
/// outside a worker's chunk; each keeps one group's rows in its own slab
/// instead. A by-destination row is written by the one worker that owns
/// its tile, and every other worker evaluates it into its tile slot.
#[test]
fn a_softmax_streams_into_a_by_source_gather() {
    let forward = {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::multi(2, 3));
        let x = ir.input_edge("x", Dim::multi(2, 1));
        let hu = ir.scatter(ScatterFn::CopyU, h, h).unwrap();
        let sm = ir.edge_softmax(x).unwrap();
        let me = ir.binary(BinaryFn::Mul, hu, sm).unwrap();
        let out = ir.gather(ReduceFn::Sum, EdgeGroup::BySrc, me).unwrap();
        ir.mark_output(out);
        plan_of(&ir, false)
    };
    let spec = gat(&GatConfig {
        in_dim: 5,
        layers: vec![(2, 8)],
        negative_slope: 0.2,
        reorganized: false,
    })
    .expect("gat builds");
    let training = plan_of(&spec.ir, true);
    let v2 = gatv2(&Gatv2Config {
        in_dim: 5,
        layers: vec![(2, 4)],
        negative_slope: 0.2,
    })
    .expect("gatv2 builds");
    let v2_training = plan_of(&v2.ir, true);
    for (plan, both) in [(&training, false), (&v2_training, true)] {
        let by_dst = OpKind::Gather {
            reduce: ReduceFn::Sum,
            group: EdgeGroup::ByDst,
        };
        let by_src = |op: &&TileOp| {
            let group = op.kind.reduction_group();
            matches!(op.kind, OpKind::Gather { .. }) && group == Some(EdgeGroup::BySrc)
        };
        let walk =
            |u: &&Unit| u.kind == UnitKind::Streamed && u.ops.iter().filter(by_src).count() == 2;
        let mut units = plan.programs.iter().flat_map(|p| &p.units);
        let unit = units
            .find(walk)
            .expect("one walk feeds both by-source gathers");
        let sink = |op: &TileOp| op.kind == by_dst && op.size == SlotSize::Sink;
        assert!(
            unit.ops.iter().any(sink),
            "the walk writes a by-destination sum"
        );
        assert_eq!(unit.ops.iter().any(|op| op.size == SlotSize::Both), both);
    }
    for plan in [&forward, &training, &v2_training] {
        let holds_softmax = |u: &Unit| {
            u.kind == UnitKind::Streamed && u.ops.iter().any(|op| op.kind == OpKind::EdgeSoftmax)
        };
        let streams = |p: &&KernelProgram| p.units.iter().any(holds_softmax);
        let prog = plan.programs.iter().find(streams);
        let prog = prog.expect("a streamed unit holds the softmax");
        let spill = |s: &&ProgramStep| s.storage == Storage::Interior && s.space == Space::Edge;
        assert_eq!(prog.steps.iter().find(spill).map(|s| s.node), None);
    }
    for g in [small_graph(), hub_graph()] {
        let b = Bindings::new()
            .with("h", fill(g.num_vertices(), 6, 91))
            .with("x", fill(g.num_edges(), 2, 92));
        check_against_oracle(&forward, &g, &b);
        for (spec, plan) in [(&spec, &training), (&v2, &v2_training)] {
            let mut b = Bindings::new();
            for (k, v) in spec.init_values(&g, 93) {
                b.insert(&k, v);
            }
            check_against_oracle(plan, &g, &b);
        }
    }
}
