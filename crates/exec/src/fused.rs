//! Tiled execution of lowered [`KernelProgram`]s: fusion realized on the
//! host, not just in the analytical model.
//!
//! This is the session's only way to run a kernel. Evaluating a fused
//! kernel node by node (as the test oracle, [`crate::refexec::evaluate`],
//! does) materializes every member as a full tensor, so fusion would only
//! change the *accounting*. This interpreter executes a program over CSR
//! **destination-vertex ranges** (tiles): scratch-class members live
//! only as per-tile rows inside a worker-local arena, so the `O(|E|·d)`
//! intermediates of a gather→edge-op→scatter chain never exist in memory
//! — the measured `peak_value_bytes` drops toward what `gnnopt-sim`
//! predicts for the fused plan (interior spills, see
//! `gnnopt_core::lower`, are the remaining gap).
//!
//! # Streamed full steps
//!
//! A whole-graph `BySrc` gather (a full step) normally forces its input
//! to spill as an interior tensor: the tiled segment writes `O(|E|·d)`
//! rows the full step immediately re-reads. When that gather is the
//! spill's only consumer and the producer chain is per-edge computable
//! ([`plan_streams`]), the chain is elided from the tiled segments and
//! compiled to per-edge micro-ops ([`StreamEval`]) evaluated inside the
//! gather's own ascending edge scan: pure copies are aliased away,
//! vertex-space steps are memoized per edge group, and the spill never
//! exists. This is the dominant backward-phase cost of GAT/GCN on
//! power-law graphs; eliding it is worth >3× on a GCN backward pass.
//!
//! # Tiling and determinism
//!
//! Destination tiles are cut greedily along `indptr` with at most
//! [`gnnopt_core::ExecPolicy::tile_edges`] edges per tile (a single
//! vertex whose in-degree exceeds the budget still gets one intact tile —
//! reduction groups never split). Because the canonical edge numbering is
//! destination-major, a tile `[v0, v1)` owns the contiguous edge rows
//! `[indptr[v0], indptr[v1])`, every `ByDst` group is wholly inside one
//! tile, and per-vertex edge order is preserved. Each step executes the
//! *same expressions in the same order* as the reference kernels in
//! [`crate::kernels`] — since PR 5 both literally call the shared
//! feature-axis loops of [`gnnopt_tensor::rowops`] — so fused results are
//! **bit-identical** to the node-by-node oracle for any tile budget and
//! any thread count.
//!
//! # Parallelism and scratch
//!
//! Tiles are distributed over `std::thread::scope` workers in contiguous
//! runs (reusing the `ExecPolicy` partitioning of PR 2), so each worker
//! writes disjoint contiguous row ranges of the materialized outputs and
//! auxiliaries — no atomics. Every worker owns one scratch arena sized
//! for its largest tile and reuses it across its tiles; the total arena
//! footprint is reported as `RunStats::scratch_bytes`.

use crate::kernels::{
    chunk_bounds, plan_threads, reduce_row_mean, reduce_row_sum, split_rows, vertex_bounds,
    NO_ARGMAX,
};
use crate::{contain, ExecError, Result};
use gnnopt_core::lower::{KernelProgram, StepExec, Storage};
use gnnopt_core::{
    Dim, EdgeGroup, ExecPolicy, IrGraph, Node, NodeId, OpKind, ReduceFn, ScatterFn, Space,
};
use gnnopt_graph::Graph;
use gnnopt_tensor::{pool, rowops, Tensor};
use std::collections::{HashMap, HashSet};

/// Everything a fused kernel launch produced for the session's stores.
pub(crate) struct ProgramResult {
    /// Every full tensor the program produced, in step order: boundary
    /// values *and* interior spills. The session retires the spills as
    /// soon as the kernel finishes (death lists for ordinary members, the
    /// explicit recompute drop for spilled recompute values), so they
    /// only count toward the peak while they are genuinely alive.
    pub outputs: Vec<(NodeId, Tensor)>,
    /// Freshly computed edge-softmax auxiliaries (max, denominator).
    pub new_aux_softmax: Vec<(NodeId, (Tensor, Tensor))>,
    /// Freshly computed gather-max argmax tables.
    pub new_aux_argmax: Vec<(NodeId, Vec<u32>)>,
    /// High-water mark of scratch-arena bytes across workers (max over
    /// the program's tiled segments).
    pub scratch_bytes: u64,
    /// Bytes of dying inputs the launch freed mid-flight (arena mode):
    /// already removed from the store the caller lent us, so the session
    /// subtracts them from its live accounting.
    pub evicted_bytes: u64,
}

/// Where a step operand's rows come from at tile-execution time.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A live full tensor in the session's value store.
    Global(NodeId),
    /// A same-segment step's scratch slot (tile-relative rows).
    Slot {
        /// Index into `KernelProgram::steps`.
        step: usize,
        cols: usize,
        space: Space,
    },
    /// An earlier segment's materialized/interior tensor (full rows,
    /// complete before this segment runs).
    Mat(usize),
    /// A prelude tensor (parameter-space view, full rows).
    Prelude(usize),
}

/// Per-step execution metadata, precomputed once per launch.
struct StepPlan {
    node: NodeId,
    space: Space,
    cols: usize,
    storage: Storage,
    srcs: Vec<Src>,
    /// Input dims (`ir.node(inputs[i]).dim`), for broadcast/head layout.
    dins: Vec<Dim>,
}

/// Which edge endpoint a vertex-space chain step is instantiated at
/// during a streamed scan, inherited from the scatter that consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// Evaluated at `src(e)` (feeds a `CopyU` / `Bin` u-operand).
    Src,
    /// Evaluated at `dst(e)` (feeds a `CopyV` / `Bin` v-operand).
    Dst,
}

/// A full-step `BySrc` gather whose interior input chain is evaluated
/// inside the ascending edge scan instead of being materialized by the
/// tiled segment (see [`plan_streams`]).
struct StreamChain {
    /// Chain steps in dependency order (every `Src::Slot` operand of a
    /// step appears before the step itself); the last entry is the
    /// interior root the gather reads.
    order: Vec<usize>,
    /// Anchors for the vertex-space chain steps.
    anchors: HashMap<usize, Anchor>,
}

/// Finds full-step `Gather(Sum|Mean, BySrc)` reductions whose whole
/// producer chain can be evaluated per edge inside the gather's scan.
///
/// A source-grouped reduction cannot tile by destination, so lowering
/// runs it as a whole-graph full step and spills its input — an
/// `O(|E|·d)` interior tensor the tiled segment writes and the full step
/// immediately re-reads (for a 64-wide RMAT-16 layer that is ~270 MB of
/// traffic each way, the dominant backward cost of GAT and GCN). When
/// that interior is consumed by nothing else and every step of its
/// producer chain is per-edge computable from full tensors — scatter
/// broadcasts, elementwise ops, stash-backed softmax recomputes — the
/// chain is *elided from the tiled segment entirely* and re-evaluated
/// inside the gather's ascending edge scan, so the edge-space
/// intermediate never exists in memory.
///
/// **Determinism**: the streamed scan evaluates the *same expressions*
/// as the tiled steps (the same [`rowops`] calls on the same rows) and
/// accumulates each output row in ascending canonical edge order —
/// exactly the `BySrc` order of [`crate::kernels::gather`] — so results
/// stay bit-identical to the materializing path for any thread count.
fn plan_streams(
    steps: &[StepPlan],
    program: &KernelProgram,
    ir: &IrGraph,
    aux_softmax: &HashMap<NodeId, (Tensor, Tensor)>,
) -> HashMap<usize, StreamChain> {
    // Recursive chain walk: `anchor` is the vertex endpoint this operand
    // must be instantiated at (vertex-space operands only). Returns false
    // as soon as anything in the chain is not per-edge evaluable.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        si: usize,
        anchor: Option<Anchor>,
        steps: &[StepPlan],
        program: &KernelProgram,
        ir: &IrGraph,
        aux_softmax: &HashMap<NodeId, (Tensor, Tensor)>,
        order: &mut Vec<usize>,
        anchors: &mut HashMap<usize, Anchor>,
        visited: &mut HashSet<usize>,
    ) -> bool {
        let sp = &steps[si];
        if sp.space == Space::Vertex {
            // A vertex-space step needs a consistent endpoint to be
            // instantiated at; two consumers disagreeing (or a direct
            // edge-space read) make the chain ineligible.
            let Some(a) = anchor else { return false };
            match anchors.get(&si) {
                Some(&prev) if prev != a => return false,
                _ => {
                    anchors.insert(si, a);
                }
            }
        }
        if !visited.insert(si) {
            return true;
        }
        // Only tiled scratch/interior members can be elided: materialized
        // steps are kernel boundaries the session must still receive, and
        // full steps have whole-graph semantics of their own.
        if program.steps[si].exec != StepExec::Tiled
            || !matches!(sp.storage, Storage::Scratch | Storage::Interior)
        {
            return false;
        }
        let mut rec = |src: Src, a: Option<Anchor>| -> bool {
            match src {
                // Full tensors (value store, prelude views, earlier
                // segments) are readable row-by-row during the scan.
                Src::Global(_) | Src::Prelude(_) | Src::Mat(_) => true,
                Src::Slot { step, .. } => visit(
                    step,
                    a,
                    steps,
                    program,
                    ir,
                    aux_softmax,
                    order,
                    anchors,
                    visited,
                ),
            }
        };
        let ok = match &ir.node(sp.node).kind {
            OpKind::Scatter(f) if sp.space == Space::Edge => {
                let x = sp.srcs[0];
                let y = *sp.srcs.last().expect("scatter has inputs");
                match f {
                    ScatterFn::CopyU => rec(x, Some(Anchor::Src)),
                    ScatterFn::CopyV => rec(y, Some(Anchor::Dst)),
                    ScatterFn::Bin(_) => rec(x, Some(Anchor::Src)) && rec(y, Some(Anchor::Dst)),
                    ScatterFn::ConcatUV => false,
                }
            }
            // Softmax is per-edge only when the forward max/denominator
            // are stashed (the recomputation plan's O(|V|) auxiliaries).
            OpKind::EdgeSoftmax => aux_softmax.contains_key(&sp.node) && rec(sp.srcs[0], None),
            OpKind::Unary(_)
            | OpKind::UnaryBwd(_)
            | OpKind::Binary(_)
            | OpKind::SetHeads { .. }
            | OpKind::FeatSum => {
                // A vertex-space elementwise step propagates its own
                // anchor (validated above) down to its operands.
                let a = if sp.space == Space::Vertex {
                    anchor
                } else {
                    None
                };
                sp.srcs.iter().all(|&s| rec(s, a))
            }
            _ => false,
        };
        if ok {
            order.push(si);
        }
        ok
    }

    let mut streams = HashMap::new();
    for (si, sp) in steps.iter().enumerate() {
        if program.steps[si].exec != StepExec::Full {
            continue;
        }
        let OpKind::Gather {
            reduce: ReduceFn::Sum | ReduceFn::Mean,
            group: EdgeGroup::BySrc,
        } = ir.node(sp.node).kind
        else {
            continue;
        };
        let Src::Mat(root) = sp.srcs[0] else { continue };
        // Only an interior spill can be elided — and only when this
        // gather is its sole consumer (checked below over all steps).
        if steps[root].storage != Storage::Interior || steps[root].space != Space::Edge {
            continue;
        }
        let mut order = Vec::new();
        let mut anchors = HashMap::new();
        let mut visited = HashSet::new();
        if !visit(
            root,
            None,
            steps,
            program,
            ir,
            aux_softmax,
            &mut order,
            &mut anchors,
            &mut visited,
        ) {
            continue;
        }
        // Every chain step must be consumed inside the chain (or, for the
        // root, by this gather alone) — otherwise the tiled segment still
        // has to produce it and nothing is saved.
        let chain: HashSet<usize> = order.iter().copied().collect();
        let sole = steps.iter().enumerate().all(|(ti, tp)| {
            ti == si
                || chain.contains(&ti)
                || tp.srcs.iter().all(|s| match *s {
                    Src::Slot { step, .. } => !chain.contains(&step),
                    Src::Mat(mi) => !chain.contains(&mi),
                    _ => true,
                })
        });
        if !sole {
            continue;
        }
        streams.insert(si, StreamChain { order, anchors });
    }
    streams
}

/// Which row of a full tensor a pre-resolved operand reads.
#[derive(Clone, Copy)]
enum RowAt {
    /// The consumer step's own row (anchor vertex or edge id).
    Own,
    /// Fixed at `src(e)` / `dst(e)` / `e` — used when a pure copy step
    /// (`CopyU`/`CopyV`/`SetHeads`) is aliased away and its read
    /// location must survive into the consumer.
    SrcV,
    DstV,
    Edge,
}

/// A pre-resolved operand of a compiled chain step: an earlier chain
/// position's row buffer, or a full tensor read at some row.
#[derive(Clone, Copy)]
enum MSrc<'a> {
    Buf(usize),
    Base(&'a Tensor, RowAt),
}

/// One chain step compiled for the per-edge loop: op kind borrowed from
/// the IR, operands resolved to buffers/tensors, anchor inlined — the
/// hot loop never touches a hash map or the step table.
struct MicroOp<'a> {
    kind: &'a OpKind,
    /// `Some` for vertex-space steps (memoized on their last row),
    /// `None` for edge-space ones.
    anchor: Option<Anchor>,
    srcs: Vec<MSrc<'a>>,
    dins: &'a [Dim],
    /// Stashed (max, denominator) tables for `EdgeSoftmax` members.
    aux: Option<(&'a Tensor, &'a Tensor)>,
}

/// Per-worker chain evaluator for a streamed gather: one single-row
/// buffer per chain position, refilled per edge. Vertex-space steps
/// cache the row they were last instantiated at — under the
/// destination-major canonical edge order a `Dst`-anchored step
/// therefore evaluates once per destination group, not once per edge.
/// Pure copy steps (`CopyU`/`CopyV`/`SetHeads`) are aliased away at
/// compile time: their consumers read the copy's source directly, with
/// the read location pinned via [`RowAt`], so no per-edge copy runs.
struct StreamEval<'a> {
    g: &'a Graph,
    /// Non-aliased steps as (chain position, compiled op).
    ops: Vec<(usize, MicroOp<'a>)>,
    /// Where the gather reads the chain's result.
    root: MSrc<'a>,
    /// One row buffer per chain position (empty for aliased positions).
    bufs: Vec<Vec<f32>>,
    /// Last vertex each position was evaluated at (vertex steps only).
    cache: Vec<usize>,
}

impl<'a> StreamEval<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        chain: &'a StreamChain,
        steps: &'a [StepPlan],
        g: &'a Graph,
        ir: &'a IrGraph,
        mat: &'a [Option<Tensor>],
        values: &'a HashMap<NodeId, Tensor>,
        preludes: &'a [Tensor],
        aux_softmax: &'a HashMap<NodeId, (Tensor, Tensor)>,
    ) -> Self {
        let mut pos: HashMap<usize, usize> = HashMap::new();
        for (i, &si) in chain.order.iter().enumerate() {
            pos.insert(si, i);
        }
        // `alias[i]` replaces reads of position `i` when the step is a
        // pure copy; built in chain order so aliases of aliases resolve.
        let mut alias: Vec<Option<MSrc<'a>>> = vec![None; chain.order.len()];
        let resolve = |s: Src, alias: &[Option<MSrc<'a>>]| -> MSrc<'a> {
            match s {
                Src::Slot { step, .. } => {
                    let j = pos[&step];
                    alias[j].unwrap_or(MSrc::Buf(j))
                }
                Src::Global(id) => MSrc::Base(&values[&id], RowAt::Own),
                Src::Prelude(i) => MSrc::Base(&preludes[i], RowAt::Own),
                Src::Mat(mi) => MSrc::Base(
                    mat[mi].as_ref().expect("earlier segment is complete"),
                    RowAt::Own,
                ),
            }
        };
        // Pin a copy's read location into the aliased operand: buffers
        // already hold the right row; `Own`-addressed tensors take the
        // copy step's own location.
        let pin = |s: MSrc<'a>, at: RowAt| -> MSrc<'a> {
            match s {
                MSrc::Base(t, RowAt::Own) => MSrc::Base(t, at),
                other => other,
            }
        };
        let mut ops: Vec<(usize, MicroOp<'a>)> = Vec::new();
        let mut bufs: Vec<Vec<f32>> = vec![Vec::new(); chain.order.len()];
        for (i, &si) in chain.order.iter().enumerate() {
            let sp = &steps[si];
            let kind = &ir.node(sp.node).kind;
            let anchor = chain.anchors.get(&si).copied();
            // Copies alias to their source instead of compiling to an op.
            match kind {
                OpKind::Scatter(ScatterFn::CopyU) => {
                    alias[i] = Some(pin(resolve(sp.srcs[0], &alias), RowAt::SrcV));
                    continue;
                }
                OpKind::Scatter(ScatterFn::CopyV) => {
                    let y = *sp.srcs.last().expect("scatter has inputs");
                    alias[i] = Some(pin(resolve(y, &alias), RowAt::DstV));
                    continue;
                }
                OpKind::SetHeads { .. } => {
                    let at = match anchor {
                        Some(Anchor::Src) => RowAt::SrcV,
                        Some(Anchor::Dst) => RowAt::DstV,
                        None => RowAt::Edge,
                    };
                    alias[i] = Some(pin(resolve(sp.srcs[0], &alias), at));
                    continue;
                }
                _ => {}
            }
            bufs[i] = vec![0.0; sp.cols];
            ops.push((
                i,
                MicroOp {
                    kind,
                    anchor,
                    srcs: sp.srcs.iter().map(|&s| resolve(s, &alias)).collect(),
                    dins: &sp.dins,
                    aux: matches!(kind, OpKind::EdgeSoftmax).then(|| {
                        let (mx, dn) = &aux_softmax[&sp.node];
                        (mx, dn)
                    }),
                },
            ));
        }
        let last = chain.order.len() - 1;
        StreamEval {
            g,
            root: alias[last].unwrap_or(MSrc::Buf(last)),
            cache: vec![usize::MAX; chain.order.len()],
            ops,
            bufs,
        }
    }

    /// Evaluates the whole chain at edge `e` and returns the root row.
    /// Every arm reproduces the matching [`exec_step`] arm on one row —
    /// same `rowops` calls, same broadcast layout — so streamed values
    /// are bit-identical to the tiled segment's.
    fn eval(&mut self, e: usize) -> &[f32] {
        let (u, v) = (self.g.src(e), self.g.dst(e));
        for &(i, ref op) in &self.ops {
            // Vertex-space steps run at their anchor endpoint and skip
            // when the buffer already holds that row; edge-space steps
            // run at `e` unconditionally.
            let r = match op.anchor {
                Some(Anchor::Src) => {
                    if self.cache[i] == u {
                        continue;
                    }
                    self.cache[i] = u;
                    u
                }
                Some(Anchor::Dst) => {
                    if self.cache[i] == v {
                        continue;
                    }
                    self.cache[i] = v;
                    v
                }
                None => e,
            };
            // Topological order: position `i` reads only positions < i.
            let (prev, rest) = self.bufs.split_at_mut(i);
            let buf = &mut rest[0][..];
            let row = |s: &MSrc<'a>, r: usize| -> &[f32] {
                match *s {
                    MSrc::Buf(j) => &prev[j],
                    MSrc::Base(t, at) => t.row(match at {
                        RowAt::Own => r,
                        RowAt::SrcV => u,
                        RowAt::DstV => v,
                        RowAt::Edge => e,
                    }),
                }
            };
            match op.kind {
                OpKind::Scatter(f) => {
                    let x = &op.srcs[0];
                    let y = op.srcs.last().expect("scatter has inputs");
                    match f {
                        ScatterFn::Bin(bf) => {
                            rowops::zip2_into(buf, row(x, u), row(y, v), |a, b| bf.apply(a, b));
                        }
                        _ => unreachable!("copies are aliased, ConcatUV rejected"),
                    }
                }
                OpKind::EdgeSoftmax => {
                    let (mx, dn) = op.aux.expect("streamed softmax has stashed aux");
                    rowops::softmax_from_stats(buf, row(&op.srcs[0], e), mx.row(v), dn.row(v));
                }
                OpKind::Unary(f) => {
                    rowops::map_into(buf, row(&op.srcs[0], r), |x| f.apply(x));
                }
                OpKind::UnaryBwd(f) => {
                    rowops::zip2_into(buf, row(&op.srcs[0], r), row(&op.srcs[1], r), |gv, xv| {
                        gv * f.derivative(xv)
                    });
                }
                OpKind::Binary(f) => {
                    let (da, db) = (op.dins[0], op.dins[1]);
                    let heads = da.heads;
                    let (ar, br) = (row(&op.srcs[0], r), row(&op.srcs[1], r));
                    if da.feat == db.feat {
                        rowops::zip2_into(buf, ar, br, |a, b| f.apply(a, b));
                    } else if db.feat == 1 {
                        // Per-head scalar broadcast, hoisted out of the
                        // element loop (same `f.apply(a[..], b[h])` per
                        // element as the generic tiled arm).
                        let feat = da.feat;
                        for h in 0..heads {
                            let s = br[h];
                            rowops::map_into(
                                &mut buf[h * feat..(h + 1) * feat],
                                &ar[h * feat..(h + 1) * feat],
                                |a| f.apply(a, s),
                            );
                        }
                    } else {
                        let feat = db.feat;
                        for h in 0..heads {
                            let s = ar[h];
                            rowops::map_into(
                                &mut buf[h * feat..(h + 1) * feat],
                                &br[h * feat..(h + 1) * feat],
                                |b| f.apply(s, b),
                            );
                        }
                    }
                }
                OpKind::FeatSum => {
                    let din = op.dins[0];
                    let (heads, feat) = (din.heads, din.feat);
                    let xr = row(&op.srcs[0], r);
                    for h in 0..heads {
                        buf[h] = xr[h * feat..(h + 1) * feat].iter().sum();
                    }
                }
                other => unreachable!("op {other:?} rejected by plan_streams"),
            }
        }
        match self.root {
            MSrc::Buf(j) => &self.bufs[j],
            MSrc::Base(t, at) => t.row(match at {
                RowAt::Own | RowAt::Edge => e,
                RowAt::SrcV => u,
                RowAt::DstV => v,
            }),
        }
    }
}

/// Runs one streamed `BySrc` gather: a single ascending pass over the
/// canonical edge array per worker, evaluating the elided chain at each
/// owned edge and accumulating into the owner's source rows — the exact
/// partitioning, accumulation order, and row expressions of
/// [`crate::kernels::gather`]'s `BySrc` scan, with the interior tensor
/// replaced by per-edge recomputation.
#[allow(clippy::too_many_arguments)]
fn run_streamed_gather(
    policy: &ExecPolicy,
    g: &Graph,
    ir: &IrGraph,
    reduce: ReduceFn,
    chain: &StreamChain,
    steps: &[StepPlan],
    mat: &[Option<Tensor>],
    values: &HashMap<NodeId, Tensor>,
    preludes: &[Tensor],
    aux_softmax: &HashMap<NodeId, (Tensor, Tensor)>,
    total: usize,
) -> Tensor {
    let n = g.num_vertices();
    let m = g.num_edges();
    let adj = g.out_adj();
    let src = g.src_slice();
    let mut out = Tensor::zeros(&[n, total]);
    let threads = plan_threads(policy, n, m * total);
    let run = |vs: std::ops::Range<usize>, chunk: &mut [f32]| {
        let mut ev = StreamEval::new(chain, steps, g, ir, mat, values, preludes, aux_softmax);
        let v0 = vs.start;
        for (e, &s) in src.iter().enumerate() {
            let v = s as usize;
            if !vs.contains(&v) {
                continue;
            }
            let row = ev.eval(e);
            let o = &mut chunk[(v - v0) * total..(v - v0 + 1) * total];
            match reduce {
                ReduceFn::Sum => rowops::add_assign(o, row),
                ReduceFn::Mean => rowops::axpy(o, 1.0 / adj.degree(v) as f32, row),
                ReduceFn::Max => unreachable!("streamed gathers are Sum/Mean"),
            }
        }
    };
    if threads < 2 || total == 0 {
        run(0..n, out.as_mut_slice());
    } else {
        let bounds = vertex_bounds(policy, adj.indptr(), threads);
        let chunks = split_rows(out.as_mut_slice(), total, &bounds);
        let wg = contain::WorkerGuard::new();
        std::thread::scope(|s| {
            for (w, chunk) in bounds.windows(2).zip(chunks) {
                let run = &run;
                let wg = &wg;
                s.spawn(move || wg.run(|| run(w[0]..w[1], chunk)));
            }
        });
        wg.rethrow();
    }
    out
}

/// Cuts worker boundaries over the tile sequence so every worker owns
/// roughly the same number of **edges** (each tile being a bounded edge
/// group of at most `tile_edges` edges, GNNAdvisor's neighbor-grouping
/// discipline). This is the `ExecPolicy::group_workers` alternative to
/// the tile-count split of [`chunk_bounds`]: on skewed graphs the worker
/// that owns a hub's tile gets correspondingly fewer other tiles, so the
/// per-worker edge load flattens. Returns `workers + 1` strictly
/// increasing boundaries covering every tile; the binding never changes
/// results (workers still write disjoint contiguous row chunks).
pub(crate) fn edge_balanced_bounds(
    tiles: &[usize],
    indptr: &[usize],
    threads: usize,
) -> Vec<usize> {
    let num_tiles = tiles.len().saturating_sub(1);
    let workers = threads.clamp(1, num_tiles.max(1));
    let total = if num_tiles == 0 {
        0
    } else {
        indptr[tiles[num_tiles]]
    };
    if total == 0 {
        return chunk_bounds(num_tiles, workers);
    }
    let mut bounds = vec![0usize];
    for w in 1..workers {
        let target = (total as u64 * w as u64).div_ceil(workers as u64) as usize;
        let prev = *bounds.last().expect("bounds is non-empty");
        let mut t = prev + 1;
        while t < num_tiles && indptr[tiles[t]] < target {
            t += 1;
        }
        // Leave at least one tile for each remaining worker (workers ≤
        // num_tiles makes the clamp range non-empty).
        bounds.push(t.clamp(prev + 1, num_tiles - (workers - w)));
    }
    bounds.push(num_tiles);
    bounds
}

/// Cuts destination-vertex tile boundaries so each tile covers at most
/// `tile_edges` edges (always at least one vertex per tile).
pub(crate) fn tile_bounds(indptr: &[usize], tile_edges: usize) -> Vec<usize> {
    let n = indptr.len() - 1;
    let mut bounds = vec![0];
    let mut v = 0;
    while v < n {
        let e0 = indptr[v];
        v += 1;
        while v < n && indptr[v + 1] - e0 <= tile_edges {
            v += 1;
        }
        bounds.push(v);
    }
    bounds
}

/// Read access to step operands inside one tile.
struct TileView<'a> {
    v0: usize,
    e0: usize,
    slots: &'a [Vec<f32>],
    mat: &'a [Option<Tensor>],
    values: &'a HashMap<NodeId, Tensor>,
    preludes: &'a [Tensor],
}

impl TileView<'_> {
    fn row(&self, src: Src, r: usize) -> &[f32] {
        match src {
            Src::Global(id) => self.values[&id].row(r),
            Src::Prelude(i) => self.preludes[i].row(r),
            Src::Mat(si) => self.mat[si]
                .as_ref()
                .expect("earlier-segment tensor is complete")
                .row(r),
            Src::Slot { step, cols, space } => {
                let base = match space {
                    Space::Edge => self.e0,
                    Space::Vertex => self.v0,
                    Space::Param => 0,
                };
                let off = (r - base) * cols;
                &self.slots[step][off..off + cols]
            }
        }
    }
}

/// Mutable auxiliary sinks for one step in one tile (rows are relative to
/// the worker's first vertex).
enum StepAux<'a> {
    None,
    /// Fresh softmax: worker-chunk rows of the global max/denominator.
    SoftmaxFresh {
        maxes: &'a mut [f32],
        denom: &'a mut [f32],
        chunk_v0: usize,
    },
    /// Recompute softmax from the session's stashed auxiliaries.
    SoftmaxFromAux {
        maxes: &'a Tensor,
        denom: &'a Tensor,
    },
    /// Gather(Max): worker-chunk rows of the global argmax table.
    ArgMax {
        table: &'a mut [u32],
        chunk_v0: usize,
    },
    /// Gather(Max) backward: the forward gather's complete argmax table
    /// (global rows), routing each vertex gradient to its winning edge.
    ArgMaxRead {
        table: &'a [u32],
    },
}

/// Executes one lowered kernel over the graph, tile by tile.
///
/// `evict` (arena mode) names the values whose last external reader is
/// this kernel: the interpreter removes each from `values` as soon as
/// its last reading segment completes, so the pool can recycle its
/// buffer into the launch's own materializations. Results are
/// unaffected — only already-dead inputs are freed, and the session's
/// post-kernel eviction no-ops on whatever was freed here.
///
/// # Errors
///
/// Returns [`ExecError::ValueNotLive`] when an out-of-kernel operand is
/// not in the value store (a plan inconsistency).
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub(crate) fn run_program(
    policy: &ExecPolicy,
    g: &Graph,
    ir: &IrGraph,
    program: &KernelProgram,
    values: &mut HashMap<NodeId, Tensor>,
    aux_softmax: &HashMap<NodeId, (Tensor, Tensor)>,
    aux_argmax: &HashMap<NodeId, Vec<u32>>,
    evict: Option<&[NodeId]>,
) -> Result<ProgramResult> {
    if let Some(action) = gnnopt_tensor::fault::check("fused.launch") {
        use gnnopt_tensor::fault::FaultAction;
        match action {
            FaultAction::Panic => {
                std::panic::panic_any(gnnopt_tensor::fault::injected_panic_message("fused.launch"))
            }
            _ => {
                return Err(ExecError::Injected {
                    site: "fused.launch".into(),
                })
            }
        }
    }
    let n = g.num_vertices();
    let m = g.num_edges();
    let indptr = g.in_adj().indptr();

    // Step lookup and prelude evaluation (parameter-space views are
    // O(params): computed once, shared read-only by all workers).
    let mut step_index: HashMap<NodeId, usize> = HashMap::new();
    for (si, s) in program.steps.iter().enumerate() {
        step_index.insert(s.node, si);
    }
    let mut preludes: Vec<Tensor> = Vec::new();
    let mut prelude_idx: HashMap<NodeId, usize> = HashMap::new();
    let not_live = |id: NodeId| ExecError::ValueNotLive {
        node: ir.node(id).name.clone(),
    };
    for s in &program.steps {
        if s.storage != Storage::Prelude {
            continue;
        }
        let node = ir.node(s.node);
        let input = node.inputs[0];
        let x: &Tensor = prelude_idx
            .get(&input)
            .map(|&i| &preludes[i])
            .or_else(|| values.get(&input))
            .ok_or_else(|| not_live(input))?;
        let din = ir.node(input).dim;
        let t = match &node.kind {
            // Mirrors the reference `exec_node` exactly: parameters store
            // heads as rows, so the per-head slice degenerates to heads=1.
            OpKind::SliceCols { start, end } => {
                crate::kernels::slice_cols(&ExecPolicy::serial(), x, 1, din.feat, *start, *end)
            }
            OpKind::SliceRows { start, end } => {
                let rows: Vec<usize> = (*start..*end).collect();
                x.select_rows(&rows)?
            }
            OpKind::SetHeads { .. } => x.clone(),
            other => unreachable!("non-view prelude op {other:?} survived lowering"),
        };
        prelude_idx.insert(s.node, preludes.len());
        preludes.push(t);
    }

    // Operand sources per step: same-segment members resolve to scratch
    // slots, earlier-segment members to their (complete) full tensors.
    let mut steps: Vec<StepPlan> = Vec::with_capacity(program.steps.len());
    for s in &program.steps {
        let node = ir.node(s.node);
        let mut srcs = Vec::with_capacity(node.inputs.len());
        for &i in &node.inputs {
            let src = if let Some(&pi) = prelude_idx.get(&i) {
                Src::Prelude(pi)
            } else if let Some(&si) = step_index.get(&i) {
                let inp = &program.steps[si];
                if s.exec == StepExec::Tiled && inp.segment == s.segment {
                    Src::Slot {
                        step: si,
                        cols: inp.cols,
                        space: inp.space,
                    }
                } else {
                    Src::Mat(si)
                }
            } else if values.contains_key(&i) {
                Src::Global(i)
            } else {
                return Err(not_live(i));
            };
            srcs.push(src);
        }
        steps.push(StepPlan {
            node: s.node,
            space: s.space,
            cols: s.cols,
            storage: s.storage,
            srcs,
            dins: node.inputs.iter().map(|&i| ir.node(i).dim).collect(),
        });
    }

    // Streamed full-step gathers: their interior producer chains are
    // elided from the tiled segments below and recomputed per edge
    // inside the gather's own scan (see `plan_streams`).
    let streams = plan_streams(&steps, program, ir, aux_softmax);
    let elided: HashSet<usize> = streams
        .values()
        .flat_map(|c| c.order.iter().copied())
        .collect();

    // Mid-launch eviction schedule (arena mode): each dying global's
    // last reading stage — stage 0 is the prelude pass above, stage
    // 1 + ordinal each segment. Elided chain members read their operands
    // inside their gather's segment, so their reads attribute there.
    let mut evicted_bytes = 0u64;
    let mut last_stage: HashMap<NodeId, usize> = HashMap::new();
    if let Some(dying) = evict {
        for s in &program.steps {
            if s.storage == Storage::Prelude {
                for &i in &ir.node(s.node).inputs {
                    if dying.contains(&i) && values.contains_key(&i) {
                        last_stage.insert(i, 0);
                    }
                }
            }
        }
        let mut track = |si: usize, stage: usize| {
            for &src in &steps[si].srcs {
                if let Src::Global(id) = src {
                    if dying.contains(&id) {
                        last_stage.insert(id, stage);
                    }
                }
            }
        };
        for (ord, seg) in program.segments().into_iter().enumerate() {
            for si in 0..steps.len() {
                if program.steps[si].segment != seg
                    || program.steps[si].storage == Storage::Prelude
                    || elided.contains(&si)
                {
                    continue;
                }
                track(si, ord + 1);
                if let Some(chain) = streams.get(&si) {
                    for &mi in &chain.order {
                        track(mi, ord + 1);
                    }
                }
            }
        }
    }
    let release = |stage: usize, values: &mut HashMap<NodeId, Tensor>, evicted: &mut u64| {
        let Some(dying) = evict else { return };
        for &id in dying {
            if last_stage.get(&id) == Some(&stage) {
                if let Some(t) = values.remove(&id) {
                    *evicted += t.byte_size() as u64;
                }
            }
        }
    };
    // The prelude pass already ran: inputs it exhausted free before the
    // launch materializes anything.
    release(0, values, &mut evicted_bytes);

    // Full-tensor storage for materialized/interior steps. Tiled ones are
    // pre-allocated (workers fill disjoint chunks); full steps produce
    // theirs when their segment runs. Elided chain members never
    // materialize at all.
    let mut mat: Vec<Option<Tensor>> = vec![None; steps.len()];
    for (si, sp) in steps.iter().enumerate() {
        if matches!(sp.storage, Storage::Materialized | Storage::Interior)
            && program.steps[si].exec == StepExec::Tiled
            && !elided.contains(&si)
        {
            let rows = match sp.space {
                Space::Edge => m,
                Space::Vertex => n,
                Space::Param => unreachable!("param steps are never tiled"),
            };
            mat[si] = Some(Tensor::zeros(&[rows, sp.cols]));
        }
    }

    // Auxiliaries: tiled softmax / gather-max fill global tables in
    // disjoint chunks; a full BySrc gather-max returns its table whole.
    let mut fresh_softmax: Vec<(usize, Tensor, Tensor)> = Vec::new();
    let mut from_aux: HashMap<usize, (&Tensor, &Tensor)> = HashMap::new();
    let mut argmax_tables: Vec<(usize, Vec<u32>)> = Vec::new();
    for (si, sp) in steps.iter().enumerate() {
        match &ir.node(sp.node).kind {
            OpKind::EdgeSoftmax => {
                if let Some((mx, dn)) = aux_softmax.get(&sp.node) {
                    from_aux.insert(si, (mx, dn));
                } else {
                    fresh_softmax.push((
                        si,
                        Tensor::full(&[n, sp.cols], f32::NEG_INFINITY),
                        Tensor::zeros(&[n, sp.cols]),
                    ));
                }
            }
            OpKind::Gather {
                reduce: ReduceFn::Max,
                ..
            } if program.steps[si].exec == StepExec::Tiled => {
                // Pool-recycled like the session's aux store drains them.
                let mut table = pool::take_u32(n * sp.cols);
                table.resize(n * sp.cols, NO_ARGMAX);
                argmax_tables.push((si, table));
            }
            _ => {}
        }
    }

    // Tiled gather-max backward steps read the forward gather's stashed
    // argmax table; resolve them before the workers spawn so a missing
    // stash surfaces as a session error, not a worker panic.
    let mut argmax_read: HashMap<usize, &[u32]> = HashMap::new();
    for (si, sp) in steps.iter().enumerate() {
        if program.steps[si].exec != StepExec::Tiled {
            continue;
        }
        if let OpKind::GatherMaxBwd { fwd } = &ir.node(sp.node).kind {
            let table = aux_argmax.get(fwd).ok_or_else(|| ExecError::ValueNotLive {
                node: format!("argmax aux of node {fwd}"),
            })?;
            argmax_read.insert(si, table.as_slice());
        }
    }

    // Tiles and worker partition (shared by every tiled segment).
    let tiles = tile_bounds(indptr, policy.tile_edges);
    let num_tiles = tiles.len() - 1;
    let work: usize = steps
        .iter()
        .map(|s| match s.space {
            Space::Edge => m * s.cols,
            Space::Vertex => n * s.cols,
            Space::Param => 0,
        })
        .sum();
    let threads = if work < policy.parallel_threshold {
        1
    } else {
        policy.threads.clamp(1, num_tiles.max(1))
    };
    // Worker → tile boundaries: split by tile count, or — under
    // `group_workers` — by edge count, binding workers to bounded edge
    // groups so degree skew flattens (never affects results).
    let wt = if policy.group_workers {
        edge_balanced_bounds(&tiles, indptr, threads)
    } else {
        chunk_bounds(num_tiles, threads)
    };
    let wv: Vec<usize> = wt.iter().map(|&t| tiles[t]).collect();
    let we: Vec<usize> = wv.iter().map(|&v| indptr[v]).collect();
    let workers = wt.len() - 1;

    // Worker arena sizes are a pure function of the partition, so the
    // scratch high-water mark (max over segments, sum over workers) is
    // known before running.
    let mut scratch_bytes = 0u64;
    let worker_max_tile = |w: usize| -> (usize, usize) {
        let (mut tv, mut te) = (0usize, 0usize);
        for t in wt[w]..wt[w + 1] {
            tv = tv.max(tiles[t + 1] - tiles[t]);
            te = te.max(indptr[tiles[t + 1]] - indptr[tiles[t]]);
        }
        (tv, te)
    };
    let seg_live = |seg| -> Vec<usize> {
        (0..steps.len())
            .filter(|&si| {
                program.steps[si].segment == seg
                    && program.steps[si].storage != Storage::Prelude
                    && !elided.contains(&si)
            })
            .collect()
    };
    for seg in program.segments() {
        if seg_live(seg).is_empty() {
            continue;
        }
        let mut total = 0u64;
        for w in 0..workers {
            let (tv, te) = worker_max_tile(w);
            total += program.scratch_tile_bytes(seg, tv, te);
        }
        scratch_bytes = scratch_bytes.max(total);
    }

    // Execute segments in order: full steps once over the whole graph via
    // the (deterministic, thread-parallel) reference kernels; tiled
    // segments over destination ranges with per-worker scratch.
    let mut new_argmax_full: Vec<(usize, Vec<u32>)> = Vec::new();
    for (ord, seg) in program.segments().into_iter().enumerate() {
        let seg_steps: Vec<usize> = seg_live(seg);
        if seg_steps.is_empty() {
            // Every member streamed into a later gather: nothing to run.
            release(ord + 1, values, &mut evicted_bytes);
            continue;
        }
        if seg_steps
            .iter()
            .any(|&si| program.steps[si].exec == StepExec::Full)
        {
            // A full segment holds exactly one step. (The block scopes
            // the shared reborrow of `values` so the stage release below
            // can take it mutably.)
            let si = seg_steps[0];
            let t = {
                let values = &*values;
                let sp = &steps[si];
                let full = |src: Src| -> &Tensor {
                    match src {
                        Src::Global(id) => &values[&id],
                        Src::Prelude(i) => &preludes[i],
                        Src::Mat(mi) => mat[mi].as_ref().expect("earlier segment is complete"),
                        Src::Slot { .. } => unreachable!("full steps never read scratch"),
                    }
                };
                match &ir.node(sp.node).kind {
                    OpKind::Gather { reduce, group } => {
                        if let Some(chain) = streams.get(&si) {
                            // Streamed path: the input chain was elided from
                            // the tiled segments; evaluate it per edge here.
                            run_streamed_gather(
                                policy,
                                g,
                                ir,
                                *reduce,
                                chain,
                                &steps,
                                &mat,
                                values,
                                &preludes,
                                aux_softmax,
                                sp.cols,
                            )
                        } else {
                            let (t, am) = crate::kernels::gather(
                                policy,
                                g,
                                *reduce,
                                *group,
                                full(sp.srcs[0]),
                            );
                            if let Some(am) = am {
                                new_argmax_full.push((si, am));
                            }
                            t
                        }
                    }
                    // Every other full step — whole-graph backward
                    // reductions, GEMMs, parameter reductions, row
                    // views — runs through the shared reference dispatch.
                    // This is what makes lowering total: any op the IR
                    // expresses either tiles or lands here.
                    kind => {
                        let inputs: Vec<&Tensor> = sp.srcs.iter().map(|&s| full(s)).collect();
                        let aux_in = match kind {
                            OpKind::GatherMaxBwd { fwd } => {
                                let table =
                                    aux_argmax.get(fwd).ok_or_else(|| ExecError::ValueNotLive {
                                        node: format!("argmax aux of node {fwd}"),
                                    })?;
                                crate::refexec::AuxIn::Argmax(table)
                            }
                            _ => crate::refexec::AuxIn::None,
                        };
                        let (t, aux_out) = crate::refexec::exec_op(
                            policy,
                            g,
                            ir,
                            ir.node(sp.node),
                            &inputs,
                            aux_in,
                        )?;
                        match aux_out {
                            crate::refexec::AuxOut::Argmax(a) => new_argmax_full.push((si, a)),
                            crate::refexec::AuxOut::None => {}
                            crate::refexec::AuxOut::Softmax(..) => {
                                unreachable!("EdgeSoftmax is never a full step")
                            }
                        }
                        t
                    }
                }
            };
            mat[si] = Some(t);
            release(ord + 1, values, &mut evicted_bytes);
            continue;
        }

        // Tiled segment: take the segment's full tensors out for chunked
        // writing (same-segment reads go through scratch, never `mat`).
        // The block scopes the workers' shared reborrow of `values`.
        {
            let values = &*values;
            struct SegOut {
                si: usize,
                tensor: Tensor,
            }
            let mut seg_out: Vec<SegOut> = Vec::new();
            for &si in &seg_steps {
                if matches!(steps[si].storage, Storage::Materialized | Storage::Interior) {
                    seg_out.push(SegOut {
                        si,
                        tensor: mat[si].take().expect("tiled output pre-allocated"),
                    });
                }
            }

            struct WorkerSinks<'w> {
                out: Vec<(usize, &'w mut [f32])>,
                sm: Vec<(usize, &'w mut [f32], &'w mut [f32])>,
                am: Vec<(usize, &'w mut [u32])>,
            }
            let mut sinks: Vec<WorkerSinks<'_>> = (0..workers)
                .map(|_| WorkerSinks {
                    out: Vec::new(),
                    sm: Vec::new(),
                    am: Vec::new(),
                })
                .collect();
            for so in &mut seg_out {
                let sp = &steps[so.si];
                let bounds = if sp.space == Space::Edge { &we } else { &wv };
                for (w, chunk) in split_rows(so.tensor.as_mut_slice(), sp.cols, bounds)
                    .into_iter()
                    .enumerate()
                {
                    sinks[w].out.push((so.si, chunk));
                }
            }
            for (si, mx, dn) in &mut fresh_softmax {
                if !seg_steps.contains(si) {
                    continue;
                }
                let cols = steps[*si].cols;
                let mx_chunks = split_rows(mx.as_mut_slice(), cols, &wv);
                let dn_chunks = split_rows(dn.as_mut_slice(), cols, &wv);
                for (w, (mc, dc)) in mx_chunks.into_iter().zip(dn_chunks).enumerate() {
                    sinks[w].sm.push((*si, mc, dc));
                }
            }
            for (si, table) in &mut argmax_tables {
                if !seg_steps.contains(si) {
                    continue;
                }
                let cols = steps[*si].cols;
                for (w, chunk) in split_rows(table, cols, &wv).into_iter().enumerate() {
                    sinks[w].am.push((*si, chunk));
                }
            }

            // Run the segment. Each worker walks its tiles sequentially,
            // reusing one arena.
            let mat_ref = &mat;
            let run_worker = |tile_range: std::ops::Range<usize>, mut sinks: WorkerSinks<'_>| {
                let (wv0, we0) = (tiles[tile_range.start], indptr[tiles[tile_range.start]]);
                let (mut max_tv, mut max_te) = (0usize, 0usize);
                for t in tile_range.clone() {
                    max_tv = max_tv.max(tiles[t + 1] - tiles[t]);
                    max_te = max_te.max(indptr[tiles[t + 1]] - indptr[tiles[t]]);
                }
                // Slots come off the pool when it is active on this thread
                // (serial segments run on the session thread); workers see
                // an inactive pool and allocate as before.
                let zeroed = |len: usize| {
                    let mut v = pool::take_f32(len);
                    v.resize(len, 0.0);
                    v
                };
                let mut slots: Vec<Vec<f32>> = (0..steps.len())
                    .map(|si| {
                        if !seg_steps.contains(&si) {
                            return Vec::new();
                        }
                        match steps[si].space {
                            Space::Edge => zeroed(max_te * steps[si].cols),
                            Space::Vertex => zeroed(max_tv * steps[si].cols),
                            Space::Param => Vec::new(),
                        }
                    })
                    .collect();
                // Heavy-row chunk partial, shared across steps/tiles.
                let mut scratch: Vec<f32> = Vec::new();
                for t in tile_range {
                    let (v0, v1) = (tiles[t], tiles[t + 1]);
                    let (e0, e1) = (indptr[v0], indptr[v1]);
                    for &si in &seg_steps {
                        let sp = &steps[si];
                        let mut buf = std::mem::take(&mut slots[si]);
                        {
                            let view = TileView {
                                v0,
                                e0,
                                slots: &slots,
                                mat: mat_ref,
                                values,
                                preludes: &preludes,
                            };
                            let aux = match &ir.node(sp.node).kind {
                                OpKind::EdgeSoftmax => {
                                    if let Some(&(mx, dn)) = from_aux.get(&si) {
                                        StepAux::SoftmaxFromAux {
                                            maxes: mx,
                                            denom: dn,
                                        }
                                    } else {
                                        let (_, mc, dc) = sinks
                                            .sm
                                            .iter_mut()
                                            .find(|(i, _, _)| *i == si)
                                            .expect("fresh softmax has an aux sink");
                                        StepAux::SoftmaxFresh {
                                            maxes: mc,
                                            denom: dc,
                                            chunk_v0: wv0,
                                        }
                                    }
                                }
                                OpKind::Gather {
                                    reduce: ReduceFn::Max,
                                    ..
                                } => {
                                    let (_, table) = sinks
                                        .am
                                        .iter_mut()
                                        .find(|(i, _)| *i == si)
                                        .expect("gather-max has an argmax sink");
                                    StepAux::ArgMax {
                                        table,
                                        chunk_v0: wv0,
                                    }
                                }
                                OpKind::GatherMaxBwd { .. } => StepAux::ArgMaxRead {
                                    table: argmax_read[&si],
                                },
                                _ => StepAux::None,
                            };
                            exec_step(
                                ir.node(sp.node),
                                sp,
                                g,
                                &view,
                                (v0, v1, e0, e1),
                                &mut buf,
                                aux,
                                policy.heavy_row_degree,
                                &mut scratch,
                            );
                        }
                        if matches!(sp.storage, Storage::Materialized | Storage::Interior) {
                            let (rows, r0, wbase) = match sp.space {
                                Space::Edge => (e1 - e0, e0, we0),
                                _ => (v1 - v0, v0, wv0),
                            };
                            let (_, chunk) = sinks
                                .out
                                .iter_mut()
                                .find(|(i, _)| *i == si)
                                .expect("materialized step has an output sink");
                            let dst = (r0 - wbase) * sp.cols;
                            chunk[dst..dst + rows * sp.cols]
                                .copy_from_slice(&buf[..rows * sp.cols]);
                        }
                        slots[si] = buf;
                    }
                }
                // Recycle the per-worker buffers (no-op off the pool thread).
                for s in slots {
                    pool::put_f32(s);
                }
                pool::put_f32(scratch);
            };

            if workers < 2 {
                if let Some(s) = sinks.pop() {
                    run_worker(0..num_tiles, s);
                }
            } else {
                let wg = contain::WorkerGuard::new();
                std::thread::scope(|scope| {
                    for (w, s) in sinks.into_iter().enumerate() {
                        let run_worker = &run_worker;
                        let wg = &wg;
                        let range = wt[w]..wt[w + 1];
                        scope.spawn(move || wg.run(|| run_worker(range, s)));
                    }
                });
                wg.rethrow();
            }

            // Restore the segment's tensors for later segments to read.
            for so in seg_out {
                mat[so.si] = Some(so.tensor);
            }
        }
        release(ord + 1, values, &mut evicted_bytes);
    }

    let mut new_aux_argmax: Vec<(NodeId, Vec<u32>)> = argmax_tables
        .into_iter()
        .map(|(si, a)| (steps[si].node, a))
        .collect();
    new_aux_argmax.extend(
        new_argmax_full
            .into_iter()
            .map(|(si, a)| (steps[si].node, a)),
    );
    Ok(ProgramResult {
        outputs: mat
            .into_iter()
            .enumerate()
            .filter_map(|(si, t)| t.map(|t| (steps[si].node, t)))
            .collect(),
        new_aux_softmax: fresh_softmax
            .into_iter()
            .map(|(si, mx, dn)| (steps[si].node, (mx, dn)))
            .collect(),
        scratch_bytes,
        new_aux_argmax,
        evicted_bytes,
    })
}

/// Executes one step over one tile into `buf` (tile-relative rows).
///
/// Every arm reproduces the corresponding kernel in [`crate::kernels`]
/// expression-for-expression and in the same iteration order, which is
/// what makes fused execution bit-identical to the node-by-node oracle.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn exec_step(
    node: &Node,
    sp: &StepPlan,
    g: &Graph,
    tv: &TileView<'_>,
    (v0, v1, e0, e1): (usize, usize, usize, usize),
    buf: &mut [f32],
    aux: StepAux<'_>,
    heavy: usize,
    scratch: &mut Vec<f32>,
) {
    let total = sp.cols;
    let adj = g.in_adj();
    match &node.kind {
        OpKind::Scatter(f) => {
            let x = sp.srcs[0];
            let y = *sp.srcs.last().expect("scatter has inputs");
            match f {
                ScatterFn::CopyU => {
                    for e in e0..e1 {
                        buf[(e - e0) * total..(e - e0 + 1) * total]
                            .copy_from_slice(tv.row(x, g.src(e)));
                    }
                }
                ScatterFn::CopyV => {
                    for e in e0..e1 {
                        buf[(e - e0) * total..(e - e0 + 1) * total]
                            .copy_from_slice(tv.row(y, g.dst(e)));
                    }
                }
                ScatterFn::Bin(bf) => {
                    for e in e0..e1 {
                        let (xu, yv) = (tv.row(x, g.src(e)), tv.row(y, g.dst(e)));
                        let o = &mut buf[(e - e0) * total..(e - e0 + 1) * total];
                        rowops::zip2_into(o, xu, yv, |a, b| bf.apply(a, b));
                    }
                }
                ScatterFn::ConcatUV => {
                    let heads = node.dim.heads;
                    for e in e0..e1 {
                        let (xu, yv) = (tv.row(x, g.src(e)), tv.row(y, g.dst(e)));
                        let (fx, fy) = (xu.len() / heads, yv.len() / heads);
                        let o = &mut buf[(e - e0) * total..(e - e0 + 1) * total];
                        for h in 0..heads {
                            let base = h * (fx + fy);
                            o[base..base + fx].copy_from_slice(&xu[h * fx..(h + 1) * fx]);
                            o[base + fx..base + fx + fy].copy_from_slice(&yv[h * fy..(h + 1) * fy]);
                        }
                    }
                }
            }
        }

        OpKind::Gather { reduce, .. } => {
            let x = sp.srcs[0];
            match reduce {
                // Shared with the reference kernels so the heavy-row
                // chunk association is identical on both paths.
                ReduceFn::Sum => {
                    for v in v0..v1 {
                        let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                        o.fill(0.0);
                        reduce_row_sum(o, adj.edge_ids(v), |e| tv.row(x, e), heavy, scratch);
                    }
                }
                ReduceFn::Mean => {
                    for v in v0..v1 {
                        let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                        o.fill(0.0);
                        let deg = adj.degree(v);
                        if deg == 0 {
                            continue;
                        }
                        let inv = 1.0 / deg as f32;
                        reduce_row_mean(o, adj.edge_ids(v), inv, |e| tv.row(x, e), heavy, scratch);
                    }
                }
                ReduceFn::Max => {
                    let StepAux::ArgMax { table, chunk_v0 } = aux else {
                        unreachable!("gather-max executes with an argmax sink")
                    };
                    for v in v0..v1 {
                        let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                        o.fill(0.0);
                        let ar = &mut table[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                        ar.fill(NO_ARGMAX);
                        let mut first = true;
                        for &e in adj.edge_ids(v) {
                            let xr = tv.row(x, e as usize);
                            for c in 0..total {
                                if first || xr[c] > o[c] {
                                    o[c] = xr[c];
                                    ar[c] = e;
                                }
                            }
                            first = false;
                        }
                    }
                }
            }
        }

        OpKind::EdgeSoftmax => {
            let x = sp.srcs[0];
            match aux {
                StepAux::SoftmaxFresh {
                    maxes,
                    denom,
                    chunk_v0,
                } => {
                    for v in v0..v1 {
                        let ids = adj.edge_ids(v);
                        if ids.is_empty() {
                            continue;
                        }
                        let mr = &mut maxes[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                        for &e in ids {
                            rowops::max_assign(mr, tv.row(x, e as usize));
                        }
                        let dr = &mut denom[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                        for &e in ids {
                            rowops::exp_sub_accum(dr, tv.row(x, e as usize), mr);
                        }
                        for &e in ids {
                            let yr =
                                &mut buf[(e as usize - e0) * total..(e as usize - e0 + 1) * total];
                            rowops::softmax_from_stats(yr, tv.row(x, e as usize), mr, dr);
                        }
                    }
                }
                StepAux::SoftmaxFromAux { maxes, denom } => {
                    for e in e0..e1 {
                        let v = g.dst(e);
                        let yr = &mut buf[(e - e0) * total..(e - e0 + 1) * total];
                        rowops::softmax_from_stats(yr, tv.row(x, e), maxes.row(v), denom.row(v));
                    }
                }
                _ => unreachable!("softmax executes with a softmax aux"),
            }
        }

        OpKind::EdgeSoftmaxBwd => {
            let (gr_src, y_src) = (sp.srcs[0], sp.srcs[1]);
            for v in v0..v1 {
                let ids = adj.edge_ids(v);
                let mut s = vec![0.0f32; total];
                for &e in ids {
                    rowops::mul_add_accum(
                        &mut s,
                        tv.row(gr_src, e as usize),
                        tv.row(y_src, e as usize),
                    );
                }
                for &e in ids {
                    let or = &mut buf[(e as usize - e0) * total..(e as usize - e0 + 1) * total];
                    rowops::softmax_bwd_row(
                        or,
                        tv.row(gr_src, e as usize),
                        tv.row(y_src, e as usize),
                        &s,
                    );
                }
            }
        }

        OpKind::GatherMeanBwd { .. } => {
            let gr_src = sp.srcs[0];
            for e in e0..e1 {
                let v = g.dst(e);
                let inv = 1.0 / adj.degree(v) as f32;
                let o = &mut buf[(e - e0) * total..(e - e0 + 1) * total];
                rowops::scale_into(o, inv, tv.row(gr_src, v));
            }
        }

        // Tiled only when the forward gather grouped ByDst (the tile owns
        // its destination groups whole); same expressions as
        // `kernels::gather_max_bwd`, with an explicit zero write because
        // scratch buffers are reused across tiles, not pre-zeroed.
        OpKind::GatherMaxBwd { .. } => {
            let gr_src = sp.srcs[0];
            let StepAux::ArgMaxRead { table } = aux else {
                unreachable!("gather-max backward executes with its forward argmax table")
            };
            for e in e0..e1 {
                let v = g.dst(e);
                let ar = &table[v * total..(v + 1) * total];
                let grv = tv.row(gr_src, v);
                let o = &mut buf[(e - e0) * total..(e - e0 + 1) * total];
                for c in 0..total {
                    o[c] = if ar[c] == e as u32 { grv[c] } else { 0.0 };
                }
            }
        }

        OpKind::Unary(f) => {
            let x = sp.srcs[0];
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let o = &mut buf[i * total..(i + 1) * total];
                rowops::map_into(o, tv.row(x, r), |v| f.apply(v));
            });
        }
        OpKind::UnaryBwd(f) => {
            let (gr_src, x_src) = (sp.srcs[0], sp.srcs[1]);
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let o = &mut buf[i * total..(i + 1) * total];
                rowops::zip2_into(o, tv.row(gr_src, r), tv.row(x_src, r), |gv, xv| {
                    gv * f.derivative(xv)
                });
            });
        }

        OpKind::Binary(f) => {
            let (a_src, b_src) = (sp.srcs[0], sp.srcs[1]);
            let (da, db) = (node_input_dim(sp, 0), node_input_dim(sp, 1));
            let heads = da.heads;
            if da.feat == db.feat {
                for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                    let o = &mut buf[i * total..(i + 1) * total];
                    rowops::zip2_into(o, tv.row(a_src, r), tv.row(b_src, r), |av, bv| {
                        f.apply(av, bv)
                    });
                });
            } else {
                let feat = da.feat.max(db.feat);
                for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                    let (ar, br) = (tv.row(a_src, r), tv.row(b_src, r));
                    let or = &mut buf[i * total..(i + 1) * total];
                    for h in 0..heads {
                        for c in 0..feat {
                            let av = if da.feat == 1 {
                                ar[h]
                            } else {
                                ar[h * feat + c]
                            };
                            let bv = if db.feat == 1 {
                                br[h]
                            } else {
                                br[h * feat + c]
                            };
                            or[h * feat + c] = f.apply(av, bv);
                        }
                    }
                });
            }
        }

        OpKind::GaussianWeight => {
            let (p_src, mu_src, sg_src) = (sp.srcs[0], sp.srcs[1], sp.srcs[2]);
            let k = total;
            for e in e0..e1 {
                let pr = tv.row(p_src, e);
                let r = pr.len();
                let or = &mut buf[(e - e0) * k..(e - e0 + 1) * k];
                for (ki, ov) in or.iter_mut().enumerate().take(k) {
                    let (mr, sr) = (tv.row(mu_src, ki), tv.row(sg_src, ki));
                    let mut acc = 0.0;
                    for j in 0..r {
                        let d = (pr[j] - mr[j]) * sr[j];
                        acc += d * d;
                    }
                    *ov = (-0.5 * acc).exp();
                }
            }
        }

        OpKind::SliceCols { start, end } => {
            let x = sp.srcs[0];
            let din = node_input_dim(sp, 0);
            let (heads, feat) = (din.heads, din.feat);
            let w = end - start;
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let xr = tv.row(x, r);
                let or = &mut buf[i * total..(i + 1) * total];
                for h in 0..heads {
                    or[h * w..(h + 1) * w].copy_from_slice(&xr[h * feat + start..h * feat + end]);
                }
            });
        }
        OpKind::EmbedCols {
            start,
            end,
            total: tf,
        } => {
            let x = sp.srcs[0];
            let heads = node.dim.heads;
            let w = end - start;
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let gr = tv.row(x, r);
                let or = &mut buf[i * total..(i + 1) * total];
                or.fill(0.0);
                for h in 0..heads {
                    or[h * tf + start..h * tf + end].copy_from_slice(&gr[h * w..(h + 1) * w]);
                }
            });
        }

        OpKind::SetHeads { .. } => {
            let x = sp.srcs[0];
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                buf[i * total..(i + 1) * total].copy_from_slice(tv.row(x, r));
            });
        }
        OpKind::HeadReduce(f) => {
            let x = sp.srcs[0];
            let din = node_input_dim(sp, 0);
            let (heads, feat) = (din.heads, din.feat);
            let scale = if *f == ReduceFn::Mean {
                1.0 / heads as f32
            } else {
                1.0
            };
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let xr = tv.row(x, r);
                let or = &mut buf[i * feat..(i + 1) * feat];
                or.fill(0.0);
                for h in 0..heads {
                    for c in 0..feat {
                        or[c] += xr[h * feat + c] * scale;
                    }
                }
            });
        }
        OpKind::HeadBroadcast { heads } => {
            let x = sp.srcs[0];
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let xr = tv.row(x, r);
                let feat = xr.len();
                let or = &mut buf[i * total..(i + 1) * total];
                for h in 0..*heads {
                    or[h * feat..(h + 1) * feat].copy_from_slice(xr);
                }
            });
        }
        OpKind::FeatSum => {
            let x = sp.srcs[0];
            let din = node_input_dim(sp, 0);
            let (heads, feat) = (din.heads, din.feat);
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let xr = tv.row(x, r);
                let or = &mut buf[i * heads..(i + 1) * heads];
                for h in 0..heads {
                    or[h] = xr[h * feat..(h + 1) * feat].iter().sum();
                }
            });
        }
        OpKind::FeatBroadcast { feat } => {
            let x = sp.srcs[0];
            let heads = node.dim.heads;
            for_rows(sp.space, (v0, v1, e0, e1), |r, i| {
                let xr = tv.row(x, r);
                let or = &mut buf[i * total..(i + 1) * total];
                for h in 0..heads {
                    for c in 0..*feat {
                        or[h * feat + c] = xr[h];
                    }
                }
            });
        }

        other => unreachable!("op {other:?} survived lowering but cannot tile"),
    }
}

/// Iterates the tile's rows of a step's own space: `(global row, tile-local
/// index)`.
fn for_rows(
    space: Space,
    (v0, v1, e0, e1): (usize, usize, usize, usize),
    mut body: impl FnMut(usize, usize),
) {
    let range = match space {
        Space::Edge => e0..e1,
        Space::Vertex => v0..v1,
        Space::Param => 0..0,
    };
    let base = range.start;
    for r in range {
        body(r, r - base);
    }
}

/// Input dim lookup stored on the step plan at build time.
fn node_input_dim(sp: &StepPlan, idx: usize) -> Dim {
    sp.dins[idx]
}

#[cfg(test)]
mod tests {
    use super::{edge_balanced_bounds, tile_bounds};

    #[test]
    fn tile_bounds_respect_edge_budget_and_cover_all_vertices() {
        // indptr of 6 vertices with degrees [2, 0, 3, 1, 0, 4].
        let indptr = [0usize, 2, 2, 5, 6, 6, 10];
        for budget in [0usize, 1, 2, 3, 5, 10, 1000] {
            let b = tile_bounds(&indptr, budget);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), 6, "tiles must cover every vertex");
            assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
            for w in b.windows(2) {
                let edges = indptr[w[1]] - indptr[w[0]];
                // A tile may exceed the budget only when a single vertex
                // does (groups never split).
                assert!(
                    edges <= budget || w[1] - w[0] == 1,
                    "budget {budget}: tile {w:?} has {edges} edges"
                );
            }
        }
    }

    #[test]
    fn tile_bounds_handle_empty_and_edgeless_graphs() {
        assert_eq!(tile_bounds(&[0], 8), vec![0], "no vertices → no tiles");
        // 3 vertices, 0 edges: one tile covering all of them.
        assert_eq!(tile_bounds(&[0, 0, 0, 0], 8), vec![0, 3]);
    }

    #[test]
    fn tile_bounds_isolate_a_vertex_over_budget() {
        // Vertex 1 has 7 in-edges, more than the budget of 4: it still
        // gets one intact tile.
        let indptr = [0usize, 1, 8, 9];
        let b = tile_bounds(&indptr, 4);
        assert_eq!(b, vec![0, 1, 2, 3]);
    }

    #[test]
    fn edge_balanced_bounds_flatten_a_hub() {
        // 8 single-vertex tiles; vertex 0 holds 70 of the 77 edges. A
        // tile-count split over 2 workers gives worker 0 the hub *and*
        // three more tiles; the edge-balanced split hands everything but
        // the hub to worker 1.
        let indptr = [0usize, 70, 71, 72, 73, 74, 75, 76, 77];
        let tiles: Vec<usize> = (0..=8).collect();
        let b = edge_balanced_bounds(&tiles, &indptr, 2);
        assert_eq!(b, vec![0, 1, 8]);
        // Per-worker edge loads are within one tile of balance for any
        // worker count, and the bounds always cover every tile strictly
        // monotonically.
        for threads in 1..=8 {
            let b = edge_balanced_bounds(&tiles, &indptr, threads);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), 8);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        }
    }

    #[test]
    fn edge_balanced_bounds_degenerate_inputs() {
        // No tiles at all.
        assert_eq!(edge_balanced_bounds(&[0], &[0], 4), vec![0]);
        // Tiles but zero edges: falls back to the tile-count split.
        let tiles = [0usize, 1, 2, 3];
        let b = edge_balanced_bounds(&tiles, &[0, 0, 0, 0], 2);
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 3);
        // More workers than tiles clamps to one tile per worker.
        let indptr = [0usize, 2, 4];
        let b = edge_balanced_bounds(&[0, 1, 2], &indptr, 16);
        assert_eq!(b, vec![0, 1, 2]);
    }
}
