//! Tiled execution of lowered [`KernelProgram`]s: fusion realized on the
//! host, not just in the analytical model.
//!
//! This is the session's only way to run a kernel, and the tile driver
//! below the only engine of every op a destination tile can run — alone
//! in its kernel or fused; what a tile cannot own (a `StepExec::Full`
//! step: dense projections, cross-row parameter reductions,
//! parameter-space steps, three `BySrc` ops) is one call into the op
//! library's dense dispatch between tiled segments. Evaluating a fused
//! kernel node by node (as the test oracle, [`crate::refexec::evaluate`],
//! does) materializes every member as a full tensor, so fusion would only
//! change the *accounting*. This interpreter executes a program over CSR
//! **destination-vertex ranges** (tiles): scratch-class members live
//! only as per-tile rows in worker-local slots, so the `O(|E|·d)`
//! intermediates of a gather→edge-op→scatter chain never exist in memory
//! — the measured `peak_value_bytes` drops toward what `gnnopt-sim`
//! predicts for the fused plan (interior spills, see
//! `gnnopt_core::lower`, are the remaining gap).
//!
//! # One compiler, one driver
//!
//! Nothing on the per-row path looks at the IR, the step table or a hash
//! map. Once per launch [`compile`] turns a run of steps — a tiled
//! segment, or a streamed gather with its producer chain — into
//! [`TileOp`]s whose operands are already resolved ([`Operand`]): the
//! rows of a full tensor (value store, prelude view, earlier segment) or
//! of an earlier op's slot, read at the consumer's own row or at an edge
//! endpoint ([`RowAt`]). One loop in [`run_program`] then walks the
//! tiles and runs the ops in order. What falls out of that
//! representation:
//!
//! * **Pure copies hold no slot.** A scratch-class `Scatter(CopyU)`,
//!   `Scatter(CopyV)` or `SetHeads` compiles to no op at all: its readers
//!   get the copy's source operand with the endpoint pinned
//!   (`h[src(e)]`, `h[dst(e)]`), so a `Binary`, a `Gather` reduction or
//!   an `EdgeSoftmax` over the copy reads the vertex rows directly. A
//!   copy that is a kernel boundary or an interior spill still runs (as
//!   a plain row copy of the same pinned operand).
//! * **Elementwise ops run many rows a call.** When every operand of a
//!   `Unary`, `UnaryBwd` or equal-shape `Binary` is addressed at the op's
//!   own row, the rows are contiguous in all of them and the op is *one*
//!   [`rowops`] call over `rows × cols` ([`Rows::zip_rows`]) — the tile's
//!   rows, or a row-sized op's strip; with a pinned operand the same
//!   closure runs once per row.
//! * **One set of row expressions.** [`exec_rows`] is the only place a
//!   per-row op's arithmetic is spelled and [`exec_op`] the only place a
//!   group reduction's is, whatever the slot sizes around them.
//!
//! # Slot sizes
//!
//! Every op has a slot, of one of three sizes ([`SlotSize`]):
//!
//! * **Tile-sized** — the tile's rows of the op's space, evaluated when
//!   the tile loop reaches the op, before its readers run: the inputs of
//!   a reduction that sweeps each group more than once (`EdgeSoftmax`,
//!   `EdgeSoftmaxBwd`), the input of an elementwise op that covers the
//!   tile in one call, an elementwise op read through an edge endpoint
//!   (its reader would be held to one row a pull), every value with two
//!   readers.
//! * **Row-sized** — a scratch-class per-row op whose single reader in
//!   the unit takes each row once: a `Gather`, the streamed accumulate,
//!   a per-row op that runs row by row (a pinned or head-broadcast
//!   operand, `FeatSum`) or is itself row-sized. It is not evaluated over
//!   the tile at all: its reader *pulls* it ([`Unit::pull`]) over the run
//!   of rows it is about to read, the op runs through [`exec_rows`]
//!   there, and `base[slot]` remembers where the run starts. The slot
//!   holds a short *strip* of consecutive rows (at most `STRIP_ROWS`,
//!   4 KB) — one row where the read goes through an edge endpoint — so
//!   the `E_tile × d` rows of `binary_Mul → gather_Sum` (GAT and GCN
//!   forward) or `binary_Mul → feat_sum` (GAT backward) are never
//!   written to a ~1 MB slot and read back: the wide row stays in L1
//!   between its producer and its consumer, the paper's "edge-centric
//!   producer runs inside the vertex-centric reduction". This
//!   generalizes "pure copies hold no slot" to "single-reader rows hold
//!   no tile slot".
//! * **No slot (sink)** — a `Materialized`/`Interior` op computes into
//!   its rows of the full tensor: the worker's chunk of the tensor is its
//!   slot, read back by same-segment readers, so nothing is staged and
//!   copied.
//!
//! # Streamed segments
//!
//! A segment whose full step is a `BySrc` sum or mean is a streamed
//! gather. Where lowering found the gather to be the only consumer of a
//! per-edge computable producer chain, it moved the chain into the
//! gather's segment instead of spilling its root as an `O(|E|·d)`
//! interior tensor (`gnnopt_core::lower`, "Streamed segments" — the
//! decision is the program's, nothing here re-derives it); otherwise the
//! chain is empty and the gather reads a complete tensor. Chain and
//! gather compile into one more unit for the same tile loop: the chain's
//! ops get slots by the rule above (a linear edge-space chain is
//! row-sized throughout, an elementwise vertex-space member — read at
//! `dst(e)` — or a member with two readers is a tile op), and the
//! gather, last, accumulates `out[src(e)] += row(e)` over the tile's
//! edges in ascending order. Workers own source-vertex ranges there (of
//! about as many out-edges each), each walks every tile and skips the
//! edges it does not own: every source row accumulates its edges in
//! ascending id, the order of [`crate::kernels::gather`]'s serial `BySrc`
//! scan, so results stay bit-identical to the materializing path for any
//! thread count. A pull
//! covers the run of consecutive edges the worker owns (sources ascend
//! within a destination group, so each group is one run per worker),
//! which is what divides the row-sized members' work by the worker
//! count; tile-sized members (a vertex-space one over the tile's
//! destinations) are evaluated by every worker. The spill never exists;
//! this is the dominant backward-phase cost of GAT/GCN on power-law
//! graphs.
//!
//! # Tiling and determinism
//!
//! Destination tiles are cut greedily along `indptr` with at most
//! [`gnnopt_core::ExecPolicy::tile_edges`] rows in either space per tile
//! — edges, and vertices too, so a run of low-degree vertices cannot
//! make a vertex-space tile slot outgrow the cache the edge budget was
//! chosen for (a single vertex whose in-degree exceeds the budget still
//! gets one intact tile — reduction groups never split). Because the
//! canonical edge numbering is destination-major, a tile `[v0, v1)` owns
//! the contiguous edge rows `[indptr[v0], indptr[v1])`, every `ByDst`
//! group is wholly inside one tile, and per-vertex edge order is
//! preserved. Each op evaluates the
//! *same expressions in the same order* as the reference kernels in
//! [`crate::kernels`] — both call the shared feature-axis loops of
//! [`gnnopt_tensor::rowops`], and aliasing, tile-wide execution or a
//! row-sized slot only change *where* an expression reads and writes and
//! how many rows one call covers — so results are **bit-identical** to
//! the node-by-node oracle for any tile budget and any thread count.
//!
//! # Parallelism and scratch
//!
//! Tiles are distributed over `std::thread::scope` workers in contiguous
//! runs, so each worker writes disjoint contiguous row ranges of the
//! materialized outputs and auxiliaries — no atomics. Every worker
//! carves its tile- and row-sized slots out of one pooled buffer, the
//! tile-sized ones fitting its largest tile, and reuses them across its
//! tiles; what is held (aliased copies and sinks hold nothing) is
//! reported as `RunStats::scratch_bytes`. The buffer is one of the
//! launch's *working buffers*: a serial launch takes it from the
//! session pool's working list (`gnnopt_tensor::pool::take_work_f32`),
//! which the memory plan does not cover.

use crate::kernels::{
    binary_broadcast_row, chunk_bounds, edge_balanced_vertex_bounds, plan_threads, reduce_row_mean,
    reduce_row_sum, split_rows, RowSource, NO_ARGMAX,
};
use crate::{contain, ExecError, Result};
use gnnopt_core::lower::{is_streamed_gather, KernelProgram, StepExec, Storage};
use gnnopt_core::{
    Dim, EdgeGroup, ExecPolicy, IrGraph, NodeId, OpKind, ReduceFn, ScatterFn, Space,
};
use gnnopt_graph::Graph;
use gnnopt_tensor::{pool, rowops, Tensor};
use std::collections::HashMap;
use std::ops::Range;

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
    /// Bytes of dying inputs the launch freed mid-flight: already removed from the store the caller lent us, so the session
    /// subtracts them from its live accounting.
    pub evicted_bytes: u64,
}

/// Where a step operand's rows come from, before [`compile`] resolves it.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A live full tensor in the session's value store.
    Global(NodeId),
    /// A same-segment step (index into `KernelProgram::steps`): its
    /// slot, or whatever the step aliases.
    Slot(usize),
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
    /// Rebuilds a forward value inside a backward kernel: a softmax then
    /// reads the statistics its forward run stashed.
    recompute: bool,
    srcs: Vec<Src>,
    /// Input dims (`ir.node(inputs[i]).dim`), for broadcast/head layout.
    dins: Vec<Dim>,
}

/// Which row of its data a resolved operand reads when the consuming op
/// is at row `r` of its own space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowAt {
    /// Row `r` itself.
    Own,
    /// Row `src(r)` / `dst(r)` of an edge-space consumer: the endpoint
    /// read of a `Scatter`, which survives into whoever reads an aliased
    /// `CopyU` / `CopyV`.
    SrcV,
    DstV,
}

/// A resolved operand: where the rows are and which one to read.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: Data<'a>,
    at: RowAt,
}

#[derive(Clone, Copy)]
enum Data<'a> {
    /// The slot of an earlier op of the same compile unit (its index in
    /// the unit's op list).
    Slot { idx: usize, cols: usize },
    /// The rows of a complete full tensor.
    Full { data: &'a [f32], cols: usize },
}

impl<'a> Operand<'a> {
    fn full(t: &'a Tensor) -> Self {
        let data = Data::Full {
            data: t.as_slice(),
            cols: t.numel().checked_div(t.rows()).unwrap_or(0),
        };
        Operand {
            data,
            at: RowAt::Own,
        }
    }

    /// Pins the operand of an endpoint read. Scatter inputs are
    /// vertex-space values, which are only ever addressed at `Own`.
    fn pinned(self, at: RowAt) -> Self {
        debug_assert_eq!(self.at, RowAt::Own, "vertex operands are unpinned");
        Operand { at, ..self }
    }

    /// The slot this operand reads, if it reads one.
    fn slot(self) -> Option<usize> {
        match self.data {
            Data::Slot { idx, .. } => Some(idx),
            Data::Full { .. } => None,
        }
    }
}

/// How many rows an op's slot holds (module docs, "Slot sizes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotSize {
    /// The tile's rows of the op's space, evaluated before its readers run.
    Tile,
    /// A strip of at most [`TileOp::strip`] rows — one, for a row read
    /// at an edge endpoint — evaluated over the run of rows its reader
    /// takes next ([`Unit::pull`]).
    Row,
    /// None: the op writes its rows of a full tensor in place — a
    /// boundary value or spill of a tiled segment, or a streamed
    /// segment's gather.
    Sink,
}

/// One step compiled for the per-row path: op kind borrowed from the IR,
/// operands resolved — the driver touches neither a hash map, the step
/// table nor the IR while it runs.
struct TileOp<'a> {
    /// Index into the launch's step table (sinks are keyed by it).
    si: usize,
    kind: &'a OpKind,
    space: Space,
    cols: usize,
    /// Output head count (`node.dim.heads`).
    heads: usize,
    /// `Scatter`: `[x@SrcV, y@DstV]` (a copy keeps only the side it
    /// reads). `EdgeSoftmax` with stashed statistics: `[x, max@DstV,
    /// denom@DstV]`. `GatherMeanBwd` / `GatherMaxBwd`: `[grad@DstV]`.
    /// Otherwise the node's inputs in order.
    srcs: Vec<Operand<'a>>,
    dins: &'a [Dim],
    size: SlotSize,
    /// Some operand is a row-sized slot: [`Unit::pull`] before reading.
    pulls: bool,
    /// Row-sized: rows the slot holds. An op that pulls: rows it may run
    /// between two pulls (every row-sized operand then holds them all).
    strip: usize,
    /// `GatherMaxBwd`: the forward gather's complete argmax table.
    argmax: &'a [u32],
}

impl TileOp<'_> {
    /// Elements this op's slot holds on a worker whose largest tile is
    /// `(vertices, edges)`.
    fn slot_len(&self, (tv, te): (usize, usize)) -> usize {
        let tile = self.cols
            * match self.space {
                Space::Edge => te,
                Space::Vertex => tv,
                Space::Param => 0,
            };
        match self.size {
            SlotSize::Tile => tile,
            SlotSize::Row => tile.min(self.strip * self.cols),
            SlotSize::Sink => 0,
        }
    }

    /// Reduces over whole edge groups ([`exec_op`]'s own arms); every
    /// other op is a per-row expression ([`exec_rows`]).
    fn reduces_groups(&self) -> bool {
        match self.kind {
            OpKind::Gather { .. } | OpKind::EdgeSoftmaxBwd => true,
            // Fresh: three sweeps per group. With stashed statistics
            // (two more operands) it is a row expression.
            OpKind::EdgeSoftmax => self.srcs.len() == 1,
            _ => false,
        }
    }

    /// An elementwise op whose operands all sit at its own row: one
    /// [`rowops`] call covers all the rows it is run over
    /// ([`Rows::zip_rows`]).
    fn flat(&self) -> bool {
        let zips = match self.kind {
            OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV | ScatterFn::Bin(_))
            | OpKind::SetHeads { .. }
            | OpKind::Unary(_)
            | OpKind::UnaryBwd(_) => true,
            OpKind::EdgeSoftmax => !self.reduces_groups(),
            OpKind::Binary(_) => self.dins[0].feat == self.dins[1].feat,
            _ => false,
        };
        zips && self.srcs.iter().all(|s| s.at == RowAt::Own)
    }

    /// Reads each row of its operands once, in runs a strip can hold —
    /// what a reader must do for its producer to be row-sized. (A flat op
    /// with a tile-sized slot covers the tile in one call instead.)
    fn takes_rows_once(&self) -> bool {
        match self.kind {
            OpKind::Gather { .. } => true,
            _ => !self.reduces_groups() && (!self.flat() || self.size == SlotSize::Row),
        }
    }
}

/// Elements (4 KB) and rows a row-sized slot's strip holds at most.
const STRIP_ELEMS: usize = 1024;
const STRIP_ROWS: usize = 32;

/// The full tensors the operands of one launch stage resolve against.
struct Env<'a> {
    ir: &'a IrGraph,
    steps: &'a [StepPlan],
    mat: &'a [Option<Tensor>],
    values: &'a HashMap<NodeId, Tensor>,
    preludes: &'a [Tensor],
    aux_softmax: &'a HashMap<NodeId, (Tensor, Tensor)>,
    aux_argmax: &'a HashMap<NodeId, Vec<u32>>,
}

impl<'a> Env<'a> {
    fn tensor(&self, s: Src) -> &'a Tensor {
        match s {
            Src::Global(id) => &self.values[&id],
            Src::Prelude(i) => &self.preludes[i],
            Src::Mat(mi) => self.mat[mi].as_ref().expect("earlier segment is complete"),
            Src::Slot(_) => unreachable!("same-segment operands resolve to slots"),
        }
    }
}

/// Compiles one segment's steps `order` (in step order, which is
/// dependency order) into tile ops and gives each its slot size: a tiled
/// segment, or a streamed gather's chain with the gather itself last —
/// the unit's one sink, every chain step being scratch-class.
///
/// Pure copies compile to no op when they are scratch-class: readers get
/// the copy's source with the endpoint pinned.
///
/// # Errors
///
/// [`ExecError::ValueNotLive`] when a `GatherMaxBwd`'s forward argmax
/// table or a recomputed `EdgeSoftmax`'s forward statistics are not
/// stashed (a plan inconsistency; lowering streamed the softmax's chain
/// on the strength of them, so there is no other way to run it) — before
/// any worker spawns.
fn compile<'a>(env: &Env<'a>, order: &[usize]) -> Result<Vec<TileOp<'a>>> {
    let mut ops: Vec<TileOp<'a>> = Vec::with_capacity(order.len());
    // Per position of `order`, the operand its readers see: the op's
    // slot, or the source a copy was aliased to.
    let mut reads: Vec<Operand<'a>> = Vec::with_capacity(order.len());
    for (pos, &si) in order.iter().enumerate() {
        let sp = &env.steps[si];
        let node = env.ir.node(sp.node);
        let is_sink = sp.storage != Storage::Scratch;
        let resolve = |s: Src, reads: &[Operand<'a>]| match s {
            Src::Slot(step) => {
                let at = order[..pos].iter().position(|&o| o == step);
                reads[at.expect("a same-segment operand precedes its reader")]
            }
            _ => Operand::full(env.tensor(s)),
        };
        // A scratch-class pure copy is an alias of the one row it reads.
        let copied = match node.kind {
            OpKind::Scatter(ScatterFn::CopyU) => Some((0, RowAt::SrcV)),
            OpKind::Scatter(ScatterFn::CopyV) => Some((sp.srcs.len() - 1, RowAt::DstV)),
            OpKind::SetHeads { .. } => Some((0, RowAt::Own)),
            _ => None,
        };
        if let (Some((i, at)), false) = (copied, is_sink) {
            let x = resolve(sp.srcs[i], &reads);
            reads.push(if at == RowAt::Own { x } else { x.pinned(at) });
            continue;
        }
        let mut srcs: Vec<Operand<'a>> = Vec::with_capacity(sp.srcs.len() + 2);
        srcs.extend(sp.srcs.iter().map(|&s| resolve(s, &reads)));
        let mut argmax: &[u32] = &[];
        match &node.kind {
            OpKind::Scatter(f) => {
                let x = srcs[0].pinned(RowAt::SrcV);
                let y = srcs[srcs.len() - 1].pinned(RowAt::DstV);
                srcs.clear();
                match f {
                    ScatterFn::CopyU => srcs.push(x),
                    ScatterFn::CopyV => srcs.push(y),
                    ScatterFn::Bin(_) | ScatterFn::ConcatUV => srcs.extend([x, y]),
                }
            }
            OpKind::EdgeSoftmax if sp.recompute => {
                let (mx, dn) =
                    env.aux_softmax
                        .get(&sp.node)
                        .ok_or_else(|| ExecError::ValueNotLive {
                            node: format!("softmax statistics of node {}", sp.node),
                        })?;
                srcs.push(Operand::full(mx).pinned(RowAt::DstV));
                srcs.push(Operand::full(dn).pinned(RowAt::DstV));
            }
            // The vertex gradient is read at `dst(e)`: pinned, so a
            // row-sized producer is pulled at the vertex, not the edge.
            OpKind::GatherMeanBwd { .. } => srcs[0] = srcs[0].pinned(RowAt::DstV),
            OpKind::GatherMaxBwd { fwd } => {
                srcs[0] = srcs[0].pinned(RowAt::DstV);
                argmax = env
                    .aux_argmax
                    .get(fwd)
                    .ok_or_else(|| ExecError::ValueNotLive {
                        node: format!("argmax aux of node {fwd}"),
                    })?;
            }
            _ => {}
        }
        reads.push(Operand {
            data: Data::Slot {
                idx: ops.len(),
                cols: sp.cols,
            },
            at: RowAt::Own,
        });
        ops.push(TileOp {
            si,
            kind: &node.kind,
            space: sp.space,
            cols: sp.cols,
            heads: node.dim.heads,
            srcs,
            dins: &sp.dins,
            size: if is_sink {
                SlotSize::Sink
            } else {
                SlotSize::Tile
            },
            pulls: false,
            strip: 1,
            argmax,
        });
    }

    // Slot sizes, readers before producers: a scratch-class per-row op
    // is row-sized when its one reader takes each row once.
    for j in (0..ops.len()).rev() {
        let reads_j = |op: &TileOp<'_>| op.srcs.iter().any(|s| s.slot() == Some(j));
        let mut readers = (j + 1..ops.len()).filter(|&k| reads_j(&ops[k]));
        let (Some(k), None) = (readers.next(), readers.next()) else {
            continue;
        };
        let op = &ops[j];
        // A read through an edge endpoint holds its reader to one row a
        // pull: worth it only for an op that runs row by row anyway.
        let own = |s: &Operand<'_>| s.slot() != Some(j) || s.at == RowAt::Own;
        if op.size == SlotSize::Tile
            && !op.reduces_groups()
            && ops[k].takes_rows_once()
            && (!op.flat() || ops[k].srcs.iter().all(own))
        {
            ops[j].size = SlotSize::Row;
            ops[k].pulls = true;
        }
    }
    // Strip lengths, producers before readers. A row-sized op holds
    // consecutive rows — a few KB, so the strip stays in L1 while its
    // reader walks it and the per-call cost of evaluating it is shared;
    // a row read at an endpoint stands alone. An op never runs more rows
    // at once than each row-sized operand can hold.
    for k in 0..ops.len() {
        let op = &ops[k];
        let mut strip = match op.size {
            SlotSize::Row => (STRIP_ELEMS / op.cols.max(1)).clamp(1, STRIP_ROWS),
            _ => STRIP_ROWS,
        };
        for s in &op.srcs {
            if let Some(j) = s.slot().filter(|&j| ops[j].size == SlotSize::Row) {
                let held = if s.at == RowAt::Own { ops[j].strip } else { 1 };
                strip = strip.min(held);
            }
        }
        ops[k].strip = strip;
    }
    Ok(ops)
}

/// Read access to the rows one op execution sees: the graph's endpoint
/// arrays plus the slots of the unit's earlier ops.
struct Rows<'r> {
    g: &'r Graph,
    src: &'r [u32],
    dst: &'r [u32],
    bufs: &'r [&'r mut [f32]],
    /// First row each slot currently holds: the tile's first row, the
    /// one row of a row-sized slot, the first row of a sink's chunk.
    base: &'r [usize],
}

impl<'r> Rows<'r> {
    fn new(g: &'r Graph, bufs: &'r [&'r mut [f32]], base: &'r [usize]) -> Self {
        Rows {
            g,
            src: g.src_slice(),
            dst: g.dst_slice(),
            bufs,
            base,
        }
    }

    /// The row a consumer at row `r` reads of an operand addressed `at`.
    #[inline(always)]
    fn at(&self, at: RowAt, r: usize) -> usize {
        match at {
            RowAt::Own => r,
            RowAt::SrcV => self.src[r] as usize,
            RowAt::DstV => self.dst[r] as usize,
        }
    }

    /// The operand's row for a consumer at row `r`.
    #[inline(always)]
    fn row(&self, o: Operand<'r>, r: usize) -> &'r [f32] {
        self.rows(o, r, 1)
    }

    /// The operand's `n` rows for a consumer at rows `r..r + n` (more
    /// than one only when the operand is read at the consumer's own row).
    #[inline(always)]
    fn rows(&self, o: Operand<'r>, r: usize, n: usize) -> &'r [f32] {
        let r = self.at(o.at, r);
        match o.data {
            Data::Slot { idx, cols } => {
                let off = (r - self.base[idx]) * cols;
                &self.bufs[idx][off..off + n * cols]
            }
            Data::Full { data, cols } => &data[r * cols..(r + n) * cols],
        }
    }

    /// Runs `body(out_row, x_row)` for every row of `rows`, `width`
    /// output columns each (the ops that are per-row but not elementwise).
    #[inline(always)]
    fn map_rows(
        &self,
        x: Operand<'r>,
        rows: Range<usize>,
        width: usize,
        out: &mut [f32],
        body: impl Fn(&mut [f32], &[f32]),
    ) {
        for (i, r) in rows.enumerate() {
            body(&mut out[i * width..(i + 1) * width], self.row(x, r));
        }
    }

    /// Runs an elementwise `body(out, operands)` over `rows`: **once**
    /// over all `rows × cols` elements when every operand is read at the
    /// op's own row (the rows are then contiguous in every operand),
    /// else once per row. Elementwise, so both forms write the same bits.
    #[inline(always)]
    fn zip_rows<const N: usize>(
        &self,
        srcs: [Operand<'r>; N],
        rows: Range<usize>,
        cols: usize,
        out: &mut [f32],
        body: impl Fn(&mut [f32], [&[f32]; N]),
    ) {
        if srcs.iter().all(|s| s.at == RowAt::Own) {
            let xs = srcs.map(|s| self.rows(s, rows.start, rows.len()));
            return body(&mut out[..rows.len() * cols], xs);
        }
        // Row by row, each operand resolved once before the loop: its
        // rows, their width, the first row held and the endpoint array
        // that indexes it (2-wide attention rows pay for every branch).
        let res = srcs.map(|s| {
            let (data, cols, first): (&[f32], _, _) = match s.data {
                Data::Slot { idx, cols } => (&*self.bufs[idx], cols, self.base[idx]),
                Data::Full { data, cols } => (data, cols, 0),
            };
            let via = match s.at {
                RowAt::Own => None,
                RowAt::SrcV => Some(self.src),
                RowAt::DstV => Some(self.dst),
            };
            (data, cols, first, via)
        });
        for (i, r) in rows.enumerate() {
            let xs = res.map(|(data, cols, first, via)| {
                let r = via.map_or(r, |v| v[r] as usize) - first;
                &data[r * cols..(r + 1) * cols]
            });
            body(&mut out[i * cols..(i + 1) * cols], xs);
        }
    }
}

/// A worker's slots while one op runs: read through [`Unit::rows`],
/// written only by [`Unit::pull`], which brings row-sized slots to the
/// row a reader is about to read.
struct Unit<'r, 'w, 'a> {
    ops: &'r [TileOp<'a>],
    g: &'a Graph,
    /// The slots of the ops before the one running (an op reads only
    /// earlier ops: the unit is in dependency order).
    bufs: &'r mut [&'w mut [f32]],
    base: &'r mut [usize],
    /// [`ExecPolicy::heavy_row_degree`].
    heavy: usize,
}

impl Unit<'_, '_, '_> {
    fn rows(&self) -> Rows<'_> {
        Rows::new(self.g, self.bufs, self.base)
    }

    /// Makes every row-sized operand of `ops[k]` hold the rows a consumer
    /// at `rows` reads — the run its reader takes next, at most
    /// `ops[k].strip` long: evaluates the producer over exactly those rows
    /// ([`exec_rows`]) unless the slot already starts there (consecutive
    /// edges of one destination group share `dst(e)`, and two operands of
    /// one reader share the rows).
    fn pull(&mut self, k: usize, rows: Range<usize>) {
        let ops = self.ops;
        for s in &ops[k].srcs {
            let Some(j) = s.slot() else { continue };
            let op = &ops[j];
            if op.size != SlotSize::Row {
                continue;
            }
            // Only own-row reads come in runs ([`compile`]'s strips).
            debug_assert!(s.at == RowAt::Own || rows.len() == 1);
            debug_assert!(rows.len() <= op.strip);
            let first = self.rows().at(s.at, rows.start);
            if self.base[j] == first {
                continue;
            }
            let need = first..first + rows.len();
            if op.pulls {
                self.pull(j, need.clone());
            }
            let (earlier, rest) = self.bufs.split_at_mut(j);
            let cx = Rows::new(self.g, earlier, self.base);
            exec_rows(op, &cx, need.clone(), &mut rest[0][..need.len() * op.cols]);
            self.base[j] = first;
        }
    }
}

/// The rows of `ops[k]`'s first operand, pulled on demand: what a
/// reduction ([`RowSource`]) reads edge by edge, in ascending order.
struct Pulled<'u, 'r, 'w, 'a> {
    unit: &'u mut Unit<'r, 'w, 'a>,
    k: usize,
    /// One past the tile's last edge.
    end: usize,
    /// The source vertices whose edges the reduction reads — a streamed
    /// gather's worker skips the others; `None`: every edge of the tile.
    owned: Option<Range<usize>>,
    /// The run of edges pulled last.
    held: Range<usize>,
}

impl<'u, 'r, 'w, 'a> Pulled<'u, 'r, 'w, 'a> {
    fn new(
        unit: &'u mut Unit<'r, 'w, 'a>,
        k: usize,
        end: usize,
        owned: Option<Range<usize>>,
    ) -> Self {
        Pulled {
            unit,
            k,
            end,
            owned,
            held: 0..0,
        }
    }
}

impl RowSource for Pulled<'_, '_, '_, '_> {
    #[inline(always)]
    fn row(&mut self, e: usize) -> &[f32] {
        let ops = self.unit.ops;
        let op = &ops[self.k];
        if op.pulls && !self.held.contains(&e) {
            // The edges after `e` the reduction reads next without a gap:
            // one pull evaluates the producer for all of them.
            let most = (e + op.strip).min(self.end);
            let run = match &self.owned {
                None => most,
                Some(owned) => {
                    let src = self.unit.g.src_slice();
                    (e + 1..most)
                        .find(|&r| !owned.contains(&(src[r] as usize)))
                        .unwrap_or(most)
                }
            };
            self.held = e..run;
            self.unit.pull(self.k, e..run);
        }
        self.unit.rows().row(op.srcs[0], e)
    }
}

/// Cuts destination-vertex tile boundaries so each tile covers at most
/// `tile_edges` rows in either space — edges and vertices (always at
/// least one vertex per tile, however many edges it has).
pub(crate) fn tile_bounds(indptr: &[usize], tile_edges: usize) -> Vec<usize> {
    let n = indptr.len() - 1;
    let budget = tile_edges.max(1);
    // A tile cut for its edges holds more than the budget together with
    // its successor, a tile cut for its vertices holds the budget of
    // them, which bounds the tile count: one allocation, whatever the
    // graph's size.
    let most = n.min(2 * indptr[n].div_ceil(budget) + n / budget + 1);
    let mut bounds = Vec::with_capacity(most + 1);
    bounds.push(0);
    let mut v = 0;
    while v < n {
        let (v0, e0) = (v, indptr[v]);
        v += 1;
        while v < n && v - v0 < budget && indptr[v + 1] - e0 <= tile_edges {
            v += 1;
        }
        bounds.push(v);
    }
    bounds
}

/// Mutable auxiliary sinks for one op in one tile (rows are relative to
/// the worker's first vertex).
enum StepAux<'a> {
    None,
    /// Fresh softmax: worker-chunk rows of the global max/denominator.
    SoftmaxFresh {
        maxes: &'a mut [f32],
        denom: &'a mut [f32],
        chunk_v0: usize,
    },
    /// Gather(Max): worker-chunk rows of the global argmax table.
    ArgMax {
        table: &'a mut [u32],
        chunk_v0: usize,
    },
}

/// The tiles one worker walks and the largest of them, `(vertices,
/// edges)`.
struct Part {
    tiles: Range<usize>,
    max_tile: (usize, usize),
}

/// One worker's rows of the tensors a unit writes, each keyed by the slot
/// (op index) that writes it.
#[derive(Default)]
struct WorkerSinks<'w> {
    /// `(slot, first row, rows)` of each boundary output, in op order.
    out: Vec<(usize, usize, &'w mut [f32])>,
    sm: Vec<(usize, &'w mut [f32], &'w mut [f32])>,
    am: Vec<(usize, &'w mut [u32])>,
}

/// Executes one lowered kernel over the graph, tile by tile.
///
/// `evict` (every session launch; `None` for the sharded driver's
/// global kernels, whose operands are staged copies it drops itself)
/// names the values whose last external reader is this kernel: the
/// interpreter removes each from `values` as soon as
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
            // Mirrors the op dispatch (`refexec::exec_op`) exactly: parameters store
            // heads as rows, so the per-head slice degenerates to heads=1.
            OpKind::SliceCols { start, end } => {
                crate::kernels::slice_cols(x, 1, din.feat, *start, *end)
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

    // Operand sources per step: same-segment members resolve through
    // their producer's slot, earlier-segment members to their (complete)
    // full tensors.
    let mut steps: Vec<StepPlan> = Vec::with_capacity(program.steps.len());
    for s in &program.steps {
        let node = ir.node(s.node);
        let mut srcs = Vec::with_capacity(node.inputs.len());
        for &i in &node.inputs {
            let src = if let Some(&pi) = prelude_idx.get(&i) {
                Src::Prelude(pi)
            } else if let Some(&si) = step_index.get(&i) {
                // (A full step shares a segment only with the chain
                // streamed into it.)
                if program.steps[si].segment == s.segment {
                    Src::Slot(si)
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
            recompute: s.recompute,
            srcs,
            dins: node.inputs.iter().map(|&i| ir.node(i).dim).collect(),
        });
    }

    // Mid-launch eviction schedule: each dying global's
    // last reading stage — stage 0 is the prelude pass above, stage
    // 1 + ordinal each segment.
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
        for (ord, seg) in program.segments().into_iter().enumerate() {
            for (sp, s) in steps.iter().zip(&program.steps) {
                if s.segment != seg || s.storage == Storage::Prelude {
                    continue;
                }
                for &src in &sp.srcs {
                    if let Src::Global(id) = src {
                        if dying.contains(&id) {
                            last_stage.insert(id, ord + 1);
                        }
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
    // theirs when their segment runs.
    let mut mat: Vec<Option<Tensor>> = vec![None; steps.len()];
    for (si, sp) in steps.iter().enumerate() {
        if matches!(sp.storage, Storage::Materialized | Storage::Interior)
            && program.steps[si].exec == StepExec::Tiled
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
    // (A recomputed softmax reads its stashed statistics as operands.)
    let mut fresh_softmax: Vec<(usize, Tensor, Tensor)> = Vec::new();
    let mut argmax_tables: Vec<(usize, Vec<u32>)> = Vec::new();
    for (si, sp) in steps.iter().enumerate() {
        match &ir.node(sp.node).kind {
            OpKind::EdgeSoftmax if !sp.recompute => {
                fresh_softmax.push((
                    si,
                    Tensor::full(&[n, sp.cols], f32::NEG_INFINITY),
                    Tensor::zeros(&[n, sp.cols]),
                ));
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
    // Worker → tile boundaries: split by tile count (tiles are already
    // edge-budgeted, so the split is edge-balanced to within a tile).
    let wt = chunk_bounds(num_tiles, threads);
    let wv: Vec<usize> = wt.iter().map(|&t| tiles[t]).collect();
    let we: Vec<usize> = wv.iter().map(|&v| indptr[v]).collect();
    // Tile-sized slots fit the largest tile a worker walks.
    let part = |ts: Range<usize>| Part {
        max_tile: ts.clone().fold((0, 0), |(tv, te), t| {
            let (v0, v1) = (tiles[t], tiles[t + 1]);
            (tv.max(v1 - v0), te.max(indptr[v1] - indptr[v0]))
        }),
        tiles: ts,
    };
    let tile_parts: Vec<Part> = wt.windows(2).map(|w| part(w[0]..w[1])).collect();

    // Execute segments in order: dense and parameter steps once over the
    // whole graph, tiled segments and streamed gathers tile by tile with
    // per-worker slots.
    let mut scratch_bytes = 0u64;
    let mut new_argmax_full: Vec<(usize, Vec<u32>)> = Vec::new();
    for (ord, seg) in program.segments().into_iter().enumerate() {
        let seg_steps: Vec<usize> = (0..steps.len())
            .filter(|&si| {
                program.steps[si].segment == seg && program.steps[si].storage != Storage::Prelude
            })
            .collect();
        // A tiled segment's full tensors come out of `mat` for chunked
        // writing (same-segment reads go through slots, never `mat`);
        // a full step's tensor does not exist yet.
        let mut seg_out: Vec<(usize, Tensor)> = Vec::new();
        for &si in &seg_steps {
            if let Some(t) = mat[si].take() {
                seg_out.push((si, t));
            }
        }
        // (The block scopes the shared reborrow of `values` so the stage
        // release below can take it mutably.)
        {
            let env = Env {
                ir,
                steps: &steps,
                mat: &mat,
                values: &*values,
                preludes: &preludes,
                aux_softmax,
                aux_argmax,
            };
            // A full step is its segment's last. A `BySrc` sum or mean is
            // the tile loop's own — the streamed gather, behind whatever
            // chain lowering moved into its segment, possibly none; any
            // other full step is alone there and runs whole.
            let full = seg_steps
                .last()
                .copied()
                .filter(|&si| program.steps[si].exec == StepExec::Full);
            let gather = full.filter(|&si| is_streamed_gather(&ir.node(steps[si].node).kind));
            match (full, gather) {
                // A dense or parameter step: one call into the op
                // library's dispatch. This is what makes lowering total:
                // any op the IR expresses either tiles or lands here.
                (Some(si), None) => {
                    let sp = &steps[si];
                    let node = ir.node(sp.node);
                    let inputs: Vec<&Tensor> = sp.srcs.iter().map(|&s| env.tensor(s)).collect();
                    let aux_in = match &node.kind {
                        OpKind::GatherMaxBwd { fwd } => {
                            let table =
                                aux_argmax.get(fwd).ok_or_else(|| ExecError::ValueNotLive {
                                    node: format!("argmax aux of node {fwd}"),
                                })?;
                            crate::refexec::AuxIn::Argmax(table)
                        }
                        _ => crate::refexec::AuxIn::None,
                    };
                    let (t, aux_out) =
                        crate::refexec::exec_op(policy, g, ir, node, &inputs, aux_in)?;
                    if let crate::refexec::AuxOut::Argmax(a) = aux_out {
                        new_argmax_full.push((si, a));
                    }
                    seg_out.push((si, t));
                }
                // A tiled segment over the workers' own tile runs — or a
                // streamed gather: its chain, then the gather as the
                // unit's last op, every worker walking *all* tiles and
                // accumulating the source rows it owns.
                _ => {
                    // A streamed gather's workers own source-vertex ranges
                    // of about as many out-edges each (every worker pays
                    // for the whole scan, so only owned rows divide) and
                    // each walk every tile.
                    let (mut owned, mut every_tile) = (Vec::new(), Vec::new());
                    if let Some(si) = gather {
                        let total = steps[si].cols;
                        seg_out.push((si, Tensor::zeros(&[n, total])));
                        let workers = plan_threads(policy, n, m * total);
                        owned = if workers < 2 || total == 0 {
                            vec![0, n]
                        } else {
                            edge_balanced_vertex_bounds(g.out_adj().indptr(), workers)
                        };
                        every_tile.extend(owned.windows(2).map(|_| part(0..num_tiles)));
                    }
                    let parts = if gather.is_some() {
                        &every_tile
                    } else {
                        &tile_parts
                    };
                    let ops = compile(&env, &seg_steps)?;
                    // Slot sizes are a pure function of the partition, so the
                    // scratch high-water mark (max over segments, sum over
                    // workers) is known before running — and never exceeds
                    // what lowering budgets for the unit's segment.
                    let held: u64 = parts
                        .iter()
                        .flat_map(|p| ops.iter().map(|op| 4 * op.slot_len(p.max_tile) as u64))
                        .sum();
                    debug_assert!(
                        held <= parts
                            .iter()
                            .map(|p| {
                                let (tv, te) = p.max_tile;
                                program.scratch_tile_bytes(seg, tv, te)
                            })
                            .sum::<u64>()
                    );
                    scratch_bytes = scratch_bytes.max(held);

                    let slot_of = |si: usize| {
                        ops.iter()
                            .position(|op| op.si == si)
                            .expect("a step with a sink compiles to an op")
                    };
                    let mut sinks: Vec<WorkerSinks<'_>> =
                        parts.iter().map(|_| WorkerSinks::default()).collect();
                    for (si, tensor) in &mut seg_out {
                        let sp = &steps[*si];
                        let bounds = match sp.space {
                            _ if gather.is_some() => &owned,
                            Space::Edge => &we,
                            _ => &wv,
                        };
                        for (w, chunk) in
                            split_rows(tensor.as_mut_slice(), sp.cols, bounds).enumerate()
                        {
                            sinks[w].out.push((slot_of(*si), bounds[w], chunk));
                        }
                    }
                    for (si, mx, dn) in &mut fresh_softmax {
                        if !seg_steps.contains(si) {
                            continue;
                        }
                        let cols = steps[*si].cols;
                        let mx_chunks = split_rows(mx.as_mut_slice(), cols, &wv);
                        let dn_chunks = split_rows(dn.as_mut_slice(), cols, &wv);
                        for (w, (mc, dc)) in mx_chunks.zip(dn_chunks).enumerate() {
                            sinks[w].sm.push((slot_of(*si), mc, dc));
                        }
                    }
                    for (si, table) in &mut argmax_tables {
                        if !seg_steps.contains(si) {
                            continue;
                        }
                        let cols = steps[*si].cols;
                        for (w, chunk) in split_rows(table, cols, &wv).enumerate() {
                            sinks[w].am.push((slot_of(*si), chunk));
                        }
                    }

                    // Run the unit. Each worker walks its tiles in order,
                    // reusing one slot per op.
                    let run_worker = |part: &Part, sinks: WorkerSinks<'_>| {
                        let WorkerSinks {
                            out,
                            mut sm,
                            mut am,
                        } = sinks;
                        // All slots are carved out of one buffer, off the
                        // pool when it is active on this thread (serial
                        // units run on the session thread); workers see an
                        // inactive pool and allocate.
                        let lens: usize = ops.iter().map(|op| op.slot_len(part.max_tile)).sum();
                        let mut arena = pool::take_work_f32(lens);
                        arena.resize(lens, 0.0);
                        let mut rest = &mut arena[..];
                        let mut out = out.into_iter();
                        let mut bufs: Vec<&mut [f32]> = Vec::with_capacity(ops.len());
                        // First row each slot holds.
                        let mut base = vec![usize::MAX; ops.len()];
                        for (k, op) in ops.iter().enumerate() {
                            if op.size == SlotSize::Sink {
                                // The worker's chunk of the full tensor is
                                // the slot: nothing is staged and copied.
                                let (slot, first, chunk) =
                                    out.next().expect("a sink per boundary op, in op order");
                                debug_assert_eq!(slot, k);
                                base[k] = first;
                                bufs.push(chunk);
                            } else {
                                let (slot, tail) = std::mem::take(&mut rest)
                                    .split_at_mut(op.slot_len(part.max_tile));
                                bufs.push(slot);
                                rest = tail;
                            }
                        }
                        let chunk_v0 = tiles[part.tiles.start];
                        // One row of the widest op: heavy-row chunk partials
                        // and softmax-backward group sums, shared across
                        // ops and tiles.
                        let mut scratch =
                            pool::take_work_f32(ops.iter().map(|op| op.cols).max().unwrap_or(0));
                        for t in part.tiles.clone() {
                            let (v0, v1) = (tiles[t], tiles[t + 1]);
                            let (e0, e1) = (indptr[v0], indptr[v1]);
                            for (k, op) in ops.iter().enumerate() {
                                let (rows, r0) = match op.space {
                                    Space::Edge => (e1 - e0, e0),
                                    _ => (v1 - v0, v0),
                                };
                                let (earlier, own) = bufs.split_at_mut(k);
                                let own = &mut *own[0];
                                let buf = match op.size {
                                    // Evaluated when a reader pulls it; a
                                    // row held over from the last tile
                                    // must not look current.
                                    SlotSize::Row => {
                                        base[k] = usize::MAX;
                                        continue;
                                    }
                                    SlotSize::Tile => {
                                        base[k] = r0;
                                        &mut own[..rows * op.cols]
                                    }
                                    // A streamed gather accumulates into
                                    // any source row the worker owns.
                                    SlotSize::Sink if gather.is_some() => own,
                                    SlotSize::Sink => {
                                        let at = (r0 - base[k]) * op.cols;
                                        &mut own[at..at + rows * op.cols]
                                    }
                                };
                                let aux = match op.kind {
                                    OpKind::EdgeSoftmax => {
                                        sm.iter_mut().find(|(i, _, _)| *i == k).map_or(
                                            StepAux::None,
                                            |(_, mc, dc)| StepAux::SoftmaxFresh {
                                                maxes: mc,
                                                denom: dc,
                                                chunk_v0,
                                            },
                                        )
                                    }
                                    OpKind::Gather {
                                        reduce: ReduceFn::Max,
                                        ..
                                    } => {
                                        let (_, table) = am
                                            .iter_mut()
                                            .find(|(i, _)| *i == k)
                                            .expect("gather-max has an argmax sink");
                                        StepAux::ArgMax { table, chunk_v0 }
                                    }
                                    _ => StepAux::None,
                                };
                                let mut unit = Unit {
                                    ops: &ops,
                                    g,
                                    bufs: earlier,
                                    base: &mut base,
                                    heavy: policy.heavy_row_degree,
                                };
                                exec_op(&mut unit, k, (v0, v1, e0, e1), buf, aux, &mut scratch);
                            }
                        }
                        // Recycle the per-worker buffers (no-op off the pool thread).
                        drop(bufs);
                        pool::put_work_f32(arena);
                        pool::put_work_f32(scratch);
                    };

                    if let [p] = &parts[..] {
                        run_worker(p, sinks.pop().expect("one sink set per worker"));
                    } else {
                        let wg = contain::WorkerGuard::new();
                        std::thread::scope(|scope| {
                            for (p, s) in parts.iter().zip(sinks) {
                                let run_worker = &run_worker;
                                let wg = &wg;
                                scope.spawn(move || wg.run(|| run_worker(p, s)));
                            }
                        });
                        wg.rethrow();
                    }
                }
            }
        }
        // Restore the segment's tensors for later segments to read.
        for (si, t) in seg_out {
            mat[si] = Some(t);
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

/// Executes `unit.ops[k]` over one tile into `buf`: its rows of the tile,
/// or — for a streamed gather — the source rows the worker owns. The ops
/// that reduce over whole edge groups (`Gather`, the fresh `EdgeSoftmax`,
/// `EdgeSoftmaxBwd`) live here, because only a tile owns whole
/// destination groups; everything else is per-row ([`exec_rows`]).
///
/// Every arm reproduces the corresponding kernel in [`crate::kernels`]
/// expression-for-expression and in the same iteration order, which is
/// what makes fused execution bit-identical to the node-by-node oracle.
fn exec_op(
    unit: &mut Unit<'_, '_, '_>,
    k: usize,
    (v0, v1, e0, e1): (usize, usize, usize, usize),
    buf: &mut [f32],
    aux: StepAux<'_>,
    scratch: &mut Vec<f32>,
) {
    let ops = unit.ops;
    let op = &ops[k];
    let total = op.cols;
    let adj = unit.g.in_adj();
    let heavy = unit.heavy;
    // A reduction starts from zero rows: a sink's tensor was allocated
    // zeroed and nothing else writes it, a tile slot holds the last tile.
    let zeroed = op.size == SlotSize::Sink;
    match (op.kind, aux) {
        // The streamed accumulate: `out[src(e)] += row(e)` over the
        // tile's edges in ascending order — `kernels::gather`'s serial
        // `BySrc` scan, one tile of it.
        (
            OpKind::Gather {
                reduce,
                group: EdgeGroup::BySrc,
            },
            _,
        ) => {
            let own0 = unit.base[k];
            let owned = own0..own0 + buf.len().checked_div(total).unwrap_or(0);
            let (src, out_adj) = (unit.g.src_slice(), unit.g.out_adj());
            let mut x = Pulled::new(unit, k, e1, Some(owned.clone()));
            for (e, &u) in (e0..).zip(&src[e0..e1]) {
                let u = u as usize;
                if !owned.contains(&u) {
                    continue;
                }
                let o = &mut buf[(u - own0) * total..(u - own0 + 1) * total];
                match reduce {
                    ReduceFn::Sum => rowops::add_assign(o, x.row(e)),
                    ReduceFn::Mean => rowops::axpy(o, 1.0 / out_adj.degree(u) as f32, x.row(e)),
                    ReduceFn::Max => unreachable!("streamed gathers are Sum/Mean"),
                }
            }
        }
        // Shared with the reference kernels so the heavy-row chunk
        // association is identical on both paths.
        (
            OpKind::Gather {
                reduce: ReduceFn::Sum,
                ..
            },
            _,
        ) => {
            let mut x = Pulled::new(unit, k, e1, None);
            for v in v0..v1 {
                let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                if !zeroed {
                    o.fill(0.0);
                }
                reduce_row_sum(o, adj.edge_ids(v), &mut x, heavy, scratch);
            }
        }
        (
            OpKind::Gather {
                reduce: ReduceFn::Mean,
                ..
            },
            _,
        ) => {
            let mut x = Pulled::new(unit, k, e1, None);
            for v in v0..v1 {
                let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                if !zeroed {
                    o.fill(0.0);
                }
                let deg = adj.degree(v);
                if deg == 0 {
                    continue;
                }
                let inv = 1.0 / deg as f32;
                reduce_row_mean(o, adj.edge_ids(v), inv, &mut x, heavy, scratch);
            }
        }
        (OpKind::Gather { .. }, StepAux::ArgMax { table, chunk_v0 }) => {
            let mut x = Pulled::new(unit, k, e1, None);
            for v in v0..v1 {
                let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                if !zeroed {
                    o.fill(0.0);
                }
                let ar = &mut table[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                ar.fill(NO_ARGMAX);
                let mut first = true;
                for &e in adj.edge_ids(v) {
                    let xr = x.row(e as usize);
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

        // The two ops that sweep a group more than once read tile-sized
        // operands only ([`compile`]): nothing to pull.
        (
            OpKind::EdgeSoftmax,
            StepAux::SoftmaxFresh {
                maxes,
                denom,
                chunk_v0,
            },
        ) => {
            debug_assert!(!op.pulls);
            let cx = unit.rows();
            let row = |e| cx.row(op.srcs[0], e);
            for v in v0..v1 {
                let ids = adj.edge_ids(v);
                if ids.is_empty() {
                    continue;
                }
                let mr = &mut maxes[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                for &e in ids {
                    rowops::max_assign(mr, row(e as usize));
                }
                // One `exp` per element: the denominator sweep leaves
                // `exp(x − max)` in the output row, the last sweep
                // divides it.
                let dr = &mut denom[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                for &e in ids {
                    let yr = &mut buf[(e as usize - e0) * total..(e as usize - e0 + 1) * total];
                    rowops::exp_sub_store_accum(dr, yr, row(e as usize), mr);
                }
                for &e in ids {
                    let yr = &mut buf[(e as usize - e0) * total..(e as usize - e0 + 1) * total];
                    rowops::div_assign(yr, dr);
                }
            }
        }

        (OpKind::EdgeSoftmaxBwd, _) => {
            debug_assert!(!op.pulls);
            let cx = unit.rows();
            let (x, y) = (op.srcs[0], op.srcs[1]);
            scratch.resize(total, 0.0);
            for v in v0..v1 {
                let ids = adj.edge_ids(v);
                scratch.fill(0.0);
                for &e in ids {
                    rowops::mul_add_accum(scratch, cx.row(x, e as usize), cx.row(y, e as usize));
                }
                for &e in ids {
                    let e = e as usize;
                    let or = &mut buf[(e - e0) * total..(e - e0 + 1) * total];
                    rowops::softmax_bwd_row(or, cx.row(x, e), cx.row(y, e), scratch);
                }
            }
        }

        _ => {
            let rows = if op.space == Space::Edge {
                e0..e1
            } else {
                v0..v1
            };
            if op.pulls {
                let mut r = rows.start;
                while r < rows.end {
                    let run = r..(r + op.strip).min(rows.end);
                    unit.pull(k, run.clone());
                    let out = (r - rows.start) * total..(run.end - rows.start) * total;
                    exec_rows(op, &unit.rows(), run.clone(), &mut buf[out]);
                    r = run.end;
                }
            } else {
                exec_rows(op, &unit.rows(), rows, buf);
            }
        }
    }
}

/// Executes a per-row op over `rows` of its own space into `buf` — the
/// single definition of these ops' row expressions: [`exec_op`] calls it
/// with a tile's rows (one at a time when an operand has to be pulled
/// first), [`Unit::pull`] with the one row a reader asks for.
///
/// Inlined into its callers: called per op *per edge* for row-sized
/// ops, the out-of-line call (frame set-up for every arm's locals) cost
/// ~10 ns a call — 40 ms of a `gat_train` step's streamed gather.
#[allow(clippy::too_many_lines)]
#[inline(always)]
fn exec_rows<'r>(op: &TileOp<'r>, cx: &Rows<'r>, rows: Range<usize>, buf: &mut [f32]) {
    let total = op.cols;
    let s = |i: usize| op.srcs[i];
    match op.kind {
        // A copy that could not be aliased away (a kernel boundary or an
        // interior spill): its operand already carries the endpoint.
        OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV) | OpKind::SetHeads { .. } => {
            cx.zip_rows([s(0)], rows, total, buf, |o, [x]| o.copy_from_slice(x));
        }
        OpKind::Scatter(ScatterFn::Bin(bf)) => {
            cx.zip_rows([s(0), s(1)], rows, total, buf, |o, [xu, yv]| {
                bf.zip_into(o, xu, yv)
            });
        }
        OpKind::Scatter(ScatterFn::ConcatUV) => {
            let heads = op.heads;
            for (i, e) in rows.enumerate() {
                let (xu, yv) = (cx.row(s(0), e), cx.row(s(1), e));
                let (fx, fy) = (xu.len() / heads, yv.len() / heads);
                let o = &mut buf[i * total..(i + 1) * total];
                for h in 0..heads {
                    let base = h * (fx + fy);
                    o[base..base + fx].copy_from_slice(&xu[h * fx..(h + 1) * fx]);
                    o[base + fx..base + fx + fy].copy_from_slice(&yv[h * fy..(h + 1) * fy]);
                }
            }
        }

        // Recompute from the session's stashed max/denominator, which
        // `compile` appended as `dst(e)`-pinned operands.
        OpKind::EdgeSoftmax => {
            cx.zip_rows([s(0), s(1), s(2)], rows, total, buf, |y, [x, m, d]| {
                rowops::softmax_from_stats(y, x, m, d);
            });
        }

        OpKind::GatherMeanBwd { .. } => {
            let adj = cx.g.in_adj();
            for (i, e) in rows.enumerate() {
                let inv = 1.0 / adj.degree(cx.dst[e] as usize) as f32;
                rowops::scale_into(&mut buf[i * total..(i + 1) * total], inv, cx.row(s(0), e));
            }
        }

        // Tiled only when the forward gather grouped ByDst (the tile owns
        // its destination groups whole); same expressions as
        // `kernels::gather_max_bwd`, with an explicit zero write because
        // slots are reused across tiles, not pre-zeroed.
        OpKind::GatherMaxBwd { .. } => {
            for (i, e) in rows.enumerate() {
                let v = cx.dst[e] as usize;
                let ar = &op.argmax[v * total..(v + 1) * total];
                let grv = cx.row(s(0), e);
                let o = &mut buf[i * total..(i + 1) * total];
                for c in 0..total {
                    o[c] = if ar[c] == e as u32 { grv[c] } else { 0.0 };
                }
            }
        }

        OpKind::Unary(f) => {
            cx.zip_rows([s(0)], rows, total, buf, |o, [x]| f.map_into(o, x));
        }
        OpKind::UnaryBwd(f) => {
            cx.zip_rows([s(0), s(1)], rows, total, buf, |o, [gr, x]| {
                f.bwd_into(o, gr, x)
            });
        }
        OpKind::Binary(f) => {
            let (da, db) = (op.dins[0], op.dins[1]);
            if da.feat == db.feat {
                cx.zip_rows([s(0), s(1)], rows, total, buf, |o, [a, b]| {
                    f.zip_into(o, a, b)
                });
            } else {
                for (i, r) in rows.enumerate() {
                    let o = &mut buf[i * total..(i + 1) * total];
                    binary_broadcast_row(o, *f, cx.row(s(0), r), da, cx.row(s(1), r), db);
                }
            }
        }

        OpKind::GaussianWeight => {
            let (p, mu, sg) = (s(0), s(1), s(2));
            for (i, e) in rows.enumerate() {
                let pr = cx.row(p, e);
                let or = &mut buf[i * total..(i + 1) * total];
                for (ki, ov) in or.iter_mut().enumerate() {
                    let (mr, sr) = (cx.row(mu, ki), cx.row(sg, ki));
                    let mut acc = 0.0;
                    for j in 0..pr.len() {
                        let d = (pr[j] - mr[j]) * sr[j];
                        acc += d * d;
                    }
                    *ov = (-0.5 * acc).exp();
                }
            }
        }

        OpKind::SliceCols { start, end } => {
            let (heads, feat) = (op.dins[0].heads, op.dins[0].feat);
            let w = end - start;
            cx.map_rows(s(0), rows, total, buf, |or, xr| {
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
            let w = end - start;
            cx.map_rows(s(0), rows, total, buf, |or, gr| {
                or.fill(0.0);
                for h in 0..op.heads {
                    or[h * tf + start..h * tf + end].copy_from_slice(&gr[h * w..(h + 1) * w]);
                }
            });
        }
        OpKind::HeadReduce(f) => {
            let (heads, feat) = (op.dins[0].heads, op.dins[0].feat);
            let scale = if *f == ReduceFn::Mean {
                1.0 / heads as f32
            } else {
                1.0
            };
            cx.map_rows(s(0), rows, feat, buf, |or, xr| {
                or.fill(0.0);
                for h in 0..heads {
                    for c in 0..feat {
                        or[c] += xr[h * feat + c] * scale;
                    }
                }
            });
        }
        OpKind::HeadBroadcast { heads } => {
            cx.map_rows(s(0), rows, total, buf, |or, xr| {
                let feat = xr.len();
                for h in 0..*heads {
                    or[h * feat..(h + 1) * feat].copy_from_slice(xr);
                }
            });
        }
        OpKind::FeatSum => {
            let (heads, feat) = (op.dins[0].heads, op.dins[0].feat);
            cx.map_rows(s(0), rows, heads, buf, |or, xr| {
                for h in 0..heads {
                    or[h] = xr[h * feat..(h + 1) * feat].iter().sum();
                }
            });
        }
        OpKind::FeatBroadcast { feat } => {
            cx.map_rows(s(0), rows, total, buf, |or, xr| {
                for h in 0..op.heads {
                    for c in 0..*feat {
                        or[h * feat + c] = xr[h];
                    }
                }
            });
        }

        other => unreachable!("op {other:?} survived lowering but cannot tile"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::{BinaryFn, UnaryFn};
    use gnnopt_graph::EdgeList;

    /// A tile-wide elementwise step (every operand at `Own`, so one
    /// `rowops` call over `rows × cols`) writes the bits of its row-by-row
    /// form. The row-by-row form is the same op with its operands pinned
    /// at `dst(e)` on a path graph whose edge `e` is `e + 1 → e` — so
    /// `dst(e) == e` and the per-row path reads the same rows. Slot
    /// operands are covered too.
    #[test]
    fn tile_wide_elementwise_steps_equal_their_row_by_row_form() {
        let n = 37usize;
        let path: Vec<(u32, u32)> = (0..n as u32).map(|v| (v + 1, v)).collect();
        let g = Graph::from_edge_list(&EdgeList::from_pairs(n + 1, &path));
        assert!((0..n).all(|e| g.dst(e) == e));
        let kinds = [
            OpKind::Unary(UnaryFn::LeakyRelu(0.2)),
            OpKind::UnaryBwd(UnaryFn::Tanh),
            OpKind::Binary(BinaryFn::Mul),
        ];
        for cols in [1usize, 2, 64] {
            let fill = |k: f32| Tensor::from_fn(&[n, cols], |i| (i as f32 * k - 3.0).sin() * 4.0);
            let (a, b) = (fill(0.37), fill(1.13));
            let (r0, r1) = (5usize, n - 4);
            // Slot 0 holds `b`'s rows of the tile, as a same-segment
            // producer would have left them.
            let mut held = b.as_slice()[r0 * cols..r1 * cols].to_vec();
            let bufs = [&mut held[..]];
            let base = [r0];
            let cx = Rows::new(&g, &bufs, &base);
            let slot = Operand {
                data: Data::Slot { idx: 0, cols },
                at: RowAt::Own,
            };
            let dins = [Dim::flat(cols); 2];
            for kind in &kinds {
                let run = |srcs: Vec<Operand<'_>>| {
                    let op = TileOp {
                        si: 0,
                        kind,
                        space: Space::Edge,
                        cols,
                        heads: 1,
                        srcs,
                        dins: &dins,
                        size: SlotSize::Tile,
                        pulls: false,
                        strip: 1,
                        argmax: &[],
                    };
                    let mut out = vec![f32::NAN; (r1 - r0) * cols];
                    exec_rows(&op, &cx, r0..r1, &mut out);
                    out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                };
                let (fa, fb) = (Operand::full(&a), Operand::full(&b));
                let by_row = run(vec![fa.pinned(RowAt::DstV), fb.pinned(RowAt::DstV)]);
                assert_eq!(run(vec![fa, fb]), by_row, "{kind:?} cols {cols}: full");
                assert_eq!(run(vec![fa, slot]), by_row, "{kind:?} cols {cols}: slot");
            }
        }
    }

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
                assert!(
                    w[1] - w[0] <= budget.max(1),
                    "budget {budget}: tile {w:?} has too many vertices"
                );
            }
            // The capacity bound the function allocates by.
            let rows = budget.max(1);
            assert!(b.len() - 1 <= 2 * 10usize.div_ceil(rows) + 6 / rows + 1);
        }
    }

    #[test]
    fn tile_bounds_handle_empty_and_edgeless_graphs() {
        assert_eq!(tile_bounds(&[0], 8), vec![0], "no vertices → no tiles");
        // 3 vertices, 0 edges: one tile covering all of them — unless
        // the budget caps its vertices first.
        assert_eq!(tile_bounds(&[0, 0, 0, 0], 8), vec![0, 3]);
        assert_eq!(tile_bounds(&[0, 0, 0, 0], 2), vec![0, 2, 3]);
    }

    #[test]
    fn tile_bounds_isolate_a_vertex_over_budget() {
        // Vertex 1 has 7 in-edges, more than the budget of 4: it still
        // gets one intact tile.
        let indptr = [0usize, 1, 8, 9];
        let b = tile_bounds(&indptr, 4);
        assert_eq!(b, vec![0, 1, 2, 3]);
        // A low-degree tail (one edge among nine vertices) is cut by its
        // vertices: a vertex-space tile slot holds no more rows than an
        // edge-space one.
        let tail = [0usize, 7, 7, 7, 7, 8, 8, 8, 8, 8];
        assert_eq!(tile_bounds(&tail, 4), vec![0, 1, 5, 9]);
    }

    // The streamed `BySrc` gathers' worker split.

    #[test]
    fn edge_balanced_bounds_flatten_a_hub() {
        // Vertex 0 holds 70 of the 77 edges. A vertex-count split over 2
        // workers gives worker 0 the hub *and* three more vertices; the
        // edge-balanced split hands everything but the hub to worker 1.
        let indptr = [0usize, 70, 71, 72, 73, 74, 75, 76, 77];
        assert_eq!(edge_balanced_vertex_bounds(&indptr, 2), vec![0, 1, 8]);
        // The bounds always cover every vertex strictly monotonically.
        for threads in 1..=8 {
            let b = edge_balanced_vertex_bounds(&indptr, threads);
            assert_eq!(*b.first().unwrap(), 0);
            assert_eq!(*b.last().unwrap(), 8);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        }
    }

    #[test]
    fn edge_balanced_bounds_degenerate_inputs() {
        // Vertices but zero edges: falls back to the vertex-count split.
        let b = edge_balanced_vertex_bounds(&[0, 0, 0, 0], 2);
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 3);
        // More workers than vertices clamps to one vertex per worker.
        assert_eq!(edge_balanced_vertex_bounds(&[0, 2, 4], 16), vec![0, 1, 2]);
    }
}
