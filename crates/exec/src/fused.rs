//! Tiled execution of lowered [`KernelProgram`]s: fusion realized on the
//! host, not just in the analytical model.
//!
//! This is the session's only way to run a kernel, and the tile driver
//! below the only engine of every graph and row-local op — alone in its
//! kernel or fused, a `BySrc` gather as a streamed unit; what a tile
//! cannot own and is neither (a `StepExec::Full` step: GEMMs, cross-row
//! parameter reductions, parameter-space steps) is one call into the op
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
//! # Compiled once, launched many times
//!
//! Nothing on the per-row path looks at the IR, the step table or a hash
//! map, and nothing on the launch path allocates. What depends only on
//! the IR — each segment's [`TileOp`]s with their operands resolved
//! ([`Operand`]: the rows of a complete tensor — value store, staged
//! view, earlier segment — or of an earlier op's slot, read at the
//! consumer's own row or at an edge endpoint, [`RowAt`]), copy aliasing,
//! slot sizes and strips, and the stage table a launch allocates and
//! releases by — lowering compiled beside the program
//! (`gnnopt_core::lower`, "The stage table and compiled units"). What
//! depends on the graph and the policy — tile bounds, which worker owns
//! which tiles or source rows, the scratch each holds — [`prepare`] fixes
//! once per session ([`CompiledKernel`]). A [`CompiledKernel::launch`]
//! only *binds*: it looks up the tensors each unit's operands name (a
//! typed [`ExecError::ValueNotLive`] before any worker runs), allocates
//! the sinks of a segment when the segment starts, cuts them and the
//! workers' slabs into slots, walks the tiles, and frees each dying input
//! after the last stage that reads it. The tables that hold those borrows
//! for the length of a launch keep their allocations between launches
//! ([`Frame`]). What falls out of the op representation:
//!
//! # Slot sizes
//!
//! Every op has a slot, of one of three sizes — or is folded and has none
//! ([`SlotSize`], chosen by lowering):
//!
//! * **Tile-sized** — the tile's rows of the op's space, evaluated when
//!   the tile loop reaches the op, before its readers run: the input of
//!   a reduction that sweeps each group more than once (an
//!   `EdgeSoftmax`), the input of an elementwise op that covers the
//!   tile in one call, an elementwise op read through an edge endpoint
//!   (its reader would be held to one row a pull), every value with two
//!   readers.
//! * **Row-sized** — a scratch-class per-row op whose single reader in
//!   the unit takes each row once: a `Gather`, the streamed accumulate,
//!   a per-row op that runs row by row (a pinned or head-broadcast
//!   operand, `FeatSum`) or is itself row-sized. It is not evaluated over
//!   the tile at all: its reader *pulls* it ([`Slots::pull`]) over the run
//!   of rows it is about to read, the op runs through [`exec_rows`]
//!   there, and `base[slot]` remembers where the run starts. The slot
//!   holds a short *strip* of consecutive rows (at most `STRIP_ROWS`,
//!   4 KB) — one row where the read goes through an edge endpoint — so
//!   the `E_tile × d` rows of an edge chain are never written to a ~1 MB
//!   slot and read back. This generalizes "pure copies hold no slot" to
//!   "single-reader rows hold no tile slot".
//! * **Folded (no slot)** — a row-sized `binary_Mul` under a `Gather`
//!   `Sum`/`Mean` or a `FeatSum`: the reader adds `x·s` per edge from the
//!   product's operands ([`RowSource::add_into`]), so the row is never
//!   written — the paper's "edge-centric producer runs inside the
//!   vertex-centric reduction", down to the register. Its random `src(e)`
//!   operand row is hinted toward L1 `AHEAD` edges early. A by-destination
//!   `Sum` whose equal-width product reads both operands at its own rows,
//!   pulling nothing (the softmax backward's `Σ g·y`), sweeps each group
//!   as one block of rows instead of edge by edge, and so does a `Sum` of
//!   rows neither folded nor pulled (a `BySrc` one reads them in place).
//! * **No slot (sink)** — a `Materialized`/`Interior` op computes into
//!   its rows of the full tensor: the worker's chunk of the tensor is its
//!   slot, read back by same-segment readers, so nothing is staged and
//!   copied.
//!
//! # Streamed segments
//!
//! A segment holding `BySrc` gathers is a streamed unit: lowering moved
//! the tiled segment that feeds them into their segment instead of
//! spilling an `O(|E|·d)` interior tensor (`gnnopt_core::lower`,
//! "Streamed segments" — the decision is the program's, nothing here
//! re-derives it); a gather with nothing streamed into it reads a
//! complete tensor. Its steps get slots by the rule above, and each
//! gather accumulates `out[src(e)] += row(e)` over the tile's edges in
//! ascending order, folding a last product — or, a max, folds `row(e)`
//! in first-wins beside the argmax table. Workers own source-vertex
//! ranges there (of about as many out-edges each) — in a shard session,
//! the range ∩ the vertices the shard owns ([`Owns`], the one predicate
//! by-destination gathers skip their non-owned groups by too) — each
//! walks every tile and skips the edges it does not own: every source
//! row accumulates its edges in ascending id, the order of
//! [`crate::kernels::gather`]'s serial `BySrc` scan, so results stay
//! bit-identical to the materializing path for any thread count. A pull
//! covers the run of consecutive edges the worker owns (sources ascend
//! within a destination group), which divides the row-sized members'
//! work by the worker count; tile-sized members (a vertex-space one, a
//! softmax, GAT's head-dot and softmax backward) are evaluated by every
//! worker. The unit's other sinks — a by-destination sum, a boundary
//! value — are written by runs of tiles, each tile's rows by the worker
//! that owns the tile ([`Part::owned`]); a sink the unit's own ops read
//! (`SlotSize::Both`) is evaluated by every worker into its tile slot,
//! by the owner into the sink's rows instead.
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
//! [`gnnopt_tensor::rowops`], and aliasing, tile-wide execution, a
//! row-sized slot or a staged strip ([`Rows::zip_rows`]: narrow rows
//! read through an edge endpoint, copied to lie consecutively) only
//! change *where* an expression reads and writes and how many rows one
//! call covers — so results are **bit-identical** to the node-by-node
//! oracle for any tile budget and any thread count.
//!
//! # Parallelism and scratch
//!
//! Tiles are distributed over `std::thread::scope` workers in contiguous
//! runs, so each worker writes disjoint contiguous row ranges of the
//! materialized outputs and auxiliaries — no atomics. Every worker's
//! tile- and row-sized slots are carved out of one slab, the tile-sized
//! ones fitting its largest tile, and reused across its tiles; what is
//! held (aliased copies and sinks hold nothing) is known at [`prepare`]
//! and reported as `RunStats::scratch_bytes`. The slabs are the launch's
//! *working buffers*: the launching thread takes one per worker from the
//! session pool's working list (`gnnopt_tensor::pool::take_work_f32`),
//! which the memory plan does not cover, and workers allocate nothing —
//! at more than one thread a warmed step's only heap traffic is the
//! spawning of the workers themselves.

use crate::kernels::{
    self, binary_broadcast_row, chunk_bounds, edge_balanced_vertex_bounds, gather_row, group_adj,
    plan_threads, split_rows, RowSource, NO_ARGMAX,
};
use crate::refexec;
use crate::{contain, ExecError, Result};
use gnnopt_core::lower::{
    self, Data, FullSource, KernelProgram, RowAt, SlotSize, TileOp, UnitKind,
};
use gnnopt_core::{
    Dim, EdgeGroup, ExecPolicy, IrGraph, NodeId, OpKind, ReduceFn, ScatterFn, Space,
};
use gnnopt_graph::Graph;
use gnnopt_tensor::{pool, rowops, Tensor};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The stores a launch reads its operands from: a session's own, or the
/// sharded driver's for its global kernels.
#[derive(Debug, Default)]
pub(crate) struct Store {
    /// Every live full tensor, by the node that produced it.
    pub values: HashMap<NodeId, Tensor>,
    /// Gather-max argmax tables of the forward run.
    pub aux_argmax: HashMap<NodeId, Vec<u32>>,
}

/// A bound operand: lowering's [`Operand`] with the rows of the complete
/// tensor it names in the name's place.
#[derive(Debug, Clone, Copy)]
struct Src<'a> {
    data: SrcRows<'a>,
    at: RowAt,
}

#[derive(Debug, Clone, Copy)]
enum SrcRows<'a> {
    /// The slot of an earlier op of the unit (its index in the op list).
    Slot { idx: usize, cols: usize },
    /// The rows of a complete full tensor.
    Full { data: &'a [f32], cols: usize },
}

impl Src<'_> {
    /// Elements of one row the operand reads.
    fn cols(&self) -> usize {
        match self.data {
            SrcRows::Slot { cols, .. } | SrcRows::Full { cols, .. } => cols,
        }
    }
}

/// Operands a tile op has at most (`GaussianWeight`); [`prepare`]
/// checks it.
const MAX_SRCS: usize = 3;

/// What a launch binds of one op: its operands (padded with empty
/// tensors) and, for a `GatherMaxBwd`, the forward gather's complete
/// argmax table.
#[derive(Debug, Clone, Copy)]
struct OpBound<'a> {
    srcs: [Src<'a>; MAX_SRCS],
    argmax: &'a [u32],
}

/// An empty vector with `v`'s allocation, whatever lifetime `v`'s
/// elements borrowed for: how the tables a launch fills with borrows of
/// its tensors outlive the launch in [`Frame`]. (`A` and `B` differ in
/// lifetime only, so the standard library collects in place; were it ever
/// not to, a launch would allocate — which `tests/steady_state_alloc.rs`
/// holds at zero — and nothing else would change.)
fn recycle<A, B>(mut v: Vec<A>) -> Vec<B> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

/// What a launch produced, and the tables it binds tensors through —
/// owned by whoever launches (a session, the sharded driver) so that the
/// allocations are made once, by the cold step.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// Per step of the program launched last, the full tensor it
    /// produced: boundary values *and* interior spills. The caller takes
    /// them; a session retires the spills as soon as the kernel finishes
    /// (death lists for ordinary members, the explicit recompute drop for
    /// spilled recompute values), so they only count toward the peak
    /// while they are genuinely alive.
    pub mat: Vec<Option<Tensor>>,
    /// Freshly computed gather-max argmax tables `(step, table)`, on their
    /// way to the aux store.
    argmax: Vec<(usize, Vec<u32>)>,
    /// The running unit's sinks `(op, tensor)`, out of `mat` while the
    /// workers write their chunks.
    outs: Vec<(usize, Tensor)>,
    /// The views the running unit stages whole (`lower::Unit::views`).
    views: Vec<Tensor>,
    /// One slab of slots per worker, and per worker and op the first row
    /// its slot holds.
    slabs: Vec<Vec<f32>>,
    base: Vec<usize>,
    // Launch-lifetime borrows ([`recycle`]): what the unit's ops bind,
    // per worker its slots and argmax sinks, a dense call's inputs.
    bound: Vec<OpBound<'static>>,
    slots: Vec<&'static mut [f32]>,
    argmax_sinks: Vec<&'static mut [u32]>,
    /// Per worker and op, the chunk of a [`SlotSize::Both`] op's sink.
    chunks: Vec<&'static mut [f32]>,
    inputs: Vec<&'static Tensor>,
}

/// The tiles one worker walks, the largest of them, `(vertices,
/// edges)`, and those whose rows of the unit's sinks it writes (but a
/// streamed unit's `BySrc` gathers').
#[derive(Debug)]
struct Part {
    tiles: Range<usize>,
    max_tile: (usize, usize),
    owned: Range<usize>,
}

/// The graph-dependent half of one [`lower::Unit`]: who runs what.
#[derive(Debug, Default)]
struct UnitPlan {
    /// One per worker; empty for a dense call.
    parts: Vec<Part>,
    /// Row bounds of the workers' chunks of a vertex-space sink, of an
    /// edge-space one, and of a streamed unit's `BySrc` gathers: the
    /// source ranges the workers own.
    vertex: Vec<usize>,
    edge: Vec<usize>,
    sources: Vec<usize>,
}

impl UnitPlan {
    /// The row bounds of the workers' chunks of `op`'s sink and argmax.
    fn bounds(&self, op: &TileOp) -> &[usize] {
        match op.space {
            _ if lower::is_streamed_gather(&op.kind) => &self.sources,
            Space::Edge => &self.edge,
            _ => &self.vertex,
        }
    }
}

/// A kernel ready to launch: its program's units (`gnnopt_core::lower`)
/// with the graph- and policy-dependent half fixed — owned and
/// index-addressed, no tensor borrowed. Built once per session by
/// [`prepare`].
#[derive(Debug)]
pub(crate) struct CompiledKernel {
    policy: ExecPolicy,
    tiles: Arc<[usize]>,
    units: Vec<UnitPlan>,
    /// `(stage, value)`: the dying inputs, each freed after the last
    /// stage that reads it.
    releases: Vec<(usize, NodeId)>,
    /// A shard session's owned vertices (shared by its kernels, like
    /// `tiles`): the groups its vertex reductions reduce ([`Owns`]).
    shard: Option<Arc<[bool]>>,
    /// High-water mark of slot bytes across workers (max over units).
    pub scratch_bytes: u64,
}

fn is_gather_max(op: &TileOp) -> bool {
    matches!(
        op.kind,
        OpKind::Gather {
            reduce: ReduceFn::Max,
            ..
        }
    )
}

/// Fixes everything about launching `program` on `g` under `policy` that
/// no tensor decides: the worker partition of every unit (over `tiles`,
/// [`tile_bounds`] of the graph — shared by the session's kernels), the
/// scratch it holds, and when each of `dying` — the values whose last
/// external reader is this kernel — is freed: as soon as its last reading
/// stage completes, so the pool can recycle its buffer into the launch's
/// own later materializations. (The sharded driver's global kernels pass
/// none: their operands are staged copies it drops itself.) `shard` is a
/// shard session's owned-vertex set, `None` everywhere else.
pub(crate) fn prepare(
    program: &KernelProgram,
    g: &Graph,
    policy: &ExecPolicy,
    tiles: &Arc<[usize]>,
    shard: Option<&Arc<[bool]>>,
    dying: &[NodeId],
) -> CompiledKernel {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let indptr = g.in_adj().indptr();
    let num_tiles = tiles.len() - 1;
    // Tile-sized slots fit the largest tile a worker walks.
    let part = |ts: Range<usize>, owned| Part {
        max_tile: ts.clone().fold((0, 0), |(tv, te), t| {
            let (v0, v1) = (tiles[t], tiles[t + 1]);
            (tv.max(v1 - v0), te.max(indptr[v1] - indptr[v0]))
        }),
        tiles: ts,
        owned,
    };
    let rows = |space| match space {
        Space::Edge => m,
        Space::Vertex => n,
        Space::Param => 0,
    };
    // Tile units share one worker → tile split: by tile count (tiles are
    // already edge-budgeted, so it is edge-balanced to within a tile).
    let work: usize = program.steps.iter().map(|s| rows(s.space) * s.cols).sum();
    let threads = if work < policy.parallel_threshold {
        1
    } else {
        policy.threads.clamp(1, num_tiles.max(1))
    };
    let wt = chunk_bounds(num_tiles, threads);
    let (mut units, mut scratch_bytes) = (Vec::with_capacity(program.units.len()), 0);
    for unit in &program.units {
        let mut up = UnitPlan::default();
        let tiled = unit.kind != UnitKind::Dense;
        assert!(
            !tiled || unit.ops.iter().all(|op| op.srcs.len() <= MAX_SRCS),
            "a tile op with more than {MAX_SRCS} operands"
        );
        if unit.kind == UnitKind::Tile {
            up.parts = wt
                .windows(2)
                .map(|w| part(w[0]..w[1], w[0]..w[1]))
                .collect();
            up.vertex = wt.iter().map(|&t| tiles[t]).collect();
            up.edge = up.vertex.iter().map(|&v| indptr[v]).collect();
        } else if tiled {
            // A streamed unit's workers own source-vertex ranges of about
            // as many out-edges each (every worker pays for the whole
            // scan, so only owned rows divide) and each walk every tile;
            // its other sinks' rows they write by runs of tiles.
            let by_src = unit
                .ops
                .iter()
                .filter(|op| lower::is_streamed_gather(&op.kind));
            let total: usize = by_src.map(|gather| gather.cols).sum();
            let workers = plan_threads(policy, n, m * total);
            up.sources = if workers < 2 || total == 0 {
                vec![0, n]
            } else {
                edge_balanced_vertex_bounds(g.out_adj().indptr(), workers)
            };
            let mut owned = chunk_bounds(num_tiles, up.sources.len() - 1);
            owned.resize(up.sources.len(), num_tiles);
            let parts = owned.windows(2).map(|w| part(0..num_tiles, w[0]..w[1]));
            up.parts = parts.collect();
            up.vertex = owned.iter().map(|&t| tiles[t]).collect();
            up.edge = up.vertex.iter().map(|&v| indptr[v]).collect();
        }
        // Slot sizes are a pure function of the partition, so the scratch
        // high-water mark (max over units, sum over workers) is known now.
        let slabs = up.parts.iter().map(|p| unit.slab_len(p.max_tile) as u64);
        scratch_bytes = scratch_bytes.max(4 * slabs.sum::<u64>());
        units.push(up);
    }
    let dies = |&&(id, _): &&(NodeId, usize)| dying.contains(&id);
    let releases = program.inputs.iter().filter(dies);
    CompiledKernel {
        policy: *policy,
        tiles: Arc::clone(tiles),
        shard: shard.cloned(),
        scratch_bytes,
        releases: releases.map(|&(id, at)| (at, id)).collect(),
        units,
    }
}

/// What every op execution of one unit launch shares: the unit's ops,
/// what each of them binds, and the graph with its endpoint arrays.
struct Bound<'a> {
    ops: &'a [TileOp],
    bound: &'a [OpBound<'a>],
    g: &'a Graph,
    src: &'a [u32],
    dst: &'a [u32],
    /// [`CompiledKernel::shard`].
    shard: Option<&'a [bool]>,
}

/// The one ownership predicate of a vertex reduction: it reduces the
/// groups of the vertices in `range` (a streamed gather's worker: its
/// source range) that the shard session owns (`shard`, when it is one),
/// reading an edge's group through `key` — `src` by source, `dst` by
/// destination. The groups it skips are the rows the sharding classifier
/// already holds never valid on that shard (`View::Reduce` clears the
/// halo): a later exchange overwrites them or nothing reads them.
#[derive(Clone)]
struct Owns<'a> {
    key: &'a [u32],
    range: Range<usize>,
    shard: Option<&'a [bool]>,
}

impl Owns<'_> {
    #[inline(always)]
    fn group(&self, v: usize) -> bool {
        self.range.contains(&v) && self.shard.is_none_or(|s| s[v])
    }

    #[inline(always)]
    fn edge(&self, e: usize) -> bool {
        self.group(self.key[e] as usize)
    }
}

/// Edges ahead of the one reduced whose random rows — a fold's operand at
/// `src(e)`, the streamed accumulate's `out[src(e)]` — are hinted toward
/// L1 ([`rowops::prefetch`]): 32 64-float rows is 8 KB in flight.
const AHEAD: usize = 32;

/// A folded product ([`SlotSize::Fold`]) as its reader evaluates it: `x`
/// the wider operand (IEEE products commute), `feat` features a head.
#[derive(Debug, Clone, Copy)]
struct Fold<'a> {
    x: Src<'a>,
    s: Src<'a>,
    feat: usize,
}

impl<'a> Bound<'a> {
    /// The folded product `x` reads, if it reads one.
    fn fold(&self, x: Src<'a>) -> Option<Fold<'a>> {
        let SrcRows::Slot { idx, .. } = x.data else {
            return None;
        };
        let op = &self.ops[idx];
        if op.size != SlotSize::Fold {
            return None;
        }
        let ([a, b, _], [fa, fb]) = (self.bound[idx].srcs, [0, 1].map(|i| op.dins[i].feat));
        let (x, s, feat) = if fb > fa { (b, a, fb) } else { (a, b, fa) };
        Some(Fold { x, s, feat })
    }
}

/// Rows of a narrow op one call covers when an operand is read through an
/// edge endpoint ([`Rows::zip_rows`]), and where such operands' rows are
/// copied to lie consecutively: a stage per operand, on each worker's
/// stack, written before read — no launch plans, allocates or clears it.
const STAGE_ROWS: usize = 32;
const STAGE_LEN: usize = STAGE_ROWS * (rowops::NARROW - 1);
type Stage = RefCell<[[f32; STAGE_LEN]; MAX_SRCS]>;

/// Read access to the rows one op execution sees: the graph's endpoint
/// arrays plus the unit's ops (a fold's operands) and earlier slots.
struct Rows<'r> {
    g: &'r Graph,
    src: &'r [u32],
    dst: &'r [u32],
    unit: &'r Bound<'r>,
    bufs: &'r [&'r mut [f32]],
    /// First row each slot currently holds: the tile's first row, the
    /// one row of a row-sized slot, the first row of a sink's chunk.
    base: &'r [usize],
    stage: &'r Stage,
}

impl<'r> Rows<'r> {
    fn new(
        cx: &'r Bound<'r>,
        bufs: &'r [&'r mut [f32]],
        base: &'r [usize],
        stage: &'r Stage,
    ) -> Self {
        Rows {
            g: cx.g,
            src: cx.src,
            dst: cx.dst,
            unit: cx,
            bufs,
            base,
            stage,
        }
    }

    /// The row a consumer at row `r` reads of an operand addressed `at`.
    #[inline(always)]
    fn at(&self, at: RowAt, r: usize) -> usize {
        match at {
            RowAt::Own => r,
            RowAt::SrcV => self.src[r] as usize,
            RowAt::DstV => self.dst[r] as usize,
            RowAt::Whole => 0,
        }
    }

    /// The operand's row for a consumer at row `r`.
    #[inline(always)]
    fn row(&self, o: Src<'r>, r: usize) -> &'r [f32] {
        self.rows(o, r, 1)
    }

    /// A folded product's operand rows for a consumer at row `r`, a
    /// complete tensor's at `src(e)` — a random one — hinted [`AHEAD`] on.
    #[inline(always)]
    fn fold_rows(&self, f: Fold<'r>, r: usize) -> (&'r [f32], &'r [f32]) {
        for o in [f.x, f.s] {
            if let (RowAt::SrcV, SrcRows::Full { data, cols }) = (o.at, o.data) {
                if let Some(&u) = self.src.get(r + AHEAD) {
                    rowops::prefetch(&data[u as usize * cols..(u as usize + 1) * cols]);
                }
            }
        }
        (self.row(f.x, r), self.row(f.s, r))
    }

    /// The operand's `n` rows for a consumer at rows `r..r + n` (more
    /// than one only when the operand is read at the consumer's own row).
    #[inline(always)]
    fn rows(&self, o: Src<'r>, r: usize, n: usize) -> &'r [f32] {
        let r = self.at(o.at, r);
        match o.data {
            SrcRows::Slot { idx, cols } => {
                let off = (r - self.base[idx]) * cols;
                &self.bufs[idx][off..off + n * cols]
            }
            SrcRows::Full { data, cols } => &data[r * cols..(r + n) * cols],
        }
    }

    /// Runs `body(out_row, x_row)` for every row of `rows`, `width`
    /// output columns each (the ops that are per-row but not elementwise).
    #[inline(always)]
    fn map_rows(
        &self,
        x: Src<'r>,
        rows: Range<usize>,
        width: usize,
        out: &mut [f32],
        body: impl Fn(&mut [f32], &[f32]),
    ) {
        for (i, r) in rows.enumerate() {
            body(&mut out[i * width..(i + 1) * width], self.row(x, r));
        }
    }

    /// Runs `body(out, operands)` over consecutive pieces of `rows`, each
    /// with its rows of `out` and of every operand contiguous:
    ///
    /// * every operand read at the op's own row: **one** piece, all
    ///   `rows × cols` elements, read in place;
    /// * an operand read at an edge endpoint, rows narrower than
    ///   [`rowops::NARROW`]: strips of [`STAGE_ROWS`] rows, such operands'
    ///   rows copied into consecutive rows of their stages
    ///   ([`rowops::gather_rows`]) — reached row by row, through operand
    ///   resolution, function-table dispatch and a dynamic-length loop,
    ///   `gat_train`'s 2-float `scatter_Bin` took 12 ns an edge; a strip
    ///   pays those once, 4 ns;
    /// * wide rows: a row a piece, read in place — a 64-float row
    ///   amortizes its own call.
    ///
    /// An elementwise body writes the same bits in every form; a group
    /// sweep ([`exec_op`]) takes the pieces in ascending order.
    #[inline(always)]
    fn zip_rows<const N: usize>(
        &self,
        srcs: [Src<'r>; N],
        rows: Range<usize>,
        cols: usize,
        out: &mut [f32],
        mut body: impl FnMut(&mut [f32], [&[f32]; N]),
    ) {
        if srcs.iter().all(|s| s.at == RowAt::Own) {
            let xs = srcs.map(|s| self.rows(s, rows.start, rows.len()));
            return body(&mut out[..rows.len() * cols], xs);
        }
        // Each operand's rows, first row held and indexing endpoint array.
        let res = srcs.map(|s| {
            let (data, first): (&[f32], _) = match s.data {
                SrcRows::Slot { idx, .. } => (&*self.bufs[idx], self.base[idx]),
                SrcRows::Full { data, .. } => (data, 0),
            };
            let via = match s.at {
                RowAt::Own => None,
                RowAt::SrcV => Some(self.src),
                RowAt::DstV => Some(self.dst),
                RowAt::Whole => unreachable!("a whole operand is read row by row"),
            };
            (data, first, via)
        });
        let per = if cols < rowops::NARROW { STAGE_ROWS } else { 1 };
        let mut stage = self.stage.borrow_mut();
        let mut r = rows.start;
        while r < rows.end {
            let n = per.min(rows.end - r);
            let mut stages = stage.iter_mut();
            let xs = res.map(|(data, first, via)| {
                let staged = stages.next().expect("a stage per operand");
                match via {
                    Some(via) if n > 1 => {
                        let staged = &mut staged[..n * cols];
                        rowops::gather_rows(staged, data, cols, &via[r..r + n], first);
                        &*staged
                    }
                    // Consecutive as they lie: own rows, or just one.
                    _ => {
                        let at = via.map_or(r, |v| v[r] as usize) - first;
                        &data[at * cols..(at + n) * cols]
                    }
                }
            });
            let at = (r - rows.start) * cols;
            body(&mut out[at..at + n * cols], xs);
            r += n;
        }
    }
}

/// A worker's slots while one op runs: read through [`Slots::rows`],
/// written only by [`Slots::pull`], which brings row-sized slots to the
/// row a reader is about to read.
struct Slots<'r, 'w, 'a> {
    cx: &'a Bound<'a>,
    /// The slots of the ops before the one running (an op reads only
    /// earlier ops: the unit is in dependency order).
    bufs: &'r mut [&'w mut [f32]],
    base: &'r mut [usize],
    stage: &'r Stage,
}

impl Slots<'_, '_, '_> {
    fn rows(&self) -> Rows<'_> {
        Rows::new(self.cx, self.bufs, self.base, self.stage)
    }

    /// Makes every row-sized operand of `ops[k]` hold the rows a consumer
    /// at `rows` reads — the run its reader takes next, at most
    /// `ops[k].strip` long: evaluates the producer over exactly those rows
    /// ([`exec_rows`]) unless the slot already starts there (consecutive
    /// edges of one destination group share `dst(e)`, and two operands of
    /// one reader share the rows). A folded product is evaluated by its
    /// reader: the pull brings the product's own row-sized operands there.
    fn pull(&mut self, k: usize, rows: Range<usize>) {
        let ops = self.cx.ops;
        for s in &ops[k].srcs {
            let Some(j) = s.slot() else { continue };
            let op = &ops[j];
            if op.size == SlotSize::Fold && op.pulls {
                self.pull(j, rows.clone());
            }
            if op.size != SlotSize::Row {
                continue;
            }
            // Only own-row reads come in runs (lowering's strips).
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
            let cx = Rows::new(self.cx, earlier, self.base, self.stage);
            let out = &mut rest[0][..need.len() * op.cols];
            exec_rows(op, &self.cx.bound[j], &cx, need.clone(), out);
            self.base[j] = first;
        }
    }
}

/// The rows of `ops[k]`'s first operand, pulled on demand: what a
/// reduction ([`RowSource`]) reads edge by edge, in ascending order.
struct Pulled<'u, 'r, 'w, 'a> {
    unit: &'u mut Slots<'r, 'w, 'a>,
    k: usize,
    /// The operand read: the op's first.
    x: Src<'a>,
    /// `x` names a folded product: how to evaluate it.
    fold: Option<Fold<'a>>,
    /// One past the tile's last edge.
    end: usize,
    /// The groups whose edges the reduction reads — it skips the others;
    /// `None`: every edge of the tile.
    owned: Option<Owns<'a>>,
    /// The run of edges pulled last.
    held: Range<usize>,
}

impl<'u, 'r, 'w, 'a> Pulled<'u, 'r, 'w, 'a> {
    fn new(unit: &'u mut Slots<'r, 'w, 'a>, k: usize, end: usize, owned: Option<Owns<'a>>) -> Self {
        Pulled {
            x: unit.cx.bound[k].srcs[0],
            fold: unit.cx.fold(unit.cx.bound[k].srcs[0]),
            unit,
            k,
            end,
            owned,
            held: 0..0,
        }
    }

    /// Makes every row-sized operand — a fold's included — hold edge `e`.
    #[inline(always)]
    fn hold(&mut self, e: usize) {
        let op = &self.unit.cx.ops[self.k];
        if op.pulls && !self.held.contains(&e) {
            // The edges after `e` the reduction reads next without a gap:
            // one pull evaluates the producer for all of them, and none of
            // a group it skips.
            let most = (e + op.strip).min(self.end);
            let run = match &self.owned {
                None => most,
                Some(owns) => (e + 1..most).find(|&r| !owns.edge(r)).unwrap_or(most),
            };
            self.held = e..run;
            self.unit.pull(self.k, e..run);
        }
    }
}

impl RowSource for Pulled<'_, '_, '_, '_> {
    #[inline(always)]
    fn row(&mut self, e: usize) -> &[f32] {
        self.hold(e);
        self.unit.rows().row(self.x, e)
    }

    #[inline(always)]
    fn add_into(&mut self, o: &mut [f32], e: usize) {
        let Some(fold) = self.fold else {
            return rowops::add_assign(o, self.row(e));
        };
        self.hold(e);
        let (x, s) = self.unit.rows().fold_rows(fold, e);
        rowops::mul_accum(o, None, x, s, fold.feat);
    }

    #[inline(always)]
    fn axpy_into(&mut self, o: &mut [f32], alpha: f32, e: usize) {
        let Some(fold) = self.fold else {
            return rowops::axpy(o, alpha, self.row(e));
        };
        self.hold(e);
        let (x, s) = self.unit.rows().fold_rows(fold, e);
        rowops::mul_accum(o, Some(alpha), x, s, fold.feat);
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

/// One worker's auxiliary rows: per gather-max of the unit its chunk of
/// the argmax table (rows relative to its first vertex, `chunk_v0`), at
/// the op's ordinal among the unit's gather-maxes; and the tail of its
/// slab, where a softmax keeps the max and denominator rows of the
/// destination group it is sweeping.
struct WorkerAux<'r, 'w> {
    group: &'r mut [f32],
    argmax: &'r mut [&'w mut [u32]],
    chunk_v0: usize,
}

/// The tensor a complete operand names, wherever it lives.
fn full_tensor<'a>(
    ir: &IrGraph,
    program: &KernelProgram,
    (store, mat, views): (&'a Store, &'a [Option<Tensor>], &'a [Tensor]),
    src: FullSource,
) -> Result<&'a Tensor> {
    let found = match src {
        FullSource::Value(id) => store.values.get(&id),
        FullSource::Step(si) => mat[si].as_ref(),
        FullSource::View(i) => views.get(i),
    };
    found.ok_or_else(|| ExecError::ValueNotLive {
        node: match src {
            FullSource::Value(id) => ir.node(id).name.clone(),
            FullSource::Step(si) => ir.node(program.steps[si].node).name.clone(),
            _ => format!("operand {src:?} of kernel {}", program.kernel),
        },
    })
}

fn argmax_table(store: &Store, fwd: NodeId) -> Result<&[u32]> {
    let table = store.aux_argmax.get(&fwd);
    table
        .map(Vec::as_slice)
        .ok_or_else(|| ExecError::ValueNotLive {
            node: format!("argmax aux of node {fwd}"),
        })
}

impl CompiledKernel {
    /// Executes the kernel over the graph it was prepared for, unit by
    /// unit — with the views each stages whole — tile and
    /// streamed units tile by tile with per-worker slots, dense and
    /// parameter steps in one call into the op library's dispatch (what
    /// makes lowering total: any op the IR expresses either tiles or
    /// lands there). Argmax tables go to `store`'s aux store; the tensors
    /// the steps produced are left in [`Frame::mat`] for the caller to
    /// take. Returns the bytes of dying
    /// inputs freed mid-flight — already removed from `store.values`, so
    /// a session subtracts them from its live accounting; its post-kernel
    /// eviction no-ops on them.
    ///
    /// # Errors
    ///
    /// [`ExecError::ValueNotLive`] when an out-of-kernel operand or a
    /// `GatherMaxBwd`'s forward argmax table is not in `store` (a plan
    /// inconsistency) — before any worker runs; [`ExecError::Injected`]
    /// from the `fused.launch` failpoint.
    pub(crate) fn launch(
        &self,
        g: &Graph,
        ir: &IrGraph,
        program: &KernelProgram,
        store: &mut Store,
        frame: &mut Frame,
    ) -> Result<u64> {
        use gnnopt_tensor::fault::{self, FaultAction};
        match fault::check("fused.launch") {
            None => {}
            Some(FaultAction::Panic) => {
                std::panic::panic_any(fault::injected_panic_message("fused.launch"))
            }
            Some(_) => {
                let site = "fused.launch".into();
                return Err(ExecError::Injected { site });
            }
        }
        // (A failed launch may have left tensors behind.)
        frame.mat.clear();
        frame.mat.resize_with(program.steps.len(), || None);
        frame.argmax.clear();
        frame.outs.clear();
        let ops = program
            .units
            .iter()
            .flat_map(|u| u.ops.iter().chain(&u.views));
        for op in ops {
            for s in &op.srcs {
                if let Data::Full(src @ FullSource::Value(_)) = s.data {
                    full_tensor(ir, program, (store, &frame.mat, &[]), src)?;
                }
            }
            if let OpKind::GatherMaxBwd { fwd } = op.kind {
                argmax_table(store, fwd)?;
            }
        }

        let mut evicted = 0;
        for (unit, up) in program.units.iter().zip(&self.units) {
            frame.views.clear();
            for v in &unit.views {
                let Data::Full(src) = v.srcs[0].data else {
                    unreachable!("a view stages a complete tensor")
                };
                let x = full_tensor(ir, program, (store, &frame.mat, &[]), src)?;
                let dim = Dim::multi(v.heads, v.cols / v.heads);
                frame.views.push(kernels::view(x, v.space, dim, &v.map));
            }
            match unit.kind {
                UnitKind::Dense => {
                    Self::call_dense(&self.policy, g, ir, program, unit, store, frame)?
                }
                _ => self.run_unit(g, ir, program, (unit, up), store, frame)?,
            }
            frame.views.clear();
            evicted += self.release(unit.stage, store);
        }
        for (si, a) in frame.argmax.drain(..) {
            store.aux_argmax.insert(program.steps[si].node, a);
        }
        Ok(evicted)
    }

    /// Frees the dying inputs whose last reading stage was `stage`.
    fn release(&self, stage: usize, store: &mut Store) -> u64 {
        let due = self.releases.iter().filter(|&&(at, _)| at == stage);
        due.filter_map(|(_, id)| store.values.remove(id))
            .map(|t| t.byte_size() as u64)
            .sum()
    }

    /// A dense or parameter step: one call into the op library's dispatch.
    fn call_dense(
        policy: &ExecPolicy,
        g: &Graph,
        ir: &IrGraph,
        program: &KernelProgram,
        unit: &lower::Unit,
        store: &Store,
        frame: &mut Frame,
    ) -> Result<()> {
        let op = &unit.ops[0];
        let mut inputs: Vec<&Tensor> = std::mem::take(&mut frame.inputs);
        for s in &op.srcs {
            let Data::Full(src) = s.data else {
                unreachable!("a dense call reads complete tensors")
            };
            let views = &frame.views;
            inputs.push(full_tensor(ir, program, (store, &frame.mat, views), src)?);
        }
        let node = ir.node(program.steps[op.step].node);
        let t = refexec::exec_op(policy, g, ir, node, &inputs)?;
        frame.inputs = recycle(inputs);
        frame.mat[op.step] = Some(t);
        Ok(())
    }

    /// A tiled segment over the workers' own tile runs — or a streamed
    /// gather: its chain, then the gather as the unit's last op, every
    /// worker walking *all* tiles and accumulating the source rows it
    /// owns. Allocates the unit's sinks, binds its operands, cuts sinks
    /// and slabs into the workers' slots, and runs the workers.
    fn run_unit(
        &self,
        g: &Graph,
        ir: &IrGraph,
        program: &KernelProgram,
        (unit, up): (&lower::Unit, &UnitPlan),
        store: &Store,
        frame: &mut Frame,
    ) -> Result<()> {
        let (n, m) = (g.num_vertices(), g.num_edges());
        let ops = &unit.ops[..];
        let Frame {
            mat,
            argmax,
            outs,
            views,
            slabs,
            base,
            ..
        } = frame;

        // The segment's full tensors, born with it: workers fill disjoint
        // chunks. Argmax tables likewise: a gather-max fills a global
        // table in disjoint chunks.
        let argmax0 = argmax.len();
        for (k, op) in ops.iter().enumerate() {
            if matches!(op.size, SlotSize::Sink | SlotSize::Both) {
                let rows = if op.space == Space::Edge { m } else { n };
                outs.push((k, Tensor::zeros(&[rows, op.cols])));
            }
            if is_gather_max(op) {
                // Pool-recycled like the session's aux store drains them.
                let mut table = pool::take_u32(n * op.cols);
                table.resize(n * op.cols, NO_ARGMAX);
                argmax.push((op.step, table));
            }
        }

        let mut bound: Vec<OpBound<'_>> = std::mem::take(&mut frame.bound);
        for op in ops {
            let empty = SrcRows::Full { data: &[], cols: 0 };
            let mut srcs = [Src {
                data: empty,
                at: RowAt::Own,
            }; MAX_SRCS];
            for (src, s) in srcs.iter_mut().zip(&op.srcs) {
                src.at = s.at;
                src.data = match s.data {
                    Data::Slot { idx, cols } => SrcRows::Slot { idx, cols },
                    Data::Full(named) => {
                        let t = full_tensor(ir, program, (store, mat, views), named)?;
                        let cols = match s.at {
                            RowAt::Whole => t.numel(),
                            _ => t.numel().checked_div(t.rows()).unwrap_or(0),
                        };
                        let data = t.as_slice();
                        SrcRows::Full { data, cols }
                    }
                };
            }
            let argmax = match op.kind {
                OpKind::GatherMaxBwd { fwd } => argmax_table(store, fwd)?,
                _ => &[],
            };
            bound.push(OpBound { srcs, argmax });
        }

        // Per worker: a slot per op — its chunk of the sink's tensor (the
        // chunk is the slot: nothing is staged and copied), or a piece of
        // the worker's slab — then the slab's tail, a softmax's group
        // rows. The slabs come off the pool's working list.
        let per = ops.len() + 1;
        let per_am = (argmax.len() - argmax0).max(1);
        let workers = up.parts.len();
        let mut slots: Vec<&mut [f32]> = std::mem::take(&mut frame.slots);
        slots.resize_with(workers * per, Default::default);
        let mut sinks: Vec<&mut [u32]> = std::mem::take(&mut frame.argmax_sinks);
        sinks.resize_with(workers * per_am, Default::default);
        let mut chunks: Vec<&mut [f32]> = std::mem::take(&mut frame.chunks);
        chunks.resize_with(workers * ops.len(), Default::default);
        base.clear();
        base.resize(workers * ops.len(), usize::MAX);
        for part in &up.parts {
            let len = unit.slab_len(part.max_tile);
            let mut slab = pool::take_work_f32(len);
            slab.resize(len, 0.0);
            slabs.push(slab);
        }
        for (w, (part, slab)) in up.parts.iter().zip(slabs.iter_mut()).enumerate() {
            let mut rest = &mut slab[..];
            for (k, op) in ops.iter().enumerate() {
                let (slot, tail) = rest.split_at_mut(op.slot_len(part.max_tile));
                slots[w * per + k] = slot;
                rest = tail;
            }
            slots[w * per + ops.len()] = rest;
        }
        for (k, tensor) in outs.iter_mut() {
            let bounds = up.bounds(&ops[*k]);
            let chunks_of = split_rows(tensor.as_mut_slice(), ops[*k].cols, bounds);
            for (w, chunk) in chunks_of.enumerate() {
                if ops[*k].size == SlotSize::Both {
                    chunks[w * ops.len() + *k] = chunk;
                    continue;
                }
                slots[w * per + *k] = chunk;
                base[w * ops.len() + *k] = bounds[w];
            }
        }
        let maxes = ops.iter().filter(|op| is_gather_max(op));
        for (j, ((si, table), op)) in argmax[argmax0..].iter_mut().zip(maxes).enumerate() {
            let cols = program.steps[*si].cols;
            for (w, chunk) in split_rows(table, cols, up.bounds(op)).enumerate() {
                sinks[w * per_am + j] = chunk;
            }
        }

        // Run the unit. Each worker walks its tiles in order, reusing
        // one slot per op.
        let cx = Bound {
            ops,
            bound: &bound,
            g,
            src: g.src_slice(),
            dst: g.dst_slice(),
            shard: self.shard.as_deref(),
        };
        let per_op = ops.len().max(1);
        let slots_of = slots.chunks_mut(per).zip(base.chunks_mut(per_op));
        let sinks_of = sinks.chunks_mut(per_am).zip(chunks.chunks_mut(per_op));
        let mut team = slots_of.zip(sinks_of).enumerate();
        if workers == 1 {
            let (w, (slots, sinks)) = team.next().expect("one worker");
            run_worker(&cx, &self.tiles, &up.parts[w], slots, sinks);
        } else {
            let wg = contain::WorkerGuard::new();
            std::thread::scope(|scope| {
                for (w, (slots, sinks)) in team {
                    let (cx, wg, tiles, part) = (&cx, &wg, &self.tiles, &up.parts[w]);
                    scope.spawn(move || {
                        wg.run(|| run_worker(cx, tiles, part, slots, sinks));
                    });
                }
            });
            wg.rethrow();
        }

        frame.bound = recycle(bound);
        frame.slots = recycle(slots);
        frame.argmax_sinks = recycle(sinks);
        frame.chunks = recycle(chunks);
        for slab in slabs.drain(..) {
            pool::put_work_f32(slab);
        }
        // The segment's tensors, for later segments to read.
        for (k, t) in outs.drain(..) {
            mat[ops[k].step] = Some(t);
        }
        Ok(())
    }
}

/// One worker's walk over its tiles: `slots` are its op slots and its
/// slab's tail ([`WorkerAux::group`]) with the first row each op's slot
/// holds; `sinks` its chunks of the argmax tables and of the sinks of
/// [`SlotSize::Both`] ops, swapped in for the tiles it owns.
fn run_worker<'w>(
    cx: &Bound<'_>,
    tiles: &[usize],
    part: &Part,
    (slots, base): (&mut [&'w mut [f32]], &mut [usize]),
    (sinks, chunks): (&mut [&'w mut [u32]], &mut [&'w mut [f32]]),
) {
    let indptr = cx.g.in_adj().indptr();
    let (bufs, group) = slots.split_at_mut(cx.ops.len());
    let mut aux = WorkerAux {
        group: &mut *group[0],
        argmax: sinks,
        chunk_v0: tiles[part.owned.start],
    };
    // The first rows of the worker's chunks of a sink, by space.
    let v_own = tiles[part.owned.start];
    let own0 = |space| [v_own, indptr[v_own]][usize::from(space == Space::Edge)];
    let stage = Stage::new([[0.0; STAGE_LEN]; MAX_SRCS]);
    for t in part.tiles.clone() {
        let (v0, v1) = (tiles[t], tiles[t + 1]);
        let (e0, e1) = (indptr[v0], indptr[v1]);
        // A `Both` op's sink chunk replaces its slot over the owned tiles.
        let owned = part.owned.contains(&t);
        let turn = !part.owned.is_empty() && (t == part.owned.start || t == part.owned.end);
        for (k, op) in cx.ops.iter().enumerate() {
            let (rows, r0) = match op.space {
                Space::Edge => (e1 - e0, e0),
                _ => (v1 - v0, v0),
            };
            if op.size == SlotSize::Both && turn {
                std::mem::swap(&mut bufs[k], &mut chunks[k]);
            }
            let (earlier, own) = bufs.split_at_mut(k);
            let own = &mut *own[0];
            let buf = match op.size {
                // Evaluated when a reader pulls it (or folds it); a row
                // held over from the last tile must not look current.
                SlotSize::Row | SlotSize::Fold => {
                    base[k] = usize::MAX;
                    continue;
                }
                SlotSize::Tile => {
                    base[k] = r0;
                    &mut own[..rows * op.cols]
                }
                // A streamed gather accumulates into any source row the
                // worker owns; every other sink is written by the worker
                // that owns the tile.
                SlotSize::Sink if lower::is_streamed_gather(&op.kind) => own,
                SlotSize::Sink if !owned => continue,
                SlotSize::Sink => {
                    let at = (r0 - base[k]) * op.cols;
                    &mut own[at..at + rows * op.cols]
                }
                // Its chunk of the sink on the tiles the worker owns (the
                // chunk is in the slot's place), its tile slot elsewhere.
                SlotSize::Both => {
                    base[k] = if owned { own0(op.space) } else { r0 };
                    let at = (r0 - base[k]) * op.cols;
                    &mut own[at..at + rows * op.cols]
                }
            };
            let mut unit = Slots {
                cx,
                bufs: earlier,
                base: &mut *base,
                stage: &stage,
            };
            exec_op(&mut unit, k, (v0, v1, e0, e1), buf, &mut aux);
        }
    }
}

/// Executes `unit.ops[k]` over one tile into `buf`: its rows of the tile,
/// or — for a streamed gather — the source rows the worker owns. The ops
/// that reduce over whole edge groups (`Gather`, `EdgeSoftmax`) live
/// here, because only a tile owns whole destination groups;
/// everything else is per-row ([`exec_rows`]).
///
/// Every arm reproduces the corresponding kernel in [`crate::kernels`]
/// expression-for-expression and in the same iteration order, which is
/// what makes fused execution bit-identical to the node-by-node oracle.
fn exec_op(
    unit: &mut Slots<'_, '_, '_>,
    k: usize,
    (v0, v1, e0, e1): (usize, usize, usize, usize),
    buf: &mut [f32],
    aux: &mut WorkerAux<'_, '_>,
) {
    let cx = unit.cx;
    let (op, srcs) = (&cx.ops[k], &cx.bound[k].srcs);
    let nth = |is: fn(&TileOp) -> bool| cx.ops[..k].iter().filter(|o| is(o)).count();
    let chunk_v0 = aux.chunk_v0;
    let total = op.cols;
    let adj = cx.g.in_adj();
    let indptr = adj.indptr();
    // A reduction starts from zero rows: a sink's tensor was allocated
    // zeroed and nothing else writes it, a tile slot holds the last tile.
    let zeroed = op.size == SlotSize::Sink;
    match &op.kind {
        // The streamed max: `row(e)` folded first-wins into `out[src(e)]`
        // and the worker's chunk of the argmax table, which starts at its
        // first owned source, over the tile's edges in ascending order —
        // `kernels::gather`'s serial scan, one tile of it.
        OpKind::Gather {
            reduce: ReduceFn::Max,
            group: EdgeGroup::BySrc,
        } => {
            let own0 = unit.base[k];
            let owns = Owns {
                key: cx.src,
                range: own0..own0 + buf.len().checked_div(total).unwrap_or(0),
                shard: cx.shard,
            };
            let table = &mut *aux.argmax[nth(is_gather_max)];
            let mut x = Pulled::new(unit, k, e1, Some(owns.clone()));
            for (e, &u) in (e0..).zip(&cx.src[e0..e1]) {
                let u = u as usize;
                if owns.group(u) {
                    let at = (u - own0) * total..(u - own0 + 1) * total;
                    let (o, ar) = (&mut buf[at.clone()], &mut table[at]);
                    rowops::max_first_wins(o, ar, x.row(e), e as u32);
                }
            }
        }
        // The streamed accumulate: `out[src(e)] += row(e)` over the
        // tile's edges in ascending order — `kernels::gather`'s serial
        // `BySrc` scan, one tile of it, owned target rows hinted `AHEAD`.
        OpKind::Gather {
            reduce,
            group: EdgeGroup::BySrc,
        } => {
            let own0 = unit.base[k];
            let owns = Owns {
                key: cx.src,
                range: own0..own0 + buf.len().checked_div(total).unwrap_or(0),
                shard: cx.shard,
            };
            let (src, out_adj) = (cx.src, cx.g.out_adj());
            let inv = |u: usize| 1.0 / out_adj.degree(u) as f32;
            let x0 = srcs[0];
            // Rows neither folded nor pulled are the tile's block of the
            // operand, read in place.
            if cx.fold(x0).is_none() && !op.pulls && x0.at == RowAt::Own {
                let rows = unit.rows().rows(x0, e0, e1 - e0);
                let row = |e: usize| &rows[(e - e0) * total..(e - e0 + 1) * total];
                by_src(src, e0..e1, &owns, buf, total, |o, e, u| match reduce {
                    ReduceFn::Sum => rowops::add_assign(o, row(e)),
                    _ => rowops::axpy(o, inv(u), row(e)),
                });
                return;
            }
            let mut x = Pulled::new(unit, k, e1, Some(owns.clone()));
            by_src(src, e0..e1, &owns, buf, total, |o, e, u| match reduce {
                ReduceFn::Sum => x.add_into(o, e),
                _ => x.axpy_into(o, inv(u), e),
            });
        }
        // Each row accumulates its edges in ascending id, the oracle's
        // order at any degree. A shard session skips the destinations it
        // does not own: their rows stay zero.
        OpKind::Gather {
            reduce: reduce @ (ReduceFn::Sum | ReduceFn::Mean),
            ..
        } => {
            let owns = cx.shard.map(|shard| Owns {
                key: cx.dst,
                range: 0..shard.len(),
                shard: Some(shard),
            });
            // A folded equal-width product whose operands sit at the
            // gather's own rows, pulling nothing (the softmax backward's
            // `Σ g·y`): a group's rows of each are one block (the softmax
            // arm's rule), summed in ascending edge order by one call — the
            // bits of the fold's per-edge `mul_accum`.
            let block = cx.fold(srcs[0]).filter(|f| {
                let own = [f.x, f.s].iter().all(|o| o.at == RowAt::Own);
                *reduce == ReduceFn::Sum && !op.pulls && own && f.s.cols() == total
            });
            // So are the rows of an operand neither folded nor pulled.
            let plain = cx.fold(srcs[0]).is_none() && !op.pulls && srcs[0].at == RowAt::Own;
            let mut x = Pulled::new(unit, k, e1, owns.clone());
            for v in v0..v1 {
                let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                if !zeroed {
                    o.fill(0.0);
                }
                let (ids, deg) = (adj.edge_ids(v), adj.degree(v));
                if deg == 0 || owns.as_ref().is_some_and(|w| !w.group(v)) {
                    continue;
                }
                match (block, reduce) {
                    (Some(f), _) => {
                        let (read, e) = (x.unit.rows(), indptr[v]);
                        let (a, b) = (read.rows(f.x, e, deg), read.rows(f.s, e, deg));
                        rowops::mul_add_accum_rows(o, a, b);
                    }
                    (None, ReduceFn::Sum) if plain => {
                        let rows = x.unit.rows().rows(srcs[0], indptr[v], deg);
                        rowops::add_assign_rows(o, rows);
                    }
                    (None, ReduceFn::Sum) => ids.iter().for_each(|&e| x.add_into(o, e as usize)),
                    _ => {
                        let inv = 1.0 / deg as f32;
                        ids.iter().for_each(|&e| x.axpy_into(o, inv, e as usize));
                    }
                }
            }
        }
        OpKind::Gather { .. } => {
            let table = &mut *aux.argmax[nth(is_gather_max)];
            let mut x = Pulled::new(unit, k, e1, None);
            for v in v0..v1 {
                let o = &mut buf[(v - v0) * total..(v - v0 + 1) * total];
                if !zeroed {
                    o.fill(0.0);
                }
                let ar = &mut table[(v - chunk_v0) * total..(v - chunk_v0 + 1) * total];
                for &e in adj.edge_ids(v) {
                    rowops::max_first_wins(o, ar, x.row(e as usize), e);
                }
            }
        }

        // The op that sweeps a group more than once reads tile-sized
        // operands only (lowering's slot sizes): nothing to pull. A group
        // is the contiguous rows `indptr[v]..indptr[v + 1]` (`in_adj.eid[i]
        // == i`, `Graph::validate`), which a sweep hands to `rowops` as one
        // block — or, an operand being an aliased copy, in staged strips.
        // Its max and denominator live while it is swept, in the group
        // rows at the tail of the worker's slab.
        OpKind::EdgeSoftmax => {
            debug_assert!(!op.pulls);
            let (mr, dr) = aux.group[..2 * total].split_at_mut(total);
            let (read, x) = (unit.rows(), [srcs[0]]);
            for v in v0..v1 {
                let grp = indptr[v]..indptr[v + 1];
                if grp.is_empty() {
                    continue;
                }
                mr.fill(f32::NEG_INFINITY);
                dr.fill(0.0);
                let y = &mut buf[(grp.start - e0) * total..(grp.end - e0) * total];
                read.zip_rows(x, grp.clone(), total, y, |_, [x]| {
                    rowops::max_assign_rows(mr, x);
                });
                // One `exp` per element: the denominator sweep leaves
                // `exp(x − max)` in the output rows, the last sweep
                // divides them.
                read.zip_rows(x, grp, total, y, |t, [x]| {
                    rowops::exp_sub_store_accum_rows(dr, t, x, mr);
                });
                rowops::div_assign_rows(y, dr);
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
                    exec_rows(op, &cx.bound[k], &unit.rows(), run.clone(), &mut buf[out]);
                    r = run.end;
                }
            } else {
                exec_rows(op, &cx.bound[k], &unit.rows(), rows, buf);
            }
        }
    }
}

/// `add(out[src(e)], e, src(e))` for the tile's edges `edges` whose source
/// row the worker owns, in ascending order — `kernels::gather`'s serial
/// `BySrc` scan, one tile of it — the target rows (`cols` wide) hinted
/// [`AHEAD`] when a vector wide or wider: on `gat_train`'s 2-wide score
/// sums the hint cost more than the misses it hid (12 against 9–10 ms).
#[inline(always)]
fn by_src(
    src: &[u32],
    edges: Range<usize>,
    owns: &Owns<'_>,
    buf: &mut [f32],
    cols: usize,
    mut add: impl FnMut(&mut [f32], usize, usize),
) {
    let own0 = owns.range.start;
    let hint = cols >= rowops::NARROW;
    for (e, &u) in (edges.start..).zip(&src[edges]) {
        let next = src.get(e + AHEAD).map(|&v| v as usize).filter(|_| hint);
        if let Some(v) = next.filter(|&v| owns.group(v)) {
            rowops::prefetch(&buf[(v - own0) * cols..(v - own0 + 1) * cols]);
        }
        let u = u as usize;
        if owns.group(u) {
            add(&mut buf[(u - own0) * cols..(u - own0 + 1) * cols], e, u);
        }
    }
}

/// Executes a per-row op over `rows` of its own space into `buf` — the
/// single definition of these ops' row expressions: [`exec_op`] calls it
/// with a tile's rows (one at a time when an operand has to be pulled
/// first), [`Slots::pull`] with the run of rows a reader asks for.
///
/// Inlined into its callers: a row-sized op is called once per pulled
/// run — 32 rows at a time in a `gat_train` step's streamed score chain,
/// the run its folded product's reader takes — and an out-of-line call
/// would set up a frame for every arm's locals on each.
#[allow(clippy::too_many_lines)]
#[inline(always)]
fn exec_rows<'r>(
    op: &TileOp,
    bound: &OpBound<'r>,
    cx: &Rows<'r>,
    rows: Range<usize>,
    buf: &mut [f32],
) {
    let total = op.cols;
    let s = |i: usize| bound.srcs[i];
    match &op.kind {
        // The stage of an operand read through layouts: each row gathers
        // the columns its map names.
        OpKind::View(_) if !op.map.is_empty() => {
            cx.map_rows(s(0), rows, total, buf, |or, xr| gather_row(or, xr, &op.map));
        }
        // A copy that could not be aliased away (a kernel boundary or an
        // interior spill): its operand already carries the endpoint and
        // — a terminal view — the layouts.
        OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV) | OpKind::View(_) => {
            cx.zip_rows([s(0)], rows, total, buf, |o, [x]| o.copy_from_slice(x));
        }
        OpKind::Scatter(ScatterFn::Bin(bf)) => {
            cx.zip_rows([s(0), s(1)], rows, total, buf, |o, [xu, yv]| {
                bf.zip_into(o, xu, yv)
            });
        }
        // Not `zip_rows`: its strips would join rows into one, and these
        // bodies work a row at a time.
        OpKind::Scatter(ScatterFn::ConcatUV) => {
            for (i, e) in rows.enumerate() {
                let o = &mut buf[i * total..(i + 1) * total];
                rowops::concat_heads(o, cx.row(s(0), e), cx.row(s(1), e), op.heads);
            }
        }

        // The gather duals: an edge row is a function of its group
        // vertex's gradient row, the one the operand is pinned at —
        // `src(e)` or `dst(e)`, as the forward gather grouped.
        OpKind::GatherMeanBwd { group } => {
            let adj = group_adj(cx.g, *group);
            for (i, e) in rows.enumerate() {
                let inv = 1.0 / adj.degree(cx.at(s(0).at, e)) as f32;
                rowops::scale_into(&mut buf[i * total..(i + 1) * total], inv, cx.row(s(0), e));
            }
        }
        OpKind::GatherMaxBwd { .. } => {
            for (i, e) in rows.enumerate() {
                let v = cx.at(s(0).at, e);
                let ar = &bound.argmax[v * total..(v + 1) * total];
                let o = &mut buf[i * total..(i + 1) * total];
                rowops::route_argmax(o, ar, cx.row(s(0), e), e as u32);
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
            let whole = [s(0), s(1)].iter().any(|x| x.at == RowAt::Whole);
            if da.feat == db.feat && !whole {
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
                let o = &mut buf[i * total..(i + 1) * total];
                rowops::gaussian_weight(o, cx.row(p, e), cx.row(mu, e), cx.row(sg, e));
            }
        }

        OpKind::HeadReduce(f) => {
            let (heads, feat) = (op.dins[0].heads, op.dins[0].feat);
            let scale = if *f == ReduceFn::Mean {
                1.0 / heads as f32
            } else {
                1.0
            };
            cx.map_rows(s(0), rows, feat, buf, |or, xr| {
                rowops::head_reduce(or, xr, heads, scale)
            });
        }
        OpKind::FeatSum => {
            let (heads, feat) = (op.dins[0].heads, op.dins[0].feat);
            if let Some(fold) = cx.unit.fold(s(0)) {
                let (o, r0) = (&mut buf[..rows.len() * heads], rows.start);
                return rowops::mul_feat_sum_rows(o, heads, feat, |i| cx.fold_rows(fold, r0 + i));
            }
            cx.map_rows(s(0), rows, heads, buf, |or, xr| {
                rowops::feat_sum(or, xr, feat)
            });
        }
        other => unreachable!("op {other:?} survived lowering but cannot tile"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::{BinaryFn, Dim, UnaryFn};
    use gnnopt_graph::EdgeList;

    /// An elementwise step writes the same bits however its operands are
    /// addressed. The form under test reads each at the op's own row or
    /// through `src(e)` / `dst(e)` — in place, row by row (8 columns) or a
    /// staged strip at a time (fewer); the reference is the one-call form
    /// (every operand at `Own`) over explicit copies of the rows the
    /// pattern names. Row counts straddle the stage — a strip short by
    /// one, exact, over by one, several strips and a remainder — the run
    /// starts past row 0, and slot operands (an edge-space one read at
    /// `Own`, a vertex-space one at `dst(e)`) hold their rows from a
    /// non-zero `base`.
    #[test]
    fn tile_wide_elementwise_steps_equal_their_row_by_row_form() {
        let (nv, r0) = (41usize, 5usize);
        let pairs: Vec<(u32, u32)> = (0..3 * STAGE_ROWS + 20)
            .map(|e| (((e * 7 + 3) % nv) as u32, (e / 3) as u32))
            .collect();
        // (Self-loops are dropped.)
        let g = Graph::from_edge_list(&EdgeList::from_pairs(nv, &pairs));
        let m = g.num_edges();
        assert!(m >= r0 + 3 * STAGE_ROWS + 2);
        let cx = Bound {
            ops: &[],
            bound: &[],
            g: &g,
            src: g.src_slice(),
            dst: g.dst_slice(),
            shard: None,
        };
        let kinds = [
            OpKind::Unary(UnaryFn::LeakyRelu(0.2)),
            OpKind::UnaryBwd(UnaryFn::Tanh),
            OpKind::Binary(BinaryFn::Mul),
        ];
        let ats = [RowAt::Own, RowAt::SrcV, RowAt::DstV];
        let stage = Stage::new([[0.0; STAGE_LEN]; MAX_SRCS]);
        fn full(data: &[f32], cols: usize, at: RowAt) -> Src<'_> {
            Src {
                data: SrcRows::Full { data, cols },
                at,
            }
        }
        fn run<'a>(
            (cx, stage): (&'a Bound<'a>, &'a Stage),
            (kind, cols): (&OpKind, usize),
            (slots, base): (&'a [&'a mut [f32]], &'a [usize]),
            srcs: [Src<'a>; MAX_SRCS],
            rows: Range<usize>,
        ) -> Vec<u32> {
            let mut op = TileOp::new(0, kind.clone(), (Space::Edge, Dim::flat(cols)), Vec::new());
            op.dins = vec![Dim::flat(cols); 2];
            let bound = OpBound { srcs, argmax: &[] };
            let mut out = vec![f32::NAN; rows.len() * cols];
            let read = Rows::new(cx, slots, base, stage);
            exec_rows(&op, &bound, &read, rows, &mut out);
            out.iter().map(|v| v.to_bits()).collect()
        }
        for cols in [1usize, 2, 3, 4, 5, 8] {
            let fill = |k: f32| Tensor::from_fn(&[m, cols], |i| (i as f32 * k - 3.0).sin() * 4.0);
            let tensors = [fill(0.37), fill(1.13), fill(0.71)];
            for count in [
                STAGE_ROWS - 1,
                STAGE_ROWS,
                STAGE_ROWS + 1,
                3 * STAGE_ROWS + 2,
            ] {
                let rows = r0..r0 + count;
                // The rows of `t` a consumer at `rows` reads at `at`.
                let named = |t: &Tensor, at| -> Vec<f32> {
                    let rows = rows
                        .clone()
                        .map(|r| Rows::new(&cx, &[], &[], &stage).at(at, r));
                    rows.flat_map(|r| t.row(r).to_vec()).collect()
                };
                for (kind, pattern) in kinds.iter().flat_map(|k| (0..27).map(move |p| (k, p))) {
                    let at = [ats[pattern % 3], ats[pattern / 3 % 3], ats[pattern / 9]];
                    let copies = [0, 1, 2].map(|i| named(&tensors[i], at[i]));
                    let own = [0, 1, 2].map(|i| full(&copies[i], cols, RowAt::Own));
                    let want = run((&cx, &stage), (kind, cols), (&[], &[]), own, 0..count);
                    let srcs = [0, 1, 2].map(|i| full(tensors[i].as_slice(), cols, at[i]));
                    let what = format!("{kind:?} cols {cols} rows {count} {at:?}");
                    let got = run((&cx, &stage), (kind, cols), (&[], &[]), srcs, rows.clone());
                    assert_eq!(got, want, "{what}");
                    // The second operand from a slot: the run's own rows,
                    // or the destination rows the run reads.
                    let (lo, hi) = (g.dst(rows.start), g.dst(rows.end - 1) + 1);
                    let first = match at[1] {
                        RowAt::Own => rows.start,
                        RowAt::DstV => lo,
                        RowAt::SrcV | RowAt::Whole => continue,
                    };
                    let held = if at[1] == RowAt::Own {
                        rows.clone()
                    } else {
                        lo..hi
                    };
                    let mut held =
                        tensors[1].as_slice()[held.start * cols..held.end * cols].to_vec();
                    let mut srcs = srcs;
                    srcs[1].data = SrcRows::Slot { idx: 0, cols };
                    let slots = (&[&mut held[..]][..], &[first][..]);
                    let got = run((&cx, &stage), (kind, cols), slots, srcs, rows.clone());
                    assert_eq!(got, want, "{what}, slot");
                }
            }
        }
    }

    /// A shard session's vertex reductions reduce only the groups it owns
    /// ([`Owns`]): by-destination `Sum` and `Mean` into a sink and into a
    /// tile slot a consumer reads, and a streamed by-source gather — each
    /// over a folded `binary_Mul` whose row-sized operand is pulled in
    /// runs that stop at the first edge of a skipped group. Owned rows
    /// carry the unmasked run's bits, every other row exactly `+0.0`.
    /// Tiles of 16 rows, owned runs that end mid-strip and mid-tile, two
    /// hubs of 1 100 edges each way (one owned, one not), one and two
    /// workers (a streamed gather's source range ∩ the shard
    /// set).
    #[test]
    fn masked_reductions_keep_owned_bits_and_zero_the_rest() {
        use crate::session::{Bindings, Held, Session};
        use gnnopt_core::{compile, CompileOptions};
        // Hubs 0 (owned) and 1 (not) trade an edge each way with every
        // leaf; the body 2..80 has in-degrees 0..6.
        let (body, cols) = (80usize, 3usize);
        let nv = body + 1100;
        let mut pairs = Vec::new();
        for leaf in body as u32..nv as u32 {
            pairs.extend([(leaf, 0), (0, leaf), (leaf, 1), (1, leaf)]);
        }
        for v in 2..body {
            pairs.extend((0..v % 7).map(|j| (((v * 13 + j * 29) % body) as u32, v as u32)));
        }
        let g = Graph::from_edge_list(&EdgeList::from_pairs(nv, &pairs));
        assert_eq!(g.in_adj().degree(1), 1100);
        // Runs of four owned vertices, then three not.
        let shard: Arc<[bool]> = (0..nv).map(|v| v == 0 || (v > 1 && v % 7 < 4)).collect();
        let mut b = Bindings::new();
        b.insert(
            "h",
            Tensor::from_fn(&[nv, cols], |i| (i as f32 * 0.37).sin() + 1.5),
        );
        let ew = Tensor::from_fn(&[g.num_edges(), cols], |i| (i as f32 * 0.71).cos() + 1.5);
        b.insert("ew", ew);
        for reduce in [ReduceFn::Sum, ReduceFn::Mean] {
            for (group, tail) in [
                (EdgeGroup::ByDst, false),
                (EdgeGroup::ByDst, true),
                (EdgeGroup::BySrc, false),
            ] {
                let mut ir = IrGraph::new();
                let h = ir.input_vertex("h", Dim::flat(cols));
                let ew = ir.input_edge("ew", Dim::flat(cols));
                let copy = match group {
                    EdgeGroup::ByDst => ScatterFn::CopyU,
                    EdgeGroup::BySrc => ScatterFn::CopyV,
                };
                let x = ir.scatter(copy, h, h).unwrap();
                let w = ir.unary(UnaryFn::LeakyRelu(0.3), ew).unwrap();
                let m = ir.binary(BinaryFn::Mul, x, w).unwrap();
                let mut y = ir.gather(reduce, group, m).unwrap();
                if tail {
                    y = ir.unary(UnaryFn::LeakyRelu(0.5), y).unwrap();
                }
                ir.mark_output(y);
                let plan = compile(&ir, false, &CompileOptions::ours()).unwrap().plan;
                // The fixture is what it says: one program, the gather a
                // sink, or a tile slot its consumer reads, that pulls
                // through the fold.
                let [program] = &plan.programs[..] else {
                    panic!("one kernel")
                };
                let ops: Vec<_> = program.units.iter().flat_map(|u| &u.ops).collect();
                let kind = |k: &OpKind| ops.iter().find(|op| op.kind == *k).expect("an op");
                let gather = kind(&OpKind::Gather { reduce, group });
                let slot = if tail { SlotSize::Tile } else { SlotSize::Sink };
                assert_eq!(
                    (gather.size, gather.pulls),
                    (slot, true),
                    "{reduce:?} {group:?}"
                );
                let product = kind(&OpKind::Binary(BinaryFn::Mul));
                assert_eq!((product.size, product.pulls), (SlotSize::Fold, true));
                let what = format!("{reduce:?} {group:?} tail {tail}");
                for threads in [1, 2] {
                    let policy = ExecPolicy {
                        threads,
                        parallel_threshold: 0,
                        tile_edges: 16,
                        ..ExecPolicy::serial()
                    };
                    let run = |shard: Option<Arc<[bool]>>| {
                        let (plan, g) = (Held::Borrowed(&plan), Held::Borrowed(&g));
                        let mut sess = Session::assemble(plan, g, policy, shard).unwrap();
                        sess.forward(&b).unwrap().remove(0)
                    };
                    let (full, masked) = (run(None), run(Some(Arc::clone(&shard))));
                    let hub = full.row(1).iter().all(|&x| x != 0.0);
                    assert!(
                        !shard[1] && hub,
                        "{what}: the hub not owned has a row to skip"
                    );
                    for v in 0..nv {
                        let bits = |t: &Tensor| t.row(v).iter().map(|x| x.to_bits()).collect();
                        let want: Vec<u32> = if shard[v] { bits(&full) } else { vec![0; cols] };
                        assert_eq!(bits(&masked), want, "{what} threads {threads} row {v}");
                    }
                }
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
