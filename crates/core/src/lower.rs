//! Lowering fused kernels to tiled [`KernelProgram`]s (§5 realized).
//!
//! The fusion pass (`fusion.rs`) decides *which* nodes share a kernel; by
//! itself that only changes the analytical model. This pass decides *how*
//! a fused kernel actually runs on hardware so the fusion pays off in
//! measured memory and IO: every member node is classified as
//!
//! * [`Storage::Materialized`] — its output leaves the kernel (consumed
//!   by another kernel, a model output, a stashed value, or a terminal
//!   sink) and is written to a full tensor, exactly as before;
//! * [`Storage::Scratch`] — a kernel-internal value that exists only as a
//!   per-tile scratch buffer during execution. For edge-space
//!   intermediates this is the paper's headline saving: the `O(|E|·d)`
//!   tensor between a `Scatter` and the `Gather` that consumes it never
//!   exists in memory.
//!
//! A [`KernelProgram`] is executed by `gnnopt-exec`'s fused interpreter
//! over CSR **destination-vertex ranges** (tiles): the canonical edge
//! numbering is destination-major, so the edges of a vertex range are a
//! contiguous block, every `ByDst` reduction group is wholly inside one
//! tile, and per-vertex edge order is preserved — which is why fused
//! execution stays **bit-identical** to the node-by-node oracle
//! (`gnnopt_exec::refexec::evaluate`).
//!
//! # Segments: source-grouped reductions inside a destination tiling
//!
//! Backward kernels of graph models inherently contain **source**-grouped
//! reductions (the dual of a `Scatter(CopyU)` is a `Gather` over
//! out-edges), whose groups are not contiguous in the destination-major
//! edge order. Rather than failing the whole kernel, lowering splits the
//! program into *segments*: maximal runs of destination-tileable steps,
//! separated by [`StepExec::Full`] steps that run once over the whole
//! graph. A scratch value read across a segment boundary — in particular
//! by a full step — is *spilled*: forced to [`Storage::Interior`], a real
//! full tensor that lives only for the duration of the kernel. Segments
//! are assigned in step order, except that edge work (an edge-space step
//! or a graph op) joins the tiled segment of its latest operand when
//! every operand exists there — no later full step made one and no
//! tiled producer is read at the source endpoint — so a full step
//! between two pieces of one edge walk does not cut it in two. Row-local
//! vertex work stays in step order, with its readers.
//!
//! # Streamed segments
//!
//! A whole-graph `BySrc` gather (a full step) forces its input to spill
//! as an interior tensor: the tiled segment writes `O(|E|·d)` rows the
//! full step immediately re-reads (for a 64-wide RMAT-16 layer that is
//! ~270 MB each way, the dominant backward cost of GAT and GCN). The
//! third lowering pass *streams* the segment instead: a tiled segment
//! joins the `BySrc` gathers that read its edge rows, moving into the
//! first gather's segment with the others, and every step nothing
//! outside that walk reads becomes [`Storage::Scratch`]. The interpreter
//! compiles the segment and the gathers into one unit of its tile loop
//! (each gather folds `row(e)` into `out[src(e)]` in ascending edge
//! order, the `BySrc` order of the reference kernel): every step is
//! computable inside a destination tile from full tensors — scatter
//! broadcasts, elementwise ops, edge softmaxes (a tile owns whole
//! destination groups, so it sweeps them as the forward one does), a
//! vertex-space step read at `dst(e)` (a source-endpoint read of a
//! member ends the segment first). GAT's attention backward and feature
//! gradient, one kernel since they rebuild one softmax
//! (`fusion::merge_shared_recompute`), so become one walk that recomputes
//! the softmax once, feeds both by-source sums and writes the
//! by-destination sum of the score gradient, which is never a tensor.
//! The spill never exists — and because the decision is made here, the
//! memory planner never reserves it either. The join is declined when a
//! reader outside the walk would run before it, when the walk would
//! still write an edge-sized spill (its readers need it whole either
//! way), or when the segment holds a gather-max (whose argmax table a
//! tile unit chunks by tile). A segment holding tiled steps *and* a full
//! gather is how a program says "streamed" ([`KernelProgram::streamed`]);
//! nothing at launch re-derives it. A `BySrc` gather with nothing to
//! stream — its input a kernel input or a spill other steps read too —
//! is the same unit alone ([`is_streamed_gather`]): the tile driver runs
//! every one. A streamed unit may hold several `BySrc` gathers and sinks
//! of the destination tiling; a boundary value the walk itself reads
//! back is [`SlotSize::Both`].
//!
//! # The stage table and compiled units
//!
//! A launch runs in *stages*: stage `i` runs the program's `i`-th
//! segment. Everything about a stage
//! that depends only on the IR is fixed here, once, and read by all three
//! consumers — the memory planner (`memplan.rs`: a tensor is born at its
//! step's stage, a dying input frees after its last reading stage,
//! [`KernelProgram::inputs`]), the interpreter (which allocates a
//! segment's sinks when the segment starts and releases by the same
//! table) and [`crate::display::dump_programs`]. Each segment compiles
//! into one [`Unit`]: a *tile unit* (a tiled segment), a *streamed unit*
//! (`BySrc` gathers behind the steps streamed into them, if any) or a
//! *dense call*. A unit's [`TileOp`]s carry resolved [`Operand`]s — the slot of
//! an earlier op, or a complete tensor named by [`FullSource`], read at
//! the consumer's own row or at an edge endpoint ([`RowAt`]); a
//! scratch-class pure copy compiles to no op at all (its readers get the
//! copy's source with the endpoint pinned), and an operand read through
//! a layout that moves data ([`crate::view`], "Layouts") is staged by a
//! `View` op — and a [`SlotSize`]: how many
//! rows the op's slot holds, if any (`gnnopt-exec`'s `fused.rs`, "Slot
//! sizes", says what each size means at run time). The graph-dependent
//! half — tile bounds, worker ownership — is `gnnopt-exec`'s, computed
//! once per session.
//!
//! # Totality
//!
//! Lowering is *total*: [`lower_kernel`] produces a [`KernelProgram`] for
//! every kernel the fusion pass emits — the session has no other way to
//! run a kernel. Each member's schedule follows from its per-edge
//! views ([`crate::view`]):
//!
//! * per-edge / destination-endpoint members run [`StepExec::Tiled`]
//!   inside the destination-tile loop, alone in their kernel or fused —
//!   a boundary output is a sink written in place, so a one-step program
//!   tiles like any other — the two gather duals included: a
//!   `GatherMeanBwd` / argmax-routed `GatherMaxBwd` edge row is its group
//!   vertex's gradient row, read at `src(e)` or `dst(e)` as the forward
//!   gather grouped (`view::endpoint_reads` pins it);
//! * every `BySrc` gather — sum, mean or max — is a [`StepExec::Full`]
//!   step the tile loop runs as a streamed gather, the last step of its
//!   own segment;
//! * what is left runs as a [`StepExec::Full`] step through the op
//!   library's dense dispatch, a segment of its own, and is neither a
//!   graph op nor row-local: the GEMMs (`Linear` and `LinearBwdWeight`),
//!   the cross-row parameter reductions (`HeadDotBwdParam`,
//!   `GaussianBwdMu` / `GaussianBwdSigma`) and parameter-space compute —
//!   the combination half of the aggregation/combination split;
//!   `op_exec` is the one place that says which;
//! * a tiled step reading a same-segment member at the **source**
//!   endpoint starts a fresh segment (a tile only owns its destinations),
//!   which spills the producer to [`Storage::Interior`] via the ordinary
//!   cross-segment rule.

use crate::ir::IrGraph;
use crate::op::{BinaryFn, Dim, EdgeGroup, NodeId, OpKind, ReduceFn, ScatterFn, Space};
use crate::plan::{ExecutionPlan, Kernel};
use crate::view::{self, Layout, View};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Where a program step's output lives during tiled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Full tensor handed to the value store (kernel boundary).
    Materialized,
    /// Full tensor forced by a cross-segment read (a spill); it is
    /// dropped as soon as the kernel finishes.
    Interior,
    /// Per-tile rows in a worker-local scratch arena (never a full
    /// tensor).
    Scratch,
}

/// How a step executes within the program schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExec {
    /// Runs inside the destination-tile loop.
    Tiled,
    /// Runs once over the whole graph: a dense or parameter step handed
    /// to the op library's dispatch, a segment of its own — or a `BySrc`
    /// gather ([`is_streamed_gather`]), which the tile loop runs as
    /// a sink of its segment, behind the steps streamed into it, if any
    /// (module docs, "Streamed segments").
    Full,
}

/// One member node of a lowered kernel, in execution order.
#[derive(Debug, Clone)]
pub struct ProgramStep {
    /// The IR node this step computes.
    pub node: NodeId,
    /// Output storage class.
    pub storage: Storage,
    /// Tiled vs whole-graph execution.
    pub exec: StepExec,
    /// Execution segment: tiled steps sharing a segment exchange scratch;
    /// a full step is alone in its segment unless it is a streamed
    /// gather, whose streamed steps run there with it. Segments run in
    /// ascending order (steps stay in node order, so a streamed unit's
    /// segment ids are out of step order).
    pub segment: usize,
    /// Launch stage the step runs in: the ordinal of its segment (module
    /// docs, "The stage table").
    pub stage: usize,
    /// Output index space (copied from the node for self-contained size
    /// arithmetic).
    pub space: Space,
    /// Flattened output columns (`dim.total()`, or `cols` for params).
    pub cols: usize,
    /// True when the step rebuilds a forward value inside a backward
    /// kernel (member of [`Kernel::recompute`]).
    pub recompute: bool,
}

/// A fused kernel lowered to a tiled execution recipe.
///
/// `steps` are in ascending node-id order, which is a topological order of
/// the member subgraph (IR construction order is topological and recompute
/// members are forward nodes preceding the backward members that read
/// them).
#[derive(Debug, Clone)]
pub struct KernelProgram {
    /// Index of the kernel this program lowers.
    pub kernel: usize,
    /// Member steps in execution order.
    pub steps: Vec<ProgramStep>,
    /// The compiled segments in the order they run: `units[i]` is stage
    /// `i`.
    pub units: Vec<Unit>,
    /// Every value the program reads from outside the kernel with the
    /// last stage that reads it, ascending by node. (Argmax tables live
    /// in the aux store and are not listed.)
    pub inputs: Vec<(NodeId, usize)>,
}

/// Which row of its data a resolved operand reads when the consuming op
/// is at row `r` of its own space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowAt {
    /// Row `r` itself.
    Own,
    /// Row `src(r)` / `dst(r)` of an edge-space consumer: the endpoint
    /// read of a `Scatter`, which survives into whoever reads an aliased
    /// `CopyU` / `CopyV`.
    SrcV,
    DstV,
    /// The whole tensor at every row: a parameter, whose row is the
    /// tensor ([`View::Broadcast`]).
    Whole,
}

/// A complete tensor a unit reads, bound to its rows at launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullSource {
    /// A value of the session's store, computed outside the kernel.
    Value(NodeId),
    /// What an earlier stage's step (index into [`KernelProgram::steps`])
    /// produced: a spill, a boundary value.
    Step(usize),
    /// A staged view of another source (index into [`Unit::views`]).
    View(usize),
}

/// Where a resolved operand's rows are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// The slot of an earlier op of the unit (index into [`Unit::ops`]),
    /// `cols` wide.
    Slot { idx: usize, cols: usize },
    /// A complete tensor.
    Full(FullSource),
}

/// A resolved operand: where the rows are and which one to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operand {
    pub data: Data,
    pub at: RowAt,
}

impl Operand {
    /// Pins the operand of an endpoint read. Scatter inputs are
    /// vertex-space values, which are only ever addressed at `Own`.
    fn pinned(self, at: RowAt) -> Self {
        debug_assert_eq!(self.at, RowAt::Own, "vertex operands are unpinned");
        Operand { at, ..self }
    }

    /// The slot this operand reads, if it reads one.
    pub fn slot(self) -> Option<usize> {
        match self.data {
            Data::Slot { idx, .. } => Some(idx),
            Data::Full(_) => None,
        }
    }
}

/// How many rows an op's slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSize {
    /// The tile's rows of the op's space, evaluated before its readers run.
    Tile,
    /// A strip of at most [`TileOp::strip`] rows — one, for a row read
    /// at an edge endpoint — evaluated over the run of rows its reader
    /// takes next.
    Row,
    /// None: the op never runs — its one reader evaluates the product per
    /// row from the product's operands, inside its reduction (`folds`).
    Fold,
    /// None: the op writes its rows of a full tensor in place — a
    /// boundary value or spill of a tiled segment, a streamed segment's
    /// gather, a dense call's result.
    Sink,
    /// A boundary value a streamed unit's own ops read: the tile's rows,
    /// which every worker evaluates for its readers, written into the
    /// full tensor's rows instead on the tiles the worker owns.
    Both,
}

/// One step compiled for the per-row path: operands resolved, slot sized.
#[derive(Debug, Clone)]
pub struct TileOp {
    /// Index into [`KernelProgram::steps`].
    pub step: usize,
    pub kind: OpKind,
    pub space: Space,
    pub cols: usize,
    /// Output head count (`node.dim.heads`).
    pub heads: usize,
    /// The node's inputs in order, each endpoint read pinned
    /// (`view::endpoint_reads`): `Scatter` `[x@SrcV, y@DstV]` (a copy
    /// reads one side), `GatherMeanBwd` / `GatherMaxBwd` `[grad]` at the
    /// forward group's endpoint.
    pub srcs: Vec<Operand>,
    /// Input dims (`ir.node(inputs[i]).dim`), for broadcast/head layout.
    pub dins: Vec<Dim>,
    pub size: SlotSize,
    /// Some operand is a row-sized slot, or a folded product that reads
    /// one: pull it before reading.
    pub pulls: bool,
    /// Row-sized: rows the slot holds. An op that pulls: rows it may run
    /// between two pulls (every row-sized operand then holds them all).
    pub strip: usize,
    /// A `View` op (a terminal view, or the stage of an operand a reader
    /// reads through a layout): the layouts, and for each output column
    /// the source column it copies ([`crate::view::gather_map`]).
    pub layouts: Vec<Layout>,
    pub map: Vec<u32>,
}

impl TileOp {
    /// A tile-sized op computing step `step`'s `dim` rows of `space` from
    /// `srcs`.
    pub fn new(step: usize, kind: OpKind, (space, dim): (Space, Dim), srcs: Vec<Operand>) -> Self {
        TileOp {
            step,
            kind,
            space,
            cols: dim.total(),
            heads: dim.heads,
            srcs,
            dins: Vec::new(),
            size: SlotSize::Tile,
            pulls: false,
            strip: 1,
            layouts: Vec::new(),
            map: Vec::new(),
        }
    }

    /// Elements this op's slot holds on a worker whose largest tile is
    /// `(vertices, edges)`.
    pub fn slot_len(&self, (tv, te): (usize, usize)) -> usize {
        let tile = self.cols
            * match self.space {
                Space::Edge => te,
                Space::Vertex => tv,
                Space::Param => 0,
            };
        match self.size {
            SlotSize::Tile | SlotSize::Both => tile,
            SlotSize::Row => tile.min(self.strip * self.cols),
            SlotSize::Fold | SlotSize::Sink => 0,
        }
    }

    /// Reduces over whole edge groups (an `EdgeSoftmax` sweeps each
    /// three times); every other op is a per-row expression.
    fn reduces_groups(&self) -> bool {
        matches!(self.kind, OpKind::Gather { .. } | OpKind::EdgeSoftmax)
    }

    /// An elementwise op whose operands all sit at its own row: one
    /// `rowops` call covers all the rows it is run over.
    fn flat(&self) -> bool {
        let zips = match self.kind {
            OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV | ScatterFn::Bin(_))
            | OpKind::Unary(_)
            | OpKind::UnaryBwd(_) => true,
            OpKind::Binary(_) => self.dins[0].feat == self.dins[1].feat,
            _ => false,
        };
        zips && self.srcs.iter().all(|s| s.at == RowAt::Own)
    }

    /// Reads each row of its operands once, in runs a strip can hold —
    /// what a reader must do for its producer to be row-sized. (A flat op
    /// with a tile-sized slot covers the tile in one call instead.)
    fn takes_rows_once(&self) -> bool {
        let runs = matches!(self.size, SlotSize::Row | SlotSize::Fold);
        match self.kind {
            OpKind::Gather { .. } => true,
            _ => !self.reduces_groups() && (!self.flat() || runs),
        }
    }
}

/// A row-sized `Binary(Mul)` (equal-shape or head-broadcast) its one reader
/// folds ([`SlotSize::Fold`]): a `Gather` `Sum`/`Mean`, tiled or streamed,
/// or a `FeatSum` — not a `Max`, whose argmax compares whole rows.
fn folds(op: &TileOp, reader: &TileOp) -> bool {
    let sums = match reader.kind {
        OpKind::Gather { reduce, .. } => reduce != ReduceFn::Max,
        _ => reader.kind == OpKind::FeatSum,
    };
    sums && op.kind == OpKind::Binary(BinaryFn::Mul)
}

/// Elements (4 KB) and rows a row-sized slot's strip holds at most.
const STRIP_ELEMS: usize = 1024;
const STRIP_ROWS: usize = 32;

/// What runs a [`Unit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitKind {
    /// A tiled segment: workers own runs of destination tiles.
    Tile,
    /// One or more `BySrc` gathers behind the steps streamed into their
    /// segment, if any: workers own source ranges and each walk every
    /// tile, writing the rows of the unit's other sinks on the tiles
    /// they own.
    Streamed,
    /// One call into the op library's dense dispatch.
    Dense,
}

/// One segment compiled: what stage `stage` of a launch runs.
#[derive(Debug, Clone)]
pub struct Unit {
    pub stage: usize,
    pub segment: usize,
    pub kind: UnitKind,
    /// The ops in dependency order. A dense call is one op whose operands
    /// are the node's inputs, all complete tensors.
    pub ops: Vec<TileOp>,
    /// Per step of the segment, in step order: the step's index and what
    /// its readers see — its op's slot, or the source a scratch-class
    /// pure copy was aliased to.
    pub reads: Vec<(usize, Operand)>,
    /// The `View` ops the unit stages whole, each over one complete
    /// tensor, when it launches: a parameter operand of a tile op, an
    /// operand of a dense call.
    pub views: Vec<TileOp>,
}

impl Unit {
    /// Elements of tile- and row-sized slots a worker holds whose largest
    /// tile is `tile` = `(vertices, edges)`, so kernel-internal values
    /// never become full tensors: aliased copies and sinks hold nothing,
    /// a step whose single reader takes each row once a strip of rows —
    /// and, past the slots, the max and denominator rows of the
    /// destination group an `EdgeSoftmax` is sweeping, as wide as the
    /// widest. Summed over a launch's workers, `RunStats::scratch_bytes`.
    pub fn slab_len(&self, tile: (usize, usize)) -> usize {
        let softmax = self.ops.iter().filter(|op| op.kind == OpKind::EdgeSoftmax);
        let group = softmax.map(|op| op.cols).max().unwrap_or(0);
        self.ops.iter().map(|op| op.slot_len(tile)).sum::<usize>() + 2 * group
    }
}

impl KernelProgram {
    /// Nodes written to full tensors (kernel boundary), in step order.
    pub fn materialized(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.steps
            .iter()
            .filter(|s| s.storage == Storage::Materialized)
            .map(|s| s.node)
    }

    /// Scratch-class steps (kernel-internal values), in step order.
    pub fn scratch(&self) -> impl Iterator<Item = &ProgramStep> + '_ {
        self.steps.iter().filter(|s| s.storage == Storage::Scratch)
    }

    /// The segment ids of the program, ascending and deduplicated.
    fn segments(&self) -> Vec<usize> {
        let mut segs: Vec<usize> = self.steps.iter().map(|s| s.segment).collect();
        segs.sort_unstable();
        segs.dedup();
        segs
    }

    /// The steps streamed into a `BySrc` gather (module docs, "Streamed
    /// segments"), in step order: the scratch-class tiled steps that
    /// share a segment with a full one. They hold tile slots in the
    /// gather's unit and never a full tensor.
    pub fn streamed(&self) -> impl Iterator<Item = &ProgramStep> + '_ {
        self.steps.iter().filter(|s| {
            (s.exec, s.storage) == (StepExec::Tiled, Storage::Scratch)
                && self
                    .steps
                    .iter()
                    .any(|g| g.exec == StepExec::Full && g.segment == s.segment)
        })
    }

    /// Bytes a node-by-node evaluation would materialize for the
    /// kernel-internal (scratch-class) values — the memory the fused path
    /// saves, and exactly the intermediate bytes `gnnopt-sim`'s
    /// [`ExecutionPlan::memory_replay`] never charges for fused plans.
    pub fn internal_full_bytes(&self, num_vertices: usize, num_edges: usize) -> u64 {
        self.scratch()
            .map(|s| Self::full_bytes(s, num_vertices, num_edges))
            .sum()
    }

    /// Bytes of the interior spills (scratch values forced to real
    /// tensors by cross-segment reads): the part of a kernel's internals
    /// the tiled interpreter must still pay for, transiently.
    pub fn interior_full_bytes(&self, num_vertices: usize, num_edges: usize) -> u64 {
        self.steps
            .iter()
            .filter(|s| s.storage == Storage::Interior)
            .map(|s| Self::full_bytes(s, num_vertices, num_edges))
            .sum()
    }

    fn full_bytes(s: &ProgramStep, num_vertices: usize, num_edges: usize) -> u64 {
        let rows = match s.space {
            Space::Edge => num_edges,
            Space::Vertex => num_vertices,
            Space::Param => 0,
        };
        4 * (rows as u64) * (s.cols as u64)
    }
}

/// Lowers every kernel of a plan. Lowering is total: the result has one
/// program per kernel, in kernel order.
pub fn lower_plan(plan: &ExecutionPlan) -> Vec<KernelProgram> {
    plan.kernels.iter().map(|k| lower_kernel(plan, k)).collect()
}

/// How a member executes — total over every op the fusion
/// pass can put in a kernel. Leaves are never kernel members (every region
/// builder gates on `FusionClass::Leaf`), so they are unreachable here.
fn op_exec(node: &crate::ir::Node) -> StepExec {
    match &node.kind {
        // Source-grouped reductions are whole-graph full steps — their
        // groups are not contiguous in the destination-major edge order —
        // that the tile loop streams.
        kind if is_streamed_gather(kind) => StepExec::Full,
        // Destination-grouped reductions and row-local ops — the two
        // gather duals included: an edge row of either is its group
        // vertex's gradient row, read at the endpoint the forward gather
        // grouped by (`view::endpoint_reads`); and a `Mul` reading a
        // parameter whole at every row — a head-dot's product, folded
        // into its `FeatSum`, and the head-dot's input dual.
        OpKind::Gather { .. }
        | OpKind::GatherMeanBwd { .. }
        | OpKind::GatherMaxBwd { .. }
        | OpKind::Scatter(_)
        | OpKind::EdgeSoftmax
        | OpKind::Unary(_)
        | OpKind::UnaryBwd(_)
        | OpKind::Binary(_)
        | OpKind::GaussianWeight
        | OpKind::View(_)
        | OpKind::HeadReduce(_)
        | OpKind::FeatSum => StepExec::Tiled,
        // GEMMs and cross-row parameter reductions span all tiles:
        // whole-graph full steps through the dense dispatch.
        OpKind::Linear
        | OpKind::LinearBwdWeight
        | OpKind::HeadDotBwdParam
        | OpKind::GaussianBwdMu
        | OpKind::GaussianBwdSigma => StepExec::Full,
        OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed => {
            unreachable!("leaves are never kernel members")
        }
    }
}

/// The one full step the tile driver runs itself: a `BySrc` gather folds
/// `row(e)` into `out[src(e)]` in ascending edge order — a sum, a mean, a
/// first-wins max — which a walk over all destination tiles does. Every
/// other full step is a dense call.
pub fn is_streamed_gather(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Gather {
            group: EdgeGroup::BySrc,
            ..
        }
    )
}

/// Lowers one kernel. Total: every kernel yields a program (module docs
/// describe the schedule classes).
pub fn lower_kernel(plan: &ExecutionPlan, kernel: &Kernel) -> KernelProgram {
    let ir = &plan.ir;
    // Members in ascending node-id order (== topological order).
    let recompute: HashSet<NodeId> = kernel.recompute.iter().copied().collect();
    let mut member_ids: Vec<NodeId> = kernel
        .nodes
        .iter()
        .chain(&kernel.recompute)
        .copied()
        .collect();
    member_ids.sort_unstable();
    member_ids.dedup();
    let members: HashSet<NodeId> = member_ids.iter().copied().collect();
    let materialized: HashSet<NodeId> = plan.materialized_nodes(kernel).into_iter().collect();

    // Pass 1: execution and storage classes, plus segment assignment
    // (full steps break the tiled run they interrupt, and a tiled
    // source-endpoint read of a same-segment member starts a fresh
    // segment so the producer completes — and spills — first).
    let mut storage: HashMap<NodeId, Storage> = HashMap::new();
    let mut exec: HashMap<NodeId, StepExec> = HashMap::new();
    let mut segment: HashMap<NodeId, usize> = HashMap::new();
    let mut seg = 0usize;
    let mut prev_full = false;
    for &id in &member_ids {
        let node = ir.node(id);
        // Param members always run full — `O(params)` work with no tile
        // structure (and the tiled interpreter has no parameter-space
        // scratch rows).
        let e = if node.space == Space::Param {
            StepExec::Full
        } else {
            op_exec(node)
        };
        let src_reads = crate::view::src_side_reads(ir, id);
        // Edge work joins the tiled segment of its latest operand when
        // every operand exists there: none comes from a later full step
        // or is read at the source endpoint of a tiled producer (a tile
        // owns destination rows only). Row-local vertex work stays in
        // program order with its readers.
        let (mut bound, mut there) = (0, None);
        for (pos, i) in node.inputs.iter().enumerate() {
            let Some(&s) = segment.get(i) else { continue };
            let after = exec[i] == StepExec::Full || src_reads.contains(&pos);
            (bound, there) = (
                bound.max(s + usize::from(after)),
                there.max((!after).then_some(s)),
            );
        }
        let edge_work = node.space == Space::Edge || node.kind.is_graph_op();
        let join = there.filter(|&s| edge_work && s == bound);
        let at = match (e, join) {
            (StepExec::Tiled, Some(s)) => s,
            (StepExec::Full, _) => {
                seg += 1; // a full step is its own segment …
                prev_full = true;
                seg
            }
            (StepExec::Tiled, None) => {
                // … the next tiled run starts a fresh one, and so does a
                // source-endpoint read of a member the current one holds.
                let src_break = src_reads.iter().any(|&pos| {
                    let i = node.inputs[pos];
                    members.contains(&i)
                        && segment.get(&i) == Some(&seg)
                        && exec.get(&i) == Some(&StepExec::Tiled)
                });
                if prev_full || src_break {
                    seg += 1;
                    prev_full = false;
                }
                seg
            }
        };
        exec.insert(id, e);
        segment.insert(id, at);
        let st = if e == StepExec::Full {
            // Full steps always produce a real tensor; whether it is a
            // boundary value or a kernel-transient decides its lifetime.
            if materialized.contains(&id) {
                Storage::Materialized
            } else {
                Storage::Interior
            }
        } else if materialized.contains(&id) && !recompute.contains(&id) {
            Storage::Materialized
        } else {
            Storage::Scratch
        };
        storage.insert(id, st);
    }

    // Pass 2: spills. A scratch value read by a full step, or by a tiled
    // step in a *different* segment, must become a real tensor.
    for &id in &member_ids {
        for i in &ir.node(id).inputs {
            if !members.contains(i) {
                continue;
            }
            let cross_segment = exec[&id] == StepExec::Full || segment[i] != segment[&id];
            if cross_segment && storage[i] == Storage::Scratch {
                storage.insert(*i, Storage::Interior);
            }
        }
    }

    // Pass 3: streamed segments (module docs). A tiled segment joins the
    // `BySrc` gathers that read its edge rows, in the first one's
    // segment, when every reader outside the walk runs later; what
    // nothing outside the walk reads becomes scratch.
    let readers = |t: NodeId| {
        let reads = move |r: &NodeId| ir.node(*r).inputs.contains(&t);
        member_ids.iter().copied().filter(reads)
    };
    let mut tiled: Vec<usize> = member_ids.iter().map(|i| segment[i]).collect();
    tiled.retain(|s| {
        member_ids
            .iter()
            .any(|i| segment[i] == *s && exec[i] == StepExec::Tiled)
    });
    tiled.dedup();
    for s in tiled {
        let in_seg: Vec<NodeId> = member_ids
            .iter()
            .copied()
            .filter(|i| segment[i] == s && exec[i] == StepExec::Tiled)
            .collect();
        let joins: Vec<NodeId> = member_ids
            .iter()
            .copied()
            .filter(|&g| {
                let root = ir.node(g).inputs[0];
                let rows = in_seg.contains(&root) && ir.node(root).space == Space::Edge;
                is_streamed_gather(&ir.node(g).kind) && rows
            })
            .collect();
        let Some(target) = joins.iter().map(|g| segment[g]).min() else {
            continue;
        };
        let walk = |t: &NodeId| in_seg.contains(t) || joins.contains(t);
        let mut sinks = Vec::new();
        let joinable = in_seg.iter().all(|&t| {
            let later = readers(t).all(|r| walk(&r) || segment[&r] > target);
            let spill = !readers(t).all(|r| walk(&r));
            if storage[&t] == Storage::Materialized || spill {
                sinks.push(t);
            }
            // An edge-sized spill the walk would still write stays with its
            // tile unit: its readers need it whole whatever the walk does.
            let spill =
                spill && storage[&t] != Storage::Materialized && ir.node(t).space == Space::Edge;
            // (A gather-max chunks its argmax table by tile.)
            let max =
                matches!(ir.node(t).kind, OpKind::Gather { reduce, .. } if reduce == ReduceFn::Max);
            later && !max && !spill
        });
        if joinable {
            for t in in_seg.into_iter().chain(joins) {
                segment.insert(t, target);
                if exec[&t] == StepExec::Tiled && !sinks.contains(&t) {
                    storage.insert(t, Storage::Scratch);
                }
            }
        }
    }
    let steps: Vec<ProgramStep> = member_ids
        .iter()
        .map(|&id| {
            let node = ir.node(id);
            ProgramStep {
                node: id,
                storage: storage[&id],
                exec: exec[&id],
                segment: segment[&id],
                stage: 0,
                space: node.space,
                cols: node.dim.total(),
                recompute: recompute.contains(&id),
            }
        })
        .collect();

    // The stage table (module docs): one unit per segment in ascending
    // segment order, then every outside value's last reading stage.
    let mut program = KernelProgram {
        kernel: kernel.id,
        steps,
        units: Vec::new(),
        inputs: Vec::new(),
    };
    for (ord, seg) in program.segments().into_iter().enumerate() {
        let order: Vec<usize> = (0..program.steps.len())
            .filter(|&si| program.steps[si].segment == seg)
            .collect();
        for &si in &order {
            program.steps[si].stage = ord;
        }
        let unit = compile_unit(ir, &program.steps, ord, &order);
        program.units.push(unit);
    }
    let mut last_stage: BTreeMap<NodeId, usize> = BTreeMap::new();
    for s in &program.steps {
        let outside = |i: &&NodeId| !members.contains(i);
        for &i in ir.node(s.node).inputs.iter().filter(outside) {
            let at = last_stage.entry(i).or_insert(s.stage);
            *at = (*at).max(s.stage);
        }
    }
    program.inputs = last_stage.into_iter().collect();
    program
}

/// Compiles one segment's steps `order` (in step order, which is
/// dependency order) into a [`Unit`] and gives each op its slot size: a
/// tiled segment; a streamed segment — its `BySrc` gathers among the
/// steps streamed into them; or a dense step alone.
///
/// Pure copies compile to no op when they are scratch-class: readers get
/// the copy's source with the endpoint pinned. Operands read through
/// layouts that move data are staged ([`staged`]).
fn compile_unit(ir: &IrGraph, steps: &[ProgramStep], stage: usize, order: &[usize]) -> Unit {
    // A `BySrc` gather is the tile loop's own; any other full step is
    // alone in its segment and runs whole.
    let full = order
        .iter()
        .map(|&si| &steps[si])
        .find(|s| s.exec == StepExec::Full);
    let kind = match full {
        None => UnitKind::Tile,
        Some(s) if is_streamed_gather(&ir.node(s.node).kind) => UnitKind::Streamed,
        Some(_) => UnitKind::Dense,
    };
    let mut unit = Unit {
        stage,
        segment: steps[order[0]].segment,
        kind,
        ops: Vec::with_capacity(order.len()),
        reads: Vec::with_capacity(order.len()),
        views: Vec::new(),
    };
    for &si in order {
        let sp = &steps[si];
        let node = ir.node(sp.node);
        let is_sink = sp.storage != Storage::Scratch;
        // Same-segment members resolve through their producer's slot (or
        // whatever it aliases), earlier segments to their complete
        // tensors, everything else to the value store.
        // (A full step shares a segment only with the steps streamed
        // into it.)
        let full = |src| Operand {
            data: Data::Full(src),
            at: RowAt::Own,
        };
        let resolve = |i: NodeId, unit: &Unit| match steps.iter().position(|s| s.node == i) {
            Some(pi) if steps[pi].stage == stage => {
                let read = unit.reads.iter().find(|&&(step, _)| step == pi);
                read.expect("a same-segment operand precedes its reader").1
            }
            Some(pi) => full(FullSource::Step(pi)),
            None => full(FullSource::Value(i)),
        };
        // A scratch-class pure copy is an alias of the one row it reads.
        let copied = match node.kind {
            OpKind::Scatter(ScatterFn::CopyU) => Some((0, RowAt::SrcV)),
            OpKind::Scatter(ScatterFn::CopyV) => Some((node.inputs.len() - 1, RowAt::DstV)),
            _ => None,
        };
        if let (Some((i, at)), false) = (copied, is_sink) {
            let x = resolve(node.inputs[i], &unit).pinned(at);
            let x = staged(ir, &mut unit, si, sp.node, i, x);
            unit.reads.push((si, x));
            continue;
        }
        let mut srcs: Vec<Operand> = node.inputs.iter().map(|&i| resolve(i, &unit)).collect();
        // Endpoint reads — a scatter's sides, a gather dual's gradient at
        // its forward group — are pinned, so a row-sized producer is
        // pulled at the vertex, not the edge.
        for (pos, group) in crate::view::endpoint_reads(ir, sp.node) {
            srcs[pos] = srcs[pos].pinned(match group {
                EdgeGroup::BySrc => RowAt::SrcV,
                EdgeGroup::ByDst => RowAt::DstV,
            });
        }
        // A parameter is read whole at every row.
        for (pos, x) in srcs.iter_mut().enumerate() {
            if view::edge_view(ir, sp.node, pos) == View::Broadcast {
                x.at = RowAt::Whole;
            }
            *x = staged(ir, &mut unit, si, sp.node, pos, *x);
        }
        let slot = Data::Slot {
            idx: unit.ops.len(),
            cols: sp.cols,
        };
        unit.reads.push((
            si,
            Operand {
                data: slot,
                at: RowAt::Own,
            },
        ));
        let dins = (0..node.inputs.len()).map(|i| ir.input_dim(sp.node, i));
        let mut op = TileOp::new(si, node.kind.clone(), (sp.space, node.dim), srcs);
        op.dins = dins.collect();
        if is_sink {
            op.size = SlotSize::Sink;
        }
        unit.ops.push(op);
    }

    // Slot sizes, readers before producers: a scratch-class per-row op
    // is row-sized when its one reader takes each row once (or folded).
    // A streamed unit's sink its own ops read holds the tile's rows too.
    let ops = &mut unit.ops;
    for j in 0..ops.len() {
        let read = ops[j + 1..]
            .iter()
            .any(|op| op.srcs.iter().any(|s| s.slot() == Some(j)));
        if unit.kind == UnitKind::Streamed && ops[j].size == SlotSize::Sink && read {
            ops[j].size = SlotSize::Both;
        }
    }
    for j in (0..ops.len()).rev() {
        let reads_j = |op: &TileOp| op.srcs.iter().any(|s| s.slot() == Some(j));
        let mut readers = (j + 1..ops.len()).filter(|&k| reads_j(&ops[k]));
        let (Some(k), None) = (readers.next(), readers.next()) else {
            continue;
        };
        let op = &ops[j];
        // A read through an edge endpoint holds its reader to one row a
        // pull: worth it only for an op that runs row by row anyway.
        let own = |s: &Operand| s.slot() != Some(j) || s.at == RowAt::Own;
        if op.size == SlotSize::Tile
            && !op.reduces_groups()
            && ops[k].takes_rows_once()
            && (!op.flat() || ops[k].srcs.iter().all(own))
        {
            let fold = folds(op, &ops[k]);
            ops[j].size = if fold { SlotSize::Fold } else { SlotSize::Row };
        }
    }
    // Strips and pulls, producers before readers. A row-sized op holds
    // consecutive rows — a few KB, so the strip stays in L1 while its
    // reader walks it and the per-call cost of evaluating it is shared;
    // a row read at an endpoint stands alone. An op never runs more rows
    // at once than each row-sized operand — a fold's, too — can hold.
    for k in 0..ops.len() {
        let op = &ops[k];
        let mut strip = match op.size {
            SlotSize::Row => (STRIP_ELEMS / op.cols.max(1)).clamp(1, STRIP_ROWS),
            _ => STRIP_ROWS,
        };
        let mut pulls = false;
        for s in &op.srcs {
            let Some(j) = s.slot() else { continue };
            let held = match ops[j].size {
                SlotSize::Row if s.at == RowAt::Own => ops[j].strip,
                SlotSize::Row => 1,
                SlotSize::Fold if ops[j].pulls => ops[j].strip,
                _ => continue,
            };
            (strip, pulls) = (strip.min(held), true);
        }
        (ops[k].strip, ops[k].pulls) = (strip, pulls);
    }
    unit
}

/// `x`, the operand step `si` (node `id`) of unit `u` reads at input `pos`,
/// through the node's layouts ([`IrGraph::read_layouts`]): `x` itself if they
/// only relabel; else the output of a `View` op over `x`: staged whole
/// ([`Unit::views`]), or the slot of an op placed before the reader that
/// lays out `x`'s rows at the reader's row.
fn staged(ir: &IrGraph, u: &mut Unit, si: usize, id: NodeId, pos: usize, x: Operand) -> Operand {
    let reader = ir.node(id);
    let input = ir.node(reader.inputs[pos]);
    let layouts: Vec<_> = ir.read_layouts(id, pos).collect();
    if view::is_free(&layouts, input.dim, input.space) {
        return x;
    }
    let (dim, map) = view::gather_map(&layouts, input.dim);
    // A stage lays out rows at its reader's row — of edges, for an
    // endpoint read — so the reader reads it at its own row. A tensor
    // staged whole keeps the read's pin, and so does a gather dual, which
    // finds its group vertex through the pin: its stage lays out one
    // vertex row a pull.
    let whole = u.kind == UnitKind::Dense || input.space == Space::Param;
    let dual = matches!(
        reader.kind,
        OpKind::GatherMeanBwd { .. } | OpKind::GatherMaxBwd { .. }
    );
    let (mut src, mut at) = (x, RowAt::Own);
    if whole || dual {
        (src.at, at) = (RowAt::Own, x.at);
    }
    let space = match src.at {
        RowAt::Own => input.space,
        _ => Space::Edge,
    };
    let kind = OpKind::View(*layouts.last().expect("a layout moves data"));
    let mut op = TileOp::new(si, kind, (space, dim), vec![src]);
    (op.dins, op.layouts, op.map) = (vec![input.dim], layouts, map);
    let data = if whole {
        u.views.push(op);
        Data::Full(FullSource::View(u.views.len() - 1))
    } else {
        u.ops.push(op);
        let (idx, cols) = (u.ops.len() - 1, dim.total());
        Data::Slot { idx, cols }
    };
    Operand { data, at }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryFn, Dim, UnaryFn};
    use crate::pipeline::{compile, CompileOptions};

    /// The graph-related section of a GAT layer (same shape as the fusion
    /// tests): one fused kernel whose edge intermediates are internal.
    fn gat_like() -> IrGraph {
        let mut g = IrGraph::new();
        let a = g.input_vertex("a", Dim::multi(2, 1));
        let h = g.input_vertex("h", Dim::multi(2, 8));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Add), a, a).unwrap();
        let lr = g.unary(UnaryFn::LeakyRelu(0.2), e).unwrap();
        let sm = g.edge_softmax(lr).unwrap();
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, sm).unwrap();
        let out = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
        g.mark_output(out);
        g
    }

    #[test]
    fn gat_forward_kernel_lowers_with_internal_edge_scratch() {
        let plan = compile(&gat_like(), false, &CompileOptions::ours())
            .unwrap()
            .plan;
        assert_eq!(plan.kernels.len(), 1);
        let prog = lower_kernel(&plan, &plan.kernels[0]);
        // Only the gather output crosses the kernel boundary.
        let mat: Vec<NodeId> = prog.materialized().collect();
        assert_eq!(mat.len(), 1);
        assert_eq!(
            plan.ir.node(mat[0]).kind.reduction_group(),
            Some(EdgeGroup::ByDst)
        );
        // All five edge intermediates stay in scratch.
        let scratch_edges = prog.scratch().filter(|s| s.space == Space::Edge).count();
        assert_eq!(scratch_edges, 5);
        // Scratch arithmetic: per-tile bytes scale with the tile, the
        // reference-materialization equivalent with the whole graph.
        let per_tile = 4 * prog.units[0].slab_len((8, 32)) as u64;
        let full = prog.internal_full_bytes(1000, 100_000);
        assert!(per_tile > 0 && full > per_tile);
    }

    /// GAT-like training graph with real parameters (autodiff needs a
    /// parameter upstream of the output).
    fn gat_training_ir() -> IrGraph {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 8);
        let hw = g.linear(h, w).unwrap();
        let a = g.param("a", 8, 1);
        let score = g.linear(hw, a).unwrap();
        let e = g
            .scatter(ScatterFn::Bin(BinaryFn::Add), score, score)
            .unwrap();
        let lr = g.unary(UnaryFn::LeakyRelu(0.2), e).unwrap();
        let sm = g.edge_softmax(lr).unwrap();
        let hu = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, sm).unwrap();
        let out = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
        g.mark_output(out);
        g
    }

    /// The step computing the (unique) node `pick` selects among the
    /// programs whose kernel owns it (recompute copies excluded).
    fn owned_step(
        plan: &ExecutionPlan,
        pick: impl Fn(&crate::ir::Node) -> bool,
    ) -> (&KernelProgram, &ProgramStep) {
        let mut found = plan.programs.iter().flat_map(|p| {
            let own = p.steps.iter().filter(|s| !s.recompute);
            own.filter(|s| pick(plan.ir.node(s.node)))
                .map(move |s| (p, s))
        });
        let hit = found.next().expect("the plan has such a step");
        assert!(found.next().is_none(), "the pick is unique");
        hit
    }

    #[test]
    fn gat_backward_streams_the_wide_by_src_gather() {
        // The backward kernel of the feature gradient (k9 of the GAT
        // zoo model): `∂out[dst(e)] · softmax(e)`, summed by source.
        let plan = compile(&gat_training_ir(), true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let (prog, gather) = owned_step(&plan, |n| {
            n.kind.reduction_group() == Some(EdgeGroup::BySrc) && n.dim.total() == 8
        });
        let root = plan.ir.node(gather.node).inputs[0];
        let root = prog.steps.iter().find(|s| s.node == root).unwrap();
        assert_eq!(plan.ir.node(root.node).kind, OpKind::Binary(BinaryFn::Mul));
        assert_eq!(gather.exec, StepExec::Full);
        // The O(|E|·d) root is tile rows in the gather's own segment, not
        // an interior full tensor — with the whole chain behind it, the
        // recomputed softmax included.
        assert_eq!(
            (root.storage, root.exec),
            (Storage::Scratch, StepExec::Tiled)
        );
        assert_eq!(root.segment, gather.segment);
        let streamed: Vec<NodeId> = prog.streamed().map(|s| s.node).collect();
        assert!(streamed.contains(&root.node));
        assert!(streamed
            .iter()
            .any(|&n| plan.ir.node(n).kind == OpKind::EdgeSoftmax));
        for s in prog.streamed() {
            assert_eq!((s.storage, s.segment), (Storage::Scratch, gather.segment));
        }
        assert_eq!(
            prog.interior_full_bytes(100, 1000),
            4 * 100 * 8,
            "the gather's own output"
        );
        // Marking steps neither adds nor removes any.
        for (k, p) in plan.kernels.iter().zip(&plan.programs) {
            assert_eq!(p.steps.len(), k.nodes.len() + k.recompute.len());
        }
    }

    #[test]
    fn the_score_gradient_streams_into_both_vertex_sums() {
        // The attention-score gradient: the `E[heads]` `unary_bwd` feeds a
        // `BySrc` gather and a `ByDst` one. The `ByDst` sum joins its
        // segment and the segment joins the `BySrc` gather, so the
        // gradient is a tile slot and no edge row spills. (The feature
        // gradient stays a kernel of its own here: it adds the score
        // path's projected gradient, which a dense kernel makes from this
        // one's sums, so merging the two would close a cycle.)
        let plan = compile(&gat_training_ir(), true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let (prog, grad) = owned_step(&plan, |n| matches!(n.kind, OpKind::UnaryBwd(_)));
        assert_eq!(grad.storage, Storage::Scratch);
        let readers: Vec<&ProgramStep> = prog
            .steps
            .iter()
            .filter(|s| plan.ir.node(s.node).inputs.contains(&grad.node))
            .collect();
        assert_eq!(readers.len(), 2);
        for r in readers {
            assert_eq!(r.segment, grad.segment);
            assert_ne!(
                r.storage,
                Storage::Scratch,
                "each sum is a sink of the unit"
            );
        }
        let unit = &prog.units[grad.stage];
        assert_eq!(unit.kind, UnitKind::Streamed);
        let spill = |s: &&ProgramStep| (s.storage, s.space) == (Storage::Interior, Space::Edge);
        assert_eq!(prog.steps.iter().filter(spill).count(), 0);
    }

    #[test]
    fn a_chain_holding_a_softmax_streams() {
        // The softmax sweeps each destination group three times for its
        // max and denominator, and a tile owns whole groups: the `BySrc`
        // gather behind it takes the chain, softmax and all, instead of
        // reading a spilled tensor.
        let mut g = IrGraph::new();
        let a = g.input_vertex("a", Dim::flat(1));
        let h = g.input_vertex("h", Dim::flat(4));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Add), a, a).unwrap();
        let sm = g.edge_softmax(e).unwrap();
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, sm).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, me).unwrap();
        g.mark_output(v);
        let plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        assert_eq!(plan.kernels.len(), 1);
        let prog = &plan.programs[0];
        let step = |id: NodeId| prog.steps.iter().find(|s| s.node == id).unwrap();
        assert!(!step(sm).recompute);
        assert_eq!(step(me).storage, Storage::Scratch);
        assert!(prog.streamed().any(|s| s.node == sm));
        assert_eq!(prog.interior_full_bytes(10, 100), 0);
    }

    #[test]
    fn compile_populates_programs_for_fused_kernels() {
        let compiled = compile(&gat_training_ir(), true, &CompileOptions::ours()).unwrap();
        let plan = &compiled.plan;
        assert_eq!(plan.programs.len(), plan.kernels.len());
        // Programs agree with the plan's own materialization analysis.
        for (k, prog) in plan.kernels.iter().zip(&plan.programs) {
            let predicted: HashSet<NodeId> = plan.materialized_nodes(k).into_iter().collect();
            let got: HashSet<NodeId> = prog.materialized().collect();
            assert_eq!(got, predicted, "kernel {} materialization", k.id);
        }
    }

    #[test]
    fn gather_max_backward_lowers_as_tiled_step() {
        // Either dual, after either grouping.
        for group in [EdgeGroup::ByDst, EdgeGroup::BySrc] {
            for reduce in [ReduceFn::Max, ReduceFn::Mean] {
                let mut g = IrGraph::new();
                let h = g.input_vertex("h", Dim::flat(4));
                let w = g.param("w", 4, 4);
                let hw = g.linear(h, w).unwrap();
                let e = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
                let v = g.gather(reduce, group, e).unwrap();
                g.mark_output(v);
                let plan = compile(&g, true, &CompileOptions::ours()).unwrap().plan;
                let units = plan.programs.iter().flat_map(|p| &p.units);
                let (unit, op) = units
                    .flat_map(|u| u.ops.iter().map(move |op| (u, op)))
                    .find(|(_, op)| {
                        matches!(
                            op.kind,
                            OpKind::GatherMaxBwd { .. } | OpKind::GatherMeanBwd { .. }
                        )
                    })
                    .expect("the backward plan holds the dual");
                // An edge row is its group vertex's gradient row: the
                // tile loop — a tile unit, or the walk the by-source sum
                // of the rows streams — reads it at that endpoint,
                // whichever it is.
                let at = match group {
                    EdgeGroup::ByDst => RowAt::DstV,
                    EdgeGroup::BySrc => RowAt::SrcV,
                };
                let what = format!("{reduce:?} {group:?}");
                assert_ne!(unit.kind, UnitKind::Dense, "{what}");
                assert_eq!(op.srcs[0].at, at, "{what}");
            }
        }
    }

    #[test]
    fn by_src_reduction_becomes_full_step_and_spills_its_input() {
        // A BySrc gather cannot tile by destination ranges: it becomes a
        // whole-graph full step, and an edge intermediate it shares with
        // a tiled reader the walk cannot take — a by-destination max,
        // whose argmax table a tile unit chunks by tile — is spilled to a
        // kernel-transient tensor, while the rest of the chain stays in
        // scratch.
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let ew = g.input_edge("ew", Dim::flat(4));
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, ew).unwrap();
        let v = g.gather(ReduceFn::Max, EdgeGroup::BySrc, me).unwrap();
        let d = g.gather(ReduceFn::Max, EdgeGroup::ByDst, me).unwrap();
        g.mark_output(v);
        g.mark_output(d);
        let plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        assert_eq!(plan.kernels.len(), 1);
        let prog = &plan.programs[0];
        let step = |id: NodeId| prog.steps.iter().find(|s| s.node == id).unwrap();
        assert_eq!(step(v).exec, StepExec::Full);
        assert_eq!(step(v).storage, Storage::Materialized);
        assert_eq!(
            step(me).storage,
            Storage::Interior,
            "spilled full-step input"
        );
        assert_eq!(step(hu).storage, Storage::Scratch, "rest stays on-chip");
        assert!(step(v).segment > step(me).segment);
        assert_eq!(prog.streamed().count(), 0);
    }

    #[test]
    fn a_by_src_max_streams_its_chain_unfolded() {
        // A max is streamed like a sum: its one-consumer chain joins its
        // segment as scratch, but the product is row-sized, not folded —
        // the first-wins update compares whole rows.
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let ew = g.input_edge("ew", Dim::flat(4));
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, ew).unwrap();
        let v = g.gather(ReduceFn::Max, EdgeGroup::BySrc, me).unwrap();
        g.mark_output(v);
        let plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        let prog = &plan.programs[0];
        let step = |id: NodeId| prog.steps.iter().find(|s| s.node == id).unwrap();
        assert_eq!(step(me).storage, Storage::Scratch);
        assert_eq!(step(me).segment, step(v).segment);
        let unit = &prog.units[0];
        assert_eq!(unit.kind, UnitKind::Streamed);
        let product = unit
            .ops
            .iter()
            .find(|op| op.kind == OpKind::Binary(BinaryFn::Mul));
        assert_eq!(product.map(|op| op.size), Some(SlotSize::Row));
    }

    #[test]
    fn singleton_kernels_lower_to_one_step_programs() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        g.mark_output(e);
        let plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        assert_eq!(plan.programs.len(), plan.kernels.len());
        let prog = &plan.programs[0];
        assert_eq!(prog.steps.len(), 1);
        // A tile op like any other: its sink is the output tensor.
        assert_eq!(
            (prog.steps[0].storage, prog.steps[0].exec),
            (Storage::Materialized, StepExec::Tiled)
        );
    }

    #[test]
    fn a_lone_by_src_sum_is_a_streamed_segment_with_an_empty_chain() {
        let mut g = IrGraph::new();
        let e = g.input_edge("e", Dim::flat(4));
        let v = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, e).unwrap();
        g.mark_output(v);
        let plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        let prog = &plan.programs[0];
        assert_eq!(prog.steps.len(), 1);
        assert!(is_streamed_gather(&plan.ir.node(prog.steps[0].node).kind));
        assert_eq!(prog.streamed().count(), 0);
        let dump = crate::display::dump_programs(&plan);
        assert!(dump.contains("stage 0, seg 1 (streamed unit):"), "{dump}");
        let unit = &prog.units[0];
        assert_eq!((unit.kind, unit.ops.len()), (UnitKind::Streamed, 1));
        assert_eq!(
            prog.inputs,
            vec![(e, 0)],
            "the edge input is last read at stage 0"
        );
    }
}
