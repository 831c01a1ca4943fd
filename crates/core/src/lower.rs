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
//!   exists in memory;
//! * [`Storage::Prelude`] — a parameter-space view (weight slice /
//!   reshape) computed once per kernel launch; it is `O(params)`, not
//!   graph-sized, so tiling it would be pointless.
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
//! full tensor that lives only for the duration of the kernel. This is
//! how a fused GAT backward kernel keeps its softmax-backward chain in
//! scratch while its two vertex-gradient gathers (`ByDst` and `BySrc`)
//! both still execute.
//!
//! # Streamed segments
//!
//! A whole-graph `BySrc` gather (a full step) forces its input to spill
//! as an interior tensor: the tiled segment writes `O(|E|·d)` rows the
//! full step immediately re-reads (for a 64-wide RMAT-16 layer that is
//! ~270 MB each way, the dominant backward cost of GAT and GCN). When a
//! `Gather(Sum|Mean, BySrc)` is that spill's only consumer and every
//! step of the spill's producer chain is per-edge computable from full
//! tensors — scatter broadcasts, elementwise ops, softmax recomputes from
//! their stashed statistics ([`ProgramStep::recompute`]), all read by
//! nothing outside the chain — the third lowering pass *streams* the
//! gather: the chain leaves the tiled segment it was lowered into, joins
//! the gather's segment as [`Storage::Scratch`] steps, and the
//! interpreter compiles chain and gather into one unit of its tile loop
//! (the gather accumulates `out[src(e)] += row(e)` in ascending edge
//! order, the `BySrc` order of the reference kernel). The spill never
//! exists — and because the decision is made here, the memory planner
//! never reserves it either. A vertex-space chain step is always read at
//! `dst(e)` — a source-endpoint read of a member ends the segment first
//! — so it is an ordinary tile op over the tile's destinations. A segment
//! holding tiled steps *and* a full gather is how a program says
//! "streamed" ([`KernelProgram::streamed`]); nothing at launch re-derives
//! it. A `BySrc` sum or mean with nothing to stream — its input a kernel
//! input or a spill other steps read too — is the same unit with an empty
//! chain ([`is_streamed_gather`]): the tile driver runs every one.
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
//!   tiles like any other — including the argmax-routed `GatherMaxBwd`
//!   when its forward gather grouped `ByDst` (the argmax rows of a
//!   tile's destinations select only that tile's edges);
//! * `BySrc` sums and means are [`StepExec::Full`] steps the tile loop
//!   runs as streamed gathers, each the last step of its own segment;
//! * what no destination tile can own runs as a [`StepExec::Full`] step
//!   through the op library's dense dispatch, a segment of its own: dense
//!   projections (`Linear`, `HeadDot`, and their backward duals), the
//!   cross-row parameter reductions (`GaussianBwdMu`/`GaussianBwdSigma`),
//!   row views, parameter-space compute, and the three `BySrc` ops that
//!   read or write a *complete* vertex tensor at `src(e)` (`Gather(Max,
//!   BySrc)`, its `GatherMaxBwd`, `GatherMeanBwd { BySrc }`) —
//!   `op_exec` is the one place that says which;
//! * parameter-space *views* (weight slices / reshapes of out-of-kernel
//!   values) are [`Storage::Prelude`] steps evaluated once per launch;
//! * a tiled step reading a same-segment member at the **source**
//!   endpoint starts a fresh segment (a tile only owns its destinations),
//!   which spills the producer to [`Storage::Interior`] via the ordinary
//!   cross-segment rule.

use crate::ir::IrGraph;
use crate::op::{EdgeGroup, NodeId, OpKind, ReduceFn, ScatterFn, Space};
use crate::plan::{ExecutionPlan, Kernel};
use std::collections::{HashMap, HashSet};

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
    /// Parameter-space view evaluated once per kernel launch.
    Prelude,
}

/// How a step executes within the program schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepExec {
    /// Runs inside the destination-tile loop.
    Tiled,
    /// Runs once over the whole graph: a dense or parameter step handed
    /// to the op library's dispatch, a segment of its own — or a `BySrc`
    /// sum or mean ([`is_streamed_gather`]), which the tile loop runs as
    /// the sink of its segment, behind the producer chain streamed into
    /// it, if any (module docs, "Streamed segments").
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
    /// gather, whose chain runs there with it. Segments run in ascending
    /// order (steps stay in node order, so a streamed chain's segment ids
    /// are out of step order).
    pub segment: usize,
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

    /// Upper bound on the scratch bytes one tile of `tile_vertices` ×
    /// `tile_edges` needs in segment `segment`: one slot of tile rows per
    /// tiled step, so kernel-internal values never become full tensors.
    /// The interpreter holds *less*: scratch-class pure copies
    /// (`Scatter(CopyU|CopyV)`, `SetHeads`) are aliased to reads of their
    /// source, materialized/interior steps are written into their
    /// tensors in place, and neither gets a slot; and a step whose single
    /// reader takes each row once holds a strip of a few rows instead of
    /// the tile's. What the interpreter actually held is
    /// `RunStats::scratch_bytes`; it asserts that never exceeds this.
    pub fn scratch_tile_bytes(
        &self,
        segment: usize,
        tile_vertices: usize,
        tile_edges: usize,
    ) -> u64 {
        self.steps
            .iter()
            .filter(|s| {
                s.exec == StepExec::Tiled && s.segment == segment && s.storage != Storage::Prelude
            })
            .map(|s| {
                let rows = match s.space {
                    Space::Edge => tile_edges,
                    Space::Vertex => tile_vertices,
                    Space::Param => 0,
                };
                4 * (rows as u64) * (s.cols as u64)
            })
            .sum()
    }

    /// The segment ids of the program, ascending and deduplicated
    /// (prelude steps carry no segment and are excluded).
    pub fn segments(&self) -> Vec<usize> {
        let mut segs: Vec<usize> = self
            .steps
            .iter()
            .filter(|s| s.storage != Storage::Prelude)
            .map(|s| s.segment)
            .collect();
        segs.sort_unstable();
        segs.dedup();
        segs
    }

    /// The steps streamed into a `BySrc` gather (module docs, "Streamed
    /// segments"), in step order: the tiled steps that share a segment
    /// with a full one. They hold tile slots in the gather's unit and
    /// never a full tensor.
    pub fn streamed(&self) -> impl Iterator<Item = &ProgramStep> + '_ {
        self.steps.iter().filter(|s| {
            s.exec == StepExec::Tiled
                && s.storage != Storage::Prelude
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

/// How a (non-prelude) member executes — total over every op the fusion
/// pass can put in a kernel. Leaves are never kernel members (every region
/// builder gates on `FusionClass::Leaf`), so they are unreachable here.
fn op_exec(ir: &crate::ir::IrGraph, node: &crate::ir::Node) -> StepExec {
    match &node.kind {
        OpKind::Scatter(_)
        | OpKind::EdgeSoftmax
        | OpKind::EdgeSoftmaxBwd
        | OpKind::Unary(_)
        | OpKind::UnaryBwd(_)
        | OpKind::Binary(_)
        | OpKind::GaussianWeight
        | OpKind::SliceCols { .. }
        | OpKind::EmbedCols { .. }
        | OpKind::SetHeads { .. }
        | OpKind::HeadReduce(_)
        | OpKind::HeadBroadcast { .. }
        | OpKind::FeatSum
        | OpKind::FeatBroadcast { .. } => StepExec::Tiled,
        // Source-grouped reductions are whole-graph full steps: their
        // groups are not contiguous in the destination-major edge order
        // (sums and means then stream, `is_streamed_gather`).
        OpKind::Gather { group, .. } | OpKind::GatherMeanBwd { group } => {
            if *group == EdgeGroup::ByDst {
                StepExec::Tiled
            } else {
                StepExec::Full
            }
        }
        // The argmax-routed gather-max backward tiles iff its forward
        // gather grouped by destination: the argmax rows of a tile's
        // destinations name only that tile's edges. A BySrc forward
        // scatters writes across tiles, so it runs full (edge-inverted).
        OpKind::GatherMaxBwd { fwd } => {
            if crate::view::gather_max_bwd_group(ir, *fwd) == EdgeGroup::ByDst {
                StepExec::Tiled
            } else {
                StepExec::Full
            }
        }
        // Dense projections and cross-row parameter reductions span all
        // tiles: whole-graph full steps through the dense dispatch.
        OpKind::Linear
        | OpKind::LinearBwdInput
        | OpKind::LinearBwdWeight
        | OpKind::HeadDot
        | OpKind::HeadDotBwdInput
        | OpKind::HeadDotBwdParam
        | OpKind::GaussianBwdMu
        | OpKind::GaussianBwdSigma
        | OpKind::SliceRows { .. }
        | OpKind::EmbedRows { .. } => StepExec::Full,
        OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed => {
            unreachable!("leaves are never kernel members")
        }
    }
}

/// The one full step the tile driver runs itself: a `BySrc` sum or mean
/// is `out[src(e)] += row(e)` in ascending edge order, which a walk over
/// all destination tiles does. Every other full step is a dense call.
pub fn is_streamed_gather(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Gather {
            reduce: ReduceFn::Sum | ReduceFn::Mean,
            group: EdgeGroup::BySrc,
        }
    )
}

/// The pass-1/2 classes of a kernel's members, as the streaming pass
/// reads them (prelude steps have a storage class only).
struct Classes<'a> {
    ir: &'a IrGraph,
    storage: &'a HashMap<NodeId, Storage>,
    exec: &'a HashMap<NodeId, StepExec>,
    segment: &'a HashMap<NodeId, usize>,
    recompute: &'a HashSet<NodeId>,
}

impl Classes<'_> {
    /// Walks the producer chain of a streamed-gather candidate: true when
    /// member `id`, read at `dst(e)` iff `at_dst` (the only way to reach
    /// a vertex-space step), and everything it reads from its own
    /// segment can be evaluated per edge inside the gather's tile loop.
    /// `chain` collects the walked steps, producers first.
    fn streams(&self, id: NodeId, at_dst: bool, chain: &mut Vec<NodeId>) -> bool {
        let node = self.ir.node(id);
        // Source rows belong to no destination tile (and an edge-space
        // step never reads a vertex-space one but through a scatter).
        if (node.space == Space::Vertex) != at_dst {
            return false;
        }
        if chain.contains(&id) {
            return true;
        }
        // Only tiled scratch/interior members can leave their segment:
        // materialized steps are kernel boundaries the session must
        // still receive, and full steps have whole-graph semantics.
        if self.exec.get(&id) != Some(&StepExec::Tiled)
            || !matches!(self.storage[&id], Storage::Scratch | Storage::Interior)
        {
            return false;
        }
        // Full tensors (value store, prelude views, earlier segments)
        // are readable at any row; a same-segment member is walked.
        let mut rec = |i: NodeId, at_dst: bool| {
            self.segment.get(&i) != self.segment.get(&id) || self.streams(i, at_dst, chain)
        };
        let (x, y) = (
            node.inputs[0],
            *node.inputs.last().expect("ops have inputs"),
        );
        let ok = match &node.kind {
            OpKind::Scatter(f) if node.space == Space::Edge => match f {
                ScatterFn::CopyU => rec(x, false),
                ScatterFn::CopyV => rec(y, true),
                ScatterFn::Bin(_) => rec(x, false) && rec(y, true),
                ScatterFn::ConcatUV => false,
            },
            // Per-edge only from the forward max/denominator, which a
            // recompute step finds stashed; a fresh softmax sweeps each
            // destination group three times.
            OpKind::EdgeSoftmax => self.recompute.contains(&id) && rec(x, false),
            // Elementwise steps read their operands at their own row.
            OpKind::Unary(_)
            | OpKind::UnaryBwd(_)
            | OpKind::Binary(_)
            | OpKind::SetHeads { .. }
            | OpKind::FeatSum => node.inputs.iter().all(|&i| rec(i, at_dst)),
            _ => false,
        };
        if ok {
            chain.push(id);
        }
        ok
    }
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
        if node.space == Space::Param {
            // Parameter-space *views* of out-of-kernel values (weight
            // slices / reshapes introduced by the reorganization pass)
            // are prelude steps: evaluated once per launch, `O(params)`.
            let viewish = matches!(
                node.kind,
                OpKind::SliceCols { .. } | OpKind::SliceRows { .. } | OpKind::SetHeads { .. }
            );
            let inputs_prelude = node
                .inputs
                .iter()
                .all(|i| !members.contains(i) || storage.get(i) == Some(&Storage::Prelude));
            if viewish && inputs_prelude && !materialized.contains(&id) {
                storage.insert(id, Storage::Prelude);
                continue;
            }
            // Parameter-space *compute* members (the Gaussian param
            // reductions, fused weight gradients) reduce across all rows:
            // whole-graph full steps, below.
        }
        // Non-prelude param members always run full — `O(params)` work
        // with no tile structure (and the tiled interpreter has no
        // parameter-space scratch rows).
        let e = if node.space == Space::Param {
            StepExec::Full
        } else {
            op_exec(ir, node)
        };
        if e == StepExec::Full {
            seg += 1; // a full step is its own segment …
            prev_full = true;
        } else {
            if prev_full {
                seg += 1; // … and the next tiled run starts a fresh one.
                prev_full = false;
            }
            // A tile owns destination rows only: a source-endpoint read
            // of a member still being produced in the current segment
            // forces a segment break (the producer spills in pass 2).
            let src_break = crate::view::src_side_reads(ir, id).into_iter().any(|pos| {
                let i = node.inputs[pos];
                members.contains(&i)
                    && segment.get(&i) == Some(&seg)
                    && exec.get(&i) == Some(&StepExec::Tiled)
            });
            if src_break {
                seg += 1;
            }
        }
        exec.insert(id, e);
        segment.insert(id, seg);
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
        let node = ir.node(id);
        if storage.get(&id) == Some(&Storage::Prelude) {
            continue;
        }
        for i in &node.inputs {
            if !members.contains(i) || storage.get(i) == Some(&Storage::Prelude) {
                continue;
            }
            let cross_segment = exec[&id] == StepExec::Full || segment[i] != segment[&id];
            if cross_segment && storage[i] == Storage::Scratch {
                storage.insert(*i, Storage::Interior);
            }
        }
    }

    // Pass 3: streamed gathers (module docs). A full `BySrc` sum/mean
    // whose spilled input it alone consumes, behind a per-edge computable
    // chain nothing else reads, takes the chain into its own segment.
    for &gid in &member_ids {
        let gather = ir.node(gid);
        if !is_streamed_gather(&gather.kind) {
            continue;
        }
        let root = gather.inputs[0];
        if storage.get(&root) != Some(&Storage::Interior) || ir.node(root).space != Space::Edge {
            continue;
        }
        let classes = Classes {
            ir,
            storage: &storage,
            exec: &exec,
            segment: &segment,
            recompute: &recompute,
        };
        let mut chain = Vec::new();
        if !classes.streams(root, false, &mut chain) {
            continue;
        }
        // Every chain step must be consumed inside the chain (the root,
        // by this gather alone) — otherwise its tiled segment still has
        // to produce it and nothing is saved.
        let sole = member_ids.iter().all(|&t| {
            t == gid || chain.contains(&t) || ir.node(t).inputs.iter().all(|i| !chain.contains(i))
        });
        if sole {
            for c in chain {
                segment.insert(c, segment[&gid]);
                storage.insert(c, Storage::Scratch);
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
                exec: exec.get(&id).copied().unwrap_or(StepExec::Tiled),
                segment: segment.get(&id).copied().unwrap_or(0),
                space: node.space,
                cols: node.dim.total(),
                recompute: recompute.contains(&id),
            }
        })
        .collect();

    KernelProgram {
        kernel: kernel.id,
        steps,
    }
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
        let per_tile = prog.scratch_tile_bytes(0, 8, 32);
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
        // softmax recomputed from its stashed statistics included.
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
    fn a_spill_with_two_consumers_does_not_stream() {
        // The attention-score gradient (k5 of the GAT zoo model): the
        // `E[heads]` `unary_bwd` feeds the `BySrc` full gather *and* the
        // `ByDst` tiled one, so the tiled segment has to write it anyway.
        let plan = compile(&gat_training_ir(), true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let (prog, spill) = owned_step(&plan, |n| matches!(n.kind, OpKind::UnaryBwd(_)));
        assert_eq!(spill.storage, Storage::Interior);
        assert_eq!(prog.streamed().count(), 0);
        let readers: Vec<&ProgramStep> = prog
            .steps
            .iter()
            .filter(|s| plan.ir.node(s.node).inputs.contains(&spill.node))
            .collect();
        assert_eq!(readers.len(), 2);
        assert!(readers.iter().all(|r| r.segment > spill.segment));
    }

    #[test]
    fn a_chain_holding_a_fresh_softmax_does_not_stream() {
        // Forward, the softmax sweeps each destination group three times
        // for its max and denominator: not a per-edge expression, so the
        // `BySrc` gather behind it reads a spilled tensor.
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
        assert_eq!(step(me).storage, Storage::Interior);
        assert_eq!(prog.streamed().count(), 0);
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
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let hw = g.linear(h, w).unwrap();
        let e = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
        let v = g.gather(ReduceFn::Max, EdgeGroup::ByDst, e).unwrap();
        g.mark_output(v);
        let compiled = compile(&g, true, &CompileOptions::ours()).unwrap();
        let plan = &compiled.plan;
        assert_eq!(plan.programs.len(), plan.kernels.len());
        let step = plan
            .programs
            .iter()
            .flat_map(|p| &p.steps)
            .find(|s| matches!(plan.ir.node(s.node).kind, OpKind::GatherMaxBwd { .. }))
            .expect("the backward plan contains a GatherMaxBwd step");
        // ByDst forward ⇒ the argmax routing tiles by destination.
        assert_eq!(step.exec, StepExec::Tiled);
    }

    #[test]
    fn by_src_reduction_becomes_full_step_and_spills_its_input() {
        // A BySrc gather cannot tile by destination ranges: it becomes a
        // whole-graph full step, and the edge intermediate it reads is
        // spilled to a kernel-transient tensor — while the rest of the
        // chain stays in scratch. (A max: only sums and means stream.)
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let ew = g.input_edge("ew", Dim::flat(4));
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, ew).unwrap();
        let v = g.gather(ReduceFn::Max, EdgeGroup::BySrc, me).unwrap();
        g.mark_output(v);
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
        assert!(dump.contains("seg 1 (streamed gather):"), "{dump}");
    }
}
