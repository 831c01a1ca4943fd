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
//! graph through the ordinary reference kernels (which are already
//! deterministic and thread-parallel). A scratch value read across a
//! segment boundary — in particular by a full step — is *spilled*: forced
//! to [`Storage::Interior`], a real full tensor that lives only for the
//! duration of the kernel. This is how a fused GAT backward kernel keeps
//! its softmax-backward chain in scratch while its two vertex-gradient
//! gathers (`ByDst` and `BySrc`) both still execute.
//!
//! # Totality
//!
//! Lowering is *total*: [`lower_kernel`] produces a [`KernelProgram`] for
//! every kernel the fusion pass emits — the session has no other way to
//! run a kernel. Each member's schedule follows from its per-edge
//! views ([`crate::view`]):
//!
//! * per-edge / destination-endpoint members run [`StepExec::Tiled`]
//!   inside the destination-tile loop — including the argmax-routed
//!   `GatherMaxBwd` when its forward gather grouped `ByDst` (the argmax
//!   rows of a tile's destinations select only that tile's edges);
//! * source-grouped reductions, the `BySrc`-grouped `GatherMaxBwd`, dense
//!   projections (`Linear`, `HeadDot`, and their backward duals) and the
//!   cross-row parameter reductions (`GaussianBwdMu`/`GaussianBwdSigma`)
//!   run as [`StepExec::Full`] whole-graph steps with edge-inverted or
//!   dense schedules — their own segments inside the program;
//! * parameter-space *views* (weight slices / reshapes of out-of-kernel
//!   values) are [`Storage::Prelude`] steps evaluated once per launch;
//! * a tiled step reading a same-segment member at the **source**
//!   endpoint starts a fresh segment (a tile only owns its destinations),
//!   which spills the producer to [`Storage::Interior`] via the ordinary
//!   cross-segment rule;
//! * singleton kernels lower to one-step programs, so fused execution is
//!   uniform: every kernel runs through the same program interpreter. The
//!   lone step executes [`StepExec::Full`] (direct reference dispatch —
//!   tiling a single materialized output would round-trip rows through
//!   scratch for no memory win), except `EdgeSoftmax`, which stays tiled
//!   to record its fresh max/denominator auxiliaries.

use crate::op::{EdgeGroup, NodeId, OpKind, Space};
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
    /// Runs once over the whole graph via the reference kernel (its own
    /// segment): source-grouped reductions that cannot tile by
    /// destination.
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
    /// every full step is its own segment. Segments run in ascending
    /// order.
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
    /// tensors in place, and neither gets a slot; a step whose single
    /// reader takes each row once holds a strip of a few rows instead of
    /// the tile's; and the steps streamed into a later gather are counted
    /// here, in the segment they were lowered into, though they run — in
    /// slots no larger — in the gather's. What the interpreter actually
    /// held is `RunStats::scratch_bytes`; it asserts that never exceeds
    /// this.
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
        segs.dedup();
        segs
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
        // Source-grouped reductions run as whole-graph full steps: their
        // groups are not contiguous in the destination-major edge order.
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
        // tiles: whole-graph full steps through the reference kernels.
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

    let mut steps: Vec<ProgramStep> = member_ids
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

    // A singleton program has nothing to keep on-chip: its only step's
    // output is the kernel boundary, so tiling it would round-trip every
    // row through scratch for zero memory win (measurably slower on
    // GEMM-heavy models). Run it as one direct full step through the
    // shared reference dispatch instead — except `EdgeSoftmax`, whose
    // fresh max/denominator auxiliaries only the tiled path records.
    if steps.len() == 1
        && steps[0].exec == StepExec::Tiled
        && steps[0].storage == Storage::Materialized
        && !matches!(ir.node(steps[0].node).kind, OpKind::EdgeSoftmax)
    {
        steps[0].exec = StepExec::Full;
    }

    KernelProgram {
        kernel: kernel.id,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrGraph;
    use crate::op::{BinaryFn, Dim, ReduceFn, ScatterFn, UnaryFn};
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
        // chain stays in scratch.
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let ew = g.input_edge("ew", Dim::flat(4));
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, ew).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::BySrc, me).unwrap();
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
        assert_eq!(prog.steps[0].storage, Storage::Materialized);
    }
}
