//! Static memory planning: liveness-driven arena layout for an
//! [`ExecutionPlan`].
//!
//! The paper's thesis is that computation, IO and **memory** must be
//! coordinated; this pass closes the memory leg. Fusion (§5) and
//! recomputation (§6) decide *which* intermediates exist — the lowered
//! programs (total since PR 7) enumerate every tensor a step will ever
//! hold together with its storage class, streamed steps included
//! (`lower.rs`, "Streamed segments"). This module walks those programs
//! in execution order, derives each tensor's `[birth, death]` interval
//! from the same external-reader analysis the executor evicts by, and
//! lays the intervals out in one arena.
//!
//! # Positions are stages
//!
//! A position is one *stage* of one kernel launch — one of its
//! segments — numbered in execution order
//! (`lower.rs`, "The stage table"; [`MemoryPlan::kernel_positions`]). A
//! tensor a step produces is born at the step's stage — the interpreter
//! allocates a segment's sinks when the segment starts, not before — and
//! a value whose last external reader is kernel `k` dies at the last
//! stage of `k` that reads it ([`KernelProgram::inputs`]): the
//! interpreter frees it there, so the buffer serves what later segments
//! of the same launch produce. Interior spills and recomputed values last
//! until their kernel's final stage; a boundary value nothing reads,
//! likewise.
//!
//! # One fit rule: size classes
//!
//! A request is served only by a buffer of its own **size class** — its
//! exact byte size — here and in the runtime pool
//! (`gnnopt_tensor::pool`) alike. So the arena is
//! `Σ_class (peak concurrently live) × class bytes` whatever order
//! requests arrive in at run time: no small tensor can pin a large
//! buffer, no large request can find its buffer taken by a small one,
//! and every region's granted size *is* its request. Each class owns a
//! contiguous run of equal slots; a region is `(class, slot)`, and maps
//! 1:1 onto a reusable pool buffer.
//!
//! # What is planned
//!
//! Everything the session's step takes from the pool's store lists:
//!
//! * [`Storage::Materialized`] values cross kernel boundaries and live
//!   in the session store — regions spanning birth to last external
//!   reader (model outputs, stashes, leaves and parameter gradients are
//!   *persistent*: their regions never free).
//! * [`Storage::Interior`] values exist only inside one fused launch —
//!   single-position regions — as do recomputed values, at each backward
//!   kernel that rebuilds them, and the views a unit stages whole
//!   ([`crate::lower::Unit::views`]), at that unit's stage.
//! * The `u32` argmax table of every `Gather(Max)`: a different element
//!   type, so listed in [`MemoryPlan::argmax_tables`] (the session seeds
//!   the pool's `u32` list with them) instead of laid out in the arena.
//!
//! Tiled [`Storage::Scratch`] steps stay in the per-worker tile slots
//! ([`Unit::slab_len`]); with the GEMM panels and
//! reduction partials they are the interpreter's *working buffers*,
//! which the pool keeps on a list of their own and `arena_bytes` does
//! not cover (a few MB on the benchmark's RMAT-16 workloads; README,
//! "Static memory planner").
//!
//! [`Unit::slab_len`]: crate::lower::Unit::slab_len
//! [`KernelProgram::inputs`]: crate::lower::KernelProgram::inputs

use crate::ir::Phase;
use crate::lower::{Data, FullSource, Storage};
use crate::op::{Dim, NodeId, OpKind, ReduceFn, Space};
use crate::plan::ExecutionPlan;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Death marker for values that live until session reset.
pub const PERSISTENT: usize = usize::MAX;

/// The executor's liveness analysis, shared verbatim between
/// `gnnopt-exec`'s session (which evicts by it) and the memory planner
/// (which lays buffers out by it). One source of truth: a divergence
/// would let the planner alias a buffer the executor still reads.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Last kernel that reads each node from *outside* the kernel that
    /// computes it (recompute members count as internal readers).
    pub last_reader: HashMap<NodeId, usize>,
    /// Values that survive to session reset: model outputs, stashed
    /// tensors, leaves, parameter gradients.
    pub persistent: HashSet<NodeId>,
    /// Eviction lists: `kernel_deaths[k]` are the kernel-owned,
    /// non-persistent nodes whose last external reader is kernel `k`
    /// (or that nothing reads at all).
    pub kernel_deaths: Vec<Vec<NodeId>>,
}

/// Computes [`Liveness`] for a plan.
#[must_use]
pub fn liveness(plan: &ExecutionPlan) -> Liveness {
    let mut last_reader: HashMap<NodeId, usize> = HashMap::new();
    for k in &plan.kernels {
        let members: HashSet<NodeId> = k.nodes.iter().chain(&k.recompute).copied().collect();
        for &nid in k.nodes.iter().chain(&k.recompute) {
            for &i in &plan.ir.node(nid).inputs {
                if !members.contains(&i) {
                    let e = last_reader.entry(i).or_insert(k.id);
                    *e = (*e).max(k.id);
                }
            }
        }
    }

    let mut persistent: HashSet<NodeId> = plan.ir.outputs().iter().copied().collect();
    persistent.extend(plan.stash.iter().copied());
    for n in plan.ir.nodes() {
        if matches!(
            n.kind,
            OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed
        ) {
            persistent.insert(n.id);
        }
    }
    for &(_, g) in &plan.param_grads {
        persistent.insert(g);
    }

    let node_kernel = plan.node_kernel();
    let mut kernel_deaths: Vec<Vec<NodeId>> = vec![Vec::new(); plan.kernels.len()];
    for n in plan.ir.nodes() {
        if persistent.contains(&n.id) {
            continue;
        }
        let Some(&birth) = node_kernel.get(&n.id) else {
            continue;
        };
        let death = last_reader.get(&n.id).copied().unwrap_or(birth).max(birth);
        kernel_deaths[death].push(n.id);
    }

    Liveness {
        last_reader,
        persistent,
        kernel_deaths,
    }
}

/// The phase a kernel executes in: backward iff any member node is a
/// backward op (kernels never mix phases).
#[must_use]
pub fn kernel_phase(plan: &ExecutionPlan, kid: usize) -> Phase {
    if plan.kernels[kid]
        .nodes
        .iter()
        .any(|&n| plan.ir.node(n).phase == Phase::Backward)
    {
        Phase::Backward
    } else {
        Phase::Forward
    }
}

/// One planned arena region: a tensor's offset assignment plus the
/// lifetime interval that justified it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRegion {
    /// The IR node whose value occupies the region.
    pub node: NodeId,
    /// Byte offset of the region in the arena.
    pub offset: u64,
    /// Size of the granted region in bytes: the region's size class,
    /// which under the one fit rule equals `request` (checked by the
    /// plan-invariant suite).
    pub bytes: u64,
    /// Bytes the tensor actually needs.
    pub request: u64,
    /// First execution position (a stage of a kernel launch, module
    /// docs) at which the value exists. Leaves are born at position 0
    /// (the gradient seed at the first backward position).
    pub birth: usize,
    /// Last position at which the value is read ([`PERSISTENT`] for
    /// values that survive to reset). Inclusive.
    pub death: usize,
}

/// The planner's product: one arena, every store-resident tensor at a
/// fixed offset.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlan {
    /// Total arena size: the allocator's high-water mark.
    pub arena_bytes: u64,
    /// `(node, offset, bytes)` per planned tensor, in planning order.
    /// A node recomputed at several backward kernels appears once per
    /// re-materialization.
    pub offsets: Vec<(NodeId, u64, u64)>,
    /// Full per-region detail (lifetimes, granted sizes) for display
    /// and the invariant suites.
    pub regions: Vec<MemRegion>,
    /// `(node, bytes)` of the `u32` argmax table every `Gather(Max)`
    /// step fills: seeded into the pool's `u32` list, not part of the
    /// arena.
    pub argmax_tables: Vec<(NodeId, u64)>,
    /// Number of execution positions the intervals index into.
    pub positions: usize,
    /// Per kernel id, its positions.
    kernel_span: Vec<std::ops::Range<usize>>,
}

impl MemoryPlan {
    /// The positions of kernel `kid`'s launch: one per segment.
    #[must_use]
    pub fn kernel_positions(&self, kid: usize) -> std::ops::Range<usize> {
        self.kernel_span[kid].clone()
    }

    /// The arena by size class: `(class bytes, buffers)` ascending, one
    /// buffer per distinct offset. `arena_bytes` is the sum of the
    /// products; sessions seed the buffer pool with exactly these so the
    /// first step already finds every store buffer.
    #[must_use]
    pub fn classes(&self) -> Vec<(u64, usize)> {
        let slots: BTreeSet<(u64, u64)> =
            self.regions.iter().map(|r| (r.bytes, r.offset)).collect();
        let mut out: Vec<(u64, usize)> = Vec::new();
        for (bytes, _) in slots {
            match out.last_mut() {
                Some((b, n)) if *b == bytes => *n += 1,
                _ => out.push((bytes, 1)),
            }
        }
        out
    }

    /// The maximum over positions of the sum of live `request` bytes —
    /// the tightest arena any allocator could achieve. `arena_bytes` is
    /// always ≥ this (checked by the plan-invariant suite).
    #[must_use]
    pub fn peak_live_bytes(&self) -> u64 {
        (0..self.positions)
            .map(|p| {
                self.regions
                    .iter()
                    .filter(|r| r.birth <= p && (r.death == PERSISTENT || p <= r.death))
                    .map(|r| r.request)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}

/// Bytes of a node's full value on a graph with `nv` vertices and `ne`
/// edges.
fn node_bytes(plan: &ExecutionPlan, nid: NodeId, nv: usize, ne: usize) -> u64 {
    let n = plan.ir.node(nid);
    bytes(n.space, n.dim, nv, ne)
}

/// Bytes of a `dim` tensor in `space`.
fn bytes(space: Space, dim: Dim, nv: usize, ne: usize) -> u64 {
    let rows = match space {
        Space::Vertex => nv,
        Space::Edge => ne,
        Space::Param => 1,
    };
    4 * rows as u64 * dim.total() as u64
}

/// Plans the arena for `plan` executed on a graph of `nv` vertices and
/// `ne` edges, under the program interpreter's storage classes.
///
/// The result is advisory for correctness (the runtime pool degrades to
/// plain allocation on any miss) but exact for capacity: the planned
/// regions are precisely the buffers a steady-state step cycles
/// through, so `arena_bytes` bounds the store's working set and
/// [`MemoryPlan::classes`] pre-seeds the pool.
///
/// `_fused` is ignored: it survives only because the frozen
/// `src/bin/gnnbench` passes it, and goes when a `benchmark` PR drops it.
#[must_use]
pub fn plan_memory(plan: &ExecutionPlan, nv: usize, ne: usize, _fused: bool) -> MemoryPlan {
    let lv = liveness(plan);

    // Execution order: forward kernels in plan order, then backward.
    let mut order: Vec<usize> = Vec::new();
    for k in &plan.kernels {
        if kernel_phase(plan, k.id) == Phase::Forward {
            order.push(k.id);
        }
    }
    let fwd_count = order.len();
    for k in &plan.kernels {
        if kernel_phase(plan, k.id) == Phase::Backward {
            order.push(k.id);
        }
    }
    // Positions: each kernel's stages, in execution order.
    let mut kernel_span = vec![0..0; plan.kernels.len()];
    let mut positions = 0;
    for &kid in &order {
        let stages = plan.programs.get(kid).map_or(1, |p| p.units.len());
        kernel_span[kid] = positions..positions + stages;
        positions += stages;
    }
    let last_pos = |kid: usize| kernel_span[kid].end - 1;
    let first_bwd_pos = order
        .get(fwd_count)
        .map_or(positions, |&k| kernel_span[k].start);
    let positions = positions.max(1);

    // The store-resident intervals: (node, request bytes, birth, death).
    let mut intervals: Vec<(NodeId, u64, usize, usize)> = Vec::new();
    let mut argmax_tables: Vec<(NodeId, u64)> = Vec::new();

    // Leaves are bound before the first kernel; the gradient seed
    // arrives at the start of the backward phase.
    for n in plan.ir.nodes() {
        match n.kind {
            OpKind::InputVertex | OpKind::InputEdge | OpKind::Param => {
                intervals.push((n.id, node_bytes(plan, n.id, nv, ne), 0, PERSISTENT));
            }
            OpKind::GradSeed if plan.training => {
                let birth = first_bwd_pos.min(positions - 1);
                intervals.push((n.id, node_bytes(plan, n.id, nv, ne), birth, PERSISTENT));
            }
            _ => {}
        }
    }

    // The death position of a kernel-owned node born at position `p`:
    // the last stage of its last external reader that reads it.
    let death_pos = |nid: NodeId, kid: usize, p: usize| -> usize {
        if lv.persistent.contains(&nid) {
            return PERSISTENT;
        }
        let reader = lv.last_reader.get(&nid).copied().filter(|&k| k > kid);
        let read_at = reader.and_then(|k| {
            let inputs = &plan.programs.get(k)?.inputs;
            let (_, stage) = inputs.iter().find(|&&(i, _)| i == nid)?;
            Some(kernel_span[k].start + stage)
        });
        let mut d = read_at.unwrap_or_else(|| last_pos(kid)).max(p);
        // Training drops every non-persistent forward value at the
        // forward→backward boundary (recomputation rebuilds what the
        // backward phase needs), so no forward interval outlives it.
        if plan.training && plan.ir.node(nid).phase == Phase::Forward {
            d = d.min(first_bwd_pos.saturating_sub(1).max(p));
        }
        d
    };

    for &kid in &order {
        // A plan without programs (hand-assembled before lowering) gets
        // no regions; the session refuses it at the first kernel.
        let Some(program) = plan.programs.get(kid) else {
            continue;
        };
        for s in &program.steps {
            let p = kernel_span[kid].start + s.stage;
            // The aux store a max-gather's argmax table enters empty at
            // session reset.
            if let OpKind::Gather {
                reduce: ReduceFn::Max,
                ..
            } = plan.ir.node(s.node).kind
            {
                argmax_tables.push((s.node, 4 * nv as u64 * s.cols as u64));
            }
            let death = match s.storage {
                // Tiled rows in per-worker slots (every scratch-class
                // step is tiled; streamed steps are among them).
                Storage::Scratch => continue,
                // A recomputed persistent value is still in the store
                // and is read from there.
                _ if s.recompute && lv.persistent.contains(&s.node) => continue,
                // Launch-transient: recomputed values, interior spills.
                Storage::Interior => last_pos(kid),
                _ if s.recompute => last_pos(kid),
                Storage::Materialized => death_pos(s.node, kid, p),
            };
            intervals.push((s.node, node_bytes(plan, s.node, nv, ne), p, death));
        }
        // A staged view lives for its unit's stage.
        for unit in &program.units {
            let p = kernel_span[kid].start + unit.stage;
            for v in &unit.views {
                let node = match v.srcs[0].data {
                    Data::Full(FullSource::Step(si)) => program.steps[si].node,
                    Data::Full(FullSource::Value(id)) => id,
                    _ => unreachable!("a view stages a stored tensor"),
                };
                let bytes = bytes(v.space, Dim::flat(v.cols), nv, ne);
                intervals.push((node, bytes, p, p));
            }
        }
    }

    // The one fit rule (module docs), in birth order: a request takes a
    // free slot of its size class or opens a new one, so a class holds
    // exactly as many slots as were ever live in it at once.
    #[derive(Default)]
    struct Class {
        slots: u64,
        free: Vec<u64>,
        live: Vec<(usize, u64)>, // (death, slot)
    }
    let mut classes: BTreeMap<u64, Class> = BTreeMap::new();
    let mut regions = Vec::with_capacity(intervals.len());
    intervals.sort_by_key(|&(_, _, birth, _)| birth);
    for &(node, request, birth, death) in intervals.iter().filter(|i| i.1 > 0) {
        let Class { slots, free, live } = classes.entry(request).or_default();
        live.retain(|&(d, slot)| {
            let alive = d >= birth;
            if !alive {
                free.push(slot);
            }
            alive
        });
        let slot = free.pop().unwrap_or(*slots);
        *slots = (*slots).max(slot + 1);
        live.push((death, slot));
        regions.push(MemRegion {
            node,
            offset: slot, // rebased onto the class's run below
            bytes: request,
            request,
            birth,
            death,
        });
    }
    // Classes sit back to back in ascending size order.
    let mut arena_bytes = 0u64;
    for (&bytes, class) in &classes {
        for r in regions.iter_mut().filter(|r| r.bytes == bytes) {
            r.offset = arena_bytes + r.offset * bytes;
        }
        arena_bytes += class.slots * bytes;
    }

    MemoryPlan {
        arena_bytes,
        offsets: regions
            .iter()
            .map(|r| (r.node, r.offset, r.request))
            .collect(),
        regions,
        argmax_tables,
        positions,
        kernel_span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrGraph;
    use crate::op::{BinaryFn, Dim, EdgeGroup, ReduceFn, ScatterFn};
    use crate::pipeline::{compile, CompileOptions};

    fn toy_plan(training: bool) -> ExecutionPlan {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let p = g.linear(h, w).unwrap();
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), p, p).unwrap();
        let sm = g.edge_softmax(e).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, sm).unwrap();
        g.mark_output(v);
        compile(&g, training, &CompileOptions::ours()).unwrap().plan
    }

    fn overlap(a: &MemRegion, b: &MemRegion) -> bool {
        let live =
            |r: &MemRegion, p: usize| r.birth <= p && (r.death == PERSISTENT || p <= r.death);
        (0..usize::MAX).take(64).any(|p| live(a, p) && live(b, p))
            && a.offset < b.offset + b.bytes
            && b.offset < a.offset + a.bytes
    }

    #[test]
    fn liveness_matches_kernel_count() {
        let plan = toy_plan(true);
        let lv = liveness(&plan);
        assert_eq!(lv.kernel_deaths.len(), plan.kernels.len());
        for deaths in &lv.kernel_deaths {
            for n in deaths {
                assert!(!lv.persistent.contains(n));
            }
        }
    }

    #[test]
    fn regions_never_alias_while_both_live() {
        for training in [false, true] {
            let plan = toy_plan(training);
            let mp = plan_memory(&plan, 16, 48, true);
            assert!(mp.arena_bytes > 0);
            assert!(mp.arena_bytes >= mp.peak_live_bytes());
            for (i, a) in mp.regions.iter().enumerate() {
                for b in &mp.regions[i + 1..] {
                    assert!(
                        !overlap(a, b),
                        "alias: {a:?} vs {b:?} (training={training})"
                    );
                }
            }
        }
    }

    #[test]
    fn persistent_values_keep_dedicated_regions() {
        let plan = toy_plan(true);
        let mp = plan_memory(&plan, 16, 48, true);
        let out = plan.ir.outputs()[0];
        let r = mp
            .regions
            .iter()
            .find(|r| r.node == out)
            .expect("output planned");
        assert_eq!(r.death, PERSISTENT);
        // Nothing else may share bytes with a persistent region.
        for other in mp.regions.iter().filter(|o| o.offset == r.offset) {
            assert_eq!(other.node, r.node);
        }
    }

    #[test]
    fn buffers_cover_every_offset() {
        let plan = toy_plan(true);
        let mp = plan_memory(&plan, 16, 48, true);
        let classes = mp.classes();
        let distinct: std::collections::HashSet<u64> =
            mp.regions.iter().map(|r| r.offset).collect();
        assert_eq!(
            classes.iter().map(|&(_, n)| n).sum::<usize>(),
            distinct.len()
        );
        let total: u64 = classes.iter().map(|&(b, n)| b * n as u64).sum();
        assert_eq!(total, mp.arena_bytes);
    }
}
