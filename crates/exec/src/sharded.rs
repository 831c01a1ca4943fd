//! Single-process edge-cut sharded execution with halo exchange.
//!
//! A [`ShardedSession`] splits the CSR graph into `k` vertex shards (a
//! [`Partition`] grown by [`Partition::edge_cut_bfs`], the one
//! partitioner), builds one fully planned [`Session`] per shard over
//! that shard's *local subgraph* — its own memory plan, its own arena,
//! its own buffer pool — and drives the plan's kernels
//! across the shards with explicit **halo exchanges** in between, the
//! execution structure of distributed GNN systems reproduced inside one
//! process. Results are **bit-identical** to the unsharded session for
//! any shard count: outputs, and, for training plans, every parameter
//! gradient (enforced by the shard-equivalence property suite).
//!
//! # Local subgraphs and validity
//!
//! Shard `s` keeps every edge whose *destination* it owns, plus — when
//! the IR contains a source-grouped reduction — every edge whose
//! *source* it owns (replicated cut edges). Local vertex ids enumerate
//! the shard's owned vertices plus all endpoints of kept edges in
//! ascending global order; the relabeling is monotone, so the local
//! CSR's canonical `(dst, src)` edge order is the global order
//! restricted to the kept edges and every per-destination reduction
//! runs in exactly the unsharded accumulation order — that is where
//! bit-identity comes from.
//!
//! A replica exists for the *other* endpoint's reductions: a cut edge
//! kept for its source completes that source's by-source groups, and
//! nothing else. So a shard reduces only the groups it owns — each shard
//! session holds its owned-vertex set, and the tile driver's `Sum` /
//! `Mean` gathers skip every other destination (by-destination) or
//! source (streamed by-source), leaving those rows zero. They are
//! exactly the rows the classifier below holds never valid (a
//! reduction clears the halo), so no exchange, plan or owned bit
//! changes; every edge is reduced once each way
//! ([`ShardSummary::dst_reduced_edges`] / `src_reduced_edges` sum to
//! `|E|`).
//!
//! A shard's copy of a value is only *authoritative* on some rows: a
//! vertex value on its owned rows (always), a `ByDst`-anchored edge
//! value (an edge softmax, say) on rows whose destination it owns. The
//! build-time classifier tracks these validity bits per value through
//! the IR's [`gnnopt_core::view`]s — endpoint reads need valid halo
//! rows, group-anchored consumers need group-complete operand rows —
//! and plans the minimal exchange before each kernel. There is no
//! per-op logic: any op the IR can express classifies by its views.
//!
//! # Kernel classification
//!
//! Every kernel of the plan is classified once at build time, into one
//! of two classes — and either way it runs through the program
//! interpreter (`fused.rs`), the only executor there is:
//!
//! * **Sharded** — runs whole on every shard, through that shard
//!   session's interpreter, after zero or more pre-exchanges. The common
//!   case: a GCN layer costs one vertex-halo exchange and then runs
//!   entirely locally.
//! * **Global** — parameter-gradient reductions (`Xᵀ·G` and friends)
//!   reduce over *all* rows; re-associating them per shard would break
//!   bit-identity, so the driver gathers the external operands of the
//!   kernel's program from their authoritative rows, interprets the
//!   program once on the full graph, and scatters back what the program
//!   materializes — nothing kernel-internal becomes a tensor or crosses
//!   shards.
//!
//! # Cutting a kernel
//!
//! A whole kernel can only exchange values that exist before it starts.
//! A kernel mixing incompatibly-anchored group ops — GAT's fused
//! backward, where a `ByDst`-anchored softmax gradient feeds a `BySrc`
//! reduction — needs replica rows of a value it produces itself: when
//! the validity simulation of kernel `k` finds that member `n` needs
//! such rows, the builder **cuts** `k` before `n`
//! ([`ExecutionPlan::cut_kernel`]: two kernels, each recomputing what
//! its own members read, programs lowered afresh) and classifies the
//! derived plan again, until every kernel fits. The value `n` needed is
//! then an ordinary materialized output of the first piece, patched by
//! an ordinary pre-exchange of the second; the shards plan their arenas
//! from the same derived plan, so the planned arena covers it. This
//! happens once, at build; a plan with nothing to cut (every GCN, GIN
//! or SAGE-mean plan) is used as the caller lent it. A cut that would
//! leave a piece without a member is a typed [`ExecError::Protocol`]
//! (no plan `compile` produces asks for one: recomputable ops carry no
//! `BySrc` anchor and no reduction). Exchange records keep naming the
//! kernels of the caller's plan.
//!
//! Every exchange is recorded ([`ExchangeRecord`]) and aggregated into
//! [`RunStats`]: `comm_bytes`, `halo_vertices`, `cut_edges`,
//! `halo_exchanges` — the per-layer communication profile the sharding
//! bench reports.
//!
//! # Choosing the shard count
//!
//! The shard count has one source: [`ShardedSessionBuilder::shards`],
//! else `1`. A count of `1` builds a plain [`Session`] — no
//! partitioning, no maps, no overhead.

use crate::session::{
    check_shape, kernel_label, scan_nonfinite, Bindings, EnvOverrides, Held, RunStats, Session,
};
use crate::{contain, fused, ExecError, Result};
use gnnopt_core::fault;
use gnnopt_core::memplan::{self, Liveness};
use gnnopt_core::view::{self, View};
use gnnopt_core::{EdgeGroup, ExecPolicy, ExecutionPlan, IrGraph, NodeId, OpKind, Phase, Space};
use gnnopt_graph::{EdgeList, Graph, Partition};
use gnnopt_tensor::{rowops, Tensor};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// What a recorded inter-shard exchange moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Vertex rows a shard reads through an edge endpoint but does not
    /// own, pulled from their owner shards.
    VertexHalo,
    /// Replicated cut-edge rows patched from the shard owning the
    /// anchoring endpoint.
    EdgeReplica,
    /// Authoritative rows gathered into a full tensor for a global
    /// (parameter-reduction) kernel.
    GlobalGather,
    /// A global kernel's results scattered back into the shard stores.
    GlobalScatter,
}

/// One inter-shard data movement performed during a step.
#[derive(Debug, Clone)]
pub struct ExchangeRecord {
    /// Kernel the exchange ran for.
    pub kernel: usize,
    /// Whether that kernel is a backward kernel.
    pub backward: bool,
    /// Name of the IR value moved.
    pub value: String,
    /// Rows moved (across all shards).
    pub rows: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// What kind of movement this was.
    pub kind: ExchangeKind,
}

/// Per-shard size figures for inspection tools and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Vertices of the local subgraph (owned + halo).
    pub num_vertices: usize,
    /// Edges of the local subgraph (dst-owned + replicated).
    pub num_edges: usize,
    /// Edges the shard's by-destination reductions run over: those whose
    /// destination it owns.
    pub dst_reduced_edges: usize,
    /// Edges its by-source reductions run over: those whose source it
    /// owns (every such edge is local when the plan has one).
    pub src_reduced_edges: usize,
    /// Vertices this shard owns.
    pub owned_vertices: usize,
    /// Halo rows: local vertices owned elsewhere that exchanges fill.
    pub halo_rows: usize,
    /// Arena bytes the shard's own memory plan laid out.
    pub arena_bytes: u64,
}

// ---------------------------------------------------------------------
// Build-time classification: validity bits simulated through the views.
// ---------------------------------------------------------------------

/// Which rows of a shard's copy of a value are authoritative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bits {
    /// Owned rows are always valid; `halo` says the non-owned endpoint
    /// rows currently hold their owners' values too.
    Vertex { halo: bool },
    /// `dst`: rows whose destination the shard owns are valid; `src`:
    /// rows whose source it owns are valid. Production and the forced
    /// exchange below keep at least one bit set.
    Edge { dst: bool, src: bool },
    /// Parameter values are replicated whole — always valid.
    Param,
}

/// A validity requirement one input read places on a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Vertex value: halo rows must hold owner values (endpoint read).
    Halo,
    /// Edge value: rows anchored at this endpoint group must be valid
    /// (group-complete consumer).
    Anchor(EdgeGroup),
}

/// Which replica rows an edge patch fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatchSide {
    /// Fill dst-owned cut rows from their source owners.
    Dst,
    /// Fill src-owned cut rows from their destination owners.
    Src,
}

/// A planned inter-shard exchange of one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExOp {
    /// Fill the union halo rows of a vertex value from its owners.
    VertexHalo(NodeId),
    /// Patch one side's replicated cut-edge rows of an edge value.
    EdgePatch(NodeId, PatchSide),
}

/// Where a global kernel assembles a full operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Vertex rows from each vertex's owner shard.
    VertexOwner,
    /// Edge rows from each edge's destination-owner shard.
    EdgeDstOwner,
    /// Edge rows from each edge's source-owner shard.
    EdgeSrcOwner,
    /// Replicated parameter value, cloned from shard 0.
    Param,
}

/// How one kernel of the plan executes under sharding.
#[derive(Clone)]
enum KernelClass {
    /// Whole kernel per shard after `pre`.
    Sharded { pre: Vec<ExOp> },
    /// Executed once by the driver over the full graph, on the external
    /// operands of the kernel's program assembled into full tensors.
    Global { gather: Vec<(NodeId, Source)> },
}

/// The classifier's product: per-kernel classes plus where each model
/// output's authoritative rows live after the forward pass.
struct Classified {
    classes: Vec<KernelClass>,
    output_sources: Vec<(NodeId, Source)>,
}

/// What one classification pass over a plan found.
enum Classify {
    Done(Classified),
    /// Kernel `kid` cannot run whole: its member `at` needs rows of a
    /// kernel-internal value that no shard can produce locally. The
    /// builder cuts the kernel before `at` and classifies again.
    Cut {
        kid: usize,
        at: NodeId,
    },
}

enum SimErr {
    /// A kernel-internal value would need an exchange: the kernel must
    /// be cut so the value materializes first.
    MustCut,
    /// The plan's liveness discipline was violated (a bug, not a cut).
    Fatal(String),
}

fn fatal(e: SimErr) -> ExecError {
    ExecError::Protocol(match e {
        SimErr::MustCut => "sharding classifier: a cut was asked for outside a kernel".into(),
        SimErr::Fatal(m) => format!("sharding classifier: {m}"),
    })
}

fn full_bits(space: Space) -> Bits {
    match space {
        Space::Vertex => Bits::Vertex { halo: true },
        Space::Edge => Bits::Edge {
            dst: true,
            src: true,
        },
        Space::Param => Bits::Param,
    }
}

fn satisfied(b: Bits, need: Need) -> bool {
    match (b, need) {
        (Bits::Param, _) => true,
        (Bits::Vertex { halo }, Need::Halo) => halo,
        (Bits::Edge { dst, .. }, Need::Anchor(EdgeGroup::ByDst)) => dst,
        (Bits::Edge { src, .. }, Need::Anchor(EdgeGroup::BySrc)) => src,
        // A mismatched space/need pair cannot arise from the view rules;
        // treat it as unsatisfied so it surfaces as a Fatal error later.
        _ => false,
    }
}

fn dead(ir: &IrGraph, id: NodeId) -> SimErr {
    SimErr::Fatal(format!(
        "value '{}' read while dead in the bit simulation",
        ir.node(id).name
    ))
}

fn grant(
    ir: &IrGraph,
    local: &mut HashMap<NodeId, Bits>,
    id: NodeId,
    need: Need,
) -> std::result::Result<(), SimErr> {
    match (local.get_mut(&id).ok_or_else(|| dead(ir, id))?, need) {
        (Bits::Vertex { halo }, Need::Halo) => *halo = true,
        (Bits::Edge { dst, .. }, Need::Anchor(EdgeGroup::ByDst)) => *dst = true,
        (Bits::Edge { src, .. }, Need::Anchor(EdgeGroup::BySrc)) => *src = true,
        _ => {}
    }
    Ok(())
}

/// The validity requirement the `pos`-th input read of `id` places on
/// its operand, if any. Derived entirely from the views: endpoint reads
/// need halo rows — except at the consumer's own output anchor, whose
/// unclaimed rows make the halo read irrelevant — and group-complete
/// edge reads need the group's anchor side valid.
fn need_of(ir: &IrGraph, id: NodeId, pos: usize) -> Option<Need> {
    match view::edge_view(ir, id, pos).endpoint_group() {
        Some(g) => (view::output_anchor(ir, id) != Some(g)).then_some(Need::Halo),
        None => view::required_anchor(ir, id, pos).map(Need::Anchor),
    }
}

fn bits_of(
    ir: &IrGraph,
    local: &HashMap<NodeId, Bits>,
    id: NodeId,
) -> std::result::Result<Bits, SimErr> {
    local.get(&id).copied().ok_or_else(|| dead(ir, id))
}

/// The output validity of `id` given its operands' bits: anchored edge
/// ops claim exactly their anchor side, reductions clear the halo, and
/// row-local ops AND the bits of their same-space aligned operands.
fn out_bits(
    ir: &IrGraph,
    local: &HashMap<NodeId, Bits>,
    id: NodeId,
) -> std::result::Result<Bits, SimErr> {
    let node = ir.node(id);
    match node.space {
        Space::Param => Ok(Bits::Param),
        Space::Vertex => {
            let mut halo = true;
            for pos in 0..node.inputs.len() {
                match view::edge_view(ir, id, pos) {
                    // A reduction's halo rows would need the halo
                    // vertex's complete edge group — never local.
                    View::Reduce(_) => return Ok(Bits::Vertex { halo: false }),
                    View::Aligned => {
                        if let Bits::Vertex { halo: h } = bits_of(ir, local, node.inputs[pos])? {
                            halo &= h;
                        }
                    }
                    _ => {}
                }
            }
            Ok(Bits::Vertex { halo })
        }
        Space::Edge => match view::output_anchor(ir, id) {
            Some(EdgeGroup::ByDst) => Ok(Bits::Edge {
                dst: true,
                src: false,
            }),
            Some(EdgeGroup::BySrc) => Ok(Bits::Edge {
                dst: false,
                src: true,
            }),
            None => {
                let (mut dst, mut src) = (true, true);
                for pos in 0..node.inputs.len() {
                    if view::edge_view(ir, id, pos) == View::Aligned
                        && ir.node(node.inputs[pos]).space == Space::Edge
                    {
                        if let Bits::Edge { dst: d, src: s } = bits_of(ir, local, node.inputs[pos])?
                        {
                            dst &= d;
                            src &= s;
                        }
                    }
                }
                Ok(Bits::Edge { dst, src })
            }
        },
    }
}

/// Makes `need` hold for value `id`, planning an exchange for external
/// (materialized) values and recursively strengthening the inputs of
/// the kernel's own (`intra`) producers: those cannot be exchanged —
/// they do not exist before the kernel runs — so their requirements
/// strengthen their own inputs, or force a cut.
fn satisfy(
    plan: &ExecutionPlan,
    id: NodeId,
    need: Need,
    local: &mut HashMap<NodeId, Bits>,
    pre: &mut Vec<ExOp>,
    intra: &HashSet<NodeId>,
) -> std::result::Result<(), SimErr> {
    let b = bits_of(&plan.ir, local, id)?;
    if satisfied(b, need) {
        return Ok(());
    }
    if !intra.contains(&id) {
        let ex = match need {
            Need::Halo => ExOp::VertexHalo(id),
            Need::Anchor(EdgeGroup::ByDst) => ExOp::EdgePatch(id, PatchSide::Dst),
            Need::Anchor(EdgeGroup::BySrc) => ExOp::EdgePatch(id, PatchSide::Src),
        };
        if !pre.contains(&ex) {
            pre.push(ex);
        }
        return grant(&plan.ir, local, id, need);
    }
    // Intra-kernel producer: can its production be strengthened to cover
    // the needed rows?
    if let Need::Anchor(g) = need {
        match view::output_anchor(&plan.ir, id) {
            // Anchored at the needed group: production already grants it
            // (unreachable — satisfied() above would have returned).
            Some(a) if a == g => return grant(&plan.ir, local, id, need),
            // Anchored at the other group: the opposite side's rows are
            // inherently wrong locally — the kernel must be cut so the
            // value can be patched after materializing.
            Some(_) => return Err(SimErr::MustCut),
            None => {}
        }
    }
    let node = plan.ir.node(id);
    for pos in 0..node.inputs.len() {
        let iv = node.inputs[pos];
        match view::edge_view(&plan.ir, id, pos) {
            // Endpoint reads of the strengthened rows touch arbitrary
            // endpoints: the operand needs full halo validity.
            View::BySrc | View::ByDst => satisfy(plan, iv, Need::Halo, local, pre, intra)?,
            View::Aligned => match (plan.ir.node(iv).space, need) {
                (Space::Vertex, Need::Halo) => satisfy(plan, iv, Need::Halo, local, pre, intra)?,
                (Space::Edge, Need::Anchor(g)) => {
                    satisfy(plan, iv, Need::Anchor(g), local, pre, intra)?;
                }
                _ => {}
            },
            // A reduction consumer's extra rows need complete non-local
            // groups — not strengthenable.
            View::Reduce(_) => return Err(SimErr::MustCut),
            _ => {}
        }
    }
    grant(&plan.ir, local, id, need)
}

/// Simulates one node: satisfies its input requirements, prevents the
/// unrepresentable no-valid-rows state, and records its output bits.
fn process_node(
    plan: &ExecutionPlan,
    id: NodeId,
    local: &mut HashMap<NodeId, Bits>,
    pre: &mut Vec<ExOp>,
    intra: &HashSet<NodeId>,
) -> std::result::Result<(), SimErr> {
    let node = plan.ir.node(id);
    for pos in 0..node.inputs.len() {
        if let Some(need) = need_of(&plan.ir, id, pos) {
            satisfy(plan, node.inputs[pos], need, local, pre, intra)?;
        }
    }
    let mut b = out_bits(&plan.ir, local, id)?;
    if b == (Bits::Edge {
        dst: false,
        src: false,
    }) {
        // An AND of oppositely-anchored operands would claim no rows at
        // all — unfixable later, since no shard would hold a valid copy.
        // Upgrade every aligned edge operand's dst side first, so the
        // output claims its dst-owned rows.
        for pos in 0..node.inputs.len() {
            let iv = node.inputs[pos];
            if view::edge_view(&plan.ir, id, pos) == View::Aligned
                && plan.ir.node(iv).space == Space::Edge
            {
                satisfy(plan, iv, Need::Anchor(EdgeGroup::ByDst), local, pre, intra)?;
            }
        }
        b = out_bits(&plan.ir, local, id)?;
    }
    local.insert(id, b);
    Ok(())
}

/// The nodes a kernel executes in order: recompute rebuilds (skipping
/// stash-persistent values that are still live), then the members.
fn kernel_order(
    plan: &ExecutionPlan,
    lv: &Liveness,
    kid: usize,
    backward: bool,
    bits: &HashMap<NodeId, Bits>,
) -> Vec<NodeId> {
    let kernel = &plan.kernels[kid];
    let mut order = Vec::with_capacity(kernel.recompute.len() + kernel.nodes.len());
    if backward {
        for &r in &kernel.recompute {
            if !(lv.persistent.contains(&r) && bits.contains_key(&r)) {
                order.push(r);
            }
        }
    }
    order.extend(&kernel.nodes);
    order
}

/// How one kernel fared when simulated whole.
enum Whole {
    /// It runs whole after these exchanges, leaving these bits.
    Fits(Vec<ExOp>, HashMap<NodeId, Bits>),
    /// This node needs rows of a kernel-internal value no shard holds.
    CutBefore(NodeId),
}

fn simulate_whole(
    plan: &ExecutionPlan,
    lv: &Liveness,
    kid: usize,
    backward: bool,
    bits: &HashMap<NodeId, Bits>,
) -> Result<Whole> {
    let order = kernel_order(plan, lv, kid, backward, bits);
    let intra: HashSet<NodeId> = order.iter().copied().collect();
    let mut local = bits.clone();
    let mut pre = Vec::new();
    for &id in &order {
        match process_node(plan, id, &mut local, &mut pre, &intra) {
            Ok(()) => {}
            Err(SimErr::MustCut) => return Ok(Whole::CutBefore(id)),
            Err(e) => return Err(fatal(e)),
        }
    }
    Ok(Whole::Fits(pre, local))
}

fn source_of(b: Bits) -> Source {
    match b {
        Bits::Param => Source::Param,
        Bits::Vertex { .. } => Source::VertexOwner,
        Bits::Edge { dst: true, .. } => Source::EdgeDstOwner,
        Bits::Edge { .. } => Source::EdgeSrcOwner,
    }
}

/// Plans one global kernel: the external operands of its program, each
/// with the side its authoritative rows live on.
fn simulate_global(
    plan: &ExecutionPlan,
    kid: usize,
    bits: &mut HashMap<NodeId, Bits>,
) -> std::result::Result<Vec<(NodeId, Source)>, SimErr> {
    let program = plan
        .programs
        .get(kid)
        .ok_or_else(|| SimErr::Fatal(format!("kernel {kid} has no lowered program")))?;
    let members: HashSet<NodeId> = program.steps.iter().map(|s| s.node).collect();
    let mut gather: Vec<(NodeId, Source)> = Vec::new();
    for s in &program.steps {
        for &iv in &plan.ir.node(s.node).inputs {
            if !members.contains(&iv) && gather.iter().all(|&(g, _)| g != iv) {
                gather.push((iv, source_of(bits_of(&plan.ir, bits, iv)?)));
            }
        }
    }
    // What the program materializes is scattered to every shard as
    // fully valid rows; nothing else of the kernel leaves the driver.
    for id in program.materialized() {
        bits.insert(id, full_bits(plan.ir.node(id).space));
    }
    Ok(gather)
}

/// Kernels that must execute once, globally: any kernel producing a
/// parameter-space value from non-parameter inputs (a cross-row
/// reduction whose per-shard re-association would break bit-identity),
/// closed under the `Gather(Max)` ↔ `GatherMaxBwd` pairing — the argmax
/// table records local edge ids, so the pair must agree on which graph
/// it indexes.
fn global_kernels(plan: &ExecutionPlan) -> Vec<bool> {
    let mut global = vec![false; plan.kernels.len()];
    for k in &plan.kernels {
        for &nid in &k.nodes {
            let node = plan.ir.node(nid);
            if node.space == Space::Param
                && node
                    .inputs
                    .iter()
                    .any(|&i| plan.ir.node(i).space != Space::Param)
            {
                global[k.id] = true;
            }
        }
    }
    let node_kernel = plan.node_kernel();
    loop {
        let mut changed = false;
        for k in &plan.kernels {
            for &nid in &k.nodes {
                if let OpKind::GatherMaxBwd { fwd } = plan.ir.node(nid).kind {
                    if let Some(&fk) = node_kernel.get(&fwd) {
                        if global[k.id] != global[fk] {
                            global[k.id] = true;
                            global[fk] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    global
}

fn classify(plan: &ExecutionPlan) -> Result<Classify> {
    let lv = &memplan::liveness(plan);
    let global = global_kernels(plan);
    let mut classes: Vec<KernelClass> = (0..plan.kernels.len())
        .map(|_| KernelClass::Sharded { pre: Vec::new() })
        .collect();
    let mut bits: HashMap<NodeId, Bits> = HashMap::new();
    for n in plan.ir.nodes() {
        if matches!(
            n.kind,
            OpKind::InputVertex | OpKind::InputEdge | OpKind::Param
        ) {
            bits.insert(n.id, full_bits(n.space));
        }
    }

    // Classifies kernel `kid`; `Some(at)` asks for a cut before `at`.
    let mut step =
        |kid: usize, backward: bool, bits: &mut HashMap<NodeId, Bits>| -> Result<Option<NodeId>> {
            if global[kid] {
                let gather = simulate_global(plan, kid, bits).map_err(fatal)?;
                classes[kid] = KernelClass::Global { gather };
            } else {
                match simulate_whole(plan, lv, kid, backward, bits)? {
                    Whole::Fits(pre, local) => {
                        *bits = local;
                        classes[kid] = KernelClass::Sharded { pre };
                    }
                    Whole::CutBefore(at) => return Ok(Some(at)),
                }
            }
            // Mirror the runtime's memory discipline so later kernels see
            // exactly the values (and bits) that are still live.
            if backward {
                for &r in &plan.kernels[kid].recompute {
                    if !lv.persistent.contains(&r) {
                        bits.remove(&r);
                    }
                }
            }
            for &d in &lv.kernel_deaths[kid] {
                bits.remove(&d);
            }
            Ok(None)
        };

    for kid in 0..plan.kernels.len() {
        if memplan::kernel_phase(plan, kid) == Phase::Forward {
            if let Some(at) = step(kid, false, &mut bits)? {
                return Ok(Classify::Cut { kid, at });
            }
        }
    }
    let output_sources = plan
        .ir
        .outputs()
        .iter()
        .map(|&o| {
            bits.get(&o)
                .map(|&b| (o, source_of(b)))
                .ok_or_else(|| fatal(SimErr::Fatal(format!("output node {o} not live"))))
        })
        .collect::<Result<Vec<_>>>()?;
    if plan.training {
        // The forward→backward boundary drops every non-persistent value.
        bits.retain(|n, _| lv.persistent.contains(n));
        if let Some(seed) = plan.ir.nodes().iter().find(|n| n.kind == OpKind::GradSeed) {
            bits.insert(seed.id, full_bits(seed.space));
        }
        for kid in 0..plan.kernels.len() {
            if memplan::kernel_phase(plan, kid) == Phase::Backward {
                if let Some(at) = step(kid, true, &mut bits)? {
                    return Ok(Classify::Cut { kid, at });
                }
            }
        }
    }
    Ok(Classify::Done(Classified {
        classes,
        output_sources,
    }))
}

// ---------------------------------------------------------------------
// Shard maps: local graphs, relabelings and static exchange routes.
// ---------------------------------------------------------------------

/// What the IR reads through the graph structure — decides which halo
/// rows and replica edges the shards must carry at all.
struct IrNeeds {
    /// Some un-anchored consumer reads vertex rows through edge sources.
    uses_src: bool,
    /// Some un-anchored consumer reads vertex rows through edge dests.
    uses_dst: bool,
    /// Some reduction groups by source: shards must replicate the cut
    /// edges whose source they own, so those groups stay complete.
    need_src_edges: bool,
}

fn ir_needs(ir: &IrGraph) -> IrNeeds {
    let mut needs = IrNeeds {
        uses_src: false,
        uses_dst: false,
        need_src_edges: false,
    };
    for n in ir.nodes() {
        let group = match &n.kind {
            OpKind::GatherMaxBwd { fwd } => Some(view::gather_max_bwd_group(ir, *fwd)),
            k => k.reduction_group(),
        };
        if group == Some(EdgeGroup::BySrc) {
            needs.need_src_edges = true;
        }
        for pos in 0..n.inputs.len() {
            if let Some(g) = view::edge_view(ir, n.id, pos).endpoint_group() {
                // Reads at the consumer's own anchor only touch owned
                // endpoints on the rows the shard claims.
                if view::output_anchor(ir, n.id) == Some(g) {
                    continue;
                }
                match g {
                    EdgeGroup::BySrc => needs.uses_src = true,
                    EdgeGroup::ByDst => needs.uses_dst = true,
                }
            }
        }
    }
    needs
}

/// Row map entry: `(local destination row, source shard, source row)`.
type RowMap = Vec<(u32, u32, u32)>;

/// The static routing tables of one sharded build: local↔global id
/// maps, owner-row lookups for global assembly, and the exchange routes
/// every halo/replica patch replays.
struct ShardMaps {
    part: Partition,
    /// Per shard: global vertex id of each local row, ascending.
    l2g_vertex: Vec<Vec<u32>>,
    /// Per shard: whether it owns each local row — the only groups its
    /// vertex reductions reduce (shared with its session's kernels).
    owns: Vec<Arc<[bool]>>,
    /// Per shard: global edge id of each local edge row, ascending.
    l2g_edge: Vec<Vec<u32>>,
    /// Per global vertex: its row in its owner shard.
    owner_vertex_row: Vec<u32>,
    /// Per global edge: its row in the shard owning its destination.
    owner_edge_row_dst: Vec<u32>,
    /// Per global edge: its row in the shard owning its source
    /// (`u32::MAX` when source-side replication is off).
    owner_edge_row_src: Vec<u32>,
    /// Per shard: the union halo set — non-owned local vertices some
    /// endpoint read touches — with their owner rows.
    halo_rows: Vec<RowMap>,
    /// Per shard: dst-owned cut-edge rows, pulled from source owners.
    patch_dst: Vec<RowMap>,
    /// Per shard: src-owned cut-edge rows, pulled from dest owners.
    patch_src: Vec<RowMap>,
    cut_edges: u64,
}

impl ShardMaps {
    /// Builds the maps and the per-shard local subgraphs. Local vertex
    /// ids enumerate owned vertices and kept-edge endpoints in
    /// ascending global order (a monotone relabeling), so the local
    /// CSR's canonical edge order is the global order restricted to the
    /// kept edges — the invariant every reduction's bit-identity rests
    /// on.
    fn build(ir: &IrGraph, graph: &Graph, part: Partition) -> (Self, Vec<Graph>) {
        let needs = ir_needs(ir);
        let n = graph.num_vertices();
        let ne = graph.num_edges();
        let k = part.num_shards();
        let owner = part.owner();
        let src = graph.src_slice();
        let dst = graph.dst_slice();

        // Kept edges per shard, ascending global id: all dst-owned, plus
        // src-owned cut edges when some reduction groups by source.
        let mut kept: Vec<Vec<u32>> = vec![Vec::new(); k];
        for e in 0..ne {
            let so = owner[src[e] as usize] as usize;
            let d_o = owner[dst[e] as usize] as usize;
            kept[d_o].push(e as u32);
            if needs.need_src_edges && so != d_o {
                kept[so].push(e as u32);
            }
        }

        // Local vertex sets: owned ∪ kept-edge endpoints.
        let mut l2g_vertex: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut g2l: Vec<Vec<u32>> = vec![vec![u32::MAX; n]; k];
        {
            let mut in_shard = vec![false; n];
            for (s, kept_s) in kept.iter().enumerate() {
                in_shard.iter_mut().for_each(|b| *b = false);
                for v in 0..n {
                    if owner[v] as usize == s {
                        in_shard[v] = true;
                    }
                }
                for &e in kept_s {
                    in_shard[src[e as usize] as usize] = true;
                    in_shard[dst[e as usize] as usize] = true;
                }
                for (v, &present) in in_shard.iter().enumerate() {
                    if present {
                        g2l[s][v] = l2g_vertex[s].len() as u32;
                        l2g_vertex[s].push(v as u32);
                    }
                }
            }
        }
        let mut owner_vertex_row = vec![0u32; n];
        for v in 0..n {
            owner_vertex_row[v] = g2l[owner[v] as usize][v];
        }

        let mut owner_edge_row_dst = vec![0u32; ne];
        let mut owner_edge_row_src = if needs.need_src_edges {
            vec![u32::MAX; ne]
        } else {
            Vec::new()
        };
        for (s, kept_s) in kept.iter().enumerate() {
            for (i, &e) in kept_s.iter().enumerate() {
                let e = e as usize;
                if owner[dst[e] as usize] as usize == s {
                    owner_edge_row_dst[e] = i as u32;
                }
                if needs.need_src_edges && owner[src[e] as usize] as usize == s {
                    owner_edge_row_src[e] = i as u32;
                }
            }
        }

        // Local subgraphs. The monotone relabeling keeps the canonical
        // (dst, src) order, so local edge row `i` IS global edge
        // `kept[s][i]` — debug-checked below.
        let graphs: Vec<Graph> = (0..k)
            .map(|s| {
                let pairs: Vec<(u32, u32)> = kept[s]
                    .iter()
                    .map(|&e| {
                        (
                            g2l[s][src[e as usize] as usize],
                            g2l[s][dst[e as usize] as usize],
                        )
                    })
                    .collect();
                let lg = Graph::from_edge_list(&EdgeList::from_pairs(l2g_vertex[s].len(), &pairs));
                debug_assert_eq!(lg.num_edges(), kept[s].len());
                debug_assert!((0..lg.num_edges()).all(|i| {
                    let e = kept[s][i] as usize;
                    lg.src(i) == g2l[s][src[e] as usize] as usize
                        && lg.dst(i) == g2l[s][dst[e] as usize] as usize
                }));
                lg
            })
            .collect();

        // Union halo sets and replica patch routes.
        let mut halo_rows: Vec<RowMap> = vec![Vec::new(); k];
        let mut patch_dst: Vec<RowMap> = vec![Vec::new(); k];
        let mut patch_src: Vec<RowMap> = vec![Vec::new(); k];
        for (s, kept_s) in kept.iter().enumerate() {
            let mut mark = vec![false; l2g_vertex[s].len()];
            for (i, &e) in kept_s.iter().enumerate() {
                let e = e as usize;
                let (sv, dv) = (src[e] as usize, dst[e] as usize);
                let (so, d_o) = (owner[sv] as usize, owner[dv] as usize);
                if d_o == s {
                    if needs.uses_src && so != s {
                        mark[g2l[s][sv] as usize] = true;
                    }
                    if so != s && needs.need_src_edges {
                        patch_dst[s].push((i as u32, so as u32, owner_edge_row_src[e]));
                    }
                }
                if needs.need_src_edges && so == s && d_o != s {
                    patch_src[s].push((i as u32, d_o as u32, owner_edge_row_dst[e]));
                    if needs.uses_dst {
                        mark[g2l[s][dv] as usize] = true;
                    }
                }
            }
            for (l, &m) in mark.iter().enumerate() {
                if m {
                    let gv = l2g_vertex[s][l] as usize;
                    halo_rows[s].push((l as u32, owner[gv], owner_vertex_row[gv]));
                }
            }
        }

        let owned_by = |s: usize| -> Arc<[bool]> {
            l2g_vertex[s]
                .iter()
                .map(|&v| owner[v as usize] as usize == s)
                .collect()
        };
        let owns = (0..k).map(owned_by).collect();
        let cut_edges = part.cut_edges(graph);
        let maps = Self {
            part,
            l2g_vertex,
            owns,
            l2g_edge: kept,
            owner_vertex_row,
            owner_edge_row_dst,
            owner_edge_row_src,
            halo_rows,
            patch_dst,
            patch_src,
            cut_edges,
        };
        (maps, graphs)
    }
}

impl ShardMaps {
    /// Shard `s`'s copy of a global-row tensor: its local vertex or edge
    /// rows, or the whole of a (replicated) parameter-space value. Made
    /// inside the shard's pool scope, it is served by the shard's pool.
    fn local_rows(&self, s: usize, space: Space, t: &Tensor) -> Tensor {
        match space {
            Space::Vertex => select_rows_u32(t, &self.l2g_vertex[s]),
            Space::Edge => select_rows_u32(t, &self.l2g_edge[s]),
            Space::Param => t.clone(),
        }
    }
}

/// Row-select `t` by `idx` (u32 global rows), keeping its columns.
fn select_rows_u32(t: &Tensor, idx: &[u32]) -> Tensor {
    let mut out = Tensor::zeros(&[idx.len(), t.cols()]);
    rowops::gather_rows(out.as_mut_slice(), t.as_slice(), t.cols(), idx, 0);
    out
}

// ---------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------

/// Sharded execution driver: per-shard planned [`Session`]s plus the
/// static classification and routing tables, executing the plan's
/// kernels across shards with explicit exchanges.
#[derive(Debug)]
struct Multi<'a> {
    /// The plan every shard executes: the caller's, or the one the
    /// builder derived from it by cutting kernels.
    plan: Held<'a, ExecutionPlan>,
    /// Per kernel of `plan`, the kernel of the caller's plan it is (a
    /// piece of): what [`ExchangeRecord::kernel`] names.
    origin: Vec<usize>,
    graph: &'a Graph,
    policy: ExecPolicy,
    shards: Vec<Session<'a>>,
    maps: ShardMaps,
    classes: Vec<KernelClass>,
    output_sources: Vec<(NodeId, Source)>,
    fwd_kernels: Vec<usize>,
    bwd_kernels: Vec<usize>,
    /// The global kernels compiled for the full graph (`None` for a
    /// sharded kernel: each shard holds its own).
    gkernels: Vec<Option<fused::CompiledKernel>>,
    /// The driver's stores: full tensors held during a global kernel,
    /// and the argmax tables of globally-executed `Gather(Max)` nodes.
    gstore: fused::Store,
    gframe: fused::Frame,
    records: Vec<ExchangeRecord>,
    stats: RunStats,
    /// Set when a panic unwound out of a driver-side execution path
    /// (global kernels, exchanges) and was contained at the
    /// kernel boundary: the step's results are unreliable, so every
    /// subsequent step refuses with [`ExecError::Poisoned`]. Panics
    /// inside a shard's own kernels poison that shard's [`Session`]
    /// instead.
    poisoned: Option<String>,
}

/// Order-sensitive checksum of the staged exchange buffers (FNV-style
/// over f32 bit patterns): taken right after staging and re-verified
/// right before scattering, so any corruption of the staging seam — the
/// place a future wire or spill transport plugs in — is caught at the
/// exchange that caused it, not epochs later.
fn staging_checksum(staged: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for buf in staged {
        for v in buf {
            h = (h.rotate_left(5) ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl std::fmt::Debug for ShardMaps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMaps")
            .field("num_shards", &self.part.num_shards())
            .field("cut_edges", &self.cut_edges)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for KernelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelClass::Sharded { pre } => write!(f, "Sharded({} pre)", pre.len()),
            KernelClass::Global { gather } => write!(f, "Global({} gathered)", gather.len()),
        }
    }
}

impl<'a> Multi<'a> {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn record(
        &mut self,
        kid: usize,
        backward: bool,
        nid: NodeId,
        rows: u64,
        bytes: u64,
        kind: ExchangeKind,
    ) {
        self.stats.comm_bytes += bytes;
        self.stats.halo_exchanges += 1;
        self.records.push(ExchangeRecord {
            kernel: self.origin[kid],
            backward,
            value: self.plan.ir.node(nid).name.clone(),
            rows,
            bytes,
            kind,
        });
    }

    /// Refuses to start work after a driver-side contained panic.
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(why) => Err(ExecError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    fn begin(&mut self, bindings: &Bindings) -> Result<()> {
        self.check_poisoned()?;
        self.records.clear();
        self.gstore.values.clear();
        self.gstore.aux_argmax.clear();
        self.stats = RunStats::default();
        // Every leaf against the caller's graph, once: row selection
        // would drop surplus rows.
        for &id in self.shards[0].leaf_ids() {
            let node = self.plan.ir.node(id);
            check_shape(self.graph, node, bindings.leaf(node)?)?;
        }
        // Each shard's rows (row selection, not communication — not
        // recorded) go straight into its store, copied inside its pool
        // scope so they come out of the leaves' planned buffers.
        let maps = &self.maps;
        for (s, sess) in self.shards.iter_mut().enumerate() {
            let _scope = sess.scope();
            sess.begin_forward()?;
            sess.bind_leaves(|node| Ok(maps.local_rows(s, node.space, bindings.leaf(node)?)))?;
        }
        self.stats.shards = self.num_shards();
        self.stats.threads = self.policy.threads;
        self.stats.cut_edges = self.maps.cut_edges;
        self.stats.halo_vertices = self.maps.halo_rows.iter().map(|h| h.len() as u64).sum();
        self.stats.planned_peak_bytes = self
            .shards
            .iter()
            .map(|s| s.memory_plan().arena_bytes)
            .sum();
        Ok(())
    }

    /// Folds the per-shard run stats into the composed step stats.
    fn absorb_shard_stats(&mut self) {
        self.stats.peak_value_bytes = self.shards.iter().map(|s| s.stats().peak_value_bytes).sum();
        self.stats.boundary_bytes = self.shards.iter().map(|s| s.stats().boundary_bytes).sum();
        // Shards run sequentially, so scratch high-water is a max, and
        // fused-kernel counts are per-plan figures (identical across
        // shards), not per-launch tallies.
        self.stats.scratch_bytes = self
            .shards
            .iter()
            .map(|s| s.stats().scratch_bytes)
            .max()
            .unwrap_or(0);
        self.stats.fused_kernels = self.shards[0].stats().fused_kernels;
        self.stats.fallback_allocs = self.shards.iter().map(|s| s.stats().fallback_allocs).sum();
    }

    fn run_forward_phase(&mut self, bindings: &Bindings) -> Result<()> {
        self.begin(bindings)?;
        let t0 = Instant::now();
        for i in 0..self.fwd_kernels.len() {
            let kid = self.fwd_kernels[i];
            self.run_kernel(kid, false)?;
        }
        self.stats.forward_seconds = t0.elapsed().as_secs_f64();
        for sess in &mut self.shards {
            let _scope = sess.scope();
            sess.finish_forward();
        }
        self.absorb_shard_stats();
        Ok(())
    }

    fn run_backward_phase(&mut self, seed: Tensor) -> Result<()> {
        self.check_poisoned()?;
        let seed_node = self
            .plan
            .ir
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::GradSeed)
            .ok_or_else(|| ExecError::Protocol("plan was compiled for inference".into()))?;
        // Before any row selection, which would drop surplus rows.
        check_shape(self.graph, seed_node, &seed)?;
        let space = seed_node.space;
        for s in 0..self.num_shards() {
            // Inside the shard's scope, so the rows come out of its pool
            // (the seed's planned region), not off the heap into it.
            let sess = &mut self.shards[s];
            let _scope = sess.scope();
            sess.begin_backward(self.maps.local_rows(s, space, &seed))?;
        }
        let t0 = Instant::now();
        for i in 0..self.bwd_kernels.len() {
            let kid = self.bwd_kernels[i];
            self.run_kernel(kid, true)?;
        }
        self.stats.backward_seconds = t0.elapsed().as_secs_f64();
        for sess in &mut self.shards {
            let _scope = sess.scope();
            sess.finish_backward();
        }
        self.absorb_shard_stats();
        Ok(())
    }

    fn run_kernel(&mut self, kid: usize, backward: bool) -> Result<()> {
        // Swap the class out so the borrow checker lets the exchange and
        // execution methods take `&mut self` while we iterate it.
        let class = std::mem::replace(
            &mut self.classes[kid],
            KernelClass::Sharded { pre: Vec::new() },
        );
        // Containment boundary for the driver's own execution paths
        // (global kernels, exchanges): a panic surfaces as a typed error
        // and poisons the driver. Panics inside a shard's `exec_kernel`
        // are already contained there and arrive here as
        // `Err(KernelPanic)`, poisoning that shard.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_class(kid, backward, &class)
        }));
        self.classes[kid] = class;
        match r {
            Ok(r) => r,
            Err(p) => {
                let kernel = kernel_label(&self.plan, kid, backward);
                let payload = contain::payload_str(p.as_ref());
                self.poisoned = Some(format!("kernel '{kernel}' panicked: {payload}"));
                Err(ExecError::KernelPanic { kernel, payload })
            }
        }
    }

    fn run_class(&mut self, kid: usize, backward: bool, class: &KernelClass) -> Result<()> {
        match class {
            KernelClass::Sharded { pre } => {
                for &ex in pre {
                    self.exchange(ex, kid, backward)?;
                }
                for sess in &mut self.shards {
                    let _scope = sess.scope();
                    sess.exec_kernel(kid, backward)?;
                }
            }
            KernelClass::Global { gather } => self.run_global(kid, backward, gather)?,
        }
        Ok(())
    }

    /// Replays one static exchange route for one value: gather the
    /// source rows from their owner shards into staging buffers,
    /// **validate** them, then scatter into each shard's copy in place.
    ///
    /// The staging buffers are exactly the seam a future transport (a
    /// wire, a spilled file) replaces, so they are not
    /// trusted blindly: every buffer must hold exactly `rows × cols`
    /// floats for its route (always checked), and in debug builds — or
    /// whenever failpoints are armed — an order-sensitive checksum
    /// taken at staging must still match at scatter time. Violations
    /// are [`ExecError::Exchange`], naming the value, kernel and shard.
    ///
    /// Hosts the `exchange` failpoint: `corrupt` drops one staged float
    /// (caught by the count check), `nan` flips one staged float to NaN
    /// (caught by the checksum), every other action returns
    /// [`ExecError::Injected`].
    fn exchange(&mut self, ex: ExOp, kid: usize, backward: bool) -> Result<()> {
        let (nid, kind) = match ex {
            ExOp::VertexHalo(v) => (v, ExchangeKind::VertexHalo),
            ExOp::EdgePatch(v, _) => (v, ExchangeKind::EdgeReplica),
        };
        let k = self.num_shards();
        let cols = self.shards[0].value(nid)?.cols();
        let mut staged: Vec<Vec<f32>> = Vec::with_capacity(k);
        let mut rows = 0u64;
        for s in 0..k {
            let map: &RowMap = match ex {
                ExOp::VertexHalo(_) => &self.maps.halo_rows[s],
                ExOp::EdgePatch(_, PatchSide::Dst) => &self.maps.patch_dst[s],
                ExOp::EdgePatch(_, PatchSide::Src) => &self.maps.patch_src[s],
            };
            let mut buf = Vec::with_capacity(map.len() * cols);
            for &(_, os, or) in map {
                buf.extend_from_slice(self.shards[os as usize].value(nid)?.row(or as usize));
            }
            rows += map.len() as u64;
            staged.push(buf);
        }
        let deep_check = cfg!(debug_assertions) || fault::armed();
        let stage_sum = deep_check.then(|| staging_checksum(&staged));
        match fault::check("exchange") {
            None => {}
            Some(fault::FaultAction::Corrupt) => {
                if let Some(b) = staged.iter_mut().find(|b| !b.is_empty()) {
                    b.pop();
                }
            }
            Some(fault::FaultAction::Nan) => {
                if let Some(v) = staged.iter_mut().flat_map(|b| b.iter_mut()).next() {
                    *v = f32::NAN;
                }
            }
            Some(_) => {
                return Err(ExecError::Injected {
                    site: "exchange".into(),
                })
            }
        }
        let describe = |s: usize| {
            format!(
                "value '{}' into shard {s} at kernel '{}'",
                self.plan.ir.node(nid).name,
                kernel_label(&self.plan, kid, backward)
            )
        };
        for (s, buf) in staged.iter().enumerate() {
            let map: &RowMap = match ex {
                ExOp::VertexHalo(_) => &self.maps.halo_rows[s],
                ExOp::EdgePatch(_, PatchSide::Dst) => &self.maps.patch_dst[s],
                ExOp::EdgePatch(_, PatchSide::Src) => &self.maps.patch_src[s],
            };
            if buf.len() != map.len() * cols {
                return Err(ExecError::Exchange(format!(
                    "staging buffer of {} holds {} floats, expected {} rows x {cols} cols",
                    describe(s),
                    buf.len(),
                    map.len(),
                )));
            }
        }
        if let Some(expected) = stage_sum {
            let got = staging_checksum(&staged);
            if got != expected {
                return Err(ExecError::Exchange(format!(
                    "staging checksum mismatch for {} ({got:#018x} != {expected:#018x})",
                    describe(0),
                )));
            }
        }
        let bytes: u64 = staged.iter().map(|b| 4 * b.len() as u64).sum();
        for (s, buf) in staged.iter().enumerate() {
            let map: &RowMap = match ex {
                ExOp::VertexHalo(_) => &self.maps.halo_rows[s],
                ExOp::EdgePatch(_, PatchSide::Dst) => &self.maps.patch_dst[s],
                ExOp::EdgePatch(_, PatchSide::Src) => &self.maps.patch_src[s],
            };
            if map.is_empty() {
                continue;
            }
            let t = self.shards[s].value_mut(nid)?;
            for (i, &(dl, _, _)) in map.iter().enumerate() {
                t.row_mut(dl as usize)
                    .copy_from_slice(&buf[i * cols..(i + 1) * cols]);
            }
        }
        self.record(kid, backward, nid, rows, bytes, kind);
        Ok(())
    }

    /// Assembles the full (global-row) tensor of a value from the
    /// shards' authoritative rows.
    fn assemble_value(&self, id: NodeId, src: Source) -> Result<Tensor> {
        match src {
            Source::Param => Ok(self.shards[0].value(id)?.clone()),
            Source::VertexOwner => {
                let refs: Vec<&Tensor> = self
                    .shards
                    .iter()
                    .map(|s| s.value(id))
                    .collect::<Result<Vec<_>>>()?;
                let mut out = Tensor::zeros(&[self.graph.num_vertices(), refs[0].cols()]);
                for v in 0..self.graph.num_vertices() {
                    let s = self.maps.part.owner_of(v);
                    out.row_mut(v)
                        .copy_from_slice(refs[s].row(self.maps.owner_vertex_row[v] as usize));
                }
                Ok(out)
            }
            Source::EdgeDstOwner | Source::EdgeSrcOwner => {
                let refs: Vec<&Tensor> = self
                    .shards
                    .iter()
                    .map(|s| s.value(id))
                    .collect::<Result<Vec<_>>>()?;
                let mut out = Tensor::zeros(&[self.graph.num_edges(), refs[0].cols()]);
                for e in 0..self.graph.num_edges() {
                    let (s, row) = match src {
                        Source::EdgeDstOwner => (
                            self.maps.part.owner_of(self.graph.dst(e)),
                            self.maps.owner_edge_row_dst[e],
                        ),
                        _ => (
                            self.maps.part.owner_of(self.graph.src(e)),
                            self.maps.owner_edge_row_src[e],
                        ),
                    };
                    out.row_mut(e).copy_from_slice(refs[s].row(row as usize));
                }
                Ok(out)
            }
        }
    }

    /// Runs one global kernel: assembles the external operands of its
    /// program from the shards' authoritative rows, interprets the
    /// program once over the full graph — the same executor every shard
    /// runs, so nothing kernel-internal becomes a tensor here either —
    /// and scatters what the program materializes back into the shard
    /// stores.
    fn run_global(
        &mut self,
        kid: usize,
        backward: bool,
        gather: &[(NodeId, Source)],
    ) -> Result<()> {
        let plan = self.plan.clone();
        let program = &plan.programs[kid];
        for &(nid, src) in gather {
            let t = self.assemble_value(nid, src)?;
            let rows = t.rows() as u64;
            let bytes = t.byte_size() as u64;
            self.record(kid, backward, nid, rows, bytes, ExchangeKind::GlobalGather);
            self.gstore.values.insert(nid, t);
        }
        let kernel = self.gkernels[kid].as_ref();
        let kernel = kernel.ok_or_else(|| {
            ExecError::Protocol(format!(
                "kernel '{}' was not compiled as a global kernel",
                kernel_label(&plan, kid, backward)
            ))
        })?;
        let (store, frame) = (&mut self.gstore, &mut self.gframe);
        kernel.launch(self.graph, &plan.ir, program, store, frame)?;
        self.gstore.values.clear();
        for (si, step) in program.steps.iter().enumerate() {
            let Some(t) = self.gframe.mat[si].take() else {
                continue;
            };
            // The program's interior tensors end with the launch.
            if step.storage != gnnopt_core::Storage::Materialized {
                continue;
            }
            let id = step.node;
            let node = plan.ir.node(id);
            if self.policy.guard {
                scan_nonfinite(&t, &node.name, || kernel_label(&plan, kid, backward))?;
            }
            let (mut rows, mut bytes) = (0u64, 0u64);
            for s in 0..self.num_shards() {
                // Inside the shard's scope: the rows fill the region
                // its planner laid out for this value.
                let sess = &mut self.shards[s];
                let _scope = sess.scope();
                let local = self.maps.local_rows(s, node.space, &t);
                rows += local.rows() as u64;
                bytes += local.byte_size() as u64;
                sess.insert_value(id, local);
            }
            self.record(kid, backward, id, rows, bytes, ExchangeKind::GlobalScatter);
        }
        // (A shard holds the kernel's dying inputs until here, past the
        // stage its planner frees them at; the global kernels — lone
        // parameter reductions — read and write in one stage anyway.)
        for sess in &mut self.shards {
            let _scope = sess.scope();
            sess.evict_after(kid);
        }
        Ok(())
    }

    fn outputs(&self) -> Result<Vec<Tensor>> {
        self.output_sources
            .iter()
            .map(|&(o, src)| self.assemble_value(o, src))
            .collect()
    }

    fn grads(&self) -> Result<HashMap<String, Tensor>> {
        let mut grads = HashMap::new();
        for &(p, g) in &self.plan.param_grads {
            let name = self.plan.ir.node(p).name.clone();
            grads.insert(name, self.shards[0].value(g)?.clone());
        }
        Ok(grads)
    }

    fn summaries(&self) -> Vec<ShardSummary> {
        let sizes = self.maps.part.shard_sizes();
        (0..self.num_shards())
            .map(|s| {
                let (g, owns) = (self.shards[s].graph(), &self.maps.owns[s]);
                // Local edges whose `ends` endpoint the shard owns.
                let owned = |ends: &[u32]| ends.iter().filter(|&&l| owns[l as usize]).count();
                ShardSummary {
                    num_vertices: self.maps.l2g_vertex[s].len(),
                    num_edges: self.maps.l2g_edge[s].len(),
                    dst_reduced_edges: owned(g.dst_slice()),
                    src_reduced_edges: owned(g.src_slice()),
                    owned_vertices: sizes[s],
                    halo_rows: self.maps.halo_rows[s].len(),
                    arena_bytes: self.shards[s].memory_plan().arena_bytes,
                }
            })
            .collect()
    }
}

/// Builds a [`ShardedSession`]: the shard count and per-shard session
/// knobs made explicit, with the same `GNNOPT_*` override treatment as
/// [`crate::SessionBuilder`].
#[derive(Debug)]
pub struct ShardedSessionBuilder<'a> {
    plan: &'a ExecutionPlan,
    graph: &'a Graph,
    shards: Option<usize>,
    policy: Option<ExecPolicy>,
    env: EnvOverrides,
}

impl<'a> ShardedSessionBuilder<'a> {
    /// Sets the shard count (default `1`). Clamped to the vertex count;
    /// `1` builds a plain session.
    #[must_use]
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = Some(k);
        self
    }

    /// Overrides the plan's own [`ExecPolicy`] for every shard and the
    /// driver's global kernels.
    #[must_use]
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Chooses how the `GNNOPT_*` overrides apply (default
    /// [`EnvOverrides::Loud`]).
    #[must_use]
    pub fn env(mut self, env: EnvOverrides) -> Self {
        self.env = env;
        self
    }

    /// Builds the session: a plain [`Session`] for one shard, the sharded
    /// driver otherwise.
    ///
    /// # Errors
    ///
    /// As [`crate::SessionBuilder::build`].
    pub fn build(self) -> Result<ShardedSession<'a>> {
        let k = self
            .shards
            .unwrap_or(1)
            .clamp(1, self.graph.num_vertices().max(1));
        if k == 1 {
            let mut b = Session::builder(self.plan, self.graph).env(self.env);
            if let Some(p) = self.policy {
                b = b.policy(p);
            }
            return Ok(ShardedSession {
                inner: Inner::Single(Box::new(b.build()?)),
            });
        }

        // Resolve the policy exactly like SessionBuilder.
        let mut policy = self.policy.unwrap_or(self.plan.exec);
        self.env.resolve(&mut policy)?;
        self.graph.validate().map_err(ExecError::Graph)?;
        let policy = policy.resolved(gnnopt_tensor::parallel::available_threads);

        // Classify, cutting every kernel that cannot run whole until
        // none is left: a plan with nothing to cut stays the caller's.
        let mut plan = Held::Borrowed(self.plan);
        let mut origin: Vec<usize> = (0..plan.kernels.len()).collect();
        let classified = loop {
            match classify(&plan)? {
                Classify::Done(c) => break c,
                Classify::Cut { kid, at } => {
                    let cut = plan.cut_kernel(kid, at).ok_or_else(|| {
                        ExecError::Protocol(format!(
                            "sharding classifier: kernel '{}' needs an exchange before \
                             '{}', which leaves no member to run first",
                            kernel_label(&plan, kid, false),
                            plan.ir.node(at).name
                        ))
                    })?;
                    plan = Held::Owned(Arc::new(cut));
                    origin.insert(kid + 1, origin[kid]);
                }
            }
        };
        let part = Partition::edge_cut_bfs(self.graph, k);
        let (maps, graphs) = ShardMaps::build(&plan.ir, self.graph, part);
        let shards: Vec<Session<'a>> = graphs
            .into_iter()
            .zip(&maps.owns)
            .map(|(g, owns)| {
                let shard = Some(Arc::clone(owns));
                Session::assemble(plan.clone(), Held::Owned(Arc::new(g)), policy, shard)
            })
            .collect::<Result<_>>()?;
        let fwd_kernels = shards[0].fwd_kernel_ids().to_vec();
        let bwd_kernels = shards[0].bwd_kernel_ids().to_vec();
        // The driver launches the global kernels itself, on the caller's
        // graph; it drops their staged operands whole, so none is dying.
        let tiles: Arc<[usize]> =
            fused::tile_bounds(self.graph.in_adj().indptr(), policy.tile_edges).into();
        let global = |(program, class): (_, &KernelClass)| {
            matches!(class, KernelClass::Global { .. })
                .then(|| fused::prepare(program, self.graph, &policy, &tiles, None, &[]))
        };
        let gkernels = plan.programs.iter().zip(&classified.classes);
        let gkernels = gkernels.map(global).collect();
        Ok(ShardedSession {
            inner: Inner::Multi(Box::new(Multi {
                plan,
                origin,
                graph: self.graph,
                policy,
                shards,
                maps,
                classes: classified.classes,
                output_sources: classified.output_sources,
                fwd_kernels,
                bwd_kernels,
                gkernels,
                gstore: fused::Store::default(),
                gframe: fused::Frame::default(),
                records: Vec::new(),
                stats: RunStats::default(),
                poisoned: None,
            })),
        })
    }
}

#[derive(Debug)]
enum Inner<'a> {
    Single(Box<Session<'a>>),
    Multi(Box<Multi<'a>>),
}

/// Edge-cut sharded execution of a compiled plan: one planned
/// [`Session`] per vertex shard, halo exchanges in between,
/// bit-identical results to the unsharded session. See `sharded.rs`'s
/// module docs for the execution model.
#[derive(Debug)]
pub struct ShardedSession<'a> {
    inner: Inner<'a>,
}

impl<'a> ShardedSession<'a> {
    /// Starts a [`ShardedSessionBuilder`]. Defaults: one shard, BFS
    /// edge-cut partitioning, the plan's own policy,
    /// [`EnvOverrides::Loud`].
    pub fn builder(plan: &'a ExecutionPlan, graph: &'a Graph) -> ShardedSessionBuilder<'a> {
        ShardedSessionBuilder {
            plan,
            graph,
            shards: None,
            policy: None,
            env: EnvOverrides::default(),
        }
    }

    /// True when a contained kernel panic poisoned the session — in the
    /// driver itself or in any shard's per-shard [`Session`]. A poisoned
    /// session refuses further steps with [`ExecError::Poisoned`]; its
    /// pools stay consistent and it can be dropped safely. Rebuild from
    /// the same plan to continue.
    pub fn poisoned(&self) -> bool {
        match &self.inner {
            Inner::Single(s) => s.poisoned(),
            Inner::Multi(m) => m.poisoned.is_some() || m.shards.iter().any(Session::poisoned),
        }
    }

    /// The number of shards the session executes over.
    pub fn num_shards(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Multi(m) => m.num_shards(),
        }
    }

    /// Runs the forward kernels across shards and assembles the model
    /// outputs (declaration order) from the owner shards' rows.
    ///
    /// # Errors
    ///
    /// As [`Session::forward`].
    pub fn forward(&mut self, bindings: &Bindings) -> Result<Vec<Tensor>> {
        match &mut self.inner {
            Inner::Single(s) => s.forward(bindings),
            Inner::Multi(m) => {
                m.run_forward_phase(bindings)?;
                m.outputs()
            }
        }
    }

    /// Runs the backward kernels with the given `∂L/∂output` seed and
    /// returns parameter gradients keyed by name — bit-identical to the
    /// unsharded session's.
    ///
    /// # Errors
    ///
    /// As [`Session::backward`].
    pub fn backward(&mut self, seed: Tensor) -> Result<HashMap<String, Tensor>> {
        match &mut self.inner {
            Inner::Single(s) => s.backward(seed),
            Inner::Multi(m) => {
                m.run_backward_phase(seed)?;
                m.grads()
            }
        }
    }

    /// One full training step (forward then backward) without the
    /// output/gradient assembly clones — the steady-state timing entry
    /// point, mirroring [`Session::step`].
    ///
    /// # Errors
    ///
    /// As [`Session::step`].
    pub fn step(&mut self, bindings: &Bindings, seed: &Tensor) -> Result<()> {
        match &mut self.inner {
            Inner::Single(s) => s.step(bindings, seed),
            Inner::Multi(m) => {
                m.run_forward_phase(bindings)?;
                m.run_backward_phase(seed.clone())
            }
        }
    }

    /// Measured statistics of the most recent run, with the sharding
    /// figures ([`RunStats::shards`], [`RunStats::comm_bytes`],
    /// [`RunStats::halo_vertices`], [`RunStats::cut_edges`],
    /// [`RunStats::halo_exchanges`]) filled in.
    pub fn stats(&self) -> RunStats {
        match &self.inner {
            Inner::Single(s) => s.stats(),
            Inner::Multi(m) => m.stats,
        }
    }

    /// Every inter-shard exchange of the most recent step, in execution
    /// order — the per-kernel communication profile. Empty for a
    /// single-shard session.
    pub fn exchanges(&self) -> &[ExchangeRecord] {
        match &self.inner {
            Inner::Single(_) => &[],
            Inner::Multi(m) => &m.records,
        }
    }

    /// The per-shard sessions (the one session of a single-shard build),
    /// for inspection: each owns its shard's plan, arena and pool.
    pub fn shards(&self) -> &[Session<'a>] {
        match &self.inner {
            Inner::Single(s) => std::slice::from_ref(s),
            Inner::Multi(m) => &m.shards,
        }
    }

    /// Per-shard size figures (one entry per shard).
    pub fn shard_summaries(&self) -> Vec<ShardSummary> {
        match &self.inner {
            Inner::Single(s) => vec![ShardSummary {
                num_vertices: s.graph().num_vertices(),
                num_edges: s.graph().num_edges(),
                dst_reduced_edges: s.graph().num_edges(),
                src_reduced_edges: s.graph().num_edges(),
                owned_vertices: s.graph().num_vertices(),
                halo_rows: 0,
                arena_bytes: s.memory_plan().arena_bytes,
            }],
            Inner::Multi(m) => m.summaries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::{compile, BinaryFn, CompileOptions, Dim, IrGraph, ReduceFn, ScatterFn};
    use gnnopt_graph::generators;

    fn gcn_ir(feat: usize) -> IrGraph {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(feat));
        let w1 = ir.param("w1", feat, feat);
        let x = ir.linear(h, w1).unwrap();
        let e = ir.scatter(ScatterFn::CopyU, x, x).unwrap();
        let v = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, e).unwrap();
        let r = ir.unary(gnnopt_core::UnaryFn::Relu, v).unwrap();
        let w2 = ir.param("w2", feat, feat);
        let x2 = ir.linear(r, w2).unwrap();
        let e2 = ir.scatter(ScatterFn::CopyU, x2, x2).unwrap();
        let y = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, e2).unwrap();
        ir.mark_output(y);
        ir
    }

    fn gat_like_ir(feat: usize) -> IrGraph {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(feat));
        let w = ir.param("w", feat, feat);
        let x = ir.linear(h, w).unwrap();
        let s = ir.scatter(ScatterFn::Bin(BinaryFn::Add), x, x).unwrap();
        let a = ir.edge_softmax(s).unwrap();
        let m = ir.scatter(ScatterFn::CopyU, x, x).unwrap();
        let wm = ir.binary(BinaryFn::Mul, a, m).unwrap();
        let v = ir.gather(ReduceFn::Sum, EdgeGroup::ByDst, wm).unwrap();
        ir.mark_output(v);
        ir
    }

    fn max_ir(feat: usize) -> IrGraph {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(feat));
        let w = ir.param("w", feat, feat);
        let x = ir.linear(h, w).unwrap();
        let e = ir.scatter(ScatterFn::CopyU, x, x).unwrap();
        let v = ir.gather(ReduceFn::Max, EdgeGroup::ByDst, e).unwrap();
        ir.mark_output(v);
        ir
    }

    fn run_pair(ir: &IrGraph, g: &Graph, k: usize) {
        let plan = compile(ir, true, &CompileOptions::ours()).unwrap().plan;
        let mut bindings = Bindings::new();
        let mut col = 0.1f32;
        for n in plan.ir.nodes() {
            let t = match n.kind {
                OpKind::InputVertex => Tensor::from_fn(&[g.num_vertices(), n.dim.total()], |i| {
                    ((i % 13) as f32 - 6.0) * 0.17 + col
                }),
                OpKind::InputEdge => Tensor::from_fn(&[g.num_edges(), n.dim.total()], |i| {
                    ((i % 7) as f32 - 3.0) * 0.29 + col
                }),
                OpKind::Param => Tensor::from_fn(&[n.dim.heads, n.dim.feat], |i| {
                    ((i % 11) as f32 - 5.0) * 0.13 + col
                }),
                _ => continue,
            };
            col += 0.31;
            bindings.insert(&n.name, t);
        }
        let seed = Tensor::from_fn(
            &[
                g.num_vertices(),
                plan.ir.node(plan.ir.outputs()[0]).dim.total(),
            ],
            |i| ((i % 5) as f32 - 2.0) * 0.41,
        );

        // The reference is the unsharded session (one shard builds a
        // plain `Session`), itself held to the node-by-node oracle by
        // the session suites and `tests/sharded_exec.rs`.
        let mut plain = ShardedSession::builder(&plan, g)
            .shards(1)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let ref_out = plain.forward(&bindings).unwrap();
        let ref_grads = plain.backward(seed.clone()).unwrap();

        let mut sharded = ShardedSession::builder(&plan, g)
            .shards(k)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        assert_eq!(sharded.num_shards(), k.clamp(1, g.num_vertices()));
        let out = sharded.forward(&bindings).unwrap();
        let grads = sharded.backward(seed).unwrap();

        for (a, b) in ref_out.iter().zip(&out) {
            assert_eq!(a.as_slice(), b.as_slice(), "forward outputs diverge");
        }
        assert_eq!(ref_grads.len(), grads.len());
        for (name, gref) in &ref_grads {
            assert_eq!(
                gref.as_slice(),
                grads[name].as_slice(),
                "gradient of '{name}' diverges"
            );
        }
    }

    #[test]
    fn gcn_matches_unsharded_bit_for_bit() {
        let g = Graph::from_edge_list(&generators::rmat(5, 6, 0.55, 0.2, 0.2, 11));
        for k in [2, 3, 4] {
            run_pair(&gcn_ir(4), &g, k);
        }
    }

    #[test]
    fn softmax_model_matches_unsharded_bit_for_bit() {
        let g = Graph::from_edge_list(&generators::rmat(5, 5, 0.5, 0.25, 0.15, 3));
        for k in [2, 3, 4] {
            run_pair(&gat_like_ir(3), &g, k);
        }
    }

    #[test]
    fn gather_max_matches_unsharded_bit_for_bit() {
        let g = Graph::from_edge_list(&generators::rmat(5, 4, 0.45, 0.3, 0.15, 7));
        for k in [2, 3] {
            run_pair(&max_ir(3), &g, k);
        }
    }

    #[test]
    fn star_and_ring_extremes_match() {
        // Extreme hub: every spoke's edge is cut unless it shares the
        // hub's shard.
        let star = Graph::from_edge_list(&generators::star(17));
        run_pair(&gcn_ir(3), &star, 3);
        let ring = Graph::from_edge_list(&generators::ring(12));
        run_pair(&gat_like_ir(2), &ring, 4);
    }

    #[test]
    fn shard_count_clamps_and_one_is_plain() {
        let g = Graph::from_edge_list(&generators::ring(6));
        let plan = compile(&gcn_ir(2), false, &CompileOptions::ours())
            .unwrap()
            .plan;
        let s = ShardedSession::builder(&plan, &g)
            .shards(1)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        assert_eq!(s.num_shards(), 1);
        let s = ShardedSession::builder(&plan, &g)
            .shards(99)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        assert_eq!(s.num_shards(), 6, "shard count clamps to |V|");
    }

    #[test]
    fn comm_stats_and_records_are_reported() {
        let g = Graph::from_edge_list(&generators::rmat(5, 5, 0.55, 0.2, 0.2, 5));
        let plan = compile(&gcn_ir(3), true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let mut bindings = Bindings::new();
        bindings.insert("h", Tensor::ones(&[g.num_vertices(), 3]));
        bindings.insert("w1", Tensor::ones(&[3, 3]));
        bindings.insert("w2", Tensor::ones(&[3, 3]));
        let seed = Tensor::ones(&[g.num_vertices(), 3]);
        let mut s = ShardedSession::builder(&plan, &g)
            .shards(2)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        s.step(&bindings, &seed).unwrap();
        let st = s.stats();
        assert_eq!(st.shards, 2);
        assert!(st.cut_edges > 0, "rmat with 2 shards must cut edges");
        assert!(st.halo_vertices > 0);
        assert!(st.comm_bytes > 0);
        assert_eq!(
            st.halo_exchanges,
            s.exchanges().len() as u64,
            "stats count the recorded exchanges"
        );
        // The GCN's weight gradients are global kernels: both gathers
        // and scatters must appear.
        assert!(s
            .exchanges()
            .iter()
            .any(|r| r.kind == ExchangeKind::GlobalGather));
        assert!(s
            .exchanges()
            .iter()
            .any(|r| r.kind == ExchangeKind::VertexHalo && !r.backward));
        let sums = s.shard_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(
            sums.iter().map(|x| x.owned_vertices).sum::<usize>(),
            g.num_vertices()
        );
        assert!(sums.iter().all(|x| x.arena_bytes > 0));
    }

    /// GAT's fused backward needs a mid-kernel exchange, so the builder
    /// cuts it — and the exchanges of its pieces still name the kernel
    /// of the caller's plan, which is what inspection tools print.
    #[test]
    fn exchange_records_name_the_callers_kernels_across_a_cut() {
        use gnnopt_models::{gat, GatConfig};
        let g = Graph::from_edge_list(&generators::rmat(5, 5, 0.5, 0.25, 0.15, 3));
        let spec = gat(&GatConfig {
            in_dim: 4,
            layers: vec![(2, 3)],
            negative_slope: 0.2,
            reorganized: false,
        })
        .unwrap();
        let plan = compile(&spec.ir, true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let mut bindings = Bindings::new();
        for (name, t) in spec.init_values(&g, 5) {
            bindings.insert(&name, t);
        }
        let seed = Tensor::ones(&[g.num_vertices(), spec.output_dim()]);
        let mut s = ShardedSession::builder(&plan, &g)
            .shards(2)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        s.step(&bindings, &seed).unwrap();

        let Inner::Multi(m) = &s.inner else {
            panic!("two shards build the driver");
        };
        assert!(
            m.plan.kernels.len() > plan.kernels.len(),
            "fixture: some kernel of GAT is cut"
        );
        assert_eq!(m.origin.len(), m.plan.kernels.len());
        assert!(m
            .origin
            .windows(2)
            .all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        assert_eq!(m.origin.last(), Some(&(plan.kernels.len() - 1)));
        for (derived, &orig) in m.plan.kernels.iter().zip(&m.origin) {
            assert!(derived
                .nodes
                .iter()
                .all(|n| plan.kernels[orig].nodes.contains(n)));
        }
        // The patch between two pieces moves a member of the very kernel
        // it is recorded for — only a cut produces that.
        let names = |k: usize| -> Vec<&str> {
            let nodes = plan.kernels[k].nodes.iter();
            nodes.map(|&n| plan.ir.node(n).name.as_str()).collect()
        };
        assert!(s.exchanges().iter().all(|r| r.kernel < plan.kernels.len()));
        assert!(s
            .exchanges()
            .iter()
            .any(|r| r.kind == ExchangeKind::EdgeReplica
                && names(r.kernel).contains(&r.value.as_str())));
    }
}
