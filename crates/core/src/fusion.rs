//! Kernel fusion with unified thread mapping (paper §5), plus faithful
//! models of the baselines' restricted fusion capabilities.
//!
//! The paper's observation: vertex-centric operators are conventionally
//! vertex-balanced and edge-centric ones edge-balanced, and the divergence
//! blocks fusing a `Scatter` with the `Gather` that consumes it. Decoupling
//! mapping from operator type lets *all* graph-related operators share one
//! mapping and fuse into a single kernel ([`FusionLevel::Unified`]).
//!
//! The unified clustering is *view-driven*, not template-driven: every
//! dataflow edge is classified by [`crate::view::edge_view`] (aligned /
//! endpoint / reduction / broadcast), and regions grow greedily along
//! fusible edges. Every fusion level merges under one rule (`merge`): a
//! merge is admitted only if the induced kernel DAG stays acyclic
//! (`assignment_is_acyclic`) and every endpoint read of an in-kernel
//! value matches its producer's reduction grouping
//! (`assignment_is_legal`). Because each merge is individually guarded,
//! every partition — the baselines' included — yields a schedulable
//! kernel DAG, and there is no fallback path. Kernel boundaries,
//! materialization classes and streaming eligibility all follow from the
//! same views (see
//! [`crate::lower`]), which is what makes lowering total over the operator
//! algebra.
//!
//! Baselines:
//! * [`FusionLevel::None`] — one kernel per operator (ablation baseline);
//! * [`FusionLevel::DglBuiltin`] — DGL: fused edge-softmax plus the gSpMM
//!   pattern (`Gather ∘ Binary ∘ Scatter(Copy*)`), everything else
//!   unfused;
//! * [`FusionLevel::EdgeOnly`] — fuseGNN: DGL's kernels, and additionally
//!   chains of edge-centric operators, but never across the edge→vertex
//!   boundary.

use crate::ir::IrGraph;
use crate::op::{BinaryFn, EdgeGroup, FusionClass, NodeId, OpKind, ScatterFn, Space};
use crate::plan::Kernel;
use crate::view::{self, Layout};
use gnnopt_sim::ThreadMapping;
use std::collections::{HashMap, HashSet};

/// How aggressively to fuse (which system is being modeled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionLevel {
    /// One kernel per operator.
    None,
    /// DGL's built-in fused kernels only.
    DglBuiltin,
    /// fuseGNN: edge-centric chains (plus the DGL built-ins).
    EdgeOnly,
    /// This paper: fuse all graph-related + lightweight operators under a
    /// unified thread mapping.
    Unified,
}

/// Thread-mapping selection policy for fused graph kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingPolicy {
    /// Vertex-balanced when a reduction/softmax is present, edge-balanced
    /// otherwise (the paper's default choice).
    #[default]
    Auto,
    /// Force vertex-balanced mappings for all graph kernels.
    ForceVertex,
    /// Force edge-balanced mappings (reductions pay the atomic penalty).
    ForceEdge,
}

/// Partitions the IR's compute nodes into kernels.
pub fn partition(ir: &IrGraph, level: FusionLevel, policy: MappingPolicy) -> Vec<Kernel> {
    let region = match level {
        FusionLevel::None => regions_unfused(ir),
        FusionLevel::DglBuiltin => regions_dgl(ir),
        FusionLevel::EdgeOnly => regions_edge_only(ir),
        FusionLevel::Unified => regions_unified(ir),
    };
    build_kernels(ir, &region, policy)
}

/// Gives every consumer of a shared `Scatter(CopyU/CopyV)` its own private
/// copy of the scatter (a zero-FLOP node), folds every view node onto its
/// readers' input edges, and removes dead originals.
///
/// This normalization mirrors what every real GNN system does implicitly:
/// copy-style scatters are access patterns, not tensors, so each consuming
/// kernel re-reads the vertex tensor instead of sharing a materialized
/// `O(|E|)` copy — in particular, DGL's gSpMM/gSDDMM *backward* built-ins
/// read the stashed vertex features directly. Views are the same kind of
/// thing: a reader of `View(l)` of `x` reads `x` through `l`
/// ([`crate::ir::Node::layouts`]), chains composing, so no later pass
/// sees a view node. A *terminal* view — a model output or a sink (a
/// gradient) — that relabels its producer's buffer without changing
/// its shape resolves to the producer; any other stays, a copy through
/// its layouts ([`crate::view`], "Layouts"). Returns the rewritten
/// graph and the old→new node-id map.
pub fn duplicate_copy_scatters(ir: &IrGraph) -> (IrGraph, HashMap<NodeId, NodeId>) {
    let consumers = ir.consumers();
    let terminal = |id: NodeId| consumers[id].is_empty() || ir.outputs().contains(&id);
    // What each old node's readers read: the value and the layouts on
    // the way (empty for a node that is not a view).
    let mut reads: Vec<(NodeId, Vec<Layout>)> = Vec::with_capacity(ir.len());
    // Readers of each value once the views are folded, counted by edge.
    let mut readers = vec![0usize; ir.len()];
    for n in ir.nodes() {
        let folded = matches!(n.kind, OpKind::View(_)) && !terminal(n.id);
        let read = match n.kind {
            OpKind::View(l) => {
                let (base, mut chain) = reads[n.inputs[0]].clone();
                chain.push(l);
                (base, chain)
            }
            _ => (n.id, Vec::new()),
        };
        if !folded {
            for &i in &n.inputs {
                readers[reads[i].0] += 1;
            }
        }
        reads.push(read);
    }
    let mut out = IrGraph::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for node in ir.nodes() {
        out.set_phase(node.phase);
        if matches!(node.kind, OpKind::View(_)) {
            let (base, chain) = &reads[node.id];
            let relabel = view::is_free(chain, ir.node(*base).dim, node.space)
                && out.node(map[base]).kind.fusion_class() != FusionClass::Leaf;
            if relabel && terminal(node.id) {
                map.insert(node.id, map[base]);
            }
            if relabel || !terminal(node.id) {
                continue;
            }
        }
        let mut inputs = Vec::with_capacity(node.inputs.len());
        let mut layouts = Vec::new();
        for (pos, &i) in node.inputs.iter().enumerate() {
            let (base, chain) = &reads[i];
            layouts.extend(chain.iter().map(|&l| (pos, l)));
            let (mut src, copy) = (map[base], out.node(map[base]).clone());
            let copies = matches!(
                copy.kind,
                OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV)
            );
            if copies && readers[*base] > 1 {
                let name = format!("{}_dup", copy.name);
                src = out.push_raw(copy.kind, copy.inputs, copy.space, copy.dim, name);
                out.set_layouts(src, copy.layouts);
            }
            inputs.push(src);
        }
        let id = out.push_copy(node, inputs, layouts, &map);
        map.insert(node.id, id);
    }
    for &o in ir.outputs() {
        out.mark_output(map[&o]);
    }
    // Keep what the outputs and the sinks that are not copy-scatters (the
    // parameter gradients) reach: the originals every reader now has a
    // private copy of go.
    let consumers = out.consumers();
    let sinks = out.nodes().iter().filter(|n| {
        consumers[n.id].is_empty()
            && !matches!(n.kind, OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV))
    });
    let (live, kept) = out.reachable(out.outputs().iter().copied().chain(sinks.map(|n| n.id)));
    let map = map
        .into_iter()
        .filter_map(|(old, mid)| Some((old, *kept.get(&mid)?)));
    (live, map.collect())
}

fn is_compute(ir: &IrGraph, id: NodeId) -> bool {
    ir.node(id).kind.fusion_class() != FusionClass::Leaf
}

fn is_fusible(ir: &IrGraph, id: NodeId) -> bool {
    ir.node(id).kind.fusion_class() == FusionClass::Fusible
}

/// Every compute node in its own region, numbered by its id: a merged
/// region keeps the smaller number, its first member's ([`merge`]).
fn regions_unfused(ir: &IrGraph) -> Vec<Option<usize>> {
    let compute = |n: &crate::ir::Node| is_compute(ir, n.id).then_some(n.id);
    ir.nodes().iter().map(compute).collect()
}

/// The one merge rule of every fusion level: joins the regions of `a`
/// and `b` unless the kernel DAG would close a cycle
/// ([`assignment_is_acyclic`]) or an endpoint read would see another
/// group's reduction ([`assignment_is_legal`]).
fn merge(ir: &IrGraph, region: &mut [Option<usize>], a: NodeId, b: NodeId) {
    let (Some(ra), Some(rb)) = (region[a], region[b]) else {
        unreachable!("only compute nodes merge")
    };
    if ra == rb {
        return;
    }
    let (keep, gone) = (ra.min(rb), ra.max(rb));
    let moved: Vec<usize> = (0..region.len())
        .filter(|&i| region[i] == Some(gone))
        .collect();
    for &i in &moved {
        region[i] = Some(keep);
    }
    if !assignment_is_acyclic(ir, region) || !assignment_is_legal(ir, region) {
        for &i in &moved {
            region[i] = Some(gone);
        }
    }
}

/// The paper's unified fusion: grow regions greedily along fusible
/// same-phase dataflow edges under the merge rule ([`merge`]), which keeps
/// every region convex. This recovers the paper's single-kernel GAT
/// forward/backward while correctly splitting around gradient-accumulation
/// points that read expensive kernels' outputs.
fn regions_unified(ir: &IrGraph) -> Vec<Option<usize>> {
    let mut region = regions_unfused(ir);
    let consumers = ir.consumers();
    for n in ir.nodes() {
        if !is_fusible(ir, n.id) {
            continue;
        }
        // A value an expensive op reads leaves its kernel anyway: a
        // row-local vertex op does not join that kernel through it but
        // runs with its own readers, so its output is not written (GAT's
        // head-dot input duals join the feature gradient's sum).
        let row_local = n.space == Space::Vertex && !n.kind.is_graph_op();
        let dense_reads = |i: NodeId| consumers[i].iter().any(|&c| !is_fusible(ir, c));
        let mut cands: Vec<NodeId> = n
            .inputs
            .iter()
            .copied()
            .filter(|&i| is_fusible(ir, i) && ir.node(i).phase == n.phase)
            .filter(|&i| !(row_local && dense_reads(i)))
            .collect();
        // Producer regions in the order they were founded.
        cands.sort_unstable_by_key(|&i| region[i]);
        for i in cands {
            merge(ir, &mut region, i, n.id);
        }
    }
    region
}

/// Collects the reduction groupings of every in-region producer a vertex
/// operand depends on, resolving through views and vertex-space
/// elementwise ops (which inherit their input's grouping: the worker that
/// owns a row also applies the elementwise function to it). An in-region
/// non-reduction graph producer is recorded as `None` (ungrouped —
/// unreadable from any endpoint). `inside` says which nodes the region
/// holds.
fn in_region_groups(
    ir: &IrGraph,
    inside: &dyn Fn(NodeId) -> bool,
    id: NodeId,
    out: &mut Vec<Option<EdgeGroup>>,
) {
    let node = ir.node(id);
    if !inside(id) {
        return; // global memory (leaf or another kernel): safe anywhere
    }
    if let Some(g) = node.kind.reduction_group() {
        out.push(Some(g));
        return;
    }
    // Elementwise / view producers: inherit from vertex-space inputs.
    let mut recursed = false;
    for &i in &node.inputs {
        if ir.node(i).space == Space::Vertex {
            in_region_groups(ir, inside, i, out);
            recursed = true;
        }
    }
    if !recursed {
        out.push(None);
    }
}

/// Checks the cross-group legality of a region assignment (§5): a fused
/// kernel computes a reduction row inside the thread group that owns it,
/// so an in-kernel value produced under grouping `G` can only be read
/// back at endpoint `G`, and only when `G` is the kernel's primary
/// direction (a reduction diverging from the primary is implemented with
/// atomics, whose partial state must never be read in-kernel). Everything
/// else must arrive from global memory — i.e. a kernel boundary.
fn assignment_is_legal(ir: &IrGraph, region: &[Option<usize>]) -> bool {
    // Primary direction per region: the softmax's ByDst if present, else
    // the first reduction's grouping (mirrors `choose_mapping`).
    let mut primary: HashMap<usize, EdgeGroup> = HashMap::new();
    let mut softmaxed: HashSet<usize> = HashSet::new();
    for n in ir.nodes() {
        let Some(r) = region[n.id] else { continue };
        if n.kind == OpKind::EdgeSoftmax {
            primary.insert(r, EdgeGroup::ByDst);
            softmaxed.insert(r);
        } else if let Some(g) = n.kind.reduction_group() {
            if !softmaxed.contains(&r) {
                primary.entry(r).or_insert(g);
            }
        }
    }
    for n in ir.nodes() {
        // Endpoint reads, from the per-edge views (`view::edge_view`).
        let reads = view::endpoint_reads(ir, n.id);
        if reads.is_empty() {
            continue;
        }
        let Some(r) = region[n.id] else { continue };
        for (idx, endpoint) in reads {
            // Deduplicated copy-scatters carry a single input; clamp.
            let input = *n.inputs.get(idx).unwrap_or(&n.inputs[0]);
            let mut groups = Vec::new();
            in_region_groups(ir, &|i| region[i] == Some(r), input, &mut groups);
            for g in groups {
                let legal = g == Some(endpoint) && primary.get(&r).is_none_or(|&p| p == endpoint);
                if !legal {
                    return false;
                }
            }
        }
    }
    true
}

/// Checks that the kernel DAG induced by the region assignment is
/// acyclic.
fn assignment_is_acyclic(ir: &IrGraph, region: &[Option<usize>]) -> bool {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for n in ir.nodes() {
        let Some(cn) = region[n.id] else { continue };
        for &i in &n.inputs {
            if let Some(ci) = region[i] {
                if ci != cn {
                    edges.push((ci, cn));
                }
            }
        }
    }
    // Kahn over the contracted graph.
    let mut ids: HashMap<usize, usize> = HashMap::new();
    for &(a, b) in &edges {
        let l = ids.len();
        ids.entry(a).or_insert(l);
        let l = ids.len();
        ids.entry(b).or_insert(l);
    }
    let m = ids.len();
    let mut indeg = vec![0usize; m];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for &(a, b) in &edges {
        let (a, b) = (ids[&a], ids[&b]);
        if seen.insert((a, b)) {
            adj[a].push(b);
            indeg[b] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..m).filter(|&i| indeg[i] == 0).collect();
    let mut visited = 0;
    while let Some(x) = queue.pop() {
        visited += 1;
        for &y in &adj[x] {
            indeg[y] -= 1;
            if indeg[y] == 0 {
                queue.push(y);
            }
        }
    }
    visited == m
}

/// True if `id` is a `Scatter(CopyU)`/`Scatter(CopyV)` whose only consumer
/// is `only`.
fn is_private_copy_scatter(
    ir: &IrGraph,
    consumers: &[Vec<NodeId>],
    id: NodeId,
    only: NodeId,
) -> bool {
    matches!(
        ir.node(id).kind,
        OpKind::Scatter(ScatterFn::CopyU) | OpKind::Scatter(ScatterFn::CopyV)
    ) && consumers[id] == [only]
}

/// DGL's built-in fusion: gSpMM patterns around every `Gather`, the gSDDMM
/// dot pattern around every `FeatSum`, fused edge-softmax, nothing else.
fn regions_dgl(ir: &IrGraph) -> Vec<Option<usize>> {
    let consumers = ir.consumers();
    let mut region = regions_unfused(ir);
    for n in ir.nodes() {
        let gather = matches!(n.kind, OpKind::Gather { .. });
        if !(gather || n.kind == OpKind::FeatSum) {
            continue;
        }
        let src = n.inputs[0];
        if consumers[src] != [n.id] {
            continue;
        }
        match &ir.node(src).kind {
            // gSpMM: gather ∘ [binary ∘] scatter_copy; gSDDMM dot:
            // feat_sum ∘ binary(mul) ∘ scatter_copies — e.g. `u_dot_v`,
            // which is exactly the backward of `u_mul_e` SpMM.
            OpKind::Binary(f) if gather || *f == BinaryFn::Mul => {
                merge(ir, &mut region, src, n.id);
                for &bi in &ir.node(src).inputs {
                    if is_private_copy_scatter(ir, &consumers, bi, src) {
                        merge(ir, &mut region, bi, n.id);
                    }
                }
            }
            OpKind::Scatter(ScatterFn::CopyU | ScatterFn::CopyV) if gather => {
                merge(ir, &mut region, src, n.id);
            }
            _ => {}
        }
    }
    region
}

/// fuseGNN: the DGL built-ins plus maximal chains of edge-centric fusible
/// operators, never across the edge→vertex boundary: a chain joins no
/// region that holds a vertex-space op (a gSpMM's gather).
fn regions_edge_only(ir: &IrGraph) -> Vec<Option<usize>> {
    let mut region = regions_dgl(ir);
    let edge_centric = |id: NodeId| is_fusible(ir, id) && ir.node(id).space == Space::Edge;
    let edges_only = |region: &[Option<usize>], id: NodeId| {
        let mut members = ir.nodes().iter().filter(|m| region[m.id] == region[id]);
        members.all(|m| m.space == Space::Edge)
    };
    for n in ir.nodes() {
        if !edge_centric(n.id) {
            continue;
        }
        for &i in &n.inputs {
            if edge_centric(i)
                && ir.node(i).phase == n.phase
                && edges_only(&region, i)
                && edges_only(&region, n.id)
            {
                merge(ir, &mut region, i, n.id);
            }
        }
    }
    region
}

/// Merges the backward graph kernels that recompute the same forward
/// region (§5 and §6 together): two kernels under one mapping, one's
/// recompute closure ([`Kernel::recompute`]) holding the other's, that
/// read a vertex tensor from outside both at the same endpoint walk the
/// same edges the same way, so one walk rebuilds the region for both
/// (GAT's attention backward and feature gradient, which both recompute
/// the softmax and read `∂out[dst]`). The merge keeps the kernel DAG
/// acyclic (`assignment_is_acyclic`), and neither kernel may read the
/// other's members through an endpoint, so no in-kernel endpoint read
/// appears that fusion did not judge (`assignment_is_legal`). The row-local
/// vertex tail, which runs after the walk anyway, stays a kernel of its
/// own, scheduled after the kernels that read the walk's sums.
pub fn merge_shared_recompute(ir: &IrGraph, mut kernels: Vec<Kernel>) -> Vec<Kernel> {
    // The endpoint reads of `k`'s members: `(input, group)`.
    let reads = |k: &Kernel| -> Vec<(NodeId, EdgeGroup)> {
        let reads = k.nodes.iter().flat_map(|&n| {
            let inputs = &ir.node(n).inputs;
            let read = view::endpoint_reads(ir, n).into_iter();
            read.map(move |(pos, g)| (*inputs.get(pos).unwrap_or(&inputs[0]), g))
        });
        reads.collect()
    };
    let holds = |k: &Kernel, l: &Kernel| {
        !l.recompute.is_empty() && l.recompute.iter().all(|r| k.recompute.contains(r))
    };
    let mut region = vec![None; ir.len()];
    for (ki, k) in kernels.iter().enumerate() {
        k.nodes.iter().for_each(|&n| region[n] = Some(ki));
    }
    for a in 0..kernels.len() {
        for b in a + 1..kernels.len() {
            let (ka, kb) = (&kernels[a], &kernels[b]);
            let (ra, rb) = (reads(ka), reads(kb));
            let outside = |i: NodeId| region[i] != Some(a) && region[i] != Some(b);
            let shared = ra.iter().any(|r| outside(r.0) && rb.contains(r));
            let crosses = ra.iter().any(|r| region[r.0] == Some(b))
                || rb.iter().any(|r| region[r.0] == Some(a));
            if !(holds(ka, kb) || holds(kb, ka)) || ka.mapping != kb.mapping || !shared || crosses {
                continue;
            }
            let mut merged = region.clone();
            kb.nodes.iter().for_each(|&n| merged[n] = Some(a));
            if !assignment_is_acyclic(ir, &merged) {
                continue;
            }
            let recompute = [kb, ka][usize::from(holds(ka, kb))].recompute.clone();
            let mut nodes: Vec<NodeId> = ka.nodes.iter().chain(&kb.nodes).copied().collect();
            nodes.sort_unstable();
            let tail = row_local_tail(ir, &nodes);
            nodes.retain(|n| !tail.contains(n));
            tail.iter().for_each(|&n| region[n] = Some(b));
            nodes.iter().for_each(|&n| region[n] = Some(a));
            let (mapping, atomic_reduction) = choose_mapping(ir, &tail, MappingPolicy::Auto);
            kernels[b] = Kernel {
                id: b,
                nodes: tail,
                mapping,
                atomic_reduction,
                recompute: Vec::new(),
            };
            let ka = &mut kernels[a];
            ka.atomic_reduction = atomic_flag(ir, &nodes, ka.mapping);
            (ka.nodes, ka.recompute) = (nodes, recompute);
        }
    }
    kernels.retain(|k| !k.nodes.is_empty());
    schedule(ir, kernels)
}

/// The largest set of row-local vertex members of `nodes` (ascending)
/// whose readers among `nodes` are all in the set.
fn row_local_tail(ir: &IrGraph, nodes: &[NodeId]) -> Vec<NodeId> {
    let consumers = ir.consumers();
    let mut tail: Vec<NodeId> = Vec::new();
    for &n in nodes.iter().rev() {
        let node = ir.node(n);
        let mut readers = consumers[n].iter().filter(|c| nodes.contains(c));
        if node.space == Space::Vertex
            && !node.kind.is_graph_op()
            && readers.all(|c| tail.contains(c))
        {
            tail.insert(0, n);
        }
    }
    tail
}

/// Groups regions into [`Kernel`]s, assigns mappings, and topologically
/// sorts the kernel DAG, which every region builder keeps acyclic
/// ([`merge`]).
fn build_kernels(ir: &IrGraph, region: &[Option<usize>], policy: MappingPolicy) -> Vec<Kernel> {
    let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for n in ir.nodes() {
        if let Some(r) = region[n.id] {
            groups.entry(r).or_default().push(n.id);
        }
    }
    // Provisional kernels.
    let kernels: Vec<Kernel> = groups
        .into_values()
        .map(|nodes| {
            let (mapping, atomic) = choose_mapping(ir, &nodes, policy);
            Kernel {
                id: 0,
                nodes,
                mapping,
                atomic_reduction: atomic,
                recompute: Vec::new(),
            }
        })
        .collect();
    schedule(ir, kernels)
}

/// Orders kernels topologically and numbers them in that order.
fn schedule(ir: &IrGraph, mut kernels: Vec<Kernel>) -> Vec<Kernel> {
    // Deterministic provisional order by last member id: a kernel runs
    // where the last op it holds falls in program order, so one holding
    // an early op and a late one does not run ahead of the kernels in
    // between and keep alive what they are the last to read.
    kernels.sort_by_key(|k| k.nodes.last().copied());

    // Kahn toposort of the kernel DAG (ties broken by provisional order).
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    for (ki, k) in kernels.iter().enumerate() {
        for &n in &k.nodes {
            owner.insert(n, ki);
        }
    }
    let mut indeg = vec![0usize; kernels.len()];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); kernels.len()];
    for (ki, k) in kernels.iter().enumerate() {
        for &n in &k.nodes {
            for &i in &ir.node(n).inputs {
                if let Some(&kj) = owner.get(&i) {
                    if kj != ki && !edges[kj].contains(&ki) {
                        edges[kj].push(ki);
                        indeg[ki] += 1;
                    }
                }
            }
        }
    }
    let mut ready: Vec<usize> = (0..kernels.len()).filter(|&k| indeg[k] == 0).collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(kernels.len());
    while let Some(k) = ready.first().copied() {
        ready.remove(0);
        order.push(k);
        for &next in &edges[k] {
            indeg[next] -= 1;
            if indeg[next] == 0 {
                let pos = ready.binary_search(&next).unwrap_or_else(|p| p);
                ready.insert(pos, next);
            }
        }
    }
    assert_eq!(order.len(), kernels.len(), "merged regions stay convex");

    let mut out: Vec<Kernel> = order.into_iter().map(|ki| kernels[ki].clone()).collect();
    for (i, k) in out.iter_mut().enumerate() {
        k.id = i;
        k.nodes.sort_unstable();
    }
    out
}

/// The group through which a kernel scatters one of its own reductions
/// back to its edges — an edge softmax's `ByDst`, or the endpoint at which
/// a member reads an in-kernel reduction (a `Sum` read back through a
/// `CopyV`). Such kernels buffer per-group reductions in shared memory and
/// must stay vertex-balanced (§5 "A special case is when ReduceScatter is
/// involved").
pub fn kernel_reduce_scatter(ir: &IrGraph, nodes: &[NodeId]) -> Option<EdgeGroup> {
    let inside = |i: NodeId| nodes.contains(&i);
    nodes.iter().find_map(|&n| {
        let node = ir.node(n);
        if node.kind == OpKind::EdgeSoftmax {
            return Some(EdgeGroup::ByDst);
        }
        let mut reads = view::endpoint_reads(ir, n).into_iter();
        reads.find_map(|(pos, g)| {
            let mut groups = Vec::new();
            in_region_groups(ir, &inside, node.inputs[pos], &mut groups);
            groups.iter().any(Option::is_some).then_some(g)
        })
    })
}

/// Whether a kernel over `nodes` needs atomics under `mapping` (§5):
/// edge-balanced kernels atomically update any vertex-space reduction;
/// vertex-balanced kernels only when a second reduction diverges from the
/// kernel's primary grouping direction. Parameter-space reductions are
/// atomic under every mapping.
pub fn atomic_flag(ir: &IrGraph, nodes: &[NodeId], mapping: ThreadMapping) -> bool {
    let has_param_reduction = nodes.iter().any(|&n| ir.node(n).kind.is_param_reduction());
    let groups: Vec<EdgeGroup> = nodes
        .iter()
        .filter_map(|&n| ir.node(n).kind.reduction_group())
        .collect();
    match mapping {
        ThreadMapping::EdgeBalanced => !groups.is_empty() || has_param_reduction,
        ThreadMapping::VertexBalanced => {
            let first = groups.first().copied();
            let primary = kernel_reduce_scatter(ir, nodes).or(first);
            let primary = primary.unwrap_or(EdgeGroup::ByDst);
            groups.iter().any(|&g| g != primary) || has_param_reduction
        }
        ThreadMapping::Dense => has_param_reduction,
    }
}

/// Mapping + atomics decision for one kernel (§5).
fn choose_mapping(ir: &IrGraph, nodes: &[NodeId], policy: MappingPolicy) -> (ThreadMapping, bool) {
    let has_graph = nodes.iter().any(|&n| ir.node(n).kind.is_graph_op());
    let has_param_reduction = nodes.iter().any(|&n| ir.node(n).kind.is_param_reduction());
    if !has_graph {
        return (ThreadMapping::Dense, has_param_reduction);
    }
    let groups: Vec<EdgeGroup> = nodes
        .iter()
        .filter_map(|&n| ir.node(n).kind.reduction_group())
        .collect();
    let reduce_scatters = kernel_reduce_scatter(ir, nodes).is_some();
    let mapping = match policy {
        MappingPolicy::ForceVertex => ThreadMapping::VertexBalanced,
        MappingPolicy::ForceEdge if !reduce_scatters => ThreadMapping::EdgeBalanced,
        MappingPolicy::ForceEdge => ThreadMapping::VertexBalanced,
        MappingPolicy::Auto => {
            if groups.is_empty() {
                ThreadMapping::EdgeBalanced
            } else {
                ThreadMapping::VertexBalanced
            }
        }
    };
    (mapping, atomic_flag(ir, nodes, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Dim, ReduceFn, UnaryFn};

    /// h' = gather_sum(mul(softmax(leakyrelu(scatter_add(a, a))), copy_u(h)))
    /// — the graph-related part of a GAT layer.
    fn gat_like() -> (IrGraph, [NodeId; 6]) {
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
        (g, [e, lr, sm, hu, me, out])
    }

    #[test]
    fn unified_fuses_whole_graph_section() {
        let (g, nodes) = gat_like();
        let kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        assert_eq!(kernels.len(), 1, "all graph ops must fuse into one kernel");
        let k = &kernels[0];
        assert_eq!(k.mapping, ThreadMapping::VertexBalanced);
        assert!(!k.atomic_reduction);
        for n in nodes {
            assert!(k.nodes.contains(&n));
        }
    }

    #[test]
    fn unfused_gives_one_kernel_per_op() {
        let (g, _) = gat_like();
        let kernels = partition(&g, FusionLevel::None, MappingPolicy::Auto);
        assert_eq!(kernels.len(), 6);
    }

    #[test]
    fn dgl_fuses_softmax_and_spmm_only() {
        let (g, [e, lr, sm, hu, me, out]) = gat_like();
        let kernels = partition(&g, FusionLevel::DglBuiltin, MappingPolicy::Auto);
        // Expected: scatter_add | leaky_relu | edge_softmax | spmm(mul+copy+gather)
        assert_eq!(kernels.len(), 4);
        let spmm = kernels
            .iter()
            .find(|k| k.nodes.contains(&out))
            .expect("gather kernel");
        assert!(spmm.nodes.contains(&me) && spmm.nodes.contains(&hu));
        assert!(!spmm.nodes.contains(&sm));
        let scatter_kernel = kernels.iter().find(|k| k.nodes.contains(&e)).unwrap();
        assert_eq!(scatter_kernel.nodes.len(), 1);
        assert_eq!(scatter_kernel.mapping, ThreadMapping::EdgeBalanced);
        let lr_kernel = kernels.iter().find(|k| k.nodes.contains(&lr)).unwrap();
        assert_eq!(lr_kernel.nodes.len(), 1);
    }

    #[test]
    fn edge_only_fuses_edge_chain_but_not_across_gather() {
        let (g, [e, lr, sm, hu, me, out]) = gat_like();
        let kernels = partition(&g, FusionLevel::EdgeOnly, MappingPolicy::Auto);
        // scatter_add + leaky_relu + softmax chain fused; spmm separate.
        let chain = kernels.iter().find(|k| k.nodes.contains(&e)).unwrap();
        assert!(chain.nodes.contains(&lr) && chain.nodes.contains(&sm));
        assert!(!chain.nodes.contains(&out));
        let spmm = kernels.iter().find(|k| k.nodes.contains(&out)).unwrap();
        assert!(spmm.nodes.contains(&me) && spmm.nodes.contains(&hu));
        assert_eq!(kernels.len(), 2);
    }

    #[test]
    fn expensive_ops_split_regions() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let le = g.linear(e, w).unwrap(); // expensive on edges
        let r = g.unary(UnaryFn::Relu, le).unwrap();
        let out = g.gather(ReduceFn::Max, EdgeGroup::ByDst, r).unwrap();
        g.mark_output(out);
        let kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        // scatter | linear | relu+gather
        assert_eq!(kernels.len(), 3);
        let lin = kernels.iter().find(|k| k.nodes.contains(&le)).unwrap();
        assert_eq!(lin.mapping, ThreadMapping::Dense);
        let tail = kernels.iter().find(|k| k.nodes.contains(&out)).unwrap();
        assert!(tail.nodes.contains(&r));
        assert!(!tail.nodes.contains(&e));
    }

    #[test]
    fn force_edge_marks_atomics() {
        let (g, _) = gat_like();
        let kernels = partition(&g, FusionLevel::Unified, MappingPolicy::ForceEdge);
        // Softmax keeps the kernel vertex-balanced even under ForceEdge.
        assert_eq!(kernels[0].mapping, ThreadMapping::VertexBalanced);

        // Without softmax, ForceEdge yields an atomic edge-balanced kernel.
        let mut g2 = IrGraph::new();
        let h = g2.input_vertex("h", Dim::flat(4));
        let e = g2.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let v = g2.gather(ReduceFn::Sum, EdgeGroup::ByDst, e).unwrap();
        g2.mark_output(v);
        let kernels2 = partition(&g2, FusionLevel::Unified, MappingPolicy::ForceEdge);
        assert_eq!(kernels2.len(), 1);
        assert_eq!(kernels2[0].mapping, ThreadMapping::EdgeBalanced);
        assert!(kernels2[0].atomic_reduction);
    }

    /// APPNP-style propagation: each hop's gather output feeds the next
    /// hop's source-reading scatter. A single kernel cannot hand one
    /// thread group's gather result to an arbitrary other group, so the
    /// hops must land in different kernels.
    #[test]
    fn multi_hop_propagation_splits_at_gather_scatter_boundary() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(16));
        let ew = g.input_edge("ew", Dim::flat(1));
        let mut z = h;
        let hops = 3;
        for _ in 0..hops {
            let hu = g.scatter(ScatterFn::CopyU, z, z).unwrap();
            let me = g.binary(BinaryFn::Mul, hu, ew).unwrap();
            z = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
        }
        g.mark_output(z);
        let kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        assert_eq!(
            kernels.len(),
            hops,
            "each hop must be its own kernel (global sync between hops)"
        );
        // The legality invariant holds on the final partition.
        let mut region = vec![None; g.len()];
        for k in &kernels {
            for &n in &k.nodes {
                region[n] = Some(k.id);
            }
        }
        assert!(assignment_is_legal(&g, &region));
    }

    /// The legality barrier does not split the group-local
    /// softmax-aggregate chain: GAT still fuses into one kernel (the §5
    /// headline claim) because its scatters read only leaf inputs.
    #[test]
    fn legality_preserves_single_kernel_gat() {
        let (g, _) = gat_like();
        let kernels = partition(&g, FusionLevel::Unified, MappingPolicy::Auto);
        assert_eq!(kernels.len(), 1);
    }

    /// A shared `CopyU` forces duplication (inserting nodes and shifting
    /// every later id) and DCE then compacts ids again; the `fwd` pointer
    /// embedded in `GatherMaxBwd` must track its forward gather through
    /// both rewrites.
    #[test]
    fn duplication_remaps_gather_max_bwd_fwd_pointer() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let g1 = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, hu).unwrap();
        let mx = g.gather(ReduceFn::Max, EdgeGroup::ByDst, hu).unwrap();
        let a = g.binary(BinaryFn::Add, g1, mx).unwrap();
        g.mark_output(a);
        g.set_phase(crate::ir::Phase::Backward);
        let seed = g.push_raw(
            OpKind::GradSeed,
            vec![],
            Space::Vertex,
            Dim::flat(4),
            "seed",
        );
        let bwd = g.push_raw(
            OpKind::GatherMaxBwd { fwd: mx },
            vec![seed],
            Space::Edge,
            Dim::flat(4),
            "gmb",
        );
        g.mark_output(bwd);
        let (out, map) = duplicate_copy_scatters(&g);
        assert_ne!(map[&mx], mx, "duplication must shift the forward id");
        let OpKind::GatherMaxBwd { fwd } = out.node(map[&bwd]).kind else {
            panic!("rewrite changed the node kind");
        };
        assert_eq!(fwd, map[&mx], "fwd must track the remapped forward node");
        assert!(matches!(
            out.node(fwd).kind,
            OpKind::Gather {
                reduce: ReduceFn::Max,
                ..
            }
        ));
    }

    /// GAT's attention backward and feature gradient both rebuild the
    /// softmax and read `∂out[dst]`: one kernel, so a training step
    /// evaluates the softmax twice, forward and once recomputed. When
    /// the feature gradient adds what a dense kernel makes from the
    /// attention backward's sums, merging would close a cycle, and the
    /// two stay apart.
    #[test]
    fn kernels_rebuilding_one_softmax_merge_unless_a_cycle_forbids() {
        use crate::pipeline::{compile, CompileOptions};
        for scores_from_features in [false, true] {
            let mut g = IrGraph::new();
            let h = g.input_vertex("h", Dim::flat(8));
            let w = g.param("w", 8, 8);
            let hw = g.linear(h, w).unwrap();
            let a = g.param("a", 8, 1);
            let scored = if scores_from_features { hw } else { h };
            let score = g.linear(scored, a).unwrap();
            let e = g
                .scatter(ScatterFn::Bin(BinaryFn::Add), score, score)
                .unwrap();
            let lr = g.unary(UnaryFn::LeakyRelu(0.2), e).unwrap();
            let sm = g.edge_softmax(lr).unwrap();
            let hu = g.scatter(ScatterFn::CopyU, hw, hw).unwrap();
            let me = g.binary(BinaryFn::Mul, hu, sm).unwrap();
            let out = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
            g.mark_output(out);
            let plan = compile(&g, true, &CompileOptions::ours()).unwrap().plan;
            let softmax = |k: &&Kernel| {
                let mut nodes = k.nodes.iter().chain(&k.recompute);
                nodes.any(|&n| plan.ir.node(n).kind == OpKind::EdgeSoftmax)
            };
            let evaluated = plan.kernels.iter().filter(softmax).count();
            assert_eq!(evaluated, if scores_from_features { 3 } else { 2 });
        }
    }

    #[test]
    fn kernel_schedule_respects_dependencies() {
        let (g, _) = gat_like();
        for level in [
            FusionLevel::None,
            FusionLevel::DglBuiltin,
            FusionLevel::EdgeOnly,
            FusionLevel::Unified,
        ] {
            let kernels = partition(&g, level, MappingPolicy::Auto);
            let mut seen: Vec<NodeId> = Vec::new();
            for k in &kernels {
                for &n in &k.nodes {
                    for &i in &g.node(n).inputs {
                        let leaf = g.node(i).kind.fusion_class() == FusionClass::Leaf;
                        assert!(
                            leaf || seen.contains(&i) || k.nodes.contains(&i),
                            "{level:?}: node {n} scheduled before its input {i}"
                        );
                    }
                }
                seen.extend(&k.nodes);
            }
        }
    }
}
