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
//! fusible edges with each merge admitted only if the induced kernel DAG
//! stays acyclic ([`assignment_is_acyclic`]) and every endpoint read of an
//! in-kernel value matches its producer's reduction grouping
//! ([`assignment_is_legal`]). Because each merge is individually guarded,
//! the unified partition always yields a schedulable kernel DAG — there is
//! no fallback path. Kernel boundaries, materialization classes and
//! streaming eligibility all follow from the same views (see
//! [`crate::lower`]), which is what makes lowering total over the operator
//! algebra.
//!
//! Baselines:
//! * [`FusionLevel::None`] — one kernel per operator (ablation baseline);
//! * [`FusionLevel::DglBuiltin`] — DGL: fused edge-softmax plus the gSpMM
//!   pattern (`Gather ∘ Binary ∘ Scatter(Copy*)`), everything else
//!   unfused;
//! * [`FusionLevel::EdgeOnly`] — fuseGNN: additionally fuses chains of
//!   edge-centric operators, but never across the edge→vertex boundary.

use crate::ir::IrGraph;
use crate::op::{BinaryFn, EdgeGroup, FusionClass, NodeId, OpKind, ScatterFn, Space};
use crate::plan::Kernel;
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
    if let Some(kernels) = try_build_kernels(ir, &region, policy) {
        return kernels;
    }
    // Unified regions are acyclic by construction (every merge is guarded
    // by `assignment_is_acyclic`), and unfused regions trivially so; only
    // the baseline templates (DGL / fuseGNN) can produce a non-convex
    // pattern claim on exotic graphs. Degrade those to one-kernel-per-op.
    assert!(
        matches!(level, FusionLevel::DglBuiltin | FusionLevel::EdgeOnly),
        "merge-guarded {level:?} regions always form an acyclic kernel DAG"
    );
    try_build_kernels(ir, &regions_unfused(ir), policy)
        .expect("one kernel per op is trivially acyclic")
}

/// Gives every consumer of a shared `Scatter(CopyU/CopyV)` its own private
/// copy of the scatter (a zero-FLOP node), and removes dead originals.
///
/// This normalization mirrors what every real GNN system does implicitly:
/// copy-style scatters are access patterns, not tensors, so each consuming
/// kernel re-reads the vertex tensor instead of sharing a materialized
/// `O(|E|)` copy — in particular, DGL's gSpMM/gSDDMM *backward* built-ins
/// read the stashed vertex features directly. Returns the rewritten graph
/// and the old→new node-id map.
pub fn duplicate_copy_scatters(ir: &IrGraph) -> (IrGraph, HashMap<NodeId, NodeId>) {
    let consumers = ir.consumers();
    let mut out = IrGraph::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for node in ir.nodes() {
        out.set_phase(node.phase);
        let mut inputs = Vec::with_capacity(node.inputs.len());
        for &i in &node.inputs {
            let inode = ir.node(i);
            let shared_copy = matches!(
                inode.kind,
                OpKind::Scatter(ScatterFn::CopyU) | OpKind::Scatter(ScatterFn::CopyV)
            ) && consumers[i].len() > 1;
            if shared_copy {
                let dup = out.push_raw(
                    inode.kind.clone(),
                    vec![map[&inode.inputs[0]]],
                    inode.space,
                    inode.dim,
                    format!("{}_dup", inode.name),
                );
                inputs.push(dup);
            } else {
                inputs.push(map[&i]);
            }
        }
        let id = out.push_raw(
            remap_kind(&node.kind, &map),
            inputs,
            node.space,
            node.dim,
            node.name.clone(),
        );
        map.insert(node.id, id);
    }
    for &o in ir.outputs() {
        out.mark_output(map[&o]);
    }
    out.set_phase(crate::ir::Phase::Forward);
    dce_with_map(&out, map)
}

/// Clones an op kind for a rewritten graph, remapping any node ids
/// *embedded in the kind itself* (the `fwd` pointer of
/// [`OpKind::GatherMaxBwd`]) through the old→new map. The forward gather
/// always precedes its backward node, so its new id is already in `map`.
fn remap_kind(kind: &OpKind, map: &HashMap<NodeId, NodeId>) -> OpKind {
    match kind {
        OpKind::GatherMaxBwd { fwd } => OpKind::GatherMaxBwd { fwd: map[fwd] },
        other => other.clone(),
    }
}

/// Dead-code elimination that threads an existing old→new map through.
fn dce_with_map(
    ir: &IrGraph,
    prior: HashMap<NodeId, NodeId>,
) -> (IrGraph, HashMap<NodeId, NodeId>) {
    let mut live: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = ir.outputs().to_vec();
    // Keep everything reachable from outputs or from any still-consumed
    // node; simplest liveness: reachable from outputs and from nodes with
    // consumers — i.e. drop only nodes with no consumers that are not
    // outputs (and their now-dead ancestors, iteratively).
    let consumers = ir.consumers();
    for n in ir.nodes() {
        if !consumers[n.id].is_empty() {
            continue;
        }
        if ir.outputs().contains(&n.id) {
            stack.push(n.id);
        }
    }
    // Standard reverse reachability from outputs *and* all sinks that are
    // outputs; then anything consumed transitively by them survives.
    while let Some(n) = stack.pop() {
        if live.insert(n) {
            stack.extend(ir.node(n).inputs.iter().copied());
        }
    }
    // Preserve non-output sinks that are *not* dead duplicates (e.g.
    // parameter gradients): they have no consumers but must survive.
    for n in ir.nodes() {
        if consumers[n.id].is_empty()
            && !ir.outputs().contains(&n.id)
            && !matches!(
                n.kind,
                OpKind::Scatter(ScatterFn::CopyU) | OpKind::Scatter(ScatterFn::CopyV)
            )
        {
            let mut stack = vec![n.id];
            while let Some(m) = stack.pop() {
                if live.insert(m) {
                    stack.extend(ir.node(m).inputs.iter().copied());
                }
            }
        }
    }
    let mut out = IrGraph::new();
    let mut map: HashMap<NodeId, NodeId> = HashMap::new();
    for node in ir.nodes() {
        if !live.contains(&node.id) {
            continue;
        }
        out.set_phase(node.phase);
        let inputs = node.inputs.iter().map(|i| map[i]).collect();
        let id = out.push_raw(
            remap_kind(&node.kind, &map),
            inputs,
            node.space,
            node.dim,
            node.name.clone(),
        );
        map.insert(node.id, id);
    }
    for &o in ir.outputs() {
        out.mark_output(map[&o]);
    }
    out.set_phase(crate::ir::Phase::Forward);
    let combined = prior
        .into_iter()
        .filter_map(|(old, mid)| map.get(&mid).map(|&new| (old, new)))
        .collect();
    (out, combined)
}

/// Union-find over node ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

fn is_compute(ir: &IrGraph, id: NodeId) -> bool {
    ir.node(id).kind.fusion_class() != FusionClass::Leaf
}

fn is_fusible(ir: &IrGraph, id: NodeId) -> bool {
    ir.node(id).kind.fusion_class() == FusionClass::Fusible
}

/// Zero-cost reinterpretations (aliases). They are placed into regions
/// *after* real compute nodes so an alias shared between an expensive
/// consumer and a fusible one never welds the two sides together.
fn is_view(ir: &IrGraph, id: NodeId) -> bool {
    match &ir.node(id).kind {
        OpKind::SetHeads { .. } => true,
        // A slice of a parameter is an alias into the weight matrix —
        // real systems never launch a kernel for it; it rides inside
        // whichever kernel consumes the slice (the reorganization pass
        // introduces these when splitting a concat-projection, §4).
        OpKind::SliceRows { .. } | OpKind::SliceCols { .. } => {
            matches!(ir.node(ir.node(id).inputs[0]).kind, OpKind::Param)
        }
        _ => false,
    }
}

/// Param-slice views may join *expensive* consumers' kernels too (a GEMM
/// slices its weight in-kernel); reshaping views stick to fusible ones.
fn view_joins_expensive(ir: &IrGraph, id: NodeId) -> bool {
    matches!(
        ir.node(id).kind,
        OpKind::SliceRows { .. } | OpKind::SliceCols { .. }
    )
}

/// Every compute node in its own region.
fn regions_unfused(ir: &IrGraph) -> Vec<Option<usize>> {
    let mut region = vec![None; ir.len()];
    let mut next = 0;
    for n in ir.nodes() {
        if is_compute(ir, n.id) {
            region[n.id] = Some(next);
            next += 1;
        }
    }
    region
}

/// The paper's unified fusion: grow regions greedily along fusible
/// same-phase dataflow edges, admitting each merge only if the kernel DAG
/// stays acyclic (i.e. the region stays convex). This recovers the paper's
/// single-kernel GAT forward/backward while correctly splitting around
/// gradient-accumulation points that read expensive kernels' outputs.
fn regions_unified(ir: &IrGraph) -> Vec<Option<usize>> {
    let mut region: Vec<Option<usize>> = vec![None; ir.len()];
    let mut next = 0usize;
    // Pass 1: real compute nodes (views deferred).
    for n in ir.nodes() {
        if !is_compute(ir, n.id) || is_view(ir, n.id) {
            continue;
        }
        if !is_fusible(ir, n.id) {
            region[n.id] = Some(next);
            next += 1;
            continue;
        }
        let mut cands: Vec<usize> = n
            .inputs
            .iter()
            .filter(|&&i| is_fusible(ir, i) && !is_view(ir, i) && ir.node(i).phase == n.phase)
            .filter_map(|&i| region[i])
            .collect();
        cands.sort_unstable();
        cands.dedup();
        for r in cands {
            let snapshot = region.clone();
            match region[n.id] {
                None => region[n.id] = Some(r),
                Some(t) if t != r => {
                    // Merging two producer regions: relabel r → t.
                    for slot in region.iter_mut() {
                        if *slot == Some(r) {
                            *slot = Some(t);
                        }
                    }
                }
                _ => continue,
            }
            if !assignment_is_acyclic(ir, &region, n.id) || !assignment_is_legal(ir, &region) {
                region = snapshot;
            }
        }
        if region[n.id].is_none() {
            region[n.id] = Some(next);
            next += 1;
        }
    }
    // Pass 2: views join a consumer's region if that keeps the DAG
    // acyclic, else a fusible producer's region, else stand alone.
    let consumers = ir.consumers();
    let last = ir.len().saturating_sub(1);
    for n in ir.nodes() {
        if !is_view(ir, n.id) {
            continue;
        }
        let expensive_ok = view_joins_expensive(ir, n.id);
        let mut cands: Vec<usize> = consumers[n.id]
            .iter()
            .filter(|&&c| {
                (is_fusible(ir, c) || (expensive_ok && is_compute(ir, c)))
                    && ir.node(c).phase == n.phase
            })
            .filter_map(|&c| region[c])
            .chain(
                n.inputs
                    .iter()
                    .filter(|&&i| is_fusible(ir, i) && ir.node(i).phase == n.phase)
                    .filter_map(|&i| region[i]),
            )
            .collect();
        cands.sort_unstable();
        cands.dedup();
        for r in cands {
            let snapshot = region.clone();
            region[n.id] = Some(r);
            if assignment_is_acyclic(ir, &region, last) && assignment_is_legal(ir, &region) {
                break;
            }
            region = snapshot;
        }
        if region[n.id].is_none() {
            region[n.id] = Some(next);
            next += 1;
        }
    }
    region
}

/// The per-edge vertex-row reads of scatter-like ops, as `(input index,
/// endpoint)` pairs — derived from the per-edge view classification
/// ([`crate::view::edge_view`]) rather than an op template table, so new
/// ops are covered by construction.
fn vertex_read_endpoints(ir: &IrGraph, n: &crate::ir::Node) -> Vec<(usize, EdgeGroup)> {
    crate::view::endpoint_reads(ir, n.id)
}

/// Follows zero-cost view chains (`SetHeads`) to the value-producing node.
fn resolve_view(ir: &IrGraph, mut id: NodeId) -> NodeId {
    while matches!(ir.node(id).kind, OpKind::SetHeads { .. }) {
        id = ir.node(id).inputs[0];
    }
    id
}

/// Collects the reduction groupings of every in-region producer a vertex
/// operand depends on, resolving through views and vertex-space
/// elementwise ops (which inherit their input's grouping: the worker that
/// owns a row also applies the elementwise function to it). An in-region
/// non-reduction graph producer is recorded as `None` (ungrouped —
/// unreadable from any endpoint).
fn in_region_groups(
    ir: &IrGraph,
    region: &[Option<usize>],
    r: usize,
    id: NodeId,
    out: &mut Vec<Option<EdgeGroup>>,
) {
    let node = ir.node(id);
    if region[id] != Some(r) {
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
            in_region_groups(ir, region, r, i, out);
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
        if matches!(n.kind, OpKind::EdgeSoftmax | OpKind::EdgeSoftmaxBwd) {
            primary.insert(r, EdgeGroup::ByDst);
            softmaxed.insert(r);
        } else if let Some(g) = n.kind.reduction_group() {
            if !softmaxed.contains(&r) {
                primary.entry(r).or_insert(g);
            }
        }
    }
    for n in ir.nodes() {
        let reads = vertex_read_endpoints(ir, n);
        if reads.is_empty() {
            continue;
        }
        let Some(r) = region[n.id] else { continue };
        for (idx, endpoint) in reads {
            // Deduplicated copy-scatters carry a single input; clamp.
            let input = *n.inputs.get(idx).unwrap_or(&n.inputs[0]);
            let base = resolve_view(ir, input);
            let mut groups = Vec::new();
            in_region_groups(ir, region, r, base, &mut groups);
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

/// Checks that the kernel DAG induced by the (partial) region assignment
/// is acyclic. Unassigned compute nodes count as singleton kernels.
fn assignment_is_acyclic(ir: &IrGraph, region: &[Option<usize>], upto: NodeId) -> bool {
    // Map every compute node to a contraction id.
    let offset = ir.len();
    let contract = |id: NodeId| -> Option<usize> {
        if !is_compute(ir, id) {
            return None;
        }
        Some(region[id].map_or(offset + id, |r| r))
    };
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for n in ir.nodes().iter().take(upto + 1) {
        let Some(cn) = contract(n.id) else { continue };
        for &i in &n.inputs {
            if let Some(ci) = contract(i) {
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
    let mut uf = UnionFind::new(ir.len());
    for n in ir.nodes() {
        // gSpMM: gather ∘ [binary ∘] scatter_copy.
        if matches!(n.kind, OpKind::Gather { .. }) {
            let src = n.inputs[0];
            match &ir.node(src).kind {
                OpKind::Binary(_) if consumers[src] == [n.id] => {
                    uf.union(n.id, src);
                    for &bi in &ir.node(src).inputs {
                        if is_private_copy_scatter(ir, &consumers, bi, src) {
                            uf.union(n.id, bi);
                        }
                    }
                }
                OpKind::Scatter(ScatterFn::CopyU) | OpKind::Scatter(ScatterFn::CopyV)
                    if consumers[src] == [n.id] =>
                {
                    uf.union(n.id, src);
                }
                _ => {}
            }
        }
        // gSDDMM dot: feat_sum ∘ binary(mul) ∘ scatter_copies — e.g.
        // `u_dot_v`, which is exactly the backward of `u_mul_e` SpMM.
        if n.kind == OpKind::FeatSum {
            let src = n.inputs[0];
            if matches!(ir.node(src).kind, OpKind::Binary(BinaryFn::Mul))
                && consumers[src] == [n.id]
            {
                uf.union(n.id, src);
                for &bi in &ir.node(src).inputs {
                    if is_private_copy_scatter(ir, &consumers, bi, src) {
                        uf.union(n.id, bi);
                    }
                }
            }
        }
    }
    merge_regions(ir, &mut region, &mut uf);
    region
}

/// fuseGNN: DGL built-ins plus maximal chains of edge-centric fusible
/// operators (never across the edge→vertex boundary).
fn regions_edge_only(ir: &IrGraph) -> Vec<Option<usize>> {
    let consumers = ir.consumers();
    let mut region = regions_unfused(ir);
    let mut uf = UnionFind::new(ir.len());
    // DGL aggregation built-ins first (they claim their member nodes).
    let mut claimed = vec![false; ir.len()];
    for n in ir.nodes() {
        if !matches!(n.kind, OpKind::Gather { .. }) {
            continue;
        }
        let src = n.inputs[0];
        if let OpKind::Binary(_) = &ir.node(src).kind {
            if consumers[src] == [n.id] {
                uf.union(n.id, src);
                claimed[src] = true;
                for &bi in &ir.node(src).inputs {
                    if is_private_copy_scatter(ir, &consumers, bi, src) {
                        uf.union(n.id, bi);
                        claimed[bi] = true;
                    }
                }
            }
        }
    }
    // Edge-centric chains over the remaining nodes.
    for n in ir.nodes() {
        if claimed[n.id] || !is_fusible(ir, n.id) || n.space != Space::Edge {
            continue;
        }
        for &i in &n.inputs {
            if !claimed[i]
                && is_fusible(ir, i)
                && ir.node(i).space == Space::Edge
                && ir.node(i).phase == n.phase
            {
                uf.union(i, n.id);
            }
        }
    }
    merge_regions(ir, &mut region, &mut uf);
    region
}

/// Rewrites `region` so nodes sharing a union-find root share a region id.
fn merge_regions(ir: &IrGraph, region: &mut [Option<usize>], uf: &mut UnionFind) {
    let mut ids: HashMap<usize, usize> = HashMap::new();
    let mut next = 0;
    for n in ir.nodes() {
        if region[n.id].is_none() {
            continue;
        }
        let root = uf.find(n.id);
        let r = *ids.entry(root).or_insert_with(|| {
            let r = next;
            next += 1;
            r
        });
        region[n.id] = Some(r);
    }
}

/// Groups regions into [`Kernel`]s, assigns mappings, and topologically
/// sorts the kernel DAG. Returns `None` when the region assignment is not
/// convex (the kernel DAG has a cycle).
fn try_build_kernels(
    ir: &IrGraph,
    region: &[Option<usize>],
    policy: MappingPolicy,
) -> Option<Vec<Kernel>> {
    let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for n in ir.nodes() {
        if let Some(r) = region[n.id] {
            groups.entry(r).or_default().push(n.id);
        }
    }
    // Provisional kernels.
    let mut kernels: Vec<Kernel> = groups
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
    // Deterministic provisional order by first member id.
    kernels.sort_by_key(|k| k.nodes[0]);

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
    if order.len() != kernels.len() {
        return None; // cyclic kernel DAG: regions were not convex
    }

    let mut out: Vec<Kernel> = order.into_iter().map(|ki| kernels[ki].clone()).collect();
    for (i, k) in out.iter_mut().enumerate() {
        k.id = i;
        k.nodes.sort_unstable();
    }
    Some(out)
}

/// True when any member op is an edge-softmax (forward or backward) —
/// such kernels buffer per-destination reductions in shared memory and
/// must stay vertex-balanced (§5 "A special case is when ReduceScatter is
/// involved").
pub fn kernel_has_softmax(ir: &IrGraph, nodes: &[NodeId]) -> bool {
    nodes.iter().any(|&n| {
        matches!(
            ir.node(n).kind,
            OpKind::EdgeSoftmax | OpKind::EdgeSoftmaxBwd
        )
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
            let primary = if kernel_has_softmax(ir, nodes) {
                EdgeGroup::ByDst
            } else {
                groups.first().copied().unwrap_or(EdgeGroup::ByDst)
            };
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
    let has_softmax = kernel_has_softmax(ir, nodes);
    let mapping = match policy {
        MappingPolicy::ForceVertex => ThreadMapping::VertexBalanced,
        MappingPolicy::ForceEdge if !has_softmax => ThreadMapping::EdgeBalanced,
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
