//! Execution plans: the output of the compilation pipeline.
//!
//! A plan is the IR plus (a) a partition of its compute nodes into
//! [`Kernel`]s (the fusion decision, §5), (b) the stash/recompute split for
//! training (§6), and (c) enough structure to derive kernel resource
//! profiles and a memory schedule. The same plan drives both the CPU
//! reference executor (`gnnopt-exec`) and the analytical device model
//! (`gnnopt-sim`).

use crate::cost::CostModel;
use crate::exec_policy::ExecPolicy;
use crate::ir::{IrGraph, Phase};
use crate::lower::KernelProgram;
use crate::op::{NodeId, OpKind};
use gnnopt_graph::GraphStats;
use gnnopt_sim::{Device, ExecStats, KernelProfile, MemoryError, MemoryTracker, ThreadMapping};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One launched kernel: a set of IR nodes executed together.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel index in schedule order.
    pub id: usize,
    /// Member nodes in topological order.
    pub nodes: Vec<NodeId>,
    /// Thread mapping (unified across all members, §5).
    pub mapping: ThreadMapping,
    /// True if a reduction's grouping diverges from the kernel's primary
    /// mapping direction and therefore needs atomics.
    pub atomic_reduction: bool,
    /// Forward nodes recomputed inside this (backward) kernel instead of
    /// being read from a stash (§6).
    pub recompute: Vec<NodeId>,
}

impl Kernel {
    /// True when the kernel touches graph topology.
    pub fn is_graph_kernel(&self, ir: &IrGraph) -> bool {
        self.nodes
            .iter()
            .chain(&self.recompute)
            .any(|&n| ir.node(n).kind.is_graph_op())
    }
}

/// A fully compiled model: IR + kernel schedule + training memory policy.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// The IR (forward, plus backward when `training`).
    pub ir: IrGraph,
    /// Kernels in schedule order (forward phase first).
    pub kernels: Vec<Kernel>,
    /// Forward nodes whose outputs persist for the backward pass.
    pub stash: BTreeSet<NodeId>,
    /// `Gather(Max)` nodes whose argmax tables are stashed, persisting
    /// from forward to backward.
    pub aux_stash: BTreeSet<NodeId>,
    /// `(param, grad)` node pairs (empty for inference plans).
    pub param_grads: Vec<(NodeId, NodeId)>,
    /// Whether the plan includes a backward pass.
    pub training: bool,
    /// CPU execution policy the executor should run this plan under
    /// (from [`crate::pipeline::CompileOptions::exec`]).
    pub exec: ExecPolicy,
    /// Tiled lowering of each kernel, indexed by kernel id. Lowering is
    /// total (see [`crate::lower`]): every kernel has a program, and the
    /// session runs a kernel by interpreting it — a kernel without one is
    /// refused with a typed error, not run some other way.
    pub programs: Vec<KernelProgram>,
}

impl ExecutionPlan {
    /// Maps each node to the kernel that (primarily) computes it.
    pub fn node_kernel(&self) -> HashMap<NodeId, usize> {
        let mut m = HashMap::new();
        for k in &self.kernels {
            for &n in &k.nodes {
                m.insert(n, k.id);
            }
        }
        m
    }

    /// The plan with kernel `kid` cut in two before member `at`: the
    /// members up to `at` and the members from `at` on become consecutive
    /// kernels (later ids shift up by one) that inherit the parent's
    /// mapping, each recomputing only the part of the parent's closure
    /// its own members read, and every program is lowered afresh — so a
    /// value read across the cut is an ordinary materialized output of
    /// the first piece. `None` when a piece would have no member (`at`
    /// is the kernel's first member, or not a member at all).
    #[must_use]
    pub fn cut_kernel(&self, kid: usize, at: NodeId) -> Option<ExecutionPlan> {
        let parent = &self.kernels[kid];
        let pos = parent.nodes.iter().position(|&n| n == at)?;
        if pos == 0 {
            return None;
        }
        let piece = |nodes: &[NodeId]| {
            let mut read: HashSet<NodeId> = HashSet::new();
            let mut work = nodes.to_vec();
            while let Some(n) = work.pop() {
                for &i in &self.ir.node(n).inputs {
                    if parent.recompute.contains(&i) && read.insert(i) {
                        work.push(i);
                    }
                }
            }
            Kernel {
                id: 0,
                nodes: nodes.to_vec(),
                mapping: parent.mapping,
                atomic_reduction: parent.atomic_reduction,
                recompute: parent
                    .recompute
                    .iter()
                    .copied()
                    .filter(|r| read.contains(r))
                    .collect(),
            }
        };
        let (head, tail) = parent.nodes.split_at(pos);
        let mut kernels = self.kernels.clone();
        kernels.splice(kid..=kid, [piece(head), piece(tail)]);
        for (id, k) in kernels.iter_mut().enumerate() {
            k.id = id;
        }
        let mut cut = ExecutionPlan {
            ir: self.ir.clone(),
            kernels,
            stash: self.stash.clone(),
            aux_stash: self.aux_stash.clone(),
            param_grads: self.param_grads.clone(),
            training: self.training,
            exec: self.exec,
            programs: Vec::new(),
        };
        cut.programs = crate::lower::lower_plan(&cut);
        Some(cut)
    }

    /// Nodes of a kernel whose outputs leave the kernel: consumed by
    /// another kernel (that does not itself recompute the value), model
    /// outputs, or stashed values.
    pub fn materialized_nodes(&self, kernel: &Kernel) -> Vec<NodeId> {
        let members: HashSet<NodeId> = kernel.nodes.iter().copied().collect();
        let consumers = self.ir.consumers();
        kernel
            .nodes
            .iter()
            .copied()
            .filter(|&n| {
                let escapes = consumers[n].iter().any(|&c| {
                    if members.contains(&c) {
                        return false;
                    }
                    // Does any kernel that computes the consumer — the
                    // one that owns it *or* one that recomputes it —
                    // read n from the store instead of recomputing it?
                    // (An unfused forward consumer does, even when a
                    // backward kernel recomputes both.)
                    self.kernels.iter().any(|k| {
                        (k.nodes.contains(&c) || k.recompute.contains(&c))
                            && !k.recompute.contains(&n)
                    })
                });
                let is_output = self.ir.outputs().contains(&n);
                let stashed = self.stash.contains(&n);
                let dead = consumers[n].is_empty() && !is_output;
                escapes || is_output || stashed || dead
            })
            .collect()
    }

    /// Resource profile of every kernel under the cost model.
    pub fn profiles(&self, stats: &GraphStats) -> Vec<KernelProfile> {
        let cm = CostModel::new(stats);
        let consumers = self.ir.consumers();
        self.kernels
            .iter()
            .map(|k| self.kernel_profile(k, &cm, &consumers))
            .collect()
    }

    fn kernel_profile(
        &self,
        kernel: &Kernel,
        cm: &CostModel<'_>,
        consumers: &[Vec<NodeId>],
    ) -> KernelProfile {
        let members: HashSet<NodeId> = kernel
            .nodes
            .iter()
            .chain(&kernel.recompute)
            .copied()
            .collect();
        let mut flops = 0u64;
        let mut reads: HashMap<NodeId, u64> = HashMap::new();
        let mut extra_read = 0u64;
        let mut writes = 0u64;

        for &nid in kernel.nodes.iter().chain(&kernel.recompute) {
            let node = self.ir.node(nid);
            // Each input as the node reads it: through its layouts.
            let viewed: Vec<crate::ir::Node> = (0..node.inputs.len())
                .map(|pos| {
                    let mut input = self.ir.node(node.inputs[pos]).clone();
                    input.dim = self.ir.input_dim(nid, pos);
                    input
                })
                .collect();
            let inputs: Vec<&crate::ir::Node> = viewed.iter().collect();
            flops += cm.flops(node, &inputs);

            for (&i, input) in node.inputs.iter().zip(&viewed) {
                if members.contains(&i) {
                    continue;
                }
                let b = cm.read_bytes(node, input);
                let e = reads.entry(i).or_insert(0);
                *e = (*e).max(b);
            }
            // Auxiliary reads: argmax tables.
            if let OpKind::GatherMaxBwd { fwd } = node.kind {
                extra_read += cm.aux_bytes(self.ir.node(fwd));
            }
        }

        if kernel.is_graph_kernel(&self.ir) {
            extra_read += cm.index_bytes();
        }

        for &nid in &self.materialized_nodes(kernel) {
            let _ = consumers; // materialization already uses consumer info
            writes += cm.out_bytes(self.ir.node(nid));
        }
        // Auxiliary stashes written by this kernel's forward members.
        for &nid in &self.aux_stash {
            if kernel.nodes.contains(&nid) {
                writes += cm.aux_bytes(self.ir.node(nid));
            }
        }

        KernelProfile {
            flops,
            bytes_read: reads.values().sum::<u64>() + extra_read,
            bytes_written: writes,
            mapping: kernel.mapping,
            atomic_reduction: kernel.atomic_reduction,
        }
    }

    /// Replays the schedule against a capacity-limited allocator.
    ///
    /// Returns `(peak_bytes, stash_bytes)`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] when the live set exceeds `capacity`.
    pub fn memory_replay(
        &self,
        stats: &GraphStats,
        capacity: u64,
    ) -> Result<(u64, u64), MemoryError> {
        let cm = CostModel::new(stats);
        let consumers = self.ir.consumers();
        let node_kernel = self.node_kernel();
        let num_kernels = self.kernels.len();

        // Which kernels read node n (primary consumption + recompute
        // closures re-reading checkpoints).
        let mut readers: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for k in &self.kernels {
            let members: HashSet<NodeId> = k.nodes.iter().chain(&k.recompute).copied().collect();
            for &nid in k.nodes.iter().chain(&k.recompute) {
                for &i in &self.ir.node(nid).inputs {
                    if !members.contains(&i) {
                        readers.entry(i).or_default().push(k.id);
                    }
                }
                if let OpKind::GatherMaxBwd { fwd } = self.ir.node(nid).kind {
                    readers.entry(fwd).or_default().push(k.id);
                }
            }
        }

        // Lifetime per materialized tensor: birth kernel → death kernel.
        let mut births: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); num_kernels + 1];
        let mut deaths: Vec<Vec<NodeId>> = vec![Vec::new(); num_kernels + 1];
        let mut stash_bytes = 0u64;

        for node in self.ir.nodes() {
            let bytes = cm.out_bytes(node);
            let (birth, leaf) = match node.kind {
                OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed => {
                    (0usize, true)
                }
                _ => match node_kernel.get(&node.id) {
                    Some(&k) => (k + 1, false),
                    // Node fused away (never materialized): skip.
                    None => continue,
                },
            };
            if !leaf {
                // Only materialized outputs occupy DRAM.
                let kernel = &self.kernels[birth - 1];
                if !self.materialized_nodes(kernel).contains(&node.id) {
                    continue;
                }
            }
            let mut death = readers
                .get(&node.id)
                .and_then(|r| r.iter().max())
                .map_or(birth, |&k| k + 1);
            let is_output = self.ir.outputs().contains(&node.id);
            let persistent = leaf
                || is_output
                || matches!(
                    node.kind,
                    OpKind::LinearBwdWeight
                        | OpKind::HeadDotBwdParam
                        | OpKind::GaussianBwdMu
                        | OpKind::GaussianBwdSigma
                        | OpKind::View(_)
                );
            if persistent {
                death = num_kernels;
            }
            if self.stash.contains(&node.id) && node.phase == Phase::Forward {
                stash_bytes += bytes;
                // Stashed values persist at least until their last
                // backward reader.
                death = death.max(
                    readers
                        .get(&node.id)
                        .and_then(|r| r.iter().max())
                        .map_or(num_kernels, |&k| k + 1),
                );
            }
            births[birth].push((node.id, bytes));
            deaths[death.min(num_kernels)].push(node.id);
        }

        // Aux stashes live from their producing kernel to schedule end.
        for &nid in &self.aux_stash {
            if let Some(&k) = node_kernel.get(&nid) {
                let bytes = cm.aux_bytes(self.ir.node(nid));
                births[k + 1].push((usize::MAX - nid, bytes));
                stash_bytes += bytes;
            }
        }

        let mut tracker = MemoryTracker::with_capacity(capacity);
        let mut handles: HashMap<NodeId, u64> = HashMap::new();
        let _ = consumers;
        for step in 0..=num_kernels {
            for &(nid, bytes) in &births[step] {
                let label = if nid > usize::MAX / 2 {
                    format!("aux:{}", usize::MAX - nid)
                } else {
                    self.ir.node(nid).name.clone()
                };
                let h = tracker.alloc(bytes, &label)?;
                handles.insert(nid, h);
            }
            for &nid in &deaths[step] {
                if let Some(h) = handles.remove(&nid) {
                    tracker.free(h);
                }
            }
        }
        Ok((tracker.peak_bytes(), stash_bytes))
    }

    /// Full analytical statistics of the plan on a device.
    pub fn exec_stats(&self, device: &Device, stats: &GraphStats) -> ExecStats {
        let profiles = self.profiles(stats);
        let (peak, stash) = self
            .memory_replay(stats, u64::MAX)
            .expect("unbounded replay cannot OOM");
        let mut s = ExecStats {
            kernels: profiles.len() as u64,
            peak_memory: peak,
            stashed_bytes: stash,
            ..ExecStats::default()
        };
        for p in &profiles {
            s.flops += p.flops;
            s.bytes_read += p.bytes_read;
            s.bytes_written += p.bytes_written;
            s.latency += device.kernel_latency(p, stats);
        }
        s
    }

    /// Checks whether the plan fits in the device's DRAM.
    ///
    /// # Errors
    ///
    /// Returns the OOM description when it does not fit.
    pub fn check_fits(&self, device: &Device, stats: &GraphStats) -> Result<u64, MemoryError> {
        self.memory_replay(stats, device.usable_memory())
            .map(|p| p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryFn, Dim, EdgeGroup, ReduceFn, ScatterFn, UnaryFn};
    use crate::pipeline::{compile, CompileOptions};

    /// A GAT layer for training: its fused backward kernel has several
    /// members and a recompute closure to divide between the pieces.
    fn gat_training_plan() -> ExecutionPlan {
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
        compile(&g, true, &CompileOptions::ours()).unwrap().plan
    }

    #[test]
    fn cut_kernel_yields_two_consistent_pieces() {
        let plan = gat_training_plan();
        let parent = plan
            .kernels
            .iter()
            .filter(|k| k.nodes.len() >= 2)
            .max_by_key(|k| k.recompute.len())
            .expect("a fused kernel");
        assert!(!parent.recompute.is_empty(), "fixture recomputes");
        let mut read_across = 0;
        for &at in &parent.nodes[1..] {
            let cut = plan.cut_kernel(parent.id, at).expect("a cut inside");
            // Kernel ids stay dense and every other kernel is untouched.
            assert_eq!(cut.kernels.len(), plan.kernels.len() + 1);
            for (i, k) in cut.kernels.iter().enumerate() {
                assert_eq!(k.id, i);
            }
            for k in &plan.kernels {
                if k.id != parent.id {
                    let moved = &cut.kernels[k.id + usize::from(k.id > parent.id)];
                    assert_eq!((&moved.nodes, &moved.recompute), (&k.nodes, &k.recompute));
                }
            }
            // Every member lands in exactly one piece, order kept.
            let (head, tail) = (&cut.kernels[parent.id], &cut.kernels[parent.id + 1]);
            assert_eq!(tail.nodes[0], at);
            assert_eq!(
                [head.nodes.clone(), tail.nodes.clone()].concat(),
                parent.nodes
            );
            for piece in [head, tail] {
                assert_eq!(piece.mapping, parent.mapping);
                let computed: Vec<NodeId> = piece
                    .nodes
                    .iter()
                    .chain(&piece.recompute)
                    .copied()
                    .collect();
                let reads =
                    |r: NodeId| computed.iter().any(|&n| cut.ir.node(n).inputs.contains(&r));
                // Minimal: every recomputed value is read inside the piece …
                assert!(piece.recompute.iter().all(|&r| reads(r)));
                // … and complete: nothing of the parent's closure that
                // the piece reads is left out.
                for &r in &parent.recompute {
                    assert!(!reads(r) || piece.recompute.contains(&r));
                }
            }
            // Lowering is total on the result.
            assert_eq!(cut.programs.len(), cut.kernels.len());
            for (k, p) in cut.kernels.iter().zip(&cut.programs) {
                assert_eq!(p.kernel, k.id);
                assert_eq!(p.steps.len(), k.nodes.len() + k.recompute.len());
            }
            // What the second piece reads of the first is materialized.
            let materialized = cut.materialized_nodes(head);
            let across: Vec<NodeId> = tail
                .nodes
                .iter()
                .flat_map(|&n| cut.ir.node(n).inputs.iter().copied())
                .filter(|i| head.nodes.contains(i))
                .collect();
            assert!(across.iter().all(|n| materialized.contains(n)));
            read_across += across.len();
        }
        assert!(
            read_across > 0,
            "fixture: some cut has a value read across it"
        );
        // No piece may be left without a member.
        assert!(plan.cut_kernel(parent.id, parent.nodes[0]).is_none());
        assert!(plan.cut_kernel(parent.id, parent.recompute[0]).is_none());
    }
}
