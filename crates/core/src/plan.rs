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
use crate::memplan::plan_memory;
use crate::op::{NodeId, OpKind};
use gnnopt_graph::GraphStats;
use gnnopt_sim::{Device, ExecStats, KernelProfile, MemoryError, ThreadMapping};
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

    /// Bytes held across the forward→backward boundary: the forward
    /// values in [`ExecutionPlan::stash`] plus the argmax tables of
    /// [`ExecutionPlan::aux_stash`].
    fn stashed_bytes(&self, cm: &CostModel<'_>) -> u64 {
        let values = self.stash.iter().map(|&n| self.ir.node(n));
        let values = values.filter(|n| n.phase == Phase::Forward);
        let tables = self
            .aux_stash
            .iter()
            .map(|&n| cm.aux_bytes(self.ir.node(n)));
        values.map(|n| cm.out_bytes(n)).chain(tables).sum()
    }

    /// Full analytical statistics of the plan on a device. The peak is
    /// the arena a session reserves for the plan
    /// ([`crate::memplan::plan_memory`]), the one memory accounting.
    pub fn exec_stats(&self, device: &Device, stats: &GraphStats) -> ExecStats {
        let cm = CostModel::new(stats);
        let profiles = self.profiles(stats);
        let mem = plan_memory(self, stats.num_vertices(), stats.num_edges(), true);
        let mut s = ExecStats {
            kernels: profiles.len() as u64,
            peak_memory: mem.arena_bytes,
            stashed_bytes: self.stashed_bytes(&cm),
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

    /// Checks whether the plan's arena fits in the device's DRAM, and
    /// returns its bytes.
    ///
    /// # Errors
    ///
    /// Returns the OOM description, naming the arena's largest region,
    /// when the arena exceeds [`Device::usable_memory`].
    pub fn check_fits(&self, device: &Device, stats: &GraphStats) -> Result<u64, MemoryError> {
        let mem = plan_memory(self, stats.num_vertices(), stats.num_edges(), true);
        let capacity = device.usable_memory();
        if mem.arena_bytes <= capacity {
            return Ok(mem.arena_bytes);
        }
        let largest = mem.regions.iter().max_by_key(|r| r.bytes);
        let largest = largest.expect("an arena past capacity has a region");
        Err(MemoryError {
            requested: largest.bytes,
            live: mem.arena_bytes - largest.bytes,
            capacity,
            label: format!("%{} {}", largest.node, self.ir.node(largest.node).name),
        })
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
