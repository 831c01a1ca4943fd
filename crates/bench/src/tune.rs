//! Profile-driven thread-mapping selection.
//!
//! §5 of the paper: *"In general, we can select between vertex-balanced or
//! edge-balanced mapping based on performance profiling."* The fusion
//! pass's [`MappingPolicy::Auto`](gnnopt_core::fusion::MappingPolicy) applies
//! the paper's static default (vertex-balanced when a reduction is
//! present); this module implements the profiling alternative — evaluate
//! both mappings of every fused graph kernel under the device model and
//! keep the faster one.
//!
//! It is figure-side analysis, not part of the compiler: `compile` never
//! calls it, and it rewrites only a kernel's mapping and atomic flag,
//! which lowering and the CPU executor never read — so it moves the
//! analytical model's latency and nothing a session runs. Its reader is
//! the `tune_ablation` figure.
//!
//! The trade modeled is exactly the paper's Figure 5 discussion:
//! vertex-balanced mappings suffer degree-skew imbalance, edge-balanced
//! mappings pay the atomic penalty on reductions. Which side wins depends
//! on the graph (Reddit's skew vs. a citation network's near-regularity)
//! and on the kernel's compute/IO balance — a per-(kernel, graph, device)
//! question the static rule cannot answer.
//!
//! Kernels containing an edge-softmax are pinned to vertex-balanced: the
//! fused implementation buffers the per-destination max/denominator in
//! shared memory, which only exists under a destination-grouped mapping
//! (§5 "A special case is when ReduceScatter is involved").

use gnnopt_core::fusion::{atomic_flag, kernel_has_softmax};
use gnnopt_core::ExecutionPlan;
use gnnopt_graph::GraphStats;
use gnnopt_sim::{Device, KernelProfile, ThreadMapping};

/// Outcome of one autotuning run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TuneReport {
    /// Graph kernels whose mapping was re-evaluated.
    pub considered: usize,
    /// Kernels whose mapping changed.
    pub switched: usize,
    /// Total plan latency before tuning, in seconds.
    pub latency_before: f64,
    /// Total plan latency after tuning, in seconds.
    pub latency_after: f64,
}

impl TuneReport {
    /// Speedup factor achieved by tuning (≥ 1 by construction).
    pub fn speedup(&self) -> f64 {
        if self.latency_after > 0.0 {
            self.latency_before / self.latency_after
        } else {
            1.0
        }
    }
}

/// Re-selects each graph kernel's thread mapping by profiling both
/// candidates on `device` × `stats`, mutating the plan in place.
///
/// Dense kernels and edge-softmax kernels are left untouched. The
/// returned report records how many kernels were considered and switched
/// and the modeled end-to-end latency on either side.
///
/// ```
/// use gnnopt_bench::autotune_mappings;
/// use gnnopt_core::{compile, CompileOptions};
/// use gnnopt_core::ir::IrGraph;
/// use gnnopt_core::op::{BinaryFn, Dim, EdgeGroup, ReduceFn, ScatterFn};
/// use gnnopt_graph::GraphStats;
/// use gnnopt_sim::Device;
///
/// # fn main() -> Result<(), gnnopt_core::ir::IrError> {
/// let mut g = IrGraph::new();
/// let h = g.input_vertex("h", Dim::flat(64));
/// let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h)?;
/// let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, e)?;
/// g.mark_output(v);
///
/// let mut plan = compile(&g, false, &CompileOptions::ours())?.plan;
/// let stats = GraphStats::synthesize_power_law(4096, 24.0, 1.5);
/// let report = autotune_mappings(&mut plan, &Device::rtx3090(), &stats);
/// assert!(report.latency_after <= report.latency_before);
/// # Ok(())
/// # }
/// ```
pub fn autotune_mappings(
    plan: &mut ExecutionPlan,
    device: &Device,
    stats: &GraphStats,
) -> TuneReport {
    let mut report = TuneReport {
        latency_before: plan_latency(plan, device, stats),
        ..TuneReport::default()
    };

    // Candidate evaluation uses each kernel's *current* resource profile;
    // byte/FLOP counts do not depend on the mapping, only the latency
    // model's interpretation does (imbalance vs. atomic penalty).
    let profiles = plan.profiles(stats);
    for (ki, profile) in profiles.iter().enumerate() {
        let members: Vec<_> = plan.kernels[ki]
            .nodes
            .iter()
            .chain(&plan.kernels[ki].recompute)
            .copied()
            .collect();
        if !plan.kernels[ki].mapping.is_graph() {
            continue;
        }
        if kernel_has_softmax(&plan.ir, &members) {
            continue; // pinned vertex-balanced
        }
        report.considered += 1;
        let mut best = (
            plan.kernels[ki].mapping,
            plan.kernels[ki].atomic_reduction,
            device.kernel_latency(profile, stats),
        );
        for mapping in [ThreadMapping::VertexBalanced, ThreadMapping::EdgeBalanced] {
            if mapping == plan.kernels[ki].mapping {
                continue;
            }
            let atomic = atomic_flag(&plan.ir, &members, mapping);
            let candidate = KernelProfile {
                mapping,
                atomic_reduction: atomic,
                ..*profile
            };
            let lat = device.kernel_latency(&candidate, stats);
            if lat < best.2 {
                best = (mapping, atomic, lat);
            }
        }
        if best.0 != plan.kernels[ki].mapping {
            report.switched += 1;
            plan.kernels[ki].mapping = best.0;
            plan.kernels[ki].atomic_reduction = best.1;
        }
    }

    report.latency_after = plan_latency(plan, device, stats);
    report
}

fn plan_latency(plan: &ExecutionPlan, device: &Device, stats: &GraphStats) -> f64 {
    device.plan_latency(plan.profiles(stats).iter(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::fusion::MappingPolicy;
    use gnnopt_core::ir::IrGraph;
    use gnnopt_core::op::{BinaryFn, Dim, EdgeGroup, OpKind, ReduceFn, ScatterFn, UnaryFn};
    use gnnopt_core::{compile, CompileOptions};

    /// A fused scatter→gather chain with *no* softmax: the kernel the
    /// tuner is free to re-map. With `project`, a trailing linear adds a
    /// parameter so the IR also compiles for training.
    fn sum_pool_ir_with(feat: usize, project: bool) -> IrGraph {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(feat));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let r = g.unary(UnaryFn::Relu, e).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, r).unwrap();
        let out = if project {
            let w = g.param("w", feat, 16);
            g.linear(v, w).unwrap()
        } else {
            v
        };
        g.mark_output(out);
        g
    }

    fn sum_pool_ir(feat: usize) -> IrGraph {
        sum_pool_ir_with(feat, false)
    }

    fn skewed_stats() -> GraphStats {
        GraphStats::synthesize_power_law(4096, 24.0, 1.6)
    }

    fn regular_stats() -> GraphStats {
        GraphStats::synthesize_power_law(4096, 24.0, 0.0)
    }

    #[test]
    fn tuning_never_increases_latency() {
        let ir = sum_pool_ir(64);
        for stats in [skewed_stats(), regular_stats()] {
            for policy in [
                MappingPolicy::Auto,
                MappingPolicy::ForceVertex,
                MappingPolicy::ForceEdge,
            ] {
                let opts = CompileOptions {
                    mapping: policy,
                    ..CompileOptions::ours()
                };
                let mut plan = compile(&ir, false, &opts).unwrap().plan;
                let r = autotune_mappings(&mut plan, &Device::rtx3090(), &stats);
                assert!(
                    r.latency_after <= r.latency_before * (1.0 + 1e-12),
                    "{policy:?}: tuning must not slow the plan"
                );
            }
        }
    }

    #[test]
    fn skew_flips_a_forced_vertex_kernel_to_edge_balanced() {
        // On a heavily skewed graph, a compute-balanced fused kernel under
        // ForceVertex pays up to 8× imbalance; the tuner should switch it
        // to the atomic edge-balanced form.
        let ir = sum_pool_ir(256);
        let opts = CompileOptions {
            mapping: MappingPolicy::ForceVertex,
            ..CompileOptions::ours()
        };
        let mut plan = compile(&ir, false, &opts).unwrap().plan;
        let before: Vec<_> = plan.kernels.iter().map(|k| k.mapping).collect();
        assert!(before.contains(&ThreadMapping::VertexBalanced));
        let r = autotune_mappings(&mut plan, &Device::rtx3090(), &skewed_stats());
        assert!(r.switched >= 1, "expected at least one switch, got {r:?}");
        assert!(r.speedup() > 1.0);
        let flipped = plan
            .kernels
            .iter()
            .find(|k| k.mapping == ThreadMapping::EdgeBalanced)
            .expect("a kernel must now be edge-balanced");
        assert!(
            flipped.atomic_reduction,
            "edge-balanced reduction must carry the atomic flag"
        );
    }

    #[test]
    fn softmax_kernels_stay_vertex_balanced() {
        // GAT-like graph section: softmax forces vertex-balanced even on
        // the most skewed graph.
        let mut g = IrGraph::new();
        let a = g.input_vertex("a", Dim::flat(1));
        let h = g.input_vertex("h", Dim::flat(64));
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Add), a, a).unwrap();
        let sm = g.edge_softmax(e).unwrap();
        let hu = g.scatter(ScatterFn::CopyU, h, h).unwrap();
        let me = g.binary(BinaryFn::Mul, hu, sm).unwrap();
        let out = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, me).unwrap();
        g.mark_output(out);
        let mut plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        let _ = autotune_mappings(&mut plan, &Device::rtx3090(), &skewed_stats());
        for k in &plan.kernels {
            let members: Vec<_> = k.nodes.clone();
            if kernel_has_softmax(&plan.ir, &members) {
                assert_eq!(k.mapping, ThreadMapping::VertexBalanced);
            }
        }
    }

    #[test]
    fn tuning_is_idempotent() {
        // Training compile needs a parameter: project after pooling.
        let ir = sum_pool_ir_with(128, true);
        let mut plan = compile(&ir, true, &CompileOptions::ours()).unwrap().plan;
        let stats = skewed_stats();
        let d = Device::rtx3090();
        let first = autotune_mappings(&mut plan, &d, &stats);
        let second = autotune_mappings(&mut plan, &d, &stats);
        assert_eq!(second.switched, 0, "second run must be a fixpoint");
        assert!((second.latency_before - first.latency_after).abs() < 1e-15);
    }

    #[test]
    fn dense_kernels_untouched() {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(8));
        let w = g.param("w", 8, 8);
        let l = g.linear(h, w).unwrap();
        g.mark_output(l);
        let mut plan = compile(&g, false, &CompileOptions::ours()).unwrap().plan;
        let r = autotune_mappings(&mut plan, &Device::rtx3090(), &regular_stats());
        assert_eq!(r.considered, 0);
        assert!(plan
            .kernels
            .iter()
            .all(|k| k.mapping == ThreadMapping::Dense
                || !k
                    .nodes
                    .iter()
                    .any(|&n| matches!(plan.ir.node(n).kind, OpKind::Linear))));
    }
}
