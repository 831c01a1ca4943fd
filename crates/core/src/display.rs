//! Human-readable and Graphviz renderings of IR graphs and execution
//! plans — the debugging surface for every pass.

use crate::ir::{IrGraph, Phase};
use crate::lower::{is_streamed_gather, StepExec};
use crate::op::{EdgeGroup, OpKind, Space};
use crate::plan::ExecutionPlan;
use crate::view::{edge_view, View};
use std::fmt::Write as _;

/// One line per node: `id name space dim phase ← inputs`.
pub fn dump_ir(ir: &IrGraph) -> String {
    let mut out = String::new();
    for n in ir.nodes() {
        let space = match n.space {
            Space::Vertex => "V",
            Space::Edge => "E",
            Space::Param => "P",
        };
        let phase = match n.phase {
            Phase::Forward => "fwd",
            Phase::Backward => "bwd",
        };
        let marker = if ir.outputs().contains(&n.id) {
            " *out"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "%{:<3} {:<24} {space}[{},{}] {phase} ← {:?}{marker}",
            n.id, n.name, n.dim.heads, n.dim.feat, n.inputs
        );
    }
    out
}

/// Graphviz `dot` rendering of the IR with kernels as clusters (when a
/// plan is supplied). Paste into any dot viewer.
pub fn to_dot(ir: &IrGraph, plan: Option<&ExecutionPlan>) -> String {
    let mut out = String::from("digraph gnn {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    let owner: std::collections::HashMap<usize, usize> = plan
        .map(|p| {
            p.kernels
                .iter()
                .flat_map(|k| k.nodes.iter().map(move |&n| (n, k.id)))
                .collect()
        })
        .unwrap_or_default();

    if let Some(plan) = plan {
        for k in &plan.kernels {
            let _ = writeln!(
                out,
                "  subgraph cluster_k{} {{ label=\"kernel {} [{:?}]\"; style=dashed;",
                k.id, k.id, k.mapping
            );
            for &n in &k.nodes {
                let _ = writeln!(out, "    n{n};");
            }
            out.push_str("  }\n");
        }
    }
    for n in ir.nodes() {
        let color = match (n.phase, n.space) {
            (Phase::Backward, _) => "lightpink",
            (_, Space::Edge) => "lightyellow",
            (_, Space::Vertex) => "lightblue",
            (_, Space::Param) => "lightgrey",
        };
        let extra = if owner.contains_key(&n.id)
            || matches!(
                n.kind,
                OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed
            ) {
            ""
        } else {
            ", style=dotted" // fused-away / unscheduled
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\n[{},{}]\", fillcolor={color}, style=filled{extra}];",
            n.id, n.name, n.dim.heads, n.dim.feat
        );
        for &i in &n.inputs {
            let _ = writeln!(out, "  n{i} -> n{};", n.id);
        }
    }
    out.push_str("}\n");
    out
}

/// Compact plan summary: one line per kernel with mapping, member count
/// and recompute count.
pub fn dump_plan(plan: &ExecutionPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan: {} kernels, {} stashed, {} aux-stashed, training={}",
        plan.kernels.len(),
        plan.stash.len(),
        plan.aux_stash.len(),
        plan.training
    );
    for k in &plan.kernels {
        let names: Vec<&str> = k
            .nodes
            .iter()
            .map(|&n| plan.ir.node(n).name.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  k{:<3} {:?}{} [{}]{}",
            k.id,
            k.mapping,
            if k.atomic_reduction { "+atomic" } else { "" },
            names.join(", "),
            if k.recompute.is_empty() {
                String::new()
            } else {
                format!(" recompute×{}", k.recompute.len())
            }
        );
    }
    out
}

fn view_label(v: View) -> &'static str {
    match v {
        View::Aligned => "aligned",
        View::BySrc => "by-src",
        View::ByDst => "by-dst",
        View::Reduce(EdgeGroup::ByDst) => "reduce:by-dst",
        View::Reduce(EdgeGroup::BySrc) => "reduce:by-src",
        View::Broadcast => "bcast",
        View::Stash => "stash",
        View::Unused => "unused",
    }
}

/// Lowered cluster structure: one block per kernel program showing the
/// kernel boundary (materialization class of every step), its segments
/// in the order they run — a streamed gather's chain under the gather's
/// own segment, where it executes — and the per-edge view each step
/// reads its inputs through.
///
/// Sample — segment 2 streams a `BySrc` gather: the chain step `%31`
/// holds tile rows there, the gather `%32` is the kernel's output:
///
/// ```text
///   seg 2 (streamed gather):
///     %31  binary_Mul   E[64] scratch       ← %30:aligned %17:aligned
///     %32  gather_Sum   V[64] materialized  ← %31:reduce:by-src
/// ```
pub fn dump_programs(plan: &ExecutionPlan) -> String {
    let ir = &plan.ir;
    let mut out = String::new();
    for (k, prog) in plan.kernels.iter().zip(&plan.programs) {
        // Prelude steps carry no segment of their own (id 0).
        let segments: std::collections::BTreeSet<usize> =
            prog.steps.iter().map(|s| s.segment).collect();
        let _ = writeln!(
            out,
            "k{:<3} {:?} {} steps, {} segment{}",
            k.id,
            k.mapping,
            prog.steps.len(),
            segments.len(),
            if segments.len() == 1 { "" } else { "s" }
        );
        for seg in segments {
            let steps = || prog.steps.iter().filter(|s| s.segment == seg);
            let flavor = match steps().find(|s| s.exec == StepExec::Full) {
                None => "tiled stream",
                Some(s) if is_streamed_gather(&ir.node(s.node).kind) => "streamed gather",
                Some(_) => "full",
            };
            let _ = writeln!(out, "  seg {seg} ({flavor}):");
            for s in steps() {
                let node = ir.node(s.node);
                let space = match s.space {
                    Space::Vertex => "V",
                    Space::Edge => "E",
                    Space::Param => "P",
                };
                let storage = match s.storage {
                    crate::lower::Storage::Materialized => "materialized",
                    crate::lower::Storage::Interior => "interior",
                    crate::lower::Storage::Scratch => "scratch",
                    crate::lower::Storage::Prelude => "prelude",
                };
                let reads: Vec<String> = node
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(pos, _)| edge_view(ir, s.node, pos) != View::Unused)
                    .map(|(pos, &i)| format!("%{i}:{}", view_label(edge_view(ir, s.node, pos))))
                    .collect();
                let _ = writeln!(
                    out,
                    "    %{:<3} {:<24} {space}[{}] {:<12}{}{}",
                    s.node,
                    node.name,
                    s.cols,
                    storage,
                    if s.recompute { " recompute" } else { "" },
                    if reads.is_empty() {
                        String::new()
                    } else {
                        format!(" ← {}", reads.join(" "))
                    }
                );
            }
        }
    }
    out
}

/// Offset map of a [`MemoryPlan`](crate::memplan::MemoryPlan): one line
/// per planned region — tensor, arena offset, size, lifetime interval in
/// kernel positions — then the arena by size class (`class bytes ×
/// buffers = total`; the `store` rows sum to the arena, the `aux` rows
/// are the `u32` argmax tables beside it).
///
/// Sample lines — node `%14`, 2 KiB at offset 4096, live from position 3
/// until position 5; and its class, two buffers of which cover the step:
///
/// ```text
///   %14  gather_sum              @4096     2048 B  [3, 5]
///   store       2048 B × 2 =       4096 B
/// ```
pub fn dump_memory(plan: &ExecutionPlan, mem: &crate::memplan::MemoryPlan) -> String {
    let mut out = String::new();
    let classes = mem.classes();
    let aux_bytes: u64 = mem.argmax_tables.iter().map(|&(_, b)| b).sum();
    let _ = writeln!(
        out,
        "memory plan: arena {} B across {} regions, {} positions, aux {} B",
        mem.arena_bytes,
        classes.iter().map(|&(_, n)| n).sum::<usize>(),
        mem.positions,
        aux_bytes
    );
    for r in &mem.regions {
        let life = if r.death == crate::memplan::PERSISTENT {
            format!("[{}, ∞]", r.birth)
        } else {
            format!("[{}, {}]", r.birth, r.death)
        };
        let _ = writeln!(
            out,
            "  %{:<3} {:<24} @{:<10} {:>10} B  {life}",
            r.node,
            plan.ir.node(r.node).name,
            r.offset,
            r.request
        );
    }
    let _ = writeln!(out, "size classes:");
    for (bytes, n) in classes {
        let total = bytes * n as u64;
        let _ = writeln!(out, "  store {bytes:>12} B × {n:<3} = {total:>12} B");
    }
    for &(node, bytes) in &mem.argmax_tables {
        let name = &plan.ir.node(node).name;
        let _ = writeln!(
            out,
            "  aux   {bytes:>12} B × 1   = {bytes:>12} B  argmax of %{node} {name}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memplan::plan_memory;
    use crate::op::{BinaryFn, Dim, EdgeGroup, ReduceFn, ScatterFn};
    use crate::pipeline::{compile, CompileOptions};

    fn toy() -> IrGraph {
        let mut g = IrGraph::new();
        let h = g.input_vertex("h", Dim::flat(4));
        let w = g.param("w", 4, 4);
        let p = g.linear(h, w).unwrap();
        let e = g.scatter(ScatterFn::Bin(BinaryFn::Sub), p, p).unwrap();
        // A softmax makes the training plan exercise recomputation.
        let sm = g.edge_softmax(e).unwrap();
        let v = g.gather(ReduceFn::Sum, EdgeGroup::ByDst, sm).unwrap();
        g.mark_output(v);
        g
    }

    #[test]
    fn dump_ir_lists_every_node() {
        let g = toy();
        let s = dump_ir(&g);
        assert_eq!(s.lines().count(), g.len());
        assert!(s.contains("*out"));
        assert!(s.contains("scatter"));
    }

    #[test]
    fn dot_is_wellformed() {
        let g = toy();
        let compiled = compile(&g, true, &CompileOptions::ours()).unwrap();
        let dot = to_dot(&compiled.plan.ir, Some(&compiled.plan));
        assert!(dot.starts_with("digraph"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("subgraph cluster_k0"));
        // Every node appears.
        for n in compiled.plan.ir.nodes() {
            assert!(dot.contains(&format!("n{} [", n.id)));
        }
    }

    #[test]
    fn plan_summary_mentions_recompute() {
        let g = toy();
        let compiled = compile(&g, true, &CompileOptions::ours()).unwrap();
        let s = dump_plan(&compiled.plan);
        assert!(s.contains("kernels"));
        assert!(s.contains("recompute"), "plan summary: {s}");
    }

    #[test]
    fn program_dump_renders_clusters_views_and_storage() {
        let g = toy();
        let compiled = compile(&g, true, &CompileOptions::ours()).unwrap();
        let s = dump_programs(&compiled.plan);
        // Every kernel appears with its segment structure …
        for k in &compiled.plan.kernels {
            assert!(s.contains(&format!("k{:<3}", k.id)), "kernel {}: {s}", k.id);
        }
        // … every step appears with a storage class …
        for prog in &compiled.plan.programs {
            for st in &prog.steps {
                assert!(
                    s.contains(&format!("%{:<3}", st.node)),
                    "step {}: {s}",
                    st.node
                );
            }
        }
        assert!(s.contains("materialized"), "boundary class: {s}");
        assert!(s.contains("scratch"), "internal class: {s}");
        // … and endpoint views annotate the cross-space reads (the
        // scatter reads its vertex operand by-src, the gather reduces
        // by-dst).
        assert!(s.contains("by-src"), "endpoint views: {s}");
        assert!(s.contains("reduce:by-dst"), "reduction views: {s}");
        assert!(s.contains("tiled stream"), "streamed chains: {s}");
    }

    #[test]
    fn memory_dump_renders_every_region() {
        let g = toy();
        let compiled = compile(&g, true, &CompileOptions::ours()).unwrap();
        let mem = plan_memory(&compiled.plan, 16, 48, true);
        let s = dump_memory(&compiled.plan, &mem);
        assert!(s.contains("arena"), "summary: {s}");
        for r in &mem.regions {
            assert!(
                s.contains(&format!("%{:<3}", r.node)),
                "region {}: {s}",
                r.node
            );
        }
        assert!(s.contains('∞'), "persistent lifetimes: {s}");
    }
}
