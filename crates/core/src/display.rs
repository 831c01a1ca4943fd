//! Human-readable and Graphviz renderings of IR graphs and execution
//! plans — the debugging surface for every pass.

use crate::ir::{IrGraph, Phase};
use crate::lower::{Data, FullSource, KernelProgram, Operand, RowAt, SlotSize, Unit, UnitKind};
use crate::op::{EdgeGroup, OpKind, Space};
use crate::plan::ExecutionPlan;
use crate::view::Layout;
use std::fmt::Write as _;

/// One line per node: `id name space dim phase ← inputs`.
pub fn dump_ir(ir: &IrGraph) -> String {
    let mut out = String::new();
    for n in ir.nodes() {
        let space = space_label(n.space);
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

fn space_label(space: Space) -> &'static str {
    match space {
        Space::Vertex => "V",
        Space::Edge => "E",
        Space::Param => "P",
    }
}

/// The compiled form of every kernel program — what a launch runs, so a
/// slot-size or aliasing regression is a text diff. Per kernel: the
/// inputs it releases mid-launch (its dying inputs, after their last
/// reading stage); then one block per [`Unit`] in
/// stage order (tile unit, streamed unit — the chain under the gather's
/// own segment, where it executes — or dense call) with one line per
/// step: storage class, slot (`tile`, `row×strip`, `fold`, `sink`, or
/// `alias` for a pure copy compiled away) and resolved operands — a slot
/// is named by the step that fills it, `@src`/`@dst` is the endpoint pin.
///
/// Sample — stage 0 streams a `BySrc` gather: the copy `%13` is an alias
/// of `%12[dst(e)]`, the chain step `%14` is folded into the gather
/// `%19`, which accumulates `%12[dst(e)]·%8(e)` into its tensor:
///
/// ```text
///   stage 0, seg 1 (streamed unit):
///     %13  scatter_CopyV_dup  E[256] scratch  alias  = %12@dst
///     %14  binary_Mul         E[256] scratch  fold   ← %12@dst %8
///     %19  gather_Sum         V[256] interior sink   ← %14 by-src
/// ```
pub fn dump_programs(plan: &ExecutionPlan) -> String {
    let ir = &plan.ir;
    let deaths = crate::memplan::liveness(plan).kernel_deaths;
    let mut out = String::new();
    for (k, prog) in plan.kernels.iter().zip(&plan.programs) {
        let n = prog.units.len();
        let _ = writeln!(
            out,
            "k{:<3} {:?} {} steps, {n} unit{}",
            k.id,
            k.mapping,
            prog.steps.len(),
            if n == 1 { "" } else { "s" }
        );
        for stage in 0..n {
            let dying = |&&(i, at): &&(usize, usize)| at == stage && deaths[k.id].contains(&i);
            let freed: Vec<String> = prog
                .inputs
                .iter()
                .filter(dying)
                .map(|(i, _)| format!("%{i}"))
                .collect();
            if !freed.is_empty() {
                let _ = writeln!(out, "  releases {} after stage {stage}", freed.join(" "));
            }
        }
        let line = |out: &mut String, si: usize, slot: &str, reads: String| {
            let s = &prog.steps[si];
            let _ = writeln!(
                out,
                "    %{:<3} {:<24} {:<7} {:<12} {slot:<7}{reads}{}",
                s.node,
                ir.node(s.node).name,
                format!("{}[{}]", space_label(s.space), s.cols),
                format!("{:?}", s.storage).to_lowercase(),
                if s.recompute { " recompute" } else { "" },
            );
        };
        for unit in &prog.units {
            let flavor = match unit.kind {
                UnitKind::Tile => "tile unit",
                UnitKind::Streamed => "streamed unit",
                UnitKind::Dense => "dense call",
            };
            let _ = writeln!(
                out,
                "  stage {}, seg {} ({flavor}):",
                unit.stage, unit.segment
            );
            let operand = |o: &Operand| operand_label(prog, unit, o);
            for &(si, read) in &unit.reads {
                // (Staging ops share their reader's step, and come first.)
                let Some(op) = unit.ops.iter().rev().find(|op| op.step == si) else {
                    line(&mut out, si, "alias", format!(" = {}", operand(&read)));
                    continue;
                };
                let slot = match (unit.kind, op.size) {
                    (UnitKind::Dense, _) => "dense".to_owned(),
                    (_, SlotSize::Row) => format!("row×{}", op.strip),
                    (_, size) => format!("{size:?}").to_lowercase(),
                };
                let mut reads: Vec<String> = op.srcs.iter().map(operand).collect();
                if let OpKind::GatherMaxBwd { fwd } = op.kind {
                    reads.push(format!("argmax(%{fwd})"));
                }
                reads.extend(op.kind.reduction_group().map(|g| match g {
                    EdgeGroup::ByDst => "by-dst".to_owned(),
                    EdgeGroup::BySrc => "by-src".to_owned(),
                }));
                line(&mut out, si, &slot, format!(" ← {}", reads.join(" ")));
            }
        }
    }
    out
}

/// How `unit` reads operand `o`: the tensor, its endpoint pin, and the
/// layouts a staging op or a staged view lays it out through.
fn operand_label(prog: &KernelProgram, unit: &Unit, o: &Operand) -> String {
    let laid = |x: &Operand, ls: &[Layout]| {
        let ls: String = ls.iter().map(|l| format!("[{l}]")).collect();
        operand_label(prog, unit, x) + &ls
    };
    let what = match o.data {
        Data::Slot { idx, .. } if !unit.ops[idx].map.is_empty() => {
            laid(&unit.ops[idx].srcs[0], &unit.ops[idx].layouts)
        }
        Data::Slot { idx, .. } => format!("%{}", prog.steps[unit.ops[idx].step].node),
        Data::Full(FullSource::View(i)) => laid(&unit.views[i].srcs[0], &unit.views[i].layouts),
        Data::Full(FullSource::Value(id)) => format!("%{id}"),
        Data::Full(FullSource::Step(si)) => format!("%{}", prog.steps[si].node),
    };
    let pin = match o.at {
        RowAt::Own | RowAt::Whole => "",
        RowAt::SrcV => "@src",
        RowAt::DstV => "@dst",
    };
    format!("{what}{pin}")
}

/// Offset map of a [`MemoryPlan`](crate::memplan::MemoryPlan): one line
/// per planned region — tensor, arena offset, size, lifetime interval in
/// `k<kernel>.<stage>` positions (stage `i` is the kernel's `i`-th
/// segment) — then the arena by size class (`class bytes ×
/// buffers = total`; the `store` rows sum to the arena, the `aux` rows
/// are the `u32` argmax tables beside it).
///
/// Sample lines — node `%14`, 2 KiB at offset 4096, live from kernel 3's
/// first segment until kernel 5's second; and its class, two buffers of
/// which cover the step:
///
/// ```text
///   %14  gather_sum              @4096     2048 B  [k3.0, k5.1]
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
    let at = |p: usize| {
        let mut spans = (0..plan.kernels.len()).map(|k| (k, mem.kernel_positions(k)));
        let (k, span) = spans.find(|(_, s)| s.contains(&p)).unwrap_or((0, 0..0));
        format!("k{k}.{}", p - span.start)
    };
    for r in &mem.regions {
        let life = if r.death == crate::memplan::PERSISTENT {
            format!("[{}, ∞]", at(r.birth))
        } else {
            format!("[{}, {}]", at(r.birth), at(r.death))
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
        // … the units that run, with each op's slot and its resolved
        // operands: the scatter reads its vertex operand at both
        // endpoints, the gather reduces by destination into its sink,
        // the backward kernel frees a dying input mid-launch.
        assert!(s.contains("(tile unit):"), "unit kinds: {s}");
        assert!(s.contains("(dense call):"), "unit kinds: {s}");
        assert!(
            s.contains("@src") && s.contains("@dst"),
            "endpoint pins: {s}"
        );
        assert!(
            s.contains("sink") && s.contains("by-dst"),
            "reductions: {s}"
        );
        assert!(s.contains("releases %"), "release schedule: {s}");
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
