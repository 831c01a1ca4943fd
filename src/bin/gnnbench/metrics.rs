//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// One measured value. `samples` is the number of timings behind a
/// percentile, printed beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Self {
            name,
            value,
            unit: unit_of(name),
            samples: None,
        }
    }

    pub fn sampled(name: &'static str, value: f64, samples: usize) -> Self {
        Self {
            samples: Some(samples),
            ..Self::new(name, value)
        }
    }
}

/// `(name, unit, better, bound)`: what a user of the system sees, per
/// workload, measured with tracing off. `bound` is the share of the
/// parent's median by which the metric may get worse.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("step_ms_p50", "ms", "lower", 0.25),
    ("edges_per_s", "edges/s", "higher", 0.25),
    ("peak_value_mb", "MB", "lower", 0.01),
    ("arena_mb", "MB", "lower", 0.01),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single-layer numbers. A value of 0 means the
/// workload never enters that layer (see the README's glossary).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("graph.csr_build_ms", "ms", "lower"),
    ("graph.validate_ms", "ms", "lower"),
    ("graph.partition_ms", "ms", "lower"),
    ("graph.cut_edge_frac", "frac", "lower"),
    ("reorder.rcm_ms", "ms", "lower"),
    ("reorder.mean_gap_ratio", "ratio", "lower"),
    ("models.build_ms", "ms", "lower"),
    ("models.ir_nodes", "count", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("core.reorg_ms", "ms", "lower"),
    ("core.autodiff_ms", "ms", "lower"),
    ("core.fusion_ms", "ms", "lower"),
    ("core.recompute_ms", "ms", "lower"),
    ("core.lower_ms", "ms", "lower"),
    ("core.memplan_ms", "ms", "lower"),
    ("core.reorg_rewrites", "count", "higher"),
    ("core.ir_nodes_train", "count", "lower"),
    ("core.kernels", "count", "lower"),
    ("core.program_steps", "count", "lower"),
    ("core.stash_mb", "MB", "lower"),
    ("core.pred_gflop", "GFLOP", "lower"),
    ("core.pred_gb", "GB", "lower"),
    ("core.pred_peak_mb", "MB", "lower"),
    ("core.speedup_vs_dgl", "ratio", "higher"),
    ("core.peak_mem_vs_dgl", "ratio", "higher"),
    ("sim.pred_speedup_vs_dgl", "ratio", "higher"),
    ("sim.pred_mem_vs_dgl", "ratio", "higher"),
    ("tensor.gemm_gflops_linear", "GFLOP/s", "higher"),
    ("tensor.gemm_gflops_peak", "GFLOP/s", "higher"),
    ("tensor.stream_gbs", "GB/s", "higher"),
    ("exec.session_build_ms", "ms", "lower"),
    ("exec.cold_step_ms", "ms", "lower"),
    ("exec.forward_ms_p50", "ms", "lower"),
    ("exec.backward_ms_p50", "ms", "lower"),
    ("exec.step_ms_p75", "ms", "lower"),
    ("exec.step_ms_min", "ms", "lower"),
    ("exec.step_ms_p99", "ms", "lower"),
    ("exec.fused_kernels", "count", "higher"),
    ("exec.scratch_mb", "MB", "lower"),
    ("exec.boundary_mb", "MB", "lower"),
    ("exec.fallback_allocs", "count", "lower"),
    ("exec.allocs_per_step", "count", "lower"),
    ("exec.alloc_kb_per_step", "kB", "lower"),
    ("exec.arena_over_peak", "ratio", "lower"),
    ("exec.achieved_gflops", "GFLOP/s", "higher"),
    ("exec.achieved_gbs", "GB/s", "higher"),
    ("exec.roofline_frac", "frac", "higher"),
    ("exec.thread_speedup", "ratio", "higher"),
    ("exec.infer_forward_ms_p50", "ms", "lower"),
    ("exec.infer_peak_mb", "MB", "lower"),
    ("exec.oplib_gather_ms", "ms", "lower"),
    ("exec.oplib_scatter_ms", "ms", "lower"),
    ("sharded.build_ms", "ms", "lower"),
    ("sharded.comm_mb_per_step", "MB", "lower"),
    ("sharded.exchanges_per_step", "count", "lower"),
    ("sharded.halo_vertices", "count", "lower"),
    ("sharded.max_shard_arena_mb", "MB", "lower"),
    ("sharded.global_bytes_frac", "frac", "lower"),
    ("sharded.step_over_unsharded", "ratio", "lower"),
    ("train.overhead_ms_p50", "ms", "lower"),
    ("train.loss_ms", "ms", "lower"),
    ("train.optim_ms", "ms", "lower"),
    ("train.final_loss", "loss", "lower"),
    ("train.final_accuracy", "frac", "higher"),
    ("bench.trace_overhead_frac", "frac", "lower"),
    ("bench.rss_hwm_mb", "MB", "lower"),
    ("bench.threads", "count", "higher"),
    ("bench.nproc", "count", "higher"),
];

/// Unit of a catalogued metric.
///
/// # Panics
///
/// Panics on a name outside the catalogue: that is a bug in the
/// benchmark, caught by the end-to-end test.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, ..)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find_map(|(n, u)| (n == name).then_some(u))
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
}

/// Every per-layer metric in catalogue order: the measured value where
/// `have` holds one, else 0 for a layer the workload does not enter.
pub fn complete_per_layer(have: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, ..)| {
            have.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0))
        })
        .collect()
}

/// The line `run` and `trace` print per metric, and `check` reads back:
/// workload, name, value, unit, then the sample count if there is one.
pub fn line(workload: &str, m: &Metric) -> String {
    let n = m.samples.map_or(String::new(), |n| format!("  n={n}"));
    format!(
        "{workload:<18} {:<28} {:>16} {}{n}",
        m.name,
        format_value(m.value),
        m.unit
    )
}

/// All the digits that matter, without a tail of float noise.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

/// Reads a [`line`] back: `(workload, name, value)`.
pub fn parse_line(text: &str) -> Option<(&str, &str, f64)> {
    let mut fields = text.split_whitespace();
    let (workload, name, value) = (fields.next()?, fields.next()?, fields.next()?);
    let known = END_TO_END.iter().any(|&(n, ..)| n == name)
        || PER_LAYER.iter().any(|&(n, ..)| n == name)
        || name == FAILED_STEPS;
    known.then(|| value.parse().ok().map(|v| (workload, name, v)))?
}

/// Printed by `run` beside the end-to-end metrics; in the `--workload`
/// form it is the result line's `failed` of `attempted`.
pub const FAILED_STEPS: &str = "failed_steps";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|&(n, ..)| n)
            .chain(PER_LAYER.iter().map(|&(n, ..)| n))
            .collect();
        let unique: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            let u = unit_of(n);
            assert!(u.len() <= 16);
            assert!(u
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, b, _)| (n, u, b) == ("setup_s", "s", "lower")));
        assert!(END_TO_END.iter().all(|&(.., bound)| bound <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what
    /// the binary prints. They must list the same metrics and bounds.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let doc = include_str!("../../../BENCHMARK.json");
        let quoted = |s: &str| format!("\"{s}\"");
        let section = |key: &str| {
            let from = doc.find(&quoted(key)).expect(key);
            let len = doc[from..].find(']').expect("section closes");
            &doc[from..from + len]
        };
        let (e2e, layers) = (section("end_to_end"), section("per_layer"));
        for &(name, unit, better, bound) in END_TO_END {
            let at = e2e.find(&quoted(name)).expect(name);
            let entry = &e2e[at..at + e2e[at..].find('}').expect("entry closes")];
            assert!(entry.contains(&quoted(unit)), "{name}: unit");
            assert!(entry.contains(&quoted(better)), "{name}: direction");
            assert!(
                entry.contains(&format!("\"bound\": {bound}")),
                "{name}: bound"
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        for &(name, unit, better) in PER_LAYER {
            let at = layers.find(&quoted(name)).expect(name);
            let entry = &layers[at..at + layers[at..].find('}').expect("entry closes")];
            assert!(entry.contains(&quoted(unit)), "{name}: unit");
            assert!(entry.contains(&quoted(better)), "{name}: direction");
        }
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        for w in crate::workloads::Workload::ALL {
            assert!(section("workloads").contains(&quoted(w.name())));
        }
    }

    #[test]
    fn lines_round_trip() {
        let m = Metric::sampled("step_ms_p50", 612.345_678, 54);
        let text = line("gat_train", &m);
        assert!(text.ends_with("ms  n=54"), "{text}");
        let (w, n, v) = parse_line(&text).unwrap();
        assert_eq!((w, n), ("gat_train", "step_ms_p50"));
        assert!((v - 612.346).abs() < 1e-9);
        let whole = line("cora_trainer", &Metric::new("core.kernels", 9.0));
        assert_eq!(
            parse_line(&whole),
            Some(("cora_trainer", "core.kernels", 9.0))
        );
        assert_eq!(parse_line("host: Xeon | nproc 2"), None);
        assert_eq!(parse_line("gat_train not_a_metric 1 ms"), None);
    }

    #[test]
    fn missing_layers_read_zero() {
        let all = complete_per_layer(&[Metric::new("core.kernels", 9.0)]);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all.iter().filter(|m| m.value != 0.0).count(), 1);
    }
}
