//! The traced run's layer probes: each layer's public functions called
//! on the workload's own shapes, timed from here. Together with the
//! spans of the traced block they fill the per-layer table.

use crate::host::{Host, MEASURED_THREADS};
use crate::measure::WorkloadRun;
use crate::metrics::Metric;
use crate::stats::median;
use crate::trace::{Tracer, SETUP_STEP};
use crate::workloads::{run_block, BlockOut, BlockPlan, Kind, Preset, Size, Variant, WARMUP_STEPS};
use gnnopt::core::autodiff::append_backward;
use gnnopt::core::fusion::{duplicate_copy_scatters, partition};
use gnnopt::core::lower::lower_plan;
use gnnopt::core::recompute::{plan_training_memory, RecomputeOptions};
use gnnopt::core::reorg::reorganize;
use gnnopt::core::{
    plan_memory, CompileOptions, Dim, EdgeGroup, ExecPolicy, ExecutionPlan, GemmKernel, IrError,
    ReduceFn, ScatterFn,
};
use gnnopt::exec::kernels;
use gnnopt::graph::{Graph, Partition};
use gnnopt::models::ModelSpec;
use gnnopt::reorder::{locality, strategies};
use gnnopt::sim::Device;
use gnnopt::tensor::{rowops, Tensor};
use gnnopt::train::{softmax_cross_entropy_masked, Adam, Optimizer};
use std::collections::HashMap;
use std::time::Instant;

/// Repetitions of a probe that takes microseconds to milliseconds.
const FAST_REPS: usize = 9;
/// Repetitions of a probe that streams the whole edge set.
const SLOW_REPS: usize = 3;
const GEMM_PEAK_DIM: usize = 512;
const STREAM_REPS: usize = 8;
const STREAM_MIN_BYTES: usize = 16 << 20;
/// Under `--quick` the two fixed-size probes shrink with everything else.
const QUICK_GEMM_DIM: usize = 96;
const QUICK_STREAM_BYTES: usize = 1 << 20;

/// Median wall time in seconds of `reps` runs of `f`, each one span.
fn timed<T>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, s) = tr.time(name, &mut f);
            std::hint::black_box(out);
            s
        })
        .collect();
    median(&runs)
}

/// The compile pipeline pass by pass, on the same IR and in the same
/// order as `compile`, so that `core.compile_ms` can be attributed.
struct Passes {
    plan: ExecutionPlan,
    rewrites: usize,
}

fn run_passes(
    spec: &ModelSpec,
    opts: &CompileOptions,
    (nv, ne): (usize, usize),
    tr: &mut Tracer,
    ms: &mut HashMap<&'static str, Vec<f64>>,
) -> Result<Passes, IrError> {
    let mut lap = |name: &'static str, s: f64| ms.entry(name).or_default().push(s * 1e3);
    let (r, s) = tr.time("core.reorg", || reorganize(&spec.ir));
    let (mut ir, report) = r?;
    lap("core.reorg_ms", s);
    let output = ir.outputs()[0];
    let (r, s) = tr.time("core.autodiff", || append_backward(&mut ir, output));
    let backward = r?;
    lap("core.autodiff_ms", s);
    let ((ir, remap, mut kernels), s) = tr.time("core.fusion", || {
        let (ir, remap) = duplicate_copy_scatters(&ir);
        let kernels = partition(&ir, opts.fusion, opts.mapping);
        (ir, remap, kernels)
    });
    lap("core.fusion_ms", s);
    let recompute = RecomputeOptions {
        scope: opts.recompute,
        flops_per_element_threshold: opts.recompute_threshold,
    };
    let (memory, s) = tr.time("core.recompute", || {
        plan_training_memory(&ir, &mut kernels, &recompute)
    });
    lap("core.recompute_ms", s);
    let mut plan = ExecutionPlan {
        ir,
        kernels,
        stash: memory.stash,
        aux_stash: memory.aux_stash,
        param_grads: backward
            .param_grads
            .iter()
            .map(|(p, g)| (remap[p], remap[g]))
            .collect(),
        training: true,
        exec: opts.exec,
        programs: Vec::new(),
    };
    let (programs, s) = tr.time("core.lower", || lower_plan(&plan));
    plan.programs = programs;
    lap("core.lower_ms", s);
    let (arena, s) = tr.time("core.memplan", || {
        plan_memory(&plan, nv, ne, opts.exec.fused)
    });
    std::hint::black_box(arena);
    lap("core.memplan_ms", s);
    Ok(Passes {
        plan,
        rewrites: report.rewrites,
    })
}

/// Median timed-step wall seconds and last-step peak bytes of a short
/// block of `v`; `None` (and a message) if the block fails.
fn short_block(run: &WorkloadRun, v: Variant, steps: usize, label: &str) -> Option<BlockOut> {
    let plan = BlockPlan {
        // One timed step is the `--quick` setting, where nothing is a
        // measurement and the warm-up would only cost time.
        warmup: if steps > 1 { WARMUP_STEPS } else { 0 },
        timed: steps,
        ..BlockPlan::default()
    };
    match run_block(run.w, &run.inputs, v, plan, &mut Tracer::new(false)) {
        Ok(b) if !b.steps.is_empty() => Some(b),
        Ok(_) => None,
        Err(err) => {
            eprintln!("{}: {label} probe failed: {err}", run.w.name());
            None
        }
    }
}

fn p50_s(block: &BlockOut) -> f64 {
    median(&block.steps.iter().map(|s| s.wall_s).collect::<Vec<_>>())
}

/// Aggregate `o += a·x` bandwidth of `threads` workers, each streaming
/// its own pair of arrays of `bytes` each.
fn stream_gbs(threads: usize, bytes: usize) -> f64 {
    let len = bytes / 4;
    let mut lanes: Vec<(Vec<f32>, Vec<f32>)> = (0..threads)
        .map(|_| (vec![1.0f32; len], vec![0.5f32; len]))
        .collect();
    let pass = |lanes: &mut [(Vec<f32>, Vec<f32>)]| {
        std::thread::scope(|s| {
            for (o, x) in lanes.iter_mut() {
                s.spawn(move || {
                    for _ in 0..STREAM_REPS {
                        rowops::axpy(o, 1e-3, x);
                    }
                });
            }
        });
    };
    pass(&mut lanes);
    let started = Instant::now();
    pass(&mut lanes);
    let seconds = started.elapsed().as_secs_f64();
    std::hint::black_box(&lanes);
    // Read o, read x, write o.
    (threads * STREAM_REPS * len * 12) as f64 / seconds / 1e9
}

/// What the probes share: the traced block they compare against and the
/// workload's own graph and model.
struct Probe<'r> {
    run: &'r WorkloadRun,
    block: &'r BlockOut,
    /// Median timed step of the traced block, in seconds.
    step_s: f64,
    probe_steps: usize,
    size: Size,
    host: &'r Host,
    graph: Graph,
    spec: ModelSpec,
    out: Vec<Metric>,
}

/// Every per-layer metric the untraced run does not already yield.
/// `run` holds the traced block.
pub fn probe(
    run: &WorkloadRun,
    probe_steps: usize,
    size: Size,
    host: &Host,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let Some(block) = run.blocks.last() else {
        return Vec::new();
    };
    tr.context(run.w.name(), SETUP_STEP);
    let mut p = Probe {
        run,
        block,
        step_s: p50_s(block),
        probe_steps,
        size,
        host,
        graph: Graph::from_edge_list(&run.inputs.edges),
        spec: run.w.model(),
        out: Vec::new(),
    };
    p.graph_and_reorder(tr);
    let flop_per_byte = p.core_and_sim(tr);
    p.tensor(flop_per_byte, tr);
    p.op_library(tr);
    p.variants();
    if run.w.kind() == Kind::Trainer {
        p.train(tr);
    }
    p.traced_steps(tr);
    p.out
}

impl Probe<'_> {
    fn push(&mut self, name: &'static str, value: f64) {
        self.out.push(Metric::new(name, value));
    }

    fn graph_and_reorder(&mut self, tr: &mut Tracer) {
        let edges = &self.run.inputs.edges;
        let mut part = None;
        let s = timed(tr, "graph.partition", SLOW_REPS, || {
            part = Some(Partition::edge_cut_bfs(&self.graph, 2));
        });
        let cut = part.map_or(0, |p| p.cut_edges(&self.graph));
        let (perm, rcm_s) = tr.time("reorder.rcm", || strategies::rcm(edges));
        let before = locality::report(edges).mean_gap;
        let after = locality::report(&perm.apply_to_edges(edges)).mean_gap;
        self.push("graph.partition_ms", s * 1e3);
        self.push(
            "graph.cut_edge_frac",
            cut as f64 / self.graph.num_edges().max(1) as f64,
        );
        self.push("reorder.rcm_ms", rcm_s * 1e3);
        self.push("reorder.mean_gap_ratio", after / before);
    }

    /// Pass times, plan facts, the cost model's predictions and the
    /// device model's ratios. Returns the predicted FLOP per byte.
    fn core_and_sim(&mut self, tr: &mut Tracer) -> f64 {
        let w = self.run.w;
        let (nv, ne) = (self.graph.num_vertices(), self.graph.num_edges());
        let stats = self.graph.stats();
        self.push("models.ir_nodes", self.spec.ir.len() as f64);
        let measured = w.variant();
        let mut pass_ms = HashMap::new();
        let mut passes = None;
        for _ in 0..FAST_REPS {
            match run_passes(&self.spec, &measured.options(), (nv, ne), tr, &mut pass_ms) {
                Ok(p) => passes = Some(p),
                Err(err) => eprintln!("{}: pass probe failed: {err}", w.name()),
            }
        }
        for (name, runs) in &pass_ms {
            self.push(name, median(runs));
        }
        let Some(Passes { plan, rewrites }) = passes else {
            return f64::NAN;
        };
        self.push("core.reorg_rewrites", rewrites as f64);
        self.push("core.ir_nodes_train", plan.ir.len() as f64);
        self.push("core.kernels", plan.kernels.len() as f64);
        let steps: usize = plan.programs.iter().map(|p| p.steps.len()).sum();
        self.push("core.program_steps", steps as f64);
        let profiles = plan.profiles(&stats);
        let gflop = profiles.iter().map(|p| p.flops).sum::<u64>() as f64 / 1e9;
        let gb = profiles.iter().map(|p| p.bytes_total()).sum::<u64>() as f64 / 1e9;
        self.push("core.pred_gflop", gflop);
        self.push("core.pred_gb", gb);
        let arena = plan_memory(&plan, nv, ne, true);
        self.push("core.pred_peak_mb", arena.peak_live_bytes() as f64 / 1e6);
        self.push("exec.achieved_gflops", gflop / self.step_s);
        self.push("exec.achieved_gbs", gb / self.step_s);

        // What the paper's device model predicts for the same pair of
        // plans whose measured ratio `variants` takes.
        let device = Device::rtx3090();
        let sim_ours = plan.exec_stats(&device, &stats);
        self.push("core.stash_mb", sim_ours.stashed_bytes as f64 / 1e6);
        let dgl = Variant {
            preset: Preset::Dgl,
            ..measured
        };
        match gnnopt::core::compile(&self.spec.ir, true, &dgl.options()) {
            Ok(c) => {
                let sim_dgl = c.plan.exec_stats(&device, &stats);
                self.push(
                    "sim.pred_speedup_vs_dgl",
                    sim_dgl.latency / sim_ours.latency,
                );
                self.push(
                    "sim.pred_mem_vs_dgl",
                    sim_dgl.peak_memory as f64 / sim_ours.peak_memory as f64,
                );
            }
            Err(err) => eprintln!("{}: dgl compile failed: {err}", w.name()),
        }
        gflop / gb
    }

    fn tensor(&mut self, flop_per_byte: f64, tr: &mut Tracer) {
        let threads = MEASURED_THREADS;
        let nv = self.graph.num_vertices();
        let &(_, k, n) = self
            .spec
            .params
            .iter()
            .max_by_key(|(_, rows, cols)| rows * cols)
            .expect("every model has a weight");
        let x = Tensor::from_fn(&[nv, k], |i| (i % 13) as f32 * 0.1 - 0.6);
        let wt = Tensor::from_fn(&[k, n], |i| (i % 7) as f32 * 0.1 - 0.3);
        let s = timed(tr, "tensor.gemm", SLOW_REPS, || {
            x.matmul_with_threads(&wt, GemmKernel::default(), threads)
        });
        self.push(
            "tensor.gemm_gflops_linear",
            2.0 * (nv * k * n) as f64 / s / 1e9,
        );

        let (d, stream_bytes) = match self.size {
            Size::Full => (
                GEMM_PEAK_DIM,
                (4 * self.host.l2_bytes).max(STREAM_MIN_BYTES),
            ),
            Size::Quick => (QUICK_GEMM_DIM, QUICK_STREAM_BYTES),
        };
        let a = Tensor::from_fn(&[d, d], |i| (i % 11) as f32 * 0.1 - 0.5);
        let s = timed(tr, "tensor.gemm_peak", SLOW_REPS, || {
            a.matmul_with_threads(&a, GemmKernel::default(), 1)
        });
        let peak_gflops = 2.0 * (d * d * d) as f64 / s / 1e9;
        self.push("tensor.gemm_gflops_peak", peak_gflops);

        let (gbs, _) = tr.time("tensor.stream", || stream_gbs(threads, stream_bytes));
        println!(
            "{}: tensor.stream_gbs: {threads} x 2 arrays of {} MiB (L2 {} KiB per core, shared L3 {} KiB)",
            self.run.w.name(),
            stream_bytes >> 20,
            self.host.l2_bytes >> 10,
            self.host.l3_bytes >> 10
        );
        self.push("tensor.stream_gbs", gbs);

        let roof = (peak_gflops * threads as f64).min(gbs * flop_per_byte);
        let achieved = self.out.iter().find(|m| m.name == "exec.achieved_gflops");
        if let Some(frac) = achieved.map(|m| m.value / roof) {
            self.push("exec.roofline_frac", frac);
        }
    }

    /// The unfused op library at the workload's `E x d`.
    fn op_library(&mut self, tr: &mut Tracer) {
        let policy = ExecPolicy {
            threads: MEASURED_THREADS,
            ..CompileOptions::ours().exec
        };
        let width = self.spec.params[0].2;
        let h = Tensor::from_fn(&[self.graph.num_vertices(), width], |i| {
            (i % 17) as f32 * 0.05 - 0.4
        });
        let mut edge_rows = None;
        let s = timed(tr, "exec.oplib_scatter", SLOW_REPS, || {
            edge_rows = Some(kernels::scatter(
                &policy,
                &self.graph,
                ScatterFn::CopyU,
                &h,
                &h,
                Dim::flat(width),
            ));
        });
        self.push("exec.oplib_scatter_ms", s * 1e3);
        let edge_rows = edge_rows.expect("scatter ran");
        let s = timed(tr, "exec.oplib_gather", SLOW_REPS, || {
            kernels::gather(
                &policy,
                &self.graph,
                ReduceFn::Sum,
                EdgeGroup::ByDst,
                &edge_rows,
            )
        });
        self.push("exec.oplib_gather_ms", s * 1e3);
    }

    /// The same model under the baseline preset, on one thread, without
    /// its backward half, and (sharded only) on one shard.
    fn variants(&mut self) {
        let (run, steps, step_s) = (self.run, self.probe_steps, self.step_s);
        let measured = run.w.variant();
        let dgl = Variant {
            preset: Preset::Dgl,
            ..measured
        };
        if let Some(b) = short_block(run, dgl, steps, "dgl") {
            self.push("core.speedup_vs_dgl", p50_s(&b) / step_s);
            self.push(
                "core.peak_mem_vs_dgl",
                b.stats.peak_value_bytes as f64 / self.block.stats.peak_value_bytes as f64,
            );
        }
        let parallel = Variant {
            threads: self.host.parallel_threads,
            ..measured
        };
        if parallel == measured {
            self.push("exec.thread_speedup", 1.0);
        } else if let Some(b) = short_block(run, parallel, steps, "parallel") {
            self.push("exec.thread_speedup", step_s / p50_s(&b));
        }
        let infer = Variant {
            kind: Kind::Plain,
            training: false,
            ..measured
        };
        if let Some(b) = short_block(run, infer, steps, "inference") {
            self.push("exec.infer_forward_ms_p50", p50_s(&b) * 1e3);
            self.push("exec.infer_peak_mb", b.stats.peak_value_bytes as f64 / 1e6);
        }
        if run.w.kind() == Kind::Sharded {
            let unsharded = Variant {
                kind: Kind::Plain,
                ..measured
            };
            if let Some(b) = short_block(run, unsharded, steps, "unsharded") {
                self.push("sharded.step_over_unsharded", step_s / p50_s(&b));
            }
        }
    }

    /// The loss and the optimizer on tensors of the trainer's shapes.
    fn train(&mut self, tr: &mut Tracer) {
        let inputs = &self.run.inputs;
        let nv = self.graph.num_vertices();
        let logits = Tensor::from_fn(&[nv, self.spec.output_dim()], |i| {
            (i % 19) as f32 * 0.1 - 0.9
        });
        let mask = vec![true; nv];
        let s = timed(tr, "train.loss", FAST_REPS, || {
            softmax_cross_entropy_masked(&logits, &inputs.labels, &mask)
        });
        self.push("train.loss_ms", s * 1e3);
        let mut params: HashMap<String, Tensor> = inputs
            .params
            .iter()
            .map(|p| (p.clone(), inputs.values[p].clone()))
            .collect();
        let grads = params.clone();
        let mut adam = Adam::new(0.01);
        let s = timed(tr, "train.optim", FAST_REPS, || {
            adam.step(&mut params, &grads);
        });
        self.push("train.optim_ms", s * 1e3);
    }

    /// The traced steps, from their spans; the trainer owns its session,
    /// so its two halves come from the `RunStats` of the same steps.
    fn traced_steps(&mut self, tr: &Tracer) {
        let (w, block) = (self.run.w, self.block);
        let first_traced = (WARMUP_STEPS + block.steps.len() + 1) as i64;
        let (fwd, bwd): (Vec<f64>, Vec<f64>) = if w.kind() == Kind::Trainer {
            block
                .traced
                .iter()
                .map(|s| (s.forward_s * 1e3, s.backward_s * 1e3))
                .unzip()
        } else {
            (
                tr.step_ms(w.name(), "exec.forward", first_traced),
                tr.step_ms(w.name(), "exec.backward", first_traced),
            )
        };
        let traced: Vec<f64> = block.traced.iter().map(|s| s.wall_s).collect();
        self.out.extend([
            Metric::sampled("exec.forward_ms_p50", median(&fwd), fwd.len()),
            Metric::sampled("exec.backward_ms_p50", median(&bwd), bwd.len()),
            Metric::new(
                "bench.trace_overhead_frac",
                median(&traced) / self.step_s - 1.0,
            ),
        ]);
    }
}
