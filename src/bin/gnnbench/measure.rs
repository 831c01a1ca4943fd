//! One workload's measurement: its blocks, the oracles that check the
//! first of them once the last has run, and the metrics folded out of
//! both.

use crate::host::{self, Host, MEASURED_THREADS};
use crate::inputs::{self, Inputs};
use crate::metrics::Metric;
use crate::oracle;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{
    run_block, BlockOut, BlockPlan, Kind, Preset, Size, StepSample, StepTensors, Variant, Workload,
    GAT_SLOPE,
};
use gnnopt::graph::Graph;
use gnnopt::tensor::Tensor;
use std::time::Instant;

/// Samples a p99 needs so that ten of them lie beyond it.
const P99_MIN_SAMPLES: usize = 1000;

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct WorkloadRun {
    pub w: Workload,
    seed: u64,
    pub inputs: Inputs,
    pub blocks: Vec<BlockOut>,
    pub checks: Vec<Check>,
    /// Also compare the measured block itself with a `dgl()` session on
    /// one thread (trainer: over the whole block instead of a prefix).
    /// Only `run` does: at full size that baseline reserves up to
    /// 2.5 GB, and on a host that hands memory out lazily that costs ten
    /// seconds and disturbs the timings that follow it.
    pub full_baseline: bool,
    /// Timed and traced steps planned so far, over all blocks.
    pub attempted: usize,
    /// Steps of blocks whose set-up or cold step failed.
    lost_steps: usize,
}

/// Steps after which the trainer is compared with its baseline when
/// that is not done over the whole block.
const BASELINE_TRAINER_STEPS: usize = 400;

/// The same model lowered without reorganization, fusion, recomputation
/// or the fused interpreter, on one thread and one shard.
const BASELINE: Variant = Variant {
    kind: Kind::Plain,
    preset: Preset::Dgl,
    threads: 1,
    training: true,
};

const COLD_STEP_ONLY: BlockPlan = BlockPlan {
    warmup: 0,
    timed: 0,
    traced: 0,
    keep_first: true,
};

impl WorkloadRun {
    pub fn new(w: Workload, size: Size, seed: u64) -> Self {
        let started = Instant::now();
        let inputs = inputs::generate(w, size, seed);
        eprintln!(
            "{}: inputs for seed {seed} took {:.1} s",
            w.name(),
            started.elapsed().as_secs_f64()
        );
        Self {
            w,
            seed,
            inputs,
            blocks: Vec::new(),
            checks: Vec::new(),
            full_baseline: false,
            attempted: 0,
            lost_steps: 0,
        }
    }

    /// Runs one more block of the measured variant and returns its wall
    /// time.
    pub fn block(&mut self, plan: BlockPlan, tr: &mut Tracer) -> f64 {
        let plan = BlockPlan {
            keep_first: self.blocks.is_empty(),
            ..plan
        };
        self.attempted += plan.timed + plan.traced;
        let started = Instant::now();
        let out = run_block(self.w, &self.inputs, self.w.variant(), plan, tr);
        let wall = started.elapsed().as_secs_f64();
        match out {
            Ok(block) => {
                let ms: Vec<f64> = block.steps.iter().map(|s| s.wall_s * 1e3).collect();
                eprintln!(
                    "{}: block {}: set-up {:.3} s, steps {:.1?} ms",
                    self.w.name(),
                    self.blocks.len() + 1,
                    block.setup.total_s,
                    &ms[..ms.len().min(8)]
                );
                if let (Kind::Trainer, Some(first)) = (self.w.kind(), self.blocks.first()) {
                    let same = bits(&block.losses) == bits(&first.losses);
                    let nth = self.blocks.len() + 1;
                    self.check(
                        "loss sequence repeats",
                        same,
                        format!("block {nth} vs block 1"),
                    );
                }
                self.blocks.push(block);
            }
            Err(err) => {
                eprintln!("{}: block failed: {err}", self.w.name());
                self.lost_steps += plan.timed + plan.traced;
            }
        }
        wall
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        if !ok {
            eprintln!("{}: oracle FAILED: {name}: {detail}", self.w.name());
        }
        self.checks.push(Check { name, ok, detail });
    }

    /// Steps that count as failed: all of them if any oracle disagrees.
    pub fn failed(&self) -> usize {
        if self.checks.iter().any(|c| !c.ok) {
            return self.attempted;
        }
        self.lost_steps + self.blocks.iter().map(|b| b.failed_steps).sum::<usize>()
    }

    /// Checks the first block against the oracles. Call once, after the
    /// last block, so that nothing the oracles do sits between two
    /// measured blocks.
    pub fn finish(&mut self, parallel_threads: usize) {
        let started = Instant::now();
        if self.w.kind() == Kind::Trainer {
            self.check_trainer();
        } else {
            self.check_session(parallel_threads);
        }
        eprintln!(
            "{}: oracles took {:.1} s",
            self.w.name(),
            started.elapsed().as_secs_f64()
        );
    }

    fn check_trainer(&mut self) {
        let Some(losses) = self.blocks.first().map(|b| b.losses.clone()) else {
            return;
        };
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        let reference = reference_forward(self.w, &self.inputs);
        let want = oracle::cross_entropy(&reference, &self.inputs.labels);
        self.check(
            "initial loss vs edge-loop reference",
            oracle::close(first, want),
            format!("{first} vs {want}"),
        );
        self.check("loss decreases", last < first, format!("{first} -> {last}"));

        let steps = if self.full_baseline {
            losses.len() - 1
        } else {
            (losses.len() - 1).min(BASELINE_TRAINER_STEPS)
        };
        let plan = BlockPlan {
            timed: steps,
            ..BlockPlan::default()
        };
        let baseline = Variant {
            kind: Kind::Trainer,
            ..BASELINE
        };
        let name = "loss vs dgl/1-thread trainer";
        match run_block(
            self.w,
            &self.inputs,
            baseline,
            plan,
            &mut Tracer::new(false),
        ) {
            Ok(b) if b.losses.len() == steps + 1 => {
                let (got, want) = (losses[steps], b.losses[steps]);
                let ok = (got - want).abs() <= oracle::TOL * want.abs();
                self.check(name, ok, format!("after {steps} steps: {got} vs {want}"));
            }
            Ok(_) => self.check(name, false, "the baseline lost steps".into()),
            Err(err) => self.check(name, false, err),
        }
    }

    fn check_session(&mut self, parallel_threads: usize) {
        // The first block kept its cold step's outputs and gradients.
        let Some(first) = self.blocks.first_mut().and_then(|b| b.first.take()) else {
            return;
        };
        let reference = reference_forward(self.w, &self.inputs);
        self.check(
            "outputs vs edge-loop reference",
            close(&first.outputs[0], &reference),
            format!("max |diff| {}", first.outputs[0].max_abs_diff(&reference)),
        );
        drop(reference);

        // The parallel path on a small graph of the same model and seed,
        // where both sides of the comparison cost milliseconds.
        let mut quiet = Tracer::new(false);
        let small = inputs::generate(self.w, Size::Quick, self.seed);
        let parallel = Variant {
            threads: parallel_threads,
            ..self.w.variant()
        };
        let got = run_block(self.w, &small, parallel, COLD_STEP_ONLY, &mut quiet);
        let want = run_block(self.w, &small, BASELINE, COLD_STEP_ONLY, &mut quiet);
        self.compare("parallel, small graph", got.map(|b| b.first), want);

        if self.full_baseline {
            let want = run_block(self.w, &self.inputs, BASELINE, COLD_STEP_ONLY, &mut quiet);
            self.compare("measured graph", Ok(Some(first)), want);
        }
    }

    /// Outputs and gradients of `got` against a `dgl()`/1-thread block.
    fn compare(
        &mut self,
        what: &'static str,
        got: Result<Option<StepTensors>, String>,
        want: Result<BlockOut, String>,
    ) {
        let name = "vs dgl/1-thread session";
        match (got, want.map(|b| b.first)) {
            (Ok(Some(got)), Ok(Some(want))) => {
                let diff = got.outputs[0].max_abs_diff(&want.outputs[0]);
                self.check(
                    name,
                    close(&got.outputs[0], &want.outputs[0]),
                    format!("{what}: outputs: max |diff| {diff}"),
                );
                let params = self.inputs.params.clone();
                for ((param, got), want) in params.iter().zip(&got.grads).zip(&want.grads) {
                    let diff = got.max_abs_diff(want);
                    self.check(
                        name,
                        close(got, want),
                        format!("{what}: grad {param}: max |diff| {diff}"),
                    );
                }
            }
            (Err(err), _) | (_, Err(err)) => self.check(name, false, format!("{what}: {err}")),
            _ => self.check(name, false, format!("{what}: a cold step kept no tensors")),
        }
    }

    fn timed(&self) -> Vec<StepSample> {
        self.blocks
            .iter()
            .flat_map(|b| b.steps.iter().copied())
            .collect()
    }

    /// The five end-to-end metrics, in catalogue order. `NaN` where no
    /// block completed; the result line then reports every step failed.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let steps = self.timed();
        let walls: Vec<f64> = steps.iter().map(|s| s.wall_s).collect();
        let total: f64 = walls.iter().sum();
        let last = self.blocks.last();
        let edges = self.inputs.edges.num_edges() as f64;
        let setups: Vec<f64> = self.blocks.iter().map(|b| b.setup.total_s).collect();
        let mb = |bytes: Option<u64>| bytes.map_or(f64::NAN, |b| b as f64 / 1e6);
        vec![
            Metric::sampled("step_ms_p50", median(&walls) * 1e3, walls.len()),
            Metric::sampled(
                "edges_per_s",
                edges * walls.len() as f64 / total,
                walls.len(),
            ),
            Metric::new("peak_value_mb", mb(last.map(|b| b.stats.peak_value_bytes))),
            Metric::new("arena_mb", mb(last.map(|b| b.arena_bytes))),
            Metric::sampled("setup_s", median(&setups), setups.len()),
        ]
    }

    /// The per-layer metrics that fall out of an untraced run for free.
    pub fn free_layer_metrics(&self, host: &Host) -> Vec<Metric> {
        let Some(last) = self.blocks.last() else {
            return Vec::new();
        };
        let steps = self.timed();
        let n = steps.len();
        let ms = |f: fn(&StepSample) -> f64| -> Vec<f64> {
            sorted(&steps.iter().map(|s| f(s) * 1e3).collect::<Vec<_>>())
        };
        let walls = ms(|s| s.wall_s);
        let setup_ms = |f: fn(&BlockOut) -> f64| {
            median(&self.blocks.iter().map(|b| f(b) * 1e3).collect::<Vec<_>>())
        };
        let mean = |f: fn(&StepSample) -> u64| {
            steps.iter().map(|s| f(s) as f64).sum::<f64>() / n.max(1) as f64
        };
        let stats = last.stats;
        let mut out = vec![
            Metric::new("graph.csr_build_ms", setup_ms(|b| b.setup.csr_build_s)),
            Metric::new("graph.validate_ms", setup_ms(|b| b.setup.validate_s)),
            Metric::new("models.build_ms", setup_ms(|b| b.setup.model_build_s)),
            Metric::new("core.compile_ms", setup_ms(|b| b.setup.compile_s)),
            Metric::new("exec.cold_step_ms", setup_ms(|b| b.setup.cold_step_s)),
            Metric::sampled(
                "exec.forward_ms_p50",
                percentile(&ms(|s| s.forward_s), 0.5),
                n,
            ),
            Metric::sampled(
                "exec.backward_ms_p50",
                percentile(&ms(|s| s.backward_s), 0.5),
                n,
            ),
            Metric::sampled("exec.step_ms_p75", percentile(&walls, 0.75), n),
            Metric::sampled("exec.step_ms_min", percentile(&walls, 0.0), n),
            Metric::new("exec.fused_kernels", stats.fused_kernels as f64),
            Metric::new("exec.scratch_mb", stats.scratch_bytes as f64 / 1e6),
            Metric::new("exec.boundary_mb", stats.boundary_bytes as f64 / 1e6),
            Metric::new("exec.fallback_allocs", stats.fallback_allocs as f64),
            Metric::new("exec.allocs_per_step", mean(|s| s.allocs)),
            Metric::new("exec.alloc_kb_per_step", mean(|s| s.alloc_bytes) / 1e3),
            Metric::new(
                "exec.arena_over_peak",
                last.arena_bytes as f64 / stats.peak_value_bytes as f64,
            ),
            Metric::new("bench.rss_hwm_mb", host::rss_hwm_mb()),
            Metric::new("bench.threads", MEASURED_THREADS as f64),
            Metric::new("bench.nproc", host.nproc as f64),
        ];
        if n >= P99_MIN_SAMPLES {
            out.push(Metric::sampled(
                "exec.step_ms_p99",
                percentile(&walls, 0.99),
                n,
            ));
        }
        let build_ms = setup_ms(|b| b.setup.build_s);
        match self.w.kind() {
            Kind::Plain => out.push(Metric::new("exec.session_build_ms", build_ms)),
            Kind::Sharded => {
                let s = last.shard.unwrap_or_default();
                out.extend([
                    Metric::new("sharded.build_ms", build_ms),
                    Metric::new("sharded.comm_mb_per_step", s.comm_bytes as f64 / 1e6),
                    Metric::new("sharded.exchanges_per_step", s.exchanges as f64),
                    Metric::new("sharded.halo_vertices", s.halo_vertices as f64),
                    Metric::new(
                        "sharded.max_shard_arena_mb",
                        s.max_shard_arena_bytes as f64 / 1e6,
                    ),
                    Metric::new(
                        "sharded.global_bytes_frac",
                        s.global_bytes as f64 / s.comm_bytes.max(1) as f64,
                    ),
                ]);
            }
            Kind::Trainer => {
                let overhead = ms(|s| s.wall_s - s.forward_s - s.backward_s);
                out.extend([
                    Metric::new("exec.session_build_ms", build_ms),
                    Metric::sampled("train.overhead_ms_p50", percentile(&overhead, 0.5), n),
                    Metric::new(
                        "train.final_loss",
                        f64::from(last.losses.last().copied().unwrap_or(f32::NAN)),
                    ),
                    Metric::new("train.final_accuracy", f64::from(last.accuracy)),
                ]);
            }
        }
        out
    }
}

/// The model's forward output at the initial parameters, from the
/// equations.
fn reference_forward(w: Workload, inputs: &Inputs) -> Tensor {
    let graph = Graph::from_edge_list(&inputs.edges);
    let v = &inputs.values;
    match w {
        Workload::GatTrain => {
            oracle::gat_forward(&graph, &v["h"], &[(&v["w0"], &v["a0"], 2)], GAT_SLOPE)
        }
        _ => oracle::gcn_forward(&graph, &v["h"], &v["edge_weight"], &[&v["w0"], &v["w1"]]),
    }
}

fn close(a: &Tensor, b: &Tensor) -> bool {
    a.allclose_with(b, oracle::TOL, oracle::TOL)
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}
