//! The four workloads and the block every measurement is made of:
//! graph → compile → session → cold step → warm-up → timed steps → drop.

use crate::host::MEASURED_THREADS;
use crate::inputs::Inputs;
use crate::oracle::checksum;
use crate::trace::{Tracer, SETUP_STEP};
use gnnopt::core::{compile, CompileOptions, ExecPolicy};
use gnnopt::exec::{Bindings, ExchangeKind, RunStats, Session, ShardedSession};
use gnnopt::graph::{datasets, generators, EdgeList, Graph};
use gnnopt::models::{gat, gcn, GatConfig, GcnConfig, ModelSpec};
use gnnopt::tensor::Tensor;
use gnnopt::train::{Adam, Trainer};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GatTrain,
    GcnWideTrain,
    GcnShard2Train,
    CoraTrainer,
}

/// `Quick` shrinks the RMAT graphs to scale 10 for tests and smoke
/// runs; its numbers are never a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

/// How a plan is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Session::step`.
    Plain,
    /// `ShardedSession` over two shards, `forward` + `backward`.
    Sharded,
    /// `Trainer::step`: bindings, forward, loss, backward, clip, Adam.
    Trainer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    Ours,
    Dgl,
}

/// One way of running a workload's model. The measured variant is
/// [`Workload::variant`]; the oracles and the layer probes vary one
/// field at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub kind: Kind,
    pub preset: Preset,
    pub threads: usize,
    pub training: bool,
}

impl Variant {
    pub fn options(self) -> CompileOptions {
        let base = match self.preset {
            Preset::Ours => CompileOptions::ours(),
            Preset::Dgl => CompileOptions::dgl(),
        };
        CompileOptions {
            exec: ExecPolicy {
                threads: self.threads,
                ..base.exec
            },
            ..base
        }
    }
}

/// Timed steps per block. Constants, so that two commits do the same
/// work: `run` per round (three rounds), `trace` in its single round,
/// `bench` per block of a `--seconds`-bounded run.
pub struct StepCounts {
    pub run: usize,
    pub trace: usize,
    pub bench: usize,
}

/// Untimed steps after the cold one, before the timed ones.
pub const WARMUP_STEPS: usize = 2;
/// Timed steps per block under `--quick`.
pub const QUICK_STEPS: usize = 3;

const RMAT_SCALE: u32 = 16;
const QUICK_SCALE: u32 = 10;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GatTrain,
        Workload::GcnWideTrain,
        Workload::GcnShard2Train,
        Workload::CoraTrainer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GatTrain => "gat_train",
            Workload::GcnWideTrain => "gcn_wide_train",
            Workload::GcnShard2Train => "gcn_shard2_train",
            Workload::CoraTrainer => "cora_trainer",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn kind(self) -> Kind {
        match self {
            Workload::GatTrain | Workload::GcnWideTrain => Kind::Plain,
            Workload::GcnShard2Train => Kind::Sharded,
            Workload::CoraTrainer => Kind::Trainer,
        }
    }

    /// The measured variant: this paper's pipeline, training, the
    /// thread count compiled into the plan.
    pub fn variant(self) -> Variant {
        Variant {
            kind: self.kind(),
            preset: Preset::Ours,
            threads: MEASURED_THREADS,
            training: true,
        }
    }

    pub fn steps(self, size: Size) -> StepCounts {
        if size == Size::Quick {
            return StepCounts {
                run: QUICK_STEPS,
                trace: QUICK_STEPS,
                bench: QUICK_STEPS,
            };
        }
        let (run, trace, bench) = match self {
            Workload::GatTrain => (18, 6, 6),
            Workload::GcnWideTrain => (20, 6, 8),
            Workload::GcnShard2Train => (14, 5, 5),
            Workload::CoraTrainer => (1500, 1000, 600),
        };
        StepCounts { run, trace, bench }
    }

    pub fn model(self) -> ModelSpec {
        match self {
            Workload::GatTrain => gat(&GatConfig {
                in_dim: 64,
                layers: vec![(2, 32)],
                negative_slope: GAT_SLOPE,
                reorganized: false,
            }),
            Workload::GcnWideTrain => gcn(&GcnConfig {
                in_dim: 256,
                layer_dims: vec![128, 64],
            }),
            Workload::GcnShard2Train => gcn(&GcnConfig {
                in_dim: 64,
                layer_dims: vec![64, 32],
            }),
            Workload::CoraTrainer => gcn(&GcnConfig::two_layer(64, 32, 7)),
        }
        .expect("the benchmark's fixed model configurations build")
    }

    pub fn edges(self, size: Size, seed: u64) -> EdgeList {
        let scale = match size {
            Size::Full => RMAT_SCALE,
            Size::Quick => QUICK_SCALE,
        };
        let rmat = |edge_factor| generators::rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed);
        match self {
            Workload::GatTrain | Workload::GcnShard2Train => rmat(16),
            Workload::GcnWideTrain => rmat(4),
            Workload::CoraTrainer => {
                let g = datasets::cora().build_graph(seed);
                let pairs: Vec<(u32, u32)> = g
                    .src_slice()
                    .iter()
                    .copied()
                    .zip(g.dst_slice().iter().copied())
                    .collect();
                EdgeList::from_pairs(g.num_vertices(), &pairs)
            }
        }
    }
}

pub const GAT_SLOPE: f32 = 0.2;
const SHARDS: usize = 2;
const CLIP_NORM: f32 = 5.0;
const ADAM_LR: f32 = 0.01;

/// What one block runs after its cold step.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockPlan {
    pub warmup: usize,
    pub timed: usize,
    /// Extra steps after the timed ones with one span per phase
    /// (`forward`/`backward` called separately); the traced run only.
    pub traced: usize,
    /// Keep the cold step's outputs and gradients for the oracles.
    pub keep_first: bool,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct StepSample {
    pub wall_s: f64,
    /// `RunStats::{forward,backward}_seconds` of the same step.
    pub forward_s: f64,
    pub backward_s: f64,
    /// Heap allocations (count, bytes) made while the step ran.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Seconds of each part of set-up; `total_s` spans all of them, the
/// bindings and the cold step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub csr_build_s: f64,
    pub validate_s: f64,
    pub model_build_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    pub cold_step_s: f64,
    pub total_s: f64,
}

/// Owned results of one step.
pub struct StepTensors {
    pub outputs: Vec<Tensor>,
    /// Parameter gradients in `Inputs::params` order.
    pub grads: Vec<Tensor>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ShardFacts {
    pub comm_bytes: u64,
    pub exchanges: u64,
    pub halo_vertices: u64,
    pub max_shard_arena_bytes: u64,
    /// Exchange bytes moved by `GlobalGather`/`GlobalScatter` records.
    pub global_bytes: u64,
}

#[derive(Default)]
pub struct BlockOut {
    pub setup: Setup,
    pub steps: Vec<StepSample>,
    pub traced: Vec<StepSample>,
    pub first: Option<StepTensors>,
    /// Timed or traced steps that returned `Err` (the rest of the block
    /// is then abandoned and counts as failed too) or whose checksum
    /// differs from the cold step's.
    pub failed_steps: usize,
    /// Trainer: loss of every step of the block, cold step first.
    pub losses: Vec<f32>,
    pub accuracy: f32,
    /// `RunStats` of the last step.
    pub stats: RunStats,
    pub arena_bytes: u64,
    pub shard: Option<ShardFacts>,
}

/// One per block, on the stack: the size gap between variants costs
/// nothing.
#[allow(clippy::large_enum_variant)]
enum Runner<'a> {
    Plain(Session<'a>),
    Sharded(ShardedSession<'a>),
    /// With the `RunStats` of its last step, which the trainer returns
    /// but does not keep.
    Trainer(Trainer<'a, Adam>, RunStats),
}

struct StepOut {
    sample: StepSample,
    checksum: u64,
    /// Trainer: `(loss, accuracy)`.
    loss: Option<(f32, f32)>,
    tensors: Option<StepTensors>,
}

/// What a step is fed; fixed for the block.
struct Feed<'i> {
    inputs: &'i Inputs,
    bindings: Bindings,
    training: bool,
}

impl Runner<'_> {
    fn stats(&self) -> RunStats {
        match self {
            Runner::Plain(s) => s.stats(),
            Runner::Sharded(s) => s.stats(),
            Runner::Trainer(_, last) => *last,
        }
    }

    fn arena_bytes(&self) -> u64 {
        match self {
            Runner::Sharded(s) => s.shard_summaries().iter().map(|x| x.arena_bytes).sum(),
            _ => self.stats().planned_peak_bytes,
        }
    }

    /// One unit of work. `split` calls `forward` and `backward` apart,
    /// each under its own span, where the runner would otherwise hide
    /// them inside one call; `keep` returns the step's tensors.
    fn step(
        &mut self,
        feed: &Feed<'_>,
        split: bool,
        keep: bool,
        tr: &mut Tracer,
    ) -> Result<StepOut, String> {
        let e = |err: gnnopt::exec::ExecError| err.to_string();
        let mut loss = None;
        let mut owned: Option<StepTensors> = None;
        let before = crate::alloc_snapshot();
        // Each arm reads the allocation counters again as soon as its
        // timed call returns, before the checksum and the clones.
        let (sum, wall_s, after) = match self {
            Runner::Plain(sess) if !split && feed.training => {
                let (r, wall_s) = tr.time("exec.step", || {
                    sess.step(&feed.bindings, &feed.inputs.out_grad)
                });
                let after = crate::alloc_snapshot();
                r.map_err(e)?;
                let out = sess.output_ref(0).map_err(e)?;
                let grads = feed
                    .inputs
                    .params
                    .iter()
                    .map(|p| sess.grad_ref(p))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(e)?;
                let sum = checksum(std::iter::once(out).chain(grads.iter().copied()));
                if keep {
                    owned = Some(StepTensors {
                        outputs: vec![out.clone()],
                        grads: grads.into_iter().cloned().collect(),
                    });
                }
                (sum, wall_s, after)
            }
            Runner::Plain(sess) => {
                let open = tr.begin("exec.step");
                let (outs, _) = tr.time("exec.forward", || sess.forward(&feed.bindings));
                let outputs = outs.map_err(e)?;
                let grads = if feed.training {
                    let seed = feed.inputs.out_grad.clone();
                    let (g, _) = tr.time("exec.backward", || sess.backward(seed));
                    ordered(g.map_err(e)?, &feed.inputs.params)?
                } else {
                    Vec::new()
                };
                let wall_s = tr.end(open);
                let after = crate::alloc_snapshot();
                let t = StepTensors { outputs, grads };
                let sum = checksum(t.outputs.iter().chain(&t.grads));
                owned = Some(t);
                (sum, wall_s, after)
            }
            Runner::Sharded(sess) => {
                // `ShardedSession::step` leaves its results where no
                // caller can reach them, so the unit of work is the pair
                // of calls that hands them over.
                let open = tr.begin("sharded.step");
                let (outs, _) = tr.time("exec.forward", || sess.forward(&feed.bindings));
                let outputs = outs.map_err(e)?;
                let seed = feed.inputs.out_grad.clone();
                let (g, _) = tr.time("exec.backward", || sess.backward(seed));
                let grads = ordered(g.map_err(e)?, &feed.inputs.params)?;
                let wall_s = tr.end(open);
                let after = crate::alloc_snapshot();
                let t = StepTensors { outputs, grads };
                let sum = checksum(t.outputs.iter().chain(&t.grads));
                owned = Some(t);
                (sum, wall_s, after)
            }
            Runner::Trainer(trainer, last) => {
                let (r, wall_s) = tr.time("train.step", || trainer.step(&feed.inputs.labels));
                let after = crate::alloc_snapshot();
                let report = r.map_err(e)?;
                *last = report.run;
                loss = Some((report.loss, report.accuracy));
                (u64::from(report.loss.to_bits()), wall_s, after)
            }
        };
        let stats = self.stats();
        Ok(StepOut {
            sample: StepSample {
                wall_s,
                forward_s: stats.forward_seconds,
                backward_s: stats.backward_seconds,
                allocs: after.0 - before.0,
                alloc_bytes: after.1 - before.1,
            },
            checksum: sum,
            loss,
            tensors: owned.filter(|_| keep),
        })
    }
}

fn ordered(mut grads: HashMap<String, Tensor>, params: &[String]) -> Result<Vec<Tensor>, String> {
    params
        .iter()
        .map(|p| {
            grads
                .remove(p)
                .ok_or_else(|| format!("backward returned no gradient for '{p}'"))
        })
        .collect()
}

/// Runs one block of `w` as `v`. `Err` means set-up or the cold step
/// failed and no step was timed.
pub fn run_block(
    w: Workload,
    inputs: &Inputs,
    v: Variant,
    plan: BlockPlan,
    tr: &mut Tracer,
) -> Result<BlockOut, String> {
    tr.context(w.name(), SETUP_STEP);
    let setup_span = tr.begin("bench.setup");
    let (graph, csr_build_s) = tr.time("graph.csr_build", || Graph::from_edge_list(&inputs.edges));
    let (valid, validate_s) = tr.time("graph.validate", || graph.validate());
    valid?;
    let (spec, model_build_s) = tr.time("models.build", || w.model());
    let options = v.options();
    let (compiled, compile_s) = tr.time("core.compile", || compile(&spec.ir, v.training, &options));
    let compiled = compiled.map_err(|err| err.to_string())?;

    let mut bindings = Bindings::new();
    for (name, value) in &inputs.values {
        bindings.insert(name, value.clone());
    }
    let feed = Feed {
        inputs,
        bindings,
        training: v.training,
    };

    let e = |err: gnnopt::exec::ExecError| err.to_string();
    let build_span = tr.begin(match v.kind {
        Kind::Plain => "exec.build",
        Kind::Sharded => "sharded.build",
        Kind::Trainer => "train.build",
    });
    let mut runner = match v.kind {
        Kind::Plain => Runner::Plain(
            Session::builder(&compiled.plan, &graph)
                .build()
                .map_err(e)?,
        ),
        Kind::Sharded => Runner::Sharded(
            ShardedSession::builder(&compiled.plan, &graph)
                .shards(SHARDS)
                .build()
                .map_err(e)?,
        ),
        Kind::Trainer => Runner::Trainer(
            Trainer::new(
                &compiled.plan,
                &graph,
                inputs.values.clone(),
                inputs.params.iter().cloned(),
                Adam::new(ADAM_LR),
            )
            .map_err(e)?
            .with_clip_norm(CLIP_NORM),
            RunStats::default(),
        ),
    };
    let build_s = tr.end(build_span);

    tr.context(w.name(), 0);
    let cold_span = tr.begin("exec.cold_step");
    let cold = runner.step(&feed, false, plan.keep_first, tr);
    let cold_step_s = tr.end(cold_span);
    tr.context(w.name(), SETUP_STEP);
    let total_s = tr.end(setup_span);
    let cold = cold?;

    let mut out = BlockOut {
        setup: Setup {
            csr_build_s,
            validate_s,
            model_build_s,
            compile_s,
            build_s,
            cold_step_s,
            total_s,
        },
        first: cold.tensors,
        ..BlockOut::default()
    };
    let is_trainer = v.kind == Kind::Trainer;
    let note = |out: &mut BlockOut, loss: Option<(f32, f32)>| {
        if let Some((l, acc)) = loss {
            out.losses.push(l);
            out.accuracy = acc;
        }
    };
    note(&mut out, cold.loss);

    let total = plan.warmup + plan.timed + plan.traced;
    for i in 0..total {
        tr.context(w.name(), (i + 1) as i64);
        let traced = i >= plan.warmup + plan.timed;
        match runner.step(&feed, traced, false, tr) {
            Ok(step) => {
                note(&mut out, step.loss);
                tr.count("exec.allocs", step.sample.allocs as f64);
                tr.count("exec.alloc_bytes", step.sample.alloc_bytes as f64);
                if i < plan.warmup {
                    continue;
                }
                // The trainer's parameters move every step, so its sum
                // (the loss bits) is compared across blocks instead.
                if !is_trainer && step.checksum != cold.checksum {
                    out.failed_steps += 1;
                }
                if traced {
                    out.traced.push(step.sample);
                } else {
                    out.steps.push(step.sample);
                }
            }
            Err(err) => {
                eprintln!("{}: step {} failed: {err}", w.name(), i + 1);
                out.failed_steps += total - i.max(plan.warmup);
                break;
            }
        }
    }

    out.stats = runner.stats();
    out.arena_bytes = runner.arena_bytes();
    if let Runner::Sharded(sess) = &runner {
        let global_bytes = sess
            .exchanges()
            .iter()
            .filter(|x| {
                matches!(
                    x.kind,
                    ExchangeKind::GlobalGather | ExchangeKind::GlobalScatter
                )
            })
            .map(|x| x.bytes)
            .sum();
        out.shard = Some(ShardFacts {
            comm_bytes: out.stats.comm_bytes,
            exchanges: out.stats.halo_exchanges,
            halo_vertices: out.stats.halo_vertices,
            max_shard_arena_bytes: sess
                .shard_summaries()
                .iter()
                .map(|x| x.arena_bytes)
                .max()
                .unwrap_or(0),
            global_bytes,
        });
    }
    tr.context(w.name(), SETUP_STEP);
    tr.count("exec.peak_value_bytes", out.stats.peak_value_bytes as f64);
    tr.count("exec.arena_bytes", out.arena_bytes as f64);
    if let Some(s) = &out.shard {
        tr.count("sharded.comm_bytes_per_step", s.comm_bytes as f64);
    }
    Ok(out)
}
