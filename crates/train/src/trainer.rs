//! The epoch driver: forward → loss → backward → update.

use crate::optim::clip_grad_norm;
use crate::schedule::{EarlyStopping, LrSchedule};
use crate::{accuracy_masked, softmax_cross_entropy_masked, Optimizer, Result};
use gnnopt_core::ExecutionPlan;
use gnnopt_exec::{Bindings, ExecError, RunStats, Session};
use gnnopt_graph::Graph;
use gnnopt_tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// Metrics of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Training accuracy of this step's predictions.
    pub accuracy: f32,
    /// Measured executor statistics.
    pub run: RunStats,
}

/// Drives training of one compiled plan over a fixed graph.
///
/// Holds the parameter/input values; each [`Trainer::step`] runs a full
/// forward + backward and applies the optimizer to the parameters.
///
/// The trainer builds its [`Session`] **once** and reuses it for every
/// step and evaluation, so session build (memory planning, arena
/// seeding) amortizes over the whole run instead of being paid per step.
pub struct Trainer<'a, O: Optimizer> {
    sess: Session<'a>,
    values: HashMap<String, Tensor>,
    param_names: HashSet<String>,
    optimizer: O,
    clip_norm: Option<f32>,
    nonfinite_retries: u32,
}

impl<'a, O: Optimizer> Trainer<'a, O> {
    /// Creates a trainer. `values` must bind every input and parameter;
    /// `param_names` selects which of them the optimizer updates.
    ///
    /// # Errors
    ///
    /// Propagates session-construction errors (duplicate leaf names, or
    /// an invalid `GNNOPT_*` override).
    pub fn new(
        plan: &'a ExecutionPlan,
        graph: &'a Graph,
        values: HashMap<String, Tensor>,
        param_names: impl IntoIterator<Item = String>,
        optimizer: O,
    ) -> Result<Self> {
        Ok(Self {
            sess: Session::builder(plan, graph).build()?,
            values,
            param_names: param_names.into_iter().collect(),
            optimizer,
            clip_norm: None,
            nonfinite_retries: 0,
        })
    }

    /// Enables global-norm gradient clipping before every update.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }

    /// Enables the bounded skip-and-retry policy on non-finite
    /// gradients: when the executor's numeric guard
    /// ([`gnnopt_core::ExecPolicy::guard`] / `GNNOPT_GUARD=1`) rejects a
    /// step with `ExecError::NonFinite`, the step is discarded — no
    /// parameter was updated — and re-run, up to `retries` times per
    /// [`Trainer::step`] call before the error propagates. The retry
    /// count of the step that finally succeeded is reported in
    /// [`RunStats::nonfinite_retries`].
    ///
    /// This targets *transient* faults (an injected fault, a flaky
    /// device): the executor is deterministic, so a NaN rooted in the
    /// parameters themselves recurs every attempt and still fails after
    /// the bound.
    pub fn with_nonfinite_retry(mut self, retries: u32) -> Self {
        self.nonfinite_retries = retries;
        self
    }

    /// Current value of a parameter or input.
    pub fn value(&self, name: &str) -> Option<&Tensor> {
        self.values.get(name)
    }

    /// One supervised step on per-vertex `labels`.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn step(&mut self, labels: &[usize]) -> Result<StepReport> {
        self.step_masked(labels, &vec![true; labels.len()])
    }

    /// One supervised step restricted to the rows with `mask[i] == true`
    /// (the semi-supervised split: train on the labeled subset). The
    /// report's loss/accuracy cover the masked rows only.
    ///
    /// # Errors
    ///
    /// Propagates executor errors. With
    /// [`Trainer::with_nonfinite_retry`] enabled, `NonFinite` guard
    /// rejections are retried up to the bound before propagating.
    pub fn step_masked(&mut self, labels: &[usize], mask: &[bool]) -> Result<StepReport> {
        let mut retries = 0u64;
        loop {
            match self.try_step_masked(labels, mask) {
                Err(ExecError::NonFinite { .. }) if retries < u64::from(self.nonfinite_retries) => {
                    retries += 1;
                }
                Err(e) => return Err(e),
                Ok(mut report) => {
                    report.run.nonfinite_retries = retries;
                    return Ok(report);
                }
            }
        }
    }

    /// One attempt of a masked step: forward, loss, backward, update.
    fn try_step_masked(&mut self, labels: &[usize], mask: &[bool]) -> Result<StepReport> {
        let mut bindings = Bindings::new();
        for (k, v) in &self.values {
            bindings.insert(k, v.clone());
        }
        let outputs = self.sess.forward(&bindings)?;
        let logits = &outputs[0];
        let (loss, grad) = softmax_cross_entropy_masked(logits, labels, mask);
        let acc = accuracy_masked(logits, labels, mask);
        let mut grads = self.sess.backward(grad)?;
        let run = self.sess.stats();

        if let Some(max_norm) = self.clip_norm {
            clip_grad_norm(&mut grads, max_norm);
        }
        let mut params: HashMap<String, Tensor> = HashMap::new();
        for name in &self.param_names {
            if let Some(v) = self.values.remove(name) {
                params.insert(name.clone(), v);
            }
        }
        self.optimizer.step(&mut params, &grads);
        self.values.extend(params);

        Ok(StepReport {
            loss,
            accuracy: acc,
            run,
        })
    }

    /// Evaluates loss/accuracy on `mask` without updating parameters
    /// (the validation half of a train/val split). Runs a forward pass
    /// through the shared session, so it resets any in-flight
    /// forward/backward state but never touches the values.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn evaluate(&mut self, labels: &[usize], mask: &[bool]) -> Result<(f32, f32)> {
        let mut bindings = Bindings::new();
        for (k, v) in &self.values {
            bindings.insert(k, v.clone());
        }
        let outputs = self.sess.forward(&bindings)?;
        let (loss, _) = softmax_cross_entropy_masked(&outputs[0], labels, mask);
        Ok((loss, accuracy_masked(&outputs[0], labels, mask)))
    }

    /// Runs `epochs` steps, returning the per-epoch reports.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn fit(&mut self, labels: &[usize], epochs: usize) -> Result<Vec<StepReport>> {
        (0..epochs).map(|_| self.step(labels)).collect()
    }

    /// Runs up to `epochs` steps with a learning-rate schedule, stopping
    /// early when `stopper` (if any) fires on the training loss.
    ///
    /// # Errors
    ///
    /// Propagates executor errors.
    pub fn fit_scheduled(
        &mut self,
        labels: &[usize],
        epochs: usize,
        schedule: &dyn LrSchedule,
        mut stopper: Option<&mut EarlyStopping>,
    ) -> Result<Vec<StepReport>> {
        let mut reports = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            self.optimizer.set_lr(schedule.lr_at(epoch));
            let report = self.step(labels)?;
            let loss = report.loss;
            reports.push(report);
            if let Some(es) = stopper.as_deref_mut() {
                if es.should_stop(loss) {
                    break;
                }
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sgd;
    use gnnopt_core::{compile, CompileOptions};
    use gnnopt_graph::{generators, Graph};
    use gnnopt_models::{gcn, GcnConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Training a 2-layer GCN on a small synthetic task must reduce loss.
    #[test]
    fn gcn_loss_decreases() {
        let g = Graph::from_edge_list(&generators::erdos_renyi(24, 96, 5));
        let spec = gcn(&GcnConfig::two_layer(8, 16, 3)).unwrap();
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let mut values = spec.init_values(&g, 11);
        // Normalized edge weights 1/deg(dst).
        let ew: Vec<f32> = (0..g.num_edges())
            .map(|e| 1.0 / g.in_degree(g.dst(e)).max(1) as f32)
            .collect();
        values.insert(
            "edge_weight".into(),
            Tensor::new(&[g.num_edges(), 1], ew).unwrap(),
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let labels: Vec<usize> = (0..24).map(|_| rng.gen_range(0..3)).collect();
        let params: Vec<String> = spec.params.iter().map(|(n, _, _)| n.clone()).collect();
        let mut trainer = Trainer::new(&compiled.plan, &g, values, params, Sgd::new(1.5)).unwrap();
        let reports = trainer.fit(&labels, 150).unwrap();
        let first = reports.first().unwrap().loss;
        let last = reports.last().unwrap().loss;
        assert!(last < first * 0.8, "loss should decrease: {first} → {last}");
    }

    fn gcn_fixture() -> (
        Graph,
        gnnopt_models::ModelSpec,
        std::collections::HashMap<String, gnnopt_tensor::Tensor>,
        Vec<usize>,
    ) {
        let g = Graph::from_edge_list(&generators::erdos_renyi(24, 96, 5));
        let spec = gcn(&GcnConfig::two_layer(8, 16, 3)).unwrap();
        let mut values = spec.init_values(&g, 11);
        let ew: Vec<f32> = (0..g.num_edges())
            .map(|e| 1.0 / g.in_degree(g.dst(e)).max(1) as f32)
            .collect();
        values.insert(
            "edge_weight".into(),
            Tensor::new(&[g.num_edges(), 1], ew).unwrap(),
        );
        let mut rng = SmallRng::seed_from_u64(2);
        let labels: Vec<usize> = (0..24).map(|_| rng.gen_range(0..3)).collect();
        (g, spec, values, labels)
    }

    /// The caller-owned logits and gradients `forward()`/`backward()`
    /// hand the trainer must not come out of the session's planned pool:
    /// a warmed `Trainer::step` loop never misses it.
    #[test]
    fn warmed_steps_never_miss_the_planned_pool() {
        let (g, spec, values, labels) = gcn_fixture();
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let params: Vec<String> = spec.params.iter().map(|(n, _, _)| n.clone()).collect();
        let mut trainer = Trainer::new(&compiled.plan, &g, values, params, Sgd::new(0.5)).unwrap();
        trainer.step(&labels).unwrap(); // warmup
        for step in 0..5 {
            let report = trainer.step(&labels).unwrap();
            assert_eq!(report.run.fallback_allocs, 0, "step {step}");
        }
    }

    /// Masked training only fits the train split; evaluate() reports the
    /// held-out split without touching parameters.
    #[test]
    fn masked_training_and_evaluation() {
        let (g, spec, values, labels) = gcn_fixture();
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let params: Vec<String> = spec.params.iter().map(|(n, _, _)| n.clone()).collect();
        let mut trainer = Trainer::new(&compiled.plan, &g, values, params, Sgd::new(1.0)).unwrap();
        let train_mask: Vec<bool> = (0..24).map(|i| i % 2 == 0).collect();
        let val_mask: Vec<bool> = train_mask.iter().map(|&m| !m).collect();
        let before = trainer.evaluate(&labels, &val_mask).unwrap();
        let mut first_train = f32::NAN;
        for i in 0..120 {
            let r = trainer.step_masked(&labels, &train_mask).unwrap();
            if i == 0 {
                first_train = r.loss;
            }
        }
        let last_train = trainer.step_masked(&labels, &train_mask).unwrap().loss;
        assert!(
            last_train < first_train * 0.8,
            "train loss should decrease: {first_train} → {last_train}"
        );
        // evaluate() is side-effect free: calling it twice agrees.
        let after1 = trainer.evaluate(&labels, &val_mask).unwrap();
        let after2 = trainer.evaluate(&labels, &val_mask).unwrap();
        assert_eq!(after1, after2);
        // Random labels on a random graph: val loss moves, but must stay
        // finite and be *different* from the untrained state.
        assert!(after1.0.is_finite() && after1.0 != before.0);
    }

    /// The cosine schedule reaches its floor and early stopping truncates
    /// the epoch budget.
    #[test]
    fn scheduled_fit_stops_early() {
        let (g, spec, values, labels) = gcn_fixture();
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let params: Vec<String> = spec.params.iter().map(|(n, _, _)| n.clone()).collect();
        let mut trainer = Trainer::new(&compiled.plan, &g, values, params, Sgd::new(1.0))
            .unwrap()
            .with_clip_norm(5.0);
        let schedule = crate::CosineAnnealing {
            base: 1.0,
            min: 0.01,
            total: 200,
        };
        // Zero patience + a huge min_delta: stops after epoch 2 at the
        // latest (first epoch sets best, second cannot beat it by 1e3).
        let mut stopper = crate::EarlyStopping::new(0, 1e3);
        let reports = trainer
            .fit_scheduled(&labels, 200, &schedule, Some(&mut stopper))
            .unwrap();
        assert!(
            reports.len() <= 2,
            "stopper must truncate: {}",
            reports.len()
        );
    }
}
