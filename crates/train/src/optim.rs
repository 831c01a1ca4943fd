//! First-order optimizers and gradient utilities.

use gnnopt_tensor::Tensor;
use std::collections::HashMap;

/// A parameter-update rule.
pub trait Optimizer {
    /// Applies one update step: `params[k] ← update(params[k], grads[k])`
    /// for every key present in `grads`.
    fn step(&mut self, params: &mut HashMap<String, Tensor>, grads: &HashMap<String, Tensor>);
}

/// Rescales all gradients in place so their global L2 norm is at most
/// `max_norm`; returns the pre-clip norm. Standard protection against the
/// exploding gradients of deep propagation chains (e.g. APPNP with many
/// hops).
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(grads: &mut HashMap<String, Tensor>, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let sq: f32 = grads
        .values()
        .map(|g| g.as_slice().iter().map(|x| x * x).sum::<f32>())
        .sum();
    let norm = sq.sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for g in grads.values_mut() {
            for x in g.as_mut_slice() {
                *x *= scale;
            }
        }
    }
    norm
}

/// Stochastic gradient descent with optional momentum and L2 weight
/// decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient added to every gradient.
    pub weight_decay: f32,
    velocity: HashMap<String, Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: HashMap::new(),
        }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self {
            momentum,
            ..Self::new(lr)
        }
    }

    /// SGD with L2 weight decay.
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        Self {
            weight_decay,
            ..Self::new(lr)
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut HashMap<String, Tensor>, grads: &HashMap<String, Tensor>) {
        for (k, g) in grads {
            let Some(p) = params.get_mut(k) else { continue };
            if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(k.clone())
                    .or_insert_with(|| Tensor::zeros(g.shape()));
                for ((vi, &gi), &pi) in v
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(p.as_slice().iter())
                {
                    *vi = self.momentum * *vi + gi + self.weight_decay * pi;
                }
                for (pi, &vi) in p.as_mut_slice().iter_mut().zip(
                    self.velocity
                        .get(k)
                        .expect("velocity inserted above")
                        .as_slice(),
                ) {
                    *pi -= self.lr * vi;
                }
            } else {
                for (pi, &gi) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                    *pi -= self.lr * (gi + self.weight_decay * *pi);
                }
            }
        }
    }
}

/// Adam (Kingma & Ba, 2015), with optional *decoupled* weight decay
/// (AdamW, Loshchilov & Hutter, 2019).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight-decay coefficient (0 = plain Adam).
    pub weight_decay: f32,
    t: i32,
    m: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
}

impl Adam {
    /// Adam with the standard β₁=0.9, β₂=0.999.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// AdamW: Adam with decoupled weight decay.
    pub fn adamw(lr: f32, weight_decay: f32) -> Self {
        Self {
            weight_decay,
            ..Self::new(lr)
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut HashMap<String, Tensor>, grads: &HashMap<String, Tensor>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (k, g) in grads {
            let Some(p) = params.get_mut(k) else { continue };
            let m = self
                .m
                .entry(k.clone())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self
                .v
                .entry(k.clone())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            for ((pi, mi), (vi, &gi)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_mut_slice())
                .zip(v.as_mut_slice().iter_mut().zip(g.as_slice()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                // Decoupled decay: shrink the weight directly, not via the
                // moment estimates.
                *pi -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * *pi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_setup() -> (HashMap<String, Tensor>, HashMap<String, Tensor>) {
        let mut params = HashMap::new();
        params.insert("w".to_owned(), Tensor::from_vec(vec![10.0]));
        let grads = HashMap::new();
        (params, grads)
    }

    /// Minimize f(w) = w² with analytic gradient 2w.
    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let (mut params, _) = quad_setup();
        for _ in 0..steps {
            let w = params["w"].as_slice()[0];
            let mut grads = HashMap::new();
            grads.insert("w".to_owned(), Tensor::from_vec(vec![2.0 * w]));
            opt.step(&mut params, &grads);
        }
        params["w"].as_slice()[0].abs()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(optimize(&mut Sgd::new(0.1), 100) < 1e-3);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        assert!(optimize(&mut Sgd::with_momentum(0.05, 0.9), 200) < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(optimize(&mut Adam::new(0.3), 300) < 1e-2);
    }

    #[test]
    fn missing_param_is_skipped() {
        let mut params = HashMap::new();
        params.insert("w".to_owned(), Tensor::from_vec(vec![1.0]));
        let mut grads = HashMap::new();
        grads.insert("ghost".to_owned(), Tensor::from_vec(vec![1.0]));
        Sgd::new(0.1).step(&mut params, &grads);
        assert_eq!(params["w"].as_slice(), &[1.0]);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut params = HashMap::new();
        params.insert("w".to_owned(), Tensor::from_vec(vec![1.0]));
        let mut grads = HashMap::new();
        grads.insert("w".to_owned(), Tensor::from_vec(vec![0.0]));
        let mut sgd = Sgd::with_weight_decay(0.1, 0.5);
        sgd.step(&mut params, &grads);
        // w ← w − lr·wd·w = 1 − 0.05.
        assert!((params["w"].as_slice()[0] - 0.95).abs() < 1e-6);

        let mut params = HashMap::new();
        params.insert("w".to_owned(), Tensor::from_vec(vec![1.0]));
        let mut adamw = Adam::adamw(0.1, 0.5);
        adamw.step(&mut params, &grads);
        assert!((params["w"].as_slice()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_rescales_only_above_threshold() {
        let mut grads = HashMap::new();
        grads.insert("a".to_owned(), Tensor::from_vec(vec![3.0]));
        grads.insert("b".to_owned(), Tensor::from_vec(vec![4.0]));
        // Global norm 5, clipped to 1: components scale by 1/5.
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        assert!((grads["a"].as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((grads["b"].as_slice()[0] - 0.8).abs() < 1e-6);
        // Below the threshold nothing changes.
        let norm2 = clip_grad_norm(&mut grads, 10.0);
        assert!((norm2 - 1.0).abs() < 1e-6);
        assert!((grads["a"].as_slice()[0] - 0.6).abs() < 1e-6);
    }
}
