//! Random initializers used by the model zoo.

use crate::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot-uniform initializer with a deterministic seed.
///
/// ```
/// use gnnopt_tensor::XavierInit;
/// let mut init = XavierInit::new(42);
/// let w = init.matrix(16, 8);
/// assert_eq!(w.shape(), &[16, 8]);
/// ```
#[derive(Debug)]
pub struct XavierInit {
    rng: SmallRng,
}

impl XavierInit {
    /// Creates an initializer seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Samples a `[rows, cols]` weight matrix from
    /// `U(−√(6/(rows+cols)), +√(6/(rows+cols)))`.
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Tensor {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let rng = &mut self.rng;
        Tensor::from_fn(&[rows, cols], |_| rng.gen_range(-bound..bound))
    }

    /// Samples a tensor of arbitrary shape from `U(lo, hi)`.
    pub fn uniform(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let rng = &mut self.rng;
        Tensor::from_fn(shape, |_| rng.gen_range(lo..hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = XavierInit::new(7).matrix(4, 4);
        let b = XavierInit::new(7).matrix(4, 4);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = XavierInit::new(8).matrix(4, 4);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn values_within_bound() {
        let w = XavierInit::new(1).matrix(10, 30);
        let bound = (6.0f32 / 40.0).sqrt();
        assert!(w.as_slice().iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn uniform_respects_range() {
        let t = XavierInit::new(2).uniform(&[100], -0.5, 0.25);
        assert!(t.as_slice().iter().all(|&x| (-0.5..0.25).contains(&x)));
    }
}
