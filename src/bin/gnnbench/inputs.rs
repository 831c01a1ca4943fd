//! Everything a workload is fed, generated from `--seed` before any
//! clock starts. The library sees only the result.

use crate::workloads::{Size, Workload};
use gnnopt::graph::{EdgeList, Graph};
use gnnopt::tensor::Tensor;
use std::collections::HashMap;

/// Knuth's 64-bit linear congruential generator; the high half of the
/// state is the output.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        let mut lcg = Self(seed);
        // Small seeds differ only in their low bits; two steps spread them.
        lcg.next_u32();
        lcg.next_u32();
        lcg
    }

    pub fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 32) as u32
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1u32 << 23) as f32 - 1.0
    }
}

/// One class label per vertex.
pub fn labels(seed: u64, vertices: usize, classes: usize) -> Vec<usize> {
    let mut lcg = Lcg::new(seed);
    (0..vertices)
        .map(|_| lcg.next_u32() as usize % classes)
        .collect()
}

pub struct Inputs {
    pub edges: EdgeList,
    /// Every leaf of the model: features, edge weights, parameters.
    pub values: HashMap<String, Tensor>,
    /// Parameter names in model order.
    pub params: Vec<String>,
    /// `∂L/∂output`, the backward seed of the session workloads.
    pub out_grad: Tensor,
    /// Per-vertex classes, the trainer workload's targets.
    pub labels: Vec<usize>,
}

pub fn generate(w: Workload, size: Size, seed: u64) -> Inputs {
    let edges = w.edges(size, seed);
    let spec = w.model();
    // `init_values` only reads the vertex and edge counts; this graph is
    // the generator's own and is dropped with it.
    let graph = Graph::from_edge_list(&edges);
    let values = spec.init_values(&graph, seed);
    let (n, classes) = (graph.num_vertices(), spec.output_dim());
    let mut lcg = Lcg::new(seed ^ 0x5eed);
    Inputs {
        edges,
        values,
        params: spec.params.iter().map(|(name, ..)| name.clone()).collect(),
        out_grad: Tensor::from_fn(&[n, classes], |_| lcg.next_f32()),
        labels: labels(seed, n, classes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_repeat_per_seed_and_differ_across_seeds() {
        let a = labels(7, 1000, 7);
        assert_eq!(a, labels(7, 1000, 7));
        assert_ne!(a, labels(8, 1000, 7));
        // In range, and every class is drawn.
        let mut seen = [false; 7];
        for &l in &a {
            seen[l] = true;
        }
        assert_eq!(seen, [true; 7]);
    }

    #[test]
    fn lcg_floats_fill_the_unit_interval() {
        let mut lcg = Lcg::new(1);
        let xs: Vec<f32> = (0..4096).map(|_| lcg.next_f32()).collect();
        assert!(xs.iter().all(|x| (-1.0..1.0).contains(x)));
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(xs.iter().any(|&x| x < -0.9) && xs.iter().any(|&x| x > 0.9));
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = generate(Workload::CoraTrainer, Size::Quick, 7);
        let b = generate(Workload::CoraTrainer, Size::Quick, 7);
        let c = generate(Workload::CoraTrainer, Size::Quick, 8);
        assert_eq!(a.edges.edges(), b.edges.edges());
        assert_eq!(a.values["w0"].as_slice(), b.values["w0"].as_slice());
        assert_eq!(a.out_grad.as_slice(), b.out_grad.as_slice());
        assert_ne!(a.edges.edges(), c.edges.edges());
        assert_ne!(a.values["w0"].as_slice(), c.values["w0"].as_slice());
        assert_eq!(a.params, ["w0", "w1"]);
    }
}
