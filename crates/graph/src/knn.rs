//! Point clouds and k-nearest-neighbour graphs for EdgeConv / DGCNN.
//!
//! ModelNet40 is not redistributable here, so [`PointCloud::synthetic`]
//! samples from 40 parametric shape families (spheres, boxes, tori, …) —
//! EdgeConv consumes nothing but point coordinates and the kNN topology, so
//! this exercises exactly the same code path.

use crate::{EdgeList, Graph};
use gnnopt_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A batch of 3-D point clouds with class labels.
#[derive(Debug, Clone)]
pub struct PointCloud {
    /// `[batch * points_per_cloud, 3]` coordinates.
    points: Tensor,
    points_per_cloud: usize,
    labels: Vec<usize>,
}

/// Number of synthetic shape families (mirrors ModelNet40's 40 classes).
pub const NUM_SHAPE_CLASSES: usize = 40;

impl PointCloud {
    /// Samples `batch` clouds of `points_per_cloud` points each. Every
    /// cloud draws a class in `0..NUM_SHAPE_CLASSES`; the class selects a
    /// parametric surface plus a deterministic deformation, so clouds of
    /// the same class are geometrically similar.
    pub fn synthetic(batch: usize, points_per_cloud: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(batch * points_per_cloud * 3);
        let mut labels = Vec::with_capacity(batch);
        for _ in 0..batch {
            let class = rng.gen_range(0..NUM_SHAPE_CLASSES);
            labels.push(class);
            for _ in 0..points_per_cloud {
                let p = sample_shape_point(class, &mut rng);
                data.extend_from_slice(&p);
            }
        }
        Self {
            points: Tensor::new(&[batch * points_per_cloud, 3], data)
                .expect("synthetic cloud shape is consistent"),
            points_per_cloud,
            labels,
        }
    }

    /// The `[batch * points, 3]` coordinate matrix.
    pub fn points(&self) -> &Tensor {
        &self.points
    }

    /// Points per individual cloud.
    pub fn points_per_cloud(&self) -> usize {
        self.points_per_cloud
    }

    /// Number of clouds in the batch.
    pub fn batch(&self) -> usize {
        self.labels.len()
    }

    /// Per-cloud class labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Builds the batched kNN graph: within each cloud independently, adds
    /// edge `u → v` whenever `u` is one of the `k` nearest neighbours of
    /// `v` (matching DGCNN's convention: messages flow from neighbours into
    /// the centre vertex). The result is block-diagonal over the batch.
    pub fn knn_graph(&self, k: usize) -> Graph {
        let n = self.points_per_cloud;
        let b = self.batch();
        assert!(k < n, "k = {k} must be below points-per-cloud {n}");
        let mut pairs = Vec::with_capacity(b * n * k);
        let coords = self.points.as_slice();
        for cloud in 0..b {
            let base = cloud * n;
            for v in 0..n {
                let pv = &coords[(base + v) * 3..(base + v) * 3 + 3];
                // (distance, index) selection of the k nearest.
                let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
                for u in 0..n {
                    if u == v {
                        continue;
                    }
                    let pu = &coords[(base + u) * 3..(base + u) * 3 + 3];
                    let d = sq_dist(pv, pu);
                    if best.len() < k {
                        best.push((d, u));
                        if best.len() == k {
                            best.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
                        }
                    } else if d < best[k - 1].0 {
                        best[k - 1] = (d, u);
                        let mut i = k - 1;
                        while i > 0 && best[i].0 < best[i - 1].0 {
                            best.swap(i, i - 1);
                            i -= 1;
                        }
                    }
                }
                for &(_, u) in &best {
                    pairs.push(((base + u) as u32, (base + v) as u32));
                }
            }
        }
        Graph::from_edge_list(&EdgeList::from_pairs(b * n, &pairs))
    }
}

fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    let dz = a[2] - b[2];
    dx * dx + dy * dy + dz * dz
}

/// Samples one point from the parametric surface of shape `class`.
fn sample_shape_point(class: usize, rng: &mut SmallRng) -> [f32; 3] {
    use std::f32::consts::PI;
    let family = class % 5;
    // Per-class deterministic deformation so the 40 classes differ within a
    // family.
    let stretch = 1.0 + 0.15 * (class / 5) as f32;
    let u: f32 = rng.gen_range(0.0..2.0 * PI);
    let t: f32 = rng.gen_range(-1.0f32..1.0);
    let noise = rng.gen_range(-0.02f32..0.02);
    let p = match family {
        // Sphere
        0 => {
            let r = (1.0 - t * t).sqrt();
            [r * u.cos(), r * u.sin(), t]
        }
        // Box surface
        1 => {
            let face = rng.gen_range(0..6);
            let a = rng.gen_range(-1.0f32..1.0);
            let b = rng.gen_range(-1.0f32..1.0);
            match face {
                0 => [1.0, a, b],
                1 => [-1.0, a, b],
                2 => [a, 1.0, b],
                3 => [a, -1.0, b],
                4 => [a, b, 1.0],
                _ => [a, b, -1.0],
            }
        }
        // Torus
        2 => {
            let v = rng.gen_range(0.0..2.0 * PI);
            let (major, minor) = (0.8, 0.35);
            [
                (major + minor * v.cos()) * u.cos(),
                (major + minor * v.cos()) * u.sin(),
                minor * v.sin(),
            ]
        }
        // Cylinder
        3 => [u.cos() * 0.7, u.sin() * 0.7, t],
        // Cone
        _ => {
            let h = (t + 1.0) / 2.0;
            [(1.0 - h) * u.cos(), (1.0 - h) * u.sin(), h * 1.5 - 0.75]
        }
    };
    [p[0] * stretch + noise, p[1] + noise, p[2] / stretch + noise]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_in_degree_is_exactly_k() {
        let pc = PointCloud::synthetic(2, 32, 1);
        let g = pc.knn_graph(4);
        assert_eq!(g.num_vertices(), 64);
        assert_eq!(g.num_edges(), 64 * 4);
        for v in 0..g.num_vertices() {
            assert_eq!(g.in_degree(v), 4);
        }
    }

    #[test]
    fn knn_stays_within_cloud() {
        let pc = PointCloud::synthetic(3, 16, 2);
        let g = pc.knn_graph(3);
        for e in 0..g.num_edges() {
            assert_eq!(g.src(e) / 16, g.dst(e) / 16, "edge crosses cloud boundary");
        }
    }

    #[test]
    fn knn_picks_nearest() {
        // 4 collinear points: neighbours of x=0 with k=1 must be x=1.
        let points = Tensor::new(
            &[4, 3],
            vec![
                0.0, 0.0, 0.0, //
                1.0, 0.0, 0.0, //
                3.0, 0.0, 0.0, //
                7.0, 0.0, 0.0,
            ],
        )
        .unwrap();
        let pc = PointCloud {
            points,
            points_per_cloud: 4,
            labels: vec![0],
        };
        let g = pc.knn_graph(1);
        // in-neighbour of vertex 0 is vertex 1
        assert_eq!(g.in_adj().neighbors(0), &[1]);
        // in-neighbour of vertex 3 is vertex 2
        assert_eq!(g.in_adj().neighbors(3), &[2]);
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = PointCloud::synthetic(2, 8, 5);
        let b = PointCloud::synthetic(2, 8, 5);
        assert_eq!(a.points().as_slice(), b.points().as_slice());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn labels_in_class_range() {
        let pc = PointCloud::synthetic(16, 4, 9);
        assert!(pc.labels().iter().all(|&c| c < NUM_SHAPE_CLASSES));
    }
}
