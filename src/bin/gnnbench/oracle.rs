//! Reference results the executor is checked against, written from the
//! model equations as plain loops over the edge list — never from the
//! executor, its kernels or its IR — plus the checksum that pins the
//! determinism contract between steps.

use gnnopt::graph::Graph;
use gnnopt::tensor::Tensor;

/// Tolerance of every numeric oracle, as in `tests/equivalence.rs`.
pub const TOL: f32 = 1e-3;

/// `x[n,k] · w[k,m]`, the textbook triple loop (row of `w` innermost so
/// it runs at memory speed; no blocking, no skipping).
fn matmul(x: &Tensor, w: &Tensor) -> Tensor {
    let (n, k, m) = (x.rows(), x.cols(), w.cols());
    assert_eq!(k, w.rows(), "oracle matmul shapes");
    let mut out = Tensor::zeros(&[n, m]);
    for i in 0..n {
        let xi = x.row(i);
        let oi = out.row_mut(i);
        for (p, &a) in xi.iter().enumerate() {
            for (o, &b) in oi.iter_mut().zip(w.row(p)) {
                *o += a * b;
            }
        }
    }
    out
}

/// GCN: per layer `h'_v = relu( Σ_{u→v} w_uv · (h_u W) )`.
pub fn gcn_forward(g: &Graph, h: &Tensor, edge_weight: &Tensor, weights: &[&Tensor]) -> Tensor {
    let mut h = h.clone();
    for w in weights {
        let proj = matmul(&h, w);
        let mut agg = Tensor::zeros(&[g.num_vertices(), w.cols()]);
        for e in 0..g.num_edges() {
            let c = edge_weight.at(e, 0);
            let src = proj.row(g.src(e));
            for (o, &x) in agg.row_mut(g.dst(e)).iter_mut().zip(src) {
                *o += c * x;
            }
        }
        for x in agg.as_mut_slice() {
            *x = x.max(0.0);
        }
        h = agg;
    }
    h
}

/// One attention layer of [`gat_forward`]: `(W[in, heads·feat],
/// a[heads, 2·feat], heads)`.
pub type GatLayer<'t> = (&'t Tensor, &'t Tensor, usize);

/// GAT as published: per layer and head `k`, with `z = h W`,
/// `s_uv = leaky_relu(a_k · [z_u^k ∥ z_v^k])`,
/// `α_uv = softmax over the in-edges of v of s_uv`,
/// `h'_v^k = Σ_{u→v} α_uv z_u^k`; heads are concatenated. A vertex
/// without in-edges keeps a zero row.
pub fn gat_forward(g: &Graph, h: &Tensor, layers: &[GatLayer<'_>], slope: f32) -> Tensor {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let mut h = h.clone();
    for &(w, a, heads) in layers {
        let z = matmul(&h, w);
        let feat = w.cols() / heads;
        let mut score = vec![0.0f32; m * heads];
        let mut top = vec![f32::NEG_INFINITY; n * heads];
        for e in 0..m {
            let (zu, zv) = (z.row(g.src(e)), z.row(g.dst(e)));
            for k in 0..heads {
                let ak = a.row(k);
                let mut s = 0.0;
                for j in 0..feat {
                    s += ak[j] * zu[k * feat + j] + ak[feat + j] * zv[k * feat + j];
                }
                let s = if s > 0.0 { s } else { slope * s };
                score[e * heads + k] = s;
                let t = &mut top[g.dst(e) * heads + k];
                *t = t.max(s);
            }
        }
        let mut denom = vec![0.0f32; n * heads];
        for e in 0..m {
            for k in 0..heads {
                let v = g.dst(e) * heads + k;
                let x = (score[e * heads + k] - top[v]).exp();
                score[e * heads + k] = x;
                denom[v] += x;
            }
        }
        let mut out = Tensor::zeros(&[n, heads * feat]);
        for e in 0..m {
            let v = g.dst(e);
            let zu = z.row(g.src(e));
            let ov = out.row_mut(v);
            for k in 0..heads {
                let alpha = score[e * heads + k] / denom[v * heads + k];
                for j in k * feat..(k + 1) * feat {
                    ov[j] += alpha * zu[j];
                }
            }
        }
        h = out;
    }
    h
}

/// Mean over rows of `−ln softmax(logits_i)[label_i]`.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> f32 {
    let mut total = 0.0f64;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        let top = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let denom: f64 = row.iter().map(|&x| f64::from(x - top).exp()).sum();
        total -= f64::from(row[label] - top) - denom.ln();
    }
    (total / labels.len().max(1) as f64) as f32
}

/// `|a − b| ≤ TOL + TOL·|b|`.
pub fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= TOL + TOL * b.abs()
}

/// FNV-1a over the bit patterns of the tensors, one 32-bit word per
/// step: any changed bit of any output or gradient changes the sum.
pub fn checksum<'t>(tensors: impl IntoIterator<Item = &'t Tensor>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tensors {
        for x in t.as_slice() {
            h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt::graph::EdgeList;

    /// Five vertices: 4 is a hub fed by 0, 1 and 2, it feeds 0 back, and
    /// 3 is isolated.
    fn hub_graph() -> Graph {
        let g = Graph::from_edge_list(&EdgeList::from_pairs(5, &[(0, 4), (1, 4), (2, 4), (4, 0)]));
        // Canonical edge order is destination-major: (4→0) first.
        assert_eq!((g.src(0), g.dst(0)), (4, 0));
        assert_eq!((g.src(3), g.dst(3)), (2, 4));
        g
    }

    #[test]
    fn gcn_reference_matches_hand_computation() {
        let g = hub_graph();
        let h = Tensor::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[5.0, 5.0],
            &[2.0, -1.0],
        ])
        .unwrap();
        // z = h W with W = [[1, -1], [2, 0]]:
        //   z0 = (1,-1)  z1 = (2,0)  z2 = (3,-1)  z3 = (15,-5)  z4 = (0,-2)
        let w = Tensor::from_rows(&[&[1.0, -1.0], &[2.0, 0.0]]).unwrap();
        // Edge weights in canonical order (4→0), (0→4), (1→4), (2→4).
        let ew = Tensor::new(&[4, 1], vec![0.5, 1.0, 2.0, -1.0]).unwrap();
        let out = gcn_forward(&g, &h, &ew, &[&w]);
        // v0 = relu(0.5·z4) = relu(0,-1) = (0,0)
        // v4 = relu(1·z0 + 2·z1 − 1·z2) = relu(1+4−3, −1+0+1) = (2,0)
        // v1, v2, v3 have no in-edges.
        let want = Tensor::from_rows(&[
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[2.0, 0.0],
        ])
        .unwrap();
        assert_eq!(out.as_slice(), want.as_slice());

        // A second layer with W2 = [[3], [1]] sees only v4's row:
        // z' = (0,0,0,0,6); v0 = relu(0.5·6) = 3, v4 = relu(0) = 0.
        let w2 = Tensor::from_rows(&[&[3.0], &[1.0]]).unwrap();
        let out2 = gcn_forward(&g, &h, &ew, &[&w, &w2]);
        assert_eq!(out2.as_slice(), [3.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn gat_reference_matches_hand_computation() {
        let g = hub_graph();
        // One head, one feature, W = [1] so z = h; a = [1, 0] so the
        // score of u→v is leaky_relu(h_u).
        let (ln2, ln3) = (2.0f32.ln(), 3.0f32.ln());
        let h = Tensor::new(&[5, 1], vec![0.0, ln2, ln3, 9.0, -5.0]).unwrap();
        let w = Tensor::new(&[1, 1], vec![1.0]).unwrap();
        let a = Tensor::new(&[1, 2], vec![1.0, 0.0]).unwrap();
        let out = gat_forward(&g, &h, &[(&w, &a, 1)], 0.2);
        // Hub 4: scores 0, ln2, ln3 → exp 1, 2, 3 → α = 1/6, 2/6, 3/6;
        // h'_4 = (0·1 + ln2·2 + ln3·3) / 6.
        let hub = (2.0 * ln2 + 3.0 * ln3) / 6.0;
        // Vertex 0 has the single in-edge 4→0: score leaky(−5) = −1, but a
        // softmax over one edge is 1, so h'_0 = h_4 = −5.
        let want = [-5.0, 0.0, 0.0, 0.0, hub];
        for (got, want) in out.as_slice().iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }

        // Two heads of one feature, W = [1, 2] (z = (h, 2h)), and head 1
        // attends to the destination only (a_1 = [0, 1]): every in-edge
        // of a vertex then scores alike, α is uniform, and head 1 is the
        // mean of 2·h_u. Head 0 is as above.
        let w = Tensor::new(&[1, 2], vec![1.0, 2.0]).unwrap();
        let a = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let out = gat_forward(&g, &h, &[(&w, &a, 2)], 0.2);
        let mean = 2.0 * (0.0 + ln2 + ln3) / 3.0;
        let want = [-5.0, -10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, hub, mean];
        for (got, want) in out.as_slice().iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn cross_entropy_matches_hand_computation() {
        let logits = Tensor::from_rows(&[&[0.0, 0.0, 0.0], &[2.0f32.ln(), 0.0, 0.0]]).unwrap();
        // Row 0: −ln(1/3). Row 1, label 0: −ln(2/4).
        let want = (3.0f32.ln() + 2.0f32.ln()) / 2.0;
        assert!((cross_entropy(&logits, &[1, 0]) - want).abs() < 1e-6);
        assert!(close(1.0005, 1.0) && !close(1.01, 1.0));
    }

    #[test]
    fn checksum_sees_every_bit_and_the_order() {
        let a = Tensor::new(&[1, 2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::new(&[1, 2], vec![2.0, 1.0]).unwrap();
        let neg_zero = Tensor::new(&[1, 2], vec![1.0, -0.0]).unwrap();
        let zero = Tensor::new(&[1, 2], vec![1.0, 0.0]).unwrap();
        assert_eq!(checksum([&a, &b]), checksum([&a, &b]));
        assert_ne!(checksum([&a, &b]), checksum([&b, &a]));
        assert_ne!(checksum([&zero]), checksum([&neg_zero]));
    }
}
