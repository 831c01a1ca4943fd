//! GraphSAGE against a dense, loop-level manual reference: both
//! aggregators (mean and max-pool) are pure IR compositions, so their
//! forward values and parameter gradients must match a hand-written
//! implementation of the Hamilton et al. equations — no reliance on any
//! compiler pass, executor path, or autodiff rule being "obviously"
//! right. Runs every preset — on a session and on the node-by-node
//! oracle — against the one manual answer.

use gnnopt::core::{compile, CompileOptions, ExecPolicy, Preset};
use gnnopt::exec::{refexec, Bindings, EnvOverrides, Session};
use gnnopt::graph::{generators, EdgeList, Graph};
use gnnopt::models::{sage, SageConfig};
use gnnopt::tensor::Tensor;
use std::collections::HashMap;

/// Small graph with a hub (vertex 0 receives from everyone) and two
/// isolated vertices, so empty reduction groups and degree skew are both
/// exercised.
fn test_graph() -> Graph {
    let mut pairs: Vec<(u32, u32)> = generators::erdos_renyi(8, 20, 11).edges().to_vec();
    for u in 1..8u32 {
        pairs.push((u, 0));
    }
    pairs.sort_unstable();
    pairs.dedup();
    Graph::from_edge_list(&EdgeList::from_pairs(10, &pairs))
}

/// `[n, k] · [k, m]` on plain slices.
fn matmul(x: &[f32], w: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += x[i * k + p] * w[p * m + j];
            }
            out[i * m + j] = acc;
        }
    }
    out
}

/// `x^T · y` where `x: [n, k]`, `y: [n, m]` → `[k, m]`.
fn matmul_tn(x: &[f32], y: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; k * m];
    for i in 0..n {
        for p in 0..k {
            for j in 0..m {
                out[p * m + j] += x[i * k + p] * y[i * m + j];
            }
        }
    }
    out
}

/// One manual GraphSAGE layer (forward + backward under `dL/dout = 1`),
/// returning `(out, dw_self, dw_neigh, dw_pool)`.
#[allow(clippy::too_many_lines)]
fn manual_layer(
    g: &Graph,
    h: &[f32],
    ws: &[f32],
    wn: &[f32],
    wp: Option<&[f32]>,
    d_in: usize,
    d_out: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Option<Vec<f32>>) {
    let n = g.num_vertices();
    let m = g.num_edges();

    // Aggregation: mean of raw features, or elementwise max of the
    // relu-activated pooling projection. Ties break to the lowest edge
    // id, matching the executor's strictly-greater max scan.
    let (agg, pool_act, argmax) = if let Some(wp) = wp {
        let proj = matmul(h, wp, n, d_in, d_in);
        let act: Vec<f32> = proj.iter().map(|v| v.max(0.0)).collect();
        let mut agg = vec![0.0f32; n * d_in];
        let mut arg = vec![usize::MAX; n * d_in];
        for e in 0..m {
            let (u, v) = (g.src(e), g.dst(e));
            for c in 0..d_in {
                let val = act[u * d_in + c];
                if arg[v * d_in + c] == usize::MAX || val > agg[v * d_in + c] {
                    agg[v * d_in + c] = val;
                    arg[v * d_in + c] = e;
                }
            }
        }
        for i in 0..n * d_in {
            if arg[i] == usize::MAX {
                agg[i] = 0.0;
            }
        }
        (agg, Some(act), Some(arg))
    } else {
        let mut agg = vec![0.0f32; n * d_in];
        let mut deg = vec![0usize; n];
        for e in 0..m {
            let (u, v) = (g.src(e), g.dst(e));
            deg[v] += 1;
            for c in 0..d_in {
                agg[v * d_in + c] += h[u * d_in + c];
            }
        }
        for v in 0..n {
            if deg[v] > 0 {
                for c in 0..d_in {
                    agg[v * d_in + c] /= deg[v] as f32;
                }
            }
        }
        (agg, None, None)
    };

    let self_proj = matmul(h, ws, n, d_in, d_out);
    let neigh_proj = matmul(&agg, wn, n, d_in, d_out);
    let pre: Vec<f32> = self_proj
        .iter()
        .zip(&neigh_proj)
        .map(|(a, b)| a + b)
        .collect();
    let out: Vec<f32> = pre.iter().map(|v| v.max(0.0)).collect();

    // Backward, seeded with ones.
    let g_pre: Vec<f32> = pre
        .iter()
        .map(|&v| if v > 0.0 { 1.0f32 } else { 0.0 })
        .collect();
    let dw_self = matmul_tn(h, &g_pre, n, d_in, d_out);
    let dw_neigh = matmul_tn(&agg, &g_pre, n, d_in, d_out);
    // d agg = g_pre · wn^T.
    let mut d_agg = vec![0.0f32; n * d_in];
    for i in 0..n {
        for p in 0..d_in {
            let mut acc = 0.0f32;
            for j in 0..d_out {
                acc += g_pre[i * d_out + j] * wn[p * d_out + j];
            }
            d_agg[i * d_in + p] = acc;
        }
    }
    let dw_pool = pool_act.map(|act| {
        let arg = argmax.unwrap();
        // Route d_agg to each column's argmax source row, then through
        // the pooling relu and projection.
        let mut d_act = vec![0.0f32; n * d_in];
        for v in 0..n {
            for c in 0..d_in {
                let e = arg[v * d_in + c];
                if e != usize::MAX {
                    d_act[g.src(e) * d_in + c] += d_agg[v * d_in + c];
                }
            }
        }
        let d_proj: Vec<f32> = d_act
            .iter()
            .zip(&act)
            .map(|(&dv, &a)| if a > 0.0 { dv } else { 0.0 })
            .collect();
        matmul_tn(h, &d_proj, n, d_in, d_in)
    });
    (out, dw_self, dw_neigh, dw_pool)
}

fn assert_close(name: &str, tag: &str, got: &Tensor, want: &[f32]) {
    let gs = got.as_slice();
    assert_eq!(gs.len(), want.len(), "{tag}: '{name}' length");
    for (i, (a, b)) in gs.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-4 + 1e-4 * b.abs(),
            "{tag}: '{name}'[{i}] = {a} vs manual {b}"
        );
    }
}

fn check(cfg: &SageConfig) {
    let g = test_graph();
    let spec = sage(cfg).unwrap();
    let vals: HashMap<String, Tensor> = spec.init_values(&g, 5).into_iter().collect();
    let d_in = cfg.in_dim;
    let d_out = cfg.layer_dims[0];

    let (out, dw_self, dw_neigh, dw_pool) = manual_layer(
        &g,
        vals["h"].as_slice(),
        vals["w0_self"].as_slice(),
        vals["w0_neigh"].as_slice(),
        vals.get("w0_pool").map(Tensor::as_slice),
        d_in,
        d_out,
    );

    for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
        let compiled = compile(&spec.ir, true, &CompileOptions::preset(preset)).unwrap();
        let mut b = Bindings::new();
        for (k, v) in &vals {
            b.insert(k, v.clone());
        }
        let mut sess = Session::builder(&compiled.plan, &g)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let outs = sess.forward(&b).unwrap();
        let seed = Tensor::ones(outs[0].shape());
        let grads = sess.backward(seed.clone()).unwrap();
        // The oracle is held to the same manual reference as the session.
        let oracle = refexec::evaluate(&compiled.plan, &g, &b, Some(&seed)).unwrap();
        for (who, outs, grads) in [
            ("session", &outs, &grads),
            ("oracle", &oracle.outputs, &oracle.grads),
        ] {
            let tag = format!("{preset:?}/{who}");
            assert_close("output", &tag, &outs[0], &out);
            assert_close("w0_self", &tag, &grads["w0_self"], &dw_self);
            assert_close("w0_neigh", &tag, &grads["w0_neigh"], &dw_neigh);
            if let Some(ref dwp) = dw_pool {
                assert_close("w0_pool", &tag, &grads["w0_pool"], dwp);
            }
        }
    }
}

#[test]
fn sage_mean_matches_dense_manual_reference() {
    check(&SageConfig::mean(5, vec![4]));
}

#[test]
fn sage_max_pool_matches_dense_manual_reference() {
    check(&SageConfig::max_pool(5, vec![4]));
}
