//! Every output and gradient bit of the model zoo, pinned: one training
//! step of each zoo model × preset × thread count on RMAT-10, hashed
//! (FNV-1a over the bit patterns, one line per cell) and held to
//! `tests/golden/zoo_bits.txt`. A change that claims to move no bit —
//! a new layout of the same arithmetic, a deleted op whose work moved
//! elsewhere — leaves this file byte-identical. The thread count is
//! pinned through `ExecPolicy`, so every environment checks the same
//! cells.
//!
//! Regenerate (after reading why a bit moved) by copying the text this
//! test prints on a mismatch into the golden file.

mod common;

use common::zoo;
use gnnopt::core::{compile, CompileOptions, ExecPolicy, Preset};
use gnnopt::exec::{Bindings, EnvOverrides, Session};
use gnnopt::graph::{generators, Graph};
use gnnopt::tensor::Tensor;

/// FNV-1a over the bit patterns of the tensors, one 32-bit word per
/// step (the fold of gnnbench's `oracle::checksum`).
fn checksum<'t>(tensors: impl IntoIterator<Item = &'t Tensor>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tensors {
        for x in t.as_slice() {
            h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn cells() -> String {
    let g = Graph::from_edge_list(&generators::rmat(10, 8, 0.57, 0.19, 0.19, 7));
    let mut text = String::new();
    for (name, spec) in zoo() {
        let mut b = Bindings::new();
        for (k, v) in spec.init_values(&g, 3) {
            b.insert(&k, v);
        }
        for preset in [Preset::Dgl, Preset::FuseGnn, Preset::Ours] {
            let plan = compile(&spec.ir, true, &CompileOptions::preset(preset))
                .unwrap()
                .plan;
            for threads in [1, 4] {
                let policy = ExecPolicy {
                    parallel_threshold: 0,
                    ..ExecPolicy::with_threads(threads)
                };
                let mut sess = Session::builder(&plan, &g)
                    .policy(policy)
                    .env(EnvOverrides::Off)
                    .build()
                    .unwrap();
                let out = sess.forward(&b).unwrap().swap_remove(0);
                let seed = Tensor::from_fn(out.shape(), |i| ((i % 23) as f32 - 11.0) * 0.13);
                let grads = sess.backward(seed).unwrap();
                let mut tensors = vec![&out];
                tensors.extend(spec.params.iter().map(|(p, _, _)| &grads[p]));
                let line = format!(
                    "{name:<10} {:<8} threads {threads}  {:016x}\n",
                    format!("{preset:?}"),
                    checksum(tensors)
                );
                text.push_str(&line);
            }
        }
    }
    text
}

#[test]
fn zoo_outputs_and_gradients_match_their_pinned_bits() {
    let text = cells();
    let golden = include_str!("golden/zoo_bits.txt");
    assert!(
        text == golden,
        "zoo bits moved; got:\n{text}\nwant:\n{golden}"
    );
}
