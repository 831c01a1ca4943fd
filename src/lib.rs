//! # gnnopt — coordinated computation / IO / memory optimization for GNNs
//!
//! A full reproduction of *"Understanding GNN Computational Graph: A
//! Coordinated Computation, IO, and Memory Perspective"* (MLSys 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense `f32` tensors,
//! * [`graph`] — CSR/CSC graphs, generators, datasets,
//! * [`core`] — the operator IR, autodiff and the three optimization passes
//!   (propagation-postponed reorganization, unified-thread-mapping fusion,
//!   intermediate-data recomputation),
//! * [`sim`] — the analytical GPU execution model,
//! * [`exec`] — the CPU reference executor,
//! * [`models`] — GCN / GAT / GATv2 / EdgeConv / MoNet / GraphSAGE / GIN /
//!   APPNP,
//! * [`train`] — losses, optimizers and the epoch driver,
//! * [`reorder`] — vertex reordering (runtime optimization, §8 related
//!   work),
//! * [`mod@bench`] — the experiment harness behind the `figures` binary,
//!   with the analysis only figures read (mapping autotuner, DNN
//!   checkpointing, neighbor grouping).
//!
//! See `examples/quickstart.rs` for an end-to-end tour.
//!
//! # Building and testing
//!
//! The workspace builds with stable Rust (pinned via
//! `rust-toolchain.toml`) and has **no crates.io dependencies**: the
//! four external crates the code uses (`rand`, `serde`, `proptest`,
//! `criterion`) are vendored as API-compatible subsets under `vendor/`,
//! so a plain checkout builds fully offline.
//!
//! ```text
//! cargo build --release      # everything, including the `figures` binary
//! cargo test -q              # unit + integration + property + doc tests
//! cargo bench --no-run       # compile-check the criterion bench
//! cargo run --example quickstart
//! ```
//!
//! Property suites honour `PROPTEST_CASES` as a hard cap on cases (CI
//! sets 32) and `PROPTEST_SEED` to reproduce a reported failure.

pub use gnnopt_bench as bench;
pub use gnnopt_core as core;
pub use gnnopt_exec as exec;
pub use gnnopt_graph as graph;
pub use gnnopt_models as models;
pub use gnnopt_reorder as reorder;
pub use gnnopt_sim as sim;
pub use gnnopt_tensor as tensor;
pub use gnnopt_train as train;
