//! Runtime optimization for GNN kernels: vertex reordering.
//!
//! The paper's §8 separates *computational-graph* optimization (its own
//! contribution, `gnnopt-core`) from *runtime* optimization — scheduling
//! workload assignment and memory layout with a preprocessing pass, as
//! Rabbit Reordering (Arai et al., IPDPS'16) does. The two levels
//! compose: a fused vertex-balanced kernel (§5) still suffers poor gather
//! locality on skewed graphs, which is what reordering addresses.
//! [`strategies`] builds a [`Permutation`] that relabels vertices so
//! neighbors get nearby ids, improving the cache behaviour of
//! `Gather`/`Scatter` reads: degree sort, BFS, reverse Cuthill–McKee, and
//! a Rabbit-inspired clustered order. [`locality`] quantifies the effect
//! (LRU hit rate, index span).
//!
//! Reordering is a preprocessing pass whose cost is surfaced explicitly
//! (amortized over training epochs in the paper's setting); the
//! `figures reorder_ablation` subcommand reports the trade-off on the
//! paper's datasets, beside GNNAdvisor-style neighbor grouping, which
//! lives with it in `gnnopt-bench` as figure-side analysis.
//!
//! The executor does not know about reordering. A caller who wants gather
//! locality on real hardware relabels **once**, before building a
//! session: [`Permutation::apply_to_graph`] — a *stable* permutation
//! that keeps per-destination reduction order, so outputs match the
//! identity ordering bit for bit — returns the relabeled graph and the
//! canonical-edge map it induces, [`Permutation::permute_tensor_rows`]
//! moves the vertex (and, through the edge map, edge) bindings, and
//! [`Permutation::unpermute_tensor_rows`] brings outputs back
//! (`tests/reorder_exec.rs` in the workspace root pins the round trip).
//!
//! ```
//! use gnnopt_graph::{generators, Graph};
//! use gnnopt_reorder::{locality, strategies};
//!
//! let el = generators::rmat(8, 8, 0.57, 0.19, 0.19, 7);
//! let perm = strategies::rcm(&el);
//! let reordered = perm.apply_to_edges(&el);
//! let before = locality::lru_hit_rate(&el, 64);
//! let after = locality::lru_hit_rate(&reordered, 64);
//! assert!(after >= before * 0.9); // typically strictly better
//! ```

pub mod locality;
mod permutation;
pub mod strategies;

pub use locality::LocalityReport;
pub use permutation::{Permutation, PermutationError};
