//! DNN-style segment checkpointing (Chen et al., 2016) — the comparison
//! point of the paper's §8.
//!
//! The paper adapts recomputation to GNNs at *operator* granularity
//! (§6): only cheap graph ops are rebuilt, giving `< 10 %` latency
//! overhead. The DNN technique it cites instead checkpoints *segment
//! boundaries* of a layer chain and re-runs whole segments during
//! backward, which costs roughly one extra forward pass (≈ 30 % of a
//! training step). This module implements the DNN scheme faithfully —
//! the √n heuristic and the optimal dynamic program under a memory
//! budget — so the `dnn_checkpoint_compare` figure can reproduce the
//! 30 %-vs-10 % claim quantitatively on the same workloads. It is a
//! cost model over a stage chain, figure-side analysis only: the
//! compiler's own recomputation is `gnnopt_core::recompute`.
//!
//! Model: a chain of `n` stages (for a GNN plan: the kernels in schedule
//! order). A plan partitions the chain into contiguous segments; the
//! activations at segment boundaries are kept, everything inside a
//! segment is dropped after the forward pass and recomputed (one segment
//! re-forward) when the backward pass reaches it.

/// Cost of one stage of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCost {
    /// FLOPs to (re)compute the stage's outputs from its inputs.
    pub flops: u64,
    /// Bytes of activations the stage produces.
    pub activation_bytes: u64,
}

/// A segment-checkpointing schedule: the stage indices whose outputs are
/// kept (segment boundaries). The last stage is never listed — its output
/// is the model output and always live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPlan {
    boundaries: Vec<usize>,
    num_stages: usize,
}

impl CheckpointPlan {
    /// Builds a plan from explicit boundary indices.
    ///
    /// # Panics
    ///
    /// Panics if a boundary is out of range or the list is not strictly
    /// increasing.
    pub fn new(mut boundaries: Vec<usize>, num_stages: usize) -> Self {
        boundaries.sort_unstable();
        boundaries.dedup();
        assert!(
            boundaries.iter().all(|&b| b + 1 < num_stages.max(1)),
            "boundaries must leave at least one stage in the final segment"
        );
        Self {
            boundaries,
            num_stages,
        }
    }

    /// Stash-everything baseline: every stage is a boundary.
    pub fn stash_all(num_stages: usize) -> Self {
        Self {
            boundaries: (0..num_stages.saturating_sub(1)).collect(),
            num_stages,
        }
    }

    /// The √n heuristic: segments of ~√n stages (Chen et al.'s default).
    pub fn sqrt_n(num_stages: usize) -> Self {
        if num_stages <= 2 {
            return Self::new(Vec::new(), num_stages);
        }
        let seg = (num_stages as f64).sqrt().round().max(1.0) as usize;
        let boundaries = (1..num_stages - 1)
            .filter(|i| i % seg == 0)
            .map(|i| i - 1)
            .collect();
        Self::new(boundaries, num_stages)
    }

    /// Checkpointed stage indices (segment boundaries).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }

    /// Segments as `(start, end)` half-open stage ranges.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.boundaries.len() + 1);
        let mut start = 0;
        for &b in &self.boundaries {
            out.push((start, b + 1));
            start = b + 1;
        }
        if start < self.num_stages {
            out.push((start, self.num_stages));
        }
        out
    }

    /// Peak activation memory: every boundary activation and the model
    /// output persist for the whole step, plus the largest single
    /// segment's *interior* (the non-boundary activations, alive while
    /// that segment runs forward or is recomputed for backward).
    pub fn peak_memory(&self, stages: &[StageCost]) -> u64 {
        assert_eq!(stages.len(), self.num_stages, "stage count mismatch");
        let kept: u64 = self
            .boundaries
            .iter()
            .map(|&b| stages[b].activation_bytes)
            .sum();
        let output = stages.last().map_or(0, |c| c.activation_bytes);
        kept + output + self.largest_interior(stages)
    }

    fn largest_interior(&self, stages: &[StageCost]) -> u64 {
        self.segments()
            .into_iter()
            .map(|(s, e)| {
                // The segment's last stage output is its boundary (kept,
                // or the model output) — interior is everything before it.
                stages[s..e.saturating_sub(1).max(s)]
                    .iter()
                    .map(|c| c.activation_bytes)
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Extra FLOPs spent rebuilding segment interiors during backward:
    /// for each segment, the stages whose outputs were dropped (all but
    /// the segment's own boundary) are re-run once. Stash-all therefore
    /// costs zero; coarse segments re-run almost the whole forward pass.
    pub fn recompute_flops(&self, stages: &[StageCost]) -> u64 {
        assert_eq!(stages.len(), self.num_stages, "stage count mismatch");
        self.segments()
            .into_iter()
            .map(|(s, e)| {
                stages[s..e.saturating_sub(1).max(s)]
                    .iter()
                    .map(|c| c.flops)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Latency overhead of the recompute work relative to one training
    /// step, with a backward pass modeled at `bwd_factor`× the forward
    /// FLOPs (2 is the standard estimate).
    pub fn overhead_ratio(&self, stages: &[StageCost], bwd_factor: f64) -> f64 {
        let fwd: u64 = stages.iter().map(|c| c.flops).sum();
        if fwd == 0 {
            return 0.0;
        }
        let step = fwd as f64 * (1.0 + bwd_factor);
        self.recompute_flops(stages) as f64 / step
    }
}

/// The optimal contiguous-segment plan under a peak-memory budget:
/// minimizes recomputed FLOPs via dynamic programming over segment end
/// positions. Returns `None` when even the best partition exceeds the
/// budget (some single stage's interior is too large).
pub fn optimal_plan(stages: &[StageCost], budget_bytes: u64) -> Option<CheckpointPlan> {
    let n = stages.len();
    if n == 0 {
        return Some(CheckpointPlan::new(Vec::new(), 0));
    }
    // Search over the *largest-segment interior* allowance `m`: for a
    // given allowance the greedy packing (close a segment just before it
    // would exceed `m`) minimizes kept bytes… but not recompute FLOPs.
    // With n in the hundreds a O(n²) DP per allowance is affordable and
    // exact: dp[i] = min recompute FLOPs to process stages [0, i) with
    // every closed segment's interior ≤ m; track kept bytes to check the
    // budget at the end. Because kept bytes also depend on the partition,
    // fold them into the DP state cost via lexicographic minimization of
    // (fits, flops).
    let prefix_bytes: Vec<u64> = std::iter::once(0)
        .chain(stages.iter().scan(0u64, |acc, c| {
            *acc += c.activation_bytes;
            Some(*acc)
        }))
        .collect();
    let prefix_flops: Vec<u64> = std::iter::once(0)
        .chain(stages.iter().scan(0u64, |acc, c| {
            *acc += c.flops;
            Some(*acc)
        }))
        .collect();
    let seg_bytes = |s: usize, e: usize| prefix_bytes[e] - prefix_bytes[s];
    let seg_flops = |s: usize, e: usize| prefix_flops[e] - prefix_flops[s];

    // dp[i]: best (kept_bytes, recompute_flops, prev_cut) over partitions
    // of [0, i) into closed segments, where "best" minimizes
    // max(interior) ≤ anything — we instead enumerate: for each i, for
    // each cut j < i, segment [j, i) costs: kept += bytes of stage i-1
    // (its boundary output), recompute += flops of [j, i) if it is not
    // the final segment. The final segment is handled at the end.
    // State: minimal recompute_flops for [0, i) such that
    // kept_bytes + max_interior_so_far ≤ budget is *checked* with the
    // pessimistic max-interior folded in as a second pass; to stay exact
    // we keep per-state (kept, max_interior) pareto fronts.
    #[derive(Clone)]
    struct State {
        kept: u64,
        max_interior: u64,
        flops: u64,
        cuts: Vec<usize>,
    }
    let mut frontier: Vec<Vec<State>> = vec![Vec::new(); n + 1];
    frontier[0].push(State {
        kept: 0,
        max_interior: 0,
        flops: 0,
        cuts: Vec::new(),
    });
    for i in 1..=n {
        let mut cands: Vec<State> = Vec::new();
        for (j, states) in frontier.iter().enumerate().take(i) {
            for base in states {
                // Segment [j, i): its boundary is stage i−1's output;
                // interior = stages j..i−1, which are also what backward
                // recomputation re-runs.
                let interior = seg_bytes(j, i - 1);
                let is_last = i == n;
                let kept = base.kept
                    + if is_last {
                        0 // the model output is charged once, below
                    } else {
                        stages[i - 1].activation_bytes
                    };
                let flops = base.flops + seg_flops(j, i - 1);
                let max_interior = base.max_interior.max(interior);
                let mut cuts = base.cuts.clone();
                if !is_last {
                    cuts.push(i - 1);
                }
                cands.push(State {
                    kept,
                    max_interior,
                    flops,
                    cuts,
                });
            }
        }
        // Prune to the 3-key pareto front (kept, max_interior, flops):
        // `kept` and `max_interior` evolve differently (sums vs. max), so
        // neither — nor their sum — is a sufficient statistic alone.
        cands.sort_by_key(|s| (s.kept, s.max_interior, s.flops));
        let mut front: Vec<State> = Vec::new();
        for s in cands {
            let dominated = front.iter().any(|f| {
                f.kept <= s.kept && f.max_interior <= s.max_interior && f.flops <= s.flops
            });
            if !dominated {
                front.retain(|f| {
                    !(s.kept <= f.kept && s.max_interior <= f.max_interior && s.flops <= f.flops)
                });
                front.push(s);
            }
        }
        frontier[i] = front;
    }
    let output = stages.last().map_or(0, |c| c.activation_bytes);
    frontier[n]
        .iter()
        .filter(|s| s.kept + s.max_interior + output <= budget_bytes)
        .min_by_key(|s| s.flops)
        .map(|s| CheckpointPlan::new(s.cuts.clone(), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, flops: u64, bytes: u64) -> Vec<StageCost> {
        vec![
            StageCost {
                flops,
                activation_bytes: bytes,
            };
            n
        ]
    }

    #[test]
    fn stash_all_has_no_recompute_and_full_memory() {
        let stages = uniform(8, 100, 10);
        let plan = CheckpointPlan::stash_all(8);
        assert_eq!(plan.recompute_flops(&stages), 0);
        assert_eq!(plan.peak_memory(&stages), 80);
        assert_eq!(plan.overhead_ratio(&stages, 2.0), 0.0);
    }

    #[test]
    fn sqrt_n_memory_scales_sublinearly() {
        let n = 64;
        let stages = uniform(n, 100, 10);
        let all = CheckpointPlan::stash_all(n).peak_memory(&stages);
        let sqrt = CheckpointPlan::sqrt_n(n).peak_memory(&stages);
        // √n checkpoints + √n interior ≈ 2√n stages of memory.
        assert!(
            sqrt <= all / 3,
            "sqrt-n must cut memory substantially: {all} -> {sqrt}"
        );
    }

    #[test]
    fn sqrt_n_overhead_is_about_one_forward() {
        // Recomputing every non-final segment re-runs ≈ the whole forward:
        // ratio ≈ fwd / (fwd + bwd) ≈ 1/3 with bwd = 2×fwd — Chen et
        // al.'s "roughly 30 %", which §8 of the paper quotes.
        let stages = uniform(100, 50, 10);
        let ratio = CheckpointPlan::sqrt_n(100).overhead_ratio(&stages, 2.0);
        assert!(
            (0.25..0.34).contains(&ratio),
            "sqrt-n overhead should be ≈30 %: {ratio}"
        );
    }

    #[test]
    fn segments_partition_the_chain() {
        for n in [1usize, 2, 5, 17, 64] {
            let plan = CheckpointPlan::sqrt_n(n);
            let segs = plan.segments();
            assert_eq!(segs.first().map(|s| s.0), Some(0));
            assert_eq!(segs.last().map(|s| s.1), Some(n));
            for w in segs.windows(2) {
                assert_eq!(w[0].1, w[1].0, "segments must tile contiguously");
            }
        }
    }

    #[test]
    fn optimal_plan_respects_budget_and_beats_sqrt_n() {
        let stages = uniform(16, 100, 10);
        let sqrt = CheckpointPlan::sqrt_n(16);
        let budget = sqrt.peak_memory(&stages);
        let opt = optimal_plan(&stages, budget).expect("feasible");
        assert!(opt.peak_memory(&stages) <= budget);
        assert!(
            opt.recompute_flops(&stages) <= sqrt.recompute_flops(&stages),
            "the DP must not lose to the heuristic at the same budget"
        );
    }

    #[test]
    fn optimal_plan_prefers_cutting_after_cheap_fat_stages() {
        // Stage 1 is huge in bytes but free to recompute; the optimal
        // single cut under a tight budget is *before* it so its bytes
        // never persist... or after, if keeping it is cheaper than the
        // interior. Verify the DP picks the cheaper of the two.
        let stages = vec![
            StageCost {
                flops: 1000,
                activation_bytes: 10,
            },
            StageCost {
                flops: 1,
                activation_bytes: 1000,
            },
            StageCost {
                flops: 1000,
                activation_bytes: 10,
            },
        ];
        let opt = optimal_plan(&stages, 1020).expect("feasible");
        // Keeping stage 0 (10 bytes) leaves interior {1, 2} = 1010 ≤
        // budget and recomputes only stage 0 (1000 flops)… while keeping
        // stage 1 (1000 bytes kept) leaves max interior 10+? Check the DP
        // found a plan within budget at minimal flops.
        assert!(opt.peak_memory(&stages) <= 1020);
        let alt = CheckpointPlan::new(vec![1], 3);
        assert!(opt.recompute_flops(&stages) <= alt.recompute_flops(&stages));
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let stages = uniform(4, 10, 1000);
        assert!(optimal_plan(&stages, 999).is_none());
    }

    #[test]
    fn degenerate_chains() {
        assert_eq!(CheckpointPlan::sqrt_n(0).segments(), vec![]);
        assert_eq!(CheckpointPlan::sqrt_n(1).segments(), vec![(0, 1)]);
        let one = uniform(1, 10, 10);
        assert_eq!(CheckpointPlan::sqrt_n(1).recompute_flops(&one), 0);
    }
}
