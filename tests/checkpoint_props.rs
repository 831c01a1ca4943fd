//! Property tests for the DNN segment-checkpointing planner
//! (`bench::checkpoint`): the dynamic program is cross-validated against
//! brute-force enumeration of *all* segmentations on small chains, and
//! its structural invariants hold on arbitrary ones.

use gnnopt::bench::checkpoint::{optimal_plan, CheckpointPlan, StageCost};
use proptest::prelude::*;

fn arb_stages() -> impl Strategy<Value = Vec<StageCost>> {
    proptest::collection::vec(
        (1u64..100, 1u64..100).prop_map(|(flops, activation_bytes)| StageCost {
            flops,
            activation_bytes,
        }),
        1..9,
    )
}

/// Enumerates every contiguous segmentation (each of the `n-1` interior
/// boundaries is either a cut or not) and returns the minimal recompute
/// FLOPs among those within `budget`.
fn brute_force_best(stages: &[StageCost], budget: u64) -> Option<u64> {
    let n = stages.len();
    let cuts = n.saturating_sub(1);
    let mut best: Option<u64> = None;
    for mask in 0u32..(1 << cuts) {
        let boundaries: Vec<usize> = (0..cuts).filter(|i| mask & (1 << i) != 0).collect();
        let plan = CheckpointPlan::new(boundaries, n);
        if plan.peak_memory(stages) <= budget {
            let flops = plan.recompute_flops(stages);
            best = Some(best.map_or(flops, |b: u64| b.min(flops)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The DP finds a plan exactly when brute force does, and with the
    /// same (optimal) recompute cost.
    #[test]
    fn dp_matches_brute_force(stages in arb_stages(), budget in 1u64..1200) {
        let dp = optimal_plan(&stages, budget);
        let bf = brute_force_best(&stages, budget);
        match (dp, bf) {
            (None, None) => {}
            (Some(plan), Some(best)) => {
                prop_assert!(plan.peak_memory(&stages) <= budget, "DP exceeded budget");
                prop_assert_eq!(
                    plan.recompute_flops(&stages),
                    best,
                    "DP is suboptimal"
                );
            }
            (dp, bf) => {
                return Err(TestCaseError::fail(format!(
                    "feasibility mismatch: dp={:?} bf={:?}",
                    dp.map(|p| p.recompute_flops(&stages)),
                    bf
                )));
            }
        }
    }

    /// Feasibility is monotone in the budget, and looser budgets never
    /// force more recomputation.
    #[test]
    fn budget_monotonicity(stages in arb_stages(), b1 in 1u64..1200, b2 in 1u64..1200) {
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        let plo = optimal_plan(&stages, lo);
        let phi = optimal_plan(&stages, hi);
        if let Some(p) = &plo {
            prop_assert!(phi.is_some(), "a feasible tight budget implies a feasible loose one");
            prop_assert!(
                phi.as_ref().unwrap().recompute_flops(&stages) <= p.recompute_flops(&stages)
            );
        }
    }

    /// Structural invariants of any plan: segments tile the chain, the
    /// stash-all plan has zero recompute, and peak memory never exceeds
    /// the total activation footprint plus the model output.
    #[test]
    fn plan_invariants(stages in arb_stages()) {
        let n = stages.len();
        let total: u64 = stages.iter().map(|s| s.activation_bytes).sum();
        for plan in [CheckpointPlan::stash_all(n), CheckpointPlan::sqrt_n(n)] {
            let segs = plan.segments();
            prop_assert_eq!(segs.first().map(|s| s.0), Some(0));
            prop_assert_eq!(segs.last().map(|s| s.1), Some(n));
            for w in segs.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
            prop_assert!(plan.peak_memory(&stages) <= total + stages[n - 1].activation_bytes);
        }
        prop_assert_eq!(CheckpointPlan::stash_all(n).recompute_flops(&stages), 0);
    }
}
