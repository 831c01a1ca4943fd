//! The compiler driver: model IR → [`ExecutionPlan`] under a preset.
//!
//! Presets mirror the systems compared in the paper's evaluation (§7):
//!
//! | Preset | Reorg (§4) | Fusion (§5) | Recompute (§6) | Fused exec |
//! |---|---|---|---|---|
//! | [`Preset::Dgl`] | no | DGL built-ins | no (stash all) | no |
//! | [`Preset::FuseGnn`] | no | edge-centric chains | no (stash all) | no |
//! | [`Preset::Ours`] | yes | unified mapping | yes | yes (tiled) |
//!
//! [`CompileOptions`] exposes each technique independently for the
//! ablation studies (Figures 8–10).

use crate::autodiff::{append_backward, BackwardResult};
use crate::exec_policy::ExecPolicy;
use crate::fusion::{duplicate_copy_scatters, merge_shared_recompute, partition, MappingPolicy};
use crate::ir::{IrError, IrGraph, Result};
use crate::plan::ExecutionPlan;
use crate::recompute::{plan_training_memory, RecomputeOptions, RecomputeScope};
use crate::reorg::{reorganize, ReorgReport};

pub use crate::fusion::FusionLevel;

/// The systems compared in Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Deep Graph Library baseline.
    Dgl,
    /// fuseGNN baseline (edge-operator fusion, no recomputation).
    FuseGnn,
    /// This paper: all three techniques.
    Ours,
}

/// Knobs of the compilation pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Apply propagation-postponed reorganization (§4).
    pub reorg: bool,
    /// Fusion capability (§5).
    pub fusion: FusionLevel,
    /// Thread-mapping policy for fused graph kernels.
    pub mapping: MappingPolicy,
    /// Intermediate-data recomputation scope (§6).
    pub recompute: RecomputeScope,
    /// Recompute threshold (FLOPs per rebuilt element).
    pub recompute_threshold: f64,
    /// CPU execution policy for the compiled plan: thread width, tile
    /// budget, the CSR dispatch thresholds and the numeric guard.
    pub exec: ExecPolicy,
}

impl CompileOptions {
    /// Options for a named preset.
    pub fn preset(p: Preset) -> Self {
        match p {
            Preset::Dgl => Self {
                reorg: false,
                fusion: FusionLevel::DglBuiltin,
                mapping: MappingPolicy::Auto,
                recompute: RecomputeScope::FusedInternalsOnly,
                recompute_threshold: 16.0,
                exec: ExecPolicy::auto(),
            },
            Preset::FuseGnn => Self {
                reorg: false,
                fusion: FusionLevel::EdgeOnly,
                mapping: MappingPolicy::Auto,
                recompute: RecomputeScope::FusedInternalsOnly,
                recompute_threshold: 16.0,
                exec: ExecPolicy::auto(),
            },
            Preset::Ours => Self {
                reorg: true,
                fusion: FusionLevel::Unified,
                mapping: MappingPolicy::Auto,
                recompute: RecomputeScope::All,
                recompute_threshold: 16.0,
                exec: ExecPolicy::auto(),
            },
        }
    }

    /// This paper's full pipeline.
    pub fn ours() -> Self {
        Self::preset(Preset::Ours)
    }

    /// DGL baseline pipeline.
    pub fn dgl() -> Self {
        Self::preset(Preset::Dgl)
    }

    /// fuseGNN baseline pipeline.
    pub fn fusegnn() -> Self {
        Self::preset(Preset::FuseGnn)
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::ours()
    }
}

/// A compiled model: the plan plus gradient bookkeeping.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The executable plan.
    pub plan: ExecutionPlan,
    /// Backward bookkeeping (present when compiled for training).
    pub backward: Option<BackwardResult>,
    /// Reorganization statistics.
    pub reorg: ReorgReport,
}

/// Compiles a forward model IR into an execution plan.
///
/// For training, the (single) marked output is differentiated; the caller
/// seeds `backward.seed` with `∂L/∂output` at run time.
///
/// # Errors
///
/// Returns [`IrError`] when the model declares no output, a training
/// compile finds multiple outputs, or autodiff hits an unsupported
/// operator.
pub fn compile(ir: &IrGraph, training: bool, opts: &CompileOptions) -> Result<CompiledModel> {
    if ir.outputs().is_empty() {
        return Err(IrError::Unsupported("model declares no outputs".into()));
    }
    let (mut graph, reorg_report) = if opts.reorg {
        reorganize(ir)?
    } else {
        (ir.clone(), ReorgReport::default())
    };

    let backward = if training {
        if graph.outputs().len() != 1 {
            return Err(IrError::Unsupported(
                "training requires exactly one output".into(),
            ));
        }
        let output = graph.outputs()[0];
        Some(append_backward(&mut graph, output)?)
    } else {
        None
    };

    // Normalize shared copy-scatters so every consuming kernel re-reads
    // vertex features instead of sharing a materialized O(|E|) copy
    // (matching how real systems implement copy_u/copy_v access patterns).
    let (graph, remap) = duplicate_copy_scatters(&graph);
    let backward = backward.map(|mut b| {
        b.seed = remap[&b.seed];
        b.param_grads = b
            .param_grads
            .into_iter()
            .map(|(p, g)| (remap[&p], remap[&g]))
            .collect();
        b.grads = b
            .grads
            .into_iter()
            .filter_map(|(n, g)| match (remap.get(&n), remap.get(&g)) {
                (Some(&n2), Some(&g2)) => Some((n2, g2)),
                _ => None,
            })
            .collect();
        b
    });

    let mut kernels = partition(&graph, opts.fusion, opts.mapping);

    let (stash, aux) = if training {
        let ropts = RecomputeOptions {
            scope: opts.recompute,
            flops_per_element_threshold: opts.recompute_threshold,
        };
        let mp = plan_training_memory(&graph, &mut kernels, &ropts);
        if opts.fusion == FusionLevel::Unified {
            kernels = merge_shared_recompute(&graph, kernels);
        }
        (mp.stash, mp.aux_stash)
    } else {
        Default::default()
    };

    let param_grads = backward
        .as_ref()
        .map(|b| b.param_grads.clone())
        .unwrap_or_default();
    let mut plan = ExecutionPlan {
        ir: graph,
        kernels,
        stash,
        aux_stash: aux,
        param_grads,
        training,
        exec: opts.exec,
        programs: Vec::new(),
    };
    // Lower every kernel to a program: the session's interpreter runs
    // nothing else, whatever the fusion level of the preset.
    plan.programs = crate::lower::lower_plan(&plan);
    Ok(CompiledModel {
        plan,
        backward,
        reorg: reorg_report,
    })
}
