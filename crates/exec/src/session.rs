//! The execution session: drives a compiled plan over real data.
//!
//! # Constructing sessions
//!
//! [`SessionBuilder`] (via [`Session::builder`]) is the one construction
//! path:
//!
//! ```ignore
//! let mut sess = Session::builder(&plan, &graph)
//!     .policy(policy)         // default: the plan's own ExecPolicy
//!     .env(EnvOverrides::Off) // default: Loud
//!     .build()?;
//! ```
//!
//! The `GNNOPT_*` environment overrides (`THREADS`, `GUARD`,
//! `FAILPOINTS`) are consulted once, at build, according to the
//! builder's [`EnvOverrides`] mode: `Loud` errors on an invalid value,
//! `Off` consults none of them.
//!
//! # One executor
//!
//! A session runs a kernel exactly one way: by interpreting its lowered
//! [`gnnopt_core::KernelProgram`] (`fused.rs`). A plan compiled with
//! `FusionLevel::None`/`DglBuiltin` *is* the materializing baseline when
//! the interpreter runs it. The node-by-node evaluation the bit-identity
//! suites compare against is no part of the session (see the crate docs).

use crate::{contain, fused, ExecError, Result};
use gnnopt_core::fault;
use gnnopt_core::memplan::{self, MemoryPlan};
use gnnopt_core::{ExecPolicy, ExecutionPlan, Node, NodeId, OpKind, Phase, Space};
use gnnopt_graph::Graph;
use gnnopt_tensor::{pool, Tensor};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Named tensors bound to the IR's leaves (inputs and parameters).
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    values: HashMap<String, Tensor>,
}

impl Bindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` to `value`, returning `self` for chaining.
    pub fn with(mut self, name: &str, value: Tensor) -> Self {
        self.values.insert(name.to_owned(), value);
        self
    }

    /// Binds `name` to `value`.
    pub fn insert(&mut self, name: &str, value: Tensor) {
        self.values.insert(name.to_owned(), value);
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.values.get(name)
    }

    /// The tensor bound to leaf `node`, or [`ExecError::MissingBinding`].
    pub(crate) fn leaf(&self, node: &Node) -> Result<&Tensor> {
        self.get(&node.name)
            .ok_or_else(|| ExecError::MissingBinding(node.name.clone()))
    }
}

/// Measured statistics of one session run (real CPU execution, as opposed
/// to the analytical device model).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock seconds of the forward pass.
    pub forward_seconds: f64,
    /// Wall-clock seconds of the backward pass.
    pub backward_seconds: f64,
    /// High-water mark of live tensor bytes in the value store.
    pub peak_value_bytes: u64,
    /// Bytes held across the forward→backward boundary (stash + argmax
    /// tables).
    pub boundary_bytes: u64,
    /// Worker threads the kernels ran under (resolved [`ExecPolicy`]).
    pub threads: usize,
    /// High-water mark of the interpreter's per-worker scratch slots
    /// (total across workers, max over kernels): the slots actually
    /// held — aliased copies hold none, single-reader rows a strip.
    pub scratch_bytes: u64,
    /// Kernel programs launched during the step — every kernel of the
    /// plan, since the interpreter is the only executor.
    pub fused_kernels: u64,
    /// Arena bytes the static memory planner laid out for the value
    /// store at session build. The measured
    /// [`RunStats::peak_value_bytes`] never exceeds it: the planner
    /// models every store-resident tensor (checked by the arena
    /// invariant suite).
    pub planned_peak_bytes: u64,
    /// Vertex shards the step executed over (`1` for a plain session).
    pub shards: usize,
    /// Bytes moved between shards by halo/replica exchanges and global
    /// gathers during the step (`0` for a plain session). Leaf binding
    /// is distribution, not communication, and is not counted.
    pub comm_bytes: u64,
    /// Total halo rows across shards: vertices a shard reads through an
    /// edge endpoint but does not own (derived from the IR's views).
    pub halo_vertices: u64,
    /// Edges whose endpoints live in different shards.
    pub cut_edges: u64,
    /// Individual exchange operations performed during the step.
    pub halo_exchanges: u64,
    /// Buffer-pool misses during the step: requests the warmed pool
    /// could not serve, degraded to plain heap allocations (graceful
    /// degradation under arena exhaustion, real or injected). Warmed
    /// steady-state steps report `0` — the CI allocation gate depends
    /// on it.
    pub fallback_allocs: u64,
    /// Training steps the `gnnopt_train` trainer discarded and
    /// retried after the numeric guard reported a non-finite gradient
    /// (`0` unless the trainer's retry policy is enabled).
    pub nonfinite_retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Fresh,
    ForwardDone,
}

/// Parses the `GNNOPT_GUARD` override: `Ok(None)` when unset,
/// `Ok(Some(_))` on `0`/`1` (and the usual boolean spellings), `Err` on
/// anything else.
fn guard_env() -> std::result::Result<Option<bool>, String> {
    match std::env::var("GNNOPT_GUARD") {
        Err(_) => Ok(None),
        Ok(s) => match s.trim() {
            "0" | "false" | "off" => Ok(Some(false)),
            "1" | "true" | "on" => Ok(Some(true)),
            other => Err(format!("GNNOPT_GUARD must be 0 or 1, got '{other}'")),
        },
    }
}

/// Scans one kernel output for the numeric guard: finds the first
/// non-finite element of `t` (one streaming pass, no allocation unless
/// it fails) and localizes it as [`ExecError::NonFinite`]. `kernel` is
/// built lazily so the all-finite path never formats a label. Shared by
/// the plain session and the sharded driver's global kernels.
pub(crate) fn scan_nonfinite(
    t: &Tensor,
    node: &str,
    kernel: impl FnOnce() -> String,
) -> Result<()> {
    match gnnopt_tensor::rowops::first_nonfinite(t.as_slice()) {
        None => Ok(()),
        Some(i) => {
            let cols = t.cols().max(1);
            Err(ExecError::NonFinite {
                kernel: kernel(),
                node: node.to_string(),
                row: i / cols,
                col: i % cols,
            })
        }
    }
}

/// Human-readable label of a kernel launch, for fault diagnostics:
/// schedule id, phase, and member node names. Free-standing so the
/// sharded driver can label a kernel while its shard sessions are
/// mutably borrowed.
pub(crate) fn kernel_label(plan: &ExecutionPlan, kid: usize, backward: bool) -> String {
    let names: Vec<&str> = plan.kernels[kid]
        .nodes
        .iter()
        .map(|&n| plan.ir.node(n).name.as_str())
        .collect();
    format!(
        "K{kid} {} [{}]",
        if backward { "bwd" } else { "fwd" },
        names.join("+")
    )
}

/// Checks a caller-provided tensor (a leaf binding or the gradient
/// seed) against the shape `node` has on `graph`. The sharded driver
/// checks against the caller's full graph before any row selection,
/// which would drop surplus rows.
pub(crate) fn check_shape(graph: &Graph, node: &Node, t: &Tensor) -> Result<()> {
    let expected = match node.space {
        Space::Vertex => (graph.num_vertices(), node.dim.total()),
        Space::Edge => (graph.num_edges(), node.dim.total()),
        Space::Param => (node.dim.heads, node.dim.feat),
    };
    if (t.rows(), t.cols()) != expected {
        return Err(ExecError::BindingShape {
            name: node.name.clone(),
            expected,
            got: t.shape().to_vec(),
        });
    }
    Ok(())
}

/// A session input, lent or made: callers lend their plan and graph
/// through the builder; sharded execution makes each shard's local
/// subgraph — and, when it had to cut a kernel, the derived plan all
/// shards share — itself, so there is no caller to borrow those from.
/// Cloning copies a reference or bumps a count, never the value.
#[derive(Debug)]
pub(crate) enum Held<'a, T> {
    Borrowed(&'a T),
    Owned(Arc<T>),
}

impl<T> Clone for Held<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Held::Borrowed(t) => Held::Borrowed(t),
            Held::Owned(t) => Held::Owned(Arc::clone(t)),
        }
    }
}

impl<T> std::ops::Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Owned(t) => t,
        }
    }
}

/// Executes an [`ExecutionPlan`] over a concrete graph and bindings.
///
/// The session enforces the plan's memory discipline (drop / stash /
/// recompute), so a plan bug surfaces as [`ExecError::ValueNotLive`]
/// rather than silently reading stale data.
#[derive(Debug)]
pub struct Session<'a> {
    plan: Held<'a, ExecutionPlan>,
    graph: Held<'a, Graph>,
    policy: ExecPolicy,
    /// Every kernel of the plan compiled for this graph and policy
    /// (`fused.rs`): a step launches them, it plans nothing.
    kernels: Vec<fused::CompiledKernel>,
    /// What the last launch produced, and the tables a launch binds
    /// tensors through.
    frame: fused::Frame,
    store: fused::Store,
    /// Last kernel that reads each node externally. After construction it
    /// only backs the debug-build assertion that the precomputed death
    /// lists reproduce the liveness sweep, hence unread in release.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    last_reader: HashMap<NodeId, usize>,
    /// Nodes that persist to the end of the step.
    persistent: HashSet<NodeId>,
    /// Per-kernel eviction lists, precomputed at session build time: the
    /// non-persistent nodes whose last external reader is that kernel
    /// (replacing an `O(live values)` sweep after every kernel).
    kernel_deaths: Vec<Vec<NodeId>>,
    /// The static memory plan: the arena this session's tensor storage
    /// is served from (buffers recycle through `gnnopt_tensor::pool`,
    /// and the interpreter frees dying inputs mid-launch rather than at
    /// the kernel boundary).
    memplan: MemoryPlan,
    /// Forward / backward kernel ids in execution order, precomputed so
    /// a steady-state step builds no per-run worklists.
    fwd_kernels: Vec<usize>,
    bwd_kernels: Vec<usize>,
    /// Leaf nodes in IR order (the gradient seed excluded), for
    /// allocation-free binding.
    leaf_ids: Vec<NodeId>,
    /// The training plan's gradient-seed node.
    seed_node: Option<NodeId>,
    /// Forward-owned transients whose death kernel is backward: exactly
    /// the values the forward→backward boundary drops, precomputed so
    /// the boundary needs no store sweep.
    boundary_dead: Vec<NodeId>,
    /// This session's own buffer free list, seeded with the planner's
    /// regions at build; installed on the thread for the duration of
    /// each run via [`gnnopt_tensor::pool::ScopeGuard`]. Dropping the
    /// session frees the parked buffers with it.
    pool: pool::Pool,
    state: State,
    /// Set when a contained kernel panic left the step half-executed:
    /// the value store may hold partial results, so every subsequent
    /// `begin_*` refuses with [`ExecError::Poisoned`]. The pool itself
    /// stays consistent (workers drained before the panic re-raised),
    /// so the session can still be dropped or trimmed safely.
    poisoned: Option<String>,
    /// Pool-miss counter at `begin_forward`, so the step's
    /// [`RunStats::fallback_allocs`] reports only this step's misses.
    fallback_base: u64,
    live_bytes: u64,
    peak_bytes: u64,
    stats: RunStats,
    /// [`Session::kernel_ns`], one slot per kernel, sized at build.
    kernel_ns: Vec<u64>,
}

/// How a [`SessionBuilder`] treats the `GNNOPT_*` environment overrides
/// (`GNNOPT_THREADS`, `GNNOPT_GUARD`, `GNNOPT_FAILPOINTS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnvOverrides {
    /// Apply the overrides; an invalid value is a build error
    /// ([`ExecError::Policy`]).
    #[default]
    Loud,
    /// Consult no overrides: the builder's policy runs verbatim. (Thread
    /// *auto-detection* still honours `GNNOPT_THREADS` leniently, as it
    /// always has — pin `threads` to escape that too.)
    Off,
}

impl EnvOverrides {
    /// Reads one override under this mode: `Off` never calls `parse`,
    /// `Loud` turns an invalid value into [`ExecError::Policy`].
    pub(crate) fn read<T>(
        self,
        parse: impl FnOnce() -> std::result::Result<Option<T>, String>,
    ) -> Result<Option<T>> {
        match self {
            EnvOverrides::Off => Ok(None),
            EnvOverrides::Loud => parse().map_err(ExecError::Policy),
        }
    }

    /// The one override resolution both builders share: checks
    /// `GNNOPT_THREADS`, folds `GNNOPT_GUARD` into `policy` and arms
    /// `GNNOPT_FAILPOINTS`. The builders are the only readers of the
    /// environment: nothing on the kernel-dispatch path is.
    pub(crate) fn resolve(self, policy: &mut ExecPolicy) -> Result<()> {
        if self == EnvOverrides::Loud && policy.is_auto() {
            // Surface a bad env override loudly instead of silently
            // falling back like the infallible tensor-side detection.
            gnnopt_tensor::parallel::env_threads().map_err(ExecError::Policy)?;
        }
        policy.guard = self.read(guard_env)?.unwrap_or(policy.guard);
        self.read(|| fault::install_from_env().map(Some))?;
        Ok(())
    }
}

/// Builds a [`Session`]: the [`ExecPolicy`] and how the `GNNOPT_*`
/// environment overrides apply.
#[derive(Debug)]
pub struct SessionBuilder<'a> {
    plan: &'a ExecutionPlan,
    graph: &'a Graph,
    policy: Option<ExecPolicy>,
    env: EnvOverrides,
}

impl<'a> SessionBuilder<'a> {
    /// Overrides the plan's own [`ExecPolicy`].
    #[must_use]
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Chooses how the `GNNOPT_*` environment overrides apply
    /// (default: [`EnvOverrides::Loud`]).
    #[must_use]
    pub fn env(mut self, env: EnvOverrides) -> Self {
        self.env = env;
        self
    }

    /// Resolves the environment overrides per the chosen mode and builds
    /// the session.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Protocol`] on duplicate leaf names,
    /// [`ExecError::Graph`] when the input graph fails structural
    /// validation ([`Graph::validate`]), and — under
    /// [`EnvOverrides::Loud`] only — [`ExecError::Policy`] when
    /// `GNNOPT_THREADS` is set to something other than a positive
    /// integer, `GNNOPT_GUARD` to something other than `0`/`1`, or
    /// `GNNOPT_FAILPOINTS` to an unparseable failpoint spec.
    pub fn build(self) -> Result<Session<'a>> {
        let mut policy = self.policy.unwrap_or(self.plan.exec);
        self.env.resolve(&mut policy)?;
        self.graph.validate().map_err(ExecError::Graph)?;
        Session::assemble(
            Held::Borrowed(self.plan),
            Held::Borrowed(self.graph),
            policy,
            None,
        )
    }
}

impl<'a> Session<'a> {
    /// Starts a [`SessionBuilder`] — the one construction path.
    /// Defaults: the plan's own policy and [`EnvOverrides::Loud`].
    pub fn builder(plan: &'a ExecutionPlan, graph: &'a Graph) -> SessionBuilder<'a> {
        SessionBuilder {
            plan,
            graph,
            policy: None,
            env: EnvOverrides::default(),
        }
    }

    /// The shared construction tail: leaf-name validation, liveness
    /// precomputation (shared with the memory planner via
    /// [`gnnopt_core::memplan::liveness`] — one source of truth), memory
    /// planning and pool pre-seeding. `policy` arrives with the env
    /// overrides already folded in by the builder. The sharded builder
    /// calls this once per shard with the local subgraph it made (owned:
    /// there is no caller to borrow it from), the plan it classified and
    /// the shard's owned vertices (`shard`, per local vertex), the only
    /// groups its vertex reductions reduce.
    pub(crate) fn assemble(
        plan: Held<'a, ExecutionPlan>,
        graph: Held<'a, Graph>,
        policy: ExecPolicy,
        shard: Option<Arc<[bool]>>,
    ) -> Result<Self> {
        let policy = policy.resolved(gnnopt_tensor::parallel::available_threads);
        let mut leaf_names = HashMap::new();
        let mut leaf_ids: Vec<NodeId> = Vec::new();
        let mut seed_node = None;
        for n in plan.ir.nodes() {
            if matches!(
                n.kind,
                OpKind::InputVertex | OpKind::InputEdge | OpKind::Param | OpKind::GradSeed
            ) {
                if leaf_names.insert(n.name.clone(), n.id).is_some() {
                    return Err(ExecError::Protocol(format!(
                        "duplicate leaf name '{}'",
                        n.name
                    )));
                }
                if n.kind == OpKind::GradSeed {
                    seed_node = Some(n.id); // bound by backward()
                } else {
                    leaf_ids.push(n.id);
                }
            }
        }

        // The executor's eviction discipline and the memory planner's
        // interval analysis are the same computation — sharing it is what
        // lets the planned arena provably cover the store.
        let lv = memplan::liveness(&plan);

        let fwd_kernels: Vec<usize> = (0..plan.kernels.len())
            .filter(|&k| memplan::kernel_phase(&plan, k) == Phase::Forward)
            .collect();
        let bwd_kernels: Vec<usize> = (0..plan.kernels.len())
            .filter(|&k| memplan::kernel_phase(&plan, k) == Phase::Backward)
            .collect();

        // The forward→backward boundary drops every live transient. At
        // that point the live transients are exactly the forward-phase
        // nodes whose death kernel is backward (everything else was
        // evicted by its own death list), so the boundary needs no sweep.
        let mut boundary_dead: Vec<NodeId> = Vec::new();
        if plan.training {
            for &kid in &bwd_kernels {
                for &n in &lv.kernel_deaths[kid] {
                    if plan.ir.node(n).phase == Phase::Forward {
                        boundary_dead.push(n);
                    }
                }
            }
        }

        // Launch planning happens here, once: tile bounds, worker
        // ownership, scratch sizes, the mid-launch release schedule.
        let tiles: Arc<[usize]> =
            fused::tile_bounds(graph.in_adj().indptr(), policy.tile_edges).into();
        let kernels = plan.programs.iter().zip(&lv.kernel_deaths);
        let kernels = kernels
            .map(|(prog, dying)| {
                fused::prepare(prog, &graph, &policy, &tiles, shard.as_ref(), dying)
            })
            .collect();

        let memplan = memplan::plan_memory(&plan, graph.num_vertices(), graph.num_edges(), true);
        // Pre-seed this session's own pool with the planned buffers so
        // the very first step already finds every store buffer recycled.
        let pool = pool::Pool::new();
        let elems = |bytes: u64| usize::try_from(bytes / 4).expect("a planned buffer fits usize");
        for (bytes, buffers) in memplan.classes() {
            for _ in 0..buffers {
                pool.seed_f32(elems(bytes));
            }
        }
        for &(_, bytes) in &memplan.argmax_tables {
            pool.seed_u32(elems(bytes));
        }

        Ok(Self {
            kernel_ns: vec![0; plan.kernels.len()],
            plan,
            graph,
            policy,
            kernels,
            frame: fused::Frame::default(),
            store: fused::Store::default(),
            last_reader: lv.last_reader,
            persistent: lv.persistent,
            kernel_deaths: lv.kernel_deaths,
            memplan,
            fwd_kernels,
            bwd_kernels,
            leaf_ids,
            seed_node,
            boundary_dead,
            pool,
            state: State::Fresh,
            poisoned: None,
            fallback_base: 0,
            live_bytes: 0,
            peak_bytes: 0,
            stats: RunStats::default(),
        })
    }

    /// Measured statistics of the most recent run.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Wall-clock nanoseconds each kernel took in the most recent step, by
    /// kernel id (0 if it did not run, and in the shards of a
    /// [`crate::ShardedSession`]). The clock is read once between launches,
    /// so the slots add up to [`RunStats::forward_seconds`] and
    /// [`RunStats::backward_seconds`], to the nanosecond.
    pub fn kernel_ns(&self) -> &[u64] {
        &self.kernel_ns
    }

    /// The resolved execution policy this session runs kernels under.
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// True when a contained kernel panic poisoned the session: the
    /// step's results were discarded and every subsequent `begin_*`
    /// returns [`ExecError::Poisoned`]. The session's pool stays
    /// consistent (it can be trimmed or dropped safely); rebuild from
    /// the same plan to continue.
    pub fn poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// This session's buffer pool — exposed so robustness tests can
    /// assert the pool survives a poisoning event consistently (trim
    /// succeeds, counters balance).
    pub fn pool(&self) -> &pool::Pool {
        &self.pool
    }

    /// The static memory plan this session's storage follows: planned
    /// offsets, lifetimes and the arena's total size.
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.memplan
    }

    /// The plan this session runs — for a shard of a
    /// [`crate::ShardedSession`], the plan the sharded builder derived
    /// (kernels cut where an exchange falls inside one).
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Runs the forward kernels, returning the model outputs in
    /// declaration order.
    ///
    /// # Errors
    ///
    /// Returns binding errors, or [`ExecError::ValueNotLive`] if the plan's
    /// memory discipline is inconsistent.
    pub fn forward(&mut self, bindings: &Bindings) -> Result<Vec<Tensor>> {
        {
            let _scope = self.scope();
            self.run_forward(bindings)?;
        }
        // The scope has ended: the caller-owned clones below come from
        // the heap, not out of the planned pool (which would make the
        // next step miss).
        self.plan
            .ir
            .outputs()
            .iter()
            .map(|&o| self.value(o).cloned())
            .collect()
    }

    /// The forward body shared by [`Session::forward`] and
    /// [`Session::step`]: executes the kernels and leaves the outputs in
    /// the store (the callers add their own tails).
    fn run_forward(&mut self, bindings: &Bindings) -> Result<()> {
        self.begin_forward()?;
        let graph = self.graph.clone();
        self.bind_leaves(|node| {
            let t = bindings.leaf(node)?;
            check_shape(&graph, node, t)?;
            Ok(t.clone())
        })?;
        self.stats.forward_seconds = self.run_kernels(false)?;
        self.finish_forward();
        Ok(())
    }

    /// Forward-pass prologue: reset and stamp the per-run stats header;
    /// [`Session::bind_leaves`] follows. Split out so the sharded driver
    /// can bind each shard's rows and run the kernel loop itself
    /// (interleaving exchanges) between this and
    /// [`Session::finish_forward`].
    pub(crate) fn begin_forward(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.reset();
        self.fallback_base = self.pool.misses();
        self.stats.threads = self.policy.threads;
        self.stats.shards = 1;
        self.stats.planned_peak_bytes = self.memplan.arena_bytes;
        Ok(())
    }

    /// Forward-pass epilogue: the forward→backward boundary drop and the
    /// state transition.
    pub(crate) fn finish_forward(&mut self) {
        // Inference runs stop here; report the high-water mark either way
        // (backward refreshes it with the final value).
        self.stats.peak_value_bytes = self.peak_bytes;
        self.stats.fallback_allocs = self.pool.misses() - self.fallback_base;

        // Forward→backward boundary: everything non-persistent drops here,
        // exercising the recomputation plan for real. The set was
        // precomputed at build — no store sweep.
        if self.plan.training {
            for i in 0..self.boundary_dead.len() {
                let n = self.boundary_dead[i];
                self.drop_value(n);
            }
            debug_assert!(
                self.store
                    .values
                    .keys()
                    .all(|n| self.persistent.contains(n)),
                "boundary-dead list diverges from the liveness sweep"
            );
            self.stats.boundary_bytes = self.live_bytes
                + self
                    .store
                    .aux_argmax
                    .values()
                    .map(|a| 4 * a.len() as u64)
                    .sum::<u64>();
        }

        self.state = State::ForwardDone;
    }

    /// Runs the backward kernels with the given `∂L/∂output` seed and
    /// returns parameter gradients keyed by parameter name.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Protocol`] unless called right after
    /// [`Session::forward`] on a training plan.
    pub fn backward(&mut self, seed: Tensor) -> Result<HashMap<String, Tensor>> {
        {
            let _scope = self.scope();
            self.run_backward(seed)?;
        }
        // Scope ended before cloning, as in `forward`.
        let mut grads = HashMap::new();
        for &(p, g) in &self.plan.param_grads {
            let name = self.plan.ir.node(p).name.clone();
            let val =
                self.store
                    .values
                    .get(&g)
                    .cloned()
                    .ok_or_else(|| ExecError::ValueNotLive {
                        node: format!("grad of {name}"),
                    })?;
            grads.insert(name, val);
        }
        Ok(grads)
    }

    /// The backward body shared by [`Session::backward`] and
    /// [`Session::step`]: gradients stay in the store.
    fn run_backward(&mut self, seed: Tensor) -> Result<()> {
        self.begin_backward(seed)?;
        self.stats.backward_seconds = self.run_kernels(true)?;
        self.finish_backward();
        Ok(())
    }

    /// Launches one phase's kernels and returns its seconds: the clock is
    /// read before the first launch and after each, each kernel's slot of
    /// [`Session::kernel_ns`] getting the span its own reading ends.
    fn run_kernels(&mut self, backward: bool) -> Result<f64> {
        let (t0, phase) = (Instant::now(), usize::from(backward));
        let mut last = t0;
        for i in 0..[&self.fwd_kernels, &self.bwd_kernels][phase].len() {
            let kid = [&self.fwd_kernels, &self.bwd_kernels][phase][i];
            self.exec_kernel(kid, backward)?;
            let now = Instant::now();
            self.kernel_ns[kid] = (now - last).as_nanos() as u64;
            last = now;
        }
        Ok((last - t0).as_secs_f64())
    }

    /// Backward-pass prologue: protocol checks and seed binding. The
    /// sharded driver brackets its own kernel loop with this and
    /// [`Session::finish_backward`].
    pub(crate) fn begin_backward(&mut self, seed: Tensor) -> Result<()> {
        self.check_poisoned()?;
        if !self.plan.training {
            return Err(ExecError::Protocol(
                "plan was compiled for inference".into(),
            ));
        }
        if self.state != State::ForwardDone {
            return Err(ExecError::Protocol(
                "call forward() before backward()".into(),
            ));
        }
        let plan = self.plan.clone();
        let Some(seed_id) = self.seed_node else {
            return Err(ExecError::Protocol(
                "training plan has no gradient-seed node (plan inconsistency)".into(),
            ));
        };
        let seed_node = plan.ir.node(seed_id);
        check_shape(&self.graph, seed_node, &seed)?;
        self.insert_value(seed_id, seed);
        Ok(())
    }

    /// Backward-pass epilogue: final peak accounting and the state
    /// transition back to [`State::Fresh`].
    pub(crate) fn finish_backward(&mut self) {
        self.stats.peak_value_bytes = self.peak_bytes;
        self.stats.fallback_allocs = self.pool.misses() - self.fallback_base;
        self.state = State::Fresh;
    }

    /// Refuses to start a step on a poisoned session.
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(why) => Err(ExecError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// One full training step — forward then backward — with **no
    /// user-facing clones**: outputs and gradients stay in the store for
    /// borrowing via [`Session::output_ref`] / [`Session::grad_ref`].
    ///
    /// This is the steady-state entry point of the static memory
    /// planner: every tensor a warmed step creates comes out of the
    /// planner-seeded pool ([`RunStats::fallback_allocs`] reads 0), and
    /// launch planning happened at build, so at one thread a warmed step
    /// makes no heap allocation at all (`tests/steady_state_alloc.rs`;
    /// gnnbench reports the count as `exec.allocs_per_step`).
    ///
    /// # Errors
    ///
    /// As [`Session::forward`] and [`Session::backward`].
    pub fn step(&mut self, bindings: &Bindings, seed: &Tensor) -> Result<()> {
        let _scope = self.scope();
        self.run_forward(bindings)?;
        self.run_backward(seed.clone())
    }

    /// Installs this session's pool on the current thread for the
    /// guard's lifetime. The sharded driver brackets each shard's work
    /// the same way.
    pub(crate) fn scope(&self) -> pool::ScopeGuard {
        pool::ScopeGuard::new(&self.pool)
    }

    /// Borrows model output `i` from the store after [`Session::step`]
    /// (or [`Session::forward`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Protocol`] for an out-of-range index,
    /// [`ExecError::ValueNotLive`] before the first run.
    pub fn output_ref(&self, i: usize) -> Result<&Tensor> {
        let Some(&o) = self.plan.ir.outputs().get(i) else {
            return Err(ExecError::Protocol(format!("no model output #{i}")));
        };
        self.value(o)
    }

    /// Borrows the gradient of parameter `name` from the store after
    /// [`Session::step`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Protocol`] for an unknown parameter,
    /// [`ExecError::ValueNotLive`] before the first backward run.
    pub fn grad_ref(&self, name: &str) -> Result<&Tensor> {
        for &(p, g) in &self.plan.param_grads {
            if self.plan.ir.node(p).name == name {
                return self.value(g);
            }
        }
        Err(ExecError::Protocol(format!("unknown parameter '{name}'")))
    }

    fn reset(&mut self) {
        self.store.values.clear();
        // Argmax tables recycle through the pool like tensors do (they
        // are plain `Vec<u32>`s, invisible to `Tensor`'s pooled drop).
        for (_, a) in self.store.aux_argmax.drain() {
            pool::put_u32(a);
        }
        self.live_bytes = 0;
        self.peak_bytes = 0;
        self.stats = RunStats::default();
        self.kernel_ns.fill(0);
        self.state = State::Fresh;
    }

    /// Stores the tensor `value` makes for each leaf (every input and
    /// parameter). Called inside the session's pool scope, so a copy
    /// `value` makes comes out of the leaf's planned buffer.
    pub(crate) fn bind_leaves(
        &mut self,
        mut value: impl FnMut(&Node) -> Result<Tensor>,
    ) -> Result<()> {
        let plan = self.plan.clone();
        for i in 0..self.leaf_ids.len() {
            let id = self.leaf_ids[i];
            let t = value(plan.ir.node(id))?;
            self.insert_value(id, t);
        }
        Ok(())
    }

    /// The leaves [`Session::bind_leaves`] binds, in binding order.
    pub(crate) fn leaf_ids(&self) -> &[NodeId] {
        &self.leaf_ids
    }

    pub(crate) fn insert_value(&mut self, id: NodeId, t: Tensor) {
        // Retire the overwritten value *before* taking the high-water
        // mark: overwriting is a replacement, not a moment where both
        // tensors are live, so the old accounting (add, peak, subtract)
        // transiently inflated the reported peak.
        self.live_bytes += t.byte_size() as u64;
        if let Some(old) = self.store.values.insert(id, t) {
            self.live_bytes -= old.byte_size() as u64;
        }
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    pub(crate) fn drop_value(&mut self, id: NodeId) {
        if let Some(old) = self.store.values.remove(&id) {
            self.live_bytes -= old.byte_size() as u64;
        }
    }

    /// The numeric guard's per-output scan (active when
    /// [`ExecPolicy::guard`] is set): localizes the first non-finite
    /// element of `t` to `(kernel, node, row, col)`. One streaming pass
    /// over the output, no allocation on the all-finite path.
    fn guard_output(&self, kid: usize, backward: bool, node: NodeId, t: &Tensor) -> Result<()> {
        if !self.policy.guard {
            return Ok(());
        }
        scan_nonfinite(t, &self.plan.ir.node(node).name, || {
            kernel_label(&self.plan, kid, backward)
        })
    }

    pub(crate) fn exec_kernel(&mut self, kid: usize, backward: bool) -> Result<()> {
        // Containment boundary: a panicking worker (or a panic on this
        // thread inside a kernel body) surfaces as a typed error instead
        // of aborting the step, and poisons the session — the store may
        // hold partial results, but the pool stays consistent because
        // every scoped worker joined before the panic re-raised.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.exec_kernel_inner(kid, backward)
        })) {
            Ok(r) => r,
            Err(p) => {
                let kernel = kernel_label(&self.plan, kid, backward);
                let payload = contain::payload_str(p.as_ref());
                self.poisoned = Some(format!("kernel '{kernel}' panicked: {payload}"));
                Err(ExecError::KernelPanic { kernel, payload })
            }
        }
    }

    /// Runs kernel `kid` the one way a session can: by launching its
    /// compiled program. Kernel-internal values stay in per-worker scratch
    /// and never enter the value store (incl. recomputed values, which
    /// rebuild per tile instead of per kernel).
    fn exec_kernel_inner(&mut self, kid: usize, backward: bool) -> Result<()> {
        let plan = self.plan.clone();
        let (Some(program), Some(kernel)) = (plan.programs.get(kid), self.kernels.get(kid)) else {
            return Err(ExecError::Protocol(format!(
                "kernel '{}' has no lowered program (the plan was assembled \
                 without `lower_plan`)",
                kernel_label(&plan, kid, backward)
            )));
        };
        // The launch frees each dying input as soon as its last reading
        // stage completes, so its buffer recycles into the launch's own
        // later materializations.
        let (store, frame) = (&mut self.store, &mut self.frame);
        self.live_bytes -= kernel.launch(&self.graph, &plan.ir, program, store, frame)?;
        self.stats.scratch_bytes = self.stats.scratch_bytes.max(kernel.scratch_bytes);
        for (si, s) in program.steps.iter().enumerate() {
            if let Some(t) = self.frame.mat[si].take() {
                self.guard_output(kid, backward, s.node, &t)?;
                self.insert_value(s.node, t);
            }
        }
        // A recomputed value spilled to an interior tensor must drop
        // here: its death list belongs to its *forward* kernel, which
        // already ran.
        for &r in &plan.kernels[kid].recompute {
            if !self.persistent.contains(&r) {
                self.drop_value(r);
            }
        }
        self.stats.fused_kernels += 1;
        self.evict_after(kid);
        Ok(())
    }

    /// Plan-driven eviction of dead transients, from the per-kernel death
    /// lists precomputed at session build time. Tolerates entries the
    /// interpreter already freed mid-launch: `drop_value` no-ops on a
    /// missing node.
    pub(crate) fn evict_after(&mut self, kid: usize) {
        for i in 0..self.kernel_deaths[kid].len() {
            let n = self.kernel_deaths[kid][i];
            self.drop_value(n);
        }
        // The lists must reproduce the old O(live-values) sweep exactly:
        // after applying them, no live transient may be past its last
        // external reader. (Written allocation-free, so debug builds
        // count the same allocations per step as release builds.)
        debug_assert!(
            self.store.values.keys().all(|n| {
                self.persistent.contains(n) || self.last_reader.get(n).is_some_and(|&k| k > kid)
            }),
            "death lists diverge from the liveness sweep after kernel {kid}"
        );
    }

    pub(crate) fn value(&self, id: NodeId) -> Result<&Tensor> {
        self.store
            .values
            .get(&id)
            .ok_or_else(|| ExecError::ValueNotLive {
                node: self.plan.ir.node(id).name.clone(),
            })
    }

    /// Mutable access to a live value — the sharded driver patches halo
    /// and replica rows in place between kernels.
    pub(crate) fn value_mut(&mut self, id: NodeId) -> Result<&mut Tensor> {
        let name = &self.plan.ir.node(id).name;
        self.store
            .values
            .get_mut(&id)
            .ok_or_else(|| ExecError::ValueNotLive { node: name.clone() })
    }

    /// The graph this session runs over (shard-local for a shard of a
    /// [`crate::ShardedSession`]).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Forward kernel ids in execution order.
    pub(crate) fn fwd_kernel_ids(&self) -> &[usize] {
        &self.fwd_kernels
    }

    /// Backward kernel ids in execution order.
    pub(crate) fn bwd_kernel_ids(&self) -> &[usize] {
        &self.bwd_kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::{compile, BinaryFn, CompileOptions, Dim, EdgeGroup, IrGraph, ScatterFn};
    use gnnopt_graph::EdgeList;

    fn tiny_plan() -> ExecutionPlan {
        let mut ir = IrGraph::new();
        let h = ir.input_vertex("h", Dim::flat(2));
        let e = ir.scatter(ScatterFn::Bin(BinaryFn::Sub), h, h).unwrap();
        let v = ir
            .gather(gnnopt_core::ReduceFn::Sum, EdgeGroup::ByDst, e)
            .unwrap();
        ir.mark_output(v);
        compile(&ir, false, &CompileOptions::ours()).unwrap().plan
    }

    /// Regression: overwriting a live value is a replacement, not a
    /// moment where both tensors coexist — the peak must not transiently
    /// count old + new together.
    #[test]
    fn overwrite_does_not_inflate_peak_bytes() {
        let graph = Graph::from_edge_list(&EdgeList::from_pairs(3, &[(0, 1), (1, 2)]));
        let plan = tiny_plan();
        let mut sess = Session::builder(&plan, &graph)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let t = Tensor::zeros(&[8, 4]); // 128 bytes
        sess.insert_value(1, t.clone());
        assert_eq!(sess.peak_bytes, 128);
        sess.insert_value(1, t);
        assert_eq!(
            sess.peak_bytes, 128,
            "same-size overwrite must keep the peak at one tensor's bytes"
        );
        assert_eq!(sess.live_bytes, 128);
        // Shrinking overwrite: live drops, peak stays.
        sess.insert_value(1, Tensor::zeros(&[4, 4]));
        assert_eq!(sess.live_bytes, 64);
        assert_eq!(sess.peak_bytes, 128);
    }

    /// One clock slot per kernel, and the forward and backward slots add
    /// up to the phase times the stats report.
    #[test]
    fn kernel_clock_slots_add_up_to_the_phases() {
        use gnnopt_models::{gat, GatConfig};
        let spec = gat(&GatConfig {
            in_dim: 4,
            layers: vec![(2, 3)],
            negative_slope: 0.2,
            reorganized: false,
        })
        .unwrap();
        let plan = compile(&spec.ir, true, &CompileOptions::ours())
            .unwrap()
            .plan;
        let pairs = [(0, 1), (1, 2), (2, 0), (3, 1), (1, 3)];
        let graph = Graph::from_edge_list(&EdgeList::from_pairs(4, &pairs));
        let mut b = Bindings::new();
        for (k, v) in spec.init_values(&graph, 5) {
            b.insert(&k, v);
        }
        let mut sess = Session::builder(&plan, &graph)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        assert!(sess.kernel_ns().iter().all(|&ns| ns == 0));
        let out_cols = plan.ir.node(plan.ir.outputs()[0]).dim.total();
        sess.step(&b, &Tensor::ones(&[4, out_cols])).unwrap();
        assert_eq!(sess.kernel_ns().len(), plan.kernels.len());
        let stats = sess.stats();
        let phase = |ids: &[usize]| ids.iter().map(|&k| sess.kernel_ns()[k]).sum::<u64>();
        let secs = |ns: u64| std::time::Duration::from_nanos(ns).as_secs_f64();
        assert_eq!(secs(phase(&sess.fwd_kernels)), stats.forward_seconds);
        assert_eq!(secs(phase(&sess.bwd_kernels)), stats.backward_seconds);
        assert!(sess.kernel_ns().iter().all(|&ns| ns > 0));
    }

    /// The precomputed death lists must cover every kernel-owned node
    /// exactly once (eviction equivalence with the old sweep is
    /// debug-asserted inside `evict_after` on every test run).
    #[test]
    fn death_lists_partition_transient_nodes() {
        let graph = Graph::from_edge_list(&EdgeList::from_pairs(3, &[(0, 1), (1, 2)]));
        let plan = tiny_plan();
        let sess = Session::builder(&plan, &graph)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        let mut seen = HashSet::new();
        for deaths in &sess.kernel_deaths {
            for &n in deaths {
                assert!(seen.insert(n), "node {n} in two death lists");
                assert!(!sess.persistent.contains(&n));
            }
        }
        let owned: usize = plan
            .kernels
            .iter()
            .flat_map(|k| &k.nodes)
            .filter(|n| !sess.persistent.contains(n))
            .count();
        assert_eq!(seen.len(), owned, "every transient node has a death");
    }
}
