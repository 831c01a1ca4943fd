//! Chaos property suite: random failpoint plans against the whole
//! session surface (plain/sharded × serial/threaded) must **contain**
//! every injected fault — a step either returns the clean result (the
//! node-by-node oracle's) bit-for-bit or a typed error, never wrong
//! data, never an abort, never a deadlock (the test completing is the
//! proof), and a session rebuilt after the chaos reproduces the clean
//! bits.
//!
//! The suite runs with the numeric guard on, so an injected NaN is a
//! typed [`ExecError::NonFinite`] instead of silently poisoned data;
//! the guard-off control (same fault, `Ok` result) lives in
//! `crates/exec/tests/fault.rs`. The `Trainer` rides along: its
//! bounded skip-and-retry policy must absorb a transient injected NaN
//! and report the retry in `RunStats::nonfinite_retries`.
//!
//! Failpoint state is process-global, so everything here serializes on
//! one mutex and executor sessions use [`EnvOverrides::Off`].

use gnnopt::core::fault::{self, FaultGuard};
use gnnopt::core::{compile, CompileOptions, ExecPolicy, ExecutionPlan};
use gnnopt::exec::{refexec, Bindings, EnvOverrides, ExecError, Session, ShardedSession};
use gnnopt::graph::{generators, Graph};
use gnnopt::models::{gcn, sage, GcnConfig, ModelSpec, SageConfig};
use gnnopt::tensor::Tensor;
use gnnopt::train::{Sgd, Trainer};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static CHAOS_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    CHAOS_TESTS.lock().unwrap_or_else(|p| p.into_inner())
}

fn zoo() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("gcn", gcn(&GcnConfig::two_layer(5, 6, 3)).unwrap()),
        ("sage-max", sage(&SageConfig::max_pool(5, vec![6])).unwrap()),
        ("by-src", by_src_pooling()),
    ]
}

/// A `BySrc` max and mean over an edge difference: streamed gathers
/// forward, both duals tile ops backward.
fn by_src_pooling() -> ModelSpec {
    use gnnopt::core::{BinaryFn, Dim, EdgeGroup, IrGraph, ReduceFn, ScatterFn, Space};
    let mut ir = IrGraph::new();
    let h = ir.input_vertex("h", Dim::flat(5));
    let w = ir.param("w", 5, 4);
    let x = ir.linear(h, w).unwrap();
    let diff = ir.scatter(ScatterFn::Bin(BinaryFn::Sub), x, x).unwrap();
    let mx = ir.gather(ReduceFn::Max, EdgeGroup::BySrc, diff).unwrap();
    let mean = ir.gather(ReduceFn::Mean, EdgeGroup::BySrc, diff).unwrap();
    let out = ir.binary(BinaryFn::Add, mx, mean).unwrap();
    ir.mark_output(out);
    ModelSpec {
        ir,
        inputs: vec![("h".into(), Space::Vertex, Dim::flat(5))],
        params: vec![("w".into(), 5, 4)],
    }
}

fn bindings(spec: &ModelSpec, g: &Graph) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(g, 13) {
        b.insert(&k, v.clone());
    }
    b
}

/// Output and gradient bit patterns of one forward+backward.
type RunBits = (Vec<Vec<u32>>, Vec<(String, Vec<u32>)>);

fn bits(out: Vec<Tensor>, grads: std::collections::HashMap<String, Tensor>) -> RunBits {
    let o = out
        .iter()
        .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    let mut gr: Vec<(String, Vec<u32>)> = grads
        .into_iter()
        .map(|(k, t)| (k, t.as_slice().iter().map(|x| x.to_bits()).collect()))
        .collect();
    gr.sort_by(|a, b| a.0.cmp(&b.0));
    (o, gr)
}

/// The clean result: the node-by-node oracle, run with no plan armed.
fn oracle(plan: &ExecutionPlan, g: &Graph, b: &Bindings) -> RunBits {
    let out = plan.ir.node(plan.ir.outputs()[0]);
    let seed = Tensor::ones(&[g.num_vertices(), out.dim.total()]);
    let e = refexec::evaluate(plan, g, b, Some(&seed)).expect("clean oracle run");
    bits(e.outputs, e.grads)
}

/// One guarded forward+backward under the given configuration.
fn run_once(
    plan: &ExecutionPlan,
    g: &Graph,
    b: &Bindings,
    threads: usize,
    shards: usize,
) -> Result<RunBits, ExecError> {
    let policy = ExecPolicy {
        threads,
        parallel_threshold: 0,
        ..ExecPolicy::serial()
    }
    .with_guard(true);
    if shards == 1 {
        let mut sess = Session::builder(plan, g)
            .policy(policy)
            .env(EnvOverrides::Off)
            .build()?;
        let out = sess.forward(b)?;
        let seed = Tensor::ones(out[0].shape());
        let grads = sess.backward(seed);
        // Whatever happened, the pool must have survived consistent:
        // trim takes the pool lock (a worker that died holding it would
        // poison the mutex) and drains every parked buffer.
        sess.pool().trim();
        assert_eq!(sess.pool().resident_bytes(), 0, "pool leak after chaos");
        Ok(bits(out, grads?))
    } else {
        let mut sess = ShardedSession::builder(plan, g)
            .shards(shards)
            .policy(policy)
            .env(EnvOverrides::Off)
            .build()?;
        let out = sess.forward(b)?;
        let seed = Tensor::ones(out[0].shape());
        let grads = sess.backward(seed)?;
        Ok(bits(out, grads))
    }
}

/// A random failpoint plan: 1–2 rules over every wired site and action,
/// with every trigger flavor.
fn arb_plan() -> impl Strategy<Value = String> {
    let site = prop_oneof![
        Just("refexec"),
        Just("fused.launch"),
        Just("worker"),
        Just("pool.take"),
        Just("exchange"),
    ];
    let action = prop_oneof![
        Just("panic"),
        Just("error"),
        Just("nan"),
        Just("corrupt"),
        Just("exhaust"),
    ];
    let trigger = prop_oneof![
        Just(String::new()),
        (1u64..8).prop_map(|n| format!("@{n}")),
        (1u64..5).prop_map(|k| format!("%{k}")),
    ];
    let rule = (site, action, trigger).prop_map(|(s, a, t)| format!("{s}:{a}{t}"));
    proptest::collection::vec(rule, 1..3).prop_map(|rules| rules.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The containment invariant, under every execution shape.
    #[test]
    fn injected_faults_never_produce_wrong_data(
        plan_spec in arb_plan(),
        model in 0usize..3,
        threads in 1usize..3,
        shards in 1usize..3,
    ) {
        let _l = lock();
        fault::clear();
        let g = Graph::from_edge_list(&generators::erdos_renyi(18, 64, 7));
        let (name, spec) = zoo().swap_remove(model);
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let b = bindings(&spec, &g);
        let repro = format!(
            "GNNOPT_FAILPOINTS='{plan_spec}' model={name} \
             threads={threads} shards={shards}"
        );

        let baseline = oracle(&compiled.plan, &g, &b);

        let chaotic = {
            let _guard = FaultGuard::install(&plan_spec).unwrap();
            run_once(&compiled.plan, &g, &b, threads, shards)
        };
        // A fault that never fired (or degraded gracefully) must leave
        // the result untouched; any typed error is correct containment.
        if let Ok(bits) = chaotic {
            prop_assert_eq!(bits, baseline.clone(), "wrong data: {}", repro);
        }

        // Plan cleared: a rebuilt session reproduces the clean bits.
        let rebuilt = run_once(&compiled.plan, &g, &b, threads, shards)
            .expect("rebuilt session after chaos");
        prop_assert_eq!(rebuilt, baseline, "rebuild diverged: {}", repro);
    }
}

/// The trainer's bounded skip-and-retry policy: a transient injected
/// NaN costs one discarded attempt (counted in the report), a zero
/// retry budget propagates the guard error.
#[test]
fn trainer_retries_transient_nonfinite_steps() {
    let _l = lock();
    fault::clear();
    let g = Graph::from_edge_list(&generators::erdos_renyi(18, 64, 7));
    let spec = gcn(&GcnConfig::two_layer(5, 6, 3)).unwrap();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let params: Vec<String> = spec.params.iter().map(|(n, _, _)| n.clone()).collect();
    let labels: Vec<usize> = (0..g.num_vertices()).map(|i| i % 3).collect();

    // The trainer owns its session, so the guard arrives via the
    // documented env contract; restored below.
    let saved = std::env::var("GNNOPT_GUARD").ok();
    std::env::set_var("GNNOPT_GUARD", "1");
    let trainer = Trainer::new(
        &compiled.plan,
        &g,
        spec.init_values(&g, 13),
        params.clone(),
        Sgd::new(0.1),
    );
    let strict = Trainer::new(
        &compiled.plan,
        &g,
        spec.init_values(&g, 13),
        params,
        Sgd::new(0.1),
    );
    match saved {
        Some(v) => std::env::set_var("GNNOPT_GUARD", v),
        None => std::env::remove_var("GNNOPT_GUARD"),
    }
    let mut trainer = trainer.unwrap().with_nonfinite_retry(2);
    let mut strict = strict.unwrap();

    // `@1` fires on the first kernel of the first attempt only: the
    // retry's fresh attempt runs clean.
    {
        let _guard = FaultGuard::install("refexec:nan@1").unwrap();
        let report = trainer.step(&labels).expect("retry must absorb the fault");
        assert_eq!(report.run.nonfinite_retries, 1, "one discarded attempt");
    }

    // Default budget (zero retries): the guard error propagates.
    {
        let _guard = FaultGuard::install("refexec:nan@1").unwrap();
        assert!(matches!(
            strict.step(&labels),
            Err(ExecError::NonFinite { .. })
        ));
    }
}
