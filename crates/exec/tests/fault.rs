//! Failpoint containment suite: every injected fault in the session
//! runtime surfaces as a **typed error**, never an abort and never
//! silently wrong data.
//!
//! Covered here, site by site:
//!
//! - `refexec` / `fused.launch` / `worker` panics are contained at
//!   kernel dispatch ([`ExecError::KernelPanic`]), poison the session
//!   (subsequent steps refuse with [`ExecError::Poisoned`]), leave the
//!   buffer pool consistent (trim succeeds), and a session rebuilt from
//!   the same plan reproduces the clean run **bit-for-bit**.
//! - injected typed errors ([`ExecError::Injected`]) do *not* poison:
//!   the same session recovers on the next step.
//! - the numeric guard (`ExecPolicy::guard` / `GNNOPT_GUARD=1`)
//!   localizes an injected NaN to `(kernel, node, row, col)`; with the
//!   guard off the same fault sails through (control), and with no
//!   fault installed the guard changes no output bit.
//! - `pool.take` exhaustion degrades to counted heap fallbacks
//!   ([`gnnopt_exec::RunStats::fallback_allocs`]) with identical bits.
//! - sharded halo exchanges reject corrupted staging buffers
//!   ([`ExecError::Exchange`]) via the row-count and checksum checks.
//! - satellite regressions: corrupt CSR graphs are refused at session
//!   build ([`ExecError::Graph`]), backward on an inference plan is a
//!   typed [`ExecError::Protocol`], and a garbage `GNNOPT_FAILPOINTS`
//!   spec is a loud [`ExecError::Policy`] build error.
//!
//! Fault state is process-global, so every test serializes on one
//! mutex and builds its sessions with [`EnvOverrides::Off`].

use gnnopt_core::fault::{self, FaultGuard};
use gnnopt_core::{compile, CompileOptions, ExecPolicy, ExecutionPlan};
use gnnopt_exec::{refexec, Bindings, EnvOverrides, ExecError, Session, ShardedSession};
use gnnopt_graph::{generators, Graph};
use gnnopt_models::{gcn, GcnConfig, ModelSpec};
use gnnopt_tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that touch the process-global failpoint plan.
static FAULT_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    FAULT_TESTS.lock().unwrap_or_else(|p| p.into_inner())
}

fn fixture() -> (Graph, ModelSpec) {
    let g = Graph::from_edge_list(&generators::erdos_renyi(18, 64, 7));
    let spec = gcn(&GcnConfig::two_layer(5, 6, 3)).unwrap();
    (g, spec)
}

fn bindings(spec: &ModelSpec, g: &Graph) -> Bindings {
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(g, 11) {
        b.insert(&k, v.clone());
    }
    b
}

fn session<'a>(plan: &'a ExecutionPlan, g: &'a Graph, policy: ExecPolicy) -> Session<'a> {
    Session::builder(plan, g)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .expect("session builds")
}

/// One clean forward+backward: `(output bits, sorted grad bits)`.
type RunBits = (Vec<Vec<u32>>, Vec<(String, Vec<u32>)>);

fn run_bits(sess: &mut Session<'_>, b: &Bindings) -> RunBits {
    let out = sess.forward(b).expect("clean forward");
    let seed = Tensor::ones(out[0].shape());
    let grads = sess.backward(seed).expect("clean backward");
    bits_of(&out, &grads)
}

/// The clean run every containment check compares against: the
/// node-by-node oracle. Call it with no failpoint armed.
fn oracle_bits(plan: &ExecutionPlan, g: &Graph, b: &Bindings) -> RunBits {
    let seed = Tensor::ones(&[g.num_vertices(), 3]);
    let e = refexec::evaluate(plan, g, b, Some(&seed)).expect("oracle");
    bits_of(&e.outputs, &e.grads)
}

fn bits_of(out: &[Tensor], grads: &HashMap<String, Tensor>) -> RunBits {
    let o = out
        .iter()
        .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    let mut g: Vec<(String, Vec<u32>)> = grads
        .iter()
        .map(|(k, t)| {
            (
                k.clone(),
                t.as_slice().iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect();
    g.sort_by(|a, b| a.0.cmp(&b.0));
    (o, g)
}

#[test]
fn refexec_panic_is_contained_poisons_and_rebuild_matches() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);
    let baseline = oracle_bits(&compiled.plan, &g, &b);

    let _guard = FaultGuard::install("refexec:panic@2").unwrap();
    let mut sess = session(&compiled.plan, &g, ExecPolicy::serial());
    let err = sess.forward(&b).expect_err("injected panic must surface");
    match &err {
        ExecError::KernelPanic { kernel, payload } => {
            assert_eq!(payload, &fault::injected_panic_message("refexec"));
            assert!(!kernel.is_empty(), "panic must name the kernel");
        }
        other => panic!("expected KernelPanic, got {other}"),
    }
    assert!(sess.poisoned(), "a contained panic must poison the session");
    assert!(
        matches!(sess.forward(&b), Err(ExecError::Poisoned(_))),
        "a poisoned session must refuse further steps"
    );
    // The pool survived the unwind in a consistent state.
    sess.pool().trim();
    assert_eq!(sess.pool().resident_bytes(), 0, "trim must drain the pool");
    drop(sess);
    drop(_guard);

    let rebuilt = run_bits(&mut session(&compiled.plan, &g, ExecPolicy::serial()), &b);
    assert_eq!(rebuilt, baseline, "rebuilt session must be bit-identical");
}

#[test]
fn fused_launch_panic_is_contained() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);

    let _guard = FaultGuard::install("fused.launch:panic@1").unwrap();
    let mut sess = session(&compiled.plan, &g, ExecPolicy::serial());
    let err = sess.forward(&b).expect_err("fused launch panic surfaces");
    match &err {
        ExecError::KernelPanic { payload, .. } => {
            assert_eq!(payload, &fault::injected_panic_message("fused.launch"));
        }
        other => panic!("expected KernelPanic, got {other}"),
    }
    assert!(sess.poisoned());
    assert!(matches!(
        sess.backward(Tensor::ones(&[g.num_vertices(), 3])),
        Err(ExecError::Poisoned(_))
    ));
}

#[test]
fn worker_panic_is_contained() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);

    // Force real worker spawns: two threads, no serial-work threshold,
    // and a tile budget small enough that the 64 edges make several
    // tiles (the interpreter runs one worker per tile run).
    let policy = ExecPolicy {
        threads: 2,
        parallel_threshold: 0,
        tile_edges: 8,
        ..ExecPolicy::serial()
    };
    let _guard = FaultGuard::install("worker:panic@1").unwrap();
    let mut sess = session(&compiled.plan, &g, policy);
    let err = sess.forward(&b).expect_err("worker panic surfaces");
    match &err {
        ExecError::KernelPanic { payload, .. } => {
            assert_eq!(payload, &fault::injected_panic_message("worker"));
        }
        other => panic!("expected KernelPanic, got {other}"),
    }
    assert!(sess.poisoned());
}

#[test]
fn injected_error_is_typed_and_does_not_poison() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);
    let baseline = oracle_bits(&compiled.plan, &g, &b);

    let guard = FaultGuard::install("refexec:error@1").unwrap();
    let mut sess = session(&compiled.plan, &g, ExecPolicy::serial());
    assert!(matches!(
        sess.forward(&b),
        Err(ExecError::Injected { ref site }) if site == "refexec"
    ));
    assert!(!sess.poisoned(), "typed injected errors must not poison");
    drop(guard);

    // The *same* session recovers once the plan is cleared.
    assert_eq!(run_bits(&mut sess, &b), baseline);
}

#[test]
fn guard_localizes_injected_nan_and_is_bit_transparent() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);
    let guarded = ExecPolicy::serial().with_guard(true);
    let baseline = oracle_bits(&compiled.plan, &g, &b);

    // No fault installed: the guard is bit-transparent.
    assert_eq!(
        run_bits(&mut session(&compiled.plan, &g, guarded), &b),
        baseline,
        "guard on must not change a single output bit"
    );

    // Guard on: the injected NaN is localized to its first element.
    {
        let _guard = FaultGuard::install("refexec:nan@1").unwrap();
        let mut sess = session(&compiled.plan, &g, guarded);
        match sess.forward(&b).expect_err("guard must reject the NaN") {
            ExecError::NonFinite {
                kernel,
                node,
                row,
                col,
            } => {
                assert!(!kernel.is_empty() && !node.is_empty());
                assert_eq!((row, col), (0, 0), "fault stamps the first element");
            }
            other => panic!("expected NonFinite, got {other}"),
        }
        assert!(!sess.poisoned(), "guard rejections must not poison");
    }

    // Control: guard off, the same fault sails through as data.
    {
        let _guard = FaultGuard::install("refexec:nan@1").unwrap();
        let mut sess = session(&compiled.plan, &g, ExecPolicy::serial());
        sess.forward(&b)
            .expect("without the guard the NaN is ordinary data");
    }
}

#[test]
fn pool_exhaustion_degrades_to_counted_heap_fallbacks() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);

    let mut clean = Session::builder(&compiled.plan, &g)
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    let baseline = run_bits(&mut clean, &b);
    let clean_fallbacks = clean.stats().fallback_allocs;

    let _guard = FaultGuard::install("pool.take:exhaust").unwrap();
    let mut sess = Session::builder(&compiled.plan, &g)
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    let got = run_bits(&mut sess, &b);
    assert_eq!(got, baseline, "degraded allocation must not change bits");
    let stats = sess.stats();
    assert!(
        stats.fallback_allocs > clean_fallbacks,
        "every pool take must degrade to a counted heap miss: {} vs clean {}",
        stats.fallback_allocs,
        clean_fallbacks
    );
}

#[test]
fn exchange_guards_reject_corruption_nan_and_injected_errors() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);

    let sharded = || {
        ShardedSession::builder(&compiled.plan, &g)
            .shards(2)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .expect("sharded session builds")
    };

    // The fixture must actually exercise halo exchanges.
    let mut clean = sharded();
    clean.forward(&b).unwrap();
    assert!(
        clean.stats().halo_exchanges > 0,
        "fixture graph must have cut edges"
    );

    for (spec_str, check) in [
        (
            "exchange:corrupt@1",
            (&|e: &ExecError| matches!(e, ExecError::Exchange(_))) as &dyn Fn(&ExecError) -> bool,
        ),
        // The NaN stamp lands after staging, so the checksum re-check
        // catches it as corruption.
        ("exchange:nan@1", &|e| matches!(e, ExecError::Exchange(_))),
        (
            "exchange:error@1",
            &|e| matches!(e, ExecError::Injected { site } if site == "exchange"),
        ),
    ] {
        let _guard = FaultGuard::install(spec_str).unwrap();
        let err = sharded()
            .forward(&b)
            .expect_err("corrupted exchange must be rejected");
        assert!(check(&err), "spec '{spec_str}' produced {err}");
    }
}

#[test]
fn sharded_panic_is_contained_and_poisons_the_driver() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);

    let _guard = FaultGuard::install("refexec:panic@1").unwrap();
    let mut sess = ShardedSession::builder(&compiled.plan, &g)
        .shards(2)
        .policy(ExecPolicy::serial())
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    assert!(matches!(
        sess.forward(&b),
        Err(ExecError::KernelPanic { .. })
    ));
    assert!(sess.poisoned());
    assert!(matches!(sess.forward(&b), Err(ExecError::Poisoned(_))));
    drop(sess);
    drop(_guard);

    // A panic inside a *global* kernel — the backward weight-gradient
    // reduction only the driver runs, through the same interpreter as
    // the shards — is contained at the driver's own boundary. Walk the
    // hit ordinal forward until the panic lands in that kernel.
    let seed = Tensor::ones(&[g.num_vertices(), 3]);
    let mut landed = false;
    for hit in 1..64 {
        let _guard = FaultGuard::install(&format!("refexec:panic@{hit}")).unwrap();
        let mut sess = ShardedSession::builder(&compiled.plan, &g)
            .shards(2)
            .policy(ExecPolicy::serial())
            .env(EnvOverrides::Off)
            .build()
            .unwrap();
        match sess.step(&b, &seed) {
            Err(ExecError::KernelPanic { kernel, payload }) => {
                assert_eq!(payload, fault::injected_panic_message("refexec"));
                assert!(sess.poisoned(), "hit {hit} in '{kernel}' must poison");
                assert!(matches!(sess.step(&b, &seed), Err(ExecError::Poisoned(_))));
                if kernel.contains("bwd") && kernel.contains("linear_bwd_weight") {
                    landed = true;
                    break;
                }
            }
            Ok(()) => break, // past the step's last hit
            Err(other) => panic!("hit {hit}: expected KernelPanic, got {other}"),
        }
    }
    assert!(
        landed,
        "some refexec hit must land in the global linear_bwd_weight kernel"
    );
}

#[test]
fn corrupt_csr_graphs_are_refused_at_session_build() {
    let _l = lock();
    fault::clear();
    let (_, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();

    // One edge 0→1, but the in-CSR cites neighbor 5 of a 2-vertex graph.
    let bad = Graph::from_raw_parts_unchecked(
        2,
        vec![0, 0, 1],
        vec![5],
        vec![0],
        vec![0, 1, 1],
        vec![1],
        vec![0],
        vec![0],
        vec![1],
    );
    assert!(matches!(
        Session::builder(&compiled.plan, &bad)
            .env(EnvOverrides::Off)
            .build(),
        Err(ExecError::Graph(_))
    ));
    assert!(matches!(
        ShardedSession::builder(&compiled.plan, &bad)
            .shards(2)
            .env(EnvOverrides::Off)
            .build(),
        Err(ExecError::Graph(_))
    ));
}

#[test]
fn backward_protocol_violations_are_typed_errors() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let b = bindings(&spec, &g);

    // Backward on an inference plan.
    let inference = compile(&spec.ir, false, &CompileOptions::ours()).unwrap();
    let mut sess = session(&inference.plan, &g, ExecPolicy::serial());
    sess.forward(&b).unwrap();
    assert!(matches!(
        sess.backward(Tensor::ones(&[g.num_vertices(), 3])),
        Err(ExecError::Protocol(_))
    ));

    // Backward before forward on a training plan.
    let training = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let mut sess = session(&training.plan, &g, ExecPolicy::serial());
    assert!(matches!(
        sess.backward(Tensor::ones(&[g.num_vertices(), 3])),
        Err(ExecError::Protocol(_))
    ));
}

#[test]
fn garbage_failpoint_env_is_a_loud_build_error() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();

    let saved = std::env::var(fault::FAILPOINTS_ENV_VAR).ok();
    std::env::set_var(fault::FAILPOINTS_ENV_VAR, "refexec:explode");
    let got = Session::builder(&compiled.plan, &g).build();
    match saved {
        Some(v) => std::env::set_var(fault::FAILPOINTS_ENV_VAR, v),
        None => std::env::remove_var(fault::FAILPOINTS_ENV_VAR),
    }
    fault::clear();
    assert!(
        matches!(got, Err(ExecError::Policy(_))),
        "a bad GNNOPT_FAILPOINTS spec must fail the build loudly"
    );
}

/// CI chaos-leg hook: when the ambient `GNNOPT_FAILPOINTS` is set (the
/// chaos workflow leg pins a plan), honor it against a guarded plain
/// session and a guarded 2-shard session (so the plan's `exchange` rule
/// has a site to fire at) and require containment — the step either
/// errors or reproduces the clean bits exactly. A no-op when the
/// variable is unset.
#[test]
fn ambient_failpoint_plan_is_contained() {
    let _l = lock();
    fault::clear();
    let (g, spec) = fixture();
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let b = bindings(&spec, &g);
    let guarded = ExecPolicy::serial().with_guard(true);
    let baseline = oracle_bits(&compiled.plan, &g, &b);

    for shards in [1, 2] {
        // Re-installing restarts every rule's hit counter.
        if !fault::install_from_env().expect("ambient GNNOPT_FAILPOINTS must parse") {
            return;
        }
        let mut sess = ShardedSession::builder(&compiled.plan, &g)
            .shards(shards)
            .policy(guarded)
            .env(EnvOverrides::Off)
            .build()
            .expect("session builds");
        let out = sess.forward(&b);
        let res = out.and_then(|o| {
            let seed = Tensor::ones(o[0].shape());
            sess.backward(seed).map(|gr| bits_of(&o, &gr))
        });
        match res {
            Ok(bits) => assert_eq!(
                bits, baseline,
                "ambient plan let wrong bits through at {shards} shard(s)"
            ),
            Err(e) => {
                // Any typed error is acceptable containment.
                let _ = e.to_string();
            }
        }
    }
    fault::clear();
}
