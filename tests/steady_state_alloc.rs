//! Steady-state allocation counting on the executor that ships. Every
//! *tensor* of a warmed [`Session::step`] comes out of the
//! planner-seeded buffer pool (`fallback_allocs == 0`); what still
//! allocates is the interpreter's per-launch planning (step tables,
//! operand lists) — a few hundred small allocations per step. This gate
//! pins what is true of that count: it repeats exactly from step to
//! step, it is the same on a larger graph that spans several tiles
//! (nothing allocates per vertex, per edge or per tile — the property the
//! repeat-only gate missed when the tiled `EdgeSoftmaxBwd` allocated per
//! destination vertex), the numeric guard adds nothing to it, concurrent
//! sessions do not perturb each other's, and a two-shard session — cut
//! kernels and global kernels included — repeats its own count too. A
//! `#[global_allocator]` shim counts every `alloc`/`realloc`/
//! `alloc_zeroed` so the properties are enforced, not eyeballed.
//! (Hoisting the per-launch planning to session build, so the count can
//! reach zero, is a later perf change; gnnbench reports the count as
//! `exec.allocs_per_step`.)
//!
//! The suite lives in its own integration-test binary on purpose: the
//! one `#[test]` below is the only test in the process, so no parallel
//! test thread can attribute its allocations to the measured window.

use gnnopt::core::{compile, CompileOptions, ExecPolicy, ExecutionPlan};
use gnnopt::exec::{Bindings, EnvOverrides, Session, ShardedSession};
use gnnopt::graph::{generators, Graph};
use gnnopt::models::*;
use gnnopt::tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts allocation events (not frees:
/// counting only acquisitions keeps the signal simple).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        (
            "gat",
            gat(&GatConfig {
                in_dim: 8,
                layers: vec![(2, 6)],
                negative_slope: 0.2,
                reorganized: false,
            })
            .unwrap(),
        ),
        ("gcn", gcn(&GcnConfig::two_layer(8, 12, 4)).unwrap()),
        ("sage", sage(&SageConfig::max_pool(8, vec![8])).unwrap()),
    ]
}

/// Allocation events of each of two consecutive `step()`s after one
/// warmup step.
fn steady_allocs(sess: &mut Session, b: &Bindings, seed: &Tensor) -> [u64; 2] {
    sess.step(b, seed).unwrap(); // warmup: pool fills and seeds settle
    [0, 1].map(|_| {
        let before = ALLOCS.load(Ordering::SeqCst);
        sess.step(b, seed).unwrap();
        ALLOCS.load(Ordering::SeqCst) - before
    })
}

fn session<'a>(plan: &'a ExecutionPlan, g: &'a Graph, policy: ExecPolicy) -> Session<'a> {
    Session::builder(plan, g)
        .policy(policy)
        .env(EnvOverrides::Off)
        .build()
        .unwrap()
}

fn inputs(spec: &ModelSpec, plan: &ExecutionPlan, g: &Graph) -> (Bindings, Tensor) {
    let mut b = Bindings::new();
    for (k, v) in spec.init_values(g, 11) {
        b.insert(&k, v.clone());
    }
    let out = plan.ir.node(plan.ir.outputs()[0]);
    (b, Tensor::ones(&[g.num_vertices(), out.dim.total()]))
}

#[test]
fn warm_step_allocations_repeat() {
    let g = Graph::from_edge_list(&generators::erdos_renyi(96, 960, 7));
    // Four times the vertices, sixteen times the edges, four tiles
    // instead of one.
    let g4 = Graph::from_edge_list(&generators::erdos_renyi(384, 15_360, 7));
    let mut solo = Vec::new();
    for (name, spec) in specs() {
        let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
        let (b, seed) = inputs(&spec, &compiled.plan, &g);

        let (b4, seed4) = inputs(&spec, &compiled.plan, &g4);
        let mut big_sess = session(&compiled.plan, &g4, ExecPolicy::serial());
        let on_big_graph = steady_allocs(&mut big_sess, &b4, &seed4);

        let mut sess = session(&compiled.plan, &g, ExecPolicy::serial());
        let plain = steady_allocs(&mut sess, &b, &seed);
        let fallbacks = sess.stats().fallback_allocs;

        // The numeric guard's all-finite scan path must be free:
        // `GNNOPT_GUARD=1` may not buy per-step allocations.
        let guarded = ExecPolicy::serial().with_guard(true);
        let with_guard = steady_allocs(&mut session(&compiled.plan, &g, guarded), &b, &seed);

        eprintln!(
            "{name}: steady-state allocations/step: {plain:?} \
             larger-graph={on_big_graph:?} guarded={with_guard:?}"
        );
        assert_eq!(
            on_big_graph, plain,
            "{name}: a warmed step's allocation count must not depend on |V| or |E|"
        );
        assert_eq!(
            plain[0], plain[1],
            "{name}: a warmed step's allocation count must repeat exactly"
        );
        assert_eq!(
            fallbacks, 0,
            "{name}: every tensor of a warmed step comes out of the pool"
        );
        assert_eq!(
            with_guard, plain,
            "{name}: the numeric guard must scan without allocating"
        );
        solo.push(plain[0]);
    }

    two_concurrent_sessions_allocate_their_solo_counts(&g, solo[0] + solo[1]);
    sharded_steps_allocate_a_fixed_count(&g);
}

/// Two shards of GAT — the model whose fused backward the sharded
/// builder cuts: every kernel, cut pieces and the driver's global
/// kernels included, runs through the program interpreter out of the
/// shards' planned pools, so from the second warmed step on the
/// allocation count (driver staging and assembly included) repeats
/// exactly and no tensor misses the pool.
fn sharded_steps_allocate_a_fixed_count(g: &Graph) {
    let (_, spec) = specs().swap_remove(0);
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let (b, seed) = inputs(&spec, &compiled.plan, g);
    let mut sess = ShardedSession::builder(&compiled.plan, g)
        .shards(2)
        .policy(ExecPolicy::serial())
        .env(EnvOverrides::Off)
        .build()
        .unwrap();
    sess.step(&b, &seed).unwrap(); // cold
    sess.step(&b, &seed).unwrap(); // first warmed step: pools settle
    let counts = [0, 1, 2].map(|_| {
        let before = ALLOCS.load(Ordering::SeqCst);
        sess.step(&b, &seed).unwrap();
        ALLOCS.load(Ordering::SeqCst) - before
    });
    eprintln!("gat, 2 shards: steady-state allocations/step: {counts:?}");
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "a warmed sharded step's allocation count must repeat exactly: {counts:?}"
    );
    assert_eq!(
        sess.stats().fallback_allocs,
        0,
        "every shard tensor of a warmed sharded step comes out of its pool"
    );
}

/// Buffer pools are per-session (owned by the [`Session`]), not a
/// process-global: two sessions on *different* models, stepping
/// **concurrently** on separate threads, must together allocate exactly
/// the sum of what each allocates alone — neither can steal or miss
/// buffers because of the other. Run from the single `#[test]` above so
/// the measured window stays free of test-harness allocations.
fn two_concurrent_sessions_allocate_their_solo_counts(g: &Graph, solo_sum: u64) {
    use std::sync::Barrier;

    let specs = specs();
    let compiled: Vec<_> = specs
        .iter()
        .map(|(_, spec)| compile(&spec.ir, true, &CompileOptions::ours()).unwrap())
        .collect();
    // Barrier phases: [0] both warmed → [1] window opens → [2] steps done.
    let barrier = Barrier::new(3);
    let before = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for ((_, spec), compiled) in specs.iter().zip(&compiled).take(2) {
            let barrier = &barrier;
            scope.spawn(move || {
                let (b, seed) = inputs(spec, &compiled.plan, g);
                let mut sess = session(&compiled.plan, g, ExecPolicy::serial());
                sess.step(&b, &seed).unwrap(); // warmup
                barrier.wait(); // [0] warmed
                barrier.wait(); // [1] window open
                sess.step(&b, &seed).unwrap();
                barrier.wait(); // [2] steps done
                assert_eq!(sess.stats().fallback_allocs, 0);
            });
        }
        barrier.wait(); // [0]
        before.store(ALLOCS.load(Ordering::SeqCst), Ordering::SeqCst);
        barrier.wait(); // [1]
        barrier.wait(); // [2]
    });
    let delta = ALLOCS.load(Ordering::SeqCst) - before.load(Ordering::SeqCst);
    eprintln!("two concurrent sessions: allocations during both steps: {delta}");
    assert_eq!(
        delta, solo_sum,
        "two warmed sessions stepping concurrently must allocate exactly \
         their solo counts (per-session pools must not interfere)"
    );
}
