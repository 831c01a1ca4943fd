//! Steady-state allocation counting on the executor that ships. A warmed
//! single-session [`Session::step`] at one thread performs **zero heap
//! allocations**: every tensor comes out of the planner-seeded buffer
//! pool (`fallback_allocs == 0`), launch planning happened once, at
//! session build (`fused::prepare`), and a launch only binds tensors
//! through tables that keep their allocations. This gate pins that as an
//! equality — on a graph of one tile and on one sixteen times larger that
//! spans several (nothing allocates per vertex, per edge or per tile),
//! with the numeric guard on, and for two sessions stepping concurrently.
//! At more than one thread the only residue is the spawning of the
//! workers: exactly what `std::thread::scope` itself allocates for the
//! scope entries and workers the step makes. What still allocates sits
//! above the session and is pinned by exact count, with its sites listed
//! where the count is asserted: the sharded driver (staging, exchange
//! records, the global kernels' heap tensors) and the trainer
//! (loss and optimizer temporaries). A `#[global_allocator]` shim counts
//! every `alloc`/`realloc`/`alloc_zeroed` so the properties are enforced,
//! not eyeballed; gnnbench reports the count as `exec.allocs_per_step`.
//!
//! The suite lives in its own integration-test binary on purpose: the
//! one `#[test]` below is the only test in the process, so no parallel
//! test thread can attribute its allocations to the measured window.

use gnnopt::core::fault::{self, FaultGuard};
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
    [0, 1].map(|_| allocs_of(|| sess.step(b, seed).unwrap()))
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

/// Allocation events of `f`.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn warm_steps_allocate_nothing() {
    let g = Graph::from_edge_list(&generators::erdos_renyi(96, 960, 7));
    // Four times the vertices, sixteen times the edges, four tiles
    // instead of one.
    let g4 = Graph::from_edge_list(&generators::erdos_renyi(384, 15_360, 7));
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
        assert_eq!(plain, [0, 0], "{name}: a warmed step allocates nothing");
        assert_eq!(
            on_big_graph,
            [0, 0],
            "{name}: … whatever |V|, |E| or the tile count"
        );
        assert_eq!(
            fallbacks, 0,
            "{name}: every tensor of a warmed step comes out of the pool"
        );
        assert_eq!(
            with_guard,
            [0, 0],
            "{name}: the numeric guard must scan without allocating"
        );
        threaded_steps_allocate_only_their_spawns(name, &compiled.plan, &g4, &b4, &seed4);
    }

    two_concurrent_sessions_allocate_nothing(&g);
    sharded_steps_allocate_a_fixed_count(&g);
    trainer_steps_allocate_a_fixed_count(&g);
}

/// At two threads, with the parallel threshold at zero so that every
/// tile unit, streamed unit and row-split dense call spawns, a warmed
/// step allocates exactly what `std::thread::scope` does for its scope
/// entries × workers — measured here on empty scopes — and nothing of its
/// own: slabs come off the pool on the launching thread, workers
/// allocate nothing. Worker bodies are counted by the `worker` failpoint
/// (armed with a rule that never fires); every parallel scope of a
/// two-thread policy has two of them. (The GEMM engine's own threaded
/// path, which collects its slabs in vectors, starts at 2²⁰
/// multiply-adds: none of these products reaches it.)
fn threaded_steps_allocate_only_their_spawns(
    name: &str,
    plan: &ExecutionPlan,
    g: &Graph,
    b: &Bindings,
    seed: &Tensor,
) {
    let empty_scope = |workers: usize| {
        allocs_of(|| {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {});
                }
            });
        })
    };
    empty_scope(2); // (first use initializes thread-local runtime state)
    let per_worker = empty_scope(2) - empty_scope(1);
    let per_scope = empty_scope(1) - per_worker;

    let _census = FaultGuard::install("worker:error@18446744073709551615").unwrap();
    let policy = ExecPolicy {
        parallel_threshold: 0,
        ..ExecPolicy::with_threads(2)
    };
    let mut sess = session(plan, g, policy);
    sess.step(b, seed).unwrap(); // warmup
    let workers_before = fault::hits("worker");
    let allocs = allocs_of(|| sess.step(b, seed).unwrap());
    let workers = fault::hits("worker") - workers_before;
    eprintln!("{name}, 2 threads: {allocs} allocations/step for {workers} spawned workers");
    assert!(
        workers > 0 && workers.is_multiple_of(2),
        "{name}: {workers} workers"
    );
    assert_eq!(
        allocs,
        workers / 2 * per_scope + workers * per_worker,
        "{name}: a threaded step allocates only its thread spawns \
         ({per_scope}/scope + {per_worker}/worker)"
    );
    assert_eq!(sess.stats().fallback_allocs, 0);
}

/// Two shards of GAT — the model whose fused backward the sharded
/// builder cuts: every kernel, cut pieces and the driver's global
/// kernels included, is launched compiled, the shards' out of their
/// planned pools, so no tensor misses a pool and what a warmed step
/// allocates is the driver's own, the same count every step.
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
    let counts = [0, 1, 2].map(|_| allocs_of(|| sess.step(&b, &seed).unwrap()));
    eprintln!("gat, 2 shards: steady-state allocations/step: {counts:?}");
    // None from `fused` or a shard's `Session`: each shard's leaf rows
    // are copied inside its pool scope. By site, all in `sharded.rs`'
    // driver: 9 in `exchange` (3 exchanges, each its list of staging
    // buffers and one buffer a shard, sized once), 10 data buffers of
    // tensors made outside any shard's pool scope (6 `assemble_value`
    // copies, 3 global-kernel results, the seed copy in `step`), 12 value
    // names in exchange records, 6 row tables in `assemble_value`, 4
    // working buffers the global kernels' dense calls take with no pool
    // installed.
    assert_eq!(counts, [41; 3], "the sharded driver's own allocations");
    assert_eq!(
        sess.stats().fallback_allocs,
        0,
        "every shard tensor of a warmed sharded step comes out of its pool"
    );
}

/// `Trainer::step` — bindings, forward, masked cross-entropy, backward,
/// clipping, Adam — on the GCN: the session under it allocates nothing,
/// so the count is the train layer's own.
fn trainer_steps_allocate_a_fixed_count(g: &Graph) {
    use gnnopt::train::{Adam, Trainer};
    let (_, spec) = specs().swap_remove(1);
    let compiled = compile(&spec.ir, true, &CompileOptions::ours()).unwrap();
    let values = spec.init_values(g, 11);
    let params: Vec<String> = spec.params.iter().map(|(n, _, _)| n.clone()).collect();
    let labels: Vec<usize> = (0..g.num_vertices()).map(|v| v % 4).collect();
    let mut trainer = Trainer::new(&compiled.plan, g, values, params, Adam::new(0.01))
        .unwrap()
        .with_clip_norm(5.0);
    trainer.step(&labels).unwrap(); // cold
    trainer.step(&labels).unwrap(); // optimizer state settles
    let counts = [0, 1, 2].map(|_| {
        allocs_of(|| {
            trainer.step(&labels).unwrap();
        })
    });
    eprintln!("gcn, trainer: steady-state allocations/step: {counts:?}");
    // By site: 9 data buffers of tensors made off the heap (the pool
    // scope has ended) — 4 binding copies, the output `forward` clones
    // out, the 2 gradients `backward` clones out, the loss's softmax copy
    // and its gradient seed — 6 in `Bindings::insert` (4 names, 2 for
    // the table), 4 in `Adam::step`, 4 for the output and gradient
    // containers `forward`/`backward` return, 3 in the step itself (the
    // parameter map's table and 2 names), 2 in `accuracy_masked`, 1 for
    // the all-true mask.
    assert_eq!(counts, [29; 3], "the train layer's own allocations");
}

/// Buffer pools are per-session (owned by the [`Session`]), not a
/// process-global: two sessions on *different* models, stepping
/// **concurrently** on separate threads, must together allocate what
/// each allocates alone — nothing: neither can steal or miss buffers
/// because of the other. Run from the single `#[test]` above so
/// the measured window stays free of test-harness allocations.
fn two_concurrent_sessions_allocate_nothing(g: &Graph) {
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
        delta, 0,
        "two warmed sessions stepping concurrently must allocate nothing, \
         as each does alone (per-session pools must not interfere)"
    );
}
