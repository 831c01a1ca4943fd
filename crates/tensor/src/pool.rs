//! Per-session buffer pools: the runtime half of the static memory
//! planner.
//!
//! The planner (`gnnopt-core::memplan`) proves at session build which
//! buffers a step needs and for how long; this module is the mechanism
//! that actually recycles them. Buffers are plain `Vec`s in free lists
//! keyed by **size class** — a buffer's exact capacity — and the pool
//! obeys the planner's one fit rule: a request is served only by a
//! buffer of its own class, and returned whole to it. A pooled buffer
//! therefore corresponds 1:1 to a planned arena region, no small request
//! can pin a large buffer, and what the pool holds is
//! `Σ_class (peak concurrently taken) × class size` whatever order
//! requests arrive in. A request no free buffer of its class can serve is
//! a *miss*: the heap serves it, the class counts it
//! ([`Pool::acquired`]), and the buffer joins the class when it comes
//! back — so a seeded pool that reports no acquisition in a planned
//! class held exactly what the planner promised.
//!
//! # Store lists and the working list
//!
//! Tensor data (`f32`) and argmax tables (`u32`) are the *store* lists
//! the planner seeds; a tensor holds its `[rows, cols]` shape inline, so
//! its data buffer is the only one it takes. The interpreter's
//! launch-transient working buffers — tile-slot slabs, GEMM panels,
//! reduction partials — go through a list of their own
//! ([`take_work_f32`]): their sizes depend on the tiling and the GEMM
//! geometry, not on the plan, and on a shared list a panel that happened
//! to be a planned tensor's size would take its buffer. The working list
//! fills on the cold step and is reported under [`Acquired::work`].
//!
//! # Pools are instances, scopes are per thread
//!
//! Each [`Pool`] is an independent set of free lists behind an `Arc`; a
//! session owns one and seeds it with its own planner regions. The free
//! functions ([`take_f32`], [`put_f32`], …) intercept allocation only
//! while the current thread is inside a [`ScopeGuard`] bracket, and
//! they route to whichever pool that bracket installed — so two
//! sessions stepping concurrently on different threads each recycle
//! through their own free lists, never contending on a process-wide
//! mutex or bleeding planner-seeded buffers into each other (the
//! failure mode of the old `static POOL`). Worker threads spawned by
//! kernels never enter a scope, so their temporaries take the ordinary
//! heap path — the steady-state guarantee is a property of the *serial*
//! executor, which is exactly the configuration the counting allocator
//! test pins. With no active scope every function here degenerates to
//! the plain `Vec` behavior, byte for byte.
//!
//! # Why steady state reaches a fixed point
//!
//! A session step performs a deterministic sequence of buffer requests
//! and returns. After one warmup step the pool holds every buffer the
//! sequence needs (the session additionally pre-seeds it with the
//! planner's regions at build), each list's `BTreeMap` has a node for
//! every class that will ever exist (a miss creates its class's node,
//! empty buckets are kept), and each bucket `Vec` was born with
//! `BUCKET_SLACK` (16) slots of headroom — enough that the return wave of a
//! reset never forces the bucket itself to reallocate. From then on
//! every request is served by `pop` and every return by `push` within
//! existing capacity: zero calls into the global allocator.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

thread_local! {
    /// Stack of pools installed by nested [`ScopeGuard`]s on this
    /// thread; the innermost (last) entry serves every take/put.
    static CURRENT: RefCell<Vec<Pool>> = const { RefCell::new(Vec::new()) };
}

/// True when the current thread is inside a pool scope.
pub fn active() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Runs `f` against the innermost pool installed on this thread, or
/// returns `None` outside any scope.
fn with_current<R>(f: impl FnOnce(&mut PoolInner) -> R) -> Option<R> {
    let pool = CURRENT.with(|c| c.borrow().last().cloned())?;
    let mut inner = pool.inner.lock().expect("buffer pool poisoned");
    Some(f(&mut inner))
}

/// RAII bracket that installs a [`Pool`] as the current thread's
/// allocation target for the guard's lifetime, surviving early returns
/// and panics.
pub struct ScopeGuard(());

impl ScopeGuard {
    /// Installs `pool` on the current thread. Brackets nest: the
    /// innermost installed pool wins, and re-installing the same pool is
    /// harmless.
    pub fn new(pool: &Pool) -> Self {
        CURRENT.with(|c| c.borrow_mut().push(pool.clone()));
        Self(())
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// One size class of one list: the parked buffers, and how many the
/// heap had to supply because none was parked.
struct Bucket<T> {
    free: Vec<Vec<T>>,
    acquired: usize,
}

/// A free list: buckets by size class (element capacity).
type List<T> = BTreeMap<usize, Bucket<T>>;

#[derive(Default)]
struct PoolInner {
    f32s: List<f32>,
    u32s: List<u32>,
    /// The interpreter's working buffers (module docs).
    work: List<f32>,
    /// Cumulative scoped takes served by the heap instead of a free
    /// list — real misses and injected exhaustion alike. Never reset
    /// (trim included): sessions difference snapshots around a step.
    misses: u64,
}

/// Slots pre-reserved in every bucket `Vec` at creation. Bucket
/// occupancy peaks during a session's reset (the return wave of the
/// previous step), which first happens one step *after* the bucket is
/// created — without slack the bucket itself would reallocate there,
/// breaking the warm-step zero-allocation guarantee. A class parking
/// more than this many buffers simultaneously grows its bucket once
/// and then stays at the new fixed point.
const BUCKET_SLACK: usize = 16;

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            free: Vec::with_capacity(BUCKET_SLACK),
            acquired: 0,
        }
    }
}

/// Buffers a pool took from the heap beyond its seeding, per list, as
/// `(class capacity in elements, buffers)` in ascending class order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Acquired {
    /// Tensor data.
    pub f32s: Vec<(usize, usize)>,
    /// Argmax tables.
    pub u32s: Vec<(usize, usize)>,
    /// The interpreter's working buffers (`f32`).
    pub work: Vec<(usize, usize)>,
}

/// An independent buffer free list. Cloning is shallow (`Arc`): clones
/// share the same free list, which is how a session hands its pool to a
/// [`ScopeGuard`]. Dropping the last clone frees every parked buffer —
/// no explicit trim is needed at session teardown.
#[derive(Clone, Default)]
pub struct Pool {
    inner: Arc<Mutex<PoolInner>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("resident_bytes", &self.resident_bytes())
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        self.inner.lock().expect("buffer pool poisoned")
    }

    /// Pre-seeds the pool with an `f32` buffer of exactly `elems`
    /// capacity.
    ///
    /// Sessions call this at build for every planned arena region so
    /// the very first step already finds its store buffers (no scope is
    /// required: seeding is an explicit request, not an interception).
    pub fn seed_f32(&self, elems: usize) {
        seed(&mut self.lock().f32s, elems);
    }

    /// Pre-seeds the pool with a `u32` buffer of exactly `elems`
    /// capacity (a planned argmax table).
    pub fn seed_u32(&self, elems: usize) {
        seed(&mut self.lock().u32s, elems);
    }

    /// Frees every pooled buffer (bucket nodes and acquisition counts
    /// included). Rarely needed — dropping the pool frees everything —
    /// but lets a long-lived session shed its working set on demand.
    pub fn trim(&self) {
        let mut pool = self.lock();
        *pool = PoolInner {
            misses: pool.misses,
            ..PoolInner::default()
        };
    }

    /// What the pool had to take from the heap beyond its seeding. After
    /// a session's cold step this is its working buffers and whatever
    /// the planner missed; a class the session seeded appearing under
    /// [`Acquired::f32s`] or [`Acquired::u32s`] means the plan held too
    /// few buffers of it.
    #[must_use]
    pub fn acquired(&self) -> Acquired {
        let pool = self.lock();
        Acquired {
            f32s: tally(&pool.f32s),
            u32s: tally(&pool.u32s),
            work: tally(&pool.work),
        }
    }

    /// Cumulative scoped take misses served by the heap instead of the
    /// free list, injected exhaustion included. A warmed session holds
    /// this constant; sessions difference snapshots taken around a step
    /// to report `RunStats::fallback_allocs`.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Total bytes currently parked in the pool (diagnostics only).
    pub fn resident_bytes(&self) -> usize {
        fn bytes<T>(m: &List<T>) -> usize {
            m.values()
                .flat_map(|b| &b.free)
                .map(|v| v.capacity() * std::mem::size_of::<T>())
                .sum()
        }
        let pool = self.lock();
        bytes(&pool.f32s) + bytes(&pool.u32s) + bytes(&pool.work)
    }
}

/// `(class, acquired)` of a list's buckets that took any buffer from the
/// heap, in ascending class order.
fn tally<T>(list: &List<T>) -> Vec<(usize, usize)> {
    let counts = list.iter().map(|(&class, b)| (class, b.acquired));
    counts.filter(|&(_, n)| n > 0).collect()
}

fn seed<T>(list: &mut List<T>, elems: usize) {
    if elems > 0 {
        let bucket = list.entry(elems).or_default();
        bucket.free.push(Vec::with_capacity(elems));
    }
}

macro_rules! pool_take {
    ($field:ident, $min:expr) => {{
        let min = $min;
        if min == 0 {
            return Vec::new();
        }
        let pooled = with_current(|pool| {
            // The class's bucket node exists from the first request on
            // (empty buckets are kept), so the tree reaches a structural
            // fixed point and a missed buffer's eventual return — often
            // a whole step later, in the next reset's return wave —
            // allocates no node inside a warmed step.
            let bucket = pool.$field.entry(min).or_default();
            // An armed `pool.take` failpoint simulates arena
            // exhaustion: every action degrades to a forced miss,
            // because a take returns a buffer (not a `Result`) and the
            // only honest failure mode is the heap fallback the caller
            // already survives. One relaxed atomic load when unarmed.
            let exhausted = crate::fault::check("pool.take").is_some();
            // The one fit rule: only a buffer of the request's own
            // class serves it.
            if let Some(mut v) = bucket.free.pop_if(|_| !exhausted) {
                v.clear();
                return Some(v);
            }
            bucket.acquired += 1;
            pool.misses += 1;
            None
        });
        pooled.flatten().unwrap_or_else(|| Vec::with_capacity(min))
    }};
}

macro_rules! pool_put {
    ($field:ident, $v:expr) => {{
        let v = $v;
        if v.capacity() == 0 {
            return;
        }
        let mut v = Some(v);
        with_current(|pool| {
            let v = v.take().expect("put consumes the buffer once");
            pool.$field.entry(v.capacity()).or_default().free.push(v);
        });
        // Outside a scope `v` is still here and drops normally.
    }};
}

/// Takes an empty `Vec<f32>` of capacity `min` from the current thread's
/// pool (freshly allocated on a miss or outside a scope).
pub fn take_f32(min: usize) -> Vec<f32> {
    pool_take!(f32s, min)
}

/// Returns a `Vec<f32>` to the current thread's pool (dropped outside a
/// scope).
pub fn put_f32(v: Vec<f32>) {
    pool_put!(f32s, v)
}

/// Takes an empty `Vec<f32>` of capacity `min` from the current thread's
/// *working* list: launch-transient scratch the memory plan does not
/// cover (module docs).
pub fn take_work_f32(min: usize) -> Vec<f32> {
    pool_take!(work, min)
}

/// Returns a working buffer to the current thread's pool.
pub fn put_work_f32(v: Vec<f32>) {
    pool_put!(work, v)
}

/// Takes an empty `Vec<u32>` of capacity `min` from the current thread's
/// pool.
pub fn take_u32(min: usize) -> Vec<u32> {
    pool_take!(u32s, min)
}

/// Returns a `Vec<u32>` to the current thread's pool.
pub fn put_u32(v: Vec<u32>) {
    pool_put!(u32s, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_pool_is_transparent() {
        assert!(!active());
        let v = take_f32(8);
        assert!(v.capacity() >= 8 && v.is_empty());
        put_f32(v); // dropped, not pooled
    }

    #[test]
    fn scoped_take_put_roundtrip() {
        let pool = Pool::new();
        let _g = ScopeGuard::new(&pool);
        put_f32(Vec::with_capacity(16));
        // The class rule: a larger free buffer does not serve a smaller
        // request — the heap does, and the class counts it.
        let v = take_f32(10);
        assert_eq!(v.capacity(), 10, "only a buffer of its own class");
        assert_eq!((pool.misses(), pool.acquired().f32s), (1, vec![(10, 1)]));
        let w = take_f32(16);
        assert_eq!(w.capacity(), 16, "its own class serves it");
        assert!(w.is_empty());
        assert_eq!(pool.misses(), 1);
        // A returned buffer joins its class and serves the next request.
        put_f32(v);
        assert_eq!(take_f32(10).capacity(), 10);
        assert_eq!((pool.misses(), pool.acquired().f32s), (1, vec![(10, 1)]));
    }

    #[test]
    fn working_buffers_keep_to_their_own_list() {
        let pool = Pool::new();
        pool.seed_f32(64);
        let _g = ScopeGuard::new(&pool);
        // Same size as a seeded store buffer, yet it leaves that one be.
        let w = take_work_f32(64);
        assert_eq!(pool.acquired().work, vec![(64, 1)]);
        put_work_f32(w);
        assert_eq!(take_work_f32(64).capacity(), 64);
        assert_eq!(pool.misses(), 1);
        // The seeded store buffer is still parked: its take adds no miss.
        assert_eq!(take_f32(64).capacity(), 64);
        assert_eq!(pool.misses(), 1);
        assert!(pool.acquired().f32s.is_empty());
    }

    #[test]
    fn zero_sized_requests_bypass_the_pool() {
        let pool = Pool::new();
        let _g = ScopeGuard::new(&pool);
        put_f32(Vec::with_capacity(4));
        let v = take_f32(0);
        assert_eq!(v.capacity(), 0);
    }

    #[test]
    fn guard_unwinds() {
        assert!(!active());
        {
            let pool = Pool::new();
            let _g = ScopeGuard::new(&pool);
            assert!(active());
        }
        assert!(!active());
    }

    #[test]
    fn pools_are_independent() {
        let a = Pool::new();
        let b = Pool::new();
        {
            let _g = ScopeGuard::new(&a);
            put_f32(Vec::with_capacity(64));
        }
        {
            let _g = ScopeGuard::new(&b);
            // b never saw a's buffer: the take is a miss.
            let v = take_f32(64);
            assert_eq!(v.capacity(), 64);
        }
        assert_eq!(a.resident_bytes(), 64 * 4);
        a.trim();
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn misses_count_and_exhaustion_degrades() {
        let _l = crate::fault::TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let pool = Pool::new();
        assert_eq!(pool.misses(), 0);
        {
            let _g = ScopeGuard::new(&pool);
            put_f32(Vec::with_capacity(8));
            let v = take_f32(8); // hit
            assert_eq!(pool.misses(), 0);
            put_f32(v);
            let w = take_f32(1024); // real miss
            assert_eq!(pool.misses(), 1);
            put_f32(w);
            let fp = crate::fault::FaultGuard::install("pool.take:exhaust").unwrap();
            let x = take_f32(8); // pooled buffer present, but exhausted
            assert_eq!(
                x.capacity(),
                8,
                "injected exhaustion falls back to the heap"
            );
            assert_eq!(pool.misses(), 2);
            drop(fp);
            let y = take_f32(8);
            assert!(y.capacity() >= 8);
            assert_eq!(pool.misses(), 2, "disarmed takes hit the free list again");
        }
    }

    #[test]
    fn inner_scope_shadows_outer() {
        let outer = Pool::new();
        let inner = Pool::new();
        let _g = ScopeGuard::new(&outer);
        {
            let _h = ScopeGuard::new(&inner);
            put_f32(Vec::with_capacity(8));
        }
        assert_eq!(outer.resident_bytes(), 0);
        assert_eq!(inner.resident_bytes(), 8 * 4);
    }
}
