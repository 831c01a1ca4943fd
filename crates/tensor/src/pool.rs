//! Per-session buffer pools: the runtime half of the static memory
//! planner.
//!
//! The planner (`gnnopt-core::memplan`) proves at session build which
//! buffers a step needs and for how long; this module is the mechanism
//! that actually recycles them. Buffers are plain `Vec`s keyed by
//! **capacity** in a [`BTreeMap`] free list, granted best-fit (smallest
//! capacity ≥ request) and returned whole — a region is never split, so
//! a pooled buffer corresponds 1:1 to a planned arena region.
//!
//! # Pools are instances, scopes are per thread
//!
//! Each [`Pool`] is an independent free list behind an `Arc`; a session
//! owns one and seeds it with its own planner regions. The free
//! functions ([`take_f32`], [`put_f32`], …) intercept allocation only
//! while the current thread is inside a [`ScopeGuard`] bracket, and
//! they route to whichever pool that bracket installed — so two
//! sessions stepping concurrently on different threads each recycle
//! through their own free list, never contending on a process-wide
//! mutex or bleeding planner-seeded buffers into each other (the
//! failure mode of the old `static POOL`). Worker threads spawned by
//! kernels never enter a scope, so their temporaries take the ordinary
//! heap path — the zero-allocation steady-state guarantee is a property
//! of the *serial* executor, which is exactly the configuration the
//! counting allocator test pins. With no active scope every function
//! here degenerates to the plain `Vec` behavior, byte for byte.
//!
//! # Why steady state reaches a fixed point
//!
//! A session step performs a deterministic sequence of buffer requests
//! and returns. After one warmup step the pool holds every buffer the
//! sequence needs (the session additionally pre-seeds it with the
//! planner's regions at build), the `BTreeMap` has a node for every
//! capacity class that will ever exist (empty buckets are kept, never
//! removed), and each bucket `Vec` was born with [`BUCKET_SLACK`]
//! slots of headroom — enough that the return wave of a reset never
//! forces the bucket itself to reallocate. From then on every request
//! is served by `pop` and every return by `push` within existing
//! capacity: zero calls into the global allocator.

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

struct PoolInner {
    f32s: BTreeMap<usize, Vec<Vec<f32>>>,
    u32s: BTreeMap<usize, Vec<Vec<u32>>>,
    shapes: BTreeMap<usize, Vec<Vec<usize>>>,
    /// Cumulative scoped takes served by the heap instead of the free
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

fn new_bucket<T>() -> Vec<Vec<T>> {
    Vec::with_capacity(BUCKET_SLACK)
}

/// An independent buffer free list. Cloning is shallow (`Arc`): clones
/// share the same free list, which is how a session hands its pool to a
/// [`ScopeGuard`]. Dropping the last clone frees every parked buffer —
/// no explicit trim is needed at session teardown.
#[derive(Clone)]
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

impl Default for Pool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(PoolInner {
                f32s: BTreeMap::new(),
                u32s: BTreeMap::new(),
                shapes: BTreeMap::new(),
                misses: 0,
            })),
        }
    }

    /// Pre-seeds the pool with an `f32` buffer of exactly `elems`
    /// capacity.
    ///
    /// Sessions call this at build for every planned arena region so
    /// the very first step already finds its store buffers (no scope is
    /// required: seeding is an explicit request, not an interception).
    pub fn seed_f32(&self, elems: usize) {
        if elems == 0 {
            return;
        }
        self.inner
            .lock()
            .expect("buffer pool poisoned")
            .f32s
            .entry(elems)
            .or_insert_with(new_bucket)
            .push(Vec::with_capacity(elems));
    }

    /// Pre-seeds the pool with a shape vector of `rank` capacity.
    ///
    /// Shape vectors are tiny, but a take miss is still a heap
    /// allocation; sessions seed one per planned region (plus slack for
    /// the auxiliary stashes) so the shape bucket starts at its fixed
    /// point instead of reaching it lazily over the first steps.
    pub fn seed_shape(&self, rank: usize) {
        if rank == 0 {
            return;
        }
        self.inner
            .lock()
            .expect("buffer pool poisoned")
            .shapes
            .entry(rank)
            .or_insert_with(new_bucket)
            .push(Vec::with_capacity(rank));
    }

    /// Frees every pooled buffer (bucket nodes included). Rarely needed
    /// — dropping the pool frees everything — but lets a long-lived
    /// session shed its working set on demand.
    pub fn trim(&self) {
        let mut pool = self.inner.lock().expect("buffer pool poisoned");
        pool.f32s = BTreeMap::new();
        pool.u32s = BTreeMap::new();
        pool.shapes = BTreeMap::new();
    }

    /// Bucket occupancy of each free list as `(capacity, parked
    /// buffers)` pairs in ascending capacity order — `(f32s, u32s,
    /// shapes)`. Diagnostics only.
    #[allow(clippy::type_complexity)]
    #[must_use]
    pub fn occupancy(
        &self,
    ) -> (
        Vec<(usize, usize)>,
        Vec<(usize, usize)>,
        Vec<(usize, usize)>,
    ) {
        fn count<T>(m: &BTreeMap<usize, Vec<Vec<T>>>) -> Vec<(usize, usize)> {
            m.iter()
                .filter(|(_, b)| !b.is_empty())
                .map(|(&c, b)| (c, b.len()))
                .collect()
        }
        let pool = self.inner.lock().expect("buffer pool poisoned");
        (count(&pool.f32s), count(&pool.u32s), count(&pool.shapes))
    }

    /// Cumulative scoped take misses served by the heap instead of the
    /// free list, injected exhaustion included. A warmed session holds
    /// this constant; sessions difference snapshots taken around a step
    /// to report `RunStats::fallback_allocs`.
    pub fn misses(&self) -> u64 {
        self.inner.lock().expect("buffer pool poisoned").misses
    }

    /// Total bytes currently parked in the pool (diagnostics only).
    pub fn resident_bytes(&self) -> usize {
        fn bytes<T>(m: &BTreeMap<usize, Vec<Vec<T>>>) -> usize {
            m.values()
                .flatten()
                .map(|v| v.capacity() * std::mem::size_of::<T>())
                .sum()
        }
        let pool = self.inner.lock().expect("buffer pool poisoned");
        bytes(&pool.f32s) + bytes(&pool.u32s) + bytes(&pool.shapes)
    }
}

macro_rules! pool_take {
    ($field:ident, $min:expr) => {{
        let min = $min;
        if min == 0 {
            return Vec::with_capacity(min);
        }
        let pooled = with_current(|pool| {
            // An armed `pool.take` failpoint simulates arena
            // exhaustion: every action degrades to a forced miss,
            // because a take returns a buffer (not a `Result`) and the
            // only honest failure mode is the heap fallback the caller
            // already survives. One relaxed atomic load when unarmed.
            let exhausted = crate::fault::check("pool.take").is_some();
            if !exhausted {
                // Best fit: the smallest capacity class that satisfies
                // the request. Empty buckets are skipped but
                // deliberately kept in the map so the tree reaches a
                // structural fixed point.
                if let Some((_, bucket)) = pool.$field.range_mut(min..).find(|(_, b)| !b.is_empty())
                {
                    let mut v = bucket.pop().expect("bucket checked non-empty");
                    v.clear();
                    return Some(v);
                }
            }
            // Miss: count it for the session's fallback accounting and
            // materialize the class's bucket node *now*, so the
            // buffer's eventual return (often a whole step later, at
            // the next reset's return wave) finds the node in place
            // instead of allocating one inside a warmed step.
            pool.misses += 1;
            pool.$field.entry(min).or_insert_with(new_bucket);
            None
        });
        match pooled {
            Some(Some(v)) => v,
            _ => Vec::with_capacity(min),
        }
    }};
}

macro_rules! pool_put {
    ($field:ident, $v:expr) => {{
        let v = $v;
        if v.capacity() == 0 {
            return;
        }
        let cap = v.capacity();
        let mut v = Some(v);
        with_current(|pool| {
            pool.$field
                .entry(cap)
                .or_insert_with(new_bucket)
                .push(v.take().expect("put consumes the buffer once"));
        });
        // Outside a scope `v` is still here and drops normally.
    }};
}

/// Takes an empty `Vec<f32>` with capacity ≥ `min` from the current
/// thread's pool (freshly allocated on a miss or outside a scope).
pub fn take_f32(min: usize) -> Vec<f32> {
    pool_take!(f32s, min)
}

/// Returns a `Vec<f32>` to the current thread's pool (dropped outside a
/// scope).
pub fn put_f32(v: Vec<f32>) {
    pool_put!(f32s, v)
}

/// Takes an empty `Vec<u32>` with capacity ≥ `min` from the current
/// thread's pool.
pub fn take_u32(min: usize) -> Vec<u32> {
    pool_take!(u32s, min)
}

/// Returns a `Vec<u32>` to the current thread's pool.
pub fn put_u32(v: Vec<u32>) {
    pool_put!(u32s, v)
}

/// Takes an empty shape vector (`Vec<usize>`) with capacity ≥ `min`.
pub fn take_shape(min: usize) -> Vec<usize> {
    pool_take!(shapes, min)
}

/// Returns a shape vector to the current thread's pool.
pub fn put_shape(v: Vec<usize>) {
    pool_put!(shapes, v)
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
        let v = take_f32(10);
        assert!(v.capacity() >= 16, "best fit grants the pooled buffer");
        assert!(v.is_empty());
        put_f32(v);
        let w = take_f32(32);
        assert_eq!(w.capacity(), 32, "no fit falls back to a fresh buffer");
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
        assert!(a.resident_bytes() >= 64 * 4);
        let (f, _, _) = a.occupancy();
        assert_eq!(f, vec![(64, 1)]);
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
