//! Blocked, register-tiled GEMM engine: one shared microkernel behind
//! every dense matrix product in the workspace.
//!
//! # Why a blocked kernel
//!
//! The reference `ikj` loop ([`naive`]) re-streams a full output row
//! and a full `B` row from cache for every `(i, k)` pair — three memory
//! operations per two flops. The blocked engine ([`gemm`]) walks
//! cache-resident blocks of the operands and updates an `MR × NR`
//! register tile of `C` per inner iteration, so the hot loop performs
//! [`NR`] independent multiply-adds per `A` element with no loads or
//! stores of `C` at all — the classic
//! GotoBLAS/BLIS GEBP structure, with one branch-free microkernel per
//! geometry: a fixed-width Rust body that autovectorizes for the `4×8`
//! and `6×16` tiles, and explicit AVX-512 intrinsics for the `12×32` one.
//!
//! # What is packed and why
//!
//! `B` always: each register-tile-wide column panel is re-read by every
//! row tile of the block, and a k-major copy makes that one sequential
//! L1-resident stream. `A` only when transposed (`Tn`): a register tile
//! of row-major `A` is already `MR` contiguous k-runs, which the
//! microkernel reads in place. GotoBLAS packs `A` regardless and
//! amortizes the copy over a wide `n`; GNN layers are tall and skinny
//! (`m = |V|`, `n = 32…128`), so a packed `A` element would feed only
//! `2·n` flops and its copy cost 10–35 % of the product.
//!
//! # Determinism: one fused multiply-add per k-step
//!
//! Blocking never changes *what* is accumulated, only *where operands
//! live*. Every output element `C[i,j]` is produced by the same chain of
//! `f32` operations in every kernel:
//!
//! ```text
//! c = 0.0;  for k in 0..K { c = A[i,k].mul_add(B[k,j], c); }   // ascending k
//! ```
//!
//! Each k-step is one fused multiply-add, rounded once. `f32::mul_add` is
//! correctly rounded on every target: the AVX2 and AVX-512 kernels run it
//! as a `vfmadd` per lane, and the portable kernel and the naive loop get
//! a hardware FMA where the target has one and a correctly rounded
//! library routine where it has not (slower, same bits). The cache loops
//! (`jc`, `kc`, `ic`) tile space, and the `kc` loop runs in ascending
//! order with the partial sum stored back to `C` between blocks, so each
//! element sees one rounding chain in one order. Every term is
//! accumulated, zero coefficients included, so `0·NaN` and `0·inf`
//! propagate as IEEE 754 says. Results are therefore **bit-identical
//! across kernels, geometries, threads and hosts** (property-tested in
//! `tests/properties.rs`).
//!
//! Only this k-chain is fused. The graph and row kernels (`rowops` and
//! the sparse engine of `gnnopt-exec`) round `mul` and `add` separately.
//!
//! # Selection
//!
//! [`gemm`] is the one product: every `Linear`-family kernel of
//! `gnnopt-exec` calls it into a caller-owned output. It takes the widest
//! geometry the CPU runs (`is_x86_feature_detected!`; there is no
//! option): `12×32` with `avx512f` and `fma`, else `6×16` with `avx2`
//! and `fma`, else the portable `4×8`, the only path off x86-64. The `12×32` kernel is in
//! intrinsics because the generic body, compiled at `12×32` under
//! `avx512f,fma`, measured 19–26 GFLOP/s at 512³ on a 2-vCPU Xeon, below
//! the AVX2 kernel's 41–59; the intrinsics kernel measured 83–102 (one
//! thread). The naive loop, [`naive`], is the reference the tests hold
//! every geometry, layout and thread count to, bit for bit.

use crate::parallel::{available_threads, chunk_bounds as split_bounds};

/// Register-tile height of the portable microkernel: rows of `C` held in
/// registers.
pub const MR: usize = 4;

/// Register-tile width of the portable microkernel: columns of `C` held
/// in registers (two 128-bit SIMD lanes of `f32` on the x86-64 baseline).
pub const NR: usize = 8;

/// Register-tile height of the AVX2 microkernel (the BLIS `6×16` sgemm
/// shape: 12 `ymm` accumulators + 2 `B` lanes + 1 broadcast).
const MR_WIDE: usize = 6;

/// Register-tile width of the AVX2 microkernel.
const NR_WIDE: usize = 16;

/// Register-tile height of the AVX-512 microkernel (24 `zmm` accumulators,
/// 2 `B` lanes and 1 broadcast: 27 of the 32 registers).
const MR_512: usize = 12;

/// Register-tile width of the AVX-512 microkernel: two 16-lane `zmm`s.
const NR_512: usize = 32;

/// k-depth of one microkernel call (`A` tile: `KC×MR`, packed `B` panel:
/// `KC×NR` — both L1-resident alongside the register tile).
const KC: usize = 256;

/// Row count of one `A` block (a multiple of every register-tile
/// height, so interior blocks carry no ragged tiles).
const MC: usize = 96;

/// Column count of one packed `B` block (a multiple of every register-tile
/// width).
const NC: usize = 256;

/// Operand layout of a product `C[m,n] = A' · B'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `A = [m,k]`, `B = [k,n]`, both row-major (`Linear`'s `X·W`).
    Nn,
    /// `A = [k,m]` row-major, used transposed (`LinearBwdWeight`'s
    /// `∂L/∂W = Xᵀ·G`).
    Tn,
}

/// The `MH × NW` register-tiled microkernel body: accumulates `kc`
/// steps into a local tile, loading/storing only the `rows × cols` valid
/// region of `C`.
///
/// `B` arrives as a packed k-major panel. `A` is addressed through a
/// (row stride, k stride) pair — element `(r, kk)` of the tile is
/// `a[r * rs + kk * ks]` — so the same body reads a packed panel
/// (`(1, MH)`) or row-major `A` in place (`(lda, 1)`). Rows past a ragged
/// tile alias the last valid row: their accumulators are never stored,
/// and an in-place tile never reads outside its operand. `kc`, `rows`
/// and `cols` are at least 1 — the tile loops produce no empty tile.
///
/// Branch-free: each k-step is one fused multiply-add per element,
/// `acc = a.mul_add(b, acc)`, in ascending `k` — the rounding chain of
/// the naive loop, bit for bit (see the module docs).
///
/// `#[inline(always)]` so each instantiation site compiles the body under
/// its own target features (the AVX2 wrapper widens the same code to
/// 256-bit `vfmadd` lanes without a second implementation).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_body<const MH: usize, const NW: usize>(
    kc: usize,
    a: &[f32],
    (rs, ks): (usize, usize),
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    #[inline(always)]
    fn fmadd<const NW: usize>(acc: &mut [f32; NW], a: f32, b: &[f32; NW]) {
        for i in 0..NW {
            acc[i] = a.mul_add(b[i], acc[i]);
        }
    }
    // A full-width tile row moves as one fixed-size chunk: inline vector
    // moves, where a variable-length copy is a `memcpy` call per row.
    let mut acc = [[0.0f32; NW]; MH];
    for (r, accr) in acc.iter_mut().enumerate().take(rows) {
        let crow = &c[r * ldc..];
        if cols == NW {
            *accr = *crow.first_chunk().expect("a full tile row");
        } else {
            accr[..cols].copy_from_slice(&crow[..cols]);
        }
    }
    let arow: [&[f32]; MH] =
        std::array::from_fn(|r| &a[r.min(rows - 1) * rs..][..(kc - 1) * ks + 1]);
    let (bsteps, _) = bp[..kc * NW].as_chunks::<NW>();
    for (kk, bv) in bsteps.iter().enumerate() {
        for r in 0..MH {
            fmadd(&mut acc[r], arow[r][kk * ks], bv);
        }
    }
    for (r, accr) in acc.iter().enumerate().take(rows) {
        let crow = &mut c[r * ldc..];
        if cols == NW {
            *crow.first_chunk_mut().expect("a full tile row") = *accr;
        } else {
            crow[..cols].copy_from_slice(&accr[..cols]);
        }
    }
}

/// The AVX2 instantiation of [`micro_body`] at the wide `6×16` geometry.
/// Same Rust, compiled to 256-bit lanes: each `mul_add` is one `vfmadd`,
/// rounded once like the portable kernel's, so the two give the same
/// bits.
///
/// # Safety
///
/// The caller must have verified `avx2` and `fma` support
/// (`is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx2(
    kc: usize,
    a: &[f32],
    strides: (usize, usize),
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    micro_body::<MR_WIDE, NR_WIDE>(kc, a, strides, bp, c, ldc, rows, cols);
}

/// The AVX-512 `12×32` microkernel, in explicit intrinsics: the contract
/// of [`micro_body`] (same arguments, same aliased tail rows, one
/// `vfmadd` per element per k-step in ascending `k`, so the same bits).
/// `C` moves through `__mmask16` lane masks, so a ragged column tail
/// needs no scalar path. See the module docs for why this geometry is
/// not an instantiation of the generic body.
///
/// # Safety
///
/// The caller must have verified `avx512f` and `fma` support
/// (`is_x86_feature_detected!`). The operand extents are asserted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx512(
    kc: usize,
    a: &[f32],
    (rs, ks): (usize, usize),
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    use std::arch::x86_64::*;
    // Every raw access below stays inside these three extents.
    assert!(
        rows.min(kc) > 0 && a.len() > (rows - 1) * rs + (kc - 1) * ks,
        "A overruns"
    );
    assert!(bp.len() >= kc * NR_512, "B panel overruns");
    assert!(c.len() >= (rows - 1) * ldc + cols, "C tile overruns");
    // Lanes `< cols` of the two 16-lane halves of a tile row.
    let lanes = |n: usize| ((1u32 << n.min(16)) - 1) as __mmask16;
    let (m0, m1) = (lanes(cols), lanes(cols.saturating_sub(16)));
    let cp = c.as_mut_ptr();
    let crow = |r: usize| cp.wrapping_add(r.min(rows - 1) * ldc);
    let arow: [*const f32; MR_512] =
        std::array::from_fn(|r| a.as_ptr().wrapping_add(r.min(rows - 1) * rs));
    let mut acc = [[_mm512_setzero_ps(); 2]; MR_512];
    for (r, accr) in acc.iter_mut().enumerate() {
        let (p0, p1) = (crow(r), crow(r).wrapping_add(16));
        // SAFETY: row `min(r, rows − 1)`, lanes `< cols`: inside `c`.
        *accr = unsafe { [_mm512_maskz_loadu_ps(m0, p0), _mm512_maskz_loadu_ps(m1, p1)] };
    }
    for kk in 0..kc {
        // SAFETY: `kk < kc`, so `bp[kk·32..][..32]` is inside `bp` and
        // `arow[r] + kk·ks` inside the asserted extent of `a`.
        unsafe {
            let bk = bp.as_ptr().add(kk * NR_512);
            let (b0, b1) = (_mm512_loadu_ps(bk), _mm512_loadu_ps(bk.add(16)));
            for (ar, accr) in arow.iter().zip(&mut acc) {
                let av = _mm512_set1_ps(*ar.add(kk * ks));
                accr[0] = _mm512_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm512_fmadd_ps(av, b1, accr[1]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().filter(|&(r, _)| r < rows) {
        let p = crow(r);
        // SAFETY: row `r < rows`, lanes `< cols`: inside `c`.
        unsafe {
            _mm512_mask_storeu_ps(p, m0, accr[0]);
            _mm512_mask_storeu_ps(p.wrapping_add(16), m1, accr[1]);
        }
    }
}

/// Packs the `kc × cols` block starting at `(k0, c0)` of an operand
/// `X[kk, j] = x[kk*ld + j]` into k-major `W`-wide panels
/// (`buf[q][kk][c]`), zero-padding the tail panel; what a padded lane
/// accumulates is never stored back to `C`. `X` is `B` of either layout
/// — and the left operand of `Tn`, whose `[k, m]` storage is exactly
/// this for its `A` panels. See the module docs for which operands are
/// packed at all.
fn pack_panels<const W: usize>(
    x: &[f32],
    ld: usize,
    k0: usize,
    kc: usize,
    c0: usize,
    cols: usize,
    buf: &mut Vec<f32>,
) {
    let panels = cols.div_ceil(W);
    buf.clear();
    buf.resize(panels * kc * W, 0.0);
    for q in 0..panels {
        let (dst, _) = buf[q * kc * W..(q + 1) * kc * W].as_chunks_mut::<W>();
        let valid = W.min(cols - q * W);
        // Each k-row is contiguous in j. A full panel moves as fixed-size
        // chunks: inline vector moves, where a variable-length copy is
        // one `memcpy` call per `W` floats.
        for (kk, d) in dst.iter_mut().enumerate() {
            let src = &x[(k0 + kk) * ld + c0 + q * W..];
            if valid == W {
                *d = *src.first_chunk().expect("a full panel row");
            } else {
                d[..valid].copy_from_slice(&src[..valid]);
            }
        }
    }
}

/// Serial blocked GEMM over the output slab `out[m, n]` (row-major,
/// leading dimension `ldc`), whose global origin is `(i0, j0)` of the
/// full product, at register-tile geometry `MH × NW` with `micro` as the
/// instantiated microkernel. The GEBP loop nest: `jc` (B column blocks)
/// → `kc` (packed panel depth, increasing k) → `ic` (A row blocks) →
/// `jr`/`ir` micro-tiles.
#[allow(clippy::too_many_arguments)]
fn blocked_slab<const MH: usize, const NW: usize>(
    layout: Layout,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    (i0, m): (usize, usize),
    (j0, n): (usize, usize),
    k: usize,
    micro: impl Fn(usize, &[f32], (usize, usize), &[f32], &mut [f32], usize, usize, usize),
) {
    // Pack buffers cycle through the session buffer pool so a pinned
    // serial GEMM allocates nothing in steady state (worker threads have
    // no active pool scope and fall back to plain `Vec`s). The requests
    // are the largest block each panel loop will resize to.
    let (max_kc, max_mc, max_nc) = (KC.min(k), MC.min(m), NC.min(n));
    let mut bpack = crate::pool::take_work_f32(max_nc.div_ceil(NW) * NW * max_kc);
    // Only a transposed `A` is packed (a zero-sized request bypasses the
    // pool): `Nn` slabs take the one buffer for `B` and no other.
    let a_packed = layout == Layout::Tn;
    let apack_len = if a_packed {
        max_mc.div_ceil(MH) * MH * max_kc
    } else {
        0
    };
    let mut apack = crate::pool::take_work_f32(apack_len);
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for kc0 in (0..k).step_by(KC) {
            let kc = KC.min(k - kc0);
            pack_panels::<NW>(b, ldb, kc0, kc, j0 + jc, nc, &mut bpack);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                if a_packed {
                    pack_panels::<MH>(a, lda, kc0, kc, i0 + ic, mc, &mut apack);
                }
                for (q, jr) in (0..nc).step_by(NW).enumerate() {
                    let bp = &bpack[q * kc * NW..(q + 1) * kc * NW];
                    let cols = NW.min(nc - jr);
                    for (p, ir) in (0..mc).step_by(MH).enumerate() {
                        let (atile, strides) = if a_packed {
                            (&apack[p * kc * MH..(p + 1) * kc * MH], (1, MH))
                        } else {
                            (&a[(i0 + ic + ir) * lda + kc0..], (lda, 1))
                        };
                        let rows = MH.min(mc - ir);
                        let ctile = &mut out[(ic + ir) * ldc + jc + jr..];
                        micro(kc, atile, strides, bp, ctile, ldc, rows, cols);
                    }
                }
            }
        }
    }
    crate::pool::put_work_f32(apack);
    crate::pool::put_work_f32(bpack);
}

/// Runs one blocked slab at the widest geometry the CPU runs (see the
/// module docs' *Selection*). Geometry never affects results — every
/// output element keeps the same k-ordered chain of fused multiply-adds —
/// so the choice is purely a throughput one.
#[allow(clippy::too_many_arguments)]
fn blocked_dispatch(
    layout: Layout,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    rows: (usize, usize),
    cols: (usize, usize),
    k: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
        blocked_slab::<MR_512, NR_512>(
            layout,
            a,
            lda,
            b,
            ldb,
            out,
            ldc,
            rows,
            cols,
            k,
            |kc, a, strides, bp, c, ldc, r, cl| {
                // SAFETY: avx512f and fma support were just detected.
                unsafe { micro_avx512(kc, a, strides, bp, c, ldc, r, cl) }
            },
        );
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        blocked_slab::<MR_WIDE, NR_WIDE>(
            layout,
            a,
            lda,
            b,
            ldb,
            out,
            ldc,
            rows,
            cols,
            k,
            |kc, a, strides, bp, c, ldc, r, cl| {
                // SAFETY: avx2 and fma support were just detected.
                unsafe { micro_avx2(kc, a, strides, bp, c, ldc, r, cl) }
            },
        );
        return;
    }
    blocked_slab::<MR, NR>(
        layout,
        a,
        lda,
        b,
        ldb,
        out,
        ldc,
        rows,
        cols,
        k,
        micro_body::<MR, NR>,
    );
}

/// Serial naive GEMM over the same slab interface as [`blocked_slab`]:
/// the reference loops, restricted to an output sub-rectangle.
#[allow(clippy::too_many_arguments)]
fn naive_slab(
    layout: Layout,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    (i0, m): (usize, usize),
    (j0, n): (usize, usize),
    k: usize,
) {
    match layout {
        // ikj: stream B rows against the output row.
        Layout::Nn => {
            for i in 0..m {
                let arow = &a[(i0 + i) * lda..(i0 + i) * lda + k];
                let orow = &mut out[i * ldc..i * ldc + n];
                for (kk, &av) in arow.iter().enumerate() {
                    let brow = &b[kk * ldb + j0..kk * ldb + j0 + n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = av.mul_add(bv, *o);
                    }
                }
            }
        }
        // kij: stream A rows (columns of the logical Aᵀ) outermost.
        Layout::Tn => {
            for kk in 0..k {
                let arow = &a[kk * lda + i0..kk * lda + i0 + m];
                let brow = &b[kk * ldb + j0..kk * ldb + j0 + n];
                for (i, &av) in arow.iter().enumerate() {
                    let orow = &mut out[i * ldc..i * ldc + n];
                    for (ov, &bv) in orow.iter_mut().zip(brow) {
                        *ov = av.mul_add(bv, *ov);
                    }
                }
            }
        }
    }
}

/// Row-major leading dimensions `(lda, ldb)` of the operands of an
/// `m × k × n` product in `layout`.
fn leading_dims(layout: Layout, m: usize, k: usize, n: usize) -> (usize, usize) {
    match layout {
        Layout::Nn => (k, n),
        Layout::Tn => (m, n),
    }
}

/// The reference product: `A'·B'` accumulated into `out[m,n]` by the
/// naive loops, on the calling thread. Every term in ascending `k`, one
/// fused multiply-add each — the chain [`gemm`] reproduces bit for bit
/// (see the module docs). Operand shapes as for [`gemm`].
///
/// # Panics
///
/// Panics on operand slices shorter than the shapes imply.
pub fn naive(layout: Layout, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let (lda, ldb) = leading_dims(layout, m, k, n);
    naive_slab(layout, a, lda, b, ldb, out, n, (0, m), (0, n), k);
}

/// The product every dense kernel runs: computes `A'·B'` on the blocked
/// engine into `out[m,n]`, which the caller **must pass zero-filled**
/// (the serial paths accumulate into it while the parallel `Tn` path
/// assembles worker slabs, so any other starting contents give
/// path-dependent results), on `threads` workers.
///
/// Parallelism partitions **output rows** for `Nn` and **output
/// column blocks** for `Tn` (the `∂L/∂W` shape is a wide reduction: `m`
/// and `n` are feature widths while `k` is the huge vertex count, so
/// column blocks keep every worker streaming the full `k` extent of both
/// operands sequentially). No floating-point accumulation crosses a
/// partition boundary, so the result is **bit-identical** for any
/// `threads` value, and to [`naive`].
///
/// Operand shapes per `layout` (all row-major):
/// `Nn`: `a = [m,k]`, `b = [k,n]` · `Tn`: `a = [k,m]`, `b = [k,n]`.
///
/// # Panics
///
/// Panics on operand slices shorter than the shapes imply.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    let (lda, ldb) = leading_dims(layout, m, k, n);
    if layout == Layout::Tn {
        // Column-block partition: each worker owns out[.., j0..j1),
        // computed into a dense local slab and stitched back serially.
        let workers = threads.clamp(1, n);
        if workers < 2 {
            blocked_dispatch(layout, a, lda, b, ldb, out, n, (0, m), (0, n), k);
            return;
        }
        let bounds = split_bounds(n, workers);
        let slabs: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = bounds
                .windows(2)
                .map(|w| {
                    let (j0, j1) = (w[0], w[1]);
                    s.spawn(move || {
                        let mut local = vec![0.0f32; m * (j1 - j0)];
                        blocked_dispatch(
                            layout,
                            a,
                            lda,
                            b,
                            ldb,
                            &mut local,
                            j1 - j0,
                            (0, m),
                            (j0, j1 - j0),
                            k,
                        );
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gemm worker panicked"))
                .collect()
        });
        for (w, slab) in bounds.windows(2).zip(slabs) {
            let (j0, j1) = (w[0], w[1]);
            let width = j1 - j0;
            for r in 0..m {
                out[r * n + j0..r * n + j1].copy_from_slice(&slab[r * width..(r + 1) * width]);
            }
        }
    } else {
        // Row partition: contiguous disjoint output slabs.
        let workers = threads.clamp(1, m);
        if workers < 2 {
            blocked_dispatch(layout, a, lda, b, ldb, out, n, (0, m), (0, n), k);
            return;
        }
        let bounds = split_bounds(m, workers);
        let mut rest = &mut out[..];
        let mut chunks = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_at_mut((w[1] - w[0]) * n);
            chunks.push((w[0], head));
            rest = tail;
        }
        std::thread::scope(|s| {
            for (i0, chunk) in chunks {
                let rows = chunk.len() / n;
                s.spawn(move || {
                    blocked_dispatch(layout, a, lda, b, ldb, chunk, n, (i0, rows), (0, n), k);
                });
            }
        });
    }
}

/// Below this many multiply-adds a product stays single-threaded
/// (thread spawning would dominate).
const PARALLEL_THRESHOLD: usize = 1 << 20;

/// The worker count for a product of `work = m·k·n` multiply-adds
/// with no cap of its own: serial below the spawn amortization
/// threshold, else the shared pool size.
pub fn auto_threads(work: usize) -> usize {
    if work < PARALLEL_THRESHOLD {
        1
    } else {
        available_threads()
    }
}

/// The worker count for a product pinned to an explicit `threads` cap
/// (how a session's resolved `ExecPolicy::threads` governs its GEMMs
/// instead of the process-wide pool): still serial below the spawn
/// amortization threshold, never wider than the cap. `0` falls back to
/// [`auto_threads`].
pub fn pinned_threads(work: usize, threads: usize) -> usize {
    if threads == 0 {
        auto_threads(work)
    } else if work < PARALLEL_THRESHOLD {
        1
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `A'·B'` into a zeroed output: by [`naive`] for `threads = None`,
    /// else by [`gemm`] on that many workers.
    fn product(
        layout: Layout,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        threads: Option<usize>,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        match threads {
            None => naive(layout, a, b, &mut out, m, k, n),
            Some(t) => gemm(layout, a, b, &mut out, m, k, n, t),
        }
        out
    }

    /// Full-mantissa values in `[-3, 3)`: products and partial sums
    /// round, so a kernel off the reference's rounding chain shows.
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((h ^ (h >> 31)) >> 40) as f32 / (1u64 << 24) as f32 * 6.0 - 3.0
            })
            .collect()
    }

    #[test]
    fn blocked_matches_reference_on_ragged_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 9),
            (5, 1, 3),
            (3, 4, 1),
            (MR, KC, NR),
            (MR + 1, 3, NR + 1),
            (2 * MR + 3, KC + 5, 2 * NR + 7),
            (MC + MR + 1, 17, NC + NR + 2),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let want = product(Layout::Nn, &a, &b, (m, k, n), None);
            for threads in [1usize, 3] {
                let out = product(Layout::Nn, &a, &b, (m, k, n), Some(threads));
                assert_eq!(out, want, "Nn m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    /// Holds one register-tile geometry — in-place `A` tiles, aliased
    /// tail rows and masked column tails included — to the naive loops,
    /// slab by slab, at origins a parallel partition would produce: both
    /// layouts, `k` ∈ {1, 7, `KC` + 9}, every row count 1..=13, every
    /// column count 1..=33 (each lane mask of the 32-lane tile), and
    /// extents past one `MC` row block. `C` starts non-zero, and each of
    /// its rows is followed by a 3-float gap of `−0.0`. A padded lane
    /// accumulates `a·(+0)`, so a stray store leaves most values as they
    /// were, but it turns `−0.0` into `+0.0` for any positive `a`:
    /// compared bit for bit, a lane stored outside its mask shows.
    fn check_geometry<const MH: usize, const NW: usize>(
        micro: impl Fn(usize, &[f32], (usize, usize), &[f32], &mut [f32], usize, usize, usize),
    ) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (big_m, big_n) = (MC + MR_512 + 5, 2 * NR_512 + 5);
        let row_sets: Vec<_> = (1..=13).map(|m| (3, m)).chain([(0, big_m)]).collect();
        let col_sets: Vec<_> = (1..=33).map(|n| (5, n)).chain([(0, big_n)]).collect();
        for k in [1usize, 7, KC + 9] {
            for layout in [Layout::Nn, Layout::Tn] {
                let a = fill(big_m * k, 5);
                let b = fill(k * big_n, 6);
                let (lda, ldb) = match layout {
                    Layout::Nn => (k, big_n),
                    Layout::Tn => (big_m, big_n),
                };
                for &rows in &row_sets {
                    for &cols in &col_sets {
                        let ldc = cols.1 + 3;
                        let mut want: Vec<f32> = fill(rows.1 * ldc, 7)
                            .into_iter()
                            .enumerate()
                            .map(|(i, x)| if i % ldc < cols.1 { x } else { -0.0 })
                            .collect();
                        let mut out = want.clone();
                        naive_slab(layout, &a, lda, &b, ldb, &mut want, ldc, rows, cols, k);
                        blocked_slab::<MH, NW>(
                            layout, &a, lda, &b, ldb, &mut out, ldc, rows, cols, k, &micro,
                        );
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "{MH}x{NW} {layout:?} k={k} rows={rows:?} cols={cols:?}"
                        );
                    }
                }
            }
        }
    }

    /// [`gemm`] takes the widest geometry the host runs,
    /// so each geometry is held to the naive loops here directly; one
    /// the CPU lacks is skipped, and the test prints which ran.
    #[test]
    fn every_geometry_is_bit_identical_to_naive() {
        check_geometry::<MR, NR>(micro_body::<MR, NR>);
        println!("gemm geometry 4x8 portable: checked");
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                check_geometry::<MR_WIDE, NR_WIDE>(|kc, a, s, bp, c, ldc, r, cl| {
                    // SAFETY: avx2 and fma support were just detected.
                    unsafe { micro_avx2(kc, a, s, bp, c, ldc, r, cl) }
                });
                println!("gemm geometry 6x16 avx2: checked");
            } else {
                println!("gemm geometry 6x16 avx2: skipped, this CPU lacks avx2 or fma");
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
                check_geometry::<MR_512, NR_512>(|kc, a, s, bp, c, ldc, r, cl| {
                    // SAFETY: avx512f and fma support were just detected.
                    unsafe { micro_avx512(kc, a, s, bp, c, ldc, r, cl) }
                });
                println!("gemm geometry 12x32 avx512f: checked");
            } else {
                println!("gemm geometry 12x32 avx512f: skipped, this CPU lacks avx512f or fma");
            }
        }
    }

    /// A tile whose operands are shorter than its extents panics at the
    /// AVX-512 kernel's entry asserts instead of reading past them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_kernel_asserts_its_operand_extents() {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma")) {
            println!("gemm geometry 12x32 avx512f: skipped, this CPU lacks avx512f or fma");
            return;
        }
        let (kc, rows, cols, ldc) = (5, 3, 20, 24);
        let (a, bp) = (vec![1.0f32; rows * kc], vec![1.0f32; kc * NR_512]);
        let c_len = (rows - 1) * ldc + cols;
        let panics = |a: &[f32], bp: &[f32], c_len: usize| {
            let mut c = vec![0.0f32; c_len];
            std::panic::catch_unwind(move || {
                // SAFETY: avx512f and fma support were just detected.
                unsafe { micro_avx512(kc, a, (kc, 1), bp, &mut c, ldc, rows, cols) }
            })
            .is_err()
        };
        assert!(!panics(&a, &bp, c_len));
        assert!(panics(&a[..a.len() - 1], &bp, c_len));
        assert!(panics(&a, &bp[..bp.len() - 1], c_len));
        assert!(panics(&a, &bp, c_len - 1));
    }

    #[test]
    fn layouts_agree_with_explicit_transposes() {
        let (m, k, n) = (9usize, 13, 11);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let want = product(Layout::Nn, &a, &b, (m, k, n), None);
        // Tn: store A as [k, m].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        for threads in [None, Some(1), Some(4)] {
            let out = product(Layout::Tn, &at, &b, (m, k, n), threads);
            let max = out
                .iter()
                .zip(&want)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(max < 1e-4, "Tn threads={threads:?}: {max}");
        }
    }

    /// A zero coefficient multiplied into a NaN/inf operand must yield
    /// NaN in the product (IEEE 754): a silently clean output would mask
    /// divergence during training. Both layouts, the reference and the
    /// engine at every worker count accumulate every term, so this holds
    /// unconditionally.
    #[test]
    fn zero_times_nan_propagates() {
        let products = |a: [f32; 2], b: [f32; 4]| {
            // `a` is a `[1, 2]` row: as a `Tn` left operand it is `[2, 1]`
            // storage, the same two floats.
            [Layout::Nn, Layout::Tn]
                .into_iter()
                .flat_map(move |layout| {
                    [None, Some(1), Some(4)].map(|threads| {
                        (layout, threads, product(layout, &a, &b, (1, 2, 2), threads))
                    })
                })
        };
        for (layout, threads, c) in products([0.0, 1.0], [f32::NAN, f32::INFINITY, 2.0, 3.0]) {
            assert!(c[0].is_nan(), "{layout:?} {threads:?}: 0·NaN + finite");
            assert!(c[1].is_nan(), "{layout:?} {threads:?}: 0·inf + finite");
        }
        let neg = [f32::NEG_INFINITY, 1.0, 2.0, f32::NAN];
        for (layout, threads, c) in products([0.0, 1.0], neg) {
            assert!(c[0].is_nan(), "{layout:?} {threads:?}: 0·−inf + finite");
            assert!(c[1].is_nan(), "{layout:?} {threads:?}: 0·1 + 1·NaN");
        }
        // A sparse left operand against a finite right one still yields
        // the plain product.
        for (layout, threads, c) in products([0.0, 2.0], [5.0, -1.0, 0.5, 4.0]) {
            assert_eq!(c, [1.0, 8.0], "{layout:?} {threads:?}");
        }
    }

    #[test]
    fn empty_extents_are_noops() {
        let mut out = vec![0.0f32; 0];
        gemm(Layout::Nn, &[], &[], &mut out, 0, 0, 0, 4);
        // k = 0 with nonzero m, n leaves the zeroed output untouched.
        for threads in [None, Some(1)] {
            assert_eq!(product(Layout::Nn, &[], &[], (2, 0, 3), threads), [0.0; 6]);
        }
    }
}
