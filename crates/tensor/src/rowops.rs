//! Vectorized feature-axis row operations: the single source of truth
//! for the inner loops of the graph kernels.
//!
//! Every hot loop in a GNN step that is not a GEMM walks *feature rows*
//! — accumulate an edge row into a vertex row, scale a row, apply an
//! elementwise function across a row. Before this module each call site
//! spelled its own `for` loop; `gnnopt-exec`'s reference kernels and its
//! fused tiled interpreter each had a copy, and staying bit-identical
//! between the two was a discipline, not a construction. Now both paths
//! call these functions, so they share one set of inner loops by
//! definition.
//!
//! # SIMD dispatch
//!
//! Each primitive has exactly one loop body, defined in [`scalar`]. On
//! x86-64 the same body is additionally monomorphized inside a
//! `#[target_feature(enable = "avx2")]` wrapper, so LLVM revectorizes it
//! at 8 lanes; a process-wide [`is_x86_feature_detected!`] check (cached
//! once) picks the wide build at runtime, mirroring the geometry-selection
//! pattern of the [`crate::gemm`] module. Because both monomorphizations
//! compile the *same* Rust body — IEEE element operations, no
//! fused-multiply-add contraction (only `avx2` is enabled, and Rust never
//! contracts) — the two paths are bit-identical by construction, and
//! `dispatched_paths_are_bit_identical_to_scalar` pins it for every
//! entry point at every row length.
//!
//! Accumulation order within a row is element-independent (no horizontal
//! reductions), so vectorization never reorders floating-point math:
//! each output element keeps the exact rounding chain of the scalar
//! loop. The `exp`-based softmax rows call `libm` per element and do not
//! vectorize on either path; they are dispatched anyway so the module
//! has one uniform rule. Rows shorter than one AVX2 vector ([`NARROW`])
//! run the portable body inline on both paths, many to a call (`*_rows`).

/// True when the AVX2 monomorphizations should be used: AVX2 detected at
/// runtime (the standard library caches the CPUID probe, so this is one
/// atomic load per call).
#[cfg(target_arch = "x86_64")]
#[inline]
fn use_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Rows shorter than one AVX2 vector take the portable body inline: the
/// wide build cannot use its lanes on them, and the out-of-line call into
/// it (the `target_feature` boundary is never inlined) costs more than
/// the two- or four-element loop itself. Same body, so the same bits.
/// Even inline, a call per row is most of what such a row costs — a GAT
/// step has millions of attention-score rows (`E[heads]`) — so the
/// program interpreter, by this same threshold, runs them a strip or a
/// group to a call ([`gather_rows`], the `*_rows` sweeps).
pub const NARROW: usize = 8;

/// The portable loop bodies — the *definition* of every primitive, and
/// the only path on hosts without AVX2. The AVX2 path re-monomorphizes
/// these exact functions with wider codegen; tests call them directly to
/// pin bit-identity against the dispatched entry points.
pub mod scalar {
    /// `o[i] += x[i]` (the `Gather(Sum)` inner loop).
    #[inline(always)]
    pub fn add_assign(o: &mut [f32], x: &[f32]) {
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov += xv;
        }
    }

    /// `o[i] += alpha · x[i]` (the `Gather(Mean)` inner loop).
    #[inline(always)]
    pub fn axpy(o: &mut [f32], alpha: f32, x: &[f32]) {
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov += alpha * xv;
        }
    }

    /// `o[i] = alpha · x[i]` (the `GatherMeanBwd` row expression).
    #[inline(always)]
    pub fn scale_into(o: &mut [f32], alpha: f32, x: &[f32]) {
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov = alpha * xv;
        }
    }

    /// `o[i] = max(o[i], x[i])` (the edge-softmax max sweep).
    #[inline(always)]
    pub fn max_assign(o: &mut [f32], x: &[f32]) {
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov = ov.max(xv);
        }
    }

    /// `o[i] += a[i] · b[i]` (a folded equal-width product's group sum,
    /// as the softmax backward's `Σ g·y`).
    #[inline(always)]
    pub fn mul_add_accum(o: &mut [f32], a: &[f32], b: &[f32]) {
        for ((ov, &av), &bv) in o.iter_mut().zip(a).zip(b) {
            *ov += av * bv;
        }
    }

    /// `o[i] += x[i] · s[i]` — `alpha · (x[i] · s[i])` given `alpha`; `s[h]`
    /// for head `h`'s `feat` features when `s` holds a scalar per head (a
    /// folded product under `Gather(Sum | Mean)`).
    #[inline(always)]
    pub fn mul_accum(o: &mut [f32], alpha: Option<f32>, x: &[f32], s: &[f32], feat: usize) {
        let feat = if s.len() == x.len() { 1 } else { feat };
        let heads = o.chunks_exact_mut(feat).zip(x.chunks_exact(feat)).zip(s);
        for ((oh, xh), &sv) in heads {
            match alpha {
                None => (oh.iter_mut().zip(xh)).for_each(|(ov, &xv)| *ov += xv * sv),
                Some(a) => (oh.iter_mut().zip(xh)).for_each(|(ov, &xv)| *ov += a * (xv * sv)),
            }
        }
    }

    /// `o[i] = f(o[i], b[i])` (the equal-width `Binary` kernel, whose
    /// output starts as a copy of the left operand).
    #[inline(always)]
    pub fn binary_assign(o: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
        for (ov, &bv) in o.iter_mut().zip(b) {
            *ov = f(*ov, bv);
        }
    }

    /// `o[i] = f(a[i], b[i])` (the per-edge `Scatter(Bin)` expression).
    #[inline(always)]
    pub fn zip2_into(o: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
        for ((ov, &av), &bv) in o.iter_mut().zip(a).zip(b) {
            *ov = f(av, bv);
        }
    }

    /// `o[i] = f(o[i])` (the `Unary` kernel over a pre-copied buffer).
    #[inline(always)]
    pub fn map_assign(o: &mut [f32], f: impl Fn(f32) -> f32) {
        for ov in o.iter_mut() {
            *ov = f(*ov);
        }
    }

    /// `o[i] = f(x[i])` (the `Unary` step of the fused interpreter: one
    /// pass, no intermediate copy).
    #[inline(always)]
    pub fn map_into(o: &mut [f32], x: &[f32], f: impl Fn(f32) -> f32) {
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov = f(xv);
        }
    }

    /// `o[h·feat + c] = f(x[h·feat + c], s[h])`: one scalar per head
    /// against that head's `feat` features (a head-broadcast `Binary`
    /// row), all heads in one call.
    #[inline(always)]
    pub fn map_heads_into(
        o: &mut [f32],
        x: &[f32],
        s: &[f32],
        feat: usize,
        f: impl Fn(f32, f32) -> f32,
    ) {
        for (h, &sv) in s.iter().enumerate() {
            let span = h * feat..(h + 1) * feat;
            for (ov, &xv) in o[span.clone()].iter_mut().zip(&x[span]) {
                *ov = f(xv, sv);
            }
        }
    }

    /// `t[i] = exp(x[i] − m[i]); d[i] += t[i]` — the edge-softmax
    /// denominator sweep, which also keeps the exponential, so the edge
    /// softmax calls `exp` once per element: its last sweep is
    /// [`div_assign`] over `t`.
    #[inline(always)]
    pub fn exp_sub_store_accum(d: &mut [f32], t: &mut [f32], x: &[f32], m: &[f32]) {
        for (((dv, tv), &xv), &mv) in d.iter_mut().zip(t).zip(x).zip(m) {
            *tv = (xv - mv).exp();
            *dv += *tv;
        }
    }

    /// `y[i] = y[i] / d[i]`: over a row [`exp_sub_store_accum`] left,
    /// the edge-softmax output row `exp(x − m) / d`.
    #[inline(always)]
    pub fn div_assign(y: &mut [f32], d: &[f32]) {
        for (yv, &dv) in y.iter_mut().zip(d) {
            *yv /= dv;
        }
    }
}

/// Index of the first non-finite element of `x` (NaN or ±inf), or
/// `None` when every element is finite — the numeric guard's one
/// streaming pass over a kernel output.
///
/// Unlike the primitives above this returns a value, so it is not
/// routed through the AVX2 dispatcher; instead it folds a branch-free
/// all-finite flag per fixed-width chunk (which LLVM vectorizes on its
/// own) and only a failing chunk pays the positional rescan. There is
/// no floating-point arithmetic here, so bit-identity is not at stake.
#[inline]
pub fn first_nonfinite(x: &[f32]) -> Option<usize> {
    const CHUNK: usize = 64;
    let mut base = 0;
    for c in x.chunks(CHUNK) {
        let all_finite = c.iter().fold(true, |ok, v| ok & v.is_finite());
        if !all_finite {
            return c.iter().position(|v| !v.is_finite()).map(|i| base + i);
        }
        base += c.len();
    }
    None
}

/// Generates, for one primitive, the AVX2 monomorphization of its
/// [`scalar`] body plus the public runtime-dispatched entry point. The
/// macro forwards arguments verbatim, so the two paths can never diverge
/// in semantics — only in codegen width (chosen by the length of the
/// output row, always the first argument).
macro_rules! avx2_dispatched {
    ($(#[$doc:meta])* $name:ident, $avx2:ident,
     ($out:ident: $out_ty:ty $(, $arg:ident: $ty:ty)*)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2($out: $out_ty $(, $arg: $ty)*) {
            scalar::$name($out $(, $arg)*)
        }

        $(#[$doc])*
        #[inline]
        pub fn $name($out: $out_ty $(, $arg: $ty)*) {
            #[cfg(target_arch = "x86_64")]
            if $out.len() >= NARROW && use_avx2() {
                // SAFETY: `use_avx2()` verified AVX2 support at runtime.
                return unsafe { $avx2($out $(, $arg)*) };
            }
            scalar::$name($out $(, $arg)*)
        }
    };
}

avx2_dispatched!(
    /// `o[i] += x[i]` (the `Gather(Sum)` inner loop).
    add_assign, add_assign_avx2, (o: &mut [f32], x: &[f32])
);
avx2_dispatched!(
    /// `o[i] += alpha · x[i]` (the `Gather(Mean)` inner loop).
    axpy, axpy_avx2, (o: &mut [f32], alpha: f32, x: &[f32])
);
avx2_dispatched!(
    /// `o[i] = alpha · x[i]` (the `GatherMeanBwd` row expression).
    scale_into, scale_into_avx2, (o: &mut [f32], alpha: f32, x: &[f32])
);
avx2_dispatched!(
    /// `o[i] = max(o[i], x[i])` (the edge-softmax max sweep).
    max_assign, max_assign_avx2, (o: &mut [f32], x: &[f32])
);
avx2_dispatched!(
    /// `o[i] += a[i] · b[i]` (a folded equal-width product's group sum,
    /// as the softmax backward's `Σ g·y`).
    mul_add_accum, mul_add_accum_avx2, (o: &mut [f32], a: &[f32], b: &[f32])
);
avx2_dispatched!(
    /// [`scalar::mul_accum`]: a folded product under `Gather(Sum | Mean)`.
    mul_accum, mul_accum_avx2,
    (o: &mut [f32], alpha: Option<f32>, x: &[f32], s: &[f32], feat: usize)
);
avx2_dispatched!(
    /// `t[i] = exp(x[i] − m[i]); d[i] += t[i]` (the edge softmax's
    /// denominator sweep, keeping the exponential for [`div_assign`]).
    exp_sub_store_accum, exp_sub_store_accum_avx2,
    (d: &mut [f32], t: &mut [f32], x: &[f32], m: &[f32])
);
avx2_dispatched!(
    /// `y[i] = y[i] / d[i]` (the edge softmax's last sweep).
    div_assign, div_assign_avx2, (y: &mut [f32], d: &[f32])
);

// The closure-parameterized primitives are dispatched by hand: each AVX2
// wrapper is generic over the closure, so the caller's element expression
// is inlined *inside* the `target_feature` context and vectorized at the
// same width as the fixed-form primitives above.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn binary_assign_avx2<F: Fn(f32, f32) -> f32>(o: &mut [f32], b: &[f32], f: F) {
    scalar::binary_assign(o, b, f)
}

/// `o[i] = f(o[i], b[i])` (the equal-width `Binary` kernel, whose output
/// starts as a copy of the left operand).
#[inline]
pub fn binary_assign(o: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if o.len() >= NARROW && use_avx2() {
        // SAFETY: `use_avx2()` verified AVX2 support at runtime.
        return unsafe { binary_assign_avx2(o, b, f) };
    }
    scalar::binary_assign(o, b, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn zip2_into_avx2<F: Fn(f32, f32) -> f32>(o: &mut [f32], a: &[f32], b: &[f32], f: F) {
    scalar::zip2_into(o, a, b, f)
}

/// `o[i] = f(a[i], b[i])` (the per-edge `Scatter(Bin)` expression).
#[inline]
pub fn zip2_into(o: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if o.len() >= NARROW && use_avx2() {
        // SAFETY: `use_avx2()` verified AVX2 support at runtime.
        return unsafe { zip2_into_avx2(o, a, b, f) };
    }
    scalar::zip2_into(o, a, b, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_assign_avx2<F: Fn(f32) -> f32>(o: &mut [f32], f: F) {
    scalar::map_assign(o, f)
}

/// `o[i] = f(o[i])` (the `Unary` kernel over a pre-copied buffer).
#[inline]
pub fn map_assign(o: &mut [f32], f: impl Fn(f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if o.len() >= NARROW && use_avx2() {
        // SAFETY: `use_avx2()` verified AVX2 support at runtime.
        return unsafe { map_assign_avx2(o, f) };
    }
    scalar::map_assign(o, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_into_avx2<F: Fn(f32) -> f32>(o: &mut [f32], x: &[f32], f: F) {
    scalar::map_into(o, x, f)
}

/// `o[i] = f(x[i])` (the `Unary` step of the fused interpreter: one pass,
/// no intermediate copy).
#[inline]
pub fn map_into(o: &mut [f32], x: &[f32], f: impl Fn(f32) -> f32) {
    #[cfg(target_arch = "x86_64")]
    if o.len() >= NARROW && use_avx2() {
        // SAFETY: `use_avx2()` verified AVX2 support at runtime.
        return unsafe { map_into_avx2(o, x, f) };
    }
    scalar::map_into(o, x, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_heads_into_avx2<F: Fn(f32, f32) -> f32>(
    o: &mut [f32],
    x: &[f32],
    s: &[f32],
    feat: usize,
    f: F,
) {
    scalar::map_heads_into(o, x, s, feat, f)
}

/// `o[h·feat + c] = f(x[h·feat + c], s[h])` (a head-broadcast `Binary`
/// row: one call for all heads — at two heads of 32 features the call
/// into the wide build costs as much as a head's loop).
#[inline]
pub fn map_heads_into(
    o: &mut [f32],
    x: &[f32],
    s: &[f32],
    feat: usize,
    f: impl Fn(f32, f32) -> f32,
) {
    #[cfg(target_arch = "x86_64")]
    if o.len() >= NARROW && use_avx2() {
        // SAFETY: `use_avx2()` verified AVX2 support at runtime.
        return unsafe { map_heads_into_avx2(o, x, s, feat, f) };
    }
    scalar::map_heads_into(o, x, s, feat, f)
}

// Narrow rows, many to a call. A block is consecutive `w`-wide rows; a
// `*_rows` function applies the per-row primitive it is named after to
// every row of its blocks, in ascending order, against the one row their
// reduction group shares — the per-row sweep's bits by construction (the
// oracle in `gnnopt-exec`'s kernels stays per-row).

/// Runs `$body` with `$w` bound to a row width: a literal for each narrow
/// width, so the row loops unroll and the dispatched primitives fold to
/// their inline bodies; a wider row (it amortizes its own calls) runs the
/// same text on a variable, width 0 nothing.
macro_rules! with_width {
    ($width:expr, $w:ident => $body:expr) => {
        with_width!($width, $w => $body, 1 2 3 4 5 6 7)
    };
    ($width:expr, $w:ident => $body:expr, $($n:literal)+) => {
        match $width {
            0 => {}
            $($n => {
                let $w = $n;
                $body
            })+
            $w => $body,
        }
    };
}

/// `o[i·w..][..w] = data[(idx[i] − first)·w..][..w]`: the rows an endpoint
/// array names, staged consecutively (`first`: the first row `data` holds).
#[inline]
pub fn gather_rows(o: &mut [f32], data: &[f32], width: usize, idx: &[u32], first: usize) {
    with_width!(width, w => for (or, &r) in o.chunks_exact_mut(w).zip(idx) {
        let at = (r as usize - first) * w;
        or.copy_from_slice(&data[at..at + w]);
    });
}

/// `o[h] = Σ_c x[h·feat + c] · s[h·feat + c]` — `· s[h]` when `s` holds
/// one scalar per head: a folded product under `FeatSum`, each product
/// rounded, then summed as [`feat_sum`] sums a row (`Iterator::sum`, in
/// feature order).
#[inline]
pub fn mul_feat_sum(o: &mut [f32], x: &[f32], s: &[f32], feat: usize) {
    for (h, (ov, xh)) in o.iter_mut().zip(x.chunks_exact(feat)).enumerate() {
        *ov = if s.len() == x.len() {
            let sh = &s[h * feat..(h + 1) * feat];
            xh.iter().zip(sh).map(|(&xv, &sv)| xv * sv).sum()
        } else {
            xh.iter().map(|&xv| xv * s[h]).sum()
        };
    }
}

/// Rows [`mul_feat_sum_rows`] sums at once, one AVX2 lane each.
pub const LANES: usize = 8;

/// [`mul_feat_sum`] of `o.len() / heads` rows, `row(i)` giving row `i`'s
/// `(x, s)`: with AVX2 and eight features a head or more, [`LANES`] rows
/// at once, a lane each — products rounded eight features of a row at a
/// time, turned so each lane holds its row's and added in feature order
/// from `−0.0`: the one-row form's association, eight add chains a step.
#[inline]
pub fn mul_feat_sum_rows<'a>(
    o: &mut [f32],
    heads: usize,
    feat: usize,
    row: impl Fn(usize) -> (&'a [f32], &'a [f32]),
) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if feat >= LANES && use_avx2() {
        for (b, ob) in o.chunks_exact_mut(LANES * heads).enumerate() {
            let rows: [_; LANES] = std::array::from_fn(|l| row(b * LANES + l));
            // SAFETY: `use_avx2()` verified AVX2 support at runtime.
            unsafe { mul_feat_sum_lanes_avx2(ob, rows, feat) };
            done += LANES;
        }
    }
    for (i, or) in o.chunks_exact_mut(heads).enumerate().skip(done) {
        let (x, s) = row(i);
        mul_feat_sum(or, x, s, feat);
    }
}

/// [`mul_feat_sum`] of `rows` into `o[l·heads + h]`, lane `l` row `l`'s.
///
/// # Safety
///
/// The CPU must support AVX2 (every load reads a checked 8-float slice).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_feat_sum_lanes_avx2(o: &mut [f32], rows: [(&[f32], &[f32]); LANES], feat: usize) {
    use std::arch::x86_64::*;
    let heads = o.len() / LANES;
    for h in 0..heads {
        let at = h * feat;
        let mut acc = _mm256_set1_ps(-0.0);
        let mut c = 0;
        while c + LANES <= feat {
            // Row `l`'s products of features `c..c + 8`, one vector a row.
            let p: [__m256; LANES] = std::array::from_fn(|l| {
                let ((x, s), span) = (rows[l], at + c..at + c + LANES);
                let sv = match s.len() == x.len() {
                    true => _mm256_loadu_ps(s[span.clone()].as_ptr()),
                    false => _mm256_set1_ps(s[h]),
                };
                _mm256_mul_ps(_mm256_loadu_ps(x[span].as_ptr()), sv)
            });
            // Transposed: vector `j` holds every row's feature `c + j`.
            let t: [__m256; LANES] = std::array::from_fn(|i| {
                let (a, b) = (p[i & !1], p[i | 1]);
                [_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b)][i % 2]
            });
            let u: [__m256; LANES] = std::array::from_fn(|i| {
                let (a, b) = (t[i / 4 * 4 + i / 2 % 2], t[i / 4 * 4 + i / 2 % 2 + 2]);
                [
                    _mm256_shuffle_ps::<0x44>(a, b),
                    _mm256_shuffle_ps::<0xEE>(a, b),
                ][i % 2]
            });
            for j in 0..LANES {
                let (a, b) = (u[j % 4], u[j % 4 + 4]);
                let v = [
                    _mm256_permute2f128_ps::<0x20>(a, b),
                    _mm256_permute2f128_ps::<0x31>(a, b),
                ];
                acc = _mm256_add_ps(acc, v[j / 4]);
            }
            c += LANES;
        }
        let mut sums = [0.0f32; LANES];
        _mm256_storeu_ps(sums.as_mut_ptr(), acc);
        for (l, (sum, &(x, s))) in sums.iter_mut().zip(&rows).enumerate() {
            let sv = |k: usize| if s.len() == x.len() { s[at + k] } else { s[h] };
            for k in c..feat {
                *sum += x[at + k] * sv(k);
            }
            o[l * heads + h] = *sum;
        }
    }
}

/// `FeatSum`'s row: `o[h] = Σ_c x[h·feat + c]` (`Iterator::sum`, in
/// feature order).
#[inline]
pub fn feat_sum(o: &mut [f32], x: &[f32], feat: usize) {
    for (h, ov) in o.iter_mut().enumerate() {
        *ov = x[h * feat..(h + 1) * feat].iter().sum();
    }
}

/// `HeadReduce`'s row: `o[c] = Σ_h x[h·f + c] · scale` over `heads`
/// heads in order (`f` = `o.len()`; `scale` is `1/heads` for a mean).
#[inline]
pub fn head_reduce(o: &mut [f32], x: &[f32], heads: usize, scale: f32) {
    let feat = o.len();
    o.fill(0.0);
    for h in 0..heads {
        for c in 0..feat {
            o[c] += x[h * feat + c] * scale;
        }
    }
}

/// `ScatterFn::ConcatUV`'s row: per head, that head's features of `x`
/// then of `y` (`o.len()` = `x.len() + y.len()`).
#[inline]
pub fn concat_heads(o: &mut [f32], x: &[f32], y: &[f32], heads: usize) {
    let (fx, fy) = (x.len() / heads, y.len() / heads);
    for h in 0..heads {
        let base = h * (fx + fy);
        o[base..base + fx].copy_from_slice(&x[h * fx..(h + 1) * fx]);
        o[base + fx..base + fx + fy].copy_from_slice(&y[h * fy..(h + 1) * fy]);
    }
}

/// MoNet's Gaussian mixture weights of one edge:
/// `o[k] = exp(-½ Σ_j (σ⁻¹[k,j]·(p[j] − μ[k,j]))²)`, with `mu` and
/// `inv_sigma` row-major `[o.len(), p.len()]`.
#[inline]
pub fn gaussian_weight(o: &mut [f32], p: &[f32], mu: &[f32], inv_sigma: &[f32]) {
    let n = p.len();
    for (k, ov) in o.iter_mut().enumerate() {
        let (mr, sr) = (&mu[k * n..], &inv_sigma[k * n..]);
        let mut acc = 0.0;
        for j in 0..n {
            let d = (p[j] - mr[j]) * sr[j];
            acc += d * d;
        }
        *ov = (-0.5 * acc).exp();
    }
}

/// The argmax entry of an element no edge has won: every element of an
/// empty group keeps it, so its gradient goes nowhere.
pub const NO_ARGMAX: u32 = u32::MAX;

/// `Gather(Max)`'s first-wins update of a group's row by edge `e`: where
/// no edge has won yet (`ar[c] == NO_ARGMAX`) or `x[c]` is greater, `e`
/// wins — `o[c] = x[c]`, `ar[c] = e`. Over a group's edges in ascending
/// id, the first of equal values keeps its place.
#[inline]
pub fn max_first_wins(o: &mut [f32], ar: &mut [u32], x: &[f32], e: u32) {
    for ((ov, av), &xv) in o.iter_mut().zip(ar.iter_mut()).zip(x) {
        if *av == NO_ARGMAX || xv > *ov {
            *ov = xv;
            *av = e;
        }
    }
}

/// `GatherMaxBwd`'s row of edge `e`: the group vertex's gradient row `g`
/// where `e` won the max (`ar`, the vertex's argmax row), zero elsewhere.
#[inline]
pub fn route_argmax(o: &mut [f32], ar: &[u32], g: &[f32], e: u32) {
    for ((ov, &av), &gv) in o.iter_mut().zip(ar).zip(g) {
        *ov = if av == e { gv } else { 0.0 };
    }
}

/// Hints the cache lines of `row` toward L1 ahead of its read, so a random
/// row arrives while the rows before it are reduced. A no-op off x86-64.
#[inline(always)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // A line is 16 floats; an unaligned row's last may start one more.
        for at in row.iter().step_by(16).chain(row.last()) {
            // SAFETY: a prefetch is a hint — it reads nothing
            // architecturally and cannot fault — and SSE, all it needs,
            // is in the x86-64 baseline; `at` points into `row` anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(at).cast()) };
        }
    }
}

/// [`max_assign`] of every row of `x` into the group's max row.
#[inline]
pub fn max_assign_rows(m: &mut [f32], x: &[f32]) {
    with_width!(m.len(), w => for xr in x.chunks_exact(w) {
        max_assign(&mut m[..w], xr);
    });
}

/// [`exp_sub_store_accum`] of every row of `x` (exponentials to `t`'s
/// rows) against the group's max row into its denominator row.
#[inline]
pub fn exp_sub_store_accum_rows(d: &mut [f32], t: &mut [f32], x: &[f32], m: &[f32]) {
    with_width!(d.len(), w => for (tr, xr) in t.chunks_exact_mut(w).zip(x.chunks_exact(w)) {
        exp_sub_store_accum(&mut d[..w], tr, xr, &m[..w]);
    });
}

/// [`div_assign`] of every row of `y` by the group's denominator row.
#[inline]
pub fn div_assign_rows(y: &mut [f32], d: &[f32]) {
    with_width!(d.len(), w => for yr in y.chunks_exact_mut(w) {
        div_assign(yr, &d[..w]);
    });
}

/// [`add_assign`] of every row of `x` into the group's sum row.
#[inline]
pub fn add_assign_rows(s: &mut [f32], x: &[f32]) {
    with_width!(s.len(), w => for xr in x.chunks_exact(w) {
        add_assign(&mut s[..w], xr);
    });
}

/// [`mul_add_accum`] of every row pair of `a`, `b` into the group's sum row.
#[inline]
pub fn mul_add_accum_rows(s: &mut [f32], a: &[f32], b: &[f32]) {
    with_width!(s.len(), w => for (ar, br) in a.chunks_exact(w).zip(b.chunks_exact(w)) {
        mul_add_accum(&mut s[..w], ar, br);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulators_match_scalar_loops() {
        let x = [1.0f32, -2.0, 0.5, 3.25];
        let mut o = [0.5f32, 0.5, 0.5, 0.5];
        add_assign(&mut o, &x);
        assert_eq!(o, [1.5, -1.5, 1.0, 3.75]);
        axpy(&mut o, 2.0, &x);
        assert_eq!(o, [3.5, -5.5, 2.0, 10.25]);
        scale_into(&mut o, -1.0, &x);
        assert_eq!(o, [-1.0, 2.0, -0.5, -3.25]);
        max_assign(&mut o, &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(o, [0.0, 2.0, 0.0, 0.0]);
        mul_add_accum(&mut o, &x, &x);
        assert_eq!(o, [1.0, 6.0, 0.25, 10.5625]);
    }

    #[test]
    fn elementwise_closures_apply_in_place() {
        let mut o = [1.0f32, 2.0, 3.0];
        binary_assign(&mut o, &[10.0, 20.0, 30.0], |a, b| a + b);
        assert_eq!(o, [11.0, 22.0, 33.0]);
        zip2_into(&mut o, &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], |a, b| a * b);
        assert_eq!(o, [4.0, 10.0, 18.0]);
        map_assign(&mut o, |v| -v);
        assert_eq!(o, [-4.0, -10.0, -18.0]);
        map_into(&mut o, &[1.0, 2.0, 3.0], |v| v * 2.0);
        assert_eq!(o, [2.0, 4.0, 6.0]);
        let mut o = [0.0f32; 4];
        map_heads_into(&mut o, &[1.0, 2.0, 3.0, 4.0], &[10.0, 100.0], 2, |a, b| {
            a * b
        });
        assert_eq!(o, [10.0, 20.0, 300.0, 400.0]);
    }

    #[test]
    fn softmax_rows_reproduce_the_kernel_expressions() {
        let x = [0.0f32, 1.0];
        let m = [1.0f32, 1.0];
        let mut d = [0.0f32, 0.0];
        let mut t = [0.0f32, 0.0];
        exp_sub_store_accum(&mut d, &mut t, &x, &m);
        assert_eq!(d, [(-1.0f32).exp(), 1.0]);
        assert_eq!(t, d);
        div_assign(&mut t, &d);
        assert_eq!(t, [1.0, 1.0]);
    }

    #[test]
    fn first_nonfinite_localizes_across_chunk_boundaries() {
        assert_eq!(first_nonfinite(&[]), None);
        assert_eq!(first_nonfinite(&[1.0, -2.0, 0.0]), None);
        for idx in [0usize, 1, 63, 64, 65, 127, 130] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut v = vec![0.5f32; 140];
                v[idx] = bad;
                assert_eq!(first_nonfinite(&v), Some(idx), "bad={bad} idx={idx}");
            }
        }
        // First, not any: two non-finite values report the earlier one.
        let mut v = vec![1.0f32; 100];
        v[70] = f32::INFINITY;
        v[12] = f32::NAN;
        assert_eq!(first_nonfinite(&v), Some(12));
    }

    /// The dispatched entry points must be bit-identical to the scalar
    /// bodies for every row length (SIMD width 8 makes remainders of
    /// every residue class interesting). Every dispatched entry point
    /// is listed: this test is the whole scalar↔AVX2 contract.
    #[test]
    fn dispatched_paths_are_bit_identical_to_scalar() {
        for len in 0..40usize {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 - 7.5) * 0.811).collect();
            let y: Vec<f32> = (0..len)
                .map(|i| (i as f32 * 1.37 - 3.0).sin() * 8.0)
                .collect();
            let base: Vec<f32> = (0..len).map(|i| (i as f32).cos() * 2.0).collect();

            let run = |disp: &dyn Fn(&mut [f32]), scal: &dyn Fn(&mut [f32])| {
                let mut a = base.clone();
                let mut b = base.clone();
                disp(&mut a);
                scal(&mut b);
                assert!(
                    a.iter().zip(&b).all(|(l, r)| l.to_bits() == r.to_bits()),
                    "dispatched path diverged from scalar at len {len}"
                );
            };

            run(&|o| add_assign(o, &x), &|o| scalar::add_assign(o, &x));
            run(&|o| axpy(o, 1.75, &x), &|o| scalar::axpy(o, 1.75, &x));
            run(&|o| scale_into(o, -0.3, &x), &|o| {
                scalar::scale_into(o, -0.3, &x)
            });
            run(&|o| max_assign(o, &x), &|o| scalar::max_assign(o, &x));
            run(&|o| mul_add_accum(o, &x, &y), &|o| {
                scalar::mul_add_accum(o, &x, &y)
            });
            // Denominator and stored row of the pair, one after the other.
            for keep_t in [false, true] {
                run(
                    &|o| {
                        let mut t = vec![0.0; len];
                        exp_sub_store_accum(o, &mut t, &x, &y);
                        if keep_t {
                            o.copy_from_slice(&t);
                        }
                    },
                    &|o| {
                        let mut t = vec![0.0; len];
                        scalar::exp_sub_store_accum(o, &mut t, &x, &y);
                        if keep_t {
                            o.copy_from_slice(&t);
                        }
                    },
                );
            }
            run(&|o| div_assign(o, &y), &|o| scalar::div_assign(o, &y));
            run(&|o| binary_assign(o, &x, |a, b| a * b + 0.5), &|o| {
                scalar::binary_assign(o, &x, |a, b| a * b + 0.5)
            });
            run(&|o| zip2_into(o, &x, &y, |a, b| a - b), &|o| {
                scalar::zip2_into(o, &x, &y, |a, b| a - b)
            });
            run(&|o| map_assign(o, |v| v * v), &|o| {
                scalar::map_assign(o, |v| v * v)
            });
            run(&|o| map_into(o, &x, |v| v + 1.0), &|o| {
                scalar::map_into(o, &x, |v| v + 1.0)
            });
            // Every split of the row into equal heads.
            for heads in (1..=len).filter(|h| len % h == 0) {
                let (s, feat) = (&y[..heads], len / heads);
                run(&|o| map_heads_into(o, &x, s, feat, |a, b| a * b), &|o| {
                    scalar::map_heads_into(o, &x, s, feat, |a, b| a * b)
                });
                for (s, alpha) in [(s, None), (s, Some(-1.5)), (&y[..], Some(0.3))] {
                    run(&|o| mul_accum(o, alpha, &x, s, feat), &|o| {
                        scalar::mul_accum(o, alpha, &x, s, feat)
                    });
                }
            }
        }
    }
    /// The head-dot eight rows a pass equals its one-row form row by row:
    /// row counts 0..=17 (no pass, one, two, and every tail), 1, 3, 8,
    /// 16, 32 and 64 features a head (under a vector, a feature tail, whole
    /// vectors), equal-width and one-scalar-a-head `s`, over operands
    /// holding `±0.0`, NaN and `±inf`. Every sum that is not a NaN has the
    /// one-row form's bits (a NaN's payload is not pinned: neither form
    /// promises which operand's it carries), and a head whose products
    /// are all `−0.0` sums to `−0.0`.
    #[test]
    fn head_dot_lanes_equal_the_one_row_form() {
        let special = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let heads = 2;
        for feat in [1usize, 3, 8, 16, 32, 64] {
            let width = heads * feat;
            // Twenty rows of each operand: mostly ordinary values, with the
            // special ones scattered through, and row 7 all `−0.0` times
            // `+0.0` in its first head.
            let val = |i: usize, k: f32| {
                let v = (i as f32 * k + 0.3).sin() * 4.0;
                if i % 11 == 5 {
                    special[i / 11 % special.len()]
                } else {
                    v
                }
            };
            let mut x: Vec<f32> = (0..20 * width).map(|i| val(i, 0.71)).collect();
            let mut s: Vec<f32> = (0..20 * width).map(|i| val(i, 1.37)).collect();
            x[7 * width..7 * width + feat].fill(-0.0);
            s[7 * width..7 * width + feat].fill(0.0);
            for equal in [true, false] {
                let sw = if equal { width } else { heads };
                let row = |i: usize| (&x[i * width..(i + 1) * width], &s[i * sw..(i + 1) * sw]);
                for rows in 0..=17usize {
                    let mut got = vec![f32::NAN; rows * heads];
                    mul_feat_sum_rows(&mut got, heads, feat, row);
                    for i in 0..rows {
                        let mut want = [0.0f32; 2];
                        let (xr, sr) = row(i);
                        mul_feat_sum(&mut want, xr, sr, feat);
                        for h in 0..heads {
                            let (g, w) = (got[i * heads + h], want[h]);
                            let what =
                                format!("feat {feat} equal {equal} rows {rows}: row {i} head {h}");
                            assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "{what}: {g} vs {w}"
                            );
                        }
                    }
                    if rows > 7 && equal {
                        assert_eq!(got[7 * heads].to_bits(), (-0.0f32).to_bits(), "feat {feat}");
                    }
                }
            }
        }
    }

    /// The block forms against the per-row `scalar::` sweeps written out —
    /// the fresh edge softmax of one group as the reference kernels spell
    /// it, and the group sum of a folded product as its reader folds it
    /// edge by edge — for width 0, every narrow width (a literal inside)
    /// and two wide ones, and group lengths from empty through one row to
    /// lengths that are a multiple of nothing.
    #[test]
    fn block_sweeps_are_bit_identical_to_the_row_sweeps() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for w in 0..=9usize {
            for len in 0..=70usize {
                let val = |i: usize, k: f32| (i as f32 * k + w as f32).sin() * 5.0;
                let x: Vec<f32> = (0..len * w).map(|i| val(i, 0.37)).collect();
                let g: Vec<f32> = (0..len * w).map(|i| val(i, 1.91)).collect();

                let (mut m1, mut d1) = (vec![f32::NEG_INFINITY; w], vec![0.0f32; w]);
                let mut y1 = vec![f32::NAN; len * w];
                for e in 0..len {
                    scalar::max_assign(&mut m1, &x[e * w..(e + 1) * w]);
                }
                for e in 0..len {
                    let at = e * w..(e + 1) * w;
                    scalar::exp_sub_store_accum(&mut d1, &mut y1[at.clone()], &x[at], &m1);
                }
                for e in 0..len {
                    scalar::div_assign(&mut y1[e * w..(e + 1) * w], &d1);
                }
                let (mut m2, mut d2) = (vec![f32::NEG_INFINITY; w], vec![0.0f32; w]);
                let mut y2 = vec![f32::NAN; len * w];
                max_assign_rows(&mut m2, &x);
                exp_sub_store_accum_rows(&mut d2, &mut y2, &x, &m2);
                div_assign_rows(&mut y2, &d2);
                assert_eq!(bits(&m2), bits(&m1), "max, width {w} × {len} rows");
                assert_eq!(bits(&d2), bits(&d1), "denominator, width {w} × {len} rows");
                assert_eq!(bits(&y2), bits(&y1), "softmax, width {w} × {len} rows");

                let mut s1 = vec![0.0f32; w];
                for e in 0..len {
                    let at = e * w..(e + 1) * w;
                    scalar::mul_accum(&mut s1, None, &g[at.clone()], &y1[at], w);
                }
                let mut s2 = vec![0.0f32; w];
                mul_add_accum_rows(&mut s2, &g, &y1);
                assert_eq!(bits(&s2), bits(&s1), "group sum, width {w} × {len} rows");

                let mut a1 = vec![0.0f32; w];
                for e in 0..len {
                    scalar::add_assign(&mut a1, &x[e * w..(e + 1) * w]);
                }
                let mut a2 = vec![0.0f32; w];
                add_assign_rows(&mut a2, &x);
                assert_eq!(bits(&a2), bits(&a1), "row sum, width {w} × {len} rows");
            }
        }
    }

    /// A folded product reduces to the bits of the product row written
    /// out and then reduced: `add_assign` / `axpy` into an accumulator
    /// (two roundings, no fused multiply-add) and the per-head
    /// [`feat_sum`] — equal-shape and
    /// head-broadcast, every split of the row into heads.
    #[test]
    fn folded_products_equal_the_product_row_then_its_reduction() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for len in 0..40usize {
            let x: Vec<f32> = (0..len)
                .map(|i| (i as f32 * 0.93 - 4.0).sin() * 7.0)
                .collect();
            let y: Vec<f32> = (0..len).map(|i| (i as f32 * 1.71).cos() * 3.0).collect();
            let acc: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            for heads in (1..=len).filter(|h| len % h == 0) {
                let feat = len / heads;
                for s in [&y[..], &y[..heads]] {
                    // (At one feature per head the two shapes coincide.)
                    // The product row as the `Binary` kernel writes it.
                    let p: Vec<f32> = (0..len)
                        .map(|i| x[i] * if s.len() == len { s[i] } else { s[i / feat] })
                        .collect();
                    let (mut want, mut got) = (acc.clone(), acc.clone());
                    add_assign(&mut want, &p);
                    mul_accum(&mut got, None, &x, s, feat);
                    assert_eq!(bits(&got), bits(&want), "sum, {heads}×{feat}");
                    let (mut want, mut got) = (acc.clone(), acc.clone());
                    axpy(&mut want, 0.3, &p);
                    mul_accum(&mut got, Some(0.3), &x, s, feat);
                    assert_eq!(bits(&got), bits(&want), "mean, {heads}×{feat}");
                    let mut want = vec![f32::NAN; heads];
                    feat_sum(&mut want, &p, feat);
                    let mut got = vec![f32::NAN; heads];
                    mul_feat_sum(&mut got, &x, s, feat);
                    assert_eq!(bits(&got), bits(&want), "feat sum, {heads}×{feat}");
                }
            }
        }
        // A hint reads nothing: any row, the empty one included.
        prefetch(&[]);
        prefetch(&[1.0; 37]);
    }

    /// The staged gather copies exactly the rows the index names, counted
    /// from the first row the data holds.
    #[test]
    fn gather_rows_stages_the_indexed_rows() {
        let first = 5usize;
        for w in 1..=9usize {
            let data: Vec<f32> = (0..23 * w).map(|i| i as f32 * 0.5 - 7.0).collect();
            let idx: Vec<u32> = (0..41u32)
                .map(|i| first as u32 + (i * 7 + 3) % 23)
                .collect();
            let mut staged = vec![f32::NAN; idx.len() * w];
            gather_rows(&mut staged, &data, w, &idx, first);
            for (r, &i) in idx.iter().enumerate() {
                let at = (i as usize - first) * w;
                assert_eq!(
                    staged[r * w..(r + 1) * w],
                    data[at..at + w],
                    "width {w} row {r}"
                );
            }
        }
        // Width 0: no row holds anything.
        gather_rows(&mut [], &[], 0, &[3, 4], 3);
    }
}
