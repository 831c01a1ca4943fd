//! The op library: one whole-tensor CPU kernel per IR operator.
//!
//! Layout convention: a tensor with dim `{heads, feat}` is stored as
//! `[rows, heads*feat]` row-major, head-major within a row (head `h`'s
//! features occupy columns `h*feat .. (h+1)*feat`).
//!
//! # Who runs what
//!
//! A session runs every graph and row-local op in the tile driver
//! (`fused.rs`), alone in its kernel or fused. What reaches this
//! module from a session is the dense dispatch of a
//! `gnnopt_core::lower::StepExec::Full` step (`refexec::exec_op`, which
//! runs the GEMMs itself) — the cross-row parameter reductions and
//! parameter-space steps of a few rows, none of them a graph op or a
//! row-local one. Every other kernel here is the **serial reference** the
//! oracle ([`crate::refexec::evaluate`]) is built from — a plain loop over
//! the shared feature-axis functions of [`gnnopt_tensor::rowops`], the
//! *same* functions the tile driver calls, so the two stay bit-identical
//! by construction rather than by parallel maintenance, and an N-thread
//! session is compared against one thread's arithmetic. A `Sum`/`Mean`
//! row accumulates its edges in ascending id, whatever its degree — the
//! one association, in the oracle and the tile driver alike.
//!
//! # The kernels that split
//!
//! Only the cross-row parameter reductions [`head_dot_bwd_param`],
//! [`gaussian_bwd_mu`] and [`gaussian_bwd_sigma`] split their work over
//! scoped worker threads, under the caller's [`ExecPolicy`]
//! (`param_reduce`): they accumulate fixed
//! [`PARAM_REDUCE_CHUNK_ROWS`]-row partials combined in ascending chunk
//! order — the chunk grid is a pure function of the row count, never of
//! the thread count, so any worker assignment yields the same bits
//! (proptested in `tests/backward_reduce.rs`); the association differs
//! from a single left-to-right sweep, which is the documented cost of
//! running them parallel at all.
//!
//! # Empty-group (isolated-vertex) semantics
//!
//! Grouped reductions over vertices with no incident edges follow an
//! explicit identity-element contract:
//!
//! * [`gather`] with `Sum`/`Mean` leaves empty rows at `0.0` (the sum
//!   identity; `Mean` never divides by a zero degree);
//! * [`gather`] with `Max` leaves empty rows at `0.0` — **not** `-inf` —
//!   and marks every element with the [`NO_ARGMAX`] sentinel, which
//!   [`gather_max_bwd`] uses to route *no* gradient to any edge;
//! * [`edge_softmax`] writes no row for an empty destination group: it
//!   has no edges, and its max and denominator live only while a group
//!   is swept (from the identities `-inf` and `0.0`), so nothing of an
//!   empty group exists to read back.
//!
//! The contract is asserted on graphs with isolated vertices in this
//! module's tests and exercised by the property suites, whose graph
//! generators emit isolated vertices on purpose.

use crate::contain;
use gnnopt_core::view::PAD;
use gnnopt_core::{BinaryFn, Dim, EdgeGroup, ExecPolicy, ReduceFn, ScatterFn, Space, UnaryFn};
use gnnopt_graph::{Adjacency, Graph};
use gnnopt_tensor::parallel::chunk_rows;
use gnnopt_tensor::{pool, rowops, Tensor};
use std::ops::Range;

/// Sentinel argmax entry for empty reduction groups.
pub use gnnopt_tensor::rowops::NO_ARGMAX;

/// Effective worker count for a kernel of `rows` independent rows and
/// `work` total touched elements: serial below the policy threshold, and
/// never more workers than rows.
pub(crate) fn plan_threads(policy: &ExecPolicy, rows: usize, work: usize) -> usize {
    if work < policy.parallel_threshold {
        1
    } else {
        policy.threads.clamp(1, rows.max(1))
    }
}

/// Deterministic chunk boundaries over `rows`: a function of
/// `(rows, threads)` only, so a given policy always yields the same
/// partition (and the partition never affects results anyway — chunks are
/// data-disjoint). Delegates to the workspace-wide split in
/// [`gnnopt_tensor::parallel::chunk_bounds`] — one definition shared with
/// the GEMM engine's partitions.
pub(crate) fn chunk_bounds(rows: usize, threads: usize) -> Vec<usize> {
    gnnopt_tensor::parallel::chunk_bounds(rows, threads)
}

/// Fixed row-chunk length for the cross-row parameter reductions
/// ([`head_dot_bwd_param`], [`gaussian_bwd_mu`], [`gaussian_bwd_sigma`]):
/// partials are accumulated per chunk and combined in ascending chunk
/// order. The grid depends only on the row count — never on the thread
/// count — so results are invariant across worker widths.
pub const PARAM_REDUCE_CHUNK_ROWS: usize = 1 << 14;

/// Deterministic *edge-balanced* vertex boundaries: each of up to
/// `threads` parts owns roughly the same number of edges (`indptr` is the
/// CSR row pointer of the grouping adjacency). A pure function of
/// `(indptr, threads)`, and purely a scheduling choice since parts stay
/// data-disjoint. The tile driver cuts a streamed `BySrc` gather's source
/// ranges with it: every worker pays for the whole edge scan, so only the
/// rows it owns divide, and a vertex-count split of a power-law graph
/// leaves one worker most of them.
pub(crate) fn edge_balanced_vertex_bounds(indptr: &[usize], threads: usize) -> Vec<usize> {
    let n = indptr.len() - 1;
    let workers = threads.clamp(1, n.max(1));
    let total = indptr[n];
    if total == 0 || workers < 2 {
        return chunk_bounds(n, workers);
    }
    let mut bounds = vec![0usize];
    for w in 1..workers {
        let target = (total as u64 * w as u64).div_ceil(workers as u64) as usize;
        let prev = *bounds.last().expect("bounds is non-empty");
        let mut v = prev + 1;
        while v < n && indptr[v] < target {
            v += 1;
        }
        // Leave at least one vertex for each remaining worker.
        bounds.push(v.clamp(prev + 1, n - (workers - w)));
    }
    bounds.push(n);
    bounds
}

/// Where a reduction reads edge `e`'s row: a full tensor here, the
/// interpreter's slots in [`crate::fused`] — which may compute the row
/// on demand into a buffer the next call overwrites, hence the
/// `&mut self` borrow on the returned row — and how it adds one, `o +=
/// row(e)` / `o += alpha · row(e)`. Only `fused::Pulled` overrides those,
/// for a folded product: `x · s` from its operands, no row, the same bits.
pub(crate) trait RowSource {
    fn row(&mut self, e: usize) -> &[f32];

    #[inline(always)]
    fn add_into(&mut self, o: &mut [f32], e: usize) {
        rowops::add_assign(o, self.row(e));
    }

    #[inline(always)]
    fn axpy_into(&mut self, o: &mut [f32], alpha: f32, e: usize) {
        rowops::axpy(o, alpha, self.row(e));
    }
}

impl RowSource for &Tensor {
    #[inline(always)]
    fn row(&mut self, e: usize) -> &[f32] {
        Tensor::row(self, e)
    }
}

/// One row of a `Binary`: elementwise at equal widths; else the side
/// whose `feat == 1` holds one scalar per head, combined with each of
/// the other side's `feat` features of that head. The scalars are
/// hoisted out of the element loop, which runs as one vectorized
/// [`BinaryFn::map_heads`] call per row — every element still evaluates
/// `f.apply(a, b)` on the same two values, so the bits equal the
/// per-element form's. The one spelling of the broadcast:
/// [`binary_broadcast`] and the program interpreter call it.
pub(crate) fn binary_broadcast_row(
    o: &mut [f32],
    f: BinaryFn,
    ar: &[f32],
    da: Dim,
    br: &[f32],
    db: Dim,
) {
    let feat = da.feat.max(db.feat);
    if da.feat == db.feat {
        f.zip_into(o, ar, br);
    } else if db.feat == 1 {
        f.map_heads(o, ar, &br[..da.heads], feat, false);
    } else {
        f.map_heads(o, br, &ar[..da.heads], feat, true);
    }
}

/// Shared combine tree of the cross-row parameter reductions: rows are
/// cut into the fixed [`PARAM_REDUCE_CHUNK_ROWS`] grid, `body(range,
/// partial)` fills each chunk's partial (a zeroed `out.len()` buffer),
/// workers own disjoint runs of chunks, and the partials are folded into
/// `out` in ascending chunk order on the calling thread. The partial
/// grid is independent of the worker count, so any `threads` value
/// produces the same bits.
fn param_reduce<F>(policy: &ExecPolicy, rows: usize, work: usize, out: &mut [f32], body: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    let cols = out.len();
    let nchunks = rows.div_ceil(PARAM_REDUCE_CHUNK_ROWS).max(1);
    let threads = plan_threads(policy, nchunks, work);
    let mut partials = pool::take_work_f32(nchunks * cols);
    partials.resize(nchunks * cols, 0.0);
    let chunk_range =
        |ci: usize| ci * PARAM_REDUCE_CHUNK_ROWS..((ci + 1) * PARAM_REDUCE_CHUNK_ROWS).min(rows);
    if threads < 2 || cols == 0 {
        for (ci, partial) in partials.chunks_mut(cols.max(1)).enumerate() {
            body(chunk_range(ci), partial);
        }
    } else {
        let per = chunk_rows(nchunks, threads);
        let wg = contain::WorkerGuard::new();
        std::thread::scope(|s| {
            for (w, part) in partials.chunks_mut(per * cols).enumerate() {
                let body = &body;
                let wg = &wg;
                s.spawn(move || {
                    wg.run(|| {
                        for (i, partial) in part.chunks_mut(cols).enumerate() {
                            body(chunk_range(w * per + i), partial);
                        }
                    })
                });
            }
        });
        wg.rethrow();
    }
    for partial in partials.chunks(cols.max(1)) {
        rowops::add_assign(out, partial);
    }
    pool::put_work_f32(partials);
}

/// Splits a row-major buffer of `cols`-wide rows into the consecutive
/// chunks delimited by `bounds`, in order.
pub(crate) fn split_rows<'a, T>(
    mut buf: &'a mut [T],
    cols: usize,
    bounds: &'a [usize],
) -> impl Iterator<Item = &'a mut [T]> {
    bounds.windows(2).map(move |w| {
        let (head, rest) = std::mem::take(&mut buf).split_at_mut((w[1] - w[0]) * cols);
        buf = rest;
        head
    })
}

/// A zeroed `[rows, cols]` tensor filled by `body(out_row, r)` for every
/// row `r` in order: the shape of every per-row reference kernel below.
fn map_rows(rows: usize, cols: usize, body: impl Fn(&mut [f32], usize)) -> Tensor {
    let mut out = Tensor::zeros(&[rows, cols]);
    if cols > 0 {
        for (r, o) in out.as_mut_slice().chunks_mut(cols).enumerate() {
            body(o, r);
        }
    }
    out
}

/// `Scatter`: per-edge combination of endpoint features. A serial
/// reference (sessions scatter in the tile driver); `_policy` stays in
/// the signature for the op-library callers that time it.
pub fn scatter(
    _policy: &ExecPolicy,
    g: &Graph,
    f: ScatterFn,
    x: &Tensor,
    y: &Tensor,
    out_dim: Dim,
) -> Tensor {
    let (m, total) = (g.num_edges(), out_dim.total());
    match f {
        ScatterFn::CopyU => map_rows(m, total, |o, e| o.copy_from_slice(x.row(g.src(e)))),
        ScatterFn::CopyV => map_rows(m, total, |o, e| o.copy_from_slice(y.row(g.dst(e)))),
        ScatterFn::Bin(bf) => map_rows(m, total, |o, e| {
            bf.zip_into(o, x.row(g.src(e)), y.row(g.dst(e)));
        }),
        ScatterFn::ConcatUV => {
            // Per-head concatenation.
            let heads = out_dim.heads;
            let (fx, fy) = (x.cols() / heads, y.cols() / heads);
            map_rows(m, total, |o, e| {
                let (xu, yv) = (x.row(g.src(e)), y.row(g.dst(e)));
                for h in 0..heads {
                    let base = h * (fx + fy);
                    o[base..base + fx].copy_from_slice(&xu[h * fx..(h + 1) * fx]);
                    o[base + fx..base + fx + fy].copy_from_slice(&yv[h * fy..(h + 1) * fy]);
                }
            })
        }
    }
}

/// `Gather`: grouped reduction of edge features into vertex features.
/// Returns the reduced tensor and, for `Max`, the per-element argmax edge
/// ids (`NO_ARGMAX` for empty groups).
///
/// A serial reference (sessions reduce in the tile driver): one
/// ascending scan of all edges, each folded into its group vertex's row
/// — which is every group's edge order, destination-major edge ids
/// making a `ByDst` group one ascending run. `_policy` stays in the
/// signature for the op-library callers that time it.
///
/// Empty groups (isolated vertices) keep the `0.0` identity row — see the
/// module-level contract.
pub fn gather(
    _policy: &ExecPolicy,
    g: &Graph,
    reduce: ReduceFn,
    group: EdgeGroup,
    x: &Tensor,
) -> (Tensor, Option<Vec<u32>>) {
    let mut out = Tensor::zeros(&[g.num_vertices(), x.cols()]);
    if matches!(reduce, ReduceFn::Max) {
        let argmax = gather_max(g, group, x, out.as_mut_slice());
        return (out, Some(argmax));
    }
    let adj = group_adj(g, group);
    for (e, &v) in group_keys(g, group).iter().enumerate() {
        let v = v as usize;
        match reduce {
            ReduceFn::Sum => rowops::add_assign(out.row_mut(v), x.row(e)),
            _ => rowops::axpy(out.row_mut(v), 1.0 / adj.degree(v) as f32, x.row(e)),
        }
    }
    (out, None)
}

/// `Gather(Max)` body: one ascending scan of all edges, each folded into
/// its group's row first-wins ([`rowops::max_first_wins`]) — which is
/// every group's `in_adj` / `out_adj` order, destination-major edge ids
/// making a `ByDst` group one ascending run.
fn gather_max(g: &Graph, group: EdgeGroup, x: &Tensor, out: &mut [f32]) -> Vec<u32> {
    let total = x.cols();
    let mut argmax = pool::take_u32(out.len());
    argmax.resize(out.len(), NO_ARGMAX);
    for (e, &v) in group_keys(g, group).iter().enumerate() {
        let at = v as usize * total..(v as usize + 1) * total;
        rowops::max_first_wins(&mut out[at.clone()], &mut argmax[at], x.row(e), e as u32);
    }
    argmax
}

/// Per edge, the vertex whose `group` it reduces into.
fn group_keys(g: &Graph, group: EdgeGroup) -> &[u32] {
    match group {
        EdgeGroup::ByDst => g.dst_slice(),
        EdgeGroup::BySrc => g.src_slice(),
    }
}

/// The adjacency whose rows are `group`'s edge groups.
pub(crate) fn group_adj(g: &Graph, group: EdgeGroup) -> &Adjacency {
    match group {
        EdgeGroup::ByDst => g.in_adj(),
        EdgeGroup::BySrc => g.out_adj(),
    }
}

/// Backward of `Gather(Max)`: edge `e`'s row is its group vertex's
/// gradient row where `e` won the max, zero elsewhere
/// ([`rowops::route_argmax`]); `NO_ARGMAX` entries (empty groups) route
/// no gradient.
pub fn gather_max_bwd(g: &Graph, group: EdgeGroup, grad: &Tensor, argmax: &[u32]) -> Tensor {
    let (keys, total) = (group_keys(g, group), grad.cols());
    map_rows(g.num_edges(), total, |o, e| {
        let v = keys[e] as usize;
        let ar = &argmax[v * total..(v + 1) * total];
        rowops::route_argmax(o, ar, grad.row(v), e as u32);
    })
}

/// Backward of `Gather(Mean)`: edge `e`'s row is `grad[v] / degree(v)`
/// for its group vertex `v`, whose degree is ≥ 1 (it has edge `e`).
pub fn gather_mean_bwd(g: &Graph, group: EdgeGroup, grad: &Tensor) -> Tensor {
    let (adj, keys) = (group_adj(g, group), group_keys(g, group));
    map_rows(g.num_edges(), grad.cols(), |o, e| {
        let v = keys[e] as usize;
        rowops::scale_into(o, 1.0 / adj.degree(v) as f32, grad.row(v));
    })
}

/// Edge softmax over destination groups, per column: three sweeps of each
/// group, its max and denominator held in two rows reset per group (an
/// empty group writes nothing; see the module-level contract).
pub fn edge_softmax(g: &Graph, x: &Tensor) -> Tensor {
    let total = x.cols();
    let (mut mr, mut dr) = (vec![0.0; total], vec![0.0; total]);
    let mut y = Tensor::zeros(&[g.num_edges(), total]);
    for v in 0..g.num_vertices() {
        let ids = g.in_adj().edge_ids(v);
        mr.fill(f32::NEG_INFINITY);
        dr.fill(0.0);
        for &e in ids {
            rowops::max_assign(&mut mr, x.row(e as usize));
        }
        // One `exp` per element: the denominator sweep leaves
        // `exp(x − max)` in the output row, the last sweep divides it.
        for &e in ids {
            rowops::exp_sub_store_accum(&mut dr, y.row_mut(e as usize), x.row(e as usize), &mr);
        }
        for &e in ids {
            rowops::div_assign(y.row_mut(e as usize), &dr);
        }
    }
    y
}

/// Elementwise binary with per-head feature broadcast (`feat == 1` on one
/// side broadcasts across the other side's features). A `whole` operand
/// — a parameter, whose row is the whole tensor
/// ([`gnnopt_core::view::View::Broadcast`]) — is read at every row of
/// the other.
pub fn binary_broadcast(
    f: BinaryFn,
    (a, da): (&Tensor, Dim),
    (b, db): (&Tensor, Dim),
    whole: [bool; 2],
) -> Tensor {
    assert_eq!(da.heads, db.heads, "head counts must agree");
    if da == db && whole == [false; 2] {
        let mut out = a.clone();
        f.assign(out.as_mut_slice(), b.as_slice());
        return out;
    }
    fn row(t: &Tensor, whole: bool, r: usize) -> &[f32] {
        if whole {
            t.as_slice()
        } else {
            t.row(r)
        }
    }
    let rows = if whole[0] { b.rows() } else { a.rows() };
    map_rows(rows, da.heads * da.feat.max(db.feat), |or, r| {
        binary_broadcast_row(or, f, row(a, whole[0], r), da, row(b, whole[1], r), db);
    })
}

/// `Unary`: elementwise `f(x)`.
pub fn unary(f: UnaryFn, x: &Tensor) -> Tensor {
    let mut out = x.clone();
    f.map_assign(out.as_mut_slice());
    out
}

/// `UnaryBwd`: `grad · f'(x)`.
pub fn unary_bwd(f: UnaryFn, grad: &Tensor, x: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(grad.shape());
    f.bwd_into(out.as_mut_slice(), grad.as_slice(), x.as_slice());
    out
}

/// Backward of a head-dot `FeatSum(x · a)` w.r.t. the parameter:
/// `out[h, c] = Σ_r g[r,h]·x[r, h·f+c]`.
///
/// Parallelized through `param_reduce`: the row axis is cut on the
/// fixed [`PARAM_REDUCE_CHUNK_ROWS`] grid and chunk partials fold in
/// ascending order, so results are invariant in the thread count.
pub fn head_dot_bwd_param(
    policy: &ExecPolicy,
    x: &Tensor,
    grad: &Tensor,
    heads: usize,
    feat: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[heads, feat]);
    param_reduce(
        policy,
        x.rows(),
        x.rows() * heads * feat,
        out.as_mut_slice(),
        |range, partial| {
            for r in range {
                let (xr, gr) = (x.row(r), grad.row(r));
                for h in 0..heads {
                    let or = &mut partial[h * feat..(h + 1) * feat];
                    for c in 0..feat {
                        or[c] += gr[h] * xr[h * feat + c];
                    }
                }
            }
        },
    );
    out
}

/// Gaussian mixture weights (MoNet):
/// `w[e,k] = exp(-½ Σ_j σ⁻²[k,j](p[e,j]−μ[k,j])²)`.
pub fn gaussian_weight(pseudo: &Tensor, mu: &Tensor, inv_sigma: &Tensor) -> Tensor {
    map_rows(pseudo.rows(), mu.rows(), |or, ei| {
        let pr = pseudo.row(ei);
        for (ki, ov) in or.iter_mut().enumerate() {
            let (mr, sr) = (mu.row(ki), inv_sigma.row(ki));
            let mut acc = 0.0;
            for j in 0..pr.len() {
                let d = (pr[j] - mr[j]) * sr[j];
                acc += d * d;
            }
            *ov = (-0.5 * acc).exp();
        }
    })
}

/// `∂L/∂μ[k,j] = Σ_e g[e,k]·w[e,k]·σ⁻²[k,j]·(p[e,j]−μ[k,j])`.
///
/// Parallelized through `param_reduce` (edge-axis chunks on the fixed
/// grid, ascending fold — thread-count-invariant results).
pub fn gaussian_bwd_mu(
    policy: &ExecPolicy,
    pseudo: &Tensor,
    w: &Tensor,
    grad: &Tensor,
    mu: &Tensor,
    inv_sigma: &Tensor,
) -> Tensor {
    let (e, r) = (pseudo.rows(), pseudo.cols());
    let k = mu.rows();
    let mut out = Tensor::zeros(&[k, r]);
    param_reduce(
        policy,
        e,
        e * k * r,
        out.as_mut_slice(),
        |range, partial| {
            for ei in range {
                let (pr, wr, gr) = (pseudo.row(ei), w.row(ei), grad.row(ei));
                for ki in 0..k {
                    let coeff = gr[ki] * wr[ki];
                    if coeff == 0.0 {
                        continue;
                    }
                    let (mr, sr) = (mu.row(ki), inv_sigma.row(ki));
                    let or = &mut partial[ki * r..(ki + 1) * r];
                    for j in 0..r {
                        or[j] += coeff * sr[j] * sr[j] * (pr[j] - mr[j]);
                    }
                }
            }
        },
    );
    out
}

/// `∂L/∂σ⁻¹[k,j] = −Σ_e g[e,k]·w[e,k]·σ⁻¹[k,j]·(p[e,j]−μ[k,j])²`.
///
/// Parallelized through `param_reduce` (edge-axis chunks on the fixed
/// grid, ascending fold — thread-count-invariant results).
pub fn gaussian_bwd_sigma(
    policy: &ExecPolicy,
    pseudo: &Tensor,
    w: &Tensor,
    grad: &Tensor,
    mu: &Tensor,
    inv_sigma: &Tensor,
) -> Tensor {
    let (e, r) = (pseudo.rows(), pseudo.cols());
    let k = mu.rows();
    let mut out = Tensor::zeros(&[k, r]);
    param_reduce(
        policy,
        e,
        e * k * r,
        out.as_mut_slice(),
        |range, partial| {
            for ei in range {
                let (pr, wr, gr) = (pseudo.row(ei), w.row(ei), grad.row(ei));
                for ki in 0..k {
                    let coeff = gr[ki] * wr[ki];
                    if coeff == 0.0 {
                        continue;
                    }
                    let (mr, sr) = (mu.row(ki), inv_sigma.row(ki));
                    let or = &mut partial[ki * r..(ki + 1) * r];
                    for j in 0..r {
                        let d = pr[j] - mr[j];
                        or[j] -= coeff * sr[j] * d * d;
                    }
                }
            }
        },
    );
    out
}

/// `x`, an operand in `space`, laid out through `map`
/// ([`gnnopt_core::view::gather_map`]) as its reader sees it (`dim`):
/// each row — a parameter's being the whole tensor — copies the columns
/// the map names and writes a zero for [`PAD`].
pub fn view(x: &Tensor, space: Space, dim: Dim, map: &[u32]) -> Tensor {
    let (shape, width) = match space {
        Space::Param => ([dim.heads, dim.feat], x.numel()),
        _ => ([x.rows(), dim.total()], x.cols()),
    };
    let mut out = Tensor::zeros(&shape);
    let rows = out.as_mut_slice().chunks_exact_mut(map.len().max(1));
    for (o, xr) in rows.zip(x.as_slice().chunks_exact(width.max(1))) {
        gather_row(o, xr, map);
    }
    out
}

/// One row of [`view`].
#[inline]
pub(crate) fn gather_row(o: &mut [f32], x: &[f32], map: &[u32]) {
    for (ov, &j) in o.iter_mut().zip(map) {
        *ov = if j == PAD { 0.0 } else { x[j as usize] };
    }
}

/// Head reduction `[N, h·f] → [N, f]` (`Sum` or `Mean`).
pub fn head_reduce(x: &Tensor, heads: usize, feat: usize, mean: bool) -> Tensor {
    let scale = if mean { 1.0 / heads as f32 } else { 1.0 };
    map_rows(x.rows(), feat, |or, r| {
        let xr = x.row(r);
        for h in 0..heads {
            for c in 0..feat {
                or[c] += xr[h * feat + c] * scale;
            }
        }
    })
}

/// Per-head feature sum `[N, h·f] → [N, h]`.
pub fn feat_sum(x: &Tensor, heads: usize, feat: usize) -> Tensor {
    map_rows(x.rows(), heads, |or, r| {
        let xr = x.row(r);
        for h in 0..heads {
            or[h] = xr[h * feat..(h + 1) * feat].iter().sum();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnopt_core::view::{gather_map, Layout, Window};
    use gnnopt_graph::EdgeList;

    fn serial() -> ExecPolicy {
        ExecPolicy::serial()
    }

    /// 0 → 1, 0 → 2, 1 → 2 (edge ids in dst-major order).
    fn tri() -> Graph {
        Graph::from_edge_list(&EdgeList::from_pairs(3, &[(0, 1), (0, 2), (1, 2)]))
    }

    /// `tri()` plus an isolated vertex 3 (no in- or out-edges).
    fn tri_iso() -> Graph {
        Graph::from_edge_list(&EdgeList::from_pairs(4, &[(0, 1), (0, 2), (1, 2)]))
    }

    fn vfeat() -> Tensor {
        Tensor::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]).unwrap()
    }

    #[test]
    fn scatter_variants() {
        let g = tri();
        let x = vfeat();
        let cu = scatter(&serial(), &g, ScatterFn::CopyU, &x, &x, Dim::flat(2));
        // edges: (0→1), (0→2), (1→2)
        assert_eq!(cu.row(0), &[1.0, 10.0]);
        assert_eq!(cu.row(2), &[2.0, 20.0]);
        let cv = scatter(&serial(), &g, ScatterFn::CopyV, &x, &x, Dim::flat(2));
        assert_eq!(cv.row(0), &[2.0, 20.0]);
        let sub = scatter(
            &serial(),
            &g,
            ScatterFn::Bin(BinaryFn::Sub),
            &x,
            &x,
            Dim::flat(2),
        );
        assert_eq!(sub.row(0), &[-1.0, -10.0]);
        assert_eq!(sub.row(2), &[-1.0, -10.0]);
    }

    #[test]
    fn scatter_concat_per_head() {
        let g = tri();
        // 2 heads × 1 feat
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let cat = scatter(&serial(), &g, ScatterFn::ConcatUV, &x, &x, Dim::multi(2, 2));
        // edge 0: u=0 (heads 1,2), v=1 (heads 3,4) → per-head: [1,3, 2,4]
        assert_eq!(cat.row(0), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn gather_sum_and_dual() {
        let g = tri();
        let e = Tensor::from_rows(&[&[1.0], &[2.0], &[4.0]]).unwrap();
        let (by_dst, _) = gather(&serial(), &g, ReduceFn::Sum, EdgeGroup::ByDst, &e);
        assert_eq!(by_dst.as_slice(), &[0.0, 1.0, 6.0]);
        let (by_src, _) = gather(&serial(), &g, ReduceFn::Sum, EdgeGroup::BySrc, &e);
        assert_eq!(by_src.as_slice(), &[3.0, 4.0, 0.0]);
    }

    #[test]
    fn gather_max_records_argmax() {
        let g = tri();
        let e = Tensor::from_rows(&[&[5.0], &[2.0], &[7.0]]).unwrap();
        let (mx, am) = gather(&serial(), &g, ReduceFn::Max, EdgeGroup::ByDst, &e);
        let am = am.unwrap();
        assert_eq!(mx.as_slice(), &[0.0, 5.0, 7.0]);
        assert_eq!(am, vec![NO_ARGMAX, 0, 2]);
        let grad = Tensor::from_rows(&[&[1.0], &[3.0], &[9.0]]).unwrap();
        let eg = gather_max_bwd(&g, EdgeGroup::ByDst, &grad, &am);
        assert_eq!(eg.as_slice(), &[3.0, 0.0, 9.0]);
    }

    #[test]
    fn empty_groups_keep_identity_elements() {
        // The module-level empty-group contract, asserted on an isolated
        // vertex (id 3): Sum/Mean/Max rows stay 0.0, Max marks NO_ARGMAX,
        // the backward routes no gradient, and edge_softmax's groups are
        // untouched by the empty ones around them.
        let g = tri_iso();
        let e = Tensor::from_rows(&[&[5.0, -1.0], &[2.0, 4.0], &[7.0, 0.5]]).unwrap();

        for reduce in [ReduceFn::Sum, ReduceFn::Mean, ReduceFn::Max] {
            let (out, _) = gather(&serial(), &g, reduce, EdgeGroup::ByDst, &e);
            assert_eq!(out.row(3), &[0.0, 0.0], "{reduce:?} identity row");
            let (out, _) = gather(&serial(), &g, reduce, EdgeGroup::BySrc, &e);
            assert_eq!(out.row(3), &[0.0, 0.0], "{reduce:?} identity row (src)");
        }

        let (_, am) = gather(&serial(), &g, ReduceFn::Max, EdgeGroup::ByDst, &e);
        let am = am.unwrap();
        assert_eq!(&am[6..8], &[NO_ARGMAX, NO_ARGMAX], "isolated vertex");
        assert_eq!(&am[0..2], &[NO_ARGMAX, NO_ARGMAX], "in-degree-0 vertex 0");
        let grad = Tensor::from_fn(&[4, 2], |i| i as f32 + 1.0);
        let eg = gather_max_bwd(&g, EdgeGroup::ByDst, &grad, &am);
        // Gradient mass routed = grads of vertices with non-empty groups.
        let routed: f32 = eg.as_slice().iter().sum();
        let expected: f32 = grad.row(1).iter().sum::<f32>() + grad.row(2).iter().sum::<f32>();
        assert!((routed - expected).abs() < 1e-6);

        // Vertex 0 (no in-edges) precedes the groups and vertex 3 follows
        // them: the rows are the isolated-free graph's, bit for bit.
        let x = Tensor::from_rows(&[&[0.3], &[1.5], &[-0.7]]).unwrap();
        let y = edge_softmax(&g, &x);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&edge_softmax(&tri(), &x)));
    }

    #[test]
    fn softmax_groups_sum_to_one() {
        let g = tri();
        let e = Tensor::from_rows(&[&[0.3], &[1.5], &[-0.7]]).unwrap();
        let y = edge_softmax(&g, &e);
        // dst=1 group: {edge 0} → 1.0; dst=2 group: {edges 1, 2} sums to 1.
        assert!((y.at(0, 0) - 1.0).abs() < 1e-6);
        assert!((y.at(1, 0) + y.at(2, 0) - 1.0).abs() < 1e-6);
        // In ratio to each other as their exponentials.
        let ratio = (e.at(1, 0) - e.at(2, 0)).exp();
        assert!((y.at(1, 0) / y.at(2, 0) - ratio).abs() < 1e-5);
    }

    /// The softmax backward is forward ops (`y·(g − Σ_dst g·y)`, autodiff's
    /// `EdgeSoftmax` rule), run by the oracle: `∂L/∂w` of
    /// `L = Σ_e g_e · softmax(h·w)_e` against central differences in `w`.
    #[test]
    fn softmax_bwd_matches_finite_difference() {
        use crate::{refexec, Bindings};
        use gnnopt_core::{compile, CompileOptions, IrGraph};
        let g = tri();
        let mut ir = IrGraph::new();
        let h = ir.input_edge("h", Dim::flat(1));
        let w = ir.param("w", 1, 1);
        let x = ir.linear(h, w).unwrap();
        let y = ir.edge_softmax(x).unwrap();
        ir.mark_output(y);
        let plan = compile(&ir, true, &CompileOptions::ours()).unwrap().plan;
        let hx = Tensor::from_rows(&[&[0.2], &[0.9], &[-0.4]]).unwrap();
        let gout = Tensor::from_rows(&[&[1.0], &[-2.0], &[0.5]]).unwrap();
        let bind = |wv: f32| {
            Bindings::new()
                .with("h", hx.clone())
                .with("w", Tensor::from_rows(&[&[wv]]).unwrap())
        };
        let ana = refexec::evaluate(&plan, &g, &bind(1.0), Some(&gout)).unwrap();
        let ana = ana.grads["w"].at(0, 0);
        let loss = |wv: f32| {
            let xw = Tensor::from_fn(&[3, 1], |e| hx.at(e, 0) * wv);
            let yv = edge_softmax(&g, &xw);
            (0..3).map(|e| gout.at(e, 0) * yv.at(e, 0)).sum::<f32>()
        };
        let step = 1e-3f32;
        let num = (loss(1.0 + step) - loss(1.0 - step)) / (2.0 * step);
        assert!(
            ana.abs() > 0.1 && (num - ana).abs() < 1e-2,
            "numeric {num} vs analytic {ana}"
        );
    }

    #[test]
    fn binary_broadcast_per_head_scalar() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap(); // 2 heads × 2
        let b = Tensor::from_rows(&[&[10.0, 100.0]]).unwrap(); // 2 heads × 1
        let (da, db) = (Dim::multi(2, 2), Dim::multi(2, 1));
        let out = binary_broadcast(BinaryFn::Mul, (&a, da), (&b, db), [false; 2]);
        assert_eq!(out.as_slice(), &[10.0, 20.0, 300.0, 400.0]);
    }

    /// The hoisted per-head form (vectorized `map_into` under AVX2) must
    /// write the bits of the per-element scalar form it replaced, in both
    /// orientations, at every head count and every SIMD remainder.
    #[test]
    fn binary_broadcast_row_matches_the_per_element_form() {
        for f in [BinaryFn::Add, BinaryFn::Sub, BinaryFn::Mul, BinaryFn::Div] {
            for heads in 1..=3usize {
                // Widths 0 and 1 are not a broadcast.
                for feat in 2..40usize {
                    let wide: Vec<f32> = (0..heads * feat)
                        .map(|i| (i as f32 * 1.37 - 3.0).sin() * 8.0)
                        .collect();
                    let narrow: Vec<f32> = (0..heads).map(|h| 0.811 * h as f32 - 1.7).collect();
                    let (dw, dn) = (Dim::multi(heads, feat), Dim::multi(heads, 1));
                    for wide_is_a in [true, false] {
                        let (ar, da, br, db) = if wide_is_a {
                            (&wide, dw, &narrow, dn)
                        } else {
                            (&narrow, dn, &wide, dw)
                        };
                        let mut got = vec![f32::NAN; heads * feat];
                        binary_broadcast_row(&mut got, f, ar, da, br, db);
                        let want: Vec<f32> = (0..heads * feat)
                            .map(|i| {
                                let h = i / feat;
                                let av = if da.feat == 1 { ar[h] } else { ar[i] };
                                let bv = if db.feat == 1 { br[h] } else { br[i] };
                                f.apply(av, bv)
                            })
                            .collect();
                        assert!(
                            got.iter()
                                .zip(&want)
                                .all(|(g, w)| g.to_bits() == w.to_bits()),
                            "{f:?} heads {heads} feat {feat} wide_is_a {wide_is_a}"
                        );
                    }
                }
            }
        }
    }

    /// A head-dot is the feature sum of `x` times the parameter read
    /// whole at every row; its input dual is a feature-broadcast product
    /// with the parameter: `g[r,h]·a[h,c]`.
    #[test]
    fn head_dot_roundtrip_gradients() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]).unwrap();
        let a = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.0]]).unwrap();
        let (dy, da) = (Dim::multi(2, 1), Dim::multi(2, 2));
        let xa = binary_broadcast(BinaryFn::Mul, (&x, da), (&a, da), [false, true]);
        let y = feat_sum(&xa, 2, 2);
        assert_eq!(y.row(0), &[1.0 * 0.5 - 2.0, 3.0 * 2.0]);
        let gi = binary_broadcast(BinaryFn::Mul, (&y, dy), (&a, da), [false, true]);
        assert_eq!(gi.shape(), &[2, 4]);
        assert_eq!(gi.row(1), &[-1.75, 3.5, 28.0, 0.0]);
        let gp = head_dot_bwd_param(&serial(), &x, &y, 2, 2);
        assert_eq!(gp.shape(), &[2, 2]);
    }

    #[test]
    fn gaussian_weight_peak_at_mu() {
        let p = Tensor::from_rows(&[&[1.0, 2.0], &[0.0, 0.0]]).unwrap();
        let mu = Tensor::from_rows(&[&[1.0, 2.0]]).unwrap();
        let sig = Tensor::from_rows(&[&[1.0, 1.0]]).unwrap();
        let w = gaussian_weight(&p, &mu, &sig);
        assert!((w.at(0, 0) - 1.0).abs() < 1e-6, "exact match → weight 1");
        assert!(w.at(1, 0) < 1.0);
    }

    #[test]
    fn gaussian_grads_match_finite_difference() {
        let p = Tensor::from_rows(&[&[0.5, -0.3], &[1.1, 0.2], &[-0.4, 0.9]]).unwrap();
        let mu = Tensor::from_rows(&[&[0.1, 0.4], &[-0.2, 0.3]]).unwrap();
        let sig = Tensor::from_rows(&[&[1.2, 0.8], &[0.5, 1.5]]).unwrap();
        let grad = Tensor::from_rows(&[&[1.0, -0.5], &[0.3, 0.7], &[-0.2, 0.4]]).unwrap();
        let w = gaussian_weight(&p, &mu, &sig);
        let gmu = gaussian_bwd_mu(&serial(), &p, &w, &grad, &mu, &sig);
        let gsig = gaussian_bwd_sigma(&serial(), &p, &w, &grad, &mu, &sig);
        let h = 1e-3f32;
        let loss = |mu: &Tensor, sig: &Tensor| -> f32 {
            let w = gaussian_weight(&p, mu, sig);
            w.as_slice()
                .iter()
                .zip(grad.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        for k in 0..2 {
            for j in 0..2 {
                let mut mp = mu.clone();
                mp.set(k, j, mu.at(k, j) + h);
                let mut mm = mu.clone();
                mm.set(k, j, mu.at(k, j) - h);
                let num = (loss(&mp, &sig) - loss(&mm, &sig)) / (2.0 * h);
                assert!(
                    (num - gmu.at(k, j)).abs() < 1e-2,
                    "mu[{k},{j}]: {num} vs {}",
                    gmu.at(k, j)
                );
                let mut sp = sig.clone();
                sp.set(k, j, sig.at(k, j) + h);
                let mut sm = sig.clone();
                sm.set(k, j, sig.at(k, j) - h);
                let num = (loss(&mu, &sp) - loss(&mu, &sm)) / (2.0 * h);
                assert!(
                    (num - gsig.at(k, j)).abs() < 1e-2,
                    "sig[{k},{j}]: {num} vs {}",
                    gsig.at(k, j)
                );
            }
        }
    }

    /// `x` of dim `d` in `space` through `chain`.
    fn laid_out(x: &[&[f32]], space: Space, d: Dim, chain: &[Layout]) -> Vec<f32> {
        let (dim, map) = gather_map(chain, d);
        let x = Tensor::from_rows(x).unwrap();
        view(&x, space, dim, &map).as_slice().to_vec()
    }

    #[test]
    fn slice_embed_roundtrip() {
        let window = |wide, rows| {
            let (start, end, total) = (1, 3, 3);
            [Layout::Window(Window {
                start,
                end,
                total,
                wide,
                rows,
            })]
        };
        let x: &[f32] = &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let s = laid_out(&[x], Space::Vertex, Dim::multi(2, 3), &window(false, false));
        assert_eq!(s, [2.0, 3.0, 5.0, 6.0]);
        let e = laid_out(&[&s], Space::Vertex, Dim::multi(2, 2), &window(true, false));
        assert_eq!(e, [0.0, 2.0, 3.0, 0.0, 5.0, 6.0]);
        // A parameter is one row: its row window is a run of the tensor.
        let r = laid_out(
            &[&x[..2], &x[2..4], &x[4..]],
            Space::Param,
            Dim::multi(3, 2),
            &window(false, true),
        );
        assert_eq!(r, x[2..]);
    }

    #[test]
    fn head_reduce_broadcast_featsum() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap(); // 2 heads × 2
        assert_eq!(head_reduce(&x, 2, 2, false).as_slice(), &[4.0, 6.0]);
        assert_eq!(head_reduce(&x, 2, 2, true).as_slice(), &[2.0, 3.0]);
        assert_eq!(feat_sum(&x, 2, 2).as_slice(), &[3.0, 7.0]);
        let (one, v): (&[f32], _) = (&[7.0, 8.0], Space::Vertex);
        let heads = [Layout::BroadcastHeads(2)];
        assert_eq!(
            laid_out(&[one], v, Dim::flat(2), &heads),
            [7.0, 8.0, 7.0, 8.0]
        );
        let feat = [Layout::BroadcastFeat(2)];
        assert_eq!(
            laid_out(&[one], v, Dim::multi(2, 1), &feat),
            [7.0, 7.0, 8.0, 8.0]
        );
    }

    #[test]
    fn gather_mean_and_backward() {
        let g = tri();
        let e = Tensor::from_rows(&[&[2.0], &[4.0], &[6.0]]).unwrap();
        let (m, _) = gather(&serial(), &g, ReduceFn::Mean, EdgeGroup::ByDst, &e);
        assert_eq!(m.as_slice(), &[0.0, 2.0, 5.0]);
        let grad = Tensor::from_rows(&[&[0.0], &[1.0], &[4.0]]).unwrap();
        let back = gather_mean_bwd(&g, EdgeGroup::ByDst, &grad);
        assert_eq!(back.as_slice(), &[1.0, 2.0, 2.0]);
    }

    #[test]
    fn deterministic_chunking_is_exhaustive_and_disjoint() {
        for rows in [0usize, 1, 2, 7, 16, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(rows, threads);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), rows);
                assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
                assert!(b.len() - 1 <= threads.max(1) || rows == 0);
            }
        }
    }
}
