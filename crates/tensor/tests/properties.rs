//! Property-based tests of the tensor substrate.

use gnnopt_tensor::gemm::{gemm, GemmKernel, Layout};
use gnnopt_tensor::Tensor;
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::new(&[r, c], data).expect("shape matches"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        seed in 0u64..1000,
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        let gen = |s: u64, rows: usize, cols: usize| {
            Tensor::from_fn(&[rows, cols], |i| (((i as u64 + s) * 2654435761 % 97) as f32 - 48.0) / 16.0)
        };
        let a = gen(seed, m, k);
        let b = gen(seed + 1, k, n);
        let c = gen(seed + 2, k, n);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.allclose_with(&rhs, 1e-3, 1e-3), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn transpose_is_involution(t in small_matrix(8)) {
        let round_trip = t.transpose().transpose();
        prop_assert_eq!(round_trip.as_slice(), t.as_slice());
    }

    #[test]
    fn matmul_transpose_identity(
        seed in 0u64..1000, m in 1usize..6, k in 1usize..6, n in 1usize..6,
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let gen = |s: u64, rows: usize, cols: usize| {
            Tensor::from_fn(&[rows, cols], |i| (((i as u64 + s) * 40503 % 89) as f32 - 44.0) / 8.0)
        };
        let a = gen(seed, m, k);
        let b = gen(seed + 7, k, n);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.allclose_with(&rhs, 1e-2, 1e-3));
    }

    #[test]
    fn softmax_rows_are_distributions(t in small_matrix(8)) {
        let s = t.softmax_rows().unwrap();
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn add_sub_roundtrip(t in small_matrix(8)) {
        let z = t.add(&t).unwrap().sub(&t).unwrap();
        prop_assert!(z.allclose_with(&t, 1e-4, 1e-4));
    }

    #[test]
    fn select_rows_matches_manual(t in small_matrix(6), idx in proptest::collection::vec(0usize..6, 1..8)) {
        let valid: Vec<usize> = idx.into_iter().filter(|&i| i < t.rows()).collect();
        prop_assume!(!valid.is_empty());
        let sel = t.select_rows(&valid).unwrap();
        for (out_row, &src) in valid.iter().enumerate() {
            prop_assert_eq!(sel.row(out_row), t.row(src));
        }
    }

    #[test]
    fn scalar_broadcast_equals_map(t in small_matrix(8), s in -4.0f32..4.0) {
        let via_broadcast = t.mul(&Tensor::from_vec(vec![s])).unwrap();
        let via_map = t.scale(s);
        prop_assert!(via_broadcast.allclose(&via_map));
    }

    #[test]
    fn max_cols_is_max(t in small_matrix(8)) {
        let (vals, idx) = t.max_cols().unwrap();
        for i in 0..t.rows() {
            let row = t.row(i);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(vals.at(i, 0), m);
            prop_assert_eq!(row[idx[i]], m);
        }
    }
}

/// Share of exact zeros in a generated left operand: none, a sprinkling
/// (one in five), or ReLU density (about half) — what a post-activation
/// `h·W` / `hᵀ·G` product actually sees.
#[derive(Debug, Clone, Copy)]
enum Zeros {
    None,
    Some,
    Relu,
}

const ZEROS: [Zeros; 3] = [Zeros::None, Zeros::Some, Zeros::Relu];

/// Deterministic pseudo-random operand in `[-3, 3)` with the requested
/// share of exact zeros. The non-zero values carry full 24-bit
/// mantissas, so products and partial sums round: a kernel whose
/// rounding chain differs from the reference's (a fused multiply-add
/// for a `mul` then an `add`, or another k order) shows as a bit
/// mismatch, where short dyadic operands would keep every step exact.
fn gemm_operand(len: usize, seed: u64, zeros: Zeros) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let h = h ^ (h >> 31);
            let zero = match zeros {
                Zeros::None => false,
                Zeros::Some => h.is_multiple_of(5),
                Zeros::Relu => (h >> 3).is_multiple_of(2),
            };
            if zero {
                0.0
            } else {
                (h >> 40) as f32 / (1u64 << 24) as f32 * 6.0 - 3.0
            }
        })
        .collect()
}

/// The naive Nn loop on plain indices: the oracle every kernel, layout
/// and thread count must reproduce **bitwise**. It states the GEMM's
/// rounding contract: one fused multiply-add per k-step, in ascending k.
/// With `skip` it leaves out every term whose left coefficient is zero —
/// the engine has no such path, and
/// [`dense_chain_equals_zero_skipping_reference`] is the proof it never
/// needed one for exactness.
fn nn_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, skip: bool) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if skip && av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] = av.mul_add(b[kk * n + j], out[i * n + j]);
            }
        }
    }
    out
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// Checks every layout × kernel × thread count against `want` bitwise.
fn check_all_layouts(
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    want: &[f32],
) -> Result<(), TestCaseError> {
    let at = transpose(a, m, k);
    for threads in [1usize, 4] {
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            for (layout, a) in [(Layout::Nn, a), (Layout::Tn, &at[..])] {
                let mut out = vec![0.0f32; m * n];
                gemm(kernel, layout, a, b, &mut out, m, k, n, threads);
                prop_assert_eq!(
                    &out[..],
                    want,
                    "{:?} {:?} t={} m={} k={} n={}",
                    layout,
                    kernel,
                    threads,
                    m,
                    k,
                    n
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole determinism contract: the blocked register-tiled
    /// engine is bit-identical to the naive ikj reference on ragged
    /// shapes, across every layout and thread count. The shape classes
    /// are the places an in-place `A` tile (rows past a ragged tile alias
    /// the last valid row) and the panel packers can go wrong: fewer rows
    /// than one register tile, row counts one past and one short of a
    /// multiple of the 12-row tile height, widths one past and one short
    /// of a multiple of the 32-lane panel (a masked column tail), 1×n,
    /// m×1, 1×1, and — with threads = 4 — row-partitioned `Nn` workers
    /// starting at `i0 ≠ 0` and `Tn` column slabs at `j0 ≠ 0`.
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive(
        seed in 0u64..1000,
        m in 1usize..40, k in 1usize..40, n in 1usize..40,
        class in 0usize..7,
        zeros in 0usize..3,
    ) {
        let (m, n) = match class {
            1 => (1, n),
            2 => (m, 1),
            3 => (1, 1),
            // Below one register tile of either SIMD geometry.
            4 => (1 + m % 5, n),
            // One past a multiple of the widest tile's height and width.
            5 => (12 * (1 + m % 3) + 1, 32 * (1 + n % 2) + 1),
            // One short of them.
            6 => (12 * (1 + m % 3) - 1, 32 * (1 + n % 2) - 1),
            _ => (m, n),
        };
        let a = gemm_operand(m * k, seed, ZEROS[zeros]);
        let b = gemm_operand(k * n, seed + 1, Zeros::None);
        let want = nn_reference(&a, &b, m, k, n, false);
        check_all_layouts(&a, &b, (m, k, n), &want)?;
    }

    /// The same contract past one `KC = 256` panel depth and one `MC = 96`
    /// row block: in-place `A` tiles are then read at `kc0 > 0` and
    /// `ic > 0`, and `C` carries partial sums between k-blocks.
    #[test]
    fn blocked_gemm_is_bit_identical_past_one_cache_block(
        seed in 0u64..1000,
        m in 1usize..120, k in 257usize..300, n in 1usize..24,
        zeros in 0usize..3,
    ) {
        let a = gemm_operand(m * k, seed, ZEROS[zeros]);
        let b = gemm_operand(k * n, seed + 1, Zeros::None);
        let want = nn_reference(&a, &b, m, k, n, false);
        check_all_layouts(&a, &b, (m, k, n), &want)?;
    }

    /// Why the engine has no zero-skip path: the dense chain *is* the
    /// zero-skipping one, bit for bit. A skipped term is `fma(±0, b, acc)`,
    /// which returns `acc` unchanged when `acc` is non-zero or `+0.0`
    /// (`±0 + +0` is `+0`). The accumulator starts at `+0.0`, and a fused
    /// step returns `−0.0` only when both of its addends are `−0` or a
    /// negative exact result underflows, which no product of these
    /// operands is small enough to do. So leaving a zero term out changes
    /// nothing, at any zero density, negative values included.
    #[test]
    fn dense_chain_equals_zero_skipping_reference(
        seed in 0u64..1000,
        m in 1usize..24, k in 1usize..48, n in 1usize..24,
        zeros in 1usize..3,
    ) {
        let a = gemm_operand(m * k, seed, ZEROS[zeros]);
        let b = gemm_operand(k * n, seed + 1, Zeros::None);
        let skipping = nn_reference(&a, &b, m, k, n, true);
        let dense = nn_reference(&a, &b, m, k, n, false);
        prop_assert_eq!(
            skipping.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            dense.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        check_all_layouts(&a, &b, (m, k, n), &skipping)?;
    }

    /// `matmul_tn` is parallelized over output column blocks; the
    /// partition must never change a bit relative to one worker (each
    /// output element keeps its serial k-ordered accumulation chain).
    #[test]
    fn matmul_tn_parallel_is_bit_identical_to_serial(
        seed in 0u64..1000,
        m in 1usize..24, k in 1usize..64, n in 1usize..24,
        zeros in 0usize..3,
    ) {
        let a = gemm_operand(k * m, seed, ZEROS[zeros]);
        let b = gemm_operand(k * n, seed + 3, Zeros::None);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut serial = vec![0.0f32; m * n];
            gemm(kernel, Layout::Tn, &a, &b, &mut serial, m, k, n, 1);
            for threads in [2usize, 4, 7] {
                let mut par = vec![0.0f32; m * n];
                gemm(kernel, Layout::Tn, &a, &b, &mut par, m, k, n, threads);
                prop_assert_eq!(&par, &serial, "{:?} threads={}", kernel, threads);
            }
        }
    }

    /// The `Tensor`-level products agree bitwise across kernels on data
    /// with ReLU-style zero sparsity (the left operand of every
    /// post-activation `Linear` in a GNN step).
    #[test]
    fn tensor_products_agree_across_kernels(
        seed in 0u64..1000,
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        zeros in 0usize..3,
    ) {
        let a = Tensor::new(&[m, k], gemm_operand(m * k, seed, ZEROS[zeros])).unwrap();
        let b = Tensor::new(&[k, n], gemm_operand(k * n, seed + 5, Zeros::None)).unwrap();
        let nn_naive = a.matmul_with(&b, GemmKernel::Naive).unwrap();
        let nn_blocked = a.matmul_with(&b, GemmKernel::Blocked).unwrap();
        prop_assert_eq!(nn_naive.as_slice(), nn_blocked.as_slice());

        let at = a.transpose();
        let tn_naive = at.matmul_tn_with(&b, GemmKernel::Naive).unwrap();
        let tn_blocked = at.matmul_tn_with(&b, GemmKernel::Blocked).unwrap();
        prop_assert_eq!(tn_naive.as_slice(), tn_blocked.as_slice());
        prop_assert_eq!(tn_naive.as_slice(), nn_naive.as_slice());
    }
}
