//! Bit-exact oracle of the trainer's matrix products.
//!
//! `matmul`, `t_matmul` and `matmul_t` must each equal a naive reference
//! bit for bit: every output element is `acc = 0.0; acc += a * b` over the
//! inner index in ascending order. The kernels may loop in any order and
//! tile the outputs however they like, but no output may see its terms
//! summed in a different order. The output row count is drawn from
//! `0..=20`, so the 2-, 4- and 8-row tiles run with and without leftover rows;
//! the output column count and the inner dimension from `0..=80`, with half
//! of the draws taken from the widths the blocked kernels treat specially
//! (0, 1, 4, 8, 32, 64 and 68: empty, one column, one 4- and one 8-wide
//! tail, one and two 32-wide blocks, and the trainer's 68-wide input with
//! its 4-wide remainder). Values are finite, spread over sixteen binades,
//! and an eighth of them each are an exact `0.0` or `-0.0`.
//!
//! Each product is checked through the plain method, which dispatches to
//! [`Kernel::native`], and on every instantiation this CPU runs
//! ([`Kernel::available`]): the portable one, the only one other CPUs run,
//! and AVX2 and AVX-512 where the CPU has them.

use picasso_data::splitmix64;
use picasso_train::{Kernel, Matrix};
use proptest::prelude::*;

/// A `rows x cols` matrix of finite values drawn from `seed`.
fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = splitmix64(state);
        match state % 8 {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                let binade = ((state >> 3) % 16) as i32 - 8;
                (unit * 2f64.powi(binade)) as f32
            }
        }
    })
}

/// Widths the blocked kernels treat specially.
const EDGES: [usize; 7] = [0, 1, 4, 8, 32, 64, 68];

/// A column or inner dimension: one of [`EDGES`] half of the time, else
/// uniform in `0..=80`.
fn width() -> impl Strategy<Value = usize> {
    (0usize..2, 0usize..EDGES.len(), 0usize..81).prop_map(
        |(pick, edge, any)| {
            if pick == 0 {
                EDGES[edge]
            } else {
                any
            }
        },
    )
}

/// The reference: `out[i][j] = 0.0 + a(i, 0) * b(0, j) + ... + a(i, k-1) *
/// b(k-1, j)`, summed left to right.
fn naive(
    m: usize,
    n: usize,
    k: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn signed_zeros_sum_from_positive_zero() {
    let neg = Matrix::from_vec(1, 2, vec![-0.0, -0.0]);
    let one = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
    // 0.0 + (-0.0) + (-0.0) is +0.0, and so is the empty sum.
    assert_eq!(bits(&neg.matmul(&one)), vec![0.0f32.to_bits()]);
    assert_eq!(bits(&neg.matmul_t(&neg)), vec![0.0f32.to_bits()]);
    assert_eq!(bits(&one.t_matmul(&one)), vec![2.0f32.to_bits()]);
    let empty = Matrix::zeros(2, 0);
    assert_eq!(bits(&empty.matmul_t(&empty)), vec![0; 4]);
}

proptest! {
    /// `a @ b` with `a: m x k`, `b: k x n`.
    #[test]
    fn matmul_matches_the_reference(
        m in 0usize..21,
        k in width(),
        n in width(),
        seed in 0u64..u64::MAX,
    ) {
        let a = random(m, k, seed);
        let b = random(k, n, seed ^ 0x5eed);
        let want = naive(m, n, k, |i, p| a.get(i, p), |p, j| b.get(p, j));
        prop_assert_eq!(bits(&a.matmul(&b)), want.clone(), "{}x{} @ {}x{}", m, k, k, n);
        for kernel in Kernel::available() {
            prop_assert_eq!(bits(&a.matmul_with(&b, kernel)), want.clone(), "{:?}", kernel);
        }
    }

    /// `a^T @ b` with `a: k x m`, `b: k x n`.
    #[test]
    fn t_matmul_matches_the_reference(
        m in 0usize..21,
        k in width(),
        n in width(),
        seed in 0u64..u64::MAX,
    ) {
        let a = random(k, m, seed);
        let b = random(k, n, seed ^ 0x5eed);
        let want = naive(m, n, k, |i, p| a.get(p, i), |p, j| b.get(p, j));
        prop_assert_eq!(bits(&a.t_matmul(&b)), want.clone(), "({}x{})^T @ {}x{}", k, m, k, n);
        for kernel in Kernel::available() {
            prop_assert_eq!(bits(&a.t_matmul_with(&b, kernel)), want.clone(), "{:?}", kernel);
        }
    }

    /// `a @ b^T` with `a: m x k`, `b: n x k`.
    #[test]
    fn matmul_t_matches_the_reference(
        m in 0usize..21,
        k in width(),
        n in width(),
        seed in 0u64..u64::MAX,
    ) {
        let a = random(m, k, seed);
        let b = random(n, k, seed ^ 0x5eed);
        let want = naive(m, n, k, |i, p| a.get(i, p), |p, j| b.get(j, p));
        prop_assert_eq!(bits(&a.matmul_t(&b)), want.clone(), "{}x{} @ ({}x{})^T", m, k, n, k);
        for kernel in Kernel::available() {
            prop_assert_eq!(bits(&a.matmul_t_with(&b, kernel)), want.clone(), "{:?}", kernel);
        }
    }
}
