//! A minimal dense matrix type with the operations the trainer needs.
//!
//! Row-major `f32` storage; just enough BLAS-like functionality for small
//! MLPs with manual backpropagation. No external numeric dependencies.

/// A row-major matrix.
#[derive(Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies into `self`'s buffer, reallocating only to grow it.
    fn clone_from(&mut self, source: &Matrix) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of one row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Raw data slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw data slice, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self @ other`. Each output sums its terms in index order from `0.0`
    /// (see `Matrix::fill_product` for the blocking).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "shape mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let a = |i: usize, p: usize| self.data[i * self.cols + p];
        out.fill_product(self.cols, a, |p| other.row(p));
        out
    }

    /// `self^T @ other` without materializing the transpose: output row
    /// `i` reads column `i` of `self` down the shared rows.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "shape mismatch in t_matmul");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let a = |i: usize, p: usize| self.data[p * self.cols + i];
        out.fill_product(self.rows, a, |p| other.row(p));
        out
    }

    /// `self @ other^T`, as [`Matrix::matmul`] over a transposed copy of
    /// `other`: the same per-output term order.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "shape mismatch in matmul_t");
        let other_t = Matrix::from_fn(other.cols, other.rows, |r, c| other.get(c, r));
        self.matmul(&other_t)
    }

    /// Overwrites `self` with the product `out[i][j] = 0.0 + a(i, 0) *
    /// b(0)[j] + ... + a(i, k-1) * b(k-1)[j]`, summed left to right.
    ///
    /// The outputs go in register tiles: each tile of `R` rows by `W`
    /// columns sits in a fixed-size accumulator array for the whole inner
    /// loop, so every output keeps the exact term order of the naive
    /// triple loop. Columns go 32 at a time (one row per tile), then the
    /// remainder 8, 4 and 1 at a time, with 4, 8 and 8 rows per tile so
    /// that narrow tiles still hold enough independent sums to hide the
    /// add latency. No zero term is skipped: for finite inputs a `±0.0`
    /// product is exact to add, since a sum that starts at `0.0` is never
    /// `-0.0`.
    fn fill_product<'b>(
        &mut self,
        k: usize,
        a: impl Fn(usize, usize) -> f32 + Copy,
        b: impl Fn(usize) -> &'b [f32] + Copy,
    ) {
        let c = self.fill_cols::<1, 32>(0, k, a, b);
        let c = self.fill_cols::<4, 8>(c, k, a, b);
        let c = self.fill_cols::<8, 4>(c, k, a, b);
        self.fill_cols::<8, 1>(c, k, a, b);
    }

    /// Fills `W`-wide column blocks from column `c` on while they fit, `R`
    /// rows per tile and then the leftover rows one at a time; returns the
    /// first column left unfilled.
    #[inline(always)]
    fn fill_cols<'b, const R: usize, const W: usize>(
        &mut self,
        mut c: usize,
        k: usize,
        a: impl Fn(usize, usize) -> f32 + Copy,
        b: impl Fn(usize) -> &'b [f32] + Copy,
    ) -> usize {
        while c + W <= self.cols {
            let mut r = 0;
            while r + R <= self.rows {
                self.tile::<R, W>(r, c, k, a, b);
                r += R;
            }
            while r < self.rows {
                self.tile::<1, W>(r, c, k, a, b);
                r += 1;
            }
            c += W;
        }
        c
    }

    /// One `R x W` tile of [`Matrix::fill_product`] at row `r`, column `c`.
    #[inline(always)]
    fn tile<'b, const R: usize, const W: usize>(
        &mut self,
        r: usize,
        c: usize,
        k: usize,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize) -> &'b [f32],
    ) {
        let mut acc = [[0.0f32; W]; R];
        for p in 0..k {
            let row: &[f32; W] = b(p)[c..c + W].try_into().expect("tile width");
            for (i, sums) in acc.iter_mut().enumerate() {
                let x = a(r + i, p);
                for (o, &v) in sums.iter_mut().zip(row) {
                    *o += x * v;
                }
            }
        }
        for (i, sums) in acc.iter().enumerate() {
            self.row_mut(r + i)[c..c + W].copy_from_slice(sums);
        }
    }

    /// Adds `other` scaled by `alpha` in place.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of each column (useful for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_calc() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        // a^T @ b via t_matmul equals transpose-then-matmul.
        let at = Matrix::from_fn(4, 3, |r, c| a.get(c, r));
        assert_eq!(a.t_matmul(&b).as_slice(), at.matmul(&b).as_slice());
        // a @ c^T via matmul_t.
        let c = Matrix::from_fn(5, 4, |r, cc| (r as f32 - cc as f32) * 0.25);
        let ct = Matrix::from_fn(4, 5, |r, cc| c.get(cc, r));
        let left = a.matmul_t(&c);
        let right = a.matmul(&ct);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn add_scaled_and_col_sums() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.col_sums(), vec![2.0, 3.0]);
    }

    #[test]
    fn row_accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[1., 2., 3.]);
        assert_eq!(m.row(0), &[0., 0., 0.]);
        assert_eq!(m.row(1), &[1., 2., 3.]);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
