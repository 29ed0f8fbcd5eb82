//! A minimal dense matrix type with the operations the trainer needs.
//!
//! Row-major `f32` storage; just enough BLAS-like functionality for small
//! MLPs with manual backpropagation. No external numeric dependencies.

/// Which instantiation of the blocked product kernels a product runs.
///
/// Every instantiation compiles the same source, so each output element
/// sums the same terms in the same order and the results are bit-identical;
/// they differ only in the vector width the compiler may use and in how
/// many rows a 32-wide tile holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Isa);

/// The instruction-set extension a [`Kernel`] is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Generic,
    /// Only constructed after `is_x86_feature_detected!("avx2")`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Only constructed after `is_x86_feature_detected!("avx512f")`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every instantiation this CPU runs, narrowest first: the portable
    /// one, built for the target's baseline features, then AVX2 and
    /// AVX-512 where the CPU reports them at run time.
    pub fn available() -> Vec<Kernel> {
        let mut out = vec![Kernel(Isa::Generic)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                out.push(Kernel(Isa::Avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                out.push(Kernel(Isa::Avx512));
            }
        }
        out
    }

    /// The widest instantiation this CPU runs: the last of
    /// [`Kernel::available`].
    pub fn native() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Kernel(Isa::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel(Isa::Avx2);
            }
        }
        Kernel(Isa::Generic)
    }
}

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

    /// Reshapes to `rows x cols` zeros, reusing the buffer's allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self @ other`. Each output sums its terms in index order from `0.0`
    /// (see `Matrix::fill_product` for the blocking).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with(other, Kernel::native())
    }

    /// [`Matrix::matmul`] on the given kernel instantiation.
    pub fn matmul_with(&self, other: &Matrix, kernel: Kernel) -> Matrix {
        assert_eq!(self.cols, other.rows, "shape mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let a = |i: usize, p: usize| self.data[i * self.cols + p];
        out.fill_product(kernel, self.cols, a, |p| other.row(p));
        out
    }

    /// `self^T @ other` without materializing the transpose: output row
    /// `i` reads column `i` of `self` down the shared rows.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_with(other, Kernel::native())
    }

    /// [`Matrix::t_matmul`] on the given kernel instantiation.
    pub fn t_matmul_with(&self, other: &Matrix, kernel: Kernel) -> Matrix {
        assert_eq!(self.rows, other.rows, "shape mismatch in t_matmul");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let a = |i: usize, p: usize| self.data[p * self.cols + i];
        out.fill_product(kernel, self.rows, a, |p| other.row(p));
        out
    }

    /// `self @ other^T`, as [`Matrix::matmul`] over a transposed copy of
    /// `other`: the same per-output term order.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_with(other, Kernel::native())
    }

    /// [`Matrix::matmul_t`] on the given kernel instantiation.
    pub fn matmul_t_with(&self, other: &Matrix, kernel: Kernel) -> Matrix {
        assert_eq!(self.cols, other.cols, "shape mismatch in matmul_t");
        let other_t = Matrix::from_fn(other.cols, other.rows, |r, c| other.get(c, r));
        self.matmul_with(&other_t, kernel)
    }

    /// Overwrites `self` with the product `out[i][j] = 0.0 + a(i, 0) *
    /// b(0)[j] + ... + a(i, k-1) * b(k-1)[j]`, summed left to right, on
    /// `kernel`'s instantiation of [`Matrix::fill_blocked`].
    fn fill_product<'b>(
        &mut self,
        kernel: Kernel,
        k: usize,
        a: impl Fn(usize, usize) -> f32 + Copy,
        b: impl Fn(usize) -> &'b [f32] + Copy,
    ) {
        match kernel.0 {
            Isa::Generic => self.fill_blocked::<1>(k, a, b),
            // SAFETY: `Isa::Avx2` is only constructed after
            // `is_x86_feature_detected!("avx2")` reported AVX2 on this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { self.fill_blocked_avx2(k, a, b) },
            // SAFETY: `Isa::Avx512` is only constructed after
            // `is_x86_feature_detected!("avx512f")` reported AVX-512F on
            // this CPU.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { self.fill_blocked_avx512(k, a, b) },
        }
    }

    /// [`Matrix::fill_blocked`] compiled with AVX2 enabled, two rows per
    /// 32-wide tile (eight `ymm` registers hold the two rows' sums). The
    /// source, and with it every output's operation sequence, is the
    /// generic one: AVX2 only widens the vectors the same adds and
    /// multiplies run in. FMA stays off, so every product is rounded
    /// before it is added, as in the generic build.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn fill_blocked_avx2<'b>(
        &mut self,
        k: usize,
        a: impl Fn(usize, usize) -> f32 + Copy,
        b: impl Fn(usize) -> &'b [f32] + Copy,
    ) {
        self.fill_blocked::<2>(k, a, b);
    }

    /// [`Matrix::fill_blocked`] compiled with AVX-512F enabled, four rows
    /// per 32-wide tile (eight `zmm` registers hold the four rows' sums).
    /// AVX-512F makes FMA instructions available, but Rust never fuses a
    /// multiply and an add on its own (there is no contraction without an
    /// explicit `mul_add`), so every product is still rounded before it is
    /// added and the bits equal the generic build's.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn fill_blocked_avx512<'b>(
        &mut self,
        k: usize,
        a: impl Fn(usize, usize) -> f32 + Copy,
        b: impl Fn(usize) -> &'b [f32] + Copy,
    ) {
        self.fill_blocked::<4>(k, a, b);
    }

    /// The register-blocked product of [`Matrix::fill_product`].
    ///
    /// The outputs go in register tiles: each tile of `R` rows by `W`
    /// columns sits in a fixed-size accumulator array for the whole inner
    /// loop, so every output keeps the exact term order of the naive
    /// triple loop. Columns go 32 at a time (`R32` rows per tile), then the
    /// remainder 8, 4 and 1 at a time, with 4, 8 and 8 rows per tile so
    /// that narrow tiles still hold enough independent sums to hide the
    /// add latency. No zero term is skipped: for finite inputs a `±0.0`
    /// product is exact to add, since a sum that starts at `0.0` is never
    /// `-0.0`.
    #[inline(always)]
    fn fill_blocked<'b, const R32: usize>(
        &mut self,
        k: usize,
        a: impl Fn(usize, usize) -> f32 + Copy,
        b: impl Fn(usize) -> &'b [f32] + Copy,
    ) {
        let c = self.fill_cols::<R32, 32>(0, k, a, b);
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

    /// One `R x W` tile of [`Matrix::fill_blocked`] at row `r`, column `c`.
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
            // A `c..c + W` slice is `W` long, so the conversion never fails.
            #[allow(clippy::expect_used)]
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
