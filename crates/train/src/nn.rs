//! Dense layers with manual backpropagation.

use crate::tensor::Matrix;
use picasso_data::sigmoid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully-connected layer `y = x @ W + b` with optional ReLU.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `in x out`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    /// Whether a ReLU follows.
    pub relu: bool,
    // Forward state kept for backward: the input the last forward pass
    // took (handed back by `take_input` for reuse), and, under a ReLU, the
    // pre-activation in a buffer reused step to step.
    input: Matrix,
    pre_act: Matrix,
}

impl Linear {
    /// Xavier-style initialization from a seeded RNG.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Linear {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
        Linear {
            w: Matrix::from_fn(in_dim, out_dim, |_, _| rng.gen_range(-scale..scale)),
            b: vec![0.0; out_dim],
            relu,
            input: Matrix::zeros(0, 0),
            pre_act: Matrix::zeros(0, 0),
        }
    }

    /// Forward pass; keeps `x` (and the pre-activation) for backward.
    pub fn forward(&mut self, x: Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        self.input = x;
        if self.relu {
            self.pre_act.clone_from(&y);
            // A select rather than a branch: the signs are data, so a
            // branch mispredicts about half the time. Both keep `-0.0`
            // and NaN as they are.
            for v in y.as_mut_slice() {
                *v = if *v < 0.0 { 0.0 } else { *v };
            }
        }
        y
    }

    /// Backward pass: consumes `dy`, returns `dx` and accumulates parameter
    /// gradients into `dw`/`db`.
    pub fn backward(&mut self, mut dy: Matrix, dw: &mut Matrix, db: &mut [f32]) -> Matrix {
        assert_eq!(self.input.rows(), dy.rows(), "forward before backward");
        if self.relu {
            for (g, &z) in dy.as_mut_slice().iter_mut().zip(self.pre_act.as_slice()) {
                *g = if z <= 0.0 { 0.0 } else { *g };
            }
        }
        dw.add_scaled(&self.input.t_matmul(&dy), 1.0);
        for (d, s) in db.iter_mut().zip(dy.col_sums()) {
            *d += s;
        }
        dy.matmul_t(&self.w)
    }

    /// Hands back the input the last forward pass kept (an empty matrix
    /// if none), so a caller can refill its buffer for the next pass.
    /// Backward needs that input, so call this only after it.
    pub fn take_input(&mut self) -> Matrix {
        std::mem::replace(&mut self.input, Matrix::zeros(0, 0))
    }

    /// Allocates zeroed gradient buffers matching this layer.
    pub fn grad_buffers(&self) -> (Matrix, Vec<f32>) {
        (
            Matrix::zeros(self.w.rows(), self.w.cols()),
            vec![0.0; self.b.len()],
        )
    }
}

/// Binary cross-entropy on logits: returns `(mean loss, dlogits)`.
pub fn bce_with_logits(logits: &Matrix, labels: &[f32]) -> (f64, Matrix) {
    assert_eq!(logits.cols(), 1, "logits must be a column");
    assert_eq!(logits.rows(), labels.len());
    let n = labels.len() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(logits.rows(), 1);
    for (i, &label) in labels.iter().enumerate() {
        let z = logits.get(i, 0) as f64;
        let y = label as f64;
        let p = sigmoid(z);
        // Numerically stable BCE: max(z,0) - z*y + ln(1+e^{-|z|}).
        loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        grad.set(i, 0, ((p - y) / n) as f32);
    }
    (loss / n, grad)
}

/// Sigmoid of each logit (prediction probabilities).
pub fn predict(logits: &Matrix) -> Vec<f64> {
    (0..logits.rows())
        .map(|i| sigmoid(logits.get(i, 0) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check on a 2-layer MLP.
    #[test]
    fn gradients_match_finite_differences() {
        let mut l1 = Linear::new(3, 4, true, 1);
        let mut l2 = Linear::new(4, 1, false, 2);
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.8, -0.5, 0.3, 0.1]);
        let labels = vec![1.0, 0.0];

        let loss_fn = |l1: &Linear, l2: &Linear| -> f64 {
            let mut a = l1.clone();
            let mut b = l2.clone();
            let h = a.forward(x.clone());
            let z = b.forward(h);
            bce_with_logits(&z, &labels).0
        };

        // Analytic gradients.
        let h = l1.forward(x.clone());
        let z = l2.forward(h);
        let (_, dz) = bce_with_logits(&z, &labels);
        let (mut dw2, mut db2) = l2.grad_buffers();
        let dh = l2.backward(dz, &mut dw2, &mut db2);
        let (mut dw1, mut db1) = l1.grad_buffers();
        let _ = l1.backward(dh, &mut dw1, &mut db1);

        // Numeric checks on a few weights of each layer.
        let eps = 1e-3f32;
        for (r, c) in [(0usize, 0usize), (1, 2), (2, 3)] {
            let mut lp = l1.clone();
            let v = lp.w.get(r, c);
            lp.w.set(r, c, v + eps);
            let up = loss_fn(&lp, &l2);
            lp.w.set(r, c, v - eps);
            let down = loss_fn(&lp, &l2);
            let numeric = (up - down) / (2.0 * eps as f64);
            let analytic = dw1.get(r, c) as f64;
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "w1[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        for (c, &db) in db2.iter().enumerate() {
            let mut lp = l2.clone();
            lp.b[c] += eps;
            let up = loss_fn(&l1, &lp);
            lp.b[c] -= 2.0 * eps;
            let down = loss_fn(&l1, &lp);
            let numeric = (up - down) / (2.0 * eps as f64);
            assert!((numeric - db as f64).abs() < 1e-3);
        }
    }

    #[test]
    fn relu_blocks_negative_gradients() {
        let mut l = Linear::new(1, 1, true, 3);
        l.w.set(0, 0, 1.0);
        l.b[0] = -5.0; // pre-activation strongly negative
        let x = Matrix::from_vec(1, 1, vec![1.0]);
        let y = l.forward(x);
        assert_eq!(y.get(0, 0), 0.0);
        let (mut dw, mut db) = l.grad_buffers();
        let dx = l.backward(Matrix::from_vec(1, 1, vec![1.0]), &mut dw, &mut db);
        assert_eq!(dx.get(0, 0), 0.0);
        assert_eq!(dw.get(0, 0), 0.0);
    }

    #[test]
    fn bce_loss_is_low_for_confident_correct() {
        let good = Matrix::from_vec(2, 1, vec![8.0, -8.0]);
        let (l_good, _) = bce_with_logits(&good, &[1.0, 0.0]);
        let bad = Matrix::from_vec(2, 1, vec![-8.0, 8.0]);
        let (l_bad, _) = bce_with_logits(&bad, &[1.0, 0.0]);
        assert!(l_good < 0.01);
        assert!(l_bad > 5.0);
    }

    #[test]
    fn predictions_are_probabilities() {
        let z = Matrix::from_vec(3, 1, vec![-100.0, 0.0, 100.0]);
        let p = predict(&z);
        assert!(p[0] < 1e-6);
        assert!((p[1] - 0.5).abs() < 1e-9);
        assert!(p[2] > 1.0 - 1e-6);
    }
}

/// 1-D batch normalization with learnable scale/shift and manual backward —
/// the paper's discussion names (global) batch normalization as an
/// auxiliary for super-large-batch WDL training.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    /// Learnable scale, length `features`.
    pub gamma: Vec<f32>,
    /// Learnable shift, length `features`.
    pub beta: Vec<f32>,
    eps: f32,
    // The last forward pass's normalized input and per-column inverse
    // standard deviation, until backward consumes them.
    cache: Option<(Matrix, Vec<f32>)>,
}

impl BatchNorm {
    /// Identity-initialized normalization over `features` columns.
    pub fn new(features: usize) -> BatchNorm {
        BatchNorm {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            eps: 1e-5,
            cache: None,
        }
    }

    /// Normalizes each column over the batch: `y = gamma * x_hat + beta`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (n, f) = (x.rows(), x.cols());
        assert_eq!(f, self.gamma.len(), "feature width mismatch");
        assert!(n > 0);
        let mut mean = vec![0.0f32; f];
        for r in 0..n {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut var = vec![0.0f32; f];
        for r in 0..n {
            for c in 0..f {
                let d = x.get(r, c) - mean[c];
                var[c] += d * d;
            }
        }
        let inv_std: Vec<f32> = var
            .iter()
            .map(|&v| 1.0 / (v / n as f32 + self.eps).sqrt())
            .collect();
        let mut x_hat = Matrix::zeros(n, f);
        let mut y = Matrix::zeros(n, f);
        for r in 0..n {
            for c in 0..f {
                let h = (x.get(r, c) - mean[c]) * inv_std[c];
                x_hat.set(r, c, h);
                y.set(r, c, self.gamma[c] * h + self.beta[c]);
            }
        }
        self.cache = Some((x_hat, inv_std));
        y
    }

    /// Backward pass: returns `dx`; accumulates `dgamma`/`dbeta`.
    ///
    /// # Panics
    /// Unless a forward pass ran since the last backward.
    pub fn backward(&mut self, dy: &Matrix, dgamma: &mut [f32], dbeta: &mut [f32]) -> Matrix {
        let Some((x_hat, inv_std)) = self.cache.take() else {
            panic!("forward before backward");
        };
        let (n, f) = (dy.rows(), dy.cols());
        let mut sum_dy = vec![0.0f32; f];
        let mut sum_dy_xhat = vec![0.0f32; f];
        for r in 0..n {
            for c in 0..f {
                let g = dy.get(r, c);
                sum_dy[c] += g;
                sum_dy_xhat[c] += g * x_hat.get(r, c);
            }
        }
        for c in 0..f {
            dgamma[c] += sum_dy_xhat[c];
            dbeta[c] += sum_dy[c];
        }
        let mut dx = Matrix::zeros(n, f);
        let n_f = n as f32;
        for r in 0..n {
            for c in 0..f {
                let term = n_f * dy.get(r, c) - sum_dy[c] - x_hat.get(r, c) * sum_dy_xhat[c];
                dx.set(r, c, self.gamma[c] * inv_std[c] * term / n_f);
            }
        }
        dx
    }
}

#[cfg(test)]
mod batchnorm_tests {
    use super::*;

    #[test]
    fn forward_normalizes_columns() {
        let mut bn = BatchNorm::new(2);
        let x = Matrix::from_vec(4, 2, vec![1., 10., 2., 20., 3., 30., 4., 40.]);
        let y = bn.forward(&x);
        for c in 0..2 {
            let mean: f32 = (0..4).map(|r| y.get(r, c)).sum::<f32>() / 4.0;
            let var: f32 = (0..4).map(|r| (y.get(r, c) - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "col {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "col {c} var {var}");
        }
    }

    #[test]
    fn gamma_beta_rescale_output() {
        let mut bn = BatchNorm::new(1);
        bn.gamma[0] = 2.0;
        bn.beta[0] = 5.0;
        let x = Matrix::from_vec(2, 1, vec![-1.0, 1.0]);
        let y = bn.forward(&x);
        let mean: f32 = (y.get(0, 0) + y.get(1, 0)) / 2.0;
        assert!((mean - 5.0).abs() < 1e-5);
        assert!(
            (y.get(1, 0) - y.get(0, 0)).abs() > 3.9,
            "spread scaled by gamma"
        );
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = Matrix::from_vec(3, 2, vec![0.5, -1.0, 1.5, 0.3, -0.7, 2.0]);
        // Scalar loss: weighted sum of outputs.
        let w = [0.3f32, -0.8, 0.5, 0.9, -0.2, 0.4];
        let loss = |bn: &BatchNorm, x: &Matrix| -> f64 {
            let mut b = bn.clone();
            let y = b.forward(x);
            y.as_slice()
                .iter()
                .zip(&w)
                .map(|(a, b)| (a * b) as f64)
                .sum()
        };
        let mut bn = BatchNorm::new(2);
        bn.gamma = vec![1.3, 0.7];
        bn.beta = vec![0.1, -0.2];
        let _ = bn.forward(&x);
        let dy = Matrix::from_vec(3, 2, w.to_vec());
        let mut dgamma = vec![0.0; 2];
        let mut dbeta = vec![0.0; 2];
        let dx = bn.backward(&dy, &mut dgamma, &mut dbeta);

        let eps = 1e-3f32;
        for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let up = loss(&bn, &xp);
            xp.set(r, c, x.get(r, c) - eps);
            let down = loss(&bn, &xp);
            let numeric = (up - down) / (2.0 * eps as f64);
            let analytic = dx.get(r, c) as f64;
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "dx[{r},{c}] numeric {numeric} analytic {analytic}"
            );
        }
        // dgamma check.
        let base_gamma = bn.gamma.clone();
        for (c, &dg) in dgamma.iter().enumerate() {
            let mut bp = bn.clone();
            bp.gamma = base_gamma.clone();
            bp.gamma[c] += eps;
            let up = loss(&bp, &x);
            bp.gamma[c] -= 2.0 * eps;
            let down = loss(&bp, &x);
            let numeric = (up - down) / (2.0 * eps as f64);
            assert!(
                (numeric - dg as f64).abs() < 2e-3,
                "dgamma[{c}] numeric {numeric} analytic {dg}"
            );
        }
    }
}
