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
