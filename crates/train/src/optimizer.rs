//! Optimizers and the asynchronous-staleness model.

use crate::tensor::Matrix;
use std::collections::VecDeque;

/// Adagrad state for one dense parameter matrix + bias.
#[derive(Debug, Clone)]
pub struct Adagrad {
    lr: f32,
    eps: f32,
    acc_w: Matrix,
    acc_b: Vec<f32>,
}

impl Adagrad {
    /// Creates state for a `rows x cols` weight and `cols` bias.
    pub fn new(rows: usize, cols: usize, lr: f32) -> Adagrad {
        Adagrad {
            lr,
            eps: 1e-8,
            acc_w: Matrix::zeros(rows, cols),
            acc_b: vec![0.0; cols],
        }
    }

    /// The per-weight squared-gradient accumulator.
    pub fn acc_w(&self) -> &Matrix {
        &self.acc_w
    }

    /// The per-bias squared-gradient accumulator.
    pub fn acc_b(&self) -> &[f32] {
        &self.acc_b
    }

    /// Replaces the accumulators (checkpoint restore). Shapes must match.
    pub fn restore_acc(&mut self, acc_w: Matrix, acc_b: Vec<f32>) {
        assert_eq!(
            acc_w.rows(),
            self.acc_w.rows(),
            "accumulator rows must match"
        );
        assert_eq!(
            acc_w.cols(),
            self.acc_w.cols(),
            "accumulator cols must match"
        );
        assert_eq!(
            acc_b.len(),
            self.acc_b.len(),
            "bias accumulator length must match"
        );
        self.acc_w = acc_w;
        self.acc_b = acc_b;
    }

    /// Applies one accumulated gradient to the parameters.
    pub fn step(&mut self, w: &mut Matrix, b: &mut [f32], dw: &Matrix, db: &[f32]) {
        for i in 0..w.as_slice().len() {
            let g = dw.as_slice()[i];
            self.acc_w.as_mut_slice()[i] += g * g;
            let denom = (self.acc_w.as_slice()[i]).sqrt() + self.eps;
            w.as_mut_slice()[i] -= self.lr * g / denom;
        }
        for i in 0..b.len() {
            let g = db[i];
            self.acc_b[i] += g * g;
            b[i] -= self.lr * g / (self.acc_b[i].sqrt() + self.eps);
        }
    }
}

/// A delay line modelling asynchronous-PS gradient staleness: gradients
/// computed at step `t` are applied at step `t + staleness`, so parameters
/// they were computed against are stale by then. `staleness = 0` degrades
/// to synchronous training.
#[derive(Debug)]
pub struct StalenessQueue<G> {
    staleness: usize,
    queue: VecDeque<G>,
}

impl<G> StalenessQueue<G> {
    /// Creates a queue with the given delay.
    pub fn new(staleness: usize) -> Self {
        StalenessQueue {
            staleness,
            queue: VecDeque::new(),
        }
    }

    /// Pushes this step's gradient and returns the gradient due for
    /// application now (if any).
    pub fn exchange(&mut self, grad: G) -> Option<G> {
        self.queue.push_back(grad);
        if self.queue.len() > self.staleness {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Drains any still-queued gradients (applied at the end of training).
    pub fn drain(&mut self) -> impl Iterator<Item = G> + '_ {
        self.queue.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adagrad_decreases_effective_lr() {
        let mut w = Matrix::from_vec(1, 1, vec![1.0]);
        let mut b = vec![0.0];
        let mut opt = Adagrad::new(1, 1, 0.1);
        let g = Matrix::from_vec(1, 1, vec![1.0]);
        opt.step(&mut w, &mut b, &g, &[1.0]);
        let first_step = 1.0 - w.get(0, 0);
        opt.step(&mut w, &mut b, &g, &[1.0]);
        let second_step = (1.0 - first_step) - w.get(0, 0);
        assert!(first_step > 0.0);
        assert!(
            second_step < first_step,
            "accumulated curvature shrinks steps"
        );
        assert!(b[0] < 0.0);
    }

    #[test]
    fn zero_staleness_is_synchronous() {
        let mut q = StalenessQueue::new(0);
        assert_eq!(q.exchange(1), Some(1));
        assert_eq!(q.exchange(2), Some(2));
    }

    #[test]
    fn staleness_delays_gradients() {
        let mut q = StalenessQueue::new(2);
        assert_eq!(q.exchange(1), None);
        assert_eq!(q.exchange(2), None);
        assert_eq!(q.exchange(3), Some(1));
        assert_eq!(q.exchange(4), Some(2));
        let rest: Vec<_> = q.drain().collect();
        assert_eq!(rest, vec![3, 4]);
    }
}
