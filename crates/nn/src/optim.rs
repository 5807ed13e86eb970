//! SGD and Adam optimizers.
//!
//! Optimizers key per-parameter state by *visitation slot*: call
//! [`Optimizer::begin_step`] once, then feed every parameter in a stable
//! order (a network's `visit_params` order is stable by construction).

use crate::layer::Param;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// An optimizer over [`Param`]s.
///
/// ```
/// use mmp_nn::{InferenceCtx, Layer, Linear, Optimizer, Sgd, Tape, Tensor};
///
/// let mut lin = Linear::new(2, 1, 0);
/// let mut opt = Sgd::new(0.1, 0.0);
/// let mut ctx = InferenceCtx::new();
/// let mut tape = Tape::new();
/// let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
/// let before = lin.forward(&x, &mut ctx, Some(&mut tape)).as_slice()[0];
/// lin.backward(&Tensor::from_vec(&[1, 1], vec![1.0]), &mut tape); // d loss/d y = 1
/// opt.begin_step();
/// lin.visit_params(&mut |p| opt.update(p));
/// let after = lin.forward(&x, &mut ctx, None).as_slice()[0];
/// assert!(after < before, "gradient step must reduce the output");
/// ```
pub trait Optimizer {
    /// Starts a new step (resets the slot counter).
    fn begin_step(&mut self);

    /// Applies the update to one parameter using its accumulated gradient.
    fn update(&mut self, param: &mut Param);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: Vec<Tensor>,
    slot: usize,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
            slot: 0,
        }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self) {
        self.slot = 0;
    }

    fn update(&mut self, param: &mut Param) {
        if self.slot == self.velocity.len() {
            self.velocity.push(Tensor::zeros(param.value.shape()));
        }
        let v = &mut self.velocity[self.slot];
        self.slot += 1;
        let (vs, gs, ps) = (
            v.as_mut_slice(),
            param.grad.as_slice(),
            param.value.shape().to_vec(),
        );
        debug_assert_eq!(&ps[..], param.grad.shape());
        for (vi, gi) in vs.iter_mut().zip(gs) {
            *vi = self.momentum * *vi + gi;
        }
        for (pv, vi) in param.value.as_mut_slice().iter_mut().zip(v.as_slice()) {
            *pv -= self.lr * vi;
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u32,
    slot: usize,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
            slot: 0,
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.slot = 0;
        self.t += 1;
    }

    fn update(&mut self, param: &mut Param) {
        if self.slot == self.m.len() {
            self.m.push(Tensor::zeros(param.value.shape()));
            self.v.push(Tensor::zeros(param.value.shape()));
        }
        let slot = self.slot;
        self.slot += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let m = self.m[slot].as_mut_slice();
        let v = self.v[slot].as_mut_slice();
        let g = param.grad.as_slice();
        let p = param.value.as_mut_slice();
        for i in 0..p.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            p[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new(Tensor::from_vec(&[1], vec![x0]))
    }

    /// Minimise f(x) = x² with both optimizers: x must approach 0.
    #[test]
    fn sgd_minimizes_quadratic() {
        let mut p = quadratic_param(5.0);
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            p.grad.as_mut_slice()[0] = 2.0 * p.value.as_slice()[0];
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!(p.value.as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |momentum: f32| {
            let mut p = quadratic_param(5.0);
            let mut opt = Sgd::new(0.01, momentum);
            for _ in 0..50 {
                p.grad.as_mut_slice()[0] = 2.0 * p.value.as_slice()[0];
                opt.begin_step();
                opt.update(&mut p);
            }
            p.value.as_slice()[0].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut p = quadratic_param(5.0);
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            p.grad.as_mut_slice()[0] = 2.0 * p.value.as_slice()[0];
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!(p.value.as_slice()[0].abs() < 1e-2);
    }

    #[test]
    fn slots_track_multiple_params() {
        let mut a = quadratic_param(1.0);
        let mut b = quadratic_param(-1.0);
        let mut opt = Adam::new(0.5);
        for _ in 0..100 {
            a.grad.as_mut_slice()[0] = 2.0 * a.value.as_slice()[0];
            b.grad.as_mut_slice()[0] = 2.0 * b.value.as_slice()[0];
            opt.begin_step();
            opt.update(&mut a);
            opt.update(&mut b);
        }
        assert!(a.value.as_slice()[0].abs() < 0.05);
        assert!(b.value.as_slice()[0].abs() < 0.05);
    }
}
