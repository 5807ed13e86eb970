//! Fully-connected layers.

use crate::infer::InferenceCtx;
use crate::layer::{Layer, Param, Tape};
use crate::matmul::{matmul, matmul_at_b};
use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A `Linear` layer: `y = x·Wᵀ + b` over `(N, in) → (N, out)` — the FC and
/// MLP blocks of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// Weights shaped `[out, in]`.
    weight: Param,
    /// Bias shaped `[out]`.
    bias: Param,
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform weights (deterministic in
    /// `seed`).
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let bound = (6.0 / (in_features + out_features) as f32).sqrt();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x11ea);
        let weight: Vec<f32> = (0..in_features * out_features)
            .map(|_| rng.gen::<f32>() * 2.0 * bound - bound)
            .collect();
        Linear {
            in_features,
            out_features,
            weight: Param::new(Tensor::from_vec(&[out_features, in_features], weight)),
            bias: Param::new(Tensor::zeros(&[out_features])),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&self, input: &Tensor, ctx: &mut InferenceCtx, tape: Option<&mut Tape>) -> Tensor {
        let [n, d]: [usize; 2] = input.shape().try_into().expect("linear input is (N, in)");
        assert_eq!(d, self.in_features, "feature mismatch");
        let mut out = ctx.take_tensor(&[n, self.out_features]);
        // out = x (N×in) · Wᵀ (in×out), with W stored (out×in). Kernel kinds
        // are bitwise identical; Reference is the benchmark baseline (see
        // `matmul`'s summation-order contract).
        let gemm: crate::matmul::Gemm = match ctx.kernel() {
            crate::KernelKind::Tiled => crate::matmul::matmul_a_bt,
            crate::KernelKind::Reference => crate::matmul::reference::matmul_a_bt,
        };
        gemm(
            input.as_slice(),
            self.weight.value.as_slice(),
            out.as_mut_slice(),
            n,
            self.in_features,
            self.out_features,
        );
        for s in 0..n {
            for (o, b) in out.as_mut_slice()[s * self.out_features..(s + 1) * self.out_features]
                .iter_mut()
                .zip(self.bias.value.as_slice())
            {
                *o += b;
            }
        }
        if let Some(tape) = tape {
            tape.inputs.push(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, tape: &mut Tape) -> Tensor {
        let input = tape.inputs.pop().expect("backward without forward");
        let [n, _]: [usize; 2] = input.shape().try_into().expect("taped input is (N, in)");
        // dW += dyᵀ (out×N) · x (N×in)
        matmul_at_b(
            grad_out.as_slice(),
            input.as_slice(),
            self.weight.grad.as_mut_slice(),
            self.out_features,
            n,
            self.in_features,
        );
        // db += column sums of dy
        for s in 0..n {
            for (g, dy) in self
                .bias
                .grad
                .as_mut_slice()
                .iter_mut()
                .zip(&grad_out.as_slice()[s * self.out_features..(s + 1) * self.out_features])
            {
                *g += dy;
            }
        }
        // dx = dy (N×out) · W (out×in)
        let mut grad_in = Tensor::zeros(&[n, self.in_features]);
        matmul(
            grad_out.as_slice(),
            self.weight.value.as_slice(),
            grad_in.as_mut_slice(),
            n,
            self.out_features,
            self.in_features,
        );
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_affine_map() {
        let mut lin = Linear::new(2, 2, 0);
        // W = [[1, 2], [3, 4]], b = [10, 20]
        lin.weight.value = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        lin.bias.value = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        let x = Tensor::from_vec(&[1, 2], vec![5.0, 6.0]);
        let y = lin.forward(&x, &mut InferenceCtx::new(), None);
        // y = [5+12+10, 15+24+20] = [27, 59]
        assert_eq!(y.as_slice(), &[27.0, 59.0]);
    }

    #[test]
    fn batch_dimension_works() {
        let lin = Linear::new(3, 2, 1);
        let x = Tensor::zeros(&[4, 3]);
        let y = lin.forward(&x, &mut InferenceCtx::new(), None);
        assert_eq!(y.shape(), &[4, 2]);
    }

    #[test]
    fn gradient_check() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut lin = Linear::new(3, 2, 2);
        let mut rng = SmallRng::seed_from_u64(7);
        let x = Tensor::from_vec(&[2, 3], (0..6).map(|_| rng.gen::<f32>() - 0.5).collect());
        let coefs: Vec<f32> = (0..4).map(|_| rng.gen::<f32>() - 0.5).collect();
        let mut ctx = InferenceCtx::new();
        let mut loss = |lin: &Linear, x: &Tensor| -> f32 {
            lin.forward(x, &mut ctx, None)
                .as_slice()
                .iter()
                .zip(&coefs)
                .map(|(o, c)| o * c)
                .sum()
        };
        lin.zero_grad();
        let mut tape = Tape::new();
        let _ = lin.forward(&x, &mut InferenceCtx::new(), Some(&mut tape));
        let grad_in = lin.backward(&Tensor::from_vec(&[2, 2], coefs.clone()), &mut tape);
        let eps = 1e-3;
        // Weights.
        for idx in 0..6 {
            let analytic = lin.weight.grad.as_slice()[idx];
            let orig = lin.weight.value.as_slice()[idx];
            lin.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&lin, &x);
            lin.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&lin, &x);
            lin.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((analytic - numeric).abs() < 1e-2, "w[{idx}]");
        }
        // Input.
        for idx in 0..6 {
            let analytic = grad_in.as_slice()[idx];
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&lin, &xp);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lm = loss(&lin, &xm);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((analytic - numeric).abs() < 1e-2, "x[{idx}]");
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn untaped_forward_leaves_nothing_to_backward() {
        let mut lin = Linear::new(3, 2, 0);
        let mut tape = Tape::new();
        let _ = lin.forward(&Tensor::zeros(&[1, 3]), &mut InferenceCtx::new(), None);
        let _ = lin.backward(&Tensor::zeros(&[1, 2]), &mut tape);
    }

    #[test]
    fn getters() {
        let lin = Linear::new(5, 7, 0);
        assert_eq!(lin.in_features(), 5);
        assert_eq!(lin.out_features(), 7);
    }
}
