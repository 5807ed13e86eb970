//! 2-D batch normalisation (per-channel over N·H·W).

use crate::infer::InferenceCtx;
use crate::layer::{Layer, Param, Tape};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// `BatchNorm2d`: per-channel normalisation with learnable scale/shift, the
/// "BN" of every Conv2D + BN block in Table I.
///
/// A taped (training) forward normalises with batch statistics, which its
/// backward folds into the exponential running statistics; an untaped
/// forward (MCTS inference) uses the running statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchNorm2d {
    channels: usize,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
}

/// What a taped batch-norm forward leaves for its backward.
#[derive(Debug, Clone)]
pub(crate) struct BatchRecord {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
    shape: [usize; 4],
}

impl BatchNorm2d {
    /// A batch-norm layer over `channels` feature maps (γ = 1, β = 0).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            gamma: Param::new(Tensor::from_vec(&[channels], vec![1.0; channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
        }
    }

    /// The running (inference) mean per channel.
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running (inference) variance per channel.
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&self, input: &Tensor, ctx: &mut InferenceCtx, tape: Option<&mut Tape>) -> Tensor {
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().expect("bn input is NCHW");
        assert_eq!(c, self.channels, "channel mismatch");
        let hw = h * w;
        let count = (n * hw) as f32;
        let mut out = ctx.take_tensor(&[n, c, h, w]);
        let mut record = tape.is_some().then(|| BatchRecord {
            x_hat: Tensor::zeros(&[n, c, h, w]),
            inv_std: Vec::with_capacity(c),
            mean: Vec::with_capacity(c),
            var: Vec::with_capacity(c),
            shape: [n, c, h, w],
        });
        for ch in 0..c {
            let (mean, var) = match &mut record {
                Some(r) => {
                    let mut mean = 0.0f32;
                    for s in 0..n {
                        let base = (s * c + ch) * hw;
                        // mmp-lint: allow(float-reduction) why: sequential sum over a contiguous channel slice, order fixed by layout
                        mean += input.as_slice()[base..base + hw].iter().sum::<f32>();
                    }
                    mean /= count;
                    let mut var = 0.0f32;
                    for s in 0..n {
                        let base = (s * c + ch) * hw;
                        var += input.as_slice()[base..base + hw]
                            .iter()
                            .map(|x| (x - mean).powi(2))
                            // mmp-lint: allow(float-reduction) why: sequential sum over a contiguous channel slice, order fixed by layout
                            .sum::<f32>();
                    }
                    var /= count;
                    r.mean.push(mean);
                    r.var.push(var);
                    (mean, var)
                }
                None => (self.running_mean[ch], self.running_var[ch]),
            };
            let inv_std = 1.0 / (var + EPS).sqrt();
            let g = self.gamma.value.as_slice()[ch];
            let b = self.beta.value.as_slice()[ch];
            for s in 0..n {
                let base = (s * c + ch) * hw;
                for i in base..base + hw {
                    let xh = (input.as_slice()[i] - mean) * inv_std;
                    if let Some(r) = &mut record {
                        r.x_hat.as_mut_slice()[i] = xh;
                    }
                    out.as_mut_slice()[i] = g * xh + b;
                }
            }
            if let Some(r) = &mut record {
                r.inv_std.push(inv_std);
            }
        }
        if let (Some(tape), Some(r)) = (tape, record) {
            tape.norms.push(r);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, tape: &mut Tape) -> Tensor {
        let r = tape.norms.pop().expect("backward without training forward");
        let [n, c, h, w] = r.shape;
        let hw = h * w;
        let count = (n * hw) as f32;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        for ch in 0..c {
            let g = self.gamma.value.as_slice()[ch];
            let inv_std = r.inv_std[ch];
            // Reductions over the channel.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for s in 0..n {
                let base = (s * c + ch) * hw;
                for i in base..base + hw {
                    let dy = grad_out.as_slice()[i];
                    sum_dy += dy;
                    sum_dy_xhat += dy * r.x_hat.as_slice()[i];
                }
            }
            self.beta.grad.as_mut_slice()[ch] += sum_dy;
            self.gamma.grad.as_mut_slice()[ch] += sum_dy_xhat;
            let mean_dy = sum_dy / count;
            let mean_dy_xhat = sum_dy_xhat / count;
            for s in 0..n {
                let base = (s * c + ch) * hw;
                for i in base..base + hw {
                    let dy = grad_out.as_slice()[i];
                    let xh = r.x_hat.as_slice()[i];
                    grad_in.as_mut_slice()[i] = g * inv_std * (dy - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        for (rm, m) in self.running_mean.iter_mut().zip(r.mean) {
            *rm = (1.0 - MOMENTUM) * *rm + MOMENTUM * m;
        }
        for (rv, v) in self.running_var.iter_mut().zip(r.var) {
            *rv = (1.0 - MOMENTUM) * *rv + MOMENTUM * v;
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::from_vec(
            shape,
            (0..shape.iter().product::<usize>())
                .map(|_| rng.gen::<f32>() * 4.0 - 2.0)
                .collect(),
        )
    }

    /// A taped forward whose record is thrown away: batch statistics, no
    /// running-statistics update.
    fn batch_forward(bn: &BatchNorm2d, x: &Tensor) -> Tensor {
        bn.forward(x, &mut InferenceCtx::new(), Some(&mut Tape::new()))
    }

    #[test]
    fn training_output_is_normalized() {
        let bn = BatchNorm2d::new(2);
        let input = random_input(&[2, 2, 4, 4], 1);
        let out = batch_forward(&bn, &input);
        // Per channel: mean ≈ 0, var ≈ 1.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..2 {
                for y in 0..4 {
                    for x in 0..4 {
                        vals.push(out.get(&[s, ch, y, x]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let input = random_input(&[1, 1, 4, 4], 2);
        // Train a few times to move running stats: each backward folds its
        // pass's batch statistics in.
        let mut ctx = InferenceCtx::new();
        for _ in 0..20 {
            let mut tape = Tape::new();
            let out = bn.forward(&input, &mut ctx, Some(&mut tape));
            let _ = bn.backward(&Tensor::zeros(out.shape()), &mut tape);
        }
        let train_out = batch_forward(&bn, &input);
        let eval_out = bn.forward(&input, &mut ctx, None);
        // After convergence of running stats on a constant batch the two
        // agree closely.
        for (a, b) in train_out.as_slice().iter().zip(eval_out.as_slice()) {
            assert!((a - b).abs() < 0.2, "{a} vs {b}");
        }
        assert!(bn.running_var()[0] > 0.0);
        assert!(bn.running_mean()[0].abs() < 2.0);
    }

    #[test]
    fn gamma_beta_apply() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value.as_mut_slice()[0] = 3.0;
        bn.beta.value.as_mut_slice()[0] = -1.0;
        let input = random_input(&[1, 1, 4, 4], 3);
        let out = batch_forward(&bn, &input);
        let mean = out.mean();
        assert!((mean + 1.0).abs() < 1e-4, "beta shift missing: mean {mean}");
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value.as_mut_slice()[0] = 1.3;
        bn.gamma.value.as_mut_slice()[1] = 0.7;
        let input = random_input(&[1, 2, 3, 3], 4);
        let coefs: Vec<f32> = {
            let mut rng = SmallRng::seed_from_u64(5);
            (0..18).map(|_| rng.gen::<f32>() - 0.5).collect()
        };
        let loss = |bn: &BatchNorm2d, x: &Tensor| -> f32 {
            batch_forward(bn, x)
                .as_slice()
                .iter()
                .zip(&coefs)
                .map(|(o, c)| o * c)
                .sum()
        };
        bn.zero_grad();
        let mut ctx = InferenceCtx::new();
        let mut tape = Tape::new();
        let _ = bn.forward(&input, &mut ctx, Some(&mut tape));
        let grad_in = bn.backward(&Tensor::from_vec(&[1, 2, 3, 3], coefs.clone()), &mut tape);
        let eps = 1e-2;
        for idx in [0usize, 5, 12, 17] {
            let analytic = grad_in.as_slice()[idx];
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let lp = loss(&bn, &ip);
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let lm = loss(&bn, &im);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 3e-2,
                "input[{idx}]: analytic {analytic}, numeric {numeric}"
            );
        }
        // Gamma gradient.
        bn.zero_grad();
        let _ = bn.forward(&input, &mut ctx, Some(&mut tape));
        let _ = bn.backward(&Tensor::from_vec(&[1, 2, 3, 3], coefs.clone()), &mut tape);
        let analytic = bn.gamma.grad.as_slice()[0];
        let orig = bn.gamma.value.as_slice()[0];
        bn.gamma.value.as_mut_slice()[0] = orig + eps;
        let lp = loss(&bn, &input);
        bn.gamma.value.as_mut_slice()[0] = orig - eps;
        let lm = loss(&bn, &input);
        bn.gamma.value.as_mut_slice()[0] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 3e-2,
            "gamma: analytic {analytic}, numeric {numeric}"
        );
    }

    #[test]
    fn running_statistics_fold_in_once_per_backward() {
        let mut bn = BatchNorm2d::new(2);
        let input = random_input(&[2, 2, 3, 3], 7);
        // The batch statistics, per channel, in f64.
        let stats: Vec<(f64, f64)> = (0..2)
            .map(|ch| {
                let vals: Vec<f64> = (0..2)
                    .flat_map(|s| input.as_slice()[(s * 2 + ch) * 9..][..9].to_vec())
                    .map(f64::from)
                    .collect();
                let mean = vals.iter().sum::<f64>() / 18.0;
                let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 18.0;
                (mean, var)
            })
            .collect();
        let mut ctx = InferenceCtx::new();
        for pass in 1..=2 {
            let mut tape = Tape::new();
            let out = bn.forward(&input, &mut ctx, Some(&mut tape));
            if pass == 1 {
                assert_eq!(bn.running_mean(), &[0.0, 0.0], "a forward moves nothing");
                assert_eq!(bn.running_var(), &[1.0, 1.0]);
            }
            let _ = bn.backward(&Tensor::zeros(out.shape()), &mut tape);
            // After k passes over one batch: r_k = (1 − m)^k · r_0 + (1 − (1 − m)^k) · b.
            let keep = (1.0 - f64::from(MOMENTUM)).powi(pass);
            for (ch, &(mean, var)) in stats.iter().enumerate() {
                let want_mean = (1.0 - keep) * mean;
                let want_var = keep + (1.0 - keep) * var;
                assert!(
                    (f64::from(bn.running_mean()[ch]) - want_mean).abs() < 1e-6,
                    "pass {pass} ch {ch}: mean {} want {want_mean}",
                    bn.running_mean()[ch]
                );
                assert!(
                    (f64::from(bn.running_var()[ch]) - want_var).abs() < 1e-6,
                    "pass {pass} ch {ch}: var {} want {want_var}",
                    bn.running_var()[ch]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward without training forward")]
    fn eval_forward_cannot_backward() {
        let mut bn = BatchNorm2d::new(1);
        let input = random_input(&[1, 1, 2, 2], 6);
        let mut tape = Tape::new();
        let _ = bn.forward(&input, &mut InferenceCtx::new(), None);
        let _ = bn.backward(&Tensor::zeros(&[1, 1, 2, 2]), &mut tape);
    }
}
