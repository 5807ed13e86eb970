//! 2-D convolution (stride 1, "same" padding) via im2col + GEMM.

use crate::infer::InferenceCtx;
use crate::layer::{Layer, Param, Tape};
use crate::matmul::{matmul, matmul_a_bt, matmul_at_b};
use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A `Conv2d` layer: `in_channels → out_channels`, square odd kernel,
/// stride 1, same padding — the convolution used throughout Table I
/// (3×3 in the trunk, 1×1 in the heads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Weights shaped `[out_channels, in_channels·k·k]`.
    weight: Param,
    /// Bias shaped `[out_channels]`.
    bias: Param,
}

impl Conv2d {
    /// Creates a convolution with He-normal initialised weights
    /// (deterministic in `seed`).
    ///
    /// # Panics
    ///
    /// Panics for an even kernel size (same padding needs odd kernels).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        let fan_in = in_channels * kernel * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC04);
        let weight: Vec<f32> = (0..out_channels * fan_in)
            .map(|_| gaussian(&mut rng) * std)
            .collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weight: Param::new(Tensor::from_vec(&[out_channels, fan_in], weight)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// im2col for one sample: `[C·k·k, H·W]`.
    fn im2col(&self, sample: &[f32], h: usize, w: usize) -> Vec<f32> {
        let ckk = self.in_channels * self.kernel * self.kernel;
        let mut cols = vec![0.0f32; ckk * h * w];
        self.im2col_into(sample, h, w, &mut cols);
        cols
    }

    /// [`Conv2d::im2col`] into a caller-provided buffer.
    ///
    /// Padding positions are never written, so the buffer must start
    /// zeroed; in-bounds positions are fully overwritten, so the same
    /// buffer can be reused across samples without re-zeroing.
    fn im2col_into(&self, sample: &[f32], h: usize, w: usize, cols: &mut [f32]) {
        let k = self.kernel;
        let pad = k / 2;
        let hw = h * w;
        for c in 0..self.in_channels {
            let plane = &sample[c * hw..(c + 1) * hw];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    let out_row = &mut cols[row * hw..(row + 1) * hw];
                    for y in 0..h {
                        let sy = y as isize + ky as isize - pad as isize;
                        if sy < 0 || sy >= h as isize {
                            continue;
                        }
                        for x in 0..w {
                            let sx = x as isize + kx as isize - pad as isize;
                            if sx < 0 || sx >= w as isize {
                                continue;
                            }
                            out_row[y * w + x] = plane[sy as usize * w + sx as usize];
                        }
                    }
                }
            }
        }
    }

    /// Scatter-add of column gradients back to an input-shaped buffer.
    fn col2im(&self, cols_grad: &[f32], h: usize, w: usize, out: &mut [f32]) {
        let k = self.kernel;
        let pad = k / 2;
        let hw = h * w;
        for c in 0..self.in_channels {
            let plane = &mut out[c * hw..(c + 1) * hw];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (c * k + ky) * k + kx;
                    let col_row = &cols_grad[row * hw..(row + 1) * hw];
                    for y in 0..h {
                        let sy = y as isize + ky as isize - pad as isize;
                        if sy < 0 || sy >= h as isize {
                            continue;
                        }
                        for x in 0..w {
                            let sx = x as isize + kx as isize - pad as isize;
                            if sx < 0 || sx >= w as isize {
                                continue;
                            }
                            plane[sy as usize * w + sx as usize] += col_row[y * w + x];
                        }
                    }
                }
            }
        }
    }
}

fn gaussian(rng: &mut SmallRng) -> f32 {
    // Box-Muller.
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

impl Layer for Conv2d {
    fn forward(&self, input: &Tensor, ctx: &mut InferenceCtx, tape: Option<&mut Tape>) -> Tensor {
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().expect("conv input is NCHW");
        assert_eq!(c, self.in_channels, "channel mismatch");
        let hw = h * w;
        let ckk = self.in_channels * self.kernel * self.kernel;
        let mut out = ctx.take_tensor(&[n, self.out_channels, h, w]);
        // One pooled column buffer serves every sample: padding slots stay
        // zero across iterations, data slots are fully overwritten.
        let mut cols = ctx.take(ckk * hw);
        // Kernel kinds are bitwise identical; Reference is the benchmark
        // baseline (see `matmul`'s summation-order contract).
        let gemm: crate::matmul::Gemm = match ctx.kernel() {
            crate::KernelKind::Tiled => matmul,
            crate::KernelKind::Reference => crate::matmul::reference::matmul,
        };
        for s in 0..n {
            let sample = &input.as_slice()[s * c * hw..(s + 1) * c * hw];
            self.im2col_into(sample, h, w, &mut cols);
            let out_s = &mut out.as_mut_slice()
                [s * self.out_channels * hw..(s + 1) * self.out_channels * hw];
            gemm(
                self.weight.value.as_slice(),
                &cols,
                out_s,
                self.out_channels,
                ckk,
                hw,
            );
            for f in 0..self.out_channels {
                let b = self.bias.value.as_slice()[f];
                for v in &mut out_s[f * hw..(f + 1) * hw] {
                    *v += b;
                }
            }
        }
        ctx.recycle(cols);
        if let Some(tape) = tape {
            tape.inputs.push(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, tape: &mut Tape) -> Tensor {
        let input = tape.inputs.pop().expect("backward without forward");
        let [n, c, h, w]: [usize; 4] = input.shape().try_into().expect("taped input is NCHW");
        let hw = h * w;
        let ckk = self.in_channels * self.kernel * self.kernel;
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        for s in 0..n {
            let sample = &input.as_slice()[s * c * hw..(s + 1) * c * hw];
            let cols = self.im2col(sample, h, w);
            let gout =
                &grad_out.as_slice()[s * self.out_channels * hw..(s + 1) * self.out_channels * hw];
            // dW += gout (F×HW) · colsᵀ (HW×CKK)
            matmul_a_bt(
                gout,
                &cols,
                self.weight.grad.as_mut_slice(),
                self.out_channels,
                hw,
                ckk,
            );
            // db += row sums of gout
            for f in 0..self.out_channels {
                let sum: f32 = gout[f * hw..(f + 1) * hw].iter().sum();
                self.bias.grad.as_mut_slice()[f] += sum;
            }
            // dcols = Wᵀ (CKK×F) · gout (F×HW)
            let mut dcols = vec![0.0f32; ckk * hw];
            matmul_at_b(
                self.weight.value.as_slice(),
                gout,
                &mut dcols,
                ckk,
                self.out_channels,
                hw,
            );
            let gi = &mut grad_in.as_mut_slice()[s * c * hw..(s + 1) * c * hw];
            self.col2im(&dcols, h, w, gi);
        }
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

    /// Identity 1×1 kernel reproduces the input.
    #[test]
    fn one_by_one_identity() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        conv.weight.value.as_mut_slice()[0] = 1.0;
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&input, &mut InferenceCtx::new(), None);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    /// A 3×3 averaging kernel on a constant image keeps the interior value
    /// and attenuates the border (zero padding).
    #[test]
    fn same_padding_border_effect() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        for v in conv.weight.value.as_mut_slice() {
            *v = 1.0 / 9.0;
        }
        let input = Tensor::from_vec(&[1, 1, 3, 3], vec![9.0; 9]);
        let out = conv.forward(&input, &mut InferenceCtx::new(), None);
        // Center sees all 9 pixels; corners see 4.
        assert!((out.get(&[0, 0, 1, 1]) - 9.0).abs() < 1e-5);
        assert!((out.get(&[0, 0, 0, 0]) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn bias_is_added() {
        let mut conv = Conv2d::new(1, 2, 1, 0);
        conv.weight.value.fill_zero();
        conv.bias.value.as_mut_slice()[0] = 1.5;
        conv.bias.value.as_mut_slice()[1] = -2.0;
        let out = conv.forward(
            &Tensor::zeros(&[1, 1, 2, 2]),
            &mut InferenceCtx::new(),
            None,
        );
        assert_eq!(out.get(&[0, 0, 0, 0]), 1.5);
        assert_eq!(out.get(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Conv2d::new(2, 3, 3, 9);
        let b = Conv2d::new(2, 3, 3, 9);
        assert_eq!(a, b);
        let c = Conv2d::new(2, 3, 3, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let _ = Conv2d::new(1, 1, 2, 0);
    }

    /// Finite-difference gradient check on weights, bias and input.
    #[test]
    fn gradient_check() {
        let mut conv = Conv2d::new(2, 2, 3, 3);
        let input = {
            let mut rng = SmallRng::seed_from_u64(5);
            Tensor::from_vec(
                &[1, 2, 4, 4],
                (0..32).map(|_| rng.gen::<f32>() - 0.5).collect(),
            )
        };
        // Loss = Σ coef · out (fixed random coefficients).
        let coefs: Vec<f32> = {
            let mut rng = SmallRng::seed_from_u64(6);
            (0..32).map(|_| rng.gen::<f32>() - 0.5).collect()
        };
        let mut ctx = InferenceCtx::new();
        let mut loss = |conv: &Conv2d, input: &Tensor| -> f32 {
            let out = conv.forward(input, &mut ctx, None);
            out.as_slice().iter().zip(&coefs).map(|(o, c)| o * c).sum()
        };
        // Analytic gradients.
        conv.zero_grad();
        let mut tape = Tape::new();
        let out = conv.forward(&input, &mut InferenceCtx::new(), Some(&mut tape));
        assert_eq!(out.len(), 32);
        let grad_out = Tensor::from_vec(&[1, 2, 4, 4], coefs.clone());
        let grad_in = conv.backward(&grad_out, &mut tape);
        // Weight gradient check (a few entries).
        let eps = 1e-3;
        for idx in [0usize, 7, 17, 35] {
            let analytic = conv.weight.grad.as_slice()[idx];
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&conv, &input);
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&conv, &input);
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "weight[{idx}]: analytic {analytic}, numeric {numeric}"
            );
        }
        // Input gradient check.
        for idx in [0usize, 9, 31] {
            let analytic = grad_in.as_slice()[idx];
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let lp = loss(&conv, &ip);
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let lm = loss(&conv, &im);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "input[{idx}]: analytic {analytic}, numeric {numeric}"
            );
        }
        // Bias gradient: d loss / d b_f = Σ coefs over that channel.
        let expect_b0: f32 = coefs[0..16].iter().sum();
        assert!((conv.bias.grad.as_slice()[0] - expect_b0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, 1, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 2, 2]), &mut Tape::new());
    }
}
