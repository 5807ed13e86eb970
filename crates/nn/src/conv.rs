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

    /// im2col for one sample into `cols`, shaped `[C·k·k, H·W]`.
    ///
    /// Padding positions are never written, so the buffer must start
    /// zeroed; in-bounds positions are fully overwritten, so the same
    /// buffer can be reused across samples without re-zeroing. For each
    /// (channel, ky, kx, output row) the in-bounds `x` form one contiguous
    /// span ([`span`]), copied in one `copy_from_slice`.
    fn im2col_into(&self, sample: &[f32], h: usize, w: usize, cols: &mut [f32]) {
        let k = self.kernel;
        let pad = k / 2;
        let hw = h * w;
        for c in 0..self.in_channels {
            let plane = &sample[c * hw..(c + 1) * hw];
            for ky in 0..k {
                for kx in 0..k {
                    let xs = span(kx, pad, w);
                    if xs.is_empty() {
                        continue;
                    }
                    let (x0, len, sx0) = (xs.start, xs.len(), xs.start + kx - pad);
                    let row = (c * k + ky) * k + kx;
                    let out_row = &mut cols[row * hw..(row + 1) * hw];
                    for y in span(ky, pad, h) {
                        let (d, s) = (y * w + x0, (y + ky - pad) * w + sx0);
                        out_row[d..d + len].copy_from_slice(&plane[s..s + len]);
                    }
                }
            }
        }
    }

    /// Scatter-add of column gradients back to an input-shaped buffer.
    ///
    /// Walks (channel, ky, kx, output row, x) in the same order as
    /// [`Conv2d::im2col_into`], so each input element receives its
    /// column-gradient terms in that fixed order.
    fn col2im(&self, cols_grad: &[f32], h: usize, w: usize, out: &mut [f32]) {
        let k = self.kernel;
        let pad = k / 2;
        let hw = h * w;
        for c in 0..self.in_channels {
            let plane = &mut out[c * hw..(c + 1) * hw];
            for ky in 0..k {
                for kx in 0..k {
                    let xs = span(kx, pad, w);
                    if xs.is_empty() {
                        continue;
                    }
                    let (x0, len, sx0) = (xs.start, xs.len(), xs.start + kx - pad);
                    let row = (c * k + ky) * k + kx;
                    let col_row = &cols_grad[row * hw..(row + 1) * hw];
                    for y in span(ky, pad, h) {
                        let (d, s) = ((y + ky - pad) * w + sx0, y * w + x0);
                        for (p, g) in plane[d..d + len].iter_mut().zip(&col_row[s..s + len]) {
                            *p += g;
                        }
                    }
                }
            }
        }
    }
}

/// The output positions `o` along one axis of length `len` whose source
/// `o + tap - pad` lies inside `0..len`, as one range: empty when the tap
/// misses the image entirely (a 5×5 kernel on a 2×2 image). Every `o` in
/// it satisfies `o + tap >= pad`, so the source index needs no signed math.
fn span(tap: usize, pad: usize, len: usize) -> std::ops::Range<usize> {
    pad.saturating_sub(tap).min(len)..(len + pad).saturating_sub(tap).min(len)
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
        // One column and one column-gradient buffer serve every sample: the
        // columns are recomputed into the same slots (padding stays zero),
        // and the gradient GEMM accumulates, so it is zeroed per sample.
        let mut cols = vec![0.0f32; ckk * hw];
        let mut dcols = vec![0.0f32; ckk * hw];
        for s in 0..n {
            let sample = &input.as_slice()[s * c * hw..(s + 1) * c * hw];
            self.im2col_into(sample, h, w, &mut cols);
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
            dcols.fill(0.0);
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
    use proptest::prelude::*;

    /// Per-element im2col, bounds-checking every position: the oracle the
    /// span copy must equal.
    fn im2col_oracle(conv: &Conv2d, sample: &[f32], h: usize, w: usize) -> Vec<f32> {
        let k = conv.kernel;
        let pad = k / 2;
        let hw = h * w;
        let mut cols = vec![0.0f32; conv.in_channels * k * k * hw];
        for c in 0..conv.in_channels {
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
        cols
    }

    /// Per-element col2im in (c, ky, kx, y, x) order: the oracle the span
    /// scatter-add must equal.
    fn col2im_oracle(conv: &Conv2d, cols_grad: &[f32], h: usize, w: usize, out: &mut [f32]) {
        let k = conv.kernel;
        let pad = k / 2;
        let hw = h * w;
        for c in 0..conv.in_channels {
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

    fn lcg(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The span-copy im2col and span scatter-add col2im equal the
        /// per-element oracles bitwise through a whole taped forward and
        /// backward: kernels 1, 3 and 5 on images from 1×1 up, including
        /// taps whose span is empty (a 5×5 kernel on a 2×2 image), over
        /// several samples so the reused buffers are exercised.
        #[test]
        fn span_copies_match_per_element_oracle_bitwise(
            kernel_idx in 0usize..3, c_in in 1usize..4, c_out in 1usize..4,
            h in 1usize..8, w in 1usize..8, n in 1usize..4, seed in 0u64..1000,
        ) {
            let kernel = [1, 3, 5][kernel_idx];
            let mut conv = Conv2d::new(c_in, c_out, kernel, seed);
            conv.bias.value = Tensor::from_vec(&[c_out], lcg(seed ^ 0xb1a5, c_out));
            let hw = h * w;
            let ckk = c_in * kernel * kernel;
            let input = Tensor::from_vec(&[n, c_in, h, w], lcg(seed, n * c_in * hw));
            let grad_out = Tensor::from_vec(&[n, c_out, h, w], lcg(seed ^ 0x9d, n * c_out * hw));

            let mut tape = Tape::new();
            let out = conv.forward(&input, &mut InferenceCtx::new(), Some(&mut tape));
            let grad_in = conv.backward(&grad_out, &mut tape);

            let mut want_out = vec![0.0f32; n * c_out * hw];
            let mut want_in = vec![0.0f32; n * c_in * hw];
            for s in 0..n {
                let sample = &input.as_slice()[s * c_in * hw..(s + 1) * c_in * hw];
                let cols = im2col_oracle(&conv, sample, h, w);
                let mut fast = vec![0.0f32; ckk * hw];
                conv.im2col_into(sample, h, w, &mut fast);
                prop_assert!(same_bits(&fast, &cols), "im2col differs");
                let out_s = &mut want_out[s * c_out * hw..(s + 1) * c_out * hw];
                matmul(conv.weight.value.as_slice(), &cols, out_s, c_out, ckk, hw);
                for f in 0..c_out {
                    let b = conv.bias.value.as_slice()[f];
                    for v in &mut out_s[f * hw..(f + 1) * hw] {
                        *v += b;
                    }
                }
                let gout = &grad_out.as_slice()[s * c_out * hw..(s + 1) * c_out * hw];
                let mut dcols = vec![0.0f32; ckk * hw];
                matmul_at_b(conv.weight.value.as_slice(), gout, &mut dcols, ckk, c_out, hw);
                col2im_oracle(
                    &conv,
                    &dcols,
                    h,
                    w,
                    &mut want_in[s * c_in * hw..(s + 1) * c_in * hw],
                );
            }
            prop_assert!(same_bits(out.as_slice(), &want_out), "forward differs");
            prop_assert!(same_bits(grad_in.as_slice(), &want_in), "input gradient differs");
        }
    }

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
