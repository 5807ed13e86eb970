//! ReLU and softmax.

use crate::infer::InferenceCtx;
use crate::layer::{Layer, Param, Tape};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// ReLU as a layer. It holds nothing: a taped forward records its mask on
/// the [`Tape`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Relu {}

impl Relu {
    /// A fresh ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor, ctx: &mut InferenceCtx, tape: Option<&mut Tape>) -> Tensor {
        let mut out = ctx.take_tensor(input.shape());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
        if let Some(tape) = tape {
            tape.masks
                .push(input.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, tape: &mut Tape) -> Tensor {
        let mask = tape.masks.pop().expect("backward without forward");
        let mut grad_in = grad_out.clone();
        // A select, not a branch: the mask follows the data, so a branch
        // would mispredict about half the time.
        for (g, m) in grad_in.as_mut_slice().iter_mut().zip(&mask) {
            *g = if *m { *g } else { 0.0 };
        }
        grad_in
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Numerically stable softmax of a slice.
///
/// An all-`-inf` input yields the uniform distribution rather than NaNs
/// (every action masked ⇒ no information).
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return vec![1.0 / logits.len() as f32; logits.len()];
    }
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relu_layer_masks_negatives() {
        let mut layer = Relu::new();
        let mut ctx = InferenceCtx::new();
        let mut tape = Tape::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = layer.forward(&x, &mut ctx, Some(&mut tape));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let g = layer.backward(&Tensor::from_vec(&[4], vec![1.0; 4]), &mut tape);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(tape.is_empty(), "backward pops the mask");
    }

    /// NaN and both zeros are not positive, so their gradient is +0.0;
    /// where the input is positive the upstream gradient passes through
    /// bit for bit, NaN and −0.0 included.
    #[test]
    fn relu_backward_keeps_exact_bits_on_nan_and_signed_zeros() {
        let mut layer = Relu::new();
        let mut tape = Tape::new();
        let x = Tensor::from_vec(&[6], vec![f32::NAN, -0.0, 0.0, 1.0, 2.0, 3.0]);
        let _ = layer.forward(&x, &mut InferenceCtx::new(), Some(&mut tape));
        let up = vec![-1.0, 5.0, f32::NAN, f32::NAN, -0.0, 0.25];
        let g = layer.backward(&Tensor::from_vec(&[6], up.clone()), &mut tape);
        let want = [0.0, 0.0, 0.0, up[3], -0.0, 0.25];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g.as_slice()), bits(&want));
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn untaped_relu_leaves_nothing_to_backward() {
        let mut layer = Relu::new();
        let mut tape = Tape::new();
        let x = Tensor::from_vec(&[2], vec![-1.0, 1.0]);
        let _ = layer.forward(&x, &mut InferenceCtx::new(), None);
        let _ = layer.backward(&x, &mut tape);
    }

    #[test]
    fn softmax_known_values() {
        let p = softmax(&[0.0, 0.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        let p = softmax(&[1000.0, 0.0]);
        assert!(p[0] > 0.999);
    }

    #[test]
    fn softmax_handles_all_masked() {
        let p = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_eq!(p, vec![0.5, 0.5]);
        assert!(softmax(&[]).is_empty());
    }

    proptest! {
        #[test]
        fn softmax_is_a_distribution(
            logits in proptest::collection::vec(-20.0f32..20.0, 1..64),
        ) {
            let p = softmax(&logits);
            let sum: f32 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn softmax_is_shift_invariant(
            logits in proptest::collection::vec(-10.0f32..10.0, 2..16),
            shift in -5.0f32..5.0,
        ) {
            let a = softmax(&logits);
            let shifted: Vec<f32> = logits.iter().map(|l| l + shift).collect();
            let b = softmax(&shifted);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
