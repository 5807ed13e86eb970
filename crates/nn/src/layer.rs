//! The layer abstraction: one forward, a backward, the tape between
//! them, and parameter visitation.

use crate::batchnorm::BatchRecord;
use crate::infer::InferenceCtx;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable parameter: value + accumulated gradient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter values.
    pub value: Tensor,
    /// Gradient accumulated by `backward` calls (reset with
    /// [`Param::zero_grad`]).
    pub grad: Tensor,
}

impl Param {
    /// A parameter initialised to `value` with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// What a training forward records for the backward pass.
///
/// Each layer pushes its record in forward order and its
/// [`Layer::backward`] pops it, so a network's backward must visit its
/// layers in the exact reverse of their forward order. Records live here,
/// never inside a layer: weights stay `&self` while the tape fills.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    /// Conv and linear inputs.
    pub(crate) inputs: Vec<Tensor>,
    /// ReLU masks: where the input was positive.
    pub(crate) masks: Vec<Vec<bool>>,
    /// Batch-norm records.
    pub(crate) norms: Vec<BatchRecord>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// `true` when every record has been popped.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty() && self.masks.is_empty() && self.norms.is_empty()
    }
}

/// A differentiable layer.
///
/// One `forward` serves inference and training. Weights stay `&self` and
/// every buffer comes from the [`InferenceCtx`], so one layer can be shared
/// by many concurrent readers, each with its own context. Passing a
/// [`Tape`] selects training: batch-norm then normalises with the batch's
/// own statistics, and each layer records what its `backward` needs.
pub trait Layer {
    /// Computes the layer output; inputs carry a leading batch axis N ≥ 1.
    /// Without a tape, batch-norm uses its running statistics and samples
    /// never interact.
    fn forward(&self, input: &Tensor, ctx: &mut InferenceCtx, tape: Option<&mut Tape>) -> Tensor;

    /// Propagates `grad_out` (∂loss/∂output) to ∂loss/∂input, popping this
    /// layer's record off `tape` and accumulating parameter gradients.
    /// Batch-norm also folds the recorded batch statistics into its running
    /// statistics here, once per taped pass.
    ///
    /// # Panics
    ///
    /// Implementations panic when `tape` holds no record for the layer.
    fn backward(&mut self, grad_out: &Tensor, tape: &mut Tape) -> Tensor;

    /// Visits every trainable parameter (used by optimizers and
    /// checkpointing).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::from_vec(&[2], vec![1.0, 2.0]));
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::zeros(&[2]));
        p.grad.as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
