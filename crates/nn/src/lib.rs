#![warn(missing_docs)]
// The GEMM dispatch into its AVX2 body is the one audited unsafe call
// (`matmul::gemm_tiled`); nothing else in the crate may add one.
#![deny(unsafe_code)]
// Structured output goes through mmp_obs; stray prints are denied in CI
// (the obs sinks and bin/ targets are the sanctioned exits).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Minimal CPU neural-network library for the MMP RL agent.
//!
//! The paper trains its actor-critic agent with PyTorch on a GPU; this crate
//! is the from-scratch substitute (DESIGN.md §3): dense [`Tensor`]s, a
//! blocked [`matmul()`](matmul::matmul), and the exact layer set of the paper's Table I —
//! [`Conv2d`] (+ same padding), [`BatchNorm2d`], [`Relu`], [`Linear`] and
//! softmax — each with a hand-derived backward pass, plus [`Sgd`]/[`Adam`]
//! optimizers. Layer widths are parameters, so the paper-scale network
//! (16×16×128, 10 ResBlocks) and laptop-scale test networks share all code.
//!
//! Weights and workspace are split, and each layer has one
//! [`Layer::forward`]: `&self` weights, every scratch buffer drawn from a
//! caller-owned [`InferenceCtx`], inputs with a leading batch axis N ≥ 1.
//! Inference passes no [`Tape`]. Training passes one, and the forward
//! records on it what [`Layer::backward`] (`&mut self`, for the gradients)
//! pops in reverse order; no layer caches anything itself.
//!
//! # Example
//!
//! ```
//! use mmp_nn::{Conv2d, InferenceCtx, Layer, Tape, Tensor};
//!
//! let mut conv = Conv2d::new(3, 8, 3, 42); // 3→8 channels, 3×3 kernel
//! let mut ctx = InferenceCtx::new();
//! let input = Tensor::zeros(&[1, 3, 16, 16]);
//! let mut tape = Tape::new();
//! let out = conv.forward(&input, &mut ctx, Some(&mut tape));
//! assert_eq!(out.shape(), &[1, 8, 16, 16]);
//! let grad_in = conv.backward(&Tensor::zeros(out.shape()), &mut tape);
//! assert_eq!(grad_in.shape(), input.shape());
//! ```

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod infer;
pub mod layer;
pub mod linear;
pub mod matmul;
pub mod optim;
pub mod tensor;

pub use activation::{softmax, Relu};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use infer::{InferenceCtx, KernelKind};
pub use layer::{Layer, Param, Tape};
pub use linear::Linear;
pub use matmul::matmul;
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::Tensor;
