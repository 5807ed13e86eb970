//! Batched inference must match per-sample inference.

use mmp_nn::{BatchNorm2d, Conv2d, InferenceCtx, Layer, Linear, Relu, Tape, Tensor};
use proptest::prelude::*;

/// Deterministic pseudo-random data in [-1, 1).
fn data(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// A small conv → batch-norm → ReLU tower.
struct Tower {
    conv: Conv2d,
    bn: BatchNorm2d,
    relu: Relu,
}

impl Tower {
    /// Inference through the three layers.
    fn infer(&self, x: &Tensor, ctx: &mut InferenceCtx) -> Tensor {
        let h = self.conv.forward(x, ctx, None);
        let b = self.bn.forward(&h, ctx, None);
        ctx.recycle_tensor(h);
        let out = self.relu.forward(&b, ctx, None);
        ctx.recycle_tensor(b);
        out
    }
}

/// A tower whose BatchNorm has seen a few training batches, so running
/// stats are non-trivial.
fn tower(channels: usize, seed: u64) -> Tower {
    let conv = Conv2d::new(1, channels, 3, seed);
    let mut bn = BatchNorm2d::new(channels);
    let mut ctx = InferenceCtx::new();
    for step in 0..4 {
        let x = Tensor::from_vec(&[2, 1, 4, 4], data(32, seed ^ (step + 1)));
        let h = conv.forward(&x, &mut ctx, None);
        let mut tape = Tape::new();
        let out = bn.forward(&h, &mut ctx, Some(&mut tape));
        let _ = bn.backward(&Tensor::zeros(out.shape()), &mut tape);
    }
    Tower {
        conv,
        bn,
        relu: Relu::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// infer on a batch of N states equals N single-state infer calls.
    #[test]
    fn conv_tower_batch_matches_singles(n in 1usize..6, seed in 0u64..500) {
        let net = tower(3, seed);
        let mut ctx = InferenceCtx::new();
        let batch_data = data(n * 16, seed ^ 0xbeef);
        let batch = Tensor::from_vec(&[n, 1, 4, 4], batch_data.clone());
        let batched = net.infer(&batch, &mut ctx);
        prop_assert_eq!(batched.shape(), &[n, 3, 4, 4]);
        for s in 0..n {
            let single = Tensor::from_vec(&[1, 1, 4, 4], batch_data[s * 16..(s + 1) * 16].to_vec());
            let out = net.infer(&single, &mut ctx);
            let want = &batched.as_slice()[s * 48..(s + 1) * 48];
            for (a, b) in out.as_slice().iter().zip(want) {
                prop_assert!((a - b).abs() < 1e-5, "sample {} diverged: {} vs {}", s, a, b);
            }
            ctx.recycle_tensor(out);
        }
    }

    /// Linear batch inference equals row-by-row inference.
    #[test]
    fn linear_batch_matches_singles(n in 1usize..8, seed in 0u64..500) {
        let lin = Linear::new(6, 4, seed);
        let mut ctx = InferenceCtx::new();
        let batch_data = data(n * 6, seed ^ 0x11);
        let batch = Tensor::from_vec(&[n, 6], batch_data.clone());
        let batched = lin.forward(&batch, &mut ctx, None);
        for s in 0..n {
            let single = Tensor::from_vec(&[1, 6], batch_data[s * 6..(s + 1) * 6].to_vec());
            let out = lin.forward(&single, &mut ctx, None);
            for (a, b) in out
                .as_slice()
                .iter()
                .zip(&batched.as_slice()[s * 4..(s + 1) * 4])
            {
                prop_assert!((a - b).abs() < 1e-5);
            }
            ctx.recycle_tensor(out);
        }
    }

    /// A tape only records: outside batch-norm, whose taped pass uses batch
    /// statistics, a training forward computes the inference bits.
    #[test]
    fn taped_forward_matches_untaped_forward(n in 1usize..4, seed in 0u64..500) {
        let conv = Conv2d::new(1, 3, 3, seed);
        let relu = Relu::new();
        let lin = Linear::new(48, 5, seed ^ 0x5);
        let x = Tensor::from_vec(&[n, 1, 4, 4], data(n * 16, seed ^ 0x77));
        let run = |ctx: &mut InferenceCtx, mut tape: Option<&mut Tape>| {
            let h = conv.forward(&x, ctx, tape.as_deref_mut());
            let mut h = relu.forward(&h, ctx, tape.as_deref_mut());
            h.reshape_in_place(&[n, 48]);
            lin.forward(&h, ctx, tape)
        };
        let untaped = run(&mut InferenceCtx::new(), None);
        let mut tape = Tape::new();
        let taped = run(&mut InferenceCtx::new(), Some(&mut tape));
        prop_assert_eq!(untaped.as_slice(), taped.as_slice());
        prop_assert!(!tape.is_empty());
    }
}

/// Buffer reuse across repeated infer calls must not change results.
#[test]
fn repeated_infer_with_shared_ctx_is_stable() {
    let net = tower(3, 9);
    let mut ctx = InferenceCtx::new();
    let x = Tensor::from_vec(&[2, 1, 4, 4], data(32, 42));
    let first = net.infer(&x, &mut ctx);
    for _ in 0..5 {
        let again = net.infer(&x, &mut ctx);
        assert_eq!(first.as_slice(), again.as_slice());
        ctx.recycle_tensor(again);
    }
}
