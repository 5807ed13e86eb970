//! Bitwise serde round-trips for network weights and optimizer state.
//!
//! The checkpoint subsystem stores trainer state as JSON inside the
//! `mmp-ckpt` envelope, and its bitwise-resume guarantee only holds if
//! every weight and every optimizer moment survives
//! serialize→deserialize exactly. The vendored `serde_json` formats f32/f64
//! round-trip-exactly (shortest-representation printing), so equality here
//! is `==`, not "within epsilon". Layers keep no forward state, so a
//! restored layer trains exactly like the original.

use mmp_nn::{
    Adam, BatchNorm2d, Conv2d, InferenceCtx, Layer, Linear, Optimizer, Param, Relu, Sgd, Tape,
    Tensor,
};

/// Deterministic, non-trivial tensor values (no RNG dependency needed).
fn filled(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|i| ((i * 2654435761 % 1000) as f32 / 333.0) - 1.5)
        .collect();
    Tensor::from_vec(shape, data)
}

fn round_trip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn fresh_layers_round_trip_bitwise() {
    let lin = Linear::new(6, 4, 3);
    assert_eq!(round_trip(&lin), lin);
    let conv = Conv2d::new(2, 3, 3, 5);
    assert_eq!(round_trip(&conv), conv);
    let bn = BatchNorm2d::new(4);
    assert_eq!(round_trip(&bn), bn);
    // Checkpoints written before ReLU lost its cache field store `{}`.
    assert_eq!(serde_json::to_string(&Relu::new()).unwrap(), "{}");
    assert_eq!(serde_json::from_str::<Relu>("{}").unwrap(), Relu::new());
}

#[test]
fn trained_linear_round_trips_and_trains_identically() {
    let mut lin = Linear::new(5, 3, 7);
    let x = filled(&[2, 5]);
    let g = filled(&[2, 3]);
    let mut ctx = InferenceCtx::new();
    let mut tape = Tape::new();
    let _ = lin.forward(&x, &mut ctx, Some(&mut tape));
    let _ = lin.backward(&g, &mut tape);
    let mut back = round_trip(&lin);
    assert_eq!(back, lin);
    // Inference outputs are bitwise identical...
    let mut ctx_b = InferenceCtx::new();
    assert_eq!(
        lin.forward(&x, &mut ctx, None).as_slice(),
        back.forward(&x, &mut ctx_b, None).as_slice()
    );
    // ...and so are the gradients of the next training pass.
    let _ = lin.forward(&x, &mut ctx, Some(&mut tape));
    let grad_orig = lin.backward(&g, &mut tape);
    let _ = back.forward(&x, &mut ctx_b, Some(&mut tape));
    let grad_back = back.backward(&g, &mut tape);
    assert_eq!(grad_orig.as_slice(), grad_back.as_slice());
}

#[test]
fn batchnorm_running_statistics_survive_the_round_trip() {
    let mut bn = BatchNorm2d::new(2);
    let mut ctx_a = InferenceCtx::new();
    // Two training passes move the running mean/var away from init.
    for _ in 0..2 {
        let mut tape = Tape::new();
        let out = bn.forward(&filled(&[2, 2, 3, 3]), &mut ctx_a, Some(&mut tape));
        let _ = bn.backward(&Tensor::zeros(out.shape()), &mut tape);
    }
    assert_ne!(bn, BatchNorm2d::new(2));
    let back = round_trip(&bn);
    let x = filled(&[1, 2, 3, 3]);
    let mut ctx_b = InferenceCtx::new();
    assert_eq!(
        bn.forward(&x, &mut ctx_a, None).as_slice(),
        back.forward(&x, &mut ctx_b, None).as_slice()
    );
}

#[test]
fn conv_round_trip_preserves_inference_bitwise() {
    let conv = Conv2d::new(2, 3, 3, 11);
    let back = round_trip(&conv);
    let x = filled(&[1, 2, 4, 4]);
    let mut ctx_a = InferenceCtx::new();
    let mut ctx_b = InferenceCtx::new();
    assert_eq!(
        conv.forward(&x, &mut ctx_a, None).as_slice(),
        back.forward(&x, &mut ctx_b, None).as_slice()
    );
}

/// Drives `opt` for `steps` steps over two params with deterministic
/// synthetic gradients, returning the final param values.
fn drive<O: Optimizer>(opt: &mut O, a: &mut Param, b: &mut Param, steps: usize) {
    for s in 0..steps {
        for (k, p) in [&mut *a, &mut *b].into_iter().enumerate() {
            for (i, g) in p.grad.as_mut_slice().iter_mut().enumerate() {
                *g = ((s + k + i) as f32 * 0.37).sin();
            }
        }
        opt.begin_step();
        opt.update(a);
        opt.update(b);
    }
}

#[test]
fn adam_state_round_trips_bitwise_and_continues_identically() {
    let mut a = Param::new(filled(&[4]));
    let mut b = Param::new(filled(&[2, 3]));
    let mut opt = Adam::new(0.01);
    drive(&mut opt, &mut a, &mut b, 3);
    // Moments, timestep and slot counter all survive exactly.
    let mut restored = round_trip(&opt);
    assert_eq!(restored, opt);
    // A restored optimizer continues the run bitwise-identically.
    let (mut a2, mut b2) = (a.clone(), b.clone());
    drive(&mut opt, &mut a, &mut b, 2);
    drive(&mut restored, &mut a2, &mut b2, 2);
    assert_eq!(a.value.as_slice(), a2.value.as_slice());
    assert_eq!(b.value.as_slice(), b2.value.as_slice());
    assert_eq!(restored, opt);
}

#[test]
fn sgd_momentum_state_round_trips_bitwise() {
    let mut a = Param::new(filled(&[3]));
    let mut b = Param::new(filled(&[2, 2]));
    let mut opt = Sgd::new(0.05, 0.9);
    drive(&mut opt, &mut a, &mut b, 3);
    let mut restored = round_trip(&opt);
    assert_eq!(restored, opt);
    let (mut a2, mut b2) = (a.clone(), b.clone());
    drive(&mut opt, &mut a, &mut b, 2);
    drive(&mut restored, &mut a2, &mut b2, 2);
    assert_eq!(a.value.as_slice(), a2.value.as_slice());
}
