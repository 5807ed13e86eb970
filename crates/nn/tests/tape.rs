//! Hand-chained layers train through one shared tape.
//!
//! Networks compose layers by hand, as the policy/value net does, so a
//! chain relies on the tape's contract: each taped forward pushes its
//! record, and a backward that visits the layers in reverse pops exactly
//! those records.

use mmp_nn::{InferenceCtx, Layer, Linear, Optimizer, Param, Relu, Sgd, Tape, Tensor};

/// Linear → ReLU → linear.
struct Mlp {
    l1: Linear,
    relu: Relu,
    l2: Linear,
}

impl Mlp {
    fn new(inputs: usize, hidden: usize, outputs: usize) -> Self {
        Mlp {
            l1: Linear::new(inputs, hidden, 0),
            relu: Relu::new(),
            l2: Linear::new(hidden, outputs, 1),
        }
    }

    fn forward(&self, x: &Tensor, ctx: &mut InferenceCtx, mut tape: Option<&mut Tape>) -> Tensor {
        let h = self.l1.forward(x, ctx, tape.as_deref_mut());
        let h = self.relu.forward(&h, ctx, tape.as_deref_mut());
        self.l2.forward(&h, ctx, tape)
    }

    fn backward(&mut self, grad: &Tensor, tape: &mut Tape) -> Tensor {
        let g = self.l2.backward(grad, tape);
        let g = self.relu.backward(&g, tape);
        self.l1.backward(&g, tape)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.l1.visit_params(f);
        self.l2.visit_params(f);
    }
}

#[test]
fn mlp_learns_a_linear_map() {
    // Fit y = x0 - x1 with a tiny MLP via SGD.
    let mut net = Mlp::new(2, 8, 1);
    let mut opt = Sgd::new(0.05, 0.9);
    let mut ctx = InferenceCtx::new();
    let samples: Vec<([f32; 2], f32)> = vec![
        ([1.0, 0.0], 1.0),
        ([0.0, 1.0], -1.0),
        ([1.0, 1.0], 0.0),
        ([0.5, 0.25], 0.25),
    ];
    for _ in 0..300 {
        for (x, y) in &samples {
            let input = Tensor::from_vec(&[1, 2], x.to_vec());
            let mut tape = Tape::new();
            let out = net.forward(&input, &mut ctx, Some(&mut tape));
            let err = out.as_slice()[0] - y;
            net.backward(&Tensor::from_vec(&[1, 1], vec![2.0 * err]), &mut tape);
            assert!(tape.is_empty(), "backward pops every record");
            opt.begin_step();
            net.visit_params(&mut |p| opt.update(p));
            net.visit_params(&mut |p| p.zero_grad());
        }
    }
    for (x, y) in &samples {
        let input = Tensor::from_vec(&[1, 2], x.to_vec());
        let got = net.forward(&input, &mut ctx, None).as_slice()[0];
        assert!((got - y).abs() < 0.1, "f({x:?}) = {got}, want {y}");
    }
}

#[test]
fn backward_runs_in_reverse_order() {
    // A 3→5→2 chain shares one tape. Both linear layers push an input;
    // popping them in the wrong order would hand each backward the other
    // layer's input, so gradients matching finite differences show the
    // records came back in reverse.
    let mut net = Mlp::new(3, 5, 2);
    let mut ctx = InferenceCtx::new();
    let x = Tensor::from_vec(&[2, 3], vec![0.5, -0.3, 0.8, -0.6, 0.9, 0.2]);
    let coefs = [0.7f32, -1.1, 0.4, 0.9];
    let loss = |net: &Mlp, x: &Tensor, ctx: &mut InferenceCtx| -> f64 {
        let out = net.forward(x, ctx, None);
        out.as_slice()
            .iter()
            .zip(&coefs)
            .map(|(&o, &c)| f64::from(o) * f64::from(c))
            .sum()
    };

    let mut tape = Tape::new();
    let out = net.forward(&x, &mut ctx, Some(&mut tape));
    assert_eq!(out.as_slice(), net.forward(&x, &mut ctx, None).as_slice());
    let grad_in = net.backward(&Tensor::from_vec(&[2, 2], coefs.to_vec()), &mut tape);
    assert_eq!(grad_in.shape(), x.shape());
    assert!(tape.is_empty(), "backward pops every record");

    let eps = 1e-3f32;
    for idx in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let numeric =
            (loss(&net, &xp, &mut ctx) - loss(&net, &xm, &mut ctx)) / f64::from(2.0 * eps);
        let analytic = f64::from(grad_in.as_slice()[idx]);
        assert!(
            (analytic - numeric).abs() < 1e-3,
            "input[{idx}]: analytic {analytic}, numeric {numeric}"
        );
    }

    // Every weight and bias of both layers, one coordinate at a time.
    let mut grads = Vec::new();
    net.visit_params(&mut |p| grads.extend_from_slice(p.grad.as_slice()));
    for (k, &analytic) in grads.iter().enumerate() {
        let nudge = |net: &mut Mlp, delta: f32| {
            let mut seen = 0;
            net.visit_params(&mut |p| {
                if let Some(v) = p.value.as_mut_slice().get_mut(k.wrapping_sub(seen)) {
                    *v += delta;
                }
                seen += p.value.len();
            });
        };
        nudge(&mut net, eps);
        let lp = loss(&net, &x, &mut ctx);
        nudge(&mut net, -2.0 * eps);
        let lm = loss(&net, &x, &mut ctx);
        nudge(&mut net, eps);
        let numeric = (lp - lm) / f64::from(2.0 * eps);
        assert!(
            (f64::from(analytic) - numeric).abs() < 1e-3,
            "param[{k}]: analytic {analytic}, numeric {numeric}"
        );
    }
}
