//! The actor-critic network of Fig. 2 / Table I.
//!
//! A shared residual conv tower feeds two heads:
//!
//! * **policy** — 1×1 conv (2 maps) → FC → ζ² logits, masked by the
//!   availability map s_a and softmax-normalised. The paper "multiplies" the
//!   FC output by s_a before the softmax; we implement the mask as
//!   `logits + ln(s_a)`, which makes the final probabilities exactly
//!   proportional to `softmax(logits) · s_a` while keeping the softmax
//!   gradient standard.
//! * **value** — the tower output concatenated with s_p and a position
//!   embedding of t (a constant `t/total` plane), 1×1 conv → MLP
//!   (ζ² → ζ → ζ² → 1) per Table I.
//!
//! Channel width and tower depth are configurable: [`AgentConfig::paper`]
//! reproduces Table I exactly (128 channels, 10 ResBlocks);
//! [`AgentConfig::tiny`] runs the same code at laptop scale.
//!
//! Weights and workspace are split, and one forward body serves inference
//! and training. Inference ([`PolicyValueNet::forward`],
//! [`PolicyValueNet::forward_batch`]) takes `&self` plus a caller-owned
//! [`InferenceCtx`] and accepts any batch size N ≥ 1, so one network can be
//! shared by many concurrent readers. Training
//! ([`PolicyValueNet::forward_train_batch`]) runs the same body over a
//! whole transition minibatch with a [`Tape`], which waits in the network
//! until [`PolicyValueNet::backward_batch`] pops it.

use mmp_nn::{
    softmax, BatchNorm2d, Conv2d, InferenceCtx, Layer, Linear, Param, Relu, Tape, Tensor,
};
use serde::{Deserialize, Serialize};

/// Network size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Grid resolution ζ (the action space is ζ²).
    pub zeta: usize,
    /// Conv channel width F (Table I: 128).
    pub channels: usize,
    /// ResBlock count (Table I: 10).
    pub res_blocks: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl AgentConfig {
    /// The exact architecture of Table I: ζ = 16, 128 channels, 10
    /// ResBlocks.
    pub fn paper() -> Self {
        AgentConfig {
            zeta: 16,
            channels: 128,
            res_blocks: 10,
            seed: 0,
        }
    }

    /// A laptop-scale configuration sharing all code paths (16 channels,
    /// 2 ResBlocks) over a ζ×ζ grid.
    pub fn tiny(zeta: usize) -> Self {
        AgentConfig {
            zeta,
            channels: 16,
            res_blocks: 2,
            seed: 0,
        }
    }
}

/// One pre-activation-style residual block: conv-bn-relu-conv-bn + skip,
/// then relu (the ResBlock of Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ResBlock {
    conv_a: Conv2d,
    bn_a: BatchNorm2d,
    relu_a: Relu,
    conv_b: Conv2d,
    bn_b: BatchNorm2d,
    relu_out: Relu,
}

impl ResBlock {
    fn new(channels: usize, seed: u64) -> Self {
        ResBlock {
            conv_a: Conv2d::new(channels, channels, 3, seed),
            bn_a: BatchNorm2d::new(channels),
            relu_a: Relu::new(),
            conv_b: Conv2d::new(channels, channels, 3, seed ^ 0xb10c),
            bn_b: BatchNorm2d::new(channels),
            relu_out: Relu::new(),
        }
    }

    fn forward(&self, x: &Tensor, ctx: &mut InferenceCtx, mut tape: Option<&mut Tape>) -> Tensor {
        let h = self.conv_a.forward(x, ctx, tape.as_deref_mut());
        let h = apply(&self.bn_a, h, ctx, tape.as_deref_mut());
        let h = apply(&self.relu_a, h, ctx, tape.as_deref_mut());
        let h = apply(&self.conv_b, h, ctx, tape.as_deref_mut());
        let mut h = apply(&self.bn_b, h, ctx, tape.as_deref_mut());
        h.add_assign(x);
        apply(&self.relu_out, h, ctx, tape)
    }

    fn backward(&mut self, grad: &Tensor, tape: &mut Tape) -> Tensor {
        let g = self.relu_out.backward(grad, tape);
        let mut gx = self.bn_b.backward(&g, tape);
        gx = self.conv_b.backward(&gx, tape);
        gx = self.relu_a.backward(&gx, tape);
        gx = self.bn_a.backward(&gx, tape);
        let mut gi = self.conv_a.backward(&gx, tape);
        gi.add_assign(&g); // skip path
        gi
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv_a.visit_params(f);
        self.bn_a.visit_params(f);
        self.conv_b.visit_params(f);
        self.bn_b.visit_params(f);
    }
}

/// Runs `layer` on `h`, returning `h`'s storage to the pool.
fn apply(layer: &impl Layer, h: Tensor, ctx: &mut InferenceCtx, tape: Option<&mut Tape>) -> Tensor {
    let out = layer.forward(&h, ctx, tape);
    ctx.recycle_tensor(h);
    out
}

/// Smallest per-worker slice worth a thread in a parallel batched forward.
const PAR_MIN_CHUNK: usize = 4;

/// One forward result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetOutput {
    /// Masked action distribution over the ζ² cells.
    pub probs: Vec<f32>,
    /// Predicted value v_θ of the state.
    pub value: f32,
}

/// A borrowed observation, the unit of (batched) evaluation.
#[derive(Debug, Clone, Copy)]
pub struct StateRef<'a> {
    /// Flat ζ×ζ occupancy map s_p.
    pub s_p: &'a [f32],
    /// Flat ζ×ζ availability map s_a.
    pub s_a: &'a [f32],
    /// Index of the macro group to place.
    pub t: usize,
    /// Episode length (total macro groups).
    pub total: usize,
}

/// A training forward's outputs and tape, waiting for
/// [`PolicyValueNet::backward_batch`].
#[derive(Debug, Clone)]
struct ForwardCache {
    outputs: Vec<NetOutput>,
    tape: Tape,
}

/// The shared-trunk policy/value network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyValueNet {
    config: AgentConfig,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    blocks: Vec<ResBlock>,
    conv_p: Conv2d,
    bn_p: BatchNorm2d,
    relu_p: Relu,
    fc_p: Linear,
    conv_v: Conv2d,
    bn_v: BatchNorm2d,
    relu_v: Relu,
    lin1: Linear,
    relu_l1: Relu,
    lin2: Linear,
    relu_l2: Relu,
    lin3: Linear,
    #[serde(skip)]
    cache: Option<ForwardCache>,
}

impl PolicyValueNet {
    /// Builds the network (deterministic in `config.seed`).
    pub fn new(config: AgentConfig) -> Self {
        let f = config.channels;
        let z2 = config.zeta * config.zeta;
        let s = config.seed;
        PolicyValueNet {
            config,
            conv1: Conv2d::new(1, f, 3, s.wrapping_add(1)),
            bn1: BatchNorm2d::new(f),
            relu1: Relu::new(),
            blocks: (0..config.res_blocks)
                .map(|i| ResBlock::new(f, s.wrapping_add(100 + i as u64)))
                .collect(),
            conv_p: Conv2d::new(f, 2, 1, s.wrapping_add(2)),
            bn_p: BatchNorm2d::new(2),
            relu_p: Relu::new(),
            fc_p: Linear::new(2 * z2, z2, s.wrapping_add(3)),
            conv_v: Conv2d::new(f + 2, 1, 1, s.wrapping_add(4)),
            bn_v: BatchNorm2d::new(1),
            relu_v: Relu::new(),
            lin1: Linear::new(z2, config.zeta, s.wrapping_add(5)),
            relu_l1: Relu::new(),
            lin2: Linear::new(config.zeta, z2, s.wrapping_add(6)),
            relu_l2: Relu::new(),
            lin3: Linear::new(z2, 1, s.wrapping_add(7)),
            cache: None,
        }
    }

    /// The size configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    fn check_state(&self, s: &StateRef<'_>) {
        let z2 = self.config.zeta * self.config.zeta;
        assert_eq!(s.s_p.len(), z2, "s_p length mismatch");
        assert_eq!(s.s_a.len(), z2, "s_a length mismatch");
    }

    /// Evaluates the network on one state (inference mode: `&self` weights,
    /// scratch from `ctx`, running batch-norm statistics).
    ///
    /// # Panics
    ///
    /// Panics when `s_p`/`s_a` are not ζ² long.
    pub fn forward(
        &self,
        s_p: &[f32],
        s_a: &[f32],
        t: usize,
        total: usize,
        ctx: &mut InferenceCtx,
    ) -> NetOutput {
        // why: invariant, not input: forward_batch returns one output per state.
        #[allow(clippy::expect_used)]
        self.forward_batch(&[StateRef { s_p, s_a, t, total }], ctx)
            .pop()
            .expect("batch of one yields one output")
    }

    /// Evaluates the network on a batch of N states in one pass through the
    /// tower. Returns one [`NetOutput`] per state, in order. Equivalent to
    /// N single-state calls (inference batch-norm uses running statistics,
    /// so samples never interact).
    ///
    /// Large batches are split across the deterministic pool carried by
    /// `ctx` ([`InferenceCtx::exec`]) — the weights are shared `&self`,
    /// each worker reuses a persistent warm sub-context owned by `ctx` —
    /// so worker count and chunk size come from config, never the host,
    /// and the hot path stays allocation-free after warm-up. Per-state
    /// outputs are independent, so any partition is bitwise identical to
    /// the sequential pass.
    ///
    /// # Panics
    ///
    /// Panics when any state's maps are not ζ² long.
    pub fn forward_batch(&self, states: &[StateRef<'_>], ctx: &mut InferenceCtx) -> Vec<NetOutput> {
        let exec = ctx.exec();
        if exec.workers() > 1 && states.len() >= 2 * PAR_MIN_CHUNK {
            let chunk = states.len().div_ceil(exec.workers()).max(PAR_MIN_CHUNK);
            let parts: Vec<&[StateRef<'_>]> = states.chunks(chunk).collect();
            let mut worker_ctxs = ctx.take_worker_ctxs();
            let outs = exec.run_with_scratch(parts.len(), &mut worker_ctxs, |i, wctx| {
                self.forward_batch_seq(parts[i], wctx, None)
            });
            ctx.restore_worker_ctxs(worker_ctxs);
            return outs.into_iter().flatten().collect();
        }
        self.forward_batch_seq(states, ctx, None)
    }

    /// The network's one forward body, single-threaded over the batch:
    /// inference without a tape, training with one (batch-norm then couples
    /// the samples, which is why a taped pass never splits the batch).
    fn forward_batch_seq(
        &self,
        states: &[StateRef<'_>],
        ctx: &mut InferenceCtx,
        mut tape: Option<&mut Tape>,
    ) -> Vec<NetOutput> {
        if states.is_empty() {
            return Vec::new();
        }
        let z = self.config.zeta;
        let z2 = z * z;
        let n = states.len();
        for s in states {
            self.check_state(s);
        }

        // --- trunk -----------------------------------------------------
        let mut input = ctx.take_tensor(&[n, 1, z, z]);
        for (s, st) in states.iter().enumerate() {
            input.as_mut_slice()[s * z2..(s + 1) * z2].copy_from_slice(st.s_p);
        }
        let h = apply(&self.conv1, input, ctx, tape.as_deref_mut());
        let h = apply(&self.bn1, h, ctx, tape.as_deref_mut());
        let mut h = apply(&self.relu1, h, ctx, tape.as_deref_mut());
        for b in &self.blocks {
            let next = b.forward(&h, ctx, tape.as_deref_mut());
            ctx.recycle_tensor(h);
            h = next;
        }
        let tower_out = h;

        // --- policy head -----------------------------------------------
        let p = self.conv_p.forward(&tower_out, ctx, tape.as_deref_mut());
        let p = apply(&self.bn_p, p, ctx, tape.as_deref_mut());
        let mut p = apply(&self.relu_p, p, ctx, tape.as_deref_mut());
        p.reshape_in_place(&[n, 2 * z2]);
        let logits = apply(&self.fc_p, p, ctx, tape.as_deref_mut());
        let probs: Vec<Vec<f32>> = states
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let masked: Vec<f32> = logits.as_slice()[s * z2..(s + 1) * z2]
                    .iter()
                    .zip(st.s_a)
                    .map(|(&l, &a)| l + a.max(1e-30).ln())
                    .collect();
                softmax(&masked)
            })
            .collect();
        ctx.recycle_tensor(logits);

        // --- value head -------------------------------------------------
        let f = self.config.channels;
        let mut v_in = ctx.take_tensor(&[n, f + 2, z, z]);
        for (s, st) in states.iter().enumerate() {
            let base = s * (f + 2) * z2;
            v_in.as_mut_slice()[base..base + f * z2]
                .copy_from_slice(&tower_out.as_slice()[s * f * z2..(s + 1) * f * z2]);
            v_in.as_mut_slice()[base + f * z2..base + (f + 1) * z2].copy_from_slice(st.s_p);
            let embed = if st.total > 0 {
                st.t as f32 / st.total as f32
            } else {
                0.0
            };
            for vslot in &mut v_in.as_mut_slice()[base + (f + 1) * z2..base + (f + 2) * z2] {
                *vslot = embed;
            }
        }
        ctx.recycle_tensor(tower_out);
        let v = apply(&self.conv_v, v_in, ctx, tape.as_deref_mut());
        let v = apply(&self.bn_v, v, ctx, tape.as_deref_mut());
        let mut v = apply(&self.relu_v, v, ctx, tape.as_deref_mut());
        v.reshape_in_place(&[n, z2]);
        let m = apply(&self.lin1, v, ctx, tape.as_deref_mut());
        let m = apply(&self.relu_l1, m, ctx, tape.as_deref_mut());
        let m = apply(&self.lin2, m, ctx, tape.as_deref_mut());
        let m = apply(&self.relu_l2, m, ctx, tape.as_deref_mut());
        let values = apply(&self.lin3, m, ctx, tape);

        let out = probs
            .into_iter()
            .zip(values.as_slice())
            .map(|(probs, &value)| NetOutput { probs, value })
            .collect();
        ctx.recycle_tensor(values);
        out
    }

    /// Training-mode forward over a minibatch of transitions: the forward
    /// body with a tape, so batch-norm uses minibatch statistics (folded
    /// into the running statistics once, by the backward), and the tape
    /// waits in the network for one [`PolicyValueNet::backward_batch`]
    /// call.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or mismatched map lengths.
    pub fn forward_train_batch(&mut self, states: &[StateRef<'_>]) -> Vec<NetOutput> {
        assert!(!states.is_empty(), "training batch must be non-empty");
        let mut tape = Tape::new();
        let outputs = self.forward_batch_seq(states, &mut InferenceCtx::new(), Some(&mut tape));
        self.cache = Some(ForwardCache {
            outputs: outputs.clone(),
            tape,
        });
        outputs
    }

    /// Backpropagates the summed A2C losses of Eqs. 5–7 over the minibatch
    /// of the preceding [`PolicyValueNet::forward_train_batch`] call:
    /// policy loss −ln p(a)·A with A = `reward − v` (treated as a
    /// constant), value loss (reward − v)², plus an entropy bonus −β·H(π)
    /// (β = 0 is the paper's plain A2C; a positive β keeps the policy from
    /// collapsing early, an ablatable extension). `targets[s]` is the
    /// `(action, reward)` pair of sample `s`.
    ///
    /// Gradients accumulate; call an optimizer step plus
    /// [`PolicyValueNet::zero_grad`] per update (every 30 episodes in the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics without a preceding training-mode forward or when
    /// `targets.len()` differs from the cached batch size.
    pub fn backward_batch(&mut self, targets: &[(usize, f32)], beta: f32) {
        // why: documented panic: callers must pair backward with a training
        // forward; see the `# Panics` section.
        #[allow(clippy::expect_used)]
        let ForwardCache { outputs, mut tape } = self
            .cache
            .take()
            .expect("backward without training forward");
        assert_eq!(
            targets.len(),
            outputs.len(),
            "targets must match the cached batch size"
        );
        let tape = &mut tape;
        let z = self.config.zeta;
        let z2 = z * z;
        let f = self.config.channels;
        let n = targets.len();

        // --- value head gradient ---------------------------------------
        // The value head ran last, so its records sit on top of the tape.
        // d(R − v)²/dv = −2(R − v) = −2A.
        let dv: Vec<f32> = targets
            .iter()
            .zip(&outputs)
            .map(|(&(_, reward), out)| -2.0 * (reward - out.value))
            .collect();
        let g = self.lin3.backward(&Tensor::from_vec(&[n, 1], dv), tape);
        let g = self.relu_l2.backward(&g, tape);
        let g = self.lin2.backward(&g, tape);
        let g = self.relu_l1.backward(&g, tape);
        let mut g = self.lin1.backward(&g, tape);
        g.reshape_in_place(&[n, 1, z, z]);
        let g = self.relu_v.backward(&g, tape);
        let g = self.bn_v.backward(&g, tape);
        let g = self.conv_v.backward(&g, tape);
        // Route only the tower channels of the concat input back.
        let mut v_tower_grad = Tensor::zeros(&[n, f, z, z]);
        for s in 0..n {
            let src = s * (f + 2) * z2;
            let dst = s * f * z2;
            v_tower_grad.as_mut_slice()[dst..dst + f * z2]
                .copy_from_slice(&g.as_slice()[src..src + f * z2]);
        }

        // --- policy head gradient -------------------------------------
        // d(−ln p_a · A)/d logits_j = A · (p_j − 1[j = a]); the s_a mask is
        // an additive constant and vanishes from the gradient. The entropy
        // term −β·H adds β·p_j·(ln p_j + H).
        let mut dlogits = vec![0.0f32; n * z2];
        for (s, &(action, reward)) in targets.iter().enumerate() {
            let probs = &outputs[s].probs;
            let advantage = reward - outputs[s].value;
            let entropy: f32 = probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -p * p.ln())
                .sum();
            for (j, d) in dlogits[s * z2..(s + 1) * z2].iter_mut().enumerate() {
                let p = probs[j];
                *d = advantage * (p - if j == action { 1.0 } else { 0.0 });
                if beta > 0.0 && p > 0.0 {
                    *d += beta * p * (p.ln() + entropy);
                }
            }
        }
        let mut g = self
            .fc_p
            .backward(&Tensor::from_vec(&[n, z2], dlogits), tape);
        g.reshape_in_place(&[n, 2, z, z]);
        let g = self.relu_p.backward(&g, tape);
        let g = self.bn_p.backward(&g, tape);
        let mut tower_grad = self.conv_p.backward(&g, tape);
        tower_grad.add_assign(&v_tower_grad);

        // --- trunk -------------------------------------------------------
        let mut g = tower_grad;
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g, tape);
        }
        let g = self.relu1.backward(&g, tape);
        let g = self.bn1.backward(&g, tape);
        let _ = self.conv1.backward(&g, tape);
        debug_assert!(tape.is_empty(), "backward must pop every forward record");
    }

    /// Visits every trainable parameter (optimizer + checkpoint hook).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.conv_p.visit_params(f);
        self.bn_p.visit_params(f);
        self.fc_p.visit_params(f);
        self.conv_v.visit_params(f);
        self.bn_v.visit_params(f);
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
        self.lin3.visit_params(f);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> PolicyValueNet {
        PolicyValueNet::new(AgentConfig {
            zeta: 4,
            channels: 4,
            res_blocks: 1,
            seed: 7,
        })
    }

    fn uniform_state(z2: usize) -> (Vec<f32>, Vec<f32>) {
        (vec![0.3; z2], vec![1.0; z2])
    }

    /// A one-transition training batch at step `t` of 5.
    fn one<'a>(s_p: &'a [f32], s_a: &'a [f32], t: usize) -> [StateRef<'a>; 1] {
        [StateRef {
            s_p,
            s_a,
            t,
            total: 5,
        }]
    }

    #[test]
    fn forward_produces_distribution() {
        let net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let out = net.forward(&s_p, &s_a, 0, 5, &mut ctx);
        let sum: f32 = out.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(out.probs.iter().all(|&p| p >= 0.0));
        assert!(out.value.is_finite());
    }

    #[test]
    fn mask_zeroes_unavailable_cells() {
        let net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let s_p = vec![0.3; 16];
        let mut s_a = vec![1.0; 16];
        s_a[3] = 0.0;
        s_a[9] = 0.0;
        let out = net.forward(&s_p, &s_a, 0, 5, &mut ctx);
        assert!(out.probs[3] < 1e-12);
        assert!(out.probs[9] < 1e-12);
        let sum: f32 = out.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn availability_scales_probabilities() {
        // Identical logits: probs must be proportional to s_a.
        let net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let s_p = vec![0.0; 16];
        let mut s_a = vec![0.5; 16];
        s_a[0] = 1.0;
        let out = net.forward(&s_p, &s_a, 0, 5, &mut ctx);
        // p_0 / p_j for equal logits should approach s_a ratio 2.0 —
        // logits are not exactly equal, so just check the direction
        // strongly holds on average.
        let rest_avg: f32 = out.probs[1..].iter().sum::<f32>() / 15.0;
        assert!(out.probs[0] > rest_avg, "{} vs {}", out.probs[0], rest_avg);
    }

    #[test]
    fn value_depends_on_position_embedding() {
        let net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let v0 = net.forward(&s_p, &s_a, 0, 10, &mut ctx).value;
        let v9 = net.forward(&s_p, &s_a, 9, 10, &mut ctx).value;
        assert_ne!(v0, v9, "t-embedding must reach the value head");
    }

    #[test]
    fn serde_round_trip_is_bitwise() {
        // The checkpoint subsystem persists the net as JSON; bitwise resume
        // requires the weights to survive exactly. PolicyValueNet has no
        // PartialEq (the `#[serde(skip)]` forward cache makes one
        // misleading), so compare the canonical JSON forms and the forward
        // outputs, both of which cover every serialized weight.
        let mut net = tiny_net();
        let (s_p, s_a) = uniform_state(16);
        // A training pass populates the skipped forward cache; it must be
        // dropped on save, not corrupt the payload.
        let _ = net.forward_train_batch(&one(&s_p, &s_a, 1));
        let json = serde_json::to_string(&net).expect("net serializes");
        let back: PolicyValueNet = serde_json::from_str(&json).expect("net deserializes");
        assert_eq!(
            serde_json::to_string(&back).expect("round-tripped net serializes"),
            json,
            "weights must survive serialize→deserialize bitwise"
        );
        // The restored net starts without a cache; its inference and
        // training outputs are bitwise identical to the original's.
        let mut ctx_a = InferenceCtx::new();
        let mut ctx_b = InferenceCtx::new();
        assert_eq!(
            net.forward(&s_p, &s_a, 2, 5, &mut ctx_a),
            back.forward(&s_p, &s_a, 2, 5, &mut ctx_b)
        );
        let mut back = back;
        assert_eq!(
            net.forward_train_batch(&one(&s_p, &s_a, 2)),
            back.forward_train_batch(&one(&s_p, &s_a, 2))
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = tiny_net();
        let b = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        assert_eq!(
            a.forward(&s_p, &s_a, 1, 5, &mut ctx),
            b.forward(&s_p, &s_a, 1, 5, &mut ctx)
        );
    }

    #[test]
    fn batched_forward_matches_singles() {
        let net = tiny_net();
        let mut ctx = InferenceCtx::new();
        // Three distinct states.
        let states: Vec<(Vec<f32>, Vec<f32>, usize)> = (0..3)
            .map(|k| {
                let s_p: Vec<f32> = (0..16).map(|i| ((i + k) % 4) as f32 * 0.25).collect();
                let mut s_a = vec![1.0f32; 16];
                s_a[k] = 0.0;
                (s_p, s_a, k)
            })
            .collect();
        let refs: Vec<StateRef<'_>> = states
            .iter()
            .map(|(s_p, s_a, t)| StateRef {
                s_p,
                s_a,
                t: *t,
                total: 5,
            })
            .collect();
        let batched = net.forward_batch(&refs, &mut ctx);
        for (k, (s_p, s_a, t)) in states.iter().enumerate() {
            let single = net.forward(s_p, s_a, *t, 5, &mut ctx);
            // Per-state outputs are fully independent (inference BN uses
            // running stats), so batching must not change a single bit.
            assert_eq!(
                single.value.to_bits(),
                batched[k].value.to_bits(),
                "value {k}: {} vs {}",
                single.value,
                batched[k].value
            );
            for (a, b) in single.probs.iter().zip(&batched[k].probs) {
                assert_eq!(a.to_bits(), b.to_bits(), "probs {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_batch_is_bitwise_identical_and_alloc_free_after_warmup() {
        let net = tiny_net();
        // Large enough to trigger the parallel path (2·PAR_MIN_CHUNK).
        let states: Vec<(Vec<f32>, Vec<f32>, usize)> = (0..10)
            .map(|k| {
                let s_p: Vec<f32> = (0..16).map(|i| ((i + k) % 5) as f32 * 0.2).collect();
                let mut s_a = vec![1.0f32; 16];
                s_a[k] = 0.0;
                (s_p, s_a, k)
            })
            .collect();
        let refs: Vec<StateRef<'_>> = states
            .iter()
            .map(|(s_p, s_a, t)| StateRef {
                s_p,
                s_a,
                t: *t,
                total: 12,
            })
            .collect();
        let mut seq_ctx = InferenceCtx::new();
        let want = net.forward_batch(&refs, &mut seq_ctx);
        for workers in [2usize, 4] {
            let pool = mmp_pool::ThreadPool::try_new(workers).unwrap();
            let mut ctx = InferenceCtx::new().with_exec(pool);
            let got = net.forward_batch(&refs, &mut ctx);
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "w={workers} value {k}"
                );
                for (x, y) in a.probs.iter().zip(&b.probs) {
                    assert_eq!(x.to_bits(), y.to_bits(), "w={workers} probs {k}");
                }
            }
            // The caller's ctx keeps the per-worker sub-contexts warm:
            // repeat calls must not heap-allocate a single buffer.
            let warm = ctx.fresh_allocations();
            assert!(warm > 0, "warm-up must have populated the pools");
            for _ in 0..3 {
                let again = net.forward_batch(&refs, &mut ctx);
                assert_eq!(again.len(), want.len());
                assert_eq!(
                    ctx.fresh_allocations(),
                    warm,
                    "w={workers}: parallel path allocated after warm-up"
                );
            }
        }
    }

    #[test]
    fn empty_batch_yields_no_outputs() {
        let net = tiny_net();
        let mut ctx = InferenceCtx::new();
        assert!(net.forward_batch(&[], &mut ctx).is_empty());
    }

    #[test]
    fn training_step_increases_chosen_action_probability() {
        // One-state bandit: positive advantage on action 5 must raise p[5].
        let mut net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let mut opt = mmp_nn::Sgd::new(0.005, 0.0);
        let before = net.forward(&s_p, &s_a, 0, 5, &mut ctx).probs[5];
        for _ in 0..25 {
            let out = net.forward_train_batch(&one(&s_p, &s_a, 0));
            // reward chosen so the advantage is clearly positive
            net.backward_batch(&[(5, out[0].value + 1.0)], 0.0);
            use mmp_nn::Optimizer;
            opt.begin_step();
            net.visit_params(&mut |p| opt.update(p));
            net.zero_grad();
        }
        let after = net.forward(&s_p, &s_a, 0, 5, &mut ctx).probs[5];
        assert!(
            after > before,
            "p[5] should grow: before {before}, after {after}"
        );
    }

    #[test]
    fn value_regresses_toward_reward() {
        let mut net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let mut opt = mmp_nn::Adam::new(0.01);
        let target = 0.8f32;
        for _ in 0..60 {
            let _ = net.forward_train_batch(&one(&s_p, &s_a, 2));
            // Use a never-chosen action irrelevant for value learning.
            net.backward_batch(&[(0, target)], 0.0);
            use mmp_nn::Optimizer;
            opt.begin_step();
            net.visit_params(&mut |p| opt.update(p));
            net.zero_grad();
        }
        let v = net.forward(&s_p, &s_a, 2, 5, &mut ctx).value;
        assert!(
            (v - target).abs() < 0.3,
            "value {v} should approach {target}"
        );
    }

    #[test]
    fn batched_training_learns_the_bandit_too() {
        // The batched update path must be able to do what the looped path
        // does: raise the probability of a positively-advantaged action.
        let mut net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let mut opt = mmp_nn::Sgd::new(0.005, 0.0);
        let before = net.forward(&s_p, &s_a, 0, 5, &mut ctx).probs[5];
        let sref = StateRef {
            s_p: &s_p,
            s_a: &s_a,
            t: 0,
            total: 5,
        };
        for _ in 0..10 {
            let outs = net.forward_train_batch(&[sref, sref, sref]);
            let targets: Vec<(usize, f32)> = outs.iter().map(|o| (5, o.value + 1.0)).collect();
            net.backward_batch(&targets, 0.0);
            use mmp_nn::Optimizer;
            opt.begin_step();
            net.visit_params(&mut |p| opt.update(p));
            net.zero_grad();
        }
        let after = net.forward(&s_p, &s_a, 0, 5, &mut ctx).probs[5];
        assert!(
            after > before,
            "p[5] should grow: before {before}, after {after}"
        );
    }

    /// An owned transition: `(s_p, s_a, t)`.
    type Transition = (Vec<f32>, Vec<f32>, usize);

    /// Three distinct transitions (occupancy ramps, partly and fully masked
    /// cells, steps 0, 2 and 4 of 5) with `(action, reward)` targets on
    /// available cells.
    fn varied_batch() -> (Vec<Transition>, [(usize, f32); 3]) {
        let batch = (0..3)
            .map(|s| {
                let s_p: Vec<f32> = (0..16)
                    .map(|i| ((i * 7 + s * 5) % 11) as f32 / 10.0)
                    .collect();
                let mut s_a = vec![1.0; 16];
                s_a[3 * s] = 0.0;
                s_a[3 * s + 2] = 0.5;
                (s_p, s_a, 2 * s)
            })
            .collect();
        (batch, [(1, 0.9), (5, -0.4), (13, 0.2)])
    }

    fn refs(batch: &[Transition]) -> Vec<StateRef<'_>> {
        batch
            .iter()
            .map(|(s_p, s_a, t)| StateRef {
                s_p,
                s_a,
                t: *t,
                total: 5,
            })
            .collect()
    }

    /// The summed loss `backward_batch` differentiates: −ln p(a)·A + (R − v)²
    /// − β·H(π) per sample, with each advantage held at `advantages[s]`
    /// because the backward treats A as a constant.
    fn a2c_loss(
        net: &mut PolicyValueNet,
        states: &[StateRef<'_>],
        targets: &[(usize, f32)],
        advantages: &[f32],
        beta: f32,
    ) -> f64 {
        let outs = net.forward_train_batch(states);
        let mut loss = 0.0;
        for ((out, &(action, reward)), &adv) in outs.iter().zip(targets).zip(advantages) {
            let entropy: f64 = out
                .probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -f64::from(p) * f64::from(p).ln())
                .sum();
            loss += -f64::from(out.probs[action]).ln() * f64::from(adv)
                + (f64::from(reward) - f64::from(out.value)).powi(2)
                - f64::from(beta) * entropy;
        }
        loss
    }

    /// Compares `backward_batch`'s gradient with a central difference of
    /// [`a2c_loss`] along a fixed ±1 direction over every parameter.
    fn check_a2c_gradient(beta: f32) {
        let mut net = tiny_net();
        let (batch, targets) = varied_batch();
        let states = refs(&batch);
        let outs = net.forward_train_batch(&states);
        let advantages: Vec<f32> = targets
            .iter()
            .zip(&outs)
            .map(|(&(_, reward), out)| reward - out.value)
            .collect();
        net.zero_grad();
        net.backward_batch(&targets, beta);

        let mut dir = Vec::new();
        let mut analytic = 0.0f64;
        let mut bits = 0x2545_f491_4f6c_dd1du64;
        net.visit_params(&mut |p| {
            for &g in p.grad.as_slice() {
                bits ^= bits << 13;
                bits ^= bits >> 7;
                bits ^= bits << 17;
                let d = if bits & 1 == 0 { 1.0f32 } else { -1.0 };
                analytic += f64::from(g) * f64::from(d);
                dir.push(d);
            }
        });
        let shift = |net: &mut PolicyValueNet, eps: f32| {
            let mut i = 0;
            net.visit_params(&mut |p| {
                for v in p.value.as_mut_slice() {
                    *v += eps * dir[i];
                    i += 1;
                }
            });
        };
        // From 5e-4 up, ReLUs along the path change side and move the
        // quotient by a fifth; below 1e-4, the loss's f32 rounding (about
        // 1e-6) dominates it.
        let eps = 2e-4f32;
        shift(&mut net, eps);
        let lp = a2c_loss(&mut net, &states, &targets, &advantages, beta);
        shift(&mut net, -2.0 * eps);
        let lm = a2c_loss(&mut net, &states, &targets, &advantages, beta);
        let numeric = (lp - lm) / f64::from(2.0 * eps);
        assert!(
            (analytic - numeric).abs() <= 2e-2 * numeric.abs().max(1.0),
            "beta {beta}: analytic {analytic}, numeric {numeric}"
        );
    }

    #[test]
    fn batched_gradient_matches_finite_differences_of_the_a2c_loss() {
        check_a2c_gradient(0.0);
    }

    #[test]
    fn entropy_bonus_gradient_matches_finite_differences() {
        check_a2c_gradient(0.05);
    }

    #[test]
    fn running_statistics_move_only_when_a_taped_pass_is_backpropagated() {
        let mut net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let (batch, targets) = varied_batch();
        let weights = |net: &mut PolicyValueNet| {
            let mut w = Vec::new();
            net.visit_params(&mut |p| w.extend_from_slice(p.value.as_slice()));
            w
        };
        let before = net.forward(&s_p, &s_a, 1, 5, &mut ctx);
        let w_before = weights(&mut net);
        let _ = net.forward_train_batch(&refs(&batch));
        assert_eq!(
            net.forward(&s_p, &s_a, 1, 5, &mut ctx),
            before,
            "a taped forward moves nothing"
        );
        net.backward_batch(&targets, 0.0);
        // No optimizer step: the weights stay, batch-norm's running
        // statistics take in the batch.
        assert_eq!(weights(&mut net), w_before);
        assert_ne!(net.forward(&s_p, &s_a, 1, 5, &mut ctx), before);
    }

    #[test]
    #[should_panic(expected = "targets must match")]
    fn target_count_mismatch_panics() {
        let mut net = tiny_net();
        let (s_p, s_a) = uniform_state(16);
        let _ = net.forward_train_batch(&one(&s_p, &s_a, 0));
        net.backward_batch(&[(0, 0.0), (1, 0.0)], 0.0);
    }

    #[test]
    fn paper_config_matches_table_i() {
        let cfg = AgentConfig::paper();
        assert_eq!((cfg.zeta, cfg.channels, cfg.res_blocks), (16, 128, 10));
        // The paper-scale network is constructible (forward is exercised at
        // tiny scale to keep tests fast).
        let net = PolicyValueNet::new(AgentConfig::tiny(16));
        assert_eq!(net.config().zeta, 16);
    }

    #[test]
    #[should_panic(expected = "backward without training forward")]
    fn backward_needs_training_forward() {
        let mut net = tiny_net();
        let mut ctx = InferenceCtx::new();
        let (s_p, s_a) = uniform_state(16);
        let _ = net.forward(&s_p, &s_a, 0, 5, &mut ctx);
        net.backward_batch(&[(0, 1.0)], 0.0);
    }

    #[test]
    fn entropy_bonus_keeps_the_policy_flatter() {
        // Controlled comparison at zero advantage (reward == value): the
        // only weight-gradient is the entropy term, so a larger beta must
        // end with a flatter (higher-entropy) policy. BatchNorm running
        // stats drift identically in both runs, so the comparison isolates
        // the entropy gradient.
        let entropy_of = |probs: &[f32]| -> f32 {
            probs
                .iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -p * p.ln())
                .sum()
        };
        let run = |beta: f32| -> f32 {
            use mmp_nn::Optimizer;
            let mut net = tiny_net();
            let mut ctx = InferenceCtx::new();
            let (s_p, s_a) = uniform_state(16);
            let mut opt = mmp_nn::Sgd::new(0.01, 0.0);
            for _ in 0..60 {
                let out = net.forward_train_batch(&one(&s_p, &s_a, 0));
                net.backward_batch(&[(5, out[0].value)], beta); // advantage 0
                opt.begin_step();
                net.visit_params(&mut |p| opt.update(p));
                net.zero_grad();
            }
            entropy_of(&net.forward(&s_p, &s_a, 0, 5, &mut ctx).probs)
        };
        let plain = run(0.0);
        let regularized = run(0.5);
        assert!(
            regularized > plain,
            "entropy bonus should flatten the policy: {regularized} vs {plain}"
        );
    }

    #[test]
    fn parameter_count_scales_with_config() {
        let mut small = PolicyValueNet::new(AgentConfig {
            zeta: 4,
            channels: 4,
            res_blocks: 1,
            seed: 0,
        });
        let mut big = PolicyValueNet::new(AgentConfig {
            zeta: 4,
            channels: 8,
            res_blocks: 2,
            seed: 0,
        });
        let count = |n: &mut PolicyValueNet| {
            let mut c = 0usize;
            n.visit_params(&mut |p| c += p.value.len());
            c
        };
        assert!(count(&mut big) > count(&mut small));
    }
}
