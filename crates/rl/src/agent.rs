//! The trained agent: a thin, checkpointable wrapper around the network.

use crate::env::State;
use crate::net::{AgentConfig, NetOutput, PolicyValueNet};
use mmp_nn::InferenceCtx;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// An actor-critic agent (π_θ + V_θ). Cloneable (checkpointing for the
/// Fig. 5 experiment) and serialisable (weight files).
///
/// All evaluation methods take `&self` plus a caller-owned
/// [`InferenceCtx`], so one agent can be shared across threads — each
/// worker brings its own scratch context (see `mmp-mcts`'s ensemble).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Agent {
    net: PolicyValueNet,
}

impl Agent {
    /// A freshly-initialised agent.
    pub fn new(config: AgentConfig) -> Self {
        Agent {
            net: PolicyValueNet::new(config),
        }
    }

    /// Wraps an existing network.
    pub fn from_net(net: PolicyValueNet) -> Self {
        Agent { net }
    }

    /// The network size configuration.
    pub fn config(&self) -> &AgentConfig {
        self.net.config()
    }

    /// Mutable access to the underlying network (training).
    pub fn net_mut(&mut self) -> &mut PolicyValueNet {
        &mut self.net
    }

    /// Evaluates π_θ and V_θ on a state. Inference mode: shared `&self`
    /// weights, scratch buffers from `ctx`, running batch-norm statistics.
    pub fn policy_value(&self, state: &State, ctx: &mut InferenceCtx) -> NetOutput {
        self.net
            .forward(&state.s_p, &state.s_a, state.t, state.total, ctx)
    }

    /// Samples an action from π_θ.
    ///
    /// Falls back to the most-available cell when the distribution is
    /// degenerate (all cells masked).
    pub fn sample_action<R: Rng>(
        &self,
        state: &State,
        rng: &mut R,
        ctx: &mut InferenceCtx,
    ) -> usize {
        let out = self.policy_value(state, ctx);
        sample_from(&out.probs, rng).unwrap_or_else(|| argmax(&state.s_a))
    }

    /// The greedy (argmax) action of π_θ.
    pub fn greedy_action(&self, state: &State, ctx: &mut InferenceCtx) -> usize {
        let out = self.policy_value(state, ctx);
        argmax(&out.probs)
    }

    /// Serialises the agent as JSON. A mut reference can be passed as the
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates serialisation/I/O failures.
    pub fn save<W: Write>(&self, w: W) -> Result<(), serde_json::Error> {
        serde_json::to_writer(w, self)
    }

    /// Reads an agent saved by [`Agent::save`]. A mut reference can be
    /// passed as the reader.
    ///
    /// # Errors
    ///
    /// Propagates deserialisation/I/O failures.
    pub fn load<R: Read>(r: R) -> Result<Self, serde_json::Error> {
        serde_json::from_reader(r)
    }
}

/// Samples an index from an (unnormalised is fine) non-negative weight
/// vector; `None` when all weights vanish.
pub(crate) fn sample_from<R: Rng>(weights: &[f32], rng: &mut R) -> Option<usize> {
    let total: f32 = weights.iter().filter(|w| w.is_finite()).sum();
    if total.is_nan() || total <= 0.0 {
        return None;
    }
    let mut ticket = rng.gen::<f32>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() {
            continue;
        }
        ticket -= w;
        if ticket <= 0.0 {
            return Some(i);
        }
    }
    weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
}

fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn state(z2: usize) -> State {
        State {
            s_p: vec![0.2; z2],
            s_a: vec![1.0; z2],
            t: 0,
            total: 4,
        }
    }

    fn tiny_agent() -> Agent {
        Agent::new(AgentConfig {
            zeta: 4,
            channels: 4,
            res_blocks: 1,
            seed: 3,
        })
    }

    #[test]
    fn greedy_action_is_deterministic() {
        let a = tiny_agent();
        let mut ctx = InferenceCtx::new();
        let s = state(16);
        assert_eq!(a.greedy_action(&s, &mut ctx), a.greedy_action(&s, &mut ctx));
    }

    #[test]
    fn sampling_respects_mask() {
        let a = tiny_agent();
        let mut ctx = InferenceCtx::new();
        let mut s = state(16);
        for i in 0..16 {
            if i != 7 {
                s.s_a[i] = 0.0;
            }
        }
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(a.sample_action(&s, &mut rng, &mut ctx), 7);
        }
    }

    #[test]
    fn fully_masked_state_falls_back() {
        let a = tiny_agent();
        let mut ctx = InferenceCtx::new();
        let mut s = state(16);
        s.s_a = vec![0.0; 16];
        let mut rng = SmallRng::seed_from_u64(2);
        let act = a.sample_action(&s, &mut rng, &mut ctx);
        assert!(act < 16);
    }

    #[test]
    fn save_load_roundtrip_preserves_behaviour() {
        let a = tiny_agent();
        let mut ctx = InferenceCtx::new();
        let s = state(16);
        let before = a.policy_value(&s, &mut ctx);
        let mut buf = Vec::new();
        a.save(&mut buf).unwrap();
        let b = Agent::load(buf.as_slice()).unwrap();
        let after = b.policy_value(&s, &mut ctx);
        assert_eq!(before, after);
    }

    #[test]
    fn shared_agent_across_threads_with_private_ctx() {
        // The point of the weights/workspace split: several threads evaluate
        // the same `&Agent` concurrently, each with its own ctx.
        let a = tiny_agent();
        let s = state(16);
        let mut ctx = InferenceCtx::new();
        let want = a.policy_value(&s, &mut ctx);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut ctx = InferenceCtx::new();
                    let got = a.policy_value(&s, &mut ctx);
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn sample_from_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(sample_from(&[0.0, 0.0], &mut rng), None);
        assert_eq!(sample_from(&[0.0, 1.0], &mut rng), Some(1));
        // Distribution roughly follows the weights.
        let mut counts = [0usize; 2];
        for _ in 0..2000 {
            counts[sample_from(&[1.0, 3.0], &mut rng).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sample_from_handles_infinities() {
        let mut rng = SmallRng::seed_from_u64(4);
        // Non-finite entries are skipped rather than poisoning the sum.
        let act = sample_from(&[f32::INFINITY, 1.0], &mut rng);
        assert_eq!(act, Some(1));
    }
}
