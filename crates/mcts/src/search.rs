//! The exploration loop: selection → expansion → evaluation →
//! backpropagation (Sec. IV-B, Fig. 3).
//!
//! Each exploration scores one leaf: a terminal leaf by the real
//! legalize-and-place pipeline, any other by one π_θ/V_θ evaluation that
//! also expands it.

use crate::tree::SearchTree;
use mmp_ckpt::CkptError;
use mmp_geom::GridIndex;
use mmp_obs::{field, Obs};
use mmp_rl::{Agent, InferenceCtx, PlacementEnv, RewardScale, Trainer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Instant;

/// MCTS parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MctsConfig {
    /// PUCT exploration constant c (paper: 1.05).
    pub c_puct: f64,
    /// Explorations γ per macro-group decision.
    pub explorations: usize,
    /// Multiplicative noise amplitude applied to expansion priors
    /// (AlphaZero-style root-diversification). 0 keeps the search fully
    /// deterministic; the [`ensemble`](crate::ensemble) uses small positive
    /// values with distinct seeds per worker.
    pub prior_noise: f32,
    /// Seed for the prior noise (ignored when `prior_noise == 0`).
    pub noise_seed: u64,
    /// Fault injection (test support): replace every network prior vector
    /// with NaN before expansion so the numerical-health guard can be
    /// exercised deterministically. `false` in production.
    #[serde(default)]
    pub fault_nan_priors: bool,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            c_puct: 1.05,
            explorations: 64,
            prior_noise: 0.0,
            noise_seed: 0,
            fault_nan_priors: false,
        }
    }
}

/// Search effort counters — the evidence behind the paper's runtime claim
/// (real placements run only at terminal leaves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Explorations performed.
    pub explorations: usize,
    /// Leaves evaluated by V_θ and expanded (cheap).
    pub value_evaluations: usize,
    /// Leaves evaluated by the real legalize-and-place pipeline
    /// (expensive).
    pub terminal_evaluations: usize,
    /// Nodes allocated in the tree over the whole search, including
    /// those dropped when the root advanced.
    pub nodes: usize,
    /// `true` when the search deadline expired before every group received
    /// its full exploration budget; the remaining groups were committed
    /// best-so-far or allocated policy-greedily.
    #[serde(default)]
    pub deadline_expired: bool,
    /// Groups allocated by the greedy policy fallback instead of tree
    /// search (only ever non-zero when `deadline_expired`).
    #[serde(default)]
    pub policy_greedy_groups: usize,
    /// Network evaluations whose priors or value came back NaN/Inf and were
    /// replaced by uniform priors / zero value.
    #[serde(default)]
    pub nan_evaluations: usize,
}

/// The complete mid-search state captured after a committed macro group.
///
/// The tree carried is the live subtree: [`SearchTree::advance_root`]
/// reuses the committed child's subtree across groups and drops every
/// other node, so the checkpoint holds exactly the statistics the
/// remaining search can reach (resuming from the actions alone would
/// rebuild different ones). Restoring the tree, the effort counters and
/// the prior-noise RNG stream makes the continuation bitwise-identical to
/// an uninterrupted search. Checkpoints written before compaction, whose
/// trees still hold every node allocated, resume to the same outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Macro groups committed so far.
    pub groups_done: usize,
    /// The flat grid action committed for each finished group, in order.
    pub actions: Vec<usize>,
    /// The search tree, rooted at the next group's decision.
    pub tree: SearchTree,
    /// Effort counters accumulated so far.
    pub stats: SearchStats,
    /// The prior-noise RNG's exact stream position.
    pub rng: [u64; 4],
}

/// Macro groups committed between two partial [`SearchCheckpoint`]s.
///
/// One checkpoint write (clone the live tree, encode it, write, two fsyncs
/// and a rename) costs about as much as the search of the group it
/// protects, at any exploration budget, because the tree and the search
/// work grow together. A lost checkpoint costs only a deterministic
/// re-run of at most this many groups, so the search writes after every
/// tenth group instead of every group.
pub const SEARCH_CHECKPOINT_GROUPS: usize = 10;

/// Receiver for the partial [`SearchCheckpoint`]s
/// [`MctsPlacer::place_resumable`] emits; a sink error aborts the search.
///
/// The sink is called after each committed group whose count of groups
/// done is a multiple of [`SEARCH_CHECKPOINT_GROUPS`], and never
/// otherwise. The rule depends on the group count alone, so a resumed
/// search checkpoints at the same groups as an uninterrupted one, and a
/// search of fewer groups emits nothing.
pub type SearchCheckpointSink<'a> = &'a mut dyn FnMut(&SearchCheckpoint) -> Result<(), CkptError>;

/// Result of one MCTS placement run.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsOutcome {
    /// Grid cell per macro group.
    pub assignment: Vec<GridIndex>,
    /// Wirelength of the final allocation (trainer's evaluator).
    pub wirelength: f64,
    /// Reward 𝔇(W) of the final allocation.
    pub reward: f64,
    /// Search effort counters.
    pub stats: SearchStats,
}

/// Total order for committing a root edge: most visits first, ties broken
/// by higher Q then higher prior. NaN Q (impossible for visited edges, but
/// cheap to rule out) sorts below every real Q, so it can never win a tie.
pub(crate) fn commit_key_cmp(a: (u32, f64, f32), b: (u32, f64, f32)) -> std::cmp::Ordering {
    let sane = |q: f64| if q.is_nan() { f64::NEG_INFINITY } else { q };
    a.0.cmp(&b.0)
        .then_with(|| sane(a.1).total_cmp(&sane(b.1)))
        .then_with(|| a.2.total_cmp(&b.2))
}

/// The MCTS placement-optimization stage (Algorithm 1, lines 11–16).
#[derive(Debug)]
pub struct MctsPlacer {
    config: MctsConfig,
    noise: RefCell<SmallRng>,
    obs: Obs,
}

impl Default for MctsPlacer {
    fn default() -> Self {
        MctsPlacer::new(MctsConfig::default())
    }
}

impl Clone for MctsPlacer {
    fn clone(&self) -> Self {
        MctsPlacer::new(self.config.clone()).with_obs(self.obs.clone())
    }
}

impl MctsPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: MctsConfig) -> Self {
        let noise = RefCell::new(SmallRng::seed_from_u64(config.noise_seed ^ 0x0153));
        MctsPlacer {
            config,
            noise,
            obs: Obs::off(),
        }
    }

    /// Attaches an observability handle.
    ///
    /// With tracing enabled the search emits one `mcts.search`/`commit`
    /// event per committed macro group and a final `done` event; counters
    /// `mcts.groups` and `mcts.explorations` accumulate in the handle's
    /// metrics registry either way. Instrumentation only reads search
    /// state, so results are identical with or without a handle.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MctsConfig {
        &self.config
    }

    /// Runs the full search with an internal scratch context and no
    /// deadline; see [`MctsPlacer::place_with_ctx_deadline`].
    pub fn place(&self, trainer: &Trainer<'_>, agent: &Agent, scale: &RewardScale) -> MctsOutcome {
        let mut ctx = InferenceCtx::new();
        self.place_with_ctx_deadline(trainer, agent, scale, &mut ctx, None)
    }

    /// Runs the full search: γ explorations per macro group, committing the
    /// most-visited child each time, then scores the final allocation.
    ///
    /// The agent is only read (`&Agent`); all network scratch lives in
    /// `ctx`, so concurrent searches can share one agent with per-thread
    /// contexts.
    ///
    /// The deadline is checked before each exploration. Once it expires,
    /// the group being searched is committed from the best-so-far tree
    /// statistics, and any group whose search never ran is allocated with
    /// the greedy policy π_θ instead ([`SearchStats::policy_greedy_groups`]
    /// counts them, [`SearchStats::deadline_expired`] flags the run). The
    /// run always produces a complete assignment.
    pub fn place_with_ctx_deadline(
        &self,
        trainer: &Trainer<'_>,
        agent: &Agent,
        scale: &RewardScale,
        ctx: &mut InferenceCtx,
        deadline: Option<Instant>,
    ) -> MctsOutcome {
        match self.place_resumable(trainer, agent, scale, ctx, deadline, None, None) {
            Ok(out) => out,
            // No sink and no resume checkpoint means no fallible operation
            // runs; this arm is structurally unreachable.
            Err(e) => panic!("checkpoint-free search cannot fail: {e}"),
        }
    }

    /// [`MctsPlacer::place_with_ctx_deadline`] with crash-safe
    /// checkpointing.
    ///
    /// `sink` is invoked with a fresh [`SearchCheckpoint`] after every
    /// [`SEARCH_CHECKPOINT_GROUPS`]th committed macro group (groups 10,
    /// 20, …): a write costs about as much as the group of search it
    /// protects, and a lost one costs only a deterministic re-run of the
    /// groups since the last. With `resume = Some(ck)` the committed
    /// actions are replayed through a fresh environment, the search tree
    /// and noise stream are restored, and the search continues at group
    /// `ck.groups_done` — bitwise-identical to an uninterrupted run, and
    /// writing at the same groups. The deadline-degraded greedy fallback
    /// writes no checkpoints (it is already the cheapest path to
    /// completion).
    ///
    /// # Errors
    ///
    /// [`CkptError::Invalid`] when the resume checkpoint does not fit this
    /// problem (wrong group/action counts, out-of-grid actions); any error
    /// the sink returns is propagated.
    #[allow(clippy::too_many_arguments)]
    pub fn place_resumable(
        &self,
        trainer: &Trainer<'_>,
        agent: &Agent,
        scale: &RewardScale,
        ctx: &mut InferenceCtx,
        deadline: Option<Instant>,
        resume: Option<SearchCheckpoint>,
        mut sink: Option<SearchCheckpointSink<'_>>,
    ) -> Result<MctsOutcome, CkptError> {
        let mut env = PlacementEnv::new(trainer.design(), trainer.coarse(), trainer.grid().clone());
        let steps = env.episode_len();
        let cells = trainer.grid().cell_count();

        let (mut tree, mut stats, mut committed, start_group);
        match resume {
            Some(ck) => {
                if ck.actions.len() != ck.groups_done || ck.groups_done > steps {
                    return Err(CkptError::Invalid {
                        detail: format!(
                            "search checkpoint claims {} groups with {} actions for a \
                             {steps}-group problem",
                            ck.groups_done,
                            ck.actions.len()
                        ),
                    });
                }
                if let Some(&bad) = ck.actions.iter().find(|&&a| a >= cells) {
                    return Err(CkptError::Invalid {
                        detail: format!(
                            "search checkpoint action {bad} is outside the {cells}-cell grid"
                        ),
                    });
                }
                if let Err(detail) = ck.tree.check() {
                    return Err(CkptError::Invalid {
                        detail: format!("search checkpoint tree: {detail}"),
                    });
                }
                // Replay the committed prefix through a fresh environment;
                // occupancy and assignment land exactly where the
                // interrupted run left them.
                for &a in &ck.actions {
                    env.step(a);
                }
                *self.noise.borrow_mut() = SmallRng::from_state(ck.rng);
                tree = ck.tree;
                stats = ck.stats;
                start_group = ck.groups_done;
                committed = ck.actions;
            }
            None => {
                tree = SearchTree::new();
                stats = SearchStats::default();
                committed = Vec::new();
                start_group = 0;
            }
        }

        'groups: for group in start_group..steps {
            let goal = self.config.explorations.max(1);
            let mut done = 0;
            while done < goal {
                // mmp-lint: allow(wallclock) why: budget-deadline probe; expiry only degrades to the deterministic policy-greedy path
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    stats.deadline_expired = true;
                    break;
                }
                self.explore(&mut tree, &env, trainer, agent, scale, &mut stats, ctx);
                done += 1;
            }
            // Commit the most-visited edge (ties: higher Q, then prior).
            let root = tree.root();
            let best = tree.node(root).edges.as_ref().and_then(|edges| {
                edges
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| commit_key_cmp((a.n, a.q(), a.p), (b.n, b.q(), b.p)))
                    .map(|(i, e)| (i, e.action))
            });
            match best {
                Some((edge_idx, action)) => {
                    // One branch when observability is off: the commit path
                    // runs once per macro group, never per exploration.
                    if self.obs.enabled() {
                        self.obs.count("mcts.groups", 1);
                        self.obs.count("mcts.explorations", done as u64);
                        if self.obs.tracing() {
                            let visits = tree
                                .node(root)
                                .edges
                                .as_ref()
                                .and_then(|edges| edges.get(edge_idx).map(|e| e.n))
                                .unwrap_or(0);
                            self.obs.event(
                                "mcts.search",
                                "commit",
                                &[
                                    field("group", group),
                                    field("explorations", done),
                                    field("visits", u64::from(visits)),
                                ],
                            );
                        }
                    }
                    env.step(action);
                    let child = tree.child_of(root, edge_idx);
                    tree.advance_root(child);
                    committed.push(action);
                    let due = (group + 1) % SEARCH_CHECKPOINT_GROUPS == 0;
                    if let Some(sink) = sink.as_deref_mut().filter(|_| due) {
                        let ck = SearchCheckpoint {
                            groups_done: group + 1,
                            actions: committed.clone(),
                            tree: tree.clone(),
                            stats,
                            rng: self.noise.borrow().state(),
                        };
                        sink(&ck)?;
                        if self.obs.enabled() {
                            self.obs.count("ckpt.search_writes", 1);
                        }
                    }
                }
                None => {
                    // The deadline expired before this group saw a single
                    // exploration: allocate it and every remaining group
                    // with the greedy policy so the run still completes.
                    while !env.is_terminal() {
                        let s = env.state();
                        let action = agent.greedy_action(&s, ctx);
                        env.step(action);
                        stats.policy_greedy_groups += 1;
                    }
                    break 'groups;
                }
            }
        }

        // Terminal scoring goes through the trainer's evaluator; in coarse
        // mode that is the incremental `CoarseHpwlCache`-backed evaluator,
        // which re-scores only groups whose center changed since the last
        // call while staying bitwise-equal to a full recompute.
        let wirelength = trainer.wirelength_of(&env);
        stats.nodes = tree.allocated();
        if self.obs.tracing() {
            self.obs.event(
                "mcts.search",
                "done",
                &[
                    field("wirelength", wirelength),
                    field("nodes", stats.nodes),
                    field("value_evaluations", stats.value_evaluations),
                    field("nan_evaluations", stats.nan_evaluations),
                    field("deadline_expired", stats.deadline_expired),
                ],
            );
        }
        Ok(MctsOutcome {
            assignment: env.assignment().to_vec(),
            wirelength,
            reward: scale.reward(wirelength),
            stats,
        })
    }

    /// Selects a leaf by PUCT from the current root.
    fn select_leaf<'a>(
        &self,
        tree: &mut SearchTree,
        root_env: &PlacementEnv<'a>,
    ) -> (Vec<(usize, usize)>, usize, PlacementEnv<'a>) {
        let mut sim = root_env.clone();
        let mut node = tree.root();
        let mut path: Vec<(usize, usize)> = Vec::new();
        // NaN-sane total order: a non-finite PUCT score (poisoned Q or
        // prior that slipped past the expansion guard) sorts below every
        // real score instead of panicking the comparison.
        let sane = |u: f64| if u.is_nan() { f64::NEG_INFINITY } else { u };
        while !sim.is_terminal() {
            // √ΣN of Eq. 11, floored at 1 so priors break the all-zero tie
            // on a freshly expanded node.
            let sqrt_sum = (tree.visit_sum(node) as f64).sqrt().max(1.0);
            let (edge_idx, action) = {
                let Some(edges) = tree.node(node).edges.as_ref() else {
                    break;
                };
                let Some(best) = edges.iter().enumerate().max_by(|(_, a), (_, b)| {
                    let ua =
                        a.q() + self.config.c_puct * a.p as f64 * sqrt_sum / (1.0 + a.n as f64);
                    let ub =
                        b.q() + self.config.c_puct * b.p as f64 * sqrt_sum / (1.0 + b.n as f64);
                    sane(ua).total_cmp(&sane(ub))
                }) else {
                    break;
                };
                (best.0, best.1.action)
            };
            path.push((node, edge_idx));
            sim.step(action);
            node = tree.child_of(node, edge_idx);
        }
        (path, node, sim)
    }

    /// Applies one network output to a leaf: expand with (optionally
    /// noised) π_θ priors, backpropagate V_θ (Sec. IV-B3).
    ///
    /// Numerical-health guard: a prior vector containing NaN/Inf is
    /// replaced wholesale by uniform priors and a non-finite value estimate
    /// by 0, so one poisoned network evaluation degrades the search locally
    /// instead of propagating NaN through Q and PUCT.
    fn apply_evaluation(
        &self,
        tree: &mut SearchTree,
        path: &[(usize, usize)],
        node: usize,
        out: &mmp_rl::NetOutput,
        stats: &mut SearchStats,
    ) {
        let mut priors: Vec<f32> = if self.config.prior_noise > 0.0 {
            let mut rng = self.noise.borrow_mut();
            let amp = self.config.prior_noise;
            out.probs
                .iter()
                .map(|&p| p * (1.0 + amp * (rng.gen::<f32>() - 0.5)))
                .collect()
        } else {
            out.probs.clone()
        };
        if self.config.fault_nan_priors {
            priors.iter_mut().for_each(|p| *p = f32::NAN);
        }
        let mut value = out.value as f64;
        let priors_poisoned = priors.iter().any(|p| !p.is_finite());
        if priors_poisoned {
            let uniform = 1.0 / priors.len().max(1) as f32;
            priors.iter_mut().for_each(|p| *p = uniform);
        }
        if priors_poisoned || !value.is_finite() {
            stats.nan_evaluations += 1;
            if !value.is_finite() {
                value = 0.0;
            }
        }
        tree.expand(node, &priors);
        tree.backpropagate(path, value);
    }

    /// Runs one exploration from the current root: selects a leaf by
    /// PUCT, scores it and backpropagates the value. A terminal leaf runs
    /// the real pipeline once and caches the reward on the node; any other
    /// leaf takes one π_θ/V_θ evaluation, which also expands it.
    #[allow(clippy::too_many_arguments)]
    fn explore(
        &self,
        tree: &mut SearchTree,
        root_env: &PlacementEnv<'_>,
        trainer: &Trainer<'_>,
        agent: &Agent,
        scale: &RewardScale,
        stats: &mut SearchStats,
        ctx: &mut InferenceCtx,
    ) {
        let (path, node, sim) = self.select_leaf(tree, root_env);
        if sim.is_terminal() {
            let value = match tree.node(node).terminal_reward {
                Some(r) => r,
                None => {
                    stats.terminal_evaluations += 1;
                    let r = scale.reward(trainer.wirelength_of(&sim));
                    tree.node_mut(node).terminal_reward = Some(r);
                    r
                }
            };
            tree.backpropagate(&path, value);
        } else {
            let out = agent.policy_value(&sim.state(), ctx);
            self.apply_evaluation(tree, &path, node, &out, stats);
            stats.value_evaluations += 1;
        }
        stats.explorations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_netlist::SyntheticSpec;
    use mmp_rl::TrainerConfig;

    fn trained(seed: u64, episodes: usize) -> (mmp_netlist::Design, TrainerConfig) {
        let d = SyntheticSpec::small("ms", 6, 0, 8, 40, 70, false, seed).generate();
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = episodes;
        (d, cfg)
    }

    /// Groups of the checkpoint tests' search: two checkpoints, the second
    /// after the last group.
    const CKPT_GROUPS: usize = 2 * SEARCH_CHECKPOINT_GROUPS;

    /// [`trained`] with one macro per group and [`CKPT_GROUPS`] macros, so
    /// the search crosses partial-checkpoint boundaries.
    fn trained_per_macro(seed: u64, episodes: usize) -> (mmp_netlist::Design, TrainerConfig) {
        let d = SyntheticSpec::small("ms", CKPT_GROUPS, 0, 8, 40, 70, false, seed).generate();
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = episodes;
        cfg.group_macros = false;
        (d, cfg)
    }

    #[test]
    fn mcts_places_every_group() {
        let (d, cfg) = trained(1, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 6,
            ..MctsConfig::default()
        });
        let result = placer.place(&trainer, &out.agent, &out.scale);
        assert_eq!(
            result.assignment.len(),
            trainer.coarse().macro_groups().len()
        );
        assert!(result.wirelength > 0.0);
        assert!(result.stats.nodes > 1);
        assert_eq!(
            result.stats.explorations,
            6 * trainer.coarse().macro_groups().len()
        );
    }

    #[test]
    fn mcts_is_deterministic() {
        let (d, cfg) = trained(2, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 4,
            ..MctsConfig::default()
        });
        let a = placer.place(&trainer, &out.agent, &out.scale);
        let b = placer.place(&trainer, &out.agent, &out.scale);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.wirelength, b.wirelength);
    }

    #[test]
    fn value_evaluations_dominate_terminal_evaluations() {
        // The paper's runtime claim: non-terminal leaves are scored by V_θ,
        // so real placements are rare.
        let (d, cfg) = trained(3, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 8,
            ..MctsConfig::default()
        });
        let result = placer.place(&trainer, &out.agent, &out.scale);
        assert!(
            result.stats.value_evaluations >= result.stats.terminal_evaluations,
            "{:?}",
            result.stats
        );
    }

    #[test]
    fn more_explorations_never_hurt_much() {
        // Not a strict guarantee, but with the same agent a deeper search
        // should not be wildly worse; this guards sign errors in PUCT.
        let (d, cfg) = trained(4, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let shallow = MctsPlacer::new(MctsConfig {
            explorations: 2,
            ..MctsConfig::default()
        })
        .place(&trainer, &out.agent, &out.scale);
        let deep = MctsPlacer::new(MctsConfig {
            explorations: 24,
            ..MctsConfig::default()
        })
        .place(&trainer, &out.agent, &out.scale);
        assert!(
            deep.wirelength <= shallow.wirelength * 1.5,
            "deep {} vs shallow {}",
            deep.wirelength,
            shallow.wirelength
        );
    }

    #[test]
    fn mcts_beats_or_matches_greedy_rl() {
        // The Fig. 5 claim at miniature scale: MCTS post-optimization is at
        // least as good as the greedy RL rollout of the same agent.
        let (d, cfg) = trained(5, 6);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let (_, rl_w) = trainer.greedy_episode(&out.agent);
        let mcts = MctsPlacer::new(MctsConfig {
            explorations: 32,
            ..MctsConfig::default()
        })
        .place(&trainer, &out.agent, &out.scale);
        assert!(
            mcts.wirelength <= rl_w * 1.05,
            "mcts {} should not lose to greedy RL {} by >5%",
            mcts.wirelength,
            rl_w
        );
    }

    #[test]
    fn expired_deadline_degrades_to_policy_greedy_and_still_places() {
        let (d, cfg) = trained(9, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 64,
            ..MctsConfig::default()
        });
        let mut ctx = InferenceCtx::new();
        // mmp-lint: allow(wallclock) why: test constructs an already-expired deadline on purpose
        let past = Some(Instant::now());
        let result =
            placer.place_with_ctx_deadline(&trainer, &out.agent, &out.scale, &mut ctx, past);
        let groups = trainer.coarse().macro_groups().len();
        assert!(result.stats.deadline_expired);
        assert_eq!(result.stats.policy_greedy_groups, groups);
        assert_eq!(result.assignment.len(), groups);
        assert!(result.wirelength.is_finite() && result.wirelength > 0.0);
        // The degraded allocation is exactly the greedy-policy rollout.
        let (greedy, _) = trainer.greedy_episode(&out.agent);
        assert_eq!(result.assignment, greedy);
    }

    #[test]
    fn expired_deadline_run_is_deterministic() {
        let (d, cfg) = trained(10, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig::default());
        // mmp-lint: allow(wallclock) why: test constructs an already-expired deadline on purpose
        let past = Some(Instant::now());
        let mut ctx = InferenceCtx::new();
        let a = placer.place_with_ctx_deadline(&trainer, &out.agent, &out.scale, &mut ctx, past);
        let b = placer.place_with_ctx_deadline(&trainer, &out.agent, &out.scale, &mut ctx, past);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.wirelength, b.wirelength);
    }

    #[test]
    fn nan_priors_are_replaced_by_uniform_and_search_completes() {
        let (d, cfg) = trained(11, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 6,
            fault_nan_priors: true,
            ..MctsConfig::default()
        });
        let result = placer.place(&trainer, &out.agent, &out.scale);
        assert!(result.stats.nan_evaluations > 0);
        assert_eq!(
            result.assignment.len(),
            trainer.coarse().macro_groups().len()
        );
        assert!(result.wirelength.is_finite() && result.wirelength > 0.0);
    }

    #[test]
    fn no_deadline_matches_plain_search() {
        let (d, cfg) = trained(12, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 6,
            ..MctsConfig::default()
        });
        let plain = placer.place(&trainer, &out.agent, &out.scale);
        let mut ctx = InferenceCtx::new();
        let dl = placer.place_with_ctx_deadline(&trainer, &out.agent, &out.scale, &mut ctx, None);
        assert_eq!(plain.assignment, dl.assignment);
        assert!(!dl.stats.deadline_expired);
        assert_eq!(dl.stats.policy_greedy_groups, 0);
    }

    /// Runs a search from `resume` (from scratch when `None`) while
    /// recording every checkpoint it emits.
    fn search_recording(
        placer: &MctsPlacer,
        trainer: &Trainer<'_>,
        agent: &Agent,
        scale: &RewardScale,
        resume: Option<SearchCheckpoint>,
    ) -> (MctsOutcome, Vec<SearchCheckpoint>) {
        let mut ctx = InferenceCtx::new();
        let mut taken: Vec<SearchCheckpoint> = Vec::new();
        let mut sink = |ck: &SearchCheckpoint| {
            taken.push(ck.clone());
            Ok(())
        };
        let out = placer
            .place_resumable(
                trainer,
                agent,
                scale,
                &mut ctx,
                None,
                resume,
                Some(&mut sink),
            )
            .unwrap();
        (out, taken)
    }

    #[test]
    fn checkpoints_come_after_every_tenth_group_only() {
        // Six macros in at most six groups: fewer than one interval, so
        // the sink never runs.
        let (d, cfg) = trained(13, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        assert!(trainer.coarse().macro_groups().len() < SEARCH_CHECKPOINT_GROUPS);
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 6,
            ..MctsConfig::default()
        });
        let full = placer.place(&trainer, &out.agent, &out.scale);
        let (recorded, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        assert_eq!(recorded, full);
        assert!(taken.is_empty(), "{} checkpoints", taken.len());

        let (d, cfg) = trained_per_macro(13, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        assert_eq!(trainer.coarse().macro_groups().len(), CKPT_GROUPS);
        let (_, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        let at: Vec<usize> = taken.iter().map(|ck| ck.groups_done).collect();
        assert_eq!(at, [SEARCH_CHECKPOINT_GROUPS, CKPT_GROUPS]);
    }

    #[test]
    fn interrupted_search_resumes_bitwise_identically() {
        let (d, cfg) = trained_per_macro(13, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let mcts_cfg = MctsConfig {
            explorations: 6,
            ..MctsConfig::default()
        };
        let placer = MctsPlacer::new(mcts_cfg.clone());
        let full = placer.place(&trainer, &out.agent, &out.scale);
        let (recorded, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        assert_eq!(recorded.assignment, full.assignment);
        let groups = trainer.coarse().macro_groups().len();
        assert_eq!(
            taken.len(),
            groups / SEARCH_CHECKPOINT_GROUPS,
            "one checkpoint per tenth committed group"
        );
        let json = |cks: &[SearchCheckpoint]| -> Vec<String> {
            cks.iter()
                .map(|ck| serde_json::to_string(ck).unwrap())
                .collect()
        };
        // Resume from every mid-run checkpoint with a *fresh* placer (no
        // hidden state may be needed beyond the checkpoint itself). The
        // continuation writes the same later checkpoints the uninterrupted
        // search wrote.
        for (i, ck) in taken.iter().enumerate() {
            if ck.groups_done == groups {
                continue;
            }
            let (resumed, later) = search_recording(
                &MctsPlacer::new(mcts_cfg.clone()),
                &trainer,
                &out.agent,
                &out.scale,
                Some(ck.clone()),
            );
            assert_eq!(resumed.assignment, full.assignment);
            assert_eq!(resumed.wirelength, full.wirelength);
            assert_eq!(resumed.stats, full.stats);
            assert_eq!(json(&later), json(&taken[i + 1..]));
        }
    }

    #[test]
    fn search_checkpoints_hold_only_the_live_subtree() {
        let (d, cfg) = trained_per_macro(13, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 6,
            ..MctsConfig::default()
        });
        let (full, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        for ck in &taken {
            assert_eq!(ck.tree.root(), 0);
            assert_eq!(ck.tree.check(), Ok(()));
            assert!(ck.tree.len() < ck.tree.allocated());
        }
        // The last commit advances to a terminal node, which has no
        // subtree.
        let last = taken.last().unwrap();
        assert_eq!(last.tree.len(), 1);
        assert_eq!(last.tree.allocated(), full.stats.nodes);
    }

    /// `ck` as a checkpoint written before the tree dropped dead nodes: its
    /// arena holds every node the search allocated, the dead ones ahead of
    /// the live subtree, the dead parent of the root still points at it,
    /// and the tree carries no `dropped` count.
    fn with_dead_nodes(ck: &SearchCheckpoint) -> SearchCheckpoint {
        use serde::Value;
        fn entry<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
            let Value::Map(fields) = v else {
                panic!("expected a map around {key}")
            };
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
        }
        let dead = ck.tree.allocated() - ck.tree.len();
        let depth = ck.tree.node(0).depth;
        let mut v = ck.serialize();
        let tree = entry(&mut v, "tree");
        let Value::Seq(live) = std::mem::replace(entry(tree, "nodes"), Value::Null) else {
            panic!("tree nodes")
        };
        let node = |depth: usize, edges: Value| {
            Value::Map(vec![
                ("depth".to_owned(), Value::U64(depth as u64)),
                ("edges".to_owned(), edges),
                ("terminal_reward".to_owned(), Value::Null),
            ])
        };
        let mut nodes: Vec<Value> = (1..dead).map(|_| node(depth, Value::Null)).collect();
        let parent_edge = Value::Map(vec![
            (
                "action".to_owned(),
                Value::U64(*ck.actions.last().unwrap() as u64),
            ),
            ("child".to_owned(), Value::U64(dead as u64)),
            ("n".to_owned(), Value::U64(1)),
            ("p".to_owned(), Value::F64(1.0)),
            ("w".to_owned(), Value::F64(0.0)),
        ]);
        nodes.push(node(depth - 1, Value::Seq(vec![parent_edge])));
        for mut n in live {
            if let Value::Seq(edges) = entry(&mut n, "edges") {
                for e in edges {
                    if let Value::U64(c) = entry(e, "child") {
                        *c += dead as u64;
                    }
                }
            }
            nodes.push(n);
        }
        *entry(tree, "nodes") = Value::Seq(nodes);
        *entry(tree, "root") = Value::U64(dead as u64);
        let Value::Map(fields) = tree else {
            panic!("tree")
        };
        fields.retain(|(k, _)| k != "dropped");
        let old = SearchCheckpoint::deserialize(&v).unwrap();
        assert_eq!(old.tree.root(), dead);
        assert_eq!(old.tree.len(), ck.tree.allocated());
        assert_eq!(old.tree.allocated(), ck.tree.allocated());
        old
    }

    #[test]
    fn checkpoint_with_dead_nodes_resumes_bitwise_identically() {
        let (d, cfg) = trained_per_macro(13, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let mcts_cfg = MctsConfig {
            explorations: 6,
            ..MctsConfig::default()
        };
        let placer = MctsPlacer::new(mcts_cfg.clone());
        let (full, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        let groups = taken.len();
        for ck in taken.iter().take(groups.saturating_sub(1)) {
            let mut ctx = InferenceCtx::new();
            let resumed = MctsPlacer::new(mcts_cfg.clone())
                .place_resumable(
                    &trainer,
                    &out.agent,
                    &out.scale,
                    &mut ctx,
                    None,
                    Some(with_dead_nodes(ck)),
                    None,
                )
                .unwrap();
            assert_eq!(resumed.assignment, full.assignment);
            assert_eq!(resumed.wirelength.to_bits(), full.wirelength.to_bits());
            assert_eq!(resumed.stats, full.stats);
        }
    }

    #[test]
    fn noisy_interrupted_search_resumes_bitwise_identically() {
        // prior_noise > 0 exercises the RNG stream restore: the resumed
        // search must draw exactly the noise the uninterrupted one did.
        let (d, cfg) = trained_per_macro(14, 3);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let mcts_cfg = MctsConfig {
            explorations: 6,
            prior_noise: 0.4,
            noise_seed: 9,
            ..MctsConfig::default()
        };
        let placer = MctsPlacer::new(mcts_cfg.clone());
        let (full, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        // The checkpoint after group 10 of 20: half the search is left.
        let ck = taken.into_iter().next().unwrap();
        assert_eq!(ck.groups_done, SEARCH_CHECKPOINT_GROUPS);
        // Round-trip through JSON too: what the flow persists is the
        // serialized form.
        let ck: SearchCheckpoint =
            serde_json::from_str(&serde_json::to_string(&ck).unwrap()).unwrap();
        let mut ctx = InferenceCtx::new();
        let resumed = MctsPlacer::new(mcts_cfg)
            .place_resumable(
                &trainer,
                &out.agent,
                &out.scale,
                &mut ctx,
                None,
                Some(ck),
                None,
            )
            .unwrap();
        assert_eq!(resumed.assignment, full.assignment);
        assert_eq!(resumed.wirelength, full.wirelength);
        assert_eq!(resumed.stats, full.stats);
    }

    #[test]
    fn unusable_search_checkpoint_is_a_typed_error() {
        let (d, cfg) = trained_per_macro(15, 2);
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let placer = MctsPlacer::new(MctsConfig {
            explorations: 4,
            ..MctsConfig::default()
        });
        let (_, taken) = search_recording(&placer, &trainer, &out.agent, &out.scale, None);
        let mut ctx = InferenceCtx::new();

        // Action/group count mismatch.
        let mut bad = taken[0].clone();
        bad.groups_done += 1;
        let err = placer
            .place_resumable(
                &trainer,
                &out.agent,
                &out.scale,
                &mut ctx,
                None,
                Some(bad),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CkptError::Invalid { .. }), "{err}");

        // A tree whose edge points backwards.
        let mut bad = taken[0].clone();
        let root = bad.tree.root();
        if let Some(edge) = bad.tree.node_mut(root).edges.iter_mut().flatten().next() {
            edge.child = Some(root);
        }
        let err = placer
            .place_resumable(
                &trainer,
                &out.agent,
                &out.scale,
                &mut ctx,
                None,
                Some(bad),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CkptError::Invalid { .. }), "{err}");

        // Out-of-grid action.
        let mut bad = taken[0].clone();
        bad.actions[0] = trainer.grid().cell_count() + 7;
        let err = placer
            .place_resumable(
                &trainer,
                &out.agent,
                &out.scale,
                &mut ctx,
                None,
                Some(bad),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, CkptError::Invalid { .. }), "{err}");
    }

    #[test]
    fn stats_with_the_retired_batch_counters_still_parse() {
        // Reports, journals and checkpoints written while explorations
        // could batch leaves carry two more counters; unknown keys are
        // ignored.
        let stats: SearchStats = serde_json::from_str(
            r#"{"explorations":7,"value_evaluations":5,"batched_calls":5,
                "wasted_evaluations":0,"terminal_evaluations":2,"nodes":6}"#,
        )
        .unwrap();
        assert_eq!(
            stats,
            SearchStats {
                explorations: 7,
                value_evaluations: 5,
                terminal_evaluations: 2,
                nodes: 6,
                ..SearchStats::default()
            }
        );
    }

    #[test]
    fn default_config_matches_paper_constant() {
        let cfg = MctsConfig::default();
        assert_eq!(cfg.c_puct, 1.05);
    }

    #[test]
    fn commit_key_prefers_visits_then_q_then_prior() {
        use std::cmp::Ordering;
        // Visits dominate regardless of Q.
        assert_eq!(
            commit_key_cmp((3, -1.0, 0.0), (2, 5.0, 1.0)),
            Ordering::Greater
        );
        // Equal visits: Q breaks the tie.
        assert_eq!(
            commit_key_cmp((4, 0.5, 0.0), (4, 0.2, 1.0)),
            Ordering::Greater
        );
        // Equal visits and Q: prior breaks the tie.
        assert_eq!(
            commit_key_cmp((4, 0.5, 0.9), (4, 0.5, 0.1)),
            Ordering::Greater
        );
        assert_eq!(
            commit_key_cmp((4, 0.5, 0.9), (4, 0.5, 0.9)),
            Ordering::Equal
        );
    }

    #[test]
    fn commit_key_nan_q_never_wins() {
        use std::cmp::Ordering;
        // A NaN Q sorts below any real Q at equal visit counts — it must
        // not flip the ordering or poison max_by.
        assert_eq!(
            commit_key_cmp((4, f64::NAN, 1.0), (4, -10.0, 0.0)),
            Ordering::Less
        );
        assert_eq!(
            commit_key_cmp((4, -10.0, 0.0), (4, f64::NAN, 1.0)),
            Ordering::Greater
        );
        // Two NaNs fall through to the prior tiebreak, still totally
        // ordered.
        assert_eq!(
            commit_key_cmp((4, f64::NAN, 0.7), (4, f64::NAN, 0.2)),
            Ordering::Greater
        );
        // Visit counts still dominate a NaN Q.
        assert_eq!(
            commit_key_cmp((5, f64::NAN, 0.0), (4, 1.0, 1.0)),
            Ordering::Greater
        );
    }
}
