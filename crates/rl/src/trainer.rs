//! The A2C training loop (Algorithm 1, lines 3–10).
//!
//! Per episode: every macro group is placed by sampling π_θ; at the end the
//! placement is legalized, cells are placed and the wirelength is scored by
//! 𝔇 (Eq. 9); the terminal reward is copied to every step. Every
//! `update_every` (paper: 30) episodes the buffered transitions are replayed
//! through the network and one optimizer step minimises
//! L = L_policy + L_value (Eq. 8).
//!
//! The episodes between two optimizer steps form an *update window*. The
//! weights are fixed inside it and scoring draws nothing from the RNG, so
//! the trainer rolls a whole window out first, in episode order, and then
//! scores its terminal states together on the compute pool
//! ([`Trainer::with_pool`]). Results come back in episode order, so the run
//! is bitwise identical at every worker count.

use crate::agent::Agent;
use crate::env::PlacementEnv;
use crate::eval::{CoarseEvaluator, FullEvaluator, WirelengthEvaluator};
use crate::net::{AgentConfig, StateRef};
use crate::reward::{CalibrationError, RewardKind, RewardScale};
use mmp_analytic::{GlobalPlacer, GlobalPlacerConfig};
use mmp_ckpt::CkptError;
use mmp_cluster::{ClusterError, ClusterParams, CoarsenedNetlist, Coarsener};
use mmp_geom::Grid;
use mmp_netlist::{Design, Placement};
use mmp_nn::{Adam, InferenceCtx, Optimizer};
use mmp_obs::{field, Obs};
use mmp_pool::ThreadPool;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Error preparing or running pre-training.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// `config.net.zeta` differs from `config.zeta`.
    ZetaMismatch {
        /// Grid resolution of the network.
        net: usize,
        /// Grid resolution of the environment.
        env: usize,
    },
    /// Clustering/coarsening rejected the design.
    Cluster(ClusterError),
    /// Reward calibration had no usable samples.
    Calibration(CalibrationError),
    /// A checkpoint could not be written, or a resume checkpoint is not
    /// usable for this trainer (wrong network size, impossible progress).
    Checkpoint(CkptError),
    /// `update_every` is 0: no episode would ever reach an optimizer step.
    ZeroUpdateInterval,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::ZetaMismatch { net, env } => write!(
                f,
                "network grid and environment grid must agree (net ζ = {net}, env ζ = {env})"
            ),
            TrainError::Cluster(e) => write!(f, "clustering failed: {e}"),
            TrainError::Calibration(e) => write!(f, "reward calibration failed: {e}"),
            TrainError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            TrainError::ZeroUpdateInterval => {
                write!(f, "update_every must be at least 1 episode")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<ClusterError> for TrainError {
    fn from(e: ClusterError) -> Self {
        TrainError::Cluster(e)
    }
}

impl From<CalibrationError> for TrainError {
    fn from(e: CalibrationError) -> Self {
        TrainError::Calibration(e)
    }
}

impl From<CkptError> for TrainError {
    fn from(e: CkptError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// One recorded step of an episode: `(s_p, s_a, t, total, action)`.
type StepRecord = (Vec<f32>, Vec<f32>, usize, usize, usize);

/// A buffered transition: a [`StepRecord`] plus its terminal reward.
type Transition = (Vec<f32>, Vec<f32>, usize, usize, usize, f32);

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Training episodes.
    pub episodes: usize,
    /// Agent update interval in episodes (paper: 30); must be at least 1.
    pub update_every: usize,
    /// Random warm-up episodes for reward calibration (paper: 50).
    pub calibration_episodes: usize,
    /// Reward formula.
    pub reward: RewardKind,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed (the whole run is deterministic in it).
    pub seed: u64,
    /// Network size; `net.zeta` must equal `zeta`.
    pub net: AgentConfig,
    /// Grid resolution ζ (paper: 16).
    pub zeta: usize,
    /// Score episodes with the coarse proxy instead of the full
    /// legalize-and-place pipeline (fast experimentation; the paper always
    /// uses the full pipeline).
    pub coarse_eval: bool,
    /// Run the mixed-size prototyping placement before clustering (the
    /// paper's flow; disable for the fastest tests).
    pub prototype_placement: bool,
    /// Snapshot the agent every N episodes (the Fig. 5 experiment uses 35).
    pub checkpoint_every: Option<usize>,
    /// Cluster macros into groups before allocation (the paper's approach).
    /// Disabled, every macro is its own group — the per-macro formulation of
    /// CT/MaskPlace, used by the baselines and the grouping ablation.
    pub group_macros: bool,
    /// Entropy-bonus coefficient β (0 = the paper's plain A2C).
    pub entropy_beta: f32,
    /// Fault injection (test support): poison the gradients of the Nth
    /// optimizer chunk with NaN so the update-rejection guard can be
    /// exercised deterministically. `None` in production.
    #[serde(default)]
    pub fault_poison_update: Option<usize>,
}

impl TrainerConfig {
    /// The paper's settings (ζ = 16, update every 30 episodes, 50
    /// calibration episodes, full evaluation).
    pub fn paper() -> Self {
        TrainerConfig {
            episodes: 600,
            update_every: 30,
            calibration_episodes: 50,
            reward: RewardKind::default(),
            lr: 1e-3,
            seed: 0,
            net: AgentConfig::paper(),
            zeta: 16,
            coarse_eval: false,
            prototype_placement: true,
            checkpoint_every: None,
            group_macros: true,
            entropy_beta: 0.0,
            fault_poison_update: None,
        }
    }

    /// Laptop-scale settings over a ζ×ζ grid: tiny network, coarse
    /// evaluation, short schedule.
    pub fn tiny(zeta: usize) -> Self {
        TrainerConfig {
            episodes: 30,
            update_every: 5,
            calibration_episodes: 5,
            reward: RewardKind::default(),
            lr: 3e-3,
            seed: 0,
            net: AgentConfig::tiny(zeta),
            zeta,
            coarse_eval: true,
            prototype_placement: false,
            checkpoint_every: None,
            group_macros: true,
            entropy_beta: 0.0,
            fault_poison_update: None,
        }
    }
}

/// Per-episode training curves (the data behind Fig. 4).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Reward of each training episode.
    pub episode_rewards: Vec<f64>,
    /// Raw wirelength of each training episode.
    pub episode_wirelengths: Vec<f64>,
    /// Optimizer chunks rejected by the gradient-health guard (a rejected
    /// chunk contributes nothing to the step; the last-good weights are
    /// kept).
    #[serde(default)]
    pub rejected_updates: usize,
    /// `true` when the training deadline expired before every scheduled
    /// episode ran; the agent holds the last-good weights at that point.
    #[serde(default)]
    pub early_stopped: bool,
}

/// The complete mid-training state captured at an optimizer-step boundary
/// (the transition buffer is empty there, so nothing in flight is lost).
///
/// Restarting [`Trainer::train_resumable`] from a `TrainCheckpoint`
/// continues the *exact* uninterrupted run: weights, optimizer moments,
/// per-episode curves, reward calibration, agent snapshots and the RNG
/// stream position are all restored, so the continuation is
/// bitwise-identical to never having stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Fully-completed episodes; training resumes at this episode index.
    pub episodes_done: usize,
    /// Optimizer steps applied so far (the sink cadence counter).
    pub updates_done: usize,
    /// Gradient chunks processed so far (drives fault injection replay).
    pub chunk_no: usize,
    /// The training RNG's exact stream position.
    pub rng: [u64; 4],
    /// Weights as of the last optimizer step.
    pub agent: Agent,
    /// Adam moments and step count.
    pub optimizer: Adam,
    /// Per-episode curves so far.
    pub history: TrainingHistory,
    /// The reward calibration (computed once, before episode 0).
    pub scale: RewardScale,
    /// `(episode, agent)` snapshots taken so far via `checkpoint_every`.
    pub snapshots: Vec<(usize, Agent)>,
}

/// Receiver for the partial [`TrainCheckpoint`]s
/// [`Trainer::train_resumable`] emits after each optimizer step; a sink
/// error aborts training as [`TrainError::Checkpoint`].
pub type TrainCheckpointSink<'a> = &'a mut dyn FnMut(&TrainCheckpoint) -> Result<(), CkptError>;

/// Everything `train` produces.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// The trained agent.
    pub agent: Agent,
    /// Per-episode curves.
    pub history: TrainingHistory,
    /// The calibrated reward scale (shared with MCTS evaluation).
    pub scale: RewardScale,
    /// `(episode, agent-snapshot)` pairs when checkpointing was enabled.
    pub checkpoints: Vec<(usize, Agent)>,
}

enum Eval {
    Coarse(CoarseEvaluator),
    Full(Box<FullEvaluator>),
}

impl Eval {
    fn wirelength(&self, env: &PlacementEnv<'_>) -> f64 {
        match self {
            Eval::Coarse(e) => e.wirelength(env),
            Eval::Full(e) => e.wirelength(env),
        }
    }
}

/// The pre-training driver. Owns the coarsened problem; borrows the design.
pub struct Trainer<'d> {
    design: &'d Design,
    coarse: CoarsenedNetlist,
    grid: Grid,
    config: TrainerConfig,
    evaluator: Eval,
    obs: Obs,
    pool: ThreadPool,
}

impl<'d> Trainer<'d> {
    /// Prepares the problem: prototyping placement (optional), clustering,
    /// coarsening.
    ///
    /// # Panics
    ///
    /// Panics when `config.net.zeta != config.zeta`; see
    /// [`Trainer::try_new`] for the fallible variant used by the hardened
    /// flow.
    pub fn new(design: &'d Design, config: TrainerConfig) -> Self {
        match Self::try_new(design, config) {
            Ok(t) => t,
            Err(e) => panic!("network grid and environment grid must agree: {e}"),
        }
    }

    /// Fallible preparation: returns a typed [`TrainError`] instead of
    /// panicking on a ζ mismatch, a zero update interval or a clustering
    /// failure.
    ///
    /// # Errors
    ///
    /// See [`TrainError`].
    pub fn try_new(design: &'d Design, config: TrainerConfig) -> Result<Self, TrainError> {
        if config.net.zeta != config.zeta {
            return Err(TrainError::ZetaMismatch {
                net: config.net.zeta,
                env: config.zeta,
            });
        }
        if config.update_every == 0 {
            return Err(TrainError::ZeroUpdateInterval);
        }
        let grid = Grid::new(*design.region(), config.zeta);
        let initial = if config.prototype_placement {
            GlobalPlacer::new(GlobalPlacerConfig::fast()).place_mixed(design)
        } else {
            Placement::initial(design)
        };
        let mut params = ClusterParams::paper(grid.cell_area());
        if !config.group_macros {
            // Per-macro mode: an infinite threshold stops all merging.
            params.nu = f64::INFINITY;
        }
        let coarse = Coarsener::new(&params).try_coarsen(design, &initial)?;
        let evaluator = if config.coarse_eval {
            Eval::Coarse(CoarseEvaluator::new())
        } else {
            Eval::Full(Box::new(FullEvaluator::fast()))
        };
        Ok(Trainer {
            design,
            coarse,
            grid,
            config,
            evaluator,
            obs: Obs::off(),
            pool: ThreadPool::single(),
        })
    }

    /// Attaches an observability handle.
    ///
    /// With tracing enabled, training emits one `rl.train`/`episode` event
    /// per episode and an `early_stop` event when the deadline expires;
    /// counters `rl.episodes` and `rl.rejected_updates` accumulate in the
    /// handle's metrics registry either way.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Selects the deterministic executor that scores each update window's
    /// episodes, and the calibration episodes, with the full pipeline. The
    /// coarse proxy always scores inline: it costs microseconds and its
    /// cache is serial. Training is bitwise identical at any worker count.
    #[must_use]
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The design being placed.
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The coarsened netlist the trainer operates on.
    pub fn coarse(&self) -> &CoarsenedNetlist {
        &self.coarse
    }

    /// The allocation grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Scores a terminal episode with this trainer's evaluator.
    pub fn wirelength_of(&self, env: &PlacementEnv<'_>) -> f64 {
        self.evaluator.wirelength(env)
    }

    /// Scores terminal states in order. The full pipeline fans out over
    /// the pool; the coarse proxy runs inline. An episode whose scoring
    /// would start after `deadline` comes back `None`.
    fn score(&self, terminals: &[PlacementEnv<'_>], deadline: Option<Instant>) -> Vec<Option<f64>> {
        let score_one = |k: usize| {
            if expired(deadline) {
                return None;
            }
            terminals.get(k).map(|env| self.evaluator.wirelength(env))
        };
        match self.evaluator {
            Eval::Coarse(_) => (0..terminals.len()).map(score_one).collect(),
            Eval::Full(_) => self.pool.run(terminals.len(), score_one),
        }
    }

    /// The episode after the update window that `episode` belongs to
    /// (`update_every` is at least 1, checked by [`Trainer::try_new`]).
    fn window_end(&self, episode: usize) -> usize {
        let every = self.config.update_every;
        ((episode / every + 1) * every).min(self.config.episodes)
    }

    /// Runs calibration + training and returns the outcome.
    ///
    /// # Panics
    ///
    /// Panics when reward calibration fails (every sample non-finite); see
    /// [`Trainer::train_with_deadline`] for the fallible variant.
    pub fn train(&self) -> TrainingOutcome {
        match self.train_with_deadline(None) {
            Ok(out) => out,
            Err(e) => panic!("training failed: {e}"),
        }
    }

    /// Runs calibration + training, stopping early when `deadline` passes.
    ///
    /// An episode's rollout, and its scoring, start only while the deadline
    /// has not passed. When it expires, the history keeps the longest
    /// prefix of scored episodes, the agent keeps the weights of the last
    /// completed optimizer step (the unfinished window's transitions are
    /// dropped) and [`TrainingHistory::early_stopped`] is set. Optimizer
    /// chunks whose gradients come back non-finite are rejected wholesale
    /// and counted in [`TrainingHistory::rejected_updates`]. Calibration
    /// ignores the deadline.
    ///
    /// # Errors
    ///
    /// See [`TrainError`].
    pub fn train_with_deadline(
        &self,
        deadline: Option<Instant>,
    ) -> Result<TrainingOutcome, TrainError> {
        self.train_resumable(deadline, None, None)
    }

    /// [`Trainer::train_with_deadline`] with crash-safe checkpointing.
    ///
    /// With `resume = Some(ck)` calibration is skipped (the checkpoint
    /// carries the calibrated scale and an RNG stream already past it) and
    /// training continues from `ck.episodes_done`; the continuation is
    /// bitwise-identical to an uninterrupted run. `sink` is invoked with a
    /// fresh [`TrainCheckpoint`] after every `checkpoint_every`-th
    /// optimizer step (every step when unset); a sink failure aborts
    /// training with [`TrainError::Checkpoint`] — losing checkpoint
    /// durability silently would defeat the point.
    ///
    /// # Errors
    ///
    /// See [`TrainError`]; a resume checkpoint whose network size differs
    /// from this trainer's, or whose progress exceeds the configured
    /// episode count, is rejected as [`TrainError::Checkpoint`].
    pub fn train_resumable(
        &self,
        deadline: Option<Instant>,
        resume: Option<TrainCheckpoint>,
        mut sink: Option<TrainCheckpointSink<'_>>,
    ) -> Result<TrainingOutcome, TrainError> {
        let start = PlacementEnv::new(self.design, &self.coarse, self.grid.clone());
        let mut ctx = InferenceCtx::new();
        let (mut rng, scale, mut agent, mut opt, mut history, mut checkpoints);
        let (mut chunk_no, mut updates_done, start_episode);
        match resume {
            Some(ck) => {
                if *ck.agent.config() != self.config.net {
                    return Err(TrainError::Checkpoint(CkptError::Invalid {
                        detail: format!(
                            "resume checkpoint was trained with a different network \
                             ({:?} vs {:?})",
                            ck.agent.config(),
                            self.config.net
                        ),
                    }));
                }
                if ck.episodes_done > self.config.episodes {
                    return Err(TrainError::Checkpoint(CkptError::Invalid {
                        detail: format!(
                            "resume checkpoint has {} episodes done but only {} are configured",
                            ck.episodes_done, self.config.episodes
                        ),
                    }));
                }
                // The snapshot was taken *after* calibration, so the restored
                // stream position already accounts for the warm-up draws.
                rng = SmallRng::from_state(ck.rng);
                scale = ck.scale;
                agent = ck.agent;
                opt = ck.optimizer;
                history = ck.history;
                checkpoints = ck.snapshots;
                chunk_no = ck.chunk_no;
                updates_done = ck.updates_done;
                start_episode = ck.episodes_done;
            }
            None => {
                rng = SmallRng::seed_from_u64(self.config.seed ^ 0x7e41);
                // 1) Random warm-up → reward calibration (Sec. III-E): roll
                // every warm-up episode out, then score them together.
                let warmups: Vec<PlacementEnv<'_>> = (0..self.config.calibration_episodes.max(1))
                    .map(|_| random_rollout(&start, &mut rng))
                    .collect();
                let samples: Vec<f64> = self.score(&warmups, None).into_iter().flatten().collect();
                scale = RewardScale::try_calibrate(self.config.reward, &samples)?;
                agent = Agent::new(self.config.net);
                opt = Adam::new(self.config.lr);
                history = TrainingHistory::default();
                checkpoints = Vec::new();
                chunk_no = 0;
                updates_done = 0;
                start_episode = 0;
            }
        }

        // 2) A2C training, one update window at a time.
        let mut episode = start_episode;
        while episode < self.config.episodes {
            let end = self.window_end(episode);
            let mut terminals: Vec<PlacementEnv<'_>> = Vec::new();
            let mut window_steps: Vec<Vec<StepRecord>> = Vec::new();
            for _ in episode..end {
                if expired(deadline) {
                    break;
                }
                let (env, steps) = rollout(&start, &agent, &mut rng, &mut ctx);
                terminals.push(env);
                window_steps.push(steps);
            }
            let mut buffer: Vec<Transition> = Vec::new();
            let scores = self.score(&terminals, deadline);
            for (w, steps) in scores.into_iter().map_while(|w| w).zip(window_steps) {
                let r = scale.reward(w);
                history.episode_wirelengths.push(w);
                history.episode_rewards.push(r);
                // One branch when observability is off: no formatting, no lock.
                if self.obs.enabled() {
                    self.obs.count("rl.episodes", 1);
                    if self.obs.tracing() {
                        self.obs.event(
                            "rl.train",
                            "episode",
                            &[
                                field("episode", episode),
                                field("wirelength", w),
                                field("reward", r),
                            ],
                        );
                    }
                }
                // The terminal reward is the reward of every step (Sec. III-E).
                for (s_p, s_a, t, total, action) in steps {
                    buffer.push((s_p, s_a, t, total, action, r as f32));
                }
                episode += 1;
                // The window's last snapshot waits for its optimizer step.
                if episode < end {
                    self.snapshot(&mut checkpoints, episode, &agent);
                }
            }
            if episode < end {
                history.early_stopped = true;
                if self.obs.tracing() {
                    self.obs
                        .event("rl.train", "early_stop", &[field("episode", episode)]);
                }
                break;
            }
            self.optimizer_step(
                &mut agent,
                &mut opt,
                &buffer,
                &mut chunk_no,
                &mut history,
                end - 1,
            );
            self.snapshot(&mut checkpoints, end, &agent);
            updates_done += 1;
            if let Some(sink) = sink.as_deref_mut() {
                // Only optimizer-step boundaries are safe snapshot points:
                // the transition buffer is empty, so the checkpoint is the
                // whole training state.
                let k = self.config.checkpoint_every.unwrap_or(1).max(1);
                if updates_done % k == 0 {
                    let ck = TrainCheckpoint {
                        episodes_done: end,
                        updates_done,
                        chunk_no,
                        rng: rng.state(),
                        agent: agent.clone(),
                        optimizer: opt.clone(),
                        history: history.clone(),
                        scale: scale.clone(),
                        snapshots: checkpoints.clone(),
                    };
                    sink(&ck)?;
                    if self.obs.enabled() {
                        self.obs.count("ckpt.train_writes", 1);
                    }
                }
            }
        }

        Ok(TrainingOutcome {
            agent,
            history,
            scale,
            checkpoints,
        })
    }

    /// Records `(episodes_done, agent)` when `checkpoint_every` asks for it.
    fn snapshot(&self, checkpoints: &mut Vec<(usize, Agent)>, episodes_done: usize, agent: &Agent) {
        if let Some(k) = self.config.checkpoint_every {
            if episodes_done.is_multiple_of(k) {
                checkpoints.push((episodes_done, agent.clone()));
            }
        }
    }

    /// One optimizer step over a full window's transitions.
    ///
    /// One batched forward/backward per chunk instead of a per-transition
    /// loop; gradients accumulate across chunks into the single step.
    /// Chunking bounds the activation memory of a whole 30-episode buffer.
    fn optimizer_step(
        &self,
        agent: &mut Agent,
        opt: &mut Adam,
        buffer: &[Transition],
        chunk_no: &mut usize,
        history: &mut TrainingHistory,
        episode: usize,
    ) {
        const MAX_UPDATE_BATCH: usize = 64;
        let net = agent.net_mut();
        let beta = self.config.entropy_beta;
        for chunk in buffer.chunks(MAX_UPDATE_BATCH) {
            let states: Vec<StateRef<'_>> = chunk
                .iter()
                .map(|(s_p, s_a, t, total, _, _)| StateRef {
                    s_p,
                    s_a,
                    t: *t,
                    total: *total,
                })
                .collect();
            let targets: Vec<(usize, f32)> = chunk
                .iter()
                .map(|&(_, _, _, _, action, reward)| (action, reward))
                .collect();
            // Gradient-health guard: snapshot the accumulated gradients,
            // run the chunk, and roll back wholesale if any gradient came
            // back NaN/Inf so one poisoned chunk cannot corrupt the whole
            // optimizer step.
            let mut grad_snapshot: Vec<Vec<f32>> = Vec::new();
            net.visit_params(&mut |p| grad_snapshot.push(p.grad.as_slice().to_vec()));
            let _ = net.forward_train_batch(&states);
            net.backward_batch(&targets, beta);
            if self.config.fault_poison_update == Some(*chunk_no) {
                let mut done = false;
                net.visit_params(&mut |p| {
                    if !done {
                        if let Some(g) = p.grad.as_mut_slice().first_mut() {
                            *g = f32::NAN;
                            done = true;
                        }
                    }
                });
            }
            let mut healthy = true;
            net.visit_params(&mut |p| healthy &= p.grad.is_finite());
            if !healthy {
                let mut i = 0usize;
                net.visit_params(&mut |p| {
                    if let Some(saved) = grad_snapshot.get(i) {
                        p.grad.as_mut_slice().copy_from_slice(saved);
                    }
                    i += 1;
                });
                history.rejected_updates += 1;
                if self.obs.enabled() {
                    self.obs.count("rl.rejected_updates", 1);
                    if self.obs.tracing() {
                        self.obs.event(
                            "rl.train",
                            "rejected_update",
                            &[field("episode", episode), field("chunk", *chunk_no)],
                        );
                    }
                }
            }
            *chunk_no += 1;
        }
        opt.begin_step();
        net.visit_params(&mut |p| opt.update(p));
        net.zero_grad();
    }

    /// Plays one greedy episode with `agent`; returns the grid assignment
    /// and its wirelength (the "RL result" curve of Fig. 5).
    pub fn greedy_episode(&self, agent: &Agent) -> (Vec<mmp_geom::GridIndex>, f64) {
        let mut env = PlacementEnv::new(self.design, &self.coarse, self.grid.clone());
        let mut ctx = InferenceCtx::new();
        while !env.is_terminal() {
            let s = env.state();
            let action = agent.greedy_action(&s, &mut ctx);
            env.step(action);
        }
        let w = self.evaluator.wirelength(&env);
        (env.assignment().to_vec(), w)
    }
}

/// `true` once `deadline` has passed.
fn expired(deadline: Option<Instant>) -> bool {
    // mmp-lint: allow(wallclock) why: budget-deadline probe; expiry only early-stops onto last-good weights
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Plays one episode from `start`, sampling π_θ; returns the terminal
/// state and the recorded steps.
fn rollout<'d>(
    start: &PlacementEnv<'d>,
    agent: &Agent,
    rng: &mut SmallRng,
    ctx: &mut InferenceCtx,
) -> (PlacementEnv<'d>, Vec<StepRecord>) {
    let mut env = start.clone();
    let mut steps = Vec::new();
    while !env.is_terminal() {
        let s = env.state();
        let action = agent.sample_action(&s, rng, ctx);
        steps.push((s.s_p, s.s_a, s.t, s.total, action));
        env.step(action);
    }
    (env, steps)
}

/// Plays one episode from `start` with uniformly-random
/// (availability-weighted) actions; returns the terminal state.
fn random_rollout<'d>(start: &PlacementEnv<'d>, rng: &mut SmallRng) -> PlacementEnv<'d> {
    let mut env = start.clone();
    while !env.is_terminal() {
        let s = env.state();
        let action =
            crate::agent::sample_from(&s.s_a, rng).unwrap_or_else(|| (s.t * 31 + 7) % s.s_a.len());
        env.step(action);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_netlist::SyntheticSpec;

    fn design(seed: u64) -> Design {
        SyntheticSpec::small("tr", 6, 0, 8, 40, 70, false, seed).generate()
    }

    #[test]
    fn training_runs_and_records_history() {
        let d = design(1);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 6;
        cfg.update_every = 3;
        let out = Trainer::new(&d, cfg).train();
        assert_eq!(out.history.episode_rewards.len(), 6);
        assert_eq!(out.history.episode_wirelengths.len(), 6);
        assert!(out.history.episode_wirelengths.iter().all(|w| *w > 0.0));
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let d = design(2);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 4;
        let a = Trainer::new(&d, cfg.clone()).train();
        let b = Trainer::new(&d, cfg).train();
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn checkpoints_are_taken() {
        let d = design(3);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 6;
        cfg.checkpoint_every = Some(2);
        let out = Trainer::new(&d, cfg).train();
        let eps: Vec<usize> = out.checkpoints.iter().map(|(e, _)| *e).collect();
        assert_eq!(eps, vec![2, 4, 6]);
    }

    #[test]
    fn greedy_episode_scores() {
        let d = design(4);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 3;
        let trainer = Trainer::new(&d, cfg);
        let out = trainer.train();
        let (assignment, w) = trainer.greedy_episode(&out.agent);
        assert_eq!(assignment.len(), trainer.coarse().macro_groups().len());
        assert!(w > 0.0);
    }

    #[test]
    fn paper_reward_episodes_are_positive_on_average() {
        // The design intent of Eq. 9: average reward sits slightly above 0.
        let d = design(5);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 10;
        cfg.calibration_episodes = 8;
        let out = Trainer::new(&d, cfg).train();
        let avg: f64 = out.history.episode_rewards.iter().sum::<f64>()
            / out.history.episode_rewards.len() as f64;
        assert!(avg > -0.5, "average reward {avg} far below zero");
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn zeta_mismatch_panics() {
        let d = design(6);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.zeta = 8; // net still 4
        let _ = Trainer::new(&d, cfg);
    }

    #[test]
    fn try_new_reports_zeta_mismatch() {
        let d = design(6);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.zeta = 8; // net still 4
        let err = Trainer::try_new(&d, cfg).err().unwrap();
        assert_eq!(err, TrainError::ZetaMismatch { net: 4, env: 8 });
    }

    #[test]
    fn expired_deadline_stops_training_before_any_episode() {
        let d = design(8);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 50;
        let trainer = Trainer::new(&d, cfg);
        // mmp-lint: allow(wallclock) why: test constructs an already-expired deadline on purpose
        let out = trainer.train_with_deadline(Some(Instant::now())).unwrap();
        assert!(out.history.early_stopped);
        assert!(out.history.episode_rewards.is_empty());
        // The untrained agent is still usable for greedy allocation.
        let (assignment, w) = trainer.greedy_episode(&out.agent);
        assert_eq!(assignment.len(), trainer.coarse().macro_groups().len());
        assert!(w > 0.0);
    }

    #[test]
    fn poisoned_gradient_chunk_is_rejected_and_training_survives() {
        let d = design(9);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 6;
        cfg.update_every = 3;
        cfg.fault_poison_update = Some(0);
        let out = Trainer::new(&d, cfg).train();
        assert!(out.history.rejected_updates >= 1);
        assert_eq!(out.history.episode_rewards.len(), 6);
        // Weights stayed finite: a greedy episode still scores.
        let mut net = out.agent.clone();
        let mut finite = true;
        net.net_mut()
            .visit_params(&mut |p| finite &= p.value.is_finite());
        assert!(finite, "weights were corrupted by a rejected chunk");
    }

    #[test]
    fn rejected_chunks_do_not_change_weights_relative_to_clean_skip() {
        // A fully-poisoned first update must leave the run deterministic:
        // two identical poisoned runs agree bit-for-bit.
        let d = design(10);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 4;
        cfg.update_every = 2;
        cfg.fault_poison_update = Some(0);
        let a = Trainer::new(&d, cfg.clone()).train();
        let b = Trainer::new(&d, cfg).train();
        assert_eq!(a.history, b.history);
        assert!(a.history.rejected_updates >= 1);
    }

    /// Runs training with a sink that records every checkpoint.
    fn train_recording(trainer: &Trainer<'_>) -> (TrainingOutcome, Vec<TrainCheckpoint>) {
        let mut taken: Vec<TrainCheckpoint> = Vec::new();
        let mut sink = |ck: &TrainCheckpoint| {
            taken.push(ck.clone());
            Ok(())
        };
        let out = trainer
            .train_resumable(None, None, Some(&mut sink))
            .unwrap();
        (out, taken)
    }

    #[test]
    fn resumed_training_is_bitwise_identical() {
        let d = design(11);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 6;
        cfg.update_every = 2;
        let trainer = Trainer::new(&d, cfg);
        let (full, taken) = train_recording(&trainer);
        assert_eq!(taken.len(), 3, "one checkpoint per optimizer step");
        // Resume from every intermediate checkpoint: each continuation must
        // land on the identical history and identical weights.
        for ck in taken.into_iter().take(2) {
            let resumed = trainer.train_resumable(None, Some(ck), None).unwrap();
            assert_eq!(resumed.history, full.history);
            assert_eq!(
                serde_json::to_string(&resumed.agent).unwrap(),
                serde_json::to_string(&full.agent).unwrap(),
                "weights diverged after resume"
            );
        }
    }

    #[test]
    fn checkpoint_survives_serde_and_still_resumes_identically() {
        let d = design(12);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 4;
        cfg.update_every = 2;
        cfg.checkpoint_every = Some(2);
        let trainer = Trainer::new(&d, cfg);
        let (full, taken) = train_recording(&trainer);
        let json = serde_json::to_string(&taken[0]).unwrap();
        let reloaded: TrainCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(reloaded.episodes_done, taken[0].episodes_done);
        assert_eq!(reloaded.rng, taken[0].rng);
        let resumed = trainer.train_resumable(None, Some(reloaded), None).unwrap();
        assert_eq!(resumed.history, full.history);
        assert_eq!(
            serde_json::to_string(&resumed.agent).unwrap(),
            serde_json::to_string(&full.agent).unwrap()
        );
        // Agent snapshots survive the round trip too.
        let eps: Vec<usize> = resumed.checkpoints.iter().map(|(e, _)| *e).collect();
        assert_eq!(eps, vec![2, 4]);
    }

    #[test]
    fn mismatched_resume_checkpoint_is_rejected() {
        let d = design(13);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 4;
        cfg.update_every = 2;
        let trainer = Trainer::new(&d, cfg.clone());
        let (_, taken) = train_recording(&trainer);

        // Wrong network size.
        let mut wrong_net = taken[0].clone();
        wrong_net.agent = Agent::new(AgentConfig::tiny(8));
        let err = trainer
            .train_resumable(None, Some(wrong_net), None)
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::Checkpoint(mmp_ckpt::CkptError::Invalid { .. })
        ));

        // Impossible progress.
        let mut too_far = taken[0].clone();
        too_far.episodes_done = 99;
        let err = trainer
            .train_resumable(None, Some(too_far), None)
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::Checkpoint(mmp_ckpt::CkptError::Invalid { .. })
        ));
    }

    #[test]
    fn sink_failure_aborts_training_with_typed_error() {
        let d = design(14);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 4;
        cfg.update_every = 2;
        let trainer = Trainer::new(&d, cfg);
        let mut sink = |_: &TrainCheckpoint| {
            Err(CkptError::Io {
                path: "/nonexistent/ck".into(),
                detail: "disk gone".into(),
            })
        };
        let err = trainer
            .train_resumable(None, None, Some(&mut sink))
            .unwrap_err();
        assert!(matches!(err, TrainError::Checkpoint(CkptError::Io { .. })));
    }

    #[test]
    fn zero_update_interval_is_a_typed_error() {
        let d = design(15);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.update_every = 0;
        let err = Trainer::try_new(&d, cfg).err().unwrap();
        assert_eq!(err, TrainError::ZeroUpdateInterval);
        assert!(err.to_string().contains("update_every"));
    }

    /// Full evaluation, so scoring goes through the pool, and an update
    /// interval that does not divide the episode count, so the last
    /// window is short.
    fn pooled_trainer(d: &Design, workers: usize) -> Trainer<'_> {
        let mut cfg = TrainerConfig::tiny(4);
        cfg.coarse_eval = false;
        cfg.episodes = 7;
        cfg.update_every = 3;
        cfg.calibration_episodes = 3;
        Trainer::new(d, cfg).with_pool(ThreadPool::try_new(workers).unwrap())
    }

    fn agent_json(agent: &Agent) -> String {
        serde_json::to_string(agent).unwrap()
    }

    #[test]
    fn pooled_scoring_is_bitwise_invariant_in_worker_count() {
        let d = design(16);
        let (base, base_cks) = train_recording(&pooled_trainer(&d, 1));
        assert_eq!(base.history.episode_rewards.len(), 7);
        assert_eq!(base_cks.len(), 3, "windows of 3, 3 and 1 episodes");
        for workers in [2, 4] {
            let (out, cks) = train_recording(&pooled_trainer(&d, workers));
            assert_eq!(out.history, base.history, "history at {workers} workers");
            assert_eq!(out.scale, base.scale, "calibration at {workers} workers");
            assert_eq!(agent_json(&out.agent), agent_json(&base.agent));
            let got: Vec<String> = cks
                .iter()
                .map(|c| serde_json::to_string(c).unwrap())
                .collect();
            let want: Vec<String> = base_cks
                .iter()
                .map(|c| serde_json::to_string(c).unwrap())
                .collect();
            assert_eq!(got, want, "checkpoints at {workers} workers");
        }
    }

    #[test]
    fn resuming_a_pooled_run_lands_on_the_inline_run() {
        let d = design(17);
        let (inline, _) = train_recording(&pooled_trainer(&d, 1));
        let pooled = pooled_trainer(&d, 2);
        let (_, taken) = train_recording(&pooled);
        assert_eq!(taken.len(), 3);
        for ck in taken {
            let done = ck.episodes_done;
            let resumed = pooled.train_resumable(None, Some(ck), None).unwrap();
            assert_eq!(resumed.history, inline.history, "resumed at episode {done}");
            assert_eq!(agent_json(&resumed.agent), agent_json(&inline.agent));
        }
    }

    #[test]
    fn expired_deadline_stops_a_pooled_run_like_an_inline_one() {
        let d = design(18);
        for workers in [1, 2] {
            let trainer = pooled_trainer(&d, workers);
            // mmp-lint: allow(wallclock) why: test constructs an already-expired deadline on purpose
            let out = trainer.train_with_deadline(Some(Instant::now())).unwrap();
            assert!(out.history.early_stopped, "{workers} workers");
            assert!(out.history.episode_rewards.is_empty(), "{workers} workers");
            assert_eq!(
                agent_json(&out.agent),
                agent_json(&Agent::new(AgentConfig::tiny(4)))
            );
        }
    }

    #[test]
    fn full_eval_training_runs() {
        let d = design(7);
        let mut cfg = TrainerConfig::tiny(4);
        cfg.episodes = 2;
        cfg.calibration_episodes = 2;
        cfg.coarse_eval = false;
        let out = Trainer::new(&d, cfg).train();
        assert_eq!(out.history.episode_rewards.len(), 2);
    }
}
