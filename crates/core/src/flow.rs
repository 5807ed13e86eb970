//! Algorithm 1: preprocess → pre-train → MCTS → legalize → place cells.
//!
//! The flow is *hardened*: every stage propagates typed errors
//! ([`PlaceError`]), honours the wall-clock allowances of a
//! [`RunBudget`], and records every graceful-degradation event in the
//! result's [`DegradationReport`].

use crate::budget::{self, RunBudget};
use crate::checkpoint::{
    fingerprint, CheckpointPlan, CheckpointSummary, CkptCtx, CrashPoint, CrashStage,
    SearchDoneCkpt, TrainDoneCkpt, SEARCH_DONE, SEARCH_PARTIAL, TRAIN_DONE, TRAIN_PARTIAL,
};
use crate::degrade::{DegradationReport, Stage};
use crate::error::{FinalPlaceError, PlaceError, PreprocessError, SearchError};
use mmp_analytic::{GlobalPlacer, GlobalPlacerConfig};
use mmp_geom::GridIndex;
use mmp_legal::{MacroLegalizer, SwapRefineConfig, SwapRefiner};
use mmp_mcts::{
    place_ensemble_with_deadline, EnsembleConfig, MctsConfig, MctsOutcome, MctsPlacer, SearchStats,
};
use mmp_netlist::{Design, Placement};
use mmp_obs::{field, Obs};
use mmp_rl::{
    Agent, InferenceCtx, TrainCheckpoint, Trainer, TrainerConfig, TrainingHistory, TrainingOutcome,
};
use mmp_vfs::Vfs;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Full-flow configuration. `fast(ζ)` gives laptop-scale settings used by
/// tests; `paper()` the published ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacerConfig {
    /// RL pre-training settings (grid ζ, network, episodes, reward).
    pub trainer: TrainerConfig,
    /// MCTS settings (c, γ explorations).
    pub mcts: MctsConfig,
    /// Independent parallel MCTS runs (1 = the paper's single search;
    /// more runs diversify priors per worker and keep the best result).
    pub ensemble_runs: usize,
    /// Worker count of the deterministic compute pool shared by the
    /// scoring of training rollouts, batched inference, the ensemble
    /// fan-out, the CG solver and the density spreader. Always explicit —
    /// never derived from the machine — and bitwise-neutral: any value
    /// produces the same placement. `1` (the default) runs everything
    /// inline, and so does any pooled call whose work falls below that
    /// kernel's measured spawn break-even.
    #[serde(default = "default_workers")]
    pub workers: usize,
    /// Final cell-placement effort.
    pub final_placer: GlobalPlacerConfig,
    /// Wall-clock allowances; exceeded stages degrade gracefully (see
    /// [`RunBudget`]). Unlimited by default.
    #[serde(default)]
    pub budget: RunBudget,
    /// Optional post-MCTS swap/relocate refinement over the committed
    /// placement, driven by the incremental HPWL evaluator. `None` (the
    /// default) skips the stage.
    #[serde(default)]
    pub refine: Option<SwapRefineConfig>,
    /// Fault-injection knob: forces the legalizer onto its row-greedy
    /// fallback path (test harness only; `false` in production).
    #[serde(default)]
    pub fault_sp_failure: bool,
    /// Fault-injection knob: makes the given ensemble worker panic, to
    /// exercise the surviving-quorum path (test harness only; `None` in
    /// production).
    #[serde(default)]
    pub fault_ensemble_panic: Option<usize>,
    /// Fault-injection knob: simulates a process kill right after the
    /// n-th checkpoint write of a stage (test harness only; `None` in
    /// production). Only meaningful on checkpointed runs.
    #[serde(default)]
    pub fault_crash: Option<CrashPoint>,
    /// Fault-injection knob: poisons the compute pool handed to the MCTS
    /// ensemble stage so the given worker panics outside per-run
    /// supervision (test harness only; `None` in production).
    #[serde(default)]
    pub fault_pool_panic: Option<usize>,
}

/// Serde default for [`PlacerConfig::workers`]: inline single-worker pool.
fn default_workers() -> usize {
    1
}

impl PlacerConfig {
    /// The paper's configuration: ζ = 16, Table I network, c = 1.05.
    pub fn paper() -> Self {
        PlacerConfig {
            trainer: TrainerConfig::paper(),
            mcts: MctsConfig::default(),
            ensemble_runs: 1,
            workers: 1,
            final_placer: GlobalPlacerConfig::quality(),
            budget: RunBudget::default(),
            refine: None,
            fault_sp_failure: false,
            fault_ensemble_panic: None,
            fault_crash: None,
            fault_pool_panic: None,
        }
    }

    /// Laptop-scale configuration over a ζ×ζ grid: tiny network, short
    /// training, shallow search, fast final placement.
    pub fn fast(zeta: usize) -> Self {
        let mut trainer = TrainerConfig::tiny(zeta);
        // The coarse reward is only informative when cell groups carry real
        // positions, so the prototyping placement stays on even at laptop
        // scale.
        trainer.prototype_placement = true;
        PlacerConfig {
            trainer,
            mcts: MctsConfig {
                explorations: 16,
                ..MctsConfig::default()
            },
            ensemble_runs: 1,
            workers: 1,
            final_placer: GlobalPlacerConfig::fast(),
            budget: RunBudget::default(),
            refine: None,
            fault_sp_failure: false,
            fault_ensemble_panic: None,
            fault_crash: None,
            fault_pool_panic: None,
        }
    }

    /// The benchmark-harness configuration: the paper's flow (full
    /// legalize-and-place reward, prototyping placement) at a budget that
    /// runs in seconds per scaled circuit and reproduces the paper's
    /// quality ordering against the baselines.
    pub fn bench(zeta: usize) -> Self {
        let mut cfg = PlacerConfig::fast(zeta);
        cfg.trainer.coarse_eval = false;
        cfg.trainer.episodes = 400;
        cfg.trainer.update_every = 10;
        cfg.trainer.calibration_episodes = 20;
        cfg.mcts.explorations = 500;
        cfg
    }
}

/// Wall-clock spent per stage (Table IV reports the MCTS stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Preprocessing: prototyping placement + clustering.
    pub preprocess: Duration,
    /// RL pre-training.
    pub training: Duration,
    /// MCTS placement optimization.
    pub mcts: Duration,
    /// Legalization + final cell placement.
    pub finalize: Duration,
    /// Optional post-MCTS swap refinement (zero when the stage is off).
    pub refine: Duration,
    /// End-to-end wall-clock of [`MacroPlacer::place`]; at least the sum
    /// of the stage fields (the difference is inter-stage overhead).
    pub total: Duration,
}

impl StageTimings {
    /// Sum of the per-stage durations (excludes inter-stage overhead, so
    /// `stage_sum() <= total`).
    pub fn stage_sum(&self) -> Duration {
        self.preprocess + self.training + self.mcts + self.finalize + self.refine
    }
}

/// What the optional swap-refinement stage did (present in a
/// [`PlacementResult`] only when [`PlacerConfig::refine`] was set).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefineSummary {
    /// Full-netlist HPWL of the committed placement entering the stage.
    pub hpwl_before: f64,
    /// Full-netlist HPWL after refinement (`<= hpwl_before`: only strict
    /// improvements are committed).
    pub hpwl_after: f64,
    /// Proposals drawn from the seeded stream.
    pub proposed: usize,
    /// Proposals accepted (strict HPWL improvements).
    pub accepted: usize,
    /// Accepted pair-swaps.
    pub swaps: usize,
    /// Accepted single-macro relocations.
    pub relocations: usize,
}

/// Everything the flow returns.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// The final legal mixed-size placement.
    pub placement: Placement,
    /// Its full-netlist HPWL (the metric of Tables II/III).
    pub hpwl: f64,
    /// The MCTS grid assignment per macro group.
    pub assignment: Vec<GridIndex>,
    /// RL training curves (Fig. 4 data).
    pub training: TrainingHistory,
    /// MCTS search-effort counters.
    pub mcts_stats: SearchStats,
    /// Per-stage wall-clock (Table IV data).
    pub timings: StageTimings,
    /// The trained agent (reusable for further searches).
    pub agent: Agent,
    /// Every graceful-degradation event the run took (empty on the
    /// full-quality path).
    pub degradation: DegradationReport,
    /// What checkpointing did (disabled/default on plain runs).
    pub checkpoint: CheckpointSummary,
    /// What the optional swap-refinement stage did (`None` when off).
    pub refine: Option<RefineSummary>,
}

/// The end-to-end placer (Algorithm 1).
#[derive(Debug, Clone)]
pub struct MacroPlacer {
    config: PlacerConfig,
    obs: Obs,
    checkpoints: Option<CheckpointPlan>,
    vfs: Vfs,
}

impl MacroPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        MacroPlacer {
            config,
            obs: Obs::off(),
            checkpoints: None,
            vfs: Vfs::real(),
        }
    }

    /// Attaches a checkpoint plan: the flow persists stage progress into
    /// the plan's directory and, when the plan resumes, continues from
    /// whatever checkpoints the directory holds. Checkpoint writes never
    /// change the computed placement — a checkpointed run is bitwise
    /// identical to a plain one, and an interrupted-then-resumed run is
    /// bitwise identical to an uninterrupted one.
    #[must_use]
    pub fn with_checkpoints(mut self, plan: CheckpointPlan) -> Self {
        self.checkpoints = Some(plan);
        self
    }

    /// Attaches an observability handle, propagated to every stage
    /// (trainer, search, legalizer, final placer).
    ///
    /// Instrumentation only reads flow state — placements are bitwise
    /// identical with or without a handle.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a filesystem handle, threaded through every checkpoint
    /// read and write. The default is the zero-overhead real backend;
    /// the disk-fault torture harness passes `mmp_vfs::Vfs::with_plan`
    /// handles to fail a chosen write boundary deterministically. Like
    /// the crash knob, this is a dev/test facility — it is not part of
    /// the serialized configuration and never affects the checkpoint
    /// fingerprint.
    #[must_use]
    pub fn with_vfs(mut self, vfs: Vfs) -> Self {
        self.vfs = vfs;
        self
    }

    /// The observability handle (an [`Obs::off`] handle by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The active configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// Runs the full flow on `design`.
    ///
    /// Designs without movable macros (the `ibm05` case) skip the RL and
    /// MCTS stages and go straight to cell placement.
    ///
    /// When the config carries a [`RunBudget`], stages degrade gracefully
    /// as deadlines pass — training keeps its last-good weights, search
    /// falls back to policy-greedy allocation, legalization to row-greedy
    /// packing — and every fallback is recorded in the result's
    /// [`DegradationReport`]. A budgeted run therefore still returns
    /// `Ok` with a complete placement.
    ///
    /// # Errors
    ///
    /// A [`PlaceError`] naming the failed stage and its cause — e.g.
    /// [`PreprocessError::MacrosExceedRegion`] when the instance is
    /// trivially infeasible, or [`SearchError::NoRuns`] when
    /// `ensemble_runs` is 0.
    pub fn place(&self, design: &Design) -> Result<PlacementResult, PlaceError> {
        let start = budget::now();
        let run_deadline = self.config.budget.total.map(|d| start + d);
        let mut degradation = DegradationReport::default();

        // Stage 1: preprocessing — feasibility, then prototyping
        // placement + grouping + coarsening (inside Trainer::try_new).
        let macro_area = design.total_macro_area();
        let region_area = design.region().area();
        if macro_area > region_area {
            return Err(PlaceError::Preprocess(
                PreprocessError::MacrosExceedRegion {
                    macro_area,
                    region_area,
                },
            ));
        }
        if self.config.ensemble_runs == 0 {
            return Err(PlaceError::Search(SearchError::NoRuns));
        }
        // The deterministic compute pool every stage shares. Worker count
        // is validated up front so a bad configuration fails before any
        // work runs; the fault-injection knob poisons only the ensemble
        // stage's handle, never the pool the other stages use.
        let pool = mmp_pool::ThreadPool::try_new(self.config.workers)
            .map_err(|e| PlaceError::Preprocess(PreprocessError::Pool(e)))?;
        let mut summary = CheckpointSummary::default();
        let ckpt = match &self.checkpoints {
            Some(plan) => {
                summary.enabled = true;
                Some(CkptCtx::new(
                    plan,
                    fingerprint(design, &self.config),
                    self.config.fault_crash,
                    self.obs.clone(),
                    self.vfs.clone(),
                )?)
            }
            None => None,
        };
        let t0 = budget::now();
        let span = self.obs.span("stage.preprocess");
        let trainer = Trainer::try_new(design, self.config.trainer.clone())?
            .with_obs(self.obs.clone())
            .with_pool(pool);
        drop(span);
        let preprocess = t0.elapsed();

        if design.movable_macros().is_empty() {
            // ibm05 path: nothing to allocate.
            let t3 = budget::now();
            let span = self.obs.span("stage.finalize");
            let out = GlobalPlacer::new(self.config.final_placer.clone())
                .with_obs(self.obs.clone())
                .with_pool(pool)
                .place_cells(design, &Placement::initial(design));
            drop(span);
            check_finite(&out.placement, design)?;
            if self.obs.enabled() {
                self.obs.gauge("flow.hpwl", out.hpwl);
            }
            if let Some(ck) = &ckpt {
                finish_checkpoint_summary(ck, &mut summary, &mut degradation);
            }
            return Ok(PlacementResult {
                placement: out.placement,
                hpwl: out.hpwl,
                assignment: Vec::new(),
                training: TrainingHistory::default(),
                mcts_stats: SearchStats::default(),
                timings: StageTimings {
                    preprocess,
                    finalize: t3.elapsed(),
                    total: start.elapsed(),
                    ..StageTimings::default()
                },
                agent: Agent::new(self.config.trainer.net),
                degradation,
                checkpoint: summary,
                refine: None,
            });
        }

        // Stage 2: pre-training by RL.
        let t1 = budget::now();
        let train_deadline = RunBudget::stage_deadline(run_deadline, t1, self.config.budget.train);
        let span = self.obs.span("stage.train");
        let outcome = match &ckpt {
            Some(ck) => {
                let done: Option<TrainDoneCkpt> = if ck.resume() {
                    ck.load(TRAIN_DONE)?
                } else {
                    None
                };
                match done {
                    Some(d) => {
                        summary.resumes.push("train-done".to_owned());
                        degradation.record(
                            Stage::Checkpoint,
                            "resumed past completed RL training (train-done.ckpt)",
                        );
                        TrainingOutcome {
                            agent: d.agent,
                            history: d.history,
                            scale: d.scale,
                            checkpoints: d.snapshots,
                        }
                    }
                    None => {
                        let partial: Option<TrainCheckpoint> = if ck.resume() {
                            ck.load(TRAIN_PARTIAL)?
                        } else {
                            None
                        };
                        if let Some(p) = &partial {
                            summary.resumes.push("train".to_owned());
                            degradation.record(
                                Stage::Checkpoint,
                                format!(
                                    "resumed RL training from train.ckpt at episode {}",
                                    p.episodes_done
                                ),
                            );
                        }
                        let mut sink =
                            |c: &TrainCheckpoint| ck.save(CrashStage::Train, TRAIN_PARTIAL, c);
                        let outcome =
                            trainer.train_resumable(train_deadline, partial, Some(&mut sink))?;
                        ck.save(
                            CrashStage::Train,
                            TRAIN_DONE,
                            &TrainDoneCkpt {
                                agent: outcome.agent.clone(),
                                history: outcome.history.clone(),
                                scale: outcome.scale.clone(),
                                snapshots: outcome.checkpoints.clone(),
                            },
                        )?;
                        outcome
                    }
                }
            }
            None => trainer.train_with_deadline(train_deadline)?,
        };
        drop(span);
        let training_time = t1.elapsed();
        if outcome.history.early_stopped {
            degradation.record(
                Stage::Train,
                format!(
                    "deadline expired after {} of {} episodes; kept last-good weights",
                    outcome.history.episode_rewards.len(),
                    self.config.trainer.episodes
                ),
            );
        }
        if outcome.history.rejected_updates > 0 {
            degradation.record(
                Stage::Train,
                format!(
                    "{} optimizer chunk(s) rejected by the gradient-health guard",
                    outcome.history.rejected_updates
                ),
            );
        }

        // Stage 3: placement optimization by MCTS (optionally an ensemble
        // of diversified parallel searches).
        let t2 = budget::now();
        let search_deadline =
            RunBudget::stage_deadline(run_deadline, t2, self.config.budget.search);
        let span = self.obs.span("stage.search");
        let done: Option<SearchDoneCkpt> = match &ckpt {
            Some(ck) if ck.resume() => ck.load(SEARCH_DONE)?,
            _ => None,
        };
        let search = if let Some(d) = done {
            summary.resumes.push("search-done".to_owned());
            degradation.record(
                Stage::Checkpoint,
                "resumed past completed MCTS search (search-done.ckpt)",
            );
            MctsOutcome {
                assignment: d.assignment,
                wirelength: d.wirelength,
                reward: d.reward,
                stats: d.stats,
            }
        } else {
            let search = if self.config.ensemble_runs > 1 {
                // Ensemble runs checkpoint at stage granularity only: the
                // workers race each other, so a mid-search snapshot of one
                // worker would not pin down the others.
                let ens = place_ensemble_with_deadline(
                    &trainer,
                    &outcome.agent,
                    &outcome.scale,
                    &EnsembleConfig {
                        runs: self.config.ensemble_runs,
                        base: self.config.mcts.clone(),
                        obs: self.obs.clone(),
                        fault_panic_worker: self.config.fault_ensemble_panic,
                        pool: pool.with_fault_panic_worker(self.config.fault_pool_panic),
                        ..EnsembleConfig::default()
                    },
                    search_deadline,
                )
                .map_err(SearchError::from)?;
                if !ens.panicked_runs.is_empty() {
                    degradation.record(
                        Stage::Search,
                        format!(
                            "ensemble worker(s) {:?} panicked and were dropped; \
                             kept best of {} surviving run(s)",
                            ens.panicked_runs,
                            ens.run_wirelengths.len()
                        ),
                    );
                }
                ens.best
            } else {
                let placer = MctsPlacer::new(self.config.mcts.clone()).with_obs(self.obs.clone());
                match &ckpt {
                    Some(ck) => {
                        let partial: Option<mmp_mcts::SearchCheckpoint> = if ck.resume() {
                            ck.load(SEARCH_PARTIAL)?
                        } else {
                            None
                        };
                        if let Some(p) = &partial {
                            summary.resumes.push("search".to_owned());
                            degradation.record(
                                Stage::Checkpoint,
                                format!(
                                    "resumed MCTS search from search.ckpt at group {}",
                                    p.groups_done
                                ),
                            );
                        }
                        let mut sink = |c: &mmp_mcts::SearchCheckpoint| {
                            ck.save(CrashStage::Search, SEARCH_PARTIAL, c)
                        };
                        let mut ctx = InferenceCtx::new().with_exec(pool);
                        placer.place_resumable(
                            &trainer,
                            &outcome.agent,
                            &outcome.scale,
                            &mut ctx,
                            search_deadline,
                            partial,
                            Some(&mut sink),
                        )?
                    }
                    None => {
                        let mut ctx = InferenceCtx::new().with_exec(pool);
                        placer.place_with_ctx_deadline(
                            &trainer,
                            &outcome.agent,
                            &outcome.scale,
                            &mut ctx,
                            search_deadline,
                        )
                    }
                }
            };
            if let Some(ck) = &ckpt {
                ck.save(
                    CrashStage::Search,
                    SEARCH_DONE,
                    &SearchDoneCkpt {
                        assignment: search.assignment.clone(),
                        wirelength: search.wirelength,
                        reward: search.reward,
                        stats: search.stats,
                    },
                )?;
            }
            search
        };
        drop(span);
        let mcts_time = t2.elapsed();
        if search.stats.deadline_expired {
            degradation.record(
                Stage::Search,
                format!(
                    "deadline expired; {} group(s) allocated policy-greedily",
                    search.stats.policy_greedy_groups
                ),
            );
        }
        if search.stats.nan_evaluations > 0 {
            degradation.record(
                Stage::Search,
                format!(
                    "{} network evaluation(s) returned non-finite outputs; \
                     replaced by uniform priors",
                    search.stats.nan_evaluations
                ),
            );
        }

        // Stage 4: legalization + final cell placement.
        let t3 = budget::now();
        let legalize_deadline =
            RunBudget::stage_deadline(run_deadline, t3, self.config.budget.legalize);
        let span = self.obs.span("stage.finalize");
        let mut legalizer = MacroLegalizer::new().with_obs(self.obs.clone());
        legalizer.force_sp_failure = self.config.fault_sp_failure;
        let legal = legalizer.legalize_with_deadline(
            design,
            trainer.coarse(),
            &search.assignment,
            trainer.grid(),
            legalize_deadline,
        )?;
        if legal.fallback_grid_cells > 0 {
            degradation.record(
                Stage::Legalize,
                format!(
                    "row-greedy fallback in {} grid cell(s)",
                    legal.fallback_grid_cells
                ),
            );
        }
        if legal.global_fallback {
            degradation.record(
                Stage::Legalize,
                "global pass replaced by the row-greedy packer",
            );
        }
        let out = GlobalPlacer::new(self.config.final_placer.clone())
            .with_obs(self.obs.clone())
            .with_pool(pool)
            .place_cells(design, &legal.placement);
        drop(span);
        let finalize = t3.elapsed();
        check_finite(&out.placement, design)?;

        // Stage 5 (optional): seeded swap/relocate refinement over the
        // committed placement. Acceptance is a strict full-netlist HPWL
        // improvement measured by the incremental evaluator, so the stage
        // can only keep or lower the committed wirelength.
        let mut placement = out.placement;
        let mut hpwl = out.hpwl;
        let mut refine_summary = None;
        let mut refine_time = Duration::default();
        if let Some(rcfg) = self.config.refine {
            let t4 = budget::now();
            let refine_deadline =
                RunBudget::stage_deadline(run_deadline, t4, self.config.budget.refine);
            let span = self.obs.span("stage.refine");
            let refined = SwapRefiner::new(rcfg).refine(design, &placement, refine_deadline);
            drop(span);
            refine_time = t4.elapsed();
            if refined.deadline_expired {
                degradation.record(
                    Stage::Refine,
                    format!(
                        "deadline expired after {} of {} proposal(s)",
                        refined.proposed, rcfg.moves
                    ),
                );
            }
            if self.obs.enabled() {
                self.obs.count("refine.moves", refined.proposed as u64);
                self.obs.count("refine.accepted", refined.accepted as u64);
            }
            refine_summary = Some(RefineSummary {
                hpwl_before: refined.hpwl_before,
                hpwl_after: refined.hpwl_after,
                proposed: refined.proposed,
                accepted: refined.accepted,
                swaps: refined.swaps,
                relocations: refined.relocations,
            });
            placement = refined.placement;
            hpwl = refined.hpwl_after;
            check_finite(&placement, design)?;
        }

        if self.obs.enabled() {
            self.obs.gauge("flow.hpwl", hpwl);
            if self.obs.tracing() {
                self.obs.event(
                    "flow",
                    "done",
                    &[
                        field("hpwl", hpwl),
                        field("degradations", degradation.events.len()),
                    ],
                );
            }
        }

        Ok(PlacementResult {
            placement,
            hpwl,
            assignment: search.assignment,
            training: outcome.history,
            mcts_stats: search.stats,
            timings: StageTimings {
                preprocess,
                training: training_time,
                mcts: mcts_time,
                finalize,
                refine: refine_time,
                total: start.elapsed(),
            },
            agent: outcome.agent,
            degradation: {
                if let Some(ck) = &ckpt {
                    finish_checkpoint_summary(ck, &mut summary, &mut degradation);
                }
                degradation
            },
            checkpoint: summary,
            refine: refine_summary,
        })
    }
}

/// Folds the checkpoint context's end-of-run state into the summary and
/// the degradation report: write counts, the disabled-mid-run flag, the
/// stale-temp sweep count, and every operator note (disk-full disable,
/// dir-fsync failure, sweep) as a `Stage::Checkpoint` degradation entry.
fn finish_checkpoint_summary(
    ck: &CkptCtx,
    summary: &mut CheckpointSummary,
    degradation: &mut DegradationReport,
) {
    summary.writes = ck.writes();
    summary.disabled = ck.disabled();
    summary.stale_tmp_removed = ck.stale_tmp_removed();
    for note in ck.take_notes() {
        degradation.record(Stage::Checkpoint, note);
    }
}

/// Numerical-health gate on the final placement: refuse to hand back (or
/// write out) coordinates that are not finite.
fn check_finite(placement: &Placement, design: &Design) -> Result<(), PlaceError> {
    let mut bad = 0usize;
    for i in 0..design.macros().len() {
        let c = placement.macro_center(mmp_netlist::MacroId::from_index(i));
        if !c.x.is_finite() || !c.y.is_finite() {
            bad += 1;
        }
    }
    for i in 0..design.cells().len() {
        let c = placement.cell_center(mmp_netlist::CellId::from_index(i));
        if !c.x.is_finite() || !c.y.is_finite() {
            bad += 1;
        }
    }
    if bad > 0 {
        return Err(PlaceError::FinalPlace(
            FinalPlaceError::NonFinitePlacement { nodes: bad },
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_netlist::SyntheticSpec;

    fn fast_config() -> PlacerConfig {
        let mut cfg = PlacerConfig::fast(4);
        cfg.trainer.episodes = 4;
        cfg.mcts.explorations = 6;
        cfg
    }

    #[test]
    fn full_flow_produces_legal_placement() {
        let d = SyntheticSpec::small("flow", 6, 1, 8, 50, 90, true, 1).generate();
        let result = MacroPlacer::new(fast_config()).place(&d).unwrap();
        assert!(result.hpwl > 0.0);
        assert!(result.placement.macro_overlap_area(&d) < 1e-6);
        assert_eq!(result.training.episode_rewards.len(), 4);
        assert!(result.mcts_stats.explorations > 0);
        assert!(!result.assignment.is_empty());
    }

    #[test]
    fn flow_is_deterministic() {
        let d = SyntheticSpec::small("det", 5, 0, 8, 40, 70, false, 2).generate();
        let placer = MacroPlacer::new(fast_config());
        let a = placer.place(&d).unwrap();
        let b = placer.place(&d).unwrap();
        assert_eq!(a.hpwl, b.hpwl);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn multi_worker_flow_matches_single_worker_bitwise() {
        let d = SyntheticSpec::small("poolflow", 5, 0, 8, 40, 70, false, 2).generate();
        let baseline = MacroPlacer::new(fast_config()).place(&d).unwrap();
        let mut cfg = fast_config();
        cfg.workers = 4;
        let pooled = MacroPlacer::new(cfg).place(&d).unwrap();
        assert_eq!(pooled.hpwl.to_bits(), baseline.hpwl.to_bits());
        assert_eq!(pooled.assignment, baseline.assignment);
        for i in 0..baseline.placement.macro_count() {
            let (a, b) = (
                pooled
                    .placement
                    .macro_center(mmp_netlist::MacroId(i as u32)),
                baseline
                    .placement
                    .macro_center(mmp_netlist::MacroId(i as u32)),
            );
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "macro {i} x drifted");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "macro {i} y drifted");
        }
        for i in 0..baseline.placement.cell_count() {
            let (a, b) = (
                pooled.placement.cell_center(mmp_netlist::CellId(i as u32)),
                baseline
                    .placement
                    .cell_center(mmp_netlist::CellId(i as u32)),
            );
            assert_eq!(a.x.to_bits(), b.x.to_bits(), "cell {i} x drifted");
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "cell {i} y drifted");
        }
    }

    #[test]
    fn bad_worker_count_is_a_typed_preprocess_error() {
        let d = SyntheticSpec::small("poolbad", 5, 0, 8, 40, 70, false, 2).generate();
        for workers in [0usize, mmp_pool::MAX_WORKERS + 1] {
            let mut cfg = fast_config();
            cfg.workers = workers;
            let err = MacroPlacer::new(cfg).place(&d).unwrap_err();
            assert!(
                matches!(err, PlaceError::Preprocess(PreprocessError::Pool(_))),
                "workers={workers}: got {err}"
            );
            assert_eq!(err.exit_code(), 10);
            assert!(!err.is_transient());
        }
    }

    #[test]
    fn zero_update_interval_is_a_permanent_train_error() {
        let d = SyntheticSpec::small("update0", 5, 0, 8, 40, 70, false, 2).generate();
        let mut cfg = fast_config();
        cfg.trainer.update_every = 0;
        let err = MacroPlacer::new(cfg).place(&d).unwrap_err();
        assert!(
            matches!(
                err,
                PlaceError::Train(mmp_rl::TrainError::ZeroUpdateInterval)
            ),
            "got {err}"
        );
        assert_eq!(err.exit_code(), 11);
        assert!(!err.is_transient());
    }

    #[test]
    fn config_without_workers_field_deserializes_to_one() {
        // Forward compatibility: configs serialized before the pool existed
        // must keep loading — and land on the inline single-worker pool,
        // not on an invalid zero.
        let json = serde_json::to_string(&PlacerConfig::fast(4)).unwrap();
        assert!(json.contains("\"workers\":1"), "precondition: {json}");
        // Renaming the keys makes the deserializer see them as absent
        // (unknown keys are ignored).
        let json = json
            .replace("\"workers\"", "\"pre_pool_workers\"")
            .replace("\"fault_pool_panic\"", "\"pre_pool_fault\"");
        let cfg: PlacerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.fault_pool_panic, None);
    }

    #[test]
    fn zero_macro_design_skips_rl_and_mcts() {
        let d = SyntheticSpec::small("ibm05", 0, 0, 8, 60, 90, false, 3).generate();
        let result = MacroPlacer::new(fast_config()).place(&d).unwrap();
        assert!(result.assignment.is_empty());
        assert_eq!(result.mcts_stats.explorations, 0);
        assert!(result.hpwl > 0.0);
    }

    #[test]
    fn infeasible_design_is_rejected() {
        use mmp_geom::{Point, Rect};
        let mut b = mmp_netlist::DesignBuilder::new("inf", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_macro("m0", 9.0, 9.0, "");
        b.add_macro("m1", 9.0, 9.0, "");
        let p = b.add_pad("p", Point::new(0.0, 0.0));
        b.add_net(
            "n",
            [
                (mmp_netlist::MacroId(0).into(), Point::ORIGIN),
                (p.into(), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        let d = b.build().unwrap();
        let err = MacroPlacer::new(fast_config()).place(&d).unwrap_err();
        assert!(matches!(
            err,
            PlaceError::Preprocess(PreprocessError::MacrosExceedRegion { .. })
        ));
        assert!(err.to_string().contains("macro area"));
        assert_eq!(err.exit_code(), 10);
        assert_eq!(err.stage(), Stage::Preprocess);
    }

    #[test]
    fn zero_ensemble_runs_is_a_typed_search_error() {
        let d = SyntheticSpec::small("nr", 5, 0, 8, 40, 70, false, 2).generate();
        let mut cfg = fast_config();
        cfg.ensemble_runs = 0;
        let err = MacroPlacer::new(cfg).place(&d).unwrap_err();
        assert_eq!(err, PlaceError::Search(SearchError::NoRuns));
        assert_eq!(err.exit_code(), 12);
    }

    #[test]
    fn unbudgeted_run_reports_no_degradation() {
        let d = SyntheticSpec::small("clean", 5, 0, 8, 40, 70, false, 3).generate();
        let result = MacroPlacer::new(fast_config()).place(&d).unwrap();
        assert!(result.degradation.is_empty(), "{}", result.degradation);
    }

    #[test]
    fn refine_stage_never_raises_hpwl_and_reports_a_summary() {
        let d = SyntheticSpec::small("rf", 6, 1, 8, 50, 90, true, 1).generate();
        let base = MacroPlacer::new(fast_config()).place(&d).unwrap();
        let mut cfg = fast_config();
        cfg.refine = Some(SwapRefineConfig {
            moves: 128,
            seed: 7,
        });
        let refined = MacroPlacer::new(cfg).place(&d).unwrap();
        let summary = refined.refine.unwrap();
        // The stage enters at the committed placement's exact HPWL (the
        // incremental evaluator is bitwise-equal to Placement::hpwl)...
        assert_eq!(summary.hpwl_before.to_bits(), base.hpwl.to_bits());
        // ...and only strict improvements are committed.
        assert!(summary.hpwl_after <= summary.hpwl_before);
        assert_eq!(refined.hpwl.to_bits(), summary.hpwl_after.to_bits());
        assert_eq!(summary.proposed, 128);
        assert_eq!(summary.accepted, summary.swaps + summary.relocations);
        assert!(refined.placement.macro_overlap_area(&d) < 1e-6);
        assert!(refined.placement.macros_inside_region(&d));
        assert!(base.refine.is_none(), "refine off must not report");
    }

    #[test]
    fn refine_run_is_deterministic() {
        let d = SyntheticSpec::small("rfd", 5, 0, 8, 40, 70, false, 2).generate();
        let mut cfg = fast_config();
        cfg.refine = Some(SwapRefineConfig::default());
        let placer = MacroPlacer::new(cfg);
        let a = placer.place(&d).unwrap();
        let b = placer.place(&d).unwrap();
        assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.refine, b.refine);
    }

    #[test]
    fn zero_refine_budget_degrades_and_keeps_the_committed_placement() {
        let d = SyntheticSpec::small("rfz", 6, 1, 8, 50, 90, true, 1).generate();
        let base = MacroPlacer::new(fast_config()).place(&d).unwrap();
        let mut cfg = fast_config();
        cfg.refine = Some(SwapRefineConfig::default());
        cfg.budget.refine = Some(Duration::ZERO);
        let result = MacroPlacer::new(cfg).place(&d).unwrap();
        assert!(result.degradation.affects(Stage::Refine));
        let summary = result.refine.unwrap();
        assert_eq!(summary.proposed, 0);
        assert_eq!(summary.accepted, 0);
        // Nothing accepted: the committed placement and its exact HPWL
        // pass through untouched.
        assert_eq!(result.hpwl.to_bits(), base.hpwl.to_bits());
        assert_eq!(result.placement, base.placement);
    }

    #[test]
    fn legalizer_rescue_is_reported_and_stays_in_region() {
        // Seed 2 drives the global legalization pass into its
        // guaranteed-termination packing, which historically could leave a
        // macro outside the region with no trace. The hardened flow must
        // instead deliver a contained, overlap-free placement and own up to
        // the fallback in the degradation report.
        let d = SyntheticSpec::small("clean", 5, 0, 8, 40, 70, false, 2).generate();
        let result = MacroPlacer::new(fast_config()).place(&d).unwrap();
        assert!(result.placement.macros_inside_region(&d));
        assert!(result.placement.macro_overlap_area(&d) < 1e-6);
        assert!(result
            .degradation
            .degraded_stages()
            .contains(&Stage::Legalize));
    }

    #[test]
    fn zero_budget_run_degrades_but_still_places_legally() {
        let d = SyntheticSpec::small("zb", 6, 1, 8, 50, 90, true, 1).generate();
        let mut cfg = fast_config();
        cfg.budget = RunBudget::with_total(Duration::ZERO);
        let result = MacroPlacer::new(cfg).place(&d).unwrap();
        let stages = result.degradation.degraded_stages();
        assert!(stages.contains(&Stage::Train), "stages: {stages:?}");
        assert!(stages.contains(&Stage::Search), "stages: {stages:?}");
        assert!(stages.contains(&Stage::Legalize), "stages: {stages:?}");
        // Degraded, but complete and legal.
        assert!(!result.assignment.is_empty());
        assert!(result.placement.macro_overlap_area(&d) < 1e-6);
        assert!(result.hpwl.is_finite() && result.hpwl > 0.0);
    }

    #[test]
    fn zero_budget_run_is_deterministic() {
        let d = SyntheticSpec::small("zbd", 5, 0, 8, 40, 70, false, 3).generate();
        let mut cfg = fast_config();
        cfg.budget = RunBudget::with_total(Duration::ZERO);
        let placer = MacroPlacer::new(cfg);
        let a = placer.place(&d).unwrap();
        let b = placer.place(&d).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.hpwl, b.hpwl);
        assert_eq!(
            a.degradation.degraded_stages(),
            b.degradation.degraded_stages()
        );
    }

    #[test]
    fn injected_sp_failure_degrades_legalization_only() {
        let d = SyntheticSpec::small("spf", 6, 0, 8, 50, 90, false, 4).generate();
        let mut cfg = fast_config();
        cfg.fault_sp_failure = true;
        let result = MacroPlacer::new(cfg).place(&d).unwrap();
        assert!(result.degradation.affects(Stage::Legalize));
        assert!(!result.degradation.affects(Stage::Train));
        assert!(!result.degradation.affects(Stage::Search));
        assert!(result.placement.macro_overlap_area(&d) < 1e-6);
    }

    #[test]
    fn per_stage_budget_only_degrades_that_stage() {
        let d = SyntheticSpec::small("tb", 5, 0, 8, 40, 70, false, 2).generate();
        let mut cfg = fast_config();
        cfg.budget.train = Some(Duration::ZERO);
        let result = MacroPlacer::new(cfg).place(&d).unwrap();
        assert!(result.degradation.affects(Stage::Train));
        assert!(!result.degradation.affects(Stage::Search));
        assert!(!result.degradation.affects(Stage::Legalize));
        assert!(result.placement.macro_overlap_area(&d) < 1e-6);
    }

    #[test]
    fn ensemble_flow_matches_or_beats_single_search() {
        let d = SyntheticSpec::small("ens_flow", 6, 0, 8, 50, 90, false, 5).generate();
        let mut single_cfg = fast_config();
        single_cfg.mcts.explorations = 8;
        let single = MacroPlacer::new(single_cfg.clone()).place(&d).unwrap();
        let mut ens_cfg = single_cfg;
        ens_cfg.ensemble_runs = 3;
        let ens = MacroPlacer::new(ens_cfg).place(&d).unwrap();
        // Run 0 of the ensemble is the noise-free search, so the ensemble's
        // *assignment-level* score cannot be worse; the final HPWL after
        // cell placement tracks it closely.
        assert!(ens.hpwl <= single.hpwl * 1.05);
        assert!(ens.placement.macro_overlap_area(&d) < 1e-6);
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mmp-flow-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_run_is_bitwise_identical_to_a_plain_run() {
        let d = SyntheticSpec::small("ckpt_eq", 5, 0, 8, 40, 70, false, 2).generate();
        let cfg = fast_config();
        let plain = MacroPlacer::new(cfg.clone()).place(&d).unwrap();
        let dir = ckpt_dir("eq");
        let ck = MacroPlacer::new(cfg)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::new(&dir))
            .place(&d)
            .unwrap();
        assert_eq!(ck.hpwl, plain.hpwl);
        assert_eq!(ck.assignment, plain.assignment);
        assert_eq!(ck.mcts_stats, plain.mcts_stats);
        assert!(ck.checkpoint.enabled);
        assert!(ck.checkpoint.resumes.is_empty());
        assert!(
            ck.checkpoint.writes >= 2,
            "writes: {}",
            ck.checkpoint.writes
        );
        assert!(!plain.checkpoint.enabled);
        assert!(dir.join(TRAIN_DONE).exists());
        assert!(dir.join(SEARCH_DONE).exists());
    }

    #[test]
    fn kill_mid_train_then_resume_is_bitwise_identical() {
        let d = SyntheticSpec::small("ckpt_kt", 5, 0, 8, 40, 70, false, 3).generate();
        let mut cfg = fast_config();
        cfg.trainer.episodes = 6;
        cfg.trainer.update_every = 2;
        let baseline = MacroPlacer::new(cfg.clone()).place(&d).unwrap();

        let dir = ckpt_dir("kt");
        let mut crash_cfg = cfg.clone();
        crash_cfg.fault_crash = Some(CrashPoint::after_train_writes(1));
        let err = MacroPlacer::new(crash_cfg)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::new(&dir))
            .place(&d)
            .unwrap_err();
        assert_eq!(err.exit_code(), 16, "{err}");
        assert!(dir.join(TRAIN_PARTIAL).exists());
        assert!(!dir.join(TRAIN_DONE).exists());

        let resumed = MacroPlacer::new(cfg)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::resume(&dir))
            .place(&d)
            .unwrap();
        assert_eq!(resumed.hpwl, baseline.hpwl);
        assert_eq!(resumed.assignment, baseline.assignment);
        assert_eq!(resumed.training, baseline.training);
        assert_eq!(resumed.checkpoint.resumes, vec!["train".to_owned()]);
        assert!(resumed.degradation.affects(Stage::Checkpoint));
    }

    #[test]
    fn kill_mid_search_then_resume_is_bitwise_identical() {
        let d = SyntheticSpec::small("ckpt_ks", 6, 0, 8, 50, 90, false, 4).generate();
        let cfg = fast_config();
        let baseline = MacroPlacer::new(cfg.clone()).place(&d).unwrap();

        let dir = ckpt_dir("ks");
        let mut crash_cfg = cfg.clone();
        crash_cfg.fault_crash = Some(CrashPoint::after_search_writes(1));
        let err = MacroPlacer::new(crash_cfg)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::new(&dir))
            .place(&d)
            .unwrap_err();
        assert_eq!(err.exit_code(), 16, "{err}");
        assert!(dir.join(TRAIN_DONE).exists());
        assert!(dir.join(SEARCH_PARTIAL).exists());
        assert!(!dir.join(SEARCH_DONE).exists());

        let resumed = MacroPlacer::new(cfg)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::resume(&dir))
            .place(&d)
            .unwrap();
        assert_eq!(resumed.hpwl, baseline.hpwl);
        assert_eq!(resumed.assignment, baseline.assignment);
        assert_eq!(resumed.mcts_stats, baseline.mcts_stats);
        assert_eq!(
            resumed.checkpoint.resumes,
            vec!["train-done".to_owned(), "search".to_owned()]
        );
    }

    #[test]
    fn resume_of_a_completed_run_skips_every_stage() {
        let d = SyntheticSpec::small("ckpt_skip", 5, 0, 8, 40, 70, false, 2).generate();
        let cfg = fast_config();
        let dir = ckpt_dir("skip");
        let first = MacroPlacer::new(cfg.clone())
            .with_checkpoints(crate::checkpoint::CheckpointPlan::new(&dir))
            .place(&d)
            .unwrap();
        let resumed = MacroPlacer::new(cfg)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::resume(&dir))
            .place(&d)
            .unwrap();
        assert_eq!(resumed.hpwl, first.hpwl);
        assert_eq!(resumed.assignment, first.assignment);
        assert_eq!(
            resumed.checkpoint.resumes,
            vec!["train-done".to_owned(), "search-done".to_owned()]
        );
        // Nothing re-ran, so the resumed run wrote nothing new.
        assert_eq!(resumed.checkpoint.writes, 0);
    }

    #[test]
    fn resume_against_a_different_config_is_a_typed_checkpoint_error() {
        let d = SyntheticSpec::small("ckpt_fp", 5, 0, 8, 40, 70, false, 2).generate();
        let dir = ckpt_dir("fp");
        MacroPlacer::new(fast_config())
            .with_checkpoints(crate::checkpoint::CheckpointPlan::new(&dir))
            .place(&d)
            .unwrap();
        let mut other = fast_config();
        other.trainer.episodes += 1;
        let err = MacroPlacer::new(other)
            .with_checkpoints(crate::checkpoint::CheckpointPlan::resume(&dir))
            .place(&d)
            .unwrap_err();
        assert_eq!(err.exit_code(), 16, "{err}");
        assert_eq!(err.stage(), Stage::Checkpoint);
        assert!(err.to_string().contains("different design"));
    }

    #[test]
    fn panicking_ensemble_worker_degrades_but_completes() {
        let d = SyntheticSpec::small("ens_panic", 6, 0, 8, 50, 90, false, 5).generate();
        let mut cfg = fast_config();
        cfg.mcts.explorations = 8;
        cfg.ensemble_runs = 3;
        cfg.fault_ensemble_panic = Some(1);
        let result = MacroPlacer::new(cfg).place(&d).unwrap();
        assert!(result.degradation.affects(Stage::Search));
        assert!(result
            .degradation
            .events
            .iter()
            .any(|e| e.detail.contains("panicked")));
        assert!(result.hpwl.is_finite() && result.hpwl > 0.0);
        assert!(result.placement.macro_overlap_area(&d) < 1e-6);
    }

    #[test]
    fn timings_are_recorded() {
        let d = SyntheticSpec::small("time", 5, 0, 8, 40, 70, false, 4).generate();
        let result = MacroPlacer::new(fast_config()).place(&d).unwrap();
        assert!(result.timings.mcts > Duration::ZERO);
        assert!(result.timings.training > Duration::ZERO);
    }
}
