//! Crash-safe checkpoint/resume for the placement flow.
//!
//! When a [`crate::MacroPlacer`] carries a [`CheckpointPlan`], the flow
//! persists its progress into the plan's directory through the `mmp-ckpt`
//! envelope (atomic temp-file-then-rename writes, CRC-checked reads):
//!
//! | file                | contents                                        |
//! |---------------------|-------------------------------------------------|
//! | `train.ckpt`        | in-progress RL training ([`mmp_rl::TrainCheckpoint`]) |
//! | `train-done.ckpt`   | the finished training outcome                   |
//! | `search.ckpt`       | in-progress MCTS search ([`mmp_mcts::SearchCheckpoint`], single-search runs, after every [`mmp_mcts::SEARCH_CHECKPOINT_GROUPS`]th group) |
//! | `search-done.ckpt`  | the committed final allocation                   |
//!
//! The search writes `search.ckpt` after every tenth committed group, not
//! every group: one write costs about as much as the group of search it
//! protects, and the search is deterministic once `train-done.ckpt`
//! exists, so a crash costs at most a re-run of the groups since the last
//! write. A search of fewer groups writes only `search-done.ckpt`.
//!
//! Resume (`CheckpointPlan::resume`) walks the same ladder backwards:
//! completed stages are skipped from their `*-done` marker, an interrupted
//! stage continues from its partial checkpoint **bitwise-identically** to
//! an uninterrupted run, and anything absent simply runs fresh. Every
//! checkpoint carries a fingerprint of the design and configuration so a
//! checkpoint directory can never be replayed against a different problem
//! — a mismatch is a typed [`CkptError::Invalid`], never a garbage
//! placement.

use crate::budget::RunBudget;
use crate::flow::PlacerConfig;
use mmp_ckpt::{fnv1a64, CkptError};
use mmp_geom::GridIndex;
use mmp_mcts::SearchStats;
use mmp_netlist::Design;
use mmp_obs::Obs;
use mmp_rl::{Agent, RewardScale, TrainingHistory};
use mmp_vfs::Vfs;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::path::PathBuf;

/// In-progress RL training checkpoint file.
pub(crate) const TRAIN_PARTIAL: &str = "train.ckpt";
/// Completed-training stage marker.
pub(crate) const TRAIN_DONE: &str = "train-done.ckpt";
/// In-progress MCTS search checkpoint file (single-search runs only).
pub(crate) const SEARCH_PARTIAL: &str = "search.ckpt";
/// Completed-search stage marker.
pub(crate) const SEARCH_DONE: &str = "search-done.ckpt";

/// Where (and whether) the flow persists and resumes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Directory holding the run's checkpoint files (created on demand).
    pub dir: PathBuf,
    /// `true` to consult existing checkpoints in `dir` before each stage;
    /// `false` to start fresh (existing files are overwritten as the run
    /// progresses).
    pub resume: bool,
}

impl CheckpointPlan {
    /// A fresh checkpointed run: write checkpoints into `dir`, ignore any
    /// already there.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPlan {
            dir: dir.into(),
            resume: false,
        }
    }

    /// A resuming run: pick up from whatever checkpoints `dir` holds (a
    /// completely empty directory degenerates to a fresh run).
    pub fn resume(dir: impl Into<PathBuf>) -> Self {
        CheckpointPlan {
            dir: dir.into(),
            resume: true,
        }
    }
}

/// Which stage's checkpoint writes a [`CrashPoint`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashStage {
    /// Writes of `train.ckpt` / `train-done.ckpt`.
    Train,
    /// Writes of `search.ckpt` / `search-done.ckpt`.
    Search,
}

/// Fault-injection knob simulating a process kill: the run fails with a
/// typed [`CkptError`] immediately *after* the n-th checkpoint write of
/// the chosen stage completes — exactly the on-disk state a real crash at
/// that moment would leave behind. Test harness only; `None` in
/// production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// The stage whose checkpoint writes are counted.
    pub stage: CrashStage,
    /// Crash after this many completed writes of that stage (1-based).
    pub after_writes: usize,
}

impl CrashPoint {
    /// Crash after `n` completed training-stage checkpoint writes.
    pub fn after_train_writes(n: usize) -> Self {
        CrashPoint {
            stage: CrashStage::Train,
            after_writes: n,
        }
    }

    /// Crash after `n` completed search-stage checkpoint writes.
    pub fn after_search_writes(n: usize) -> Self {
        CrashPoint {
            stage: CrashStage::Search,
            after_writes: n,
        }
    }
}

/// What checkpointing did during one run — part of
/// [`crate::PlacementResult`] and the JSON [`crate::RunReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointSummary {
    /// `true` when the run carried a [`CheckpointPlan`].
    #[serde(default)]
    pub enabled: bool,
    /// Every resume the stage ladder took, in order (e.g. `"train-done"`
    /// for a skipped completed stage, `"train"` for a mid-stage
    /// continuation). Empty for fresh runs.
    #[serde(default)]
    pub resumes: Vec<String>,
    /// Checkpoint files written (including stage-done markers).
    #[serde(default)]
    pub writes: usize,
    /// `true` when checkpointing was disabled mid-run because writes
    /// started failing (e.g. disk full): the placement finished, but no
    /// further checkpoints were persisted. Details are in the run's
    /// degradation report under the `checkpoint` stage.
    #[serde(default)]
    pub disabled: bool,
    /// Stale `*.tmp` orphans (left by a crash between temp-file write and
    /// rename) swept from the checkpoint directory when it was opened.
    #[serde(default)]
    pub stale_tmp_removed: usize,
}

/// Completed-training marker payload: everything stage 3 and later need
/// from the RL stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TrainDoneCkpt {
    /// The trained agent.
    pub agent: Agent,
    /// Per-episode curves.
    pub history: TrainingHistory,
    /// The calibrated reward scale.
    pub scale: RewardScale,
    /// `(episode, agent-snapshot)` pairs when snapshotting was enabled.
    pub snapshots: Vec<(usize, Agent)>,
}

/// Completed-search marker payload: the committed final allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SearchDoneCkpt {
    /// Grid cell per macro group.
    pub assignment: Vec<GridIndex>,
    /// Wirelength of the final allocation.
    pub wirelength: f64,
    /// Reward of the final allocation.
    pub reward: f64,
    /// Search effort counters.
    pub stats: SearchStats,
}

/// Fingerprint binding a checkpoint directory to one (design,
/// configuration) pair. Budgets, the worker count and the fault-injection
/// knobs are deliberately excluded: a run killed by a wall-clock budget
/// (or by the fault harness) may legitimately resume with a different
/// allowance, and the compute pool is bitwise-neutral — any worker count
/// reproduces the same placement, so it must not split checkpoint
/// identities.
///
/// Public so serving layers can key caches of reusable checkpoint state
/// (e.g. `mmpd`'s trained-policy cache) on exactly the identity the resume
/// ladder itself enforces.
pub fn fingerprint(design: &Design, cfg: &PlacerConfig) -> u64 {
    let mut canon = cfg.clone();
    canon.budget = RunBudget::default();
    canon.fault_crash = None;
    canon.workers = 1;
    canon.fault_pool_panic = None;
    let cfg_json = serde_json::to_string(&canon).unwrap_or_default();
    let id = format!(
        "{}|{}m|{}c|{}n|{:?}|{}",
        design.name(),
        design.macros().len(),
        design.cells().len(),
        design.nets().len(),
        design.region(),
        cfg_json
    );
    fnv1a64(id.as_bytes())
}

/// The flow's live checkpoint context: directory + fingerprint + write
/// counters + crash injection + graceful degradation when the disk turns
/// against the run.
pub(crate) struct CkptCtx {
    dir: PathBuf,
    resume: bool,
    fingerprint: u64,
    crash: Option<CrashPoint>,
    writes: Cell<usize>,
    train_writes: Cell<usize>,
    search_writes: Cell<usize>,
    obs: Obs,
    vfs: Vfs,
    /// Set when a non-crash write failure disabled further checkpointing.
    disabled: Cell<bool>,
    /// One-shot guard for the dir-fsync operator note.
    dir_fsync_noted: Cell<bool>,
    /// Stale `*.tmp` orphans removed when the directory was opened.
    stale_tmp_removed: Cell<usize>,
    /// Operator-facing notes, drained into the degradation report under
    /// `Stage::Checkpoint` when the run finishes.
    notes: RefCell<Vec<String>>,
}

impl CkptCtx {
    /// Opens (creating if needed) the checkpoint directory and sweeps
    /// stale `*.tmp` orphans left by an earlier crash between temp-file
    /// write and rename.
    ///
    /// A non-crash-marked failure to create the directory does not abort
    /// the run: the context comes up with checkpointing disabled and a
    /// degradation note, mirroring the mid-run disk-full policy.
    pub(crate) fn new(
        plan: &CheckpointPlan,
        fingerprint: u64,
        crash: Option<CrashPoint>,
        obs: Obs,
        vfs: Vfs,
    ) -> Result<Self, CkptError> {
        let ctx = CkptCtx {
            dir: plan.dir.clone(),
            resume: plan.resume,
            fingerprint,
            crash,
            writes: Cell::new(0),
            train_writes: Cell::new(0),
            search_writes: Cell::new(0),
            obs,
            vfs,
            disabled: Cell::new(false),
            dir_fsync_noted: Cell::new(false),
            stale_tmp_removed: Cell::new(0),
            notes: RefCell::new(Vec::new()),
        };
        if let Err(e) = ctx.vfs.create_dir_all(&plan.dir) {
            if mmp_vfs::is_crash(&e) {
                return Err(CkptError::Io {
                    path: plan.dir.display().to_string(),
                    detail: format!("create checkpoint directory: {e}"),
                });
            }
            ctx.disable(format!(
                "checkpoint directory {} unusable ({e}); checkpointing disabled",
                plan.dir.display()
            ));
            return Ok(ctx);
        }
        ctx.sweep_stale_tmps()?;
        Ok(ctx)
    }

    /// Removes `*.tmp` orphans from the checkpoint directory. Best-effort:
    /// listing or removal failures are ignored unless crash-marked (the
    /// torture driver's "process died here").
    fn sweep_stale_tmps(&self) -> Result<(), CkptError> {
        let names = match self.vfs.read_dir_names(&self.dir) {
            Ok(names) => names,
            Err(_) => return Ok(()),
        };
        let mut removed = 0usize;
        for name in names {
            if !name.ends_with(".tmp") {
                continue;
            }
            let path = self.dir.join(&name);
            match self.vfs.remove_file(&path) {
                Ok(()) => removed += 1,
                Err(e) if mmp_vfs::is_crash(&e) => {
                    return Err(CkptError::Io {
                        path: path.display().to_string(),
                        detail: format!("sweep stale temp file: {e}"),
                    });
                }
                Err(_) => {}
            }
        }
        if removed > 0 {
            self.stale_tmp_removed.set(removed);
            if self.obs.enabled() {
                self.obs.count("ckpt.stale_tmp_removed", removed as u64);
            }
            self.notes.borrow_mut().push(format!(
                "swept {removed} stale checkpoint temp file(s) from {}",
                self.dir.display()
            ));
        }
        Ok(())
    }

    fn disable(&self, note: String) {
        self.disabled.set(true);
        if self.obs.enabled() {
            self.obs.count("ckpt.disabled", 1);
        }
        self.notes.borrow_mut().push(note);
    }

    /// `true` when existing checkpoints should be consulted.
    pub(crate) fn resume(&self) -> bool {
        self.resume
    }

    /// Checkpoint files written so far (including stage-done markers).
    pub(crate) fn writes(&self) -> usize {
        self.writes.get()
    }

    /// `true` when a write failure disabled further checkpointing.
    pub(crate) fn disabled(&self) -> bool {
        self.disabled.get()
    }

    /// Stale `*.tmp` orphans swept when the directory was opened.
    pub(crate) fn stale_tmp_removed(&self) -> usize {
        self.stale_tmp_removed.get()
    }

    /// Drains the operator-facing notes accumulated so far (degradation
    /// report material, `Stage::Checkpoint`).
    pub(crate) fn take_notes(&self) -> Vec<String> {
        std::mem::take(&mut self.notes.borrow_mut())
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Writes `value` as a fingerprint-prefixed JSON payload inside the
    /// `mmp-ckpt` envelope, then applies crash injection: when the
    /// configured [`CrashPoint`] matches this (stage, write-count), the
    /// write *completes on disk* and the call returns a typed error —
    /// the state a real mid-run kill would leave.
    ///
    /// A plain I/O failure (disk full, EIO — anything not crash-marked)
    /// does **not** abort the run: checkpointing is disabled, the failure
    /// is recorded as a degradation note + obs counter, and the placement
    /// carries on without persistence. Crash-marked failures propagate;
    /// the torture driver treats them as process death.
    pub(crate) fn save<T: Serialize>(
        &self,
        stage: CrashStage,
        file: &str,
        value: &T,
    ) -> Result<(), CkptError> {
        if self.disabled.get() {
            return Ok(());
        }
        let json = serde_json::to_string(value).map_err(|e| CkptError::Invalid {
            detail: format!("serialize {file}: {e}"),
        })?;
        let mut payload = Vec::with_capacity(8 + json.len());
        payload.extend_from_slice(&self.fingerprint.to_le_bytes());
        payload.extend_from_slice(json.as_bytes());
        let path = self.path(file);
        match mmp_ckpt::write_with(&self.vfs, &path, &payload) {
            Ok(receipt) => {
                if receipt.dir_fsync_failed {
                    if self.obs.enabled() {
                        self.obs.count("ckpt.dir_fsync_failed", 1);
                    }
                    if !self.dir_fsync_noted.replace(true) {
                        self.notes.borrow_mut().push(format!(
                            "directory fsync failed after writing {file}; \
                             checkpoint data is durable but its directory entry \
                             may not survive a power loss (flaky storage?)"
                        ));
                    }
                }
            }
            Err(CkptError::Io { detail, .. }) if !mmp_vfs::is_crash_detail(&detail) => {
                if self.obs.enabled() {
                    self.obs.count("ckpt.write_failed", 1);
                }
                self.disable(format!(
                    "checkpoint write of {file} failed ({detail}); \
                     further checkpointing disabled, run continues without persistence"
                ));
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        self.writes.set(self.writes.get() + 1);
        if self.obs.enabled() {
            self.obs.count("ckpt.writes", 1);
        }
        let counter = match stage {
            CrashStage::Train => &self.train_writes,
            CrashStage::Search => &self.search_writes,
        };
        counter.set(counter.get() + 1);
        if let Some(cp) = self.crash {
            if cp.stage == stage && counter.get() == cp.after_writes {
                return Err(CkptError::Io {
                    path: path.display().to_string(),
                    detail: "injected crash after checkpoint write".to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Loads a checkpoint file, or `None` when it does not exist.
    ///
    /// Verifies the envelope (magic, version, CRC) via [`mmp_ckpt::read`]
    /// and then the design/configuration fingerprint before
    /// deserializing.
    pub(crate) fn load<T: Deserialize>(&self, file: &str) -> Result<Option<T>, CkptError> {
        let path = self.path(file);
        let Some(payload) = mmp_ckpt::read_opt_with(&self.vfs, &path)? else {
            return Ok(None);
        };
        let shown = path.display().to_string();
        if payload.len() < 8 {
            return Err(CkptError::Truncated {
                path: shown,
                expected: 8,
                got: payload.len() as u64,
            });
        }
        let mut fp = [0u8; 8];
        fp.copy_from_slice(&payload[..8]);
        if u64::from_le_bytes(fp) != self.fingerprint {
            return Err(CkptError::Invalid {
                detail: format!(
                    "{shown} was written for a different design or configuration; \
                     refusing to resume from it"
                ),
            });
        }
        let value = serde_json::from_slice(&payload[8..]).map_err(|e| CkptError::Corrupt {
            path: shown,
            detail: format!("payload does not deserialize: {e}"),
        })?;
        Ok(Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_obs::Obs;
    use std::path::Path;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmp-ckptctx-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ctx(dir: &Path, fp: u64, crash: Option<CrashPoint>) -> CkptCtx {
        CkptCtx::new(
            &CheckpointPlan::new(dir),
            fp,
            crash,
            Obs::off(),
            Vfs::real(),
        )
        .unwrap()
    }

    fn ctx_with(dir: &Path, vfs: Vfs) -> CkptCtx {
        CkptCtx::new(&CheckpointPlan::new(dir), 7, None, Obs::off(), vfs).unwrap()
    }

    #[test]
    fn save_load_round_trips_with_matching_fingerprint() {
        let dir = tmp("rt");
        let c = ctx(&dir, 42, None);
        let v: Vec<usize> = vec![3, 1, 4, 1, 5];
        c.save(CrashStage::Train, TRAIN_PARTIAL, &v).unwrap();
        assert_eq!(c.writes(), 1);
        let back: Vec<usize> = c.load(TRAIN_PARTIAL).unwrap().unwrap();
        assert_eq!(back, v);
        let missing: Option<Vec<usize>> = c.load(SEARCH_PARTIAL).unwrap();
        assert!(missing.is_none());
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        let dir = tmp("fp");
        let c = ctx(&dir, 1, None);
        c.save(CrashStage::Train, TRAIN_DONE, &7usize).unwrap();
        let other = ctx(&dir, 2, None);
        let err = other.load::<usize>(TRAIN_DONE).unwrap_err();
        assert!(matches!(err, CkptError::Invalid { .. }), "{err:?}");
        assert!(err.to_string().contains("different design"));
    }

    #[test]
    fn crash_point_fires_after_the_nth_stage_write() {
        let dir = tmp("crash");
        let c = ctx(&dir, 9, Some(CrashPoint::after_train_writes(2)));
        c.save(CrashStage::Train, TRAIN_PARTIAL, &1usize).unwrap();
        // Search writes do not advance the train counter.
        c.save(CrashStage::Search, SEARCH_PARTIAL, &1usize).unwrap();
        let err = c
            .save(CrashStage::Train, TRAIN_PARTIAL, &2usize)
            .unwrap_err();
        assert!(matches!(err, CkptError::Io { .. }));
        // The write itself completed before the injected failure: the
        // file on disk holds the *new* value, like a real post-write kill.
        let back: usize = c.load(TRAIN_PARTIAL).unwrap().unwrap();
        assert_eq!(back, 2);
    }

    #[test]
    // why: plants torn .tmp orphans on purpose — the sweep under test
    // exists to clean up exactly such non-envelope debris.
    #[allow(clippy::disallowed_methods)]
    fn stale_tmp_orphans_are_swept_on_open() {
        let dir = tmp("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("train.ckpt.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("search.ckpt.tmp"), b"torn too").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"keep me").unwrap();
        let c = ctx(&dir, 5, None);
        assert_eq!(c.stale_tmp_removed(), 2);
        assert!(!dir.join("train.ckpt.tmp").exists());
        assert!(dir.join("unrelated.txt").exists());
        let notes = c.take_notes();
        assert!(notes.iter().any(|n| n.contains("stale")), "{notes:?}");
    }

    #[test]
    fn disk_full_disables_checkpointing_instead_of_failing() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind};
        let dir = tmp("degrade");
        let c = ctx_with(
            &dir,
            Vfs::with_plan(FailPlan::new(FaultKind::Enospc, 1).on(OpKind::Write)),
        );
        assert!(!c.disabled());
        // The failing write degrades instead of erroring...
        c.save(CrashStage::Train, TRAIN_PARTIAL, &1usize).unwrap();
        assert!(c.disabled());
        assert_eq!(c.writes(), 0);
        // ...and later saves become silent no-ops (plan is spent, but the
        // context stays disabled: one failure means the disk is suspect).
        c.save(CrashStage::Train, TRAIN_DONE, &2usize).unwrap();
        assert_eq!(c.writes(), 0);
        assert!(!dir.join(TRAIN_DONE).exists());
        let notes = c.take_notes();
        assert!(
            notes.iter().any(|n| n.contains("disabled")),
            "expected a disable note, got {notes:?}"
        );
    }

    #[test]
    fn crash_marked_write_fault_still_propagates() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind};
        let dir = tmp("crashfault");
        let c = ctx_with(
            &dir,
            Vfs::with_plan(FailPlan::new(FaultKind::CrashAfter, 1).on(OpKind::Rename)),
        );
        let err = c
            .save(CrashStage::Train, TRAIN_PARTIAL, &1usize)
            .unwrap_err();
        assert!(matches!(err, CkptError::Io { .. }), "{err:?}");
        assert!(mmp_vfs::is_crash_detail(&err.to_string()));
        assert!(!c.disabled(), "a crash is death, not degradation");
    }

    #[test]
    fn dir_fsync_failure_is_counted_once_and_not_fatal() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind};
        let dir = tmp("dirfsync");
        // Fsync ops per save: temp file (odd), directory (even). Fail the
        // first directory fsync.
        let c = ctx_with(
            &dir,
            Vfs::with_plan(FailPlan::new(FaultKind::Eio, 2).on(OpKind::Fsync)),
        );
        c.save(CrashStage::Train, TRAIN_PARTIAL, &1usize).unwrap();
        assert!(!c.disabled());
        assert_eq!(c.writes(), 1, "the write itself is durable and counted");
        let notes = c.take_notes();
        assert!(
            notes.iter().any(|n| n.contains("fsync")),
            "expected a dir-fsync note, got {notes:?}"
        );
    }

    #[test]
    fn fingerprint_ignores_budget_and_crash_knob_but_not_config() {
        use std::time::Duration;
        let d = mmp_netlist::SyntheticSpec::small("fp", 5, 0, 8, 40, 70, false, 2).generate();
        let cfg = PlacerConfig::fast(4);
        let base = fingerprint(&d, &cfg);
        let mut budgeted = cfg.clone();
        budgeted.budget = RunBudget::with_total(Duration::ZERO);
        budgeted.fault_crash = Some(CrashPoint::after_train_writes(1));
        budgeted.workers = 4;
        budgeted.fault_pool_panic = Some(0);
        assert_eq!(fingerprint(&d, &budgeted), base);
        let mut different = cfg.clone();
        different.trainer.episodes += 1;
        assert_ne!(fingerprint(&d, &different), base);
        let other = mmp_netlist::SyntheticSpec::small("fp2", 5, 0, 8, 40, 70, false, 2).generate();
        assert_ne!(fingerprint(&other, &cfg), base);
    }
}
