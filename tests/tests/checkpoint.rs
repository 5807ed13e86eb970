//! End-to-end crash/resume integration: an interrupted-then-resumed run
//! must be bitwise identical to an uninterrupted one, across clean,
//! fault-injected and budget-starved variants, and damaged checkpoints
//! must surface as typed errors (exit code 16) — never panics.

use mmp_core::{
    CheckpointPlan, CrashPoint, MacroPlacer, PlaceError, PlacementResult, PlacerConfig, RunBudget,
    Stage, SyntheticSpec,
};
use mmp_mcts::SEARCH_CHECKPOINT_GROUPS;
use mmp_netlist::Design;
use std::path::PathBuf;
use std::time::Duration;

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmp-it-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast(4);
    cfg.trainer.episodes = 6;
    cfg.trainer.update_every = 2;
    cfg.mcts.explorations = 6;
    cfg
}

fn small_design(name: &str, seed: u64) -> Design {
    SyntheticSpec::small(name, 5, 0, 8, 40, 70, false, seed).generate()
}

/// [`small_config`] with one macro per group, so a design of `n` movable
/// macros searches `n` groups and crosses a partial search checkpoint
/// once `n` reaches [`SEARCH_CHECKPOINT_GROUPS`].
fn per_macro_config() -> PlacerConfig {
    let mut cfg = small_config();
    cfg.trainer.group_macros = false;
    cfg
}

fn per_macro_design(name: &str, macros: usize, seed: u64) -> Design {
    SyntheticSpec::small(name, macros, 0, 8, 40, 70, false, seed).generate()
}

/// Runs to the typed crash error, then resumes and returns the result.
fn crash_then_resume(
    design: &Design,
    cfg: &PlacerConfig,
    dir: &PathBuf,
    crash: CrashPoint,
) -> PlacementResult {
    let mut crash_cfg = cfg.clone();
    crash_cfg.fault_crash = Some(crash);
    let err = MacroPlacer::new(crash_cfg)
        .with_checkpoints(CheckpointPlan::new(dir))
        .place(design)
        .unwrap_err();
    assert!(
        matches!(err, PlaceError::Checkpoint(_)),
        "injected crash must be a typed checkpoint error, got {err}"
    );
    assert_eq!(err.exit_code(), 16);
    MacroPlacer::new(cfg.clone())
        .with_checkpoints(CheckpointPlan::resume(dir))
        .place(design)
        .unwrap()
}

#[test]
fn clean_interrupted_run_resumes_bitwise_identically() {
    // Twelve groups: the first search-stage write is the partial
    // checkpoint after group 10, not the done marker.
    let design = per_macro_design("it_ck_clean", 12, 21);
    let cfg = per_macro_config();
    let baseline = MacroPlacer::new(cfg.clone()).place(&design).unwrap();
    assert!(baseline.assignment.len() > SEARCH_CHECKPOINT_GROUPS);

    for (label, crash, resumes) in [
        ("train", CrashPoint::after_train_writes(1), vec!["train"]),
        (
            "search",
            CrashPoint::after_search_writes(1),
            vec!["train-done", "search"],
        ),
    ] {
        let dir = ckpt_dir(label);
        let resumed = crash_then_resume(&design, &cfg, &dir, crash);
        assert_eq!(resumed.checkpoint.resumes, resumes, "kill-mid-{label}");
        assert_eq!(resumed.hpwl, baseline.hpwl, "kill-mid-{label}");
        assert_eq!(resumed.assignment, baseline.assignment, "kill-mid-{label}");
        assert_eq!(resumed.placement, baseline.placement, "kill-mid-{label}");
        assert_eq!(resumed.training, baseline.training, "kill-mid-{label}");
        assert!(
            !resumed.checkpoint.resumes.is_empty(),
            "kill-mid-{label}: resume must be recorded"
        );
        assert!(
            resumed.degradation.affects(Stage::Checkpoint),
            "kill-mid-{label}: resume must appear in the degradation report"
        );
    }
}

#[test]
fn fault_injected_variant_survives_repeated_crashes() {
    // Crash on the *second* stage write too: a later partial checkpoint
    // must supersede the earlier one and still resume bitwise.
    let design = small_design("it_ck_late", 22);
    let cfg = small_config();
    let baseline = MacroPlacer::new(cfg.clone()).place(&design).unwrap();
    let dir = ckpt_dir("late");
    let resumed = crash_then_resume(&design, &cfg, &dir, CrashPoint::after_train_writes(2));
    assert_eq!(resumed.hpwl, baseline.hpwl);
    assert_eq!(resumed.assignment, baseline.assignment);
}

#[test]
fn zero_budget_crash_resumes_under_a_generous_budget() {
    // Budgets are deliberately excluded from the checkpoint fingerprint: a
    // run killed under a starved budget may be resumed with a bigger
    // allowance. The resumed run must match a baseline that ran under the
    // *same starved train budget* (the checkpointed stage), because resume
    // replays the recorded training, not the new budget's. Twelve groups
    // put the crash after the partial search checkpoint of group 10.
    let design = per_macro_design("it_ck_budget", 12, 23);
    let mut starved = per_macro_config();
    starved.budget.train = Some(Duration::ZERO);
    let baseline = MacroPlacer::new(starved.clone()).place(&design).unwrap();
    assert!(baseline.degradation.affects(Stage::Train));

    let dir = ckpt_dir("budget");
    let mut crash_cfg = starved.clone();
    crash_cfg.fault_crash = Some(CrashPoint::after_search_writes(1));
    let err = MacroPlacer::new(crash_cfg)
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(&design)
        .unwrap_err();
    assert_eq!(err.exit_code(), 16, "{err}");

    let mut generous = starved;
    generous.budget = RunBudget::default();
    let resumed = MacroPlacer::new(generous)
        .with_checkpoints(CheckpointPlan::resume(&dir))
        .place(&design)
        .unwrap();
    assert_eq!(resumed.checkpoint.resumes, ["train-done", "search"]);
    assert_eq!(resumed.hpwl, baseline.hpwl);
    assert_eq!(resumed.assignment, baseline.assignment);
    assert_eq!(resumed.training, baseline.training);
}

#[test]
fn resume_on_an_empty_directory_runs_fresh() {
    let design = small_design("it_ck_fresh", 24);
    let cfg = small_config();
    let baseline = MacroPlacer::new(cfg.clone()).place(&design).unwrap();
    let dir = ckpt_dir("fresh");
    let result = MacroPlacer::new(cfg)
        .with_checkpoints(CheckpointPlan::resume(&dir))
        .place(&design)
        .unwrap();
    assert_eq!(result.hpwl, baseline.hpwl);
    assert!(result.checkpoint.resumes.is_empty());
    assert!(result.checkpoint.writes > 0);
}

#[test]
fn last_search_checkpoint_holds_only_the_terminal_node() {
    // Each search checkpoint carries the live subtree under the committed
    // action; after the last group that is a single terminal node, while
    // the run's node count still covers every node the search allocated.
    // Ten groups put the one partial checkpoint after the last group.
    let design = per_macro_design("it_ck_live", SEARCH_CHECKPOINT_GROUPS, 25);
    let dir = ckpt_dir("live");
    let result = MacroPlacer::new(per_macro_config())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(&design)
        .unwrap();
    let payload = mmp_ckpt::read(&dir.join("search.ckpt")).unwrap();
    let json = payload.get(8..).expect("fingerprint-prefixed payload");
    let ck: mmp_mcts::SearchCheckpoint = serde_json::from_slice(json).unwrap();
    assert_eq!(ck.groups_done, result.assignment.len());
    assert_eq!((ck.tree.root(), ck.tree.len()), (0, 1));
    assert_eq!(ck.tree.allocated(), result.mcts_stats.nodes);
    assert!(result.mcts_stats.nodes > 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_search_shorter_than_one_checkpoint_interval_writes_only_its_done_marker() {
    // Nine groups end the search before its first partial checkpoint is
    // due: the completed-search marker is the stage's one file.
    let design = per_macro_design("it_ck_short", SEARCH_CHECKPOINT_GROUPS - 1, 26);
    let dir = ckpt_dir("short");
    let result = MacroPlacer::new(per_macro_config())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(&design)
        .unwrap();
    assert_eq!(result.assignment.len(), SEARCH_CHECKPOINT_GROUPS - 1);
    let search_files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("search"))
        .collect();
    assert_eq!(search_files, ["search-done.ckpt"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_checkpoints_are_typed_errors_never_panics() {
    let design = small_design("it_ck_damage", 25);
    let cfg = small_config();
    let dir = ckpt_dir("damage");
    MacroPlacer::new(cfg.clone())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(&design)
        .unwrap();
    let target = dir.join("train-done.ckpt");
    let pristine = std::fs::read(&target).unwrap();

    // Torn write: every strict prefix must be refused with exit code 16.
    for cut in [0, 1, pristine.len() / 2, pristine.len() - 1] {
        tamper(&target, &pristine[..cut]);
        expect_checkpoint_error(&design, &cfg, &dir, &format!("truncated to {cut} bytes"));
    }

    // Bit rot in the payload: the checksum must catch it.
    let mut rotten = pristine.clone();
    let last = rotten.len() - 1;
    rotten[last] ^= 0x40;
    tamper(&target, &rotten);
    expect_checkpoint_error(&design, &cfg, &dir, "payload bit flip");

    // A damaged magic number must be refused too.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    tamper(&target, &bad_magic);
    expect_checkpoint_error(&design, &cfg, &dir, "bad magic");

    // Restoring the pristine bytes makes the resume work again.
    tamper(&target, &pristine);
    let resumed = MacroPlacer::new(cfg)
        .with_checkpoints(CheckpointPlan::resume(&dir))
        .place(&design)
        .unwrap();
    assert!(!resumed.checkpoint.resumes.is_empty());
}

// Simulating on-disk damage is the point of this test; the atomic
// `mmp_ckpt::write` envelope would refuse to produce these byte patterns.
#[allow(clippy::disallowed_methods)]
fn tamper(path: &std::path::Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
}

fn expect_checkpoint_error(design: &Design, cfg: &PlacerConfig, dir: &PathBuf, what: &str) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        MacroPlacer::new(cfg.clone())
            .with_checkpoints(CheckpointPlan::resume(dir))
            .place(design)
    }));
    let err = outcome
        .unwrap_or_else(|_| panic!("{what}: resume panicked instead of returning a typed error"))
        .unwrap_err();
    assert_eq!(err.exit_code(), 16, "{what}: {err}");
    assert_eq!(err.stage(), Stage::Checkpoint, "{what}");
}
