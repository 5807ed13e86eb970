//! Crash-consistency torture: enumerate every write boundary of a run,
//! then replay the run once per boundary with a disk fault injected
//! exactly there.
//!
//! A *write boundary* is one mutation operation through the
//! [`mmp_vfs::Vfs`] chokepoint — a file creation, a payload write, an
//! fsync, a rename, or a removal. The enumeration is exact, not sampled:
//! a clean run under [`Vfs::recording`] counts its boundaries, and the
//! torture loop replays the run `N` times, arming a one-shot
//! [`FailPlan`] at boundary 1, 2, …, N in turn.
//!
//! Two fault flavours are driven at every boundary:
//!
//! * **crash** ([`FaultKind::CrashAfter`]) — the op completes on disk,
//!   then the run is killed by a crash-marked error. The invariant: the
//!   kill surfaces as a typed checkpoint error (exit 16), and a resume
//!   over the surviving on-disk state is **bitwise identical** to the
//!   uninterrupted baseline — HPWL bits, macro coordinate bits, and the
//!   group assignment.
//! * **disk full** ([`FaultKind::Enospc`]) — the op fails cleanly. The
//!   invariant: the run *completes* (checkpointing degrades, the
//!   placement does not), the result is bitwise identical to baseline,
//!   and the degradation report names the checkpoint stage.
//!
//! The daemon variant does the same over one `mmpd` job: every journal
//! and ladder boundary is crashed in turn, the daemon life is ended, and
//! a second life (plus an idempotent resubmission) must deliver the
//! baseline bits — the journal may quarantine, it must never corrupt.

use mmp_core::{
    CheckpointPlan, FailPlan, FaultKind, MacroPlacer, PlacementResult, PlacerConfig, Stage,
    SyntheticSpec, Vfs,
};
use mmp_netlist::{Design, MacroId};
use mmp_serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};

/// What one torture sweep found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TortureReport {
    /// Write boundaries the clean run performed (and the sweep covered).
    pub boundaries: u64,
    /// One human-readable line per violated invariant; empty on success.
    pub failures: Vec<String>,
}

impl TortureReport {
    /// `true` when every boundary upheld every invariant.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The torture fixture: small enough that `2 × boundaries` full flow
/// runs stay in CI-friendly time, checkpointed densely enough that every
/// envelope kind (partial, done, train, search) contributes boundaries.
/// One macro per group gives [`fixture_design`] twelve groups, so the
/// search writes its partial checkpoint after group 10
/// (`mmp_mcts::SEARCH_CHECKPOINT_GROUPS`) and then searches on.
fn fixture_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast(4);
    cfg.trainer.episodes = 2;
    cfg.trainer.calibration_episodes = 2;
    cfg.trainer.update_every = 1;
    cfg.trainer.group_macros = false;
    cfg.mcts.explorations = 4;
    cfg
}

fn fixture_design() -> Design {
    SyntheticSpec::small("torture", 12, 0, 8, 40, 70, false, 11).generate()
}

/// The partial search checkpoint's file name in a checkpoint directory.
const SEARCH_PARTIAL: &str = "search.ckpt";

/// A per-run scratch directory, wiped before use.
fn scratch(tag: &str, sub: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmp-torture-{tag}-{sub}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(hpwl_bits, per-macro coordinate bits)` of a flow result — the
/// bitwise identity the resume contract promises.
fn result_bits(design: &Design, r: &PlacementResult) -> (u64, Vec<(u64, u64)>) {
    let macros = (0..design.macros().len())
        .map(|i| {
            let c = r.placement.macro_center(MacroId::from_index(i));
            (c.x.to_bits(), c.y.to_bits())
        })
        .collect();
    (r.hpwl.to_bits(), macros)
}

fn leftover_tmps(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .count()
}

/// Tortures one full checkpointed flow run: every write boundary is hit
/// once with a crash (then resumed) and once with a clean disk-full
/// failure. See the module docs for the invariants.
pub fn torture_flow(tag: &str) -> TortureReport {
    let design = fixture_design();

    // Clean recording run: the baseline bits and the boundary count.
    let rec = Vfs::recording();
    let base_dir = scratch(tag, "baseline");
    let baseline = match MacroPlacer::new(fixture_config())
        .with_checkpoints(CheckpointPlan::new(&base_dir))
        .with_vfs(rec.clone())
        .place(&design)
    {
        Ok(r) => r,
        Err(e) => {
            return TortureReport {
                boundaries: 0,
                failures: vec![format!("baseline checkpointed run refused: {e}")],
            }
        }
    };
    let boundaries = rec.mutation_ops();
    let base_bits = result_bits(&design, &baseline);
    let mut failures = Vec::new();
    if boundaries == 0 {
        failures.push("recording run saw zero write boundaries".to_owned());
    }
    if !base_dir.join(SEARCH_PARTIAL).is_file() {
        failures.push(format!(
            "recording run wrote no {SEARCH_PARTIAL}: the fixture crosses no mid-search boundary"
        ));
    }

    for b in 1..=boundaries {
        // Crash at boundary b: the op lands, the run dies right after.
        let dir = scratch(tag, &format!("crash-{b}"));
        let killed = MacroPlacer::new(fixture_config())
            .with_checkpoints(CheckpointPlan::new(&dir))
            .with_vfs(Vfs::with_plan(FailPlan::new(FaultKind::CrashAfter, b)))
            .place(&design);
        match killed {
            Err(e) if e.exit_code() == 16 && e.stage().name() == "checkpoint" => {}
            Err(e) => failures.push(format!(
                "crash at boundary {b}: wrong error shape (stage {}, exit {}): {e}",
                e.stage().name(),
                e.exit_code()
            )),
            Ok(_) => failures.push(format!(
                "crash at boundary {b} did not kill the run (plan never fired?)"
            )),
        }
        // Resume over whatever the crash left on disk.
        match MacroPlacer::new(fixture_config())
            .with_checkpoints(CheckpointPlan::resume(&dir))
            .place(&design)
        {
            Ok(r) => {
                if result_bits(&design, &r) != base_bits || r.assignment != baseline.assignment {
                    failures.push(format!(
                        "resume after crash at boundary {b} diverged from baseline bits"
                    ));
                }
                if leftover_tmps(&dir) != 0 {
                    failures.push(format!(
                        "resume after crash at boundary {b} left a .tmp orphan behind"
                    ));
                }
            }
            Err(e) => failures.push(format!("resume after crash at boundary {b} refused: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Disk full at boundary b: the run must complete and degrade.
        let dir = scratch(tag, &format!("enospc-{b}"));
        match MacroPlacer::new(fixture_config())
            .with_checkpoints(CheckpointPlan::new(&dir))
            .with_vfs(Vfs::with_plan(FailPlan::new(FaultKind::Enospc, b)))
            .place(&design)
        {
            Ok(r) => {
                if result_bits(&design, &r) != base_bits || r.assignment != baseline.assignment {
                    failures.push(format!(
                        "disk-full at boundary {b}: completed run diverged from baseline bits"
                    ));
                }
                if !r.degradation.affects(Stage::Checkpoint) {
                    failures.push(format!(
                        "disk-full at boundary {b}: no checkpoint-stage degradation was recorded"
                    ));
                }
            }
            Err(e) => failures.push(format!(
                "disk-full at boundary {b} aborted the run instead of degrading: {e}"
            )),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
    TortureReport {
        boundaries,
        failures,
    }
}

// ----- daemon torture ---------------------------------------------------

/// The torture daemon: one worker, tiny deterministic flow defaults, no
/// policy cache (every life must run the same plain flow). The job's
/// fourteen macros fall into eleven groups at ζ = 6, so its search writes
/// one partial checkpoint, after group 10.
fn torture_serve_config(state_dir: PathBuf) -> ServeConfig {
    let mut cfg = crate::serve_config(state_dir, 1);
    cfg.defaults.episodes = Some(2);
    cfg.defaults.explorations = Some(4);
    cfg
}

const TORTURE_JOB_ID: &str = "torture-job";

fn torture_job_line() -> String {
    format!(
        r#"{{"op":"submit","id":"{TORTURE_JOB_ID}","design":{{"spec":[14,0,8,40,70],"seed":11}},"zeta":6,"update_every":1}}"#
    )
}

/// Bounded poll for a terminal response (done or typed error). Returns
/// `None` if the job never terminates — which the torture loop reports
/// as a hang, the one shape the contract forbids alongside panics.
fn poll_terminal(server: &Server, id: &str) -> Option<String> {
    for _ in 0..6_000 {
        let resp = server.handle_request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
        if resp.contains(r#""state":"done""#)
            || (resp.contains(r#""ok":false"#) && !resp.contains("unknown-job"))
        {
            return Some(resp);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    None
}

/// One daemon life against `dir` with fault plan `vfs`: submit the
/// torture job, ride it to a terminal response (or a typed admission
/// rejection), end the life. Returns what the client saw, if anything.
fn daemon_life_one(dir: PathBuf, vfs: Vfs) -> Result<Option<String>, String> {
    let life = match Server::start_with_vfs(torture_serve_config(dir), vfs) {
        Ok(s) => s,
        // A typed startup refusal is a legal outcome of a crash inside
        // the journal-open boundaries; life 2 recovers from it.
        Err(_) => return Ok(None),
    };
    let resp = life.handle_request(&torture_job_line());
    let seen = if resp.contains(r#""ok":false"#) {
        Some(resp)
    } else {
        poll_terminal(&life, TORTURE_JOB_ID)
    };
    life.abort();
    match seen {
        Some(line) => Ok(Some(line)),
        None => Err("job never reached a terminal state in life 1".to_owned()),
    }
}

/// Tortures one daemon job: every journal + ladder write boundary is
/// crashed in turn; a second daemon life (plus an idempotent
/// resubmission) must deliver the baseline bits.
pub fn torture_daemon(tag: &str) -> TortureReport {
    // Clean recording life: baseline bits and the boundary count.
    let dir = scratch(tag, "baseline");
    let rec = Vfs::recording();
    let baseline = (|| -> Result<String, String> {
        let server = Server::start_with_vfs(torture_serve_config(dir.clone()), rec.clone())
            .map_err(|e| format!("baseline daemon failed to start: {e}"))?;
        server.handle_request(&torture_job_line());
        let done = poll_terminal(&server, TORTURE_JOB_ID);
        server.drain();
        done.ok_or_else(|| "baseline job never finished".to_owned())
    })();
    let crossed_search_partial = dir
        .join("jobs")
        .join(TORTURE_JOB_ID)
        .join("ckpt")
        .join(SEARCH_PARTIAL)
        .is_file();
    let _ = std::fs::remove_dir_all(&dir);
    let base_line = match baseline {
        Ok(line) if line.contains(r#""state":"done""#) => line,
        Ok(line) => {
            return TortureReport {
                boundaries: 0,
                failures: vec![format!("baseline daemon job ended badly: {line}")],
            }
        }
        Err(e) => {
            return TortureReport {
                boundaries: 0,
                failures: vec![e],
            }
        }
    };
    let boundaries = rec.mutation_ops();
    let base_hpwl = crate::hpwl_bits_of_line(&base_line);
    let base_macros = crate::macro_bits_of_line(&base_line);
    let mut failures = Vec::new();
    if !crossed_search_partial {
        failures.push(format!(
            "baseline job wrote no {SEARCH_PARTIAL}: the fixture crosses no mid-search boundary"
        ));
    }

    for b in 1..=boundaries {
        let dir = scratch(tag, &format!("crash-{b}"));
        let vfs = Vfs::with_plan(FailPlan::new(FaultKind::CrashAfter, b));
        if let Err(e) = daemon_life_one(dir.clone(), vfs) {
            failures.push(format!("crash at boundary {b}: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        }
        // Life 2 over the survived journal: scan (quarantining damage,
        // sweeping orphans), replay, and an idempotent resubmission.
        let life2 = match Server::start(torture_serve_config(dir.clone())) {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!(
                    "crash at boundary {b}: life 2 failed to start: {e}"
                ));
                let _ = std::fs::remove_dir_all(&dir);
                continue;
            }
        };
        life2.handle_request(&torture_job_line());
        let done = poll_terminal(&life2, TORTURE_JOB_ID);
        life2.drain();
        match done {
            Some(line) if line.contains(r#""state":"done""#) => {
                if crate::hpwl_bits_of_line(&line) != base_hpwl
                    || crate::macro_bits_of_line(&line) != base_macros
                {
                    failures.push(format!(
                        "crash at boundary {b}: life 2 answer diverged from baseline bits"
                    ));
                }
            }
            Some(line) => {
                failures.push(format!("crash at boundary {b}: life 2 ended badly: {line}"))
            }
            None => failures.push(format!(
                "crash at boundary {b}: job never terminated in life 2"
            )),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    TortureReport {
        boundaries,
        failures,
    }
}
