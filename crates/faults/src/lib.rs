#![warn(missing_docs)]
// Hardened crate: panicking extractors are denied in CI on library code
// (tests may unwrap freely).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Structured output goes through mmp_obs; stray prints are denied in CI
// (the obs sinks and bin/ targets are the sanctioned exits).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Seeded fault-injection harness for the hardened placement flow.
//!
//! The robustness contract of [`mmp_core::MacroPlacer::place`] is: for any
//! input — corrupt files, poisoned numerics, exhausted budgets, injected
//! stage failures — the flow either returns a typed [`mmp_core::PlaceError`]
//! or a **legal** placement whose [`mmp_core::DegradationReport`] names
//! every fallback taken. It never panics.
//!
//! This crate turns that contract into an executable matrix. Each
//! [`ScenarioKind`] describes one way a run can go wrong; [`run_scenario`]
//! injects the fault deterministically (all randomness flows from a
//! [`FaultRng`] seeded by the caller) and classifies what happened as an
//! [`Outcome`]. The `matrix` integration test drives every scenario under
//! `catch_unwind` and asserts the per-scenario invariants.
//!
//! The injector picks *fault sites* pseudo-randomly — which byte to cut,
//! which digit to garble, which design seed to use — so different seeds
//! exercise different corruption points while any single seed replays
//! exactly.
//!
//! The serving scenarios extend the same contract to the `mmpd` daemon
//! ([`mmp_serve::Server`]): adversarial request lines, queue-overflow
//! bursts, clients that hang up mid-job, and daemon lives that end
//! mid-job all must yield a typed rejection or a stored report whose
//! recovery is bitwise-identical — never a panic, a hang, or a lost job.

pub mod torture;

use mmp_core::{
    CheckpointPlan, CrashPoint, Design, FailPlan, FaultKind, MacroPlacer, OpKind, PlacerConfig,
    RewardKind, RewardScale, RunBudget, Stage, SwapRefineConfig, SyntheticSpec, Vfs,
};
use mmp_netlist::{bookshelf, MacroId};
use mmp_serve::{BackoffConfig, DesignSpec, JobDefaults, JobRequest, ServeConfig, Server};
use serde::{map_get, Value};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Deterministic splitmix64 stream used to choose fault sites.
///
/// Small and dependency-free on purpose: the harness must be reproducible
/// from a single `u64` seed with no global state.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultRng(seed)
    }

    /// Next raw value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n = 0` maps to 0).
    pub fn pick(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// One way a placement run can go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Bookshelf stream cut mid-net-line: the declared degree no longer
    /// matches the pins present.
    TruncatedBookshelf,
    /// One digit inside the NETS section replaced by a letter.
    GarbledNumber,
    /// A net references a node that was never declared.
    UnknownNetNode,
    /// NaN poison in the gradients of the first optimizer chunk; the
    /// update-rejection guard must drop it and training must continue.
    PoisonedGradients,
    /// NaN priors fed to the MCTS; the search must fall back to uniform
    /// priors and report the NaN evaluations.
    NanPriors,
    /// The sequence-pair legalizer is forced to fail; the row-greedy shelf
    /// fallback must still produce a legal placement.
    SequencePairFailure,
    /// Total wall-clock budget of zero: every stage degrades, the flow
    /// still completes legally.
    ZeroTotalBudget,
    /// Zero training allowance only.
    ZeroTrainBudget,
    /// Zero search allowance only.
    ZeroSearchBudget,
    /// Zero legalization allowance only.
    ZeroLegalizeBudget,
    /// Swap refinement requested with a zero allowance: the stage must
    /// degrade (no proposals drawn) and pass the committed placement
    /// through untouched.
    ZeroRefineBudget,
    /// Macros that cannot fit the region: a typed preprocess error.
    InfeasibleDesign,
    /// Network grid ζ disagrees with the environment grid: a typed train
    /// error.
    ZetaMismatch,
    /// `ensemble_runs = 0`: a typed search error.
    ZeroEnsembleRuns,
    /// Reward calibration from identical wirelengths (zero spread): the
    /// Eq. 9 denominator guard must keep rewards finite.
    ZeroSpreadCalibration,
    /// Process killed right after the first training-stage checkpoint
    /// write; `--resume` must continue to a bitwise-identical result.
    KillMidTrain,
    /// Process killed right after the first search-stage checkpoint
    /// write, the partial `search.ckpt` after group 10 of a twelve-group
    /// search; `--resume` must continue the search to a bitwise-identical
    /// result.
    KillMidSearch,
    /// A checkpoint file cut short on disk: resume must refuse it with a
    /// typed checkpoint error, never a panic or a garbage placement.
    TruncatedCheckpoint,
    /// One flipped payload byte in a checkpoint: the CRC must catch it.
    CorruptCheckpoint,
    /// A checkpoint written by a newer format version: resume must refuse
    /// it as unsupported rather than misread it.
    StaleCheckpointVersion,
    /// A request line cut short before the daemon can parse it: the
    /// response must be a typed `bad-request` rejection, never a hangup
    /// or a panic.
    MalformedRequest,
    /// More submissions than the bounded queue holds: the overflow must
    /// get typed `queue-full` rejections and the rejected jobs must be
    /// rolled back (unknown afterwards), never silently queued.
    QueueFullBurst,
    /// The client hangs up right after firing a blocking `place`: the
    /// daemon must finish the orphaned job and store its report anyway.
    ClientDisconnectMidJob,
    /// The daemon dies mid-job (admitted, checkpoints written, no
    /// report); the next daemon life must replay the journal and resume
    /// to the exact bits of an uninterrupted run.
    KillDaemonMidJob,
    /// A compute-pool worker panics inside the ensemble fan-out: the
    /// flow must surface a typed (transient) search error, never a hang
    /// on a dead worker or an unwind across the pool boundary.
    PoolWorkerPanic,
    /// The disk fills while the first training checkpoint is being
    /// written: the flow must disable checkpointing, record the
    /// degradation, and still finish bitwise-identical to a run that
    /// never checkpointed.
    DiskFullMidTrainCkpt,
    /// An fsync (file or directory) fails with EIO mid-ladder: the run
    /// must complete with a checkpoint-stage degradation entry, never
    /// abort.
    EioOnFsync,
    /// The atomic rename of a checkpoint envelope fails, stranding the
    /// fully-written `.tmp` file: the run degrades, and the next run
    /// over the same directory sweeps the orphan.
    TornRename,
    /// A journal request record is torn mid-write: the daemon must
    /// reject the submission with a typed error, and the next daemon
    /// life must quarantine the damage and sweep the orphan — never
    /// parse garbage.
    PartialJournalWrite,
    /// The disk fills while a daemon job writes its checkpoint ladder:
    /// the job must complete (checkpointing degraded) with the same bits
    /// as a direct baseline run.
    DiskFullMidJob,
}

impl ScenarioKind {
    /// Every scenario, in matrix order.
    pub const ALL: [ScenarioKind; 30] = [
        ScenarioKind::TruncatedBookshelf,
        ScenarioKind::GarbledNumber,
        ScenarioKind::UnknownNetNode,
        ScenarioKind::PoisonedGradients,
        ScenarioKind::NanPriors,
        ScenarioKind::SequencePairFailure,
        ScenarioKind::ZeroTotalBudget,
        ScenarioKind::ZeroTrainBudget,
        ScenarioKind::ZeroSearchBudget,
        ScenarioKind::ZeroLegalizeBudget,
        ScenarioKind::ZeroRefineBudget,
        ScenarioKind::InfeasibleDesign,
        ScenarioKind::ZetaMismatch,
        ScenarioKind::ZeroEnsembleRuns,
        ScenarioKind::ZeroSpreadCalibration,
        ScenarioKind::KillMidTrain,
        ScenarioKind::KillMidSearch,
        ScenarioKind::TruncatedCheckpoint,
        ScenarioKind::CorruptCheckpoint,
        ScenarioKind::StaleCheckpointVersion,
        ScenarioKind::MalformedRequest,
        ScenarioKind::QueueFullBurst,
        ScenarioKind::ClientDisconnectMidJob,
        ScenarioKind::KillDaemonMidJob,
        ScenarioKind::PoolWorkerPanic,
        ScenarioKind::DiskFullMidTrainCkpt,
        ScenarioKind::EioOnFsync,
        ScenarioKind::TornRename,
        ScenarioKind::PartialJournalWrite,
        ScenarioKind::DiskFullMidJob,
    ];

    /// Short stable name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::TruncatedBookshelf => "truncated-bookshelf",
            ScenarioKind::GarbledNumber => "garbled-number",
            ScenarioKind::UnknownNetNode => "unknown-net-node",
            ScenarioKind::PoisonedGradients => "poisoned-gradients",
            ScenarioKind::NanPriors => "nan-priors",
            ScenarioKind::SequencePairFailure => "sequence-pair-failure",
            ScenarioKind::ZeroTotalBudget => "zero-total-budget",
            ScenarioKind::ZeroTrainBudget => "zero-train-budget",
            ScenarioKind::ZeroSearchBudget => "zero-search-budget",
            ScenarioKind::ZeroLegalizeBudget => "zero-legalize-budget",
            ScenarioKind::ZeroRefineBudget => "zero-refine-budget",
            ScenarioKind::InfeasibleDesign => "infeasible-design",
            ScenarioKind::ZetaMismatch => "zeta-mismatch",
            ScenarioKind::ZeroEnsembleRuns => "zero-ensemble-runs",
            ScenarioKind::ZeroSpreadCalibration => "zero-spread-calibration",
            ScenarioKind::KillMidTrain => "kill-mid-train",
            ScenarioKind::KillMidSearch => "kill-mid-search",
            ScenarioKind::TruncatedCheckpoint => "truncated-checkpoint",
            ScenarioKind::CorruptCheckpoint => "corrupt-checkpoint",
            ScenarioKind::StaleCheckpointVersion => "stale-checkpoint-version",
            ScenarioKind::MalformedRequest => "malformed-request",
            ScenarioKind::QueueFullBurst => "queue-full-burst",
            ScenarioKind::ClientDisconnectMidJob => "client-disconnect-mid-job",
            ScenarioKind::KillDaemonMidJob => "kill-daemon-mid-job",
            ScenarioKind::PoolWorkerPanic => "pool-worker-panic",
            ScenarioKind::DiskFullMidTrainCkpt => "disk-full-mid-train-ckpt",
            ScenarioKind::EioOnFsync => "eio-on-fsync",
            ScenarioKind::TornRename => "torn-rename",
            ScenarioKind::PartialJournalWrite => "partial-journal-write",
            ScenarioKind::DiskFullMidJob => "disk-full-mid-job",
        }
    }
}

/// What a scenario run produced, flattened to comparable data so two runs
/// of the same `(kind, seed)` can be asserted identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The flow completed with a placement.
    Placed {
        /// Degraded stage names (sorted, deduped), empty for a clean run.
        degraded: Vec<String>,
        /// Macro overlap < 1e-6 and all macros inside the region.
        legal: bool,
        /// The reported HPWL is a finite number.
        finite_hpwl: bool,
    },
    /// The flow refused the input with a typed stage error.
    Error {
        /// The failing stage's name.
        stage: String,
        /// The CLI exit code for this error (10–16).
        exit_code: u8,
        /// Human-readable message.
        message: String,
    },
    /// The reader refused the corrupted input before the flow ran.
    ParseError {
        /// Human-readable message (contains the line number).
        message: String,
    },
    /// A direct library-guard check (no full flow run).
    Check {
        /// Whether the guard held.
        ok: bool,
        /// What was checked.
        detail: String,
    },
}

/// One scenario's result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Which scenario ran.
    pub kind: ScenarioKind,
    /// Seed the injector was given.
    pub seed: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// A laptop-scale config small enough that the full scenario matrix
/// stays in CI-friendly time.
fn matrix_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast(4);
    cfg.trainer.episodes = 6;
    cfg.trainer.calibration_episodes = 3;
    cfg.mcts.explorations = 10;
    cfg
}

/// A small healthy design whose generator seed flows from the harness seed.
fn matrix_design(rng: &mut FaultRng) -> Design {
    let seed = 1 + (rng.next_u64() % 1000);
    SyntheticSpec::small("faults", 6, 0, 8, 40, 70, false, seed).generate()
}

/// Serializes `design` to bookshelf text (infallible for in-memory sinks).
fn bookshelf_text(design: &Design) -> String {
    let mut buf = Vec::new();
    if bookshelf::write(design, None, &mut buf).is_err() {
        return String::new();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Runs the placer and classifies the result.
fn run_flow(cfg: PlacerConfig, design: &Design) -> Outcome {
    match MacroPlacer::new(cfg).place(design) {
        Ok(r) => Outcome::Placed {
            degraded: r
                .degradation
                .degraded_stages()
                .iter()
                .map(|s| s.name().to_owned())
                .collect(),
            legal: r.placement.macro_overlap_area(design) < 1e-6
                && r.placement.macros_inside_region(design),
            finite_hpwl: r.hpwl.is_finite(),
        },
        Err(e) => Outcome::Error {
            stage: e.stage().name().to_owned(),
            exit_code: e.exit_code(),
            message: e.to_string(),
        },
    }
}

/// Parses corrupted bookshelf text and classifies the result. A successful
/// parse of corrupt input is reported as a (failing) `Check` so the matrix
/// test catches an injector that stopped injecting.
fn parse_corrupt(text: &str) -> Outcome {
    match bookshelf::read("corrupt", text.as_bytes()) {
        Err(e) => Outcome::ParseError {
            message: e.to_string(),
        },
        Ok(_) => Outcome::Check {
            ok: false,
            detail: "corrupted bookshelf text parsed cleanly".to_owned(),
        },
    }
}

/// Cuts `text` just past the first pin-node token of a pseudo-randomly
/// chosen net line, leaving exactly one token after the `:` — never a
/// multiple of 3, so the declared degree can't match the pins present.
fn truncate_in_nets(text: &str, rng: &mut FaultRng) -> String {
    let Some(nets_at) = text.find("\nNETS\n") else {
        return String::new();
    };
    let colons: Vec<usize> = text[nets_at..]
        .char_indices()
        .filter(|&(_, c)| c == ':')
        .map(|(i, _)| nets_at + i)
        .collect();
    if colons.is_empty() {
        return String::new();
    }
    let colon = colons[rng.pick(colons.len())];
    let tail = &text[colon + 1..];
    let token_start = tail.find(|c: char| !c.is_whitespace()).unwrap_or(0);
    let token_len = tail[token_start..]
        .find(char::is_whitespace)
        .unwrap_or(tail.len() - token_start);
    text[..colon + 1 + token_start + token_len].to_owned()
}

/// Replaces one pseudo-randomly chosen digit inside the NETS section with
/// a letter, so some numeric field no longer parses (or a node name no
/// longer resolves). Digits in a line's first token (the net *name*, which
/// the parser never resolves) are not candidate sites.
fn garble_in_nets(text: &str, rng: &mut FaultRng) -> String {
    let Some(nets_at) = text.find("\nNETS\n") else {
        return String::new();
    };
    let mut digits: Vec<usize> = Vec::new();
    let mut line_start = nets_at + "\nNETS\n".len();
    for line in text[line_start..].split_inclusive('\n') {
        let name_end = line.find(char::is_whitespace).unwrap_or(line.len());
        digits.extend(
            line.char_indices()
                .filter(|&(i, c)| i > name_end && c.is_ascii_digit())
                .map(|(i, _)| line_start + i),
        );
        line_start += line.len();
    }
    if digits.is_empty() {
        return String::new();
    }
    let site = digits[rng.pick(digits.len())];
    let mut bytes = text.as_bytes().to_vec();
    bytes[site] = b'x';
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A per-(scenario, seed) checkpoint directory, wiped before use so every
/// run starts from the same empty state.
fn checkpoint_dir(kind: ScenarioKind, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mmp-faults-{}-{}-{seed}",
        kind.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Overwrites `path` with raw bytes. Deliberately bypasses the atomic
/// `mmp_ckpt::write` envelope — simulating on-disk damage is the point.
// why: simulating on-disk damage requires bypassing the atomic envelope
#[allow(clippy::disallowed_methods)]
fn tamper_write(path: &Path, bytes: &[u8]) -> bool {
    std::fs::write(path, bytes).is_ok()
}

/// Kills a checkpointed run of `cfg` at `crash`, then resumes it and
/// compares the continuation against an uninterrupted baseline — the
/// resume contract is *bitwise* identity, not approximate quality. The
/// resume must take the `resumed_from` step of the checkpoint ladder.
fn kill_and_resume(
    kind: ScenarioKind,
    design: &Design,
    cfg: &PlacerConfig,
    crash: CrashPoint,
    resumed_from: &str,
    seed: u64,
) -> Outcome {
    let dir = checkpoint_dir(kind, seed);
    let baseline = match MacroPlacer::new(cfg.clone()).place(design) {
        Ok(r) => r,
        Err(e) => {
            return Outcome::Check {
                ok: false,
                detail: format!("baseline run refused a healthy design: {e}"),
            }
        }
    };
    let mut crash_cfg = cfg.clone();
    crash_cfg.fault_crash = Some(crash);
    let killed_as_typed_16 = match MacroPlacer::new(crash_cfg)
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(design)
    {
        Err(e) => e.exit_code() == 16 && e.stage().name() == "checkpoint",
        Ok(_) => false,
    };
    if !killed_as_typed_16 {
        return Outcome::Check {
            ok: false,
            detail: "injected kill did not surface as a typed checkpoint error (exit 16)"
                .to_owned(),
        };
    }
    match MacroPlacer::new(cfg.clone())
        .with_checkpoints(CheckpointPlan::resume(&dir))
        .place(design)
    {
        Ok(resumed) => Outcome::Check {
            ok: resumed.hpwl == baseline.hpwl
                && resumed.assignment == baseline.assignment
                && !resumed.checkpoint.resumes.is_empty()
                && resumed.checkpoint.resumes.iter().any(|r| r == resumed_from),
            detail: format!(
                "resumed hpwl {} vs baseline {} via {:?}",
                resumed.hpwl, baseline.hpwl, resumed.checkpoint.resumes
            ),
        },
        Err(e) => Outcome::Check {
            ok: false,
            detail: format!("resume after kill refused: {e}"),
        },
    }
}

/// Runs a full checkpointed flow, damages `train-done.ckpt` on disk in a
/// scenario-specific way, then classifies the resume attempt (which must
/// produce a typed checkpoint error).
fn tampered_checkpoint(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let design = matrix_design(rng);
    let dir = checkpoint_dir(kind, seed);
    if let Err(e) = MacroPlacer::new(matrix_config())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(&design)
    {
        return Outcome::Check {
            ok: false,
            detail: format!("checkpointed run refused a healthy design: {e}"),
        };
    }
    let target = dir.join("train-done.ckpt");
    let Ok(bytes) = std::fs::read(&target) else {
        return Outcome::Check {
            ok: false,
            detail: "train-done.ckpt missing after a completed checkpointed run".to_owned(),
        };
    };
    // The envelope header: magic + version + payload length + payload CRC
    // + header checksum.
    const HEADER: usize = 28;
    let tampered = match kind {
        ScenarioKind::TruncatedCheckpoint => {
            // Cut anywhere — mid-header and mid-payload must both refuse.
            let cut = 1 + rng.pick(bytes.len().saturating_sub(1));
            tamper_write(&target, &bytes[..cut])
        }
        ScenarioKind::CorruptCheckpoint => {
            let mut bad = bytes.clone();
            let site = HEADER + rng.pick(bad.len().saturating_sub(HEADER));
            bad[site] ^= 0x40;
            tamper_write(&target, &bad)
        }
        ScenarioKind::StaleCheckpointVersion => match mmp_ckpt::read(&target) {
            Ok(payload) => {
                mmp_ckpt::write_at_version(&target, &payload, mmp_ckpt::FORMAT_VERSION + 1).is_ok()
            }
            Err(_) => false,
        },
        _ => false,
    };
    if !tampered {
        return Outcome::Check {
            ok: false,
            detail: "injector failed to damage the checkpoint file".to_owned(),
        };
    }
    match MacroPlacer::new(matrix_config())
        .with_checkpoints(CheckpointPlan::resume(&dir))
        .place(&design)
    {
        Err(e) => Outcome::Error {
            stage: e.stage().name().to_owned(),
            exit_code: e.exit_code(),
            message: e.to_string(),
        },
        Ok(_) => Outcome::Check {
            ok: false,
            detail: "resume from a damaged checkpoint completed instead of refusing".to_owned(),
        },
    }
}

// ----- serving scenarios -----------------------------------------------

/// The daemon-side job defaults shared by every serving scenario — and,
/// crucially, by their direct baseline runs, so a daemon job and its
/// baseline execute exactly one config.
fn serve_defaults() -> JobDefaults {
    JobDefaults {
        zeta: 4,
        episodes: Some(4),
        explorations: Some(6),
        budget: None,
    }
}

/// A serving-scenario daemon over `state_dir`. Capacity is tiny on
/// purpose: the burst scenario needs to overflow it with a handful of
/// requests. Policy reuse is off so every daemon job is the plain flow
/// the direct baselines execute.
fn serve_config(state_dir: PathBuf, workers: usize) -> ServeConfig {
    ServeConfig {
        state_dir,
        workers,
        queue_capacity: 2,
        max_attempts: 3,
        max_budget_ms: None,
        max_design_nodes: 2_000_000,
        defaults: serve_defaults(),
        backoff: BackoffConfig {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
        },
        policy_cache: false,
        keep_completed: Some(1024),
        fault_io: None,
    }
}

fn check(ok: bool, detail: impl Into<String>) -> Outcome {
    Outcome::Check {
        ok,
        detail: detail.into(),
    }
}

/// A job request line for a small synthetic design whose generator seed
/// flows from the harness rng (mirrors [`matrix_design`]).
fn serve_job_line(op: &str, id: &str, rng: &mut FaultRng) -> String {
    let design_seed = 1 + (rng.next_u64() % 1000);
    format!(
        r#"{{"op":"{op}","id":"{id}","design":{{"spec":[6,0,8,40,70],"seed":{design_seed}}},"zeta":4,"episodes":6,"update_every":2,"explorations":10}}"#
    )
}

/// Polls the daemon for a job's terminal response line. Bounded by
/// iteration count rather than a deadline — the harness is wall-clock-free
/// by lint policy. `unknown-job` is tolerated (a hangup can race the
/// admission itself); anything else non-terminal keeps polling.
fn serve_poll_done(server: &Server, id: &str) -> Option<String> {
    for _ in 0..60_000 {
        let resp = server.handle_request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
        if resp.contains(r#""state":"done""#)
            || (resp.contains(r#""ok":false"#) && !resp.contains("unknown-job"))
        {
            return Some(resp);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

/// `report.hpwl` of a done line, as bits.
fn hpwl_bits_of_line(line: &str) -> Option<u64> {
    let v = serde_json::parse_value(line).ok()?;
    map_get(&v, "report")
        .and_then(|r| map_get(r, "hpwl"))
        .and_then(Value::as_f64)
        .map(f64::to_bits)
}

/// `(name, x_bits, y_bits)` rows of a done line's `macros` array.
fn macro_bits_of_line(line: &str) -> Option<Vec<(String, u64, u64)>> {
    let v = serde_json::parse_value(line).ok()?;
    let Some(Value::Seq(ms)) = map_get(&v, "macros") else {
        return None;
    };
    let mut rows = Vec::new();
    for m in ms {
        let Some(Value::Str(name)) = map_get(m, "name") else {
            return None;
        };
        let x = map_get(m, "x_bits").and_then(Value::as_u64)?;
        let y = map_get(m, "y_bits").and_then(Value::as_u64)?;
        rows.push((name.clone(), x, y));
    }
    Some(rows)
}

/// Scenario: a valid request line cut short at a pseudo-random byte (every
/// strict prefix of a JSON object is invalid, including the empty line).
/// The daemon must answer with a typed `bad-request`, not a hangup.
fn malformed_request(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let dir = checkpoint_dir(kind, seed);
    let server = match Server::start(serve_config(dir, 0)) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon failed to start: {e}")),
    };
    let valid = serve_job_line("submit", "victim", rng);
    // The line is ASCII, so any cut lands on a char boundary.
    let cut = rng.pick(valid.len());
    let resp = server.handle_request(&valid[..cut]);
    server.abort();
    if resp.contains(r#""ok":false"#) && resp.contains(r#""kind":"bad-request""#) {
        check(
            true,
            "truncated request line drew a typed bad-request rejection",
        )
    } else {
        check(
            false,
            format!("unexpected response to a truncated request: {resp}"),
        )
    }
}

/// Scenario: five submissions against a frozen (`workers = 0`) daemon with
/// a 2-slot queue. The overflow must draw typed `queue-full` rejections
/// and the rejected jobs must be rolled back completely.
fn queue_full_burst(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let dir = checkpoint_dir(kind, seed);
    let server = match Server::start(serve_config(dir, 0)) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon failed to start: {e}")),
    };
    let mut queued = 0usize;
    let mut rejected = 0usize;
    for i in 0..5 {
        let line = serve_job_line("submit", &format!("burst-{i}"), rng);
        let resp = server.handle_request(&line);
        if resp.contains(r#""state":"queued""#) {
            queued += 1;
        } else if resp.contains(r#""kind":"queue-full""#) {
            rejected += 1;
        }
    }
    let rolled_back = server
        .handle_request(r#"{"op":"result","id":"burst-4"}"#)
        .contains(r#""kind":"unknown-job""#);
    server.abort();
    check(
        queued == 2 && rejected == 3 && rolled_back,
        format!(
            "burst of 5 into capacity 2: {queued} queued, {rejected} queue-full, rollback {rolled_back}"
        ),
    )
}

/// Scenario: real TCP, and the client hangs up right after firing a
/// blocking `place`. The daemon must finish the orphaned job and store a
/// finite-HPWL report a later `result` can fetch.
fn client_disconnect_mid_job(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    use std::io::Write as _;
    let dir = checkpoint_dir(kind, seed);
    let server = match Server::start(serve_config(dir, 1)) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon failed to start: {e}")),
    };
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            server.abort();
            return check(false, format!("bind: {e}"));
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            server.abort();
            return check(false, format!("local addr: {e}"));
        }
    };
    let acceptor = {
        let s = server.clone();
        std::thread::spawn(move || {
            let _ = s.serve(listener);
        })
    };
    let line = serve_job_line("place", "orphan", rng);
    let sent = match TcpStream::connect(addr) {
        Ok(mut stream) => stream.write_all(format!("{line}\n").as_bytes()).is_ok(),
        Err(_) => false,
    };
    // The stream dropped right there: the client is gone while the job runs.
    if !sent {
        server.initiate_shutdown();
        let _ = acceptor.join();
        server.abort();
        return check(false, "could not deliver the doomed request");
    }
    let done = serve_poll_done(&server, "orphan");
    server.initiate_shutdown();
    let _ = acceptor.join();
    server.drain();
    match done {
        Some(l) if l.contains(r#""state":"done""#) => {
            let finite = hpwl_bits_of_line(&l)
                .map(|b| f64::from_bits(b).is_finite())
                .unwrap_or(false);
            check(
                finite,
                "orphaned job finished with a finite-HPWL stored report",
            )
        }
        Some(l) => check(false, format!("orphaned job ended badly: {l}")),
        None => check(false, "orphaned job never reached a terminal state"),
    }
}

/// Scenario: the daemon dies mid-job. Life 1 (accept-only) journals the
/// job and dies; the kill itself is an identically-configured run over
/// the job's journal checkpoint ladder, crashed right after the first
/// training checkpoint write — the on-disk state a SIGKILLed worker
/// leaves. Life 2 must replay the journal, resume from the partial
/// ladder, and land on the exact bits of an uninterrupted baseline.
fn kill_daemon_mid_job(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let dir = checkpoint_dir(kind, seed);
    let line = serve_job_line("submit", "victim", rng);
    let req = match JobRequest::parse(&line) {
        Ok(r) => r,
        Err(e) => return check(false, format!("harness request does not parse: {e}")),
    };
    let design = match req.design.as_ref().map(DesignSpec::materialize) {
        Some(Ok(d)) => d,
        _ => return check(false, "harness design does not materialize"),
    };
    let baseline = match MacroPlacer::new(req.placer_config(&serve_defaults())).place(&design) {
        Ok(r) => r,
        Err(e) => return check(false, format!("baseline refused a healthy job: {e}")),
    };
    let life1 = match Server::start(serve_config(dir.clone(), 0)) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon life 1 failed to start: {e}")),
    };
    let resp = life1.handle_request(&line);
    life1.abort();
    if !resp.contains(r#""state":"queued""#) {
        return check(false, format!("life 1 refused the job: {resp}"));
    }
    let mut crash_cfg = req.placer_config(&serve_defaults());
    crash_cfg.fault_crash = Some(CrashPoint::after_train_writes(1));
    let ckpt = dir.join("jobs").join("victim").join("ckpt");
    let killed = matches!(
        MacroPlacer::new(crash_cfg)
            .with_checkpoints(CheckpointPlan::new(&ckpt))
            .place(&design),
        Err(e) if e.exit_code() == 16
    );
    if !killed {
        return check(
            false,
            "injected mid-job kill did not surface as a typed checkpoint error",
        );
    }
    let life2 = match Server::start(serve_config(dir, 1)) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon life 2 failed to start: {e}")),
    };
    let done = serve_poll_done(&life2, "victim");
    life2.drain();
    let Some(done) = done else {
        return check(false, "recovered job never reached a terminal state");
    };
    let recovered = done.contains(r#""recovered":true"#);
    let resumed = match serde_json::parse_value(&done) {
        Ok(v) => matches!(
            map_get(&v, "summary").and_then(|s| map_get(s, "recovery_events")),
            Some(Value::Seq(events)) if !events.is_empty()
        ),
        Err(_) => false,
    };
    let hpwl_match = hpwl_bits_of_line(&done) == Some(baseline.hpwl.to_bits());
    let baseline_bits: Vec<(String, u64, u64)> = design
        .macros()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let c = baseline.placement.macro_center(MacroId::from_index(i));
            (m.name.clone(), c.x.to_bits(), c.y.to_bits())
        })
        .collect();
    let macros_match = macro_bits_of_line(&done) == Some(baseline_bits);
    check(
        recovered && resumed && hpwl_match && macros_match,
        format!(
            "journal replay: recovered={recovered} resumed={resumed} hpwl_bits_match={hpwl_match} macro_bits_match={macros_match}"
        ),
    )
}

// ----- disk-fault scenarios --------------------------------------------

/// Runs a checkpointed flow with a fault-armed [`Vfs`] and classifies the
/// graceful-degradation contract: the run must *complete*, match an
/// unfaulted baseline bit-for-bit (checkpointing is result-neutral), and
/// record a checkpoint-stage degradation event. When `require_disabled`
/// is set the fault must also have tripped the disable latch.
fn faulted_flow_degrades(
    kind: ScenarioKind,
    plan: FailPlan,
    require_disabled: bool,
    rng: &mut FaultRng,
    seed: u64,
) -> Outcome {
    let design = matrix_design(rng);
    let baseline = match MacroPlacer::new(matrix_config()).place(&design) {
        Ok(r) => r,
        Err(e) => return check(false, format!("baseline refused a healthy design: {e}")),
    };
    let dir = checkpoint_dir(kind, seed);
    match MacroPlacer::new(matrix_config())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .with_vfs(Vfs::with_plan(plan))
        .place(&design)
    {
        Ok(r) => {
            let bitwise =
                r.hpwl.to_bits() == baseline.hpwl.to_bits() && r.assignment == baseline.assignment;
            let degraded = r.degradation.affects(Stage::Checkpoint);
            let disabled_ok = !require_disabled || r.checkpoint.disabled;
            check(
                bitwise && degraded && disabled_ok,
                format!(
                    "bitwise={bitwise} ckpt_degraded={degraded} disabled={}",
                    r.checkpoint.disabled
                ),
            )
        }
        Err(e) => check(
            false,
            format!("disk fault aborted the run instead of degrading: {e}"),
        ),
    }
}

/// Scenario: a checkpoint envelope's atomic rename fails, stranding the
/// fully-written `.tmp` file. The run must degrade; the next run over
/// the same directory must sweep the orphan and still match the
/// baseline bits.
fn torn_rename(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let design = matrix_design(rng);
    let baseline = match MacroPlacer::new(matrix_config()).place(&design) {
        Ok(r) => r,
        Err(e) => return check(false, format!("baseline refused a healthy design: {e}")),
    };
    let dir = checkpoint_dir(kind, seed);
    let nth = 1 + rng.pick(3) as u64;
    let first = match MacroPlacer::new(matrix_config())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .with_vfs(Vfs::with_plan(
            FailPlan::new(FaultKind::Eio, nth).on(OpKind::Rename),
        ))
        .place(&design)
    {
        Ok(r) => r,
        Err(e) => return check(false, format!("torn rename aborted the run: {e}")),
    };
    let orphan_left = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        })
        .unwrap_or(false);
    let second = match MacroPlacer::new(matrix_config())
        .with_checkpoints(CheckpointPlan::new(&dir))
        .place(&design)
    {
        Ok(r) => r,
        Err(e) => return check(false, format!("run over the orphaned dir refused: {e}")),
    };
    let swept = second.checkpoint.stale_tmp_removed >= 1;
    let bitwise = second.hpwl.to_bits() == baseline.hpwl.to_bits()
        && second.assignment == baseline.assignment;
    check(
        first.checkpoint.disabled && orphan_left && swept && bitwise,
        format!(
            "disabled={} orphan_left={orphan_left} swept={swept} bitwise={bitwise}",
            first.checkpoint.disabled
        ),
    )
}

/// Scenario: a journal request record is torn mid-write. The daemon must
/// reject the submission with a typed internal error; the next life must
/// quarantine the damaged job dir, sweep the `.tmp` orphan, and keep
/// admitting fresh work.
fn partial_journal_write(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let dir = checkpoint_dir(kind, seed);
    let torn_line = serve_job_line("submit", "torn", rng);
    let fresh_line = serve_job_line("submit", "fresh", rng);
    // Any cut below the 28-byte envelope header guarantees damage.
    let cut = rng.pick(24);
    let mut cfg = serve_config(dir.clone(), 0);
    cfg.fault_io = Some(
        FailPlan::new(FaultKind::PartialWrite(cut), 1)
            .on(OpKind::Write)
            .matching("request"),
    );
    let life1 = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon life 1 failed to start: {e}")),
    };
    let resp = life1.handle_request(&torn_line);
    life1.abort();
    let rejected = resp.contains(r#""ok":false"#) && resp.contains("internal");
    let life2 = match Server::start(serve_config(dir, 0)) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon life 2 failed to start: {e}")),
    };
    let quarantined = life2
        .handle_request(r#"{"op":"result","id":"torn"}"#)
        .contains("unknown-job");
    let swept = life2
        .metrics()
        .counters
        .get("ckpt.stale_tmp_removed")
        .copied()
        .unwrap_or(0)
        >= 1;
    let readmits = life2
        .handle_request(&fresh_line)
        .contains(r#""state":"queued""#);
    life2.abort();
    check(
        rejected && quarantined && swept && readmits,
        format!("rejected={rejected} quarantined={quarantined} swept={swept} readmits={readmits}"),
    )
}

/// Scenario: the disk fills while a daemon job writes its checkpoint
/// ladder. The job must complete with checkpointing disabled and the
/// exact bits of a direct baseline run — a degraded job, not a failed
/// one.
fn disk_full_mid_job(kind: ScenarioKind, rng: &mut FaultRng, seed: u64) -> Outcome {
    let dir = checkpoint_dir(kind, seed);
    let line = serve_job_line("submit", "victim", rng);
    let req = match JobRequest::parse(&line) {
        Ok(r) => r,
        Err(e) => return check(false, format!("harness request does not parse: {e}")),
    };
    let design = match req.design.as_ref().map(DesignSpec::materialize) {
        Some(Ok(d)) => d,
        _ => return check(false, "harness design does not materialize"),
    };
    let baseline = match MacroPlacer::new(req.placer_config(&serve_defaults())).place(&design) {
        Ok(r) => r,
        Err(e) => return check(false, format!("baseline refused a healthy job: {e}")),
    };
    let mut cfg = serve_config(dir, 1);
    // Scope the fault to the per-job ladder directory (`.../ckpt/...`),
    // leaving the journal records (`request.ckpt`, `report.ckpt`) alone.
    cfg.fault_io = Some(
        FailPlan::new(FaultKind::Enospc, 1)
            .on(OpKind::Write)
            .matching(&format!("ckpt{}", std::path::MAIN_SEPARATOR)),
    );
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => return check(false, format!("daemon failed to start: {e}")),
    };
    let resp = server.handle_request(&line);
    if !resp.contains(r#""ok":true"#) {
        server.abort();
        return check(false, format!("daemon refused the job: {resp}"));
    }
    let done = serve_poll_done(&server, "victim");
    server.drain();
    let Some(done) = done else {
        return check(false, "degraded job never reached a terminal state");
    };
    let completed = done.contains(r#""state":"done""#);
    let degraded = done.contains(r#""disabled":true"#);
    let hpwl_match = hpwl_bits_of_line(&done) == Some(baseline.hpwl.to_bits());
    let baseline_bits: Vec<(String, u64, u64)> = design
        .macros()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let c = baseline.placement.macro_center(MacroId::from_index(i));
            (m.name.clone(), c.x.to_bits(), c.y.to_bits())
        })
        .collect();
    let macros_match = macro_bits_of_line(&done) == Some(baseline_bits);
    check(
        completed && degraded && hpwl_match && macros_match,
        format!(
            "completed={completed} ckpt_disabled={degraded} hpwl_bits_match={hpwl_match} macro_bits_match={macros_match}"
        ),
    )
}

/// Runs one scenario. Deterministic: the same `(kind, seed)` always
/// produces the same [`ScenarioReport`].
pub fn run_scenario(kind: ScenarioKind, seed: u64) -> ScenarioReport {
    // Mix the kind into the stream so scenarios don't share fault sites.
    let mut rng = FaultRng::new(seed ^ (kind as u64).wrapping_mul(0x9e37_79b9));
    let outcome = match kind {
        ScenarioKind::TruncatedBookshelf => {
            let text = bookshelf_text(&matrix_design(&mut rng));
            parse_corrupt(&truncate_in_nets(&text, &mut rng))
        }
        ScenarioKind::GarbledNumber => {
            let text = bookshelf_text(&matrix_design(&mut rng));
            parse_corrupt(&garble_in_nets(&text, &mut rng))
        }
        ScenarioKind::UnknownNetNode => {
            let text = "REGION 0 0 100 100\nNODES\nm0 5 5 macro\nNETS\nn0 1 2 : (m0 0 0) (ghost 0 0)\nEND\n";
            parse_corrupt(text)
        }
        ScenarioKind::PoisonedGradients => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.trainer.fault_poison_update = Some(0);
            run_flow(cfg, &design)
        }
        ScenarioKind::NanPriors => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.mcts.fault_nan_priors = true;
            run_flow(cfg, &design)
        }
        ScenarioKind::SequencePairFailure => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.fault_sp_failure = true;
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroTotalBudget => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.budget = RunBudget::with_total(Duration::ZERO);
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroTrainBudget => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.budget.train = Some(Duration::ZERO);
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroSearchBudget => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.budget.search = Some(Duration::ZERO);
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroLegalizeBudget => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.budget.legalize = Some(Duration::ZERO);
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroRefineBudget => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.refine = Some(SwapRefineConfig::default());
            cfg.budget.refine = Some(Duration::ZERO);
            run_flow(cfg, &design)
        }
        ScenarioKind::InfeasibleDesign => {
            let mut b =
                mmp_core::DesignBuilder::new("inf", mmp_geom::Rect::new(0.0, 0.0, 10.0, 10.0));
            for i in 0..3 {
                b.add_macro(format!("m{i}"), 7.0, 7.0, "");
            }
            match b.build() {
                Ok(design) => run_flow(matrix_config(), &design),
                Err(e) => Outcome::Check {
                    ok: false,
                    detail: format!("builder rejected the infeasible design early: {e}"),
                },
            }
        }
        ScenarioKind::ZetaMismatch => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.trainer.net.zeta = cfg.trainer.zeta + 1;
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroEnsembleRuns => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.ensemble_runs = 0;
            run_flow(cfg, &design)
        }
        ScenarioKind::ZeroSpreadCalibration => {
            // All warm-up episodes returned the same wirelength: the Eq. 9
            // denominator is zero and must be guarded, not divided by.
            let w = 100.0 + rng.pick(900) as f64;
            match RewardScale::try_calibrate(RewardKind::default(), &[w, w, w, w]) {
                Ok(scale) => {
                    let r = scale.reward(w);
                    Outcome::Check {
                        ok: r.is_finite(),
                        detail: format!("zero-spread reward({w}) = {r}"),
                    }
                }
                Err(e) => Outcome::Check {
                    ok: false,
                    detail: format!("zero-spread calibration refused: {e}"),
                },
            }
        }
        ScenarioKind::KillMidTrain => {
            let design = matrix_design(&mut rng);
            let crash = CrashPoint::after_train_writes(1);
            kill_and_resume(kind, &design, &matrix_config(), crash, "train", seed)
        }
        ScenarioKind::KillMidSearch => {
            // One macro per group: the search of twelve groups writes its
            // partial checkpoint after group 10, before the done marker.
            let seed_of_design = 1 + (rng.next_u64() % 1000);
            let design =
                SyntheticSpec::small("faults", 12, 0, 8, 40, 70, false, seed_of_design).generate();
            let mut cfg = matrix_config();
            cfg.trainer.group_macros = false;
            let crash = CrashPoint::after_search_writes(1);
            kill_and_resume(kind, &design, &cfg, crash, "search", seed)
        }
        ScenarioKind::TruncatedCheckpoint
        | ScenarioKind::CorruptCheckpoint
        | ScenarioKind::StaleCheckpointVersion => tampered_checkpoint(kind, &mut rng, seed),
        ScenarioKind::MalformedRequest => malformed_request(kind, &mut rng, seed),
        ScenarioKind::QueueFullBurst => queue_full_burst(kind, &mut rng, seed),
        ScenarioKind::ClientDisconnectMidJob => client_disconnect_mid_job(kind, &mut rng, seed),
        ScenarioKind::KillDaemonMidJob => kill_daemon_mid_job(kind, &mut rng, seed),
        ScenarioKind::PoolWorkerPanic => {
            let design = matrix_design(&mut rng);
            let mut cfg = matrix_config();
            cfg.workers = 2;
            cfg.ensemble_runs = 2;
            // Either worker may be the victim; both must surface the same
            // typed error.
            cfg.fault_pool_panic = Some(rng.pick(2));
            run_flow(cfg, &design)
        }
        ScenarioKind::DiskFullMidTrainCkpt => {
            // The first payload write of a train-stage envelope fails.
            let plan = FailPlan::new(FaultKind::Enospc, 1)
                .on(OpKind::Write)
                .matching("train");
            faulted_flow_degrades(kind, plan, true, &mut rng, seed)
        }
        ScenarioKind::EioOnFsync => {
            // Any of the first few fsyncs — file or directory — fails.
            let nth = 1 + rng.pick(4) as u64;
            let plan = FailPlan::new(FaultKind::Eio, nth).on(OpKind::Fsync);
            faulted_flow_degrades(kind, plan, false, &mut rng, seed)
        }
        ScenarioKind::TornRename => torn_rename(kind, &mut rng, seed),
        ScenarioKind::PartialJournalWrite => partial_journal_write(kind, &mut rng, seed),
        ScenarioKind::DiskFullMidJob => disk_full_mid_job(kind, &mut rng, seed),
    };
    ScenarioReport {
        kind,
        seed,
        outcome,
    }
}

/// Runs the whole matrix with one seed.
pub fn run_all(seed: u64) -> Vec<ScenarioReport> {
    ScenarioKind::ALL
        .iter()
        .map(|&k| run_scenario(k, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_moves() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn truncation_always_cuts_mid_pin_list() {
        let mut rng = FaultRng::new(3);
        let design = matrix_design(&mut rng);
        let text = bookshelf_text(&design);
        for seed in 0..20 {
            let cut = truncate_in_nets(&text, &mut FaultRng::new(seed));
            let last = cut.lines().last().unwrap_or("");
            assert!(last.contains(':'), "cut must land inside a net line");
            assert!(matches!(parse_corrupt(&cut), Outcome::ParseError { .. }));
        }
    }

    #[test]
    fn garbling_always_breaks_the_parse() {
        let mut rng = FaultRng::new(5);
        let design = matrix_design(&mut rng);
        let text = bookshelf_text(&design);
        for seed in 0..20 {
            let bad = garble_in_nets(&text, &mut FaultRng::new(seed));
            assert!(matches!(parse_corrupt(&bad), Outcome::ParseError { .. }));
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let mut names: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ScenarioKind::ALL.len());
    }
}
