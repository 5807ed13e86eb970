//! The `mmpd` wire protocol: newline-delimited JSON requests/responses.
//!
//! One request per line, one response line per request, over a plain TCP
//! stream. Requests are maps with an `"op"` discriminator:
//!
//! ```text
//! {"op":"place","id":"j1","design":{"spec":[6,1,8,50,90],"seed":1},
//!  "episodes":8,"explorations":16,"budget_ms":60000}     → blocks, returns the report
//! {"op":"submit", ...}                                   → returns immediately
//! {"op":"result","id":"j1"}                              → stored/pending state
//! {"op":"status"}                                        → daemon counters
//! {"op":"shutdown"}                                      → drain and exit
//! ```
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":{...}}` with a
//! typed [`crate::ServeError`] payload. A completed job's response embeds
//! the flow's [`mmp_core::RunReport`] JSON unchanged, a [`JobSummary`]
//! (attempts, queue wait, recovery events), and the exact macro
//! coordinates with their `f64::to_bits` images so bitwise identity is
//! checkable across processes.
//!
//! This module also pins down the *meaning* of a request:
//! [`JobRequest::placer_config`] is the single place a request maps to a
//! [`PlacerConfig`], so a journaled request replayed after a daemon
//! restart — or re-derived by the fault harness — denotes exactly the
//! same computation.

use crate::error::ServeError;
use mmp_core::{PlacerConfig, RunBudget, SyntheticSpec};
use mmp_netlist::{bookshelf, Design};
use serde::{map_get, Deserialize, Error, Serialize, Value};
use std::time::Duration;

/// Longest accepted request line in bytes (admission control: a client
/// cannot balloon daemon memory with an endless line).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Largest accepted grid resolution ζ, twice the paper's 16. The policy
/// head alone holds 2ζ⁴ weights, so an unbounded ζ from a request could
/// ask for more memory than the host has.
pub const MAX_ZETA: usize = 32;

/// Longest accepted job id; ids are restricted to `[A-Za-z0-9._-]` (no
/// leading dot) so they are safe as journal directory names.
pub const MAX_ID_BYTES: usize = 64;

/// Renders a raw [`Value`] as a JSON string.
pub(crate) fn render(v: &Value) -> String {
    struct Raw<'a>(&'a Value);
    impl Serialize for Raw<'_> {
        fn serialize(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Raw(v)).unwrap_or_else(|_| "null".to_owned())
}

/// The request operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Admit a job and block until its final response.
    Place,
    /// Admit a job and return immediately; poll with [`Op::Result`].
    Submit,
    /// Query a job's state / stored final response.
    Result,
    /// Daemon counters and queue depth.
    Status,
    /// Reject new work, drain admitted jobs, exit cleanly.
    Shutdown,
}

impl Op {
    fn parse(s: &str) -> Option<Op> {
        match s {
            "place" => Some(Op::Place),
            "submit" => Some(Op::Submit),
            "result" => Some(Op::Result),
            "status" => Some(Op::Status),
            "shutdown" => Some(Op::Shutdown),
            _ => None,
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Place => "place",
            Op::Submit => "submit",
            Op::Result => "result",
            Op::Status => "status",
            Op::Shutdown => "shutdown",
        }
    }
}

/// What to place: a named suite circuit, an inline synthetic spec, or
/// inline bookshelf text.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// A circuit from the ICCAD04/industrial suites, optionally scaled.
    Circuit {
        /// Suite circuit name (e.g. `"ibm01"`), case-insensitive.
        name: String,
        /// Proportional shrink factor (1.0 = published size).
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// An inline synthetic spec: `[movable, preplaced, io, cells, nets]`.
    Synthetic {
        /// The five counts, in [`SyntheticSpec::small`] order.
        counts: [usize; 5],
        /// Whether nodes carry hierarchy paths.
        hierarchy: bool,
        /// Generator seed.
        seed: u64,
    },
    /// Inline bookshelf text (bounded by [`MAX_REQUEST_BYTES`]).
    Bookshelf {
        /// The file contents.
        text: String,
    },
}

impl DesignSpec {
    fn bad(detail: impl Into<String>) -> ServeError {
        ServeError::BadRequest {
            detail: detail.into(),
        }
    }

    fn from_value(v: &Value) -> Result<Self, ServeError> {
        let seed = match map_get(v, "seed") {
            None | Some(Value::Null) => 42,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| Self::bad("design.seed must be a non-negative integer"))?,
        };
        if let Some(name) = map_get(v, "circuit") {
            let Value::Str(name) = name else {
                return Err(Self::bad("design.circuit must be a string"));
            };
            let scale = match map_get(v, "scale") {
                None | Some(Value::Null) => 1.0,
                Some(s) => s
                    .as_f64()
                    .filter(|f| f.is_finite() && *f > 0.0 && *f <= 1.0)
                    .ok_or_else(|| Self::bad("design.scale must be in (0, 1]"))?,
            };
            return Ok(DesignSpec::Circuit {
                name: name.clone(),
                scale,
                seed,
            });
        }
        if let Some(spec) = map_get(v, "spec") {
            let Value::Seq(items) = spec else {
                return Err(Self::bad("design.spec must be [M,P,IO,CELLS,NETS]"));
            };
            if items.len() != 5 {
                return Err(Self::bad("design.spec must be [M,P,IO,CELLS,NETS]"));
            }
            let mut counts = [0usize; 5];
            for (slot, item) in counts.iter_mut().zip(items) {
                *slot = item
                    .as_u64()
                    .and_then(|u| usize::try_from(u).ok())
                    .ok_or_else(|| Self::bad("design.spec entries must be integers"))?;
            }
            let hierarchy = matches!(map_get(v, "hierarchy"), Some(Value::Bool(true)));
            return Ok(DesignSpec::Synthetic {
                counts,
                hierarchy,
                seed,
            });
        }
        if let Some(text) = map_get(v, "bookshelf") {
            let Value::Str(text) = text else {
                return Err(Self::bad("design.bookshelf must be a string"));
            };
            return Ok(DesignSpec::Bookshelf { text: text.clone() });
        }
        Err(Self::bad("design needs one of: circuit, spec, bookshelf"))
    }

    fn to_value(&self) -> Value {
        match self {
            DesignSpec::Circuit { name, scale, seed } => Value::Map(vec![
                ("circuit".to_owned(), Value::Str(name.clone())),
                ("scale".to_owned(), Value::F64(*scale)),
                ("seed".to_owned(), Value::U64(*seed)),
            ]),
            DesignSpec::Synthetic {
                counts,
                hierarchy,
                seed,
            } => Value::Map(vec![
                (
                    "spec".to_owned(),
                    Value::Seq(counts.iter().map(|&c| Value::U64(c as u64)).collect()),
                ),
                ("hierarchy".to_owned(), Value::Bool(*hierarchy)),
                ("seed".to_owned(), Value::U64(*seed)),
            ]),
            DesignSpec::Bookshelf { text } => {
                Value::Map(vec![("bookshelf".to_owned(), Value::Str(text.clone()))])
            }
        }
    }

    /// The synthetic node count this spec declares, before generation —
    /// `None` for inline bookshelf (bounded by the request-line cap
    /// instead). Admission control refuses oversized declarations without
    /// materializing them.
    pub fn declared_nodes(&self) -> Option<usize> {
        match self {
            DesignSpec::Circuit { name, scale, seed } => {
                let spec = Self::find_suite(name)?;
                let spec = Self::scaled_spec(spec, *scale, *seed);
                Some(spec.movable_macros + spec.preplaced_macros + spec.io_pads + spec.std_cells)
            }
            // The first four entries are nodes; the fifth is nets.
            DesignSpec::Synthetic {
                counts: [movable, preplaced, io, cells, _nets],
                ..
            } => Some(movable + preplaced + io + cells),
            DesignSpec::Bookshelf { .. } => None,
        }
    }

    fn find_suite(name: &str) -> Option<SyntheticSpec> {
        mmp_core::iccad04_suite()
            .into_iter()
            .chain(mmp_core::industrial_suite())
            .find(|s| s.name.eq_ignore_ascii_case(name))
    }

    fn scaled_spec(mut spec: SyntheticSpec, scale: f64, seed: u64) -> SyntheticSpec {
        spec.seed = seed;
        if scale < 1.0 {
            spec = spec.scaled(scale);
        }
        spec
    }

    /// Builds the design this spec denotes. Deterministic: the same spec
    /// always yields the same design, which is what makes journal replay
    /// after a daemon restart resume bitwise-identically.
    pub fn materialize(&self) -> Result<Design, ServeError> {
        match self {
            DesignSpec::Circuit { name, scale, seed } => {
                let spec = Self::find_suite(name)
                    .ok_or_else(|| Self::bad(format!("unknown circuit '{name}'")))?;
                Ok(Self::scaled_spec(spec, *scale, *seed).generate())
            }
            DesignSpec::Synthetic {
                counts: [movable, preplaced, io, cells, nets],
                hierarchy,
                seed,
            } => Ok(SyntheticSpec::small(
                "request", *movable, *preplaced, *io, *cells, *nets, *hierarchy, *seed,
            )
            .generate()),
            DesignSpec::Bookshelf { text } => bookshelf::read("request", text.as_bytes())
                .map(|(design, _)| design)
                .map_err(|e| Self::bad(format!("bookshelf: {e}"))),
        }
    }
}

/// Per-job defaults the daemon applies where a request is silent — the
/// serving twin of the CLI's `place` flag defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobDefaults {
    /// Grid resolution ζ ([`PlacerConfig::bench`] base).
    pub zeta: usize,
    /// RL episodes (`None` keeps the bench default).
    pub episodes: Option<usize>,
    /// MCTS explorations (`None` keeps the bench default).
    pub explorations: Option<usize>,
    /// Wall-clock budget applied when a request carries none.
    pub budget: Option<Duration>,
}

impl Default for JobDefaults {
    fn default() -> Self {
        JobDefaults {
            zeta: 8,
            episodes: None,
            explorations: None,
            budget: None,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The operation.
    pub op: Op,
    /// Client-chosen job id ([`MAX_ID_BYTES`], `[A-Za-z0-9._-]`); the
    /// daemon assigns `job-<seq>` when absent.
    pub id: Option<String>,
    /// What to place (required for `place`/`submit`).
    pub design: Option<DesignSpec>,
    /// Grid resolution ζ override.
    pub zeta: Option<usize>,
    /// RL episode override.
    pub episodes: Option<usize>,
    /// Optimizer chunk length override (checkpoint granularity).
    pub update_every: Option<usize>,
    /// MCTS exploration override.
    pub explorations: Option<usize>,
    /// Ensemble run override.
    pub ensemble: Option<usize>,
    /// Training seed.
    pub seed: Option<u64>,
    /// Total wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Fault-injection knob (test harness only): the daemon injects a
    /// transient checkpoint failure into the first N attempts, so retry
    /// and quarantine paths are exactly reproducible.
    pub fault_fail_attempts: Option<usize>,
}

fn get_usize(v: &Value, key: &str) -> Result<Option<usize>, ServeError> {
    match map_get(v, key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .and_then(|u| usize::try_from(u).ok())
            .map(Some)
            .ok_or_else(|| ServeError::BadRequest {
                detail: format!("{key} must be a non-negative integer"),
            }),
    }
}

fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, ServeError> {
    match map_get(v, key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| ServeError::BadRequest {
            detail: format!("{key} must be a non-negative integer"),
        }),
    }
}

/// `true` when `id` is usable as a journal directory name.
pub fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_BYTES
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl JobRequest {
    /// Parses one request line. Every failure is a typed
    /// [`ServeError::BadRequest`]; nothing here panics on adversarial
    /// input.
    pub fn parse(line: &str) -> Result<Self, ServeError> {
        if line.len() > MAX_REQUEST_BYTES {
            return Err(ServeError::BadRequest {
                detail: format!(
                    "request line of {} bytes exceeds the {} byte cap",
                    line.len(),
                    MAX_REQUEST_BYTES
                ),
            });
        }
        let v = serde_json::parse_value(line.trim()).map_err(|e| ServeError::BadRequest {
            detail: format!("not valid JSON: {e}"),
        })?;
        if !matches!(v, Value::Map(_)) {
            return Err(ServeError::BadRequest {
                detail: "request must be a JSON object".to_owned(),
            });
        }
        let op = match map_get(&v, "op") {
            Some(Value::Str(s)) => Op::parse(s).ok_or_else(|| ServeError::BadRequest {
                detail: format!("unknown op '{s}'"),
            })?,
            _ => {
                return Err(ServeError::BadRequest {
                    detail: "request needs a string 'op' field".to_owned(),
                })
            }
        };
        let id = match map_get(&v, "id") {
            None | Some(Value::Null) => None,
            Some(Value::Str(s)) => {
                if !valid_id(s) {
                    return Err(ServeError::BadRequest {
                        detail: format!(
                            "invalid id '{s}': 1..={MAX_ID_BYTES} chars of [A-Za-z0-9._-], \
                             no leading dot",
                            s = s.escape_default()
                        ),
                    });
                }
                Some(s.clone())
            }
            Some(_) => {
                return Err(ServeError::BadRequest {
                    detail: "id must be a string".to_owned(),
                })
            }
        };
        let design = match map_get(&v, "design") {
            None | Some(Value::Null) => None,
            Some(d) => Some(DesignSpec::from_value(d)?),
        };
        let req = JobRequest {
            op,
            id,
            design,
            zeta: get_usize(&v, "zeta")?,
            episodes: get_usize(&v, "episodes")?,
            update_every: get_usize(&v, "update_every")?,
            explorations: get_usize(&v, "explorations")?,
            ensemble: get_usize(&v, "ensemble")?,
            seed: get_u64(&v, "seed")?,
            budget_ms: get_u64(&v, "budget_ms")?,
            fault_fail_attempts: get_usize(&v, "fault_fail_attempts")?,
        };
        if let Some(z) = req.zeta.filter(|z| !(1..=MAX_ZETA).contains(z)) {
            return Err(ServeError::BadRequest {
                detail: format!("zeta {z} is outside 1..={MAX_ZETA}"),
            });
        }
        match req.op {
            Op::Place | Op::Submit if req.design.is_none() => Err(ServeError::BadRequest {
                detail: format!("op '{}' needs a design", req.op.name()),
            }),
            Op::Result if req.id.is_none() => Err(ServeError::BadRequest {
                detail: "op 'result' needs an id".to_owned(),
            }),
            _ => Ok(req),
        }
    }

    /// Canonical JSON for the journal: parsing it back yields an equal
    /// request, so a replayed job denotes the same computation.
    pub fn to_value(&self) -> Value {
        let mut m = vec![("op".to_owned(), Value::Str(self.op.name().to_owned()))];
        let mut push_usize = |key: &str, v: &Option<usize>| {
            if let Some(x) = v {
                m.push((key.to_owned(), Value::U64(*x as u64)));
            }
        };
        push_usize("zeta", &self.zeta);
        push_usize("episodes", &self.episodes);
        push_usize("update_every", &self.update_every);
        push_usize("explorations", &self.explorations);
        push_usize("ensemble", &self.ensemble);
        push_usize("fault_fail_attempts", &self.fault_fail_attempts);
        if let Some(id) = &self.id {
            m.push(("id".to_owned(), Value::Str(id.clone())));
        }
        if let Some(d) = &self.design {
            m.push(("design".to_owned(), d.to_value()));
        }
        if let Some(s) = self.seed {
            m.push(("seed".to_owned(), Value::U64(s)));
        }
        if let Some(b) = self.budget_ms {
            m.push(("budget_ms".to_owned(), Value::U64(b)));
        }
        Value::Map(m)
    }

    /// The [`PlacerConfig`] this request denotes under `defaults` — the
    /// single source of truth for request → configuration, shared by the
    /// live admission path, journal replay after a restart, and the
    /// fault harness's out-of-process kill simulation. The mapping
    /// mirrors the CLI: [`PlacerConfig::bench`] at the effective ζ, with
    /// per-field overrides.
    pub fn placer_config(&self, defaults: &JobDefaults) -> PlacerConfig {
        let zeta = self.zeta.unwrap_or(defaults.zeta);
        let mut cfg = PlacerConfig::bench(zeta);
        if let Some(e) = self.episodes.or(defaults.episodes) {
            cfg.trainer.episodes = e;
        }
        if let Some(u) = self.update_every {
            cfg.trainer.update_every = u.max(1);
        }
        if let Some(x) = self.explorations.or(defaults.explorations) {
            cfg.mcts.explorations = x;
        }
        cfg.trainer.seed = self.seed.unwrap_or(0);
        cfg.ensemble_runs = self.ensemble.unwrap_or(1);
        let budget = self
            .budget_ms
            .map(Duration::from_millis)
            .or(defaults.budget);
        if let Some(b) = budget {
            cfg.budget = RunBudget::with_total(b);
        }
        cfg
    }
}

/// What the daemon did for one job, attached to its final response next
/// to the [`mmp_core::RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// Wall-clock the job spent queued before its first attempt, in
    /// milliseconds (telemetry; excluded from determinism comparisons).
    pub queue_wait_ms: f64,
    /// `true` when the job was replayed from the journal after a daemon
    /// restart.
    pub recovered: bool,
    /// The checkpoint resumes the final attempt took (e.g. `"train"`,
    /// `"train-done"`), straight from the flow's `CheckpointSummary`.
    pub recovery_events: Vec<String>,
    /// `true` when the daemon seeded the job's checkpoint directory from
    /// its trained-policy cache (same design+config fingerprint).
    pub policy_reused: bool,
}

impl Serialize for JobSummary {
    fn serialize(&self) -> Value {
        Value::Map(vec![
            ("attempts".to_owned(), Value::U64(self.attempts as u64)),
            ("queue_wait_ms".to_owned(), Value::F64(self.queue_wait_ms)),
            ("recovered".to_owned(), Value::Bool(self.recovered)),
            (
                "recovery_events".to_owned(),
                Value::Seq(
                    self.recovery_events
                        .iter()
                        .map(|s| Value::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("policy_reused".to_owned(), Value::Bool(self.policy_reused)),
        ])
    }
}

impl Deserialize for JobSummary {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let attempts = map_get(v, "attempts")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::missing_field("attempts"))?;
        let queue_wait_ms = map_get(v, "queue_wait_ms")
            .and_then(Value::as_f64)
            .ok_or_else(|| Error::missing_field("queue_wait_ms"))?;
        let recovered = matches!(map_get(v, "recovered"), Some(Value::Bool(true)));
        let policy_reused = matches!(map_get(v, "policy_reused"), Some(Value::Bool(true)));
        let recovery_events = match map_get(v, "recovery_events") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|i| match i {
                    Value::Str(s) => Ok(s.clone()),
                    _ => Err(Error::custom("recovery_events entries must be strings")),
                })
                .collect::<Result<_, _>>()?,
            _ => Vec::new(),
        };
        Ok(JobSummary {
            attempts: attempts as usize,
            queue_wait_ms,
            recovered,
            recovery_events,
            policy_reused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_round_trip_canonically() {
        let line = r#"{"op":"submit","id":"j1","design":{"spec":[6,1,8,50,90],"hierarchy":true,"seed":1},"episodes":8,"seed":3,"budget_ms":5000}"#;
        let req = JobRequest::parse(line).unwrap();
        assert_eq!(req.op, Op::Submit);
        assert_eq!(req.id.as_deref(), Some("j1"));
        assert_eq!(req.episodes, Some(8));
        assert_eq!(req.seed, Some(3));
        assert_eq!(req.budget_ms, Some(5000));
        let canon = render(&req.to_value());
        let back = JobRequest::parse(&canon).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn malformed_lines_are_typed_bad_requests() {
        for line in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"place"}"#,
            r#"{"op":"result"}"#,
            r#"{"op":"place","design":{}}"#,
            r#"{"op":"place","id":"../evil","design":{"spec":[1,0,2,4,6]}}"#,
            r#"{"op":"place","id":".hidden","design":{"spec":[1,0,2,4,6]}}"#,
            r#"{"op":"place","design":{"spec":[1,2,3]}}"#,
            r#"{"op":"place","design":{"circuit":"ibm01","scale":7.0}}"#,
            r#"{"op":"place","design":{"spec":[1,0,2,4,6]},"episodes":-3}"#,
        ] {
            let err = JobRequest::parse(line).unwrap_err();
            assert_eq!(err.kind(), "bad-request", "line {line:?} -> {err}");
        }
    }

    #[test]
    fn zeta_outside_one_to_max_is_a_bad_request() {
        let line =
            |z: usize| format!(r#"{{"op":"place","design":{{"spec":[5,0,8,40,70]}},"zeta":{z}}}"#);
        for z in [0, MAX_ZETA + 1, usize::MAX] {
            let err = JobRequest::parse(&line(z)).unwrap_err();
            assert_eq!(err.kind(), "bad-request", "zeta {z} -> {err}");
            assert!(err.to_string().contains("zeta"), "{err}");
        }
        for z in [1, MAX_ZETA] {
            assert_eq!(JobRequest::parse(&line(z)).unwrap().zeta, Some(z));
        }
    }

    #[test]
    fn oversized_lines_are_rejected_without_parsing() {
        let line = format!(
            r#"{{"op":"place","design":{{"bookshelf":"{}"}}}}"#,
            "x".repeat(MAX_REQUEST_BYTES)
        );
        let err = JobRequest::parse(&line).unwrap_err();
        assert!(err.to_string().contains("byte cap"), "{err}");
    }

    #[test]
    fn inline_bookshelf_near_the_cap_parses_in_linear_time() {
        // 1000 KiB of Bookshelf-like text in 64-byte lines; its escaped
        // request line stays under the cap. A parser that re-validates the
        // rest of the input per character takes tens of seconds here.
        let text: String = (0..16_000)
            .map(|i| format!("{:<63}\n", format!("  o{i} 40 40 terminal")))
            .collect();
        assert_eq!(text.len(), 1000 * 1024);
        let line = render(&Value::Map(vec![
            ("op".to_owned(), Value::Str("place".to_owned())),
            ("id".to_owned(), Value::Str("big".to_owned())),
            (
                "design".to_owned(),
                Value::Map(vec![("bookshelf".to_owned(), Value::Str(text.clone()))]),
            ),
        ]));
        assert!(line.len() <= MAX_REQUEST_BYTES, "{} bytes", line.len());
        // mmp-lint: allow(wallclock) why: test times the parse itself; no placement decision reads it
        let start = std::time::Instant::now();
        let req = JobRequest::parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parse took {elapsed:?}"
        );
        assert_eq!(req.design, Some(DesignSpec::Bookshelf { text }));
    }

    #[test]
    fn design_specs_materialize_deterministically() {
        let spec = DesignSpec::Synthetic {
            counts: [5, 0, 8, 40, 70],
            hierarchy: false,
            seed: 2,
        };
        let a = spec.materialize().unwrap();
        let b = spec.materialize().unwrap();
        assert_eq!(a, b);
        assert_eq!(spec.declared_nodes(), Some(5 + 8 + 40));

        let text = {
            let mut buf = Vec::new();
            bookshelf::write(&a, None, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let via_bookshelf = DesignSpec::Bookshelf { text }.materialize().unwrap();
        assert_eq!(via_bookshelf.macros().len(), a.macros().len());

        let unknown = DesignSpec::Circuit {
            name: "nope99".to_owned(),
            scale: 1.0,
            seed: 1,
        };
        assert_eq!(unknown.materialize().unwrap_err().kind(), "bad-request");
        assert_eq!(unknown.declared_nodes(), None);

        let circuit = DesignSpec::Circuit {
            name: "ibm01".to_owned(),
            scale: 0.01,
            seed: 7,
        };
        let n = circuit.declared_nodes().unwrap();
        assert!(n > 0, "scaled suite circuit declares its node count");
        assert_eq!(
            circuit.materialize().unwrap(),
            circuit.materialize().unwrap()
        );
    }

    #[test]
    fn placer_config_mapping_is_stable_and_overridable() {
        let req = JobRequest::parse(
            r#"{"op":"place","design":{"spec":[5,0,8,40,70]},"zeta":4,"episodes":6,"update_every":2,"explorations":10,"seed":9,"budget_ms":1234}"#,
        )
        .unwrap();
        let cfg = req.placer_config(&JobDefaults::default());
        assert_eq!(cfg.trainer.zeta, 4);
        assert_eq!(cfg.trainer.episodes, 6);
        assert_eq!(cfg.trainer.update_every, 2);
        assert_eq!(cfg.mcts.explorations, 10);
        assert_eq!(cfg.trainer.seed, 9);
        assert_eq!(cfg.budget.total, Some(Duration::from_millis(1234)));

        // Defaults fill the silent fields.
        let quiet = JobRequest::parse(r#"{"op":"place","design":{"spec":[5,0,8,40,70]}}"#).unwrap();
        let defaults = JobDefaults {
            zeta: 4,
            episodes: Some(3),
            explorations: Some(5),
            budget: Some(Duration::from_secs(60)),
        };
        let cfg = quiet.placer_config(&defaults);
        assert_eq!(cfg.trainer.zeta, 4);
        assert_eq!(cfg.trainer.episodes, 3);
        assert_eq!(cfg.mcts.explorations, 5);
        assert_eq!(cfg.budget.total, Some(Duration::from_secs(60)));

        // Same request, same config: the journal replay contract.
        assert_eq!(
            quiet.placer_config(&defaults),
            quiet.placer_config(&defaults)
        );
    }

    #[test]
    fn job_summary_round_trips() {
        let s = JobSummary {
            attempts: 2,
            queue_wait_ms: 1.5,
            recovered: true,
            recovery_events: vec!["train".to_owned()],
            policy_reused: false,
        };
        let back = JobSummary::deserialize(&s.serialize()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn id_validation_blocks_path_tricks() {
        assert!(valid_id("job-1"));
        assert!(valid_id("A.b_c-9"));
        assert!(!valid_id(""));
        assert!(!valid_id(".."));
        assert!(!valid_id("a/b"));
        assert!(!valid_id("a\\b"));
        assert!(!valid_id(&"x".repeat(MAX_ID_BYTES + 1)));
    }
}
