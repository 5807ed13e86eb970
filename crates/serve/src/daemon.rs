//! The daemon itself: admission, the worker pool, retry/quarantine,
//! recovery replay, and graceful shutdown.
//!
//! [`Server`] is a cheap-to-clone handle; [`Server::handle_request`] maps
//! one request line to one response line, so the TCP layer
//! ([`Server::serve`]) is a thin loop and every behavior is testable
//! in-process — which is how the fault matrix drives it.
//!
//! Lifecycle of one job:
//!
//! ```text
//! admit ──▶ journal request ──▶ bounded queue ──▶ worker
//!                                                   │  attempt 1..=max
//!                                                   │  (each under the
//!                                                   │   checkpoint ladder)
//!                    transient error? ◀─────────────┤
//!                      backoff, resume ─────────────▶
//!                                                   │
//!            Ok ──▶ journal report ──▶ Done      permanent/exhausted
//!                                                   └▶ typed error, journaled
//! ```
//!
//! On [`Server::start`] the journal is scanned: completed jobs keep their
//! stored responses, interrupted ones are re-queued with `resume = true`
//! so they continue from their own checkpoints **bitwise-identically**.

use crate::backoff::BackoffConfig;
use crate::clock;
use crate::error::ServeError;
use crate::journal::Journal;
use crate::protocol::{
    render, DesignSpec, JobDefaults, JobRequest, JobSummary, Op, MAX_REQUEST_BYTES,
};
use crate::queue::JobQueue;
use mmp_core::{fingerprint, CheckpointPlan, CrashPoint, MacroPlacer, RunReport};
use mmp_netlist::{Design, MacroId, Placement};
use mmp_obs::{MetricsSnapshot, Obs};
use mmp_vfs::{FailPlan, Vfs};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory (journal + per-job checkpoint ladders).
    pub state_dir: PathBuf,
    /// Worker threads executing jobs. `0` is accept-only mode: jobs are
    /// admitted and journaled but never run — the fault harness uses it
    /// to freeze a daemon at a precise point.
    pub workers: usize,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Attempt cap per job before a transiently-failing job is
    /// quarantined.
    pub max_attempts: usize,
    /// Per-job budget ceiling in milliseconds; requests above it are
    /// rejected as [`ServeError::OverBudget`]. `None` = no ceiling.
    pub max_budget_ms: Option<u64>,
    /// Cap on a design's declared node count (admission control: checked
    /// *before* the design is generated).
    pub max_design_nodes: usize,
    /// Defaults applied where requests are silent.
    pub defaults: JobDefaults,
    /// Retry backoff schedule.
    pub backoff: BackoffConfig,
    /// Reuse trained policies across jobs with the same
    /// (design, config) fingerprint by seeding the new job's ladder with
    /// the donor's `train-done.ckpt`.
    pub policy_cache: bool,
    /// Journal retention: keep at most this many *successfully completed*
    /// jobs on disk; older ones are forgotten oldest-first once the cap
    /// is exceeded. Quarantined and failed jobs are exempt (their records
    /// are the evidence). `None` = unbounded.
    pub keep_completed: Option<usize>,
    /// Dev/test knob mirroring `fault_pool_panic`: inject one disk fault
    /// according to the plan into every filesystem touch the daemon makes
    /// (journal *and* per-job checkpoint ladders share the op counter).
    pub fault_io: Option<FailPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            state_dir: PathBuf::from("mmpd-state"),
            workers: 1,
            queue_capacity: 16,
            max_attempts: 3,
            max_budget_ms: None,
            max_design_nodes: 2_000_000,
            defaults: JobDefaults::default(),
            backoff: BackoffConfig::default(),
            policy_cache: true,
            keep_completed: Some(1024),
            fault_io: None,
        }
    }
}

/// One queued unit of work.
struct QueuedJob {
    id: String,
    request: JobRequest,
    /// Replayed from the journal after a restart: resume from whatever
    /// the job's checkpoint ladder holds.
    recovered: bool,
    enqueued_at: Instant,
}

enum JobState {
    Queued,
    Running,
    /// The stored final response line (success or typed failure).
    Done(String),
}

struct Jobs {
    map: BTreeMap<String, JobState>,
    in_flight: usize,
    /// Request lines currently being handled (parse → response written).
    /// Drain waits these out so a shutdown acknowledgment is always
    /// delivered before the process exits; idle connections don't count.
    active_requests: usize,
}

struct Inner {
    config: ServeConfig,
    journal: Journal,
    queue: JobQueue<QueuedJob>,
    jobs: Mutex<Jobs>,
    /// Signaled on every job state transition (poll/drain wakeups).
    changed: Condvar,
    seq: AtomicU64,
    shutting_down: AtomicBool,
    obs: Obs,
    /// The filesystem chokepoint shared by the journal and every job's
    /// checkpoint ladder (one fault-plan counter spans both).
    vfs: Vfs,
    /// Successfully completed job ids, oldest first — the retention
    /// window trimmed by `keep_completed`.
    completed: Mutex<VecDeque<String>>,
    /// fingerprint → donor `train-done.ckpt` path of a completed job.
    policy_cache: Mutex<BTreeMap<u64, PathBuf>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Where [`Server::serve`] is listening (for the shutdown self-wake).
    listen_addr: Mutex<Option<SocketAddr>>,
}

/// A running daemon. Clones share the same daemon.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

fn ok_state(id: &str, state: &str) -> String {
    render(&Value::Map(vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("id".to_owned(), Value::Str(id.to_owned())),
        ("state".to_owned(), Value::Str(state.to_owned())),
    ]))
}

fn err_line(id: Option<&str>, e: &ServeError) -> String {
    let mut m = vec![("ok".to_owned(), Value::Bool(false))];
    if let Some(id) = id {
        m.push(("id".to_owned(), Value::Str(id.to_owned())));
    }
    m.push(("error".to_owned(), e.to_value()));
    render(&Value::Map(m))
}

fn done_line(
    id: &str,
    report: &RunReport,
    design: &Design,
    placement: &Placement,
    summary: &JobSummary,
) -> String {
    let macros: Vec<Value> = design
        .macros()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let c = placement.macro_center(MacroId::from_index(i));
            Value::Map(vec![
                ("name".to_owned(), Value::Str(m.name.clone())),
                ("x".to_owned(), Value::F64(c.x)),
                ("y".to_owned(), Value::F64(c.y)),
                ("x_bits".to_owned(), Value::U64(c.x.to_bits())),
                ("y_bits".to_owned(), Value::U64(c.y.to_bits())),
            ])
        })
        .collect();
    render(&Value::Map(vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("id".to_owned(), Value::Str(id.to_owned())),
        ("state".to_owned(), Value::Str("done".to_owned())),
        ("report".to_owned(), report.serialize()),
        ("macros".to_owned(), Value::Seq(macros)),
        ("summary".to_owned(), summary.serialize()),
    ]))
}

impl Server {
    /// Starts a daemon over `config.state_dir`: opens the journal,
    /// replays it (stored reports come back verbatim; interrupted jobs
    /// are re-queued to resume from their checkpoints), and spawns the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the state directory is unusable.
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        let vfs = config
            .fault_io
            .clone()
            .map(Vfs::with_plan)
            .unwrap_or_default();
        Self::start_with_vfs(config, vfs)
    }

    /// [`Server::start`] with an explicit filesystem chokepoint. The
    /// torture harness uses this to hand the daemon a recording or
    /// fault-armed [`Vfs`]; `start` derives one from `config.fault_io`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the state directory is unusable.
    pub fn start_with_vfs(config: ServeConfig, vfs: Vfs) -> Result<Self, ServeError> {
        let obs = Obs::metrics_only();
        let journal = Journal::open_with(&config.state_dir, vfs.clone(), obs.clone())?;
        let (scanned, _damaged) = journal.scan()?;
        let queue = JobQueue::new(config.queue_capacity);
        let mut jobs = BTreeMap::new();
        let mut max_seq = 0u64;
        let mut replayed = Vec::new();
        let mut done_in_seq_order = Vec::new();
        for job in scanned {
            max_seq = max_seq.max(job.seq);
            match job.report_line {
                Some(line) => {
                    if line.starts_with(r#"{"ok":true"#) {
                        done_in_seq_order.push((job.seq, job.id.clone()));
                    }
                    jobs.insert(job.id, JobState::Done(line));
                }
                None => replayed.push(job),
            }
        }
        // Rebuild the retention window oldest-first so eviction order
        // survives restarts.
        done_in_seq_order.sort();
        let completed: VecDeque<String> = done_in_seq_order.into_iter().map(|(_, id)| id).collect();
        let now = clock::now();
        for job in replayed {
            obs.count("serve.recovered", 1);
            jobs.insert(job.id.clone(), JobState::Queued);
            // Journaled jobs were admitted by a previous daemon life;
            // capacity must not drop them on replay.
            let _ = queue.force_push(QueuedJob {
                id: job.id,
                request: job.request,
                recovered: true,
                enqueued_at: now,
            });
        }
        let server = Server {
            inner: Arc::new(Inner {
                config,
                journal,
                queue,
                jobs: Mutex::new(Jobs {
                    map: jobs,
                    in_flight: 0,
                    active_requests: 0,
                }),
                changed: Condvar::new(),
                seq: AtomicU64::new(max_seq),
                shutting_down: AtomicBool::new(false),
                obs,
                vfs,
                completed: Mutex::new(completed),
                policy_cache: Mutex::new(BTreeMap::new()),
                workers: Mutex::new(Vec::new()),
                listen_addr: Mutex::new(None),
            }),
        };
        // A restarted daemon may come up over a journal larger than its
        // (possibly newly lowered) retention cap; trim before serving.
        server.enforce_retention();
        let mut handles = server.lock_workers();
        for _ in 0..server.inner.config.workers {
            let s = server.clone();
            handles.push(std::thread::spawn(move || s.worker_loop()));
        }
        drop(handles);
        Ok(server)
    }

    fn lock_jobs(&self) -> MutexGuard<'_, Jobs> {
        match self.inner.jobs.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn lock_workers(&self) -> MutexGuard<'_, Vec<JoinHandle<()>>> {
        match self.inner.workers.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// A snapshot of the daemon's metrics registry (the `serve.*`
    /// counters plus anything the flow recorded).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.obs.snapshot()
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    // ----- request handling --------------------------------------------

    /// Maps one request line to one response line (no trailing newline).
    /// Never panics on adversarial input: every failure is a typed
    /// [`ServeError`] on the wire.
    pub fn handle_request(&self, line: &str) -> String {
        let req = match JobRequest::parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.inner.obs.count("serve.rejected", 1);
                return err_line(None, &e);
            }
        };
        match req.op {
            Op::Status => self.status_line(),
            Op::Shutdown => {
                self.initiate_shutdown();
                render(&Value::Map(vec![
                    ("ok".to_owned(), Value::Bool(true)),
                    ("state".to_owned(), Value::Str("shutting-down".to_owned())),
                ]))
            }
            Op::Result => {
                // parse() guarantees the id is present.
                let id = req.id.as_deref().unwrap_or_default();
                self.result_line(id)
            }
            Op::Submit => match self.admit(&req) {
                Ok(id) => self.result_line(&id),
                Err(e) => {
                    self.inner.obs.count("serve.rejected", 1);
                    err_line(req.id.as_deref(), &e)
                }
            },
            Op::Place => match self.admit(&req) {
                Ok(id) => self.wait_for_done(&id),
                Err(e) => {
                    self.inner.obs.count("serve.rejected", 1);
                    err_line(req.id.as_deref(), &e)
                }
            },
        }
    }

    fn status_line(&self) -> String {
        let journal_bytes = self.inner.journal.total_bytes();
        self.inner
            .obs
            .gauge("serve.journal_bytes", journal_bytes as f64);
        let snapshot = self.inner.obs.snapshot();
        let counters = Value::Map(
            snapshot
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::U64(*v)))
                .collect(),
        );
        let g = self.lock_jobs();
        let state = if self.is_shutting_down() {
            "shutting-down"
        } else {
            "running"
        };
        render(&Value::Map(vec![
            ("ok".to_owned(), Value::Bool(true)),
            ("state".to_owned(), Value::Str(state.to_owned())),
            (
                "queued".to_owned(),
                Value::U64(self.inner.queue.len() as u64),
            ),
            ("in_flight".to_owned(), Value::U64(g.in_flight as u64)),
            (
                "capacity".to_owned(),
                Value::U64(self.inner.queue.capacity() as u64),
            ),
            ("journal_bytes".to_owned(), Value::U64(journal_bytes)),
            ("counters".to_owned(), counters),
        ]))
    }

    fn result_line(&self, id: &str) -> String {
        let g = self.lock_jobs();
        match g.map.get(id) {
            Some(JobState::Done(line)) => line.clone(),
            Some(JobState::Running) => ok_state(id, "running"),
            Some(JobState::Queued) => ok_state(id, "queued"),
            None => err_line(Some(id), &ServeError::UnknownJob { id: id.to_owned() }),
        }
    }

    fn wait_for_done(&self, id: &str) -> String {
        let mut g = self.lock_jobs();
        loop {
            match g.map.get(id) {
                Some(JobState::Done(line)) => return line.clone(),
                Some(_) => {}
                None => return err_line(Some(id), &ServeError::UnknownJob { id: id.to_owned() }),
            }
            g = match self.inner.changed.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Admission control: every gate yields a typed rejection, and an
    /// accepted job is journaled *before* it is queued so a crash between
    /// the two replays it rather than losing it.
    fn admit(&self, req: &JobRequest) -> Result<String, ServeError> {
        if self.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        let id = match &req.id {
            Some(id) => id.clone(),
            None => format!("job-{}", self.inner.seq.fetch_add(1, Ordering::SeqCst) + 1),
        };
        {
            let g = self.lock_jobs();
            if g.map.contains_key(&id) {
                // Idempotent resubmission: the job already exists in this
                // daemon (possibly from a previous life); report its
                // current state instead of double-running it.
                return Ok(id);
            }
        }
        if let (Some(requested), Some(max)) = (req.budget_ms, self.inner.config.max_budget_ms) {
            if requested > max {
                return Err(ServeError::OverBudget {
                    requested_ms: requested,
                    max_ms: max,
                });
            }
        }
        let design = req.design.as_ref().ok_or_else(|| ServeError::BadRequest {
            detail: "job has no design".to_owned(),
        })?;
        match design.declared_nodes() {
            Some(n) if n > self.inner.config.max_design_nodes => {
                return Err(ServeError::BadRequest {
                    detail: format!(
                        "design declares {n} nodes; this daemon caps designs at {} nodes",
                        self.inner.config.max_design_nodes
                    ),
                });
            }
            None if matches!(design, DesignSpec::Circuit { .. }) => {
                return Err(ServeError::BadRequest {
                    detail: "unknown circuit name".to_owned(),
                });
            }
            _ => {}
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.inner.journal.record_request(&id, seq, req)?;
        {
            let mut g = self.lock_jobs();
            g.map.insert(id.clone(), JobState::Queued);
        }
        let job = QueuedJob {
            id: id.clone(),
            request: req.clone(),
            recovered: false,
            enqueued_at: clock::now(),
        };
        if self.inner.queue.try_push(job).is_err() {
            // Roll the admission back completely: the job never existed.
            self.inner.journal.forget(&id);
            self.lock_jobs().map.remove(&id);
            return Err(ServeError::QueueFull {
                capacity: self.inner.queue.capacity(),
            });
        }
        self.inner.obs.count("serve.accepted", 1);
        Ok(id)
    }

    // ----- worker side --------------------------------------------------

    fn set_state(&self, id: &str, state: JobState) {
        let mut g = self.lock_jobs();
        match &state {
            JobState::Running => g.in_flight += 1,
            JobState::Done(_) => g.in_flight = g.in_flight.saturating_sub(1),
            JobState::Queued => {}
        }
        g.map.insert(id.to_owned(), state);
        drop(g);
        self.inner.changed.notify_all();
    }

    fn worker_loop(&self) {
        while let Some(job) = self.inner.queue.pop() {
            self.set_state(&job.id, JobState::Running);
            let line = self.run_job(&job);
            // Persist the outcome before announcing it: a daemon killed
            // between the two re-runs the job, which is safe (resume) —
            // the reverse order could answer a client and then lose the
            // answer.
            if let Err(e) = self.inner.journal.record_report(&job.id, &line) {
                let line = err_line(Some(&job.id), &e);
                self.set_state(&job.id, JobState::Done(line));
                continue;
            }
            if line.starts_with(r#"{"ok":true"#) {
                self.inner.obs.count("serve.completed", 1);
                match self.inner.completed.lock() {
                    Ok(mut g) => g.push_back(job.id.clone()),
                    Err(p) => p.into_inner().push_back(job.id.clone()),
                }
            }
            // Trim *before* announcing completion so a client that sees
            // this job done also sees the eviction it triggered.
            self.enforce_retention();
            self.set_state(&job.id, JobState::Done(line));
        }
    }

    /// Trims the journal to `keep_completed` successfully finished jobs,
    /// forgetting the oldest first. Quarantined and failed jobs never
    /// enter the retention window, so their records are kept.
    fn enforce_retention(&self) {
        let Some(keep) = self.inner.config.keep_completed else {
            return;
        };
        loop {
            let evict = {
                let mut g = match self.inner.completed.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                if g.len() <= keep {
                    return;
                }
                g.pop_front()
            };
            let Some(id) = evict else { return };
            // Drop any policy-cache entry donated by the evicted job; its
            // ladder is about to vanish from disk.
            let donor = self.inner.journal.train_done_path(&id);
            match self.inner.policy_cache.lock() {
                Ok(mut g) => g.retain(|_, p| p != &donor),
                Err(p) => p.into_inner().retain(|_, p| p != &donor),
            }
            self.inner.journal.forget(&id);
            self.lock_jobs().map.remove(&id);
            self.inner.obs.count("serve.journal_evicted", 1);
        }
    }

    /// Runs one job to its final response line: materialize, then attempt
    /// up to `max_attempts` times under the checkpoint ladder, retrying
    /// transient failures with deterministic backoff.
    fn run_job(&self, job: &QueuedJob) -> String {
        let queue_wait = clock::now().saturating_duration_since(job.enqueued_at);
        let design = match job
            .request
            .design
            .as_ref()
            .ok_or_else(|| ServeError::BadRequest {
                detail: "job has no design".to_owned(),
            })
            .and_then(DesignSpec::materialize)
        {
            Ok(d) => d,
            Err(e) => return err_line(Some(&job.id), &e),
        };
        let base_cfg = job.request.placer_config(&self.inner.config.defaults);
        let fail_attempts = job.request.fault_fail_attempts.unwrap_or(0);
        let ckpt_dir = self.inner.journal.ckpt_dir(&job.id);

        // Trained-policy reuse: an earlier job with the same
        // (design, config) fingerprint already produced `train-done.ckpt`;
        // seed this job's ladder with it and resume, which skips training
        // bitwise-identically (deterministic training would reproduce the
        // exact same agent).
        let fp = fingerprint(&design, &base_cfg);
        let mut policy_reused = false;
        if self.inner.config.policy_cache
            && !job.recovered
            && !self.inner.journal.train_done_path(&job.id).is_file()
        {
            let donor = {
                let cache = match self.inner.policy_cache.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                cache.get(&fp).cloned()
            };
            if let Some(donor) = donor {
                // Best-effort: a vanished/corrupt donor just means a
                // fresh training run, never a failed job.
                policy_reused = self.inner.journal.seed_train_done(&donor, &job.id).is_ok();
            }
        }

        let mut resume = job.recovered || policy_reused;
        let mut attempt = 0usize;
        loop {
            attempt += 1;
            let mut cfg = base_cfg.clone();
            if attempt <= fail_attempts {
                // Harness knob: simulate an environmental failure that
                // clears after `fail_attempts` attempts by injecting a
                // crash right after the first training checkpoint write.
                cfg.fault_crash = Some(CrashPoint::after_train_writes(1));
            }
            let plan = if resume {
                CheckpointPlan::resume(&ckpt_dir)
            } else {
                CheckpointPlan::new(&ckpt_dir)
            };
            let job_obs = Obs::metrics_only();
            let placer = MacroPlacer::new(cfg)
                .with_checkpoints(plan)
                .with_obs(job_obs.clone())
                .with_vfs(self.inner.vfs.clone());
            match placer.place(&design) {
                Ok(result) => {
                    if self.inner.config.policy_cache {
                        let path = self.inner.journal.train_done_path(&job.id);
                        if path.is_file() {
                            let mut cache = match self.inner.policy_cache.lock() {
                                Ok(g) => g,
                                Err(p) => p.into_inner(),
                            };
                            cache.entry(fp).or_insert(path);
                        }
                    }
                    let report = RunReport::new(design.name(), &result, &job_obs.snapshot());
                    let summary = JobSummary {
                        attempts: attempt,
                        queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
                        recovered: job.recovered,
                        recovery_events: result.checkpoint.resumes.clone(),
                        policy_reused,
                    };
                    return done_line(&job.id, &report, &design, &result.placement, &summary);
                }
                Err(e) if e.is_transient() && attempt < self.inner.config.max_attempts => {
                    self.inner.obs.count("serve.retried", 1);
                    std::thread::sleep(self.inner.config.backoff.delay(attempt));
                    // The failed attempt's checkpoints survive; continue
                    // from them instead of starting over.
                    resume = true;
                }
                Err(e) if e.is_transient() => {
                    self.inner.obs.count("serve.quarantined", 1);
                    return err_line(
                        Some(&job.id),
                        &ServeError::Quarantined {
                            id: job.id.clone(),
                            attempts: attempt,
                            last_error: e.to_string(),
                        },
                    );
                }
                Err(e) => {
                    return err_line(Some(&job.id), &ServeError::from_place(&e, attempt));
                }
            }
        }
    }

    // ----- shutdown -----------------------------------------------------

    /// Flips the daemon into drain mode: new admissions are rejected with
    /// [`ServeError::ShuttingDown`]; already-admitted jobs keep running.
    /// Wakes [`Server::serve`] so its accept loop can exit.
    pub fn initiate_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        let addr = match self.inner.listen_addr.lock() {
            Ok(g) => *g,
            Err(p) => *p.into_inner(),
        };
        if let Some(addr) = addr {
            // Self-connect to unblock the accept loop; the accepted
            // connection is dropped immediately.
            let _ = TcpStream::connect(addr);
        }
    }

    /// Graceful shutdown: waits until the queue is empty and no job is in
    /// flight, then closes the queue and joins the workers. Every
    /// admitted job gets its final journaled answer before this returns.
    pub fn drain(self) {
        self.initiate_shutdown();
        let mut g = self.lock_jobs();
        while !self.inner.queue.is_empty() || g.in_flight > 0 || g.active_requests > 0 {
            g = match self.inner.changed.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        drop(g);
        self.finish();
    }

    /// Immediate shutdown for accept-only test servers: closes the queue
    /// without waiting for queued jobs (with zero workers nothing would
    /// ever drain them). Journaled-but-unrun jobs replay on restart —
    /// which is exactly what the kill-recovery scenarios exercise.
    pub fn abort(self) {
        self.initiate_shutdown();
        self.finish();
    }

    fn finish(&self) {
        self.inner.queue.close();
        let handles: Vec<_> = self.lock_workers().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    // ----- transport ----------------------------------------------------

    /// Serves newline-delimited JSON over `listener` until shutdown:
    /// accepts connections, one thread per connection, one response line
    /// per request line. Returns once shutdown is initiated (call
    /// [`Server::drain`] afterwards to finish in-flight jobs).
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O errors (per-connection errors are
    /// counted as `serve.disconnects` and do not stop the daemon).
    pub fn serve(&self, listener: TcpListener) -> std::io::Result<()> {
        {
            let addr = listener.local_addr()?;
            match self.inner.listen_addr.lock() {
                Ok(mut g) => *g = Some(addr),
                Err(p) => *p.into_inner() = Some(addr),
            }
        }
        for stream in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let server = self.clone();
            std::thread::spawn(move || server.serve_connection(stream));
        }
        Ok(())
    }

    fn serve_connection(&self, stream: TcpStream) {
        // Replies leave in one write (newline included) on a socket with
        // Nagle's algorithm off: a reply split across writes would wait for
        // the client's delayed ACK, about 40 ms on Linux. Without the option
        // replies are only slower, so failing to set it is not fatal.
        let _ = stream.set_nodelay(true);
        let mut reader = match stream.try_clone() {
            Ok(r) => BufReader::new(r),
            Err(_) => {
                self.inner.obs.count("serve.disconnects", 1);
                return;
            }
        };
        let mut writer = stream;
        // One buffer serves every line, and each read stops one byte past
        // the cap: an oversize line costs at most that much memory, however
        // long the client keeps sending.
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let read = (&mut reader)
                .take(MAX_REQUEST_BYTES as u64 + 1)
                .read_until(b'\n', &mut buf);
            match read {
                Ok(0) => return,
                Ok(_) => {}
                Err(_) => {
                    // Client vanished mid-line; any job it submitted
                    // keeps running and its report stays journaled.
                    self.inner.obs.count("serve.disconnects", 1);
                    return;
                }
            }
            if buf.len() > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
                // The rest of the line is never read: reply, then close.
                self.inner.obs.count("serve.rejected", 1);
                let e = ServeError::BadRequest {
                    detail: format!(
                        "request line exceeds the {MAX_REQUEST_BYTES} byte cap; closing the connection"
                    ),
                };
                let mut response = err_line(None, &e);
                response.push('\n');
                let _ = writer.write_all(response.as_bytes());
                return;
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                self.inner.obs.count("serve.disconnects", 1);
                return;
            };
            // Strip the terminator as `BufRead::lines` does: `\n` or `\r\n`.
            let line = line
                .strip_suffix('\n')
                .map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
            if line.trim().is_empty() {
                continue;
            }
            self.lock_jobs().active_requests += 1;
            let mut response = self.handle_request(line);
            response.push('\n');
            let wrote = writer
                .write_all(response.as_bytes())
                .and_then(|()| writer.flush());
            {
                let mut g = self.lock_jobs();
                g.active_requests = g.active_requests.saturating_sub(1);
            }
            self.inner.changed.notify_all();
            if wrote.is_err() {
                self.inner.obs.count("serve.disconnects", 1);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_ZETA;
    use serde::map_get;
    use std::path::Path;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mmp-serve-daemon-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(state_dir: &Path, workers: usize) -> ServeConfig {
        ServeConfig {
            state_dir: state_dir.to_path_buf(),
            workers,
            queue_capacity: 8,
            max_attempts: 3,
            max_budget_ms: Some(120_000),
            max_design_nodes: 10_000,
            defaults: JobDefaults {
                zeta: 4,
                episodes: Some(4),
                explorations: Some(6),
                budget: None,
            },
            backoff: BackoffConfig {
                base: std::time::Duration::from_millis(1),
                cap: std::time::Duration::from_millis(4),
            },
            policy_cache: true,
            keep_completed: Some(1024),
            fault_io: None,
        }
    }

    fn submit_line(id: &str, extra: &str) -> String {
        format!(
            r#"{{"op":"submit","id":"{id}","design":{{"spec":[5,0,8,40,70],"seed":1}},"update_every":2{extra}}}"#
        )
    }

    fn poll_done(server: &Server, id: &str) -> Value {
        loop {
            let line = server.handle_request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
            let v = serde_json::parse_value(&line).unwrap();
            match map_get(&v, "state") {
                Some(Value::Str(s)) if s == "done" => return v,
                _ => {
                    if map_get(&v, "ok") == Some(&Value::Bool(false)) {
                        return v;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        }
    }

    fn macro_bits(v: &Value) -> Vec<(u64, u64)> {
        let Some(Value::Seq(ms)) = map_get(v, "macros") else {
            panic!("no macros in {v:?}");
        };
        ms.iter()
            .map(|m| {
                (
                    map_get(m, "x_bits").and_then(Value::as_u64).unwrap(),
                    map_get(m, "y_bits").and_then(Value::as_u64).unwrap(),
                )
            })
            .collect()
    }

    fn report_hpwl_bits(v: &Value) -> u64 {
        map_get(v, "report")
            .and_then(|r| map_get(r, "hpwl"))
            .and_then(Value::as_f64)
            .unwrap()
            .to_bits()
    }

    #[test]
    fn submit_poll_place_and_status_round_trip() {
        let dir = tmp("roundtrip");
        let server = Server::start(config(&dir, 1)).unwrap();
        let line = server.handle_request(&submit_line("j1", ""));
        let v = serde_json::parse_value(&line).unwrap();
        assert_eq!(map_get(&v, "ok"), Some(&Value::Bool(true)));
        let done = poll_done(&server, "j1");
        assert_eq!(map_get(&done, "state"), Some(&Value::Str("done".into())));
        assert!(report_hpwl_bits(&done) != 0);
        assert!(!macro_bits(&done).is_empty());

        // `place` blocks to the same shape of answer.
        let line = server.handle_request(
            r#"{"op":"place","id":"j2","design":{"spec":[5,0,8,40,70],"seed":2},"update_every":2}"#,
        );
        let v = serde_json::parse_value(&line).unwrap();
        assert_eq!(map_get(&v, "state"), Some(&Value::Str("done".into())));

        let status = server.handle_request(r#"{"op":"status"}"#);
        let v = serde_json::parse_value(&status).unwrap();
        assert_eq!(map_get(&v, "state"), Some(&Value::Str("running".into())));
        let counters = map_get(&v, "counters").unwrap();
        assert_eq!(
            map_get(counters, "serve.accepted"),
            Some(&Value::U64(2)),
            "status: {status}"
        );

        // Unknown job and duplicate id behave predictably.
        let line = server.handle_request(r#"{"op":"result","id":"nope"}"#);
        assert!(line.contains("unknown-job"));
        let dup = server.handle_request(&submit_line("j1", ""));
        let v = serde_json::parse_value(&dup).unwrap();
        assert_eq!(map_get(&v, "state"), Some(&Value::Str("done".into())));

        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_retry_to_a_bitwise_identical_answer() {
        let dir = tmp("retry");
        let mut cfg = config(&dir, 1);
        // Policy reuse would skip training and with it the injected
        // train-stage crash; this test wants both jobs to train fresh.
        cfg.policy_cache = false;
        let server = Server::start(cfg).unwrap();
        // Clean job and a job whose first attempt dies right after the
        // first training checkpoint write.
        server.handle_request(&submit_line("clean", ""));
        server.handle_request(&submit_line("flaky", r#","fault_fail_attempts":1"#));
        let clean = poll_done(&server, "clean");
        let flaky = poll_done(&server, "flaky");
        assert_eq!(map_get(&flaky, "state"), Some(&Value::Str("done".into())));

        let summary = map_get(&flaky, "summary").unwrap();
        assert_eq!(map_get(summary, "attempts"), Some(&Value::U64(2)));
        assert_eq!(
            report_hpwl_bits(&flaky),
            report_hpwl_bits(&clean),
            "retried job must match the clean run bit-for-bit"
        );
        assert_eq!(macro_bits(&flaky), macro_bits(&clean));
        let events = map_get(summary, "recovery_events").unwrap();
        assert!(
            matches!(events, Value::Seq(e) if !e.is_empty()),
            "retry resumes from checkpoints: {flaky:?}"
        );
        let m = server.metrics();
        assert_eq!(m.counters.get("serve.retried"), Some(&1));
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_transients_are_quarantined() {
        let dir = tmp("quarantine");
        let mut cfg = config(&dir, 1);
        cfg.max_attempts = 2;
        cfg.policy_cache = false;
        let server = Server::start(cfg).unwrap();
        server.handle_request(&submit_line("poison", r#","fault_fail_attempts":99"#));
        let v = poll_done(&server, "poison");
        assert_eq!(map_get(&v, "ok"), Some(&Value::Bool(false)));
        let err = map_get(&v, "error").unwrap();
        assert_eq!(
            map_get(err, "kind"),
            Some(&Value::Str("quarantined".into())),
            "{v:?}"
        );
        assert_eq!(map_get(err, "attempts"), Some(&Value::U64(2)));
        let m = server.metrics();
        assert_eq!(m.counters.get("serve.quarantined"), Some(&1));
        assert_eq!(m.counters.get("serve.retried"), Some(&1));
        // The quarantine is journaled: a restarted daemon does not retry
        // the poison job forever.
        server.drain();
        let server = Server::start(config(&dir, 1)).unwrap();
        let line = server.handle_request(r#"{"op":"result","id":"poison"}"#);
        assert!(line.contains("quarantined"), "{line}");
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_bookshelf_net_degree_is_a_bad_request_and_the_daemon_keeps_serving() {
        let dir = tmp("hostile-degree");
        let server = Server::start(config(&dir, 1)).unwrap();
        // A panic inside the worker would leave the job in flight forever
        // and wedge the daemon. Each design must be refused before that:
        // - `usize::MAX / 3 + 1` times 3 wraps to the two pin tokens in a
        //   release build, so an allocation sized by the degree overflows;
        // - an infinite region gives `f64::clamp` NaN bounds in the
        //   legalizer;
        // - a finite region whose area overflows leaves reward calibration
        //   only infinite wirelengths, reported as a training failure.
        let texts = [
            format!(
                "REGION 0 0 10 10\\nNODES\\nm 1 1 macro hier=\\nNETS\\nn 1 {} : m 0\\nEND\\n",
                usize::MAX / 3 + 1
            ),
            "REGION 0 0 inf inf\\nNODES\\na 2 2 macro hier=\\nb 2 2 macro hier=\\nNETS\\nn 1 2 : a 0 0 b 0 0\\nEND\\n"
                .to_owned(),
            "REGION 0 0 1e308 1e308\\nNODES\\na 2 2 macro hier=\\nb 2 2 macro hier=\\nNETS\\nn 1 2 : a 0 0 b 0 0\\nEND\\n"
                .to_owned(),
        ];
        for (i, text) in texts.iter().enumerate() {
            let id = format!("hostile-{i}");
            server.handle_request(&format!(
                r#"{{"op":"submit","id":"{id}","design":{{"bookshelf":"{text}"}}}}"#
            ));
            // Bounded poll: a dead worker must fail the test, not hang it.
            let deadline = crate::clock::now() + std::time::Duration::from_secs(60);
            let v = loop {
                let line = server.handle_request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
                let v = serde_json::parse_value(&line).unwrap();
                if map_get(&v, "ok") == Some(&Value::Bool(false)) {
                    break v;
                }
                assert!(crate::clock::now() < deadline, "no reply: {line}");
                std::thread::sleep(std::time::Duration::from_millis(5));
            };
            let err = map_get(&v, "error").unwrap();
            assert_eq!(
                map_get(err, "kind"),
                Some(&Value::Str("bad-request".into())),
                "{v:?}"
            );
            // The same worker then runs the next job to completion.
            let next = format!("next-{i}");
            server.handle_request(&submit_line(&next, ""));
            let done = poll_done(&server, &next);
            assert_eq!(map_get(&done, "state"), Some(&Value::Str("done".into())));
        }
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_zeta_is_a_bad_request_and_the_daemon_keeps_serving() {
        let dir = tmp("zeta-range");
        let server = Server::start(config(&dir, 1)).unwrap();
        // ζ = 0 would trip `Grid::new`'s assert inside the worker and wedge
        // the daemon; a huge ζ sizes the policy head by ζ⁴.
        for z in [0, MAX_ZETA + 1] {
            let id = format!("zeta-{z}");
            let line = server.handle_request(&submit_line(&id, &format!(r#","zeta":{z}"#)));
            let v = serde_json::parse_value(&line).unwrap();
            let err = map_get(&v, "error").unwrap_or_else(|| panic!("accepted: {line}"));
            assert_eq!(
                map_get(err, "kind"),
                Some(&Value::Str("bad-request".into())),
                "{v:?}"
            );
            let next = format!("after-{id}");
            server.handle_request(&submit_line(&next, ""));
            let done = poll_done(&server, &next);
            assert_eq!(map_get(&done, "state"), Some(&Value::Str("done".into())));
        }
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_line_is_refused_at_the_cap_and_the_daemon_keeps_serving() {
        let dir = tmp("oversize-line");
        let server = Server::start(config(&dir, 1)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = {
            let server = server.clone();
            std::thread::spawn(move || server.serve(listener))
        };
        // Every read below is bounded: a daemon that never answers must
        // fail the test, not hang it.
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(60)))
                .unwrap();
            stream
        };
        let read_reply = |stream: TcpStream| {
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            serde_json::parse_value(&line).unwrap()
        };

        // 2 MiB and no newline. The daemon stops reading one byte past the
        // 1 MiB cap and closes after its reply, so the send may fail.
        let mut stream = connect();
        let _ = stream.write_all(&vec![b'x'; 2 * MAX_REQUEST_BYTES]);
        let v = read_reply(stream);
        let err = map_get(&v, "error").unwrap();
        assert_eq!(
            map_get(err, "kind"),
            Some(&Value::Str("bad-request".into())),
            "{v:?}"
        );
        let Some(Value::Str(message)) = map_get(err, "message") else {
            panic!("no message in {v:?}");
        };
        assert!(
            message.contains(&MAX_REQUEST_BYTES.to_string()),
            "{message}"
        );

        // A new connection places a design to completion.
        let mut stream = connect();
        stream
            .write_all(
                b"{\"op\":\"place\",\"id\":\"after\",\"design\":{\"spec\":[5,0,8,40,70],\"seed\":1},\"update_every\":2}\n",
            )
            .unwrap();
        let v = read_reply(stream);
        assert_eq!(
            map_get(&v, "state"),
            Some(&Value::Str("done".into())),
            "{v:?}"
        );
        assert_eq!(server.metrics().counters.get("serve.rejected"), Some(&1));

        server.initiate_shutdown();
        accept.join().unwrap().unwrap();
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_gates_reject_with_typed_errors() {
        let dir = tmp("admission");
        let mut cfg = config(&dir, 0);
        cfg.queue_capacity = 1;
        let server = Server::start(cfg).unwrap();

        // Over budget.
        let line = server.handle_request(&submit_line("big", r#","budget_ms":999999999"#));
        assert!(line.contains("over-budget"), "{line}");
        // Oversized design, rejected before generation.
        let line = server.handle_request(
            r#"{"op":"submit","id":"huge","design":{"spec":[100,0,100,1000000,9]}}"#,
        );
        assert!(line.contains("bad-request"), "{line}");
        // Unknown circuit.
        let line =
            server.handle_request(r#"{"op":"submit","id":"ghost","design":{"circuit":"nope99"}}"#);
        assert!(line.contains("bad-request"), "{line}");
        // Queue full (capacity 1, no workers draining it) — and the
        // rejected job is fully rolled back, not half-admitted.
        let line = server.handle_request(&submit_line("q1", ""));
        assert!(line.contains(r#""ok":true"#), "{line}");
        let line = server.handle_request(&submit_line("q2", ""));
        assert!(line.contains("queue-full"), "{line}");
        let line = server.handle_request(r#"{"op":"result","id":"q2"}"#);
        assert!(line.contains("unknown-job"), "rolled back: {line}");
        // Shutting down.
        server.initiate_shutdown();
        let line = server.handle_request(&submit_line("late", ""));
        assert!(line.contains("shutting-down"), "{line}");
        let m = server.metrics();
        assert_eq!(m.counters.get("serve.rejected"), Some(&5));
        server.abort();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_replays_interrupted_jobs_and_keeps_reports() {
        let dir = tmp("restart");
        // Life 1: accept-only daemon admits a job and dies without
        // running it.
        let server = Server::start(config(&dir, 0)).unwrap();
        server.handle_request(&submit_line("j1", ""));
        server.abort();

        // Life 2: the journal replays the job; a worker completes it.
        let server = Server::start(config(&dir, 1)).unwrap();
        assert_eq!(server.metrics().counters.get("serve.recovered"), Some(&1));
        let done = poll_done(&server, "j1");
        assert_eq!(map_get(&done, "state"), Some(&Value::Str("done".into())));
        let summary = map_get(&done, "summary").unwrap();
        assert_eq!(map_get(summary, "recovered"), Some(&Value::Bool(true)));
        let bits = macro_bits(&done);
        server.drain();

        // Life 3: the stored report survives; nothing re-runs.
        let server = Server::start(config(&dir, 1)).unwrap();
        assert_eq!(server.metrics().counters.get("serve.recovered"), None);
        let again = poll_done(&server, "j1");
        assert_eq!(macro_bits(&again), bits);
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_evicts_oldest_completed_jobs_and_reports_journal_size() {
        let dir = tmp("retention");
        let mut cfg = config(&dir, 1);
        cfg.keep_completed = Some(1);
        cfg.policy_cache = false;
        let server = Server::start(cfg).unwrap();

        server.handle_request(&submit_line("old1", ""));
        poll_done(&server, "old1");
        server.handle_request(&submit_line("old2", ""));
        poll_done(&server, "old2");
        server.handle_request(&submit_line("new1", ""));
        let keep = poll_done(&server, "new1");
        assert_eq!(map_get(&keep, "state"), Some(&Value::Str("done".into())));

        // Oldest-first eviction: old1 and old2 are gone, new1 survives.
        let line = server.handle_request(r#"{"op":"result","id":"old1"}"#);
        assert!(line.contains("unknown-job"), "{line}");
        let line = server.handle_request(r#"{"op":"result","id":"old2"}"#);
        assert!(line.contains("unknown-job"), "{line}");
        let m = server.metrics();
        assert_eq!(m.counters.get("serve.journal_evicted"), Some(&2));

        // Status reports a non-zero journal footprint (one job's record).
        let status = server.handle_request(r#"{"op":"status"}"#);
        let v = serde_json::parse_value(&status).unwrap();
        let bytes = map_get(&v, "journal_bytes")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(bytes > 0, "{status}");
        server.drain();

        // The eviction is durable: a restart replays only the survivor.
        let server = Server::start(config(&dir, 1)).unwrap();
        let line = server.handle_request(r#"{"op":"result","id":"old2"}"#);
        assert!(line.contains("unknown-job"), "{line}");
        let again = poll_done(&server, "new1");
        assert_eq!(map_get(&again, "state"), Some(&Value::Str("done".into())));
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_jobs_are_exempt_from_retention() {
        let dir = tmp("retention-quarantine");
        let mut cfg = config(&dir, 1);
        cfg.keep_completed = Some(0);
        cfg.max_attempts = 1;
        cfg.policy_cache = false;
        let server = Server::start(cfg).unwrap();
        server.handle_request(&submit_line("poison", r#","fault_fail_attempts":99"#));
        let v = poll_done(&server, "poison");
        assert_eq!(map_get(&v, "ok"), Some(&Value::Bool(false)));
        server.handle_request(&submit_line("fine", ""));
        poll_done(&server, "fine");
        // keep_completed=0 evicts every successful job, but the
        // quarantined record survives a restart.
        assert_eq!(
            server.metrics().counters.get("serve.journal_evicted"),
            Some(&1)
        );
        server.drain();
        let server = Server::start(config(&dir, 1)).unwrap();
        let line = server.handle_request(r#"{"op":"result","id":"poison"}"#);
        assert!(line.contains("quarantined"), "{line}");
        let line = server.handle_request(r#"{"op":"result","id":"fine"}"#);
        assert!(line.contains("unknown-job"), "{line}");
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_io_plan_surfaces_as_a_typed_rejection_then_clears() {
        let dir = tmp("fault-io");
        let mut cfg = config(&dir, 1);
        // Fail the very first journal payload write (the request record).
        cfg.fault_io = Some(mmp_vfs::FailPlan::parse("enospc:1:write").unwrap());
        let server = Server::start(cfg).unwrap();
        let line = server.handle_request(&submit_line("j1", ""));
        assert!(line.contains("internal"), "{line}");
        // One-shot plan: the fault cleared, the resubmission succeeds.
        let line = server.handle_request(&submit_line("j1", ""));
        assert!(line.contains(r#""ok":true"#), "{line}");
        let done = poll_done(&server, "j1");
        assert_eq!(map_get(&done, "state"), Some(&Value::Str("done".into())));
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_cache_skips_training_without_changing_the_answer() {
        let dir = tmp("cache");
        let server = Server::start(config(&dir, 1)).unwrap();
        server.handle_request(&submit_line("a", ""));
        let a = poll_done(&server, "a");
        server.handle_request(&submit_line("b", ""));
        let b = poll_done(&server, "b");
        let sa = map_get(&a, "summary").unwrap();
        let sb = map_get(&b, "summary").unwrap();
        assert_eq!(map_get(sa, "policy_reused"), Some(&Value::Bool(false)));
        assert_eq!(map_get(sb, "policy_reused"), Some(&Value::Bool(true)));
        assert_eq!(report_hpwl_bits(&a), report_hpwl_bits(&b));
        assert_eq!(macro_bits(&a), macro_bits(&b));
        // The reused run skipped training from the donor's marker.
        let events = map_get(sb, "recovery_events").unwrap();
        assert!(
            matches!(events, Value::Seq(e) if e.iter().any(|x| x == &Value::Str("train-done".into()))),
            "{b:?}"
        );
        server.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
