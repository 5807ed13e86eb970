//! `serve_repeat`: the real `mmpd` binary driven over TCP by a closed-loop
//! load generator in this process.
//!
//! Each pass starts a fresh daemon (`--workers 2`, its own state directory
//! under the checkout) and sends the request list over two connections,
//! each connection sending its next `place` only after the previous reply.
//! The list is [`ROUNDS`] rounds of the same four designs in the same
//! order; two of them travel as inline Bookshelf text. The first round is
//! sent and answered in full before any repeat is sent, so every repeat
//! finds its design's trained policy in the daemon's cache and the hit
//! count is exact: `4 × (ROUNDS − 1)`. The pass ends with a `status`
//! snapshot and `{"op":"shutdown"}`; the daemon must exit with code 0.

use crate::trace::{quote, Tracer};
use crate::{oracle, stats, sys, Outcome};
use mmp_core::{fingerprint, CkptError, Design, PlacerConfig, Trainer};
use mmp_netlist::bookshelf;
use mmp_serve::DesignSpec;
use serde::{map_get, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The designs of one round, in send order (ICCAD04-like, scale 0.002).
/// Four designs at a small budget keep a pass near 3 s, so a 35 s run
/// holds ten or more passes; eight designs at 100 episodes take 8–13 s a
/// pass.
const DESIGNS: [&str; 4] = ["ibm01", "ibm03", "ibm06", "ibm09"];
const SCALE: f64 = 0.002;
/// Rounds per pass: the first trains, the others hit the policy cache.
const ROUNDS: usize = 3;
/// Client connections held open by the load generator.
const CONNECTIONS: usize = 2;
/// Designs sent as inline Bookshelf text instead of a circuit name.
const INLINE: [&str; 2] = ["ibm03", "ibm09"];
/// Training seed of every request. The request list does not vary with
/// the workload seed, which only names the jobs: with seed-derived training
/// seeds the ten-seed spread of `job_s_p50` reached 30% and of
/// `hpwl_gmean` 10%, against 15% and 0 for this fixed list.
const TRAIN_SEED: u64 = 1;
const EPISODES: usize = 40;
const EXPLORATIONS: usize = 50;
/// Extra daemon set-ups before the first pass and after the last, for a
/// `setup_s` median over samples spread across the run.
const SETUP_REPS: usize = 5;
/// Longest wait for one reply or for the daemon to start or exit.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One design of the list: how it is requested and the local copy the
/// oracle checks replies against.
struct ServeDesign {
    name: &'static str,
    /// The request's `design` object.
    json: String,
    /// The design as the daemon materialises it.
    local: Design,
    /// Bookshelf text for inline designs.
    text: Option<Vec<u8>>,
}

fn build_list() -> Result<Vec<ServeDesign>, String> {
    DESIGNS
        .iter()
        .map(|&name| {
            let dseed = crate::flow::suite_spec(name, SCALE).seed;
            let spec = DesignSpec::Circuit {
                name: name.to_owned(),
                scale: SCALE,
                seed: dseed,
            };
            let generated = spec.materialize().map_err(|e| format!("{name}: {e}"))?;
            if INLINE.contains(&name) {
                let mut text = Vec::new();
                bookshelf::write(&generated, None, &mut text)
                    .map_err(|e| format!("{name}: {e}"))?;
                let utf8 = String::from_utf8(text.clone()).map_err(|e| format!("{name}: {e}"))?;
                let local = DesignSpec::Bookshelf { text: utf8.clone() }
                    .materialize()
                    .map_err(|e| format!("{name}: {e}"))?;
                Ok(ServeDesign {
                    name,
                    json: format!("{{\"bookshelf\":{}}}", quote(&utf8)),
                    local,
                    text: Some(text),
                })
            } else {
                Ok(ServeDesign {
                    name,
                    json: format!("{{\"circuit\":\"{name}\",\"scale\":{SCALE},\"seed\":{dseed}}}"),
                    local: generated,
                    text: None,
                })
            }
        })
        .collect()
}

/// A running daemon; dropping it without [`Daemon::shutdown`] kills it, so
/// no path out of the benchmark leaves one behind.
struct Daemon {
    child: Child,
    /// Kept open so the daemon's status lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    stopped: bool,
}

impl Daemon {
    /// Spawns `mmpd` on an ephemeral port and waits until it accepts.
    fn start(mmpd: &Path, state_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(mmpd)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--state-dir")
            .arg(state_dir)
            .arg("--workers")
            .arg(CONNECTIONS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mmpd.display()))?;
        let stdout = child.stdout.take();
        let mut daemon = Daemon {
            child,
            _stdout: BufReader::new(stdout.ok_or("mmpd stdout not captured")?),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stopped: false,
        };
        let mut banner = String::new();
        let read = daemon._stdout.read_line(&mut banner);
        daemon.addr = banner
            .trim()
            .strip_prefix("mmpd listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok())
            .filter(|_| read.is_ok())
            .ok_or_else(|| format!("mmpd did not announce its address: {banner:?}"))?;
        let deadline = Instant::now() + IO_TIMEOUT;
        while TcpStream::connect(daemon.addr).is_err() {
            if Instant::now() > deadline {
                return Err("mmpd never accepted a connection".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `{"op":"shutdown"}` and waits for the exit code, which must
    /// be 0.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = Client::connect(self.addr).and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.stopped = true;
                    return if status.success() {
                        reply.map(|_| ())
                    } else {
                        Err(format!("mmpd exited with {status}"))
                    };
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for mmpd: {e}")),
            }
        }
        Err("mmpd did not exit after shutdown".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One request/response connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer, reader })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One request of a pass and what came back.
struct Record {
    id: String,
    design: usize,
    round: usize,
    start: Instant,
    end: Instant,
    request_bytes: usize,
    reply: Result<String, String>,
}

/// Sends `items` over [`CONNECTIONS`] connections in a closed loop; each
/// connection takes the next item from the shared FIFO queue only after
/// its previous reply arrived.
fn closed_loop(addr: SocketAddr, items: Vec<(String, usize, usize, String)>) -> Vec<Record> {
    let queue = Mutex::new(items.into_iter().collect::<VecDeque<_>>());
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut client = Client::connect(addr);
                loop {
                    let next = queue.lock().expect("queue lock poisoned").pop_front();
                    let Some((id, design, round, line)) = next else {
                        break;
                    };
                    let start = Instant::now();
                    let reply = match &mut client {
                        Ok(c) => c.call(&line),
                        Err(e) => Err(e.clone()),
                    };
                    let rec = Record {
                        id,
                        design,
                        round,
                        start,
                        end: Instant::now(),
                        request_bytes: line.len() + 1,
                        reply,
                    };
                    records.lock().expect("records lock poisoned").push(rec);
                }
            });
        }
    });
    records.into_inner().expect("records lock poisoned")
}

/// The parts of a `done` reply the benchmark reads.
struct Reply {
    hpwl: f64,
    centers: Vec<(f64, f64)>,
    hit: bool,
    queue_wait_ms: f64,
    total_ms: f64,
    stage_ms: [f64; 4],
    ckpt_writes: f64,
    counters: Vec<(String, f64)>,
    search: [f64; 4],
    response_bytes: usize,
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for k in path {
        cur = map_get(cur, k)?;
    }
    cur.as_f64().filter(|x| x.is_finite())
}

fn parse_reply(text: &str) -> Result<Reply, String> {
    let v = serde_json::parse_value(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if map_get(&v, "ok") != Some(&Value::Bool(true))
        || map_get(&v, "state") != Some(&Value::Str("done".to_owned()))
    {
        let head: String = text.chars().take(300).collect();
        let kind = map_get(&v, "error").and_then(|e| map_get(e, "kind"));
        let admission = ["bad-request", "queue-full", "over-budget", "shutting-down"];
        return Err(match kind {
            Some(Value::Str(k)) if admission.contains(&k.as_str()) => format!("{REJECTED}: {head}"),
            _ => format!("request failed: {head}"),
        });
    }
    let bad = |what: &str| format!("reply lacks {what}");
    let Some(Value::Seq(macros)) = map_get(&v, "macros") else {
        return Err(bad("macros"));
    };
    let centers = macros
        .iter()
        .map(|m| {
            let x = map_get(m, "x_bits").and_then(Value::as_u64);
            let y = map_get(m, "y_bits").and_then(Value::as_u64);
            x.zip(y)
                .map(|(x, y)| (f64::from_bits(x), f64::from_bits(y)))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| bad("macro x_bits/y_bits"))?;
    let report = map_get(&v, "report").ok_or_else(|| bad("report"))?;
    let counters = match map_get(report, "counters") {
        Some(Value::Map(m)) => m
            .iter()
            .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
            .collect(),
        _ => Vec::new(),
    };
    let t = |k: &str| num(report, &["timings", k]).ok_or_else(|| bad(k));
    let s = |k: &str| num(report, &["search", k]).ok_or_else(|| bad(k));
    Ok(Reply {
        hpwl: num(report, &["hpwl"]).ok_or_else(|| bad("report.hpwl"))?,
        centers,
        hit: map_get(&v, "summary").and_then(|s| map_get(s, "policy_reused"))
            == Some(&Value::Bool(true)),
        queue_wait_ms: num(&v, &["summary", "queue_wait_ms"])
            .ok_or_else(|| bad("summary.queue_wait_ms"))?,
        total_ms: t("total_ms")?,
        stage_ms: [
            t("preprocess_ms")?,
            t("training_ms")?,
            t("mcts_ms")?,
            t("finalize_ms")?,
        ],
        ckpt_writes: num(report, &["checkpoint", "writes"]).unwrap_or(0.0),
        counters,
        search: [
            s("explorations")?,
            s("value_evaluations")?,
            s("terminal_evaluations")?,
            s("nodes")?,
        ],
        response_bytes: text.len() + 1,
    })
}

/// Prefix of the error for a request the daemon's admission control
/// refused.
const REJECTED: &str = "rejected";

/// A reply's HPWL and macro centers as raw bits.
type AnswerBits = (u64, Vec<(u64, u64)>);

/// Everything one pass measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    records: Vec<Record>,
    replies: Vec<Option<Reply>>,
    peak_rss_mb: Option<f64>,
    cpu_s: Option<f64>,
    status: Option<Value>,
}

/// Set-up before a pass: materialise the list and start a daemon on an
/// empty state directory. Returns the list, the daemon and the seconds
/// taken.
fn setup(mmpd: &Path, state_dir: &Path) -> Result<(Vec<ServeDesign>, Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let t = Instant::now();
    let list = build_list()?;
    let daemon = Daemon::start(mmpd, state_dir)?;
    Ok((list, daemon, t.elapsed().as_secs_f64()))
}

/// One pass: set-up (materialise, spawn, wait for accept), the timed
/// request list, checks, status snapshot, shutdown.
fn run_pass(
    mmpd: &Path,
    state_dir: &Path,
    seed: u64,
    pass: usize,
    out: &mut Outcome,
) -> Option<(Pass, Vec<ServeDesign>)> {
    let (list, daemon, setup_s) = match setup(mmpd, state_dir) {
        Ok(v) => v,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    let cpu0 = sys::cpu_seconds(Some(daemon.pid()));

    let item = |round: usize, d: usize| {
        let id = format!("s{seed}-p{pass}-r{round}-{}", list[d].name);
        let line = format!(
            "{{\"op\":\"place\",\"id\":\"{id}\",\"design\":{},\"episodes\":{EPISODES},\"explorations\":{EXPLORATIONS},\"seed\":{TRAIN_SEED}}}",
            list[d].json
        );
        (id, d, round, line)
    };
    let first: Vec<_> = (0..list.len()).map(|d| item(0, d)).collect();
    let repeats: Vec<_> = (1..ROUNDS)
        .flat_map(|r| (0..list.len()).map(move |d| (r, d)))
        .map(|(r, d)| item(r, d))
        .collect();
    let t = Instant::now();
    let mut records = closed_loop(daemon.addr, first);
    records.extend(closed_loop(daemon.addr, repeats));
    let wall_s = t.elapsed().as_secs_f64();

    let cpu_s = sys::cpu_seconds(Some(daemon.pid()))
        .zip(cpu0)
        .map(|(b, a)| b - a);
    let status = Client::connect(daemon.addr)
        .and_then(|mut c| c.call("{\"op\":\"status\"}"))
        .and_then(|s| serde_json::parse_value(&s).map_err(|e| e.to_string()));
    let peak_rss_mb = sys::peak_rss_mb(Some(daemon.pid()));
    if let Err(e) = daemon.shutdown() {
        out.fail(format!("pass {pass}: {e}"));
    }
    let status = match status {
        Ok(v) => Some(v),
        Err(e) => {
            out.fail(format!("pass {pass}: status: {e}"));
            None
        }
    };

    records.sort_by_key(|r| (r.round, r.design));
    let failed_before = out.failed();
    let mut rejected = 0;
    let mut replies = Vec::with_capacity(records.len());
    let mut first_answer: Vec<Option<AnswerBits>> = vec![None; list.len()];
    for rec in &records {
        out.attempted += 1;
        let d = &list[rec.design];
        let reply = match rec
            .reply
            .as_deref()
            .map_err(|e| e.to_owned())
            .and_then(parse_reply)
        {
            Ok(r) => r,
            Err(e) => {
                rejected += usize::from(e.starts_with(REJECTED));
                out.fail(format!("{}: {e}", rec.id));
                replies.push(None);
                continue;
            }
        };
        let violations = oracle::check_macros(&d.local, &reply.centers);
        if !violations.is_empty() {
            out.fail(format!("{}: oracle: {}", rec.id, violations.join("; ")));
            replies.push(None);
            continue;
        }
        let bits = (
            reply.hpwl.to_bits(),
            reply
                .centers
                .iter()
                .map(|(x, y)| (x.to_bits(), y.to_bits()))
                .collect::<Vec<_>>(),
        );
        match &first_answer[rec.design] {
            None => first_answer[rec.design] = Some(bits),
            Some(f) if *f != bits => out.fail(format!(
                "{}: repeat answered differently from round 0",
                rec.id
            )),
            Some(_) => {}
        }
        if reply.hit != (rec.round > 0) {
            out.fail(format!(
                "{}: cache {} where the list designs a {}",
                rec.id,
                if reply.hit { "hit" } else { "miss" },
                if rec.round > 0 { "hit" } else { "miss" }
            ));
        }
        replies.push(Some(reply));
    }
    let failed = out.failed() - failed_before;
    out.note(format!(
        "pass {pass}: sent {}, ok {}, failed {}, rejected {rejected}",
        records.len(),
        records.len().saturating_sub(failed),
        failed - rejected,
    ));
    let _ = std::fs::remove_dir_all(state_dir);
    Some((
        Pass {
            setup_s,
            wall_s,
            records,
            replies,
            peak_rss_mb,
            cpu_s,
            status,
        },
        list,
    ))
}

fn status_num(status: &Option<Value>, path: &[&str]) -> f64 {
    status.as_ref().and_then(|s| num(s, path)).unwrap_or(0.0)
}

/// A pass yields one set-up sample; [`SETUP_REPS`] extra set-ups (each
/// daemon started and shut down again) add more.
fn extra_setups(mmpd: &Path, state_dir: &Path, setups: &mut Vec<f64>, out: &mut Outcome) {
    for _ in 0..SETUP_REPS {
        match setup(mmpd, state_dir) {
            Ok((_, daemon, s)) => {
                setups.push(s);
                if let Err(e) = daemon.shutdown() {
                    out.fail(format!("set-up daemon: {e}"));
                }
            }
            Err(e) => out.fail(e),
        }
    }
    let _ = std::fs::remove_dir_all(state_dir);
}

/// The timed run: passes (each with a fresh daemon) until `seconds` would
/// be exceeded, at least one.
pub fn run_timed(mmpd: &Path, state_dir: &Path, seconds: f64, seed: u64, out: &mut Outcome) {
    let start = Instant::now();
    let (mut setups, mut walls, mut latencies, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Fastest latency of each request of the list (records come sorted by
    // round, then design, so positions line up across passes).
    let mut fastest: Vec<f64> = Vec::new();
    extra_setups(mmpd, state_dir, &mut setups, out);
    let mut hpwls: Option<Vec<f64>> = None;
    for pass in 0.. {
        let Some((p, _)) = run_pass(mmpd, state_dir, seed, pass, out) else {
            break;
        };
        setups.push(p.setup_s);
        walls.push(p.wall_s);
        rss.extend(p.peak_rss_mb);
        let lat: Vec<f64> = p
            .records
            .iter()
            .map(|r| (r.end - r.start).as_secs_f64())
            .collect();
        if fastest.is_empty() {
            fastest.clone_from(&lat);
        }
        for (f, l) in fastest.iter_mut().zip(&lat) {
            *f = f.min(*l);
        }
        latencies.extend(lat);
        if hpwls.is_none() {
            let firsts: Vec<f64> = p
                .records
                .iter()
                .zip(&p.replies)
                .filter(|(r, _)| r.round == 0)
                .filter_map(|(_, rep)| rep.as_ref().map(|x| x.hpwl))
                .collect();
            hpwls = Some(firsts);
        }
        let typical = stats::median(&walls).map_or(0.0, |m| m.value)
            + stats::median(&setups).map_or(0.0, |m| m.value);
        if start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
    }
    extra_setups(mmpd, state_dir, &mut setups, out);
    // The fastest pass, and the median over the list of each request's
    // fastest latency: the host's slow phases only add time (see
    // README.md).
    out.set("setup_s", &setups);
    if let Some(f) = stats::fastest(&walls) {
        out.set_value("pass_s", f, walls.len());
    }
    if let Some(m) = stats::median(&fastest) {
        out.set_value("job_s_p50", m.value, latencies.len());
    }
    if let (Some(w), Some(l)) = (stats::median(&walls), stats::median(&latencies)) {
        out.note(format!(
            "pass wall {:.3} s median of {}; request latency {:.4} s median of {}",
            w.value, w.n, l.value, l.n
        ));
    }
    if let Some(h) = hpwls.filter(|h| h.len() == DESIGNS.len()) {
        if let Some(g) = stats::geometric_mean(&h) {
            out.set_value("hpwl_gmean", g, h.len());
        }
    }
    out.set_ok_frac();
    if let Some(m) = stats::median(&rss) {
        out.note(format!(
            "mmpd peak RSS {:.3} MB (median of {})",
            m.value, m.n
        ));
    }
    match stats::upper_percentile(&latencies, 0.9) {
        Ok(p90) => out.note(format!("job_s_p90 {p90:.4} s")),
        Err(e) => out.note(format!("job_s_p90 {e}")),
    }
}

/// Times encoding one training checkpoint the way a job's checkpoint
/// ladder does (8-byte fingerprint + JSON) and writing it with
/// `mmp_ckpt::write` into `dir`. Returns (median ms, payload bytes).
fn ckpt_save_probe(design: &Design, dir: &Path) -> Result<(f64, usize), String> {
    let mut cfg = PlacerConfig::bench(8);
    cfg.trainer.seed = TRAIN_SEED;
    cfg.trainer.episodes = cfg.trainer.update_every;
    let trainer = Trainer::try_new(design, cfg.trainer.clone()).map_err(|e| e.to_string())?;
    let mut captured = None;
    let mut sink = |c: &mmp_rl::TrainCheckpoint| -> Result<(), CkptError> {
        captured = Some(c.clone());
        Ok(())
    };
    trainer
        .train_resumable(None, None, Some(&mut sink))
        .map_err(|e| e.to_string())?;
    let ck = captured.ok_or("training wrote no checkpoint")?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("probe-train.ckpt");
    let fp = fingerprint(design, &cfg);
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let t = Instant::now();
        let json = serde_json::to_string(&ck).map_err(|e| e.to_string())?;
        let mut payload = Vec::with_capacity(8 + json.len());
        payload.extend_from_slice(&fp.to_le_bytes());
        payload.extend_from_slice(json.as_bytes());
        mmp_ckpt::write(&path, &payload).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        bytes = payload.len();
    }
    Ok((stats::median(&times).map_or(0.0, |m| m.value), bytes))
}

/// The traced run: one untraced pass as the reference, one pass whose
/// client-side request spans are joined with each reply's `JobSummary` and
/// `RunReport`, then the checkpoint probe.
pub fn run_traced(
    mmpd: &Path,
    state_dir: &Path,
    seed: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let Some((reference, _)) = run_pass(mmpd, state_dir, seed, 0, out) else {
        return;
    };
    let Some((p, list)) = run_pass(mmpd, state_dir, seed, 1, out) else {
        return;
    };

    let root = tracer.record(
        "serve.pass",
        "pass",
        None,
        p.records
            .iter()
            .map(|r| r.start)
            .min()
            .unwrap_or_else(Instant::now),
        p.records
            .iter()
            .map(|r| r.end)
            .max()
            .unwrap_or_else(Instant::now),
    );
    let (mut hit_ms, mut miss_ms, mut service) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queue, mut overhead, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut req_bytes = 0usize;
    let mut hits = 0usize;
    let mut stage = [0.0f64; 4];
    let mut search = [0.0f64; 4];
    let mut writes = 0.0;
    let mut counters: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for (rec, reply) in p.records.iter().zip(&p.replies) {
        req_bytes += rec.request_bytes;
        let Some(r) = reply else { continue };
        let span = tracer.record("serve.request", &rec.id, Some(root), rec.start, rec.end);
        // The daemon reports durations, not timestamps: its queue wait and
        // stages are laid end to end from the request's start, so their
        // lengths are exact and their positions approximate.
        let mut at = rec.start + Duration::from_secs_f64(r.queue_wait_ms / 1e3);
        tracer.record("serve.queue_wait", &rec.id, Some(span), rec.start, at);
        for (name, ms) in [
            "core.preprocess",
            "core.train",
            "core.search",
            "core.finalize",
        ]
        .iter()
        .zip(r.stage_ms)
        {
            let end = at + Duration::from_secs_f64(ms / 1e3);
            tracer.record(name, &rec.id, Some(span), at, end);
            at = end;
        }
        let l = (rec.end - rec.start).as_secs_f64() * 1e3;
        if r.hit {
            hits += 1;
            hit_ms.push(l);
        } else {
            miss_ms.push(l);
        }
        service.push(r.total_ms);
        queue.push(r.queue_wait_ms);
        overhead.push(l - r.total_ms - r.queue_wait_ms);
        resp_bytes.push(r.response_bytes as f64);
        writes += r.ckpt_writes;
        for (s, x) in stage.iter_mut().zip(r.stage_ms) {
            *s += x;
        }
        for (s, x) in search.iter_mut().zip(r.search) {
            *s += x;
        }
        for (k, v) in &r.counters {
            *counters.entry(k.clone()).or_default() += v;
        }
    }
    let n = service.len();
    let med = |xs: &[f64]| stats::median(xs).map_or(0.0, |m| m.value);
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0.0);

    let parse: Vec<f64> = list
        .iter()
        .filter_map(|d| d.text.as_ref().map(|t| (d, t)))
        .map(|(d, t)| {
            let mut times = Vec::new();
            for _ in 0..20 {
                let s = Instant::now();
                let _ = std::hint::black_box(bookshelf::read(d.name, t.as_slice()));
                times.push(s.elapsed().as_secs_f64() * 1e3);
            }
            med(&times)
        })
        .collect();
    out.set_value("netlist.parse_ms", parse.iter().sum(), parse.len());
    out.set_value("analytic.cg_iters", counter("analytic.cg_iters"), n);
    out.set_value("analytic.qp_solves", counter("analytic.qp_solves"), n);
    out.set_value("analytic.spread_iters", counter("analytic.spread_iters"), n);
    out.set_value("legal.global_rounds", counter("legal.global_rounds"), n);
    out.set_value("legal.fallback_cells", counter("legal.fallback_cells"), n);
    out.set_value("rl.episodes", counter("rl.episodes"), n);
    out.set_value("mcts.explorations", search[0], n);
    out.set_value("mcts.value_evaluations", search[1], n);
    out.set_value("mcts.terminal_evaluations", search[2], n);
    out.set_value("mcts.nodes", search[3], n);
    out.set_value("core.preprocess_ms", stage[0], n);
    out.set_value("core.train_ms", stage[1], n);
    out.set_value("core.search_ms", stage[2], n);
    out.set_value("core.final_place_ms", stage[3], n);
    out.set_value(
        "core.overhead_ms",
        service.iter().sum::<f64>() - stage.iter().sum::<f64>(),
        n,
    );
    if let Some(cpu) = p.cpu_s {
        out.set_value("pool.cpu_s", cpu, 1);
        out.set_value("pool.cpu_per_wall", cpu / p.wall_s, 1);
    }
    out.set_value("ckpt.writes_per_job", writes / n.max(1) as f64, n);
    out.set_value(
        "ckpt.journal_bytes",
        status_num(&p.status, &["journal_bytes"]),
        1,
    );
    match ckpt_save_probe(&list[0].local, state_dir) {
        Ok((ms, bytes)) => {
            out.set_value("ckpt.save_ms", ms, 5);
            out.note(format!(
                "ckpt.save_ms probe wrote a {bytes}-byte training checkpoint"
            ));
        }
        Err(e) => out.fail(format!("checkpoint probe: {e}")),
    }
    let _ = std::fs::remove_dir_all(state_dir);
    out.set_value("serve.hit_frac", hits as f64 / n.max(1) as f64, n);
    out.set_value("serve.hit_ms_p50", med(&hit_ms), hit_ms.len());
    out.set_value("serve.miss_ms_p50", med(&miss_ms), miss_ms.len());
    out.set_value("serve.service_ms_p50", med(&service), n);
    out.set_value("serve.queue_wait_ms_p50", med(&queue), n);
    out.set_value("serve.overhead_ms_p50", med(&overhead), n);
    out.set_value("serve.request_bytes", req_bytes as f64, p.records.len());
    out.set_value("serve.response_bytes_p50", med(&resp_bytes), n);
    out.set_value(
        "serve.rejected",
        status_num(&p.status, &["counters", "serve.rejected"]),
        1,
    );
    out.set_value(
        "serve.retried",
        status_num(&p.status, &["counters", "serve.retried"]),
        1,
    );
    out.set_value(
        "obs.trace_overhead_frac",
        p.wall_s / reference.wall_s - 1.0,
        1,
    );
    if let Some(mb) = p.peak_rss_mb {
        out.set_value("mem.peak_rss_mb", mb, 1);
    }
    let designed = (ROUNDS - 1) as f64 / ROUNDS as f64;
    out.note(format!(
        "serve.hit_frac {:.4} against the designed repeat share {designed:.4}",
        hits as f64 / n.max(1) as f64
    ));
}
