//! Cross-process end-to-end checks for the `mmpd` daemon: real TCP, real
//! processes, a real SIGKILL. The headline contract: a daemon killed
//! mid-job and restarted finishes the job **bitwise-identically** to an
//! uninterrupted run, and two daemons given the same request produce
//! identical reports (modulo wall-clock telemetry).

use serde::{map_get, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmpd_e2e_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned daemon process plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `mmpd` on port 0 with tiny job defaults and waits for its
    /// "listening" line to learn the bound port.
    fn spawn(state_dir: &PathBuf, extra: &[&str]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mmpd"));
        cmd.args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .args(["--zeta", "4", "--episodes", "4", "--explorations", "6"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().expect("spawn mmpd");
        let stdout = child.stdout.take().expect("mmpd stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read mmpd banner");
        let addr = line
            .trim()
            .strip_prefix("mmpd listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_owned();
        Daemon { child, addr }
    }

    /// One request line over a fresh connection; returns the response
    /// line (blocking however long the daemon takes to answer).
    fn request(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(&self.addr).expect("connect mmpd");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read response");
        response.trim_end().to_owned()
    }

    fn poll_done(&self, id: &str) -> Value {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let line = self.request(&format!(r#"{{"op":"result","id":"{id}"}}"#));
            let v = serde_json::parse_value(&line).expect("result parses");
            match map_get(&v, "state") {
                Some(Value::Str(s)) if s == "done" => return v,
                _ if map_get(&v, "ok") == Some(&Value::Bool(false)) => return v,
                _ => {
                    assert!(Instant::now() < deadline, "job {id} never finished");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Clean shutdown via the protocol; asserts exit code 0.
    fn shutdown(mut self) {
        let line = self.request(r#"{"op":"shutdown"}"#);
        assert!(line.contains("shutting-down"), "{line}");
        let status = self.child.wait().expect("wait mmpd");
        assert_eq!(status.code(), Some(0), "daemon must drain and exit 0");
    }

    /// SIGKILL — the crash the recovery machinery exists for.
    fn kill(mut self) {
        self.child.kill().expect("kill mmpd");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn macro_bits(v: &Value) -> Vec<(String, u64, u64)> {
    let Some(Value::Seq(ms)) = map_get(v, "macros") else {
        panic!("no macros in {v:?}");
    };
    ms.iter()
        .map(|m| {
            let name = match map_get(m, "name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("macro name: {other:?}"),
            };
            (
                name,
                map_get(m, "x_bits")
                    .and_then(Value::as_u64)
                    .expect("x_bits"),
                map_get(m, "y_bits")
                    .and_then(Value::as_u64)
                    .expect("y_bits"),
            )
        })
        .collect()
}

fn hpwl_bits(v: &Value) -> u64 {
    map_get(v, "report")
        .and_then(|r| map_get(r, "hpwl"))
        .and_then(Value::as_f64)
        .expect("report.hpwl")
        .to_bits()
}

/// Strips the wall-clock telemetry (stage timings, span totals, queue
/// wait) that legitimately differs between runs; everything else must
/// match exactly.
fn normalized(v: &Value) -> Value {
    match v {
        Value::Map(fields) => Value::Map(
            fields
                .iter()
                .filter(|(k, _)| k != "timings" && k != "span_ms" && k != "queue_wait_ms")
                .map(|(k, x)| (k.clone(), normalized(x)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.iter().map(normalized).collect()),
        other => other.clone(),
    }
}

#[test]
fn daemon_serves_jobs_and_shuts_down_cleanly() {
    let state = tmp("serve");
    let daemon = Daemon::spawn(&state, &["--workers", "1"]);

    // Malformed requests get typed rejections, never a hangup.
    let line = daemon.request("this is not json");
    assert!(line.contains("bad-request"), "{line}");
    let line = daemon.request(r#"{"op":"frobnicate"}"#);
    assert!(line.contains("bad-request"), "{line}");

    // A blocking place round-trips to a full report with macro bits.
    let line = daemon.request(
        r#"{"op":"place","id":"e2e1","design":{"spec":[5,0,8,40,70],"seed":1},"update_every":2}"#,
    );
    let v = serde_json::parse_value(&line).expect("place response parses");
    assert_eq!(map_get(&v, "state"), Some(&Value::Str("done".into())));
    assert!(hpwl_bits(&v) != 0);
    assert_eq!(macro_bits(&v).len(), 5);

    // Status exposes the serve counters.
    let line = daemon.request(r#"{"op":"status"}"#);
    assert!(line.contains("serve.accepted"), "{line}");

    // Shutdown drains and exits 0; late work is rejected while draining.
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn sigkill_mid_job_then_restart_finishes_bitwise_identically() {
    let state = tmp("kill");
    let job = r#"{"op":"submit","id":"victim","design":{"spec":[6,1,8,50,90],"seed":5},"episodes":24,"update_every":1,"explorations":8}"#;

    // Baseline: the same request on an untouched daemon, uninterrupted.
    let baseline_state = tmp("kill_baseline");
    let baseline_daemon = Daemon::spawn(&baseline_state, &["--workers", "1"]);
    baseline_daemon.request(job);
    let baseline = baseline_daemon.poll_done("victim");
    assert_eq!(
        map_get(&baseline, "state"),
        Some(&Value::Str("done".into()))
    );
    baseline_daemon.shutdown();

    // Life 1: admit the job, wait for training to start checkpointing,
    // then SIGKILL the daemon mid-stage.
    let daemon = Daemon::spawn(&state, &["--workers", "1"]);
    daemon.request(job);
    let partial = state
        .join("jobs")
        .join("victim")
        .join("ckpt")
        .join("train.ckpt");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !partial.exists() {
        assert!(
            Instant::now() < deadline,
            "train.ckpt never appeared under {}",
            partial.display()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.kill();

    // Life 2: the journal replays the interrupted job; it resumes from
    // its checkpoints and must land on the exact bits of the baseline.
    let daemon = Daemon::spawn(&state, &["--workers", "1"]);
    let recovered = daemon.poll_done("victim");
    assert_eq!(
        map_get(&recovered, "state"),
        Some(&Value::Str("done".into())),
        "{recovered:?}"
    );
    let summary = map_get(&recovered, "summary").expect("summary");
    assert_eq!(map_get(summary, "recovered"), Some(&Value::Bool(true)));
    assert!(
        matches!(map_get(summary, "recovery_events"), Some(Value::Seq(e)) if !e.is_empty()),
        "recovery must resume from checkpoints: {summary:?}"
    );

    assert_eq!(hpwl_bits(&recovered), hpwl_bits(&baseline), "HPWL bits");
    assert_eq!(
        macro_bits(&recovered),
        macro_bits(&baseline),
        "macro coordinate bits"
    );
    // Training and search statistics also match: the resumed run is the
    // same computation, not merely one with the same score.
    let section = |v: &Value, key: &str| {
        normalized(
            map_get(v, "report")
                .and_then(|r| map_get(r, key))
                .expect(key),
        )
    };
    assert_eq!(
        section(&recovered, "training"),
        section(&baseline, "training")
    );
    assert_eq!(section(&recovered, "search"), section(&baseline, "search"));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&baseline_state);
}

#[test]
fn two_daemons_answer_the_same_request_identically() {
    let job = r#"{"op":"place","id":"twin","design":{"spec":[5,0,8,40,70],"seed":9},"update_every":2,"seed":3}"#;
    let state_a = tmp("twin_a");
    let state_b = tmp("twin_b");
    let a = Daemon::spawn(&state_a, &["--workers", "1"]);
    let b = Daemon::spawn(&state_b, &["--workers", "1"]);
    let ra = serde_json::parse_value(&a.request(job)).expect("daemon A parses");
    let rb = serde_json::parse_value(&b.request(job)).expect("daemon B parses");
    assert_eq!(map_get(&ra, "state"), Some(&Value::Str("done".into())));
    assert_eq!(
        normalized(&ra),
        normalized(&rb),
        "identical requests must produce identical responses"
    );
    a.shutdown();
    b.shutdown();
    let _ = std::fs::remove_dir_all(&state_a);
    let _ = std::fs::remove_dir_all(&state_b);
}

#[test]
fn client_disconnect_mid_job_does_not_lose_the_job() {
    let state = tmp("disconnect");
    let daemon = Daemon::spawn(&state, &["--workers", "1"]);
    // Open a connection, fire a blocking place, and hang up immediately.
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .write_all(
                b"{\"op\":\"place\",\"id\":\"orphan\",\"design\":{\"spec\":[5,0,8,40,70],\"seed\":2},\"update_every\":2}\n",
            )
            .expect("send");
        // Dropping the stream here disconnects while the job runs.
    }
    // The hangup races the admission itself; give the daemon a moment to
    // finish parsing the line it already received.
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon
        .request(r#"{"op":"result","id":"orphan"}"#)
        .contains("unknown-job")
    {
        assert!(Instant::now() < deadline, "job was never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let done = daemon.poll_done("orphan");
    assert_eq!(
        map_get(&done, "state"),
        Some(&Value::Str("done".into())),
        "the daemon must finish and store the orphaned job: {done:?}"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn replies_on_one_connection_do_not_wait_for_delayed_acks() {
    // A reply sent as two segments (body, then "\n") on a socket with
    // Nagle's algorithm on waits for the client's delayed ACK, about
    // 40 ms per request on Linux: 20 requests would take 800 ms or more.
    let state = tmp("nodelay");
    let daemon = Daemon::spawn(&state, &["--workers", "1"]);
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect mmpd");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let start = Instant::now();
    for _ in 0..20 {
        stream
            .write_all(b"{\"op\":\"status\"}\n")
            .expect("send status");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read status");
        assert!(line.contains(r#""state":"running""#), "{line}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "20 status round trips took {elapsed:?}"
    );
    drop(reader);
    drop(stream);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn bad_flags_are_usage_errors_and_bind_failures_are_io_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_mmpd"))
        .args(["--bogus-flag", "x"])
        .output()
        .expect("spawn mmpd");
    assert_eq!(out.status.code(), Some(2), "usage exit");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = Command::new(env!("CARGO_BIN_EXE_mmpd"))
        .args(["--addr", "256.256.256.256:1", "--state-dir"])
        .arg(tmp("badbind"))
        .output()
        .expect("spawn mmpd");
    assert_eq!(out.status.code(), Some(1), "io exit");
    assert!(String::from_utf8_lossy(&out.stderr).contains("bind"));
}
