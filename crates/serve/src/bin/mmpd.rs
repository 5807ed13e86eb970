//! `mmpd` — the placement-as-a-service daemon.
//!
//! ```text
//! mmpd --addr 127.0.0.1:7177 --state-dir ./mmpd-state --workers 2
//! ```
//!
//! Speaks newline-delimited JSON over TCP (see `mmp_serve::protocol`).
//! On startup the state directory's journal is replayed: completed jobs
//! keep their stored reports, interrupted jobs resume from their own
//! checkpoint ladders. A `{"op":"shutdown"}` request drains in-flight
//! work and exits cleanly.
//!
//! | exit code | meaning                                        |
//! |-----------|------------------------------------------------|
//! | 0         | clean shutdown (drained)                       |
//! | 1         | I/O error (bind failure, unusable state dir)   |
//! | 2         | usage error (bad flags)                        |

use mmp_serve::protocol::MAX_ZETA;
use mmp_serve::{BackoffConfig, JobDefaults, ServeConfig, Server};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

enum CliError {
    /// Wrong invocation: prints the usage text, exits 2.
    Usage(String),
    /// Bind / state-dir trouble: exits 1.
    Io(String),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n\
         \x20 mmpd [--addr HOST:PORT] [--state-dir DIR] [--workers N] \\\n\
         \x20      [--queue-capacity N] [--max-attempts N] [--max-budget-ms N] \\\n\
         \x20      [--max-design-nodes N] [--zeta N] [--episodes N] \\\n\
         \x20      [--explorations N] [--default-budget-ms N] \\\n\
         \x20      [--backoff-base-ms N] [--backoff-cap-ms N] [--no-policy-cache] \\\n\
         \x20      [--keep-completed N] [--fault-io SPEC]"
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, CliError> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            return Err(CliError::Usage(format!("unexpected argument {}", args[i])));
        };
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(name.to_owned(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(name.to_owned(), String::from("true"));
            i += 1;
        }
    }
    Ok(flags)
}

/// Prints a status line without panicking when stdout is a pipe whose
/// reader already hung up (supervisors often close it after the banner);
/// a daemon must never die over unread telemetry.
fn say(msg: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{msg}");
    let _ = out.flush();
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args)?;
    for key in flags.keys() {
        const KNOWN: [&str; 16] = [
            "addr",
            "state-dir",
            "workers",
            "queue-capacity",
            "max-attempts",
            "max-budget-ms",
            "max-design-nodes",
            "zeta",
            "episodes",
            "explorations",
            "default-budget-ms",
            "backoff-base-ms",
            "backoff-cap-ms",
            "no-policy-cache",
            "keep-completed",
            "fault-io",
        ];
        if !KNOWN.contains(&key.as_str()) {
            return Err(CliError::Usage(format!("unknown flag --{key}")));
        }
    }
    let get_u64 = |k: &str| -> Result<Option<u64>, CliError> {
        match flags.get(k) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("bad --{k}: {v}"))),
        }
    };
    let get_usize = |k: &str, d: usize| -> Result<usize, CliError> {
        Ok(get_u64(k)?.map_or(d, |v| v as usize))
    };

    let zeta = get_usize("zeta", 8)?;
    if !(1..=MAX_ZETA).contains(&zeta) {
        return Err(CliError::Usage(format!(
            "bad --zeta: {zeta} is outside 1..={MAX_ZETA}"
        )));
    }
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7177".to_owned());
    let config = ServeConfig {
        state_dir: PathBuf::from(
            flags
                .get("state-dir")
                .cloned()
                .unwrap_or_else(|| "mmpd-state".to_owned()),
        ),
        workers: get_usize("workers", 1)?.max(1),
        queue_capacity: get_usize("queue-capacity", 16)?,
        max_attempts: get_usize("max-attempts", 3)?.max(1),
        max_budget_ms: get_u64("max-budget-ms")?,
        max_design_nodes: get_usize("max-design-nodes", 2_000_000)?,
        defaults: JobDefaults {
            zeta,
            episodes: get_u64("episodes")?.map(|v| v as usize),
            explorations: get_u64("explorations")?.map(|v| v as usize),
            budget: get_u64("default-budget-ms")?.map(Duration::from_millis),
        },
        backoff: BackoffConfig {
            base: Duration::from_millis(get_u64("backoff-base-ms")?.unwrap_or(50)),
            cap: Duration::from_millis(get_u64("backoff-cap-ms")?.unwrap_or(2000)),
        },
        policy_cache: !flags.contains_key("no-policy-cache"),
        keep_completed: match get_u64("keep-completed")? {
            None => Some(1024),
            Some(0) => None, // 0 = unbounded, the pre-retention behavior
            Some(n) => Some(n as usize),
        },
        fault_io: match flags.get("fault-io") {
            None => None,
            Some(spec) => Some(
                mmp_serve::FailPlan::parse(spec)
                    .map_err(|e| CliError::Usage(format!("bad --fault-io: {e}")))?,
            ),
        },
    };

    let listener =
        TcpListener::bind(&addr).map_err(|e| CliError::Io(format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::Io(format!("local addr: {e}")))?;
    let server = Server::start(config).map_err(|e| CliError::Io(e.to_string()))?;
    // The e2e harness (and humans) read this line to learn the bound
    // port when --addr used port 0.
    say(format_args!("mmpd listening on {local}"));
    server
        .serve(listener)
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    server.drain();
    say(format_args!("mmpd drained and stopped"));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("mmpd: {msg}");
            usage()
        }
        Err(CliError::Io(msg)) => {
            eprintln!("mmpd: {msg}");
            ExitCode::FAILURE
        }
    }
}
