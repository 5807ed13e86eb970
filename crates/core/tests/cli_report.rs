//! End-to-end CLI checks for the observability flags: `mmp place
//! --trace FILE --report-json FILE` must produce a parseable JSONL
//! trace and a round-trippable [`mmp_core::RunReport`].

use mmp_core::RunReport;
use std::path::PathBuf;
use std::process::Command;

fn mmp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mmp"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mmp_cli_{}_{name}", std::process::id()))
}

/// Generates a small synthetic design into `path` via the CLI itself.
fn generate(path: &PathBuf) {
    let out = mmp()
        .args(["generate", "--spec", "5,0,8,40,70", "--seed", "3", "--out"])
        .arg(path)
        .output()
        .expect("spawn mmp generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn place_writes_report_and_trace() {
    let design = tmp("design.bks");
    let report = tmp("run.report.json");
    let trace = tmp("trace.jsonl");
    generate(&design);

    let out = mmp()
        .args([
            "place",
            "--zeta",
            "4",
            "--episodes",
            "3",
            "--explorations",
            "4",
        ])
        .arg("--in")
        .arg(&design)
        .arg("--report-json")
        .arg(&report)
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn mmp place");
    assert!(
        out.status.success(),
        "place failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The report parses back into the typed RunReport and covers the run.
    let json = std::fs::read_to_string(&report).expect("report file");
    let parsed = RunReport::from_json(&json).expect("report parses");
    // Bookshelf designs are named after the input file.
    assert!(parsed.circuit.ends_with("design.bks"), "{}", parsed.circuit);
    assert!(parsed.hpwl > 0.0);
    assert!(parsed.timings.total_ms > 0.0);
    assert_eq!(parsed.training.episodes, 3);
    assert!(parsed.counters.contains_key("rl.episodes"));
    assert!(parsed.span_ms.contains_key("stage.search"));

    // The trace is one JSON object per line with the fixed key order the
    // sink renders (`t_us` first).
    let text = std::fs::read_to_string(&trace).expect("trace file");
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with("{\"t_us\":") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
    }

    for p in [&design, &report, &trace] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn report_without_trace_still_collects_metrics() {
    let design = tmp("metrics_only.bks");
    let report = tmp("metrics_only.report.json");
    generate(&design);

    let out = mmp()
        .args([
            "place",
            "--zeta",
            "4",
            "--episodes",
            "3",
            "--explorations",
            "4",
        ])
        .arg("--in")
        .arg(&design)
        .arg("--report-json")
        .arg(&report)
        .output()
        .expect("spawn mmp place");
    assert!(out.status.success());

    let parsed = RunReport::from_json(&std::fs::read_to_string(&report).expect("report file"))
        .expect("report parses");
    // Metrics-only mode: counters populate even with no trace sink.
    assert!(parsed.counters.contains_key("analytic.cg_iters"));
    assert!(parsed.gauges.contains_key("flow.hpwl"));

    for p in [&design, &report] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let design = tmp("unknown_flag.bks");
    generate(&design);

    // A typo must not silently run the default budget.
    let out = mmp()
        .args(["place", "--in"])
        .arg(&design)
        .args(["--explorationz", "3"])
        .output()
        .expect("spawn mmp place");
    assert_eq!(out.status.code(), Some(2), "expected usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--explorationz"), "{stderr}");

    std::fs::remove_file(&design).ok();
}

#[test]
fn bare_trace_flag_is_a_usage_error() {
    let design = tmp("bad_trace.bks");
    generate(&design);

    // `--trace` immediately followed by another flag parses as a bare
    // toggle, which the CLI rejects (it wants `stderr` or a path).
    let out = mmp()
        .args(["place", "--in"])
        .arg(&design)
        .args(["--trace", "--episodes", "3"])
        .output()
        .expect("spawn mmp place");
    assert_eq!(out.status.code(), Some(2), "expected usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace wants stderr or a file path"));

    std::fs::remove_file(&design).ok();
}
