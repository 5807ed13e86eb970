//! Documentation numbers come from the committed snapshots. README.md and
//! EXPERIMENTS.md may quote only the GEMM ranges, the paper-scale forward
//! speedup and the A2C update time that `results/BENCH_compute.json`
//! gives, and no `results/*.txt` log may carry cargo's build output.

use serde::{map_get, Value};
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn rows<'a>(snap: &'a Value, key: &str) -> &'a [Value] {
    match map_get(snap, key) {
        Some(Value::Seq(rows)) => rows,
        _ => panic!("snapshot has no {key} rows"),
    }
}

fn num(row: &Value, key: &str) -> f64 {
    map_get(row, key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("snapshot row lacks {key}"))
}

/// `lo–hi` of one GEMM column, at the one decimal the docs quote.
fn range(rows: &[Value], key: &str) -> String {
    let lo = rows
        .iter()
        .map(|r| num(r, key))
        .fold(f64::INFINITY, f64::min);
    let hi = rows
        .iter()
        .map(|r| num(r, key))
        .fold(f64::NEG_INFINITY, f64::max);
    format!("{lo:.1}–{hi:.1}")
}

/// The numbers a doc may quote, as the snapshot gives them.
struct Quotes {
    tiled: String,
    scalar: String,
    speedup: String,
    paper_speedup: String,
    paper_times: String,
    update_ms: String,
}

fn snapshot_quotes() -> Quotes {
    let snap = serde_json::parse_value(&read("results/BENCH_compute.json")).unwrap();
    let gemm = rows(&snap, "gemm");
    let paper = rows(&snap, "forward")
        .iter()
        .find(|r| map_get(r, "arch") == Some(&Value::Str("paper_z16".into())))
        .expect("snapshot has the paper-scale forward row");
    Quotes {
        tiled: range(gemm, "tiled_gflops"),
        scalar: range(gemm, "reference_gflops"),
        speedup: range(gemm, "speedup"),
        paper_speedup: format!("{:.1}", num(paper, "speedup")),
        paper_times: format!(
            "{:.1} s → {:.2} s",
            num(paper, "reference_ms") / 1e3,
            num(paper, "tiled_ms") / 1e3
        ),
        update_ms: match map_get(&snap, "train_update") {
            Some(row) => format!("{:.1}", num(row, "update_ms")),
            None => panic!("snapshot has no train_update row"),
        },
    }
}

/// A number or an en-dash range of numbers.
fn numeric(s: &str) -> bool {
    !s.is_empty() && s.split('–').all(|p| p.parse::<f64>().is_ok())
}

/// Checks every snapshot quote in `rel`; returns what it found, once per
/// quote:
/// numbers before `GFLOP/s` (tiled) or `scalar`, ranges before `×` (GEMM
/// speedup), a single `N×` followed by `forward` (paper-scale speedup),
/// `a s → b s` (paper-scale forward times) and `N ms` followed by `A2C`
/// (the update time).
fn check_doc(rel: &str, q: &Quotes) -> Vec<&'static str> {
    let text = read(rel);
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut found = Vec::new();
    for (i, w) in words.iter().enumerate() {
        let core = w
            .trim_matches(|c: char| "()[],;:*~".contains(c))
            .trim_end_matches('.');
        let next = words.get(i + 1).copied().unwrap_or("");
        let mut expect = |want: &str, got: &str, what: &'static str| {
            assert_eq!(
                got, want,
                "{rel} quotes {what} `{got}`; the snapshot gives `{want}`"
            );
            found.push(what);
        };
        if numeric(core) && next.starts_with("GFLOP/s") {
            expect(&q.tiled, core, "tiled GEMM GFLOP/s");
        }
        if numeric(core) && next.starts_with("scalar") {
            expect(&q.scalar, core, "scalar GEMM GFLOP/s");
        }
        if let Some(x) = core.strip_suffix('×').filter(|x| numeric(x)) {
            if x.contains('–') {
                expect(&q.speedup, x, "the GEMM speedup range");
            } else if words[i + 1..].iter().take(4).any(|w| w.contains("forward")) {
                expect(&q.paper_speedup, x, "the paper-scale forward speedup");
            }
        }
        if numeric(core)
            && next.starts_with("ms")
            && words[i + 1..].iter().take(4).any(|w| w.contains("A2C"))
        {
            expect(&q.update_ms, core, "the A2C update time");
        }
        if *w == "→" && i >= 2 && words[i - 1] == "s" && next != "s" {
            let after = words.get(i + 2).copied().unwrap_or("");
            if after.starts_with('s') {
                let quote = format!("{} s → {next} s", words[i - 2].trim_start_matches('('));
                expect(&q.paper_times, &quote, "the paper-scale forward times");
            }
        }
    }
    found
}

#[test]
fn docs_quote_the_compute_snapshot() {
    let q = snapshot_quotes();
    for rel in ["README.md", "EXPERIMENTS.md"] {
        let found = check_doc(rel, &q);
        for what in [
            "tiled GEMM GFLOP/s",
            "scalar GEMM GFLOP/s",
            "the GEMM speedup range",
            "the paper-scale forward speedup",
            "the A2C update time",
        ] {
            assert!(found.contains(&what), "{rel} should quote {what}");
        }
    }
}

#[test]
fn result_logs_carry_no_cargo_output() {
    const CARGO: [&str; 4] = ["Compiling ", "Finished `", "Running `", "Blocking waiting"];
    let dir = repo().join("results");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_start();
            assert!(
                !CARGO.iter().any(|p| line.starts_with(p)),
                "{}:{}: cargo build output `{line}`",
                path.display(),
                n + 1
            );
        }
    }
}
