//! The repository benchmark: end-to-end metrics for three workloads and a
//! traced run that splits each into per-layer numbers.
//!
//! ```text
//! perfbench --workload place_iccad|place_industrial|serve_repeat
//!           --seed N --seconds S --trace 0|1 --mmpd PATH [--out DIR]
//! ```
//!
//! `--trace 0` times the workload for about `S` seconds and reports the
//! end-to-end metrics; `--trace 1` makes one traced run and reports the
//! per-layer metrics, writing the spans under `--out`. Human-readable
//! lines (every metric with its unit and sample count, notes, failures)
//! come first; the last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`. The exit code is 0 only
//! when every placement passed the oracle and every bitwise, worker-count
//! and cache-hit check held. See README.md beside this file.

mod flow;
mod oracle;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics (untraced runs): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_s_p50", "s"),
    ("hpwl_gmean", "um"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics (traced run): name and unit. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("netlist.parse_ms", "ms"),
    ("cluster.coarsen_ms", "ms"),
    ("cluster.coarsen_share", "fraction"),
    ("cluster.exact_cells", "count"),
    ("analytic.place_mixed_ms", "ms"),
    ("analytic.place_cells_ms", "ms"),
    ("analytic.cg_iters", "count"),
    ("analytic.qp_solves", "count"),
    ("analytic.spread_iters", "count"),
    ("legal.legalize_ms", "ms"),
    ("legal.global_rounds", "count"),
    ("legal.fallback_cells", "count"),
    ("rl.eval_ms", "ms"),
    ("rl.episodes", "count"),
    ("rl.eval_share", "fraction"),
    ("nn.infer_ms", "ms"),
    ("nn.update_ms", "ms"),
    ("nn.train_share", "fraction"),
    ("mcts.explorations", "count"),
    ("mcts.value_evaluations", "count"),
    ("mcts.terminal_evaluations", "count"),
    ("mcts.nodes", "count"),
    ("mcts.terminal_share", "fraction"),
    ("core.preprocess_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.legalize_ms", "ms"),
    ("core.final_place_ms", "ms"),
    ("core.overhead_ms", "ms"),
    ("pool.cpu_s", "s"),
    ("pool.cpu_per_wall", "ratio"),
    ("ckpt.writes_per_job", "count"),
    ("ckpt.journal_bytes", "bytes"),
    ("ckpt.save_ms", "ms"),
    ("serve.hit_frac", "fraction"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes_p50", "bytes"),
    ("serve.rejected", "count"),
    ("serve.retried", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("mem.peak_rss_mb", "MB"),
];

const WORKLOADS: [&str; 3] = ["place_iccad", "place_industrial", "serve_repeat"];

/// A seed for `tag` derived from the workload seed (SplitMix64 over the
/// seed and an FNV-1a hash of the tag), kept below 2³² so it survives any
/// JSON number path.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = (seed ^ h).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0xffff_ffff
}

/// What a run measured and whether its outputs held.
#[derive(Default)]
pub struct Outcome {
    /// Reading per metric name: value and sample count.
    readings: BTreeMap<&'static str, (f64, usize)>,
    /// Placements (or requests) attempted.
    pub attempted: usize,
    /// Every failed check, in order.
    failures: Vec<String>,
    /// Failed checks; a job failing two checks counts twice.
    failed: usize,
    notes: Vec<String>,
}

impl Outcome {
    fn key(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"))
    }

    /// Records the median of `samples` for `name`.
    pub fn set(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = stats::median(samples) {
            self.set_value(name, m.value, m.n);
        }
    }

    /// Records a value summarising `n` samples.
    pub fn set_value(&mut self, name: &str, value: f64, n: usize) {
        self.readings.insert(Self::key(name), (value, n));
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Failed checks so far.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Records an informational line.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// `ok_frac`: attempted jobs that passed every check.
    pub fn set_ok_frac(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed);
        self.set_value(
            "ok_frac",
            ok as f64 / self.attempted.max(1) as f64,
            self.attempted,
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mmpd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_owned(), v.clone());
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: map
            .get("seed")
            .map_or(Ok(1), |s| s.parse())
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match map.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(t) => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        mmpd: PathBuf::from(get("mmpd")?),
        out: PathBuf::from(
            map.get("out")
                .cloned()
                .unwrap_or_else(|| "perfbench/out".to_owned()),
        ),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut out = Outcome::default();
    let mut tracer = trace::Tracer::new();
    let state_dir = args.out.join(format!("mmpd-state-{}", std::process::id()));
    match (args.workload.as_str(), args.trace) {
        ("serve_repeat", false) => {
            serve::run_timed(&args.mmpd, &state_dir, args.seconds, args.seed, &mut out)
        }
        ("serve_repeat", true) => {
            serve::run_traced(&args.mmpd, &state_dir, args.seed, &mut out, &mut tracer)
        }
        (w, trace) => {
            let jobs = if w == "place_iccad" {
                flow::iccad(args.seed)
            } else {
                flow::industrial(args.seed)
            };
            if trace {
                flow::run_traced(&jobs, &mut out, &mut tracer);
            } else {
                flow::run_timed(&jobs, args.seconds, args.seed, &mut out);
            }
        }
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let stem = args
            .out
            .join(format!("{}-seed{}", args.workload, args.seed));
        let files = [
            (stem.with_extension("trace.json"), tracer.to_json()),
            (stem.with_extension("folded"), tracer.folded()),
        ];
        for (path, body) in files {
            // why: one-shot trace artifacts, not state a run resumes from.
            #[allow(clippy::disallowed_methods)]
            let written = std::fs::write(&path, body);
            match written {
                Ok(()) => out.note(format!("wrote {}", path.display())),
                Err(e) => out.fail(format!("cannot write {}: {e}", path.display())),
            }
        }
    } else {
        // A metric a run could not measure (every job failed) is a failure,
        // not a silent zero.
        for (name, _) in END_TO_END {
            if !out.readings.contains_key(name) {
                out.fail(format!("{name} was not measured"));
            }
        }
    }

    println!(
        "perfbench {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut json = String::from("{");
    for (i, (name, unit)) in declared.iter().enumerate() {
        let (value, n) = out.readings.get(name).copied().unwrap_or((0.0, 0));
        println!("  {name:<28} {value:>16.6} {unit:<9} n={n}");
        let _ = write!(
            json,
            "{}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" }
        );
    }
    json.push('}');
    for note in &out.notes {
        println!("  note: {note}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{json}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{map_get, Value};

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let v = serde_json::parse_value(&text).unwrap();
        let pairs = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Seq(items)) = map_get(&v, key) else {
                panic!("{key}")
            };
            items
                .iter()
                .map(|m| match (map_get(m, "name"), map_get(m, "unit")) {
                    (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name/unit"),
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let Some(Value::Seq(w)) = map_get(&v, "workloads") else {
            panic!("workloads")
        };
        let names: Vec<_> = w
            .iter()
            .filter_map(|x| match map_get(x, "name") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, "train"), derive_seed(1, "train"));
        assert_ne!(derive_seed(1, "train"), derive_seed(2, "train"));
        assert_ne!(
            derive_seed(1, "design/ibm01"),
            derive_seed(1, "design/ibm02")
        );
        assert!(derive_seed(u64::MAX, "x") <= u64::from(u32::MAX));
    }
}
