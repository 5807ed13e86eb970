//! `mmp` — command-line front end for the macro placer.
//!
//! ```text
//! mmp generate --circuit ibm01 --scale 0.002 --out ibm01.bks
//! mmp generate --spec 12,2,24,400,650 --hierarchy --seed 42 --out d.bks
//! mmp stats    --in d.bks
//! mmp place    --in d.bks --zeta 8 --episodes 100 --explorations 200 \
//!              --out placed.bks --svg placed.svg
//! mmp svg      --in placed.bks --out view.svg
//! ```

use mmp_core::{
    DesignStats, MacroPlacer, PlaceError, PlacerConfig, RunBudget, RunReport, SwapRefineConfig,
    SyntheticSpec,
};
use mmp_netlist::{bookshelf, bookshelf_aux, svg, Placement};
use mmp_obs::{JsonlSink, Obs, StderrSink};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// CLI failure, mapped to a distinct exit code in `main`:
///
/// | code  | meaning                                         |
/// |-------|-------------------------------------------------|
/// | 2     | usage error (bad subcommand, flags, arguments)  |
/// | 1     | I/O or parse error (files, bookshelf, svg)      |
/// | 10–16 | stage-typed `PlaceError` (`exit_code()`); 16 is |
/// |       | checkpoint persistence/resume trouble           |
enum CliError {
    /// Wrong invocation: prints the usage text, exits 2.
    Usage(String),
    /// File / parse / write trouble: exits 1.
    Io(String),
    /// The placer itself failed: exits with the stage's code (10–16).
    Place(PlaceError),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n\
         \x20 mmp generate (--circuit <ibmNN|CirN> | --spec M,P,IO,CELLS,NETS) \\\n\
         \x20              [--scale F] [--seed N] [--hierarchy] --out FILE\n\
         \x20 mmp stats    --in FILE\n\
         \x20 mmp place    --in FILE [--zeta N] [--episodes N] [--explorations N] \\\n\
         \x20              [--seed N] [--ensemble N] [--workers N] [--budget-ms N] \\\n\
         \x20              [--refine] [--refine-moves N] [--refine-seed N] \\\n\
         \x20              [--refine-budget-ms N] \\\n\
         \x20              [--checkpoint-dir DIR] [--resume] [--fault-io SPEC] \\\n\
         \x20              [--trace stderr|FILE] [--report-json FILE] \\\n\
         \x20              [--out FILE] [--svg FILE]\n\
         \x20 mmp svg      --in FILE --out FILE [--labels]"
    );
    ExitCode::from(2)
}

fn parse_flags(args: &[String]) -> (BTreeMap<String, String>, Vec<String>) {
    let mut flags = BTreeMap::new();
    let mut bare = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(name.to_owned(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_owned(), String::from("true"));
                i += 1;
            }
        } else {
            bare.push(args[i].clone());
            i += 1;
        }
    }
    (flags, bare)
}

fn load(path: &str) -> Result<(mmp_core::Design, Option<Placement>), String> {
    if path.ends_with(".aux") {
        let (design, placement) =
            bookshelf_aux::read_aux(Path::new(path), 4.0).map_err(|e| e.to_string())?;
        return Ok((design, Some(placement)));
    }
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    bookshelf::read(path, BufReader::new(file)).map_err(|e| e.to_string())
}

fn store(design: &mmp_core::Design, placement: &Placement, path: &str) -> Result<(), String> {
    if path.ends_with(".aux") {
        bookshelf_aux::write_aux(design, placement, Path::new(path)).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let file = File::create(path).map_err(|e| e.to_string())?;
    bookshelf::write(design, Some(placement), BufWriter::new(file)).map_err(|e| e.to_string())
}

fn find_spec(name: &str) -> Option<SyntheticSpec> {
    mmp_core::iccad04_suite()
        .into_iter()
        .chain(mmp_core::industrial_suite())
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    let (flags, _) = parse_flags(&args[1..]);
    // Each subcommand's flags: a mistyped one must not silently fall back
    // to a default and change the experiment.
    let known: &[&str] = match cmd.as_str() {
        "generate" => &["circuit", "spec", "scale", "seed", "hierarchy", "out"],
        "stats" => &["in"],
        "place" => &[
            "in",
            "zeta",
            "episodes",
            "explorations",
            "seed",
            "ensemble",
            "workers",
            "budget-ms",
            "refine",
            "refine-moves",
            "refine-seed",
            "refine-budget-ms",
            "checkpoint-dir",
            "resume",
            "fault-io",
            "trace",
            "report-json",
            "out",
            "svg",
        ],
        "svg" => &["in", "out", "labels"],
        _ => return Err(CliError::Usage(format!("unknown subcommand {cmd}"))),
    };
    if let Some(k) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(CliError::Usage(format!("unknown flag --{k} for {cmd}")));
    }
    let get = |k: &str| flags.get(k).cloned();
    let get_usize = |k: &str, d: usize| -> Result<usize, CliError> {
        match flags.get(k) {
            None => Ok(d),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --{k}: {v}"))),
        }
    };
    let need = |k: &str, msg: &str| -> Result<String, CliError> {
        get(k).ok_or_else(|| CliError::Usage(msg.into()))
    };
    let io = CliError::Io;

    match cmd.as_str() {
        "generate" => {
            let out_path = need("out", "generate needs --out")?;
            let scale: f64 = get("scale")
                .map(|v| {
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --scale: {v}")))
                })
                .transpose()?
                .unwrap_or(1.0);
            let seed = get_usize("seed", 42)? as u64;
            let spec = if let Some(name) = get("circuit") {
                let mut s = find_spec(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown circuit {name}")))?;
                s.seed = seed;
                if scale < 1.0 {
                    s = s.scaled(scale);
                }
                s
            } else if let Some(spec_str) = get("spec") {
                let parts: Vec<usize> = spec_str
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad --spec: {spec_str}")))
                    })
                    .collect::<Result<_, _>>()?;
                if parts.len() != 5 {
                    return Err(CliError::Usage("--spec wants M,P,IO,CELLS,NETS".into()));
                }
                SyntheticSpec::small(
                    "custom",
                    parts[0],
                    parts[1],
                    parts[2],
                    parts[3],
                    parts[4],
                    flags.contains_key("hierarchy"),
                    seed,
                )
            } else {
                return Err(CliError::Usage("generate needs --circuit or --spec".into()));
            };
            let design = spec.generate();
            let file = File::create(&out_path).map_err(|e| io(e.to_string()))?;
            bookshelf::write(&design, None, BufWriter::new(file)).map_err(|e| io(e.to_string()))?;
            println!("{}", DesignStats::of(&design));
            println!("wrote {out_path}");
            Ok(())
        }
        "stats" => {
            let in_path = need("in", "stats needs --in")?;
            let (design, placement) = load(&in_path).map_err(io)?;
            println!("{}", DesignStats::of(&design));
            if let Some(pl) = placement {
                println!("placement present: HPWL = {:.1}", pl.hpwl(&design));
                println!("macro overlap     = {:.3}", pl.macro_overlap_area(&design));
            }
            Ok(())
        }
        "place" => {
            let in_path = need("in", "place needs --in")?;
            let (design, _) = load(&in_path).map_err(io)?;
            let zeta = get_usize("zeta", 8)?;
            let mut cfg = PlacerConfig::bench(zeta);
            cfg.trainer.episodes = get_usize("episodes", cfg.trainer.episodes)?;
            cfg.mcts.explorations = get_usize("explorations", cfg.mcts.explorations)?;
            cfg.trainer.seed = get_usize("seed", 0)? as u64;
            cfg.ensemble_runs = get_usize("ensemble", 1)?;
            // Deterministic: any worker count reproduces the same placement.
            cfg.workers = get_usize("workers", 1)?;
            if let Some(ms) = flags.get("budget-ms") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --budget-ms: {ms}")))?;
                cfg.budget = RunBudget::with_total(Duration::from_millis(ms));
            }
            // Any refine flag opts into the in-flow swap-refinement stage.
            if flags.contains_key("refine")
                || flags.contains_key("refine-moves")
                || flags.contains_key("refine-seed")
                || flags.contains_key("refine-budget-ms")
            {
                let defaults = SwapRefineConfig::default();
                cfg.refine = Some(SwapRefineConfig {
                    moves: get_usize("refine-moves", defaults.moves)?,
                    seed: get_usize("refine-seed", defaults.seed as usize)? as u64,
                });
                if let Some(ms) = flags.get("refine-budget-ms") {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| CliError::Usage(format!("bad --refine-budget-ms: {ms}")))?;
                    cfg.budget.refine = Some(Duration::from_millis(ms));
                }
            }
            // Resolve the tracing toggle exactly once, here at the edge:
            // the library crates never read environment variables.
            let obs = match get("trace").as_deref() {
                Some("stderr") => Obs::new(Box::new(StderrSink)),
                Some("true") | Some("") => {
                    return Err(CliError::Usage(
                        "--trace wants stderr or a file path".into(),
                    ))
                }
                Some(path) => {
                    Obs::new(Box::new(JsonlSink::create(path).map_err(|e| {
                        io(format!("cannot create trace file {path}: {e}"))
                    })?))
                }
                // No trace, but a report still wants the metrics registry.
                None if flags.contains_key("report-json") => Obs::metrics_only(),
                None => Obs::off(),
            };
            let mut placer = MacroPlacer::new(cfg).with_obs(obs.clone());
            match (get("checkpoint-dir"), flags.contains_key("resume")) {
                (Some(dir), _) if dir == "true" || dir.is_empty() => {
                    return Err(CliError::Usage(
                        "--checkpoint-dir wants a directory path".into(),
                    ))
                }
                (Some(dir), resume) => {
                    placer = placer.with_checkpoints(if resume {
                        mmp_core::CheckpointPlan::resume(dir)
                    } else {
                        mmp_core::CheckpointPlan::new(dir)
                    });
                }
                (None, true) => {
                    return Err(CliError::Usage(
                        "--resume needs --checkpoint-dir to resume from".into(),
                    ))
                }
                (None, false) => {}
            }
            // Dev knob mirroring the fault_crash/fault_pool_panic family:
            // arm a deterministic disk fault (spec: FAULT:NTH[:KINDS[:PATH]],
            // e.g. `enospc:3`, `crash:2:rename`) on the checkpoint I/O path.
            if let Some(spec) = get("fault-io") {
                let plan = mmp_core::FailPlan::parse(&spec).map_err(CliError::Usage)?;
                placer = placer.with_vfs(mmp_core::Vfs::with_plan(plan));
            }
            let result = placer.place(&design).map_err(CliError::Place)?;
            if result.checkpoint.disabled {
                println!("warning: checkpointing was disabled mid-run (see degradation report)");
            }
            if !result.checkpoint.resumes.is_empty() {
                println!(
                    "resumed from checkpoint: {}",
                    result.checkpoint.resumes.join(", ")
                );
            }
            println!(
                "HPWL = {:.1}, overlap = {:.3}, mcts = {:?}",
                result.hpwl,
                result.placement.macro_overlap_area(&design),
                result.timings.mcts
            );
            if let Some(r) = &result.refine {
                println!(
                    "refined: HPWL {:.1} -> {:.1} ({}/{} proposals accepted: \
                     {} swap(s), {} relocation(s))",
                    r.hpwl_before, r.hpwl_after, r.accepted, r.proposed, r.swaps, r.relocations
                );
            }
            if !result.degradation.is_empty() {
                eprintln!("run degraded under its budget/faults:");
                for e in &result.degradation.events {
                    eprintln!("  {}: {}", e.stage, e.detail);
                }
            }
            if let Some(report_path) = get("report-json") {
                let report = RunReport::new(design.name(), &result, &obs.snapshot());
                let json = report
                    .to_json()
                    .map_err(|e| io(format!("cannot serialize run report: {e}")))?;
                // why: the run report is a plain output file, not a checkpoint:
                // the crash-safe envelope (and its clippy ban on bare
                // `fs::write`) is for state the flow must resume from.
                #[allow(clippy::disallowed_methods)]
                std::fs::write(&report_path, json + "\n")
                    .map_err(|e| io(format!("cannot write {report_path}: {e}")))?;
                println!("wrote {report_path}");
            }
            obs.flush();
            let placement = result.placement;
            if let Some(out_path) = get("out") {
                store(&design, &placement, &out_path).map_err(io)?;
                println!("wrote {out_path}");
            }
            if let Some(svg_path) = get("svg") {
                let file = File::create(&svg_path).map_err(|e| io(e.to_string()))?;
                svg::write(
                    &design,
                    &placement,
                    &svg::SvgOptions::default(),
                    BufWriter::new(file),
                )
                .map_err(|e| io(e.to_string()))?;
                println!("wrote {svg_path}");
            }
            Ok(())
        }
        "svg" => {
            let in_path = need("in", "svg needs --in")?;
            let out_path = need("out", "svg needs --out")?;
            let (design, placement) = load(&in_path).map_err(io)?;
            let placement = placement.unwrap_or_else(|| Placement::initial(&design));
            let opts = svg::SvgOptions {
                macro_labels: flags.contains_key("labels"),
                ..svg::SvgOptions::default()
            };
            let file = File::create(&out_path).map_err(|e| io(e.to_string()))?;
            svg::write(&design, &placement, &opts, BufWriter::new(file))
                .map_err(|e| io(e.to_string()))?;
            println!("wrote {out_path}");
            Ok(())
        }
        _ => Err(CliError::Usage(format!("unknown subcommand {cmd}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
        Err(CliError::Io(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Place(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
