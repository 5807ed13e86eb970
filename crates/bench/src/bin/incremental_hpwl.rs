//! BENCH_incremental_hpwl — the incremental evaluator's speedup over a
//! full HPWL recompute, plus the swap-refinement stage's effect on the
//! committed wirelength.
//!
//! ```sh
//! cargo run --release -p mmp-bench --bin incremental_hpwl
//! ```
//!
//! Per scaled ICCAD04-like circuit this measures:
//!
//! * `full_ns` — one from-scratch `Placement::hpwl` pass over the final
//!   mixed-size placement;
//! * `delta_ns` — one single-macro delta evaluation on the incremental
//!   evaluator (`move_macro` + re-summed `total` + `revert`), the unit of
//!   work every refinement proposal costs;
//! * the flow's committed HPWL vs the HPWL after the `--refine` stage
//!   (one run: the stage reports both), with the stage's wall-clock.
//!
//! The snapshot is archived as `results/BENCH_incremental_hpwl.json`.

use mmp_bench::{header, iccad_scale, ours_config};
use mmp_core::{iccad04_suite, MacroPlacer, Point, SwapRefineConfig};
use mmp_netlist::{Design, IncrementalHpwl, MacroId, Placement, SyntheticSpec};
use serde::Serialize;
use std::time::Instant;

/// Circuits measured (a prefix of the suite keeps the run in minutes).
const CIRCUITS: usize = 4;
/// Timed repetitions per measurement; the median is reported.
const REPS: usize = 7;
/// Evaluations per repetition.
const EVALS: usize = 50;

/// Median nanoseconds per call of `f` over [`REPS`] batches of [`EVALS`].
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..EVALS {
                f();
            }
            t.elapsed().as_nanos() as f64 / EVALS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[derive(Serialize)]
struct Row {
    circuit: String,
    macros: usize,
    nets: usize,
    full_ns: f64,
    delta_ns: f64,
    speedup: f64,
    hpwl_committed: f64,
    hpwl_refined: f64,
    refine_proposed: usize,
    refine_accepted: usize,
    refine_ms: f64,
}

/// Fixed-size timing row, independent of `MMP_SCALE`.
#[derive(Serialize)]
struct PaperScale {
    macros: usize,
    nets: usize,
    full_ns: f64,
    delta_ns: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Snapshot {
    scale: f64,
    zeta: usize,
    refine_moves: usize,
    rows: Vec<Row>,
    paper_scale: PaperScale,
}

/// Times one full pass vs one single-macro delta eval on `placement`.
fn time_eval(design: &Design, placement: &Placement) -> (f64, f64) {
    let full_ns = median_ns(|| {
        std::hint::black_box(placement.hpwl(design));
    });
    let mut inc = IncrementalHpwl::new(design, placement.clone());
    let probe = MacroId::from_index(0);
    let full_check = placement.hpwl(design);
    assert_eq!(inc.total().to_bits(), full_check.to_bits());
    let delta_ns = median_ns(|| {
        let c = inc.placement().macro_center(probe);
        inc.move_macro(probe, Point::new(c.x + 1.0, c.y));
        std::hint::black_box(inc.total());
        inc.revert();
    });
    (full_ns, delta_ns)
}

fn main() {
    header(
        "BENCH_incremental_hpwl — delta eval vs full recompute",
        "per circuit: single-macro delta eval, full HPWL pass, refine effect",
    );
    let scale = iccad_scale();
    let zeta = 16;
    let rcfg = SwapRefineConfig::default();
    println!("scale factor {scale} (MMP_SCALE to change)\n");
    println!(
        "{:>6} | {:>6} {:>7} | {:>10} {:>10} {:>8} | {:>12} {:>12} {:>9}",
        "Cir.",
        "#Mac",
        "#Nets",
        "full(ns)",
        "delta(ns)",
        "speedup",
        "committed",
        "refined",
        "acc/prop"
    );

    let mut rows = Vec::new();
    for spec in iccad04_suite()
        .into_iter()
        .filter(|s| s.movable_macros > 0)
        .take(CIRCUITS)
    {
        let spec = spec.scaled(scale);
        let design = spec.generate();
        let mut cfg = ours_config(zeta);
        cfg.refine = Some(rcfg);
        let result = MacroPlacer::new(cfg)
            .place(&design)
            .expect("synthetic suites are feasible");
        let refine = result.refine.expect("refine stage was configured");
        let (full_ns, delta_ns) = time_eval(&design, &result.placement);
        let speedup = full_ns / delta_ns;
        println!(
            "{:>6} | {:>6} {:>7} | {:>10.0} {:>10.0} {:>7.1}x | {:>12.1} {:>12.1} {:>5}/{}",
            spec.name,
            design.macros().len(),
            design.nets().len(),
            full_ns,
            delta_ns,
            speedup,
            refine.hpwl_before,
            refine.hpwl_after,
            refine.accepted,
            refine.proposed,
        );
        assert!(
            refine.hpwl_after <= refine.hpwl_before,
            "{}: refinement must never raise the committed HPWL",
            spec.name
        );
        rows.push(Row {
            circuit: spec.name.clone(),
            macros: design.macros().len(),
            nets: design.nets().len(),
            full_ns,
            delta_ns,
            speedup,
            hpwl_committed: refine.hpwl_before,
            hpwl_refined: refine.hpwl_after,
            refine_proposed: refine.proposed,
            refine_accepted: refine.accepted,
            refine_ms: result.timings.refine.as_secs_f64() * 1e3,
        });
    }

    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    println!("\nminimum single-macro delta-eval speedup: {min_speedup:.1}x");

    // Paper-scale reference: at thousands of nets the touched-nets fraction per macro is
    // small and the delta eval pulls well clear of the full pass (the
    // scaled rows above keep shrinking with MMP_SCALE and converge on the
    // O(#nets) re-sum floor instead).
    let paper = SyntheticSpec::small("inc_bench", 24, 4, 40, 1500, 2600, true, 7).generate();
    let (p_full, p_delta) = time_eval(&paper, &Placement::initial(&paper));
    let paper_scale = PaperScale {
        macros: paper.macros().len(),
        nets: paper.nets().len(),
        full_ns: p_full,
        delta_ns: p_delta,
        speedup: p_full / p_delta,
    };
    println!(
        "paper-scale ({} nets): full {:.0} ns, delta {:.0} ns, speedup {:.1}x",
        paper_scale.nets, p_full, p_delta, paper_scale.speedup
    );
    assert!(
        paper_scale.speedup >= 5.0,
        "single-macro delta eval must be >= 5x a full recompute at paper scale"
    );

    let snapshot = Snapshot {
        scale,
        zeta,
        refine_moves: rcfg.moves,
        rows,
        paper_scale,
    };
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let path = "results/BENCH_incremental_hpwl.json";
    // why: the snapshot is a best-effort output artifact, not resumable
    // state, so the bench edge keeps bare `fs::write` under a scoped allow.
    #[allow(clippy::disallowed_methods)]
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, json + "\n"))
    {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}
