//! Two-run bitwise determinism regression: the invariant `mmp-lint`'s
//! rules exist to protect. The full flow, run twice in one process on the
//! same design and config, must produce bit-identical placements, HPWL,
//! and run-report counters/gauges — any drift means unordered iteration,
//! OS-seeded randomness, or wall-clock leakage reached a decision.

use mmp_core::{
    MacroPlacer, PlacementResult, PlacerConfig, RunReport, SwapRefineConfig, SyntheticSpec, Trainer,
};
use mmp_netlist::MacroId;
use mmp_obs::Obs;

fn small_config() -> PlacerConfig {
    let mut cfg = PlacerConfig::fast(6);
    cfg.trainer.episodes = 8;
    cfg.trainer.calibration_episodes = 4;
    cfg.mcts.explorations = 12;
    cfg
}

fn run_config(design: &mmp_netlist::Design, cfg: PlacerConfig) -> (PlacementResult, RunReport) {
    // A fresh Obs per run: shared metrics would hide per-run drift.
    let obs = Obs::metrics_only();
    let result = MacroPlacer::new(cfg)
        .with_obs(obs.clone())
        .place(design)
        .unwrap();
    let report = RunReport::new(design.name(), &result, &obs.snapshot());
    (result, report)
}

fn run_once(design: &mmp_netlist::Design) -> (PlacementResult, RunReport) {
    run_config(design, small_config())
}

#[test]
fn full_flow_is_bitwise_deterministic_across_two_runs() {
    let design = SyntheticSpec::small("det_reg", 10, 2, 14, 120, 200, true, 21).generate();
    let (ra, pa) = run_once(&design);
    let (rb, pb) = run_once(&design);

    // HPWL to the last bit — not an epsilon comparison.
    assert_eq!(ra.hpwl.to_bits(), rb.hpwl.to_bits(), "HPWL drifted");

    // The grid assignment (the MCTS/RL decision output) must be identical.
    assert_eq!(ra.assignment, rb.assignment, "grid assignment drifted");

    // Every macro coordinate, bit for bit.
    for i in 0..design.macros().len() {
        let ca = ra.placement.macro_center(MacroId::from_index(i));
        let cb = rb.placement.macro_center(MacroId::from_index(i));
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "macro {i} moved between runs"
        );
    }

    // Run-report counters and gauges capture per-stage work (solver
    // iterations, search visits, legalization rounds). Wall-clock fields
    // (`timings`, `span_ms`) are excluded: they legitimately vary.
    assert_eq!(pa.counters, pb.counters, "observability counters drifted");
    assert_eq!(
        pa.gauges.keys().collect::<Vec<_>>(),
        pb.gauges.keys().collect::<Vec<_>>(),
        "gauge set drifted"
    );
    for (k, va) in &pa.gauges {
        let vb = pb.gauges[k];
        assert_eq!(va.to_bits(), vb.to_bits(), "gauge {k} drifted");
    }

    // Deterministic report sections beyond the metrics registry.
    assert_eq!(pa.training, pb.training, "training summary drifted");
    assert_eq!(pa.search, pb.search, "search stats drifted");
}

#[test]
fn refine_enabled_flow_is_bitwise_deterministic_across_two_runs() {
    // Same regression with the post-MCTS swap-refinement stage on: the
    // seeded proposal stream and incremental-HPWL accept decisions must
    // replay exactly, including the refine counters in the report.
    let design = SyntheticSpec::small("det_ref", 10, 2, 14, 120, 200, true, 21).generate();
    let cfg = || {
        let mut c = small_config();
        c.refine = Some(SwapRefineConfig {
            moves: 200,
            seed: 11,
        });
        c
    };
    let (ra, pa) = run_config(&design, cfg());
    let (rb, pb) = run_config(&design, cfg());

    assert_eq!(ra.hpwl.to_bits(), rb.hpwl.to_bits(), "HPWL drifted");
    for i in 0..design.macros().len() {
        let ca = ra.placement.macro_center(MacroId::from_index(i));
        let cb = rb.placement.macro_center(MacroId::from_index(i));
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "macro {i} moved between runs"
        );
    }
    let sa = ra.refine.unwrap();
    let sb = rb.refine.unwrap();
    assert_eq!(sa, sb, "refine summary drifted");
    assert!(sa.hpwl_after <= sa.hpwl_before, "refine raised HPWL");
    assert_eq!(
        pa.counters.get("refine.moves"),
        pb.counters.get("refine.moves")
    );
    assert_eq!(pa.counters, pb.counters, "observability counters drifted");
}

#[test]
fn pooled_flow_is_bitwise_deterministic_across_two_runs_and_worker_counts() {
    // The compute pool must be bitwise-neutral: with a fixed summation
    // order in every kernel and reduction, a multi-worker run replays
    // exactly against itself AND against the single-worker flow. The
    // coarse proxy scores training episodes inline; full evaluation sends
    // every update window's episodes through the pool.
    let design = SyntheticSpec::small("det_pool", 10, 2, 14, 120, 200, true, 21).generate();
    for coarse_eval in [true, false] {
        let cfg = |workers: usize| {
            let mut c = small_config();
            c.workers = workers;
            c.trainer.coarse_eval = coarse_eval;
            c
        };
        let (ra, pa) = run_config(&design, cfg(4));
        let (rb, pb) = run_config(&design, cfg(4));
        let (rc, pc) = run_config(&design, cfg(1));
        let mode = if coarse_eval { "coarse" } else { "full" };

        assert_eq!(ra.hpwl.to_bits(), rb.hpwl.to_bits(), "{mode}: HPWL drifted");
        assert_eq!(
            ra.hpwl.to_bits(),
            rc.hpwl.to_bits(),
            "{mode}: worker count changed the HPWL bits"
        );
        assert_eq!(
            ra.training, rc.training,
            "{mode}: worker count changed the training history"
        );
        assert_eq!(
            pa.training, pc.training,
            "{mode}: worker count changed the training summary"
        );
        assert_eq!(
            ra.assignment, rb.assignment,
            "{mode}: grid assignment drifted"
        );
        assert_eq!(
            ra.assignment, rc.assignment,
            "{mode}: worker count changed the assignment"
        );
        for i in 0..design.macros().len() {
            let ca = ra.placement.macro_center(MacroId::from_index(i));
            let cb = rb.placement.macro_center(MacroId::from_index(i));
            let cc = rc.placement.macro_center(MacroId::from_index(i));
            assert_eq!(
                (ca.x.to_bits(), ca.y.to_bits()),
                (cb.x.to_bits(), cb.y.to_bits()),
                "{mode}: macro {i} moved between pooled runs"
            );
            assert_eq!(
                (ca.x.to_bits(), ca.y.to_bits()),
                (cc.x.to_bits(), cc.y.to_bits()),
                "{mode}: macro {i} moved with the worker count"
            );
        }
        assert_eq!(
            pa.counters, pb.counters,
            "{mode}: observability counters drifted"
        );
    }
}

/// FNV-1a hash of the trained agent's JSON, recorded from commit 573fd9b
/// (x86-64, glibc libm).
const PINNED_AGENT_JSON_FNV1A: u64 = 9_114_452_914_176_466_202;
/// `to_bits()` of the final HPWL, recorded alongside
/// [`PINNED_AGENT_JSON_FNV1A`].
const PINNED_HPWL_BITS: u64 = 4_669_403_135_949_215_368;
/// The search's effort counters `(explorations, value_evaluations,
/// terminal_evaluations, nodes)`, recorded from commit a32554e. The HPWL
/// alone would miss a change to what the search evaluates that still
/// commits the same groups.
const PINNED_SEARCH_EFFORT: (usize, usize, usize, usize) = (84, 12, 6, 18);
/// FNV-1a hash of the grid assignment's JSON, recorded alongside
/// [`PINNED_SEARCH_EFFORT`].
const PINNED_ASSIGNMENT_JSON_FNV1A: u64 = 17_180_650_632_906_076_241;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn training_and_placement_bits_match_the_recorded_constants() {
    // The tests above compare two runs of one build, so a refactor that
    // moves a bit in both runs alike passes them. This one compares a
    // trained agent, the search's effort and outcome, and a final HPWL
    // against constants recorded from earlier commits. A change to the
    // libm or the target architecture may move them; a change to the code
    // must not.
    let design = SyntheticSpec::small("det_pin", 10, 2, 14, 120, 200, true, 21).generate();
    for workers in [1usize, 4] {
        let mut cfg = small_config();
        cfg.workers = workers;
        cfg.trainer.episodes = 36;
        cfg.trainer.coarse_eval = false;
        let pool = mmp_pool::ThreadPool::try_new(workers).unwrap();
        let outcome = Trainer::try_new(&design, cfg.trainer.clone())
            .unwrap()
            .with_pool(pool)
            .train();
        let json = serde_json::to_string(&outcome.agent).unwrap();
        assert_eq!(
            fnv1a(json.as_bytes()),
            PINNED_AGENT_JSON_FNV1A,
            "workers={workers}: trained agent drifted from the recorded bits"
        );
        let result = MacroPlacer::new(cfg).place(&design).unwrap();
        assert_eq!(
            result.hpwl.to_bits(),
            PINNED_HPWL_BITS,
            "workers={workers}: HPWL {} drifted from the recorded bits",
            result.hpwl
        );
        let s = result.mcts_stats;
        assert_eq!(
            (
                s.explorations,
                s.value_evaluations,
                s.terminal_evaluations,
                s.nodes
            ),
            PINNED_SEARCH_EFFORT,
            "workers={workers}: search effort drifted from the recorded counts"
        );
        let assignment = serde_json::to_string(&result.assignment).unwrap();
        assert_eq!(
            fnv1a(assignment.as_bytes()),
            PINNED_ASSIGNMENT_JSON_FNV1A,
            "workers={workers}: grid assignment drifted from the recorded bits"
        );
    }
}
