//! The flow workloads, `place_iccad` and `place_industrial`: a fixed list of
//! synthetic designs placed in turn by `MacroPlacer::place` in this process.
//!
//! The timed run repeats the list for the run's seconds (at least once) and
//! checks every placement with the oracle. The traced run places the list
//! once through `MacroPlacer::place` as the reference, replays Algorithm 1
//! through the stage crates' public calls under spans, requires the replay
//! to equal the reference bit for bit, and then times single calls into
//! each layer (probes) outside the replay's window.

use crate::trace::Tracer;
use crate::{derive_seed, oracle, stats, sys, Outcome};
use mmp_analytic::{CellPlaceOutcome, GlobalPlacer, GlobalPlacerConfig};
use mmp_cluster::{ClusterParams, Coarsener};
use mmp_core::{GridIndex, MacroPlacer, PlacerConfig, SyntheticSpec};
use mmp_legal::{LegalizeOutcome, MacroLegalizer};
use mmp_mcts::{MctsOutcome, MctsPlacer};
use mmp_netlist::{bookshelf, Design, Placement};
use mmp_obs::Obs;
use mmp_pool::ThreadPool;
use mmp_rl::{
    FullEvaluator, InferenceCtx, PlacementEnv, StateRef, Trainer, TrainingOutcome,
    WirelengthEvaluator,
};
use std::time::Instant;

/// Times the design list is materialised before the first pass and again
/// after every pass; `setup_s` is the median repetition. The host's speed
/// drifts on a scale of seconds, so samples spread over the run are
/// steadier than one burst at its start.
const SETUP_REPS: usize = 5;

/// Transitions per batched network update (the trainer's chunk size).
const UPDATE_BATCH: usize = 64;

/// One design of a flow workload with the configuration that places it.
pub struct FlowJob {
    /// The synthetic recipe.
    pub spec: SyntheticSpec,
    /// The placer configuration.
    pub config: PlacerConfig,
}

/// Base of every flow design's training seed. Designs and training seeds
/// stay fixed across workload seeds: at these budgets a different training
/// seed per workload seed spread `hpwl_gmean` 15% and `place_industrial`'s
/// work about 10% (see README.md), so the workload seed orders the list
/// instead.
const TRAIN_SEED: u64 = 1;

/// `jobs` in an order drawn from the workload seed (Fisher–Yates).
fn seeded_order(mut jobs: Vec<FlowJob>, seed: u64) -> Vec<FlowJob> {
    for i in (1..jobs.len()).rev() {
        let j = (derive_seed(seed, &format!("order/{i}")) % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

/// A suite circuit at `scale` with its canonical generator seed.
pub fn suite_spec(name: &str, scale: f64) -> SyntheticSpec {
    mmp_core::iccad04_suite()
        .into_iter()
        .chain(mmp_core::industrial_suite())
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is a suite circuit"))
        .scaled(scale)
}

/// `place_iccad`: the paper's Table III/IV pipeline at harness scale, the
/// bench config at a tenth of its budget (40 episodes, 50 explorations),
/// one worker. The full budget takes 22–27 s a pass, so a 35 s run would
/// hold a single pass; at a tenth it holds ten or more (see README.md).
pub fn iccad(seed: u64) -> Vec<FlowJob> {
    let jobs = ["ibm06", "ibm01", "ibm10", "ibm17"]
        .into_iter()
        .map(|name| {
            let mut config = PlacerConfig::bench(8);
            config.trainer.episodes = 40;
            config.mcts.explorations = 50;
            config.trainer.seed = derive_seed(TRAIN_SEED, &format!("train/{name}"));
            FlowJob {
                spec: suite_spec(name, 0.002),
                config,
            }
        })
        .collect();
    seeded_order(jobs, seed)
}

/// `place_industrial`: hierarchical designs with preplaced macros and
/// several hundred cells (all clustered by the exact path), an eighth of
/// the bench budget (50 episodes, 60 explorations), two workers. At scale
/// 0.005 and a quarter budget a pass takes 13–17 s; this keeps seven or
/// more passes in a 35 s run (see README.md).
pub fn industrial(seed: u64) -> Vec<FlowJob> {
    let jobs = ["Cir1", "Cir3", "Cir6"]
        .into_iter()
        .map(|name| {
            let mut config = PlacerConfig::bench(8);
            config.trainer.episodes = 50;
            config.mcts.explorations = 60;
            config.workers = 2;
            config.trainer.seed = derive_seed(TRAIN_SEED, &format!("train/{name}"));
            FlowJob {
                spec: suite_spec(name, 0.003),
                config,
            }
        })
        .collect();
    seeded_order(jobs, seed)
}

/// Generates a design and passes it through Bookshelf text, the path
/// `mmp place --in` takes. Returns the parsed design and its text.
pub fn materialize(spec: &SyntheticSpec) -> Result<(Design, Vec<u8>), String> {
    let mut text = Vec::new();
    bookshelf::write(&spec.generate(), None, &mut text)
        .map_err(|e| format!("{}: bookshelf write: {e}", spec.name))?;
    let (design, _) = bookshelf::read(&spec.name, text.as_slice())
        .map_err(|e| format!("{}: bookshelf read: {e}", spec.name))?;
    Ok((design, text))
}

/// Materialises the whole list `SETUP_REPS` times; returns the designs and
/// the per-repetition seconds.
fn setup(jobs: &[FlowJob]) -> Result<(Vec<Design>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut designs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        designs = jobs
            .iter()
            .map(|j| materialize(&j.spec).map(|(d, _)| d))
            .collect::<Result<_, _>>()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((designs, times))
}

/// What a repeated or re-staged placement must reproduce bit for bit: the
/// HPWL bits, the grid assignment and every coordinate.
type Answer = (u64, Vec<GridIndex>, Placement);

fn answer(hpwl: f64, assignment: &[GridIndex], placement: &Placement) -> Answer {
    (hpwl.to_bits(), assignment.to_vec(), placement.clone())
}

/// The timed run: set-up, then passes over the list until `seconds` would
/// be exceeded (at least one), every placement checked by the oracle, and
/// for multi-worker lists one design re-placed with one worker and
/// compared bit for bit.
pub fn run_timed(jobs: &[FlowJob], seconds: f64, seed: u64, out: &mut Outcome) {
    let (designs, mut setup_times) = match setup(jobs) {
        Ok(v) => v,
        Err(e) => return out.fail(e),
    };
    let start = Instant::now();
    let mut passes: Vec<f64> = Vec::new();
    let mut job_times = Vec::new();
    let mut first: Vec<Option<Answer>> = vec![None; jobs.len()];
    let mut hpwls = Vec::new();
    loop {
        let pass_start = Instant::now();
        let mut results = Vec::with_capacity(jobs.len());
        for (job, design) in jobs.iter().zip(&designs) {
            let t = Instant::now();
            let r = MacroPlacer::new(job.config.clone()).place(design);
            job_times.push(t.elapsed().as_secs_f64());
            results.push(r);
        }
        passes.push(pass_start.elapsed().as_secs_f64());
        match setup(jobs) {
            Ok((_, times)) => setup_times.extend(times),
            Err(e) => out.fail(e),
        }
        for ((job, design), (r, slot)) in jobs
            .iter()
            .zip(&designs)
            .zip(results.into_iter().zip(&mut first))
        {
            out.attempted += 1;
            let name = &job.spec.name;
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{name}: placement failed: {e}"));
                    continue;
                }
            };
            if let Err(v) = oracle::check(design, &r.placement, r.hpwl) {
                out.fail(format!("{name}: oracle: {}", v.join("; ")));
                continue;
            }
            let a = answer(r.hpwl, &r.assignment, &r.placement);
            match slot {
                None => {
                    hpwls.push(r.hpwl);
                    *slot = Some(a);
                }
                Some(f) if *f != a => {
                    out.fail(format!("{name}: a repeated pass placed differently"));
                }
                Some(_) => {}
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let typical = stats::median(&passes).map_or(0.0, |m| m.value);
        if elapsed + typical > seconds {
            break;
        }
    }
    let peak = sys::peak_rss_mb(None);

    // Pool contract from outside: the multi-worker answer equals a
    // one-worker placement of the same design, checked on one design per
    // run (rotating with the seed).
    let k = (seed % jobs.len() as u64) as usize;
    if jobs[k].config.workers > 1 && first[k].is_some() {
        let mut cfg = jobs[k].config.clone();
        cfg.workers = 1;
        let (name, workers) = (&jobs[k].spec.name, jobs[k].config.workers);
        match MacroPlacer::new(cfg).place(&designs[k]) {
            Ok(r) if Some(answer(r.hpwl, &r.assignment, &r.placement)) == first[k] => out.note(
                format!("worker check: {name} at {workers} workers equals 1 worker bit for bit"),
            ),
            Ok(_) => out.fail(format!(
                "{name}: {workers}-worker placement differs from 1-worker placement"
            )),
            Err(e) => out.fail(format!("{name}: 1-worker placement failed: {e}")),
        }
    }

    // Each design's fastest placement in the run: the host's slow phases
    // only add time, and last from seconds to minutes, so a run's median
    // lands in whichever phase held most of it (see README.md).
    let mut fastest = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let times: Vec<f64> = job_times
            .iter()
            .skip(k)
            .step_by(jobs.len())
            .copied()
            .collect();
        if let (Some(f), Some(m)) = (stats::fastest(&times), stats::median(&times)) {
            out.note(format!(
                "{} placed in {f:.3} s fastest, {:.3} s median of {}",
                job.spec.name, m.value, m.n
            ));
            fastest.push(f);
        }
    }
    if let Some(m) = stats::median(&passes) {
        out.note(format!("pass wall {:.3} s median of {}", m.value, m.n));
    }
    out.set("setup_s", &setup_times);
    if fastest.len() == jobs.len() {
        out.set_value("pass_s", fastest.iter().sum(), job_times.len());
        if let Some(m) = stats::median(&fastest) {
            out.set_value("job_s_p50", m.value, job_times.len());
        }
    }
    // In value order, so the sum inside the mean does not follow the
    // seed-drawn list order.
    hpwls.sort_by(f64::total_cmp);
    if let Some(g) = stats::geometric_mean(&hpwls).filter(|_| hpwls.len() == jobs.len()) {
        out.set_value("hpwl_gmean", g, hpwls.len());
    }
    out.set_ok_frac();
    if let Some(p) = peak {
        out.note(format!("peak RSS {p:.3} MB"));
    }
}

/// What the replay of one design produced.
struct Replayed<'d> {
    trainer: Trainer<'d>,
    training: TrainingOutcome,
    search: MctsOutcome,
    legal: LegalizeOutcome,
    cells: CellPlaceOutcome,
}

/// Algorithm 1 through the stage crates' public calls, in the order
/// `MacroPlacer::place` makes them for an unbudgeted, checkpoint-free,
/// single-search run, one span per call.
fn replay<'d>(
    design: &'d Design,
    cfg: &PlacerConfig,
    obs: &Obs,
    tracer: &mut Tracer,
    job: &str,
) -> Result<Replayed<'d>, String> {
    let pool = ThreadPool::try_new(cfg.workers).map_err(|e| e.to_string())?;
    tracer.span("job", job, |t| {
        let trainer = t
            .span("core.preprocess", job, |_| {
                Trainer::try_new(design, cfg.trainer.clone())
            })
            .map_err(|e| e.to_string())?
            .with_obs(obs.clone());
        let training = t
            .span("core.train", job, |_| trainer.train_with_deadline(None))
            .map_err(|e| e.to_string())?;
        let search = t.span("core.search", job, |_| {
            let mut ctx = InferenceCtx::new().with_exec(pool);
            MctsPlacer::new(cfg.mcts.clone())
                .with_obs(obs.clone())
                .place_with_ctx_deadline(&trainer, &training.agent, &training.scale, &mut ctx, None)
        });
        let legal = t
            .span("core.legalize", job, |_| {
                MacroLegalizer::new()
                    .with_obs(obs.clone())
                    .legalize_with_deadline(
                        design,
                        trainer.coarse(),
                        &search.assignment,
                        trainer.grid(),
                        None,
                    )
            })
            .map_err(|e| e.to_string())?;
        let cells = t.span("core.final_place", job, |_| {
            GlobalPlacer::new(cfg.final_placer.clone())
                .with_obs(obs.clone())
                .with_pool(pool)
                .place_cells(design, &legal.placement)
        });
        Ok(Replayed {
            trainer,
            training,
            search,
            legal,
            cells,
        })
    })
}

/// Median wall-clock milliseconds of `f`, called repeatedly for about
/// `budget_ms` (at least once, at most 200 times).
fn probe_ms<T>(budget_ms: f64, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.is_empty() || (start.elapsed().as_secs_f64() * 1e3 < budget_ms && times.len() < 200)
    {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times).map_or(0.0, |m| m.value)
}

/// Per-design probe results and the exact counts they multiply.
#[derive(Default)]
struct Probe {
    parse_ms: f64,
    place_mixed_ms: f64,
    coarsen_ms: f64,
    exact_cells: usize,
    eval_ms: f64,
    legalize_ms: f64,
    place_cells_ms: f64,
    infer_ms: f64,
    update_ms: f64,
}

fn probe(
    design: &Design,
    text: &[u8],
    cfg: &PlacerConfig,
    r: &Replayed<'_>,
) -> Result<Probe, String> {
    let mut p = Probe {
        parse_ms: probe_ms(50.0, || bookshelf::read(design.name(), text).map(|_| ())),
        ..Probe::default()
    };
    let proto = GlobalPlacer::new(GlobalPlacerConfig::fast());
    let initial = proto.place_mixed(design);
    p.place_mixed_ms = probe_ms(200.0, || proto.place_mixed(design));
    let mut params = ClusterParams::paper(r.trainer.grid().cell_area());
    if !cfg.trainer.group_macros {
        params.nu = f64::INFINITY;
    }
    let coarsener = Coarsener::new(&params);
    p.coarsen_ms = probe_ms(200.0, || {
        coarsener.try_coarsen(design, &initial).map(|_| ())
    });
    if design.cells().len() <= params.exact_limit {
        p.exact_cells = design.cells().len();
    }

    // One greedy episode of the trained agent gives a terminal state for
    // the evaluator and the states for the network probes.
    let agent = &r.training.agent;
    let mut ctx = InferenceCtx::new();
    let mut env = PlacementEnv::new(design, r.trainer.coarse(), r.trainer.grid().clone());
    let mut states = Vec::new();
    while !env.is_terminal() {
        let s = env.state();
        let a = agent.greedy_action(&s, &mut ctx);
        states.push((s, a));
        env.step(a);
    }
    if states.is_empty() {
        return Err(format!("{}: episode has no steps", design.name()));
    }
    let evaluator = FullEvaluator::fast();
    p.eval_ms = probe_ms(200.0, || evaluator.wirelength(&env));
    let legalizer = MacroLegalizer::new();
    let legal = &r.legal;
    p.legalize_ms = probe_ms(200.0, || {
        legalizer.legalize(
            design,
            r.trainer.coarse(),
            &r.search.assignment,
            r.trainer.grid(),
        )
    });
    let cell_placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
    p.place_cells_ms = probe_ms(200.0, || cell_placer.place_cells(design, &legal.placement));
    let s0 = &states[0].0;
    p.infer_ms = probe_ms(100.0, || agent.policy_value(s0, &mut ctx));
    let batch: Vec<_> = states.iter().cycle().take(UPDATE_BATCH).collect();
    let refs: Vec<StateRef<'_>> = batch
        .iter()
        .map(|(s, _)| StateRef {
            s_p: &s.s_p,
            s_a: &s.s_a,
            t: s.t,
            total: s.total,
        })
        .collect();
    let targets: Vec<(usize, f32)> = batch.iter().map(|(_, a)| (*a, 0.5)).collect();
    let mut learner = agent.clone();
    let beta = cfg.trainer.entropy_beta;
    p.update_ms = probe_ms(200.0, || {
        let net = learner.net_mut();
        let _ = net.forward_train_batch(&refs);
        net.backward_batch(&targets, beta);
        net.zero_grad();
    });
    Ok(p)
}

/// The traced run: reference pass, replay pass under spans, bitwise
/// comparison, probes, and the per-layer readings.
pub fn run_traced(jobs: &[FlowJob], out: &mut Outcome, tracer: &mut Tracer) {
    let mut designs = Vec::new();
    let mut texts = Vec::new();
    for j in jobs {
        match materialize(&j.spec) {
            Ok((d, t)) => {
                designs.push(d);
                texts.push(t);
            }
            Err(e) => return out.fail(e),
        }
    }

    let t = Instant::now();
    let reference: Vec<_> = jobs
        .iter()
        .zip(&designs)
        .map(|(j, d)| MacroPlacer::new(j.config.clone()).place(d))
        .collect();
    let reference_s = t.elapsed().as_secs_f64();

    let obs = Obs::metrics_only();
    let cpu0 = sys::cpu_seconds(None);
    let t = Instant::now();
    let mut replays = Vec::with_capacity(jobs.len());
    for (j, d) in jobs.iter().zip(&designs) {
        replays.push(replay(d, &j.config, &obs, tracer, &j.spec.name));
    }
    let replay_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds(None).zip(cpu0).map(|(b, a)| b - a);
    let peak = sys::peak_rss_mb(None);

    let mut ok = Vec::new();
    for (((j, d), reference), replayed) in jobs.iter().zip(&designs).zip(reference).zip(replays) {
        out.attempted += 1;
        let name = &j.spec.name;
        let (reference, r) = match (reference, replayed) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) => {
                out.fail(format!("{name}: placement failed: {e}"));
                continue;
            }
            (_, Err(e)) => {
                out.fail(format!("{name}: replay failed: {e}"));
                continue;
            }
        };
        if answer(reference.hpwl, &reference.assignment, &reference.placement)
            != answer(r.cells.hpwl, &r.search.assignment, &r.cells.placement)
        {
            out.fail(format!("{name}: replay differs from MacroPlacer::place"));
            continue;
        }
        if let Err(v) = oracle::check(d, &r.cells.placement, r.cells.hpwl) {
            out.fail(format!("{name}: oracle: {}", v.join("; ")));
            continue;
        }
        ok.push((j, d, r));
    }
    if ok.len() != jobs.len() {
        return;
    }

    let mut probes = Vec::new();
    for ((j, d, r), text) in ok.iter().zip(&texts) {
        match probe(d, text, &j.config, r) {
            Ok(p) => probes.push(p),
            Err(e) => return out.fail(e),
        }
    }

    let snap = obs.snapshot();
    let counter = |k: &str| snap.counter(k).unwrap_or(0) as f64;
    let n = jobs.len();
    let sum = |f: &dyn Fn(&Probe) -> f64| probes.iter().map(f).sum::<f64>();
    out.set_value("netlist.parse_ms", sum(&|p| p.parse_ms), n);
    out.set_value("cluster.coarsen_ms", sum(&|p| p.coarsen_ms), n);
    out.set_value(
        "cluster.coarsen_share",
        sum(&|p| p.coarsen_ms) / (replay_s * 1e3),
        n,
    );
    out.set_value("cluster.exact_cells", sum(&|p| p.exact_cells as f64), n);
    out.set_value("analytic.place_mixed_ms", sum(&|p| p.place_mixed_ms), n);
    out.set_value("analytic.place_cells_ms", sum(&|p| p.place_cells_ms), n);
    out.set_value("analytic.cg_iters", counter("analytic.cg_iters"), n);
    out.set_value("analytic.qp_solves", counter("analytic.qp_solves"), n);
    out.set_value("analytic.spread_iters", counter("analytic.spread_iters"), n);
    out.set_value("legal.legalize_ms", sum(&|p| p.legalize_ms), n);
    out.set_value("legal.global_rounds", counter("legal.global_rounds"), n);
    out.set_value("legal.fallback_cells", counter("legal.fallback_cells"), n);
    out.set_value("rl.eval_ms", sum(&|p| p.eval_ms), n);
    out.set_value("rl.episodes", counter("rl.episodes"), n);
    out.set_value("nn.infer_ms", sum(&|p| p.infer_ms), n);
    out.set_value("nn.update_ms", sum(&|p| p.update_ms), n);

    // Computed shares: probe time × exact call counts over the measured
    // stage time.
    let (mut eval_work, mut nn_work, mut terminal_work) = (0.0, 0.0, 0.0);
    let (mut train_ms, mut search_ms) = (0.0, 0.0);
    let mut stats_sum = mmp_mcts::SearchStats::default();
    for ((j, d, r), p) in ok.iter().zip(&probes) {
        let job = j.spec.name.as_str();
        let job_ms = |name: &str| {
            tracer
                .spans()
                .iter()
                .filter(|s| s.job == job && s.name == name)
                .map(|s| (s.end_us - s.start_us) / 1e3)
                .sum::<f64>()
        };
        let episodes = r.training.history.episode_rewards.len() as f64;
        let steps =
            PlacementEnv::new(d, r.trainer.coarse(), r.trainer.grid().clone()).episode_len() as f64;
        let calibration = j.config.trainer.calibration_episodes.max(1) as f64;
        eval_work += p.eval_ms * (calibration + episodes);
        nn_work +=
            p.infer_ms * episodes * steps + p.update_ms * episodes * steps / UPDATE_BATCH as f64;
        terminal_work += p.eval_ms * r.search.stats.terminal_evaluations as f64;
        train_ms += job_ms("core.train");
        search_ms += job_ms("core.search");
        let s = r.search.stats;
        stats_sum.explorations += s.explorations;
        stats_sum.value_evaluations += s.value_evaluations;
        stats_sum.terminal_evaluations += s.terminal_evaluations;
        stats_sum.nodes += s.nodes;
    }
    out.set_value("rl.eval_share", eval_work / train_ms, n);
    out.set_value("nn.train_share", nn_work / train_ms, n);
    out.set_value("mcts.explorations", stats_sum.explorations as f64, n);
    out.set_value(
        "mcts.value_evaluations",
        stats_sum.value_evaluations as f64,
        n,
    );
    out.set_value(
        "mcts.terminal_evaluations",
        stats_sum.terminal_evaluations as f64,
        n,
    );
    out.set_value("mcts.nodes", stats_sum.nodes as f64, n);
    out.set_value("mcts.terminal_share", terminal_work / search_ms, n);

    let stages = [
        ("core.preprocess", "core.preprocess_ms"),
        ("core.train", "core.train_ms"),
        ("core.search", "core.search_ms"),
        ("core.legalize", "core.legalize_ms"),
        ("core.final_place", "core.final_place_ms"),
    ];
    let mut stage_sum = 0.0;
    for (span, metric) in stages {
        let ms = tracer.total_ms(span);
        stage_sum += ms;
        out.set_value(metric, ms, n);
    }
    out.set_value("core.overhead_ms", tracer.total_ms("job") - stage_sum, n);
    if let Some(cpu) = cpu_s {
        out.set_value("pool.cpu_s", cpu, 1);
        out.set_value("pool.cpu_per_wall", cpu / replay_s, 1);
    }
    if let Some(mb) = peak {
        out.set_value("mem.peak_rss_mb", mb, 1);
    }
    out.set_value("obs.trace_overhead_frac", replay_s / reference_s - 1.0, 1);
    out.note(format!(
        "replay pass {replay_s:.3} s vs MacroPlacer::place pass {reference_s:.3} s; replay equals reference bit for bit on {n} designs"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(jobs: &[FlowJob]) -> Vec<String> {
        jobs.iter().map(|j| j.spec.name.clone()).collect()
    }

    #[test]
    fn the_workload_seed_orders_a_fixed_list() {
        let a = names(&iccad(7));
        assert_eq!(a, names(&iccad(7)));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, ["ibm01", "ibm06", "ibm10", "ibm17"]);
        assert!((1..20).any(|s| names(&iccad(s)) != a));
        // Training seeds belong to the design, not to the workload seed.
        let train_seed = |jobs: Vec<FlowJob>, name: &str| {
            jobs.into_iter()
                .find(|j| j.spec.name == name)
                .map(|j| j.config.trainer.seed)
        };
        assert_eq!(
            train_seed(industrial(1), "Cir3"),
            train_seed(industrial(2), "Cir3")
        );
    }
}
