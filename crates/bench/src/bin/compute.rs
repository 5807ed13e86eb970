//! BENCH_compute — the deterministic compute substrate: GEMM microkernel
//! throughput, batched network-forward latency, CG solve time, and the
//! thread-scaling behaviour of the fixed pool.
//!
//! ```sh
//! cargo run --release -p mmp-bench --bin compute            # full run
//! MMP_SMOKE=1 cargo run --release -p mmp-bench --bin compute # CI smoke
//! ```
//!
//! Measures, against the scalar [`reference`](mod@reference)
//! kernels the tiled path is bitwise-verified against:
//!
//! * `gemm` — square-GEMM GFLOP/s, tiled vs reference;
//! * `forward` — `PolicyValueNet::forward_batch` latency at the tiny and
//!   paper (ζ = 16, 128 channels, 10 ResBlocks) architectures, tiled vs
//!   reference kernels through an unmodified forward pass;
//! * `train_update` — one A2C update of the tiny ζ = 8 net: a taped
//!   `forward_train_batch` plus `backward_batch` over 64 transitions (the
//!   trainer's update chunk);
//! * `cg` — one preconditioned CG solve on a grid Laplacian;
//! * `thread_scaling` — the same forward/CG work under 1/2/4 pool
//!   workers, with the bitwise-identity of every output asserted (the
//!   pool must buy wall-clock only, never different bits).
//!
//! The full run asserts the tiled batched forward at paper scale (batch
//! 32) is at least 2× the scalar baseline. The snapshot is archived as
//! `results/BENCH_compute.json`.

use mmp_analytic::{cg, Triplets};
use mmp_bench::header;
use mmp_nn::matmul::{self, reference};
use mmp_nn::{InferenceCtx, KernelKind};
use mmp_pool::ThreadPool;
use mmp_rl::{AgentConfig, NetOutput, PolicyValueNet, StateRef};
use serde::Serialize;
use std::time::Instant;

/// `true` when the run should shrink to CI-smoke sizes.
// why: the bench harness is the sanctioned env-reading edge
#[allow(clippy::disallowed_methods)]
fn smoke() -> bool {
    std::env::var("MMP_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// `true` when `mmp_nn::matmul` takes its AVX2 arm on this host.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Median seconds per call of `f` over `reps` timed calls.
fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Deterministic splitmix64 stream for benchmark inputs.
struct Mix(u64);

impl Mix {
    fn next_f32(&mut self) -> f32 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    }
}

fn filled(n: usize, mix: &mut Mix) -> Vec<f32> {
    (0..n).map(|_| mix.next_f32()).collect()
}

#[derive(Serialize)]
struct GemmRow {
    m: usize,
    k: usize,
    n: usize,
    reference_gflops: f64,
    tiled_gflops: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ForwardRow {
    arch: String,
    zeta: usize,
    channels: usize,
    res_blocks: usize,
    batch: usize,
    reference_ms: f64,
    tiled_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct TrainRow {
    arch: String,
    zeta: usize,
    channels: usize,
    res_blocks: usize,
    batch: usize,
    update_ms: f64,
}

#[derive(Serialize)]
struct CgRow {
    n: usize,
    nnz: usize,
    iterations: usize,
    converged: bool,
    solve_ms: f64,
}

#[derive(Serialize)]
struct ScaleRow {
    workers: usize,
    forward_ms: f64,
    cg_ms: f64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct Snapshot {
    smoke: bool,
    /// Whether the host ran the GEMM's AVX2 arm.
    avx2: bool,
    gemm: Vec<GemmRow>,
    forward: Vec<ForwardRow>,
    train_update: TrainRow,
    cg: CgRow,
    thread_scaling: Vec<ScaleRow>,
}

/// Times `c += a·b` through both kernels; also cross-checks their bits.
fn bench_gemm(m: usize, k: usize, n: usize, reps: usize) -> GemmRow {
    let mut mix = Mix(0x6e6d);
    let a = filled(m * k, &mut mix);
    let b = filled(k * n, &mut mix);
    let mut c_ref = vec![0.0f32; m * n];
    let mut c_tiled = vec![0.0f32; m * n];
    reference::matmul(&a, &b, &mut c_ref, m, k, n);
    matmul::matmul(&a, &b, &mut c_tiled, m, k, n);
    assert!(
        c_ref
            .iter()
            .zip(&c_tiled)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "tiled GEMM diverged from the reference bits at {m}x{k}x{n}"
    );
    let flops = 2.0 * (m * k * n) as f64;
    let mut sink = vec![0.0f32; m * n];
    let ref_s = median_s(reps, || {
        reference::matmul(&a, &b, &mut sink, m, k, n);
        std::hint::black_box(&sink);
    });
    let tiled_s = median_s(reps, || {
        matmul::matmul(&a, &b, &mut sink, m, k, n);
        std::hint::black_box(&sink);
    });
    GemmRow {
        m,
        k,
        n,
        reference_gflops: flops / ref_s / 1e9,
        tiled_gflops: flops / tiled_s / 1e9,
        speedup: ref_s / tiled_s,
    }
}

/// A deterministic batch of observations for `cfg`'s grid.
fn make_states(zeta: usize, batch: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
    let z2 = zeta * zeta;
    let mut mix = Mix(0x0b5);
    (0..batch)
        .map(|_| {
            let s_p = filled(z2, &mut mix);
            // Availability maps are probabilities; keep them in (0, 1].
            let s_a: Vec<f32> = (0..z2).map(|_| mix.next_f32().abs() + 0.25).collect();
            (s_p, s_a)
        })
        .collect()
}

fn forward_once(
    net: &PolicyValueNet,
    states: &[(Vec<f32>, Vec<f32>)],
    ctx: &mut InferenceCtx,
) -> Vec<NetOutput> {
    let refs: Vec<StateRef<'_>> = states
        .iter()
        .enumerate()
        .map(|(t, (s_p, s_a))| StateRef {
            s_p,
            s_a,
            t,
            total: states.len(),
        })
        .collect();
    net.forward_batch(&refs, ctx)
}

/// Times a batched forward through both kernel kinds on one architecture.
fn bench_forward(arch: &str, cfg: AgentConfig, batch: usize, reps: usize) -> ForwardRow {
    let net = PolicyValueNet::new(cfg);
    let states = make_states(cfg.zeta, batch);
    let mut ref_ctx = InferenceCtx::new().with_kernel(KernelKind::Reference);
    let mut tiled_ctx = InferenceCtx::new();
    // Warm up both buffer pools and cross-check the kernel-kind bits once.
    let out_ref = forward_once(&net, &states, &mut ref_ctx);
    let out_tiled = forward_once(&net, &states, &mut tiled_ctx);
    assert!(
        outputs_identical(&out_ref, &out_tiled),
        "{arch}: kernel kinds must produce identical bits"
    );
    let ref_s = median_s(reps, || {
        std::hint::black_box(forward_once(&net, &states, &mut ref_ctx));
    });
    let tiled_s = median_s(reps, || {
        std::hint::black_box(forward_once(&net, &states, &mut tiled_ctx));
    });
    ForwardRow {
        arch: arch.to_owned(),
        zeta: cfg.zeta,
        channels: cfg.channels,
        res_blocks: cfg.res_blocks,
        batch,
        reference_ms: ref_s * 1e3,
        tiled_ms: tiled_s * 1e3,
        speedup: ref_s / tiled_s,
    }
}

/// Times one A2C update (taped forward, backward, gradient reset) of the
/// tiny net over a `batch`-transition chunk.
fn bench_train_update(batch: usize, reps: usize) -> TrainRow {
    let cfg = AgentConfig::tiny(8);
    let mut net = PolicyValueNet::new(cfg);
    let states = make_states(cfg.zeta, batch);
    let refs: Vec<StateRef<'_>> = states
        .iter()
        .enumerate()
        .map(|(t, (s_p, s_a))| StateRef {
            s_p,
            s_a,
            t,
            total: batch,
        })
        .collect();
    let z2 = cfg.zeta * cfg.zeta;
    let targets: Vec<(usize, f32)> = (0..batch)
        .map(|s| ((s * 7) % z2, 0.5 - s as f32 / batch as f32))
        .collect();
    let mut update = || {
        std::hint::black_box(net.forward_train_batch(&refs));
        net.backward_batch(&targets, 0.0);
        net.zero_grad();
    };
    update();
    let update_s = median_s(reps, update);
    TrainRow {
        arch: "tiny_z8".to_owned(),
        zeta: cfg.zeta,
        channels: cfg.channels,
        res_blocks: cfg.res_blocks,
        batch,
        update_ms: update_s * 1e3,
    }
}

fn outputs_identical(a: &[NetOutput], b: &[NetOutput]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.value.to_bits() == y.value.to_bits()
                && x.probs.len() == y.probs.len()
                && x.probs
                    .iter()
                    .zip(&y.probs)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// A `side`×`side` 5-point grid Laplacian (shifted SPD), the shape of the
/// analytic placer's star-model systems.
fn grid_laplacian(side: usize) -> mmp_analytic::CsrMatrix {
    let n = side * side;
    let mut t = Triplets::new(n);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            t.add(i, i, 4.0 + 1e-3);
            for (nr, nc) in [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ] {
                if nr < side && nc < side {
                    t.add(i, nr * side + nc, -1.0);
                }
            }
        }
    }
    t.into_csr()
}

fn bench_cg(pool: &ThreadPool, side: usize, reps: usize) -> (CgRow, Vec<u64>) {
    let a = grid_laplacian(side);
    let n = a.dim();
    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
    let x0 = vec![0.0f64; n];
    let outcome = cg::solve_pooled(pool, &a, &b, &x0, 1e-9, 4 * n);
    let solve_s = median_s(reps, || {
        std::hint::black_box(cg::solve_pooled(pool, &a, &b, &x0, 1e-9, 4 * n));
    });
    let bits = outcome.x.iter().map(|v| v.to_bits()).collect();
    (
        CgRow {
            n,
            nnz: a.nnz(),
            iterations: outcome.iterations,
            converged: outcome.converged,
            solve_ms: solve_s * 1e3,
        },
        bits,
    )
}

fn main() {
    let smoke = smoke();
    header(
        "BENCH_compute — GEMM, batched forward, CG, thread scaling",
        "tiled microkernels vs the scalar reference they are bitwise-equal to",
    );
    if smoke {
        println!("MMP_SMOKE set: CI-smoke sizes\n");
    }

    // --- GEMM throughput ------------------------------------------------
    let gemm_sizes: &[(usize, usize, usize)] = if smoke {
        &[(48, 48, 48)]
    } else {
        &[(64, 64, 64), (128, 128, 128), (256, 256, 256)]
    };
    let gemm_reps = if smoke { 3 } else { 7 };
    println!(
        "{:>14} | {:>10} {:>10} {:>8}",
        "GEMM m×k×n", "ref GF/s", "tiled GF/s", "speedup"
    );
    let gemm: Vec<GemmRow> = gemm_sizes
        .iter()
        .map(|&(m, k, n)| {
            let row = bench_gemm(m, k, n, gemm_reps);
            println!(
                "{:>5}x{:>3}x{:>3} | {:>10.2} {:>10.2} {:>7.1}x",
                row.m, row.k, row.n, row.reference_gflops, row.tiled_gflops, row.speedup
            );
            row
        })
        .collect();

    // --- Batched forward latency ----------------------------------------
    println!(
        "\n{:>10} {:>5} {:>6} | {:>11} {:>11} {:>8}",
        "arch", "zeta", "batch", "ref (ms)", "tiled (ms)", "speedup"
    );
    let mut forward = Vec::new();
    let tiny_batches: &[usize] = if smoke { &[8] } else { &[1, 8, 32] };
    for &batch in tiny_batches {
        forward.push(bench_forward(
            "tiny_z8",
            AgentConfig::tiny(8),
            batch,
            if smoke { 3 } else { 5 },
        ));
    }
    if !smoke {
        // The acceptance measurement: Table I architecture, batch 32.
        forward.push(bench_forward("paper_z16", AgentConfig::paper(), 32, 3));
    }
    for row in &forward {
        println!(
            "{:>10} {:>5} {:>6} | {:>11.2} {:>11.2} {:>7.1}x",
            row.arch, row.zeta, row.batch, row.reference_ms, row.tiled_ms, row.speedup
        );
    }
    if !smoke {
        let paper = forward
            .iter()
            .find(|r| r.arch == "paper_z16")
            .expect("paper row measured above");
        assert!(
            paper.speedup >= 2.0,
            "tiled batched forward at paper scale must be >= 2x the scalar \
             baseline, measured {:.2}x",
            paper.speedup
        );
    }

    // --- A2C update -----------------------------------------------------
    let train_update = bench_train_update(64, if smoke { 3 } else { 21 });
    println!(
        "\nA2C update {} batch {}: {:.2} ms (forward_train_batch + backward_batch)",
        train_update.arch, train_update.batch, train_update.update_ms
    );

    // --- CG solve -------------------------------------------------------
    let cg_side = if smoke { 24 } else { 64 };
    let cg_reps = if smoke { 3 } else { 5 };
    let (cg_row, cg_bits_1w) = bench_cg(&ThreadPool::single(), cg_side, cg_reps);
    println!(
        "\nCG grid Laplacian n={} nnz={}: {:.2} ms, {} iterations, converged={}",
        cg_row.n, cg_row.nnz, cg_row.solve_ms, cg_row.iterations, cg_row.converged
    );
    assert!(cg_row.converged, "the benchmark system must converge");

    // --- Thread scaling -------------------------------------------------
    // One core or many, the pool contract is the same: worker count buys
    // wall-clock at most — the bits never move. Assert that here, where a
    // violation is cheapest to spot.
    let net = PolicyValueNet::new(AgentConfig::tiny(8));
    let states = make_states(8, 32);
    let mut base_ctx = InferenceCtx::new();
    let base_out = forward_once(&net, &states, &mut base_ctx);
    println!(
        "\n{:>8} | {:>12} {:>10} {:>9}",
        "workers", "forward (ms)", "cg (ms)", "bitwise"
    );
    let mut thread_scaling = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = ThreadPool::try_new(workers).expect("worker counts 1..=4 are valid");
        let mut ctx = InferenceCtx::new().with_exec(pool);
        let out = forward_once(&net, &states, &mut ctx);
        let forward_s = median_s(if smoke { 3 } else { 5 }, || {
            std::hint::black_box(forward_once(&net, &states, &mut ctx));
        });
        let (cg_w, cg_bits) = bench_cg(&pool, cg_side, if smoke { 3 } else { 5 });
        let bitwise = outputs_identical(&base_out, &out) && cg_bits == cg_bits_1w;
        assert!(bitwise, "worker count {workers} changed output bits");
        println!(
            "{:>8} | {:>12.2} {:>10.2} {:>9}",
            workers,
            forward_s * 1e3,
            cg_w.solve_ms,
            bitwise
        );
        thread_scaling.push(ScaleRow {
            workers,
            forward_ms: forward_s * 1e3,
            cg_ms: cg_w.solve_ms,
            bitwise_identical: bitwise,
        });
    }

    let snapshot = Snapshot {
        smoke,
        avx2: avx2(),
        gemm,
        forward,
        train_update,
        cg: cg_row,
        thread_scaling,
    };
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    // A smoke run must never clobber the committed full-size snapshot.
    let path = if smoke {
        "results/BENCH_compute_smoke.json"
    } else {
        "results/BENCH_compute.json"
    };
    // why: the snapshot is a best-effort output artifact, not resumable
    // state, so the bench edge keeps bare `fs::write` under a scoped allow.
    #[allow(clippy::disallowed_methods)]
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, json + "\n"))
    {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
