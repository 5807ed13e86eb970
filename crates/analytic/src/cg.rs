//! Jacobi-preconditioned conjugate gradient for the SPD placement systems.
//!
//! The solver is pool-aware: [`solve_pooled`] runs its reductions through
//! the deterministic chunked helpers of [`ThreadPool`] (fixed
//! [`SUM_CHUNK`](mmp_pool::SUM_CHUNK) partials, ascending fold) and its
//! sparse matrix-vector products through a fixed row partition, so the
//! solution is bitwise identical at every worker count.

use crate::sparse::CsrMatrix;
use mmp_pool::ThreadPool;
use serde::{Deserialize, Serialize};

/// Rows per parallel SpMV work unit. Fixed (never derived from the worker
/// count) so the row partition — and with it every accumulation — is
/// identical no matter how many workers execute it.
const SPMV_CHUNK: usize = 512;

/// Nonzeros below which [`spmv`] runs on the calling thread at any worker
/// count. Measured on a 2-vCPU VM (banded test matrices with 9 nonzeros
/// per row; medians of 9 or 21 batches of 200 products): opening a
/// two-worker fan-out costs about 50–80 µs, and two workers took 1.4–15×
/// the one-worker time up to 108k nonzeros, 0.71–1.86× from 144k to 288k
/// and 0.64–0.99× at 432k and 576k. A CG iteration runs one product, so
/// the solves of the benchmark designs (a few thousand nonzeros) stay
/// inline.
const SPMV_PAR_MIN_NNZ: usize = 1 << 19;

/// `y = A·x` with rows computed in fixed [`SPMV_CHUNK`] blocks distributed
/// over the pool, or inline below [`SPMV_PAR_MIN_NNZ`]. Bitwise identical
/// to the serial kernel at any worker count: each output row is written
/// exactly once, in the same per-row accumulation order.
fn spmv(pool: &ThreadPool, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(y.len(), a.dim(), "output length mismatch");
    let inline = ThreadPool::single();
    let pool = if a.nnz() < SPMV_PAR_MIN_NNZ {
        &inline
    } else {
        pool
    };
    pool.for_each_chunk_mut(y, SPMV_CHUNK, |row0, block| {
        a.multiply_rows_into(x, row0, block);
    });
}

/// Result of a conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgOutcome {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// `true` when the residual target was met within the iteration budget.
    pub converged: bool,
    /// `true` when the iteration produced non-finite values even after a
    /// restart; `x` then holds the warm start (the last numerically sound
    /// state).
    #[serde(default)]
    pub diverged: bool,
    /// Health restarts performed (0 or 1): a restart re-seeds the Krylov
    /// directions from the warm start after a NaN/Inf was detected.
    #[serde(default)]
    pub restarts: usize,
}

/// Solves `A·x = b` for symmetric positive-definite `A` with
/// Jacobi-preconditioned CG, warm-started from `x0`.
///
/// Rows whose diagonal is zero (fully unconstrained variables) keep their
/// warm-start value — placement systems produce these for nodes with no
/// nets, and pinning them is the sensible physical answer.
///
/// # Numerical health
///
/// The iteration watches for NaN/Inf in the step size and residual. On the
/// first non-finite value the solver *restarts* once: the Krylov state is
/// re-seeded from a sanitised warm start (non-finite entries replaced by
/// zero). If the restarted iteration also blows up, the solve returns with
/// [`CgOutcome::diverged`] set and `x` equal to that sanitised warm start —
/// never NaN — so callers can keep the previous placement.
///
/// # Panics
///
/// Panics when `b.len()` or `x0.len()` differ from the matrix dimension.
pub fn solve(a: &CsrMatrix, b: &[f64], x0: &[f64], tol: f64, max_iters: usize) -> CgOutcome {
    solve_pooled(&ThreadPool::single(), a, b, x0, tol, max_iters)
}

/// [`solve`] with the dot products and sparse matrix-vector products
/// distributed over `pool`. The chunked reduction order and row partition
/// are fixed independently of the worker count, so the outcome is bitwise
/// identical to the single-worker solve.
///
/// # Panics
///
/// Panics when `b.len()` or `x0.len()` differ from the matrix dimension.
pub fn solve_pooled(
    pool: &ThreadPool,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tol: f64,
    max_iters: usize,
) -> CgOutcome {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x0.len(), n, "warm start length mismatch");

    let diag = a.diagonal();
    let inv_diag: Vec<f64> = diag
        .iter()
        .map(|&d| {
            if d.abs() > 1e-300 && d.is_finite() {
                1.0 / d
            } else {
                0.0
            }
        })
        .collect();
    // The numerically sound fallback state: the warm start with any
    // non-finite entries pinned to zero.
    let safe_x0: Vec<f64> = x0
        .iter()
        .map(|&v| if v.is_finite() { v } else { 0.0 })
        .collect();
    let b_norm = b
        .iter()
        .filter(|v| v.is_finite())
        .map(|v| v * v)
        // mmp-lint: allow(float-reduction) why: sequential sum in source order; feeds the convergence tolerance only
        .sum::<f64>()
        .sqrt()
        .max(1e-30);
    let target = tol * b_norm;

    let mut restarts = 0usize;
    let mut total_iters = 0usize;
    let mut x = safe_x0.clone();
    let mut ax = vec![0.0; n];
    let mut ap = vec![0.0; n];
    'attempt: loop {
        spmv(pool, a, &x, &mut ax);
        let mut r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        // Zero residual components of unconstrained rows so they stay put;
        // also sanitise NaN residual entries coming from a poisoned system.
        for i in 0..n {
            if inv_diag[i] == 0.0 || !r[i].is_finite() {
                r[i] = 0.0;
            }
        }
        let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
        let mut p = z.clone();
        let mut rz = pool.dot_f64(&r, &z);
        let mut residual = pool.dot_f64(&r, &r).sqrt();
        if !residual.is_finite() || !rz.is_finite() {
            if restarts == 0 {
                restarts = 1;
                x.copy_from_slice(&safe_x0);
                continue 'attempt;
            }
            return CgOutcome {
                x: safe_x0,
                iterations: total_iters,
                residual: f64::INFINITY,
                converged: false,
                diverged: true,
                restarts,
            };
        }
        if residual <= target {
            return CgOutcome {
                x,
                iterations: total_iters,
                residual,
                converged: true,
                diverged: false,
                restarts,
            };
        }

        while total_iters < max_iters {
            spmv(pool, a, &p, &mut ap);
            let pap = pool.dot_f64(&p, &ap);
            if pap.abs() < 1e-300 {
                return CgOutcome {
                    x,
                    iterations: total_iters,
                    residual,
                    converged: residual <= target,
                    diverged: false,
                    restarts,
                };
            }
            let alpha = rz / pap;
            if !alpha.is_finite() {
                if restarts == 0 {
                    restarts = 1;
                    x.copy_from_slice(&safe_x0);
                    continue 'attempt;
                }
                return CgOutcome {
                    x: safe_x0,
                    iterations: total_iters,
                    residual: f64::INFINITY,
                    converged: false,
                    diverged: true,
                    restarts,
                };
            }
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
                if inv_diag[i] == 0.0 {
                    r[i] = 0.0;
                }
            }
            residual = pool.dot_f64(&r, &r).sqrt();
            total_iters += 1;
            if !residual.is_finite() {
                if restarts == 0 {
                    restarts = 1;
                    x.copy_from_slice(&safe_x0);
                    continue 'attempt;
                }
                return CgOutcome {
                    x: safe_x0,
                    iterations: total_iters,
                    residual: f64::INFINITY,
                    converged: false,
                    diverged: true,
                    restarts,
                };
            }
            if residual <= target {
                return CgOutcome {
                    x,
                    iterations: total_iters,
                    residual,
                    converged: true,
                    diverged: false,
                    restarts,
                };
            }
            for i in 0..n {
                z[i] = r[i] * inv_diag[i];
            }
            let rz_next = pool.dot_f64(&r, &z);
            let beta = rz_next / rz;
            rz = rz_next;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        return CgOutcome {
            x,
            iterations: total_iters,
            residual,
            converged: false,
            diverged: false,
            restarts,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use proptest::prelude::*;

    fn laplacian_2d(n: usize) -> CsrMatrix {
        // Tridiagonal SPD: 2 on diag (3 at ends via +1 boundary), -1 off.
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 2.0 + if i == 0 || i == n - 1 { 1.0 } else { 0.0 });
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t.into_csr()
    }

    #[test]
    fn solves_identity() {
        let mut t = Triplets::new(3);
        for i in 0..3 {
            t.add(i, i, 1.0);
        }
        let out = solve(&t.into_csr(), &[1.0, -2.0, 3.0], &[0.0; 3], 1e-12, 100);
        assert!(out.converged);
        for (got, want) in out.x.iter().zip([1.0, -2.0, 3.0]) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_tridiagonal_system() {
        let a = laplacian_2d(50);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.multiply(&x_true);
        let out = solve(&a, &b, &vec![0.0; 50], 1e-10, 500);
        assert!(out.converged, "residual {}", out.residual);
        for (got, want) in out.x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = laplacian_2d(80);
        let x_true: Vec<f64> = (0..80).map(|i| (i as f64 * 0.11).cos()).collect();
        let b = a.multiply(&x_true);
        let cold = solve(&a, &b, &vec![0.0; 80], 1e-10, 1000);
        let warm = solve(&a, &b, &x_true, 1e-10, 1000);
        assert!(warm.iterations <= cold.iterations);
        assert_eq!(warm.iterations, 0, "exact warm start converges instantly");
    }

    #[test]
    fn unconstrained_rows_keep_warm_start() {
        // Row 1 has zero diagonal: variable 1 must stay at its warm start.
        let mut t = Triplets::new(2);
        t.add(0, 0, 4.0);
        let a = t.into_csr();
        let out = solve(&a, &[8.0, 123.0], &[0.0, 7.0], 1e-12, 50);
        assert!((out.x[0] - 2.0).abs() < 1e-10);
        assert_eq!(out.x[1], 7.0);
    }

    #[test]
    fn zero_rhs_converges_immediately_at_zero() {
        let a = laplacian_2d(5);
        let out = solve(&a, &[0.0; 5], &[0.0; 5], 1e-12, 50);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn nan_rhs_never_poisons_the_solution() {
        let a = laplacian_2d(6);
        let mut b = vec![1.0; 6];
        b[2] = f64::NAN;
        let out = solve(&a, &b, &[0.0; 6], 1e-10, 100);
        assert!(out.x.iter().all(|v| v.is_finite()), "{:?}", out.x);
    }

    #[test]
    fn nan_matrix_diverges_gracefully_to_warm_start() {
        let mut t = Triplets::new(3);
        t.add(0, 0, 2.0);
        t.add(1, 1, f64::NAN);
        t.add(2, 2, 2.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        let a = t.into_csr();
        let out = solve(&a, &[1.0, 1.0, 1.0], &[0.5, 0.5, 0.5], 1e-10, 100);
        assert!(out.x.iter().all(|v| v.is_finite()), "{:?}", out.x);
        assert!(!out.converged || !out.diverged);
        if out.diverged {
            assert_eq!(out.restarts, 1);
            assert_eq!(out.x, vec![0.5, 0.5, 0.5]);
        }
    }

    #[test]
    fn nan_warm_start_is_sanitised() {
        let a = laplacian_2d(4);
        let b = vec![1.0; 4];
        let out = solve(&a, &b, &[f64::NAN, 0.0, f64::INFINITY, 0.0], 1e-10, 200);
        assert!(out.x.iter().all(|v| v.is_finite()));
        assert!(out.converged);
    }

    #[test]
    fn healthy_solves_report_no_restarts() {
        let a = laplacian_2d(10);
        let b = vec![1.0; 10];
        let out = solve(&a, &b, &[0.0; 10], 1e-10, 200);
        assert!(out.converged);
        assert!(!out.diverged);
        assert_eq!(out.restarts, 0);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let a = laplacian_2d(200);
        let b = vec![1.0; 200];
        let out = solve(&a, &b, &vec![0.0; 200], 1e-14, 3);
        assert_eq!(out.iterations, 3);
        assert!(!out.converged);
    }

    #[test]
    fn pooled_spmv_above_the_inline_floor_is_bitwise_invariant() {
        // Tridiagonal, 3n - 2 nonzeros: just over SPMV_PAR_MIN_NNZ, so the
        // row blocks really are spread over the workers.
        let n = SPMV_PAR_MIN_NNZ / 3 + 2;
        let a = laplacian_2d(n);
        assert!(a.nnz() >= SPMV_PAR_MIN_NNZ);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
        let mut want = vec![0.0; n];
        spmv(&ThreadPool::single(), &a, &x, &mut want);
        for w in [2usize, 4, 8] {
            let mut got = vec![0.0; n];
            spmv(&ThreadPool::try_new(w).unwrap(), &a, &x, &mut got);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "w={w}: product bits drifted");
        }
    }

    #[test]
    fn pooled_solve_is_bitwise_invariant_in_worker_count() {
        // A placement-sized system: below the SpMV and reduction inline
        // floors, so every worker count must take the same inline path.
        let n = 1500;
        let a = laplacian_2d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
        let b = a.multiply(&x_true);
        let baseline = solve(&a, &b, &vec![0.0; n], 1e-10, 400);
        for w in [2usize, 4, 8] {
            let pool = ThreadPool::try_new(w).unwrap();
            let out = solve_pooled(&pool, &a, &b, &vec![0.0; n], 1e-10, 400);
            assert_eq!(out.iterations, baseline.iterations, "w={w}");
            assert_eq!(out.residual.to_bits(), baseline.residual.to_bits(), "w={w}");
            let same = out
                .x
                .iter()
                .zip(&baseline.x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "w={w}: solution bits drifted");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn cg_recovers_random_solutions(
            vals in proptest::collection::vec(-1.0f64..1.0, 12),
        ) {
            let a = laplacian_2d(12);
            let b = a.multiply(&vals);
            let out = solve(&a, &b, &[0.0; 12], 1e-12, 200);
            prop_assert!(out.converged);
            for (got, want) in out.x.iter().zip(&vals) {
                prop_assert!((got - want).abs() < 1e-7);
            }
        }
    }
}
