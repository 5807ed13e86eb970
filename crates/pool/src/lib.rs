#![warn(missing_docs)]
// Hardened crate: panicking extractors are denied in CI on library code
// (tests may unwrap freely). Justified invariant `expect`s carry explicit
// allows at the call site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Structured output goes through mmp_obs; stray prints are denied in CI.
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Deterministic fixed-partition thread pool.
//!
//! Every multicore fan-out in the workspace goes through [`ThreadPool`],
//! which is deliberately *not* a work-stealing executor:
//!
//! * the worker count comes from **config only** — this crate never calls
//!   `std::thread::available_parallelism()` (an mmp-lint rule bans it
//!   workspace-wide), so scheduling never varies across machines;
//! * the work partition is **fixed**: `tasks` indices are split into
//!   contiguous ranges of `ceil(tasks / workers)`, worker `w` taking range
//!   `w` — no stealing, no racing for indices;
//! * results are collected in **ascending task order**, and the reduction
//!   helpers ([`ThreadPool::dot_f64`], [`ThreadPool::sum_f64`]) use a fixed
//!   chunk size ([`SUM_CHUNK`]) *independent of the worker count*, folding
//!   partials in ascending chunk order — so a pool with 8 workers is
//!   bitwise identical to one with 1.
//!
//! Panic handling is deterministic too: a panicking task never tears the
//! process down mid-`scope`; the pool joins every worker, then either
//! re-raises the payload of the **lowest-index** panicked worker
//! ([`ThreadPool::run`]) or reports it as a typed
//! [`PoolError::WorkerPanicked`] ([`ThreadPool::try_run`]).
//!
//! A `workers == 1` pool executes inline on the caller's thread (no spawn),
//! which is the default everywhere — parallelism is strictly opt-in via
//! config.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Upper bound on configurable workers; guards against configs that would
/// spawn an absurd thread count per parallel region.
pub const MAX_WORKERS: usize = 64;

/// Fixed chunk length for deterministic sum reductions. Independent of the
/// worker count by design: partials are always computed over these exact
/// ranges and folded in ascending chunk order, so the result cannot depend
/// on how chunks were distributed over threads.
pub const SUM_CHUNK: usize = 1024;

/// Minimum vector length before [`ThreadPool::dot_f64`] /
/// [`ThreadPool::sum_f64`] spawn threads; below it the same chunked
/// reduction runs inline (identical bits, no spawn overhead).
const PAR_MIN_REDUCE: usize = 16_384;

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// Typed pool failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// A pool cannot have zero workers.
    ZeroWorkers,
    /// The configured worker count exceeds [`MAX_WORKERS`].
    TooManyWorkers {
        /// Requested worker count.
        workers: usize,
        /// The allowed maximum ([`MAX_WORKERS`]).
        max: usize,
    },
    /// A worker panicked while executing its task range (reported by the
    /// `try_` variants; the panicking variants re-raise instead).
    WorkerPanicked {
        /// Lowest index of the panicked workers (deterministic pick).
        worker: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::ZeroWorkers => write!(f, "thread pool requires at least one worker"),
            PoolError::TooManyWorkers { workers, max } => {
                write!(
                    f,
                    "thread pool worker count {workers} exceeds maximum {max}"
                )
            }
            PoolError::WorkerPanicked { worker } => {
                write!(f, "pool worker {worker} panicked")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A deterministic fixed-partition thread pool (see the module docs).
///
/// The pool holds no OS resources — it is a cheap `Copy` configuration;
/// worker threads are scoped to each parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    workers: usize,
    fault_panic_worker: Option<usize>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::single()
    }
}

impl ThreadPool {
    /// A pool with the given worker count, rejecting zero and counts above
    /// [`MAX_WORKERS`].
    pub fn try_new(workers: usize) -> Result<ThreadPool, PoolError> {
        if workers == 0 {
            return Err(PoolError::ZeroWorkers);
        }
        if workers > MAX_WORKERS {
            return Err(PoolError::TooManyWorkers {
                workers,
                max: MAX_WORKERS,
            });
        }
        Ok(ThreadPool {
            workers,
            fault_panic_worker: None,
        })
    }

    /// The inline single-worker pool (no threads are ever spawned).
    pub fn single() -> ThreadPool {
        ThreadPool {
            workers: 1,
            fault_panic_worker: None,
        }
    }

    /// Fault-injection knob: the given worker panics at the start of its
    /// task range in every subsequent parallel region. Test/fault-matrix
    /// use only.
    #[must_use]
    pub fn with_fault_panic_worker(mut self, worker: Option<usize>) -> ThreadPool {
        self.fault_panic_worker = worker;
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Core execution: run `tasks` indexed closures over the fixed
    /// partition, giving each live worker exclusive access to one scratch
    /// slot. Returns results in ascending task order, or the lowest
    /// panicked worker index with its payload.
    fn raw_run<S, T, F>(
        &self,
        tasks: usize,
        scratch: &mut [S],
        f: F,
    ) -> Result<Vec<T>, (usize, Payload)>
    where
        S: Send,
        T: Send,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        if tasks == 0 {
            return Ok(Vec::new());
        }
        let w = self.workers.min(tasks);
        assert!(
            scratch.len() >= w,
            "scratch must cover every live worker ({} < {w})",
            scratch.len()
        );
        let fault = self.fault_panic_worker;
        if w == 1 {
            let s0 = &mut scratch[0];
            return catch_unwind(AssertUnwindSafe(move || {
                if fault == Some(0) {
                    panic!("mmp-pool injected fault: worker 0");
                }
                (0..tasks).map(|i| f(i, s0)).collect::<Vec<T>>()
            }))
            .map_err(|p| (0, p));
        }
        let chunk = tasks.div_ceil(w);
        let mut outs: Vec<Result<Vec<T>, Payload>> = Vec::with_capacity(w);
        std::thread::scope(|scope| {
            let handles: Vec<_> = scratch[..w]
                .iter_mut()
                .enumerate()
                .map(|(wid, sw)| {
                    let f = &f;
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(move || {
                            if fault == Some(wid) {
                                panic!("mmp-pool injected fault: worker {wid}");
                            }
                            let lo = (wid * chunk).min(tasks);
                            let hi = ((wid + 1) * chunk).min(tasks);
                            (lo..hi).map(|i| f(i, sw)).collect::<Vec<T>>()
                        }))
                    })
                })
                .collect();
            // A worker body is fully wrapped in catch_unwind, so join can
            // only fail with that same payload; fold both failure shapes
            // into one.
            outs.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(Err)));
        });
        if let Some(wid) = outs.iter().position(Result::is_err) {
            // why: position() guarantees outs[wid] is the Err variant.
            #[allow(clippy::expect_used)]
            let payload = outs
                .swap_remove(wid)
                .err()
                .expect("position() found an Err");
            return Err((wid, payload));
        }
        Ok(outs.into_iter().flatten().flatten().collect())
    }

    /// Runs `tasks` indexed closures over the fixed partition, returning
    /// results in ascending task order. A task panic is re-raised on the
    /// caller's thread (deterministically the lowest-index panicked
    /// worker's payload) after all workers have been joined.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with_scratch(tasks, &mut vec![(); self.workers], |i, ()| f(i))
    }

    /// Like [`ThreadPool::run`], but reports a task panic as a typed
    /// [`PoolError::WorkerPanicked`] instead of re-raising it.
    pub fn try_run<T, F>(&self, tasks: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_run_with_scratch(tasks, &mut vec![(); self.workers], |i, ()| f(i))
    }

    /// [`ThreadPool::run`] with one exclusive scratch slot per worker:
    /// task `i` receives `&mut scratch[w]` for the worker `w` that owns
    /// `i` under the fixed partition. `scratch` must have at least
    /// [`ThreadPool::workers`] slots.
    ///
    /// # Panics
    ///
    /// Re-raises a task panic; panics if `scratch` is too short.
    pub fn run_with_scratch<S, T, F>(&self, tasks: usize, scratch: &mut [S], f: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        match self.raw_run(tasks, scratch, f) {
            Ok(v) => v,
            Err((_, payload)) => resume_unwind(payload),
        }
    }

    /// [`ThreadPool::try_run`] with per-worker scratch slots.
    pub fn try_run_with_scratch<S, T, F>(
        &self,
        tasks: usize,
        scratch: &mut [S],
        f: F,
    ) -> Result<Vec<T>, PoolError>
    where
        S: Send,
        T: Send,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        self.raw_run(tasks, scratch, f)
            .map_err(|(worker, _)| PoolError::WorkerPanicked { worker })
    }

    /// Splits `data` into fixed `chunk`-sized slices and applies
    /// `f(element_offset, chunk_slice)` to each, distributing contiguous
    /// runs of chunks over the workers. Chunk boundaries depend only on
    /// `chunk`, never on the worker count, so disjoint-write kernels (SpMV
    /// row blocks, density strips) are bitwise worker-count-invariant.
    ///
    /// # Panics
    ///
    /// Re-raises a task panic; panics if `chunk == 0`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk must be positive");
        if data.is_empty() {
            return;
        }
        let nchunks = data.len().div_ceil(chunk);
        let w = self.workers.min(nchunks);
        let fault = self.fault_panic_worker;
        if w == 1 {
            if fault == Some(0) {
                panic!("mmp-pool injected fault: worker 0");
            }
            for (ci, sl) in data.chunks_mut(chunk).enumerate() {
                f(ci * chunk, sl);
            }
            return;
        }
        // Worker `w` owns the contiguous span of chunks [w·cpw, (w+1)·cpw).
        let span = nchunks.div_ceil(w) * chunk;
        let mut panics: Vec<(usize, Payload)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = data
                .chunks_mut(span)
                .enumerate()
                .map(|(wid, super_slice)| {
                    let f = &f;
                    scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(move || {
                            if fault == Some(wid) {
                                panic!("mmp-pool injected fault: worker {wid}");
                            }
                            for (ci, sl) in super_slice.chunks_mut(chunk).enumerate() {
                                f(wid * span + ci * chunk, sl);
                            }
                        }))
                    })
                })
                .collect();
            for (wid, h) in handles.into_iter().enumerate() {
                if let Err(payload) = h.join().unwrap_or_else(Err) {
                    panics.push((wid, payload));
                }
            }
        });
        if let Some((_, payload)) = panics.into_iter().next() {
            resume_unwind(payload);
        }
    }

    /// Deterministic dot product (used by the analytic solver, which runs
    /// in double precision): partial sums over fixed [`SUM_CHUNK`] ranges,
    /// folded in ascending chunk order. Bitwise identical at every worker
    /// count (and to the inline path used for short vectors).
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn dot_f64(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        self.reduce_chunked(x.len(), 0.0f64, |lo, hi| {
            let mut acc = 0.0f64;
            for (xv, yv) in x[lo..hi].iter().zip(&y[lo..hi]) {
                acc += xv * yv;
            }
            acc
        })
    }

    /// Deterministic sum with the same fixed-chunk reduction order as
    /// [`ThreadPool::dot_f64`].
    pub fn sum_f64(&self, x: &[f64]) -> f64 {
        self.reduce_chunked(x.len(), 0.0f64, |lo, hi| {
            let mut acc = 0.0f64;
            for v in &x[lo..hi] {
                acc += v;
            }
            acc
        })
    }

    /// Shared chunked-reduction driver: `partial(lo, hi)` must be a serial
    /// ascending accumulation over `[lo, hi)` starting from `zero`.
    fn reduce_chunked<T, F>(&self, len: usize, zero: T, partial: F) -> T
    where
        T: Copy + Send + std::ops::Add<Output = T>,
        F: Fn(usize, usize) -> T + Sync,
    {
        if len == 0 {
            return zero;
        }
        let nchunks = len.div_ceil(SUM_CHUNK);
        let bounds = |ci: usize| (ci * SUM_CHUNK, ((ci + 1) * SUM_CHUNK).min(len));
        let partials: Vec<T> = if self.workers > 1 && len >= PAR_MIN_REDUCE {
            self.run(nchunks, |ci| {
                let (lo, hi) = bounds(ci);
                partial(lo, hi)
            })
        } else {
            (0..nchunks)
                .map(|ci| {
                    let (lo, hi) = bounds(ci);
                    partial(lo, hi)
                })
                .collect()
        };
        partials.iter().fold(zero, |acc, &p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lcg_data(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn lcg_f64(seed: u64, len: usize) -> Vec<f64> {
        lcg_data(seed, len).into_iter().map(f64::from).collect()
    }

    #[test]
    fn zero_workers_rejected() {
        assert_eq!(ThreadPool::try_new(0), Err(PoolError::ZeroWorkers));
    }

    #[test]
    fn huge_worker_count_rejected() {
        assert_eq!(
            ThreadPool::try_new(MAX_WORKERS + 1),
            Err(PoolError::TooManyWorkers {
                workers: MAX_WORKERS + 1,
                max: MAX_WORKERS
            })
        );
    }

    #[test]
    fn valid_counts_accepted() {
        for w in [1, 2, 8, MAX_WORKERS] {
            assert_eq!(ThreadPool::try_new(w).map(|p| p.workers()), Ok(w));
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(PoolError::ZeroWorkers.to_string().contains("at least one"));
        assert!(PoolError::TooManyWorkers {
            workers: 99,
            max: 64
        }
        .to_string()
        .contains("99"));
        assert!(PoolError::WorkerPanicked { worker: 3 }
            .to_string()
            .contains("worker 3"));
    }

    #[test]
    fn run_returns_results_in_task_order() {
        for w in [1, 2, 4, 8] {
            let pool = ThreadPool::try_new(w).unwrap();
            let out = pool.run(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "w={w}");
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        let pool = ThreadPool::try_new(4).unwrap();
        assert!(pool.run(0, |i| i).is_empty());
    }

    #[test]
    fn fewer_tasks_than_workers_works() {
        let pool = ThreadPool::try_new(8).unwrap();
        assert_eq!(pool.run(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn task_panic_is_reraised_with_its_payload() {
        let pool = ThreadPool::try_new(4).unwrap();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |i| {
                if i == 9 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 9"), "payload lost: {msg:?}");
    }

    #[test]
    fn lowest_panicked_worker_wins_when_several_panic() {
        // With 4 workers over 16 tasks the partition is 4 tasks per
        // worker; tasks 5 and 13 live on workers 1 and 3.
        let pool = ThreadPool::try_new(4).unwrap();
        let got = pool.try_run(16, |i| {
            if i == 5 || i == 13 {
                panic!("dual failure");
            }
            i
        });
        assert_eq!(got, Err(PoolError::WorkerPanicked { worker: 1 }));
    }

    #[test]
    fn try_run_reports_single_worker_panics_too() {
        let pool = ThreadPool::single();
        let got = pool.try_run(4, |i| {
            if i == 2 {
                panic!("inline failure");
            }
            i
        });
        assert_eq!(got, Err(PoolError::WorkerPanicked { worker: 0 }));
    }

    #[test]
    fn injected_fault_surfaces_as_typed_error() {
        let pool = ThreadPool::try_new(4)
            .unwrap()
            .with_fault_panic_worker(Some(2));
        let got = pool.try_run(16, |i| i);
        assert_eq!(got, Err(PoolError::WorkerPanicked { worker: 2 }));
        // Out-of-range worker index never fires.
        let pool = ThreadPool::try_new(2)
            .unwrap()
            .with_fault_panic_worker(Some(7));
        assert_eq!(pool.try_run(4, |i| i), Ok(vec![0, 1, 2, 3]));
    }

    #[test]
    fn scratch_slots_are_per_worker_and_mutable() {
        let pool = ThreadPool::try_new(4).unwrap();
        let mut scratch = vec![0usize; pool.workers()];
        let out = pool.run_with_scratch(16, &mut scratch, |i, s| {
            *s += 1;
            i
        });
        assert_eq!(out.len(), 16);
        assert_eq!(scratch.iter().sum::<usize>(), 16, "every task counted once");
        assert!(
            scratch.iter().all(|&c| c == 4),
            "fixed partition gives each worker 4 of 16 tasks: {scratch:?}"
        );
    }

    #[test]
    fn for_each_chunk_mut_is_worker_count_invariant() {
        let base: Vec<f32> = lcg_data(42, 533);
        let apply = |w: usize| {
            let pool = ThreadPool::try_new(w).unwrap();
            let mut data = base.clone();
            pool.for_each_chunk_mut(&mut data, 64, |off, sl| {
                for (j, v) in sl.iter_mut().enumerate() {
                    *v = *v * 1.5 + (off + j) as f32;
                }
            });
            data
        };
        let want = apply(1);
        for w in [2, 4, 8] {
            let got = apply(w);
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "w={w}");
            }
        }
    }

    #[test]
    fn for_each_chunk_mut_propagates_panics() {
        let pool = ThreadPool::try_new(2).unwrap();
        let mut data = vec![0.0f32; 256];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk_mut(&mut data, 16, |off, _| {
                if off == 128 {
                    panic!("chunk failure");
                }
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn empty_reductions_are_zero() {
        let pool = ThreadPool::try_new(4).unwrap();
        assert_eq!(pool.dot_f64(&[], &[]), 0.0);
        assert_eq!(pool.sum_f64(&[]), 0.0);
    }

    #[test]
    fn f64_reductions_match_canonical_order_bitwise() {
        let x = lcg_f64(11, 40_000);
        let y = lcg_f64(13, 40_000);
        // Hand-rolled canonical order: SUM_CHUNK partials folded ascending.
        let mut want_dot = 0.0f64;
        let mut want_sum = 0.0f64;
        for ci in 0..x.len().div_ceil(SUM_CHUNK) {
            let lo = ci * SUM_CHUNK;
            let hi = ((ci + 1) * SUM_CHUNK).min(x.len());
            let mut d = 0.0f64;
            let mut s = 0.0f64;
            for (a, b) in x[lo..hi].iter().zip(&y[lo..hi]) {
                d += a * b;
                s += a;
            }
            want_dot += d;
            want_sum += s;
        }
        for w in [1usize, 2, 4, 8] {
            let pool = ThreadPool::try_new(w).unwrap();
            assert_eq!(pool.dot_f64(&x, &y).to_bits(), want_dot.to_bits(), "w={w}");
            assert_eq!(pool.sum_f64(&x).to_bits(), want_sum.to_bits(), "w={w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The headline determinism contract: identical inputs at worker
        /// counts 1/2/4/8 produce bitwise-identical outputs, for indexed
        /// map work, chunked in-place kernels, and reductions alike.
        #[test]
        fn worker_count_never_changes_bits(
            len in 1usize..3000,
            tasks in 1usize..40,
            seed in 0u64..1000,
        ) {
            let x = lcg_data(seed, len);
            let y = lcg_data(seed ^ 0xc0ffee, len);
            let (xd, yd) = (lcg_f64(seed, len), lcg_f64(seed ^ 0xc0ffee, len));

            let outputs: Vec<(Vec<u32>, u64, u64, Vec<u32>)> = [1usize, 2, 4, 8]
                .iter()
                .map(|&w| {
                    let pool = ThreadPool::try_new(w).unwrap();
                    // Indexed map: each task does float work over a slice.
                    let mapped: Vec<u32> = pool
                        .run(tasks, |t| {
                            let lo = t * len / tasks;
                            let hi = (t + 1) * len / tasks;
                            let mut acc = 0.0f32;
                            for (a, b) in x[lo..hi].iter().zip(&y[lo..hi]) {
                                acc += a * b - 0.25 * a;
                            }
                            acc.to_bits()
                        });
                    let dot = pool.dot_f64(&xd, &yd).to_bits();
                    let sum = pool.sum_f64(&xd).to_bits();
                    let mut data = x.clone();
                    pool.for_each_chunk_mut(&mut data, 37, |off, sl| {
                        for (j, v) in sl.iter_mut().enumerate() {
                            *v = *v * 0.5 + (off + j) as f32 * 1e-3;
                        }
                    });
                    (mapped, dot, sum, data.iter().map(|v| v.to_bits()).collect())
                })
                .collect();
            for w in &outputs[1..] {
                prop_assert_eq!(w, &outputs[0]);
            }
        }
    }
}
