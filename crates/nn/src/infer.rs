//! The layer workspace: preallocated scratch buffers shared across forward
//! passes.
//!
//! Weights are immutable during a forward and every intermediate is
//! scratch, so layers expose one [`Layer::forward`](crate::Layer::forward)
//! taking `&self` weights plus a `&mut InferenceCtx`; training adds a
//! [`Tape`](crate::Tape) for the records backward needs. Every im2col
//! buffer, activation plane and head output is drawn from (and returned to)
//! the context's pool instead of being freshly allocated. One network can
//! then be shared by many readers (MCTS workers, batched evaluators) that
//! each own a cheap context.
//!
//! Beyond the buffer pool, the context carries the rest of the per-caller
//! compute state:
//!
//! * the [`KernelKind`] layers should dispatch their GEMMs through
//!   (the production tiled kernels, or the scalar [`reference`
//!   kernels](crate::matmul::reference) — bitwise identical, so the switch
//!   is purely a benchmarking instrument);
//! * the deterministic [`ThreadPool`] a batched forward may fan out over;
//! * persistent **per-worker sub-contexts** so the parallel path reuses
//!   warm buffers across calls instead of allocating fresh workspaces
//!   (tracked by [`InferenceCtx::fresh_allocations`], which tests pin to
//!   assert the hot path is allocation-free after warm-up).

use crate::tensor::Tensor;
use mmp_pool::ThreadPool;

/// Which GEMM implementation [`Layer::forward`](crate::Layer::forward)
/// dispatches through.
///
/// Both kinds obey the summation-order contract of
/// [`matmul`](crate::matmul) and therefore produce bitwise-identical
/// outputs; [`KernelKind::Reference`] exists so benchmarks can measure the
/// scalar baseline through an unmodified forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelKind {
    /// Packed register-tiled kernels (production default).
    #[default]
    Tiled,
    /// Scalar reference kernels (benchmark baseline).
    Reference,
}

/// A pool of reusable `f32` buffers keyed by capacity, plus the caller's
/// kernel selection and thread-pool handle.
///
/// `take` hands out a zeroed buffer of the requested length, reusing the
/// smallest pooled allocation that fits; `recycle` returns a buffer to the
/// pool. The pool is bounded so pathological shape sequences cannot hoard
/// memory.
///
/// # Example
///
/// ```
/// use mmp_nn::InferenceCtx;
///
/// let mut ctx = InferenceCtx::new();
/// let buf = ctx.take(128);
/// assert_eq!(buf.len(), 128);
/// assert!(buf.iter().all(|&v| v == 0.0));
/// ctx.recycle(buf);
/// // The next request reuses the same allocation.
/// let again = ctx.take(64);
/// assert!(again.capacity() >= 128);
/// ```
#[derive(Debug, Default)]
pub struct InferenceCtx {
    /// Recycled buffers, unordered; small (≤ [`InferenceCtx::MAX_POOLED`]).
    pool: Vec<Vec<f32>>,
    /// GEMM dispatch for layers running under this context.
    kernel: KernelKind,
    /// Deterministic executor for batched forwards (single-worker inline
    /// pool by default).
    exec: ThreadPool,
    /// Persistent per-worker sub-contexts for the parallel batched path;
    /// kept across calls so worker buffers stay warm.
    worker_ctxs: Vec<InferenceCtx>,
    /// Buffers handed out that no pooled allocation could satisfy. Stable
    /// after warm-up on a steady-shape workload.
    fresh_allocs: u64,
}

impl InferenceCtx {
    /// Upper bound on pooled buffers; excess recycles are dropped.
    const MAX_POOLED: usize = 32;

    /// An empty context (tiled kernels, inline single-worker executor).
    pub fn new() -> Self {
        InferenceCtx::default()
    }

    /// Selects the executor used by batched forwards.
    #[must_use]
    pub fn with_exec(mut self, exec: ThreadPool) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the GEMM kernels layers dispatch through.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// The executor for batched forwards.
    pub fn exec(&self) -> ThreadPool {
        self.exec
    }

    /// The selected GEMM kernel kind.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Number of buffers currently pooled (diagnostics).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total buffer requests (across this context and its persistent
    /// worker sub-contexts) that missed the pool and heap-allocated. On a
    /// steady-shape workload this stops growing after the first call — the
    /// batch-equivalence tests assert exactly that.
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh_allocs
            + self
                .worker_ctxs
                .iter()
                .map(InferenceCtx::fresh_allocations)
                .sum::<u64>()
    }

    /// Hands out one persistent sub-context per executor worker,
    /// inheriting this context's kernel selection (workers themselves run
    /// inline). Call [`InferenceCtx::restore_worker_ctxs`] afterwards so
    /// their warm buffers survive to the next batch.
    pub fn take_worker_ctxs(&mut self) -> Vec<InferenceCtx> {
        let want = self.exec.workers();
        let mut ctxs = std::mem::take(&mut self.worker_ctxs);
        ctxs.truncate(want);
        while ctxs.len() < want {
            ctxs.push(InferenceCtx::new().with_kernel(self.kernel));
        }
        for ctx in &mut ctxs {
            ctx.kernel = self.kernel;
        }
        ctxs
    }

    /// Returns worker sub-contexts for reuse by the next batched call.
    pub fn restore_worker_ctxs(&mut self, ctxs: Vec<InferenceCtx>) {
        self.worker_ctxs = ctxs;
    }

    /// A zeroed buffer of exactly `len` elements, reusing a pooled
    /// allocation when one with sufficient capacity exists.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        // Pick the smallest pooled buffer that fits to keep big ones for
        // big requests.
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= len && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut buf = self.pool.swap_remove(i);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.fresh_allocs += 1;
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.pool.len() < Self::MAX_POOLED {
            self.pool.push(buf);
        }
    }

    /// A zeroed tensor of the given shape backed by a pooled buffer.
    pub fn take_tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(shape, self.take(len))
    }

    /// Returns a tensor's backing storage to the pool.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffers() {
        let mut ctx = InferenceCtx::new();
        let mut buf = ctx.take(16);
        buf.iter_mut().for_each(|v| *v = 3.0);
        ctx.recycle(buf);
        let again = ctx.take(16);
        assert!(
            again.iter().all(|&v| v == 0.0),
            "recycled buffer not zeroed"
        );
    }

    #[test]
    fn pool_reuses_allocations() {
        let mut ctx = InferenceCtx::new();
        let buf = ctx.take(100);
        let ptr = buf.as_ptr();
        ctx.recycle(buf);
        assert_eq!(ctx.pooled(), 1);
        let again = ctx.take(50);
        assert_eq!(again.as_ptr(), ptr, "pooled allocation should be reused");
        assert_eq!(ctx.pooled(), 0);
    }

    #[test]
    fn smallest_sufficient_buffer_is_picked() {
        let mut ctx = InferenceCtx::new();
        let big = ctx.take(1000);
        let small = ctx.take(10);
        ctx.recycle(big);
        ctx.recycle(small);
        let got = ctx.take(8);
        assert!(got.capacity() < 1000, "should prefer the small buffer");
    }

    #[test]
    fn pool_is_bounded() {
        let mut ctx = InferenceCtx::new();
        for _ in 0..100 {
            ctx.recycle(vec![0.0; 4]);
        }
        assert!(ctx.pooled() <= InferenceCtx::MAX_POOLED);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut ctx = InferenceCtx::new();
        let t = ctx.take_tensor(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        ctx.recycle_tensor(t);
        assert_eq!(ctx.pooled(), 1);
    }

    #[test]
    fn fresh_allocations_stop_after_warmup() {
        let mut ctx = InferenceCtx::new();
        let b1 = ctx.take(64);
        let b2 = ctx.take(128);
        assert_eq!(ctx.fresh_allocations(), 2);
        ctx.recycle(b1);
        ctx.recycle(b2);
        // Same shapes again: everything comes from the pool.
        let b1 = ctx.take(64);
        let b2 = ctx.take(128);
        assert_eq!(ctx.fresh_allocations(), 2, "warm take must not allocate");
        ctx.recycle(b1);
        ctx.recycle(b2);
    }

    #[test]
    fn worker_ctxs_persist_and_inherit_kernel() {
        let pool = mmp_pool::ThreadPool::try_new(3).unwrap();
        let mut ctx = InferenceCtx::new()
            .with_exec(pool)
            .with_kernel(KernelKind::Reference);
        let mut workers = ctx.take_worker_ctxs();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|w| w.kernel() == KernelKind::Reference));
        // Warm one worker, hand them back, take again: warm buffer (and
        // its fresh-allocation count) must survive.
        let buf = workers[1].take(256);
        workers[1].recycle(buf);
        ctx.restore_worker_ctxs(workers);
        assert_eq!(ctx.fresh_allocations(), 1);
        let mut workers = ctx.take_worker_ctxs();
        let again = workers[1].take(200);
        assert_eq!(
            ctx.fresh_allocations() + workers.iter().map(|w| w.fresh_allocations()).sum::<u64>(),
            1,
            "warm worker buffer must be reused"
        );
        workers[1].recycle(again);
        ctx.restore_worker_ctxs(workers);
    }

    #[test]
    fn default_exec_is_inline_single_worker() {
        let ctx = InferenceCtx::new();
        assert_eq!(ctx.exec().workers(), 1);
        assert_eq!(ctx.kernel(), KernelKind::Tiled);
    }
}
