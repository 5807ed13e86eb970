//! Packed, register-tiled single-precision matrix multiplication — the
//! compute kernel behind conv (im2col) and linear layers.
//!
//! # Summation-order contract
//!
//! Every kernel in this module computes each output element `c[i,j]` as a
//! **single f32 accumulator** over the products `a[i,kk] · b[kk,j]` in
//! **strictly ascending `kk`**, then adds the finished accumulator to the
//! caller's `c[i,j]` exactly once. No pairwise trees, no lane-interleaved
//! partial sums, no blocking over `k` that would flush intermediate totals
//! into `c`. Because output elements are independent of each other, any
//! tiling of the `(i, j)` space — including the production 4×8 register
//! tile, the runtime-sized tiles used by the proptests, and any disjoint
//! row partition a thread pool might apply — produces **bitwise identical**
//! results to the scalar [`reference`](mod@reference) kernels. The SIMD speedup comes from
//! mapping vector lanes across output *columns* (a broadcast-saxpy form),
//! which keeps each element's sum serial and therefore order-exact.
//!
//! The tiled kernels pack operands into k-major panels first:
//! `a` into `MR`-row panels (`ap[kk·MR + r]`) and `b` into `NR`-column
//! panels (`bp[kk·NR + l]`), so the microkernel streams both with unit
//! stride and holds the full `MR×NR` accumulator tile in registers across
//! the entire `k` loop.
//!
//! # Run-time dispatch
//!
//! The build targets baseline x86-64, where the `NR = 8` lanes of a tile
//! row take two 4-lane SSE2 registers. On an x86-64 CPU with AVX2 (checked
//! once per call with `is_x86_feature_detected!`) the same packed-GEMM
//! body runs compiled for AVX2, one 8-lane register per tile row. Its
//! source exists once: the packers and microkernels are
//! `#[inline(always)]` into both the generic entry and the
//! `#[target_feature(enable = "avx2")]` one. Only `avx2` is enabled, never
//! `fma`: a fused multiply-add rounds once where `a·b + acc` rounds twice,
//! which would break the contract above. AVX2's separate `vmulps` and
//! `vaddps` round exactly as the SSE2 and scalar instructions do, so the
//! choice of arm never moves a bit.

use std::cell::RefCell;

/// Rows per register tile of the production microkernel.
const MR: usize = 4;
/// Columns (SIMD lanes) per register tile of the production microkernel.
const NR: usize = 8;

/// Problems with fewer multiply-adds than this go straight to the scalar
/// [`reference`] kernels: packing overhead dominates below it, and the
/// summation-order contract makes the dispatch invisible bitwise.
const SMALL_FLOPS: usize = 1024;

/// Scalar reference kernels implementing the module's summation-order
/// contract directly.
///
/// These are the semantics the tiled kernels are proptest-verified against
/// (bitwise), and the baseline the `bench compute` bin measures scalar
/// throughput with.
pub mod reference {
    /// `c += a · b` (`a` is `m×k`, `b` is `k×n`, `c` is `m×n`, row-major)
    /// in the documented summation order.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match the dimensions.
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs size mismatch");
        assert_eq!(b.len(), k * n, "rhs size mismatch");
        assert_eq!(c.len(), m * n, "output size mismatch");
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, av) in a_row.iter().enumerate() {
                    acc += av * b[kk * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `c += aᵀ · b` (`a` stored `k×m`, `b` is `k×n`, `c` is `m×n`) in the
    /// documented summation order.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match the dimensions.
    pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), k * m, "lhs size mismatch");
        assert_eq!(b.len(), k * n, "rhs size mismatch");
        assert_eq!(c.len(), m * n, "output size mismatch");
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[kk * m + i] * b[kk * n + j];
                }
                c[i * n + j] += acc;
            }
        }
    }

    /// `c += a · bᵀ` (`a` is `m×k`, `b` stored `n×k`, `c` is `m×n`) in the
    /// documented summation order.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths do not match the dimensions.
    pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs size mismatch");
        assert_eq!(b.len(), n * k, "rhs size mismatch");
        assert_eq!(c.len(), m * n, "output size mismatch");
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (av, bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                c[i * n + j] += acc;
            }
        }
    }
}

/// The shared signature of every GEMM entry point in this module, so
/// layers can select a kernel kind with one fn-pointer assignment.
pub type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// How the lhs operand is laid out in memory, telling the packer where
/// `a[i, kk]` lives.
#[derive(Clone, Copy)]
enum LhsLayout {
    /// `a[i, kk] = a[i·k + kk]` (`m×k` row-major).
    RowMajor,
    /// `a[i, kk] = a[kk·m + i]` (`k×m` row-major, i.e. a transposed use).
    Transposed,
}

/// How the rhs operand is laid out in memory, telling the packer where
/// `b[kk, j]` lives.
#[derive(Clone, Copy)]
enum RhsLayout {
    /// `b[kk, j] = b[kk·n + j]` (`k×n` row-major).
    RowMajor,
    /// `b[kk, j] = b[j·k + kk]` (`n×k` row-major, i.e. a transposed use).
    Transposed,
}

struct PackScratch {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    /// Per-thread packing panels, reused across calls so the hot inference
    /// path performs no heap allocation after warm-up. Padded lanes of a
    /// partial tile are never read, so stale contents cannot leak into
    /// results.
    static SCRATCH: RefCell<PackScratch> = const {
        RefCell::new(PackScratch { a: Vec::new(), b: Vec::new() })
    };
}

/// Packs the `b` panel for column block `j0..j0+nr` into `bp` as
/// `bp[kk·NR + l] = b[kk, j0+l]`; lanes `l >= nr` are left untouched (and
/// never read).
#[inline(always)]
fn pack_rhs(
    b: &[f32],
    bp: &mut [f32],
    layout: RhsLayout,
    k: usize,
    n: usize,
    j0: usize,
    nr: usize,
) {
    match layout {
        RhsLayout::RowMajor => {
            for kk in 0..k {
                let src = &b[kk * n + j0..kk * n + j0 + nr];
                bp[kk * NR..kk * NR + nr].copy_from_slice(src);
            }
        }
        RhsLayout::Transposed => {
            for (l, col) in b.chunks_exact(k).skip(j0).take(nr).enumerate() {
                for (kk, &v) in col.iter().enumerate() {
                    bp[kk * NR + l] = v;
                }
            }
        }
    }
}

/// Packs the `a` panel for row block `i0..i0+mr` into `ap` as
/// `ap[kk·MR + r] = a[i0+r, kk]`; rows `r >= mr` are left untouched (and
/// never read).
#[inline(always)]
fn pack_lhs(
    a: &[f32],
    ap: &mut [f32],
    layout: LhsLayout,
    m: usize,
    k: usize,
    i0: usize,
    mr: usize,
) {
    match layout {
        LhsLayout::RowMajor => {
            for (r, row) in a.chunks_exact(k).skip(i0).take(mr).enumerate() {
                for (kk, &v) in row.iter().enumerate() {
                    ap[kk * MR + r] = v;
                }
            }
        }
        LhsLayout::Transposed => {
            for kk in 0..k {
                let src = &a[kk * m + i0..kk * m + i0 + mr];
                ap[kk * MR..kk * MR + mr].copy_from_slice(src);
            }
        }
    }
}

/// Full-tile microkernel: `MR×NR` accumulators held in registers across the
/// whole `k` loop, vector lanes across the `NR` output columns. Each
/// accumulator is a plain ascending-`k` serial sum, so the result is
/// bitwise identical to the scalar reference.
#[inline(always)]
fn microkernel_full(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    c: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let av = &ap[kk * MR..kk * MR + MR];
        let bv = &bp[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let ar = av[r];
            for (l, b_lane) in bv.iter().enumerate() {
                acc[r][l] += ar * b_lane;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let c_row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + NR];
        for (cv, av) in c_row.iter_mut().zip(acc_row) {
            *cv += av;
        }
    }
}

/// Partial-tile microkernel for the `m % MR` / `n % NR` edges: same
/// per-element ascending-`k` accumulation, only over the live lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // a microkernel takes panels + tile coordinates, nothing to group
fn microkernel_edge(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    c: &mut [f32],
    i0: usize,
    j0: usize,
    n: usize,
    mr: usize,
    nr: usize,
) {
    for r in 0..mr {
        for l in 0..nr {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += ap[kk * MR + r] * bp[kk * NR + l];
            }
            c[(i0 + r) * n + j0 + l] += acc;
        }
    }
}

/// Shared tiled driver: sizes the thread's packing panels, then runs the
/// packed-GEMM body, compiled for AVX2 when the CPU has it (see the
/// module docs on run-time dispatch).
#[allow(clippy::too_many_arguments)] // the three public GEMM signatures plus two layout selectors
fn gemm_tiled(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    lhs: LhsLayout,
    rhs: RhsLayout,
) {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let b_len = n.div_ceil(NR) * k * NR;
        if s.b.len() < b_len {
            s.b.resize(b_len, 0.0);
        }
        if s.a.len() < k * MR {
            s.a.resize(k * MR, 0.0);
        }
        let PackScratch { a: ap, b: bp } = &mut *s;
        // Dispatch here, not by a target feature on `gemm_tiled`: a closure
        // is compiled without its enclosing fn's target features.
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // why: calling a `#[target_feature]` fn is `unsafe`; this is the
            // crate's one unsafe block, guarded by the feature check above.
            #[allow(unsafe_code)]
            // SAFETY: the CPU supports AVX2, checked on the line above, and
            // `gemm_packed_avx2` has no other precondition.
            unsafe {
                gemm_packed_avx2(a, b, c, m, k, n, lhs, rhs, ap, bp);
            }
            return;
        }
        gemm_packed(a, b, c, m, k, n, lhs, rhs, ap, bp);
    });
}

/// [`gemm_packed`] compiled for AVX2 (and never FMA; see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)] // gemm_packed's signature
fn gemm_packed_avx2(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    lhs: LhsLayout,
    rhs: RhsLayout,
    ap: &mut [f32],
    bp: &mut [f32],
) {
    gemm_packed(a, b, c, m, k, n, lhs, rhs, ap, bp);
}

/// The packed-GEMM body: packs `b` once into k-major `NR`-wide panels
/// (`bp`, at least `⌈n/NR⌉·k·NR` long), then streams `MR`-row packed
/// panels of `a` (`ap`, at least `k·MR` long) through the register
/// microkernel. `m`, `k` and `n` are at least 1: the public entries send
/// smaller problems to [`reference`]. Inlined into each dispatch arm, so
/// its instructions are chosen by the arm's target features.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the GEMM signature, two layouts and two panels
fn gemm_packed(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    lhs: LhsLayout,
    rhs: RhsLayout,
    ap: &mut [f32],
    bp: &mut [f32],
) {
    let n_blocks = n.div_ceil(NR);
    for (jb, panel) in bp.chunks_exact_mut(k * NR).take(n_blocks).enumerate() {
        let j0 = jb * NR;
        pack_rhs(b, panel, rhs, k, n, j0, NR.min(n - j0));
    }
    let mut i0 = 0;
    while i0 < m {
        let mr = MR.min(m - i0);
        pack_lhs(a, ap, lhs, m, k, i0, mr);
        for (jb, panel) in bp.chunks_exact(k * NR).take(n_blocks).enumerate() {
            let j0 = jb * NR;
            let nr = NR.min(n - j0);
            if mr == MR && nr == NR {
                microkernel_full(ap, panel, k, c, i0, j0, n);
            } else {
                microkernel_edge(ap, panel, k, c, i0, j0, n, mr, nr);
            }
        }
        i0 += mr;
    }
}

/// `c += a · b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all
/// row-major.
///
/// Packed 4×8 register-tiled kernel; bitwise identical to
/// [`reference::matmul`] (see the module docs for the summation-order
/// contract). Small problems dispatch to the reference kernel directly.
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    if m * k * n <= SMALL_FLOPS {
        reference::matmul(a, b, c, m, k, n);
        return;
    }
    gemm_tiled(a, b, c, m, k, n, LhsLayout::RowMajor, RhsLayout::RowMajor);
}

/// `c += aᵀ · b` where `a` is `k×m` (transposed use), `b` is `k×n`,
/// `c` is `m×n`.
///
/// Same packed kernel as [`matmul`] — only the panel packing differs —
/// and bitwise identical to [`reference::matmul_at_b`].
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn matmul_at_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "lhs size mismatch");
    assert_eq!(b.len(), k * n, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    if m * k * n <= SMALL_FLOPS {
        reference::matmul_at_b(a, b, c, m, k, n);
        return;
    }
    gemm_tiled(a, b, c, m, k, n, LhsLayout::Transposed, RhsLayout::RowMajor);
}

/// `c += a · bᵀ` where `a` is `m×k`, `b` is `n×k`, `c` is `m×n`.
///
/// Packing `b`'s rows into k-major panels turns the per-output dot products
/// of the scalar form into the same broadcast-saxpy microkernel as
/// [`matmul`]; bitwise identical to [`reference::matmul_a_bt`].
///
/// # Panics
///
/// Panics when the slice lengths do not match the dimensions.
pub fn matmul_a_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size mismatch");
    assert_eq!(b.len(), n * k, "rhs size mismatch");
    assert_eq!(c.len(), m * n, "output size mismatch");
    if m * k * n <= SMALL_FLOPS {
        reference::matmul_a_bt(a, b, c, m, k, n);
        return;
    }
    gemm_tiled(a, b, c, m, k, n, LhsLayout::RowMajor, RhsLayout::Transposed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent high-precision oracle: accumulates in f64 to bound the
    /// f32 kernels' rounding error.
    fn naive_f64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += f64::from(a[i * k + kk]) * f64::from(b[kk * n + j]);
                }
            }
        }
        c
    }

    /// Magnitude scale for error bounds: Σ|a[i,kk]·b[kk,j]| per element.
    fn abs_scale(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += (a[i * k + kk] * b[kk * n + j]).abs();
                }
            }
        }
        c
    }

    /// Runtime-tiled kernel with arbitrary `(mr, nr)` tile sizes and the
    /// same per-element ascending-k accumulation — used to prove the
    /// summation-order contract holds at *any* lane count, not just the
    /// production 4×8 tile.
    #[allow(clippy::too_many_arguments)] // the GEMM signature plus the two tile sizes under test
    fn gemm_any_tile(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        mr_tile: usize,
        nr_tile: usize,
    ) {
        let mut j0 = 0;
        while j0 < n {
            let nr = nr_tile.min(n - j0);
            // Pack b panel k-major at this tile width.
            let mut bp = vec![0.0f32; k * nr];
            for kk in 0..k {
                bp[kk * nr..(kk + 1) * nr].copy_from_slice(&b[kk * n + j0..kk * n + j0 + nr]);
            }
            let mut i0 = 0;
            while i0 < m {
                let mr = mr_tile.min(m - i0);
                let mut acc = vec![0.0f32; mr * nr];
                for kk in 0..k {
                    for r in 0..mr {
                        let ar = a[(i0 + r) * k + kk];
                        for l in 0..nr {
                            acc[r * nr + l] += ar * bp[kk * nr + l];
                        }
                    }
                }
                for r in 0..mr {
                    for l in 0..nr {
                        c[(i0 + r) * n + j0 + l] += acc[r * nr + l];
                    }
                }
                i0 += mr;
            }
            j0 += nr;
        }
    }

    fn lcg_data(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn small_known_product() {
        // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn accumulates_into_c() {
        let a = [1.0];
        let b = [2.0];
        let mut c = vec![10.0];
        matmul(&a, &b, &mut c, 1, 1, 1);
        assert_eq!(c, vec![12.0]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn dimension_check() {
        let mut c = vec![0.0; 4];
        matmul(&[0.0; 3], &[0.0; 4], &mut c, 2, 2, 2);
    }

    #[test]
    fn large_shapes_hit_the_tiled_path_and_match_reference_bitwise() {
        // Big enough to clear SMALL_FLOPS with full tiles and edges in
        // both dimensions (m % MR != 0, n % NR != 0).
        let (m, k, n) = (13, 67, 29);
        let a = lcg_data(1, m * k);
        let b = lcg_data(2, k * n);
        let mut c_ref = lcg_data(3, m * n);
        let mut c_tiled = c_ref.clone();
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        matmul(&a, &b, &mut c_tiled, m, k, n);
        for (x, y) in c_tiled.iter().zip(&c_ref) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The generic packed body on freshly sized panels, bypassing the
    /// run-time dispatch.
    #[allow(clippy::too_many_arguments)] // the GEMM signature plus the two layouts
    fn generic(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        lhs: LhsLayout,
        rhs: RhsLayout,
    ) {
        let mut ap = vec![0.0f32; k * MR];
        let mut bp = vec![0.0f32; n.div_ceil(NR) * k * NR];
        gemm_packed(a, b, c, m, k, n, lhs, rhs, &mut ap, &mut bp);
    }

    /// `true` when [`gemm_tiled`] takes its AVX2 arm on this CPU.
    fn has_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both dispatch arms — the generic packed body and, where the CPU
        /// has AVX2, the body compiled for AVX2 — equal the reference
        /// kernels bitwise for all three layouts, on full and edge tiles
        /// and below the small-problem cutoff, accumulating into a
        /// non-zero `c`.
        #[test]
        fn generic_and_avx2_bodies_match_reference_bitwise(
            m in 1usize..14, k in 1usize..40, n in 1usize..27,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0x51ed27, k * n);
            let c0 = lcg_data(seed ^ 0x7f4a7c15, m * n);
            let mut at = vec![0.0; k * m];
            for i in 0..m { for kk in 0..k { at[kk * m + i] = a[i * k + kk]; } }
            let mut bt = vec![0.0; n * k];
            for kk in 0..k { for j in 0..n { bt[j * k + kk] = b[kk * n + j]; } }
            let mut want = c0.clone();
            reference::matmul(&a, &b, &mut want, m, k, n);
            let cases: [(&[f32], &[f32], LhsLayout, RhsLayout); 3] = [
                (&a, &b, LhsLayout::RowMajor, RhsLayout::RowMajor),
                (&at, &b, LhsLayout::Transposed, RhsLayout::RowMajor),
                (&a, &bt, LhsLayout::RowMajor, RhsLayout::Transposed),
            ];
            for (lhs_data, rhs_data, lhs, rhs) in cases {
                let mut c = c0.clone();
                generic(lhs_data, rhs_data, &mut c, m, k, n, lhs, rhs);
                for (x, y) in c.iter().zip(&want) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "generic body");
                }
                if has_avx2() {
                    let mut c = c0.clone();
                    gemm_tiled(lhs_data, rhs_data, &mut c, m, k, n, lhs, rhs);
                    for (x, y) in c.iter().zip(&want) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "AVX2 body");
                    }
                }
            }
        }

        /// The tiled kernels are bitwise-identical to the scalar reference
        /// under the documented summation order, for all three operand
        /// layouts, including accumulation into a non-zero `c`.
        #[test]
        fn tiled_matches_reference_bitwise(
            m in 1usize..12, k in 1usize..70, n in 1usize..20,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0x9e3779b97f4a7c15, k * n);
            let c0 = lcg_data(seed ^ 0xdeadbeef, m * n);

            let mut want = c0.clone();
            reference::matmul(&a, &b, &mut want, m, k, n);
            let mut c = c0.clone();
            matmul(&a, &b, &mut c, m, k, n);
            for (x, y) in c.iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            // aᵀ · b with a stored transposed.
            let mut at = vec![0.0; k * m];
            for i in 0..m { for kk in 0..k { at[kk * m + i] = a[i * k + kk]; } }
            let mut want2 = c0.clone();
            reference::matmul_at_b(&at, &b, &mut want2, m, k, n);
            let mut c2 = c0.clone();
            matmul_at_b(&at, &b, &mut c2, m, k, n);
            for (x, y) in want2.iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "reference layouts disagree");
            }
            for (x, y) in c2.iter().zip(&want2) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            // a · bᵀ with b stored transposed.
            let mut bt = vec![0.0; n * k];
            for kk in 0..k { for j in 0..n { bt[j * k + kk] = b[kk * n + j]; } }
            let mut want3 = c0.clone();
            reference::matmul_a_bt(&a, &bt, &mut want3, m, k, n);
            let mut c3 = c0.clone();
            matmul_a_bt(&a, &bt, &mut c3, m, k, n);
            for (x, y) in want3.iter().zip(&want) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "reference layouts disagree");
            }
            for (x, y) in c3.iter().zip(&want3) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// Any lane count / tile size yields the same bits: the contract is
        /// a property of the per-element summation order, not of the 4×8
        /// production tile.
        #[test]
        fn any_tile_size_is_bitwise_identical(
            m in 1usize..10, k in 1usize..50, n in 1usize..18,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0xabcdef, k * n);
            let mut want = vec![0.0f32; m * n];
            reference::matmul(&a, &b, &mut want, m, k, n);
            for &(mr, nr) in &[(1usize, 1usize), (1, 4), (2, 8), (4, 8), (8, 16), (3, 5)] {
                let mut c = vec![0.0f32; m * n];
                gemm_any_tile(&a, &b, &mut c, m, k, n, mr, nr);
                for (x, y) in c.iter().zip(&want) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "tile {}x{}", mr, nr);
                }
            }
        }

        /// Cross-check against an independent f64 oracle with a tight
        /// magnitude-scaled (ulp-level) bound — per-element error of an
        /// ascending-k f32 sum is at most ~k ulps of the absolute-value
        /// scale, far tighter than the old fixed `1e-3` tolerance.
        #[test]
        fn reference_is_ulp_close_to_f64_oracle(
            m in 1usize..8, k in 1usize..70, n in 1usize..8,
            seed in 0u64..1000,
        ) {
            let a = lcg_data(seed, m * k);
            let b = lcg_data(seed ^ 0x5bd1e995, k * n);
            let oracle = naive_f64(&a, &b, m, k, n);
            let scale = abs_scale(&a, &b, m, k, n);
            let mut c = vec![0.0f32; m * n];
            reference::matmul(&a, &b, &mut c, m, k, n);
            for ((x, y), s) in c.iter().zip(&oracle).zip(&scale) {
                let bound = f64::from(k as f32 * f32::EPSILON * s.max(f32::MIN_POSITIVE));
                prop_assert!(
                    (f64::from(*x) - y).abs() <= bound,
                    "err {} > bound {}", (f64::from(*x) - y).abs(), bound
                );
            }
        }
    }
}
