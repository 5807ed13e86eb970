//! Compressed-sparse-row matrices for the quadratic placement systems.

use serde::{Deserialize, Serialize};

/// A coordinate-format accumulator for building sparse systems.
///
/// Duplicate `(row, col)` entries are summed on conversion to CSR — exactly
/// what net-model assembly wants.
///
/// # Example
///
/// ```
/// use mmp_analytic::Triplets;
///
/// let mut t = Triplets::new(2);
/// t.add(0, 0, 2.0);
/// t.add(0, 1, -1.0);
/// t.add(1, 0, -1.0);
/// t.add(1, 1, 2.0);
/// t.add(0, 0, 1.0); // accumulates onto (0,0)
/// let m = t.into_csr();
/// assert_eq!(m.multiply(&[1.0, 1.0]), vec![2.0, 1.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Triplets {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl Triplets {
    /// An empty accumulator for an `n`×`n` system.
    pub fn new(n: usize) -> Self {
        Triplets {
            n,
            entries: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of range");
        self.entries.push((row as u32, col as u32, value));
    }

    /// Number of raw (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The accumulated diagonal of the matrix (zeros where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for &(r, c, v) in &self.entries {
            if r == c {
                d[r as usize] += v;
            }
        }
        d
    }

    /// `true` when no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Converts to CSR, summing duplicates and dropping exact zeros.
    ///
    /// The entries are sorted in place by `(row, col)` with
    /// `sort_unstable_by_key`, and the duplicates of one key are summed
    /// from `0.0` in the order that sort leaves them. That order is part of
    /// the result: with three or more duplicates a different order (a
    /// stable sort, or another standard library's unstable sort) can move
    /// the last bit of the sum.
    pub fn into_csr(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0usize);
        for run in self.entries.chunk_by(|p, q| (p.0, p.1) == (q.0, q.1)) {
            let Some(&(row, col, _)) = run.first() else {
                continue;
            };
            // Close every row before this one.
            row_ptr.resize(row_ptr.len().max(row as usize + 1), col_idx.len());
            let mut v = 0.0;
            for &(_, _, x) in run {
                v += x;
            }
            if v != 0.0 {
                col_idx.push(col);
                values.push(v);
            }
        }
        row_ptr.resize(self.n + 1, col_idx.len());
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The raw entries in insertion order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[(u32, u32, f64)] {
        &self.entries
    }
}

/// An `n`×`n` sparse matrix in compressed-sparse-row layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A·x` as a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim()`.
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.multiply_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-provided buffer (hot path of CG).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ from `dim()`.
    pub fn multiply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n, "output length mismatch");
        self.multiply_rows_into(x, 0, y);
    }

    /// `y[i] = (A·x)[row0 + i]` for the contiguous row block starting at
    /// `row0` — the unit of work a row-partitioned parallel SpMV hands to
    /// each worker. Every output row accumulates its non-zeros in stored
    /// (ascending-column) order exactly as [`CsrMatrix::multiply_into`]
    /// does, so any row partition reproduces the serial result bitwise.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim()` or the block reaches past the last
    /// row.
    pub fn multiply_rows_into(&self, x: &[f64], row0: usize, y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        assert!(row0 + y.len() <= self.n, "row block out of range");
        for (i, out) in y.iter_mut().enumerate() {
            let row = row0 + i;
            let mut acc = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            *out = acc;
        }
    }

    /// The diagonal of the matrix (zeros where absent) — the Jacobi
    /// preconditioner.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (row, dv) in d.iter_mut().enumerate() {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                if self.col_idx[k] as usize == row {
                    *dv = self.values[k];
                }
            }
        }
        d
    }

    /// `true` when the stored pattern and values are exactly symmetric.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for row in 0..self.n {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let col = self.col_idx[k] as usize;
                let v = self.values[k];
                let mirrored = self.get(col, row);
                if (v - mirrored).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// The entry at `(row, col)` (zero when absent).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_idx[k] as usize == col {
                return self.values[k];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_matrix_multiplies_to_zero() {
        let m = Triplets::new(3).into_csr();
        assert_eq!(m.multiply(&[1.0, 2.0, 3.0]), vec![0.0; 3]);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = Triplets::new(2);
        t.add(1, 1, 1.0);
        t.add(1, 1, 2.5);
        let m = t.into_csr();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 3.5);
    }

    #[test]
    fn exact_zero_entries_are_dropped() {
        let mut t = Triplets::new(2);
        t.add(0, 1, 1.0);
        t.add(0, 1, -1.0);
        let m = t.into_csr();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn multiply_matches_dense() {
        // [[2, -1], [-1, 2]] * [3, 4] = [2, 5]
        let mut t = Triplets::new(2);
        t.add(0, 0, 2.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 2.0);
        let m = t.into_csr();
        assert_eq!(m.multiply(&[3.0, 4.0]), vec![2.0, 5.0]);
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.diagonal(), vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        let mut t = Triplets::new(2);
        t.add(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn multiply_length_mismatch_panics() {
        let m = Triplets::new(2).into_csr();
        let _ = m.multiply(&[1.0]);
    }

    /// Canary for the order in which `into_csr` sums duplicates: 600
    /// entries over the 64 keys of an 8×8 matrix (5 to 16 per key), with
    /// magnitudes from 1e-3 to 1e3 so that summing any key's duplicates in
    /// another order moves bits. The hash was recorded from commit
    /// d00d66f; a stable sort of the same entries hashes to
    /// 9821156039158034638. When a toolchain update changes the standard
    /// library's unstable sort, this fails alongside the determinism
    /// suite's pinned constants.
    #[test]
    fn duplicate_summation_order_matches_the_recorded_hash() {
        let mut t = Triplets::new(8);
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..600 {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mag = [1e-3, 0.1, 1.0, 37.0, 1e3][(s >> 20) as usize % 5];
            let v = ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * mag;
            t.add((s >> 33) as usize % 8, (s >> 45) as usize % 8, v);
        }
        let m = t.into_csr();
        assert_eq!(m.nnz(), 64);
        let hash = m
            .values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(hash, 15_778_239_591_973_627_821);
    }

    proptest! {
        #[test]
        fn csr_multiply_matches_naive(
            entries in proptest::collection::vec((0usize..6, 0usize..6, -5.0f64..5.0), 0..40),
            x in proptest::collection::vec(-3.0f64..3.0, 6),
        ) {
            let mut t = Triplets::new(6);
            let mut dense = vec![vec![0.0; 6]; 6];
            for &(r, c, v) in &entries {
                t.add(r, c, v);
                dense[r][c] += v;
            }
            let m = t.into_csr();
            let got = m.multiply(&x);
            for r in 0..6 {
                let want: f64 = (0..6).map(|c| dense[r][c] * x[c]).sum();
                prop_assert!((got[r] - want).abs() < 1e-9);
            }
        }
    }
}
