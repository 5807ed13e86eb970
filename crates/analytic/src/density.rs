//! FastPlace-style cell-shifting density spreading.
//!
//! After each quadratic solve the placement is heavily overlapped. Cell
//! shifting relieves it per axis: the region is cut into uniform bins,
//! utilization is measured, bin boundaries are re-spaced proportionally to
//! `utilization + d` (dense bins widen, sparse bins narrow) and node
//! coordinates are remapped linearly within their bin. The shifted
//! positions then anchor the next quadratic solve through pseudo-nets.
//!
//! The 2-D spreader is pool-aware: strips (bin-rows in the x pass,
//! bin-columns in the y pass) are independent units of work, so
//! [`SpreadGrid::shift_pooled`] fans them out over a deterministic
//! [`ThreadPool`] and scatters the results back in ascending strip order —
//! bitwise identical to the serial pass at any worker count.

use mmp_pool::ThreadPool;

/// Free parameter `d` of the bin re-spacing rule; larger values damp the
/// shift.
const DAMPING: f64 = 0.4;

/// Nodes below which [`SpreadGrid::shift_pooled`] runs on the calling
/// thread at any worker count. Measured on a 2-vCPU VM (bins as the
/// placer picks them; medians of 9 or 21 batches of 20 passes): a pass
/// opens two fan-outs of about 50–80 µs each, and two workers took
/// 1.06–7.9× the one-worker time up to 6,000 nodes, 0.82–1.13× from 8,000
/// to 12,000 and 0.57–0.99× from 16,000 to 48,000.
const SPREAD_PAR_MIN_NODES: usize = 16_384;

/// Per-axis utilization profile of a set of nodes over `nbins` uniform bins
/// spanning `[lo, hi]`.
///
/// `capacity_scale[i]` discounts bin `i`'s capacity for area blocked by
/// fixed objects (1.0 = fully free).
pub fn utilization_profile(
    positions: &[f64],
    areas: &[f64],
    lo: f64,
    hi: f64,
    nbins: usize,
    capacity_scale: &[f64],
) -> Vec<f64> {
    assert_eq!(positions.len(), areas.len(), "length mismatch");
    assert_eq!(capacity_scale.len(), nbins, "capacity length mismatch");
    assert!(hi > lo && nbins > 0);
    let width = (hi - lo) / nbins as f64;
    let mut occupied = vec![0.0; nbins];
    for (&p, &a) in positions.iter().zip(areas) {
        let b = (((p - lo) / width) as usize).min(nbins - 1);
        occupied[b] += a;
    }
    // Capacity of one 1-D strip: share of the total free area.
    let total_area: f64 = areas.iter().sum();
    if total_area <= 0.0 {
        return vec![0.0; nbins];
    }
    // mmp-lint: allow(float-reduction) why: sequential sum over the bin slice, order fixed by construction
    let scale_sum: f64 = capacity_scale.iter().sum::<f64>().max(1e-12);
    occupied
        .iter()
        .zip(capacity_scale)
        .map(|(&occ, &cs)| {
            let cap = total_area * (cs / scale_sum);
            if cap <= 1e-12 {
                if occ > 0.0 {
                    10.0
                } else {
                    0.0
                }
            } else {
                occ / cap
            }
        })
        .collect()
}

/// One pass of cell shifting on one axis.
///
/// Bin boundaries are re-spaced proportionally to `utilization + d`; the
/// nodes of each bin are then laid out across the widened bin by cumulative
/// area rank (order preserving), which flattens density *within* the bin in
/// a single pass.
///
/// `strength ∈ (0, 1]` blends between the old position (0) and the fully
/// remapped position (1). Returns the shifted coordinates (the input is not
/// modified — the caller uses them as anchors).
///
/// # Panics
///
/// Panics when slice lengths disagree or the interval/bin count is
/// degenerate.
pub fn shift_axis(
    positions: &[f64],
    areas: &[f64],
    lo: f64,
    hi: f64,
    nbins: usize,
    capacity_scale: &[f64],
    strength: f64,
) -> Vec<f64> {
    let util = utilization_profile(positions, areas, lo, hi, nbins, capacity_scale);
    let width = (hi - lo) / nbins as f64;
    // New bin widths proportional to utilization + damping.
    let weights: Vec<f64> = util.iter().map(|u| u + DAMPING).collect();
    let wsum: f64 = weights.iter().sum();
    let mut new_bounds = Vec::with_capacity(nbins + 1);
    new_bounds.push(lo);
    let mut acc = lo;
    for w in &weights {
        acc += (hi - lo) * w / wsum;
        new_bounds.push(acc);
    }
    // Bucket node indices by bin, ordered by coordinate within each bin.
    let mut by_bin: Vec<Vec<usize>> = vec![Vec::new(); nbins];
    for (i, &p) in positions.iter().enumerate() {
        let b = (((p - lo) / width) as usize).min(nbins - 1);
        by_bin[b].push(i);
    }
    let mut out = positions.to_vec();
    for (b, members) in by_bin.iter_mut().enumerate() {
        if members.is_empty() {
            continue;
        }
        members.sort_by(|&i, &j| positions[i].total_cmp(&positions[j]));
        let bin_area: f64 = members.iter().map(|&i| areas[i]).sum();
        let (nl, nr) = (new_bounds[b], new_bounds[b + 1]);
        let mut cum = 0.0;
        for &i in members.iter() {
            let center = (cum + areas[i] / 2.0) / bin_area.max(1e-300);
            let mapped = nl + center * (nr - nl);
            out[i] = positions[i] + strength * (mapped - positions[i]);
            cum += areas[i];
        }
    }
    out
}

/// Maximum bin utilization (the placer's convergence signal).
pub fn max_utilization(util: &[f64]) -> f64 {
    util.iter().fold(0.0f64, |m, &u| m.max(u))
}

/// A 2-D spreading grid: cell shifting applied per bin-row in x and per
/// bin-column in y, with per-bin capacity discounted by fixed obstacles.
///
/// Pure 1-D shifting misbehaves on mixed-size designs — a macro's whole area
/// projects onto the axis and crowds the cells of *every* row out of its
/// bins. Shifting row-by-row confines each node's influence to its own
/// strip, which is the actual FastPlace formulation.
#[derive(Debug, Clone)]
pub struct SpreadGrid {
    lo_x: f64,
    lo_y: f64,
    width: f64,
    height: f64,
    nbins: usize,
    /// Blocked (fixed-obstacle) area per bin, row-major `[row][col]`.
    blocked: Vec<f64>,
}

impl SpreadGrid {
    /// A grid of `nbins`×`nbins` bins over the rectangle
    /// `[lo_x, lo_x+width] × [lo_y, lo_y+height]`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive extents or zero bins.
    pub fn new(lo_x: f64, lo_y: f64, width: f64, height: f64, nbins: usize) -> Self {
        assert!(width > 0.0 && height > 0.0, "degenerate spread region");
        assert!(nbins > 0, "need at least one bin");
        SpreadGrid {
            lo_x,
            lo_y,
            width,
            height,
            nbins,
            blocked: vec![0.0; nbins * nbins],
        }
    }

    /// Bin side lengths.
    fn bin_w(&self) -> f64 {
        self.width / self.nbins as f64
    }

    fn bin_h(&self) -> f64 {
        self.height / self.nbins as f64
    }

    fn col_of(&self, x: f64) -> usize {
        (((x - self.lo_x) / self.bin_w()) as usize).min(self.nbins - 1)
    }

    fn row_of(&self, y: f64) -> usize {
        (((y - self.lo_y) / self.bin_h()) as usize).min(self.nbins - 1)
    }

    /// Marks the rectangle `(x, y, w, h)` (lower-left + size) as blocked by
    /// a fixed obstacle; its overlap area is removed from bin capacity.
    pub fn block(&mut self, x: f64, y: f64, w: f64, h: f64) {
        for r in 0..self.nbins {
            let by = self.lo_y + r as f64 * self.bin_h();
            let oy = (y + h).min(by + self.bin_h()) - y.max(by);
            if oy <= 0.0 {
                continue;
            }
            for c in 0..self.nbins {
                let bx = self.lo_x + c as f64 * self.bin_w();
                let ox = (x + w).min(bx + self.bin_w()) - x.max(bx);
                if ox > 0.0 {
                    self.blocked[r * self.nbins + c] += ox * oy;
                }
            }
        }
    }

    /// Free capacity of bin `(row, col)`.
    fn capacity(&self, row: usize, col: usize) -> f64 {
        (self.bin_w() * self.bin_h() - self.blocked[row * self.nbins + col]).max(0.0)
    }

    /// Peak bin utilization: movable area over free capacity, maximised
    /// over bins (∞-free bins holding area report a large constant).
    ///
    /// Each node's outline (center ± half size) is smeared across the bins
    /// it covers, so a macro spanning several bins does not read as a fake
    /// point overflow.
    pub fn peak_utilization(&self, xs: &[f64], ys: &[f64], ws: &[f64], hs: &[f64]) -> f64 {
        let mut occ = vec![0.0; self.nbins * self.nbins];
        for i in 0..xs.len() {
            let (x0, x1) = (xs[i] - ws[i] / 2.0, xs[i] + ws[i] / 2.0);
            let (y0, y1) = (ys[i] - hs[i] / 2.0, ys[i] + hs[i] / 2.0);
            let (c0, c1) = (self.col_of(x0), self.col_of(x1));
            let (r0, r1) = (self.row_of(y0), self.row_of(y1));
            for r in r0..=r1 {
                let by = self.lo_y + r as f64 * self.bin_h();
                let oy = (y1.min(by + self.bin_h()) - y0.max(by)).max(0.0);
                for c in c0..=c1 {
                    let bx = self.lo_x + c as f64 * self.bin_w();
                    let ox = (x1.min(bx + self.bin_w()) - x0.max(bx)).max(0.0);
                    occ[r * self.nbins + c] += ox * oy;
                }
            }
        }
        let mut peak = 0.0f64;
        for r in 0..self.nbins {
            for c in 0..self.nbins {
                let o = occ[r * self.nbins + c];
                if o <= 0.0 {
                    continue;
                }
                let cap = self.capacity(r, c);
                peak = peak.max(if cap <= 1e-12 { 10.0 } else { o / cap });
            }
        }
        peak
    }

    /// One spreading pass: per-row cell shifting in x, then per-column in y.
    /// Returns the shifted coordinates (inputs untouched).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree.
    pub fn shift(
        &self,
        xs: &[f64],
        ys: &[f64],
        areas: &[f64],
        strength: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        self.shift_pooled(&ThreadPool::single(), xs, ys, areas, strength)
    }

    /// [`SpreadGrid::shift`] with the per-strip work distributed over
    /// `pool` (one task per bin-row, then per bin-column), or inline below
    /// 16,384 nodes. Strips are independent and the scatter
    /// back runs sequentially in ascending strip order, so the result is
    /// bitwise identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree.
    pub fn shift_pooled(
        &self,
        pool: &ThreadPool,
        xs: &[f64],
        ys: &[f64],
        areas: &[f64],
        strength: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(xs.len(), ys.len(), "length mismatch");
        assert_eq!(xs.len(), areas.len(), "length mismatch");
        let n = xs.len();
        let inline = ThreadPool::single();
        let pool = if n < SPREAD_PAR_MIN_NODES {
            &inline
        } else {
            pool
        };
        let mut out_x = xs.to_vec();

        // --- x pass, one strip per bin-row --------------------------------
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); self.nbins];
        for i in 0..n {
            rows[self.row_of(ys[i])].push(i);
        }
        let shifted_rows = pool.run(self.nbins, |r| {
            let members = &rows[r];
            if members.is_empty() {
                return Vec::new();
            }
            let caps: Vec<f64> = (0..self.nbins).map(|c| self.capacity(r, c)).collect();
            shift_strip(
                members.iter().map(|&i| xs[i]).collect(),
                members.iter().map(|&i| areas[i]).collect(),
                self.lo_x,
                self.lo_x + self.width,
                &caps,
                strength,
            )
        });
        for (members, shifted) in rows.iter().zip(&shifted_rows) {
            for (k, &i) in members.iter().enumerate() {
                out_x[i] = shifted[k];
            }
        }

        // --- y pass, one strip per bin-column (using updated x) -----------
        let mut out_y = ys.to_vec();
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); self.nbins];
        for i in 0..n {
            cols[self.col_of(out_x[i])].push(i);
        }
        let shifted_cols = pool.run(self.nbins, |c| {
            let members = &cols[c];
            if members.is_empty() {
                return Vec::new();
            }
            let caps: Vec<f64> = (0..self.nbins).map(|r| self.capacity(r, c)).collect();
            shift_strip(
                members.iter().map(|&i| ys[i]).collect(),
                members.iter().map(|&i| areas[i]).collect(),
                self.lo_y,
                self.lo_y + self.height,
                &caps,
                strength,
            )
        });
        for (members, shifted) in cols.iter().zip(&shifted_cols) {
            for (k, &i) in members.iter().enumerate() {
                out_y[i] = shifted[k];
            }
        }
        (out_x, out_y)
    }
}

/// Cell shifting along one strip with per-bin free capacities.
///
/// Bins are re-spaced by relative density (occupancy share over capacity
/// share, damped), then nodes are laid out within each re-spaced bin by
/// cumulative-area rank.
fn shift_strip(
    positions: Vec<f64>,
    areas: Vec<f64>,
    lo: f64,
    hi: f64,
    caps: &[f64],
    strength: f64,
) -> Vec<f64> {
    let nbins = caps.len();
    let width = (hi - lo) / nbins as f64;
    let mut occ = vec![0.0; nbins];
    let mut by_bin: Vec<Vec<usize>> = vec![Vec::new(); nbins];
    for (i, &p) in positions.iter().enumerate() {
        let b = (((p - lo) / width) as usize).min(nbins - 1);
        occ[b] += areas[i];
        by_bin[b].push(i);
    }
    let occ_sum: f64 = occ.iter().sum();
    if occ_sum <= 0.0 {
        return positions;
    }
    // mmp-lint: allow(float-reduction) why: sequential sum over the bin slice, order fixed by construction
    let cap_sum: f64 = caps.iter().sum::<f64>().max(1e-12);
    let weights: Vec<f64> = (0..nbins)
        .map(|b| {
            let occ_share = occ[b] / occ_sum;
            let cap_share = (caps[b] / cap_sum).max(1e-6);
            occ_share / cap_share + DAMPING
        })
        .collect();
    let wsum: f64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(nbins + 1);
    bounds.push(lo);
    let mut acc = lo;
    for w in &weights {
        acc += (hi - lo) * w / wsum;
        bounds.push(acc);
    }
    let mut out = positions.clone();
    for (b, members) in by_bin.iter_mut().enumerate() {
        if members.is_empty() {
            continue;
        }
        members.sort_by(|&i, &j| positions[i].total_cmp(&positions[j]));
        let bin_area: f64 = members.iter().map(|&i| areas[i]).sum();
        let (nl, nr) = (bounds[b], bounds[b + 1]);
        let mut cum = 0.0;
        for &i in members.iter() {
            let center = (cum + areas[i] / 2.0) / bin_area.max(1e-300);
            let mapped = nl + center * (nr - nl);
            out[i] = positions[i] + strength * (mapped - positions[i]);
            cum += areas[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_positions_have_flat_profile() {
        let positions: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let areas = vec![1.0; 100];
        let cap = vec![1.0; 10];
        let util = utilization_profile(&positions, &areas, 0.0, 100.0, 10, &cap);
        for u in &util {
            assert!((u - 1.0).abs() < 1e-9, "uniform spread ⇒ utilization 1");
        }
    }

    #[test]
    fn clumped_positions_have_a_peak() {
        let positions = vec![50.0; 40];
        let areas = vec![1.0; 40];
        let cap = vec![1.0; 10];
        let util = utilization_profile(&positions, &areas, 0.0, 100.0, 10, &cap);
        assert!(max_utilization(&util) > 5.0);
    }

    #[test]
    fn shifting_reduces_peak_utilization() {
        // Everything clumped in the middle.
        let positions: Vec<f64> = (0..60).map(|i| 49.0 + (i as f64) / 30.0).collect();
        let areas = vec![1.0; 60];
        let cap = vec![1.0; 12];
        let before = max_utilization(&utilization_profile(
            &positions, &areas, 0.0, 100.0, 12, &cap,
        ));
        let shifted = shift_axis(&positions, &areas, 0.0, 100.0, 12, &cap, 1.0);
        let after = max_utilization(&utilization_profile(&shifted, &areas, 0.0, 100.0, 12, &cap));
        assert!(
            after < before,
            "peak must drop: before {before}, after {after}"
        );
    }

    #[test]
    fn zero_strength_is_identity() {
        let positions = vec![10.0, 20.0, 30.0];
        let areas = vec![1.0; 3];
        let cap = vec![1.0; 4];
        let out = shift_axis(&positions, &areas, 0.0, 40.0, 4, &cap, 0.0);
        assert_eq!(out, positions);
    }

    #[test]
    fn blocked_bins_repel_mass() {
        // Bin 0 has no capacity (fully covered by a fixed macro); nodes
        // sitting there register as overflow.
        let positions = vec![2.0, 3.0];
        let areas = vec![1.0, 1.0];
        let cap = vec![0.0, 1.0, 1.0, 1.0];
        let util = utilization_profile(&positions, &areas, 0.0, 40.0, 4, &cap);
        assert!(util[0] > 1.0, "blocked bin must read overfull");
    }

    #[test]
    fn empty_input_is_fine() {
        let util = utilization_profile(&[], &[], 0.0, 10.0, 4, &[1.0; 4]);
        assert_eq!(util, vec![0.0; 4]);
        let out = shift_axis(&[], &[], 0.0, 10.0, 4, &[1.0; 4], 1.0);
        assert!(out.is_empty());
    }

    #[test]
    fn spread_grid_macro_does_not_crowd_out_other_rows() {
        // One huge macro in the middle row plus many unit cells clumped in a
        // different row: after shifting, the cells must stay within their
        // own row's spread, not be squeezed to an edge by the macro's area.
        let grid = SpreadGrid::new(0.0, 0.0, 100.0, 100.0, 8);
        let mut xs = vec![50.0]; // the macro
        let mut ys = vec![50.0];
        let mut areas = vec![2000.0];
        for i in 0..40 {
            xs.push(50.0 + (i as f64) * 0.01);
            ys.push(10.0); // a different row
            areas.push(1.0);
        }
        let (sx, _sy) = grid.shift(&xs, &ys, &areas, 1.0);
        let cell_mean = sx[1..].iter().sum::<f64>() / 40.0;
        assert!(
            (cell_mean - 50.0).abs() < 20.0,
            "cells pushed to {cell_mean}, expected to stay near 50"
        );
    }

    #[test]
    fn spread_grid_peak_counts_blocked_bins() {
        let mut grid = SpreadGrid::new(0.0, 0.0, 100.0, 100.0, 4);
        // Fully block the lower-left bin.
        grid.block(0.0, 0.0, 25.0, 25.0);
        let peak = grid.peak_utilization(&[10.0], &[10.0], &[2.0], &[2.0]);
        assert!(peak >= 10.0, "area in a blocked bin must read overfull");
    }

    #[test]
    fn spread_grid_peak_smears_large_outlines() {
        let grid = SpreadGrid::new(0.0, 0.0, 100.0, 100.0, 4);
        // A 50x50 macro covers four 25x25 bins exactly: utilization 1.
        let peak = grid.peak_utilization(&[50.0], &[50.0], &[50.0], &[50.0]);
        assert!((peak - 1.0).abs() < 1e-9, "got {peak}");
    }

    #[test]
    fn spread_grid_reduces_peak_on_clump() {
        let grid = SpreadGrid::new(0.0, 0.0, 100.0, 100.0, 8);
        let n = 80;
        let xs = vec![50.0; n];
        let ys: Vec<f64> = (0..n).map(|i| 48.0 + (i as f64) * 0.05).collect();
        let areas = vec![4.0; n];
        let ws = vec![2.0; n];
        let hs = vec![2.0; n];
        let before = grid.peak_utilization(&xs, &ys, &ws, &hs);
        let (sx, sy) = grid.shift(&xs, &ys, &areas, 1.0);
        let after = grid.peak_utilization(&sx, &sy, &ws, &hs);
        assert!(after < before, "before {before}, after {after}");
    }

    #[test]
    fn pooled_shift_is_bitwise_invariant_in_worker_count() {
        let grid = SpreadGrid::new(0.0, 0.0, 100.0, 100.0, 8);
        let n = 120;
        let xs: Vec<f64> = (0..n)
            .map(|i| 30.0 + (i as f64 * 0.37).sin() * 25.0)
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| 50.0 + (i as f64 * 0.73).cos() * 40.0)
            .collect();
        let areas: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let (bx, by) = grid.shift(&xs, &ys, &areas, 0.8);
        for w in [2usize, 4, 8] {
            let pool = ThreadPool::try_new(w).unwrap();
            let (sx, sy) = grid.shift_pooled(&pool, &xs, &ys, &areas, 0.8);
            let same_x = sx.iter().zip(&bx).all(|(a, b)| a.to_bits() == b.to_bits());
            let same_y = sy.iter().zip(&by).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_x && same_y, "w={w}: shifted coordinates drifted");
        }
    }

    #[test]
    fn pooled_shift_above_the_inline_floor_is_bitwise_invariant() {
        let grid = SpreadGrid::new(0.0, 0.0, 1000.0, 1000.0, 64);
        let n = SPREAD_PAR_MIN_NODES + 1;
        let xs: Vec<f64> = (0..n)
            .map(|i| 500.0 + (i as f64 * 0.37).sin() * 200.0)
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| 500.0 + (i as f64 * 0.71).cos() * 300.0)
            .collect();
        let areas: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let (bx, by) = grid.shift(&xs, &ys, &areas, 0.5);
        for w in [2usize, 4] {
            let pool = ThreadPool::try_new(w).unwrap();
            let (sx, sy) = grid.shift_pooled(&pool, &xs, &ys, &areas, 0.5);
            let same_x = sx.iter().zip(&bx).all(|(a, b)| a.to_bits() == b.to_bits());
            let same_y = sy.iter().zip(&by).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_x && same_y, "w={w}: shifted coordinates drifted");
        }
    }

    #[test]
    fn spread_grid_empty_input() {
        let grid = SpreadGrid::new(0.0, 0.0, 10.0, 10.0, 2);
        let (sx, sy) = grid.shift(&[], &[], &[], 1.0);
        assert!(sx.is_empty() && sy.is_empty());
        assert_eq!(grid.peak_utilization(&[], &[], &[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn spread_grid_rejects_empty_region() {
        let _ = SpreadGrid::new(0.0, 0.0, 0.0, 10.0, 2);
    }

    proptest! {
        #[test]
        fn spread_grid_outputs_stay_in_region(
            pts in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.5f64..20.0), 1..40),
            strength in 0.1f64..1.0,
        ) {
            let grid = SpreadGrid::new(0.0, 0.0, 100.0, 100.0, 6);
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let areas: Vec<f64> = pts.iter().map(|p| p.2).collect();
            let (sx, sy) = grid.shift(&xs, &ys, &areas, strength);
            for i in 0..xs.len() {
                prop_assert!((-1e-9..=100.0 + 1e-9).contains(&sx[i]));
                prop_assert!((-1e-9..=100.0 + 1e-9).contains(&sy[i]));
            }
        }

        #[test]
        fn shifted_positions_stay_in_range(
            pts in proptest::collection::vec(0.0f64..100.0, 1..50),
            strength in 0.0f64..1.0,
        ) {
            let areas = vec![1.0; pts.len()];
            let cap = vec![1.0; 8];
            let out = shift_axis(&pts, &areas, 0.0, 100.0, 8, &cap, strength);
            for &p in &out {
                prop_assert!((-1e-9..=100.0 + 1e-9).contains(&p));
            }
        }

        #[test]
        fn shifting_preserves_within_bin_order(
            pts in proptest::collection::vec(0.0f64..100.0, 2..40),
        ) {
            let areas = vec![1.0; pts.len()];
            let cap = vec![1.0; 8];
            let out = shift_axis(&pts, &areas, 0.0, 100.0, 8, &cap, 1.0);
            // The bin remap is monotone, so global order is preserved.
            let mut idx: Vec<usize> = (0..pts.len()).collect();
            idx.sort_by(|&a, &b| pts[a].total_cmp(&pts[b]));
            for w in idx.windows(2) {
                prop_assert!(out[w[0]] <= out[w[1]] + 1e-9);
            }
        }
    }
}
