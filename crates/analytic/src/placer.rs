//! The global placement driver: iterated B2B solves + cell shifting.

use crate::b2b::{build_system, Axis, PinTable};
use crate::cg;
use crate::density::SpreadGrid;
use mmp_geom::Point;
use mmp_netlist::{CellId, Design, MacroId, Placement};
use mmp_obs::{field, Obs};
use serde::{Deserialize, Serialize};

/// Tuning of the [`GlobalPlacer`] loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalPlacerConfig {
    /// Outer solve/spread iterations.
    pub iterations: usize,
    /// CG relative-residual target.
    pub cg_tol: f64,
    /// CG iteration budget per solve.
    pub cg_max_iters: usize,
    /// Spreading bins per axis (0 = auto from node count).
    pub bins: usize,
    /// Cell-shift blend strength in `(0, 1]`.
    pub spread_strength: f64,
    /// Initial anchor pseudo-net weight.
    pub anchor_weight: f64,
    /// Multiplicative anchor growth per iteration.
    pub anchor_growth: f64,
    /// Stop early once the peak bin utilization falls below this.
    pub target_utilization: f64,
}

impl GlobalPlacerConfig {
    /// Fast preset for tests and inner-loop reward evaluation.
    pub fn fast() -> Self {
        GlobalPlacerConfig {
            iterations: 6,
            cg_tol: 1e-5,
            cg_max_iters: 60,
            bins: 0,
            spread_strength: 0.9,
            anchor_weight: 0.15,
            anchor_growth: 1.8,
            target_utilization: 1.2,
        }
    }

    /// Quality preset for final placements.
    pub fn quality() -> Self {
        GlobalPlacerConfig {
            iterations: 16,
            cg_tol: 1e-6,
            cg_max_iters: 150,
            bins: 0,
            spread_strength: 0.8,
            anchor_weight: 0.08,
            anchor_growth: 1.6,
            target_utilization: 1.05,
        }
    }
}

impl Default for GlobalPlacerConfig {
    fn default() -> Self {
        GlobalPlacerConfig::quality()
    }
}

/// Outcome of a cells-only placement: the placement plus its measured HPWL —
/// the value the paper's pipeline feeds into the reward function (Sec. II-C:
/// the mixed-size placer "also returns a measured wirelength value").
#[derive(Debug, Clone, PartialEq)]
pub struct CellPlaceOutcome {
    /// The placement with cells placed (macros untouched).
    pub placement: Placement,
    /// Full-netlist HPWL of the outcome.
    pub hpwl: f64,
}

/// Quadratic global placer: B2B net model + preconditioned CG + cell
/// shifting with anchor pseudo-nets. See the crate docs for its role as the
/// DREAMPlace substitute.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlacer {
    config: GlobalPlacerConfig,
    obs: Obs,
    pool: mmp_pool::ThreadPool,
}

impl GlobalPlacer {
    /// Creates a placer with the given configuration (observability off,
    /// inline single-worker pool).
    pub fn new(config: GlobalPlacerConfig) -> Self {
        GlobalPlacer {
            config,
            obs: Obs::off(),
            pool: mmp_pool::ThreadPool::single(),
        }
    }

    /// Attaches an observability handle: spread iterations emit
    /// `analytic.spread` events and the CG/QP effort counters
    /// (`analytic.cg_iters`, `analytic.qp_solves`, `analytic.spread_iters`)
    /// feed its metrics registry.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Selects the deterministic executor for the CG solves and the density
    /// spreading passes. The placement is bitwise identical at any worker
    /// count.
    #[must_use]
    pub fn with_pool(mut self, pool: mmp_pool::ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &GlobalPlacerConfig {
        &self.config
    }

    /// Mixed-size prototyping placement: movable macros **and** cells are
    /// variables. This is the initial placement that feeds clustering
    /// (Sec. II-A cites \[23\]).
    pub fn place_mixed(&self, design: &Design) -> Placement {
        self.run(design, &design.movable_macros(), Placement::initial(design))
    }

    /// Cells-only placement with every macro fixed at its position in
    /// `macro_placement` — the cell placement + HPWL measurement step
    /// (Sec. II-C).
    pub fn place_cells(&self, design: &Design, macro_placement: &Placement) -> CellPlaceOutcome {
        let placement = self.run(design, &[], macro_placement.clone());
        let hpwl = placement.hpwl(design);
        CellPlaceOutcome { placement, hpwl }
    }

    fn auto_bins(&self, n: usize) -> usize {
        if self.config.bins > 0 {
            self.config.bins
        } else {
            ((n as f64).sqrt() as usize / 2).clamp(8, 64)
        }
    }

    /// Places `movable_macros` and every cell (columns in that order, as
    /// [`PinTable`] assigns them); every other macro stays at its center in
    /// `initial`.
    fn run(&self, design: &Design, movable_macros: &[MacroId], initial: Placement) -> Placement {
        let n = movable_macros.len() + design.cells().len();
        if n == 0 || design.nets().is_empty() {
            return initial;
        }
        let cfg = &self.config;
        let region = *design.region();
        let nbins = self.auto_bins(n);

        let table = PinTable::new(design, movable_macros, &initial);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        let mut areas = Vec::with_capacity(n);
        let mut half_w = Vec::with_capacity(n);
        let mut half_h = Vec::with_capacity(n);
        let macros = movable_macros.iter().map(|&id| {
            let mac = design.macro_(id);
            (initial.macro_center(id), mac.width, mac.height)
        });
        let cells = design.cells().iter().enumerate().map(|(i, cell)| {
            (
                initial.cell_center(CellId::from_index(i)),
                cell.width,
                cell.height,
            )
        });
        for (p, w, h) in macros.chain(cells) {
            xs.push(p.x);
            ys.push(p.y);
            areas.push((w * h).max(1e-9));
            half_w.push(w / 2.0);
            half_h.push(h / 2.0);
        }

        // Spreading grid with fixed macros (preplaced, or frozen by the
        // caller) blocked out of bin capacity.
        let mut grid = SpreadGrid::new(region.x, region.y, region.width, region.height, nbins);
        for i in 0..design.macros().len() {
            let id = MacroId::from_index(i);
            if table.macro_column(id).is_none() {
                let r = initial.macro_rect(design, id);
                grid.block(r.x, r.y, r.width, r.height);
            }
        }

        let mut anchor_x: Option<Vec<f64>> = None;
        let mut anchor_y: Option<Vec<f64>> = None;
        let mut anchor_w = cfg.anchor_weight;

        for iter in 0..cfg.iterations {
            // Each axis reads only its own coordinates, so the y system
            // still sees the positions the x solve started from.
            for (axis, pos, anchor, half, lo, hi) in [
                (
                    Axis::X,
                    &mut xs,
                    &anchor_x,
                    &half_w,
                    region.x,
                    region.right(),
                ),
                (Axis::Y, &mut ys, &anchor_y, &half_h, region.y, region.top()),
            ] {
                let (mut a, mut b) = build_system(&table, axis, pos);
                if let Some(anchors) = anchor {
                    // Anchor strength is relative to each node's own net
                    // connectivity so spreading forces keep pace with
                    // wirelength forces (the FastPlace recipe).
                    let diag = a.diagonal();
                    // mmp-lint: allow(float-reduction) why: sequential sum over the diagonal slice, order fixed by construction
                    let mean_diag = diag.iter().sum::<f64>() / (n as f64).max(1.0);
                    for i in 0..n {
                        let w = anchor_w * diag[i].max(0.1 * mean_diag);
                        a.add(i, i, w);
                        b[i] += w * anchors[i];
                    }
                }
                let out = cg::solve_pooled(
                    &self.pool,
                    &a.into_csr(),
                    &b,
                    pos,
                    cfg.cg_tol,
                    cfg.cg_max_iters,
                );
                if self.obs.enabled() {
                    self.obs.count("analytic.qp_solves", 1);
                    self.obs.count("analytic.cg_iters", out.iterations as u64);
                }
                *pos = out.x;
                for i in 0..n {
                    let l = lo + half[i].min((hi - lo) / 2.0);
                    let h = hi - half[i].min((hi - lo) / 2.0);
                    pos[i] = pos[i].clamp(l, h.max(l));
                }
            }

            // Spreading pass → anchors for the next iteration.
            let full_w: Vec<f64> = half_w.iter().map(|h| h * 2.0).collect();
            let full_h: Vec<f64> = half_h.iter().map(|h| h * 2.0).collect();
            let peak = grid.peak_utilization(&xs, &ys, &full_w, &full_h);
            let (shifted_x, shifted_y) =
                grid.shift_pooled(&self.pool, &xs, &ys, &areas, cfg.spread_strength);
            // One branch when observability is off — never an env-var read
            // or any formatting in this per-iteration path.
            if self.obs.enabled() {
                self.obs.count("analytic.spread_iters", 1);
                if self.obs.tracing() {
                    // Fixed-chunk pool reductions so trace payloads match
                    // across worker counts, like every other sum on this path.
                    let mx = self.pool.sum_f64(&xs) / n as f64;
                    let my = self.pool.sum_f64(&ys) / n as f64;
                    let ax = self.pool.sum_f64(&shifted_x) / n as f64;
                    let ay = self.pool.sum_f64(&shifted_y) / n as f64;
                    self.obs.event(
                        "analytic.spread",
                        "iter",
                        &[
                            field("iter", iter),
                            field("qp_mean_x", mx),
                            field("qp_mean_y", my),
                            field("peak_utilization", peak),
                            field("anchor_mean_x", ax),
                            field("anchor_mean_y", ay),
                            field("anchor_weight", anchor_w),
                        ],
                    );
                }
            }
            anchor_x = Some(shifted_x);
            anchor_y = Some(shifted_y);
            if iter > 0 {
                anchor_w *= cfg.anchor_growth;
            }
            if peak <= cfg.target_utilization {
                break;
            }
        }

        // Final wirelength relaxation: one more B2B solve anchored firmly to
        // the last spread positions. Raw spread coordinates are density-fair
        // but wirelength-blind; the extra solve recovers most of the HPWL
        // the last shift gave away while staying near the spread layout.
        if let (Some(ax), Some(ay)) = (&anchor_x, &anchor_y) {
            xs[..n].copy_from_slice(&ax[..n]);
            ys[..n].copy_from_slice(&ay[..n]);
            let final_w = anchor_w.max(0.5);
            for (axis, pos, anchors) in [(Axis::X, &mut xs, ax), (Axis::Y, &mut ys, ay)] {
                let (mut a, mut b) = build_system(&table, axis, pos);
                let diag = a.diagonal();
                // mmp-lint: allow(float-reduction) why: sequential sum over the diagonal slice, order fixed by construction
                let mean_diag = diag.iter().sum::<f64>() / (n as f64).max(1.0);
                for i in 0..n {
                    let w = final_w * diag[i].max(0.1 * mean_diag);
                    a.add(i, i, w);
                    b[i] += w * anchors[i];
                }
                let out = cg::solve_pooled(
                    &self.pool,
                    &a.into_csr(),
                    &b,
                    pos,
                    cfg.cg_tol,
                    cfg.cg_max_iters,
                );
                if self.obs.enabled() {
                    self.obs.count("analytic.qp_solves", 1);
                    self.obs.count("analytic.cg_iters", out.iterations as u64);
                }
                *pos = out.x;
            }
        }
        for i in 0..n {
            let l = region.x + half_w[i].min(region.width / 2.0);
            let h = (region.right() - half_w[i].min(region.width / 2.0)).max(l);
            xs[i] = xs[i].clamp(l, h);
            let l = region.y + half_h[i].min(region.height / 2.0);
            let h = (region.top() - half_h[i].min(region.height / 2.0)).max(l);
            ys[i] = ys[i].clamp(l, h);
        }

        // Columns are the movable macros, then every cell.
        let mut out = initial;
        let mut centers = xs.iter().zip(&ys).map(|(&x, &y)| Point::new(x, y));
        for (&id, p) in movable_macros.iter().zip(centers.by_ref()) {
            out.set_macro_center(id, p);
        }
        for (i, p) in centers.enumerate() {
            out.set_cell_center(CellId::from_index(i), p);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_geom::Rect;
    use mmp_netlist::{DesignBuilder, SyntheticSpec};

    #[test]
    fn no_movables_returns_initial() {
        let mut b = DesignBuilder::new("f", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_preplaced_macro("m", 2.0, 2.0, "", Point::new(5.0, 5.0));
        let d = b.build().unwrap();
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let out = placer.place_mixed(&d);
        assert_eq!(out, Placement::initial(&d));
    }

    #[test]
    fn mixed_placement_improves_hpwl_over_random() {
        use rand::{Rng, SeedableRng};
        let d = SyntheticSpec::small("imp", 8, 0, 16, 150, 250, false, 77).generate();
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let placed = placer.place_mixed(&d);
        // Random baseline.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut random = Placement::initial(&d);
        let r = d.region();
        for id in d.movable_macros() {
            random.set_macro_center(
                id,
                Point::new(
                    r.x + rng.gen::<f64>() * r.width,
                    r.y + rng.gen::<f64>() * r.height,
                ),
            );
        }
        for i in 0..d.cells().len() {
            random.set_cell_center(
                CellId::from_index(i),
                Point::new(
                    r.x + rng.gen::<f64>() * r.width,
                    r.y + rng.gen::<f64>() * r.height,
                ),
            );
        }
        assert!(
            placed.hpwl(&d) < random.hpwl(&d),
            "analytical {} vs random {}",
            placed.hpwl(&d),
            random.hpwl(&d)
        );
    }

    #[test]
    fn placement_spreads_cells() {
        let d = SyntheticSpec::small("spread", 4, 0, 8, 200, 300, false, 3).generate();
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let placed = placer.place_mixed(&d);
        // Cells must not all sit at one point: measure the spatial spread.
        let xs: Vec<f64> = (0..d.cells().len())
            .map(|i| placed.cell_center(CellId::from_index(i)).x)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            var.sqrt() > d.region().width * 0.05,
            "stddev {} too small",
            var.sqrt()
        );
    }

    #[test]
    fn macros_stay_inside_region() {
        let d = SyntheticSpec::small("in", 10, 2, 8, 100, 180, true, 41).generate();
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let placed = placer.place_mixed(&d);
        assert!(placed.macros_inside_region(&d));
    }

    #[test]
    fn place_cells_keeps_macros_fixed() {
        let d = SyntheticSpec::small("fix", 6, 0, 8, 80, 140, false, 9).generate();
        let mut macro_pl = Placement::initial(&d);
        for (k, id) in d.movable_macros().into_iter().enumerate() {
            macro_pl.set_macro_center(id, Point::new(20.0 + 7.0 * k as f64, 30.0));
        }
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let out = placer.place_cells(&d, &macro_pl);
        for id in d.movable_macros() {
            assert_eq!(out.placement.macro_center(id), macro_pl.macro_center(id));
        }
        assert!((out.hpwl - out.placement.hpwl(&d)).abs() < 1e-9);
    }

    #[test]
    fn place_cells_is_deterministic() {
        let d = SyntheticSpec::small("det", 5, 0, 8, 60, 100, false, 10).generate();
        let macro_pl = Placement::initial(&d);
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let a = placer.place_cells(&d, &macro_pl);
        let b = placer.place_cells(&d, &macro_pl);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.hpwl, b.hpwl);
    }

    #[test]
    fn netless_design_is_a_noop() {
        let mut b = DesignBuilder::new("nn", Rect::new(0.0, 0.0, 10.0, 10.0));
        b.add_macro("m", 2.0, 2.0, "");
        let d = b.build().unwrap();
        let placer = GlobalPlacer::new(GlobalPlacerConfig::fast());
        let out = placer.place_mixed(&d);
        assert_eq!(out, Placement::initial(&d));
    }

    #[test]
    fn presets_differ() {
        assert!(GlobalPlacerConfig::fast().iterations < GlobalPlacerConfig::quality().iterations);
        assert_eq!(GlobalPlacerConfig::default(), GlobalPlacerConfig::quality());
    }
}
