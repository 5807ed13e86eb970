//! The three-step macro legalization flow of Sec. II-B.
//!
//! Given a grid assignment for every macro group (from RL or MCTS):
//!
//! 1. cell groups are placed by QP with macro groups fixed at their grid
//!    centers,
//! 2. macro groups are decomposed and individual macros placed by QP with
//!    cell groups fixed, each macro confined to its group's grid,
//! 3. overlaps are removed per grid with a sequence pair + the
//!    wirelength-minimising descent of [`crate::median`], followed by one
//!    global pass (including preplaced macros as heavily-weighted anchors)
//!    that clears any cross-grid overlap.

use crate::constraint::ConstraintGraph;
use crate::fallback::{shelf_pack, ShelfItem};
use crate::median::{axis_overflow, optimize_axis, AxisTarget};
use crate::sequence_pair::SequencePair;
use mmp_analytic::{cg, Triplets};
use mmp_cluster::{CoarsenedNetlist, GroupRef};
use mmp_geom::{Grid, GridIndex, Point, Rect};
use mmp_netlist::{Design, MacroId, NodeRef, Placement};
use mmp_obs::{field, Obs};
use std::error::Error;
use std::fmt;
use std::time::Instant;

fn expired(deadline: Option<Instant>) -> bool {
    // mmp-lint: allow(wallclock) why: budget-deadline probe; expiry only degrades to deterministic shelf packing
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn any_non_finite(centers: &[Point]) -> bool {
    centers.iter().any(|c| !c.x.is_finite() || !c.y.is_finite())
}

/// Error from [`MacroLegalizer::legalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LegalizeError {
    /// `assignment.len()` must equal the number of macro groups.
    AssignmentMismatch {
        /// Macro group count in the coarsened netlist.
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// An assignment entry points outside the ζ×ζ grid. Assignments built
    /// by the search are in-grid by construction; this guards externally
    /// restored ones (e.g. a resumed checkpoint) so a bad index surfaces
    /// as a typed error instead of garbage geometry.
    AssignmentOutOfGrid {
        /// Macro group with the bad entry.
        group: usize,
        /// Column supplied.
        col: usize,
        /// Row supplied.
        row: usize,
        /// Grid resolution ζ (both axes must be `< zeta`).
        zeta: usize,
    },
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::AssignmentMismatch { expected, got } => write!(
                f,
                "grid assignment has {got} entries but the design has {expected} macro groups"
            ),
            LegalizeError::AssignmentOutOfGrid {
                group,
                col,
                row,
                zeta,
            } => write!(
                f,
                "macro group {group} is assigned to cell ({col}, {row}) outside the \
                 {zeta}x{zeta} grid"
            ),
        }
    }
}

impl Error for LegalizeError {}

/// Result of legalization.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizeOutcome {
    /// Placement with legal macro centers; cells sit at their group centers
    /// (run the analytical cell placer afterwards for the final result).
    pub placement: Placement,
    /// The QP-placed cell group centers of step 1.
    pub cell_group_centers: Vec<Point>,
    /// `true` when the macros could not all be kept inside the region.
    pub out_of_region: bool,
    /// Total remaining macro-macro overlap area (0 in feasible instances).
    pub overlap_area: f64,
    /// Grid cells whose per-cell overlap removal fell back to the
    /// deterministic row-greedy packer (non-finite coordinates, injected
    /// fault, or expired deadline). 0 on the healthy path.
    pub fallback_grid_cells: usize,
    /// `true` when the global pass was replaced by the row-greedy packer.
    pub global_fallback: bool,
    /// `true` when the wall-clock deadline had expired by the time
    /// legalization finished (the caller's budget accountant records which
    /// stages degraded).
    pub deadline_expired: bool,
}

/// Configuration + driver for the three-step legalization.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroLegalizer {
    /// Sweeps of the median-descent LP substitute.
    pub lp_iters: usize,
    /// CG tolerance for the QP steps.
    pub cg_tol: f64,
    /// CG iteration budget for the QP steps.
    pub cg_max_iters: usize,
    /// Anchor weight pinning preplaced macros in the global pass.
    pub fixed_weight: f64,
    /// Fault-injection knob: when `true` the sequence-pair path is treated
    /// as failed and every overlap-removal step uses the row-greedy
    /// fallback. Exercised by the fault harness; always `false` in
    /// production configs.
    pub force_sp_failure: bool,
    /// Observability handle. Defaults to [`Obs::off`] (one dead branch per
    /// instrumented site); equality compares handle identity, not captured
    /// data, so two default legalizers still compare equal.
    pub obs: Obs,
}

impl Default for MacroLegalizer {
    fn default() -> Self {
        MacroLegalizer {
            lp_iters: 30,
            cg_tol: 1e-8,
            cg_max_iters: 200,
            fixed_weight: 1e7,
            force_sp_failure: false,
            obs: Obs::off(),
        }
    }
}

impl MacroLegalizer {
    /// Creates a legalizer with default settings.
    pub fn new() -> Self {
        MacroLegalizer::default()
    }

    /// Attaches an observability handle.
    ///
    /// With tracing enabled the global pass emits `legal.global_pass`
    /// round events; counters `legal.global_rounds`,
    /// `legal.fallback_cells` and `legal.global_fallback` accumulate in
    /// the handle's metrics registry either way.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs the full flow for `assignment[g]` = grid cell of macro group
    /// `g`.
    ///
    /// # Errors
    ///
    /// Returns [`LegalizeError::AssignmentMismatch`] when the assignment
    /// length is wrong. Infeasibility (macros genuinely not fitting the
    /// region) is *not* an error: it is reported through
    /// [`LegalizeOutcome::out_of_region`] / [`LegalizeOutcome::overlap_area`]
    /// so callers can still score the attempt.
    pub fn legalize(
        &self,
        design: &Design,
        coarse: &CoarsenedNetlist,
        assignment: &[GridIndex],
        grid: &Grid,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        self.legalize_with_deadline(design, coarse, assignment, grid, None)
    }

    /// [`MacroLegalizer::legalize`] under a wall-clock deadline: once the
    /// deadline passes, remaining overlap-removal work switches to the
    /// deterministic row-greedy packer instead of the sequence-pair + LP
    /// path, so a complete (if cruder) placement is always returned. The
    /// degradation is reported through
    /// [`LegalizeOutcome::fallback_grid_cells`] /
    /// [`LegalizeOutcome::global_fallback`].
    ///
    /// # Errors
    ///
    /// Same contract as [`MacroLegalizer::legalize`].
    pub fn legalize_with_deadline(
        &self,
        design: &Design,
        coarse: &CoarsenedNetlist,
        assignment: &[GridIndex],
        grid: &Grid,
        deadline: Option<Instant>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        let groups = coarse.macro_groups();
        if assignment.len() != groups.len() {
            return Err(LegalizeError::AssignmentMismatch {
                expected: groups.len(),
                got: assignment.len(),
            });
        }
        for (group, idx) in assignment.iter().enumerate() {
            if idx.col >= grid.zeta() || idx.row >= grid.zeta() {
                return Err(LegalizeError::AssignmentOutOfGrid {
                    group,
                    col: idx.col,
                    row: idx.row,
                    zeta: grid.zeta(),
                });
            }
        }

        // Macro-group anchors: the centers of their assigned grid cells.
        let group_centers: Vec<Point> = assignment
            .iter()
            .map(|&idx| grid.cell_at(idx).center())
            .collect();

        // Step 1: place cell groups by QP.
        let cell_group_centers = self.place_cell_groups(design, coarse, &group_centers);

        // Step 2: place individual macros by QP, confined to their grids.
        let mut macro_centers =
            self.place_macros_in_grids(design, coarse, assignment, grid, &cell_group_centers);

        // Step 3a: per-grid overlap removal.
        let fallback_grid_cells = self.legalize_per_grid(
            design,
            coarse,
            assignment,
            grid,
            &mut macro_centers,
            deadline,
        );

        // Step 3b: global pass including preplaced macros.
        let (out_of_region, overlap_area, global_fallback) =
            self.global_pass(design, &mut macro_centers, deadline);

        if self.obs.enabled() {
            self.obs
                // mmp-lint: allow(cast-truncation) why: usize to u64 is widening on every supported target
                .count("legal.fallback_cells", fallback_grid_cells as u64);
            if global_fallback {
                self.obs.count("legal.global_fallback", 1);
            }
        }

        let mut placement = Placement::initial(design);
        for (i, m) in design.macros().iter().enumerate() {
            if !m.is_preplaced() {
                placement.set_macro_center(MacroId::from_index(i), macro_centers[i]);
            }
        }
        for (gi, g) in coarse.cell_groups().iter().enumerate() {
            for &c in &g.members {
                placement.set_cell_center(c, cell_group_centers[gi]);
            }
        }
        Ok(LegalizeOutcome {
            placement,
            cell_group_centers,
            out_of_region,
            overlap_area,
            fallback_grid_cells,
            global_fallback,
            deadline_expired: expired(deadline),
        })
    }

    /// Step 1: QP over cell groups with macro groups fixed at
    /// `group_centers` (clique net model over the coarsened nets).
    pub fn place_cell_groups(
        &self,
        design: &Design,
        coarse: &CoarsenedNetlist,
        group_centers: &[Point],
    ) -> Vec<Point> {
        let n = coarse.cell_groups().len();
        if n == 0 {
            return Vec::new();
        }
        let region = design.region();
        let mut out: Vec<Point> = coarse.cell_groups().iter().map(|g| g.center).collect();
        for axis in 0..2 {
            let mut a = Triplets::new(n);
            let mut b = vec![0.0; n];
            for net in coarse.nets() {
                let k = net.endpoints.len();
                if k < 2 {
                    continue;
                }
                let w = net.weight * 2.0 / k as f64;
                for i in 0..k {
                    for j in (i + 1)..k {
                        let coord = |ep: &GroupRef| -> (Option<usize>, f64) {
                            match *ep {
                                GroupRef::CellGroup(g) => (Some(g), 0.0),
                                GroupRef::MacroGroup(g) => {
                                    let p = group_centers[g];
                                    (None, if axis == 0 { p.x } else { p.y })
                                }
                                GroupRef::Fixed(p) => (None, if axis == 0 { p.x } else { p.y }),
                            }
                        };
                        let (vi, ci) = coord(&net.endpoints[i]);
                        let (vj, cj) = coord(&net.endpoints[j]);
                        match (vi, vj) {
                            (Some(p), Some(q)) => {
                                if p != q {
                                    a.add(p, p, w);
                                    a.add(q, q, w);
                                    a.add(p, q, -w);
                                    a.add(q, p, -w);
                                }
                            }
                            (Some(p), None) => {
                                a.add(p, p, w);
                                b[p] += w * cj;
                            }
                            (None, Some(q)) => {
                                a.add(q, q, w);
                                b[q] += w * ci;
                            }
                            (None, None) => {}
                        }
                    }
                }
            }
            let warm: Vec<f64> = out
                .iter()
                .map(|p| if axis == 0 { p.x } else { p.y })
                .collect();
            let sol = cg::solve(&a.into_csr(), &b, &warm, self.cg_tol, self.cg_max_iters);
            let (lo, hi) = if axis == 0 {
                (region.x, region.right())
            } else {
                (region.y, region.top())
            };
            for (p, v) in out.iter_mut().zip(sol.x) {
                let v = v.clamp(lo, hi);
                if axis == 0 {
                    p.x = v;
                } else {
                    p.y = v;
                }
            }
        }
        out
    }

    /// Step 2: QP over individual movable macros (cell groups fixed),
    /// clamped into their groups' assigned grid cells. Returns a center per
    /// design macro (preplaced macros keep their fixed centers).
    pub fn place_macros_in_grids(
        &self,
        design: &Design,
        coarse: &CoarsenedNetlist,
        assignment: &[GridIndex],
        grid: &Grid,
        cell_group_centers: &[Point],
    ) -> Vec<Point> {
        let n_all = design.macros().len();
        // Variable index per movable macro; start everyone at their group's
        // grid center so unconnected macros stay inside their grid.
        let mut var_of: Vec<Option<usize>> = vec![None; n_all];
        let mut vars: Vec<MacroId> = Vec::new();
        let mut centers: Vec<Point> = Vec::with_capacity(n_all);
        for (i, var_slot) in var_of.iter_mut().enumerate() {
            let id = MacroId::from_index(i);
            let m = design.macro_(id);
            if let Some(c) = m.fixed_center {
                centers.push(c);
            } else {
                *var_slot = Some(vars.len());
                vars.push(id);
                let c = coarse
                    .group_of_macro(id)
                    .map(|g| grid.cell_at(assignment[g]).center())
                    .unwrap_or_else(|| design.region().center());
                centers.push(c);
            }
        }
        let n = vars.len();
        if n == 0 {
            return centers;
        }

        for axis in 0..2 {
            let mut a = Triplets::new(n);
            let mut b = vec![0.0; n];
            for net in design.nets() {
                let k = net.pins.len();
                if k < 2 {
                    continue;
                }
                let w = net.weight * 2.0 / k as f64;
                // (variable index, offset) or (None, fixed coordinate incl. offset)
                let resolve = |pin: &mmp_netlist::Pin| -> (Option<usize>, f64) {
                    let off = if axis == 0 {
                        pin.offset.x
                    } else {
                        pin.offset.y
                    };
                    match pin.node {
                        NodeRef::Macro(id) => match var_of[id.index()] {
                            Some(v) => (Some(v), off),
                            None => {
                                let c = centers[id.index()];
                                (None, (if axis == 0 { c.x } else { c.y }) + off)
                            }
                        },
                        NodeRef::Cell(id) => {
                            let c = cell_group_centers
                                .get(coarse.group_of_cell(id))
                                .copied()
                                .unwrap_or_else(|| design.region().center());
                            (None, (if axis == 0 { c.x } else { c.y }) + off)
                        }
                        NodeRef::Pad(id) => {
                            let p = design.pad(id).position;
                            (None, if axis == 0 { p.x } else { p.y })
                        }
                    }
                };
                for i in 0..k {
                    for j in (i + 1)..k {
                        let (vi, ci) = resolve(&net.pins[i]);
                        let (vj, cj) = resolve(&net.pins[j]);
                        match (vi, vj) {
                            (Some(p), Some(q)) => {
                                if p != q {
                                    a.add(p, p, w);
                                    a.add(q, q, w);
                                    a.add(p, q, -w);
                                    a.add(q, p, -w);
                                    b[p] += w * (cj - ci);
                                    b[q] += w * (ci - cj);
                                }
                            }
                            (Some(p), None) => {
                                a.add(p, p, w);
                                b[p] += w * (cj - ci);
                            }
                            (None, Some(q)) => {
                                a.add(q, q, w);
                                b[q] += w * (ci - cj);
                            }
                            (None, None) => {}
                        }
                    }
                }
            }
            let warm: Vec<f64> = vars
                .iter()
                .map(|&id| {
                    let c = centers[id.index()];
                    if axis == 0 {
                        c.x
                    } else {
                        c.y
                    }
                })
                .collect();
            let sol = cg::solve(&a.into_csr(), &b, &warm, self.cg_tol, self.cg_max_iters);
            // Clamp each macro inside its group's grid cell ("the boundaries
            // of macros are limited inside their own grids").
            for (v, &id) in vars.iter().enumerate() {
                let m = design.macro_(id);
                let cell = coarse
                    .group_of_macro(id)
                    .map(|g| grid.cell_at(assignment[g]))
                    .unwrap_or(*design.region());
                let (lo, hi, half) = if axis == 0 {
                    (cell.x, cell.right(), m.width / 2.0)
                } else {
                    (cell.y, cell.top(), m.height / 2.0)
                };
                let val = if hi - lo <= 2.0 * half {
                    (lo + hi) / 2.0
                } else {
                    sol.x[v].clamp(lo + half, hi - half)
                };
                let c = &mut centers[id.index()];
                if axis == 0 {
                    c.x = val;
                } else {
                    c.y = val;
                }
            }
        }
        centers
    }

    /// Legalizes macros toward arbitrary target centers (no grid
    /// assignment): one global sequence-pair pass with preplaced macros
    /// pinned. Used by the analytical baselines, which produce overlapped
    /// macro positions directly.
    ///
    /// `targets` holds a desired center for every **movable** macro, in
    /// [`Design::movable_macros`] order. Returns the legalized placement
    /// plus the `(out_of_region, overlap_area)` diagnostics of the global
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics when `targets.len()` differs from the movable macro count.
    pub fn legalize_targets(&self, design: &Design, targets: &[Point]) -> (Placement, bool, f64) {
        let movable = design.movable_macros();
        assert_eq!(
            targets.len(),
            movable.len(),
            "one target per movable macro required"
        );
        let mut centers: Vec<Point> = design
            .macros()
            .iter()
            .map(|m| m.fixed_center.unwrap_or_else(|| design.region().center()))
            .collect();
        for (k, &id) in movable.iter().enumerate() {
            centers[id.index()] = targets[k];
        }
        let (out_of_region, overlap, _fallback) = self.global_pass(design, &mut centers, None);
        let mut placement = Placement::initial(design);
        for (i, m) in design.macros().iter().enumerate() {
            if !m.is_preplaced() {
                placement.set_macro_center(MacroId::from_index(i), centers[i]);
            }
        }
        (placement, out_of_region, overlap)
    }

    /// Step 3a: sequence-pair overlap removal inside each grid cell.
    ///
    /// Each cell independently falls back to the row-greedy packer when the
    /// sequence-pair path is disabled ([`MacroLegalizer::force_sp_failure`]),
    /// the deadline has expired, or the LP produces a non-finite
    /// coordinate. Returns the number of cells that used the fallback.
    fn legalize_per_grid(
        &self,
        design: &Design,
        coarse: &CoarsenedNetlist,
        assignment: &[GridIndex],
        grid: &Grid,
        macro_centers: &mut [Point],
        deadline: Option<Instant>,
    ) -> usize {
        use std::collections::BTreeMap;
        let mut per_cell: BTreeMap<GridIndex, Vec<MacroId>> = BTreeMap::new();
        for id in design.movable_macros() {
            if let Some(g) = coarse.group_of_macro(id) {
                per_cell.entry(assignment[g]).or_default().push(id);
            }
        }
        let mut cells: Vec<_> = per_cell.into_iter().collect();
        cells.sort_by_key(|(idx, _)| (idx.row, idx.col));
        let mut fallback_cells = 0;
        for (idx, members) in cells {
            if members.len() < 2 {
                continue;
            }
            let bounds = grid.cell_at(idx);
            let sp_result = if self.force_sp_failure || expired(deadline) {
                None
            } else {
                self.per_grid_sp(design, &members, &bounds, macro_centers)
            };
            match sp_result {
                Some(centers) => {
                    for (k, &m) in members.iter().enumerate() {
                        macro_centers[m.index()] = centers[k];
                    }
                }
                None => {
                    let items: Vec<ShelfItem> = members
                        .iter()
                        .enumerate()
                        .map(|(k, &m)| {
                            let mac = design.macro_(m);
                            ShelfItem {
                                id: k,
                                width: mac.width,
                                height: mac.height,
                            }
                        })
                        .collect();
                    let packed = shelf_pack(&bounds, &items, &[]);
                    for p in packed.placements {
                        macro_centers[members[p.id].index()] = p.center;
                    }
                    fallback_cells += 1;
                }
            }
        }
        fallback_cells
    }

    /// The healthy per-cell overlap-removal path: sequence pair + median
    /// descent on both axes. Computes into a scratch copy and returns
    /// `None` (leaving `macro_centers` untouched) when any resulting
    /// coordinate is non-finite, so the caller can fall back.
    fn per_grid_sp(
        &self,
        design: &Design,
        members: &[MacroId],
        bounds: &Rect,
        macro_centers: &[Point],
    ) -> Option<Vec<Point>> {
        let mut centers: Vec<Point> = members.iter().map(|&m| macro_centers[m.index()]).collect();
        if any_non_finite(&centers) {
            return None;
        }
        let widths: Vec<f64> = members.iter().map(|&m| design.macro_(m).width).collect();
        let heights: Vec<f64> = members.iter().map(|&m| design.macro_(m).height).collect();
        let sp = SequencePair::from_points(&centers);
        for (horizontal, sizes, lo, hi) in [
            (true, &widths, bounds.x, bounds.right()),
            (false, &heights, bounds.y, bounds.top()),
        ] {
            let graph = ConstraintGraph::from_sequence_pair(&sp, horizontal);
            let targets: Vec<Vec<AxisTarget>> = centers
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    vec![AxisTarget {
                        coord: (if horizontal { c.x } else { c.y }) - sizes[k] / 2.0,
                        weight: 1.0,
                    }]
                })
                .collect();
            let coords = optimize_axis(&graph, sizes, lo, hi, &targets, self.lp_iters);
            if coords.iter().any(|c| !c.is_finite()) {
                return None;
            }
            for (k, c) in centers.iter_mut().enumerate() {
                if horizontal {
                    c.x = coords[k] + sizes[k] / 2.0;
                } else {
                    c.y = coords[k] + sizes[k] / 2.0;
                }
            }
        }
        Some(centers)
    }

    /// Step 3b: global sequence-pair passes over *all* macros; preplaced
    /// macros are pinned by heavy targets and snapped back after each pass.
    /// Snapping can reintroduce an overlap against a stuck movable macro,
    /// so the pass iterates: descend → snap → push movables out of fixed
    /// outlines → re-derive the sequence pair, until clean (≤ 4 rounds).
    /// Returns `(out_of_region, overlap_area, used_fallback)`.
    fn global_pass(
        &self,
        design: &Design,
        macro_centers: &mut [Point],
        deadline: Option<Instant>,
    ) -> (bool, f64, bool) {
        let n = design.macros().len();
        if n == 0 {
            return (false, 0.0, false);
        }
        // Degraded path: poisoned input coordinates, an injected
        // sequence-pair failure, or an already-expired deadline all route
        // straight to the row-greedy packer.
        if self.force_sp_failure || expired(deadline) || any_non_finite(macro_centers) {
            let (oor, overlap) = self.global_shelf_fallback(design, macro_centers);
            return (oor, overlap, true);
        }
        let region = design.region();
        let widths: Vec<f64> = design.macros().iter().map(|m| m.width).collect();
        let heights: Vec<f64> = design.macros().iter().map(|m| m.height).collect();
        let mut out_of_region = false;

        let total_overlap = |centers: &[Point]| -> f64 {
            let rects: Vec<Rect> = (0..n)
                .map(|i| Rect::centered_at(centers[i], widths[i], heights[i]))
                .collect();
            let mut overlap = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    overlap += rects[i].overlap_area(&rects[j]);
                }
            }
            overlap
        };

        // Push macros out of the outlines they still intersect (minimum
        // single-axis displacement), preferring to move the movable (vs
        // fixed) or smaller (vs larger) of the pair. Also disperses
        // pathological all-on-one-point target sets whose position-derived
        // sequence pair would form an unpackable 1-D chain.
        // A push can cascade (clearing one outline lands on a neighbour
        // whose own pair check already ran), so sweep until a sweep moves
        // nothing, with a small cap against oscillation.
        let repair = |macro_centers: &mut [Point]| {
            for _sweep in 0..4_usize {
                let mut moved_any = false;
                for i in 0..n {
                    if design.macro_(MacroId::from_index(i)).is_preplaced() {
                        continue;
                    }
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let mj = design.macro_(MacroId::from_index(j));
                        // Push `i` away from fixed macros, and away from larger
                        // (or equal-size, lower-index) movable macros.
                        let i_yields = mj.is_preplaced()
                            || mj.area() > design.macro_(MacroId::from_index(i)).area()
                            || (mj.area() == design.macro_(MacroId::from_index(i)).area() && j < i);
                        if !i_yields {
                            continue;
                        }
                        let ri = Rect::centered_at(macro_centers[i], widths[i], heights[i]);
                        let rj = Rect::centered_at(macro_centers[j], widths[j], heights[j]);
                        // Float slivers from edge-sharing neighbours are not
                        // real overlaps; pushing for them ping-pongs a macro
                        // between abutting blocks.
                        if ri.overlap_area(&rj) < 1e-9 {
                            continue;
                        }
                        // Candidate pushes: clear to the left/right/bottom/top.
                        // Only pushes that keep the macro inside the region are
                        // viable — a clamped push would slide it right back —
                        // and pushes that land clear of every *fixed* outline
                        // are preferred (a macro squeezed between two abutting
                        // preplaced blocks must jump past both, not oscillate).
                        let pushes = [
                            Point::new(rj.x - ri.right(), 0.0),
                            Point::new(rj.right() - ri.x, 0.0),
                            Point::new(0.0, rj.y - ri.top()),
                            Point::new(0.0, rj.top() - ri.y),
                        ];
                        let fixed_rects: Vec<Rect> = (0..n)
                            .filter(|&k| {
                                k != i && design.macro_(MacroId::from_index(k)).is_preplaced()
                            })
                            .map(|k| Rect::centered_at(macro_centers[k], widths[k], heights[k]))
                            .collect();
                        let in_region = |p: &Point| region.contains_rect(&ri.translated(p.x, p.y));
                        let clear_of_fixed = |p: &Point| {
                            let moved = ri.translated(p.x, p.y);
                            fixed_rects.iter().all(|f| moved.overlap_area(f) < 1e-9)
                        };
                        // NaN-sane magnitude: a non-finite push sorts last
                        // and can never be chosen over a real one.
                        let magnitude = |p: &&Point| -> f64 {
                            let m = p.x.abs() + p.y.abs();
                            if m.is_nan() {
                                f64::INFINITY
                            } else {
                                m
                            }
                        };
                        let best = pushes
                            .iter()
                            .filter(|p| in_region(p) && clear_of_fixed(p))
                            .min_by(|a, b| magnitude(a).total_cmp(&magnitude(b)))
                            .or_else(|| {
                                pushes
                                    .iter()
                                    .filter(|p| in_region(p))
                                    .min_by(|a, b| magnitude(a).total_cmp(&magnitude(b)))
                            });
                        let moved = match best {
                            Some(p) => ri.translated(p.x, p.y),
                            // Fully boxed in: smallest push, clamped (genuinely
                            // infeasible designs stay overlapped, reported).
                            None => {
                                // why: invariant, not input: `pushes` is a fixed
                                // 4-element array, so min_by always finds one.
                                #[allow(clippy::expect_used)]
                                let p = pushes
                                    .iter()
                                    .min_by(|a, b| magnitude(a).total_cmp(&magnitude(b)))
                                    .expect("4 candidates");
                                ri.translated(p.x, p.y).clamped_inside(region)
                            }
                        };
                        macro_centers[i] = moved.center();
                        moved_any = true;
                    }
                }
                if !moved_any {
                    break;
                }
            }
        };

        let mut overlap = f64::INFINITY;
        let mut round_oor;
        for _round in 0..8_usize {
            // Between rounds: an expired deadline or poisoned coordinates
            // abandon the descent for the guaranteed-terminating packer.
            if expired(deadline) || any_non_finite(macro_centers) {
                let (oor, ov) = self.global_shelf_fallback(design, macro_centers);
                return (oor, ov, true);
            }
            round_oor = false;
            // Coincident centers would sort into a 1-D chain (all LeftOf),
            // which cannot fit the region; a deterministic golden-angle
            // spiral jitter — used for relation derivation only — keeps the
            // packing two-dimensional.
            let eps = (region.width + region.height) * 1e-6;
            let jittered: Vec<Point> = macro_centers
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let angle = 2.399963 * i as f64;
                    let r = eps * ((i + 1) as f64).sqrt();
                    Point::new(c.x + r * angle.cos(), c.y + r * angle.sin())
                })
                .collect();
            let sp = SequencePair::from_points(&jittered);
            for (horizontal, sizes, lo, hi) in [
                (true, &widths, region.x, region.right()),
                (false, &heights, region.y, region.top()),
            ] {
                let graph = ConstraintGraph::from_sequence_pair(&sp, horizontal);
                let targets: Vec<Vec<AxisTarget>> = (0..n)
                    .map(|i| {
                        let m = design.macro_(MacroId::from_index(i));
                        let (c, w) = match m.fixed_center {
                            Some(f) => (f, self.fixed_weight),
                            None => (macro_centers[i], 1.0),
                        };
                        vec![AxisTarget {
                            coord: (if horizontal { c.x } else { c.y }) - sizes[i] / 2.0,
                            weight: w,
                        }]
                    })
                    .collect();
                let coords = optimize_axis(&graph, sizes, lo, hi, &targets, self.lp_iters);
                if axis_overflow(&coords, sizes, lo, hi) > 1e-9 {
                    round_oor = true;
                }
                for i in 0..n {
                    if horizontal {
                        macro_centers[i].x = coords[i] + sizes[i] / 2.0;
                    } else {
                        macro_centers[i].y = coords[i] + sizes[i] / 2.0;
                    }
                }
            }
            // Snap preplaced macros exactly back.
            for (i, m) in design.macros().iter().enumerate() {
                if let Some(f) = m.fixed_center {
                    macro_centers[i] = f;
                }
            }
            // Clamp any spilled movable macro back inside; the clamp may
            // introduce overlap, which the repair below then disperses for
            // the next round.
            if round_oor {
                for i in 0..n {
                    if design.macro_(MacroId::from_index(i)).is_preplaced() {
                        continue;
                    }
                    let r = Rect::centered_at(macro_centers[i], widths[i], heights[i])
                        .clamped_inside(region);
                    macro_centers[i] = r.center();
                }
            }
            overlap = total_overlap(macro_centers);
            // One branch when observability is off — never an env-var read
            // or any formatting in this per-round path.
            if self.obs.enabled() {
                self.obs.count("legal.global_rounds", 1);
                if self.obs.tracing() {
                    self.obs.event(
                        "legal.global_pass",
                        "round",
                        &[
                            field("round", _round),
                            field("overlap", overlap),
                            field("oor", round_oor),
                        ],
                    );
                }
            }
            if overlap < 1e-9 {
                // Clean: every macro is inside the region (spills were
                // clamped above) and disjoint.
                out_of_region = false;
                break;
            }
            out_of_region = round_oor;
            // Repair, then re-measure: snapping a pinned macro back onto a
            // flush movable is exactly the case a single push resolves, and
            // without the re-measure a round whose repair fully cleans the
            // placement would never be credited.
            repair(macro_centers);
            overlap = total_overlap(macro_centers);
            if self.obs.tracing() {
                self.obs.event(
                    "legal.global_pass",
                    "post_repair",
                    &[field("round", _round), field("overlap", overlap)],
                );
            }
            if overlap < 1e-9 {
                // Pushes keep macros inside the region (or clamp them), so a
                // clean post-repair placement is fully legal.
                out_of_region = false;
                break;
            }
        }
        // Guaranteed-termination fallback: when the repair rounds leave
        // residual overlap (oscillation on pathological inputs), take the
        // raw longest-path packing of the current relations — overlap-free
        // by construction — then snap preplaced macros back one last time.
        if overlap > 1e-9 && (expired(deadline) || any_non_finite(macro_centers)) {
            let (oor, ov) = self.global_shelf_fallback(design, macro_centers);
            return (oor, ov, true);
        }
        if overlap > 1e-9 {
            let eps = (region.width + region.height) * 1e-6;
            let jittered: Vec<Point> = macro_centers
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let angle = 2.399963 * i as f64;
                    let r = eps * ((i + 1) as f64).sqrt();
                    Point::new(c.x + r * angle.cos(), c.y + r * angle.sin())
                })
                .collect();
            let sp = SequencePair::from_points(&jittered);
            for (horizontal, sizes, lo, hi) in [
                (true, &widths, region.x, region.right()),
                (false, &heights, region.y, region.top()),
            ] {
                let graph = ConstraintGraph::from_sequence_pair(&sp, horizontal);
                // Median descent with an unbounded upper limit: starting
                // from the (feasible) longest-path packing, windows never
                // invert, so the result stays overlap-free while being
                // pulled toward the pre-fallback positions.
                let targets: Vec<Vec<AxisTarget>> = (0..n)
                    .map(|i| {
                        let m = design.macro_(MacroId::from_index(i));
                        let (c, w) = match m.fixed_center {
                            Some(f) => (f, self.fixed_weight),
                            None => (macro_centers[i], 1.0),
                        };
                        vec![AxisTarget {
                            coord: (if horizontal { c.x } else { c.y }) - sizes[i] / 2.0,
                            weight: w,
                        }]
                    })
                    .collect();
                let coords =
                    optimize_axis(&graph, sizes, lo, f64::INFINITY, &targets, self.lp_iters);
                if axis_overflow(&coords, sizes, lo, hi) > 1e-9 {
                    out_of_region = true;
                }
                for i in 0..n {
                    if horizontal {
                        macro_centers[i].x = coords[i] + sizes[i] / 2.0;
                    } else {
                        macro_centers[i].y = coords[i] + sizes[i] / 2.0;
                    }
                }
            }
            for (i, m) in design.macros().iter().enumerate() {
                if let Some(f) = m.fixed_center {
                    macro_centers[i] = f;
                }
            }
            overlap = total_overlap(macro_centers);
            // The snap-back can reintroduce a fixed-macro overlap here too;
            // one repair pass usually clears it, and is kept only if it
            // actually helps.
            if overlap > 1e-9 {
                let before = macro_centers.to_vec();
                repair(macro_centers);
                let repaired = total_overlap(macro_centers);
                if repaired < overlap {
                    overlap = repaired;
                } else {
                    macro_centers.copy_from_slice(&before);
                }
            }
        }
        // The unbounded packing above trades region containment for
        // guaranteed overlap removal, so the result may stick out of the
        // region (or still overlap). First try the cheap rescue: clamp
        // every movable macro back inside and disperse whatever overlap
        // the clamp introduced — repair pushes stay in-region, so a clean
        // post-repair placement is fully legal and costs no degradation.
        if overlap > 1e-9 || out_of_region {
            for i in 0..n {
                if design.macro_(MacroId::from_index(i)).is_preplaced() {
                    continue;
                }
                let r = Rect::centered_at(macro_centers[i], widths[i], heights[i])
                    .clamped_inside(region);
                macro_centers[i] = r.center();
            }
            repair(macro_centers);
            overlap = total_overlap(macro_centers);
            out_of_region = false;
        }
        // Still overlapped: hand the placement to the shelf packer, which
        // is disjoint *and* in-region whenever the macros fit at all.
        if overlap > 1e-9 {
            let (oor, ov) = self.global_shelf_fallback(design, macro_centers);
            return (oor, ov, true);
        }
        (out_of_region, overlap, false)
    }

    /// The last-resort overlap removal: deterministic row-greedy shelves
    /// over the whole region with preplaced macros as obstacles. Always
    /// terminates, never produces non-finite coordinates, and is
    /// overlap-free whenever the shelves fit the region.
    fn global_shelf_fallback(&self, design: &Design, macro_centers: &mut [Point]) -> (bool, f64) {
        let region = design.region();
        let obstacles: Vec<Rect> = design
            .macros()
            .iter()
            .filter_map(|m| {
                m.fixed_center
                    .map(|c| Rect::centered_at(c, m.width, m.height))
            })
            .collect();
        let items: Vec<ShelfItem> = design
            .movable_macros()
            .iter()
            .map(|&id| {
                let m = design.macro_(id);
                ShelfItem {
                    id: id.index(),
                    width: m.width,
                    height: m.height,
                }
            })
            .collect();
        let packed = shelf_pack(region, &items, &obstacles);
        for p in packed.placements {
            macro_centers[p.id] = p.center;
        }
        for (i, m) in design.macros().iter().enumerate() {
            if let Some(f) = m.fixed_center {
                macro_centers[i] = f;
            }
        }
        let n = design.macros().len();
        let rects: Vec<Rect> = design
            .macros()
            .iter()
            .enumerate()
            .map(|(i, m)| Rect::centered_at(macro_centers[i], m.width, m.height))
            .collect();
        let mut overlap = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                overlap += rects[i].overlap_area(&rects[j]);
            }
        }
        (packed.out_of_bounds, overlap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_cluster::{ClusterParams, Coarsener};
    use mmp_netlist::SyntheticSpec;

    fn setup(
        macros: usize,
        preplaced: usize,
        cells: usize,
        seed: u64,
    ) -> (Design, CoarsenedNetlist, Grid) {
        let d = SyntheticSpec::small("lg", macros, preplaced, 8, cells, cells * 2, true, seed)
            .generate();
        let grid = Grid::new(*d.region(), 8);
        let pl = Placement::initial(&d);
        let coarse = Coarsener::new(&ClusterParams::paper(grid.cell_area())).coarsen(&d, &pl);
        (d, coarse, grid)
    }

    fn spread_assignment(coarse: &CoarsenedNetlist, grid: &Grid) -> Vec<GridIndex> {
        // Deterministic scatter over the grid.
        (0..coarse.macro_groups().len())
            .map(|g| grid.unflatten((g * 7 + 3) % grid.cell_count()))
            .collect()
    }

    #[test]
    fn assignment_mismatch_is_an_error() {
        let (d, coarse, grid) = setup(6, 0, 60, 1);
        let err = MacroLegalizer::new()
            .legalize(&d, &coarse, &[], &grid)
            .unwrap_err();
        assert!(matches!(err, LegalizeError::AssignmentMismatch { .. }));
        assert!(err.to_string().contains("macro groups"));
    }

    #[test]
    fn out_of_grid_assignment_is_an_error() {
        let (d, coarse, grid) = setup(6, 0, 60, 1);
        let mut assignment = vec![GridIndex::new(0, 0); coarse.macro_groups().len()];
        assignment[0] = GridIndex::new(grid.zeta(), 0);
        let err = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap_err();
        assert!(matches!(err, LegalizeError::AssignmentOutOfGrid { .. }));
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn legalized_macros_do_not_overlap() {
        let (d, coarse, grid) = setup(10, 0, 80, 2);
        let assignment = spread_assignment(&coarse, &grid);
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        assert!(
            out.overlap_area < 1e-6,
            "remaining overlap {}",
            out.overlap_area
        );
        assert!(out.placement.macro_overlap_area(&d) < 1e-6);
    }

    #[test]
    fn preplaced_macros_never_move() {
        let (d, coarse, grid) = setup(8, 3, 60, 3);
        let assignment = spread_assignment(&coarse, &grid);
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        for id in d.preplaced_macros() {
            assert_eq!(
                out.placement.macro_center(id),
                d.macro_(id).fixed_center.unwrap()
            );
        }
    }

    #[test]
    fn macros_stay_inside_region_in_feasible_instances() {
        let (d, coarse, grid) = setup(8, 0, 60, 4);
        let assignment = spread_assignment(&coarse, &grid);
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        assert!(!out.out_of_region);
        assert!(out.placement.macros_inside_region(&d));
    }

    #[test]
    fn cells_sit_at_their_group_centers() {
        let (d, coarse, grid) = setup(6, 0, 50, 5);
        let assignment = spread_assignment(&coarse, &grid);
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        for (gi, g) in coarse.cell_groups().iter().enumerate() {
            for &c in &g.members {
                assert_eq!(out.placement.cell_center(c), out.cell_group_centers[gi]);
            }
        }
    }

    #[test]
    fn legalization_is_deterministic() {
        let (d, coarse, grid) = setup(9, 2, 70, 6);
        let assignment = spread_assignment(&coarse, &grid);
        let a = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        let b = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_groups_in_one_cell_still_legalizes() {
        // Stress: everything assigned to a single grid cell must still come
        // out overlap-free (possibly spilling outside the cell, never
        // overlapping).
        let (d, coarse, grid) = setup(8, 0, 50, 7);
        let assignment = vec![GridIndex::new(4, 4); coarse.macro_groups().len()];
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        assert!(
            out.placement.macro_overlap_area(&d) < 1e-6,
            "overlap {}",
            out.placement.macro_overlap_area(&d)
        );
    }

    #[test]
    fn zero_macro_design_legalizes_trivially() {
        let (d, coarse, grid) = setup(0, 0, 40, 8);
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &[], &grid)
            .unwrap();
        assert_eq!(out.overlap_area, 0.0);
        assert!(!out.out_of_region);
    }

    #[test]
    fn healthy_path_reports_no_degradation() {
        let (d, coarse, grid) = setup(8, 0, 60, 4);
        let assignment = spread_assignment(&coarse, &grid);
        let out = MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        assert_eq!(out.fallback_grid_cells, 0);
        assert!(!out.global_fallback);
        assert!(!out.deadline_expired);
    }

    #[test]
    fn forced_sp_failure_falls_back_and_still_legalizes() {
        let (d, coarse, grid) = setup(10, 0, 80, 2);
        let assignment = spread_assignment(&coarse, &grid);
        let leg = MacroLegalizer {
            force_sp_failure: true,
            ..MacroLegalizer::default()
        };
        let out = leg.legalize(&d, &coarse, &assignment, &grid).unwrap();
        assert!(out.global_fallback, "fault must route to the fallback");
        assert!(
            out.placement.macro_overlap_area(&d) < 1e-6,
            "fallback packing must stay overlap-free, got {}",
            out.placement.macro_overlap_area(&d)
        );
        for &id in &d.movable_macros() {
            let c = out.placement.macro_center(id);
            assert!(c.x.is_finite() && c.y.is_finite());
        }
    }

    #[test]
    fn forced_sp_failure_respects_preplaced_macros() {
        let (d, coarse, grid) = setup(8, 3, 60, 3);
        let assignment = spread_assignment(&coarse, &grid);
        let leg = MacroLegalizer {
            force_sp_failure: true,
            ..MacroLegalizer::default()
        };
        let out = leg.legalize(&d, &coarse, &assignment, &grid).unwrap();
        for id in d.preplaced_macros() {
            assert_eq!(
                out.placement.macro_center(id),
                d.macro_(id).fixed_center.unwrap()
            );
        }
        assert!(
            out.placement.macro_overlap_area(&d) < 1e-6,
            "fallback shelves avoid preplaced outlines, got overlap {}",
            out.placement.macro_overlap_area(&d)
        );
    }

    #[test]
    fn expired_deadline_degrades_but_completes() {
        let (d, coarse, grid) = setup(10, 0, 80, 2);
        let assignment = spread_assignment(&coarse, &grid);
        // mmp-lint: allow(wallclock) why: test constructs an already-expired deadline on purpose
        let past = std::time::Instant::now() - std::time::Duration::from_millis(10);
        let out = MacroLegalizer::new()
            .legalize_with_deadline(&d, &coarse, &assignment, &grid, Some(past))
            .unwrap();
        assert!(out.deadline_expired);
        assert!(out.global_fallback);
        assert!(out.placement.macro_overlap_area(&d) < 1e-6);
    }

    #[test]
    fn fallback_legalization_is_deterministic() {
        let (d, coarse, grid) = setup(9, 2, 70, 6);
        let assignment = spread_assignment(&coarse, &grid);
        let leg = MacroLegalizer {
            force_sp_failure: true,
            ..MacroLegalizer::default()
        };
        let a = leg.legalize(&d, &coarse, &assignment, &grid).unwrap();
        let b = leg.legalize(&d, &coarse, &assignment, &grid).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn no_deadline_matches_plain_legalize() {
        let (d, coarse, grid) = setup(8, 0, 60, 4);
        let assignment = spread_assignment(&coarse, &grid);
        let leg = MacroLegalizer::new();
        let a = leg.legalize(&d, &coarse, &assignment, &grid).unwrap();
        let b = leg
            .legalize_with_deadline(&d, &coarse, &assignment, &grid, None)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn better_assignments_give_shorter_coarse_wirelength() {
        // Sanity: assigning groups to their QP-preferred corners vs all in
        // one far corner should differ in HPWL after legalization.
        let (d, coarse, grid) = setup(8, 0, 60, 9);
        let spread = spread_assignment(&coarse, &grid);
        let corner = vec![GridIndex::new(7, 7); coarse.macro_groups().len()];
        let leg = MacroLegalizer::new();
        let a = leg.legalize(&d, &coarse, &spread, &grid).unwrap();
        let b = leg.legalize(&d, &coarse, &corner, &grid).unwrap();
        assert_ne!(
            a.placement.hpwl(&d),
            b.placement.hpwl(&d),
            "different assignments must score differently"
        );
    }
}
