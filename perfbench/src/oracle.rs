//! Independent placement oracle.
//!
//! Every check here is written from the raw design and placement data
//! (outlines, centers, pin offsets) and shares no code with `mmp-legal`,
//! `Placement::hpwl`/`macro_overlap_area`/`macros_inside_region` or the
//! incremental HPWL evaluators, so a bug in those cannot hide itself.
//!
//! Checks: finite coordinates, every macro and cell outline inside the
//! region, preplaced macros at their fixed centers (bitwise), no pairwise
//! macro overlap (sweep line over x), and HPWL recomputed by a compensated
//! loop within [`HPWL_REL_TOL`] of the value the placer reported.

use mmp_netlist::{CellId, Design, MacroId, NodeRef, Orientation, Placement};

/// Largest accepted relative gap between recomputed and reported HPWL.
pub const HPWL_REL_TOL: f64 = 1e-9;

/// Geometric slack in µm for containment and overlap: abutting outlines
/// computed through different float paths may cross by rounding error.
pub const GEOM_TOL: f64 = 1e-6;

/// An axis-aligned outline given by its center and size.
#[derive(Debug, Clone, Copy)]
struct Outline {
    cx: f64,
    cy: f64,
    w: f64,
    h: f64,
}

impl Outline {
    fn left(&self) -> f64 {
        self.cx - 0.5 * self.w
    }
    fn right(&self) -> f64 {
        self.cx + 0.5 * self.w
    }
    fn bottom(&self) -> f64 {
        self.cy - 0.5 * self.h
    }
    fn top(&self) -> f64 {
        self.cy + 0.5 * self.h
    }
}

/// Checks the macro part of a placement given as one center per macro (in
/// design order). Returns every violation found (empty when legal).
pub fn check_macros(design: &Design, centers: &[(f64, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    if centers.len() != design.macros().len() {
        bad.push(format!(
            "placement has {} macro centers for {} macros",
            centers.len(),
            design.macros().len()
        ));
        return bad;
    }
    let r = design.region();
    let (rx0, ry0, rx1, ry1) = (r.x, r.y, r.x + r.width, r.y + r.height);
    let mut outlines = Vec::with_capacity(centers.len());
    for (m, &(cx, cy)) in design.macros().iter().zip(centers) {
        if !cx.is_finite() || !cy.is_finite() {
            bad.push(format!("macro {} has a non-finite center", m.name));
            continue;
        }
        let o = Outline {
            cx,
            cy,
            w: m.width,
            h: m.height,
        };
        if o.left() < rx0 - GEOM_TOL
            || o.bottom() < ry0 - GEOM_TOL
            || o.right() > rx1 + GEOM_TOL
            || o.top() > ry1 + GEOM_TOL
        {
            bad.push(format!("macro {} lies outside the region", m.name));
        }
        if let Some(fixed) = m.fixed_center {
            if fixed.x.to_bits() != cx.to_bits() || fixed.y.to_bits() != cy.to_bits() {
                bad.push(format!(
                    "preplaced macro {} moved from ({}, {}) to ({cx}, {cy})",
                    m.name, fixed.x, fixed.y
                ));
            }
        }
        outlines.push((o, m.name.as_str()));
    }
    // Sweep line over x: outlines sorted by left edge; the active set holds
    // every earlier outline whose right edge still reaches past the current
    // left edge, and only those can overlap it.
    outlines.sort_by(|a, b| a.0.left().total_cmp(&b.0.left()));
    let mut active: Vec<(Outline, &str)> = Vec::new();
    for &(o, name) in &outlines {
        active.retain(|(a, _)| a.right() > o.left() + GEOM_TOL);
        for &(a, other) in &active {
            let dx = a.right().min(o.right()) - a.left().max(o.left());
            let dy = a.top().min(o.top()) - a.bottom().max(o.bottom());
            if dx > GEOM_TOL && dy > GEOM_TOL {
                bad.push(format!(
                    "macros {other} and {name} overlap by {dx:.6} x {dy:.6}"
                ));
            }
        }
        active.push((o, name));
    }
    bad
}

/// Checks a full mixed-size placement and the HPWL the placer reported for
/// it. Returns the recomputed HPWL, or every violation found.
///
/// # Errors
///
/// The list of violations when any check fails.
pub fn check(
    design: &Design,
    placement: &Placement,
    reported_hpwl: f64,
) -> Result<f64, Vec<String>> {
    let centers: Vec<(f64, f64)> = (0..placement.macro_count())
        .map(|i| {
            let c = placement.macro_center(MacroId::from_index(i));
            (c.x, c.y)
        })
        .collect();
    let mut bad = check_macros(design, &centers);
    if placement.cell_count() != design.cells().len() {
        bad.push(format!(
            "placement has {} cell centers for {} cells",
            placement.cell_count(),
            design.cells().len()
        ));
        return Err(bad);
    }
    let r = design.region();
    for (i, cell) in design.cells().iter().enumerate() {
        let c = placement.cell_center(CellId::from_index(i));
        let o = Outline {
            cx: c.x,
            cy: c.y,
            w: cell.width,
            h: cell.height,
        };
        if !c.x.is_finite() || !c.y.is_finite() {
            bad.push(format!("cell {} has a non-finite center", cell.name));
        } else if o.left() < r.x - GEOM_TOL
            || o.bottom() < r.y - GEOM_TOL
            || o.right() > r.x + r.width + GEOM_TOL
            || o.top() > r.y + r.height + GEOM_TOL
        {
            bad.push(format!("cell {} lies outside the region", cell.name));
        }
    }
    let hpwl = recompute_hpwl(design, placement);
    let gap = (hpwl - reported_hpwl).abs();
    // A NaN gap (non-finite report) fails too.
    if gap.is_nan() || gap > HPWL_REL_TOL * reported_hpwl.abs() {
        bad.push(format!(
            "reported HPWL {reported_hpwl} differs from recomputed {hpwl}"
        ));
    }
    if bad.is_empty() {
        Ok(hpwl)
    } else {
        Err(bad)
    }
}

/// Unweighted HPWL: per net the half perimeter of its pins' bounding box,
/// summed with Neumaier compensation.
fn recompute_hpwl(design: &Design, placement: &Placement) -> f64 {
    let mut sum = 0.0f64;
    let mut carry = 0.0f64;
    for net in design.nets() {
        let (mut x0, mut y0) = (f64::INFINITY, f64::INFINITY);
        let (mut x1, mut y1) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for pin in &net.pins {
            let (px, py) = match pin.node {
                NodeRef::Macro(id) => {
                    let c = placement.macro_center(id);
                    let (ox, oy) = (pin.offset.x, pin.offset.y);
                    let (ox, oy) = match placement.macro_orientation(id) {
                        Orientation::N => (ox, oy),
                        Orientation::S => (-ox, -oy),
                        Orientation::FN => (-ox, oy),
                        Orientation::FS => (ox, -oy),
                    };
                    (c.x + ox, c.y + oy)
                }
                NodeRef::Cell(id) => {
                    let c = placement.cell_center(id);
                    (c.x + pin.offset.x, c.y + pin.offset.y)
                }
                NodeRef::Pad(id) => {
                    let p = design.pad(id).position;
                    (p.x, p.y)
                }
            };
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
        }
        let term = if net.pins.is_empty() {
            0.0
        } else {
            (x1 - x0) + (y1 - y0)
        };
        let t = sum + term;
        carry += if sum.abs() >= term.abs() {
            (sum - t) + term
        } else {
            (term - t) + sum
        };
        sum = t;
    }
    sum + carry
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_core::{MacroPlacer, PlacerConfig, Point, Rect, SyntheticSpec};
    use mmp_netlist::DesignBuilder;

    /// Two 10×10 macros (the second preplaced at (80, 80)), one cell and
    /// one pad in a 100×100 region, all on one net.
    fn design() -> Design {
        let mut b = DesignBuilder::new("o", Rect::new(0.0, 0.0, 100.0, 100.0));
        let m0 = b.add_macro("m0", 10.0, 10.0, "");
        let m1 = b.add_preplaced_macro("m1", 10.0, 10.0, "", Point::new(80.0, 80.0));
        let c = b.add_cell("c0", 1.0, 1.0, "");
        let p = b.add_pad("p0", Point::new(0.0, 50.0));
        b.add_net(
            "n0",
            [
                (m0.into(), Point::new(2.0, 1.0)),
                (m1.into(), Point::ORIGIN),
                (c.into(), Point::ORIGIN),
                (p.into(), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        b.build().unwrap()
    }

    fn placed(m0: Point) -> Placement {
        let d = design();
        let mut pl = Placement::initial(&d);
        pl.set_macro_center(MacroId(0), m0);
        pl.set_cell_center(CellId(0), Point::new(40.0, 40.0));
        pl
    }

    #[test]
    fn legal_placement_passes_and_recomputes_the_placer_hpwl() {
        let d = design();
        let pl = placed(Point::new(20.0, 20.0));
        let hpwl = check(&d, &pl, pl.hpwl(&d)).unwrap();
        // Pins span x 0..80 and y 21..80.
        assert_eq!(hpwl, 80.0 + 59.0);
    }

    #[test]
    fn overlapping_macros_fail() {
        let d = design();
        let pl = placed(Point::new(75.0, 76.0));
        let err = check(&d, &pl, pl.hpwl(&d)).unwrap_err();
        assert!(err.iter().any(|e| e.contains("overlap")), "{err:?}");
    }

    #[test]
    fn out_of_region_macro_fails() {
        let d = design();
        let pl = placed(Point::new(97.0, 20.0));
        let err = check(&d, &pl, pl.hpwl(&d)).unwrap_err();
        assert!(err.iter().any(|e| e.contains("outside")), "{err:?}");
    }

    #[test]
    fn abutting_macros_pass() {
        let d = design();
        let pl = placed(Point::new(70.0, 80.0));
        assert!(check(&d, &pl, pl.hpwl(&d)).is_ok());
    }

    #[test]
    fn moved_preplaced_macro_and_bad_centers_fail() {
        let d = design();
        let err = check_macros(&d, &[(20.0, 20.0), (80.0, 79.0)]);
        assert!(err.iter().any(|e| e.contains("preplaced")), "{err:?}");
        let err = check_macros(&d, &[(f64::NAN, 20.0), (80.0, 80.0)]);
        assert!(err.iter().any(|e| e.contains("non-finite")), "{err:?}");
        assert!(!check_macros(&d, &[(20.0, 20.0)]).is_empty());
    }

    #[test]
    fn misreported_hpwl_fails() {
        let d = design();
        let pl = placed(Point::new(20.0, 20.0));
        let hpwl = pl.hpwl(&d);
        let err = check(&d, &pl, hpwl * (1.0 + 1e-6)).unwrap_err();
        assert!(err.iter().any(|e| e.contains("HPWL")), "{err:?}");
    }

    #[test]
    fn flow_placement_passes() {
        let d = SyntheticSpec::small("flow", 6, 1, 8, 50, 90, true, 1).generate();
        let mut cfg = PlacerConfig::fast(4);
        cfg.trainer.episodes = 4;
        cfg.mcts.explorations = 6;
        let r = MacroPlacer::new(cfg).place(&d).unwrap();
        check(&d, &r.placement, r.hpwl).unwrap();
    }
}
