//! Bound-to-bound (B2B) net model assembly.
//!
//! The B2B model (Spindler et al., used by modern quadratic placers)
//! linearises HPWL: every pin of a net connects to the net's two extreme
//! pins on each axis with weights `2 / ((k−1)·|cᵢ − c_b|)`, re-derived from
//! the positions of the previous iterate. Minimising the resulting quadratic
//! reproduces the HPWL value at the linearisation point.

use crate::sparse::Triplets;
use mmp_geom::Point;
use mmp_netlist::{Design, MacroId, NodeRef, Placement};

/// Placement axis selector (x and y systems are independent, as the paper
/// notes for its LP step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Horizontal.
    X,
    /// Vertical.
    Y,
}

impl Axis {
    /// The coordinate of `p` on this axis.
    #[inline]
    pub fn of(self, p: Point) -> f64 {
        match self {
            Axis::X => p.x,
            Axis::Y => p.y,
        }
    }
}

/// Minimum pin separation used in B2B weights, avoiding division blow-up
/// when pins coincide (e.g. the all-at-center initial placement).
const B2B_EPS: f64 = 1e-3;

/// Where a pin's node sits in the system.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A variable, at this column.
    Var(usize),
    /// A node fixed at this center for the whole run.
    Fixed(Point),
}

/// One pin of a [`PinTable`] net.
#[derive(Debug, Clone, Copy)]
struct TablePin {
    slot: Slot,
    /// Offset from the node center.
    offset: Point,
}

/// A net of at least two pins: its weight and its range of the table's
/// pins.
#[derive(Debug, Clone, Copy)]
struct TableNet {
    weight: f64,
    start: usize,
    end: usize,
}

/// A design's nets flattened for B2B assembly under one column assignment:
/// built once per placement run, then read by every solve.
///
/// The `m` movable macros take columns `0..m` in the order given, and
/// every cell takes column `m` plus its index; all other nodes are fixed.
/// Nets of fewer than two pins add nothing to the system and are dropped.
#[derive(Debug, Clone)]
pub(crate) struct PinTable {
    n_vars: usize,
    macro_col: Vec<Option<usize>>,
    nets: Vec<TableNet>,
    pins: Vec<TablePin>,
}

impl PinTable {
    /// Flattens `design`'s nets with `movable_macros` and every cell as the
    /// variables. Fixed macros sit at their centers in `fixed`, pads at
    /// their positions.
    pub(crate) fn new(design: &Design, movable_macros: &[MacroId], fixed: &Placement) -> Self {
        let mut macro_col = vec![None; design.macros().len()];
        for (col, id) in movable_macros.iter().enumerate() {
            if let Some(slot) = macro_col.get_mut(id.index()) {
                *slot = Some(col);
            }
        }
        let first_cell = movable_macros.len();
        let mut nets = Vec::with_capacity(design.nets().len());
        let mut pins = Vec::new();
        for net in design.nets().iter().filter(|net| net.pins.len() >= 2) {
            let start = pins.len();
            pins.extend(net.pins.iter().map(|pin| TablePin {
                slot: match pin.node {
                    NodeRef::Macro(id) => match macro_col.get(id.index()).copied().flatten() {
                        Some(col) => Slot::Var(col),
                        None => Slot::Fixed(fixed.macro_center(id)),
                    },
                    NodeRef::Cell(id) => Slot::Var(first_cell + id.index()),
                    NodeRef::Pad(id) => Slot::Fixed(design.pad(id).position),
                },
                offset: pin.offset,
            }));
            nets.push(TableNet {
                weight: net.weight,
                start,
                end: pins.len(),
            });
        }
        PinTable {
            n_vars: first_cell + design.cells().len(),
            macro_col,
            nets,
            pins,
        }
    }

    /// The column of macro `id`, or `None` when it is fixed.
    pub(crate) fn macro_column(&self, id: MacroId) -> Option<usize> {
        self.macro_col.get(id.index()).copied().flatten()
    }
}

/// Assembles the quadratic system `A·x = b` for one axis with the B2B net
/// model, linearised at `pos`: the variables' current coordinates on
/// `axis`, one per column of `table`.
///
/// Returns the triplet accumulator (convert with
/// [`Triplets::into_csr`]) and the right-hand side.
pub(crate) fn build_system(table: &PinTable, axis: Axis, pos: &[f64]) -> (Triplets, Vec<f64>) {
    let mut a = Triplets::new(table.n_vars);
    let mut b = vec![0.0; table.n_vars];
    // The current net's pin coordinates on this axis.
    let mut coords = Vec::new();
    for net in &table.nets {
        let pins = &table.pins[net.start..net.end];
        coords.clear();
        coords.extend(pins.iter().map(|pin| {
            let center = match pin.slot {
                Slot::Var(col) => pos[col],
                Slot::Fixed(c) => axis.of(c),
            };
            center + axis.of(pin.offset)
        }));
        let (mut lo, mut hi) = (0usize, 0usize);
        for (i, &c) in coords.iter().enumerate() {
            if c < coords[lo] {
                lo = i;
            }
            if c > coords[hi] {
                hi = i;
            }
        }
        let base = net.weight * 2.0 / (pins.len() as f64 - 1.0);
        for (k, (pin, &ci)) in pins.iter().zip(&coords).enumerate() {
            for b_idx in [lo, hi] {
                // Skip the pin itself, and the (lo, hi) pair's mirror: that
                // pair appears once.
                if k == b_idx || (k == lo && b_idx == hi) {
                    continue;
                }
                let (bound, cb) = (pins[b_idx], coords[b_idx]);
                let w = base / (ci - cb).abs().max(B2B_EPS);
                let (off_i, off_b) = (axis.of(pin.offset), axis.of(bound.offset));
                // A fixed pin's coordinate is its fixed center plus its
                // offset, which is exactly its entry in `coords`.
                match (pin.slot, bound.slot) {
                    (Slot::Var(i), Slot::Var(j)) => {
                        a.add(i, i, w);
                        a.add(j, j, w);
                        a.add(i, j, -w);
                        a.add(j, i, -w);
                        b[i] += w * (off_b - off_i);
                        b[j] += w * (off_i - off_b);
                    }
                    (Slot::Var(i), Slot::Fixed(_)) => {
                        a.add(i, i, w);
                        b[i] += w * (cb - off_i);
                    }
                    (Slot::Fixed(_), Slot::Var(j)) => {
                        a.add(j, j, w);
                        b[j] += w * (ci - off_b);
                    }
                    (Slot::Fixed(_), Slot::Fixed(_)) => {}
                }
            }
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg;
    use mmp_geom::Rect;
    use mmp_netlist::{DesignBuilder, SyntheticSpec};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The closure-based assembly the pin table replaced, kept as the
    /// oracle: `var_of(node)` is a node's column (`None` when fixed) and
    /// `pos_of(node)` its current center.
    fn build_system_oracle(
        design: &Design,
        axis: Axis,
        var_of: &dyn Fn(NodeRef) -> Option<usize>,
        pos_of: &dyn Fn(NodeRef) -> Point,
        n_vars: usize,
    ) -> (Triplets, Vec<f64>) {
        let mut a = Triplets::new(n_vars);
        let mut b = vec![0.0; n_vars];

        let mut add_connection =
            |wi: f64, node_i: NodeRef, off_i: f64, node_j: NodeRef, off_j: f64| {
                let vi = var_of(node_i);
                let vj = var_of(node_j);
                match (vi, vj) {
                    (Some(i), Some(j)) => {
                        a.add(i, i, wi);
                        a.add(j, j, wi);
                        a.add(i, j, -wi);
                        a.add(j, i, -wi);
                        b[i] += wi * (off_j - off_i);
                        b[j] += wi * (off_i - off_j);
                    }
                    (Some(i), None) => {
                        let fixed = axis.of(pos_of(node_j)) + off_j;
                        a.add(i, i, wi);
                        b[i] += wi * (fixed - off_i);
                    }
                    (None, Some(j)) => {
                        let fixed = axis.of(pos_of(node_i)) + off_i;
                        a.add(j, j, wi);
                        b[j] += wi * (fixed - off_j);
                    }
                    (None, None) => {}
                }
            };

        for net in design.nets() {
            let k = net.pins.len();
            if k < 2 {
                continue;
            }
            let coords: Vec<f64> = net
                .pins
                .iter()
                .map(|p| axis.of(pos_of(p.node)) + axis.of(p.offset))
                .collect();
            let (mut lo, mut hi) = (0usize, 0usize);
            for (i, &c) in coords.iter().enumerate() {
                if c < coords[lo] {
                    lo = i;
                }
                if c > coords[hi] {
                    hi = i;
                }
            }
            let base = net.weight * 2.0 / (k as f64 - 1.0);
            for i in 0..k {
                for &b_idx in &[lo, hi] {
                    if i == b_idx {
                        continue;
                    }
                    if i == lo && b_idx == hi {
                        continue;
                    }
                    let sep = (coords[i] - coords[b_idx]).abs().max(B2B_EPS);
                    let w = base / sep;
                    add_connection(
                        w,
                        net.pins[i].node,
                        axis.of(net.pins[i].offset),
                        net.pins[b_idx].node,
                        axis.of(net.pins[b_idx].offset),
                    );
                }
            }
        }
        (a, b)
    }

    /// Assembles `design` both ways for `movable_macros` plus every cell
    /// at `xs`/`ys`, every other node fixed at `fixed`, and asserts the
    /// same triplets (in order) and right-hand side, bit for bit.
    fn assert_table_matches_oracle(
        design: &Design,
        movable_macros: &[MacroId],
        fixed: &Placement,
        xs: &[f64],
        ys: &[f64],
    ) -> Result<(), TestCaseError> {
        let m = movable_macros.len();
        let var_of = |node: NodeRef| match node {
            NodeRef::Macro(id) => movable_macros.iter().position(|&mv| mv == id),
            NodeRef::Cell(id) => Some(m + id.index()),
            NodeRef::Pad(_) => None,
        };
        let pos_of = |node: NodeRef| match var_of(node) {
            Some(v) => Point::new(xs[v], ys[v]),
            None => match node {
                NodeRef::Macro(id) => fixed.macro_center(id),
                NodeRef::Cell(id) => fixed.cell_center(id),
                NodeRef::Pad(id) => design.pad(id).position,
            },
        };
        let table = PinTable::new(design, movable_macros, fixed);
        for (axis, pos) in [(Axis::X, xs), (Axis::Y, ys)] {
            let (want_a, want_b) = build_system_oracle(design, axis, &var_of, &pos_of, xs.len());
            let (got_a, got_b) = build_system(&table, axis, pos);
            let bits = |t: &Triplets| -> Vec<(u32, u32, u64)> {
                t.entries()
                    .iter()
                    .map(|&(r, c, v)| (r, c, v.to_bits()))
                    .collect()
            };
            prop_assert_eq!(bits(&got_a), bits(&want_a), "{:?} triplets", axis);
            let rhs_bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(rhs_bits(&got_b), rhs_bits(&want_b), "{:?} rhs", axis);
        }
        Ok(())
    }

    /// A coordinate in `[lo, lo + span]` on a grid of five points, so that
    /// pins often coincide.
    fn coarse(rng: &mut rand::rngs::SmallRng, lo: f64, span: f64) -> f64 {
        lo + span * f64::from(rng.gen_range(0..5u8)) / 4.0
    }

    /// A small hand-built design with what `SyntheticSpec::small` never
    /// generates: one-pin nets, pads with pin offsets and nodes pinned more
    /// than once in a net, next to preplaced macros on the coarse grid.
    fn builder_design(seed: u64) -> Design {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut bld = DesignBuilder::new("t", Rect::new(0.0, 0.0, 40.0, 40.0));
        let mut nodes = Vec::new();
        for i in 0..rng.gen_range(0..5) {
            nodes.push(NodeRef::Macro(bld.add_macro(format!("m{i}"), 4.0, 2.0, "")));
        }
        for i in 0..rng.gen_range(0..3) {
            let at = Point::new(coarse(&mut rng, 8.0, 24.0), coarse(&mut rng, 8.0, 24.0));
            nodes.push(NodeRef::Macro(bld.add_preplaced_macro(
                format!("p{i}"),
                2.0,
                2.0,
                "",
                at,
            )));
        }
        for i in 0..rng.gen_range(0..8) {
            nodes.push(NodeRef::Cell(bld.add_cell(format!("c{i}"), 1.0, 1.0, "")));
        }
        for i in 0..rng.gen_range(1..4) {
            let at = Point::new(coarse(&mut rng, 0.0, 40.0), coarse(&mut rng, 0.0, 40.0));
            nodes.push(NodeRef::Pad(bld.add_pad(format!("io{i}"), at)));
        }
        for i in 0..rng.gen_range(1..12) {
            let degree = rng.gen_range(1..7);
            let pins: Vec<(NodeRef, Point)> = (0..degree)
                .map(|_| {
                    let node = nodes[rng.gen_range(0..nodes.len())];
                    let offset = if rng.gen_bool(0.5) {
                        Point::ORIGIN
                    } else {
                        Point::new(coarse(&mut rng, -1.0, 2.0), coarse(&mut rng, -1.0, 2.0))
                    };
                    (node, offset)
                })
                .collect();
            let weight = [1.0, 0.5, 3.0][rng.gen_range(0..3usize)];
            bld.add_net(format!("n{i}"), pins, weight).unwrap();
        }
        bld.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On both axes the pin table emits the oracle's triplets in the
        /// oracle's order and its right-hand side, bit for bit: for the
        /// `place_mixed` columns (movable macros, then cells) and the
        /// `place_cells` columns (cells only), on synthetic designs with
        /// preplaced macros and on hand-built ones.
        #[test]
        fn pin_table_matches_the_closure_oracle_bitwise(
            seed in 0u64..1_000_000,
            synthetic in 0u8..2,
            mixed in 0u8..2,
        ) {
            let design = if synthetic == 1 {
                let (movable, preplaced) = (1 + seed as usize % 6, seed as usize % 3);
                SyntheticSpec::small("t", movable, preplaced, 4, 12, 24, false, seed).generate()
            } else {
                builder_design(seed)
            };
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x5eed);
            let r = *design.region();
            let mut fixed = Placement::initial(&design);
            for id in design.movable_macros() {
                let x = coarse(&mut rng, r.x, r.width);
                fixed.set_macro_center(id, Point::new(x, coarse(&mut rng, r.y, r.height)));
            }
            let movable_macros = if mixed == 1 { design.movable_macros() } else { Vec::new() };
            let n = movable_macros.len() + design.cells().len();
            let xs: Vec<f64> = (0..n).map(|_| coarse(&mut rng, r.x, r.width)).collect();
            let ys: Vec<f64> = (0..n).map(|_| coarse(&mut rng, r.y, r.height)).collect();
            assert_table_matches_oracle(&design, &movable_macros, &fixed, &xs, &ys)?;
        }
    }

    /// Every kind of pin pair in one design, at the initial placement
    /// where all movable pins coincide: movable–movable, movable–pad,
    /// movable–preplaced and a one-pin net.
    #[test]
    fn pin_table_matches_the_oracle_on_coincident_pins() {
        let mut bld = DesignBuilder::new("d", Rect::new(0.0, 0.0, 20.0, 20.0));
        let m = bld.add_macro("m", 2.0, 2.0, "");
        let fixed_m = bld.add_preplaced_macro("f", 2.0, 2.0, "", Point::new(3.0, 3.0));
        let c = bld.add_cell("c", 1.0, 1.0, "");
        let p = bld.add_pad("p", Point::new(0.0, 10.0));
        let off = Point::new(0.5, -0.5);
        let pins = [
            (NodeRef::Macro(m), off),
            (NodeRef::Cell(c), Point::ORIGIN),
            (NodeRef::Pad(p), off),
            (NodeRef::Macro(fixed_m), Point::ORIGIN),
            (NodeRef::Macro(m), off),
        ];
        bld.add_net("all", pins, 2.0).unwrap();
        bld.add_net("one", [(NodeRef::Cell(c), off)], 1.0).unwrap();
        let d = bld.build().unwrap();
        let pl = Placement::initial(&d);
        let center = d.region().center();
        assert_table_matches_oracle(&d, &[m], &pl, &[center.x; 2], &[center.y; 2]).unwrap();
        assert_table_matches_oracle(&d, &[], &pl, &[center.x], &[center.y]).unwrap();
    }

    /// One movable macro on a 2-pin net with a fixed pad: the quadratic
    /// minimum is exactly the pad position.
    #[test]
    fn single_movable_snaps_to_fixed_partner() {
        let mut bld = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
        let m = bld.add_macro("m", 2.0, 2.0, "");
        let p = bld.add_pad("p", Point::new(30.0, 70.0));
        bld.add_net(
            "n",
            [
                (NodeRef::Macro(m), Point::ORIGIN),
                (NodeRef::Pad(p), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        let d = bld.build().unwrap();
        let pl = Placement::initial(&d);
        let table = PinTable::new(&d, &[m], &pl);
        for (axis, want) in [(Axis::X, 30.0), (Axis::Y, 70.0)] {
            let (a, b) = build_system(&table, axis, &[axis.of(pl.macro_center(m))]);
            let out = cg::solve(&a.into_csr(), &b, &[0.0], 1e-12, 100);
            assert!((out.x[0] - want).abs() < 1e-9, "axis {axis:?}");
        }
    }

    /// Two movables between two fixed pads: minimum spreads them evenly —
    /// and the B2B system must be symmetric.
    #[test]
    fn chain_between_pads_is_solved_and_symmetric() {
        let mut bld = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 10.0));
        let m0 = bld.add_macro("m0", 1.0, 1.0, "");
        let m1 = bld.add_macro("m1", 1.0, 1.0, "");
        let pl_left = bld.add_pad("pl", Point::new(0.0, 5.0));
        let pl_right = bld.add_pad("pr", Point::new(90.0, 5.0));
        bld.add_net(
            "a",
            [
                (NodeRef::Pad(pl_left), Point::ORIGIN),
                (NodeRef::Macro(m0), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        bld.add_net(
            "b",
            [
                (NodeRef::Macro(m0), Point::ORIGIN),
                (NodeRef::Macro(m1), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        bld.add_net(
            "c",
            [
                (NodeRef::Macro(m1), Point::ORIGIN),
                (NodeRef::Pad(pl_right), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        let d = bld.build().unwrap();
        // Seed positions that make all B2B weights equal: 0, 30, 60, 90.
        let table = PinTable::new(&d, &[m0, m1], &Placement::initial(&d));
        let (a, b) = build_system(&table, Axis::X, &[30.0, 60.0]);
        let csr = a.into_csr();
        assert!(csr.is_symmetric(1e-12));
        let out = cg::solve(&csr, &b, &[0.0, 0.0], 1e-12, 100);
        // With equal weights the chain equilibrium is at 30 and 60.
        assert!((out.x[0] - 30.0).abs() < 1e-6, "got {}", out.x[0]);
        assert!((out.x[1] - 60.0).abs() < 1e-6, "got {}", out.x[1]);
    }

    /// Pins on the same node cancel: a net entirely inside one node adds no
    /// net force.
    #[test]
    fn intra_node_net_contributes_nothing() {
        let mut bld = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
        let m = bld.add_macro("m", 4.0, 4.0, "");
        bld.add_net(
            "n",
            [
                (NodeRef::Macro(m), Point::new(-1.0, 0.0)),
                (NodeRef::Macro(m), Point::new(1.0, 0.0)),
            ],
            1.0,
        )
        .unwrap();
        let d = bld.build().unwrap();
        let pl = Placement::initial(&d);
        let table = PinTable::new(&d, &[m], &pl);
        let (a, b) = build_system(&table, Axis::X, &[pl.macro_center(m).x]);
        let csr = a.into_csr();
        // Diagonal cancels to zero and rhs is zero: no force.
        assert_eq!(csr.get(0, 0), 0.0);
        assert_eq!(b[0], 0.0);
    }

    /// Multi-pin nets: every pin couples to both extremes; the system stays
    /// symmetric and positive on the diagonal.
    #[test]
    fn multi_pin_net_system_is_well_formed() {
        let mut bld = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ms: Vec<_> = (0..5)
            .map(|i| bld.add_macro(format!("m{i}"), 1.0, 1.0, ""))
            .collect();
        bld.add_net(
            "n",
            ms.iter().map(|&m| (NodeRef::Macro(m), Point::ORIGIN)),
            1.0,
        )
        .unwrap();
        let d = bld.build().unwrap();
        let table = PinTable::new(&d, &ms, &Placement::initial(&d));
        let xs: Vec<f64> = (0..5).map(|i| 10.0 * i as f64).collect();
        let (a, _b) = build_system(&table, Axis::X, &xs);
        let csr = a.into_csr();
        assert!(csr.is_symmetric(1e-12));
        for i in 0..5 {
            assert!(csr.get(i, i) > 0.0, "diag {i} must be positive");
        }
        // Middle pins couple only to the extremes: pin 2 has no edge to 1.
        assert_eq!(csr.get(2, 1), 0.0);
        assert!(csr.get(2, 0) < 0.0);
        assert!(csr.get(2, 4) < 0.0);
    }
}
