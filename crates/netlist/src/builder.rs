//! Validated construction of [`Design`]s.

use crate::design::{Cell, Design, Macro, Net, Pad, Pin};
use crate::ids::{CellId, MacroId, NetId, NodeRef, PadId};
use mmp_geom::{Point, Rect};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Error produced when a design fails validation at build time.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildDesignError {
    /// The placement region has zero area.
    EmptyRegion,
    /// A corner of the placement region is infinite or NaN.
    NonFiniteRegion,
    /// The placement region's corners are finite but its area is not.
    RegionAreaOverflow,
    /// A net references a node id that was never added.
    DanglingPin {
        /// Name of the offending net.
        net: String,
        /// The unresolved reference.
        node: NodeRef,
    },
    /// A net has no pins at all.
    EmptyNet {
        /// Name of the offending net.
        net: String,
    },
    /// Two nodes of the same kind share a name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// A node has a non-positive or non-finite outline.
    InvalidOutline {
        /// Name of the offending node.
        name: String,
    },
    /// A preplaced macro's outline leaves the placement region.
    PreplacedOutsideRegion {
        /// Name of the offending macro.
        name: String,
    },
    /// A net weight is not finite-positive.
    InvalidNetWeight {
        /// Name of the offending net.
        net: String,
    },
    /// A pin offset is infinite or NaN.
    NonFinitePinOffset {
        /// Name of the offending net.
        net: String,
    },
    /// An I/O pad sits at an infinite or NaN position.
    NonFinitePad {
        /// Name of the offending pad.
        name: String,
    },
}

impl fmt::Display for BuildDesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDesignError::EmptyRegion => write!(f, "placement region has zero area"),
            BuildDesignError::NonFiniteRegion => {
                write!(f, "placement region has a non-finite corner")
            }
            BuildDesignError::RegionAreaOverflow => {
                write!(f, "placement region's area overflows")
            }
            BuildDesignError::DanglingPin { net, node } => {
                write!(f, "net {net} references unknown node {node}")
            }
            BuildDesignError::EmptyNet { net } => write!(f, "net {net} has no pins"),
            BuildDesignError::DuplicateName { name } => {
                write!(f, "duplicate instance name {name}")
            }
            BuildDesignError::InvalidOutline { name } => {
                write!(f, "node {name} has a non-positive or non-finite outline")
            }
            BuildDesignError::PreplacedOutsideRegion { name } => {
                write!(f, "preplaced macro {name} leaves the placement region")
            }
            BuildDesignError::InvalidNetWeight { net } => {
                write!(f, "net {net} has a non-positive or non-finite weight")
            }
            BuildDesignError::NonFinitePinOffset { net } => {
                write!(f, "net {net} has a pin with a non-finite offset")
            }
            BuildDesignError::NonFinitePad { name } => {
                write!(f, "pad {name} has a non-finite position")
            }
        }
    }
}

impl Error for BuildDesignError {}

/// Incrementally builds a [`Design`], validating invariants at
/// [`DesignBuilder::build`].
///
/// # Example
///
/// ```
/// use mmp_netlist::{DesignBuilder, NodeRef};
/// use mmp_geom::{Point, Rect};
///
/// # fn main() -> Result<(), mmp_netlist::BuildDesignError> {
/// let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 10.0, 10.0));
/// let m = b.add_macro("m", 2.0, 2.0, "");
/// let p = b.add_pad("p", Point::new(0.0, 5.0));
/// b.add_net("n", [(m.into(), Point::ORIGIN), (p.into(), Point::ORIGIN)], 1.0)?;
/// let design = b.build()?;
/// assert_eq!(design.nets().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DesignBuilder {
    name: String,
    region: Rect,
    macros: Vec<Macro>,
    cells: Vec<Cell>,
    pads: Vec<Pad>,
    nets: Vec<Net>,
}

impl DesignBuilder {
    /// Starts a builder for a design named `name` over `region`.
    pub fn new(name: impl Into<String>, region: Rect) -> Self {
        DesignBuilder {
            name: name.into(),
            region,
            macros: Vec::new(),
            cells: Vec::new(),
            pads: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Adds a movable macro; returns its id.
    pub fn add_macro(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        hierarchy: impl Into<String>,
    ) -> MacroId {
        let id = MacroId::from_index(self.macros.len());
        self.macros.push(Macro {
            name: name.into(),
            width,
            height,
            hierarchy: hierarchy.into(),
            fixed_center: None,
        });
        id
    }

    /// Adds a preplaced (fixed) macro centred at `center`; returns its id.
    pub fn add_preplaced_macro(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        hierarchy: impl Into<String>,
        center: Point,
    ) -> MacroId {
        let id = MacroId::from_index(self.macros.len());
        self.macros.push(Macro {
            name: name.into(),
            width,
            height,
            hierarchy: hierarchy.into(),
            fixed_center: Some(center),
        });
        id
    }

    /// Adds a standard cell; returns its id.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        hierarchy: impl Into<String>,
    ) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cells.push(Cell {
            name: name.into(),
            width,
            height,
            hierarchy: hierarchy.into(),
        });
        id
    }

    /// Adds a fixed I/O pad; returns its id.
    pub fn add_pad(&mut self, name: impl Into<String>, position: Point) -> PadId {
        let id = PadId::from_index(self.pads.len());
        self.pads.push(Pad {
            name: name.into(),
            position,
        });
        id
    }

    /// Adds a net over `(node, pin-offset)` pairs with weight `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDesignError::EmptyNet`] for a pin-less net,
    /// [`BuildDesignError::DanglingPin`] when a referenced node does not
    /// exist yet, [`BuildDesignError::NonFinitePinOffset`] for a pin offset
    /// that is infinite or NaN, and [`BuildDesignError::InvalidNetWeight`]
    /// for a non-positive or non-finite weight.
    pub fn add_net<I>(
        &mut self,
        name: impl Into<String>,
        pins: I,
        weight: f64,
    ) -> Result<NetId, BuildDesignError>
    where
        I: IntoIterator<Item = (NodeRef, Point)>,
    {
        let name = name.into();
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(BuildDesignError::InvalidNetWeight { net: name });
        }
        let pins: Vec<Pin> = pins
            .into_iter()
            .map(|(node, offset)| Pin { node, offset })
            .collect();
        if pins.is_empty() {
            return Err(BuildDesignError::EmptyNet { net: name });
        }
        for pin in &pins {
            let ok = match pin.node {
                NodeRef::Macro(id) => id.index() < self.macros.len(),
                NodeRef::Cell(id) => id.index() < self.cells.len(),
                NodeRef::Pad(id) => id.index() < self.pads.len(),
            };
            if !ok {
                return Err(BuildDesignError::DanglingPin {
                    net: name,
                    node: pin.node,
                });
            }
            if !pin.offset.is_finite() {
                return Err(BuildDesignError::NonFinitePinOffset { net: name });
            }
        }
        let id = NetId::from_index(self.nets.len());
        self.nets.push(Net { name, pins, weight });
        Ok(id)
    }

    /// Numbers of (macros, cells, pads, nets) added so far.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        (
            self.macros.len(),
            self.cells.len(),
            self.pads.len(),
            self.nets.len(),
        )
    }

    /// Validates and produces the immutable [`Design`].
    ///
    /// # Errors
    ///
    /// See [`BuildDesignError`]: empty or non-finite region, a region
    /// whose area overflows, duplicate names, non-positive or non-finite
    /// outlines, preplaced macros escaping the region, pads at non-finite
    /// positions.
    pub fn build(self) -> Result<Design, BuildDesignError> {
        let r = &self.region;
        if ![r.x, r.y, r.right(), r.top()].iter().all(|v| v.is_finite()) {
            return Err(BuildDesignError::NonFiniteRegion);
        }
        if self.region.is_empty() {
            return Err(BuildDesignError::EmptyRegion);
        }
        if !r.area().is_finite() {
            return Err(BuildDesignError::RegionAreaOverflow);
        }
        let mut seen = BTreeSet::new();
        for name in self
            .macros
            .iter()
            .map(|m| &m.name)
            .chain(self.cells.iter().map(|c| &c.name))
            .chain(self.pads.iter().map(|p| &p.name))
        {
            if !seen.insert(name.clone()) {
                return Err(BuildDesignError::DuplicateName { name: name.clone() });
            }
        }
        let valid_outline = |w: f64, h: f64| w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite();
        for m in &self.macros {
            if !valid_outline(m.width, m.height) {
                return Err(BuildDesignError::InvalidOutline {
                    name: m.name.clone(),
                });
            }
            if let Some(c) = m.fixed_center {
                let outline = Rect::centered_at(c, m.width, m.height);
                if !self.region.contains_rect(&outline) {
                    return Err(BuildDesignError::PreplacedOutsideRegion {
                        name: m.name.clone(),
                    });
                }
            }
        }
        for c in &self.cells {
            if !valid_outline(c.width, c.height) {
                return Err(BuildDesignError::InvalidOutline {
                    name: c.name.clone(),
                });
            }
        }
        for p in &self.pads {
            if !p.position.is_finite() {
                return Err(BuildDesignError::NonFinitePad {
                    name: p.name.clone(),
                });
            }
        }

        let mut macro_nets = vec![Vec::new(); self.macros.len()];
        let mut cell_nets = vec![Vec::new(); self.cells.len()];
        for (i, net) in self.nets.iter().enumerate() {
            let nid = NetId::from_index(i);
            for pin in &net.pins {
                match pin.node {
                    NodeRef::Macro(id) => {
                        let list: &mut Vec<NetId> = &mut macro_nets[id.index()];
                        if list.last() != Some(&nid) {
                            list.push(nid);
                        }
                    }
                    NodeRef::Cell(id) => {
                        let list: &mut Vec<NetId> = &mut cell_nets[id.index()];
                        if list.last() != Some(&nid) {
                            list.push(nid);
                        }
                    }
                    NodeRef::Pad(_) => {}
                }
            }
        }

        Ok(Design {
            name: self.name,
            region: self.region,
            macros: self.macros,
            cells: self.cells,
            pads: self.pads,
            nets: self.nets,
            macro_nets,
            cell_nets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn empty_region_is_rejected() {
        let b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 0.0, 10.0));
        assert_eq!(b.build(), Err(BuildDesignError::EmptyRegion));
    }

    #[test]
    fn non_finite_region_is_rejected() {
        // An infinite region would reach `f64::clamp` with NaN bounds deep
        // inside the legalizer.
        for r in [
            Rect::new(0.0, 0.0, f64::INFINITY, f64::INFINITY),
            Rect::new(f64::NEG_INFINITY, 0.0, 10.0, 10.0),
            Rect::new(0.0, f64::NAN, 10.0, 10.0),
            Rect::new(f64::MAX, 0.0, f64::MAX, 10.0),
        ] {
            let b = DesignBuilder::new("d", r);
            assert_eq!(b.build(), Err(BuildDesignError::NonFiniteRegion), "{r:?}");
        }
    }

    #[test]
    fn region_whose_area_overflows_is_rejected() {
        // Finite corners, infinite area: the reward calibration would see
        // only infinite wirelengths.
        let b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 1e308, 1e308));
        assert_eq!(b.build(), Err(BuildDesignError::RegionAreaOverflow));
    }

    #[test]
    fn non_finite_pad_is_rejected() {
        for at in [
            Point::new(f64::INFINITY, 5.0),
            Point::new(5.0, f64::NEG_INFINITY),
            Point::new(f64::NAN, 5.0),
        ] {
            let mut b = DesignBuilder::new("d", region());
            b.add_pad("p", at);
            assert_eq!(
                b.build(),
                Err(BuildDesignError::NonFinitePad { name: "p".into() }),
                "{at:?}"
            );
        }
    }

    #[test]
    fn non_finite_pin_offset_is_rejected() {
        for offset in [Point::new(f64::INFINITY, 0.0), Point::new(0.0, f64::NAN)] {
            let mut b = DesignBuilder::new("d", region());
            let m = b.add_macro("m", 1.0, 1.0, "");
            let err = b
                .add_net("n", [(NodeRef::Macro(m), offset)], 1.0)
                .unwrap_err();
            assert_eq!(
                err,
                BuildDesignError::NonFinitePinOffset { net: "n".into() },
                "{offset:?}"
            );
        }
    }

    #[test]
    fn infinite_macro_outline_is_rejected() {
        for (w, h) in [(f64::INFINITY, 5.0), (5.0, f64::INFINITY)] {
            let mut b = DesignBuilder::new("d", region());
            b.add_macro("m", w, h, "");
            assert_eq!(
                b.build(),
                Err(BuildDesignError::InvalidOutline { name: "m".into() })
            );
        }
    }

    #[test]
    fn infinite_cell_outline_is_rejected() {
        for (w, h) in [(f64::INFINITY, 1.0), (1.0, f64::INFINITY)] {
            let mut b = DesignBuilder::new("d", region());
            b.add_cell("c", w, h, "");
            assert_eq!(
                b.build(),
                Err(BuildDesignError::InvalidOutline { name: "c".into() })
            );
        }
    }

    #[test]
    fn dangling_pin_is_rejected() {
        let mut b = DesignBuilder::new("d", region());
        let err = b
            .add_net("n", [(NodeRef::Macro(MacroId(0)), Point::ORIGIN)], 1.0)
            .unwrap_err();
        assert!(matches!(err, BuildDesignError::DanglingPin { .. }));
    }

    #[test]
    fn empty_net_is_rejected() {
        let mut b = DesignBuilder::new("d", region());
        let err = b.add_net("n", std::iter::empty(), 1.0).unwrap_err();
        assert_eq!(err, BuildDesignError::EmptyNet { net: "n".into() });
    }

    #[test]
    fn bad_weight_is_rejected() {
        let mut b = DesignBuilder::new("d", region());
        let m = b.add_macro("m", 1.0, 1.0, "");
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = b
                .add_net("n", [(NodeRef::Macro(m), Point::ORIGIN)], w)
                .unwrap_err();
            assert!(matches!(err, BuildDesignError::InvalidNetWeight { .. }));
        }
    }

    #[test]
    fn duplicate_names_are_rejected_across_kinds() {
        let mut b = DesignBuilder::new("d", region());
        b.add_macro("x", 1.0, 1.0, "");
        b.add_cell("x", 1.0, 1.0, "");
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildDesignError::DuplicateName { name: "x".into() });
    }

    #[test]
    fn non_positive_outline_is_rejected() {
        let mut b = DesignBuilder::new("d", region());
        b.add_macro("m", 0.0, 5.0, "");
        assert!(matches!(
            b.build().unwrap_err(),
            BuildDesignError::InvalidOutline { .. }
        ));
    }

    #[test]
    fn preplaced_macro_must_fit_region() {
        // A non-finite center puts the outline outside any finite region.
        for center in [
            Point::new(99.0, 50.0),
            Point::new(f64::INFINITY, 50.0),
            Point::new(50.0, f64::NAN),
        ] {
            let mut b = DesignBuilder::new("d", region());
            b.add_preplaced_macro("m", 10.0, 10.0, "", center);
            assert!(
                matches!(
                    b.build().unwrap_err(),
                    BuildDesignError::PreplacedOutsideRegion { .. }
                ),
                "{center:?}"
            );
        }
    }

    #[test]
    fn duplicate_pins_on_same_net_are_deduped_in_incidence() {
        let mut b = DesignBuilder::new("d", region());
        let m = b.add_macro("m", 1.0, 1.0, "");
        b.add_net(
            "n",
            [
                (NodeRef::Macro(m), Point::new(0.0, 0.0)),
                (NodeRef::Macro(m), Point::new(0.5, 0.0)),
            ],
            1.0,
        )
        .unwrap();
        let d = b.build().unwrap();
        // Two pins, one incidence entry.
        assert_eq!(d.net(NetId(0)).degree(), 2);
        assert_eq!(d.nets_of_macro(m).len(), 1);
    }

    #[test]
    fn counts_track_additions() {
        let mut b = DesignBuilder::new("d", region());
        b.add_macro("m", 1.0, 1.0, "");
        b.add_cell("c", 1.0, 1.0, "");
        b.add_pad("p", Point::ORIGIN);
        assert_eq!(b.counts(), (1, 1, 1, 0));
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = BuildDesignError::DuplicateName { name: "foo".into() };
        let msg = e.to_string();
        assert!(msg.contains("foo"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }
}
