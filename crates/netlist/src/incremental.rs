//! Incremental (delta) HPWL evaluation over a [`Placement`].
//!
//! Trial-move loops — orientation flips, swap refinement, annealing —
//! repeatedly perturb one or two nodes and ask for the new wirelength. A
//! full `placement.hpwl(design)` pass is O(all nets);
//! [`IncrementalHpwl`] caches every net's half-perimeter and, per move,
//! recomputes only the nets incident to the touched nodes, exactly as the
//! full evaluator would (same pin order, same box arithmetic). Totals come
//! from re-summing the cached per-net values in ascending net order —
//! never from delta accumulation — so [`IncrementalHpwl::total`] is
//! **bitwise-equal** to a fresh `placement.hpwl(design)` at every point.
//!
//! Moves are speculative: apply any number of [`IncrementalHpwl::move_macro`]
//! / [`IncrementalHpwl::swap_macro_centers`] /
//! [`IncrementalHpwl::set_macro_orientation`] / [`IncrementalHpwl::move_cell`]
//! calls, then [`IncrementalHpwl::commit`] to keep them or
//! [`IncrementalHpwl::revert`] to roll the placement and cache back.

use crate::design::Design;
use crate::ids::{CellId, MacroId, NetId};
use crate::orientation::Orientation;
use crate::placement::Placement;
use mmp_geom::{NetValueCache, Point};

/// One journaled placement mutation, undone on revert.
#[derive(Debug, Clone, Copy)]
enum Undo {
    MacroCenter(MacroId, Point),
    MacroOrient(MacroId, Orientation),
    CellCenter(CellId, Point),
}

/// A per-net HPWL cache over an owned [`Placement`] with speculative moves.
///
/// # Example
///
/// ```
/// use mmp_netlist::{IncrementalHpwl, MacroId, Placement, SyntheticSpec};
/// use mmp_geom::Point;
///
/// let design = SyntheticSpec::small("inc", 6, 0, 8, 40, 70, false, 9).generate();
/// let placement = Placement::initial(&design);
/// let mut inc = IncrementalHpwl::new(&design, placement.clone());
/// assert_eq!(inc.total().to_bits(), placement.hpwl(&design).to_bits());
///
/// inc.move_macro(MacroId::from_index(0), Point::new(30.0, 30.0));
/// inc.revert();
/// assert_eq!(inc.total().to_bits(), placement.hpwl(&design).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalHpwl<'d> {
    design: &'d Design,
    placement: Placement,
    cache: NetValueCache,
    undo: Vec<Undo>,
}

impl<'d> IncrementalHpwl<'d> {
    /// Builds the cache by scoring every net of `design` once.
    pub fn new(design: &'d Design, placement: Placement) -> Self {
        let values = (0..design.nets().len())
            .map(|i| placement.net_hpwl(design, NetId::from_index(i)))
            .collect();
        IncrementalHpwl {
            design,
            placement,
            cache: NetValueCache::new(values),
            undo: Vec::new(),
        }
    }

    /// The design being scored.
    #[inline]
    pub fn design(&self) -> &'d Design {
        self.design
    }

    /// The placement in its current (possibly speculative) state.
    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Consumes the evaluator, returning the placement (committed and
    /// speculative moves included — call [`IncrementalHpwl::revert`] first
    /// to drop pending ones).
    #[inline]
    pub fn into_placement(self) -> Placement {
        self.placement
    }

    /// Re-scores every net incident to `nets`, staging new values.
    fn restage(&mut self, nets: &[NetId]) -> f64 {
        let mut delta = 0.0;
        for &n in nets {
            let v = self.placement.net_hpwl(self.design, n);
            delta += self.cache.stage(n.raw(), v);
        }
        delta
    }

    /// Moves macro `id` to center `to`; returns the accumulated raw delta
    /// over its nets (diagnostic — exact totals come from
    /// [`IncrementalHpwl::total`]).
    pub fn move_macro(&mut self, id: MacroId, to: Point) -> f64 {
        self.undo
            .push(Undo::MacroCenter(id, self.placement.macro_center(id)));
        self.placement.set_macro_center(id, to);
        let nets = self.design.nets_of_macro(id);
        // why: the incidence slice borrows `design`, not `self`, but the
        // borrow checker cannot see through `&self.design` during `&mut
        // self` calls; a cheap to_vec decouples them.
        let nets = nets.to_vec();
        self.restage(&nets)
    }

    /// Swaps the centers of macros `a` and `b`; returns the accumulated raw
    /// delta over the union of their nets.
    pub fn swap_macro_centers(&mut self, a: MacroId, b: MacroId) -> f64 {
        let ca = self.placement.macro_center(a);
        let cb = self.placement.macro_center(b);
        self.undo.push(Undo::MacroCenter(a, ca));
        self.undo.push(Undo::MacroCenter(b, cb));
        self.placement.set_macro_center(a, cb);
        self.placement.set_macro_center(b, ca);
        let mut nets: Vec<NetId> = self
            .design
            .nets_of_macro(a)
            .iter()
            .chain(self.design.nets_of_macro(b))
            .copied()
            .collect();
        nets.sort_by_key(|n| n.index());
        nets.dedup();
        self.restage(&nets)
    }

    /// Sets macro `id`'s orientation; returns the accumulated raw delta
    /// over its nets.
    pub fn set_macro_orientation(&mut self, id: MacroId, o: Orientation) -> f64 {
        self.undo
            .push(Undo::MacroOrient(id, self.placement.macro_orientation(id)));
        self.placement.set_macro_orientation(id, o);
        let nets = self.design.nets_of_macro(id).to_vec();
        self.restage(&nets)
    }

    /// Moves cell `id` to center `to`; returns the accumulated raw delta
    /// over its nets.
    pub fn move_cell(&mut self, id: CellId, to: Point) -> f64 {
        self.undo
            .push(Undo::CellCenter(id, self.placement.cell_center(id)));
        self.placement.set_cell_center(id, to);
        let nets = self.design.nets_of_cell(id).to_vec();
        self.restage(&nets)
    }

    /// Sum of macro `id`'s nets' cached values in incidence order (which is
    /// ascending), folded from `0.0` — bitwise-equal to the full
    /// evaluator's "local wirelength around one macro" loop.
    pub fn local_of_macro(&self, id: MacroId) -> f64 {
        let mut t = 0.0;
        for &n in self.design.nets_of_macro(id) {
            t += self.cache.value(n.raw());
        }
        t
    }

    /// Number of speculative (uncommitted) placement mutations.
    #[inline]
    pub fn pending(&self) -> usize {
        self.undo.len()
    }

    /// Accepts all speculative moves.
    pub fn commit(&mut self) {
        self.undo.clear();
        self.cache.commit();
    }

    /// Rolls back all speculative moves, restoring both the placement and
    /// the cached net values (newest-first, so the oldest state wins).
    pub fn revert(&mut self) {
        while let Some(u) = self.undo.pop() {
            match u {
                Undo::MacroCenter(id, c) => self.placement.set_macro_center(id, c),
                Undo::MacroOrient(id, o) => self.placement.set_macro_orientation(id, o),
                Undo::CellCenter(id, c) => self.placement.set_cell_center(id, c),
            }
        }
        self.cache.revert();
    }

    /// Total HPWL: ascending-net-order sequential sum of the cached values
    /// — bitwise-equal to a fresh `self.placement().hpwl(design)`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.cache.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticSpec;

    fn setup(seed: u64) -> (Design, Placement) {
        let d = SyntheticSpec::small("inc", 8, 1, 8, 60, 110, true, seed).generate();
        let p = Placement::initial(&d);
        (d, p)
    }

    /// Deterministic pseudo-random stream for move fuzzing (splitmix64).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn pick(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn coord(&mut self) -> f64 {
            (self.next() % 1000) as f64 / 10.0
        }
    }

    #[test]
    fn fresh_cache_matches_full_hpwl_bitwise() {
        for seed in 0..4 {
            let (d, p) = setup(seed);
            let inc = IncrementalHpwl::new(&d, p.clone());
            assert_eq!(inc.total().to_bits(), p.hpwl(&d).to_bits());
        }
    }

    #[test]
    fn random_move_sequences_stay_bitwise_equal_to_full_recompute() {
        let (d, p) = setup(42);
        let mut inc = IncrementalHpwl::new(&d, p);
        let mut rng = Rng(7);
        let macros = d.macros().len();
        let cells = d.cells().len();
        for step in 0..200 {
            match rng.pick(4) {
                0 => {
                    let id = MacroId::from_index(rng.pick(macros));
                    inc.move_macro(id, Point::new(rng.coord(), rng.coord()));
                }
                1 => {
                    let a = MacroId::from_index(rng.pick(macros));
                    let b = MacroId::from_index(rng.pick(macros));
                    inc.swap_macro_centers(a, b);
                }
                2 => {
                    let id = MacroId::from_index(rng.pick(macros));
                    let o = Orientation::ALL[rng.pick(Orientation::ALL.len())];
                    inc.set_macro_orientation(id, o);
                }
                _ => {
                    let id = CellId::from_index(rng.pick(cells));
                    inc.move_cell(id, Point::new(rng.coord(), rng.coord()));
                }
            }
            if step % 3 == 0 {
                inc.commit();
            } else if step % 3 == 1 {
                inc.revert();
            }
            let fresh = inc.placement().hpwl(&d);
            assert_eq!(
                inc.total().to_bits(),
                fresh.to_bits(),
                "step {step}: cache drifted from full recompute"
            );
        }
    }

    #[test]
    fn revert_restores_placement_and_total() {
        let (d, p) = setup(3);
        let before = p.clone();
        let mut inc = IncrementalHpwl::new(&d, p);
        let t0 = inc.total();
        inc.move_macro(MacroId::from_index(0), Point::new(55.0, 44.0));
        inc.swap_macro_centers(MacroId::from_index(1), MacroId::from_index(2));
        inc.set_macro_orientation(MacroId::from_index(0), Orientation::FS);
        assert_eq!(inc.pending(), 4);
        inc.revert();
        assert_eq!(inc.pending(), 0);
        assert_eq!(inc.total().to_bits(), t0.to_bits());
        assert_eq!(inc.placement(), &before);
    }

    #[test]
    fn local_of_macro_matches_manual_net_sum_bitwise() {
        let (d, p) = setup(5);
        let inc = IncrementalHpwl::new(&d, p.clone());
        for i in 0..d.macros().len() {
            let id = MacroId::from_index(i);
            let manual: f64 = d.nets_of_macro(id).iter().map(|&n| p.net_hpwl(&d, n)).sum();
            assert_eq!(inc.local_of_macro(id).to_bits(), manual.to_bits());
        }
    }

    #[test]
    fn into_placement_returns_committed_state() {
        let (d, p) = setup(6);
        let mut inc = IncrementalHpwl::new(&d, p);
        inc.move_macro(MacroId::from_index(0), Point::new(12.0, 13.0));
        inc.commit();
        let out = inc.into_placement();
        assert_eq!(
            out.macro_center(MacroId::from_index(0)),
            Point::new(12.0, 13.0)
        );
    }
}
