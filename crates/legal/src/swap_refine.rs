//! Post-MCTS evolutionary swap/relocate refinement.
//!
//! "RL Policy as Macro Regulator Rather than Macro Placer" (arXiv
//! 2412.07167) argues the cheapest quality wins come from *refining* a
//! committed placement, and LaMPlace-style flows wrap their placer in a
//! swap-based evolutionary loop. This module is that loop for the MMP
//! flow: starting from the final legal placement, a seeded generator
//! proposes macro-pair center swaps and single-macro relocations; each
//! proposal is checked for legality (outline inside the region, no macro
//! overlap) and delta-scored with [`IncrementalHpwl`] — O(nets touching
//! the moved macros) per trial — and kept only when it strictly lowers
//! HPWL (greedy-or-better acceptance), so the result never regresses.
//!
//! Determinism: all randomness flows from `SmallRng::seed_from_u64` on
//! [`SwapRefineConfig::seed`]; the wall-clock deadline can only *truncate*
//! the proposal stream, never reorder it.

use mmp_geom::{Point, Rect};
use mmp_netlist::{Design, IncrementalHpwl, MacroId, Placement};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

fn expired(deadline: Option<Instant>) -> bool {
    // mmp-lint: allow(wallclock) why: budget-deadline probe; expiry only truncates the seeded proposal stream, decisions stay deterministic
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Configuration of the swap/relocate refinement stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapRefineConfig {
    /// Proposal budget: total swap/relocate trials.
    pub moves: usize,
    /// Seed of the proposal stream.
    pub seed: u64,
}

impl Default for SwapRefineConfig {
    fn default() -> Self {
        SwapRefineConfig {
            moves: 256,
            seed: 7,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapRefineOutcome {
    /// The refined (still legal) placement.
    pub placement: Placement,
    /// HPWL before refinement.
    pub hpwl_before: f64,
    /// HPWL after refinement (≤ before: acceptance is strict-improvement).
    pub hpwl_after: f64,
    /// Proposals drawn (≤ the configured budget when the deadline cut in).
    pub proposed: usize,
    /// Proposals accepted.
    pub accepted: usize,
    /// Accepted pair swaps.
    pub swaps: usize,
    /// Accepted relocations.
    pub relocations: usize,
    /// `true` when the stage deadline expired before the proposal budget.
    pub deadline_expired: bool,
}

/// The seeded, budgeted swap/relocate refiner.
#[derive(Debug, Clone, Default)]
pub struct SwapRefiner {
    config: SwapRefineConfig,
}

/// `true` when `r` (macro `id`'s candidate outline) is inside the region
/// and overlaps no other macro; `skip` excludes the swap partner, which is
/// checked against its own candidate outline by the caller.
fn fits(design: &Design, pl: &Placement, id: MacroId, r: &Rect, skip: Option<MacroId>) -> bool {
    if !design.region().contains_rect(r) {
        return false;
    }
    for j in 0..design.macros().len() {
        let jid = MacroId::from_index(j);
        if jid == id || Some(jid) == skip {
            continue;
        }
        if pl.macro_rect(design, jid).overlap_area(r) > 1e-9 {
            return false;
        }
    }
    true
}

impl SwapRefiner {
    /// Creates a refiner with the given configuration.
    pub fn new(config: SwapRefineConfig) -> Self {
        SwapRefiner { config }
    }

    /// Refines a legal placement. Cells are held fixed; only movable-macro
    /// swaps and relocations are tried. `deadline` (the stage's `RunBudget`
    /// slice) truncates the proposal stream when it expires.
    pub fn refine(
        &self,
        design: &Design,
        placement: &Placement,
        deadline: Option<Instant>,
    ) -> SwapRefineOutcome {
        let movable = design.movable_macros();
        let region = *design.region();
        let mut inc = IncrementalHpwl::new(design, placement.clone());
        let hpwl_before = inc.total();
        let mut best = hpwl_before;
        let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0x5377);
        let mut proposed = 0usize;
        let mut accepted = 0usize;
        let mut swaps = 0usize;
        let mut relocations = 0usize;
        let mut deadline_expired = false;

        if !movable.is_empty() {
            for _ in 0..self.config.moves {
                if expired(deadline) {
                    deadline_expired = true;
                    break;
                }
                proposed += 1;
                if movable.len() >= 2 && rng.gen_bool(0.5) {
                    // Pair swap: exchange two macros' centers.
                    let a = movable[rng.gen_range(0..movable.len())];
                    let b = movable[rng.gen_range(0..movable.len())];
                    if a == b {
                        continue;
                    }
                    let ca = inc.placement().macro_center(a);
                    let cb = inc.placement().macro_center(b);
                    let ma = design.macro_(a);
                    let mb = design.macro_(b);
                    let ra = Rect::centered_at(cb, ma.width, ma.height);
                    let rb = Rect::centered_at(ca, mb.width, mb.height);
                    if ra.overlap_area(&rb) > 1e-9
                        || !fits(design, inc.placement(), a, &ra, Some(b))
                        || !fits(design, inc.placement(), b, &rb, Some(a))
                    {
                        continue;
                    }
                    inc.swap_macro_centers(a, b);
                    if inc.total() < best {
                        best = inc.total();
                        inc.commit();
                        accepted += 1;
                        swaps += 1;
                    } else {
                        inc.revert();
                    }
                } else {
                    // Relocation: move one macro to a random in-region spot.
                    let id = movable[rng.gen_range(0..movable.len())];
                    let m = design.macro_(id);
                    if m.width > region.width || m.height > region.height {
                        continue;
                    }
                    let to = Point::new(
                        region.x + m.width / 2.0 + rng.gen::<f64>() * (region.width - m.width),
                        region.y + m.height / 2.0 + rng.gen::<f64>() * (region.height - m.height),
                    );
                    let r = Rect::centered_at(to, m.width, m.height);
                    if !fits(design, inc.placement(), id, &r, None) {
                        continue;
                    }
                    inc.move_macro(id, to);
                    if inc.total() < best {
                        best = inc.total();
                        inc.commit();
                        accepted += 1;
                        relocations += 1;
                    } else {
                        inc.revert();
                    }
                }
            }
        }

        SwapRefineOutcome {
            placement: inc.into_placement(),
            hpwl_before,
            hpwl_after: best,
            proposed,
            accepted,
            swaps,
            relocations,
            deadline_expired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_geom::Grid;
    use mmp_netlist::{DesignBuilder, NodeRef, SyntheticSpec};

    fn legal_start(seed: u64) -> (Design, Placement) {
        let d = SyntheticSpec::small("sr", 8, 1, 10, 80, 140, true, seed).generate();
        let grid = Grid::new(*d.region(), 8);
        let coarse =
            mmp_cluster::Coarsener::new(&mmp_cluster::ClusterParams::paper(grid.cell_area()))
                .coarsen(&d, &Placement::initial(&d));
        let assignment: Vec<_> = (0..coarse.macro_groups().len())
            .map(|g| grid.unflatten((9 + 3 * g) % 64))
            .collect();
        let legal = crate::flow::MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap();
        (d, legal.placement)
    }

    #[test]
    fn refinement_never_regresses_and_stays_legal() {
        for seed in [1, 2, 3] {
            let (d, pl) = legal_start(seed);
            let out = SwapRefiner::new(SwapRefineConfig::default()).refine(&d, &pl, None);
            assert!(out.hpwl_after <= out.hpwl_before);
            assert!(
                (out.hpwl_after - out.placement.hpwl(&d)).abs() < 1e-9,
                "reported HPWL must match the returned placement"
            );
            assert!(out.placement.macro_overlap_area(&d) < 1e-6);
            for id in d.movable_macros() {
                assert!(d.region().contains_rect(&out.placement.macro_rect(&d, id)));
            }
            assert_eq!(out.accepted, out.swaps + out.relocations);
            assert_eq!(out.proposed, SwapRefineConfig::default().moves);
        }
    }

    #[test]
    fn refinement_is_deterministic() {
        let (d, pl) = legal_start(4);
        let cfg = SwapRefineConfig {
            moves: 300,
            seed: 11,
        };
        let a = SwapRefiner::new(cfg).refine(&d, &pl, None);
        let b = SwapRefiner::new(cfg).refine(&d, &pl, None);
        assert_eq!(a, b);
        assert_eq!(a.hpwl_after.to_bits(), b.hpwl_after.to_bits());
    }

    #[test]
    fn zero_move_budget_is_a_noop() {
        let (d, pl) = legal_start(5);
        let out = SwapRefiner::new(SwapRefineConfig { moves: 0, seed: 1 }).refine(&d, &pl, None);
        assert_eq!(out.proposed, 0);
        assert_eq!(out.accepted, 0);
        assert_eq!(out.placement, pl);
        assert_eq!(out.hpwl_after.to_bits(), out.hpwl_before.to_bits());
    }

    #[test]
    fn expired_deadline_truncates_but_returns_the_incumbent() {
        let (d, pl) = legal_start(6);
        // mmp-lint: allow(wallclock) why: test constructs an already-expired deadline on purpose
        let past = Some(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let out = SwapRefiner::new(SwapRefineConfig::default()).refine(&d, &pl, past);
        assert!(out.deadline_expired);
        assert_eq!(out.proposed, 0);
        assert_eq!(out.placement, pl);
        assert_eq!(out.hpwl_after.to_bits(), out.hpwl_before.to_bits());
    }

    /// One movable macro netted to a pad on the left edge.
    fn macro_and_left_pad() -> (Design, MacroId) {
        let mut b = DesignBuilder::new("pull", Rect::new(0.0, 0.0, 100.0, 100.0));
        let m = b.add_macro("m", 10.0, 10.0, "");
        let p = b.add_pad("p", Point::new(0.0, 50.0));
        b.add_net(
            "n",
            [
                (NodeRef::Macro(m), Point::ORIGIN),
                (NodeRef::Pad(p), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        (b.build().unwrap(), m)
    }

    #[test]
    fn relocation_pulls_a_center_macro_toward_its_pad() {
        let (d, m) = macro_and_left_pad();
        let mut pl = Placement::initial(&d);
        pl.set_macro_center(m, Point::new(50.0, 50.0));
        let out = SwapRefiner::new(SwapRefineConfig::default()).refine(&d, &pl, None);
        assert!(out.relocations >= 1, "expected an accepted relocation");
        assert_eq!(out.swaps, 0, "a lone macro has no swap partner");
        assert!(out.hpwl_after < out.hpwl_before);
        assert!(
            out.placement.macro_center(m).x < 50.0,
            "macro should move toward the left pad, got {}",
            out.placement.macro_center(m)
        );
    }

    #[test]
    fn a_macro_already_beside_its_pad_is_left_alone() {
        let (d, m) = macro_and_left_pad();
        let mut pl = Placement::initial(&d);
        // Touching the left edge at the pad's height: no legal center is
        // strictly closer to the pad.
        pl.set_macro_center(m, Point::new(5.0, 50.0));
        let out = SwapRefiner::new(SwapRefineConfig::default()).refine(&d, &pl, None);
        assert_eq!(out.accepted, 0);
        assert_eq!(out.placement, pl);
        assert_eq!(out.hpwl_after.to_bits(), out.hpwl_before.to_bits());
    }

    #[test]
    fn crossed_macros_in_a_full_region_are_swapped() {
        // Two half-region macros each netted to the pad on the far side.
        // The region is full, so no relocation fits and only a swap helps.
        let mut b = DesignBuilder::new("cross", Rect::new(0.0, 0.0, 100.0, 40.0));
        let left = b.add_macro("left", 50.0, 40.0, "");
        let right = b.add_macro("right", 50.0, 40.0, "");
        let west = b.add_pad("west", Point::new(0.0, 20.0));
        let east = b.add_pad("east", Point::new(100.0, 20.0));
        for (name, m, p) in [("ne", left, east), ("nw", right, west)] {
            b.add_net(
                name,
                [
                    (NodeRef::Macro(m), Point::ORIGIN),
                    (NodeRef::Pad(p), Point::ORIGIN),
                ],
                1.0,
            )
            .unwrap();
        }
        let d = b.build().unwrap();
        let mut pl = Placement::initial(&d);
        pl.set_macro_center(left, Point::new(25.0, 20.0));
        pl.set_macro_center(right, Point::new(75.0, 20.0));
        let out = SwapRefiner::new(SwapRefineConfig::default()).refine(&d, &pl, None);
        assert_eq!((out.swaps, out.relocations), (1, 0));
        assert_eq!(out.placement.macro_center(left), Point::new(75.0, 20.0));
        assert_eq!(out.placement.macro_center(right), Point::new(25.0, 20.0));
        assert!(out.hpwl_after < out.hpwl_before);
        assert!(out.placement.macro_overlap_area(&d) < 1e-6);
    }

    #[test]
    fn preplaced_macros_never_move() {
        let (d, pl) = legal_start(7);
        let out = SwapRefiner::new(SwapRefineConfig {
            moves: 400,
            seed: 3,
        })
        .refine(&d, &pl, None);
        for id in d.preplaced_macros() {
            assert_eq!(out.placement.macro_center(id), pl.macro_center(id));
        }
    }
}
