//! Cross-crate equivalence regression for the incremental HPWL
//! evaluators: under arbitrary seeded move/swap/orient/revert sequences,
//! the delta-maintained totals must equal a from-scratch recompute **to
//! the bit** — the property every migrated consumer (legalizer flip,
//! SA/SE baselines, the coarse RL evaluator, the swap
//! refiner) relies on.

use mmp_cluster::{ClusterParams, CoarseHpwlCache, Coarsener};
use mmp_geom::{Grid, Point};
use mmp_legal::{SwapRefineConfig, SwapRefiner};
use mmp_netlist::{IncrementalHpwl, MacroId, Orientation, Placement, SyntheticSpec};
use proptest::prelude::*;

fn design_for(seed: u64) -> mmp_netlist::Design {
    SyntheticSpec::small(format!("inc{seed}"), 8, 2, 12, 60, 110, true, seed).generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Netlist level: random single-macro moves, pair swaps, orientation
    /// flips and reverts leave the incremental total bitwise-equal to
    /// `Placement::hpwl` on the same placement.
    #[test]
    fn incremental_hpwl_matches_full_recompute(
        seed in 0u64..40,
        ops in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..40),
    ) {
        let d = design_for(seed);
        let n = d.macros().len();
        let r = *d.region();
        let mut inc = IncrementalHpwl::new(&d, Placement::initial(&d));
        for (i, &(op, x, y)) in ops.iter().enumerate() {
            let a = MacroId::from_index(x % n);
            let b = MacroId::from_index(y % n);
            match op {
                0 => {
                    let to = Point::new(
                        r.x + (x as f64 + 0.5) / 64.0 * r.width,
                        r.y + (y as f64 + 0.5) / 64.0 * r.height,
                    );
                    inc.move_macro(a, to);
                }
                1 => { inc.swap_macro_centers(a, b); }
                2 => { inc.set_macro_orientation(a, Orientation::ALL[y % 4]); }
                _ => { inc.revert(); }
            }
            if i % 3 == 0 {
                inc.commit();
            }
            let full = inc.placement().hpwl(&d);
            prop_assert_eq!(
                inc.total().to_bits(),
                full.to_bits(),
                "drift after op {} ({})", i, op
            );
        }
    }

    /// Coarse level: random group moves against the cache match the full
    /// `CoarsenedNetlist::hpwl` pass bit for bit.
    #[test]
    fn coarse_cache_matches_full_recompute(
        seed in 0u64..40,
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0u8..2), 1..40),
    ) {
        let d = design_for(seed);
        let grid = Grid::new(*d.region(), 8);
        let coarse = Coarsener::new(&ClusterParams::paper(grid.cell_area()))
            .coarsen(&d, &Placement::initial(&d));
        let groups = coarse.macro_groups().len();
        prop_assume!(groups > 0);
        let centers: Vec<Point> = (0..groups)
            .map(|g| grid.cell_at(grid.unflatten(g % grid.cell_count())).center())
            .collect();
        let cc = coarse.cell_group_centers();
        let mut cache = CoarseHpwlCache::new(&coarse, centers, cc.clone());
        for &(g, cell, keep) in &ops {
            cache.set_group(
                &coarse,
                g % groups,
                grid.cell_at(grid.unflatten(cell % grid.cell_count())).center(),
            );
            if keep == 1 {
                cache.commit();
            } else {
                cache.revert();
            }
            let full = coarse.hpwl(cache.macro_centers(), &cc);
            prop_assert_eq!(cache.total().to_bits(), full.to_bits());
        }
    }

    /// The swap refiner built on the evaluator never worsens the committed
    /// wirelength and keeps the placement legal.
    #[test]
    fn swap_refiner_never_regresses(seed in 0u64..12) {
        let d = design_for(seed);
        let grid = Grid::new(*d.region(), 8);
        let coarse = Coarsener::new(&ClusterParams::paper(grid.cell_area()))
            .coarsen(&d, &Placement::initial(&d));
        let assignment: Vec<_> = (0..coarse.macro_groups().len())
            .map(|g| grid.unflatten((g * 7 + seed as usize) % grid.cell_count()))
            .collect();
        let legal = mmp_legal::MacroLegalizer::new()
            .legalize(&d, &coarse, &assignment, &grid)
            .unwrap()
            .placement;
        let before = legal.hpwl(&d);
        let out = SwapRefiner::new(SwapRefineConfig { moves: 64, seed })
            .refine(&d, &legal, None);
        prop_assert_eq!(out.hpwl_before.to_bits(), before.to_bits());
        prop_assert!(out.hpwl_after <= before);
        prop_assert_eq!(out.hpwl_after.to_bits(), out.placement.hpwl(&d).to_bits());
        prop_assert!(out.placement.macro_overlap_area(&d) < 1e-6);
        prop_assert!(out.placement.macros_inside_region(&d));
    }
}
