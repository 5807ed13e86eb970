//! Visualize the flow's stages as SVG files: the analytical prototyping
//! placement, the legalized MCTS allocation, and the swap-refined
//! variant.
//!
//! ```sh
//! cargo run --release -p mmp-examples --bin visualize
//! ls mmp_viz_*.svg
//! ```

use mmp_core::{
    GlobalPlacer, GlobalPlacerConfig, MacroPlacer, PlacerConfig, SwapRefineConfig, SwapRefiner,
    SyntheticSpec,
};
use mmp_netlist::svg;
use std::fs::File;
use std::io::BufWriter;

fn save(design: &mmp_core::Design, pl: &mmp_core::Placement, path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    svg::write(
        design,
        pl,
        &svg::SvgOptions {
            macro_labels: true,
            ..svg::SvgOptions::default()
        },
        BufWriter::new(file),
    )?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = SyntheticSpec::small("viz", 10, 2, 16, 300, 500, true, 17).generate();

    // Stage 1: analytical mixed-size prototyping placement.
    let proto = GlobalPlacer::new(GlobalPlacerConfig::fast()).place_mixed(&design);
    save(&design, &proto, "mmp_viz_1_prototype.svg")?;
    println!(
        "prototype HPWL = {:.0} (overlapped macros allowed)",
        proto.hpwl(&design)
    );

    // Stage 2: the full RL + MCTS flow.
    let mut cfg = PlacerConfig::fast(8);
    cfg.trainer.episodes = 40;
    cfg.mcts.explorations = 64;
    let result = MacroPlacer::new(cfg).place(&design)?;
    save(&design, &result.placement, "mmp_viz_2_placed.svg")?;
    println!("placed HPWL    = {:.0} (legal)", result.hpwl);

    // Stage 3: optional seeded swap/relocate refinement.
    let refined =
        SwapRefiner::new(SwapRefineConfig::default()).refine(&design, &result.placement, None);
    save(&design, &refined.placement, "mmp_viz_3_refined.svg")?;
    println!(
        "refined HPWL   = {:.0} ({} of {} proposals accepted)",
        refined.hpwl_after, refined.accepted, refined.proposed
    );
    Ok(())
}
