#![warn(missing_docs)]
// Hardened crate: panicking extractors are denied in CI on library code
// (tests and benches may unwrap freely). Justified invariant `expect`s
// carry explicit allows at the call site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Structured output goes through mmp_obs; stray prints are denied in CI
// (the obs sinks and bin/ targets are the sanctioned exits).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Macro legalization for the MMP placer (Sec. II-B of the paper).
//!
//! After RL/MCTS allocates macro groups to grid cells, exact legal macro
//! locations are found in three steps:
//!
//! 1. **Cell-group QP** — cell groups placed by quadratic programming with
//!    macro groups fixed at their grid centers ([`MacroLegalizer::place_cell_groups`](flow::MacroLegalizer::place_cell_groups)).
//! 2. **Macro QP** — groups are decomposed; individual macros placed by QP
//!    with cell groups fixed, each macro confined to its group's grid
//!    ([`MacroLegalizer::place_macros_in_grids`](flow::MacroLegalizer::place_macros_in_grids)).
//! 3. **Overlap removal** — geometric relations are captured by a *sequence
//!    pair* (S⁺, S⁻) [Murata et al.] ([`SequencePair`]); overlaps are removed
//!    while minimising wirelength by a convex piecewise-linear descent over
//!    the sequence-pair constraint graphs ([`optimize_axis`]) — our
//!    equivalent of the LP of Eq. 3 / [Tang et al.] (x and y are solved
//!    independently, as the paper notes).
//!
//! [`MacroLegalizer`] drives all three steps.

pub mod constraint;
pub mod fallback;
pub mod flip;
pub mod flow;
pub mod median;
pub mod sequence_pair;
pub mod swap_refine;

pub use constraint::{pack, ConstraintGraph};
pub use fallback::{shelf_pack, ShelfItem, ShelfOutcome, ShelfPlacement};
pub use flip::{optimize_orientations, FlipOutcome};
pub use flow::{LegalizeError, LegalizeOutcome, MacroLegalizer};
pub use median::{optimize_axis, weighted_median, AxisTarget};
pub use sequence_pair::{Relation, SequencePair};
pub use swap_refine::{SwapRefineConfig, SwapRefineOutcome, SwapRefiner};
