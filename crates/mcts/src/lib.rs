#![warn(missing_docs)]
// Hardened crate: panicking extractors are denied in CI on library code
// (tests and benches may unwrap freely). Justified invariant `expect`s
// carry explicit allows at the call site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Structured output goes through mmp_obs; stray prints are denied in CI
// (the obs sinks and bin/ targets are the sanctioned exits).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Placement optimization by MCTS (paper Sec. IV).
//!
//! One search tree per design: each node is a partial macro-group
//! allocation, each edge carries the AlphaZero-style statistics
//! ⟨N, P, W, Q⟩. Per macro group, γ *explorations* are run — selection by
//! PUCT (Eqs. 10–11, c = 1.05), expansion with priors from the pre-trained
//! π_θ, **evaluation by V_θ for non-terminal leaves** (the paper's runtime
//! trick: the real legalize-and-place pipeline runs only at terminal
//! leaves), and backpropagation of the value along the path (Eq. 12). The
//! most-visited child becomes the next state, and the final allocation is
//! read off the path from the root (Algorithm 1, lines 11–15).
//!
//! # Example
//!
//! ```
//! use mmp_mcts::{MctsConfig, MctsPlacer};
//! use mmp_netlist::SyntheticSpec;
//! use mmp_rl::{Trainer, TrainerConfig};
//!
//! let design = SyntheticSpec::small("m", 6, 0, 8, 40, 70, false, 3).generate();
//! let mut cfg = TrainerConfig::tiny(4);
//! cfg.episodes = 3;
//! let trainer = Trainer::new(&design, cfg);
//! let out = trainer.train();
//! let mcts = MctsPlacer::new(MctsConfig { explorations: 8, ..MctsConfig::default() });
//! let result = mcts.place(&trainer, &out.agent, &out.scale);
//! assert_eq!(result.assignment.len(), trainer.coarse().macro_groups().len());
//! ```

pub mod ensemble;
pub mod search;
pub mod tree;

pub use ensemble::{
    place_ensemble, place_ensemble_with_deadline, EnsembleConfig, EnsembleError, EnsembleOutcome,
};
pub use search::{
    MctsConfig, MctsOutcome, MctsPlacer, SearchCheckpoint, SearchCheckpointSink, SearchStats,
    SEARCH_CHECKPOINT_GROUPS,
};
pub use tree::{EdgeStats, SearchTree};
