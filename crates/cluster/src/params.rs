//! Clustering hyper-parameters (the user-specified constants of Eqs. 1–2).

use serde::{Deserialize, Serialize};

/// Parameters of the grouping score functions Γ (Eq. 1) and φ (Eq. 2).
///
/// The paper's experimental values are exposed by [`ClusterParams::paper`]:
/// ν = 0.001, δ = 0.001, ε = 0.0003, κ = 1 and ϱ = 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterParams {
    /// Score threshold ν: merging stops when the best pair score falls
    /// below this value.
    pub nu: f64,
    /// Hierarchy weight δ in Γ.
    pub delta: f64,
    /// Connectivity weight ε in Γ.
    pub epsilon: f64,
    /// Area-similarity weight κ in Γ.
    pub kappa: f64,
    /// Connectivity-per-area weight ϱ in φ.
    pub rho: f64,
    /// Area of one grid cell; a group whose area reaches this no longer
    /// participates in merging ("size of each group exceeds the size of a
    /// grid").
    pub grid_area: f64,
    /// Exact greedy pairwise clustering needs O(n²) memory and at least
    /// O(n²) time; above this many elements the cell clusterer switches to
    /// the bucketed approximation (macros never exceed it in the paper's
    /// benchmarks). See `cell_group` docs.
    pub exact_limit: usize,
}

impl ClusterParams {
    /// The paper's experimental parameter values over grid cells of
    /// `grid_area` µm².
    ///
    /// # Panics
    ///
    /// Panics if `grid_area` is not positive.
    pub fn paper(grid_area: f64) -> Self {
        assert!(grid_area > 0.0, "grid area must be positive");
        ClusterParams {
            nu: 0.001,
            delta: 0.001,
            epsilon: 0.0003,
            kappa: 1.0,
            rho: 1.0,
            grid_area,
            exact_limit: 2_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_section_ii_a() {
        let p = ClusterParams::paper(100.0);
        assert_eq!(p.nu, 0.001);
        assert_eq!(p.delta, 0.001);
        assert_eq!(p.epsilon, 0.0003);
        assert_eq!(p.kappa, 1.0);
        assert_eq!(p.rho, 1.0);
        assert_eq!(p.grid_area, 100.0);
    }

    #[test]
    #[should_panic(expected = "grid area")]
    fn zero_grid_area_panics() {
        let _ = ClusterParams::paper(0.0);
    }
}
