//! Cell grouping with the score function φ of Eq. 2.
//!
//! φ(gᵢ, gⱼ) = 1/ΔD + ϱ·w / (A(gᵢ) + A(gⱼ))
//!
//! Termination is identical to macro grouping: stop when every group
//! reaches one grid cell in area or the best score drops below ν.
//!
//! Exact greedy clustering keeps an n×n connectivity matrix and, per row of
//! candidate pairs, that row's best pair, so a merge costs O(n) plus a
//! rescan of the rows it invalidates; rescanning every pair after every
//! merge made the whole clustering O(n³). The paper's industrial designs
//! carry up to a million cells, so above [`ClusterParams::exact_limit`] we
//! fall back to a bucketed approximation: cells are binned by hierarchy
//! module and a coarse spatial grid, and filled area-first into groups of
//! one grid cell.
//! This preserves what φ optimises — spatial/hierarchical locality per unit
//! area — at O(n log n). The exact path is used (and tested) at small n.

use crate::params::ClusterParams;
use mmp_geom::Point;
use mmp_netlist::{CellId, Design, NetId, Placement};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A cluster of standard cells, used to anchor macro-group legalization and
/// coarse wirelength estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellGroup {
    /// Member cells.
    pub members: Vec<CellId>,
    /// Total member area (µm²).
    pub area: f64,
    /// Area-weighted centroid in the initial placement (µm).
    pub center: Point,
}

impl CellGroup {
    fn singleton(design: &Design, placement: &Placement, id: CellId) -> Self {
        CellGroup {
            members: vec![id],
            area: design.cell(id).area(),
            center: placement.cell_center(id),
        }
    }

    fn merged(a: &CellGroup, b: &CellGroup) -> CellGroup {
        let area = a.area + b.area;
        let center = Point::new(
            (a.center.x * a.area + b.center.x * b.area) / area,
            (a.center.y * a.area + b.center.y * b.area) / area,
        );
        let mut members = a.members.clone();
        members.extend_from_slice(&b.members);
        CellGroup {
            members,
            area,
            center,
        }
    }

    /// Number of member cells.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the group has no members (never produced by clustering).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Connectivity between two cell sets: total weight of nets touching both.
fn set_connectivity(design: &Design, a: &[CellId], b: &[CellId]) -> f64 {
    let mut nets_a: BTreeSet<NetId> = BTreeSet::new();
    for &c in a {
        for &n in design.nets_of_cell(c) {
            nets_a.insert(n);
        }
    }
    let mut total = 0.0;
    let mut counted: BTreeSet<NetId> = BTreeSet::new();
    for &c in b {
        for &n in design.nets_of_cell(c) {
            if nets_a.contains(&n) && counted.insert(n) {
                total += design.net(n).weight;
            }
        }
    }
    total
}

/// The score φ of Eq. 2 for a candidate merge.
fn phi(a: &CellGroup, b: &CellGroup, connectivity: f64, params: &ClusterParams) -> f64 {
    let dd = a.center.euclidean_distance(b.center).max(1e-9);
    1.0 / dd + params.rho * connectivity / (a.area + b.area)
}

/// The group in a slot when it may still merge: live, with its area below
/// one grid cell.
fn open<'g>(slot: Option<&'g Option<CellGroup>>, params: &ClusterParams) -> Option<&'g CellGroup> {
    let g = slot?.as_ref()?;
    if g.area >= params.grid_area {
        None
    } else {
        Some(g)
    }
}

/// Dense symmetric connectivity between groups, row-major. Only entries
/// between two live groups are read; [`Connectivity::merge`] keeps exactly
/// those current.
struct Connectivity {
    n: usize,
    weights: Vec<f64>,
}

impl Connectivity {
    /// Pairwise connectivity of the single cells: each unordered pair is
    /// computed once, row cell first, and mirrored.
    fn of_cells(design: &Design) -> Self {
        let n = design.cells().len();
        let mut conn = Connectivity {
            n,
            weights: vec![0.0; n * n],
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let w =
                    set_connectivity(design, &[CellId::from_index(i)], &[CellId::from_index(j)]);
                conn.set(i, j, w);
                conn.set(j, i, w);
            }
        }
        conn
    }

    fn row(&self, i: usize) -> &[f64] {
        self.weights
            .get(i * self.n..(i + 1) * self.n)
            .unwrap_or(&[])
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).get(j).copied().unwrap_or(0.0)
    }

    fn set(&mut self, i: usize, j: usize, w: f64) {
        if let Some(slot) = self.weights.get_mut(i * self.n + j) {
            *slot = w;
        }
    }

    /// Folds group `j` into group `i`: row `i` gains row `j` and column `i`
    /// mirrors the sums. Row and column `j` go stale with `j` dead.
    fn merge(&mut self, i: usize, j: usize) {
        let row_j = self.row(j).to_vec();
        let n = self.n;
        if let Some(row_i) = self.weights.get_mut(i * n..(i + 1) * n) {
            for (k, (w, wj)) in row_i.iter_mut().zip(&row_j).enumerate() {
                if k != i {
                    *w += wj;
                }
            }
        }
        let row_i = self.row(i).to_vec();
        for (k, w) in row_i.into_iter().enumerate() {
            if k != i {
                self.set(k, i, w);
            }
        }
    }
}

/// What the pair scan needs to know about row `i` of the candidate
/// triangle (pairs `(i, j)` with `j > i`, both groups open): its first
/// candidate, and the first occurrence of its largest non-NaN φ.
#[derive(Debug, Clone, Copy, Default)]
struct RowBest {
    first: Option<(usize, f64)>,
    best: Option<(usize, f64)>,
}

impl RowBest {
    /// Offers candidate `(i, j)` with score `s`. A tie goes to the smaller
    /// `j`, so a re-scored column can be offered out of order.
    fn offer(&mut self, j: usize, s: f64) {
        if self.first.is_none() {
            self.first = Some((j, s));
        }
        if !s.is_nan() && self.best.is_none_or(|(bj, b)| s > b || (s == b && j < bj)) {
            self.best = Some((j, s));
        }
    }

    /// `true` when either cached entry is column `k`.
    fn names(&self, k: usize) -> bool {
        [self.first, self.best]
            .into_iter()
            .flatten()
            .any(|(j, _)| j == k)
    }
}

/// Scores row `i` against every open group after it.
fn scan_row(
    i: usize,
    groups: &[Option<CellGroup>],
    conn: &Connectivity,
    params: &ClusterParams,
) -> RowBest {
    let mut row = RowBest::default();
    let Some(gi) = open(groups.get(i), params) else {
        return row;
    };
    for (j, (slot, &w)) in groups.iter().zip(conn.row(i)).enumerate().skip(i + 1) {
        if let Some(gj) = open(Some(slot), params) {
            row.offer(j, phi(gi, gj, w, params));
        }
    }
    row
}

/// The pair a full scan of the triangle in lexicographic order picks when
/// it keeps the first candidate and replaces it only on a strictly larger
/// φ: that first candidate when its φ is NaN, else the first occurrence of
/// the largest non-NaN φ.
fn pick(rows: &[RowBest]) -> Option<(usize, usize, f64)> {
    let (i0, (j0, s0)) = rows
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.first.map(|f| (i, f)))?;
    if s0.is_nan() {
        return Some((i0, j0, s0));
    }
    let mut best: Option<(usize, usize, f64)> = None;
    for (i, r) in rows.iter().enumerate().skip(i0) {
        if let Some((j, s)) = r.best {
            if best.is_none_or(|(_, _, b)| s > b) {
                best = Some((i, j, s));
            }
        }
    }
    best
}

/// Exact greedy clustering (small designs / tests): merge the best-scoring
/// pair until no open pair scores ν or more.
///
/// Each row of the pair triangle caches its [`RowBest`], so picking a pair
/// is one pass over the rows. After merging `(i, j)` only row `i` and the
/// rows whose cache named `i` or `j` are rescanned; every other row before
/// `i` compares the one re-scored pair `(k, i)`. The picks, and therefore
/// the groups, are those of rescanning every pair after every merge.
fn cluster_cells_exact(
    design: &Design,
    placement: &Placement,
    params: &ClusterParams,
) -> Vec<CellGroup> {
    let n = design.cells().len();
    let mut groups: Vec<Option<CellGroup>> = (0..n)
        .map(CellId::from_index)
        .map(|id| Some(CellGroup::singleton(design, placement, id)))
        .collect();
    let mut conn = Connectivity::of_cells(design);
    let mut rows: Vec<RowBest> = (0..n)
        .map(|i| scan_row(i, &groups, &conn, params))
        .collect();
    while let Some((i, j, score)) = pick(&rows) {
        if score < params.nu {
            break;
        }
        let (Some(Some(gi)), Some(Some(gj))) = (groups.get(i), groups.get(j)) else {
            break; // unreachable: `pick` only returns live indices
        };
        let merged = CellGroup::merged(gi, gj);
        if let Some(slot) = groups.get_mut(i) {
            *slot = Some(merged);
        }
        if let Some(slot) = groups.get_mut(j) {
            *slot = None;
        }
        conn.merge(i, j);
        let gi = open(groups.get(i), params);
        for (k, row) in rows.iter_mut().enumerate() {
            if k == i || k == j || row.names(i) || row.names(j) {
                *row = scan_row(k, &groups, &conn, params);
            } else if k < i {
                if let (Some(gk), Some(gi)) = (open(groups.get(k), params), gi) {
                    row.offer(i, phi(gk, gi, conn.get(k, i), params));
                }
            }
        }
    }
    groups.into_iter().flatten().collect()
}

/// Bucketed approximation for large designs.
fn cluster_cells_bucketed(
    design: &Design,
    placement: &Placement,
    params: &ClusterParams,
) -> Vec<CellGroup> {
    const SPATIAL_BINS: usize = 32;
    let region = design.region();
    let bin_of = |p: Point| -> (usize, usize) {
        let bx = (((p.x - region.x) / region.width * SPATIAL_BINS as f64) as usize)
            .min(SPATIAL_BINS - 1);
        let by = (((p.y - region.y) / region.height * SPATIAL_BINS as f64) as usize)
            .min(SPATIAL_BINS - 1);
        (bx, by)
    };
    // BTreeMap: bucket iteration order is the sorted key order, so the
    // group sequence is deterministic by construction.
    let mut buckets: BTreeMap<(String, usize, usize), Vec<CellId>> = BTreeMap::new();
    for i in 0..design.cells().len() {
        let id = CellId::from_index(i);
        let (bx, by) = bin_of(placement.cell_center(id));
        buckets
            .entry((design.cell(id).hierarchy.clone(), bx, by))
            .or_default()
            .push(id);
    }
    let mut out = Vec::new();
    for cells in buckets.values() {
        let mut current: Option<CellGroup> = None;
        for &id in cells {
            let single = CellGroup::singleton(design, placement, id);
            let grown = match current.take() {
                None => single,
                Some(g) => CellGroup::merged(&g, &single),
            };
            if grown.area >= params.grid_area {
                out.push(grown);
            } else {
                current = Some(grown);
            }
        }
        if let Some(rest) = current {
            // Fold a small tail into the previous group of the same bucket
            // when one exists; otherwise keep it as its own group.
            if rest.area < params.grid_area * 0.25 {
                if let Some(prev) = out.last_mut() {
                    *prev = CellGroup::merged(prev, &rest);
                    continue;
                }
            }
            out.push(rest);
        }
    }
    out
}

/// Groups the standard cells of `design` per Eq. 2.
///
/// Uses exact greedy clustering up to
/// [`ClusterParams::exact_limit`] cells and the documented bucketed
/// approximation beyond it. Every cell ends up in exactly one group.
pub fn cluster_cells(
    design: &Design,
    placement: &Placement,
    params: &ClusterParams,
) -> Vec<CellGroup> {
    if design.cells().len() <= params.exact_limit {
        cluster_cells_exact(design, placement, params)
    } else {
        cluster_cells_bucketed(design, placement, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmp_geom::Rect;
    use mmp_netlist::{iccad04_suite, industrial_suite, DesignBuilder, NodeRef, SyntheticSpec};
    use proptest::prelude::*;

    /// The exact clustering as it was before row caching: a full rescan of
    /// every open pair after every merge. The reference the cached scan
    /// must reproduce bit for bit.
    fn cluster_cells_exact_reference(
        design: &Design,
        placement: &Placement,
        params: &ClusterParams,
    ) -> Vec<CellGroup> {
        let n = design.cells().len();
        let ids: Vec<CellId> = (0..n).map(CellId::from_index).collect();
        let mut groups: Vec<Option<CellGroup>> = ids
            .iter()
            .map(|&id| Some(CellGroup::singleton(design, placement, id)))
            .collect();
        let mut conn: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let w = set_connectivity(design, &[ids[i]], &[ids[j]]);
                conn[i][j] = w;
                conn[j][i] = w;
            }
        }
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                let Some(gi) = groups[i].as_ref() else {
                    continue;
                };
                if gi.area >= params.grid_area {
                    continue;
                }
                for j in (i + 1)..n {
                    let Some(gj) = groups[j].as_ref() else {
                        continue;
                    };
                    if gj.area >= params.grid_area {
                        continue;
                    }
                    let score = phi(gi, gj, conn[i][j], params);
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((i, j, score));
                    }
                }
            }
            let Some((i, j, score)) = best else { break };
            if score < params.nu {
                break;
            }
            let merged =
                CellGroup::merged(groups[i].as_ref().unwrap(), groups[j].as_ref().unwrap());
            groups[i] = Some(merged);
            groups[j] = None;
            #[allow(clippy::needless_range_loop)]
            for k in 0..n {
                if k != i {
                    conn[i][k] += conn[j][k];
                    conn[k][i] = conn[i][k];
                }
                conn[j][k] = 0.0;
                conn[k][j] = 0.0;
            }
        }
        groups.into_iter().flatten().collect()
    }

    /// Asserts the cached scan equals the reference in members, and in
    /// area and center to the bit.
    fn assert_matches_reference(design: &Design, placement: &Placement, params: &ClusterParams) {
        let got = cluster_cells_exact(design, placement, params);
        let want = cluster_cells_exact_reference(design, placement, params);
        let name = design.name();
        assert_eq!(got.len(), want.len(), "{name}: group count");
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.members, w.members, "{name}: members of group {k}");
            assert_eq!(
                g.area.to_bits(),
                w.area.to_bits(),
                "{name}: area of group {k}"
            );
            assert_eq!(
                (g.center.x.to_bits(), g.center.y.to_bits()),
                (w.center.x.to_bits(), w.center.y.to_bits()),
                "{name}: center of group {k}"
            );
        }
    }

    /// Cells scattered over the region by a fixed hash of their index.
    fn scattered(design: &Design) -> Placement {
        let r = design.region();
        let mut pl = Placement::initial(design);
        for k in 0..design.cells().len() {
            let h = (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let fx = (h >> 40) as f64 / (1u64 << 24) as f64;
            let fy = ((h >> 16) & 0xFF_FFFF) as f64 / (1u64 << 24) as f64;
            pl.set_cell_center(
                CellId::from_index(k),
                Point::new(r.x + fx * r.width, r.y + fy * r.height),
            );
        }
        pl
    }

    #[test]
    fn cached_scan_matches_reference_on_the_suites() {
        let mut checked = 0;
        for spec in iccad04_suite().into_iter().chain(industrial_suite()) {
            for scale in [0.002, 0.003] {
                let d = spec.scaled(scale).generate();
                // The flow's grid (ζ = 8) sets the area a group may reach.
                let params = ClusterParams::paper(d.region().area() / 64.0);
                if d.cells().len() > params.exact_limit {
                    continue;
                }
                assert_matches_reference(&d, &scattered(&d), &params);
                checked += 1;
            }
        }
        assert!(checked >= 40, "only {checked} suite designs were checked");
    }

    #[test]
    fn cached_scan_matches_reference_when_every_cell_is_co_located() {
        // Placement::initial puts every cell at the region center, so the
        // distance term saturates and φ ties across whole rows.
        for spec in iccad04_suite().into_iter().take(3) {
            let d = spec.scaled(0.002).generate();
            let params = ClusterParams::paper(d.region().area() / 64.0);
            assert_matches_reference(&d, &Placement::initial(&d), &params);
        }
    }

    #[test]
    fn cached_scan_matches_reference_when_areas_underflow() {
        // 1e-200 × 1e-200 outlines pass the builder but their area is 0.0:
        // unconnected pairs score 0/0 = NaN and connected ones +inf, and
        // merged centers become NaN.
        let mut b = DesignBuilder::new("tiny", Rect::new(0.0, 0.0, 100.0, 100.0));
        let cells: Vec<CellId> = (0..12)
            .map(|k| b.add_cell(format!("c{k}"), 1e-200, 1e-200, ""))
            .collect();
        for (k, pair) in cells.chunks(3).enumerate() {
            let pins = pair.iter().map(|&c| (NodeRef::Cell(c), Point::ORIGIN));
            b.add_net(format!("n{k}"), pins, 1.0).unwrap();
        }
        let d = b.build().unwrap();
        assert_eq!(d.cell(cells[0]).area(), 0.0);
        let mut pl = scattered(&d);
        // Co-locate two cells so a zero distance meets a zero area.
        pl.set_cell_center(cells[5], pl.cell_center(cells[4]));
        for grid_area in [1e-300, 1.0] {
            assert_matches_reference(&d, &pl, &ClusterParams::paper(grid_area));
        }
        // Unconnected first pair: its NaN φ wins the first merge.
        let mut b = DesignBuilder::new("tiny_nan", Rect::new(0.0, 0.0, 100.0, 100.0));
        let cells: Vec<CellId> = (0..8)
            .map(|k| b.add_cell(format!("c{k}"), 1e-200, 1e-200, ""))
            .collect();
        let pins = [cells[1], cells[2]].map(|c| (NodeRef::Cell(c), Point::ORIGIN));
        b.add_net("n", pins, 1.0).unwrap();
        let d = b.build().unwrap();
        assert_matches_reference(&d, &scattered(&d), &ClusterParams::paper(1.0));
    }

    #[test]
    fn cached_scan_matches_reference_when_a_rescored_pair_ties_the_row_best() {
        // Five co-located unit cells, so φ = 1/1e-9 + connectivity / area.
        // (2, 3) merges first; row 0 caches (0, 4) at 4/2, and merging
        // re-scores (0, 2) to (3 + 3)/3: an exact tie that the smaller
        // column must win, as it does in the full scan.
        let mut b = DesignBuilder::new("tie", Rect::new(0.0, 0.0, 10.0, 10.0));
        let c: Vec<CellId> = (0..5)
            .map(|k| b.add_cell(format!("c{k}"), 1.0, 1.0, ""))
            .collect();
        for (k, (u, v, w)) in [(0, 2, 3.0), (0, 3, 3.0), (0, 4, 4.0), (2, 3, 10.0)]
            .into_iter()
            .enumerate()
        {
            let pins = [c[u], c[v]].map(|id| (NodeRef::Cell(id), Point::ORIGIN));
            b.add_net(format!("n{k}"), pins, w).unwrap();
        }
        let d = b.build().unwrap();
        assert_matches_reference(&d, &Placement::initial(&d), &ClusterParams::paper(100.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Small designs on a coarse lattice with two cell sizes and two
        /// net weights: co-located, equal-area cells make φ tie, and the
        /// cached scan must still pick what the full scan picks.
        #[test]
        fn cached_scan_matches_reference_under_ties(
            cells in proptest::collection::vec((0u8..3, 0u8..3, 1u8..3), 2..36),
            nets in proptest::collection::vec(
                (proptest::collection::vec(0usize..36, 2..4), 1u8..3),
                0..30,
            ),
            grid_area in 0usize..3,
        ) {
            let mut b = DesignBuilder::new("ties", Rect::new(0.0, 0.0, 90.0, 90.0));
            let ids: Vec<CellId> = cells
                .iter()
                .enumerate()
                .map(|(k, &(_, _, h))| b.add_cell(format!("c{k}"), 1.0, f64::from(h), ""))
                .collect();
            for (k, (pins, weight)) in nets.iter().enumerate() {
                let pins = pins
                    .iter()
                    .map(|&p| (NodeRef::Cell(ids[p % ids.len()]), Point::ORIGIN));
                b.add_net(format!("n{k}"), pins, f64::from(*weight)).unwrap();
            }
            let d = b.build().unwrap();
            let mut pl = Placement::initial(&d);
            for (k, &(x, y, _)) in cells.iter().enumerate() {
                pl.set_cell_center(
                    ids[k],
                    Point::new(15.0 + 30.0 * f64::from(x), 15.0 + 30.0 * f64::from(y)),
                );
            }
            let grid_area = [2.5, 4.0, 9.0][grid_area];
            assert_matches_reference(&d, &pl, &ClusterParams::paper(grid_area));
        }
    }

    #[test]
    fn empty_design_yields_no_groups() {
        let d = DesignBuilder::new("e", Rect::new(0.0, 0.0, 10.0, 10.0))
            .build()
            .unwrap();
        let pl = Placement::initial(&d);
        assert!(cluster_cells(&d, &pl, &ClusterParams::paper(1.0)).is_empty());
    }

    #[test]
    fn connected_nearby_cells_merge_first() {
        let mut b = DesignBuilder::new("c", Rect::new(0.0, 0.0, 1000.0, 1000.0));
        let c0 = b.add_cell("c0", 1.0, 1.0, "");
        let c1 = b.add_cell("c1", 1.0, 1.0, "");
        let c2 = b.add_cell("c2", 1.0, 1.0, "");
        b.add_net(
            "n",
            [
                (NodeRef::Cell(c0), Point::ORIGIN),
                (NodeRef::Cell(c1), Point::ORIGIN),
            ],
            1.0,
        )
        .unwrap();
        let d = b.build().unwrap();
        let mut pl = Placement::initial(&d);
        pl.set_cell_center(c0, Point::new(10.0, 10.0));
        pl.set_cell_center(c1, Point::new(11.0, 10.0));
        pl.set_cell_center(c2, Point::new(900.0, 900.0));
        // grid area 2: a merged pair (area 2) stops merging.
        let gs = cluster_cells(&d, &pl, &ClusterParams::paper(2.0));
        let g0 = gs.iter().find(|g| g.members.contains(&c0)).unwrap();
        assert!(g0.members.contains(&c1));
        assert!(!g0.members.contains(&c2));
    }

    #[test]
    fn every_cell_in_exactly_one_group_exact() {
        let d = SyntheticSpec::small("x", 4, 0, 8, 120, 200, true, 13).generate();
        let pl = Placement::initial(&d);
        let params = ClusterParams::paper(d.region().area() / 256.0);
        assert!(d.cells().len() <= params.exact_limit);
        let gs = cluster_cells(&d, &pl, &params);
        let mut all: Vec<CellId> = gs.iter().flat_map(|g| g.members.clone()).collect();
        all.sort();
        let expected: Vec<CellId> = (0..d.cells().len()).map(CellId::from_index).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn every_cell_in_exactly_one_group_bucketed() {
        let d = SyntheticSpec::small("b", 4, 0, 8, 500, 700, true, 13).generate();
        let pl = Placement::initial(&d);
        let mut params = ClusterParams::paper(d.region().area() / 256.0);
        params.exact_limit = 100; // force bucketed path
        let gs = cluster_cells(&d, &pl, &params);
        let mut all: Vec<CellId> = gs.iter().flat_map(|g| g.members.clone()).collect();
        all.sort();
        let expected: Vec<CellId> = (0..d.cells().len()).map(CellId::from_index).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn bucketed_groups_respect_hierarchy() {
        let mut b = DesignBuilder::new("h", Rect::new(0.0, 0.0, 100.0, 100.0));
        for i in 0..10 {
            b.add_cell(format!("a{i}"), 1.0, 1.0, "top/a");
            b.add_cell(format!("b{i}"), 1.0, 1.0, "top/b");
        }
        let d = b.build().unwrap();
        let pl = Placement::initial(&d);
        let mut params = ClusterParams::paper(5.0);
        params.exact_limit = 0; // force bucketed path
        let gs = cluster_cells(&d, &pl, &params);
        for g in &gs {
            let hiers: std::collections::BTreeSet<&str> = g
                .members
                .iter()
                .map(|&c| d.cell(c).hierarchy.as_str())
                .collect();
            assert_eq!(hiers.len(), 1, "bucketed group mixes hierarchies");
        }
    }

    #[test]
    fn group_areas_are_bounded() {
        let d = SyntheticSpec::small("a", 4, 0, 8, 300, 500, false, 5).generate();
        let pl = Placement::initial(&d);
        let grid_area = d.region().area() / 256.0;
        let mut params = ClusterParams::paper(grid_area);
        params.exact_limit = 1_000;
        let gs = cluster_cells(&d, &pl, &params);
        let max_cell_area = d.cells().iter().map(|c| c.area()).fold(0.0f64, f64::max);
        for g in &gs {
            // One merge can overshoot by at most one grid-area (the partner
            // group was itself < grid_area), plus tail folding by 25%.
            assert!(
                g.area <= 2.0 * grid_area + max_cell_area + grid_area * 0.25,
                "group area {} too large (grid {})",
                g.area,
                grid_area
            );
        }
    }

    #[test]
    fn merged_center_is_area_weighted() {
        let a = CellGroup {
            members: vec![CellId(0)],
            area: 1.0,
            center: Point::new(0.0, 0.0),
        };
        let b = CellGroup {
            members: vec![CellId(1)],
            area: 3.0,
            center: Point::new(8.0, 4.0),
        };
        let m = CellGroup::merged(&a, &b);
        assert_eq!(m.center, Point::new(6.0, 3.0));
        assert_eq!(m.area, 4.0);
        assert_eq!(m.len(), 2);
    }
}
