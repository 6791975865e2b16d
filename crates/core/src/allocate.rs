//! Sensor allocation algorithms.
//!
//! * [`GreedyAllocator`] — Algorithm 1 of the paper: correlation-driven row
//!   elimination that (near-)minimizes the condition number of the sensing
//!   matrix `Ψ̃_K`.
//! * [`EnergyCenterAllocator`] — the energy-oriented baseline of Nowroz et
//!   al. (DAC 2010): recursive energy-weighted bisection with one sensor at
//!   each region's energy centroid.
//! * [`UniformGridAllocator`], [`RandomAllocator`] — reference layouts.
//! * [`ExhaustiveAllocator`] — brute-force optimum, feasible only for tiny
//!   grids; used by tests to certify the greedy algorithm's quality.
//!
//! All allocators honor a placement [`Mask`] (the Fig. 6 constraint
//! experiment) by restricting their candidate set up front.

use eigenmaps_linalg::{cond, singular_values, vecops, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::{CoreError, Result};
use crate::sensors::{Mask, SensorSet};

/// Everything an allocator may consult: the approximation basis, the
/// per-cell activity (energy) map, the grid shape and the placement mask.
#[derive(Debug, Clone, Copy)]
pub struct AllocationInput<'a> {
    /// The `N × K` basis matrix `Ψ_K` the reconstructor will use.
    pub basis: &'a Matrix,
    /// Per-cell thermal activity (temporal variance over the design-time
    /// ensemble); drives the energy-center baseline.
    pub energy: &'a [f64],
    /// Grid height `H`.
    pub rows: usize,
    /// Grid width `W`.
    pub cols: usize,
    /// Placement constraint.
    pub mask: &'a Mask,
}

impl AllocationInput<'_> {
    fn validate(&self, m: usize) -> Result<()> {
        let n = self.rows * self.cols;
        if self.basis.rows() != n {
            return Err(CoreError::ShapeMismatch {
                context: "allocation basis rows",
                expected: n,
                found: self.basis.rows(),
            });
        }
        if self.energy.len() != n {
            return Err(CoreError::ShapeMismatch {
                context: "allocation energy map",
                expected: n,
                found: self.energy.len(),
            });
        }
        if m == 0 {
            return Err(CoreError::InvalidArgument {
                context: "allocate: m must be positive",
            });
        }
        let allowed = self.mask.allowed_count();
        if allowed < m {
            return Err(CoreError::MaskTooRestrictive {
                allowed,
                requested: m,
            });
        }
        Ok(())
    }
}

/// A sensor-placement strategy.
///
/// Object-safe so evaluation harnesses can sweep heterogeneous strategy
/// lists (Fig. 5 compares two of them across two reconstructors).
pub trait SensorAllocator {
    /// Short name for tables and figures.
    fn name(&self) -> &'static str;

    /// Chooses `m` sensor locations.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] if `m == 0`.
    /// * [`CoreError::MaskTooRestrictive`] if the mask allows fewer than
    ///   `m` cells.
    /// * [`CoreError::ShapeMismatch`] if the input pieces disagree.
    fn allocate(&self, input: &AllocationInput<'_>, m: usize) -> Result<SensorSet>;
}

/// Algorithm 1 of the paper: iterative removal of the most-correlated basis
/// row.
///
/// 1. Normalize the rows of `Ψ_K` to unit norm (matrix `U`).
/// 2. Compute `G = U Uᵀ − I` over the allowed rows.
/// 3. Until `M` rows remain: find the largest `|G[i,j]|`, remove the row
///    (of `i`, `j`) with the larger total correlation, and drop it from
///    `G`. If the removal would make the sensing matrix rank-deficient,
///    restore it and remove the next candidate instead.
///
/// Two engineering refinements over the paper's listing (both
/// configurable):
///
/// * **Lazy guarding.** The rank/conditioning guard is only engaged once
///   the candidate count falls below `endgame_threshold` (default
///   `M + max(M/2, 8)`): with thousands of candidate rows spanning a
///   `K`-dimensional space, removing one row cannot realistically drop the
///   rank, and checking would dominate the runtime.
/// * **Condition-number endgame** ([`Endgame::MinCondition`], the
///   default). Below the threshold, each removal is chosen to directly
///   minimize the condition number of the surviving sensing matrix — the
///   paper's actual objective. Pairwise correlation alone
///   ([`Endgame::CorrelationOnly`], the paper-literal rule with the rank
///   guard of step 3d) can terminate at `M = K` with a numerically
///   near-singular matrix, because small pairwise correlations do not
///   imply joint linear independence. The `ablation_endgame` bench
///   quantifies the difference.
#[derive(Debug, Clone)]
pub struct GreedyAllocator {
    endgame_threshold: Option<usize>,
    endgame: Endgame,
}

/// Endgame policy of [`GreedyAllocator`] once few candidate rows remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Endgame {
    /// Remove the row whose removal leaves the best-conditioned sensing
    /// matrix (direct κ minimization; default).
    #[default]
    MinCondition,
    /// The paper-literal rule: keep removing by max pairwise correlation,
    /// with the step-3d rank guard (restore + try next on rank loss).
    CorrelationOnly,
}

impl GreedyAllocator {
    /// Creates the allocator with the default policy
    /// ([`Endgame::MinCondition`], lazy guard threshold `4K + M`).
    pub fn new() -> Self {
        GreedyAllocator {
            endgame_threshold: None,
            endgame: Endgame::MinCondition,
        }
    }

    /// Overrides when the endgame starts (`usize::MAX` = from the very
    /// first removal).
    pub fn with_endgame_threshold(mut self, threshold: usize) -> Self {
        self.endgame_threshold = Some(threshold);
        self
    }

    /// Selects the endgame policy.
    pub fn with_endgame(mut self, endgame: Endgame) -> Self {
        self.endgame = endgame;
        self
    }
}

impl Default for GreedyAllocator {
    fn default() -> Self {
        GreedyAllocator::new()
    }
}

impl SensorAllocator for GreedyAllocator {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn allocate(&self, input: &AllocationInput<'_>, m: usize) -> Result<SensorSet> {
        input.validate(m)?;
        let k = input.basis.cols();
        let candidates = input.mask.allowed_indices();
        let nc = candidates.len();
        if nc == m {
            return SensorSet::new(input.rows, input.cols, candidates);
        }

        // Step 1: normalized rows U (zero rows stay zero and are removed
        // first — they carry no information at all).
        let mut u = input.basis.select_rows(&candidates)?;
        for i in 0..nc {
            let row = u.row_mut(i);
            let norm = vecops::norm2(row);
            if norm > 0.0 {
                vecops::scale(1.0 / norm, row);
            }
        }

        // Step 2: G = U Uᵀ − I (stored dense; N_candidates² doubles).
        let mut g = correlations(&u)?;

        let mut alive: Vec<bool> = vec![true; nc];
        // Zero-norm rows are useless; mark their correlation as +inf so
        // they are evicted first.
        for (i, &cand) in candidates.iter().enumerate() {
            let _ = cand;
            let norm = vecops::norm2(u.row(i));
            if norm == 0.0 {
                for j in 0..nc {
                    if j != i {
                        g[(i, j)] = f64::INFINITY;
                        g[(j, i)] = f64::INFINITY;
                    }
                }
            }
        }

        // Per-row maxima for fast argmax maintenance.
        let mut row_max: Vec<(f64, usize)> = (0..nc).map(|i| row_abs_max(&g, &alive, i)).collect();

        // Default endgame window: ~1.5 M candidates (at least M + 8). Small
        // enough that the O(window²) SVDs of the MinCondition endgame stay
        // negligible, large enough to always escape a degenerate tail.
        let threshold = self.endgame_threshold.unwrap_or_else(|| m + (m / 2).max(8));
        let mut remaining = nc;
        let mut banned: Vec<bool> = vec![false; nc]; // rows protected after failed removal

        // Phase 1: fast correlation-driven elimination down to the endgame
        // threshold (no guards needed at this density of candidates).
        while remaining > m && remaining > threshold {
            let Some(victim) = correlation_victim(&g, &alive, &banned, &row_max) else {
                break;
            };
            alive[victim] = false;
            remaining -= 1;
            for i in 0..nc {
                if alive[i] && (row_max[i].1 == victim || row_max[i].0.is_infinite()) {
                    row_max[i] = row_abs_max(&g, &alive, i);
                }
            }
        }

        // Phase 2: guarded endgame.
        while remaining > m {
            let victim = match self.endgame {
                Endgame::MinCondition => {
                    // Try every alive row; keep the removal leaving the
                    // smallest condition number.
                    let mut best: Option<(f64, usize)> = None;
                    for v in 0..nc {
                        if !alive[v] {
                            continue;
                        }
                        alive[v] = false;
                        let sensing = input_matrix(input.basis, &candidates, &alive)?;
                        let kappa = cond(&sensing)?;
                        alive[v] = true;
                        if best.is_none_or(|(bk, _)| kappa < bk) {
                            best = Some((kappa, v));
                        }
                    }
                    match best {
                        Some((kappa, v)) if kappa.is_finite() => v,
                        // Every single removal destroys the rank: stop
                        // above M rather than return a useless layout.
                        _ => break,
                    }
                }
                Endgame::CorrelationOnly => {
                    let Some(victim) = correlation_victim(&g, &alive, &banned, &row_max) else {
                        break; // everything removable is banned
                    };
                    // Rank guard (Algorithm 1, step 3d): tentatively
                    // remove, restore + ban on rank loss.
                    alive[victim] = false;
                    let sensing = input_matrix(input.basis, &candidates, &alive)?;
                    let rank = sensing_rank(&sensing, input.basis.rows());
                    alive[victim] = true;
                    if rank < k.min(remaining - 1) {
                        banned[victim] = true;
                        continue;
                    }
                    victim
                }
            };
            alive[victim] = false;
            remaining -= 1;
            for i in 0..nc {
                if alive[i] && (row_max[i].1 == victim || row_max[i].0.is_infinite()) {
                    row_max[i] = row_abs_max(&g, &alive, i);
                }
            }
        }

        let chosen: Vec<usize> = candidates
            .iter()
            .zip(alive.iter())
            .filter_map(|(&c, &a)| a.then_some(c))
            .collect();
        SensorSet::new(input.rows, input.cols, chosen)
    }
}

/// `G = U Uᵀ − I` for the row-normalized `U`. Only the blocks on and above
/// the diagonal are multiplied (with `matmul`, so each entry is the
/// ascending-`k` sum that skips `u_ik = 0`); the rest is mirrored.
/// `u_ik·u_jk` and `u_jk·u_ik` are the same IEEE product, and a skipped
/// term only ever adds ±0 to a sum that cannot be −0, so for a finite `U`
/// the mirror holds the full product's bits.
fn correlations(u: &Matrix) -> Result<Matrix> {
    const BLOCK: usize = 64;
    let (nc, k) = u.shape();
    let mut g = Matrix::zeros(nc, nc);
    for i0 in (0..nc).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(nc);
        let rows = Matrix::from_fn(i1 - i0, k, |i, c| u[(i0 + i, c)]);
        let cols = Matrix::from_fn(k, nc - i0, |c, j| u[(i0 + j, c)]);
        let block = rows.matmul(&cols)?;
        for i in i0..i1 {
            g.row_mut(i)[i..].copy_from_slice(&block.row(i - i0)[i - i0..]);
            g[(i, i)] = 0.0;
        }
    }
    for j0 in (0..nc).step_by(BLOCK) {
        for i0 in (j0..nc).step_by(BLOCK) {
            for i in i0..(i0 + BLOCK).min(nc) {
                for j in j0..(j0 + BLOCK).min(i) {
                    g[(i, j)] = g[(j, i)];
                }
            }
        }
    }
    Ok(g)
}

/// The paper's removal rule: the row of the largest `|G[i,j]|` with the
/// larger total correlation. `None` when no alive, unbanned row remains.
fn correlation_victim(
    g: &Matrix,
    alive: &[bool],
    banned: &[bool],
    row_max: &[(f64, usize)],
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for i in 0..alive.len() {
        if alive[i] && !banned[i] {
            let (v, _) = row_max[i];
            if best.is_none_or(|(bv, _)| v > bv) {
                best = Some((v, i));
            }
        }
    }
    let (_, i_max) = best?;
    let j_max = row_max[i_max].1;
    if banned[j_max] || !alive[j_max] {
        return Some(i_max);
    }
    if total_abs(g, alive, i_max) >= total_abs(g, alive, j_max) {
        Some(i_max)
    } else {
        Some(j_max)
    }
}

fn row_abs_max(g: &Matrix, alive: &[bool], i: usize) -> (f64, usize) {
    let mut best = (f64::NEG_INFINITY, i);
    for (j, (&a, &gij)) in alive.iter().zip(g.row(i)).enumerate() {
        if a && j != i {
            let v = gij.abs();
            if v > best.0 {
                best = (v, j);
            }
        }
    }
    best
}

fn total_abs(g: &Matrix, alive: &[bool], i: usize) -> f64 {
    let mut acc = 0.0;
    for (j, (&a, &gij)) in alive.iter().zip(g.row(i)).enumerate() {
        if a && j != i {
            let v = gij.abs();
            if v.is_finite() {
                acc += v;
            } else {
                return f64::INFINITY;
            }
        }
    }
    acc
}

fn input_matrix(basis: &Matrix, candidates: &[usize], alive: &[bool]) -> Result<Matrix> {
    let rows: Vec<usize> = candidates
        .iter()
        .zip(alive.iter())
        .filter_map(|(&c, &a)| a.then_some(c))
        .collect();
    Ok(basis.select_rows(&rows)?)
}

/// Numerical rank of a sensing matrix with an absolute tolerance anchored
/// to the orthonormal-basis scale (`N·ε`), matching the reconstructor's
/// rank test — a relative tolerance would call a uniformly tiny matrix
/// "full rank".
fn sensing_rank(sensing: &Matrix, basis_rows: usize) -> usize {
    let tol = basis_rows.max(sensing.rows()) as f64 * f64::EPSILON;
    match singular_values(sensing) {
        Ok(s) => s.iter().filter(|&&s| s > tol).count(),
        Err(_) => 0,
    }
}

/// The energy-center baseline (Nowroz et al., DAC 2010): recursively
/// bisect the die into `M` regions along the longer axis at the
/// energy-weighted median, then drop one sensor at each region's energy
/// centroid (snapped to the nearest allowed cell).
#[derive(Debug, Clone, Default)]
pub struct EnergyCenterAllocator;

impl EnergyCenterAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        EnergyCenterAllocator
    }
}

#[derive(Debug, Clone, Copy)]
struct Region {
    r0: usize,
    r1: usize, // exclusive
    c0: usize,
    c1: usize, // exclusive
    energy: f64,
}

impl SensorAllocator for EnergyCenterAllocator {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn allocate(&self, input: &AllocationInput<'_>, m: usize) -> Result<SensorSet> {
        input.validate(m)?;
        let (rows, cols) = (input.rows, input.cols);
        let cell_energy = |r: usize, c: usize| input.energy[r + c * rows].max(0.0);

        let region_energy = |rg: &Region| -> f64 {
            let mut e = 0.0;
            for c in rg.c0..rg.c1 {
                for r in rg.r0..rg.r1 {
                    e += cell_energy(r, c);
                }
            }
            e
        };

        let whole = {
            let mut rg = Region {
                r0: 0,
                r1: rows,
                c0: 0,
                c1: cols,
                energy: 0.0,
            };
            rg.energy = region_energy(&rg);
            rg
        };
        let mut regions = vec![whole];

        // Split the highest-energy splittable region until M regions exist.
        while regions.len() < m {
            regions.sort_by(|a, b| b.energy.partial_cmp(&a.energy).expect("finite energy"));
            let idx = regions
                .iter()
                .position(|rg| (rg.r1 - rg.r0) * (rg.c1 - rg.c0) > 1)
                .ok_or(CoreError::InvalidArgument {
                    context: "energy-center: grid has fewer cells than sensors",
                })?;
            let rg = regions.remove(idx);
            let (a, b) = split_region(&rg, &cell_energy);
            let mut a = a;
            let mut b = b;
            a.energy = region_energy(&a);
            b.energy = region_energy(&b);
            regions.push(a);
            regions.push(b);
        }

        // Energy centroid of each region, snapped to nearest allowed cell.
        let mut chosen = Vec::with_capacity(m);
        for rg in &regions {
            let mut er = 0.0;
            let mut ec = 0.0;
            let mut tot = 0.0;
            for c in rg.c0..rg.c1 {
                for r in rg.r0..rg.r1 {
                    let e = cell_energy(r, c) + 1e-12; // uniform tiebreak
                    er += e * r as f64;
                    ec += e * c as f64;
                    tot += e;
                }
            }
            let r = (er / tot).round() as usize;
            let c = (ec / tot).round() as usize;
            if let Some(cell) = nearest_allowed(input.mask, rows, cols, r, c, &chosen) {
                chosen.push(cell);
            }
        }
        // Collisions/snapping may leave fewer than m; pad with the highest-
        // energy remaining allowed cells.
        if chosen.len() < m {
            let mut rest: Vec<usize> = input
                .mask
                .allowed_indices()
                .into_iter()
                .filter(|i| !chosen.contains(i))
                .collect();
            rest.sort_by(|&a, &b| {
                input.energy[b]
                    .partial_cmp(&input.energy[a])
                    .expect("finite energy")
            });
            chosen.extend(rest.into_iter().take(m - chosen.len()));
        }
        SensorSet::new(input.rows, input.cols, chosen)
    }
}

fn split_region(rg: &Region, cell_energy: &impl Fn(usize, usize) -> f64) -> (Region, Region) {
    let height = rg.r1 - rg.r0;
    let width = rg.c1 - rg.c0;
    if height >= width {
        // Split along rows at the energy-weighted median row.
        let mut acc = 0.0;
        let mut cum = Vec::with_capacity(height);
        for r in rg.r0..rg.r1 {
            for c in rg.c0..rg.c1 {
                acc += cell_energy(r, c) + 1e-12;
            }
            cum.push(acc);
        }
        let half = acc / 2.0;
        let split = cum.iter().position(|&v| v >= half).unwrap_or(height / 2);
        let cut = (rg.r0 + split + 1).min(rg.r1 - 1).max(rg.r0 + 1);
        (
            Region {
                r1: cut,
                energy: 0.0,
                ..*rg
            },
            Region {
                r0: cut,
                energy: 0.0,
                ..*rg
            },
        )
    } else {
        let mut acc = 0.0;
        let mut cum = Vec::with_capacity(width);
        for c in rg.c0..rg.c1 {
            for r in rg.r0..rg.r1 {
                acc += cell_energy(r, c) + 1e-12;
            }
            cum.push(acc);
        }
        let half = acc / 2.0;
        let split = cum.iter().position(|&v| v >= half).unwrap_or(width / 2);
        let cut = (rg.c0 + split + 1).min(rg.c1 - 1).max(rg.c0 + 1);
        (
            Region {
                c1: cut,
                energy: 0.0,
                ..*rg
            },
            Region {
                c0: cut,
                energy: 0.0,
                ..*rg
            },
        )
    }
}

/// Breadth-first search for the nearest allowed, unused cell to `(r, c)`.
fn nearest_allowed(
    mask: &Mask,
    rows: usize,
    cols: usize,
    r: usize,
    c: usize,
    used: &[usize],
) -> Option<usize> {
    let target = |rr: usize, cc: usize| rr + cc * rows;
    let mut best: Option<(usize, usize)> = None; // (dist², cell)
    for cc in 0..cols {
        for rr in 0..rows {
            let cell = target(rr, cc);
            if mask.is_allowed(cell) && !used.contains(&cell) {
                let dr = rr as isize - r as isize;
                let dc = cc as isize - c as isize;
                let d = (dr * dr + dc * dc) as usize;
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, cell));
                }
            }
        }
    }
    best.map(|(_, cell)| cell)
}

/// Evenly spaced sensors on a sub-lattice (the grid-based placement of
/// Long et al., TACO 2008 — a common engineering default).
#[derive(Debug, Clone, Default)]
pub struct UniformGridAllocator;

impl UniformGridAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        UniformGridAllocator
    }
}

impl SensorAllocator for UniformGridAllocator {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn allocate(&self, input: &AllocationInput<'_>, m: usize) -> Result<SensorSet> {
        input.validate(m)?;
        let (rows, cols) = (input.rows, input.cols);
        // Pick a near-square sub-lattice with at least m points, then keep
        // the m nearest-to-lattice allowed cells.
        let aspect = cols as f64 / rows as f64;
        let gr = ((m as f64 / aspect).sqrt().ceil() as usize).clamp(1, rows);
        let gc = ((m as f64 / gr as f64).ceil() as usize).clamp(1, cols);
        let mut chosen = Vec::with_capacity(m);
        'outer: for a in 0..gr {
            for b in 0..gc {
                let r = ((a as f64 + 0.5) / gr as f64 * rows as f64).floor() as usize;
                let c = ((b as f64 + 0.5) / gc as f64 * cols as f64).floor() as usize;
                if let Some(cell) = nearest_allowed(
                    input.mask,
                    rows,
                    cols,
                    r.min(rows - 1),
                    c.min(cols - 1),
                    &chosen,
                ) {
                    chosen.push(cell);
                    if chosen.len() == m {
                        break 'outer;
                    }
                }
            }
        }
        SensorSet::new(rows, cols, chosen)
    }
}

/// Uniformly random allowed cells — the floor any smart allocator must
/// beat. Deterministic given the seed.
#[derive(Debug, Clone)]
pub struct RandomAllocator {
    seed: u64,
}

impl RandomAllocator {
    /// Creates the allocator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomAllocator { seed }
    }
}

impl SensorAllocator for RandomAllocator {
    fn name(&self) -> &'static str {
        "random"
    }

    fn allocate(&self, input: &AllocationInput<'_>, m: usize) -> Result<SensorSet> {
        input.validate(m)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut cells = input.mask.allowed_indices();
        cells.shuffle(&mut rng);
        cells.truncate(m);
        SensorSet::new(input.rows, input.cols, cells)
    }
}

/// Brute-force optimal allocation by condition number — `C(N, M)` SVDs, so
/// strictly for tiny grids (tests certify greedy against it).
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveAllocator;

impl ExhaustiveAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        ExhaustiveAllocator
    }
}

impl SensorAllocator for ExhaustiveAllocator {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn allocate(&self, input: &AllocationInput<'_>, m: usize) -> Result<SensorSet> {
        input.validate(m)?;
        let candidates = input.mask.allowed_indices();
        if candidates.len() > 24 {
            return Err(CoreError::InvalidArgument {
                context: "exhaustive allocation is only feasible for <= 24 candidate cells",
            });
        }
        let n = candidates.len();
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut combo: Vec<usize> = (0..m).collect();
        loop {
            let rows: Vec<usize> = combo.iter().map(|&i| candidates[i]).collect();
            let sensing = input.basis.select_rows(&rows)?;
            let cond = cond(&sensing)?;
            if best.as_ref().is_none_or(|(bc, _)| cond < *bc) {
                best = Some((cond, rows));
            }
            if !next_combination(&mut combo, n) {
                break;
            }
        }
        let (_, rows) = best.expect("at least one combination evaluated");
        SensorSet::new(input.rows, input.cols, rows)
    }
}

/// Advances `combo` to the next `m`-of-`n` combination in lexicographic
/// order; returns `false` when exhausted.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let m = combo.len();
    let mut i = m;
    while i > 0 {
        i -= 1;
        if combo[i] < i + n - m {
            combo[i] += 1;
            for j in (i + 1)..m {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_linalg::dct::dct2_basis;
    use eigenmaps_linalg::Svd;

    fn test_input<'a>(
        basis: &'a Matrix,
        energy: &'a [f64],
        rows: usize,
        cols: usize,
        mask: &'a Mask,
    ) -> AllocationInput<'a> {
        AllocationInput {
            basis,
            energy,
            rows,
            cols,
            mask,
        }
    }

    fn smooth_setup(rows: usize, cols: usize, k: usize) -> (Matrix, Vec<f64>) {
        let basis = dct2_basis(rows, cols, k).unwrap();
        // Energy concentrated near the origin corner.
        let energy: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let r = (i % rows) as f64;
                let c = (i / rows) as f64;
                (-(r + c) / 3.0).exp()
            })
            .collect();
        (basis, energy)
    }

    #[test]
    fn greedy_returns_m_sensors_with_full_rank() {
        let (rows, cols, k, m) = (8, 8, 4, 6);
        let (basis, energy) = smooth_setup(rows, cols, k);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let s = GreedyAllocator::new().allocate(&input, m).unwrap();
        assert_eq!(s.len(), m);
        let sensing = basis.select_rows(s.locations()).unwrap();
        assert_eq!(Svd::new(&sensing).unwrap().rank(), k);
    }

    #[test]
    fn greedy_beats_random_conditioning() {
        let (rows, cols, k) = (10, 10, 6);
        let (basis, energy) = smooth_setup(rows, cols, k);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let m = 8;
        let greedy = GreedyAllocator::new().allocate(&input, m).unwrap();
        let cond_of = |s: &SensorSet| {
            Svd::new(&basis.select_rows(s.locations()).unwrap())
                .unwrap()
                .cond()
        };
        let kg = cond_of(&greedy);
        // Beat the median of several random layouts.
        let mut rand_conds: Vec<f64> = (0..7)
            .map(|seed| cond_of(&RandomAllocator::new(seed).allocate(&input, m).unwrap()))
            .collect();
        rand_conds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rand_conds[3];
        assert!(
            kg <= median,
            "greedy κ={kg} worse than random median κ={median}"
        );
    }

    #[test]
    fn greedy_close_to_exhaustive_on_tiny_grid() {
        let (rows, cols, k, m) = (4, 4, 2, 3);
        let (basis, energy) = smooth_setup(rows, cols, k);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let greedy = GreedyAllocator::new()
            .with_endgame_threshold(usize::MAX)
            .allocate(&input, m)
            .unwrap();
        let best = ExhaustiveAllocator::new().allocate(&input, m).unwrap();
        let cond_of = |s: &SensorSet| {
            Svd::new(&basis.select_rows(s.locations()).unwrap())
                .unwrap()
                .cond()
        };
        let kg = cond_of(&greedy);
        let kb = cond_of(&best);
        assert!(
            kg <= kb * 3.0,
            "greedy κ={kg} vs optimal κ={kb} — not near-optimal"
        );
    }

    #[test]
    fn greedy_respects_mask() {
        let (rows, cols, k, m) = (8, 8, 3, 5);
        let (basis, energy) = smooth_setup(rows, cols, k);
        let mask = Mask::all_allowed(rows, cols).forbid_rects(&[(0.0, 0.0, 0.5, 1.0)]);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let s = GreedyAllocator::new().allocate(&input, m).unwrap();
        assert!(s.respects(&mask));
        assert_eq!(s.len(), m);
    }

    #[test]
    fn all_allocators_respect_mask_and_count() {
        let (rows, cols, k, m) = (9, 7, 3, 6);
        let (basis, energy) = smooth_setup(rows, cols, k);
        let mask = Mask::all_allowed(rows, cols).forbid_rects(&[(0.3, 0.3, 0.4, 0.4)]);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let allocators: Vec<Box<dyn SensorAllocator>> = vec![
            Box::new(GreedyAllocator::new()),
            Box::new(EnergyCenterAllocator::new()),
            Box::new(UniformGridAllocator::new()),
            Box::new(RandomAllocator::new(42)),
        ];
        for a in &allocators {
            let s = a.allocate(&input, m).unwrap();
            assert_eq!(s.len(), m, "{} returned wrong count", a.name());
            assert!(s.respects(&mask), "{} violated the mask", a.name());
        }
    }

    #[test]
    fn energy_center_prefers_active_regions() {
        let (rows, cols) = (10, 10);
        let basis = dct2_basis(rows, cols, 3).unwrap();
        // All the activity lives in the top-left quadrant.
        let energy: Vec<f64> = (0..100)
            .map(|i| {
                let r = i % rows;
                let c = i / rows;
                if r < 5 && c < 5 {
                    1.0
                } else {
                    1e-9
                }
            })
            .collect();
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let s = EnergyCenterAllocator::new().allocate(&input, 4).unwrap();
        let in_hot = s
            .positions()
            .iter()
            .filter(|&&(r, c)| r < 5 && c < 5)
            .count();
        assert!(
            in_hot >= 3,
            "only {in_hot}/4 sensors in the active quadrant"
        );
    }

    #[test]
    fn mask_too_restrictive_is_reported() {
        let (rows, cols) = (4, 4);
        let (basis, energy) = smooth_setup(rows, cols, 2);
        let mask = Mask::all_allowed(rows, cols).forbid_rects(&[(0.0, 0.0, 1.0, 1.0)]);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        assert!(matches!(
            GreedyAllocator::new().allocate(&input, 2),
            Err(CoreError::MaskTooRestrictive { .. })
        ));
    }

    #[test]
    fn zero_m_rejected() {
        let (rows, cols) = (4, 4);
        let (basis, energy) = smooth_setup(rows, cols, 2);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        assert!(GreedyAllocator::new().allocate(&input, 0).is_err());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let (rows, cols) = (6, 6);
        let (basis, energy) = smooth_setup(rows, cols, 2);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let a = RandomAllocator::new(7).allocate(&input, 4).unwrap();
        let b = RandomAllocator::new(7).allocate(&input, 4).unwrap();
        let c = RandomAllocator::new(8).allocate(&input, 4).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_grid_spreads_out() {
        let (rows, cols) = (12, 12);
        let (basis, energy) = smooth_setup(rows, cols, 2);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let s = UniformGridAllocator::new().allocate(&input, 4).unwrap();
        // 4 sensors on a 12x12 grid: pairwise Chebyshev distance >= 3.
        let pos = s.positions();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d = (pos[i].0 as isize - pos[j].0 as isize)
                    .abs()
                    .max((pos[i].1 as isize - pos[j].1 as isize).abs());
                assert!(d >= 3, "sensors {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn exhaustive_matches_manual_on_trivial_case() {
        // Identity-like basis on a 2x2 grid, choose 2 of 4.
        let basis = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[1.0, -1.0]]);
        let energy = vec![1.0; 4];
        let mask = Mask::all_allowed(2, 2);
        let input = test_input(&basis, &energy, 2, 2, &mask);
        let s = ExhaustiveAllocator::new().allocate(&input, 2).unwrap();
        let sensing = basis.select_rows(s.locations()).unwrap();
        let cond = Svd::new(&sensing).unwrap().cond();
        // Rows {0,1} and {2,3} both give κ = 1 (orthogonal rows, equal norms
        // for {0,1}; {2,3} also orthogonal with equal norms).
        assert!(cond < 1.0 + 1e-9, "found κ={cond}");
    }

    #[test]
    fn min_condition_endgame_never_worse_at_m_equals_k() {
        // The regime that breaks pure correlation elimination: M = K.
        let (rows, cols, k) = (10, 10, 6);
        let (basis, energy) = smooth_setup(rows, cols, k);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        let m = k;
        let cond_of = |s: &SensorSet| {
            Svd::new(&basis.select_rows(s.locations()).unwrap())
                .unwrap()
                .cond()
        };
        let mc = GreedyAllocator::new()
            .with_endgame(Endgame::MinCondition)
            .allocate(&input, m)
            .unwrap();
        assert_eq!(mc.len(), m);
        let kappa = cond_of(&mc);
        assert!(kappa.is_finite(), "MinCondition produced singular layout");
        // CorrelationOnly may stop early (above M) when every removal
        // would lose rank; when it does return M sensors, MinCondition
        // must be at least comparable.
        let co = GreedyAllocator::new()
            .with_endgame(Endgame::CorrelationOnly)
            .allocate(&input, m)
            .unwrap();
        if co.len() == m {
            let kc = cond_of(&co);
            assert!(
                kappa <= kc * 1.5 + 1e-9,
                "MinCondition κ={kappa} much worse than CorrelationOnly κ={kc}"
            );
        }
    }

    #[test]
    fn correlations_equal_the_full_product_bit_for_bit() {
        // Zero rows, ±0 entries and row counts around the 64-row block.
        let entry = |i: usize, c: usize| match (i * 7 + c * 3) % 11 {
            0 => 0.0,
            1 => -0.0,
            _ if i % 13 == 5 => -0.0,
            _ if i % 17 == 2 => 0.0,
            r => ((i * 5 + c) as f64 * 0.61).sin() * if r % 2 == 0 { -1.0 } else { 1.0 },
        };
        for (nc, k) in [(150, 7), (65, 3), (64, 5), (63, 16), (1, 4), (2, 1), (0, 3)] {
            let u = Matrix::from_fn(nc, k, entry);
            let mut want = u.matmul(&u.transpose()).unwrap();
            for i in 0..nc {
                want[(i, i)] = 0.0;
            }
            let got = correlations(&u).unwrap();
            let bits =
                |g: &Matrix| -> Vec<u64> { g.as_slice().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&got), bits(&want), "{nc}x{k}");
        }
    }

    /// The MinCondition endgame as a serial loop over the full SVD's κ:
    /// the oracle for the allocator's endgame.
    fn oracle_min_condition(basis: &Matrix, candidates: &[usize], m: usize) -> Vec<usize> {
        let mut alive = vec![true; candidates.len()];
        let mut remaining = candidates.len();
        while remaining > m {
            let mut best: Option<(f64, usize)> = None;
            for v in 0..candidates.len() {
                if !alive[v] {
                    continue;
                }
                alive[v] = false;
                let sensing = input_matrix(basis, candidates, &alive).unwrap();
                let kappa = Svd::new(&sensing).unwrap().cond();
                alive[v] = true;
                if best.is_none_or(|(bk, _)| kappa < bk) {
                    best = Some((kappa, v));
                }
            }
            match best {
                Some((kappa, v)) if kappa.is_finite() => alive[v] = false,
                _ => break,
            }
            remaining -= 1;
        }
        candidates
            .iter()
            .zip(&alive)
            .filter_map(|(&c, &a)| a.then_some(c))
            .collect()
    }

    #[test]
    fn min_condition_endgame_matches_the_serial_oracle() {
        let (rows, cols) = (6, 7);
        let (dct, energy) = smooth_setup(rows, cols, 5);
        // Duplicate rows (tied κs: the first minimum must win) and a zero
        // row on top of the smooth basis.
        let tied = Matrix::from_fn(rows * cols, 5, |i, c| match i {
            7 => 0.0,
            _ => dct[(i % 12, c)],
        });
        let full = Mask::all_allowed(rows, cols);
        let masked = Mask::all_allowed(rows, cols).forbid_rects(&[(0.0, 0.0, 0.4, 0.5)]);
        for (basis, mask, m) in [(&dct, &full, 8), (&dct, &masked, 5), (&tied, &full, 6)] {
            let input = test_input(basis, &energy, rows, cols, mask);
            let got = GreedyAllocator::new()
                .with_endgame(Endgame::MinCondition)
                .with_endgame_threshold(usize::MAX)
                .allocate(&input, m)
                .unwrap();
            let want = oracle_min_condition(basis, &mask.allowed_indices(), m);
            assert_eq!(got.locations(), &want[..], "m = {m}");
        }
    }

    #[test]
    fn exhaustive_refuses_large_grids() {
        let (rows, cols) = (6, 6);
        let (basis, energy) = smooth_setup(rows, cols, 2);
        let mask = Mask::all_allowed(rows, cols);
        let input = test_input(&basis, &energy, rows, cols, &mask);
        assert!(ExhaustiveAllocator::new().allocate(&input, 2).is_err());
    }
}
