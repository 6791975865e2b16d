//! The compact thermal model: a 3-D resistive/capacitive network assembled
//! from a layer stack over a regular in-plane grid.
//!
//! This is the same modelling family as 3D-ICE [Sridhar et al., ICCAD'10]:
//! finite-volume cells, one thermal capacitance per cell, conductances to
//! the 6 neighbours, convective boundary at the top of the heat sink, and
//! power injected into the die layer. The EigenMaps paper uses 3D-ICE as a
//! black box to produce its design-time dataset; this module is our
//! re-implementation of that black box (see DESIGN.md, substitutions).

use eigenmaps_linalg::sparse::{BandCholesky, CsrMatrix, TripletBuilder};

use crate::error::{Result, ThermalError};
use crate::material::Layer;

/// In-plane discretization of the die: `rows × cols` cells of size
/// `cell_width × cell_height` meters.
///
/// `rows` is the paper's `H`, `cols` its `W`; the vectorized cell index is
/// `row + col·rows` (column stacking, matching the paper's convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Number of cell rows (`H`).
    pub rows: usize,
    /// Number of cell columns (`W`).
    pub cols: usize,
    /// Cell extent along the x (column) axis, meters.
    pub cell_width: f64,
    /// Cell extent along the y (row) axis, meters.
    pub cell_height: f64,
}

impl GridSpec {
    /// Creates a grid spec.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or non-finite.
    pub fn new(rows: usize, cols: usize, cell_width: f64, cell_height: f64) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        assert!(
            cell_width > 0.0 && cell_width.is_finite(),
            "cell width must be positive"
        );
        assert!(
            cell_height > 0.0 && cell_height.is_finite(),
            "cell height must be positive"
        );
        GridSpec {
            rows,
            cols,
            cell_width,
            cell_height,
        }
    }

    /// Cells per layer (`rows · cols`, the paper's `N`).
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Vectorized index of `(row, col)` within a layer (column stacking).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        row + col * self.rows
    }

    /// Inverse of [`GridSpec::index`].
    #[inline]
    pub fn position(&self, index: usize) -> (usize, usize) {
        assert!(index < self.cells(), "index out of range");
        (index % self.rows, index / self.rows)
    }
}

/// Boundary and environment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Ambient temperature in °C.
    pub ambient: f64,
    /// Convective heat-transfer coefficient at the top of the last layer,
    /// W/(m²·K). Models the sink-to-air (or liquid) interface.
    pub heat_transfer_coefficient: f64,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            ambient: 45.0,
            // Effective sink-to-air coefficient for a forced-air finned
            // sink, folded into a per-die-area value. 8 kW/m²K over a
            // ~3.5 cm² die gives a junction-to-ambient resistance of
            // ~0.4 K/W — the right ballpark for a ~60-70 W server chip
            // (ΔT ≈ 20-30 °C at full load).
            heat_transfer_coefficient: 8.0e3,
        }
    }
}

/// An assembled compact thermal model.
///
/// Owns the conductance matrix `G` (SPD, CSR), the capacitance diagonal
/// `C`, and the ambient coupling vector. States are flat vectors of length
/// `layers · rows · cols`, layer-major, with the die at layer 0 so that
/// `state[..rows·cols]` *is* the vectorized die thermal map.
///
/// # Examples
///
/// ```
/// use eigenmaps_thermal::{GridSpec, Environment, ThermalModel, Layer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ThermalModel::new(
///     GridSpec::new(8, 8, 1e-3, 1e-3),
///     Layer::default_stack(),
///     Environment::default(),
/// )?;
/// // 2 W uniformly over the die.
/// let power = vec![2.0 / 64.0; 64];
/// let t = model.steady_state(&power)?;
/// assert!(t.iter().all(|&v| v > 45.0)); // warmer than ambient everywhere
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalModel {
    grid: GridSpec,
    layers: Vec<Layer>,
    env: Environment,
    conductance: CsrMatrix,
    capacitance: Vec<f64>,
    ambient_coupling: Vec<f64>,
}

impl ThermalModel {
    /// Assembles the RC network for the given grid, stack and environment.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] if `layers` is empty or the
    /// environment parameters are non-physical.
    pub fn new(grid: GridSpec, layers: Vec<Layer>, env: Environment) -> Result<Self> {
        if layers.is_empty() {
            return Err(ThermalError::InvalidConfig {
                context: "layer stack is empty",
            });
        }
        let htc = env.heat_transfer_coefficient;
        if !(htc.is_finite() && htc > 0.0) {
            return Err(ThermalError::InvalidConfig {
                context: "heat transfer coefficient must be positive",
            });
        }
        if !env.ambient.is_finite() {
            return Err(ThermalError::InvalidConfig {
                context: "ambient temperature must be finite",
            });
        }

        let per_layer = grid.cells();
        let n = per_layer * layers.len();
        let dx = grid.cell_width;
        let dy = grid.cell_height;
        let area = dx * dy;

        let mut g = TripletBuilder::new(n, n);
        let mut capacitance = vec![0.0; n];
        let mut ambient_coupling = vec![0.0; n];

        let idx = |l: usize, r: usize, c: usize| l * per_layer + grid.index(r, c);

        for (l, layer) in layers.iter().enumerate() {
            let k = layer.material.conductivity;
            let t = layer.thickness;
            // Lateral conductances (adiabatic side walls: nothing beyond
            // the last cell).
            let gx = k * t * dy / dx; // between column neighbours
            let gy = k * t * dx / dy; // between row neighbours
            for r in 0..grid.rows {
                for c in 0..grid.cols {
                    let i = idx(l, r, c);
                    capacitance[i] = layer.material.volumetric_capacity * area * t;
                    if c + 1 < grid.cols {
                        let j = idx(l, r, c + 1);
                        g.push(i, i, gx);
                        g.push(j, j, gx);
                        g.push(i, j, -gx);
                        g.push(j, i, -gx);
                    }
                    if r + 1 < grid.rows {
                        let j = idx(l, r + 1, c);
                        g.push(i, i, gy);
                        g.push(j, j, gy);
                        g.push(i, j, -gy);
                        g.push(j, i, -gy);
                    }
                }
            }
            // Vertical conductance to the next layer: two half-thickness
            // resistances in series through the cell area.
            if l + 1 < layers.len() {
                let up = &layers[l + 1];
                let r_series = (t / 2.0) / (k * area)
                    + (up.thickness / 2.0) / (up.material.conductivity * area);
                let gz = 1.0 / r_series;
                for r in 0..grid.rows {
                    for c in 0..grid.cols {
                        let i = idx(l, r, c);
                        let j = idx(l + 1, r, c);
                        g.push(i, i, gz);
                        g.push(j, j, gz);
                        g.push(i, j, -gz);
                        g.push(j, i, -gz);
                    }
                }
            }
        }

        // Convective boundary on top of the last layer: half-thickness
        // conduction in series with the film coefficient.
        let last = layers.len() - 1;
        let top = &layers[last];
        let r_half = (top.thickness / 2.0) / (top.material.conductivity * area);
        let r_film = 1.0 / (env.heat_transfer_coefficient * area);
        let g_amb = 1.0 / (r_half + r_film);
        for r in 0..grid.rows {
            for c in 0..grid.cols {
                let i = idx(last, r, c);
                g.push(i, i, g_amb);
                ambient_coupling[i] = g_amb;
            }
        }

        Ok(ThermalModel {
            grid,
            layers,
            env,
            conductance: g.to_csr(),
            capacitance,
            ambient_coupling,
        })
    }

    /// Convenience constructor: default stack + default environment.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalModel::new`] errors (none for this preset).
    pub fn with_default_stack(grid: GridSpec) -> Result<Self> {
        ThermalModel::new(grid, Layer::default_stack(), Environment::default())
    }

    /// The in-plane grid.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// The layer stack, die first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The environment parameters.
    pub fn environment(&self) -> Environment {
        self.env
    }

    /// Total number of cells across all layers.
    pub fn state_len(&self) -> usize {
        self.capacitance.len()
    }

    /// Number of die-layer cells (`rows·cols`), i.e. the power-map length.
    pub fn die_cells(&self) -> usize {
        self.grid.cells()
    }

    /// The assembled conductance matrix `G` (SPD).
    pub fn conductance(&self) -> &CsrMatrix {
        &self.conductance
    }

    /// Per-cell thermal capacitances (J/K).
    pub fn capacitance(&self) -> &[f64] {
        &self.capacitance
    }

    /// Ambient coupling conductances (W/K), non-zero only on the top layer.
    pub fn ambient_coupling(&self) -> &[f64] {
        &self.ambient_coupling
    }

    /// Builds the full-length right-hand side `P + G_amb·T_amb` from a
    /// die-layer power map (W per cell).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerShapeMismatch`] if `power.len()` is not
    /// `rows·cols`.
    pub fn rhs(&self, power: &[f64]) -> Result<Vec<f64>> {
        let mut b = vec![0.0; self.state_len()];
        self.rhs_into(power, &mut b)?;
        Ok(b)
    }

    /// [`ThermalModel::rhs`] into a caller-kept buffer of length
    /// `state_len()`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerShapeMismatch`] if `power.len()` is not
    /// `rows·cols`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` is not `state_len()`.
    pub fn rhs_into(&self, power: &[f64], b: &mut [f64]) -> Result<()> {
        if power.len() != self.die_cells() {
            return Err(ThermalError::PowerShapeMismatch {
                expected: self.die_cells(),
                found: power.len(),
            });
        }
        assert_eq!(b.len(), self.state_len(), "rhs buffer length mismatch");
        b[..power.len()].copy_from_slice(power);
        b[power.len()..].fill(0.0);
        for (bi, &g) in b.iter_mut().zip(self.ambient_coupling.iter()) {
            *bi += g * self.env.ambient;
        }
        Ok(())
    }

    /// The backward-Euler system matrix `G + C/Δt` for a time step `dt`
    /// (seconds), SPD for any `dt > 0`.
    pub fn step_matrix(&self, dt: f64) -> CsrMatrix {
        let n = self.state_len();
        let mut tb = TripletBuilder::new(n, n);
        for (i, j, v) in self.conductance.entries() {
            tb.push(i, j, v);
        }
        for (i, &c) in self.capacitance.iter().enumerate() {
            tb.push(i, i, c / dt);
        }
        tb.to_csr()
    }

    /// The symmetric ordering the direct solves factor under
    /// (`order[k]` is the state index placed at position `k`): cell-major,
    /// with a cell's layers adjacent and the grid's shorter side running
    /// fastest. Layer neighbours then sit 1 apart, neighbours along the
    /// short side `layers` apart and neighbours along the long side
    /// `min(rows, cols) · layers` apart, which is the half-bandwidth of
    /// every matrix assembled on this stencil (when the long side has more
    /// than one cell).
    pub fn band_order(&self) -> Vec<usize> {
        let GridSpec { rows, cols, .. } = self.grid;
        let per_layer = self.grid.cells();
        let layers = self.layers.len();
        let (fast, slow) = (rows.min(cols), rows.max(cols));
        let mut order = Vec::with_capacity(self.state_len());
        for s in 0..slow {
            for f in 0..fast {
                let cell = if rows <= cols {
                    self.grid.index(f, s)
                } else {
                    self.grid.index(s, f)
                };
                order.extend((0..layers).map(|l| l * per_layer + cell));
            }
        }
        order
    }

    /// Factors `matrix` (assembled on this model's stencil) under
    /// [`ThermalModel::band_order`].
    pub(crate) fn band_factor(&self, matrix: &CsrMatrix) -> Result<BandCholesky> {
        Ok(BandCholesky::factor(matrix, &self.band_order())?)
    }

    /// Solves the steady-state system `G T = P + G_amb·T_amb` and returns
    /// the full temperature state (°C).
    ///
    /// Each call factors `G` with a banded Cholesky, under the same
    /// ordering [`crate::TransientSim`] uses, and solves directly.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerShapeMismatch`] for a wrong-length power map.
    /// * [`ThermalError::Solver`] if the factorization fails (cannot happen
    ///   for the SPD matrices assembled here).
    pub fn steady_state(&self, power: &[f64]) -> Result<Vec<f64>> {
        let b = self.rhs(power)?;
        Ok(self.band_factor(&self.conductance)?.solve(&b)?)
    }

    /// Borrows the die-layer temperatures from a full state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_len()`.
    pub fn die_temperatures<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len(), "state length mismatch");
        &state[..self.die_cells()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;

    fn small_model() -> ThermalModel {
        ThermalModel::with_default_stack(GridSpec::new(6, 5, 1e-3, 1e-3)).unwrap()
    }

    #[test]
    fn grid_index_roundtrip() {
        let g = GridSpec::new(7, 4, 1e-3, 1e-3);
        for r in 0..7 {
            for c in 0..4 {
                let i = g.index(r, c);
                assert_eq!(g.position(i), (r, c));
            }
        }
        // Column stacking: consecutive rows are adjacent indices.
        assert_eq!(g.index(0, 0) + 1, g.index(1, 0));
        assert_eq!(g.index(0, 1), 7);
    }

    #[test]
    fn conductance_is_symmetric_spd_shaped() {
        let m = small_model();
        assert!(m.conductance().is_symmetric(1e-12));
        // Diagonal dominance: row sums equal the ambient coupling (all
        // internal conductances cancel), so every diagonal entry is at
        // least the sum of the absolute off-diagonals.
        let n = m.state_len();
        for i in 0..n {
            let mut offsum = 0.0;
            for j in 0..n {
                if i != j {
                    offsum += m.conductance().get(i, j).abs();
                }
            }
            let d = m.conductance().get(i, i);
            assert!(
                d >= offsum - 1e-9,
                "row {i} not diagonally dominant: {d} < {offsum}"
            );
        }
    }

    #[test]
    fn steady_state_matches_a_tight_cg_solve_in_both_orientations() {
        use eigenmaps_linalg::sparse::{cg_solve, CgOptions};
        for (rows, cols) in [(7, 5), (5, 7)] {
            let m =
                ThermalModel::with_default_stack(GridSpec::new(rows, cols, 1e-3, 1e-3)).unwrap();
            let power: Vec<f64> = (0..m.die_cells())
                .map(|i| 0.02 + 0.3 * ((i * 7 % 11) as f64 / 11.0))
                .collect();
            let direct = m.steady_state(&power).unwrap();
            let opts = CgOptions {
                tolerance: 1e-12,
                max_iterations: 40 * m.state_len(),
                initial_guess: None,
            };
            let cg = cg_solve(m.conductance(), &m.rhs(&power).unwrap(), &opts).unwrap();
            for (a, b) in direct.iter().zip(&cg.x) {
                assert!((a - b).abs() < 1e-8, "{rows}x{cols}: {a} vs CG {b}");
            }
        }
    }

    #[test]
    fn zero_power_relaxes_to_ambient() {
        let m = small_model();
        let t = m.steady_state(&vec![0.0; m.die_cells()]).unwrap();
        for &v in &t {
            assert!((v - 45.0).abs() < 1e-6, "cell at {v} °C, expected ambient");
        }
    }

    #[test]
    fn uniform_power_matches_1d_analytic() {
        // Uniform power + adiabatic sides → strictly 1-D heat flow.
        // T_die = T_amb + q·(Σ_l R_l,partial + R_film) where the partial
        // resistances follow the half-cell discretization of the model:
        // within the die layer the *cell center* sits half a thickness from
        // the interface.
        let grid = GridSpec::new(4, 4, 1e-3, 1e-3);
        let layers = Layer::default_stack();
        let env = Environment::default();
        let m = ThermalModel::new(grid, layers.clone(), env).unwrap();
        let q_total = 8.0; // W
        let per_cell = q_total / 16.0;
        let t = m.steady_state(&[per_cell; 16]).unwrap();

        // Analytic: centers-to-centers series resistances over total area.
        let area_tot = 16.0 * 1e-6;
        let mut r_total = 0.0;
        for w in layers.windows(2) {
            r_total += (w[0].thickness / 2.0) / (w[0].material.conductivity * area_tot)
                + (w[1].thickness / 2.0) / (w[1].material.conductivity * area_tot);
        }
        let last = layers.last().unwrap();
        r_total += (last.thickness / 2.0) / (last.material.conductivity * area_tot);
        r_total += 1.0 / (env.heat_transfer_coefficient * area_tot);
        let expected = env.ambient + q_total * r_total;

        let die = m.die_temperatures(&t);
        for &v in die {
            assert!(
                (v - expected).abs() < 1e-6 * expected.abs(),
                "die at {v}, analytic {expected}"
            );
        }
    }

    #[test]
    fn symmetric_power_gives_symmetric_map() {
        let m = ThermalModel::with_default_stack(GridSpec::new(6, 6, 1e-3, 1e-3)).unwrap();
        let g = m.grid();
        let mut power = vec![0.0; 36];
        // Power pattern symmetric under row reflection.
        power[g.index(1, 2)] = 1.0;
        power[g.index(4, 2)] = 1.0;
        let t = m.steady_state(&power).unwrap();
        let die = m.die_temperatures(&t);
        for r in 0..6 {
            for c in 0..6 {
                let a = die[g.index(r, c)];
                let b = die[g.index(5 - r, c)];
                assert!((a - b).abs() < 1e-7, "asymmetry at ({r},{c}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn hotspot_decays_with_distance() {
        let m = ThermalModel::with_default_stack(GridSpec::new(9, 9, 1e-3, 1e-3)).unwrap();
        let g = m.grid();
        let mut power = vec![0.0; 81];
        power[g.index(4, 4)] = 3.0;
        let t = m.steady_state(&power).unwrap();
        let die = m.die_temperatures(&t);
        let center = die[g.index(4, 4)];
        let near = die[g.index(4, 5)];
        let far = die[g.index(4, 8)];
        assert!(
            center > near && near > far,
            "{center} > {near} > {far} violated"
        );
    }

    #[test]
    fn more_power_is_hotter_everywhere() {
        let m = small_model();
        let p1 = vec![0.05; m.die_cells()];
        let p2 = vec![0.10; m.die_cells()];
        let t1 = m.steady_state(&p1).unwrap();
        let t2 = m.steady_state(&p2).unwrap();
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert!(b > a);
        }
    }

    #[test]
    fn power_shape_checked() {
        let m = small_model();
        assert!(matches!(
            m.steady_state(&[1.0]),
            Err(ThermalError::PowerShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_stack_rejected() {
        let r = ThermalModel::new(
            GridSpec::new(2, 2, 1e-3, 1e-3),
            vec![],
            Environment::default(),
        );
        assert!(matches!(r, Err(ThermalError::InvalidConfig { .. })));
    }

    #[test]
    fn bad_environment_rejected() {
        let env = Environment {
            ambient: 45.0,
            heat_transfer_coefficient: 0.0,
        };
        let r = ThermalModel::new(GridSpec::new(2, 2, 1e-3, 1e-3), Layer::default_stack(), env);
        assert!(r.is_err());
    }

    #[test]
    fn single_layer_model_works() {
        let m = ThermalModel::new(
            GridSpec::new(3, 3, 1e-3, 1e-3),
            vec![Layer::new("die", Material::SILICON, 500e-6)],
            Environment::default(),
        )
        .unwrap();
        let t = m.steady_state(&[0.1; 9]).unwrap();
        assert_eq!(t.len(), 9);
        assert!(t.iter().all(|&v| v > 45.0));
    }
}
