//! Backward-Euler transient stepping of the compact thermal model.
//!
//! The design-time dataset of the paper is a sequence of *transient*
//! snapshots (T = 2652 of them) produced while replaying power traces; this
//! module provides the stepper that turns per-interval power maps into that
//! sequence. Every step solves the same SPD system, so the stepper factors
//! it once with a banded Cholesky and each step is a direct solve.

use eigenmaps_linalg::sparse::BandCholesky;

use crate::error::{Result, ThermalError};
use crate::model::ThermalModel;

/// A transient simulation over a [`ThermalModel`], advanced with the
/// unconditionally-stable backward Euler scheme:
///
/// `(C/Δt + G) T⁺ = (C/Δt) T + P + G_amb·T_amb`
///
/// The system matrix `G + C/Δt` is assembled and factored once, in
/// [`TransientSim::new`], as `L Lᵀ` under the model's band ordering
/// (cell-major, a cell's layers adjacent, the grid's shorter side running
/// fastest; half-bandwidth `min(rows, cols) · layers`). Each step is then
/// one forward and one backward triangular sweep, `O(n · w)` flops, with
/// no tolerance or iteration count involved.
///
/// # Examples
///
/// ```
/// use eigenmaps_thermal::{GridSpec, ThermalModel, TransientSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = ThermalModel::with_default_stack(GridSpec::new(4, 4, 1e-3, 1e-3))?;
/// let mut sim = TransientSim::new(model, 1e-3)?;
/// let power = vec![0.05; 16];
/// for _ in 0..10 {
///     sim.step(&power)?;
/// }
/// assert!(sim.die_temperatures()[0] > 45.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSim {
    model: ThermalModel,
    dt: f64,
    factor: BandCholesky,
    state: Vec<f64>,
    time: f64,
}

impl TransientSim {
    /// Creates a transient simulation with time step `dt` (seconds),
    /// initialized at the model's ambient temperature.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] if `dt` is not strictly positive
    ///   and finite.
    /// * [`ThermalError::Solver`] if the factorization fails (cannot happen
    ///   for the SPD matrices the model assembles).
    pub fn new(model: ThermalModel, dt: f64) -> Result<Self> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::InvalidConfig {
                context: "time step must be positive and finite",
            });
        }
        let factor = model.band_factor(&model.step_matrix(dt))?;
        let state = vec![model.environment().ambient; model.state_len()];
        Ok(TransientSim {
            model,
            dt,
            factor,
            state,
            time: 0.0,
        })
    }

    /// The underlying thermal model.
    pub fn model(&self) -> &ThermalModel {
        &self.model
    }

    /// The fixed time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Full temperature state (all layers), °C.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Die-layer temperatures (°C) — the vectorized thermal map of the
    /// paper.
    pub fn die_temperatures(&self) -> &[f64] {
        self.model.die_temperatures(&self.state)
    }

    /// Resets the whole stack to a uniform temperature and rewinds time.
    pub fn reset(&mut self, temperature: f64) {
        self.state.fill(temperature);
        self.time = 0.0;
    }

    /// Advances one time step with the given die power map (W per cell)
    /// held constant over the interval; returns the new die temperatures.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerShapeMismatch`] for a wrong-length
    /// power map.
    pub fn step(&mut self, power: &[f64]) -> Result<&[f64]> {
        // RHS = C/Δt·T + P + G_amb·T_amb.
        let mut b = self.model.rhs(power)?;
        for ((bi, &c), &t) in b
            .iter_mut()
            .zip(self.model.capacitance().iter())
            .zip(self.state.iter())
        {
            *bi += c / self.dt * t;
        }
        self.factor.solve_into(&b, &mut self.state)?;
        self.time += self.dt;
        Ok(self.die_temperatures())
    }

    /// Advances `steps` steps under a constant power map, returning the die
    /// temperatures after the last step.
    ///
    /// # Errors
    ///
    /// Propagates [`TransientSim::step`] errors.
    pub fn run(&mut self, power: &[f64], steps: usize) -> Result<&[f64]> {
        for _ in 0..steps {
            self.step(power)?;
        }
        Ok(self.die_temperatures())
    }

    /// Verifies the discrete energy balance of the last computed state:
    /// `C (T⁺ − T)/Δt = −G T⁺ + P + b_amb` must hold to rounding.
    /// Returns the maximum absolute residual (W); used by validation tests.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`ThermalModel::rhs`].
    pub fn energy_residual(&self, prev_state: &[f64], power: &[f64]) -> Result<f64> {
        let b = self.model.rhs(power)?;
        let gt = self.model.conductance().matvec(&self.state)?;
        let mut worst = 0.0_f64;
        for i in 0..self.state.len() {
            let lhs = self.model.capacitance()[i] * (self.state[i] - prev_state[i]) / self.dt;
            let rhs = -gt[i] + b[i];
            worst = worst.max((lhs - rhs).abs());
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Layer;
    use crate::model::{Environment, GridSpec};

    fn sim(rows: usize, cols: usize, dt: f64) -> TransientSim {
        let model =
            ThermalModel::with_default_stack(GridSpec::new(rows, cols, 1e-3, 1e-3)).unwrap();
        TransientSim::new(model, dt).unwrap()
    }

    /// The same backward-Euler trajectory, stepped with warm-started CG
    /// at a tight tolerance: the oracle for the factored stepper.
    fn cg_reference(model: &ThermalModel, dt: f64, powers: &[Vec<f64>]) -> Vec<f64> {
        use eigenmaps_linalg::sparse::{cg_solve, CgOptions};
        let n = model.state_len();
        let system = model.step_matrix(dt);
        let mut state = vec![model.environment().ambient; n];
        for power in powers {
            let mut b = model.rhs(power).unwrap();
            for ((bi, &c), &t) in b.iter_mut().zip(model.capacitance()).zip(&state) {
                *bi += c / dt * t;
            }
            let opts = CgOptions {
                tolerance: 1e-12,
                max_iterations: 40 * n,
                initial_guess: Some(state),
            };
            state = cg_solve(&system, &b, &opts).unwrap().x;
        }
        state
    }

    /// A hot spot that walks across the die, over a warm background.
    fn walking_hot_spot(cells: usize, steps: usize) -> Vec<Vec<f64>> {
        (0..steps)
            .map(|t| {
                (0..cells)
                    .map(|i| 0.01 + if i == (3 * t) % cells { 0.4 } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn factored_steps_track_a_tight_cg_reference_in_both_orientations() {
        for (rows, cols) in [(7, 5), (5, 7)] {
            let mut s = sim(rows, cols, 2e-3);
            let powers = walking_hot_spot(rows * cols, 100);
            for p in &powers {
                s.step(p).unwrap();
            }
            let reference = cg_reference(s.model(), 2e-3, &powers);
            let worst = s
                .state()
                .iter()
                .zip(&reference)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(worst < 1e-8, "{rows}x{cols}: {worst} °C off the CG run");
        }
    }

    #[test]
    fn band_order_half_bandwidth_is_short_side_times_layers() {
        for (rows, cols, layers) in [(7, 5, 4), (5, 7, 4), (6, 6, 4), (1, 9, 4), (9, 3, 1)] {
            let stack = Layer::default_stack()[..layers].to_vec();
            let model = ThermalModel::new(
                GridSpec::new(rows, cols, 1e-3, 1e-3),
                stack,
                Environment::default(),
            )
            .unwrap();
            let mut order = model.band_order();
            let s = TransientSim::new(model, 1e-3).unwrap();
            assert_eq!(
                s.factor.half_bandwidth(),
                rows.min(cols) * layers,
                "{rows}x{cols}x{layers}"
            );
            order.sort_unstable();
            assert!(order.iter().copied().eq(0..rows * cols * layers));
        }
    }

    #[test]
    fn invalid_dt_rejected() {
        let model = ThermalModel::with_default_stack(GridSpec::new(2, 2, 1e-3, 1e-3)).unwrap();
        assert!(TransientSim::new(model.clone(), 0.0).is_err());
        assert!(TransientSim::new(model, f64::NAN).is_err());
    }

    #[test]
    fn starts_at_ambient_and_time_advances() {
        let mut s = sim(3, 3, 1e-3);
        assert!(s.state().iter().all(|&t| (t - 45.0).abs() < 1e-12));
        assert_eq!(s.time(), 0.0);
        s.step(&[0.0; 9]).unwrap();
        assert!((s.time() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let mut s = sim(3, 4, 1e-3);
        s.run(&[0.0; 12], 20).unwrap();
        for &t in s.state() {
            assert!((t - 45.0).abs() < 1e-8);
        }
    }

    #[test]
    fn heating_is_monotone_under_constant_power() {
        let mut s = sim(4, 4, 1e-3);
        let power = vec![0.05; 16];
        let mut prev = s.die_temperatures()[5];
        for _ in 0..15 {
            s.step(&power).unwrap();
            let cur = s.die_temperatures()[5];
            assert!(cur >= prev - 1e-12, "cooling under constant power");
            prev = cur;
        }
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let mut s = sim(4, 3, 0.2);
        let power: Vec<f64> = (0..12).map(|i| 0.02 + 0.01 * (i % 3) as f64).collect();
        // The sink-to-ambient time constant is ~11 s; run for ~15 of them.
        // Backward Euler is unconditionally stable, so the large Δt only
        // costs time accuracy, not the limit.
        s.run(&power, 800).unwrap();
        let direct = s.model().steady_state(&power).unwrap();
        for (a, b) in s.state().iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-2, "transient {a} vs steady {b}");
        }
    }

    #[test]
    fn energy_balance_holds_per_step() {
        let mut s = sim(5, 5, 1e-3);
        let power = vec![0.03; 25];
        let prev = s.state().to_vec();
        s.step(&power).unwrap();
        let residual = s.energy_residual(&prev, &power).unwrap();
        // Residual is bounded by rounding times the matrix scale.
        assert!(residual < 1e-4, "energy residual {residual} W");
    }

    #[test]
    fn cooling_after_power_off() {
        let mut s = sim(4, 4, 1e-3);
        s.run(&[0.1; 16], 50).unwrap();
        let hot = s.die_temperatures().to_vec();
        s.run(&[0.0; 16], 50).unwrap();
        let cooled = s.die_temperatures().to_vec();
        for (h, c) in hot.iter().zip(cooled.iter()) {
            assert!(c < h, "did not cool: {c} !< {h}");
        }
    }

    #[test]
    fn reset_restores_uniform_state() {
        let mut s = sim(3, 3, 1e-3);
        s.run(&[0.1; 9], 10).unwrap();
        s.reset(50.0);
        assert_eq!(s.time(), 0.0);
        assert!(s.state().iter().all(|&t| t == 50.0));
    }

    #[test]
    fn smaller_dt_converges_to_same_trajectory() {
        // Backward Euler is first-order: halving dt should roughly halve
        // the error against a fine-dt reference at a fixed physical time.
        let power = vec![0.08; 16];
        let horizon = 0.02; // seconds

        let temp_at = |dt: f64| -> f64 {
            let mut s = sim(4, 4, dt);
            let steps = (horizon / dt).round() as usize;
            s.run(&power, steps).unwrap();
            s.die_temperatures()[5]
        };
        let fine = temp_at(2.5e-4);
        let mid = temp_at(1e-3);
        let coarse = temp_at(2e-3);
        let err_mid = (mid - fine).abs();
        let err_coarse = (coarse - fine).abs();
        assert!(
            err_coarse > err_mid,
            "no first-order convergence: coarse {err_coarse} vs mid {err_mid}"
        );
    }

    #[test]
    fn liquid_cooling_style_high_h_runs() {
        // 3D-ICE also supports liquid cooling; emulate its much higher
        // effective heat-transfer coefficient and check the model stays
        // well-behaved (cooler die, still above ambient).
        let grid = GridSpec::new(4, 4, 1e-3, 1e-3);
        let air = ThermalModel::new(grid, Layer::default_stack(), Environment::default()).unwrap();
        let liquid = ThermalModel::new(
            grid,
            Layer::default_stack(),
            Environment {
                ambient: 45.0,
                heat_transfer_coefficient: 2.0e4,
            },
        )
        .unwrap();
        let power = vec![0.2; 16];
        let t_air = air.steady_state(&power).unwrap();
        let t_liq = liquid.steady_state(&power).unwrap();
        assert!(t_liq[0] < t_air[0]);
        assert!(t_liq[0] > 45.0);
    }
}
