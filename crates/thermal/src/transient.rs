//! Backward-Euler transient stepping of the compact thermal model.
//!
//! The design-time dataset of the paper is a sequence of *transient*
//! snapshots (T = 2652 of them) produced while replaying power traces; this
//! module provides the stepper that turns per-interval power maps into that
//! sequence. Every step solves the same SPD system `G + C/Δt`. The network
//! is separable (one material per layer, adiabatic side walls, uniform
//! vertical and sink conductances), so the 2-D DCT diagonalizes each
//! layer's lateral conduction and the solve splits into one tridiagonal
//! system per mode across the layers, factored once (see the `spectral`
//! module). Per-cell materials or lateral convection would break that
//! split.
//!
//! The state stays in the DCT basis between steps. A step transforms the
//! die power, runs the per-mode solves and transforms the die layer back
//! for the map; the other layers are materialized only by
//! [`TransientSim::state`]. A step allocates nothing. At the 28×30
//! benchmark grid with the 4-layer stack, a step is ~4·(28²·30 + 28·30²)
//! ≈ 0.2 M multiply-adds of transforms plus 840 four-layer solves.

use crate::error::{Result, ThermalError};
use crate::model::ThermalModel;
use crate::spectral::SpectralSolver;

/// A transient simulation over a [`ThermalModel`], advanced with the
/// unconditionally-stable backward Euler scheme:
///
/// `(C/Δt + G) T⁺ = (C/Δt) T + P + G_amb·T_amb`
///
/// The system is factored once, in [`TransientSim::new`], per mode of the
/// 2-D DCT of the grid: each mode couples only across the layers, so its
/// factor is an `L × L` tridiagonal elimination. The state is kept as the
/// DCT coefficients of `T − T_ref`, where the reference `T_ref` is the
/// temperature of the last reset (the ambient at first), so a stack just
/// reset reads that temperature exactly. The ambient term then lands on
/// mode `(0, 0)` of the top layer only. No tolerance or iteration count
/// is involved.
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
    solver: SpectralSolver,
    /// DCT coefficients of `T − reference`, layer-major.
    spectral: Vec<f64>,
    reference: f64,
    /// The die layer in cells, materialized by every step.
    die: Vec<f64>,
    time: f64,
    /// Reused by every step: the die power's DCT and the transforms'
    /// intermediate.
    source: Vec<f64>,
    work: Vec<f64>,
}

impl TransientSim {
    /// Creates a transient simulation with time step `dt` (seconds),
    /// initialized at the model's ambient temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] if `dt` is not strictly
    /// positive and finite.
    pub fn new(model: ThermalModel, dt: f64) -> Result<Self> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::InvalidConfig {
                context: "time step must be positive and finite",
            });
        }
        let solver = SpectralSolver::new(&model, Some(dt));
        let n = model.die_cells();
        let ambient = model.environment().ambient;
        Ok(TransientSim {
            spectral: vec![0.0; model.state_len()],
            reference: ambient,
            die: vec![ambient; n],
            source: vec![0.0; n],
            work: vec![0.0; n],
            model,
            dt,
            solver,
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

    /// Full temperature state (all layers, layer-major), °C, materialized
    /// from the DCT coefficients on each call.
    pub fn state(&self) -> Vec<f64> {
        self.solver.materialize(&self.spectral, self.reference)
    }

    /// Die-layer temperatures (°C) — the vectorized thermal map of the
    /// paper.
    pub fn die_temperatures(&self) -> &[f64] {
        &self.die
    }

    /// Resets the whole stack to a uniform temperature and rewinds time.
    pub fn reset(&mut self, temperature: f64) {
        self.spectral.fill(0.0);
        self.reference = temperature;
        self.die.fill(temperature);
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
        self.model.check_power(power)?;
        let ambient_rise = self.model.environment().ambient - self.reference;
        self.solver.forward(power, &mut self.source, &mut self.work);
        self.solver
            .advance(&mut self.spectral, &self.source, ambient_rise);
        let die = &self.spectral[..self.die.len()];
        self.solver
            .inverse(die, self.reference, &mut self.die, &mut self.work);
        self.time += self.dt;
        Ok(&self.die)
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
        let state = self.state();
        let gt = self.model.conductance().matvec(&state)?;
        let mut worst = 0.0_f64;
        for i in 0..state.len() {
            let lhs = self.model.capacitance()[i] * (state[i] - prev_state[i]) / self.dt;
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
    /// at a tight tolerance: the independent reference for the spectral
    /// stepper.
    fn cg_reference(model: &ThermalModel, dt: f64, powers: &[Vec<f64>]) -> Vec<f64> {
        let ambient = model.environment().ambient;
        cg_trajectory(model, dt, ambient, powers).pop().unwrap()
    }

    /// The state after each step of [`cg_reference`]'s run, started from
    /// a uniform `start` temperature.
    fn cg_trajectory(
        model: &ThermalModel,
        dt: f64,
        start: f64,
        powers: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        use eigenmaps_linalg::sparse::{cg_solve, CgOptions};
        let n = model.state_len();
        let system = model.step_matrix(dt);
        let mut state = vec![start; n];
        let mut trajectory = Vec::with_capacity(powers.len());
        for power in powers {
            let mut b = model.rhs(power).unwrap();
            for ((bi, &c), &t) in b.iter_mut().zip(model.capacitance()).zip(&state) {
                *bi += c / dt * t;
            }
            let opts = CgOptions {
                tolerance: 1e-14,
                max_iterations: 40 * n,
                initial_guess: Some(state),
            };
            state = cg_solve(&system, &b, &opts).unwrap().x;
            trajectory.push(state.clone());
        }
        trajectory
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

    /// A model of `layers` layers of the default stack on a
    /// `rows × cols` grid of non-square cells.
    fn stack_model(rows: usize, cols: usize, layers: usize) -> ThermalModel {
        ThermalModel::new(
            GridSpec::new(rows, cols, 1.3e-3, 0.7e-3),
            Layer::default_stack()[..layers].to_vec(),
            Environment::default(),
        )
        .unwrap()
    }

    /// Largest `|a − b|`.
    fn max_gap(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn steps_and_state_match_a_tight_cg_solve_on_every_shape() {
        for (rows, cols) in [(1, 1), (1, 7), (7, 1), (5, 3), (28, 30)] {
            for layers in [1, 2, 4] {
                let model = stack_model(rows, cols, layers);
                let steps = if rows * cols > 100 { 12 } else { 40 };
                let powers = walking_hot_spot(rows * cols, steps);
                let mut s = TransientSim::new(model.clone(), 2e-3).unwrap();
                let trajectory = cg_trajectory(&model, 2e-3, 45.0, &powers);
                for (t, (p, reference)) in powers.iter().zip(&trajectory).enumerate() {
                    let die = s.step(p).unwrap().to_vec();
                    let state = s.state();
                    let shape = format!("{rows}x{cols}x{layers}, step {t}");
                    assert!(max_gap(&state, reference) < 1e-10, "{shape}: state");
                    assert!(max_gap(&die, &reference[..rows * cols]) < 1e-10, "{shape}");
                    assert_eq!(&state[..rows * cols], &die[..], "{shape}: die slice");
                }
            }
        }
    }

    #[test]
    fn energy_residual_stays_at_rounding_level_after_every_step() {
        for (rows, cols, layers) in [(1, 7, 2), (5, 3, 4), (28, 30, 4)] {
            let model = stack_model(rows, cols, layers);
            let dt = 0.05;
            // The residual's scale: the largest |(G + C/Δt)_ij|·|T_j| row
            // sum any state near 100 °C can reach.
            let mut row_sums = vec![0.0_f64; model.state_len()];
            for (i, _, v) in model.step_matrix(dt).entries() {
                row_sums[i] += v.abs();
            }
            let scale = row_sums.iter().fold(0.0_f64, |m, &v| m.max(v)) * 100.0;
            let mut s = TransientSim::new(model, dt).unwrap();
            for p in walking_hot_spot(rows * cols, 30) {
                let prev = s.state();
                s.step(&p).unwrap();
                let residual = s.energy_residual(&prev, &p).unwrap();
                assert!(
                    residual < 1e-14 * scale,
                    "{rows}x{cols}x{layers}: residual {residual:e} W at scale {scale:e}"
                );
            }
        }
    }

    #[test]
    fn steps_from_a_reset_off_ambient_match_a_tight_cg_solve() {
        // Off ambient, the sink's pull is a source on mode (0, 0).
        for (rows, cols, layers) in [(1, 1, 1), (5, 3, 4)] {
            let model = stack_model(rows, cols, layers);
            let powers = walking_hot_spot(rows * cols, 30);
            let mut s = TransientSim::new(model.clone(), 2e-3).unwrap();
            s.run(&vec![0.3; rows * cols], 5).unwrap();
            s.reset(70.0);
            let trajectory = cg_trajectory(&model, 2e-3, 70.0, &powers);
            for (p, reference) in powers.iter().zip(&trajectory) {
                s.step(p).unwrap();
                assert!(
                    max_gap(&s.state(), reference) < 1e-10,
                    "{rows}x{cols}x{layers}"
                );
            }
        }
    }

    #[test]
    fn reset_then_steps_equal_a_fresh_sim() {
        let model = stack_model(6, 5, 4);
        let powers = walking_hot_spot(30, 25);
        let mut used = TransientSim::new(model.clone(), 1e-2).unwrap();
        used.run(&[0.2; 30], 40).unwrap();
        used.reset(model.environment().ambient);
        let mut fresh = TransientSim::new(model, 1e-2).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for p in &powers {
            assert_eq!(bits(used.step(p).unwrap()), bits(fresh.step(p).unwrap()));
        }
        assert_eq!(bits(&used.state()), bits(&fresh.state()));
        assert_eq!(used.time().to_bits(), fresh.time().to_bits());
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
        for &t in &s.state() {
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
