//! Inter-tier microchannel liquid cooling — the hallmark feature of
//! 3D-ICE, which the paper's experimental setup cites explicitly
//! ("thermal simulations of 2D or 3D chips cooled with conventional or
//! liquid cooling").
//!
//! The model follows 3D-ICE's simplified four-resistor channel cell:
//! a cavity layer is etched with parallel microchannels running along the
//! column (x) axis. Each channel cell exchanges heat convectively with the
//! solid walls above and below, and *advects* energy downstream with the
//! coolant flow. Advection makes the system matrix nonsymmetric and
//! couples cells along the flow, so the air-cooled model's spectral solve
//! does not apply and the solver is BiCGSTAB.

use eigenmaps_linalg::sparse::{bicgstab_solve, CgOptions, CsrMatrix, TripletBuilder};

use crate::error::{Result, ThermalError};
use crate::material::Layer;
use crate::model::GridSpec;

/// Coolant and channel-geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coolant {
    /// Coolant inlet temperature, °C.
    pub inlet: f64,
    /// Volumetric flow rate per channel, m³/s.
    pub flow_rate: f64,
    /// Volumetric heat capacity of the coolant, J/(m³·K) (water ≈ 4.18e6).
    pub volumetric_capacity: f64,
    /// Wall heat-transfer coefficient inside the channels, W/(m²·K).
    pub wall_htc: f64,
}

impl Default for Coolant {
    fn default() -> Self {
        Coolant {
            inlet: 30.0,
            // ~0.06 l/min per channel — mid-range for 100 µm channels.
            flow_rate: 1.0e-6,
            volumetric_capacity: 4.18e6,
            wall_htc: 2.0e4,
        }
    }
}

/// A liquid-cooled stack: solid layers with one microchannel cavity wedged
/// between `below` and `above`.
///
/// The die (power injection, index 0 of `below`) sits at the bottom;
/// coolant flows along +x (increasing column index). The steady-state
/// temperature field satisfies a nonsymmetric sparse system solved with
/// BiCGSTAB.
///
/// # Examples
///
/// ```
/// use eigenmaps_thermal::liquid::{Coolant, LiquidCooledStack};
/// use eigenmaps_thermal::{GridSpec, Layer, Material};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stack = LiquidCooledStack::new(
///     GridSpec::new(6, 8, 1e-3, 1e-3),
///     vec![Layer::new("die", Material::SILICON, 350e-6)],
///     vec![Layer::new("lid", Material::SILICON, 200e-6)],
///     100e-6,
///     Coolant::default(),
/// )?;
/// let t = stack.steady_state(&vec![0.05; 48])?;
/// // Everything sits between inlet temperature and a sane junction limit.
/// assert!(t.iter().all(|&v| v > 29.0 && v < 150.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LiquidCooledStack {
    grid: GridSpec,
    below: Vec<Layer>,
    above: Vec<Layer>,
    coolant: Coolant,
    system: CsrMatrix,
    /// Constant RHS contribution (inlet advection), length `state_len`.
    inlet_rhs: Vec<f64>,
    channel_offset: usize,
    state_len: usize,
}

impl LiquidCooledStack {
    /// Builds the liquid-cooled stack. `channel_height` is the cavity
    /// thickness in meters.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] for empty layer stacks or
    /// non-physical coolant parameters.
    pub fn new(
        grid: GridSpec,
        below: Vec<Layer>,
        above: Vec<Layer>,
        channel_height: f64,
        coolant: Coolant,
    ) -> Result<Self> {
        if below.is_empty() || above.is_empty() {
            return Err(ThermalError::InvalidConfig {
                context: "liquid stack needs solid layers on both sides of the cavity",
            });
        }
        if !(channel_height.is_finite() && channel_height > 0.0) {
            return Err(ThermalError::InvalidConfig {
                context: "channel height must be positive",
            });
        }
        if [
            coolant.flow_rate,
            coolant.wall_htc,
            coolant.volumetric_capacity,
        ]
        .iter()
        .any(|v| !(v.is_finite() && *v > 0.0))
        {
            return Err(ThermalError::InvalidConfig {
                context: "coolant parameters must be positive",
            });
        }

        let per_layer = grid.cells();
        let n_solid = per_layer * (below.len() + above.len());
        let state_len = n_solid + per_layer;
        let channel_offset = per_layer * below.len();
        let dx = grid.cell_width;
        let dy = grid.cell_height;
        let area = dx * dy;

        // Layer index mapping: below layers [0, b), channel [b, b+1),
        // above layers [b+1, ...).
        let solid_layers: Vec<&Layer> = below.iter().chain(above.iter()).collect();
        let layer_base = |l: usize| -> usize {
            if l < below.len() {
                l * per_layer
            } else {
                // skip the channel slot
                (l + 1) * per_layer
            }
        };

        let mut g = TripletBuilder::new(state_len, state_len);
        let mut inlet_rhs = vec![0.0; state_len];

        // Solid lateral + vertical conduction within below/above stacks.
        for (l, layer) in solid_layers.iter().enumerate() {
            let k = layer.material.conductivity;
            let t = layer.thickness;
            let gx = k * t * dy / dx;
            let gy = k * t * dx / dy;
            let base = layer_base(l);
            for r in 0..grid.rows {
                for c in 0..grid.cols {
                    let i = base + grid.index(r, c);
                    if c + 1 < grid.cols {
                        let j = base + grid.index(r, c + 1);
                        g.push(i, i, gx);
                        g.push(j, j, gx);
                        g.push(i, j, -gx);
                        g.push(j, i, -gx);
                    }
                    if r + 1 < grid.rows {
                        let j = base + grid.index(r + 1, c);
                        g.push(i, i, gy);
                        g.push(j, j, gy);
                        g.push(i, j, -gy);
                        g.push(j, i, -gy);
                    }
                }
            }
            // Vertical conduction to the next *solid* layer, except across
            // the cavity (handled by convection below).
            let crosses_cavity = l + 1 == below.len();
            if l + 1 < solid_layers.len() && !crosses_cavity {
                let up = solid_layers[l + 1];
                let r_series = (t / 2.0) / (k * area)
                    + (up.thickness / 2.0) / (up.material.conductivity * area);
                let gz = 1.0 / r_series;
                let base_up = layer_base(l + 1);
                for idx in 0..per_layer {
                    let i = base + idx;
                    let j = base_up + idx;
                    g.push(i, i, gz);
                    g.push(j, j, gz);
                    g.push(i, j, -gz);
                    g.push(j, i, -gz);
                }
            }
        }

        // Channel cells: wall convection to the last `below` layer and the
        // first `above` layer + advection along +x.
        let top_of_below = &below[below.len() - 1];
        let bottom_of_above = &above[0];
        // Wall coupling: half-thickness conduction in series with the
        // channel film coefficient over the cell footprint.
        let g_wall_below = 1.0
            / ((top_of_below.thickness / 2.0) / (top_of_below.material.conductivity * area)
                + 1.0 / (coolant.wall_htc * area));
        let g_wall_above = 1.0
            / ((bottom_of_above.thickness / 2.0) / (bottom_of_above.material.conductivity * area)
                + 1.0 / (coolant.wall_htc * area));
        let below_top_base = layer_base(below.len() - 1);
        let above_bot_base = layer_base(below.len());
        // Advective "conductance": ṁ·c = flow · c_v per channel cell row.
        let g_adv = coolant.flow_rate * coolant.volumetric_capacity;

        for r in 0..grid.rows {
            for c in 0..grid.cols {
                let idx = grid.index(r, c);
                let ch = channel_offset + idx;
                let wb = below_top_base + idx;
                let wa = above_bot_base + idx;
                // Wall convection (symmetric coupling).
                g.push(ch, ch, g_wall_below + g_wall_above);
                g.push(wb, wb, g_wall_below);
                g.push(wa, wa, g_wall_above);
                g.push(ch, wb, -g_wall_below);
                g.push(wb, ch, -g_wall_below);
                g.push(ch, wa, -g_wall_above);
                g.push(wa, ch, -g_wall_above);
                // Upwind advection: energy enters from upstream (c−1) or
                // the inlet, leaves downstream (asymmetric!).
                g.push(ch, ch, g_adv);
                if c == 0 {
                    inlet_rhs[ch] = g_adv * coolant.inlet;
                } else {
                    let upstream = channel_offset + grid.index(r, c - 1);
                    g.push(ch, upstream, -g_adv);
                }
            }
        }

        Ok(LiquidCooledStack {
            grid,
            below,
            above,
            coolant,
            system: g.to_csr(),
            inlet_rhs,
            channel_offset,
            state_len,
        })
    }

    /// The in-plane grid.
    pub fn grid(&self) -> GridSpec {
        self.grid
    }

    /// Total state length (solid cells of both stacks + channel cells).
    pub fn state_len(&self) -> usize {
        self.state_len
    }

    /// Number of die cells (`rows·cols`).
    pub fn die_cells(&self) -> usize {
        self.grid.cells()
    }

    /// The coolant parameters.
    pub fn coolant(&self) -> Coolant {
        self.coolant
    }

    /// Solves the steady-state field for a die power map (W per cell);
    /// returns the full state (below stack, then channel, then above
    /// stack — the die slice is `[..die_cells()]`).
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerShapeMismatch`] for a wrong-length map.
    /// * [`ThermalError::Solver`] if BiCGSTAB fails to converge.
    pub fn steady_state(&self, power: &[f64]) -> Result<Vec<f64>> {
        if power.len() != self.die_cells() {
            return Err(ThermalError::PowerShapeMismatch {
                expected: self.die_cells(),
                found: power.len(),
            });
        }
        let mut b = self.inlet_rhs.clone();
        for (bi, &p) in b.iter_mut().zip(power.iter()) {
            *bi += p;
        }
        let guess = vec![self.coolant.inlet; self.state_len];
        let sol = bicgstab_solve(
            &self.system,
            &b,
            &CgOptions {
                tolerance: 1e-10,
                max_iterations: 60 * self.state_len,
                initial_guess: Some(guess),
            },
        )?;
        Ok(sol.x)
    }

    /// Extracts the die-layer temperatures from a full state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_len()`.
    pub fn die_temperatures<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len, "state length mismatch");
        &state[..self.die_cells()]
    }

    /// Extracts the coolant temperatures from a full state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_len()`.
    pub fn coolant_temperatures<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.state_len, "state length mismatch");
        &state[self.channel_offset..self.channel_offset + self.die_cells()]
    }
}

/// Backward-Euler transient stepping for a [`LiquidCooledStack`].
///
/// Mirrors [`crate::TransientSim`] for the air-cooled model, but solves the
/// nonsymmetric advective system with BiCGSTAB.
#[derive(Debug, Clone)]
pub struct LiquidTransientSim {
    stack: LiquidCooledStack,
    dt: f64,
    system: CsrMatrix,
    capacitance: Vec<f64>,
    state: Vec<f64>,
    time: f64,
}

impl LiquidTransientSim {
    /// Creates a transient simulation with time step `dt` (seconds),
    /// initialized at the coolant inlet temperature.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] if `dt` is not strictly
    /// positive and finite.
    pub fn new(stack: LiquidCooledStack, dt: f64) -> Result<Self> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ThermalError::InvalidConfig {
                context: "time step must be positive and finite",
            });
        }
        let n = stack.state_len();
        let per_layer = stack.grid().cells();
        let area = stack.grid().cell_width * stack.grid().cell_height;

        // Per-cell capacitances: solid layers from their materials, the
        // channel cells from the coolant volume.
        let mut capacitance = vec![0.0; n];
        let solids: Vec<&Layer> = stack.below.iter().chain(stack.above.iter()).collect();
        for (l, layer) in solids.iter().enumerate() {
            let base = if l < stack.below.len() {
                l * per_layer
            } else {
                (l + 1) * per_layer
            };
            let c = layer.material.volumetric_capacity * area * layer.thickness;
            for idx in 0..per_layer {
                capacitance[base + idx] = c;
            }
        }
        // Channel cavity: coolant fills the cell (conservative estimate of
        // the channel-to-wall fill ratio is folded into the height).
        let c_chan = stack.coolant.volumetric_capacity * area * 100e-6;
        for idx in 0..per_layer {
            capacitance[stack.channel_offset + idx] = c_chan;
        }

        let mut tb = TripletBuilder::new(n, n);
        for (i, j, v) in stack.system.entries() {
            tb.push(i, j, v);
        }
        for (i, &c) in capacitance.iter().enumerate() {
            tb.push(i, i, c / dt);
        }
        let system = tb.to_csr();
        let state = vec![stack.coolant.inlet; n];
        Ok(LiquidTransientSim {
            stack,
            dt,
            system,
            capacitance,
            state,
            time: 0.0,
        })
    }

    /// The underlying liquid-cooled stack.
    pub fn stack(&self) -> &LiquidCooledStack {
        &self.stack
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Full temperature state.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Die-layer temperatures.
    pub fn die_temperatures(&self) -> &[f64] {
        self.stack.die_temperatures(&self.state)
    }

    /// Advances one step with the given die power map; returns the new die
    /// temperatures.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerShapeMismatch`] for a wrong-length map.
    /// * [`ThermalError::Solver`] if BiCGSTAB fails.
    pub fn step(&mut self, power: &[f64]) -> Result<&[f64]> {
        if power.len() != self.stack.die_cells() {
            return Err(ThermalError::PowerShapeMismatch {
                expected: self.stack.die_cells(),
                found: power.len(),
            });
        }
        let mut b = self.stack.inlet_rhs.clone();
        for (bi, &p) in b.iter_mut().zip(power.iter()) {
            *bi += p;
        }
        for ((bi, &c), &t) in b
            .iter_mut()
            .zip(self.capacitance.iter())
            .zip(self.state.iter())
        {
            *bi += c / self.dt * t;
        }
        let sol = bicgstab_solve(
            &self.system,
            &b,
            &CgOptions {
                tolerance: 1e-10,
                max_iterations: 60 * self.state.len(),
                initial_guess: Some(self.state.clone()),
            },
        )?;
        self.state = sol.x;
        self.time += self.dt;
        Ok(self.die_temperatures())
    }

    /// Runs `steps` constant-power steps.
    ///
    /// # Errors
    ///
    /// Propagates [`LiquidTransientSim::step`] errors.
    pub fn run(&mut self, power: &[f64], steps: usize) -> Result<&[f64]> {
        for _ in 0..steps {
            self.step(power)?;
        }
        Ok(self.die_temperatures())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;

    fn stack(rows: usize, cols: usize) -> LiquidCooledStack {
        LiquidCooledStack::new(
            GridSpec::new(rows, cols, 1e-3, 1e-3),
            vec![Layer::new("die", Material::SILICON, 350e-6)],
            vec![Layer::new("lid", Material::SILICON, 300e-6)],
            100e-6,
            Coolant::default(),
        )
        .unwrap()
    }

    #[test]
    fn zero_power_relaxes_to_inlet() {
        let s = stack(4, 6);
        let t = s.steady_state(&[0.0; 24]).unwrap();
        for &v in &t {
            assert!((v - 30.0).abs() < 1e-6, "cell at {v}, expected inlet");
        }
    }

    #[test]
    fn coolant_heats_downstream() {
        let s = stack(4, 8);
        let t = s.steady_state(&vec![0.1; 32]).unwrap();
        let cool = s.coolant_temperatures(&t);
        // Along each channel (row), coolant temperature must be
        // non-decreasing in the flow direction.
        for r in 0..4 {
            for c in 1..8 {
                let up = cool[r + (c - 1) * 4];
                let here = cool[r + c * 4];
                assert!(
                    here >= up - 1e-9,
                    "coolant cooled downstream at ({r},{c}): {here} < {up}"
                );
            }
        }
        // And the outlet must actually be warmer than the inlet.
        assert!(cool[4 * 7] > 30.0 + 1e-3);
    }

    #[test]
    fn energy_balance_power_equals_coolant_enthalpy_rise() {
        // All injected power must leave with the coolant (no other sink).
        let s = stack(5, 10);
        let q_total = 3.0;
        let power = vec![q_total / 50.0; 50];
        let t = s.steady_state(&power).unwrap();
        let cool = s.coolant_temperatures(&t);
        let g_adv = s.coolant().flow_rate * s.coolant().volumetric_capacity;
        // Enthalpy rise summed over the 5 channels at the outlet column.
        let mut carried = 0.0;
        for r in 0..5 {
            let outlet = cool[r + 9 * 5];
            carried += g_adv * (outlet - s.coolant().inlet);
        }
        assert!(
            (carried - q_total).abs() < 1e-6 * q_total.max(1.0),
            "coolant carries {carried} W of {q_total} W injected"
        );
    }

    #[test]
    fn more_flow_means_cooler_die() {
        let grid = GridSpec::new(4, 6, 1e-3, 1e-3);
        let mk = |flow: f64| {
            LiquidCooledStack::new(
                grid,
                vec![Layer::new("die", Material::SILICON, 350e-6)],
                vec![Layer::new("lid", Material::SILICON, 300e-6)],
                100e-6,
                Coolant {
                    flow_rate: flow,
                    ..Coolant::default()
                },
            )
            .unwrap()
        };
        let power = vec![0.2; 24];
        let slow = mk(0.5e-6).steady_state(&power).unwrap();
        let fast = mk(4.0e-6).steady_state(&power).unwrap();
        let peak = |t: &[f64]| t.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        assert!(
            peak(&fast) < peak(&slow),
            "faster flow hotter: {} vs {}",
            peak(&fast),
            peak(&slow)
        );
    }

    #[test]
    fn liquid_beats_air_for_the_same_die_power() {
        // The reason 3D-ICE exists: microchannels pull heat out far more
        // effectively than an air-cooled sink at high power density.
        use crate::model::{Environment, ThermalModel};
        let grid = GridSpec::new(6, 6, 1e-3, 1e-3);
        let power = vec![1.0; 36]; // 36 W over 36 mm² — aggressive
        let air = ThermalModel::new(grid, Layer::default_stack(), Environment::default())
            .unwrap()
            .steady_state(&power)
            .unwrap();
        let liq = stack(6, 6).steady_state(&power).unwrap();
        let peak = |t: &[f64]| t.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        assert!(
            peak(&liq) < peak(&air),
            "liquid {} vs air {}",
            peak(&liq),
            peak(&air)
        );
    }

    #[test]
    fn liquid_transient_converges_to_steady_state() {
        let s = stack(4, 6);
        let power = vec![0.1; 24];
        let steady = s.steady_state(&power).unwrap();
        let mut sim = LiquidTransientSim::new(s, 0.05).unwrap();
        // Liquid loops settle fast (small coolant mass, strong advection).
        sim.run(&power, 400).unwrap();
        for (a, b) in sim.state().iter().zip(steady.iter()) {
            assert!((a - b).abs() < 1e-3, "transient {a} vs steady {b}");
        }
    }

    #[test]
    fn liquid_transient_starts_at_inlet_and_heats() {
        let s = stack(3, 4);
        let mut sim = LiquidTransientSim::new(s, 0.01).unwrap();
        assert!(sim.state().iter().all(|&t| (t - 30.0).abs() < 1e-12));
        let power = vec![0.2; 12];
        let before = sim.die_temperatures()[0];
        sim.run(&power, 30).unwrap();
        assert!(sim.die_temperatures()[0] > before);
        assert!((sim.time() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn liquid_transient_validates() {
        let s = stack(2, 2);
        assert!(LiquidTransientSim::new(s.clone(), 0.0).is_err());
        let mut sim = LiquidTransientSim::new(s, 0.01).unwrap();
        assert!(sim.step(&[1.0]).is_err());
    }

    #[test]
    fn validation_errors() {
        let grid = GridSpec::new(2, 2, 1e-3, 1e-3);
        let die = vec![Layer::new("die", Material::SILICON, 350e-6)];
        let lid = vec![Layer::new("lid", Material::SILICON, 300e-6)];
        assert!(
            LiquidCooledStack::new(grid, vec![], lid.clone(), 1e-4, Coolant::default()).is_err()
        );
        assert!(
            LiquidCooledStack::new(grid, die.clone(), vec![], 1e-4, Coolant::default()).is_err()
        );
        assert!(
            LiquidCooledStack::new(grid, die.clone(), lid.clone(), 0.0, Coolant::default())
                .is_err()
        );
        let bad = Coolant {
            flow_rate: 0.0,
            ..Coolant::default()
        };
        assert!(LiquidCooledStack::new(grid, die.clone(), lid.clone(), 1e-4, bad).is_err());
        let s = LiquidCooledStack::new(grid, die, lid, 1e-4, Coolant::default()).unwrap();
        assert!(s.steady_state(&[1.0]).is_err());
    }
}
