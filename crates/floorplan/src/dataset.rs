//! Design-time dataset generation: replay power traces through the
//! transient thermal simulator and collect the die thermal maps.
//!
//! This is the reproduction of the paper's experimental setup (Sec. 4):
//! `T = 2652` transient snapshots of a `W = 60 × H = 56` UltraSPARC T1
//! thermal map, produced by 3D-ICE from the Leon et al. power traces. The
//! defaults of [`DatasetBuilder`] regenerate exactly those dimensions.
//!
//! Every snapshot (and every warm-up step) is one backward-Euler step of
//! [`TransientSim`], which solves in the 2-D DCT basis: per step, two
//! small dense transforms and one 4-layer tridiagonal solve per mode. On a
//! 2-thread AVX-512 host (release build), the paper's 56×60 grid builds
//! its 2752 steps in ~0.7 s, and the 28×30 grid the serving benchmark
//! uses builds 400 steps in ~15 ms: ~11 ms of steps, under 0.1 ms of
//! solver set-up and under 1 ms of traces and rasterization.

use eigenmaps_core::{MapEnsemble, ThermalMap};
use eigenmaps_thermal::{Environment, GridSpec, Layer, ThermalModel, TransientSim};

use crate::block::Floorplan;
use crate::error::{FloorplanError, Result};
use crate::power::PowerRasterizer;
use crate::workload::{PowerTrace, Scenario, TraceGenerator};

/// A generated design-time dataset: the map ensemble plus the provenance
/// needed to reproduce it.
#[derive(Debug, Clone)]
pub struct ThermalDataset {
    ensemble: MapEnsemble,
    floorplan: Floorplan,
    dt: f64,
    seed: u64,
}

impl ThermalDataset {
    /// The thermal-map ensemble (what PCA consumes).
    pub fn ensemble(&self) -> &MapEnsemble {
        &self.ensemble
    }

    /// Shorthand for `ensemble().map(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn map(&self, t: usize) -> ThermalMap {
        self.ensemble.map(t)
    }

    /// Number of snapshots `T`.
    pub fn len(&self) -> usize {
        self.ensemble.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.ensemble.is_empty()
    }

    /// The floorplan that generated the maps.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Snapshot interval in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Seed that generated the workload traces.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Builder for [`ThermalDataset`].
///
/// Defaults reproduce the paper's setup: UltraSPARC T1 floorplan,
/// `56 × 60` grid (`N = 3360`), 2652 snapshots at 50 ms from the
/// five-scenario workload schedule.
///
/// # Examples
///
/// ```
/// use eigenmaps_floorplan::DatasetBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A laptop-scale smoke dataset: coarse grid, few snapshots.
/// let dataset = DatasetBuilder::ultrasparc_t1()
///     .grid(14, 15)
///     .snapshots(60)
///     .seed(7)
///     .build()?;
/// assert_eq!(dataset.len(), 60);
/// assert_eq!(dataset.ensemble().cells(), 14 * 15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    floorplan: Floorplan,
    rows: usize,
    cols: usize,
    snapshots: usize,
    dt: f64,
    seed: u64,
    ambient: f64,
    heat_transfer_coefficient: f64,
    settle_steps: usize,
}

impl DatasetBuilder {
    /// Starts a builder for the UltraSPARC T1 with the paper's defaults.
    pub fn ultrasparc_t1() -> Self {
        DatasetBuilder {
            floorplan: Floorplan::ultrasparc_t1(),
            rows: 56,
            cols: 60,
            snapshots: 2652,
            dt: 0.05,
            seed: 0xD1E5,
            ambient: 45.0,
            heat_transfer_coefficient: 8.0e3,
            // ~5 s of warm-up: several package time constants, so the
            // recording starts from a thermally settled chip rather than
            // the all-ambient initial condition.
            settle_steps: 100,
        }
    }

    /// Uses a custom floorplan instead of the T1.
    pub fn floorplan(mut self, floorplan: Floorplan) -> Self {
        self.floorplan = floorplan;
        self
    }

    /// Overrides the grid resolution (`rows = H`, `cols = W`).
    pub fn grid(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Overrides the number of snapshots `T`.
    pub fn snapshots(mut self, snapshots: usize) -> Self {
        self.snapshots = snapshots;
        self
    }

    /// Overrides the snapshot interval in seconds.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Overrides the workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the ambient temperature (°C).
    pub fn ambient(mut self, ambient: f64) -> Self {
        self.ambient = ambient;
        self
    }

    /// Overrides the sink heat-transfer coefficient (W/m²K).
    pub fn heat_transfer_coefficient(mut self, h: f64) -> Self {
        self.heat_transfer_coefficient = h;
        self
    }

    /// Overrides the number of warm-up steps discarded before recording
    /// (lets the stack leave the all-ambient initial condition).
    pub fn settle_steps(mut self, steps: usize) -> Self {
        self.settle_steps = steps;
        self
    }

    /// Runs the pipeline: trace generation → rasterization → transient
    /// thermal simulation → map ensemble.
    ///
    /// # Errors
    ///
    /// * [`FloorplanError::InvalidConfig`] for empty grids or zero
    ///   snapshots.
    /// * Propagated thermal-simulation and shape errors.
    pub fn build(self) -> Result<ThermalDataset> {
        if self.rows == 0 || self.cols == 0 {
            return Err(FloorplanError::InvalidConfig {
                context: "dataset grid is empty".into(),
            });
        }
        if self.snapshots == 0 {
            return Err(FloorplanError::InvalidConfig {
                context: "dataset needs at least one snapshot".into(),
            });
        }

        // Physical cell size from the die dimensions.
        let cell_w = self.floorplan.die_width() / self.cols as f64;
        let cell_h = self.floorplan.die_height() / self.rows as f64;
        let grid = GridSpec::new(self.rows, self.cols, cell_w, cell_h);

        let model = ThermalModel::new(
            grid,
            Layer::default_stack(),
            Environment {
                ambient: self.ambient,
                heat_transfer_coefficient: self.heat_transfer_coefficient,
            },
        )?;
        let mut sim = TransientSim::new(model, self.dt)?;
        let rasterizer = PowerRasterizer::new(&self.floorplan, grid)?;

        // Workload schedule covering all scenarios, padded to T snapshots.
        let generator = TraceGenerator::new(self.floorplan.clone(), self.dt, self.seed)?;
        let per_scenario = (self.snapshots + self.settle_steps).div_ceil(Scenario::ALL.len());
        let trace: PowerTrace = generator.generate_schedule(per_scenario)?;

        // Warm-up: run the first `settle_steps` without recording.
        let mut maps = Vec::with_capacity(self.snapshots);
        for (t, block_power) in trace.iter().enumerate() {
            if maps.len() == self.snapshots {
                break;
            }
            let cells = rasterizer.rasterize(block_power)?;
            let die = sim.step(&cells)?;
            if t >= self.settle_steps {
                maps.push(ThermalMap::new(self.rows, self.cols, die.to_vec())?);
            }
        }
        // The schedule is sized to cover settle + snapshots, but guard
        // against rounding.
        while maps.len() < self.snapshots {
            let cells = rasterizer.rasterize(trace.step(trace.len() - 1))?;
            let die = sim.step(&cells)?;
            maps.push(ThermalMap::new(self.rows, self.cols, die.to_vec())?);
        }

        Ok(ThermalDataset {
            ensemble: MapEnsemble::from_maps(&maps)?,
            floorplan: self.floorplan,
            dt: self.dt,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ThermalDataset {
        DatasetBuilder::ultrasparc_t1()
            .grid(14, 15)
            .snapshots(50)
            .settle_steps(10)
            .seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn dimensions_match_request() {
        let d = small();
        assert_eq!(d.len(), 50);
        assert_eq!(d.ensemble().rows(), 14);
        assert_eq!(d.ensemble().cols(), 15);
        assert!((d.dt() - 0.05).abs() < 1e-15);
    }

    #[test]
    fn maps_are_physical() {
        let d = small();
        for t in 0..d.len() {
            let m = d.map(t);
            // Above ambient, below silicon limits.
            assert!(m.min() >= 45.0 - 1e-6, "map {t} min {}", m.min());
            assert!(m.max() < 150.0, "map {t} max {}", m.max());
        }
    }

    #[test]
    fn maps_vary_over_time_and_space() {
        let d = small();
        let var = d.ensemble().cell_variance();
        let total: f64 = var.iter().sum();
        assert!(total > 1e-3, "dataset has no thermal variation: {total}");
        // Spatial structure: the hottest map has a real gradient.
        let m = d.map(d.len() - 1);
        assert!(m.max() - m.min() > 0.2, "map too flat: {:?}", m);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DatasetBuilder::ultrasparc_t1()
            .grid(8, 9)
            .snapshots(12)
            .settle_steps(4)
            .seed(11)
            .build()
            .unwrap();
        let b = DatasetBuilder::ultrasparc_t1()
            .grid(8, 9)
            .snapshots(12)
            .settle_steps(4)
            .seed(11)
            .build()
            .unwrap();
        for t in 0..a.len() {
            assert_eq!(a.map(t).as_slice(), b.map(t).as_slice());
        }
    }

    #[test]
    fn rebuilding_gives_a_bitwise_equal_ensemble() {
        // Deployments designed from two builds must be byte-identical, so
        // the maps must agree to the bit, not just to a tolerance.
        let build = || {
            DatasetBuilder::ultrasparc_t1()
                .grid(16, 12)
                .snapshots(20)
                .settle_steps(5)
                .seed(7)
                .build()
                .unwrap()
        };
        let (a, b) = (build(), build());
        let bits = |d: &ThermalDataset| -> Vec<u64> {
            d.ensemble()
                .data()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn builder_validation() {
        assert!(DatasetBuilder::ultrasparc_t1().grid(0, 5).build().is_err());
        assert!(DatasetBuilder::ultrasparc_t1()
            .grid(4, 4)
            .snapshots(0)
            .build()
            .is_err());
    }

    #[test]
    fn hot_cores_show_up_in_maps() {
        // With the T1 floorplan, core rows (top/bottom) should on average
        // run hotter than the die mid-band over a busy trace.
        let d = DatasetBuilder::ultrasparc_t1()
            .grid(14, 15)
            .snapshots(80)
            .settle_steps(30)
            .seed(5)
            .build()
            .unwrap();
        let last = d.map(d.len() - 1);
        let rows = last.rows();
        let mut edge = 0.0;
        let mut middle = 0.0;
        let mut edge_n = 0.0;
        let mut mid_n = 0.0;
        for r in 0..rows {
            for c in 0..last.cols() {
                let v = last.get(r, c);
                let y = r as f64 / rows as f64;
                if !(0.22..=0.78).contains(&y) {
                    edge += v;
                    edge_n += 1.0;
                } else {
                    middle += v;
                    mid_n += 1.0;
                }
            }
        }
        assert!(
            edge / edge_n > middle / mid_n,
            "core bands not hotter: {} vs {}",
            edge / edge_n,
            middle / mid_n
        );
    }
}
