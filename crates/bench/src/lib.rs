//! Shared experiment harness for the figure-reproduction binaries and the
//! Criterion benchmarks.
//!
//! Every figure of the paper maps to one binary in `src/bin/` (see
//! DESIGN.md §4); they all consume the [`Harness`] built here, which
//! simulates the paper-scale design-time dataset — `T = 2652` snapshots
//! of a `56 × 60` UltraSPARC T1 thermal map, ~1 s — and fits the
//! EigenMaps basis on it. `results/` only receives the experiments'
//! output.
//!
//! Set `EIGENMAPS_QUICK=1` to run every experiment on a reduced
//! configuration (coarser grid, fewer snapshots) that finishes in seconds.

use std::path::{Path, PathBuf};
use std::time::Instant;

use eigenmaps_core::prelude::*;
use eigenmaps_floorplan::prelude::*;

pub mod ablations;
pub mod experiments;
pub mod plot;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// The paper's configuration: 56 × 60 grid, 2652 snapshots.
    Paper,
    /// Reduced configuration for smoke runs and CI.
    Quick,
}

impl RunScale {
    /// Reads the scale from the `EIGENMAPS_QUICK` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("EIGENMAPS_QUICK") {
            Ok(v) if v != "0" && !v.is_empty() => RunScale::Quick,
            _ => RunScale::Paper,
        }
    }

    /// Grid rows (`H`).
    pub fn rows(self) -> usize {
        match self {
            RunScale::Paper => 56,
            RunScale::Quick => 28,
        }
    }

    /// Grid cols (`W`).
    pub fn cols(self) -> usize {
        match self {
            RunScale::Paper => 60,
            RunScale::Quick => 30,
        }
    }

    /// Snapshot count (`T`).
    pub fn snapshots(self) -> usize {
        match self {
            RunScale::Paper => 2652,
            RunScale::Quick => 400,
        }
    }

    /// Largest subspace dimension any experiment needs.
    pub fn k_max(self) -> usize {
        match self {
            RunScale::Paper => 40,
            RunScale::Quick => 32,
        }
    }

    /// The sensor-count sweep used by Figs. 3b, 5 and 6.
    pub fn m_sweep(self) -> Vec<usize> {
        match self {
            RunScale::Paper => vec![4, 6, 8, 10, 12, 16, 20, 24, 28, 32],
            RunScale::Quick => vec![4, 8, 12, 16, 24, 32],
        }
    }

    /// The K sweep of Fig. 3a.
    pub fn k_sweep(self) -> Vec<usize> {
        match self {
            RunScale::Paper => vec![2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36],
            RunScale::Quick => vec![2, 4, 8, 12, 16, 24, 32],
        }
    }

    /// The SNR sweep (dB) of Fig. 3c.
    pub fn snr_sweep(self) -> Vec<f64> {
        vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
    }
}

/// Workspace-relative results directory (`<repo>/results`).
pub fn results_dir() -> PathBuf {
    // crates/bench/../../results
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
}

/// Everything the experiments need: the dataset (maps and floorplan),
/// the fitted EigenMaps basis and the activity map.
#[derive(Debug)]
pub struct Harness {
    scale: RunScale,
    dataset: ThermalDataset,
    basis: EigenBasis,
    energy: Vec<f64>,
}

impl Harness {
    /// Builds the harness at the given scale: simulates the dataset and
    /// fits the basis.
    ///
    /// # Errors
    ///
    /// Returns a boxed error on simulation or fitting failures.
    pub fn new(scale: RunScale) -> std::result::Result<Self, Box<dyn std::error::Error>> {
        eprintln!(
            "[harness] generating dataset ({}x{} grid, {} snapshots)…",
            scale.rows(),
            scale.cols(),
            scale.snapshots()
        );
        let t0 = Instant::now();
        let dataset = DatasetBuilder::ultrasparc_t1()
            .grid(scale.rows(), scale.cols())
            .snapshots(scale.snapshots())
            .build()?;
        eprintln!("[harness] simulated in {:.1?}", t0.elapsed());

        eprintln!("[harness] fitting EigenMaps basis (K = {})…", scale.k_max());
        let t0 = Instant::now();
        let basis = EigenBasis::fit(dataset.ensemble(), scale.k_max())?;
        eprintln!("[harness] PCA done in {:.1?}", t0.elapsed());
        let energy = dataset.ensemble().cell_variance();
        Ok(Harness {
            scale,
            dataset,
            basis,
            energy,
        })
    }

    /// The run scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// The design-time ensemble.
    pub fn ensemble(&self) -> &MapEnsemble {
        self.dataset.ensemble()
    }

    /// The EigenMaps basis fitted at `k_max`.
    pub fn basis(&self) -> &EigenBasis {
        &self.basis
    }

    /// Per-cell temporal variance (drives the energy-center allocator).
    pub fn energy(&self) -> &[f64] {
        &self.energy
    }

    /// The T1 floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        self.dataset.floorplan()
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.ensemble().rows()
    }

    /// Grid cols.
    pub fn cols(&self) -> usize {
        self.ensemble().cols()
    }

    /// An unconstrained mask for this grid.
    pub fn free_mask(&self) -> Mask {
        Mask::all_allowed(self.rows(), self.cols())
    }

    /// The Fig. 6 constraint mask: sensors may not sit in L2 cache banks
    /// (regular structures, per Mukherjee & Memik).
    pub fn cache_mask(&self) -> Mask {
        Mask::all_allowed(self.rows(), self.cols())
            .forbid_rects(&self.floorplan().rects_of_kind(BlockKind::L2Cache))
    }

    /// Designs a deployment adopting the harness's prefitted EigenMaps
    /// basis truncated to `k`, with `m` sensors placed by `allocator`
    /// under `mask` — the standard design step every experiment shares.
    ///
    /// # Errors
    ///
    /// Propagates truncation, allocation and factorization failures.
    pub fn design_eigen(
        &self,
        k: usize,
        m: usize,
        mask: &Mask,
        allocator: AllocatorSpec,
    ) -> eigenmaps_core::Result<Deployment> {
        let basis = self.basis.truncated(k.min(self.basis.k()))?;
        Pipeline::new(self.ensemble())
            .fitted_basis(basis)
            .allocator(allocator)
            .mask(mask.clone())
            .sensors(m)
            .design()
    }
}

/// Writes a CSV file under `results/` and echoes it to stdout.
///
/// # Errors
///
/// Returns I/O errors from writing the file.
pub fn write_csv(
    name: &str,
    header: &str,
    rows: &[Vec<String>],
) -> std::result::Result<PathBuf, std::io::Error> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    println!("{header}");
    for row in rows {
        let line = row.join(",");
        println!("{line}");
        body.push_str(&line);
        body.push('\n');
    }
    std::fs::write(&path, body)?;
    eprintln!("[csv] wrote {}", path.display());
    Ok(path)
}

/// Writes a PGM image under `results/`.
///
/// # Errors
///
/// Returns I/O errors from writing the file.
pub fn write_pgm(name: &str, bytes: &[u8]) -> std::result::Result<PathBuf, std::io::Error> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, bytes)?;
    eprintln!("[pgm] wrote {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tables_are_sane() {
        for scale in [RunScale::Paper, RunScale::Quick] {
            assert!(scale.rows() > 0 && scale.cols() > 0);
            assert!(scale.k_max() <= scale.rows() * scale.cols());
            assert!(!scale.m_sweep().is_empty());
            assert!(scale.k_sweep().iter().all(|&k| k <= scale.k_max()));
            assert!(scale.m_sweep().windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(RunScale::Paper.rows(), 56);
        assert_eq!(RunScale::Paper.cols(), 60);
        assert_eq!(RunScale::Paper.snapshots(), 2652);
    }

    #[test]
    fn results_dir_is_inside_workspace() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }
}
