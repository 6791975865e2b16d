//! Least-squares thermal-map reconstruction from sensor readings —
//! Theorem 1 of the paper.

use std::ops::Range;
use std::sync::Arc;

use eigenmaps_linalg::{Qr, Svd};

use crate::basis::Basis;
use crate::error::{CoreError, Result};
use crate::kernel::{KernelKind, PackedBasis, FRAME_BLOCK};
use crate::map::ThermalMap;
use crate::sensors::SensorSet;

/// Splits `frames` frames into at most `shards` contiguous, near-equal
/// spans (the first `frames % shards` spans get one extra frame; empty
/// spans are omitted). Because [`Reconstructor::reconstruct_batch`] is
/// bitwise-identical to per-frame reconstruction, running each span as its
/// own batch and concatenating the outputs in span order reproduces the
/// sequential batch output bitwise — this is the shard-boundary contract
/// the `eigenmaps-serve` execution engine is built on.
///
/// `shards = 0` is treated as 1.
pub fn shard_spans(frames: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(frames.max(1));
    let base = frames / shards;
    let extra = frames % shards;
    let mut spans = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        if len == 0 {
            break;
        }
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Reusable scratch buffers for [`Reconstructor::reconstruct_batch_with`].
///
/// Holds the per-batch coefficient and transpose buffers so a serving loop
/// (or a sharded worker thread) pays the allocations once and reuses them
/// across every batch it processes. The default value is an empty scratch
/// that grows to fit the first batch.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Frame-major least-squares coefficients (`frames × K`).
    alphas: Vec<f64>,
    /// Mean-centered readings for the solve (`M`).
    centered: Vec<f64>,
    /// Frame-transposed coefficients for *all* blocks of the batch
    /// (`frames × K`, every block transposed up front) — the L2-tiled
    /// synthesis sweeps each basis tile across the whole batch, so all
    /// blocks' coefficients must be live at once.
    alpha_t: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// Reconstructs full thermal maps from `M` point measurements over a fixed
/// basis and sensor layout.
///
/// Construction factorizes the sensing matrix `Ψ̃_K` (the sensor rows of
/// `Ψ_K`) once with Householder QR; each [`Reconstructor::reconstruct`]
/// call is then one `O(MK)` triangular solve plus an `O(NK)` synthesis —
/// the runtime-relevant cost on a real DTM loop.
///
/// Theorem 1 requires `M ≥ K` and `rank(Ψ̃_K) = K`; both are enforced at
/// construction, and the condition number `κ(Ψ̃_K)` that bounds the noise
/// amplification (eq. 5) is exposed via
/// [`Reconstructor::condition_number`].
///
/// # Examples
///
/// ```
/// use eigenmaps_core::{Basis, DctBasis, Reconstructor, SensorSet, ThermalMap};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A smooth map is exactly representable in a small DCT basis...
/// let basis = DctBasis::new(6, 6, 3)?;
/// let alpha = [30.0, 2.0, -1.5];
/// let cells = basis.matrix().matvec(&alpha)?;
/// let map = ThermalMap::new(6, 6, cells)?;
///
/// // ...so 4 sensors recover it exactly.
/// let sensors = SensorSet::from_positions(6, 6, &[(0, 0), (5, 0), (0, 5), (3, 3)])?;
/// let rec = Reconstructor::new(&basis, &sensors)?;
/// let estimate = rec.reconstruct(&sensors.sample(&map))?;
/// assert!(map.mse(&estimate) < 1e-18);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reconstructor {
    /// The basis repacked into cache-line-aligned row panels for the
    /// synthesis hot path — **derived state**, rebuilt from the basis
    /// matrix at construction (never serialized; the `EMDEPLOY` wire
    /// format is unchanged) and the only copy of `Ψ_K` the reconstructor
    /// keeps. `Arc` so the per-worker `Reconstructor` clones of a serving
    /// fleet share one multi-megabyte panel buffer.
    packed: Arc<PackedBasis>,
    mean: Vec<f64>,
    mean_at_sensors: Vec<f64>,
    qr: Qr,
    condition_number: f64,
    rows: usize,
    cols: usize,
    sensors: SensorSet,
    /// Synthesis backend; [`KernelKind::detect`]ed at construction,
    /// forcible via [`Reconstructor::set_kernel`].
    kernel: KernelKind,
}

impl Reconstructor {
    /// Binds a basis to a sensor layout.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if the sensor grid disagrees with the
    ///   basis grid.
    /// * [`CoreError::InsufficientSensors`] if `M < K`.
    /// * [`CoreError::SensingRankDeficient`] if `rank(Ψ̃_K) < K`.
    pub fn new(basis: &dyn Basis, sensors: &SensorSet) -> Result<Self> {
        if sensors.rows() != basis.rows() || sensors.cols() != basis.cols() {
            return Err(CoreError::ShapeMismatch {
                context: "reconstructor grid",
                expected: basis.cells(),
                found: sensors.rows() * sensors.cols(),
            });
        }
        let m = sensors.len();
        let k = basis.k();
        if m < k {
            return Err(CoreError::InsufficientSensors {
                sensors: m,
                basis_dim: k,
            });
        }
        let sensing = basis.matrix().select_rows(sensors.locations())?;
        let svd = Svd::new(&sensing)?;
        // Rank with an *absolute* tolerance anchored to the basis scale:
        // the basis columns are orthonormal (entries ≤ 1), so singular
        // values below N·ε mean the sensors genuinely cannot see that
        // direction — even if the whole sensing matrix is uniformly tiny
        // (all sensors in a dead zone), which a relative tolerance would
        // miss.
        let tol = basis.cells().max(m) as f64 * f64::EPSILON;
        let rank = svd.s.iter().filter(|&&s| s > tol).count();
        if rank < k {
            return Err(CoreError::SensingRankDeficient { rank, required: k });
        }
        let condition_number = svd.cond();
        let qr = Qr::new(&sensing)?;
        let mean = basis.mean().to_vec();
        let mean_at_sensors = sensors.locations().iter().map(|&i| mean[i]).collect();
        Ok(Reconstructor {
            packed: Arc::new(PackedBasis::pack(basis.matrix())),
            mean,
            mean_at_sensors,
            qr,
            condition_number,
            rows: basis.rows(),
            cols: basis.cols(),
            sensors: sensors.clone(),
            kernel: KernelKind::detect(),
        })
    }

    /// The sensor layout this reconstructor was built for.
    pub fn sensors(&self) -> &SensorSet {
        &self.sensors
    }

    /// The packed, L2-tiled panel layout of the synthesis basis that the
    /// serving paths run over (see [`PackedBasis`]). Derived from the
    /// basis at construction; shared (`Arc`) across clones.
    pub fn packed_basis(&self) -> &Arc<PackedBasis> {
        &self.packed
    }

    /// Which synthesis backend this reconstructor runs (the
    /// [`KernelKind::detect`] choice unless forced).
    pub fn kernel_kind(&self) -> KernelKind {
        self.kernel
    }

    /// Forces a specific synthesis backend — the testing/benchmarking
    /// override behind every scalar-vs-SIMD comparison. All serving paths
    /// ([`Reconstructor::reconstruct`], the batch paths and
    /// [`Reconstructor::map_from_coefficients`]) switch together, so the
    /// per-backend bitwise guarantees are preserved.
    ///
    /// # Errors
    ///
    /// [`CoreError::KernelUnavailable`] if the host cannot run `kind`
    /// (e.g. forcing [`KernelKind::Avx2`] on a CPU without AVX2 + FMA).
    pub fn set_kernel(&mut self, kind: KernelKind) -> Result<()> {
        kind.require_available()?;
        self.kernel = kind;
        Ok(())
    }

    /// Builder-style [`Reconstructor::set_kernel`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Reconstructor::set_kernel`].
    pub fn with_kernel(mut self, kind: KernelKind) -> Result<Self> {
        self.set_kernel(kind)?;
        Ok(self)
    }

    /// Subspace dimension `K`.
    pub fn k(&self) -> usize {
        self.packed.cols()
    }

    /// Condition number `κ(Ψ̃_K)` of the sensing matrix — the noise
    /// amplification factor of eq. (5); the sensor-allocation algorithms
    /// exist to make this small.
    pub fn condition_number(&self) -> f64 {
        self.condition_number
    }

    /// Estimates the subspace coefficients `α̂ = argmin ‖x_S − Ψ̃_K α‖₂`
    /// from the `M` sensor readings.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if `readings.len() != M`.
    /// * Propagated solver failures (excluded by the rank check in
    ///   [`Reconstructor::new`]).
    pub fn coefficients(&self, readings: &[f64]) -> Result<Vec<f64>> {
        if readings.len() != self.sensors.len() {
            return Err(CoreError::ShapeMismatch {
                context: "reconstruct readings",
                expected: self.sensors.len(),
                found: readings.len(),
            });
        }
        let centered: Vec<f64> = readings
            .iter()
            .zip(self.mean_at_sensors.iter())
            .map(|(x, m)| x - m)
            .collect();
        Ok(self.qr.solve_lstsq(&centered)?)
    }

    /// Synthesizes the full map `x̃ = Ψ_K α + mean` from given subspace
    /// coefficients (used by temporal trackers that maintain their own
    /// coefficient state).
    ///
    /// Runs the same dispatched [`crate::kernel`] backend over the same
    /// packed+tiled panels as the batch paths (as a one-frame block),
    /// which is what keeps [`Reconstructor::reconstruct_batch`] bitwise
    /// identical to per-frame reconstruction under *every* backend —
    /// including the FMA-fused AVX2/AVX-512 ones.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `alpha.len() != K`.
    pub fn map_from_coefficients(&self, alpha: &[f64]) -> Result<ThermalMap> {
        if alpha.len() != self.k() {
            return Err(CoreError::ShapeMismatch {
                context: "map_from_coefficients",
                expected: self.k(),
                found: alpha.len(),
            });
        }
        let mut cells = vec![0.0; self.rows * self.cols];
        {
            // A one-frame block: `alpha` transposed at bsz = 1 is itself.
            let backend = self.kernel.backend();
            let mut outs = [cells.as_mut_slice()];
            for tile in self.packed.tile_spans() {
                backend.synthesize_panels(&self.packed, tile, &self.mean, alpha, 1, &mut outs);
            }
        }
        ThermalMap::new(self.rows, self.cols, cells)
    }

    /// Reconstructs the full thermal map `x̃ = Ψ_K α̂ + mean` from sensor
    /// readings (Theorem 1).
    ///
    /// # Errors
    ///
    /// Same contract as [`Reconstructor::coefficients`].
    pub fn reconstruct(&self, readings: &[f64]) -> Result<ThermalMap> {
        let alpha = self.coefficients(readings)?;
        self.map_from_coefficients(&alpha)
    }

    /// Reconstructs a batch of frames — the serving hot path.
    ///
    /// Compared with calling [`Reconstructor::reconstruct`] per frame this
    /// reuses the factored QR's scratch buffers across frames (no per-frame
    /// solver allocations) and synthesizes maps in
    /// [`FRAME_BLOCK`]-frame blocks over the packed, L2-tiled basis panels
    /// ([`PackedBasis`]) through the dispatched [`crate::kernel`] backend:
    /// each aligned panel column is loaded once and multiplied into
    /// several frames' coefficients at a time, independent accumulator
    /// chains hide the floating-point latency that bounds the
    /// one-dot-per-row single-frame path, and basis tiles loop outermost
    /// so a tile stays L2-resident across the whole batch. Every backend
    /// applies one fixed per-frame recurrence in ascending-`k` order
    /// regardless of block position or tiling, so the returned maps are
    /// **bitwise identical** to per-frame reconstruction under the same
    /// [`Reconstructor::kernel_kind`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if any frame's length differs
    /// from `M`; propagates solver failures.
    pub fn reconstruct_batch(&self, frames: &[Vec<f64>]) -> Result<Vec<ThermalMap>> {
        self.reconstruct_batch_with(frames, &mut BatchScratch::new())
    }

    /// [`Reconstructor::reconstruct_batch`] with caller-owned scratch.
    ///
    /// Long-running serving loops (and the per-shard workers of
    /// `eigenmaps-serve`) keep one [`BatchScratch`] per thread and reuse it
    /// across batches, eliminating the per-call coefficient-buffer
    /// allocations. Results are bitwise-identical to
    /// [`Reconstructor::reconstruct_batch`] regardless of the scratch's
    /// history.
    ///
    /// # Errors
    ///
    /// Same contract as [`Reconstructor::reconstruct_batch`].
    pub fn reconstruct_batch_with(
        &self,
        frames: &[Vec<f64>],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<ThermalMap>> {
        let m = self.sensors.len();
        let k = self.k();
        let n = self.rows * self.cols;
        for readings in frames {
            if readings.len() != m {
                return Err(CoreError::ShapeMismatch {
                    context: "reconstruct_batch readings",
                    expected: m,
                    found: readings.len(),
                });
            }
        }

        // Phase 1: per-frame least-squares coefficients, frame-major. The
        // solver fully overwrites each frame's coefficient slice and the
        // centered-readings buffer, so stale scratch contents are inert.
        scratch.alphas.resize(frames.len() * k, 0.0);
        scratch.centered.resize(m, 0.0);
        let alphas = &mut scratch.alphas;
        let centered = &mut scratch.centered;
        for (f, readings) in frames.iter().enumerate() {
            for ((s, x), mu) in centered
                .iter_mut()
                .zip(readings.iter())
                .zip(self.mean_at_sensors.iter())
            {
                *s = x - mu;
            }
            self.qr
                .solve_lstsq_into(centered, &mut alphas[f * k..(f + 1) * k])?;
        }

        // Phase 2: packed, L2-tiled synthesis Ψ_K α + mean through the
        // dispatched kernel backend. Every block's coefficients are
        // transposed frame-contiguous up front (block b's slice is
        // `j`-major with stride bsz at offset b·FRAME_BLOCK·K), then the
        // basis tiles loop OUTERMOST with the frame blocks inside: one
        // tile's panels are read from memory once and served from L2
        // across every block of the batch, instead of the whole N×K basis
        // being streamed through cache once per block. Tiling reorders
        // only the output-row loop — each frame's ascending-`j` recurrence
        // is untouched — so the backend's position-independence contract
        // keeps every frame's rounding identical to a single-frame
        // synthesis.
        let backend = self.kernel.backend();
        let mut cells: Vec<Vec<f64>> = frames.iter().map(|_| vec![0.0; n]).collect();
        scratch.alpha_t.resize(frames.len() * k, 0.0);
        let alpha_t = &mut scratch.alpha_t;
        for block_start in (0..frames.len()).step_by(FRAME_BLOCK) {
            let bsz = (frames.len() - block_start).min(FRAME_BLOCK);
            let block = &mut alpha_t[block_start * k..(block_start + bsz) * k];
            for f in 0..bsz {
                for (j, &a) in alphas[(block_start + f) * k..(block_start + f + 1) * k]
                    .iter()
                    .enumerate()
                {
                    block[j * bsz + f] = a;
                }
            }
        }
        let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
        for tile in self.packed.tile_spans() {
            for block_start in (0..frames.len()).step_by(FRAME_BLOCK) {
                let bsz = (frames.len() - block_start).min(FRAME_BLOCK);
                backend.synthesize_panels(
                    &self.packed,
                    tile.clone(),
                    &self.mean,
                    &alpha_t[block_start * k..(block_start + bsz) * k],
                    bsz,
                    &mut outs[block_start..block_start + bsz],
                );
            }
        }
        cells
            .into_iter()
            .map(|c| ThermalMap::new(self.rows, self.cols, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{DctBasis, EigenBasis};
    use crate::map::MapEnsemble;

    fn smooth_ensemble(rows: usize, cols: usize, t: usize) -> MapEnsemble {
        let maps: Vec<ThermalMap> = (0..t)
            .map(|i| {
                let a = (i as f64 / 4.0).sin();
                let b = (i as f64 / 9.0).cos();
                ThermalMap::from_fn(rows, cols, |r, c| {
                    55.0 + 4.0 * a * (r as f64 / rows as f64)
                        + 3.0 * b * ((c as f64 / cols as f64) * 2.2).sin()
                })
            })
            .collect();
        MapEnsemble::from_maps(&maps).unwrap()
    }

    #[test]
    fn exact_recovery_in_subspace() {
        let basis = DctBasis::new(5, 5, 3).unwrap();
        let alpha = [10.0, -2.0, 0.7];
        let cells = basis.matrix().matvec(&alpha).unwrap();
        let map = ThermalMap::new(5, 5, cells).unwrap();
        // NB: not the grid diagonal — on r = c the two first-order DCT
        // atoms coincide and the sensing matrix would be rank deficient.
        let sensors = SensorSet::new(5, 5, vec![0, 8, 11, 17, 24]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let est = rec.reconstruct(&sensors.sample(&map)).unwrap();
        assert!(map.mse(&est) < 1e-20);
        let coeffs = rec.coefficients(&sensors.sample(&map)).unwrap();
        for (c, a) in coeffs.iter().zip(alpha.iter()) {
            assert!((c - a).abs() < 1e-10);
        }
    }

    #[test]
    fn eigenbasis_reconstruction_on_training_family() {
        let ens = smooth_ensemble(6, 6, 60);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 21, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        for t in [3, 25, 50] {
            let map = ens.map(t);
            let est = rec.reconstruct(&sensors.sample(&map)).unwrap();
            // The family is essentially 2-dimensional, so 4 sensors suffice.
            assert!(map.mse(&est) < 1e-3, "t={t} mse={}", map.mse(&est));
        }
    }

    #[test]
    fn insufficient_sensors_rejected() {
        let basis = DctBasis::new(4, 4, 5).unwrap();
        let sensors = SensorSet::new(4, 4, vec![0, 5, 10, 15]).unwrap(); // M=4 < K=5
        assert!(matches!(
            Reconstructor::new(&basis, &sensors),
            Err(CoreError::InsufficientSensors { .. })
        ));
    }

    #[test]
    fn rank_deficient_layout_rejected() {
        // A basis whose second atom vanishes on the chosen sensors:
        // build from an ensemble that only varies along one column.
        let maps: Vec<ThermalMap> = (0..30)
            .map(|t| {
                ThermalMap::from_fn(4, 4, |r, c| {
                    if c == 0 {
                        (t as f64 * 0.3).sin() * (r as f64 + 1.0)
                    } else if c == 1 {
                        (t as f64 * 0.7).cos() * (r as f64 + 0.5)
                    } else {
                        0.0
                    }
                })
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        // Sensors only in the constant region (columns 2..3): the sensing
        // matrix is (near) zero → rank deficient.
        let sensors = SensorSet::from_positions(4, 4, &[(0, 2), (1, 2), (2, 3), (3, 3)]).unwrap();
        assert!(matches!(
            Reconstructor::new(&basis, &sensors),
            Err(CoreError::SensingRankDeficient { .. })
        ));
    }

    #[test]
    fn grid_mismatch_rejected() {
        let basis = DctBasis::new(4, 4, 2).unwrap();
        let sensors = SensorSet::new(5, 4, vec![0, 1, 2]).unwrap();
        assert!(matches!(
            Reconstructor::new(&basis, &sensors),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn readings_length_checked() {
        let basis = DctBasis::new(4, 4, 2).unwrap();
        let sensors = SensorSet::new(4, 4, vec![0, 5, 10]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        assert!(rec.reconstruct(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn condition_number_is_exposed_and_finite() {
        let basis = DctBasis::new(6, 6, 4).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 8, 16, 24, 32, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let kappa = rec.condition_number();
        assert!(kappa.is_finite() && kappa >= 1.0, "κ = {kappa}");
    }

    #[test]
    fn better_conditioned_layout_is_more_noise_robust() {
        // Compare noise amplification of a clustered vs spread layout.
        let basis = DctBasis::new(8, 8, 4).unwrap();
        let clustered = SensorSet::new(8, 8, vec![0, 1, 8, 9, 2, 10]).unwrap();
        let spread = SensorSet::new(8, 8, vec![0, 7, 28, 35, 56, 63]).unwrap();
        let rc = Reconstructor::new(&basis, &clustered).unwrap();
        let rs = Reconstructor::new(&basis, &spread).unwrap();
        assert!(
            rs.condition_number() < rc.condition_number(),
            "spread κ={} clustered κ={}",
            rs.condition_number(),
            rc.condition_number()
        );
    }

    #[test]
    fn batch_reconstruction_is_bitwise_identical_to_single() {
        let ens = smooth_ensemble(6, 6, 50);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 14, 21, 28, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        // Enough frames to cross several synthesis blocks.
        let frames: Vec<Vec<f64>> = (0..50).map(|t| sensors.sample(&ens.map(t))).collect();
        let batch = rec.reconstruct_batch(&frames).unwrap();
        assert_eq!(batch.len(), frames.len());
        for (frame, map) in frames.iter().zip(batch.iter()) {
            let single = rec.reconstruct(frame).unwrap();
            assert_eq!(single.as_slice(), map.as_slice());
        }
        // Shape validation and the empty batch.
        assert!(rec.reconstruct_batch(&[]).unwrap().is_empty());
        assert!(matches!(
            rec.reconstruct_batch(&[vec![0.0; 3]]),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn shard_spans_partition_contiguously() {
        for (frames, shards) in [
            (0usize, 4usize),
            (1, 4),
            (3, 4),
            (4, 4),
            (5, 4),
            (1000, 7),
            (1024, 1),
            (10, 0),
        ] {
            let spans = shard_spans(frames, shards);
            assert!(spans.len() <= shards.max(1));
            let mut next = 0;
            for span in &spans {
                assert_eq!(span.start, next, "gap before {span:?}");
                assert!(!span.is_empty());
                next = span.end;
            }
            assert_eq!(next, frames, "spans must cover all frames");
            if frames > 0 {
                let lens: Vec<usize> = spans.iter().map(|s| s.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal split violated: {lens:?}");
            }
        }
    }

    #[test]
    fn reused_scratch_is_bitwise_inert() {
        let ens = smooth_ensemble(6, 6, 50);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 14, 21, 28, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let frames: Vec<Vec<f64>> = (0..50).map(|t| sensors.sample(&ens.map(t))).collect();
        let fresh = rec.reconstruct_batch(&frames).unwrap();
        let mut scratch = BatchScratch::new();
        // Dirty the scratch with a differently-shaped batch first, then
        // shrink: outputs must not depend on the scratch's history.
        rec.reconstruct_batch_with(&frames[..37], &mut scratch)
            .unwrap();
        let reused = rec.reconstruct_batch_with(&frames, &mut scratch).unwrap();
        for (a, b) in fresh.iter().zip(reused.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn sharded_spans_concatenate_to_sequential_batch() {
        let ens = smooth_ensemble(6, 6, 50);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 14, 21, 28, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let frames: Vec<Vec<f64>> = (0..50).map(|t| sensors.sample(&ens.map(t))).collect();
        let sequential = rec.reconstruct_batch(&frames).unwrap();
        for shards in [1, 2, 3, 4, 7] {
            let mut sharded = Vec::new();
            for span in shard_spans(frames.len(), shards) {
                sharded.extend(rec.reconstruct_batch(&frames[span]).unwrap());
            }
            assert_eq!(sharded.len(), sequential.len());
            for (a, b) in sequential.iter().zip(sharded.iter()) {
                assert_eq!(a.as_slice(), b.as_slice(), "shards = {shards}");
            }
        }
    }

    #[test]
    fn every_backend_keeps_batch_bitwise_identical_to_single() {
        // The per-backend bitwise contract: under a forced kernel, the
        // batch path must reproduce the per-frame path bit for bit —
        // including the FMA-fused AVX2 backend, whose per-frame rounding
        // is position-independent by construction.
        let ens = smooth_ensemble(6, 6, 50);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 14, 21, 28, 35]).unwrap();
        let frames: Vec<Vec<f64>> = (0..50).map(|t| sensors.sample(&ens.map(t))).collect();
        for kind in KernelKind::available() {
            let rec = Reconstructor::new(&basis, &sensors)
                .unwrap()
                .with_kernel(kind)
                .unwrap();
            assert_eq!(rec.kernel_kind(), kind);
            // Batch sizes below the lane width, below FRAME_BLOCK, and
            // spanning several blocks.
            for take in [1usize, 3, 7, 50] {
                let batch = rec.reconstruct_batch(&frames[..take]).unwrap();
                for (frame, map) in frames[..take].iter().zip(batch.iter()) {
                    let single = rec.reconstruct(frame).unwrap();
                    assert_eq!(
                        single.as_slice(),
                        map.as_slice(),
                        "kernel={kind} take={take}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_backends_match_scalar_within_tolerance() {
        let ens = smooth_ensemble(7, 6, 60);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let sensors = SensorSet::new(7, 6, vec![0, 8, 15, 22, 29, 41]).unwrap();
        let frames: Vec<Vec<f64>> = (0..60).map(|t| sensors.sample(&ens.map(t))).collect();
        let scalar = Reconstructor::new(&basis, &sensors)
            .unwrap()
            .with_kernel(KernelKind::Scalar)
            .unwrap()
            .reconstruct_batch(&frames)
            .unwrap();
        for kind in KernelKind::available() {
            let rec = Reconstructor::new(&basis, &sensors)
                .unwrap()
                .with_kernel(kind)
                .unwrap();
            let maps = rec.reconstruct_batch(&frames).unwrap();
            for (a, b) in scalar.iter().zip(maps.iter()) {
                for (&x, &y) in a.as_slice().iter().zip(b.as_slice().iter()) {
                    let rel = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
                    assert!(rel <= 1e-10, "kernel={kind}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn unavailable_kernel_is_rejected_with_diagnostic() {
        let basis = DctBasis::new(4, 4, 2).unwrap();
        let sensors = SensorSet::new(4, 4, vec![0, 5, 10]).unwrap();
        let mut rec = Reconstructor::new(&basis, &sensors).unwrap();
        assert!(rec.kernel_kind().is_available());
        for kind in KernelKind::ALL {
            if kind.is_available() {
                rec.set_kernel(kind).unwrap();
                assert_eq!(rec.kernel_kind(), kind);
            } else {
                let before = rec.kernel_kind();
                assert!(matches!(
                    rec.set_kernel(kind),
                    Err(CoreError::KernelUnavailable { .. })
                ));
                assert_eq!(rec.kernel_kind(), before, "failed force must not stick");
            }
        }
    }

    #[test]
    fn mean_offset_restored() {
        // EigenBasis subtracts the sample mean; reconstruction must add it
        // back even when all readings equal the mean.
        let ens = smooth_ensemble(5, 5, 40);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let sensors = SensorSet::new(5, 5, vec![0, 6, 12, 18]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let mean_map = ThermalMap::new(5, 5, basis.mean().to_vec()).unwrap();
        let est = rec.reconstruct(&sensors.sample(&mean_map)).unwrap();
        assert!(mean_map.mse(&est) < 1e-18);
    }
}
