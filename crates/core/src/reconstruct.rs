//! Least-squares thermal-map reconstruction from sensor readings —
//! Theorem 1 of the paper.
//!
//! Per frame the math is one `K × M` least-squares solve against the QR
//! factorization of the sensing matrix plus one `N × K` synthesis. A
//! batch runs it in [`FRAME_BLOCK`]-frame blocks: the block's readings
//! are centered into one sensor-major block, solved in one
//! [`Qr::solve_block_into`] sweep that leaves the coefficients in the
//! kernel's layout, checked for overflow in O(K) per frame, and
//! synthesized by one kernel call written in place into the output.
//! [`Reconstructor::reconstruct_slab`] writes into a [`MapSlab`], whose
//! buffer holds each map as its `EMWIRE2` map record, so the serving
//! path carries one map representation from the kernel to the socket;
//! [`Reconstructor::reconstruct_batch`] runs the same driver into owned
//! maps.

use std::ops::Range;
use std::sync::Arc;

use eigenmaps_linalg::{Qr, Svd};

use crate::basis::Basis;
use crate::codec::{map_record_header, MAP_RECORD_HEADER_WORDS};
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

/// Reusable scratch buffers for [`Reconstructor::reconstruct_slab`].
///
/// Holds one frame block's solve buffers, so a serving loop (or a
/// sharded worker thread) sizes them once and reuses them across every
/// batch it processes. The default value is an empty scratch that grows
/// to fit the first block.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// One block's mean-centered readings, sensor-major (`M ×
    /// bsz`): the right-hand sides of the block solve.
    centered: Vec<f64>,
    /// One block's coefficients, coefficient-major (`K × bsz`): the
    /// block solve's output and the kernel's `alpha_t` input.
    alpha_t: Vec<f64>,
}

impl BatchScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

/// A run of reconstructed maps in one contiguous buffer, each stored as
/// its `EMWIRE2` map record: `rows` and `cols` as two `u64` words, then
/// the cells (see [`crate::codec`], *Map records*). On a little-endian
/// host the slab's memory is therefore the reply's map bytes, and a
/// server writes [`MapSlab::records`] to a socket without encoding.
///
/// [`Reconstructor::reconstruct_slab`] refills a slab in place: a slab
/// reused for batches no larger than the largest it has held allocates
/// nothing.
#[derive(Clone, Default)]
pub struct MapSlab {
    rows: usize,
    cols: usize,
    frames: usize,
    /// `frames` records of `MAP_RECORD_HEADER_WORDS + rows · cols`
    /// words; the tail past them is capacity kept from larger batches.
    words: Vec<f64>,
}

impl MapSlab {
    /// An empty slab; its buffer grows to fit the first batch.
    pub fn new() -> Self {
        MapSlab::default()
    }

    /// Maps held.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the slab holds no maps.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    fn record_words(&self) -> usize {
        MAP_RECORD_HEADER_WORDS + self.rows * self.cols
    }

    /// Map `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn map(&self, i: usize) -> MapRef<'_> {
        assert!(i < self.frames, "map slab index out of range");
        let record = &self.records(i..i + 1)[MAP_RECORD_HEADER_WORDS..];
        MapRef {
            rows: self.rows,
            cols: self.cols,
            cells: record,
        }
    }

    /// The records of maps `range`, back to back: their
    /// [`crate::codec::f64_le_bytes`] are the maps' wire bytes.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past [`MapSlab::len`].
    pub fn records(&self, range: Range<usize>) -> &[f64] {
        assert!(range.end <= self.frames, "map slab range out of range");
        let words = self.record_words();
        &self.words[range.start * words..range.end * words]
    }

    /// Resizes the slab to `frames` maps of `rows × cols`, writes every
    /// record header, and hands out the cell views in frame order. Stale
    /// cells are left for the caller to overwrite.
    fn refill(
        &mut self,
        rows: usize,
        cols: usize,
        frames: usize,
    ) -> impl Iterator<Item = &mut [f64]> {
        self.rows = rows;
        self.cols = cols;
        self.frames = frames;
        let words = self.record_words();
        if self.words.len() < frames * words {
            self.words.resize(frames * words, 0.0);
        }
        let header = map_record_header(rows, cols);
        self.words[..frames * words]
            .chunks_exact_mut(words)
            .map(move |record| {
                let (head, cells) = record.split_at_mut(MAP_RECORD_HEADER_WORDS);
                head.copy_from_slice(&header);
                cells
            })
    }
}

/// Shape and count only: the cells would swamp any log line.
impl std::fmt::Debug for MapSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapSlab")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("frames", &self.frames)
            .finish()
    }
}

/// A borrowed view of one map: its shape and row-major cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapRef<'a> {
    rows: usize,
    cols: usize,
    cells: &'a [f64],
}

impl<'a> MapRef<'a> {
    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major cells, `rows · cols` long.
    pub fn as_slice(&self) -> &'a [f64] {
        self.cells
    }

    /// An owned copy.
    pub fn to_map(&self) -> ThermalMap {
        ThermalMap::new(self.rows, self.cols, self.cells.to_vec())
            .expect("a slab record holds rows · cols cells")
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
    /// `max |mean_i|`; with [`PackedBasis::max_abs`] it bounds every
    /// synthesized cell (see [`Reconstructor::check_synthesis`]).
    mean_max: f64,
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
        let mean_max = mean.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let mean_at_sensors = sensors.locations().iter().map(|&i| mean[i]).collect();
        Ok(Reconstructor {
            packed: Arc::new(PackedBasis::pack(basis.matrix())),
            mean,
            mean_max,
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

    /// The packed panel layout of the synthesis basis that the
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
    /// * [`CoreError::NonFiniteReading`] (`frame` 0) if a reading is NaN
    ///   or ±∞.
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
        check_finite(0, readings)?;
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
    /// packed panels as the batch paths (as a one-frame block),
    /// which is what keeps [`Reconstructor::reconstruct_batch`] bitwise
    /// identical to per-frame reconstruction under *every* backend —
    /// including the FMA-fused AVX2/AVX-512 ones.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if `alpha.len() != K`.
    /// * [`CoreError::ReconstructionOverflow`] (`frame` 0) if `alpha`
    ///   could synthesize a non-finite cell.
    pub fn map_from_coefficients(&self, alpha: &[f64]) -> Result<ThermalMap> {
        if alpha.len() != self.k() {
            return Err(CoreError::ShapeMismatch {
                context: "map_from_coefficients",
                expected: self.k(),
                found: alpha.len(),
            });
        }
        self.check_synthesis(0, alpha.iter().copied())?;
        let mut cells = vec![0.0; self.rows * self.cols];
        // A one-frame block: `alpha` transposed at bsz = 1 is itself.
        self.kernel.backend().synthesize_panels(
            &self.packed,
            0..self.packed.panels(),
            &self.mean,
            alpha,
            1,
            &mut [cells.as_mut_slice()],
        );
        ThermalMap::new(self.rows, self.cols, cells)
    }

    /// Refuses coefficients whose map could overflow, in O(K). Every
    /// cell obeys `|Σ_j Ψ_ij α_j + mean_i| ≤ Σ_j |α_j| · max|Ψ| + max|mean|`;
    /// the bound must stay within half of `f64::MAX`, headroom for the
    /// kernels' rounding. A NaN or ±∞ coefficient fails the comparison
    /// too.
    fn check_synthesis(&self, frame: usize, alpha: impl Iterator<Item = f64>) -> Result<()> {
        let l1: f64 = alpha.map(f64::abs).sum();
        let bound = l1 * self.packed.max_abs() + self.mean_max;
        if bound <= f64::MAX / 2.0 {
            Ok(())
        } else {
            Err(CoreError::ReconstructionOverflow { frame })
        }
    }

    /// Reconstructs the full thermal map `x̃ = Ψ_K α̂ + mean` from sensor
    /// readings (Theorem 1).
    ///
    /// # Errors
    ///
    /// Same contract as [`Reconstructor::coefficients`], plus
    /// [`CoreError::ReconstructionOverflow`] when finite but enormous
    /// readings would synthesize a non-finite cell.
    pub fn reconstruct(&self, readings: &[f64]) -> Result<ThermalMap> {
        let alpha = self.coefficients(readings)?;
        self.map_from_coefficients(&alpha)
    }

    /// Reconstructs a batch of frames into one owned map per frame.
    ///
    /// Runs the same driver as [`Reconstructor::reconstruct_slab`], with
    /// a fresh scratch, so the returned maps are **bitwise identical** to
    /// the slab's and to per-frame reconstruction under the same
    /// [`Reconstructor::kernel_kind`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if any frame's length differs
    /// from `M`, [`CoreError::NonFiniteReading`] for the first NaN or ±∞
    /// reading (before any solve runs), [`CoreError::ReconstructionOverflow`]
    /// for the first frame whose map would not be finite; propagates
    /// solver failures.
    pub fn reconstruct_batch(&self, frames: &[Vec<f64>]) -> Result<Vec<ThermalMap>> {
        let n = self.rows * self.cols;
        let mut cells: Vec<Vec<f64>> = frames.iter().map(|_| vec![0.0; n]).collect();
        self.reconstruct_into(
            frames,
            cells.iter_mut().map(Vec::as_mut_slice),
            &mut BatchScratch::new(),
        )?;
        cells
            .into_iter()
            .map(|c| ThermalMap::new(self.rows, self.cols, c))
            .collect()
    }

    /// Reconstructs a batch of frames into `slab`, one map record per
    /// frame — the serving hot path.
    ///
    /// Frames run in [`FRAME_BLOCK`]-frame blocks. Each block's readings
    /// are centered straight into one sensor-major block, solved in one
    /// [`Qr::solve_block_into`] sweep whose output is already the
    /// kernel's coefficient layout, checked for overflow frame by frame in
    /// O(K), and synthesized by one dispatched [`crate::kernel`] call over
    /// every packed panel ([`PackedBasis`]), written in place into the
    /// slab's records. The block solve gives each frame the bits of a
    /// one-frame solve, and every kernel backend applies one fixed
    /// per-frame recurrence regardless of block position, so the maps
    /// are **bitwise identical** to per-frame reconstruction under the
    /// same [`Reconstructor::kernel_kind`], whatever the scratch's and
    /// the slab's history. With both reused, a batch no larger than the
    /// largest before allocates nothing.
    ///
    /// # Errors
    ///
    /// Same contract as [`Reconstructor::reconstruct_batch`]. On error
    /// the slab's contents are unspecified.
    pub fn reconstruct_slab(
        &self,
        frames: &[Vec<f64>],
        slab: &mut MapSlab,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        let outs = slab.refill(self.rows, self.cols, frames.len());
        self.reconstruct_into(frames, outs, scratch)
    }

    /// The batch driver: writes frame `f`'s map into the `f`-th view of
    /// `outs` (each `rows · cols` long, at least one per frame).
    fn reconstruct_into<'o>(
        &self,
        frames: &[Vec<f64>],
        mut outs: impl Iterator<Item = &'o mut [f64]>,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        let m = self.sensors.len();
        let k = self.k();
        for (frame, readings) in frames.iter().enumerate() {
            if readings.len() != m {
                return Err(CoreError::ShapeMismatch {
                    context: "reconstruct_batch readings",
                    expected: m,
                    found: readings.len(),
                });
            }
            check_finite(frame, readings)?;
        }
        let backend = self.kernel.backend();
        for (block, chunk) in frames.chunks(FRAME_BLOCK).enumerate() {
            let bsz = chunk.len();
            let first = block * FRAME_BLOCK;
            // Every entry of both buffers is written before it is read,
            // so stale scratch contents are inert.
            scratch.centered.resize(m * bsz, 0.0);
            scratch.alpha_t.resize(k * bsz, 0.0);
            for (f, readings) in chunk.iter().enumerate() {
                for (s, (x, mu)) in readings.iter().zip(&self.mean_at_sensors).enumerate() {
                    scratch.centered[s * bsz + f] = x - mu;
                }
            }
            self.qr
                .solve_block_into(&mut scratch.centered, &mut scratch.alpha_t, bsz)?;
            for f in 0..bsz {
                let alpha = scratch.alpha_t.iter().skip(f).step_by(bsz).copied();
                self.check_synthesis(first + f, alpha)?;
            }
            let mut views: [&mut [f64]; FRAME_BLOCK] = std::array::from_fn(|_| Default::default());
            for view in &mut views[..bsz] {
                *view = outs.next().expect("one output view per frame");
            }
            backend.synthesize_panels(
                &self.packed,
                0..self.packed.panels(),
                &self.mean,
                &scratch.alpha_t,
                bsz,
                &mut views[..bsz],
            );
        }
        Ok(())
    }
}

/// Refuses `frame`'s first NaN or ±∞ reading with
/// [`CoreError::NonFiniteReading`].
fn check_finite(frame: usize, readings: &[f64]) -> Result<()> {
    match readings.iter().position(|x| !x.is_finite()) {
        Some(sensor) => Err(CoreError::NonFiniteReading { frame, sensor }),
        None => Ok(()),
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
    fn non_finite_readings_are_refused_with_their_position() {
        let basis = DctBasis::new(5, 5, 3).unwrap();
        let sensors = SensorSet::new(5, 5, vec![0, 8, 11, 17, 24]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let good = vec![50.0; 5];
        for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = good.clone();
            bad[3] = bad_value;
            let refused = CoreError::NonFiniteReading {
                frame: 0,
                sensor: 3,
            };
            assert_eq!(rec.coefficients(&bad).unwrap_err(), refused);
            assert_eq!(rec.reconstruct(&bad).unwrap_err(), refused);
            // Batch calls name the offending frame.
            let batch = vec![good.clone(), good.clone(), bad];
            assert_eq!(
                rec.reconstruct_batch(&batch).unwrap_err(),
                CoreError::NonFiniteReading {
                    frame: 2,
                    sensor: 3
                }
            );
        }
        assert!(rec.reconstruct(&good).is_ok());
    }

    #[test]
    fn readings_that_would_overflow_the_map_are_refused() {
        let ens = smooth_ensemble(6, 6, 60);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 21, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let good = sensors.sample(&ens.map(3));
        // Enormous but finite readings stay finite in the map...
        let big = vec![1e300; 4];
        let map = rec.reconstruct(&big).unwrap();
        assert!(map.as_slice().iter().all(|x| x.is_finite()));
        for huge in [1.7e308, -1.7e308, f64::MAX] {
            // ...until the map itself would overflow.
            let bad = vec![huge; 4];
            let refused = CoreError::ReconstructionOverflow { frame: 0 };
            assert_eq!(rec.reconstruct(&bad).unwrap_err(), refused);
            let batch = vec![good.clone(), big.clone(), bad];
            assert_eq!(
                rec.reconstruct_batch(&batch).unwrap_err(),
                CoreError::ReconstructionOverflow { frame: 2 }
            );
        }
        // Non-finite coefficients never reach the kernel either.
        for alpha in [[f64::NAN, 0.0], [0.0, f64::INFINITY], [f64::MAX, f64::MAX]] {
            assert_eq!(
                rec.map_from_coefficients(&alpha).unwrap_err(),
                CoreError::ReconstructionOverflow { frame: 0 }
            );
        }
        // The guard leaves ordinary frames bitwise alone.
        let single = rec.reconstruct(&good).unwrap();
        let batched = rec.reconstruct_batch(&[good.clone(), big]).unwrap();
        assert_eq!(single.as_slice(), batched[0].as_slice());
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
        fn slab_maps(slab: &MapSlab) -> Vec<MapRef<'_>> {
            (0..slab.len()).map(|i| slab.map(i)).collect()
        }
        let mut scratch = BatchScratch::new();
        let mut slab = MapSlab::new();
        // Dirty the scratch with a differently-shaped batch first, then
        // shrink: outputs must not depend on the scratch's history.
        rec.reconstruct_slab(&frames[..37], &mut slab, &mut scratch)
            .unwrap();
        rec.reconstruct_slab(&frames, &mut slab, &mut scratch)
            .unwrap();
        let reused = slab_maps(&slab);
        for (a, b) in fresh.iter().zip(reused.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // The reverse order: a scratch sized by the full batch then serves
        // smaller batches, down to a single frame.
        let mut scratch = BatchScratch::new();
        let mut slab = MapSlab::new();
        rec.reconstruct_slab(&frames, &mut slab, &mut scratch)
            .unwrap();
        for len in [37, 1] {
            rec.reconstruct_slab(&frames[..len], &mut slab, &mut scratch)
                .unwrap();
            let reused = slab_maps(&slab);
            assert_eq!(reused.len(), len);
            for (a, b) in fresh.iter().zip(reused.iter()) {
                assert_eq!(a.as_slice(), b.as_slice(), "batch of {len}");
            }
        }
    }

    #[test]
    fn slab_records_are_wire_map_records() {
        let ens = smooth_ensemble(6, 5, 40);
        let basis = EigenBasis::fit_exact(&ens, 3).unwrap();
        let sensors = SensorSet::new(6, 5, vec![0, 7, 14, 21, 29]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let frames: Vec<Vec<f64>> = (0..40).map(|t| sensors.sample(&ens.map(t))).collect();
        let maps = rec.reconstruct_batch(&frames).unwrap();
        let mut slab = MapSlab::new();
        rec.reconstruct_slab(&frames, &mut slab, &mut BatchScratch::new())
            .unwrap();
        assert_eq!(slab.len(), 40);
        let mut enc = crate::codec::Encoder::default();
        for map in &maps[3..35] {
            enc.map_record(map.rows(), map.cols(), map.as_slice());
        }
        let bytes = crate::codec::f64_le_bytes(slab.records(3..35));
        assert_eq!(&*bytes, enc.finish().as_slice());
        let view = slab.map(7);
        assert_eq!((view.rows(), view.cols()), (6, 5));
        assert_eq!(view.to_map(), maps[7]);
        assert!(slab.records(40..40).is_empty());
    }

    #[test]
    fn overflow_in_a_later_block_names_its_batch_frame() {
        let ens = smooth_ensemble(6, 6, 60);
        let basis = EigenBasis::fit_exact(&ens, 2).unwrap();
        let sensors = SensorSet::new(6, 6, vec![0, 7, 21, 35]).unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        let good = sensors.sample(&ens.map(3));
        let mut frames = vec![good.clone(); 70];
        frames[40] = vec![1.7e308; 4];
        assert_eq!(
            rec.reconstruct_batch(&frames).unwrap_err(),
            CoreError::ReconstructionOverflow { frame: 40 }
        );
        let mut slab = MapSlab::new();
        assert_eq!(
            rec.reconstruct_slab(&frames, &mut slab, &mut BatchScratch::new())
                .unwrap_err(),
            CoreError::ReconstructionOverflow { frame: 40 }
        );
        // A non-finite reading anywhere is reported before any solve, so
        // it wins over an overflow in an earlier block.
        frames[65][2] = f64::NAN;
        assert_eq!(
            rec.reconstruct_batch(&frames).unwrap_err(),
            CoreError::NonFiniteReading {
                frame: 65,
                sensor: 2
            }
        );
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
