//! The frame-blocked synthesis kernel `x̃ = Ψ_K α + mean` behind every
//! serving path, with interchangeable SIMD backends and runtime dispatch.
//!
//! Reconstruction cost at run time is dominated by the dense synthesis
//! step: for every output cell `i`, accumulate `Σ_j Ψ[i,j]·α_j` and add
//! the mean (Sec. 4 of the paper; `O(NK)` per frame vs the `O(MK)`
//! triangular solve). This module owns that loop. [`Reconstructor`] blocks
//! batches into [`FRAME_BLOCK`]-frame groups, transposes the coefficients
//! so frames are contiguous, and hands the work to one
//! [`SynthesisKernel`] backend:
//!
//! * [`KernelKind::Scalar`] — one accumulator chain per output element,
//!   plain multiply-then-add. The **reference oracle**: slow (bounded by
//!   the floating-point add latency of its single chain) but the baseline
//!   every other backend is tested against, and itself pinned bitwise to
//!   a naive dense `Ψα + mean` in this module's tests.
//! * [`KernelKind::Lanes`] — portable path: a full panel's eight row
//!   chains advance together, hiding the add latency. Uses the same
//!   multiply-then-add operations per output element as the scalar path,
//!   so its output is **bitwise identical** to [`KernelKind::Scalar`] on
//!   every host.
//! * [`KernelKind::Avx2`] — `x86_64` AVX2 + FMA intrinsics path (a panel
//!   rides two 4-lane fused-multiply-add chains, two frames in flight),
//!   selected by `is_x86_feature_detected!` at run time. Fusing the
//!   multiply and add rounds once instead of twice, so outputs differ from
//!   the scalar oracle by rounding only — the cross-backend property tests
//!   bound the divergence at `1e-10` relative.
//! * [`KernelKind::Avx512`] — `x86_64` AVX-512F intrinsics path: a panel
//!   column is one 8-wide `f64` vector, four frames in flight. Applies the
//!   **same** fused per-element recurrence as the AVX2 backend, so its
//!   output is bitwise identical to [`KernelKind::Avx2`] (and therefore
//!   within the same `1e-10` relative envelope of the scalar oracle).
//!
//! # One entry point: packed+tiled
//!
//! Every backend implements exactly one method,
//! [`SynthesisKernel::synthesize_panels`], over a [`PackedBasis`]: output
//! rows ride the SIMD lanes, every basis access is a full-width
//! **aligned** vector load from a cache-line-aligned panel column, and the
//! caller loops L2-sized row tiles outermost
//! ([`PackedBasis::tile_spans`]) so each tile's panels stay L2-resident
//! across the entire batch. [`Reconstructor`] and (through it) the serving
//! fleet run this path; a one-frame call is a block of `bsz = 1`.
//!
//! # The position-independence contract
//!
//! Every backend must produce, for each frame, a rounding sequence that
//! does not depend on the frame's position inside a block, the block
//! size, its lane assignment, or the row tiling. Concretely: a backend
//! fixes one per-element recurrence (multiply-then-add for
//! `Scalar`/`Lanes`, fused multiply-add for `Avx2`/`Avx512`) and applies
//! it in ascending-`j` order to every `(cell, frame)` output element,
//! whether that element sits in a full SIMD group, in a remainder, in a
//! lane-padded panel, or alone in a single-frame call. Row tiling
//! reorders only *which element* is computed when — never an element's
//! own chain — so it is bitwise-invisible by construction.
//!
//! This is what keeps the workspace-wide bitwise guarantees *per
//! backend*: [`Reconstructor::reconstruct`],
//! [`Reconstructor::reconstruct_batch`] and the sharded executor of
//! `eigenmaps-serve` all route through the same deployment-selected
//! backend, so batching, sharding and tiling never change an answer —
//! only *changing the backend* does, and then only within the documented
//! tolerance.
//!
//! # Dispatch
//!
//! [`KernelKind::detect`] picks the fastest available backend (AVX-512F
//! where the CPU has it, then AVX2+FMA, then the portable lanes path) and
//! **caches the answer for the process** behind a `OnceLock` — deployment
//! construction is on serving control paths (artifact hot swap, truncated
//! QoS cache fills) and must not re-run feature detection and an
//! environment read every time. The `EIGENMAPS_KERNEL` environment
//! variable (`"scalar"`, `"lanes"`, `"avx2"`, `"avx512"`) is honored by
//! the first detection in the process as a forced override for testing,
//! ignoring values naming a backend the host cannot run;
//! [`KernelKind::detect_uncached`] is the test-only escape hatch that
//! re-reads the environment on every call. Programmatic forcing goes
//! through [`Reconstructor::set_kernel`] /
//! [`crate::Deployment::set_kernel`], which *reject* unavailable backends
//! with [`CoreError::KernelUnavailable`].
//!
//! [`Reconstructor`]: crate::Reconstructor
//! [`Reconstructor::reconstruct`]: crate::Reconstructor::reconstruct
//! [`Reconstructor::reconstruct_batch`]: crate::Reconstructor::reconstruct_batch
//! [`Reconstructor::set_kernel`]: crate::Reconstructor::set_kernel
//! [`CoreError::KernelUnavailable`]: crate::CoreError::KernelUnavailable

use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use crate::error::{CoreError, Result};
pub use crate::packed::{PackedBasis, PANEL_ROWS};

/// Frames per synthesis block: [`crate::Reconstructor`] transposes
/// coefficients and calls the kernel in groups of at most this many
/// frames, so the per-block coefficient tile stays cache resident.
pub const FRAME_BLOCK: usize = 32;

/// Width of one AVX2 `f64` vector: half a [`PANEL_ROWS`]-row panel
/// column.
pub const LANES: usize = 4;

/// Identifies one synthesis backend. See the [module docs](self) for what
/// each backend computes and how they relate numerically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelKind {
    /// Reference scalar path — one multiply-then-add chain per output
    /// element.
    Scalar,
    /// Portable unrolled path (eight panel-row chains); bitwise identical
    /// to `Scalar`.
    Lanes,
    /// `x86_64` AVX2 + FMA intrinsics path; equals `Scalar` within
    /// rounding (`1e-10` relative in the property tests).
    Avx2,
    /// `x86_64` AVX-512F intrinsics path (8-wide `f64` FMA chains);
    /// bitwise identical to `Avx2`, same `1e-10` envelope vs `Scalar`.
    Avx512,
}

static DETECTED: OnceLock<KernelKind> = OnceLock::new();

impl KernelKind {
    /// Every backend kind, in oracle-first order.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Scalar,
        KernelKind::Lanes,
        KernelKind::Avx2,
        KernelKind::Avx512,
    ];

    /// The fastest backend available on this host: `Avx512` when the CPU
    /// reports AVX-512F, else `Avx2` when it reports AVX2 *and* FMA,
    /// `Lanes` otherwise.
    ///
    /// The answer (including the `EIGENMAPS_KERNEL` override, see
    /// [`KernelKind::detect_uncached`]) is computed once per process and
    /// cached — constructing a [`crate::Reconstructor`] is on serving
    /// control paths and must not re-run CPU feature detection and an
    /// environment read per construction.
    pub fn detect() -> KernelKind {
        *DETECTED.get_or_init(KernelKind::detect_uncached)
    }

    /// Uncached [`KernelKind::detect`]: re-reads `EIGENMAPS_KERNEL`
    /// (`"scalar"`, `"lanes"`, `"avx2"`, `"avx512"`; unknown or
    /// unavailable values are ignored) and re-runs feature detection on
    /// every call. This is the escape hatch for tests that manipulate the
    /// environment; production code should use the cached
    /// [`KernelKind::detect`].
    pub fn detect_uncached() -> KernelKind {
        if let Ok(name) = std::env::var("EIGENMAPS_KERNEL") {
            if let Some(kind) = KernelKind::from_name(&name) {
                if kind.is_available() {
                    return kind;
                }
            }
        }
        if avx512_available() {
            KernelKind::Avx512
        } else if avx2_available() {
            KernelKind::Avx2
        } else {
            KernelKind::Lanes
        }
    }

    /// Whether this backend can run on the current host. `Scalar` and
    /// `Lanes` always can; `Avx2` requires a runtime AVX2 + FMA check and
    /// `Avx512` a runtime AVX-512F check.
    pub fn is_available(self) -> bool {
        match self {
            KernelKind::Scalar | KernelKind::Lanes => true,
            KernelKind::Avx2 => avx2_available(),
            KernelKind::Avx512 => avx512_available(),
        }
    }

    /// Backends available on this host, in [`KernelKind::ALL`] order.
    pub fn available() -> Vec<KernelKind> {
        KernelKind::ALL
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// Stable lower-case name (`"scalar"`, `"lanes"`, `"avx2"`,
    /// `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Lanes => "lanes",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Parses a [`KernelKind::name`] back to its kind.
    pub fn from_name(name: &str) -> Option<KernelKind> {
        KernelKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The backend implementation for this kind.
    ///
    /// For an unavailable kind (forced `Avx512`/`Avx2` on a host without
    /// it — unreachable through [`crate::Reconstructor::set_kernel`],
    /// which validates availability) this degrades safely to the next
    /// available path down the dispatch order rather than executing
    /// unsupported instructions.
    pub fn backend(self) -> &'static dyn SynthesisKernel {
        match self {
            KernelKind::Scalar => &ScalarKernel,
            KernelKind::Lanes => &LanesKernel,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 if avx512_available() => &Avx512Kernel,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 | KernelKind::Avx512 if avx2_available() => &Avx2Kernel,
            KernelKind::Avx2 | KernelKind::Avx512 => &LanesKernel,
        }
    }

    /// Validates that this backend is runnable here.
    ///
    /// # Errors
    ///
    /// [`CoreError::KernelUnavailable`] if the host lacks the required
    /// CPU features.
    pub fn require_available(self) -> Result<()> {
        if self.is_available() {
            Ok(())
        } else {
            Err(CoreError::KernelUnavailable {
                kernel: self.name(),
            })
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// One interchangeable synthesis backend.
///
/// [`SynthesisKernel::synthesize_panels`] computes, for a block of `bsz`
/// frames and every output row `i` covered by a panel range of a
/// [`PackedBasis`] `Ψ`,
///
/// ```text
/// outs[f][i] = Σ_j Ψ[i, j] · alpha_t[j · bsz + f]  +  mean[i]
/// ```
///
/// where `alpha_t` holds the block's coefficients transposed
/// frame-contiguous (`j`-major with stride `bsz`). All other rows of
/// `outs` are left untouched.
///
/// Implementations must uphold the position-independence contract of the
/// [module docs](self): an output element's rounding sequence may depend
/// only on the backend — never on `bsz`, the frame's index within the
/// block, or the panel tiling.
pub trait SynthesisKernel: fmt::Debug + Send + Sync {
    /// Which [`KernelKind`] this backend implements.
    fn kind(&self) -> KernelKind;

    /// Synthesizes the output rows covered by `panels` (a panel range of
    /// `packed`, see [`PackedBasis::tile_spans`]) for a block of `bsz`
    /// frames. Rows outside the panel range
    /// are left untouched, so a caller sweeps tiles to cover the grid.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree: `panels.end > packed.panels()`,
    /// `mean.len() != packed.rows()`, `alpha_t.len() < packed.cols() *
    /// bsz`, `outs.len() < bsz`, or any `outs[f].len() != packed.rows()`.
    fn synthesize_panels(
        &self,
        packed: &PackedBasis,
        panels: Range<usize>,
        mean: &[f64],
        alpha_t: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    );
}

/// Shape validation shared by the backends, so a mis-sized call fails
/// loudly at the kernel boundary. These are hard asserts, not debug
/// asserts: the SIMD backends read `alpha_t` and write `outs` through raw
/// pointers, so the bounds established here are load-bearing for memory
/// safety. The panel-column alignment and lane-padding invariants the
/// SIMD loads rely on are upheld by [`PackedBasis`] itself.
#[inline]
fn check_shapes(
    packed: &PackedBasis,
    panels: &Range<usize>,
    mean: &[f64],
    alpha_t: &[f64],
    bsz: usize,
    outs: &[&mut [f64]],
) {
    assert!(panels.end <= packed.panels(), "kernel: panel range");
    assert_eq!(mean.len(), packed.rows(), "kernel: mean length");
    assert!(
        alpha_t.len() >= packed.cols() * bsz,
        "kernel: alpha_t too short"
    );
    assert!(outs.len() >= bsz, "kernel: too few output frames");
    assert!(
        outs.iter().take(bsz).all(|o| o.len() == packed.rows()),
        "kernel: output frame length"
    );
}

/// The reference scalar backend ([`KernelKind::Scalar`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl SynthesisKernel for ScalarKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Scalar
    }

    fn synthesize_panels(
        &self,
        packed: &PackedBasis,
        panels: Range<usize>,
        mean: &[f64],
        alpha_t: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    ) {
        check_shapes(packed, &panels, mean, alpha_t, bsz, outs);
        let k = packed.cols();
        for p in panels {
            let panel = packed.panel(p);
            let base = packed.panel_base(p);
            for lane in 0..packed.panel_valid_rows(p) {
                let mu = mean[base + lane];
                for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                    let mut acc = 0.0;
                    for j in 0..k {
                        acc += panel[j * PANEL_ROWS + lane] * alpha_t[j * bsz + f];
                    }
                    out[base + lane] = acc + mu;
                }
            }
        }
    }
}

/// The portable unrolled backend ([`KernelKind::Lanes`]).
///
/// A full panel's eight row chains advance together, hiding the
/// floating-point add latency that bounds the scalar path, over memory
/// the autovectorizer can turn into packed multiply/add. Each chain
/// performs exactly the scalar recurrence, so the output is bitwise
/// identical to [`ScalarKernel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LanesKernel;

impl SynthesisKernel for LanesKernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Lanes
    }

    fn synthesize_panels(
        &self,
        packed: &PackedBasis,
        panels: Range<usize>,
        mean: &[f64],
        alpha_t: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    ) {
        check_shapes(packed, &panels, mean, alpha_t, bsz, outs);
        let k = packed.cols();
        for p in panels {
            let panel = packed.panel(p);
            let base = packed.panel_base(p);
            let valid = packed.panel_valid_rows(p);
            if valid == PANEL_ROWS {
                // Full panel: all 8 row chains advance together over one
                // contiguous panel column per coefficient — a fixed-width
                // inner loop the autovectorizer unrolls into packed
                // multiply/add. Multiply-then-add per element keeps it
                // bitwise equal to the scalar path.
                for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                    let mut a = [0.0f64; PANEL_ROWS];
                    for j in 0..k {
                        let col = &panel[j * PANEL_ROWS..(j + 1) * PANEL_ROWS];
                        let x = alpha_t[j * bsz + f];
                        for (acc, &c) in a.iter_mut().zip(col.iter()) {
                            *acc += c * x;
                        }
                    }
                    for (lane, &v) in a.iter().enumerate() {
                        out[base + lane] = v + mean[base + lane];
                    }
                }
            } else {
                // Lane-padded remainder panel: same chains, but only the
                // valid rows are stored.
                for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                    for lane in 0..valid {
                        let mut acc = 0.0;
                        for j in 0..k {
                            acc += panel[j * PANEL_ROWS + lane] * alpha_t[j * bsz + f];
                        }
                        out[base + lane] = acc + mean[base + lane];
                    }
                }
            }
        }
    }
}

/// The `x86_64` AVX2 + FMA backend ([`KernelKind::Avx2`]).
///
/// One 8-row panel rides two 4-lane `vfmadd` chains per frame, two
/// frames in flight (four chains), with **aligned** panel-column loads.
/// Full panels, single-frame remainders and lane-padded panels apply the
/// *same* fused recurrence per output element, preserving the
/// position-independence contract. Only selectable when
/// `is_x86_feature_detected!` reports both `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl SynthesisKernel for Avx2Kernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Avx2
    }

    fn synthesize_panels(
        &self,
        packed: &PackedBasis,
        panels: Range<usize>,
        mean: &[f64],
        alpha_t: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    ) {
        check_shapes(packed, &panels, mean, alpha_t, bsz, outs);
        // SAFETY: `KernelKind::backend` only hands out this backend after
        // `avx2_available()` confirmed the `avx2` and `fma` CPU features
        // at run time; the aligned panel loads are justified by the
        // PackedBasis alignment invariant.
        unsafe { synthesize_panels_avx2(packed, panels, mean, alpha_t, bsz, outs) }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn synthesize_panels_avx2(
    packed: &PackedBasis,
    panels: Range<usize>,
    mean: &[f64],
    alpha_t: &[f64],
    bsz: usize,
    outs: &mut [&mut [f64]],
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_fmadd_pd, _mm256_load_pd, _mm256_loadu_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd,
    };

    let k = packed.cols();
    let alpha = alpha_t.as_ptr();
    for p in panels {
        // SAFETY of the `_mm256_load_pd` calls below: `PackedBasis::panel`
        // guarantees 64-byte alignment of the panel base and a contiguous
        // `8K`-element panel, so both 32-byte halves of every panel column
        // are aligned in-bounds loads.
        let panel = packed.panel(p).as_ptr();
        let base = packed.panel_base(p);
        let valid = packed.panel_valid_rows(p);
        if valid == PANEL_ROWS {
            let mlo = _mm256_loadu_pd(mean.as_ptr().add(base));
            let mhi = _mm256_loadu_pd(mean.as_ptr().add(base + LANES));
            let mut f = 0;
            // Two frames in flight share every panel-column load: per
            // coefficient that is 2 aligned loads + 2 broadcasts feeding
            // 4 independent FMA chains, so load ports and FMA ports stay
            // balanced.
            while f + 2 <= bsz {
                let mut a00 = _mm256_setzero_pd();
                let mut a01 = _mm256_setzero_pd();
                let mut a10 = _mm256_setzero_pd();
                let mut a11 = _mm256_setzero_pd();
                for j in 0..k {
                    let c0 = _mm256_load_pd(panel.add(j * PANEL_ROWS));
                    let c1 = _mm256_load_pd(panel.add(j * PANEL_ROWS + LANES));
                    let x0 = _mm256_set1_pd(*alpha_t.get_unchecked(j * bsz + f));
                    let x1 = _mm256_set1_pd(*alpha_t.get_unchecked(j * bsz + f + 1));
                    a00 = _mm256_fmadd_pd(c0, x0, a00);
                    a01 = _mm256_fmadd_pd(c1, x0, a01);
                    a10 = _mm256_fmadd_pd(c0, x1, a10);
                    a11 = _mm256_fmadd_pd(c1, x1, a11);
                }
                let o0 = outs[f].as_mut_ptr().add(base);
                _mm256_storeu_pd(o0, _mm256_add_pd(a00, mlo));
                _mm256_storeu_pd(o0.add(LANES), _mm256_add_pd(a01, mhi));
                let o1 = outs[f + 1].as_mut_ptr().add(base);
                _mm256_storeu_pd(o1, _mm256_add_pd(a10, mlo));
                _mm256_storeu_pd(o1.add(LANES), _mm256_add_pd(a11, mhi));
                f += 2;
            }
            while f < bsz {
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                for j in 0..k {
                    let x = _mm256_set1_pd(*alpha_t.get_unchecked(j * bsz + f));
                    a0 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS)), x, a0);
                    a1 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS + LANES)), x, a1);
                }
                let o = outs[f].as_mut_ptr().add(base);
                _mm256_storeu_pd(o, _mm256_add_pd(a0, mlo));
                _mm256_storeu_pd(o.add(LANES), _mm256_add_pd(a1, mhi));
                f += 1;
            }
        } else {
            // Lane-padded remainder panel: run the full-width chains (the
            // padding lanes are zero, so they are inert) and spill, then
            // store only the valid rows. Same per-element recurrence and
            // the same final add as the vector path.
            for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                let mut a0 = _mm256_setzero_pd();
                let mut a1 = _mm256_setzero_pd();
                for j in 0..k {
                    let x = _mm256_set1_pd(*alpha.add(j * bsz + f));
                    a0 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS)), x, a0);
                    a1 = _mm256_fmadd_pd(_mm256_load_pd(panel.add(j * PANEL_ROWS + LANES)), x, a1);
                }
                let mut tmp = [0.0f64; PANEL_ROWS];
                _mm256_storeu_pd(tmp.as_mut_ptr(), a0);
                _mm256_storeu_pd(tmp.as_mut_ptr().add(LANES), a1);
                for (lane, &v) in tmp.iter().enumerate().take(valid) {
                    out[base + lane] = v + mean[base + lane];
                }
            }
        }
    }
}

/// The `x86_64` AVX-512F backend ([`KernelKind::Avx512`]).
///
/// One 8-row panel column is exactly one **aligned** 512-bit load, with
/// four frames in flight sharing it (four chains). Every path applies the
/// same fused recurrence per output element as the AVX2 backend, so the
/// two are bitwise identical. Only selectable when
/// `is_x86_feature_detected!` reports `avx512f`.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx512Kernel;

#[cfg(target_arch = "x86_64")]
impl SynthesisKernel for Avx512Kernel {
    fn kind(&self) -> KernelKind {
        KernelKind::Avx512
    }

    fn synthesize_panels(
        &self,
        packed: &PackedBasis,
        panels: Range<usize>,
        mean: &[f64],
        alpha_t: &[f64],
        bsz: usize,
        outs: &mut [&mut [f64]],
    ) {
        check_shapes(packed, &panels, mean, alpha_t, bsz, outs);
        // SAFETY: `KernelKind::backend` only hands out this backend after
        // `avx512_available()` confirmed `avx512f` at run time; the aligned
        // panel loads are justified by the PackedBasis alignment invariant.
        unsafe { synthesize_panels_avx512(packed, panels, mean, alpha_t, bsz, outs) }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn synthesize_panels_avx512(
    packed: &PackedBasis,
    panels: Range<usize>,
    mean: &[f64],
    alpha_t: &[f64],
    bsz: usize,
    outs: &mut [&mut [f64]],
) {
    use std::arch::x86_64::{
        __m512d, _mm512_add_pd, _mm512_fmadd_pd, _mm512_load_pd, _mm512_loadu_pd, _mm512_set1_pd,
        _mm512_setzero_pd, _mm512_storeu_pd,
    };

    let k = packed.cols();
    for p in panels {
        // SAFETY of the `_mm512_load_pd` calls below: `PackedBasis::panel`
        // guarantees every panel column is one 64-byte-aligned cache line,
        // i.e. exactly one aligned in-bounds 512-bit load.
        let panel = packed.panel(p).as_ptr();
        let base = packed.panel_base(p);
        let valid = packed.panel_valid_rows(p);
        if valid == PANEL_ROWS {
            let mv = _mm512_loadu_pd(mean.as_ptr().add(base));
            let mut f = 0;
            // Four frames in flight share every aligned panel-column load
            // (1 load + 4 broadcasts feeding 4 independent FMA chains per
            // coefficient), keeping the FMA ports saturated.
            while f + 4 <= bsz {
                let mut a: [__m512d; 4] = [_mm512_setzero_pd(); 4];
                for j in 0..k {
                    let c = _mm512_load_pd(panel.add(j * PANEL_ROWS));
                    for (q, acc) in a.iter_mut().enumerate() {
                        let x = _mm512_set1_pd(*alpha_t.get_unchecked(j * bsz + f + q));
                        *acc = _mm512_fmadd_pd(c, x, *acc);
                    }
                }
                for (q, acc) in a.iter().enumerate() {
                    let o = outs[f + q].as_mut_ptr().add(base);
                    _mm512_storeu_pd(o, _mm512_add_pd(*acc, mv));
                }
                f += 4;
            }
            while f < bsz {
                let mut acc = _mm512_setzero_pd();
                for j in 0..k {
                    let c = _mm512_load_pd(panel.add(j * PANEL_ROWS));
                    let x = _mm512_set1_pd(*alpha_t.get_unchecked(j * bsz + f));
                    acc = _mm512_fmadd_pd(c, x, acc);
                }
                let o = outs[f].as_mut_ptr().add(base);
                _mm512_storeu_pd(o, _mm512_add_pd(acc, mv));
                f += 1;
            }
        } else {
            // Lane-padded remainder panel: full-width chains over the
            // zero-padded column, spill, store the valid rows only.
            for (f, out) in outs.iter_mut().enumerate().take(bsz) {
                let mut acc = _mm512_setzero_pd();
                for j in 0..k {
                    let c = _mm512_load_pd(panel.add(j * PANEL_ROWS));
                    let x = _mm512_set1_pd(*alpha_t.get_unchecked(j * bsz + f));
                    acc = _mm512_fmadd_pd(c, x, acc);
                }
                let mut tmp = [0.0f64; PANEL_ROWS];
                _mm512_storeu_pd(tmp.as_mut_ptr(), acc);
                for (lane, &v) in tmp.iter().enumerate().take(valid) {
                    out[base + lane] = v + mean[base + lane];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_linalg::Matrix;

    /// Deterministic dense test operands for an `n × k` synthesis over
    /// `bsz` frames.
    fn operands(n: usize, k: usize, bsz: usize) -> (Matrix, Vec<f64>, Vec<f64>) {
        let basis = Matrix::from_fn(n, k, |i, j| {
            ((i as f64 + 1.3) * 0.7 + (j as f64 + 0.4) * 1.9).sin() * 0.8
        });
        let mean: Vec<f64> = (0..n).map(|i| 50.0 + (i as f64 * 0.31).cos()).collect();
        let alpha_t: Vec<f64> = (0..k * bsz)
            .map(|x| ((x as f64) * 0.123).sin() * 3.0)
            .collect();
        (basis, mean, alpha_t)
    }

    /// The naive dense `Ψα + mean` straight off the row-major matrix: one
    /// multiply-then-add chain per output element, ascending `j`.
    fn dense_reference(n: usize, k: usize, bsz: usize) -> Vec<Vec<f64>> {
        let (basis, mean, alpha_t) = operands(n, k, bsz);
        (0..bsz)
            .map(|f| {
                (0..n)
                    .map(|i| {
                        let mut acc = 0.0;
                        for j in 0..k {
                            acc += basis[(i, j)] * alpha_t[j * bsz + f];
                        }
                        acc + mean[i]
                    })
                    .collect()
            })
            .collect()
    }

    /// One backend over the same operands, sweeping every tile of a basis
    /// packed at a forced tile size so tiny shapes still cross tile
    /// boundaries.
    fn run_tiled(
        kind: KernelKind,
        n: usize,
        k: usize,
        bsz: usize,
        tile_panels: usize,
    ) -> Vec<Vec<f64>> {
        let (basis, mean, alpha_t) = operands(n, k, bsz);
        let packed = PackedBasis::pack_with_tile_panels(&basis, tile_panels);
        let mut cells: Vec<Vec<f64>> = (0..bsz).map(|_| vec![0.0; n]).collect();
        let mut outs: Vec<&mut [f64]> = cells.iter_mut().map(|c| c.as_mut_slice()).collect();
        let backend = kind.backend();
        for tile in packed.tile_spans() {
            backend.synthesize_panels(&packed, tile, &mean, &alpha_t, bsz, &mut outs);
        }
        cells
    }

    /// [`run_tiled`] at two panels (16 rows) per tile.
    fn run(kind: KernelKind, n: usize, k: usize, bsz: usize) -> Vec<Vec<f64>> {
        run_tiled(kind, n, k, bsz, 2)
    }

    /// The documented `1e-10` relative envelope of the FMA backends.
    fn assert_within_envelope(want: &[Vec<f64>], got: &[Vec<f64>], what: &str) {
        assert_eq!(want.len(), got.len(), "{what}: frame count");
        for (w, g) in want.iter().zip(got.iter()) {
            for (&a, &b) in w.iter().zip(g.iter()) {
                let rel = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
                assert!(rel <= 1e-10, "{what}: {a} vs {b}");
            }
        }
    }

    /// The FMA-fused backends (everything that is not bitwise-equal to
    /// the scalar oracle), host-filtered.
    fn fma_kinds() -> Vec<KernelKind> {
        [KernelKind::Avx2, KernelKind::Avx512]
            .into_iter()
            .filter(|k| k.is_available())
            .collect()
    }

    /// Odd shapes crossing every lane/remainder boundary: the original
    /// 4-lane sweep, the 8-lane frame boundaries of the AVX-512 paths
    /// (`bsz ∈ {7, 8, 9, 15, 16, 17}`), and `n` at panel and test-tile
    /// (2 panels = 16 rows) boundaries ±1.
    const SHAPES: [(usize, usize, usize); 19] = [
        (1, 1, 1),
        (5, 1, 7),
        (9, 3, 1),
        (9, 3, 2),
        (9, 3, 3),
        (9, 3, 4),
        (9, 3, 5),
        (12, 7, 8),
        (12, 7, 31),
        (12, 7, 33),
        (11, 4, 7),
        (11, 4, 8),
        (11, 4, 9),
        (11, 4, 15),
        (11, 4, 16),
        (11, 4, 17),
        (15, 3, 9),
        (16, 3, 9),
        (17, 3, 9),
    ];

    #[test]
    fn scalar_is_bitwise_identical_to_dense_reference() {
        // Anchors the oracle itself: packing, lane padding and tiling
        // must leave the scalar recurrence exactly the naive dense one.
        for (n, k, bsz) in SHAPES {
            assert_eq!(
                run(KernelKind::Scalar, n, k, bsz),
                dense_reference(n, k, bsz),
                "shape n={n} k={k} bsz={bsz}"
            );
        }
    }

    #[test]
    fn lanes_is_bitwise_identical_to_scalar() {
        for (n, k, bsz) in SHAPES {
            let scalar = run(KernelKind::Scalar, n, k, bsz);
            let lanes = run(KernelKind::Lanes, n, k, bsz);
            assert_eq!(scalar, lanes, "shape n={n} k={k} bsz={bsz}");
        }
    }

    #[test]
    fn fma_backends_match_scalar_to_tolerance() {
        for kind in fma_kinds() {
            for (n, k, bsz) in SHAPES {
                assert_within_envelope(
                    &run(KernelKind::Scalar, n, k, bsz),
                    &run(kind, n, k, bsz),
                    &format!("{kind} n={n} k={k} bsz={bsz}"),
                );
            }
        }
    }

    #[test]
    fn avx512_is_bitwise_identical_to_avx2() {
        // Both FMA backends apply the identical fused per-element
        // recurrence, so where a host can run both they must agree bit
        // for bit.
        if !(KernelKind::Avx2.is_available() && KernelKind::Avx512.is_available()) {
            eprintln!("skipping: host lacks avx2 or avx512");
            return;
        }
        for (n, k, bsz) in SHAPES {
            assert_eq!(
                run(KernelKind::Avx2, n, k, bsz),
                run(KernelKind::Avx512, n, k, bsz),
                "n={n} k={k} bsz={bsz}"
            );
        }
    }

    #[test]
    fn tiling_is_bitwise_invisible_per_backend() {
        // Tiling changes *when* elements are computed, never an element's
        // rounding chain — so one panel per tile, two, and every panel in
        // a single tile agree exactly, for every backend.
        for kind in KernelKind::available() {
            for (n, k, bsz) in SHAPES {
                let single_tile = run_tiled(kind, n, k, bsz, 100);
                for tile_panels in [1, 2] {
                    assert_eq!(
                        run_tiled(kind, n, k, bsz, tile_panels),
                        single_tile,
                        "kind={kind} n={n} k={k} bsz={bsz} tile_panels={tile_panels}"
                    );
                }
            }
        }
    }

    #[test]
    fn frames_are_position_independent_in_every_backend() {
        // The contract that makes batch == single == sharded bitwise per
        // backend: frame `f` of a block must equal the same coefficients
        // synthesized alone (bsz = 1) at the default tile size.
        let (n, k, bsz) = (11, 5, 13);
        let (basis, mean, alpha_t) = operands(n, k, bsz);
        let packed = PackedBasis::pack(&basis);
        for kind in KernelKind::available() {
            let blocked = run_tiled(kind, n, k, bsz, 1);
            for f in 0..bsz {
                let alpha_f: Vec<f64> = (0..k).map(|j| alpha_t[j * bsz + f]).collect();
                let mut single = vec![0.0; n];
                {
                    let mut outs = [single.as_mut_slice()];
                    for tile in packed.tile_spans() {
                        kind.backend()
                            .synthesize_panels(&packed, tile, &mean, &alpha_f, 1, &mut outs);
                    }
                }
                assert_eq!(blocked[f], single, "kind={kind} frame={f}");
            }
        }
    }

    #[test]
    fn blocks_smaller_than_lane_width_are_exact() {
        // Regression guard for the kernel-blocking boundary: every batch
        // smaller than LANES (and FRAME_BLOCK) must still produce each
        // frame's reference values. The contract is *bitwise* for the
        // scalar-recurrence backends; only the FMA-fused backends are
        // allowed their documented rounding envelope.
        for bsz in 1..LANES + 2 {
            let reference = dense_reference(6, 3, bsz);
            for kind in KernelKind::available() {
                let got = run(kind, 6, 3, bsz);
                match kind {
                    KernelKind::Scalar | KernelKind::Lanes => {
                        assert_eq!(got, reference, "kind={kind} bsz={bsz}");
                    }
                    _ => assert_within_envelope(&reference, &got, &format!("{kind} bsz={bsz}")),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel: output frame length")]
    fn mis_sized_output_is_refused_before_any_simd_access() {
        let (basis, mean, alpha_t) = operands(9, 3, 2);
        let packed = PackedBasis::pack(&basis);
        let (mut a, mut b) = (vec![0.0; 9], vec![0.0; 8]);
        let mut outs = [a.as_mut_slice(), b.as_mut_slice()];
        KernelKind::detect().backend().synthesize_panels(
            &packed,
            0..packed.panels(),
            &mean,
            &alpha_t,
            2,
            &mut outs,
        );
    }

    #[test]
    fn names_roundtrip_and_detection_is_sane() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(KernelKind::from_name("neon"), None);
        // The detected backend is always available, scalar/lanes are
        // available everywhere, and the cached answer is stable and
        // agrees with a fresh detection (the process environment does not
        // change under the tests).
        assert!(KernelKind::detect().is_available());
        assert_eq!(KernelKind::detect(), KernelKind::detect());
        assert_eq!(KernelKind::detect(), KernelKind::detect_uncached());
        assert!(KernelKind::Scalar.is_available());
        assert!(KernelKind::Lanes.is_available());
        assert!(KernelKind::available().contains(&KernelKind::Scalar));
        // require_available errors exactly on unavailable kinds.
        for kind in KernelKind::ALL {
            let res = kind.require_available();
            if kind.is_available() {
                assert!(res.is_ok());
            } else {
                assert!(matches!(res, Err(CoreError::KernelUnavailable { .. })));
            }
        }
    }

    #[test]
    fn unavailable_backend_degrades_to_a_safe_path() {
        // backend() must never hand out unexecutable code; unavailable
        // kinds degrade down the dispatch order (avx512 → avx2 → lanes).
        let b = KernelKind::Avx2.backend();
        if KernelKind::Avx2.is_available() {
            assert_eq!(b.kind(), KernelKind::Avx2);
        } else {
            assert_eq!(b.kind(), KernelKind::Lanes);
        }
        let b = KernelKind::Avx512.backend();
        if KernelKind::Avx512.is_available() {
            assert_eq!(b.kind(), KernelKind::Avx512);
        } else if KernelKind::Avx2.is_available() {
            assert_eq!(b.kind(), KernelKind::Avx2);
        } else {
            assert_eq!(b.kind(), KernelKind::Lanes);
        }
    }
}
