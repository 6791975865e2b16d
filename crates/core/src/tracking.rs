//! Temporal thermal tracking: exploit the fact that consecutive thermal
//! maps are heavily correlated in time.
//!
//! The paper reconstructs every snapshot independently; its related work
//! (Zhang & Srivastava, DAC'10, ref. 19 of the paper) instead tracks temperature
//! with a Kalman filter. This module provides the natural marriage of the
//! two: a steady-state (fixed-gain) filter *in EigenMaps coefficient
//! space*. Each interval the least-squares estimate `α_LS` of Theorem 1 is
//! blended with the prediction from the previous state:
//!
//! `α̂_t = (1 − g)·α̂_{t−1} + g·α_LS,t`
//!
//! With `g = 1` this is exactly the paper's memoryless reconstruction; at
//! smaller gains measurement noise is averaged down by ~`√(g/(2−g))` while
//! slow thermal transients (time constants ≫ the sampling interval) are
//! tracked with little lag. The `ablation_tracking` experiment quantifies
//! the benefit.

use crate::error::{CoreError, Result};
use crate::map::ThermalMap;
use crate::reconstruct::Reconstructor;

/// A fixed-gain temporal tracker over a [`Reconstructor`].
///
/// # Examples
///
/// ```
/// use eigenmaps_core::{DctBasis, Reconstructor, SensorSet, ThermalMap, TrackingReconstructor};
///
/// # fn main() -> std::result::Result<(), Box<dyn std::error::Error>> {
/// let basis = DctBasis::new(6, 6, 3)?;
/// let sensors = SensorSet::from_positions(6, 6, &[(0, 0), (5, 1), (2, 4), (4, 5)])?;
/// let rec = Reconstructor::new(&basis, &sensors)?;
/// let mut tracker = TrackingReconstructor::new(rec, 0.5)?;
/// let map = ThermalMap::from_fn(6, 6, |r, c| 50.0 + (r + c) as f64 * 0.1);
/// // Feed the same readings twice: the state converges toward the map.
/// let first = tracker.step(&sensors.sample(&map))?;
/// let second = tracker.step(&sensors.sample(&map))?;
/// assert!(map.mse(&second) <= map.mse(&first) + 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TrackingReconstructor {
    inner: Reconstructor,
    gain: f64,
    state: Option<Vec<f64>>,
    frames: u64,
}

impl TrackingReconstructor {
    /// Wraps a reconstructor with blending gain `g ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if the gain leaves `(0, 1]`.
    pub fn new(inner: Reconstructor, gain: f64) -> Result<Self> {
        if !(gain > 0.0 && gain <= 1.0) {
            return Err(CoreError::InvalidArgument {
                context: "tracking gain must lie in (0, 1]",
            });
        }
        Ok(TrackingReconstructor {
            inner,
            gain,
            state: None,
            frames: 0,
        })
    }

    /// The wrapped memoryless reconstructor.
    pub fn reconstructor(&self) -> &Reconstructor {
        &self.inner
    }

    /// The blending gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Current coefficient state, if any step has been taken.
    pub fn state(&self) -> Option<&[f64]> {
        self.state.as_deref()
    }

    /// Forgets the temporal state (e.g. after a power-gating event that
    /// breaks temporal continuity). The frame counter keeps running — it
    /// counts steps served, not state continuity.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Frames stepped so far (or restored via
    /// [`TrackingReconstructor::set_frames`]). Because the counter lives
    /// inside the tracker, a caller holding the tracker's lock observes
    /// `(state, frames)` as one atomic pair — exactly what a checkpoint
    /// needs to describe a well-defined point in the stream.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Restores the frame counter (warm restart, alongside
    /// [`TrackingReconstructor::import_state`]).
    pub fn set_frames(&mut self, frames: u64) {
        self.frames = frames;
    }

    /// A copy of the coefficient state for persistence (`None` before the
    /// first step / after a reset). Feeding the copy back through
    /// [`TrackingReconstructor::import_state`] on a tracker built over the
    /// same deployment continues the stream bitwise-identically — the blend
    /// recurrence depends only on the state vector, the gain and the
    /// incoming readings.
    pub fn export_state(&self) -> Option<Vec<f64>> {
        self.state.clone()
    }

    /// Replaces the coefficient state with one previously captured by
    /// [`TrackingReconstructor::export_state`] (warm restart). `None`
    /// clears the state, like [`TrackingReconstructor::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if the state length disagrees
    /// with the basis dimension `K`, or [`CoreError::InvalidArgument`] if
    /// any coefficient is non-finite (a corrupt snapshot must not poison
    /// every subsequent map).
    pub fn import_state(&mut self, state: Option<Vec<f64>>) -> Result<()> {
        if let Some(s) = &state {
            if s.len() != self.inner.k() {
                return Err(CoreError::ShapeMismatch {
                    context: "tracking import_state coefficients",
                    expected: self.inner.k(),
                    found: s.len(),
                });
            }
            if s.iter().any(|v| !v.is_finite()) {
                return Err(CoreError::InvalidArgument {
                    context: "tracking import_state: non-finite coefficient",
                });
            }
        }
        self.state = state;
        Ok(())
    }

    /// Ingests one interval's sensor readings and returns the tracked
    /// full-map estimate. The first step initializes the state with the
    /// memoryless estimate.
    ///
    /// # Errors
    ///
    /// Propagates [`Reconstructor::coefficients`] and
    /// [`Reconstructor::map_from_coefficients`] failures. A refused step
    /// leaves the tracker as if it never saw the readings.
    pub fn step(&mut self, readings: &[f64]) -> Result<ThermalMap> {
        let mut state = self.inner.coefficients(readings)?;
        if let Some(prev) = &self.state {
            for (a, p) in state.iter_mut().zip(prev) {
                *a = (1.0 - self.gain) * p + self.gain * *a;
            }
        }
        // The state is committed only once its map exists.
        let map = self.inner.map_from_coefficients(&state)?;
        self.state = Some(state);
        self.frames += 1;
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{Basis, DctBasis};
    use crate::noise::NoiseModel;
    use crate::sensors::SensorSet;

    fn setup() -> (DctBasis, SensorSet, Reconstructor) {
        let basis = DctBasis::new(8, 8, 4).unwrap();
        let sensors =
            SensorSet::from_positions(8, 8, &[(0, 0), (7, 1), (2, 5), (5, 3), (6, 7), (1, 6)])
                .unwrap();
        let rec = Reconstructor::new(&basis, &sensors).unwrap();
        (basis, sensors, rec)
    }

    /// A slowly drifting in-subspace map sequence.
    fn truth_at(basis: &DctBasis, t: usize) -> ThermalMap {
        let alpha = [
            40.0 + 0.02 * t as f64,
            2.0 * (t as f64 / 200.0).sin(),
            -1.0,
            0.5,
        ];
        let cells = basis.matrix().matvec(&alpha).unwrap();
        ThermalMap::new(8, 8, cells).unwrap()
    }

    #[test]
    fn gain_validation() {
        let (_, _, rec) = setup();
        assert!(TrackingReconstructor::new(rec.clone(), 0.0).is_err());
        assert!(TrackingReconstructor::new(rec.clone(), 1.5).is_err());
        assert!(TrackingReconstructor::new(rec, 1.0).is_ok());
    }

    #[test]
    fn non_finite_step_leaves_the_filter_state_untouched() {
        let (basis, sensors, rec) = setup();
        let mut clean = TrackingReconstructor::new(rec.clone(), 0.3).unwrap();
        let mut hit = TrackingReconstructor::new(rec, 0.3).unwrap();
        for t in 0..6 {
            let readings = sensors.sample(&truth_at(&basis, t));
            if t == 3 {
                // The tracker refuses each bad step as if it never saw it.
                for bad_value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut bad = readings.clone();
                    bad[1] = bad_value;
                    assert_eq!(
                        hit.step(&bad).unwrap_err(),
                        CoreError::NonFiniteReading {
                            frame: 0,
                            sensor: 1
                        }
                    );
                }
            }
            let want = clean.step(&readings).unwrap();
            let got = hit.step(&readings).unwrap();
            let bits =
                |m: &ThermalMap| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "step {t}");
        }
        assert_eq!(hit.frames(), clean.frames());
    }

    #[test]
    fn overflowing_step_leaves_the_filter_state_untouched() {
        let (basis, sensors, rec) = setup();
        let mut clean = TrackingReconstructor::new(rec.clone(), 0.3).unwrap();
        let mut hit = TrackingReconstructor::new(rec, 0.3).unwrap();
        for t in 0..6 {
            let readings = sensors.sample(&truth_at(&basis, t));
            if t == 3 {
                for huge in [1.7e308, -1.7e308] {
                    assert_eq!(
                        hit.step(&vec![huge; readings.len()]).unwrap_err(),
                        CoreError::ReconstructionOverflow { frame: 0 }
                    );
                }
            }
            let want = clean.step(&readings).unwrap();
            let got = hit.step(&readings).unwrap();
            let bits =
                |m: &ThermalMap| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "step {t}");
        }
        assert_eq!(hit.frames(), clean.frames());
        assert_eq!(hit.export_state(), clean.export_state());
    }

    #[test]
    fn gain_one_matches_memoryless() {
        let (basis, sensors, rec) = setup();
        let mut tracker = TrackingReconstructor::new(rec.clone(), 1.0).unwrap();
        for t in 0..5 {
            let map = truth_at(&basis, t);
            let readings = sensors.sample(&map);
            let tracked = tracker.step(&readings).unwrap();
            let memoryless = rec.reconstruct(&readings).unwrap();
            assert!(tracked.mse(&memoryless) < 1e-20);
        }
    }

    #[test]
    fn tracking_denoises_slow_sequences() {
        let (basis, sensors, rec) = setup();
        let mut tracker = TrackingReconstructor::new(rec.clone(), 0.25).unwrap();
        let mut noise = NoiseModel::new(3);
        let mut err_tracked = 0.0;
        let mut err_memoryless = 0.0;
        for t in 0..300 {
            let map = truth_at(&basis, t);
            let readings = noise.apply_sigma(&sensors.sample(&map), 0.5);
            let tr = tracker.step(&readings).unwrap();
            let ml = rec.reconstruct(&readings).unwrap();
            if t >= 20 {
                // Skip the burn-in where the state is still converging.
                err_tracked += map.mse(&tr);
                err_memoryless += map.mse(&ml);
            }
        }
        assert!(
            err_tracked < err_memoryless * 0.6,
            "tracking {err_tracked} not clearly better than memoryless {err_memoryless}"
        );
    }

    #[test]
    fn frame_counter_ticks_with_steps_and_restores() {
        let (basis, sensors, rec) = setup();
        let mut tracker = TrackingReconstructor::new(rec.clone(), 0.5).unwrap();
        assert_eq!(tracker.frames(), 0);
        for t in 0..5 {
            tracker.step(&sensors.sample(&truth_at(&basis, t))).unwrap();
        }
        assert_eq!(tracker.frames(), 5);
        // A failed step (wrong reading length) does not tick the counter.
        assert!(tracker.step(&[1.0]).is_err());
        assert_eq!(tracker.frames(), 5);
        // Reset clears state but not the served-frames count.
        tracker.reset();
        assert_eq!(tracker.frames(), 5);
        // Warm restart: a fresh tracker restores the counter alongside the
        // state and continues counting from there.
        let mut resumed = TrackingReconstructor::new(rec, 0.5).unwrap();
        resumed.set_frames(5);
        resumed.step(&sensors.sample(&truth_at(&basis, 5))).unwrap();
        assert_eq!(resumed.frames(), 6);
    }

    #[test]
    fn reset_clears_state() {
        let (basis, sensors, rec) = setup();
        let mut tracker = TrackingReconstructor::new(rec, 0.1).unwrap();
        let map = truth_at(&basis, 0);
        tracker.step(&sensors.sample(&map)).unwrap();
        assert!(tracker.state().is_some());
        tracker.reset();
        assert!(tracker.state().is_none());
        // After reset the next step re-initializes from scratch (exact for
        // in-subspace noiseless readings).
        let est = tracker.step(&sensors.sample(&map)).unwrap();
        assert!(map.mse(&est) < 1e-18);
    }

    #[test]
    fn exported_state_resumes_bitwise() {
        let (basis, sensors, rec) = setup();
        let mut live = TrackingReconstructor::new(rec.clone(), 0.3).unwrap();
        for t in 0..7 {
            live.step(&sensors.sample(&truth_at(&basis, t))).unwrap();
        }
        let exported = live.export_state();
        assert!(exported.is_some());
        // A fresh tracker warm-started from the exported state must
        // continue the stream bitwise-identically.
        let mut resumed = TrackingReconstructor::new(rec, 0.3).unwrap();
        resumed.import_state(exported).unwrap();
        for t in 7..20 {
            let readings = sensors.sample(&truth_at(&basis, t));
            let a = live.step(&readings).unwrap();
            let b = resumed.step(&readings).unwrap();
            assert_eq!(a.as_slice(), b.as_slice(), "t = {t}");
        }
        // Importing `None` behaves like a reset.
        resumed.import_state(None).unwrap();
        assert!(resumed.state().is_none());
    }

    #[test]
    fn import_state_validates_shape_and_finiteness() {
        let (_, _, rec) = setup();
        let mut tracker = TrackingReconstructor::new(rec, 0.5).unwrap();
        assert!(matches!(
            tracker.import_state(Some(vec![1.0; 3])),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            tracker.import_state(Some(vec![1.0, f64::NAN, 0.0, 2.0])),
            Err(CoreError::InvalidArgument { .. })
        ));
        assert!(tracker.state().is_none(), "failed import must not poison");
        tracker.import_state(Some(vec![0.5; 4])).unwrap();
        assert_eq!(tracker.state(), Some(&[0.5; 4][..]));
    }

    #[test]
    fn tracks_step_changes_with_bounded_lag() {
        let (basis, sensors, rec) = setup();
        let mut tracker = TrackingReconstructor::new(rec, 0.5).unwrap();
        let cold = truth_at(&basis, 0);
        let hot = {
            let alpha = [60.0, 3.0, 1.0, -2.0];
            let cells = basis.matrix().matvec(&alpha).unwrap();
            ThermalMap::new(8, 8, cells).unwrap()
        };
        for _ in 0..10 {
            tracker.step(&sensors.sample(&cold)).unwrap();
        }
        // Step change: with g = 0.5, error halves every interval.
        let mut last = f64::INFINITY;
        for i in 0..12 {
            let est = tracker.step(&sensors.sample(&hot)).unwrap();
            let e = hot.mse(&est);
            assert!(e <= last + 1e-12, "error rose at step {i}");
            last = e;
        }
        assert!(last < 1e-6, "tracker failed to converge after step: {last}");
    }
}
