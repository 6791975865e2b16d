//! Thermal maps and ensembles of thermal maps.
//!
//! A thermal map is an `H × W` grid of temperatures, vectorized by
//! **column stacking**: cell `(row, col)` lives at index `row + col·H`.
//! (The paper prints the index formula with a typo — `t[i mod H, ⌊i/W⌋]` —
//! but describes column stacking in prose; we implement the consistent
//! version.)

use std::fmt;

use eigenmaps_linalg::Matrix;

use crate::error::{CoreError, Result};

/// A single vectorized thermal map over an `rows × cols` grid (°C).
///
/// # Examples
///
/// ```
/// use eigenmaps_core::ThermalMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let map = ThermalMap::from_fn(2, 3, |r, c| (r + 10 * c) as f64);
/// assert_eq!(map.get(1, 2), 21.0);
/// assert_eq!(map.as_slice()[1 + 2 * 2], 21.0); // column stacking
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct ThermalMap {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl ThermalMap {
    /// Wraps a column-stacked vector as a thermal map.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `data.len() != rows·cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(CoreError::ShapeMismatch {
                context: "ThermalMap::new",
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(ThermalMap { rows, cols, data })
    }

    /// Builds a map from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = vec![0.0; rows * cols];
        for c in 0..cols {
            for r in 0..rows {
                data[r + c * rows] = f(r, c);
            }
        }
        ThermalMap { rows, cols, data }
    }

    /// Grid height `H`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width `W`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cells `N = H·W`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the map has zero cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Temperature at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "cell out of range");
        self.data[row + col * self.rows]
    }

    /// The column-stacked cell vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mean squared error against another map (per-cell average, the
    /// inner sum of the paper's `MSE` figure of merit).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, other: &ThermalMap) -> f64 {
        assert_eq!(self.shape_tuple(), other.shape_tuple(), "map shapes differ");
        if self.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            let d = a - b;
            acc += d * d;
        }
        acc / self.len() as f64
    }

    /// Maximum squared error against another map (the paper's `MAX` metric
    /// is the max of this across all maps).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_sq_err(&self, other: &ThermalMap) -> f64 {
        assert_eq!(self.shape_tuple(), other.shape_tuple(), "map shapes differ");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .fold(0.0, f64::max)
    }

    /// Minimum cell temperature (`0.0` for an empty map).
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum cell temperature (`0.0` for an empty map).
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Spatial mean temperature.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.len() as f64
        }
    }

    /// Index of the hottest cell and its `(row, col)` position.
    pub fn hotspot(&self) -> (usize, usize, f64) {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, &v) in self.data.iter().enumerate() {
            if v > best.1 {
                best = (i, v);
            }
        }
        let (i, v) = best;
        (i % self.rows, i / self.rows, v)
    }

    /// Renders the map as ASCII art (one character per cell, darker =
    /// hotter), for terminal-friendly figure output.
    pub fn render_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let lo = self.min();
        let hi = self.max();
        let span = (hi - lo).max(1e-12);
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let t = (self.get(r, c) - lo) / span;
                let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Renders the map as a binary PGM (P5) image, 0 = coldest in the map,
    /// 255 = hottest; useful for dumping figure panels to disk.
    pub fn render_pgm(&self) -> Vec<u8> {
        let lo = self.min();
        let hi = self.max();
        let span = (hi - lo).max(1e-12);
        let mut out = format!("P5\n{} {}\n255\n", self.cols, self.rows).into_bytes();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let t = (self.get(r, c) - lo) / span;
                out.push((t * 255.0).round().clamp(0.0, 255.0) as u8);
            }
        }
        out
    }

    fn shape_tuple(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl fmt::Debug for ThermalMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ThermalMap {}x{} [{:.2}..{:.2} °C, mean {:.2}]",
            self.rows,
            self.cols,
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

/// A design-time collection of `T` thermal maps sharing one grid, stored as
/// a `T × N` matrix (one map per row) — the direct input to PCA.
#[derive(Debug, Clone)]
pub struct MapEnsemble {
    rows: usize,
    cols: usize,
    data: Matrix,
}

impl MapEnsemble {
    /// Wraps a `T × N` sample matrix (`N = rows·cols`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if the matrix width is not
    /// `rows·cols`.
    pub fn new(rows: usize, cols: usize, data: Matrix) -> Result<Self> {
        if data.cols() != rows * cols {
            return Err(CoreError::ShapeMismatch {
                context: "MapEnsemble::new",
                expected: rows * cols,
                found: data.cols(),
            });
        }
        Ok(MapEnsemble { rows, cols, data })
    }

    /// Builds an ensemble from individual maps.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] for an empty slice.
    /// * [`CoreError::ShapeMismatch`] if the maps disagree on shape.
    pub fn from_maps(maps: &[ThermalMap]) -> Result<Self> {
        let first = maps.first().ok_or(CoreError::InvalidArgument {
            context: "MapEnsemble::from_maps: empty slice",
        })?;
        let (rows, cols) = (first.rows(), first.cols());
        let n = rows * cols;
        let mut data = Matrix::zeros(maps.len(), n);
        for (t, m) in maps.iter().enumerate() {
            if m.rows() != rows || m.cols() != cols {
                return Err(CoreError::ShapeMismatch {
                    context: "MapEnsemble::from_maps",
                    expected: n,
                    found: m.len(),
                });
            }
            data.row_mut(t).copy_from_slice(m.as_slice());
        }
        Ok(MapEnsemble { rows, cols, data })
    }

    /// Grid height `H`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid width `W`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cells per map (`N`).
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of maps (`T`).
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// Whether the ensemble holds no maps.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// The underlying `T × N` sample matrix.
    pub fn data(&self) -> &Matrix {
        &self.data
    }

    /// Borrows map `t` as a cell slice (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn map_slice(&self, t: usize) -> &[f64] {
        self.data.row(t)
    }

    /// Copies map `t` out as a [`ThermalMap`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn map(&self, t: usize) -> ThermalMap {
        ThermalMap {
            rows: self.rows,
            cols: self.cols,
            data: self.data.row(t).to_vec(),
        }
    }

    /// Iterates over the maps (copies).
    pub fn iter(&self) -> impl Iterator<Item = ThermalMap> + '_ {
        (0..self.len()).map(move |t| self.map(t))
    }

    /// Per-cell temporal variance — the "thermal activity" map that drives
    /// the energy-center allocation baseline.
    pub fn cell_variance(&self) -> Vec<f64> {
        let t = self.len();
        let n = self.cells();
        if t == 0 {
            return vec![0.0; n];
        }
        let mut mean = vec![0.0; n];
        for i in 0..t {
            for (m, &v) in mean.iter_mut().zip(self.data.row(i)) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= t as f64;
        }
        let mut var = vec![0.0; n];
        for i in 0..t {
            for ((va, &v), &m) in var.iter_mut().zip(self.data.row(i)).zip(mean.iter()) {
                let d = v - m;
                *va += d * d;
            }
        }
        for v in var.iter_mut() {
            *v /= t as f64;
        }
        var
    }

    /// Splits into `(head, tail)` at map index `at` (e.g. train/test).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if `at` is 0 or `≥ len()`.
    pub fn split_at(&self, at: usize) -> Result<(MapEnsemble, MapEnsemble)> {
        if at == 0 || at >= self.len() {
            return Err(CoreError::InvalidArgument {
                context: "split_at: index must be inside the ensemble",
            });
        }
        let head: Vec<usize> = (0..at).collect();
        let tail: Vec<usize> = (at..self.len()).collect();
        Ok((
            MapEnsemble {
                rows: self.rows,
                cols: self.cols,
                data: self.data.select_rows(&head)?,
            },
            MapEnsemble {
                rows: self.rows,
                cols: self.cols,
                data: self.data.select_rows(&tail)?,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize) -> ThermalMap {
        ThermalMap::from_fn(rows, cols, |r, c| (r + c) as f64)
    }

    #[test]
    fn column_stacking_convention() {
        let m = ThermalMap::from_fn(3, 2, |r, c| (10 * r + c) as f64);
        // index = row + col*rows
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m.get(2, 1), 21.0);
    }

    #[test]
    fn new_validates_length() {
        assert!(ThermalMap::new(2, 2, vec![0.0; 3]).is_err());
        assert!(ThermalMap::new(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn metrics_basic() {
        let a = ramp(3, 3);
        let mut b = a.clone();
        assert_eq!(a.mse(&b), 0.0);
        assert_eq!(a.max_sq_err(&b), 0.0);
        b = ThermalMap::from_fn(3, 3, |r, c| {
            (r + c) as f64 + if r == 1 && c == 1 { 2.0 } else { 0.0 }
        });
        assert!((a.max_sq_err(&b) - 4.0).abs() < 1e-12);
        assert!((a.mse(&b) - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn stats_and_hotspot() {
        let m = ThermalMap::from_fn(4, 4, |r, c| if (r, c) == (2, 3) { 80.0 } else { 50.0 });
        assert_eq!(m.max(), 80.0);
        assert_eq!(m.min(), 50.0);
        let (r, c, v) = m.hotspot();
        assert_eq!((r, c), (2, 3));
        assert_eq!(v, 80.0);
        assert!((m.mean() - (50.0 * 15.0 + 80.0) / 16.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_shape() {
        let m = ramp(3, 5);
        let s = m.render_ascii();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 5));
        // Hottest corner renders as the densest glyph.
        assert_eq!(lines[2].chars().last().unwrap(), '@');
    }

    #[test]
    fn pgm_render_header() {
        let m = ramp(2, 3);
        let p = m.render_pgm();
        let header = b"P5\n3 2\n255\n";
        assert_eq!(&p[..header.len()], header);
        assert_eq!(p.len(), header.len() + 6);
    }

    #[test]
    fn ensemble_roundtrip() {
        let maps = vec![
            ramp(2, 2),
            ramp(2, 2),
            ThermalMap::from_fn(2, 2, |_, _| 1.0),
        ];
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        assert_eq!(ens.len(), 3);
        assert_eq!(ens.cells(), 4);
        assert_eq!(ens.map(2).as_slice(), &[1.0; 4]);
        assert_eq!(ens.map_slice(0), maps[0].as_slice());
        assert_eq!(ens.iter().count(), 3);
    }

    #[test]
    fn ensemble_rejects_ragged() {
        let maps = vec![ramp(2, 2), ramp(3, 2)];
        assert!(MapEnsemble::from_maps(&maps).is_err());
        assert!(MapEnsemble::from_maps(&[]).is_err());
    }

    #[test]
    fn cell_variance_flags_active_cell() {
        // Cell 0 oscillates, others constant.
        let maps: Vec<ThermalMap> = (0..10)
            .map(|t| {
                ThermalMap::from_fn(2, 2, |r, c| {
                    if (r, c) == (0, 0) {
                        if t % 2 == 0 {
                            10.0
                        } else {
                            20.0
                        }
                    } else {
                        5.0
                    }
                })
            })
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let var = ens.cell_variance();
        assert!(var[0] > 20.0);
        assert!(var[1].abs() < 1e-12);
    }

    #[test]
    fn split_at_partitions() {
        let maps: Vec<ThermalMap> = (0..5)
            .map(|t| ThermalMap::from_fn(2, 2, |_, _| t as f64))
            .collect();
        let ens = MapEnsemble::from_maps(&maps).unwrap();
        let (a, b) = ens.split_at(2).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.map(0).as_slice()[0], 2.0);
        assert!(ens.split_at(0).is_err());
        assert!(ens.split_at(5).is_err());
    }

    #[test]
    fn debug_is_informative() {
        let m = ramp(2, 2);
        let s = format!("{m:?}");
        assert!(s.contains("2x2"));
    }
}
