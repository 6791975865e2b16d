//! Binary on-disk caching of map ensembles.
//!
//! Regenerating the full 2652-snapshot, 56×60 dataset takes ~20 s of
//! transient simulation (2 hardware threads, release build), so the figure
//! binaries cache it. The format is a deliberately tiny hand-rolled
//! little-endian layout (magic, dims, then raw `f64`s) encoded with the
//! shared workspace byte codec ([`eigenmaps_core::codec`]) rather than an
//! extra serialization dependency — see DESIGN.md §6.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use eigenmaps_core::codec::{Decoder, Encoder};
use eigenmaps_core::MapEnsemble;
use eigenmaps_linalg::Matrix;

use crate::error::{FloorplanError, Result};

const MAGIC: &[u8; 8] = b"EIGMAPS1";

/// Magic + three `u64` dimensions.
const HEADER_LEN: usize = 32;

/// Writes an ensemble to `path` (creating parent directories).
///
/// # Errors
///
/// Returns [`FloorplanError::Io`] on filesystem failures.
pub fn save_ensemble(ensemble: &MapEnsemble, path: &Path) -> Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut header = Encoder::with_capacity(HEADER_LEN);
    header
        .bytes(MAGIC)
        .put_len(ensemble.len())
        .put_len(ensemble.rows())
        .put_len(ensemble.cols());
    // Stream the payload instead of materializing one flat buffer — full
    // datasets are tens of MiB.
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&header.finish())?;
    for &v in ensemble.data().as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an ensemble previously written by [`save_ensemble`].
///
/// The header is read and validated *before* the payload is allocated, so
/// a corrupt header (or a file that merely isn't an ensemble cache) costs
/// a 32-byte read, never a payload-sized allocation.
///
/// # Errors
///
/// * [`FloorplanError::Io`] on filesystem failures.
/// * [`FloorplanError::CorruptCache`] on magic/size mismatches.
pub fn load_ensemble(path: &Path) -> Result<MapEnsemble> {
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_LEN];
    file.read_exact(&mut header)
        .map_err(|_| FloorplanError::CorruptCache {
            context: "file shorter than header",
        })?;
    let mut dec = Decoder::new(&header);
    dec.magic(MAGIC)?;
    let t = dec.take_len()?;
    let rows = dec.take_len()?;
    let cols = dec.take_len()?;
    dec.finish()?;
    let n = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(t))
        .ok_or(FloorplanError::CorruptCache {
            context: "dimensions overflow",
        })?;
    // Hard cap to avoid allocating absurd amounts from a corrupt header
    // (1 GiB of f64s).
    if n > (1usize << 27) {
        return Err(FloorplanError::CorruptCache {
            context: "dimensions exceed sanity cap",
        });
    }
    // Decode the payload through a small fixed buffer straight into the
    // f64 vec: one payload-sized allocation, not bytes + floats.
    let mut data = vec![0.0f64; n];
    let mut buf = [0u8; 8 * 1024];
    let mut idx = 0usize;
    while idx < n {
        let take = ((n - idx) * 8).min(buf.len());
        file.read_exact(&mut buf[..take])
            .map_err(|_| FloorplanError::CorruptCache {
                context: "truncated payload",
            })?;
        for chunk in buf[..take].chunks_exact(8) {
            data[idx] = f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            idx += 1;
        }
    }
    // Reject trailing garbage.
    if file.read(&mut [0u8; 1])? != 0 {
        return Err(FloorplanError::CorruptCache {
            context: "trailing bytes after payload",
        });
    }
    let matrix =
        Matrix::from_vec(t, rows * cols, data).map_err(|_| FloorplanError::CorruptCache {
            context: "payload size inconsistent",
        })?;
    Ok(MapEnsemble::new(rows, cols, matrix)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eigenmaps_core::ThermalMap;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "eigenmaps-cache-test-{name}-{}",
            std::process::id()
        ))
    }

    fn sample_ensemble() -> MapEnsemble {
        let maps: Vec<ThermalMap> = (0..7)
            .map(|t| ThermalMap::from_fn(4, 5, |r, c| t as f64 + r as f64 * 0.5 + c as f64 * 0.1))
            .collect();
        MapEnsemble::from_maps(&maps).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let path = tmp("roundtrip");
        let ens = sample_ensemble();
        save_ensemble(&ens, &path).unwrap();
        let back = load_ensemble(&path).unwrap();
        assert_eq!(back.len(), ens.len());
        assert_eq!(back.rows(), ens.rows());
        assert_eq!(back.cols(), ens.cols());
        for t in 0..ens.len() {
            assert_eq!(back.map_slice(t), ens.map_slice(t));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTMAGIC0000000000000000").unwrap();
        assert!(matches!(
            load_ensemble(&path),
            Err(FloorplanError::CorruptCache { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("truncated");
        let ens = sample_ensemble();
        save_ensemble(&ens, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(
            load_ensemble(&path),
            Err(FloorplanError::CorruptCache { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let path = tmp("trailing");
        let ens = sample_ensemble();
        save_ensemble(&ens, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_ensemble(&path),
            Err(FloorplanError::CorruptCache { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_header_rejected_by_sanity_cap() {
        let path = tmp("oversized");
        let mut enc = Encoder::with_capacity(32);
        enc.bytes(MAGIC)
            .put_len(1 << 20)
            .put_len(1 << 20)
            .put_len(1 << 20)
            .f64(0.0);
        std::fs::write(&path, enc.finish()).unwrap();
        assert!(matches!(
            load_ensemble(&path),
            Err(FloorplanError::CorruptCache { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_ensemble(Path::new("/nonexistent/definitely/not/here.bin")),
            Err(FloorplanError::Io(_))
        ));
    }
}
