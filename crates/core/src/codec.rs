//! Shared little-endian byte codec for the hand-rolled binary artifact
//! formats, and the specification of those formats.
//!
//! Three on-disk formats live in this workspace — the `EMDEPLOY`
//! deployment artifact ([`crate::pipeline`]), the `EMSESS1`
//! streaming-session snapshot ([`SessionSnapshot`], consumed by
//! `eigenmaps-serve` for warm restarts) and the `EMSTORE1` durability
//! manifest ([`StoreManifest`], the root record of `eigenmaps-serve`'s
//! snapshot store). All are deliberately tiny little-endian layouts
//! (magic, dims, raw scalars) rather than an extra serialization
//! dependency, and all need the same defensive plumbing: bounds-checked
//! reads, magic/version validation, overflow-safe lengths and a
//! trailing-bytes check. This module is that plumbing, written once.
//!
//! [`Encoder`] builds a byte buffer; [`Decoder`] walks one. Decoder
//! methods fail with a [`CodecError`] carrying a static description, which
//! each consumer maps onto its own error type (`CoreError::Persist` here).
//!
//! A fourth format rides on the same codec but frames *conversations*
//! rather than files: `EMWIRE2`, the length-prefixed, checksummed network
//! wire protocol of the `eigenmaps-net` crate. Its field tables and
//! validation rules live in that crate's `protocol` module docs, next to
//! the code that enforces them; the conventions below (little-endian,
//! `u64` lengths, bounds-checked reads before allocation) apply there
//! unchanged.
//!
//! # Checksums: which format uses which digest
//!
//! | format | digest | why |
//! |--------|--------|-----|
//! | `EMSESS1`, `EMSTORE1` trailers; artifact digests of `EMDEPLOY` bytes | [`fnv1a64`] | on disk: files written by earlier builds must keep loading, so their bytes never change |
//! | `EMWIRE2` trailer | [`crc32c`] | on the wire: every reply pays it twice (seal and open), so it must run at memory speed; frames are ephemeral, so switching digests only needed a version bump |
//!
//! CRC-32C runs on the SSE4.2 `crc32` instruction or a portable
//! slice-by-8 table, and detects every error of 1–3 bits at any wire
//! frame size. On the instruction, an input of at least 12 KiB (a batch
//! reply) runs as three interleaved chains over three equal lanes, joined
//! with the CRC combine `crc(A‖B) = x^(8·|B|) · crc(A) ⊕ crc(B) mod P`;
//! a shorter input (every request and step reply) runs as one chain.
//! Every path gives the same bits. Over a 1.7 MB batch reply that is
//! ~0.09 ms, against ~0.25 ms for one chain and ~2.9 ms for byte-serial
//! FNV-1a.
//!
//! # Wire conventions
//!
//! Every multi-byte scalar is **little-endian**. Sizes and indices are
//! written as `u64` regardless of the producing platform's pointer width
//! ([`Encoder::put_len`] / [`Decoder::take_len`]); floats are IEEE-754
//! `binary64` in their raw LE byte order. There is no alignment and no
//! padding — fields are packed back to back. Arrays carry **no length
//! prefix**; their element counts are derived from the header dimensions,
//! which is why headers are fully validated before any payload is read.
//!
//! # Map records
//!
//! `EMWIRE2` batch and step replies carry each thermal map as one **map
//! record**: `rows: u64`, `cols: u64`, then `f64 × rows·cols` cells,
//! row-major. The layout is defined here once: [`Encoder::map_record`]
//! writes it, [`Decoder::map_record`] reads it, and
//! [`map_record_header`] gives the two header words as `f64`s whose bit
//! patterns are the `u64` dimensions, so a `Vec<f64>` of whole records
//! (the serving path's map slab) has exactly the record bytes in memory
//! on a little-endian host. [`f64_le_bytes`] views such words as bytes,
//! and [`Crc32c`] checksums a frame whose bytes sit in several runs.
//!
//! # `EMDEPLOY` — deployment artifact, version 1
//!
//! Written by `Deployment::to_bytes`, read by `Deployment::from_bytes`.
//! With `n = rows · cols` (grid cells), `k` (basis columns), `m`
//! (sensors):
//!
//! | # | field        | type / size       | meaning                                        |
//! |---|--------------|-------------------|------------------------------------------------|
//! | 0 | magic        | 8 bytes           | ASCII `EMDEPLOY`                               |
//! | 1 | version      | `u32`             | format version; this spec is `1`               |
//! | 2 | basis kind   | `u8`              | `0` eigen, `1` DCT, `2` custom                 |
//! | 3 | noise tag    | `u8`              | `0` none, `1` SNR (dB), `2` sigma              |
//! | 4 | noise value  | `f64`             | dB or sigma per tag; `0.0` when tag is `0`     |
//! | 5 | rows         | `u64`             | grid height                                    |
//! | 6 | cols         | `u64`             | grid width                                     |
//! | 7 | k            | `u64`             | basis columns                                  |
//! | 8 | m            | `u64`             | sensor count                                   |
//! | 9 | mean         | `f64 × n`         | per-cell mean, row-major                       |
//! | 10| basis matrix | `f64 × (n·k)`     | `Ψ_K`, row-major (`n` rows of `k` entries)     |
//! | 11| sensors      | `u64 × m`         | cell indices (`row · cols + col`), in layout order |
//!
//! Validation on read, in order: magic and version must match exactly;
//! tags must be known; `rows · cols` must not overflow; `n`, `k`, `m`
//! must be nonzero with `k ≤ n` and `m ≤ n`; every payload read is
//! bounds-checked against the remaining bytes *before* allocating; and
//! after field 11 the buffer must be exactly exhausted
//! ([`Decoder::finish`]) — trailing bytes are corruption, not padding.
//! The runtime solver (QR factorization, condition number) and the
//! synthesis-kernel choice are **not** stored: both are recomputed on
//! load, which keeps the artifact portable across hosts with different
//! CPU features.
//!
//! # `EMSESS1` — streaming-session snapshot, version 1
//!
//! Written by [`SessionSnapshot::to_bytes`], read by
//! [`SessionSnapshot::from_bytes`] — the durable record behind
//! `TrackerSession::snapshot()`/`resume()` in `eigenmaps-serve`. It
//! captures the *mutable* streaming state (temporal-filter coefficients,
//! frame count) plus the identity of the immutable artifact it was
//! trained against; it deliberately does **not** embed the deployment —
//! resume re-resolves `(deployment, version)` from the registry and
//! refuses a shape mismatch.
//!
//! | #  | field        | type / size   | meaning                                                 |
//! |----|--------------|---------------|---------------------------------------------------------|
//! | 0  | magic        | 7 bytes       | ASCII `EMSESS1`                                         |
//! | 1  | version      | `u32`         | format version; this spec is `1`                        |
//! | 2  | name length  | `u64`         | byte length of field 3                                  |
//! | 3  | name         | UTF-8 bytes   | registry name of the deployment                         |
//! | 4  | pinned ver.  | `u32`         | registry version the session was pinned to              |
//! | 5  | gain         | `f64`         | temporal blending gain, in `(0, 1]`                     |
//! | 6  | frames       | `u64`         | frames served before the snapshot                       |
//! | 7  | k            | `u64`         | basis columns of the pinned deployment (nonzero)        |
//! | 8  | m            | `u64`         | sensor count of the pinned deployment (`m ≥ k`)         |
//! | 9  | artifact     | `u64`         | [`fnv1a64`] of the pinned deployment's `EMDEPLOY` bytes |
//! | 10 | state tag    | `u8`          | `0` no temporal state yet, `1` state present            |
//! | 11 | state        | `f64 × k`     | coefficient state `α̂` (present iff tag is `1`)          |
//! | 12 | checksum     | `u64`         | [`fnv1a64`] over **all preceding bytes** (fields 0–11)  |
//!
//! Validation on read, in order: magic and version must match; the name
//! length is bounds-checked against the remaining bytes **before** any
//! allocation (so a corrupt length cannot allocate) and the name must be
//! UTF-8; gain must be finite and in `(0, 1]`; `k` and `m` must be nonzero
//! with `k ≤ m`; the state tag must be `0` or `1`; every state coefficient
//! must be finite; the trailing checksum must equal the FNV-1a 64 digest
//! of every byte before it — a **single flipped bit anywhere in the
//! record is detected**, unlike `EMDEPLOY` where payload corruption can
//! decode to a different valid artifact; and the buffer must then be
//! exactly exhausted. Agreement with the *resolved* deployment (`k`, `m`,
//! artifact digest, pinned version still live) is the resume-time
//! caller's job — the codec only guarantees internal consistency. The
//! artifact digest is what makes resume refuse a **same-shape retrain**:
//! version numbers prove identity only within one registry lifetime, and
//! `k`/`m` alone cannot tell two same-shape bases apart, but the digest
//! of the immutable `EMDEPLOY` bytes can.
//!
//! # `EMSTORE1` — durability-store manifest, version 1
//!
//! Written by [`StoreManifest::to_bytes`], read by
//! [`StoreManifest::from_bytes`] — the root record of the crash-safe
//! snapshot store in `eigenmaps-serve::store`. One manifest names the
//! current generation of every durable artifact: the deployment catalog
//! (name/version → `EMDEPLOY` file) and the session roster (durable id →
//! latest `EMSESS1` file). The manifest is the *commit point* of a
//! checkpoint: data files are written and fsynced first, then the
//! manifest replaces its predecessor by atomic rename, so a reader that
//! finds a valid manifest finds every file it references already durable.
//!
//! | #  | field           | type / size   | meaning                                              |
//! |----|-----------------|---------------|------------------------------------------------------|
//! | 0  | magic           | 8 bytes       | ASCII `EMSTORE1`                                     |
//! | 1  | version         | `u32`         | format version; this spec is `1`                     |
//! | 2  | catalog count   | `u64`         | number of catalog entries (field group 3)            |
//! | 3  | catalog entries | repeated      | per entry: name length `u64`, name UTF-8 bytes, registry version `u32`, file-name length `u64`, file name UTF-8 bytes, artifact digest `u64` ([`fnv1a64`] of the `EMDEPLOY` bytes) |
//! | 4  | session count   | `u64`         | number of session entries (field group 5)            |
//! | 5  | session entries | repeated      | per entry: durable id `u64`, file-name length `u64`, file name UTF-8 bytes, generation `u64`, frames `u64`, artifact digest `u64` |
//! | 6  | checksum        | `u64`         | [`fnv1a64`] over **all preceding bytes** (fields 0–5)|
//!
//! Validation on read, in order: the trailing checksum must equal the
//! FNV-1a 64 digest of every byte before it (verified **first**, like
//! `EMSESS1` — a single flipped bit anywhere is detected); magic and
//! version must match; every length is bounds-checked against the
//! remaining bytes before allocation; names and file names must be
//! UTF-8; and the buffer must be exactly exhausted. A manifest whose
//! *version field* is newer than this spec is a distinct condition from
//! corruption — [`StoreManifest::peek_version`] reads the version
//! without validating the body, so a hydrating server can refuse (not
//! clobber) a store written by a newer binary while still treating torn
//! bytes as skippable corruption.

use std::borrow::Cow;

use crate::error::CoreError;

/// A malformed or truncated byte stream.
///
/// Carries only a static description; the consuming crate wraps it in its
/// own error enum (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError {
    /// What was wrong with the bytes.
    pub context: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed byte stream: {}", self.context)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for CoreError {
    fn from(e: CodecError) -> Self {
        CoreError::Persist { context: e.context }
    }
}

/// Result alias for decoder methods.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Builds a little-endian byte buffer.
///
/// The encoder is infallible: every scalar has a fixed-width encoding and
/// the buffer grows as needed. `usize` values are widened to `u64` so the
/// format is identical across platforms.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder with capacity for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a raw byte string (magic numbers).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends one byte (tags).
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32` (format versions).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` widened to `u64` (dimensions, indices).
    pub fn put_len(&mut self, v: usize) -> &mut Self {
        self.buf.extend_from_slice(&(v as u64).to_le_bytes());
        self
    }

    /// Appends a `u64` (counters, checksums).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends one `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a slice of `f64`s (payload arrays), without a length prefix.
    pub fn f64_slice(&mut self, vs: &[f64]) -> &mut Self {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 8, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Appends one map record (see the [module docs](self)).
    pub fn map_record(&mut self, rows: usize, cols: usize, cells: &[f64]) -> &mut Self {
        self.put_len(rows).put_len(cols).f64_slice(cells)
    }

    /// The finished buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over a little-endian byte buffer.
///
/// Every read validates that enough bytes remain *before* allocating or
/// interpreting anything, so a corrupt length field can never trigger an
/// absurd allocation. [`Decoder::finish`] rejects trailing bytes, making
/// "decodes cleanly" mean "this exact byte string".
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    /// Takes the next `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> CodecResult<&'a [u8]> {
        let end = self.pos.checked_add(len).ok_or(CodecError {
            context: "length overflow",
        })?;
        if end > self.bytes.len() {
            return Err(CodecError {
                context: "truncated input",
            });
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Consumes and validates a magic byte string.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or mismatch.
    pub fn magic(&mut self, expected: &[u8]) -> CodecResult<()> {
        if self.take(expected.len())? != expected {
            return Err(CodecError {
                context: "bad magic",
            });
        }
        Ok(())
    }

    /// Consumes a `u32` version field and checks it equals `supported`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or an unsupported version.
    pub fn version(&mut self, supported: u32) -> CodecResult<u32> {
        let v = self.u32()?;
        if v != supported {
            return Err(CodecError {
                context: "unsupported format version",
            });
        }
        Ok(v)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64` (counters, checksums).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` written by [`Encoder::put_len`] back as a `usize`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a value exceeding `usize` (32-bit
    /// targets).
    pub fn take_len(&mut self) -> CodecResult<usize> {
        let v = u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        usize::try_from(v).map_err(|_| CodecError {
            context: "length exceeds addressable size",
        })
    }

    /// Reads one `f64`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `len` `f64`s. The byte count is validated before the output
    /// vector is allocated.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or length overflow.
    pub fn f64_vec(&mut self, len: usize) -> CodecResult<Vec<f64>> {
        let raw = self.take(len.checked_mul(8).ok_or(CodecError {
            context: "length overflow",
        })?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads one map record (see the [module docs](self)) as `(rows,
    /// cols, cells)`. The cell count is validated before it is allocated.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or if `rows · cols` overflows.
    pub fn map_record(&mut self) -> CodecResult<(usize, usize, Vec<f64>)> {
        let rows = self.take_len()?;
        let cols = self.take_len()?;
        let n = rows.checked_mul(cols).ok_or(CodecError {
            context: "map dimensions overflow",
        })?;
        Ok((rows, cols, self.f64_vec(n)?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the buffer was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if trailing bytes remain.
    pub fn finish(&self) -> CodecResult<()> {
        if self.pos != self.bytes.len() {
            return Err(CodecError {
                context: "trailing bytes",
            });
        }
        Ok(())
    }
}

/// Words ahead of the cells in a map record: `rows` and `cols`.
pub const MAP_RECORD_HEADER_WORDS: usize = 2;

/// Bytes of one map record of `cells` cells.
pub const fn map_record_len(cells: usize) -> usize {
    8 * (MAP_RECORD_HEADER_WORDS + cells)
}

/// A map record's header as `f64` words: each carries the bit pattern of
/// the `u64` dimension, so [`f64_le_bytes`] of the words is the record's
/// header bytes.
pub fn map_record_header(rows: usize, cols: usize) -> [f64; MAP_RECORD_HEADER_WORDS] {
    [rows as u64, cols as u64].map(f64::from_bits)
}

/// The little-endian bytes of `words`, the byte form of any run of map
/// records. On a little-endian host this is a borrowed view of the words'
/// own memory, with no copy; on a big-endian host it is an owned,
/// byte-swapped copy, so callers have one code path.
pub fn f64_le_bytes(words: &[f64]) -> Cow<'_, [u8]> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the pointer and length come from a live `&[f64]`, so
        // the `size_of_val(words)` bytes are initialized, in bounds and
        // borrowed for the returned lifetime; `u8` has alignment 1 and
        // every bit pattern is a valid `u8`; `f64` has no padding. On a
        // little-endian host those bytes are each word's `to_le_bytes`.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words))
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        Cow::Owned(words.iter().flat_map(|w| w.to_le_bytes()).collect())
    }
}

/// FNV-1a 64-bit digest — the integrity checksum trailing every `EMSESS1`
/// record. Not cryptographic; it detects the accidental corruption
/// (truncated writes, bit rot, torn copies) a warm-restart file is exposed
/// to, with a single-pass, dependency-free implementation.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// CRC-32C (Castagnoli: reflected polynomial `0x82F63B78`, initial value
/// and final xor `0xFFFF_FFFF`) — the integrity checksum trailing every
/// `EMWIRE2` record. Its Hamming distance is 4 for messages up to 2³¹
/// bits, so every error of 1–3 bits in a record and its trailer is
/// detected.
///
/// Runs on the SSE4.2 `crc32` instruction when the CPU has it, and on a
/// portable slice-by-8 table otherwise. On the instruction, an input of
/// at least 12 KiB (a batch reply, not a step reply or a request) is
/// split into three equal lanes whose CRCs run as three independent
/// chains in one loop and are then joined with the CRC combine; a shorter
/// input runs as one chain. Every path is bitwise equal.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs only the `sse4.2` CPU feature,
        // which was detected at run time just above.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_portable(bytes)
}

/// A CRC-32C fed in runs: the checksum of bytes that sit in several
/// buffers, without joining them. Each run is checksummed on its own
/// (three chains on a long run, as in [`crc32c`]) and joined to the
/// runs before it with the CRC combine, so [`Crc32c::finish`] is bitwise
/// [`crc32c`] of the joined bytes, however they are split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc32c {
    crc: u32,
}

impl Crc32c {
    /// The checksum of no bytes.
    pub fn new() -> Self {
        Crc32c::default()
    }

    /// Appends one run of bytes.
    pub fn update(&mut self, run: &[u8]) -> &mut Self {
        self.crc = crc32c_combine(self.crc, crc32c(run), run.len());
        self
    }

    /// The CRC-32C of every run so far, in order.
    pub fn finish(&self) -> u32 {
        self.crc
    }
}

/// The reflected CRC-32C polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `CRC32C_TABLES[0]` is the classic byte table, and
/// `CRC32C_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC32C_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// `a · b mod P` over GF(2), both operands in the reflected bit order the
/// CRC registers use (bit 31 is `x⁰`).
const fn crc32c_mulmod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 == 1 {
            (b >> 1) ^ CRC32C_POLY
        } else {
            b >> 1
        };
        m >>= 1;
    }
    product
}

/// `CRC32C_X2N[k]` is `x^(2^k) mod P`, reflected. 67 entries shift past
/// any `u64` count of bytes, since `8 · len < 2^67`.
static CRC32C_X2N: [u32; 67] = crc32c_x2n_table();

const fn crc32c_x2n_table() -> [u32; 67] {
    let mut table = [0u32; 67];
    // x¹ in the reflected order.
    let mut p = 1u32 << 30;
    let mut k = 0;
    while k < 67 {
        table[k] = p;
        p = crc32c_mulmod(p, p);
        k += 1;
    }
    table
}

/// `x^(8 · len) mod P`: the operator that shifts a CRC register past
/// `len` bytes of zeros.
fn crc32c_shift_op(len: usize) -> u32 {
    // 8 · len = len · 2³, so start at the x^(2^3) entry.
    let mut op = 1u32 << 31;
    let mut n = len as u64;
    let mut k = 3;
    while n != 0 {
        if n & 1 == 1 {
            op = crc32c_mulmod(CRC32C_X2N[k], op);
        }
        n >>= 1;
        k += 1;
    }
    op
}

/// The CRC-32C of `A‖B` from `crc_a = crc32c(A)`, `crc_b = crc32c(B)` and
/// `len_b = |B|`: `mulmod(x^(8·|B|), crc_a) ⊕ crc_b` (zlib's
/// `crc32_combine`, on the Castagnoli polynomial).
fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    crc32c_mulmod(crc32c_shift_op(len_b), crc_a) ^ crc_b
}

fn crc32c_portable(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let byte = |word: u32, shift: u32| ((word >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// Inputs at least this long run as three interleaved chains on the
/// SSE4.2 path: `crc32` has a 3-cycle latency but issues once a cycle,
/// so one chain leaves two thirds of the unit idle. Below it, one chain
/// (and no combine) is cheaper.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const CRC32C_THREE_STREAM_MIN: usize = 3 * 4096;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    if bytes.len() < CRC32C_THREE_STREAM_MIN {
        return !crc32c_sse42_chain(!0, bytes);
    }
    // Three equal lanes of whole words, then a tail of under 24 bytes.
    let lane = bytes.len() / 3 / 8 * 8;
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, tail) = rest.split_at(lane);
    let (mut crc_a, mut crc_b, mut crc_c) = (u64::from(!0u32), u64::from(!0u32), u64::from(!0u32));
    for ((wa, wb), wc) in a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
    {
        crc_a = _mm_crc32_u64(crc_a, word(wa));
        crc_b = _mm_crc32_u64(crc_b, word(wb));
        crc_c = _mm_crc32_u64(crc_c, word(wc));
    }
    // Each lane's finished CRC (the 64-bit instruction zero-extends its
    // 32-bit result), joined as crc(A‖B‖C), then the tail continues it.
    let [crc_a, crc_b, crc_c] = [crc_a, crc_b, crc_c].map(|crc| !(crc as u32));
    let joined = crc32c_combine(crc32c_combine(crc_a, crc_b, lane), crc_c, lane);
    !crc32c_sse42_chain(!joined, tail)
}

/// Runs the CRC register `crc` (not inverted) over `bytes` as one chain.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42_chain(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(crc);
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    // The 64-bit instruction zero-extends its 32-bit CRC result.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Magic + version of the streaming-session snapshot format.
const SESSION_MAGIC: &[u8; 7] = b"EMSESS1";
const SESSION_VERSION: u32 = 1;

/// The `EMSESS1` streaming-session snapshot record: everything a warm
/// restart needs to continue a [`TrackingReconstructor`] stream
/// bitwise-identically, minus the immutable deployment artifact itself
/// (which resume re-resolves by `(deployment, version)`).
///
/// See the [module docs](self) for the field-by-field wire format and
/// validation rules. `eigenmaps-serve`'s `TrackerSession::snapshot()` /
/// `Server::resume_session()` produce and consume these records.
///
/// [`TrackingReconstructor`]: crate::TrackingReconstructor
///
/// # Examples
///
/// ```
/// use eigenmaps_core::codec::SessionSnapshot;
///
/// let snap = SessionSnapshot {
///     deployment: "chip-a".into(),
///     version: 3,
///     gain: 0.25,
///     frames: 1024,
///     k: 2,
///     m: 4,
///     artifact_digest: 0xFEED_BEEF,
///     state: Some(vec![41.5, -0.25]),
/// };
/// let bytes = snap.to_bytes();
/// assert_eq!(SessionSnapshot::from_bytes(&bytes).unwrap(), snap);
/// // Any single corrupted byte is caught by the trailing checksum.
/// let mut bad = bytes.clone();
/// bad[20] ^= 0x40;
/// assert!(SessionSnapshot::from_bytes(&bad).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Registry name of the deployment the session was opened under.
    pub deployment: String,
    /// Registry version the session pinned at open time.
    pub version: u32,
    /// Temporal blending gain `g ∈ (0, 1]`.
    pub gain: f64,
    /// Frames the session had served when the snapshot was taken.
    pub frames: u64,
    /// Basis dimension `K` of the pinned deployment (shape guard).
    pub k: usize,
    /// Sensor count `M` of the pinned deployment (shape guard).
    pub m: usize,
    /// [`fnv1a64`] digest of the pinned deployment's `EMDEPLOY` bytes —
    /// the identity guard that catches a same-shape retrain published
    /// under the old name/version in a new registry lifetime.
    pub artifact_digest: u64,
    /// Temporal-filter coefficient state (`None` before the first step).
    pub state: Option<Vec<f64>>,
}

impl SessionSnapshot {
    /// Serializes the record to `EMSESS1` bytes (checksum appended).
    pub fn to_bytes(&self) -> Vec<u8> {
        let state_len = self.state.as_ref().map_or(0, Vec::len);
        let mut enc = Encoder::with_capacity(64 + self.deployment.len() + 8 * state_len);
        enc.bytes(SESSION_MAGIC)
            .u32(SESSION_VERSION)
            .put_len(self.deployment.len())
            .bytes(self.deployment.as_bytes())
            .u32(self.version)
            .f64(self.gain)
            .u64(self.frames)
            .put_len(self.k)
            .put_len(self.m)
            .u64(self.artifact_digest);
        match &self.state {
            None => {
                enc.u8(0);
            }
            Some(state) => {
                enc.u8(1).f64_slice(state);
            }
        }
        let mut bytes = enc.finish();
        let digest = fnv1a64(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes
    }

    /// Deserializes and fully validates an `EMSESS1` record (see the
    /// [module docs](self) for the rule list).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any malformation: bad magic/version, oversized or
    /// non-UTF-8 name, out-of-range gain or dimensions, unknown state tag,
    /// non-finite state, checksum mismatch, truncation or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> CodecResult<SessionSnapshot> {
        // The checksum covers everything before it, so verify it first:
        // after this, any parse failure is a *structural* bug in the
        // producer, not transport corruption.
        let Some(payload_len) = bytes.len().checked_sub(8) else {
            return Err(CodecError {
                context: "truncated input",
            });
        };
        let stored = u64::from_le_bytes(bytes[payload_len..].try_into().expect("8 bytes"));
        if fnv1a64(&bytes[..payload_len]) != stored {
            return Err(CodecError {
                context: "session snapshot checksum mismatch",
            });
        }
        let mut dec = Decoder::new(&bytes[..payload_len]);
        dec.magic(SESSION_MAGIC)?;
        dec.version(SESSION_VERSION)?;
        // No explicit cap on the name length: `take` bounds-checks it
        // against the remaining bytes before anything is allocated, so a
        // corrupt length cannot trigger an absurd allocation — and every
        // name `to_bytes` accepted round-trips (no write/read asymmetry).
        let name_len = dec.take_len()?;
        let deployment = std::str::from_utf8(dec.take(name_len)?)
            .map_err(|_| CodecError {
                context: "session snapshot deployment name is not UTF-8",
            })?
            .to_string();
        let version = dec.u32()?;
        let gain = dec.f64()?;
        if !(gain.is_finite() && gain > 0.0 && gain <= 1.0) {
            return Err(CodecError {
                context: "session snapshot gain outside (0, 1]",
            });
        }
        let frames = dec.u64()?;
        let k = dec.take_len()?;
        let m = dec.take_len()?;
        if k == 0 || m == 0 || k > m {
            return Err(CodecError {
                context: "session snapshot dimensions out of range",
            });
        }
        let artifact_digest = dec.u64()?;
        let state = match dec.u8()? {
            0 => None,
            1 => {
                let state = dec.f64_vec(k)?;
                if state.iter().any(|v| !v.is_finite()) {
                    return Err(CodecError {
                        context: "session snapshot state is non-finite",
                    });
                }
                Some(state)
            }
            _ => {
                return Err(CodecError {
                    context: "session snapshot unknown state tag",
                })
            }
        };
        dec.finish()?;
        Ok(SessionSnapshot {
            deployment,
            version,
            gain,
            frames,
            k,
            m,
            artifact_digest,
            state,
        })
    }
}

/// Magic + version of the durability-store manifest format.
const STORE_MAGIC: &[u8; 8] = b"EMSTORE1";
/// The `EMSTORE1` format version this build writes and understands.
pub const STORE_VERSION: u32 = 1;

/// One deployment catalog entry in an `EMSTORE1` manifest: a published
/// `(name, version)` and the on-disk `EMDEPLOY` file that holds its
/// artifact bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCatalogEntry {
    /// Registry name the artifact is published under.
    pub name: String,
    /// Registry version of this artifact.
    pub version: u32,
    /// File name (relative to the store directory) of the `EMDEPLOY`
    /// bytes.
    pub file: String,
    /// [`fnv1a64`] of the `EMDEPLOY` bytes — verified on hydration so a
    /// torn or swapped data file is skipped, never published.
    pub artifact_digest: u64,
}

/// One session roster entry in an `EMSTORE1` manifest: a durable session
/// id and the latest checkpointed `EMSESS1` file for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSessionEntry {
    /// Durable session id, stable across restarts.
    pub id: u64,
    /// File name (relative to the store directory) of the latest
    /// `EMSESS1` snapshot.
    pub file: String,
    /// Checkpoint generation of that file (monotonic per session).
    pub generation: u64,
    /// Frames the session had served at checkpoint time (mirrors the
    /// snapshot's own counter; lets hydration report progress without
    /// opening the file).
    pub frames: u64,
    /// [`fnv1a64`] of the pinned deployment's `EMDEPLOY` bytes (mirrors
    /// the snapshot's artifact digest).
    pub artifact_digest: u64,
}

/// The `EMSTORE1` durability-store manifest: the deployment catalog and
/// session roster a crash-safe checkpoint commits atomically.
///
/// See the [module docs](self) for the field-by-field wire format and
/// validation rules. `eigenmaps-serve::store` produces and consumes
/// these records; the manifest rename is the checkpoint's commit point.
///
/// # Examples
///
/// ```
/// use eigenmaps_core::codec::{StoreCatalogEntry, StoreManifest, StoreSessionEntry};
///
/// let manifest = StoreManifest {
///     catalog: vec![StoreCatalogEntry {
///         name: "chip-a".into(),
///         version: 2,
///         file: "d-00c0ffee.emdeploy".into(),
///         artifact_digest: 0xC0FFEE,
///     }],
///     sessions: vec![StoreSessionEntry {
///         id: 7,
///         file: "s7-g3.emsess".into(),
///         generation: 3,
///         frames: 1024,
///         artifact_digest: 0xC0FFEE,
///     }],
/// };
/// let bytes = manifest.to_bytes();
/// assert_eq!(StoreManifest::from_bytes(&bytes).unwrap(), manifest);
/// // Any single corrupted byte is caught by the trailing checksum.
/// let mut bad = bytes.clone();
/// bad[13] ^= 0x10;
/// assert!(StoreManifest::from_bytes(&bad).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreManifest {
    /// The persisted deployment catalog, one entry per live
    /// `(name, version)`.
    pub catalog: Vec<StoreCatalogEntry>,
    /// The persisted session roster, one entry per durable session.
    pub sessions: Vec<StoreSessionEntry>,
}

impl StoreManifest {
    /// Serializes the record to `EMSTORE1` bytes (checksum appended).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(64 + 64 * (self.catalog.len() + self.sessions.len()));
        enc.bytes(STORE_MAGIC).u32(STORE_VERSION);
        enc.put_len(self.catalog.len());
        for entry in &self.catalog {
            enc.put_len(entry.name.len())
                .bytes(entry.name.as_bytes())
                .u32(entry.version)
                .put_len(entry.file.len())
                .bytes(entry.file.as_bytes())
                .u64(entry.artifact_digest);
        }
        enc.put_len(self.sessions.len());
        for entry in &self.sessions {
            enc.u64(entry.id)
                .put_len(entry.file.len())
                .bytes(entry.file.as_bytes())
                .u64(entry.generation)
                .u64(entry.frames)
                .u64(entry.artifact_digest);
        }
        let mut bytes = enc.finish();
        let digest = fnv1a64(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes
    }

    /// Reads the format version of a purported `EMSTORE1` record without
    /// validating anything past the header — `None` if the bytes do not
    /// even carry the magic. This is how hydration distinguishes "written
    /// by a newer binary" (refuse, a typed error) from "torn or corrupt"
    /// (skip and meter): a newer format cannot be checksummed by this
    /// build's rules, so the version must be readable pre-validation.
    pub fn peek_version(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < STORE_MAGIC.len() + 4 || &bytes[..STORE_MAGIC.len()] != STORE_MAGIC {
            return None;
        }
        let raw = &bytes[STORE_MAGIC.len()..STORE_MAGIC.len() + 4];
        Some(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// Deserializes and fully validates an `EMSTORE1` record (see the
    /// [module docs](self) for the rule list).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any malformation: checksum mismatch, bad
    /// magic/version, non-UTF-8 names, truncation or trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> CodecResult<StoreManifest> {
        // Checksum first, like EMSESS1: after this, any parse failure is
        // a structural bug in the producer, not transport corruption.
        let Some(payload_len) = bytes.len().checked_sub(8) else {
            return Err(CodecError {
                context: "truncated input",
            });
        };
        let stored = u64::from_le_bytes(bytes[payload_len..].try_into().expect("8 bytes"));
        if fnv1a64(&bytes[..payload_len]) != stored {
            return Err(CodecError {
                context: "store manifest checksum mismatch",
            });
        }
        let mut dec = Decoder::new(&bytes[..payload_len]);
        dec.magic(STORE_MAGIC)?;
        dec.version(STORE_VERSION)?;
        let take_str = |dec: &mut Decoder<'_>, context: &'static str| -> CodecResult<String> {
            let len = dec.take_len()?;
            Ok(std::str::from_utf8(dec.take(len)?)
                .map_err(|_| CodecError { context })?
                .to_string())
        };
        let catalog_count = dec.take_len()?;
        let mut catalog = Vec::with_capacity(catalog_count.min(1024));
        for _ in 0..catalog_count {
            let name = take_str(&mut dec, "store manifest catalog name is not UTF-8")?;
            let version = dec.u32()?;
            let file = take_str(&mut dec, "store manifest catalog file name is not UTF-8")?;
            let artifact_digest = dec.u64()?;
            catalog.push(StoreCatalogEntry {
                name,
                version,
                file,
                artifact_digest,
            });
        }
        let session_count = dec.take_len()?;
        let mut sessions = Vec::with_capacity(session_count.min(1024));
        for _ in 0..session_count {
            let id = dec.u64()?;
            let file = take_str(&mut dec, "store manifest session file name is not UTF-8")?;
            let generation = dec.u64()?;
            let frames = dec.u64()?;
            let artifact_digest = dec.u64()?;
            sessions.push(StoreSessionEntry {
                id,
                file,
                generation,
                frames,
                artifact_digest,
            });
        }
        dec.finish()?;
        Ok(StoreManifest { catalog, sessions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_scalar_kinds() {
        let mut enc = Encoder::with_capacity(64);
        enc.bytes(b"TESTMAG1")
            .u32(3)
            .u8(7)
            .put_len(1_000_000)
            .f64(-2.5)
            .f64_slice(&[1.0, 0.5, -0.25]);
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        dec.magic(b"TESTMAG1").unwrap();
        assert_eq!(dec.version(3).unwrap(), 3);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.take_len().unwrap(), 1_000_000);
        assert_eq!(dec.f64().unwrap(), -2.5);
        assert_eq!(dec.f64_vec(3).unwrap(), vec![1.0, 0.5, -0.25]);
        dec.finish().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dec = Decoder::new(b"WRONGMAG123");
        assert!(dec.magic(b"TESTMAG1").is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let bytes = {
            let mut enc = Encoder::default();
            enc.u32(2);
            enc.finish()
        };
        assert!(Decoder::new(&bytes).version(1).is_err());
    }

    #[test]
    fn truncation_detected_before_allocation() {
        // A tiny buffer claiming a huge f64 payload must fail in take(),
        // never allocating the claimed length.
        let mut dec = Decoder::new(&[0u8; 16]);
        assert!(dec.f64_vec(usize::MAX / 16).is_err());
        assert!(dec.f64_vec(usize::MAX).is_err()); // length overflow path
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = {
            let mut enc = Encoder::default();
            enc.u8(1).u8(2);
            enc.finish()
        };
        let mut dec = Decoder::new(&bytes);
        dec.u8().unwrap();
        assert!(dec.finish().is_err());
        assert_eq!(dec.remaining(), 1);
        dec.u8().unwrap();
        dec.finish().unwrap();
    }

    #[test]
    fn maps_into_core_error() {
        let e: CoreError = CodecError { context: "x" }.into();
        assert!(matches!(e, CoreError::Persist { context: "x" }));
    }

    fn sample_snapshot(state: Option<Vec<f64>>) -> SessionSnapshot {
        SessionSnapshot {
            deployment: "sku-α".into(), // non-ASCII UTF-8 round-trips
            version: 7,
            gain: 0.375,
            frames: 12_345,
            k: 3,
            m: 5,
            artifact_digest: 0x1234_5678_9ABC_DEF0,
            state,
        }
    }

    #[test]
    fn session_snapshot_roundtrips_with_and_without_state() {
        for state in [None, Some(vec![40.0, -1.5, 0.25])] {
            let snap = sample_snapshot(state);
            let back = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn session_snapshot_detects_any_single_byte_corruption() {
        let bytes = sample_snapshot(Some(vec![40.0, -1.5, 0.25])).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                SessionSnapshot::from_bytes(&bad).is_err(),
                "flip at byte {i} decoded"
            );
        }
        // Truncation at every length, and trailing garbage.
        for cut in 0..bytes.len() {
            assert!(SessionSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(SessionSnapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn session_snapshot_rejects_semantic_garbage() {
        // A record can be checksum-consistent yet semantically invalid
        // (a buggy producer): the field validators still refuse it.
        let reject = |mutate: fn(&mut SessionSnapshot)| {
            let mut snap = sample_snapshot(Some(vec![1.0, 2.0, 3.0]));
            mutate(&mut snap);
            assert!(SessionSnapshot::from_bytes(&snap.to_bytes()).is_err());
        };
        reject(|s| s.gain = 0.0);
        reject(|s| s.gain = 1.5);
        reject(|s| s.gain = f64::NAN);
        reject(|s| s.k = 0);
        reject(|s| {
            s.k = 6; // k > m
        });
        reject(|s| s.state = Some(vec![1.0, f64::INFINITY, 2.0]));
    }

    #[test]
    fn session_snapshot_roundtrips_any_name_length() {
        // No write/read asymmetry: every name `to_bytes` accepts resumes.
        let mut snap = sample_snapshot(None);
        snap.deployment = "x".repeat(5000);
        let back = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
    }

    fn sample_manifest() -> StoreManifest {
        StoreManifest {
            catalog: vec![
                StoreCatalogEntry {
                    name: "sku-α".into(), // non-ASCII UTF-8 round-trips
                    version: 1,
                    file: "d-0000000000c0ffee.emdeploy".into(),
                    artifact_digest: 0xC0FFEE,
                },
                StoreCatalogEntry {
                    name: "sku-b".into(),
                    version: 4,
                    file: "d-00000000deadbeef.emdeploy".into(),
                    artifact_digest: 0xDEAD_BEEF,
                },
            ],
            sessions: vec![StoreSessionEntry {
                id: 42,
                file: "s42-g9.emsess".into(),
                generation: 9,
                frames: 777,
                artifact_digest: 0xC0FFEE,
            }],
        }
    }

    #[test]
    fn store_manifest_roundtrips_including_empty() {
        for manifest in [StoreManifest::default(), sample_manifest()] {
            let bytes = manifest.to_bytes();
            assert_eq!(StoreManifest::from_bytes(&bytes).unwrap(), manifest);
            // Serialization is deterministic.
            assert_eq!(manifest.to_bytes(), bytes);
        }
    }

    #[test]
    fn store_manifest_detects_any_single_byte_corruption() {
        let bytes = sample_manifest().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                StoreManifest::from_bytes(&bad).is_err(),
                "flip at byte {i} decoded"
            );
        }
        for cut in 0..bytes.len() {
            assert!(StoreManifest::from_bytes(&bytes[..cut]).is_err());
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(StoreManifest::from_bytes(&long).is_err());
    }

    #[test]
    fn store_manifest_version_peeks_without_validation() {
        let bytes = sample_manifest().to_bytes();
        assert_eq!(StoreManifest::peek_version(&bytes), Some(STORE_VERSION));
        // The peek works even on a record whose body is torn…
        assert_eq!(
            StoreManifest::peek_version(&bytes[..13]),
            Some(STORE_VERSION)
        );
        // …and on a future version this build cannot parse.
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        assert_eq!(
            StoreManifest::peek_version(&future),
            Some(STORE_VERSION + 1)
        );
        assert!(StoreManifest::from_bytes(&future).is_err());
        // No magic, no version.
        assert_eq!(StoreManifest::peek_version(b"EMSESS1xxxx"), None);
        assert_eq!(StoreManifest::peek_version(&bytes[..7]), None);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    type Crc32cFn = fn(&[u8]) -> u32;

    /// Every CRC-32C implementation this host can run: the portable table
    /// always, the SSE4.2 instruction when the CPU has it, and the
    /// dispatching entry point.
    fn crc32c_backends() -> Vec<(&'static str, Crc32cFn)> {
        let mut backends: Vec<(&'static str, Crc32cFn)> =
            vec![("portable", crc32c_portable), ("dispatched", crc32c)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: only called after the `sse4.2` feature it needs was
            // detected just above.
            backends.push(("sse4.2", |bytes| unsafe { crc32c_sse42(bytes) }));
        }
        backends
    }

    #[test]
    fn crc32c_matches_published_vectors_on_every_backend() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        // The CRC catalogue check value, then RFC 3720 section B.4.
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (name, crc) in crc32c_backends() {
            assert_eq!(crc(b""), 0, "{name}: empty input");
            for (input, want) in vectors {
                assert_eq!(crc(input), want, "{name}: {input:02X?}");
            }
        }
    }

    /// Deterministic pseudo-random bytes from an LCG seeded with `seed`.
    fn lcg_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_backends_agree_bitwise() {
        // 1.72 MB: the size of a 256-frame batch reply on the benchmark's
        // 28 × 30 grid.
        let data = lcg_bytes(0x2545_F491_4F6C_DD1D, 1_720_000);
        let backends = crc32c_backends();
        let check = |bytes: &[u8], what: &str| {
            let want = crc32c_portable(bytes);
            for (name, crc) in &backends {
                assert_eq!(crc(bytes), want, "{name} disagrees with portable: {what}");
            }
        };
        for len in 0..=1024 {
            check(&data[..len], &format!("length {len}"));
        }
        for offset in 0..8 {
            check(&data[offset..offset + 517], &format!("offset {offset}"));
        }
        // Around the three-stream threshold: every residue mod 24 (three
        // lanes of 8-byte words) on both sides of it, so each tail length
        // and the switch between one chain and three are hit.
        for len in CRC32C_THREE_STREAM_MIN - 24..=CRC32C_THREE_STREAM_MIN + 48 {
            check(&data[..len], &format!("length {len}"));
        }
        for offset in 0..8 {
            let len = CRC32C_THREE_STREAM_MIN + 4099;
            check(
                &data[offset..offset + len],
                &format!("offset {offset}, length {len}"),
            );
        }
        check(&data, "1.72 MB buffer");
    }

    #[test]
    fn crc32c_combine_joins_any_split() {
        let data = lcg_bytes(0x9E37_79B9_7F4A_7C15, 40_000);
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut cases = vec![(0, 0), (0, 1), (1, 0), (0, 40_000), (40_000, 0)];
        for _ in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let len = (state % 40_001) as usize;
            let split = ((state >> 32) as usize) % (len + 1);
            cases.push((split, len - split));
        }
        for (len_a, len_b) in cases {
            let (a, b) = data[..len_a + len_b].split_at(len_a);
            assert_eq!(
                crc32c_combine(crc32c_portable(a), crc32c_portable(b), len_b),
                crc32c_portable(&data[..len_a + len_b]),
                "|A| = {len_a}, |B| = {len_b}"
            );
        }
    }

    #[test]
    fn crc32c_in_runs_equals_the_crc_of_the_joined_bytes() {
        let data = lcg_bytes(0x0DDB_1A5E_5BAD_5EED, 60_000);
        assert_eq!(Crc32c::new().finish(), 0);
        assert_eq!(Crc32c::new().update(&data[..0]).finish(), 0);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for case in 0..48 {
            // Up to six cut points, empty runs allowed, runs both under
            // and over the three-stream threshold.
            let mut cuts: Vec<usize> = (0..case % 7)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 60_001) as usize
                })
                .collect();
            cuts.push(0);
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut crc = Crc32c::new();
            for w in cuts.windows(2) {
                crc.update(&data[w[0]..w[1]]);
            }
            assert_eq!(crc.finish(), crc32c(&data), "cuts {cuts:?}");
        }
    }

    #[test]
    fn map_records_as_words_are_the_encoded_record_bytes() {
        let cells: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin() * 80.0).collect();
        let mut enc = Encoder::default();
        enc.map_record(3, 4, &cells);
        let bytes = enc.finish();
        assert_eq!(bytes.len(), map_record_len(12));
        let mut words = map_record_header(3, 4).to_vec();
        words.extend_from_slice(&cells);
        assert_eq!(&*f64_le_bytes(&words), bytes.as_slice());
        assert!(f64_le_bytes(&[]).is_empty());
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.map_record().unwrap(), (3, 4, cells));
        dec.finish().unwrap();
        // Truncation and a dimension product that overflows both fail
        // before anything is allocated.
        assert!(Decoder::new(&bytes[..bytes.len() - 1])
            .map_record()
            .is_err());
        let mut huge = Encoder::default();
        huge.u64(u64::MAX).u64(2);
        assert_eq!(
            Decoder::new(&huge.finish())
                .map_record()
                .unwrap_err()
                .context,
            "map dimensions overflow"
        );
    }
}
