#![warn(missing_docs)]
// Hardened crate: panicking extractors are denied in CI on library code
// (tests may unwrap freely).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// Structured output goes through mmp_obs; stray prints are denied in CI
// (the obs sinks and bin/ targets are the sanctioned exits).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Crash-safe checkpoint envelope: versioned, checksummed, atomic.
//!
//! A checkpoint file is a fixed 28-byte header followed by an opaque
//! payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MMPC"
//! 4       4     format version (u32 LE)
//! 8       8     payload length (u64 LE)
//! 16      4     payload CRC-32 (IEEE, u32 LE)
//! 20      8     FNV-1a 64 over bytes 0..20 (u64 LE)
//! 28      —     payload bytes
//! ```
//!
//! Both checksums are hand-rolled (this crate pulls in nothing but
//! `mmp-vfs`, itself dependency-free: checkpointing must not be able to
//! fail because of an optional dependency). The header FNV detects a
//! corrupted *header* before any length field is trusted; the payload CRC
//! detects flipped payload bytes; the length field detects truncation (a
//! partially-written or cut file).
//!
//! [`write`] is atomic on POSIX rename semantics: the payload goes to a
//! sibling temp file, is flushed with `fsync`, and is renamed over the
//! final path, so a crash mid-write leaves either the old checkpoint or
//! none — never a half-written one. Readers classify every failure as a
//! typed [`CkptError`], which the flow maps to
//! `PlaceError::Checkpoint` (exit code 16); no corruption path panics.
//!
//! Every filesystem touch goes through an injectable [`Vfs`] chokepoint:
//! the `*_with` variants take an explicit handle so the disk-fault
//! torture harness can fail any single create/write/fsync/rename
//! deterministically; the plain functions use the zero-overhead real
//! backend.

use mmp_vfs::Vfs;
use std::path::Path;

/// Envelope magic bytes.
pub const MAGIC: [u8; 4] = *b"MMPC";

/// Current envelope format version. Readers refuse newer (and older)
/// versions with [`CkptError::UnsupportedVersion`] rather than guessing at
/// a layout.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;

/// Why a checkpoint could not be written or read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Filesystem trouble (create, write, fsync, rename, read).
    Io {
        /// Path involved.
        path: String,
        /// OS error text.
        detail: String,
    },
    /// The file does not start with the envelope magic — not a checkpoint.
    BadMagic {
        /// Path involved.
        path: String,
    },
    /// The envelope was written by an incompatible format version.
    UnsupportedVersion {
        /// Path involved.
        path: String,
        /// Version found in the header.
        found: u32,
        /// The only version this reader understands.
        supported: u32,
    },
    /// The file is shorter than its header claims (cut mid-write or
    /// truncated afterwards).
    Truncated {
        /// Path involved.
        path: String,
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// A checksum failed: the bytes present are not the bytes written.
    Corrupt {
        /// Path involved.
        path: String,
        /// Which check failed.
        detail: String,
    },
    /// The envelope was intact but its payload is not usable (wrong
    /// fingerprint, undecodable state, injected crash).
    Invalid {
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io { path, detail } => write!(f, "checkpoint I/O on {path}: {detail}"),
            CkptError::BadMagic { path } => {
                write!(f, "{path} is not a checkpoint (bad magic)")
            }
            CkptError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{path} uses checkpoint format v{found}, this build supports only v{supported}"
            ),
            CkptError::Truncated {
                path,
                expected,
                got,
            } => write!(
                f,
                "{path} is truncated: header promises {expected} bytes, file has {got}"
            ),
            CkptError::Corrupt { path, detail } => {
                write!(f, "{path} is corrupt: {detail}")
            }
            CkptError::Invalid { detail } => write!(f, "checkpoint unusable: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

fn io_err(path: &Path, e: std::io::Error) -> CkptError {
    CkptError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// CRC-32 register after shifting each byte value through eight rounds of
/// the reflected polynomial, computed at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            round += 1;
        }
        // mmp-lint: allow(panic-path) why: const evaluation; byte < 256 is the loop bound, and an out-of-range index would fail the build, not a run
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
///
/// One table lookup per byte. Throughput matters here: training payloads
/// run 0.5–1.25 MB, and a cache hit in `mmpd` checksums its trained policy
/// three times (donor read, seeded copy, resume read) before the search
/// writes its own checkpoints. On a 2-vCPU VM the table runs at about
/// 340 MB/s (1.4 ms for a 477 KB policy), twice the eight-round bitwise
/// loop the tests keep as a reference.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        let slot = usize::from((crc as u8) ^ b);
        crc = (crc >> 8) ^ CRC32_TABLE.get(slot).copied().unwrap_or(0);
    }
    !crc
}

/// FNV-1a 64-bit hash of `bytes` (the header self-check and the flow's
/// design/config fingerprint).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode(payload: &[u8], version: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    // The buffer now holds exactly the 20 header bytes the FNV covers.
    let header_fnv = fnv1a64(&buf);
    buf.extend_from_slice(&header_fnv.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// What a successful write additionally observed. The data file itself is
/// durable whenever a write returns `Ok`; `dir_fsync_failed` reports that
/// the *directory entry* fsync after the rename failed, which callers
/// surface to operators (flaky storage) instead of the old silent
/// `let _ = d.sync_all()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The best-effort directory fsync after the rename failed.
    pub dir_fsync_failed: bool,
}

/// Writes `payload` to `path` atomically under the current
/// [`FORMAT_VERSION`].
///
/// The bytes go to `path` + `.tmp` first, are flushed to disk with
/// `fsync`, and the temp file is renamed over `path`. On POSIX rename
/// atomicity this means a reader (including a resuming run after a crash
/// here) sees either the previous checkpoint or the new one, never a
/// partial write.
///
/// # Errors
///
/// [`CkptError::Io`] on any filesystem failure.
pub fn write(path: &Path, payload: &[u8]) -> Result<(), CkptError> {
    write_at_version(path, payload, FORMAT_VERSION)
}

/// [`write`] through an explicit [`Vfs`] handle, reporting the
/// directory-fsync outcome.
///
/// # Errors
///
/// [`CkptError::Io`] on any filesystem failure.
pub fn write_with(vfs: &Vfs, path: &Path, payload: &[u8]) -> Result<WriteReceipt, CkptError> {
    write_at_version_with(vfs, path, payload, FORMAT_VERSION)
}

/// [`write`] with an explicit format version.
///
/// Production code always writes [`FORMAT_VERSION`]; the fault harness
/// uses this to manufacture validly-checksummed envelopes from a *future*
/// version and prove readers refuse them.
///
/// # Errors
///
/// [`CkptError::Io`] on any filesystem failure.
pub fn write_at_version(path: &Path, payload: &[u8], version: u32) -> Result<(), CkptError> {
    write_at_version_with(&Vfs::real(), path, payload, version).map(|_| ())
}

/// [`write_at_version`] through an explicit [`Vfs`] handle.
///
/// The write protocol exposes five independently faultable boundaries:
/// temp-file create, payload write, file fsync, rename, directory fsync.
/// A failed directory fsync does not fail the write (the data file is
/// already durable) unless it is crash-marked — it is reported in the
/// [`WriteReceipt`] so callers can count it.
///
/// # Errors
///
/// [`CkptError::Io`] on any filesystem failure.
pub fn write_at_version_with(
    vfs: &Vfs,
    path: &Path,
    payload: &[u8],
    version: u32,
) -> Result<WriteReceipt, CkptError> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut tmp_name = name.to_os_string();
            tmp_name.push(".tmp");
            path.with_file_name(tmp_name)
        }
        None => {
            return Err(CkptError::Io {
                path: path.display().to_string(),
                detail: "path has no file name".to_owned(),
            })
        }
    };
    let buf = encode(payload, version);
    // Create + write + fsync before rename: the rename must never land
    // before the data.
    vfs.write_file(&tmp, &buf).map_err(|e| io_err(&tmp, e))?;
    vfs.rename(&tmp, path).map_err(|e| io_err(path, e))?;
    // Best-effort directory fsync so the rename itself is durable; not all
    // platforms allow opening a directory for sync, so a failure does not
    // fail the write (the data file is already safe either way) — but it
    // is no longer silent: the receipt reports it, and a crash-marked
    // injection still aborts like the power loss it models.
    let mut receipt = WriteReceipt::default();
    if let Some(dir) = path.parent() {
        if let Err(e) = vfs.sync_dir(dir) {
            if mmp_vfs::is_crash(&e) {
                return Err(io_err(dir, e));
            }
            receipt.dir_fsync_failed = true;
        }
    }
    Ok(receipt)
}

/// The `N` header bytes at offset `at`; zeros for a range outside the
/// header, which no caller asks for.
fn header_field<const N: usize>(header: &[u8; HEADER_LEN], at: usize) -> [u8; N] {
    header
        .get(at..at + N)
        .and_then(|b| b.try_into().ok())
        .unwrap_or([0; N])
}

fn decode(path: &Path, bytes: &[u8]) -> Result<Vec<u8>, CkptError> {
    let display = || path.display().to_string();
    let truncated = |expected: u64| CkptError::Truncated {
        path: display(),
        expected,
        got: bytes.len() as u64,
    };
    let Some((header, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(truncated(HEADER_LEN as u64));
    };
    if header_field::<4>(header, 0) != MAGIC {
        return Err(CkptError::BadMagic { path: display() });
    }
    // The header carries its own FNV so a flipped *length* byte is caught
    // before it is trusted (otherwise a corrupt length reads as a
    // misleading truncation).
    let stored_fnv = u64::from_le_bytes(header_field(header, 20));
    if fnv1a64(&header_field::<20>(header, 0)) != stored_fnv {
        return Err(CkptError::Corrupt {
            path: display(),
            detail: "header checksum (FNV-1a) mismatch".to_owned(),
        });
    }
    let version = u32::from_le_bytes(header_field(header, 4));
    if version != FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion {
            path: display(),
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // A header with a valid FNV can still declare any length: the sum and
    // the slice are both checked, so a length near u64::MAX reads as a
    // truncation instead of wrapping.
    let payload_len = u64::from_le_bytes(header_field(header, 8));
    let payload = usize::try_from(payload_len)
        .ok()
        .and_then(|len| body.get(..len))
        .ok_or_else(|| truncated((HEADER_LEN as u64).saturating_add(payload_len)))?;
    let stored_crc = u32::from_le_bytes(header_field(header, 16));
    if crc32(payload) != stored_crc {
        return Err(CkptError::Corrupt {
            path: display(),
            detail: "payload checksum (CRC-32) mismatch".to_owned(),
        });
    }
    Ok(payload.to_vec())
}

/// Reads and verifies the checkpoint at `path`, returning its payload.
///
/// Verification order: size → magic → header FNV → version → declared
/// length (truncation) → payload CRC.
///
/// # Errors
///
/// A [`CkptError`] naming exactly which check failed.
pub fn read(path: &Path) -> Result<Vec<u8>, CkptError> {
    read_with(&Vfs::real(), path)
}

/// [`read`] through an explicit [`Vfs`] handle.
///
/// # Errors
///
/// A [`CkptError`] naming exactly which check failed.
pub fn read_with(vfs: &Vfs, path: &Path) -> Result<Vec<u8>, CkptError> {
    let bytes = vfs.read_file(path).map_err(|e| io_err(path, e))?;
    decode(path, &bytes)
}

/// [`read`] that maps a missing file to `Ok(None)` — the natural shape for
/// "resume if a checkpoint exists".
///
/// # Errors
///
/// Every failure except `NotFound` is still a [`CkptError`]: an *existing*
/// but unreadable checkpoint must surface, not silently restart the run.
pub fn read_opt(path: &Path) -> Result<Option<Vec<u8>>, CkptError> {
    read_opt_with(&Vfs::real(), path)
}

/// [`read_opt`] through an explicit [`Vfs`] handle.
///
/// # Errors
///
/// Every failure except `NotFound` is still a [`CkptError`].
pub fn read_opt_with(vfs: &Vfs, path: &Path) -> Result<Option<Vec<u8>>, CkptError> {
    match vfs.read_file(path) {
        Ok(bytes) => decode(path, &bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(path, e)),
    }
}

#[cfg(test)]
// why: tests tamper with checkpoint bytes on purpose; the workspace-wide ban on
// bare `std::fs::write` exists to route *production* state through the
// atomic writer above.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mmp_ckpt_{}_{name}", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Published IEEE CRC-32 check values: any change to the table or
        // its loop must reproduce these exactly.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bitwise CRC-32 the table replaced: eight shift-and-xor rounds
    /// per byte, no static data.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn table_crc32_equals_the_bitwise_reference(
            bytes in proptest::collection::vec(0u8..=255, 0..600)
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Vectors from the reference FNV test suite (Noll's fnv64a).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"abc"), 0xe71f_a219_0541_574b);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"chongo was here!\n"), 0x4681_0940_eff5_f915);
    }

    #[test]
    fn round_trip_preserves_payload() {
        let path = tmp("roundtrip.ckpt");
        let payload = b"the quick brown fox \x00\xff\x7f jumps".to_vec();
        write(&path, &payload).unwrap();
        assert_eq!(read(&path).unwrap(), payload);
        assert_eq!(read_opt(&path).unwrap(), Some(payload));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_payload_round_trips() {
        let path = tmp("empty.ckpt");
        write(&path, &[]).unwrap();
        assert_eq!(read(&path).unwrap(), Vec::<u8>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_none_for_read_opt_and_io_for_read() {
        let path = tmp("missing.ckpt");
        std::fs::remove_file(&path).ok();
        assert_eq!(read_opt(&path).unwrap(), None);
        assert!(matches!(read(&path), Err(CkptError::Io { .. })));
    }

    #[test]
    fn truncation_is_detected_at_every_cut_point() {
        let path = tmp("trunc.ckpt");
        let payload: Vec<u8> = (0..200u8).collect();
        write(&path, &payload).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                matches!(read(&path), Err(CkptError::Truncated { .. })),
                "cut at {cut} must read as truncation"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn declared_length_near_u64_max_is_truncated_not_a_panic() {
        // A 35-byte file whose header is valid (magic, version, FNV) but
        // declares a payload of u64::MAX - 10 bytes: the declared end
        // wraps past zero unless the arithmetic is checked.
        let path = tmp("hugelen.ckpt");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX - 10).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let header_fnv = fnv1a64(&bytes);
        bytes.extend_from_slice(&header_fnv.to_le_bytes());
        bytes.extend_from_slice(b"payload");
        assert_eq!(bytes.len(), 35);
        std::fs::write(&path, &bytes).unwrap();
        match read(&path) {
            Err(CkptError::Truncated { got, .. }) => assert_eq!(got, 35),
            other => panic!("expected truncation, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_is_corrupt() {
        let path = tmp("corrupt.ckpt");
        write(&path, b"important state").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match read(&path) {
            Err(CkptError::Corrupt { detail, .. }) => assert!(detail.contains("CRC")),
            other => panic!("expected payload corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_header_byte_is_corrupt_not_a_wild_read() {
        let path = tmp("hdr.ckpt");
        write(&path, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0x40; // a length byte — must be caught by the header FNV
        std::fs::write(&path, &bytes).unwrap();
        match read(&path) {
            Err(CkptError::Corrupt { detail, .. }) => assert!(detail.contains("FNV")),
            other => panic!("expected header corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_not_a_checkpoint() {
        let path = tmp("magic.ckpt");
        std::fs::write(&path, b"JSON{not a checkpoint at all, but long enough}").unwrap();
        assert!(matches!(read(&path), Err(CkptError::BadMagic { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_refused_with_both_versions_named() {
        let path = tmp("version.ckpt");
        write_at_version(&path, b"from the future", FORMAT_VERSION + 1).unwrap();
        match read(&path) {
            Err(CkptError::UnsupportedVersion {
                found, supported, ..
            }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version refusal, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_replaces_atomically_and_leaves_no_temp_file() {
        let path = tmp("rewrite.ckpt");
        write(&path, b"first").unwrap();
        write(&path, b"second").unwrap();
        assert_eq!(read(&path).unwrap(), b"second");
        let tmp_sibling = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert!(!tmp_sibling.exists(), "temp file must not survive a write");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_dir_fsync_failure_is_reported_not_fatal() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind, Vfs};
        let path = tmp("dirfsync.ckpt");
        std::fs::remove_file(&path).ok();
        // Fsync op 1 is the temp file, op 2 is the directory.
        let vfs = Vfs::with_plan(FailPlan::new(FaultKind::Eio, 2).on(OpKind::Fsync));
        let receipt = write_with(&vfs, &path, b"payload").unwrap();
        assert!(receipt.dir_fsync_failed);
        // The data file is durable and readable regardless.
        assert_eq!(read(&path).unwrap(), b"payload");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_rename_failure_leaves_the_temp_orphan() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind, Vfs};
        let path = tmp("torn.ckpt");
        std::fs::remove_file(&path).ok();
        let vfs = Vfs::with_plan(FailPlan::new(FaultKind::Eio, 1).on(OpKind::Rename));
        match write_with(&vfs, &path, b"payload") {
            Err(CkptError::Io { detail, .. }) => assert!(detail.contains("EIO"), "{detail}"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
        let orphan = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().unwrap().to_string_lossy()
        ));
        assert!(orphan.exists(), "a torn rename leaves the .tmp orphan");
        assert!(!path.exists());
        std::fs::remove_file(&orphan).ok();
    }

    #[test]
    fn crash_marked_write_fault_is_an_io_error_with_the_marker() {
        use mmp_vfs::{FailPlan, FaultKind, OpKind, Vfs};
        let path = tmp("crashmark.ckpt");
        std::fs::remove_file(&path).ok();
        let vfs = Vfs::with_plan(FailPlan::new(FaultKind::CrashAfter, 1).on(OpKind::Rename));
        match write_with(&vfs, &path, b"payload") {
            Err(CkptError::Io { detail, .. }) => assert!(mmp_vfs::is_crash_detail(&detail)),
            other => panic!("expected a crash-marked I/O error, got {other:?}"),
        }
        // CrashAfter models power loss *after* the syscall: the rename
        // landed, so a resuming reader sees the complete envelope.
        assert_eq!(read(&path).unwrap(), b"payload");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_render_the_failing_check() {
        let e = CkptError::Truncated {
            path: "x.ckpt".into(),
            expected: 100,
            got: 40,
        };
        assert!(e.to_string().contains("truncated"));
        let e = CkptError::UnsupportedVersion {
            path: "x.ckpt".into(),
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains("v1"));
    }
}
