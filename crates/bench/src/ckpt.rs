//! Shared crash-safe JSONL checkpoint substrate.
//!
//! Both the sweep driver ([`crate::sweep`]) and the serving daemon
//! (`ppf-serve`) persist state as append-only JSONL files and must survive
//! the two corruptions a crash actually produces:
//!
//! * **Torn tails.** A process killed mid-append leaves a final line with no
//!   terminating newline (or half a record). [`load_tolerant`] drops that
//!   tail, reports it, and keeps every complete line — a torn tail must
//!   never fail a whole resume.
//! * **Bit rot / interleaved writers.** Every record is *sealed* with a
//!   CRC-32 over its body ([`seal`]); [`check`] rejects any line whose body
//!   no longer matches. An abandoned (watchdog-replaced) shard thread that
//!   wakes up and races an append can interleave bytes mid-line — the CRC
//!   turns that into a dropped record instead of silent corruption.
//!
//! Whole-file rewrites (sweep truncation, serve compaction) go through
//! [`atomic_write`]: write to a temp file in the same directory, fsync,
//! rename — a crash leaves either the old file or the new one, never a
//! partial mix.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-8
/// tables. `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]`
/// advances the CRC of byte `b` through `k` further zero bytes, so eight
/// lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of a byte slice — the checksum sealing every checkpoint
/// record. Computed slice-by-8; the values are those of the bytewise
/// table algorithm (pinned against it by the tests below).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The field prefix every sealed line starts with.
const SEAL_PREFIX: &str = "{\"crc\":\"";

/// Seals a one-line JSON object with a leading CRC field.
///
/// `body` must be a single-line `{...}` object; the result is
/// `{"crc":"xxxxxxxx",<body without its leading brace>` where the checksum
/// covers exactly those remaining bytes. [`check`] is the inverse.
///
/// # Panics
///
/// Panics (debug) if `body` is not a braced single-line object.
pub fn seal(body: &str) -> String {
    debug_assert!(
        body.starts_with('{') && body.ends_with('}') && !body.contains('\n'),
        "seal() expects a one-line JSON object, got {body:?}"
    );
    let mut line = Vec::with_capacity(SEAL_PREFIX.len() + 10 + body.len());
    push_sealed(&mut line, |rest| rest.extend_from_slice(&body.as_bytes()[1..]));
    line.pop();
    String::from_utf8(line).expect("sealing a UTF-8 body adds only ASCII")
}

/// Appends one sealed line, newline included, to `out`: the same bytes as
/// `seal(body) + "\n"`, built in place. `rest` writes the body minus its
/// leading brace (closing brace included) straight into `out`; the CRC
/// field is reserved ahead of it and filled in afterwards, so the body is
/// never copied. Pre-size `out` and the whole line is one allocation.
pub fn push_sealed(out: &mut Vec<u8>, rest: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(SEAL_PREFIX.as_bytes());
    let crc_at = out.len();
    out.extend_from_slice(b"00000000\",");
    let body_at = out.len();
    rest(out);
    debug_assert!(
        out[body_at..].ends_with(b"}") && !out[body_at..].contains(&b'\n'),
        "push_sealed() expects the rest of a one-line JSON object"
    );
    let crc = crc32(&out[body_at..]);
    for (i, digit) in out[crc_at..crc_at + 8].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[((crc >> (28 - 4 * i)) & 0xF) as usize];
    }
    out.push(b'\n');
}

/// Why a sealed line failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The line does not start with a `{"crc":"xxxxxxxx",` field.
    Unsealed,
    /// The stored checksum does not match the body.
    Mismatch,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::Unsealed => write!(f, "record carries no CRC seal"),
            SealError::Mismatch => write!(f, "record body does not match its CRC"),
        }
    }
}

/// Validates a line produced by [`seal`]. The line still contains every
/// original field (plus `crc`), so callers keep scanning it as before.
///
/// # Errors
///
/// [`SealError::Unsealed`] when the CRC prefix is absent or malformed,
/// [`SealError::Mismatch`] when the body was altered after sealing.
pub fn check(line: &str) -> Result<(), SealError> {
    let rest = line.strip_prefix(SEAL_PREFIX).ok_or(SealError::Unsealed)?;
    let (hex, body) = rest.split_at_checked(8).ok_or(SealError::Unsealed)?;
    let stored = u32::from_str_radix(hex, 16).map_err(|_| SealError::Unsealed)?;
    let body = body.strip_prefix("\",").ok_or(SealError::Unsealed)?;
    if crc32(body.as_bytes()) == stored {
        Ok(())
    } else {
        Err(SealError::Mismatch)
    }
}

/// What [`load_tolerant`] recovered from a checkpoint file.
#[derive(Debug, Default)]
pub struct JsonlLoad {
    /// Every line that passed [`check`], in file order.
    pub lines: Vec<String>,
    /// A final line with no terminating newline was dropped.
    pub torn_tail: bool,
    /// Complete lines dropped because the CRC seal was absent or wrong.
    pub dropped_crc: usize,
}

impl JsonlLoad {
    /// True when anything at all had to be dropped.
    pub fn lossy(&self) -> bool {
        self.torn_tail || self.dropped_crc > 0
    }
}

/// Reads a sealed JSONL file, tolerating the corruptions a crash produces:
/// a missing file loads as empty, a torn final line is dropped (and
/// flagged), and any line failing its CRC seal is dropped (and counted).
/// Empty lines are ignored.
///
/// # Errors
///
/// Propagates I/O errors other than `NotFound`.
pub fn load_tolerant(path: &Path) -> io::Result<JsonlLoad> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JsonlLoad::default()),
        Err(e) => return Err(e),
    };
    let mut out = JsonlLoad::default();
    let mut body = text.as_str();
    if !text.is_empty() && !text.ends_with('\n') {
        // A crash mid-append: everything after the last newline is the torn
        // tail. Complete lines before it are still good.
        out.torn_tail = true;
        body = match text.rfind('\n') {
            Some(nl) => &text[..=nl],
            None => "",
        };
    }
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        match check(line) {
            Ok(()) => out.lines.push(line.to_string()),
            Err(_) => out.dropped_crc += 1,
        }
    }
    Ok(out)
}

/// The temp path [`atomic_write`] stages through (same directory as the
/// target, so the rename cannot cross filesystems).
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Replaces `path` with `bytes` atomically: write a sibling temp file, fsync
/// it, rename over the target. A crash at any point leaves the old file or
/// the complete new one.
///
/// # Errors
///
/// Propagates filesystem errors (the temp file is cleaned up on failure).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table algorithm the slice-by-8 [`crc32`] replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |c, &b| {
            CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_bytewise() {
        // Pseudo-random bytes from a fixed LCG: every length 0..=257 (each
        // tail length 0..8 after each count of whole 8-byte chunks), then
        // sub-slices that start off an 8-byte boundary.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        for len in 0..=257 {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len {len}");
        }
        for start in 1..16 {
            for end in (start..data.len()).step_by(7) {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_bytewise(s), "{start}..{end}");
            }
        }
    }

    #[test]
    fn seal_check_roundtrip() {
        let line = seal(r#"{"v":2,"key":"a","data":"00ff"}"#);
        assert!(line.starts_with(SEAL_PREFIX), "{line}");
        assert!(line.contains("\"key\":\"a\""), "original fields survive: {line}");
        check(&line).expect("sealed line validates");
    }

    #[test]
    fn check_rejects_tampering() {
        let line = seal(r#"{"v":2,"key":"a","data":"00ff"}"#);
        let flipped = line.replace("00ff", "01ff");
        assert_eq!(check(&flipped), Err(SealError::Mismatch));
        assert_eq!(check("{\"v\":2}"), Err(SealError::Unsealed));
        assert_eq!(check(""), Err(SealError::Unsealed));
        assert_eq!(check("{\"crc\":\"zzzzzzzz\",\"v\":2}"), Err(SealError::Unsealed));
        // Truncated mid-prefix.
        assert_eq!(check(&line[..10]), Err(SealError::Unsealed));
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppf-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn load_tolerant_drops_torn_tail_and_bad_crc() {
        let path = tmp("torn");
        let good1 = seal(r#"{"k":"a"}"#);
        let good2 = seal(r#"{"k":"b"}"#);
        let bad = seal(r#"{"k":"c"}"#).replace("\"c\"", "\"X\"");
        let torn = &good2[..good2.len() - 4];
        fs::write(&path, format!("{good1}\n{bad}\n{good2}\n{torn}")).unwrap();
        let load = load_tolerant(&path).unwrap();
        assert_eq!(load.lines, vec![good1, good2]);
        assert!(load.torn_tail);
        assert_eq!(load.dropped_crc, 1);
        assert!(load.lossy());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_tolerant_missing_file_is_empty() {
        let load = load_tolerant(&tmp("never-written")).unwrap();
        assert!(load.lines.is_empty());
        assert!(!load.lossy());
    }

    #[test]
    fn load_tolerant_single_torn_line() {
        let path = tmp("only-torn");
        fs::write(&path, "{\"crc\":\"0000").unwrap();
        let load = load_tolerant(&path).unwrap();
        assert!(load.lines.is_empty());
        assert!(load.torn_tail);
        assert_eq!(load.dropped_crc, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = tmp("atomic");
        atomic_write(&path, b"first\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\n");
        atomic_write(&path, b"second\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second\n");
        assert!(!staging_path(&path).exists(), "staging file cleaned up");
        let _ = fs::remove_file(&path);
    }
}
