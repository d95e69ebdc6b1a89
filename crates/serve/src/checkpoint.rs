//! Per-shard crash-safe weight checkpoints.
//!
//! Each shard owns one append-only JSONL file, `shard-<k>.jsonl`, of
//! CRC-sealed records (the same seal the sweep checkpoints use, see
//! `ppf_bench::ckpt`):
//!
//! ```text
//! {"crc":"xxxxxxxx","v":1,"tenant":"t003-619.lbm_s","gen":4,"weights":"<hex>"}
//! ```
//!
//! Appends go through the shard's single worker thread, so the file has one
//! writer in the steady state. The interesting failure is a *replaced*
//! shard: the supervisor abandons a stalled worker rather than joining it,
//! and the zombie may wake up mid-append and interleave bytes with its
//! replacement. The CRC seal turns that from silent corruption into a
//! dropped record; the torn-tail rule covers a crash mid-append. Recovery
//! is last-record-wins per tenant, mirroring the sweep's resume discipline.
//!
//! Compaction (rewriting the file to one record per tenant) uses the
//! sibling-tmp + rename pattern, so a crash mid-compaction leaves either
//! the old file or the new one, never a hybrid.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use ppf_bench::ckpt;

/// Schema version tag for serve checkpoint records.
pub const SCHEMA_VERSION: u32 = 1;

/// A tenant's restored state: checkpoint generation and weight snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredTenant {
    /// Monotonic checkpoint generation (per tenant).
    pub gen: u64,
    /// Raw weight bytes for [`ppf::PpfFilter::warm_start`].
    pub weights: Vec<u8>,
}

/// What a checkpoint load recovered, plus what it had to drop.
#[derive(Debug, Default)]
pub struct Restored {
    /// Last-wins tenant snapshots.
    pub tenants: HashMap<String, RestoredTenant>,
    /// Records dropped: torn tail, failed CRC, or unparseable body.
    pub dropped: u64,
}

/// Handle to one shard's checkpoint file.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    path: PathBuf,
}

/// Two lowercase hex digits per byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0xF]];
        b += 1;
    }
    pairs
};

/// Marks a byte that is not an ASCII hex digit in [`HEX_VALUES`].
const NOT_HEX: u8 = 0xFF;

/// Nibble value of every byte: `0..=15` for `[0-9a-fA-F]`, [`NOT_HEX`]
/// for everything else (signs, whitespace, every non-ASCII byte).
const HEX_VALUES: [u8; 256] = {
    let mut values = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        values[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        values[b'a' as usize + i] = 10 + i as u8;
        values[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    values
};

/// Appends the lowercase hex of `bytes` to `out`.
fn hex_encode(out: &mut Vec<u8>, bytes: &[u8]) {
    let start = out.len();
    out.resize(start + 2 * bytes.len(), 0);
    for (pair, &b) in out[start..].chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
    }
}

/// Decodes hex digits (either case) to bytes. `None` for an odd length or
/// any byte outside `[0-9a-fA-F]`; never panics.
fn hex_decode(hex: &[u8]) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    hex.chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (HEX_VALUES[usize::from(pair[0])], HEX_VALUES[usize::from(pair[1])]);
            (hi != NOT_HEX && lo != NOT_HEX).then_some(hi << 4 | lo)
        })
        .collect()
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String =
        line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

impl ShardCheckpoint {
    /// Checkpoint file for shard `idx` under `dir`.
    pub fn new(dir: &Path, idx: usize) -> Self {
        Self { path: dir.join(format!("shard-{idx}.jsonl")) }
    }

    /// The file's path (for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Upper bound on a record line's length beyond its tenant name and
    /// weights hex: the CRC field, keys, quotes, braces, a 20-digit `gen`,
    /// a 10-digit `v` and the newline.
    const RECORD_OVERHEAD: usize = 96;

    /// Capacity that holds a whole sealed record line without regrowing.
    fn record_capacity(tenant: &str, weights: &[u8]) -> usize {
        Self::RECORD_OVERHEAD + tenant.len() + 2 * weights.len()
    }

    /// Appends one sealed record line, newline included, to `out`.
    fn push_record(out: &mut Vec<u8>, tenant: &str, gen: u64, weights: &[u8]) {
        debug_assert!(
            !tenant.contains(['"', '\\', '\n']),
            "tenant names are t<idx>-<workload>, no escaping needed"
        );
        ckpt::push_sealed(out, |rest| {
            write!(
                rest,
                "\"v\":{SCHEMA_VERSION},\"tenant\":\"{tenant}\",\"gen\":{gen},\"weights\":\""
            )
            .expect("writing to a Vec cannot fail");
            hex_encode(rest, weights);
            rest.extend_from_slice(b"\"}");
        });
    }

    /// Appends one sealed record. With `bitflip`, a single bit of the
    /// written weights hex is flipped *after* sealing — the chaos drill's
    /// stand-in for storage corruption, guaranteed to fail the CRC check
    /// on the next load.
    pub fn append(
        &self,
        tenant: &str,
        gen: u64,
        weights: &[u8],
        bitflip: bool,
    ) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut line = Vec::with_capacity(Self::record_capacity(tenant, weights));
        Self::push_record(&mut line, tenant, gen, weights);
        if bitflip {
            // Flip one bit in the last weights nibble, the byte before the
            // closing `"}\n` (safely inside the sealed region, so
            // `ckpt::check` must reject the record).
            let at = line.len() - "\"}\n".len() - 1;
            line[at] ^= 0x02;
        }
        let mut f = OpenOptions::new().create(true).append(true).open(&self.path)?;
        f.write_all(&line)?;
        f.sync_all()
    }

    /// Loads the file tolerantly: a torn trailing line and CRC-failing
    /// records are dropped (and counted), complete records apply
    /// last-wins per tenant. A missing file is an empty fleet.
    pub fn load(&self) -> Restored {
        let loaded = match ckpt::load_tolerant(&self.path) {
            Ok(l) => l,
            Err(e) => {
                // Fail open: an unreadable file is an empty fleet, not a
                // crashed daemon.
                eprintln!("[serve] {}: checkpoint load failed: {e}", self.path.display());
                return Restored::default();
            }
        };
        let dropped = loaded.dropped_crc as u64 + u64::from(loaded.torn_tail);
        let mut out = Restored { tenants: HashMap::new(), dropped };
        for line in &loaded.lines {
            let parsed = (|| {
                let v = num_field(line, "v")?;
                if v != u64::from(SCHEMA_VERSION) {
                    return None;
                }
                let tenant = str_field(line, "tenant")?.to_string();
                let gen = num_field(line, "gen")?;
                let weights = hex_decode(str_field(line, "weights")?.as_bytes())?;
                Some((tenant, RestoredTenant { gen, weights }))
            })();
            match parsed {
                Some((tenant, restored)) => {
                    out.tenants.insert(tenant, restored);
                }
                None => out.dropped += 1,
            }
        }
        out
    }

    /// Rewrites the file to one sealed record per tenant, atomically
    /// (sibling tmp + rename). Bounds file growth across long runs.
    pub fn compact(
        &self,
        tenants: &HashMap<String, RestoredTenant>,
    ) -> std::io::Result<()> {
        let mut names: Vec<&String> = tenants.keys().collect();
        names.sort();
        let capacity =
            names.iter().map(|name| Self::record_capacity(name, &tenants[*name].weights)).sum();
        let mut text = Vec::with_capacity(capacity);
        for name in names {
            let t = &tenants[name];
            Self::push_record(&mut text, name, t.gen, &t.weights);
        }
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        ckpt::atomic_write(&self.path, &text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ppf-serve-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_load_round_trips_last_wins() {
        let dir = tmpdir("roundtrip");
        let ck = ShardCheckpoint::new(&dir, 0);
        ck.append("t000-a", 1, &[1, 2, 3], false).unwrap();
        ck.append("t001-b", 1, &[9, 8], false).unwrap();
        ck.append("t000-a", 2, &[4, 5, 6], false).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants["t000-a"], RestoredTenant { gen: 2, weights: vec![4, 5, 6] });
        assert_eq!(r.tenants["t001-b"].weights, vec![9, 8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflipped_record_is_dropped_not_trusted() {
        let dir = tmpdir("bitflip");
        let ck = ShardCheckpoint::new(&dir, 1);
        ck.append("t000-a", 1, &[1, 2, 3], false).unwrap();
        ck.append("t000-a", 2, &[7, 7, 7], true).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 1, "the corrupted generation fails its seal");
        assert_eq!(
            r.tenants["t000-a"].gen, 1,
            "recovery falls back to the last intact generation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir("torn");
        let ck = ShardCheckpoint::new(&dir, 2);
        ck.append("t000-a", 1, &[1], false).unwrap();
        ck.append("t000-a", 2, &[2], false).unwrap();
        let text = std::fs::read_to_string(ck.path()).unwrap();
        std::fs::write(ck.path(), &text[..text.len() - 5]).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.tenants["t000-a"].gen, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_state_and_shrinks_file() {
        let dir = tmpdir("compact");
        let ck = ShardCheckpoint::new(&dir, 3);
        for gen in 1..=10 {
            ck.append("t000-a", gen, &[gen as u8; 16], false).unwrap();
        }
        let before = std::fs::metadata(ck.path()).unwrap().len();
        let r = ck.load();
        ck.compact(&r.tenants).unwrap();
        let after = std::fs::metadata(ck.path()).unwrap().len();
        assert!(after < before);
        let r2 = ck.load();
        assert_eq!(r2.dropped, 0);
        assert_eq!(r2.tenants["t000-a"], r.tenants["t000-a"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sealed line the pre-table encoder (per-byte `format!` hex,
    /// bytewise CRC) wrote for tenant `t003-619.lbm_s`, gen 4, weights
    /// `0..=255`. Existing `shard-*.jsonl` files hold lines of exactly this
    /// shape; if this literal stops matching, they stop warm-starting.
    const GOLDEN_RECORD: &str = concat!(
        r#"{"crc":"6f55099d","v":1,"tenant":"t003-619.lbm_s","gen":4,"weights":""#,
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f",
        "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f",
        "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f",
        "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f",
        "a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf",
        "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedf",
        "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
        "\"}\n",
    );

    #[test]
    fn record_bytes_on_disk_are_unchanged() {
        let weights: Vec<u8> = (0..=255).collect();
        let dir = tmpdir("golden");
        let ck = ShardCheckpoint::new(&dir, 0);
        ck.append("t003-619.lbm_s", 4, &weights, false).unwrap();
        assert_eq!(std::fs::read_to_string(ck.path()).unwrap(), GOLDEN_RECORD);
        let r = ck.load();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.tenants["t003-619.lbm_s"], RestoredTenant { gen: 4, weights });

        // Compaction and the bit-flip drill write the same bytes as before
        // too (literals from the pre-table encoder).
        let tenants = HashMap::from([
            ("t001-b".to_string(), RestoredTenant { gen: 9, weights: vec![0xde, 0xad] }),
            ("t000-a".to_string(), RestoredTenant { gen: u64::MAX, weights: vec![] }),
        ]);
        let compacted = ShardCheckpoint::new(&dir, 1);
        compacted.compact(&tenants).unwrap();
        assert_eq!(
            std::fs::read_to_string(compacted.path()).unwrap(),
            concat!(
                r#"{"crc":"049d69a0","v":1,"tenant":"t000-a","gen":18446744073709551615,"weights":""}"#,
                "\n",
                r#"{"crc":"01038a1d","v":1,"tenant":"t001-b","gen":9,"weights":"dead"}"#,
                "\n",
            )
        );
        assert_eq!(compacted.load().tenants, tenants);
        let flipped = ShardCheckpoint::new(&dir, 2);
        flipped.append("t003-619.lbm_s", 5, &[0, 1, 2], true).unwrap();
        flipped.append("t000-a", 1, &[], true).unwrap();
        assert_eq!(
            std::fs::read_to_string(flipped.path()).unwrap(),
            concat!(
                r#"{"crc":"93f33880","v":1,"tenant":"t003-619.lbm_s","gen":5,"weights":"000100"}"#,
                "\n",
                r#"{"crc":"bbe6e888","v":1,"tenant":"t000-a","gen":1,"weights": "}"#,
                "\n",
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_capacity_covers_the_longest_line() {
        for (tenant, weights) in [("", &[][..]), ("t999-657.xz_s", &[0xAB; 300][..])] {
            let mut line = Vec::with_capacity(ShardCheckpoint::record_capacity(tenant, weights));
            let reserved = line.capacity();
            ShardCheckpoint::push_record(&mut line, tenant, u64::MAX, weights);
            assert_eq!(line.capacity(), reserved, "the line never regrows");
        }
    }

    #[test]
    fn hex_decode_rejects_non_hex_bytes_without_panicking() {
        // `u8::from_str_radix` accepted a sign ("+b" is 11) and slicing a
        // `&str` two bytes at a time panicked inside a multi-byte char.
        assert_eq!(hex_decode(b"0a+b"), None);
        assert_eq!(hex_decode("aéb".as_bytes()), None);
        assert_eq!(hex_decode(b"0a-b"), None);
        assert_eq!(hex_decode(b" 0ab"), None);
        assert_eq!(hex_decode(b"0aB"), None, "odd length");
        assert_eq!(hex_decode(b"0aBf"), Some(vec![0x0a, 0xbf]), "either case");
        assert_eq!(hex_decode(b""), Some(vec![]));

        // A record with such weights passes its CRC seal but not its
        // parse: load drops and counts it.
        let dir = tmpdir("badhex");
        let ck = ShardCheckpoint::new(&dir, 0);
        ck.append("t000-a", 1, &[7], false).unwrap();
        let mut text = std::fs::read_to_string(ck.path()).unwrap();
        for (gen, hex) in [(2, "0a+b"), (3, "aéb")] {
            let body = format!(r#"{{"v":1,"tenant":"t000-a","gen":{gen},"weights":"{hex}"}}"#);
            text.push_str(&ckpt::seal(&body));
            text.push('\n');
        }
        std::fs::write(ck.path(), text).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 2);
        assert_eq!(r.tenants["t000-a"], RestoredTenant { gen: 1, weights: vec![7] });
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn hex_round_trips(bytes in collection::vec(any::<u8>(), 0..600)) {
            let mut hex = b"prefix".to_vec();
            hex_encode(&mut hex, &bytes);
            prop_assert_eq!(hex_decode(&hex[b"prefix".len()..]), Some(bytes));
        }
    }

    #[test]
    fn missing_file_is_an_empty_fleet() {
        let dir = tmpdir("missing");
        let r = ShardCheckpoint::new(&dir, 9).load();
        assert!(r.tenants.is_empty());
        assert_eq!(r.dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
