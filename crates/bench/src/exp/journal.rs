//! Crash-safe per-cell results journal.
//!
//! The backbone cache makes reruns cheap; the journal makes them
//! *resumable*: every completed experiment cell stores its output rows
//! under a fingerprint of everything that determines them (`journal/v1`
//! over table, cell label, scale and master seed), one file per cell
//! under `<cache>/journal/`. A rerun of the suite replays journaled
//! cells instead of recomputing them, so a run killed mid-suite picks up
//! where it died and its completed output is byte-identical to an
//! uninterrupted run.
//!
//! The store is append-only in the unit of cells: files are only ever
//! added (each written atomically via [`eos_trace::write_atomic`], so a
//! crash mid-store leaves at most an orphan temp file, never a torn
//! entry). Cell outputs are the *strings* the tables render — already
//! deterministic and formatted — so replay cannot shift a digit. Numeric
//! side-channel values (fig7 learning curves, the pixel-EOS headline
//! BAC) cross the journal as the 16-hex-digit bit pattern of their
//! `f64`, decoded exactly on replay.
//!
//! Entries are [`eos_tensor::record`] sealed records whose body is
//!
//! ```text
//! u64 fp | u64 n_rows | n_rows x ( u64 n_cells, n_cells x ( u64 len, bytes ) )
//! ```
//!
//! A truncated, bit-flipped or structurally impossible entry fails its
//! load with `Err`; callers treat that as "not journaled" and recompute
//! — identical bits, since cells derive their RNG from their spec
//! fingerprint, not from the journal.

use eos_tensor::record::{invalid, open, seal, Fnv};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"EOSJ";
const VERSION: u32 = 1;

/// One cell's output: the rows it contributes to its table, each a list
/// of already-formatted strings.
pub type Rows = Vec<Vec<String>>;

/// Fingerprint identifying one cell's journal entry: the table, the cell
/// label within it, and the run identity (scale, seed). Versioned so a
/// row-format change orphans old entries instead of misreading them.
pub fn cell_fingerprint(table: &str, label: &str, scale: &str, seed: u64) -> u64 {
    let mut h = Fnv::new();
    h.str("journal/v1")
        .str(table)
        .str(label)
        .str(scale)
        .u64(seed);
    h.finish()
}

/// The journal rooted at one directory (conventionally
/// `<cache>/journal/`).
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// Journal rooted at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Journal { dir: dir.into() }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for cell fingerprint `fp`.
    pub fn cell_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("cell_{fp:016x}.eosj"))
    }

    /// Stores one cell's rows under `fp`, atomically. Returns the entry
    /// size in bytes.
    pub fn store(&self, fp: u64, rows: &Rows) -> io::Result<u64> {
        let payload = seal(MAGIC, VERSION, |w| {
            w.u64(fp).u64(rows.len() as u64);
            for row in rows {
                w.u64(row.len() as u64);
                for cell in row {
                    w.u64(cell.len() as u64).bytes(cell.as_bytes());
                }
            }
        });
        std::fs::create_dir_all(&self.dir)?;
        eos_trace::write_atomic(&self.cell_path(fp), &payload)?;
        Ok(payload.len() as u64)
    }

    /// Loads the entry stored under `fp`. `Ok(None)` means the cell was
    /// never journaled; `Err` means an entry exists but cannot be
    /// trusted — the caller recomputes in both cases.
    pub fn load(&self, fp: u64) -> io::Result<Option<Rows>> {
        let path = self.cell_path(fp);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Some(parse(fp, &bytes)?))
    }
}

fn parse(fp: u64, bytes: &[u8]) -> io::Result<Rows> {
    let mut r = open(bytes, MAGIC, VERSION)?;
    if r.u64()? != fp {
        return Err(invalid(
            "fingerprint mismatch (entry stored under wrong name)",
        ));
    }
    let n_rows = r.u64()?;
    let mut rows = Vec::new();
    for _ in 0..n_rows {
        let n_cells = r.u64()?;
        let mut row = Vec::new();
        for _ in 0..n_cells {
            let len = r.u64()? as usize;
            let text = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| invalid("cell text is not UTF-8"))?;
            row.push(text.to_owned());
        }
        rows.push(row);
    }
    r.end("the row block")?;
    Ok(rows)
}

/// Encodes an `f64` as its exact 16-hex-digit bit pattern for a journal
/// row, so replayed values are bit-identical to computed ones.
pub fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decodes [`enc_f64`]'s encoding. `Err` means the row does not carry a
/// bit pattern — a version-skewed or hand-edited entry.
pub fn dec_f64(s: &str) -> io::Result<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| invalid(format!("'{s}' is not an f64 bit pattern")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> Journal {
        let dir = std::env::temp_dir().join(format!("eos_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Journal::at(dir)
    }

    fn sample_rows() -> Rows {
        vec![
            vec!["EOS".into(), "0.731".into(), "+4.2".into()],
            vec!["SMOTE".into(), "".into(), "naïve-utf8 ✓".into()],
            vec![],
        ]
    }

    #[test]
    fn roundtrip_preserves_rows_exactly() {
        let j = temp_journal("roundtrip");
        let fp = cell_fingerprint("table2", "celeba/Ce", "smoke", 42);
        assert!(j.load(fp).unwrap().is_none(), "fresh journal is empty");
        let rows = sample_rows();
        let stored = j.store(fp, &rows).unwrap();
        assert!(stored > 0);
        assert_eq!(j.load(fp).unwrap().unwrap(), rows);
        let _ = std::fs::remove_dir_all(j.dir());
    }

    #[test]
    fn corrupt_entries_fail_loudly_not_fatally() {
        let j = temp_journal("corrupt");
        let fp = 7;
        j.store(fp, &sample_rows()).unwrap();
        let path = j.cell_path(fp);
        let good = std::fs::read(&path).unwrap();
        let kind = |bytes: &[u8]| parse(fp, bytes).unwrap_err().kind();
        for cut in 0..good.len() {
            assert_eq!(
                kind(&good[..cut]),
                io::ErrorKind::InvalidData,
                "cut at {cut}"
            );
        }
        for pos in 0..good.len() {
            let mut flipped = good.clone();
            flipped[pos] ^= 1 << (pos % 8);
            assert_eq!(kind(&flipped), io::ErrorKind::InvalidData, "flip at {pos}");
        }
        // Through the file API: a torn file fails, the intact one loads,
        // and an entry stored under the wrong fingerprint is rejected.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(j.load(fp).is_err());
        std::fs::write(&path, &good).unwrap();
        assert!(j.load(fp).unwrap().is_some());
        std::fs::rename(&path, j.cell_path(8)).unwrap();
        assert!(j.load(8).is_err());
        let _ = std::fs::remove_dir_all(j.dir());
    }

    #[test]
    fn fingerprint_separates_cells_and_runs() {
        let base = cell_fingerprint("table2", "celeba/Ce", "smoke", 42);
        assert_eq!(base, cell_fingerprint("table2", "celeba/Ce", "smoke", 42));
        assert_ne!(base, cell_fingerprint("table3", "celeba/Ce", "smoke", 42));
        assert_ne!(base, cell_fingerprint("table2", "celeba/Ldam", "smoke", 42));
        assert_ne!(base, cell_fingerprint("table2", "celeba/Ce", "small", 42));
        assert_ne!(base, cell_fingerprint("table2", "celeba/Ce", "smoke", 43));
    }

    #[test]
    fn f64_bits_round_trip() {
        for v in [0.0, -0.0, 1.5, -3.25e300, f64::MIN_POSITIVE, f64::NAN] {
            let back = dec_f64(&enc_f64(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(dec_f64("not-hex").is_err());
        assert!(dec_f64("0.731").is_err());
    }

    #[test]
    fn fingerprint_and_record_bytes_are_pinned() {
        let j = temp_journal("pinned");
        let fp = cell_fingerprint("table2", "celeba/Ce", "smoke", 42);
        j.store(fp, &sample_rows()).unwrap();
        let bytes = std::fs::read(j.cell_path(fp)).unwrap();
        assert_eq!(fp, 0x00dc7e6344314d94);
        assert_eq!(bytes.len(), 136);
        assert_eq!(eos_tensor::record::fnv1a(&bytes), 0xd09c53813b0e6bcb);
        let _ = std::fs::remove_dir_all(j.dir());
    }
}
