//! Typed errors for the experiment engine's production paths.
//!
//! Everything that used to panic between "parse the CLI" and "render the
//! table" now surfaces as an [`EngineError`], so one bad cell — a corrupt
//! cache entry nobody can reparse, a diverged training, a panicking job —
//! fails *that cell* and the suite keeps the work every other cell
//! finished. The taxonomy mirrors the failure domains of the stack:
//!
//! - [`EngineError::Io`] — the filesystem said no (after bounded
//!   retries for transient classes, see [`crate::exp::faults::retry_io`]).
//! - [`EngineError::CorruptCache`] — an artifact or journal entry failed
//!   its checksum/structure checks *and* could not be healed by
//!   recomputation in this run.
//! - [`EngineError::LockTimeout`] — a claim-file holder outlived the
//!   engine's bounded lock wait (replaces PR 6's infinite polling).
//! - [`EngineError::TrainDivergence`] — the existing
//!   [`eos_nn::TrainError`] (non-finite loss), carried instead of the
//!   release-mode panic `train_epochs` raises.
//! - [`EngineError::TaskPanic`] — a scheduler job panicked; the payload
//!   message is captured per task instead of resume-unwinding the batch.
//! - [`EngineError::Cells`] — a table's roll-up: which cells failed and
//!   why, with every *successful* sibling already journaled on disk.

use eos_nn::TrainError;
use std::fmt;
use std::io;
use std::time::Duration;

/// One failed experiment cell inside a table roll-up.
#[derive(Debug)]
pub struct CellFailure {
    /// Cell label, `table/job` (e.g. `table2/celeba/Ce`).
    pub cell: String,
    /// What took the cell down.
    pub error: EngineError,
}

/// A typed failure on the experiment engine's production path.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem failure that survived the bounded retry policy.
    Io {
        /// What was being attempted (`"cache read 0xfp"`, ...).
        what: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A cache or journal entry whose bytes cannot be trusted and whose
    /// recomputation is not possible in this context.
    CorruptCache {
        /// Which entry (path or cell label).
        what: String,
        /// The structural check that failed.
        detail: String,
    },
    /// The bounded wait for another worker's claim lock expired.
    LockTimeout {
        /// The backbone fingerprint being waited on.
        fp: u64,
        /// How long the engine waited before giving up.
        waited: Duration,
    },
    /// Backbone or head training produced a non-finite loss.
    TrainDivergence {
        /// What was training (`"backbone 0xfp"`, ...).
        what: String,
        /// The structured divergence record from the trainer.
        source: TrainError,
    },
    /// A scheduler task panicked; the batch survived, this cell did not.
    TaskPanic {
        /// Cell label of the panicking task.
        label: String,
        /// The panic payload, downcast to a string where possible.
        message: String,
    },
    /// A table's aggregate failure: every cell that did not complete.
    Cells {
        /// Which table.
        table: &'static str,
        /// The failed cells, in job order.
        failures: Vec<CellFailure>,
    },
}

impl EngineError {
    /// Wraps an [`io::Error`] with what was being attempted.
    pub fn io(what: impl Into<String>, source: io::Error) -> Self {
        EngineError::Io {
            what: what.into(),
            source,
        }
    }

    /// A corrupt-entry error for `what` with a structural `detail`.
    pub fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Self {
        EngineError::CorruptCache {
            what: what.into(),
            detail: detail.into(),
        }
    }

    /// Short lower-case tag naming the variant (stable, used by the
    /// failure report and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::Io { .. } => "io",
            EngineError::CorruptCache { .. } => "corrupt-cache",
            EngineError::LockTimeout { .. } => "lock-timeout",
            EngineError::TrainDivergence { .. } => "train-divergence",
            EngineError::TaskPanic { .. } => "task-panic",
            EngineError::Cells { .. } => "cells",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io { what, source } => write!(f, "io error during {what}: {source}"),
            EngineError::CorruptCache { what, detail } => {
                write!(f, "corrupt cache entry {what}: {detail}")
            }
            EngineError::LockTimeout { fp, waited } => write!(
                f,
                "timed out after {:.1}s waiting for the claim on backbone {fp:016x}",
                waited.as_secs_f64()
            ),
            EngineError::TrainDivergence { what, source } => {
                write!(f, "training diverged in {what}: {source}")
            }
            EngineError::TaskPanic { label, message } => {
                write!(f, "task '{label}' panicked: {message}")
            }
            EngineError::Cells { table, failures } => {
                write!(f, "{table}: {} cell(s) failed", failures.len())?;
                for fail in failures {
                    write!(
                        f,
                        "\n  {} :: [{}] {}",
                        fail.cell,
                        fail.error.kind(),
                        fail.error
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            EngineError::TrainDivergence { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Prints the structured failure report the suite emits for a failed
/// table before exiting nonzero. Completed cells stay journaled — the
/// report says so, because the whole point is that a rerun resumes.
pub fn report_failure(tag: &str, err: &EngineError) {
    eprintln!("[{tag}] FAILURE REPORT");
    match err {
        EngineError::Cells { table, failures } => {
            eprintln!("[{tag}]   {table}: {} cell(s) failed:", failures.len());
            for fail in failures {
                eprintln!(
                    "[{tag}]     {} :: [{}] {}",
                    fail.cell,
                    fail.error.kind(),
                    fail.error
                );
            }
        }
        other => eprintln!("[{tag}]   [{}] {other}", other.kind()),
    }
    eprintln!("[{tag}]   completed cells are journaled; rerun to resume from them");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        let io = EngineError::io("cache read", io::Error::other("disk on fire"));
        assert!(io.to_string().contains("cache read"));
        assert!(io.to_string().contains("disk on fire"));
        assert_eq!(io.kind(), "io");

        let corrupt = EngineError::corrupt("bb_0001.eosc", "checksum mismatch");
        assert!(corrupt.to_string().contains("checksum mismatch"));
        assert_eq!(corrupt.kind(), "corrupt-cache");

        let timeout = EngineError::LockTimeout {
            fp: 0xdead,
            waited: Duration::from_secs(3),
        };
        assert!(timeout.to_string().contains("000000000000dead"));
        assert_eq!(timeout.kind(), "lock-timeout");

        let panic = EngineError::TaskPanic {
            label: "table2/svhn/Ce".into(),
            message: "boom".into(),
        };
        assert!(panic.to_string().contains("table2/svhn/Ce"));
        assert_eq!(panic.kind(), "task-panic");

        let cells = EngineError::Cells {
            table: "fig6",
            failures: vec![CellFailure {
                cell: "fig6/SMOTE".into(),
                error: panic,
            }],
        };
        let text = cells.to_string();
        assert!(text.contains("fig6") && text.contains("task-panic") && text.contains("boom"));
        assert_eq!(cells.kind(), "cells");
    }
}
