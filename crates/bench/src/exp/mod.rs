//! The spec-driven experiment engine.
//!
//! The paper's efficiency claim (§V-E2) rests on training one backbone
//! and reusing it across many oversampler evaluations. This module
//! extends that reuse across tables and across processes:
//!
//! - [`spec`] — declarative experiment cells ([`ExperimentSpec`]:
//!   dataset × loss × sampler × scale × seed) with stable FNV
//!   fingerprints. Every cell derives its own RNG stream from its
//!   fingerprint, so a cell's result depends only on its spec — not on
//!   which cells ran before it, and not on whether its backbone came out
//!   of the cache or a fresh training run.
//! - [`cache`] — a content-addressed on-disk artifact store under
//!   `results/cache/` holding trained backbone weights (EOSW encoding)
//!   plus the extracted train-set embeddings, checksummed so truncated
//!   or corrupt entries are detected and fall back to retraining.
//! - [`engine`] — the run-plan executor: memoises prepared datasets
//!   in-process, dedupes backbone trainings through the cache, exposes
//!   trace counters for hit/miss/bytes, and prints a summary the
//!   verification gates assert on. `Send + Sync`, so one engine serves
//!   every scheduler worker.
//! - [`sched`] — the two-level job scheduler: independent jobs run on
//!   worker threads, each holding a slice of the global thread budget
//!   for its inner op-level parallelism (`--jobs`); a panicking job
//!   fails its own slot, not the batch.
//! - [`error`] — the typed failure surface ([`EngineError`]): IO,
//!   corrupt cache, lock timeout, train divergence, task panic, and the
//!   per-table cell roll-up behind the suite's failure report.
//! - [`faults`] — deterministic fault injection (`EOS_FAULTS`) at the
//!   cache read/write/claim points, backbone training and cell
//!   boundaries, plus the bounded IO retry policy.
//! - [`journal`] — the crash-safe per-cell results journal: completed
//!   cells replay on rerun, so an interrupted suite resumes
//!   byte-identically instead of starting over.

pub mod cache;
pub mod engine;
pub mod error;
pub mod faults;
pub mod journal;
pub mod sched;
pub mod spec;

pub use cache::{ArtifactCache, ClaimGuard, GcReport};
pub use engine::{BackbonePlan, CellTask, Engine};
pub use error::{report_failure, CellFailure, EngineError};
pub use faults::{retry_io, FaultKind, FaultPlan, IO_ATTEMPTS};
pub use journal::{cell_fingerprint, dec_f64, enc_f64, Journal, Rows};
pub use sched::{job_budget, map_jobs, run_jobs, JobPanic};
pub use spec::{mix_rng, ExperimentSpec, SamplerSpec};
