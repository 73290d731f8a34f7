//! End-to-end and per-layer benchmark of the EOS reproduction.
//!
//! Four workloads, each run in its own process: `train` (phase-1
//! backbone steps), `heads` (phases 2+3 as every table cell runs them),
//! `oversample` (pixel-space over-sampling) and `serve` (batched
//! inference under a closed loop). An untraced run reports the shared
//! end-to-end metrics of one workload; a traced run repeats every
//! workload with each public call into a layer timed from here, and
//! reports the per-layer metrics. See `README.md` for the design.

pub mod host;
pub mod rebuild;
pub mod report;
pub mod workloads;

/// Workload names, in the order the traced run visits them.
pub const WORKLOADS: [&str; 4] = ["train", "heads", "oversample", "serve"];

/// The workloads `BENCHMARK.json` keeps, which `--workload all` runs.
/// `heads` and `serve` are left out as unsteady; they still run by name,
/// and the traced run measures their layers.
pub const KEPT: [&str; 2] = ["train", "oversample"];

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds one untraced run measures (the traced run splits this
    /// across its workloads).
    pub seconds: f64,
}
