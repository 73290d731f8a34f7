//! # eos-bench
//!
//! Experiment harness for the reproduction: shared CLI argument handling,
//! dataset preparation, the spec-driven experiment engine with its
//! content-addressed backbone cache ([`exp`]), the table/figure modules
//! ([`tables`]) behind the per-experiment binaries (`table1` … `table5`,
//! `fig3` … `fig7`, `runtime`, `pixel_eos`, …) and the all-in-one `suite`
//! runner, plus report formatting.
//!
//! Every binary accepts `--scale smoke|small|medium`, `--seed N`,
//! `--datasets a,b,c` and `--no-cache`, prints a markdown table mirroring
//! the paper's layout, and writes a CSV under `results/`. Reruns serve
//! every backbone from the artifact cache and produce byte-identical
//! output.

pub mod args;
pub mod exp;
pub mod host;
pub mod report;
pub mod runner;
pub mod tables;
pub mod timing;

pub use args::Args;
pub use exp::{ArtifactCache, BackbonePlan, Engine, EngineError, ExperimentSpec, SamplerSpec};
pub use host::{host_cores, record_host_facts};
pub use report::{write_csv, MarkdownTable};
pub use runner::{prepared_dataset, samplers_for_table2};
pub use timing::{bench, bench_stats, format_duration, percentile, BenchStats, JsonRecord};
