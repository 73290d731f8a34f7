//! # eos-bench
//!
//! Experiment harness for the reproduction: shared CLI argument handling,
//! dataset preparation, the spec-driven experiment engine with its
//! content-addressed backbone cache ([`exp`]), the table/figure registry
//! ([`tables::ALL`]) that the `suite` binary runs (`--only table1,fig3`
//! picks entries), plus report formatting.
//!
//! `suite` accepts `--scale smoke|small|medium`, `--seed N`,
//! `--datasets a,b,c`, `--only t,u` and `--no-cache`; each table prints
//! a markdown table mirroring the paper's layout and writes its CSVs
//! under `results/`. Reruns serve every backbone from the artifact cache
//! and produce byte-identical output.

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
pub use report::MarkdownTable;
pub use runner::{prepared_dataset, samplers_for_table2};
pub use timing::{bench, bench_stats, format_duration, percentile, BenchStats, JsonRecord};
