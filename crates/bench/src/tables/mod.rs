//! Declarative table/figure reproductions over the experiment engine.
//!
//! Every table or figure of the paper is one entry of [`ALL`], the
//! registry `suite` runs (all of it, or the entries `--only` names):
//!
//! - `plan(&Args) -> Vec<BackbonePlan>` — the standard backbones the
//!   table needs, so the suite can collect the selected tables' plans,
//!   dedupe shared trainings and prewarm the cache before running
//!   anything. Derived backbones (oversampled pixel sets, the step
//!   ablation) are not in the plan; they still go through
//!   [`Engine::backbone`](crate::exp::Engine::backbone) inside `run` and
//!   are cached by dataset content like everything else.
//! - `run(&Engine, &Args)` — produces the table: prints the rendered
//!   markdown to stdout and writes the CSVs under `results/` ([`emit`]).
//!
//! Each experiment cell derives its RNG from its
//! [`ExperimentSpec`](crate::exp::ExperimentSpec) fingerprint, so CSV
//! output is byte-identical between cold and warm-cache runs — and, by
//! the same argument, between `--jobs 1` and `--jobs N`: the modules
//! split their work into independent group jobs (one backbone and its
//! dependent cells per job), hand them to [`run_cells`] (journal replay,
//! fault injection and typed errors on the job scheduler), and append
//! each job's returned [`Rows`] in input order. Only stderr progress
//! lines may interleave.
//!
//! `run` returns `Result<(), EngineError>`: failed cells are collected
//! into one [`EngineError::Cells`] per table after every surviving cell
//! has finished — and, because surviving cells are journaled, a rerun
//! recomputes only what failed.

pub mod ablations;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod gap_eos;
pub mod pixel_eos;
pub mod runtime;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::exp::{
    run_jobs, BackbonePlan, CellFailure, CellTask, Engine, EngineError, ExperimentSpec,
};
use crate::{Args, MarkdownTable};
use eos_data::Dataset;
use eos_nn::LossKind;
use eos_resample::balance_with;
use std::path::Path;

/// Table rows produced by one parallel group job, appended to the
/// markdown table in job-submission order (the journal's row type).
pub(crate) type Rows = crate::exp::Rows;

/// One paper table or figure: what `suite --only` selects.
pub struct Table {
    /// Selector name (`--only`) and failure-report tag.
    pub name: &'static str,
    /// The standard backbones the suite prewarms for it.
    pub plan: fn(&Args) -> Vec<BackbonePlan>,
    /// Produces it: stdout plus `results/<csv>.csv` for each of `csvs`.
    pub run: fn(&Engine, &Args) -> Result<(), EngineError>,
    /// The CSVs it writes, without the `.csv`.
    pub csvs: &'static [&'static str],
}

/// One [`ALL`] entry.
const fn table(
    name: &'static str,
    plan: fn(&Args) -> Vec<BackbonePlan>,
    run: fn(&Engine, &Args) -> Result<(), EngineError>,
    csvs: &'static [&'static str],
) -> Table {
    Table {
        name,
        plan,
        run,
        csvs,
    }
}

/// Every table in paper order. The run-time study comes last: it times
/// fresh trainings by design and its stdout carries wall-clock numbers,
/// so `--skip-runtime` drops it to keep byte-identity comparisons
/// meaningful.
pub const ALL: [Table; 14] = [
    table("table1", ce_per_dataset, table1::run, &["table1"]),
    table("table2", every_loss_per_dataset, table2::run, &["table2"]),
    table("table3", every_loss_per_dataset, table3::run, &["table3"]),
    table("table4", ce_per_dataset, table4::run, &["table4"]),
    table("table5", table5::plan, table5::run, &["table5"]),
    table("fig3", every_loss_per_dataset, fig3::run, &["fig3"]),
    table("fig4", ce_per_dataset, fig4::run, &["fig4"]),
    table("fig5", every_loss_per_dataset, fig5::run, &["fig5"]),
    table(
        "fig6",
        cifar10_ce,
        fig6::run,
        &["fig6_summary", "fig6_coords"],
    ),
    table("fig7", cifar10_ce, fig7::run, &["fig7"]),
    table("gap_eos", ce_per_dataset, gap_eos::run, &["gap_eos"]),
    table("pixel_eos", cifar10_ce, pixel_eos::run, &["pixel_eos"]),
    table(
        "ablations",
        cifar10_ce,
        ablations::run,
        &[
            "ablation_direction",
            "ablation_gap_definition",
            "ablation_decoupling",
        ],
    ),
    // Timing is its subject: it never touches the artifact cache.
    table(
        "runtime",
        |_| Vec::new(),
        |_, args| runtime::run(args),
        &["runtime_threading", "runtime"],
    ),
];

/// The tables `args` selects (`--only`, minus the run-time study under
/// `--skip-runtime`), in registry order.
pub fn selected(args: &Args) -> impl Iterator<Item = &'static Table> + '_ {
    ALL.iter()
        .filter(|t| args.only.contains(&t.name) && !(args.skip_runtime && t.name == "runtime"))
}

/// One CE backbone per dataset.
fn ce_per_dataset(args: &Args) -> Vec<BackbonePlan> {
    args.datasets
        .iter()
        .map(|&d| BackbonePlan::new(d, LossKind::Ce))
        .collect()
}

/// Every dataset × every loss.
fn every_loss_per_dataset(args: &Args) -> Vec<BackbonePlan> {
    args.datasets
        .iter()
        .flat_map(|&d| LossKind::ALL.map(|loss| BackbonePlan::new(d, loss)))
        .collect()
}

/// The cifar10 / CE backbone alone.
fn cifar10_ce(_args: &Args) -> Vec<BackbonePlan> {
    vec![BackbonePlan::new("cifar10", LossKind::Ce)]
}

/// Runs `table`'s labelled cells through [`Engine::cell`] on `jobs`
/// scheduler workers and returns their row sets in input order, or one
/// [`EngineError::Cells`] roll-up if any cell failed. Successful siblings
/// of a failed cell are already journaled, so only the failures are
/// lost. Each failure ticks `exp.cell.failed`.
pub(crate) fn run_cells<'s>(
    eng: &'s Engine,
    table: &'static str,
    jobs: usize,
    cells: Vec<(String, CellTask<'s>)>,
) -> Result<Vec<Rows>, EngineError> {
    let mut labels = Vec::with_capacity(cells.len());
    let mut tasks = Vec::with_capacity(cells.len());
    for (label, task) in cells {
        tasks.push(eng.cell(table, label.clone(), task));
        labels.push(label);
    }
    let mut rows = Vec::with_capacity(labels.len());
    let mut failures = Vec::new();
    for (label, outcome) in labels.iter().zip(run_jobs(jobs, tasks)) {
        let cell = format!("{table}/{label}");
        let error = match outcome {
            Ok(Ok(r)) => {
                rows.push(r);
                continue;
            }
            Ok(Err(e)) => e,
            Err(p) => EngineError::TaskPanic {
                label: cell.clone(),
                message: p.message,
            },
        };
        eos_trace::counter("exp.cell.failed").add(1);
        failures.push(CellFailure { cell, error });
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(EngineError::Cells { table, failures })
    }
}

/// Prints `table` under `title`, then `notes` if any, and writes it to
/// `results/<csv>.csv`.
pub fn emit(title: &str, table: &MarkdownTable, notes: &str, csv: &str) -> Result<(), EngineError> {
    println!("\n{title}\n");
    println!("{}", table.render());
    if !notes.is_empty() {
        println!("{notes}");
    }
    write_csv(table, csv)
}

/// Writes `table` to `results/<name>.csv` and says where it went; a
/// failed write is an [`EngineError::Io`].
pub(crate) fn write_csv(table: &MarkdownTable, name: &str) -> Result<(), EngineError> {
    let path = Path::new("results").join(format!("{name}.csv"));
    std::fs::create_dir_all("results")
        .and_then(|()| eos_trace::write_atomic(&path, table.to_csv().as_bytes()))
        .map_err(|e| EngineError::io(format!("write {}", path.display()), e))?;
    println!("\n[csv written to {}]", path.display());
    Ok(())
}

/// The pre-processing arm's input: the train set enlarged by the cell's
/// oversampler in **pixel space**. Training the full network on this set
/// is exactly the paper's pre-processing pipeline, and because the engine
/// fingerprints datasets by content, those trainings cache like any
/// other backbone.
pub(crate) fn oversampled_pixels(train: &Dataset, spec: &ExperimentSpec) -> Dataset {
    let sampler = spec
        .sampler
        .build()
        .expect("the pre-processing arm needs a real oversampler");
    let (bx, by) = balance_with(
        sampler.as_ref(),
        &train.x,
        &train.y,
        train.num_classes,
        &mut spec.rng(),
    );
    Dataset::new(bx, by, train.shape, train.num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_csvs_are_unique() {
        let mut names: Vec<&str> = ALL.iter().map(|t| t.name).collect();
        let mut csvs: Vec<&str> = ALL.iter().flat_map(|t| t.csvs.iter().copied()).collect();
        let (n, c) = (names.len(), csvs.len());
        names.sort_unstable();
        names.dedup();
        csvs.sort_unstable();
        csvs.dedup();
        assert_eq!((names.len(), csvs.len()), (n, c));
    }

    #[test]
    fn registry_runs_in_paper_order_with_runtime_last() {
        let names: Vec<&str> = ALL.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "gap_eos",
                "pixel_eos",
                "ablations",
                "runtime",
            ]
        );
    }

    #[test]
    fn deterministic_csvs_are_the_pinned_sixteen() {
        let args = Args {
            skip_runtime: true,
            ..Args::default()
        };
        let mut csvs: Vec<&str> = selected(&args)
            .flat_map(|t| t.csvs.iter().copied())
            .collect();
        csvs.sort_unstable();
        let mut pinned = [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig3",
            "fig4",
            "fig5",
            "fig6_summary",
            "fig6_coords",
            "fig7",
            "gap_eos",
            "pixel_eos",
            "ablation_direction",
            "ablation_gap_definition",
            "ablation_decoupling",
        ];
        pinned.sort_unstable();
        assert_eq!(csvs, pinned);
    }

    #[test]
    fn selection_follows_the_registry_not_the_flag() {
        let args = Args::try_parse(["--only".to_string(), "fig4,runtime,table2".into()]).unwrap();
        let names: Vec<&str> = selected(&args).map(|t| t.name).collect();
        assert_eq!(names, ["table2", "fig4", "runtime"]);
        let mut args = args;
        args.skip_runtime = true;
        let names: Vec<&str> = selected(&args).map(|t| t.name).collect();
        assert_eq!(names, ["table2", "fig4"]);
    }
}
