//! Figure 4 — Generalization gap of test false positives vs true
//! positives, per dataset.
//!
//! Paper shape: the FP gap is 2–4× the TP gap on every dataset — models
//! generalize (TPs) exactly where train and test embedding ranges align.

use crate::exp::{CellTask, Engine, EngineError};
use crate::tables::{emit, run_cells};
use crate::{Args, MarkdownTable};
use eos_core::{evaluate, tp_fp_gap};
use eos_nn::LossKind;

/// Produces the figure's CSV (plan: one CE backbone per dataset). Fully
/// deterministic given the backbone — no per-cell randomness at all. One
/// journaled cell per dataset.
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&["Dataset", "TP gap", "FP gap", "FP/TP"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        let task: CellTask<'_> = Box::new(move || {
            let (train, test) = (&pair.0, &pair.1);
            eprintln!("[fig4] {dataset} ...");
            let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
            let test_fe = tp.embed(test);
            let preds = evaluate(&mut tp.net, test).predictions;
            let report = tp_fp_gap(
                &tp.train_fe,
                &tp.train_y,
                &test_fe,
                &test.y,
                &preds,
                tp.num_classes,
            );
            let ratio = if report.tp_gap > 0.0 {
                report.fp_gap / report.tp_gap
            } else {
                f64::INFINITY
            };
            Ok(vec![vec![
                dataset.to_string(),
                format!("{:.3}", report.tp_gap),
                format!("{:.3}", report.fp_gap),
                format!("{:.2}x", ratio),
            ]])
        });
        cells.push((dataset.to_string(), task));
    }
    for rows in run_cells(eng, "fig4", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Figure 4 reproduction — FP vs TP generalization gap (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "fig4")
}
