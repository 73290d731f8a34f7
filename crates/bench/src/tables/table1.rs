//! Table I — Pre-processing (pixel-space) vs feature-embedding-space
//! over-sampling, cross-entropy loss.
//!
//! "Pre-" rows oversample raw pixels and train the full CNN on the
//! enlarged set; "Post-" rows use the three-phase framework with the same
//! oversampler applied to feature embeddings. Paper shape: the Post-
//! variant wins in most dataset × method cells (7 of 9); Remix appears
//! only as pre-processing (balancing twice would be double-counting).

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;
use std::sync::Arc;

/// Produces the table (plan: one CE backbone per dataset, the Post- arm).
/// Each pre-processing arm (one full training on its pixel-enlarged set)
/// and each post arm (backbone + head fine-tunes) is an independent
/// journaled cell; rows land in the same order as the serial loop.
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&["Dataset", "Descr", "BAC", "GM", "FM"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        // Pre-processing arm: one full training run per oversampler, on
        // the pixel-enlarged set (cached by the enlarged set's content).
        let mut pre: Vec<SamplerSpec> = SamplerSpec::classic_lineup().to_vec();
        pre.push(SamplerSpec::Remix);
        for sampler in pre {
            let pair = Arc::clone(&pair);
            let label = format!("{dataset}/pre-{}", sampler.name());
            let task: CellTask<'_> = Box::new(move || {
                let (train, test) = (&pair.0, &pair.1);
                let spec = ExperimentSpec {
                    table: "table1-pre",
                    dataset,
                    loss: LossKind::Ce,
                    sampler,
                    scale: eng.scale,
                    seed: eng.seed,
                };
                eprintln!("[table1] {dataset} / Pre-{} ...", sampler.name());
                let enlarged = super::oversampled_pixels(train, &spec);
                let mut tp = eng.backbone(&enlarged, LossKind::Ce, &cfg)?;
                let r = tp.baseline_eval(test);
                Ok(vec![vec![
                    dataset.to_string(),
                    format!("Pre-{}", sampler.name()),
                    paper_fmt(r.bac),
                    paper_fmt(r.gm),
                    paper_fmt(r.f1),
                ]])
            });
            cells.push((label, task));
        }
        // Post arm: one backbone, one head fine-tune per oversampler.
        let task: CellTask<'_> = Box::new(move || {
            let (train, test) = (&pair.0, &pair.1);
            eprintln!("[table1] {dataset} / Post backbone ...");
            let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
            let mut rows = Rows::new();
            for sampler in SamplerSpec::classic_lineup() {
                let spec = ExperimentSpec {
                    table: "table1",
                    dataset,
                    loss: LossKind::Ce,
                    sampler,
                    scale: eng.scale,
                    seed: eng.seed,
                };
                let built = sampler.build().expect("post arm samplers are real");
                let r = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut spec.rng());
                rows.push(vec![
                    dataset.to_string(),
                    format!("Post-{}", sampler.name()),
                    paper_fmt(r.bac),
                    paper_fmt(r.gm),
                    paper_fmt(r.f1),
                ]);
            }
            Ok(rows)
        });
        cells.push((format!("{dataset}/post"), task));
    }
    for rows in run_cells(eng, "table1", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Table I reproduction — pixel vs embedding-space oversampling (CE, scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "table1")
}
