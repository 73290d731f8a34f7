//! Future-work extension experiment: gap-aware EOS (budget allocation
//! proportional to each class's measured generalization gap) versus plain
//! EOS and SMOTE across the dataset analogues (CE loss).
//!
//! This operationalises the paper's §VII future-work direction: "we
//! envision creating complementary measures will lead to a better
//! understanding ... the generalization gap can lead to effective
//! over-sampling".

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;

/// Produces the table (plan: one CE backbone per dataset). One journaled
/// cell per dataset: its backbone, the baseline eval and the three method
/// fine-tunes.
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&["Dataset", "Method", "BAC", "GM", "FM"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        let task: CellTask<'_> = Box::new(move || {
            let (train, test) = (&pair.0, &pair.1);
            eprintln!("[gap_eos] {dataset} backbone ...");
            let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
            let base = tp.baseline_eval(test);
            let mut rows = Rows::new();
            let push = |m: &str, bac: f64, gm: f64, f1: f64, rows: &mut Rows| {
                rows.push(vec![
                    dataset.to_string(),
                    m.into(),
                    paper_fmt(bac),
                    paper_fmt(gm),
                    paper_fmt(f1),
                ]);
            };
            push("Baseline", base.bac, base.gm, base.f1, &mut rows);
            for sampler in [
                SamplerSpec::Smote { k: 5 },
                SamplerSpec::eos(10),
                SamplerSpec::GapAwareEos { k: 10 },
            ] {
                let spec = ExperimentSpec {
                    table: "gap_eos",
                    dataset,
                    loss: LossKind::Ce,
                    sampler,
                    scale: eng.scale,
                    seed: eng.seed,
                };
                let built = sampler.build().expect("non-baseline");
                let r = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut spec.rng());
                push(sampler.name(), r.bac, r.gm, r.f1, &mut rows);
            }
            Ok(rows)
        });
        cells.push((dataset.to_string(), task));
    }
    for rows in run_cells(eng, "gap_eos", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Extension — gap-aware EOS (future work, §VII) (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "gap_eos")
}
