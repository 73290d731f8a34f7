//! Table II — Baseline algorithms & over-sampling accuracy.
//!
//! For every dataset analogue and every loss (CE, ASL, Focal, LDAM):
//! train the backbone once, then compare the end-to-end baseline against
//! head fine-tuning with SMOTE / Borderline-SMOTE / Balanced-SVM / EOS in
//! feature-embedding space. Paper shape: EOS wins most cells; the
//! backbone loss matters (LDAM embeddings are the strongest pairing).

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;
use std::sync::Arc;

/// Produces the table (plan: every dataset × every loss). One journaled
/// cell per dataset × loss group: the group's backbone, its baseline eval
/// and its head fine-tunes.
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&["Dataset", "Algo", "Method", "BAC", "GM", "FM"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        for loss in LossKind::ALL {
            let pair = Arc::clone(&pair);
            let task: CellTask<'_> = Box::new(move || {
                let (train, test) = (&pair.0, &pair.1);
                eprintln!("[table2] {dataset} / {} ...", loss.name());
                let mut tp = eng.backbone(train, loss, &cfg)?;
                let mut rows = Rows::new();
                let mut push = |method: &str, bac: f64, gm: f64, f1: f64| {
                    rows.push(vec![
                        dataset.to_string(),
                        loss.name().into(),
                        method.into(),
                        paper_fmt(bac),
                        paper_fmt(gm),
                        paper_fmt(f1),
                    ]);
                };
                let base = tp.baseline_eval(test);
                push("Baseline", base.bac, base.gm, base.f1);
                let mut methods: Vec<SamplerSpec> = SamplerSpec::classic_lineup().to_vec();
                methods.push(SamplerSpec::eos(10));
                for sampler in methods {
                    let spec = ExperimentSpec {
                        table: "table2",
                        dataset,
                        loss,
                        sampler,
                        scale: eng.scale,
                        seed: eng.seed,
                    };
                    let built = sampler.build().expect("non-baseline");
                    let r = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut spec.rng());
                    push(sampler.name(), r.bac, r.gm, r.f1);
                }
                Ok(rows)
            });
            cells.push((format!("{dataset}/{}", loss.name()), task));
        }
    }
    for rows in run_cells(eng, "table2", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Table II reproduction (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "table2")
}
