//! Figure 5 — Classifier weight norms per class, before and after
//! embedding-space oversampling.
//!
//! Paper shape: cost-sensitive baselines leave monotonically shrinking
//! norms toward the minority classes; oversampled heads flatten them, and
//! EOS usually shows the largest, most even norms.

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_core::head_weight_norms;
use eos_nn::LossKind;
use std::sync::Arc;

/// Produces the figure's CSV (plan: every dataset × every loss). One
/// journaled cell per dataset × loss group; the fine-tunes inside a group
/// stay sequential on its own backbone (each re-initialises the head from
/// its cell's stream, so the order cannot matter — but the rows must come
/// out in method order).
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&["Dataset", "Algo", "Method", "Class", "Norm"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        for loss in LossKind::ALL {
            let pair = Arc::clone(&pair);
            let task: CellTask<'_> = Box::new(move || {
                let train = &pair.0;
                eprintln!("[fig5] {dataset} / {} ...", loss.name());
                let mut tp = eng.backbone(train, loss, &cfg)?;
                let mut rows = Rows::new();
                let record = |method: &str, norms: &[f32], rows: &mut Rows| {
                    for (c, &n) in norms.iter().enumerate() {
                        rows.push(vec![
                            dataset.to_string(),
                            loss.name().into(),
                            method.into(),
                            c.to_string(),
                            format!("{n:.4}"),
                        ]);
                    }
                };
                record("Baseline", &head_weight_norms(&tp.net), &mut rows);
                let mut methods: Vec<SamplerSpec> = SamplerSpec::classic_lineup().to_vec();
                methods.push(SamplerSpec::eos(10));
                for sampler in methods {
                    let spec = ExperimentSpec {
                        table: "fig5",
                        dataset,
                        loss,
                        sampler,
                        scale: eng.scale,
                        seed: eng.seed,
                    };
                    let built = sampler.build().expect("non-baseline");
                    let _ = tp.finetune_head(Some(built.as_ref()), &cfg, &mut spec.rng());
                    record(sampler.name(), &head_weight_norms(&tp.net), &mut rows);
                }
                Ok(rows)
            });
            cells.push((format!("{dataset}/{}", loss.name()), task));
        }
    }
    for rows in run_cells(eng, "fig5", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Figure 5 reproduction — classifier weight norms per class (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "fig5")
}
