//! Figure 3 — Per-class generalization gap, four losses × datasets,
//! baseline vs embedding-space oversamplers vs EOS.
//!
//! Paper shape: the gap rises with class imbalance (class index); the
//! interpolative oversamplers' curves overlap the baseline (they cannot
//! change embedding ranges); only EOS flattens the minority tail. The
//! module also prints the mean-based feature-deviation alternative for
//! the gap-definition ablation.

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_core::{feature_deviation, generalization_gap, ThreePhase};
use eos_nn::LossKind;
use eos_resample::balance_with;
use eos_tensor::Tensor;
use std::sync::Arc;

/// Gap per class after augmenting the train embeddings with the cell's
/// sampler ([`SamplerSpec::Baseline`] = no augmentation).
fn gap_with(
    tp: &ThreePhase,
    test_fe: &Tensor,
    test_y: &[usize],
    spec: &ExperimentSpec,
) -> Vec<f64> {
    let (fe, y) = match spec.sampler.build() {
        Some(s) => balance_with(
            s.as_ref(),
            &tp.train_fe,
            &tp.train_y,
            tp.num_classes,
            &mut spec.rng(),
        ),
        None => (tp.train_fe.clone(), tp.train_y.clone()),
    };
    generalization_gap(&fe, &y, test_fe, test_y, tp.num_classes).per_class
}

/// Produces the figure's CSV (plan: every dataset × every loss). One
/// journaled cell per dataset × loss group.
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&[
        "Dataset",
        "Algo",
        "Class",
        "TrainCount",
        "Baseline",
        "SMOTE",
        "EOS",
        "FeatDev",
    ]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        for loss in LossKind::ALL {
            let pair = Arc::clone(&pair);
            let task: CellTask<'_> = Box::new(move || {
                let (train, test) = (&pair.0, &pair.1);
                let counts = train.class_counts();
                eprintln!("[fig3] {dataset} / {} ...", loss.name());
                let mut tp = eng.backbone(train, loss, &cfg)?;
                let test_fe = tp.embed(test);
                let cell = |sampler| ExperimentSpec {
                    table: "fig3",
                    dataset,
                    loss,
                    sampler,
                    scale: eng.scale,
                    seed: eng.seed,
                };
                let base = gap_with(&tp, &test_fe, &test.y, &cell(SamplerSpec::Baseline));
                let smote = gap_with(&tp, &test_fe, &test.y, &cell(SamplerSpec::Smote { k: 5 }));
                let eos = gap_with(&tp, &test_fe, &test.y, &cell(SamplerSpec::eos(10)));
                let dev =
                    feature_deviation(&tp.train_fe, &tp.train_y, &test_fe, &test.y, tp.num_classes)
                        .per_class;
                let mut rows = Rows::new();
                for c in 0..tp.num_classes {
                    rows.push(vec![
                        dataset.to_string(),
                        loss.name().into(),
                        c.to_string(),
                        counts[c].to_string(),
                        format!("{:.3}", base[c]),
                        format!("{:.3}", smote[c]),
                        format!("{:.3}", eos[c]),
                        format!("{:.3}", dev[c]),
                    ]);
                }
                // Summary line: does EOS flatten the minority tail?
                let minority = tp.num_classes / 2..tp.num_classes;
                let tail = |v: &[f64]| -> f64 {
                    minority.clone().map(|c| v[c]).sum::<f64>() / minority.len() as f64
                };
                eprintln!(
                    "  minority-tail gap: baseline {:.3}, SMOTE {:.3}, EOS {:.3}",
                    tail(&base),
                    tail(&smote),
                    tail(&eos)
                );
                Ok(rows)
            });
            cells.push((format!("{dataset}/{}", loss.name()), task));
        }
    }
    for rows in run_cells(eng, "fig3", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Figure 3 reproduction — per-class generalization gap (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "fig3")
}
