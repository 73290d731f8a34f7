//! Table V — Alternative CNN architectures with and without EOS
//! (cifar10 analogue, K = 10).
//!
//! Paper shape: EOS improves every architecture family (ResNet-56,
//! WideResNet, DenseNet) over its end-to-end baseline.

use crate::exp::{BackbonePlan, CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells};
use crate::{Args, MarkdownTable};
use eos_nn::{Architecture, LossKind};
use std::sync::Arc;

/// Display label, cell tag, architecture.
fn archs() -> [(&'static str, &'static str, Architecture); 3] {
    [
        (
            "ResNet (deeper)",
            "table5/resnet",
            Architecture::ResNet {
                blocks_per_stage: 2,
                width: 8,
            },
        ),
        (
            "WideResNet",
            "table5/wrn",
            Architecture::WideResNet { k: 2 },
        ),
        (
            "DenseNet",
            "table5/densenet",
            Architecture::DenseNet {
                growth: 6,
                layers_per_block: 2,
            },
        ),
    ]
}

/// Standard backbones: three architecture overrides on cifar10 / CE.
pub fn plan(_args: &Args) -> Vec<BackbonePlan> {
    archs()
        .iter()
        .map(|&(_, _, arch)| BackbonePlan {
            dataset: "cifar10",
            loss: LossKind::Ce,
            arch: Some(arch),
        })
        .collect()
}

/// Produces the table. One journaled cell per architecture: its backbone
/// override, the end-to-end baseline and the EOS fine-tune.
pub fn run(eng: &Engine, _args: &Args) -> Result<(), EngineError> {
    let base_cfg = eng.cfg();
    let pair = eng.dataset("cifar10");
    let mut table = MarkdownTable::new(&["Network", "BAC", "GM", "FM"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for (name, tag, arch) in archs() {
        let pair = Arc::clone(&pair);
        // The cell tag already carries the table prefix; the cell label
        // is just the architecture part ("resnet", "wrn", "densenet").
        let label = tag.rsplit('/').next().unwrap_or(tag).to_string();
        let task: CellTask<'_> = Box::new(move || {
            let (train, test) = (&pair.0, &pair.1);
            let mut cfg = base_cfg;
            cfg.arch = arch;
            eprintln!("[table5] {name} ...");
            let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
            let base = tp.baseline_eval(test);
            let spec = ExperimentSpec {
                table: tag,
                dataset: "cifar10",
                loss: LossKind::Ce,
                sampler: SamplerSpec::eos(10),
                scale: eng.scale,
                seed: eng.seed,
            };
            let built = spec.sampler.build().expect("EOS");
            let eos = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut spec.rng());
            Ok(vec![
                vec![
                    name.to_string(),
                    paper_fmt(base.bac),
                    paper_fmt(base.gm),
                    paper_fmt(base.f1),
                ],
                vec![
                    format!("EOS: {name}"),
                    paper_fmt(eos.bac),
                    paper_fmt(eos.gm),
                    paper_fmt(eos.f1),
                ],
            ])
        });
        cells.push((label, task));
    }
    for rows in run_cells(eng, "table5", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Table V reproduction — architectures with & without EOS (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "table5")
}
