//! Table IV — EOS nearest-neighbour size (K) sensitivity.
//!
//! K ∈ {10, 50, 100, 200, 300} with cross-entropy. Paper shape: BAC
//! improves with K and plateaus by K ≈ 200–300 (a larger enemy
//! neighbourhood gives a more diverse range expansion).

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;

const KS: [usize; 5] = [10, 50, 100, 200, 300];

/// Produces the table (plan: one CE backbone per dataset). One journaled
/// cell per dataset: its backbone plus the K sweep.
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table = MarkdownTable::new(&["Dataset", "K", "BAC", "GM", "FM"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        let task: CellTask<'_> = Box::new(move || {
            let (train, test) = (&pair.0, &pair.1);
            eprintln!("[table4] {dataset} backbone ...");
            let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
            let mut rows = Rows::new();
            for k in KS {
                // K cannot exceed the number of other samples.
                let k_eff = k.min(train.len().saturating_sub(1)).max(1);
                let spec = ExperimentSpec {
                    table: "table4",
                    dataset,
                    loss: LossKind::Ce,
                    sampler: SamplerSpec::eos(k_eff),
                    scale: eng.scale,
                    seed: eng.seed,
                };
                let built = spec.sampler.build().expect("EOS");
                let r = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut spec.rng());
                rows.push(vec![
                    dataset.to_string(),
                    k.to_string(),
                    paper_fmt(r.bac),
                    paper_fmt(r.gm),
                    paper_fmt(r.f1),
                ]);
            }
            Ok(rows)
        });
        cells.push((dataset.to_string(), task));
    }
    for rows in run_cells(eng, "table4", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Table IV reproduction — EOS neighbourhood-size sweep (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "table4")
}
