//! Table III — GAN-based over-sampling (GAMO, BAGAN, CGAN) vs EOS.
//!
//! GAN samplers act as pre-processing in *embedding space* for a fair
//! apples-to-apples comparison of sample placement (the paper's GANs
//! generate images; placement quality, not pixel fidelity, is what the
//! table measures). The CSV reports the synthetic-row count per method (a
//! deterministic proxy for model-induction effort); the measured
//! oversampling wall-clock goes to stderr so the table bytes stay
//! reproducible. Paper shape: GAMO/BAGAN clearly below EOS; CGAN
//! competitive but far more expensive, especially on the many-class
//! dataset.

use crate::exp::{CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;
use std::sync::Arc;
use std::time::Instant;

/// Produces the table (plan: every dataset × every loss). One journaled
/// cell per dataset × loss group; the measured oversampling seconds stay
/// on stderr, so the rows are identical at any job count (and on journal
/// replay).
pub fn run(eng: &Engine, args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let mut table =
        MarkdownTable::new(&["Dataset", "Algo", "Method", "BAC", "GM", "FM", "SynthRows"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for &dataset in &args.datasets {
        let pair = eng.dataset(dataset);
        for loss in LossKind::ALL {
            let pair = Arc::clone(&pair);
            let task: CellTask<'_> = Box::new(move || {
                let (train, test) = (&pair.0, &pair.1);
                eprintln!("[table3] {dataset} / {} ...", loss.name());
                let mut tp = eng.backbone(train, loss, &cfg)?;
                let methods = [
                    SamplerSpec::GamoLite,
                    SamplerSpec::BaganLite,
                    // DeepSMOTE (the authors' prior work, ref [48]) added
                    // as an extension column beyond the paper's table.
                    SamplerSpec::DeepSmote,
                    SamplerSpec::CGan,
                    SamplerSpec::eos(10),
                ];
                let mut rows = Rows::new();
                for sampler in methods {
                    let spec = ExperimentSpec {
                        table: "table3",
                        dataset,
                        loss,
                        sampler,
                        scale: eng.scale,
                        seed: eng.seed,
                    };
                    let built = sampler.build().expect("non-baseline");
                    // Time the oversampling itself (the model-induction
                    // cost) on the cell's own stream; the fine-tune below
                    // restarts the same stream, so it trains on these
                    // exact samples.
                    let t0 = Instant::now();
                    let (_, sy) = built.oversample(
                        &tp.train_fe,
                        &tp.train_y,
                        tp.num_classes,
                        &mut spec.rng(),
                    );
                    let os_seconds = t0.elapsed().as_secs_f64();
                    eprintln!(
                        "[table3]   {} oversample: {os_seconds:.3}s, {} synthetic rows",
                        sampler.name(),
                        sy.len()
                    );
                    let r = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut spec.rng());
                    rows.push(vec![
                        dataset.to_string(),
                        loss.name().into(),
                        sampler.name().into(),
                        paper_fmt(r.bac),
                        paper_fmt(r.gm),
                        paper_fmt(r.f1),
                        sy.len().to_string(),
                    ]);
                }
                Ok(rows)
            });
            cells.push((format!("{dataset}/{}", loss.name()), task));
        }
    }
    for rows in run_cells(eng, "table3", eng.jobs, cells)? {
        for row in rows {
            table.row(row);
        }
    }
    let title = format!(
        "Table III reproduction — GAN-based oversampling vs EOS (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &table, "", "table3")
}
