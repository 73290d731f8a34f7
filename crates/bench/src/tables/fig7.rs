//! Figure 7 — Balanced accuracy vs classifier-retraining epoch, EOS vs
//! SMOTE, cross-entropy on the cifar10 analogue, 30 epochs.
//!
//! Paper shape: both methods plateau by roughly epoch 10 (the framework's
//! chosen budget); EOS gains marginally from longer retraining, SMOTE
//! does not.

use crate::exp::{dec_f64, enc_f64, CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;
use std::sync::Arc;

const EPOCHS: usize = 30;

/// Decodes one journaled BAC value, mapping a malformed bit pattern to a
/// corrupt-cache error (a stale or hand-edited journal entry).
fn dec(s: &str) -> Result<f64, EngineError> {
    dec_f64(s).map_err(|e| EngineError::corrupt("fig7 epoch trace", e.to_string()))
}

/// Produces the figure's CSV. One journaled cell per traced method; each
/// cell takes its own copy of the shared backbone (the plan: cifar10 /
/// CE; a cache hit after the first training) because the epoch trace
/// mutates the head in place. The per-epoch BAC pairs journal as f64 bit
/// patterns, so a replayed cell renders the exact same digits as a
/// computed one.
pub fn run(eng: &Engine, _args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let pair = eng.dataset("cifar10");
    let trace_of = |label: &str, sampler: SamplerSpec| {
        let pair = Arc::clone(&pair);
        let task: CellTask<'_> = Box::new(move || {
            let (train, test) = (&pair.0, &pair.1);
            let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
            let spec = ExperimentSpec {
                table: "fig7",
                dataset: "cifar10",
                loss: LossKind::Ce,
                sampler,
                scale: eng.scale,
                seed: eng.seed,
            };
            eprintln!("[fig7] tracing {} ...", sampler.name());
            let built = sampler.build().expect("non-baseline");
            let trace = tp.finetune_trace(built.as_ref(), test, EPOCHS, &cfg, &mut spec.rng());
            Ok(trace
                .iter()
                .map(|&(train_bac, test_bac)| vec![enc_f64(train_bac), enc_f64(test_bac)])
                .collect())
        });
        (label.to_string(), task)
    };
    let cells = vec![
        trace_of("smote", SamplerSpec::Smote { k: 5 }),
        trace_of("eos", SamplerSpec::eos(10)),
    ];
    let decode = |rows: &Rows| -> Result<Vec<(f64, f64)>, EngineError> {
        rows.iter()
            .map(|r| Ok((dec(&r[0])?, dec(&r[1])?)))
            .collect()
    };
    let mut traces = run_cells(eng, "fig7", eng.jobs, cells)?;
    let eos = decode(&traces.pop().expect("eos trace"))?;
    let smote = decode(&traces.pop().expect("smote trace"))?;
    let mut table = MarkdownTable::new(&[
        "Epoch",
        "SMOTE train BAC",
        "SMOTE test BAC",
        "EOS train BAC",
        "EOS test BAC",
    ]);
    for e in 0..EPOCHS {
        table.row(vec![
            (e + 1).to_string(),
            format!("{:.4}", smote[e].0),
            format!("{:.4}", smote[e].1),
            format!("{:.4}", eos[e].0),
            format!("{:.4}", eos[e].1),
        ]);
    }
    let title = format!(
        "Figure 7 reproduction — retraining-epoch trace (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    let at = |trace: &[(f64, f64)], e: usize| trace[e.min(trace.len() - 1)].1;
    let plateau = format!(
        "plateau check — test BAC at epoch 10 vs 30: SMOTE {:.4} -> {:.4}, EOS {:.4} -> {:.4}",
        at(&smote, 9),
        at(&smote, 29),
        at(&eos, 9),
        at(&eos, 29)
    );
    emit(&title, &table, &plateau, "fig7")
}
