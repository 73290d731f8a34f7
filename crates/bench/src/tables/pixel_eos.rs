//! §V-E3 — EOS in pixel space vs feature-embedding space (cifar10
//! analogue, CE loss). Includes the interpolation-direction ablation.
//!
//! Paper shape: pixel-space EOS trails embedding-space EOS by a wide
//! margin (~7 BAC points in the paper) because pixel-space nearest
//! adversaries are far less discriminative than embedding-space ones.
//! The direction ablation contrasts the paper's prose (toward-enemy
//! convex combination) with the literal Algorithm 2 formula
//! (away-from-enemy extrapolation).

use crate::exp::{dec_f64, enc_f64, CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::report::paper_fmt;
use crate::tables::{emit, run_cells, Rows};
use crate::{Args, MarkdownTable};
use eos_core::Direction;
use eos_nn::LossKind;
use std::sync::Arc;

/// Produces the table. Two journaled cells — the pixel-space arm (its own
/// enlarged backbone) and the embedding-space arm (the planned cifar10 /
/// CE backbone plus both direction fine-tunes). Each cell's first journal
/// row is a meta row holding its headline BAC as an f64 bit pattern, so
/// the advantage line prints identical digits on replay; the remaining
/// rows are the table rows.
pub fn run(eng: &Engine, _args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let pair = eng.dataset("cifar10");
    let mut table = MarkdownTable::new(&["Variant", "BAC", "GM", "FM"]);
    let (scale, seed) = (eng.scale, eng.seed);
    let cell = move |table_tag, sampler| ExperimentSpec {
        table: table_tag,
        dataset: "cifar10",
        loss: LossKind::Ce,
        sampler,
        scale,
        seed,
    };

    let pixel_pair = Arc::clone(&pair);
    let pixel_arm: CellTask<'_> = Box::new(move || {
        let (train, test) = (&pixel_pair.0, &pixel_pair.1);
        eprintln!("[pixel_eos] EOS as pixel-space pre-processing ...");
        let enlarged =
            super::oversampled_pixels(train, &cell("pixel_eos-pre", SamplerSpec::eos(10)));
        let mut pixel_tp = eng.backbone(&enlarged, LossKind::Ce, &cfg)?;
        let pixel = pixel_tp.baseline_eval(test);
        Ok(vec![
            vec![enc_f64(pixel.bac)],
            vec![
                "EOS in pixel space (pre-processing)".into(),
                paper_fmt(pixel.bac),
                paper_fmt(pixel.gm),
                paper_fmt(pixel.f1),
            ],
        ])
    });

    let emb_pair = Arc::clone(&pair);
    let emb_arm: CellTask<'_> = Box::new(move || {
        let (train, test) = (&emb_pair.0, &emb_pair.1);
        eprintln!("[pixel_eos] EOS in embedding space ...");
        let mut tp = eng.backbone(train, LossKind::Ce, &cfg)?;
        let toward = cell("pixel_eos", SamplerSpec::eos(10));
        let built = toward.sampler.build().expect("EOS");
        let fe = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut toward.rng());
        let mut rows = Rows::new();
        rows.push(vec![enc_f64(fe.bac)]);
        rows.push(vec![
            "EOS in embedding space (three-phase)".into(),
            paper_fmt(fe.bac),
            paper_fmt(fe.gm),
            paper_fmt(fe.f1),
        ]);

        eprintln!("[pixel_eos] direction ablation ...");
        let away_spec = cell(
            "pixel_eos",
            SamplerSpec::Eos {
                k: 10,
                direction: Direction::AwayFromEnemy,
                r_scale: 0.5,
            },
        );
        let built = away_spec.sampler.build().expect("EOS");
        let away = tp.finetune_and_eval(built.as_ref(), test, &cfg, &mut away_spec.rng());
        rows.push(vec![
            "EOS embedding, away-from-enemy (literal Alg. 2)".into(),
            paper_fmt(away.bac),
            paper_fmt(away.gm),
            paper_fmt(away.f1),
        ]);
        Ok(rows)
    });

    let cells = vec![
        ("pixel".to_string(), pixel_arm),
        ("embedding".to_string(), emb_arm),
    ];
    let mut results = run_cells(eng, "pixel_eos", eng.jobs, cells)?;
    let headline = |rows: &mut Rows| -> Result<f64, EngineError> {
        let meta = rows.remove(0);
        dec_f64(&meta[0]).map_err(|e| EngineError::corrupt("pixel_eos headline BAC", e.to_string()))
    };
    let mut emb_rows = results.pop().expect("embedding arm");
    let mut pixel_rows = results.pop().expect("pixel arm");
    let fe_bac = headline(&mut emb_rows)?;
    let pixel_bac = headline(&mut pixel_rows)?;
    for row in pixel_rows.into_iter().chain(emb_rows) {
        table.row(row);
    }

    let title = format!(
        "§V-E3 reproduction — EOS pixel vs embedding space (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    let advantage = format!(
        "embedding-space advantage: {:+.1} BAC points (paper: ~+7)",
        (fe_bac - pixel_bac) * 100.0
    );
    emit(&title, &table, &advantage, "pixel_eos")
}
