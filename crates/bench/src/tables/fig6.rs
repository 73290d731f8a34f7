//! Figure 6 — t-SNE of the majority/minority pair's embeddings under each
//! oversampling method (the paper's auto-vs-truck visualisation).
//!
//! The synthetic cifar10-like analogue pairs classes 2k/2k+1 by a shared
//! texture; we take the most imbalanced such pair (classes 0 and 9 are
//! not paired, so we use 8 vs 9: majority-ish vs extreme minority — the
//! auto/truck analogue). For each method the module embeds the real +
//! synthetic minority embeddings with t-SNE, writes the 2-D coordinates
//! to CSV for plotting, and prints a separation score (inter-centroid
//! distance over intra-class spread). Paper shape: EOS yields the
//! densest, most uniform minority structure with the widest margin.

use crate::exp::{mix_rng, CellTask, Engine, EngineError, ExperimentSpec, SamplerSpec};
use crate::tables::{emit, run_cells, write_csv, Rows};
use crate::{Args, MarkdownTable};
use eos_nn::LossKind;
use eos_resample::balance_with;
use eos_tensor::Tensor;
use eos_tsne::{density_uniformity, separation_score, tsne, TsneConfig};

/// Produces the figure's CSVs. One shared backbone (the plan: cifar10 /
/// CE); one journaled cell per method (each only reads the backbone's
/// train embeddings and seeds its own t-SNE stream, so cells are
/// independent — the network itself holds non-`Sync` trait objects and
/// stays on this thread). A cell's first journal row is the summary line;
/// the rest are 2-D coordinates.
pub fn run(eng: &Engine, _args: &Args) -> Result<(), EngineError> {
    let cfg = eng.cfg();
    let pair = eng.dataset("cifar10");
    let train = &pair.0;
    eprintln!("[fig6] training backbone ...");
    let tp = eng.backbone(train, LossKind::Ce, &cfg)?;
    let (train_fe, train_y, num_classes) = (&tp.train_fe, &tp.train_y, tp.num_classes);

    // The paired classes with the largest imbalance between them.
    let (maj, min) = (8usize, 9usize);
    let counts = train.class_counts();
    eprintln!(
        "[fig6] pair: class {maj} ({} samples) vs class {min} ({} samples)",
        counts[maj], counts[min]
    );

    let methods = [
        SamplerSpec::Baseline,
        SamplerSpec::Smote { k: 5 },
        SamplerSpec::BorderlineSmote { k: 5, m: 5 },
        SamplerSpec::BalancedSvm { k: 5 },
        SamplerSpec::eos(10),
    ];
    let mut summary =
        MarkdownTable::new(&["Method", "Points", "Separation", "Minority density CV"]);
    let mut coords = MarkdownTable::new(&["Method", "Class", "x", "y"]);
    let mut cells: Vec<(String, CellTask<'_>)> = Vec::new();
    for sampler in methods {
        let task: CellTask<'_> = Box::new(move || {
            let name = sampler.name();
            let spec = ExperimentSpec {
                table: "fig6",
                dataset: "cifar10",
                loss: LossKind::Ce,
                sampler,
                scale: eng.scale,
                seed: eng.seed,
            };
            let (fe, y) = match sampler.build() {
                Some(s) => {
                    balance_with(s.as_ref(), train_fe, train_y, num_classes, &mut spec.rng())
                }
                None => (train_fe.clone(), train_y.clone()),
            };
            // Slice out the two classes of interest.
            let rows: Vec<usize> = (0..y.len())
                .filter(|&i| y[i] == maj || y[i] == min)
                .collect();
            let pair_fe = fe.select_rows(&rows);
            let pair_y: Vec<usize> = rows.iter().map(|&i| (y[i] == min) as usize).collect();
            // Cap the point count so t-SNE stays quadratic-cheap.
            let cap = 250.min(pair_fe.dim(0));
            let keep: Vec<usize> = (0..cap).collect();
            let pair_fe = pair_fe.select_rows(&keep);
            let pair_y: Vec<usize> = pair_y[..cap].to_vec();
            eprintln!("[fig6] t-SNE for {name} ({cap} points) ...");
            let y2d: Tensor = tsne(
                &pair_fe,
                &TsneConfig {
                    iterations: 300,
                    ..TsneConfig::default()
                },
                &mut mix_rng(eng.seed, &["fig6", name]),
            );
            let score = separation_score(&y2d, &pair_y, 2);
            // The paper's Figure 6 claim is about *local structure*: EOS
            // yields a denser, more uniform minority manifold. Lower CV of
            // nearest-neighbour distances = more uniform.
            let cv = density_uniformity(&y2d, &pair_y, 1);
            let mut rows = Rows::new();
            rows.push(vec![
                name.into(),
                cap.to_string(),
                format!("{score:.3}"),
                format!("{cv:.3}"),
            ]);
            for (i, label) in pair_y.iter().enumerate() {
                rows.push(vec![
                    name.into(),
                    label.to_string(),
                    format!("{:.4}", y2d.at(&[i, 0])),
                    format!("{:.4}", y2d.at(&[i, 1])),
                ]);
            }
            Ok(rows)
        });
        cells.push((sampler.name().to_string(), task));
    }
    for rows in run_cells(eng, "fig6", eng.jobs, cells)? {
        let mut rows = rows.into_iter();
        summary.row(rows.next().expect("cells emit the summary row first"));
        for row in rows {
            coords.row(row);
        }
    }
    let title = format!(
        "Figure 6 reproduction — t-SNE of majority/minority pair (scale {:?}, seed {})",
        eng.scale, eng.seed
    );
    emit(&title, &summary, "", "fig6_summary")?;
    write_csv(&coords, "fig6_coords")
}
