//! §V-E2 — Model run time: EOS three-phase pipeline vs pre-processing
//! oversampling, cifar10 analogue.
//!
//! Paper numbers: pre-processing averages 126.9 min vs EOS 43.9 min
//! (≈2.9×) because pre-processing trains the full CNN on the *enlarged*
//! pixel set while EOS trains on the imbalanced set and then retrains a
//! ~1K-parameter head on low-dimensional embeddings for 10 epochs. The
//! reproduction measures the same two pipelines at reproduction scale —
//! the ratio, not the minutes, is the reproduced quantity.
//!
//! This module deliberately bypasses the artifact cache: its entire
//! subject is the *cost* of training, so every pipeline runs fresh and
//! the CSV carries wall-clock columns (and is therefore the one output
//! exempt from the byte-identical warm-rerun guarantee).

use crate::exp::{mix_rng, EngineError};
use crate::runner::prepared_dataset;
use crate::tables::emit;
use crate::{Args, MarkdownTable};
use eos_core::{preprocess_and_train, Eos, ThreePhase};
use eos_nn::{train_epochs, ConvNet, LossKind, TrainConfig};
use eos_resample::balance_with;
use eos_tensor::{par, Rng64};
use std::time::Instant;

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Runs the timing comparison (always cache-free).
pub fn run(args: &Args) -> Result<(), EngineError> {
    let cfg = args.scale.pipeline();
    let (train, test) = prepared_dataset("cifar10", args.scale, args.seed);

    // --- Execution-layer check: serial vs parallel wall-clock ------------
    // The same workload at `EOS_NUM_THREADS = 1` and at the ambient budget;
    // the execution layer guarantees identical outputs, so only the clock
    // may move.
    // On a single-core machine the ambient budget is 1; still drive the
    // pool with 4 time-sharing threads so the dispatch path is measured
    // (the speedup column only means something with real cores).
    let ambient = par::num_threads().max(4);
    let one_epoch = || {
        let mut rng = Rng64::new(args.seed);
        let mut net = ConvNet::new(cfg.arch, train.shape, train.num_classes, &mut rng);
        let counts = train.class_counts();
        let mut loss = LossKind::Ce.build(&counts);
        let tc = TrainConfig {
            epochs: 1,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            schedule: None,
            drw_epoch: None,
            checkpoint: None,
        };
        let _ = train_epochs(
            &mut net,
            loss.as_mut(),
            &train.x,
            &train.y,
            &tc,
            None,
            &mut rng,
        );
    };
    let eos_pass = || {
        let mut rng = Rng64::new(args.seed);
        let _ = balance_with(
            &Eos::new(10),
            &train.x,
            &train.y,
            train.num_classes,
            &mut rng,
        );
    };
    eprintln!(
        "[runtime] timing one training epoch + one EOS pass, serial vs {ambient} threads ..."
    );
    par::set_num_threads(1);
    let (epoch_serial, eos_serial) = (timed(one_epoch), timed(eos_pass));
    par::set_num_threads(ambient);
    let (epoch_par, eos_par) = (timed(one_epoch), timed(eos_pass));
    let par_header = format!("Parallel s ({ambient} threads)");
    let mut thr_table =
        MarkdownTable::new(&["Workload", "Serial s", par_header.as_str(), "Speedup"]);
    for (name, serial, parallel) in [
        ("One training epoch", epoch_serial, epoch_par),
        ("One EOS resampling pass", eos_serial, eos_par),
    ] {
        thr_table.row(vec![
            name.into(),
            format!("{serial:.3}"),
            format!("{parallel:.3}"),
            format!("{:.2}x", serial / parallel.max(1e-9)),
        ]);
    }
    emit(
        "Execution layer — serial vs parallel wall-clock",
        &thr_table,
        "",
        "runtime_threading",
    )?;

    let mut table = MarkdownTable::new(&["Pipeline", "BAC", "Seconds"]);

    // Pre-processing arm: average over the three classical oversamplers,
    // as the paper does.
    let mut pre_total = 0.0f64;
    let pre_samplers = crate::samplers_for_table2();
    let mut rng = mix_rng(args.seed, &["runtime"]);
    for sampler in &pre_samplers {
        eprintln!("[runtime] pre-processing with {} ...", sampler.name());
        let r = preprocess_and_train(
            &train,
            &test,
            LossKind::Ce,
            Some(sampler.as_ref()),
            &cfg,
            &mut rng,
        );
        table.row(vec![
            format!("Pre-{}", sampler.name()),
            format!("{:.4}", r.bac),
            format!("{:.2}", r.seconds),
        ]);
        pre_total += r.seconds;
    }
    let pre_avg = pre_total / pre_samplers.len() as f64;

    // EOS arm: backbone on the imbalanced set + head fine-tune.
    eprintln!("[runtime] EOS three-phase ...");
    let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut rng);
    let r = tp.finetune_and_eval(&Eos::new(10), &test, &cfg, &mut rng);
    table.row(vec![
        "EOS (three-phase)".into(),
        format!("{:.4}", r.bac),
        format!("{:.2}", r.seconds),
    ]);

    let title = format!(
        "§V-E2 reproduction — pipeline run time (scale {:?}, seed {})",
        args.scale, args.seed
    );
    // The parameter-count side of the §V-E2 argument.
    let head_params = tp.net.head.weight().len() + tp.net.head.bias().map_or(0, |b| b.len());
    let notes = format!(
        "pre-processing avg {:.2}s vs EOS {:.2}s -> ratio {:.2}x (paper: 126.9 vs 43.9 min = 2.9x)\n\
         backbone params: {}, retrained head params: {}",
        pre_avg,
        r.seconds,
        pre_avg / r.seconds.max(1e-9),
        tp.net.param_count(),
        head_params
    );
    emit(&title, &table, &notes, "runtime")
}
