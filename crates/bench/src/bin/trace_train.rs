//! Traced training smoke gate for the observability layer.
//!
//! Enables tracing, runs a matrix product big enough to force a dispatched
//! worker-pool job, then a tiny three-phase EOS pipeline, and writes
//! `results/TRACE_train.json` + `.jsonl`. The gate then re-reads both
//! files, validates every byte of JSON, and asserts the span/counter shape
//! the instrumentation promises: exactly three phase spans with epochs and
//! batches nested under them, GEMM dispatch counts that add up, worker-pool
//! utilisation, and synthetic-sample accounting. Exits non-zero on any
//! failure so `scripts/verify.sh` can gate on it.
//!
//! `--smoke` trims the training budget.

use eos_core::{Eos, PipelineConfig, ThreePhase};
use eos_data::SynthSpec;
use eos_nn::{Architecture, LossKind};
use eos_tensor::{normal, par, Rng64};

/// Records a failed expectation without aborting, so one run reports every
/// broken invariant at once.
struct Gate {
    failures: usize,
}

impl Gate {
    fn check(&mut self, cond: bool, what: &str) {
        if cond {
            println!("  ok   {what}");
        } else {
            eprintln!("  FAIL {what}");
            self.failures += 1;
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (backbone_epochs, head_epochs, n_max) = if smoke { (4, 3, 32) } else { (8, 5, 48) };

    let ambient = par::num_threads();
    par::set_num_threads(ambient.max(2));
    eos_trace::set_enabled(true);
    eos_trace::reset();

    // A product large enough to cross the pool's PAR_MIN_WORK threshold,
    // guaranteeing at least one dispatched (not inlined) job in the trace.
    let mut rng = Rng64::new(7);
    let a = normal(&[128, 512], 0.0, 1.0, &mut rng);
    let b = normal(&[512, 128], 0.0, 1.0, &mut rng);
    std::hint::black_box(a.matmul(&b));

    let mut spec = SynthSpec::celeba_like(1);
    spec.n_max_train = n_max;
    spec.imbalance_ratio = 8.0;
    spec.n_test_per_class = 10;
    let (mut train, mut test) = spec.generate(11);
    let (mean, std) = train.feature_stats();
    train.standardize(&mean, &std);
    test.standardize(&mean, &std);

    let mut cfg = PipelineConfig::small();
    cfg.arch = Architecture::ResNet {
        blocks_per_stage: 1,
        width: 4,
    };
    cfg.backbone_epochs = backbone_epochs;
    cfg.head_epochs = head_epochs;

    let mut tp = ThreePhase::train(&train, LossKind::Ce, &cfg, &mut rng);
    let _ = tp.finetune_head(Some(&Eos::new(10)), &cfg, &mut rng);
    let (_gaps, _split) = tp.gap_report(&test);

    let mut g = Gate { failures: 0 };
    g.check(
        tp.history.iter().all(|e| e.loss.is_finite()),
        "backbone losses are finite",
    );

    // --- Span tree shape.
    let snap = eos_trace::snapshot();
    let span_count = |path: &str| snap.span(path).map_or(0, |s| s.count);
    g.check(span_count("eos.phase1") == 1, "eos.phase1 span, once");
    g.check(
        span_count("eos.phase2") == 2,
        "eos.phase2 span, twice (extraction + augmentation)",
    );
    g.check(span_count("eos.phase3") == 1, "eos.phase3 span, once");
    let phases = snap
        .root_spans()
        .iter()
        .filter(|s| s.name.starts_with("eos.phase"))
        .count();
    g.check(phases == 3, "exactly three phase spans at the root");
    g.check(
        span_count("eos.phase1/train.epoch") == backbone_epochs as u64,
        "one train.epoch per backbone epoch under phase 1",
    );
    g.check(
        span_count("eos.phase3/train.epoch") == head_epochs as u64,
        "one train.epoch per head epoch under phase 3",
    );
    let batches = span_count("eos.phase1/train.epoch/train.batch")
        + span_count("eos.phase3/train.epoch/train.batch");
    g.check(batches > 0, "train.batch spans nest under train.epoch");
    g.check(
        span_count("eos.phase2/eos.oversample") == 1,
        "EOS oversampling nests under phase 2",
    );
    g.check(span_count("gap.scan") > 0, "gap scans recorded");
    g.check(snap.events_dropped == 0, "event buffer did not overflow");

    // --- Counters and histograms.
    g.check(
        snap.counter("train.batches") == batches,
        "train.batches counter agrees with batch spans",
    );
    let gemm = snap.counter("gemm.calls");
    g.check(gemm > 0, "GEMM calls recorded");
    g.check(
        snap.counter("gemm.dispatch.avx2") + snap.counter("gemm.dispatch.scalar") == gemm,
        "kernel dispatch counts sum to gemm.calls",
    );
    g.check(
        snap.histogram("gemm.flops").map_or(0, |h| h.count) == gemm,
        "one gemm.flops sample per GEMM call",
    );
    g.check(
        snap.counter("pool.jobs.dispatched") >= 1,
        "at least one worker-pool job was dispatched",
    );
    g.check(
        snap.counter("pool.worker_busy_ns") > 0,
        "worker busy time recorded",
    );
    g.check(
        snap.counter("eos.synthetic_samples") > 0,
        "EOS generated synthetic samples",
    );
    g.check(
        snap.counter("neighbors.brute_queries") > 0,
        "neighbor queries counted by the scan",
    );
    g.check(
        snap.histogram("train.batch_loss_milli")
            .map_or(0, |h| h.count)
            == batches,
        "one loss sample per batch",
    );

    // --- Export and re-validation from disk.
    match eos_trace::write_trace("train") {
        None => g.check(false, "trace files written"),
        Some((summary_path, events_path)) => {
            println!("  trace written to {}", summary_path.display());
            let summary = std::fs::read_to_string(&summary_path).unwrap_or_default();
            g.check(
                eos_trace::validate(&summary).is_ok(),
                "TRACE_train.json is valid JSON",
            );
            g.check(
                summary.contains("\"eos.phase1\"")
                    && summary.contains("\"eos.phase2\"")
                    && summary.contains("\"eos.phase3\""),
                "summary names all three phases",
            );
            let events = std::fs::read_to_string(&events_path).unwrap_or_default();
            g.check(!events.is_empty(), "event log is non-empty");
            g.check(
                events.lines().all(|line| eos_trace::validate(line).is_ok()),
                "every TRACE_train.jsonl line is valid JSON",
            );
        }
    }

    par::set_num_threads(ambient);
    if g.failures > 0 {
        eprintln!("FAIL: {} trace invariant(s) violated", g.failures);
        std::process::exit(1);
    }
    println!("trace gate passed");
}
