//! The full paper reproduction in one command: every table, every
//! figure, the ablations and the run-time study.
//!
//! The suite first collects every table's backbone plan, dedupes the
//! shared trainings and prewarms the artifact cache (e.g. the per-dataset
//! × per-loss backbones of Tables II/III and Figures 3/5 are each trained
//! once, not four times), then runs the tables in paper order. On a rerun
//! every backbone comes out of the cache and only the cheap head
//! fine-tunes execute; outputs are byte-identical either way — including
//! under `--jobs N`, where independent trainings and table groups run
//! concurrently on the job scheduler.
//!
//! ```text
//! cargo run --release --bin suite -- --scale small --seed 42 --jobs 4
//! ```
//!
//! Special modes:
//!
//! - `--bench` runs the whole deterministic pipeline twice in-process —
//!   serial, then at `--jobs` — each pass against its own cold throwaway
//!   cache, compares every produced CSV byte-for-byte, and writes the
//!   wall-clock split and the host facts to `results/BENCH_suite.json`.
//!   When the parallel pass runs more threads than the host has cores it
//!   warns, and the record says `"oversubscribed": true`.
//! - `--cache-gc [--cache-cap BYTES]` sweeps `$EOS_CACHE_DIR` and its
//!   `ckpt/` and `journal/` subdirectories (orphaned temp files, stale
//!   `.lock` files, corrupt entries, oldest entries over the cap), prints
//!   what was kept and reclaimed, and exits.

use eos_bench::exp::{job_budget, report_failure};
use eos_bench::{
    format_duration, host_cores, record_host_facts, tables, Args, ArtifactCache, BackbonePlan,
    Engine, EngineError, JsonRecord, MarkdownTable,
};
use std::time::Instant;

/// Every CSV the deterministic pipeline writes (runtime's timing CSVs are
/// excluded — that table is skipped under `--bench`).
const CSV_NAMES: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig3",
    "fig4",
    "fig5",
    "fig6_summary",
    "fig6_coords",
    "fig7",
    "gap_eos",
    "pixel_eos",
    "ablation_direction",
    "ablation_gap_definition",
    "ablation_decoupling",
];

fn collect_plans(args: &Args) -> Vec<BackbonePlan> {
    let mut plans: Vec<BackbonePlan> = Vec::new();
    for plan in [
        tables::table1::plan,
        tables::table2::plan,
        tables::table3::plan,
        tables::table4::plan,
        tables::table5::plan,
        tables::fig3::plan,
        tables::fig4::plan,
        tables::fig5::plan,
        tables::fig6::plan,
        tables::fig7::plan,
        tables::gap_eos::plan,
        tables::pixel_eos::plan,
        tables::ablations::plan,
    ] {
        plans.extend(plan(args));
    }
    plans
}

/// One table module's `run` entry point.
type TableRun = fn(&Engine, &Args) -> Result<(), EngineError>;

/// Prewarms and runs every table in paper order. A failed table is
/// isolated: its surviving cells are journaled, its error is collected,
/// and the remaining tables still run. Returns the (prewarm, tables)
/// wall-clock split in seconds plus the per-table failures.
fn run_suite(eng: &Engine, args: &Args) -> (f64, f64, Vec<(&'static str, EngineError)>) {
    let plans = collect_plans(args);
    eprintln!(
        "[suite] prewarming {} planned backbones (deduped through the cache, {} job{}) ...",
        plans.len(),
        eng.jobs,
        if eng.jobs == 1 { "" } else { "s" },
    );
    let t0 = Instant::now();
    eng.prewarm(&plans);
    let prewarm = t0.elapsed().as_secs_f64();
    eprintln!("[suite] backbones ready; producing tables and figures ...");
    let t1 = Instant::now();
    let mut failures: Vec<(&'static str, EngineError)> = Vec::new();
    let runs: [(&'static str, TableRun); 13] = [
        ("table1", tables::table1::run),
        ("table2", tables::table2::run),
        ("table3", tables::table3::run),
        ("table4", tables::table4::run),
        ("table5", tables::table5::run),
        ("fig3", tables::fig3::run),
        ("fig4", tables::fig4::run),
        ("fig5", tables::fig5::run),
        ("fig6", tables::fig6::run),
        ("fig7", tables::fig7::run),
        ("gap_eos", tables::gap_eos::run),
        ("pixel_eos", tables::pixel_eos::run),
        ("ablations", tables::ablations::run),
    ];
    for (name, run) in runs {
        if let Err(e) = run(eng, args) {
            eprintln!("[suite] {name} FAILED; continuing with the remaining tables");
            failures.push((name, e));
        }
    }
    // Last: the run-time study times fresh trainings by design, and its
    // stdout carries wall-clock numbers — skippable so byte-identity
    // comparisons across job counts stay meaningful.
    if !args.skip_runtime {
        tables::runtime::run(args);
    }
    (prewarm, t1.elapsed().as_secs_f64(), failures)
}

/// `--cache-gc`: sweep the cache directory and report, without running
/// any experiment.
fn run_cache_gc(args: &Args) {
    let cache = ArtifactCache::at_default();
    println!("cache gc: {}", cache.dir().display());
    let report = match cache.gc(args.cache_cap) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cache gc failed: {e}");
            std::process::exit(1);
        }
    };
    if !report.removed.is_empty() {
        let mut removed = MarkdownTable::new(&["Removed", "Bytes", "Age", "Reason"]);
        for (entry, why) in &report.removed {
            removed.row(vec![
                entry.name.clone(),
                entry.bytes.to_string(),
                format_duration(entry.age),
                (*why).into(),
            ]);
        }
        println!("\n{}", removed.render());
    }
    if !report.kept.is_empty() {
        let mut kept = MarkdownTable::new(&["Kept", "Bytes", "Age"]);
        for entry in &report.kept {
            kept.row(vec![
                entry.name.clone(),
                entry.bytes.to_string(),
                format_duration(entry.age),
            ]);
        }
        println!("\n{}", kept.render());
    }
    println!(
        "kept {} entries ({} bytes), removed {} files, reclaimed {} bytes",
        report.kept.len(),
        report.kept_bytes(),
        report.removed.len(),
        report.reclaimed_bytes,
    );
}

/// `--bench`: the deterministic pipeline serially and at `--jobs`, each
/// pass on a cold private cache; byte-compares the CSVs and records the
/// wall-clock split and host facts in `results/BENCH_suite.json`, flagging
/// a parallel pass that runs more threads than the host has cores.
fn run_bench(args: &Args) {
    let mut args = args.clone();
    args.skip_runtime = true;
    let threads = eos_tensor::par::num_threads();
    let jobs = args.jobs.max(1);
    let (in_flight, cores) = (jobs * job_budget(threads, jobs), host_cores());
    let oversubscribed = in_flight > cores;
    if oversubscribed {
        eprintln!(
            "[suite] bench: WARNING: {} jobs on a budget of {threads} threads run {in_flight} \
             threads on {cores} host cores; the parallel pass is oversubscribed and its \
             speedup does not measure the scheduler",
            args.jobs
        );
    }
    let trained = |snap: &eos_trace::Snapshot| snap.counter("exp.backbone.trained");

    let pass = |label: &str, jobs: usize| {
        let dir =
            std::env::temp_dir().join(format!("eos_suite_bench_{}_{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let eng = Engine::with_cache(args.scale, args.seed, Some(ArtifactCache::at(&dir)))
            .with_jobs(jobs);
        eprintln!("[suite] bench pass '{label}' (jobs {jobs}, cold cache) ...");
        let before = trained(&eos_trace::snapshot());
        let t0 = Instant::now();
        let (prewarm, tables_s, failures) = run_suite(&eng, &args);
        if !failures.is_empty() {
            for (name, e) in &failures {
                report_failure(name, e);
            }
            eprintln!("[suite] bench pass '{label}' had table failures; aborting");
            std::process::exit(1);
        }
        let total = t0.elapsed().as_secs_f64();
        let trained_now = trained(&eos_trace::snapshot()) - before;
        let _ = std::fs::remove_dir_all(&dir);
        let csvs: Vec<(String, Option<Vec<u8>>)> = CSV_NAMES
            .iter()
            .map(|name| {
                let path = std::path::Path::new("results").join(format!("{name}.csv"));
                (name.to_string(), std::fs::read(path).ok())
            })
            .collect();
        eprintln!(
            "[suite] bench pass '{label}': prewarm {prewarm:.2}s, tables {tables_s:.2}s, \
             total {total:.2}s, {trained_now} backbones trained"
        );
        (prewarm, tables_s, total, trained_now, csvs)
    };

    let (s_prewarm, s_tables, s_total, s_trained, s_csvs) = pass("serial", 1);
    let (p_prewarm, p_tables, p_total, p_trained, p_csvs) = pass("parallel", args.jobs);

    let mut identical = true;
    for ((name, serial), (_, parallel)) in s_csvs.iter().zip(&p_csvs) {
        match (serial, parallel) {
            (Some(a), Some(b)) if a == b => {}
            (None, None) => eprintln!("[suite] bench: {name}.csv missing in both passes"),
            _ => {
                identical = false;
                eprintln!("[suite] bench: MISMATCH in {name}.csv between serial and parallel");
            }
        }
    }

    let speedup = if p_total > 0.0 {
        s_total / p_total
    } else {
        0.0
    };
    let mut rec = JsonRecord::new();
    rec.str("bench", "suite");
    record_host_facts(&mut rec)
        .str("scale", &format!("{:?}", args.scale))
        .int("seed", args.seed)
        .int("jobs", args.jobs as u64)
        .int("job_threads", in_flight as u64)
        .bool("oversubscribed", oversubscribed)
        .num("serial_prewarm_s", s_prewarm)
        .num("serial_tables_s", s_tables)
        .num("serial_total_s", s_total)
        .int("serial_backbones_trained", s_trained)
        .num("parallel_prewarm_s", p_prewarm)
        .num("parallel_tables_s", p_tables)
        .num("parallel_total_s", p_total)
        .int("parallel_backbones_trained", p_trained)
        .num("speedup", speedup)
        .bool("csv_identical", identical)
        .int("csv_files", CSV_NAMES.len() as u64);
    rec.write("BENCH_suite");
    println!(
        "suite bench — serial {s_total:.2}s vs {} jobs {p_total:.2}s: {speedup:.2}x speedup, \
         CSVs {}",
        args.jobs,
        if identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    );
    if !identical {
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::parse();
    if args.cache_gc {
        run_cache_gc(&args);
        return;
    }
    if args.bench {
        run_bench(&args);
        return;
    }
    let eng = Engine::new(&args);
    let (prewarm, tables_s, failures) = run_suite(&eng, &args);
    eprintln!("[suite] wall clock: prewarm {prewarm:.2}s, tables {tables_s:.2}s");
    eng.finish("suite");
    if !failures.is_empty() {
        for (name, e) in &failures {
            report_failure(name, e);
        }
        eprintln!(
            "[suite] {} table(s) failed; completed cells are journaled — rerun to resume",
            failures.len()
        );
        std::process::exit(1);
    }
}
