//! The paper reproduction's one entry point: every table, every figure,
//! the ablations and the run-time study, in the registry order of
//! [`tables::ALL`] — or just the entries `--only table2,fig4` names, still
//! in registry order.
//!
//! The suite first collects the selected tables' backbone plans, dedupes
//! the shared trainings and prewarms the artifact cache (e.g. the
//! per-dataset × per-loss backbones of Tables II/III and Figures 3/5 are
//! each trained once, not four times), then runs the tables. On a rerun
//! every backbone comes out of the cache and only the cheap head
//! fine-tunes execute; outputs are byte-identical either way — including
//! under `--jobs N`, where independent trainings and table groups run
//! concurrently on the job scheduler. A table's stdout and CSVs are the
//! same whether it runs alone or with the others.
//!
//! ```text
//! cargo run --release --bin suite -- --scale small --seed 42 --jobs 4
//! cargo run --release --bin suite -- --only table2 --datasets celeba
//! ```
//!
//! Special modes:
//!
//! - `--bench` runs the selected deterministic tables twice in-process —
//!   serial, then at `--jobs` — each pass against its own cold throwaway
//!   cache, compares every CSV they write byte-for-byte (a CSV missing
//!   after either pass fails the bench), and writes the wall-clock split
//!   and the host facts to `results/BENCH_suite.json`. When the parallel
//!   pass runs more threads than the host has cores it warns, and the
//!   record says `"oversubscribed": true`.
//! - `--cache-gc [--cache-cap BYTES]` sweeps `$EOS_CACHE_DIR` and its
//!   `ckpt/` and `journal/` subdirectories (orphaned temp files, stale
//!   `.lock` files, corrupt entries, oldest entries over the cap), prints
//!   what was kept and reclaimed, and exits.

use eos_bench::exp::{job_budget, report_failure};
use eos_bench::{
    format_duration, host_cores, record_host_facts, tables, Args, ArtifactCache, BackbonePlan,
    Engine, EngineError, JsonRecord, MarkdownTable,
};
use std::path::Path;
use std::time::Instant;

/// Prewarms and runs the selected tables in registry order. A failed
/// table is isolated: its surviving cells are journaled, its error is
/// collected, and the remaining tables still run. Returns the (prewarm,
/// tables) wall-clock split in seconds plus the per-table failures.
fn run_suite(eng: &Engine, args: &Args) -> (f64, f64, Vec<(&'static str, EngineError)>) {
    let plans: Vec<BackbonePlan> = tables::selected(args)
        .flat_map(|t| (t.plan)(args))
        .collect();
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
    for table in tables::selected(args) {
        if let Err(e) = (table.run)(eng, args) {
            eprintln!(
                "[suite] {} FAILED; continuing with the remaining tables",
                table.name
            );
            failures.push((table.name, e));
        }
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

/// Each named CSV's bytes after one pass (`None`: the pass did not
/// write it).
type Csvs = [Option<Vec<u8>>];

/// True when every CSV was written by both passes with identical bytes;
/// names each missing or mismatched file on stderr.
fn csvs_identical(names: &[&str], serial: &Csvs, parallel: &Csvs) -> bool {
    let mut identical = true;
    for ((name, serial), parallel) in names.iter().zip(serial).zip(parallel) {
        match (serial, parallel) {
            (Some(a), Some(b)) if a == b => {}
            (Some(_), Some(_)) => {
                identical = false;
                eprintln!("[suite] bench: MISMATCH in {name}.csv between serial and parallel");
            }
            _ => {
                identical = false;
                eprintln!("[suite] bench: {name}.csv MISSING after a pass");
            }
        }
    }
    identical
}

/// `--bench`: the selected deterministic tables serially and at
/// `--jobs`, each pass on a cold private cache and with their CSVs
/// deleted first; byte-compares the CSVs and records the wall-clock
/// split and host facts in `results/BENCH_suite.json`, flagging a
/// parallel pass that runs more threads than the host has cores.
fn run_bench(args: &Args) {
    let csv_names: Vec<&str> = tables::selected(args)
        .flat_map(|t| t.csvs.iter().copied())
        .collect();
    let csv_path = |name: &str| Path::new("results").join(format!("{name}.csv"));
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
        for name in &csv_names {
            let _ = std::fs::remove_file(csv_path(name));
        }
        let eng = Engine::with_cache(args.scale, args.seed, Some(ArtifactCache::at(&dir)))
            .with_jobs(jobs);
        eprintln!("[suite] bench pass '{label}' (jobs {jobs}, cold cache) ...");
        let before = trained(&eos_trace::snapshot());
        let t0 = Instant::now();
        let (prewarm, tables_s, failures) = run_suite(&eng, args);
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
        let csvs: Vec<Option<Vec<u8>>> = csv_names
            .iter()
            .map(|name| std::fs::read(csv_path(name)).ok())
            .collect();
        eprintln!(
            "[suite] bench pass '{label}': prewarm {prewarm:.2}s, tables {tables_s:.2}s, \
             total {total:.2}s, {trained_now} backbones trained"
        );
        (prewarm, tables_s, total, trained_now, csvs)
    };

    let (s_prewarm, s_tables, s_total, s_trained, s_csvs) = pass("serial", 1);
    let (p_prewarm, p_tables, p_total, p_trained, p_csvs) = pass("parallel", args.jobs);
    let identical = csvs_identical(&csv_names, &s_csvs, &p_csvs);

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
        .int("csv_files", csv_names.len() as u64);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn same(serial: &[Option<&[u8]>], parallel: &[Option<&[u8]>]) -> bool {
        let own = |pass: &[Option<&[u8]>]| -> Vec<Option<Vec<u8>>> {
            pass.iter().map(|c| c.map(<[u8]>::to_vec)).collect()
        };
        let names = vec!["t"; serial.len()];
        csvs_identical(&names, &own(serial), &own(parallel))
    }

    #[test]
    fn a_csv_must_exist_in_both_passes_with_equal_bytes() {
        let (a, b): (&[u8], &[u8]) = (b"a,b", b"a,c");
        assert!(same(&[Some(a)], &[Some(a)]));
        assert!(!same(&[Some(a)], &[Some(b)]));
        assert!(!same(&[None], &[None]));
        assert!(!same(&[Some(a)], &[None]));
        assert!(!same(&[None], &[Some(a)]));
        assert!(!same(&[Some(a), Some(a)], &[Some(a), None]));
    }
}
