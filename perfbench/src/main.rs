//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <train|heads|oversample|serve|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures one workload untraced and reports its end-to-end
//! metrics; `--trace 1` runs the traced pass of every workload and
//! reports the per-layer metrics. `--workload all` runs each workload
//! `BENCHMARK.json` keeps untraced in a fresh process of its own, one
//! after another. A run whose outputs fail a check exits nonzero. Prints the
//! host facts, one line per metric (name, value, unit) and, last, the
//! JSON result line.

use perfbench::report::Outcome;
use perfbench::{host, workloads, Opts, KEPT, WORKLOADS};
use std::process::{Command, ExitCode};

struct Cli {
    workload: String,
    trace: bool,
    opts: Opts,
}

const USAGE: &str = "usage: perfbench --workload <train|heads|oversample|serve|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        trace: false,
        opts: Opts {
            seed: 1,
            seconds: 10.0,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cli.opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(cli.opts.seconds > 0.0 && cli.opts.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("unknown workload '{}'", cli.workload));
    }
    Ok(cli)
}

/// Runs each kept workload untraced in a fresh child process, prints the
/// child's lines, and totals the op counts and correctness.
fn run_all(cli: &Cli) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for w in KEPT {
        let out = Command::new(&exe)
            .args(["--workload", w, "--trace", "0"])
            .args(["--seed", &cli.opts.seed.to_string()])
            .args(["--seconds", &cli.opts.seconds.to_string()])
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("{w} exited with {}", out.status));
        }
        println!("== {w}");
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        all.attempted += field("attempted");
        all.failed += field("failed");
        all.correct &= last.starts_with("{\"correct\": true");
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let before = host::CpuTimes::now();
    let outcome = if cli.trace {
        workloads::traced(&cli.opts)
    } else if cli.workload == "all" {
        match run_all(&cli) {
            Ok(o) => {
                println!(
                    "all workloads: attempted {} failed {} error_rate {}",
                    o.attempted,
                    o.failed,
                    o.failed as f64 / o.attempted.max(1) as f64
                );
                return if o.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        workloads::run(&cli.workload, &cli.opts).expect("workload name validated")
    };
    let steal = host::CpuTimes::now().steal_pct_since(&before);
    println!("host {}", host::facts_json(steal));
    print!("{}", outcome.table());
    println!(
        "{:<40} {:>14.4} ratio",
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
