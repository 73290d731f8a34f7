//! The command line of `suite`, the experiment entry point.

use crate::tables;
use eos_core::Scale;
use eos_data::DATASET_NAMES;

/// Every flag `suite` accepts, in usage order.
const FLAGS: [&str; 10] = [
    "--scale",
    "--seed",
    "--datasets",
    "--only",
    "--no-cache",
    "--jobs",
    "--skip-runtime",
    "--bench",
    "--cache-gc",
    "--cache-cap",
];

/// Parsed command line:
/// `--scale smoke|small|medium --seed N --datasets a,b --only t,u
/// --no-cache --jobs J --skip-runtime --bench --cache-gc --cache-cap BYTES`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Dataset analogues to run (defaults to all four).
    pub datasets: Vec<&'static str>,
    /// Tables to run, by registry name (defaults to all of
    /// [`tables::ALL`]); they always run in registry order.
    pub only: Vec<&'static str>,
    /// Skip the on-disk artifact cache: train every backbone fresh and
    /// store nothing.
    pub no_cache: bool,
    /// Outer job-level parallelism: how many backbone trainings /
    /// experiment cells run concurrently (each gets `threads / jobs` of
    /// the `EOS_NUM_THREADS` budget for its inner ops). 1 is serial.
    pub jobs: usize,
    /// Skip the runtime table (its stdout prints wall-clock timings, so
    /// the byte-identity gates exclude it).
    pub skip_runtime: bool,
    /// Run the selected deterministic tables serially and at `--jobs`,
    /// compare outputs, and write `results/BENCH_suite.json` (implies
    /// `--skip-runtime`).
    pub bench: bool,
    /// Sweep the cache directory (orphans, stale locks, corrupt
    /// entries) and exit.
    pub cache_gc: bool,
    /// With `--cache-gc`: evict oldest entries until the cache fits
    /// under this many bytes.
    pub cache_cap: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Small,
            seed: 42,
            datasets: DATASET_NAMES.to_vec(),
            only: table_names(),
            no_cache: false,
            jobs: 1,
            skip_runtime: false,
            bench: false,
            cache_gc: false,
            cache_cap: None,
        }
    }
}

fn table_names() -> Vec<&'static str> {
    tables::ALL.iter().map(|t| t.name).collect()
}

/// Parses `flag`'s comma-separated list of `what` names, each one of
/// `choices` and none twice.
fn parse_list(
    flag: &str,
    what: &str,
    list: &str,
    choices: &[&'static str],
) -> Result<Vec<&'static str>, String> {
    let mut names = Vec::new();
    for part in list.split(',') {
        let name = choices
            .iter()
            .find(|&&n| n == part)
            .ok_or_else(|| format!("unknown {what} '{part}' (choices: {})", choices.join(", ")))?;
        if names.contains(name) {
            return Err(format!("duplicate {what} '{part}' in {flag}"));
        }
        names.push(*name);
    }
    Ok(names)
}

impl Args {
    /// Parses `std::env::args()`, exiting with a usage message on error.
    pub fn parse() -> Args {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument iterator (testable).
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    out.scale = Scale::parse(&v).ok_or_else(|| {
                        format!("unknown scale '{v}' (choices: {})", Scale::NAMES.join(", "))
                    })?;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                "--datasets" => {
                    let v = value("--datasets")?;
                    out.datasets = parse_list("--datasets", "dataset", &v, &DATASET_NAMES)?;
                }
                "--only" => {
                    let v = value("--only")?;
                    out.only = parse_list("--only", "table", &v, &table_names())?;
                }
                "--no-cache" => out.no_cache = true,
                "--jobs" => {
                    let v = value("--jobs")?;
                    let n: usize = v.parse().map_err(|_| format!("bad job count '{v}'"))?;
                    if n == 0 {
                        return Err("--jobs needs at least 1".into());
                    }
                    out.jobs = n;
                }
                "--skip-runtime" => out.skip_runtime = true,
                "--bench" => out.bench = true,
                "--cache-gc" => out.cache_gc = true,
                "--cache-cap" => {
                    let v = value("--cache-cap")?;
                    out.cache_cap = Some(v.parse().map_err(|_| format!("bad byte cap '{v}'"))?);
                }
                other => {
                    return Err(format!(
                        "unknown flag '{other}' (expected one of: {})",
                        FLAGS.join(", ")
                    ))
                }
            }
        }
        // The bench compares deterministic output only.
        out.skip_runtime |= out.bench;
        if tables::selected(&out).next().is_none() {
            return Err(
                "--only selects only runtime, which --skip-runtime and --bench drop".into(),
            );
        }
        Ok(out)
    }
}

fn usage() -> String {
    format!(
        "usage: suite [--scale {}] [--seed N] [--datasets {}] [--only {}] [--no-cache] \
         [--jobs J] [--skip-runtime] [--bench] [--cache-gc] [--cache-cap BYTES]",
        Scale::NAMES.join("|"),
        DATASET_NAMES.join(","),
        table_names().join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = Args::try_parse(strings(&[])).unwrap();
        assert_eq!(a.seed, 42);
        assert_eq!(a.datasets.len(), 4);
        assert_eq!(a.scale, Scale::Small);
        assert!(!a.no_cache);
    }

    #[test]
    fn full_flags() {
        let a = Args::try_parse(strings(&[
            "--scale",
            "medium",
            "--seed",
            "7",
            "--datasets",
            "svhn,celeba",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(a.scale, Scale::Medium);
        assert_eq!(a.seed, 7);
        assert_eq!(a.datasets, vec!["svhn", "celeba"]);
        assert!(a.no_cache);
    }

    #[test]
    fn smoke_scale_parses() {
        let a = Args::try_parse(strings(&["--scale", "smoke"])).unwrap();
        assert_eq!(a.scale, Scale::Smoke);
    }

    #[test]
    fn rejects_unknown_dataset_listing_choices() {
        let e = Args::try_parse(strings(&["--datasets", "mnist"])).unwrap_err();
        assert!(e.contains("mnist"));
        for name in DATASET_NAMES {
            assert!(e.contains(name), "choices missing {name}: {e}");
        }
    }

    #[test]
    fn rejects_unknown_scale_listing_choices() {
        let e = Args::try_parse(strings(&["--scale", "huge"])).unwrap_err();
        assert!(e.contains("huge") && e.contains("smoke") && e.contains("medium"));
    }

    #[test]
    fn rejects_unknown_flag_listing_flags() {
        let e = Args::try_parse(strings(&["--fast"])).unwrap_err();
        assert!(e.contains("--fast"));
        for flag in FLAGS {
            assert!(e.contains(flag), "flag list missing {flag}: {e}");
        }
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Args::try_parse(strings(&["--seed"])).is_err());
    }

    #[test]
    fn parallel_and_cache_flags() {
        let a = Args::try_parse(strings(&[
            "--jobs",
            "4",
            "--skip-runtime",
            "--bench",
            "--cache-gc",
            "--cache-cap",
            "1048576",
        ]))
        .unwrap();
        assert_eq!(a.jobs, 4);
        assert!(a.skip_runtime && a.bench && a.cache_gc);
        assert_eq!(a.cache_cap, Some(1_048_576));
    }

    #[test]
    fn rejects_zero_or_garbage_jobs() {
        assert!(Args::try_parse(strings(&["--jobs", "0"])).is_err());
        assert!(Args::try_parse(strings(&["--jobs", "many"])).is_err());
        assert!(Args::try_parse(strings(&["--cache-cap", "big"])).is_err());
    }

    #[test]
    fn only_selects_known_tables() {
        let a = Args::try_parse(strings(&["--only", "fig7,table2"])).unwrap();
        assert_eq!(a.only, vec!["fig7", "table2"]);
        assert_eq!(Args::default().only.len(), tables::ALL.len());
    }

    #[test]
    fn rejects_unknown_table_listing_every_name() {
        let e = Args::try_parse(strings(&["--only", "table9"])).unwrap_err();
        assert!(e.contains("table9"));
        for t in &tables::ALL {
            assert!(e.contains(t.name), "choices missing {}: {e}", t.name);
        }
    }

    #[test]
    fn rejects_an_empty_only_list() {
        assert!(Args::try_parse(strings(&["--only", ""])).is_err());
        assert!(Args::try_parse(strings(&["--only"])).is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let e = Args::try_parse(strings(&["--datasets", "celeba,celeba"])).unwrap_err();
        assert!(e.contains("duplicate") && e.contains("celeba"), "{e}");
        let e = Args::try_parse(strings(&["--only", "fig3,table1,fig3"])).unwrap_err();
        assert!(e.contains("duplicate") && e.contains("fig3"), "{e}");
    }

    #[test]
    fn rejects_a_selection_skip_runtime_empties() {
        let e = Args::try_parse(strings(&["--only", "runtime", "--skip-runtime"])).unwrap_err();
        assert!(e.contains("--skip-runtime"), "{e}");
        assert!(Args::try_parse(strings(&["--only", "runtime", "--bench"])).is_err());
        assert!(Args::try_parse(strings(&["--only", "runtime,fig4", "--skip-runtime"])).is_ok());
    }

    #[test]
    fn usage_names_suite_and_every_flag() {
        let u = usage();
        assert!(
            u.starts_with("usage: suite ") && !u.contains("<bin>"),
            "{u}"
        );
        assert!(FLAGS.contains(&"--only"));
        for flag in FLAGS {
            assert!(u.contains(flag), "usage missing {flag}: {u}");
        }
    }
}
