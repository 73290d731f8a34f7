//! A CSV that cannot be written is a typed error, and the suite reports
//! it like a failed table: FAILURE REPORT on stderr, exit status 1.
//!
//! Both scenarios work in a directory where `results` is a regular file,
//! so `results/<name>.csv` cannot be created. This is its own test binary
//! because the first scenario changes the process-wide working directory.

use eos_bench::exp::EngineError;
use eos_bench::{tables, MarkdownTable};
use std::path::PathBuf;
use std::process::Command;

/// A fresh directory whose `results` entry is a regular file.
fn blocked_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eos_results_write_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("results"), b"not a directory").unwrap();
    dir
}

#[test]
fn emit_returns_an_io_error_naming_the_csv() {
    let dir = blocked_dir("emit");
    std::env::set_current_dir(&dir).unwrap();
    let mut table = MarkdownTable::new(&["a"]);
    table.row(vec!["1".into()]);
    match tables::emit("probe", &table, "", "probe") {
        Err(EngineError::Io { what, .. }) => assert_eq!(what, "write results/probe.csv"),
        other => panic!("expected an io error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_fails_a_table_whose_csv_cannot_be_written() {
    let dir = blocked_dir("suite");
    let out = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--scale", "smoke", "--seed", "42", "--datasets", "celeba"])
        .args(["--only", "fig4", "--no-cache"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("[fig4] FAILURE REPORT"), "stderr: {stderr}");
    assert!(
        stderr.contains("[io] io error during write results/fig4.csv"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
