//! Host facts stamped into the gate-written `results/BENCH_*.json`
//! records, so a timing can be read against the machine that produced
//! it: core count, thread budget, kernel dispatch and git revision.

use eos_neighbors::KnnKernel;
use eos_tensor::{par, wide_kernel_enabled};
use eos_trace::JsonRecord;
use std::path::Path;

/// Appends `host_cores`, `thread_budget` (the pool budget at the time of
/// the call), `kernel_dispatch` (`"avx2"` when the wide GEMM and conv
/// kernels dispatch, else `"scalar"`), `knn_dispatch` (the brute-force kNN
/// tier: `"avx512"`, `"avx2"` or `"scalar"`) and `git_rev` to `rec`.
pub fn record_host_facts(rec: &mut JsonRecord) -> &mut JsonRecord {
    let cores = host_cores();
    let dispatch = if wide_kernel_enabled() {
        "avx2"
    } else {
        "scalar"
    };
    rec.int("host_cores", cores as u64)
        .int("thread_budget", par::num_threads() as u64)
        .str("kernel_dispatch", dispatch)
        .str("knn_dispatch", KnnKernel::current().name())
        .str("git_rev", &git_rev())
}

/// The cores the process may run on (1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory or
/// an ancestor; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return read_head(&git).unwrap_or_else(|| "unknown".into());
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

/// Resolves `HEAD`: a detached hash as is, a branch through its loose
/// ref file or, failing that, `packed-refs`.
fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(String::from)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_render_as_valid_json() {
        let mut rec = JsonRecord::new();
        record_host_facts(&mut rec);
        let json = rec.render();
        eos_trace::validate(&json).unwrap();
        for key in [
            "host_cores",
            "thread_budget",
            "kernel_dispatch",
            "knn_dispatch",
            "git_rev",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "{key} missing: {json}"
            );
        }
    }

    #[test]
    fn packed_refs_resolve_a_branch() {
        let dir = std::env::temp_dir().join(format!("eos-host-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs with: peeled\nabc123 refs/heads/other\ndef456 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(read_head(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(read_head(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
