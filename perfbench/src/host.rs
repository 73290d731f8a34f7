//! Host facts recorded with every run, so a noisy figure can be traced
//! to the machine rather than to the change: core count, thread budget,
//! AVX2 dispatch, git revision, CPU steal and the process's peak RSS;
//! and the calibration that tracks the host's speed during a run.

use std::path::Path;
use std::time::Instant;

/// Thread budget every workload's compute runs under.
pub const THREAD_BUDGET: usize = 1;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the GEMM micro-kernel's AVX2 path can be dispatched here.
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The checked-out commit, read from `.git` in the working directory or
/// an ancestor; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
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

/// Aggregate CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the `cpu` line of `/proc/stat` (zeros where unavailable).
    pub fn now() -> CpuTimes {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTimes::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTimes::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            // user nice system idle iowait irq softirq steal [guest ...];
            // guest time is already counted in user.
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Percent of CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host-facts line printed before every result.
pub fn facts_json(steal_pct: f64) -> String {
    format!(
        "{{\"nproc\": {}, \"thread_budget\": {}, \"avx2\": {}, \"git_rev\": \"{}\", \"steal_pct\": {}}}",
        nproc(),
        THREAD_BUDGET,
        avx2(),
        eos_trace::escape(&git_rev()),
        steal_pct
    )
}

/// Side of the calibration kernel's square matrices.
const CALIB_N: usize = 96;

/// Matrix products in one calibration.
const CALIB_REPS: usize = 4;

/// Milliseconds one calibration takes on the reference host (a 2-vCPU
/// Intel Xeon VM at 2.0 GHz) in its fast state. Timing metrics are
/// reported at this speed.
pub const CALIB_REF_MS: f64 = 0.33;

/// Least seconds between two bursts of calibrations in a measured phase.
const CALIB_EVERY_S: f64 = 0.05;

/// Calibrations in one burst.
const CALIB_BURST: usize = 4;

/// Tracks the host's speed with a fixed f32 matrix product of the
/// benchmark's own, timed between ops. On the reference host the slow
/// stretches that other tenants cause slow this kernel about as much as
/// they slow the workloads' vectorised compute, and can last minutes, far
/// longer than a run. No change to the program changes the kernel's cost,
/// so its time over [`CALIB_REF_MS`] measures the host and not the
/// program.
pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    last: Option<Instant>,
    /// Milliseconds of every calibration so far.
    pub samples_ms: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let fill = |m: usize, s: f32| (0..CALIB_N * CALIB_N).map(|i| (i % m) as f32 * s).collect();
        Calibrator {
            a: fill(17, 0.01),
            b: fill(13, 0.02),
            c: vec![0.0; CALIB_N * CALIB_N],
            last: None,
            samples_ms: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Runs [`CALIB_BURST`] calibrations.
    pub fn burst(&mut self) {
        for _ in 0..CALIB_BURST {
            let ms = self.once();
            self.samples_ms.push(ms);
        }
        self.last = Some(Instant::now());
    }

    /// Runs a burst unless the last one is less than [`CALIB_EVERY_S`]
    /// old.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= CALIB_EVERY_S)
        {
            self.burst();
        }
    }

    /// One calibration: `CALIB_REPS` products `c = a·b`; its milliseconds.
    fn once(&mut self) -> f64 {
        let n = CALIB_N;
        let t0 = Instant::now();
        for _ in 0..CALIB_REPS {
            self.c.fill(0.0);
            for (a_row, c_row) in self.a.chunks_exact(n).zip(self.c.chunks_exact_mut(n)) {
                for (&aik, b_row) in a_row.iter().zip(self.b.chunks_exact(n)) {
                    for (c, &b) in c_row.iter_mut().zip(b_row) {
                        *c += aik * b;
                    }
                }
            }
            std::hint::black_box(&mut self.c);
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}
