//! The four workloads and the measurement loops they share.

pub mod heads;
pub mod oversample;
pub mod serve;
pub mod train;

use crate::host::{peak_rss_mb, Calibrator, CpuTimes, CALIB_REF_MS, THREAD_BUDGET};
use crate::report::{percentile, Outcome};
use crate::{Opts, WORKLOADS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs `workload` untraced and returns its end-to-end metrics, or
/// `None` for an unknown name. Compute runs under a one-thread budget.
pub fn run(workload: &str, opts: &Opts) -> Option<Outcome> {
    let run: fn(&Opts) -> Outcome = match workload {
        "train" => train::run,
        "heads" => heads::run,
        "oversample" => oversample::run,
        "serve" => serve::run,
        _ => return None,
    };
    Some(eos_tensor::par::with_thread_budget(THREAD_BUDGET, || {
        run(opts)
    }))
}

/// The traced run: every workload in turn, each with its calls into the
/// layers timed, reporting the per-layer metrics. Each workload measures
/// `opts.seconds / 8` untraced, then as long again traced.
pub fn traced(opts: &Opts) -> Outcome {
    let phase_s = (opts.seconds / 8.0).max(0.5);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    for w in WORKLOADS {
        let traced: fn(u64, f64) -> Outcome = match w {
            "train" => train::traced,
            "heads" => heads::traced,
            "oversample" => oversample::traced,
            _ => serve::traced,
        };
        let t0 = CpuTimes::now();
        let mut o =
            eos_tensor::par::with_thread_budget(THREAD_BUDGET, || traced(opts.seed, phase_s));
        o.push(
            format!("{w}.host.steal_pct"),
            CpuTimes::now().steal_pct_since(&t0),
        );
        out.absorb(o);
    }
    let order = crate::report::per_layer();
    out.metrics
        .sort_by_key(|m| order.iter().position(|(n, _)| *n == m.name));
    out
}

/// Least number of times an untraced run sets its workload up, before
/// its measured phase and again after it.
const SETUPS: usize = 3;

/// Least wall time an untraced run spends on repeated setups, before its
/// measured phase and again after it: a cheap setup (tens of ms) repeats
/// until this much time has passed.
const SETUP_MIN_S: f64 = 1.0;

/// Sets a workload up at least [`SETUPS`] times and for at least
/// [`SETUP_MIN_S`], keeping only the last state and calibrating after
/// each setup; returns the state with the fastest setup time in seconds.
fn setup_repeated<S>(setup: &mut impl FnMut() -> S, cal: &mut Calibrator) -> (S, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
        cal.burst();
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    (state.expect("at least one setup"), fastest)
}

/// An untraced run: sets the workload up, lets `measure` run its
/// measured phase (returning it and the ops it attempted), drops the
/// state and sets the workload up again. `setup_s` is the fastest setup
/// of both rounds. The host's speed shifts several times a second, and
/// can stay slow for several seconds; the fastest of setups taken at both
/// ends of the run follows its fast state, where a median would follow
/// the share of setups that happened to land in it. With
/// `to_reference`, the timings are reported at reference speed (see
/// [`end_to_end`]).
pub fn untraced<S>(
    to_reference: bool,
    mut setup: impl FnMut() -> S,
    measure: impl FnOnce(&mut S) -> (Measured, u64),
) -> Outcome {
    let mut cal = Calibrator::default();
    let (mut state, before) = setup_repeated(&mut setup, &mut cal);
    let (mut m, attempted) = measure(&mut state);
    drop(state);
    let (_, after) = setup_repeated(&mut setup, &mut cal);
    m.calib_ms.append(&mut cal.samples_ms);
    end_to_end(before.min(after), &m, attempted, to_reference)
}

/// Per-op latencies and failures of one measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Milliseconds of each op, in run order.
    pub op_ms: Vec<f64>,
    /// When each op ended, in seconds from the start of the phase.
    pub op_end_s: Vec<f64>,
    /// Ops that returned an error or failed their check.
    pub failed: u64,
    /// Length of the phase in seconds.
    pub span_s: f64,
    /// Ops ran one at a time, so throughput is ops per second of op time
    /// (which keeps the per-op checks out of it); otherwise it is
    /// completions per second of wall time.
    pub serial: bool,
    /// Ops in one round of the workload's op mix (0 counts as 1). A window
    /// ends only after a whole round, so each window holds the full mix.
    pub cycle: usize,
    /// Milliseconds of the host-speed calibrations made during the run.
    pub calib_ms: Vec<f64>,
}

impl Measured {
    /// Records one completed op.
    pub fn record(&mut self, ms: f64, end_s: f64) {
        self.op_ms.push(ms);
        self.op_end_s.push(end_s);
    }

    /// Ops completed per second over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        throughput(&self.op_ms, self.span_s, self.serial)
    }

    /// Splits the phase into windows of consecutive ops, in run order. A
    /// serial phase's window is one round of its op mix. A concurrent
    /// phase's completions arrive a batch at a time, so its window closes
    /// at the first completion at least [`WINDOW_S`] after it opened. Ops
    /// after the last full window are left out, unless the phase is too
    /// short for any window.
    fn windows(&self) -> Vec<Window> {
        let cycle = self.cycle.max(1);
        let min_s = if self.serial { 0.0 } else { WINDOW_S };
        let mut windows = Vec::new();
        let (mut open_s, mut first) = (0.0, 0);
        for (i, &end) in self.op_end_s.iter().enumerate() {
            if (i + 1) % cycle == 0 && end - open_s >= min_s {
                windows.push(self.window(first..i + 1, end - open_s));
                (open_s, first) = (end, i + 1);
            }
        }
        if windows.is_empty() && !self.op_ms.is_empty() {
            windows.push(self.window(0..self.op_ms.len(), self.span_s));
        }
        windows
    }

    fn window(&self, ops: std::ops::Range<usize>, wall_s: f64) -> Window {
        let ops = self.op_ms[ops].to_vec();
        Window {
            rate: throughput(&ops, wall_s, self.serial),
            wall_s,
            ops,
        }
    }

    /// Throughput and op milliseconds over the phase's fastest windows by
    /// throughput: the fastest [`FAST_SHARE`] of them, and more if those
    /// hold fewer than [`FAST_MIN_OPS`] ops. Also every window's
    /// throughput, in run order.
    pub fn fastest(&self) -> (f64, Vec<f64>, Vec<f64>) {
        let mut windows = self.windows();
        let all: Vec<f64> = windows.iter().map(|w| w.rate).collect();
        windows.sort_by(|a, b| b.rate.total_cmp(&a.rate));
        let share = (windows.len() as f64 * FAST_SHARE).round() as usize;
        let (mut keep, mut held) = (0, 0);
        while keep < windows.len() && (keep < share.max(1) || held < FAST_MIN_OPS) {
            held += windows[keep].ops.len();
            keep += 1;
        }
        let kept = &windows[..keep];
        let ops: Vec<f64> = kept.iter().flat_map(|w| w.ops.iter().copied()).collect();
        let wall_s = kept.iter().map(|w| w.wall_s).sum();
        let rate = throughput(&ops, wall_s, self.serial);
        (rate, ops, all)
    }
}

/// A stretch of consecutive ops of one phase.
struct Window {
    /// Throughput over the stretch.
    rate: f64,
    /// Wall time of the stretch in seconds.
    wall_s: f64,
    /// Milliseconds of each op in it.
    ops: Vec<f64>,
}

fn throughput(op_ms: &[f64], span_s: f64, serial: bool) -> f64 {
    let busy_s = if serial {
        op_ms.iter().sum::<f64>() / 1e3
    } else {
        span_s
    };
    op_ms.len() as f64 / busy_s
}

/// Runs `op` back to back for `seconds` of wall time, rounded up to a
/// whole number of `cycle`-op rounds of the workload's op mix, with a
/// host-speed calibration between rounds every so often. `op` returns
/// its own timed milliseconds (so its correctness check stays out of the
/// latency) and whether the check passed.
pub fn measure_serial(seconds: f64, cycle: usize, mut op: impl FnMut() -> (f64, bool)) -> Measured {
    let mut m = Measured {
        serial: true,
        cycle,
        ..Measured::default()
    };
    let mut cal = Calibrator::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || !m.op_ms.len().is_multiple_of(cycle) {
        let (ms, ok) = op();
        m.record(ms, start.elapsed().as_secs_f64());
        m.failed += u64::from(!ok);
        if m.op_ms.len().is_multiple_of(cycle) {
            cal.tick();
        }
    }
    m.span_s = start.elapsed().as_secs_f64();
    m.calib_ms = cal.samples_ms;
    m
}

/// Least length in seconds of a window of a concurrent phase (`serve`).
pub const WINDOW_S: f64 = 0.1;

/// Share of an untraced run's windows, fastest first, that its
/// throughput and latency figures are taken over.
pub const FAST_SHARE: f64 = 0.05;

/// Least number of ops the fastest windows must hold, so that
/// `op_p90_ms` has a few ops beyond it.
pub const FAST_MIN_OPS: usize = 25;

/// Median of the fastest [`FAST_SHARE`] of `ms`, and of more samples if
/// those are fewer than [`FAST_MIN_OPS`]: the calibration's time in the
/// host's fast state, by the same rule as the ops' figures.
fn fast_median(ms: &[f64]) -> f64 {
    let mut sorted = ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = ((ms.len() as f64 * FAST_SHARE).round() as usize)
        .max(FAST_MIN_OPS)
        .min(ms.len());
    percentile(&sorted[..keep], 50.0)
}

/// The end-to-end outcome of an untraced run that attempted `attempted`
/// ops (for a serial workload, every op it timed). The reference host's
/// speed shifts between a fast and a slow state many times a second,
/// and the share of time spent in each drifts from run to run. So
/// throughput and latency percentiles are taken over the ops of the
/// run's fastest windows (see [`Measured::fastest`]): they follow the
/// fast state instead of the share of the run spent in it. A slowdown of
/// every op still shows; a stall that hits only some rounds of the op
/// mix does not. The fast state itself drifts over minutes, so with
/// `to_reference` every timing is then scaled by [`CALIB_REF_MS`] over the
/// run's calibration time (see [`Calibrator`]): it reads as it would on
/// the reference host. A workload whose hot loop the calibration does not
/// track reports its timings as measured.
pub fn end_to_end(setup_s: f64, m: &Measured, attempted: u64, to_reference: bool) -> Outcome {
    let (rate, ops, all) = m.fastest();
    let (p50, p90) = (percentile(&ops, 50.0), percentile(&ops, 90.0));
    let calib = fast_median(&m.calib_ms);
    let scale = if to_reference {
        CALIB_REF_MS / calib
    } else {
        1.0
    };
    let mut o = Outcome {
        correct: m.failed == 0 && attempted > 0,
        attempted,
        failed: m.failed,
        ..Outcome::default()
    };
    let q: Vec<String> = [10.0, 50.0, 90.0]
        .iter()
        .map(|&p| format!("{:.4}", percentile(&all, p)))
        .collect();
    o.notes.push(format!(
        "windows {} (ops_per_s p10 p50 p90: {}); the fastest hold {} ops",
        all.len(),
        q.join(" "),
        ops.len()
    ));
    o.notes.push(format!(
        "calibration {calib:.4} ms over {} samples (reference {CALIB_REF_MS} ms); \
         as measured: setup_s {setup_s:.4} ops_per_s {rate:.4} op_p50_ms {p50:.4} \
         op_p90_ms {p90:.4}",
        m.calib_ms.len()
    ));
    o.push("setup_s", setup_s * scale);
    o.push("ops_per_s", rate / scale);
    o.push("op_p50_ms", p50 * scale);
    o.push("op_p90_ms", p90 * scale);
    o.push("peak_rss_mb", peak_rss_mb());
    o.push("ok_rate", 1.0 - m.failed as f64 / attempted.max(1) as f64);
    o
}

/// Percent by which traced throughput falls short of untraced.
pub fn overhead_pct(untraced_ops_per_s: f64, traced_ops_per_s: f64) -> f64 {
    100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s)
}

/// Percent of `whole` not covered by `parts`: how far the per-part
/// times of a split fall short of the undivided call they split.
pub fn split_gap_pct(whole: f64, parts: f64) -> f64 {
    100.0 * (whole - parts) / whole
}

/// Bitwise equality of two float slices.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Directory all scratch files of a run live under, relative to the
/// working directory; removed again when the last [`ScratchDir`] drops.
pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// A throwaway directory under [`SCRATCH_ROOT`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory tagged with the process id.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the root is empty, i.e. for the last one.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}
