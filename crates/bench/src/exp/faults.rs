//! Deterministic fault injection for the experiment engine.
//!
//! The `EOS_FAULTS` environment variable carries a comma-separated list
//! of fault rules, each `point:trigger:kind`:
//!
//! ```text
//! EOS_FAULTS='cache.write:3:io'          # 3rd cache write fails with EIO
//! EOS_FAULTS='cell:fig6/SMOTE:panic'     # every fig6/SMOTE cell panics
//! EOS_FAULTS='cell:4:abort'              # the process aborts at the 4th
//!                                        # cell boundary (simulated kill)
//! EOS_FAULTS='train:p0.25@7:diverge'     # each training diverges with
//!                                        # p=0.25 on a seeded draw
//! ```
//!
//! - **point** — where the fault fires: `cache.read`, `cache.write`,
//!   `cache.claim`, `train` (once per backbone training, before it
//!   starts), `train.epoch` (at every completed epoch boundary, after
//!   the checkpoint save — `train.epoch:2:abort` is the mid-training
//!   kill of the resume gate), or `cell`.
//! - **trigger** — `N` (digits: fires exactly on the N-th hit of that
//!   point, counted per process), `pP[@SEED]` (seeded probabilistic:
//!   fires on each hit with probability `P`, drawn deterministically
//!   from the hit index), or any other string (fires on every hit whose
//!   label contains it as a substring; cells are labelled
//!   `table/job`, cache points by the backbone fingerprint hex).
//! - **kind** — `io` (transient-looking IO error, absorbed by the retry
//!   policy if it stops recurring), `corrupt` (an `InvalidData` error,
//!   never retried), `panic`, `diverge` (train point: a synthetic
//!   non-finite loss), or `abort` (immediate `process::abort`, the
//!   deterministic stand-in for `kill -9` in the resume gate).
//!
//! Injections are deterministic: the N-th-hit counters advance exactly
//! the same way in any serial rerun, and the probabilistic mode draws
//! from `(seed, point, hit)` — never from wall-clock or OS entropy.
//! Every firing ticks `exp.fault.injected` (plus a per-point counter)
//! and logs to stderr, so healed runs are auditable.
//!
//! [`retry_io`] is the matching bounded retry-with-backoff policy used
//! by the cache paths: transient IO errors are retried a fixed number of
//! times (ticking `exp.fault.retry`), `InvalidData` (corruption) is not.

use eos_tensor::record::Fnv;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The injection points, in spec order.
pub const FAULT_POINTS: [&str; 6] = [
    "cache.read",
    "cache.write",
    "cache.claim",
    "train",
    "train.epoch",
    "cell",
];

/// IO retry policy: attempts per operation (1 initial + 2 retries).
pub const IO_ATTEMPTS: u32 = 3;

/// What an injected fault does at its injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient-looking `io::Error` (retryable).
    Io,
    /// An `InvalidData` error — the corruption class, never retried.
    Corrupt,
    /// A plain panic, exercising the scheduler's per-task isolation.
    Panic,
    /// A synthetic non-finite training loss (train point only).
    Diverge,
    /// `process::abort()` — the deterministic kill for the resume gate.
    Abort,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Io => "io",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Panic => "panic",
            FaultKind::Diverge => "diverge",
            FaultKind::Abort => "abort",
        }
    }
}

#[derive(Debug, Clone)]
enum Trigger {
    /// Fires exactly on the N-th hit of the point (1-based).
    Nth(u64),
    /// Fires on every hit whose label contains the substring.
    Label(String),
    /// Fires with probability `p` on a draw seeded by (seed, point, hit).
    Prob { p: f64, seed: u64 },
}

#[derive(Debug, Clone)]
struct FaultRule {
    point: usize,
    trigger: Trigger,
    kind: FaultKind,
}

/// A parsed fault plan with per-point hit counters. An empty plan (the
/// production default) costs one atomic increment per injection point.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    hits: [AtomicU64; FAULT_POINTS.len()],
}

impl FaultPlan {
    /// The no-faults plan.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True when no rules are armed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses a spec string (the `EOS_FAULTS` grammar above).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut fields = part.splitn(3, ':');
            let (point, trigger, kind) = match (fields.next(), fields.next(), fields.next()) {
                (Some(p), Some(t), Some(k)) => (p, t, k),
                _ => return Err(format!("fault rule '{part}' is not point:trigger:kind")),
            };
            let point = FAULT_POINTS
                .iter()
                .position(|&name| name == point)
                .ok_or_else(|| {
                    format!(
                        "unknown fault point '{point}' (choices: {})",
                        FAULT_POINTS.join(", ")
                    )
                })?;
            let trigger = if trigger.bytes().all(|b| b.is_ascii_digit()) && !trigger.is_empty() {
                let n: u64 = trigger
                    .parse()
                    .map_err(|_| format!("bad hit index '{trigger}'"))?;
                if n == 0 {
                    return Err("hit indices are 1-based; use 1 for the first hit".into());
                }
                Trigger::Nth(n)
            } else if let Some(prob) = trigger.strip_prefix('p') {
                let (p_str, seed_str) = match prob.split_once('@') {
                    Some((p, s)) => (p, Some(s)),
                    None => (prob, None),
                };
                match p_str.parse::<f64>() {
                    Ok(p) if (0.0..=1.0).contains(&p) => {
                        let seed = match seed_str {
                            Some(s) => s
                                .parse()
                                .map_err(|_| format!("bad probability seed '{s}'"))?,
                            None => 0,
                        };
                        Trigger::Prob { p, seed }
                    }
                    // 'p...' that is not a probability is a label match.
                    _ => Trigger::Label(trigger.to_string()),
                }
            } else {
                Trigger::Label(trigger.to_string())
            };
            let kind = match kind {
                "io" => FaultKind::Io,
                "corrupt" => FaultKind::Corrupt,
                "panic" => FaultKind::Panic,
                "diverge" => FaultKind::Diverge,
                "abort" => FaultKind::Abort,
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (choices: io, corrupt, panic, diverge, abort)"
                    ))
                }
            };
            plan.rules.push(FaultRule {
                point,
                trigger,
                kind,
            });
        }
        Ok(plan)
    }

    /// Parses `$EOS_FAULTS`; unset or empty means no faults.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("EOS_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec),
            _ => Ok(FaultPlan::empty()),
        }
    }

    /// Records a hit at `point` and returns the armed fault kind if a
    /// rule fires. `label` identifies the work item for label-matched
    /// rules and the stderr audit line.
    pub fn fire(&self, point: &str, label: &str) -> Option<FaultKind> {
        let idx = FAULT_POINTS
            .iter()
            .position(|&name| name == point)
            .unwrap_or_else(|| panic!("unknown fault point '{point}'"));
        let hit = self.hits[idx].fetch_add(1, Ordering::SeqCst) + 1;
        if self.rules.is_empty() {
            return None;
        }
        let kind = self.rules.iter().find_map(|rule| {
            if rule.point != idx {
                return None;
            }
            let fires = match &rule.trigger {
                Trigger::Nth(n) => hit == *n,
                Trigger::Label(s) => label.contains(s.as_str()),
                Trigger::Prob { p, seed } => {
                    let draw = Fnv::new()
                        .str("fault-draw")
                        .str(point)
                        .u64(*seed)
                        .u64(hit)
                        .finish();
                    // Top 53 bits -> uniform in [0, 1).
                    ((draw >> 11) as f64 / (1u64 << 53) as f64) < *p
                }
            };
            fires.then_some(rule.kind)
        })?;
        eos_trace::counter("exp.fault.injected").add(1);
        eos_trace::counter(&format!("exp.fault.injected.{point}")).add(1);
        eprintln!(
            "[faults] injecting {} at {point} hit {hit} (label '{label}')",
            kind.name()
        );
        Some(kind)
    }

    /// [`FaultPlan::fire`] for the cache's IO points: maps the armed kind
    /// onto the `io::Result` surface (`Io`/`Diverge` → a retryable error,
    /// `Corrupt` → `InvalidData`), panics or aborts in place for the
    /// process-level kinds.
    pub fn fire_io(&self, point: &str, label: &str) -> io::Result<()> {
        match self.fire(point, label) {
            None => Ok(()),
            Some(FaultKind::Corrupt) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("injected corrupt fault at {point}"),
            )),
            Some(FaultKind::Io) | Some(FaultKind::Diverge) => {
                Err(io::Error::other(format!("injected io fault at {point}")))
            }
            Some(FaultKind::Panic) => panic!("injected panic fault at {point} (label '{label}')"),
            Some(FaultKind::Abort) => {
                eprintln!("[faults] aborting process at {point} (label '{label}')");
                std::process::abort();
            }
        }
    }
}

/// Bounded retry-with-backoff for transient IO: up to [`IO_ATTEMPTS`]
/// attempts with a short growing sleep between them. `InvalidData`
/// (the corruption class) is returned immediately — rereading corrupt
/// bytes cannot heal them, the caller's recompute path can. Each retry
/// ticks `exp.fault.retry`.
pub fn retry_io<T>(what: &str, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_millis(2);
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            Err(e) if attempt >= IO_ATTEMPTS => return Err(e),
            Err(e) => {
                eos_trace::counter("exp.fault.retry").add(1);
                eprintln!(
                    "[exp] transient {what} error (attempt {attempt}/{IO_ATTEMPTS}): {e}; retrying"
                );
                std::thread::sleep(delay);
                delay *= 5;
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let plan =
            FaultPlan::parse("cache.write:3:io, cell:fig6/2:panic,train:p0.25@7:diverge").unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert!(matches!(plan.rules[0].trigger, Trigger::Nth(3)));
        assert_eq!(plan.rules[0].kind, FaultKind::Io);
        assert!(matches!(plan.rules[1].trigger, Trigger::Label(ref s) if s == "fig6/2"));
        assert!(
            matches!(plan.rules[2].trigger, Trigger::Prob { p, seed } if p == 0.25 && seed == 7)
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn grammar_rejects_garbage_naming_choices() {
        let e = FaultPlan::parse("disk:1:io").unwrap_err();
        assert!(
            e.contains("disk") && e.contains("cache.read") && e.contains("cell"),
            "{e}"
        );
        let e = FaultPlan::parse("cache.read:1:explode").unwrap_err();
        assert!(e.contains("explode") && e.contains("abort"), "{e}");
        assert!(FaultPlan::parse("cache.read:1").is_err());
        assert!(FaultPlan::parse("cache.read:0:io").is_err());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::parse("cache.write:2:io").unwrap();
        assert_eq!(plan.fire("cache.write", "a"), None);
        assert_eq!(plan.fire("cache.write", "b"), Some(FaultKind::Io));
        assert_eq!(plan.fire("cache.write", "c"), None);
        // Other points share nothing with this rule.
        assert_eq!(plan.fire("cache.read", "a"), None);
    }

    #[test]
    fn label_trigger_fires_on_every_matching_hit() {
        let plan = FaultPlan::parse("cell:table5:panic").unwrap();
        assert_eq!(plan.fire("cell", "table2/svhn/Ce"), None);
        assert_eq!(plan.fire("cell", "table5/resnet"), Some(FaultKind::Panic));
        assert_eq!(plan.fire("cell", "table5/wide"), Some(FaultKind::Panic));
    }

    #[test]
    fn probabilistic_trigger_is_deterministic() {
        let a = FaultPlan::parse("train:p0.5@11:diverge").unwrap();
        let b = FaultPlan::parse("train:p0.5@11:diverge").unwrap();
        let fires_a: Vec<bool> = (0..64).map(|_| a.fire("train", "x").is_some()).collect();
        let fires_b: Vec<bool> = (0..64).map(|_| b.fire("train", "x").is_some()).collect();
        assert_eq!(fires_a, fires_b);
        let n = fires_a.iter().filter(|&&f| f).count();
        assert!(
            n > 8 && n < 56,
            "p=0.5 should fire roughly half the time, got {n}/64"
        );
    }

    #[test]
    fn fire_io_maps_kinds_onto_error_classes() {
        let plan = FaultPlan::parse("cache.read:1:corrupt,cache.read:2:io").unwrap();
        let corrupt = plan.fire_io("cache.read", "x").unwrap_err();
        assert_eq!(corrupt.kind(), io::ErrorKind::InvalidData);
        let io = plan.fire_io("cache.read", "x").unwrap_err();
        assert_ne!(io.kind(), io::ErrorKind::InvalidData);
        assert!(plan.fire_io("cache.read", "x").is_ok());
    }

    #[test]
    fn retry_absorbs_transients_but_not_corruption() {
        let mut left = 2;
        let healed = retry_io("test", || {
            if left > 0 {
                left -= 1;
                Err(io::Error::other("transient"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(healed.unwrap(), 7);

        let mut calls = 0;
        let corrupt: io::Result<()> = retry_io("test", || {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::InvalidData, "bad bytes"))
        });
        assert_eq!(corrupt.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(calls, 1, "corruption must not be retried");

        let mut calls = 0;
        let exhausted: io::Result<()> = retry_io("test", || {
            calls += 1;
            Err(io::Error::other("still broken"))
        });
        assert!(exhausted.is_err());
        assert_eq!(calls, IO_ATTEMPTS);
    }
}
