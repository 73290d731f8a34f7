//! Metric catalogue, run outcomes and the result line.
//!
//! The catalogue below is the single list of metric names the benchmark
//! emits; `BENCHMARK.json` names the same metrics, and the tests check
//! the two agree.

use std::fmt::Write as _;

/// End-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_rate", "ratio"),
];

/// Backbone children, in forward order, that per-child metrics name.
pub const CHILDREN: [&str; 8] = [
    "stem-conv",
    "stem-bn",
    "stem-relu",
    "block1",
    "block2",
    "block3",
    "gap",
    "head",
];

/// Every per-layer metric the traced run reports: `(name, unit)`. Names
/// are `<workload>.<layer>.<metric>`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for (name, unit) in [
        ("tensor.select_ms", "ms"),
        ("nn.fwd_ms", "ms"),
        ("nn.loss_ms", "ms"),
        ("nn.bwd_ms", "ms"),
        ("nn.optim_ms", "ms"),
        ("nn.train_gflops", "GFLOP/s"),
    ] {
        add(format!("train.{name}"), unit);
    }
    for pass in ["fwd", "bwd"] {
        for child in CHILDREN {
            add(format!("train.nn.{pass}.{child}_ms"), "ms");
        }
        add(format!("train.nn.{pass}.split_gap_pct"), "%");
    }
    for (name, unit) in [
        ("core.finetune_ms", "ms"),
        ("core.evaluate_ms", "ms"),
        ("core.finetune.split_gap_pct", "%"),
        ("core.evaluate.split_gap_pct", "%"),
        ("nn.embed_ms", "ms"),
        ("nn.head_infer_ms", "ms"),
        ("nn.head_train_ms", "ms"),
        ("nn.head_rows", "count"),
        ("resample.balance.smote_ms", "ms"),
        ("resample.balance.bsmote_ms", "ms"),
        ("resample.balance.balsvm_ms", "ms"),
        ("resample.balance.eos_ms", "ms"),
        ("neighbors.build_ms", "ms"),
        ("neighbors.query_ms", "ms"),
        ("data.generate_s", "s"),
        ("exp.backbone_cold_s", "s"),
        ("exp.backbone_warm_s", "s"),
    ] {
        add(format!("heads.{name}"), unit);
    }
    for (name, unit) in [
        ("resample.balance.eos_ms", "ms"),
        ("resample.balance.bsmote_ms", "ms"),
        ("resample.balance.smote_ms", "ms"),
        ("resample.balance.balsvm_ms", "ms"),
        ("resample.synthetic_rows", "count"),
        ("neighbors.build_ms", "ms"),
        ("neighbors.query_ms", "ms"),
        ("neighbors.queries", "count"),
    ] {
        add(format!("oversample.{name}"), unit);
    }
    for (name, unit) in [
        ("serve.submit_us", "us"),
        ("serve.batches", "count"),
        ("serve.batch_size_mean", "count"),
        ("serve.overhead_pct", "%"),
        ("nn.infer.b32_ms", "ms"),
        ("nn.infer.b1_ms", "ms"),
    ] {
        add(format!("serve.{name}"), unit);
    }
    for child in CHILDREN {
        add(format!("serve.nn.infer.{child}_ms"), "ms");
    }
    add("serve.nn.infer.split_gap_pct".into(), "%");
    for w in crate::WORKLOADS {
        add(format!("{w}.host.steal_pct"), "%");
        add(format!("{w}.trace.overhead_pct"), "%");
    }
    m
}

/// Whether `name` is a legal metric name: a letter or digit first, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Unit, as in the catalogue.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one run measured and whether every output checked out.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed their correctness check.
    pub failed: u64,
    /// False when any check (per-op or equivalence) failed.
    pub correct: bool,
    /// Figures in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the figures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a figure, looking its unit up in the catalogue.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let unit = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.push(Metric { name, unit, value });
    }

    /// The value of a reported figure.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Folds another outcome's counts and figures into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// One human-readable line per figure: name, value, unit.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for note in &self.notes {
            let _ = writeln!(s, "{note}");
        }
        for m in &self.metrics {
            let _ = writeln!(s, "{:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        s
    }

    /// The single-line JSON result (`correct`, `attempted`, `failed`,
    /// `metrics`). Values print with every digit Rust's shortest
    /// round-trip formatting gives; non-finite values become `null` so a
    /// broken figure cannot pass as a number.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.push("ops_per_s", 1.25);
        o.push("setup_s", 0.5);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(eos_trace::validate(&o.json()).is_ok());
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("train.nn.fwd.stem-conv_ms"));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
