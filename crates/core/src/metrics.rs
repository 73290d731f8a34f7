//! Skew-insensitive classification metrics (BAC, G-mean, macro-F1),
//! computed from a confusion matrix, as the paper's §IV-A prescribes.

/// A `classes × classes` confusion matrix; rows are true classes, columns
/// predicted classes.
#[derive(Debug, Clone)]
pub struct ConfusionMatrix {
    counts: Vec<usize>,
    classes: usize,
}

impl ConfusionMatrix {
    /// Builds the matrix from aligned truth/prediction slices.
    pub fn from_predictions(y_true: &[usize], y_pred: &[usize], classes: usize) -> Self {
        assert_eq!(y_true.len(), y_pred.len(), "truth/prediction mismatch");
        assert!(classes > 0);
        let mut counts = vec![0usize; classes * classes];
        for (&t, &p) in y_true.iter().zip(y_pred) {
            assert!(t < classes && p < classes, "label out of range");
            counts[t * classes + p] += 1;
        }
        ConfusionMatrix { counts, classes }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count of true class `t` predicted as `p`.
    pub fn at(&self, t: usize, p: usize) -> usize {
        self.counts[t * self.classes + p]
    }

    /// Per-class truth counts (confusion-matrix row sums).
    fn support(&self) -> Vec<usize> {
        (0..self.classes)
            .map(|c| (0..self.classes).map(|p| self.at(c, p)).sum())
            .collect()
    }

    /// Per-class recall (sensitivity); 0 for classes absent from the truth.
    pub fn recalls(&self) -> Vec<f64> {
        (0..self.classes)
            .map(|c| {
                let row: usize = (0..self.classes).map(|p| self.at(c, p)).sum();
                if row == 0 {
                    0.0
                } else {
                    self.at(c, c) as f64 / row as f64
                }
            })
            .collect()
    }

    /// Per-class precision; 0 for classes never predicted.
    fn precisions(&self) -> Vec<f64> {
        (0..self.classes)
            .map(|c| {
                let col: usize = (0..self.classes).map(|t| self.at(t, c)).sum();
                if col == 0 {
                    0.0
                } else {
                    self.at(c, c) as f64 / col as f64
                }
            })
            .collect()
    }

    /// Plain accuracy.
    pub fn accuracy(&self) -> f64 {
        let total: usize = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = (0..self.classes).map(|c| self.at(c, c)).sum();
        diag as f64 / total as f64
    }

    /// Balanced accuracy: the mean of per-class recalls, averaged over
    /// the classes that actually appear in the truth. A class with no
    /// true samples has no recall to measure; counting it as zero would
    /// deflate the score of any evaluation on a class subset.
    pub fn balanced_accuracy(&self) -> f64 {
        let support = self.support();
        let recalls = self.recalls();
        let (sum, present) = recalls
            .iter()
            .zip(&support)
            .filter(|&(_, &s)| s > 0)
            .fold((0.0, 0usize), |(sum, n), (&r, _)| (sum + r, n + 1));
        if present == 0 {
            0.0
        } else {
            sum / present as f64
        }
    }

    /// Multi-class geometric mean of recalls.
    pub fn g_mean(&self) -> f64 {
        let r = self.recalls();
        // Computed in log space; any zero recall makes the G-mean zero.
        if r.iter().any(|&x| x <= 0.0) {
            return 0.0;
        }
        (r.iter().map(|x| x.ln()).sum::<f64>() / r.len() as f64).exp()
    }

    /// Macro-averaged F1, averaged over truth-present classes like
    /// [`balanced_accuracy`](Self::balanced_accuracy) (spurious
    /// predictions of an absent class still cost precision elsewhere, but
    /// the absent class itself contributes no term).
    pub fn macro_f1(&self) -> f64 {
        let support = self.support();
        let rec = self.recalls();
        let prec = self.precisions();
        let (sum, present) = rec
            .iter()
            .zip(&prec)
            .zip(&support)
            .filter(|&(_, &s)| s > 0)
            .fold((0.0, 0usize), |(sum, n), ((&r, &p), _)| {
                let f1 = if r + p == 0.0 {
                    0.0
                } else {
                    2.0 * r * p / (r + p)
                };
                (sum + f1, n + 1)
            });
        if present == 0 {
            0.0
        } else {
            sum / present as f64
        }
    }

    /// All three paper metrics at once.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            bac: self.balanced_accuracy(),
            gm: self.g_mean(),
            f1: self.macro_f1(),
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    /// Renders the matrix with per-class recall, aligned for terminals.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let recalls = self.recalls();
        writeln!(
            f,
            "true\\pred {}",
            (0..self.classes)
                .map(|c| format!("{c:>6}"))
                .collect::<String>()
        )?;
        for (t, recall) in recalls.iter().enumerate() {
            write!(f, "{t:9} ")?;
            for p in 0..self.classes {
                write!(f, "{:>6}", self.at(t, p))?;
            }
            writeln!(f, "   recall {recall:.3}")?;
        }
        Ok(())
    }
}

/// The paper's metric triple: balanced accuracy, geometric mean, macro-F1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Balanced accuracy (BAC).
    pub bac: f64,
    /// Geometric mean of recalls (GM).
    pub gm: f64,
    /// Macro-averaged F1 (FM).
    pub f1: f64,
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            ".{:04.0} .{:04.0} .{:04.0}",
            (self.bac * 10_000.0).round(),
            (self.gm * 10_000.0).round(),
            (self.f1 * 10_000.0).round()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 2, 1], &[0, 1, 2, 1], 3);
        let m = cm.metrics();
        assert_eq!(m.bac, 1.0);
        assert_eq!(m.gm, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn bac_ignores_class_sizes() {
        // 90% accuracy on class 0 (9/10), 50% on class 1 (1/2):
        // accuracy = 10/12, BAC = 0.7 regardless of imbalance.
        let mut y_true = vec![0usize; 10];
        y_true.extend([1, 1]);
        let mut y_pred = vec![0usize; 9];
        y_pred.push(1); // one class-0 error
        y_pred.extend([1, 0]);
        let cm = ConfusionMatrix::from_predictions(&y_true, &y_pred, 2);
        assert!((cm.balanced_accuracy() - 0.7).abs() < 1e-9);
        assert!((cm.accuracy() - 10.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn gmean_zero_when_class_never_hit() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0, 1], &[0, 0, 0], 2);
        assert_eq!(cm.g_mean(), 0.0);
        assert!(cm.balanced_accuracy() > 0.0, "BAC still positive");
    }

    #[test]
    fn gmean_matches_direct_product() {
        // recalls 1.0 and 0.25 -> gm = 0.5
        let y_true = vec![0, 1, 1, 1, 1];
        let y_pred = vec![0, 1, 0, 0, 0];
        let cm = ConfusionMatrix::from_predictions(&y_true, &y_pred, 2);
        assert!((cm.g_mean() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn macro_f1_known_value() {
        // class 0: p=1, r=0.5 -> f1=2/3; class 1: p=0.5, r=1 -> f1=2/3.
        let y_true = vec![0, 0, 1];
        let y_pred = vec![0, 1, 1];
        let cm = ConfusionMatrix::from_predictions(&y_true, &y_pred, 2);
        assert!((cm.macro_f1() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn absent_class_contributes_zero_recall() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0], &[0, 0], 3);
        let r = cm.recalls();
        assert_eq!(r[1], 0.0);
        assert_eq!(r[2], 0.0);
    }

    #[test]
    fn bac_and_f1_average_over_truth_present_classes_only() {
        // Three declared classes, but the truth only contains 0 and 1:
        // recalls are 1.0 and 0.5, so BAC is their mean — the absent
        // class 2 must not drag it down to (1.0 + 0.5 + 0.0) / 3.
        let cm = ConfusionMatrix::from_predictions(&[0, 0, 1, 1], &[0, 0, 1, 0], 3);
        assert!((cm.balanced_accuracy() - 0.75).abs() < 1e-9);
        // F1: class 0 has p = 2/3, r = 1 -> 0.8; class 1 has p = 1,
        // r = 0.5 -> 2/3; class 2 contributes no term.
        assert!((cm.macro_f1() - (0.8 + 2.0 / 3.0) / 2.0).abs() < 1e-9);
        // An empty matrix reports zero, not NaN.
        let empty = ConfusionMatrix::from_predictions(&[], &[], 3);
        assert_eq!(empty.balanced_accuracy(), 0.0);
        assert_eq!(empty.macro_f1(), 0.0);
    }

    #[test]
    fn display_matches_paper_format() {
        let m = Metrics {
            bac: 0.7581,
            gm: 0.8589,
            f1: 0.7571,
        };
        assert_eq!(m.to_string(), ".7581 .8589 .7571");
    }

    #[test]
    fn display_renders_counts_and_recalls() {
        let cm = ConfusionMatrix::from_predictions(&[0, 0, 1], &[0, 1, 1], 2);
        let s = cm.to_string();
        assert!(s.contains("recall 0.500"), "{s}");
        assert!(s.contains("recall 1.000"), "{s}");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range() {
        ConfusionMatrix::from_predictions(&[0], &[5], 2);
    }
}
