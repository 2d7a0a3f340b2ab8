//! Binary-classification metrics: confusion counts, F1 and accuracy.
//!
//! These are the two metrics the LHNN paper reports (Table 2/3). The
//! paper's convention is followed: a design whose ground truth has zero
//! positives yields an F1 of 0, which "holds back" averages — see the note
//! under *Evaluation metrics* in §5.1.

/// Confusion-matrix counts for a binary task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// True negatives.
    pub tn: u64,
    /// False negatives.
    pub fn_: u64,
}

impl Confusion {
    /// Builds counts from predicted probabilities and 0/1 targets at the
    /// given decision threshold.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn from_scores(scores: &[f32], targets: &[f32], threshold: f32) -> Self {
        assert_eq!(scores.len(), targets.len(), "scores/targets length mismatch");
        let mut c = Confusion::default();
        for (&s, &t) in scores.iter().zip(targets) {
            let p = s >= threshold;
            let y = t >= 0.5;
            match (p, y) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Total number of counted samples.
    pub(crate) fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Precision `tp / (tp + fp)`; 0 when the denominator is 0.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall `tp / (tp + fn)`; 0 when the denominator is 0.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 score, the harmonic mean of precision and recall.
    ///
    /// Returns 0 when there are no predicted or actual positives, matching
    /// the paper's convention for congestion-free circuits.
    pub fn f1(&self) -> f64 {
        let denom = 2 * self.tp + self.fp + self.fn_;
        ratio(2 * self.tp, denom)
    }

    /// Accuracy `(tp + tn) / total`; 0 on empty input.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }
}

fn ratio(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// Mean and (population) standard deviation of a sample, as `mean ± std`
/// pairs reported in the paper's tables.
///
/// Returns `(0.0, 0.0)` for an empty slice.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let c = Confusion::from_scores(&[0.9, 0.1, 0.8, 0.2], &[1.0, 0.0, 1.0, 0.0], 0.5);
        assert_eq!(c, Confusion { tp: 2, fp: 0, tn: 2, fn_: 0 });
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn all_wrong_prediction() {
        let c = Confusion::from_scores(&[0.1, 0.9], &[1.0, 0.0], 0.5);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn zero_positive_ground_truth_yields_zero_f1() {
        // the paper's congestion-free circuit convention
        let c = Confusion::from_scores(&[0.1, 0.2, 0.3], &[0.0, 0.0, 0.0], 0.5);
        assert_eq!(c.f1(), 0.0);
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn known_f1_value() {
        // tp=1, fp=1, fn=1 -> precision 0.5, recall 0.5, f1 0.5
        let c = Confusion::from_scores(&[0.9, 0.9, 0.1], &[1.0, 0.0, 1.0], 0.5);
        assert!((c.f1() - 0.5).abs() < 1e-12);
        assert!((c.precision() - 0.5).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_moves_decisions() {
        let scores = [0.4, 0.6];
        let targets = [1.0, 1.0];
        assert_eq!(Confusion::from_scores(&scores, &targets, 0.5).tp, 1);
        assert_eq!(Confusion::from_scores(&scores, &targets, 0.3).tp, 2);
    }

    #[test]
    fn mean_std_known_values() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((s - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
