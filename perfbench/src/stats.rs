//! The benchmark's own metric arithmetic: percentiles with their sample counts,
//! prequential AUC and failure accounting.
//! Everything here is pure, so the self-tests below pin it without a running system.

use liveupdate_dlrm::metrics::Auc;

/// A percentile pair of one sample set: the median, the 99th percentile and the number
/// of samples behind both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub p50: f64,
    pub p99: f64,
    pub n: usize,
}

impl Percentiles {
    /// Nearest-rank percentiles of `values` (order does not matter). An empty set
    /// reads as NaN with `n == 0`, so a missing measurement never looks like a fast one.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            p50: nearest_rank(&sorted, 0.50),
            p99: nearest_rank(&sorted, 0.99),
            n: sorted.len(),
        }
    }

    /// How many samples lie beyond the 99th percentile; the guide for reporting a tail
    /// asks for at least ten.
    #[must_use]
    pub fn beyond_p99(&self) -> usize {
        self.n - (self.n as f64 * 0.99).ceil() as usize
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at least
/// `q · n` samples at or below it.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`, NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Percentiles::of(values).p50
}

/// Prequential AUC of served predictions against their labels, `None` when the labels
/// hold a single class.
#[must_use]
pub fn auc(pairs: impl IntoIterator<Item = (f64, f64)>) -> Option<f64> {
    let mut auc = Auc::new();
    auc.record_all(pairs);
    auc.value()
}

/// What happened to the requests of one phase. Every offered request lands in exactly
/// one bucket, so `failed() + ok == offered` holds by construction and is checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests the generator offered.
    pub offered: u64,
    /// Answered once with a finite prediction in `[0, 1]`.
    pub ok: u64,
    /// Shed at a full queue, refused, or sent on a closed connection.
    pub refused: u64,
    /// Never answered before the drain deadline.
    pub unanswered: u64,
    /// Answered with a non-finite prediction or one outside `[0, 1]`.
    pub bad_prediction: u64,
    /// Answered more than once (counted once here, and a failed correctness check).
    pub duplicate: u64,
}

impl Outcomes {
    /// Classify one offered request from its reply count and prediction; `true` when
    /// it was answered correctly.
    pub fn record(&mut self, refused: bool, replies: u32, prediction: f64) -> bool {
        self.offered += 1;
        let valid = prediction.is_finite() && (0.0..=1.0).contains(&prediction);
        let bucket = if refused {
            &mut self.refused
        } else if replies == 0 {
            &mut self.unanswered
        } else if replies > 1 {
            &mut self.duplicate
        } else if !valid {
            &mut self.bad_prediction
        } else {
            &mut self.ok
        };
        *bucket += 1;
        !refused && replies == 1 && valid
    }

    /// Requests that failed, in any way.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.refused + self.unanswered + self.bad_prediction + self.duplicate
    }

    /// Failed requests over offered requests (0 when nothing was offered).
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.failed() as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_count_samples() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = Percentiles::of(&values);
        assert_eq!((p.p50, p.p99, p.n), (500.0, 990.0, 1000));
        assert_eq!(p.beyond_p99(), 10);
        let single = Percentiles::of(&[3.5]);
        assert_eq!((single.p50, single.p99, single.n), (3.5, 3.5, 1));
        let empty = Percentiles::of(&[]);
        assert!(empty.p50.is_nan() && empty.n == 0);
    }

    #[test]
    fn auc_matches_hand_computed_rank_statistic() {
        // Positives at 0.9 and 0.4, negatives at 0.5 and 0.1: 3 of 4 pairs ordered.
        let pairs = [(0.9, 1.0), (0.4, 1.0), (0.5, 0.0), (0.1, 0.0)];
        assert_eq!(auc(pairs), Some(0.75));
        // A tie between a positive and a negative counts one half.
        assert_eq!(auc([(0.5, 1.0), (0.5, 0.0)]), Some(0.5));
        assert_eq!(auc([(0.3, 1.0), (0.7, 1.0)]), None, "one class only");
    }

    #[test]
    fn outcomes_put_every_request_in_one_bucket() {
        let mut o = Outcomes::default();
        o.record(false, 1, 0.25);
        o.record(true, 0, f64::NAN);
        o.record(false, 0, f64::NAN);
        o.record(false, 1, f64::NAN);
        o.record(false, 1, 1.5);
        o.record(false, 2, 0.5);
        o.record(false, 1, 1.0);
        assert_eq!(o.offered, 7);
        assert_eq!(o.ok, 2);
        assert_eq!(
            (o.refused, o.unanswered, o.bad_prediction, o.duplicate),
            (1, 1, 2, 1)
        );
        assert_eq!(o.failed() + o.ok, o.offered);
        assert!((o.failed_frac() - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(Outcomes::default().failed_frac(), 0.0);
    }
}
