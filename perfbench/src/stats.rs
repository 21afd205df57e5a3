//! Nearest-rank percentiles that report the sample they were read from.

/// A percentile read off a sample by the nearest-rank rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// Size of the sample.
    pub samples: usize,
    /// Samples ranked strictly beyond the percentile (the tail that
    /// supports it).
    pub beyond: usize,
}

/// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the smallest
/// sample value with at least `p`% of the sample at or below it.
/// `None` on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // `p * n / 100` keeps integer-valued products exact, so p90 of 100
    // samples is rank 90, not 91.
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Nearest-rank median; `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0).map(|p| p.value)
}

/// Arithmetic mean; `None` on an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reports_value_sample_and_tail() {
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let p50 = percentile(&values, 50.0).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 5.0,
                samples: 10,
                beyond: 5
            }
        );
        let p90 = percentile(&values, 90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (9.0, 1));
        assert_eq!(percentile(&values, 100.0).unwrap().value, 10.0);
        assert_eq!(percentile(&values, 0.1).unwrap().value, 1.0);
    }

    #[test]
    fn p90_of_a_hundred_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&values, 90.0).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
    }
}
