//! Running mean/std statistics (Welford), used for observation and
//! reward normalisation.

use gddr_ser::{json_struct, JsonError};

json_struct! {
    /// Incrementally tracked mean and variance of a stream of vectors.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunningMeanStd {
        mean: Vec<f64>,
        m2: Vec<f64>,
        count: f64,
    }
    validate = same_dims
}

fn same_dims(rs: &RunningMeanStd) -> Result<(), JsonError> {
    if rs.mean.len() != rs.m2.len() {
        return Err(JsonError(format!(
            "running-stat dimension mismatch: {} means vs {} m2",
            rs.mean.len(),
            rs.m2.len()
        )));
    }
    Ok(())
}

impl RunningMeanStd {
    /// A tracker for `dim`-dimensional samples.
    pub fn new(dim: usize) -> Self {
        RunningMeanStd {
            mean: vec![0.0; dim],
            m2: vec![0.0; dim],
            count: 0.0,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Number of samples observed.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Consumes one sample.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn update(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.mean.len(), "dimension mismatch");
        self.count += 1.0;
        for (i, &x) in sample.iter().enumerate() {
            let delta = x - self.mean[i];
            self.mean[i] += delta / self.count;
            let delta2 = x - self.mean[i];
            self.m2[i] += delta * delta2;
        }
    }

    /// Current mean per dimension.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Current standard deviation per dimension (1.0 before two
    /// samples).
    pub fn std(&self) -> Vec<f64> {
        if self.count < 2.0 {
            return vec![1.0; self.mean.len()];
        }
        self.m2
            .iter()
            .map(|m2| (m2 / self.count).sqrt().max(1e-8))
            .collect()
    }

    /// Normalises `sample` in place to zero mean / unit variance under
    /// the current statistics.
    pub fn normalise(&self, sample: &mut [f64]) {
        let std = self.std();
        for i in 0..sample.len() {
            sample[i] = (sample[i] - self.mean[i]) / std[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_ser::{FromJson, Json, ToJson};

    #[test]
    fn matches_batch_statistics() {
        let data = [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]];
        let mut rs = RunningMeanStd::new(2);
        for s in &data {
            rs.update(s);
        }
        assert!((rs.mean()[0] - 2.5).abs() < 1e-12);
        assert!((rs.mean()[1] - 25.0).abs() < 1e-12);
        let std = rs.std();
        let expected0 = (data.iter().map(|s| (s[0] - 2.5f64).powi(2)).sum::<f64>() / 4.0).sqrt();
        assert!((std[0] - expected0).abs() < 1e-12);
    }

    #[test]
    fn normalise_centres_data() {
        let mut rs = RunningMeanStd::new(1);
        for x in [2.0, 4.0, 6.0] {
            rs.update(&[x]);
        }
        let mut s = vec![4.0];
        rs.normalise(&mut s);
        assert!(s[0].abs() < 1e-12);
    }

    #[test]
    fn std_before_samples_is_one() {
        let rs = RunningMeanStd::new(3);
        assert_eq!(rs.std(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn json_round_trip_preserves_statistics() {
        let mut rs = RunningMeanStd::new(2);
        for s in [[1.0, -3.0], [2.5, 0.125], [0.75, 9.0]] {
            rs.update(&s);
        }
        let text = rs.to_json().to_string();
        let back = RunningMeanStd::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rs);
        // Bit-identical continuation: both see the same next sample.
        let mut a = rs.clone();
        let mut b = back;
        a.update(&[0.5, 0.5]);
        b.update(&[0.5, 0.5]);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_stream_keeps_finite_std() {
        let mut rs = RunningMeanStd::new(1);
        for _ in 0..10 {
            rs.update(&[7.0]);
        }
        assert!(rs.std()[0] >= 1e-8);
        let mut s = vec![7.0];
        rs.normalise(&mut s);
        assert!(s[0].is_finite());
    }
}
