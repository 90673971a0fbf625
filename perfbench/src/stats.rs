//! Order statistics over latency samples.

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (numpy's default). Non-finite samples (failed operations) sort
/// last, so they count as missing every latency limit.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || !sorted[hi].is_finite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `sum(w_i * v_i) / sum(w_i)`.
pub fn weighted_mean(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for (w, v) in pairs {
        num += w * v;
        den += w;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Latency samples, per case.
pub struct Latencies {
    pub per_case: Vec<Vec<f64>>,
}

impl Latencies {
    pub fn new(cases: usize) -> Latencies {
        Latencies {
            per_case: vec![Vec::new(); cases],
        }
    }

    pub fn push(&mut self, case: usize, ms: f64) {
        self.per_case[case].push(ms);
    }

    pub fn all(&self) -> Vec<f64> {
        self.per_case.iter().flatten().copied().collect()
    }

    pub fn count(&self) -> usize {
        self.per_case.iter().map(Vec::len).sum()
    }

    /// Geometric mean of the per-case medians (cases with samples only).
    pub fn geomean_of_medians(&self) -> f64 {
        let medians: Vec<f64> = self
            .per_case
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect();
        geomean(&medians)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[f64::INFINITY, 1.0], 0.9), f64::INFINITY);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(weighted_mean([(1.0, 2.0), (3.0, 4.0)]), 3.5);
    }
}
