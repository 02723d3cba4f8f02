//! Exact order statistics over raw samples.
//!
//! Percentiles are computed from every recorded sample (no histogram
//! buckets), with linear interpolation between closest ranks — the same
//! definition as numpy's default and Python's `statistics.quantiles(...,
//! method="inclusive")`.

/// Exact percentile `q` (0..=1) of `sorted`, which must be sorted
/// ascending. Returns `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of `values` (sorts a copy). Returns `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// Raw latency samples in nanoseconds, summarized on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// An empty sample set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Exact percentiles in microseconds for each of `qs`, in order.
    /// Returns `None` when there are no samples.
    pub fn percentiles_us(&self, qs: &[f64]) -> Option<Vec<f64>> {
        if self.ns.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.ns.iter().map(|&n| n as f64 / 1000.0).collect();
        sorted.sort_by(f64::total_cmp);
        Some(
            qs.iter()
                .map(|&q| percentile_sorted(&sorted, q).expect("nonempty"))
                .collect(),
        )
    }

    /// Samples strictly above the `q` percentile — how many results the
    /// percentile rests on.
    pub fn beyond(&self, q: f64) -> usize {
        ((1.0 - q) * self.ns.len() as f64).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(percentile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn samples_report_exact_microseconds() {
        let mut s = Samples::default();
        for ns in [1_000u64, 2_000, 3_000, 4_000, 5_000] {
            s.push(ns);
        }
        assert_eq!(s.percentiles_us(&[0.5, 1.0]), Some(vec![3.0, 5.0]));
        assert_eq!(s.beyond(0.5), 2);
        assert!(Samples::default().percentiles_us(&[0.5]).is_none());
    }
}
