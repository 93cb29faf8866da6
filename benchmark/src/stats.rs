//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median and quartiles of a sample set, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an already sorted slice, on the
/// "exclusive" positions Python's `statistics.quantiles` uses, so the spreads
/// printed here match the ones the acceptance procedure computes.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = (p * (n as f64 + 1.0) - 1.0).clamp(0.0, (n - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`. Panics on an empty slice: every caller measures at
/// least one epoch.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Quartiles of `values` (panics on an empty slice, as [`median`]).
pub fn quartiles(values: &[f64]) -> Quartiles {
    let v = sorted(values);
    Quartiles {
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of `values`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a tail percentile backed by a
/// handful of samples is an anecdote, not a measurement.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p95 of 199 samples has 9 beyond it; of 200 it has exactly 10.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        // The median needs 20 samples.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Input order does not matter.
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.95), Some(190.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&ramp(10));
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&[7.0]).q3, 7.0);
    }
}
