//! Order statistics for reported timings.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_TAIL`] samples beyond it, together with the
//! sample count, so a tail figure is never read off two or three samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_GRID: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `99.9 × 10000 / 100` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest grid percentile with at least [`MIN_TAIL`] samples
/// beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_GRID.into_iter().find(|&p| n > 0 && beyond(n, p) >= MIN_TAIL)
}

/// Median of unsorted samples (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing summary: median, tail percentile (when the count allows
/// one) and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_TAIL`] samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values` (any order). `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = tail_percentile(v.len()).map(|p| (p, percentile(&v, p)));
        Some(Summary { n: v.len(), p50: median(&v), tail })
    }

    /// `p50 <x> <unit>, p<p> <y> <unit> (n=<n>)`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.4} {unit}"),
            None => format!("no tail (<{MIN_TAIL} beyond p75)"),
        };
        format!("p50 {:.4} {unit}, {tail} (n={})", self.p50, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even p75 leaves only 4 beyond.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // 40 samples: p75 leaves 10 beyond, p90 only 4.
        assert_eq!(beyond(40, 75.0), 10);
        assert_eq!(tail_percentile(40), Some(75.0));
        // 200 samples: p95 leaves exactly 10 — the served query floor.
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(200, 99.0), 2);
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // Never a percentile with fewer than ten beyond it.
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(n, p) >= MIN_TAIL, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (100, 50.5, Some((90.0, 90.0))));
        assert_eq!(Summary::of(&[]), None);
    }
}
