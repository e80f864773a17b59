//! Order statistics for timing samples: median, quartiles, extremes.

use spbc_trace::JsonObj;

/// Median, quartiles, extremes and sample count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// The `k`-th of the three quartile cut points of sorted `v`, by the rule of
/// Python's `statistics.quantiles(v, n=4)` (exclusive method) — the rule the
/// acceptance check of this benchmark is stated in.
fn quartile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// Summarise `values`; `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    Some(Summary { n, median, q1: quartile(&v, 1), q3: quartile(&v, 3), min: v[0], max: v[n - 1] })
}

/// Median of `values` (0 when empty — callers only pass non-empty series).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

impl Summary {
    pub fn to_json(self) -> String {
        let mut o = JsonObj::new();
        o.field("n", self.n as u64)
            .field_f64("median", self.median)
            .field_f64("q1", self.q1)
            .field_f64("q3", self.q3)
            .field_f64("min", self.min)
            .field_f64("max", self.max);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // One sample: every cut point is the sample.
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }
}
