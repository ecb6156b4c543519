//! Percentiles and the metric list a run prints.

use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule on
/// a sorted copy. Failed requests enter as `f64::INFINITY`, so they
/// count as over every latency limit. Empty input reads as `NaN`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values` (see [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest latency a [`Hist`] tells apart, in µs.
const FLOOR_US: f64 = 1.0;

/// A latency histogram of fixed size, so the load generator's memory
/// does not grow with how many requests a run sends. Failed requests
/// count as `f64::INFINITY`, over every bucket.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    /// Relative width of a bucket: a quantile is within this share of
    /// the exact one.
    growth: f64,
    failed: u64,
    n: u64,
}

/// Buckets of 0.2% reaching past 100 s (about 37 KB).
impl Default for Hist {
    fn default() -> Self {
        Hist::with_buckets(1.002, 9300)
    }
}

impl Hist {
    fn with_buckets(growth: f64, buckets: usize) -> Self {
        Hist {
            counts: vec![0; buckets],
            growth,
            failed: 0,
            n: 0,
        }
    }

    /// Buckets of 1% reaching past 10 s (about 6.5 KB), for the many
    /// short slices of a closed loop.
    pub fn coarse() -> Self {
        Hist::with_buckets(1.01, 1620)
    }

    pub fn record(&mut self, us: f64) {
        self.n += 1;
        if !us.is_finite() {
            self.failed += 1;
            return;
        }
        let b = ((us.max(FLOOR_US) / FLOOR_US).ln() / self.growth.ln()) as usize;
        let last = self.counts.len() - 1;
        self.counts[b.min(last)] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "merge of unlike histograms"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.failed += other.failed;
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile by the nearest-rank rule, placed inside its
    /// bucket by the rank's position among the bucket's entries (on a
    /// log scale). `INFINITY` when the rank falls on a failed request,
    /// `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let within = (rank - below) as f64 - 0.5;
                return FLOOR_US * self.growth.powf(b as f64 + within / c as f64);
            }
            below += c;
        }
        f64::INFINITY
    }
}

/// The arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Named metrics in insertion order, printed as the `metrics` object of
/// the result line.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.items.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.items.push((name, value, unit));
    }

    /// Every value must be a finite number: a metric the run could not
    /// measure is a failed run, not a silent zero.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.items
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| *n)
            .collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no infinity; an unmeasurable value prints as the
            // largest finite number, the worst reading for a latency.
            let value = if value.is_finite() { *value } else { f64::MAX };
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[3.0, f64::INFINITY], 0.99), f64::INFINITY);
    }

    #[test]
    fn histogram_quantiles_are_near_exact() {
        let v: Vec<f64> = (1..=10_000).map(|i| 50.0 + f64::from(i) * 0.7).collect();
        let mut h = Hist::default();
        v.iter().for_each(|&x| h.record(x));
        for q in [0.01, 0.5, 0.95, 0.99] {
            let (exact, got) = (quantile(&v, q), h.quantile(q));
            assert!((got / exact - 1.0).abs() < 0.002, "q {q}: {got} vs {exact}");
        }
        let mut other = Hist::default();
        other.record(f64::INFINITY);
        h.merge(&other);
        assert_eq!(h.len(), 10_001);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        assert!(Hist::default().quantile(0.5).is_nan());
        let mut coarse = Hist::coarse();
        v.iter().for_each(|&x| coarse.record(x));
        let (exact, got) = (quantile(&v, 0.5), coarse.quantile(0.5));
        assert!(
            (got / exact - 1.0).abs() < 0.01,
            "coarse p50: {got} vs {exact}"
        );
    }
}
