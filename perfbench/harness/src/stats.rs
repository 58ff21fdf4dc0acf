//! Exact order statistics over raw per-op samples.
//!
//! Every latency the benchmark reports is a quantile of the raw sample
//! vector, never of a bucketed histogram, so 16 µs and 20 µs stay apart.

/// Raw latency samples in nanoseconds (an op over 4.29 s saturates).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    /// Room for `n` samples, written once up front so the resident set
    /// does not grow with the number of ops a run completes: peak memory
    /// then measures the program, not how fast it was.
    pub fn pretouched(n: usize) -> Self {
        let mut ns = vec![u32::MAX; n];
        ns.clear();
        Samples { ns, sorted: true }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile in nanoseconds: the smallest sample with at
    /// least `q` of all samples at or below it. `None` when empty.
    pub fn quantile_ns(&mut self, q: f64) -> Option<u64> {
        self.sort();
        nearest_rank(&self.ns, q).map(u64::from)
    }

    /// Quantile in microseconds, or 0 when there are no samples.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    /// How many samples lie strictly above the `q` quantile: a percentile
    /// is trustworthy only with enough samples beyond it.
    pub fn beyond(&mut self, q: f64) -> usize {
        match self.quantile_ns(q) {
            None => 0,
            Some(v) => self.ns.len() - self.ns.partition_point(|&x| u64::from(x) <= v),
        }
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a small set of floats (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let one_to_hundred: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&one_to_hundred, 0.5), Some(50));
        assert_eq!(nearest_rank(&one_to_hundred, 0.99), Some(99));
        assert_eq!(nearest_rank(&one_to_hundred, 1.0), Some(100));
        assert_eq!(nearest_rank(&one_to_hundred, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 0.99), Some(7));
        assert_eq!(nearest_rank::<u32>(&[], 0.5), None);
        // 1..=1000: p99 is the 990th value, with ten samples beyond it.
        let mut s = Samples::default();
        for v in (1..=1000u64).rev() {
            s.push(v * 1000);
        }
        assert_eq!(s.quantile_ns(0.99), Some(990_000));
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.quantile_us(0.5), 500.0);
    }

    #[test]
    fn quantiles_tell_close_values_apart() {
        // Power-of-two buckets would report both of these as 16.383 µs.
        let mut a = Samples::default();
        let mut b = Samples::default();
        for _ in 0..100 {
            a.push(16_000);
            b.push(20_000);
        }
        assert_eq!(a.quantile_us(0.5), 16.0);
        assert_eq!(b.quantile_us(0.5), 20.0);
    }

    #[test]
    fn duplicate_heavy_tail_counts_only_strictly_greater() {
        let mut s = Samples::default();
        for v in [5u64, 5, 5, 5, 9] {
            s.push(v);
        }
        assert_eq!(s.quantile_ns(0.5), Some(5));
        assert_eq!(s.beyond(0.5), 1);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
