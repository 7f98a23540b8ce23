//! Latency histograms fine enough to report every digit of a quantile.
//!
//! The program's own `lfrc_obs` histograms have 16 sub-buckets per
//! octave, so their quantiles snap to bucket bounds and repeat exactly
//! from run to run. This one keeps 128 sub-buckets per octave: values
//! below 256 ns are exact, no bucket is wider than 0.8 % of its values,
//! and a quantile is interpolated inside its bucket. The bucket array
//! grows only to the largest value recorded (about 14 KB for values up
//! to a millisecond), so keeping one per op kind per window adds little
//! to the `rss_mb` the benchmark reports.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

#[derive(Clone, Default)]
pub struct LatHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl std::fmt::Debug for LatHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatHist(n={})", self.count)
    }
}

fn slot(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// Lowest value and width of slot `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    let sub = (i & (SUB - 1)) as u64;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        let i = slot(ns);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += ns as u128;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> f64 {
        self.sum as f64
    }

    pub fn merge(&mut self, other: &LatHist) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile in ns, interpolated inside its bucket; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, width) = bounds(i);
                return lo as f64 + width as f64 * (rank - seen as f64) / n as f64;
            }
            seen += n;
        }
        unreachable!("rank {rank} beyond count {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_cover_values_in_order() {
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 255, 256, 5000, 1 << 40, u64::MAX] {
            let i = slot(v);
            assert!(i >= last);
            let (lo, width) = bounds(i);
            assert!(
                lo <= v && v - lo < width,
                "{v}: slot {i} = [{lo}, +{width})"
            );
            last = i;
        }
    }

    #[test]
    fn quantiles_are_exact_for_small_values() {
        let mut h = LatHist::default();
        for v in 1..=200u64 {
            h.record(v);
        }
        assert!((h.quantile_ns(0.5) - 100.0).abs() <= 1.0);
        assert!((h.quantile_ns(0.99) - 198.0).abs() <= 1.0);
        assert_eq!(h.sum_ns(), 20_100.0);
        let mut wide = LatHist::default();
        wide.record(1 << 20);
        h.merge(&wide);
        assert_eq!(h.count(), 201);
        assert!(h.quantile_ns(1.0) >= (1 << 20) as f64);
        assert!((h.quantile_ns(0.5) - 101.0).abs() <= 1.0);
    }
}
