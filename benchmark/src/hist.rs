//! Fixed log-linear latency histogram (nanoseconds): 32 linear sub-buckets
//! per power of two, so a recorded value is off by at most ~3 %. The whole
//! table is allocated once, before timing; `record` never allocates.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^40 ns (~18 min) get their own bucket; anything above
/// lands in the last one.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { counts: vec![0; BUCKETS], total: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Lower edge and width of bucket `b`, in nanoseconds.
fn bucket_range(b: usize) -> (f64, f64) {
    let (row, sub) = (b as u64 / SUB, b as u64 % SUB);
    if row == 0 {
        return (sub as f64, 1.0);
    }
    let width = (1u64 << (row - 1)) as f64;
    ((SUB + sub) as f64 * width, width)
}

impl LogHist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q` quantile in nanoseconds, interpolated inside its bucket so
    /// the value moves continuously with the samples instead of snapping to
    /// bucket edges. `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = bucket_range(b);
                return Some(lo + width * ((rank - below as f64) / c as f64).clamp(0.0, 1.0));
            }
            below += c;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_hi = 0.0;
        for b in 0..BUCKETS {
            let (lo, w) = bucket_range(b);
            assert_eq!(lo, prev_hi, "bucket {b} starts where {} ended", b.wrapping_sub(1));
            assert_eq!(bucket_of(lo as u64), b);
            assert_eq!(bucket_of((lo + w) as u64 - 1), b);
            prev_hi = lo + w;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_land_within_resolution() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.04, "p50 {p50}");
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.04, "p99 {p99}");
        assert_eq!(h.count(), 10_000);
        h.clear();
        assert!(h.quantile_ns(0.5).is_none());
    }
}
