//! The timed phase of one run: warm-up, then fixed-length segments whose
//! per-segment rates and latency medians are reduced to one number per
//! metric.
//!
//! The reduction is the **median over the run's fastest state**: over the
//! segments whose rate is within 15 % of the best segment's; latency is the
//! median of those same segments' latency medians. The shared 2-vCPU host this
//! was tuned on drops, for seconds to minutes at a time, into states where
//! all code runs 1.3–1.6× slower (pinned 8 B ping-pong: segment medians of
//! 20.3 µs, then 27.0 or 33.0, each repeating to ±0.1 µs, with no steal
//! time reported). A median over all segments follows whichever state
//! covered most of the run, and ten runs of one commit then differ by
//! 20–30 %. Interference of that kind only ever slows a segment down, so
//! the fastest state is the undisturbed machine; the median inside it
//! (rather than the single best segment) keeps workloads whose segments
//! scatter by ±8 % on their own, the sock window and the parcel pipeline,
//! from reporting their luckiest half second. Medians over all segments
//! and whole-run means stay in the pass file, with the share of segments
//! that made the cut, so a run that was disturbed throughout, or a change
//! that makes some segments slow, can be seen for what it is.
//!
//! Everything is allocated in [`Meter::new`]; the hot-path methods
//! (`tick`, `complete`, `latency`) only bump counters and write into
//! preallocated storage.

use crate::hist::LogHist;
use crate::trace::Clock;

/// Segment length. Short enough that a run has tens of them (so some of
/// them are likely to fall in an undisturbed stretch), long enough that a
/// sock segment still holds thousands of ops.
pub const SEGMENT_NS: u64 = 500_000_000;

/// Segments this close to the best one count as the same machine state.
pub const FASTEST_STATE_TOLERANCE: f64 = 0.15;

#[derive(Debug, Clone, Copy)]
struct Segment {
    ops_per_s: f64,
    mbytes_per_s: f64,
    p50_ns: f64,
}

#[derive(Debug)]
pub struct Meter {
    pub clock: Clock,
    warm_end_ns: u64,
    end_ns: u64,
    seg_start_ns: u64,
    seg_ops: u64,
    seg_bytes: u64,
    seg_hist: LogHist,
    segments: Vec<Segment>,
    /// Latency over the whole timed phase (tail percentiles, sample count).
    hist: LogHist,
    timed_ops: u64,
    timed_start_ns: u64,
    timed_end_ns: u64,
}

/// The reduced result of one timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rates {
    /// Median over the fastest state's segments (see the module docs).
    pub ops_per_s: f64,
    pub mbytes_per_s: f64,
    pub lat_p50_us: f64,
    /// Share of segments whose rate put them in the fastest state.
    pub fastest_state_share: f64,
    /// Median over all segments, and the whole timed phase (ops ÷ elapsed).
    pub ops_per_s_median: f64,
    pub lat_p50_us_median: f64,
    pub ops_per_s_mean: f64,
    pub lat_p99_us: f64,
    pub lat_samples: u64,
    pub segments: usize,
    pub timed_ops: u64,
    pub timed_s: f64,
}

fn median_of(set: &[&Segment], field: fn(&Segment) -> f64) -> f64 {
    let mut v: Vec<f64> = set.iter().map(|s| field(s)).collect();
    median(&mut v)
}

/// Segments without a latency sample (possible only in very short smoke
/// phases) have no median to offer.
fn sampled<'a>(set: &[&'a Segment]) -> Vec<&'a Segment> {
    set.iter().copied().filter(|s| s.p50_ns > 0.0).collect()
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

impl Meter {
    /// A phase starting now: `warm_s` of untimed warm-up, then `timed_s`
    /// of measurement.
    pub fn new(clock: Clock, warm_s: f64, timed_s: f64) -> Meter {
        let now = clock.now_ns();
        let warm_end_ns = now + (warm_s * 1e9) as u64;
        let end_ns = warm_end_ns + (timed_s * 1e9) as u64;
        Meter {
            clock,
            warm_end_ns,
            end_ns,
            seg_start_ns: now,
            seg_ops: 0,
            seg_bytes: 0,
            seg_hist: LogHist::default(),
            segments: Vec::with_capacity((timed_s * 1e9) as usize / SEGMENT_NS as usize + 2),
            hist: LogHist::default(),
            timed_ops: 0,
            timed_start_ns: 0,
            timed_end_ns: 0,
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Call with a fresh clock reading between batches of work. Returns
    /// `false` once the phase is over and the driver should stop posting.
    #[inline]
    pub fn tick(&mut self, now_ns: u64) -> bool {
        if self.timed_start_ns == 0 {
            if now_ns >= self.warm_end_ns {
                // Warm-up over: forget everything seen so far.
                self.timed_start_ns = now_ns;
                self.seg_start_ns = now_ns;
                self.seg_ops = 0;
                self.seg_bytes = 0;
                self.seg_hist.clear();
                self.hist.clear();
            }
            return true;
        }
        let over = now_ns >= self.end_ns;
        if now_ns - self.seg_start_ns >= SEGMENT_NS || over {
            self.close_segment(now_ns, over);
        }
        if over {
            self.timed_end_ns = now_ns;
            return false;
        }
        true
    }

    fn close_segment(&mut self, now_ns: u64, last: bool) {
        let dt = (now_ns - self.seg_start_ns) as f64 / 1e9;
        // A stub shorter than half a segment (the tail of the phase) would
        // be a noisy sample: fold it into the totals only, unless the whole
        // phase was that short (smoke runs) and it is all there is.
        let long_enough = dt >= SEGMENT_NS as f64 / 2e9 || (last && self.segments.is_empty());
        if long_enough && self.segments.len() < self.segments.capacity() {
            self.segments.push(Segment {
                ops_per_s: self.seg_ops as f64 / dt,
                mbytes_per_s: self.seg_bytes as f64 / dt / 1e6,
                p50_ns: self.seg_hist.quantile_ns(0.5).unwrap_or(0.0),
            });
        }
        self.timed_ops += self.seg_ops;
        self.seg_start_ns = now_ns;
        self.seg_ops = 0;
        self.seg_bytes = 0;
        self.seg_hist.clear();
    }

    /// `ops` operations carrying `bytes` payload bytes completed and passed
    /// their checks.
    #[inline]
    pub fn complete(&mut self, ops: u64, bytes: u64) {
        self.seg_ops += ops;
        self.seg_bytes += bytes;
    }

    /// One sampled post→completion latency.
    #[inline]
    pub fn latency(&mut self, ns: u64) {
        self.seg_hist.record(ns);
        self.hist.record(ns);
    }

    /// Per-segment `(ops/s, p50 µs)`, in time order: kept in the pass file
    /// so a run whose median looks odd can be told apart from a noisy one.
    pub fn segment_series(&self) -> Vec<(f64, f64)> {
        self.segments.iter().map(|s| (s.ops_per_s, s.p50_ns / 1000.0)).collect()
    }

    pub fn rates(&self) -> Rates {
        let all: Vec<&Segment> = self.segments.iter().collect();
        let best_rate = all.iter().map(|s| s.ops_per_s).fold(0.0, f64::max);
        let fastest: Vec<&Segment> = all
            .iter()
            .copied()
            .filter(|s| s.ops_per_s >= (1.0 - FASTEST_STATE_TOLERANCE) * best_rate)
            .collect();
        let timed_s = self.timed_end_ns.saturating_sub(self.timed_start_ns) as f64 / 1e9;
        Rates {
            ops_per_s: median_of(&fastest, |s| s.ops_per_s),
            mbytes_per_s: median_of(&fastest, |s| s.mbytes_per_s),
            lat_p50_us: median_of(&sampled(&fastest), |s| s.p50_ns) / 1000.0,
            fastest_state_share: fastest.len() as f64 / all.len().max(1) as f64,
            ops_per_s_median: median_of(&all, |s| s.ops_per_s),
            lat_p50_us_median: median_of(&sampled(&all), |s| s.p50_ns) / 1000.0,
            ops_per_s_mean: if timed_s > 0.0 { self.timed_ops as f64 / timed_s } else { 0.0 },
            lat_p99_us: self.hist.quantile_ns(0.99).unwrap_or(0.0) / 1000.0,
            lat_samples: self.hist.count(),
            segments: all.len(),
            timed_ops: self.timed_ops,
            timed_s,
        }
    }
}
