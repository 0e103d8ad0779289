//! Virtual time.
//!
//! The fabric assigns every operation timestamps from a *virtual* nanosecond
//! clock driven by the network model, independent of wall-clock time.  Virtual
//! time propagates along causal chains: a completion carries the virtual time
//! at which the modeled hardware would have delivered it, and a consumer
//! advances its [`VClock`] to that time before issuing dependent operations.
//!
//! This is a Lamport clock in nanosecond units: for sequential dependency
//! chains (ping-pong, windowed streams, collective rounds) the resulting
//! timestamps are exactly what a discrete-event simulation of the same model
//! would produce.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point in virtual time, in nanoseconds since cluster construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

impl VTime {
    /// The origin of virtual time.
    pub const ZERO: VTime = VTime(0);

    /// Nanoseconds since the origin.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to (fractional) microseconds; convenient for reporting.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference `self - earlier`, in nanoseconds.
    #[inline]
    pub fn since(self, earlier: VTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        VTime(self.0.max(other.0))
    }
}

impl Add<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, ns: u64) -> VTime {
        VTime(self.0 + ns)
    }
}

impl AddAssign<u64> for VTime {
    #[inline]
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<VTime> for VTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: VTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
    }
}

/// Modeled CPU copy throughput, in picoseconds per byte (25 ps/B = 40 GB/s
/// memcpy): what every layer charges its virtual clock for a staging copy
/// or a probe-time copy-out, so copy costs are comparable across layers.
pub const COPY_PS_PER_BYTE: u64 = 25;

/// A monotonically advancing virtual clock, safely shared between threads.
///
/// Consumers call [`VClock::advance_to`] when they observe a completion and
/// [`VClock::advance`] to model local computation.  The clock never moves
/// backwards.
#[derive(Debug, Default)]
pub struct VClock {
    ns: AtomicU64,
}

impl VClock {
    /// A clock starting at the origin of virtual time.
    pub fn new() -> Self {
        VClock { ns: AtomicU64::new(0) }
    }

    /// Current reading.
    #[inline]
    pub fn now(&self) -> VTime {
        VTime(self.ns.load(Ordering::Acquire))
    }

    /// Advance to at least `t` (no-op if the clock is already past `t`).
    /// Returns the new reading.
    #[inline]
    pub fn advance_to(&self, t: VTime) -> VTime {
        let prev = self.ns.fetch_max(t.0, Ordering::AcqRel);
        VTime(prev.max(t.0))
    }

    /// Advance by `ns` nanoseconds of modeled local work. Returns the new
    /// reading.
    #[inline]
    pub fn advance(&self, ns: u64) -> VTime {
        VTime(self.ns.fetch_add(ns, Ordering::AcqRel) + ns)
    }

    /// Reset to the origin. Only used between benchmark repetitions.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Release);
    }
}

/// Raise `a` to at least `v`: a `fetch_max` that is only a load when `a`
/// is there already (a steady stream's floors and horizons usually are).
#[inline]
pub(crate) fn raise_to(a: &AtomicU64, v: u64) {
    if a.load(Ordering::Acquire) < v {
        a.fetch_max(v, Ordering::AcqRel);
    }
}

/// Per-resource serialization calendar: tracks the virtual-time intervals
/// during which a shared resource (a NIC port) is busy, and books
/// non-overlapping intervals for new transfers.
///
/// This is what turns the open LogGP formulas into a queueing model: two
/// messages crossing the same port are serialized even if their posting
/// threads race.
///
/// Reservations are *interval bookings*, not a single high-water mark:
/// posting threads race in wall-clock order, but their virtual clocks can
/// be arbitrarily skewed, so a request with an earlier `earliest` must be
/// able to claim an earlier free gap instead of queueing behind a
/// virtually-later transfer that merely arrived first in wall time.
/// Adjacent intervals are merged, so steady streams keep the calendar at a
/// handful of entries.
#[derive(Debug, Default)]
pub struct BusyUntil {
    intervals: parking_lot::Mutex<std::collections::BTreeMap<u64, u64>>,
    horizon: AtomicU64,
    booked: AtomicU64,
}

impl BusyUntil {
    /// An empty calendar (resource free at all times).
    pub fn new() -> Self {
        BusyUntil::default()
    }

    /// Reserve an interval of `dur` nanoseconds starting no earlier than
    /// `earliest`, in the first free gap. Returns `(start, end)` of the
    /// granted interval.
    pub fn reserve(&self, earliest: VTime, dur: u64) -> (VTime, VTime) {
        if dur == 0 {
            // An empty interval fits any gap: it starts at `earliest` and
            // books nothing, so it needs no lock.
            raise_to(&self.horizon, earliest.0);
            return (earliest, earliest);
        }
        let mut iv = self.intervals.lock();
        // Bookings are disjoint and sorted, so every one before the last
        // starting at or before `earliest` ends by `earliest`: search from it.
        let from = iv.range(..=earliest.0).next_back().map_or(0, |(&s, _)| s);
        let mut start = earliest.0;
        for (&s, &e) in iv.range(from..) {
            if e <= start {
                continue; // entirely before us
            }
            if s >= start + dur {
                break; // found a gap
            }
            start = e; // collision: try right after this booking
        }
        let end = start + dur;
        // Merge with a successor starting exactly at `end`, then with a
        // predecessor ending exactly at `start` by extending it in place
        // (the steady-stream case: a booking at the end of the last one).
        let new_end = iv.remove(&end).unwrap_or(end);
        match iv.range_mut(..=start).next_back() {
            Some((_, pe)) if *pe == start => *pe = new_end,
            _ => {
                iv.insert(start, new_end);
            }
        }
        raise_to(&self.horizon, end);
        self.booked.fetch_add(dur, Ordering::Relaxed);
        (VTime(start), VTime(end))
    }

    /// Total nanoseconds ever booked on this resource.
    pub fn booked_ns(&self) -> u64 {
        self.booked.load(Ordering::Relaxed)
    }

    /// Fraction of time up to the horizon during which the resource was
    /// busy (1.0 = fully utilized; 0.0 for an idle resource).
    pub fn utilization(&self) -> f64 {
        let h = self.horizon.load(Ordering::Acquire);
        if h == 0 {
            0.0
        } else {
            self.booked.load(Ordering::Relaxed) as f64 / h as f64
        }
    }

    /// Latest booked instant (virtual time at which the resource is known
    /// free of all current bookings).
    pub fn horizon(&self) -> VTime {
        VTime(self.horizon.load(Ordering::Acquire))
    }

    /// Clear all bookings. Only used between benchmark repetitions.
    pub fn reset(&self) {
        self.intervals.lock().clear();
        self.horizon.store(0, Ordering::Release);
        self.booked.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn vtime_arithmetic() {
        let t = VTime(100);
        assert_eq!((t + 50).as_nanos(), 150);
        assert_eq!(VTime(200) - t, 100);
        assert_eq!(t - VTime(200), 0, "subtraction saturates");
        assert_eq!(t.max(VTime(70)), t);
        assert_eq!(VTime(1500).as_micros_f64(), 1.5);
    }

    #[test]
    fn vclock_monotone() {
        let c = VClock::new();
        assert_eq!(c.now(), VTime::ZERO);
        c.advance_to(VTime(100));
        assert_eq!(c.now(), VTime(100));
        // Moving "backwards" is a no-op.
        c.advance_to(VTime(50));
        assert_eq!(c.now(), VTime(100));
        assert_eq!(c.advance(10), VTime(110));
    }

    #[test]
    fn busy_until_serializes_sequential() {
        let b = BusyUntil::new();
        let (s1, e1) = b.reserve(VTime(0), 100);
        assert_eq!((s1, e1), (VTime(0), VTime(100)));
        // A request arriving "earlier" than the horizon is pushed back.
        let (s2, e2) = b.reserve(VTime(10), 100);
        assert_eq!((s2, e2), (VTime(100), VTime(200)));
        // A request after the horizon starts at its own time.
        let (s3, e3) = b.reserve(VTime(500), 7);
        assert_eq!((s3, e3), (VTime(500), VTime(507)));
    }

    #[test]
    fn late_wall_arrival_takes_early_virtual_gap() {
        let b = BusyUntil::new();
        // A virtually-late transfer books far in the future...
        let (s1, _) = b.reserve(VTime(10_000), 100);
        assert_eq!(s1, VTime(10_000));
        // ...and must NOT delay a virtually-early one that arrives later in
        // wall-clock order.
        let (s2, e2) = b.reserve(VTime(0), 100);
        assert_eq!((s2, e2), (VTime(0), VTime(100)));
        // A request that fits exactly between bookings takes the gap.
        let (s3, _) = b.reserve(VTime(50), 100);
        assert_eq!(s3, VTime(100));
        // One that cannot fit before the future booking goes after it.
        let (s4, _) = b.reserve(VTime(9_950), 200);
        assert_eq!(s4, VTime(10_100));
    }

    #[test]
    fn utilization_accounting() {
        let b = BusyUntil::new();
        assert_eq!(b.utilization(), 0.0);
        b.reserve(VTime(0), 50);
        b.reserve(VTime(100), 50);
        assert_eq!(b.booked_ns(), 100);
        // 100 busy of a 150 horizon.
        assert!((b.utilization() - 100.0 / 150.0).abs() < 1e-9);
        b.reset();
        assert_eq!(b.booked_ns(), 0);
    }

    #[test]
    fn adjacent_bookings_merge() {
        let b = BusyUntil::new();
        for i in 0..100 {
            b.reserve(VTime(i * 10), 10);
        }
        assert_eq!(b.horizon(), VTime(1000));
        // Everything merged: a fresh reservation at 0 lands at the end.
        let (s, _) = b.reserve(VTime(0), 5);
        assert_eq!(s, VTime(1000));
    }

    #[test]
    fn busy_until_no_overlap_under_contention() {
        let b = Arc::new(BusyUntil::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut spans = Vec::new();
                for _ in 0..1000 {
                    spans.push(b.reserve(VTime(0), 3));
                }
                spans
            }));
        }
        let mut all: Vec<(VTime, VTime)> =
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort();
        // Intervals must tile [0, 8000*3) without overlap.
        for w in all.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping reservations {w:?}");
        }
        assert_eq!(all.last().unwrap().1, VTime(8 * 1000 * 3));
    }

    #[test]
    fn calendar_properties_under_random_bookings() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config { cases: 64, ..Config::default() });
        runner
            .run(&proptest::collection::vec((0u64..10_000, 1u64..500), 1..120), |reqs| {
                let b = BusyUntil::new();
                let mut granted: Vec<(u64, u64)> = Vec::new();
                for (earliest, dur) in reqs {
                    let (s, e) = b.reserve(VTime(earliest), dur);
                    // Respect the earliest bound and the duration.
                    prop_assert!(s.0 >= earliest);
                    prop_assert_eq!(e.0 - s.0, dur);
                    granted.push((s.0, e.0));
                }
                // No two granted intervals overlap.
                granted.sort();
                for w in granted.windows(2) {
                    prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
                }
                // Horizon is the max end.
                let max_end = granted.iter().map(|g| g.1).max().unwrap();
                prop_assert_eq!(b.horizon().0, max_end);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn calendar_is_work_conserving() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        // If every request has earliest = 0, the grants must tile [0, sum)
        // with no holes (the calendar wastes no capacity).
        let mut runner = TestRunner::new(Config { cases: 32, ..Config::default() });
        runner
            .run(&proptest::collection::vec(1u64..200, 1..60), |durs| {
                let b = BusyUntil::new();
                let total: u64 = durs.iter().sum();
                let mut granted: Vec<(u64, u64)> = durs
                    .iter()
                    .map(|&d| {
                        let (s, e) = b.reserve(VTime(0), d);
                        (s.0, e.0)
                    })
                    .collect();
                granted.sort();
                prop_assert_eq!(granted[0].0, 0);
                for w in granted.windows(2) {
                    prop_assert_eq!(w[0].1, w[1].0, "hole or overlap: {:?}", w);
                }
                prop_assert_eq!(granted.last().unwrap().1, total);
                Ok(())
            })
            .unwrap();
    }

    /// The first-free-gap calendar as it was written before zero-length
    /// bookings skipped the lock and a booking adjoining its predecessor
    /// extended it in place: a full scan from the first interval, and a
    /// remove-plus-insert merge.
    #[derive(Default)]
    struct ScanCalendar {
        iv: std::collections::BTreeMap<u64, u64>,
        horizon: u64,
        booked: u64,
    }

    impl ScanCalendar {
        fn reserve(&mut self, earliest: u64, dur: u64) -> (u64, u64) {
            let iv = &mut self.iv;
            let mut start = earliest;
            for (&s, &e) in iv.iter() {
                if e <= start {
                    continue;
                }
                if dur == 0 || s >= start + dur {
                    break;
                }
                start = e;
            }
            let end = start + dur;
            if dur > 0 {
                let mut new_start = start;
                if let Some((&ps, &pe)) = iv.range(..=start).next_back() {
                    if pe == start {
                        new_start = ps;
                        iv.remove(&ps);
                    }
                }
                let mut new_end = end;
                if let Some(&se) = iv.get(&end) {
                    new_end = se;
                    iv.remove(&end);
                }
                iv.insert(new_start, new_end);
            }
            self.horizon = self.horizon.max(end);
            self.booked += dur;
            (start, end)
        }
    }

    #[test]
    fn calendar_matches_the_full_scan_it_replaced() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        // Each step is (kind, earliest, dur): kind 0 books exactly at the
        // previous grant's end, kind 1 books zero nanoseconds, anything else
        // is a free booking. Times are on a 10 ns grid so edges coincide.
        let mut runner = TestRunner::new(Config { cases: 256, ..Config::default() });
        runner
            .run(&proptest::collection::vec((0u8..4, 0u64..200, 0u64..8), 1..160), |steps| {
                let (b, mut scan) = (BusyUntil::new(), ScanCalendar::default());
                let mut last_end = 0;
                for (kind, at, dur) in steps {
                    let (earliest, dur) = match kind {
                        0 => (last_end, dur * 10),
                        1 => (at * 10, 0),
                        _ => (at * 10, dur * 10),
                    };
                    let (s, e) = b.reserve(VTime(earliest), dur);
                    prop_assert_eq!((s.0, e.0), scan.reserve(earliest, dur), "at {}", earliest);
                    prop_assert_eq!(b.horizon().0, scan.horizon);
                    prop_assert_eq!(b.booked_ns(), scan.booked);
                    last_end = e.0;
                }
                let booked: Vec<(u64, u64)> =
                    b.intervals.lock().iter().map(|(&s, &e)| (s, e)).collect();
                let scanned: Vec<(u64, u64)> = scan.iv.iter().map(|(&s, &e)| (s, e)).collect();
                prop_assert_eq!(booked, scanned);
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn vclock_concurrent_advance_to_is_max() {
        let c = Arc::new(VClock::new());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for j in 0..1000 {
                    c.advance_to(VTime(i * 1000 + j));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), VTime(7999));
    }
}
