//! Protocol invariant checkers.
//!
//! Pure observers: they read the middleware's public introspection hooks
//! ([`Photon::credit_state`], [`Photon::in_flight`], [`Photon::stats`], …)
//! and harness-side tallies, and report violations as strings. They never
//! mutate protocol state, so running them cannot mask a bug.

use photon_core::{Photon, PhotonCluster, StatsSnapshot};

/// Accumulated invariant violations for one case.
#[derive(Debug, Default, Clone)]
pub struct Violations {
    items: Vec<String>,
}

impl Violations {
    /// Record a violation.
    pub fn push(&mut self, v: String) {
        self.items.push(v);
    }

    /// True when no invariant fired.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of violations recorded.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The violation messages, in discovery order.
    pub fn items(&self) -> &[String] {
        &self.items
    }

    /// Move the messages out.
    pub fn into_items(self) -> Vec<String> {
        self.items
    }
}

/// Harness-side tallies of what was actually issued/observed, compared
/// against the middleware's [`StatsSnapshot`] at quiescence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RankTally {
    /// Successful `try_send` posts (incl. barrier and parcel traffic).
    pub sends: u64,
    /// Successful eager-path PWC posts.
    pub puts_eager: u64,
    /// Successful direct-path PWC posts, plus the plain puts that move
    /// rendezvous data (core counts both as `puts_direct`).
    pub puts_direct: u64,
    /// Gets posted.
    pub gets: u64,
    /// Local completion events surfaced to the harness.
    pub local_events: u64,
    /// Remote completion events surfaced to the harness.
    pub remote_events: u64,
}

/// Credit conservation between every ordered rank pair at quiescence.
///
/// The fabric applies RDMA effects synchronously at post time, so by the
/// time the stepper reaches quiescence every in-flight effect — including
/// credit-return writes — has already landed. Three invariants per pair
/// `(a → b)`:
///
/// 1. **Ledger conservation**: entries `a` produced toward `b` equal entries
///    `b` consumed from `a` (nothing lost, nothing duplicated).
/// 2. **Ring conservation**: byte cursors agree the same way.
/// 3. **Credit-return freshness**: the consumer returns credits after at
///    most `credit_interval` entries (ring: `ring_bytes/4` bytes), so the
///    producer-side credit word may lag consumer truth by strictly less
///    than one interval. A lag of a full interval or more means a
///    credit-return write was lost — precisely what the seeded
///    `skip_credit_return_interval` mutation produces.
pub fn check_credit_conservation(cluster: &PhotonCluster, out: &mut Violations) {
    let n = cluster.len();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let pa = cluster.rank(a);
            let pb = cluster.rank(b);
            let (Ok(ab), Ok(ba)) = (pa.credit_state(b), pb.credit_state(a)) else {
                out.push(format!("credit_state({a},{b}) unavailable"));
                continue;
            };
            if ab.tx_ledger_produced != ba.rx_ledger_consumed {
                out.push(format!(
                    "ledger conservation {a}->{b}: produced {} != consumed {}",
                    ab.tx_ledger_produced, ba.rx_ledger_consumed
                ));
            }
            if ab.tx_ring_cursor != ba.rx_ring_cursor {
                out.push(format!(
                    "ring conservation {a}->{b}: tx cursor {} != rx cursor {}",
                    ab.tx_ring_cursor, ba.rx_ring_cursor
                ));
            }
            let ledger_interval = pa.config().credit_interval_entries();
            let ledger_lag = ba.rx_ledger_consumed.saturating_sub(ab.credit_word_ledger);
            if ledger_lag >= ledger_interval {
                out.push(format!(
                    "credit-return lost {a}->{b} (ledger): consumed {} but credit word {} \
                     (lag {ledger_lag} >= interval {ledger_interval})",
                    ba.rx_ledger_consumed, ab.credit_word_ledger
                ));
            }
            let ring_interval = (pa.config().eager_ring_bytes / 4) as u64;
            let ring_lag = ba.rx_ring_cursor.saturating_sub(ab.credit_word_ring);
            if ring_lag >= ring_interval {
                out.push(format!(
                    "credit-return lost {a}->{b} (ring): consumed {} but credit word {} \
                     (lag {ring_lag} >= interval {ring_interval})",
                    ba.rx_ring_cursor, ab.credit_word_ring
                ));
            }
        }
    }
}

/// Quiescence ⇒ zero in-flight work: no pending fabric work requests, no
/// undelivered completion events, no orphaned rendezvous control state.
pub fn check_quiescent(cluster: &PhotonCluster, out: &mut Violations) {
    for (r, p) in cluster.ranks().iter().enumerate() {
        check_quiescent_rank(r, p, out);
    }
}

/// Per-rank quiescence check. Crash campaigns use this directly so they can
/// exempt crashed ranks (whose in-flight state is, by construction, never
/// drained) while still holding survivors to the full invariant.
pub fn check_quiescent_rank(r: usize, p: &Photon, out: &mut Violations) {
    let inflight = p.in_flight();
    if inflight != 0 {
        out.push(format!("rank {r}: {inflight} work requests in flight at quiescence"));
    }
    let (ql, qr) = p.queued_events();
    if ql != 0 || qr != 0 {
        out.push(format!("rank {r}: {ql} local / {qr} remote events queued at quiescence"));
    }
    let (ann, fins) = p.queued_rendezvous();
    if ann != 0 || fins != 0 {
        out.push(format!(
            "rank {r}: {ann} rendezvous announces / {fins} fins unclaimed at quiescence"
        ));
    }
}

/// **All-ops-resolve**: every initiated op must terminate — in success or
/// in an error completion — before quiescence. A `false` entry is an op
/// that neither completed nor resolved with an error: precisely the silent
/// hang the peer-failure path exists to rule out. `ops` pairs each op's
/// debug rendering with its resolution state.
pub fn check_all_ops_resolve(ops: &[(String, bool)], out: &mut Violations) {
    for (i, (desc, resolved)) in ops.iter().enumerate() {
        if !resolved {
            out.push(format!("op {i} ({desc}) never resolved: no completion, no error"));
        }
    }
}

/// Middleware counters must agree with what the harness actually issued and
/// observed.
pub fn check_stats(rank: usize, p: &Photon, tally: &RankTally, out: &mut Violations) {
    let s: StatsSnapshot = p.stats();
    let pairs: [(&str, u64, u64); 6] = [
        ("sends", s.sends, tally.sends),
        ("puts_eager", s.puts_eager, tally.puts_eager),
        ("puts_direct", s.puts_direct, tally.puts_direct),
        ("gets", s.gets, tally.gets),
        ("local_completions", s.local_completions, tally.local_events),
        ("remote_completions", s.remote_completions, tally.remote_events),
    ];
    for (name, got, want) in pairs {
        if got != want {
            out.push(format!("rank {rank}: stats.{name} = {got}, harness issued/observed {want}"));
        }
    }
}

/// Per rank, the registrations not pinned by a live connection: live
/// regions minus the two blocks (service and staging) each connection
/// holds. Snapshot it right after a structure boots, then hand it to
/// [`check_registrations`].
pub fn held_registrations(cluster: &PhotonCluster) -> Vec<usize> {
    cluster.ranks().iter().map(|p| p.nic().mrs().region_count() - 2 * p.conn_count()).collect()
}

/// **Registration audit**: every transient registration is released on
/// every path, failed ops included, so once the clients are done each
/// rank's [`held_registrations`] is back at its `booted` value. A rank
/// above it leaked pinned memory.
pub fn check_registrations(cluster: &PhotonCluster, booted: &[usize], out: &mut Violations) {
    for (r, (now, was)) in held_registrations(cluster).into_iter().zip(booted).enumerate() {
        if now != *was {
            out.push(format!(
                "rank {r}: {now} registrations held beyond connection blocks, {was} after boot"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::PhotonConfig;
    use photon_fabric::NetworkModel;

    #[test]
    fn clean_cluster_passes_all_checks() {
        let c = PhotonCluster::new(3, NetworkModel::ideal(), PhotonConfig::default());
        let mut v = Violations::default();
        check_credit_conservation(&c, &mut v);
        check_quiescent(&c, &mut v);
        for (r, p) in c.ranks().iter().enumerate() {
            check_stats(r, p, &RankTally::default(), &mut v);
        }
        assert!(v.is_empty(), "{:?}", v.items());
    }

    #[test]
    fn unconsumed_traffic_trips_quiescence() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        c.rank(0).send(1, b"orphan", 9).unwrap();
        c.rank(1).progress().unwrap();
        let mut v = Violations::default();
        check_quiescent(&c, &mut v);
        assert!(!v.is_empty(), "undelivered remote event must fail quiescence");
    }

    #[test]
    fn leaked_registration_is_reported() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        let booted = held_registrations(&c);
        // A connection opened after boot pins its blocks; that is no leak.
        c.rank(0).send(1, b"x", 1).unwrap();
        let mut v = Violations::default();
        check_registrations(&c, &booted, &mut v);
        assert!(v.is_empty(), "{:?}", v.items());
        let leak = c.rank(1).register_buffer(8).unwrap();
        check_registrations(&c, &booted, &mut v);
        assert!(v.items().iter().any(|s| s.starts_with("rank 1:")), "{:?}", v.items());
        c.rank(1).release_buffer(&leak).unwrap();
    }

    #[test]
    fn stats_mismatch_is_reported() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        c.rank(0).send(1, b"x", 1).unwrap();
        let mut v = Violations::default();
        // Harness claims it issued nothing.
        check_stats(0, c.rank(0), &RankTally::default(), &mut v);
        assert!(v.items().iter().any(|s| s.contains("stats.sends")));
    }
}
