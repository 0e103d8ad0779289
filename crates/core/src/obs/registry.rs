//! The typed metrics registry.
//!
//! Counters are declared exactly once, through [`counter_registry!`](crate::counter_registry): each
//! declaration carries its field name and help text (the doc comment), and
//! the macro expands to the atomic registry struct, the plain-`u64` snapshot
//! struct, and a [`CounterDef`](crate::obs::CounterDef) metadata table — all
//! guaranteed to agree on field set and order. This replaces the
//! hand-maintained `Stats`/`StatsSnapshot` pair, whose 25 fields had to be
//! kept in sync across four places by review alone.
//!
//! The generated snapshot type additionally supports name-based lookup
//! ([`StatsSnapshot::get`]), iteration in declaration order
//! ([`StatsSnapshot::iter`]), counter-wise differencing
//! ([`StatsSnapshot::delta`]) and self-describing export
//! ([`StatsSnapshot::export_json`] / [`StatsSnapshot::export_text`]).
//!
//! The `msg` and `runtime` crates instantiate the same macro for their own
//! counter sets, so every layer's statistics share one declaration idiom and
//! one export format. The macro itself (and [`CounterDef`](crate::obs::CounterDef))
//! is defined in `photon_fabric::counters`, below every crate that counts,
//! and re-exported from this crate's root.

crate::counter_registry! {
    /// Internal counters for one Photon context.
    registry Stats;
    /// A point-in-time copy of a context's statistics.
    snapshot StatsSnapshot;
    table STATS_COUNTERS;
    counters {
        /// Put-with-completion operations that took the eager (packed) path.
        puts_eager,
        /// Put-with-completion operations that took the direct RDMA path.
        puts_direct,
        /// Get(-with-completion) operations.
        gets,
        /// Destination-less sends (parcel path).
        sends,
        /// Local completions surfaced.
        local_completions,
        /// Remote completions surfaced.
        remote_completions,
        /// Times a producer found a ledger/ring out of credits.
        credit_stalls,
        /// Credit-return writes issued.
        credit_returns,
        /// Payload bytes put.
        bytes_put,
        /// Payload bytes fetched by gets.
        bytes_got,
        /// Rendezvous protocol steps executed.
        rendezvous_ops,
        /// Probe calls.
        probes,
        /// Batch probe calls (`probe_completions`), also counted in `probes`.
        probe_batches,
        /// Doorbell-batched eager posts (`put_many` / batch flushes): one wire
        /// write carrying a run of frames.
        batch_posts,
        /// Batches that carried exactly 1 frame.
        frames_per_batch_1,
        /// Batches that carried 2–4 frames.
        frames_per_batch_2_4,
        /// Batches that carried 5–16 frames.
        frames_per_batch_5_16,
        /// Batches that carried 17 or more frames.
        frames_per_batch_17plus,
        /// Per-op heap copies eliminated on the eager fast path: one per
        /// MR→stage direct staging on TX, one per in-place ring copy-out on RX.
        stage_copies_avoided,
        /// Healthy → Suspect transitions of the per-peer health machine.
        peers_suspected,
        /// Peers declared dead (evicted).
        peers_dead,
        /// Reconnection probes issued while a peer was Suspect.
        reconnect_probes,
        /// Suspect → Healthy recoveries (a reconnection probe succeeded).
        peer_recoveries,
        /// Pending rids drained as error completions by peer eviction.
        rids_flushed,
        /// Probe passes that skipped a peer because another thread held its
        /// receive lock (the holder harvests everything pending).
        rx_lock_skips,
        /// Times the bounded skip budget ran out and a probe blocked on a
        /// contended receive lock to guarantee the peer gets service.
        rx_lock_waits,
        /// Always 0: its only writer left with the dedicated progress
        /// engine. Kept because `StatsSnapshot`'s `Debug` output is hashed
        /// into every simtest digest; it retires with the next re-record.
        progress_thread_errors,
        /// Connections established (lazily, on first traffic toward a peer —
        /// includes reconnects after eviction or peer rejoin).
        conns_opened,
        /// Connections evicted by the LRU cache cap (peer stayed healthy;
        /// distinct from `peers_dead`).
        conns_evicted,
    }
}

impl Stats {
    /// Record one doorbell-batched post of `frames` eager frames.
    pub(crate) fn record_batch(&self, frames: usize) {
        Stats::bump(&self.batch_posts);
        Stats::bump(match frames {
            0..=1 => &self.frames_per_batch_1,
            2..=4 => &self.frames_per_batch_2_4,
            5..=16 => &self.frames_per_batch_5_16,
            _ => &self.frames_per_batch_17plus,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::default();
        Stats::bump(&s.puts_eager);
        Stats::bump(&s.puts_eager);
        Stats::add(&s.bytes_put, 100);
        let snap = s.snapshot();
        assert_eq!(snap.puts_eager, 2);
        assert_eq!(snap.bytes_put, 100);
        assert_eq!(snap.gets, 0);
    }

    #[test]
    fn table_matches_snapshot_fields() {
        let s = Stats::default();
        let snap = s.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        let table: Vec<&str> = STATS_COUNTERS.iter().map(|d| d.name).collect();
        assert_eq!(names, table, "table and snapshot must agree on order");
        assert_eq!(names.len(), 29, "field count pinned (bump when adding counters)");
        for def in STATS_COUNTERS {
            assert!(!def.help.trim().is_empty(), "{} has empty help", def.name);
        }
    }

    #[test]
    fn add_named_and_get_roundtrip() {
        let s = Stats::default();
        assert!(s.add_named("probes", 7));
        assert!(!s.add_named("no_such_counter", 1));
        let snap = s.snapshot();
        assert_eq!(snap.get("probes"), Some(7));
        assert_eq!(snap.get("no_such_counter"), None);
    }

    #[test]
    fn delta_is_counterwise_and_saturating() {
        let a = Stats::default();
        Stats::add(&a.sends, 10);
        Stats::add(&a.gets, 3);
        let early = a.snapshot();
        Stats::add(&a.sends, 5);
        let late = a.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.sends, 5);
        assert_eq!(d.gets, 0);
        // Reversed operands saturate instead of wrapping.
        let r = early.delta(&late);
        assert_eq!(r.sends, 0);
    }

    #[test]
    fn exports_cover_every_counter() {
        let s = Stats::default();
        Stats::add(&s.bytes_got, 42);
        let snap = s.snapshot();
        let json = snap.export_json();
        let text = snap.export_text();
        for def in STATS_COUNTERS {
            assert!(json.contains(&format!("\"{}\":", def.name)), "json missing {}", def.name);
            assert!(
                text.contains(&format!("\n{} ", def.name))
                    || text.starts_with(&format!("{} ", def.name)),
                "text missing {}",
                def.name
            );
        }
        assert!(json.contains("\"bytes_got\":42"));
    }

    #[test]
    fn debug_format_is_stable_for_digests() {
        // simtest case digests hash `format!("{snapshot:?}")`; the field
        // order and derive set must not drift when the registry is edited.
        let snap = StatsSnapshot::default();
        let dbg = format!("{snap:?}");
        assert!(dbg.starts_with("StatsSnapshot { puts_eager: 0, puts_direct: 0, gets: 0,"));
        assert!(dbg.ends_with("conns_opened: 0, conns_evicted: 0 }"));
    }
}
