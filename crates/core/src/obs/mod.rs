//! Observability: typed metrics registry, latency histograms, op-lifecycle
//! spans, and trace export.
//!
//! This module replaces the old `stats`/`trace` pair with four cooperating
//! layers:
//!
//! * [`registry`] — counters declared once (name + help) through
//!   [`counter_registry!`](crate::counter_registry), generating the atomic
//!   [`Stats`] registry, the [`StatsSnapshot`] view (with `get`/`iter`/
//!   [`delta`](StatsSnapshot::delta)/export), and the [`STATS_COUNTERS`]
//!   metadata table in one stroke.
//! * [`hist`] — sharded lock-free log2-bucket latency histograms keyed by
//!   op-kind × size-class per peer; p50/p99/max come from the virtual-clock
//!   stamps already flowing through the fabric.
//! * [`span`] — per-rid lifecycle spans (post → stage → inject → deliver →
//!   complete), exported as Chrome/Perfetto `trace_event` JSON and a text
//!   flamegraph.
//! * [`export`] — [`TraceExport`] CSV/JSON rendering of [`Tracer`] records.
//!
//! Histogram + span recording is **off by default** and costs one relaxed
//! atomic load per hook when disabled; [`Obs::enable`] allocates the
//! recording structures on first use. Counters are always live (they are
//! part of the protocol's accounting and the simtest invariants).

pub mod export;
pub mod hist;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::TraceExport;
pub use hist::{
    size_class, size_class_label, KeyedLatency, KeyedSummary, LatencyHistograms, LatencySummary,
    SIZE_CLASSES,
};
pub use photon_fabric::counters::CounterDef;
pub use registry::{Stats, StatsSnapshot, STATS_COUNTERS};
pub use span::{chrome_trace_json, OpSpan, SpanDir, SpanTrace};
pub use trace::{TraceOp, TraceRecord, Tracer};

use crate::Rank;
use photon_fabric::{VTime, WcStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The operation classes latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Eager (packed, staged-ring) put-with-completion.
    PutEager,
    /// Direct (RDMA + ledger) put-with-completion.
    PutDirect,
    /// Plain one-sided put.
    Put,
    /// Get(-with-completion).
    Get,
    /// Destination-less send (parcel path).
    Send,
    /// Rendezvous transfer.
    Rendezvous,
}

/// Number of [`OpKind`] variants (histogram bank dimension).
pub(crate) const OP_KINDS: usize = 6;

impl OpKind {
    /// Every kind, in declaration order.
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::PutEager,
        OpKind::PutDirect,
        OpKind::Put,
        OpKind::Get,
        OpKind::Send,
        OpKind::Rendezvous,
    ];

    /// Stable label, matching the [`TraceOp`] vocabulary.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::PutEager => "put-eager",
            OpKind::PutDirect => "put-direct",
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Send => "send",
            OpKind::Rendezvous => "rendezvous",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            OpKind::PutEager => 0,
            OpKind::PutDirect => 1,
            OpKind::Put => 2,
            OpKind::Get => 3,
            OpKind::Send => 4,
            OpKind::Rendezvous => 5,
        }
    }
}

/// One-call observability snapshot: the counter registry plus latency
/// summaries for every (op-kind, peer) pair that completed work. Returned
/// by `Photon::metrics()`.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Counter snapshot (always live).
    pub counters: StatsSnapshot,
    /// Latency summaries; empty unless recording was enabled.
    pub latencies: Vec<LatencySummary>,
}

#[derive(Debug)]
pub(crate) struct ObsCore {
    pub(crate) hist: LatencyHistograms,
    pub(crate) spans: span::SpanStore,
}

/// The per-context recording switchboard for histograms and spans.
///
/// Disabled (the default), every hook is a single relaxed atomic load; the
/// recording structures are not even allocated. [`Obs::enable`] allocates
/// them on first call and turns the hooks live.
#[derive(Debug)]
pub struct Obs {
    enabled: AtomicBool,
    rank: Rank,
    peers: usize,
    core: OnceLock<ObsCore>,
}

impl Obs {
    pub(crate) fn new(rank: Rank, peers: usize) -> Obs {
        Obs { enabled: AtomicBool::new(false), rank, peers, core: OnceLock::new() }
    }

    /// Start recording histograms and spans (idempotent; allocates the
    /// recording structures on first call).
    pub fn enable(&self) {
        self.core.get_or_init(|| ObsCore {
            hist: LatencyHistograms::new(self.peers),
            spans: span::SpanStore::new(),
        });
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (already-recorded data is kept and still exportable).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Is recording active?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    #[inline]
    fn live(&self) -> Option<&ObsCore> {
        if self.enabled.load(Ordering::Relaxed) {
            self.core.get()
        } else {
            None
        }
    }

    /// Recorded-data view regardless of the current enable state (so a
    /// disabled-after-the-fact context can still export).
    fn recorded(&self) -> Option<&ObsCore> {
        self.core.get()
    }

    // ---- lifecycle hooks (called from the data path; inlined no-ops when
    // ---- recording is disabled)

    #[inline]
    pub(crate) fn op_post(&self, rid: u64, peer: Rank, kind: OpKind, size: usize, ts: VTime) {
        if let Some(c) = self.live() {
            c.spans.begin_initiator(rid, peer, kind, size, ts.as_nanos());
        }
    }

    #[inline]
    pub(crate) fn op_stage(&self, rid: u64, ts: VTime) {
        if let Some(c) = self.live() {
            c.spans.stamp_stage(rid, ts.as_nanos());
        }
    }

    #[inline]
    pub(crate) fn op_inject(&self, rid: u64, ts: VTime) {
        if let Some(c) = self.live() {
            c.spans.stamp_inject(rid, ts.as_nanos());
        }
    }

    /// A local completion surfaced: close the initiator span and record its
    /// post→complete latency.
    #[inline]
    pub(crate) fn op_complete_local(&self, rid: u64, ts: VTime, status: WcStatus) {
        if let Some(c) = self.live() {
            let ns = ts.as_nanos();
            if let Some(span) = c.spans.finish_initiator(rid, ns, status) {
                if let Some(begin) = span.begin_ns() {
                    c.hist.record(rid, span.peer, span.kind, span.size, ns.saturating_sub(begin));
                }
            }
        }
    }

    /// An op became visible on this (target) rank.
    #[inline]
    pub(crate) fn op_deliver(&self, src: Rank, rid: u64, kind: OpKind, size: usize, ts: VTime) {
        if let Some(c) = self.live() {
            c.spans.begin_target(src, rid, kind, size, ts.as_nanos());
        }
    }

    /// A remote completion surfaced: close the target span and record its
    /// deliver→complete latency.
    #[inline]
    pub(crate) fn op_complete_remote(&self, src: Rank, rid: u64, ts: VTime, status: WcStatus) {
        if let Some(c) = self.live() {
            let ns = ts.as_nanos();
            if let Some(span) = c.spans.finish_target(src, rid, ns, status) {
                if let Some(begin) = span.begin_ns() {
                    c.hist.record(rid, span.peer, span.kind, span.size, ns.saturating_sub(begin));
                }
            }
        }
    }

    // ---- export

    /// Latency summaries for every (op-kind, peer) pair with recorded
    /// completions; empty when recording never ran.
    pub fn latency_summaries(&self) -> Vec<LatencySummary> {
        self.recorded().map(|c| c.hist.summaries()).unwrap_or_default()
    }

    /// This rank's span timeline (finished and still-open spans, earliest
    /// first); empty when recording never ran.
    pub fn span_trace(&self) -> SpanTrace {
        let (spans, dropped) =
            self.recorded().map(|c| c.spans.collect()).unwrap_or((Vec::new(), 0));
        SpanTrace { rank: self.rank, spans, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing_and_allocates_nothing() {
        let o = Obs::new(0, 2);
        o.op_post(1, 1, OpKind::Send, 8, VTime(10));
        o.op_complete_local(1, VTime(20), WcStatus::Success);
        assert!(!o.is_enabled());
        assert!(o.latency_summaries().is_empty());
        assert!(o.span_trace().spans.is_empty());
        assert!(o.core.get().is_none(), "no recording structures allocated");
    }

    #[test]
    fn enabled_obs_builds_spans_and_histograms() {
        let o = Obs::new(0, 2);
        o.enable();
        o.op_post(5, 1, OpKind::PutEager, 8, VTime(100));
        o.op_stage(5, VTime(110));
        o.op_inject(5, VTime(150));
        o.op_complete_local(5, VTime(400), WcStatus::Success);
        o.op_deliver(1, 6, OpKind::PutEager, 8, VTime(300));
        o.op_complete_remote(1, 6, VTime(350), WcStatus::Success);
        let trace = o.span_trace();
        assert_eq!(trace.spans.len(), 2);
        let lats = o.latency_summaries();
        assert_eq!(lats.len(), 1, "both spans land in (PutEager, peer 1)");
        assert_eq!(lats[0].count, 2);
        assert_eq!(lats[0].max_ns, 300);
        // Disabling stops recording but keeps the data exportable.
        o.disable();
        o.op_post(7, 1, OpKind::Send, 8, VTime(500));
        assert_eq!(o.span_trace().spans.len(), 2);
    }
}
