//! The Photon context: the engine tying ledgers, eager rings, and the fabric
//! together behind the public PWC API.
//!
//! ## Memory layout
//!
//! Per-peer protocol memory is allocated **per connection, on first
//! contact**, not all-to-all at init. Each established connection
//! (`Conn`) registers two single-block regions on its owner:
//!
//! * the **service block** — written *only by the connected peer* and
//!   holding: the receive ledger from that peer, the eager ring from that
//!   peer, and the credit words for this rank's transmissions *to* that
//!   peer (returned by the peer's consumer);
//! * the **staging block** — a local mirror with identical structure, used
//!   as the registered source of protocol writes (frames, ledger entries,
//!   credit words are composed here and RDMA-written to the same
//!   sub-offset in the peer's service block).
//!
//! Connections are established lazily through an out-of-band connection
//! manager ([`ConnDirectory`], the PMI/CM stand-in; see `DESIGN.md`
//! "Membership and connection lifecycle") and live in a bounded LRU cache:
//! past [`PhotonConfig::conn_cache_cap`] the least-recently-used pair is
//! torn down, flushing its pending work requests exactly like peer death
//! does, and re-established on demand. Per-rank middleware memory is
//! therefore O(active peers), not O(N).
//!
//! ## Virtual time
//!
//! Each context owns a [`VClock`].  Posts depart at the clock's current
//! reading; completion events advance it (Lamport-style), and protocol
//! writes carry fabric-stamped delivery timestamps so remote completions
//! advance the consumer's clock correctly.  Probe costs are *not* charged to
//! virtual time (they are measured in wall time by the `photon-bench probe`
//! suite).

use crate::buffers::PhotonBuffer;
use crate::completion::{LocalQueue, RemoteQueue, RidMap, WrTable};
use crate::config::PhotonConfig;
use crate::conn::Conn;
use crate::eager;
use crate::ledger::ENTRY_BYTES;
use crate::obs::{Metrics, Obs, SpanTrace, Stats, StatsSnapshot, Tracer};
use crate::{PhotonError, Rank, Result};
use parking_lot::{Mutex, RwLock};
use photon_fabric::api::{
    Completion as Cqe, FabricBackend, MemoryRegion, RemoteKey, RemoteSlice, VClock, VTime,
    COPY_PS_PER_BYTE,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub use crate::cluster::PhotonCluster;
pub use crate::conn::{ConnDirectory, PeerHealthState};
pub use crate::tx::{GetManyItem, PutManyItem};

/// Bytes of credit words per peer block: ledger consumed count, ring
/// cursor, and the fabric-stamped virtual delivery time of the credit write
/// (so a producer that was *blocked* on credits advances its clock to the
/// moment the credits causally arrived).
pub(crate) const CREDIT_BYTES: usize = 24;

/// Internal-rid namespace for middleware-generated local completions.
pub(crate) const INTERNAL_RID_BASE: u64 = 0xFF10_0000_0000_0000;

/// Sentinel rid marking a doorbell-batched work request: the CQE's real
/// local rids live in [`Photon::batch_rids`], keyed by `wr_id`. Sits in the
/// reserved namespace so user rids can never alias it.
pub(crate) const BATCH_RID: u64 = 0xFF20_0000_0000_0000;

/// Consecutive `try_lock` skips of one peer's receive lock before a probe
/// blocks on it (see [`Photon::poll_peer`]).
pub(crate) const RX_SKIP_LIMIT: u32 = 16;

/// One-entry destination-resolve memo for a receive pass: `(rkey, MR-table
/// generation, region)`. See [`Photon::resolve_write_cached`].
pub(crate) type MrCache = Option<(u32, u64, MemoryRegion)>;

/// Retention cap of the per-context scratch-vector recycler caches: enough
/// for every plausible in-flight batch, small enough that an adversarial
/// burst cannot pin unbounded memory.
pub(crate) const VEC_POOL_CAP: usize = 64;

/// CQEs drained per harvest pass.
pub(crate) const CQ_HARVEST_BATCH: usize = 256;

/// Queue of collective-namespace arrivals: `(src, payload, arrival time)`.
pub(crate) type CollQueue = VecDeque<(Rank, Vec<u8>, VTime)>;

/// Snapshot of the credit/flow-control state between one rank and one peer,
/// taken by [`Photon::credit_state`] for invariant checking.
///
/// `tx_*` fields describe this rank's *production* toward the peer;
/// `rx_*` fields describe this rank's *consumption* of the peer's traffic;
/// `credit_word_*` are the raw credit words in this rank's service region
/// (written by the peer when it returns credits for this rank's production).
///
/// At quiescence, for ranks `a` and `b`:
/// `a.credit_state(b).tx_ledger_produced == b.credit_state(a).rx_ledger_consumed`
/// and the credit words lag consumption by less than one credit interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditState {
    /// Ledger entries this rank has produced toward the peer.
    pub tx_ledger_produced: u64,
    /// Eager-ring bytes this rank has reserved toward the peer (cursor).
    pub tx_ring_cursor: u64,
    /// Ledger entries this rank has consumed from the peer.
    pub rx_ledger_consumed: u64,
    /// Eager-ring bytes this rank has consumed from the peer (cursor).
    pub rx_ring_cursor: u64,
    /// Peer-written credit word: entries of ours the peer says it consumed.
    pub credit_word_ledger: u64,
    /// Peer-written credit word: ring bytes of ours the peer says it freed.
    pub credit_word_ring: u64,
}

/// A Photon middleware context: one per rank.
///
/// All methods take `&self` and the context is `Send + Sync`: a runtime may
/// drive it from multiple threads (e.g. workers posting while a progress
/// thread probes).
#[derive(Debug)]
pub struct Photon {
    pub(crate) rank: Rank,
    pub(crate) n: usize,
    pub(crate) cfg: PhotonConfig,
    pub(crate) nic: Arc<dyn FabricBackend>,
    pub(crate) clock: VClock,
    /// Established connections, keyed by peer rank. O(active peers): a
    /// never-contacted peer has no entry and costs nothing.
    pub(crate) conns: RwLock<HashMap<Rank, Arc<Conn>>>,
    /// LRU clock feeding [`Conn::touch`].
    pub(crate) conn_stamp: AtomicU64,
    /// Peers declared dead, with the incarnation that died. Reconnection
    /// is allowed only against a *newer* incarnation, so a flushed
    /// generation can never be resurrected.
    pub(crate) dead: Mutex<HashMap<Rank, u64>>,
    /// The out-of-band connection manager (set at cluster construction).
    pub(crate) directory: OnceLock<Arc<ConnDirectory>>,
    /// Collective scratch buffers, allocated on first collective use
    /// (`n * coll_slot_bytes` each — O(N), so lazy matters at scale).
    pub(crate) coll_recv: OnceLock<PhotonBuffer>,
    pub(crate) coll_send: OnceLock<PhotonBuffer>,
    /// Collective-window descriptors for every rank, pre-exchanged at
    /// multi-process join ([`crate::process::PhotonProcess`]). Absent
    /// in-process, where the connection directory serves the lookup.
    pub(crate) coll_keys: OnceLock<Vec<RemoteKey>>,
    pub(crate) wr_table: WrTable,
    pub(crate) local_events: LocalQueue,
    pub(crate) remote_events: RemoteQueue,
    /// Which class an `Any` probe tries first; flipped per take for fair
    /// local/remote interleaving.
    pub(crate) any_toggle: AtomicU64,
    /// Held (true) while one thread runs a [`Photon::progress`] pass;
    /// concurrent passes no-op instead of convoying on the CQ locks and
    /// per-peer region reads.
    pub(crate) progress_gate: AtomicBool,
    /// Probe counter driving the amortized progress schedule (see
    /// [`Photon::progress_for_probe`]).
    pub(crate) probe_ticks: AtomicU64,
    /// Recycled snapshot of the connection table for progress passes:
    /// sorted by peer rank so pass order (and thus virtual-time evolution)
    /// is deterministic regardless of hash-map iteration order.
    pub(crate) conn_scratch: Mutex<Vec<Arc<Conn>>>,
    /// Local rids carried by in-flight doorbell-batched work requests,
    /// keyed by `wr_id` (the wr itself carries [`BATCH_RID`]). One lock op
    /// per *batch*, not per frame; rid-hashed and free-listed so the
    /// steady-state batch path allocates nothing.
    pub(crate) batch_rids: Mutex<RidMap<Vec<u64>>>,
    /// Recycler cache of rid-list vectors cycling through `batch_rids`.
    pub(crate) rid_vec_pool: Mutex<Vec<Vec<u64>>>,
    /// Recycler cache of delivery-stamp offset vectors cycling through
    /// doorbell-batched work requests.
    pub(crate) stamp_vec_pool: Mutex<Vec<Vec<usize>>>,
    /// Recycled CQE harvest buffer (the allocation-free twin of polling
    /// into a fresh `Vec` per pass).
    pub(crate) cq_scratch: Mutex<Vec<Cqe>>,
    /// Peers declared dead by [`Photon::mark_dead`] and not yet collected
    /// via [`Photon::take_dead_peers`]. Runtime layers drain this to tear
    /// down per-peer state of their own (e.g. RPC dedup windows).
    pub(crate) dead_notify: Mutex<Vec<Rank>>,
    /// Lock-free fast path for [`Photon::take_dead_peers`]: number of
    /// uncollected entries in `dead_notify`.
    pub(crate) dead_pending: AtomicU64,
    pub(crate) coll_inbox: Mutex<HashMap<u64, CollQueue>>,
    pub(crate) rdv_announces: Mutex<HashMap<(Rank, u64), (RemoteKey, VTime)>>,
    pub(crate) rdv_fins: Mutex<HashMap<(Rank, u64), VTime>>,
    pub(crate) coll_seq: AtomicU32,
    pub(crate) next_internal: AtomicU64,
    pub(crate) credit_return_seq: AtomicU64,
    pub(crate) stats: Stats,
    pub(crate) tracer: Tracer,
    pub(crate) obs: Obs,
    pub(crate) ledger_bytes: usize,
    pub(crate) ring_bytes: usize,
    pub(crate) block: usize,
}

impl Photon {
    /// Build one context over any backend endpoint. The backbone of every
    /// construction path: the sim cluster, the in-process sockets cluster,
    /// and the multi-process join ([`crate::process::PhotonProcess`]).
    pub(crate) fn init_backend(
        rank: Rank,
        n: usize,
        nic: Arc<dyn FabricBackend>,
        mut cfg: PhotonConfig,
    ) -> Result<Photon> {
        // Normalize the ring size to the frame alignment.
        cfg.eager_ring_bytes = (cfg.eager_ring_bytes / eager::FRAME_ALIGN) * eager::FRAME_ALIGN;
        cfg.eager_ring_bytes = cfg.eager_ring_bytes.max(4 * eager::FRAME_HDR);
        let ledger_bytes = cfg.ledger_entries * ENTRY_BYTES;
        let ring_bytes = cfg.eager_ring_bytes;
        let block = ledger_bytes + ring_bytes + CREDIT_BYTES;

        Ok(Photon {
            rank,
            n,
            cfg,
            nic,
            clock: VClock::new(),
            conns: RwLock::new(HashMap::new()),
            conn_stamp: AtomicU64::new(0),
            dead: Mutex::new(HashMap::new()),
            directory: OnceLock::new(),
            coll_recv: OnceLock::new(),
            coll_send: OnceLock::new(),
            coll_keys: OnceLock::new(),
            wr_table: WrTable::new(),
            local_events: LocalQueue::new(),
            remote_events: RemoteQueue::new(),
            any_toggle: AtomicU64::new(0),
            progress_gate: AtomicBool::new(false),
            probe_ticks: AtomicU64::new(0),
            conn_scratch: Mutex::new(Vec::new()),
            batch_rids: Mutex::new(RidMap::default()),
            rid_vec_pool: Mutex::new(Vec::new()),
            stamp_vec_pool: Mutex::new(Vec::new()),
            cq_scratch: Mutex::new(Vec::new()),
            dead_notify: Mutex::new(Vec::new()),
            dead_pending: AtomicU64::new(0),
            coll_inbox: Mutex::new(HashMap::new()),
            rdv_announces: Mutex::new(HashMap::new()),
            rdv_fins: Mutex::new(HashMap::new()),
            coll_seq: AtomicU32::new(0),
            next_internal: AtomicU64::new(0),
            credit_return_seq: AtomicU64::new(0),
            stats: Stats::default(),
            tracer: Tracer::default(),
            obs: Obs::new(rank, n),
            ledger_bytes,
            ring_bytes,
            block,
        })
    }

    // ---------------------------------------------------------------- basic

    /// This context's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The active configuration.
    pub fn config(&self) -> &PhotonConfig {
        &self.cfg
    }

    /// The underlying fabric endpoint (escape hatch for verbs-level use),
    /// behind the backend seam.
    pub fn nic(&self) -> &Arc<dyn FabricBackend> {
        &self.nic
    }

    /// Current virtual time at this rank.
    pub fn now(&self) -> VTime {
        self.clock.now()
    }

    /// Model `ns` nanoseconds of local computation (overlap experiments).
    pub fn elapse(&self, ns: u64) -> VTime {
        self.clock.advance(ns)
    }

    /// Operation statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The operation tracer (disabled by default; see [`Tracer::enable`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The observability switchboard for latency histograms and lifecycle
    /// spans (disabled by default; see [`Obs::enable`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// One-call metrics export: the counter snapshot plus per-(op, peer)
    /// latency summaries (empty unless [`Obs::enable`] ran).
    pub fn metrics(&self) -> Metrics {
        Metrics { counters: self.stats.snapshot(), latencies: self.obs.latency_summaries() }
    }

    /// This rank's op-lifecycle span timeline (empty unless [`Obs::enable`]
    /// ran). Render with [`SpanTrace::to_chrome_json`] /
    /// [`SpanTrace::to_flamegraph`].
    pub fn span_trace(&self) -> SpanTrace {
        self.obs.span_trace()
    }

    /// Register a remotely accessible buffer of `len` bytes, charging the
    /// modeled registration (pinning) cost to this rank's virtual clock.
    pub fn register_buffer(&self, len: usize) -> Result<PhotonBuffer> {
        let buf = PhotonBuffer::register(self.nic.as_ref(), len)?;
        self.clock.advance(self.nic.registration_cost_ns(len));
        Ok(buf)
    }

    /// Deregister a buffer, releasing its pinning budget.
    pub fn release_buffer(&self, buf: &PhotonBuffer) -> Result<()> {
        self.nic.mrs().deregister(buf.region())?;
        Ok(())
    }

    /// Allocate a middleware-internal completion identifier (reserved
    /// namespace, never collides with user rids).
    pub fn internal_rid(&self) -> u64 {
        INTERNAL_RID_BASE | self.next_internal.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------ observer hooks
    //
    // Read-only snapshots for test harnesses and invariant checkers. None
    // of these drive progress or mutate protocol state.

    /// Work requests posted but not yet surfaced as local completions.
    /// A quiesced context has zero in flight. O(1) (atomic counter).
    pub fn in_flight(&self) -> usize {
        self.wr_table.len()
    }

    /// Depths of the `(local, remote)` completion-event queues: events
    /// delivered by progress but not yet consumed by probes/waits.
    /// O(1) (atomic counters).
    pub fn queued_events(&self) -> (usize, usize) {
        (self.local_events.len(), self.remote_events.len())
    }

    /// Undelivered rendezvous state: `(buffer announces, FINs)` parked for
    /// tags nobody has waited on yet.
    pub fn queued_rendezvous(&self) -> (usize, usize) {
        (self.rdv_announces.lock().len(), self.rdv_fins.lock().len())
    }

    /// Snapshot of the credit/flow-control state for the link between this
    /// rank and `peer` (both directions as seen from this side).
    pub fn credit_state(&self, peer: Rank) -> Result<CreditState> {
        self.check_rank(peer)?;
        // No connection yet (or already torn down): all counters are zero.
        let Some(conn) = self.conn_opt(peer) else {
            return Ok(CreditState {
                tx_ledger_produced: 0,
                tx_ring_cursor: 0,
                rx_ledger_consumed: 0,
                rx_ring_cursor: 0,
                credit_word_ledger: 0,
                credit_word_ring: 0,
            });
        };
        let (tx_ledger_produced, tx_ring_cursor) = {
            let tx = conn.tx.lock();
            (tx.ledger.produced(), tx.ring.cursor())
        };
        let (rx_ledger_consumed, rx_ring_cursor) = {
            let rx = conn.rx.lock();
            (rx.ledger.consumed(), rx.ring.cursor())
        };
        let off = self.sub_credit();
        Ok(CreditState {
            tx_ledger_produced,
            tx_ring_cursor,
            rx_ledger_consumed,
            rx_ring_cursor,
            credit_word_ledger: conn.svc.read_u64(off),
            credit_word_ring: conn.svc.read_u64(off + 8),
        })
    }

    pub(crate) fn check_rank(&self, peer: Rank) -> Result<()> {
        if peer >= self.n {
            return Err(PhotonError::InvalidRank(peer));
        }
        Ok(())
    }

    pub(crate) fn copy_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * COPY_PS_PER_BYTE).div_ceil(1000)
    }

    // ------------------------------------------------------ layout helpers
    //
    // Each connection owns one dedicated service block (and its staging
    // mirror), so all offsets are block-relative: there is no per-peer
    // stride any more.

    pub(crate) fn sub_ledger(&self, slot: usize) -> usize {
        slot * ENTRY_BYTES
    }

    pub(crate) fn sub_ring(&self, ring_off: usize) -> usize {
        self.ledger_bytes + ring_off
    }

    pub(crate) fn sub_credit(&self) -> usize {
        self.ledger_bytes + self.ring_bytes
    }

    pub(crate) fn remote_slice(&self, conn: &Conn, sub: usize, len: usize) -> RemoteSlice {
        RemoteSlice { addr: conn.remote_key.addr + sub as u64, rkey: conn.remote_key.rkey, len }
    }

    pub(crate) fn coll_slot_bytes(&self) -> usize {
        self.cfg.coll_slot_bytes
    }

    /// The collective receive window, allocated lazily on first collective
    /// (its footprint is O(N), which a churn simulation never pays).
    pub(crate) fn coll_recv_buf(&self) -> &PhotonBuffer {
        self.coll_recv.get_or_init(|| {
            PhotonBuffer::register(self.nic.as_ref(), self.n * self.cfg.coll_slot_bytes)
                .expect("collective recv window registration")
        })
    }

    /// The collective send window, allocated lazily on first collective.
    pub(crate) fn coll_send_buf(&self) -> &PhotonBuffer {
        self.coll_send.get_or_init(|| {
            PhotonBuffer::register(self.nic.as_ref(), self.n * self.cfg.coll_slot_bytes)
                .expect("collective send window registration")
        })
    }

    /// Descriptor of `peer`'s collective receive window: the key table a
    /// multi-process join pre-exchanged, or a lookup through the connection
    /// directory (out-of-band either way, like a PMI key lookup).
    pub(crate) fn coll_key(&self, peer: Rank) -> RemoteKey {
        if peer == self.rank {
            return self.coll_recv_buf().region().remote_key();
        }
        if let Some(keys) = self.coll_keys.get() {
            return keys[peer];
        }
        let dir = self.directory.get().expect("cluster initialized");
        let p = dir.photon(peer).expect("peer context alive");
        p.coll_recv_buf().region().remote_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::rid_space;
    use crate::{PhotonCluster, PhotonConfig, ProbeFlags};
    use photon_fabric::NetworkModel;

    fn pair() -> PhotonCluster {
        PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default())
    }

    #[test]
    fn virtual_clock_advances_along_causal_chain() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        assert_eq!(p0.now(), VTime::ZERO);
        p0.send(1, b"ping", 1).unwrap();
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert!(p1.now() >= ev.ts);
        assert!(ev.ts.as_nanos() >= 700, "at least one wire latency");
        // Local compute advances explicitly.
        let before = p0.now();
        p0.elapse(5_000);
        assert_eq!(p0.now().as_nanos(), before.as_nanos() + 5_000);
    }

    #[test]
    fn tracer_records_operation_timeline() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        p0.tracer().enable();
        p1.tracer().enable();
        let src = p0.register_buffer(64).unwrap();
        let dst = p1.register_buffer(64).unwrap();
        p0.put_with_completion(1, &src, 0, 32, &dst.descriptor(), 0, 1, 2).unwrap();
        p0.wait_local(1).unwrap();
        p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        let tx = p0.tracer().take();
        assert!(tx.iter().any(|r| r.op == crate::obs::TraceOp::PutEager && r.size == 32));
        assert!(tx.iter().any(|r| r.op == crate::obs::TraceOp::LocalDone && r.rid == 1));
        let rx = p1.tracer().take();
        let done = rx
            .iter()
            .find(|r| r.op == crate::obs::TraceOp::RemoteDone)
            .expect("remote completion traced");
        assert_eq!((done.rid, done.peer, done.size), (2, 0, 32));
        // Timeline is causally ordered: remote-done after the local post.
        let posted = tx.iter().find(|r| r.op == crate::obs::TraceOp::PutEager).unwrap();
        assert!(done.ts >= posted.ts);
        let csv = p1.tracer().to_csv();
        assert!(csv.starts_with("ts_ns,op"));
    }

    #[test]
    fn internal_rids_are_reserved_and_unique() {
        let c = pair();
        let p0 = c.rank(0);
        let a = p0.internal_rid();
        let b = p0.internal_rid();
        assert_ne!(a, b);
        assert!(rid_space::is_reserved(a));
    }

    #[test]
    fn register_buffer_charges_registration_cost() {
        let c = pair();
        let p0 = c.rank(0);
        let before = p0.now();
        let _b = p0.register_buffer(1 << 20).unwrap();
        let m = NetworkModel::ib_fdr();
        assert_eq!(p0.now().as_nanos() - before.as_nanos(), m.registration_ns(1 << 20));
    }
}
