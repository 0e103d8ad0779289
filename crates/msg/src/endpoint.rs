//! The baseline engine: tag matching, eager pool, rendezvous.

use crate::buffer::MsgBuffer;
use crate::wire::{Header, MsgKind, HDR};
use crate::{MsgConfig, MsgError, Rank, Result};
use parking_lot::Mutex;
use photon_fabric::mr::Access;
use photon_fabric::verbs::{CompletionKind, MrSlice, Qp, RecvWr, RemoteSlice, SendWr, WrOp};
use photon_fabric::{
    Cluster, FabricBackend, MemoryRegion, NetworkModel, Nic, VClock, VTime, WcStatus,
    COPY_PS_PER_BYTE,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a matched message's payload should land.
#[derive(Debug)]
enum Landing {
    /// The library allocates (recv returns an owned `Vec`).
    Owned,
    /// A pre-registered user buffer (zero-copy rendezvous).
    User { region: MemoryRegion, off: usize, cap: usize },
}

#[derive(Debug)]
struct PostedRecv {
    req: u64,
    src: Option<Rank>,
    tag: Option<u64>,
    landing: Landing,
}

impl PostedRecv {
    fn matches(&self, src: Rank, tag: u64) -> bool {
        self.src.is_none_or(|s| s == src) && self.tag.is_none_or(|t| t == tag)
    }
}

#[derive(Debug)]
struct RtsInfo {
    src: Rank,
    tag: u64,
    xid: u64,
    size: usize,
    ts: VTime,
}

#[derive(Debug)]
struct SenderRdv {
    peer: Rank,
    region: MemoryRegion,
    off: usize,
    len: usize,
    owned: bool,
}

#[derive(Debug)]
struct RecvRdv {
    req: u64,
    src: Rank,
    tag: u64,
    size: usize,
    region: MemoryRegion,
    off: usize,
    owned: bool,
}

#[derive(Debug)]
struct UnexMsg {
    /// Global arrival sequence number, unique across all sources.
    seq: u64,
    tag: u64,
    data: Vec<u8>,
    ts: VTime,
}

/// Unexpected-message store sharded per source rank, mirroring the sharded
/// completion engine in photon-core: a known-`src` match scans only that
/// source's queue, and wildcard matches pick the minimum arrival `seq`
/// across per-source heads instead of scanning one global FIFO.
#[derive(Debug, Default)]
struct UnexpectedQueue {
    by_src: HashMap<Rank, VecDeque<UnexMsg>>,
    next_seq: u64,
    len: usize,
}

impl UnexpectedQueue {
    fn push(&mut self, src: Rank, tag: u64, data: Vec<u8>, ts: VTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_src.entry(src).or_default().push_back(UnexMsg { seq, tag, data, ts });
        self.len += 1;
    }

    /// Queued message count (used by the matching reference-model test).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Locate the earliest-arrival message matching the pattern. The unique
    /// global `seq` makes the wildcard-src winner deterministic regardless
    /// of map iteration order.
    fn find(&self, src: Option<Rank>, tag: Option<u64>) -> Option<(Rank, usize)> {
        let first_match = |s: Rank, q: &VecDeque<UnexMsg>| {
            q.iter()
                .enumerate()
                .find(|(_, m)| tag.is_none_or(|w| w == m.tag))
                .map(|(i, m)| (m.seq, s, i))
        };
        let best = match src {
            Some(s) => self.by_src.get(&s).and_then(|q| first_match(s, q)),
            None => self
                .by_src
                .iter()
                .filter_map(|(&s, q)| first_match(s, q))
                .min_by_key(|&(seq, _, _)| seq),
        };
        best.map(|(_, s, i)| (s, i))
    }

    /// Envelope of the earliest match without consuming it.
    fn peek(&self, src: Option<Rank>, tag: Option<u64>) -> Option<(Rank, u64, usize)> {
        let (s, i) = self.find(src, tag)?;
        let m = &self.by_src[&s][i];
        Some((s, m.tag, m.data.len()))
    }

    /// Remove and return the earliest match.
    fn take(&mut self, src: Option<Rank>, tag: Option<u64>) -> Option<(Rank, u64, Vec<u8>, VTime)> {
        let (s, i) = self.find(src, tag)?;
        let m = self.by_src.get_mut(&s).expect("source present").remove(i).expect("index valid");
        self.len -= 1;
        Some((s, m.tag, m.data, m.ts))
    }
}

#[derive(Debug, Default)]
struct EpState {
    posted: Vec<PostedRecv>,
    completed: HashMap<u64, RecvMsg>,
    unexpected: UnexpectedQueue,
    rts_queue: VecDeque<RtsInfo>,
    sender_rdv: HashMap<u64, SenderRdv>,
    recv_rdv: HashMap<u64, RecvRdv>,
    sends_done: HashSet<u64>,
    /// Peers declared unreachable: new operations toward them fail fast.
    dead: HashSet<Rank>,
    /// Rendezvous sends resolved with an error (xid → dead peer).
    failed_sends: HashMap<u64, Rank>,
    /// Receive requests resolved with an error (req → dead peer).
    failed_reqs: HashMap<u64, Rank>,
}

/// A completed receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvMsg {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: u64,
    /// Payload length.
    pub len: usize,
    /// The payload (empty when received into a user buffer).
    pub data: Vec<u8>,
    /// Virtual completion time.
    pub ts: VTime,
}

photon_core::counter_registry! {
    /// Atomic counter registry backing [`MsgStats`].
    registry StatsInner;
    /// Baseline operation counters.
    snapshot MsgStats;
    table MSG_COUNTERS;
    counters {
        /// Eager sends.
        sends_eager,
        /// Rendezvous sends.
        sends_rdv,
        /// Completed receives.
        recvs,
        /// Messages that arrived before a matching receive was posted.
        unexpected,
        /// Per-transfer registrations performed (uncached-MPI behaviour).
        registrations,
        /// Payload bytes sent.
        bytes_sent,
    }
}

/// Cached registrations retained per size class. Releases past the cap are
/// deregistered so the cache cannot pin unbounded memory after a burst.
const REG_CACHE_PER_SIZE: usize = 8;

/// One rank of the baseline messaging job.
#[derive(Debug)]
pub struct MsgEndpoint {
    rank: Rank,
    n: usize,
    cfg: MsgConfig,
    nic: Arc<Nic>,
    qps: Vec<Qp>,
    clock: VClock,
    pool: MemoryRegion,
    slot_bytes: usize,
    stage: Mutex<MemoryRegion>,
    state: Mutex<EpState>,
    next_xid: AtomicU64,
    next_req: AtomicU64,
    reg_cache: Mutex<HashMap<usize, Vec<MemoryRegion>>>,
    stats: StatsInner,
}

/// A whole baseline job over one fabric.
#[derive(Debug)]
pub struct MsgCluster {
    fabric: Cluster,
    endpoints: Vec<Arc<MsgEndpoint>>,
}

impl MsgCluster {
    /// Build an `n`-rank job over a fresh cluster using `model`.
    pub fn new(n: usize, model: NetworkModel, cfg: MsgConfig) -> MsgCluster {
        Self::with_fabric(Cluster::new(n, model), cfg)
    }

    /// Build over a pre-constructed fabric.
    pub fn with_fabric(fabric: Cluster, cfg: MsgConfig) -> MsgCluster {
        let n = fabric.len();
        let endpoints = (0..n)
            .map(|i| Arc::new(MsgEndpoint::init(i, &fabric, cfg).expect("endpoint init")))
            .collect();
        MsgCluster { fabric, endpoints }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True for an empty job.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The endpoint for `rank`.
    pub fn rank(&self, rank: Rank) -> &Arc<MsgEndpoint> {
        &self.endpoints[rank]
    }

    /// All endpoints.
    pub fn ranks(&self) -> &[Arc<MsgEndpoint>] {
        &self.endpoints
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Cluster {
        &self.fabric
    }

    /// Reset virtual time (benchmark repetitions).
    pub fn reset_time(&self) {
        self.fabric.switch().reset_time();
        for e in &self.endpoints {
            e.clock.reset();
        }
    }
}

impl MsgEndpoint {
    fn init(rank: Rank, fabric: &Cluster, cfg: MsgConfig) -> Result<MsgEndpoint> {
        let n = fabric.len();
        let nic = Arc::clone(fabric.nic(rank));
        let qps = (0..n).map(|j| nic.create_qp(j)).collect::<photon_fabric::Result<Vec<_>>>()?;
        let slot_bytes = HDR + cfg.eager_threshold;
        let pool = nic.register(cfg.pool_slots * slot_bytes, Access::ALL)?;
        let stage = nic.register(slot_bytes, Access::LOCAL)?;
        let ep = MsgEndpoint {
            rank,
            n,
            cfg,
            nic,
            qps,
            clock: VClock::new(),
            pool,
            slot_bytes,
            stage: Mutex::new(stage),
            state: Mutex::new(EpState::default()),
            next_xid: AtomicU64::new(1),
            next_req: AtomicU64::new(1),
            reg_cache: Mutex::new(HashMap::new()),
            stats: StatsInner::default(),
        };
        for slot in 0..cfg.pool_slots {
            ep.repost_slot(slot)?;
        }
        Ok(ep)
    }

    fn repost_slot(&self, slot: usize) -> Result<()> {
        self.nic.post_recv(RecvWr {
            wr_id: slot as u64,
            local: MrSlice::new(&self.pool, slot * self.slot_bytes, self.slot_bytes),
        })?;
        Ok(())
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Ranks in the job.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.clock.now()
    }

    /// Model `ns` of local computation.
    pub fn elapse(&self, ns: u64) -> VTime {
        self.clock.advance(ns)
    }

    /// Operation statistics.
    pub fn stats(&self) -> MsgStats {
        self.stats.snapshot()
    }

    /// Register a buffer for the zero-copy variants, charging registration
    /// cost.
    pub fn register_buffer(&self, len: usize) -> Result<MsgBuffer> {
        let b = MsgBuffer::register(&self.nic, len)?;
        self.clock.advance(self.nic.registration_cost_ns(len));
        Ok(b)
    }

    fn check_rank(&self, peer: Rank) -> Result<()> {
        if peer >= self.n {
            return Err(MsgError::InvalidRank(peer));
        }
        Ok(())
    }

    // -------------------------------------------------------- peer failure
    //
    // The baseline has no health machine or reconnection probes (contrast
    // photon-core): the first post that hits a dead or partitioned peer
    // fails, the peer is declared unreachable, and every pending operation
    // bound to it — rendezvous sends awaiting CTS, receives matched to that
    // source, parked RTS announcements — is resolved with
    // [`MsgError::PeerUnreachable`]. Nothing hangs; nothing retries.

    /// True if `peer` has been declared unreachable.
    pub fn peer_unreachable(&self, peer: Rank) -> bool {
        self.state.lock().dead.contains(&peer)
    }

    /// Declare `peer` unreachable and fail everything pending toward it.
    /// Idempotent.
    fn mark_peer_dead(&self, peer: Rank) {
        let mut orphans: Vec<MemoryRegion> = Vec::new();
        {
            let mut st = self.state.lock();
            if !st.dead.insert(peer) {
                return;
            }
            // Rendezvous sends whose CTS can never arrive.
            let xids: Vec<u64> =
                st.sender_rdv.iter().filter(|(_, r)| r.peer == peer).map(|(&x, _)| x).collect();
            for x in xids {
                let rdv = st.sender_rdv.remove(&x).expect("xid present");
                if rdv.owned {
                    orphans.push(rdv.region);
                }
                st.failed_sends.insert(x, peer);
            }
            // Receives bound to the dead source. Wildcard receives stay
            // posted: another peer can still match them.
            let mut i = 0;
            while i < st.posted.len() {
                if st.posted[i].src == Some(peer) {
                    let p = st.posted.remove(i);
                    st.failed_reqs.insert(p.req, peer);
                } else {
                    i += 1;
                }
            }
            // In-flight rendezvous receives whose FIN can never arrive.
            let xids: Vec<u64> =
                st.recv_rdv.iter().filter(|(_, r)| r.src == peer).map(|(&x, _)| x).collect();
            for x in xids {
                let rdv = st.recv_rdv.remove(&x).expect("xid present");
                if rdv.owned {
                    orphans.push(rdv.region);
                }
                st.failed_reqs.insert(rdv.req, peer);
            }
            // Unmatched RTS announcements from the dead peer are garbage.
            st.rts_queue.retain(|r| r.src != peer);
        }
        for r in orphans {
            let _ = self.release_region(r);
        }
    }

    /// Map a failed post toward `peer`: connectivity errors declare the
    /// peer dead (resolving all its pending state) and become
    /// [`MsgError::PeerUnreachable`]; everything else passes through.
    fn fail_post(&self, peer: Rank, e: MsgError) -> MsgError {
        if matches!(e, MsgError::Fabric(photon_fabric::FabricError::PeerUnreachable { .. })) {
            self.mark_peer_dead(peer);
            MsgError::PeerUnreachable(peer)
        } else {
            e
        }
    }

    /// Fast-fail guard for new operations toward a known-dead peer.
    fn check_peer_alive(&self, peer: Rank) -> Result<()> {
        if self.state.lock().dead.contains(&peer) {
            return Err(MsgError::PeerUnreachable(peer));
        }
        Ok(())
    }

    /// Fail pending operations bound to peers the fault plan has since
    /// declared dead. Detects *silent* death — a receiver blocked on a
    /// crashed sender would otherwise spin to its timeout without ever
    /// posting toward the peer. Partitions are not scanned for: they may
    /// heal, and the pending operation can still complete afterwards.
    fn scan_dead_peers(&self) {
        let now = self.clock.now();
        for p in 0..self.n {
            if p != self.rank
                && self.nic.peer_status(self.qps[p], now) == Some(WcStatus::RemoteDead)
            {
                self.mark_peer_dead(p);
            }
        }
    }

    fn copy_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * COPY_PS_PER_BYTE).div_ceil(1000)
    }

    /// Acquire an internally managed registered region of exactly `len`
    /// bytes: from the cache when enabled (free), else a fresh registration
    /// (charged to the virtual clock and counted).
    fn acquire_region(&self, len: usize) -> Result<MemoryRegion> {
        if self.cfg.registration_cache {
            if let Some(r) = self.reg_cache.lock().get_mut(&len).and_then(Vec::pop) {
                return Ok(r);
            }
        }
        let r = self.nic.register(len, Access::ALL)?;
        self.clock.advance(self.nic.registration_cost_ns(len));
        StatsInner::bump(&self.stats.registrations);
        Ok(r)
    }

    /// Return an internally managed region: to the cache when enabled and
    /// its size bucket has room, otherwise deregister. The per-size cap
    /// keeps a burst of concurrent transfers from pinning memory forever —
    /// the cache bounds steady-state reuse, it is not a leak.
    fn release_region(&self, r: MemoryRegion) -> Result<()> {
        if self.cfg.registration_cache {
            let mut cache = self.reg_cache.lock();
            let bucket = cache.entry(r.len()).or_default();
            if bucket.len() < REG_CACHE_PER_SIZE {
                bucket.push(r);
                return Ok(());
            }
        }
        self.nic.mrs().deregister(&r)?;
        Ok(())
    }

    pub(crate) fn internal_gen(&self) -> u64 {
        self.next_xid.fetch_add(1, Ordering::Relaxed)
    }

    // ------------------------------------------------------------- sending

    /// Blocking send of `data` to `peer` with `tag`. Small messages go
    /// eager; large ones rendezvous with a per-transfer registration (the
    /// uncached-MPI cost model).
    pub fn send(&self, peer: Rank, data: &[u8], tag: u64) -> Result<()> {
        self.check_rank(peer)?;
        if data.len() <= self.cfg.eager_threshold {
            self.send_eager(peer, tag, data)
        } else {
            let region = self.acquire_region(data.len())?;
            region.write_at(0, data);
            self.clock.advance(self.copy_ns(data.len()));
            self.send_rendezvous(peer, region, 0, data.len(), tag, true)
        }
    }

    /// Blocking zero-copy send from a pre-registered buffer.
    pub fn send_from(
        &self,
        peer: Rank,
        buf: &MsgBuffer,
        off: usize,
        len: usize,
        tag: u64,
    ) -> Result<()> {
        self.check_rank(peer)?;
        buf.check(off, len)?;
        if len <= self.cfg.eager_threshold {
            let data = buf.to_vec(off, len);
            self.send_eager(peer, tag, &data)
        } else {
            self.send_rendezvous(peer, buf.region().clone(), off, len, tag, false)
        }
    }

    fn send_eager(&self, peer: Rank, tag: u64, data: &[u8]) -> Result<()> {
        self.check_peer_alive(peer)?;
        let h =
            Header { kind: MsgKind::Eager, tag, size: data.len() as u64, xid: 0, addr: 0, rkey: 0 };
        {
            let stage = self.stage.lock();
            stage.write_at(0, &h.encode());
            if !data.is_empty() {
                stage.write_at(HDR, data);
                self.clock.advance(self.copy_ns(data.len()));
            }
            let wr = SendWr::unsignaled(WrOp::Send {
                local: MrSlice::new(&stage, 0, HDR + data.len()),
                imm: None,
            });
            self.nic
                .post_send(self.qps[peer], wr, self.clock.now())
                .map_err(|e| self.fail_post(peer, e.into()))?;
        }
        StatsInner::bump(&self.stats.sends_eager);
        StatsInner::add(&self.stats.bytes_sent, data.len() as u64);
        Ok(())
    }

    fn post_ctrl(&self, peer: Rank, h: Header) -> Result<()> {
        let stage = self.stage.lock();
        stage.write_at(0, &h.encode());
        let wr = SendWr::unsignaled(WrOp::Send { local: MrSlice::new(&stage, 0, HDR), imm: None });
        self.nic
            .post_send(self.qps[peer], wr, self.clock.now())
            .map_err(|e| self.fail_post(peer, e.into()))?;
        Ok(())
    }

    fn send_rendezvous(
        &self,
        peer: Rank,
        region: MemoryRegion,
        off: usize,
        len: usize,
        tag: u64,
        owned: bool,
    ) -> Result<()> {
        let xid = self.start_rendezvous(peer, region, off, len, tag, owned)?;
        self.wait_send_xid(xid)
    }

    /// Kick off a rendezvous send (RTS posted); returns its transfer id.
    fn start_rendezvous(
        &self,
        peer: Rank,
        region: MemoryRegion,
        off: usize,
        len: usize,
        tag: u64,
        owned: bool,
    ) -> Result<u64> {
        self.check_peer_alive(peer)?;
        let xid = ((self.rank as u64) << 48) | self.next_xid.fetch_add(1, Ordering::Relaxed);
        self.state.lock().sender_rdv.insert(xid, SenderRdv { peer, region, off, len, owned });
        self.post_ctrl(
            peer,
            Header { kind: MsgKind::Rts, tag, size: len as u64, xid, addr: 0, rkey: 0 },
        )?;
        StatsInner::bump(&self.stats.sends_rdv);
        StatsInner::add(&self.stats.bytes_sent, len as u64);
        Ok(xid)
    }

    /// Block until rendezvous `xid`'s data + FIN were injected. Resolves
    /// with [`MsgError::PeerUnreachable`] if the peer died mid-handshake.
    pub(crate) fn wait_send_xid(&self, xid: u64) -> Result<()> {
        self.blocking("rendezvous clear-to-send", |s| {
            let mut st = s.state.lock();
            if let Some(peer) = st.failed_sends.remove(&xid) {
                return Err(MsgError::PeerUnreachable(peer));
            }
            Ok(st.sends_done.remove(&xid).then_some(()))
        })
    }

    /// Consume the done-flag of rendezvous `xid` if set (nonblocking);
    /// errors if the transfer was resolved by peer failure instead.
    pub(crate) fn send_xid_done(&self, xid: u64) -> Result<bool> {
        let mut st = self.state.lock();
        if let Some(peer) = st.failed_sends.remove(&xid) {
            return Err(MsgError::PeerUnreachable(peer));
        }
        Ok(st.sends_done.remove(&xid))
    }

    /// Post an owned-landing receive request (nonblocking API support).
    pub(crate) fn post_owned_recv(&self, src: Option<Rank>, tag: Option<u64>) -> Result<u64> {
        self.post_recv_req(src, tag, Landing::Owned)
    }

    /// Blocking completion of request `req` (nonblocking API support).
    pub(crate) fn wait_req_pub(&self, req: u64) -> Result<RecvMsg> {
        self.wait_req(req)
    }

    /// Take request `req`'s completed message if present (nonblocking);
    /// errors if the request was resolved by peer failure instead.
    pub(crate) fn take_completed(&self, req: u64) -> Result<Option<RecvMsg>> {
        let m = {
            let mut st = self.state.lock();
            if let Some(peer) = st.failed_reqs.remove(&req) {
                return Err(MsgError::PeerUnreachable(peer));
            }
            match st.completed.remove(&req) {
                Some(m) => m,
                None => return Ok(None),
            }
        };
        self.clock.advance_to(m.ts);
        StatsInner::bump(&self.stats.recvs);
        Ok(Some(m))
    }

    /// Start a send without blocking: eager sends complete at post
    /// (returns `None`); large ones return the rendezvous id to wait on.
    pub(crate) fn start_send(&self, peer: Rank, data: &[u8], tag: u64) -> Result<Option<u64>> {
        self.check_rank(peer)?;
        if data.len() <= self.cfg.eager_threshold {
            self.send_eager(peer, tag, data)?;
            Ok(None)
        } else {
            let region = self.acquire_region(data.len())?;
            region.write_at(0, data);
            self.clock.advance(self.copy_ns(data.len()));
            Ok(Some(self.start_rendezvous(peer, region, 0, data.len(), tag, true)?))
        }
    }

    // ----------------------------------------------------------- receiving

    /// Blocking receive. `src`/`tag` of `None` are wildcards. Returns the
    /// payload as an owned `Vec` (eager: one bounce-buffer copy; rendezvous:
    /// per-transfer registration of the landing buffer).
    pub fn recv(&self, src: Option<Rank>, tag: Option<u64>) -> Result<RecvMsg> {
        let req = self.post_recv_req(src, tag, Landing::Owned)?;
        self.wait_req(req)
    }

    /// Blocking receive into a pre-registered buffer (zero-copy rendezvous
    /// path; eager payloads are copied in).
    pub fn recv_into(
        &self,
        buf: &MsgBuffer,
        off: usize,
        cap: usize,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Result<RecvMsg> {
        buf.check(off, cap)?;
        let req =
            self.post_recv_req(src, tag, Landing::User { region: buf.region().clone(), off, cap })?;
        self.wait_req(req)
    }

    /// Non-blocking envelope probe (`MPI_Iprobe` analogue): reports the
    /// `(src, tag, len)` of the first queued message matching the pattern
    /// without consuming it.
    pub fn probe(&self, src: Option<Rank>, tag: Option<u64>) -> Result<Option<(Rank, u64, usize)>> {
        self.progress()?;
        let st = self.state.lock();
        Ok(st.unexpected.peek(src, tag).or_else(|| {
            st.rts_queue
                .iter()
                .find(|r| src.is_none_or(|w| w == r.src) && tag.is_none_or(|w| w == r.tag))
                .map(|r| (r.src, r.tag, r.size))
        }))
    }

    /// Non-blocking probe-and-receive: `Ok(None)` if nothing matches yet.
    pub fn try_recv(&self, src: Option<Rank>, tag: Option<u64>) -> Result<Option<RecvMsg>> {
        self.progress()?;
        let mut st = self.state.lock();
        if let Some((s, t, data, ts)) = st.unexpected.take(src, tag) {
            drop(st);
            self.clock.advance(self.copy_ns(data.len()));
            self.clock.advance_to(ts);
            StatsInner::bump(&self.stats.recvs);
            return Ok(Some(RecvMsg { src: s, tag: t, len: data.len(), data, ts }));
        }
        Ok(None)
    }

    fn post_recv_req(&self, src: Option<Rank>, tag: Option<u64>, landing: Landing) -> Result<u64> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let req = self.next_req.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        if let Some((s, t, data, ts)) = st.unexpected.take(src, tag) {
            drop(st);
            self.complete_eager(req, s, t, data, ts, landing)?;
            return Ok(req);
        }
        if let Some(pos) = st
            .rts_queue
            .iter()
            .position(|r| src.is_none_or(|w| w == r.src) && tag.is_none_or(|w| w == r.tag))
        {
            let rts = st.rts_queue.remove(pos).expect("position valid");
            drop(st);
            self.start_cts(req, rts, landing)?;
            return Ok(req);
        }
        // Nothing queued can satisfy it: a source known to be dead makes
        // the request unsatisfiable, so fail now rather than park forever.
        if let Some(s) = src {
            if st.dead.contains(&s) {
                return Err(MsgError::PeerUnreachable(s));
            }
        }
        st.posted.push(PostedRecv { req, src, tag, landing });
        Ok(req)
    }

    fn wait_req(&self, req: u64) -> Result<RecvMsg> {
        let msg = self.blocking("receive completion", |s| {
            let mut st = s.state.lock();
            if let Some(peer) = st.failed_reqs.remove(&req) {
                return Err(MsgError::PeerUnreachable(peer));
            }
            Ok(st.completed.remove(&req))
        })?;
        self.clock.advance_to(msg.ts);
        StatsInner::bump(&self.stats.recvs);
        Ok(msg)
    }

    fn complete_eager(
        &self,
        req: u64,
        src: Rank,
        tag: u64,
        data: Vec<u8>,
        ts: VTime,
        landing: Landing,
    ) -> Result<()> {
        // Tag matching and the bounce-buffer copy are the two-sided tax.
        self.clock.advance_to(ts);
        self.clock.advance(self.cfg.match_overhead_ns);
        let done = self.clock.advance(self.copy_ns(data.len()));
        let msg = match landing {
            Landing::Owned => RecvMsg { src, tag, len: data.len(), data, ts: done },
            Landing::User { region, off, cap } => {
                if data.len() > cap {
                    return Err(MsgError::TruncatedReceive { incoming: data.len(), capacity: cap });
                }
                region.write_at(off, &data);
                RecvMsg { src, tag, len: data.len(), data: Vec::new(), ts: done }
            }
        };
        self.state.lock().completed.insert(req, msg);
        Ok(())
    }

    fn start_cts(&self, req: u64, rts: RtsInfo, landing: Landing) -> Result<()> {
        self.clock.advance(self.cfg.match_overhead_ns);
        let (region, off, owned) = match landing {
            Landing::Owned => (self.acquire_region(rts.size)?, 0usize, true),
            Landing::User { region, off, cap } => {
                if rts.size > cap {
                    return Err(MsgError::TruncatedReceive { incoming: rts.size, capacity: cap });
                }
                (region, off, false)
            }
        };
        let h = Header {
            kind: MsgKind::Cts,
            tag: rts.tag,
            size: rts.size as u64,
            xid: rts.xid,
            addr: region.base_addr() + off as u64,
            rkey: region.rkey(),
        };
        self.state.lock().recv_rdv.insert(
            rts.xid,
            RecvRdv { req, src: rts.src, tag: rts.tag, size: rts.size, region, off, owned },
        );
        self.clock.advance_to(rts.ts);
        match self.post_ctrl(rts.src, h) {
            // The sender died after its RTS: `fail_post` already resolved
            // the just-parked transfer (and `req`) via `mark_peer_dead`.
            Err(MsgError::PeerUnreachable(_)) => Ok(()),
            r => r,
        }
    }

    // ------------------------------------------------------------ progress

    /// Drain the receive pool: match eager messages, advance rendezvous
    /// state machines, and resolve operations stranded by peer death.
    pub fn progress(&self) -> Result<()> {
        self.scan_dead_peers();
        let mut comps = Vec::new();
        loop {
            if self.nic.poll_recv_cq_into(64, &mut comps) == 0 {
                return Ok(());
            }
            for c in comps.drain(..) {
                let CompletionKind::RecvDone { src, len, .. } = c.kind else {
                    continue;
                };
                let slot = c.wr_id as usize;
                let bytes = self.pool.to_vec(slot * self.slot_bytes, len);
                self.repost_slot(slot)?;
                let Some(h) = Header::decode(&bytes) else {
                    return Err(MsgError::Protocol("undecodable message header"));
                };
                match h.kind {
                    MsgKind::Eager => {
                        let payload = bytes[HDR..HDR + h.size as usize].to_vec();
                        self.handle_eager(src, h.tag, payload, c.ts)?;
                    }
                    MsgKind::Rts => {
                        let rts = RtsInfo {
                            src,
                            tag: h.tag,
                            xid: h.xid,
                            size: h.size as usize,
                            ts: c.ts,
                        };
                        let matched = {
                            let mut st = self.state.lock();
                            match st.posted.iter().position(|p| p.matches(src, h.tag)) {
                                Some(pos) => Some((st.posted.remove(pos), rts)),
                                None => {
                                    st.rts_queue.push_back(rts);
                                    None
                                }
                            }
                        };
                        if let Some((p, rts)) = matched {
                            self.start_cts(p.req, rts, p.landing)?;
                        }
                    }
                    MsgKind::Cts => {
                        let rdv = {
                            let mut st = self.state.lock();
                            match st.sender_rdv.remove(&h.xid) {
                                Some(r) => r,
                                // A CTS racing our declaration of the peer's
                                // death: the transfer is already resolved.
                                None if st.dead.contains(&src)
                                    || st.failed_sends.contains_key(&h.xid) =>
                                {
                                    continue;
                                }
                                None => {
                                    return Err(MsgError::Protocol("CTS for unknown transfer"));
                                }
                            }
                        };
                        self.clock.advance_to(c.ts);
                        // Data write then FIN on the same QP: ordered. The
                        // write is signaled so the (blocking) sender's clock
                        // can advance to injection completion — an MPI-style
                        // send returns only when the source is reusable.
                        let wr_id = 0xD0_0000_0000_0000 | h.xid;
                        let wr = SendWr::new(
                            wr_id,
                            WrOp::Write {
                                local: MrSlice::new(&rdv.region, rdv.off, rdv.len),
                                remote: RemoteSlice { addr: h.addr, rkey: h.rkey, len: rdv.len },
                                imm: None,
                            },
                        );
                        let fin = Header {
                            kind: MsgKind::Fin,
                            tag: h.tag,
                            size: rdv.len as u64,
                            xid: h.xid,
                            addr: 0,
                            rkey: 0,
                        };
                        let posted = self
                            .nic
                            .post_send(self.qps[rdv.peer], wr, self.clock.now())
                            .map_err(|e| self.fail_post(rdv.peer, e.into()))
                            .and_then(|()| {
                                // The fabric is synchronous: the CQE is
                                // available now.
                                while let Some(wc) = self.nic.poll_send_cq() {
                                    if wc.wr_id == wr_id {
                                        self.clock.advance_to(wc.ts);
                                        break;
                                    }
                                }
                                self.post_ctrl(rdv.peer, fin)
                            });
                        match posted {
                            Ok(()) => {}
                            Err(MsgError::PeerUnreachable(p)) => {
                                // The peer died between its CTS and our
                                // data/FIN: resolve the send with an error.
                                self.state.lock().failed_sends.insert(h.xid, p);
                                if rdv.owned {
                                    let _ = self.release_region(rdv.region);
                                }
                                continue;
                            }
                            Err(e) => return Err(e),
                        }
                        if rdv.owned {
                            self.release_region(rdv.region)?;
                        }
                        self.state.lock().sends_done.insert(h.xid);
                    }
                    MsgKind::Fin => {
                        let rdv = self.state.lock().recv_rdv.remove(&h.xid);
                        let Some(rdv) = rdv else {
                            return Err(MsgError::Protocol("FIN for unknown transfer"));
                        };
                        let msg = if rdv.owned {
                            let data = rdv.region.to_vec(rdv.off, rdv.size);
                            self.release_region(rdv.region.clone())?;
                            self.clock.advance_to(c.ts);
                            let done = self.clock.advance(self.copy_ns(rdv.size));
                            RecvMsg { src: rdv.src, tag: rdv.tag, len: rdv.size, data, ts: done }
                        } else {
                            RecvMsg {
                                src: rdv.src,
                                tag: rdv.tag,
                                len: rdv.size,
                                data: Vec::new(),
                                ts: c.ts,
                            }
                        };
                        self.state.lock().completed.insert(rdv.req, msg);
                    }
                }
            }
        }
    }

    fn handle_eager(&self, src: Rank, tag: u64, payload: Vec<u8>, ts: VTime) -> Result<()> {
        let matched = {
            let mut st = self.state.lock();
            if let Some(pos) = st.posted.iter().position(|p| p.matches(src, tag)) {
                Some(st.posted.remove(pos))
            } else {
                st.unexpected.push(src, tag, payload.clone(), ts);
                StatsInner::bump(&self.stats.unexpected);
                None
            }
        };
        if let Some(p) = matched {
            self.complete_eager(p.req, src, tag, payload, ts, p.landing)?;
        }
        Ok(())
    }

    /// Spin, making progress, until `f` yields a value or the deadline
    /// passes.
    pub(crate) fn blocking<T>(
        &self,
        what: &'static str,
        mut f: impl FnMut(&Self) -> Result<Option<T>>,
    ) -> Result<T> {
        let deadline = Instant::now() + Duration::from_secs(self.cfg.wait_timeout_secs);
        let mut spins: u32 = 0;
        loop {
            self.progress()?;
            if let Some(v) = f(self)? {
                return Ok(v);
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
                if Instant::now() > deadline {
                    return Err(MsgError::Timeout(what));
                }
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> MsgCluster {
        MsgCluster::new(2, NetworkModel::ib_fdr(), MsgConfig::default())
    }

    #[test]
    fn eager_send_recv() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        e0.send(1, b"hello baseline", 5).unwrap();
        let m = e1.recv(Some(0), Some(5)).unwrap();
        assert_eq!(m.data, b"hello baseline");
        assert_eq!((m.src, m.tag, m.len), (0, 5, 14));
        assert!(m.ts.as_nanos() >= 700);
        assert_eq!(e0.stats().sends_eager, 1);
        assert_eq!(e1.stats().recvs, 1);
    }

    #[test]
    fn wildcard_receive() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        e0.send(1, b"any", 77).unwrap();
        let m = e1.recv(None, None).unwrap();
        assert_eq!((m.src, m.tag), (0, 77));
    }

    #[test]
    fn unexpected_messages_queue_in_order() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        for i in 0..5u64 {
            e0.send(1, &[i as u8], 100 + i).unwrap();
        }
        // Receive out of order by tag.
        let m = e1.recv(Some(0), Some(103)).unwrap();
        assert_eq!(m.data, vec![3]);
        // Then in order with wildcards.
        for expect in [0u8, 1, 2, 4] {
            let m = e1.recv(Some(0), None).unwrap();
            assert_eq!(m.data, vec![expect]);
        }
        assert!(e1.stats().unexpected >= 4);
    }

    #[test]
    fn rendezvous_large_transfer() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        let len = 1 << 20;
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        std::thread::scope(|s| {
            s.spawn(|| e0.send(1, &data, 9).unwrap());
            s.spawn(|| {
                let m = e1.recv(Some(0), Some(9)).unwrap();
                assert_eq!(m.len, len);
                assert_eq!(m.data[..16], data[..16]);
                assert_eq!(m.data[len - 16..], data[len - 16..]);
            });
        });
        assert_eq!(e0.stats().sends_rdv, 1);
        assert_eq!(e0.stats().registrations, 1, "sender staged via a temp registration");
        assert_eq!(e1.stats().registrations, 1, "receiver landed via a temp registration");
    }

    #[test]
    fn zero_copy_rendezvous_via_buffers() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        let len = 256 * 1024;
        let sbuf = e0.register_buffer(len).unwrap();
        let rbuf = e1.register_buffer(len).unwrap();
        sbuf.fill(0x3C);
        std::thread::scope(|s| {
            s.spawn(|| e0.send_from(1, &sbuf, 0, len, 4).unwrap());
            s.spawn(|| {
                let m = e1.recv_into(&rbuf, 0, len, Some(0), Some(4)).unwrap();
                assert_eq!(m.len, len);
                assert!(m.data.is_empty());
            });
        });
        assert_eq!(rbuf.to_vec(0, 16), vec![0x3C; 16]);
        // No per-transfer registrations on either side.
        assert_eq!(e0.stats().registrations, 0);
        assert_eq!(e1.stats().registrations, 0);
    }

    #[test]
    fn rts_before_recv_and_recv_before_rts() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        let len = 64 * 1024;
        let data = vec![7u8; len];
        // RTS first (receiver late).
        std::thread::scope(|s| {
            s.spawn(|| e0.send(1, &data, 1).unwrap());
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                let m = e1.recv(Some(0), Some(1)).unwrap();
                assert_eq!(m.len, len);
            });
        });
        // Receiver first (sender late).
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                e1.send(0, &data, 2).unwrap()
            });
            s.spawn(|| {
                let m = e0.recv(Some(1), Some(2)).unwrap();
                assert_eq!(m.len, len);
            });
        });
    }

    #[test]
    fn try_recv_nonblocking() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        assert!(e1.try_recv(None, None).unwrap().is_none());
        e0.send(1, b"now", 3).unwrap();
        let m = e1.blocking("try_recv poll", |s| s.try_recv(None, None)).unwrap();
        assert_eq!(m.data, b"now");
    }

    #[test]
    fn truncated_receive_rejected() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        let rbuf = e1.register_buffer(8).unwrap();
        e0.send(1, &[1u8; 32], 6).unwrap();
        // Wait until the message is queued, then match it into a tiny buffer.
        let err = e1.recv_into(&rbuf, 0, 8, Some(0), Some(6));
        assert!(matches!(err, Err(MsgError::TruncatedReceive { .. })));
    }

    #[test]
    fn invalid_rank_rejected() {
        let c = pair();
        assert!(matches!(c.rank(0).send(7, b"x", 0), Err(MsgError::InvalidRank(7))));
        assert!(matches!(c.rank(0).recv(Some(9), None), Err(MsgError::InvalidRank(9))));
    }

    #[test]
    fn probe_reports_envelope_without_consuming() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        assert_eq!(e1.probe(None, None).unwrap(), None);
        e0.send(1, &[1u8; 24], 9).unwrap();
        // Wait for arrival, probe repeatedly: not consumed.
        let env = e1.blocking("probe arrival", |s| s.probe(Some(0), Some(9))).unwrap();
        assert_eq!(env, (0, 9, 24));
        assert_eq!(e1.probe(None, None).unwrap(), Some((0, 9, 24)));
        let m = e1.recv(Some(0), Some(9)).unwrap();
        assert_eq!(m.len, 24);
        assert_eq!(e1.probe(None, None).unwrap(), None);
    }

    #[test]
    fn probe_sees_rendezvous_rts() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        let len = 64 * 1024;
        std::thread::scope(|s| {
            s.spawn(|| e0.send(1, &vec![3u8; len], 10).unwrap());
            s.spawn(|| {
                let env = e1.blocking("rts arrival", |st| st.probe(Some(0), Some(10))).unwrap();
                assert_eq!(env, (0, 10, len));
                let m = e1.recv(Some(0), Some(10)).unwrap();
                assert_eq!(m.len, len);
            });
        });
    }

    #[test]
    fn matching_agrees_with_reference_model() {
        use proptest::prelude::*;
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config { cases: 32, ..Config::default() });
        runner
            .run(
                &(
                    proptest::collection::vec(0u64..4, 1..30), // send tags
                    proptest::collection::vec(proptest::option::of(0u64..4), 1..30), // recv tags (None = wildcard)
                ),
                |(send_tags, recv_tags)| {
                    let c = MsgCluster::new(2, NetworkModel::ideal(), MsgConfig::default());
                    let (e0, e1) = (c.rank(0), c.rank(1));
                    // Sender: message k carries its index as payload.
                    for (k, &tag) in send_tags.iter().enumerate() {
                        e0.send(1, &(k as u64).to_le_bytes(), tag).unwrap();
                    }
                    // Let everything become unexpected before matching, so
                    // the reference model (ordered queue scan) applies
                    // deterministically.
                    e1.blocking("drain", |s| {
                        s.progress()?;
                        Ok((s.state.lock().unexpected.len() == send_tags.len()).then_some(()))
                    })
                    .unwrap();
                    // Reference: first unconsumed message matching the tag.
                    let mut consumed = vec![false; send_tags.len()];
                    for want in recv_tags.iter() {
                        let expect = send_tags
                            .iter()
                            .enumerate()
                            .position(|(k, &t)| !consumed[k] && want.is_none_or(|w| w == t));
                        match expect {
                            Some(k) => {
                                let m = e1.recv(Some(0), *want).unwrap();
                                let got = u64::from_le_bytes(m.data[..8].try_into().unwrap());
                                prop_assert_eq!(got, k as u64, "wrong message matched");
                                consumed[k] = true;
                            }
                            None => {
                                // Nothing can match: try_recv must agree.
                                prop_assert!(e1.try_recv(Some(0), *want).unwrap().is_none());
                            }
                        }
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn reg_cache_is_bounded_per_size() {
        let cfg = MsgConfig { registration_cache: true, ..MsgConfig::default() };
        let c = MsgCluster::new(1, NetworkModel::ideal(), cfg);
        let e = c.rank(0);
        let nic_regions = e.nic.mrs().region_count();
        let burst = REG_CACHE_PER_SIZE + 4;
        let regions: Vec<_> = (0..burst).map(|_| e.acquire_region(4096).unwrap()).collect();
        assert_eq!(e.stats().registrations, burst as u64, "cold cache registers each");
        assert_eq!(e.nic.mrs().region_count(), nic_regions + burst);
        for r in regions {
            e.release_region(r).unwrap();
        }
        // Only the cap survives; the overflow was deregistered.
        assert_eq!(e.reg_cache.lock()[&4096].len(), REG_CACHE_PER_SIZE);
        assert_eq!(e.nic.mrs().region_count(), nic_regions + REG_CACHE_PER_SIZE);
        // Reacquiring the burst hits the cache first, then registers anew.
        let regions: Vec<_> = (0..burst).map(|_| e.acquire_region(4096).unwrap()).collect();
        assert_eq!(e.stats().registrations, (2 * burst - REG_CACHE_PER_SIZE) as u64);
        for r in regions {
            e.release_region(r).unwrap();
        }
    }

    #[test]
    fn peer_death_fails_sends_fast_and_resolves_posted_recvs() {
        use photon_fabric::VTime;
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        // A message delivered before the crash stays receivable.
        e0.send(1, b"pre-crash", 1).unwrap();
        c.fabric().switch().faults().kill_node_at(0, VTime(e1.now().as_nanos() + 1));
        assert_eq!(e1.recv(Some(0), Some(1)).unwrap().data, b"pre-crash");
        // A receive bound to the dead source resolves with an error
        // (detected by the progress-time scan), never a hang.
        let err = e1.recv(Some(0), Some(2)).unwrap_err();
        assert_eq!(err, MsgError::PeerUnreachable(0));
        assert!(e1.peer_unreachable(0));
        // New sends toward the dead peer fail fast.
        assert_eq!(e1.send(0, b"x", 3).unwrap_err(), MsgError::PeerUnreachable(0));
        // Large (rendezvous) sends too: no RTS can reach a dead peer.
        assert_eq!(e1.send(0, &vec![0u8; 64 * 1024], 4).unwrap_err(), MsgError::PeerUnreachable(0));
    }

    #[test]
    fn peer_death_mid_rendezvous_resolves_both_sides() {
        use photon_fabric::VTime;
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        // Sender posts its RTS, then the receiver dies before answering
        // with a CTS: the pending rendezvous send must resolve with an
        // error, not spin to the wall-clock timeout.
        let s = e0.isend(1, &vec![5u8; 64 * 1024], 7).unwrap();
        c.fabric().switch().faults().kill_node_at(1, VTime(e0.now().as_nanos() + 1));
        e0.elapse(2);
        assert_eq!(e0.wait_send(s).unwrap_err(), MsgError::PeerUnreachable(1));
        let _ = e1;
    }

    #[test]
    fn nonblocking_requests_surface_peer_death() {
        use photon_fabric::VTime;
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        let mut r = e1.irecv(Some(0), Some(9)).unwrap();
        assert!(!e1.test_recv(&mut r).unwrap());
        c.fabric().switch().faults().kill_node_at(0, VTime(e1.now().as_nanos() + 1));
        e1.elapse(2);
        // The posted request is resolved by the dead-peer scan; both the
        // poll and the wait surface the error.
        let err = loop {
            match e1.test_recv(&mut r) {
                Ok(false) => continue,
                Ok(true) => panic!("receive from a dead peer cannot complete"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, MsgError::PeerUnreachable(0));
        let _ = e0;
    }

    #[test]
    fn wildcard_recv_survives_another_peers_death() {
        use photon_fabric::VTime;
        let c = MsgCluster::new(3, NetworkModel::ib_fdr(), MsgConfig::default());
        let (e0, e1, e2) = (c.rank(0), c.rank(1), c.rank(2));
        // A wildcard receive is posted, rank 2 dies, rank 0 still sends:
        // the wildcard must stay posted and match the live sender.
        let mut r = e1.irecv(None, None).unwrap();
        c.fabric().switch().faults().kill_node_at(2, VTime(0));
        e1.progress().unwrap();
        assert!(e1.peer_unreachable(2));
        assert!(!e1.test_recv(&mut r).unwrap(), "wildcard recv must not be failed");
        e0.send(1, b"still here", 4).unwrap();
        let m = e1.wait_recv(r).unwrap();
        assert_eq!((m.src, m.data.as_slice()), (0, b"still here".as_slice()));
        let _ = e2;
    }

    #[test]
    fn pingpong_latency_exceeds_oneway_model() {
        let c = pair();
        let (e0, e1) = (c.rank(0), c.rank(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..10u64 {
                    e0.send(1, &[0u8; 8], i).unwrap();
                    e0.recv(Some(1), Some(i)).unwrap();
                }
            });
            s.spawn(|| {
                for i in 0..10u64 {
                    e1.recv(Some(0), Some(i)).unwrap();
                    e1.send(0, &[0u8; 8], i).unwrap();
                }
            });
        });
        let m = NetworkModel::ib_fdr();
        // 10 round trips, each at least 2 * (o + L).
        assert!(c.rank(0).now().as_nanos() >= 20 * (m.send_overhead_ns + m.latency_ns));
    }
}
