//! Connection and health lifecycle: the out-of-band connection directory,
//! the bounded LRU connection cache, and the per-peer failure detector
//! (gate / suspect / dead) every post path runs through.

use crate::eager::{EagerRx, EagerTx};
use crate::ledger::{LedgerRx, LedgerTx};
use crate::obs::Stats;
use crate::photon::Photon;
use crate::probe::{rid_space, Completion};
use crate::tx::RunFrame;
use crate::{PhotonError, Rank, Result};
use parking_lot::{Mutex, RwLock};
use photon_fabric::api::{Access, FabricError, MemoryRegion, Qp, RemoteKey, VTime, WcStatus};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

#[derive(Debug)]
pub(crate) struct PeerTx {
    pub(crate) ledger: LedgerTx,
    pub(crate) ring: EagerTx,
    /// Recycled scratch for composing doorbell runs: lives with the TX
    /// state its runs are built under, so steady-state batching allocates
    /// nothing (the run/span lists reach capacity once and stay).
    pub(crate) run: Vec<RunFrame>,
    pub(crate) lens: Vec<usize>,
}

#[derive(Debug)]
pub(crate) struct PeerRx {
    pub(crate) ledger: LedgerRx,
    pub(crate) ring: EagerRx,
    /// Recycled staging for remote events routed during a drain pass: all
    /// events of one pass share `src`, so they are published to the
    /// per-peer event queue in one locked append instead of one lock per
    /// event. Lives with the rx state (whose mutex serializes drainers of
    /// this peer), so steady-state batching allocates nothing.
    pub(crate) ev_scratch: Vec<Completion>,
}

/// Externally visible classification of a peer by the health machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerHealthState {
    /// Reachable; operations post normally.
    Healthy,
    /// Missed its response deadline; reconnection probes are running under
    /// exponential backoff. Posts report "would block" until it recovers.
    Suspect,
    /// Declared dead and evicted: pending rids were flushed as error
    /// completions and new operations fail fast with
    /// [`PhotonError::PeerDead`].
    Dead,
}

pub(crate) const PEER_HEALTHY: u8 = 0;
pub(crate) const PEER_SUSPECT: u8 = 1;
pub(crate) const PEER_DEAD: u8 = 2;

/// Per-peer health machine: `Healthy → Suspect` on an unreachable path
/// (response deadline), `Suspect → Healthy` when a backoff-gated
/// reconnection probe finds the path restored, `Suspect → Dead` after
/// [`PhotonConfig::suspect_death_probes`] failed probes or on fabric
/// evidence the node itself is gone. `state` is the lock-free fast path;
/// the mutex guards the probe bookkeeping.
#[derive(Debug)]
pub(crate) struct PeerHealth {
    pub(crate) state: AtomicU8,
    pub(crate) inner: Mutex<HealthInner>,
}

#[derive(Debug)]
pub(crate) struct HealthInner {
    /// Consecutive failed reconnection probes since entering Suspect.
    pub(crate) fails: u32,
    /// Virtual time before which no further probe may run.
    pub(crate) next_retry: VTime,
}

impl PeerHealth {
    fn new() -> PeerHealth {
        PeerHealth {
            state: AtomicU8::new(PEER_HEALTHY),
            inner: Mutex::new(HealthInner { fails: 0, next_retry: VTime::ZERO }),
        }
    }
}

/// One established connection to a peer: the QP, the per-connection
/// service/staging blocks, the producer/consumer protocol state, and the
/// peer's health machine. Everything per-peer lives here and is allocated
/// on first contact, so an idle pair of ranks costs nothing.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The connected peer's rank.
    pub(crate) peer: Rank,
    /// QP to the peer.
    pub(crate) qp: Qp,
    /// Service block the peer writes into (ledger + ring + credit words).
    pub(crate) svc: MemoryRegion,
    /// Staging block for outbound protocol writes toward the peer.
    pub(crate) stage: MemoryRegion,
    /// The peer's service block dedicated to this rank.
    pub(crate) remote_key: RemoteKey,
    /// Peer incarnation this connection was established against. A stale
    /// value (the peer died and rejoined) invalidates the connection at
    /// the post/probe gates — a rejoined peer can never resurrect a
    /// flushed generation.
    pub(crate) peer_inc: u64,
    /// This rank's own incarnation at establishment (a revived rank must
    /// not reuse its crashed generation's connections either).
    pub(crate) local_inc: u64,
    pub(crate) tx: Mutex<PeerTx>,
    pub(crate) rx: Mutex<PeerRx>,
    pub(crate) health: PeerHealth,
    /// Bounded-skip counter for the receive lock (see [`Photon::poll_peer`]).
    pub(crate) rx_skips: AtomicU32,
    /// LRU stamp: bumped on every use, read by cache eviction.
    pub(crate) touch: AtomicU64,
}

impl Conn {
    /// Approximate heap + registered bytes of this connection's state (for
    /// the membership/connection memory accounting).
    fn state_bytes(&self) -> usize {
        self.svc.len() + self.stage.len() + std::mem::size_of::<Conn>()
    }
}

/// The out-of-band connection manager: a directory of every context in the
/// job, standing in for the PMI/CM service of a real launcher (the same
/// role the init-time descriptor exchange played before connections became
/// lazy). Connection setup and teardown run under one directory-wide lock
/// — establishment is rare (cache misses only), and serializing it makes
/// the pairwise handshake trivially deadlock-free.
#[derive(Debug, Default)]
pub struct ConnDirectory {
    pub(crate) slots: RwLock<Vec<Weak<Photon>>>,
    pub(crate) cm_lock: Mutex<()>,
}

impl ConnDirectory {
    pub(crate) fn photon(&self, rank: Rank) -> Option<Arc<Photon>> {
        self.slots.read().get(rank).and_then(Weak::upgrade)
    }
}

impl Photon {
    // ----------------------------------------------------- connection cache

    fn dir(&self) -> Result<&Arc<ConnDirectory>> {
        self.directory
            .get()
            .ok_or_else(|| PhotonError::Config("no connection directory (cluster required)".into()))
    }

    /// Stamp `conn` as recently used (LRU bookkeeping).
    fn touch_conn(&self, conn: &Conn) {
        conn.touch.store(self.conn_stamp.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// The established connection to `peer`, if any.
    pub(crate) fn conn_opt(&self, peer: Rank) -> Option<Arc<Conn>> {
        let c = self.conns.read().get(&peer).cloned()?;
        self.touch_conn(&c);
        Some(c)
    }

    /// True while `conn` still targets the generations it was established
    /// against — of the peer *and* of this rank. One relaxed load when no
    /// fault has ever been injected.
    fn conn_is_current(&self, conn: &Conn) -> bool {
        let now = self.clock.now();
        self.nic.node_incarnation(conn.peer, now) == conn.peer_inc
            && self.nic.node_incarnation(self.rank, now) == conn.local_inc
    }

    /// The connection to `peer`, establishing it on first contact and
    /// re-establishing it after an eviction or a peer rejoin. Fails fast
    /// with [`PhotonError::PeerDead`] while the peer's *current* incarnation
    /// is the one that died.
    pub(crate) fn conn(&self, peer: Rank) -> Result<Arc<Conn>> {
        self.check_rank(peer)?;
        if let Some(c) = self.conn_opt(peer) {
            if self.conn_is_current(&c) {
                return Ok(c);
            }
            // Stale generation (the peer — or this rank — died and came
            // back): flush it like a death and reconnect fresh below.
            self.retire_stale(&c);
        }
        self.establish(peer)
    }

    /// Establish the connection pair `(self, peer)` through the out-of-band
    /// connection manager. Both halves are created under the directory's CM
    /// lock — establishment never nests, so the global lock is trivially
    /// deadlock-free and models a serialized CM service.
    fn establish(&self, peer: Rank) -> Result<Arc<Conn>> {
        let dir = Arc::clone(self.dir()?);
        let _cm = dir.cm_lock.lock();
        // Double-check under the CM lock (another thread may have won).
        if let Some(c) = self.conn_opt(peer) {
            return Ok(c);
        }
        let now = self.clock.now();
        let peer_inc = self.nic.node_incarnation(peer, now);
        if let Some(&dead_inc) = self.dead.lock().get(&peer) {
            if peer_inc <= dead_inc {
                // The incarnation that died is still the current one: a
                // reconnect could resurrect the flushed generation.
                return Err(PhotonError::PeerDead(peer));
            }
        }
        let other = dir.photon(peer).ok_or(PhotonError::PeerDead(peer))?;
        // The CM control plane is reliable and can tell a crashed peer
        // from a live one: connecting to a dead peer fails fast (and is
        // recorded, so later attempts skip the CM round-trip).
        if other.nic.node_status(peer, now).is_some_and(|s| s == WcStatus::RemoteDead) {
            self.dead.lock().insert(peer, peer_inc);
            self.note_dead(peer);
            return Err(PhotonError::PeerDead(peer));
        }
        let local_inc = self.nic.node_incarnation(self.rank, now);
        let my_qp = self.nic.create_qp(peer)?;
        let my_svc = self.nic.register(self.block, Access::ALL)?;
        let my_stage = self.nic.register(self.block, Access::LOCAL)?;
        let mine = if peer == self.rank {
            let key = my_svc.remote_key();
            let c = self.build_conn(peer, my_qp, my_svc, my_stage, key, peer_inc, local_inc);
            self.conns.write().insert(peer, Arc::clone(&c));
            c
        } else {
            let peer_qp = other.nic.create_qp(self.rank)?;
            let peer_svc = other.nic.register(other.block, Access::ALL)?;
            let peer_stage = other.nic.register(other.block, Access::LOCAL)?;
            let my_key = my_svc.remote_key();
            let peer_key = peer_svc.remote_key();
            let c = self.build_conn(peer, my_qp, my_svc, my_stage, peer_key, peer_inc, local_inc);
            let theirs = other
                .build_conn(self.rank, peer_qp, peer_svc, peer_stage, my_key, local_inc, peer_inc);
            // The acceptor may still hold a half from a previous generation
            // of this rank (we died and rejoined before it ever spoke to
            // us again): retire it so its pending wrs flush and the
            // acceptor's upper layers hear about the old generation's death
            // before the fresh half appears.
            let stale = other.conns.read().get(&self.rank).cloned();
            if let Some(stale) = stale {
                other.retire_stale(&stale);
            }
            self.conns.write().insert(peer, Arc::clone(&c));
            other.conns.write().insert(self.rank, theirs);
            Stats::bump(&other.stats.conns_opened);
            c
        };
        Stats::bump(&self.stats.conns_opened);
        // Charge the modeled CM round-trip to the initiating rank only
        // (the accept side does no blocking work of its own).
        self.clock.advance(self.cfg.connect_cost_ns);
        self.enforce_cache_cap_locked(&dir);
        if peer != self.rank {
            other.enforce_cache_cap_locked(&dir);
        }
        Ok(mine)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_conn(
        &self,
        peer: Rank,
        qp: Qp,
        svc: MemoryRegion,
        stage: MemoryRegion,
        remote_key: RemoteKey,
        peer_inc: u64,
        local_inc: u64,
    ) -> Arc<Conn> {
        Arc::new(Conn {
            peer,
            qp,
            svc,
            stage,
            remote_key,
            peer_inc,
            local_inc,
            tx: Mutex::new(PeerTx {
                ledger: LedgerTx::new(self.cfg.ledger_entries),
                ring: EagerTx::new(self.ring_bytes),
                run: Vec::new(),
                lens: Vec::new(),
            }),
            rx: Mutex::new(PeerRx {
                ledger: LedgerRx::new(self.cfg.ledger_entries, self.cfg.credit_interval_entries()),
                ring: EagerRx::new(self.ring_bytes, (self.ring_bytes / 4) as u64),
                ev_scratch: Vec::new(),
            }),
            health: PeerHealth::new(),
            rx_skips: AtomicU32::new(0),
            touch: AtomicU64::new(self.conn_stamp.fetch_add(1, Ordering::Relaxed) + 1),
        })
    }

    // ------------------------------------------------- multi-process join
    //
    // The eager twin of `establish` for jobs whose peers live in *other
    // OS processes* (no directory, no CM lock): service blocks are
    // registered up front, their descriptors allgathered through the
    // bootstrap rendezvous, and every connection installed fully formed.

    /// Register one service block this rank dedicates to a future peer
    /// (multi-process join, step 1: keys must exist before the exchange).
    pub(crate) fn preregister_svc(&self) -> Result<MemoryRegion> {
        Ok(self.nic.register(self.block, Access::ALL)?)
    }

    /// Install a fully specified connection to `peer` from pre-exchanged
    /// descriptors (multi-process join, step 2). Incarnations start at 0 on
    /// both sides — the sockets backend never revives a rank in place.
    pub(crate) fn install_conn(&self, peer: Rank, svc: MemoryRegion, key: RemoteKey) -> Result<()> {
        let qp = self.nic.create_qp(peer)?;
        let stage = self.nic.register(self.block, Access::LOCAL)?;
        let conn = self.build_conn(peer, qp, svc, stage, key, 0, 0);
        self.conns.write().insert(peer, conn);
        Stats::bump(&self.stats.conns_opened);
        Ok(())
    }

    /// Evict least-recently-used connections until the cache respects
    /// [`PhotonConfig::conn_cache_cap`]. Caller holds the CM lock. Victims
    /// with no in-flight work requests are preferred (their flush is a
    /// no-op); a busy victim's pending rids flush exactly like peer death.
    fn enforce_cache_cap_locked(&self, dir: &ConnDirectory) {
        let cap = self.cfg.conn_cache_cap;
        if cap == 0 {
            return;
        }
        loop {
            let victim = {
                let conns = self.conns.read();
                if conns.len() <= cap {
                    return;
                }
                let mut idle_best: Option<&Arc<Conn>> = None;
                let mut any_best: Option<&Arc<Conn>> = None;
                for c in conns.values() {
                    let stamp = c.touch.load(Ordering::Relaxed);
                    if any_best.is_none_or(|b| stamp < b.touch.load(Ordering::Relaxed)) {
                        any_best = Some(c);
                    }
                    if !self.wr_table.has_peer(c.peer)
                        && idle_best.is_none_or(|b| stamp < b.touch.load(Ordering::Relaxed))
                    {
                        idle_best = Some(c);
                    }
                }
                idle_best.or(any_best).cloned()
            };
            let Some(v) = victim else { return };
            self.disconnect_locked(dir, &v);
        }
    }

    /// Tear down the connection pair behind `conn` (eviction path): drain
    /// each side's inbound frames (explicit teardown is lossless — nothing
    /// already delivered to a service region may vanish), remove both
    /// halves, flush each side's pending work requests exactly like
    /// [`Photon::mark_dead`] does, and release the QPs and the registered
    /// blocks. The peers stay *healthy* — traffic after an eviction
    /// reconnects on demand. Caller holds the CM lock.
    fn disconnect_locked(&self, dir: &ConnDirectory, conn: &Arc<Conn>) {
        let _ = self.poll_peer(conn);
        self.drop_half(conn);
        Stats::bump(&self.stats.conns_evicted);
        if conn.peer != self.rank {
            if let Some(other) = dir.photon(conn.peer) {
                let theirs = other.conns.read().get(&self.rank).cloned();
                if let Some(theirs) = theirs {
                    let _ = other.poll_peer(&theirs);
                    other.drop_half(&theirs);
                    Stats::bump(&other.stats.conns_evicted);
                }
            }
        }
    }

    /// Remove this side's half of a connection and flush everything that
    /// was riding it: harvest the send CQ, error-complete every in-flight
    /// wr bound for the peer (every rid of a doorbell run), tear down the
    /// QP and deregister the blocks.
    fn drop_half(&self, conn: &Arc<Conn>) {
        {
            let mut conns = self.conns.write();
            match conns.get(&conn.peer) {
                Some(c) if Arc::ptr_eq(c, conn) => {
                    conns.remove(&conn.peer);
                }
                _ => return, // already replaced or gone
            }
        }
        self.flush_peer_wrs(conn.peer);
        let _ = self.nic.destroy_qp(conn.qp);
        let _ = self.nic.mrs().deregister(&conn.svc);
        let _ = self.nic.mrs().deregister(&conn.stage);
    }

    /// Error-complete every rid of every in-flight work request bound for
    /// `peer` — the shared flush step of death, eviction, and
    /// stale-generation retirement.
    fn flush_peer_wrs(&self, peer: Rank) {
        self.harvest_send_cq();
        let now = self.clock.now();
        self.wr_table.drain_peer(peer, |rids| {
            self.local_events.push_many(rids, peer, now, WcStatus::FlushErr);
            Stats::add(&self.stats.rids_flushed, rids.len() as u64);
        });
    }

    /// Retire a connection whose generation is stale (the peer died and
    /// rejoined, or this rank itself did). When the *peer's* generation
    /// changed, its old incarnation died — run the full death bookkeeping
    /// (flush, credit reclaim, dead-map record, upper-layer notification)
    /// unless the health machine already did; then drop the half for real,
    /// releasing the QP and the registered blocks.
    fn retire_stale(&self, conn: &Arc<Conn>) {
        let now = self.clock.now();
        if self.nic.node_incarnation(conn.peer, now) != conn.peer_inc {
            self.mark_dead_conn(conn);
        }
        self.drop_half(conn);
    }

    /// Queue a dead-peer notification for [`Photon::take_dead_peers`].
    fn note_dead(&self, peer: Rank) {
        self.dead_notify.lock().push(peer);
        self.dead_pending.fetch_add(1, Ordering::Release);
    }

    /// Number of live connections in the cache.
    pub fn conn_count(&self) -> usize {
        self.conns.read().len()
    }

    /// Approximate bytes of per-rank membership/connection state: the
    /// registered service/staging blocks plus the heap structures of every
    /// live connection, the dead map and the per-peer remote-event FIFOs.
    /// The churn memory-bound test asserts this grows sublinearly in
    /// cluster size.
    pub fn conn_state_bytes(&self) -> usize {
        let conns = self.conns.read();
        let mut bytes: usize = conns.values().map(|c| c.state_bytes()).sum();
        bytes += self.dead.lock().len() * (std::mem::size_of::<Rank>() + 8);
        bytes += self.remote_events.state_bytes();
        bytes
    }

    /// How many per-peer remote-event FIFOs this rank has allocated — the
    /// lazy-allocation witness for the memory-bound tests.
    pub fn remote_fifos_allocated(&self) -> usize {
        self.remote_events.peers_allocated()
    }

    /// This rank's own incarnation number: how many times the fabric has
    /// revived it. Gossip alive-claims carry it so a rejoined rank's
    /// announcements supersede the Dead rumors of its previous life.
    pub fn self_incarnation(&self) -> u64 {
        self.nic.node_incarnation(self.rank, self.clock.now())
    }

    /// The incarnation of `peer` that this rank recorded as dead, if any.
    /// Gossip sources its Dead rumors from here so a rumor always names the
    /// generation that actually died.
    pub fn dead_incarnation(&self, peer: Rank) -> Option<u64> {
        self.dead.lock().get(&peer).copied()
    }

    /// Drain pending gossip frames: `(source, payload, delivery time)` in
    /// arrival order. Gossip rides a reserved rid, so frames land in the
    /// internal inbox (like collective traffic) instead of the user event
    /// queues.
    pub(crate) fn gossip_inbox(&self) -> Vec<(Rank, Vec<u8>, VTime)> {
        match self.coll_inbox.lock().remove(&rid_space::GOSSIP) {
            Some(q) => q.into(),
            None => Vec::new(),
        }
    }

    /// Send one gossip frame on the eager path under the reserved gossip
    /// rid. Fire-and-forget locally: no local completion is tracked.
    pub(crate) fn send_gossip_frame(&self, peer: Rank, payload: &[u8]) -> Result<()> {
        self.send_internal(peer, payload, rid_space::GOSSIP, None)
    }

    /// Snapshot `(peer, incarnation, health)` for every live connection,
    /// sorted by peer, *without* touching the LRU stamps (observation must
    /// not distort eviction). Gossip samples this to originate Suspect
    /// rumors and direct-evidence Alive refutations.
    pub fn peer_states(&self) -> Vec<(Rank, u64, PeerHealthState)> {
        let conns = self.conns.read();
        let mut out: Vec<(Rank, u64, PeerHealthState)> = conns
            .values()
            .map(|c| {
                let health = match c.health.state.load(Ordering::Acquire) {
                    PEER_HEALTHY => PeerHealthState::Healthy,
                    PEER_SUSPECT => PeerHealthState::Suspect,
                    _ => PeerHealthState::Dead,
                };
                (c.peer, c.peer_inc, health)
            })
            .collect();
        out.sort_unstable_by_key(|&(peer, _, _)| peer);
        out
    }

    // ------------------------------------------------------ peer health
    //
    // The per-peer failure detector (see DESIGN.md, "Failure model").
    // Every post path calls `peer_gate` *before* consuming any protocol
    // state (ring reservations, ledger slots), so an unreachable peer is
    // detected while the connection state is still consistent and the op
    // can simply be refused. A post that fails *mid-flight* — after the
    // reservation — has already broken the per-peer delivery sequence,
    // which on a reliable-connected QP means the connection is gone: the
    // peer is declared dead and evicted (`fail_post`).

    /// Health check run at the top of every post path. `Ok(true)` — post
    /// may proceed. `Ok(false)` — the peer is Suspect; treat as a credit
    /// stall (non-blocking callers return "would block", blocking callers
    /// spin through here, which paces the reconnection probes).
    /// `Err(PeerDead)` — the peer is gone. Establishes the connection on
    /// first contact (lazy wiring).
    pub(crate) fn peer_gate(&self, peer: Rank) -> Result<bool> {
        let conn = self.conn(peer)?;
        self.gate_conn(&conn)
    }

    /// [`Photon::peer_gate`] that hands back the gated connection: `None`
    /// while the peer is Suspect (would-block).
    pub(crate) fn gated_conn(&self, peer: Rank) -> Result<Option<Arc<Conn>>> {
        let conn = self.conn(peer)?;
        Ok(self.gate_conn(&conn)?.then_some(conn))
    }

    fn gate_conn(&self, conn: &Arc<Conn>) -> Result<bool> {
        match conn.health.state.load(Ordering::Acquire) {
            PEER_HEALTHY => {
                let now = self.clock.now();
                match self.nic.peer_status(conn.qp, now) {
                    None => Ok(true),
                    // `RemoteDead` fires when *either* end of the wire is
                    // down. If it is this rank that crashed (its clock rode
                    // past its own kill time), the peer must not be blamed:
                    // recording a live peer dead at its current incarnation
                    // is unrefutable and the lie would spread via gossip.
                    Some(WcStatus::RemoteDead) if self.nic.self_dead_at(now) => {
                        Err(PhotonError::PeerDead(self.rank))
                    }
                    Some(WcStatus::RemoteDead) => {
                        self.mark_dead_conn(conn);
                        Err(PhotonError::PeerDead(conn.peer))
                    }
                    // Partitioned: might heal — start probing.
                    Some(_) => {
                        self.mark_suspect(conn);
                        Ok(false)
                    }
                }
            }
            PEER_SUSPECT => self.suspect_probe(conn),
            _ => Err(PhotonError::PeerDead(conn.peer)),
        }
    }

    /// Healthy → Suspect: arm the response deadline for the first probe.
    fn mark_suspect(&self, conn: &Conn) {
        let h = &conn.health;
        let mut inner = h.inner.lock();
        if h.state.load(Ordering::Acquire) != PEER_HEALTHY {
            return; // lost the race to another thread
        }
        inner.fails = 0;
        inner.next_retry = VTime(self.clock.now().0 + self.cfg.suspect_deadline_ns);
        h.state.store(PEER_SUSPECT, Ordering::Release);
        Stats::bump(&self.stats.peers_suspected);
    }

    /// One backoff-gated reconnection probe of a Suspect peer.
    ///
    /// The probe *advances this rank's virtual clock* to the retry time:
    /// virtual time only moves when someone moves it, so waiting out a
    /// partition window must be modeled as elapsed local time — otherwise
    /// a blocked producer would re-test the same instant forever and a
    /// windowed partition could never heal (virtual-time livelock).
    fn suspect_probe(&self, conn: &Arc<Conn>) -> Result<bool> {
        let peer = conn.peer;
        let h = &conn.health;
        let mut inner = h.inner.lock();
        match h.state.load(Ordering::Acquire) {
            PEER_SUSPECT => {}
            PEER_HEALTHY => return Ok(true),
            _ => return Err(PhotonError::PeerDead(peer)),
        }
        if self.clock.now() < inner.next_retry {
            self.clock.advance_to(inner.next_retry);
        }
        let now = self.clock.now();
        Stats::bump(&self.stats.reconnect_probes);
        match self.nic.peer_status(conn.qp, now) {
            None => {
                // Path restored: recycle the errored QP and resume.
                self.nic.reset_qp(conn.qp)?;
                inner.fails = 0;
                h.state.store(PEER_HEALTHY, Ordering::Release);
                Stats::bump(&self.stats.peer_recoveries);
                Ok(true)
            }
            // This rank's own crash, not evidence against the peer (the
            // probe ride itself may have carried the clock past the local
            // kill time — see `gate_conn`).
            Some(WcStatus::RemoteDead) if self.nic.self_dead_at(now) => {
                Err(PhotonError::PeerDead(self.rank))
            }
            Some(WcStatus::RemoteDead) => {
                drop(inner);
                self.mark_dead_conn(conn);
                Err(PhotonError::PeerDead(peer))
            }
            Some(_) => {
                inner.fails += 1;
                if inner.fails >= self.cfg.suspect_death_probes {
                    drop(inner);
                    self.mark_dead_conn(conn);
                    return Err(PhotonError::PeerDead(peer));
                }
                let backoff = self
                    .cfg
                    .backoff_base_ns
                    .checked_shl(inner.fails - 1)
                    .unwrap_or(u64::MAX)
                    .min(self.cfg.backoff_max_ns);
                inner.next_retry = VTime(now.0 + backoff);
                Ok(false)
            }
        }
    }

    /// Report an unreachable peer discovered outside a gated post (failed
    /// credit return): classify and move the machine without evicting —
    /// credit writes carry no sequencing, so the connection is intact.
    pub(crate) fn note_unreachable(&self, conn: &Arc<Conn>) {
        if conn.health.state.load(Ordering::Acquire) != PEER_HEALTHY {
            return;
        }
        let now = self.clock.now();
        match self.nic.peer_status(conn.qp, now) {
            // Own crash, not evidence against the peer (see `gate_conn`).
            Some(WcStatus::RemoteDead) if self.nic.self_dead_at(now) => {}
            Some(WcStatus::RemoteDead) => self.mark_dead_conn(conn),
            Some(_) => self.mark_suspect(conn),
            None => {}
        }
    }

    /// Declare the peer behind `conn` dead and evict the connection: flush
    /// every pending rid toward it as an error completion, reclaim its
    /// flow-control credits so no later op can stall on a ghost, drop its
    /// parked rendezvous state, record the incarnation that died (so a
    /// reconnect can never resurrect the flushed generation), and release
    /// the connection's fabric resources. Idempotent per connection.
    fn mark_dead_conn(&self, conn: &Arc<Conn>) {
        {
            let _inner = conn.health.inner.lock();
            if conn.health.state.swap(PEER_DEAD, Ordering::AcqRel) == PEER_DEAD {
                return;
            }
        }
        let peer = conn.peer;
        Stats::bump(&self.stats.peers_dead);
        // The generation guard: remember which incarnation died. A later
        // `conn()` refuses to reconnect until the fault plan shows a newer
        // incarnation for the peer.
        {
            let mut dead = self.dead.lock();
            let e = dead.entry(peer).or_insert(conn.peer_inc);
            *e = (*e).max(conn.peer_inc);
        }
        // Flush its in-flight work requests (CQEs that already exist
        // deliver with their true status first). The connection itself
        // STAYS cached: the dying peer's clock may lag ours, so its last
        // writes must keep landing in a still-registered service region
        // (and keep being polled and routed, exactly like the pre-cache
        // all-to-all design) instead of surfacing as invalid-rkey post
        // errors on a live rank. The half is reaped when the cache cap
        // evicts it or a newer incarnation reconnects.
        self.flush_peer_wrs(peer);
        // Reclaim eager-ring and ledger credits: everything produced counts
        // as consumed, so a caller already holding this connection's Arc
        // can never stall waiting for a dead consumer to return credits.
        {
            let mut tx = conn.tx.lock();
            let cursor = tx.ring.cursor();
            tx.ring.update_credits(cursor);
            let produced = tx.ledger.produced();
            tx.ledger.update_credits(produced);
        }
        // Rendezvous state parked from the dead peer will never FIN/match.
        self.rdv_announces.lock().retain(|(src, _), _| *src != peer);
        self.rdv_fins.lock().retain(|(src, _), _| *src != peer);
        // Publish the eviction for layers above: each death is queued
        // exactly once (the state swap above is the idempotence guard).
        self.note_dead(peer);
    }

    /// Drain the peers declared dead since the last call. Each evicted peer
    /// is reported exactly once per context; layers above poll this from
    /// their progress paths to tear down per-peer state of their own (the
    /// runtime uses it to forget dead clients' RPC dedup windows). The fast
    /// path is one atomic load.
    pub fn take_dead_peers(&self) -> Vec<Rank> {
        if self.dead_pending.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut q = self.dead_notify.lock();
        self.dead_pending.fetch_sub(q.len() as u64, Ordering::AcqRel);
        std::mem::take(&mut *q)
    }

    /// Convert an *actual* post failure into its health consequence: an
    /// unreachable transfer after the gate passed means the per-peer
    /// delivery sequence has a hole (the reservation was consumed), which
    /// on a reliable-connected QP is a broken connection — evict. The
    /// fabric names which end of the wire was down: only the *peer* being
    /// unreachable is evidence against the peer. If the failing end is
    /// this rank itself (its clock has crossed its own scheduled kill
    /// time), blaming the target would record a live node dead at its
    /// current incarnation — unrefutable — so the error is surfaced
    /// against the local rank instead.
    pub(crate) fn fail_post<T>(&self, conn: &Arc<Conn>, r: Result<T>) -> Result<T> {
        match r {
            Err(PhotonError::Fabric(FabricError::PeerUnreachable { node })) => {
                if node == conn.peer || node != self.rank {
                    self.mark_dead_conn(conn);
                    Err(PhotonError::PeerDead(conn.peer))
                } else {
                    Err(PhotonError::PeerDead(self.rank))
                }
            }
            other => other,
        }
    }

    /// Ride the health machine to a verdict: returns once the peer is
    /// Healthy, or [`PhotonError::PeerDead`] once it is declared Dead.
    /// Terminates deterministically — every Suspect probe advances the
    /// virtual clock to its backoff deadline, so the peer either heals
    /// inside the partition window or exhausts its probe budget. Used by
    /// the direct-RDMA paths, which have no credit gate whose retry loop
    /// would otherwise pace the probes.
    pub(crate) fn gate_blocking(&self, peer: Rank) -> Result<Arc<Conn>> {
        loop {
            // Re-fetch per spin: a probe may retire the connection (death)
            // or another thread may replace it (rejoin).
            let conn = self.conn(peer)?;
            if self.gate_conn(&conn)? {
                return Ok(conn);
            }
        }
    }

    /// Actively probe `peer`'s liveness: runs one pass of the health gate
    /// (the same check every post path performs) and reports the resulting
    /// classification. Unlike the passive [`Photon::peer_health`] read,
    /// this *drives* detection — a Suspect peer gets one backoff-paced
    /// reconnection probe (which may advance the virtual clock to its
    /// retry deadline), and a peer found dead is evicted. Runtime layers
    /// use it to classify stalled waits without posting traffic.
    pub fn check_peer(&self, peer: Rank) -> Result<PeerHealthState> {
        self.check_rank(peer)?;
        match self.peer_gate(peer) {
            Ok(_) => self.peer_health(peer),
            Err(PhotonError::PeerDead(_)) => Ok(PeerHealthState::Dead),
            Err(e) => Err(e),
        }
    }

    /// The health machine's classification of `peer`. Passive: never
    /// connects. An unconnected peer reads Healthy unless the generation
    /// recorded in the dead map is still its current incarnation.
    pub fn peer_health(&self, peer: Rank) -> Result<PeerHealthState> {
        self.check_rank(peer)?;
        if let Some(conn) = self.conn_opt(peer) {
            return Ok(match conn.health.state.load(Ordering::Acquire) {
                PEER_HEALTHY => PeerHealthState::Healthy,
                PEER_SUSPECT => PeerHealthState::Suspect,
                _ => PeerHealthState::Dead,
            });
        }
        if let Some(&dead_inc) = self.dead.lock().get(&peer) {
            if self.nic.node_incarnation(peer, self.clock.now()) <= dead_inc {
                return Ok(PeerHealthState::Dead);
            }
        }
        Ok(PeerHealthState::Healthy)
    }
}
