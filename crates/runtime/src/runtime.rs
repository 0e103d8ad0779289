//! The node runtime: parcel transport + scheduler + LCO table, glued to one
//! Photon context per rank.

use crate::action::{ActionId, ActionRegistry, RtContext};
use crate::coalesce::Coalescer;
use crate::lco::{FutureBytes, LcoRef};
use crate::parcel::{decode_header, encode_into, Parcel, PARCEL_HDR};
use crate::rpc::RpcCounters;
use crate::scheduler::{Scheduler, Task};
use crate::{Rank, Result, RtError};
use parking_lot::Mutex;
use photon_core::{
    Completion, Photon, PhotonBuffer, PhotonCluster, PhotonConfig, ProbeFlags, Recycler,
};
use photon_fabric::{NetworkModel, RemoteKey};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Completion id of eager parcel messages on the runtime's Photon context.
const RID_PARCEL: u64 = 1;
/// Completion id of large-parcel announcements: the staging key, the
/// staging buffer's descriptor and the parcel header (see
/// [`RtNode::send_parcel_rendezvous`]).
const RID_RDV_CTRL: u64 = 2;
/// Announcement bytes ahead of the parcel header: key, then descriptor.
const RDV_ANNOUNCE: usize = 8 + 20;
/// A receiver answers an announcement on rid `kind << RDV_KEY_BITS | key`,
/// below the reserved rid namespace: [`RDV_DONE`] is its get's remote
/// notify, [`RDV_ABORT`] an empty message saying it gave the parcel up.
const RDV_KEY_BITS: u32 = 48;
const RDV_DONE: u64 = 1;
const RDV_ABORT: u64 = 2;
/// Remote completions one poll turn harvests at most.
const POLL_BATCH: usize = 64;
/// Parcels with encodings at or below this size (capped by the context's
/// eager payload limit) travel as one eager PWC message; larger ones are
/// staged, announced and pulled (see [`RID_RDV_CTRL`]).
const PARCEL_EAGER_MAX: usize = 8192;

/// Internal action: set an LCO with the payload.
const ACTION_SET_LCO: ActionId = 0;
/// Internal action: an RPC request envelope (see [`crate::rpc`]).
pub(crate) const ACTION_RPC_REQ: ActionId = 1;
/// Internal action: an RPC reply envelope.
pub(crate) const ACTION_RPC_REP: ActionId = 2;

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RtConfig {
    /// Worker threads per node (at least 1): they run parcel handlers and,
    /// when idle, poll the network.
    pub workers: usize,
    /// Coalesce up to this many small parcels per destination into one
    /// doorbell-batched eager post (0 disables coalescing). Batches also
    /// flush when full for the wire, when a worker's poll turn comes up
    /// empty, or on [`RtNode::flush_parcels`].
    pub coalesce_max: usize,
    /// RPC-layer knobs (dedup-window sizing; see [`crate::rpc`]).
    pub rpc: crate::rpc::RpcConfig,
    /// Gossip membership: when set, every node runs the epidemic
    /// membership protocol ([`photon_core::Membership`]) off its workers'
    /// poll turns, so deaths, joins and departures disseminate cluster-wide
    /// without any rank polling all N peers. `None` (the default) keeps
    /// membership knowledge purely local, as before.
    pub membership: Option<photon_core::MembershipConfig>,
    /// The middleware configuration underneath.
    pub photon: PhotonConfig,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            workers: 2,
            coalesce_max: 0,
            rpc: crate::rpc::RpcConfig::default(),
            membership: None,
            photon: PhotonConfig::default(),
        }
    }
}

photon_core::counter_registry! {
    /// Atomic runtime counters for one node (see [`RtStats`]).
    registry RtCounters;
    /// Runtime statistics for one node.
    snapshot RtStats;
    table RT_COUNTERS;
    counters {
        /// Parcels sent (local short-circuits included).
        parcels_sent,
        /// Parcels executed on this node.
        parcels_run,
        /// Parcels sent above the eager cap: staged, announced and pulled
        /// by the receiver with one get.
        parcels_rdv,
        /// Coalesced batches flushed to the wire.
        batches_sent,
        /// Parcels whose send failed because the target was dead or became
        /// unreachable, and large parcels their receiver gave up before
        /// pulling or died holding (not counted in `parcels_sent`: they
        /// never ran, so quiescence stays sound among survivors).
        parcels_failed,
        /// Incoming large parcels abandoned after the announcement arrived:
        /// the sender died before the pull completed, or the pull failed
        /// after its notify had already released the sender's buffer.
        parcels_dropped,
    }
}

/// One rank of the runtime job.
#[derive(Debug)]
pub struct RtNode {
    rank: Rank,
    n: usize,
    cfg: RtConfig,
    photon: Arc<Photon>,
    sched: Arc<Scheduler>,
    registry: Arc<ActionRegistry>,
    lcos: Mutex<HashMap<u64, Arc<FutureBytes>>>,
    next_lco: AtomicU64,
    next_tag: AtomicU64,
    /// Large parcels announced but not yet released, by key: target and
    /// staging buffer.
    staged: Mutex<HashMap<u64, (Rank, PhotonBuffer)>>,
    stats: RtCounters,
    coalescer: Mutex<Coalescer>,
    rpc: crate::rpc::RpcState,
    membership: Option<photon_core::Membership>,
    self_ref: Mutex<Option<Arc<RtNode>>>,
}

/// A whole runtime job: `n` nodes over one Photon cluster, each with
/// `workers` scheduler threads running until [`RuntimeCluster::shutdown`].
#[derive(Debug)]
pub struct RuntimeCluster {
    photon: PhotonCluster,
    nodes: Vec<Arc<RtNode>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl RuntimeCluster {
    /// Boot an `n`-node runtime over `model` with the given action registry
    /// (must contain every action any rank will invoke).
    ///
    /// # Panics
    ///
    /// If `cfg.workers` is 0: idle workers are the only threads that poll a
    /// rank's network.
    pub fn new(
        n: usize,
        model: NetworkModel,
        cfg: RtConfig,
        registry: ActionRegistry,
    ) -> RuntimeCluster {
        assert!(
            cfg.workers >= 1,
            "RtConfig::workers must be at least 1: idle workers are the only threads that poll the network"
        );
        let photon = PhotonCluster::new(n, model, cfg.photon);
        let registry = Arc::new(registry);
        let mut nodes = Vec::with_capacity(n);
        let mut handles = Vec::new();
        for i in 0..n {
            let node = Arc::new(RtNode {
                rank: i,
                n,
                cfg,
                photon: Arc::clone(photon.rank(i)),
                sched: Scheduler::new(),
                registry: Arc::clone(&registry),
                lcos: Mutex::new(HashMap::new()),
                next_lco: AtomicU64::new(1),
                next_tag: AtomicU64::new(1),
                staged: Mutex::new(HashMap::new()),
                stats: RtCounters::default(),
                coalescer: Mutex::new(Coalescer::new(n)),
                rpc: crate::rpc::RpcState::new(cfg.rpc),
                membership: cfg.membership.map(|mcfg| {
                    photon_core::Membership::new(
                        Arc::clone(photon.rank(i)),
                        mcfg,
                        0x6055_1900 ^ i as u64,
                    )
                }),
                self_ref: Mutex::new(None),
            });
            *node.self_ref.lock() = Some(Arc::clone(&node));
            handles.extend(node.sched.start_workers(cfg.workers, &format!("rt{i}"), || {
                let node = Arc::clone(&node);
                let mut events = Vec::with_capacity(POLL_BATCH);
                move |out: &mut Vec<Task>| node.poll_turn(&mut events, out)
            }));
            nodes.push(node);
        }
        RuntimeCluster { photon, nodes, handles: Mutex::new(handles) }
    }

    /// The node runtime for `rank`.
    pub fn node(&self, rank: Rank) -> &Arc<RtNode> {
        &self.nodes[rank]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Arc<RtNode>] {
        &self.nodes
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty job.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The Photon cluster underneath (experiments reach through for stats).
    pub fn photon(&self) -> &PhotonCluster {
        &self.photon
    }

    /// Stop every node's scheduler and join its workers. Idempotent.
    pub fn shutdown(&self) {
        for node in &self.nodes {
            node.sched.stop();
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        for node in &self.nodes {
            node.self_ref.lock().take();
        }
    }
}

impl Drop for RuntimeCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl RtNode {
    /// This node's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Ranks in the job.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The Photon context (collectives, buffers, virtual time).
    pub fn photon(&self) -> &Arc<Photon> {
        &self.photon
    }

    /// Runtime statistics.
    pub fn stats(&self) -> RtStats {
        self.stats.snapshot()
    }

    /// The node's RPC state (crate-internal plumbing).
    pub(crate) fn rpc(&self) -> &crate::rpc::RpcState {
        &self.rpc
    }

    /// The gossip membership instance, when [`RtConfig::membership`] is
    /// set: query views, statuses and dissemination statistics.
    pub fn membership(&self) -> Option<&photon_core::Membership> {
        self.membership.as_ref()
    }

    /// RPC statistics for this node (client and server side).
    pub fn rpc_stats(&self) -> crate::rpc::RpcStats {
        self.rpc.counters.snapshot()
    }

    /// Per-method RPC latency histograms: client round-trips are keyed by
    /// the method name, server-side handler executions by `<name>@srv`.
    pub fn rpc_latency(&self) -> &photon_core::KeyedLatency {
        &self.rpc.latency
    }

    /// Account for `n` parcels that failed to send because their target is
    /// dead: they never entered the system (see [`RtNode::back_out`]).
    fn note_send_failure(&self, n: u64, e: RtError) -> RtError {
        if matches!(e, RtError::PeerDead(_)) {
            self.back_out(n);
        }
        e
    }

    /// Back `n` parcels that never entered the system out of the `sent`
    /// counter (keeping quiescence's sent-vs-run accounting sound among the
    /// survivors) and count them as failed.
    fn back_out(&self, n: u64) {
        RtCounters::add(&self.stats.parcels_failed, n);
        self.stats.parcels_sent.fetch_sub(n, Ordering::AcqRel);
    }

    fn me(&self) -> Arc<RtNode> {
        self.self_ref.lock().clone().expect("runtime is live")
    }

    /// Allocate a future on this node; the [`LcoRef`] can ride in parcels
    /// as a continuation.
    pub fn new_future(&self) -> (LcoRef, Arc<FutureBytes>) {
        let id = self.next_lco.fetch_add(1, Ordering::Relaxed);
        let f = FutureBytes::new();
        self.lcos.lock().insert(id, Arc::clone(&f));
        (LcoRef { rank: self.rank, id }, f)
    }

    /// Spawn a local task on this node's workers.
    pub fn spawn(&self, f: impl FnOnce(&RtContext<'_>) + Send + 'static) {
        let node = self.me();
        self.sched.submit(Box::new(move || {
            let ctx = RtContext { node: &node, cont: None };
            f(&ctx);
        }));
    }

    /// Fire-and-forget active message.
    pub fn send_parcel(&self, target: Rank, action: ActionId, payload: &[u8]) -> Result<()> {
        self.send_parcel_inner(target, action, None, payload)
    }

    /// Active message whose handler result sets `cont`.
    pub fn send_parcel_with_cont(
        &self,
        target: Rank,
        action: ActionId,
        payload: &[u8],
        cont: LcoRef,
    ) -> Result<()> {
        self.send_parcel_inner(target, action, Some(cont), payload)
    }

    /// The one path every parcel takes: application sends, continuation
    /// replies and RPC envelopes. A remote eager parcel is encoded once into
    /// a recycled staging vector, which either joins its target's coalescing
    /// batch as is or is sent and given back; it builds no [`Parcel`].
    pub(crate) fn send_parcel_inner(
        &self,
        target: Rank,
        action: ActionId,
        cont: Option<LcoRef>,
        payload: &[u8],
    ) -> Result<()> {
        if target >= self.n {
            return Err(RtError::InvalidRank(target));
        }
        if self.sched.stopping() {
            return Err(RtError::ShuttingDown);
        }
        RtCounters::bump(&self.stats.parcels_sent);
        if target == self.rank {
            let node = self.me();
            let p = Parcel { action, payload: bytes::Bytes::copy_from_slice(payload), cont };
            self.sched.submit(Box::new(move || node.run_parcel(p.action, p.cont, &p.payload)));
            return Ok(());
        }
        let eager_cap = PARCEL_EAGER_MAX.min(self.photon.config().max_eager_payload());
        if PARCEL_HDR + payload.len() > eager_cap {
            return self.send_parcel_rendezvous(target, action, cont, payload);
        }
        let mut enc = Recycler::take(PARCEL_HDR + payload.len());
        encode_into(&mut enc, action, cont, payload);
        if self.cfg.coalesce_max > 1 {
            let flush = {
                let mut co = self.coalescer.lock();
                let batch = co.batch_mut(target);
                // Flush first if appending would overflow the eager budget.
                if batch.wire_len() + enc.len() > eager_cap && batch.len() > 0 {
                    Some(batch.take())
                } else {
                    None
                }
            };
            if let Some(parcels) = flush {
                self.send_batch(target, parcels)?;
            }
            let full = {
                let mut co = self.coalescer.lock();
                let batch = co.batch_mut(target);
                batch.push(enc);
                (batch.len() >= self.cfg.coalesce_max).then(|| batch.take())
            };
            if let Some(parcels) = full {
                self.send_batch(target, parcels)?;
            }
            return Ok(());
        }
        let sent = self.photon.send(target, &enc, RID_PARCEL);
        Recycler::give(enc);
        sent.map_err(|e| self.note_send_failure(1, e.into()))?;
        Ok(())
    }

    /// Flush a coalesced batch: every parcel stays its own eager frame, but
    /// the whole run goes out as one doorbell-batched post.
    fn send_batch(&self, target: Rank, parcels: Vec<Vec<u8>>) -> Result<()> {
        self.photon
            .send_many(target, &parcels, RID_PARCEL)
            .map_err(|e| self.note_send_failure(parcels.len() as u64, e.into()))?;
        RtCounters::bump(&self.stats.batches_sent);
        // The staging vectors came from the thread-local recycler cache
        // (`send_parcel_inner`); the payloads live in the ring now, so the vectors
        // go back for the next batch.
        for v in parcels {
            Recycler::give(v);
        }
        Ok(())
    }

    /// Force-flush all coalesced batches (call before waiting on replies).
    pub fn flush_parcels(&self) -> Result<()> {
        let pending = self.coalescer.lock().take_all();
        for (peer, parcels) in pending {
            self.send_batch(peer, parcels)?;
        }
        Ok(())
    }

    /// Send a parcel above the eager cap the PWC way: stage the payload in
    /// a registered buffer kept in `staged` under a fresh key, and announce
    /// key, descriptor and header in one eager message. The receiver pulls
    /// the payload with a get whose remote notify releases the buffer here
    /// ([`RtNode::task_for`]), so the sender never waits for the receiver.
    /// A registration failure sends nothing; a failed announcement releases
    /// the buffer at once.
    fn send_parcel_rendezvous(
        &self,
        target: Rank,
        action: ActionId,
        cont: Option<LcoRef>,
        payload: &[u8],
    ) -> Result<()> {
        RtCounters::bump(&self.stats.parcels_rdv);
        let buf = self.photon.register_buffer(payload.len()).inspect_err(|_| self.back_out(1))?;
        buf.write_at(0, payload);
        let key = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let mut ctrl = Vec::with_capacity(RDV_ANNOUNCE + PARCEL_HDR);
        ctrl.extend_from_slice(&key.to_le_bytes());
        ctrl.extend_from_slice(&buf.descriptor().to_bytes());
        encode_into(&mut ctrl, action, cont, &[]);
        self.staged.lock().insert(key, (target, buf));
        // A dead-peer reap may have released and backed it out already.
        self.photon.send(target, &ctrl, RID_RDV_CTRL).map_err(|e| {
            if self.unstage(key) {
                self.note_send_failure(1, e.into())
            } else {
                e.into()
            }
        })
    }

    /// Take the large parcel `key` off the staging table and release its
    /// buffer. Returns false when an earlier release already did.
    fn unstage(&self, key: u64) -> bool {
        let Some((_, buf)) = self.staged.lock().remove(&key) else { return false };
        let _ = self.photon.release_buffer(&buf);
        true
    }

    // ------------------------------------------------------- network side

    /// One poll turn, run by whichever idle worker holds the scheduler's
    /// turn: reap dead peers, run a gossip round, and harvest up to
    /// [`POLL_BATCH`] remote completions into tasks in `out`, which the
    /// scheduler queues and runs after the turn is released. Returns whether
    /// the network showed any activity.
    fn poll_turn(self: &Arc<RtNode>, events: &mut Vec<Completion>, out: &mut Vec<Task>) -> bool {
        // Reap per-peer runtime state for ranks the health machine has just
        // evicted (one atomic load when nothing died): dead clients'
        // at-most-once dedup windows must not leak, and a restarted rank
        // reusing a client id must not collide with its dead predecessor's
        // sequence state.
        for peer in self.photon.take_dead_peers() {
            let forgotten = self.rpc.dedup.lock().forget_rank(peer as u32);
            if forgotten > 0 {
                RpcCounters::add(&self.rpc.counters.srv_clients_forgotten, forgotten as u64);
            }
            if let Some(m) = &self.membership {
                m.note_dead(peer);
            }
            // Large parcels staged toward the dead rank will never be
            // pulled: release their buffers and back them out as failed.
            let reaped: Vec<_> = self.staged.lock().extract_if(|_, (to, _)| *to == peer).collect();
            for (_, (_, buf)) in &reaped {
                let _ = self.photon.release_buffer(buf);
            }
            self.back_out(reaped.len() as u64);
        }
        // Gossip rounds are interval-gated in virtual time inside tick().
        if let Some(m) = &self.membership {
            m.tick();
        }
        // Only Remote events are drained here: parcel sends and large-parcel
        // pulls wait on their local completions from the posting threads.
        match self.photon.poll_completions(ProbeFlags::Remote, events, POLL_BATCH) {
            Ok(0) => {
                if self.cfg.coalesce_max > 1 {
                    // Nothing arrived: push out half-full coalescing batches
                    // so batching never strands the tail of a burst, even on
                    // a rank that only sends.
                    let _ = self.flush_parcels();
                }
                false
            }
            Ok(_) => {
                for c in events.drain(..) {
                    if c.is_remote() {
                        self.task_for(c, out);
                    }
                }
                true
            }
            Err(_) if self.sched.stopping() => false,
            // Peer failure is survivable: the middleware has evicted the
            // peer and resolved its pending state; keep serving the
            // survivors. Anything else is a runtime bug and stays fatal.
            Err(e) if matches!(RtError::from(e.clone()), RtError::PeerDead(_)) => true,
            Err(e) => panic!("runtime progress failed on rank {}: {e}", self.rank),
        }
    }

    /// Turn one remote completion into the task that handles it. Only an
    /// eager parcel's header is decoded here: the task owns the payload
    /// vector the probe harvested and hands the handler its bytes past the
    /// header. The answers to this node's own announcements are handled
    /// inline, with no task.
    fn task_for(self: &Arc<RtNode>, ev: Completion, out: &mut Vec<Task>) {
        match ev.rid {
            RID_PARCEL => {
                let Some(frame) = ev.payload else { return };
                // A frame shorter than the header is malformed: dropped,
                // counted nowhere.
                let Ok((action, cont)) = decode_header(&frame) else { return };
                let node = Arc::clone(self);
                out.push(Box::new(move || node.run_parcel(action, cont, &frame[PARCEL_HDR..])));
            }
            RID_RDV_CTRL => {
                let Some(announce) = ev.payload else { return };
                let node = Arc::clone(self);
                // The pull runs as a task, off the turn, so other workers
                // keep polling while it waits for the payload.
                out.push(Box::new(move || node.pull_parcel(ev.peer, &announce)));
            }
            // The receiver's answer to one of this node's announcements.
            rid => match (rid >> RDV_KEY_BITS, rid & ((1 << RDV_KEY_BITS) - 1)) {
                (RDV_DONE, key) => {
                    self.unstage(key);
                }
                // An abort finding its key already reaped backs out nothing.
                (RDV_ABORT, key) if self.unstage(key) => self.back_out(1),
                _ => { /* not runtime traffic */ }
            },
        }
    }

    /// Pull the large parcel that `peer` announced and run it: the
    /// announcement is the parcel's key, its staging buffer's descriptor
    /// and its header, and the get's remote notify releases that buffer.
    /// Every parcel ends as one fate: run here; failed at the sender, told
    /// by an abort message when the pull fails before its notify is posted;
    /// or dropped here, when the sender is dead or the pull fails after the
    /// notify (the sender has let the buffer go, so it cannot back out).
    fn pull_parcel(self: &Arc<RtNode>, peer: Rank, announce: &[u8]) {
        // An announcement too short for its header is malformed: dropped,
        // counted nowhere.
        let Some(Ok((action, cont))) = announce.get(RDV_ANNOUNCE..).map(decode_header) else {
            return;
        };
        let key = u64::from_le_bytes(announce[0..8].try_into().unwrap());
        let src = RemoteKey::from_bytes(&announce[8..RDV_ANNOUNCE]);
        let mut notified = false;
        let pull = self.photon.with_scratch(src.len, |buf| -> Result<Vec<u8>> {
            let rid = self.photon.internal_rid();
            let done = RDV_DONE << RDV_KEY_BITS | key;
            self.photon.get_with_remote_notify(peer, buf, 0, src.len, &src, 0, rid, done)?;
            notified = true;
            self.photon.wait_local(rid)?;
            Ok(buf.to_vec(0, src.len))
        });
        match pull {
            Ok(payload) => self.run_parcel(action, cont, &payload),
            Err(e) => {
                let abort = RDV_ABORT << RDV_KEY_BITS | key;
                let dead = matches!(e, RtError::PeerDead(_));
                if notified || dead || self.photon.send(peer, &[], abort).is_err() {
                    RtCounters::bump(&self.stats.parcels_dropped);
                }
            }
        }
    }

    fn run_parcel(self: &Arc<RtNode>, action: ActionId, cont: Option<LcoRef>, payload: &[u8]) {
        match action {
            ACTION_SET_LCO => {
                let id = payload.get(..8).map(|id| u64::from_le_bytes(id.try_into().unwrap()));
                if let Some(f) = id.and_then(|id| self.lcos.lock().remove(&id)) {
                    f.set(payload[8..].to_vec());
                }
            }
            ACTION_RPC_REQ => crate::rpc::server::handle_request(self, payload),
            ACTION_RPC_REP => crate::rpc::client::handle_reply(self, payload),
            // An unknown action is fatal in a real runtime; here it is
            // dropped and counted as run, so quiescence still converges.
            _ => {
                if let Some(handler) = self.registry.get(action) {
                    let result = handler(&RtContext { node: self, cont }, payload);
                    if let (Some(bytes), Some(cont)) = (result, cont) {
                        let mut reply = Recycler::take(8 + bytes.len());
                        reply.extend_from_slice(&cont.id.to_le_bytes());
                        reply.extend_from_slice(&bytes);
                        let _ = self.send_parcel_inner(cont.rank, ACTION_SET_LCO, None, &reply);
                        Recycler::give(reply);
                    }
                }
            }
        }
        // Counted at COMPLETION, after every send the handler performed:
        // quiescence detection relies on `sent` being visibly ahead of
        // `run` whenever follow-on work can still appear.
        self.stats.parcels_run.fetch_add(1, Ordering::AcqRel);
    }

    /// Global quiescence: block until every parcel sent anywhere has been
    /// executed and no handler can produce more work. **Collective** — one
    /// application thread per rank must call it concurrently.
    ///
    /// Termination detection over monotone counters: each round flushes
    /// coalescing batches and allreduces `(total sent, total run)`; two
    /// consecutive rounds with *identical, equal* totals prove no activity
    /// occurred between them and nothing is outstanding. Soundness needs
    /// `sent` incremented before injection and `run` only at handler
    /// completion, which the transport guarantees.
    pub fn quiescence(&self) -> Result<()> {
        let mut prev = (u64::MAX, u64::MAX);
        loop {
            self.flush_parcels()?;
            let mut v = [
                self.stats.parcels_sent.load(Ordering::Acquire),
                self.stats.parcels_run.load(Ordering::Acquire),
            ];
            self.photon.allreduce_u64(&mut v, photon_core::ReduceOp::Sum)?;
            if v[0] == v[1] && (v[0], v[1]) == prev {
                return Ok(());
            }
            prev = (v[0], v[1]);
            std::thread::yield_now();
        }
    }

    /// Barrier across all nodes' *application* threads (delegates to the
    /// Photon collective; idle workers keep polling the network).
    pub fn barrier(&self) -> Result<()> {
        self.photon.barrier()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn boot(n: usize, reg: ActionRegistry) -> RuntimeCluster {
        RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), reg)
    }

    #[test]
    fn parcel_roundtrip_with_continuation() {
        let mut reg = ActionRegistry::new();
        let double = reg.register("double", |_ctx, payload| {
            let v = u64::from_le_bytes(payload.try_into().unwrap());
            Some((2 * v).to_le_bytes().to_vec())
        });
        let c = boot(2, reg);
        let n0 = c.node(0);
        let (lco, fut) = n0.new_future();
        n0.send_parcel_with_cont(1, double, &21u64.to_le_bytes(), lco).unwrap();
        assert_eq!(fut.wait(), 42u64.to_le_bytes());
        assert!(c.node(1).stats().parcels_run >= 1);
        c.shutdown();
    }

    #[test]
    fn local_parcels_short_circuit() {
        let mut reg = ActionRegistry::new();
        let touch = {
            reg.register("touch", move |ctx, _| {
                assert_eq!(ctx.rank(), 0);
                Some(vec![7])
            })
        };
        let c = boot(1, reg);
        let n0 = c.node(0);
        let (lco, fut) = n0.new_future();
        n0.send_parcel_with_cont(0, touch, &[], lco).unwrap();
        assert_eq!(fut.wait(), vec![7]);
        c.shutdown();
    }

    #[test]
    fn large_parcels_take_rendezvous() {
        let mut reg = ActionRegistry::new();
        let sum = reg.register("sum", |_ctx, payload| {
            let s: u64 = payload.iter().map(|&b| b as u64).sum();
            Some(s.to_le_bytes().to_vec())
        });
        let c = boot(2, reg);
        let n0 = c.node(0);
        let payload = vec![1u8; 64 * 1024];
        let (lco, fut) = n0.new_future();
        n0.send_parcel_with_cont(1, sum, &payload, lco).unwrap();
        assert_eq!(fut.wait(), (64 * 1024u64).to_le_bytes());
        assert_eq!(n0.stats().parcels_rdv, 1);
        // On the wire: one announcement and one get with its notify; no
        // tag-matched handshake and no put.
        let (s0, s1) = (n0.photon().stats(), c.node(1).photon().stats());
        assert_eq!((s0.rendezvous_ops, s0.puts_direct), (0, 0), "sender's wire steps");
        assert_eq!(s1.gets, 1, "receiver's wire steps");
        c.shutdown();
    }

    /// A two-rank cluster with one worker per rank and 3 s core waits.
    fn boot_one_worker(reg: ActionRegistry) -> Arc<RuntimeCluster> {
        let photon = PhotonConfig { wait_timeout_secs: 3, ..PhotonConfig::default() };
        let cfg = RtConfig { workers: 1, photon, ..RtConfig::default() };
        Arc::new(RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, reg))
    }

    /// Run `quiescence` on one thread per rank and fail unless every rank
    /// is back within `limit` (the threads of a hung run are left behind,
    /// unjoined, so the failure is reported instead of hanging the test).
    fn quiesces_within(c: &Arc<RuntimeCluster>, limit: Duration) {
        let (tx, rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..c.len())
            .map(|i| {
                let (c, tx) = (Arc::clone(c), tx.clone());
                std::thread::spawn(move || tx.send(c.node(i).quiescence()).unwrap())
            })
            .collect();
        let deadline = std::time::Instant::now() + limit;
        for _ in 0..c.len() {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let got = rx.recv_timeout(left);
            assert!(matches!(got, Ok(Ok(()))), "quiescence within {limit:?}: {got:?}");
        }
        for t in threads {
            t.join().unwrap();
        }
    }

    /// Fill `p`'s registration limit; the returned buffer holds it.
    fn fill_registrations(p: &Photon) -> PhotonBuffer {
        let mrs = p.nic().mrs();
        p.register_buffer(mrs.limit_bytes() - mrs.registered_bytes()).unwrap()
    }

    /// Live regions of `p` net of the two blocks each live connection holds.
    fn scratch_regions(p: &Photon) -> usize {
        p.nic().mrs().region_count() - 2 * p.conn_count()
    }

    #[test]
    fn crossing_large_parcels_from_handlers_both_run() {
        // Each rank's only worker sends a 64 KiB parcel to the other from
        // inside a handler: neither send may wait on the other's worker.
        let ran = Arc::new(AtomicUsize::new(0));
        let mut reg = ActionRegistry::new();
        let r2 = Arc::clone(&ran);
        let sink = reg.register("sink", move |_, payload| {
            assert_eq!(payload, vec![9u8; 64 * 1024]);
            r2.fetch_add(1, Ordering::Relaxed);
            None
        });
        let kick = reg.register("kick", move |ctx, _| {
            ctx.send_parcel(1 - ctx.rank(), sink, &vec![9u8; 64 * 1024]).unwrap();
            None
        });
        let c = boot_one_worker(reg);
        c.node(0).send_parcel(1, kick, &[]).unwrap();
        c.node(1).send_parcel(0, kick, &[]).unwrap();
        quiesces_within(&c, Duration::from_secs(1));
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        c.shutdown();
    }

    #[test]
    fn large_parcel_the_receiver_cannot_register_fails_at_the_sender() {
        let mut reg = ActionRegistry::new();
        let sink = reg.register("sink", |_, _| None);
        let echo = reg.register("echo", |_, payload| Some(payload.to_vec()));
        let c = boot_one_worker(reg);
        let (n0, p0, p1) = (c.node(0), c.node(0).photon(), c.node(1).photon());
        // Warm the connection so only the pull's registration can fail.
        p0.send(1, b"warm", 0xD00D).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while p1.stats().remote_completions == 0 {
            assert!(std::time::Instant::now() < deadline, "the warm-up never arrived");
            std::thread::yield_now();
        }
        let baseline = scratch_regions(p0);
        let hog = fill_registrations(p1);
        n0.send_parcel(1, sink, &vec![7u8; 64 * 1024]).unwrap();
        // Backed out: no longer sent, and failed once.
        while (n0.stats().parcels_sent, n0.stats().parcels_failed) != (0, 1) {
            assert!(std::time::Instant::now() < deadline, "the sender never heard of the failure");
            std::thread::yield_now();
        }
        assert!(n0.staged.lock().is_empty(), "the staging buffer was kept");
        assert_eq!(scratch_regions(p0), baseline, "the staging buffer leaked");
        quiesces_within(&c, Duration::from_secs(1));
        // Rank 1's only worker is still alive: it runs the next parcel.
        p1.release_buffer(&hog).unwrap();
        let (lco, fut) = n0.new_future();
        n0.send_parcel_with_cont(1, echo, b"alive", lco).unwrap();
        assert_eq!(fut.wait(), b"alive");
        c.shutdown();
    }

    /// Send a payload of exactly `eager_cap - PARCEL_HDR` bytes, then one
    /// of a byte more: the first must stay eager and the second take the
    /// large-parcel path, and the handler must see each payload byte for
    /// byte.
    fn eager_boundary(coalesce_max: usize) {
        let seen = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
        let mut reg = ActionRegistry::new();
        let s2 = Arc::clone(&seen);
        let keep = reg.register("keep", move |_ctx, payload| {
            s2.lock().push(payload.to_vec());
            None
        });
        let cfg = RtConfig { coalesce_max, ..RtConfig::default() };
        let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, reg);
        let n0 = c.node(0);
        let eager_cap = PARCEL_EAGER_MAX.min(n0.photon().config().max_eager_payload());
        for (len, rdv) in [(eager_cap - PARCEL_HDR, 0), (eager_cap - PARCEL_HDR + 1, 1)] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            n0.send_parcel(1, keep, &payload).unwrap();
            n0.flush_parcels().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while seen.lock().is_empty() {
                assert!(std::time::Instant::now() < deadline, "{len}-byte parcel never ran");
                std::thread::yield_now();
            }
            assert_eq!(seen.lock().pop(), Some(payload), "{len}-byte payload");
            assert_eq!(n0.stats().parcels_rdv, rdv, "{len}-byte payload took the wrong path");
        }
        c.shutdown();
    }

    #[test]
    fn eager_boundary_is_exact() {
        eager_boundary(0);
    }

    #[test]
    fn eager_boundary_is_exact_when_coalescing() {
        eager_boundary(4);
    }

    #[test]
    fn short_parcel_frame_is_dropped() {
        let ran = Arc::new(AtomicUsize::new(0));
        let mut reg = ActionRegistry::new();
        let r2 = Arc::clone(&ran);
        let bump = reg.register("bump", move |_ctx, _| {
            r2.fetch_add(1, Ordering::Relaxed);
            None
        });
        let c = boot(2, reg);
        // A frame one byte short of a header, then a well-formed parcel
        // behind it from the same peer: once the parcel has run, the short
        // frame has been harvested too, and the shutdown runs every task
        // harvested before it returns.
        c.node(0).photon().send(1, &[0u8; PARCEL_HDR - 1], RID_PARCEL).unwrap();
        c.node(0).send_parcel(1, bump, b"ok").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while ran.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "the parcel never ran");
            std::thread::yield_now();
        }
        c.shutdown();
        assert_eq!(c.node(1).stats().parcels_run, 1, "the short frame ran as a parcel");
    }

    #[test]
    fn parcels_fan_out_and_come_back() {
        // Rank 0 scatters increments to every rank; each replies via cont.
        let mut reg = ActionRegistry::new();
        let bump = reg.register("bump", |ctx, payload| {
            let v = u64::from_le_bytes(payload.try_into().unwrap());
            Some((v + ctx.rank() as u64).to_le_bytes().to_vec())
        });
        let n = 4;
        let c = boot(n, reg);
        let n0 = c.node(0);
        let mut futs = Vec::new();
        for r in 0..n {
            let (lco, fut) = n0.new_future();
            n0.send_parcel_with_cont(r, bump, &100u64.to_le_bytes(), lco).unwrap();
            futs.push((r, fut));
        }
        for (r, fut) in futs {
            let v = u64::from_le_bytes(fut.wait().try_into().unwrap());
            assert_eq!(v, 100 + r as u64);
        }
        c.shutdown();
    }

    #[test]
    fn handlers_can_send_parcels() {
        // A ring: each handler forwards to the next rank until TTL runs out,
        // then sets the continuation on rank 0.
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let mut reg = ActionRegistry::new();
        let hop_id = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let hop_id2 = std::sync::Arc::clone(&hop_id);
        let hop = reg.register("hop", move |ctx, payload| {
            let ttl = payload[0];
            if ttl == 0 {
                DONE.fetch_add(1, Ordering::Relaxed);
                None
            } else {
                let next = (ctx.rank() + 1) % ctx.size();
                ctx.send_parcel(next, hop_id2.load(Ordering::Relaxed), &[ttl - 1]).unwrap();
                None
            }
        });
        hop_id.store(hop, Ordering::Relaxed);
        let c = boot(3, reg);
        c.node(0).send_parcel(1, hop, &[7]).unwrap();
        // Spin until the chain finished.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while DONE.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "ring never finished");
            std::thread::yield_now();
        }
        c.shutdown();
    }

    #[test]
    fn quiescence_waits_for_parcel_trees() {
        // An irregular fan-out: each parcel spawns children until TTL=0.
        // quiescence() must not return while any descendant is in flight.
        let mut reg = ActionRegistry::new();
        let leaves = std::sync::Arc::new(AtomicUsize::new(0));
        let leaves2 = std::sync::Arc::clone(&leaves);
        let fan_id = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let fan_id2 = std::sync::Arc::clone(&fan_id);
        let fan = reg.register("fan", move |ctx, payload| {
            let ttl = payload[0];
            if ttl == 0 {
                leaves2.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let id = fan_id2.load(Ordering::Relaxed);
            let n = ctx.size();
            ctx.send_parcel((ctx.rank() + 1) % n, id, &[ttl - 1]).unwrap();
            ctx.send_parcel((ctx.rank() + 2) % n, id, &[ttl - 1]).unwrap();
            None
        });
        fan_id.store(fan, Ordering::Relaxed);
        let n = 3;
        let cfg = RtConfig { coalesce_max: 8, ..RtConfig::default() };
        let c = RuntimeCluster::new(n, NetworkModel::ib_fdr(), cfg, reg);
        let depth = 9u8;
        std::thread::scope(|s| {
            for i in 0..n {
                let c = &c;
                s.spawn(move || {
                    if i == 0 {
                        c.node(0).send_parcel(1, fan, &[depth]).unwrap();
                    }
                    c.node(i).quiescence().unwrap();
                });
            }
        });
        // At quiescence, every leaf must have run: 2^depth of them.
        assert_eq!(leaves.load(Ordering::Relaxed), 1usize << depth);
        c.shutdown();
    }

    #[test]
    fn quiescence_is_reusable_across_phases() {
        let mut reg = ActionRegistry::new();
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        let count2 = std::sync::Arc::clone(&count);
        let bump = reg.register("bump", move |_ctx, _| {
            count2.fetch_add(1, Ordering::Relaxed);
            None
        });
        let n = 2;
        let c = RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), reg);
        std::thread::scope(|s| {
            for i in 0..n {
                let c = &c;
                let count = &count;
                s.spawn(move || {
                    for phase in 1..=3usize {
                        for _ in 0..10 {
                            c.node(i).send_parcel(1 - i, bump, &[]).unwrap();
                        }
                        c.node(i).quiescence().unwrap();
                        // Quiescence guarantees everything sent so far ran;
                        // a peer may already be racing ahead into the next
                        // phase, so this is a lower bound, not an equality.
                        assert!(count.load(Ordering::Relaxed) >= phase * n * 10);
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 3 * n * 10);
        c.shutdown();
    }

    #[test]
    fn coalesced_parcels_all_arrive() {
        let mut reg = ActionRegistry::new();
        let seen = std::sync::Arc::new(AtomicUsize::new(0));
        let seen2 = std::sync::Arc::clone(&seen);
        let sink = reg.register("sink", move |_ctx, payload| {
            assert_eq!(payload.len(), 24);
            seen2.fetch_add(1, Ordering::Relaxed);
            None
        });
        let cfg = RtConfig { coalesce_max: 16, ..RtConfig::default() };
        let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, reg);
        let n0 = c.node(0);
        // 100 parcels: 6 full batches of 16, plus a partial tail that only
        // the idle-flush (or explicit flush) pushes out.
        for _ in 0..100 {
            n0.send_parcel(1, sink, &[7u8; 24]).unwrap();
        }
        n0.flush_parcels().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::Relaxed) < 100 {
            assert!(std::time::Instant::now() < deadline, "parcels lost in batching");
            std::thread::yield_now();
        }
        assert!(n0.stats().batches_sent >= 6);
        assert!(
            n0.stats().batches_sent < 100,
            "batching must actually aggregate: {} wire messages",
            n0.stats().batches_sent
        );
        c.shutdown();
    }

    /// Boot two ranks with `coalesce_max: 64`, optionally let them go idle,
    /// then send 3 parcels that never fill a batch: the idle flush must
    /// deliver them without an explicit `flush_parcels` call.
    fn partial_batch_arrives(settle: Duration, within: Duration) {
        let mut reg = ActionRegistry::new();
        let seen = std::sync::Arc::new(AtomicUsize::new(0));
        let seen2 = std::sync::Arc::clone(&seen);
        let sink = reg.register("sink", move |_ctx, _| {
            seen2.fetch_add(1, Ordering::Relaxed);
            None
        });
        let cfg = RtConfig { coalesce_max: 64, ..RtConfig::default() };
        let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, reg);
        std::thread::sleep(settle);
        for _ in 0..3 {
            c.node(0).send_parcel(1, sink, &[1]).unwrap();
        }
        let deadline = std::time::Instant::now() + within;
        while seen.load(Ordering::Relaxed) < 3 {
            assert!(std::time::Instant::now() < deadline, "idle flush never fired");
            std::thread::yield_now();
        }
        c.shutdown();
    }

    #[test]
    fn idle_worker_flushes_partial_batches() {
        partial_batch_arrives(Duration::ZERO, Duration::from_secs(10));
    }

    #[test]
    fn late_partial_batch_is_flushed_when_idle() {
        // The sender's workers have long been idle (and asleep between
        // turns) when the batch is posted.
        partial_batch_arrives(Duration::from_millis(20), Duration::from_secs(3));
    }

    #[test]
    fn blocked_handler_does_not_stall_the_rank() {
        // Parcel A blocks on a latch that only parcel B opens. Coalesced into
        // one post, both land in the same poll turn: B must still run, on
        // the other worker, while A holds the first.
        let latch = crate::lco::CountdownLatch::new(1);
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        let mut reg = ActionRegistry::new();
        let (l, r) = (std::sync::Arc::clone(&latch), std::sync::Arc::clone(&ran));
        let gate = reg.register("gate", move |_ctx, payload| {
            if payload == b"A" {
                l.wait();
            } else {
                l.count_down();
            }
            r.fetch_add(1, Ordering::Relaxed);
            None
        });
        let cfg = RtConfig { workers: 2, coalesce_max: 2, ..RtConfig::default() };
        let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, reg);
        c.node(0).send_parcel(1, gate, b"A").unwrap();
        c.node(0).send_parcel(1, gate, b"B").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ran.load(Ordering::Relaxed) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Open the latch either way so a failure cannot hang the shutdown.
        latch.count_down();
        assert_eq!(ran.load(Ordering::Relaxed), 2, "a blocked handler stalled its rank");
        c.shutdown();
    }

    #[test]
    #[should_panic(expected = "workers must be at least 1")]
    fn zero_workers_is_rejected() {
        let cfg = RtConfig { workers: 0, ..RtConfig::default() };
        let _ = RuntimeCluster::new(1, NetworkModel::ib_fdr(), cfg, ActionRegistry::new());
    }

    #[test]
    fn invalid_rank_and_shutdown_errors() {
        let reg = ActionRegistry::new();
        let c = boot(1, reg);
        assert!(matches!(c.node(0).send_parcel(5, 16, &[]), Err(RtError::InvalidRank(5))));
        c.shutdown();
        assert!(matches!(c.node(0).send_parcel(0, 16, &[]), Err(RtError::ShuttingDown)));
    }

    #[test]
    fn parcels_to_dead_rank_fail_without_stalling_survivors() {
        use photon_fabric::VTime;
        let mut reg = ActionRegistry::new();
        let echo = reg.register("echo", |_ctx, payload| Some(payload.to_vec()));
        let c = boot(3, reg);
        c.photon().fabric().switch().faults().kill_node_at(2, VTime(0));
        let n0 = c.node(0);
        // Toward the dead rank: a clean, classified failure (the first send
        // trips detection; every later one fails fast).
        let err = n0.send_parcel(2, echo, b"void").unwrap_err();
        assert_eq!(err, RtError::PeerDead(2));
        assert_eq!(n0.send_parcel(2, echo, b"void").unwrap_err(), RtError::PeerDead(2));
        let s = n0.stats();
        assert_eq!(s.parcels_failed, 2);
        assert_eq!(s.parcels_sent, 0, "failed sends are backed out of the sent counter");
        // Toward the survivor: unaffected, continuation still fires.
        let (lco, fut) = n0.new_future();
        n0.send_parcel_with_cont(1, echo, b"alive", lco).unwrap();
        assert_eq!(fut.wait(), b"alive");
        c.shutdown();
    }

    #[test]
    fn large_parcel_to_dead_rank_fails_cleanly() {
        use photon_fabric::VTime;
        let mut reg = ActionRegistry::new();
        let sink = reg.register("sink", |_, _| None);
        let c = boot(2, reg);
        c.photon().fabric().switch().faults().kill_node_at(1, VTime(0));
        let n0 = c.node(0);
        // The large-parcel path: the announcement send resolves with
        // PeerDead, and the staging buffer goes with it.
        let payload = vec![3u8; 64 * 1024];
        assert_eq!(n0.send_parcel(1, sink, &payload).unwrap_err(), RtError::PeerDead(1));
        assert_eq!(n0.stats().parcels_failed, 1);
        c.shutdown();
    }

    #[test]
    fn large_parcel_that_cannot_register_is_never_announced() {
        let mut reg = ActionRegistry::new();
        let sink = reg.register("sink", |_, _| None);
        let c = boot(2, reg);
        let (n0, p0, p1) = (c.node(0), c.node(0).photon(), c.node(1).photon());
        // Open the connection first, with a message the runtime ignores, so
        // the failure below is the payload's registration and nothing else.
        p0.send(1, b"warm", 0xD00D).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while p1.stats().remote_completions == 0 {
            assert!(std::time::Instant::now() < deadline, "the warm-up never arrived");
            std::thread::yield_now();
        }
        // Fill rank 0's registration limit.
        let mrs = p0.nic().mrs();
        let _hog = p0.register_buffer(mrs.limit_bytes() - mrs.registered_bytes()).unwrap();
        let err = n0.send_parcel(1, sink, &vec![7u8; 64 * 1024]).unwrap_err();
        assert!(
            matches!(
                err,
                RtError::Photon(photon_core::PhotonError::Fabric(
                    photon_fabric::FabricError::RegistrationLimit { .. }
                ))
            ),
            "got {err:?}"
        );
        let s = n0.stats();
        assert_eq!(s.parcels_sent, 0, "an unannounced parcel is backed out of the sent counter");
        assert_eq!(s.parcels_failed, 1);
        c.shutdown();
        p1.progress().unwrap();
        assert_eq!(p1.stats().remote_completions, 1, "rank 1 saw a rendezvous control message");
    }

    #[test]
    fn rendezvous_from_a_dead_sender_is_dropped_without_leaking() {
        use photon_fabric::VTime;
        let mut reg = ActionRegistry::new();
        let sink = reg.register("sink", |_, _| None);
        let c = boot(2, reg);
        let p1 = c.node(1).photon();
        let baseline = scratch_regions(p1);
        // The announcement of a 64 KiB parcel whose sender dies right after
        // sending it: the pull can never complete.
        let staged = c.node(0).photon().register_buffer(64 * 1024).unwrap();
        let mut ctrl = Vec::new();
        ctrl.extend_from_slice(&7u64.to_le_bytes());
        ctrl.extend_from_slice(&staged.descriptor().to_bytes());
        encode_into(&mut ctrl, sink, None, &[]);
        c.node(0).photon().send(1, &ctrl, RID_RDV_CTRL).unwrap();
        c.photon().fabric().switch().faults().kill_node_at(0, VTime(0));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.node(1).stats().parcels_dropped == 0 {
            assert!(std::time::Instant::now() < deadline, "the parcel was never dropped");
            std::thread::yield_now();
        }
        c.shutdown();
        assert_eq!(c.node(1).stats().parcels_dropped, 1);
        assert_eq!(scratch_regions(p1), baseline, "the landing zone leaked");
    }

    /// Opens its latch when dropped: declared after the cluster, it lets a
    /// worker parked in a handler go before a failed test shuts down.
    struct OpenOnDrop(Arc<crate::lco::CountdownLatch>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.count_down();
        }
    }

    #[test]
    fn large_parcel_to_a_receiver_that_dies_is_released_by_the_reap() {
        use photon_fabric::VTime;
        // Rank 1's only worker is held in a handler, so the announcement
        // below waits unharvested until rank 1 dies.
        let latch = crate::lco::CountdownLatch::new(1);
        let mut reg = ActionRegistry::new();
        let l = Arc::clone(&latch);
        let hold = reg.register("hold", move |_, _| {
            l.wait();
            None
        });
        let sink = reg.register("sink", |_, _| None);
        let c = boot_one_worker(reg);
        let open = OpenOnDrop(latch);
        let (n0, p0) = (c.node(0), c.node(0).photon());
        n0.send_parcel(1, hold, &[]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while c.node(1).photon().stats().remote_completions == 0 {
            assert!(std::time::Instant::now() < deadline, "the hold never arrived");
            std::thread::yield_now();
        }
        let baseline = scratch_regions(p0);
        n0.send_parcel(1, sink, &vec![5u8; 64 * 1024]).unwrap();
        assert_eq!(n0.staged.lock().len(), 1);
        c.photon().fabric().switch().faults().kill_node_at(1, VTime(0));
        // The next send trips rank 0's death verdict; its poll turn reaps
        // the staged parcel and backs it out beside the failed send.
        assert_eq!(n0.send_parcel(1, sink, b"x").unwrap_err(), RtError::PeerDead(1));
        while !n0.staged.lock().is_empty()
            || scratch_regions(p0) != baseline
            || n0.stats().parcels_failed != 2
        {
            assert!(std::time::Instant::now() < deadline, "the staging buffer was never reaped");
            std::thread::yield_now();
        }
        drop(open);
        c.shutdown();
    }

    #[test]
    fn gossip_membership_disseminates_death_to_bystanders() {
        use photon_core::{MemberStatus, MembershipConfig};
        use photon_fabric::VTime;
        let mut reg = ActionRegistry::new();
        let echo = reg.register("echo", |_ctx, payload| Some(payload.to_vec()));
        let cfg = RtConfig {
            membership: Some(MembershipConfig { fanout: 2, interval_ns: 1_000, max_rumors: 64 }),
            ..RtConfig::default()
        };
        let c = RuntimeCluster::new(4, NetworkModel::ib_fdr(), cfg, reg);
        c.photon().fabric().switch().faults().kill_node_at(3, VTime(0));
        // Only node 0 ever talks to the dead rank; nodes 1 and 2 must learn
        // of the death purely from gossip.
        let n0 = c.node(0);
        assert_eq!(n0.send_parcel(3, echo, b"void").unwrap_err(), RtError::PeerDead(3));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let informed = [1, 2]
                .iter()
                .all(|&i| c.node(i).membership().unwrap().status_of(3) == MemberStatus::Dead);
            if informed {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "death rumor never spread");
            // Poll turns gate rounds on virtual time; nudge it along.
            for i in 0..3 {
                c.node(i).photon().elapse(1_000);
            }
            std::thread::yield_now();
        }
        // Survivors keep working while the rumor mill turns.
        let (lco, fut) = n0.new_future();
        n0.send_parcel_with_cont(1, echo, b"alive", lco).unwrap();
        assert_eq!(fut.wait(), b"alive");
        c.shutdown();
    }

    #[test]
    fn app_threads_can_use_barrier_alongside_parcels() {
        let mut reg = ActionRegistry::new();
        let noop = reg.register("noop", |_, _| None);
        let n = 3;
        let c = boot(n, reg);
        std::thread::scope(|s| {
            for i in 0..n {
                let c = &c;
                s.spawn(move || {
                    let node = c.node(i);
                    node.send_parcel((i + 1) % n, noop, b"x").unwrap();
                    node.barrier().unwrap();
                    node.barrier().unwrap();
                });
            }
        });
        c.shutdown();
    }
}
