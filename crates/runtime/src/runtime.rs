//! The node runtime: parcel transport + scheduler + LCO table, glued to one
//! Photon context per rank.

use crate::action::{ActionId, ActionRegistry, RtContext};
use crate::coalesce::Coalescer;
use crate::lco::{FutureBytes, LcoRef};
use crate::parcel::Parcel;
use crate::rpc::RpcCounters;
use crate::scheduler::{Scheduler, Task};
use crate::{Rank, Result, RtError};
use parking_lot::Mutex;
use photon_core::{Completion, Photon, PhotonCluster, PhotonConfig, ProbeFlags, Recycler};
use photon_fabric::NetworkModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Completion id of eager parcel messages on the runtime's Photon context.
const RID_PARCEL: u64 = 1;
/// Completion id of large-parcel rendezvous control messages.
const RID_RDV_CTRL: u64 = 2;
/// Remote completions one poll turn harvests at most.
const POLL_BATCH: usize = 64;

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
    /// Parcels with encodings at or below this size travel as one eager PWC
    /// message; larger ones rendezvous.
    pub parcel_eager_max: usize,
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
            parcel_eager_max: 8192,
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
        /// Parcels that took the rendezvous path.
        parcels_rdv,
        /// Coalesced batches flushed to the wire.
        batches_sent,
        /// Parcels whose send failed because the target was dead or became
        /// unreachable (not counted in `parcels_sent`: they never entered the
        /// system, so quiescence stays sound among survivors).
        parcels_failed,
        /// Incoming large parcels abandoned because their sender died
        /// mid-rendezvous (ctrl message arrived, payload never will).
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
    /// dead: they never entered the system, so back them out of the `sent`
    /// counter (keeping quiescence's sent-vs-run accounting sound among the
    /// survivors) and count them as failed.
    fn note_send_failure(&self, n: u64, e: RtError) -> RtError {
        if matches!(e, RtError::PeerDead(_)) {
            RtCounters::add(&self.stats.parcels_failed, n);
            self.stats.parcels_sent.fetch_sub(n, Ordering::AcqRel);
        }
        e
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
        self.send_parcel_inner(target, Parcel::new(action, payload.to_vec()))
    }

    /// Active message whose handler result sets `cont`.
    pub fn send_parcel_with_cont(
        &self,
        target: Rank,
        action: ActionId,
        payload: &[u8],
        cont: LcoRef,
    ) -> Result<()> {
        self.send_parcel_inner(target, Parcel::with_cont(action, payload.to_vec(), cont))
    }

    fn send_parcel_inner(&self, target: Rank, p: Parcel) -> Result<()> {
        if target >= self.n {
            return Err(RtError::InvalidRank(target));
        }
        if self.sched.stopping() {
            return Err(RtError::ShuttingDown);
        }
        RtCounters::bump(&self.stats.parcels_sent);
        if target == self.rank {
            let node = self.me();
            self.sched.submit(Box::new(move || node.run_parcel(p)));
            return Ok(());
        }
        let enc = p.encode();
        let eager_cap = self.cfg.parcel_eager_max.min(self.photon.config().max_eager_payload());
        if enc.len() > eager_cap {
            return self.send_parcel_rendezvous(target, p);
        }
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
                batch.push(&enc);
                (batch.len() >= self.cfg.coalesce_max).then(|| batch.take())
            };
            if let Some(parcels) = full {
                self.send_batch(target, parcels)?;
            }
            return Ok(());
        }
        self.photon
            .send(target, &enc, RID_PARCEL)
            .map_err(|e| self.note_send_failure(1, e.into()))?;
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
        // (`Batch::push`); the payloads live in the ring now, so the vectors
        // go back for the next batch.
        for v in parcels {
            Recycler::give(v);
        }
        Ok(())
    }

    /// Send the same parcel to every rank (self included): the fan-out
    /// primitive runtime broadcasts are built from.
    pub fn broadcast_parcel(&self, action: ActionId, payload: &[u8]) -> Result<()> {
        for r in 0..self.n {
            self.send_parcel(r, action, payload)?;
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

    fn send_parcel_rendezvous(&self, target: Rank, p: Parcel) -> Result<()> {
        RtCounters::bump(&self.stats.parcels_rdv);
        let tag = ((self.rank as u64) << 32) | self.next_tag.fetch_add(1, Ordering::Relaxed);
        // Control message: tag, size, then the parcel header (no payload).
        let hdr_only = Parcel { action: p.action, payload: bytes::Bytes::new(), cont: p.cont };
        let mut ctrl = Vec::with_capacity(16 + crate::parcel::PARCEL_HDR);
        ctrl.extend_from_slice(&tag.to_le_bytes());
        ctrl.extend_from_slice(&(p.payload.len() as u64).to_le_bytes());
        ctrl.extend_from_slice(&hdr_only.encode());
        self.photon
            .send(target, &ctrl, RID_RDV_CTRL)
            .map_err(|e| self.note_send_failure(1, e.into()))?;
        // Stage the payload in a registered buffer and run the Photon
        // rendezvous against the receiver's announced landing zone. If the
        // receiver dies mid-handshake the rendezvous resolves with
        // PeerDead (the core's failure-aware waits) rather than hanging.
        let buf = self.photon.register_buffer(p.payload.len())?;
        buf.write_at(0, &p.payload);
        let sent = self.photon.send_rendezvous(target, &buf, 0, p.payload.len(), tag);
        self.photon.release_buffer(&buf)?;
        sent.map_err(|e| self.note_send_failure(1, e.into()))?;
        Ok(())
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
        }
        // Gossip rounds are interval-gated in virtual time inside tick().
        if let Some(m) = &self.membership {
            m.tick();
        }
        // Only Remote events are drained here: parcel sends and rendezvous
        // wait on their local completions from the posting threads.
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

    /// Turn one remote completion into the task that handles it.
    fn task_for(self: &Arc<RtNode>, ev: Completion, out: &mut Vec<Task>) {
        match ev.rid {
            RID_PARCEL => {
                let Some(bytes) = ev.payload else { return };
                match Parcel::decode(&bytes) {
                    Ok(p) => {
                        let node = Arc::clone(self);
                        out.push(Box::new(move || node.run_parcel(p)));
                    }
                    Err(_) => { /* malformed parcel: drop, counted nowhere */ }
                }
            }
            RID_RDV_CTRL => {
                let Some(bytes) = ev.payload else { return };
                if bytes.len() < 16 {
                    return;
                }
                let tag = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
                let size = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
                let Ok(hdr) = Parcel::decode(&bytes[16..]) else { return };
                let node = Arc::clone(self);
                let src = ev.peer;
                // The pull runs as a task, off the turn, so other workers
                // keep polling while it waits for the payload.
                out.push(Box::new(move || {
                    let run = || -> Result<()> {
                        let buf = node.photon.register_buffer(size)?;
                        node.photon.post_recv_buffer(src, &buf, 0, size, tag)?;
                        // Transient stalls get bounded re-waits; peer death
                        // escalates out of the loop immediately (the
                        // failure-aware wait_fin runs the health gate).
                        let mut attempts = 0;
                        loop {
                            match node.photon.wait_fin(src, tag) {
                                Ok(_) => break,
                                Err(photon_core::PhotonError::Timeout { .. }) if attempts < 2 => {
                                    attempts += 1;
                                }
                                Err(e) => return Err(e.into()),
                            }
                        }
                        let payload = buf.to_vec(0, size);
                        node.photon.release_buffer(&buf)?;
                        node.run_parcel(Parcel {
                            action: hdr.action,
                            payload: payload.into(),
                            cont: hdr.cont,
                        });
                        Ok(())
                    };
                    match run() {
                        Ok(()) => {}
                        // The sender died between its control message and
                        // the payload transfer: the parcel can never run.
                        // Count the drop and degrade gracefully.
                        Err(RtError::PeerDead(_)) => {
                            RtCounters::bump(&node.stats.parcels_dropped);
                        }
                        Err(e) => {
                            panic!("large-parcel receive failed on rank {}: {e}", node.rank)
                        }
                    }
                }));
            }
            _ => { /* not runtime traffic */ }
        }
    }

    fn run_parcel(self: &Arc<RtNode>, p: Parcel) {
        self.run_parcel_inner(p);
        // Counted at COMPLETION, after every send the handler performed:
        // quiescence detection relies on `sent` being visibly ahead of
        // `run` whenever follow-on work can still appear.
        self.stats.parcels_run.fetch_add(1, Ordering::AcqRel);
    }

    fn run_parcel_inner(self: &Arc<RtNode>, p: Parcel) {
        if p.action == ACTION_SET_LCO {
            if p.payload.len() >= 8 {
                let id = u64::from_le_bytes(p.payload[0..8].try_into().unwrap());
                if let Some(f) = self.lcos.lock().remove(&id) {
                    f.set(p.payload[8..].to_vec());
                }
            }
            return;
        }
        if p.action == ACTION_RPC_REQ {
            crate::rpc::server::handle_request(self, &p.payload);
            return;
        }
        if p.action == ACTION_RPC_REP {
            crate::rpc::client::handle_reply(self, &p.payload);
            return;
        }
        let Some(handler) = self.registry.get(p.action) else {
            // Unknown action: in a real runtime this is fatal; here we drop
            // and count it as run so quiescence still converges.
            return;
        };
        let ctx = RtContext { node: self, cont: p.cont };
        let result = handler(&ctx, &p.payload);
        if let (Some(bytes), Some(cont)) = (result, p.cont) {
            let mut payload = Vec::with_capacity(8 + bytes.len());
            payload.extend_from_slice(&cont.id.to_le_bytes());
            payload.extend_from_slice(&bytes);
            let _ = self.send_parcel_inner(cont.rank, Parcel::new(ACTION_SET_LCO, payload));
        }
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
        c.shutdown();
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
        // The rendezvous path: the control send (or the buffer-announce
        // wait) resolves with PeerDead instead of spinning to a timeout.
        let payload = vec![3u8; 64 * 1024];
        assert_eq!(n0.send_parcel(1, sink, &payload).unwrap_err(), RtError::PeerDead(1));
        assert_eq!(n0.stats().parcels_failed, 1);
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
