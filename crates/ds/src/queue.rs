//! A distributed multi-producer single-consumer queue.
//!
//! The ring lives on one *owner* rank: a 16-byte control block
//! (`[tail ticket | published head]`) plus `capacity` fixed-size slots
//! (`[seq | len | payload]`), all in registered memory.
//!
//! # Push: ticket claim by compare-and-swap
//!
//! A producer reads the control block (one RDMA read), checks
//! `tail - published_head < capacity`, and claims ticket `t` by CAS-ing the
//! tail word `t -> t+1`. Claiming by CAS — not fetch-add — matters under
//! failures: a fetch-add that succeeds just before its producer crashes
//! burns a ticket nobody will ever fill, whereas a CAS-claim admits exactly
//! the producers who then publish. (A producer that crashes *between* claim
//! and publish still wedges the consumer at that slot — the same bounded
//! lock-holder limitation the DHT documents.) The fullness check is
//! conservative-correct: the published head only lags the true head, so a
//! passing check proves the claimed slot's previous occupant was already
//! popped, and no slot is ever overwritten live. The producer then writes
//! `len|payload` and *publishes* by writing the slot's `seq` word to `t+1`
//! — the consumer treats a slot as present only when `seq == head+1`.
//!
//! Pushes via **RPC** (`dq.push`, at-most-once: a push is not idempotent)
//! run the same claim protocol owner-locally, and may spill payloads larger
//! than the inline slot into an owner-side map keyed by ticket; one-sided
//! pushes of oversized payloads fall back to RPC.
//!
//! # Pop: owner-only
//!
//! MPSC means a single consumer: the owner pops locally under a mutex
//! (other ranks pop through `dq.pop`, also at-most-once since a pop is
//! destructive). A pop republishes the head into the control block so
//! producers' fullness checks advance.

use crate::{
    AccessPath, DsCounters, DsError, DsResult, DsStats, DS_OK, DS_QUEUE_FULL, DS_UNAVAILABLE,
};
use parking_lot::Mutex;
use photon_core::buffers::BufferDescriptor;
use photon_core::layout::{Layout, SlotRegion};
use photon_core::{KeyedLatency, PhotonBuffer, Rank};
use photon_runtime::rpc::RpcMethod;
use photon_runtime::{RpcClient, RpcOptions, RtNode, RuntimeCluster};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sentinel slot `len` marking a payload stored in the owner's spill map
/// (keyed by ticket) instead of inline slot bytes.
const SPILL64: u64 = u64::MAX;

/// Control-block offsets: the producer-CAS'd tail ticket and the
/// consumer-published head.
const CTRL_TAIL: usize = 0;
const CTRL_HEAD: usize = 8;
const CTRL_BYTES: usize = 16;

/// Configuration of a [`DQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DQueueConfig {
    /// Ring capacity in elements.
    pub capacity: usize,
    /// Maximum *inline* payload length; larger payloads travel by RPC and
    /// spill to the owner's heap.
    pub val_max: usize,
    /// The rank hosting the ring (and the only rank that may pop locally).
    pub owner: Rank,
    /// Retry budget for lost ticket-CAS races before a one-sided push
    /// falls back to RPC (or the owner reports back-pressure).
    pub claim_retries: usize,
    /// Modeled owner-CPU cost of dispatching one RPC handler, nanoseconds,
    /// charged to the owner's virtual clock per handled request plus a
    /// ~10 GB/s memcpy term (same knob as [`crate::DhtConfig::handler_ns`]:
    /// one-sided pushes are NIC-only at the owner, RPC pushes occupy its
    /// scheduler, and Lamport propagation turns that into visible queueing
    /// delay under load). Zero disables the charge.
    pub handler_ns: u64,
}

impl Default for DQueueConfig {
    fn default() -> Self {
        DQueueConfig {
            capacity: 1024,
            val_max: 64,
            owner: 0,
            claim_retries: 256,
            handler_ns: 2_000,
        }
    }
}

/// Byte offsets of one ring slot's fields.
#[derive(Debug, Clone, Copy)]
struct SlotLayout {
    seq: usize,
    len: usize,
    payload: usize,
}

/// `dq.push` — payload in, ds status code out.
struct PushM;
impl RpcMethod for PushM {
    const NAME: &'static str = "dq.push";
    type Req = Vec<u8>;
    type Rep = u8;
}

/// `dq.pop` — unit in, `(code, payload)` out (`None` = empty).
struct PopM;
impl RpcMethod for PopM {
    const NAME: &'static str = "dq.pop";
    type Req = ();
    type Rep = (u8, Option<Vec<u8>>);
}

/// Modeled owner-CPU nanoseconds for one RPC dispatch touching `bytes`:
/// the configured constant plus a ~10 GB/s memcpy term. Zero stays zero.
fn handler_cost(cfg: &DQueueConfig, bytes: usize) -> u64 {
    if cfg.handler_ns == 0 {
        return 0;
    }
    cfg.handler_ns + bytes as u64 / 10
}

/// Interned latency keys, one per (operation, path).
#[derive(Debug, Clone, Copy)]
struct LatKeys {
    push_os: usize,
    push_rpc: usize,
    push_loc: usize,
    pop_loc: usize,
    pop_rpc: usize,
}

/// Owner-side and shared state (no runtime references; see the DHT's
/// `Shared` for why).
struct Shared {
    cfg: DQueueConfig,
    lay: SlotLayout,
    slot: SlotRegion,
    ctrl: PhotonBuffer,
    ctrl_desc: BufferDescriptor,
    ring: PhotonBuffer,
    ring_desc: BufferDescriptor,
    /// The true head, advanced only by the single consumer.
    head: AtomicU64,
    /// Serializes consumers (the MPSC contract made structural).
    pop_lock: Mutex<()>,
    /// Ticket → payload for pushes larger than `val_max`.
    spill: Mutex<HashMap<u64, Vec<u8>>>,
    counters: DsCounters,
    latency: KeyedLatency,
    keys: LatKeys,
}

/// The distributed MPSC queue handle (see the module docs).
///
/// Cluster-wide object; operations say which node they run *as*. Method
/// names are compile-time constants, so create at most one `DQueue` per
/// cluster.
pub struct DQueue {
    sh: Arc<Shared>,
    /// caller rank → cached RPC client toward the owner.
    clients: Mutex<HashMap<Rank, Arc<RpcClient>>>,
}

impl std::fmt::Debug for DQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DQueue")
            .field("capacity", &self.sh.cfg.capacity)
            .field("owner", &self.sh.cfg.owner)
            .finish()
    }
}

impl DQueue {
    /// Collectively create the queue: register the ring on `cfg.owner` and
    /// install the `dq.*` handlers there (boot-thread call).
    pub fn new(cluster: &RuntimeCluster, cfg: DQueueConfig) -> DsResult<DQueue> {
        if cfg.owner >= cluster.len() {
            return Err(DsError::Rt(photon_runtime::RtError::InvalidRank(cfg.owner)));
        }
        let mut l = Layout::new();
        let lay = SlotLayout { seq: l.field(8), len: l.field(8), payload: l.field(cfg.val_max) };
        let slot = SlotRegion::new(l.size(), cfg.capacity)?;
        let owner_node = cluster.node(cfg.owner);
        let ctrl = owner_node.photon().register_buffer(CTRL_BYTES)?;
        let ring = owner_node.photon().register_buffer(slot.total_bytes())?;
        let latency = KeyedLatency::new();
        let keys = LatKeys {
            push_os: latency.register("dq.push@1s"),
            push_rpc: latency.register("dq.push@rpc"),
            push_loc: latency.register("dq.push@loc"),
            pop_loc: latency.register("dq.pop@loc"),
            pop_rpc: latency.register("dq.pop@rpc"),
        };
        let sh = Arc::new(Shared {
            cfg,
            lay,
            slot,
            ctrl_desc: ctrl.descriptor(),
            ctrl,
            ring_desc: ring.descriptor(),
            ring,
            head: AtomicU64::new(0),
            pop_lock: Mutex::new(()),
            spill: Mutex::new(HashMap::new()),
            counters: DsCounters::default(),
            latency,
            keys,
        });
        // Handlers charge the owner's virtual clock for dispatch + memcpy
        // (`DQueueConfig::handler_ns`); local short-circuits pay nothing.
        let s = Arc::clone(&sh);
        let p = Arc::clone(owner_node.photon());
        owner_node.rpc_serve::<PushM>(move |val| {
            let out = owner_push(&s, &val);
            p.elapse(handler_cost(&s.cfg, val.len()));
            Ok(out)
        });
        let s = Arc::clone(&sh);
        let p = Arc::clone(owner_node.photon());
        owner_node.rpc_serve::<PopM>(move |()| {
            let out = owner_pop(&s);
            let moved = out.1.as_ref().map_or(0, |v| v.len());
            p.elapse(handler_cost(&s.cfg, moved));
            Ok(out)
        });
        Ok(DQueue { sh, clients: Mutex::new(HashMap::new()) })
    }

    /// The rank hosting the ring.
    pub fn owner(&self) -> Rank {
        self.sh.cfg.owner
    }

    /// Elements currently queued (claimed tickets minus popped; racy by
    /// nature, for observability).
    pub fn len(&self) -> usize {
        let t = self.sh.ctrl.read_u64(CTRL_TAIL);
        (t - self.sh.head.load(Ordering::Relaxed)) as usize
    }

    /// True when no element is queued (racy, like [`DQueue::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters (cluster-wide totals).
    pub fn stats(&self) -> DsStats {
        self.sh.counters.snapshot()
    }

    /// Per-operation latency bank, keyed `dq.<op>@{1s,rpc,loc}`.
    pub fn latency(&self) -> &KeyedLatency {
        &self.sh.latency
    }

    /// Append `val` as `node`, via `path`. [`DsError::QueueFull`] when the
    /// ring is at capacity.
    pub fn push(&self, node: &Arc<RtNode>, val: &[u8], path: AccessPath) -> DsResult<()> {
        DsCounters::bump(&self.sh.counters.dq_pushes);
        let start = Instant::now();
        if node.rank() == self.sh.cfg.owner {
            let out = push_code(&self.sh, owner_push(&self.sh, val));
            self.sh.latency.record(self.sh.keys.push_loc, start.elapsed().as_nanos() as u64);
            return out;
        }
        let (out, lat_key) = match path {
            AccessPath::OneSided => match self.os_push(node, val)? {
                true => (Ok(()), self.sh.keys.push_os),
                // Oversized payload, ticket contention, or an
                // observed-full ring (conservative): the owner arbitrates.
                false => {
                    DsCounters::bump(&self.sh.counters.dq_rpc_fallbacks);
                    (self.rpc_push(node, val), self.sh.keys.push_rpc)
                }
            },
            AccessPath::Rpc => (self.rpc_push(node, val), self.sh.keys.push_rpc),
        };
        self.sh.latency.record(lat_key, start.elapsed().as_nanos() as u64);
        out
    }

    /// Pop the oldest element as `node` (`Ok(None)` = empty). Executes at
    /// the owner: locally for the owner rank, via at-most-once RPC from
    /// anywhere else.
    pub fn pop(&self, node: &Arc<RtNode>) -> DsResult<Option<Vec<u8>>> {
        DsCounters::bump(&self.sh.counters.dq_pops);
        let start = Instant::now();
        if node.rank() == self.sh.cfg.owner {
            let (code, val) = owner_pop(&self.sh);
            self.sh.latency.record(self.sh.keys.pop_loc, start.elapsed().as_nanos() as u64);
            return if code == DS_OK { Ok(val) } else { Err(pop_error(code)) };
        }
        let (code, val) = self.client(node).call::<PopM>(&(), RpcOptions::at_most_once())?;
        self.sh.latency.record(self.sh.keys.pop_rpc, start.elapsed().as_nanos() as u64);
        if code == DS_OK {
            Ok(val)
        } else {
            Err(pop_error(code))
        }
    }

    fn client(&self, node: &Arc<RtNode>) -> Arc<RpcClient> {
        Arc::clone(
            self.clients
                .lock()
                .entry(node.rank())
                .or_insert_with(|| Arc::new(node.rpc_client(self.sh.cfg.owner))),
        )
    }

    fn rpc_push(&self, node: &Arc<RtNode>, val: &[u8]) -> DsResult<()> {
        let code = self.client(node).call::<PushM>(&val.to_vec(), RpcOptions::at_most_once())?;
        push_code(&self.sh, code)
    }

    /// One-sided push. `Ok(true)` = published; `Ok(false)` = fall back to
    /// RPC (oversized, contended past budget, or conservatively full).
    fn os_push(&self, node: &Arc<RtNode>, val: &[u8]) -> DsResult<bool> {
        let sh = &self.sh;
        if val.len() > sh.cfg.val_max {
            return Ok(false); // inline slot can't hold it: owner spills
        }
        let p = node.photon();
        let owner = sh.cfg.owner;
        p.with_scratch(sh.slot.slot_bytes().max(CTRL_BYTES), |tmp| {
            for _ in 0..sh.cfg.claim_retries {
                let rid = p.internal_rid();
                p.get_with_completion(owner, tmp, 0, CTRL_BYTES, &sh.ctrl_desc, 0, rid)?;
                p.wait_local(rid)?;
                let t = tmp.read_u64(CTRL_TAIL);
                let head_pub = tmp.read_u64(CTRL_HEAD);
                // Conservative-correct: head_pub <= true head, so passing
                // here proves slot t%cap was already consumed. Failing may
                // be spurious (lagging head_pub) — the owner re-checks with
                // the true head on the RPC path.
                if t - head_pub >= sh.cfg.capacity as u64 {
                    return Ok(false);
                }
                if p.compare_swap(owner, &sh.ctrl_desc, CTRL_TAIL, t, t + 1)? != t {
                    DsCounters::bump(&sh.counters.dht_lock_conflicts);
                    continue;
                }
                // Ticket t claimed: write payload, then publish seq = t+1.
                let off = sh.slot.offset((t % sh.cfg.capacity as u64) as usize);
                tmp.write_u64(sh.lay.len, val.len() as u64);
                tmp.write_at(sh.lay.payload, val);
                let rid = p.internal_rid();
                p.put(
                    owner,
                    tmp,
                    sh.lay.len,
                    sh.slot.slot_bytes() - sh.lay.len,
                    &sh.ring_desc,
                    off + sh.lay.len,
                    rid,
                )?;
                p.wait_local(rid)?;
                tmp.write_u64(0, t + 1);
                let rid = p.internal_rid();
                p.put(owner, tmp, 0, 8, &sh.ring_desc, off + sh.lay.seq, rid)?;
                p.wait_local(rid)?;
                return Ok(true);
            }
            Ok(false) // claim contention: let the owner serialize us
        })
    }
}

fn push_code(sh: &Shared, code: u8) -> DsResult<()> {
    match code {
        DS_OK => Ok(()),
        DS_QUEUE_FULL => {
            DsCounters::bump(&sh.counters.dq_full);
            Err(DsError::QueueFull)
        }
        _ => Err(DsError::Unavailable("queue ticket contention exhausted")),
    }
}

fn pop_error(_code: u8) -> DsError {
    DsError::Unavailable("queue pop failed at owner")
}

/// Owner-side push (RPC handler body and owner-local short-circuit): the
/// same claim protocol against the same words, via local region atomics.
fn owner_push(sh: &Arc<Shared>, val: &[u8]) -> u8 {
    for _ in 0..sh.cfg.claim_retries {
        let t = sh.ctrl.read_u64(CTRL_TAIL);
        let head = sh.head.load(Ordering::Acquire);
        if t - head >= sh.cfg.capacity as u64 {
            return DS_QUEUE_FULL;
        }
        if sh.ctrl.region().compare_swap_u64(CTRL_TAIL, t, t + 1) != t {
            DsCounters::bump(&sh.counters.dht_lock_conflicts);
            continue;
        }
        let off = sh.slot.offset((t % sh.cfg.capacity as u64) as usize);
        if val.len() > sh.cfg.val_max {
            DsCounters::bump(&sh.counters.dht_spills);
            sh.spill.lock().insert(t, val.to_vec());
            sh.ring.write_u64(off + sh.lay.len, SPILL64);
        } else {
            sh.ring.write_u64(off + sh.lay.len, val.len() as u64);
            sh.ring.write_at(off + sh.lay.payload, val);
        }
        sh.ring.write_u64(off + sh.lay.seq, t + 1); // publish
        return DS_OK;
    }
    DS_UNAVAILABLE
}

/// Owner-side pop: single consumer under the pop lock.
fn owner_pop(sh: &Arc<Shared>) -> (u8, Option<Vec<u8>>) {
    let _consumer = sh.pop_lock.lock();
    let h = sh.head.load(Ordering::Relaxed);
    let off = sh.slot.offset((h % sh.cfg.capacity as u64) as usize);
    // Present only when the producer published seq == h+1. A claimed but
    // unpublished ticket reads as empty — the element is not linearized
    // until its publish lands.
    if sh.ring.read_u64(off + sh.lay.seq) != h + 1 {
        return (DS_OK, None);
    }
    let len = sh.ring.read_u64(off + sh.lay.len);
    let val = if len == SPILL64 {
        sh.spill.lock().remove(&h).unwrap_or_default()
    } else {
        sh.ring.to_vec(off + sh.lay.payload, len as usize)
    };
    sh.head.store(h + 1, Ordering::Release);
    sh.ctrl.write_u64(CTRL_HEAD, h + 1); // advance producers' fullness view
    (DS_OK, Some(val))
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_fabric::{NetworkModel, VTime};
    use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};

    fn boot(n: usize) -> RuntimeCluster {
        RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), ActionRegistry::new())
    }

    fn cfg(capacity: usize) -> DQueueConfig {
        DQueueConfig { capacity, owner: 0, ..DQueueConfig::default() }
    }

    #[test]
    fn fifo_per_producer_across_both_paths() {
        let c = boot(2);
        let q = DQueue::new(&c, cfg(16)).unwrap();
        let prod = c.node(1);
        for i in 0..6u8 {
            let path = if i % 2 == 0 { AccessPath::OneSided } else { AccessPath::Rpc };
            q.push(prod, &[i], path).unwrap();
        }
        // Owner pops locally, in push order.
        for i in 0..6u8 {
            assert_eq!(q.pop(c.node(0)).unwrap(), Some(vec![i]));
        }
        assert_eq!(q.pop(c.node(0)).unwrap(), None);
        c.shutdown();
    }

    #[test]
    fn remote_ranks_pop_via_rpc() {
        let c = boot(3);
        let q = DQueue::new(&c, cfg(8)).unwrap();
        q.push(c.node(1), b"a", AccessPath::OneSided).unwrap();
        q.push(c.node(2), b"b", AccessPath::Rpc).unwrap();
        assert_eq!(q.pop(c.node(2)).unwrap(), Some(b"a".to_vec()));
        assert_eq!(q.pop(c.node(1)).unwrap(), Some(b"b".to_vec()));
        assert_eq!(q.pop(c.node(1)).unwrap(), None);
        c.shutdown();
    }

    #[test]
    fn a_full_ring_is_typed_and_drains() {
        let c = boot(2);
        let q = DQueue::new(&c, cfg(4)).unwrap();
        let prod = c.node(1);
        for i in 0..4u8 {
            q.push(prod, &[i], AccessPath::OneSided).unwrap();
        }
        // Ring full: one-sided observes it and the owner confirms it.
        assert_eq!(q.push(prod, &[9], AccessPath::OneSided), Err(DsError::QueueFull));
        assert_eq!(q.push(prod, &[9], AccessPath::Rpc), Err(DsError::QueueFull));
        assert!(q.stats().dq_full >= 2);
        // One pop frees one slot; the ring wraps and stays FIFO.
        assert_eq!(q.pop(c.node(0)).unwrap(), Some(vec![0]));
        q.push(prod, &[4], AccessPath::OneSided).unwrap();
        for i in 1..5u8 {
            assert_eq!(q.pop(c.node(0)).unwrap(), Some(vec![i]));
        }
        c.shutdown();
    }

    #[test]
    fn ring_reuse_survives_many_wraps() {
        let c = boot(2);
        let q = DQueue::new(&c, cfg(4)).unwrap();
        for i in 0..64u64 {
            q.push(c.node(1), &i.to_le_bytes(), AccessPath::OneSided).unwrap();
            assert_eq!(q.pop(c.node(0)).unwrap(), Some(i.to_le_bytes().to_vec()));
        }
        assert!(q.is_empty());
        c.shutdown();
    }

    #[test]
    fn oversized_payloads_spill_through_rpc() {
        let c = boot(2);
        let q = DQueue::new(&c, cfg(8)).unwrap();
        let big = vec![0xAA; 5000]; // val_max is 64
        q.push(c.node(1), &big, AccessPath::OneSided).unwrap();
        q.push(c.node(1), b"small", AccessPath::OneSided).unwrap();
        assert!(q.stats().dq_rpc_fallbacks >= 1);
        assert_eq!(q.pop(c.node(0)).unwrap(), Some(big));
        assert_eq!(q.pop(c.node(0)).unwrap(), Some(b"small".to_vec()));
        assert!(q.sh.spill.lock().is_empty(), "spill entry must be reclaimed");
        c.shutdown();
    }

    #[test]
    fn concurrent_producers_neither_lose_nor_duplicate() {
        let c = boot(3);
        let q = Arc::new(DQueue::new(&c, cfg(64)).unwrap());
        const PER: u64 = 40;
        let mut threads = Vec::new();
        for rank in [1usize, 2] {
            let q = Arc::clone(&q);
            let node = Arc::clone(c.node(rank));
            threads.push(std::thread::spawn(move || {
                for i in 0..PER {
                    let path = if i % 2 == 0 { AccessPath::OneSided } else { AccessPath::Rpc };
                    let mut v = vec![rank as u8];
                    v.extend_from_slice(&i.to_le_bytes());
                    loop {
                        match q.push(&node, &v, path) {
                            Ok(()) => break,
                            Err(DsError::QueueFull) => std::thread::yield_now(),
                            Err(e) => panic!("push failed: {e}"),
                        }
                    }
                }
            }));
        }
        // The owner drains concurrently; per-producer order must hold.
        let mut seen: HashMap<u8, Vec<u64>> = HashMap::new();
        let mut total = 0;
        while total < 2 * PER {
            if let Some(v) = q.pop(c.node(0)).unwrap() {
                let i = u64::from_le_bytes(v[1..9].try_into().unwrap());
                seen.entry(v[0]).or_default().push(i);
                total += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for t in threads {
            t.join().unwrap();
        }
        for (producer, items) in &seen {
            assert_eq!(items.len() as u64, PER, "producer {producer} lost/duplicated items");
            assert!(items.windows(2).all(|w| w[0] < w[1]), "producer {producer} out of order");
        }
        assert_eq!(q.pop(c.node(0)).unwrap(), None);
        c.shutdown();
    }

    #[test]
    fn a_dead_owner_resolves_typed() {
        let c = boot(3);
        let q = DQueue::new(&c, DQueueConfig { owner: 1, ..cfg(8) }).unwrap();
        q.push(c.node(0), b"x", AccessPath::OneSided).unwrap();
        c.photon().fabric().switch().faults().kill_node_at(1, VTime(0));
        assert!(matches!(q.push(c.node(0), b"y", AccessPath::OneSided), Err(DsError::Rt(_))));
        assert!(matches!(q.push(c.node(2), b"y", AccessPath::Rpc), Err(DsError::Rt(_))));
        assert!(matches!(q.pop(c.node(0)), Err(DsError::Rt(_))));
        c.shutdown();
    }
}
