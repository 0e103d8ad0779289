//! The sharded completion engine: lock-striped bookkeeping for the hot
//! post → CQE → probe path.
//!
//! The original engine funneled every post and every completion through
//! three global mutexes (a `HashMap<wr_id, rid>` of in-flight work, plus one
//! `VecDeque` per event class), and looked events up by rid with a linear
//! scan *per blocking spin*. This module replaces all three:
//!
//! * [`WrTable`] — a sharded slab with generation tags. Posting is a
//!   free-list pop under one shard lock; harvesting a CQE is an index load
//!   plus generation check. The slot/generation/shard triple *is* the
//!   `wr_id`, so no hash is ever computed.
//! * [`LocalQueue`] — local completion events in rid-sharded slabs. Each
//!   shard keeps an intrusive doubly-linked FIFO (for ordered `pop_front`)
//!   plus a per-rid index (for O(1) `take_rid`, the `wait_local` /
//!   `test_local` fast path). A round-robin cursor makes cross-shard
//!   draining fair.
//! * [`RemoteQueue`] — remote completion events in per-peer FIFOs with a
//!   round-robin drain cursor. Per-peer order (the wire guarantee) is
//!   preserved exactly; cross-peer draining is fair instead of
//!   arrival-ordered, so one chatty peer cannot starve the rest. `pop_from`
//!   (the `photon_wait_recv_request(proc)` analogue) is O(1) instead of a
//!   scan.
//!
//! All three keep an atomic element count so the observer hooks
//! (`in_flight`, `queued_events`) and empty-queue probes are O(1) and
//! lock-free. Shard counts are compile-time powers of two; see DESIGN.md
//! ("Sharded completion engine") for the sizing rationale.
//!
//! Lock order: a [`WrTable`] shard, then a [`LocalQueue`] shard. Retiring
//! or draining a wr hands its rid list to the caller under the wr shard
//! lock, and the caller pushes the events from there; no path holds a
//! local-queue shard while it takes a wr shard.

use crate::probe::RemoteEvent;
use crate::Rank;
use parking_lot::{Mutex, RwLock};
use photon_fabric::{VTime, WcStatus};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shards in the work-request table. Posts pick shards round-robin, so this
/// bounds post-side lock contention at ~`threads / WR_SHARDS`.
pub(crate) const WR_SHARDS: usize = 16;
const WR_SHARD_BITS: u32 = WR_SHARDS.trailing_zeros();
/// Slot index width inside a `wr_id` (per-shard capacity 2^28 live wrs).
const WR_SLOT_BITS: u32 = 28;

/// Shards in the local event queue; rids hash across them.
pub(crate) const LOCAL_SHARDS: usize = 8;

/// Null link in the intrusive lists.
const NIL: u32 = u32::MAX;

// ------------------------------------------------------------------ WrTable

#[derive(Debug, Default)]
struct WrSlot {
    gen: u32,
    /// The local rids the wr's one CQE retires: one for a single op, every
    /// member for a doorbell run. Kept (cleared) across slot reuse, so a
    /// warm slot holds its run without allocating.
    rids: Vec<u64>,
    /// Destination rank of the work request, so peer eviction
    /// ([`WrTable::drain_peer`]) can find every wr bound for a dead peer.
    peer: Rank,
    live: bool,
}

#[derive(Debug, Default)]
struct WrShard {
    slots: Vec<WrSlot>,
    free: Vec<u32>,
}

/// The `wr_id` of shard `si`'s `slot` at generation `gen`.
fn encode_wr_id(gen: u32, slot: usize, si: usize) -> u64 {
    ((gen as u64) << 32) | ((slot as u64) << WR_SHARD_BITS) | si as u64
}

/// Sharded slab of in-flight work requests: `wr_id` → the local rids its
/// CQE retires.
///
/// `wr_id` layout: `gen:32 | slot:28 | shard:4`. Generations start at 1 and
/// skip 0 on wrap, so a generated `wr_id` is never 0 — the id unsignaled
/// work requests carry — and a stale CQE for a recycled slot can never
/// match.
#[derive(Debug)]
pub(crate) struct WrTable {
    shards: Vec<Mutex<WrShard>>,
    cursor: AtomicUsize,
    count: AtomicUsize,
}

impl WrTable {
    pub(crate) fn new() -> WrTable {
        WrTable {
            shards: (0..WR_SHARDS).map(|_| Mutex::new(WrShard::default())).collect(),
            cursor: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
        }
    }

    /// Register an in-flight work request bound for `peer` whose CQE
    /// retires `rids`; returns its `wr_id`.
    pub(crate) fn insert(&self, rids: impl IntoIterator<Item = u64>, peer: Rank) -> u64 {
        let si = self.cursor.fetch_add(1, Ordering::Relaxed) & (WR_SHARDS - 1);
        let mut shard = self.shards[si].lock();
        let slot = match shard.free.pop() {
            Some(s) => s,
            None => {
                let s = shard.slots.len() as u32;
                assert!(s < (1 << WR_SLOT_BITS), "wr table shard overflow");
                shard.slots.push(WrSlot::default());
                s
            }
        };
        let e = &mut shard.slots[slot as usize];
        e.gen = e.gen.wrapping_add(1);
        if e.gen == 0 {
            e.gen = 1;
        }
        e.rids.clear();
        e.rids.extend(rids);
        e.peer = peer;
        e.live = true;
        self.count.fetch_add(1, Ordering::Relaxed);
        encode_wr_id(e.gen, slot as usize, si)
    }

    /// Evict every in-flight work request bound for `peer`, handing each
    /// one's rids to `f` (under the shard lock; see the module's lock
    /// order). The slots are freed: a late CQE for a drained wr misses the
    /// generation check and is harmlessly dropped, so an eviction plus a
    /// straggling flush can never double-complete a rid.
    pub(crate) fn drain_peer(&self, peer: Rank, mut f: impl FnMut(&[u64])) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            for slot in 0..shard.slots.len() {
                let e = &mut shard.slots[slot];
                if e.live && e.peer == peer {
                    e.live = false;
                    self.count.fetch_sub(1, Ordering::Relaxed);
                    f(&e.rids);
                    shard.free.push(slot as u32);
                }
            }
        }
    }

    /// Retire `wr_id`, handing its `(peer, rids)` to `f` under the shard
    /// lock (see the module's lock order); the wr has already left the
    /// in-flight count when `f` runs. A no-op for ids this table never
    /// issued (unsignaled wrs, stale generations) or already-retired ones.
    pub(crate) fn retire(&self, wr_id: u64, f: impl FnOnce(Rank, &[u64])) {
        let gen = (wr_id >> 32) as u32;
        if gen == 0 {
            return;
        }
        let si = (wr_id as usize) & (WR_SHARDS - 1);
        let slot = ((wr_id >> WR_SHARD_BITS) & ((1u64 << WR_SLOT_BITS) - 1)) as usize;
        let mut shard = self.shards[si].lock();
        let Some(e) = shard.slots.get_mut(slot).filter(|e| e.live && e.gen == gen) else {
            return;
        };
        e.live = false;
        self.count.fetch_sub(1, Ordering::Relaxed);
        f(e.peer, &e.rids);
        shard.free.push(slot as u32);
    }

    /// Number of in-flight work requests.
    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot of the rids currently in flight — every member of every
    /// live wr, with multiplicity: the ownership set a `flush_local` is
    /// allowed to consume.
    pub(crate) fn pending_rids(&self) -> HashMap<u64, usize> {
        let mut out = HashMap::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for &rid in shard.slots.iter().filter(|e| e.live).flat_map(|e| &e.rids) {
                *out.entry(rid).or_insert(0) += 1;
            }
        }
        out
    }

    /// Snapshot of the `wr_id`s currently in flight — the completion set a
    /// `flush_local` waits on (a wr leaves the table when its CQE is
    /// harvested, regardless of who later consumes the event).
    pub(crate) fn pending_wrs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            for (slot, e) in shard.slots.iter().enumerate() {
                if e.live {
                    out.push(encode_wr_id(e.gen, slot, si));
                }
            }
        }
        out
    }

    /// Does any in-flight work request target `peer`? Used by the
    /// connection cache's eviction policy to prefer idle victims. O(total
    /// slots) scan, but only runs when the cache is over capacity.
    pub(crate) fn has_peer(&self, peer: Rank) -> bool {
        if self.count.load(Ordering::Relaxed) == 0 {
            return false;
        }
        for shard in &self.shards {
            let shard = shard.lock();
            if shard.slots.iter().any(|e| e.live && e.peer == peer) {
                return true;
            }
        }
        false
    }

    /// Is `wr_id` still in flight? O(1): shard + slot decode, generation
    /// compare.
    pub(crate) fn contains(&self, wr_id: u64) -> bool {
        let gen = (wr_id >> 32) as u32;
        if gen == 0 {
            return false;
        }
        let si = (wr_id as usize) & (WR_SHARDS - 1);
        let slot = ((wr_id >> WR_SHARD_BITS) & ((1u64 << WR_SLOT_BITS) - 1)) as usize;
        let shard = self.shards[si].lock();
        shard.slots.get(slot).is_some_and(|e| e.live && e.gen == gen)
    }
}

// --------------------------------------------------------------- LocalQueue

#[derive(Debug, Clone, Copy)]
struct LocalNode {
    rid: u64,
    /// Destination rank of the completed operation, carried through so the
    /// consolidated `Completion` view can surface it.
    peer: Rank,
    ts: VTime,
    status: WcStatus,
    prev: u32,
    next: u32,
}

/// Trivial hasher for u64 rid keys: one Fibonacci multiply + xor-fold.
/// SipHash (the `HashMap` default) costs more than the rest of a push/take
/// combined on the drain hot path, and rids need no DoS hardening — they
/// are caller-chosen request ids, not attacker-controlled input.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RidHasher(u64);

impl std::hash::Hasher for RidHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Cold fallback for non-u64 keys (unused today).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RidBuildHasher;

impl std::hash::BuildHasher for RidBuildHasher {
    type Hasher = RidHasher;

    #[inline]
    fn build_hasher(&self) -> RidHasher {
        RidHasher(0)
    }
}

/// A `u64`-keyed map using the cheap rid hasher: the local queue's per-rid
/// index and claims maps, which sit on the harvest and wait hot paths.
type RidMap<V> = HashMap<u64, V, RidBuildHasher>;

/// Per-rid slot index. Rids are almost always unique among queued events,
/// so the common case is a bare slot number — no allocation per event.
#[derive(Debug)]
enum RidIndex {
    /// Exactly one queued event carries this rid.
    One(u32),
    /// Duplicate rids in flight, oldest first.
    Many(VecDeque<u32>),
}

/// Outcome of a claims-respecting take (see [`LocalQueue::take_rid_unclaimed`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TakeOutcome {
    /// An event was consumed.
    Taken(VTime, WcStatus),
    /// The rid is claimed by a `wait_local` waiter; not touched.
    Claimed,
    /// No event with this rid is queued.
    Empty,
}

#[derive(Debug, Default)]
struct LocalShard {
    nodes: Vec<LocalNode>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// rid → slot(s) holding it (rids may legally repeat).
    by_rid: RidMap<RidIndex>,
    /// rid → number of `wait_local` waiters currently claiming it. Kept in
    /// the shard so claim/take share one striped lock instead of adding a
    /// global mutex to the wait hot path.
    claims: RidMap<usize>,
}

impl LocalShard {
    fn new() -> LocalShard {
        LocalShard { head: NIL, tail: NIL, ..LocalShard::default() }
    }

    fn unlink(&mut self, slot: u32) -> (u64, Rank, VTime, WcStatus) {
        let (rid, peer, ts, status, prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.rid, n.peer, n.ts, n.status, n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
        self.free.push(slot);
        (rid, peer, ts, status)
    }

    fn index_push(&mut self, rid: u64, slot: u32) {
        match self.by_rid.entry(rid) {
            Entry::Vacant(v) => {
                v.insert(RidIndex::One(slot));
            }
            Entry::Occupied(mut o) => {
                let was_one = match o.get_mut() {
                    RidIndex::Many(q) => {
                        q.push_back(slot);
                        None
                    }
                    RidIndex::One(first) => Some(*first),
                };
                if let Some(first) = was_one {
                    o.insert(RidIndex::Many(VecDeque::from([first, slot])));
                }
            }
        }
    }

    /// Append one event at the FIFO tail (caller holds the shard lock).
    fn push_node(&mut self, rid: u64, peer: Rank, ts: VTime, status: WcStatus) {
        let node = LocalNode { rid, peer, ts, status, prev: self.tail, next: NIL };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = node;
                s
            }
            None => {
                let s = self.nodes.len() as u32;
                assert!(s < NIL, "local event queue shard overflow");
                self.nodes.push(node);
                s
            }
        };
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
        self.index_push(rid, slot);
    }

    /// Remove and return the oldest indexed slot for `rid`.
    fn index_take(&mut self, rid: u64) -> Option<u32> {
        let Entry::Occupied(mut o) = self.by_rid.entry(rid) else {
            return None;
        };
        let (slot, now_empty) = match o.get_mut() {
            RidIndex::One(s) => (*s, true),
            RidIndex::Many(q) => {
                let s = q.pop_front().expect("rid index never holds empty queues");
                (s, q.is_empty())
            }
        };
        if now_empty {
            o.remove();
        }
        Some(slot)
    }
}

/// Local completion events, sharded by rid hash.
///
/// `push`/`take_rid` touch exactly one shard lock and are O(1);
/// `pop_front` drains shards round-robin from a shared cursor, which keeps
/// mixed `probe(Local)` + `wait_local(rid)` workloads fair and is FIFO
/// within each shard.
#[derive(Debug)]
pub(crate) struct LocalQueue {
    shards: Vec<Mutex<LocalShard>>,
    cursor: AtomicUsize,
    /// Pop counter driving the periodic cursor rotation (see `pop_front`).
    ticks: AtomicUsize,
    count: AtomicUsize,
}

#[inline]
fn rid_shard(rid: u64) -> usize {
    // Fibonacci multiply-shift: adjacent rids (the common pattern) spread
    // across shards instead of clustering.
    (rid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize & (LOCAL_SHARDS - 1)
}

impl LocalQueue {
    pub(crate) fn new() -> LocalQueue {
        LocalQueue {
            shards: (0..LOCAL_SHARDS).map(|_| Mutex::new(LocalShard::new())).collect(),
            cursor: AtomicUsize::new(0),
            ticks: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
        }
    }

    pub(crate) fn push(&self, rid: u64, peer: Rank, ts: VTime, status: WcStatus) {
        self.shards[rid_shard(rid)].lock().push_node(rid, peer, ts, status);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Push a run of rids sharing one (peer, ts, status) — the shape a
    /// retired wr hands over. Groups rids by shard so each touched shard
    /// lock is taken once instead of once per event; FIFO order within a
    /// shard matches the slice order, which is all `pop_front` guarantees
    /// across shards anyway. A single rid (every op that is not a doorbell
    /// run) goes straight to its shard.
    pub(crate) fn push_many(&self, rids: &[u64], peer: Rank, ts: VTime, status: WcStatus) {
        if let [rid] = *rids {
            return self.push(rid, peer, ts, status);
        }
        for si in 0..LOCAL_SHARDS {
            let mut shard = None;
            for &rid in rids.iter().filter(|&&r| rid_shard(r) == si) {
                shard
                    .get_or_insert_with(|| self.shards[si].lock())
                    .push_node(rid, peer, ts, status);
            }
        }
        self.count.fetch_add(rids.len(), Ordering::Relaxed);
    }

    /// Pop the oldest event of some shard. The drain cursor is *sticky with
    /// periodic rotation*: consecutive pops keep draining the same shard
    /// (one warm lock + node slab instead of touching all eight in turn),
    /// and every 32nd pop forces the start shard forward so a continuously
    /// refilled shard cannot starve the others.
    pub(crate) fn pop_front(&self) -> Option<(u64, Rank, VTime, WcStatus)> {
        if self.count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let start = if tick & 31 == 0 {
            self.cursor.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.cursor.load(Ordering::Relaxed)
        };
        for k in 0..LOCAL_SHARDS {
            let si = (start + k) & (LOCAL_SHARDS - 1);
            let mut shard = self.shards[si].lock();
            let slot = shard.head;
            if slot == NIL {
                continue;
            }
            let (rid, peer, ts, status) = shard.unlink(slot);
            let front = shard.index_take(rid);
            debug_assert_eq!(front, Some(slot), "per-rid index tracks shard FIFO");
            drop(shard);
            if k != 0 {
                // Stick to the shard that had events.
                self.cursor.store(si, Ordering::Relaxed);
            }
            self.count.fetch_sub(1, Ordering::Relaxed);
            return Some((rid, peer, ts, status));
        }
        None
    }

    /// Drain up to `max` events, invoking `f` on each while the shard lock
    /// is held (so `f` must not call back into this queue). Same rotation
    /// policy as [`LocalQueue::pop_front`], but a full run off one shard
    /// costs a single lock acquisition and one `count` update — the shape
    /// `poll_completions` wants when a doorbell batch just landed. Returns
    /// how many events were delivered.
    pub(crate) fn pop_front_batch(
        &self,
        max: usize,
        mut f: impl FnMut(u64, Rank, VTime, WcStatus),
    ) -> usize {
        if max == 0 || self.count.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let start = if tick & 31 == 0 {
            self.cursor.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.cursor.load(Ordering::Relaxed)
        };
        let mut got = 0usize;
        for k in 0..LOCAL_SHARDS {
            if got == max {
                break;
            }
            let si = (start + k) & (LOCAL_SHARDS - 1);
            let mut shard = self.shards[si].lock();
            let before = got;
            while got < max {
                let slot = shard.head;
                if slot == NIL {
                    break;
                }
                let (rid, peer, ts, status) = shard.unlink(slot);
                let front = shard.index_take(rid);
                debug_assert_eq!(front, Some(slot), "per-rid index tracks shard FIFO");
                got += 1;
                f(rid, peer, ts, status);
            }
            if got > before && k != 0 {
                // Stick to the shard that had events.
                self.cursor.store(si, Ordering::Relaxed);
            }
        }
        if got > 0 {
            self.count.fetch_sub(got, Ordering::Relaxed);
        }
        got
    }

    /// Consume the oldest queued event carrying `rid`, if any. O(1).
    pub(crate) fn take_rid(&self, rid: u64) -> Option<(VTime, WcStatus)> {
        if self.count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut shard = self.shards[rid_shard(rid)].lock();
        let slot = shard.index_take(rid)?;
        let (_, _, ts, status) = shard.unlink(slot);
        drop(shard);
        self.count.fetch_sub(1, Ordering::Relaxed);
        Some((ts, status))
    }

    /// Declare a `wait_local(rid)` in progress: `flush_local` must leave
    /// this rid's events to the waiter. Claims nest (two waiters on the same
    /// rid hold two claims).
    pub(crate) fn claim(&self, rid: u64) {
        let mut shard = self.shards[rid_shard(rid)].lock();
        *shard.claims.entry(rid).or_insert(0) += 1;
    }

    /// Release one claim on `rid` (the waiter got its event or gave up).
    pub(crate) fn unclaim(&self, rid: u64) {
        let mut shard = self.shards[rid_shard(rid)].lock();
        if let Entry::Occupied(mut o) = shard.claims.entry(rid) {
            *o.get_mut() -= 1;
            if *o.get() == 0 {
                o.remove();
            }
        } else {
            debug_assert!(false, "unclaim without matching claim");
        }
    }

    /// `take_rid`, unless a waiter has claimed `rid`. The claim check and
    /// the take happen under the same shard lock, so a flush can never steal
    /// an event from a waiter that claimed first.
    pub(crate) fn take_rid_unclaimed(&self, rid: u64) -> TakeOutcome {
        let mut shard = self.shards[rid_shard(rid)].lock();
        if shard.claims.contains_key(&rid) {
            return TakeOutcome::Claimed;
        }
        let Some(slot) = shard.index_take(rid) else {
            return TakeOutcome::Empty;
        };
        let (_, _, ts, status) = shard.unlink(slot);
        drop(shard);
        self.count.fetch_sub(1, Ordering::Relaxed);
        TakeOutcome::Taken(ts, status)
    }

    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

// -------------------------------------------------------------- RemoteQueue

/// Remote completion events, one FIFO per source peer with a fair
/// round-robin drain cursor.
///
/// Peer FIFOs are allocated *lazily*, on the first event a peer ever
/// delivers: the queue holds a sorted `(rank, FIFO)` vector instead of an
/// O(N) dense array, so a rank's footprint scales with the peers it has
/// actually heard from, not the cluster size. The sorted order also keeps
/// `pop_any`'s rotation deterministic in single-threaded simulations.
type PeerFifo = Arc<Mutex<VecDeque<RemoteEvent>>>;

#[derive(Debug)]
pub(crate) struct RemoteQueue {
    slots: RwLock<Vec<(Rank, PeerFifo)>>,
    cursor: AtomicUsize,
    count: AtomicUsize,
}

impl RemoteQueue {
    pub(crate) fn new() -> RemoteQueue {
        RemoteQueue {
            slots: RwLock::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
        }
    }

    /// `src`'s FIFO, allocating it on first contact.
    fn fifo(&self, src: Rank) -> PeerFifo {
        {
            let slots = self.slots.read();
            if let Ok(i) = slots.binary_search_by_key(&src, |s| s.0) {
                return slots[i].1.clone();
            }
        }
        let mut slots = self.slots.write();
        match slots.binary_search_by_key(&src, |s| s.0) {
            Ok(i) => slots[i].1.clone(),
            Err(i) => {
                let q = Arc::new(Mutex::new(VecDeque::new()));
                slots.insert(i, (src, q.clone()));
                q
            }
        }
    }

    pub(crate) fn push(&self, ev: RemoteEvent) {
        self.fifo(ev.src).lock().push_back(ev);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Append a drained run of events — all from `src` — under a single
    /// peer-lock acquisition, emptying `buf` (its capacity stays with the
    /// caller's scratch). FIFO order within the run is preserved.
    pub(crate) fn push_drain(&self, src: Rank, buf: &mut Vec<RemoteEvent>) {
        let n = buf.len();
        if n == 0 {
            return;
        }
        debug_assert!(buf.iter().all(|ev| ev.src == src), "push_drain runs share one source");
        self.fifo(src).lock().extend(buf.drain(..));
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Pop the next event, rotating the starting peer so no single producer
    /// monopolizes the probe stream.
    pub(crate) fn pop_any(&self) -> Option<RemoteEvent> {
        if self.count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let slots = self.slots.read();
        let n = slots.len();
        if n == 0 {
            return None;
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            if let Some(ev) = slots[(start + k) % n].1.lock().pop_front() {
                self.count.fetch_sub(1, Ordering::Relaxed);
                return Some(ev);
            }
        }
        None
    }

    /// Pop the next event from `src` only. O(log peers-heard-from): no scan
    /// past other peers' traffic, and no FIFO allocated just to find it
    /// empty.
    pub(crate) fn pop_from(&self, src: Rank) -> Option<RemoteEvent> {
        let q = {
            let slots = self.slots.read();
            let i = slots.binary_search_by_key(&src, |s| s.0).ok()?;
            slots[i].1.clone()
        };
        let ev = q.lock().pop_front()?;
        self.count.fetch_sub(1, Ordering::Relaxed);
        Some(ev)
    }

    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// How many peer FIFOs have been allocated — the memory-bound tests'
    /// witness that construction is lazy.
    pub(crate) fn peers_allocated(&self) -> usize {
        self.slots.read().len()
    }

    /// Approximate heap footprint of the queue's per-peer structures.
    pub(crate) fn state_bytes(&self) -> usize {
        let slots = self.slots.read();
        slots.len()
            * (std::mem::size_of::<(Rank, PeerFifo)>()
                + std::mem::size_of::<Mutex<VecDeque<RemoteEvent>>>())
            + slots
                .iter()
                .map(|s| s.1.lock().capacity() * std::mem::size_of::<RemoteEvent>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retire `wr_id`, returning what the table hands over.
    fn retire(t: &WrTable, wr_id: u64) -> Option<(Rank, Vec<u64>)> {
        let mut got = None;
        t.retire(wr_id, |peer, rids| got = Some((peer, rids.to_vec())));
        got
    }

    /// Drain `peer`, returning every rid handed over, sorted.
    fn drain(t: &WrTable, peer: Rank) -> Vec<u64> {
        let mut rids = Vec::new();
        t.drain_peer(peer, |r| rids.extend_from_slice(r));
        rids.sort_unstable();
        rids
    }

    #[test]
    fn wr_table_roundtrip_and_stale_ids() {
        let t = WrTable::new();
        let a = t.insert([100], 1);
        let b = t.insert([200], 1);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(retire(&t, a), Some((1, vec![100])));
        assert_eq!(retire(&t, a), None, "double retire must miss");
        assert_eq!(retire(&t, 0), None, "unsignaled wr_id 0 never matches");
        assert_eq!(retire(&t, b), Some((1, vec![200])));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn wr_table_generation_guards_recycled_slots() {
        let t = WrTable::new();
        // Drain shards until a slot is provably recycled.
        let ids: Vec<u64> = (0..64).map(|i| t.insert([i], 0)).collect();
        for id in &ids {
            retire(&t, *id).unwrap();
        }
        let fresh = t.insert([999], 0);
        for id in &ids {
            assert_eq!(retire(&t, *id), None, "stale id must not hit the recycled slot");
        }
        assert_eq!(retire(&t, fresh), Some((0, vec![999])));
    }

    #[test]
    fn wr_table_stale_id_misses_a_recycled_run_slot() {
        let t = WrTable::new();
        // Every shard's slot 0 holds a single op, then is recycled for a
        // run: the single op's id must miss the run, which retires whole.
        let old: Vec<u64> = (0..WR_SHARDS as u64).map(|i| t.insert([i], 2)).collect();
        for id in &old {
            retire(&t, *id).unwrap();
        }
        let runs: Vec<u64> =
            (0..WR_SHARDS as u64).map(|i| t.insert([10 * i, 10 * i + 1], 2)).collect();
        for id in &old {
            assert_eq!(retire(&t, *id), None, "stale id must not retire a recycled run");
        }
        assert_eq!(t.len(), WR_SHARDS);
        assert_eq!(retire(&t, runs[3]), Some((2, vec![30, 31])));
    }

    #[test]
    fn wr_table_pending_snapshot_counts_duplicates() {
        let t = WrTable::new();
        t.insert([5], 2);
        t.insert([5], 2);
        let keep = t.insert([7], 3);
        let m = t.pending_rids();
        assert_eq!(m.get(&5), Some(&2));
        assert_eq!(m.get(&7), Some(&1));
        retire(&t, keep);
        assert_eq!(t.pending_rids().get(&7), None);
    }

    #[test]
    fn wr_table_pending_snapshot_counts_every_run_member() {
        let t = WrTable::new();
        let run = t.insert([1, 2, 3, 1], 4);
        t.insert([3], 4);
        let m = t.pending_rids();
        assert_eq!((m.get(&1), m.get(&2), m.get(&3)), (Some(&2), Some(&1), Some(&2)));
        assert_eq!(t.len(), 2, "a run is one wr in flight");
        retire(&t, run);
        assert_eq!(t.pending_rids(), HashMap::from([(3, 1)]));
    }

    #[test]
    fn wr_table_drain_peer_evicts_only_that_peer() {
        let t = WrTable::new();
        let keep = t.insert([10], 0);
        let doomed_a = t.insert([20], 1);
        t.insert([20], 1); // duplicate rid toward the dead peer
        t.insert([30], 1);
        assert_eq!(drain(&t, 1), vec![20, 20, 30]);
        assert_eq!(t.len(), 1, "other peers' wrs survive");
        assert_eq!(retire(&t, doomed_a), None, "drained slots reject late CQEs");
        assert_eq!(retire(&t, keep), Some((0, vec![10])));
        assert!(drain(&t, 1).is_empty(), "drain is idempotent");
        let again = t.insert([40], 1);
        assert_eq!(drain(&t, 1), vec![40]);
        assert_eq!(retire(&t, again), None, "a drained slot is free");
    }

    #[test]
    fn wr_table_drain_peer_yields_every_run_member() {
        let t = WrTable::new();
        let run = t.insert([50, 51, 52, 53], 1);
        t.insert([60], 1);
        let other = t.insert([70, 71], 2);
        assert_eq!(drain(&t, 1), vec![50, 51, 52, 53, 60]);
        assert_eq!(t.len(), 1);
        assert_eq!(retire(&t, run), None, "a drained run rejects its late CQE");
        assert_eq!(retire(&t, other), Some((2, vec![70, 71])));
    }

    const OK: WcStatus = WcStatus::Success;

    #[test]
    fn local_queue_take_rid_is_order_independent() {
        let q = LocalQueue::new();
        for rid in 0..100u64 {
            q.push(rid, 1, VTime(rid + 1), OK);
        }
        assert_eq!(q.len(), 100);
        // Worst case for a scan: consume in reverse arrival order.
        for rid in (0..100u64).rev() {
            assert_eq!(q.take_rid(rid), Some((VTime(rid + 1), OK)));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.take_rid(5), None);
    }

    #[test]
    fn local_queue_duplicate_rids_fifo() {
        let q = LocalQueue::new();
        q.push(9, 1, VTime(1), OK);
        q.push(9, 2, VTime(2), WcStatus::FlushErr);
        assert_eq!(q.take_rid(9), Some((VTime(1), OK)), "oldest instance first");
        assert_eq!(q.take_rid(9), Some((VTime(2), WcStatus::FlushErr)), "status rides along");
        assert_eq!(q.take_rid(9), None);
    }

    #[test]
    fn local_queue_pop_front_drains_everything() {
        let q = LocalQueue::new();
        for rid in 0..50u64 {
            q.push(rid, 0, VTime(rid), OK);
        }
        let mut seen: Vec<u64> =
            std::iter::from_fn(|| q.pop_front()).map(|(r, _, _, _)| r).collect();
        assert_eq!(q.pop_front(), None);
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn local_queue_mixed_pop_and_take() {
        let q = LocalQueue::new();
        for rid in 0..20u64 {
            q.push(rid, 0, VTime(rid), OK);
        }
        // Interleave targeted takes with FIFO pops; nothing lost or doubled.
        let mut got = Vec::new();
        for rid in (0..20u64).step_by(2) {
            got.push(q.take_rid(rid).map(|_| rid).expect("even rid present"));
        }
        while let Some((rid, _, _, _)) = q.pop_front() {
            got.push(rid);
        }
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn claims_shield_rids_from_unclaimed_takes() {
        let q = LocalQueue::new();
        q.push(7, 3, VTime(1), OK);
        q.claim(7);
        assert_eq!(q.take_rid_unclaimed(7), TakeOutcome::Claimed);
        assert_eq!(q.take_rid_unclaimed(8), TakeOutcome::Empty);
        assert_eq!(q.take_rid(7), Some((VTime(1), OK)), "the claiming waiter itself still takes");
        q.unclaim(7);
        q.push(7, 3, VTime(2), OK);
        assert_eq!(q.take_rid_unclaimed(7), TakeOutcome::Taken(VTime(2), OK));
        assert_eq!(q.len(), 0);
    }

    fn rev(src: Rank, rid: u64) -> RemoteEvent {
        RemoteEvent { src, rid, size: 0, payload: None, ts: VTime(rid), status: OK }
    }

    #[test]
    fn remote_queue_per_peer_fifo_and_fair_any() {
        let q = RemoteQueue::new();
        for i in 0..6u64 {
            q.push(rev(1, i));
        }
        q.push(rev(2, 100));
        assert_eq!(q.peers_allocated(), 2, "only contacted peers get a FIFO");
        // Per-peer order always holds…
        assert_eq!(q.pop_from(1).unwrap().rid, 0);
        // …and pop_any must reach peer 2 without draining all of peer 1
        // first.
        let mut until_peer2 = 0;
        loop {
            let ev = q.pop_any().expect("events remain");
            if ev.src == 2 {
                break;
            }
            until_peer2 += 1;
        }
        assert!(until_peer2 < 3, "fair rotation starved peer 2 for {until_peer2} pops");
    }

    #[test]
    fn remote_queue_pop_from_skips_others() {
        let q = RemoteQueue::new();
        q.push(rev(0, 1));
        q.push(rev(3, 2));
        assert_eq!(q.pop_from(3).unwrap().rid, 2);
        assert_eq!(q.pop_from(3), None);
        assert_eq!(q.pop_from(2), None, "unheard-from peer allocates nothing");
        assert_eq!(q.peers_allocated(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_any().unwrap().rid, 1);
    }
}
