//! A hash table sharded across ranks, with one-sided and RPC access paths.
//!
//! # Sharding and bucket layout
//!
//! A key hashes (FNV-1a) to an owning rank; a second mix picks its home
//! bucket inside the owner's registered region. Collisions probe linearly
//! through a bounded window of `probe_len` buckets (there are no deletes,
//! so the first empty bucket terminates every lookup). Each bucket is a
//! fixed-size slot:
//!
//! ```text
//! [ version u64 | key hash u64 | key_len|val_len u64 | key bytes | val bytes ]
//! ```
//!
//! The version word is a **seqlock**: even = stable, odd = locked by a
//! writer. Writers acquire it with compare-and-swap (`v -> v+1`), write the
//! payload fields, and release with `v+2`. Because remote atomics and RDMA
//! reads/writes serialize on the simulated region, a successful CAS from
//! version `v` proves the bucket still holds exactly the content read at
//! `v` — writers never need to re-read after locking.
//!
//! # The two paths
//!
//! *One-sided* readers issue a single RDMA read of the whole slot and
//! accept it if the version is even. (The simulated fabric makes that read
//! an atomic snapshot; production hardware would re-read the version word
//! after the payload, which costs one more round trip.) One-sided writers
//! run the CAS/put/release protocol above — three round trips, but zero
//! owner CPU. *RPC* operations execute at the owner under the **same**
//! version protocol (via local CAS on the region), so the two paths
//! interleave safely; the owner additionally keeps a heap *spill map* for
//! values too large for the inline `val_max` bytes — a bucket then stores
//! the sentinel length [`SPILL`] and one-sided readers bounce to RPC.
//!
//! Value compare-and-set is owner-only (RPC, at-most-once): emulating it
//! one-sided would need a multi-word atomic the fabric does not have.
//!
//! # Failure semantics
//!
//! A writer that crashes while holding a bucket lock leaves the version
//! word odd forever; operations on that bucket exhaust their retry budget
//! and resolve as [`DsError::Unavailable`] (the documented seqlock
//! limitation — leases would fix it at the cost of a clock contract).
//! Operations on keys owned by a dead rank resolve as typed transport
//! errors from the health machine.

use crate::{
    AccessPath, DsCounters, DsError, DsResult, DsStats, DS_BAD_KEY, DS_FULL, DS_MISMATCH, DS_OK,
    DS_UNAVAILABLE,
};
use parking_lot::Mutex;
use photon_core::buffers::BufferDescriptor;
use photon_core::layout::{Layout, SlotRegion};
use photon_core::{KeyedLatency, PhotonBuffer, Rank};
use photon_runtime::rpc::RpcMethod;
use photon_runtime::{RpcClient, RpcOptions, RtNode, RuntimeCluster};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel `val_len` marking a value stored in the owner's spill map
/// instead of inline bucket bytes.
pub const SPILL: u32 = u32::MAX;

/// Wall-clock pause between retries of a locked bucket (the lock holder is
/// mid-protocol; its remaining round trips complete in simulated-fabric
/// wall time, so micro-sleeps beat busy spinning).
const LOCK_PAUSE: Duration = Duration::from_micros(50);

/// Configuration of a [`Dht`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhtConfig {
    /// Buckets per owning rank (total capacity ≈ `n * buckets_per_rank`,
    /// degraded by probe-window clustering).
    pub buckets_per_rank: usize,
    /// Maximum key length in bytes (keys are stored inline).
    pub key_max: usize,
    /// Maximum *inline* value length; larger values spill to the owner's
    /// heap and always travel by RPC.
    pub val_max: usize,
    /// Linear-probe window: how many buckets a key may displace before the
    /// table reports [`DsError::Full`].
    pub probe_len: usize,
    /// Retry budget for locked buckets and lost CAS races before an
    /// operation falls back (one-sided → RPC) or resolves
    /// [`DsError::Unavailable`].
    pub lock_retries: usize,
    /// Modeled owner-CPU cost of dispatching one RPC handler, nanoseconds,
    /// charged to the owner's *virtual* clock per handled request (plus a
    /// per-byte memcpy term). This is the middleware trade-off the paper
    /// turns on: a one-sided op is pure NIC work at the target, while an
    /// RPC op occupies the owner's scheduler and handler — so under load
    /// RPC replies carry queueing delay, which Lamport clock propagation
    /// surfaces in every client's virtual time. Zero disables the charge.
    pub handler_ns: u64,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            buckets_per_rank: 1024,
            key_max: 32,
            val_max: 64,
            probe_len: 8,
            lock_retries: 256,
            handler_ns: 2_000,
        }
    }
}

/// Byte offsets of one bucket's fields (see the module docs for the
/// layout).
#[derive(Debug, Clone, Copy)]
struct BucketLayout {
    ver: usize,
    hash: usize,
    meta: usize,
    key: usize,
    val: usize,
}

impl BucketLayout {
    fn new(cfg: &DhtConfig) -> (BucketLayout, usize) {
        let mut l = Layout::new();
        let lay = BucketLayout {
            ver: l.field(8),
            hash: l.field(8),
            meta: l.field(8),
            key: l.field(cfg.key_max),
            val: l.field(cfg.val_max),
        };
        (lay, l.size())
    }
}

fn pack_meta(key_len: usize, val_len: u32) -> u64 {
    key_len as u64 | (val_len as u64) << 32
}

fn unpack_meta(meta: u64) -> (usize, u32) {
    ((meta & 0xffff_ffff) as usize, (meta >> 32) as u32)
}

/// FNV-1a 64-bit over the key: picks the owning rank.
fn hash_key(key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates the bucket index from the rank
/// choice (both derive from the same hash).
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// What a consistent bucket snapshot showed.
#[derive(Debug, PartialEq, Eq)]
enum Slot {
    /// Never written.
    Empty,
    /// Holds `key` with inline value bytes.
    Inline(Vec<u8>),
    /// Holds `key`; the value lives in the owner's spill map.
    Spilled,
    /// Holds a different key.
    Other,
}

/// Interned latency keys, one per (operation, path).
#[derive(Debug, Clone, Copy)]
struct LatKeys {
    get_os: usize,
    get_rpc: usize,
    get_loc: usize,
    put_os: usize,
    put_rpc: usize,
    put_loc: usize,
    cas_rpc: usize,
    cas_loc: usize,
}

/// State shared by the client handle and every rank's RPC handlers. Holds
/// no runtime references, so handler registration creates no `Arc` cycle
/// back into the nodes.
struct Shared {
    cfg: DhtConfig,
    lay: BucketLayout,
    slot: SlotRegion,
    n: usize,
    /// Per-rank bucket regions (index = owning rank).
    regions: Vec<PhotonBuffer>,
    /// Remote descriptors of `regions`, for the one-sided path.
    descs: Vec<BufferDescriptor>,
    /// Per-rank spill maps for values larger than `val_max`. Mutated only
    /// while holding the key's bucket lock, so a bucket snapshot plus an
    /// unchanged version word pins the matching spill entry.
    spills: Vec<Mutex<HashMap<Vec<u8>, Vec<u8>>>>,
    counters: DsCounters,
    latency: KeyedLatency,
    keys: LatKeys,
}

/// The distributed hash table handle (see the module docs).
///
/// Cluster-wide object, shared by all ranks in this simulated process
/// (like [`photon_runtime::GlobalArray`]); operations say which node they
/// run *as*. Method names are compile-time constants, so create at most
/// one `Dht` per cluster.
pub struct Dht {
    sh: Arc<Shared>,
    /// `(caller, owner)` → cached RPC client, so repeated calls share one
    /// at-most-once identity instead of minting one per operation.
    clients: Mutex<HashMap<(Rank, Rank), Arc<RpcClient>>>,
}

impl std::fmt::Debug for Dht {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dht")
            .field("buckets_per_rank", &self.sh.cfg.buckets_per_rank)
            .field("ranks", &self.sh.n)
            .finish()
    }
}

/// `dht.get` — key in, optional value out, plus a ds status code.
struct GetM;
impl RpcMethod for GetM {
    const NAME: &'static str = "dht.get";
    type Req = Vec<u8>;
    type Rep = (u8, Option<Vec<u8>>);
}

/// `dht.put` — `(key, value)` in, ds status code out.
struct PutM;
impl RpcMethod for PutM {
    const NAME: &'static str = "dht.put";
    type Req = (Vec<u8>, Vec<u8>);
    type Rep = u8;
}

/// `dht.cas` — `(key, expected, new)` in, `(code, previous)` out.
struct CasM;
impl RpcMethod for CasM {
    const NAME: &'static str = "dht.cas";
    type Req = (Vec<u8>, Option<Vec<u8>>, Vec<u8>);
    type Rep = (u8, Option<Vec<u8>>);
}

impl Dht {
    /// Collectively create the table: register `buckets_per_rank` buckets
    /// on every rank and install the `dht.*` method handlers (boot-thread
    /// call, before traffic).
    pub fn new(cluster: &RuntimeCluster, cfg: DhtConfig) -> DsResult<Dht> {
        let (lay, slot_bytes) = BucketLayout::new(&cfg);
        let slot = SlotRegion::new(slot_bytes, cfg.buckets_per_rank)?;
        let n = cluster.len();
        let mut regions = Vec::with_capacity(n);
        for node in cluster.nodes() {
            regions.push(node.photon().register_buffer(slot.total_bytes())?);
        }
        let descs = regions.iter().map(|b| b.descriptor()).collect();
        let latency = KeyedLatency::new();
        let keys = LatKeys {
            get_os: latency.register("dht.get@1s"),
            get_rpc: latency.register("dht.get@rpc"),
            get_loc: latency.register("dht.get@loc"),
            put_os: latency.register("dht.put@1s"),
            put_rpc: latency.register("dht.put@rpc"),
            put_loc: latency.register("dht.put@loc"),
            cas_rpc: latency.register("dht.cas@rpc"),
            cas_loc: latency.register("dht.cas@loc"),
        };
        let sh = Arc::new(Shared {
            cfg,
            lay,
            slot,
            n,
            regions,
            descs,
            spills: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: DsCounters::default(),
            latency,
            keys,
        });
        for node in cluster.nodes() {
            let rank = node.rank();
            // Each handler charges the owner's virtual clock for its
            // dispatch + memcpy (see `DhtConfig::handler_ns`); the local
            // short-circuit path calls `owner_*` directly and pays nothing.
            let s = Arc::clone(&sh);
            let p = Arc::clone(node.photon());
            node.rpc_serve::<GetM>(move |key| {
                let out = owner_get(&s, rank, &key);
                let moved = key.len() + out.1.as_ref().map_or(0, |v| v.len());
                p.elapse(handler_cost(&s.cfg, moved));
                Ok(out)
            });
            let s = Arc::clone(&sh);
            let p = Arc::clone(node.photon());
            node.rpc_serve::<PutM>(move |(key, val)| {
                let moved = key.len() + val.len();
                let out = owner_put(&s, rank, &key, &val);
                p.elapse(handler_cost(&s.cfg, moved));
                Ok(out)
            });
            let s = Arc::clone(&sh);
            let p = Arc::clone(node.photon());
            node.rpc_serve::<CasM>(move |(key, expected, new)| {
                let moved = key.len() + new.len();
                let out = owner_cas(&s, rank, &key, expected.as_deref(), &new);
                p.elapse(handler_cost(&s.cfg, moved));
                Ok(out)
            });
        }
        Ok(Dht { sh, clients: Mutex::new(HashMap::new()) })
    }

    /// The rank owning `key`.
    pub fn owner_of(&self, key: &[u8]) -> Rank {
        (hash_key(key) % self.sh.n as u64) as Rank
    }

    /// Operation counters (cluster-wide totals).
    pub fn stats(&self) -> DsStats {
        self.sh.counters.snapshot()
    }

    /// Per-operation latency bank, keyed `dht.<op>@{1s,rpc,loc}` (one-sided,
    /// RPC, owner-local short-circuit).
    pub fn latency(&self) -> &KeyedLatency {
        &self.sh.latency
    }

    /// Look up `key` as `node`, via `path`. `Ok(None)` means absent.
    pub fn get(
        &self,
        node: &Arc<RtNode>,
        key: &[u8],
        path: AccessPath,
    ) -> DsResult<Option<Vec<u8>>> {
        DsCounters::bump(&self.sh.counters.dht_gets);
        check_key(&self.sh.cfg, key)?;
        let owner = self.owner_of(key);
        let start = Instant::now();
        if owner == node.rank() {
            let out = code_opt_to_result(owner_get(&self.sh, owner, key));
            self.sh.latency.record(self.sh.keys.get_loc, start.elapsed().as_nanos() as u64);
            return out;
        }
        let (out, lat_key) = match path {
            AccessPath::OneSided => match self.os_get(node, owner, key)? {
                Some(v) => (Ok(v), self.sh.keys.get_os),
                // Locked bucket or spilled value: the owner has to answer.
                None => {
                    DsCounters::bump(&self.sh.counters.dht_rpc_fallbacks);
                    (self.rpc_get(node, owner, key), self.sh.keys.get_rpc)
                }
            },
            AccessPath::Rpc => (self.rpc_get(node, owner, key), self.sh.keys.get_rpc),
        };
        self.sh.latency.record(lat_key, start.elapsed().as_nanos() as u64);
        out
    }

    /// Store `key -> val` as `node`, via `path` (last-write-wins).
    pub fn put(
        &self,
        node: &Arc<RtNode>,
        key: &[u8],
        val: &[u8],
        path: AccessPath,
    ) -> DsResult<()> {
        DsCounters::bump(&self.sh.counters.dht_puts);
        check_key(&self.sh.cfg, key)?;
        let owner = self.owner_of(key);
        let start = Instant::now();
        if owner == node.rank() {
            let out = code_to_result(owner_put(&self.sh, owner, key, val));
            self.sh.latency.record(self.sh.keys.put_loc, start.elapsed().as_nanos() as u64);
            return out;
        }
        let (out, lat_key) = match path {
            AccessPath::OneSided => match self.os_put(node, owner, key, val)? {
                true => (Ok(()), self.sh.keys.put_os),
                false => {
                    DsCounters::bump(&self.sh.counters.dht_rpc_fallbacks);
                    (self.rpc_put(node, owner, key, val), self.sh.keys.put_rpc)
                }
            },
            AccessPath::Rpc => (self.rpc_put(node, owner, key, val), self.sh.keys.put_rpc),
        };
        self.sh.latency.record(lat_key, start.elapsed().as_nanos() as u64);
        out
    }

    /// Atomically replace `key`'s value with `new` iff its current value
    /// equals `expected` (`None` = absent, so `expected: None` is an
    /// insert-if-absent). Returns `(applied, previous)`. Always executes at
    /// the owner with at-most-once delivery — there is no one-sided path
    /// for value CAS.
    pub fn cas(
        &self,
        node: &Arc<RtNode>,
        key: &[u8],
        expected: Option<&[u8]>,
        new: &[u8],
    ) -> DsResult<(bool, Option<Vec<u8>>)> {
        DsCounters::bump(&self.sh.counters.dht_cas);
        check_key(&self.sh.cfg, key)?;
        let owner = self.owner_of(key);
        let start = Instant::now();
        let (out, lat_key) = if owner == node.rank() {
            (owner_cas(&self.sh, owner, key, expected, new), self.sh.keys.cas_loc)
        } else {
            let req = (key.to_vec(), expected.map(<[u8]>::to_vec), new.to_vec());
            (
                self.client(node, owner).call::<CasM>(&req, RpcOptions::at_most_once())?,
                self.sh.keys.cas_rpc,
            )
        };
        self.sh.latency.record(lat_key, start.elapsed().as_nanos() as u64);
        match out {
            (DS_OK, prev) => Ok((true, prev)),
            (DS_MISMATCH, prev) => Ok((false, prev)),
            (code, _) => Err(code_to_error(code)),
        }
    }

    fn client(&self, node: &Arc<RtNode>, owner: Rank) -> Arc<RpcClient> {
        Arc::clone(
            self.clients
                .lock()
                .entry((node.rank(), owner))
                .or_insert_with(|| Arc::new(node.rpc_client(owner))),
        )
    }

    fn rpc_get(&self, node: &Arc<RtNode>, owner: Rank, key: &[u8]) -> DsResult<Option<Vec<u8>>> {
        let rep =
            self.client(node, owner).call::<GetM>(&key.to_vec(), RpcOptions::at_least_once())?;
        code_opt_to_result(rep)
    }

    fn rpc_put(&self, node: &Arc<RtNode>, owner: Rank, key: &[u8], val: &[u8]) -> DsResult<()> {
        let req = (key.to_vec(), val.to_vec());
        let code = self.client(node, owner).call::<PutM>(&req, RpcOptions::at_least_once())?;
        code_to_result(code)
    }

    /// One-sided lookup. `Ok(Some(result))` is a completed lookup;
    /// `Ok(None)` means "this path cannot answer" (bucket stayed locked, or
    /// the value is spilled) and the caller should fall back to RPC.
    fn os_get(
        &self,
        node: &Arc<RtNode>,
        owner: Rank,
        key: &[u8],
    ) -> DsResult<Option<Option<Vec<u8>>>> {
        let sh = &self.sh;
        let p = node.photon();
        let h = hash_key(key);
        p.with_scratch(sh.slot.slot_bytes(), |tmp| {
            'probe: for i in 0..sh.cfg.probe_len {
                let off = sh.slot.offset(bucket_at(sh, h, i));
                for _ in 0..sh.cfg.lock_retries {
                    let rid = p.internal_rid();
                    p.get_with_completion(
                        owner,
                        tmp,
                        0,
                        sh.slot.slot_bytes(),
                        &sh.descs[owner],
                        off,
                        rid,
                    )?;
                    p.wait_local(rid)?;
                    // The simulated fabric reads the slot atomically, so an
                    // even version certifies the whole snapshot (hardware
                    // would re-read the version word here).
                    let v = tmp.read_u64(sh.lay.ver);
                    if v & 1 == 1 {
                        std::thread::sleep(LOCK_PAUSE);
                        continue;
                    }
                    match parse_snapshot(sh, tmp, h, key) {
                        Slot::Empty => return Ok(Some(None)),
                        Slot::Other => continue 'probe,
                        Slot::Spilled => return Ok(None), // owner must answer
                        Slot::Inline(val) => return Ok(Some(Some(val))),
                    }
                }
                return Ok(None); // lock stuck: let the owner arbitrate
            }
            Ok(Some(None))
        })
    }

    /// One-sided store. `Ok(true)` = stored; `Ok(false)` = fall back to RPC
    /// (oversized value, spilled predecessor, or contention past budget).
    fn os_put(&self, node: &Arc<RtNode>, owner: Rank, key: &[u8], val: &[u8]) -> DsResult<bool> {
        let sh = &self.sh;
        if val.len() > sh.cfg.val_max {
            return Ok(false); // inline bytes can't hold it: owner spills
        }
        let p = node.photon();
        let h = hash_key(key);
        p.with_scratch(sh.slot.slot_bytes(), |tmp| {
            p.with_scratch(8, |word| {
                'probe: for i in 0..sh.cfg.probe_len {
                    let off = sh.slot.offset(bucket_at(sh, h, i));
                    for _ in 0..sh.cfg.lock_retries {
                        let rid = p.internal_rid();
                        p.get_with_completion(
                            owner,
                            tmp,
                            0,
                            sh.slot.slot_bytes(),
                            &sh.descs[owner],
                            off,
                            rid,
                        )?;
                        p.wait_local(rid)?;
                        let v = tmp.read_u64(sh.lay.ver);
                        if v & 1 == 1 {
                            std::thread::sleep(LOCK_PAUSE);
                            continue;
                        }
                        match parse_snapshot(sh, tmp, h, key) {
                            Slot::Other => continue 'probe,
                            // The owner must clear its spill entry with the
                            // bucket lock held; only the RPC path can.
                            Slot::Spilled => return Ok(false),
                            Slot::Empty | Slot::Inline(_) => {}
                        }
                        // Lock: CAS v -> v+1. Success proves the bucket is
                        // unchanged since the snapshot (versions only grow).
                        let seen =
                            p.compare_swap(owner, &sh.descs[owner], off + sh.lay.ver, v, v + 1)?;
                        if seen != v {
                            DsCounters::bump(&sh.counters.dht_lock_conflicts);
                            continue;
                        }
                        // Write every payload field in one put (hash onward).
                        tmp.write_u64(sh.lay.hash, h);
                        tmp.write_u64(sh.lay.meta, pack_meta(key.len(), val.len() as u32));
                        tmp.write_at(sh.lay.key, key);
                        tmp.write_at(sh.lay.val, val);
                        let rid = p.internal_rid();
                        p.put(
                            owner,
                            tmp,
                            sh.lay.hash,
                            sh.slot.slot_bytes() - sh.lay.hash,
                            &sh.descs[owner],
                            off + sh.lay.hash,
                            rid,
                        )?;
                        p.wait_local(rid)?;
                        // Release: publish version v+2.
                        word.write_u64(0, v + 2);
                        let rid = p.internal_rid();
                        p.put(owner, word, 0, 8, &sh.descs[owner], off + sh.lay.ver, rid)?;
                        p.wait_local(rid)?;
                        return Ok(true);
                    }
                    return Ok(false); // contention budget spent: try RPC
                }
                Err(DsError::Full)
            })
        })
    }
}

fn check_key(cfg: &DhtConfig, key: &[u8]) -> DsResult<()> {
    if key.is_empty() || key.len() > cfg.key_max {
        return Err(DsError::BadKey { len: key.len(), max: cfg.key_max });
    }
    Ok(())
}

fn bucket_at(sh: &Shared, h: u64, i: usize) -> usize {
    (mix(h) as usize + i) % sh.cfg.buckets_per_rank
}

fn code_to_error(code: u8) -> DsError {
    match code {
        DS_FULL => DsError::Full,
        DS_BAD_KEY => DsError::BadKey { len: 0, max: 0 },
        _ => DsError::Unavailable("bucket lock retry budget exhausted"),
    }
}

fn code_to_result(code: u8) -> DsResult<()> {
    if code == DS_OK {
        Ok(())
    } else {
        Err(code_to_error(code))
    }
}

fn code_opt_to_result((code, val): (u8, Option<Vec<u8>>)) -> DsResult<Option<Vec<u8>>> {
    if code == DS_OK {
        Ok(val)
    } else {
        Err(code_to_error(code))
    }
}

/// Classify a consistent slot snapshot in `buf` against `key`.
fn parse_snapshot(sh: &Shared, buf: &PhotonBuffer, h: u64, key: &[u8]) -> Slot {
    let (key_len, val_len) = unpack_meta(buf.read_u64(sh.lay.meta));
    if key_len == 0 {
        return Slot::Empty;
    }
    if buf.read_u64(sh.lay.hash) != h || key_len != key.len() {
        return Slot::Other;
    }
    if buf.to_vec(sh.lay.key, key_len) != key {
        return Slot::Other;
    }
    if val_len == SPILL {
        return Slot::Spilled;
    }
    Slot::Inline(buf.to_vec(sh.lay.val, val_len as usize))
}

/// Seqlock read of one bucket at the owner: returns the version it was
/// consistent at plus its classification, or `None` when the lock stayed
/// held past the retry budget.
fn owner_read(sh: &Shared, rank: Rank, off: usize, h: u64, key: &[u8]) -> Option<(u64, Slot)> {
    let region = &sh.regions[rank];
    for _ in 0..sh.cfg.lock_retries {
        let v = region.read_u64(off + sh.lay.ver);
        if v & 1 == 1 {
            std::thread::sleep(LOCK_PAUSE);
            continue;
        }
        let (key_len, val_len) = unpack_meta(region.read_u64(off + sh.lay.meta));
        let slot = if key_len == 0 {
            Slot::Empty
        } else if region.read_u64(off + sh.lay.hash) != h
            || key_len != key.len()
            || region.to_vec(off + sh.lay.key, key_len) != key
        {
            Slot::Other
        } else if val_len == SPILL {
            Slot::Spilled
        } else {
            Slot::Inline(region.to_vec(off + sh.lay.val, val_len as usize))
        };
        // Unlike the one-sided snapshot, these were separate reads: only an
        // unchanged version word proves they were mutually consistent.
        if region.read_u64(off + sh.lay.ver) == v {
            return Some((v, slot));
        }
    }
    None
}

/// Modeled owner-CPU nanoseconds for one RPC dispatch touching `bytes`:
/// the configured constant plus a ~10 GB/s memcpy term. Zero stays zero.
fn handler_cost(cfg: &DhtConfig, bytes: usize) -> u64 {
    if cfg.handler_ns == 0 {
        return 0;
    }
    cfg.handler_ns + bytes as u64 / 10
}

/// Owner-side lookup (RPC handler body and owner-local short-circuit).
fn owner_get(sh: &Arc<Shared>, rank: Rank, key: &[u8]) -> (u8, Option<Vec<u8>>) {
    if key.is_empty() || key.len() > sh.cfg.key_max {
        return (DS_BAD_KEY, None);
    }
    let h = hash_key(key);
    for i in 0..sh.cfg.probe_len {
        let off = sh.slot.offset(bucket_at(sh, h, i));
        let Some((v, slot)) = owner_read(sh, rank, off, h, key) else {
            return (DS_UNAVAILABLE, None);
        };
        match slot {
            Slot::Empty => return (DS_OK, None),
            Slot::Other => continue,
            Slot::Inline(val) => return (DS_OK, Some(val)),
            Slot::Spilled => {
                let val = sh.spills[rank].lock().get(key).cloned();
                // Spill entries change only under the bucket lock: an
                // unchanged version pins this lookup to our snapshot.
                if sh.regions[rank].read_u64(off + sh.lay.ver) == v {
                    return (DS_OK, val);
                }
                // Raced a writer between snapshot and spill lookup: the
                // bucket moved on, so re-probe from this slot.
                return owner_get(sh, rank, key);
            }
        }
    }
    (DS_OK, None)
}

/// Lock bucket `off` at the version `v` its snapshot was taken at.
/// Returns false when another writer got there first (caller re-reads).
fn owner_lock(sh: &Shared, rank: Rank, off: usize, v: u64) -> bool {
    if sh.regions[rank].region().compare_swap_u64(off + sh.lay.ver, v, v + 1) == v {
        true
    } else {
        DsCounters::bump(&sh.counters.dht_lock_conflicts);
        false
    }
}

/// Write `key -> val` into the locked bucket at `off` and release it.
/// `was_spilled` says whether the bucket previously pointed at a spill
/// entry (which must be cleared if the new value fits inline).
fn owner_write(
    sh: &Shared,
    rank: Rank,
    off: usize,
    v: u64,
    key: &[u8],
    val: &[u8],
    was_spilled: bool,
) {
    let region = &sh.regions[rank];
    let spill_needed = val.len() > sh.cfg.val_max;
    if spill_needed {
        DsCounters::bump(&sh.counters.dht_spills);
        sh.spills[rank].lock().insert(key.to_vec(), val.to_vec());
    } else if was_spilled {
        sh.spills[rank].lock().remove(key);
    }
    region.write_u64(off + sh.lay.hash, hash_key(key));
    region.write_u64(
        off + sh.lay.meta,
        pack_meta(key.len(), if spill_needed { SPILL } else { val.len() as u32 }),
    );
    region.write_at(off + sh.lay.key, key);
    if !spill_needed {
        region.write_at(off + sh.lay.val, val);
    }
    region.write_u64(off + sh.lay.ver, v + 2);
}

/// Owner-side store (RPC handler body and owner-local short-circuit).
fn owner_put(sh: &Arc<Shared>, rank: Rank, key: &[u8], val: &[u8]) -> u8 {
    if key.is_empty() || key.len() > sh.cfg.key_max {
        return DS_BAD_KEY;
    }
    let h = hash_key(key);
    'probe: for i in 0..sh.cfg.probe_len {
        let off = sh.slot.offset(bucket_at(sh, h, i));
        for _ in 0..sh.cfg.lock_retries {
            let Some((v, slot)) = owner_read(sh, rank, off, h, key) else {
                return DS_UNAVAILABLE;
            };
            let was_spilled = match slot {
                Slot::Other => continue 'probe,
                Slot::Spilled => true,
                Slot::Empty | Slot::Inline(_) => false,
            };
            if !owner_lock(sh, rank, off, v) {
                continue; // lost the race: re-read and retry this bucket
            }
            owner_write(sh, rank, off, v, key, val, was_spilled);
            return DS_OK;
        }
        return DS_UNAVAILABLE;
    }
    DS_FULL
}

/// Owner-side value compare-and-set (always via the owner; see
/// [`Dht::cas`]).
fn owner_cas(
    sh: &Arc<Shared>,
    rank: Rank,
    key: &[u8],
    expected: Option<&[u8]>,
    new: &[u8],
) -> (u8, Option<Vec<u8>>) {
    if key.is_empty() || key.len() > sh.cfg.key_max {
        return (DS_BAD_KEY, None);
    }
    let h = hash_key(key);
    'probe: for i in 0..sh.cfg.probe_len {
        let off = sh.slot.offset(bucket_at(sh, h, i));
        for _ in 0..sh.cfg.lock_retries {
            let Some((v, slot)) = owner_read(sh, rank, off, h, key) else {
                return (DS_UNAVAILABLE, None);
            };
            let (current, was_spilled) = match slot {
                Slot::Other => continue 'probe,
                Slot::Empty => (None, false),
                Slot::Inline(val) => (Some(val), false),
                Slot::Spilled => (sh.spills[rank].lock().get(key).cloned(), true),
            };
            if !owner_lock(sh, rank, off, v) {
                continue;
            }
            // The lock's CAS succeeded from version v, so `current` is
            // still the bucket's value.
            if current.as_deref() == expected {
                owner_write(sh, rank, off, v, key, new, was_spilled);
                return (DS_OK, current);
            }
            // No mutation: restore the version word untouched.
            sh.regions[rank].write_u64(off + sh.lay.ver, v);
            return (DS_MISMATCH, current);
        }
        return (DS_UNAVAILABLE, None);
    }
    // Probe window exhausted: the key is provably absent (inserts always
    // land within the window). An insert attempt fails for space; a
    // compare against a concrete value fails as a mismatch with None.
    if expected.is_none() {
        (DS_FULL, None)
    } else {
        (DS_MISMATCH, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_fabric::{NetworkModel, VTime};
    use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};

    fn boot(n: usize) -> RuntimeCluster {
        RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), ActionRegistry::new())
    }

    fn small_cfg() -> DhtConfig {
        DhtConfig { buckets_per_rank: 64, ..DhtConfig::default() }
    }

    /// A key owned by `owner` (so tests can force cross-rank traffic).
    fn key_owned_by(dht: &Dht, owner: Rank) -> Vec<u8> {
        (0u32..).map(|i| format!("k{i}").into_bytes()).find(|k| dht.owner_of(k) == owner).unwrap()
    }

    #[test]
    fn put_get_round_trips_on_both_paths_and_they_cohere() {
        let c = boot(3);
        let dht = Dht::new(&c, small_cfg()).unwrap();
        let node = c.node(0);
        let k1 = key_owned_by(&dht, 1);
        let k2 = key_owned_by(&dht, 2);

        // Written one-sided, read by RPC — and the reverse.
        dht.put(node, &k1, b"alpha", AccessPath::OneSided).unwrap();
        assert_eq!(dht.get(node, &k1, AccessPath::Rpc).unwrap(), Some(b"alpha".to_vec()));
        dht.put(node, &k2, b"beta", AccessPath::Rpc).unwrap();
        assert_eq!(dht.get(node, &k2, AccessPath::OneSided).unwrap(), Some(b"beta".to_vec()));

        // Overwrite across paths: last write wins.
        dht.put(node, &k1, b"alpha2", AccessPath::Rpc).unwrap();
        assert_eq!(dht.get(node, &k1, AccessPath::OneSided).unwrap(), Some(b"alpha2".to_vec()));

        // Absent key, both paths.
        assert_eq!(dht.get(node, b"nope", AccessPath::OneSided).unwrap(), None);
        assert_eq!(dht.get(node, b"nope", AccessPath::Rpc).unwrap(), None);

        // Another rank sees the same data one-sided.
        assert_eq!(
            dht.get(c.node(2), &k1, AccessPath::OneSided).unwrap(),
            Some(b"alpha2".to_vec())
        );
        c.shutdown();
    }

    #[test]
    fn owner_local_operations_short_circuit() {
        let c = boot(2);
        let dht = Dht::new(&c, small_cfg()).unwrap();
        let k = key_owned_by(&dht, 0);
        dht.put(c.node(0), &k, b"self", AccessPath::OneSided).unwrap();
        assert_eq!(dht.get(c.node(0), &k, AccessPath::Rpc).unwrap(), Some(b"self".to_vec()));
        assert!(dht.latency().summary_of("dht.put@loc").is_some_and(|s| s.count == 1));
        assert!(dht.latency().summary_of("dht.get@loc").is_some_and(|s| s.count == 1));
        c.shutdown();
    }

    #[test]
    fn colliding_keys_probe_and_a_full_window_is_typed() {
        let c = boot(1);
        let cfg = DhtConfig { buckets_per_rank: 4, probe_len: 2, ..DhtConfig::default() };
        let dht = Dht::new(&c, cfg).unwrap();
        let node = c.node(0);
        // Three keys whose home bucket coincides: the first two fit in the
        // probe window, the third must fail typed (not hang, not clobber).
        let base = |k: &[u8]| bucket_at(&dht.sh, hash_key(k), 0);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut i = 0u32;
        while keys.len() < 3 {
            let k = format!("c{i}").into_bytes();
            if keys.is_empty() || base(&k) == base(&keys[0]) {
                keys.push(k);
            }
            i += 1;
        }
        dht.put(node, &keys[0], b"v0", AccessPath::OneSided).unwrap();
        dht.put(node, &keys[1], b"v1", AccessPath::OneSided).unwrap();
        assert_eq!(dht.put(node, &keys[2], b"v2", AccessPath::OneSided), Err(DsError::Full));
        assert_eq!(dht.get(node, &keys[0], AccessPath::OneSided).unwrap(), Some(b"v0".to_vec()));
        assert_eq!(dht.get(node, &keys[1], AccessPath::OneSided).unwrap(), Some(b"v1".to_vec()));
        assert_eq!(dht.get(node, &keys[2], AccessPath::OneSided).unwrap(), None);
        c.shutdown();
    }

    #[test]
    fn oversized_values_spill_and_both_paths_read_them() {
        let c = boot(2);
        let dht = Dht::new(&c, small_cfg()).unwrap();
        let node = c.node(0);
        let k = key_owned_by(&dht, 1);
        let big = vec![0xEE; 4096]; // val_max is 64
                                    // One-sided put falls back to RPC transparently.
        dht.put(node, &k, &big, AccessPath::OneSided).unwrap();
        assert!(dht.stats().dht_spills >= 1);
        assert!(dht.stats().dht_rpc_fallbacks >= 1);
        // One-sided get sees the sentinel and bounces to the owner.
        assert_eq!(dht.get(node, &k, AccessPath::OneSided).unwrap(), Some(big.clone()));
        assert_eq!(dht.get(node, &k, AccessPath::Rpc).unwrap(), Some(big.clone()));
        // Shrinking the value back inline clears the spill entry.
        dht.put(node, &k, b"small", AccessPath::Rpc).unwrap();
        assert_eq!(dht.get(node, &k, AccessPath::OneSided).unwrap(), Some(b"small".to_vec()));
        assert!(dht.sh.spills[1].lock().is_empty(), "spill entry must be reclaimed");
        c.shutdown();
    }

    #[test]
    fn bad_keys_are_rejected_up_front() {
        let c = boot(1);
        let dht = Dht::new(&c, small_cfg()).unwrap();
        let node = c.node(0);
        let too_long = vec![1u8; 33];
        assert!(matches!(
            dht.put(node, b"", b"v", AccessPath::Rpc),
            Err(DsError::BadKey { len: 0, .. })
        ));
        assert!(matches!(
            dht.put(node, &too_long, b"v", AccessPath::OneSided),
            Err(DsError::BadKey { len: 33, .. })
        ));
        assert!(matches!(dht.get(node, b"", AccessPath::Rpc), Err(DsError::BadKey { .. })));
        c.shutdown();
    }

    #[test]
    fn cas_inserts_compares_and_reports_mismatches() {
        let c = boot(2);
        let dht = Dht::new(&c, small_cfg()).unwrap();
        let node = c.node(0);
        let k = key_owned_by(&dht, 1);
        // Insert-if-absent.
        assert_eq!(dht.cas(node, &k, None, b"one").unwrap(), (true, None));
        // Second insert attempt observes the value.
        assert_eq!(dht.cas(node, &k, None, b"two").unwrap(), (false, Some(b"one".to_vec())));
        // Conditional replace.
        assert_eq!(
            dht.cas(node, &k, Some(b"one".as_slice()), b"two").unwrap(),
            (true, Some(b"one".to_vec()))
        );
        assert_eq!(dht.get(node, &k, AccessPath::OneSided).unwrap(), Some(b"two".to_vec()));
        // Mismatch leaves the bucket readable and unchanged.
        assert_eq!(
            dht.cas(node, &k, Some(b"zzz".as_slice()), b"x").unwrap(),
            (false, Some(b"two".to_vec()))
        );
        assert_eq!(dht.get(node, &k, AccessPath::Rpc).unwrap(), Some(b"two".to_vec()));
        c.shutdown();
    }

    #[test]
    fn concurrent_cas_increments_linearize() {
        let c = boot(3);
        let dht = Arc::new(Dht::new(&c, small_cfg()).unwrap());
        let k = key_owned_by(&dht, 0);
        dht.put(c.node(0), &k, &0u64.to_le_bytes(), AccessPath::Rpc).unwrap();
        const PER: u64 = 20;
        let mut threads = Vec::new();
        for rank in [1usize, 2] {
            let dht = Arc::clone(&dht);
            let node = Arc::clone(c.node(rank));
            let k = k.clone();
            threads.push(std::thread::spawn(move || {
                for _ in 0..PER {
                    loop {
                        let cur = dht.get(&node, &k, AccessPath::Rpc).unwrap().unwrap();
                        let n = u64::from_le_bytes(cur[..8].try_into().unwrap());
                        let (ok, _) = dht
                            .cas(&node, &k, Some(cur.as_slice()), &(n + 1).to_le_bytes())
                            .unwrap();
                        if ok {
                            break;
                        }
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let fin = dht.get(c.node(0), &k, AccessPath::OneSided).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(fin[..8].try_into().unwrap()), 2 * PER);
        c.shutdown();
    }

    #[test]
    fn one_sided_writers_racing_the_same_key_converge() {
        let c = boot(3);
        let dht = Arc::new(Dht::new(&c, small_cfg()).unwrap());
        let k = key_owned_by(&dht, 0);
        let mut threads = Vec::new();
        for rank in [1usize, 2] {
            let dht = Arc::clone(&dht);
            let node = Arc::clone(c.node(rank));
            let k = k.clone();
            threads.push(std::thread::spawn(move || {
                for i in 0..10u32 {
                    let val = format!("r{rank}i{i}").into_bytes();
                    dht.put(&node, &k, &val, AccessPath::OneSided).unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        // Last-write-wins: the surviving value is one of the final writes.
        let v = dht.get(c.node(0), &k, AccessPath::Rpc).unwrap().unwrap();
        assert!(v == b"r1i9".to_vec() || v == b"r2i9".to_vec(), "got {v:?}");
        c.shutdown();
    }

    #[test]
    fn a_stuck_lock_resolves_unavailable_and_recovers_on_release() {
        let c = boot(2);
        let cfg = DhtConfig { lock_retries: 3, ..small_cfg() };
        let dht = Dht::new(&c, cfg).unwrap();
        let node = c.node(0);
        let k = key_owned_by(&dht, 1);
        dht.put(node, &k, b"v", AccessPath::OneSided).unwrap();
        // Simulate a writer that died mid-protocol: bucket lock held (odd
        // version), never released.
        let off = dht.sh.slot.offset(bucket_at(&dht.sh, hash_key(&k), 0));
        let v = dht.sh.regions[1].read_u64(off + dht.sh.lay.ver);
        dht.sh.regions[1].write_u64(off + dht.sh.lay.ver, v + 1);
        // One-sided exhausts its budget, falls back to RPC, and the owner
        // exhausts its budget too: a typed Unavailable, not a hang.
        assert_eq!(
            dht.get(node, &k, AccessPath::OneSided),
            Err(DsError::Unavailable("bucket lock retry budget exhausted"))
        );
        assert!(matches!(dht.put(node, &k, b"w", AccessPath::Rpc), Err(DsError::Unavailable(_))));
        // Lock released (e.g. an operator reset): everything works again.
        dht.sh.regions[1].write_u64(off + dht.sh.lay.ver, v);
        assert_eq!(dht.get(node, &k, AccessPath::OneSided).unwrap(), Some(b"v".to_vec()));
        dht.put(node, &k, b"w", AccessPath::Rpc).unwrap();
        c.shutdown();
    }

    #[test]
    fn operations_on_a_dead_owner_resolve_typed() {
        let c = boot(3);
        let dht = Dht::new(&c, small_cfg()).unwrap();
        let node = c.node(0);
        let k = key_owned_by(&dht, 2);
        dht.put(node, &k, b"v", AccessPath::Rpc).unwrap();
        c.photon().fabric().switch().faults().kill_node_at(2, VTime(0));
        // Both paths degrade to typed transport errors, not hangs.
        assert!(matches!(dht.get(node, &k, AccessPath::OneSided), Err(DsError::Rt(_))));
        assert!(matches!(dht.put(node, &k, b"w", AccessPath::Rpc), Err(DsError::Rt(_))));
        assert!(matches!(dht.cas(node, &k, None, b"x"), Err(DsError::Rt(_))));
        // Keys owned by survivors keep working.
        let alive = key_owned_by(&dht, 1);
        dht.put(node, &alive, b"ok", AccessPath::OneSided).unwrap();
        assert_eq!(dht.get(node, &alive, AccessPath::Rpc).unwrap(), Some(b"ok".to_vec()));
        c.shutdown();
    }
}
