//! `gups` (E20): GUPS/YCSB-style mixed read-write sweep over the
//! `photon-ds` DHT, measuring the **one-sided vs RPC crossover** against
//! value size and client count.
//!
//! Each cell boots a `clients`-rank cluster (weak scaling: every rank hosts
//! a shard *and* one client thread, the GUPS shape), prefills a keyspace at
//! ~35% table load, then every client hammers uniformly random keys with a
//! 50/50 get/put mix (YCSB-A) — once via the one-sided path and once via
//! RPC, against the same prefilled table, so the two numbers differ only in
//! the access path. Tables are sized by a fixed per-rank byte budget, so
//! small values get the capacity story (1M+ buckets at 8 B) and large
//! values trade capacity for payload.
//!
//! Why a crossover exists: a one-sided get is one RDMA read, with no owner
//! CPU and no scheduler hop, but a one-sided put pays the seqlock protocol
//! (snapshot read, lock CAS, payload write, release write — four fabric
//! round trips), every one of them moving or touching the full fixed-size
//! slot. An RPC op pays the invocation layer (send, scheduler, handler
//! dispatch, reply) once, carries only the actual value bytes, and executes
//! under cheap local locking at the owner. As the value (and therefore
//! slot) grows, the one-sided put's multi-trip full-slot protocol loses to
//! the single-trip RPC; reads favor one-sided much longer.
//!
//! `ns_total` is the wall clock of the whole cell (host overhead +
//! scheduling). The crossover lives in `net_us_per_op`: the modeled-network
//! makespan (max per-client virtual-clock delta) per op — virtual time
//! charges every fabric round trip and byte at IB-FDR rates, which the
//! synchronous simulation makes nearly free in wall time.

use crate::harness::{best_of, Args, Cell, Report};
use photon_ds::{AccessPath, Dht, DhtConfig, DsError};
use photon_fabric::NetworkModel;
use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Table load factor the prefill targets, in percent. Low enough that the
/// bounded probe window almost never fills at any sweep size.
const LOAD_PCT: usize = 35;

/// One (value size, client count) point and its table sizing.
struct Point {
    vsize: usize,
    clients: usize,
    /// Per-rank bucket-region byte budget.
    bytes_per_rank: usize,
}

impl Point {
    fn ranks(&self) -> usize {
        self.clients.max(2)
    }

    fn dht_config(&self) -> DhtConfig {
        // Slot = 3 header words + 8-byte key + inline value (8-aligned).
        let slot = 24 + 8 + self.vsize.next_multiple_of(8);
        DhtConfig {
            buckets_per_rank: (self.bytes_per_rank / slot).next_power_of_two() / 2,
            key_max: 8,
            val_max: self.vsize,
            ..DhtConfig::default()
        }
    }

    fn keyspace(&self) -> usize {
        self.dht_config().buckets_per_rank * self.ranks() * LOAD_PCT / 100
    }

    /// Boot a cluster + prefilled table. Prefill puts the probe window
    /// rejects are skipped: those keys stay absent, and gets on them are
    /// legal.
    fn boot(&self) -> (RuntimeCluster, Dht) {
        let cluster = RuntimeCluster::new(
            self.ranks(),
            NetworkModel::ib_fdr(),
            RtConfig::default(),
            ActionRegistry::new(),
        );
        let dht = Dht::new(&cluster, self.dht_config()).expect("dht boots");
        let val = vec![0x5Au8; self.vsize];
        for k in 0..self.keyspace() as u64 {
            let key = k.to_le_bytes();
            // Prefill from the owner rank: short-circuits to local memory.
            let owner = dht.owner_of(&key);
            match dht.put(cluster.node(owner), &key, &val, AccessPath::Rpc) {
                Ok(()) | Err(DsError::Full) => {}
                Err(e) => panic!("prefill put failed: {e}"),
            }
        }
        (cluster, dht)
    }

    /// One measured cell: `clients` threads, each `ops_per_client` random
    /// 50/50 get/put ops over the keyspace, all through `path`.
    fn measure(
        &self,
        cluster: &RuntimeCluster,
        dht: &Dht,
        path: AccessPath,
        ops_per_client: u64,
    ) -> Cell {
        let (vsize, clients, keyspace) = (self.vsize, self.clients, self.keyspace());
        let seed = 0xE20 ^ (vsize as u64) << 16;
        let full_errors = AtomicU64::new(0);
        let max_vns = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let (full_errors, max_vns) = (&full_errors, &max_vns);
                s.spawn(move || {
                    let node = cluster.node(c % cluster.len());
                    let mut rng = StdRng::seed_from_u64(seed ^ (c as u64) << 32);
                    let val = vec![0xA5u8; vsize];
                    let v0 = node.photon().now().0;
                    for _ in 0..ops_per_client {
                        let key = (rng.gen_range(0..keyspace) as u64).to_le_bytes();
                        let r = if rng.gen_range(0u32..100) < 50 {
                            dht.get(node, &key, path).map(|_| ())
                        } else {
                            dht.put(node, &key, &val, path)
                        };
                        match r {
                            Ok(()) => {}
                            Err(DsError::Full) => {
                                full_errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("bench op failed: {e}"),
                        }
                    }
                    // Per-client modeled-network time for its op stream: the
                    // clock advanced to each completion's virtual delivery.
                    max_vns.fetch_max(node.photon().now().0 - v0, Ordering::Relaxed);
                });
            }
        });
        let ns = t0.elapsed().as_nanos() as u64;
        let ops = ops_per_client * clients as u64;
        let vns = max_vns.into_inner();
        let path = if path == AccessPath::OneSided { "1s" } else { "rpc" };
        Cell::new(format!("dht_{path}_v{vsize}_c{clients}"), ops, ns)
            .with("value_bytes", vsize as f64)
            .with("clients", clients as f64)
            .with("keyspace", keyspace as f64)
            .with("buckets_total", (self.dht_config().buckets_per_rank * self.ranks()) as f64)
            .with("full_errors", full_errors.into_inner() as f64)
            .with("net_ns_makespan", vns as f64)
            .with("net_us_per_op", vns as f64 / 1000.0 / ops as f64 * clients as f64)
    }
}

/// The `gups` suite. `--ops` is per client; `--smoke` shrinks the grid and
/// the table budget, same cell shape.
pub fn run(a: &Args) -> Report {
    let (ops_per_client, reps) = (a.ops(2_000, 300), a.reps(1, 1));
    let (vsizes, client_counts, bytes_per_rank): (&[usize], &[usize], usize) = if a.smoke {
        (&[8, 512], &[2, 4], 1 << 20)
    } else {
        (&[8, 64, 512, 4096], &[1, 2, 4, 8], 16 << 20)
    };
    let mut r = Report::new(a, reps);
    for &vsize in vsizes {
        // The headline per value size: which path costs less modeled
        // network time at each client count.
        let mut winners = Vec::new();
        for &clients in client_counts {
            let point = Point { vsize, clients, bytes_per_rank };
            // Both paths per boot, so each comparison runs against the
            // same prefilled table.
            let (cluster, dht) = point.boot();
            let [one_sided, rpc] = [AccessPath::OneSided, AccessPath::Rpc]
                .map(|path| best_of(reps, || point.measure(&cluster, &dht, path, ops_per_client)));
            cluster.shutdown();
            let net = |c: &Cell| c.get("net_us_per_op").unwrap_or(f64::MAX);
            winners.push(format!(
                "c{clients}={}",
                if net(&one_sided) <= net(&rpc) { "1s" } else { "rpc" }
            ));
            r.cells.extend([one_sided, rpc]);
        }
        r.verdicts.push(format!("v{vsize}: lower net_us_per_op at {}", winners.join(" ")));
    }
    r.notes.push(format!("50/50 get/put, uniform keys (YCSB-A), {ops_per_client} ops/client"));
    r
}
