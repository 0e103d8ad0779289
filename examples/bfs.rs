//! Distributed breadth-first search over active messages.
//!
//! The irregular-application workload that motivates message-driven
//! runtimes: vertices are block-distributed, and edge relaxations travel as
//! parcels to the owner of the target vertex (no gather/scatter phases, no
//! two-sided choreography). Levels are synchronized with Photon allreduces;
//! termination is detected when a level discovers nothing new. The result
//! is verified against a single-process reference BFS.
//!
//! Demonstrates two runtime facilities built for exactly this workload:
//! **parcel coalescing** (tiny relaxations batched per destination) and
//! **global quiescence detection** (level synchronization without
//! hand-rolled completion counters).
//!
//! Run with: `cargo run --release --example bfs`

use parking_lot::Mutex;
use photon::core::ReduceOp;
use photon::fabric::NetworkModel;
use photon::runtime::{ActionRegistry, RtConfig, RuntimeCluster};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

const RANKS: usize = 4;
const VERTS_PER_RANK: usize = 2000;
const DEGREE: usize = 8;
const UNSET: u32 = u32::MAX;

struct NodeState {
    dist: Mutex<Vec<u32>>,
    next_frontier: Mutex<Vec<u32>>, // local vertex ids discovered this level
}

/// Deterministic synthetic graph: out-edges of global vertex `v`.
fn edges_of(v: usize, total: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(0xB5F5 ^ v as u64);
    (0..DEGREE).map(|_| rng.gen_range(0..total)).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total = RANKS * VERTS_PER_RANK;
    let states: Arc<Vec<NodeState>> = Arc::new(
        (0..RANKS)
            .map(|_| NodeState {
                dist: Mutex::new(vec![UNSET; VERTS_PER_RANK]),
                next_frontier: Mutex::new(Vec::new()),
            })
            .collect(),
    );

    let mut reg = ActionRegistry::new();
    let st = Arc::clone(&states);
    // relax(target_local_vertex, level): set distance if undiscovered.
    let relax = reg.register("relax", move |ctx, payload| {
        let v = u64::from_le_bytes(payload[0..8].try_into().unwrap()) as usize;
        let level = u64::from_le_bytes(payload[8..16].try_into().unwrap()) as u32;
        let s = &st[ctx.rank()];
        let mut dist = s.dist.lock();
        if dist[v] == UNSET {
            dist[v] = level;
            s.next_frontier.lock().push(v as u32);
        }
        None
    });

    let cluster = RuntimeCluster::new(
        RANKS,
        NetworkModel::ib_fdr(),
        RtConfig { workers: 1, coalesce_max: 32, ..RtConfig::default() },
        reg,
    );

    // Seed: global vertex 0 at level 0 (rank 0's first frontier, below).
    states[0].dist.lock()[0] = 0;

    let levels = std::thread::scope(|scope| -> usize {
        let handles: Vec<_> = (0..RANKS)
            .map(|i| {
                let cluster = &cluster;
                let states = &states;
                scope.spawn(move || {
                    let node = cluster.node(i);
                    let photon = node.photon();
                    let mut level = 0u32;
                    // Not read from `next_frontier`: rank 0's first
                    // relaxations may already be landing there.
                    let mut frontier: Vec<u32> = if i == 0 { vec![0] } else { Vec::new() };
                    loop {
                        // Relax every out-edge with a parcel to the owner.
                        for &lv in &frontier {
                            let gv = i * VERTS_PER_RANK + lv as usize;
                            for tgt in edges_of(gv, RANKS * VERTS_PER_RANK) {
                                let owner = tgt / VERTS_PER_RANK;
                                let local = (tgt % VERTS_PER_RANK) as u64;
                                let mut payload = [0u8; 16];
                                payload[0..8].copy_from_slice(&local.to_le_bytes());
                                payload[8..16].copy_from_slice(&((level + 1) as u64).to_le_bytes());
                                node.send_parcel(owner, relax, &payload).unwrap();
                            }
                        }
                        // Level synchronization: global quiescence means
                        // every relaxation (including coalesced tails) ran.
                        node.quiescence().unwrap();
                        // Take the next frontier before the allreduce: no
                        // rank sends the next level's relaxations until every
                        // rank has entered it, so levels never mix.
                        frontier = std::mem::take(&mut *states[i].next_frontier.lock());
                        // Anything discovered anywhere?
                        let mut found = [frontier.len() as u64];
                        photon.allreduce_u64(&mut found, ReduceOp::Sum).unwrap();
                        level += 1;
                        if found[0] == 0 {
                            return level as usize;
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).max().unwrap()
    });

    // ----------------- reference BFS, single process ----------------------
    let mut ref_dist = vec![UNSET; total];
    ref_dist[0] = 0;
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(v) = queue.pop_front() {
        for t in edges_of(v, total) {
            if ref_dist[t] == UNSET {
                ref_dist[t] = ref_dist[v] + 1;
                queue.push_back(t);
            }
        }
    }

    let mut reached = 0usize;
    for (i, s) in states.iter().enumerate() {
        let dist = s.dist.lock();
        for (lv, &d) in dist.iter().enumerate() {
            assert_eq!(
                d,
                ref_dist[i * VERTS_PER_RANK + lv],
                "vertex {} disagrees with the reference",
                i * VERTS_PER_RANK + lv
            );
            if d != UNSET {
                reached += 1;
            }
        }
    }

    let t_ns = cluster.nodes().iter().map(|n| n.photon().now().as_nanos()).max().unwrap();
    println!("BFS over {total} vertices x degree {DEGREE} on {RANKS} ranks");
    println!("reached {reached} vertices in {levels} levels");
    println!("virtual time: {:.2} ms", t_ns as f64 / 1e6);
    let edges = (reached * DEGREE) as f64;
    println!("traversal rate: {:.2} Medges/s", edges / (t_ns as f64 / 1e9) / 1e6);
    cluster.shutdown();
    println!("bfs OK (matches reference)");
    Ok(())
}
