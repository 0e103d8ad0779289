//! Threaded-client scaffolding shared by the rpc and ds drivers.
//!
//! Both read an rpc-shaped [`Schedule`]: they boot a [`RuntimeCluster`]
//! from it with its chaos plan installed, then run its [`Op::RpcCall`]s on
//! one worker thread per calling rank while a nudger thread keeps every
//! rank's virtual clock moving. Real threads make these cases
//! nondeterministic in interleaving, so the drivers digest only stable facts.

use crate::schedule::{Op, Schedule};
use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Virtual time a rank's clock advances per nudge and before each call.
const NUDGE_NS: u64 = 20_000;

/// Boot the schedule's cluster with its chaos plan installed before any
/// traffic flows, exactly like the deterministic executor does.
pub(crate) fn boot(sched: &Schedule) -> RuntimeCluster {
    let cluster = RuntimeCluster::new(
        sched.nodes,
        sched.network_model(),
        RtConfig { photon: sched.cfg, ..RtConfig::default() },
        ActionRegistry::new(),
    );
    sched.install_faults(cluster.photon().fabric().switch().faults());
    cluster
}

/// The mutation token of op `idx`: unique per op and never 0 (token 0 is
/// untracked by the KV store's audit). The ds driver uses it as the value
/// the op writes or pushes.
pub(crate) fn token_of(idx: usize) -> u64 {
    1 + idx as u64
}

/// Run `body(rank, op_idx)` for every call op of `sched`: each calling
/// rank runs its calls in schedule order on its own worker, and ranks run
/// concurrently (the many-clients shape). Returns once every worker is done.
pub(crate) fn with_clients<F>(cluster: &RuntimeCluster, sched: &Schedule, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let mut per_client: Vec<Vec<usize>> = vec![Vec::new(); sched.nodes];
    for (i, op) in sched.ops.iter().enumerate() {
        if let Op::RpcCall { client, .. } = *op {
            per_client[client].push(i);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Clock nudger: idle ranks must still cross crash times and
        // partition windows, and heal points must stay reachable within the
        // clients' wall-clock retry budgets.
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                for r in 0..sched.nodes {
                    cluster.node(r).photon().elapse(NUDGE_NS);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let workers: Vec<_> = (0..sched.nodes)
            .filter(|&r| !per_client[r].is_empty())
            .map(|r| {
                let (per_client, body) = (&per_client, &body);
                s.spawn(move || {
                    for &idx in &per_client[r] {
                        // Chaos times are virtual: without this a whole
                        // schedule completes in a few µs of virtual time,
                        // landing every late crash *after* the traffic it
                        // was meant to disrupt.
                        cluster.node(r).photon().elapse(NUDGE_NS);
                        body(r, idx);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("client worker");
        }
        done.store(true, Ordering::Release);
    });
}
