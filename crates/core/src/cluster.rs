//! Cluster construction: `n` [`Photon`] contexts over one fabric, wired to
//! a shared connection directory. A sim cluster spawns no threads: every
//! rank progresses only inside its callers' probe and wait calls.

use crate::config::{BackendKind, PhotonConfig};
use crate::conn::ConnDirectory;
use crate::photon::Photon;
use crate::Rank;
use photon_fabric::api::FabricBackend;
use photon_fabric::sock::{SockCluster, SockStatsSnapshot};
use photon_fabric::{Cluster, NetworkModel};
use std::sync::Arc;

/// A whole Photon job: `n` contexts over one fabric (simulated by
/// default; see [`BackendKind`]).
#[derive(Debug)]
pub struct PhotonCluster {
    /// The simulated fabric the job runs over (`None` over sockets).
    sim: Option<Cluster>,
    /// The in-process sockets cluster the job runs over (`None` over the
    /// sim), owned so its endpoints stay up as long as the ranks using
    /// them: dropping it shuts them down.
    sock: Option<SockCluster>,
    ranks: Vec<Arc<Photon>>,
}

impl PhotonCluster {
    /// Build an `n`-rank job over the backend `cfg.backend` selects. The
    /// sim backend models the network with `model`; the sockets backend
    /// moves real datagrams and ignores it: every rank's protocol writes
    /// cross real UDP sockets on loopback, served by whichever thread
    /// polls the target rank, or by its reactor thread when nobody does
    /// (the multi-process twin is `photon-launch` +
    /// [`crate::process::PhotonProcess`]).
    pub fn new(n: usize, model: NetworkModel, cfg: PhotonConfig) -> PhotonCluster {
        match cfg.backend {
            BackendKind::Sim => Self::with_fabric(Cluster::new(n, model), cfg),
            BackendKind::Sock => {
                let sock = SockCluster::new(n).expect("sockets cluster");
                let mut cluster = Self::build(n, cfg, |i| Arc::clone(sock.nic(i)) as _);
                cluster.sock = Some(sock);
                cluster
            }
        }
    }

    /// Build over a pre-constructed simulated fabric (custom registration
    /// limits, fault plans).
    pub fn with_fabric(fabric: Cluster, cfg: PhotonConfig) -> PhotonCluster {
        let mut cluster = Self::build(fabric.len(), cfg, |i| Arc::clone(fabric.nic(i)) as _);
        cluster.sim = Some(fabric);
        cluster
    }

    /// The one constructor: a context per rank over the endpoint `nic`
    /// hands out for it, out-of-band connection-manager wiring (PMI
    /// stand-in — no descriptors are exchanged here; connections and their
    /// service blocks are established lazily on first contact). A backend
    /// is a closure here, not a code path.
    fn build(
        n: usize,
        cfg: PhotonConfig,
        nic: impl Fn(Rank) -> Arc<dyn FabricBackend>,
    ) -> PhotonCluster {
        let ranks: Vec<Arc<Photon>> = (0..n)
            .map(|i| Arc::new(Photon::init_backend(i, n, nic(i), cfg).expect("photon init")))
            .collect();
        let directory = Arc::new(ConnDirectory::default());
        *directory.slots.write() = ranks.iter().map(Arc::downgrade).collect();
        for p in &ranks {
            p.directory.set(Arc::clone(&directory)).expect("init once");
        }
        PhotonCluster { sim: None, sock: None, ranks }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True for an empty job.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The context for `rank`.
    pub fn rank(&self, rank: Rank) -> &Arc<Photon> {
        &self.ranks[rank]
    }

    /// All contexts.
    pub fn ranks(&self) -> &[Arc<Photon>] {
        &self.ranks
    }

    /// The underlying *simulated* fabric (model, faults, diagnostics).
    ///
    /// # Panics
    ///
    /// On a sockets-backed cluster — fault plans and the LogGP switch are
    /// sim-only concepts.
    pub fn fabric(&self) -> &Cluster {
        self.sim.as_ref().expect("fabric(): sockets-backed cluster has no simulated switch")
    }

    /// Transport counters of `rank`'s sockets endpoint (datagrams, frames,
    /// trains, acks, retransmissions, drain turns); `None` on the sim
    /// backend.
    pub fn sock_stats(&self, rank: Rank) -> Option<SockStatsSnapshot> {
        self.sock.as_ref().map(|c| c.nic(rank).stats())
    }

    /// Reset all virtual clocks (and, on the sim backend, the switch's
    /// port reservations) to the origin. Benchmark harness hook: lets
    /// repetitions start from t=0. On the sockets backend only the rank
    /// clocks reset — wall-clock timestamps keep flowing from the job
    /// epoch, and the [`photon_fabric::VTime`] monotonicity contract makes
    /// that safe.
    pub fn reset_time(&self) {
        if let Some(c) = &self.sim {
            c.switch().reset_time();
        }
        for p in &self.ranks {
            p.clock.reset();
        }
    }
}
