//! Cluster construction: `n` [`Photon`] contexts over one fabric, wired to
//! a shared connection directory and (optionally) the progress engine.

use crate::config::PhotonConfig;
use crate::conn::ConnDirectory;
use crate::photon::Photon;
use crate::Rank;
use photon_fabric::api::FabricBackend;
use photon_fabric::sock::SockCluster;
use photon_fabric::{Cluster, NetworkModel};
use std::sync::Arc;

/// The fabric a [`PhotonCluster`] was constructed over: the simulated
/// switch or an in-process sockets cluster. Backend-specific escape
/// hatches (fault plans, socket addresses) hang off the respective arm.
#[derive(Debug)]
pub enum FabricHandle {
    /// Simulated RDMA fabric (LogGP model, fault injection).
    Sim(Cluster),
    /// In-process sockets cluster: one UDP endpoint + reactor per rank,
    /// data crossing the loopback interface for real.
    Sock(Arc<SockCluster>),
}

/// A whole Photon job: `n` contexts over one fabric (simulated by
/// default; see [`crate::config::BackendKind`]).
#[derive(Debug)]
pub struct PhotonCluster {
    fabric: FabricHandle,
    ranks: Vec<Arc<Photon>>,
    /// Dedicated progress threads (see [`crate::progress`]); `None` in
    /// inline mode (`PhotonConfig::progress_threads == 0`).
    progress: Option<crate::progress::ProgressEngine>,
}

impl PhotonCluster {
    /// Build an `n`-rank job over the backend `cfg.backend` selects. The
    /// sim backend models the network with `model`; the sockets backend
    /// moves real datagrams and ignores it.
    pub fn new(n: usize, model: NetworkModel, cfg: PhotonConfig) -> PhotonCluster {
        match cfg.backend {
            crate::config::BackendKind::Sim => Self::with_fabric(Cluster::new(n, model), cfg),
            crate::config::BackendKind::Sock => Self::new_sock(n, cfg),
        }
    }

    /// Build over a pre-constructed simulated fabric (custom registration
    /// limits, fault plans).
    pub fn with_fabric(fabric: Cluster, cfg: PhotonConfig) -> PhotonCluster {
        let n = fabric.len();
        let ranks: Vec<Arc<Photon>> =
            (0..n).map(|i| Arc::new(Photon::init(i, &fabric, cfg).expect("photon init"))).collect();
        Self::assemble(FabricHandle::Sim(fabric), ranks, cfg)
    }

    /// Build an `n`-rank job over an in-process sockets cluster: every
    /// rank's protocol writes cross real UDP sockets on loopback, served
    /// by per-rank reactor threads. The multi-process twin is
    /// `photon-launch` + [`crate::process::PhotonProcess`].
    pub fn new_sock(n: usize, cfg: PhotonConfig) -> PhotonCluster {
        let sock = Arc::new(SockCluster::new(n).expect("sockets cluster"));
        let ranks: Vec<Arc<Photon>> = (0..n)
            .map(|i| {
                let nic: Arc<dyn FabricBackend> = Arc::clone(sock.nic(i)) as _;
                Arc::new(Photon::init_backend(i, n, nic, cfg).expect("photon init"))
            })
            .collect();
        Self::assemble(FabricHandle::Sock(sock), ranks, cfg)
    }

    /// Shared tail of every constructor: out-of-band connection-manager
    /// wiring (PMI stand-in — no descriptors are exchanged here;
    /// connections and their service blocks are established lazily on
    /// first contact) plus the progress engine.
    fn assemble(fabric: FabricHandle, ranks: Vec<Arc<Photon>>, cfg: PhotonConfig) -> PhotonCluster {
        let directory = Arc::new(ConnDirectory::default());
        *directory.slots.write() = ranks.iter().map(Arc::downgrade).collect();
        for p in &ranks {
            p.directory.set(Arc::clone(&directory)).expect("init once");
        }
        let progress = crate::progress::ProgressEngine::spawn(&ranks, cfg.progress_threads);
        PhotonCluster { fabric, ranks, progress }
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

    /// The backend this cluster was constructed over.
    pub fn fabric_handle(&self) -> &FabricHandle {
        &self.fabric
    }

    /// The underlying *simulated* fabric (model, faults, diagnostics).
    ///
    /// # Panics
    ///
    /// On a sockets-backed cluster — fault plans and the LogGP switch are
    /// sim-only concepts. Match on [`PhotonCluster::fabric_handle`] when
    /// the backend is not statically known.
    pub fn fabric(&self) -> &Cluster {
        match &self.fabric {
            FabricHandle::Sim(c) => c,
            FabricHandle::Sock(_) => {
                panic!("fabric(): sockets-backed cluster has no simulated switch")
            }
        }
    }

    /// Reset all virtual clocks (and, on the sim backend, the switch's
    /// port reservations) to the origin. Benchmark harness hook: lets
    /// repetitions start from t=0. On the sockets backend only the rank
    /// clocks reset — wall-clock timestamps keep flowing from the job
    /// epoch, and the [`photon_fabric::VTime`] monotonicity contract makes
    /// that safe.
    pub fn reset_time(&self) {
        if let FabricHandle::Sim(c) = &self.fabric {
            c.switch().reset_time();
        }
        for p in &self.ranks {
            p.clock.reset();
        }
    }
}

impl Drop for PhotonCluster {
    fn drop(&mut self) {
        // Stop and join the progress threads before any context state is
        // torn down; each thread holds an `Arc<Photon>`, so joining here
        // (not just dropping handles) is what bounds their lifetime.
        if let Some(mut engine) = self.progress.take() {
            engine.stop();
        }
    }
}
