//! Multi-process job membership: one Photon rank per OS process.
//!
//! An in-process [`crate::PhotonCluster`] holds every rank in one address
//! space and wires connections lazily through its [`crate::photon::ConnDirectory`].
//! A *multi-process* job has no shared address space, so this module joins
//! through the out-of-band bootstrap rendezvous instead (the PMI role of a
//! real launcher): each rank process connects to the `photon-launch`
//! rendezvous socket, allgathers its UDP endpoint and its per-peer
//! service-block descriptors (two rounds), and installs every connection
//! *eagerly* and fully formed. After [`PhotonProcess::join`] returns, all
//! PWC/ledger/eager/rendezvous/collective traffic flows over real sockets
//! with no further control-plane round-trips; collectives are eager
//! messages, so they need nothing exchanged of their own.
//!
//! The launcher contract is three environment variables, consumed by
//! [`PhotonProcess::from_env`]:
//!
//! | variable | meaning |
//! |---|---|
//! | `PHOTON_RANK` | this process's rank, `0..n` |
//! | `PHOTON_NRANKS` | job size (cross-checked against the server's) |
//! | `PHOTON_BOOTSTRAP` | `host:port` of the rendezvous service |

use crate::photon::Photon;
use crate::{PhotonConfig, PhotonError, Rank, Result};
use photon_fabric::api::{FabricBackend, RemoteKey};
use photon_fabric::sock::join_job;
use std::sync::Arc;

/// Environment variable naming this process's rank.
pub const ENV_RANK: &str = "PHOTON_RANK";
/// Environment variable naming the job size.
pub const ENV_NRANKS: &str = "PHOTON_NRANKS";
/// Environment variable naming the bootstrap rendezvous address.
pub const ENV_BOOTSTRAP: &str = "PHOTON_BOOTSTRAP";

/// Wire size of a serialized [`RemoteKey`] ([`RemoteKey::to_bytes`]).
const KEY_BYTES: usize = 20;

fn decode_key(b: &[u8]) -> Result<RemoteKey> {
    if b.len() != KEY_BYTES {
        return Err(PhotonError::Protocol("bootstrap: malformed remote-key descriptor"));
    }
    Ok(RemoteKey::from_bytes(b))
}

/// One rank of a multi-process Photon job, joined over the sockets
/// backend. Owns this process's context; the underlying reactor stops when
/// the last [`Arc<Photon>`] goes away.
#[derive(Debug)]
pub struct PhotonProcess {
    photon: Arc<Photon>,
}

impl PhotonProcess {
    /// Join the job rendezvousing at `bootstrap_addr` as `rank`.
    ///
    /// Every rank process must call this concurrently (the rendezvous is
    /// round-synchronous); the call returns once *all* ranks have
    /// exchanged endpoints and descriptors and every connection is live.
    /// `cfg.backend` is ignored — a multi-process join is the sockets
    /// backend by construction.
    pub fn join(bootstrap_addr: &str, rank: Rank, cfg: PhotonConfig) -> Result<PhotonProcess> {
        let (nic, mut bs) = join_job(bootstrap_addr, rank)?;
        let n = bs.n;
        if rank >= n {
            return Err(PhotonError::InvalidRank(rank));
        }
        let nic: Arc<dyn FabricBackend> = nic as _;
        let photon = Arc::new(Photon::init_backend(rank, n, nic, cfg)?);

        // Round 2: per-peer service blocks. Entry j of this rank's payload
        // is the descriptor of the block peer j will write into here; our
        // connection to peer p targets entry `rank` of p's payload.
        let svcs: Vec<_> = (0..n).map(|_| photon.preregister_svc()).collect::<Result<_>>()?;
        let mut payload = Vec::with_capacity(n * KEY_BYTES);
        for svc in &svcs {
            payload.extend_from_slice(&svc.remote_key().to_bytes());
        }
        let matrix = bs.allgather(&payload)?;
        for (p, svc) in svcs.into_iter().enumerate() {
            let row = &matrix[p];
            if row.len() != n * KEY_BYTES {
                return Err(PhotonError::Protocol("bootstrap: short service-key row"));
            }
            let key = decode_key(&row[rank * KEY_BYTES..(rank + 1) * KEY_BYTES])?;
            photon.install_conn(p, svc, key)?;
        }
        Ok(PhotonProcess { photon })
    }

    /// [`PhotonProcess::join`] with rank and rendezvous address taken from
    /// the `photon-launch` environment ([`ENV_RANK`], [`ENV_BOOTSTRAP`];
    /// [`ENV_NRANKS`], when set, is cross-checked against the server).
    pub fn from_env(cfg: PhotonConfig) -> Result<PhotonProcess> {
        let var = |name: &'static str| {
            std::env::var(name).map_err(|_| PhotonError::Config(format!("{name} not set")))
        };
        let rank: Rank = var(ENV_RANK)?
            .parse()
            .map_err(|_| PhotonError::Config(format!("{ENV_RANK} is not a rank")))?;
        let addr = var(ENV_BOOTSTRAP)?;
        let me = Self::join(&addr, rank, cfg)?;
        if let Ok(ns) = std::env::var(ENV_NRANKS) {
            if ns.parse::<usize>() != Ok(me.n()) {
                return Err(PhotonError::Config(format!(
                    "{ENV_NRANKS}={ns} disagrees with the {}-rank bootstrap server",
                    me.n()
                )));
            }
        }
        Ok(me)
    }

    /// This process's Photon context.
    pub fn photon(&self) -> &Arc<Photon> {
        &self.photon
    }

    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.photon.rank()
    }

    /// Job size.
    pub fn n(&self) -> usize {
        self.photon.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_fabric::sock::BootstrapServer;

    /// The full multi-process join protocol, with ranks on threads instead
    /// of processes (same code path end to end: TCP rendezvous, two
    /// allgather rounds, eager connections, real UDP data plane).
    /// `photon-launch` + separate binaries exercise the genuine article.
    #[test]
    fn threaded_join_runs_pwc_and_barrier() {
        let server = BootstrapServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let n = 3;
        let srv = std::thread::spawn(move || server.run(n));
        let ranks: Vec<_> = (0..n)
            .map(|rank| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let me = PhotonProcess::join(&addr, rank, PhotonConfig::default()).unwrap();
                    assert_eq!((me.rank(), me.n()), (rank, n));
                    let p = me.photon();
                    // Descriptor exchange rides the eager send path; the
                    // put lands over a pre-installed connection.
                    let buf = p.register_buffer(256).unwrap();
                    if rank == 1 {
                        p.send(0, &buf.descriptor().to_bytes(), 7).unwrap();
                        let c = p.wait_completion_matching(crate::ProbeFlags::Remote).unwrap();
                        assert_eq!((c.rid, c.peer), (99, 0));
                        assert_eq!(buf.to_vec(0, 5), b"hello");
                    } else if rank == 0 {
                        let c = p.wait_completion_from(1).unwrap();
                        let dst = crate::buffers::BufferDescriptor::from_bytes(&c.payload.unwrap());
                        buf.write_at(0, b"hello");
                        p.put_with_completion(1, &buf, 0, 5, &dst, 0, 7, 99).unwrap();
                        p.wait_local(7).unwrap();
                    }
                    // No window keys were exchanged: the all-to-all rides
                    // the eager path like every other collective.
                    let send: Vec<u8> = (0..n).flat_map(|to| [rank as u8, to as u8]).collect();
                    let mut recv = vec![0u8; 2 * n];
                    p.alltoall(&send, &mut recv).unwrap();
                    let want: Vec<u8> = (0..n).flat_map(|from| [from as u8, rank as u8]).collect();
                    assert_eq!(recv, want);
                    p.barrier().unwrap();
                })
            })
            .collect();
        for r in ranks {
            r.join().unwrap();
        }
        srv.join().unwrap().unwrap();
    }
}
