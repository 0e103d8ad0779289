//! Collective operations built purely from put-with-completion.
//!
//! Photon exposes collectives so runtimes need not layer MPI alongside it:
//! a dissemination **barrier**, binomial-tree **broadcast**, binomial
//! **reduce** + broadcast forming **allreduce**, and a direct-put
//! **all-to-all** ("exchange").  Every primitive is implemented with the
//! same ledgers and eager rings as user traffic, in a reserved completion-id
//! namespace, so collective scaling measurements reflect the middleware's
//! real delivery costs.
//!
//! All ranks must invoke collectives in the same order (the usual
//! communicator discipline); each invocation takes a fresh generation number
//! so back-to-back collectives cannot cross.
//!
//! ```
//! use photon_core::{PhotonCluster, PhotonConfig, ReduceOp};
//! use photon_fabric::NetworkModel;
//!
//! let c = PhotonCluster::new(3, NetworkModel::ib_fdr(), PhotonConfig::default());
//! std::thread::scope(|s| {
//!     for p in c.ranks() {
//!         s.spawn(move || {
//!             let mut v = vec![p.rank() as u64];
//!             p.allreduce_u64(&mut v, ReduceOp::Sum).unwrap();
//!             assert_eq!(v[0], 3); // 0 + 1 + 2
//!             p.barrier().unwrap();
//!         });
//!     }
//! });
//! ```

use crate::obs::Stats;
use crate::probe::rid_space;
use crate::{Photon, PhotonError, Rank, Result};
use std::sync::atomic::Ordering;

const KIND_BARRIER: u8 = 1;
const KIND_BCAST: u8 = 2;
const KIND_REDUCE: u8 = 3;
const KIND_ALLREDUCE_BCAST: u8 = 4;
const KIND_A2A: u8 = 5;
const KIND_A2A_LOCAL: u8 = 6;
const KIND_GATHER: u8 = 7;
const KIND_SCATTER: u8 = 8;

/// Reduction operators over `u64` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise xor.
    Xor,
}

impl ReduceOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Xor => a ^ b,
        }
    }
}

impl Photon {
    fn next_gen(&self) -> u32 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Dissemination barrier: `ceil(log2(n))` rounds of empty PWC messages.
    pub fn barrier(&self) -> Result<()> {
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let gen = self.next_gen();
        let mut dist = 1usize;
        let mut round = 0u8;
        while dist < n {
            let dst = (self.rank() + dist) % n;
            let rid = rid_space::collective(KIND_BARRIER, gen, round);
            self.send_internal(dst, &[], rid, None)?;
            self.wait_coll(rid)?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast of `data` from `root`. Non-roots overwrite
    /// `data` with the received payload (it must have the right length).
    pub fn bcast(&self, root: Rank, data: &mut Vec<u8>) -> Result<()> {
        self.check_rank(root)?;
        let gen = self.next_gen();
        self.bcast_internal(root, data, KIND_BCAST, gen)
    }

    fn bcast_internal(&self, root: Rank, data: &mut Vec<u8>, kind: u8, gen: u32) -> Result<()> {
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let rid = rid_space::collective(kind, gen, 0);
        let vr = (self.rank() + n - root) % n;
        // Receive from the parent (strip the lowest set bit of vr).
        let mut recv_mask = 1usize;
        if vr != 0 {
            while vr & recv_mask == 0 {
                recv_mask <<= 1;
            }
            let (_src, payload, _ts) = self.wait_coll(rid)?;
            *data = payload;
        } else {
            recv_mask = n.next_power_of_two();
        }
        // Forward to children: masks below our receive bit.
        let mut m = recv_mask >> 1;
        while m >= 1 {
            if vr + m < n {
                let child = (vr + m + root) % n;
                self.send_internal(child, data, rid, None)?;
            }
            if m == 1 {
                break;
            }
            m >>= 1;
        }
        Ok(())
    }

    /// Binomial-tree reduction of `data` (element-wise `op`) to rank 0 of
    /// the virtual tree rooted at `root`; only `root` holds the full result
    /// on return.
    pub fn reduce_u64(&self, root: Rank, data: &mut [u64], op: ReduceOp) -> Result<()> {
        self.check_rank(root)?;
        let gen = self.next_gen();
        self.reduce_internal(root, data, op, gen)
    }

    fn reduce_internal(&self, root: Rank, data: &mut [u64], op: ReduceOp, gen: u32) -> Result<()> {
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let vr = (self.rank() + n - root) % n;
        let mut mask = 1usize;
        let mut round = 0u8;
        while mask < n {
            if vr & mask != 0 {
                // Send our partial to the parent and leave the tree.
                let parent = (vr - mask + root) % n;
                let rid = rid_space::collective(KIND_REDUCE, gen, round);
                let bytes = encode_u64s(data);
                self.send_internal(parent, &bytes, rid, None)?;
                return Ok(());
            } else if vr + mask < n {
                let rid = rid_space::collective(KIND_REDUCE, gen, round);
                let (_src, payload, _ts) = self.wait_coll(rid)?;
                let incoming = decode_u64s(&payload);
                if incoming.len() != data.len() {
                    return Err(PhotonError::Protocol("reduce length mismatch"));
                }
                for (d, v) in data.iter_mut().zip(incoming) {
                    *d = op.apply(*d, v);
                }
            }
            mask <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Allreduce: binomial reduce to `root = 0`, then broadcast. All ranks
    /// hold the reduced result on return.
    pub fn allreduce_u64(&self, data: &mut [u64], op: ReduceOp) -> Result<()> {
        let gen = self.next_gen();
        self.reduce_internal(0, data, op, gen)?;
        let mut bytes = encode_u64s(data);
        self.bcast_internal(0, &mut bytes, KIND_ALLREDUCE_BCAST, gen)?;
        let out = decode_u64s(&bytes);
        if out.len() != data.len() {
            return Err(PhotonError::Protocol("allreduce length mismatch"));
        }
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Allreduce over `f64` (element-wise sum only; bit-exact trees).
    pub fn allreduce_f64_sum(&self, data: &mut [f64]) -> Result<()> {
        // Reduce in u64 bit-space is wrong for floats; go via a bytes tree
        // with an f64 combine. Reuse the u64 machinery with transmuted
        // payloads and a dedicated combine pass.
        let gen = self.next_gen();
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let vr = self.rank();
        let mut mask = 1usize;
        let mut round = 0u8;
        let mut done_sending = false;
        while mask < n {
            if vr & mask != 0 {
                let parent = vr - mask;
                let rid = rid_space::collective(KIND_REDUCE, gen, round);
                self.send_internal(parent, &encode_f64s(data), rid, None)?;
                done_sending = true;
                break;
            } else if vr + mask < n {
                let rid = rid_space::collective(KIND_REDUCE, gen, round);
                let (_src, payload, _ts) = self.wait_coll(rid)?;
                let incoming = decode_f64s(&payload);
                if incoming.len() != data.len() {
                    return Err(PhotonError::Protocol("allreduce length mismatch"));
                }
                for (d, v) in data.iter_mut().zip(incoming) {
                    *d += v;
                }
            }
            mask <<= 1;
            round += 1;
        }
        let _ = done_sending;
        let mut bytes = encode_f64s(data);
        self.bcast_internal(0, &mut bytes, KIND_ALLREDUCE_BCAST, gen)?;
        let out = decode_f64s(&bytes);
        data.copy_from_slice(&out);
        Ok(())
    }

    /// All-to-all exchange (`photon exchange`): rank `i`'s `send` block `j`
    /// lands in rank `j`'s `recv` block `i`.  Blocks are `send.len() / n`
    /// bytes and must fit the per-peer collective slot.
    ///
    /// Implemented with direct PWC puts into pre-registered collective
    /// scratch buffers — no barrier; completion counting synchronizes.
    pub fn alltoall(&self, send: &[u8], recv: &mut [u8]) -> Result<()> {
        let n = self.size();
        if send.len() != recv.len() || !send.len().is_multiple_of(n) {
            return Err(PhotonError::Protocol("alltoall buffer sizes must be n * block"));
        }
        let block = send.len() / n;
        if block > self.coll_slot_bytes() {
            return Err(PhotonError::Protocol("alltoall block exceeds collective slot"));
        }
        if n > 255 {
            return Err(PhotonError::Protocol("alltoall supports up to 255 ranks"));
        }
        let me = self.rank();
        if n == 1 {
            recv.copy_from_slice(send);
            return Ok(());
        }
        let gen = self.next_gen();
        let rid = rid_space::collective(KIND_A2A, gen, 0);
        // Stage the send blocks into registered memory.
        self.coll_send_buf().write_at(0, send);
        self.clock.advance(self.copy_ns(send.len()));
        let slot = self.coll_slot_bytes();
        for j in 0..n {
            if j == me {
                continue;
            }
            let dst = self.coll_key(j);
            let local_rid = rid_space::collective(KIND_A2A_LOCAL, gen, j as u8);
            self.put_with_completion(
                j,
                self.coll_send_buf(),
                j * block,
                block,
                &dst,
                me * slot,
                local_rid,
                rid,
            )?;
        }
        // Our own block short-circuits.
        recv[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
        // Wait for everyone's block to land here, then for our injections.
        for _ in 0..n - 1 {
            self.wait_coll(rid)?;
        }
        for j in 0..n {
            if j != me {
                self.wait_local(rid_space::collective(KIND_A2A_LOCAL, gen, j as u8))?;
            }
        }
        // Copy out of the collective landing slots.
        for j in 0..n {
            if j == me {
                continue;
            }
            let data = self.coll_recv_buf().to_vec(j * slot, block);
            recv[j * block..(j + 1) * block].copy_from_slice(&data);
        }
        self.clock.advance(self.copy_ns((n - 1) * block));
        Stats::bump(&self.stats.rendezvous_ops);
        Ok(())
    }
}

impl Photon {
    /// Gather: every rank contributes `block` bytes; `root` receives them
    /// concatenated in rank order (`out` must be `n * block.len()` bytes;
    /// ignored on non-roots).
    pub fn gather(&self, root: Rank, block: &[u8], out: &mut [u8]) -> Result<()> {
        self.check_rank(root)?;
        let n = self.size();
        let gen = self.next_gen();
        let rid = rid_space::collective(KIND_GATHER, gen, 0);
        if self.rank() == root {
            if out.len() != n * block.len() {
                return Err(PhotonError::Protocol("gather output must be n * block"));
            }
            out[root * block.len()..(root + 1) * block.len()].copy_from_slice(block);
            // Collect n-1 contributions; senders are identified per event.
            let mut seen = 0;
            while seen < n - 1 {
                let (src, payload, _ts) = self.wait_coll(rid)?;
                if payload.len() != block.len() {
                    return Err(PhotonError::Protocol("gather block length mismatch"));
                }
                out[src * block.len()..(src + 1) * block.len()].copy_from_slice(&payload);
                seen += 1;
            }
            Ok(())
        } else {
            self.send_internal(root, block, rid, None)
        }
    }

    /// Scatter: `root` holds `n * block_len` bytes; each rank receives its
    /// rank-indexed block into `out`.
    pub fn scatter(&self, root: Rank, data: &[u8], out: &mut [u8]) -> Result<()> {
        self.check_rank(root)?;
        let n = self.size();
        let gen = self.next_gen();
        let rid = rid_space::collective(KIND_SCATTER, gen, 0);
        if self.rank() == root {
            if !data.len().is_multiple_of(n) {
                return Err(PhotonError::Protocol("scatter input must be n * block"));
            }
            let block = data.len() / n;
            if out.len() != block {
                return Err(PhotonError::Protocol("scatter output must be one block"));
            }
            for j in 0..n {
                if j == root {
                    out.copy_from_slice(&data[root * block..(root + 1) * block]);
                } else {
                    self.send_internal(j, &data[j * block..(j + 1) * block], rid, None)?;
                }
            }
            Ok(())
        } else {
            let (_src, payload, _ts) = self.wait_coll(rid)?;
            if payload.len() != out.len() {
                return Err(PhotonError::Protocol("scatter block length mismatch"));
            }
            out.copy_from_slice(&payload);
            Ok(())
        }
    }
}

fn encode_u64s(data: &[u64]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
}

fn encode_f64s(data: &[f64]) -> Vec<u8> {
    data.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhotonCluster, PhotonConfig};
    use photon_fabric::NetworkModel;

    fn run_all(c: &PhotonCluster, f: impl Fn(&Photon) + Sync) {
        std::thread::scope(|s| {
            for p in c.ranks() {
                let f = &f;
                s.spawn(move || f(p));
            }
        });
    }

    #[test]
    fn barrier_all_sizes() {
        for n in [1, 2, 3, 4, 7, 8] {
            let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
            run_all(&c, |p| {
                for _ in 0..3 {
                    p.barrier().unwrap();
                }
            });
        }
    }

    #[test]
    fn barrier_latency_grows_with_rounds() {
        // log2 scaling: an 8-rank barrier takes ~3 rounds, a 2-rank one 1.
        let lat = |n: usize| {
            let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
            run_all(&c, |p| p.barrier().unwrap());
            c.ranks().iter().map(|p| p.now().as_nanos()).max().unwrap()
        };
        let l2 = lat(2);
        let l8 = lat(8);
        assert!(l8 > 2 * l2, "8 ranks ({l8}ns) should be ~3x of 2 ranks ({l2}ns)");
    }

    #[test]
    fn bcast_from_each_root() {
        let n = 5;
        for root in 0..n {
            let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
            run_all(&c, |p| {
                let mut data =
                    if p.rank() == root { b"broadcast payload".to_vec() } else { vec![0u8; 17] };
                p.bcast(root, &mut data).unwrap();
                assert_eq!(data, b"broadcast payload");
            });
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        let n = 6;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            let mut data = vec![p.rank() as u64 + 1, 10 * (p.rank() as u64 + 1)];
            p.reduce_u64(0, &mut data, ReduceOp::Sum).unwrap();
            if p.rank() == 0 {
                assert_eq!(data, vec![21, 210]); // 1+..+6, 10+..+60
            }
        });
    }

    #[test]
    fn allreduce_ops() {
        let n = 4;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            let r = p.rank() as u64;
            let mut sum = vec![r];
            p.allreduce_u64(&mut sum, ReduceOp::Sum).unwrap();
            assert_eq!(sum, vec![1 + 2 + 3]);
            let mut mx = vec![r];
            p.allreduce_u64(&mut mx, ReduceOp::Max).unwrap();
            assert_eq!(mx, vec![3]);
            let mut mn = vec![r + 5];
            p.allreduce_u64(&mut mn, ReduceOp::Min).unwrap();
            assert_eq!(mn, vec![5]);
            let mut xr = vec![1u64 << p.rank()];
            p.allreduce_u64(&mut xr, ReduceOp::Xor).unwrap();
            assert_eq!(xr, vec![0b1111]);
        });
    }

    #[test]
    fn allreduce_f64() {
        let n = 3;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            let mut data = vec![0.5 * (p.rank() as f64 + 1.0), 1.0];
            p.allreduce_f64_sum(&mut data).unwrap();
            assert!((data[0] - 3.0).abs() < 1e-12);
            assert!((data[1] - 3.0).abs() < 1e-12);
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let n = 5;
        for root in [0usize, 3] {
            let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
            run_all(&c, |p| {
                let block = vec![p.rank() as u8; 4];
                let mut out = vec![0u8; if p.rank() == root { n * 4 } else { 0 }];
                p.gather(root, &block, &mut out).unwrap();
                if p.rank() == root {
                    for j in 0..n {
                        assert_eq!(&out[j * 4..(j + 1) * 4], vec![j as u8; 4].as_slice());
                    }
                }
            });
        }
    }

    #[test]
    fn scatter_distributes_blocks() {
        let n = 4;
        let root = 1;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            let data: Vec<u8> = if p.rank() == root {
                (0..n).flat_map(|j| vec![10 + j as u8; 8]).collect()
            } else {
                Vec::new()
            };
            let mut out = vec![0u8; 8];
            p.scatter(root, &data, &mut out).unwrap();
            assert_eq!(out, vec![10 + p.rank() as u8; 8]);
        });
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let n = 3;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            let mine = vec![p.rank() as u8 + 1; 16];
            let mut gathered = vec![0u8; if p.rank() == 0 { n * 16 } else { 0 }];
            p.gather(0, &mine, &mut gathered).unwrap();
            let mut back = vec![0u8; 16];
            p.scatter(0, &gathered, &mut back).unwrap();
            assert_eq!(back, mine, "scatter(gather(x)) == x");
        });
    }

    #[test]
    fn alltoall_exchanges_blocks() {
        let n = 4;
        let block = 8;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            let me = p.rank() as u8;
            // send block j = [i, j, i, j, ...]
            let mut send = vec![0u8; n * block];
            for j in 0..n {
                for k in 0..block {
                    send[j * block + k] = if k % 2 == 0 { me } else { j as u8 };
                }
            }
            let mut recv = vec![0u8; n * block];
            p.alltoall(&send, &mut recv).unwrap();
            for j in 0..n {
                for k in 0..block {
                    let expect = if k % 2 == 0 { j as u8 } else { me };
                    assert_eq!(recv[j * block + k], expect, "rank {me} block {j} byte {k}");
                }
            }
        });
    }

    #[test]
    fn alltoall_rejects_bad_shapes() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        run_all(&c, |p| {
            let send = vec![0u8; 10];
            let mut recv = vec![0u8; 12];
            assert!(matches!(p.alltoall(&send, &mut recv), Err(PhotonError::Protocol(_))));
        });
    }

    #[test]
    fn back_to_back_collectives_do_not_cross() {
        let n = 4;
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        run_all(&c, |p| {
            for round in 0..10u64 {
                let mut v = vec![round + p.rank() as u64];
                p.allreduce_u64(&mut v, ReduceOp::Sum).unwrap();
                assert_eq!(v[0], 4 * round + 6);
                p.barrier().unwrap();
            }
        });
    }
}
