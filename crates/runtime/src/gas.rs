//! A minimal PGAS layer: a block-distributed global array of `u64`s.
//!
//! Mirrors the global-address-space facility HPX-5 layers over Photon:
//! every rank owns a registered block; any rank reads/writes any element
//! with one-sided Photon operations, no owner involvement.

use crate::runtime::{RtNode, RuntimeCluster};
use crate::{Rank, Result, RtError};
use photon_core::buffers::BufferDescriptor;
use photon_core::PhotonBuffer;
use std::sync::Arc;

/// A global array of `n * elems_per_rank` little-endian `u64`s,
/// block-distributed across ranks.
#[derive(Debug)]
pub struct GlobalArray {
    elems_per_rank: usize,
    locals: Vec<PhotonBuffer>,
    descs: Vec<BufferDescriptor>,
}

impl RuntimeCluster {
    /// Collectively allocate a global array with `elems_per_rank` elements
    /// on every rank (done from the boot thread, like an HPX `gas_alloc` at
    /// startup).
    pub fn alloc_global_array(&self, elems_per_rank: usize) -> Result<Arc<GlobalArray>> {
        let mut locals = Vec::with_capacity(self.len());
        for node in self.nodes() {
            locals.push(node.photon().register_buffer(elems_per_rank * 8)?);
        }
        let descs = locals.iter().map(|b| b.descriptor()).collect();
        Ok(Arc::new(GlobalArray { elems_per_rank, locals, descs }))
    }
}

impl GlobalArray {
    /// Total elements.
    pub fn len(&self) -> usize {
        self.elems_per_rank * self.locals.len()
    }

    /// True for an empty array.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements owned by each rank.
    pub fn elems_per_rank(&self) -> usize {
        self.elems_per_rank
    }

    /// Owner and byte offset of element `idx`.
    pub fn locate(&self, idx: usize) -> (Rank, usize) {
        (idx / self.elems_per_rank, (idx % self.elems_per_rank) * 8)
    }

    fn check(&self, idx: usize) -> Result<()> {
        if idx >= self.len() {
            return Err(RtError::BadParcel("global index out of range"));
        }
        Ok(())
    }

    /// One-sided read of element `idx` from `node`.
    pub fn get(&self, node: &RtNode, idx: usize) -> Result<u64> {
        self.check(idx)?;
        let (owner, off) = self.locate(idx);
        if owner == node.rank() {
            return Ok(self.locals[owner].read_u64(off));
        }
        let p = node.photon();
        p.with_scratch(8, |tmp| {
            let rid = p.internal_rid();
            p.get_with_completion(owner, tmp, 0, 8, &self.descs[owner], off, rid)?;
            p.wait_local(rid)?;
            Ok(tmp.read_u64(0))
        })
    }

    /// One-sided write of element `idx` from `node`; returns after the
    /// source is reusable (remote visibility follows fabric ordering).
    pub fn put(&self, node: &RtNode, idx: usize, v: u64) -> Result<()> {
        self.check(idx)?;
        let (owner, off) = self.locate(idx);
        if owner == node.rank() {
            self.locals[owner].write_u64(off, v);
            return Ok(());
        }
        let p = node.photon();
        p.with_scratch(8, |tmp| {
            tmp.write_u64(0, v);
            let rid = p.internal_rid();
            p.put(owner, tmp, 0, 8, &self.descs[owner], off, rid)?;
            p.wait_local(rid)?;
            Ok(())
        })
    }

    /// Bulk one-sided write (`memput`): store `values` at consecutive
    /// elements starting at `idx`. The span may cross block boundaries;
    /// each owner's stretch is written with one RDMA put.
    pub fn put_slice(&self, node: &RtNode, idx: usize, values: &[u64]) -> Result<()> {
        if values.is_empty() {
            return Ok(());
        }
        self.check(idx)?;
        self.check(idx + values.len() - 1)?;
        let p = node.photon();
        p.with_scratch(values.len() * 8, |tmp| {
            for (k, v) in values.iter().enumerate() {
                tmp.write_u64(k * 8, *v);
            }
            let mut done = 0usize;
            while done < values.len() {
                let (owner, off) = self.locate(idx + done);
                let in_block = (self.elems_per_rank - (idx + done) % self.elems_per_rank)
                    .min(values.len() - done);
                let bytes = in_block * 8;
                if owner == node.rank() {
                    let data = tmp.to_vec(done * 8, bytes);
                    self.locals[owner].write_at(off, &data);
                } else {
                    let rid = p.internal_rid();
                    p.put(owner, tmp, done * 8, bytes, &self.descs[owner], off, rid)?;
                    p.wait_local(rid)?;
                }
                done += in_block;
            }
            Ok(())
        })
    }

    /// Bulk one-sided read (`memget`): load `out.len()` consecutive
    /// elements starting at `idx`.
    pub fn get_slice(&self, node: &RtNode, idx: usize, out: &mut [u64]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        self.check(idx)?;
        self.check(idx + out.len() - 1)?;
        let p = node.photon();
        p.with_scratch(out.len() * 8, |tmp| {
            let mut done = 0usize;
            while done < out.len() {
                let (owner, off) = self.locate(idx + done);
                let in_block = (self.elems_per_rank - (idx + done) % self.elems_per_rank)
                    .min(out.len() - done);
                let bytes = in_block * 8;
                if owner == node.rank() {
                    let data = self.locals[owner].to_vec(off, bytes);
                    tmp.write_at(done * 8, &data);
                } else {
                    let rid = p.internal_rid();
                    p.get_with_completion(
                        owner,
                        tmp,
                        done * 8,
                        bytes,
                        &self.descs[owner],
                        off,
                        rid,
                    )?;
                    p.wait_local(rid)?;
                }
                done += in_block;
            }
            for (k, o) in out.iter_mut().enumerate() {
                *o = tmp.read_u64(k * 8);
            }
            Ok(())
        })
    }

    /// Direct access to the local block of `rank` (owner-side compute).
    pub fn local_block(&self, rank: Rank) -> &PhotonBuffer {
        &self.locals[rank]
    }
}

#[cfg(test)]
mod tests {

    use crate::{ActionRegistry, RtConfig, RuntimeCluster};
    use photon_fabric::{NetworkModel, VTime};

    #[test]
    fn locate_math() {
        let c = RuntimeCluster::new(
            3,
            NetworkModel::ideal(),
            RtConfig::default(),
            ActionRegistry::new(),
        );
        let a = c.alloc_global_array(4).unwrap();
        assert_eq!(a.len(), 12);
        assert_eq!(a.locate(0), (0, 0));
        assert_eq!(a.locate(3), (0, 24));
        assert_eq!(a.locate(4), (1, 0));
        assert_eq!(a.locate(11), (2, 24));
        c.shutdown();
    }

    #[test]
    fn remote_put_get_roundtrip() {
        let c = RuntimeCluster::new(
            2,
            NetworkModel::ib_fdr(),
            RtConfig::default(),
            ActionRegistry::new(),
        );
        let a = c.alloc_global_array(8).unwrap();
        let n0 = c.node(0);
        // Element 10 lives on rank 1; write and read it from rank 0.
        a.put(n0, 10, 777).unwrap();
        assert_eq!(a.get(n0, 10).unwrap(), 777);
        // Owner sees it directly.
        assert_eq!(a.local_block(1).read_u64(2 * 8), 777);
        // Local fast path.
        a.put(n0, 3, 42).unwrap();
        assert_eq!(a.get(n0, 3).unwrap(), 42);
        c.shutdown();
    }

    #[test]
    fn slice_ops_cross_block_boundaries() {
        let c = RuntimeCluster::new(
            3,
            NetworkModel::ib_fdr(),
            RtConfig::default(),
            ActionRegistry::new(),
        );
        let a = c.alloc_global_array(4).unwrap(); // 12 elements over 3 ranks
        let n0 = c.node(0);
        // Write a 7-element stretch spanning ranks 0, 1 and 2.
        let values: Vec<u64> = (100..107).collect();
        a.put_slice(n0, 2, &values).unwrap();
        // Read it back from another rank.
        let n2 = c.node(2);
        let mut out = vec![0u64; 7];
        a.get_slice(n2, 2, &mut out).unwrap();
        assert_eq!(out, values);
        // Owners see their stretches directly.
        assert_eq!(a.local_block(0).read_u64(2 * 8), 100);
        assert_eq!(a.local_block(1).read_u64(0), 102);
        assert_eq!(a.local_block(2).read_u64(0), 106);
        // Bounds are enforced.
        assert!(a.put_slice(n0, 10, &[1, 2, 3]).is_err());
        let mut big = vec![0u64; 13];
        assert!(a.get_slice(n0, 0, &mut big).is_err());
        c.shutdown();
    }

    #[test]
    fn out_of_range_rejected() {
        let c = RuntimeCluster::new(
            1,
            NetworkModel::ideal(),
            RtConfig::default(),
            ActionRegistry::new(),
        );
        let a = c.alloc_global_array(2).unwrap();
        assert!(a.get(c.node(0), 5).is_err());
        c.shutdown();
    }

    #[test]
    fn ops_toward_a_dead_owner_release_their_scratch() {
        let c = RuntimeCluster::new(
            2,
            NetworkModel::ib_fdr(),
            RtConfig::default(),
            ActionRegistry::new(),
        );
        let a = c.alloc_global_array(4).unwrap(); // elements 4..8 live on rank 1
        c.photon().fabric().switch().faults().kill_node_at(1, VTime(0));
        let n0 = c.node(0);
        let mrs = n0.photon().nic().mrs();
        let before = (mrs.region_count(), mrs.registered_bytes());
        assert!(a.get(n0, 5).is_err());
        assert!(a.put(n0, 5, 1).is_err());
        assert!(a.get_slice(n0, 4, &mut [0; 3]).is_err());
        assert!(a.put_slice(n0, 4, &[1, 2, 3]).is_err());
        c.shutdown();
        assert_eq!((mrs.region_count(), mrs.registered_bytes()), before, "scratch leaked");
    }
}
