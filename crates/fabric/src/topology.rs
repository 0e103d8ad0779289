//! Cluster construction: N simulated nodes on one switch.

use crate::backend::FabricBackend;
use crate::endpoint::NicConfig;
use crate::mr::DEFAULT_REG_LIMIT;
use crate::nic::Nic;
use crate::verbs::Qp;
use crate::wire::Switch;
use crate::{NetworkModel, NodeId, Result};
use std::sync::Arc;

/// A simulated cluster: `n` nodes, each with a NIC, attached to one switch.
///
/// This is the in-process stand-in for the multi-node testbed the paper ran
/// on: "ranks" are dense node ids and any number of application threads may
/// drive each node.
#[derive(Debug, Clone)]
pub struct Cluster {
    switch: Arc<Switch>,
    nics: Vec<Arc<Nic>>,
}

impl Cluster {
    /// Build a cluster of `n` nodes over `model`.
    pub fn new(n: usize, model: NetworkModel) -> Cluster {
        Cluster::with_reg_limit(n, model, DEFAULT_REG_LIMIT)
    }

    /// Build a cluster with an explicit per-node registration limit
    /// (fault-injection hook).
    pub fn with_reg_limit(n: usize, model: NetworkModel, reg_limit_bytes: usize) -> Cluster {
        Self::with_config(n, model, NicConfig { reg_limit_bytes, ..NicConfig::default() })
    }

    /// Build a cluster with full per-NIC resource limits.
    pub fn with_config(n: usize, model: NetworkModel, cfg: NicConfig) -> Cluster {
        let switch = Arc::new(Switch::new(model));
        let nics = (0..n).map(|_| Nic::attach_with_config(&switch, cfg)).collect();
        Cluster { switch, nics }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nics.len()
    }

    /// True for a zero-node cluster.
    pub fn is_empty(&self) -> bool {
        self.nics.is_empty()
    }

    /// The shared switch (model, faults, diagnostics).
    pub fn switch(&self) -> &Arc<Switch> {
        &self.switch
    }

    /// NIC of node `i`. Panics if `i` is out of range (construction-time
    /// error, not a runtime condition).
    pub fn nic(&self, i: NodeId) -> &Arc<Nic> {
        &self.nics[i]
    }

    /// Create a connected QP pair between nodes `a` and `b`; returns
    /// `(qp_on_a, qp_on_b)`. Connections are made on demand — there is no
    /// eager all-pairs wiring (the middleware above establishes lazily).
    pub fn connect(&self, a: NodeId, b: NodeId) -> Result<(Qp, Qp)> {
        let qa = self.nics[a].create_qp(b)?;
        let qb = self.nics[b].create_qp(a)?;
        Ok((qa, qb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VTime;
    use crate::mr::Access;
    use crate::verbs::{MrSlice, RemoteSlice, SendWr, WrOp};

    #[test]
    fn cluster_builds_dense_ids() {
        let c = Cluster::new(4, NetworkModel::ideal());
        assert_eq!(c.len(), 4);
        for i in 0..4 {
            assert_eq!(c.nic(i).node(), i);
        }
        assert_eq!(c.switch().len(), 4);
    }

    #[test]
    fn connect_shapes() {
        let c = Cluster::new(3, NetworkModel::ideal());
        let (qa, qb) = c.connect(0, 2).unwrap();
        assert_eq!((qa.node, qa.peer), (0, 2));
        assert_eq!((qb.node, qb.peer), (2, 0));
        // Loopback connections are legal too.
        let (ql, _) = c.connect(1, 1).unwrap();
        assert_eq!((ql.node, ql.peer), (1, 1));
    }

    #[test]
    fn cross_node_put_via_cluster() {
        let c = Cluster::new(2, NetworkModel::ib_fdr());
        let (qa, _qb) = c.connect(0, 1).unwrap();
        let src = c.nic(0).register(8, Access::ALL).unwrap();
        let dst = c.nic(1).register(8, Access::ALL).unwrap();
        src.write_u64(0, 4242);
        c.nic(0)
            .post_send(
                qa,
                SendWr::new(
                    1,
                    WrOp::Write {
                        local: MrSlice::whole(&src),
                        remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                        imm: None,
                    },
                ),
                VTime(0),
            )
            .unwrap();
        assert_eq!(dst.read_u64(0), 4242);
    }

    #[test]
    fn many_threads_drive_distinct_nodes() {
        // One thread per node, everyone puts to the next node in a ring.
        let c = Cluster::new(8, NetworkModel::ib_fdr());
        let qps: Vec<_> = (0..8).map(|i| c.nic(i).create_qp((i + 1) % 8).unwrap()).collect();
        let regions: Vec<_> = (0..8).map(|i| c.nic(i).register(64, Access::ALL).unwrap()).collect();
        let keys: Vec<_> = regions.iter().map(|r| r.remote_key()).collect();
        std::thread::scope(|s| {
            for i in 0..8 {
                let c = &c;
                let qps = &qps;
                let keys = &keys;
                let regions = &regions;
                s.spawn(move || {
                    let next = (i + 1) % 8;
                    let src = &regions[i];
                    src.write_u64(0, i as u64);
                    c.nic(i)
                        .post_send(
                            qps[i],
                            SendWr::new(
                                1,
                                WrOp::Write {
                                    local: MrSlice::new(src, 0, 8),
                                    remote: RemoteSlice::from_key(&keys[next], 8, 8),
                                    imm: None,
                                },
                            ),
                            VTime(0),
                        )
                        .unwrap();
                });
            }
        });
        for (i, region) in regions.iter().enumerate() {
            let prev = (i + 7) % 8;
            assert_eq!(region.read_u64(8), prev as u64);
        }
    }
}
