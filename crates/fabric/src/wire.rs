//! The interconnect: a crossbar switch applying the LogGP model with
//! per-port serialization.
//!
//! Every node owns one full-duplex port, kept in its [`Nic`]. A
//! transfer reserves time on the source's egress register and the
//! destination's ingress register through [`crate::clock::BusyUntil`],
//! which is what makes concurrent flows queue behind each other (incast
//! congestion, bandwidth sharing) instead of each seeing an idle network.

use crate::backend::FabricBackend;
use crate::clock::{BusyUntil, VTime};
use crate::error::{FabricError, Result};
use crate::fault::FaultPlan;
use crate::model::NetworkModel;
use crate::nic::Nic;
use crate::NodeId;
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Size on the wire of a read/atomic request packet (header-only).
pub const REQUEST_BYTES: usize = 32;

/// Optional two-level topology: nodes are grouped into pods of `pod_size`;
/// traffic between pods shares one uplink per pod whose per-byte capacity
/// is `oversubscription`× scarcer than a node port (the classic
/// oversubscribed fat-tree compromise). Intra-pod traffic sees only the
/// node ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodTopology {
    /// Nodes per pod.
    pub pod_size: usize,
    /// How many node-ports' worth of traffic contend for one uplink
    /// (1 = non-blocking, 4 = typical oversubscription).
    pub oversubscription: u64,
    /// Extra one-way latency for crossing the core, nanoseconds.
    pub core_latency_ns: u64,
}

/// Timing of one wire traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the source port began serializing the message.
    pub depart: VTime,
    /// When the source port finished (source buffer reusable).
    pub injected: VTime,
    /// When the last byte arrived at the destination.
    pub deliver: VTime,
}

/// One node's full-duplex switch port: its egress and ingress calendars,
/// and the packets and payload bytes it has sent.
#[derive(Debug, Default)]
pub(crate) struct Port {
    egress: BusyUntil,
    ingress: BusyUntil,
    packets: AtomicU64,
    bytes: AtomicU64,
}

#[derive(Debug, Default)]
struct PodLinks {
    up: BusyUntil,
    down: BusyUntil,
}

/// The cluster-wide switch: owns the NICs (and through them the ports), the
/// network model, and the fault plan.
#[derive(Debug)]
pub struct Switch {
    model: NetworkModel,
    nics: RwLock<Vec<Arc<Nic>>>,
    pods: OnceLock<(PodTopology, Vec<PodLinks>)>,
    faults: Arc<FaultPlan>,
}

impl Switch {
    /// A switch for a cluster using `model`.
    pub fn new(model: NetworkModel) -> Switch {
        Switch {
            model,
            nics: RwLock::new(Vec::new()),
            pods: OnceLock::new(),
            faults: Arc::new(FaultPlan::none()),
        }
    }

    /// Install a two-level pod topology, once per switch. Call before
    /// traffic flows; sizing covers the currently attached nodes.
    pub fn set_topology(&self, topo: PodTopology) {
        assert!(topo.pod_size >= 1 && topo.oversubscription >= 1);
        let n = self.nics.read().len();
        let links = (0..n.div_ceil(topo.pod_size)).map(|_| PodLinks::default()).collect();
        assert!(self.pods.set((topo, links)).is_ok(), "pod topology already installed");
    }

    /// The network model in force.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// The mutable fault plan (perturbations can be added mid-run).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Attach a NIC built by `f`, which receives the assigned node id and
    /// the fault plan it shares with the switch. Called by NIC/cluster
    /// construction; attachment order defines ids.
    pub(crate) fn attach_with(
        &self,
        f: impl FnOnce(NodeId, Arc<FaultPlan>) -> Arc<Nic>,
    ) -> Arc<Nic> {
        let mut nics = self.nics.write();
        let nic = f(nics.len(), Arc::clone(&self.faults));
        nics.push(Arc::clone(&nic));
        nic
    }

    /// The attach table, read-locked: a post holds it for its whole run so
    /// that every leg reaches both NICs without another lookup.
    pub(crate) fn nics(&self) -> RwLockReadGuard<'_, Vec<Arc<Nic>>> {
        self.nics.read()
    }

    /// Number of attached nodes.
    pub fn len(&self) -> usize {
        self.nics.read().len()
    }

    /// True when no nodes are attached.
    pub fn is_empty(&self) -> bool {
        self.nics.read().is_empty()
    }

    /// Look up a NIC by node id.
    pub fn nic(&self, node: NodeId) -> Result<Arc<Nic>> {
        self.nics.read().get(node).cloned().ok_or(FabricError::NoSuchNode { node })
    }

    /// Reserve wire time for `bytes` from `src` to `dst`, with the sender
    /// ready at `ready` (already including injection overhead `o`).
    ///
    /// Loopback (`src == dst`) pays serialization but no wire latency, like
    /// NIC-level loopback on real hardware.
    pub fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready: VTime,
    ) -> Result<Transfer> {
        let nics = self.nics.read();
        let nic = |node| nics.get(node).ok_or(FabricError::NoSuchNode { node });
        self.leg(nic(src)?, nic(dst)?, bytes, ready)
    }

    /// [`Switch::transfer`] between two NICs the caller already holds.
    pub(crate) fn leg(&self, src: &Nic, dst: &Nic, bytes: usize, ready: VTime) -> Result<Transfer> {
        let (s, d) = (src.node(), dst.node());
        // Availability faults reject the packet *before* any port state is
        // reserved, so a failed transfer leaves the calendar untouched.
        // Evaluated at `ready` (the departure lower bound), which keeps
        // windowed partitions deterministic; loopback still fails when the
        // node itself is dead.
        if let Some(node) = self.faults.unreachable_between(s, d, ready) {
            return Err(FabricError::PeerUnreachable { node });
        }
        let hold = self.model.egress_hold_ns(bytes);
        let (depart, injected) = src.port.egress.reserve(ready, hold);
        let mut latency = self.model.latency_ns;
        if !self.faults.is_empty() {
            // Windowed faults key off the departure time, so a chaos
            // schedule installed up front activates deterministically.
            latency += self.faults.extra_latency_at(s, d, depart);
        }
        // Cross-pod traffic additionally serializes on the shared,
        // oversubscribed pod uplinks and pays the core hop.
        let mut ingress_floor = VTime(0);
        if s != d {
            if let Some((topo, links)) = self.pods.get() {
                let (sp_pod, dp_pod) = (s / topo.pod_size, d / topo.pod_size);
                if sp_pod != dp_pod {
                    let shared_hold = hold * topo.oversubscription;
                    let (_, up_end) = links[sp_pod].up.reserve(depart, shared_hold);
                    let (_, down_end) = links[dp_pod].down.reserve(up_end, shared_hold);
                    ingress_floor = down_end;
                    latency += topo.core_latency_ns;
                }
            }
        }
        let deliver = if s == d {
            injected
        } else {
            // The first byte reaches the far port after L; the port then
            // spends the serialization time receiving it. Cross-pod flows
            // cannot start receiving before the core finished forwarding.
            let earliest = (depart + latency).max(ingress_floor);
            let (_, deliver) = dst.port.ingress.reserve(earliest, hold);
            deliver
        };
        src.port.packets.fetch_add(1, Ordering::Relaxed);
        src.port.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        Ok(Transfer { depart, injected, deliver })
    }

    /// Total packets routed (diagnostics): the sum over the node ports.
    pub fn packets_routed(&self) -> u64 {
        self.nics.read().iter().map(|nic| nic.port.packets.load(Ordering::Relaxed)).sum()
    }

    /// Total payload bytes routed (diagnostics): the sum over the node ports.
    pub fn bytes_routed(&self) -> u64 {
        self.nics.read().iter().map(|nic| nic.port.bytes.load(Ordering::Relaxed)).sum()
    }

    /// Run `f` on `node`'s port.
    fn with_port<R>(&self, node: NodeId, f: impl FnOnce(&Port) -> R) -> Result<R> {
        let nics = self.nics.read();
        Ok(f(&nics.get(node).ok_or(FabricError::NoSuchNode { node })?.port))
    }

    /// Egress/ingress utilization of `node`'s port (busy fraction of the
    /// booked horizon): a congestion diagnostic for experiments.
    pub fn port_utilization(&self, node: NodeId) -> Result<(f64, f64)> {
        self.with_port(node, |p| (p.egress.utilization(), p.ingress.utilization()))
    }

    /// Egress/ingress booking horizons of `node`'s port: the virtual times
    /// at which each register is free of all current reservations.
    pub fn port_horizons(&self, node: NodeId) -> Result<(VTime, VTime)> {
        self.with_port(node, |p| (p.egress.horizon(), p.ingress.horizon()))
    }

    /// Latest virtual time booked anywhere on the switch (all node ports and
    /// pod uplinks). A quiesced cluster's clocks never exceed this, so
    /// invariant checkers use it as the snapshot horizon.
    pub fn time_horizon(&self) -> VTime {
        let mut h = VTime::ZERO;
        for nic in self.nics.read().iter() {
            h = h.max(nic.port.egress.horizon()).max(nic.port.ingress.horizon());
        }
        if let Some((_, links)) = self.pods.get() {
            for l in links {
                h = h.max(l.up.horizon()).max(l.down.horizon());
            }
        }
        h
    }

    /// Reset all port serialization registers to idle. Used between
    /// benchmark repetitions together with resetting consumer clocks.
    pub fn reset_time(&self) {
        // A copy of the attach table, so no QP table is read under it: a
        // post takes the two in the other order.
        let nics = self.nics.read().clone();
        for nic in &nics {
            nic.port.egress.reset();
            nic.port.ingress.reset();
            nic.reset_flow_floors();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::DEFAULT_REG_LIMIT;
    use crate::nic::Nic;

    fn switch_with_nodes(n: usize, model: NetworkModel) -> Arc<Switch> {
        let sw = Arc::new(Switch::new(model));
        for _ in 0..n {
            Nic::attach_new(&sw, DEFAULT_REG_LIMIT);
        }
        sw
    }

    #[test]
    fn isolated_transfer_matches_analytic_model() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(2, m);
        let bytes = 4096;
        let t = sw.transfer(0, 1, bytes, VTime(0)).unwrap();
        assert_eq!(t.depart, VTime(0));
        assert_eq!(t.injected, VTime(m.egress_hold_ns(bytes)));
        // Egress serialization is pipelined with the wire: the last byte
        // arrives one hold after the first byte departs plus the latency.
        assert_eq!(t.deliver.as_nanos(), m.latency_ns + m.egress_hold_ns(bytes));
    }

    #[test]
    fn loopback_skips_the_wire() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(1, m);
        let t = sw.transfer(0, 0, 64, VTime(0)).unwrap();
        assert_eq!(t.deliver, t.injected);
    }

    #[test]
    fn back_to_back_messages_serialize_on_egress() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(2, m);
        let t1 = sw.transfer(0, 1, 8, VTime(0)).unwrap();
        let t2 = sw.transfer(0, 1, 8, VTime(0)).unwrap();
        // Small messages are gap-limited: second departs one gap later.
        assert_eq!(t2.depart, t1.injected);
        assert_eq!(t2.depart.as_nanos(), m.msg_gap_ns);
    }

    #[test]
    fn incast_serializes_on_ingress() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(3, m);
        let bytes = 1 << 20;
        let a = sw.transfer(0, 2, bytes, VTime(0)).unwrap();
        let b = sw.transfer(1, 2, bytes, VTime(0)).unwrap();
        // Both senders depart at 0 on their own ports, but node 2's ingress
        // can only receive one megabyte at a time.
        assert_eq!(a.depart, b.depart);
        let hold = m.egress_hold_ns(bytes);
        assert!(b.deliver.as_nanos() >= a.deliver.as_nanos() + hold - 1);
    }

    #[test]
    fn fault_plan_inflates_latency() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(2, m);
        let base = sw.transfer(0, 1, 8, VTime(0)).unwrap();
        sw.faults().degrade_link(0, 1, 10_000);
        sw.reset_time();
        let slow = sw.transfer(0, 1, 8, VTime(0)).unwrap();
        assert_eq!(slow.deliver.as_nanos(), base.deliver.as_nanos() + 10_000);
    }

    #[test]
    fn windowed_fault_activates_by_departure_time() {
        use crate::fault::Window;
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(2, m);
        sw.faults().degrade_link_during(0, 1, 5_000, Window::new(VTime(100_000), VTime(200_000)));
        let before = sw.transfer(0, 1, 8, VTime(0)).unwrap();
        let inside = sw.transfer(0, 1, 8, VTime(150_000)).unwrap();
        let after = sw.transfer(0, 1, 8, VTime(300_000)).unwrap();
        let wire = |t: Transfer| t.deliver.as_nanos() - t.depart.as_nanos();
        assert_eq!(wire(inside), wire(before) + 5_000, "fault active inside window");
        assert_eq!(wire(after), wire(before), "fault expired after window");
        assert_eq!(sw.time_horizon(), VTime(after.deliver.as_nanos()));
        let (eg, ing) = sw.port_horizons(0).unwrap();
        assert_eq!(eg, after.injected);
        assert_eq!(ing, VTime::ZERO, "node 0 received nothing");
    }

    #[test]
    fn unknown_node_is_an_error() {
        let sw = switch_with_nodes(2, NetworkModel::ideal());
        assert!(matches!(sw.transfer(0, 7, 8, VTime(0)), Err(FabricError::NoSuchNode { node: 7 })));
        assert!(sw.nic(9).is_err());
    }

    #[test]
    fn utilization_reflects_streaming() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(2, m);
        // Back-to-back large transfers keep node 0's egress saturated.
        let mut t = VTime(0);
        for _ in 0..8 {
            let tr = sw.transfer(0, 1, 1 << 20, t).unwrap();
            t = tr.injected;
        }
        let (egress, _) = sw.port_utilization(0).unwrap();
        assert!(egress > 0.99, "streaming egress should be ~1.0: {egress}");
        let (idle_egress, ingress) = sw.port_utilization(1).unwrap();
        assert_eq!(idle_egress, 0.0, "node 1 sent nothing");
        assert!(ingress > 0.5, "node 1 received everything: {ingress}");
        assert!(sw.port_utilization(5).is_err());
    }

    #[test]
    fn pod_topology_charges_cross_pod_traffic() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(4, m);
        sw.set_topology(PodTopology { pod_size: 2, oversubscription: 4, core_latency_ns: 300 });
        let bytes = 1 << 20;
        // Intra-pod: unchanged from the flat model.
        let intra = sw.transfer(0, 1, bytes, VTime(0)).unwrap();
        assert_eq!(intra.deliver.as_nanos(), m.latency_ns + m.egress_hold_ns(bytes));
        sw.reset_time();
        // Cross-pod: pays the core hop and the 4x-oversubscribed uplink.
        let cross = sw.transfer(0, 2, bytes, VTime(0)).unwrap();
        let hold = m.egress_hold_ns(bytes);
        // up + down serialization at 4x, then the final ingress hold.
        let expect_floor = 2 * 4 * hold + hold;
        assert!(
            cross.deliver.as_nanos() >= expect_floor,
            "cross-pod must pay the shared links: {} < {expect_floor}",
            cross.deliver.as_nanos()
        );
        assert!(cross.deliver.as_nanos() >= intra.deliver.as_nanos() + 300);
    }

    #[test]
    fn pod_uplink_is_shared_between_flows() {
        let m = NetworkModel::ib_fdr();
        let sw = switch_with_nodes(4, m);
        sw.set_topology(PodTopology { pod_size: 2, oversubscription: 2, core_latency_ns: 0 });
        let bytes = 1 << 20;
        // Two cross-pod flows from DIFFERENT sources in pod 0 contend for
        // the one uplink even though their node ports are disjoint.
        let a = sw.transfer(0, 2, bytes, VTime(0)).unwrap();
        let b = sw.transfer(1, 3, bytes, VTime(0)).unwrap();
        assert_eq!(a.depart, b.depart, "node ports are independent");
        let shared = 2 * m.egress_hold_ns(bytes);
        assert!(
            b.deliver.as_nanos() >= a.deliver.as_nanos() + shared
                || a.deliver.as_nanos() >= b.deliver.as_nanos() + shared,
            "one flow must queue behind the other on the uplink: {a:?} {b:?}"
        );
    }

    #[test]
    fn counters_accumulate() {
        let sw = switch_with_nodes(2, NetworkModel::ideal());
        sw.transfer(0, 1, 100, VTime(0)).unwrap();
        sw.transfer(1, 0, 28, VTime(0)).unwrap();
        assert_eq!(sw.packets_routed(), 2);
        assert_eq!(sw.bytes_routed(), 128);
    }
}
