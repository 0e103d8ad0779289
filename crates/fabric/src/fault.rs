//! Fault and perturbation injection.
//!
//! RDMA fabrics are reliable transports, so we do not model silent loss; the
//! faults that matter to middleware are *performance* faults (congested or
//! degraded links, straggler NICs, OS noise), *resource* faults
//! (registration limits, CQ overflow — configured on [`crate::mr::MrTable`]
//! and [`crate::verbs::Cq`] directly), and *availability* faults: a node
//! that crash-stops ([`FaultPlan::kill_node_at`]) or a link partition
//! ([`FaultPlan::partition_during`]).  Performance faults perturb only the
//! virtual-time model and never corrupt data, so protocol invariants must
//! hold under any plan.  Availability faults make transfers fail: the NIC
//! transitions the affected queue pair to the error state and flushes work
//! requests as error completions, exactly like the verbs failure model.
//!
//! Faults can be *windowed* in virtual time: a degradation installed with
//! [`FaultPlan::degrade_link_during`] only charges packets whose departure
//! falls inside its [`Window`].  This is what makes chaos schedules
//! replayable — a test can install its entire fault timeline up front and
//! the packets themselves trigger activation deterministically, with no
//! wall-clock mutation races.

use crate::clock::VTime;
use crate::NodeId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A half-open interval `[from, until)` of virtual time during which a fault
/// is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant at which the fault applies.
    pub from: VTime,
    /// First instant at which the fault no longer applies.
    pub until: VTime,
}

impl Window {
    /// The whole of virtual time (classic always-on fault).
    pub const ALWAYS: Window = Window { from: VTime(0), until: VTime(u64::MAX) };

    /// A window covering `[from, until)`.
    pub fn new(from: VTime, until: VTime) -> Window {
        Window { from, until }
    }

    /// True when `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: VTime) -> bool {
        self.from <= t && t < self.until
    }
}

impl Default for Window {
    fn default() -> Self {
        Window::ALWAYS
    }
}

/// Windowed extra-latency entries: `(extra_ns, active window)`.
type WindowedExtras = Vec<(u64, Window)>;

/// A node's crash/revive timeline: sorted kill instants and revive
/// instants. A node is dead at `t` when its latest kill at or before `t`
/// is not followed by a revive at or before `t` (a revive at the same
/// instant as a kill wins — the node is treated as back up). Each revive
/// starts a new *incarnation*: a rejoined node is a different process
/// generation, and [`FaultPlan::incarnation_at`] lets higher layers tell
/// the generations apart.
#[derive(Debug, Default, Clone)]
struct NodeLife {
    kills: Vec<VTime>,
    revives: Vec<VTime>,
}

impl NodeLife {
    fn dead_at(&self, t: VTime) -> bool {
        let k = self.kills.iter().filter(|&&k| k <= t).max();
        let Some(&k) = k else { return false };
        !self.revives.iter().any(|&r| k <= r && r <= t)
    }

    fn incarnation_at(&self, t: VTime) -> u64 {
        self.revives.iter().filter(|&&r| r <= t).count() as u64
    }
}

/// A performance-fault plan applied by the switch when computing delivery
/// times.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Extra one-way latency per directed link `(src, dst)`, each entry
    /// active during its window, nanoseconds.
    link_extra_ns: RwLock<HashMap<(NodeId, NodeId), WindowedExtras>>,
    /// Extra latency for every packet touching this node (straggler NIC).
    node_extra_ns: RwLock<HashMap<NodeId, Vec<(u64, Window)>>>,
    /// Uniform deterministic jitter bound (0 = disabled), nanoseconds.
    jitter_ns: AtomicU64,
    /// Virtual-time window during which jitter applies.
    jitter_window: RwLock<Window>,
    /// Seed mixed into the jitter hash (reproducible chaos campaigns).
    jitter_seed: AtomicU64,
    /// Sequence counter feeding the jitter hash.
    seq: AtomicU64,
    /// Crash/revive schedule per node: sorted kill times and revive times.
    lives: RwLock<HashMap<NodeId, NodeLife>>,
    /// Symmetric partitions keyed by the normalized `(min, max)` pair; each
    /// entry is active during its window. Entries accumulate like link
    /// degradations.
    partitions: RwLock<HashMap<(NodeId, NodeId), Vec<Window>>>,
    /// Cheap fast-path gate: true once any kill/partition has been
    /// installed, so healthy-path transfers pay one relaxed atomic load.
    disruptions: AtomicBool,
    /// The same gate for every kind of fault: true once anything that can
    /// add latency or refuse a packet has been installed.
    perturbed: AtomicBool,
}

impl FaultPlan {
    /// An empty plan (no perturbation).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add `extra_ns` of latency to every packet on the directed link
    /// `src -> dst`, at all times.
    pub fn degrade_link(&self, src: NodeId, dst: NodeId, extra_ns: u64) {
        self.degrade_link_during(src, dst, extra_ns, Window::ALWAYS);
    }

    /// Add `extra_ns` of latency to packets departing on `src -> dst`
    /// during `window`. Entries accumulate: overlapping windows sum.
    pub fn degrade_link_during(&self, src: NodeId, dst: NodeId, extra_ns: u64, window: Window) {
        self.link_extra_ns.write().entry((src, dst)).or_default().push((extra_ns, window));
        self.perturbed.store(true, Ordering::Release);
    }

    /// Remove every degradation (windowed or not) on `src -> dst`.
    pub fn heal_link(&self, src: NodeId, dst: NodeId) {
        self.link_extra_ns.write().remove(&(src, dst));
    }

    /// Make `node` a straggler: every packet it sends or receives pays
    /// `extra_ns` more, at all times.
    pub fn straggle_node(&self, node: NodeId, extra_ns: u64) {
        self.straggle_node_during(node, extra_ns, Window::ALWAYS);
    }

    /// Straggle `node` during `window` only. Entries accumulate.
    pub fn straggle_node_during(&self, node: NodeId, extra_ns: u64, window: Window) {
        self.node_extra_ns.write().entry(node).or_default().push((extra_ns, window));
        self.perturbed.store(true, Ordering::Release);
    }

    /// Remove every straggler entry for `node`.
    pub fn heal_node(&self, node: NodeId) {
        self.node_extra_ns.write().remove(&node);
    }

    /// Enable deterministic per-packet jitter uniform in `[0, bound_ns)`,
    /// at all times.
    pub fn set_jitter(&self, bound_ns: u64) {
        self.set_jitter_during(bound_ns, Window::ALWAYS);
    }

    /// Enable jitter during `window` only; pass `bound_ns = 0` to disable.
    ///
    /// **Replace semantics, unlike every other windowed fault:** there is a
    /// single jitter setting per plan, so this call *replaces* any previous
    /// bound and window, whereas [`FaultPlan::degrade_link_during`],
    /// [`FaultPlan::straggle_node_during`] and
    /// [`FaultPlan::partition_during`] *accumulate* entries (overlapping
    /// windows sum / both stay active). To model jitter that varies over
    /// time, re-call this at each transition rather than stacking calls.
    pub fn set_jitter_during(&self, bound_ns: u64, window: Window) {
        *self.jitter_window.write() = window;
        self.jitter_ns.store(bound_ns, Ordering::Relaxed);
        if bound_ns > 0 {
            self.perturbed.store(true, Ordering::Release);
        }
    }

    /// Seed the jitter stream. Same seed + same packet sequence ⇒ identical
    /// per-packet jitter, which is what makes chaos campaigns replayable.
    /// Also resets the packet sequence counter.
    pub fn set_jitter_seed(&self, seed: u64) {
        self.jitter_seed.store(seed, Ordering::Relaxed);
        self.seq.store(0, Ordering::Relaxed);
    }

    /// Total extra latency to charge a packet `src -> dst`, evaluated at the
    /// origin of virtual time. Compatibility wrapper over
    /// [`FaultPlan::extra_latency_at`]; windowed entries whose window does
    /// not contain time zero are not charged.
    pub fn extra_latency(&self, src: NodeId, dst: NodeId) -> u64 {
        self.extra_latency_at(src, dst, VTime::ZERO)
    }

    /// Total extra latency to charge a packet departing `src -> dst` at
    /// virtual time `t`. Only entries whose window contains `t` apply.
    pub fn extra_latency_at(&self, src: NodeId, dst: NodeId, t: VTime) -> u64 {
        let mut extra = 0;
        if let Some(entries) = self.link_extra_ns.read().get(&(src, dst)) {
            extra += active_sum(entries, t);
        }
        {
            let nodes = self.node_extra_ns.read();
            if let Some(entries) = nodes.get(&src) {
                extra += active_sum(entries, t);
            }
            if let Some(entries) = nodes.get(&dst) {
                extra += active_sum(entries, t);
            }
        }
        let bound = self.jitter_ns.load(Ordering::Relaxed);
        if bound > 0 && self.jitter_window.read().contains(t) {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let seed = self.jitter_seed.load(Ordering::Relaxed);
            extra += splitmix64(seed ^ seq ^ ((src as u64) << 32) ^ dst as u64) % bound;
        }
        extra
    }

    /// True while nothing has ever been installed in the plan: one atomic
    /// load, for the transfer fast path. Pessimistic, like
    /// [`FaultPlan::has_disruptions`]: healing does not clear it, so a
    /// healed plan answers `false` and its (now empty) lookups run. They
    /// add nothing, and draw no jitter unless jitter is still on.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.perturbed.load(Ordering::Acquire)
    }

    /// Note a kill, revive or partition: the availability gate and the
    /// general one both open.
    fn disrupt(&self) {
        self.disruptions.store(true, Ordering::Release);
        self.perturbed.store(true, Ordering::Release);
    }

    /// Crash-stop `node` at virtual time `at`: every packet departing at or
    /// after `at` that would be sent by, delivered to, or served by the node
    /// fails with [`crate::FabricError::PeerUnreachable`]. Without a
    /// matching [`FaultPlan::revive_node_at`] the crash is permanent, and
    /// the earliest kill time wins if called twice.
    pub fn kill_node_at(&self, node: NodeId, at: VTime) {
        let mut lives = self.lives.write();
        let life = lives.entry(node).or_default();
        life.kills.push(at);
        life.kills.sort_unstable();
        self.disrupt();
    }

    /// Bring `node` back up at virtual time `at` as a **new incarnation**:
    /// packets depart/arrive normally from `at` on (until a later kill),
    /// and [`FaultPlan::incarnation_at`] ticks up so middleware can tell
    /// the rejoined generation from the crashed one. A node can also *join*
    /// late: kill it at `VTime(0)` and revive it at its join time.
    pub fn revive_node_at(&self, node: NodeId, at: VTime) {
        let mut lives = self.lives.write();
        let life = lives.entry(node).or_default();
        life.revives.push(at);
        life.revives.sort_unstable();
        self.disrupt();
    }

    /// The incarnation of `node` at virtual time `t`: 0 for the original
    /// process generation, +1 per revive at or before `t`.
    pub fn incarnation_at(&self, node: NodeId, t: VTime) -> u64 {
        if !self.has_disruptions() {
            return 0;
        }
        self.lives.read().get(&node).map_or(0, |l| l.incarnation_at(t))
    }

    /// Partition the pair `a <-> b` (both directions) during `window`.
    /// Entries accumulate like link degradations; packets whose departure
    /// falls inside any active window fail with
    /// [`crate::FabricError::PeerUnreachable`], and the window heals
    /// deterministically when virtual time passes `window.until`.
    pub fn partition_during(&self, a: NodeId, b: NodeId, window: Window) {
        let key = (a.min(b), a.max(b));
        self.partitions.write().entry(key).or_default().push(window);
        self.disrupt();
    }

    /// Remove every partition window for the pair `a <-> b`.
    pub fn heal_partition(&self, a: NodeId, b: NodeId) {
        self.partitions.write().remove(&(a.min(b), a.max(b)));
    }

    /// True once any kill or partition has been installed (one relaxed
    /// atomic load; pessimistic — healing does not clear it).
    #[inline]
    pub fn has_disruptions(&self) -> bool {
        self.disruptions.load(Ordering::Acquire)
    }

    /// True when `node` is dead at virtual time `t`.
    pub fn node_dead_at(&self, node: NodeId, t: VTime) -> bool {
        if !self.has_disruptions() {
            return false;
        }
        self.lives.read().get(&node).is_some_and(|l| l.dead_at(t))
    }

    /// True when the pair `a <-> b` is inside an active partition window at
    /// virtual time `t`.
    pub fn partitioned_at(&self, a: NodeId, b: NodeId, t: VTime) -> bool {
        if !self.has_disruptions() {
            return false;
        }
        self.partitions
            .read()
            .get(&(a.min(b), a.max(b)))
            .is_some_and(|ws| ws.iter().any(|w| w.contains(t)))
    }

    /// If a packet `src -> dst` departing at `t` cannot be delivered,
    /// the node to blame (the dead node, or `dst` for a partition).
    pub fn unreachable_between(&self, src: NodeId, dst: NodeId, t: VTime) -> Option<NodeId> {
        if !self.has_disruptions() {
            return None;
        }
        if self.node_dead_at(src, t) {
            Some(src)
        } else if self.node_dead_at(dst, t) || self.partitioned_at(src, dst, t) {
            Some(dst)
        } else {
            None
        }
    }
}

/// Sum of entries active at `t`.
fn active_sum(entries: &[(u64, Window)], t: VTime) -> u64 {
    entries.iter().filter(|(_, w)| w.contains(t)).map(|(e, _)| e).sum()
}

/// SplitMix64: deterministic 64-bit mixer for jitter generation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_free() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.extra_latency(0, 1), 0);
    }

    #[test]
    fn link_degradation_is_directional() {
        let p = FaultPlan::none();
        p.degrade_link(0, 1, 500);
        assert_eq!(p.extra_latency(0, 1), 500);
        assert_eq!(p.extra_latency(1, 0), 0);
        p.heal_link(0, 1);
        assert_eq!(p.extra_latency(0, 1), 0);
    }

    #[test]
    fn straggler_charges_both_directions() {
        let p = FaultPlan::none();
        p.straggle_node(2, 100);
        assert_eq!(p.extra_latency(2, 5), 100);
        assert_eq!(p.extra_latency(5, 2), 100);
        assert_eq!(p.extra_latency(3, 4), 0);
        // Degradations compose.
        p.degrade_link(2, 5, 50);
        assert_eq!(p.extra_latency(2, 5), 150);
        p.heal_node(2);
        assert_eq!(p.extra_latency(2, 5), 50);
    }

    #[test]
    fn windowed_faults_activate_by_departure_time() {
        let p = FaultPlan::none();
        p.degrade_link_during(0, 1, 700, Window::new(VTime(1_000), VTime(2_000)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(999)), 0);
        assert_eq!(p.extra_latency_at(0, 1, VTime(1_000)), 700, "from is inclusive");
        assert_eq!(p.extra_latency_at(0, 1, VTime(1_999)), 700);
        assert_eq!(p.extra_latency_at(0, 1, VTime(2_000)), 0, "until is exclusive");
        // Overlapping windows sum; disjoint ones apply alone.
        p.degrade_link_during(0, 1, 40, Window::new(VTime(1_500), VTime(3_000)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(1_700)), 740);
        assert_eq!(p.extra_latency_at(0, 1, VTime(2_500)), 40);
        // Node windows behave the same way.
        p.straggle_node_during(1, 5, Window::new(VTime(0), VTime(100)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(50)), 5);
        assert_eq!(p.extra_latency_at(0, 1, VTime(100)), 0);
    }

    #[test]
    fn jitter_bounded_and_nonconstant() {
        let p = FaultPlan::none();
        p.set_jitter(64);
        assert!(!p.is_empty());
        let samples: Vec<u64> = (0..256).map(|_| p.extra_latency(0, 1)).collect();
        assert!(samples.iter().all(|&s| s < 64));
        assert!(samples.iter().any(|&s| s != samples[0]), "jitter should vary");
    }

    #[test]
    fn jitter_stream_is_seed_reproducible() {
        let draw = |seed: u64| -> Vec<u64> {
            let p = FaultPlan::none();
            p.set_jitter(1_000);
            p.set_jitter_seed(seed);
            (0..64).map(|i| p.extra_latency_at(i % 3, 1 + i % 2, VTime(0))).collect()
        };
        assert_eq!(draw(42), draw(42), "same seed, same stream");
        assert_ne!(draw(42), draw(43), "different seed, different stream");
        // Re-seeding mid-run restarts the sequence.
        let p = FaultPlan::none();
        p.set_jitter(1_000);
        p.set_jitter_seed(7);
        let first: Vec<u64> = (0..8).map(|_| p.extra_latency(0, 1)).collect();
        p.set_jitter_seed(7);
        let again: Vec<u64> = (0..8).map(|_| p.extra_latency(0, 1)).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn windowed_jitter_only_fires_inside_window() {
        let p = FaultPlan::none();
        p.set_jitter_during(1_000_000, Window::new(VTime(500), VTime(600)));
        p.set_jitter_seed(1);
        assert_eq!(p.extra_latency_at(0, 1, VTime(499)), 0);
        assert_eq!(p.extra_latency_at(0, 1, VTime(600)), 0);
        let inside: Vec<u64> = (0..32).map(|_| p.extra_latency_at(0, 1, VTime(550))).collect();
        assert!(inside.iter().any(|&s| s > 0), "jitter active inside window");
    }

    #[test]
    fn splitmix_spreads() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff, b & 0xffff);
    }

    #[test]
    fn set_jitter_during_replaces_previous_window() {
        // Regression: unlike link/node entries, which accumulate, the jitter
        // setting is single-valued — a second call REPLACES the first window
        // and bound entirely.
        let p = FaultPlan::none();
        p.set_jitter_seed(3);
        p.set_jitter_during(1_000_000, Window::new(VTime(0), VTime(100)));
        let early: Vec<u64> = (0..32).map(|_| p.extra_latency_at(0, 1, VTime(50))).collect();
        assert!(early.iter().any(|&s| s > 0), "first window active");
        // Replace with a later window: the first window must stop applying.
        p.set_jitter_during(1_000_000, Window::new(VTime(200), VTime(300)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(50)), 0, "old window replaced, not summed");
        let late: Vec<u64> = (0..32).map(|_| p.extra_latency_at(0, 1, VTime(250))).collect();
        assert!(late.iter().any(|&s| s > 0), "new window active");
        // Replacing with bound 0 disables jitter outright.
        p.set_jitter_during(0, Window::new(VTime(200), VTime(300)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(250)), 0);
    }

    #[test]
    fn kill_node_is_permanent_and_earliest_wins() {
        let p = FaultPlan::none();
        assert!(!p.has_disruptions());
        assert!(!p.node_dead_at(2, VTime(u64::MAX)));
        p.kill_node_at(2, VTime(1_000));
        assert!(p.has_disruptions());
        assert!(!p.is_empty());
        assert!(!p.node_dead_at(2, VTime(999)));
        assert!(p.node_dead_at(2, VTime(1_000)), "kill instant is inclusive");
        assert!(p.node_dead_at(2, VTime(u64::MAX)), "crash-stop never heals");
        assert!(!p.node_dead_at(3, VTime(2_000)), "other nodes unaffected");
        // A later kill time does not postpone death.
        p.kill_node_at(2, VTime(5_000));
        assert!(p.node_dead_at(2, VTime(1_000)));
        // An earlier one advances it.
        p.kill_node_at(2, VTime(500));
        assert!(p.node_dead_at(2, VTime(500)));
        assert_eq!(p.unreachable_between(2, 0, VTime(600)), Some(2), "dead source blamed");
        assert_eq!(p.unreachable_between(0, 2, VTime(600)), Some(2), "dead destination blamed");
        assert_eq!(p.unreachable_between(0, 1, VTime(600)), None);
    }

    #[test]
    fn revive_opens_a_new_incarnation() {
        let p = FaultPlan::none();
        p.kill_node_at(3, VTime(1_000));
        p.revive_node_at(3, VTime(5_000));
        assert!(!p.node_dead_at(3, VTime(999)));
        assert!(p.node_dead_at(3, VTime(1_000)));
        assert!(p.node_dead_at(3, VTime(4_999)));
        assert!(!p.node_dead_at(3, VTime(5_000)), "revive instant is inclusive");
        assert!(!p.node_dead_at(3, VTime(u64::MAX)));
        assert_eq!(p.incarnation_at(3, VTime(0)), 0);
        assert_eq!(p.incarnation_at(3, VTime(4_999)), 0);
        assert_eq!(p.incarnation_at(3, VTime(5_000)), 1, "rejoin is a new generation");
        // A second kill re-kills the new incarnation.
        p.kill_node_at(3, VTime(9_000));
        assert!(!p.node_dead_at(3, VTime(8_999)));
        assert!(p.node_dead_at(3, VTime(9_000)));
        p.revive_node_at(3, VTime(9_500));
        assert_eq!(p.incarnation_at(3, VTime(9_500)), 2);
        assert!(!p.node_dead_at(3, VTime(9_500)));
        // Reachability blame follows the windows.
        assert_eq!(p.unreachable_between(0, 3, VTime(2_000)), Some(3));
        assert_eq!(p.unreachable_between(0, 3, VTime(6_000)), None);
    }

    #[test]
    fn late_join_is_kill_at_zero_plus_revive() {
        let p = FaultPlan::none();
        p.kill_node_at(7, VTime(0));
        p.revive_node_at(7, VTime(40_000));
        assert!(p.node_dead_at(7, VTime(0)));
        assert!(p.node_dead_at(7, VTime(39_999)));
        assert!(!p.node_dead_at(7, VTime(40_000)), "joined");
        assert_eq!(p.incarnation_at(7, VTime(40_000)), 1);
        assert_eq!(p.incarnation_at(7, VTime(0)), 0);
    }

    #[test]
    fn partition_is_symmetric_windowed_and_accumulates() {
        let p = FaultPlan::none();
        p.partition_during(1, 4, Window::new(VTime(100), VTime(200)));
        assert!(p.has_disruptions());
        assert!(!p.partitioned_at(1, 4, VTime(99)));
        assert!(p.partitioned_at(1, 4, VTime(100)));
        assert!(p.partitioned_at(4, 1, VTime(150)), "partition cuts both directions");
        assert!(!p.partitioned_at(1, 4, VTime(200)), "window heals deterministically");
        assert!(!p.partitioned_at(1, 3, VTime(150)), "other pairs unaffected");
        // Entries accumulate: a second window extends the outage.
        p.partition_during(4, 1, Window::new(VTime(300), VTime(400)));
        assert!(p.partitioned_at(1, 4, VTime(350)));
        assert!(!p.partitioned_at(1, 4, VTime(250)), "gap between windows is healthy");
        assert_eq!(p.unreachable_between(1, 4, VTime(150)), Some(4));
        assert_eq!(p.unreachable_between(4, 1, VTime(150)), Some(1));
        assert_eq!(p.unreachable_between(1, 4, VTime(250)), None);
        p.heal_partition(1, 4);
        assert!(!p.partitioned_at(1, 4, VTime(350)));
    }

    #[test]
    fn window_edges_under_adjacency() {
        // Adjacent windows [a,b) and [b,c): at exactly b only the second
        // applies — no double charge, no gap.
        let p = FaultPlan::none();
        p.degrade_link_during(0, 1, 10, Window::new(VTime(0), VTime(100)));
        p.degrade_link_during(0, 1, 25, Window::new(VTime(100), VTime(200)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(99)), 10);
        assert_eq!(p.extra_latency_at(0, 1, VTime(100)), 25);
        assert_eq!(p.extra_latency_at(0, 1, VTime(199)), 25);
        assert_eq!(p.extra_latency_at(0, 1, VTime(200)), 0);
        // Degenerate empty window [t, t) never applies.
        p.degrade_link_during(0, 1, 1_000, Window::new(VTime(50), VTime(50)));
        assert_eq!(p.extra_latency_at(0, 1, VTime(50)), 10);
    }

    #[test]
    fn healed_plan_charges_what_an_untouched_one_does() {
        let probe = |p: &FaultPlan| -> Vec<u64> {
            let mut out = Vec::new();
            for (src, dst) in [(0, 1), (1, 0), (1, 2), (2, 2)] {
                for t in [0, 99, 1_000, u64::MAX - 1] {
                    out.push(p.extra_latency_at(src, dst, VTime(t)));
                }
            }
            out
        };
        let p = FaultPlan::none();
        let before = probe(&p);
        assert!(p.is_empty());
        p.degrade_link(0, 1, 500);
        p.heal_link(0, 1);
        p.straggle_node(1, 100);
        p.heal_node(1);
        p.set_jitter(1_000);
        p.set_jitter(0);
        p.partition_during(0, 1, Window::ALWAYS);
        p.heal_partition(0, 1);
        assert!(!p.is_empty(), "the gate is pessimistic: healing leaves it open");
        assert_eq!(probe(&p), before, "a healed plan adds no latency");
        assert_eq!(p.unreachable_between(0, 1, VTime(0)), None);
    }

    #[test]
    fn opening_the_gate_draws_no_jitter() {
        use crate::mr::DEFAULT_REG_LIMIT;
        use crate::wire::Switch;
        use crate::{NetworkModel, Nic};
        use std::sync::Arc;
        // The same seeded packet sequence through two switches; on the
        // second a degrade/heal pair on an unused link opens the gate before
        // jitter is on and again while it is. Every delivery time must match.
        let run = |interleave: bool| {
            let sw = Arc::new(Switch::new(NetworkModel::ib_fdr()));
            for _ in 0..3 {
                Nic::attach_new(&sw, DEFAULT_REG_LIMIT);
            }
            let f = sw.faults();
            f.set_jitter_seed(11);
            let mut delivered = Vec::new();
            let mut send = |n: u64| {
                for i in 0..n {
                    let t = sw.transfer((i % 2) as usize, 1 - (i % 2) as usize, 8, VTime(i * 50));
                    delivered.push(t.unwrap().deliver);
                }
            };
            if interleave {
                f.degrade_link(2, 0, 9_000);
                f.heal_link(2, 0);
            }
            send(16);
            f.set_jitter(400);
            send(16);
            if interleave {
                f.straggle_node(2, 9_000);
                f.heal_node(2);
            }
            send(16);
            delivered
        };
        assert_eq!(run(true), run(false));
    }

    proptest::proptest! {
        /// `active_sum` over arbitrary overlapping/adjacent windows equals a
        /// brute-force filter-and-sum at every probed instant, including the
        /// exact window edges.
        #[test]
        fn active_sum_matches_brute_force(
            entries in proptest::collection::vec((1u64..1_000, 0u64..500, 0u64..500), 0..16),
            probes in proptest::collection::vec(0u64..1_100, 1..32),
        ) {
            let entries: Vec<(u64, Window)> = entries
                .into_iter()
                .map(|(extra, from, len)| (extra, Window::new(VTime(from), VTime(from + len))))
                .collect();
            // Probe random instants plus every edge of every window.
            let mut at: Vec<u64> = probes;
            for (_, w) in &entries {
                at.extend([w.from.0, w.from.0.saturating_sub(1), w.until.0, w.until.0 + 1]);
            }
            for t in at {
                let brute: u64 = entries
                    .iter()
                    .filter(|(_, w)| w.from.0 <= t && t < w.until.0)
                    .map(|(e, _)| e)
                    .sum();
                proptest::prop_assert_eq!(active_sum(&entries, VTime(t)), brute);
            }
        }
    }
}
