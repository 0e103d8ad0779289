//! The deterministic schedule executor.
//!
//! Drives every rank of a [`Schedule`] from **one** thread, using only the
//! middleware's non-blocking entry points (`try_put_with_completion`,
//! `try_send`, `try_post_recv_buffer`, `poll_completion`, …) in a fixed
//! round-robin sweep. The simulated fabric applies RDMA effects
//! synchronously at post time, so with the interleaving pinned the whole
//! run — traces, stats, verdicts — is a pure function of the schedule.
//!
//! Collectives are built *in the harness* (a dissemination barrier over
//! plain sends) rather than through the middleware's blocking collective
//! API, which would need one thread per rank and forfeit determinism.
//!
//! A sweep that makes no state transition can never make one later (there
//! is no background progress in a synchronous fabric), so livelock is
//! detected after a handful of idle sweeps and reported with per-rank
//! diagnostics — including the credit checkers, since lost credit returns
//! are the classic cause of protocol livelock.

use crate::checkers::{self, RankTally, Violations};
use crate::schedule::{Op, Schedule, SimParams};
use crate::{fnv1a, splitmix64};
use photon_core::{
    Completion, CompletionClass, PeerHealthState, Photon, PhotonBuffer, PhotonCluster,
    PhotonConfig, PhotonError, ProbeFlags, PutManyItem, StatsSnapshot,
};
use photon_fabric::{Cluster, FabricError, NicConfig, VTime};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Base of the data-op rid range (well below the reserved namespace).
const RID_OP_BASE: u64 = 0x0100_0000;
/// Barrier rids: `RID_BARRIER | (barrier << 16) | (round << 8) | src`.
const RID_BARRIER: u64 = 0x2000_0000;
/// Parcel rids: `RID_PARCEL + sequence`.
const RID_PARCEL: u64 = 0x4000_0000;
/// Batched-put item rids: `RID_MANY | (op << 8) | (2*item [+1])` — the low
/// bit distinguishes local (even) from remote (odd), as in the plain range.
const RID_MANY: u64 = 0x0800_0000;

fn many_local_rid(op: usize, item: usize) -> u64 {
    RID_MANY | ((op as u64) << 8) | (2 * item as u64)
}

fn many_remote_rid(op: usize, item: usize) -> u64 {
    RID_MANY | ((op as u64) << 8) | (2 * item as u64 + 1)
}

/// Idle full sweeps before declaring the case stuck.
const IDLE_SWEEP_LIMIT: u32 = 8;
/// Hard cap on sweeps (backstop against pathological schedules).
const SWEEP_HARD_CAP: u64 = 2_000_000;

/// Outcome of one executed case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Campaign seed.
    pub seed: u64,
    /// Case index.
    pub case_id: u64,
    /// Invariant violations (empty ⇒ pass).
    pub violations: Vec<String>,
    /// FNV-1a digest of traces + stats + verdicts: the determinism witness.
    pub digest: u64,
    /// Round-robin sweeps executed.
    pub sweeps: u64,
    /// Ops that resolved as *expected* error completions (peer death or
    /// partition explained by the schedule's chaos plan). Zero on
    /// crash-free schedules.
    pub resolved_err: u64,
    /// Per-rank middleware stats at quiescence.
    pub stats: Vec<StatsSnapshot>,
    /// Per-rank trace CSVs (virtual-time ordered); empty when tracing off.
    pub trace_csv: Vec<String>,
    /// Chrome trace_event JSON of the op-lifecycle spans across all ranks.
    /// Deliberately **excluded** from `digest`: the witness predates spans
    /// and must stay byte-stable across observability changes.
    pub span_json: String,
}

impl CaseReport {
    /// The report of a driver that keeps no traces, stats or spans: its
    /// verdict plus the FNV-1a digest of `digest_src`, the stable facts the
    /// driver chose to pin. `sweeps` and `resolved_err` start at zero.
    pub fn verdict(seed: u64, case_id: u64, violations: Violations, digest_src: &str) -> Self {
        CaseReport {
            seed,
            case_id,
            violations: violations.into_items(),
            digest: fnv1a(digest_src.as_bytes()),
            sweeps: 0,
            resolved_err: 0,
            stats: Vec::new(),
            trace_csv: Vec::new(),
            span_json: String::new(),
        }
    }

    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Generate and execute the case `(seed, case_id)` under `params`.
pub fn run_case(seed: u64, case_id: u64, params: &SimParams) -> CaseReport {
    run_schedule(&Schedule::generate(seed, case_id, params))
}

/// Execute an explicit schedule (shrinker entry point). Tracing on.
pub fn run_schedule(sched: &Schedule) -> CaseReport {
    run_schedule_cfg(sched, |_| {})
}

/// Execute a schedule with a configuration override applied on top of the
/// schedule's own config — the mutation-testing hook (e.g. enable
/// `skip_credit_return_interval` and assert the checkers object).
pub fn run_schedule_cfg(sched: &Schedule, mutate: impl FnOnce(&mut PhotonConfig)) -> CaseReport {
    let mut cfg = sched.cfg;
    mutate(&mut cfg);
    Executor::new(sched, cfg).run()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The op's initiating side (sender for rendezvous).
    Init,
    /// The announcing/receiving side of a rendezvous pair.
    RdvRecv,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QItem {
    op: usize,
    role: Role,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SndState {
    WaitDesc,
    WaitPut,
    SendFin,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RcvState {
    Announce,
    WaitFin,
    Done,
}

#[derive(Debug)]
struct OpRun {
    op: Op,
    local_rid: u64,
    remote_rid: u64,
    /// (rank, offset) of the pre-filled source slice, for ops that have one.
    tx: (usize, usize),
    /// (rank, offset) of the landing slice.
    rx: (usize, usize),
    posted: bool,
    local_done: bool,
    remote_done: bool,
    /// Resolved as an expected error completion (chaos-explained peer
    /// death): terminal for every leg, exempt from duplicate/payload
    /// checks on stragglers from legs that ran before the failure.
    failed: bool,
    /// Batched puts: items posted so far / completion bitmasks per side.
    many_posted: usize,
    many_local: u32,
    many_remote: u32,
    snd: SndState,
    rcv: RcvState,
    /// Per-op registered landing buffer in registration-churn mode.
    churn_buf: Option<PhotonBuffer>,
    expected_sum: u64,
}

impl OpRun {
    fn done(&self) -> bool {
        if self.failed {
            return true;
        }
        match self.op {
            Op::Send { .. } => self.posted && self.remote_done,
            Op::PutEager { .. } | Op::PutDirect { .. } => {
                self.posted && self.local_done && self.remote_done
            }
            Op::PutMany { count, .. } => {
                self.posted
                    && self.many_local.count_ones() as usize >= count
                    && self.many_remote.count_ones() as usize >= count
            }
            Op::Get { .. } => self.posted && self.local_done,
            Op::Rendezvous { .. } => self.snd == SndState::Done && self.rcv == RcvState::Done,
            Op::Barrier | Op::ParcelTree { .. } | Op::CrashNode { .. } | Op::Partition { .. } => {
                unreachable!("not a data op")
            }
            // RPC schedules dispatch to the threaded rpc driver, never here.
            Op::RpcCall { .. } => unreachable!("rpc ops never enter the executor"),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct BarRank {
    round: u8,
    send_posted: bool,
    recv_mask: u32,
    done: bool,
}

#[derive(Debug)]
struct BarrierRun {
    rounds: u8,
    per_rank: Vec<BarRank>,
}

#[derive(Debug)]
struct TreeRun {
    expected: u64,
    delivered: u64,
}

#[derive(Debug, Clone, Copy)]
struct Parcel {
    tree: u16,
    ttl: u8,
    fanout: u8,
    seed: u64,
    dst: usize,
}

const PARCEL_FILLER: usize = 16;
const PARCEL_LEN: usize = 12 + PARCEL_FILLER;

fn parcel_payload(p: &Parcel) -> Vec<u8> {
    let mut v = Vec::with_capacity(PARCEL_LEN);
    v.extend_from_slice(&p.tree.to_le_bytes());
    v.push(p.ttl);
    v.push(p.fanout);
    v.extend_from_slice(&p.seed.to_le_bytes());
    for k in 0..PARCEL_FILLER {
        v.push((splitmix64(p.seed ^ (0x1000 + k as u64)) >> 16) as u8);
    }
    v
}

/// The error shapes a post or wait toward a crashed or partition-evicted
/// peer legitimately resolves with.
fn is_death_error(e: &PhotonError) -> bool {
    matches!(
        e,
        PhotonError::PeerDead(_)
            | PhotonError::OpFailed { .. }
            | PhotonError::Fabric(FabricError::PeerUnreachable { .. })
    )
}

struct Executor<'a> {
    sched: &'a Schedule,
    cluster: PhotonCluster,
    tx_arena: Vec<PhotonBuffer>,
    rx_arena: Vec<PhotonBuffer>,
    ops: Vec<OpRun>,
    queues: Vec<Vec<QItem>>,
    next: Vec<usize>,
    active: Vec<Vec<QItem>>,
    in_barrier: Vec<Option<usize>>,
    barriers: Vec<BarrierRun>,
    bar_of_op: HashMap<usize, usize>,
    trees: Vec<TreeRun>,
    tree_of_op: HashMap<usize, usize>,
    outbox: Vec<VecDeque<Parcel>>,
    parcel_seq: u64,
    local_map: HashMap<u64, usize>,
    remote_map: HashMap<u64, usize>,
    tally: Vec<RankTally>,
    last_now: Vec<VTime>,
    violations: Violations,
    progressed: bool,
    sweeps: u64,
    /// Kill time per node from the schedule's `CrashNode` ops.
    crashed: Vec<Option<u64>>,
    /// `(a, b, from_ns, until_ns)` from the schedule's `Partition` ops.
    partitions: Vec<(usize, usize, u64, u64)>,
    /// Sorted virtual-time fault boundaries (kill instants, partition
    /// edges). When a sweep idles while an edge is still ahead of some
    /// rank's clock, the executor elapses virtual time across it — the
    /// single-threaded analogue of "everyone waits until the fault bites".
    edges: Vec<u64>,
    next_edge: usize,
    resolved_err: u64,
}

impl<'a> Executor<'a> {
    fn new(sched: &'a Schedule, cfg: PhotonConfig) -> Executor<'a> {
        let n = sched.nodes;
        let fabric = Cluster::with_config(
            n,
            sched.network_model(),
            NicConfig { cq_depth: sched.cq_depth, ..NicConfig::default() },
        );
        let cluster = PhotonCluster::with_fabric(fabric, cfg);
        sched.install_faults(cluster.fabric().switch().faults());
        for p in cluster.ranks() {
            p.tracer().enable();
            p.obs().enable();
        }

        // ---- materialize ops, queues, rid maps, arena layout -------------
        let mut ops = Vec::with_capacity(sched.ops.len());
        let mut queues = vec![Vec::new(); n];
        let mut barriers = Vec::new();
        let mut bar_of_op = HashMap::new();
        let mut trees = Vec::new();
        let mut tree_of_op = HashMap::new();
        let mut local_map = HashMap::new();
        let mut remote_map = HashMap::new();
        let mut tx_off = vec![0usize; n];
        let mut rx_off = vec![0usize; n];
        let mut crashed: Vec<Option<u64>> = vec![None; n];
        let mut partitions: Vec<(usize, usize, u64, u64)> = Vec::new();
        let align = |x: usize| (x + 7) & !7;

        for (i, &op) in sched.ops.iter().enumerate() {
            let local_rid = RID_OP_BASE + 2 * i as u64;
            let remote_rid = RID_OP_BASE + 2 * i as u64 + 1;
            let mut run = OpRun {
                op,
                local_rid,
                remote_rid,
                tx: (usize::MAX, 0),
                rx: (usize::MAX, 0),
                posted: false,
                local_done: false,
                remote_done: false,
                failed: false,
                many_posted: 0,
                many_local: 0,
                many_remote: 0,
                snd: SndState::WaitDesc,
                rcv: RcvState::Announce,
                churn_buf: None,
                expected_sum: 0,
            };
            match op {
                Op::Send { src, dst, len } => {
                    let payload: Vec<u8> = (0..len).map(|k| sched.fill_byte(i, k)).collect();
                    run.expected_sum = fnv1a(&payload);
                    remote_map.insert(remote_rid, i);
                    queues[src].push(QItem { op: i, role: Role::Init });
                    let _ = dst;
                }
                Op::PutEager { src, dst, len } | Op::PutDirect { src, dst, len } => {
                    run.tx = (src, tx_off[src]);
                    tx_off[src] += align(len);
                    run.rx = (dst, rx_off[dst]);
                    rx_off[dst] += align(len);
                    local_map.insert(local_rid, i);
                    remote_map.insert(remote_rid, i);
                    queues[src].push(QItem { op: i, role: Role::Init });
                }
                Op::PutMany { src, dst, len, count } => {
                    run.tx = (src, tx_off[src]);
                    tx_off[src] += count * align(len);
                    run.rx = (dst, rx_off[dst]);
                    rx_off[dst] += count * align(len);
                    for j in 0..count {
                        local_map.insert(many_local_rid(i, j), i);
                        remote_map.insert(many_remote_rid(i, j), i);
                    }
                    queues[src].push(QItem { op: i, role: Role::Init });
                }
                Op::Get { src, dst, len } => {
                    run.tx = (dst, tx_off[dst]);
                    tx_off[dst] += align(len);
                    run.rx = (src, rx_off[src]);
                    rx_off[src] += align(len);
                    local_map.insert(local_rid, i);
                    queues[src].push(QItem { op: i, role: Role::Init });
                }
                Op::Rendezvous { src, dst, len, .. } => {
                    run.tx = (src, tx_off[src]);
                    tx_off[src] += align(len);
                    if !sched.reg_churn {
                        run.rx = (dst, rx_off[dst]);
                        rx_off[dst] += align(len);
                    }
                    local_map.insert(local_rid, i);
                    queues[src].push(QItem { op: i, role: Role::Init });
                    queues[dst].push(QItem { op: i, role: Role::RdvRecv });
                }
                Op::Barrier => {
                    let rounds = n.next_power_of_two().trailing_zeros() as u8;
                    let rounds = if (1usize << rounds) < n { rounds + 1 } else { rounds };
                    bar_of_op.insert(i, barriers.len());
                    barriers.push(BarrierRun { rounds, per_rank: vec![BarRank::default(); n] });
                    for q in queues.iter_mut() {
                        q.push(QItem { op: i, role: Role::Init });
                    }
                }
                Op::CrashNode { node, at_ns } => {
                    // The fault plan has it already; a node is dead from its
                    // earliest kill if the generator names it twice.
                    crashed[node] = Some(crashed[node].map_or(at_ns, |t| t.min(at_ns)));
                }
                Op::Partition { a, b, from_ns, until_ns } => {
                    partitions.push((a, b, from_ns, until_ns));
                }
                Op::ParcelTree { root, fanout, ttl } => {
                    // deliveries(t) = 1 + fanout * deliveries(t-1); the root
                    // itself issues `fanout` initial parcels.
                    let mut per = 1u64;
                    for _ in 0..ttl {
                        per = 1 + fanout as u64 * per;
                    }
                    tree_of_op.insert(i, trees.len());
                    trees.push(TreeRun { expected: fanout as u64 * per, delivered: 0 });
                    queues[root].push(QItem { op: i, role: Role::Init });
                }
                // RPC schedules dispatch to the threaded rpc driver
                // (campaign routing keeps them out of the executor).
                Op::RpcCall { .. } => unreachable!("rpc ops never enter the executor"),
            }
            ops.push(run);
        }

        let mut edges: Vec<u64> = crashed.iter().flatten().copied().collect();
        for &(_, _, from_ns, until_ns) in &partitions {
            edges.push(from_ns);
            edges.push(until_ns);
        }
        edges.sort_unstable();
        edges.dedup();

        let tx_arena: Vec<PhotonBuffer> = (0..n)
            .map(|r| cluster.rank(r).register_buffer(tx_off[r].max(8)).expect("register tx arena"))
            .collect();
        let rx_arena: Vec<PhotonBuffer> = (0..n)
            .map(|r| cluster.rank(r).register_buffer(rx_off[r].max(8)).expect("register rx arena"))
            .collect();

        // Pre-fill every source slice with its op's pattern.
        for (i, run) in ops.iter().enumerate() {
            if let Op::PutMany { len, count, .. } = run.op {
                let (r, off) = run.tx;
                for j in 0..count {
                    let bytes: Vec<u8> =
                        (0..len).map(|k| sched.fill_byte(i, j * len + k)).collect();
                    tx_arena[r].write_at(off + j * align(len), &bytes);
                }
                continue;
            }
            let len = match run.op {
                Op::PutEager { len, .. }
                | Op::PutDirect { len, .. }
                | Op::Get { len, .. }
                | Op::Rendezvous { len, .. } => len,
                _ => continue,
            };
            let (r, off) = run.tx;
            let bytes: Vec<u8> = (0..len).map(|k| sched.fill_byte(i, k)).collect();
            tx_arena[r].write_at(off, &bytes);
        }

        Executor {
            sched,
            cluster,
            tx_arena,
            rx_arena,
            ops,
            queues,
            next: vec![0; n],
            active: vec![Vec::new(); n],
            in_barrier: vec![None; n],
            barriers,
            bar_of_op,
            trees,
            tree_of_op,
            outbox: vec![VecDeque::new(); n],
            parcel_seq: 0,
            local_map,
            remote_map,
            tally: vec![RankTally::default(); n],
            last_now: vec![VTime(0); n],
            violations: Violations::default(),
            progressed: false,
            sweeps: 0,
            crashed,
            partitions,
            edges,
            next_edge: 0,
            resolved_err: 0,
        }
    }

    fn has_chaos(&self) -> bool {
        !self.edges.is_empty()
    }

    fn run(mut self) -> CaseReport {
        let n = self.sched.nodes;
        let mut idle: u32 = 0;
        while !self.all_done() {
            self.progressed = false;
            for r in 0..n {
                self.drive(r);
            }
            self.sweeps += 1;
            idle = if self.progressed { 0 } else { idle + 1 };
            if idle > 2 && self.nudge_clocks() {
                idle = 0;
            }
            if idle > IDLE_SWEEP_LIMIT || self.sweeps > SWEEP_HARD_CAP {
                self.report_stuck();
                break;
            }
        }
        // Drain stragglers (late CQEs, duplicate/unexpected events show up
        // here as routing violations).
        for _ in 0..4 {
            for r in 0..n {
                self.pump(r, 16);
            }
        }
        self.finish()
    }

    fn all_done(&self) -> bool {
        self.next.iter().enumerate().all(|(r, &nx)| nx == self.queues[r].len())
            && self.active.iter().all(|a| a.is_empty())
            && self.outbox.iter().all(|o| o.is_empty())
    }

    /// Idle with a fault boundary still ahead: elapse every rank's virtual
    /// clock across the next kill/partition edge. Virtual time only moves
    /// when someone moves it, so a schedule whose remaining work is gated
    /// on a fault activating (or healing) needs the harness to let time
    /// pass — exactly what a real run blocked on a dead peer experiences.
    /// Returns true when any clock moved.
    fn nudge_clocks(&mut self) -> bool {
        while self.next_edge < self.edges.len() {
            // +2 ns clears the boundary itself plus the half-open window
            // edge, so the next health-gate check sees the new regime.
            let target = self.edges[self.next_edge] + 2;
            self.next_edge += 1;
            let mut moved = false;
            for p in self.cluster.ranks() {
                let now = p.now().as_nanos();
                if now < target {
                    p.elapse(target - now);
                    moved = true;
                }
            }
            if moved {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------- driving

    fn drive(&mut self, r: usize) {
        self.activate(r);
        self.advance_active(r);
        self.drain_outbox(r);
        self.pump(r, 4);
        let now = self.cluster.rank(r).now();
        if now < self.last_now[r] {
            self.violations.push(format!(
                "rank {r}: virtual clock moved backwards ({} -> {})",
                self.last_now[r].as_nanos(),
                now.as_nanos()
            ));
        } else if now > self.last_now[r] {
            // Clock movement is progress: reconnection probes of a Suspect
            // peer advance virtual time without any op-state transition,
            // and a windowed partition heals only because they do.
            self.progressed = true;
        }
        self.last_now[r] = now;
    }

    fn activate(&mut self, r: usize) {
        while self.in_barrier[r].is_none() && self.next[r] < self.queues[r].len() {
            let item = self.queues[r][self.next[r]];
            let is_barrier = matches!(self.sched.ops[item.op], Op::Barrier);
            if is_barrier {
                if !self.active[r].is_empty() {
                    return;
                }
                self.in_barrier[r] = Some(self.bar_of_op[&item.op]);
            } else {
                if self.active[r].len() >= self.sched.window {
                    return;
                }
                if let Op::ParcelTree { fanout, ttl, .. } = self.sched.ops[item.op] {
                    let tree = self.tree_of_op[&item.op] as u16;
                    for c in 0..fanout {
                        let seed = splitmix64(
                            self.sched.seed
                                ^ self.sched.case_id.rotate_left(17)
                                ^ ((item.op as u64) << 20)
                                ^ (c as u64 + 1),
                        );
                        let dst = self.pick_parcel_dst(r, seed);
                        self.outbox[r].push_back(Parcel { tree, ttl, fanout, seed, dst });
                    }
                }
                if item.role == Role::RdvRecv && self.sched.reg_churn {
                    if let Op::Rendezvous { len, .. } = self.sched.ops[item.op] {
                        match self.cluster.rank(r).register_buffer(len.max(8)) {
                            Ok(b) => self.ops[item.op].churn_buf = Some(b),
                            Err(e) => self
                                .violations
                                .push(format!("rank {r}: churn registration failed: {e}")),
                        }
                    }
                }
            }
            self.active[r].push(item);
            self.next[r] += 1;
            self.progressed = true;
            if is_barrier {
                return;
            }
        }
    }

    fn advance_active(&mut self, r: usize) {
        let items: Vec<QItem> = self.active[r].clone();
        let mut finished: Vec<QItem> = Vec::new();
        for item in items {
            if self.advance_item(r, item) {
                finished.push(item);
            }
        }
        if !finished.is_empty() {
            self.progressed = true;
            self.active[r].retain(|it| !finished.contains(it));
        }
    }

    /// Drive one item one step; true when its role at rank `r` is complete.
    fn advance_item(&mut self, r: usize, item: QItem) -> bool {
        let i = item.op;
        match self.sched.ops[i] {
            Op::Send { dst, len, .. } => {
                if !self.ops[i].posted {
                    let payload: Vec<u8> = (0..len).map(|k| self.sched.fill_byte(i, k)).collect();
                    match self.cluster.rank(r).try_send(dst, &payload, self.ops[i].remote_rid) {
                        Ok(true) => {
                            self.ops[i].posted = true;
                            self.tally[r].sends += 1;
                            self.progressed = true;
                        }
                        Ok(false) => {}
                        Err(e) => self.op_error(i, r, "send post failed", e),
                    }
                }
                self.ops[i].done()
            }
            Op::PutEager { dst, len, .. } | Op::PutDirect { dst, len, .. } => {
                if !self.ops[i].posted {
                    let (txr, txo) = self.ops[i].tx;
                    let (rxr, rxo) = self.ops[i].rx;
                    let dd = self.rx_arena[rxr].descriptor_at(rxo, len).expect("rx slice");
                    debug_assert_eq!(txr, r);
                    debug_assert_eq!(rxr, dst);
                    match self.cluster.rank(r).try_put_with_completion(
                        dst,
                        &self.tx_arena[txr],
                        txo,
                        len,
                        &dd,
                        0,
                        self.ops[i].local_rid,
                        self.ops[i].remote_rid,
                    ) {
                        Ok(true) => {
                            self.ops[i].posted = true;
                            if matches!(self.sched.ops[i], Op::PutEager { .. }) {
                                self.tally[r].puts_eager += 1;
                            } else {
                                self.tally[r].puts_direct += 1;
                            }
                            self.progressed = true;
                        }
                        Ok(false) => {}
                        Err(e) => self.op_error(i, r, "pwc post failed", e),
                    }
                }
                self.ops[i].done()
            }
            Op::PutMany { dst, len, count, .. } => {
                if !self.ops[i].posted {
                    let (txr, txo) = self.ops[i].tx;
                    let (rxr, rxo) = self.ops[i].rx;
                    let span = (len + 7) & !7;
                    let dd =
                        self.rx_arena[rxr].descriptor_at(rxo, count * span).expect("rx run slice");
                    debug_assert_eq!(txr, r);
                    debug_assert_eq!(rxr, dst);
                    let items: Vec<PutManyItem> = (self.ops[i].many_posted..count)
                        .map(|j| PutManyItem {
                            loff: txo + j * span,
                            len,
                            doff: j * span,
                            local_rid: many_local_rid(i, j),
                            remote_rid: many_remote_rid(i, j),
                        })
                        .collect();
                    match self.cluster.rank(r).try_put_many(dst, &self.tx_arena[txr], &dd, &items) {
                        Ok(0) => {}
                        Ok(n) => {
                            self.ops[i].many_posted += n;
                            self.tally[r].puts_eager += n as u64;
                            self.progressed = true;
                            if self.ops[i].many_posted == count {
                                self.ops[i].posted = true;
                            }
                        }
                        Err(e) => self.op_error(i, r, "put_many post failed", e),
                    }
                }
                self.ops[i].done()
            }
            Op::Get { dst, len, .. } => {
                if !self.ops[i].posted {
                    let (txr, txo) = self.ops[i].tx;
                    let (rxr, rxo) = self.ops[i].rx;
                    let sd = self.tx_arena[txr].descriptor_at(txo, len).expect("src slice");
                    debug_assert_eq!(rxr, r);
                    match self.cluster.rank(r).get_with_completion(
                        dst,
                        &self.rx_arena[rxr],
                        rxo,
                        len,
                        &sd,
                        0,
                        self.ops[i].local_rid,
                    ) {
                        Ok(()) => {
                            self.ops[i].posted = true;
                            self.tally[r].gets += 1;
                            self.progressed = true;
                        }
                        Err(e) => self.op_error(i, r, "get post failed", e),
                    }
                }
                self.ops[i].done()
            }
            Op::Rendezvous { src, dst, len, tag } => match item.role {
                Role::Init => self.advance_rdv_sender(r, i, dst, len, tag),
                Role::RdvRecv => self.advance_rdv_receiver(r, i, src, len, tag),
            },
            Op::Barrier => self.advance_barrier(r, i),
            Op::ParcelTree { .. } => {
                let t = self.tree_of_op[&i];
                let (delivered, expected) = (self.trees[t].delivered, self.trees[t].expected);
                if delivered > expected {
                    self.fail_op(
                        i,
                        r,
                        format!("parcel tree over-delivered: {delivered} > expected {expected}"),
                    );
                }
                delivered >= expected
            }
            Op::CrashNode { .. } | Op::Partition { .. } => {
                unreachable!("chaos ops configure the fault plan; they are never queued")
            }
            Op::RpcCall { .. } => unreachable!("rpc ops never enter the executor"),
        }
    }

    fn advance_rdv_sender(&mut self, r: usize, i: usize, dst: usize, len: usize, tag: u64) -> bool {
        let p = self.cluster.rank(r).clone();
        match self.ops[i].snd {
            SndState::WaitDesc => match p.try_wait_send_buffer(dst, tag) {
                Ok(Some(desc)) => {
                    if len > desc.len {
                        self.fail_op(
                            i,
                            r,
                            format!("rdv descriptor too small: {} < {len}", desc.len),
                        );
                        self.ops[i].snd = SndState::Done;
                        return true;
                    }
                    let (txr, txo) = self.ops[i].tx;
                    match p.put(dst, &self.tx_arena[txr], txo, len, &desc, 0, self.ops[i].local_rid)
                    {
                        Ok(()) => {
                            self.ops[i].snd = SndState::WaitPut;
                            // Plain puts share the middleware's puts_direct
                            // counter.
                            self.tally[r].puts_direct += 1;
                            self.progressed = true;
                        }
                        Err(e) => {
                            // Both outcomes of op_error are terminal: the
                            // chaos-resolution and fail_op paths each mark
                            // every leg done.
                            self.op_error(i, r, "rdv put failed", e);
                            return true;
                        }
                    }
                }
                Ok(None) => {
                    if self.rdv_peer_dead(i, r, dst, &p) {
                        return true;
                    }
                }
                Err(e) => {
                    self.op_error(i, r, "rdv wait_send_buffer failed", e);
                    return true;
                }
            },
            SndState::WaitPut => {
                // Completion arrives through the event router (local_done).
                if self.ops[i].local_done {
                    self.ops[i].snd = SndState::SendFin;
                    self.progressed = true;
                }
            }
            SndState::SendFin => match p.try_send_fin(dst, tag) {
                Ok(true) => {
                    self.ops[i].snd = SndState::Done;
                    self.progressed = true;
                }
                Ok(false) => {}
                Err(e) => {
                    self.op_error(i, r, "rdv fin failed", e);
                }
            },
            SndState::Done => {}
        }
        self.ops[i].snd == SndState::Done
    }

    fn advance_rdv_receiver(
        &mut self,
        r: usize,
        i: usize,
        src: usize,
        len: usize,
        tag: u64,
    ) -> bool {
        let p = self.cluster.rank(r).clone();
        match self.ops[i].rcv {
            RcvState::Announce => {
                let res = if let Some(b) = &self.ops[i].churn_buf {
                    p.try_post_recv_buffer(src, b, 0, len, tag)
                } else {
                    let (rxr, rxo) = self.ops[i].rx;
                    debug_assert_eq!(rxr, r);
                    p.try_post_recv_buffer(src, &self.rx_arena[rxr], rxo, len, tag)
                };
                match res {
                    Ok(true) => {
                        self.ops[i].rcv = RcvState::WaitFin;
                        self.progressed = true;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        self.op_error(i, r, "rdv announce failed", e);
                    }
                }
            }
            RcvState::WaitFin => match p.try_wait_fin(src, tag) {
                Ok(Some(_ts)) => {
                    let got = if let Some(b) = &self.ops[i].churn_buf {
                        b.to_vec(0, len)
                    } else {
                        let (rxr, rxo) = self.ops[i].rx;
                        self.rx_arena[rxr].to_vec(rxo, len)
                    };
                    self.verify_payload(i, r, &got, "rendezvous payload");
                    if let Some(b) = self.ops[i].churn_buf.take() {
                        if let Err(e) = p.release_buffer(&b) {
                            self.violations.push(format!("rank {r}: churn release failed: {e}"));
                        }
                    }
                    self.ops[i].rcv = RcvState::Done;
                    self.progressed = true;
                }
                Ok(None) => {
                    if self.rdv_peer_dead(i, r, src, &p) {
                        return true;
                    }
                }
                Err(e) => {
                    self.op_error(i, r, "rdv wait_fin failed", e);
                }
            },
            RcvState::Done => {}
        }
        self.ops[i].rcv == RcvState::Done
    }

    fn advance_barrier(&mut self, r: usize, op_idx: usize) -> bool {
        let b = self.bar_of_op[&op_idx];
        let n = self.sched.nodes;
        let rounds = self.barriers[b].rounds;
        let mut st = self.barriers[b].per_rank[r].clone();
        if st.done {
            return true;
        }
        if st.round >= rounds {
            st.done = true;
        } else {
            if !st.send_posted {
                let partner = (r + (1 << st.round)) % n;
                let rid = RID_BARRIER | ((b as u64) << 16) | ((st.round as u64) << 8) | r as u64;
                match self.cluster.rank(r).try_send(partner, b"bar", rid) {
                    Ok(true) => {
                        st.send_posted = true;
                        self.tally[r].sends += 1;
                        self.progressed = true;
                    }
                    Ok(false) => {}
                    Err(e) => self
                        .violations
                        .push(format!("rank {r}: barrier {b} round {} send failed: {e}", st.round)),
                }
            }
            if st.send_posted && st.recv_mask & (1 << st.round) != 0 {
                st.round += 1;
                st.send_posted = false;
                self.progressed = true;
                if st.round >= rounds {
                    st.done = true;
                }
            }
        }
        let done = st.done;
        self.barriers[b].per_rank[r] = st;
        if done {
            self.in_barrier[r] = None;
        }
        done
    }

    fn drain_outbox(&mut self, r: usize) {
        for _ in 0..4 {
            let Some(parcel) = self.outbox[r].front().copied() else { break };
            let payload = parcel_payload(&parcel);
            let rid = RID_PARCEL + self.parcel_seq;
            match self.cluster.rank(r).try_send(parcel.dst, &payload, rid) {
                Ok(true) => {
                    self.outbox[r].pop_front();
                    self.parcel_seq += 1;
                    self.tally[r].sends += 1;
                    self.progressed = true;
                }
                Ok(false) => break,
                Err(e) => {
                    self.violations.push(format!("rank {r}: parcel send failed: {e}"));
                    self.outbox[r].pop_front();
                }
            }
        }
    }

    fn pick_parcel_dst(&self, me: usize, seed: u64) -> usize {
        let n = self.sched.nodes;
        let mut d = (splitmix64(seed ^ 0xD5) % (n as u64 - 1)) as usize;
        if d >= me {
            d += 1;
        }
        d
    }

    // ------------------------------------------------------------- routing

    fn pump(&mut self, r: usize, max: usize) {
        // Batch drain through the same poll_completions API the runtime's
        // poll turn uses, so chaos schedules exercise the batch path;
        // each event still routes through the invariant checkers
        // individually.
        let p = self.cluster.rank(r).clone();
        let mut events: Vec<Completion> = Vec::with_capacity(max.min(64));
        match p.poll_completions(ProbeFlags::Any, &mut events, max) {
            Ok(0) => {}
            Ok(_) => {
                self.progressed = true;
                for ev in events {
                    self.route(r, ev);
                }
            }
            Err(e) => {
                if self.has_chaos() && is_death_error(&e) {
                    // Progress discovering a dead peer inline (e.g. a
                    // failed credit-return write) — detection, not a bug.
                } else {
                    self.violations.push(format!("rank {r}: probe failed: {e}"));
                }
            }
        }
    }

    fn route(&mut self, r: usize, ev: Completion) {
        match ev.class {
            CompletionClass::Local => {
                let Completion { rid, status, .. } = ev;
                self.tally[r].local_events += 1;
                if !status.is_ok() {
                    // An error completion: a work request flushed by the
                    // health machine's eviction (or errored mid-transfer).
                    // Legitimate exactly when the chaos plan explains it —
                    // and it *resolves* the rid, which is the whole
                    // contract: error completion, never a silent hang.
                    let mapped =
                        self.local_map.get(&rid).or_else(|| self.remote_map.get(&rid)).copied();
                    match mapped {
                        Some(i) if self.death_may_explain(i) => self.resolve_op_err(i),
                        Some(i) => self.violations.push(format!(
                            "rank {r}: unexpected error completion for op {i} rid {rid:#x}: {status}"
                        )),
                        None => self.violations.push(format!(
                            "rank {r}: error completion for unknown rid {rid:#x}: {status}"
                        )),
                    }
                    return;
                }
                let Some(&i) = self.local_map.get(&rid) else {
                    self.violations.push(format!("rank {r}: unknown local rid {rid:#x}"));
                    return;
                };
                if self.ops[i].failed {
                    // Straggler from a leg that ran before the op resolved
                    // in error (e.g. an already-posted batch item).
                    return;
                }
                if matches!(self.sched.ops[i], Op::PutMany { .. }) {
                    let bit = 1u32 << ((rid & 0xFF) >> 1);
                    if self.ops[i].many_local & bit != 0 {
                        self.violations.push(format!(
                            "rank {r}: duplicate local completion for batched op {i} rid {rid:#x}"
                        ));
                        return;
                    }
                    self.ops[i].many_local |= bit;
                    return;
                }
                if self.ops[i].local_done {
                    self.violations.push(format!(
                        "rank {r}: duplicate local completion for op {i} rid {rid:#x}"
                    ));
                    return;
                }
                self.ops[i].local_done = true;
                if let Op::Get { len, .. } = self.sched.ops[i] {
                    let (rxr, rxo) = self.ops[i].rx;
                    let got = self.rx_arena[rxr].to_vec(rxo, len);
                    self.verify_payload(i, r, &got, "get payload");
                }
            }
            CompletionClass::Remote => {
                let rev = ev;
                self.tally[r].remote_events += 1;
                let rid = rev.rid;
                if !rev.status.is_ok() {
                    match self.remote_map.get(&rid).copied() {
                        Some(i) if self.death_may_explain(i) => self.resolve_op_err(i),
                        Some(i) => self.violations.push(format!(
                            "rank {r}: unexpected remote error completion for op {i} rid {rid:#x}: {}",
                            rev.status
                        )),
                        None => self.violations.push(format!(
                            "rank {r}: remote error completion for unknown rid {rid:#x}: {}",
                            rev.status
                        )),
                    }
                    return;
                }
                if rid & RID_PARCEL != 0 && rid & RID_BARRIER == 0 {
                    self.route_parcel(r, &rev);
                } else if rid & RID_BARRIER != 0 {
                    self.route_barrier(r, rid, rev.peer);
                } else if let Some(&i) = self.remote_map.get(&rid) {
                    if self.ops[i].failed {
                        return; // straggler from a pre-failure leg
                    }
                    if let Op::PutMany { len, .. } = self.sched.ops[i] {
                        self.route_many_remote(r, i, rid, len);
                        return;
                    }
                    if self.ops[i].remote_done {
                        self.violations.push(format!(
                            "rank {r}: duplicate remote completion for op {i} rid {rid:#x}"
                        ));
                        return;
                    }
                    self.ops[i].remote_done = true;
                    match self.sched.ops[i] {
                        Op::Send { len, .. } => {
                            let Some(payload) = rev.payload.as_deref() else {
                                self.fail_op(i, r, "send delivered without payload".into());
                                return;
                            };
                            if payload.len() != len || fnv1a(payload) != self.ops[i].expected_sum {
                                self.fail_op(
                                    i,
                                    r,
                                    format!(
                                        "send payload corrupt: len {} sum {:#x} != expected len {len} sum {:#x}",
                                        payload.len(),
                                        fnv1a(payload),
                                        self.ops[i].expected_sum
                                    ),
                                );
                            }
                        }
                        Op::PutEager { len, .. } | Op::PutDirect { len, .. } => {
                            let (rxr, rxo) = self.ops[i].rx;
                            debug_assert_eq!(rxr, r);
                            let got = self.rx_arena[rxr].to_vec(rxo, len);
                            self.verify_payload(i, r, &got, "put payload");
                        }
                        _ => {}
                    }
                } else {
                    self.violations.push(format!("rank {r}: unknown remote rid {rid:#x}"));
                }
            }
        }
    }

    /// One item of a batched put completed at the target: mark its bit and
    /// verify the landed bytes independently of its batch-mates.
    fn route_many_remote(&mut self, r: usize, i: usize, rid: u64, len: usize) {
        let j = ((rid & 0xFF) >> 1) as usize;
        let bit = 1u32 << j;
        if self.ops[i].many_remote & bit != 0 {
            self.violations.push(format!(
                "rank {r}: duplicate remote completion for batched op {i} rid {rid:#x}"
            ));
            return;
        }
        self.ops[i].many_remote |= bit;
        let span = (len + 7) & !7;
        let (rxr, rxo) = self.ops[i].rx;
        debug_assert_eq!(rxr, r);
        let got = self.rx_arena[rxr].to_vec(rxo + j * span, len);
        let want: Vec<u8> = (0..len).map(|k| self.sched.fill_byte(i, j * len + k)).collect();
        if fnv1a(&got) != fnv1a(&want) {
            self.fail_op(i, r, format!("put_many item {j} payload corrupt"));
        }
    }

    fn route_barrier(&mut self, r: usize, rid: u64, src: usize) {
        let b = ((rid >> 16) & 0xFFF) as usize;
        let round = ((rid >> 8) & 0xFF) as u8;
        let claimed_src = (rid & 0xFF) as usize;
        if b >= self.barriers.len() {
            self.violations.push(format!("rank {r}: barrier rid {rid:#x} out of range"));
            return;
        }
        let n = self.sched.nodes;
        let expected_src = (r + n - ((1usize << round) % n)) % n;
        if src != expected_src || claimed_src != src {
            self.violations.push(format!(
                "rank {r}: barrier {b} round {round} arrival from {src} (claimed {claimed_src}), expected {expected_src}"
            ));
            return;
        }
        let st = &mut self.barriers[b].per_rank[r];
        if st.recv_mask & (1 << round) != 0 {
            self.violations
                .push(format!("rank {r}: duplicate barrier arrival b={b} round={round}"));
            return;
        }
        st.recv_mask |= 1 << round;
    }

    fn route_parcel(&mut self, r: usize, rev: &Completion) {
        let Some(payload) = rev.payload.as_deref() else {
            self.violations.push(format!("rank {r}: parcel without payload"));
            return;
        };
        if payload.len() != PARCEL_LEN {
            self.violations.push(format!("rank {r}: parcel truncated to {} bytes", payload.len()));
            return;
        }
        let tree = u16::from_le_bytes([payload[0], payload[1]]);
        let ttl = payload[2];
        let fanout = payload[3];
        let seed = u64::from_le_bytes(payload[4..12].try_into().expect("seed bytes"));
        let check = parcel_payload(&Parcel { tree, ttl, fanout, seed, dst: r });
        if payload != check {
            self.violations.push(format!("rank {r}: parcel filler corrupt (tree {tree})"));
            return;
        }
        let Some(t) = self.trees.get_mut(tree as usize) else {
            self.violations.push(format!("rank {r}: parcel for unknown tree {tree}"));
            return;
        };
        t.delivered += 1;
        if ttl > 0 {
            for c in 0..fanout {
                let child_seed = splitmix64(seed ^ (c as u64 + 1));
                let dst = self.pick_parcel_dst(r, child_seed);
                self.outbox[r].push_back(Parcel {
                    tree,
                    ttl: ttl - 1,
                    fanout,
                    seed: child_seed,
                    dst,
                });
            }
        }
    }

    // ----------------------------------------------------------- verdicts

    fn verify_payload(&mut self, i: usize, r: usize, got: &[u8], what: &str) {
        let want: Vec<u8> = (0..got.len()).map(|k| self.sched.fill_byte(i, k)).collect();
        if fnv1a(got) != fnv1a(&want) {
            self.fail_op(i, r, format!("{what} corrupt (op {i})"));
        }
    }

    /// True when the schedule's chaos plan can explain a death error on op
    /// `i`: an endpoint is scheduled to crash, or the pair is scheduled to
    /// partition. (Permissive, not required — an op that races ahead of
    /// the fault and completes normally is equally fine.)
    fn death_may_explain(&self, i: usize) -> bool {
        let (s, d) = match self.sched.ops[i] {
            Op::Send { src, dst, .. }
            | Op::PutEager { src, dst, .. }
            | Op::PutMany { src, dst, .. }
            | Op::PutDirect { src, dst, .. }
            | Op::Get { src, dst, .. }
            | Op::Rendezvous { src, dst, .. } => (src, dst),
            // Collectives touch every rank: any scheduled crash reaches them.
            Op::Barrier | Op::ParcelTree { .. } => return self.crashed.iter().any(Option::is_some),
            Op::CrashNode { .. } | Op::Partition { .. } | Op::RpcCall { .. } => return false,
        };
        self.crashed[s].is_some()
            || self.crashed[d].is_some()
            || self.partitions.iter().any(|&(a, b, _, _)| (a, b) == (s, d) || (a, b) == (d, s))
    }

    /// Terminal state for a chaos-explained error: the op *resolved* (in
    /// error, not success) — the all-ops-resolve invariant is satisfied,
    /// and stragglers from legs that ran before the failure are tolerated.
    fn resolve_op_err(&mut self, i: usize) {
        if self.ops[i].failed {
            return;
        }
        self.ops[i].failed = true;
        self.ops[i].snd = SndState::Done;
        self.ops[i].rcv = RcvState::Done;
        self.resolved_err += 1;
        self.progressed = true;
    }

    /// Classify an op-level error: a death error explained by the chaos
    /// plan resolves the op; anything else is a genuine violation.
    fn op_error(&mut self, i: usize, r: usize, what: &str, e: PhotonError) {
        if is_death_error(&e) && self.death_may_explain(i) {
            self.resolve_op_err(i);
        } else {
            self.fail_op(i, r, format!("{what}: {e}"));
        }
    }

    /// The rendezvous `try_wait_*` entry points carry no health gate (they
    /// only poll a map), so a wait on a dead counterpart would idle
    /// forever. Poll the peer's health explicitly: this drives the
    /// detector (probes, backoff, eviction) exactly like the blocking
    /// waits do, and resolves the op when the peer is gone. Returns true
    /// when the op resolved.
    fn rdv_peer_dead(&mut self, i: usize, r: usize, peer: usize, p: &Photon) -> bool {
        match p.check_peer(peer) {
            Ok(PeerHealthState::Dead) => {
                self.op_error(i, r, "rendezvous peer died", PhotonError::PeerDead(peer));
                true
            }
            Ok(_) => false,
            Err(e) => {
                self.op_error(i, r, "rendezvous health probe failed", e);
                true
            }
        }
    }

    fn fail_op(&mut self, i: usize, r: usize, msg: String) {
        self.violations.push(format!("rank {r} op {i} ({:?}): {msg}", self.sched.ops[i]));
        // Mark every leg complete so the run can terminate and report.
        self.ops[i].posted = true;
        self.ops[i].local_done = true;
        self.ops[i].remote_done = true;
        self.ops[i].many_local = u32::MAX;
        self.ops[i].many_remote = u32::MAX;
        self.ops[i].snd = SndState::Done;
        self.ops[i].rcv = RcvState::Done;
    }

    fn report_stuck(&mut self) {
        let mut diag = format!("stuck after {} sweeps:", self.sweeps);
        for (r, p) in self.cluster.ranks().iter().enumerate() {
            let (ql, qr) = p.queued_events();
            diag.push_str(&format!(
                " [rank {r}: next {}/{}, active {}, outbox {}, in_flight {}, queued {ql}/{qr}]",
                self.next[r],
                self.queues[r].len(),
                self.active[r].len(),
                self.outbox[r].len(),
                p.in_flight(),
            ));
        }
        self.violations.push(diag);
        // A lost credit return is the classic protocol livelock; run the
        // credit checkers in diagnostic mode so the verdict names the bug.
        let mut v = Violations::default();
        checkers::check_credit_conservation(&self.cluster, &mut v);
        for item in v.into_items() {
            self.violations.push(format!("diagnostic: {item}"));
        }
    }

    fn finish(mut self) -> CaseReport {
        let stuck = !self.violations.is_empty()
            && self.violations.items().iter().any(|v| v.starts_with("stuck"));
        // All-ops-resolve runs unconditionally — on a stuck case it names
        // exactly which ops hung without a completion or an error.
        let resolve_states: Vec<(String, bool)> = self
            .sched
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let resolved = match *op {
                    // Chaos ops are configuration, resolved by definition.
                    Op::CrashNode { .. } | Op::Partition { .. } => true,
                    Op::Barrier => {
                        self.barriers[self.bar_of_op[&i]].per_rank.iter().all(|st| st.done)
                    }
                    Op::ParcelTree { .. } => {
                        let t = &self.trees[self.tree_of_op[&i]];
                        t.delivered >= t.expected
                    }
                    _ => self.ops[i].done(),
                };
                (format!("{op:?}"), resolved)
            })
            .collect();
        checkers::check_all_ops_resolve(&resolve_states, &mut self.violations);
        if !stuck {
            if self.has_chaos() {
                // Eviction deliberately reclaims flow-control credits and
                // flushes work requests, so credit conservation and the
                // stats/tally agreement cannot hold across a failure —
                // those stay at full strength on the crash-free
                // campaigns. Survivors are still held to full quiescence;
                // crashed ranks are exempt (their in-flight state is, by
                // construction, never drained).
                for (r, p) in self.cluster.ranks().iter().enumerate() {
                    if self.crashed[r].is_none() {
                        checkers::check_quiescent_rank(r, p, &mut self.violations);
                    }
                }
            } else {
                checkers::check_quiescent(&self.cluster, &mut self.violations);
                checkers::check_credit_conservation(&self.cluster, &mut self.violations);
                for (r, p) in self.cluster.ranks().iter().enumerate() {
                    checkers::check_stats(r, p, &self.tally[r], &mut self.violations);
                }
            }
        }
        let stats: Vec<StatsSnapshot> = self.cluster.ranks().iter().map(|p| p.stats()).collect();
        let trace_csv: Vec<String> =
            self.cluster.ranks().iter().map(|p| p.tracer().to_csv()).collect();
        let span_traces: Vec<_> = self.cluster.ranks().iter().map(|p| p.span_trace()).collect();
        let mut digest_src = String::new();
        for csv in &trace_csv {
            digest_src.push_str(csv);
        }
        for s in &stats {
            digest_src.push_str(&format!("{s:?}"));
        }
        for v in self.violations.items() {
            digest_src.push_str(v);
        }
        CaseReport {
            seed: self.sched.seed,
            case_id: self.sched.case_id,
            violations: self.violations.into_items(),
            digest: fnv1a(digest_src.as_bytes()),
            sweeps: self.sweeps,
            resolved_err: self.resolved_err,
            stats,
            trace_csv,
            span_json: photon_core::obs::chrome_trace_json(&span_traces),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultSpec;

    fn fixed_schedule() -> Schedule {
        Schedule {
            seed: 0x51,
            case_id: 0,
            nodes: 4,
            cfg: PhotonConfig {
                eager_threshold: 1024,
                eager_ring_bytes: 8 * 1024,
                ledger_entries: 32,
                credit_interval: 8,
                ..PhotonConfig::default()
            },
            cq_depth: 256,
            model: 0,
            window: 2,
            reg_churn: false,
            ops: vec![
                Op::Send { src: 0, dst: 1, len: 64 },
                Op::PutEager { src: 1, dst: 2, len: 128 },
                Op::PutMany { src: 1, dst: 2, len: 48, count: 5 },
                Op::PutDirect { src: 2, dst: 3, len: 4096 },
                Op::Get { src: 3, dst: 0, len: 512 },
                Op::Barrier,
                Op::Rendezvous { src: 0, dst: 2, len: 2048, tag: 1 },
                Op::ParcelTree { root: 1, fanout: 2, ttl: 2 },
            ],
            faults: vec![],
            rpc_server: None,
        }
    }

    #[test]
    fn mixed_schedule_runs_clean() {
        let rep = run_schedule(&fixed_schedule());
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        assert!(rep.sweeps > 0);
        // All four ranks traced something.
        assert!(rep.trace_csv.iter().all(|c| c.lines().count() > 1));
    }

    #[test]
    fn schedules_exercise_the_batch_probe_path() {
        // The executor's pump drains through poll_completions, the same
        // batch API the runtime's poll turn uses — so every chaos
        // schedule doubles as coverage for the batch path. Pin that wiring:
        // a clean mixed schedule must leave probe-batch counts on all ranks.
        let sched = fixed_schedule();
        let ex = Executor::new(&sched, sched.cfg);
        let ranks: Vec<_> = ex.cluster.ranks().to_vec();
        let rep = ex.run();
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        for (r, p) in ranks.iter().enumerate() {
            let s = p.stats();
            assert!(s.probe_batches > 0, "rank {r} never used the batch probe path");
            assert!(s.probes >= s.probe_batches, "probes include batch calls");
        }
    }

    #[test]
    fn batched_puts_interleave_with_singles_under_pressure() {
        // Batched runs racing single puts and a degraded link, over the
        // tiny backpressure config so partial posts (halved runs, credit
        // stalls) actually occur — every item must still land intact.
        let mut sched = fixed_schedule();
        sched.cfg = PhotonConfig::tiny();
        let eager = sched.cfg.eager_threshold.min(sched.cfg.max_eager_payload());
        sched.ops = vec![
            Op::PutMany { src: 0, dst: 1, len: eager.min(16), count: 8 },
            Op::PutEager { src: 0, dst: 1, len: eager.min(16) },
            Op::PutMany { src: 1, dst: 0, len: eager.min(24), count: 6 },
            Op::PutEager { src: 1, dst: 0, len: eager.min(8) },
            Op::PutMany { src: 0, dst: 1, len: eager.min(8), count: 4 },
        ];
        sched.faults = vec![FaultSpec::DegradeLink {
            src: 0,
            dst: 1,
            extra_ns: 5_000,
            from_ns: 0,
            until_ns: 1_000_000,
        }];
        let rep = run_schedule(&sched);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        // The middleware saw batched posts from both sides.
        assert!(rep.stats.iter().take(2).all(|s| s.batch_posts > 0));
    }

    #[test]
    fn execution_is_deterministic() {
        let a = run_schedule(&fixed_schedule());
        let b = run_schedule(&fixed_schedule());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.trace_csv, b.trace_csv);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn generated_cases_run_clean_and_deterministic() {
        let p = SimParams::smoke();
        for case in 0..6 {
            let s = Schedule::generate(0xABCD, case, &p);
            let a = run_schedule(&s);
            assert!(a.passed(), "case {case}: {:?}\n{s}", a.violations);
            let b = run_schedule(&s);
            assert_eq!(a.digest, b.digest, "case {case} nondeterministic");
        }
    }

    #[test]
    fn faulty_network_does_not_break_invariants() {
        let mut s = fixed_schedule();
        s.faults = vec![
            FaultSpec::DegradeLink {
                src: 0,
                dst: 1,
                extra_ns: 20_000,
                from_ns: 0,
                until_ns: 1 << 40,
            },
            FaultSpec::StraggleNode { node: 2, extra_ns: 5_000, from_ns: 1_000, until_ns: 1 << 40 },
            FaultSpec::Jitter { bound_ns: 800, seed: 7, from_ns: 0, until_ns: 1 << 40 },
        ];
        let rep = run_schedule(&s);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
    }

    #[test]
    fn mutation_skipped_credit_returns_are_caught() {
        // Seeded bug: every credit-return write is dropped. The consumer's
        // ledger truth then outruns the producer's credit word by at least
        // one full interval, which the conservation checker must flag.
        let s = Schedule {
            seed: 0x99,
            case_id: 0,
            nodes: 2,
            cfg: PhotonConfig::tiny(),
            cq_depth: 256,
            model: 0,
            window: 1,
            reg_churn: false,
            ops: (0..6)
                .map(|_| Op::PutDirect { src: 0, dst: 1, len: 128 })
                .chain((0..2).map(|_| Op::Send { src: 0, dst: 1, len: 16 }))
                .collect(),
            faults: vec![],
            rpc_server: None,
        };
        let clean = run_schedule(&s);
        assert!(clean.passed(), "baseline must pass: {:?}", clean.violations);
        let mutated = run_schedule_cfg(&s, |cfg| cfg.skip_credit_return_interval = 1);
        assert!(
            mutated.violations.iter().any(|v| v.contains("credit-return lost")),
            "checkers must catch the seeded credit bug; got {:?}",
            mutated.violations
        );
    }

    #[test]
    fn barrier_only_schedule_completes() {
        let mut s = fixed_schedule();
        s.ops = vec![Op::Barrier, Op::Barrier, Op::Barrier];
        let rep = run_schedule(&s);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
    }

    /// Crash-acceptance fixture: traffic into a node that dies at t=0, plus
    /// survivor traffic that must stay untouched.
    fn kill_schedule() -> Schedule {
        let mut s = fixed_schedule();
        s.ops = vec![
            Op::PutEager { src: 0, dst: 3, len: 128 },
            Op::Send { src: 1, dst: 3, len: 64 },
            Op::PutDirect { src: 2, dst: 3, len: 4096 },
            // Survivor traffic among ranks 0..3 only.
            Op::Send { src: 0, dst: 1, len: 64 },
            Op::PutEager { src: 1, dst: 2, len: 256 },
            Op::Get { src: 2, dst: 0, len: 512 },
            Op::CrashNode { node: 3, at_ns: 0 },
        ];
        s
    }

    #[test]
    fn kill_mid_put_resolves_pending_ops_as_errors() {
        // Every op aimed at the dead rank must terminate as an expected
        // error resolution — no hang, no violation — while survivor ops
        // complete exactly once (rep.passed() covers integrity + dedup).
        let rep = run_schedule(&kill_schedule());
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        assert!(
            rep.resolved_err >= 3,
            "three ops target the dead rank; got {} error resolutions",
            rep.resolved_err
        );
    }

    #[test]
    fn crash_execution_is_deterministic() {
        let a = run_schedule(&kill_schedule());
        let b = run_schedule(&kill_schedule());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.resolved_err, b.resolved_err);
    }

    #[test]
    fn partition_healing_inside_window_recovers_via_backoff() {
        // Link 0<->2 is cut for 150us of virtual time while a rendezvous and
        // an eager put cross it. The health machine goes Suspect, backs off
        // (20us base, doubling), and the probe that lands after the window
        // heals the peer — every op must finish *successfully*.
        let mut s = fixed_schedule();
        s.ops = vec![
            Op::Rendezvous { src: 0, dst: 2, len: 2048, tag: 1 },
            Op::PutEager { src: 2, dst: 0, len: 128 },
            Op::Send { src: 1, dst: 3, len: 64 },
            Op::Partition { a: 0, b: 2, from_ns: 0, until_ns: 150_000 },
        ];
        let rep = run_schedule(&s);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        assert_eq!(
            rep.resolved_err, 0,
            "a partition healing inside the backoff budget must not kill any op"
        );
    }

    #[test]
    fn permanent_partition_escalates_to_peer_death() {
        // The window never closes: after `suspect_death_probes` failed
        // reconnection probes both sides declare the peer Dead and pending
        // ops resolve as errors instead of hanging.
        let mut s = fixed_schedule();
        s.ops = vec![
            Op::Rendezvous { src: 0, dst: 2, len: 2048, tag: 1 },
            Op::PutEager { src: 0, dst: 2, len: 128 },
            Op::Send { src: 1, dst: 3, len: 64 },
            Op::Partition { a: 0, b: 2, from_ns: 0, until_ns: 1 << 40 },
        ];
        let rep = run_schedule(&s);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        assert!(
            rep.resolved_err >= 2,
            "ops across the dead link must resolve as errors; got {}",
            rep.resolved_err
        );
    }

    #[test]
    fn generated_crash_cases_run_clean_and_deterministic() {
        let p = SimParams::crash();
        let mut total_resolved = 0u64;
        for case in 0..8 {
            let s = Schedule::generate(0xC1C5, case, &p);
            let a = run_schedule(&s);
            assert!(a.passed(), "case {case}: {:?}\n{s}", a.violations);
            let b = run_schedule(&s);
            assert_eq!(a.digest, b.digest, "case {case} nondeterministic");
            total_resolved += a.resolved_err;
        }
        // The chaos must actually bite somewhere in the batch — otherwise
        // the campaign is testing nothing.
        assert!(total_resolved > 0, "no generated crash case produced an error resolution");
    }
}
