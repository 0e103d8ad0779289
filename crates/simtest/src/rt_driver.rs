//! Runtime-layer (parcel/active-message) workload driver.
//!
//! Unlike the Photon-core and msg drivers, [`photon_runtime::RuntimeCluster`]
//! boots real progress and scheduler threads per node, so a runtime case is
//! **not** byte-deterministic — thread interleavings vary. What *is*
//! invariant, and what this driver checks after collective quiescence:
//!
//! * exactly-once parcel execution — a seeded fan-out cascade's execution
//!   count equals the closed-form tree size, never more, never fewer;
//! * payload integrity through the parcel codec and eager/rendezvous paths;
//! * quiescence really quiesced — every parcel sent anywhere has run
//!   (`Σ parcels_sent == Σ parcels_run` across ranks).
//!
//! The digest hashes only these stable facts (never timing-dependent
//! counters such as coalesced batch counts), so replaying a seed still
//! yields a comparable verdict.

use crate::checkers::Violations;
use crate::exec::CaseReport;
use crate::splitmix64;
use photon_core::PhotonConfig;
use photon_fabric::NetworkModel;
use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Closed-form size of one cascade: `fanout` initial parcels, each delivery
/// with remaining ttl spawning `fanout` children.
fn cascade_size(fanout: u64, ttl: u32) -> u64 {
    let mut per = 1u64;
    for _ in 0..ttl {
        per = 1 + fanout * per;
    }
    fanout * per
}

/// Run one seeded runtime case; invariants are deterministic per seed even
/// though thread interleavings are not.
pub fn run_runtime_case(seed: u64, case_id: u64) -> CaseReport {
    let mut rng = StdRng::seed_from_u64(seed ^ case_id.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    let n = rng.gen_range(3usize..=5);
    let fanout = rng.gen_range(2u64..=3);
    let ttl = rng.gen_range(1u32..=3);
    let expected = cascade_size(fanout, ttl);

    let ran = Arc::new(AtomicU64::new(0));
    let corrupt = Arc::new(AtomicU64::new(0));
    // The handler needs its own action id to re-send; the id is only known
    // after registration, so thread it through a cell the closure captures.
    let self_id = Arc::new(AtomicU32::new(0));
    let mut reg = ActionRegistry::new();
    let (ran_c, corrupt_c, self_id_c) = (ran.clone(), corrupt.clone(), self_id.clone());
    let cascade = reg.register("cascade", move |ctx, payload| {
        // payload: [ttl u32][fanout u64][hop_seed u64][marker u64]
        if payload.len() != 28 {
            corrupt_c.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let ttl = u32::from_le_bytes(payload[0..4].try_into().expect("ttl"));
        let fanout = u64::from_le_bytes(payload[4..12].try_into().expect("fanout"));
        let hop = u64::from_le_bytes(payload[12..20].try_into().expect("hop"));
        let got_marker = u64::from_le_bytes(payload[20..28].try_into().expect("marker"));
        if got_marker != splitmix64(hop) {
            corrupt_c.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        ran_c.fetch_add(1, Ordering::Relaxed);
        if ttl > 0 {
            let me = ctx.rank();
            let id = self_id_c.load(Ordering::Relaxed);
            for c in 0..fanout {
                let child = splitmix64(hop ^ (c + 1));
                let mut dst = (child % (ctx.size() as u64 - 1)) as usize;
                if dst >= me {
                    dst += 1;
                }
                let mut p = Vec::with_capacity(28);
                p.extend_from_slice(&(ttl - 1).to_le_bytes());
                p.extend_from_slice(&fanout.to_le_bytes());
                p.extend_from_slice(&child.to_le_bytes());
                p.extend_from_slice(&splitmix64(child).to_le_bytes());
                ctx.send_parcel(dst, id, &p).expect("cascade send");
            }
        }
        None
    });
    self_id.store(cascade, Ordering::Relaxed);

    let cluster = RuntimeCluster::new(
        n,
        NetworkModel::ideal(),
        RtConfig {
            workers: 2,
            coalesce_max: if rng.gen_bool(0.5) { 4 } else { 0 },
            photon: PhotonConfig::default(),
            ..RtConfig::default()
        },
        reg,
    );

    let root = rng.gen_range(0..n);
    std::thread::scope(|s| {
        for r in 0..n {
            let cluster = &cluster;
            s.spawn(move || {
                if r == root {
                    let node = cluster.node(r);
                    for c in 0..fanout {
                        let hop = splitmix64(seed ^ case_id ^ (c + 1).rotate_left(7));
                        let mut p = Vec::with_capacity(28);
                        p.extend_from_slice(&ttl.to_le_bytes());
                        p.extend_from_slice(&fanout.to_le_bytes());
                        p.extend_from_slice(&hop.to_le_bytes());
                        p.extend_from_slice(&splitmix64(hop).to_le_bytes());
                        let mut dst = (hop % (n as u64 - 1)) as usize;
                        if dst >= r {
                            dst += 1;
                        }
                        node.send_parcel(dst, cascade, &p).expect("root send");
                    }
                }
                cluster.node(r).quiescence().expect("quiescence");
            });
        }
    });

    let mut violations = Violations::default();
    let got = ran.load(Ordering::Relaxed);
    if got != expected {
        violations.push(format!(
            "cascade executed {got} parcels, expected {expected} (fanout {fanout}, ttl {ttl})"
        ));
    }
    if corrupt.load(Ordering::Relaxed) != 0 {
        violations.push(format!(
            "{} parcels arrived corrupt (codec or transport fault)",
            corrupt.load(Ordering::Relaxed)
        ));
    }
    let (mut sent, mut run) = (0u64, 0u64);
    for r in 0..n {
        let s = cluster.node(r).stats();
        sent += s.parcels_sent;
        run += s.parcels_run;
    }
    if sent != run {
        violations.push(format!("quiescence hole: {sent} parcels sent but {run} run"));
    }
    cluster.shutdown();

    let digest_src =
        format!("n={n} fanout={fanout} ttl={ttl} expected={expected} v={:?}", violations.items());
    CaseReport::verdict(seed, case_id, violations, &digest_src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_size_closed_form() {
        // fanout 2, ttl 1: 2 initial + 2*2 children = 6.
        assert_eq!(cascade_size(2, 1), 6);
        assert_eq!(cascade_size(3, 0), 3);
    }

    #[test]
    fn runtime_cases_hold_invariants() {
        for case in 0..2 {
            let rep = run_runtime_case(0xC0FFEE, case);
            assert!(rep.violations.is_empty(), "case {case}: {:?}", rep.violations);
        }
    }
}
