//! Two-sided (msg-layer) workload driver.
//!
//! A deterministic single-threaded stepper over [`photon_msg::MsgCluster`]:
//! seeded eager traffic driven through `send` / `try_recv` / `probe` in a
//! fixed round-robin, with delivery, integrity, per-pair FIFO and stats
//! invariants checked at quiescence. Eager sends post without blocking and
//! the receive side is drained with the non-blocking probe API, so — like
//! the Photon-core executor — the run is a pure function of the seed.

use crate::checkers::Violations;
use crate::exec::CaseReport;
use crate::{fnv1a, splitmix64};
use photon_fabric::NetworkModel;
use photon_msg::{MsgCluster, MsgConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Msg {
    src: usize,
    dst: usize,
    tag: u64,
    len: usize,
}

fn msg_bytes(seed: u64, case_id: u64, idx: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| {
            (splitmix64(seed ^ case_id.rotate_left(13) ^ ((idx as u64) << 24) ^ k as u64) >> 32)
                as u8
        })
        .collect()
}

/// Run one seeded msg-layer case; deterministic per `(seed, case_id)`.
pub fn run_msg_case(seed: u64, case_id: u64) -> CaseReport {
    let mut rng = StdRng::seed_from_u64(seed ^ case_id.wrapping_mul(0xA076_1D64_78BD_642F));
    let n = rng.gen_range(2usize..=4);
    let cluster = MsgCluster::new(
        n,
        if rng.gen_bool(0.5) { NetworkModel::ideal() } else { NetworkModel::ib_fdr() },
        MsgConfig { eager_threshold: 4096, ..MsgConfig::default() },
    );
    let count = rng.gen_range(16usize..=64);
    let mut pair_seq: HashMap<(usize, usize), u64> = HashMap::new();
    let msgs: Vec<Msg> = (0..count)
        .map(|_| {
            let src = rng.gen_range(0..n);
            let mut dst = rng.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            let tag = {
                let s = pair_seq.entry((src, dst)).or_insert(0);
                *s += 1;
                *s
            };
            Msg { src, dst, tag, len: rng.gen_range(1usize..=2048) }
        })
        .collect();

    let mut violations = Violations::default();
    let mut next_send = vec![0usize; n];
    let sends_of: Vec<Vec<usize>> =
        (0..n).map(|r| (0..count).filter(|&i| msgs[i].src == r).collect()).collect();
    let mut received = vec![false; count];
    let mut last_tag_seen: HashMap<(usize, usize), u64> = HashMap::new();
    let mut transcript = String::new();
    let mut delivered = 0usize;
    let mut idle = 0u32;

    while delivered < count {
        let mut progressed = false;
        for r in 0..n {
            let ep = cluster.rank(r);
            // Issue up to two sends per sweep.
            for _ in 0..2 {
                let Some(&i) = sends_of[r].get(next_send[r]) else { break };
                let m = msgs[i];
                let data = msg_bytes(seed, case_id, i, m.len);
                match ep.send(m.dst, &data, m.tag) {
                    Ok(()) => {
                        next_send[r] += 1;
                        progressed = true;
                    }
                    Err(e) => {
                        violations.push(format!("rank {r}: send #{i} failed: {e}"));
                        next_send[r] += 1;
                    }
                }
            }
            // Drain arrivals.
            for _ in 0..4 {
                match ep.try_recv(None, None) {
                    Ok(Some(got)) => {
                        progressed = true;
                        let key = msgs
                            .iter()
                            .position(|m| m.src == got.src && m.dst == r && m.tag == got.tag);
                        let Some(i) = key else {
                            violations.push(format!(
                                "rank {r}: unexpected message src {} tag {}",
                                got.src, got.tag
                            ));
                            continue;
                        };
                        if received[i] {
                            violations.push(format!("rank {r}: duplicate delivery of msg #{i}"));
                            continue;
                        }
                        received[i] = true;
                        delivered += 1;
                        let want = msg_bytes(seed, case_id, i, msgs[i].len);
                        if got.data != want {
                            violations.push(format!("rank {r}: msg #{i} payload corrupt"));
                        }
                        // Same-pair messages must arrive in tag order.
                        let last = last_tag_seen.entry((got.src, r)).or_insert(0);
                        if got.tag <= *last {
                            violations.push(format!(
                                "rank {r}: FIFO violation from {}: tag {} after {}",
                                got.src, got.tag, *last
                            ));
                        }
                        *last = got.tag;
                        transcript.push_str(&format!(
                            "{},{},{},{},{:#x}\n",
                            got.src,
                            r,
                            got.tag,
                            got.len,
                            fnv1a(&got.data)
                        ));
                    }
                    Ok(None) => break,
                    Err(e) => {
                        violations.push(format!("rank {r}: try_recv failed: {e}"));
                        break;
                    }
                }
            }
        }
        idle = if progressed { 0 } else { idle + 1 };
        if idle > 8 {
            violations.push(format!("msg case stuck: delivered {delivered}/{count}"));
            break;
        }
    }

    // Quiescence: nothing left to probe anywhere.
    for r in 0..n {
        let ep = cluster.rank(r);
        match ep.probe(None, None) {
            Ok(Some((src, tag, len))) => violations.push(format!(
                "rank {r}: residual message at quiescence (src {src}, tag {tag}, {len}B)"
            )),
            Ok(None) => {}
            Err(e) => violations.push(format!("rank {r}: quiescence probe failed: {e}")),
        }
    }
    // Stats consistency: every issued send and every delivery is counted.
    let (mut sends, mut recvs) = (0u64, 0u64);
    for r in 0..n {
        let s = cluster.rank(r).stats();
        sends += s.sends_eager + s.sends_rdv;
        recvs += s.recvs;
    }
    if sends != count as u64 {
        violations.push(format!("stats: {sends} sends counted, {count} issued"));
    }
    if recvs != count as u64 {
        violations.push(format!("stats: {recvs} recvs counted, {count} expected"));
    }

    let mut digest_src = transcript;
    for r in 0..n {
        digest_src.push_str(&format!("{:?}", cluster.rank(r).stats()));
    }
    for v in violations.items() {
        digest_src.push_str(v);
    }
    CaseReport::verdict(seed, case_id, violations, &digest_src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_cases_pass_and_replay_identically() {
        for case in 0..4 {
            let a = run_msg_case(0xBEEF, case);
            assert!(a.violations.is_empty(), "case {case}: {:?}", a.violations);
            let b = run_msg_case(0xBEEF, case);
            assert_eq!(a.digest, b.digest, "case {case} nondeterministic");
        }
    }
}
