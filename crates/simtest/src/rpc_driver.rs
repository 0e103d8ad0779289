//! RPC chaos driver: many clients, one KV server, crashes and partitions
//! landing mid-call.
//!
//! An rpc-campaign case is a [`Schedule`] whose every op is an
//! [`Op::RpcCall`] against one KV-serving rank, with the crash campaign's
//! chaos model (node kills, link partitions) riding along. Like the runtime
//! driver, a case boots real progress and scheduler threads, so it is not
//! byte-deterministic — what *is* checked, per case, is the delivery
//! contract itself:
//!
//! * **never-double-apply** — every mutating call carries a unique mutation
//!   token (derived from its op index); under at-most-once the server-side
//!   token audit must show apply-count ≤ 1 *no matter how the call
//!   resolved*, and a success reply pins the count exactly (`put` ⇒ 1,
//!   `cas → true` ⇒ 1, `cas → false` ⇒ 0);
//! * **successes really applied** — under maybe / at-least-once a success
//!   reply implies the mutation landed at least once (maybe: exactly once,
//!   since there is only one attempt);
//! * **all calls resolve** — every call returns `Ok` or a *typed* error
//!   ([`PhotonError::RpcTimeout`] / [`PhotonError::RpcFailed`]); any other
//!   error, or a call that never resolved, is a named violation.
//!
//! A nudger thread advances every rank's virtual clock while the clients
//! run, so crash times and partition windows (expressed in virtual ns) are
//! crossed even by idle ranks — the health machine's probes then converge
//! retries deterministically in virtual time.
//!
//! [`PhotonError::RpcTimeout`]: photon_core::PhotonError::RpcTimeout
//! [`PhotonError::RpcFailed`]: photon_core::PhotonError::RpcFailed

use crate::checkers::Violations;
use crate::clients::{self, token_of, with_clients};
use crate::exec::CaseReport;
use crate::schedule::{Op, Schedule, SimParams};
use photon_runtime::rpc::kv::{serve_kv, KvCas, KvGet, KvPut};
use photon_runtime::{RpcClient, RpcOptions, RtError};
use std::sync::Mutex;
use std::time::Duration;

/// How one call ended, as far as the audit cares.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Resolution {
    /// `kv.get` or `kv.put` success.
    Ok,
    /// `kv.cas` success, carrying whether the swap happened.
    OkCas(bool),
    /// Resolved as [`photon_core::PhotonError::RpcTimeout`] (outcome
    /// unknown: the audit can only bound, not pin, the apply count).
    Timeout,
    /// Resolved as [`photon_core::PhotonError::RpcFailed`] (dead server or
    /// a server-side verdict).
    Failed,
    /// Any other error — always a violation.
    Unexpected(String),
}

fn classify(err: RtError) -> Resolution {
    use photon_core::PhotonError;
    match err {
        RtError::Photon(PhotonError::RpcTimeout { .. }) => Resolution::Timeout,
        RtError::Photon(PhotonError::RpcFailed { .. }) => Resolution::Failed,
        other => Resolution::Unexpected(format!("{other:?}")),
    }
}

/// The delivery-contract audit for one mutating call: given how the call
/// resolved and how many times the server applied its token, return the
/// violation (if any). Pure, so the checker's own sensitivity is testable.
fn audit_mutation(
    idx: usize,
    method: u8,
    policy: u8,
    res: &Resolution,
    count: u64,
) -> Option<String> {
    match policy {
        2 => {
            // At-most-once: the bound holds unconditionally, and a success
            // reply pins the count exactly.
            if count > 1 {
                return Some(format!("op {idx}: at-most-once token applied {count} times"));
            }
            match (method, res) {
                (1, Resolution::Ok) if count != 1 => {
                    Some(format!("op {idx}: at-most-once put succeeded but applied {count} times"))
                }
                (2, Resolution::OkCas(true)) if count != 1 => {
                    Some(format!("op {idx}: at-most-once cas swapped but applied {count} times"))
                }
                (2, Resolution::OkCas(false)) if count != 0 => Some(format!(
                    "op {idx}: at-most-once cas replied false but applied {count} times"
                )),
                _ => None,
            }
        }
        1 => match (method, res) {
            (1, Resolution::Ok) | (2, Resolution::OkCas(true)) if count == 0 => {
                Some(format!("op {idx}: at-least-once success but token never applied"))
            }
            _ => None,
        },
        _ => {
            // Maybe: one attempt, so one delivery at most — a success means
            // exactly one execution.
            if matches!((method, res), (1, Resolution::Ok) | (2, Resolution::OkCas(true)))
                && count != 1
            {
                Some(format!("op {idx}: maybe-policy success but token applied {count} times"))
            } else {
                None
            }
        }
    }
}

/// Run one seeded rpc chaos case. The schedule, fault plan and chaos are
/// deterministic per `(seed, case_id)`; thread interleavings are not, so
/// the digest hashes only stable facts.
pub fn run_rpc_case(seed: u64, case_id: u64, params: &SimParams) -> CaseReport {
    let sched = Schedule::generate(seed, case_id, params);
    let n = sched.nodes;
    let server = sched.rpc_server.expect("rpc schedules carry a server rank");
    let cluster = clients::boot(&sched);
    let store = serve_kv(cluster.node(server));
    // One client per calling rank, made before any worker starts so each is
    // its node's first (client ids are per node).
    let rpc_clients: Vec<Option<RpcClient>> = (0..n)
        .map(|r| {
            sched
                .ops
                .iter()
                .any(|op| op.src() == Some(r))
                .then(|| cluster.node(r).rpc_client(server))
        })
        .collect();
    let outcomes: Vec<Mutex<Option<Resolution>>> =
        sched.ops.iter().map(|_| Mutex::new(None)).collect();

    with_clients(&cluster, &sched, |r, idx| {
        let client = rpc_clients[r].as_ref().expect("calling ranks have a client");
        let Op::RpcCall { method, key, policy, .. } = sched.ops[idx] else {
            unreachable!("with_clients yields only call ops");
        };
        let opts = match policy {
            0 => RpcOptions::maybe(),
            1 => RpcOptions::at_least_once(),
            _ => RpcOptions::at_most_once(),
        }
        .with_timeout(Duration::from_millis(10))
        .with_attempts(3);
        let token = token_of(idx);
        let res = match method {
            0 => client
                .call::<KvGet>(&vec![key], opts)
                .map(|_| Resolution::Ok)
                .unwrap_or_else(classify),
            1 => client
                .call::<KvPut>(&(vec![key], token.to_le_bytes().to_vec(), token), opts)
                .map(|()| Resolution::Ok)
                .unwrap_or_else(classify),
            _ => {
                // Expected value sampled racily from the store: contention
                // decides whether the swap lands, which is exactly the point.
                let expected = store.get(&[key]);
                client
                    .call::<KvCas>(
                        &(vec![key], expected, token.to_le_bytes().to_vec(), token),
                        opts,
                    )
                    .map(Resolution::OkCas)
                    .unwrap_or_else(classify)
            }
        };
        *outcomes[idx].lock().expect("outcome lock") = Some(res);
    });

    // The audit: read the server-side token counts against each call's
    // recorded resolution.
    let mut violations = Violations::default();
    let mut resolved_err = 0u64;
    let mut rpc_ops = 0usize;
    for (idx, op) in sched.ops.iter().enumerate() {
        let Op::RpcCall { method, policy, .. } = *op else { continue };
        rpc_ops += 1;
        let res = outcomes[idx].lock().expect("outcome lock").clone();
        let Some(res) = res else {
            violations.push(format!("op {idx}: call never resolved"));
            continue;
        };
        if let Resolution::Unexpected(msg) = &res {
            violations.push(format!("op {idx}: untyped error {msg}"));
            continue;
        }
        if matches!(res, Resolution::Timeout | Resolution::Failed) {
            resolved_err += 1;
        }
        if method == 0 {
            continue; // gets mutate nothing; resolution was the whole check
        }
        let count = store.apply_count(token_of(idx));
        if let Some(v) = audit_mutation(idx, method, policy, &res, count) {
            violations.push(v);
        }
    }
    cluster.shutdown();

    let digest_src = format!(
        "n={n} server={server} rpc_ops={rpc_ops} ops={} v={:?}",
        sched.ops.len(),
        violations.items()
    );
    let mut rep = CaseReport::verdict(seed, case_id, violations, &digest_src);
    rep.resolved_err = resolved_err;
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_cases_hold_invariants() {
        let p = SimParams::rpc();
        for case in 0..2 {
            let rep = run_rpc_case(0x59C0, case, &p);
            assert!(rep.violations.is_empty(), "case {case}: {:?}", rep.violations);
        }
    }

    #[test]
    fn audit_catches_contract_breaches() {
        use Resolution::{Failed, Ok as ROk, OkCas, Timeout};
        // At-most-once: a double-apply is a violation no matter how the
        // call resolved; a success pins the count exactly.
        assert!(audit_mutation(0, 1, 2, &Timeout, 2).is_some());
        assert!(audit_mutation(0, 2, 2, &Failed, 2).is_some());
        assert!(audit_mutation(0, 1, 2, &ROk, 0).is_some());
        assert!(audit_mutation(0, 2, 2, &OkCas(true), 0).is_some());
        assert!(audit_mutation(0, 2, 2, &OkCas(false), 1).is_some());
        // ...and the legal shapes pass.
        assert!(audit_mutation(0, 1, 2, &ROk, 1).is_none());
        assert!(audit_mutation(0, 1, 2, &Timeout, 0).is_none());
        assert!(audit_mutation(0, 1, 2, &Timeout, 1).is_none());
        assert!(audit_mutation(0, 2, 2, &OkCas(false), 0).is_none());
        // At-least-once: a success that never applied is a violation; a
        // retried double-apply is allowed.
        assert!(audit_mutation(0, 1, 1, &ROk, 0).is_some());
        assert!(audit_mutation(0, 2, 1, &OkCas(true), 0).is_some());
        assert!(audit_mutation(0, 1, 1, &ROk, 3).is_none());
        assert!(audit_mutation(0, 2, 1, &OkCas(false), 1).is_none());
        // Maybe: single attempt, so a success means exactly one apply.
        assert!(audit_mutation(0, 1, 0, &ROk, 2).is_some());
        assert!(audit_mutation(0, 1, 0, &ROk, 1).is_none());
        assert!(audit_mutation(0, 1, 0, &Timeout, 0).is_none());
    }

    #[test]
    fn rpc_schedules_are_all_calls_against_one_server() {
        let p = SimParams::rpc();
        for case in 0..20 {
            let s = Schedule::generate(0xC1C6, case, &p);
            let server = s.rpc_server.expect("rpc preset sets a server");
            assert!(server < s.nodes);
            for op in &s.ops {
                match *op {
                    Op::RpcCall { client, server: srv, method, key, policy } => {
                        assert_eq!(srv, server);
                        assert_ne!(client, server, "clients never share the server rank");
                        assert!(client < s.nodes && method < 3 && key < 8 && policy < 3);
                    }
                    Op::CrashNode { .. } | Op::Partition { .. } => {}
                    other => panic!("non-rpc data op {other:?} in an rpc schedule"),
                }
            }
            assert!(
                s.ops.iter().any(|o| matches!(o, Op::RpcCall { .. })),
                "case {case} generated no calls"
            );
        }
    }
}
