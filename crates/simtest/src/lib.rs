//! # photon-simtest — deterministic simulation testing for Photon
//!
//! A seeded chaos-campaign harness over the whole Photon stack. Each test
//! *case* is a [`schedule::Schedule`] — a generated multi-node workload
//! (puts/gets/PWC/sends, rendezvous pairs, barriers, parcel cascades) plus a
//! fault plan with virtual-time activation windows and, in the `crash`
//! campaign, node-kill and link-partition injection — executed by a
//! single-threaded deterministic stepper ([`exec`]) that drives every rank
//! through the middleware's non-blocking APIs only. Because the simulated
//! fabric applies RDMA effects synchronously at post time and the stepper
//! fixes the interleaving, a case is a pure function of `(seed, case_id)`:
//! same inputs, byte-identical traces, stats and verdicts, on any machine
//! and any `--jobs` level (campaign parallelism is *across* cases, never
//! within one). The executor is one of six drivers; [`Campaign::driver`]
//! is the one table that routes each campaign case to its driver.
//!
//! While a case runs, cross-layer invariants are checked continuously and at
//! quiescence ([`checkers`]): exactly-once completion per rid, payload
//! integrity via seeded fill patterns, per-rank virtual-clock monotonicity,
//! ledger/ring credit conservation (consumer truth vs. producer credit
//! words), quiescence ⇒ zero in-flight work, and harness-vs-middleware
//! stats consistency. Under chaos injection the harness additionally
//! enforces **all-ops-resolve**: every initiated op terminates in a success
//! or an error completion before quiescence, so a hang is a named
//! violation rather than a timeout (see DESIGN.md, "Failure model").
//!
//! On failure a campaign prints a one-line reproducer:
//!
//! ```text
//! SIMTEST_SEED=0x1f2e3d4c SIMTEST_CASE=137 cargo run -q -p photon-simtest --bin simtest -- replay smoke
//! ```
//!
//! which replays exactly that case, then a best-effort shrinker ([`shrink`])
//! minimizes the failing schedule. See `DESIGN.md` ("Simulation testing")
//! and the README recipe for the full workflow.

#![warn(missing_docs)]

pub mod campaign;
pub mod checkers;
pub mod churn_driver;
mod clients;
pub mod ds_driver;
pub mod exec;
pub mod msg_driver;
pub mod rpc_driver;
pub mod rt_driver;
pub mod schedule;
pub mod shrink;

pub use campaign::{run_campaign, Campaign, CampaignOpts, CampaignResult, CaseFailure, Driver};
pub use checkers::Violations;
pub use churn_driver::{run_churn_case, run_churn_case_metrics, ChurnMetrics};
pub use exec::{run_case, run_schedule, run_schedule_cfg, CaseReport};
pub use schedule::{FaultSpec, Op, Schedule, SimParams};
pub use shrink::{shrink_schedule, shrink_schedule_cfg, Shrunk};

/// SplitMix64: the harness's cheap stateless mixing function (fill
/// patterns, derived seeds). Matches the fabric's jitter mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a 64-bit: payload checksums and case digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_payloads() {
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn splitmix_is_stateless() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }
}
