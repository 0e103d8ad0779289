//! Tier-1 gate: a bounded simtest smoke campaign inside `cargo test`.
//!
//! 200 seeded cases over 4–6-node clusters with mixed one-sided, two-sided,
//! collective and parcel traffic, ~40% of them under fault plans. Fixed
//! seed, bounded case sizes, parallel across cases — the whole campaign
//! stays well inside the tier-1 time budget while sweeping the protocol
//! state space far wider than the hand-written tests.
//!
//! On failure, `CampaignResult::summary()` (printed by the assert) carries a
//! one-line `SIMTEST_SEED=… SIMTEST_CASE=…` reproducer for each failing
//! case plus a shrunk schedule. See README, "Reproducing a simtest
//! failure".

use photon_core::PhotonConfig;
use photon_simtest::{run_campaign, run_schedule_cfg, Campaign, CampaignOpts, Schedule, SimParams};

#[test]
fn smoke_campaign_two_hundred_cases() {
    let opts = CampaignOpts {
        cases: 200,
        seed: 0x0707_0E57, // fixed: this exact sweep is the gate
        jobs: 8,
        shrink: true,
        corpus: None, // replay the committed corpus first
    };
    let r = run_campaign(Campaign::Smoke, &opts);
    assert_eq!(r.cases_run, 200);
    assert!(r.passed(), "{}", r.summary());
}

#[test]
fn credits_campaign_under_tiny_windows() {
    // Every case on the tiny config: ledger/ring backpressure on each op.
    let opts = CampaignOpts { cases: 40, seed: 0x0707_0E58, jobs: 8, shrink: true, corpus: None };
    let r = run_campaign(Campaign::Credits, &opts);
    assert!(r.passed(), "{}", r.summary());
}

#[test]
fn crash_campaign_every_op_resolves() {
    // Peer-failure gate: every case kills a node and/or partitions a link
    // mid-traffic. The all-ops-resolve checker turns any hang into a named
    // violation; pending ops on a dead peer must surface as error
    // completions and survivors keep exactly-once + payload integrity.
    let opts = CampaignOpts { cases: 100, seed: 0xC1C5, jobs: 8, shrink: true, corpus: None };
    let r = run_campaign(Campaign::Crash, &opts);
    assert!(r.passed(), "{}", r.summary());
}

#[test]
fn mutation_smoke_credit_bug_is_caught() {
    // Mutation check for the checkers themselves: re-run generated credits
    // schedules with a deliberately broken credit-return path (the
    // `skip_credit_return_interval` test hook drops every return write).
    // The invariant suite must notice on schedules it passes when healthy.
    let mutate = |c: &mut PhotonConfig| c.skip_credit_return_interval = 1;
    let mut caught = 0u32;
    let mut eligible = 0u32;
    for case in 0..12u64 {
        let sched = Schedule::generate(0x0707_0E59, case, &SimParams::credits());
        let healthy = run_schedule_cfg(&sched, |_| {});
        if !healthy.passed() {
            continue; // only mutate schedules that are clean when healthy
        }
        eligible += 1;
        let mutated = run_schedule_cfg(&sched, mutate);
        if mutated.violations.iter().any(|v| v.contains("credit-return lost")) {
            caught += 1;
        }
    }
    assert!(eligible >= 8, "too few clean baseline schedules ({eligible})");
    assert!(
        caught >= eligible / 2,
        "checkers caught the credit bug in only {caught}/{eligible} schedules"
    );
}
