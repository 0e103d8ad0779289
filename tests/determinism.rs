//! Determinism of the virtual-time model: causal-chain experiments must
//! produce byte-identical timings run-to-run (this is what makes the
//! figure harness reproducible).

use photon::core::{PhotonCluster, PhotonConfig};
use photon::fabric::NetworkModel;
use photon::msg::{MsgCluster, MsgConfig};

fn photon_pingpong(size: usize) -> u64 {
    let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
    let (p0, p1) = (c.rank(0), c.rank(1));
    let b0 = p0.register_buffer(size).unwrap();
    let b1 = p1.register_buffer(size).unwrap();
    let d0 = b0.descriptor();
    let d1 = b1.descriptor();
    c.reset_time();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..20u64 {
                p0.put_with_completion(1, &b0, 0, size, &d1, 0, i, i).unwrap();
                p0.wait_completion_matching(photon::core::ProbeFlags::Remote).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..20u64 {
                p1.wait_completion_matching(photon::core::ProbeFlags::Remote).unwrap();
                p1.put_with_completion(0, &b1, 0, size, &d0, 0, i, i).unwrap();
            }
        });
    });
    c.rank(0).now().as_nanos()
}

#[test]
fn photon_pingpong_is_deterministic() {
    for size in [8usize, 4096, 65536] {
        let a = photon_pingpong(size);
        let b = photon_pingpong(size);
        let c = photon_pingpong(size);
        assert_eq!(a, b, "size {size}");
        assert_eq!(b, c, "size {size}");
    }
}

#[test]
fn baseline_pingpong_is_deterministic() {
    let run = || {
        let c = MsgCluster::new(2, NetworkModel::ib_fdr(), MsgConfig::default());
        let (e0, e1) = (c.rank(0), c.rank(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20u64 {
                    e0.send(1, &[0u8; 64], i).unwrap();
                    e0.recv(Some(1), Some(i)).unwrap();
                }
            });
            s.spawn(|| {
                for i in 0..20u64 {
                    e1.recv(Some(0), Some(i)).unwrap();
                    e1.send(0, &[0u8; 64], i).unwrap();
                }
            });
        });
        c.rank(0).now().as_nanos()
    };
    assert_eq!(run(), run());
}

#[test]
fn collectives_are_deterministic() {
    let run = |n: usize| {
        let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
        std::thread::scope(|s| {
            for p in c.ranks() {
                s.spawn(move || {
                    for _ in 0..5 {
                        p.barrier().unwrap();
                    }
                });
            }
        });
        c.ranks().iter().map(|p| p.now().as_nanos()).max().unwrap()
    };
    for n in [2usize, 4, 8] {
        assert_eq!(run(n), run(n), "barrier timing for n={n}");
    }
}

#[test]
fn simtest_schedule_is_byte_deterministic() {
    // A generated simtest case is a pure function of (seed, case_id): two
    // runs must agree byte-for-byte on the trace CSVs, the per-rank stats
    // snapshots, and the case digest.
    use photon_simtest::{run_case, SimParams};
    for case in 0..3u64 {
        let a = run_case(0x0DE7_E121, case, &SimParams::smoke());
        let b = run_case(0x0DE7_E121, case, &SimParams::smoke());
        assert!(a.passed(), "case {case}: {:?}", a.violations);
        assert_eq!(a.trace_csv, b.trace_csv, "case {case}: trace CSV differs");
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "case {case}: stats snapshots differ"
        );
        assert_eq!(a.digest, b.digest, "case {case}: digest differs");
    }
}

#[test]
fn simtest_campaign_digest_is_thread_count_independent() {
    // Campaign parallelism is across cases, never within one; the campaign
    // digest covers per-case digests in case-id order, so any --jobs level
    // must produce the identical value.
    use photon_simtest::{run_campaign, Campaign, CampaignOpts};
    let run = |jobs| {
        run_campaign(
            Campaign::Smoke,
            &CampaignOpts { cases: 10, seed: 0x0DE7_E122, jobs, shrink: false, corpus: None },
        )
    };
    let a = run(1);
    let b = run(4);
    assert!(a.passed(), "{}", a.summary());
    assert_eq!(a.digest, b.digest, "digest must not depend on worker count");
}

#[test]
fn campaign_digests_match_recorded() {
    // The cross-commit behaviour oracle: every other digest assertion in
    // this file compares two runs of the *same* build. These values were
    // recorded at commit a5a29f5 (release build, stable across processes
    // and `--jobs`) with `simtest <campaign> --seed 0xC1C1 --cases 20`; a
    // refactor that claims "no behaviour change" must leave them alone, and
    // a PR that legitimately moves virtual time or the schedule re-records
    // them and says why.
    use photon_simtest::{run_campaign, Campaign, CampaignOpts};
    let recorded: [(Campaign, u64); 8] = [
        (Campaign::Smoke, 0xb2b2_4027_9357_a8cd),
        (Campaign::Credits, 0xd89c_807d_b9c0_cf05),
        (Campaign::Faults, 0x983e_2a01_4b53_9cb6),
        (Campaign::Quiescence, 0x0eb4_f319_5f0f_d967),
        (Campaign::Crash, 0x07f9_9d34_7e92_7756),
        (Campaign::Rpc, 0x566f_8b78_b457_6fe8),
        (Campaign::Ds, 0x617f_c6f7_45cb_619f),
        (Campaign::Churn, 0xf388_aee5_4bf4_7232),
    ];
    assert_eq!(recorded.map(|(c, _)| c), Campaign::all(), "every campaign is pinned");
    for (campaign, want) in recorded {
        let r = run_campaign(
            campaign,
            &CampaignOpts { cases: 20, seed: 0xC1C1, jobs: 2, shrink: false, corpus: None },
        );
        assert!(r.passed(), "{}", r.summary());
        assert_eq!(
            r.digest,
            want,
            "campaign {} digest moved: got {:#018x}, recorded {want:#018x}",
            campaign.name(),
            r.digest
        );
    }
}

#[test]
fn documented_replays_match_recorded() {
    // Two single-case replays, pinned through the same routing `simtest
    // replay` uses: the quiescence corpus entry that once caught the
    // eager-ring deferred-skip bug, and a crash case with both a kill and
    // a partition in its chaos plan.
    use photon_simtest::campaign::run_one;
    use photon_simtest::Campaign;
    let pins = [
        (Campaign::Quiescence, 0x0ab5_ce55, 2, 0xe334_c01c_770a_686d),
        (Campaign::Crash, 0xc1c5, 10, 0x8267_5e73_4497_d043),
    ];
    for (campaign, seed, case_id, want) in pins {
        let rep = run_one(campaign, seed, case_id);
        assert!(rep.passed(), "{} {seed:#x} {case_id}: {:?}", campaign.name(), rep.violations);
        assert_eq!(
            rep.digest,
            want,
            "{} {seed:#x} {case_id} replay digest moved: got {:#018x}",
            campaign.name(),
            rep.digest
        );
    }
}

#[test]
fn reset_time_restores_origin() {
    let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
    let (p0, p1) = (c.rank(0), c.rank(1));
    let b0 = p0.register_buffer(8).unwrap();
    let b1 = p1.register_buffer(8).unwrap();
    p0.put_with_completion(1, &b0, 0, 8, &b1.descriptor(), 0, 1, 1).unwrap();
    p1.wait_completion_matching(photon::core::ProbeFlags::Remote).unwrap();
    assert!(p1.now().as_nanos() > 0);
    c.reset_time();
    assert_eq!(p0.now().as_nanos(), 0);
    assert_eq!(p1.now().as_nanos(), 0);
    // And the fabric's port calendars were cleared: a fresh op departs at 0.
    p0.put_with_completion(1, &b0, 0, 8, &b1.descriptor(), 0, 2, 2).unwrap();
    let ev = p1.wait_completion_matching(photon::core::ProbeFlags::Remote).unwrap();
    let m = NetworkModel::ib_fdr();
    // o + L + gap, plus 1 ns of producer staging memcpy (shifts departure)
    // and 1 ns of consumer copy-out, both for the 8-byte eager payload.
    assert_eq!(ev.ts.as_nanos(), m.send_overhead_ns + m.latency_ns + m.msg_gap_ns + 2);
}
