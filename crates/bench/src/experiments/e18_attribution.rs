//! E18 — per-stage latency attribution from op-lifecycle spans (extension).
//!
//! The observability layer stamps every PWC op at five points: `post` (API
//! entry), `stage` (payload staged for the NIC), `inject` (CQE: the NIC
//! finished injection), `deliver` (visible at the target's probe), and
//! `complete` (surfaced to the application). This experiment re-runs the
//! E1 put shape with recording enabled and attributes the one-way latency
//! to those stages — then repeats the 8-byte case over a degraded link
//! (the E17 fault machinery) to show the attribution localizing the added
//! latency in the wire stage rather than smearing it across the pipeline.

use crate::report::{size_label, us, Table};
use photon_core::obs::{OpSpan, SpanDir};
use photon_core::{PhotonCluster, PhotonConfig, ProbeFlags};
use photon_fabric::{NetworkModel, VTime, Window};

/// Mean of `f` over spans where it yields a value, in ns (0 if none).
fn mean_ns(spans: &[OpSpan], f: impl Fn(&OpSpan) -> Option<u64>) -> u64 {
    let vals: Vec<u64> = spans.iter().filter_map(&f).collect();
    if vals.is_empty() {
        0
    } else {
        vals.iter().sum::<u64>() / vals.len() as u64
    }
}

/// Run `iters` lockstep 1-outstanding puts of `size` bytes rank 0 → rank 1
/// with span recording on; returns (initiator spans, target spans keyed by
/// the same rid numbering).
fn staged_puts(
    size: usize,
    iters: u64,
    degrade_extra_ns: Option<u64>,
) -> (Vec<OpSpan>, Vec<OpSpan>) {
    let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
    if let Some(extra) = degrade_extra_ns {
        // Whole-run window: every transfer pays the degraded link.
        c.fabric().switch().faults().degrade_link_during(
            0,
            1,
            extra,
            Window::new(VTime(0), VTime(u64::MAX)),
        );
    }
    for p in c.ranks() {
        p.obs().enable();
    }
    let (p0, p1) = (c.rank(0), c.rank(1));
    let src = p0.register_buffer(size.max(8)).unwrap();
    let dst = p1.register_buffer(size.max(8)).unwrap();
    let d = dst.descriptor();
    for i in 0..iters {
        p0.put_with_completion(1, &src, 0, size, &d, 0, i, i).unwrap();
        let local = p0.wait_completion_matching(ProbeFlags::Any).unwrap();
        assert!(local.is_ok() && local.rid == i);
        let remote = p1.wait_completion_matching(ProbeFlags::Any).unwrap();
        assert!(remote.rid == i);
    }
    let init = p0.span_trace().spans;
    let tgt = p1.span_trace().spans;
    (
        init.into_iter().filter(|s| s.dir == SpanDir::Initiator).collect(),
        tgt.into_iter().filter(|s| s.dir == SpanDir::Target).collect(),
    )
}

/// Compute one attribution row: stage means in µs strings plus raw totals.
fn attribution_row(label: String, size: usize, iters: u64, extra: Option<u64>) -> Vec<String> {
    let (init, tgt) = staged_puts(size, iters, extra);
    let post_stage = mean_ns(&init, |s| Some(s.stage_ns?.saturating_sub(s.post_ns?)));
    let stage_inject = mean_ns(&init, |s| Some(s.inject_ns?.saturating_sub(s.stage_ns?)));
    let complete = mean_ns(&init, |s| Some(s.complete_ns?.saturating_sub(s.inject_ns?)));
    // One-way visibility: initiator post → target deliver, matched by rid
    // (the driver uses the same number for local and remote ids).
    let deliver = {
        let mut vals = Vec::new();
        for s in &init {
            let Some(post) = s.post_ns else { continue };
            if let Some(t) = tgt.iter().find(|t| t.rid == s.rid) {
                if let Some(dns) = t.deliver_ns {
                    vals.push(dns.saturating_sub(post));
                }
            }
        }
        if vals.is_empty() {
            0
        } else {
            vals.iter().sum::<u64>() / vals.len() as u64
        }
    };
    vec![label, us(post_stage), us(stage_inject), us(complete), us(deliver)]
}

/// Run the experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e18",
        "per-stage latency attribution from spans, modeled FDR IB (us)",
        &[
            "scenario",
            "post_to_stage_us",
            "stage_to_inject_us",
            "inject_to_complete_us",
            "one_way_post_to_deliver_us",
        ],
    );
    let iters = 50;
    for exp in [3usize, 10, 16] {
        let size = 1usize << exp;
        t.row(attribution_row(size_label(size), size, iters, None));
    }
    // E17 tie-in: same 8-byte shape over a link degraded by 5 µs each way.
    t.row(attribution_row("8B_degraded_5us".into(), 8, iters, Some(5_000)));
    t.note(
        "stages: post(API)->stage(payload staged)->inject(CQE)->complete(surfaced); \
         one-way = initiator post -> target deliver, rid-matched across ranks"
            .into(),
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn attribution_localizes_degraded_link_in_the_wire_stage() {
        let t = super::run();
        assert_eq!(t.rows.len(), 4);
        let col = |row: &Vec<String>, i: usize| row[i].parse::<f64>().unwrap();
        // One-way latency grows with size.
        let small = col(&t.rows[0], 4);
        let large = col(&t.rows[2], 4);
        assert!(small > 0.0, "8B one-way must be nonzero");
        assert!(large > small, "64KiB one-way {large} should exceed 8B {small}");
        // Degraded-link row: the extra 5us lands beyond staging — the
        // one-way time inflates by roughly the injected latency while the
        // post->stage (local staging copy) stays put.
        let healthy = &t.rows[0];
        let degraded = &t.rows[3];
        assert!(
            (col(degraded, 1) - col(healthy, 1)).abs() < 1.0,
            "staging cost should not change under a degraded link: {healthy:?} vs {degraded:?}"
        );
        assert!(
            col(degraded, 4) >= col(healthy, 4) + 4.0,
            "one-way should absorb ~5us of link degradation: {healthy:?} vs {degraded:?}"
        );
    }
}
