//! `churn` (E22): gossip membership + lazy connection cache at scale.
//!
//! Sweeps cluster size {64, 256, 1000} × churn rate {50, 100} (the
//! percentage fed to the churn plan's victim scaler) over seeded cases of
//! the simtest churn driver, with the connection-cache capacity pinned to
//! 16 so per-rank state is comparable across sizes. Each cell's `extra`
//! carries:
//!
//! * `conv_rounds_mean` — gossip rounds the post-churn convergence phase
//!   needed to reach ground truth (the O(log n) claim made measurable);
//! * `reconnect_attempts_mean` — mean send attempts until a rejoined rank
//!   accepted traffic again (each failed attempt advances one 20 µs step);
//! * `max_conn_state_bytes` / `max_member_state_bytes` — the largest
//!   connection-cache and membership-view footprints any rank ended a case
//!   with (the sublinearity claim);
//! * traffic/gossip volume counters for context.
//!
//! Cases are deterministic per (seed, case id), so every `extra` value is
//! reproducible bit-for-bit. `ops` is the operations posted and `ns_total`
//! the cell's wall time, recorded as a convenience — the virtual-time
//! metrics are the signal.

use crate::harness::{Args, Cell, Report};
use photon_simtest::{run_churn_case_metrics, ChurnMetrics, SimParams};
use std::time::Instant;

const SEED: u64 = 0xE22_C41;
const CAP: usize = 16;

fn cell(nodes: usize, churn_pct: u8, cases: u32) -> Cell {
    let params = SimParams {
        min_nodes: nodes,
        max_nodes: nodes,
        min_ops: 16,
        max_ops: 16,
        crash_pct: churn_pct,
        ..SimParams::churn()
    };
    let t0 = Instant::now();
    let mut agg = ChurnMetrics::default();
    let (mut conv_sum, mut conv_n, mut violations) = (0u64, 0u64, 0usize);
    for case_id in 0..cases as u64 {
        let (rep, m) = run_churn_case_metrics(SEED, case_id, &params, Some(CAP));
        violations += rep.violations.len();
        if let Some(rounds) = m.conv_rounds {
            conv_sum += rounds;
            conv_n += 1;
        }
        agg.posted += m.posted;
        agg.resolved_ok += m.resolved_ok;
        agg.resolved_err += m.resolved_err;
        agg.gossip_msgs += m.gossip_msgs;
        agg.reconnect_attempts += m.reconnect_attempts;
        agg.max_conn_state = agg.max_conn_state.max(m.max_conn_state);
        agg.max_member_state = agg.max_member_state.max(m.max_member_state);
    }
    let conv = if conv_n > 0 { conv_sum as f64 / conv_n as f64 } else { f64::NAN };
    Cell::new(format!("churn_n{nodes}_p{churn_pct}"), agg.posted, t0.elapsed().as_nanos() as u64)
        .with("nodes", nodes as f64)
        .with("cases", cases as f64)
        .with("conv_rounds_mean", conv)
        .with("reconnect_attempts_mean", agg.reconnect_attempts as f64 / cases as f64)
        .with("max_conn_state_bytes", agg.max_conn_state as f64)
        .with("max_member_state_bytes", agg.max_member_state as f64)
        .with("resolved_ok", agg.resolved_ok as f64)
        .with("resolved_err", agg.resolved_err as f64)
        .with("gossip_msgs", agg.gossip_msgs as f64)
        .with("violations", violations as f64)
}

/// The `churn` suite (`--smoke`: the 64-node cells only; `--reps` is the
/// number of seeded cases per cell, which are averaged, not minimised).
pub fn run(a: &Args) -> Report {
    let sizes: &[usize] = if a.smoke { &[64] } else { &[64, 256, 1000] };
    let cases = a.reps(2, 1);
    let mut r = Report::new(a, cases);
    r.stat = "mean_over_seeded_cases".to_string();
    for &n in sizes {
        for pct in [50u8, 100] {
            r.cells.push(cell(n, pct, cases));
        }
    }
    // Headline verdicts: convergence everywhere, and connection state flat
    // across an order-of-magnitude size change (the cache cap at work).
    let extra = |c: &Cell, key: &str| c.get(key).unwrap_or(f64::NAN);
    let any_viol = r.cells.iter().any(|c| extra(c, "violations") > 0.0);
    r.verdicts.push(format!(
        "all cells converged without violations -> {}",
        if any_viol { "FAIL" } else { "PASS" }
    ));
    if let (Some(small), Some(big)) = (r.cells.first(), r.cells.last()) {
        let nodes = |c: &Cell| extra(c, "nodes");
        if nodes(small) != nodes(big) {
            let state = |c: &Cell| extra(c, "max_conn_state_bytes");
            let ratio = state(big) / state(small).max(1.0);
            r.verdicts.push(format!(
                "conn state {}B @ n={} vs {}B @ n={} (x{ratio:.2} for x{:.1} nodes) -> {}",
                state(small),
                nodes(small),
                state(big),
                nodes(big),
                nodes(big) / nodes(small),
                if ratio < 2.0 { "PASS" } else { "FAIL" }
            ));
        }
    }
    r.notes.push(format!("seed {SEED:#x}, connection cache capped at {CAP} entries"));
    r
}
