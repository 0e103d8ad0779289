//! E11 — network-model validation: measured virtual-time latencies against
//! the analytic LogGP expressions, per preset.

use crate::report::{size_label, Table};
use photon_fabric::mr::Access;
use photon_fabric::verbs::{MrSlice, RemoteSlice, SendWr, WrOp};
use photon_fabric::{Cluster, FabricBackend, NetworkModel, VTime};

fn measured_oneway_ns(model: NetworkModel, size: usize) -> u64 {
    let c = Cluster::new(2, model);
    let src = c.nic(0).register(size, Access::ALL).unwrap();
    let dst = c.nic(1).register(size, Access::ALL).unwrap();
    let qp = c.nic(0).create_qp(1).unwrap();
    c.nic(0)
        .post_send(
            qp,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::whole(&src),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, size),
                    imm: Some(1),
                },
            ),
            VTime(0),
        )
        .unwrap();
    c.nic(1).poll_recv_cq().unwrap().ts.as_nanos()
}

fn analytic_oneway_ns(model: NetworkModel, size: usize) -> u64 {
    model.send_overhead_ns + model.latency_ns + model.egress_hold_ns(size)
}

/// Run the experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e11",
        "model validation: measured vs analytic one-way (ns)",
        &["model", "size", "measured", "analytic", "ratio"],
    );
    for (name, model) in [
        ("ib_fdr", NetworkModel::ib_fdr()),
        ("gemini", NetworkModel::cray_gemini()),
        ("eth10g", NetworkModel::ethernet_10g()),
    ] {
        for size in [8usize, 4096, 1 << 20] {
            let m = measured_oneway_ns(model, size);
            let a = analytic_oneway_ns(model, size);
            t.row(vec![
                name.to_string(),
                size_label(size),
                m.to_string(),
                a.to_string(),
                format!("{:.3}", m as f64 / a as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_matches_analytic_exactly() {
        let t = super::run();
        for row in &t.rows {
            assert_eq!(row[2], row[3], "measured != analytic in {row:?}");
        }
    }
}
