//! One module per reconstructed figure/table. Each exposes
//! `run() -> Table`; the `figures` binary dispatches by id.

pub mod drivers;
pub mod e10_ledger;
pub mod e11_model;
pub mod e12_regcache;
pub mod e13_imm;
pub mod e14_coalesce;
pub mod e15_fabrics;
pub mod e16_locality;
pub mod e17_failure;
pub mod e18_attribution;
pub mod e19_rpc;
pub mod e1_latency;
pub mod e2_bandwidth;
pub mod e3_msgrate;
pub mod e4_crossover;
pub mod e5_probe;
pub mod e6_collectives;
pub mod e7_overlap;
pub mod e8_apps;

use crate::report::Table;

/// All experiment ids, in presentation order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8a", "e8b", "e8c", "e10", "e11", "e12", "e13",
    "e14", "e15", "e16", "e17", "e18", "e19",
];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Table> {
    Some(match id {
        "e1" => e1_latency::run(),
        "e2" => e2_bandwidth::run(),
        "e3" => e3_msgrate::run(),
        "e4" => e4_crossover::run(),
        "e5" => e5_probe::run(),
        "e6" => e6_collectives::run(),
        "e7" => e7_overlap::run(),
        "e8a" => e8_apps::run_gups(),
        "e8b" => e8_apps::run_stencil(),
        "e8c" => e8_apps::run_parcel_rate(),
        "e10" => e10_ledger::run(),
        "e11" => e11_model::run(),
        "e12" => e12_regcache::run(),
        "e13" => e13_imm::run(),
        "e14" => e14_coalesce::run(),
        "e15" => e15_fabrics::run(),
        "e16" => e16_locality::run(),
        "e17" => e17_failure::run(),
        "e18" => e18_attribution::run(),
        "e19" => e19_rpc::run(),
        _ => return None,
    })
}

/// A Photon config sized for large-rank-count experiments (keeps the
/// per-pair service memory small).
pub fn compact_photon_config() -> photon_core::PhotonConfig {
    photon_core::PhotonConfig {
        ledger_entries: 64,
        eager_ring_bytes: 16 * 1024,
        eager_threshold: 4096,
        ..photon_core::PhotonConfig::default()
    }
}

/// The matching compact baseline config.
pub fn compact_msg_config() -> photon_msg::MsgConfig {
    photon_msg::MsgConfig {
        pool_slots: 64,
        eager_threshold: 4096,
        ..photon_msg::MsgConfig::default()
    }
}
