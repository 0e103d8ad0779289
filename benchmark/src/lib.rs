//! The repo benchmark: five closed-loop wall-clock workloads over
//! `photon-core`, `photon-fabric` and `photon-runtime`, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one. See
//! `README.md` beside this package for what each number means.

pub mod hist;
pub mod host;
pub mod json;
pub mod meter;
pub mod report;
pub mod runner;
pub mod spec;
pub mod trace;
pub mod workloads;
