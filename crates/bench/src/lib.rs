//! # photon-bench — the experiment harness
//!
//! One binary, `photon-bench <suite>`, answers two kinds of question
//! (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured notes):
//!
//! * **Modeled paper figures** — `photon-bench figures [ids]` runs the
//!   [`experiments`] (E1–E19): **virtual-time** measurements from the
//!   LogGP-modeled fabric, rendered as a [`Table`] and a CSV under
//!   `results/`.
//! * **Wall-clock cells** — every other suite in [`suites`] (`put`, `get`,
//!   `probe`, `progress`, `sockets`, `gups`, `churn`, `micro`) returns a
//!   [`harness::Report`], written as `results/BENCH_<suite>.json` in one
//!   schema and comparable against a committed baseline with `--check`.

pub mod experiments;
pub mod harness;
pub mod report;
pub mod suites;

pub use report::Table;
