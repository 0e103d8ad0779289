//! `photon-bench <suite> [flags]` — the one runner; see
//! [`photon_bench::suites::main`] and `photon-bench` with no arguments for
//! the usage line.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(photon_bench::suites::main(&argv));
}
