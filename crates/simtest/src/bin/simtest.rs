//! `simtest` — seeded chaos campaigns for the Photon stack.
//!
//! ```text
//! simtest <campaign> [--cases N] [--seed S] [--jobs N] [--no-shrink]
//! simtest all [--cases N] [--seed S] [--jobs N] [--no-shrink]
//! SIMTEST_SEED=0x… SIMTEST_CASE=… simtest replay <campaign>
//! SIMTEST_SEED=0x… SIMTEST_CASE=… simtest show <campaign>
//! ```
//!
//! The campaign names are those of [`Campaign::all`]; the usage text (run
//! with no arguments) lists them. `replay` and `show` name the case's
//! [`Driver`]; `show` prints the generated schedule only for the drivers
//! that run one. Exit status is 1 when any case fails, so
//! the binary gates CI directly.

use photon_simtest::campaign::{dump_span_trace, parse_u64, run_one};
use photon_simtest::{run_campaign, Campaign, CampaignOpts, Driver, Schedule};

fn usage() -> ! {
    // Built from `Campaign::all()` so the list cannot drift from what
    // `Campaign::from_name` accepts.
    let names: Vec<&str> = Campaign::all().iter().map(|c| c.name()).collect();
    eprintln!(
        "usage: simtest <{}|all> [--cases N] [--seed S] [--jobs N] [--no-shrink]\n\
         \x20      SIMTEST_SEED=0x.. SIMTEST_CASE=n simtest replay <campaign>\n\
         \x20      SIMTEST_SEED=0x.. SIMTEST_CASE=n simtest show <campaign>\n\
         Campaigns: {}",
        names.join("|"),
        names.join(", ")
    );
    std::process::exit(2);
}

fn env_case() -> (u64, u64) {
    let seed = std::env::var("SIMTEST_SEED").ok().and_then(|s| parse_u64(&s));
    let case = std::env::var("SIMTEST_CASE").ok().and_then(|s| parse_u64(&s));
    match (seed, case) {
        (Some(s), Some(c)) => (s, c),
        _ => {
            eprintln!("replay/show need SIMTEST_SEED and SIMTEST_CASE set (decimal or 0x-hex)");
            std::process::exit(2);
        }
    }
}

fn campaign_arg(args: &[String]) -> Campaign {
    let Some(name) = args.first() else { usage() };
    let Some(c) = Campaign::from_name(name) else {
        eprintln!("unknown campaign '{name}'");
        usage();
    };
    c
}

fn parse_opts(args: &[String]) -> CampaignOpts {
    let mut opts = CampaignOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next().and_then(|v| parse_u64(v)).unwrap_or_else(|| {
                eprintln!("{what} needs a numeric value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--cases" => opts.cases = num("--cases"),
            "--seed" => opts.seed = num("--seed"),
            "--jobs" => opts.jobs = num("--jobs") as usize,
            "--no-shrink" => opts.shrink = false,
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    opts
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };

    match cmd.as_str() {
        "replay" => {
            let campaign = campaign_arg(&args[1..]);
            let (seed, case_id) = env_case();
            let driver = campaign.driver(case_id);
            let rep = run_one(campaign, seed, case_id);
            let case =
                format!("case ({seed:#x}, {case_id}) of {} ({driver:?} driver)", campaign.name());
            if rep.passed() {
                // Only the executor and the churn stepper count sweeps.
                let sweeps = match driver {
                    Driver::Executor | Driver::Churn => format!("{} sweeps, ", rep.sweeps),
                    _ => String::new(),
                };
                println!(
                    "{case} PASSED (digest {:#018x}, {sweeps}{} resolved-as-error)",
                    rep.digest, rep.resolved_err
                );
            } else {
                println!("{case} FAILED:");
                for v in &rep.violations {
                    println!("  - {v}");
                }
                if let Some(p) = dump_span_trace(campaign.name(), &rep) {
                    println!("  span trace: {}", p.display());
                }
                std::process::exit(1);
            }
        }
        "show" => {
            let campaign = campaign_arg(&args[1..]);
            let (seed, case_id) = env_case();
            let driver = campaign.driver(case_id);
            if driver.reads_schedule() {
                println!("{}", Schedule::generate(seed, case_id, &campaign.params()));
            } else {
                println!(
                    "case ({seed:#x}, {case_id}) of {} runs the {driver:?} driver, which reads no schedule",
                    campaign.name()
                );
            }
        }
        "all" => {
            let opts = parse_opts(&args[1..]);
            let mut failed = false;
            for c in Campaign::all() {
                let r = run_campaign(c, &opts);
                print!("{}", r.summary());
                failed |= !r.passed();
            }
            if failed {
                std::process::exit(1);
            }
        }
        _ => {
            let campaign = campaign_arg(&args);
            let opts = parse_opts(&args[1..]);
            let r = run_campaign(campaign, &opts);
            print!("{}", r.summary());
            if !r.passed() {
                std::process::exit(1);
            }
        }
    }
}
