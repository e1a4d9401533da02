//! The S-ToPSS repo benchmark. One process runs one workload: generate
//! its inputs from the seed, set the system up, measure for `--seconds`,
//! check the outputs, print every metric by name (see `README.md`).

mod capture;
mod harness;
mod inproc;
mod metrics;
mod population;
mod probes;
mod serve;
mod session;
mod trace;

use harness::{Args, Ledger, Outcome};

fn main() {
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}\nworkloads: {}", harness::USAGE, metrics::WORKLOADS.join(" "));
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();
    println!("workload {} seed {} seconds {}", args.workload, args.seed, args.seconds);
    let outcome = match args.workload.as_str() {
        "match-fanout" | "match-closure" | "churn-index" => {
            let spec = match args.workload.as_str() {
                "match-fanout" => inproc::Spec {
                    population: population::jobfinder(10_000, 4_000, population::POPULATION_SEED),
                    warmup_publishes: args.scaled(1_000),
                    churn: false,
                },
                "match-closure" => inproc::Spec {
                    population: population::closure(),
                    warmup_publishes: args.scaled(10_000),
                    churn: false,
                },
                _ => inproc::Spec {
                    population: population::index(),
                    warmup_publishes: args.scaled(10_000),
                    churn: true,
                },
            };
            if args.trace {
                Outcome::Layers(probes::run_inproc(&spec, &args, &mut ledger))
            } else {
                Outcome::EndToEnd(inproc::run(&spec, &args, &mut ledger))
            }
        }
        "serve-fanout" | "serve-selective" => {
            let spec = if args.workload == "serve-fanout" {
                serve::Spec::fanout()
            } else {
                serve::Spec::selective()
            };
            if args.trace {
                Outcome::Layers(probes::run_serve(&spec, &args, &mut ledger))
            } else {
                Outcome::EndToEnd(serve::run(&spec, &args, &mut ledger))
            }
        }
        "session-resume" => {
            if args.trace {
                Outcome::Layers(probes::run_session(&args, &mut ledger))
            } else {
                Outcome::EndToEnd(session::run(&args, &mut ledger))
            }
        }
        other => {
            eprintln!("unknown workload {other}; workloads: {}", metrics::WORKLOADS.join(" "));
            std::process::exit(2);
        }
    };
    harness::print_result(&args, &outcome, &ledger);
    if ledger.failed > 0 {
        std::process::exit(1);
    }
}
