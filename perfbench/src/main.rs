//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole simulations and prints the end-to-end metrics;
//! `--trace 1` runs the traced pass and the layer harnesses and prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod harness;
mod report;
mod run;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let (metrics, tally) = if args.trace {
        let spans =
            PathBuf::from("perfbench/out").join(format!("spans-{name}-seed{}.json", args.seed));
        run::traced(args.workload, args.seed, &spans)
    } else {
        run::untraced(args.workload, args.seed, args.seconds)
    };
    eprintln!(
        "{name} seed {} ({}): {} simulations, {} failed\n{}",
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed,
        metrics.table()
    );
    println!(
        "{}",
        report::result_json(tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
