//! Command line of the Ouessant benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mixed-backlog|chaos-deadline|sparse-idle|paper-repro> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//! ```
//!
//! Prints notes, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes a Chrome trace, by default to `perfbench/out/`). Exits 1 when
//! an output check fails, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use ouessant_perfbench::runner::{end_to_end, per_layer, Options, DEFAULT_SEED};
use ouessant_perfbench::workload::Workload;

const USAGE: &str = "usage: ouessant-perfbench --workload <mixed-backlog|chaos-deadline|sparse-idle|paper-repro> [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.replace('_', "").parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut trace = false;
    let mut options = Options {
        workload: Workload::MixedBacklog,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace_out: None,
        batches: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                options.seed = parse_u64(v).ok_or_else(|| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                options.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {v}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => options.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok((options, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if trace {
        per_layer(&options)
    } else {
        end_to_end(&options)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for metric in &outcome.metrics {
        println!(
            "  {:<32} {:>18.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for problem in &outcome.problems {
        eprintln!("FAIL: {problem}");
    }
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
