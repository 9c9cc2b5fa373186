//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! see the library docs for the workloads, phases and metrics.

use perfbench::run::{self, Outcome};
use perfbench::traced;
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A run that has not finished by now has hung: it exits non-zero so the
/// caller never waits past its own 180 s limit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Where runs write snapshots and span files, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Parse the flags; a flag given twice takes its last value.
fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {value} is outside (0, 60]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: the run hung for {} s", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let mut outcome: Outcome = if args.trace {
        traced::run(args.workload, args.seed, &out_dir)
    } else {
        run::run(args.workload, args.seed, args.seconds, &out_dir)
    };
    let broken: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !broken.is_empty() {
        println!(
            "FAILED: metrics without a finite value: {}",
            broken.join(", ")
        );
        outcome
            .failures
            .add(broken.len() as u64, "metrics without a finite value");
    }
    // JSON has no NaN or infinity; a broken metric prints as 0 and the
    // run is already marked incorrect.
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = outcome.failures.count == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failures.count,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
