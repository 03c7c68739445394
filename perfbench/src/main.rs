//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Notes go to
//! standard error; a failed correctness check prints `"correct": false` and
//! names the check there. Exits 2 on bad usage.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use cq_perfbench::bench::{self, Report, END_TO_END};
use cq_perfbench::gen::{self, WORKLOADS};

struct Args {
    workload: &'static gen::Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(gen::spec(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
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

fn json(report: &Report, units: &[(String, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, unit)) in units.iter().enumerate() {
        let v = report.metrics.get(name).copied().unwrap_or(f64::NAN);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        // Writing to a String cannot fail.
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, units) = if args.trace {
        let r = bench::traced(args.workload, args.seed, Path::new("perfbench/out"));
        (r, bench::per_layer())
    } else {
        let r = bench::untraced(args.workload, args.seed, args.seconds);
        let units = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        (r, units)
    };
    for note in &report.notes {
        eprintln!("perfbench {}: {note}", args.workload.name);
    }
    println!("{}", json(&report, &units));
    ExitCode::SUCCESS
}
