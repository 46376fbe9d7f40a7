//! covern's benchmark.
//!
//! ```text
//! covbench --workload <stream-scale|campaign-fleet|daemon-open-loop>
//!          --seed <n> --seconds <s> --trace <0|1> [--cli <covern_cli>] [--out <dir>]
//! ```
//!
//! Generates every input from `--seed`, measures for `--seconds`, checks
//! the outputs, prints every metric with its unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. Any
//! correctness-gate violation exits with code 1.

mod common;
mod daemon;
mod fleet;
mod layers;
mod stats;
mod stream;
mod trace;

use common::{Outcome, RunConfig, END_TO_END};
use std::path::PathBuf;

const USAGE: &str = "usage: covbench --workload <stream-scale|campaign-fleet|daemon-open-loop> \
                     --seed <n> --seconds <s> --trace <0|1> [--cli <covern_cli>] [--out <dir>]";

fn parse() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: None,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value == "1",
            "--cli" => cfg.cli = Some(PathBuf::from(value)),
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok((workload.ok_or(USAGE)?, cfg))
}

fn main() {
    let (workload, cfg) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let result = match workload.as_str() {
        "stream-scale" => stream::run(&cfg),
        "campaign-fleet" => fleet::run(&cfg),
        "daemon-open-loop" => daemon::run(&cfg),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("covbench {workload}: {e}");
            std::process::exit(1);
        }
    };
    std::process::exit(report(&workload, &cfg, &outcome));
}

/// Prints the notes, a metric table and the JSON result line; returns the
/// exit code.
fn report(workload: &str, cfg: &RunConfig, o: &Outcome) -> i32 {
    let catalog: Vec<(String, &str)> = if cfg.trace {
        common::per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect()
    };
    let mut violations = o.violations.clone();
    println!(
        "# covbench {workload} seed={} seconds={} trace={} nproc={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        common::nproc()
    );
    for note in &o.notes {
        println!("# {note}");
    }
    let failed_share = o.failed as f64 / o.attempted.max(1) as f64;
    println!("# attempted {} failed {} (failed_share {failed_share})", o.attempted, o.failed);
    let mut json = Vec::new();
    for (name, unit) in &catalog {
        let value = match o.metrics.get(name) {
            Some(v) => *v,
            // Per-layer metrics a workload does not reach read 0; an
            // end-to-end metric must always be measured.
            None if cfg.trace => 0.0,
            None => {
                violations.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            violations.push(format!("metric {name} is not finite"));
        }
        println!("{name:<36} {value:>16} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    for v in &violations {
        println!("# CORRECTNESS VIOLATION: {v}");
    }
    let correct = violations.is_empty() && o.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        json.join(", ")
    );
    i32::from(!correct)
}
