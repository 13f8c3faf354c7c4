//! The repository benchmark. One run executes one named workload in this
//! process, checks that its outputs are correct, and prints every metric
//! by name and unit; the last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sim --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` times each layer from outside, through its crate's public
//! functions, and writes the spans as Chrome trace-event JSON to
//! `perfbench/out/<workload>-<seed>.trace.json`. A failed correctness
//! check makes the command exit with status 1.

mod chaos;
mod probes;
mod quality;
mod report;
mod sim;
mod spans;
mod speed;
mod stats;
mod tcp;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};
use spans::{chrome_json, peak_rss_mib, SpanBuf};

const WORKLOADS: [&str; 4] = ["paper_sim", "incast_sim", "tcp_wide", "chaos_fuzz"];

/// Cores the host offers (the denominator of CPU utilisation).
pub fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(12.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    let mut spans = SpanBuf::new(0);
    let Args {
        seed,
        seconds,
        trace,
        ..
    } = args;
    match (args.workload.as_str(), trace) {
        ("paper_sim", false) => sim::run(sim::Net::PaperUnderAttack, seed, seconds, &mut r),
        ("paper_sim", true) => sim::traced(sim::Net::PaperUnderAttack, seed, &mut spans, &mut r),
        ("incast_sim", false) => sim::run(sim::Net::Incast, seed, seconds, &mut r),
        ("incast_sim", true) => sim::traced(sim::Net::Incast, seed, &mut spans, &mut r),
        ("tcp_wide", false) => tcp::run(seed, seconds, &mut r),
        ("tcp_wide", true) => tcp::traced(seed, &mut spans, &mut r),
        ("chaos_fuzz", false) => chaos::run(seed, seconds, &mut r),
        ("chaos_fuzz", true) => chaos::traced(seed, seconds, &mut spans, &mut r),
        _ => unreachable!("workload names are checked by parse"),
    }
    for e in &r.errors {
        eprintln!("perfbench: correctness check failed: {e}");
    }
    if !r.errors.is_empty() {
        // A failed run's figures are not measurements: print the verdict only.
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            r.attempted.max(1),
            r.failed
        );
        return ExitCode::from(1);
    }
    let catalogue = if trace {
        let path = format!("perfbench/out/{}-{seed}.trace.json", args.workload);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, chrome_json(spans.spans())));
        match written {
            Ok(()) => r.note(
                format!("spans ({path})"),
                spans.spans().len() as f64,
                "count",
            ),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        PER_LAYER
    } else {
        r.set("peak_rss_mib", peak_rss_mib());
        END_TO_END
    };
    print!("{}", r.render(catalogue));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload tcp_wide --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tcp_wide", 7, 12.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload paper_sim --trace 2").is_err());
        assert!(args("--workload paper_sim --seed").is_err());
        assert!(args("--seed 1").is_err());
    }
}
