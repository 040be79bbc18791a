//! `agbench` — the answer-graph pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path agbench/Cargo.toml -- \
//!     --workload cold|warm|mixed-wire --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation runs one workload in a fresh process: it generates the
//! seeded `benchmark` dataset into an N-Triples file, computes reference
//! answers with the `relational` engine, sets the program up, measures for
//! `--seconds`, checks every answer, and prints one JSON object as the last
//! line of standard output. With `--trace 0` it carries the end-to-end
//! metrics; with `--trace 1` the per-layer metrics of a traced run. See
//! `METRICS.md` for every metric and workload.

mod dataset;
mod inproc;
mod oracle;
mod stats;
mod trace;
mod wire;

use std::time::Duration;

use dataset::Dataset;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "cold" | "warm" | "mixed-wire") {
        return Err(format!(
            "unknown workload {workload} (accepted: cold, warm, mixed-wire)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn render(correct: bool, outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let data = Dataset::build()?;
    match args.workload.as_str() {
        "cold" => inproc::run(&data, args, inproc::Mode::Cold),
        "warm" => inproc::run(&data, args, inproc::Mode::Warm),
        _ => wire::run(&data, args),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("agbench: {msg}");
            std::process::exit(2);
        }
    };
    match run(&args).and_then(|outcome| render(true, &outcome)) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("agbench: {} (seed {}): {msg}", args.workload, args.seed);
            std::process::exit(1);
        }
    }
}
