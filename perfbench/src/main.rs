//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn|campus|crowd-chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` serves the workload untraced
//! and prints the end-to-end metrics; `--trace 1` makes the traced run and
//! prints the per-layer metrics. Human-readable lines go first; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when a
//! correctness check fails. See `perfbench/README.md`.

mod artifacts;
mod e2e;
mod pct;
mod trace;
mod workload;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or base, for the human-readable lines.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(self, note: String) -> Metric {
        Metric { note, ..self }
    }
}

/// What a run hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Extra human-readable lines (the traced run's stage table).
    pub lines: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: serve one fleet and report it to the parent run.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)? as f64),
            "--trace" => {
                trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0)
            }
            "--child" => child = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(35.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Shortest round-trip form of a finite number; JSON `null` otherwise.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.child {
        if let Err(e) = e2e::serve_child(&args.workload, args.seed) {
            eprintln!("perfbench fleet child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = if args.trace {
        trace::run(&args.workload, args.seed)
    } else {
        e2e::run(&args.workload, args.seed, args.seconds)
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("{} is not a finite number", m.name));
        }
    }

    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = outcome.problems.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
