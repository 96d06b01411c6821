//! `uniloc` — command-line driver for the UniLoc reproduction.
//!
//! ```text
//! uniloc train [--seed N] [--out FILE]          train error models, write JSON
//! uniloc run   --models FILE [--scenario NAME]  walk a venue with trained models
//!              [--seed N] [--device nexus5x|lgg3] [--json]
//!              [--metrics FILE] [--trace-level LEVEL] [--virtual-clock]
//! uniloc inspect --models FILE                  print trained coefficients
//! uniloc inspect-metrics --file FILE [--json]   summarize a --metrics JSONL sidecar
//!                                               (--json emits the snapshot as JSON)
//! uniloc inspect-calibration --file FILE        per-scheme reliability bins, coverage
//!                                               and drift state from a sidecar
//! uniloc inspect-flight --file FILE [--full]    flight-recorder postmortems from a
//!                                               sidecar (--full pretty-prints dumps)
//! uniloc bench-diff [--baseline DIR] [--candidate DIR]
//!                   [--threshold X] [--warn-only]
//!                                               diff BENCH_*.json latency breakdowns
//!                                               against the committed baselines
//! uniloc chaos [--plans smoke|full] [--jobs N]  scenario x fault-plan resilience sweep
//!                                               (parallel, deterministic at any --jobs)
//! uniloc fleet [--sessions N] [--obs-stub]      fleet-scale load generator; also writes
//!              [--shards N] [--obs-overhead]    FLEET_HEALTH.json + PROF_fleet.* +
//!              [--top-k N] [--alloc-budget N]   PROF_alloc.* from the fleet observatory
//! uniloc inspect-fleet [--file FILE] [--strict] fleet SLO/health table from a
//!                      [--json]                 FLEET_HEALTH.json artifact
//! uniloc inspect-alloc [--file FILE] [--json]   per-stage heap profile table from a
//!                                               PROF_alloc.json artifact
//! uniloc scenarios                              list available venues
//! ```
//!
//! Global flags: `--quiet` silences progress output (progress is routed
//! through the `uniloc-obs` tracing facade at `info` level, not
//! `eprintln!`, so any subscriber can capture it). `--trace-level` takes
//! `off|error|warn|info|debug|span`; `--virtual-clock` timestamps the
//! sidecar with simulation time so same-seed runs are byte-identical.
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy has no
//! CLI crate); flags are order-independent `--key value` pairs.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use uniloc_bench::chaos::scenario_by_name;
use uniloc_core::error_model::{train, ErrorModelSet};
use uniloc_core::pipeline::{self, PipelineConfig};
use uniloc_env::venues;
use uniloc_iodetect::IoState;
use uniloc_obs::{
    JsonlExporter, MultiSubscriber, StderrSubscriber, Subscriber, TraceLevel, VirtualClock,
};
use uniloc_schemes::SchemeId;
use uniloc_sensors::DeviceProfile;
use uniloc_stats::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exporter = match init_obs(&flags) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&flags),
        "run" => cmd_run(&flags, exporter.as_deref()),
        "inspect" => cmd_inspect(&flags),
        "inspect-metrics" => cmd_inspect_metrics(&flags),
        "inspect-calibration" => cmd_inspect_calibration(&flags),
        "inspect-flight" => cmd_inspect_flight(&flags),
        "bench-diff" => cmd_bench_diff(&flags),
        "chaos" => cmd_chaos(&flags, exporter.as_deref()),
        "fleet" => cmd_fleet(&flags),
        "inspect-fleet" => cmd_inspect_fleet(&flags),
        "inspect-alloc" => cmd_inspect_alloc(&flags),
        "scenarios" => cmd_scenarios(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    uniloc_obs::global().flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  uniloc train [--seed N] [--out FILE]
  uniloc run --models FILE [--scenario NAME] [--seed N] [--device nexus5x|lgg3] [--json]
             [--metrics FILE] [--trace-level off|error|warn|info|debug|span] [--virtual-clock]
  uniloc inspect --models FILE
  uniloc inspect-metrics --file FILE [--json]
  uniloc inspect-calibration --file FILE
  uniloc inspect-flight --file FILE [--full]
  uniloc bench-diff [--baseline DIR] [--candidate DIR] [--threshold X] [--warn-only]
  uniloc chaos [--models FILE] [--scenarios a,b] [--plans smoke|full|p1,p2] [--seed N]
               [--out DIR] [--strict] [--jobs N]
  uniloc fleet [--models FILE] [--sessions N] [--scenarios a,b] [--seed N] [--jobs N]
               [--resident N] [--max-epochs N] [--chaos-every N] [--out DIR] [--bench]
               [--strict] [--shards N] [--obs-stub] [--top-k N] [--alloc-budget N]
               [--obs-overhead] [--overhead-budget X] [--overhead-passes N]
               [--checkpoint-every N] [--checkpoint FILE] [--resume FILE]
               [--crash-after-rounds N] [--panic-lane N] [--panic-epoch N]
  uniloc inspect-fleet [--file FILE] [--strict] [--json]
  uniloc inspect-alloc [--file FILE] [--json]
  uniloc scenarios
global flags: --quiet (suppress progress output)
  --jobs N: worker threads for sweep commands (default: available cores);
            artifacts are byte-identical at any value, --jobs 1 runs inline";

/// Configures the global `uniloc-obs` dispatcher from the flags: a stderr
/// progress printer (unless `--quiet`), a JSONL exporter when `--metrics
/// FILE` is given (returned so `cmd_run` can append the metrics snapshot),
/// the flight recorder (whose postmortems go to the same exporter), and a
/// deterministic [`VirtualClock`] under `--virtual-clock`.
fn init_obs(flags: &BTreeMap<String, String>) -> Result<Option<Arc<JsonlExporter>>, String> {
    let quiet = flags.contains_key("quiet");
    let exporter = match flags.get("metrics") {
        Some(path) => Some(Arc::new(
            JsonlExporter::to_file(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => None,
    };
    let level = match flags.get("trace-level") {
        Some(s) => TraceLevel::parse(s)?,
        // Spans are only worth dispatching when something records them.
        None if exporter.is_some() => Some(TraceLevel::Span),
        None => Some(TraceLevel::Info),
    };
    let mut subs: Vec<Arc<dyn Subscriber>> = Vec::new();
    if !quiet {
        subs.push(Arc::new(StderrSubscriber::new(TraceLevel::Info)));
    }
    if let Some(e) = &exporter {
        subs.push(Arc::clone(e) as Arc<dyn Subscriber>);
    }
    // The flight recorder rides the subscriber chain so its ring always
    // holds the recent window; postmortems land in the metrics sidecar.
    let flight = uniloc_obs::global_flight();
    flight.set_sink(exporter.clone());
    subs.push(Arc::clone(&flight) as Arc<dyn Subscriber>);
    let d = uniloc_obs::global();
    d.set_level(level);
    d.set_subscriber(match subs.len() {
        0 => None,
        1 => Some(subs.pop().expect("one subscriber")),
        _ => Some(Arc::new(MultiSubscriber::new(subs))),
    });
    if flags.contains_key("virtual-clock") {
        d.set_clock(Arc::new(VirtualClock::new()));
    }
    Ok(exporter)
}

/// Parses `--key value` pairs (and bare `--flag` booleans).
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key.to_owned(), args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key.to_owned(), "true".to_owned());
            i += 1;
        }
    }
    Ok(flags)
}

fn seed_flag(flags: &BTreeMap<String, String>) -> Result<u64, String> {
    match flags.get("seed") {
        Some(s) => s.parse().map_err(|_| format!("--seed must be an integer, got `{s}`")),
        None => Ok(1),
    }
}

/// `--jobs N` (default: the machine's available cores). Sweep artifacts
/// are byte-identical at any value; `--jobs 1` runs inline with no worker
/// threads.
fn jobs_flag(flags: &BTreeMap<String, String>) -> Result<usize, String> {
    match flags.get("jobs") {
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--jobs must be a positive integer, got `{s}`")),
        },
        None => Ok(std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)),
    }
}

fn cmd_train(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let seed = seed_flag(flags)?;
    let out = flags.get("out").map(String::as_str).unwrap_or("uniloc-models.json");
    let cfg = PipelineConfig::default();
    uniloc_obs::info!("collecting training data (office + open space, seed {seed}) ...");
    let mut samples = pipeline::collect_training(&venues::training_office(seed), &cfg, seed + 10);
    samples.extend(pipeline::collect_training(
        &venues::training_open_space(seed + 1),
        &cfg,
        seed + 11,
    ));
    uniloc_obs::info!("  {} samples", samples.len());
    let models = train(&samples).map_err(|e| format!("training failed: {e}"))?;
    let json = uniloc_stats::json::to_string_pretty(&models);
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    uniloc_obs::info!("wrote {out}");
    Ok(())
}

fn load_models(flags: &BTreeMap<String, String>) -> Result<ErrorModelSet, String> {
    let path = flags.get("models").ok_or("--models FILE is required")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    uniloc_stats::json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_run(flags: &BTreeMap<String, String>, exporter: Option<&JsonlExporter>) -> Result<(), String> {
    let models = load_models(flags)?;
    let seed = seed_flag(flags)?;
    let name = flags.get("scenario").map(String::as_str).unwrap_or("path1");
    let scenario = scenario_by_name(name, seed)?;
    let device = match flags.get("device").map(String::as_str) {
        None | Some("nexus5x") => DeviceProfile::nexus_5x(),
        Some("lgg3") => DeviceProfile::lg_g3(),
        Some(other) => return Err(format!("unknown device `{other}`")),
    };
    let cfg = PipelineConfig { device, ..PipelineConfig::default() };
    uniloc_obs::info!("walking {} ({:.0} m) ...", scenario.name, scenario.route.length());
    let records = pipeline::run_walk(&scenario, &models, &cfg, seed + 100);

    // Append the end-of-run metrics and calibration snapshots (counters,
    // gauges, span-timing and residual histograms, then the per-scheme
    // calibration cells) after the trace events already streamed out.
    if let Some(e) = exporter {
        for line in uniloc_obs::global_metrics().snapshot().jsonl_lines() {
            e.write_line(&line);
        }
        for line in uniloc_obs::global_calibration().snapshot().jsonl_lines() {
            e.write_line(&line);
        }
        e.flush();
    }

    if flags.contains_key("json") {
        let json = uniloc_stats::json::to_string(&records);
        println!("{json}");
        return Ok(());
    }

    println!("{:<10}{:>10}{:>12}", "system", "mean (m)", "available");
    for id in SchemeId::BUILTIN {
        let mean = pipeline::scheme_mean_error(&records, id);
        let avail = records
            .iter()
            .filter(|r| r.scheme_errors.iter().any(|(s, e)| *s == id && e.is_some()))
            .count() as f64
            / records.len() as f64;
        match mean {
            Some(m) => println!("{:<10}{m:>10.2}{:>11.1}%", id.to_string(), avail * 100.0),
            None => println!("{:<10}{:>10}{:>11.1}%", id.to_string(), "-", avail * 100.0),
        }
    }
    for (label, v) in [
        ("oracle", pipeline::mean_defined(records.iter().map(|r| r.oracle_error))),
        ("uniloc1", pipeline::mean_defined(records.iter().map(|r| r.uniloc1_error))),
        ("uniloc2", pipeline::mean_defined(records.iter().map(|r| r.uniloc2_error))),
    ] {
        match v {
            Some(m) => println!("{label:<10}{m:>10.2}"),
            None => println!("{label:<10}{:>10}", "-"),
        }
    }
    Ok(())
}

fn cmd_inspect(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let models = load_models(flags)?;
    for io in [IoState::Indoor, IoState::Outdoor] {
        println!("== {io} ==");
        for id in SchemeId::BUILTIN {
            match models.model(id, io) {
                Some(m) => println!(
                    "  {id:<9} intercept={:+7.2} coeffs={:?} sigma={:.2} R2={:.2} n={}",
                    m.intercept,
                    m.coefficients
                        .iter()
                        .map(|c| (c * 1000.0).round() / 1000.0)
                        .collect::<Vec<_>>(),
                    m.sigma,
                    m.r_squared,
                    m.n_obs
                ),
                None => println!("  {id:<9} (no model)"),
            }
        }
    }
    Ok(())
}

/// Reads a `--metrics` JSONL sidecar back and pretty-prints its metric
/// lines: counters, gauges, then histograms with count/mean/p50/p90/p99.
/// Trace-event lines (kind `span`/`event`) are counted but not rendered.
/// With `--json`, emits the reassembled [`uniloc_obs::MetricsSnapshot`] as
/// one JSON document instead — the machine-readable format `bench-diff`
/// and external tooling share.
fn cmd_inspect_metrics(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags.get("file").ok_or("--file FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut snap = uniloc_obs::MetricsSnapshot::default();
    let mut spans = 0usize;
    let mut events = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let absorbed =
            snap.absorb_jsonl(&doc).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if !absorbed {
            match doc.get("kind").and_then(Json::as_str) {
                Some("span") => spans += 1,
                _ => events += 1,
            }
        }
    }
    if flags.contains_key("json") {
        println!("{}", uniloc_stats::json::to_string(&snap));
        return Ok(());
    }
    println!("{path}: {spans} span records, {events} events");
    if !snap.counters.is_empty() {
        println!("counters:");
        for (name, v) in &snap.counters {
            println!("  {name:<40} {v}");
        }
    }
    if !snap.gauges.is_empty() {
        println!("gauges:");
        for (name, v) in &snap.gauges {
            println!("  {name:<40} {v:.4}");
        }
    }
    if !snap.histograms.is_empty() {
        println!("histograms:");
        println!(
            "  {:<40} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "name", "count", "mean", "p50", "p90", "p99"
        );
        for (name, h) in &snap.histograms {
            match (h.mean(), h.summary()) {
                (Some(mean), Some((p50, p90, p99))) => println!(
                    "  {name:<40} {:>8} {mean:>12.2} {p50:>12.2} {p90:>12.2} {p99:>12.2}",
                    h.count()
                ),
                _ => println!("  {name:<40} {:>8} (empty)", h.count()),
            }
        }
    }
    Ok(())
}

/// Reads the `"kind":"calibration"` cells out of a `--metrics` sidecar and
/// prints each scheme × environment's reliability diagnostics: PIT bin
/// counts, nominal-vs-observed coverage, sharpness and drift state.
fn cmd_inspect_calibration(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags.get("file").ok_or("--file FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut snap = uniloc_obs::CalibrationSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        snap.absorb_jsonl(&doc).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
    }
    if snap.cells.is_empty() {
        println!("{path}: no calibration cells (was the run recorded with --metrics?)");
        return Ok(());
    }
    for cell in &snap.cells {
        println!("== {} / {} ==", cell.scheme, cell.io);
        println!("  observations: {} ({} dropped non-finite)", cell.n, cell.dropped);
        let bins: Vec<String> = cell.pit_counts.iter().map(u64::to_string).collect();
        println!("  reliability bins (PIT 0..1): [{}]", bins.join(", "));
        let cov: Vec<String> = cell
            .quantiles
            .iter()
            .zip(&cell.coverage)
            .map(|(q, c)| format!("{q:.2}->{c:.3}"))
            .collect();
        println!("  coverage (nominal->observed): {}", cov.join("  "));
        println!(
            "  sharpness: predicted {:.2} m (sigma {:.2} m), realized {:.2} m, residual {:+.2} m",
            cell.mean_predicted, cell.mean_sigma, cell.mean_realized, cell.mean_residual
        );
        println!(
            "  drift: cusum +{:.2}/-{:.2}, {} alarm(s)",
            cell.cusum_pos, cell.cusum_neg, cell.drift_alarms
        );
    }
    Ok(())
}

/// Reads the `"kind":"flight"` postmortem dumps out of a `--metrics`
/// sidecar. Default output is one summary line per dump; `--full`
/// pretty-prints the complete dumps (window events, counter deltas,
/// gauges).
fn cmd_inspect_flight(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags.get("file").ok_or("--file FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut dumps = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if doc.get("kind").and_then(Json::as_str) == Some("flight") {
            dumps.push(doc);
        }
    }
    if dumps.is_empty() {
        println!("{path}: no flight-recorder dumps (the run hit no anomaly)");
        return Ok(());
    }
    println!("{path}: {} flight-recorder dump(s)", dumps.len());
    for dump in &dumps {
        if flags.contains_key("full") {
            println!("{}", dump.to_string_pretty());
            continue;
        }
        let seq = dump.get("seq").and_then(Json::as_i64).unwrap_or(-1);
        let reason = dump.get("reason").and_then(Json::as_str).unwrap_or("?");
        let t_ns = dump.get("t_ns").and_then(Json::as_i64).unwrap_or(0);
        let events = dump.get("events").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        let deltas =
            dump.get("counters_delta").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        println!(
            "  #{seq} {reason:<22} t={:.1}s window={events} events, {deltas} counters moved",
            t_ns as f64 / 1e9
        );
    }
    Ok(())
}

/// The bench-regression gate: diffs `BENCH_*.json` latency breakdowns in
/// `--candidate DIR` against `--baseline DIR` (both default to
/// `results/`, so a bare `uniloc bench-diff` self-checks the committed
/// baselines). Structural drift (missing stages, changed span counts)
/// always fails; mean-latency growth fails beyond `--threshold` (relative,
/// default 4.0 = five-fold). `--warn-only` reports without failing.
fn cmd_bench_diff(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use uniloc_bench::regression::{diff_dirs, DiffConfig};
    let baseline = flags.get("baseline").map(String::as_str).unwrap_or("results");
    let candidate = flags.get("candidate").map(String::as_str).unwrap_or(baseline);
    let mut cfg = DiffConfig::default();
    if let Some(t) = flags.get("threshold") {
        cfg.latency_tolerance = t
            .parse()
            .map_err(|_| format!("--threshold must be a number, got `{t}`"))?;
    }
    let outcome = diff_dirs(baseline, candidate, &cfg)?;
    for (name, findings) in &outcome.compared {
        if findings.is_empty() {
            println!("ok   {name}");
        } else {
            for f in findings {
                let tag = if f.is_regression() { "FAIL" } else { "note" };
                println!("{tag} {name}: {f}");
            }
        }
    }
    for name in &outcome.skipped {
        println!("skip {name} (not in candidate dir)");
    }
    let regressions = outcome.regressions().count();
    if regressions == 0 {
        println!(
            "no regression across {} bench(es) ({} skipped)",
            outcome.compared.len(),
            outcome.skipped.len()
        );
        Ok(())
    } else if flags.contains_key("warn-only") {
        println!("{regressions} regression finding(s) — warn-only mode, not failing");
        Ok(())
    } else {
        Err(format!("{regressions} bench regression finding(s)"))
    }
}

/// `uniloc chaos`: sweeps a scenario × fault-plan matrix deterministically
/// as one fleet run on up to `--jobs N` worker threads (default: the
/// machine's available cores) and writes one resilience report per
/// scenario to `--out DIR` (default `results/`) as `CHAOS_<scenario>.json`.
/// The sweep itself lives in [`uniloc_bench::chaos`]; results merge in
/// canonical lane order, so the artifacts are byte-identical at any
/// `--jobs` value and `--jobs 1` steps every walker inline. `--strict` turns the
/// resilience contract into an exit code: a terminal `lost` ladder state,
/// any non-finite fused estimate, or a quarantine that never lifts fails
/// the command — the CI smoke gate runs exactly this against the `smoke`
/// plan set at both `--jobs 1` and `--jobs 4` and diffs the artifacts.
fn cmd_chaos(flags: &BTreeMap<String, String>, exporter: Option<&JsonlExporter>) -> Result<(), String> {
    use uniloc_bench::chaos::{run_sweep, ChaosConfig};
    use uniloc_faults::FaultPlan;

    let seed = seed_flag(flags)?;
    let jobs = jobs_flag(flags)?;
    let out_dir = flags.get("out").map(String::as_str).unwrap_or("results");
    let strict = flags.contains_key("strict");
    let cfg = PipelineConfig::default();

    let models = models_or_train(flags, &cfg, seed)?;

    let scenario_names: Vec<String> = flags
        .get("scenarios")
        .map(|s| s.split(',').map(str::to_owned).collect())
        .unwrap_or_else(|| vec!["office".to_owned(), "path1".to_owned()]);
    let plans: Vec<FaultPlan> = match flags.get("plans").map(String::as_str) {
        None | Some("smoke") => FaultPlan::smoke_library(),
        Some("full") => FaultPlan::library(),
        Some(list) => list
            .split(',')
            .map(|n| FaultPlan::by_name(n).ok_or_else(|| format!("unknown fault plan `{n}`")))
            .collect::<Result<_, _>>()?,
    };

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let sweep = run_sweep(&models, &cfg, &ChaosConfig { seed, scenario_names, plans, jobs })?;

    for report in &sweep.reports {
        let path = format!("{out_dir}/{}", report.file_name());
        std::fs::write(&path, report.report.to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");
    }

    // The walkers ran under isolated observability sessions; their merged
    // sidecar (lane-ordered, jobs-count-invariant) lands in the --metrics
    // file after the trace events that streamed from the main thread.
    if let Some(e) = exporter {
        for line in sweep.obs.metrics.jsonl_lines() {
            e.write_line(&line);
        }
        for line in sweep.obs.calibration.jsonl_lines() {
            e.write_line(&line);
        }
        for line in &sweep.obs.flight_lines {
            e.write_line(line);
        }
        e.flush();
    }

    if sweep.violations.is_empty() {
        uniloc_obs::info!("chaos sweep clean: every run stayed finite and recovered");
        Ok(())
    } else {
        for v in &sweep.violations {
            eprintln!("chaos violation: {v}");
        }
        if strict {
            Err(format!("{} resilience violation(s)", sweep.violations.len()))
        } else {
            uniloc_obs::info!(
                "{} violation(s) — rerun with --strict to fail on them",
                sweep.violations.len()
            );
            Ok(())
        }
    }
}

/// `--models FILE` when given, otherwise the standard in-process training
/// pass (office + open space) on `seed` — shared by the sweep commands.
fn models_or_train(
    flags: &BTreeMap<String, String>,
    cfg: &PipelineConfig,
    seed: u64,
) -> Result<ErrorModelSet, String> {
    match flags.get("models") {
        Some(_) => load_models(flags),
        None => {
            uniloc_obs::info!("no --models given; training in-process (seed {seed}) ...");
            let mut samples =
                pipeline::collect_training(&venues::training_office(seed), cfg, seed + 10);
            samples.extend(pipeline::collect_training(
                &venues::training_open_space(seed + 1),
                cfg,
                seed + 11,
            ));
            train(&samples).map_err(|e| format!("training failed: {e}"))
        }
    }
}

/// `--<key> N` as a positive integer, with a default.
fn usize_flag(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, String> {
    match flags.get(key) {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--{key} must be a non-negative integer, got `{s}`")),
        None => Ok(default),
    }
}

/// `--<key> X` as a finite float, with a default.
fn f64_flag(flags: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        Some(s) => match s.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(format!("--{key} must be a finite number, got `{s}`")),
        },
        None => Ok(default),
    }
}

/// `uniloc fleet`: the fleet-scale load generator — `--sessions N` seeded
/// walkers mixing personas, devices, scenarios and (with `--chaos-every
/// K`) fault plans, served concurrently by the deterministic
/// [`uniloc_core::fleet::FleetScheduler`] on `--jobs N` workers with at
/// most `--resident N` sessions live at once. Writes `FLEET.json` plus
/// the fleet-observatory artifacts (`FLEET_HEALTH.json`,
/// `PROF_fleet.folded`, `PROF_fleet.json`) to `--out DIR`: all four are
/// byte-identical at any `--jobs`/`--resident`/`--shards` value and
/// contain no wall-clock numbers, so the CI smoke gate diffs the whole
/// directory across worker counts. `--bench` additionally writes the
/// throughput breakdown (`BENCH_fleet.json`: epochs/sec, sessions/sec,
/// p99 epoch latency) for the `bench-diff` gate. `--obs-stub` swaps every
/// session's observability for the sink configuration (no aggregation
/// artifacts), and `--obs-overhead` runs the paired obs-on/obs-stub bench
/// and fails if the epochs/s cost exceeds `--overhead-budget` (default
/// 5%). `--strict` fails on any resilience violation (a non-finite fused
/// estimate, or a clean walker that got quarantined).
///
/// Crash safety: `--checkpoint-every N` cuts a durable fleet checkpoint
/// (atomic temp-file + rename) every N scheduler rounds to `--checkpoint
/// FILE` (default `<out>/FLEET.ckpt.json`), and `--resume FILE` restores
/// one and finishes the fleet — the artifacts come out byte-identical to
/// an uninterrupted run. On resume, every artifact-shaping knob is taken
/// from the checkpoint itself (only `--jobs`, `--resident`, `--out` and
/// the gate flags still apply). `--crash-after-rounds N` simulates a
/// `kill -9` between rounds N and N+1 (the crash-injection harness), and
/// `--panic-lane L --panic-epoch E` arms a process-level panic fault in
/// lane L at epoch E to exercise the supervisor's poison path.
fn cmd_fleet(flags: &BTreeMap<String, String>) -> Result<(), String> {
    use uniloc_bench::fleet::{
        load_fleet_checkpoint, measure_obs_overhead, run_fleet_durable, write_fleet_bench,
        FleetConfig, FleetOutcome, FleetRunOptions,
    };
    use uniloc_obs::fleet as obsfleet;

    let seed = seed_flag(flags)?;
    let jobs = jobs_flag(flags)?;
    let out_dir = flags.get("out").map(String::as_str).unwrap_or("results");
    let strict = flags.contains_key("strict");
    let cfg = PipelineConfig::default();

    let resume = match flags.get("resume") {
        Some(path) => Some(load_fleet_checkpoint(path)?),
        None => None,
    };
    let fleet_cfg = match &resume {
        // Resuming: the checkpoint pins every artifact-shaping knob (a
        // mismatched flag would silently fork the fleet); only execution
        // knobs come from the command line.
        Some(ckpt) => FleetConfig {
            seed: ckpt.seed,
            sessions: ckpt.sessions,
            scenario_names: ckpt.scenario_names.clone(),
            jobs,
            resident: usize_flag(flags, "resident", 64)?,
            max_epochs: ckpt.max_epochs,
            chaos_every: ckpt.chaos_every,
            obs_stub: ckpt.obs_stub,
            shards: ckpt.shards,
            top_k: ckpt.top_k,
            panic_lane: ckpt.panic_lane,
            panic_epoch: ckpt.panic_epoch,
        },
        None => FleetConfig {
            seed,
            sessions: usize_flag(flags, "sessions", 1000)?,
            scenario_names: flags
                .get("scenarios")
                .map(|s| s.split(',').map(str::to_owned).collect())
                .unwrap_or_else(|| vec!["office".to_owned(), "open-space".to_owned()]),
            jobs,
            resident: usize_flag(flags, "resident", 64)?,
            max_epochs: usize_flag(flags, "max-epochs", 40)?,
            chaos_every: usize_flag(flags, "chaos-every", 0)?,
            obs_stub: flags.contains_key("obs-stub"),
            shards: usize_flag(flags, "shards", 0)?,
            top_k: usize_flag(flags, "top-k", 0)?,
            panic_lane: flags
                .get("panic-lane")
                .map(|_| usize_flag(flags, "panic-lane", 0))
                .transpose()?
                .map(|l| l as u64),
            panic_epoch: usize_flag(flags, "panic-epoch", 0)? as u64,
        },
    };
    let models = Arc::new(models_or_train(flags, &cfg, fleet_cfg.seed)?);
    let checkpoint_every = usize_flag(flags, "checkpoint-every", 0)? as u64;
    let checkpoint_path = flags
        .get("checkpoint")
        .cloned()
        .or_else(|| (checkpoint_every > 0).then(|| format!("{out_dir}/FLEET.ckpt.json")));
    let crash_after_rounds = flags
        .get("crash-after-rounds")
        .map(|_| usize_flag(flags, "crash-after-rounds", 0))
        .transpose()?
        .map(|r| r as u64);
    let alloc_budget = match flags.get("alloc-budget") {
        Some(_) => Some(f64_flag(flags, "alloc-budget", 0.0)?),
        None => None,
    };

    if flags.contains_key("obs-overhead") {
        let passes = usize_flag(flags, "overhead-passes", 2)?;
        let budget = f64_flag(flags, "overhead-budget", 0.05)?;
        let o = measure_obs_overhead(&models, &cfg, &fleet_cfg, passes)?;
        println!(
            "obs_overhead_frac {:.4} budget {:.4} obs_epochs_per_sec {:.0} stub_epochs_per_sec {:.0}",
            o.overhead_frac, budget, o.epochs_per_sec_obs, o.epochs_per_sec_stub
        );
        return if o.overhead_frac > budget {
            Err(format!(
                "obs overhead {:.2}% exceeds budget {:.2}%",
                o.overhead_frac * 100.0,
                budget * 100.0
            ))
        } else {
            uniloc_obs::info!(
                "obs overhead {:.2}% within budget {:.2}%",
                o.overhead_frac * 100.0,
                budget * 100.0
            );
            Ok(())
        };
    }

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let outcome = run_fleet_durable(
        &models,
        &cfg,
        &fleet_cfg,
        FleetRunOptions {
            checkpoint_every,
            checkpoint_path: checkpoint_path.clone(),
            resume_from: resume,
            crash_after_rounds,
            ..FleetRunOptions::default()
        },
    )?;
    let result = match outcome {
        FleetOutcome::Completed(result) => *result,
        FleetOutcome::Crashed { rounds } => {
            let at = checkpoint_path.as_deref().unwrap_or("<no checkpoint written>");
            println!(
                "fleet crashed (simulated) after {rounds} round(s); \
                 resume with: uniloc fleet --resume {at}"
            );
            return Ok(());
        }
    };

    let poisoned = result.summaries.iter().filter(|s| s.poisoned.is_some()).count();
    if poisoned > 0 {
        uniloc_obs::info!(
            "fleet: {poisoned} session(s) poisoned by the supervisor; \
             the rest of the fleet completed normally"
        );
    }

    let path = format!("{out_dir}/FLEET.json");
    std::fs::write(&path, result.report.to_string_pretty())
        .map_err(|e| format!("write {path}: {e}"))?;
    uniloc_obs::info!("wrote {path}");

    if let Some(snap) = &result.snapshot {
        let health = obsfleet::health_report(snap, &obsfleet::SloTargets::default());
        let path = format!("{out_dir}/FLEET_HEALTH.json");
        std::fs::write(&path, health.to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");

        let tree = obsfleet::profile_tree(snap);
        let path = format!("{out_dir}/PROF_fleet.folded");
        std::fs::write(&path, obsfleet::folded_lines(&tree))
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");
        let path = format!("{out_dir}/PROF_fleet.json");
        std::fs::write(&path, obsfleet::profile_report(&tree).to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");

        let heap = obsfleet::alloc_tree(snap);
        let path = format!("{out_dir}/PROF_alloc.folded");
        std::fs::write(&path, obsfleet::alloc_folded_lines(&heap))
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");
        let path = format!("{out_dir}/PROF_alloc.json");
        std::fs::write(&path, obsfleet::alloc_report(snap, &heap).to_string_pretty())
            .map_err(|e| format!("write {path}: {e}"))?;
        uniloc_obs::info!("wrote {path}");
        uniloc_obs::info!(
            "alloc observatory: {:.1} steady-state alloc(s)/epoch",
            snap.allocs_per_epoch()
        );
    }
    if let Some(budget) = alloc_budget {
        let Some(snap) = &result.snapshot else {
            return Err("--alloc-budget needs the alloc observatory; drop --obs-stub".to_owned());
        };
        let observed = snap.allocs_per_epoch();
        if observed > budget {
            return Err(format!(
                "steady-state allocations {observed:.1}/epoch exceed --alloc-budget {budget:.1}"
            ));
        }
        uniloc_obs::info!(
            "alloc budget ok: {observed:.1}/epoch within --alloc-budget {budget:.1}"
        );
    }

    let stats = &result.stats;
    let secs = stats.run_ns as f64 / 1e9;
    uniloc_obs::info!(
        "fleet: {} session(s), {} epoch(s), {} round(s) in {secs:.2}s — {:.0} epochs/s, {:.1} sessions/s",
        stats.sessions,
        stats.epochs,
        stats.rounds,
        stats.epochs as f64 / secs.max(1e-9),
        stats.sessions as f64 / secs.max(1e-9),
    );
    if flags.contains_key("bench") {
        match write_fleet_bench(stats) {
            Ok(Some(p)) => uniloc_obs::info!("wrote {p}"),
            Ok(None) => {}
            Err(e) => return Err(format!("write fleet bench: {e}")),
        }
    }

    if result.violations.is_empty() {
        uniloc_obs::info!(
            "fleet clean: every session stayed finite; quarantines match solo replays"
        );
        Ok(())
    } else {
        for v in &result.violations {
            eprintln!("fleet violation: {v}");
        }
        if strict {
            Err(format!("{} fleet violation(s)", result.violations.len()))
        } else {
            uniloc_obs::info!(
                "{} violation(s) — rerun with --strict to fail on them",
                result.violations.len()
            );
            Ok(())
        }
    }
}

/// `uniloc inspect-fleet`: a `top`-style health table rendered from a
/// `FLEET_HEALTH.json` artifact (`--file FILE`, default
/// `results/FLEET_HEALTH.json`) — fleet totals, the SLO burn table,
/// per-scheme availability, per-cohort breakdowns and the worst-session
/// exemplars. Pure formatting: it never recomputes, so the table always
/// agrees with the artifact the CI gates diff. `--json` re-emits the
/// artifact through the canonical writer instead (machine-readable, and a
/// parse round-trip check in one step). `--strict` fails when any SLO row
/// is out of budget.
fn cmd_inspect_fleet(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags
        .get("file")
        .map(String::as_str)
        .unwrap_or("results/FLEET_HEALTH.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if doc.get("health").and_then(Json::as_str) != Some("uniloc-fleet") {
        return Err(format!("{path} is not a uniloc FLEET_HEALTH.json artifact"));
    }
    if flags.contains_key("json") {
        println!("{}", doc.canonical().to_string());
        return Ok(());
    }
    let int = |d: &Json, k: &str| d.get(k).and_then(Json::as_i64).unwrap_or(0);
    let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);

    println!(
        "fleet health — {} session(s), {} epoch(s) ({} faulted, {} quarantined, {} non-finite)",
        int(&doc, "sessions"),
        int(&doc, "epochs"),
        int(&doc, "faulted_sessions"),
        int(&doc, "quarantined_sessions"),
        int(&doc, "nonfinite_fused"),
    );
    if let Some(flight) = doc.get("flight") {
        println!(
            "flight recorder: {} dump(s), {} dropped, {} suppressed; {} calib drift alarm(s)",
            int(flight, "dumps"),
            int(flight, "dropped"),
            int(flight, "suppressed"),
            doc.get("calib").map_or(0, |c| int(c, "drift_alarms")),
        );
    }
    if let Some(alloc) = doc.get("alloc") {
        println!(
            "alloc observatory: {:.1} steady alloc(s)/epoch ({} allocs over {} steady epochs)",
            num(alloc, "allocs_per_epoch"),
            int(alloc, "steady_allocs"),
            int(alloc, "steady_epochs"),
        );
    }

    let mut violated = 0usize;
    if let Some(rows) = doc.get("slo").and_then(Json::as_arr) {
        println!();
        println!(
            "  {:<34} {:>4} {:>9} {:>9} {:>7}  status",
            "SLO", "kind", "target", "observed", "burn"
        );
        for r in rows {
            let ok = r.get("ok").and_then(Json::as_bool).unwrap_or(false);
            if !ok {
                violated += 1;
            }
            println!(
                "  {:<34} {:>4} {:>9.3} {:>9.3} {:>7.2}  {}",
                r.get("name").and_then(Json::as_str).unwrap_or("?"),
                r.get("kind").and_then(Json::as_str).unwrap_or("?"),
                num(r, "target"),
                num(r, "observed"),
                num(r, "burn"),
                if ok { "ok" } else { "VIOLATED" },
            );
        }
    }

    if let Some(schemes) = doc.get("schemes").and_then(Json::as_obj) {
        println!();
        println!(
            "  {:<10} {:>12} {:>12} {:>10} {:>12}",
            "scheme", "avail_epochs", "availability", "quar_trip", "quar_readmit"
        );
        for (id, s) in schemes {
            println!(
                "  {id:<10} {:>12} {:>12.3} {:>10} {:>12}",
                int(s, "available_epochs"),
                num(s, "availability"),
                int(s, "quarantine_tripped"),
                int(s, "quarantine_readmitted"),
            );
        }
    }

    if let Some(cohorts) = doc.get("cohorts").and_then(Json::as_obj) {
        println!();
        println!(
            "  {:<34} {:>8} {:>7} {:>7} {:>5} {:>6} {:>10}",
            "cohort", "sessions", "epochs", "faulted", "quar", "drift", "mean_err_m"
        );
        for (name, c) in cohorts {
            let mean = c.get("mean_error_m").and_then(Json::as_f64);
            println!(
                "  {name:<34} {:>8} {:>7} {:>7} {:>5} {:>6} {:>10}",
                int(c, "sessions"),
                int(c, "epochs"),
                int(c, "faulted"),
                int(c, "quarantined"),
                int(c, "drift_alarms"),
                mean.map_or("-".to_owned(), |m| format!("{m:.3}")),
            );
        }
    }

    if let Some(exemplars) = doc.get("exemplars").and_then(Json::as_arr) {
        if !exemplars.is_empty() {
            println!();
            println!("  worst sessions (exemplars)");
            println!(
                "  {:<6} {:<18} {:>10} {:>7} {:>11}  quarantined",
                "lane", "name", "mean_err_m", "epochs", "postmortems"
            );
            for e in exemplars {
                let quarantined = e
                    .get("quarantined")
                    .and_then(Json::as_arr)
                    .map_or(String::from("-"), |q| {
                        let ids: Vec<&str> =
                            q.iter().filter_map(Json::as_str).collect();
                        if ids.is_empty() { "-".to_owned() } else { ids.join(",") }
                    });
                println!(
                    "  {:<6} {:<18} {:>10.3} {:>7} {:>11}  {quarantined}",
                    int(e, "lane"),
                    e.get("name").and_then(Json::as_str).unwrap_or("?"),
                    num(e, "mean_error_m"),
                    int(e, "epochs"),
                    int(e, "flight_postmortems"),
                );
            }
        }
    }

    if violated > 0 {
        println!();
        println!("{violated} SLO(s) out of budget");
        if flags.contains_key("strict") {
            return Err(format!("{violated} SLO violation(s)"));
        }
    }
    Ok(())
}

/// `uniloc inspect-alloc`: the per-stage heap profile table rendered from
/// a `PROF_alloc.json` artifact (`--file FILE`, default
/// `results/PROF_alloc.json`) — the steady-state allocs-per-epoch meter
/// and the stage tree with exclusive alloc/byte/dealloc/realloc counts.
/// Pure formatting over the artifact, like `inspect-fleet`. `--json`
/// re-emits the artifact through the canonical writer.
fn cmd_inspect_alloc(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let path = flags
        .get("file")
        .map(String::as_str)
        .unwrap_or("results/PROF_alloc.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    if doc.get("prof").and_then(Json::as_str) != Some("alloc") {
        return Err(format!("{path} is not a uniloc PROF_alloc.json artifact"));
    }
    if flags.contains_key("json") {
        println!("{}", doc.canonical().to_string());
        return Ok(());
    }
    let int = |d: &Json, k: &str| d.get(k).and_then(Json::as_i64).unwrap_or(0);
    let per_epoch = doc.get("allocs_per_epoch").and_then(Json::as_f64).unwrap_or(f64::NAN);
    let steady = doc.get("steady");
    println!(
        "heap profile — {per_epoch:.1} steady alloc(s)/epoch ({} allocs over {} steady epochs)",
        steady.map_or(0, |s| int(s, "allocs")),
        steady.map_or(0, |s| int(s, "epochs")),
    );
    println!();
    println!(
        "  {:<44} {:>12} {:>14} {:>12} {:>10}",
        "stage", "allocs", "bytes", "deallocs", "reallocs"
    );
    fn walk(node: &Json, depth: usize) {
        let int = |k: &str| node.get(k).and_then(Json::as_i64).unwrap_or(0);
        let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
        println!(
            "  {:<44} {:>12} {:>14} {:>12} {:>10}",
            format!("{:indent$}{name}", "", indent = depth * 2),
            int("allocs"),
            int("bytes"),
            int("deallocs"),
            int("reallocs"),
        );
        for child in node.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            walk(child, depth + 1);
        }
    }
    let root = doc.get("root").ok_or_else(|| format!("{path}: no stage tree"))?;
    walk(root, 0);
    Ok(())
}

fn cmd_scenarios() -> Result<(), String> {
    println!("available scenarios:");
    println!("  path1 .. path8   the eight daily campus paths (path1 = the 320 m daily path)");
    println!("  mall             shopping-mall floor, ~300 m trajectory");
    println!("  open-space       urban open space");
    println!("  office           a 50 x 18 m office floor");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_key_value_pairs() {
        let f = parse_flags(&args(&["--seed", "7", "--out", "x.json"])).unwrap();
        assert_eq!(f.get("seed").unwrap(), "7");
        assert_eq!(f.get("out").unwrap(), "x.json");
    }

    #[test]
    fn parse_bare_booleans() {
        let f = parse_flags(&args(&["--json", "--models", "m.json"])).unwrap();
        assert_eq!(f.get("json").unwrap(), "true");
        assert_eq!(f.get("models").unwrap(), "m.json");
    }

    #[test]
    fn parse_rejects_positional() {
        assert!(parse_flags(&args(&["oops"])).is_err());
    }

    #[test]
    fn seed_parses_or_defaults() {
        let f = parse_flags(&args(&["--seed", "42"])).unwrap();
        assert_eq!(seed_flag(&f).unwrap(), 42);
        let f = parse_flags(&args(&[])).unwrap();
        assert_eq!(seed_flag(&f).unwrap(), 1);
        let f = parse_flags(&args(&["--seed", "nope"])).unwrap();
        assert!(seed_flag(&f).is_err());
    }

    #[test]
    fn inspect_metrics_reads_sidecar_and_reports_bad_lines() {
        let dir = std::env::temp_dir();
        let good = dir.join("uniloc-cli-test-metrics.jsonl");
        std::fs::write(
            &good,
            concat!(
                "{\"kind\":\"span\",\"level\":\"span\",\"name\":\"engine.update\",\"t_ns\":5,\"duration_ns\":3,\"fields\":{}}\n",
                "{\"kind\":\"counter\",\"name\":\"pipeline.epochs\",\"value\":12}\n",
                "{\"kind\":\"gauge\",\"name\":\"engine.tau\",\"value\":0.5}\n",
                "{\"kind\":\"histogram\",\"name\":\"h\",\"bounds\":[1.0,2.0],\"counts\":[1,0,0],\"sum\":0.5,\"dropped\":0}\n",
            ),
        )
        .unwrap();
        let f = parse_flags(&args(&["--file", good.to_str().unwrap()])).unwrap();
        assert!(cmd_inspect_metrics(&f).is_ok());

        let bad = dir.join("uniloc-cli-test-metrics-bad.jsonl");
        std::fs::write(&bad, "{\"kind\":\"counter\"\n").unwrap();
        let f = parse_flags(&args(&["--file", bad.to_str().unwrap()])).unwrap();
        let err = cmd_inspect_metrics(&f).unwrap_err();
        assert!(err.contains(":1:"), "error should cite the line: {err}");
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn inspect_metrics_requires_file_flag() {
        let f = parse_flags(&args(&[])).unwrap();
        assert!(cmd_inspect_metrics(&f).unwrap_err().contains("--file"));
    }

    #[test]
    fn scenario_lookup() {
        assert_eq!(scenario_by_name("path1", 1).unwrap().name, "path1");
        assert_eq!(scenario_by_name("path5", 1).unwrap().name, "path5");
        assert!(scenario_by_name("mall", 1).unwrap().name.starts_with("mall"));
        assert!(scenario_by_name("mars", 1).is_err());
    }
}
