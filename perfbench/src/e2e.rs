//! The untraced run: the end-to-end metrics a fleet operator sees.
//!
//! Set-up runs [`SETUP_REPS`] times (median reported) and saves the
//! trained models. Then the same fleet is served again and again, each
//! time in a child process of its own, through `run_fleet` plus the
//! artifact writes, until the run's time is up. Every served fleet must
//! carry the same rows. Afterwards every session is replayed through the
//! legacy solo path: its records must match the fleet row's digest, and
//! they give the accuracy figures and the fused share.
//!
//! The failed share (frames without a finite fused position, plus frames
//! a poisoned session never served, over frames attempted) is 0 on every
//! workload, and a benchmark metric must never be 0, so its complement
//! `fused_share` is reported instead.

use std::sync::Arc;
use std::time::Instant;

use crate::artifacts::{out_dir, proc_status_kb, write_artifacts};
use crate::pct::{median, per_mille_f64, Samples};
use crate::workload::{fleet_config, models_digest, setup, Setup, JOBS};
use crate::{Metric, Outcome};
use uniloc_bench::fleet::{records_digest, run_fleet, solo_records, SessionSpec};
use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::pipeline::PipelineConfig;
use uniloc_obs::ObsSession;
use uniloc_stats::json::ToJson;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest timed fleets a run serves, however short its time.
const MIN_FLEETS: usize = 3;

/// One session replayed through the solo path.
pub struct SoloCheck {
    pub lane: u64,
    pub digest: u64,
    /// Frames in the session's stream.
    pub frames: usize,
    /// Finite UniLoc2 (BMA) errors, one per epoch that fused a position.
    pub fused_errors: Vec<f64>,
}

/// Replays every spec through [`solo_records`] on `jobs` threads, each
/// under a stubbed observability session so the replays leave no trace
/// in the process-wide registries.
pub fn solo_checks(
    specs: &[SessionSpec],
    models: &ErrorModelSet,
    max_epochs: usize,
    jobs: usize,
) -> Vec<SoloCheck> {
    let base = PipelineConfig::default();
    let jobs = jobs.max(1);
    let mut out: Vec<SoloCheck> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|j| {
                let base = &base;
                scope.spawn(move || {
                    let _obs = uniloc_obs::session::install(Arc::new(ObsSession::stubbed()));
                    specs
                        .iter()
                        .skip(j)
                        .step_by(jobs)
                        .map(|spec| {
                            let records = solo_records(spec, models, base, max_epochs);
                            SoloCheck {
                                lane: spec.lane,
                                digest: records_digest(&records),
                                frames: records.len(),
                                fused_errors: records
                                    .iter()
                                    .filter_map(|r| r.uniloc2_error)
                                    .filter(|e| e.is_finite())
                                    .collect(),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("solo replay thread panicked"))
            .collect()
    });
    out.sort_by_key(|c| c.lane);
    out
}

/// One fleet served in a child process, as the child reports it.
struct ChildFleet {
    digest: String,
    epochs: u64,
    seconds: f64,
    hwm_kb: u64,
    poisoned: u64,
    violations: Vec<String>,
    /// `(lane, digest)` of every row.
    rows: Vec<(u64, u64)>,
    epoch_ns: Vec<u64>,
    round_ns: Vec<u64>,
}

/// The child side: load the models the parent trained, serve one fleet
/// through `run_fleet`, write its artifacts, and print what the parent
/// needs on standard output.
///
/// # Errors
///
/// Model load, serving and write failures.
pub fn serve_child(name: &str, seed: u64) -> Result<(), String> {
    let cfg = fleet_config(name, seed, JOBS)?;
    let dir = out_dir(name)?;
    let path = dir.join("models.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let models: ErrorModelSet = uniloc_stats::json::from_str(&text)
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    let models = Arc::new(models);

    let t0 = Instant::now();
    let result = run_fleet(&models, &PipelineConfig::default(), &cfg)?;
    write_artifacts(&dir, &result)?;
    let seconds = t0.elapsed().as_secs_f64();

    let digest = result
        .report
        .get("fleet_digest")
        .and_then(|d| d.as_str())
        .unwrap_or("-");
    let poisoned = result
        .summaries
        .iter()
        .filter(|s| s.poisoned.is_some())
        .count();
    let hwm = proc_status_kb("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
    let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
    println!(
        "fleet {digest} {} {seconds} {hwm} {poisoned}",
        result.stats.epochs
    );
    for v in &result.violations {
        println!("violation {v}");
    }
    for s in &result.summaries {
        println!("row {} {}", s.spec.lane, s.digest);
    }
    println!("epoch_ns {}", join(&result.stats.epoch_ns));
    println!("round_ns {}", join(&result.stats.round_ns));
    Ok(())
}

/// The parent side: spawns this binary in child mode and parses its report.
fn run_child(name: &str, seed: u64) -> Result<ChildFleet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--child",
            "1",
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the fleet child: {e}"))?;
    if !out.status.success() {
        return Err(format!("fleet child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fleet = ChildFleet {
        digest: String::new(),
        epochs: 0,
        seconds: 0.0,
        hwm_kb: 0,
        poisoned: 0,
        violations: Vec::new(),
        rows: Vec::new(),
        epoch_ns: Vec::new(),
        round_ns: Vec::new(),
    };
    let bad = |line: &str| format!("fleet child printed `{line}`");
    let nums = |rest: &str| -> Result<Vec<u64>, String> {
        rest.split_whitespace()
            .map(|n| n.parse().map_err(|_| bad(rest)))
            .collect()
    };
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "fleet" => {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if f.len() != 5 {
                    return Err(bad(line));
                }
                fleet.digest = f[0].to_owned();
                fleet.epochs = f[1].parse().map_err(|_| bad(line))?;
                fleet.seconds = f[2].parse().map_err(|_| bad(line))?;
                fleet.hwm_kb = f[3].parse().map_err(|_| bad(line))?;
                fleet.poisoned = f[4].parse().map_err(|_| bad(line))?;
            }
            "violation" => fleet.violations.push(rest.to_owned()),
            "row" => match nums(rest)?.as_slice() {
                [lane, digest] => fleet.rows.push((*lane, *digest)),
                _ => return Err(bad(line)),
            },
            "epoch_ns" => fleet.epoch_ns = nums(rest)?,
            "round_ns" => fleet.round_ns = nums(rest)?,
            _ => return Err(bad(line)),
        }
    }
    if fleet.digest.is_empty() {
        return Err("fleet child printed no fleet line".to_owned());
    }
    Ok(fleet)
}

/// Runs the workload untraced for about `seconds` and reports every
/// end-to-end metric.
///
/// # Errors
///
/// Set-up, serving and write failures. Correctness failures are not
/// errors: they come back as `Outcome::problems`.
pub fn run(name: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let cfg = fleet_config(name, seed, JOBS)?;
    let dir = out_dir(name)?;
    let mut problems = Vec::new();

    let mut setups: Vec<Setup> = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setups.push(setup(&cfg)?);
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
    let digests: Vec<u64> = setups.iter().map(|s| models_digest(&s.models)).collect();
    if digests.windows(2).any(|w| w[0] != w[1])
        || setups.windows(2).any(|w| w[0].specs != w[1].specs)
    {
        problems.push("repeated set-ups disagree on the models or the spec mix".to_owned());
    }
    let Setup { models, specs, .. } = setups.swap_remove(0);
    drop(setups);
    let path = dir.join("models.json");
    std::fs::write(&path, models.to_json().canonical().to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    // Each fleet in a process of its own, the way `uniloc fleet` runs,
    // until the run's time is up. The machine runs the first fleet of a
    // run measurably slower, so fleet 0 is checked but not timed.
    let mut fleets: Vec<ChildFleet> = Vec::new();
    while fleets.len() <= MIN_FLEETS || start.elapsed().as_secs_f64() < seconds {
        fleets.push(run_child(name, seed)?);
    }
    let mut failed = 0;
    for (i, f) in fleets.iter().enumerate() {
        failed += f.poisoned + f.violations.len() as u64;
        problems.extend(
            f.violations
                .iter()
                .map(|v| format!("fleet {i}: violation: {v}")),
        );
        if f.poisoned > 0 {
            problems.push(format!("fleet {i}: {} session(s) poisoned", f.poisoned));
        }
        if f.digest != fleets[0].digest || f.rows != fleets[0].rows {
            problems.push(format!("fleet {i} served a different fleet than fleet 0"));
        }
    }

    // Every session, replayed solo, must reproduce its fleet row.
    let solo = solo_checks(&specs, &models, cfg.max_epochs, JOBS);
    let rows = &fleets[0].rows;
    if rows.len() != solo.len() {
        problems.push(format!(
            "{} fleet rows but {} specs",
            rows.len(),
            solo.len()
        ));
    }
    let mut frames_attempted = 0usize;
    let mut frames_fused = 0usize;
    let mut errors = Vec::new();
    for (&(lane, digest), check) in rows.iter().zip(&solo) {
        if lane != check.lane || digest != check.digest {
            problems.push(format!(
                "lane {lane}: fleet row differs from its solo replay"
            ));
        }
        frames_attempted += check.frames;
        frames_fused += check.fused_errors.len();
        errors.extend_from_slice(&check.fused_errors);
    }

    // Per-fleet figures, then the median over fleets. The epoch tail is
    // p95: on the reference host one fleet's p99 moved by a third from
    // fleet to fleet (host pauses land in the top 1%), its p95 by 3%, like
    // its median. The p99 is printed but not gated. Round latency pools
    // the rounds of every fleet: a `crowd-chaos` fleet has 82, a run a few
    // hundred, too few for a p99 with ten samples above it.
    let mut eps = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut p99 = Vec::new();
    let mut round_ns = Vec::new();
    for f in &mut fleets[1..] {
        eps.push(f.epochs as f64 / f.seconds);
        let epochs = Samples::new(std::mem::take(&mut f.epoch_ns));
        p50.push(epochs.require("epoch_ns", 500)? as f64 / 1e3);
        p95.push(epochs.require("epoch_ns", 950)? as f64 / 1e3);
        p99.push(format!(
            "{:.1}",
            epochs.require("epoch_ns", 990)? as f64 / 1e3
        ));
        round_ns.append(&mut f.round_ns);
    }
    let hwm: Vec<f64> = fleets[1..]
        .iter()
        .map(|f| f.hwm_kb as f64 / 1024.0)
        .collect();
    let rounds = Samples::new(round_ns);
    let n = fleets.len() - 1;
    let per_fleet = fleets[0].epochs;
    let metrics = vec![
        Metric::new("epochs_per_s", median(&eps), "epochs/s").note(format!("median of {n} fleets")),
        Metric::new("epoch_p50_us", median(&p50), "us")
            .note(format!("median of {n} fleets, {per_fleet} samples each")),
        Metric::new("epoch_p95_us", median(&p95), "us")
            .note(format!("median of {n} fleets, {per_fleet} samples each")),
        Metric::new(
            "round_p90_ms",
            rounds.require("round_ns", 900)? as f64 / 1e6,
            "ms",
        )
        .note(format!("{} samples", rounds.len())),
        Metric::new("setup_s", median(&setup_s), "s")
            .note(format!("median of {SETUP_REPS} set-ups")),
        Metric::new("peak_rss_mb", median(&hwm), "MB")
            .note(format!("median VmHWM of {n} fleet processes")),
        Metric::new(
            "fused_error_p50_m",
            per_mille_f64(&mut errors, 500).unwrap_or(f64::NAN),
            "m",
        )
        .note(format!("{} epochs", errors.len())),
        Metric::new(
            "fused_error_p90_m",
            per_mille_f64(&mut errors, 900).unwrap_or(f64::NAN),
            "m",
        )
        .note(format!("{} epochs", errors.len())),
        Metric::new(
            "fused_share",
            frames_fused as f64 / frames_attempted.max(1) as f64,
            "ratio",
        )
        .note(format!("{frames_fused} of {frames_attempted} frames fused")),
    ];
    Ok(Outcome {
        attempted: (fleets.len() * specs.len()) as u64,
        failed,
        metrics,
        problems,
        lines: vec![format!(
            "epoch p99 per timed fleet, not gated (us): {}",
            p99.join(" ")
        )],
    })
}
