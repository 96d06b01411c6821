//! Differential tests for batch runs on the fleet scheduler: every
//! artifact a sweep produces — chaos reports, per-epoch records, the merged
//! observability sidecar — must be byte-identical at any worker count.
//!
//! `--jobs 1` steps every walker inline on the caller's thread; higher
//! counts fan out on `std::thread`. The contract (see `DESIGN.md` §8) is
//! that the fan-out is invisible in every output, so each test runs the
//! same work at jobs ∈ {1, 2, 4, 8} and diffs the results against the
//! sequential baseline.

use std::sync::Arc;

use uniloc::core::error_model::{train, ErrorModelSet};
use uniloc::core::fleet::FleetSession;
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::core::session::Session;
use uniloc::env::{venues, Scenario};
use uniloc::faults::FaultPlan;
use uniloc_bench::chaos::{run_sweep, ChaosConfig};
use uniloc::obs::session::SessionCapture;
use uniloc_bench::{fold_capture, run_walk_batch, run_walks_parallel};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn models(seed: u64) -> ErrorModelSet {
    let cfg = PipelineConfig::default();
    let mut samples =
        pipeline::collect_training(&venues::training_office(seed), &cfg, seed + 10);
    samples.extend(pipeline::collect_training(
        &venues::training_open_space(seed + 1),
        &cfg,
        seed + 11,
    ));
    train(&samples).expect("training venues produce enough samples")
}

/// The full chaos sweep — reports, violation list, merged metrics,
/// merged calibration, flight lines — is identical at every job count.
#[test]
fn chaos_sweep_is_jobs_invariant() {
    let models = models(5);
    let cfg = PipelineConfig::default();
    let sweep_at = |jobs: usize| {
        run_sweep(
            &models,
            &cfg,
            &ChaosConfig {
                seed: 5,
                scenario_names: vec!["office".to_owned(), "path1".to_owned()],
                plans: FaultPlan::smoke_library(),
                jobs,
            },
        )
        .expect("sweep runs")
    };
    let baseline = sweep_at(1);
    let baseline_reports: Vec<(String, String)> = baseline
        .reports
        .iter()
        .map(|r| (r.file_name(), r.report.to_string_pretty()))
        .collect();
    for jobs in &JOB_COUNTS[1..] {
        let sweep = sweep_at(*jobs);
        let reports: Vec<(String, String)> = sweep
            .reports
            .iter()
            .map(|r| (r.file_name(), r.report.to_string_pretty()))
            .collect();
        assert_eq!(reports, baseline_reports, "report bytes differ at jobs={jobs}");
        assert_eq!(sweep.violations, baseline.violations, "violations differ at jobs={jobs}");
        assert_eq!(
            sweep.obs.metrics, baseline.obs.metrics,
            "merged metrics differ at jobs={jobs}"
        );
        assert_eq!(
            sweep.obs.calibration, baseline.obs.calibration,
            "merged calibration differs at jobs={jobs}"
        );
        assert_eq!(
            sweep.obs.flight_lines, baseline.obs.flight_lines,
            "flight lines differ at jobs={jobs}"
        );
    }
}

/// `uniloc chaos --plans full --seed 7` (in-process models, scenarios
/// `office,path1`) reproduces the committed `results/CHAOS_*.json`
/// byte for byte.
#[test]
fn chaos_sweep_reproduces_committed_artifacts() {
    let models = models(7);
    let sweep = run_sweep(
        &models,
        &PipelineConfig::default(),
        &ChaosConfig {
            seed: 7,
            scenario_names: vec!["office".to_owned(), "path1".to_owned()],
            plans: FaultPlan::library(),
            jobs: 2,
        },
    )
    .expect("sweep runs");
    let names: Vec<String> = sweep.reports.iter().map(|r| r.file_name()).collect();
    assert_eq!(names, ["CHAOS_cli-office.json", "CHAOS_path1.json"]);
    for report in &sweep.reports {
        let path = format!("{}/results/{}", env!("CARGO_MANIFEST_DIR"), report.file_name());
        let committed = std::fs::read_to_string(&path).expect("committed chaos artifact");
        assert!(
            report.report.to_string_pretty() == committed,
            "{path} is not reproduced by the sweep"
        );
    }
}

/// Per-epoch records from a walk batch on the fleet scheduler equal the
/// plain sequential `run_walk` loop, scenario by scenario, at every job
/// count.
#[test]
fn walk_records_match_sequential_at_all_job_counts() {
    let models = Arc::new(models(3));
    let cfg = PipelineConfig::default();
    let walks = vec![
        (Arc::new(venues::office("diff-office", 3, 50.0, 18.0)), cfg.clone(), 103),
        (Arc::new(venues::training_open_space(4)), cfg.clone(), 103),
    ];
    let sequential: Vec<Vec<pipeline::EpochRecord>> = walks
        .iter()
        .map(|(s, cfg, seed)| pipeline::run_walk(s, &models, cfg, *seed))
        .collect();
    for jobs in JOB_COUNTS {
        let parallel = run_walks_parallel(walks.clone(), &models, jobs);
        assert_eq!(parallel, sequential, "records differ at jobs={jobs}");
    }
}

/// A batch walker on `scenario`, walking with seed `200 + lane`.
fn walker(
    scenario: &Arc<Scenario>,
    models: &Arc<ErrorModelSet>,
) -> impl FnOnce(u64) -> FleetSession + Send + 'static {
    let (scenario, models) = (Arc::clone(scenario), Arc::clone(models));
    let cfg = PipelineConfig::default();
    move |lane| {
        FleetSession::build(lane, format!("{}#{lane}", scenario.name), move || {
            let frames = pipeline::walk_frames(&scenario, &cfg, 200 + lane);
            (Session::new(scenario, &models, &cfg, 200 + lane), frames)
        })
    }
}

/// A walker that panics fails its batch at the first panic: it is not
/// retried from the state the panic left behind, and the failure names
/// it. No walker from its lane on is handed out.
#[test]
fn walk_batch_fails_on_the_first_panic_without_retry() {
    let models = Arc::new(models(3));
    let scenario = Arc::new(venues::office("diff-panic", 3, 40.0, 15.0));
    for jobs in [1, 2] {
        let builders: Vec<_> = (0..3u64)
            .map(|_| {
                let build = walker(&scenario, &models);
                move |lane: u64| {
                    let mut walker = build(lane);
                    walker.set_panic_at_epoch((lane == 1).then_some(3));
                    walker
                }
            })
            .collect();
        let mut finished = Vec::new();
        let failed = match run_walk_batch(jobs, builders, |walker| finished.push(walker.lane)) {
            Ok(()) => panic!("a panicking walker must fail the batch at jobs={jobs}"),
            Err(e) => e,
        };
        assert_eq!(finished, [0], "walkers from the failed lane on are not handed out");
        let message = failed.to_string();
        let named = message.contains("diff-panic#1") && message.contains("injected panic");
        assert!(named, "{message}");
        let walker = &failed.0;
        assert_eq!(walker.records.len(), 3, "the walker stops at the panicking epoch");
        let counter = |name: &str| {
            walker.capture.metrics.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
        };
        assert_eq!(counter("fleet.poisoned"), Some(1));
        assert_eq!(counter("parallel.retries").unwrap_or(0), 0, "the walker was retried");
    }
}

/// The merged observability sidecar of a walk batch is itself invariant
/// in the worker count: same counters, same histograms, same calibration
/// cells, same flight lines.
#[test]
fn merged_obs_is_jobs_invariant_for_walks() {
    let models = Arc::new(models(3));
    let scenarios = [
        venues::office("diff-obs-a", 3, 40.0, 15.0),
        venues::office("diff-obs-b", 4, 40.0, 15.0),
        venues::training_open_space(5),
    ]
    .map(Arc::new);
    let merged_at = |jobs: usize| {
        let builders: Vec<_> = scenarios.iter().map(|s| walker(s, &models)).collect();
        let mut merged = Ok(SessionCapture::default());
        run_walk_batch(jobs, builders, |walker| fold_capture(&mut merged, &walker.capture))
            .unwrap_or_else(|e| panic!("{e}"));
        merged.expect("merge")
    };
    let baseline = merged_at(1);
    assert!(!baseline.metrics.counters.is_empty() && !baseline.flight_lines.is_empty());
    for jobs in &JOB_COUNTS[1..] {
        assert_eq!(merged_at(*jobs), baseline, "merged capture differs at jobs={jobs}");
    }
}

/// With ≥ 4 real cores, the path1 sweep at `--jobs 4` beats the
/// sequential run by > 1.5×. Skipped (with a note) on smaller machines —
/// the CI container pins a single core, where the speedup is definitionally
/// unreachable and the differential assertions above carry the contract.
#[test]
fn parallel_speedup_on_multicore() {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup measurement: only {cores} core(s) available");
        return;
    }
    let models = Arc::new(models(3));
    let cfg = PipelineConfig::default();
    let walks: Vec<_> = (0..8u64)
        .map(|i| {
            let office = venues::office(&format!("speedup-{i}"), 10 + i, 50.0, 18.0);
            (Arc::new(office), cfg.clone(), 300 + i)
        })
        .collect();
    let timed = |jobs: usize| {
        let start = std::time::Instant::now();
        let _ = run_walks_parallel(walks.clone(), &models, jobs);
        start.elapsed()
    };
    timed(1); // warm-up: touch every code path once
    let sequential = timed(1);
    let parallel = timed(4);
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    assert!(
        speedup > 1.5,
        "expected > 1.5x speedup at jobs=4 on {cores} cores, got {speedup:.2}x \
         (sequential {sequential:?}, parallel {parallel:?})"
    );
}
