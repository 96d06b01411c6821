//! The chaos sweep: a deterministic scenario × fault-plan resilience
//! matrix, shared by `uniloc chaos` and the differential test suite.
//!
//! Each cell injects one library fault plan ([`inject_plan`]) into the
//! exact frame stream the clean walk consumes ([`pipeline::walk_frames`]),
//! serves it through a fleet [`Session`], and reports the error-CDF shift
//! against the clean run, the worst/final degradation-ladder state,
//! non-finite fused estimates (must always be zero), which schemes were
//! quarantined and how many epochs past the last fault window the engine
//! needed to re-admit them.
//!
//! The whole matrix is one fleet run ([`crate::run_walk_batch`]): lanes
//! `0..S` are the scenarios' clean baselines and lane `S + s·P + p` is
//! cell `(s, p)`, so lane order is the report order. A cell's faulted
//! stream is injected when its walker is built, and every walker builds
//! and steps under its own isolated observability session. Reports,
//! violation list, merged sidecar and progress lines are all assembled on
//! the caller's thread in lane order, so the sweep's results are
//! byte-identical at any `jobs` count (`tests/parallel_differential.rs`
//! holds this at jobs ∈ {1, 2, 4, 8}).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use uniloc_core::error_model::ErrorModelSet;
use uniloc_core::fleet::FleetSession;
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_core::session::Session;
use uniloc_env::{campus, venues, Scenario};
use uniloc_faults::{FaultInjector, FaultPlan};
use uniloc_obs::session::SessionCapture;
use uniloc_sensors::SensorFrame;
use uniloc_stats::json::Json;

/// Resolves the CLI scenario vocabulary (`path1`..`path8`, `mall`,
/// `open-space`, `office`) to a concrete [`Scenario`].
pub fn scenario_by_name(name: &str, seed: u64) -> Result<Scenario, String> {
    match name {
        "path1" | "daily" => Ok(campus::daily_path(seed)),
        "path2" | "path3" | "path4" | "path5" | "path6" | "path7" | "path8" => {
            let idx: usize = name[4..].parse().expect("digit-suffixed name");
            Ok(campus::all_paths(seed).swap_remove(idx - 1))
        }
        "mall" => Ok(venues::shopping_mall(seed, 1).swap_remove(0)),
        "open-space" => Ok(venues::urban_open_space(seed, 1).swap_remove(0)),
        "office" => Ok(venues::office("cli-office", seed, 50.0, 18.0)),
        other => Err(format!("unknown scenario `{other}` (try `uniloc scenarios`)")),
    }
}

/// One chaos run's resilience summary (one scenario × one fault plan).
pub struct ChaosOutcome {
    pub plan: String,
    pub epochs: usize,
    pub injected_events: usize,
    pub clean_mean: Option<f64>,
    pub faulted_mean: Option<f64>,
    pub mean_shift: Option<f64>,
    pub p50_shift: Option<f64>,
    pub p90_shift: Option<f64>,
    pub worst_ladder: String,
    pub final_ladder: String,
    pub lost_terminal: bool,
    pub nonfinite_fused: usize,
    pub quarantined_epochs: usize,
    pub schemes_quarantined: Vec<String>,
    pub epochs_to_recover: Option<usize>,
    pub recovered: bool,
}

impl ChaosOutcome {
    fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::Obj(vec![
            ("plan".into(), Json::Str(self.plan.clone())),
            ("epochs".into(), Json::Int(self.epochs as i64)),
            ("injected_events".into(), Json::Int(self.injected_events as i64)),
            ("clean_mean_m".into(), opt(self.clean_mean)),
            ("faulted_mean_m".into(), opt(self.faulted_mean)),
            ("mean_shift_m".into(), opt(self.mean_shift)),
            ("p50_shift_m".into(), opt(self.p50_shift)),
            ("p90_shift_m".into(), opt(self.p90_shift)),
            ("worst_ladder".into(), Json::Str(self.worst_ladder.clone())),
            ("final_ladder".into(), Json::Str(self.final_ladder.clone())),
            ("lost_terminal".into(), Json::Bool(self.lost_terminal)),
            ("nonfinite_fused".into(), Json::Int(self.nonfinite_fused as i64)),
            ("quarantined_epochs".into(), Json::Int(self.quarantined_epochs as i64)),
            (
                "schemes_quarantined".into(),
                Json::Arr(self.schemes_quarantined.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "epochs_to_recover".into(),
                self.epochs_to_recover.map_or(Json::Null, |e| Json::Int(e as i64)),
            ),
            ("recovered".into(), Json::Bool(self.recovered)),
        ])
    }
}

/// The fused error of one epoch: UniLoc2 when available, UniLoc1 otherwise
/// (mirroring the engine's own degradation order).
pub fn fused_error(r: &EpochRecord) -> Option<f64> {
    r.uniloc2_error.or(r.uniloc1_error)
}

/// `q`-quantile of a sorted slice (nearest-rank); `None` when empty.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// (mean, p50, p90) of the finite fused errors in `records`.
pub fn error_stats(records: &[EpochRecord]) -> (Option<f64>, Option<f64>, Option<f64>) {
    let mut errs: Vec<f64> =
        records.iter().filter_map(fused_error).filter(|e| e.is_finite()).collect();
    errs.sort_by(|a, b| a.total_cmp(b));
    let mean = if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    };
    (mean, percentile(&errs, 0.5), percentile(&errs, 0.9))
}

/// Sweep parameters, fully determining the output artifacts.
pub struct ChaosConfig {
    pub seed: u64,
    pub scenario_names: Vec<String>,
    pub plans: Vec<FaultPlan>,
    /// Worker-thread count for the fleet run; `1` runs everything inline on
    /// the caller's thread. The artifacts are identical at any value.
    pub jobs: usize,
}

/// One scenario's finished report.
pub struct ChaosReport {
    /// The scenario's display name (`scenario.name`, e.g. `cli-office`).
    pub scenario: String,
    /// The canonical (sorted-key) report document.
    pub report: Json,
    pub outcomes: Vec<ChaosOutcome>,
}

impl ChaosReport {
    /// The artifact filename this report is written to: `CHAOS_<name>.json`
    /// with path separators and spaces flattened.
    pub fn file_name(&self) -> String {
        format!("CHAOS_{}.json", self.scenario.replace(['/', ' '], "_"))
    }
}

/// The sweep's complete output: per-scenario reports in request order, the
/// resilience-contract violations in canonical cell order, and the merged
/// observability sidecar of every walker.
pub struct ChaosSweep {
    pub reports: Vec<ChaosReport>,
    pub violations: Vec<String>,
    pub obs: SessionCapture,
}

/// Injects `plan` into `frames` on the plan's own fault stream, seeded by
/// `root_seed` XOR a hash of the plan's index-free name, so re-running a
/// sweep or a fleet bit-reproduces every faulted stream. The chaos sweep
/// roots it at the sweep seed, the fleet at each walker's seed. The
/// `faults.injected.*` counters land in the calling thread's
/// observability session. Returns the faulted frames and the number of
/// faults applied.
pub fn inject_plan(
    plan: FaultPlan,
    root_seed: u64,
    scenario: &Scenario,
    frames: &[SensorFrame],
) -> (Vec<SensorFrame>, usize) {
    let fault_seed = root_seed
        ^ plan.name.bytes().fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mut injector =
        FaultInjector::new(plan, fault_seed).with_geo_frame(*scenario.world.geo_frame());
    let faulted = injector.inject_walk(frames);
    (faulted, injector.events().len())
}

/// A scenario's clean baseline: the error statistics every cell is scored
/// against.
struct Baseline {
    epochs: usize,
    mean: Option<f64>,
    p50: Option<f64>,
    p90: Option<f64>,
}

impl Baseline {
    fn of(records: &[EpochRecord]) -> Baseline {
        let (mean, p50, p90) = error_stats(records);
        Baseline { epochs: records.len(), mean, p50, p90 }
    }
}

/// Runs the scenario × plan matrix as one fleet run and assembles every
/// output in canonical order. Progress lines are emitted from the
/// caller's thread in lane order, so stderr output is deterministic too.
///
/// # Errors
///
/// Returns the first unknown scenario name, in request order, and the
/// first walker that panicked ([`crate::run_walk_batch`]).
pub fn run_sweep(
    models: &ErrorModelSet,
    cfg: &PipelineConfig,
    sweep: &ChaosConfig,
) -> Result<ChaosSweep, String> {
    let seed = sweep.seed;
    let walk_seed = seed + 100;

    // Each scenario and its clean frame stream, built once, in request
    // order; every lane of the scenario shares them.
    let mut scenarios = Vec::with_capacity(sweep.scenario_names.len());
    for name in &sweep.scenario_names {
        let scenario = Arc::new(scenario_by_name(name, seed)?);
        let frames = Arc::new(pipeline::walk_frames(&scenario, cfg, walk_seed));
        uniloc_obs::info!(
            "chaos: {} — {} epochs, {} plan(s)",
            scenario.name,
            frames.len(),
            sweep.plans.len()
        );
        scenarios.push((scenario, frames));
    }

    // A walker on `scenario`: the clean walk, or with `cell` the walk
    // under the cell's fault plan. The faulted stream is injected when the
    // walker is built, under its own observability session, so the
    // `faults.injected.*` counters land in the cell's capture; the number
    // of faults applied goes to the cell's slot.
    let models = Arc::new(models.clone());
    let builder = |scenario: &Arc<Scenario>,
                   clean: &Arc<Vec<SensorFrame>>,
                   cell: Option<(FaultPlan, Arc<AtomicUsize>)>| {
        let name = match &cell {
            Some((plan, _)) => format!("{}/{}", scenario.name, plan.name),
            None => scenario.name.clone(),
        };
        let (scenario, clean) = (Arc::clone(scenario), Arc::clone(clean));
        let (models, cfg) = (Arc::clone(&models), cfg.clone());
        move |lane| {
            FleetSession::build(lane, name, move || {
                let frames = match cell {
                    Some((plan, injected)) => {
                        let (faulted, events) = inject_plan(plan, seed, &scenario, &clean);
                        injected.store(events, Ordering::Relaxed);
                        faulted
                    }
                    None => clean.to_vec(),
                };
                (Session::new(scenario, &models, &cfg, walk_seed), frames)
            })
        }
    };
    // Lanes 0..S: the clean baselines; lane S + s·P + p: cell (s, p).
    let mut builders: Vec<_> =
        scenarios.iter().map(|(scenario, clean)| builder(scenario, clean, None)).collect();
    let mut injected_events = Vec::with_capacity(scenarios.len() * sweep.plans.len());
    for (scenario, clean) in &scenarios {
        for plan in &sweep.plans {
            let injected = Arc::new(AtomicUsize::new(0));
            builders.push(builder(scenario, clean, Some((plan.clone(), Arc::clone(&injected)))));
            injected_events.push(injected);
        }
    }
    // Walkers arrive in lane order, so every baseline is in before the
    // first cell is scored.
    let (scenario_count, plan_count) = (scenarios.len(), sweep.plans.len());
    let mut baselines = Vec::with_capacity(scenario_count);
    let mut outcomes = Vec::with_capacity(injected_events.len());
    let mut clean_obs = Ok(SessionCapture::default());
    let mut cell_obs = Ok(SessionCapture::default());
    crate::run_walk_batch(sweep.jobs, builders, |walker| {
        match (walker.lane as usize).checked_sub(scenario_count) {
            None => {
                crate::fold_capture(&mut clean_obs, &walker.capture);
                baselines.push(Baseline::of(&walker.records));
            }
            Some(cell) => {
                crate::fold_capture(&mut cell_obs, &walker.capture);
                let injected = injected_events[cell].load(Ordering::Relaxed);
                let (plan, base) = (&sweep.plans[cell % plan_count], &baselines[cell / plan_count]);
                outcomes.push(score_cell(plan, &walker.records, injected, base));
            }
        }
    })
    .map_err(|e| e.to_string())?;
    // The baselines' captures fold first, then the cells', then the two
    // merge: histogram sums are floats, so the grouping is part of the
    // sidecar's bytes.
    let mut obs = clean_obs?;
    obs.merge(&cell_obs?).map_err(|e| format!("observability merge failed: {e}"))?;

    // Assemble reports and the violation list in lane order.
    let mut outcomes = outcomes.into_iter();
    let mut reports = Vec::with_capacity(scenario_count);
    let mut violations = Vec::new();
    for ((scenario, _), base) in scenarios.iter().zip(baselines) {
        let scenario_outcomes: Vec<ChaosOutcome> = outcomes.by_ref().take(plan_count).collect();
        for outcome in &scenario_outcomes {
            uniloc_obs::info!(
                "  {:<16} events={:<4} shift mean {:+.1} m p90 {:+.1} m worst={} recover={}",
                outcome.plan,
                outcome.injected_events,
                outcome.mean_shift.unwrap_or(f64::NAN),
                outcome.p90_shift.unwrap_or(f64::NAN),
                outcome.worst_ladder,
                outcome
                    .epochs_to_recover
                    .map_or_else(|| "never".to_owned(), |e| format!("{e} epochs")),
            );
            let name = &scenario.name;
            if outcome.lost_terminal {
                violations
                    .push(format!("{}/{}: terminal ladder state is lost", name, outcome.plan));
            }
            if outcome.nonfinite_fused > 0 {
                violations.push(format!(
                    "{}/{}: {} non-finite fused estimate(s)",
                    name, outcome.plan, outcome.nonfinite_fused
                ));
            }
            if !outcome.recovered {
                violations.push(format!(
                    "{}/{}: quarantine never lifted after the fault window",
                    name, outcome.plan
                ));
            }
        }
        let report = Json::Obj(vec![
            ("scenario".into(), Json::Str(scenario.name.clone())),
            ("seed".into(), Json::Int(seed as i64)),
            ("epochs".into(), Json::Int(base.epochs as i64)),
            ("clean_mean_m".into(), base.mean.map_or(Json::Null, Json::Num)),
            (
                "runs".into(),
                Json::Arr(scenario_outcomes.iter().map(ChaosOutcome::to_json).collect()),
            ),
        ])
        .canonical();
        reports.push(ChaosReport {
            scenario: scenario.name.clone(),
            report,
            outcomes: scenario_outcomes,
        });
    }

    Ok(ChaosSweep { reports, violations, obs })
}

/// Scores one (scenario, plan) cell's records against the clean baseline.
fn score_cell(
    plan: &FaultPlan,
    records: &[EpochRecord],
    injected_events: usize,
    base: &Baseline,
) -> ChaosOutcome {
    let (faulted_mean, faulted_p50, faulted_p90) = error_stats(records);
    let nonfinite_fused =
        records.iter().filter_map(fused_error).filter(|e| !e.is_finite()).count();
    let worst = records.iter().map(|r| r.ladder).max().unwrap_or_default();
    let final_ladder = records.last().map(|r| r.ladder).unwrap_or_default();
    let quarantined_epochs = records.iter().filter(|r| !r.quarantined.is_empty()).count();
    let mut schemes_quarantined: Vec<String> = Vec::new();
    for r in records {
        for id in &r.quarantined {
            let s = id.to_string();
            if !schemes_quarantined.contains(&s) {
                schemes_quarantined.push(s);
            }
        }
    }
    // Recovery: epochs past the last fault window until the quarantine
    // set empties and stays empty through the end.
    let window_end =
        ((plan.last_window_end() * records.len() as f64).ceil() as usize).min(records.len());
    let clear_from = records
        .iter()
        .rposition(|r| !r.quarantined.is_empty())
        .map_or(window_end, |i| i + 1);
    let recovered = clear_from <= records.len().saturating_sub(1) || quarantined_epochs == 0;
    let epochs_to_recover = if quarantined_epochs == 0 {
        Some(0)
    } else if recovered {
        Some(clear_from.saturating_sub(window_end))
    } else {
        None
    };

    let sub = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => Some(a - b),
        _ => None,
    };
    ChaosOutcome {
        plan: plan.name.clone(),
        epochs: records.len(),
        injected_events,
        clean_mean: base.mean,
        faulted_mean,
        mean_shift: sub(faulted_mean, base.mean),
        p50_shift: sub(faulted_p50, base.p50),
        p90_shift: sub(faulted_p90, base.p90),
        worst_ladder: worst.to_string(),
        final_ladder: final_ladder.to_string(),
        lost_terminal: final_ladder == uniloc_core::DegradationLadder::Lost,
        nonfinite_fused,
        quarantined_epochs,
        schemes_quarantined,
        epochs_to_recover,
        recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lookup() {
        assert_eq!(scenario_by_name("path1", 1).unwrap().name, "path1");
        assert_eq!(scenario_by_name("path5", 1).unwrap().name, "path5");
        assert!(scenario_by_name("mall", 1).unwrap().name.starts_with("mall"));
        assert!(scenario_by_name("mars", 1).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), Some(3.0));
    }

    #[test]
    fn sweep_rejects_unknown_scenario() {
        let models = ErrorModelSet::default();
        let cfg = PipelineConfig::default();
        let sweep = ChaosConfig {
            seed: 1,
            scenario_names: vec!["mars".to_owned()],
            plans: FaultPlan::smoke_library(),
            jobs: 2,
        };
        let err = match run_sweep(&models, &cfg, &sweep) {
            Ok(_) => panic!("unknown scenario must fail"),
            Err(e) => e,
        };
        assert!(err.contains("mars"), "{err}");
    }
}
