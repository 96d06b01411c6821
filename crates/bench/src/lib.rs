//! Shared harness for the experiment regenerators.
//!
//! Every table and figure in the paper's evaluation (Section V) has a
//! binary in `src/bin/` that regenerates it against the simulated substrate
//! (see `DESIGN.md` for the per-experiment index). This library holds what
//! they share: the one-time error-model training, walk batches on the
//! fleet scheduler, walk aggregation and plain-text table/series printing.

pub mod chaos;
pub mod fleet;
pub mod microbench;
pub mod regression;

use std::fmt;
use std::sync::Arc;

use uniloc_core::error_model::{train, ErrorModelSet};
use uniloc_core::fleet::{
    FinishedSession, FleetEvent, FleetScheduler, FleetSession, RunControl, SupervisionPolicy,
};
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_core::session::Session;
use uniloc_env::{venues, Scenario};
use uniloc_obs::session::{ObsSession, SessionCapture};
use uniloc_obs::{StderrSubscriber, TraceLevel};
use uniloc_schemes::SchemeId;
use uniloc_sensors::{DeviceProfile, RssiCalibration, SensorHub};
use uniloc_stats::json::{Json, ToJson};
use uniloc_stats::{percentile, Ecdf};

/// Installs a stderr progress subscriber at `Info` so the regenerators'
/// `uniloc_obs::info!` progress lines are visible; set `UNILOC_QUIET=1` to
/// suppress them. Every `src/bin/` regenerator calls this first.
pub fn init_obs() {
    if std::env::var_os("UNILOC_QUIET").is_some_and(|v| v == "1") {
        return;
    }
    uniloc_obs::global()
        .set_subscriber(Some(Arc::new(StderrSubscriber::new(TraceLevel::Info))));
}

/// Writes `results/BENCH_<name>.json` (or `./BENCH_<name>.json` when no
/// `results/` directory exists under the working directory): the per-stage
/// latency breakdown accumulated in the global `span.*` duration
/// histograms while the regenerator ran. Returns the path written, or
/// `None` when no spans were recorded.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_latency_breakdown(name: &str) -> std::io::Result<Option<String>> {
    let snap = uniloc_obs::global_metrics().snapshot();
    let mut stages = Vec::new();
    for (metric, h) in &snap.histograms {
        let Some(stage) = metric.strip_prefix("span.") else { continue };
        let Some((p50, p90, p99)) = h.summary() else { continue };
        stages.push((
            stage.to_owned(),
            Json::Obj(vec![
                ("count".to_owned(), h.count().to_json()),
                ("mean_ns".to_owned(), h.mean().to_json()),
                ("p50_ns".to_owned(), p50.to_json()),
                ("p90_ns".to_owned(), p90.to_json()),
                ("p99_ns".to_owned(), p99.to_json()),
                ("sum_ns".to_owned(), h.sum.to_json()),
            ]),
        ));
    }
    if stages.is_empty() {
        return Ok(None);
    }
    let doc = Json::Obj(vec![
        ("bench".to_owned(), Json::Str(name.to_owned())),
        ("stages".to_owned(), Json::Obj(stages)),
    ]);
    let dir = if std::path::Path::new("results").is_dir() { "results" } else { "." };
    let path = format!("{dir}/BENCH_{name}.json");
    std::fs::write(&path, doc.canonical().to_string_pretty())?;
    Ok(Some(path))
}

/// Emits the run's latency breakdown (see [`write_latency_breakdown`]) and
/// logs where it went; every regenerator calls this last.
pub fn finish(name: &str) {
    match write_latency_breakdown(name) {
        Ok(Some(path)) => uniloc_obs::info!("latency breakdown: {path}"),
        Ok(None) => {}
        Err(e) => uniloc_obs::warn!("latency breakdown for {name} not written: {e}"),
    }
}

/// Worker count for the regenerators: `UNILOC_JOBS` when set (≥ 1), else
/// the machine's available cores. Results are byte-identical at any value.
pub fn jobs_from_env() -> usize {
    std::env::var("UNILOC_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        })
}

/// Fleet tick for batches of whole walks: longer than any walk, so every
/// session is built in its admission round and served to its last frame
/// in the next. The results never depend on the tick or the resident cap
/// (`DESIGN.md` §9); this value only keeps the rounds, and with them the
/// per-round pool start-ups, to a minimum.
const WHOLE_WALK_TICK_S: f64 = 1e6;

/// A batch walker that panicked: the walker retired at its first panic,
/// with the records and capture of the epochs it served before it.
pub struct WalkPanicked(pub Box<FinishedSession>);

impl fmt::Display for WalkPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let walker = &self.0;
        match &walker.poisoned {
            Some(failure) => write!(f, "walk {} failed: {failure}", walker.name),
            None => write!(f, "walk {} failed", walker.name),
        }
    }
}

/// Runs a batch of independent walks as one [`FleetScheduler`] run: one
/// lane per builder, numbered by position, on up to `jobs` workers. Each
/// builder receives its lane and returns the walker's [`FleetSession`].
/// Every finished walker goes to `on_walker` in lane order, whatever
/// `jobs` is, and is dropped after it, so a batch holds only the walkers
/// still running.
///
/// # Errors
///
/// The first walker, in lane order, that panicked; `on_walker` sees no
/// walker from that lane on. A walker is never retried: a retry would
/// resume the walk from the state the panic left half-mutated, so the
/// first panic fails the batch.
pub fn run_walk_batch<B>(
    jobs: usize,
    builders: Vec<B>,
    mut on_walker: impl FnMut(FinishedSession),
) -> Result<(), WalkPanicked>
where
    B: FnOnce(u64) -> FleetSession + Send + 'static,
{
    // At most `jobs` walkers live at once, which bounds memory by the
    // worker count rather than by the batch size.
    let mut scheduler = FleetScheduler::new(jobs, WHOLE_WALK_TICK_S, jobs);
    for (lane, build) in (0u64..).zip(builders) {
        scheduler.admit(lane, move || build(lane));
    }
    let policy = SupervisionPolicy { max_strikes: 1, ..SupervisionPolicy::default() };
    let mut failed = None;
    scheduler.run_supervised(&policy, &RunControl::default(), |event| {
        let FleetEvent::Finished(walker) = event else { return };
        if failed.is_none() {
            if walker.poisoned.is_some() {
                failed = Some(walker);
            } else {
                on_walker(*walker);
            }
        }
    });
    failed.map_or(Ok(()), |walker| Err(WalkPanicked(walker)))
}

/// Folds `capture`, the next walker's in lane order, into `merged`
/// ([`SessionCapture::merge`]); the first merge error sticks.
pub fn fold_capture(merged: &mut Result<SessionCapture, String>, capture: &SessionCapture) {
    if let Ok(acc) = merged {
        if let Err(e) = acc.merge(capture) {
            *merged = Err(format!("observability merge failed: {e}"));
        }
    }
}

/// Runs one walk per `(scenario, cfg, seed)` triple on up to `jobs`
/// workers and returns each walk's records in input order — the same
/// records the solo driver `run_walk` returns for that triple. Each
/// walker times its spans on the process clock (its isolated
/// observability session has no clock of its own), and the walkers'
/// merged metrics are absorbed into the process registry afterward, so
/// [`write_latency_breakdown`] reports wall-clock stage latencies at any
/// `jobs`.
///
/// # Panics
///
/// Panics when a walk panics (see [`run_walk_batch`]).
pub fn run_walks_parallel(
    walks: Vec<(Arc<Scenario>, PipelineConfig, u64)>,
    models: &Arc<ErrorModelSet>,
    jobs: usize,
) -> Vec<Vec<EpochRecord>> {
    let builders: Vec<_> = walks
        .into_iter()
        .map(|(scenario, cfg, seed)| {
            let models = Arc::clone(models);
            move |lane| {
                let mut obs = ObsSession::isolated();
                obs.clock = None;
                FleetSession::build_with_obs(lane, scenario.name.clone(), Arc::new(obs), move || {
                    let frames = pipeline::walk_frames(&scenario, &cfg, seed);
                    (Session::new(scenario, &models, &cfg, seed), frames)
                })
            }
        })
        .collect();
    let mut records = Vec::new();
    let mut merged = Ok(SessionCapture::default());
    run_walk_batch(jobs, builders, |walker| {
        fold_capture(&mut merged, &walker.capture);
        records.push(walker.records);
    })
    .unwrap_or_else(|e| panic!("{e}"));
    let capture = merged.unwrap_or_else(|e| panic!("{e}"));
    if let Err(e) = uniloc_obs::process_metrics().absorb(&capture.metrics) {
        uniloc_obs::warn!("bench metrics re-absorb failed: {e}");
    }
    records
}

/// The labels used across printed tables, in the paper's order.
pub const SYSTEM_LABELS: [&str; 8] =
    ["gps", "wifi", "cellular", "motion", "fusion", "oracle", "uniloc1", "uniloc2"];

/// Trains the error models exactly as Section III-B does: one pass over the
/// training office and the training open space.
///
/// # Panics
///
/// Panics if the training venues fail to produce enough samples (they
/// cannot, unless the substrate is broken).
pub fn trained_models(seed: u64) -> ErrorModelSet {
    uniloc_obs::info!("training error models (office + open space, seed {seed}) ...");
    let cfg = PipelineConfig::default();
    let mut samples = pipeline::collect_training(&venues::training_office(seed), &cfg, seed + 10);
    samples.extend(pipeline::collect_training(
        &venues::training_open_space(seed + 1),
        &cfg,
        seed + 11,
    ));
    train(&samples).expect("training venues produce enough samples")
}

/// Per-epoch error series of one system, for figure printing.
pub fn system_errors(records: &[EpochRecord], system: &str) -> Vec<Option<f64>> {
    records
        .iter()
        .map(|r| match system {
            "oracle" => r.oracle_error,
            "uniloc1" => r.uniloc1_error,
            "uniloc2" => r.uniloc2_error,
            _ => {
                let id = parse_scheme(system);
                r.scheme_errors.iter().find(|(s, _)| *s == id).and_then(|(_, e)| *e)
            }
        })
        .collect()
}

/// Maps a label to a [`SchemeId`].
///
/// # Panics
///
/// Panics on unknown labels.
pub fn parse_scheme(label: &str) -> SchemeId {
    match label {
        "gps" => SchemeId::Gps,
        "wifi" => SchemeId::Wifi,
        "cellular" => SchemeId::Cellular,
        "motion" => SchemeId::Motion,
        "fusion" => SchemeId::Fusion,
        other => panic!("unknown scheme label {other}"),
    }
}

/// Mean of the defined values, or `None`.
pub fn mean_defined(values: &[Option<f64>]) -> Option<f64> {
    pipeline::mean_defined(values.iter().copied())
}

/// Buckets an error series by route station and returns
/// `(bucket_center, mean_error)` rows — the x-axis of Figs. 2 and 3
/// ("Distance from the start point (m)").
pub fn station_series(
    records: &[EpochRecord],
    errors: &[Option<f64>],
    bucket_m: f64,
) -> Vec<(f64, f64)> {
    assert!(bucket_m > 0.0);
    let max_station = records.iter().map(|r| r.station).fold(0.0f64, f64::max);
    let n = (max_station / bucket_m).ceil() as usize + 1;
    let mut sums = vec![0.0; n];
    let mut counts = vec![0usize; n];
    for (r, e) in records.iter().zip(errors) {
        if let Some(e) = e {
            let idx = (r.station / bucket_m) as usize;
            sums[idx] += e;
            counts[idx] += 1;
        }
    }
    (0..n)
        .filter(|&i| counts[i] > 0)
        .map(|i| ((i as f64 + 0.5) * bucket_m, sums[i] / counts[i] as f64))
        .collect()
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut line = String::new();
    for h in headers {
        line.push_str(&format!("{h:>12}"));
    }
    println!("{line}");
    for row in rows {
        let mut line = String::new();
        for cell in row {
            line.push_str(&format!("{cell:>12}"));
        }
        println!("{line}");
    }
}

/// Formats an optional value.
pub fn fmt_opt(v: Option<f64>, prec: usize) -> String {
    match v {
        Some(v) => format!("{v:.prec$}"),
        None => "-".to_owned(),
    }
}

/// CDF summary for one system: `(p50, p90, mean)`.
pub fn cdf_summary(errors: &[f64]) -> Option<(f64, f64, f64)> {
    if errors.is_empty() {
        return None;
    }
    let p50 = percentile(errors, 50.0).ok()?;
    let p90 = percentile(errors, 90.0).ok()?;
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    Some((p50, p90, mean))
}

/// Prints a CDF as an ASCII series (x = error, y = cumulative fraction).
pub fn print_cdf_series(label: &str, errors: &[f64], points: usize) {
    let Ok(cdf) = Ecdf::new(errors.to_vec()) else {
        println!("  {label:<10} (no data)");
        return;
    };
    let series = cdf.series(points);
    let line: Vec<String> =
        series.iter().map(|(x, p)| format!("({x:.1},{p:.2})")).collect();
    println!("  {label:<10} {}", line.join(" "));
}

/// Collects all defined errors of a system across multiple runs.
pub fn pooled_errors(runs: &[Vec<EpochRecord>], system: &str) -> Vec<f64> {
    runs.iter()
        .flat_map(|records| {
            system_errors(records, system)
                .into_iter()
                .flatten()
                .collect::<Vec<f64>>()
        })
        .collect()
}

/// Learns the LG G3 -> Nexus 5X RSSI calibration from paired scans in a
/// scenario — the online offset calibration of Section III-B / Fig. 8d.
pub fn learn_calibration(scenario: &Scenario, seed: u64) -> Option<RssiCalibration> {
    let mut nexus = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
    let mut g3 = SensorHub::new(&scenario.world, DeviceProfile::lg_g3(), seed);
    let mut pairs = Vec::new();
    for p in scenario.survey_points(6.0, 12.0) {
        let a = nexus.scan_wifi(p);
        let b = g3.scan_wifi(p);
        let mut i = 0;
        let mut j = 0;
        while i < a.readings.len() && j < b.readings.len() {
            match a.readings[i].0.cmp(&b.readings[j].0) {
                std::cmp::Ordering::Equal => {
                    pairs.push((b.readings[j].1, a.readings[i].1));
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
    }
    RssiCalibration::learn(&pairs)
}
