//! Failure injection: UniLoc must keep delivering positions when its
//! inputs misbehave — "UniLoc can temporarily exclude one localization
//! scheme by simply setting its confidence as zero, if it is not available
//! in some regions, e.g., no signal."
//!
//! The matrix here drives the deterministic fault injector
//! (`uniloc-faults`) over whole walks and asserts the engine-side defense
//! contract on the per-epoch records:
//!
//! * no panic, one output per input frame;
//! * every fused error that exists is finite;
//! * the degradation ladder reflects the fault while it is active and is
//!   never `Lost` at the end of the walk;
//! * a scheme quarantined by the trip-wires is re-admitted once its
//!   channel heals — the quarantine set is empty again by the final epoch.

use std::sync::{Arc, OnceLock};

use uniloc::core::error_model::{train, ErrorModelSet};
use uniloc::core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc::core::session::Session;
use uniloc::core::DegradationLadder;
use uniloc::env::{campus, venues, Scenario};
use uniloc::faults::{FaultClause, FaultInjector, FaultKind, FaultPlan};
use uniloc::schemes::SchemeId;

fn models() -> &'static ErrorModelSet {
    static MODELS: OnceLock<ErrorModelSet> = OnceLock::new();
    MODELS.get_or_init(|| {
        let cfg = PipelineConfig::default();
        let mut samples = pipeline::collect_training(&venues::training_office(41), &cfg, 42);
        samples.extend(pipeline::collect_training(&venues::training_open_space(43), &cfg, 44));
        train(&samples).expect("training venues produce enough samples")
    })
}

/// Runs one scenario twice over the *same* frame stream: clean, and with
/// `plan` injected. Returns `(clean, faulted)` per-epoch records.
fn run_pair(scenario: &Scenario, plan: FaultPlan, seed: u64) -> (Vec<EpochRecord>, Vec<EpochRecord>) {
    let cfg = PipelineConfig::default();
    let serve = |frames: &[uniloc::sensors::SensorFrame]| -> Vec<EpochRecord> {
        let mut session = Session::new(Arc::new(scenario.clone()), models(), &cfg, seed);
        frames.iter().map(|frame| session.step(frame)).collect()
    };
    let frames = pipeline::walk_frames(scenario, &cfg, seed);
    let clean = serve(&frames);
    let mut injector =
        FaultInjector::new(plan, seed ^ 0xc4a05).with_geo_frame(*scenario.world.geo_frame());
    let faulted_frames = injector.inject_walk(&frames);
    let faulted = serve(&faulted_frames);
    assert_eq!(
        faulted.len(),
        faulted_frames.len(),
        "one record per injected frame ({})",
        injector.plan().name
    );
    (clean, faulted)
}

/// The defense contract every faulted run must satisfy.
fn assert_survival(records: &[EpochRecord], label: &str) {
    for (i, r) in records.iter().enumerate() {
        for e in [r.uniloc1_error, r.uniloc2_error, r.uniloc2_mixture_error].into_iter().flatten() {
            assert!(e.is_finite(), "{label}: non-finite fused error at epoch {i}");
        }
    }
    let last = records.last().expect("non-empty walk");
    assert_ne!(last.ladder, DegradationLadder::Lost, "{label}: walk ends lost");
    assert!(
        last.quarantined.is_empty(),
        "{label}: quarantine never lifted: {:?}",
        last.quarantined
    );
}

#[test]
fn injected_fault_matrix_is_survivable() {
    // One library plan per fault family that the indoor office walk can
    // express (GPS plans need the campus path's outdoor tail — see below).
    let office = venues::training_office(41);
    for plan_name in ["radio_blackout", "wifi_ap_churn", "nan_storm", "frame_chaos"] {
        let plan = FaultPlan::by_name(plan_name).expect("library plan");
        let (clean, faulted) = run_pair(&office, plan, 45);
        assert_survival(&faulted, plan_name);
        // The clean twin must be indistinguishable from a plain run_walk.
        let direct = pipeline::run_walk(&office, models(), &PipelineConfig::default(), 45);
        assert_eq!(
            uniloc::stats::json::to_string(&clean),
            uniloc::stats::json::to_string(&direct),
            "{plan_name}: clean twin diverged from run_walk"
        );
    }
}

#[test]
fn radio_blackout_walks_down_the_ladder_and_back() {
    let office = venues::training_office(41);
    let plan = FaultPlan::by_name("radio_blackout").expect("library plan");
    let window_end = plan.last_window_end();
    let (_, faulted) = run_pair(&office, plan, 45);
    let n = faulted.len();
    let worst = faulted.iter().map(|r| r.ladder).max().expect("non-empty");
    assert!(
        worst >= DegradationLadder::Degraded(3),
        "killing three radios must show on the ladder, got {worst}"
    );
    // After the blackout lifts the ladder must come back off the floor.
    let tail_start = ((window_end * n as f64).ceil() as usize + 5).min(n - 1);
    let tail_best = faulted[tail_start..].iter().map(|r| r.ladder).min().expect("tail");
    assert!(
        tail_best < DegradationLadder::DeadReckoningOnly,
        "radios healed but the ladder stayed at {tail_best}"
    );
}

#[test]
fn imu_stuck_axis_keeps_fused_output_alive() {
    let office = venues::training_office(41);
    let plan = FaultPlan::by_name("imu_stuck_axis").expect("library plan");
    let (_, faulted) = run_pair(&office, plan, 45);
    assert_survival(&faulted, "imu_stuck_axis");
    let delivered = faulted.iter().filter(|r| r.uniloc2_error.is_some()).count();
    assert!(
        delivered * 10 >= faulted.len() * 9,
        "stuck IMU should not starve fusion: {delivered}/{} epochs delivered",
        faulted.len()
    );
}

#[test]
fn gps_multipath_trips_quarantine_and_readmits() {
    // The campus daily path reaches open sky on its last quarter — the
    // only stretch with GPS fixes, which is where the multipath plan
    // strikes. 900 m jumps must convict the GPS scheme, and the conviction
    // must lapse once the channel heals.
    let path = campus::daily_path(3);
    let plan = FaultPlan::by_name("gps_multipath").expect("library plan");
    let (clean, faulted) = run_pair(&path, plan, 45);
    assert_survival(&faulted, "gps_multipath");
    assert!(
        clean.iter().all(|r| r.quarantined.is_empty()),
        "clean walk must never trip quarantine"
    );
    let quarantined_epochs = faulted
        .iter()
        .filter(|r| r.quarantined.contains(&SchemeId::Gps))
        .count();
    assert!(quarantined_epochs > 0, "900 m GPS jumps must trip the teleport wire");
    // assert_survival already checked the final epoch is quarantine-free,
    // so the sentence + probation completed inside the recovery tail.
}

#[test]
fn time_regression_and_duplicates_do_not_double_integrate() {
    // A dedicated frame-replay plan: heavy duplication plus clock
    // regression. The PDR integrator must not consume replayed steps, so
    // the faulted walk's motion estimates must stay in the same error
    // regime as the clean twin rather than teleporting off the map.
    let office = venues::training_office(41);
    let plan = FaultPlan::new(
        "replay_storm",
        vec![
            FaultClause::over(0.2, 0.6, FaultKind::DuplicateFrame { prob: 0.5 }),
            FaultClause::over(0.2, 0.6, FaultKind::TimeRegression { offset_s: 5.0, prob: 0.3 }),
        ],
    );
    let (clean, faulted) = run_pair(&office, plan, 45);
    assert_survival(&faulted, "replay_storm");
    assert!(
        faulted.len() > clean.len(),
        "replayed frames must appear in the record stream"
    );
    let mean = |rs: &[EpochRecord]| {
        let v: Vec<f64> = rs.iter().filter_map(|r| r.uniloc2_error).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let (c, f) = (mean(&clean), mean(&faulted));
    assert!(
        f < c * 6.0 + 5.0,
        "replay storm wrecked accuracy: clean {c:.2} m -> faulted {f:.2} m"
    );
}

#[test]
fn empty_fingerprint_database_is_survivable() {
    // A venue with no audible APs at survey time: the WiFi scheme is
    // permanently unavailable, UniLoc runs on the remaining schemes.
    use uniloc::env::{GaitProfile, Walker};
    use uniloc::geom::Point;
    use uniloc::schemes::{LocalizationScheme, WifiFingerprintDb, WifiFingerprintScheme};
    use uniloc::sensors::{DeviceProfile, SensorHub, WifiScan};
    use uniloc_rng::Rng;

    let empty = WifiFingerprintDb::from_entries(Vec::<(Point, WifiScan)>::new());
    assert!(empty.is_empty());
    let mut scheme = WifiFingerprintScheme::new(std::sync::Arc::new(empty));
    let venue = venues::training_office(71);
    let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(72));
    let walk = walker.walk(&venue.route);
    let mut hub = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 73);
    for frame in hub.sample_walk(&walk, 0.5).iter().take(50) {
        assert!(scheme.update(frame).is_none(), "no DB means no estimates");
    }
}
