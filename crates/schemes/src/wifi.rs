//! The WiFi RSSI fingerprinting scheme (RADAR [1]).
//!
//! "We calculate the Euclidean distances between an online measured RSSI
//! vector and all offline fingerprints, and find the location with the
//! shortest RSSI distance." Heterogeneous devices first map their readings
//! into the reference device's RSSI space via an online-learned offset
//! ([`RssiCalibration`]).

use std::sync::Arc;

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::{self, FingerprintMatch, WifiFingerprintDb, MIN_APS, TOP_K};
use uniloc_sensors::{RssiCalibration, SensorFrame, WifiScan};

/// The RADAR-style WiFi fingerprinting scheme.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use uniloc_env::campus;
/// use uniloc_schemes::{WifiFingerprintDb, WifiFingerprintScheme, LocalizationScheme};
/// use uniloc_sensors::{DeviceProfile, SensorHub};
///
/// let scenario = campus::daily_path(1);
/// let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 2);
/// let points = scenario.survey_points(3.0, 12.0);
/// let db = Arc::new(WifiFingerprintDb::survey_wifi(&mut hub, &points));
/// let scheme = WifiFingerprintScheme::new(db);
/// ```
#[derive(Debug, Clone)]
pub struct WifiFingerprintScheme {
    db: Arc<WifiFingerprintDb>,
    calibration: RssiCalibration,
    /// Top-k candidates of the latest match, for [`LocalizationScheme::posterior`].
    last_matches: Vec<FingerprintMatch>,
    /// Calibrated-scan scratch, recycled across epochs so steady-state
    /// updates perform no heap allocation.
    calibrated_buf: WifiScan,
}

impl WifiFingerprintScheme {
    /// Creates the scheme over an offline fingerprint database. Scans
    /// hearing fewer than [`MIN_APS`] APs yield no estimate.
    pub fn new(db: Arc<WifiFingerprintDb>) -> Self {
        WifiFingerprintScheme {
            db,
            calibration: RssiCalibration::identity(),
            last_matches: Vec::new(),
            calibrated_buf: WifiScan { readings: Vec::new() },
        }
    }

    /// Installs a device calibration (for phones other than the survey
    /// device).
    pub fn with_calibration(mut self, calibration: RssiCalibration) -> Self {
        self.calibration = calibration;
        self
    }
}

impl LocalizationScheme for WifiFingerprintScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Wifi
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        self.last_matches.clear();
        let scan = frame.wifi.as_ref()?;
        if scan.len() < MIN_APS {
            return None;
        }
        {
            // Capacity growth is a warmup artifact (the buffer's high-water
            // mark), not per-epoch work — keep it off the allocation meter.
            let _pause = uniloc_obs::alloc::pause();
            self.calibrated_buf.readings.clear();
            self.calibrated_buf.readings.reserve(scan.readings.len());
        }
        let calibration = self.calibration;
        self.calibrated_buf
            .readings
            .extend(scan.readings.iter().map(|&(id, rssi)| (id, calibration.apply(rssi))));
        self.db.match_scan_into(&self.calibrated_buf, TOP_K, &mut self.last_matches);
        fingerprint::top_k_estimate(&self.last_matches)
    }

    fn posterior(&self) -> Option<Vec<(uniloc_geom::Point, f64)>> {
        fingerprint::top_k_posterior(&self.last_matches)
    }

    fn posterior_mean(&self) -> Option<uniloc_geom::Point> {
        fingerprint::top_k_posterior_mean(&self.last_matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;
    use uniloc_env::{campus, venues, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn scheme_for(scenario: &campus::Scenario, seed: u64) -> WifiFingerprintScheme {
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
        let points = scenario.survey_points(3.0, 12.0);
        WifiFingerprintScheme::new(Arc::new(WifiFingerprintDb::survey_wifi(&mut hub, &points)))
    }

    fn run_and_measure(
        scenario: &campus::Scenario,
        scheme: &mut WifiFingerprintScheme,
        device: DeviceProfile,
        seed: u64,
    ) -> Vec<(f64, Option<f64>)> {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, device, seed + 1);
        hub.sample_walk(&walk, 0.5)
            .iter()
            .map(|f| {
                let err = scheme
                    .update(f)
                    .map(|e| e.position.distance(f.true_position));
                (f.t, err)
            })
            .collect()
    }

    #[test]
    fn accurate_in_training_office() {
        let scenario = venues::training_office(41);
        let mut scheme = scheme_for(&scenario, 42);
        let results = run_and_measure(&scenario, &mut scheme, DeviceProfile::nexus_5x(), 43);
        let errs: Vec<f64> = results.iter().filter_map(|r| r.1).collect();
        assert!(errs.len() > results.len() / 2, "WiFi must be mostly available indoors");
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean < 8.0, "office WiFi mean error {mean}");
    }

    #[test]
    fn unavailable_in_basement() {
        let scenario = campus::daily_path(44);
        let mut scheme = scheme_for(&scenario, 45);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(46));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 47);
        let frames = hub.sample_walk(&walk, 0.5);
        let mut basement_avail = 0usize;
        let mut basement_total = 0usize;
        for f in &frames {
            let (station_pt, _) = scenario.route.project(f.true_position);
            let _ = station_pt;
            if scenario.world.kind_at(f.true_position) == uniloc_env::EnvKind::Basement {
                basement_total += 1;
                basement_avail += usize::from(scheme.update(f).is_some());
            }
        }
        assert!(basement_total > 0);
        assert!(
            (basement_avail as f64) < 0.3 * basement_total as f64,
            "basement availability {basement_avail}/{basement_total}"
        );
    }

    #[test]
    fn heterogeneous_device_degrades_without_calibration() {
        let scenario = venues::training_office(48);
        let mut scheme = scheme_for(&scenario, 49);
        let nexus = run_and_measure(&scenario, &mut scheme, DeviceProfile::nexus_5x(), 50);
        let g3 = run_and_measure(&scenario, &mut scheme, DeviceProfile::lg_g3(), 50);
        let mean = |v: &[(f64, Option<f64>)]| {
            let e: Vec<f64> = v.iter().filter_map(|r| r.1).collect();
            e.iter().sum::<f64>() / e.len() as f64
        };
        assert!(
            mean(&g3) > mean(&nexus),
            "uncalibrated G3 ({}) should be worse than Nexus ({})",
            mean(&g3),
            mean(&nexus)
        );
    }

    #[test]
    fn calibration_recovers_heterogeneous_accuracy() {
        let scenario = venues::training_office(51);
        let base = scheme_for(&scenario, 52);
        // Learn the G3 -> Nexus transfer from paired observations.
        let mut nexus_hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 53);
        let mut g3_hub = SensorHub::new(&scenario.world, DeviceProfile::lg_g3(), 53);
        let mut pairs = Vec::new();
        for p in scenario.survey_points(6.0, 12.0) {
            let a = nexus_hub.scan_wifi(p);
            let b = g3_hub.scan_wifi(p);
            for (ra, rb) in a.readings.iter().zip(&b.readings) {
                if ra.0 == rb.0 {
                    pairs.push((rb.1, ra.1));
                }
            }
        }
        let cal = RssiCalibration::learn(&pairs).unwrap();
        let mut calibrated = base.clone().with_calibration(cal);
        let mut raw = base;
        let with_cal = run_and_measure(&scenario, &mut calibrated, DeviceProfile::lg_g3(), 54);
        let without = run_and_measure(&scenario, &mut raw, DeviceProfile::lg_g3(), 54);
        let mean = |v: &[(f64, Option<f64>)]| {
            let e: Vec<f64> = v.iter().filter_map(|r| r.1).collect();
            e.iter().sum::<f64>() / e.len() as f64
        };
        assert!(
            mean(&with_cal) < mean(&without),
            "calibrated ({}) must beat uncalibrated ({})",
            mean(&with_cal),
            mean(&without)
        );
    }

    #[test]
    fn min_aps_gate() {
        let scenario = venues::training_office(55);
        let mut scheme = scheme_for(&scenario, 56);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(57));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 58);
        let mut frame = hub.sample_walk(&walk, 0.5).swap_remove(10);
        assert!(scheme.update(&frame).is_some());
        frame.wifi.as_mut().unwrap().readings.truncate(MIN_APS - 1);
        assert!(scheme.update(&frame).is_none(), "2 APs are below the gate");
    }
}
