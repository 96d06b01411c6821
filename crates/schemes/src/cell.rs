//! The cellular RSSI fingerprinting scheme (Otsason et al. [22]).
//!
//! "We use the same fingerprinting algorithm of RADAR on cellular GSM
//! signals." Macro towers are far away and few, so accuracy is coarse —
//! but cellular reaches places WiFi and GPS do not (the paper's basement
//! segment is where this scheme wins 11.4% of all locations).

use std::sync::Arc;

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::{self, CellFingerprintDb, FingerprintMatch, TOP_K};
use uniloc_sensors::SensorFrame;

/// The cellular fingerprinting scheme.
#[derive(Debug, Clone)]
pub struct CellFingerprintScheme {
    db: Arc<CellFingerprintDb>,
    last_matches: Vec<FingerprintMatch>,
}

impl CellFingerprintScheme {
    /// Creates the scheme over an offline cellular fingerprint database.
    pub fn new(db: Arc<CellFingerprintDb>) -> Self {
        CellFingerprintScheme { db, last_matches: Vec::new() }
    }
}

impl LocalizationScheme for CellFingerprintScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Cellular
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        self.last_matches.clear();
        let scan = frame.cell.as_ref()?;
        if scan.is_empty() {
            return None;
        }
        self.db.match_scan_into(scan, TOP_K, &mut self.last_matches);
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
    use uniloc_env::{campus, EnvKind, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    #[test]
    fn works_in_basement_where_wifi_dies() {
        let scenario = campus::daily_path(61);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 62);
        let points = scenario.survey_points(3.0, 12.0);
        let db = Arc::new(CellFingerprintDb::survey_cell(&mut hub, &points));
        let mut scheme = CellFingerprintScheme::new(db);

        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(63));
        let walk = walker.walk(&scenario.route);
        let mut run_hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 64);
        let frames = run_hub.sample_walk(&walk, 0.5);

        let mut basement_avail = 0usize;
        let mut basement_total = 0usize;
        let mut errors = Vec::new();
        for f in &frames {
            if scenario.world.kind_at(f.true_position) == EnvKind::Basement {
                basement_total += 1;
                if let Some(e) = scheme.update(f) {
                    basement_avail += 1;
                    errors.push(e.position.distance(f.true_position));
                }
            }
        }
        assert!(basement_total > 0);
        assert!(
            basement_avail as f64 > 0.5 * basement_total as f64,
            "cellular availability in basement {basement_avail}/{basement_total}"
        );
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // Coarse but bounded (the paper's cellular errors are tens of m).
        assert!(mean < 80.0, "basement cellular mean error {mean}");
    }

    #[test]
    fn coarser_than_wifi_overall() {
        let scenario = uniloc_env::venues::training_office(65);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 66);
        let points = scenario.survey_points(3.0, 12.0);
        let cell_db = CellFingerprintDb::survey_cell(&mut hub, &points);
        let wifi_db = crate::fingerprint::WifiFingerprintDb::survey_wifi(&mut hub, &points);
        let mut cell = CellFingerprintScheme::new(Arc::new(cell_db));
        let mut wifi = crate::wifi::WifiFingerprintScheme::new(Arc::new(wifi_db));

        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(67));
        let walk = walker.walk(&scenario.route);
        let mut run_hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 68);
        let frames = run_hub.sample_walk(&walk, 0.5);
        let mut cell_err = Vec::new();
        let mut wifi_err = Vec::new();
        for f in &frames {
            if let Some(e) = cell.update(f) {
                cell_err.push(e.position.distance(f.true_position));
            }
            if let Some(e) = wifi.update(f) {
                wifi_err.push(e.position.distance(f.true_position));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&cell_err) > mean(&wifi_err),
            "cellular ({}) should be coarser than WiFi ({})",
            mean(&cell_err),
            mean(&wifi_err)
        );
    }

    #[test]
    fn empty_scan_yields_none() {
        let scenario = campus::daily_path(69);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 70);
        let points = scenario.survey_points(3.0, 12.0);
        let db = Arc::new(CellFingerprintDb::survey_cell(&mut hub, &points));
        let mut scheme = CellFingerprintScheme::new(db);
        let frame = SensorFrame {
            t: 0.0,
            true_position: uniloc_geom::Point::origin(),
            wifi: None,
            cell: Some(uniloc_sensors::CellScan::default()),
            gps: None,
            steps: vec![],
            landmark: None,
            light_lux: 100.0,
            magnetic_variance: 0.5,
        };
        assert!(scheme.update(&frame).is_none());
    }
}
