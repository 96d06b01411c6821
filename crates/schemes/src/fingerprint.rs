//! Offline RSSI fingerprint databases.
//!
//! RADAR-style fingerprinting needs an offline survey: "we first build an
//! offline fingerprint database by collecting RSSIs from all audible APs at
//! different locations" — 1-3 m grids indoors, 12 m outdoors, "each offline
//! fingerprint has one sample from each audible AP". The same machinery
//! serves the cellular scheme over tower RSSIs.
//!
//! A [`FingerprintDb`] stores every fingerprint once, as flat slabs of
//! positions and `(id, RSSI)` readings, with the inverted index and the
//! spatial grid that accelerate lookups built over them (both in the
//! [`index`](crate::index) module). Every RSSI distance runs the one
//! RADAR merge, [`merge_distance`]. The surveyed `(position, scan)` pairs
//! are a derived view, rebuilt on demand by [`FingerprintDb::entries`].

use crate::estimate::LocationEstimate;
pub use crate::index::FingerprintDb;
use uniloc_env::{ApId, TowerId};
use uniloc_geom::Point;
use uniloc_sensors::{merge_distance, CellScan, SensorHub, WifiScan};

/// Default penalty (dB) charged per AP audible in only one of two compared
/// scans.
pub const DEFAULT_MISSING_PENALTY_DBM: f64 = 12.0;

/// Number of top candidates a fingerprint lookup keeps, for the spread
/// statistic, the posterior and the RSSI-deviation feature (the paper sets
/// `k = 3`).
pub const TOP_K: usize = 3;

/// Minimum audible APs for a meaningful WiFi fingerprint result: "when the
/// number of audible APs is less than 3, it is unlikely for the RSSI
/// fingerprinting scheme to provide a meaningful result".
pub const MIN_APS: usize = 3;

/// Scans that support the RSSI fingerprint distance: a list of
/// `(id, RSSI)` readings in ascending id order.
pub trait RssiLike {
    /// The transmitter id a reading is keyed by (AP or tower).
    type Id: Ord + Copy + std::fmt::Debug;
    /// The scan's `(id, RSSI)` readings, in ascending id order.
    fn readings(&self) -> &[(Self::Id, f64)];
    /// A scan holding exactly these readings.
    fn from_readings(readings: Vec<(Self::Id, f64)>) -> Self;
    /// Fingerprint (Euclidean) distance; `None` when no APs are shared.
    fn fingerprint_distance(&self, other: &Self, missing_penalty: f64) -> Option<f64> {
        merge_distance(self.readings(), other.readings(), missing_penalty)
    }
    /// Whether nothing was audible.
    fn no_signal(&self) -> bool {
        self.readings().is_empty()
    }
}

impl RssiLike for WifiScan {
    type Id = ApId;
    fn readings(&self) -> &[(ApId, f64)] {
        &self.readings
    }
    fn from_readings(readings: Vec<(ApId, f64)>) -> Self {
        WifiScan { readings }
    }
}

impl RssiLike for CellScan {
    type Id = TowerId;
    fn readings(&self) -> &[(TowerId, f64)] {
        &self.readings
    }
    fn from_readings(readings: Vec<(TowerId, f64)>) -> Self {
        CellScan { readings }
    }
}

/// One match candidate from a fingerprint lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintMatch {
    /// The fingerprint's survey position.
    pub position: Point,
    /// RSSI distance between the online scan and this fingerprint.
    pub distance: f64,
}

/// The top-k point estimate: the best candidate's position, with the mean
/// distance of the other candidates to it as the spread. `None` when
/// nothing matched.
pub fn top_k_estimate(matches: &[FingerprintMatch]) -> Option<LocationEstimate> {
    let (best, rest) = matches.split_first()?;
    let spread = (!rest.is_empty()).then(|| {
        rest.iter().map(|c| c.position.distance(best.position)).sum::<f64>() / rest.len() as f64
    });
    Some(LocationEstimate { position: best.position, spread })
}

/// Softmax weight of a candidate relative to the best one, at RSSI
/// distance `d0`: a candidate 3 dB worse carries ~37% of the best one's
/// mass.
fn top_k_weight(m: &FingerprintMatch, d0: f64) -> f64 {
    (-(m.distance - d0) / 3.0).exp()
}

/// The top-k candidates as an (unnormalized) posterior over positions.
pub fn top_k_posterior(matches: &[FingerprintMatch]) -> Option<Vec<(Point, f64)>> {
    let d0 = matches.first()?.distance;
    Some(matches.iter().map(|m| (m.position, top_k_weight(m, d0))).collect())
}

/// The mean of [`top_k_posterior`].
pub fn top_k_posterior_mean(matches: &[FingerprintMatch]) -> Option<Point> {
    let d0 = matches.first()?.distance;
    let w: f64 = matches.iter().map(|m| top_k_weight(m, d0)).sum();
    if w > 0.0 {
        let x = matches.iter().map(|m| top_k_weight(m, d0) * m.position.x).sum::<f64>() / w;
        let y = matches.iter().map(|m| top_k_weight(m, d0) * m.position.y).sum::<f64>() / w;
        Some(Point::new(x, y))
    } else {
        None
    }
}

/// WiFi fingerprint database.
pub type WifiFingerprintDb = FingerprintDb<WifiScan>;

/// Cellular fingerprint database.
pub type CellFingerprintDb = FingerprintDb<CellScan>;

impl<S: RssiLike> FingerprintDb<S> {
    /// Builds a database from raw `(position, scan)` pairs, dropping empty
    /// scans (a fingerprint without any audible AP cannot be matched).
    pub fn from_entries(entries: impl IntoIterator<Item = (Point, S)>) -> Self {
        Self::from_parts(
            entries.into_iter().filter(|(_, s)| !s.no_signal()),
            S::readings,
            DEFAULT_MISSING_PENALTY_DBM,
        )
    }

    /// All `(position, fingerprint)` entries, each scan rebuilt from the
    /// slab on demand.
    pub fn entries(&self) -> impl Iterator<Item = (Point, S)> + '_ {
        self.positions()
            .iter()
            .enumerate()
            .map(|(e, &p)| (p, S::from_readings(self.entry_readings(e).to_vec())))
    }

    /// The `k` fingerprints closest (in RSSI space) to an online scan,
    /// sorted by ascending distance. Empty when the scan or the database is
    /// empty or no fingerprint shares an AP with the scan.
    pub fn match_scan(&self, scan: &S, k: usize) -> Vec<FingerprintMatch> {
        let mut out = Vec::new();
        self.match_scan_into(scan, k, &mut out);
        out
    }

    /// The retained linear-scan reference implementation of
    /// [`match_scan`](Self::match_scan): scores every materialized entry,
    /// ranks with the same stable `total_cmp` sort. The differential suite
    /// asserts the indexed path returns exactly this on every input; it is
    /// not used on the hot path.
    pub fn match_scan_linear(&self, scan: &S, k: usize) -> Vec<FingerprintMatch> {
        if scan.no_signal() || k == 0 {
            return Vec::new();
        }
        let mut matches: Vec<FingerprintMatch> = self
            .entries()
            .filter_map(|(p, fp)| {
                scan.fingerprint_distance(&fp, self.missing_penalty())
                    .map(|d| FingerprintMatch { position: p, distance: d })
            })
            .collect();
        // `total_cmp` instead of `partial_cmp(..).expect(..)`: a NaN
        // distance (corrupt RSSI that slipped past upstream validation)
        // must sort deterministically, not panic mid-walk.
        matches.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        matches.truncate(k);
        matches
    }

    /// Thins the database so remaining fingerprints are at least
    /// `min_spacing` apart (greedy) — used for the paper's density sweep
    /// ("for larger fingerprint distances (e.g., 5 m, 10 m, and 15 m), we
    /// downsample the fine-grained fingerprint data").
    pub fn downsampled(&self, min_spacing: f64) -> Self {
        let mut kept: Vec<usize> = Vec::new();
        let positions = self.positions();
        for (e, &p) in positions.iter().enumerate() {
            if kept.iter().all(|&k| positions[k].distance(p) >= min_spacing) {
                kept.push(e);
            }
        }
        Self::from_parts(
            kept.into_iter().map(|e| (positions[e], self.entry_readings(e))),
            |readings| *readings,
            self.missing_penalty(),
        )
    }
}

impl WifiFingerprintDb {
    /// Surveys WiFi fingerprints at the given points with a device hub —
    /// the offline phase of RADAR.
    pub fn survey_wifi(hub: &mut SensorHub<'_>, points: &[Point]) -> Self {
        FingerprintDb::from_entries(points.iter().map(|&p| (p, hub.scan_wifi(p))))
    }
}

impl CellFingerprintDb {
    /// Surveys cellular fingerprints at the given points.
    pub fn survey_cell(hub: &mut SensorHub<'_>, points: &[Point]) -> Self {
        FingerprintDb::from_entries(points.iter().map(|&p| (p, hub.scan_cell(p))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::campus;
    use uniloc_sensors::DeviceProfile;

    fn synthetic_db() -> WifiFingerprintDb {
        use uniloc_env::ApId;
        // Fingerprints along a line: RSSI of a single AP falls with x.
        let entries = (0..20).map(|i| {
            let p = Point::new(i as f64 * 2.0, 0.0);
            let scan = WifiScan { readings: vec![(ApId(0), -40.0 - i as f64 * 2.0)] };
            (p, scan)
        });
        FingerprintDb::from_entries(entries)
    }

    #[test]
    fn match_scan_finds_nearest_rssi() {
        use uniloc_env::ApId;
        let db = synthetic_db();
        let online = WifiScan { readings: vec![(ApId(0), -50.0)] };
        let m = db.match_scan(&online, 3);
        assert_eq!(m.len(), 3);
        // -50 dBm corresponds to i = 5 -> x = 10.
        assert_eq!(m[0].position, Point::new(10.0, 0.0));
        assert!(m[0].distance <= m[1].distance && m[1].distance <= m[2].distance);
    }

    #[test]
    fn empty_scan_matches_nothing() {
        let db = synthetic_db();
        assert!(db.match_scan(&WifiScan::default(), 3).is_empty());
        let (_, first) = db.entries().next().unwrap();
        assert!(db.match_scan(&first, 0).is_empty());
    }

    #[test]
    fn empty_scans_dropped_at_build() {
        use uniloc_env::ApId;
        let db = FingerprintDb::from_entries(vec![
            (Point::origin(), WifiScan::default()),
            (Point::new(1.0, 0.0), WifiScan { readings: vec![(ApId(0), -50.0)] }),
        ]);
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn local_density_reflects_spacing() {
        let db = synthetic_db(); // 2 m spacing
        let d = db.local_density(Point::new(10.0, 0.0), 10.0).unwrap();
        assert!((d - 2.0).abs() < 1e-9, "density {d}");
        let sparse = db.downsampled(6.0);
        let d6 = sparse.local_density(Point::new(10.0, 0.0), 12.0).unwrap();
        assert!(d6 >= 6.0, "downsampled density {d6}");
    }

    #[test]
    fn local_density_needs_two_neighbors() {
        let db = synthetic_db();
        assert!(db.local_density(Point::new(500.0, 0.0), 5.0).is_none());
    }

    #[test]
    fn downsampled_respects_spacing() {
        let db = synthetic_db();
        let thin = db.downsampled(5.0);
        let pts = thin.positions();
        for (i, a) in pts.iter().enumerate() {
            for b in pts.iter().skip(i + 1) {
                assert!(a.distance(*b) >= 5.0);
            }
        }
        assert!(thin.len() < db.len());
    }

    #[test]
    fn survey_on_campus_produces_usable_db() {
        let scenario = campus::daily_path(21);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 22);
        let points = scenario.survey_points(3.0, 12.0);
        let db = WifiFingerprintDb::survey_wifi(&mut hub, &points);
        assert!(db.len() > 50, "db too small: {}", db.len());
        // An online scan in the office matches fingerprints near the truth.
        let p = scenario.route.point_at(25.0);
        let online = hub.scan_wifi(p);
        let m = db.match_scan(&online, 1);
        assert!(!m.is_empty());
        assert!(m[0].position.distance(p) < 15.0, "match {} m away", m[0].position.distance(p));
    }

    #[test]
    fn cell_survey_works() {
        let scenario = campus::daily_path(23);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 24);
        let points = scenario.survey_points(3.0, 12.0);
        let db = CellFingerprintDb::survey_cell(&mut hub, &points);
        assert!(!db.is_empty());
    }
}
