//! Scan result types: what one measurement epoch delivers per radio.

use uniloc_env::{ApId, TowerId};
use uniloc_geom::GeoCoord;

/// The RADAR fingerprint distance over any id-sorted `(id, RSSI)` reading
/// slices: Euclidean over common ids, a `missing_penalty_dbm` charge per
/// id audible in only one side, `None` when no id is shared. Generic over
/// the id type so WiFi APs, cell towers and the fingerprint slabs all run
/// the exact same merge (and therefore produce bit-identical distances).
pub fn merge_distance<K: Ord + Copy>(
    a: &[(K, f64)],
    b: &[(K, f64)],
    missing_penalty_dbm: f64,
) -> Option<f64> {
    let mut sum_sq = 0.0;
    let mut common = 0usize;
    let mut i = 0;
    let mut j = 0;
    let mut missing = 0usize;
    while i < a.len() && j < b.len() {
        let (ka, ra) = a[i];
        let (kb, rb) = b[j];
        match ka.cmp(&kb) {
            std::cmp::Ordering::Equal => {
                sum_sq += (ra - rb) * (ra - rb);
                common += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                missing += 1;
                j += 1;
            }
        }
    }
    missing += a.len() - i + b.len() - j;
    if common == 0 {
        return None;
    }
    sum_sq += missing as f64 * missing_penalty_dbm * missing_penalty_dbm;
    Some((sum_sq / (common + missing) as f64).sqrt())
}

/// A WiFi scan: RSSI per audible access point, in dBm, as measured by the
/// scanning device (device offset already applied).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WifiScan {
    /// `(AP id, RSSI dBm)` pairs, in AP-id order.
    pub readings: Vec<(ApId, f64)>,
}

impl WifiScan {
    /// Number of audible APs.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether no AP was audible.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// RSSI for a particular AP, if audible.
    pub fn rssi(&self, id: ApId) -> Option<f64> {
        self.readings.iter().find(|(a, _)| *a == id).map(|(_, r)| *r)
    }

    /// Euclidean distance between two scans over their common APs, the
    /// core metric of RADAR-style fingerprinting. APs audible in only one
    /// scan contribute a penalty of `(missing_penalty_dbm)` each, so having
    /// disjoint AP sets costs more than sharing weak links.
    ///
    /// Returns `None` when the scans share no APs at all.
    pub fn distance(&self, other: &WifiScan, missing_penalty_dbm: f64) -> Option<f64> {
        merge_distance(&self.readings, &other.readings, missing_penalty_dbm)
    }
}

/// A cellular scan: RSSI per audible tower, in dBm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellScan {
    /// `(tower id, RSSI dBm)` pairs, in tower-id order.
    pub readings: Vec<(TowerId, f64)>,
}

impl CellScan {
    /// Number of audible towers.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether no tower was audible.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Same fingerprint distance as [`WifiScan::distance`]. `TowerId`
    /// orders exactly like its inner `u32` (as `ApId` does), so running
    /// the shared merge directly over tower readings is bit-identical to
    /// the former remap-through-`WifiScan` path — without allocating two
    /// temporary scans per comparison.
    pub fn distance(&self, other: &CellScan, missing_penalty_dbm: f64) -> Option<f64> {
        merge_distance(&self.readings, &other.readings, missing_penalty_dbm)
    }
}

/// A GPS fix as the phone's GPS module reports it: geographic coordinate,
/// HDOP and the number of visible satellites.
///
/// "A reliable location estimation requires that the number of visible
/// satellites is larger than 4 and HDOP is less than 6."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Reported coordinate (contains the positioning error).
    pub coordinate: GeoCoord,
    /// Horizontal dilution of precision.
    pub hdop: f64,
    /// Number of visible satellites.
    pub satellites: u32,
}

impl GpsFix {
    /// The paper's reliability gate: more than 4 satellites and HDOP < 6.
    pub fn is_reliable(&self) -> bool {
        self.satellites > 4 && self.hdop < 6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(pairs: &[(u32, f64)]) -> WifiScan {
        WifiScan { readings: pairs.iter().map(|&(id, r)| (ApId(id), r)).collect() }
    }

    #[test]
    fn identical_scans_have_zero_distance() {
        let a = scan(&[(0, -50.0), (1, -60.0)]);
        assert_eq!(a.distance(&a, 15.0), Some(0.0));
    }

    #[test]
    fn distance_grows_with_rssi_gap() {
        let a = scan(&[(0, -50.0), (1, -60.0)]);
        let near = scan(&[(0, -52.0), (1, -61.0)]);
        let far = scan(&[(0, -70.0), (1, -80.0)]);
        let d_near = a.distance(&near, 15.0).unwrap();
        let d_far = a.distance(&far, 15.0).unwrap();
        assert!(d_near < d_far);
    }

    #[test]
    fn missing_aps_penalized() {
        let a = scan(&[(0, -50.0), (1, -60.0), (2, -70.0)]);
        let full = scan(&[(0, -50.0), (1, -60.0), (2, -70.0)]);
        let partial = scan(&[(0, -50.0)]);
        assert!(a.distance(&partial, 15.0).unwrap() > a.distance(&full, 15.0).unwrap());
    }

    #[test]
    fn disjoint_scans_have_no_distance() {
        let a = scan(&[(0, -50.0)]);
        let b = scan(&[(1, -50.0)]);
        assert_eq!(a.distance(&b, 15.0), None);
        assert_eq!(a.distance(&WifiScan::default(), 15.0), None);
    }

    #[test]
    fn rssi_lookup() {
        let a = scan(&[(3, -42.0)]);
        assert_eq!(a.rssi(ApId(3)), Some(-42.0));
        assert_eq!(a.rssi(ApId(4)), None);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
    }

    #[test]
    fn cell_scan_distance_delegates() {
        let a = CellScan { readings: vec![(TowerId(0), -80.0), (TowerId(1), -90.0)] };
        let b = CellScan { readings: vec![(TowerId(0), -82.0), (TowerId(1), -90.0)] };
        let d = a.distance(&b, 15.0).unwrap();
        assert!((d - (4.0f64 / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn gps_reliability_gate() {
        let mk = |sats, hdop| GpsFix {
            coordinate: GeoCoord::new(1.0, 103.0).unwrap(),
            hdop,
            satellites: sats,
        };
        assert!(mk(10, 0.9).is_reliable());
        assert!(!mk(4, 0.9).is_reliable(), "needs MORE than 4 sats");
        assert!(!mk(10, 6.0).is_reliable());
        assert!(mk(5, 5.9).is_reliable());
    }
}

uniloc_stats::impl_json_struct!(WifiScan { readings });
uniloc_stats::impl_json_struct!(CellScan { readings });
uniloc_stats::impl_json_struct!(GpsFix { coordinate, hdop, satellites });
