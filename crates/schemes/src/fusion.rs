//! The sensor-data fusion scheme (Travi-Navi [11]).
//!
//! "We adopt the approach in [11] and assign different weights to the
//! particles of motion-based PDR according to the RSSI distances between
//! the online and offline RSSI vectors." The scheme is the PDR core plus a
//! WiFi reweighting pass: the online scan is matched against the offline
//! database and each particle is scored by a fixed-width Gaussian mixture
//! around the top candidate positions. The kernel is deliberately *not*
//! quality-adaptive: as the paper observes, "the existing fusion-based
//! schemes process the RSSI data in the same way at different locations,
//! but do not consider the quality variation of RSSI data" — so where the
//! scan is junk (e.g. the 180 m mark of the daily path), "the low-quality
//! RSSIs make the estimated location depart from the user's true
//! location". Recognizing and exploiting that variation is UniLoc's job,
//! not the baseline's.

use std::sync::Arc;

use crate::estimate::{LocalizationScheme, LocationEstimate, SchemeId};
use crate::fingerprint::WifiFingerprintDb;
use crate::pdr::{PdrConfig, PdrCore};
use uniloc_geom::{FloorPlan, Point};
use uniloc_sensors::{SensorFrame, WifiScan};

/// Likelihood floor: keeps particle weights positive so one scan cannot
/// annihilate the cloud.
const LIKELIHOOD_FLOOR: f64 = 0.05;

/// RSSI likelihood kernel width (dB).
const RSSI_SIGMA_DB: f64 = 8.0;

/// Missing-AP penalty (dB) of the particle-scoring RSSI distance.
const MISSING_PENALTY_DBM: f64 = 12.0;

/// Per-epoch memo of the RSSI likelihood keyed by fingerprint index: the
/// cloud's particles share a handful of nearest fingerprints, so each
/// distinct fingerprint is scored once per scan. A slot is valid when
/// its stamp equals the current epoch stamp, so starting an epoch clears
/// nothing. Sized at construction; the epoch loop never allocates.
#[derive(Debug, Clone)]
struct LikelihoodMemo {
    stamps: Vec<u32>,
    values: Vec<f64>,
    epoch: u32,
}

impl LikelihoodMemo {
    fn new(n: usize) -> Self {
        LikelihoodMemo { stamps: vec![0; n], values: vec![0.0; n], epoch: 0 }
    }

    /// Invalidates every slot.
    fn begin_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// The memoized value of slot `i`, computing it on first use.
    fn get_or_insert_with(&mut self, i: usize, f: impl FnOnce() -> f64) -> f64 {
        if self.stamps[i] != self.epoch {
            self.values[i] = f();
            self.stamps[i] = self.epoch;
        }
        self.values[i]
    }
}

/// The WiFi + PDR fusion scheme.
#[derive(Debug, Clone)]
pub struct FusionScheme {
    core: PdrCore,
    db: Arc<WifiFingerprintDb>,
    memo: LikelihoodMemo,
}

impl FusionScheme {
    /// Creates the scheme: PDR core plus the offline WiFi fingerprint
    /// database used for particle reweighting.
    pub fn new(
        plan: FloorPlan,
        start: Point,
        config: PdrConfig,
        db: Arc<WifiFingerprintDb>,
        seed: u64,
    ) -> Self {
        let memo = LikelihoodMemo::new(db.len());
        FusionScheme { core: PdrCore::new(plan, start, config, seed), db, memo }
    }

    /// Reweights particles by the RSSI likelihood of the online scan
    /// against each particle's nearest offline fingerprint. Deliberately
    /// quality-blind: Travi-Navi "process[es] the RSSI data in the same way
    /// at different locations" — there is no gate on scan quality, so
    /// low-quality RSSIs really do drag the estimate, as the paper observes
    /// at the 180 m mark of the daily path.
    fn rssi_reweight(&mut self, scan: &WifiScan) {
        if !self.db.hears_any(scan) {
            return;
        }
        // Each particle is scored by the RSSI distance between the online
        // scan and the offline fingerprint nearest to that particle.
        let two_sigma2 = 2.0 * RSSI_SIGMA_DB * RSSI_SIGMA_DB;
        let db = &*self.db;
        let memo = &mut self.memo;
        memo.begin_epoch();
        let _ = self.core.pf.reweight(|p| {
            let l = match db.nearest(p.pos) {
                Some(i) => memo.get_or_insert_with(i, || {
                    match db.entry_distance(scan, i, MISSING_PENALTY_DBM) {
                        Some(d) => (-d * d / two_sigma2).exp(),
                        None => 0.0,
                    }
                }),
                None => 0.0,
            };
            LIKELIHOOD_FLOOR + l
        });
        self.core
            .pf
            .maybe_resample(self.core.config.resample_frac, &mut self.core.rng);
    }

    /// The unmemoized reweight the memo must reproduce: top-k match for
    /// the availability test, then every particle scored against a copy
    /// of its nearest fingerprint's scan.
    #[cfg(test)]
    fn rssi_reweight_reference(&mut self, scan: &WifiScan) {
        if scan.is_empty() || self.db.is_empty() || self.db.match_scan(scan, 5).is_empty() {
            return;
        }
        let fingerprints: Vec<WifiScan> = self.db.entries().map(|(_, s)| s).collect();
        let two_sigma2 = 2.0 * RSSI_SIGMA_DB * RSSI_SIGMA_DB;
        let db = &*self.db;
        let _ = self.core.pf.reweight(|p| {
            let l = match db.nearest(p.pos) {
                Some(i) => match scan.distance(&fingerprints[i], MISSING_PENALTY_DBM) {
                    Some(d) => (-d * d / two_sigma2).exp(),
                    None => 0.0,
                },
                None => 0.0,
            };
            LIKELIHOOD_FLOOR + l
        });
        self.core
            .pf
            .maybe_resample(self.core.config.resample_frac, &mut self.core.rng);
    }

    /// Advances the PDR core through the frame's steps and landmark.
    fn advance(&mut self, frame: &SensorFrame) {
        for step in &frame.steps {
            self.core.advance_step(step);
        }
        if let Some(lm) = frame.landmark {
            self.core.calibrate_landmark(lm.position);
        }
    }
}

impl LocalizationScheme for FusionScheme {
    fn id(&self) -> SchemeId {
        SchemeId::Fusion
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        self.advance(frame);
        if let Some(scan) = frame.wifi.as_ref() {
            self.rssi_reweight(scan);
        }
        // Sidecar-only telemetry: degeneracy of the particle cloud after
        // the RSSI reweight.
        uniloc_obs::global_metrics()
            .gauge("fusion.particle_filter.ess")
            .set(self.core.pf.effective_sample_size());
        Some(self.core.estimate())
    }

    fn posterior(&self) -> Option<Vec<(Point, f64)>> {
        Some(self.core.posterior())
    }

    fn posterior_mean(&self) -> Option<Point> {
        self.core.posterior_mean()
    }

    fn reset(&mut self) {
        self.core.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdr::PdrScheme;
    use uniloc_rng::Rng;
    use uniloc_env::{campus, venues, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn build_fusion(scenario: &campus::Scenario, seed: u64) -> FusionScheme {
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
        let points = scenario.survey_points(3.0, 12.0);
        let db = Arc::new(WifiFingerprintDb::survey_wifi(&mut hub, &points));
        FusionScheme::new(
            scenario.world.floorplan().clone(),
            scenario.route.start(),
            PdrConfig::default(),
            db,
            seed + 1,
        )
    }

    fn mean_error<S: LocalizationScheme>(
        scenario: &campus::Scenario,
        scheme: &mut S,
        seed: u64,
    ) -> f64 {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        let frames = hub.sample_walk(&walk, 0.5);
        let errs: Vec<f64> = frames
            .iter()
            .filter_map(|f| scheme.update(f).map(|e| e.position.distance(f.true_position)))
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }

    #[test]
    fn fusion_beats_plain_pdr_indoors() {
        let scenario = venues::training_office(91);
        let mut fusion = build_fusion(&scenario, 92);
        let mut pdr = PdrScheme::new(
            scenario.world.floorplan().clone(),
            scenario.route.start(),
            PdrConfig::default(),
            93,
        );
        let fusion_err = mean_error(&scenario, &mut fusion, 94);
        let pdr_err = mean_error(&scenario, &mut pdr, 94);
        assert!(
            fusion_err <= pdr_err * 1.1,
            "fusion ({fusion_err}) should not lose to PDR ({pdr_err}) indoors"
        );
        assert!(fusion_err < 5.0, "fusion office error {fusion_err}");
    }

    #[test]
    fn fusion_not_much_worse_than_pdr_on_mixed_path() {
        // Outdoors / in WiFi-poor areas the RSSI pass must degrade to a
        // no-op, keeping fusion close to plain PDR (the paper gives them
        // the same outdoor error model).
        let scenario = campus::daily_path(99);
        let mut fusion = build_fusion(&scenario, 100);
        let mut pdr = PdrScheme::new(
            scenario.world.floorplan().clone(),
            scenario.route.start(),
            PdrConfig::default(),
            101,
        );
        let fusion_err = mean_error(&scenario, &mut fusion, 102);
        let pdr_err = mean_error(&scenario, &mut pdr, 102);
        assert!(
            fusion_err <= pdr_err * 1.35 + 1.0,
            "fusion ({fusion_err}) degraded too far below PDR ({pdr_err})"
        );
    }

    #[test]
    fn fusion_always_available() {
        let scenario = campus::daily_path(95);
        let mut fusion = build_fusion(&scenario, 96);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(97));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 98);
        let frames = hub.sample_walk(&walk, 0.5);
        assert!(frames.iter().all(|f| fusion.update(f).is_some()));
    }

    #[test]
    fn memoized_reweight_equals_the_unmemoized_reference() {
        // Two clouds from the same seed, one reweighted through the memo
        // and one through the reference, must stay bit-identical on a
        // walk — and on repeated scans, which reuse memo slots across
        // epochs only through a fresh stamp.
        let scenario = venues::training_office(111);
        let mut memoized = build_fusion(&scenario, 112);
        let mut reference = build_fusion(&scenario, 112);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(113));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 114);
        let frames = hub.sample_walk(&walk, 0.5);
        let bits = |s: &FusionScheme| -> Vec<[u64; 3]> {
            s.core
                .posterior()
                .iter()
                .map(|(p, w)| [p.x.to_bits(), p.y.to_bits(), w.to_bits()])
                .collect()
        };
        let mut reweighted = 0usize;
        for f in frames.iter().take(60) {
            memoized.advance(f);
            reference.advance(f);
            if let Some(scan) = f.wifi.as_ref() {
                memoized.rssi_reweight(scan);
                memoized.rssi_reweight(scan);
                reference.rssi_reweight_reference(scan);
                reference.rssi_reweight_reference(scan);
                reweighted += 1;
            }
            assert_eq!(bits(&memoized), bits(&reference), "diverged at t={}", f.t);
        }
        assert!(reweighted > 30, "the walk must exercise the reweight ({reweighted})");
    }

    #[test]
    fn foreign_scan_is_a_noop() {
        let scenario = venues::training_office(103);
        let mut fusion = build_fusion(&scenario, 104);
        // Prime with a few steps.
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(105));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 106);
        let frames = hub.sample_walk(&walk, 0.5);
        for f in frames.iter().take(20) {
            fusion.update(f);
        }
        let before = fusion.core.estimate().position;
        // A scan whose APs appear in no fingerprint cannot match anything:
        // every particle gets the uniform floor and the cloud is untouched
        // (weights renormalize to what they were).
        let foreign = WifiScan {
            readings: vec![
                (uniloc_env::ApId(9_999), -60.0),
                (uniloc_env::ApId(9_998), -65.0),
                (uniloc_env::ApId(9_997), -70.0),
            ],
        };
        fusion.rssi_reweight(&foreign);
        let after = fusion.core.estimate().position;
        assert!(
            before.distance(after) < 1e-9,
            "unmatched scans must not move the cloud ({before} -> {after})"
        );
    }

    #[test]
    fn junk_scan_can_drag_the_cloud() {
        // Quality-blindness is a *feature* of the baseline: a misleading
        // scan that matches a far fingerprint pulls the estimate away —
        // the paper's observation at the 180 m mark of the daily path.
        let scenario = venues::training_office(107);
        let mut fusion = build_fusion(&scenario, 108);
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(109));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), 110);
        let frames = hub.sample_walk(&walk, 0.5);
        for f in frames.iter().take(20) {
            fusion.update(f);
        }
        let before = fusion.core.estimate().position;
        // A strong scan captured at the far end of the office.
        let far = hub.scan_wifi(Point::new(50.0, 15.0));
        for _ in 0..10 {
            fusion.rssi_reweight(&far);
        }
        let after = fusion.core.estimate().position;
        assert!(
            after.distance(before) > 0.5,
            "misleading RSSIs should drag the quality-blind baseline"
        );
    }
}
