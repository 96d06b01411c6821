//! Table I: the sensor-data features that drive each scheme's error.
//!
//! "All factors (e.g., sensor specifications and environmental conditions)
//! that implicitly impact the localization accuracy take effect by changing
//! the sensor readings. We find some potential data features for each
//! sensor type." The features are computed **from sensor data and shared
//! infrastructure** (the fingerprint databases and the public map), never
//! from scheme internals — which is what lets UniLoc treat schemes as black
//! boxes.
//!
//! | Scheme | Features (indoor) | Features (outdoor) |
//! |---|---|---|
//! | WiFi | fingerprint spatial density, RSSI distance deviation | same |
//! | Cellular | density, deviation, audible towers | same |
//! | Motion | distance from last landmark, corridor width | same |
//! | Fusion | distance, width, WiFi fingerprint density | distance, width (same model as motion — coarse outdoor fingerprints cannot refine PDR) |
//! | GPS | none (constant model, `beta_0 = 13.5 m`) | none |
//!
//! The fingerprint-density feature needs the user's location before any
//! scheme has produced one; online, UniLoc predicts it with a second-order
//! HMM over the fingerprint grid ([`uniloc_filters::Hmm2Predictor`]).
//! During training, ground truth is used (Section III-B: "during the
//! training phase, we know the user's true location").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use uniloc_filters::{Hmm2Predictor, Kalman2D};
use uniloc_geom::{FloorPlan, Point};
use uniloc_iodetect::IoState;
use uniloc_schemes::{CellFingerprintDb, SchemeId, WifiFingerprintDb, MIN_APS, TOP_K};
use uniloc_sensors::SensorFrame;

/// A user-supplied feature extractor for a custom scheme: given the shared
/// context, the indoor/outdoor state, the frame and the predicted location,
/// produce the scheme's Table-I-style feature vector (or `None` when the
/// scheme cannot be evaluated this epoch).
pub type CustomFeatureFn = Arc<
    dyn Fn(&SharedContext, IoState, &SensorFrame, Option<Point>) -> Option<Vec<f64>>
        + Send
        + Sync,
>;

/// Radius (m) around the user within which fingerprint density is measured.
pub const DENSITY_RADIUS_M: f64 = 20.0;

/// Density value assumed when fewer than two fingerprints are in range
/// (very sparse coverage).
pub const DENSITY_FALLBACK_M: f64 = 16.0;

/// Path width (m) assumed outdoors when no corridor is mapped.
pub const OUTDOOR_WIDTH_FALLBACK_M: f64 = 15.0;

/// Path width (m) assumed indoors when no corridor is mapped.
pub const INDOOR_WIDTH_FALLBACK_M: f64 = 3.0;

/// Immutable per-venue inputs to feature extraction: the offline fingerprint
/// databases and the public map.
///
/// The context owns the session's radio maps: the schemes built over it
/// hold `Arc` clones of the same databases, so cloning a context or
/// building schemes from it never copies a map.
#[derive(Debug, Clone)]
pub struct SharedContext {
    /// WiFi fingerprint database (also read by the WiFi and fusion schemes).
    pub wifi_db: Arc<WifiFingerprintDb>,
    /// Cellular fingerprint database (also read by the cellular scheme).
    pub cell_db: Arc<CellFingerprintDb>,
    /// The venue floor plan.
    pub plan: FloorPlan,
}

/// Which online location predictor feeds the density/width features.
///
/// The paper: "we estimate the user's location based on the existing
/// location prediction methods [24], like Hidden Markov Model (HMM) or
/// Kalman filter. In our current implementation, we use a second order
/// HMM." Both are available here; [`PredictorKind::Hmm2`] is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// Second-order HMM over the fingerprint grid (the paper's choice).
    #[default]
    Hmm2,
    /// 2-D constant-velocity Kalman filter.
    Kalman,
    /// No smoothing: reuse the previous fused estimate directly.
    LastEstimate,
}

/// The predictor state behind [`FeatureExtractor`].
#[derive(Debug, Clone)]
enum Predictor {
    Hmm2(Option<Hmm2Predictor>),
    Kalman(Option<Kalman2D>),
    LastEstimate,
}

/// Per-walk streaming state: distance since the last landmark and the
/// online location predictor.
#[derive(Clone)]
pub struct FeatureExtractor {
    dist_since_landmark: f64,
    /// The configured predictor, kept so [`reset`](Self::reset) rebuilds
    /// the same one.
    kind: PredictorKind,
    predictor: Predictor,
    last_estimate: Option<Point>,
    /// This epoch's WiFi fingerprint density, shared by the WiFi and
    /// fusion features.
    wifi_density: Option<DensityMemo>,
    custom: BTreeMap<SchemeId, CustomFeatureFn>,
}

/// One density value with the exact inputs it was computed from: the
/// database's identity (its `Arc` pointer) and the location's bits.
/// Cleared every epoch, so the pointer cannot outlive the database it
/// names.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DensityMemo {
    db: usize,
    loc: Option<(u64, u64)>,
    value: f64,
}

impl std::fmt::Debug for FeatureExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeatureExtractor")
            .field("dist_since_landmark", &self.dist_since_landmark)
            .field("kind", &self.kind)
            .field("predictor", &self.predictor)
            .field("last_estimate", &self.last_estimate)
            .field("custom_schemes", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl FeatureExtractor {
    /// Creates an extractor for a venue. The HMM predictor runs over the
    /// WiFi fingerprint grid (falling back to the cellular grid when the
    /// venue has no WiFi survey).
    pub fn new(ctx: &SharedContext) -> Self {
        FeatureExtractor::with_predictor(ctx, PredictorKind::default())
    }

    /// Creates an extractor with an explicit location-predictor choice (see
    /// [`PredictorKind`]; the `predictor_comparison` ablation measures the
    /// difference).
    pub fn with_predictor(ctx: &SharedContext, kind: PredictorKind) -> Self {
        let predictor = match kind {
            PredictorKind::Hmm2 => {
                // The grid is the union of the WiFi and cellular
                // fingerprint positions: the union covers WiFi-dark areas
                // like the basement (cellular fingerprints exist wherever
                // any tower is audible), so the predicted location can
                // actually *be* there and the WiFi-density feature
                // correctly reports sparsity.
                let states = hmm_state_union(
                    ctx.wifi_db.positions().iter().copied(),
                    ctx.cell_db.positions().iter().copied(),
                );
                Predictor::Hmm2(Hmm2Predictor::new(states, 2.5, 5.0).ok())
            }
            PredictorKind::Kalman => Predictor::Kalman(None),
            PredictorKind::LastEstimate => Predictor::LastEstimate,
        };
        FeatureExtractor {
            dist_since_landmark: 0.0,
            kind,
            predictor,
            last_estimate: None,
            wifi_density: None,
            custom: BTreeMap::new(),
        }
    }

    /// Registers a feature function for a custom scheme, letting it
    /// participate fully in the ensemble (train a model for the same id and
    /// features with [`crate::error_model::ErrorModelSet::insert`]).
    pub fn register_custom(&mut self, id: SchemeId, f: CustomFeatureFn) {
        self.custom.insert(id, f);
    }

    /// Starts a new epoch: accumulates walked distance and resets the
    /// landmark odometer when the frame carries a landmark recognition.
    pub fn begin_epoch(&mut self, frame: &SensorFrame) {
        self.wifi_density = None;
        for s in &frame.steps {
            self.dist_since_landmark += s.length_est;
        }
        if frame.landmark.is_some() {
            self.dist_since_landmark = 0.0;
        }
    }

    /// Distance walked since the last recognized landmark (m) — the motion
    /// and fusion schemes' `beta_1`.
    pub fn dist_since_landmark(&self) -> f64 {
        self.dist_since_landmark
    }

    /// The extractor's best guess of the user's current location, used for
    /// the density and corridor-width features: the HMM's second-order
    /// prediction, else the last fused estimate.
    pub fn predicted_location(&self) -> Option<Point> {
        match &self.predictor {
            Predictor::Hmm2(hmm) => hmm
                .as_ref()
                .and_then(Hmm2Predictor::predict_next)
                .or(self.last_estimate),
            Predictor::Kalman(filter) => {
                filter.as_ref().map(Kalman2D::position).or(self.last_estimate)
            }
            Predictor::LastEstimate => self.last_estimate,
        }
    }

    /// Feeds the final (fused) estimate of this epoch back into the
    /// predictor, so the next epoch has a location prediction.
    pub fn note_estimate(&mut self, p: Point) {
        match &mut self.predictor {
            Predictor::Hmm2(hmm) => {
                if let Some(h) = hmm.as_mut() {
                    h.observe(p);
                }
            }
            Predictor::Kalman(filter) => {
                let kf = filter.get_or_insert_with(|| Kalman2D::new(p, 0.5, 9.0));
                kf.predict(0.5);
                kf.update(p);
            }
            Predictor::LastEstimate => {}
        }
        self.last_estimate = Some(p);
    }

    /// Resets per-walk state (the predictor kind and custom registrations
    /// are preserved).
    pub fn reset(&mut self, ctx: &SharedContext) {
        let custom = std::mem::take(&mut self.custom);
        *self = FeatureExtractor::with_predictor(ctx, self.kind);
        self.custom = custom;
    }

    /// Computes the feature vector for one scheme this epoch.
    ///
    /// `location_hint` overrides the predicted location (training passes
    /// ground truth here). Returns `None` when the scheme cannot be
    /// meaningfully evaluated from this frame (e.g. no WiFi scan) — the
    /// caller then excludes the scheme (confidence zero).
    ///
    /// Takes `&mut self` for the per-epoch WiFi density memo; call
    /// [`begin_epoch`](Self::begin_epoch) once per frame.
    pub fn features(
        &mut self,
        ctx: &SharedContext,
        scheme: SchemeId,
        io: IoState,
        frame: &SensorFrame,
        location_hint: Option<Point>,
    ) -> Option<Vec<f64>> {
        let mut matches = Vec::new();
        let mut out = Vec::new();
        self.features_into(ctx, scheme, io, frame, location_hint, &mut matches, &mut out)
            .then_some(out)
    }

    /// [`features`](Self::features) into caller-owned buffers — the hot-path
    /// form the per-epoch loop uses to stay allocation-free. Returns whether
    /// the scheme can be evaluated; on `true`, `out` holds the feature
    /// vector (possibly empty, e.g. GPS). `matches` is fingerprint-lookup
    /// scratch; its contents are meaningless to the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn features_into(
        &mut self,
        ctx: &SharedContext,
        scheme: SchemeId,
        io: IoState,
        frame: &SensorFrame,
        location_hint: Option<Point>,
        matches: &mut Vec<uniloc_schemes::FingerprintMatch>,
        out: &mut Vec<f64>,
    ) -> bool {
        out.clear();
        let loc = location_hint.or_else(|| self.predicted_location());
        match scheme {
            SchemeId::Gps => {
                // Constant model, outdoors only; no input features — which
                // is what lets UniLoc predict GPS error without powering
                // the receiver.
                io == IoState::Outdoor
            }
            SchemeId::Wifi => {
                let Some(scan) = frame.wifi.as_ref() else { return false };
                // Below the scheme's own AP gate, WiFi counts as
                // unavailable.
                if scan.len() < MIN_APS {
                    return false;
                }
                ctx.wifi_db.match_scan_into(scan, TOP_K, matches);
                if matches.is_empty() {
                    return false;
                }
                out.push(self.wifi_density(ctx, loc));
                out.push(match_deviation(matches.iter().map(|m| m.distance)));
                true
            }
            SchemeId::Cellular => {
                let Some(scan) = frame.cell.as_ref() else { return false };
                if scan.is_empty() {
                    return false;
                }
                ctx.cell_db.match_scan_into(scan, TOP_K, matches);
                if matches.is_empty() {
                    return false;
                }
                out.push(self.density(&ctx.cell_db, loc));
                out.push(match_deviation(matches.iter().map(|m| m.distance)));
                out.push(scan.len() as f64);
                true
            }
            SchemeId::Motion => {
                out.push(self.dist_since_landmark);
                out.push(self.width(ctx, io, loc));
                true
            }
            SchemeId::Fusion => {
                out.push(self.dist_since_landmark);
                out.push(self.width(ctx, io, loc));
                if io == IoState::Indoor {
                    // Indoors, fingerprint density constrains the fusion
                    // particles (beta_3); outdoors the model reduces to the
                    // motion model.
                    out.push(self.wifi_density(ctx, loc));
                }
                true
            }
            other => match self.custom.get(&other).and_then(|f| f(ctx, io, frame, loc)) {
                Some(v) => {
                    out.extend_from_slice(&v);
                    true
                }
                None => false,
            },
        }
    }

    /// The WiFi fingerprint density at `loc`, computed at most once per
    /// epoch for a given database and location.
    fn wifi_density(&mut self, ctx: &SharedContext, loc: Option<Point>) -> f64 {
        let key = (
            Arc::as_ptr(&ctx.wifi_db) as usize,
            loc.map(|p| (p.x.to_bits(), p.y.to_bits())),
        );
        match self.wifi_density {
            Some(m) if (m.db, m.loc) == key => m.value,
            _ => {
                let value = self.density(&ctx.wifi_db, loc);
                self.wifi_density = Some(DensityMemo { db: key.0, loc: key.1, value });
                value
            }
        }
    }

    fn density<S: uniloc_schemes::fingerprint::RssiLike>(
        &self,
        db: &uniloc_schemes::fingerprint::FingerprintDb<S>,
        loc: Option<Point>,
    ) -> f64 {
        loc.and_then(|p| db.local_density(p, DENSITY_RADIUS_M))
            .unwrap_or(DENSITY_FALLBACK_M)
    }

    fn width(&self, ctx: &SharedContext, io: IoState, loc: Option<Point>) -> f64 {
        loc.and_then(|p| ctx.plan.corridor_width_at(p)).unwrap_or(match io {
            IoState::Outdoor => OUTDOOR_WIDTH_FALLBACK_M,
            IoState::Indoor => INDOOR_WIDTH_FALLBACK_M,
        })
    }
}

/// A cellular fingerprint within this distance (m) of an HMM state merges
/// into it instead of adding a state.
const STATE_MERGE_M: f64 = 0.5;

/// Largest coordinate magnitude (m) the HMM state-union grid indexes.
/// Past it, or at any non-finite coordinate, every state shares one cell:
/// the union degenerates to the plain linear scan, NaN semantics and all.
const STATE_GRID_LIMIT_M: f64 = 1e9;

/// The HMM's hidden states: every WiFi fingerprint position in order, then
/// each cellular position farther than [`STATE_MERGE_M`] from every state
/// kept so far (a NaN distance is never farther).
///
/// States sit in a 1 m hash grid. A state within 0.5 m of a candidate lies
/// in the candidate's cell or one of its eight neighbours, so only those
/// are tested, with the linear scan's exact predicate; whether a candidate
/// is kept does not depend on the order its neighbours are tested in.
fn hmm_state_union(
    wifi: impl IntoIterator<Item = Point>,
    cell: impl IntoIterator<Item = Point>,
) -> Vec<Point> {
    let mut states: Vec<Point> = wifi.into_iter().collect();
    let cell: Vec<Point> = cell.into_iter().collect();
    let gridded = states
        .iter()
        .chain(&cell)
        .all(|p| p.x.abs() <= STATE_GRID_LIMIT_M && p.y.abs() <= STATE_GRID_LIMIT_M);
    let key = |p: Point| {
        if gridded {
            (p.x.floor() as i64, p.y.floor() as i64)
        } else {
            (0, 0)
        }
    };
    // Each cell chains its states newest first: `head` maps a cell to its
    // newest state, `next[i]` links state `i` to the one before it.
    let mut head: HashMap<(i64, i64), usize> = HashMap::with_capacity(states.len() + cell.len());
    let mut next: Vec<Option<usize>> = Vec::with_capacity(states.len() + cell.len());
    for (i, &p) in states.iter().enumerate() {
        next.push(head.insert(key(p), i));
    }
    for p in cell {
        let (cx, cy) = key(p);
        let far = (cx - 1..=cx + 1).all(|x| {
            (cy - 1..=cy + 1).all(|y| {
                let mut link = head.get(&(x, y)).copied();
                while let Some(i) = link {
                    if states[i].distance(p) > STATE_MERGE_M {
                        link = next[i];
                    } else {
                        return false;
                    }
                }
                true
            })
        });
        if far {
            next.push(head.insert((cx, cy), states.len()));
            states.push(p);
        }
    }
    states
}

/// Standard deviation of the top-k candidate RSSI distances — the paper's
/// `beta_2`: "if the deviation is small, the fingerprints at these
/// locations are more similar, and in turn the estimated location is more
/// likely to be wrong".
fn match_deviation(distances: impl Iterator<Item = f64> + Clone) -> f64 {
    // Two passes over the (cloneable) iterator instead of collecting: this
    // runs every epoch and must not allocate.
    let mut n = 0usize;
    let mut sum = 0.0;
    for d in distances.clone() {
        n += 1;
        sum += d;
    }
    if n < 2 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let mut ss = 0.0;
    for x in distances {
        ss += (x - mean) * (x - mean);
    }
    (ss / (n - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_rng::Rng;
    use uniloc_env::{campus, GaitProfile, Walker};
    use uniloc_sensors::{DeviceProfile, SensorHub};

    fn context(scenario: &campus::Scenario, seed: u64) -> SharedContext {
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed);
        let pts = scenario.survey_points(3.0, 12.0);
        SharedContext {
            wifi_db: Arc::new(WifiFingerprintDb::survey_wifi(&mut hub, &pts)),
            cell_db: Arc::new(CellFingerprintDb::survey_cell(&mut hub, &pts)),
            plan: scenario.world.floorplan().clone(),
        }
    }

    fn frames(scenario: &campus::Scenario, seed: u64) -> Vec<SensorFrame> {
        let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(seed));
        let walk = walker.walk(&scenario.route);
        let mut hub = SensorHub::new(&scenario.world, DeviceProfile::nexus_5x(), seed + 1);
        hub.sample_walk(&walk, 0.5)
    }

    #[test]
    fn landmark_resets_distance() {
        let scenario = campus::daily_path(101);
        let ctx = context(&scenario, 102);
        let mut fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 103);
        let mut saw_reset = false;
        let mut prev = 0.0;
        for f in &all {
            fx.begin_epoch(f);
            if f.landmark.is_some() {
                assert_eq!(fx.dist_since_landmark(), 0.0);
                if prev > 1.0 {
                    saw_reset = true;
                }
            }
            prev = fx.dist_since_landmark();
        }
        assert!(saw_reset, "the daily path must trigger landmark resets");
    }

    #[test]
    fn wifi_features_present_in_office_absent_in_basement() {
        let scenario = campus::daily_path(104);
        let ctx = context(&scenario, 105);
        let mut fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 106);
        let mut office_some = 0usize;
        let mut office_total = 0usize;
        let mut basement_none = 0usize;
        let mut basement_total = 0usize;
        for f in &all {
            let kind = scenario.world.kind_at(f.true_position);
            let feats = fx.features(
                &ctx,
                SchemeId::Wifi,
                IoState::Indoor,
                f,
                Some(f.true_position),
            );
            match kind {
                uniloc_env::EnvKind::Office => {
                    office_total += 1;
                    office_some += usize::from(feats.is_some());
                }
                uniloc_env::EnvKind::Basement => {
                    basement_total += 1;
                    basement_none += usize::from(feats.is_none());
                }
                _ => {}
            }
        }
        assert!(office_some as f64 > 0.9 * office_total as f64);
        assert!(basement_none as f64 > 0.7 * basement_total as f64);
    }

    #[test]
    fn feature_arity_per_scheme() {
        let scenario = campus::daily_path(107);
        let ctx = context(&scenario, 108);
        let mut fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 109);
        let f = &all[20]; // office
        fx.begin_epoch(f);
        let hint = Some(f.true_position);
        assert_eq!(
            fx.features(&ctx, SchemeId::Wifi, IoState::Indoor, f, hint).unwrap().len(),
            2
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Cellular, IoState::Indoor, f, hint).unwrap().len(),
            3
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Motion, IoState::Indoor, f, hint).unwrap().len(),
            2
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Fusion, IoState::Indoor, f, hint).unwrap().len(),
            3
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Fusion, IoState::Outdoor, f, hint).unwrap().len(),
            2,
            "outdoor fusion uses the motion model"
        );
        assert_eq!(
            fx.features(&ctx, SchemeId::Gps, IoState::Outdoor, f, hint).unwrap().len(),
            0
        );
        assert!(fx.features(&ctx, SchemeId::Gps, IoState::Indoor, f, hint).is_none());
    }

    #[test]
    fn corridor_width_feature_varies_by_segment() {
        let scenario = campus::daily_path(110);
        let ctx = context(&scenario, 111);
        let mut fx = FeatureExtractor::new(&ctx);
        let all = frames(&scenario, 112);
        // Find one office frame and one open-space frame.
        let office = all
            .iter()
            .find(|f| scenario.world.kind_at(f.true_position) == uniloc_env::EnvKind::Office)
            .unwrap();
        let open = all
            .iter()
            .find(|f| {
                scenario.world.kind_at(f.true_position) == uniloc_env::EnvKind::OpenSpace
            })
            .unwrap();
        let w_office = fx
            .features(&ctx, SchemeId::Motion, IoState::Indoor, office, Some(office.true_position))
            .unwrap()[1];
        let w_open = fx
            .features(&ctx, SchemeId::Motion, IoState::Outdoor, open, Some(open.true_position))
            .unwrap()[1];
        assert!(
            w_open > w_office,
            "open space width {w_open} must exceed office corridor width {w_office}"
        );
    }

    #[test]
    fn hmm_prediction_becomes_available_after_estimates() {
        let scenario = campus::daily_path(113);
        let ctx = context(&scenario, 114);
        let mut fx = FeatureExtractor::new(&ctx);
        assert!(fx.predicted_location().is_none());
        fx.note_estimate(Point::new(5.0, 5.0));
        assert!(fx.predicted_location().is_some());
        fx.note_estimate(Point::new(6.0, 5.0));
        let p = fx.predicted_location().unwrap();
        // Second-order prediction extrapolates eastward.
        assert!(p.x >= 6.0);
    }

    #[test]
    fn reset_keeps_the_configured_predictor() {
        let scenario = campus::daily_path(115);
        let ctx = context(&scenario, 116);
        let mut fx = FeatureExtractor::with_predictor(&ctx, PredictorKind::LastEstimate);
        fx.reset(&ctx);
        // Off the fingerprint grid: only the last-estimate predictor
        // returns it unchanged.
        let p = Point::new(12.345, 6.789);
        fx.note_estimate(p);
        assert_eq!(fx.predicted_location(), Some(p));
    }

    /// The reference state union, a linear scan: every WiFi position, then
    /// each cellular position farther than 0.5 m from every state so far.
    /// The grid-indexed [`hmm_state_union`] must reproduce it exactly.
    fn linear_state_union(wifi: &[Point], cell: &[Point]) -> Vec<Point> {
        let mut states = wifi.to_vec();
        for &p in cell {
            if states.iter().all(|q| q.distance(p) > 0.5) {
                states.push(p);
            }
        }
        states
    }

    /// Bit patterns, so NaN states compare equal to themselves.
    fn bits(states: &[Point]) -> Vec<(u64, u64)> {
        states.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    }

    /// One coordinate of a random survey: mostly near the origin, so cells
    /// collide, often on a cell boundary, sometimes extreme.
    fn coordinate(rng: &mut Rng, scale: f64) -> f64 {
        let span = 1.0 + 8.0 * scale;
        match rng.gen_range(0..20u32) {
            0..=9 => rng.gen_range(-span..span),
            10..=14 => rng.gen_range(0..16u32) as f64 * 0.5 - 4.0,
            15 => f64::NAN,
            16 => f64::INFINITY,
            17 => f64::NEG_INFINITY,
            18 => 1e12 * rng.gen_range(-1.0..1.0),
            _ => STATE_GRID_LIMIT_M,
        }
    }

    /// A random survey point: fresh, an exact duplicate of an earlier
    /// point, or an earlier point moved 0.5 m (± 1 ulp) along an axis.
    fn survey_point(rng: &mut Rng, scale: f64, earlier: &[Point], extreme: bool) -> Point {
        let fresh = |rng: &mut Rng| loop {
            let p = Point::new(coordinate(rng, scale), coordinate(rng, scale));
            if extreme || (p.x.abs() < 100.0 && p.y.abs() < 100.0) {
                return p;
            }
        };
        if earlier.is_empty() {
            return fresh(rng);
        }
        let q = earlier[rng.gen_range(0..earlier.len())];
        match rng.gen_range(0..4u32) {
            0 => q,
            1 => {
                let along_x = rng.gen_bool(0.5);
                let nudge = match rng.gen_range(0..3u32) {
                    0 => f64::next_down,
                    1 => std::convert::identity,
                    _ => f64::next_up,
                };
                if along_x {
                    Point::new(nudge(q.x + 0.5), q.y)
                } else {
                    Point::new(q.x, nudge(q.y - 0.5))
                }
            }
            _ => fresh(rng),
        }
    }

    #[test]
    fn grid_state_union_matches_the_linear_scan() {
        uniloc_rng::check::Checker::new("grid_state_union_matches_the_linear_scan").cases(512).run(
            |rng, scale| {
                // A third of the cases may hold non-finite or huge
                // coordinates (the linear fallback); the rest stay
                // on the grid.
                let extreme = rng.gen_bool(1.0 / 3.0);
                let max = 2 + (scale * 60.0) as usize;
                let n_wifi = if rng.gen_bool(0.2) { 0 } else { rng.gen_range(1..max + 1) };
                let n_cell = rng.gen_range(0..max + 1);
                let mut points = Vec::with_capacity(n_wifi + n_cell);
                for _ in 0..n_wifi + n_cell {
                    let p = survey_point(rng, scale, &points, extreme);
                    points.push(p);
                }
                let cell = points.split_off(n_wifi);
                (points, cell)
            },
            |(wifi, cell)| {
                let grid = hmm_state_union(wifi.iter().copied(), cell.iter().copied());
                uniloc_rng::require_eq!(bits(&grid), bits(&linear_state_union(wifi, cell)));
                Ok(())
            },
        );
    }

    #[test]
    fn state_union_boundary_cases() {
        let p = Point::new(2.0, -3.0);
        let at = |x: f64| Point::new(x, -3.0);
        // Exactly 0.5 m merges; one ulp farther is a new state.
        assert_eq!(hmm_state_union([p], [at(2.5)]), vec![p]);
        assert_eq!(hmm_state_union([p], [at(2.5f64.next_up())]), vec![p, at(2.5f64.next_up())]);
        // Exact duplicates merge, across the two surveys and within the
        // cellular one; WiFi duplicates are all kept.
        assert_eq!(hmm_state_union([p, p], [p, at(9.0), at(9.0)]), vec![p, p, at(9.0)]);
        // An empty WiFi survey: the cellular positions dedupe alone.
        assert_eq!(hmm_state_union([], [p, at(2.25), at(3.0)]), vec![p, at(3.0)]);
        // Any NaN distance rejects: a NaN state blocks every later point,
        // and a NaN point joins only an empty union.
        let nan = Point::new(f64::NAN, 0.0);
        assert_eq!(bits(&hmm_state_union([], [nan, p])), bits(&[nan]));
        assert_eq!(hmm_state_union([p], [nan]), vec![p]);
        // Infinite and huge points fall back to the linear scan.
        let inf = Point::new(f64::INFINITY, 1.0);
        assert_eq!(hmm_state_union([p], [inf, p]), linear_state_union(&[p], &[inf, p]));
        let huge = Point::new(1e300, 1e300);
        assert_eq!(hmm_state_union([huge], [huge, p]), vec![huge, p]);
    }

    /// The real venues' radio maps, as sessions survey them: the grid
    /// union reproduces the linear one state for state.
    #[test]
    fn state_union_matches_the_linear_scan_on_every_venue() {
        let mut scenarios = campus::all_paths(3);
        scenarios.push(uniloc_env::venues::shopping_mall(4, 1).swap_remove(0));
        scenarios.push(uniloc_env::venues::urban_open_space(5, 1).swap_remove(0));
        scenarios.push(uniloc_env::venues::office("office", 6, 50.0, 18.0));
        let cfg = crate::pipeline::PipelineConfig::default();
        for (i, scenario) in scenarios.iter().enumerate() {
            let ctx = crate::pipeline::build_context(scenario, &cfg, 40 + i as u64);
            let wifi = ctx.wifi_db.positions().to_vec();
            let cell = ctx.cell_db.positions().to_vec();
            let grid = hmm_state_union(wifi.iter().copied(), cell.iter().copied());
            assert_eq!(grid, linear_state_union(&wifi, &cell), "{}", scenario.name);
        }
    }

    #[test]
    fn match_deviation_basics() {
        assert_eq!(match_deviation([5.0].into_iter()), 0.0);
        assert_eq!(match_deviation([3.0, 3.0, 3.0].into_iter()), 0.0);
        let d = match_deviation([1.0, 2.0, 3.0].into_iter());
        assert!((d - 1.0).abs() < 1e-12);
    }
}
