//! Integrating a sixth localization scheme — the framework's "General"
//! feature: "any localization scheme can be easily integrated into UniLoc".
//!
//! The custom scheme here is a Kalman-smoothed cellular tracker. Three steps
//! integrate it:
//!
//!  1. implement [`LocalizationScheme`] (a black box over sensor frames);
//!  2. collect `(features, error)` training tuples for it — here we use a
//!     constant model, the simplest valid choice (what the paper does for
//!     GPS);
//!  3. insert the model into the [`ErrorModelSet`] and hand the scheme to
//!     the engine.
//!
//! Run with: `cargo run --release --example custom_scheme`

use std::sync::Arc;
use uniloc_rng::Rng;
use uniloc::core::engine::UniLocEngine;
use uniloc::core::error_model::{train, LinearErrorModel};
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::env::{venues, GaitProfile, Walker};
use uniloc::filters::Kalman2D;
use uniloc::iodetect::IoState;
use uniloc::schemes::{
    CellFingerprintDb, CellFingerprintScheme, LocalizationScheme, LocationEstimate, SchemeId,
};
use uniloc::sensors::{DeviceProfile, SensorFrame, SensorHub};

/// Step 1: the custom scheme — cellular fingerprinting smoothed by a
/// constant-velocity Kalman filter.
struct SmoothedCellular {
    inner: CellFingerprintScheme,
    kalman: Option<Kalman2D>,
    last_t: f64,
}

impl SmoothedCellular {
    fn new(db: Arc<CellFingerprintDb>) -> Self {
        SmoothedCellular { inner: CellFingerprintScheme::new(db), kalman: None, last_t: 0.0 }
    }
}

impl LocalizationScheme for SmoothedCellular {
    fn id(&self) -> SchemeId {
        SchemeId::Custom(1)
    }
    fn name(&self) -> String {
        "kalman-cellular".to_owned()
    }
    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        let raw = self.inner.update(frame)?;
        let dt = (frame.t - self.last_t).max(0.1);
        self.last_t = frame.t;
        let kf = self
            .kalman
            .get_or_insert_with(|| Kalman2D::new(raw.position, 0.5, 64.0));
        kf.predict(dt);
        kf.update(raw.position);
        Some(LocationEstimate::with_spread(kf.position(), kf.position_variance().sqrt()))
    }
    fn reset(&mut self) {
        self.kalman = None;
        self.last_t = 0.0;
        self.inner.reset();
    }
}

fn main() {
    let cfg = PipelineConfig::default();
    let venue = venues::training_office(81);
    let ctx = pipeline::build_context(&venue, &cfg, 82);

    // Step 2: measure the custom scheme's typical error with ground truth.
    let mut walker = Walker::new(GaitProfile::average(), Rng::seed_from_u64(83));
    let walk = walker.walk(&venue.route);
    let mut hub = SensorHub::new(&venue.world, DeviceProfile::nexus_5x(), 84);
    let frames = hub.sample_walk(&walk, 0.5);
    let mut probe = SmoothedCellular::new(Arc::clone(&ctx.cell_db));
    let errs: Vec<f64> = frames
        .iter()
        .filter_map(|f| probe.update(f).map(|e| e.position.distance(f.true_position)))
        .collect();
    let mean = errs.iter().sum::<f64>() / errs.len() as f64;
    let sd = (errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>()
        / (errs.len() - 1) as f64)
        .sqrt();
    println!("custom scheme measured: mean error {mean:.2} m, sd {sd:.2} m");

    // Step 3: train the built-ins, insert the custom model, run everything.
    let mut samples = pipeline::collect_training(&venue, &cfg, 87);
    samples.extend(pipeline::collect_training(&venues::training_open_space(88), &cfg, 89));
    let mut models = train(&samples).expect("training venues produce enough samples");
    models.insert(
        SchemeId::Custom(1),
        IoState::Indoor,
        LinearErrorModel {
            intercept: mean,
            coefficients: vec![],
            sigma: sd.max(0.5),
            residual_mean: 0.0,
            r_squared: 0.0,
            p_values: vec![],
            n_obs: errs.len(),
        },
    );

    let mut schemes = pipeline::build_schemes(&venue, &ctx, &cfg, 90);
    schemes.push(Box::new(SmoothedCellular::new(Arc::clone(&ctx.cell_db))));
    let mut engine = UniLocEngine::new(schemes, models, ctx);
    // Register the scheme's feature function (a constant model has an empty
    // feature vector; availability = a cellular scan exists indoors). With
    // model + features registered, the sixth scheme participates in the
    // BMA like any built-in.
    engine.register_custom_features(
        SchemeId::Custom(1),
        std::sync::Arc::new(|_ctx, io, frame, _loc| {
            (io == IoState::Indoor
                && frame.cell.as_ref().is_some_and(|c| !c.readings.is_empty()))
            .then(Vec::new)
        }),
    );
    println!("engine now aggregates {} schemes: {:?}", engine.scheme_ids().len(), engine.scheme_ids());

    let mut errs = Vec::new();
    let mut weight_sum = 0.0;
    for f in &frames {
        let out = engine.update(f);
        if let Some(p) = out.bayesian_average {
            errs.push(p.distance(f.true_position));
        }
        if let Some(r) = out.reports.iter().find(|r| r.id == SchemeId::Custom(1)) {
            weight_sum += r.weight;
        }
    }
    println!(
        "UniLoc2 with the sixth scheme aboard: mean error {:.2} m over {} epochs",
        errs.iter().sum::<f64>() / errs.len() as f64,
        errs.len()
    );
    println!(
        "the custom scheme carried {:.1}% of the BMA weight on average",
        weight_sum / frames.len() as f64 * 100.0
    );
}
