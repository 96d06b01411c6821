//! The traced run: per-layer times taken from outside the program, around
//! calls into each layer's public functions.
//!
//! Everything runs on one worker (`jobs = 1`), so the stage times of the
//! serve add up to its wall time; with two workers they would overlap.
//! The run has four parts:
//!
//! 1. **Reference.** The fleet is served untraced through `run_fleet`, at
//!    one worker, and its artifacts are written. Its throughput is the
//!    base of the tracing overhead; its rows are the reference digests.
//! 2. **Serve.** The same fleet is served by the program's scheduler, but
//!    each session is built by a benchmark-side builder that wraps every
//!    construction step (`scenario_by_name`, `pipeline::walk_frames`,
//!    `FaultInjector::inject_walk`, `pipeline::build_context`,
//!    `Session::from_context`) in a span. Retirement, aggregation, spot
//!    checks and artifact writes are re-driven from here, each in a span.
//!    The rows and `FLEET.json` must equal the reference byte for byte.
//! 3. **Replay.** Every session is replayed on a twin `UniLocEngine` built
//!    through `UniLocEngine::with_predictor`, with each scheme from
//!    `pipeline::build_schemes` wrapped in a timing decorator. Guard,
//!    IODetector, feature and prediction costs are timed on a replica fed
//!    the same frames and fused outputs; the replica's predictions must
//!    equal the engine's. The twin's records must match the reference rows.
//! 4. **Report.** Spans are kept in memory and written to
//!    `.perfbench_out/<workload>/spans.tsv` at the end.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::artifacts::{out_dir, proc_status_kb, write_artifacts};
use crate::pct::Samples;
use crate::workload::{fleet_config, setup, Setup};
use crate::{Metric, Outcome};
use uniloc_bench::chaos::{error_stats, fused_error};
use uniloc_bench::fleet::{
    build_session, records_digest, run_fleet, solo_records, spec_frames, spec_pipeline_config,
    spec_scenario, FleetConfig, FleetResult, SessionSpec, SessionSummary,
};
use uniloc_core::error_model::{ErrorModelSet, ErrorPrediction};
use uniloc_core::features::{FeatureExtractor, SharedContext};
use uniloc_core::fleet::{FinishedSession, FleetScheduler, FleetSession};
use uniloc_core::guard::{self, FrameGate, GateVerdict};
use uniloc_core::pipeline::{self, EpochRecord, PipelineConfig};
use uniloc_core::session::Session;
use uniloc_core::{UniLocEngine, UniLocOutput};
use uniloc_faults::{FaultInjector, FaultPlan};
use uniloc_geom::Point;
use uniloc_iodetect::{IoDetector, IoState};
use uniloc_obs::fleet::{FleetAggregator, SessionMeta};
use uniloc_obs::ObsSession;
use uniloc_schemes::{LocalizationScheme, LocationEstimate, Oracle, SchemeId};
use uniloc_sensors::SensorFrame;
use uniloc_stats::json::{Json, ToJson};

/// Lane of spans that belong to no session.
const NO_LANE: u64 = u64::MAX;
/// Parent of a root span.
const NO_PARENT: u32 = u32::MAX;
/// The scheme spans, in the engine's scheme order.
const SCHEME_SPANS: [(SchemeId, &str); 5] = [
    (SchemeId::Gps, "epoch.scheme.gps"),
    (SchemeId::Wifi, "epoch.scheme.wifi"),
    (SchemeId::Cellular, "epoch.scheme.cellular"),
    (SchemeId::Motion, "epoch.scheme.motion"),
    (SchemeId::Fusion, "epoch.scheme.fusion"),
];
/// Sessions built and held to measure resident bytes per session.
const RESIDENT_PROBE: usize = 32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    lane: u64,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

/// In-memory span recorder, shared by the builders, the decorators and
/// the run loop. Nesting follows the open-span stack, so spans must open
/// and close on one thread (the serve runs at one worker).
#[derive(Clone)]
struct Tracer {
    origin: Instant,
    rec: Arc<Mutex<Recorder>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            rec: Arc::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.rec
            .lock()
            .expect("span recorder lock poisoned by a panicking span")
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&self, name: &'static str, lane: u64) -> u32 {
        let mut rec = self.lock();
        let id = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.open.push(id);
        let start_ns = self.now();
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            lane,
        });
        id
    }

    fn end(&self, id: u32) {
        let end_ns = self.now();
        let mut rec = self.lock();
        rec.spans[id as usize].end_ns = end_ns;
        let top = rec.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close in order");
    }

    fn span<T>(&self, name: &'static str, lane: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, lane);
        let out = f();
        self.end(id);
        out
    }

    fn count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_insert(0) += n;
    }

    fn counter(&self, name: &str) -> u64 {
        self.lock().counts.get(name).copied().unwrap_or(0)
    }

    /// `(calls, total ns)` per span name.
    fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.lock().spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        out
    }

    fn write_tsv(&self, path: &Path) -> Result<(), String> {
        use std::fmt::Write as _;
        let rec = self.lock();
        let mut text = String::with_capacity(rec.spans.len() * 48);
        text.push_str("id\tname\tstart_ns\tend_ns\tparent\tlane\n");
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let lane = if s.lane == NO_LANE {
                "-".to_owned()
            } else {
                s.lane.to_string()
            };
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{}\t{parent}\t{lane}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// A scheme wrapped so every `update` is one span, and every estimate
/// counted. All other calls forward untouched, so the engine computes
/// exactly what it computes over the bare scheme.
struct Timed {
    inner: Box<dyn LocalizationScheme>,
    tracer: Tracer,
    span: &'static str,
    calls: &'static str,
    estimates: &'static str,
    lane: u64,
}

impl LocalizationScheme for Timed {
    fn id(&self) -> SchemeId {
        self.inner.id()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn update(&mut self, frame: &SensorFrame) -> Option<LocationEstimate> {
        let inner = &mut self.inner;
        let est = self
            .tracer
            .span(self.span, self.lane, || inner.update(frame));
        self.tracer.count(self.calls, 1);
        self.tracer.count(self.estimates, u64::from(est.is_some()));
        est
    }

    fn posterior(&self) -> Option<Vec<(Point, f64)>> {
        self.inner.posterior()
    }

    fn posterior_mean(&self) -> Option<Point> {
        self.inner.posterior_mean()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

fn timed(
    inner: Box<dyn LocalizationScheme>,
    tracer: &Tracer,
    lane: u64,
) -> Box<dyn LocalizationScheme> {
    let id = inner.id();
    let i = SCHEME_SPANS
        .iter()
        .position(|(s, _)| *s == id)
        .expect("a built-in scheme");
    const CALLS: [&str; 5] = [
        "scheme.gps.calls",
        "scheme.wifi.calls",
        "scheme.cellular.calls",
        "scheme.motion.calls",
        "scheme.fusion.calls",
    ];
    const ESTIMATES: [&str; 5] = [
        "scheme.gps.estimates",
        "scheme.wifi.estimates",
        "scheme.cellular.estimates",
        "scheme.motion.estimates",
        "scheme.fusion.estimates",
    ];
    Box::new(Timed {
        inner,
        tracer: tracer.clone(),
        span: SCHEME_SPANS[i].1,
        calls: CALLS[i],
        estimates: ESTIMATES[i],
        lane,
    })
}

/// The observability a fleet walker runs under (full, with allocation
/// tracking), as `uniloc_bench::fleet::build_session` installs it.
fn walker_obs() -> Arc<ObsSession> {
    let mut obs = ObsSession::isolated();
    obs.alloc_tracking = true;
    Arc::new(obs)
}

/// Builds one fleet session the way `build_session` does, with every
/// construction step in its own span.
fn traced_build(
    spec: SessionSpec,
    models: &ErrorModelSet,
    base: &PipelineConfig,
    max_epochs: usize,
    tracer: &Tracer,
) -> FleetSession {
    let lane = spec.lane;
    let id = tracer.begin("session.build", lane);
    let panic_epoch = FaultPlan::by_name(&spec.plan).and_then(|p| p.panic_epoch());
    let mut fs = FleetSession::build_with_obs(lane, spec.name.clone(), walker_obs(), || {
        let scenario = tracer.span("setup.scenario", lane, || spec_scenario(&spec));
        let cfg = spec_pipeline_config(base, &spec);
        let mut frames = tracer.span("setup.frames", lane, || {
            pipeline::walk_frames(&scenario, &cfg, spec.seed)
        });
        tracer.count("sensors.frames_synthesized", frames.len() as u64);
        if max_epochs > 0 {
            frames.truncate(max_epochs);
        }
        tracer.count("sensors.frames_kept", frames.len() as u64);
        if spec.plan != "none" {
            let plan = FaultPlan::by_name(&spec.plan).expect("spec plans come from the library");
            let chaos_seed = spec.seed
                ^ plan
                    .name
                    .bytes()
                    .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
            let mut injector =
                FaultInjector::new(plan, chaos_seed).with_geo_frame(*scenario.world.geo_frame());
            frames = tracer.span("setup.inject", lane, || injector.inject_walk(&frames));
            tracer.count("faults.injected_events", injector.events().len() as u64);
        }
        let ctx = tracer.span("setup.build_context", lane, || {
            pipeline::build_context(&scenario, &cfg, spec.seed)
        });
        let session = tracer.span("setup.session_new", lane, || {
            Session::from_context(Arc::new(scenario), ctx, models, &cfg, spec.seed)
        });
        (session, frames)
    });
    fs.set_panic_at_epoch(panic_epoch);
    tracer.end(id);
    fs
}

/// The fleet row of a retired session, computed as `run_fleet` does.
fn summarize(spec: SessionSpec, finished: &FinishedSession) -> SessionSummary {
    let (mean_error, _, _) = error_stats(&finished.records);
    let nonfinite_fused = finished
        .records
        .iter()
        .filter_map(fused_error)
        .filter(|e| !e.is_finite())
        .count();
    let mut quarantined: Vec<String> = Vec::new();
    for r in &finished.records {
        for id in &r.quarantined {
            let s = id.to_string();
            if !quarantined.contains(&s) {
                quarantined.push(s);
            }
        }
    }
    SessionSummary {
        spec,
        epochs: finished.epochs,
        digest: records_digest(&finished.records),
        mean_error,
        nonfinite_fused,
        quarantined,
        flight_lines: finished.capture.flight_lines.len(),
        poisoned: finished.poisoned.as_ref().map(ToString::to_string),
    }
}

fn session_meta(s: &SessionSummary) -> SessionMeta {
    SessionMeta {
        lane: s.spec.lane,
        name: s.spec.name.clone(),
        persona: s.spec.persona.clone(),
        device: s.spec.device.clone(),
        venue: s.spec.scenario.clone(),
        faulted: s.spec.plan != "none",
        epochs: s.epochs as u64,
        mean_error_m: s.mean_error,
        nonfinite: s.nonfinite_fused as u64,
        quarantined: s.quarantined.clone(),
    }
}

/// `FLEET.json` as `run_fleet` assembles it.
fn fleet_report(cfg: &FleetConfig, summaries: &[SessionSummary]) -> Json {
    let rows: Vec<Json> = summaries.iter().map(ToJson::to_json).collect();
    let mut fleet_digest: u64 = 0xcbf2_9ce4_8422_2325;
    for s in summaries {
        fleet_digest ^= s.digest.wrapping_add(s.spec.lane);
        fleet_digest = fleet_digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let count =
        |f: &dyn Fn(&SessionSummary) -> bool| summaries.iter().filter(|s| f(s)).count() as i64;
    Json::Obj(vec![
        ("fleet".into(), Json::Str("uniloc-fleet".into())),
        ("seed".into(), Json::Int(cfg.seed as i64)),
        ("sessions".into(), Json::Int(summaries.len() as i64)),
        (
            "scenarios".into(),
            Json::Arr(cfg.scenario_names.iter().cloned().map(Json::Str).collect()),
        ),
        ("max_epochs".into(), Json::Int(cfg.max_epochs as i64)),
        ("chaos_every".into(), Json::Int(cfg.chaos_every as i64)),
        (
            "total_epochs".into(),
            Json::Int(summaries.iter().map(|s| s.epochs).sum::<usize>() as i64),
        ),
        (
            "faulted_sessions".into(),
            Json::Int(count(&|s| s.spec.plan != "none")),
        ),
        (
            "quarantined_sessions".into(),
            Json::Int(count(&|s| !s.quarantined.is_empty())),
        ),
        (
            "poisoned_sessions".into(),
            Json::Int(count(&|s| s.poisoned.is_some())),
        ),
        (
            "fleet_digest".into(),
            Json::Str(format!("{fleet_digest:016x}")),
        ),
        ("rows".into(), Json::Arr(rows)),
    ])
    .canonical()
}

/// What the traced serve measured.
struct Served {
    serve_ns: u64,
    epochs: u64,
    epoch_ns: Vec<u64>,
    round_ns: Vec<u64>,
    report: String,
    spot_checks: usize,
    violations: Vec<String>,
}

/// Part 2: the fleet served by the program's scheduler at one worker,
/// with traced builders and a traced tail.
fn serve(
    cfg: &FleetConfig,
    specs: &[SessionSpec],
    models: &Arc<ErrorModelSet>,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Served, String> {
    let base = PipelineConfig::default();
    let t0 = Instant::now();
    let root = tracer.begin("serve", NO_LANE);
    let resident = if cfg.resident == 0 { 64 } else { cfg.resident };
    let mut scheduler = FleetScheduler::new(1, base.epoch_interval, resident);
    for spec in specs {
        let (spec, models, base, tracer) = (
            spec.clone(),
            Arc::clone(models),
            base.clone(),
            tracer.clone(),
        );
        let max_epochs = cfg.max_epochs;
        scheduler.admit(spec.lane, move || {
            traced_build(spec, &models, &base, max_epochs, &tracer)
        });
    }
    let by_lane: BTreeMap<u64, &SessionSpec> = specs.iter().map(|s| (s.lane, s)).collect();
    let mut agg = FleetAggregator::with_exemplar_cap(cfg.shards, cfg.top_k);
    let mut summaries = Vec::with_capacity(specs.len());
    let stats = scheduler.run(|finished| {
        let lane = finished.lane;
        let spec = (*by_lane[&lane]).clone();
        let summary = tracer.span("obs.summarize", lane, || summarize(spec, &finished));
        tracer.span("obs.observe", lane, || {
            agg.observe(&session_meta(&summary), &finished.capture)
        });
        summaries.push(summary);
    });

    // The tail of run_fleet: the resilience spot checks and the report.
    let post = tracer.begin("post", NO_LANE);
    let mut violations = Vec::new();
    let mut suspicious = Vec::new();
    for s in &summaries {
        if s.nonfinite_fused > 0 {
            violations.push(format!(
                "{}: {} non-finite fused estimate(s)",
                s.spec.name, s.nonfinite_fused
            ));
        }
        if s.spec.plan == "none" && !s.quarantined.is_empty() {
            suspicious.push(s);
        }
    }
    suspicious.truncate(64);
    for s in &suspicious {
        let solo = tracer.span("post.solo_replay", s.spec.lane, || {
            solo_records(&s.spec, models, &base, cfg.max_epochs)
        });
        if records_digest(&solo) != s.digest {
            violations.push(format!(
                "{}: fleet records diverge from the solo run",
                s.spec.name
            ));
        }
    }
    let report = tracer.span("post.report", NO_LANE, || fleet_report(cfg, &summaries));
    tracer.end(post);

    let spot_checks = suspicious.len();
    let result = FleetResult {
        report,
        summaries,
        stats,
        violations: violations.clone(),
        snapshot: Some(agg.snapshot()),
    };
    tracer.span("artifacts.write", NO_LANE, || write_artifacts(dir, &result))?;
    tracer.end(root);
    let serve_ns = t0.elapsed().as_nanos() as u64;
    Ok(Served {
        serve_ns,
        epochs: result.stats.epochs,
        epoch_ns: result.stats.epoch_ns,
        round_ns: result.stats.round_ns,
        report: result.report.to_string(),
        spot_checks,
        violations,
    })
}

/// The record `Session::step` derives from one engine output.
fn record(scenario: &uniloc_env::Scenario, frame: &SensorFrame, out: &UniLocOutput) -> EpochRecord {
    let truth = frame.true_position;
    let (_, station) = scenario.route.project(truth);
    let oracle_input: Vec<_> = out.reports.iter().map(|r| (r.id, r.estimate)).collect();
    let oracle = Oracle::select(&oracle_input, truth);
    EpochRecord {
        t: frame.t,
        station,
        truth,
        indoor: scenario.world.is_indoor(truth),
        io_detected: out.io,
        scheme_errors: out
            .reports
            .iter()
            .map(|r| (r.id, r.estimate.map(|e| e.position.distance(truth))))
            .collect(),
        estimates: out
            .reports
            .iter()
            .map(|r| (r.id, r.estimate.map(|e| e.position)))
            .collect(),
        predictions: out.reports.iter().map(|r| (r.id, r.prediction)).collect(),
        uniloc1_error: out.best_selection.map(|p| p.distance(truth)),
        uniloc1_choice: out.selected,
        uniloc2_error: out.bayesian_average.map(|p| p.distance(truth)),
        uniloc2_mixture_error: out.mixture_average.map(|p| p.distance(truth)),
        oracle_error: oracle.map(|(_, _, e)| e),
        oracle_choice: oracle.map(|(id, _, _)| id),
        weights: out.reports.iter().map(|r| (r.id, r.weight)).collect(),
        gps_enabled: out.gps_enabled,
        tau: out.tau,
        ladder: out.ladder,
        quarantined: out.quarantined.clone(),
    }
}

/// The engine's per-epoch pre-fusion stages, re-run on their own objects:
/// frame gate and scrub, IODetector, feature extraction and prediction.
struct Replica {
    gate: FrameGate,
    iodetector: IoDetector,
    extractor: FeatureExtractor,
    ctx: SharedContext,
    ids: Vec<SchemeId>,
    matches: Vec<uniloc_schemes::FingerprintMatch>,
    feats: Vec<Vec<f64>>,
    has: Vec<bool>,
    predictions: Vec<Option<ErrorPrediction>>,
}

impl Replica {
    fn new(ctx: SharedContext, cfg: &PipelineConfig, ids: Vec<SchemeId>) -> Replica {
        let n = ids.len();
        Replica {
            gate: FrameGate::new(),
            iodetector: IoDetector::new(),
            extractor: FeatureExtractor::with_predictor(&ctx, cfg.predictor),
            ctx,
            ids,
            matches: Vec::new(),
            feats: vec![Vec::new(); n],
            has: vec![false; n],
            predictions: vec![None; n],
        }
    }

    /// Runs the stages on `frame` in the engine's order, then feeds back
    /// the engine's fused output. Returns an error when the replica's IO
    /// verdict or predictions differ from the engine's.
    fn step(
        &mut self,
        frame: &SensorFrame,
        out: &UniLocOutput,
        models: &ErrorModelSet,
        tracer: &Tracer,
        lane: u64,
    ) -> Result<(), String> {
        let verdict = self.gate.admit(frame.t);
        if verdict == GateVerdict::Rejected {
            return Ok(());
        }
        let scrubbed = tracer.span("epoch.guard", lane, || guard::scrub_frame(frame));
        tracer.count("guard.scrubbed_frames", u64::from(scrubbed.is_some()));
        let frame = match &scrubbed {
            Some((clean, _)) => clean,
            None => frame,
        };
        let replay;
        let frame = if matches!(
            verdict,
            GateVerdict::Duplicate | GateVerdict::TimeRegression
        ) && !frame.steps.is_empty()
        {
            let mut f = frame.clone();
            f.steps.clear();
            replay = f;
            &replay
        } else {
            frame
        };
        let io: IoState = tracer.span("epoch.iodetect", lane, || {
            self.iodetector.classify_frame(frame)
        });
        let Replica {
            extractor,
            ctx,
            ids,
            matches,
            feats,
            has,
            predictions,
            ..
        } = self;
        tracer.span("epoch.features", lane, || {
            extractor.begin_epoch(frame);
            for (i, &id) in ids.iter().enumerate() {
                has[i] = extractor.features_into(ctx, id, io, frame, None, matches, &mut feats[i]);
            }
        });
        // The engine predicts GPS once and every other scheme twice (the
        // duty-cycling pass and the report pass).
        tracer.span("epoch.predict", lane, || {
            for (i, &id) in ids.iter().enumerate() {
                let passes = if id == SchemeId::Gps { 1 } else { 2 };
                for _ in 0..passes {
                    predictions[i] = if has[i] {
                        models.predict(id, io, &feats[i])
                    } else {
                        None
                    };
                }
            }
        });
        if let Some(p) = out.bayesian_average.or(out.best_selection) {
            extractor.note_estimate(p);
        }
        if io != out.io {
            return Err(format!(
                "replica IO verdict {io} differs from the engine's {} at t={}",
                out.io, frame.t
            ));
        }
        for (r, p) in out.reports.iter().zip(predictions.iter()) {
            if r.prediction != *p {
                return Err(format!(
                    "replica {} prediction differs from the engine's at t={}",
                    r.id, frame.t
                ));
            }
        }
        Ok(())
    }
}

/// Part 3: every session replayed on a traced twin engine.
fn replay(
    cfg: &FleetConfig,
    specs: &[SessionSpec],
    models: &Arc<ErrorModelSet>,
    reference: &BTreeMap<u64, u64>,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> u64 {
    let base = PipelineConfig::default();
    let t0 = Instant::now();
    let root = tracer.begin("replay", NO_LANE);
    for spec in specs {
        let lane = spec.lane;
        let _obs = uniloc_obs::session::install(walker_obs());
        let scenario = spec_scenario(spec);
        let pcfg = spec_pipeline_config(&base, spec);
        let frames = spec_frames(&scenario, &pcfg, spec, cfg.max_epochs);
        let ctx = pipeline::build_context(&scenario, &pcfg, spec.seed);
        let points = scenario
            .survey_points(pcfg.indoor_spacing, pcfg.outdoor_spacing)
            .len();
        tracer.count("survey.points", points as u64);
        tracer.count("fp.entries.wifi", ctx.wifi_db.len() as u64);
        tracer.count("fp.entries.cell", ctx.cell_db.len() as u64);
        let schemes = tracer.span("setup.build_schemes", lane, || {
            pipeline::build_schemes(&scenario, &ctx, &pcfg, spec.seed + 2)
        });
        let ids: Vec<SchemeId> = schemes.iter().map(|s| s.id()).collect();
        let mut replica = Replica::new(ctx.clone(), &pcfg, ids);
        let mut engine = tracer.span("setup.engine_new", lane, || {
            let wrapped = schemes
                .into_iter()
                .map(|s| timed(s, tracer, lane))
                .collect();
            UniLocEngine::with_predictor(wrapped, (**models).clone(), ctx, pcfg.predictor)
        });
        let mut records = Vec::with_capacity(frames.len());
        let mut diverged = None;
        for frame in &frames {
            let out = tracer.span("epoch.update", lane, || engine.update(frame));
            if let Err(e) = replica.step(frame, &out, models, tracer, lane) {
                diverged.get_or_insert(e);
            }
            records.push(record(&scenario, frame, &out));
            engine.recycle(out);
        }
        if let Some(e) = diverged {
            problems.push(format!("{}: {e}", spec.name));
        }
        if reference.get(&lane) != Some(&records_digest(&records)) {
            problems.push(format!(
                "{}: twin records differ from the fleet row",
                spec.name
            ));
        }
    }
    tracer.end(root);
    t0.elapsed().as_nanos() as u64
}

/// RSS growth per session while [`RESIDENT_PROBE`] freshly built fleet
/// sessions are held at once.
fn resident_bytes(cfg: &FleetConfig, specs: &[SessionSpec], models: &Arc<ErrorModelSet>) -> f64 {
    let before = proc_status_kb("VmRSS").unwrap_or(0);
    let held: Vec<FleetSession> = specs
        .iter()
        .take(RESIDENT_PROBE)
        .map(|s| {
            build_session(
                s.clone(),
                Arc::clone(models),
                PipelineConfig::default(),
                cfg.max_epochs,
            )
        })
        .collect();
    let after = proc_status_kb("VmRSS").unwrap_or(0);
    let n = held.len().max(1) as f64;
    drop(held);
    after.saturating_sub(before) as f64 * 1024.0 / n
}

/// Runs the traced run and reports the per-layer metrics.
///
/// # Errors
///
/// Set-up, serving and write failures. Correctness failures come back as
/// `Outcome::problems`.
pub fn run(name: &str, seed: u64) -> Result<Outcome, String> {
    let cfg = fleet_config(name, seed, 1)?;
    let dir = out_dir(name)?;
    let Setup { models, specs, .. } = setup(&cfg)?;
    let mut problems = Vec::new();
    let resident_bytes = resident_bytes(&cfg, &specs, &models);

    // Part 1: the untraced reference at the same worker count.
    let t0 = Instant::now();
    let reference = run_fleet(&models, &PipelineConfig::default(), &cfg)?;
    write_artifacts(&dir, &reference)?;
    let untraced_eps = reference.stats.epochs as f64 / t0.elapsed().as_secs_f64();
    problems.extend(
        reference
            .violations
            .iter()
            .map(|v| format!("violation: {v}")),
    );
    let poisoned = reference
        .summaries
        .iter()
        .filter(|s| s.poisoned.is_some())
        .count();
    if poisoned > 0 {
        problems.push(format!("{poisoned} session(s) poisoned"));
    }
    let digests: BTreeMap<u64, u64> = reference
        .summaries
        .iter()
        .map(|s| (s.spec.lane, s.digest))
        .collect();
    let reference_report = reference.report.to_string();
    drop(reference);

    // Part 2 and 3.
    let tracer = Tracer::new();
    let served = serve(&cfg, &specs, &models, &dir, &tracer)?;
    if served.report != reference_report {
        problems.push("the traced serve wrote a different FLEET.json than run_fleet".to_owned());
    }
    problems.extend(
        served
            .violations
            .iter()
            .map(|v| format!("traced violation: {v}")),
    );
    let replay_ns = replay(&cfg, &specs, &models, &digests, &tracer, &mut problems);
    tracer.write_tsv(&dir.join("spans.tsv"))?;

    Ok(report(
        &cfg,
        &tracer,
        &served,
        replay_ns,
        untraced_eps,
        resident_bytes,
        problems,
    ))
}

/// Turns the spans into the per-layer metrics and the stage table.
fn report(
    cfg: &FleetConfig,
    tracer: &Tracer,
    served: &Served,
    replay_ns: u64,
    untraced_eps: f64,
    resident_bytes: f64,
    problems: Vec<String>,
) -> Outcome {
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let mean = |name: &str| {
        if calls(name) > 0.0 {
            total(name) / calls(name)
        } else {
            0.0
        }
    };
    let counter = |name: &str| tracer.counter(name) as f64;
    let sessions = calls("session.build").max(1.0);
    let epochs = served.epochs as f64;

    let step_total: f64 = served.epoch_ns.iter().sum::<u64>() as f64;
    let round_total: f64 = served.round_ns.iter().sum::<u64>() as f64;
    let build_total = total("session.build");
    let sched_total = round_total - step_total - build_total;
    let update_total = total("epoch.update");
    let scheme_total: f64 = SCHEME_SPANS.iter().map(|(_, s)| total(s)).sum();
    let replayed_epochs = calls("epoch.update").max(1.0);

    // Serve-time stages: each is wall time on the one worker or on the
    // calling thread, and together they cover the serve.
    let setup_stages = [
        "setup.scenario",
        "setup.frames",
        "setup.inject",
        "setup.build_context",
        "setup.session_new",
    ];
    let setup_total: f64 = setup_stages.iter().map(|s| total(s)).sum();
    let mut stages: Vec<(String, f64)> = setup_stages
        .iter()
        .map(|s| ((*s).to_owned(), total(s)))
        .collect();
    stages.push(("session.build.other".to_owned(), build_total - setup_total));
    // The epoch path: Session::step as the scheduler timed it, split with
    // the replay's per-call times.
    for (_, s) in SCHEME_SPANS {
        stages.push((s.to_owned(), total(s)));
    }
    stages.push(("epoch.engine_self".to_owned(), update_total - scheme_total));
    stages.push((
        "epoch.session_overhead".to_owned(),
        step_total - update_total,
    ));
    stages.push(("fleet.sched".to_owned(), sched_total));
    for s in ["obs.summarize", "obs.observe", "post", "artifacts.write"] {
        stages.push((s.to_owned(), total(s)));
    }
    let serve_ns = served.serve_ns as f64;
    let accounted: f64 = stages.iter().map(|(_, v)| v).sum();
    stages.push(("remainder".to_owned(), serve_ns - accounted));

    let mut lines = vec![format!(
        "traced serve {:.1} ms over {} sessions, {} epochs, {} rounds (one worker)",
        serve_ns / 1e6,
        sessions,
        served.epochs,
        served.round_ns.len()
    )];
    for (name, ns) in &stages {
        lines.push(format!(
            "  stage {name:<28} {:>12.2} ms {:>6.2}%",
            ns / 1e6,
            100.0 * ns / serve_ns
        ));
    }
    lines.push(format!(
        "  stages sum to {:.2} ms of {:.2} ms serve",
        stages.iter().map(|(_, v)| v).sum::<f64>() / 1e6,
        serve_ns / 1e6
    ));

    // One traced fleet serves 36 to 820 rounds: enough for a median, not
    // for a tail with ten samples above it, so the mean stands in.
    let rounds = Samples::new(served.round_ns.clone());
    let round_p50 = rounds.per_mille(500).map_or(f64::NAN, |v| v as f64);
    let traced_eps = epochs / (serve_ns / 1e9);
    let ratio = |num: &str, den: &str| {
        if counter(den) > 0.0 {
            counter(num) / counter(den)
        } else {
            0.0
        }
    };
    let per_session = |name: &str| total(name) / sessions;
    let per_epoch = |name: &str| total(name) / replayed_epochs;

    let mut m = vec![
        Metric::new("setup.scenario_ns", per_session("setup.scenario"), "ns"),
        Metric::new("setup.frames_ns", per_session("setup.frames"), "ns"),
        Metric::new(
            "sensors.frames_kept_ratio",
            ratio("sensors.frames_kept", "sensors.frames_synthesized"),
            "ratio",
        ),
        Metric::new("setup.inject_ns", mean("setup.inject"), "ns"),
        Metric::new(
            "faults.injected_events",
            counter("faults.injected_events"),
            "count",
        ),
        Metric::new(
            "setup.build_context_ns",
            per_session("setup.build_context"),
            "ns",
        ),
        Metric::new(
            "setup.session_new_ns",
            per_session("setup.session_new"),
            "ns",
        ),
        Metric::new("setup.build_schemes_ns", mean("setup.build_schemes"), "ns"),
        Metric::new("setup.engine_new_ns", mean("setup.engine_new"), "ns"),
        Metric::new(
            "survey.points",
            counter("survey.points") / sessions,
            "count",
        ),
        Metric::new(
            "fp.entries.wifi",
            counter("fp.entries.wifi") / sessions,
            "count",
        ),
        Metric::new(
            "fp.entries.cell",
            counter("fp.entries.cell") / sessions,
            "count",
        ),
        Metric::new("session.resident_bytes", resident_bytes, "bytes"),
        Metric::new("epoch.step_ns", step_total / epochs.max(1.0), "ns"),
        Metric::new("epoch.update_ns", update_total / replayed_epochs, "ns"),
    ];
    for ((_, s), short) in SCHEME_SPANS
        .iter()
        .zip(["gps", "wifi", "cellular", "motion", "fusion"])
    {
        let calls_key = format!("scheme.{short}.calls");
        let est_key = format!("scheme.{short}.estimates");
        m.push(Metric::new(&format!("{s}_ns"), mean(s), "ns"));
        let avail = if counter(&calls_key) > 0.0 {
            counter(&est_key) / counter(&calls_key)
        } else {
            0.0
        };
        m.push(Metric::new(&format!("{s}.availability"), avail, "ratio"));
    }
    m.extend([
        Metric::new("epoch.guard_ns", per_epoch("epoch.guard"), "ns"),
        Metric::new(
            "guard.scrubbed_frames",
            counter("guard.scrubbed_frames"),
            "count",
        ),
        Metric::new("epoch.iodetect_ns", per_epoch("epoch.iodetect"), "ns"),
        Metric::new("epoch.features_ns", per_epoch("epoch.features"), "ns"),
        Metric::new("epoch.predict_ns", per_epoch("epoch.predict"), "ns"),
        Metric::new(
            "epoch.engine_self_ns",
            (update_total - scheme_total) / replayed_epochs,
            "ns",
        ),
        Metric::new(
            "epoch.session_overhead_ns",
            step_total / epochs.max(1.0) - update_total / replayed_epochs,
            "ns",
        ),
        Metric::new("fleet.rounds", served.round_ns.len() as f64, "count"),
        Metric::new(
            "fleet.epochs_per_round",
            epochs / served.round_ns.len().max(1) as f64,
            "count",
        ),
        Metric::new("fleet.round_p50_ns", round_p50, "ns"),
        Metric::new(
            "fleet.round_mean_ns",
            round_total / served.round_ns.len().max(1) as f64,
            "ns",
        ),
        Metric::new(
            "fleet.sched_ns",
            sched_total / served.round_ns.len().max(1) as f64,
            "ns",
        ),
        Metric::new("obs.summarize_ns", mean("obs.summarize"), "ns"),
        Metric::new("obs.observe_ns", mean("obs.observe"), "ns"),
        Metric::new("artifacts.write_ns", total("artifacts.write"), "ns"),
        Metric::new("post.spot_checks", served.spot_checks as f64, "count"),
        Metric::new("post_ns", total("post"), "ns"),
        Metric::new("trace.serve_ns", serve_ns, "ns"),
        Metric::new(
            "trace.remainder_ns",
            stages.last().map_or(0.0, |s| s.1),
            "ns",
        ),
        Metric::new("trace.setup_share", setup_total / serve_ns, "ratio"),
        Metric::new("trace.epoch_share", step_total / serve_ns, "ratio"),
        Metric::new("trace.replay_ns", replay_ns as f64, "ns"),
        Metric::new("trace.epochs_per_s", traced_eps, "epochs/s"),
        Metric::new("trace.untraced_epochs_per_s", untraced_eps, "epochs/s"),
        Metric::new("trace.overhead_ratio", untraced_eps / traced_eps, "ratio"),
    ]);
    let step_samples = served.epoch_ns.len();
    for metric in &mut m {
        if metric.name == "epoch.step_ns" {
            metric.note = format!("{step_samples} steps");
        }
    }
    Outcome {
        attempted: cfg.sessions as u64,
        failed: served.violations.len() as u64,
        metrics: m,
        problems,
        lines,
    }
}
