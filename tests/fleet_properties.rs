//! Property tests for the fleet engine's determinism primitives, on the
//! in-repo [`uniloc::rng::check`] harness: the scheduler's epoch-due
//! ordering is a total order, seed-stream splitting gives disjoint
//! per-session streams, and a session checkpoint round-trips
//! byte-identically through canonical JSON.

use std::cell::Cell;
use std::sync::Arc;

use uniloc::core::error_model::{train, ErrorModelSet};
use uniloc::core::fleet::{DueKey, SessionCheckpoint};
use uniloc::core::pipeline::{self, PipelineConfig};
use uniloc::core::quarantine::QuarantineStanding;
use uniloc::core::session::Session;
use uniloc::env::venues;
use uniloc::rng::check::Checker;
use uniloc::rng::{require, require_eq, split_seed, Rng};
use uniloc::stats::json::{from_str, ToJson};
use uniloc_bench::fleet::{
    restore_session, spec_frames, spec_pipeline_config, spec_scenario, SessionSpec,
};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fleet_properties.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

fn key(rng: &mut Rng, scale: f64) -> DueKey {
    // Ramp the ranges so early cases probe dense collisions (many equal
    // due times / nearby lanes) and later ones the full u64 span.
    let span = 2 + (scale * 1e12) as u64;
    DueKey { due_ns: rng.gen_range(0..span), lane: rng.gen_range(0..span) }
}

/// The scheduler's due ordering is a *total* order: antisymmetric,
/// transitive, total, and equal exactly when both fields are equal.
#[test]
fn due_key_ordering_is_total() {
    checker("due_key_ordering_is_total").run(
        |rng, scale| (key(rng, scale), key(rng, scale), key(rng, scale)),
        |&(a, b, c)| {
            require_eq!(a.cmp(&b), b.cmp(&a).reverse());
            require_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
            if a <= b && b <= c {
                require!(a <= c, "transitivity");
            }
            require!(a <= b || b <= a, "totality");
            require!(
                (a == b) == (a.due_ns == b.due_ns && a.lane == b.lane),
                "equality must be exactly field equality"
            );
            // Earlier due time always wins, regardless of lane; ties
            // break by lane — the scheduling invariant itself.
            if a.due_ns < b.due_ns {
                require!(a < b, "earlier due time must schedule first");
            }
            if a.due_ns == b.due_ns && a.lane < b.lane {
                require!(a < b, "equal due times must break ties by lane");
            }
            Ok(())
        },
    );
}

/// Sorting due keys is deterministic however the batch was collected:
/// any permutation sorts to the same sequence.
#[test]
fn due_key_sort_is_permutation_invariant() {
    checker("due_key_sort_is_permutation_invariant").run(
        |rng, scale| {
            let n = rng.gen_range(0..20usize);
            let keys: Vec<DueKey> = (0..n).map(|_| key(rng, scale)).collect();
            let mut perm: Vec<usize> = (0..n).collect();
            // Fisher-Yates on the harness stream.
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..i + 1));
            }
            (keys, perm)
        },
        |(keys, perm)| {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let mut permuted: Vec<DueKey> = perm.iter().map(|&i| keys[i]).collect();
            permuted.sort_unstable();
            require_eq!(sorted, permuted);
            require!(sorted.windows(2).all(|w| w[0] <= w[1]));
            Ok(())
        },
    );
}

/// [`split_seed`] gives every lane its own decorrelated stream: two
/// distinct lanes of the same fleet (or the same lane of two fleets)
/// never share a draw in their first 64 outputs, and the split is a pure
/// function of `(root, lane)`.
#[test]
fn split_seed_streams_are_disjoint() {
    let stream = |seed: u64| -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..64).map(|_| rng.next_u64()).collect()
    };
    checker("split_seed_streams_are_disjoint").run(
        |rng, _| (rng.next_u64(), rng.next_u64(), rng.next_u64()),
        |&(root, lane_a, lane_b)| {
            require_eq!(split_seed(root, lane_a), split_seed(root, lane_a));
            if lane_a == lane_b {
                return Ok(());
            }
            let a = stream(split_seed(root, lane_a));
            let b = stream(split_seed(root, lane_b));
            require!(a != b, "distinct lanes must get distinct streams");
            require!(
                a.iter().all(|v| !b.contains(v)),
                "sibling lane streams must not share draws"
            );
            let other = stream(split_seed(root.wrapping_add(1), lane_a));
            require!(
                a.iter().all(|v| !other.contains(v)),
                "the same lane of a different fleet must not share draws"
            );
            Ok(())
        },
    );
}

fn arbitrary_name(rng: &mut Rng, scale: f64) -> String {
    // Exercise JSON-hostile content: quotes, backslashes, slashes,
    // whitespace and non-ASCII, scaled up in length.
    const ALPHABET: [char; 16] = [
        'a', 'z', '0', '9', '-', '_', '"', '\\', '/', ' ', '.', ',', '{', '}', 'é', '中',
    ];
    let len = rng.gen_range(0..1 + (scale * 24.0) as usize);
    (0..len).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

/// A [`SessionCheckpoint`] survives serialize → canonicalize → parse →
/// re-serialize byte-identically, for arbitrary (including JSON-hostile)
/// field content.
#[test]
fn checkpoint_canonical_json_round_trips() {
    checker("checkpoint_canonical_json_round_trips").run(
        |rng, scale| SessionCheckpoint {
            // Version travels as a JSON integer, so it spans 0..=i64::MAX.
            version: rng.next_u64() >> 1,
            // Full-range u64s on purpose: real seeds come from
            // `split_seed` and routinely exceed i64::MAX.
            lane: rng.next_u64(),
            name: arbitrary_name(rng, scale),
            scenario: arbitrary_name(rng, scale),
            persona: arbitrary_name(rng, scale),
            device: arbitrary_name(rng, scale),
            plan: arbitrary_name(rng, scale),
            seed: rng.next_u64(),
            cursor: rng.next_u64(),
        },
        |ckpt| {
            let canonical = ckpt.to_json().canonical().to_string();
            let parsed: SessionCheckpoint =
                from_str(&canonical).map_err(|e| format!("parse failed: {e}"))?;
            require_eq!(&parsed, ckpt);
            let again = parsed.to_json().canonical().to_string();
            require_eq!(again, canonical);
            Ok(())
        },
    );
}

fn trained_models(seed: u64) -> Arc<ErrorModelSet> {
    let cfg = PipelineConfig::default();
    let mut samples =
        pipeline::collect_training(&venues::training_office(seed), &cfg, seed + 10);
    samples.extend(pipeline::collect_training(
        &venues::training_open_space(seed + 1),
        &cfg,
        seed + 11,
    ));
    Arc::new(train(&samples).expect("training venues produce enough samples"))
}

/// A session checkpointed *mid-quarantine-sentence* resumes with the same
/// backoff state and probation countdown. The checkpoint stores only
/// `(spec, cursor)` — restore rebuilds the session and replays — so the
/// restored engine's full quarantine standings (sentence remainder,
/// probation countdown, strike counts) must equal the live session's at
/// the cut, for arbitrary cuts, not just clean scheme boundaries.
///
/// The specs walk the campus daily path under `gps_multipath` — the one
/// library plan whose 900 m jumps convict a scheme outright (the smoke
/// plans are caught upstream by the frame gate and never strike), with the
/// conviction landing in the walk's open-sky tail quarter. Cuts are
/// tail-weighted so the sweep crosses sentences and probations, and the
/// test fails if no case actually cut mid-sentence.
#[test]
fn quarantined_session_resumes_mid_sentence() {
    let models = trained_models(47);
    let base = PipelineConfig::default();
    let personas = ["m-30s", "f-20s", "m-50s"];
    let specs: Vec<SessionSpec> = (0..personas.len() as u64)
        .map(|lane| SessionSpec {
            lane,
            name: format!("q-resume-{lane}"),
            scenario: "path1".to_owned(),
            persona: personas[lane as usize].to_owned(),
            device: if lane % 2 == 0 { "nexus5x" } else { "lgg3" }.to_owned(),
            plan: "gps_multipath".to_owned(),
            seed: split_seed(47, lane),
        })
        .collect();
    let mid_sentence = Cell::new(0u32);
    checker("quarantined_session_resumes_mid_sentence").cases(10).run(
        |rng, _| (rng.gen_range(0..specs.len()), rng.gen_range(0..140usize)),
        |&(which, back)| {
            let spec = &specs[which];
            let scenario = spec_scenario(spec);
            let scfg = spec_pipeline_config(&base, spec);
            let frames = spec_frames(&scenario, &scfg, spec, 0);
            // Tail-weighted cut: the multipath window (and its sentence)
            // sits in the last quarter of the walk.
            let cut = frames.len().saturating_sub(back).max(1);
            // Live path: serve straight through to the cut.
            let mut live = Session::new(Arc::new(scenario), &models, &scfg, spec.seed);
            for frame in &frames[..cut] {
                live.step(frame);
            }
            let lived = live.engine().quarantine_standings();
            if lived.iter().any(|(_, s)| *s != QuarantineStanding::Active) {
                mid_sentence.set(mid_sentence.get() + 1);
            }
            // Resume path: rebuild from the checkpoint and replay (with
            // recording) to the cut.
            let restored =
                restore_session(&spec.checkpoint(cut), Arc::clone(&models), base.clone(), 0);
            require_eq!(restored.cursor(), cut);
            require_eq!(restored.session().epochs(), cut);
            require_eq!(restored.session().engine().quarantine_standings(), lived);
            Ok(())
        },
    );
    assert!(
        mid_sentence.get() > 0,
        "no case cut a session mid-sentence; widen the cut window"
    );
}
