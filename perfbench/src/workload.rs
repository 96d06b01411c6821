//! The three named workloads and their one-time set-up.
//!
//! A workload is a pure function of its name and the seed passed on the
//! command line: the seed is the fleet seed, and every lane's seed is
//! split from it. The error models are trained from the fixed
//! [`MODEL_SEED`]. Nothing else varies between runs.

use std::sync::Arc;
use std::time::Instant;

use uniloc_bench::fleet::{fleet_specs, FleetConfig, SessionSpec};
use uniloc_core::error_model::ErrorModelSet;
use uniloc_stats::json::ToJson;

/// Worker threads for the end-to-end runs (the machine's core count).
pub const JOBS: usize = 2;

/// Seed of the error models every workload serves with: the deployed
/// models are one fixed artifact, whatever the fleet.
pub const MODEL_SEED: u64 = 1;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["churn", "campus", "crowd-chaos"];

/// The fleet a workload serves, at `jobs` workers.
///
/// # Errors
///
/// Names an unknown workload.
pub fn fleet_config(name: &str, seed: u64, jobs: usize) -> Result<FleetConfig, String> {
    let scenarios = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    let base = FleetConfig {
        seed,
        sessions: 0,
        scenario_names: Vec::new(),
        jobs,
        resident: 64,
        max_epochs: 0,
        chaos_every: 0,
        obs_stub: false,
        shards: 0,
        top_k: 0,
        panic_lane: None,
        panic_epoch: 0,
    };
    match name {
        // Many phones opening the app for a quick fix: short sessions, so
        // session construction dominates serve time.
        "churn" => Ok(FleetConfig {
            sessions: 512,
            scenario_names: scenarios(&["office", "open-space", "mall"]),
            max_epochs: 8,
            ..base
        }),
        // The paper's eight daily paths plus the mall, each walked in full
        // by two walkers: the per-epoch localization path dominates.
        "campus" => Ok(FleetConfig {
            sessions: 18,
            scenario_names: scenarios(&[
                "path1", "path2", "path3", "path4", "path5", "path6", "path7", "path8", "mall",
            ]),
            ..base
        }),
        // The default fleet mix with every second lane under a smoke fault
        // plan and a high resident cap: corrupted input, large working set.
        "crowd-chaos" => Ok(FleetConfig {
            sessions: 512,
            scenario_names: scenarios(&["office", "open-space"]),
            resident: 256,
            max_epochs: 40,
            chaos_every: 2,
            ..base
        }),
        other => Err(format!(
            "unknown workload `{other}` (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// What set-up hands the serving runs.
pub struct Setup {
    pub models: Arc<ErrorModelSet>,
    pub specs: Vec<SessionSpec>,
    /// Wall time of this set-up, in seconds.
    pub seconds: f64,
}

/// Everything that happens before the first round: error-model training
/// and spec generation.
///
/// # Errors
///
/// Propagates spec-generation errors.
pub fn setup(cfg: &FleetConfig) -> Result<Setup, String> {
    let t0 = Instant::now();
    let models = Arc::new(uniloc_bench::trained_models(MODEL_SEED));
    let specs = fleet_specs(cfg)?;
    Ok(Setup {
        models,
        specs,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// A digest of trained models, to prove repeated set-ups agree.
pub fn models_digest(models: &ErrorModelSet) -> u64 {
    uniloc_bench::fleet::fnv1a64(models.to_json().canonical().to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_bench::fleet::run_fleet;
    use uniloc_core::pipeline::PipelineConfig;

    #[test]
    fn every_workload_name_resolves() {
        for name in NAMES {
            let cfg = fleet_config(name, 3, JOBS).unwrap();
            assert_eq!(fleet_specs(&cfg).unwrap().len(), cfg.sessions, "{name}");
        }
        assert!(fleet_config("nope", 3, JOBS).is_err());
    }

    /// Same name and seed: the same spec mix. Another seed: other lane
    /// seeds, the same shape.
    #[test]
    fn same_name_and_seed_give_the_same_spec_mix() {
        for name in NAMES {
            let a = fleet_specs(&fleet_config(name, 11, JOBS).unwrap()).unwrap();
            let b = fleet_specs(&fleet_config(name, 11, JOBS).unwrap()).unwrap();
            let c = fleet_specs(&fleet_config(name, 12, JOBS).unwrap()).unwrap();
            assert_eq!(a, b, "{name}");
            assert_ne!(a, c, "{name}");
            for (x, y) in a.iter().zip(&c) {
                assert_eq!((&x.scenario, &x.plan), (&y.scenario, &y.plan), "{name}");
            }
        }
    }

    /// Same name and seed: the same fleet digest, at either worker count.
    #[test]
    fn same_name_and_seed_give_the_same_fleet_digest() {
        let digest = |name: &str, jobs: usize| {
            let cfg = fleet_config(name, 5, jobs).unwrap();
            let s = setup(&cfg).unwrap();
            let r = run_fleet(&s.models, &PipelineConfig::default(), &cfg).unwrap();
            assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
            r.report
                .get("fleet_digest")
                .and_then(|d| d.as_str())
                .unwrap()
                .to_owned()
        };
        for name in ["churn", "campus"] {
            assert_eq!(digest(name, JOBS), digest(name, 1), "{name}");
        }
    }
}
