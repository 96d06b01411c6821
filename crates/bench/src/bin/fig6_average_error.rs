//! Fig. 6 — average localization error of every system along the daily
//! path.
//!
//! Paper numbers: fusion is the best individual scheme at 4.0 m, the
//! oracle reaches 3.7 m, and UniLoc2 reaches 2.6 m — reducing the fusion
//! scheme's error by ~1.7x and beating the oracle.
//!
//! Run with: `cargo run --release -p uniloc-bench --bin fig6_average_error`

use std::sync::Arc;

use uniloc_bench::{fmt_opt, mean_defined, print_table, system_errors, trained_models, SYSTEM_LABELS};
use uniloc_core::pipeline::PipelineConfig;
use uniloc_env::campus;

fn main() {
    uniloc_bench::init_obs();
    let cfg = PipelineConfig::default();
    let models = Arc::new(trained_models(1));
    let scenario = Arc::new(campus::daily_path(3));

    // Average over several walks (different walkers/noise) for stability;
    // the walks fan out on UNILOC_JOBS workers in seed order.
    let walks: Vec<_> =
        (0..5u64).map(|run| (Arc::clone(&scenario), cfg.clone(), 12 + run * 31)).collect();
    let mut all_means: Vec<Vec<f64>> = vec![Vec::new(); SYSTEM_LABELS.len()];
    let jobs = uniloc_bench::jobs_from_env();
    for records in uniloc_bench::run_walks_parallel(walks, &models, jobs) {
        for (i, label) in SYSTEM_LABELS.iter().enumerate() {
            if let Some(m) = mean_defined(&system_errors(&records, label)) {
                all_means[i].push(m);
            }
        }
    }

    let rows: Vec<Vec<String>> = SYSTEM_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| {
            let v = &all_means[i];
            let mean = if v.is_empty() {
                None
            } else {
                Some(v.iter().sum::<f64>() / v.len() as f64)
            };
            vec![(*label).to_owned(), fmt_opt(mean, 2)]
        })
        .collect();
    print_table("Fig. 6 — average error on the daily path (5 walks)", &["system", "mean (m)"], &rows);

    let get = |label: &str| {
        let i = SYSTEM_LABELS.iter().position(|l| *l == label).unwrap();
        let v = &all_means[i];
        if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 }
    };
    let fusion = get("fusion");
    let uniloc2 = get("uniloc2");
    let oracle = get("oracle");
    let uniloc1 = get("uniloc1");
    println!("\npaper: fusion 4.0 m, oracle/uniloc1 3.7 m, uniloc2 2.6 m");
    println!(
        "ours:  fusion {:.1} m, oracle {:.1} m, uniloc1 {:.1} m, uniloc2 {:.1} m",
        fusion, oracle, uniloc1, uniloc2
    );
    println!(
        "uniloc2 vs fusion: {:.2}x   uniloc2 vs uniloc1: {:.2}x",
        fusion / uniloc2,
        uniloc1 / uniloc2
    );
    uniloc_bench::finish("fig6_average_error");
}
