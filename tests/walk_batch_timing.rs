//! Walk batches report real stage latencies: each batch walker times its
//! spans on the process clock, so the span histograms the batch absorbs
//! into the process registry hold wall-clock durations. (A walker's own
//! virtual clock follows simulation time, which stands still inside an
//! epoch, so every span on it would last 0 ns.)
//!
//! This is its own test binary because it reads the process registry:
//! walks run by concurrent tests on a thread with no observability
//! session installed would time their spans into the same histograms.

use std::sync::Arc;

use uniloc::core::error_model::ErrorModelSet;
use uniloc::core::pipeline::PipelineConfig;
use uniloc::env::venues;
use uniloc_bench::run_walks_parallel;

fn engine_update_ns() -> f64 {
    uniloc::obs::process_metrics()
        .snapshot()
        .histograms
        .iter()
        .find(|(name, _)| name == "span.engine.update")
        .map_or(0.0, |(_, h)| h.sum)
}

#[test]
fn walk_batch_absorbs_wall_clock_span_timings() {
    let models = Arc::new(ErrorModelSet::default());
    let scenario = Arc::new(venues::office("timing-office", 3, 30.0, 12.0));
    let walks = vec![(scenario, PipelineConfig::default(), 105)];
    let before = engine_update_ns();
    let records = run_walks_parallel(walks, &models, 1);
    assert!(!records[0].is_empty());
    let grown = engine_update_ns() - before;
    assert!(grown > 0.0, "engine.update spans absorbed {grown} ns over a whole walk");
}
