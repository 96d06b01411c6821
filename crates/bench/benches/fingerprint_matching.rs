//! Micro-benchmark (microbench harness): RADAR-style fingerprint matching — the
//! dominant cost of the WiFi/cellular schemes (Table V's per-scheme server
//! compute).
//!
//! Two families of cases:
//!
//! * synthetic databases where every fingerprint hears the same 8 APs, so
//!   the inverted index prunes nothing and the match times the linear case;
//! * surveyed venue contexts (the `office` and `mall` scenarios, surveyed
//!   as the pipeline surveys them) walked with real online scans: the
//!   top-3 match (indexed and the retained linear reference), the density
//!   feature (grid-backed and linear) and one fusion-scheme epoch.

use std::sync::Arc;

use uniloc_bench::chaos::scenario_by_name;
use uniloc_bench::microbench::{black_box, BenchmarkId, Criterion};
use uniloc_bench::{criterion_group, criterion_main};
use uniloc_core::features::DENSITY_RADIUS_M;
use uniloc_core::pipeline::{build_context, walk_frames, PipelineConfig};
use uniloc_env::ApId;
use uniloc_geom::Point;
use uniloc_schemes::fingerprint::FingerprintDb;
use uniloc_schemes::{FusionScheme, LocalizationScheme};
use uniloc_sensors::WifiScan;

/// A synthetic database of `n` fingerprints with ~8 APs each.
fn db_of(n: usize) -> FingerprintDb<WifiScan> {
    FingerprintDb::from_entries((0..n).map(|i| {
        let p = Point::new((i % 60) as f64 * 1.5, (i / 60) as f64 * 1.5);
        let readings = (0..8)
            .map(|a| {
                (
                    ApId(a),
                    -40.0 - ((i * (a as usize + 3)) % 50) as f64,
                )
            })
            .collect();
        (p, WifiScan { readings })
    }))
}

fn bench_matching(c: &mut Criterion) {
    let scan = WifiScan {
        readings: (0..8).map(|a| (ApId(a), -55.0 - a as f64 * 3.0)).collect(),
    };
    let mut group = c.benchmark_group("fingerprint_match");
    for n in [300usize, 1_000, 3_000] {
        let db = db_of(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| db.match_scan(black_box(&scan), 3))
        });
    }
    group.finish();

    // The density feature lookup (beta_1).
    let db = db_of(1_000);
    c.bench_function("local_density_1000fp", |b| {
        b.iter(|| db.local_density(black_box(Point::new(30.0, 10.0)), 20.0))
    });
}

/// Cycles through `items`, one per call.
fn cycle<'a, T>(items: &'a [T]) -> impl FnMut() -> &'a T {
    let mut i = 0;
    move || {
        let item = &items[i % items.len()];
        i += 1;
        item
    }
}

fn bench_venues(c: &mut Criterion) {
    let cfg = PipelineConfig::default();
    for venue in ["office", "mall"] {
        let scenario = scenario_by_name(venue, 3).expect("known venue");
        let ctx = build_context(&scenario, &cfg, 5);
        let frames = walk_frames(&scenario, &cfg, 7);
        let scans: Vec<WifiScan> = frames.iter().filter_map(|f| f.wifi.clone()).collect();
        let spots: Vec<Point> = frames.iter().map(|f| f.true_position).collect();
        let db = &ctx.wifi_db;

        let mut next = cycle(&scans);
        c.bench_function(&format!("venue/{venue}/match_scan"), |b| {
            b.iter(|| db.match_scan(black_box(next()), 3))
        });
        let mut next = cycle(&scans);
        c.bench_function(&format!("venue/{venue}/match_scan_linear"), |b| {
            b.iter(|| db.match_scan_linear(black_box(next()), 3))
        });
        let mut next = cycle(&spots);
        c.bench_function(&format!("venue/{venue}/local_density"), |b| {
            b.iter(|| db.local_density(black_box(*next()), DENSITY_RADIUS_M))
        });
        let mut next = cycle(&spots);
        c.bench_function(&format!("venue/{venue}/local_density_linear"), |b| {
            b.iter(|| db.local_density_linear(black_box(*next()), DENSITY_RADIUS_M))
        });

        // One fusion epoch: PDR steps plus the RSSI reweight of 300
        // particles. The walk restarts (scheme reset) when it runs out.
        let mut fusion = FusionScheme::new(
            ctx.plan.clone(),
            scenario.route.start(),
            cfg.pdr,
            Arc::clone(&ctx.wifi_db),
            11,
        );
        let mut i = 0;
        c.bench_function(&format!("venue/{venue}/fusion_update"), |b| {
            b.iter(|| {
                if i == frames.len() {
                    fusion.reset();
                    i = 0;
                }
                i += 1;
                fusion.update(black_box(&frames[i - 1]))
            })
        });
    }
}

criterion_group!(benches, bench_matching, bench_venues);
criterion_main!(benches);
