//! Property-based tests for fingerprint databases and scheme plumbing, on
//! the in-repo [`uniloc_rng::check`] harness.

use std::collections::BTreeMap;
use uniloc_env::ApId;
use uniloc_geom::Point;
use uniloc_rng::check::Checker;
use uniloc_rng::{require, require_eq, Rng};
use uniloc_schemes::fingerprint::FingerprintDb;
use uniloc_schemes::LocationEstimate;
use uniloc_schemes::{Oracle, RadioMapBuilder, SchemeId};
use uniloc_sensors::WifiScan;

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/proptests.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

fn gen_scan(rng: &mut Rng) -> WifiScan {
    let n = rng.gen_range(1..8usize);
    let m: BTreeMap<u32, f64> = (0..n)
        .map(|_| (rng.gen_range(0..12u32), rng.gen_range(-90.0..-30.0)))
        .collect();
    WifiScan { readings: m.into_iter().map(|(a, r)| (ApId(a), r)).collect() }
}

fn gen_db(rng: &mut Rng, scale: f64) -> FingerprintDb<WifiScan> {
    let n = 1 + (rng.gen_range(0..39usize) as f64 * scale) as usize;
    FingerprintDb::from_entries((0..n).map(|_| {
        let p = Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..30.0));
        (p, gen_scan(rng))
    }))
}

/// match_scan returns at most k candidates, sorted by ascending RSSI
/// distance.
#[test]
fn match_scan_sorted_and_bounded() {
    checker("match_scan_sorted_and_bounded").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scan = gen_scan(rng);
            let k = rng.gen_range(1..8usize);
            (db, scan, k)
        },
        |(db, scan, k)| {
            let matches = db.match_scan(scan, *k);
            require!(matches.len() <= *k);
            for w in matches.windows(2) {
                require!(w[0].distance <= w[1].distance);
            }
            for m in &matches {
                require!(m.distance.is_finite() && m.distance >= 0.0);
            }
            Ok(())
        },
    );
}

/// Downsampling is idempotent and respects the spacing bound.
#[test]
fn downsample_idempotent() {
    checker("downsample_idempotent").run(
        |rng, scale| (gen_db(rng, scale), rng.gen_range(1.0..1.0 + 19.0 * scale)),
        |(db, spacing)| {
            let once = db.downsampled(*spacing);
            let twice = once.downsampled(*spacing);
            require_eq!(once.len(), twice.len());
            let pts = once.positions();
            for (i, a) in pts.iter().enumerate() {
                for b in pts.iter().skip(i + 1) {
                    require!(a.distance(*b) >= spacing - 1e-9);
                }
            }
            Ok(())
        },
    );
}

/// A scan always best-matches its own fingerprint (distance 0).
#[test]
fn self_match_is_exact() {
    checker("self_match_is_exact").run(
        gen_db,
        |db| {
            for (pos, fp) in db.entries() {
                let matches = db.match_scan(&fp, 1);
                require!(!matches.is_empty());
                require!(
                    matches[0].distance <= 1e-9,
                    "self-distance {}",
                    matches[0].distance
                );
                // The best match is at the fingerprint's own position,
                // unless a duplicate fingerprint exists elsewhere with
                // identical RSSIs (possible but then distance is still 0).
                let _ = pos;
            }
            Ok(())
        },
    );
}

/// local_density, when defined, is positive and no larger than the search
/// diameter.
#[test]
fn local_density_bounds() {
    checker("local_density_bounds").run(
        |rng, scale| {
            (
                gen_db(rng, scale),
                Point::new(rng.gen_range(0.0..60.0), rng.gen_range(0.0..30.0)),
                rng.gen_range(5.0..5.0 + 35.0 * scale),
            )
        },
        |(db, p, radius)| {
            if let Some(d) = db.local_density(*p, *radius) {
                require!(d > 0.0);
                require!(d <= 2.0 * radius + 1e-9);
            }
            Ok(())
        },
    );
}

/// The oracle never reports a larger error than any available estimate.
#[test]
fn oracle_is_a_lower_bound() {
    checker("oracle_is_a_lower_bound").run(
        |rng, scale| {
            let n = rng.gen_range(1..6usize);
            let est: Vec<Option<(f64, f64)>> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        Some((
                            rng.gen_range(-50.0 * scale..50.0 * scale.max(0.01)),
                            rng.gen_range(-50.0 * scale..50.0 * scale.max(0.01)),
                        ))
                    } else {
                        None
                    }
                })
                .collect();
            let truth = Point::new(
                rng.gen_range(-50.0 * scale..50.0 * scale.max(0.01)),
                rng.gen_range(-50.0 * scale..50.0 * scale.max(0.01)),
            );
            (est, truth)
        },
        |(est, truth)| {
            let ids = [
                SchemeId::Gps,
                SchemeId::Wifi,
                SchemeId::Cellular,
                SchemeId::Motion,
                SchemeId::Fusion,
            ];
            let inputs: Vec<(SchemeId, Option<LocationEstimate>)> = est
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    (ids[i], e.map(|(x, y)| LocationEstimate::at(Point::new(x, y))))
                })
                .collect();
            match Oracle::select(&inputs, *truth) {
                Some((_, _, best)) => {
                    for (_, e) in &inputs {
                        if let Some(e) = e {
                            require!(best <= e.position.distance(*truth) + 1e-9);
                        }
                    }
                }
                None => require!(inputs.iter().all(|(_, e)| e.is_none())),
            }
            Ok(())
        },
    );
}

/// Crowdsourced aggregation keeps cell positions inside the convex hull of
/// the contributing observations.
#[test]
fn crowd_cells_inside_observation_bbox() {
    checker("crowd_cells_inside_observation_bbox").run(
        |rng, scale| {
            let n = 1 + (rng.gen_range(0..29usize) as f64 * scale) as usize;
            (0..n)
                .map(|_| {
                    (
                        (rng.gen_range(0.0..50.0), rng.gen_range(0.0..25.0)),
                        gen_scan(rng),
                        rng.gen_range(0.1..1.0),
                    )
                })
                .collect::<Vec<((f64, f64), WifiScan, f64)>>()
        },
        |obs| {
            let mut b = RadioMapBuilder::new(4.0);
            for ((x, y), scan, w) in obs {
                b.observe(Point::new(*x, *y), scan.clone(), *w);
            }
            let db = b.build();
            for (pos, _) in db.entries() {
                require!((0.0..=50.0).contains(&pos.x));
                require!((0.0..=25.0).contains(&pos.y));
            }
            Ok(())
        },
    );
}
