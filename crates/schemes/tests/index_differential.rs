//! Differential equivalence suite: the indexed fingerprint matcher IS the
//! linear scan.
//!
//! The inverted index behind [`FingerprintDb::match_scan`] is a pure
//! accelerator — an RSSI-quantized index over the database's slabs that
//! prunes which entries get scored, never *how* they are scored or
//! ranked. The whole
//! pipeline (golden traces, chaos artifacts, the fleet differential
//! harness) depends on that being exactly true, so this suite drives both
//! paths with adversarial random inputs and asserts bit-level equality,
//! element for element:
//!
//! * random databases × random scans × random `k` × random missing-AP
//!   penalties;
//! * empty scans, scans over a disjoint AP universe, databases with
//!   duplicated survey positions and duplicated fingerprints (distance
//!   ties), `k = 0`, `k > len`;
//! * non-finite RSSIs (NaN, ±inf) in the online scan and in the stored
//!   fingerprints — both paths must rank them identically via `total_cmp`
//!   tie-breaking, not panic;
//! * build determinism: constructing the index twice from the same
//!   entries, or matching twice through the same database (scratch
//!   reuse), yields identical output.
//!
//! The same standard holds for the rest of the index:
//!
//! * the grid-backed `local_density` against the retained
//!   `local_density_linear` — duplicate positions, tied distances, points
//!   on cell and radius boundaries, sparse outdoor spacing, far and
//!   non-finite queries, degenerate radii;
//! * the dense CSR `SpatialGrid::nearest` against the former `HashMap`
//!   grid, kept below as the reference;
//! * `hears_any` against `!match_scan(scan, 1).is_empty()`.
//!
//! Underneath all of it, the slab must round-trip the survey: the
//! reference `match_scan_linear` scores the entries the database rebuilds
//! from its slabs, so those must be the surveyed entries, bit for bit.
//!
//! Equality is asserted on `f64::to_bits`, not `==`: a NaN distance must
//! match a NaN distance, and `-0.0` must not pass for `0.0`.

use std::collections::{BTreeMap, HashMap};
use uniloc_env::{ApId, TowerId};
use uniloc_geom::Point;
use uniloc_rng::check::Checker;
use uniloc_rng::{require, require_eq, Rng};
use uniloc_schemes::fingerprint::{FingerprintDb, FingerprintMatch, RssiLike};
use uniloc_schemes::SpatialGrid;
use uniloc_sensors::{CellScan, WifiScan};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/index_differential.regressions");

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(128).regressions(REGRESSIONS)
}

/// Draws an RSSI that is usually physical but occasionally NaN or ±inf —
/// corrupt readings that slipped past upstream validation must rank
/// identically on both paths, not differently-or-panic.
fn gen_rssi(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..20u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => rng.gen_range(-95.0..-25.0),
    }
}

/// A scan over AP ids `[base, base + universe)`: shifting `base` between
/// the database and the online scan produces partially or fully disjoint
/// AP sets. Sometimes empty.
fn gen_scan(rng: &mut Rng, base: u32, universe: u32) -> WifiScan {
    let n = rng.gen_range(0..8usize);
    let m: BTreeMap<u32, f64> =
        (0..n).map(|_| (base + rng.gen_range(0..universe), gen_rssi(rng))).collect();
    WifiScan { readings: m.into_iter().map(|(a, r)| (ApId(a), r)).collect() }
}

/// Raw database entries: duplicated survey positions, occasional exact
/// fingerprint duplicates (guaranteed distance ties), and the occasional
/// empty scan (dropped at construction).
fn gen_entries(rng: &mut Rng, scale: f64) -> Vec<(Point, WifiScan)> {
    let n = (rng.gen_range(0..60usize) as f64 * scale) as usize;
    let mut entries: Vec<(Point, WifiScan)> = Vec::with_capacity(n);
    for _ in 0..n {
        // A coarse grid of survey positions, so duplicates are common.
        let p = Point::new(
            rng.gen_range(0..8u32) as f64 * 3.0,
            rng.gen_range(0..4u32) as f64 * 3.0,
        );
        if !entries.is_empty() && rng.gen_range(0..6u32) == 0 {
            // Exact duplicate of an earlier fingerprint: a tied distance
            // that must resolve by entry order on both paths.
            let i = rng.gen_range(0..entries.len());
            let scan = entries[i].1.clone();
            entries.push((p, scan));
        } else {
            entries.push((p, gen_scan(rng, 0, 12)));
        }
    }
    entries
}

fn gen_db(rng: &mut Rng, scale: f64) -> FingerprintDb<WifiScan> {
    let db = FingerprintDb::from_entries(gen_entries(rng, scale));
    match rng.gen_range(0..3u32) {
        0 => db,
        1 => db.with_missing_penalty(rng.gen_range(0.0..30.0)),
        _ => db.with_missing_penalty(rng.gen_range(-5.0..5.0)),
    }
}

/// An online scan that overlaps the database's AP universe fully,
/// partially, or not at all.
fn gen_online(rng: &mut Rng) -> WifiScan {
    let base = match rng.gen_range(0..4u32) {
        0 => 100, // fully disjoint AP universe
        1 => 8,   // partial overlap
        _ => 0,   // same universe
    };
    gen_scan(rng, base, 12)
}

/// Element-for-element bit equality, with the index of the first
/// divergence in the error.
fn require_identical(
    indexed: &[FingerprintMatch],
    linear: &[FingerprintMatch],
) -> Result<(), String> {
    require_eq!(indexed.len(), linear.len());
    for (i, (a, b)) in indexed.iter().zip(linear).enumerate() {
        if a.position.x.to_bits() != b.position.x.to_bits()
            || a.position.y.to_bits() != b.position.y.to_bits()
            || a.distance.to_bits() != b.distance.to_bits()
        {
            return Err(format!("first divergence at rank {i}: indexed {a:?} vs linear {b:?}"));
        }
    }
    Ok(())
}

/// The core differential property: for every database, scan, `k` and
/// penalty, the indexed path returns exactly what scoring every entry
/// returns.
#[test]
fn indexed_match_equals_linear_scan() {
    checker("indexed_match_equals_linear_scan").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scan = gen_online(rng);
            let k = rng.gen_range(0..10usize);
            (db, scan, k)
        },
        |(db, scan, k)| {
            require_identical(&db.match_scan(scan, *k), &db.match_scan_linear(scan, *k))
        },
    );
}

/// `match_scan_into` reuses whatever garbage is in the output buffer —
/// stale capacity, stale contents — without it leaking into the result.
#[test]
fn buffer_reuse_never_leaks_stale_matches() {
    checker("buffer_reuse_never_leaks_stale_matches").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scans: Vec<WifiScan> = (0..4).map(|_| gen_online(rng)).collect();
            let k = rng.gen_range(0..10usize);
            (db, scans, k)
        },
        |(db, scans, k)| {
            let mut buf: Vec<FingerprintMatch> = Vec::new();
            for scan in scans {
                db.match_scan_into(scan, *k, &mut buf);
                require_identical(&buf, &db.match_scan_linear(scan, *k))?;
            }
            Ok(())
        },
    );
}

/// Building the database (and with it the signal index) twice from the
/// same entries is deterministic: both copies answer every query with
/// bit-identical output.
#[test]
fn index_build_is_deterministic() {
    checker("index_build_is_deterministic").run(
        |rng, scale| {
            let entries = gen_entries(rng, scale);
            let scans: Vec<WifiScan> = (0..3).map(|_| gen_online(rng)).collect();
            let k = rng.gen_range(1..8usize);
            (entries, scans, k)
        },
        |(entries, scans, k)| {
            let a = FingerprintDb::from_entries(entries.clone());
            let b = FingerprintDb::from_entries(entries.clone());
            require_eq!(a.len(), b.len());
            for scan in scans {
                require_identical(&a.match_scan(scan, *k), &b.match_scan(scan, *k))?;
                // Matching through the same database twice (thread-local
                // scratch reuse) is also stable.
                require_identical(&a.match_scan(scan, *k), &a.match_scan(scan, *k))?;
            }
            Ok(())
        },
    );
}

/// Degenerate inputs: empty database, empty scan, `k = 0`, `k` far beyond
/// the database size. Both paths agree (and agree on emptiness where the
/// contract demands it).
#[test]
fn degenerate_inputs_agree() {
    checker("degenerate_inputs_agree").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scan = gen_online(rng);
            (db, scan)
        },
        |(db, scan)| {
            let empty_scan = WifiScan::default();
            require!(db.match_scan(&empty_scan, 5).is_empty());
            require!(db.match_scan_linear(&empty_scan, 5).is_empty());
            require!(db.match_scan(scan, 0).is_empty());
            require!(db.match_scan_linear(scan, 0).is_empty());
            for k in [1usize, db.len(), db.len() + 7, 1000] {
                require_identical(&db.match_scan(scan, k), &db.match_scan_linear(scan, k))?;
            }
            let empty_db = FingerprintDb::from_entries(Vec::<(Point, WifiScan)>::new());
            require!(empty_db.match_scan(scan, 5).is_empty());
            require!(empty_db.match_scan_linear(scan, 5).is_empty());
            Ok(())
        },
    );
}

/// Tied distances resolve identically: a database of exact-duplicate
/// fingerprints at distinct positions must come back in entry order on
/// both paths, for every `k`.
#[test]
fn tied_distances_resolve_by_entry_order() {
    checker("tied_distances_resolve_by_entry_order").run(
        |rng, scale| {
            let fp = gen_scan(rng, 0, 6);
            let n = 2 + (rng.gen_range(0..20usize) as f64 * scale) as usize;
            let entries: Vec<(Point, WifiScan)> = (0..n)
                .map(|i| (Point::new(i as f64, rng.gen_range(0.0..30.0)), fp.clone()))
                .collect();
            let scan = gen_scan(rng, 0, 6);
            let k = rng.gen_range(1..8usize);
            (entries, scan, k)
        },
        |(entries, scan, k)| {
            let db = FingerprintDb::from_entries(entries.clone());
            require_identical(&db.match_scan(scan, *k), &db.match_scan_linear(scan, *k))
        },
    );
}

/// `hears_any` is exactly "a top-1 match exists", on every database and
/// scan the matcher properties use.
#[test]
fn hears_any_equals_a_nonempty_top1_match() {
    checker("hears_any_equals_a_nonempty_top1_match").run(
        |rng, scale| {
            let db = gen_db(rng, scale);
            let scans: Vec<WifiScan> = (0..4).map(|_| gen_online(rng)).collect();
            (db, scans)
        },
        |(db, scans)| {
            for scan in scans {
                require_eq!(db.hears_any(scan), !db.match_scan(scan, 1).is_empty());
                require_eq!(db.hears_any(scan), !db.match_scan_linear(scan, 1).is_empty());
            }
            Ok(())
        },
    );
}

/// The same draws as [`gen_entries`], heard from cell towers instead.
fn gen_cell_entries(rng: &mut Rng, scale: f64) -> Vec<(Point, CellScan)> {
    gen_entries(rng, scale)
        .into_iter()
        .map(|(p, s)| {
            let readings = s.readings.iter().map(|&(ApId(a), r)| (TowerId(a), r)).collect();
            (p, CellScan { readings })
        })
        .collect()
}

/// A point as bit patterns, so a NaN matches a NaN and `-0.0` does not
/// pass for `0.0`.
fn point_bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

/// Entries as bit patterns (see [`point_bits`]).
#[allow(clippy::type_complexity)]
fn entry_bits<S: RssiLike>(
    entries: impl IntoIterator<Item = (Point, S)>,
) -> Vec<((u64, u64), Vec<(S::Id, u64)>)> {
    entries
        .into_iter()
        .map(|(p, s)| {
            let readings = s.readings().iter().map(|&(id, r)| (id, r.to_bits())).collect();
            (point_bits(p), readings)
        })
        .collect()
}

/// `from_entries(es).entries()` is exactly the non-empty entries of `es`,
/// in order, bit for bit; `positions()` is their positions.
fn require_round_trip<S: RssiLike + Clone>(entries: &[(Point, S)]) -> Result<(), String> {
    let db = FingerprintDb::from_entries(entries.to_vec());
    let kept: Vec<(Point, S)> =
        entries.iter().filter(|(_, s)| !s.readings().is_empty()).cloned().collect();
    require_eq!(
        db.positions().iter().map(|&p| point_bits(p)).collect::<Vec<_>>(),
        kept.iter().map(|&(p, _)| point_bits(p)).collect::<Vec<_>>()
    );
    require_eq!(entry_bits(db.entries()), entry_bits(kept));
    Ok(())
}

/// The slab round-trips the survey for WiFi and cellular databases alike:
/// NaN and ±inf RSSIs, duplicate positions and duplicate fingerprints
/// come back unchanged and in survey order, and empty scans are dropped.
#[test]
fn slab_round_trips_the_survey() {
    checker("slab_round_trips_the_survey").run(
        |rng, scale| (gen_entries(rng, scale), gen_cell_entries(rng, scale)),
        |(wifi, cell)| {
            require_round_trip(wifi)?;
            require_round_trip(cell)
        },
    );
}

/// A database whose every fingerprint hears one AP: density depends only
/// on the survey positions.
fn db_at(positions: &[Point]) -> FingerprintDb<WifiScan> {
    FingerprintDb::from_entries(
        positions.iter().map(|&p| (p, WifiScan { readings: vec![(ApId(0), -50.0)] })),
    )
}

/// Survey positions in one of several layouts: a jittered indoor grid, a
/// lattice on exact cell boundaries (multiples of 5 m) with duplicates,
/// sparse outdoor spacing, a ring at exactly the query radius, or a grid
/// far from the origin.
fn gen_positions(rng: &mut Rng, scale: f64) -> Vec<Point> {
    let n = 2 + (rng.gen_range(0..160usize) as f64 * scale) as usize;
    match rng.gen_range(0..5u32) {
        0 => (0..n)
            .map(|_| {
                Point::new(
                    rng.gen_range(0..30u32) as f64 * 1.5 + rng.gen_range(-0.3..0.3),
                    rng.gen_range(0..12u32) as f64 * 1.5 + rng.gen_range(-0.3..0.3),
                )
            })
            .collect(),
        1 => (0..n)
            .map(|_| {
                let (i, j) = (rng.gen_range(0..12u32), rng.gen_range(0..6u32));
                Point::new(i as f64 * 5.0, j as f64 * 2.5)
            })
            .collect(),
        2 => (0..n)
            .map(|_| {
                let (i, j) = (rng.gen_range(0..40u32), rng.gen_range(0..8u32));
                Point::new(i as f64 * 12.0, j as f64 * 12.0)
            })
            .collect(),
        3 => {
            // Pythagorean offsets land exactly on the radius 20 around
            // (25, 25) — or a hair inside or outside it, where only the
            // reference `hypot` predicate decides — plus the center and
            // its duplicates.
            let ring = [
                (20.0, 0.0),
                (0.0, 20.0),
                (-20.0, 0.0),
                (0.0, -20.0),
                (12.0, 16.0),
                (-16.0, 12.0),
                (16.0, -12.0),
            ];
            let scale = [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-15];
            (0..n)
                .map(|i| match i % 9 {
                    k @ 0..=6 => {
                        let f = scale[(i / 9) % scale.len()];
                        Point::new(25.0 + ring[k].0 * f, 25.0 + ring[k].1 * f)
                    }
                    _ => Point::new(25.0, 25.0),
                })
                .collect()
        }
        _ => (0..n)
            .map(|_| {
                Point::new(
                    1.0e6 + rng.gen_range(0.0..60.0),
                    -2.5e5 + rng.gen_range(0.0..30.0),
                )
            })
            .collect(),
    }
}

/// A density query: usually near a survey position, sometimes on a cell
/// corner, far away or non-finite.
fn gen_query(rng: &mut Rng, positions: &[Point]) -> Point {
    match rng.gen_range(0..10u32) {
        0 => Point::new(f64::NAN, 3.0),
        1 => Point::new(f64::INFINITY, f64::NEG_INFINITY),
        2 => Point::new(1e308, -1e308),
        3 => {
            let (i, j) = (rng.gen_range(-20..20i64), rng.gen_range(-20..20i64));
            Point::new(i as f64 * 5.0, j as f64 * 5.0)
        }
        4 => Point::new(25.0, 25.0),
        _ => {
            let q = positions[rng.gen_range(0..positions.len())];
            Point::new(q.x + rng.gen_range(-8.0..8.0), q.y + rng.gen_range(-8.0..8.0))
        }
    }
}

fn gen_radius(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..12u32) {
        0 => 0.0,
        1 => -1.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => rng.gen_range(0.0..60.0),
        _ => 20.0,
    }
}

/// The grid-backed density is bit-identical to the linear reference.
#[test]
fn grid_density_equals_linear_reference() {
    checker("grid_density_equals_linear_reference").run(
        |rng, scale| {
            let positions = gen_positions(rng, scale);
            let queries: Vec<(Point, f64)> =
                (0..6).map(|_| (gen_query(rng, &positions), gen_radius(rng))).collect();
            (positions, queries)
        },
        |(positions, queries)| {
            let db = db_at(positions);
            for &(p, r) in queries {
                let grid = db.local_density(p, r).map(f64::to_bits);
                let linear = db.local_density_linear(p, r).map(f64::to_bits);
                if grid != linear {
                    return Err(format!(
                        "query {p:?} radius {r}: grid {grid:?} vs linear {linear:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Degenerate survey coordinates (huge or non-finite) force the
/// single-bucket grid and the linear density path; both stay exact.
#[test]
fn degenerate_surveys_keep_density_exact() {
    checker("degenerate_surveys_keep_density_exact").run(
        |rng, scale| {
            let mut positions = gen_positions(rng, scale);
            let bad = [
                Point::new(1e300, 0.0),
                Point::new(f64::NAN, 1.0),
                Point::new(3.0, f64::INFINITY),
            ];
            positions.push(bad[rng.gen_range(0..bad.len())]);
            let queries: Vec<(Point, f64)> =
                (0..4).map(|_| (gen_query(rng, &positions), gen_radius(rng))).collect();
            (positions, queries)
        },
        |(positions, queries)| {
            let db = db_at(positions);
            for &(p, r) in queries {
                require_eq!(
                    db.local_density(p, r).map(f64::to_bits),
                    db.local_density_linear(p, r).map(f64::to_bits)
                );
            }
            Ok(())
        },
    );
}

/// The pre-CSR spatial grid, verbatim apart from borrowing its positions:
/// a SipHash map from cell key to the entry indices in insertion order.
struct HashGrid {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<usize>>,
}

impl HashGrid {
    fn build(positions: &[Point], cell: f64) -> Self {
        let mut buckets: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in positions.iter().enumerate() {
            buckets
                .entry(((p.x / cell).floor() as i64, (p.y / cell).floor() as i64))
                .or_default()
                .push(i);
        }
        HashGrid { cell, buckets }
    }

    fn nearest(&self, positions: &[Point], p: Point) -> Option<usize> {
        let cx = (p.x / self.cell).floor() as i64;
        let cy = (p.y / self.cell).floor() as i64;
        let mut best: Option<(usize, f64)> = None;
        for ring in 0..=3i64 {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    if dx.abs() != ring && dy.abs() != ring {
                        continue; // only the ring boundary
                    }
                    if let Some(ids) = self.buckets.get(&(cx + dx, cy + dy)) {
                        for &i in ids {
                            let d = positions[i].distance_sq(p);
                            if best.is_none_or(|(_, bd)| d < bd) {
                                best = Some((i, d));
                            }
                        }
                    }
                }
            }
            if let Some((_, d)) = best {
                if d.sqrt() < (ring as f64) * self.cell {
                    break;
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

/// The dense CSR grid returns the same index as the `HashMap` grid for
/// every query: same rings, same visiting order, same strict `<` ties.
#[test]
fn dense_grid_nearest_equals_hashmap_reference() {
    checker("dense_grid_nearest_equals_hashmap_reference").run(
        |rng, scale| {
            let mut positions = gen_positions(rng, scale);
            // Queries stay finite and moderate: the reference's `cx + dx`
            // overflows on keys near `i64::MAX`.
            let anchors = positions.clone();
            if rng.gen_range(0..8u32) == 0 {
                positions.push(Point::new(1e300, f64::NAN));
            }
            let cell = [5.0, 1.0, 2.5, 7.3][rng.gen_range(0..4usize)];
            let queries: Vec<Point> = (0..24)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => Point::new(f64::NAN, rng.gen_range(-10.0..10.0)),
                    1 => Point::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6)),
                    2 => {
                        let (i, j) = (rng.gen_range(-4..20i64), rng.gen_range(-4..20i64));
                        Point::new(i as f64 * cell, j as f64 * cell)
                    }
                    _ => {
                        let q = anchors[rng.gen_range(0..anchors.len())];
                        let (dx, dy) = (rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
                        Point::new(q.x + dx, q.y + dy)
                    }
                })
                .collect();
            (positions, cell, queries)
        },
        |(positions, cell, queries)| {
            let dense = SpatialGrid::build(positions, *cell);
            let reference = HashGrid::build(positions, *cell);
            for &q in queries {
                require_eq!(dense.nearest(positions, q), reference.nearest(positions, q));
            }
            Ok(())
        },
    );
}
