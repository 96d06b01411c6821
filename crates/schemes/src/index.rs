//! The fingerprint database's storage and its candidate indexes.
//!
//! A [`FingerprintDb`] stores every fingerprint once, as flat slabs: the
//! survey positions, one reading-range offset per fingerprint, and all
//! readings back to back as the scans' own `(id, RSSI)` pairs. Two
//! indexes are built over those slabs at construction:
//!
//! * an RSSI-quantized inverted index keyed by `(AP/tower id, coarse RSSI
//!   bucket)`, whose postings are fingerprint indices into the slabs. It
//!   accelerates [`FingerprintDb::match_scan`] by pruning to candidate
//!   fingerprints before the exact `total_cmp` ranking, and is a **pure
//!   accelerator**: for every input it returns exactly the matches
//!   (positions, distances, order, ties, NaN handling) the linear scan
//!   returns — see the fallback rule below and
//!   `tests/index_differential.rs`, which proves the equivalence
//!   property-by-property. Every candidate is scored by the one RADAR
//!   merge, [`merge_distance`], with the scan on the left and the
//!   fingerprint's slab slice on the right.
//! * [`SpatialGrid`] — a dense CSR grid (cell offsets plus entry
//!   indices) over the position slab, borrowing it for every query. It
//!   answers the fusion scheme's per-particle nearest-fingerprint lookup
//!   with the historical expanding-ring semantics, and gathers the
//!   density feature's neighborhood without scanning the whole survey.
//!
//! Construction from a survey, the `(position, scan)` view and the
//! retained linear reference are in the `fingerprint` module.
//!
//! # Why the indexed match is provably identical
//!
//! The RADAR distance between a scan and a fingerprint with `c ≥ 1`
//! common ids, squared gaps `Δ²` and `m` one-sided ids under penalty `P`
//! is `d = sqrt((ΣΔ² + m·P²) / (c + m))`. Each fingerprint reading is
//! indexed under `(id, floor(rssi / B))` with `B =` [`RSSI_BUCKET_DB`].
//! The fast path gathers, for every scan reading, the postings of its
//! bucket and the two adjacent buckets. A fingerprint *not* gathered
//! shares no id with the scan (distance `None`, excluded by the linear
//! scan too) or pairs every common id at a bucket gap ≥ 2, which forces
//! `|Δ| > B·(1 − δ)` for floating-point rounding `δ` on the order of
//! 1e-13; combined with the `P²` charge on one-sided ids this bounds its
//! distance strictly above `min(B·(1 − δ), |P|)`. So whenever the
//! gathered candidates already contain `k` matches with
//! `out[k-1].distance <= ACCEPT_MARGIN * min(B, P)` — and
//! `ACCEPT_MARGIN < 1 − δ` — no ungathered fingerprint can displace or
//! tie any of them, and the pruned result is byte-identical to the full
//! scan. In every other case — acceptance unmet, non-finite RSSIs in the
//! slab or the scan, non-finite penalty — the match falls back to the
//! exact shared-id candidate set: the union of *all* bucket postings for
//! the scan's ids, which is precisely the set of fingerprints the linear
//! scan could score. The fallback only scores the fingerprints the fast
//! path did not already score (they keep their visit stamp), then ranks
//! the union.
//!
//! Ranking reproduces the reference's *stable* `total_cmp` sort without
//! a stable sort: candidates are scored as `(entry index, distance)`
//! pairs and ordered by `(total_cmp(distance), entry index)`. That
//! comparator is a total order with no duplicate keys (entry indices are
//! unique), so it has exactly one sorted permutation — the one the
//! stable sort produces. Only the top `k` are needed, so a
//! `select_nth_unstable_by` partition followed by a sort of the first
//! `k` yields the same prefix in place (the stable sort allocates a merge
//! buffer every call).
//!
//! Per-call scratch (candidate lists, stamp array, score buffer, density
//! neighborhood) lives in a thread-local pool so the steady-state epoch
//! loop performs no heap allocation here. Growing the pool is one-time,
//! amortized warmup, and which epoch it lands on depends on thread
//! scheduling and process history (a resumed fleet replays on cold
//! pools), so — like the observatory's own span bookkeeping — pool
//! growth runs under [`uniloc_obs::alloc::pause`] and is never
//! attributed to the epoch that happened to trigger it. The per-epoch
//! meter thus reads the same on any thread layout, which the fleet's
//! jobs-invariance and crash-resume differential suites require.

use std::cell::RefCell;
use std::cmp::Ordering;

use crate::fingerprint::{FingerprintMatch, RssiLike};
use uniloc_geom::Point;
use uniloc_sensors::merge_distance;

/// Coarse RSSI quantization width (dB) for the inverted-index bucket key.
/// Matched to the default missing-AP penalty: candidate pruning can only
/// skip fingerprints whose every shared AP is further than one bucket.
pub const RSSI_BUCKET_DB: f64 = 12.0;

/// Side (m) of the square cells of every database's [`SpatialGrid`].
const GRID_CELL_M: f64 = 5.0;

/// Safety margin on the fast-path acceptance bound: strictly below
/// `1 − δ` for any floating-point rounding `δ` the bucket arithmetic can
/// introduce, so acceptance is conservative and never admits a pruned
/// result the full scan would rank differently.
const ACCEPT_MARGIN: f64 = 0.99;

/// Fingerprints closest to the query whose nearest-neighbor spacing the
/// density estimate averages.
const DENSITY_PROBES: usize = 40;

/// Bucket of one RSSI reading. Non-finite readings saturate (`NaN → 0`);
/// the fast path never relies on their buckets — it is disabled for
/// non-finite data — while the shared-id fallback only needs every
/// reading to land under *some* key for its id.
fn bucket(rssi: f64) -> i64 {
    (rssi / RSSI_BUCKET_DB).floor() as i64
}

/// The `(total_cmp(distance), entry index)` total order every ranking
/// here uses: unique keys, so any sort under it is the stable sort.
fn by_distance_then_entry(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Puts the `k` smallest elements (`k ≥ 1`) of `scored` first, in
/// ascending order. The tail is left in unspecified order.
fn rank_top(scored: &mut [(u32, f64)], k: usize) {
    if scored.len() > k {
        scored.select_nth_unstable_by(k - 1, by_distance_then_entry);
        scored[..k].sort_unstable_by(by_distance_then_entry);
    } else {
        scored.sort_unstable_by(by_distance_then_entry);
    }
}

thread_local! {
    static SCRATCH: RefCell<MatchScratch> = const {
        RefCell::new(MatchScratch {
            stamps: Vec::new(),
            generation: 0,
            candidates: Vec::new(),
            scored: Vec::new(),
            density_buf: Vec::new(),
        })
    };
}

/// Reusable per-thread buffers for [`FingerprintDb::match_scan_into`] and
/// [`FingerprintDb::local_density`]: capacity grows under the alloc-meter
/// pause (see the module docs), after which every call is allocation-free.
struct MatchScratch {
    /// Per-entry visit stamps (generation counter) for O(1) candidate
    /// dedup without clearing between calls.
    stamps: Vec<u32>,
    generation: u32,
    /// Gathered candidate entry indices.
    candidates: Vec<u32>,
    /// Scored candidates as `(entry index, distance)` pairs.
    scored: Vec<(u32, f64)>,
    /// `(entry index, squared distance to the query)` neighborhood for
    /// the density estimate.
    density_buf: Vec<(u32, f64)>,
}

impl MatchScratch {
    /// Grows every match buffer to hold a database of `n` entries,
    /// unattributed (amortized pool warmup).
    fn reserve_for_match(&mut self, n: usize) {
        let _pause = uniloc_obs::alloc::pause();
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.candidates.clear();
        self.candidates.reserve(n);
        self.scored.clear();
        self.scored.reserve(n);
    }

    /// Starts a fresh candidate generation (stamps already sized).
    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
        self.generation
    }
}

/// An offline fingerprint database over scans of type `S`.
///
/// The fingerprints live once, in flat slabs; construction also builds
/// the RSSI-quantized inverted index and the spatial grid over them, so
/// every online [`match_scan`](Self::match_scan) prunes candidates
/// instead of scoring the whole survey — with output proven identical to
/// the linear scan (see the module docs and
/// `tests/index_differential.rs`). Its construction from a survey, its
/// `(position, scan)` view and the linear reference are in the
/// `fingerprint` module.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintDb<S: RssiLike> {
    /// Survey position of each fingerprint, in survey order.
    positions: Vec<Point>,
    /// Reading-range offsets into `readings`: fingerprint `e` holds
    /// `readings[offsets[e]..offsets[e + 1]]`.
    offsets: Vec<u32>,
    /// Every fingerprint's readings back to back, each in its scan's
    /// ascending id order.
    readings: Vec<(S::Id, f64)>,
    /// Sorted `(id, RSSI bucket)` keys of the inverted index.
    keys: Vec<(S::Id, i64)>,
    /// Posting-range offsets per key (`keys.len() + 1` entries).
    post_offsets: Vec<u32>,
    /// Fingerprint indices per key, ascending.
    postings: Vec<u32>,
    /// Dense spatial grid over `positions`.
    grid: SpatialGrid,
    /// Whether every stored RSSI is finite (fast-path precondition).
    finite: bool,
    /// Penalty (dB) per AP audible in only one of the compared scans.
    missing_penalty: f64,
}

impl<S: RssiLike> FingerprintDb<S> {
    /// Builds a database from `(position, readings)` entries, taking each
    /// entry's readings through `readings_of`: flattens them into the
    /// slabs, then indexes the slabs. Deterministic: the same entries
    /// always produce the same database bytes.
    pub(crate) fn from_parts<R>(
        entries: impl IntoIterator<Item = (Point, R)>,
        readings_of: impl Fn(&R) -> &[(S::Id, f64)],
        missing_penalty: f64,
    ) -> Self {
        let mut positions = Vec::new();
        let mut offsets = vec![0u32];
        let mut readings = Vec::new();
        let mut finite = true;
        let mut tagged: Vec<((S::Id, i64), u32)> = Vec::new();
        for (p, entry) in entries {
            let e = positions.len() as u32;
            positions.push(p);
            for &(id, r) in readings_of(&entry) {
                readings.push((id, r));
                finite &= r.is_finite();
                tagged.push(((id, bucket(r)), e));
            }
            offsets.push(readings.len() as u32);
        }
        assert!(positions.len() < u32::MAX as usize, "fingerprint database too large");
        tagged.sort_unstable();
        tagged.dedup();
        let mut keys = Vec::new();
        let mut post_offsets = Vec::new();
        let mut postings = Vec::with_capacity(tagged.len());
        for (key, e) in tagged {
            if keys.last() != Some(&key) {
                keys.push(key);
                post_offsets.push(postings.len() as u32);
            }
            postings.push(e);
        }
        post_offsets.push(postings.len() as u32);
        let grid = SpatialGrid::build(&positions, GRID_CELL_M);
        FingerprintDb {
            positions,
            offsets,
            readings,
            keys,
            post_offsets,
            postings,
            grid,
            finite,
            missing_penalty,
        }
    }

    /// Overrides the missing-AP penalty.
    pub fn with_missing_penalty(mut self, penalty: f64) -> Self {
        self.missing_penalty = penalty;
        self
    }

    /// Number of usable fingerprints.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the survey produced no usable fingerprints.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Survey positions of all fingerprints, in survey order.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The missing-AP penalty (dB) of this database's RSSI distance.
    pub(crate) fn missing_penalty(&self) -> f64 {
        self.missing_penalty
    }

    /// The readings of fingerprint `e`: its slice of the reading slab.
    pub(crate) fn entry_readings(&self, e: usize) -> &[(S::Id, f64)] {
        &self.readings[self.offsets[e] as usize..self.offsets[e + 1] as usize]
    }

    /// Index of the fingerprint position nearest to `p` under the grid's
    /// ring-search semantics (see [`SpatialGrid::nearest`]).
    pub(crate) fn nearest(&self, p: Point) -> Option<usize> {
        self.grid.nearest(&self.positions, p)
    }

    /// Whether any fingerprint hears at least one of the scan's APs —
    /// exactly `!match_scan(scan, 1).is_empty()`, decided from the
    /// inverted index's keys without scoring anything.
    pub fn hears_any(&self, scan: &S) -> bool {
        scan.readings().iter().any(|&(id, _)| {
            let at = self.keys.partition_point(|key| key.0 < id);
            self.keys.get(at).is_some_and(|key| key.0 == id)
        })
    }

    /// Exact RADAR distance between `scan` and fingerprint `e`:
    /// [`merge_distance`] with the scan on the left.
    pub(crate) fn entry_distance(&self, scan: &S, e: usize, penalty_dbm: f64) -> Option<f64> {
        merge_distance(scan.readings(), self.entry_readings(e), penalty_dbm)
    }

    /// Appends every posting of key `ki` not yet stamped with
    /// `generation` to `candidates`, stamping it.
    fn gather(&self, ki: usize, generation: u32, stamps: &mut [u32], candidates: &mut Vec<u32>) {
        let lo = self.post_offsets[ki] as usize;
        let hi = self.post_offsets[ki + 1] as usize;
        for &e in &self.postings[lo..hi] {
            if stamps[e as usize] != generation {
                stamps[e as usize] = generation;
                candidates.push(e);
            }
        }
    }

    /// Appends the `(entry index, distance)` score of every candidate
    /// that shares an id with the scan to `scored`.
    fn score(&self, scan: &S, candidates: &mut [u32], scored: &mut Vec<(u32, f64)>) {
        // Ascending entry order for cache-friendly slab walks (the final
        // order is fixed by the comparator's entry-index tiebreak anyway).
        candidates.sort_unstable();
        for &e in candidates.iter() {
            if let Some(d) = self.entry_distance(scan, e as usize, self.missing_penalty) {
                scored.push((e, d));
            }
        }
    }

    /// Copies the `k` best scored candidates into `out` as matches.
    fn emit(&self, scored: &[(u32, f64)], k: usize, out: &mut Vec<FingerprintMatch>) {
        out.clear();
        let take = scored.len().min(k);
        if out.capacity() < take {
            // Capacity growth of a caller-recycled buffer is warmup, not
            // steady-state work: keep it out of the alloc meter so counts
            // stay scheduling-invariant.
            let _pause = uniloc_obs::alloc::pause();
            out.reserve(take - out.len());
        }
        out.extend(
            scored
                .iter()
                .take(k)
                .map(|&(e, d)| FingerprintMatch { position: self.positions[e as usize], distance: d }),
        );
    }

    /// [`match_scan`](Self::match_scan) into a caller-owned buffer — the
    /// hot-path form the per-epoch loop uses to stay allocation-free.
    /// Byte-identical to [`match_scan_linear`](Self::match_scan_linear).
    pub fn match_scan_into(&self, scan: &S, k: usize, out: &mut Vec<FingerprintMatch>) {
        out.clear();
        if scan.no_signal() || k == 0 || self.is_empty() {
            return;
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.reserve_for_match(self.len());
            let generation = scratch.next_generation();
            let MatchScratch { stamps, candidates, scored, .. } = scratch;
            let readings = scan.readings();
            let missing_penalty_dbm = self.missing_penalty;

            // Fast path: bucket-windowed candidates. Sound only over
            // finite data (non-finite RSSIs or penalties break the gap
            // bound — and can surface sign-ambiguous NaN distances whose
            // total_cmp rank the bound cannot cover).
            let scan_finite = readings.iter().all(|&(_, r)| r.is_finite());
            if self.finite && scan_finite && missing_penalty_dbm.is_finite() {
                for &(id, r) in readings {
                    let b = bucket(r);
                    for bb in [b.saturating_sub(1), b, b.saturating_add(1)] {
                        if let Ok(ki) = self.keys.binary_search(&(id, bb)) {
                            self.gather(ki, generation, stamps, candidates);
                        }
                    }
                }
                self.score(scan, candidates, scored);
                rank_top(scored, k);
                let accept = ACCEPT_MARGIN * RSSI_BUCKET_DB.min(missing_penalty_dbm);
                if scored.len() >= k && scored[k - 1].1 <= accept {
                    self.emit(scored, k, out);
                    return;
                }
            }

            // Exact fallback: every fingerprint sharing at least one id
            // with the scan (the only ones the linear scan can score).
            // Fast-path candidates keep their stamp and their score.
            candidates.clear();
            for &(id, _) in readings {
                let lo = self.keys.partition_point(|key| key.0 < id);
                let hi = self.keys.partition_point(|key| key.0 <= id);
                for ki in lo..hi {
                    self.gather(ki, generation, stamps, candidates);
                }
            }
            self.score(scan, candidates, scored);
            rank_top(scored, k);
            self.emit(scored, k, out);
        });
    }

    /// Average spacing of fingerprints around `p`: the paper's spatial
    /// density feature (`beta_1`) — "measured by the average distance
    /// between two fingerprints around the location under consideration".
    /// Computed as the mean nearest-neighbor spacing of the fingerprints
    /// within `radius` of `p`; `None` when fewer than two are in range
    /// (density undefined — treat as very sparse). Bit-identical to
    /// [`local_density_linear`](Self::local_density_linear).
    ///
    /// The neighborhood is gathered from the grid cells that can hold a
    /// point within `radius` (then filtered by the same `distance <=
    /// radius` predicate), the probes are the `DENSITY_PROBES` closest
    /// under the reference's `(distance², entry index)` order, and each
    /// probe's nearest neighbor comes from an exact ring search — or,
    /// when that neighbor lies outside the radius, from the reference's
    /// scan of the neighborhood. Queries and surveys the cell bounds
    /// cannot cover (non-finite or huge coordinates, degenerate radii)
    /// take the linear gather and scan instead. DESIGN.md §14a gives the
    /// exactness argument.
    pub fn local_density(&self, p: Point, radius: f64) -> Option<f64> {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let nearby = &mut scratch.density_buf;
            {
                let _pause = uniloc_obs::alloc::pause();
                nearby.clear();
                nearby.reserve(self.len());
            }
            let positions = &self.positions;
            match self.grid.window(p, radius) {
                // Within a window every magnitude is bounded, so the
                // squared distance and `hypot` agree to ~1e-15 relative:
                // only candidates within 1e-9 of the radius need the
                // reference predicate (DESIGN.md §14a).
                Some(w) => {
                    let r2 = radius * radius;
                    let (inner, outer) = (r2 * (1.0 - 1e-9), r2 * (1.0 + 1e-9));
                    self.grid.for_each_in(w, &mut |e| {
                        let q = positions[e as usize];
                        let d2 = q.distance_sq(p);
                        if d2 < inner || (d2 <= outer && q.distance(p) <= radius) {
                            nearby.push((e, d2));
                        }
                    });
                }
                None => {
                    for (e, q) in positions.iter().enumerate() {
                        if q.distance(p) <= radius {
                            nearby.push((e as u32, q.distance_sq(p)));
                        }
                    }
                }
            }
            if nearby.len() < 2 {
                return None;
            }
            let probes = nearby.len().min(DENSITY_PROBES);
            rank_top(nearby, probes);
            let mut total = 0.0;
            for i in 0..probes {
                let e = nearby[i].0;
                let a = positions[e as usize];
                let best = match self.grid.nearest_other(positions, e as usize) {
                    Some((j, d)) if positions[j].distance(p) <= radius => d,
                    _ => nearby
                        .iter()
                        .filter(|&&(f, _)| f != e)
                        .fold(f64::INFINITY, |best, &(f, _)| {
                            best.min(a.distance_sq(positions[f as usize]))
                        }),
                };
                total += best.sqrt();
            }
            Some(total / probes as f64)
        })
    }

    /// The retained linear reference of
    /// [`local_density`](Self::local_density): scans every position,
    /// stable-sorts the neighborhood and compares each probe with the
    /// whole neighborhood. The differential suite asserts the grid-backed
    /// path returns exactly this; it is not used on the hot path.
    pub fn local_density_linear(&self, p: Point, radius: f64) -> Option<f64> {
        let mut nearby: Vec<Point> =
            self.positions.iter().copied().filter(|q| q.distance(p) <= radius).collect();
        if nearby.len() < 2 {
            return None;
        }
        // Mean nearest-neighbor distance. For dense surveys the full
        // O(n^2) pass is wasteful; probing the K fingerprints closest
        // to `p` against the whole neighborhood gives the same
        // estimate (the local grid is homogeneous) at O(K*n).
        nearby.sort_by(|a, b| a.distance_sq(p).total_cmp(&b.distance_sq(p)));
        let probes = nearby.len().min(DENSITY_PROBES);
        let mut total = 0.0;
        for i in 0..probes {
            let a = nearby[i];
            let mut best = f64::INFINITY;
            for (j, b) in nearby.iter().enumerate() {
                if i != j {
                    best = best.min(a.distance_sq(*b));
                }
            }
            total += best.sqrt();
        }
        Some(total / probes as f64)
    }
}

/// Largest bounding box (in cells) a dense grid may allocate for `n`
/// positions; wider spreads (degenerate or non-finite coordinates) use a
/// single filtered bucket instead.
fn max_dense_cells(n: usize) -> u128 {
    16 * n as u128 + 1024
}

/// Largest coordinate, query offset or radius (in cells) for which the
/// density window and ring search trust their cell bounds: rounding in
/// `x / cell` stays below `1e-6` cells.
const MAX_SAFE_CELLS: f64 = 1e9;

/// An inclusive cell-coordinate rectangle inside a grid's bounding box
/// (empty when `x0 > x1` or `y0 > y1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellWindow {
    x0: i64,
    x1: i64,
    y0: i64,
    y1: i64,
}

/// A dense CSR grid over a position slab: the slab's bounding box in
/// `cell`-sized squares, column-major, each cell listing its positions'
/// entry indices in insertion order. The grid stores no positions; every
/// query borrows the slab it was built from.
///
/// Cell keys are `(floor(x / cell), floor(y / cell))` with saturating
/// casts (`NaN → 0`). When the bounding box would exceed
/// `16·n + 1024` cells (positions spread over degenerate or non-finite
/// coordinates), the grid keeps one bucket holding every entry and
/// filters it by key, so lookups stay exact at any spread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialGrid {
    cell: f64,
    /// Key of the bounding box's low corner (`(0, 0)` when not dense).
    min: (i64, i64),
    /// Columns (x) and rows (y) of the cell array.
    cols: usize,
    rows: usize,
    /// Whether each bucket is exactly one cell (else one filtered bucket).
    dense: bool,
    /// Largest absolute coordinate over the slab (infinite if any
    /// coordinate is non-finite).
    extent: f64,
    /// Item-range offsets per bucket (`cols * rows + 1` entries).
    offsets: Vec<u32>,
    /// Entry indices, bucket by bucket, ascending within a bucket.
    items: Vec<u32>,
}

impl SpatialGrid {
    /// Buckets the positions into a grid of `cell`-sized squares.
    ///
    /// # Panics
    /// If `cell` is not positive and finite, or the slab holds `u32::MAX`
    /// positions or more.
    pub fn build(positions: &[Point], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "grid cell must be positive and finite");
        assert!(positions.len() < u32::MAX as usize, "too many positions to grid");
        let key = |p: Point| ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64);
        let (mut x0, mut x1, mut y0, mut y1) = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
        let mut extent = 0.0f64;
        for &p in positions {
            let (kx, ky) = key(p);
            x0 = x0.min(kx);
            x1 = x1.max(kx);
            y0 = y0.min(ky);
            y1 = y1.max(ky);
            extent = if p.x.is_finite() && p.y.is_finite() {
                extent.max(p.x.abs()).max(p.y.abs())
            } else {
                f64::INFINITY
            };
        }
        let (cols, rows) = if positions.is_empty() {
            (0, 0)
        } else {
            ((x1 as i128 - x0 as i128 + 1) as u128, (y1 as i128 - y0 as i128 + 1) as u128)
        };
        let dense = cols * rows <= max_dense_cells(positions.len());
        let (min, cols, rows) =
            if dense { ((x0, y0), cols as usize, rows as usize) } else { ((0, 0), 1, 1) };
        let bucket_of = |p: Point| {
            if dense {
                let (kx, ky) = key(p);
                (kx - min.0) as usize * rows + (ky - min.1) as usize
            } else {
                0
            }
        };
        let mut offsets = vec![0u32; cols * rows + 1];
        for &p in positions {
            offsets[bucket_of(p) + 1] += 1;
        }
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        let mut next = offsets.clone();
        let mut items = vec![0u32; positions.len()];
        for (i, &p) in positions.iter().enumerate() {
            let b = bucket_of(p);
            items[next[b] as usize] = i as u32;
            next[b] += 1;
        }
        SpatialGrid { cell, min, cols, rows, dense, extent, offsets, items }
    }

    /// Cell key of a point.
    fn key(&self, p: Point) -> (i64, i64) {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    /// Entry indices in cell `(kx, ky)`, in insertion order.
    fn cell_items<'a>(
        &'a self,
        positions: &'a [Point],
        kx: i64,
        ky: i64,
    ) -> impl Iterator<Item = usize> + 'a {
        let bucket: &[u32] = if self.dense {
            // Wrapping offsets: a key below the box wraps to at least
            // `2^64 − (max − min)`, far above any dense column count.
            let c = kx.wrapping_sub(self.min.0) as u64;
            let r = ky.wrapping_sub(self.min.1) as u64;
            if c < self.cols as u64 && r < self.rows as u64 {
                let b = c as usize * self.rows + r as usize;
                &self.items[self.offsets[b] as usize..self.offsets[b + 1] as usize]
            } else {
                &[]
            }
        } else {
            &self.items
        };
        let filter = !self.dense;
        bucket.iter().map(|&i| i as usize).filter(move |&i| {
            !filter || self.key(positions[i]) == (kx, ky)
        })
    }

    /// Index of the position nearest to `p`, searching expanding rings
    /// (up to 3 cells; beyond that no fingerprint can constrain anything).
    ///
    /// Rings are visited column by column (x outer, y inner), each cell
    /// in insertion order, and a candidate replaces the best only when
    /// strictly closer — so among tied distances the first visited wins.
    /// The search stops after the first ring whose best distance is
    /// below `ring × cell`. Cells that provably hold nothing strictly
    /// closer than the best so far are skipped, which changes neither the
    /// best after any ring nor the answer.
    pub fn nearest(&self, positions: &[Point], p: Point) -> Option<usize> {
        let (cx, cy) = self.key(p);
        let margin = self.margin(p);
        let mut best: Option<(usize, f64)> = None;
        for ring in 0..=3i64 {
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    if dx.abs() != ring && dy.abs() != ring {
                        continue; // only the ring boundary
                    }
                    // A cell key past `i64`'s range holds nothing.
                    let (Some(kx), Some(ky)) = (cx.checked_add(dx), cy.checked_add(dy)) else {
                        continue;
                    };
                    if let (Some(m), Some((_, bd))) = (margin, best) {
                        if self.gap_sq(kx, ky, p, m) >= bd {
                            continue;
                        }
                    }
                    for i in self.cell_items(positions, kx, ky) {
                        let d = positions[i].distance_sq(p);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((i, d));
                        }
                    }
                }
            }
            if let (Some(m), Some((i, bd))) = (margin, best) {
                // Nothing outside the visited block can be strictly
                // closer: later rings cannot change the answer.
                let edge = self.block_edge(cx, cy, ring, p, m);
                if edge > 0.0 && bd <= edge * edge {
                    return Some(i);
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

    /// Whether the cell bounds are trustworthy for a quantity of this
    /// magnitude (see [`MAX_SAFE_CELLS`]).
    fn safe(&self, magnitude: f64) -> bool {
        magnitude <= MAX_SAFE_CELLS * self.cell
    }

    /// The rounding margin that makes [`gap_sq`](Self::gap_sq) a true
    /// lower bound for queries at `p`: `1e-9 × (extent + |p| + cell)`,
    /// orders of magnitude above the floating-point error of the cell
    /// arithmetic (DESIGN.md §14a). `None` when the grid is not dense or
    /// the slab or `p` is too large or non-finite to bound.
    fn margin(&self, p: Point) -> Option<f64> {
        let reach = p.x.abs().max(p.y.abs());
        (self.dense && self.safe(self.extent) && self.safe(reach) && !p.x.is_nan() && !p.y.is_nan())
            .then_some(1e-9 * (self.extent + reach + self.cell))
    }

    /// A lower bound (less `margin`) on the distance from `p` to any
    /// position outside the block of cells within Chebyshev distance
    /// `ring` of `(kx, ky)`. Negative when `p` is not safely inside it.
    fn block_edge(&self, kx: i64, ky: i64, ring: i64, p: Point, margin: f64) -> f64 {
        let c = self.cell;
        let (lo_x, lo_y) = ((kx - ring) as f64 * c, (ky - ring) as f64 * c);
        let (hi_x, hi_y) = ((kx + ring + 1) as f64 * c, (ky + ring + 1) as f64 * c);
        (p.x - lo_x).min(hi_x - p.x).min(p.y - lo_y).min(hi_y - p.y) - margin
    }

    /// A lower bound on `distance_sq` from `p` to any position in cell
    /// `(kx, ky)`: the per-axis gaps to the cell's span, each less
    /// `margin`.
    fn gap_sq(&self, kx: i64, ky: i64, p: Point, margin: f64) -> f64 {
        let c = self.cell;
        let gap = |k: i64, v: f64| {
            let lo = k as f64 * c;
            ((lo - v).max(v - (lo + c)) - margin).max(0.0)
        };
        let (gx, gy) = (gap(kx, p.x), gap(ky, p.y));
        gx * gx + gy * gy
    }

    /// The cells that can hold a position within `radius` of `p`, padded
    /// by one cell against rounding in `x / cell` and clamped to the
    /// bounding box. `None` when the bounds cannot be trusted — an empty
    /// or non-dense grid, a non-finite or huge query or slab coordinate,
    /// a radius that is huge, below `1e-100` (squares near underflow),
    /// negative or NaN — and the caller must scan the slab instead.
    fn window(&self, p: Point, radius: f64) -> Option<CellWindow> {
        let bounded = self.dense
            && !self.items.is_empty()
            && self.safe(self.extent)
            && self.safe(p.x.abs())
            && self.safe(p.y.abs())
            && self.safe(radius)
            && radius >= 1e-100;
        if !bounded {
            return None;
        }
        let span = |v: f64, lo: i64, n: usize| {
            let a = (((v - radius) / self.cell).floor() - 1.0).max(lo as f64);
            let b = (((v + radius) / self.cell).floor() + 1.0).min((lo + n as i64 - 1) as f64);
            (a as i64, b as i64)
        };
        let (x0, x1) = span(p.x, self.min.0, self.cols);
        let (y0, y1) = span(p.y, self.min.1, self.rows);
        Some(CellWindow { x0, x1, y0, y1 })
    }

    /// Calls `f` with every entry index in the window's cells (in no
    /// particular order). Windows come from `window`, so
    /// the grid is dense and the rectangle lies inside its bounding box.
    fn for_each_in(&self, w: CellWindow, f: &mut impl FnMut(u32)) {
        if w.y0 > w.y1 {
            return;
        }
        for kx in w.x0..=w.x1 {
            let col = (kx - self.min.0) as usize * self.rows;
            // One column of the window is one contiguous item range.
            let lo = self.offsets[col + (w.y0 - self.min.1) as usize] as usize;
            let hi = self.offsets[col + (w.y1 - self.min.1) as usize + 1] as usize;
            self.items[lo..hi].iter().for_each(|&e| f(e));
        }
    }

    /// The exact nearest other position to entry `e`: the smallest
    /// `distance_sq` from `positions[e]` to any other entry, with an entry
    /// attaining it. Searches rings outward, skipping cells that lie
    /// provably farther than the best found, and stops once every
    /// unvisited cell does (or the rings cover the bounding box), with the
    /// rounding margin of [`margin`](Self::margin). `None` also when the
    /// grid cannot bound its cells (no margin), or the slab has no other
    /// entry.
    fn nearest_other(&self, positions: &[Point], e: usize) -> Option<(usize, f64)> {
        let a = positions[e];
        let margin = self.margin(a)?;
        // A margin implies a dense grid within `MAX_SAFE_CELLS` cells of
        // the origin: none of the key arithmetic below can overflow.
        let (kx, ky) = self.key(a);
        let (x0, y0) = self.min;
        let (x1, y1) = (x0 + self.cols as i64 - 1, y0 + self.rows as i64 - 1);
        let visit = |best: &mut Option<(usize, f64)>, cx: i64, cy: i64| {
            if let Some((_, bd)) = *best {
                if self.gap_sq(cx, cy, a, margin) >= bd {
                    return;
                }
            }
            for i in self.cell_items(positions, cx, cy) {
                if i != e {
                    let d = a.distance_sq(positions[i]);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        *best = Some((i, d));
                    }
                }
            }
        };
        let mut best: Option<(usize, f64)> = None;
        let mut ring = 0i64;
        loop {
            for dx in -ring..=ring {
                if dx.abs() == ring {
                    for dy in -ring..=ring {
                        visit(&mut best, kx + dx, ky + dy);
                    }
                } else {
                    visit(&mut best, kx + dx, ky - ring);
                    visit(&mut best, kx + dx, ky + ring);
                }
            }
            if kx - ring <= x0 && kx + ring >= x1 && ky - ring <= y0 && ky + ring >= y1 {
                return best;
            }
            if let Some((_, bd)) = best {
                // Every unvisited cell lies outside the visited block.
                let edge = self.block_edge(kx, ky, ring, a, margin);
                if edge > 0.0 && bd < edge * edge {
                    return best;
                }
            }
            ring += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniloc_env::ApId;
    use uniloc_sensors::WifiScan;

    fn scan(pairs: &[(u32, f64)]) -> WifiScan {
        WifiScan { readings: pairs.iter().map(|&(id, r)| (ApId(id), r)).collect() }
    }

    fn entries() -> Vec<(Point, WifiScan)> {
        (0..30)
            .map(|i| {
                (
                    Point::new(i as f64 * 2.0, 0.0),
                    scan(&[(0, -40.0 - i as f64 * 2.0), (1, -50.0 - i as f64)]),
                )
            })
            .collect()
    }

    /// Scores every raw entry with the scan's own distance and ranks with
    /// the stable `total_cmp` sort: the linear reference, computed
    /// independently of the database.
    fn linear(e: &[(Point, WifiScan)], online: &WifiScan, k: usize) -> Vec<FingerprintMatch> {
        let mut linear: Vec<FingerprintMatch> = e
            .iter()
            .filter_map(|(p, fp)| {
                let d = online.fingerprint_distance(fp, 12.0)?;
                Some(FingerprintMatch { position: *p, distance: d })
            })
            .collect();
        linear.sort_by(|a, b| a.distance.total_cmp(&b.distance));
        linear.truncate(k);
        linear
    }

    #[test]
    fn build_is_deterministic() {
        let e = entries();
        assert_eq!(FingerprintDb::from_entries(e.clone()), FingerprintDb::from_entries(e));
    }

    #[test]
    fn match_into_equals_linear_scoring() {
        let e = entries();
        let db = FingerprintDb::from_entries(e.clone());
        let online = scan(&[(0, -52.0), (1, -55.0)]);
        let mut out = Vec::new();
        db.match_scan_into(&online, 3, &mut out);
        assert_eq!(out, linear(&e, &online, 3));
    }

    #[test]
    fn non_finite_readings_disable_the_fast_path_but_stay_exact() {
        let mut e = entries();
        e.push((Point::new(99.0, 0.0), scan(&[(0, f64::NAN), (1, -55.0)])));
        let db = FingerprintDb::from_entries(e.clone());
        assert!(!db.finite);
        let online = scan(&[(1, -55.0)]);
        let mut out = Vec::new();
        db.match_scan_into(&online, 5, &mut out);
        let linear = linear(&e, &online, 5);
        assert_eq!(out.len(), linear.len());
        for (a, b) in out.iter().zip(&linear) {
            assert_eq!(a.position, b.position);
            assert!(a.distance == b.distance || (a.distance.is_nan() && b.distance.is_nan()));
        }
    }

    #[test]
    fn empty_scan_and_zero_k_match_nothing() {
        let db = FingerprintDb::from_entries(entries());
        let mut out = vec![FingerprintMatch { position: Point::origin(), distance: 0.0 }];
        db.match_scan_into(&WifiScan::default(), 3, &mut out);
        assert!(out.is_empty());
        db.match_scan_into(&scan(&[(0, -50.0)]), 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn slab_holds_each_reading_once_in_scan_order() {
        let e = entries();
        let db = FingerprintDb::from_entries(e.clone());
        assert_eq!(db.readings.len(), 2 * e.len());
        for (i, (p, s)) in e.iter().enumerate() {
            assert_eq!(db.entry_readings(i), s.readings.as_slice());
            assert_eq!(db.entry_distance(s, i, 12.0), Some(0.0), "entry {i} at {p}");
        }
    }

    #[test]
    fn grid_nearest_matches_brute_force() {
        let positions: Vec<Point> = (0..50)
            .map(|i| Point::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 4.0))
            .collect();
        let grid = SpatialGrid::build(&positions, 5.0);
        for qx in 0..12 {
            for qy in 0..8 {
                let q = Point::new(qx as f64 * 2.7 - 1.0, qy as f64 * 3.1 - 1.0);
                let brute = positions
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.distance_sq(q).total_cmp(&b.distance_sq(q)))
                    .map(|(i, _)| i)
                    .unwrap();
                let got = grid.nearest(&positions, q).unwrap();
                assert_eq!(
                    positions[got].distance_sq(q),
                    positions[brute].distance_sq(q),
                    "query {q}"
                );
            }
        }
    }

    #[test]
    fn grid_expands_rings_until_a_hit() {
        // One far-away position: the origin query only finds it on an
        // outer ring, exercising the ring expansion rather than the
        // center-cell shortcut.
        let one = [Point::new(14.0, 0.0)];
        assert_eq!(SpatialGrid::build(&one, 5.0).nearest(&one, Point::origin()), Some(0));
        // Beyond 3 rings nothing is found.
        let far = [Point::new(100.0, 100.0)];
        assert_eq!(SpatialGrid::build(&far, 5.0).nearest(&far, Point::origin()), None);
        // Empty grid.
        assert_eq!(SpatialGrid::build(&[], 5.0).nearest(&[], Point::origin()), None);
    }

    #[test]
    fn degenerate_spread_uses_one_filtered_bucket() {
        let positions = [
            Point::new(0.0, 0.0),
            Point::new(1e300, 0.0),
            Point::new(f64::NAN, 2.0),
            Point::new(3.0, 0.0),
        ];
        let grid = SpatialGrid::build(&positions, 5.0);
        assert!(!grid.dense);
        assert_eq!(grid.nearest(&positions, Point::new(2.0, 0.0)), Some(3));
        assert_eq!(grid.nearest(&positions, Point::new(1e300, 1.0)), Some(1));
        assert_eq!(grid.window(Point::origin(), 20.0), None);
    }
}
