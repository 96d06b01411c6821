//! The deterministic, supervised worker pool.
//!
//! Every multi-walk workload in the workspace — the fleet, the chaos
//! sweep, the figure regenerators' walk batches — runs as a
//! [`crate::fleet::FleetScheduler`] run, and the scheduler steps each
//! round's due sessions on the one pool primitive this module exports:
//! [`run_supervised_mut`]. It moves a batch of items in, lends each item
//! to exactly one worker as `&mut I`, catches a panicking job at the pool
//! boundary as a typed [`JobFailure`], and hands the (possibly mutated)
//! items back in input order alongside the per-item results.
//!
//! # Determinism contract
//!
//! For any `items` and pure `f`, `run_supervised_mut(items, n, ..)`
//! returns the same items and results for every `n >= 1`. Workers claim
//! indices from a shared atomic counter — the *assignment* of jobs to
//! threads varies run to run, but no output depends on it. `jobs <= 1`
//! runs inline on the caller's thread with no pool at all.
//! `tests/parallel_differential.rs` checks the end-to-end corollary:
//! chaos artifacts and walk batches are byte-identical across `--jobs
//! 1/2/4/8` (see `DESIGN.md` §8).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which pool-boundary invariant broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolErrorKind {
    /// A claimed job never wrote its result slot.
    NoResult,
    /// An ownership-passing job never returned its item.
    LostItem,
}

/// A broken invariant at the worker-pool boundary. Unlike a panic string,
/// the error names the job index, the lane the caller attached to it (when
/// the pool ran supervised) and the phase label, so a failure deep in a
/// 10k-session fleet is diagnosable from the message alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the job in the batch (canonical input order).
    pub job: usize,
    /// The caller-attached lane, when the pool ran supervised.
    pub lane: Option<u64>,
    /// The caller's phase label (e.g. `fleet.step`).
    pub phase: &'static str,
    pub kind: PoolErrorKind,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            PoolErrorKind::NoResult => "produced no result",
            PoolErrorKind::LostItem => "lost its item",
        };
        write!(f, "parallel job {} (phase {}", self.job, self.phase)?;
        if let Some(lane) = self.lane {
            write!(f, ", lane {lane}")?;
        }
        write!(f, ") {what}")
    }
}

impl std::error::Error for PoolError {}

/// A supervised job that panicked: the panic was caught at the pool
/// boundary ([`run_supervised_mut`]) and converted into this typed
/// failure instead of unwinding through the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the job in the batch (canonical input order).
    pub job: usize,
    /// The caller-attached lane (the fleet scheduler passes the session's
    /// lane so the failure names the walker, not just the batch slot).
    pub lane: Option<u64>,
    /// The caller's phase label (e.g. `fleet.step`).
    pub phase: &'static str,
    /// The panic payload, when it was a string (the common case).
    pub panic: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel job {} (phase {}", self.job, self.phase)?;
        if let Some(lane) = self.lane {
            write!(f, ", lane {lane}")?;
        }
        write!(f, ") panicked: {}", self.panic)
    }
}

impl std::error::Error for JobFailure {}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn pool_invariant(job: usize, phase: &'static str, kind: PoolErrorKind) -> ! {
    panic!("{}", PoolError { job, lane: None, phase, kind })
}

/// Executes `f(index, &mut item)` for every item on up to `jobs` worker
/// threads. The batch is moved in, every item is lent to exactly one
/// worker, and the (possibly mutated) items come back in input order
/// alongside one result per item.
///
/// Each job runs under [`catch_unwind`], so a panicking job surrenders its
/// (possibly half-mutated) item back to its slot and yields a typed
/// [`JobFailure`] naming the job, its lane (via `lane_of`) and the
/// caller's `phase` — instead of unwinding through the pool and killing
/// every sibling job. This is the fleet scheduler's stepping primitive
/// and its crash-safety boundary: one poisoned session's panic becomes a
/// per-lane `Err` the scheduler can retry or quarantine, while the rest
/// of the batch completes normally.
///
/// `jobs` is clamped to `[1, items.len()]`; with one effective worker the
/// loop runs inline on the caller's thread and no threads are spawned.
pub fn run_supervised_mut<I, T, F, L>(
    items: Vec<I>,
    jobs: usize,
    phase: &'static str,
    lane_of: L,
    f: F,
) -> (Vec<I>, Vec<Result<T, JobFailure>>)
where
    I: Send,
    T: Send,
    L: Fn(&I) -> Option<u64> + Sync,
    F: Fn(usize, &mut I) -> T + Sync,
{
    let supervised = |idx: usize, item: &mut I| -> Result<T, JobFailure> {
        // The item is only observably half-mutated on the Err path, where
        // the caller's contract is "retry or quarantine", never "use the
        // result" — hence AssertUnwindSafe.
        catch_unwind(AssertUnwindSafe(|| f(idx, item))).map_err(|payload| JobFailure {
            job: idx,
            lane: lane_of(item),
            phase,
            panic: panic_text(payload),
        })
    };
    let n = items.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        let mut items = items;
        let results =
            items.iter_mut().enumerate().map(|(i, item)| supervised(i, item)).collect();
        return (items, results);
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<I>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let results: Mutex<Vec<Option<Result<T, JobFailure>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                // Each index is claimed exactly once, so the item is taken
                // and returned by the same worker with no contention.
                let mut item = slots[idx]
                    .lock()
                    .expect("parallel item lock poisoned")
                    .take()
                    .expect("parallel item claimed twice");
                let out = supervised(idx, &mut item);
                *slots[idx].lock().expect("parallel item lock poisoned") = Some(item);
                results.lock().expect("parallel result lock poisoned")[idx] = Some(out);
            });
        }
    });
    let items = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("parallel item lock poisoned")
                .unwrap_or_else(|| pool_invariant(i, phase, PoolErrorKind::LostItem))
        })
        .collect();
    let results = results
        .into_inner()
        .expect("parallel result lock poisoned")
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| pool_invariant(i, phase, PoolErrorKind::NoResult)))
        .collect();
    (items, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_supervised_mut_returns_mutated_items_in_order() {
        for jobs in [0usize, 1, 2, 4, 8] {
            let items: Vec<u64> = (0..23).collect();
            let (items, results) = run_supervised_mut(items, jobs, "test.phase", |_| None, |i, x| {
                *x += 100;
                i as u64 + *x
            });
            let expect_items: Vec<u64> = (100..123).collect();
            let expect_results: Vec<Result<u64, JobFailure>> =
                (0..23).map(|i| Ok(2 * i + 100)).collect();
            assert_eq!(items, expect_items, "jobs={jobs}");
            assert_eq!(results, expect_results, "jobs={jobs}");
        }
    }

    #[test]
    fn run_supervised_mut_handles_empty_and_single_item() {
        let (items, results) =
            run_supervised_mut(Vec::<u32>::new(), 4, "test.phase", |_| None, |_, x| *x);
        assert!(items.is_empty() && results.is_empty());
        let (items, results) = run_supervised_mut(vec![7u32], 4, "test.phase", |_| None, |_, x| {
            *x += 1;
            *x
        });
        assert_eq!((items, results), (vec![8], vec![Ok(8)]));
    }

    #[test]
    fn run_supervised_mut_converts_panics_into_typed_failures() {
        for jobs in [1usize, 2, 4] {
            let items: Vec<u64> = (0..12).collect();
            let (items, results) =
                run_supervised_mut(items, jobs, "test.phase", |x| Some(*x + 100), |_, x| {
                    if *x % 5 == 3 {
                        panic!("injected failure on {x}");
                    }
                    *x += 1;
                    *x
                });
            // Panicking jobs keep their (unmutated) items; survivors mutate.
            let expect_items: Vec<u64> =
                (0..12).map(|x| if x % 5 == 3 { x } else { x + 1 }).collect();
            assert_eq!(items, expect_items, "jobs={jobs}");
            for (i, r) in results.iter().enumerate() {
                if i as u64 % 5 == 3 {
                    let err = r.as_ref().unwrap_err();
                    assert_eq!(err.job, i);
                    assert_eq!(err.lane, Some(i as u64 + 100));
                    assert_eq!(err.phase, "test.phase");
                    assert!(err.panic.contains("injected failure"), "{}", err.panic);
                } else {
                    assert_eq!(*r, Ok(i as u64 + 1), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn pool_errors_name_job_lane_and_phase() {
        let e = PoolError {
            job: 7,
            lane: Some(42),
            phase: "fleet.step",
            kind: PoolErrorKind::NoResult,
        };
        assert_eq!(e.to_string(), "parallel job 7 (phase fleet.step, lane 42) produced no result");
        let f = JobFailure {
            job: 3,
            lane: None,
            phase: "fleet.build",
            panic: "boom".to_owned(),
        };
        assert_eq!(f.to_string(), "parallel job 3 (phase fleet.build) panicked: boom");
    }
}
