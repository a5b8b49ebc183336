//! Morsel-driven parallel runtime.
//!
//! A partitioned operator hands its input length and a closure over
//! `[lo, hi)` index ranges to `run_morsel_ranges` (or a slice to its
//! twin `run_morsels`) together with the session's
//! [`EvalOptions::parallelism`](crate::EvalOptions::parallelism); the
//! scheduler works out the worker count and cuts the input into
//! *morsels* — fixed runs of [`MORSEL_ROWS`] consecutive items:
//!
//! * a sequential request, or an input of at most one morsel, calls the
//!   closure once over the whole input on the calling thread;
//! * otherwise a run spawns `workers − 1` scoped helper threads
//!   (`std::thread::scope`), and every lane — the caller's included —
//!   claims morsel indices with one `fetch_add` on a shared cursor,
//!   evaluates the closure over each claimed morsel and keeps its
//!   `(morsel, result)` pairs;
//! * the caller joins the helpers and orders the pairs by morsel index,
//!   so results — and result *order* — are identical to a sequential
//!   left-to-right evaluation, and skew costs at most one morsel of
//!   imbalance;
//! * errors are resolved in morsel order too: the error reported is the
//!   one a sequential scan would have hit first. A helper's panic
//!   reaches the caller through `join`.
//!
//! Scheduler traffic is observable through [`ParallelStats`] (parallel
//! runs, morsels dispatched), surfaced by `esql-shell`'s `.stats`
//! meta-command.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::error::EngineResult;

/// Rows (items) per morsel. Small enough that a straggler worker holds
/// the run back by at most ~one cache-resident unit of work, large
/// enough that claiming a morsel (one atomic add) is noise next to
/// evaluating it. 2048 rows of `i64` is 16 KiB — half a typical L1d.
pub const MORSEL_ROWS: usize = 2048;

// Observability counters (process-wide, relaxed: they are diagnostics,
// not synchronization).
static MORSELS_DISPATCHED: AtomicU64 = AtomicU64::new(0);
static PARALLEL_RUNS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the morsel scheduler's counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Morsels claimed and evaluated by all workers across all runs.
    pub morsels_dispatched: u64,
    /// Parallel runs executed (sequential fast-path runs not counted).
    pub parallel_runs: u64,
}

/// Read the scheduler counters.
pub fn parallel_stats() -> ParallelStats {
    ParallelStats {
        morsels_dispatched: MORSELS_DISPATCHED.load(Ordering::Relaxed),
        parallel_runs: PARALLEL_RUNS.load(Ordering::Relaxed),
    }
}

/// Does nothing: parallel runs own their helper threads and join them
/// before returning, so there is no pool left to shut down. Kept for
/// callers written against the earlier persistent pool.
pub fn shutdown_pool() {}

/// Worker count for an input of `len` items when the caller requested
/// `parallelism`: min(requested, cores, morsel count). There is never a
/// reason to start more workers than there are morsels to claim, and a
/// 4-way request on any input of at least four morsels gets its four
/// workers. Clamped to the machine's available parallelism
/// (oversubscribing a saturated machine only adds scheduling overhead).
fn effective_workers(parallelism: usize, len: usize) -> usize {
    // Short-circuit before touching the core count: sequential requests
    // and sub-morsel inputs are the overwhelmingly common case (every
    // operator eval in a fixpoint loop lands here), and
    // `available_parallelism` is a syscall.
    if parallelism <= 1 || len <= MORSEL_ROWS {
        return 1;
    }
    workers_for(parallelism, len, hardware_lanes())
}

/// The machine's core count, read once per process. Affinity changes
/// after startup are ignored — a stale clamp only costs a little
/// oversubscription, while re-querying costs a syscall per operator.
fn hardware_lanes() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The pure policy behind [`effective_workers`], parameterized by the
/// machine's core count so the boundary cases are testable anywhere.
fn workers_for(parallelism: usize, len: usize, hw: usize) -> usize {
    parallelism.min(hw).min(len.div_ceil(MORSEL_ROWS)).max(1)
}

/// Evaluate `f` over `[lo, hi)` index ranges covering `[0, len)` in
/// [`MORSEL_ROWS`]-sized morsels, on as many lanes as `parallelism`,
/// the machine and the morsel count allow, and return the per-morsel
/// results **in morsel order**. A sequential request, or an input of at
/// most one morsel, is exactly `vec![f(0, len)?]` — the sequential path
/// pays nothing. Errors surface in morsel order: the `Err` a sequential
/// scan would produce first wins.
pub(crate) fn run_morsel_ranges<R, F>(len: usize, parallelism: usize, f: F) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> EngineResult<R> + Sync,
{
    run_on_lanes(len, effective_workers(parallelism, len), f)
}

/// Slice flavour of [`run_morsel_ranges`]: evaluate `f` over contiguous
/// morsel-sized sub-slices of `items`, results merged in input order.
pub(crate) fn run_morsels<T, R, F>(items: &[T], parallelism: usize, f: F) -> EngineResult<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> EngineResult<R> + Sync,
{
    run_morsel_ranges(items.len(), parallelism, |lo, hi| f(&items[lo..hi]))
}

/// [`run_morsel_ranges`] with the worker count already decided: the
/// calling thread plus `workers − 1` scoped helpers drain the morsels.
fn run_on_lanes<R, F>(len: usize, workers: usize, f: F) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> EngineResult<R> + Sync,
{
    if workers <= 1 {
        return Ok(vec![f(0, len)?]);
    }
    let n_morsels = len.div_ceil(MORSEL_ROWS);
    PARALLEL_RUNS.fetch_add(1, Ordering::Relaxed);
    let cursor = AtomicUsize::new(0);
    // One lane's share of the run: claim morsels until the cursor is
    // exhausted, keeping each result beside its morsel index. `Relaxed`
    // suffices: the cursor publishes no data (any read-modify-write
    // hands out each index once), and results travel back through `join`.
    let lane = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_morsels {
                return done;
            }
            MORSELS_DISPATCHED.fetch_add(1, Ordering::Relaxed);
            let hi = ((i + 1) * MORSEL_ROWS).min(len);
            done.push((i, f(i * MORSEL_ROWS, hi)));
        }
    };
    let mut pairs = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(lane)).collect();
        let mut pairs = lane();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => pairs.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;

    /// [`run_morsels`] with the lane count forced, so the parallel path
    /// runs whatever the machine's core count.
    fn on_lanes<T: Sync, R: Send>(
        items: &[T],
        workers: usize,
        f: impl Fn(&[T]) -> EngineResult<R> + Sync,
    ) -> EngineResult<Vec<R>> {
        run_on_lanes(items.len(), workers, |lo, hi| f(&items[lo..hi]))
    }

    #[test]
    fn morsels_merge_in_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for workers in [1usize, 2, 4, 7] {
            let parts = on_lanes(&items, workers, |chunk| Ok(chunk.to_vec())).expect("no errors");
            let merged: Vec<u64> = parts.into_iter().flatten().collect();
            assert_eq!(merged, items, "workers={workers} broke order");
        }
    }

    #[test]
    fn ranges_cover_exactly_once() {
        let parts = run_on_lanes(MORSEL_ROWS * 3 + 17, 4, |lo, hi| Ok((lo, hi))).unwrap();
        assert_eq!(parts.len(), 4);
        let mut expect_lo = 0;
        for (lo, hi) in parts {
            assert_eq!(lo, expect_lo);
            assert!(hi > lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, MORSEL_ROWS * 3 + 17);
    }

    #[test]
    fn error_surfaces_in_morsel_order() {
        let items: Vec<u64> = (0..3 * MORSEL_ROWS as u64).collect();
        // Every morsel containing a multiple of 1000 fails, reporting
        // the first offending value it sees; the error that wins must be
        // the one sequential evaluation would hit first (morsel 0's).
        let err = on_lanes(&items, 4, |chunk| {
            match chunk.iter().find(|v| **v % 1000 == 0) {
                Some(v) => Err(EngineError::UnknownRelation(v.to_string())),
                None => Ok(()),
            }
        })
        .expect_err("must fail");
        assert_eq!(
            err.to_string(),
            EngineError::UnknownRelation("0".into()).to_string()
        );
    }

    #[test]
    fn worker_policy_derives_from_morsel_count() {
        // parallelism=1: never partition, whatever the size.
        assert_eq!(workers_for(1, 100 * MORSEL_ROWS, 8), 1);
        // One morsel (boundary inclusive): sequential.
        assert_eq!(workers_for(4, MORSEL_ROWS, 8), 1);
        // One row past the boundary: two morsels, two workers.
        assert_eq!(workers_for(4, MORSEL_ROWS + 1, 8), 2);
        // A 4-way request at moderate size is honored as soon as four
        // morsels exist — the old `len / 512` chunk clamp degraded this.
        assert_eq!(workers_for(4, 4 * MORSEL_ROWS, 8), 4);
        // Large input: bounded by requested parallelism...
        assert_eq!(workers_for(4, 1_000_000, 8), 4);
        // ...and by the machine.
        assert_eq!(workers_for(8, 1_000_000, 2), 2);
        // Zero-core degenerate input never yields zero workers.
        assert_eq!(workers_for(4, 1_000_000, 0), 1);
    }

    #[test]
    fn stats_count_dispatches_and_workers() {
        let before = parallel_stats();
        let items: Vec<u64> = (0..4 * MORSEL_ROWS as u64).collect();
        let parts = on_lanes(&items, 3, |chunk| Ok(chunk.len() as u64)).unwrap();
        assert_eq!(parts.iter().sum::<u64>(), items.len() as u64);
        let after = parallel_stats();
        assert!(after.morsels_dispatched >= before.morsels_dispatched + 4);
        assert!(after.parallel_runs > before.parallel_runs);
    }

    #[test]
    fn helper_panic_reaches_the_issuer() {
        let n_morsels = 5;
        let items: Vec<u64> = (0..(n_morsels * MORSEL_ROWS) as u64).collect();
        // The first, a middle and the last morsel: whichever lane claims
        // the poisoned one, its panic must reach this thread.
        for poisoned in [0, n_morsels / 2, n_morsels - 1] {
            let marker = (poisoned * MORSEL_ROWS + 7) as u64;
            let result = std::panic::catch_unwind(|| {
                let _ = on_lanes(&items, 3, |chunk| {
                    assert!(!chunk.contains(&marker), "boom");
                    Ok(())
                });
            });
            assert!(
                result.is_err(),
                "panic in morsel {poisoned} must reach the caller"
            );
            // The next run must still succeed.
            let parts = on_lanes(&items, 3, |chunk| Ok(chunk.len())).unwrap();
            assert_eq!(parts.iter().sum::<usize>(), items.len());
        }
    }
}
