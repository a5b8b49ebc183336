//! Morsel-driven parallel runtime.
//!
//! Operators no longer split their input into one contiguous chunk per
//! scoped thread (PR-2's scheme, whose per-operator spawns cost more
//! than they saved at moderate sizes). Instead a lazily-initialized
//! **persistent worker pool** executes *morsels* — fixed-size runs of
//! [`MORSEL_ROWS`] consecutive items claimed from an atomic cursor:
//!
//! * the pool is created on first parallel use (shared via `OnceLock`),
//!   grows on demand up to `MAX_POOL_WORKERS` helper threads, and can
//!   be [shut down cleanly](shutdown_pool) and re-grown later;
//! * each participating worker (the issuing thread included) loops:
//!   claim the next morsel index from the cursor, evaluate the closure
//!   over that contiguous slice, store the result in the morsel's slot;
//! * slots merge **in morsel order**, so results — and result *order* —
//!   are byte-identical to a sequential left-to-right evaluation, and
//!   skew costs at most one morsel of imbalance instead of a whole
//!   chunk;
//! * errors are resolved in morsel order too: the error reported is the
//!   one a sequential scan would have hit first.
//!
//! Scheduler behaviour is observable through [`ParallelStats`]
//! (morsels dispatched, cursor contention retries, per-run worker
//! count), surfaced by `esql-shell`'s `.stats` meta-command.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::error::EngineResult;

/// Rows (items) per morsel. Small enough that a straggler worker holds
/// the run back by at most ~one cache-resident unit of work, large
/// enough that claiming a morsel (one CAS) is noise next to evaluating
/// it. 2048 rows of `i64` is 16 KiB — half a typical L1d.
pub const MORSEL_ROWS: usize = 2048;

/// Helper threads the pool will keep at most; the issuing thread always
/// participates, so up to `MAX_POOL_WORKERS + 1` lanes drain morsels.
const MAX_POOL_WORKERS: usize = 15;

// ---------------------------------------------------------------------
// Observability counters (process-wide, relaxed: they are diagnostics,
// not synchronization).
// ---------------------------------------------------------------------

static MORSELS_DISPATCHED: AtomicU64 = AtomicU64::new(0);
static CURSOR_RETRIES: AtomicU64 = AtomicU64::new(0);
static PARALLEL_RUNS: AtomicU64 = AtomicU64::new(0);
static LAST_WORKERS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the morsel scheduler's counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Morsels claimed and evaluated by all workers across all runs.
    pub morsels_dispatched: u64,
    /// Failed compare-exchange attempts on the morsel cursor — a proxy
    /// for scheduler contention (workers colliding on the same claim).
    pub cursor_retries: u64,
    /// Parallel runs executed (sequential fast-path runs not counted).
    pub parallel_runs: u64,
    /// Worker count of the most recent parallel run (issuing thread
    /// included).
    pub last_workers: u64,
}

/// Read the scheduler counters.
pub fn parallel_stats() -> ParallelStats {
    ParallelStats {
        morsels_dispatched: MORSELS_DISPATCHED.load(Ordering::Relaxed),
        cursor_retries: CURSOR_RETRIES.load(Ordering::Relaxed),
        parallel_runs: PARALLEL_RUNS.load(Ordering::Relaxed),
        last_workers: LAST_WORKERS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// Worker-count policy.
// ---------------------------------------------------------------------

/// Worker count actually used for an input of `len` items when the
/// caller requested `parallelism`. Derived from the **morsel count**:
/// there is never a reason to wake more workers than there are morsels
/// to claim, and — unlike the old `len / threshold` chunk clamp — a
/// 4-way request on any input of more than four morsels gets its four
/// workers. Clamped to the machine's available parallelism
/// (oversubscribing a saturated machine only adds scheduling overhead).
pub fn effective_workers(parallelism: usize, len: usize) -> usize {
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
    if parallelism <= 1 || len <= MORSEL_ROWS {
        return 1;
    }
    let morsels = len.div_ceil(MORSEL_ROWS);
    parallelism
        .min(hw.max(1))
        .min(morsels)
        .clamp(1, MAX_POOL_WORKERS + 1)
}

// ---------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------

/// A unit of pool work. Lifetime-erased: see the SAFETY argument in
/// [`run_morsel_ranges`].
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
}

struct PoolState {
    jobs: VecDeque<Job>,
    /// Worker threads currently alive (spawned and not yet exited).
    live_workers: usize,
    /// When set, workers drain remaining jobs and exit.
    shutting_down: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            jobs: VecDeque::new(),
            live_workers: 0,
            shutting_down: false,
        }),
        work_ready: Condvar::new(),
        handles: Mutex::new(Vec::new()),
    })
}

impl Pool {
    /// Grow the pool to at least `target` helper threads (capped at
    /// [`MAX_POOL_WORKERS`]). Workers are spawned once and then parked
    /// on the job queue between runs — the whole point of the pool is
    /// that per-operator parallelism stops paying thread-start latency.
    fn ensure_workers(&'static self, target: usize) {
        let target = target.min(MAX_POOL_WORKERS);
        // `shutdown_pool` holds `handles` throughout, so past this line
        // none is in progress.
        let mut handles = self.handles.lock().unwrap();
        let mut state = self.state.lock().unwrap();
        while state.live_workers < target {
            state.live_workers += 1;
            handles.push(
                std::thread::Builder::new()
                    .name("eds-morsel".into())
                    .spawn(move || worker_loop(self))
                    .expect("spawn morsel worker"),
            );
        }
    }

    fn submit(&self, job: Job) {
        let mut state = self.state.lock().unwrap();
        if state.shutting_down || state.live_workers == 0 {
            // A `shutdown_pool` on another thread is retiring the workers
            // (or has retired them since `ensure_workers` looked): nobody
            // is certain to see the queue again, and the issuer would
            // wait on this helper for ever. It runs the helper's share
            // itself, as a worker would.
            drop(state);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.run));
            return;
        }
        state.jobs.push_back(job);
        drop(state);
        self.work_ready.notify_one();
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let mut state = pool.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                drop(state);
                // A panicking closure must not kill the worker: the
                // issuing thread re-raises the panic (see FinishGuard),
                // and the pool thread survives for the next run.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.run));
                break;
            }
            if state.shutting_down {
                state.live_workers -= 1;
                return;
            }
            state = pool.work_ready.wait(state).unwrap();
        }
    }
}

/// Shut the worker pool down cleanly: pending jobs are drained, every
/// worker thread exits and is joined. The pool re-grows lazily on the
/// next parallel evaluation, and a run that overlaps the shutdown keeps
/// the helper jobs no worker is left to take on its own thread, so this
/// is safe to call at any point (e.g. shell exit); it is a no-op when no
/// worker was ever started.
pub fn shutdown_pool() {
    let p = pool();
    // Held to the end: two shutdowns take turns (the second must not
    // clear the flag under the first one's `join`), and `ensure_workers`
    // spawns again only once this one is over.
    let mut handles = p.handles.lock().unwrap();
    p.state.lock().unwrap().shutting_down = true;
    p.work_ready.notify_all();
    for h in handles.drain(..) {
        let _ = h.join();
    }
    let mut state = p.state.lock().unwrap();
    debug_assert_eq!(state.live_workers, 0);
    state.shutting_down = false;
}

// ---------------------------------------------------------------------
// Running a morsel scan.
// ---------------------------------------------------------------------

/// Per-run shared state. `Arc`-owned (not borrowed) so a helper's final
/// "I am done" handshake never touches the issuing thread's stack.
struct RunState<R> {
    /// Next unclaimed morsel index.
    cursor: AtomicUsize,
    /// One result slot per morsel; merged in index order.
    slots: Mutex<Vec<Option<EngineResult<R>>>>,
    /// Helper jobs that have not yet finished.
    helpers_left: Mutex<usize>,
    finished: Condvar,
    /// Set when a helper's closure panicked; re-raised by the issuer.
    panicked: AtomicBool,
}

/// Decrements `helpers_left` on scope exit — including unwinds — so the
/// issuing thread can never deadlock waiting on a panicked helper.
struct FinishGuard<'a, R> {
    state: &'a RunState<R>,
}

impl<R> Drop for FinishGuard<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.state.panicked.store(true, Ordering::Relaxed);
        }
        let mut left = self.state.helpers_left.lock().unwrap();
        *left -= 1;
        // Notify while holding the lock: `RunState` is Arc-owned, so
        // the issuer waking early cannot invalidate it.
        self.state.finished.notify_all();
    }
}

/// Blocks until every helper job has exited — on scope exit *including
/// unwinds*, so a panic in the issuing thread's own closure can never
/// let the frame (and the borrows helpers hold into it) die early.
struct HelperWait<'a, R> {
    state: &'a RunState<R>,
}

impl<R> Drop for HelperWait<'_, R> {
    fn drop(&mut self) {
        let mut left = self.state.helpers_left.lock().unwrap();
        while *left > 0 {
            left = self.state.finished.wait(left).unwrap();
        }
    }
}

/// Claim the next morsel index below `n`, counting CAS contention.
fn claim(cursor: &AtomicUsize, n: usize) -> Option<usize> {
    let mut cur = cursor.load(Ordering::Relaxed);
    loop {
        if cur >= n {
            return None;
        }
        match cursor.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return Some(cur),
            Err(actual) => {
                CURSOR_RETRIES.fetch_add(1, Ordering::Relaxed);
                cur = actual;
            }
        }
    }
}

/// One worker's share of a run: claim morsels until the cursor is
/// exhausted, evaluating `f` over each `[lo, hi)` range and parking the
/// result in that morsel's slot.
fn drain_morsels<R, F>(len: usize, n_morsels: usize, f: &F, state: &RunState<R>)
where
    F: Fn(usize, usize) -> EngineResult<R>,
{
    while let Some(i) = claim(&state.cursor, n_morsels) {
        MORSELS_DISPATCHED.fetch_add(1, Ordering::Relaxed);
        let lo = i * MORSEL_ROWS;
        let hi = ((i + 1) * MORSEL_ROWS).min(len);
        let res = f(lo, hi);
        state.slots.lock().unwrap()[i] = Some(res);
    }
}

/// Evaluate `f` over `[lo, hi)` index ranges covering `[0, len)` in
/// [`MORSEL_ROWS`]-sized morsels, using `workers` lanes (the calling
/// thread plus `workers - 1` pool helpers), and return the per-morsel
/// results **in morsel order**. With `workers <= 1` (or an input of at
/// most one morsel) this is exactly `vec![f(0, len)?]` — the sequential
/// path pays nothing. Errors surface in morsel order: the `Err` a
/// sequential scan would produce first wins.
pub(crate) fn run_morsel_ranges<R, F>(len: usize, workers: usize, f: F) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> EngineResult<R> + Sync,
{
    if workers <= 1 || len <= MORSEL_ROWS {
        return Ok(vec![f(0, len)?]);
    }
    let n_morsels = len.div_ceil(MORSEL_ROWS);
    let workers = workers.min(n_morsels).min(MAX_POOL_WORKERS + 1);
    PARALLEL_RUNS.fetch_add(1, Ordering::Relaxed);
    LAST_WORKERS.store(workers as u64, Ordering::Relaxed);

    let state: Arc<RunState<R>> = Arc::new(RunState {
        cursor: AtomicUsize::new(0),
        slots: Mutex::new((0..n_morsels).map(|_| None).collect()),
        helpers_left: Mutex::new(workers - 1),
        finished: Condvar::new(),
        panicked: AtomicBool::new(false),
    });

    let p = pool();
    p.ensure_workers(workers - 1);
    let fref = &f;
    for _ in 0..workers - 1 {
        let st = Arc::clone(&state);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let _finish = FinishGuard { state: &st };
            drain_morsels(len, n_morsels, fref, &st);
        });
        // SAFETY: the job borrows `f` (and, transitively, whatever `f`
        // borrows) from this stack frame, so the `'static` claim below
        // is a lie the surrounding protocol makes good on: before this
        // frame dies — by return *or* unwind (HelperWait) — the issuing
        // thread blocks until `helpers_left == 0`, and a helper
        // decrements that counter only after its closure has returned
        // or unwound (FinishGuard). Every borrow is therefore dead
        // before the frame is. The counter handshake itself lives in
        // the Arc-owned RunState, not on this stack.
        let job = Job {
            run: unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
            },
        };
        p.submit(job);
    }

    {
        let _wait = HelperWait { state: &state };
        drain_morsels(len, n_morsels, &f, &state);
    }

    if state.panicked.load(Ordering::Relaxed) {
        panic!("morsel worker panicked");
    }
    let slots = std::mem::take(&mut *state.slots.lock().unwrap());
    slots
        .into_iter()
        .map(|s| s.expect("every morsel claimed"))
        .collect()
}

/// Slice flavour of [`run_morsel_ranges`]: evaluate `f` over contiguous
/// morsel-sized sub-slices of `items`, results merged in input order.
pub(crate) fn run_morsels<T, R, F>(items: &[T], workers: usize, f: F) -> EngineResult<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> EngineResult<R> + Sync,
{
    run_morsel_ranges(items.len(), workers, |lo, hi| f(&items[lo..hi]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;

    #[test]
    fn morsels_merge_in_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for workers in [1usize, 2, 4, 7] {
            let parts =
                run_morsels(&items, workers, |chunk| Ok(chunk.to_vec())).expect("no errors");
            let merged: Vec<u64> = parts.into_iter().flatten().collect();
            assert_eq!(merged, items, "workers={workers} broke order");
        }
    }

    #[test]
    fn ranges_cover_exactly_once() {
        let parts = run_morsel_ranges(MORSEL_ROWS * 3 + 17, 4, |lo, hi| Ok((lo, hi))).unwrap();
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
        let err = run_morsels(&items, 4, |chunk| {
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
        // ...by the machine...
        assert_eq!(workers_for(8, 1_000_000, 2), 2);
        // ...and by the pool cap.
        assert_eq!(workers_for(64, 1_000_000, 64), MAX_POOL_WORKERS + 1);
        // Zero-core degenerate input never yields zero workers.
        assert_eq!(workers_for(4, 1_000_000, 0), 1);
    }

    #[test]
    fn stats_count_dispatches_and_workers() {
        let before = parallel_stats();
        let items: Vec<u64> = (0..4 * MORSEL_ROWS as u64).collect();
        let parts = run_morsels(&items, 3, |chunk| Ok(chunk.len() as u64)).unwrap();
        assert_eq!(parts.iter().sum::<u64>(), items.len() as u64);
        let after = parallel_stats();
        assert!(after.morsels_dispatched >= before.morsels_dispatched + 4);
        assert!(after.parallel_runs > before.parallel_runs);
        assert!(after.last_workers >= 1);
    }

    #[test]
    fn pool_survives_shutdown_and_regrows() {
        let items: Vec<u64> = (0..3 * MORSEL_ROWS as u64).collect();
        let sum = |chunk: &[u64]| Ok(chunk.iter().sum::<u64>());
        let total: u64 = run_morsels(&items, 4, sum).unwrap().iter().sum();
        shutdown_pool();
        // After a clean shutdown the pool re-grows lazily and the next
        // run produces identical results.
        let again: u64 = run_morsels(&items, 4, sum).unwrap().iter().sum();
        assert_eq!(total, again);
        shutdown_pool();
    }

    #[test]
    fn a_run_overlapping_a_shutdown_finishes() {
        let items: Vec<u64> = (0..3 * MORSEL_ROWS as u64).collect();
        let done = AtomicBool::new(false);
        let complete = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    shutdown_pool();
                }
            });
            let complete = (0..300).all(|_| {
                run_morsels(&items, 3, |chunk| Ok(chunk.len()))
                    .is_ok_and(|parts| parts.iter().sum::<usize>() == items.len())
            });
            done.store(true, Ordering::Relaxed);
            complete
        });
        assert!(complete);
    }

    #[test]
    fn helper_panic_reaches_the_issuer() {
        let items: Vec<u64> = (0..3 * MORSEL_ROWS as u64).collect();
        let result = std::panic::catch_unwind(|| {
            let _ = run_morsels(&items, 2, |chunk| {
                if chunk.contains(&2_500) {
                    panic!("boom");
                }
                Ok(())
            });
        });
        assert!(result.is_err(), "panic in a morsel must reach the caller");
        // The pool must still be usable afterwards.
        let parts = run_morsels(&items, 2, |chunk| Ok(chunk.len())).unwrap();
        assert_eq!(parts.iter().sum::<usize>(), items.len());
    }
}
