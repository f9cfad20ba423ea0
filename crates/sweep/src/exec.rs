//! The shared sweep execution engine behind `sweep --serve`.
//!
//! One [`WorkerPool`] owns a FIFO work queue that interleaves runs from
//! every concurrent request (replacing the per-sweep atomic cursor the
//! original `sweep_streaming` used), one optional shared
//! [`ResultCache`] handle serves every request, and
//! an in-flight table deduplicates identical [`RunKey`]s
//! *while they are still running* — so N clients sweeping overlapping
//! matrices simulate each distinct point at most once even before its
//! blob lands in the cache.
//!
//! The standalone `sweep_streaming` path builds a transient
//! [`SweepExecutor`] per call, so there is exactly one execution engine:
//! single-client output stays bit-identical to the pre-pool
//! implementation by construction (same prefill rules, same in-order
//! emitter, same [`RunRecord`] rendering).
//!
//! Cancellation is cooperative and per-request: a [`RunControl`] carries
//! a cancel flag plus an optional wall-clock deadline. Jobs belonging to
//! a cancelled request are *skipped* when a worker reaches them (never
//! interrupted mid-simulation — a run already in flight completes and
//! its result still lands in the cache), and the in-order emitter stops
//! at the first unfinished slot. Other requests sharing the pool are
//! untouched.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::{CacheStats, Lookup, ResultCache};
use crate::{
    default_run_timeout, journal, lock_unpoisoned, panic_message, program_slots, run_point,
    stable_hash, ProgramSlot, RunKey, RunRecord, RunSpec, RunStatus, SweepOptions, SweepRequest,
    SweepResponse, SweepResults,
};

/// How often the in-order emitter and the drain paths re-check the
/// cancel flag and deadline while waiting on a condition variable. Pure
/// liveness tuning: correctness never depends on the value.
const POLL: Duration = Duration::from_millis(25);

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    open: bool,
    in_flight: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// A fixed set of worker threads draining one shared FIFO job queue.
///
/// Jobs from concurrent sweep requests interleave in submission order,
/// so no single request can monopolize the pool by arriving first with
/// a huge matrix *and* nothing deadlocks when requests outnumber
/// workers (every job is independent; none blocks on another job's
/// slot). A panicking job is caught and never kills its worker.
///
/// Dropping the pool closes the queue, lets the workers drain what was
/// already submitted, and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                open: true,
                in_flight: 0,
            }),
            work: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweep-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("cannot spawn sweep pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues one job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = lock_unpoisoned(&self.shared.state);
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.work.notify_one();
    }

    /// Jobs submitted but not yet finished (queued + currently running).
    /// The admission-control signal for `--max-pending-runs`.
    pub fn pending(&self) -> usize {
        let state = lock_unpoisoned(&self.shared.state);
        state.queue.len() + state.in_flight
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_unpoisoned(&self.shared.state).open = false;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                if !state.open {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        };
        // A job must never take its worker down with it; run_job already
        // converts run panics into records, so this catch only guards
        // bookkeeping bugs.
        let _ = catch_unwind(AssertUnwindSafe(job));
        lock_unpoisoned(&shared.state).in_flight -= 1;
    }
}

/// One key's in-flight rendezvous cell: the leader publishes the
/// outcome (`Some(record)` for a storable `ok` run, `None` for a
/// failure, which followers must re-attempt) and wakes every follower.
struct RunCell {
    outcome: Mutex<Option<Option<RunRecord>>>,
    ready: Condvar,
}

enum Claim {
    /// This caller simulates the point and must publish via `release`.
    Lead(Arc<RunCell>),
    /// Another request is already simulating the identical point; wait
    /// on the cell.
    Follow(Arc<RunCell>),
}

/// Deduplicates identical [`RunKey`]s *across concurrent requests*: the
/// first job to claim a key becomes the leader and simulates; jobs from
/// other requests holding the same key follow and reuse the leader's
/// record (rebased onto their own spec — legal because equal keys mean
/// equal semantic inputs, hence bit-identical metrics). Failures are
/// not shared: a follower whose leader failed re-claims and re-runs,
/// so one client's panic or timeout never surfaces in another's stream.
#[derive(Default)]
struct InflightTable {
    running: Mutex<BTreeMap<u64, Arc<RunCell>>>,
}

impl InflightTable {
    fn claim(&self, key: RunKey) -> Claim {
        let mut running = lock_unpoisoned(&self.running);
        if let Some(cell) = running.get(&key.as_u64()) {
            return Claim::Follow(Arc::clone(cell));
        }
        let cell = Arc::new(RunCell {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
        });
        running.insert(key.as_u64(), Arc::clone(&cell));
        Claim::Lead(cell)
    }

    /// Publishes the leader's outcome, then retires the key. Publishing
    /// first means a racing `claim` between the two steps still lands on
    /// the resolved cell instead of becoming a redundant leader.
    fn release(&self, key: RunKey, cell: &Arc<RunCell>, outcome: Option<RunRecord>) {
        *lock_unpoisoned(&cell.outcome) = Some(outcome);
        cell.ready.notify_all();
        lock_unpoisoned(&self.running).remove(&key.as_u64());
    }

    fn wait(cell: &Arc<RunCell>) -> Option<RunRecord> {
        let mut guard = lock_unpoisoned(&cell.outcome);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = cell.ready.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Per-request cancellation: a shared cancel flag plus an optional
/// wall-clock deadline. Workers and the in-order emitter check it
/// cooperatively; a run already simulating is never interrupted (its
/// result still lands in the cache for the retry).
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Set to stop scheduling this request's remaining runs. Shared so
    /// a connection's reader thread can flip it mid-stream.
    pub cancel: Arc<AtomicBool>,
    /// Absolute wall-clock deadline; reaching it sets `cancel`.
    pub deadline: Option<Instant>,
}

impl RunControl {
    /// A control that never cancels — the standalone `sweep_streaming`
    /// path.
    pub fn unbounded() -> RunControl {
        RunControl::default()
    }

    /// A control with an absolute deadline.
    pub fn with_deadline(deadline: Instant) -> RunControl {
        RunControl {
            cancel: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation.
    pub fn cancel_now(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested or the deadline passed
    /// (which latches the cancel flag).
    pub fn cancelled(&self) -> bool {
        if self.cancel.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// What one executed request produced. A cancelled request has no
/// [`SweepResponse`] — only the count of records that were streamed in
/// order before cancellation was observed.
#[derive(Debug)]
pub struct ServedSweep {
    /// The complete response; `None` when the request was cancelled.
    pub response: Option<SweepResponse>,
    /// Records handed to the sink (always a matrix-order prefix).
    pub streamed: usize,
    /// Whether the request stopped early via cancel flag or deadline.
    pub cancelled: bool,
}

/// How one request's runs were tracked: pending, finished, or skipped
/// by cancellation.
enum Slot {
    Empty,
    Done(Box<RunRecord>),
    Skipped,
}

/// One request's shared state, visible to its pool jobs and its
/// emitter.
struct ReqState {
    specs: Vec<RunSpec>,
    keys: Vec<RunKey>,
    /// Each spec's program slot, shared by the specs that run the same
    /// program and dropped with the request.
    programs: Vec<ProgramSlot>,
    opts: SweepOptions,
    timeout: Duration,
    slots: Mutex<Vec<Slot>>,
    advanced: Condvar,
    control: RunControl,
    journal: Option<journal::JournalWriter>,
    cache: Option<Arc<ResultCache>>,
    inflight: Arc<InflightTable>,
    io_error: Mutex<Option<String>>,
    simulated: AtomicUsize,
    // Per-request cache tallies. The shared handle's own counters span
    // every request, so each request counts its own traffic for its
    // trailer — a single-request session tallies exactly what the old
    // per-sweep handle reported.
    stores: AtomicU64,
    evictions: AtomicU64,
}

impl ReqState {
    fn report_io(&self, e: String) {
        let mut slot = lock_unpoisoned(&self.io_error);
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    fn fill(&self, index: usize, slot: Slot) {
        lock_unpoisoned(&self.slots)[index] = slot;
        self.advanced.notify_all();
    }

    fn record_done(&self, index: usize, record: RunRecord) {
        if let Some(w) = &self.journal {
            if let Err(e) = w.append(&record, self.keys[index]) {
                self.report_io(e);
            }
        }
        self.fill(index, Slot::Done(Box::new(record)));
    }
}

/// The shared execution engine: a [`WorkerPool`], an optional shared
/// cache handle, and the cross-request in-flight table. `sweep --serve`
/// holds one for its whole lifetime; the standalone sweep path builds a
/// transient one per call.
pub struct SweepExecutor {
    pool: WorkerPool,
    cache: Option<Arc<ResultCache>>,
    inflight: Arc<InflightTable>,
}

impl SweepExecutor {
    /// An executor with `threads` pool workers and an optional shared
    /// cache handle (used by every request regardless of the request's
    /// own cache options).
    pub fn new(threads: usize, cache: Option<Arc<ResultCache>>) -> SweepExecutor {
        SweepExecutor {
            pool: WorkerPool::new(threads),
            cache,
            inflight: Arc::new(InflightTable::default()),
        }
    }

    /// Jobs queued or running across all requests (the admission-control
    /// signal).
    pub fn pending(&self) -> usize {
        self.pool.pending()
    }

    /// Executes one request on the shared pool, streaming records to
    /// `sink` in matrix order, honouring `control` between runs. The
    /// sink runs on the calling thread; concurrent `run` calls from
    /// different threads interleave their jobs on the one pool.
    ///
    /// # Errors
    ///
    /// Journal/cache I/O and resume-validation failures, exactly as
    /// documented on [`crate::sweep`]. Cancellation is not an error.
    pub fn run(
        &self,
        request: &SweepRequest,
        sink: &mut dyn FnMut(&RunRecord),
        control: &RunControl,
    ) -> Result<ServedSweep, String> {
        let matrix = &request.matrix;
        let opts = &request.options;
        let specs = matrix.expand();
        let keys: Vec<RunKey> = specs.iter().map(RunKey::of).collect();
        let hash = stable_hash::matrix_identity(&keys);
        let mut prefilled: Vec<Option<RunRecord>> = vec![None; specs.len()];
        let writer = match &opts.journal {
            Some(path) => {
                if opts.resume && path.exists() {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
                    prefilled = journal::load_journal(&text, hash, &specs)?;
                    Some(journal::JournalWriter::append_existing(path)?)
                } else {
                    Some(journal::JournalWriter::create(path, hash, specs.len())?)
                }
            }
            None if opts.resume => {
                return Err("resume needs a journal path (set SweepOptions::journal)".into())
            }
            None => None,
        };
        let cache = match &self.cache {
            Some(shared) => Some(Arc::clone(shared)),
            None => match &opts.cache {
                Some(dir) => Some(Arc::new(ResultCache::open(dir, opts.cache_capacity)?)),
                None => None,
            },
        };
        let (mut hits, mut misses, mut corrupt) = (0u64, 0u64, 0u64);
        if let Some(cache) = &cache {
            // Journal pre-fill wins (it is this sweep's own prior
            // progress); the cache covers the remaining slots. Hits are
            // journaled so a later --resume of the same journal
            // converges without the cache.
            for (i, slot) in prefilled.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                match cache.lookup(keys[i], &specs[i]) {
                    Lookup::Hit(record) => {
                        if let Some(w) = &writer {
                            w.append(&record, keys[i])?;
                        }
                        hits += 1;
                        *slot = Some(*record);
                    }
                    Lookup::Absent => misses += 1,
                    Lookup::Corrupt => {
                        misses += 1;
                        corrupt += 1;
                    }
                }
            }
        }
        let timeout = opts
            .run_timeout
            .unwrap_or_else(|| default_run_timeout(matrix.budget));
        let run_count = specs.len();
        let slots: Vec<Slot> = prefilled
            .into_iter()
            .map(|p| p.map_or(Slot::Empty, |r| Slot::Done(Box::new(r))))
            .collect();
        let state = Arc::new(ReqState {
            programs: program_slots(&specs),
            specs,
            keys,
            opts: opts.clone(),
            timeout,
            slots: Mutex::new(slots),
            advanced: Condvar::new(),
            control: control.clone(),
            journal: writer,
            cache,
            inflight: Arc::clone(&self.inflight),
            io_error: Mutex::new(None),
            simulated: AtomicUsize::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        });
        for i in 0..run_count {
            if matches!(lock_unpoisoned(&state.slots)[i], Slot::Empty) {
                let state = Arc::clone(&state);
                self.pool.submit(move || run_job(&state, i));
            }
        }
        // In-order emitter on the calling thread, polling so an
        // asynchronous cancel (reader thread, deadline) is observed even
        // while every slot it is waiting on is still empty.
        let mut streamed = 0usize;
        let mut cancelled = false;
        'emit: for i in 0..run_count {
            let record = {
                let mut guard = lock_unpoisoned(&state.slots);
                loop {
                    match &guard[i] {
                        Slot::Done(record) => break record.as_ref().clone(),
                        Slot::Skipped => {
                            cancelled = true;
                            break 'emit;
                        }
                        Slot::Empty => {
                            if state.control.cancelled() {
                                cancelled = true;
                                break 'emit;
                            }
                            let (g, _) = state
                                .advanced
                                .wait_timeout(guard, POLL)
                                .unwrap_or_else(|p| p.into_inner());
                            guard = g;
                        }
                    }
                }
            };
            sink(&record);
            streamed += 1;
        }
        if cancelled {
            return Ok(ServedSweep {
                response: None,
                streamed,
                cancelled: true,
            });
        }
        if let Some(e) = lock_unpoisoned(&state.io_error).take() {
            return Err(e);
        }
        let runs: Vec<RunRecord> = lock_unpoisoned(&state.slots)
            .iter()
            .map(|slot| match slot {
                Slot::Done(record) => record.as_ref().clone(),
                // The emitter above walked every index without seeing a
                // skip, so every slot is Done.
                Slot::Empty | Slot::Skipped => unreachable!("emitted sweep has a record per slot"),
            })
            .collect();
        let cache_stats = CacheStats {
            hits,
            misses,
            stores: state.stores.load(Ordering::Relaxed),
            evictions: state.evictions.load(Ordering::Relaxed),
            corrupt,
        };
        Ok(ServedSweep {
            response: Some(SweepResponse {
                results: SweepResults {
                    matrix: matrix.clone(),
                    runs,
                },
                simulated: state.simulated.load(Ordering::Relaxed),
                cache: cache_stats,
            }),
            streamed,
            cancelled: false,
        })
    }
}

/// One pool job: resolve matrix index `i` of `state`'s request, via
/// skip (cancelled), in-flight follow, late cache hit, or a fresh
/// simulation.
fn run_job(state: &Arc<ReqState>, i: usize) {
    if state.control.cancelled() {
        state.fill(i, Slot::Skipped);
        return;
    }
    let key = state.keys[i];
    loop {
        match state.inflight.claim(key) {
            Claim::Lead(cell) => {
                let spec = &state.specs[i];
                // Re-check the cache at claim time: a concurrent request
                // may have stored this exact point between our prefill
                // and now. The prefill already counted the miss, so a
                // late hit adjusts nothing — it only avoids paying for a
                // duplicate simulation.
                if let Some(cache) = &state.cache {
                    if let Lookup::Hit(record) = cache.lookup(key, spec) {
                        state
                            .inflight
                            .release(key, &cell, Some(record.as_ref().clone()));
                        state.record_done(i, *record);
                        return;
                    }
                }
                let record = catch_unwind(AssertUnwindSafe(|| {
                    run_point(spec, &state.programs[i], &state.opts, state.timeout)
                }))
                .unwrap_or_else(|payload| {
                    RunRecord::failed(
                        spec,
                        RunStatus::Panicked {
                            msg: panic_message(payload.as_ref()),
                        },
                    )
                });
                state.simulated.fetch_add(1, Ordering::Relaxed);
                if record.status.is_ok() {
                    if let Some(cache) = &state.cache {
                        match cache.store(&record, key) {
                            Ok(evicted) => {
                                state.stores.fetch_add(1, Ordering::Relaxed);
                                state.evictions.fetch_add(evicted, Ordering::Relaxed);
                            }
                            Err(e) => state.report_io(e),
                        }
                    }
                }
                let shared = record.status.is_ok().then(|| record.clone());
                state.inflight.release(key, &cell, shared);
                state.record_done(i, record);
                return;
            }
            Claim::Follow(cell) => match InflightTable::wait(&cell) {
                Some(peer) => {
                    // Equal keys mean equal semantic inputs, so the
                    // peer's metrics are bit-identical to what we would
                    // have simulated; only the spec (index, findings)
                    // is ours.
                    state.record_done(i, peer.rebase(&state.specs[i]));
                    return;
                }
                // The leader failed; its failure belongs to its own
                // stream. Re-claim (we may become the new leader) and
                // attempt the point ourselves.
                None => std::thread::yield_now(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DvfsPoint, ModePoint, SweepMatrix, WORKLOAD_SEED};
    use gals_workload::{Benchmark, Workload};

    fn tiny_matrix() -> SweepMatrix {
        SweepMatrix {
            benchmarks: vec![Workload::Profile(Benchmark::Adpcm)],
            modes: vec![
                ModePoint::Synchronous,
                ModePoint::Gals {
                    wakeup_filter: false,
                },
            ],
            dvfs: vec![DvfsPoint::nominal()],
            phase_seeds: vec![1],
            workload_seed: WORKLOAD_SEED,
            budget: 400,
            retries: 0,
            run_timeout_ms: None,
        }
    }

    #[test]
    fn pool_runs_jobs_and_drains_on_drop() {
        let pool = WorkerPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins after draining the queue
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job bug"));
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.submit(move || flag.store(true, Ordering::Relaxed));
        drop(pool);
        assert!(ran.load(Ordering::Relaxed));
    }

    #[test]
    fn a_pre_cancelled_request_simulates_nothing() {
        let executor = SweepExecutor::new(2, None);
        let control = RunControl::unbounded();
        control.cancel_now();
        let request = SweepRequest::new(tiny_matrix());
        let served = executor
            .run(&request, &mut |_| panic!("nothing should stream"), &control)
            .expect("run");
        assert!(served.cancelled);
        assert_eq!(served.streamed, 0);
        assert!(served.response.is_none());
    }

    #[test]
    fn followers_reuse_the_leader_outcome() {
        let table = InflightTable::default();
        let specs = tiny_matrix().expand();
        let key = RunKey::of(&specs[0]);
        let Claim::Lead(lead_cell) = table.claim(key) else {
            panic!("first claim must lead");
        };
        let Claim::Follow(follow_cell) = table.claim(key) else {
            panic!("second claim must follow");
        };
        let record = specs[0].run();
        table.release(key, &lead_cell, Some(record.clone()));
        assert_eq!(InflightTable::wait(&follow_cell), Some(record));
        // The key is retired: the next claim leads again.
        assert!(matches!(table.claim(key), Claim::Lead(_)));
    }

    #[test]
    fn a_failed_leader_makes_followers_retry() {
        let table = InflightTable::default();
        let specs = tiny_matrix().expand();
        let key = RunKey::of(&specs[0]);
        let Claim::Lead(lead_cell) = table.claim(key) else {
            panic!("first claim must lead");
        };
        let Claim::Follow(follow_cell) = table.claim(key) else {
            panic!("second claim must follow");
        };
        table.release(key, &lead_cell, None);
        assert_eq!(InflightTable::wait(&follow_cell), None);
    }
}
