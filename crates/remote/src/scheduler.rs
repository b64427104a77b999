//! The fault-tolerant coordinator scheduler.
//!
//! One driver thread per worker pulls batches of cell keys from a
//! shared queue of **plan groups** ([`Matrix::missing_cell_groups`]: the
//! cells of one benchmark on every machine with one front end, whose
//! plans share a few streams). A claim takes whole groups, in canonical
//! order, until it holds at least the worker's advertised capacity in
//! cells, so a 16-way daemon claims a few groups while a laptop claims
//! one. That is the capacity-weighted partition of the key space (and,
//! unlike a static split, it keeps every worker busy until the queue is
//! empty no matter how wrong the capacities are about real speed). A
//! group never splits across workers, so each daemon lowers each of a
//! group's streams once, makes each plan and replay once and drops the
//! plans and streams when the batch is done. Each cell has exactly one
//! copy in flight, so the fleet does exactly the in-process engine's
//! plan work.
//!
//! Each worker's thread holds one batch at a time: it issues the batch
//! and reads it to its `Done` before it claims the next, so the cells a
//! worker owes are always the undelivered cells of that one batch.
//!
//! Fault model: a worker may die at any point — refuse the dial, drop
//! mid-batch, go **silent past the heartbeat deadline** (the link
//! surfaces that as a timed-out read; see `client`), claim `Done` while
//! cells are still owed. In every case the cells that worker still owed
//! go back on the queue for the survivors, each re-queue charging that
//! cell's retry budget; a cell that exhausts the budget aborts the run
//! (it is killing workers, not unlucky), and a queue that still holds
//! cells when every driver has exited surfaces as a drained-pool
//! [`BackendError`] naming the worker failures. A worker that delivers
//! a cell it does not owe (a duplicate, or a key outside the matrix)
//! aborts the run: no copy of a cell is ever expected twice.
//!
//! An idle driver does not exit just because the queue is momentarily
//! empty: while any *other* driver still has cells in flight, those
//! cells may yet be re-queued by a death. It parks on a condvar, waking
//! when work reappears (or everything resolves).
//!
//! The scheduler is deliberately transport-free: drivers speak to a
//! [`WorkerLink`], and the [`Dialer`] that produces links is a
//! parameter. [`crate::client::dial`] is the TCP implementation; tests
//! inject in-memory links to pin the failover behaviour without sockets.
//!
//! Determinism: completed reports are keyed by cell key and the final
//! sweep is assembled by the engine's own seeded run
//! ([`Matrix::run_with`]), exactly like a `--load` of merged shard saves
//! — so *which* worker computed a cell, and in what order, cannot
//! influence a single byte of the result.

use crate::lock_or_recover;
use crate::{BackendError, RemoteOptions};
use sdiq_core::{ArtifactCache, CellSink, Matrix, RunReport, Sweep};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::SystemTime;

/// One scheduler liveness verdict, recorded as it happens: a worker
/// presumed hung past the heartbeat deadline, cells re-queued after a
/// death, a failed dial. The coordinator prints the collected events as
/// a summary at the end of the run (the moment-of-occurrence
/// `eprintln!`s stay — scripts grep them — but they scroll away; the
/// summary is the record).
#[derive(Debug, Clone)]
pub struct LivenessEvent {
    /// Wall-clock time of the verdict (spans machines, unlike the
    /// monotonic trace clock).
    pub wall: SystemTime,
    /// The worker address the verdict is about.
    pub worker: String,
    /// Verdict kind: `presumed-hung`, `re-queue`, `dial-failed`.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// `wall` as `unix-seconds.millis` for the summary lines.
fn wall_stamp(wall: SystemTime) -> String {
    match wall.duration_since(std::time::UNIX_EPOCH) {
        Ok(since) => format!("{}.{:03}", since.as_secs(), since.subsec_millis()),
        Err(_) => "0.000".to_string(),
    }
}

/// A connected worker, as one driver thread sees it.
pub trait WorkerLink: Send {
    /// The capacity the worker advertised in its `Hello`.
    fn capacity(&self) -> usize;

    /// Submits a batch of cell keys.
    fn submit(&mut self, keys: &[String]) -> io::Result<()>;

    /// Blocks for the next scheduling event (heartbeats are skipped
    /// inside the link — each one resets the read deadline, which is how
    /// a slow-but-alive worker stays alive). A worker silent past the
    /// heartbeat deadline surfaces as an [`io::ErrorKind::TimedOut`]
    /// error, which the scheduler treats exactly like a death.
    fn recv(&mut self) -> io::Result<WorkerEvent>;
}

/// What a worker's stream yields between `submit` calls.
#[derive(Debug)]
pub enum WorkerEvent {
    /// One finished cell (boxed: the report dwarfs the other variant).
    Cell(String, Box<RunReport>),
    /// The submitted batch is fully delivered.
    Done,
}

/// Produces a connected [`WorkerLink`] for one worker address; the
/// options carry what the link needs (the `RunCells` matrix description,
/// the connect timeout, the heartbeat deadline).
pub type Dialer = fn(&str, &RemoteOptions, u64) -> io::Result<Box<dyn WorkerLink>>;

/// The work ledger: pending plan groups plus the number of claimed
/// cells with no recorded result — guarded together so
/// [`State::claim`] can park on one condvar until either changes.
struct WorkState {
    /// Cell keys waiting for a worker, in plan groups (never empty ones):
    /// the matrix's groups in canonical order, then each dead worker's
    /// owed keys as one group.
    queue: VecDeque<Vec<String>>,
    /// Cells claimed by a driver whose result has not been recorded.
    in_flight: usize,
    /// Mirror of the fatal flag, kept under this lock so parked
    /// claimers observe it without a second mutex.
    fatal: bool,
}

/// Shared scheduler state. Lock discipline where locks nest:
/// `retries` → `work` → (`failures` | `fatal`), and the condvar is
/// always signalled while holding `work` so a claimer cannot miss a
/// wakeup between its check and its wait.
struct State {
    /// Pending/in-flight ledger (see [`WorkState`]).
    work: Mutex<WorkState>,
    /// Wakes parked claimers when the ledger changes.
    work_changed: Condvar,
    /// Per-cell re-queue counts.
    retries: Mutex<HashMap<String, usize>>,
    /// Completed cells by key.
    completed: Mutex<HashMap<String, RunReport>>,
    /// First unrecoverable failure message (the flag lives in
    /// [`WorkState::fatal`]).
    fatal: Mutex<Option<String>>,
    /// Human-readable record of every worker failure (for the
    /// drained-pool error).
    failures: Mutex<Vec<String>>,
    /// Liveness verdicts in occurrence order (see [`LivenessEvent`]).
    liveness: Mutex<Vec<LivenessEvent>>,
}

impl State {
    fn new(pending: Vec<Vec<String>>) -> State {
        State {
            work: Mutex::new(WorkState {
                queue: pending.into(),
                in_flight: 0,
                fatal: false,
            }),
            work_changed: Condvar::new(),
            retries: Mutex::new(HashMap::new()),
            completed: Mutex::new(HashMap::new()),
            fatal: Mutex::new(None),
            failures: Mutex::new(Vec::new()),
            liveness: Mutex::new(Vec::new()),
        }
    }

    /// Records one liveness verdict, mirrored into the trace (an instant
    /// event on the coordinator's lane — a no-op unless tracing is on).
    fn note(&self, worker: &str, kind: &'static str, detail: String) {
        sdiq_obs::instant(kind, "sched", &[("worker", worker), ("detail", &detail)]);
        lock_or_recover(&self.liveness).push(LivenessEvent {
            wall: SystemTime::now(),
            worker: worker.to_string(),
            kind,
            detail,
        });
    }

    fn fatal_is_set(&self) -> bool {
        lock_or_recover(&self.work).fatal
    }

    fn set_fatal(&self, message: String) {
        lock_or_recover(&self.fatal).get_or_insert(message);
        let mut work = lock_or_recover(&self.work);
        work.fatal = true;
        // Parked claimers must wake to observe the abort; signalling
        // under the work lock closes the check-then-wait window.
        self.work_changed.notify_all();
    }

    /// Claims whole plan groups off the front of the queue until the
    /// batch holds at least `capacity` cells (or the queue is empty),
    /// counting its cells in flight. While the queue is empty but other
    /// workers still have cells in flight, **parks** (a death could hand
    /// cells back at any moment). Returns an empty batch only when the
    /// run is over for this worker: nothing pending, nothing in flight
    /// anywhere — or the run turned fatal.
    fn claim(&self, capacity: usize) -> Vec<String> {
        let mut work = lock_or_recover(&self.work);
        loop {
            if work.fatal {
                return Vec::new();
            }
            if !work.queue.is_empty() {
                let mut batch: Vec<String> = Vec::new();
                while batch.len() < capacity.max(1) {
                    match work.queue.pop_front() {
                        Some(group) => batch.extend(group),
                        None => break,
                    }
                }
                work.in_flight += batch.len();
                return batch;
            }
            if work.in_flight == 0 {
                return Vec::new();
            }
            work = self
                .work_changed
                .wait(work)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records the one result of an in-flight cell, waking parked
    /// claimers if it was the last cell in flight (the queue must be
    /// empty too, or they would not be parked, so the run is over).
    fn complete(&self, key: String, report: RunReport) {
        lock_or_recover(&self.completed).insert(key, report);
        let mut work = lock_or_recover(&self.work);
        work.in_flight -= 1;
        if work.in_flight == 0 {
            self.work_changed.notify_all();
        }
    }

    /// Returns a dead worker's owed cells to the back of the queue as one
    /// group, so one survivor claims them together (waking parked
    /// survivors), charging each cell's retry budget; a cell over budget
    /// turns the failure fatal.
    fn requeue(&self, addr: &str, owed: Vec<String>, retry_budget: usize, why: &str) {
        lock_or_recover(&self.failures).push(format!("worker {addr}: {why}"));
        let mut retries = lock_or_recover(&self.retries);
        let mut work = lock_or_recover(&self.work);
        work.in_flight -= owed.len();
        for key in &owed {
            let count = retries.entry(key.clone()).or_insert(0);
            *count += 1;
            if *count > retry_budget {
                let count = *count;
                drop(work);
                drop(retries);
                self.set_fatal(format!(
                    "cell `{key}` was re-queued {count} times (retry budget \
                     {retry_budget}) — aborting instead of killing more workers"
                ));
                return;
            }
        }
        let requeued = owed.len();
        if requeued > 0 {
            work.queue.push_back(owed);
        }
        eprintln!("remote: worker {addr} failed ({why}); re-queueing {requeued} in-flight cell(s)");
        sdiq_obs::metrics().requeues.add(requeued as u64);
        self.note(
            addr,
            "re-queue",
            format!("{requeued} cell(s) re-queued: {why}"),
        );
        self.work_changed.notify_all();
    }
}

/// Runs `matrix`'s missing cells over the remote worker pool —
/// `spec.workers` addresses dialed through `dialer` — and assembles the
/// full sweep (see the module docs for the scheduling and fault model).
/// Production callers go through [`crate::run`], which plugs in TCP.
pub fn run(
    matrix: &Matrix<'_>,
    spec: &RemoteOptions,
    seed: &HashMap<String, RunReport>,
    sink: Option<&dyn CellSink>,
    dialer: Dialer,
) -> Result<Sweep, BackendError> {
    if spec.workers.is_empty() {
        return Err(BackendError::new(
            "remote backend needs at least one worker (a --workers address)",
        ));
    }
    let fingerprint = sdiq_core::matrix_fingerprint(&matrix.cell_keys());
    let expected: HashSet<String> = matrix.cell_keys().into_iter().collect();
    let state = State::new(matrix.missing_cell_groups(seed));

    std::thread::scope(|scope| {
        for addr in &spec.workers {
            let state = &state;
            let expected = &expected;
            scope.spawn(move || {
                drive_worker(addr, spec, fingerprint, state, expected, sink, dialer)
            });
        }
    });

    // The coordinator's closing summaries: liveness verdicts (printed
    // even on a failed run — that is when they matter most) and each
    // worker's share of this run.
    {
        let liveness = lock_or_recover(&state.liveness);
        if !liveness.is_empty() {
            eprintln!("remote: liveness summary ({} event(s)):", liveness.len());
            for event in liveness.iter() {
                eprintln!(
                    "remote:   [{}] {} worker {}: {}",
                    wall_stamp(event.wall),
                    event.kind,
                    event.worker,
                    event.detail
                );
            }
        }
    }
    let (elapsed, workers) = crate::fleet::snapshot();
    for (addr, tally) in workers {
        eprintln!(
            "remote: worker {addr}: {} cell(s) done, {:.0} sim-inst/s",
            tally.cells,
            tally.instructions_per_second(elapsed)
        );
    }

    if let Some(fatal) = state
        .fatal
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(BackendError::new(fatal));
    }
    let completed = state
        .completed
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut merged = seed.clone();
    merged.extend(completed);
    let missing = matrix.missing_cells(&merged);
    if missing > 0 {
        let failures = state
            .failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let detail = if failures.is_empty() {
            "no worker reported an error".to_string()
        } else {
            failures.join("; ")
        };
        return Err(BackendError::new(format!(
            "remote worker pool drained with {missing} cell(s) unfinished — {detail}"
        )));
    }
    // Assembly only: every cell is seeded, nothing is recomputed, and the
    // sweep is bit-identical to a serial run.
    Ok(matrix.run_with(&ArtifactCache::new(), &merged))
}

/// One worker's loop: dial, then claim a batch, issue it and read
/// it to its `Done`, until the queue is empty, the worker dies or goes
/// silent past the heartbeat deadline, or the run turns fatal.
///
/// The loop holds **one batch at a time**. A batch is whole plan groups
/// and a daemon computes a connection's batches one after another, so a
/// second batch queued behind the first would save at most one round
/// trip per batch. Reading every batch to its `Done` is also what
/// delivers the batch's `TraceEvents` frame, which a daemon sends right
/// before it.
fn drive_worker(
    addr: &str,
    spec: &RemoteOptions,
    fingerprint: u64,
    state: &State,
    expected: &HashSet<String>,
    sink: Option<&dyn CellSink>,
    dialer: Dialer,
) {
    let retry_budget = spec.retry_budget;
    let mut link = match dialer(addr, spec, fingerprint) {
        Ok(link) => link,
        Err(error) => {
            // Nothing was claimed yet, so nothing re-queues; the worker
            // simply never joins the pool.
            lock_or_recover(&state.failures).push(format!("worker {addr}: dial failed: {error}"));
            eprintln!("remote: worker {addr}: dial failed: {error}");
            state.note(addr, "dial-failed", error.to_string());
            return;
        }
    };
    let capacity = link.capacity().max(1);
    loop {
        // Parks while other workers still hold cells; empty once nothing
        // is pending or in flight anywhere (or the run turned fatal),
        // which releases the worker (drop closes the link).
        let batch = state.claim(capacity);
        if batch.is_empty() {
            return;
        }
        if let Err(error) = issue(&mut *link, addr, &batch) {
            state.requeue(
                addr,
                batch,
                retry_budget,
                &format!("submit failed: {error}"),
            );
            return;
        }
        // The batch's keys not yet delivered.
        let mut owed: HashSet<String> = batch.into_iter().collect();
        loop {
            if state.fatal_is_set() {
                return;
            }
            match link.recv() {
                Ok(WorkerEvent::Cell(key, report)) => {
                    if !owed.remove(&key) {
                        // A key this worker does not owe: a foreign key, a
                        // duplicate, or another worker's cell. Each cell has
                        // one copy in flight, so accepting it could only mask
                        // a real fault — abort.
                        state.set_fatal(if expected.contains(&key) {
                            format!("worker {addr} delivered a cell it was not asked for (`{key}`)")
                        } else {
                            format!(
                                "worker {addr} delivered a foreign cell key (`{key}`) — \
                                 worker and coordinator configurations disagree"
                            )
                        });
                        return;
                    }
                    // Tallied before the sink sees the cell, so a
                    // progress line counts it.
                    crate::fleet::record_cell(addr, report.stats.committed);
                    if let Some(sink) = sink {
                        sink.cell_complete(&key, &report);
                    }
                    state.complete(key, *report);
                }
                Ok(WorkerEvent::Done) if owed.is_empty() => break,
                Ok(WorkerEvent::Done) => {
                    state.requeue(
                        addr,
                        owed.into_iter().collect(),
                        retry_budget,
                        "batch reported done with cells still owed",
                    );
                    return;
                }
                Err(error) if owed.is_empty() => {
                    // Every cell has arrived; only the batch's closing
                    // frames are lost, and the worker owes nothing. The
                    // record names it if the pool drains without it.
                    lock_or_recover(&state.failures)
                        .push(format!("worker {addr}: {error} after its last cell"));
                    eprintln!(
                        "remote: worker {addr}: {error} after its last cell; it owes nothing"
                    );
                    return;
                }
                Err(error) => {
                    // A timed-out read is the heartbeat deadline tripping:
                    // record the verdict before the re-queue that follows
                    // from it.
                    if error.kind() == io::ErrorKind::TimedOut {
                        sdiq_obs::metrics().deadline_verdicts.inc();
                        state.note(addr, "presumed-hung", error.to_string());
                    }
                    state.requeue(
                        addr,
                        owed.into_iter().collect(),
                        retry_budget,
                        &format!("died mid-batch: {error}"),
                    );
                    return;
                }
            }
        }
    }
}

/// Sends `batch` to the worker inside an `issue-batch` span and counts it.
fn issue(link: &mut dyn WorkerLink, addr: &str, batch: &[String]) -> io::Result<()> {
    let _span = sdiq_obs::span("issue-batch", "sched")
        .map(|s| s.arg("worker", addr).arg("cells", &batch.len().to_string()));
    link.submit(batch)?;
    sdiq_obs::metrics().batches_issued.inc();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_core::{cell_key, MatrixSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;
    use std::time::Duration;

    fn tiny_spec() -> MatrixSpec {
        MatrixSpec {
            scale: 0.05,
            sweeps: Vec::new(),
            benchmarks: vec!["gzip".to_string(), "mcf".to_string()],
            techniques: vec!["baseline".to_string(), "noop".to_string()],
        }
    }

    /// Precomputed reports for the tiny matrix, shared across tests so
    /// fake workers "compute" cells by lookup.
    fn oracle() -> &'static HashMap<String, RunReport> {
        static ORACLE: OnceLock<HashMap<String, RunReport>> = OnceLock::new();
        ORACLE.get_or_init(|| {
            let spec = tiny_spec();
            let experiment = spec.experiment();
            let matrix = spec.matrix(&experiment).unwrap();
            let sweep = matrix.run();
            matrix.collect_cells(&sweep).into_iter().collect()
        })
    }

    /// An in-memory worker: serves cells from the oracle, with optional
    /// scripted death or hang after a given number of delivered cells
    /// and an optional per-event delay (a deterministic straggler).
    struct FakeLink {
        capacity: usize,
        /// Cells queued by `submit`, not yet delivered.
        pending: VecDeque<String>,
        /// Delivered-cell countdown; reaching zero kills the link.
        die_after: Option<usize>,
        /// Delivered-cell countdown; reaching zero makes every further
        /// `recv` report a heartbeat-deadline timeout — the wire-visible
        /// signature of a hung worker under the liveness layer.
        hang_after: Option<usize>,
        /// `Done` frames owed after the last pending cell — one per
        /// `submit`, like the real daemon.
        done_owed: usize,
        /// Delivers this key instead of the first requested one.
        alias_first_to: Option<String>,
        /// Re-delivers the first key of each batch a second time, after
        /// the batch (a worker-side duplicate).
        duplicate_first: bool,
        /// Sleep this long at every `recv` (straggler script).
        delay: Option<Duration>,
        delivered: &'static AtomicUsize,
        /// When set, records the high-water mark of queued-but-undelivered
        /// cells — how many cells the scheduler keeps outstanding.
        high_water: Option<&'static AtomicUsize>,
        /// When set, records what the link saw in [`SEEN`] under this
        /// address.
        log: Option<String>,
        seen: Seen,
    }

    /// What one logged link saw: every submitted batch, and the `Done`
    /// frames still unread when the scheduler dropped it.
    #[derive(Debug, Clone, Default)]
    struct Seen {
        batches: Vec<Vec<String>>,
        unread_dones: usize,
    }

    static SEEN: Mutex<Vec<(String, Seen)>> = Mutex::new(Vec::new());

    /// What the logged link dialed as `addr` saw (after it was dropped).
    fn seen(addr: &str) -> Seen {
        lock_or_recover(&SEEN)
            .iter()
            .find(|(logged, _)| logged == addr)
            .map(|(_, seen)| seen.clone())
            .unwrap_or_else(|| panic!("no link logged as `{addr}`"))
    }

    impl Drop for FakeLink {
        fn drop(&mut self) {
            if let Some(addr) = self.log.take() {
                self.seen.unread_dones = self.done_owed;
                lock_or_recover(&SEEN).push((addr, std::mem::take(&mut self.seen)));
            }
        }
    }

    impl WorkerLink for FakeLink {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn submit(&mut self, keys: &[String]) -> io::Result<()> {
            self.pending.extend(keys.iter().cloned());
            if self.duplicate_first {
                if let Some(first) = keys.first() {
                    self.pending.push_back(first.clone());
                }
            }
            self.done_owed += 1;
            if self.log.is_some() {
                self.seen.batches.push(keys.to_vec());
            }
            if let Some(high_water) = self.high_water {
                high_water.fetch_max(self.pending.len(), Ordering::Relaxed);
            }
            Ok(())
        }

        fn recv(&mut self) -> io::Result<WorkerEvent> {
            if let Some(delay) = self.delay {
                std::thread::sleep(delay);
            }
            if let Some(0) = self.die_after {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "scripted death",
                ));
            }
            if let Some(0) = self.hang_after {
                // What `client::dial`'s link reports when the socket was
                // silent past the heartbeat deadline.
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "silent past the 200ms heartbeat deadline — presumed hung",
                ));
            }
            match self.pending.pop_front() {
                Some(key) => {
                    if let Some(budget) = &mut self.die_after {
                        *budget -= 1;
                    }
                    if let Some(budget) = &mut self.hang_after {
                        *budget -= 1;
                    }
                    let report = oracle()
                        .get(&key)
                        .expect("oracle covers the matrix")
                        .clone();
                    // An aliasing worker computes the right cell but labels
                    // it with a key the coordinator never asked it for.
                    let key = self.alias_first_to.take().unwrap_or(key);
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                    Ok(WorkerEvent::Cell(key, Box::new(report)))
                }
                None if self.done_owed > 0 => {
                    self.done_owed -= 1;
                    Ok(WorkerEvent::Done)
                }
                None => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "nothing submitted",
                )),
            }
        }
    }

    static DELIVERED: AtomicUsize = AtomicUsize::new(0);
    static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

    /// Addresses script the fake transport: `cap<N>` sets capacity,
    /// `die<N>` kills the link after N delivered cells, `hang<N>` turns
    /// every recv after N delivered cells into a heartbeat-deadline
    /// timeout, `slow<N>` sleeps N ms at every recv, `late<N>` sleeps N ms
    /// in the dial, `refuse` fails the dial, `alias` mis-delivers the
    /// first cell, `dup` re-delivers each batch's first cell twice, `log`
    /// records what the link saw (see [`seen`]).
    fn fake_dial(addr: &str, _: &RemoteOptions, _: u64) -> io::Result<Box<dyn WorkerLink>> {
        if addr.contains("refuse") {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"));
        }
        let script = |token: &str| {
            addr.split(token).nth(1).and_then(|rest| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse::<usize>()
                    .ok()
            })
        };
        let capacity = script("cap").unwrap_or(1);
        let die_after = script("die");
        let hang_after = script("hang");
        let delay = script("slow").map(|ms| Duration::from_millis(ms as u64));
        if let Some(ms) = script("late") {
            std::thread::sleep(Duration::from_millis(ms as u64));
        }
        let alias_first_to = addr.contains("alias").then(|| {
            let spec = tiny_spec();
            let experiment = spec.experiment();
            cell_key(
                &experiment,
                &sdiq_core::ConfigVariant::base(&experiment),
                sdiq_workloads::Benchmark::Gcc, // not in the tiny matrix
                sdiq_core::Technique::Baseline,
            )
        });
        Ok(Box::new(FakeLink {
            capacity,
            pending: VecDeque::new(),
            die_after,
            hang_after,
            done_owed: 0,
            alias_first_to,
            duplicate_first: addr.contains("dup"),
            delay,
            delivered: &DELIVERED,
            high_water: addr.contains("watermark").then_some(&HIGH_WATER),
            log: addr.contains("log").then(|| addr.to_string()),
            seen: Seen::default(),
        }))
    }

    fn run_fake(workers: &[&str], retry_budget: usize) -> Result<Sweep, BackendError> {
        let remote = RemoteOptions {
            workers: workers.iter().map(|w| w.to_string()).collect(),
            retry_budget,
            connect_timeout: Duration::from_secs(5),
            heartbeat_deadline: Duration::from_millis(200),
            ..RemoteOptions::new(tiny_spec())
        };
        let experiment = remote.spec.experiment();
        let matrix = remote.spec.matrix(&experiment).unwrap();
        run(&matrix, &remote, &HashMap::new(), None, fake_dial)
    }

    fn serial() -> Sweep {
        let spec = tiny_spec();
        let experiment = spec.experiment();
        spec.matrix(&experiment).unwrap().run()
    }

    #[test]
    fn healthy_pool_produces_the_serial_sweep() {
        let sweep = run_fake(&["a-cap1", "b-cap2"], 0).unwrap();
        assert_eq!(sweep, serial(), "remote assembly is bit-identical");
    }

    #[test]
    fn a_worker_holds_one_batch_at_a_time() {
        // A capacity-1 worker claims one plan group (two cells here) and
        // is sent the next group only after the first one's `Done`, so at
        // most one group's cells are ever outstanding. A scheduler that
        // queued the next group behind the current one's last cell would
        // peak at three.
        HIGH_WATER.store(0, Ordering::Relaxed);
        let sweep = run_fake(&["a-cap1-watermark"], 0).unwrap();
        assert_eq!(sweep, serial(), "the run is bit-identical");
        assert_eq!(
            HIGH_WATER.load(Ordering::Relaxed),
            2,
            "a worker holds one group's cells at a time"
        );
    }

    /// The tiny matrix's plan groups: one per benchmark, two cells each.
    fn groups() -> Vec<Vec<String>> {
        let spec = tiny_spec();
        let experiment = spec.experiment();
        let groups = spec
            .matrix(&experiment)
            .unwrap()
            .missing_cell_groups(&HashMap::new());
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|group| group.len() == 2));
        groups
    }

    #[test]
    fn a_claim_takes_whole_plan_groups_and_every_batch_is_acknowledged() {
        // A capacity-1 worker gets one group per batch, in canonical
        // order; a capacity-3 worker takes groups until it holds three
        // cells, i.e. both. Each driver reads every batch's `Done` before
        // it drops the link: a daemon sends the batch's spans right
        // before that frame.
        for (addr, batches) in [
            ("claims-cap1-log", groups()),
            ("claims-cap3-log", vec![groups().concat()]),
        ] {
            let sweep = run_fake(&[addr], 0).unwrap();
            assert_eq!(sweep, serial(), "{addr}");
            let seen = seen(addr);
            assert_eq!(seen.batches, batches, "{addr}");
            assert_eq!(
                seen.unread_dones, 0,
                "{addr}: a batch was left unacknowledged"
            );
        }
    }

    #[test]
    fn a_dead_workers_owed_cells_are_claimed_together_by_the_survivor() {
        // `a` claims both groups in one batch, delivers its first cell
        // and dies. The survivor, which dials late, claims the three owed
        // cells of both groups in one batch.
        let (a, b) = ("owed-a-cap3-die1-log", "owed-b-cap1-late200-log");
        let sweep = run_fake(&[a, b], 1).unwrap();
        assert_eq!(sweep, serial(), "failover keeps the result bit-identical");
        let groups = groups();
        assert_eq!(
            seen(a).batches,
            vec![groups.concat()],
            "the dead worker claimed whole groups"
        );
        let mut owed: Vec<String> = groups.concat().into_iter().skip(1).collect();
        owed.sort();
        // Key order inside a batch is free: a daemon computes a batch in
        // canonical cell order.
        let batches: Vec<Vec<String>> = seen(b)
            .batches
            .into_iter()
            .map(|mut batch| {
                batch.sort();
                batch
            })
            .collect();
        assert_eq!(batches, vec![owed]);
    }

    #[test]
    fn worker_death_requeues_its_cells_onto_survivors() {
        // Worker `a` dies after one delivered cell; worker `b` must pick
        // up everything it still owed, and the sweep is still exact.
        let sweep = run_fake(&["a-cap2-die1", "b-cap1"], 1).unwrap();
        assert_eq!(sweep, serial(), "failover keeps the result bit-identical");

        // A refused dial just shrinks the pool.
        let sweep = run_fake(&["refuse", "b-cap2"], 0).unwrap();
        assert_eq!(sweep, serial());
    }

    #[test]
    fn late_straggler_death_returns_cells_to_parked_survivors() {
        // Regression: the fast worker drains the queue and goes idle
        // while the slow worker still holds one in-flight cell; then the
        // slow worker dies. The idle survivor must be parked — not
        // exited — so the cell finds a worker and the run still
        // completes bit-identically. (Pre-fix, drivers exited on the
        // first empty claim and this run died with a drained pool.)
        let sweep = run_fake(&["a-cap1", "b-cap1-slow40-die0"], 1).unwrap();
        assert_eq!(sweep, serial(), "straggler failover is bit-identical");
    }

    #[test]
    fn a_hung_worker_trips_the_deadline_and_its_cells_requeue() {
        // The liveness bugfix at the scheduler level: worker `a` claims
        // two cells, delivers one, then goes silent — its link reports a
        // heartbeat-deadline timeout (exactly what the TCP link does).
        // Its remaining cell must re-queue onto `b` and the sweep must
        // still be exact. Pre-fix, `recv` blocked forever and this run
        // never terminated.
        let sweep = run_fake(&["a-cap2-hang1", "b-cap1"], 1).unwrap();
        assert_eq!(sweep, serial(), "deadline failover is bit-identical");
        let error = run_fake(&["a-hang0"], 9).unwrap_err().to_string();
        assert!(
            error.contains("pool drained") && error.contains("heartbeat deadline"),
            "a lone hung worker drains the pool with the deadline named: {error}"
        );
    }

    #[test]
    fn each_cell_is_submitted_once_when_a_worker_is_slow() {
        // `a` computes slowly, so `b`, which dials late, drains the queue
        // and goes idle while `a` still holds cells. The idle worker must
        // park, not re-issue them: over both links every cell of the
        // matrix is submitted exactly once.
        let (a, b) = ("once-a-cap1-slow100-log", "once-b-cap1-late50-log");
        let sweep = run_fake(&[a, b], 0).unwrap();
        assert_eq!(sweep, serial(), "the run is bit-identical");
        let mut submitted: Vec<String> = [seen(a), seen(b)]
            .into_iter()
            .flat_map(|seen| seen.batches.concat())
            .collect();
        submitted.sort();
        let mut cells = groups().concat();
        cells.sort();
        assert_eq!(submitted, cells);
    }

    #[test]
    fn a_duplicate_cell_done_is_a_protocol_violation() {
        // A worker re-delivers its first batch's first cell after the
        // batch. Each cell has one copy in flight, so a cell the worker
        // no longer owes is fatal and the error names it.
        let error = run_fake(&["a-cap2-dup"], 0).unwrap_err().to_string();
        let first = &groups()[0][0];
        assert!(
            error.contains("not asked for") && error.contains(&format!("`{first}`")),
            "a duplicate is fatal and named: {error}"
        );
    }

    #[test]
    fn a_drained_pool_is_a_clear_error_not_a_partial_suite() {
        let error = run_fake(&["a-die0"], 9).unwrap_err().to_string();
        assert!(
            error.contains("pool drained") && error.contains("died mid-batch"),
            "error names the failure: {error}"
        );
        let error = run_fake(&["refuse"], 0).unwrap_err().to_string();
        assert!(error.contains("dial failed"), "{error}");
        let error = run_fake(&[], 0).unwrap_err().to_string();
        assert!(error.contains("at least one worker"), "{error}");
    }

    #[test]
    fn the_retry_budget_stops_a_poison_cell() {
        // The lone worker dies on its first cell, over and over; dialing
        // happens once per worker, so a budget of 0 must abort on the
        // first re-queue rather than loop forever. Likewise when a
        // worker hangs on its first cell while another is merely slow:
        // its owed cells re-queue when the deadline fires, and that
        // re-queue alone exhausts the zero budget.
        for workers in [&["a-die0"][..], &["a-cap1-slow20", "b-cap1-hang0-slow400"]] {
            let error = run_fake(workers, 0).unwrap_err().to_string();
            assert!(
                error.contains("retry budget"),
                "{workers:?}: budget exhaustion is fatal: {error}"
            );
        }
    }

    #[test]
    fn foreign_cell_keys_abort_the_run() {
        let error = run_fake(&["a-alias"], 3).unwrap_err().to_string();
        assert!(
            error.contains("configurations disagree"),
            "foreign key is fatal: {error}"
        );
    }
}
