//! Coordinator-side fleet observability: the per-run worker registry
//! behind the end-of-run per-worker lines, `--progress`'s per-worker
//! suffix and the merged Chrome trace.
//!
//! The scheduler tallies every cell it accepts from a worker here: one
//! more cell, and that cell's committed instructions. Rates divide by the
//! run's own clock, started by `reset`, so a warm daemon that served
//! earlier runs shows only this run's work. Traced workers ship their
//! spans back right before each batch's `Done`; they are re-laned onto
//! the worker's stable 1-based fleet index, its place in the registry,
//! which is the `pid` lane its events occupy in the exported trace (`pid`
//! 0 is the coordinator itself).
//!
//! The registry is process-global because the `--progress` sink and the
//! TCP links reach it from outside the scheduler's state; `reset` at
//! the start of a run scopes it to one run at a time, matching how a
//! coordinator process actually behaves.

use sdiq_obs::TraceEvent;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One worker's share of the current run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTally {
    /// Cells the coordinator accepted from the worker.
    pub cells: u64,
    /// Committed instructions of those cells.
    pub instructions: u64,
}

impl WorkerTally {
    /// Committed instructions per second of `elapsed` run time (0 before
    /// any time has passed).
    pub fn instructions_per_second(&self, elapsed: Duration) -> f64 {
        let seconds = elapsed.as_secs_f64();
        if seconds > 0.0 {
            self.instructions as f64 / seconds
        } else {
            0.0
        }
    }
}

struct Registry {
    /// When the current run started.
    started: Option<Instant>,
    /// Workers in fleet-index order, with their tallies.
    workers: Vec<(String, WorkerTally)>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    started: None,
    workers: Vec::new(),
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // Entries are plain value updates; a panic mid-update cannot leave a
    // torn entry, so recovering from poison is safe.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `addr`'s entry, registered at the next fleet index if it is new.
fn entry<'a>(registry: &'a mut Registry, addr: &str) -> (usize, &'a mut WorkerTally) {
    let index = match registry
        .workers
        .iter()
        .position(|(worker, _)| worker == addr)
    {
        Some(index) => index,
        None => {
            registry
                .workers
                .push((addr.to_string(), WorkerTally::default()));
            registry.workers.len() - 1
        }
    };
    (index, &mut registry.workers[index].1)
}

/// Starts a run: clears the registry, starts the run's clock and
/// registers `workers` in order, so worker *N* of `--workers` is trace
/// lane *N*. Called once at the start of every remote run, so a second
/// run in the same process (tests, library use) starts from an empty
/// fleet view.
pub(crate) fn reset(workers: &[String]) {
    let mut registry = registry();
    registry.started = Some(Instant::now());
    registry.workers.clear();
    for addr in workers {
        entry(&mut registry, addr);
    }
}

/// Tallies one cell the coordinator accepted from `addr`.
pub(crate) fn record_cell(addr: &str, instructions: u64) {
    let mut registry = registry();
    let (_, tally) = entry(&mut registry, addr);
    tally.cells += 1;
    tally.instructions += instructions;
}

/// The current run's elapsed time and every worker's tally, in
/// fleet-index order.
pub fn snapshot() -> (Duration, Vec<(String, WorkerTally)>) {
    let registry = registry();
    let elapsed = registry
        .started
        .map_or(Duration::ZERO, |started| started.elapsed());
    (elapsed, registry.workers.clone())
}

/// `addr`'s stable 1-based fleet index (`pid` lane in the exported
/// trace).
fn worker_id(addr: &str) -> u64 {
    entry(&mut registry(), addr).0 as u64 + 1
}

/// Merges `addr`'s shipped trace events into this process's collector,
/// re-laned onto the worker's `pid` so the export shows one process
/// track per fleet member (workers record everything as their own
/// `pid` 0 — they have no idea which fleet slot they are).
pub(crate) fn inject_trace(addr: &str, mut events: Vec<TraceEvent>) {
    let pid = worker_id(addr);
    for event in &mut events {
        event.pid = pid;
    }
    sdiq_obs::inject(events);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global: tests that reset it take turns.
    /// (Scheduler tests record cells under their own addresses
    /// concurrently; these tests read only theirs.)
    fn resetting() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tally_of(addr: &str) -> Option<WorkerTally> {
        snapshot()
            .1
            .into_iter()
            .find(|(worker, _)| worker == addr)
            .map(|(_, tally)| tally)
    }

    #[test]
    fn tallies_add_up_per_run_and_ids_are_stable() {
        let _turn = resetting();
        reset(&["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(worker_id("a:1"), 1, "lanes follow --workers order");
        assert_eq!(worker_id("b:2"), 2);
        assert_eq!(tally_of("b:2"), Some(WorkerTally::default()));
        record_cell("b:2", 100);
        record_cell("a:1", 7);
        record_cell("b:2", 50);
        assert_eq!(
            tally_of("b:2"),
            Some(WorkerTally {
                cells: 2,
                instructions: 150
            })
        );
        assert_eq!(
            tally_of("a:1"),
            Some(WorkerTally {
                cells: 1,
                instructions: 7
            })
        );
        assert_eq!(worker_id("a:1"), 1, "ids never move");
        assert!(worker_id("c:3") > 2, "unknown workers get a later lane");
        let b = tally_of("b:2").unwrap();
        assert_eq!(b.instructions_per_second(Duration::from_secs(2)), 75.0);
        assert_eq!(b.instructions_per_second(Duration::ZERO), 0.0);

        // The next run counts only its own cells.
        reset(&["b:2".to_string()]);
        assert_eq!(tally_of("b:2"), Some(WorkerTally::default()));
        assert_eq!(tally_of("a:1"), None);
        assert_eq!(worker_id("b:2"), 1);
    }

    #[test]
    fn injected_traces_are_relaned_to_the_worker_pid() {
        let _turn = resetting();
        reset(&["w:9".to_string()]);
        let drained = sdiq_obs::drain(); // discard whatever other tests left
        drop(drained);
        inject_trace(
            "w:9",
            vec![TraceEvent {
                name: "cell".to_string(),
                cat: "cell".to_string(),
                pid: 0,
                tid: 7,
                start_nanos: 1,
                dur_nanos: Some(2),
                args: Vec::new(),
            }],
        );
        let drained = sdiq_obs::drain();
        let event = drained
            .iter()
            .find(|e| e.name == "cell" && e.tid == 7)
            .expect("injected event is in the collector");
        assert_eq!(event.pid, 1, "re-laned to the worker's fleet index");
    }
}
