//! Coordinator-side fleet observability: the per-worker registry behind
//! `--progress` and the merged Chrome trace.
//!
//! Worker daemons report cumulative [`MetricsDelta`] totals piggybacked
//! on their heartbeats (see [`crate::protocol::Message::HeartbeatMetrics`])
//! and, when tracing, ship their recorded spans back right before `Done`.
//! Both arrive on the scheduler's per-worker driver threads, so the
//! registry is a mutex over a small vector — entries are keyed by worker
//! address and the insertion order doubles as the worker's stable 1-based
//! fleet index, which is the `pid` lane its events occupy in the exported
//! trace (`pid` 0 is the coordinator itself).
//!
//! The registry is process-global because the scheduler reaches it from
//! plain function-pointer dialers with no room for a context handle;
//! [`reset`] at the start of a run scopes it to one run at a time,
//! matching how a coordinator process actually behaves.

use sdiq_obs::{MetricsDelta, TraceEvent};
use std::sync::{Mutex, PoisonError};

static REGISTRY: Mutex<Vec<(String, MetricsDelta)>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<(String, MetricsDelta)>> {
    // Entries are plain value swaps; a panic mid-update cannot leave a
    // torn entry, so recovering from poison is safe.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears the registry. Called once at the start of every remote run
/// so a second run in the same process (tests, library use) starts from
/// an empty fleet view.
pub fn reset() {
    registry().clear();
}

/// Records `addr`'s latest cumulative totals, replacing any previous
/// report (the deltas are monotonic totals, not increments, so the last
/// report is the whole story).
pub fn record(addr: &str, delta: MetricsDelta) {
    let mut entries = registry();
    match entries.iter_mut().find(|(worker, _)| worker == addr) {
        Some((_, existing)) => *existing = delta,
        None => entries.push((addr.to_string(), delta)),
    }
}

/// The current fleet view: every worker that has reported, with its
/// latest totals, in fleet-index order.
pub fn snapshot() -> Vec<(String, MetricsDelta)> {
    registry().clone()
}

/// `addr`'s stable 1-based fleet index (`pid` lane in the exported
/// trace). A worker that has not reported metrics yet is registered with
/// zeroed totals so trace-only runs still get stable lanes.
pub fn worker_id(addr: &str) -> u64 {
    let mut entries = registry();
    if let Some(index) = entries.iter().position(|(worker, _)| worker == addr) {
        return index as u64 + 1;
    }
    entries.push((addr.to_string(), MetricsDelta::default()));
    entries.len() as u64
}

/// Merges `addr`'s shipped trace events into this process's collector,
/// re-laned onto the worker's `pid` so the export shows one process
/// track per fleet member (workers record everything as their own
/// `pid` 0 — they have no idea which fleet slot they are).
pub fn inject_trace(addr: &str, mut events: Vec<TraceEvent>) {
    let pid = worker_id(addr);
    for event in &mut events {
        event.pid = pid;
    }
    sdiq_obs::inject(events);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(cells_done: u64) -> MetricsDelta {
        MetricsDelta {
            cells_done,
            ..MetricsDelta::default()
        }
    }

    #[test]
    fn records_replace_and_ids_are_stable() {
        reset();
        record("a:1", delta(1));
        record("b:2", delta(2));
        record("a:1", delta(5));
        assert_eq!(
            snapshot(),
            vec![("a:1".to_string(), delta(5)), ("b:2".to_string(), delta(2))]
        );
        assert_eq!(worker_id("a:1"), 1);
        assert_eq!(worker_id("b:2"), 2);
        assert_eq!(worker_id("c:3"), 3, "unknown workers get the next lane");
        assert_eq!(worker_id("a:1"), 1, "ids never move");
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn injected_traces_are_relaned_to_the_worker_pid() {
        reset();
        record("w:9", delta(0));
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
