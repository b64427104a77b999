//! Chrome trace-event export of [`sdiq_obs`] spans.
//!
//! `repro --trace <path>` drains the observability collector at the end
//! of a run and writes the events in the Chrome trace-event JSON format
//! (the `{"traceEvents": [...]}` flavour), loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. The file is built
//! with the workspace's one JSON codec ([`crate::persist::Json`]) — no
//! new serialisation machinery, and the exporter's output is parseable
//! by its own parser, which the property tests exploit.
//!
//! Layout: one `pid` lane per process (0 = the coordinator / local
//! process; remote workers are re-laned to `worker index + 1` before
//! injection), one `tid` lane per recording thread, a `process_name`
//! metadata event per pid so Perfetto labels the tracks. Duration spans
//! are emitted as balanced `B`/`E` pairs (properly nested per thread —
//! spans are RAII guards, so nesting holds by construction and the
//! emitter re-establishes it by sorting), instants as thread-scoped `i`
//! events. Timestamps are microseconds (`f64`) as the format requires.

use crate::persist::Json;
use sdiq_obs::TraceEvent;
use std::collections::BTreeMap;

/// Nanoseconds → the format's microsecond timestamps.
fn micros(nanos: u64) -> Json {
    Json::of_f64(nanos as f64 / 1000.0)
}

fn args_json(args: &[(String, String)]) -> Json {
    Json::Obj(
        args.iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

/// One trace-event record. `ph` is the event phase (`B`, `E`, `i`, `M`).
fn event_json(
    ph: &str,
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts: Json,
    extra: Vec<(String, Json)>,
) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("cat".to_string(), Json::Str(cat.to_string())),
        ("ph".to_string(), Json::Str(ph.to_string())),
        ("ts".to_string(), ts),
        ("pid".to_string(), Json::of_u64(pid)),
        ("tid".to_string(), Json::of_u64(tid)),
    ];
    fields.extend(extra);
    Json::Obj(fields)
}

/// Builds the Chrome trace-event document for `events`.
///
/// Events are grouped by `(pid, tid)` lane; within a lane, spans are
/// sorted by start time ascending and duration descending (so a parent
/// that opened in the same clock tick as its child still comes first)
/// and emitted as a properly nested `B`/`E` sequence via a span stack.
/// A span that would overlap its stack parent without nesting inside it
/// (possible only for injected foreign events — the in-process recorder
/// is RAII and cannot produce one) is clamped to its parent's end so
/// the output stays well-formed.
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    // Lane map: (pid, tid) → that lane's events, in arrival order.
    let mut lanes: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    let mut pids: BTreeMap<u64, ()> = BTreeMap::new();
    for event in events {
        lanes.entry((event.pid, event.tid)).or_default().push(event);
        pids.entry(event.pid).or_insert(());
    }

    let mut out: Vec<Json> = Vec::with_capacity(events.len() * 2 + pids.len());

    // Process-name metadata first, one per pid, so viewers label tracks.
    for (&pid, ()) in &pids {
        let name = if pid == 0 {
            "coordinator".to_string()
        } else {
            format!("worker-{pid}")
        };
        out.push(event_json(
            "M",
            "process_name",
            "__metadata",
            pid,
            0,
            Json::of_f64(0.0),
            vec![(
                "args".to_string(),
                Json::Obj(vec![("name".to_string(), Json::Str(name))]),
            )],
        ));
    }

    for ((pid, tid), mut lane) in lanes {
        // Start ascending; on ties the longer span is the parent.
        lane.sort_by(|a, b| {
            a.start_nanos
                .cmp(&b.start_nanos)
                .then(b.dur_nanos.unwrap_or(0).cmp(&a.dur_nanos.unwrap_or(0)))
        });
        // The stack holds the end times of currently open spans.
        let mut open: Vec<u64> = Vec::new();
        for event in lane {
            let start = event.start_nanos;
            while open.last().is_some_and(|&end| end <= start) {
                let end = open.pop().unwrap_or(start);
                out.push(event_json("E", "", "", pid, tid, micros(end), Vec::new()));
            }
            match event.dur_nanos {
                None => out.push(event_json(
                    "i",
                    &event.name,
                    &event.cat,
                    pid,
                    tid,
                    micros(start),
                    vec![
                        ("s".to_string(), Json::Str("t".to_string())),
                        ("args".to_string(), args_json(&event.args)),
                    ],
                )),
                Some(dur) => {
                    let mut end = start.saturating_add(dur);
                    // Clamp foreign non-nesting spans to the parent.
                    if let Some(&parent_end) = open.last() {
                        end = end.min(parent_end);
                    }
                    out.push(event_json(
                        "B",
                        &event.name,
                        &event.cat,
                        pid,
                        tid,
                        micros(start),
                        vec![("args".to_string(), args_json(&event.args))],
                    ));
                    open.push(end);
                }
            }
        }
        while let Some(end) = open.pop() {
            out.push(event_json("E", "", "", pid, tid, micros(end), Vec::new()));
        }
    }

    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(out))])
}

/// Renders [`chrome_trace_json`] to text.
pub fn render_chrome_trace(events: &[TraceEvent]) -> String {
    let mut text = String::new();
    chrome_trace_json(events).render(&mut text);
    text.push('\n');
    text
}

/// Writes the trace document for `events` to `path`.
pub fn write_chrome_trace(
    path: impl AsRef<std::path::Path>,
    events: &[TraceEvent],
) -> std::io::Result<()> {
    std::fs::write(path, render_chrome_trace(events))
}

/// The number of spans of each name in `events` and their summed
/// duration in nanoseconds, by name; instants are skipped. Spans nest, so
/// a span's total includes the time of the spans inside it.
pub fn span_totals(events: &[TraceEvent]) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for event in events {
        if let Some(nanos) = event.dur_nanos {
            let total = totals.entry(event.name.clone()).or_default();
            total.0 += 1;
            total.1 += nanos;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;

    fn span(pid: u64, tid: u64, start: u64, dur: u64, name: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test".to_string(),
            pid,
            tid,
            start_nanos: start,
            dur_nanos: Some(dur),
            args: vec![("k".to_string(), "v".to_string())],
        }
    }

    fn instant(pid: u64, tid: u64, start: u64, name: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test".to_string(),
            pid,
            tid,
            start_nanos: start,
            dur_nanos: None,
            args: Vec::new(),
        }
    }

    /// Phases of the rendered document, per (pid, tid) lane.
    fn phases(doc: &Json) -> Vec<(u64, u64, String)> {
        let events = doc.get("traceEvents").unwrap().arr().unwrap();
        events
            .iter()
            .map(|e| {
                (
                    e.get("pid").unwrap().u64().unwrap(),
                    e.get("tid").unwrap().u64().unwrap(),
                    e.get("ph").unwrap().str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn renders_balanced_nested_pairs_that_reparse() {
        let events = vec![
            span(0, 1, 0, 100, "outer"),
            span(0, 1, 10, 20, "child-a"),
            span(0, 1, 40, 30, "child-b"),
            instant(0, 1, 50, "mark"),
            span(1, 1, 5, 10, "worker-span"),
        ];
        let text = render_chrome_trace(&events);
        let doc = persist::parse(text.trim_end()).expect("exporter output parses");
        let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
        for (pid, tid, ph) in phases(&doc) {
            let d = depth.entry((pid, tid)).or_insert(0);
            match ph.as_str() {
                "B" => *d += 1,
                "E" => {
                    *d -= 1;
                    assert!(*d >= 0, "E without matching B in lane {pid}/{tid}");
                }
                "i" => assert!(*d >= 1, "the instant is inside its parent span"),
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        for ((pid, tid), d) in depth {
            assert_eq!(d, 0, "lane {pid}/{tid} left {d} spans open");
        }
    }

    #[test]
    fn process_metadata_labels_coordinator_and_workers() {
        let events = vec![span(0, 1, 0, 1, "a"), span(2, 1, 0, 1, "b")];
        let doc = chrome_trace_json(&events);
        let rendered = {
            let mut s = String::new();
            doc.render(&mut s);
            s
        };
        assert!(rendered.contains("\"coordinator\""));
        assert!(rendered.contains("\"worker-2\""));
    }

    #[test]
    fn equal_start_ties_put_the_longer_span_outside() {
        // Parent and child open in the same clock tick: the longer span
        // must be the B that comes first.
        let events = vec![span(0, 1, 0, 10, "child"), span(0, 1, 0, 100, "parent")];
        let doc = chrome_trace_json(&events);
        let names: Vec<String> = doc
            .get("traceEvents")
            .unwrap()
            .arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().str().unwrap() == "B")
            .map(|e| e.get("name").unwrap().str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["parent".to_string(), "child".to_string()]);
    }
}
