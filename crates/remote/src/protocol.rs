//! The message grammar of the remote cell-execution protocol.
//!
//! One coordinator connection to one worker daemon speaks, in order:
//!
//! ```text
//! (with --auth-key, first:)
//! worker → coordinator   AuthChallenge{nonce}       prove you hold the key
//! coordinator → worker   AuthResponse{nonce, mac}   my nonce + HMAC over both
//! worker → coordinator   AuthOk{mac}                mutual proof, then the grammar below
//!
//! worker → coordinator   Hello{capacity}            once, on accept
//! coordinator → worker   RunCells{fingerprint, spec, keys, trace}   per batch
//! worker → coordinator   Heartbeat                  keep-alive, any time
//! worker → coordinator   CellDone{key, report}      per finished cell
//! worker → coordinator   TraceEvents{events}        the batch's spans, when asked
//! worker → coordinator   Done{computed}             batch complete
//! worker → coordinator   Error{message}             instead of Done
//! (coordinator closes the connection when the work queue is empty)
//! ```
//!
//! Every frame travels in the `bin1` layout of [`crate::binary`]; a
//! build speaks that one dialect. [`Message::render`] and
//! [`Message::parse`] encode the same messages as JSON through
//! `sdiq_core::persist`'s exact-round-trip model — the codec save files
//! and checkpoints use — which the tests keep as the differential oracle
//! for `bin1`: both codecs must reproduce every message bit for bit.
//!
//! `Heartbeat` frames may appear anywhere in the worker's stream (the
//! daemon emits one as a batch ack and periodically during long cells);
//! receivers skip them. Unknown messages are an error, not a skip:
//! silently dropping a frame a peer considered important is how
//! split-version fleets corrupt results.

use sdiq_core::persist::{
    matrix_spec_from_json, matrix_spec_to_json, parse, report_from_json, report_to_json, Json,
    PersistError,
};
use sdiq_core::{MatrixSpec, RunReport};
use sdiq_obs::TraceEvent;

/// [`TraceEvent`] ↔ JSON. `dur_nanos` is omitted for instants and `args`
/// when empty; args travel as `[key, value]` pairs (not an object) so the
/// encoding round-trips regardless of key content or duplication.
fn trace_event_to_json(event: &TraceEvent) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(event.name.clone())),
        ("cat".to_string(), Json::Str(event.cat.clone())),
        ("pid".to_string(), Json::of_u64(event.pid)),
        ("tid".to_string(), Json::of_u64(event.tid)),
        ("start_nanos".to_string(), Json::of_u64(event.start_nanos)),
    ];
    if let Some(dur) = event.dur_nanos {
        fields.push(("dur_nanos".to_string(), Json::of_u64(dur)));
    }
    if !event.args.is_empty() {
        fields.push((
            "args".to_string(),
            Json::Arr(
                event
                    .args
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

fn trace_event_from_json(json: &Json) -> Result<TraceEvent, PersistError> {
    let dur_nanos = match json.get("dur_nanos") {
        Err(_) => None,
        Ok(dur) => Some(dur.u64()?),
    };
    let args = match json.get("args") {
        Err(_) => Vec::new(),
        Ok(list) => list
            .arr()?
            .iter()
            .map(|pair| {
                let pair = pair.arr()?;
                match pair {
                    [k, v] => Ok((k.str()?.to_string(), v.str()?.to_string())),
                    other => Err(PersistError::new(format!(
                        "trace arg must be a [key, value] pair, got {} items",
                        other.len()
                    ))),
                }
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(TraceEvent {
        name: json.get("name")?.str()?.to_string(),
        cat: json.get("cat")?.str()?.to_string(),
        pid: json.get("pid")?.u64()?,
        tid: json.get("tid")?.u64()?,
        start_nanos: json.get("start_nanos")?.u64()?,
        dur_nanos,
        args,
    })
}

/// One protocol message (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator greeting: how many cells the daemon runs in
    /// parallel (its `--jobs`). The scheduler uses this to size the
    /// worker's batches.
    Hello {
        /// Advertised parallel capacity (≥ 1).
        capacity: usize,
    },
    /// Acceptor → dialer, first frame when authentication is on: prove
    /// knowledge of the shared key by HMAC'ing this nonce.
    AuthChallenge {
        /// Single-use challenge nonce (hex).
        nonce: String,
    },
    /// Dialer → acceptor: the proof, plus the dialer's own nonce so the
    /// acceptor can prove itself back (mutual authentication).
    AuthResponse {
        /// The dialer's challenge nonce for the acceptor (hex).
        nonce: String,
        /// `HMAC(key, "sdiq-dial:" + acceptor_nonce + ":" + dialer_nonce)` (hex).
        mac: String,
    },
    /// Acceptor → dialer: the acceptor's counter-proof; after it the
    /// ordinary grammar begins.
    AuthOk {
        /// `HMAC(key, "sdiq-accept:" + acceptor_nonce + ":" + dialer_nonce)` (hex).
        mac: String,
    },
    /// Coordinator → worker: compute these cells of the matrix `spec`
    /// describes. `fingerprint` is [`sdiq_core::matrix_fingerprint`] over
    /// the coordinator's whole cell-key space; the worker recomputes it
    /// from `spec` and refuses on mismatch (version skew).
    RunCells {
        /// Fingerprint of the full cell-key space.
        fingerprint: u64,
        /// Portable description of the matrix.
        spec: MatrixSpec,
        /// The cell keys to compute (a subset of the matrix's key space).
        keys: Vec<String>,
        /// Record spans while computing and ship them back as
        /// [`Message::TraceEvents`] before `Done`.
        trace: bool,
    },
    /// Worker → coordinator: one finished cell, streamed the moment it
    /// exists (the coordinator feeds it straight into its `CellSink`).
    CellDone {
        /// The cell's cache key.
        key: String,
        /// The computed report (boxed: it dwarfs every other variant).
        report: Box<RunReport>,
    },
    /// Keep-alive; receivers skip it.
    Heartbeat,
    /// Worker → coordinator: the spans recorded while computing the
    /// current batch, shipped once, right before [`Message::Done`], when
    /// the batch asked for `trace`. The coordinator re-lanes the events'
    /// `pid` to the worker's fleet index and merges them into its own
    /// trace buffer for the Chrome-trace export.
    TraceEvents {
        /// The recorded events, in the worker's drain order.
        events: Vec<TraceEvent>,
    },
    /// Worker → coordinator: the current batch is fully delivered.
    Done {
        /// Number of cells the worker computed for this batch.
        computed: usize,
    },
    /// Worker → coordinator: the batch failed (bad spec, fingerprint
    /// mismatch, foreign keys). The coordinator abandons this worker.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Message {
    /// Serialises this message into the shared JSON model.
    fn to_json(&self) -> Json {
        let tagged = |tag: &str, mut fields: Vec<(String, Json)>| {
            fields.insert(0, ("type".to_string(), Json::Str(tag.to_string())));
            Json::Obj(fields)
        };
        match self {
            Message::Hello { capacity } => tagged(
                "hello",
                vec![("capacity".to_string(), Json::of_usize(*capacity))],
            ),
            Message::AuthChallenge { nonce } => tagged(
                "auth_challenge",
                vec![("nonce".to_string(), Json::Str(nonce.clone()))],
            ),
            Message::AuthResponse { nonce, mac } => tagged(
                "auth_response",
                vec![
                    ("nonce".to_string(), Json::Str(nonce.clone())),
                    ("mac".to_string(), Json::Str(mac.clone())),
                ],
            ),
            Message::AuthOk { mac } => {
                tagged("auth_ok", vec![("mac".to_string(), Json::Str(mac.clone()))])
            }
            Message::RunCells {
                fingerprint,
                spec,
                keys,
                trace,
            } => tagged(
                "run_cells",
                vec![
                    ("fingerprint".to_string(), Json::of_u64(*fingerprint)),
                    ("spec".to_string(), matrix_spec_to_json(spec)),
                    (
                        "keys".to_string(),
                        Json::Arr(keys.iter().cloned().map(Json::Str).collect()),
                    ),
                    ("trace".to_string(), Json::Bool(*trace)),
                ],
            ),
            Message::CellDone { key, report } => tagged(
                "cell_done",
                vec![
                    ("key".to_string(), Json::Str(key.clone())),
                    ("report".to_string(), report_to_json(report)),
                ],
            ),
            Message::Heartbeat => tagged("heartbeat", Vec::new()),
            Message::TraceEvents { events } => tagged(
                "trace_events",
                vec![(
                    "events".to_string(),
                    Json::Arr(events.iter().map(trace_event_to_json).collect()),
                )],
            ),
            Message::Done { computed } => tagged(
                "done",
                vec![("computed".to_string(), Json::of_usize(*computed))],
            ),
            Message::Error { message } => tagged(
                "error",
                vec![("message".to_string(), Json::Str(message.clone()))],
            ),
        }
    }

    /// Parses a message out of the shared JSON model.
    fn from_json(json: &Json) -> Result<Message, PersistError> {
        let tag = json.get("type")?.str()?;
        match tag {
            "hello" => Ok(Message::Hello {
                capacity: json.get("capacity")?.usize()?,
            }),
            "auth_challenge" => Ok(Message::AuthChallenge {
                nonce: json.get("nonce")?.str()?.to_string(),
            }),
            "auth_response" => Ok(Message::AuthResponse {
                nonce: json.get("nonce")?.str()?.to_string(),
                mac: json.get("mac")?.str()?.to_string(),
            }),
            "auth_ok" => Ok(Message::AuthOk {
                mac: json.get("mac")?.str()?.to_string(),
            }),
            "run_cells" => Ok(Message::RunCells {
                fingerprint: json.get("fingerprint")?.u64()?,
                spec: matrix_spec_from_json(json.get("spec")?)?,
                keys: json
                    .get("keys")?
                    .arr()?
                    .iter()
                    .map(|key| key.str().map(str::to_string))
                    .collect::<Result<Vec<_>, _>>()?,
                trace: match json.get("trace")? {
                    Json::Bool(trace) => *trace,
                    other => {
                        return Err(PersistError::new(format!(
                            "expected bool `trace`, got {other:?}"
                        )))
                    }
                },
            }),
            "cell_done" => Ok(Message::CellDone {
                key: json.get("key")?.str()?.to_string(),
                report: Box::new(report_from_json(json.get("report")?)?),
            }),
            "heartbeat" => Ok(Message::Heartbeat),
            "trace_events" => Ok(Message::TraceEvents {
                events: json
                    .get("events")?
                    .arr()?
                    .iter()
                    .map(trace_event_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "done" => Ok(Message::Done {
                computed: json.get("computed")?.usize()?,
            }),
            "error" => Ok(Message::Error {
                message: json.get("message")?.str()?.to_string(),
            }),
            other => Err(PersistError::new(format!(
                "unknown protocol message type `{other}`"
            ))),
        }
    }

    /// Renders this message as one compact JSON document (a frame
    /// payload).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.to_json().render(&mut out);
        out
    }

    /// Parses one frame payload.
    pub fn parse(text: &str) -> Result<Message, PersistError> {
        Message::from_json(&parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_core::{Experiment, Technique};
    use sdiq_workloads::Benchmark;

    #[test]
    fn every_message_round_trips_through_its_frame_payload() {
        let experiment = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let report = experiment.run(Benchmark::Gzip, Technique::Noop);
        let spec = MatrixSpec {
            scale: 0.05,
            sweeps: vec![
                ("iq".to_string(), vec![48.0, 32.0]),
                ("scale".to_string(), vec![0.5]),
            ],
            benchmarks: vec!["gzip".to_string(), "mcf".to_string()],
            techniques: vec!["baseline".to_string(), "noop".to_string()],
        };
        let messages = [
            Message::Hello { capacity: 4 },
            Message::AuthChallenge {
                nonce: "00ff".to_string(),
            },
            Message::AuthResponse {
                nonce: "a1b2".to_string(),
                mac: "deadbeef".to_string(),
            },
            Message::AuthOk {
                mac: "beefdead".to_string(),
            },
            Message::RunCells {
                fingerprint: 0xdead_beef_0123_4567,
                spec: spec.clone(),
                keys: vec!["a|b|c|00".to_string(), "d|e|f|01".to_string()],
                trace: false,
            },
            Message::RunCells {
                fingerprint: 7,
                spec,
                keys: vec!["a|b|c|00".to_string()],
                trace: true,
            },
            Message::TraceEvents {
                events: vec![
                    sdiq_obs::TraceEvent {
                        name: "cell".to_string(),
                        cat: "cell".to_string(),
                        pid: 0,
                        tid: 3,
                        start_nanos: 1_000,
                        dur_nanos: Some(5_000),
                        args: vec![("key".to_string(), "gzip|noop|base".to_string())],
                    },
                    sdiq_obs::TraceEvent {
                        name: "mark".to_string(),
                        cat: "sched".to_string(),
                        pid: 2,
                        tid: 1,
                        start_nanos: 42,
                        dur_nanos: None,
                        args: Vec::new(),
                    },
                ],
            },
            Message::TraceEvents { events: Vec::new() },
            Message::CellDone {
                key: "gzip|noop|base|0123456789abcdef".to_string(),
                report: Box::new(report),
            },
            Message::Heartbeat,
            Message::Done { computed: 6 },
            Message::Error {
                message: "matrix fingerprint mismatch".to_string(),
            },
        ];
        for message in messages {
            let text = message.render();
            assert_eq!(
                Message::parse(&text).unwrap(),
                message,
                "{text} must round-trip"
            );
        }
        // `register` names no message: a peer that sends it is refused.
        for unknown in [
            r#"{"type":"warp"}"#,
            r#"{"type":"register","capacity":2,"codecs":["bin1"]}"#,
        ] {
            assert!(Message::parse(unknown).is_err(), "unknown tag: {unknown}");
        }
        assert!(Message::parse("{\"capacity\":1}").is_err(), "untagged");
    }
}
