//! The message grammar of the remote cell-execution protocol.
//!
//! One coordinator connection to one worker daemon speaks, in order:
//!
//! ```text
//! (with --auth-key, first — always JSON-framed:)
//! worker → coordinator   AuthChallenge{nonce}       prove you hold the key
//! coordinator → worker   AuthResponse{nonce, mac}   my nonce + HMAC over both
//! worker → coordinator   AuthOk{mac}                mutual proof, then the grammar below
//!
//! worker → coordinator   Hello{capacity, codecs}    once, on accept
//! coordinator → worker   SetCodec{codec}            optional, switches both directions
//! coordinator → worker   RunCells{fingerprint, spec, keys}     per batch
//! worker → coordinator   Heartbeat                  keep-alive, any time
//! worker → coordinator   CellDone{key, report}      per finished cell
//! worker → coordinator   Done{computed}             batch complete
//! worker → coordinator   Error{message}             instead of Done
//! (coordinator closes the connection when the work queue is empty)
//! ```
//!
//! Messages are JSON objects tagged by a `type` field, rendered and
//! parsed through `sdiq_core::persist`'s exact-round-trip JSON model —
//! the same codec save files and checkpoints use — so a report that
//! crosses the wire is bit-identical to one computed locally, which is
//! what makes the remote suite byte-for-byte equal to a serial `--save`.
//!
//! # Codec negotiation
//!
//! The greeting's `codecs` field lists the *additional* frame codecs the
//! worker can speak beyond the implicit JSON (today: `"bin1"`, the
//! compact binary layout in [`crate::binary`]). A coordinator that wants
//! one answers with `SetCodec{codec}` as its first frame; every frame
//! after it, in both directions, uses that codec (TCP ordering makes an
//! ack unnecessary). A worker that advertised nothing — an older build,
//! or `serve --wire json` — never receives `SetCodec` and the connection
//! stays JSON end to end; old coordinators ignore the unknown `codecs`
//! field the same way. Receivers always auto-detect the codec of each
//! incoming frame (binary payloads start with a tag byte `< 0x20`, JSON
//! ones with `{`), so negotiation only ever governs what a side *sends*.
//!
//! `Heartbeat` frames may appear anywhere in the worker's stream (the
//! daemon emits one as a batch ack and periodically during long cells);
//! receivers skip them. Unknown `type` tags are an error, not a skip:
//! silently dropping a frame a newer peer considered important is how
//! split-version fleets corrupt results.

use sdiq_core::persist::{
    matrix_spec_from_json, matrix_spec_to_json, parse, report_from_json, report_to_json, Json,
    PersistError,
};
use sdiq_core::{MatrixSpec, RunReport};
use sdiq_obs::{MetricsDelta, TraceEvent};

/// Name of the binary frame codec a worker may advertise in its greeting
/// (`"bin1"` pins layout version 1 of [`crate::binary`]; a breaking
/// layout change becomes `"bin2"` and old peers simply never select it).
pub const CODEC_BIN1: &str = "bin1";

/// Capability token a worker appends to its greeting's `codecs` list when
/// it understands the observability extension: `RunCells` observe/trace
/// flags, [`Message::HeartbeatMetrics`] and [`Message::TraceEvents`].
/// Riding the `codecs` field keeps old peers safe for free — a coordinator
/// that predates it selects codecs with an equality scan and ignores
/// unknown entries, and a worker that never advertises it is never sent
/// any observability frame.
pub const CAP_OBS1: &str = "obs1";

/// [`MetricsDelta`] ↔ JSON: an object of the six cumulative counters.
fn metrics_delta_to_json(delta: &MetricsDelta) -> Json {
    Json::Obj(vec![
        ("cells_done".to_string(), Json::of_u64(delta.cells_done)),
        (
            "cells_in_flight".to_string(),
            Json::of_u64(delta.cells_in_flight),
        ),
        (
            "sim_instructions".to_string(),
            Json::of_u64(delta.sim_instructions),
        ),
        ("cache_hits".to_string(), Json::of_u64(delta.cache_hits)),
        ("cache_misses".to_string(), Json::of_u64(delta.cache_misses)),
        ("wall_nanos".to_string(), Json::of_u64(delta.wall_nanos)),
    ])
}

fn metrics_delta_from_json(json: &Json) -> Result<MetricsDelta, PersistError> {
    Ok(MetricsDelta {
        cells_done: json.get("cells_done")?.u64()?,
        cells_in_flight: json.get("cells_in_flight")?.u64()?,
        sim_instructions: json.get("sim_instructions")?.u64()?,
        cache_hits: json.get("cache_hits")?.u64()?,
        cache_misses: json.get("cache_misses")?.u64()?,
        wall_nanos: json.get("wall_nanos")?.u64()?,
    })
}

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
        /// Additional frame codecs this worker can speak (JSON is
        /// implicit; see the module docs on negotiation). Empty for old
        /// or `--wire json` workers — and omitted from the JSON encoding
        /// then, so such a greeting is byte-identical to a pre-codec one.
        codecs: Vec<String>,
    },
    /// Coordinator → worker: switch every subsequent frame in both
    /// directions to `codec` (which the worker's greeting advertised).
    /// Sent at most once, before any [`Message::RunCells`].
    SetCodec {
        /// The selected codec name (e.g. [`CODEC_BIN1`]).
        codec: String,
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
        /// Report metrics deltas on heartbeats ([`Message::HeartbeatMetrics`]).
        /// Only ever `true` toward a worker that advertised [`CAP_OBS1`];
        /// the JSON encoding omits the field when `false`, so a plain
        /// batch renders byte-identically to a pre-observability one.
        observe: bool,
        /// Record spans while computing and ship them back as
        /// [`Message::TraceEvents`] before `Done`. Same compatibility
        /// rules as `observe`.
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
    /// Keep-alive carrying the worker's cumulative metrics totals
    /// ([`MetricsDelta`] — cells done, in flight, instructions simulated,
    /// cache hits/misses, wall time). Sent instead of plain [`Message::Heartbeat`]
    /// by the periodic keep-alive thread when the batch asked for
    /// `observe`; receivers that track liveness treat it exactly like a
    /// heartbeat, and the coordinator additionally folds the totals into
    /// its per-worker fleet view. Never sent to a peer that did not
    /// advertise [`CAP_OBS1`].
    HeartbeatMetrics {
        /// Cumulative counters since the worker daemon started.
        metrics: MetricsDelta,
    },
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
    pub fn to_json(&self) -> Json {
        let tagged = |tag: &str, mut fields: Vec<(String, Json)>| {
            fields.insert(0, ("type".to_string(), Json::Str(tag.to_string())));
            Json::Obj(fields)
        };
        match self {
            Message::Hello { capacity, codecs } => {
                let mut fields = vec![("capacity".to_string(), Json::of_usize(*capacity))];
                // Omitted when empty, so a codec-less greeting renders
                // byte-identically to one from a pre-negotiation build.
                if !codecs.is_empty() {
                    fields.push((
                        "codecs".to_string(),
                        Json::Arr(codecs.iter().cloned().map(Json::Str).collect()),
                    ));
                }
                tagged("hello", fields)
            }
            Message::SetCodec { codec } => tagged(
                "set_codec",
                vec![("codec".to_string(), Json::Str(codec.clone()))],
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
                observe,
                trace,
            } => {
                let mut fields = vec![
                    ("fingerprint".to_string(), Json::of_u64(*fingerprint)),
                    ("spec".to_string(), matrix_spec_to_json(spec)),
                    (
                        "keys".to_string(),
                        Json::Arr(keys.iter().cloned().map(Json::Str).collect()),
                    ),
                ];
                // Omitted when false: a plain batch renders byte-identically
                // to a pre-observability build's, and old workers never see
                // fields they would not understand anyway.
                if *observe {
                    fields.push(("observe".to_string(), Json::Bool(true)));
                }
                if *trace {
                    fields.push(("trace".to_string(), Json::Bool(true)));
                }
                tagged("run_cells", fields)
            }
            Message::CellDone { key, report } => tagged(
                "cell_done",
                vec![
                    ("key".to_string(), Json::Str(key.clone())),
                    ("report".to_string(), report_to_json(report)),
                ],
            ),
            Message::Heartbeat => tagged("heartbeat", Vec::new()),
            Message::HeartbeatMetrics { metrics } => tagged(
                "heartbeat_metrics",
                vec![("metrics".to_string(), metrics_delta_to_json(metrics))],
            ),
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
    pub fn from_json(json: &Json) -> Result<Message, PersistError> {
        let tag = json.get("type")?.str()?;
        match tag {
            "hello" => Ok(Message::Hello {
                capacity: json.get("capacity")?.usize()?,
                // Absent on pre-negotiation greetings: default empty.
                codecs: match json.get("codecs") {
                    Err(_) => Vec::new(),
                    Ok(list) => list
                        .arr()?
                        .iter()
                        .map(|codec| codec.str().map(str::to_string))
                        .collect::<Result<_, _>>()?,
                },
            }),
            "set_codec" => Ok(Message::SetCodec {
                codec: json.get("codec")?.str()?.to_string(),
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
            "run_cells" => {
                // Absent on batches from pre-observability coordinators:
                // default off.
                let flag = |key: &str| -> Result<bool, PersistError> {
                    match json.get(key) {
                        Err(_) => Ok(false),
                        Ok(Json::Bool(b)) => Ok(*b),
                        Ok(other) => Err(PersistError::new(format!(
                            "expected bool `{key}`, got {other:?}"
                        ))),
                    }
                };
                Ok(Message::RunCells {
                    fingerprint: json.get("fingerprint")?.u64()?,
                    spec: matrix_spec_from_json(json.get("spec")?)?,
                    keys: json
                        .get("keys")?
                        .arr()?
                        .iter()
                        .map(|key| key.str().map(str::to_string))
                        .collect::<Result<Vec<_>, _>>()?,
                    observe: flag("observe")?,
                    trace: flag("trace")?,
                })
            }
            "cell_done" => Ok(Message::CellDone {
                key: json.get("key")?.str()?.to_string(),
                report: Box::new(report_from_json(json.get("report")?)?),
            }),
            "heartbeat" => Ok(Message::Heartbeat),
            "heartbeat_metrics" => Ok(Message::HeartbeatMetrics {
                metrics: metrics_delta_from_json(json.get("metrics")?)?,
            }),
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
            Message::Hello {
                capacity: 4,
                codecs: vec![CODEC_BIN1.to_string()],
            },
            Message::Hello {
                capacity: 4,
                codecs: Vec::new(),
            },
            Message::SetCodec {
                codec: CODEC_BIN1.to_string(),
            },
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
                observe: false,
                trace: false,
            },
            Message::RunCells {
                fingerprint: 7,
                spec,
                keys: vec!["a|b|c|00".to_string()],
                observe: true,
                trace: true,
            },
            Message::HeartbeatMetrics {
                metrics: sdiq_obs::MetricsDelta {
                    cells_done: 12,
                    cells_in_flight: 2,
                    sim_instructions: 123_456_789,
                    cache_hits: 30,
                    cache_misses: 6,
                    wall_nanos: 9_876_543_210,
                },
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

    #[test]
    fn plain_batches_render_like_pre_observability_builds() {
        let message = Message::RunCells {
            fingerprint: 1,
            spec: MatrixSpec {
                scale: 1.0,
                sweeps: Vec::new(),
                benchmarks: vec!["gzip".to_string()],
                techniques: vec!["baseline".to_string()],
            },
            keys: vec!["k".to_string()],
            observe: false,
            trace: false,
        };
        let text = message.render();
        assert!(
            !text.contains("observe") && !text.contains("trace"),
            "flags off must leave the frame byte-identical to an old build's: {text}"
        );
        // And a frame from an old coordinator (no flag fields) parses
        // with the flags defaulted off.
        assert_eq!(Message::parse(&text).unwrap(), message);
    }

    #[test]
    fn codecless_greetings_render_like_pre_negotiation_builds() {
        // A worker with nothing to advertise must emit the exact bytes a
        // pre-negotiation build did: no `codecs` field at all.
        let hello = Message::Hello {
            capacity: 4,
            codecs: Vec::new(),
        };
        assert_eq!(hello.render(), r#"{"type":"hello","capacity":4}"#);
        // And the advertisement parses from explicit JSON (what an old
        // coordinator receives from a new worker — it reads `capacity`
        // and ignores the rest).
        let parsed = Message::parse(r#"{"type":"hello","capacity":2,"codecs":["bin1"]}"#);
        assert_eq!(
            parsed.unwrap(),
            Message::Hello {
                capacity: 2,
                codecs: vec![CODEC_BIN1.to_string()],
            }
        );
    }
}
