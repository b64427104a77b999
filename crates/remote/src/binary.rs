//! The `bin1` frame codec: the one layout every frame travels in.
//!
//! One tag byte selects the message, then the fields follow in fixed
//! order using `sdiq_core::persist_bin`'s primitives (LEB128 varints,
//! length-prefixed UTF-8, `f64::to_bits`). A `bin1` `CellDone` is ~4×
//! smaller than its JSON twin ([`Message::render`]) and decodes without
//! a parser; the JSON codec stays the tests' differential oracle.
//!
//! Every tag byte is `< 0x20`, and a JSON document as any build renders
//! it starts with `{` (0x7b), so a JSON frame from another build is an
//! unknown tag here: a clean error, never some other message.
//!
//! Decoding is total on untrusted input: the bounds-checked
//! [`ByteReader`] errors on truncation and hostile lengths (never
//! panics, never over-reads), unknown tags error, and trailing bytes
//! after a well-formed message are rejected — both sides must agree on
//! the whole payload, not a prefix of it.

use crate::protocol::Message;
use sdiq_core::persist::PersistError;
use sdiq_core::persist_bin::{
    decode_matrix_spec, decode_report, encode_matrix_spec, encode_report, put_str, put_u64_fixed,
    put_usize, put_varint, ByteReader,
};
use sdiq_obs::TraceEvent;

/// `Hello{capacity}`.
pub const TAG_HELLO: u8 = 0x01;
// 0x02, 0x08, 0x0c and 0x0d stay unassigned: older builds sent messages
// under them that this one does not speak, so such a frame is an unknown
// tag, never another message.
/// `RunCells{fingerprint, spec, keys, trace}`.
pub const TAG_RUN_CELLS: u8 = 0x03;
/// `CellDone{key, report}`.
pub const TAG_CELL_DONE: u8 = 0x04;
/// `Heartbeat` — the whole payload is this one byte.
pub const TAG_HEARTBEAT: u8 = 0x05;
/// `Done{computed}`.
pub const TAG_DONE: u8 = 0x06;
/// `Error{message}`.
pub const TAG_ERROR: u8 = 0x07;
/// `AuthChallenge{nonce}`.
pub const TAG_AUTH_CHALLENGE: u8 = 0x09;
/// `AuthResponse{nonce, mac}`.
pub const TAG_AUTH_RESPONSE: u8 = 0x0a;
/// `AuthOk{mac}`.
pub const TAG_AUTH_OK: u8 = 0x0b;
/// `TraceEvents{events}`.
pub const TAG_TRACE_EVENTS: u8 = 0x0e;

/// Encodes one message as a `bin1` frame payload.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match message {
        Message::Hello { capacity } => {
            out.push(TAG_HELLO);
            put_usize(&mut out, *capacity);
        }
        Message::RunCells {
            fingerprint,
            spec,
            keys,
            trace,
        } => {
            out.push(TAG_RUN_CELLS);
            put_u64_fixed(&mut out, *fingerprint);
            encode_matrix_spec(&mut out, spec);
            put_usize(&mut out, keys.len());
            for key in keys {
                put_str(&mut out, key);
            }
            out.push(u8::from(*trace));
        }
        Message::CellDone { key, report } => {
            out.push(TAG_CELL_DONE);
            put_str(&mut out, key);
            encode_report(&mut out, report);
        }
        Message::Heartbeat => out.push(TAG_HEARTBEAT),
        Message::Done { computed } => {
            out.push(TAG_DONE);
            put_usize(&mut out, *computed);
        }
        Message::Error { message } => {
            out.push(TAG_ERROR);
            put_str(&mut out, message);
        }
        Message::AuthChallenge { nonce } => {
            out.push(TAG_AUTH_CHALLENGE);
            put_str(&mut out, nonce);
        }
        Message::AuthResponse { nonce, mac } => {
            out.push(TAG_AUTH_RESPONSE);
            put_str(&mut out, nonce);
            put_str(&mut out, mac);
        }
        Message::AuthOk { mac } => {
            out.push(TAG_AUTH_OK);
            put_str(&mut out, mac);
        }
        Message::TraceEvents { events } => {
            out.push(TAG_TRACE_EVENTS);
            put_usize(&mut out, events.len());
            for event in events {
                put_str(&mut out, &event.name);
                put_str(&mut out, &event.cat);
                put_varint(&mut out, event.pid);
                put_varint(&mut out, event.tid);
                put_varint(&mut out, event.start_nanos);
                match event.dur_nanos {
                    None => out.push(0),
                    Some(dur) => {
                        out.push(1);
                        put_varint(&mut out, dur);
                    }
                }
                put_usize(&mut out, event.args.len());
                for (key, value) in &event.args {
                    put_str(&mut out, key);
                    put_str(&mut out, value);
                }
            }
        }
    }
    out
}

fn decode_trace_event(reader: &mut ByteReader<'_>) -> Result<TraceEvent, PersistError> {
    let name = reader.str()?.to_string();
    let cat = reader.str()?.to_string();
    let pid = reader.varint()?;
    let tid = reader.varint()?;
    let start_nanos = reader.varint()?;
    let dur_nanos = match reader.u8()? {
        0 => None,
        1 => Some(reader.varint()?),
        other => {
            return Err(PersistError::new(format!(
                "trace event duration marker must be 0 or 1, got {other}"
            )))
        }
    };
    let arg_count = reader.seq_len(2)?;
    let mut args = Vec::with_capacity(arg_count);
    for _ in 0..arg_count {
        let key = reader.str()?.to_string();
        let value = reader.str()?.to_string();
        args.push((key, value));
    }
    Ok(TraceEvent {
        name,
        cat,
        pid,
        tid,
        start_nanos,
        dur_nanos,
        args,
    })
}

/// Decodes one `bin1` frame payload. Errors on unknown tags, truncated
/// or hostile field lengths, and trailing bytes; never panics.
pub fn decode_message(payload: &[u8]) -> Result<Message, PersistError> {
    let mut reader = ByteReader::new(payload);
    let tag = reader.u8()?;
    let message = match tag {
        TAG_HELLO => Message::Hello {
            capacity: reader.usize()?,
        },
        TAG_RUN_CELLS => {
            let fingerprint = reader.u64_fixed()?;
            let spec = decode_matrix_spec(&mut reader)?;
            let count = reader.seq_len(1)?;
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(reader.str()?.to_string());
            }
            let trace = match reader.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(PersistError::new(format!(
                        "RunCells trace flag must be 0 or 1, got {other:#04x}"
                    )))
                }
            };
            Message::RunCells {
                fingerprint,
                spec,
                keys,
                trace,
            }
        }
        TAG_CELL_DONE => Message::CellDone {
            key: reader.str()?.to_string(),
            report: Box::new(decode_report(&mut reader)?),
        },
        TAG_HEARTBEAT => Message::Heartbeat,
        TAG_DONE => Message::Done {
            computed: reader.usize()?,
        },
        TAG_ERROR => Message::Error {
            message: reader.str()?.to_string(),
        },
        TAG_AUTH_CHALLENGE => Message::AuthChallenge {
            nonce: reader.str()?.to_string(),
        },
        TAG_AUTH_RESPONSE => Message::AuthResponse {
            nonce: reader.str()?.to_string(),
            mac: reader.str()?.to_string(),
        },
        TAG_AUTH_OK => Message::AuthOk {
            mac: reader.str()?.to_string(),
        },
        TAG_TRACE_EVENTS => {
            // Minimum event: two empty strings, three zero varints, the
            // duration marker and a zero arg count — 7 bytes.
            let count = reader.seq_len(7)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                events.push(decode_trace_event(&mut reader)?);
            }
            Message::TraceEvents { events }
        }
        other => {
            return Err(PersistError::new(format!(
                "unknown binary message tag {other:#04x}"
            )))
        }
    };
    reader.finish()?;
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_core::{Experiment, MatrixSpec, Technique};
    use sdiq_workloads::Benchmark;

    fn sample_messages() -> Vec<Message> {
        let experiment = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        let report = experiment.run(Benchmark::Gzip, Technique::Noop);
        let spec = MatrixSpec {
            scale: 0.05,
            sweeps: vec![("iq".to_string(), vec![48.0, 32.0])],
            benchmarks: vec!["gzip".to_string(), "mcf".to_string()],
            techniques: vec!["baseline".to_string(), "noop".to_string()],
        };
        vec![
            Message::Hello { capacity: 4 },
            Message::RunCells {
                fingerprint: 0xdead_beef_0123_4567,
                spec: spec.clone(),
                keys: vec!["a|b|c|00".to_string(), "d|e|f|01".to_string()],
                trace: false,
            },
            Message::RunCells {
                fingerprint: 0xdead_beef_0123_4567,
                spec,
                keys: vec!["a|b|c|00".to_string()],
                trace: true,
            },
            Message::TraceEvents {
                events: vec![
                    TraceEvent {
                        name: "cell".to_string(),
                        cat: "cell".to_string(),
                        pid: 0,
                        tid: 3,
                        start_nanos: 1_000,
                        dur_nanos: Some(5_000),
                        args: vec![("key".to_string(), "gzip|noop|base".to_string())],
                    },
                    TraceEvent {
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
        ]
    }

    /// Every tag stays below the first byte of any JSON text a build
    /// renders, so a JSON frame can never decode as a `bin1` message.
    const MAX_TAG: u8 = 0x20;

    #[test]
    fn every_message_round_trips_and_stays_below_the_tag_boundary() {
        for message in sample_messages() {
            let payload = encode_message(&message);
            assert!(
                payload[0] < MAX_TAG,
                "tag {:#04x} must stay below the JSON range",
                payload[0]
            );
            assert_eq!(
                decode_message(&payload).unwrap(),
                message,
                "{message:?} must round-trip"
            );
        }
    }

    #[test]
    fn binary_and_json_payloads_decode_to_the_same_message() {
        // Differential against the JSON oracle: both codecs reproduce
        // the identical message value.
        for message in sample_messages() {
            let via_binary = decode_message(&encode_message(&message)).unwrap();
            let via_json = Message::parse(&message.render()).unwrap();
            assert_eq!(via_binary, via_json);
        }
    }

    #[test]
    fn cell_done_is_substantially_smaller_than_json() {
        let cell_done = sample_messages()
            .into_iter()
            .find(|m| matches!(m, Message::CellDone { .. }))
            .unwrap();
        let binary = encode_message(&cell_done).len();
        let json = cell_done.render().len();
        assert!(
            binary * 3 < json,
            "bin1 CellDone is {binary} bytes vs {json} JSON — expected ≥3× smaller"
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_error_cleanly() {
        for message in sample_messages() {
            let payload = encode_message(&message);
            for cut in 0..payload.len() {
                // Every strict prefix must fail to decode (the codec has
                // no optional tails), and must never panic.
                assert!(
                    decode_message(&payload[..cut]).is_err(),
                    "{message:?} truncated to {cut} bytes must error"
                );
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert!(
                decode_message(&padded).is_err(),
                "{message:?} with a trailing byte must error"
            );
        }
        // Frames older builds sent, each well formed in its own build: a
        // greeting with an empty codec list, `Register{capacity: 4,
        // codecs: []}` under 0x02, a codec switch to "bin1" under 0x08,
        // and a JSON greeting.
        for unknown in [
            &[0x1f][..],
            &[0x01, 0x04, 0x00],
            &[0x02, 0x04, 0x00],
            &[0x08, 0x04, b'b', b'i', b'n', b'1'],
            br#"{"type":"hello","capacity":4}"#,
        ] {
            assert!(
                decode_message(unknown).is_err(),
                "unknown frame {unknown:?}"
            );
        }
    }
}
