//! Property tests for the `bin1` frame decoder on untrusted input.
//!
//! The decoder's contract is *totality*: whatever bytes arrive — torn
//! frames, flipped bits, hostile length fields, plain noise — it must
//! return an error or a message, never panic and never over-read. The
//! unit tests in `binary.rs` pin this for every strict prefix of a
//! fixed message set; these properties drive the same contract with
//! randomly generated messages, random corruption, and raw byte soup.

// Integration tests are exempt from the workspace unwrap/expect denial
// (the crate-root cfg_attr does not reach separately compiled test crates).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use sdiq_obs::TraceEvent;
use sdiq_remote::binary::{decode_message, encode_message};
use sdiq_remote::protocol::Message;

/// Printable-ASCII strings (cell keys, error text, nonces and MACs are
/// all ASCII in practice; UTF-8 handling is pinned by the unit tests).
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(32u16..127u16, 0..24)
        .prop_map(|chars| chars.into_iter().map(|c| c as u8 as char).collect())
}

/// Full-range `u64` (the range strategy excludes its end, which is fine —
/// the codec has no special case at `u64::MAX`): the varint path and the
/// JSON number path must both carry any value a trace timestamp reaches.
fn arb_u64() -> impl Strategy<Value = u64> {
    0u64..u64::MAX
}

fn arb_trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        (arb_string(), arb_string()),
        (arb_u64(), arb_u64(), arb_u64()),
        prop_oneof![(0u8..1u8).prop_map(|_| None), arb_u64().prop_map(Some),],
        prop::collection::vec((arb_string(), arb_string()), 0..3),
    )
        .prop_map(
            |((name, cat), (pid, tid, start_nanos), dur_nanos, args)| TraceEvent {
                name,
                cat,
                pid,
                tid,
                start_nanos,
                dur_nanos,
                args,
            },
        )
}

/// Control-plane messages over generated field values. (`RunCells` and
/// `CellDone` carry deep nested structures; their codec is pinned by the
/// differential unit tests against real reports — generating arbitrary
/// valid reports here would mostly re-test the generator.)
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0usize..1024).prop_map(|capacity| Message::Hello { capacity }),
        (0u8..1u8).prop_map(|_| Message::Heartbeat),
        (0usize..1 << 20).prop_map(|computed| Message::Done { computed }),
        arb_string().prop_map(|message| Message::Error { message }),
        arb_string().prop_map(|nonce| Message::AuthChallenge { nonce }),
        (arb_string(), arb_string()).prop_map(|(nonce, mac)| Message::AuthResponse { nonce, mac }),
        arb_string().prop_map(|mac| Message::AuthOk { mac }),
        prop::collection::vec(arb_trace_event(), 0..4)
            .prop_map(|events| Message::TraceEvents { events }),
    ]
}

fn arb_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u16..256u16, 0..max_len)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as u8).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_messages_round_trip(message in arb_message()) {
        let payload = encode_message(&message);
        let decoded = decode_message(&payload);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded);
        prop_assert_eq!(decoded.unwrap(), message);
    }

    #[test]
    fn every_truncation_of_a_valid_message_errors(
        message in arb_message(),
        fraction in 0.0f64..1.0f64,
    ) {
        // The codec has no optional tails, so *every* strict prefix is
        // invalid — and must be rejected, not mis-decoded or panicked on.
        let payload = encode_message(&message);
        let cut = ((payload.len() as f64) * fraction) as usize; // < len
        prop_assert!(
            decode_message(&payload[..cut]).is_err(),
            "prefix of {} of {} bytes decoded", cut, payload.len()
        );
    }

    #[test]
    fn corrupted_messages_never_panic(
        message in arb_message(),
        position in 0.0f64..1.0f64,
        flip in 1u16..256u16,
    ) {
        // Flip one byte anywhere: the decoder may reject it, or it may
        // decode some other well-formed message (a flipped length byte
        // can turn one valid string into another, and LEB128 tolerates
        // non-minimal varints) — but it must stay total, and whatever it
        // accepts must itself round-trip.
        let mut payload = encode_message(&message);
        let index = ((payload.len() as f64) * position) as usize;
        payload[index] ^= flip as u8;
        if let Ok(decoded) = decode_message(&payload) {
            let reencoded = encode_message(&decoded);
            prop_assert_eq!(decode_message(&reencoded).unwrap(), decoded);
        }
    }

    #[test]
    fn byte_soup_never_panics(payload in arb_bytes(96)) {
        // Raw noise: errors are expected, panics and over-reads are not.
        // Whatever the decoder accepts must itself round-trip.
        if let Ok(decoded) = decode_message(&payload) {
            let reencoded = encode_message(&decoded);
            prop_assert_eq!(decode_message(&reencoded).unwrap(), decoded);
        }
    }

    #[test]
    fn hostile_length_fields_error_before_allocating(
        which in 0usize..5,
        length in (1u64 << 32)..(1u64 << 62),
    ) {
        use sdiq_remote::binary::{
            TAG_AUTH_CHALLENGE, TAG_AUTH_OK, TAG_AUTH_RESPONSE, TAG_CELL_DONE, TAG_ERROR,
        };
        // A tiny payload whose leading string claims a multi-gigabyte
        // length must be rejected by the bounds check (length > bytes
        // remaining), not trusted into an allocation.
        let tags = [
            TAG_CELL_DONE,
            TAG_ERROR,
            TAG_AUTH_CHALLENGE,
            TAG_AUTH_RESPONSE,
            TAG_AUTH_OK,
        ];
        let mut payload = vec![tags[which]];
        let mut value = length;
        while value >= 0x80 {
            payload.push((value as u8 & 0x7f) | 0x80);
            value >>= 7;
        }
        payload.push(value as u8);
        prop_assert!(decode_message(&payload).is_err());
    }

    #[test]
    fn generated_messages_round_trip_through_the_json_oracle(message in arb_message()) {
        // The JSON codec is the differential oracle for `bin1`
        // (`generated_messages_round_trip`): it too must reproduce every
        // generated message, full-range numbers included.
        prop_assert_eq!(Message::parse(&message.render()).unwrap(), message);
    }

    #[test]
    fn trace_events_round_trip_both_codecs(
        events in prop::collection::vec(arb_trace_event(), 0..4),
    ) {
        let message = Message::TraceEvents { events };
        prop_assert_eq!(decode_message(&encode_message(&message)).unwrap(), message.clone());
        prop_assert_eq!(Message::parse(&message.render()).unwrap(), message);
    }
}
