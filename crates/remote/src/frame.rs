//! Wire framing: every message travels as a 4-byte **big-endian** length
//! prefix followed by exactly that many payload bytes. Length prefixes
//! make the stream self-delimiting without sentinel scanning; big-endian
//! keeps the bytes architecture-independent, like the engine's cell-key
//! fingerprints.
//!
//! The payload is one of two codecs, chosen per *writer* by negotiation
//! (see [`crate::protocol`]): UTF-8 JSON, or the compact `bin1` layout in
//! [`crate::binary`]. Readers never need to know what was negotiated —
//! binary payloads start with a tag byte `< 0x20` and JSON documents
//! cannot, so [`read_message_opt`] detects the codec of every frame from
//! its first byte. That keeps the reader stateless across the `SetCodec`
//! switch and makes mixed-codec streams (during negotiation) safe by
//! construction. Every message, `Heartbeat` included, goes through the
//! codecs: a daemon sends one heartbeat to ack each batch and one per
//! second while it computes, against one `CellDone` per cell.

use crate::binary;
use crate::protocol::Message;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload, in bytes. A `RunCells` frame
/// carries at most a few thousand cell keys and a `CellDone` one report
/// (a few KiB); anything near this limit is a corrupt or hostile length
/// prefix, and rejecting it beats a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Which codec a writer uses for its frames (readers auto-detect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// UTF-8 JSON payloads (the implicit default every peer speaks).
    Json,
    /// The `bin1` binary layout ([`crate::binary`]), after negotiation.
    Binary,
}

/// Writes one message as a frame in `codec` and flushes it, so the peer
/// sees it immediately (cell streaming is the whole point of the
/// protocol).
pub fn write_message_codec(
    writer: &mut impl Write,
    message: &Message,
    codec: Codec,
) -> io::Result<()> {
    let payload = match codec {
        Codec::Json => message.render().into_bytes(),
        Codec::Binary => binary::encode_message(message),
    };
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the protocol limit",
                    payload.len()
                ),
            )
        })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()
}

/// [`write_message_codec`] with the JSON codec (greetings and the auth
/// handshake, which precede negotiation, plus every un-negotiated
/// connection).
pub fn write_message(writer: &mut impl Write, message: &Message) -> io::Result<()> {
    write_message_codec(writer, message, Codec::Json)
}

/// Decodes one frame payload, auto-detecting its codec from the first
/// byte (see the module docs).
fn decode_payload(payload: &[u8]) -> io::Result<Message> {
    match payload.first() {
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame: empty payload",
        )),
        Some(&tag) if tag < binary::MAX_TAG => binary::decode_message(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))),
        Some(_) => {
            let text = std::str::from_utf8(payload).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame is not UTF-8: {e}"),
                )
            })?;
            Message::parse(text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
        }
    }
}

/// Reads one message, or `Ok(None)` on a clean end-of-stream (the peer
/// closed the connection *between* frames — the normal way a coordinator
/// releases a worker). EOF in the middle of a frame is an error: it is
/// the signature of a peer that died mid-send.
pub fn read_message_opt(reader: &mut impl Read) -> io::Result<Option<Message>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = reader.read(&mut prefix[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the protocol limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    decode_payload(&payload).map(Some)
}

/// [`read_message_opt`] for callers to whom *any* end-of-stream is a
/// failure (the coordinator mid-batch: a vanished worker must surface as
/// an error so its cells get re-queued).
pub fn read_message(reader: &mut impl Read) -> io::Result<Message> {
    read_message_opt(reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(capacity: usize) -> Message {
        Message::Hello {
            capacity,
            codecs: Vec::new(),
        }
    }

    #[test]
    fn frames_round_trip_and_eof_positions_are_distinguished() {
        let mut buffer = Vec::new();
        write_message(&mut buffer, &Message::Heartbeat).unwrap();
        write_message(&mut buffer, &hello(7)).unwrap();

        let mut reader = &buffer[..];
        assert_eq!(read_message(&mut reader).unwrap(), Message::Heartbeat);
        assert_eq!(read_message(&mut reader).unwrap(), hello(7));
        // Clean EOF at a frame boundary: Ok(None) for the daemon...
        assert!(read_message_opt(&mut reader).unwrap().is_none());
        // ...and an error for the mid-batch coordinator.
        let mut reader = &buffer[..];
        read_message(&mut reader).unwrap();
        read_message(&mut reader).unwrap();
        assert_eq!(
            read_message(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );

        // EOF *inside* a frame is always an error, wherever it lands.
        for cut in 1..buffer.len() {
            let mut torn = &buffer[..cut];
            let mut result = Ok(Some(Message::Heartbeat));
            while matches!(result, Ok(Some(_))) {
                result = read_message_opt(&mut torn);
            }
            match cut {
                // First frame (heartbeat) is 4 + 20 bytes; any cut before a
                // boundary must error, a cut exactly on one must not.
                c if c == 4 + 20 => assert!(matches!(result, Ok(None))),
                _ => assert!(result.is_err(), "cut at {cut} should tear a frame"),
            }
        }
    }

    #[test]
    fn binary_frames_round_trip_and_interleave_with_json() {
        // The binary heartbeat is the smallest possible frame: length 1,
        // one tag byte.
        let mut heartbeat = Vec::new();
        write_message_codec(&mut heartbeat, &Message::Heartbeat, Codec::Binary).unwrap();
        assert_eq!(heartbeat, [0, 0, 0, 1, binary::TAG_HEARTBEAT]);

        // A mixed stream — as seen across a SetCodec switch — decodes
        // frame by frame with no reader-side state.
        let mut buffer = Vec::new();
        write_message_codec(&mut buffer, &hello(3), Codec::Json).unwrap();
        write_message_codec(
            &mut buffer,
            &Message::SetCodec {
                codec: crate::protocol::CODEC_BIN1.to_string(),
            },
            Codec::Json,
        )
        .unwrap();
        write_message_codec(&mut buffer, &Message::Heartbeat, Codec::Binary).unwrap();
        write_message_codec(&mut buffer, &Message::Done { computed: 9 }, Codec::Binary).unwrap();

        let mut reader = &buffer[..];
        assert_eq!(read_message(&mut reader).unwrap(), hello(3));
        assert!(matches!(
            read_message(&mut reader).unwrap(),
            Message::SetCodec { .. }
        ));
        assert_eq!(read_message(&mut reader).unwrap(), Message::Heartbeat);
        assert_eq!(
            read_message(&mut reader).unwrap(),
            Message::Done { computed: 9 }
        );
        assert!(read_message_opt(&mut reader).unwrap().is_none());
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_without_allocating() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&u32::MAX.to_be_bytes());
        buffer.extend_from_slice(b"junk");
        let error = read_message(&mut &buffer[..]).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("exceeds the protocol limit"));
    }

    #[test]
    fn empty_and_garbage_payloads_error_cleanly() {
        // Zero-length frame.
        let buffer = 0u32.to_be_bytes();
        assert!(read_message(&mut &buffer[..]).is_err());
        // A binary-range first byte with a broken body.
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&2u32.to_be_bytes());
        buffer.extend_from_slice(&[binary::TAG_ERROR, 0xff]);
        assert!(read_message(&mut &buffer[..]).is_err());
    }
}
