//! Wire framing: every message travels as a 4-byte **big-endian** length
//! prefix followed by exactly that many payload bytes. Length prefixes
//! make the stream self-delimiting without sentinel scanning; big-endian
//! keeps the bytes architecture-independent, like the engine's cell-key
//! fingerprints.
//!
//! The payload is the message in the `bin1` layout of [`crate::binary`],
//! in both directions and from the first frame on: a build speaks one
//! dialect, so neither side keeps codec state. A payload in any other
//! layout — a JSON frame from another build, say — is a clean
//! `InvalidData` error.

use crate::binary;
use crate::protocol::Message;
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload, in bytes. A `RunCells` frame
/// carries at most a few thousand cell keys and a `CellDone` one report
/// (a few KiB); anything near this limit is a corrupt or hostile length
/// prefix, and rejecting it beats a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Writes one message as a frame and flushes it, so the peer sees it
/// immediately (cell streaming is the whole point of the protocol).
pub fn write_message(writer: &mut impl Write, message: &Message) -> io::Result<()> {
    let payload = binary::encode_message(message);
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
    binary::decode_message(&payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
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
        Message::Hello { capacity }
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
                // First frame (heartbeat) is 4 + 1 bytes; any cut before a
                // boundary must error, a cut exactly on one must not.
                c if c == 4 + 1 => assert!(matches!(result, Ok(None))),
                _ => assert!(result.is_err(), "cut at {cut} should tear a frame"),
            }
        }
    }

    #[test]
    fn binary_frames_round_trip_and_interleave_with_json() {
        // The heartbeat is the smallest possible frame: length 1, one
        // tag byte.
        let mut heartbeat = Vec::new();
        write_message(&mut heartbeat, &Message::Heartbeat).unwrap();
        assert_eq!(heartbeat, [0, 0, 0, 1, binary::TAG_HEARTBEAT]);

        // A JSON frame between two `bin1` frames — what a peer from
        // another build sends — is a clean error where it lands; the
        // frames before it decode, and the stream stays in step, so the
        // frame after it decodes too.
        let mut buffer = Vec::new();
        write_message(&mut buffer, &hello(3)).unwrap();
        let json = hello(3).render();
        buffer.extend_from_slice(&(json.len() as u32).to_be_bytes());
        buffer.extend_from_slice(json.as_bytes());
        write_message(&mut buffer, &Message::Done { computed: 9 }).unwrap();

        let mut reader = &buffer[..];
        assert_eq!(read_message(&mut reader).unwrap(), hello(3));
        let error = read_message(&mut reader).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("bad frame"), "{error}");
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
