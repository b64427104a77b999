//! HMAC-SHA-256 handshake for untrusted networks — std-only, no TLS.
//!
//! A fleet reachable over a routable port needs *some* peer
//! authentication: without it any process that can open a TCP connection
//! can feed the coordinator fabricated `CellDone` frames or burn worker
//! time with bogus matrices. The workspace builds offline with no crypto
//! dependencies, so this module hand-rolls the two primitives the
//! handshake needs: FIPS-180-4 SHA-256 (pinned below against the
//! standard test vectors) and RFC-2104 HMAC over it.
//!
//! The handshake is three frames before the ordinary greeting, mutual,
//! and framed like every other message:
//!
//! ```text
//! acceptor → dialer   AuthChallenge{nonce_a}
//! dialer → acceptor   AuthResponse{nonce_d, mac = HMAC(key, "sdiq-dial:" nonce_a ":" nonce_d)}
//! acceptor → dialer   AuthOk{mac = HMAC(key, "sdiq-accept:" nonce_a ":" nonce_d)}
//! ```
//!
//! Both nonces enter both MACs, so each side proves possession of the
//! key over fresh material it did not choose alone (no replay of either
//! direction), and the direction labels stop a reflected transcript from
//! answering itself. MAC comparison is constant-time.
//!
//! What this deliberately does not do: encrypt. Frames stay readable on
//! the wire (cell reports are not secrets); the handshake only ensures
//! both ends hold `--auth-key`. Key agreement happens out of band.

use crate::frame;
use crate::protocol::Message;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 (enough surface for HMAC: update + finalize).
struct Sha256 {
    state: [u32; 8],
    /// Partial input block awaiting its 64th byte.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length so far, in bytes.
    length: u64,
}

impl Sha256 {
    fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, add) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *slot = slot.wrapping_add(add);
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = data.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
            // Either the block just compressed (buffered reset) or the
            // input ran out inside it — don't let the tail copy below
            // clobber the partial block.
            if !data.is_empty() {
                debug_assert_eq!(self.buffered, 0);
            } else {
                return;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            self.compress(block);
            data = rest;
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffered = data.len();
    }

    fn finalize(mut self) -> [u8; 32] {
        let bit_length = self.length * 8;
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0x00]);
        }
        self.update(&bit_length.to_be_bytes());
        debug_assert_eq!(self.buffered, 0);
        let mut digest = [0u8; 32];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        digest
    }
}

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

// ---------------------------------------------------------------------------
// HMAC (RFC 2104)
// ---------------------------------------------------------------------------

/// HMAC-SHA-256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

// ---------------------------------------------------------------------------
// Handshake material
// ---------------------------------------------------------------------------

/// Lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// A fresh challenge nonce. Nonces need uniqueness, not secrecy: this
/// hashes the wall clock, the process id and a process-global counter,
/// so two calls never collide within a process and practically never
/// across processes.
pub fn nonce() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut material = Vec::with_capacity(24);
    material.extend_from_slice(&now.to_le_bytes());
    material.extend_from_slice(&u64::from(std::process::id()).to_le_bytes());
    material.extend_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    hex(&sha256(&material)[..16])
}

/// The dialer's proof: `HMAC(key, "sdiq-dial:" nonce_a ":" nonce_d)`, hex.
pub fn dial_mac(key: &str, acceptor_nonce: &str, dialer_nonce: &str) -> String {
    let message = format!("sdiq-dial:{acceptor_nonce}:{dialer_nonce}");
    hex(&hmac_sha256(key.as_bytes(), message.as_bytes()))
}

/// The acceptor's counter-proof: `HMAC(key, "sdiq-accept:" nonce_a ":" nonce_d)`, hex.
pub fn accept_mac(key: &str, acceptor_nonce: &str, dialer_nonce: &str) -> String {
    let message = format!("sdiq-accept:{acceptor_nonce}:{dialer_nonce}");
    hex(&hmac_sha256(key.as_bytes(), message.as_bytes()))
}

/// Constant-time equality for MAC strings: the loop touches every byte
/// whatever the first mismatch position, so response timing does not
/// leak how much of a guessed MAC was right.
pub fn macs_equal(a: &str, b: &str) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.bytes().zip(b.bytes()) {
        diff |= x ^ y;
    }
    diff == 0
}

// ---------------------------------------------------------------------------
// The handshake itself
// ---------------------------------------------------------------------------

/// Runs the acceptor side of the handshake on a fresh connection:
/// challenge, verify the dialer's proof, counter-prove. On a bad or
/// missing proof the peer gets an `Error` frame naming the problem
/// (so a mis-keyed fleet fails with a message, not a hang) and this
/// returns `PermissionDenied`.
pub fn acceptor_handshake(
    reader: &mut impl Read,
    writer: &mut impl Write,
    key: &str,
) -> io::Result<()> {
    let my_nonce = nonce();
    frame::write_message(
        writer,
        &Message::AuthChallenge {
            nonce: my_nonce.clone(),
        },
    )?;
    match frame::read_message(reader)? {
        Message::AuthResponse {
            nonce: peer_nonce,
            mac,
        } => {
            if !macs_equal(&mac, &dial_mac(key, &my_nonce, &peer_nonce)) {
                let _ = frame::write_message(
                    writer,
                    &Message::Error {
                        message: "authentication failed: MAC mismatch (wrong --auth-key?)"
                            .to_string(),
                    },
                );
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    "peer failed authentication (wrong --auth-key?)",
                ));
            }
            frame::write_message(
                writer,
                &Message::AuthOk {
                    mac: accept_mac(key, &my_nonce, &peer_nonce),
                },
            )
        }
        other => {
            let _ = frame::write_message(
                writer,
                &Message::Error {
                    message: "authentication required: peer must be started with the shared \
                              --auth-key"
                        .to_string(),
                },
            );
            Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("peer sent {other:?} instead of AuthResponse — is it missing --auth-key?"),
            ))
        }
    }
}

/// Runs the dialer side, given the acceptor's already-received
/// challenge nonce: prove, then verify the counter-proof (the handshake
/// is mutual — a bogus acceptor cannot bluff past this without the key).
pub fn dialer_handshake(
    reader: &mut impl Read,
    writer: &mut impl Write,
    key: &str,
    acceptor_nonce: &str,
) -> io::Result<()> {
    let my_nonce = nonce();
    frame::write_message(
        writer,
        &Message::AuthResponse {
            nonce: my_nonce.clone(),
            mac: dial_mac(key, acceptor_nonce, &my_nonce),
        },
    )?;
    match frame::read_message(reader)? {
        Message::AuthOk { mac }
            if macs_equal(&mac, &accept_mac(key, acceptor_nonce, &my_nonce)) =>
        {
            Ok(())
        }
        Message::AuthOk { .. } => Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            "acceptor failed to prove knowledge of the auth key",
        )),
        Message::Error { message } => Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("authentication rejected: {message}"),
        )),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected AuthOk, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_matches_the_fips_test_vectors() {
        // FIPS 180-4 / NIST CAVP short-message vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block + buffering: a million 'a's fed in uneven chunks.
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 997];
        let mut fed = 0;
        while fed < 1_000_000 {
            let take = chunk.len().min(1_000_000 - fed);
            hasher.update(&chunk[..take]);
            fed += take;
        }
        assert_eq!(
            hex(&hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hmac_matches_the_rfc4231_test_vectors() {
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: short key, short message.
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // Test case 6: key longer than one block (hashed first).
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn handshake_macs_verify_and_reject() {
        let (na, nd) = (nonce(), nonce());
        assert_ne!(na, nd, "nonces must be unique");
        let mac = dial_mac("secret", &na, &nd);
        assert!(macs_equal(&mac, &dial_mac("secret", &na, &nd)));
        // Wrong key, swapped nonces, or wrong direction: all rejected.
        assert!(!macs_equal(&mac, &dial_mac("other", &na, &nd)));
        assert!(!macs_equal(&mac, &dial_mac("secret", &nd, &na)));
        assert!(!macs_equal(&mac, &accept_mac("secret", &na, &nd)));
        assert!(!macs_equal(&mac, ""));
    }
}
