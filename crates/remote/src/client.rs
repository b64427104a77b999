//! The coordinator's side of one worker connection: dial the daemon,
//! authenticate when `--auth-key` is set, read its `Hello`, negotiate
//! the frame codec, then expose the connection as a
//! [`WorkerLink`](crate::scheduler::WorkerLink) for the scheduler.
//!
//! Liveness lives here: every worker socket carries a read deadline of
//! [`RemoteOptions::heartbeat_deadline`]. Healthy daemons emit a
//! `Heartbeat` at least every few seconds even while a long cell
//! computes, so *any* read that times out means the worker went silent
//! past the deadline — a hung machine, a blackholed network — and the
//! link surfaces it as an error so the scheduler re-queues the worker's
//! in-flight cells. Before this deadline existed, a hung worker stalled
//! the whole run forever: `recv` blocked in `read` with no way out.
//!
//! Codec negotiation is one-sided and cheap: a worker whose greeting
//! advertises `bin1` gets a `SetCodec` frame back and both directions
//! switch to the compact binary codec; any other worker — an old build,
//! `serve --wire json` — keeps JSON and never sees a frame it cannot
//! parse. Reads auto-detect per frame, so the switch needs no ack.

use crate::auth;
use crate::fleet;
use crate::frame::{self, Codec};
use crate::protocol::{Message, CAP_OBS1, CODEC_BIN1};
use crate::scheduler::{WorkerEvent, WorkerLink};
use crate::RemoteOptions;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A worker daemon reached over TCP.
struct TcpWorkerLink {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    capacity: usize,
    remote: RemoteOptions,
    fingerprint: u64,
    /// Negotiated codec for frames *we* send (reads auto-detect).
    codec: Codec,
    /// The address this link reports fleet metrics and traces under.
    addr: String,
    /// Ask for metrics heartbeats / span shipping on every batch. Only
    /// set when the run wants it *and* this worker advertised
    /// [`CAP_OBS1`] — an old daemon is never sent the request.
    observe: bool,
    /// Ask for span recording on every batch (same gating as `observe`).
    trace: bool,
}

/// The observability flags for one worker link: what the run asked for
/// ([`RemoteOptions::observe`]), masked by whether this worker's greeting
/// advertised the [`CAP_OBS1`] capability.
fn observe_flags(remote: &RemoteOptions, codecs: &[String]) -> (bool, bool) {
    let capable = codecs.iter().any(|codec| codec == CAP_OBS1);
    (
        capable && remote.observe.metrics,
        capable && remote.observe.trace,
    )
}

/// Connects to `addr` within `remote.connect_timeout` (a blackholed
/// address must not stall startup for the OS default of minutes) and
/// configures the stream: no Nagle (frames are small and
/// latency-sensitive — each `CellDone` unblocks scheduling decisions)
/// and the heartbeat read deadline (zero = the deadline is disabled and
/// reads block forever). The error names the address: with several
/// `--workers`, "connection timed out" alone does not say which machine
/// to go look at.
fn connect(addr: &str, remote: &RemoteOptions) -> io::Result<TcpStream> {
    let timeout = remote.connect_timeout;
    let stream = connect_bounded(addr, timeout).map_err(|error| {
        io::Error::new(
            error.kind(),
            format!("worker {addr} unreachable within {timeout:?}: {error}"),
        )
    })?;
    stream.set_nodelay(true)?;
    let deadline = remote.heartbeat_deadline;
    stream.set_read_timeout((!deadline.is_zero()).then_some(deadline))?;
    Ok(stream)
}

/// `TcpStream::connect` with a per-attempt bound: like the unbounded
/// version, every resolved socket address is tried in turn (a dual-stack
/// host whose first record is unreachable must not shadow a reachable
/// second one), and the last error is reported. Zero timeout = plain
/// `connect`.
fn connect_bounded(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    if timeout.is_zero() {
        return TcpStream::connect(addr);
    }
    let mut last = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(error) => last = Some(error),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("address `{addr}` resolves to no socket address"),
        )
    }))
}

/// Picks the frame codec for a worker that advertised `codecs` and, when
/// the pick is not the implicit JSON, tells the worker with `SetCodec`
/// (the worker switches its own frames on receipt; TCP ordering makes an
/// ack unnecessary).
fn negotiate(
    writer: &mut TcpStream,
    remote: &RemoteOptions,
    codecs: &[String],
) -> io::Result<Codec> {
    if remote.binary_wire && codecs.iter().any(|codec| codec == CODEC_BIN1) {
        frame::write_message(
            writer,
            &Message::SetCodec {
                codec: CODEC_BIN1.to_string(),
            },
        )?;
        Ok(Codec::Binary)
    } else {
        Ok(Codec::Json)
    }
}

/// Dials a worker daemon at `addr` (`host:port`), runs the auth
/// handshake when configured, performs the `Hello` handshake, and
/// returns the connected link. This is the production
/// [`Dialer`](crate::scheduler::Dialer).
pub fn dial(
    addr: &str,
    remote: &RemoteOptions,
    fingerprint: u64,
) -> io::Result<Box<dyn WorkerLink>> {
    let stream = connect(addr, remote)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // The deadline already applies: a daemon that accepts and then hangs
    // cannot stall the handshake either.
    let mut first = frame::read_message(&mut reader).map_err(|e| deadline_error(remote, e))?;
    if let Message::Error { message } = &first {
        // Refused before any handshake (a daemon at its connection cap).
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("worker {addr} refused the connection: {message}"),
        ));
    }
    if let Message::AuthChallenge { nonce } = &first {
        // The worker demands authentication.
        let Some(key) = &remote.auth_key else {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("worker {addr} requires authentication — pass the shared --auth-key"),
            ));
        };
        auth::dialer_handshake(&mut reader, &mut writer, key, nonce)
            .map_err(|e| io::Error::new(e.kind(), format!("worker {addr}: {e}")))?;
        first = frame::read_message(&mut reader).map_err(|e| deadline_error(remote, e))?;
    } else if remote.auth_key.is_some() {
        // We hold a key but the worker never asked for proof: a config
        // mismatch that would silently run unauthenticated — refuse.
        return Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!(
                "worker {addr} did not request authentication but --auth-key is set \
                 (is the daemon running without --auth-key?)"
            ),
        ));
    }
    match first {
        Message::Hello { capacity, codecs } => {
            let codec = negotiate(&mut writer, remote, &codecs)?;
            let (observe, trace) = observe_flags(remote, &codecs);
            Ok(Box::new(TcpWorkerLink {
                reader,
                writer,
                capacity,
                remote: remote.clone(),
                fingerprint,
                codec,
                addr: addr.to_string(),
                observe,
                trace,
            }))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("worker {addr} opened with {other:?} instead of Hello"),
        )),
    }
}

/// Rewrites a socket-timeout error into the liveness verdict it means:
/// the worker was silent past the heartbeat deadline. (`WouldBlock` is
/// what Unix returns for a timed-out read on a socket with
/// `SO_RCVTIMEO`; Windows says `TimedOut`.)
fn deadline_error(remote: &RemoteOptions, error: io::Error) -> io::Error {
    match error.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "silent past the {:?} heartbeat deadline — presumed hung",
                remote.heartbeat_deadline
            ),
        ),
        _ => error,
    }
}

impl WorkerLink for TcpWorkerLink {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn submit(&mut self, keys: &[String]) -> io::Result<()> {
        frame::write_message_codec(
            &mut self.writer,
            &Message::RunCells {
                fingerprint: self.fingerprint,
                spec: self.remote.spec.clone(),
                keys: keys.to_vec(),
                observe: self.observe,
                trace: self.trace,
            },
            self.codec,
        )
    }

    fn recv(&mut self) -> io::Result<WorkerEvent> {
        loop {
            let message = frame::read_message(&mut self.reader)
                .map_err(|e| deadline_error(&self.remote, e))?;
            match message {
                Message::CellDone { key, report } => return Ok(WorkerEvent::Cell(key, report)),
                Message::Done { .. } => return Ok(WorkerEvent::Done),
                Message::Heartbeat => continue, // keep-alive: the read itself reset the deadline
                Message::HeartbeatMetrics { metrics } => {
                    // A keep-alive like any other (the read reset the
                    // deadline), plus the worker's latest totals for the
                    // fleet view.
                    fleet::record(&self.addr, metrics);
                    continue;
                }
                Message::TraceEvents { events } => {
                    // The worker's spans for this batch, re-laned onto
                    // its fleet pid and merged for the trace export.
                    fleet::inject_trace(&self.addr, events);
                    continue;
                }
                Message::Error { message } => {
                    // The worker refused or failed the batch; surfacing it
                    // as an I/O error makes the scheduler re-queue this
                    // batch and abandon the worker.
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker refused the batch: {message}"),
                    ));
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame from worker: {other:?}"),
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdiq_core::MatrixSpec;
    use std::net::TcpListener;

    fn test_spec(heartbeat_deadline: Duration) -> RemoteOptions {
        RemoteOptions {
            connect_timeout: Duration::from_secs(5),
            heartbeat_deadline,
            ..RemoteOptions::new(MatrixSpec {
                scale: 0.05,
                sweeps: Vec::new(),
                benchmarks: vec!["gzip".to_string()],
                techniques: vec!["baseline".to_string()],
            })
        }
    }

    fn hello(capacity: usize) -> Message {
        Message::Hello {
            capacity,
            codecs: Vec::new(),
        }
    }

    /// The liveness bugfix, pinned at the socket level: a worker that
    /// says Hello and then goes silent (no frames, socket open — the
    /// wire signature of a hung machine) must surface as a timeout
    /// within the heartbeat deadline, not block forever.
    #[test]
    fn a_silent_worker_times_out_at_the_heartbeat_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            frame::write_message(&mut stream, &hello(1)).unwrap();
            // Hold the socket open, silently, longer than the deadline.
            std::thread::sleep(Duration::from_secs(2));
            drop(stream);
        });
        let spec = test_spec(Duration::from_millis(200));
        let mut link = dial(&addr, &spec, 0).expect("handshake inside the deadline");
        let started = std::time::Instant::now();
        let error = link.recv().expect_err("silence must not block forever");
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
        assert!(
            error.to_string().contains("heartbeat deadline"),
            "error names the deadline: {error}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the deadline fired, not the 2 s server sleep"
        );
        server.join().unwrap();
    }

    /// Heartbeats are what keeps a slow-but-alive worker alive: each one
    /// resets the read deadline, so a cell that computes for many
    /// deadline-lengths survives as long as the daemon keeps beating.
    #[test]
    fn heartbeats_reset_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            frame::write_message(&mut stream, &hello(1)).unwrap();
            for _ in 0..6 {
                std::thread::sleep(Duration::from_millis(100));
                frame::write_message(&mut stream, &Message::Heartbeat).unwrap();
            }
            frame::write_message(&mut stream, &Message::Done { computed: 0 }).unwrap();
        });
        let spec = test_spec(Duration::from_millis(300));
        let mut link = dial(&addr, &spec, 0).unwrap();
        // Six 100 ms beats span 600 ms — twice the deadline — yet the
        // stream stays live because every beat resets it.
        match link.recv().expect("kept alive by heartbeats") {
            WorkerEvent::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
        server.join().unwrap();
    }

    /// The dial itself is bounded too: an address that drops SYNs (here:
    /// a listener whose backlog we never accept from is the closest
    /// portable stand-in — so instead use an unroutable port on a bound
    /// but never-accepting socket) must fail within `connect_timeout`.
    /// Localhost refuses instantly, so the observable contract is just
    /// that refused dials name the address.
    #[test]
    fn unreachable_workers_name_the_address() {
        let spec = test_spec(Duration::from_millis(200));
        // Bind-then-drop: the port was just free, so the dial is refused.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let error = match dial(&addr, &spec, 0) {
            Err(error) => error,
            Ok(_) => panic!("nobody listens there"),
        };
        assert!(
            error.to_string().contains(&addr),
            "error names the address: {error}"
        );
    }

    /// A worker that advertises `bin1` gets `SetCodec` and subsequent
    /// batches arrive binary-framed; one that advertises nothing keeps
    /// receiving JSON. Both observed from the worker's side of the wire.
    #[test]
    fn codec_negotiation_switches_exactly_the_advertising_worker() {
        for advertise in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let server = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = stream.try_clone().unwrap();
                let codecs = if advertise {
                    vec![CODEC_BIN1.to_string()]
                } else {
                    Vec::new()
                };
                frame::write_message(
                    &mut writer,
                    &Message::Hello {
                        capacity: 1,
                        codecs,
                    },
                )
                .unwrap();
                let mut reader = BufReader::new(stream);
                let mut saw_set_codec = false;
                // Read raw frames: length prefix + payload, so the test
                // sees the actual encoding, not just the decoded message.
                while let Ok(Some(message)) = frame::read_message_opt(&mut reader) {
                    match message {
                        Message::SetCodec { codec } => {
                            assert_eq!(codec, CODEC_BIN1);
                            saw_set_codec = true;
                        }
                        Message::RunCells { keys, .. } => {
                            assert_eq!(keys, vec!["k".to_string()]);
                            frame::write_message(&mut writer, &Message::Done { computed: 0 })
                                .unwrap();
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                assert_eq!(saw_set_codec, advertise, "SetCodec iff advertised");
            });
            let spec = test_spec(Duration::from_secs(2));
            let mut link = dial(&addr, &spec, 0).unwrap();
            link.submit(&["k".to_string()]).unwrap();
            match link.recv().unwrap() {
                WorkerEvent::Done => {}
                other => panic!("expected Done, got {other:?}"),
            }
            drop(link);
            server.join().unwrap();
        }
    }

    /// Auth, both failure shapes: a keyless coordinator dialing a keyed
    /// worker gets a clean "requires authentication" error, and a keyed
    /// coordinator dialing a keyless worker refuses to proceed — neither
    /// hangs.
    #[test]
    fn auth_mismatches_fail_cleanly_in_both_directions() {
        // Keyed worker, keyless coordinator.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let _ = auth::acceptor_handshake(&mut reader, &mut writer, "sesame");
        });
        let spec = test_spec(Duration::from_secs(2));
        let error = match dial(&addr, &spec, 0) {
            Err(error) => error,
            Ok(_) => panic!("must refuse without a key"),
        };
        assert!(
            error.to_string().contains("requires authentication"),
            "clean error: {error}"
        );
        server.join().unwrap();

        // Keyless worker, keyed coordinator.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            frame::write_message(&mut stream, &hello(1)).unwrap();
            std::thread::sleep(Duration::from_millis(100));
        });
        let mut spec = test_spec(Duration::from_secs(2));
        spec.auth_key = Some("sesame".to_string());
        let error = match dial(&addr, &spec, 0) {
            Err(error) => error,
            Ok(_) => panic!("must refuse unauthenticated worker"),
        };
        assert!(
            error.to_string().contains("did not request authentication"),
            "clean error: {error}"
        );
        server.join().unwrap();

        // Wrong key: the handshake itself rejects.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let error = auth::acceptor_handshake(&mut reader, &mut writer, "sesame")
                .expect_err("wrong key must fail");
            assert_eq!(error.kind(), io::ErrorKind::PermissionDenied);
        });
        let mut spec = test_spec(Duration::from_secs(2));
        spec.auth_key = Some("not-sesame".to_string());
        let error = match dial(&addr, &spec, 0) {
            Err(error) => error,
            Ok(_) => panic!("wrong key must fail"),
        };
        assert!(
            error.to_string().contains("authentication"),
            "clean error: {error}"
        );
        server.join().unwrap();
    }

    /// The full handshake succeeding end to end: keyed on both sides,
    /// then a normal greeting and batch.
    #[test]
    fn matching_auth_keys_handshake_and_run() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            auth::acceptor_handshake(&mut reader, &mut writer, "sesame").unwrap();
            frame::write_message(&mut writer, &hello(1)).unwrap();
            match frame::read_message(&mut reader).unwrap() {
                Message::RunCells { .. } => {
                    frame::write_message(&mut writer, &Message::Done { computed: 0 }).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        });
        let mut spec = test_spec(Duration::from_secs(2));
        spec.auth_key = Some("sesame".to_string());
        let mut link = dial(&addr, &spec, 0).unwrap();
        link.submit(&["k".to_string()]).unwrap();
        match link.recv().unwrap() {
            WorkerEvent::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
        server.join().unwrap();
    }
}
