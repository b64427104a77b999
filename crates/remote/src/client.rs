//! The coordinator's side of one worker connection: dial the daemon,
//! authenticate when `--auth-key` is set, read its `Hello`, then expose
//! the connection as a [`WorkerLink`](crate::scheduler::WorkerLink) for
//! the scheduler.
//!
//! Liveness lives here: every worker socket carries a read deadline of
//! [`RemoteOptions::heartbeat_deadline`]. Healthy daemons emit a
//! `Heartbeat` at least every few seconds even while a long cell
//! computes, so *any* read that times out means the worker went silent
//! past the deadline — a hung machine, a blackholed network — and the
//! link surfaces it as an error so the scheduler re-queues the worker's
//! in-flight cells. Before this deadline existed, a hung worker stalled
//! the whole run forever: `recv` blocked in `read` with no way out.

use crate::auth;
use crate::fleet;
use crate::frame;
use crate::protocol::Message;
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
    /// The address this link reports traces under.
    addr: String,
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
        Message::Hello { capacity } => Ok(Box::new(TcpWorkerLink {
            reader,
            writer,
            capacity,
            remote: remote.clone(),
            fingerprint,
            addr: addr.to_string(),
        })),
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
        frame::write_message(
            &mut self.writer,
            &Message::RunCells {
                fingerprint: self.fingerprint,
                spec: self.remote.spec.clone(),
                keys: keys.to_vec(),
                trace: self.remote.observe.trace,
            },
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
    use std::io::Write;
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
        Message::Hello { capacity }
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

    /// A peer from another build greets in JSON. The greeting is a bad
    /// frame, so the dial ends with an error at once, while the peer
    /// still holds the socket open — never a wait on the heartbeat
    /// deadline, and never a hang.
    #[test]
    fn a_json_greeting_ends_the_dial_with_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let greeting = r#"{"type":"hello","capacity":1,"codecs":["bin1"]}"#;
            stream
                .write_all(&(greeting.len() as u32).to_be_bytes())
                .unwrap();
            stream.write_all(greeting.as_bytes()).unwrap();
            // Hold the socket open until the dial has returned.
            let _ = released.recv_timeout(Duration::from_secs(30));
        });
        let spec = test_spec(Duration::from_secs(10));
        let started = std::time::Instant::now();
        let error = match dial(&addr, &spec, 0) {
            Err(error) => error,
            Ok(_) => panic!("a JSON greeting must not dial"),
        };
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the dial waited {:?}",
            started.elapsed()
        );
        assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{error}");
        assert!(error.to_string().contains("bad frame"), "{error}");
        release.send(()).unwrap();
        server.join().unwrap();
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
