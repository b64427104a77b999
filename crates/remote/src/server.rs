//! The worker daemon behind `repro serve`: accept one coordinator at a
//! time, advertise capacity, compute requested cells on the in-process
//! engine and stream each one back the moment it finishes.
//!
//! The daemon is stateless between connections on purpose: everything a
//! batch needs arrives in its `RunCells` frame (the [`MatrixSpec`] plus
//! the cell keys), so any daemon can serve any coordinator — there is no
//! enrolment step, and a daemon that restarts loses nothing but its warm
//! [`ArtifactCache`]. The cache *is* kept across batches and connections
//! (it is content-addressed, so staleness is impossible): a sweep that
//! re-dials the same daemon never rebuilds a program it already built.
//!
//! A coordinator that vanishes mid-batch only costs the daemon that
//! batch: write failures are recorded, the batch's remaining cells still
//! compute into the cache (warming it for the retry), and the daemon
//! goes back to `accept`.
//!
//! Two dial directions: normally the coordinator dials the daemon
//! (`--listen`, greeting `Hello`); with `--register host:port` the
//! daemon instead dials the coordinator's rendezvous listener and greets
//! with `Register` — after which the connection is identical. The
//! reverse direction exists for worker fleets behind NAT, where only
//! outbound connections are possible.

use crate::auth;
use crate::frame::{self, Codec};
use crate::lock_or_recover;
use crate::protocol::{Message, CAP_OBS1, CODEC_BIN1};
use sdiq_core::{matrix_fingerprint, ArtifactCache, CellSink, MatrixSpec, RunReport};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Configuration of one worker daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (`host:port`; port `0` picks a free one).
    /// Ignored when `register` is set — a registering daemon dials out
    /// instead of listening.
    pub listen: String,
    /// When set, reverse the dial direction: dial this coordinator
    /// rendezvous address (`repro --listen-workers`), announce capacity
    /// with a `Register` frame, then serve that connection exactly like
    /// an accepted one. For worker fleets behind NAT, where the
    /// coordinator cannot dial in.
    pub register: Option<String>,
    /// Parallel capacity advertised to coordinators and used as the
    /// in-process pool size (`0` = one per hardware thread).
    pub jobs: usize,
    /// Fault-injection hook for the failover tests and the CI smoke:
    /// after delivering this many cells (across the daemon's lifetime),
    /// abort the whole process *in place of* delivering the next one —
    /// exactly the wire-visible behaviour of a worker machine dying
    /// mid-cell. `None` in production.
    pub fail_after: Option<usize>,
    /// Fault-injection hook mirroring `fail_after` for the *other* death
    /// shape: after delivering this many cells, hang forever in place of
    /// delivering the next one — socket held open, heartbeats silenced,
    /// no frames — the wire-visible behaviour of a frozen machine or a
    /// blackholed network. Only the coordinator's heartbeat deadline can
    /// detect this one. `None` in production.
    pub stall_after: Option<usize>,
    /// Silence-means-dead threshold a *registered* daemon applies to its
    /// coordinator socket (`SO_RCVTIMEO`): a coordinator that holds the
    /// connection but never speaks again — hung process, blackholed
    /// network — would otherwise wedge the daemon in a read forever,
    /// with no listener to fall back to. Past the deadline the daemon
    /// drops the connection and re-registers. Zero disables the
    /// deadline; listening daemons never apply one (an accepted
    /// coordinator that dies is survived by going back to `accept`).
    pub heartbeat_deadline: Duration,
    /// Shared secret for the HMAC handshake (`--auth-key`). With a key
    /// set, a listening daemon challenges every coordinator before
    /// greeting it, and a registering daemon expects the coordinator's
    /// challenge before sending `Register`. `None` skips the handshake.
    pub auth_key: Option<String>,
    /// Advertise the compact `bin1` frame codec in the greeting
    /// (default; `--wire json` turns it off, pinning the connection to
    /// JSON frames for debugging and codec-vs-codec benchmarking).
    pub advertise_binary: bool,
}

/// Seconds of silence after which the daemon interleaves a `Heartbeat`
/// frame into the stream while a batch is computing, so WAN middleboxes
/// don't reap the idle-looking connection during a long cell — and, as
/// of the liveness layer, so the coordinator's heartbeat deadline knows
/// the daemon is alive. The cadence must stay *well* under any deadline
/// a coordinator might configure (the frames are ~25 bytes, so beating
/// every second costs nothing and buys a 30× margin against the default
/// 30 s deadline).
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// Runs the worker daemon forever (until the process is killed):
/// bind, print the bound address, then serve coordinators one at a time.
///
/// The first stdout line is machine-readable — `LISTENING <addr>` — so
/// scripts that start daemons on port 0 can discover the real port;
/// human logging goes to stderr.
pub fn serve(options: &ServeOptions) -> io::Result<()> {
    if let Some(coordinator) = &options.register {
        return serve_registered(coordinator, options);
    }
    let listener = TcpListener::bind(&options.listen)?;
    let addr = listener.local_addr()?;
    let capacity = effective_capacity(options.jobs);
    println!("LISTENING {addr}");
    io::stdout().flush()?;
    eprintln!("sdiq-remote worker: listening on {addr}, capacity {capacity}");

    let cache = ArtifactCache::new();
    let delivered = AtomicUsize::new(0);
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => stream,
            Err(error) => {
                // Transient accept failures (a peer resetting before the
                // handshake, a momentary fd shortage) must not kill the
                // daemon — it outlives any one coordinator. Back off a
                // beat so a persistent failure can't spin the loop hot.
                eprintln!("sdiq-remote worker: accept failed: {error}; continuing");
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let peer = stream
            .peer_addr()
            .map(|peer| peer.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        eprintln!("sdiq-remote worker: coordinator connected from {peer}");
        match handle_connection(
            stream,
            capacity,
            &cache,
            &delivered,
            options,
            Greeting::Hello,
        ) {
            Ok(()) => eprintln!("sdiq-remote worker: coordinator {peer} disconnected"),
            Err(error) => {
                // The daemon outlives any one coordinator: log and accept
                // the next connection.
                eprintln!("sdiq-remote worker: connection to {peer} failed: {error}");
            }
        }
    }
    unreachable!("TcpListener::incoming never returns None");
}

/// The reverse-dial daemon: dial the coordinator's rendezvous address
/// (retrying until it exists — worker fleets come up in any order),
/// announce capacity with `Register`, then serve that connection exactly
/// like an accepted one. When the coordinator finishes and closes, loop
/// back and re-register, so the daemon is ready for the next run.
fn serve_registered(coordinator: &str, options: &ServeOptions) -> io::Result<()> {
    let capacity = effective_capacity(options.jobs);
    // Machine-readable first line, mirroring `LISTENING <addr>`, so
    // scripts know the daemon is up before a coordinator exists.
    println!("REGISTERING {coordinator}");
    io::stdout().flush()?;
    eprintln!(
        "sdiq-remote worker: registering with coordinator at {coordinator}, capacity {capacity}"
    );
    let cache = ArtifactCache::new();
    let delivered = AtomicUsize::new(0);
    // Each knock is bounded: a blackholed coordinator address must cost
    // one short timeout per attempt, not the OS connect default
    // (minutes) — the same stall the coordinator-side connect_timeout
    // exists to prevent.
    const KNOCK_TIMEOUT: Duration = Duration::from_secs(5);
    let deadline = options.heartbeat_deadline;
    loop {
        let stream = match crate::client::connect_bounded(coordinator, KNOCK_TIMEOUT) {
            Ok(stream) => stream,
            Err(_) => {
                // No coordinator (yet): keep knocking. The interval is a
                // trade-off between rendezvous latency and log noise.
                std::thread::sleep(Duration::from_millis(250));
                continue;
            }
        };
        // The liveness guard this dial direction needs: an accepted
        // coordinator that dies is survived by returning to `accept`,
        // but a dialed one that goes silent would hold the read below
        // forever — there is no listener behind it. The deadline turns
        // that silence into an error, and the loop re-registers.
        if let Err(error) = stream.set_read_timeout((!deadline.is_zero()).then_some(deadline)) {
            eprintln!("sdiq-remote worker: configuring coordinator socket failed: {error}");
            std::thread::sleep(Duration::from_millis(250));
            continue;
        }
        eprintln!("sdiq-remote worker: registered with coordinator {coordinator}");
        match handle_connection(
            stream,
            capacity,
            &cache,
            &delivered,
            options,
            Greeting::Register,
        ) {
            Ok(()) => eprintln!("sdiq-remote worker: coordinator {coordinator} released us"),
            Err(error) => {
                eprintln!("sdiq-remote worker: connection to {coordinator} failed: {error}")
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// Which greeting this daemon owes on a fresh connection: `Hello` when
/// the coordinator dialed us, `Register` when we dialed the coordinator.
#[derive(Clone, Copy)]
enum Greeting {
    Hello,
    Register,
}

fn effective_capacity(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// One coordinator connection's write half: the stream plus the codec
/// its frames use. JSON until the coordinator's `SetCodec` switches it —
/// the lock keeps the switch atomic with respect to in-flight frames.
struct Conn {
    stream: TcpStream,
    codec: Codec,
}

/// Serves one coordinator until it disconnects.
fn handle_connection(
    stream: TcpStream,
    capacity: usize,
    cache: &ArtifactCache,
    delivered: &AtomicUsize,
    options: &ServeOptions,
    greeting: Greeting,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer_stream = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    if let Some(key) = &options.auth_key {
        // Bound the handshake: a peer that connects and never completes
        // it must not wedge the daemon (which serves one coordinator at
        // a time). Restored to the run configuration below.
        let handshake = match options.heartbeat_deadline {
            deadline if deadline.is_zero() => Duration::from_secs(10),
            deadline => deadline,
        };
        writer_stream.set_read_timeout(Some(handshake))?;
        match greeting {
            // The coordinator dialed us: we challenge.
            Greeting::Hello => auth::acceptor_handshake(&mut reader, &mut writer_stream, key)?,
            // We dialed the coordinator: it challenges.
            Greeting::Register => match frame::read_message(&mut reader)? {
                Message::AuthChallenge { nonce } => {
                    auth::dialer_handshake(&mut reader, &mut writer_stream, key, &nonce)?
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::PermissionDenied,
                        format!(
                            "coordinator sent {other:?} instead of AuthChallenge — is it \
                             running without --auth-key?"
                        ),
                    ))
                }
            },
        }
        let deadline = options.heartbeat_deadline;
        writer_stream.set_read_timeout(match greeting {
            Greeting::Hello => None, // listening daemons run without one
            Greeting::Register => (!deadline.is_zero()).then_some(deadline),
        })?;
    }
    let writer = Mutex::new(Conn {
        stream: writer_stream,
        codec: Codec::Json,
    });
    let mut codecs = if options.advertise_binary {
        vec![CODEC_BIN1.to_string()]
    } else {
        Vec::new()
    };
    // Not a codec but a capability: this daemon understands the
    // observability extension (RunCells flags, HeartbeatMetrics,
    // TraceEvents). Riding the codecs list keeps old coordinators safe —
    // they select codecs by equality and ignore unknown entries.
    codecs.push(CAP_OBS1.to_string());
    let greeting = match greeting {
        Greeting::Hello => Message::Hello { capacity, codecs },
        Greeting::Register => Message::Register { capacity, codecs },
    };
    write_locked(&writer, &greeting)?;

    loop {
        // A timed-out read is the socket deadline tripping (`WouldBlock`
        // on Unix `SO_RCVTIMEO`, `TimedOut` on Windows): rewrite it into
        // the liveness verdict it means so the registered loop's log says
        // why it is re-registering.
        let message = match frame::read_message_opt(&mut reader) {
            Ok(message) => message,
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "coordinator silent past the heartbeat deadline — presumed hung",
                ));
            }
            Err(error) => return Err(error),
        };
        let Some(message) = message else {
            return Ok(()); // coordinator released us cleanly
        };
        match message {
            Message::RunCells {
                fingerprint,
                spec,
                keys,
                observe,
                trace,
            } => run_batch(
                &writer,
                fingerprint,
                &spec,
                keys,
                capacity,
                cache,
                delivered,
                options,
                BatchObserve { observe, trace },
            )?,
            Message::Heartbeat => continue,
            Message::SetCodec { codec } if codec == CODEC_BIN1 && options.advertise_binary => {
                // From here on our frames are bin1; the coordinator's
                // reads auto-detect, so no ack is needed and TCP
                // ordering guarantees it sees the switch after its own
                // request.
                lock_or_recover(&writer).codec = Codec::Binary;
            }
            Message::SetCodec { codec } => {
                write_locked(
                    &writer,
                    &Message::Error {
                        message: format!("worker does not speak codec `{codec}`"),
                    },
                )?;
            }
            Message::Error { message } => {
                // The coordinator refused us (auth mismatch, version
                // skew): surface its reason instead of a generic frame
                // error.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("coordinator reported: {message}"),
                ));
            }
            other => {
                // Tell the coordinator what went wrong instead of
                // silently dropping the frame; it will abandon us.
                write_locked(
                    &writer,
                    &Message::Error {
                        message: format!("worker cannot handle {other:?}"),
                    },
                )?;
            }
        }
    }
}

/// What the coordinator asked this batch to observe about itself (the
/// `RunCells` flags; both false from pre-observability coordinators).
#[derive(Clone, Copy)]
struct BatchObserve {
    /// Piggyback cumulative metrics on the periodic heartbeats.
    observe: bool,
    /// Record spans and ship them back before `Done`.
    trace: bool,
}

/// Computes one `RunCells` batch, streaming each cell as it finishes.
#[allow(clippy::too_many_arguments)] // daemon wiring, called from one place
fn run_batch(
    writer: &Mutex<Conn>,
    fingerprint: u64,
    spec: &MatrixSpec,
    keys: Vec<String>,
    capacity: usize,
    cache: &ArtifactCache,
    delivered: &AtomicUsize,
    options: &ServeOptions,
    batch_observe: BatchObserve,
) -> io::Result<()> {
    // The spec is wire input: resolve it fully (names, sweep ranges) and
    // refuse with a frame — never a panic — on anything off.
    let experiment = spec.experiment();
    let matrix = match spec.matrix(&experiment) {
        Ok(matrix) => matrix.jobs(capacity),
        Err(reason) => {
            return write_locked(writer, &Message::Error { message: reason });
        }
    };
    let own_fingerprint = matrix_fingerprint(&matrix.cell_keys());
    if own_fingerprint != fingerprint {
        return write_locked(
            writer,
            &Message::Error {
                message: format!(
                    "matrix fingerprint mismatch (coordinator {fingerprint:016x}, \
                     worker {own_fingerprint:016x}) — version skew between binaries?"
                ),
            },
        );
    }
    // Ack the batch so the coordinator's heartbeat-skipping path is
    // exercised on every exchange, not only on slow cells.
    write_locked(writer, &Message::Heartbeat)?;

    let requested: std::collections::HashSet<String> = keys.into_iter().collect();
    eprintln!(
        "sdiq-remote worker: computing {} cell(s), {capacity} jobs",
        requested.len()
    );
    let sink = StreamSink {
        writer,
        failed: Mutex::new(None),
        delivered,
        fail_after: options.fail_after,
        stall_after: options.stall_after,
        stalled: AtomicBool::new(false),
    };
    // Teardown latency is on the per-batch hot path: with pipelined
    // batches a capacity-1 daemon sees one `RunCells` per cell, so the
    // heartbeat thread must stop the instant the batch finishes — a
    // polled sleep here once cost a tick per batch, which dominated the
    // whole suite's wall clock on small cells. Hence a condvar the
    // finishing batch can interrupt mid-wait.
    let stop_heartbeats = (Mutex::new(false), Condvar::new());
    // Span recording is daemon-global, which is exactly the scope it
    // should have here: the daemon serves one coordinator (one batch) at
    // a time, and the drain below both ships and clears the buffer.
    if batch_observe.trace {
        sdiq_obs::set_tracing(true);
    }
    let computed = std::thread::scope(|scope| {
        let heartbeats = scope.spawn(|| {
            heartbeat_loop(&stop_heartbeats, HEARTBEAT_INTERVAL, || {
                if sink.stalled.load(Ordering::Relaxed) {
                    // A frozen machine beats no heart: the --stall-after
                    // hook must present total wire silence, or the
                    // coordinator's deadline could never trip.
                    return false;
                }
                // An observed batch's keep-alives carry the daemon's
                // cumulative totals; receivers treat them as heartbeats
                // either way, so liveness is unaffected.
                let beat = if batch_observe.observe {
                    Message::HeartbeatMetrics {
                        metrics: sdiq_obs::MetricsDelta::capture(),
                    }
                } else {
                    Message::Heartbeat
                };
                // A failed write is recorded by the sink.
                sink.write(&beat).is_ok()
            });
        });
        let computed = {
            let _span = sdiq_obs::span("run-batch", "server");
            matrix.run_cells_by_key(cache, &requested, Some(&sink))
        };
        *lock_or_recover(&stop_heartbeats.0) = true;
        stop_heartbeats.1.notify_all();
        if heartbeats.join().is_err() {
            unreachable!("the heartbeat thread has no panic path of its own");
        }
        computed
    });
    // Drain even on a failed batch: the buffer must not leak this
    // batch's spans into the next coordinator's trace.
    let trace_events = if batch_observe.trace {
        sdiq_obs::set_tracing(false);
        sdiq_obs::drain()
    } else {
        Vec::new()
    };

    if let Some(error) = sink
        .failed
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(error); // coordinator vanished mid-stream
    }
    if !trace_events.is_empty() {
        // Ship the batch's spans right before Done, so the coordinator
        // has them the moment it decides the batch is complete.
        write_locked(
            writer,
            &Message::TraceEvents {
                events: trace_events,
            },
        )?;
    }
    if batch_observe.observe {
        // A final cumulative snapshot per batch: the periodic heartbeat
        // only fires once a second, so a fast batch would otherwise end
        // with the coordinator never having seen this worker's totals.
        write_locked(
            writer,
            &Message::HeartbeatMetrics {
                metrics: sdiq_obs::MetricsDelta::capture(),
            },
        )?;
    }
    match computed {
        Ok(map) => write_locked(
            writer,
            &Message::Done {
                computed: map.len(),
            },
        ),
        Err(reason) => write_locked(writer, &Message::Error { message: reason }),
    }
}

/// A batch's heartbeat thread: calls `beat` once per `interval` until the
/// `stop` flag is set (and its condvar notified) or `beat` returns `false`.
/// The flag is read before every wait: a batch can finish, and notify,
/// before this thread first takes the lock, and a wait would then sleep
/// out a whole interval.
fn heartbeat_loop(
    stop: &(Mutex<bool>, Condvar),
    interval: Duration,
    mut beat: impl FnMut() -> bool,
) {
    let (flag, interrupt) = stop;
    let mut stopped = lock_or_recover(flag);
    while !*stopped {
        let (guard, wait) = interrupt
            .wait_timeout(stopped, interval)
            .unwrap_or_else(PoisonError::into_inner);
        stopped = guard;
        if !*stopped && wait.timed_out() && !beat() {
            return;
        }
    }
}

fn write_locked(writer: &Mutex<Conn>, message: &Message) -> io::Result<()> {
    let mut conn = lock_or_recover(writer);
    let codec = conn.codec;
    frame::write_message_codec(&mut conn.stream, message, codec)
}

/// A [`CellSink`] that streams every finished cell to the coordinator.
/// Engine worker threads call it concurrently; the writer mutex keeps
/// frames whole. Write failures are recorded instead of panicking (a
/// vanished coordinator must not kill the daemon), after which further
/// cells are computed but not sent — they stay in the artifact cache,
/// warming the inevitable retry.
struct StreamSink<'a> {
    writer: &'a Mutex<Conn>,
    failed: Mutex<Option<io::Error>>,
    delivered: &'a AtomicUsize,
    fail_after: Option<usize>,
    stall_after: Option<usize>,
    /// Set once `stall_after` trips; silences the heartbeat thread and
    /// freezes every compute thread that reaches the sink, so the whole
    /// daemon goes wire-silent like a frozen machine.
    stalled: AtomicBool,
}

impl StreamSink<'_> {
    fn write(&self, message: &Message) -> io::Result<()> {
        if let Some(error) = &*lock_or_recover(&self.failed) {
            return Err(io::Error::new(error.kind(), error.to_string()));
        }
        let result = write_locked(self.writer, message);
        if let Err(error) = &result {
            let mut failed = lock_or_recover(&self.failed);
            failed.get_or_insert(io::Error::new(error.kind(), error.to_string()));
        }
        result
    }
}

impl CellSink for StreamSink<'_> {
    fn cell_complete(&self, key: &str, report: &RunReport) {
        if let Some(limit) = self.stall_after {
            if self.delivered.load(Ordering::Relaxed) >= limit {
                // Fault injection: hang exactly as a frozen machine would —
                // socket open, no frames, heartbeats silenced (the flag
                // above), this thread (and any other compute thread that
                // lands here) parked forever. Only the coordinator's
                // heartbeat deadline can detect this.
                if !self.stalled.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sdiq-remote worker: --stall-after {limit} reached, \
                         hanging in place of delivering `{key}` (simulated freeze)"
                    );
                }
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
        }
        if let Some(limit) = self.fail_after {
            if self.delivered.load(Ordering::Relaxed) >= limit {
                // Fault injection: die exactly as a killed machine would —
                // mid-cell, without a goodbye frame.
                eprintln!(
                    "sdiq-remote worker: --fail-after {limit} reached, \
                     aborting in place of delivering `{key}`"
                );
                std::process::exit(3);
            }
        }
        if self
            .write(&Message::CellDone {
                key: key.to_string(),
                report: Box::new(report.clone()),
            })
            .is_ok()
        {
            self.delivered.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A batch of cached cells can finish before its heartbeat thread
    /// first takes the stop lock. The stop set and notified before the
    /// loop starts must still end the loop at once, not after a wait.
    #[test]
    fn heartbeat_loop_sees_a_stop_that_came_before_it() {
        let stop = (Mutex::new(false), Condvar::new());
        *lock_or_recover(&stop.0) = true;
        stop.1.notify_all();
        let interval = 10 * HEARTBEAT_INTERVAL;
        let started = Instant::now();
        heartbeat_loop(&stop, interval, || panic!("no beat after the stop"));
        assert!(
            started.elapsed() < HEARTBEAT_INTERVAL,
            "the loop waited {:?} on a stop that was already set",
            started.elapsed()
        );
    }

    /// Polls a non-blocking listener for the next connection, bounded so
    /// a regression hangs the assertion, not the test suite.
    fn accept_within(listener: &TcpListener, limit: Duration) -> TcpStream {
        let deadline = Instant::now() + limit;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .expect("accepted socket can be made blocking");
                    return stream;
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "no connection within {limit:?}");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(error) => panic!("accept failed: {error}"),
            }
        }
    }

    /// Reads the daemon's opening frame and asserts it is `Register`.
    fn expect_register(stream: &TcpStream) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout is settable");
        let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
        match frame::read_message(&mut reader).expect("greeting arrives") {
            Message::Register { .. } => {}
            other => panic!("worker opened with {other:?} instead of Register"),
        }
    }

    /// The wire shape of a hung rendezvous coordinator: it accepts the
    /// worker's `Register` and then never speaks again, holding the
    /// socket open. The worker must trip its heartbeat deadline and dial
    /// the rendezvous again, not block in the read forever.
    #[test]
    fn a_silent_coordinator_makes_the_registered_worker_redial() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
        listener.set_nonblocking(true).expect("listener can poll");
        let coordinator = listener.local_addr().expect("bound address").to_string();
        let options = ServeOptions {
            listen: String::new(),
            register: Some(coordinator),
            jobs: 1,
            fail_after: None,
            stall_after: None,
            heartbeat_deadline: Duration::from_millis(200),
            auth_key: None,
            advertise_binary: true,
        };
        // The daemon loops forever; park it on a thread the test outlives.
        std::thread::spawn(move || {
            let _ = serve(&options);
        });

        let first = accept_within(&listener, Duration::from_secs(10));
        expect_register(&first);
        // Total silence — but the socket stays open, so only the
        // worker-side deadline can conclude the coordinator is gone.
        let second = accept_within(&listener, Duration::from_secs(10));
        expect_register(&second);
        // `first` lived through the whole wait: the redial came from the
        // deadline, not from a connection close.
        drop(first);
    }
}
