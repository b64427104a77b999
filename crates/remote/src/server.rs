//! The worker daemon behind `repro serve`: accept coordinators, advertise
//! capacity, compute requested cells on the in-process engine and stream
//! each one back the moment it finishes.
//!
//! Each connection is served on its own thread, so a peer that connects
//! and stays silent holds only its own thread, and at most
//! [`MAX_CONNECTIONS`] are served at once: a connection past the cap gets
//! one `Error` frame naming it and is closed, so silent peers cannot pile
//! up threads. Batches still run one at a time, whichever connection sent
//! them: each sizes the engine's pool to the whole capacity, and span
//! recording is daemon-global. A batch that waits for its turn sends
//! heartbeats, so its coordinator's deadline holds while another
//! coordinator's batch computes.
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
//! compute into the cache (warming it for the retry), and the
//! connection's thread ends.
//!
//! Every connection has one shape: the coordinator dials the daemon's
//! `--listen` address, the daemon challenges it when `--auth-key` is set
//! and greets it with `Hello`.

use crate::auth;
use crate::frame::{self, Codec};
use crate::lock_or_recover;
use crate::protocol::{Message, CAP_OBS1, CODEC_BIN1};
use sdiq_core::{matrix_fingerprint, ArtifactCache, CellSink, MatrixSpec, RunReport};
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Configuration of one worker daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (`host:port`; port `0` picks a free one).
    pub listen: String,
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
    /// Shared secret for the HMAC handshake (`--auth-key`). With a key
    /// set, the daemon challenges every coordinator before greeting it.
    /// `None` skips the handshake.
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

/// Bound on each read of the auth handshake: a peer that connects and
/// never completes it must not keep its connection's thread for good.
const AUTH_HANDSHAKE_DEADLINE: Duration = crate::DEFAULT_HEARTBEAT_DEADLINE;

/// Most connections a daemon serves at once. A run opens one connection
/// per daemon and batches run one at a time, so this is ample; it bounds
/// the threads that peers which connect and stay silent can hold. (A read
/// deadline cannot: a coordinator parks its link while other workers
/// finish.)
const MAX_CONNECTIONS: usize = 8;

/// What every connection of one daemon shares.
struct Daemon<'a> {
    capacity: usize,
    cache: ArtifactCache,
    /// Cells delivered over the daemon's lifetime (the fault-injection
    /// hooks count them).
    delivered: AtomicUsize,
    /// Held by the batch that is computing; batches run one at a time.
    batch_turn: Mutex<()>,
    /// Connections being served, each on its own thread.
    connections: AtomicUsize,
    options: &'a ServeOptions,
}

/// Runs the worker daemon forever (until the process is killed):
/// bind, print the bound address, then serve each coordinator on its own
/// thread, at most [`MAX_CONNECTIONS`] at once.
///
/// The first stdout line is machine-readable — `LISTENING <addr>` — so
/// scripts that start daemons on port 0 can discover the real port;
/// human logging goes to stderr.
pub fn serve(options: &ServeOptions) -> io::Result<()> {
    let listener = TcpListener::bind(&options.listen)?;
    let addr = listener.local_addr()?;
    let capacity = effective_capacity(options.jobs);
    println!("LISTENING {addr}");
    io::stdout().flush()?;
    eprintln!("sdiq-remote worker: listening on {addr}, capacity {capacity}");

    let daemon = Daemon {
        capacity,
        cache: ArtifactCache::new(),
        delivered: AtomicUsize::new(0),
        batch_turn: Mutex::new(()),
        connections: AtomicUsize::new(0),
        options,
    };
    accept_loop(listener.incoming(), &daemon, MAX_CONNECTIONS);
    unreachable!("TcpListener::incoming never returns None");
}

/// Serves each of `incoming` on its own thread, at most `cap` at once. A
/// connection past the cap gets one `Error` frame naming the cap, before
/// any auth challenge, and is closed from this loop: no thread is spawned
/// for it. Returns once `incoming` ends and every connection has.
fn accept_loop(incoming: impl Iterator<Item = io::Result<TcpStream>>, daemon: &Daemon, cap: usize) {
    std::thread::scope(|scope| {
        for stream in incoming {
            let stream = match stream {
                Ok(stream) => stream,
                Err(error) => {
                    // Transient accept failures (a peer resetting before
                    // the handshake, a momentary fd shortage) must not
                    // kill the daemon — it outlives any one coordinator.
                    // Back off a beat so a persistent failure can't spin
                    // the loop hot.
                    eprintln!("sdiq-remote worker: accept failed: {error}; continuing");
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            };
            // Only this loop adds connections, so the count cannot pass
            // the cap between the check and the add.
            if daemon.connections.load(Ordering::Relaxed) >= cap {
                refuse(stream, cap);
                continue;
            }
            daemon.connections.fetch_add(1, Ordering::Relaxed);
            scope.spawn(move || {
                let served = panic::catch_unwind(AssertUnwindSafe(|| serve_peer(stream, daemon)));
                if served.is_err() {
                    // A panicking batch leaves its plan holds in the cache
                    // and span recording on, so the daemon must not serve
                    // another batch.
                    std::process::exit(101);
                }
                daemon.connections.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
}

/// Tells a connection past the cap why it is closed. A coordinator reads
/// the frame as a dial failure; a peer that never reads it loses nothing.
fn refuse(mut stream: TcpStream, cap: usize) {
    let peer = stream
        .peer_addr()
        .map(|peer| peer.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    eprintln!("sdiq-remote worker: refused {peer}: already serving {cap} connections");
    let refusal = Message::Error {
        message: format!("worker is already serving its limit of {cap} connections"),
    };
    // Best effort: the connection closes either way.
    let _ = frame::write_message(&mut stream, &refusal);
}

/// Serves one coordinator on the current thread and logs how it ended.
fn serve_peer(stream: TcpStream, daemon: &Daemon) {
    let peer = stream
        .peer_addr()
        .map(|peer| peer.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    eprintln!("sdiq-remote worker: coordinator connected from {peer}");
    match handle_connection(stream, daemon) {
        Ok(()) => eprintln!("sdiq-remote worker: coordinator {peer} disconnected"),
        // The daemon outlives any one coordinator.
        Err(error) => eprintln!("sdiq-remote worker: connection to {peer} failed: {error}"),
    }
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
fn handle_connection(stream: TcpStream, daemon: &Daemon) -> io::Result<()> {
    let options = daemon.options;
    stream.set_nodelay(true)?;
    let mut writer_stream = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    if let Some(key) = &options.auth_key {
        writer_stream.set_read_timeout(Some(AUTH_HANDSHAKE_DEADLINE))?;
        auth::acceptor_handshake(&mut reader, &mut writer_stream, key)?;
        // Past the handshake reads block again: a silent coordinator
        // holds only this connection's thread.
        writer_stream.set_read_timeout(None)?;
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
    write_locked(
        &writer,
        &Message::Hello {
            capacity: daemon.capacity,
            codecs,
        },
    )?;

    loop {
        let Some(message) = frame::read_message_opt(&mut reader)? else {
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
                daemon,
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

/// Computes one `RunCells` batch once no other batch is computing,
/// streaming each cell as it finishes.
fn run_batch(
    writer: &Mutex<Conn>,
    fingerprint: u64,
    spec: &MatrixSpec,
    keys: Vec<String>,
    daemon: &Daemon,
    batch_observe: BatchObserve,
) -> io::Result<()> {
    let capacity = daemon.capacity;
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
    let _turn = wait_for_turn(&daemon.batch_turn, HEARTBEAT_INTERVAL, || {
        write_locked(writer, &Message::Heartbeat).is_ok()
    });

    let requested: std::collections::HashSet<String> = keys.into_iter().collect();
    eprintln!(
        "sdiq-remote worker: computing {} cell(s), {capacity} jobs",
        requested.len()
    );
    let sink = StreamSink {
        writer,
        failed: Mutex::new(None),
        delivered: &daemon.delivered,
        fail_after: daemon.options.fail_after,
        stall_after: daemon.options.stall_after,
        stalled: AtomicBool::new(false),
    };
    // Span recording is daemon-global, which is exactly the scope it
    // should have here: the daemon computes one batch at a time, and the
    // drain below both ships and clears the buffer.
    if batch_observe.trace {
        sdiq_obs::set_tracing(true);
    }
    let beat = || {
        if sink.stalled.load(Ordering::Relaxed) {
            // A frozen machine beats no heart: the --stall-after hook
            // must present total wire silence, or the coordinator's
            // deadline could never trip.
            return false;
        }
        // An observed batch's keep-alives carry the daemon's cumulative
        // totals; receivers treat them as heartbeats either way, so
        // liveness is unaffected.
        let beat = if batch_observe.observe {
            Message::HeartbeatMetrics {
                metrics: sdiq_obs::MetricsDelta::capture(),
            }
        } else {
            Message::Heartbeat
        };
        // A failed write is recorded by the sink.
        sink.write(&beat).is_ok()
    };
    let computed = with_heartbeats(HEARTBEAT_INTERVAL, beat, || {
        let _span = sdiq_obs::span("run-batch", "server");
        matrix.run_cells_by_key(&daemon.cache, &requested, Some(&sink))
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

/// Takes the daemon's batch turn. A batch queued behind another calls
/// `beat` once per `interval` while it waits, so its coordinator's
/// deadline holds.
fn wait_for_turn(
    turn: &Mutex<()>,
    interval: Duration,
    beat: impl FnMut() -> bool + Send,
) -> MutexGuard<'_, ()> {
    match turn.try_lock() {
        Ok(guard) => guard,
        Err(_) => with_heartbeats(interval, beat, || lock_or_recover(turn)),
    }
}

/// Runs `body` while a scoped thread calls `beat` once per `interval`
/// (see [`heartbeat_loop`]).
///
/// Teardown latency is on the per-batch hot path: the heartbeat thread
/// must stop the instant the batch finishes — a polled sleep here once
/// cost a tick per batch, which dominated the whole suite's wall clock
/// when a batch was one cell. Hence a condvar the finishing batch can
/// interrupt mid-wait. The stop is sent from a guard's `Drop`, so a
/// `body` that panics stops the beats too: otherwise the scope would
/// wait forever on a thread that keeps beating, and every beat would
/// reset the coordinator's deadline for a batch that can never finish.
fn with_heartbeats<T>(
    interval: Duration,
    beat: impl FnMut() -> bool + Send,
    body: impl FnOnce() -> T,
) -> T {
    struct StopOnDrop<'a>(&'a (Mutex<bool>, Condvar));
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            let (flag, interrupt) = self.0;
            *lock_or_recover(flag) = true;
            interrupt.notify_all();
        }
    }
    let stop = (Mutex::new(false), Condvar::new());
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeat_loop(&stop, interval, beat));
        let _stop = StopOnDrop(&stop);
        body()
    })
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
    use std::time::Instant;

    /// A batch that panics mid-computation must still stop its heartbeat
    /// thread, or the scope never returns and the coordinator, fed a
    /// beat every interval, never declares the daemon dead. The body runs
    /// on a thread the test waits on with a timeout, so the failure is a
    /// failed assertion instead of a hung suite.
    #[test]
    fn a_panicking_batch_stops_its_heartbeat() {
        let (done, finished) = std::sync::mpsc::channel();
        let batch = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                with_heartbeats(
                    Duration::from_secs(3600),
                    || true,
                    || panic!("poisoned cell"),
                )
            });
            let _ = done.send(outcome.is_err());
        });
        let panicked = finished
            .recv_timeout(Duration::from_secs(1))
            .expect("the batch returned within a second");
        assert!(panicked, "the panic reached catch_unwind");
        batch.join().unwrap();
    }

    /// A batch queued behind another beats while it waits for its turn,
    /// and takes the turn as soon as the other batch releases it.
    #[test]
    fn a_queued_batch_beats_until_it_gets_its_turn() {
        let turn = Mutex::new(());
        let running = lock_or_recover(&turn);
        let (beats, beat) = std::sync::mpsc::channel();
        let (took, taken) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _turn = wait_for_turn(&turn, Duration::from_millis(5), move || {
                    beats.send(()).is_ok()
                });
                took.send(()).unwrap();
            });
            for _ in 0..3 {
                beat.recv_timeout(Duration::from_secs(10))
                    .expect("the queued batch beats");
            }
            assert!(taken.try_recv().is_err(), "the turn is still held");
            drop(running);
            taken
                .recv_timeout(Duration::from_secs(10))
                .expect("the queued batch takes the released turn");
        });
    }

    /// A daemon with a cap of 2 and two silent peers refuses a third with
    /// an `Error` frame naming the cap, before any auth challenge, and
    /// closes it; a coordinator dialing it then reports a refused dial.
    /// Once a silent peer closes, a new peer is challenged. The accept
    /// loop takes exactly the five connections the test opens.
    #[test]
    fn a_connection_past_the_cap_is_refused_until_one_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options: &'static ServeOptions = Box::leak(Box::new(ServeOptions {
            listen: addr.to_string(),
            jobs: 1,
            fail_after: None,
            stall_after: None,
            auth_key: Some("sesame".to_string()),
            advertise_binary: false,
        }));
        let daemon: &'static Daemon = Box::leak(Box::new(Daemon {
            capacity: 1,
            cache: ArtifactCache::new(),
            delivered: AtomicUsize::new(0),
            batch_turn: Mutex::new(()),
            connections: AtomicUsize::new(0),
            options,
        }));
        // Not scoped: a failed assertion must fail the test, not leave it
        // waiting on an accept loop still owed a connection.
        let accepting = std::thread::spawn(move || {
            accept_loop(listener.incoming().take(5), daemon, 2);
        });
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let first = frame::read_message(&mut reader).unwrap();
            (stream, reader, first)
        };
        let mut silent: Vec<TcpStream> = (0..2)
            .map(|_| {
                let (stream, _, first) = connect();
                assert!(matches!(first, Message::AuthChallenge { .. }), "{first:?}");
                stream
            })
            .collect();
        let (_, mut refused, first) = connect();
        match first {
            Message::Error { message } => assert!(message.contains("2 connections"), "{message}"),
            other => panic!("expected the refusal, got {other:?}"),
        }
        assert!(
            frame::read_message_opt(&mut refused).unwrap().is_none(),
            "the refused connection is closed"
        );
        let mut remote = crate::RemoteOptions::new(MatrixSpec {
            scale: 0.05,
            sweeps: Vec::new(),
            benchmarks: vec!["gzip".to_string()],
            techniques: vec!["baseline".to_string()],
        });
        remote.auth_key = options.auth_key.clone();
        match crate::client::dial(&addr.to_string(), &remote, 0) {
            Err(error) => assert!(
                error.to_string().contains("refused the connection"),
                "{error}"
            ),
            Ok(_) => panic!("a daemon at its cap refuses the dial"),
        }
        drop(silent.remove(0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.connections.load(Ordering::Relaxed) >= 2 {
            assert!(Instant::now() < deadline, "the closed peer's thread ended");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (fresh, _, first) = connect();
        assert!(matches!(first, Message::AuthChallenge { .. }), "{first:?}");
        drop((silent, fresh));
        while !accepting.is_finished() {
            assert!(Instant::now() < deadline, "every connection ended");
            std::thread::sleep(Duration::from_millis(5));
        }
        accepting.join().unwrap();
    }

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
}
