//! # sdiq-remote — networked cell execution for the experiment matrix
//!
//! The engine computes cells on an in-process worker pool, and
//! `repro --shard k/n` splits a matrix into save files that merge back
//! through `--load`. This crate spreads one run's cells over worker
//! daemons on other machines, and nothing is shipped as files: cells
//! stream over TCP the moment they finish, straight into the engine's
//! existing [`CellSink`] / checkpoint path.
//!
//! Std-only by construction (`std::net` is the whole transport): the
//! workspace builds offline against vendored shims, and this crate adds
//! no dependency beyond `sdiq-core` itself.
//!
//! ## The pieces
//!
//! * [`frame`] — the wire framing: 4-byte big-endian length prefix +
//!   a `bin1` payload, in both directions from the first frame on.
//! * [`protocol`] — the message grammar (`Hello`, `RunCells`, `CellDone`,
//!   `Heartbeat`, `TraceEvents`, `Done`, `Error`, plus the auth
//!   handshake) and its JSON codec over the same model save files use,
//!   the tests' differential oracle for `bin1`.
//! * [`binary`] — the `bin1` frame codec: tag bytes, varints,
//!   length-prefixed strings over `sdiq_core::persist_bin`, so a
//!   report's numbers round-trip bit-identically over the network.
//! * [`auth`] — std-only HMAC-SHA-256 mutual handshake for `--auth-key`
//!   fleets on untrusted networks (wrong or missing key is a clean
//!   protocol error on both sides, never a hang).
//! * [`server`] — the worker daemon behind `repro serve`: accept a
//!   coordinator, advertise capacity, compute requested cells on the
//!   in-process engine, stream each one back.
//! * [`client`] — the coordinator side of one connection: dial, read the
//!   `Hello`, submit batches, receive events.
//! * [`fleet`] — the coordinator's per-run view of its workers: the
//!   cells each delivered and the trace lane its spans go on.
//! * [`scheduler`] — the fault-tolerant coordinator loop: a shared work
//!   queue of missing cell keys in plan groups, one driver thread per
//!   worker holding one batch at a time, batches sized by each worker's
//!   advertised capacity, exactly one copy of each cell in flight,
//!   re-queueing of a dead worker's in-flight cells onto survivors under
//!   a retry budget, and a clear [`BackendError`] when the pool drains.
//!   Liveness is heartbeat-deadline based: a worker silent past
//!   [`RemoteOptions::heartbeat_deadline`] counts as dead even if its
//!   socket never closes (hung OS, blackholed network).
//!
//! Every connection has one shape: the coordinator dials a
//! `repro serve --listen` daemon, the daemon accepts it, challenges it
//! when `--auth-key` is set, and greets it with `Hello`.
//!
//! ## Wiring into the engine
//!
//! `sdiq-core` holds no transport code; [`run`] is the whole seam. It
//! schedules the matrix's missing cells over the fleet, then assembles
//! the sweep through the engine's own seeded
//! [`Matrix::run_with`](sdiq_core::Matrix::run_with). Everything else
//! about the run (seeding from `--load`/`--checkpoint` files, streaming
//! into a [`CheckpointWriter`](sdiq_core::CheckpointWriter), `--save`) is
//! the engine's existing machinery, which is how the remote path
//! inherits the hard guarantee: **the assembled suite is byte-for-byte
//! identical to a serial run**, worker deaths included.

// The workspace denies `unwrap()`/`expect()` in shipped code; tests are
// exempt. Lock poisoning is handled via `lock_or_recover` in each module.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod auth;
pub mod binary;
pub mod client;
pub mod fleet;
pub mod frame;
pub mod protocol;
pub mod scheduler;
pub mod server;

/// Locks `mutex`, recovering from poisoning. Every critical section in
/// this crate mutates plain state with no panic point mid-update, so a
/// poisoned lock (some other thread panicked while holding it) must not
/// cascade into killing the surviving threads too.
pub(crate) fn lock_or_recover<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
use sdiq_core::{CellSink, Matrix, MatrixSpec, RunReport, Sweep};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Default number of times one cell may be re-queued after worker
/// failures before the run aborts (a cell that kills three workers in a
/// row is a poison cell, not bad luck).
pub const DEFAULT_RETRY_BUDGET: usize = 3;

/// Default bound on one dial attempt. Generous for a WAN handshake, yet
/// ~12× faster than the OS connect default a blackholed address would
/// otherwise cost (typically over two minutes of stalled startup).
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Default silence-means-dead threshold: thirty missed heartbeats
/// ([`server`] beats every ~1 s even mid-cell), so transient scheduler
/// hiccups on a loaded worker never count as a death, while a genuinely
/// hung machine is reaped in half a minute instead of never.
pub const DEFAULT_HEARTBEAT_DEADLINE: Duration = Duration::from_secs(30);

/// A remote run: which worker daemons to use, how to describe the matrix
/// to them, and how to schedule and observe the run.
/// [`RemoteOptions::new`] gives the defaults `repro --workers` uses when
/// no tuning flags are given.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Worker daemon addresses to dial (`host:port`), one entry per
    /// worker.
    pub workers: Vec<String>,
    /// The portable matrix description shipped to every worker, so a
    /// daemon that never saw this run's command line rebuilds the
    /// identical cell space. Must describe the same matrix [`run`] is
    /// called on — deriving both from one [`MatrixSpec`] guarantees it.
    pub spec: MatrixSpec,
    /// How many times a single cell may be re-queued after worker
    /// failures before the whole run aborts ([`DEFAULT_RETRY_BUDGET`]).
    pub retry_budget: usize,
    /// How long one dial attempt may take before the worker counts as
    /// unreachable ([`DEFAULT_CONNECT_TIMEOUT`]; zero disables the
    /// bound).
    pub connect_timeout: Duration,
    /// Declare a worker dead after this much silence on its socket
    /// ([`DEFAULT_HEARTBEAT_DEADLINE`]). Healthy daemons heartbeat every
    /// second even mid-cell, so any silence past this deadline means the
    /// worker is hung (frozen OS, blackholed network) and its in-flight
    /// cells must re-queue. `Duration::ZERO` disables the deadline (reads
    /// block forever — only sensible for debugging).
    pub heartbeat_deadline: Duration,
    /// Shared secret for the HMAC handshake (`--auth-key`). When set,
    /// every connection must prove knowledge of the key before any
    /// protocol frame; `None` leaves connections unauthenticated (trusted
    /// networks only). Both sides must agree.
    pub auth_key: Option<String>,
    /// Fleet observability: span tracing shipped back per batch (default
    /// off). Strictly out-of-band — never affects the assembled suite.
    pub observe: ObserveSpec,
}

impl RemoteOptions {
    /// A run of `spec` with no workers yet and every tuning knob at its
    /// default.
    pub fn new(spec: MatrixSpec) -> RemoteOptions {
        RemoteOptions {
            workers: Vec::new(),
            spec,
            retry_budget: DEFAULT_RETRY_BUDGET,
            connect_timeout: DEFAULT_CONNECT_TIMEOUT,
            heartbeat_deadline: DEFAULT_HEARTBEAT_DEADLINE,
            auth_key: None,
            observe: ObserveSpec::default(),
        }
    }
}

/// What a run asks its workers to observe (see `sdiq-obs`). Never
/// affects results — only what `--trace` writes. Per-worker progress
/// needs no request: the coordinator counts the cells it receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserveSpec {
    /// Workers record spans and ship them back before `Done`, for the
    /// coordinator's Chrome-trace export.
    pub trace: bool,
}

/// A failure of a remote run (worker dial, worker death, a
/// protocol-violating worker, a drained pool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    message: String,
}

impl BackendError {
    /// Wraps a failure message.
    pub fn new(message: impl Into<String>) -> Self {
        BackendError {
            message: message.into(),
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix backend: {}", self.message)
    }
}

impl std::error::Error for BackendError {}

/// Distributes `matrix`'s missing cells (those not in `seed`) over the
/// worker daemons `remote` names and assembles the full sweep: the
/// scheduler dials every worker and drives it over TCP. `sink` observes
/// each cell as it streams in, so a killed coordinator keeps what
/// finished.
pub fn run(
    matrix: &Matrix<'_>,
    remote: &RemoteOptions,
    seed: &HashMap<String, RunReport>,
    sink: Option<&dyn CellSink>,
) -> Result<Sweep, BackendError> {
    // A fresh fleet view per run: trace lanes in `--workers` order, and
    // per-worker tallies and clock scoped to this run.
    fleet::reset(&remote.workers);
    scheduler::run(matrix, remote, seed, sink, client::dial)
}
