//! End-to-end tests of the networked cell-execution subsystem over real
//! TCP and real processes — `repro serve` worker daemons driven by a
//! `repro --workers` coordinator:
//!
//! 1. a remote suite over two localhost workers is **byte-for-byte**
//!    equal to a serial `--save`,
//! 2. a worker killed mid-suite (the `--fail-after` fault injection dies
//!    in place of delivering a cell, exactly like a machine crash) has
//!    its cells re-queued onto the survivor and the bytes still match,
//! 3. a drained pool and an unreachable worker are clear errors, not
//!    partial suites,
//! 4. `--workers` composes with `--checkpoint`: cells streamed before a
//!    failed run are not recomputed by the resume,
//! 5. the CLI rejects `--jobs 0` and contradictory distribution flags,
//! 6. a worker that *hangs* mid-batch (the `--stall-after` fault
//!    injection holds the socket open and goes silent — a frozen
//!    machine, not a dead one) trips the coordinator's heartbeat
//!    deadline, its cells are re-queued onto the survivor, and the
//!    bytes still match serial — **pre-liveness this run hung
//!    forever**,
//! 7. `--retry-budget` is validated and actually threads through to the
//!    scheduler,
//! 8. a mixed pool — one worker negotiating the `bin1` binary codec,
//!    one pinned to JSON — still reproduces the suite byte-for-byte,
//!    as does a coordinator pinned to `--wire json`,
//! 9. the `--auth-key` HMAC handshake admits matching keys and turns
//!    wrong or missing keys into clean, fast protocol errors — never
//!    hangs,
//! 10. a traced fleet run receives every batch it issued: one worker
//!     `run-batch` span per coordinator `issue-batch` span, and the
//!     workers' final `cell(s) done` totals add up to the computed cells.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Axis flags shared by every run: a tiny matrix so each invocation is a
/// few hundred milliseconds.
const AXES: [&str; 6] = [
    "--scale",
    "0.02",
    "--benchmarks",
    "gzip,mcf",
    "--techniques",
    "baseline,noop,abella",
];

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdiq-remote-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A `repro serve` daemon on an ephemeral localhost port, killed on drop
/// so a failing test never leaks processes.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    /// Spawns a daemon with the given extra serve flags and blocks until
    /// it prints its bound address (`LISTENING <addr>`, the machine-
    /// readable first stdout line).
    fn spawn(extra: &[&str]) -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn repro serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("daemon announced `{line}`, expected LISTENING <addr>"))
            .to_string();
        Worker { child, addr }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `repro` with the tiny axes plus `args`; returns `(success,
/// stderr)` — progress and errors both go to stderr.
fn repro_raw(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(AXES)
        .args(args)
        .output()
        .expect("spawn repro");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn repro(args: &[&str]) -> String {
    let (success, stderr) = repro_raw(args);
    assert!(success, "repro {args:?} failed:\n{stderr}");
    stderr
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn remote_suite_is_byte_identical_to_a_serial_save() {
    let dir = scratch_dir("identity");
    let serial = dir.join("serial.json");
    let remote = dir.join("remote.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);
    // Unequal capacities on purpose: the capacity-weighted batching must
    // not affect a single byte of the result.
    let fast = Worker::spawn(&["--jobs", "2"]);
    let slow = Worker::spawn(&["--jobs", "1"]);
    let log = repro(&[
        "--summary",
        "--workers",
        &format!("{},{}", fast.addr, slow.addr),
        "--save",
        remote.to_str().unwrap(),
    ]);
    assert!(
        log.contains("distributing 6 of 6 cells across 2 worker(s)"),
        "coordinator announces the distribution:\n{log}"
    );
    assert_eq!(
        read(&serial),
        read(&remote),
        "remote suite must be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_death_mid_suite_requeues_cells_onto_the_survivor() {
    let dir = scratch_dir("failover");
    let serial = dir.join("serial.json");
    let remote = dir.join("remote.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);
    // The doomed worker delivers two cells, then aborts in place of its
    // third — the wire-visible behaviour of a machine dying mid-cell.
    let doomed = Worker::spawn(&["--jobs", "1", "--fail-after", "2"]);
    let survivor = Worker::spawn(&["--jobs", "1"]);
    let log = repro(&[
        "--summary",
        "--workers",
        &format!("{},{}", doomed.addr, survivor.addr),
        "--save",
        remote.to_str().unwrap(),
    ]);
    assert!(
        log.contains("re-queueing"),
        "the dead worker's cells are re-queued:\n{log}"
    );
    assert_eq!(
        read(&serial),
        read(&remote),
        "suite after failover must still be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drained_pools_and_unreachable_workers_are_clear_errors() {
    let dir = scratch_dir("drained");
    let save = dir.join("never-written.json");

    // The lone worker dies before delivering anything: after its death
    // the pool is empty and the run must fail — loudly, not partially.
    let doomed = Worker::spawn(&["--jobs", "1", "--fail-after", "0"]);
    let (success, log) = repro_raw(&[
        "--summary",
        "--workers",
        &doomed.addr,
        "--save",
        save.to_str().unwrap(),
    ]);
    assert!(!success, "a drained pool must fail the run");
    assert!(
        log.contains("pool drained"),
        "error names the drained pool:\n{log}"
    );
    assert!(!save.exists(), "no partial save file is left behind");

    // An address nobody listens on: the dial fails, the pool is empty
    // from the start.
    let (success, log) = repro_raw(&["--summary", "--workers", "127.0.0.1:9"]);
    assert!(!success);
    assert!(log.contains("dial failed"), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_coordinator_composes_with_checkpoint_resume() {
    let dir = scratch_dir("ckpt");
    let serial = dir.join("serial.json");
    let resumed = dir.join("resumed.json");
    let checkpoint = dir.join("run.ckpt");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);

    // First attempt: a lone worker that dies after two cells. The run
    // fails (pool drained), but the two streamed cells are already
    // durable in the coordinator's checkpoint.
    let doomed = Worker::spawn(&["--jobs", "1", "--fail-after", "2"]);
    let (success, log) = repro_raw(&[
        "--summary",
        "--workers",
        &doomed.addr,
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    assert!(!success, "the drained first attempt fails:\n{log}");
    assert_eq!(
        read(&checkpoint).lines().count(),
        3,
        "header + the two cells that streamed back before the death"
    );
    drop(doomed);

    // Resume with a healthy worker: the checkpoint seeds the run, only
    // the four missing cells are distributed, and the save is still
    // byte-identical to serial.
    let healthy = Worker::spawn(&["--jobs", "1"]);
    let log = repro(&[
        "--summary",
        "--workers",
        &healthy.addr,
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--save",
        resumed.to_str().unwrap(),
    ]);
    assert!(log.contains("loaded 2 cells"), "checkpoint seeds:\n{log}");
    assert!(
        log.contains("distributing 4 of 6"),
        "only missing cells travel:\n{log}"
    );
    assert_eq!(
        read(&serial),
        read(&resumed),
        "resumed remote suite must be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stalled_worker_trips_the_heartbeat_deadline_and_bytes_still_match() {
    let dir = scratch_dir("stall");
    let serial = dir.join("serial.json");
    let remote = dir.join("remote.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);
    // The stalled worker delivers one cell, then freezes: socket open,
    // heartbeats silenced, no frames — the wire-visible behaviour of a
    // hung machine. Only the heartbeat deadline can detect this; the
    // pre-liveness scheduler blocked in `recv` forever and this test
    // never terminated.
    let stalled = Worker::spawn(&["--jobs", "1", "--stall-after", "1"]);
    let survivor = Worker::spawn(&["--jobs", "1"]);
    let started = std::time::Instant::now();
    let log = repro(&[
        "--summary",
        "--workers",
        &format!("{},{}", stalled.addr, survivor.addr),
        "--heartbeat-deadline",
        "2",
        "--save",
        remote.to_str().unwrap(),
    ]);
    assert!(
        log.contains("heartbeat deadline"),
        "the stalled worker is declared dead by the deadline:\n{log}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(60),
        "the run is bounded by the deadline, not hung"
    );
    assert_eq!(
        read(&serial),
        read(&remote),
        "suite after a hung worker must still be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retry_budget_flag_is_validated_and_threaded_through() {
    // Non-numeric: exit 2 before anything runs, like --jobs.
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--summary", "--retry-budget", "lots"])
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--retry-budget needs a non-negative integer"),
        "{stderr}"
    );

    // Threaded: a lone worker that dies pre-delivery with a budget of 0
    // must abort on budget exhaustion (the default budget of 3 instead
    // reports a drained pool after the re-queues go nowhere).
    let doomed = Worker::spawn(&["--jobs", "1", "--fail-after", "0"]);
    let (success, log) = repro_raw(&[
        "--summary",
        "--workers",
        &doomed.addr,
        "--retry-budget",
        "0",
    ]);
    assert!(!success, "budget exhaustion fails the run");
    assert!(
        log.contains("retry budget"),
        "the scheduler saw the configured budget:\n{log}"
    );
}

#[test]
fn mixed_codec_pools_stay_byte_identical_to_serial() {
    let dir = scratch_dir("codec");
    let serial = dir.join("serial.json");
    let mixed = dir.join("mixed.json");
    let json_only = dir.join("json-only.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);

    // One daemon negotiates up to `bin1`, the other is pinned to JSON —
    // the fleet-upgrade shape where old and new workers share a pool.
    // The codec must never be observable in the results.
    let binary = Worker::spawn(&["--jobs", "1"]);
    let json = Worker::spawn(&["--jobs", "1", "--wire", "json"]);
    let pool = format!("{},{}", binary.addr, json.addr);
    repro(&[
        "--summary",
        "--workers",
        &pool,
        "--save",
        mixed.to_str().unwrap(),
    ]);
    assert_eq!(
        read(&serial),
        read(&mixed),
        "mixed-codec pool must be byte-identical to serial"
    );

    // A coordinator pinned to JSON against the same pool: nothing
    // negotiates, every frame is JSON, the bytes still match.
    repro(&[
        "--summary",
        "--workers",
        &pool,
        "--wire",
        "json",
        "--save",
        json_only.to_str().unwrap(),
    ]);
    assert_eq!(
        read(&serial),
        read(&json_only),
        "JSON-pinned run must be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auth_handshake_admits_matching_keys_and_rejects_mismatches_cleanly() {
    let dir = scratch_dir("auth");
    let serial = dir.join("serial.json");
    let remote = dir.join("remote.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);
    let keyed = Worker::spawn(&["--jobs", "1", "--auth-key", "fleet-secret"]);
    let started = std::time::Instant::now();

    // A keyless coordinator is told what is missing, immediately.
    let (success, log) = repro_raw(&["--summary", "--workers", &keyed.addr]);
    assert!(!success, "keyless coordinator must fail");
    assert!(
        log.contains("requires authentication"),
        "the error names the missing key:\n{log}"
    );

    // A wrong key fails the MAC check — a protocol error, not a hang.
    let (success, log) = repro_raw(&[
        "--summary",
        "--workers",
        &keyed.addr,
        "--auth-key",
        "not-the-secret",
    ]);
    assert!(!success, "wrong key must fail");
    assert!(
        log.contains("authentication"),
        "the error names the failed handshake:\n{log}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "auth mismatches are refused promptly, never hung"
    );

    // Matching keys: handshake, then business as usual, bytes identical.
    repro(&[
        "--summary",
        "--workers",
        &keyed.addr,
        "--auth-key",
        "fleet-secret",
        "--save",
        remote.to_str().unwrap(),
    ]);
    assert_eq!(
        read(&serial),
        read(&remote),
        "authenticated suite must be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_zero_jobs_and_contradictory_distribution_flags() {
    let run = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        (
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).into_owned(),
        )
    };

    // --jobs 0 is never what the user asked for (and would divide away
    // to nothing in worker-budget arithmetic): exit 2, one clear line.
    let (code, stderr) = run(&["--summary", "--jobs", "0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--jobs wants a positive"), "{stderr}");
    let (code, stderr) = run(&["serve", "--jobs", "0"]);
    assert_eq!(code, Some(2), "serve applies the same rule");
    assert!(stderr.contains("--jobs wants a positive"), "{stderr}");

    // One process cannot be a remote coordinator and a shard worker at
    // once.
    let (code, stderr) = run(&[
        "--workers",
        "127.0.0.1:9",
        "--shard",
        "1/2",
        "--save",
        "/dev/null",
    ]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--workers") && stderr.contains("--shard"),
        "{stderr}"
    );
    // `--shards` is no flag at all: the error names it as unknown.
    let (code, stderr) = run(&["--workers", "127.0.0.1:9", "--shards", "2"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown argument: --shards"), "{stderr}");

    // A daemon verifies according to its own build and no frame carries
    // the choice, so a fleet run refuses the flag instead of ignoring it.
    for flag in ["--verify", "--no-verify"] {
        let args = ["--workers", "127.0.0.1:9", flag];
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains("its own build"), "{args:?}: {stderr}");
    }

    // An empty worker list is rejected before any run starts.
    let (code, stderr) = run(&["--workers", ","]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--workers wants"), "{stderr}");

    // The liveness timeouts want non-negative seconds.
    let (code, stderr) = run(&["--summary", "--heartbeat-deadline", "soon"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--heartbeat-deadline"), "{stderr}");
    let (code, stderr) = run(&["--summary", "--connect-timeout", "-1"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--connect-timeout"), "{stderr}");

    // The wire tuning flags validate their values on both sides.
    let (code, stderr) = run(&["--summary", "--wire", "carrier-pigeon"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--wire wants `binary` or `json`"),
        "{stderr}"
    );
    let (code, stderr) = run(&["serve", "--wire", "smoke-signal"]);
    assert_eq!(code, Some(2), "serve applies the same rule");
    assert!(
        stderr.contains("--wire wants `binary` or `json`"),
        "{stderr}"
    );
}

#[test]
fn a_traced_fleet_run_receives_every_batch_it_issued() {
    let dir = scratch_dir("traced");
    let trace = dir.join("trace.json");
    let a = Worker::spawn(&["--jobs", "1"]);
    let b = Worker::spawn(&["--jobs", "1"]);
    // Every cell is computed exactly once, so the workers' totals must
    // add up to the matrix.
    let log = repro(&[
        "--summary",
        "--workers",
        &format!("{},{}", a.addr, b.addr),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    let doc = sdiq_core::persist::parse(read(&trace).trim_end()).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .arr()
        .expect("an array");
    let begun = |name: &str, coordinator: bool| {
        events
            .iter()
            .filter(|event| {
                event.get("ph").unwrap().str().unwrap() == "B"
                    && event.get("name").unwrap().str().unwrap() == name
                    && (event.get("pid").unwrap().u64().unwrap() == 0) == coordinator
            })
            .count()
    };
    let issued = begun("issue-batch", true);
    assert!(issued >= 2, "both workers got a batch:\n{log}");
    assert_eq!(
        begun("run-batch", false),
        issued,
        "a worker lane lacks the spans of a batch:\n{log}"
    );
    assert_eq!(begun("cell", false), 6);
    // `remote: worker <addr>: <n> cell(s) done, ...`, one line per worker.
    let done: Vec<u64> = log
        .lines()
        .filter_map(|line| line.split_once(" cell(s) done"))
        .map(|(head, _)| head.rsplit(' ').next().unwrap().parse().expect("a count"))
        .collect();
    assert_eq!(done.len(), 2, "{log}");
    assert_eq!(done.iter().sum::<u64>(), 6, "{log}");
    std::fs::remove_dir_all(&dir).ok();
}
