#!/usr/bin/env python3
"""The repository benchmark: `repro` end to end, and a layer run.

    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>]
                             [--trace 0|1]

Run from the root of a source checkout. It builds `repro` and the layer
run (`perfbench/layers`) from source with cargo (target directory
`$CARGO_TARGET_DIR`, default `.bench_build`), derives the workload's
inputs from `--seed`, measures for `--seconds` and prints one JSON object
as its last stdout line:

    {"correct": ..., "attempted": <cells>, "failed": <cells>, "metrics": {...}}

`--trace 0` runs the workload through the shipped `repro` binary, one fresh
process (and, for `fleet`, two fresh `repro serve` daemons) per repetition,
and reports the end-to-end metrics: wall time and throughput of the fastest
repetition, median setup time and median peak memory.
`--trace 1` runs the layer run instead and reports the per-layer metrics.
Workloads, metrics and the layer table are described in
`perfbench/README.md`; `BENCHMARK.json` at the root lists them.

Every repetition must exit 0 and write `--save` bytes identical to the
run's reference save, which is checked against conservation identities;
a mismatch, a nonzero exit or a timeout fails all of that repetition's
cells. Result records (with the host they were measured on) go to
`.bench_out/results/`, layer-run spans to `.bench_out/spans/`.
"""

import argparse
import atexit
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

BENCHMARKS = 11
TECHNIQUES = 8
# `Experiment::paper().max_dynamic_instructions`: a cell that reaches it
# was truncated, not completed.
INSTRUCTION_CAP = 2_000_000
# The base machine's issue-queue capacity; the sweep always keeps it, so
# one sweep variant shares the base variant's plans on every seed.
BASE_IQ = 80
DEFAULT_SEED = 0
# Untimed setup-only launches before each repetition, so setup samples
# spread over the whole run.
PROBES_PER_REP = 2
REP_TIMEOUT_S = 90.0
LAYER_TIMEOUT_S = 120.0
# Stop starting repetitions past this point, so a run stays under three
# minutes whatever `--seconds` says.
RUN_HARD_STOP_S = 140.0

WORKLOADS = {
    "paper-matrix": {"scale": 4.0, "sweep": None, "verify": False, "fleet": False},
    "verified-sweep": {
        "scale": 0.5,
        "sweep": [32, 48, 64, 80, 96],
        "verify": True,
        "fleet": False,
    },
    "fleet": {"scale": 4.0, "sweep": None, "verify": False, "fleet": True},
}

# Metric names and units, in report order, from the benchmark's manifest.
# `remote.*` are measured on `fleet` only and read 0 elsewhere, as
# `verify.*` read 0 where nothing is verified.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _manifest:
    _MANIFEST = json.load(_manifest)
END_TO_END = [(m["name"], m["unit"]) for m in _MANIFEST["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _MANIFEST["per_layer"]]

# `repro --stats` counters the coordinator keeps (name there, name here).
FLEET_STATS = {
    "batches_issued": "remote.batches",
    "speculation_duplicates": "remote.speculation_duplicates",
    "requeues": "remote.requeues",
}

RUNNING_RE = re.compile(r"^running \d+ of \d+ matrix cells")
DISTRIBUTING_RE = re.compile(r"^remote coordinator: distributing \d+ of \d+ cells")
LISTENING_RE = re.compile(r"^LISTENING (\S+)")


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Child processes: every child is registered on spawn and killed and reaped
# on every exit path (normal, exception, SIGTERM/SIGINT, timeout).
# ---------------------------------------------------------------------------

LIVE = set()
LIVE_LOCK = threading.Lock()
TEMP_DIRS = []


class Proc:
    """A child process reaped by its own thread, so its exit time and peak
    resident memory (`wait4` rusage) are exact. Both output streams are
    drained by reader threads; the first line matching `pattern` on
    either stream is time-stamped as the process's mark."""

    def __init__(self, argv, pattern=None, stdout_path=None):
        self.pattern = pattern
        self.out = []
        self.err = []
        self.mark = None
        self.match = None
        self.marked = threading.Event()
        self.exited = threading.Event()
        self.end = None
        self.rusage = None
        self.returncode = None
        stdout = open(stdout_path, "w") if stdout_path else subprocess.PIPE
        self.start = time.perf_counter()
        self.popen = subprocess.Popen(
            argv,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
        if stdout_path:
            stdout.close()
        with LIVE_LOCK:
            LIVE.add(self)
        streams = [(self.popen.stderr, self.err)]
        if not stdout_path:
            streams.append((self.popen.stdout, self.out))
        self.readers = [
            threading.Thread(target=self._read, args=pair, daemon=True) for pair in streams
        ]
        for reader in self.readers:
            reader.start()
        threading.Thread(target=self._reap, daemon=True).start()

    def _read(self, stream, lines):
        for line in stream:
            now = time.perf_counter()
            line = line.rstrip("\n")
            lines.append(line)
            if self.pattern and not self.marked.is_set():
                match = self.pattern.search(line)
                if match:
                    self.mark, self.match = now, match
                    self.marked.set()
        stream.close()

    def _reap(self):
        _, status, rusage = os.wait4(self.popen.pid, 0)
        self.end = time.perf_counter()
        self.rusage = rusage
        self.returncode = os.waitstatus_to_exitcode(status)
        # Popen must never wait on the reaped pid itself.
        self.popen.returncode = self.returncode
        self.exited.set()
        with LIVE_LOCK:
            LIVE.discard(self)

    def wait(self, timeout):
        """True if the process exited within `timeout` seconds; its output
        is fully read by then."""
        if not self.exited.wait(timeout):
            return False
        for reader in self.readers:
            reader.join(5.0)
        return True

    def kill(self):
        if not self.exited.is_set():
            try:
                os.kill(self.popen.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.wait(10.0)

    @property
    def wall(self):
        return self.end - self.start

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    def tail(self, n=5):
        return " | ".join(self.err[-n:])


def cleanup():
    with LIVE_LOCK:
        live = list(LIVE)
    for proc in live:
        proc.kill()
    while TEMP_DIRS:
        shutil.rmtree(TEMP_DIRS.pop(), ignore_errors=True)
    try:
        os.rmdir(os.path.join(OUT_DIR, "tmp"))
    except OSError:
        pass


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def make_temp_dir():
    base = os.path.join(OUT_DIR, "tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=base)
    TEMP_DIRS.append(path)
    return path


# ---------------------------------------------------------------------------
# Build and host record.
# ---------------------------------------------------------------------------


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds `repro` and the layer run; returns their paths. Exits 2 (no
    result printed) if the checkout cannot be built."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        log(f"error: {ROOT} is not a source checkout (no Cargo.toml or crates/)")
        sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    commands = [
        ["cargo", "build", "--offline", "--release", "-p", "sdiq-bench", "--bin", "repro"],
        [
            "cargo",
            "build",
            "--offline",
            "--release",
            "--manifest-path",
            os.path.join("perfbench", "layers", "Cargo.toml"),
        ],
    ]
    for command in commands:
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"error: build failed: {' '.join(command)}")
            sys.exit(2)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "repro"), os.path.join(release, "layers")


def command_output(argv):
    try:
        result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the binaries are built from, so a result
    names its code even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "src", os.path.join("perfbench", "layers")):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.join(directory, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def host_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as handle:
        profile = tomllib.load(handle).get("profile", {}).get("release", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "build_profile": {"name": "release", **profile},
    }


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def derive_inputs(workload, seed):
    """The workload's inputs for `seed`. The default seed gives the named
    workload exactly; any other seed moves the scale within +-1 % and each
    iq sweep point other than the base capacity by up to 4 entries."""
    spec = WORKLOADS[workload]
    scale = spec["scale"]
    sweep = list(spec["sweep"]) if spec["sweep"] else None
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        scale *= 1.0 + rng.uniform(-0.01, 0.01)
        if sweep:
            sweep = [p if p == BASE_IQ else p + rng.randint(-4, 4) for p in sweep]
    return {
        "scale": f"{scale:.4f}",
        "sweep": sweep,
        "verify": spec["verify"],
        "fleet": spec["fleet"],
        "cells": BENCHMARKS * TECHNIQUES * (1 + len(sweep or [])),
    }


def repro_args(inputs, save):
    argv = ["--all", "--save", save, "--scale", inputs["scale"], "--jobs", "2"]
    if inputs["verify"]:
        argv.append("--verify")
    if inputs["sweep"]:
        argv += ["--sweep", "iq=" + ",".join(str(p) for p in inputs["sweep"])]
    return argv


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


def check_save(text, inputs):
    """Checks a reference save against properties that do not come from
    the code under test: the expected cell space, and conservation
    identities over each cell's activity counters. Returns the committed
    instruction total, or raises ValueError."""
    try:
        cells = json.loads(text)["cells"]
        return _check_cells(cells, inputs)
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError(f"malformed save: {error!r}") from error


def _check_cells(cells, inputs):
    variants = {"base"} | {f"iq{p}" for p in inputs["sweep"] or []}
    if len(cells) != inputs["cells"]:
        raise ValueError(f"save holds {len(cells)} cells, expected {inputs['cells']}")
    committed_by_column = {}
    total = 0
    for key, cell in cells.items():
        benchmark, technique, variant, _ = key.split("|")
        if variant not in variants:
            raise ValueError(f"{key}: unexpected configuration variant")
        if cell["workload"] != benchmark or cell["technique"] != technique:
            raise ValueError(f"{key}: report filed under the wrong key")
        s = cell["stats"]
        if not s["dispatched"] == s["issued"] == s["iq_writes"] == s["iq_reads"] == s["committed"]:
            raise ValueError(f"{key}: dispatched/issued/iq_writes/iq_reads/committed disagree")
        if not 0 < s["committed"] + s["committed_hints"] < INSTRUCTION_CAP:
            raise ValueError(f"{key}: committed count outside (0, {INSTRUCTION_CAP})")
        if s["iq_occupancy_sum"] > s["iq_total_entries"] * s["cycles"]:
            raise ValueError(f"{key}: issue-queue occupancy exceeds capacity")
        if s["iq_banks_on_sum"] > s["iq_total_banks"] * s["cycles"]:
            raise ValueError(f"{key}: powered banks exceed the bank count")
        # Every technique commits the same program instructions.
        column = committed_by_column.setdefault((benchmark, variant), s["committed"])
        if column != s["committed"]:
            raise ValueError(f"{key}: techniques commit different instruction counts")
        total += s["committed"]
    return total


class Reference:
    """The run's reference save: every repetition must match it byte for
    byte (for `fleet`, the in-process run of the same matrix)."""

    def __init__(self, path, inputs):
        try:
            with open(path) as handle:
                self.text = handle.read()
        except OSError as error:
            raise ValueError(f"no save: {error}") from error
        self.committed = check_save(self.text, inputs)

    def matches(self, path):
        try:
            with open(path) as handle:
                return handle.read() == self.text
        except OSError:
            return False


# ---------------------------------------------------------------------------
# End-to-end repetitions.
# ---------------------------------------------------------------------------


class Rep:
    """One repetition: whether it passed (and `why` not), its timings, and
    the coordinator's stdout when it was asked for."""

    def __init__(self, ok, wall=None, setup=None, rss=None, why=None, stdout=None):
        self.ok, self.wall, self.setup, self.rss = ok, wall, setup, rss
        self.why, self.stdout = why, stdout


def finished(proc, tmp, what):
    """Why a completed run of `repro` failed, or None: it must exit 0
    within the timeout, print its `what` line on stderr and print the
    figures on stdout."""
    if not proc.wait(REP_TIMEOUT_S):
        return f"timed out after {REP_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"exit {proc.returncode}: " + proc.tail()
    if proc.mark is None:
        return f"no `{what}` line on stderr"
    with open(os.path.join(tmp, "stdout.txt")) as handle:
        figures = handle.read()
    if "== Figure 8" not in figures or "== Suite-average summary" not in figures:
        return "figures missing from stdout"
    return None


def run_local(repro, inputs, tmp, save, probe=False):
    """One in-process run (`paper-matrix`, `verified-sweep`): one fresh
    `repro` process. A probe stops it once its setup is done."""
    proc = Proc(
        [repro] + repro_args(inputs, save),
        pattern=RUNNING_RE,
        stdout_path=os.path.join(tmp, "stdout.txt"),
    )
    try:
        if probe:
            if not proc.marked.wait(REP_TIMEOUT_S):
                return Rep(False, why="no `running` line: " + proc.tail())
            return Rep(True, setup=proc.mark - proc.start)
        why = finished(proc, tmp, "running")
        if why:
            return Rep(False, why=why)
        return Rep(True, wall=proc.wall, setup=proc.mark - proc.start, rss=proc.peak_rss_mb)
    finally:
        proc.kill()


def run_fleet(repro, inputs, tmp, save, probe=False, stats=False):
    """One `fleet` run: two fresh `repro serve --jobs 1` daemons and a
    coordinator distributing the matrix over them (default bin1 wire).
    Wall and setup run from the first daemon's spawn; peak memory adds
    the three processes. With `stats`, the coordinator also prints its
    `--stats` lines, returned as the repetition's stdout."""
    daemons = [
        Proc([repro, "serve", "--listen", "127.0.0.1:0", "--jobs", "1"], pattern=LISTENING_RE)
        for _ in range(2)
    ]
    coordinator = None
    try:
        for daemon in daemons:
            if not daemon.marked.wait(REP_TIMEOUT_S):
                return Rep(False, why="daemon never listened: " + daemon.tail())
        workers = ",".join(daemon.match.group(1) for daemon in daemons)
        argv = [repro] + repro_args(inputs, save) + ["--workers", workers]
        if stats:
            argv.append("--stats")
        coordinator = Proc(
            argv, pattern=DISTRIBUTING_RE, stdout_path=os.path.join(tmp, "stdout.txt")
        )
        start = daemons[0].start
        if probe:
            if not coordinator.marked.wait(REP_TIMEOUT_S):
                return Rep(False, why="no `distributing` line: " + coordinator.tail())
            return Rep(True, setup=coordinator.mark - start)
        why = finished(coordinator, tmp, "distributing")
        if why:
            return Rep(False, why=why)
        for daemon in daemons:
            daemon.kill()
        rss = coordinator.peak_rss_mb + sum(daemon.peak_rss_mb for daemon in daemons)
        rep = Rep(True, wall=coordinator.end - start, setup=coordinator.mark - start, rss=rss)
        if stats:
            with open(os.path.join(tmp, "stdout.txt")) as handle:
                rep.stdout = handle.read()
        return rep
    finally:
        for proc in daemons + ([coordinator] if coordinator else []):
            proc.kill()


def reference_save(repro, inputs, tmp):
    """Runs the workload's matrix in process once, untimed, and returns
    its checked save (raises ValueError on failure)."""
    path = os.path.join(tmp, "reference.json")
    rep = run_local(repro, inputs, tmp, path)
    if not rep.ok:
        raise ValueError("reference run failed: " + rep.why)
    return Reference(path, inputs)


def end_to_end(repro, inputs, seconds):
    tmp = make_temp_dir()
    run = run_fleet if inputs["fleet"] else run_local
    cells = inputs["cells"]
    # `fleet` must match the in-process run of the same matrix; the other
    # workloads match their own first repetition.
    reference = None
    if inputs["fleet"]:
        try:
            reference = reference_save(repro, inputs, tmp)
        except ValueError as error:
            log(f"correctness: {error}")

    setups = []
    reps = []
    begun = time.perf_counter()
    while True:
        # Setup-only launches add samples to the median of a quantity a
        # few milliseconds long.
        for _ in range(PROBES_PER_REP):
            probe = run(repro, inputs, tmp, os.path.join(tmp, "probe.json"), probe=True)
            if probe.ok:
                setups.append(probe.setup)
        save = os.path.join(tmp, "rep.json")
        if os.path.exists(save):
            os.remove(save)
        rep = run(repro, inputs, tmp, save)
        if rep.ok and reference is None and not inputs["fleet"]:
            try:
                reference = Reference(save, inputs)
            except ValueError as error:
                rep.ok, rep.why = False, str(error)
        elif rep.ok and (reference is None or not reference.matches(save)):
            rep.ok, rep.why = False, "save differs from the reference save"
        if not rep.ok:
            log(f"repetition {len(reps) + 1} failed: {rep.why}")
        reps.append(rep)
        elapsed = time.perf_counter() - begun
        if elapsed >= seconds or elapsed >= RUN_HARD_STOP_S:
            break

    timed = [rep for rep in reps if rep.wall is not None]
    failed = sum(cells for rep in reps if not rep.ok)
    metrics = {}
    if timed and reference:
        setups += [rep.setup for rep in timed]
        walls = sorted(rep.wall for rep in timed)
        # The fastest repetition: on a shared host, interference from other
        # tenants only adds time, and it shifts in regimes longer than a
        # repetition, which moves a per-run median with the host's load
        # rather than with the code. The spread is logged beside it.
        wall = walls[0]
        metrics = {
            "wall_s": wall,
            "sim_minst_per_s": reference.committed / wall / 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep.rss for rep in timed),
        }
        quartiles = (
            statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
        )
        log(
            "repetition wall s: min {:.4f} q1 {:.4f} median {:.4f} q3 {:.4f} max {:.4f}".format(
                walls[0], quartiles[0], quartiles[1], quartiles[2], walls[-1]
            )
        )
    log(
        f"{len(reps)} repetition(s), {len(setups)} setup sample(s), "
        f"{failed // cells} failed repetition(s)"
    )
    units = dict(END_TO_END)
    return cells * len(reps), failed, {name: (v, units[name]) for name, v in metrics.items()}


# ---------------------------------------------------------------------------
# Layer run.
# ---------------------------------------------------------------------------


def fleet_stats(repro, inputs, tmp, reference):
    """One untimed fleet run with `--stats`: the coordinator's scheduler
    counters, after checking that its save equals the in-process save."""
    save = os.path.join(tmp, "fleet.json")
    rep = run_fleet(repro, inputs, tmp, save, stats=True)
    if not rep.ok:
        raise ValueError("fleet --stats run failed: " + rep.why)
    if not reference.matches(save):
        raise ValueError("fleet save differs from the in-process save")
    counters = {}
    for line in rep.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in FLEET_STATS:
            counters[FLEET_STATS[fields[0]]] = float(fields[1])
    if len(counters) != len(FLEET_STATS):
        raise ValueError("coordinator --stats output lacks the scheduler counters")
    return counters


def layers(repro, layer_bin, workload, seed, inputs, seconds):
    tmp = make_temp_dir()
    cells = inputs["cells"]
    try:
        reference = reference_save(repro, inputs, tmp)
        extra = (
            fleet_stats(repro, inputs, tmp, reference)
            if inputs["fleet"]
            else {name: 0.0 for name in FLEET_STATS.values()}
        )
    except ValueError as error:
        log(f"correctness: {error}")
        return cells, cells, {}

    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    argv = [
        layer_bin,
        "--scale",
        inputs["scale"],
        "--save",
        os.path.join(tmp, "reference.json"),
        "--spans",
        os.path.join(spans_dir, f"{workload}-seed{seed}.trace.json"),
    ]
    if inputs["verify"]:
        argv.append("--verify")
    if inputs["sweep"]:
        argv += ["--sweep-iq", ",".join(str(p) for p in inputs["sweep"])]
    if inputs["fleet"]:
        argv.append("--codecs")

    samples, failed, runs = [], 0, 0
    begun = time.perf_counter()
    while True:
        runs += 1
        proc = Proc(argv)
        try:
            if not proc.wait(LAYER_TIMEOUT_S):
                log(f"layer run timed out after {LAYER_TIMEOUT_S} s")
                failed += cells
            elif proc.returncode != 0:
                log(f"layer run failed (exit {proc.returncode}): {proc.tail()}")
                failed += cells
            else:
                try:
                    samples.append(json.loads(proc.out[-1]))
                except (IndexError, ValueError):
                    log("layer run printed no metrics line")
                    failed += cells
        finally:
            proc.kill()
        elapsed = time.perf_counter() - begun
        if elapsed >= seconds or elapsed >= RUN_HARD_STOP_S:
            break

    metrics = {}
    if samples:
        # The modelled machine is deterministic: every sample must agree.
        for name in samples[0]:
            if name.startswith("model.") and len({s[name] for s in samples}) != 1:
                log(f"correctness: {name} differs between layer runs")
                failed = cells * runs
        # Plan lint runs exactly when the workload verifies.
        if any((s["verify.lint_s"] > 0) != inputs["verify"] for s in samples):
            log("correctness: plan lint ran where it should not, or did not where it should")
            failed = cells * runs
        # All timings come from one layer run, the one with the (lower)
        # median serial matrix wall, so its layer seconds and engine
        # overhead add up to that wall exactly.
        samples.sort(key=lambda s: s["core.serial_matrix_s"])
        sample = samples[(len(samples) - 1) // 2]
        for name, unit in PER_LAYER:
            if name in extra:
                value = extra[name]
            elif name.startswith("remote.") and not inputs["fleet"]:
                value = 0.0
            else:
                value = sample[name]
            metrics[name] = (value, unit)
    log(f"{runs} layer run(s), {len(samples)} succeeded")
    return cells * runs, failed, metrics


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    atexit.register(cleanup)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, on_signal)

    repro, layer_bin = build()
    inputs = derive_inputs(args.workload, args.seed)
    host = host_record()
    log(f"{args.workload} seed {args.seed}: {json.dumps(inputs)}")
    try:
        if args.trace:
            attempted, failed, metrics = layers(
                repro, layer_bin, args.workload, args.seed, inputs, args.seconds
            )
        else:
            attempted, failed, metrics = end_to_end(repro, inputs, args.seconds)
    finally:
        cleanup()
    wanted = [name for name, _ in (PER_LAYER if args.trace else END_TO_END)]
    correct = failed == 0 and all(name in metrics for name in wanted)

    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{name:36} {value:>18.6f} {unit}")
    print(f"{'error_rate':36} {failed / max(attempted, 1):>18.6f} failed/attempted cells")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, inputs=inputs, host=host)
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"host {json.dumps(host)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
