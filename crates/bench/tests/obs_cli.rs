//! End-to-end tests of the observability flags: the serve-mode
//! refusals, the Chrome trace file a `--trace` run writes, the
//! `--stats` view, progress going to stderr only — and the central
//! out-of-band guarantee, a traced run's `--save` being byte-identical
//! to an untraced one's.

use std::process::Command;

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn repro(args: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    Run {
        code: output.status.code().expect("repro exited without a code"),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sdiq-obs-cli-{}-{name}", std::process::id()))
}

const SMALL: &[&str] = &[
    "--scale",
    "0.02",
    "--benchmarks",
    "gzip",
    "--techniques",
    "baseline,noop",
    "--summary",
];

#[test]
fn serve_refuses_trace_and_progress() {
    for flag in [
        &["serve", "--trace", "/tmp/x.json"][..],
        &["serve", "--progress"][..],
    ] {
        let run = repro(flag);
        assert_eq!(run.code, 2, "{flag:?} must exit 2, stderr:\n{}", run.stderr);
        assert!(
            run.stderr.contains("coordinator flag"),
            "{flag:?} stderr:\n{}",
            run.stderr
        );
    }
}

#[test]
fn traced_run_writes_a_wellformed_nonempty_chrome_trace() {
    let trace = temp_path("trace.json");
    let mut args: Vec<&str> = SMALL.to_vec();
    let trace_str = trace.to_str().expect("temp path is utf-8");
    args.extend(["--trace", trace_str]);
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = sdiq_core::persist::parse(text.trim_end()).expect("trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .expect("traceEvents key")
        .arr()
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "trace has events");
    // Spans from the engine's hot seams must be present, balanced.
    let phase =
        |record: &sdiq_core::persist::Json| record.get("ph").unwrap().str().unwrap().to_string();
    let begins = events.iter().filter(|e| phase(e) == "B").count();
    let ends = events.iter().filter(|e| phase(e) == "E").count();
    assert!(begins > 0, "no spans recorded");
    assert_eq!(begins, ends, "unbalanced B/E pairs");
    let named: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").ok().and_then(|n| n.str().ok()))
        .collect();
    assert!(named.contains(&"cell"), "cell spans missing: {named:?}");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn traced_save_is_byte_identical_to_untraced() {
    let traced_save = temp_path("traced-save.json");
    let plain_save = temp_path("plain-save.json");
    let trace = temp_path("identity-trace.json");

    let mut traced_args: Vec<&str> = SMALL.to_vec();
    let traced_save_str = traced_save.to_str().expect("utf-8");
    let trace_str = trace.to_str().expect("utf-8");
    traced_args.extend([
        "--save",
        traced_save_str,
        "--trace",
        trace_str,
        "--progress",
    ]);
    let run = repro(&traced_args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);

    let mut plain_args: Vec<&str> = SMALL.to_vec();
    let plain_save_str = plain_save.to_str().expect("utf-8");
    plain_args.extend(["--save", plain_save_str]);
    let run = repro(&plain_args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);

    let traced_bytes = std::fs::read(&traced_save).expect("traced save written");
    let plain_bytes = std::fs::read(&plain_save).expect("plain save written");
    assert_eq!(
        traced_bytes, plain_bytes,
        "tracing must be out-of-band: saves diverged"
    );
    for path in [&traced_save, &plain_save, &trace] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn progress_writes_to_stderr_never_stdout() {
    let mut args: Vec<&str> = SMALL.to_vec();
    args.push("--progress");
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    assert!(
        run.stderr.contains("progress:"),
        "no progress line on stderr:\n{}",
        run.stderr
    );
    assert!(
        !run.stdout.contains("progress:"),
        "progress leaked to stdout:\n{}",
        run.stdout
    );
}

#[test]
fn stats_view_prints_the_metrics_registry_only_when_asked() {
    let mut args: Vec<&str> = SMALL.to_vec();
    args.push("--stats");
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    assert!(
        run.stdout.contains("== Metrics snapshot"),
        "stdout:\n{}",
        run.stdout
    );
    assert!(run.stdout.contains("cells_done"), "stdout:\n{}", run.stdout);
    assert!(
        run.stdout.contains("cache_hit_rate"),
        "stdout:\n{}",
        run.stdout
    );
    assert!(
        !run.stdout.contains("== Span totals"),
        "span totals without --trace:\n{}",
        run.stdout
    );

    // With --trace, the view adds the count of each span name: one `cell`
    // span per cell, one `lower-plan` and one `replay` per artifact (the
    // raw program and the noop pass output), one `compile`.
    let trace = temp_path("stats-trace.json");
    args.extend(["--trace", trace.to_str().expect("utf-8")]);
    let run = repro(&args);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    let count = |name: &str| -> Option<u64> {
        let totals = run.stdout.split("== Span totals").nth(1)?;
        totals.lines().find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(name)).then(|| fields.next()?.parse().ok())?
        })
    };
    for (name, expected) in [
        ("cell", 2),
        ("lower-plan", 2),
        ("replay", 2),
        ("compile", 1),
    ] {
        assert_eq!(count(name), Some(expected), "{name}:\n{}", run.stdout);
    }
    let _ = std::fs::remove_file(&trace);

    // --all alone must not grow a stats section: the snapshot is
    // run-shaped (timings), which would make --all output unstable.
    let run = repro(SMALL);
    assert!(
        !run.stdout.contains("== Metrics snapshot"),
        "stats leaked into a non-stats run:\n{}",
        run.stdout
    );
}
