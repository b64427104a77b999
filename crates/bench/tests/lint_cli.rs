//! End-to-end tests of `repro lint` and the `--verify`/`--no-verify`
//! flags: exit-code contract (0 clean, 1 findings, 2 usage error), the
//! distributed-flag refusals, the summary line's shape, the plans lint
//! checks, and the warning for a plan cut short by the instruction cap.

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

#[test]
fn lint_over_a_small_matrix_is_clean_and_exits_zero() {
    let run = repro(&[
        "lint",
        "--scale",
        "0.02",
        "--benchmarks",
        "gzip,mcf",
        "--techniques",
        "baseline,noop,abella",
    ]);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    let summary = run
        .stdout
        .lines()
        .find(|l| l.starts_with("lint:"))
        .unwrap_or_else(|| panic!("no summary line in:\n{}", run.stdout));
    assert!(summary.contains("0 error(s)"), "summary: {summary}");
    assert!(
        summary.contains("2 benchmark(s) x 3 technique(s)"),
        "summary: {summary}"
    );
    assert!(
        !run.stdout.contains("PLAN007"),
        "no plan of a small matrix reaches the instruction cap:\n{}",
        run.stdout
    );
}

#[test]
fn lint_warns_about_a_plan_cut_short_by_the_instruction_cap() {
    // `bzip2` executes more than 2,000,000 instructions from scale 15.45.
    let run = repro(&[
        "lint",
        "--scale",
        "16",
        "--benchmarks",
        "bzip2",
        "--techniques",
        "baseline",
    ]);
    assert_eq!(
        run.code, 0,
        "a warning keeps the exit status:\n{}",
        run.stderr
    );
    let warning = run
        .stdout
        .lines()
        .find(|l| l.contains("warning[PLAN007]"))
        .unwrap_or_else(|| panic!("no PLAN007 warning in:\n{}", run.stdout));
    assert!(
        warning.contains("after 2000000 instructions, at the 2000000-instruction cap"),
        "{warning}"
    );
    assert!(run.stdout.contains("1 plan(s)"), "stdout:\n{}", run.stdout);
}

#[test]
fn lint_sweep_covers_every_config_variant() {
    let run = repro(&[
        "lint",
        "--scale",
        "0.02",
        "--benchmarks",
        "gzip",
        "--techniques",
        "noop",
        "--sweep",
        "iq=48,32",
    ]);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    // Paper point + two sweep values = three compiled/planned variants.
    assert!(
        run.stdout.contains("3 variant(s)"),
        "stdout:\n{}",
        run.stdout
    );
}

/// Lint checks the plans the artifact cache makes for a run: on
/// `gzip` under every technique at the paper point and `iq=48`, the 10
/// plan keys are the raw program's and the four pass outputs' on each
/// machine. The cache lowers the two streams a run lowers (the raw
/// program's and the `noop` output's) and re-marks the other 8, each
/// checked against the plan built from its program's own trace.
#[test]
fn lint_checks_the_plans_a_run_makes() {
    let matrix = [
        "--scale",
        "0.02",
        "--benchmarks",
        "gzip",
        "--sweep",
        "iq=48",
    ];
    let lint = repro(&[&["lint"][..], &matrix].concat());
    assert_eq!(lint.code, 0, "stderr:\n{}", lint.stderr);
    assert!(
        lint.stdout
            .contains("10 plan(s), 8 re-mark(s) checked - 0 error(s)"),
        "stdout:\n{}",
        lint.stdout
    );
    let run = repro(&[&matrix[..], &["--summary", "--jobs", "1"]].concat());
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    assert!(
        run.stderr.contains("2 plans lowered"),
        "stderr:\n{}",
        run.stderr
    );
}

#[test]
fn conflicting_verify_flags_exit_two() {
    let run = repro(&["--verify", "--no-verify", "--scale", "0.02"]);
    assert_eq!(run.code, 2, "stderr:\n{}", run.stderr);
    assert!(
        run.stderr.contains("mutually exclusive"),
        "stderr:\n{}",
        run.stderr
    );
    // Order must not matter.
    let flipped = repro(&["--no-verify", "--verify", "--scale", "0.02"]);
    assert_eq!(flipped.code, 2);
}

#[test]
fn repeated_verify_flag_is_accepted() {
    // Repetition is not a conflict — only contradiction is.
    let run = repro(&[
        "--verify",
        "--verify",
        "--scale",
        "0.02",
        "--benchmarks",
        "gzip",
        "--techniques",
        "baseline",
        "--summary",
    ]);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
}

#[test]
fn lint_refuses_distributed_execution_flags() {
    for flag in [
        &["lint", "--workers", "tcp:127.0.0.1:0"][..],
        &["lint", "--shard", "1/2"][..],
    ] {
        let run = repro(flag);
        assert_eq!(run.code, 2, "{flag:?} must be refused");
        assert!(
            run.stderr.contains("does not combine"),
            "{flag:?} stderr:\n{}",
            run.stderr
        );
    }
    // `--shards` is no flag at all: lint names it as unknown.
    let run = repro(&["lint", "--shards", "2"]);
    assert_eq!(run.code, 2, "--shards must be refused");
    assert!(
        run.stderr.contains("unknown lint argument: --shards"),
        "stderr:\n{}",
        run.stderr
    );
}

#[test]
fn unknown_technique_lists_the_registry_and_exits_two() {
    // Both the run and lint paths share the parser, so check both.
    for args in [
        &["--scale", "0.02", "--techniques", "bogus"][..],
        &["lint", "--scale", "0.02", "--techniques", "bogus"][..],
    ] {
        let run = repro(args);
        assert_eq!(run.code, 2, "{args:?} must exit 2");
        assert!(
            run.stderr.contains("unknown technique `bogus`"),
            "{args:?} stderr:\n{}",
            run.stderr
        );
        // The error enumerates every registered wire name, so a typo's fix
        // is on screen — including the registry-landed techniques.
        for name in [
            "baseline",
            "nonEmpty",
            "noop",
            "extension",
            "improved",
            "abella",
            "way-memo",
            "lowen-isa",
        ] {
            assert!(
                run.stderr.contains(name),
                "{args:?} stderr must list `{name}`:\n{}",
                run.stderr
            );
        }
    }
}

#[test]
fn lint_rejects_unknown_flags() {
    let run = repro(&["lint", "--frobnicate"]);
    assert_eq!(run.code, 2);
}

#[test]
fn lint_help_exits_zero() {
    let run = repro(&["lint", "--help"]);
    assert_eq!(run.code, 0, "stderr:\n{}", run.stderr);
    assert!(run.stdout.contains("lint"), "stdout:\n{}", run.stdout);
}
