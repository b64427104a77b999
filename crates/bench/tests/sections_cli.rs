//! End-to-end tests of `repro`'s flags: `--all`'s sections appear in the
//! paper's order whatever order they are computed in, the engine line
//! reports the work the artifact cache shared, a flag that `repro`,
//! `repro serve` or `repro lint` does not know is an error rather than an
//! empty run, and a matrix no run can hold (a bad scale, an axis entry
//! listed twice) exits 2 before any cell runs, in process and on a fleet,
//! `--summary`, the figures and §6 list the suite's own techniques and
//! read `n/a` for one with no baseline to compare against, Table 2 times
//! the run's benchmarks, and a cell whose workload stopped at the
//! instruction cap is reported.

use sdiq_core::{persist, Experiment};
use std::process::Command;

#[test]
fn all_prints_table1_table2_and_figure6_in_order() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--all", "--scale", "0.02", "--benchmarks", "gzip"])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "repro --all failed:\n{stderr}");
    let position = |section: &str| {
        stdout
            .find(section)
            .unwrap_or_else(|| panic!("no `{section}` section in:\n{stdout}"))
    };
    let table1 = position("== Table 1:");
    let table2 = position("== Table 2:");
    let figure6 = position("== Figure 6:");
    assert!(
        table1 < table2 && table2 < figure6,
        "sections out of order:\n{stdout}"
    );
    // Table 2 times the run's benchmarks, not all eleven.
    let table2_rows: Vec<&str> = stdout[table2..figure6]
        .lines()
        .filter(|line| line.contains("with pass"))
        .collect();
    assert!(
        table2_rows.len() == 1 && table2_rows[0].trim_start().starts_with("gzip "),
        "Table 2 should have one gzip row:\n{stdout}"
    );
    // One benchmark under the eight built-in techniques: the raw program
    // and the noop pass output lowered, the extension and improved pass
    // outputs re-marked from the raw plan (their passes change only
    // markers), and five replays (baseline, nonEmpty and way-memo share
    // one, and lowen-isa, whose pass only sets markers, prices it too).
    assert!(
        stderr.contains(
            "engine: 1 program builds, 4 compiler passes, 2 plans lowered, 2 re-marked, \
             5 replays for 8 computed cells"
        ),
        "engine line missing or changed:\n{stderr}"
    );
}

#[test]
fn unknown_flags_exit_two_and_name_the_flag() {
    for (args, message) in [
        (&["--figur6"][..], "unknown argument: --figur6"),
        (&["--shards", "2"], "unknown argument: --shards"),
        (&["--no-speculate"], "unknown argument: --no-speculate"),
        (
            &["--pipeline-window", "4"],
            "unknown argument: --pipeline-window",
        ),
        (
            &["--listen-workers", "127.0.0.1:0"],
            "unknown argument: --listen-workers",
        ),
        (&["--expect", "2"], "unknown argument: --expect"),
        (
            &["serve", "--register", "127.0.0.1:9"],
            "unknown serve argument: --register",
        ),
        (
            &["serve", "--heartbeat-deadline", "1"],
            "unknown serve argument: --heartbeat-deadline",
        ),
        (
            &["lint", "--listen-workers", "127.0.0.1:0"],
            "unknown lint argument: --listen-workers",
        ),
        (
            &["lint", "--expect", "2"],
            "unknown lint argument: --expect",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a section");
    }
}

/// `MatrixSpec::matrix` validates every matrix, and `repro` builds it
/// before it prints, dials or runs anything: a bad `--scale` or an axis
/// entry listed twice exits 2 naming the problem, and a `--workers` run
/// never dials (nobody listens on the worker address, so a dial would
/// end in exit 1).
#[test]
fn bad_matrix_inputs_exit_two_before_any_cell_runs() {
    let small = [
        "--summary",
        "--scale",
        "0.02",
        "--benchmarks",
        "gzip",
        "--techniques",
        "baseline",
    ];
    for fleet in [&[][..], &["--workers", "127.0.0.1:9"]] {
        for (args, message) in [
            (&["--scale", "abc"][..], "--scale needs a number, got `abc`"),
            (&["--scale"], "--scale needs a value"),
            (
                &["--scale", "0"],
                "scale must be positive and finite, got `0`",
            ),
            (
                &["--scale", "nan"],
                "scale must be positive and finite, got `NaN`",
            ),
            (
                &["--techniques", "baseline,baseline"],
                "technique `baseline` is listed twice",
            ),
            (
                &["--benchmarks", "gzip,gzip"],
                "benchmark `gzip` is listed twice",
            ),
            (&["--sweep", "iq=48,48"], "variant `iq48` is listed twice"),
        ] {
            let output = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(small)
                .args(fleet)
                .args(args)
                .output()
                .expect("spawn repro");
            let stderr = String::from_utf8_lossy(&output.stderr);
            let what = [fleet, args].concat();
            assert_eq!(output.status.code(), Some(2), "{what:?}:\n{stderr}");
            assert!(stderr.contains(message), "{what:?}:\n{stderr}");
            assert!(
                !stderr.contains("running") && !stderr.contains("distributing"),
                "{what:?} started the run:\n{stderr}"
            );
            assert!(output.stdout.is_empty(), "{what:?} printed a section");
        }
    }
}

/// `--summary` lists the suite's own techniques, and a technique with no
/// baseline to compare against reads `n/a`, never a saving of 0.0 %.
#[test]
fn the_summary_lists_the_suites_techniques_and_n_a_without_a_baseline() {
    let summary = |techniques: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--summary", "--scale", "0.05", "--benchmarks", "gzip,mcf"])
            .args(["--techniques", techniques])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "repro failed:\n{stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        let rows: Vec<String> = stdout
            .lines()
            .skip_while(|line| !line.starts_with("== Suite-average summary"))
            .skip(2)
            .take_while(|line| !line.is_empty())
            .map(str::to_string)
            .collect();
        rows
    };
    let alone = summary("noop");
    assert_eq!(alone.len(), 1, "only the suite's technique: {alone:?}");
    let cells: Vec<&str> = alone[0].split_whitespace().collect();
    assert_eq!(cells, ["noop", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"]);
    let compared = summary("baseline,noop");
    assert_eq!(compared.len(), 1, "{compared:?}");
    assert!(
        compared[0].starts_with("  noop") && !compared[0].contains("n/a"),
        "{compared:?}"
    );
    assert!(compared[0].ends_with('%'), "{compared:?}");
}

/// Figures 6–12 and §6 list only the suite's own techniques, and a
/// technique with no baseline to compare against reads `n/a`, never an
/// average of 0.
#[test]
fn figures_and_overall_list_the_suites_techniques_and_n_a_without_a_baseline() {
    let sections = |techniques: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--figure6", "--figure7", "--figure8", "--figure9"])
            .args(["--figure10", "--figure11", "--figure12", "--overall"])
            .args(["--scale", "0.05", "--benchmarks", "gzip"])
            .args(["--techniques", techniques])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "repro failed:\n{stderr}");
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    // A series header (`  noop:`) or a §6 row (`  noop  12.3% ...`) is
    // the one kind of line indented by exactly two spaces.
    let labels = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|line| line.starts_with("  ") && !line.starts_with("   "))
            .map(|line| {
                line.split_whitespace()
                    .next()
                    .unwrap_or("")
                    .replace(':', "")
            })
            .collect()
    };
    // A noop series in each panel (one each in Figures 6, 7 and 10, two
    // each in 8 and 9) and a §6 row; Figures 11 and 12 plot none of the
    // suite's techniques.
    let compared = sections("baseline,noop");
    assert_eq!(labels(&compared), vec!["noop"; 8], "{compared}");
    assert!(!compared.contains("n/a"), "{compared}");

    let alone = sections("noop");
    assert_eq!(labels(&alone), vec!["noop"; 8], "{alone}");
    let averages: Vec<&str> = alone.lines().filter(|l| l.contains("AVERAGE")).collect();
    assert_eq!(averages.len(), 7, "{alone}");
    assert!(averages.iter().all(|line| line.ends_with("n/a")), "{alone}");
    let overall = alone.lines().skip_while(|l| !l.starts_with("== §6")).nth(1);
    assert!(
        overall.is_some_and(|row| row.starts_with("  noop") && row.contains("n/a")),
        "{alone}"
    );
}

/// A workload that reaches `Experiment::max_dynamic_instructions` is cut
/// short by the executor. `repro` scans the suite it ends with, whatever
/// its source, and names the first such cell on stderr; a `--load` that
/// computes nothing must still warn, and a run below the cap must not.
#[test]
fn cells_at_the_instruction_cap_are_named_on_stderr() {
    let dir = std::env::temp_dir().join(format!("sdiq-cap-warning-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let (saved, capped) = (dir.join("saved.json"), dir.join("capped.json"));
    let repro = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--summary", "--scale", "0.02", "--benchmarks", "gzip"])
            .args(["--techniques", "baseline"])
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "repro {args:?} failed:\n{stderr}");
        stderr
    };
    let warning = "instruction cap";

    let stderr = repro(&["--save", saved.to_str().unwrap()]);
    assert!(!stderr.contains(warning), "a short run warned:\n{stderr}");
    let stderr = repro(&["--load", saved.to_str().unwrap()]);
    assert!(stderr.contains("running 0 of 1"), "{stderr}");
    assert!(
        !stderr.contains(warning),
        "an unedited reload warned:\n{stderr}"
    );

    let mut cells = persist::load_cells(&std::fs::read_to_string(&saved).unwrap()).unwrap();
    assert_eq!(cells.len(), 1);
    let (key, report) = cells.iter_mut().next().unwrap();
    let key = key.clone();
    report.stats.committed =
        Experiment::paper().max_dynamic_instructions - report.stats.committed_hints;
    std::fs::write(&capped, persist::save_cells(&cells.into_iter().collect())).unwrap();
    let stderr = repro(&["--load", capped.to_str().unwrap()]);
    assert!(
        stderr.contains("running 0 of 1"),
        "the reload computed:\n{stderr}"
    );
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains(warning)).collect();
    assert_eq!(warnings.len(), 1, "{stderr}");
    assert!(
        warnings[0].contains("1 cell(s)") && warnings[0].contains(&format!("(first: {key})")),
        "the warning does not count and name the capped cell: {}",
        warnings[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}
