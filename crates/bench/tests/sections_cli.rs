//! End-to-end tests of `repro`'s section flags: `--all`'s sections appear
//! in the paper's order whatever order they are computed in, the engine
//! line reports the work the artifact cache shared, and a flag that names
//! no section is an error rather than an empty run.

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
    for args in [
        &["--figur6"][..],
        &["--shards", "2"][..],
        &["--no-speculate"][..],
        &["--pipeline-window", "4"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(
            stderr.contains(&format!("unknown argument: {}", args[0])),
            "{args:?}:\n{stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} printed a section");
    }
}
