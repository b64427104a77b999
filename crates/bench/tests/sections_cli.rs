//! End-to-end test of `repro --all`'s output: the sections appear in the
//! paper's order whatever order they are computed in, and the engine line
//! reports the work the artifact cache shared.

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
    // and four pass outputs, and six replays (baseline, nonEmpty and
    // way-memo share one).
    assert!(
        stderr.contains(
            "engine: 1 program builds, 4 compiler passes, 5 plans, 6 replays for 8 computed cells"
        ),
        "engine line missing or changed:\n{stderr}"
    );
}
