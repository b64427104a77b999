//! End-to-end tests of the sharded, crash-resumable `repro` CLI over real
//! processes:
//!
//! 1. shard workers + merge produce a save file **byte-for-byte** equal to
//!    a serial `--save`,
//! 2. a checkpoint torn mid-line (the artifact of a killed run), even
//!    inside its header, resumes via the same `--checkpoint` flag,
//!    recomputing only the missing cells, and ends with the same bytes
//!    again,
//! 3. a save file passed as `--checkpoint` is refused, not appended to.

use std::path::{Path, PathBuf};
use std::process::Command;

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
    let dir = std::env::temp_dir().join(format!("sdiq-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro` with the tiny axes plus `args`, asserting success, and
/// returns its stderr (progress reporting goes there).
fn repro(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(AXES)
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn sharded_workers_merge_byte_identically_to_a_serial_save() {
    let dir = scratch_dir("shard-merge");
    let serial = dir.join("serial.json");
    let shard1 = dir.join("shard1.json");
    let shard2 = dir.join("shard2.json");
    let merged = dir.join("merged.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);
    let log1 = repro(&["--shard", "1/2", "--save", shard1.to_str().unwrap()]);
    let log2 = repro(&["--shard", "2/2", "--save", shard2.to_str().unwrap()]);
    assert!(log1.contains("shard 1/2"), "worker announces its shard");
    assert!(log2.contains("shard 2/2"));

    // The two shards are a real partition of the six cells.
    let (text1, text2) = (read(&shard1), read(&shard2));
    let count = |text: &str| text.matches("\"workload\"").count();
    assert!(
        count(&text1) > 0 && count(&text2) > 0,
        "both shards own cells"
    );
    assert_eq!(count(&text1) + count(&text2), 6);

    // Merging the partial suites (repeatable --load) re-runs nothing and
    // writes the exact bytes of the serial save.
    let merge_log = repro(&[
        "--summary",
        "--load",
        shard1.to_str().unwrap(),
        "--load",
        shard2.to_str().unwrap(),
        "--save",
        merged.to_str().unwrap(),
    ]);
    assert!(
        merge_log.contains("running 0 of 6"),
        "merge computes nothing:\n{merge_log}"
    );
    assert_eq!(
        read(&serial),
        read(&merged),
        "sharded ∪ merged must be byte-identical to serial"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_checkpoint_resumes_and_recomputes_only_missing_cells() {
    let dir = scratch_dir("resume");
    let serial = dir.join("serial.json");
    let checkpoint = dir.join("run.ckpt");
    let resumed = dir.join("resumed.json");

    repro(&["--summary", "--save", serial.to_str().unwrap()]);
    let first = repro(&["--summary", "--checkpoint", checkpoint.to_str().unwrap()]);
    assert!(first.contains("running 6 of 6"), "cold run:\n{first}");
    assert!(first.contains("checkpointed 6 newly computed cells"));

    // Kill artifact: the final append was torn mid-line.
    let text = read(&checkpoint);
    assert_eq!(text.lines().count(), 7, "header + six cells");
    std::fs::write(&checkpoint, &text.as_bytes()[..text.len() - 20]).unwrap();

    // The same command line resumes from its own checkpoint file: five
    // cells load, exactly one is recomputed, and the saved suite is
    // byte-identical to the serial one.
    let second = repro(&[
        "--summary",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--save",
        resumed.to_str().unwrap(),
    ]);
    assert!(
        second.contains("loaded 5 cells"),
        "torn tail tolerated:\n{second}"
    );
    assert!(
        second.contains("running 1 of 6"),
        "only the lost cell re-runs"
    );
    assert_eq!(read(&serial), read(&resumed), "resume is byte-identical");

    // The resume healed the torn file (trimmed the fragment before
    // appending): a further identical run loads all six cells and
    // computes nothing — pre-fix, the first resumed cell fused with the
    // torn fragment and stayed silently lost (or, with more cells after
    // it, poisoned every later load).
    let third = repro(&["--summary", "--checkpoint", checkpoint.to_str().unwrap()]);
    assert!(third.contains("loaded 6 cells"), "healed file:\n{third}");
    assert!(third.contains("running 0 of 6"));

    // A run killed while writing the header leaves a torn first line.
    // Rerunning the same command resumes that too: nothing survived, so
    // every cell is computed, and the bytes match serial.
    std::fs::write(&checkpoint, "{\"format\":1,\"ki").unwrap();
    let fourth = repro(&[
        "--summary",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
        "--save",
        resumed.to_str().unwrap(),
    ]);
    assert!(fourth.contains("running 6 of 6"), "torn header:\n{fourth}");
    assert_eq!(read(&serial), read(&resumed), "{fourth}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_save_file_passed_as_a_checkpoint_is_refused_and_left_untouched() {
    // A `--save` file seeds a run like a checkpoint does, but appending
    // checkpoint lines to it would leave a file neither loader reads. The
    // run must stop before any cell runs, name the file, and leave it
    // byte-identical.
    let dir = scratch_dir("save-as-checkpoint");
    let save = dir.join("partial.json");
    let path = save.to_str().unwrap();
    // Two of the three techniques: the checkpoint run below owes two cells.
    repro(&["--techniques", "baseline,noop", "--save", path]);
    let before = std::fs::read(&save).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(AXES)
        .args(["--summary", "--checkpoint", path])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains(path) && stderr.contains("not a checkpoint"),
        "the error names the file:\n{stderr}"
    );
    assert!(!stderr.contains("running"), "no cell ran:\n{stderr}");
    assert_eq!(
        std::fs::read(&save).unwrap(),
        before,
        "the save is untouched"
    );

    // It still loads as the save it was.
    let reload = repro(&["--techniques", "baseline,noop", "--summary", "--load", path]);
    assert!(reload.contains("running 0 of 4"), "{reload}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_mode_rejects_useless_and_contradictory_flag_combinations() {
    let no_output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--shard", "1/2"])
        .output()
        .expect("spawn repro");
    assert!(
        !no_output.status.success(),
        "--shard without --save/--checkpoint"
    );

    // `--shards` is no flag at all: the error names it as unknown.
    let both = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--shard", "1/2", "--shards", "2", "--save", "/dev/null"])
        .output()
        .expect("spawn repro");
    assert_eq!(both.status.code(), Some(2), "--shard with --shards");
    assert!(
        String::from_utf8_lossy(&both.stderr).contains("unknown argument: --shards"),
        "the error names the flag"
    );

    let bad_range = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--shard", "3/2", "--save", "/dev/null"])
        .output()
        .expect("spawn repro");
    assert!(!bad_range.status.success(), "shard index out of range");
}
