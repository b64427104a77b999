//! The golden save: every benchmark under every built-in technique, on the
//! paper's machine and on the small test machine, frozen byte for byte in
//! `tests/fixtures/golden_save.json`.
//!
//! The test recomputes the whole matrix on a fresh artifact cache and
//! compares the `persist::save_cells` bytes with the fixture, so any change
//! to cycles or to any activity counter of any cell fails it. On a mismatch
//! it names the first differing cell and writes the bytes it computed to
//! `golden_save.json` under the integration tests' scratch directory
//! (`CARGO_TARGET_TMPDIR`). When a model change is intended, copying that
//! file over the fixture is how the golden save is regenerated.

mod common;

use sdiq::core::{persist, ArtifactCache, ConfigVariant, Experiment, Matrix, Technique};
use sdiq::sim::SimConfig;
use sdiq::workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_save.json"
);

/// The eight built-in techniques (tests elsewhere may register more).
const TECHNIQUES: [Technique; 8] = [
    Technique::Baseline,
    Technique::NonEmpty,
    Technique::Noop,
    Technique::Extension,
    Technique::Improved,
    Technique::Abella,
    Technique::WayMemo,
    Technique::LowenIsa,
];

fn golden_experiment() -> Experiment {
    Experiment {
        scale: 0.05,
        ..Experiment::paper()
    }
}

/// The golden matrix recomputed on a fresh artifact cache.
struct Recomputed {
    /// The save file rendering of every cell.
    save: String,
    /// Plans the cache lowered.
    plans: u64,
    /// Plans the cache re-marked from a lowered one.
    remarks: u64,
    /// Replays the cache ran.
    replays: u64,
}

/// Recomputes the golden matrix with static verification (plan lint
/// against a second execution included) on or off.
fn recompute_golden(experiment: &Experiment, verify: bool) -> Recomputed {
    let small = ConfigVariant {
        label: "small".to_string(),
        sim_config: SimConfig::small_for_tests(),
        scale: experiment.scale,
    };
    let matrix = Matrix::new(experiment)
        .benchmarks(&Benchmark::ALL)
        .techniques(&TECHNIQUES)
        .variants(vec![ConfigVariant::base(experiment), small])
        .jobs(2);
    let cache = ArtifactCache::new();
    cache.set_verify(verify);
    let sweep = matrix.run_with(&cache, &HashMap::new());
    Recomputed {
        save: persist::save_cells(&matrix.collect_cells(&sweep)),
        plans: cache.plan_builds(),
        remarks: cache.plan_remarks(),
        replays: cache.replay_runs(),
    }
}

/// Fails, naming the first cell whose report differs, unless `actual`
/// equals the fixture byte for byte; on failure the computed bytes are
/// written out for inspection or regeneration.
fn assert_matches_fixture(actual: &str) {
    let expected = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    if actual == expected {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_save.json");
    std::fs::write(&out, actual).expect("write the computed save");
    let expected_cells = persist::load_cells(&expected).unwrap_or_default();
    let actual_cells: BTreeMap<_, _> = persist::load_cells(actual)
        .expect("a computed save parses")
        .into_iter()
        .collect();
    let first_difference = actual_cells
        .iter()
        .find(|(key, report)| expected_cells.get(*key) != Some(*report))
        .map(|(key, _)| key.clone())
        .or_else(|| {
            let mut missing: Vec<_> = expected_cells
                .keys()
                .filter(|key| !actual_cells.contains_key(*key))
                .collect();
            missing.sort();
            missing
                .first()
                .map(|key| format!("{key} (no longer computed)"))
        })
        .unwrap_or_else(|| "none: every cell is equal, only the encoding differs".to_string());
    panic!(
        "the recomputed matrix differs from {FIXTURE}; first differing cell: \
         {first_difference}. The computed save is at {}; if the change is \
         intended, copy it over the fixture.",
        out.display()
    );
}

/// Verification observes artifacts and never alters them, so the bytes
/// are the same with it on (the debug default) and off. Each machine
/// lowers 2 plans per benchmark (the raw program and the output of the
/// `noop` pass, which inserts hint NOOPs), re-marks 2 from the raw one
/// (the outputs of the `extension` and `improved` passes, which change
/// only markers) and runs 5 replays: one per pass output, and the raw
/// program's under the adaptive and the fixed policy. `baseline`,
/// `nonEmpty` and `way-memo` share the fixed one, and `lowen-isa`, whose
/// pass only sets markers, prices it too.
#[test]
fn golden_save_is_reproduced_byte_for_byte() {
    for verify in [false, true] {
        let run = recompute_golden(&golden_experiment(), verify);
        assert_matches_fixture(&run.save);
        assert_eq!(
            (run.plans, run.remarks, run.replays),
            (44, 44, 110),
            "plans lowered and re-marked and replays for the 176 cells, verify {verify}"
        );
    }
}

#[test]
fn golden_cells_satisfy_the_conservation_identities() {
    let text = std::fs::read_to_string(FIXTURE).expect("golden fixture exists");
    let cells = persist::load_cells(&text).expect("golden fixture parses");
    assert_eq!(cells.len(), Benchmark::ALL.len() * TECHNIQUES.len() * 2);
    // Cell keys are `benchmark|technique|variant|fingerprint`; the runs of
    // one (benchmark, machine) differ only in the technique field.
    let mut by_machine: BTreeMap<String, Vec<(&str, &sdiq::sim::ActivityStats)>> = BTreeMap::new();
    for (key, report) in &cells {
        if let Err(violation) = common::check_identities(&report.stats, None) {
            panic!("{key}: {violation}");
        }
        let fields: Vec<&str> = key.split('|').collect();
        let machine = format!("{}|{}|{}", fields[0], fields[2], fields[3]);
        by_machine
            .entry(machine)
            .or_default()
            .push((key.as_str(), &report.stats));
    }
    assert_eq!(by_machine.len(), Benchmark::ALL.len() * 2);
    for (machine, runs) in by_machine {
        assert_eq!(runs.len(), TECHNIQUES.len(), "{machine}");
        if let Err(violation) = common::check_equal_committed(runs) {
            panic!("{machine}: {violation}");
        }
    }
}
