//! Conservation identities over [`ActivityStats`]: relations every
//! simulated run must satisfy whatever the program, machine or policy.
//!
//! They are the conserved quantities of a queueing view of the pipeline
//! (Carroll & Lin's model of the issue queue): every committed instruction
//! is written into the issue queue once, read out once and broadcasts its
//! result once; residency sums are bounded below by the work that flowed
//! through and above by the structures that contain it; powered banks never
//! exceed the banks that exist. None of them is computed by the simulator
//! under test, so they check it without a second implementation.

use sdiq::isa::{Program, RegClass, Trace};
use sdiq::sim::ActivityStats;

/// Checks every identity on one run's counters. Where the run's program
/// and committed trace are given, the counters that are pure functions of
/// the trace are also recounted from it directly. Returns the first
/// violated identity, named with both sides.
pub fn check_identities(
    stats: &ActivityStats,
    source: Option<(&Program, &Trace)>,
) -> Result<(), String> {
    let s = stats;
    let mut checks: Vec<(&str, bool, String)> = vec![
        (
            "dispatched == issued == iq_writes == iq_reads == committed",
            s.dispatched == s.committed
                && s.issued == s.committed
                && s.iq_writes == s.committed
                && s.iq_reads == s.committed,
            format!(
                "{} {} {} {} {}",
                s.dispatched, s.issued, s.iq_writes, s.iq_reads, s.committed
            ),
        ),
        (
            "wakeup_comparisons_gated <= _nonempty <= _full",
            s.wakeup_comparisons_gated <= s.wakeup_comparisons_nonempty
                && s.wakeup_comparisons_nonempty <= s.wakeup_comparisons_full,
            format!(
                "{} {} {}",
                s.wakeup_comparisons_gated,
                s.wakeup_comparisons_nonempty,
                s.wakeup_comparisons_full
            ),
        ),
        (
            "wakeup_comparisons_full == wakeup_broadcasts * 2 * iq_total_entries",
            s.wakeup_comparisons_full == s.wakeup_broadcasts * 2 * s.iq_total_entries,
            format!(
                "{} vs {} * 2 * {}",
                s.wakeup_comparisons_full, s.wakeup_broadcasts, s.iq_total_entries
            ),
        ),
        (
            "wakeup_broadcasts == int_rf_writes + fp_rf_writes",
            s.wakeup_broadcasts == s.int_rf_writes + s.fp_rf_writes,
            format!(
                "{} vs {} + {}",
                s.wakeup_broadcasts, s.int_rf_writes, s.fp_rf_writes
            ),
        ),
        (
            "committed <= iq_occupancy_sum <= rob_occupancy_sum",
            s.committed <= s.iq_occupancy_sum && s.iq_occupancy_sum <= s.rob_occupancy_sum,
            format!(
                "{} {} {}",
                s.committed, s.iq_occupancy_sum, s.rob_occupancy_sum
            ),
        ),
        (
            "rob_occupancy_sum >= 2 * committed",
            s.rob_occupancy_sum >= 2 * s.committed,
            format!("{} vs 2 * {}", s.rob_occupancy_sum, s.committed),
        ),
        (
            "iq_banks_on_sum <= iq_total_banks * cycles",
            s.iq_banks_on_sum <= s.iq_total_banks * s.cycles,
            format!(
                "{} vs {} * {}",
                s.iq_banks_on_sum, s.iq_total_banks, s.cycles
            ),
        ),
        (
            "int_rf_banks_on_sum <= int_rf_total_banks * cycles",
            s.int_rf_banks_on_sum <= s.int_rf_total_banks * s.cycles,
            format!(
                "{} vs {} * {}",
                s.int_rf_banks_on_sum, s.int_rf_total_banks, s.cycles
            ),
        ),
        (
            "fp_rf_banks_on_sum <= fp_rf_total_banks * cycles",
            s.fp_rf_banks_on_sum <= s.fp_rf_total_banks * s.cycles,
            format!(
                "{} vs {} * {}",
                s.fp_rf_banks_on_sum, s.fp_rf_total_banks, s.cycles
            ),
        ),
        (
            "mispredicted_branches <= branches",
            s.mispredicted_branches <= s.branches,
            format!("{} vs {}", s.mispredicted_branches, s.branches),
        ),
        (
            "dcache_misses <= dcache_accesses",
            s.dcache_misses <= s.dcache_accesses,
            format!("{} vs {}", s.dcache_misses, s.dcache_accesses),
        ),
        (
            "l2_misses <= icache_misses + dcache_misses",
            s.l2_misses <= s.icache_misses + s.dcache_misses,
            format!(
                "{} vs {} + {}",
                s.l2_misses, s.icache_misses, s.dcache_misses
            ),
        ),
    ];
    if let Some((program, trace)) = source {
        let expected = recount(program, trace);
        for (name, actual, recounted) in [
            ("committed", s.committed, expected.committed),
            (
                "committed_hints",
                s.committed_hints,
                expected.committed_hints,
            ),
            (
                "committed_low_energy",
                s.committed_low_energy,
                expected.committed_low_energy,
            ),
            ("branches", s.branches, expected.branches),
            ("int_rf_reads", s.int_rf_reads, expected.int_rf_reads),
            ("int_rf_writes", s.int_rf_writes, expected.int_rf_writes),
            ("fp_rf_reads", s.fp_rf_reads, expected.fp_rf_reads),
            ("fp_rf_writes", s.fp_rf_writes, expected.fp_rf_writes),
        ] {
            checks.push((
                name,
                actual == recounted,
                format!("{actual} vs {recounted} recounted from the trace"),
            ));
        }
    }
    match checks.into_iter().find(|(_, holds, _)| !holds) {
        Some((name, _, values)) => Err(format!("{name} violated: {values}")),
        None => Ok(()),
    }
}

/// Checks that every run of one (workload, machine) committed the same
/// number of real instructions, whichever technique produced it: the
/// techniques change how the queue is managed, never the program's work.
pub fn check_equal_committed<'a>(
    runs: impl IntoIterator<Item = (&'a str, &'a ActivityStats)>,
) -> Result<(), String> {
    let mut first: Option<(&str, u64)> = None;
    for (label, stats) in runs {
        match first {
            None => first = Some((label, stats.committed)),
            Some((first_label, committed)) if committed != stats.committed => {
                return Err(format!(
                    "committed differs: {first_label} {committed} vs {label} {}",
                    stats.committed
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The counters a run's committed trace determines on its own: every entry
/// is fetched once, every special NOOP is stripped at decode, and every
/// other entry dispatches, reads its sources at issue and writes its
/// destination at writeback exactly once.
fn recount(program: &Program, trace: &Trace) -> ActivityStats {
    let mut counts = ActivityStats::default();
    for dyn_inst in &trace.committed {
        let inst = program.instruction(dyn_inst.loc);
        if inst.opcode.is_cond_branch() {
            counts.branches += 1;
        }
        if inst.is_hint_noop() {
            counts.committed_hints += 1;
            continue;
        }
        counts.committed += 1;
        if inst.low_energy {
            counts.committed_low_energy += 1;
        }
        for src in inst.srcs.iter().flatten() {
            match src.class() {
                RegClass::Int => counts.int_rf_reads += 1,
                RegClass::Fp => counts.fp_rf_reads += 1,
            }
        }
        match inst.dest.map(|dest| dest.class()) {
            Some(RegClass::Int) => counts.int_rf_writes += 1,
            Some(RegClass::Fp) => counts.fp_rf_writes += 1,
            None => {}
        }
    }
    counts
}
