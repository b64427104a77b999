//! Activity statistics collected by the timing simulator.
//!
//! These raw counters are the interface between the simulator and the power
//! model: `sdiq-power` turns them into dynamic/static energy following the
//! Wattch methodology (energy = Σ activity × per-event energy; leakage ∝
//! powered-on banks × cycles).

use serde::{Deserialize, Serialize};

/// Raw activity counters of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityStats {
    // --- high-level outcome -------------------------------------------------
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed (retired) instructions, excluding stripped special NOOPs.
    pub committed: u64,
    /// Committed special NOOPs (they are stripped before dispatch but do
    /// occupy fetch/decode slots).
    pub committed_hints: u64,
    /// Instructions dispatched into the issue queue.
    pub dispatched: u64,
    /// Instructions issued from the queue to functional units.
    pub issued: u64,

    // --- front end -----------------------------------------------------------
    /// Conditional branches fetched.
    pub branches: u64,
    /// Conditional branches whose direction was mispredicted.
    pub mispredicted_branches: u64,
    /// Taken control transfers that missed in the BTB.
    pub btb_misses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// Cycles fetch was stalled waiting for a mispredicted branch to resolve.
    pub fetch_stall_cycles: u64,
    /// Cycles in which dispatch stopped because the issue queue could not
    /// take the next instruction, counted once a hint window has been
    /// applied or while the adaptive hard limit is set. Every cause counts:
    /// the window or limit itself, but also a full queue and an occupied
    /// tail slot. Always 0 under the fixed policy, which applies no hint
    /// and sets no limit.
    pub dispatch_limit_stall_cycles: u64,

    // --- memory --------------------------------------------------------------
    /// L1 D-cache accesses.
    pub dcache_accesses: u64,
    /// L1 D-cache misses.
    pub dcache_misses: u64,
    /// L2 misses (from either L1).
    pub l2_misses: u64,

    // --- issue queue ---------------------------------------------------------
    /// Result broadcasts into the issue queue (completing instructions with
    /// a destination register).
    pub wakeup_broadcasts: u64,
    /// Operand comparisons if every entry of the full queue is woken on every
    /// broadcast (the unmanaged baseline the paper normalises against).
    pub wakeup_comparisons_full: u64,
    /// Operand comparisons if only *non-empty* entries are woken
    /// (Folegnani & González's `nonEmpty` scheme).
    pub wakeup_comparisons_nonempty: u64,
    /// Operand comparisons if only non-empty, non-ready operands are woken
    /// (empty and ready operands are gated, as the paper assumes for its
    /// technique).
    pub wakeup_comparisons_gated: u64,
    /// Entries written into the issue queue (dispatches).
    pub iq_writes: u64,
    /// Entries read out of the issue queue (issues).
    pub iq_reads: u64,
    /// Σ over cycles of resident issue-queue entries (occupancy integral).
    pub iq_occupancy_sum: u64,
    /// Σ over cycles of powered-on issue-queue banks.
    pub iq_banks_on_sum: u64,
    /// Total issue-queue banks (constant, for convenience).
    pub iq_total_banks: u64,
    /// Total issue-queue entries (constant, for convenience).
    pub iq_total_entries: u64,

    // --- register file -------------------------------------------------------
    /// Integer register-file read ports exercised.
    pub int_rf_reads: u64,
    /// Integer register-file writes.
    pub int_rf_writes: u64,
    /// FP register-file reads.
    pub fp_rf_reads: u64,
    /// FP register-file writes.
    pub fp_rf_writes: u64,
    /// Σ over cycles of allocated (live) integer physical registers.
    pub int_rf_occupancy_sum: u64,
    /// Σ over cycles of powered-on integer register-file banks.
    pub int_rf_banks_on_sum: u64,
    /// Σ over cycles of allocated FP physical registers.
    pub fp_rf_occupancy_sum: u64,
    /// Σ over cycles of powered-on FP register-file banks.
    pub fp_rf_banks_on_sum: u64,
    /// Total integer register-file banks (constant).
    pub int_rf_total_banks: u64,
    /// Total FP register-file banks (constant).
    pub fp_rf_total_banks: u64,

    // --- window --------------------------------------------------------------
    /// Σ over cycles of occupied reorder-buffer entries.
    pub rob_occupancy_sum: u64,
    /// Cycles dispatch was blocked because the ROB was full.
    pub rob_full_stall_cycles: u64,
    /// Cycles dispatch was blocked because no physical register was free.
    pub rename_stall_cycles: u64,

    // --- technique extensions ------------------------------------------------
    /// Committed instructions carrying the profiled low-energy encoding
    /// (the `lowen-isa` technique). Zero for every technique whose compiler
    /// pass does not run the low-energy re-encoding.
    ///
    /// Deliberately *not* part of the persist codecs' fixed counter block:
    /// it is serialised only for techniques whose registry spec declares
    /// `tracks_low_energy`, so the six paper techniques' saved bytes are
    /// unchanged by its existence.
    pub committed_low_energy: u64,
}

impl ActivityStats {
    /// Instructions per cycle over the committed instructions.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Average resident issue-queue entries per cycle.
    pub fn avg_iq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.iq_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Average powered-on issue-queue banks per cycle.
    pub fn avg_iq_banks_on(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.iq_banks_on_sum as f64 / self.cycles as f64
        }
    }

    /// Fraction of issue-queue banks turned off, averaged over cycles.
    pub fn iq_banks_off_fraction(&self) -> f64 {
        if self.iq_total_banks == 0 {
            0.0
        } else {
            1.0 - self.avg_iq_banks_on() / self.iq_total_banks as f64
        }
    }

    /// Average allocated integer physical registers per cycle.
    pub fn avg_int_rf_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.int_rf_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Average powered-on integer register-file banks per cycle.
    pub fn avg_int_rf_banks_on(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.int_rf_banks_on_sum as f64 / self.cycles as f64
        }
    }

    /// Branch direction misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicted_branches as f64 / self.branches as f64
        }
    }

    /// L1 D-cache miss rate.
    pub fn dcache_miss_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / self.dcache_accesses as f64
        }
    }

    /// Average ROB occupancy per cycle.
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rob_occupancy_sum as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios_handle_zero_cycles() {
        let s = ActivityStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_iq_occupancy(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.dcache_miss_rate(), 0.0);
        assert_eq!(s.iq_banks_off_fraction(), 0.0);
    }

    #[test]
    fn derived_ratios_compute_expected_values() {
        let s = ActivityStats {
            cycles: 100,
            committed: 250,
            iq_occupancy_sum: 4000,
            iq_banks_on_sum: 600,
            iq_total_banks: 10,
            branches: 50,
            mispredicted_branches: 5,
            dcache_accesses: 200,
            dcache_misses: 20,
            int_rf_occupancy_sum: 5000,
            int_rf_banks_on_sum: 900,
            rob_occupancy_sum: 6400,
            ..ActivityStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-9);
        assert!((s.avg_iq_occupancy() - 40.0).abs() < 1e-9);
        assert!((s.avg_iq_banks_on() - 6.0).abs() < 1e-9);
        assert!((s.iq_banks_off_fraction() - 0.4).abs() < 1e-9);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-9);
        assert!((s.dcache_miss_rate() - 0.1).abs() < 1e-9);
        assert!((s.avg_int_rf_occupancy() - 50.0).abs() < 1e-9);
        assert!((s.avg_int_rf_banks_on() - 9.0).abs() < 1e-9);
        assert!((s.avg_rob_occupancy() - 64.0).abs() < 1e-9);
    }
}
