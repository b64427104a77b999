//! Simulator configuration (Table 1 of the paper).

use sdiq_isa::{FuCounts, MachineWidths};
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Branch predictor configuration (Table 1: hybrid 2K gshare, 2K bimodal,
/// 1K selector; 2048-entry 4-way BTB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchPredictorConfig {
    /// Entries in the gshare pattern history table.
    pub gshare_entries: usize,
    /// Entries in the bimodal table.
    pub bimodal_entries: usize,
    /// Entries in the meta/selector table.
    pub selector_entries: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Extra redirect penalty (on top of front-end refill) charged when a
    /// branch resolves as mispredicted.
    pub mispredict_redirect_penalty: u32,
}

/// Issue-queue geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IssueQueueConfig {
    /// Total entries (80 in Table 1).
    pub entries: usize,
    /// Entries per bank (the multi-banked queue of §3.1; 8 per bank as in
    /// the Buyuktosunoglu-style design the paper assumes).
    pub bank_size: usize,
}

impl IssueQueueConfig {
    /// Number of banks (the single source of truth for the bank totals the
    /// statistics and the power model use).
    pub fn banks(&self) -> usize {
        self.entries.div_ceil(self.bank_size)
    }
}

/// Register-file geometry (112 integer + 112 FP registers, 14 banks of 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegFileConfig {
    /// Physical registers per class.
    pub regs_per_class: usize,
    /// Registers per bank.
    pub bank_size: usize,
}

impl RegFileConfig {
    /// Number of banks per class.
    pub fn banks(&self) -> usize {
        self.regs_per_class.div_ceil(self.bank_size)
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimConfig {
    /// Pipeline widths and window capacities.
    pub widths: MachineWidths,
    /// Functional-unit pools.
    pub fu_counts: FuCounts,
    /// Number of decode stages between fetch and dispatch (instructions spend
    /// "several cycles being decoded" in the fetch queue, §3.2).
    pub decode_stages: u32,
    /// Fetch-queue capacity in instructions.
    pub fetch_queue_entries: usize,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (L2 miss).
    pub memory_latency: u32,
    /// Branch predictor.
    pub branch: BranchPredictorConfig,
    /// Issue queue geometry.
    pub iq: IssueQueueConfig,
    /// Integer register file geometry.
    pub int_rf: RegFileConfig,
    /// FP register file geometry.
    pub fp_rf: RegFileConfig,
}

/// The front end of a machine: the only part of a [`SimConfig`] that
/// lowering reads. Two machines with equal front ends commit the same
/// stream for the same program and instruction cap, whatever their back
/// ends (queues, register files, caches behind fetch, widths), so a plan
/// lowered on one is re-marked onto the other
/// ([`crate::ExecPlan::remark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrontEnd {
    /// Branch predictor and BTB.
    pub branch: BranchPredictorConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
}

impl SimConfig {
    /// This machine's front end.
    pub fn front_end(&self) -> FrontEnd {
        FrontEnd {
            branch: self.branch,
            l1i: self.l1i,
        }
    }

    /// The processor configuration of Table 1.
    pub fn hpca2005() -> Self {
        SimConfig {
            widths: MachineWidths::hpca2005(),
            fu_counts: FuCounts::hpca2005(),
            decode_stages: 3,
            fetch_queue_entries: 32,
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 32,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 64,
                hit_latency: 10,
            },
            memory_latency: 50,
            branch: BranchPredictorConfig {
                gshare_entries: 2048,
                bimodal_entries: 2048,
                selector_entries: 1024,
                btb_entries: 2048,
                btb_ways: 4,
                mispredict_redirect_penalty: 2,
            },
            iq: IssueQueueConfig {
                entries: 80,
                bank_size: 8,
            },
            int_rf: RegFileConfig {
                regs_per_class: 112,
                bank_size: 8,
            },
            fp_rf: RegFileConfig {
                regs_per_class: 112,
                bank_size: 8,
            },
        }
    }

    /// A scaled-down configuration useful for fast unit tests (narrower
    /// machine, small caches). Not used by the experiments.
    pub fn small_for_tests() -> Self {
        SimConfig {
            widths: MachineWidths {
                pipeline_width: 4,
                iq_capacity: 16,
                rob_capacity: 32,
            },
            fu_counts: FuCounts {
                int_alu: 2,
                int_mul: 1,
                fp_alu: 1,
                fp_mul_div: 1,
                mem_ports: 1,
            },
            decode_stages: 2,
            fetch_queue_entries: 8,
            l1i: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 2,
                line_bytes: 32,
                hit_latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 2,
                line_bytes: 32,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                line_bytes: 64,
                hit_latency: 10,
            },
            memory_latency: 50,
            branch: BranchPredictorConfig {
                gshare_entries: 256,
                bimodal_entries: 256,
                selector_entries: 128,
                btb_entries: 128,
                btb_ways: 2,
                mispredict_redirect_penalty: 2,
            },
            iq: IssueQueueConfig {
                entries: 16,
                bank_size: 4,
            },
            int_rf: RegFileConfig {
                regs_per_class: 48,
                bank_size: 8,
            },
            fp_rf: RegFileConfig {
                regs_per_class: 48,
                bank_size: 8,
            },
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::hpca2005()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_configuration_matches_the_paper() {
        let c = SimConfig::hpca2005();
        assert_eq!(c.widths.pipeline_width, 8);
        assert_eq!(c.widths.rob_capacity, 128);
        assert_eq!(c.widths.iq_capacity, 80);
        assert_eq!(c.iq.entries, 80);
        assert_eq!(c.iq.banks(), 10);
        assert_eq!(c.int_rf.regs_per_class, 112);
        assert_eq!(c.int_rf.banks(), 14);
        assert_eq!(c.fp_rf.banks(), 14);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.l1i.ways, 2);
        assert_eq!(c.l1d.ways, 4);
        assert_eq!(c.l1d.hit_latency, 2);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.hit_latency, 10);
        assert_eq!(c.memory_latency, 50);
        assert_eq!(c.branch.gshare_entries, 2048);
        assert_eq!(c.branch.bimodal_entries, 2048);
        assert_eq!(c.branch.selector_entries, 1024);
        assert_eq!(c.branch.btb_entries, 2048);
        assert_eq!(c.branch.btb_ways, 4);
        assert_eq!(c.fu_counts.int_alu, 6);
        assert_eq!(c.fu_counts.int_mul, 3);
        assert_eq!(c.fu_counts.fp_alu, 4);
        assert_eq!(c.fu_counts.fp_mul_div, 2);
    }

    #[test]
    fn cache_geometry_is_consistent() {
        let c = SimConfig::hpca2005();
        assert_eq!(c.l1i.sets(), 64 * 1024 / 32 / 2);
        assert_eq!(c.l1d.sets(), 64 * 1024 / 32 / 4);
        assert_eq!(c.l2.sets(), 512 * 1024 / 64 / 8);
    }

    #[test]
    fn small_test_config_is_self_consistent() {
        let c = SimConfig::small_for_tests();
        assert_eq!(c.iq.entries % c.iq.bank_size, 0);
        assert!(c.widths.iq_capacity <= c.widths.rob_capacity);
        assert_eq!(c.iq.entries, c.widths.iq_capacity);
    }
}
