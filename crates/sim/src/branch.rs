//! Hybrid branch predictor and branch target buffer (Table 1).
//!
//! Direction prediction: 2K-entry gshare and 2K-entry bimodal tables of
//! 2-bit saturating counters, arbitrated by a 1K-entry selector (also 2-bit
//! counters) indexed by the branch PC. Targets come from a 2048-entry 4-way
//! BTB.

use crate::config::BranchPredictorConfig;

/// 2-bit saturating counter helpers.
fn counter_taken(c: u8) -> bool {
    c >= 2
}

fn counter_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

/// Outcome of a direction prediction (kept so the update can train the
/// selector towards whichever component was right).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionPrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// What the gshare component said.
    pub gshare_taken: bool,
    /// What the bimodal component said.
    pub bimodal_taken: bool,
    /// `true` if the selector chose the gshare component.
    pub chose_gshare: bool,
}

/// The hybrid direction predictor + BTB.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    selector: Vec<u8>,
    history: u64,
    /// `btb[set]` holds (tag, target) pairs, at most `btb_ways` long, in LRU
    /// order (most recent last).
    btb: Vec<Vec<(u64, u64)>>,
    lookups: u64,
    direction_mispredicts: u64,
    btb_misses: u64,
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken.
    pub fn new(config: BranchPredictorConfig) -> Self {
        let btb_sets = (config.btb_entries / config.btb_ways).max(1);
        BranchPredictor {
            config,
            gshare: vec![1; config.gshare_entries.max(1)],
            bimodal: vec![1; config.bimodal_entries.max(1)],
            selector: vec![1; config.selector_entries.max(1)],
            history: 0,
            btb: vec![Vec::new(); btb_sets],
            lookups: 0,
            direction_mispredicts: 0,
            btb_misses: 0,
        }
    }

    fn gshare_index(&self, addr: u64) -> usize {
        let n = self.gshare.len() as u64;
        (((addr >> 2) ^ self.history) % n) as usize
    }

    fn bimodal_index(&self, addr: u64) -> usize {
        ((addr >> 2) % self.bimodal.len() as u64) as usize
    }

    fn selector_index(&self, addr: u64) -> usize {
        ((addr >> 2) % self.selector.len() as u64) as usize
    }

    /// Predicts the direction of the conditional branch at `addr`.
    pub fn predict_direction(&mut self, addr: u64) -> DirectionPrediction {
        self.lookups += 1;
        let gshare_taken = counter_taken(self.gshare[self.gshare_index(addr)]);
        let bimodal_taken = counter_taken(self.bimodal[self.bimodal_index(addr)]);
        let chose_gshare = counter_taken(self.selector[self.selector_index(addr)]);
        let taken = if chose_gshare {
            gshare_taken
        } else {
            bimodal_taken
        };
        DirectionPrediction {
            taken,
            gshare_taken,
            bimodal_taken,
            chose_gshare,
        }
    }

    /// Updates the direction predictor with the actual outcome.
    pub fn update_direction(&mut self, addr: u64, prediction: DirectionPrediction, taken: bool) {
        if prediction.taken != taken {
            self.direction_mispredicts += 1;
        }
        let gi = self.gshare_index(addr);
        self.gshare[gi] = counter_update(self.gshare[gi], taken);
        let bi = self.bimodal_index(addr);
        self.bimodal[bi] = counter_update(self.bimodal[bi], taken);
        // Train the selector towards whichever component was correct (when
        // they disagree).
        if prediction.gshare_taken != prediction.bimodal_taken {
            let si = self.selector_index(addr);
            let gshare_right = prediction.gshare_taken == taken;
            self.selector[si] = counter_update(self.selector[si], gshare_right);
        }
        // Global history update.
        self.history = ((self.history << 1) | u64::from(taken)) & 0xffff;
    }

    fn btb_set_and_tag(&self, addr: u64) -> (usize, u64) {
        let sets = self.btb.len() as u64;
        let idx = addr >> 2;
        ((idx % sets) as usize, idx / sets)
    }

    /// Looks the target of the control transfer at `addr` up in the BTB.
    pub fn predict_target(&mut self, addr: u64) -> Option<u64> {
        let (set, tag) = self.btb_set_and_tag(addr);
        let entries = &mut self.btb[set];
        if let Some(pos) = entries.iter().position(|(t, _)| *t == tag) {
            let entry = entries.remove(pos);
            let target = entry.1;
            entries.push(entry);
            Some(target)
        } else {
            self.btb_misses += 1;
            None
        }
    }

    /// Installs / refreshes the target of the control transfer at `addr`.
    pub fn update_target(&mut self, addr: u64, target: u64) {
        let ways = self.config.btb_ways;
        let (set, tag) = self.btb_set_and_tag(addr);
        let entries = &mut self.btb[set];
        if let Some(pos) = entries.iter().position(|(t, _)| *t == tag) {
            entries.remove(pos);
        } else if entries.len() >= ways {
            entries.remove(0);
        }
        entries.push((tag, target));
    }

    /// (lookups, direction mispredictions, BTB misses).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.lookups, self.direction_mispredicts, self.btb_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(SimConfig::hpca2005().branch)
    }

    #[test]
    fn always_taken_branch_is_learned() {
        let mut p = predictor();
        let addr = 0x40_0010;
        let mut wrong = 0;
        for _ in 0..100 {
            let pred = p.predict_direction(addr);
            if !pred.taken {
                wrong += 1;
            }
            p.update_direction(addr, pred, true);
        }
        // After warm-up the branch is always predicted taken.
        assert!(
            wrong <= 3,
            "only the first few predictions may be wrong, got {wrong}"
        );
    }

    #[test]
    fn alternating_branch_is_learned_by_gshare() {
        let mut p = predictor();
        let addr = 0x40_0020;
        let mut wrong_late = 0;
        for i in 0..400u32 {
            let taken = i % 2 == 0;
            let pred = p.predict_direction(addr);
            if i >= 100 && pred.taken != taken {
                wrong_late += 1;
            }
            p.update_direction(addr, pred, taken);
        }
        // gshare captures the alternating pattern through global history; the
        // hybrid should converge to (near) zero mispredictions.
        assert!(wrong_late <= 10, "got {wrong_late} late mispredictions");
    }

    #[test]
    fn loop_exit_pattern_has_low_miss_rate() {
        let mut p = predictor();
        let addr = 0x40_0040;
        let mut wrong = 0u32;
        let mut total = 0u32;
        for _trip in 0..50 {
            for i in 0..10u32 {
                let taken = i != 9; // loop back 9 times, fall out once
                let pred = p.predict_direction(addr);
                if pred.taken != taken {
                    wrong += 1;
                }
                p.update_direction(addr, pred, taken);
                total += 1;
            }
        }
        let rate = f64::from(wrong) / f64::from(total);
        assert!(rate < 0.25, "loop branch mispredict rate {rate}");
    }

    #[test]
    fn btb_remembers_targets_and_tracks_misses() {
        let mut p = predictor();
        assert_eq!(p.predict_target(0x40_0100), None);
        p.update_target(0x40_0100, 0x40_2000);
        assert_eq!(p.predict_target(0x40_0100), Some(0x40_2000));
        let (_, _, misses) = p.stats();
        assert_eq!(misses, 1);
    }

    #[test]
    fn btb_evicts_lru_within_a_set() {
        let config = BranchPredictorConfig {
            btb_entries: 4,
            btb_ways: 2,
            ..SimConfig::hpca2005().branch
        };
        let mut p = BranchPredictor::new(config);
        // Two sets; addresses mapping to set 0: (addr>>2) % 2 == 0.
        let a = 0x1000; // idx 0x400, set 0
        let b = 0x1008; // idx 0x402, set 0
        let c = 0x1010; // idx 0x404, set 0
        p.update_target(a, 1);
        p.update_target(b, 2);
        assert_eq!(p.predict_target(a), Some(1)); // a becomes MRU
        p.update_target(c, 3); // evicts b
        assert_eq!(p.predict_target(a), Some(1));
        assert_eq!(p.predict_target(b), None);
    }

    #[test]
    fn mispredict_counter_matches_manual_count() {
        let mut p = predictor();
        let addr = 0x40_0400;
        let outcomes = [true, true, false, true, false, false, true];
        let mut manual = 0;
        for &taken in &outcomes {
            let pred = p.predict_direction(addr);
            if pred.taken != taken {
                manual += 1;
            }
            p.update_direction(addr, pred, taken);
        }
        let (lookups, mispredicts, _) = p.stats();
        assert_eq!(lookups, outcomes.len() as u64);
        assert_eq!(mispredicts, manual);
    }
}
