//! Register renaming and the banked physical register files.
//!
//! Table 1: 112 integer and 112 FP physical registers, organised as 14 banks
//! of 8. Architectural registers are renamed onto physical registers at
//! dispatch; the previous mapping is released when the renaming instruction
//! commits. Allocation always picks the lowest-numbered free register so
//! that live registers cluster into the low banks, which is what lets unused
//! banks be switched off (§1, §5.2.3).
//!
//! Registers are plain indices within their class's file: the caller (the
//! cycle loop of [`crate::plan`]) tracks which file a register belongs to.
//!
//! Hot-path note: the free list is a bitset scanned with `trailing_zeros`
//! (lowest-free in O(words)), and occupancy / powered-bank counts are
//! maintained incrementally so the per-cycle statistics collection is O(1)
//! instead of O(registers). The original scans are retained as `naive_*`
//! methods under `cfg(test)` for differential testing.

use crate::config::RegFileConfig;
use sdiq_isa::NUM_ARCH_INT_REGS;

/// State bit: the physical register is allocated (live).
const ALLOCATED: u8 = 1 << 0;
/// State bit: the register is the current mapping of some architectural
/// register (O(1) stand-in for `rename_map.contains`).
const MAPPED: u8 = 1 << 1;
/// State bit: the register's value has been produced.
const READY: u8 = 1 << 2;

/// Rename table + free list + physical register state for one class.
#[derive(Debug, Clone)]
pub struct RenamedRegFile {
    config: RegFileConfig,
    rename_map: Vec<usize>,
    /// Bitset of free physical registers (bit set = free).
    free_words: Vec<u64>,
    free_count: usize,
    /// [`ALLOCATED`], [`MAPPED`] and [`READY`] bits per physical register.
    state: Vec<u8>,
    /// Allocated (live) register count, maintained incrementally.
    live_count: usize,
    /// Live registers per bank, and the number of banks with at least one.
    bank_occupancy: Vec<u32>,
    banks_nonempty: usize,
    /// Bank of each physical register (`index / bank_size`), so renaming
    /// and release do not divide by a bank size known only at run time.
    bank_of: Vec<u32>,
}

impl RenamedRegFile {
    /// Creates a register file; architectural register `i` is initially
    /// mapped to physical register `i` (ready), the rest are free.
    ///
    /// # Panics
    ///
    /// Panics if the file has fewer physical registers than architectural
    /// registers.
    pub fn new(config: RegFileConfig) -> Self {
        let arch_count = NUM_ARCH_INT_REGS as usize;
        assert!(
            config.regs_per_class >= arch_count,
            "physical register file must cover the architectural registers"
        );
        let regs = config.regs_per_class;
        let mut free_words = vec![0u64; regs.div_ceil(64)];
        for i in 0..regs {
            free_words[i / 64] |= 1u64 << (i % 64);
        }
        let mut state = vec![0; regs];
        state[..arch_count].fill(ALLOCATED | MAPPED | READY);
        let mut file = RenamedRegFile {
            config,
            rename_map: (0..arch_count).collect(),
            free_words,
            free_count: regs,
            state,
            live_count: 0,
            bank_occupancy: vec![0; config.banks()],
            banks_nonempty: 0,
            bank_of: (0..regs)
                .map(|reg| (reg / config.bank_size) as u32)
                .collect(),
        };
        for reg in 0..arch_count {
            file.mark_allocated(reg);
        }
        file
    }

    /// `true` if a physical register can be allocated right now.
    pub fn has_free(&self) -> bool {
        self.free_count > 0
    }

    /// Lowest free physical register index, if any.
    fn lowest_free(&self) -> Option<usize> {
        for (word_index, &word) in self.free_words.iter().enumerate() {
            if word != 0 {
                return Some(word_index * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    fn mark_allocated(&mut self, index: usize) {
        self.free_words[index / 64] &= !(1u64 << (index % 64));
        self.free_count -= 1;
        self.live_count += 1;
        let bank = self.bank_of[index] as usize;
        self.banks_nonempty += usize::from(self.bank_occupancy[bank] == 0);
        self.bank_occupancy[bank] += 1;
    }

    fn mark_free(&mut self, index: usize) {
        self.free_words[index / 64] |= 1u64 << (index % 64);
        self.free_count += 1;
        self.live_count -= 1;
        let bank = self.bank_of[index] as usize;
        self.bank_occupancy[bank] -= 1;
        self.banks_nonempty -= usize::from(self.bank_occupancy[bank] == 0);
    }

    /// Allocates the lowest free physical register for a write to
    /// architectural register `arch_index`, returning `(new, previous)`
    /// physical indices; the previous mapping is released when the
    /// instruction commits. Returns `None` when the free list is empty.
    #[inline]
    pub fn allocate_dest_index(&mut self, arch_index: usize) -> Option<(usize, usize)> {
        let new_index = self.lowest_free()?;
        self.mark_allocated(new_index);
        let old_index = self.rename_map[arch_index];
        self.rename_map[arch_index] = new_index;
        self.state[old_index] &= !MAPPED;
        self.state[new_index] = ALLOCATED | MAPPED;
        Some((new_index, old_index))
    }

    /// Current mapping of architectural source register `arch_index`.
    #[inline]
    pub fn rename_source_index(&self, arch_index: usize) -> usize {
        self.rename_map[arch_index]
    }

    /// `true` once the value of physical register `index` has been
    /// produced.
    #[inline]
    pub fn is_ready_index(&self, index: usize) -> bool {
        self.state[index] & READY != 0
    }

    /// Marks physical register `index`'s value as produced (writeback).
    /// Port activity is not counted here: the execution plan bakes the
    /// read and write totals.
    #[inline]
    pub fn write_value_index(&mut self, index: usize) {
        self.state[index] |= READY;
    }

    /// Releases physical register `index` (the *previous* mapping of a
    /// committed instruction's destination). A register that is currently
    /// mapped is never released.
    #[inline]
    pub fn release_index(&mut self, index: usize) {
        if self.state[index] & MAPPED != 0 {
            return;
        }
        if self.state[index] & ALLOCATED != 0 {
            self.state[index] = 0;
            self.mark_free(index);
        }
    }

    /// Number of currently allocated (live) physical registers. O(1).
    pub fn occupancy(&self) -> usize {
        self.live_count
    }

    /// Number of banks holding at least one allocated register. O(1).
    pub fn banks_on(&self) -> usize {
        self.banks_nonempty
    }

    /// Total banks in the file.
    pub fn total_banks(&self) -> usize {
        self.config.banks()
    }
}

/// O(registers) reference implementations of the incrementally maintained
/// counters, for differential testing.
#[cfg(test)]
impl RenamedRegFile {
    /// Reference recomputation of [`RenamedRegFile::occupancy`].
    pub fn naive_occupancy(&self) -> usize {
        self.state.iter().filter(|&&s| s & ALLOCATED != 0).count()
    }

    /// Reference recomputation of [`RenamedRegFile::banks_on`].
    pub fn naive_banks_on(&self) -> usize {
        let bank_size = self.config.bank_size;
        let banks = self.config.banks();
        (0..banks)
            .filter(|b| {
                let lo = b * bank_size;
                let hi = ((b + 1) * bank_size).min(self.config.regs_per_class);
                self.state[lo..hi].iter().any(|&s| s & ALLOCATED != 0)
            })
            .count()
    }

    /// Asserts every incremental counter equals its naive recomputation.
    pub fn assert_consistent(&self) {
        assert_eq!(self.occupancy(), self.naive_occupancy(), "occupancy");
        assert_eq!(self.banks_on(), self.naive_banks_on(), "banks_on");
        let free_bits: usize = self
            .free_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        assert_eq!(self.free_count, free_bits, "free_count");
        assert_eq!(
            self.free_count + self.live_count,
            self.config.regs_per_class,
            "free/live partition"
        );
        for (index, &state) in self.state.iter().enumerate() {
            assert_eq!(
                state & MAPPED != 0,
                self.rename_map.contains(&index),
                "mapped[{index}]"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_file() -> RenamedRegFile {
        RenamedRegFile::new(RegFileConfig {
            regs_per_class: 112,
            bank_size: 8,
        })
    }

    #[test]
    fn initial_state_maps_arch_to_identity() {
        let rf = int_file();
        for i in 0..32 {
            let p = rf.rename_source_index(i);
            assert_eq!(p, i);
            assert!(rf.is_ready_index(p));
        }
        assert_eq!(rf.occupancy(), 32);
        // 32 live registers in banks of 8 → 4 banks on out of 14.
        assert_eq!(rf.banks_on(), 4);
        assert_eq!(rf.total_banks(), 14);
        rf.assert_consistent();
    }

    #[test]
    fn allocation_renames_and_marks_not_ready() {
        let mut rf = int_file();
        let (new, old) = rf.allocate_dest_index(5).unwrap();
        assert_eq!(old, 5);
        assert_eq!(new, 32, "lowest free register is picked");
        assert!(!rf.is_ready_index(new));
        assert_eq!(rf.rename_source_index(5), new);
        rf.write_value_index(new);
        assert!(rf.is_ready_index(new));
        rf.assert_consistent();
    }

    #[test]
    fn release_returns_register_to_free_list() {
        let mut rf = int_file();
        let before = rf.occupancy();
        let (_, old) = rf.allocate_dest_index(3).unwrap();
        assert_eq!(rf.occupancy(), before + 1);
        rf.release_index(old);
        assert_eq!(rf.occupancy(), before);
        // The released register (index 3) is reused before higher indices.
        let (new, _) = rf.allocate_dest_index(4).unwrap();
        assert_eq!(new, 3);
        rf.assert_consistent();
    }

    #[test]
    fn release_of_still_mapped_register_is_ignored() {
        let mut rf = int_file();
        let mapped = rf.rename_source_index(7);
        rf.release_index(mapped);
        // Still allocated because it is the live mapping of r7.
        assert_eq!(rf.occupancy(), 32);
        assert_eq!(rf.rename_source_index(7), mapped);
        rf.assert_consistent();
    }

    #[test]
    fn exhaustion_returns_none_and_recovers() {
        let mut rf = int_file();
        let mut olds = Vec::new();
        // 112 - 32 = 80 free registers.
        for k in 0..80 {
            let (_, old) = rf.allocate_dest_index(k % 32).expect("still free");
            olds.push(old);
        }
        assert!(!rf.has_free());
        assert!(rf.allocate_dest_index(0).is_none());
        rf.assert_consistent();
        // Committing the instructions releases their previous mappings and
        // replenishes the free list (still-mapped registers are skipped by
        // the guard in `release_index`).
        for old in olds {
            rf.release_index(old);
        }
        assert!(rf.has_free());
        assert!(rf.allocate_dest_index(0).is_some());
        rf.assert_consistent();
    }

    #[test]
    fn banks_grow_with_occupancy() {
        let mut rf = int_file();
        let initial = rf.banks_on();
        for k in 0..9 {
            rf.allocate_dest_index(k).unwrap();
        }
        assert!(rf.banks_on() > initial);
        rf.assert_consistent();
    }
}

/// Differential property tests: random allocate / write / release sequences
/// asserting the incremental free-list / occupancy / bank state always
/// equals the naive recomputation.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Step {
        /// Allocate a destination for architectural register `a % 32`.
        Allocate(usize),
        /// Release the k-th outstanding previous-mapping.
        ReleaseNth(usize),
        /// Write back the k-th live register.
        WriteNth(usize),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..32usize).prop_map(Step::Allocate),
            (0usize..128usize).prop_map(Step::ReleaseNth),
            (0usize..128usize).prop_map(Step::WriteNth),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_state_equals_naive_recomputation(
            steps in prop::collection::vec(arb_step(), 1..200),
            // Any bank size: banks come from a table, the naive count
            // divides.
            bank_size in 1usize..50,
        ) {
            let mut rf = RenamedRegFile::new(RegFileConfig {
                regs_per_class: 48,
                bank_size,
            });
            let mut outstanding: Vec<usize> = Vec::new();
            let mut live: Vec<usize> = Vec::new();
            for step in &steps {
                match step {
                    Step::Allocate(a) => {
                        if let Some((new, old)) = rf.allocate_dest_index(*a % 32) {
                            outstanding.push(old);
                            live.push(new);
                        } else {
                            prop_assert!(!rf.has_free());
                        }
                    }
                    Step::ReleaseNth(k) => {
                        if outstanding.is_empty() {
                            continue;
                        }
                        let reg = outstanding.swap_remove(k % outstanding.len());
                        rf.release_index(reg);
                    }
                    Step::WriteNth(k) => {
                        if live.is_empty() {
                            continue;
                        }
                        let reg = live[k % live.len()];
                        rf.write_value_index(reg);
                        prop_assert!(rf.is_ready_index(reg));
                    }
                }
                rf.assert_consistent();
            }
        }
    }
}
