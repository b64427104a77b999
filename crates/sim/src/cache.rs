//! Set-associative caches and the two-level hierarchy of Table 1.

use crate::config::{CacheConfig, SimConfig};

/// A single set-associative, write-allocate cache with LRU replacement.
///
/// Only tags are modelled — the simulator needs latencies and hit/miss
/// behaviour, not data contents (the functional executor owns the data).
///
/// Tag and recency state live in flat `sets × ways` arrays (no per-set
/// `Vec`s): one contiguous scan per access on the simulator's hot path. A
/// `last_use` of 0 marks an invalid way (the use counter starts at 1), so
/// the LRU victim search (`min(last_use)`) naturally fills invalid ways
/// first — identical replacement behaviour to a per-set list.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `(line_shift, set_mask, tag_shift)` when both the line size and the
    /// set count are powers of two (every Table 1 geometry is): index math
    /// becomes shift/mask instead of three hardware divisions per access.
    pow2: Option<(u32, u64, u32)>,
    /// `tags[set * ways + way]`.
    tags: Vec<u64>,
    /// `last_use[set * ways + way]`; 0 = invalid way.
    last_use: Vec<u64>,
    use_counter: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let pow2 = (config.line_bytes.is_power_of_two() && sets.is_power_of_two()).then(|| {
            (
                config.line_bytes.trailing_zeros(),
                sets as u64 - 1,
                sets.trailing_zeros(),
            )
        });
        Cache {
            config,
            sets,
            pow2,
            tags: vec![0; sets * config.ways],
            last_use: vec![0; sets * config.ways],
            use_counter: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        if let Some((line_shift, set_mask, tag_shift)) = self.pow2 {
            let line = addr >> line_shift;
            return ((line & set_mask) as usize, line >> tag_shift);
        }
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.sets as u64) as usize;
        let tag = line / self.sets as u64;
        (set, tag)
    }

    /// Accesses `addr`; returns `true` on hit. The line is installed on a
    /// miss (write-allocate for both loads and stores).
    pub fn access(&mut self, addr: u64) -> bool {
        self.use_counter += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.config.ways;
        let ways = &mut self.last_use[base..base + self.config.ways];
        let tags = &self.tags[base..base + self.config.ways];
        let mut victim = 0usize;
        let mut victim_use = u64::MAX;
        for (way, (&way_tag, way_use)) in tags.iter().zip(ways.iter_mut()).enumerate() {
            if *way_use != 0 && way_tag == tag {
                *way_use = self.use_counter;
                self.hits += 1;
                return true;
            }
            if *way_use < victim_use {
                victim_use = *way_use;
                victim = way;
            }
        }
        // Miss: fill the first invalid way, else evict the LRU way.
        self.misses += 1;
        self.tags[base + victim] = tag;
        self.last_use[base + victim] = self.use_counter;
        false
    }

    /// Hit latency of this cache.
    pub fn hit_latency(&self) -> u32 {
        self.config.hit_latency
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessResult {
    /// Total latency in cycles.
    pub latency: u32,
    /// `true` if the access missed in the first-level cache.
    pub l1_miss: bool,
    /// `true` if the access also missed in the L2.
    pub l2_miss: bool,
}

/// The D-cache / unified-L2 hierarchy, plus the I-cache's refill path.
///
/// The L1 I-cache's hit/miss sequence is a pure function of the fetch
/// stream, so the execution plan ([`crate::plan`]) resolves it once at
/// build time; only its hit latency lives here, for the refills that miss
/// it. The L2 is shared between the instruction and data paths, so its
/// state depends on the run-time interleave and is simulated here.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1i_hit_latency: u32,
    l1d: Cache,
    l2: Cache,
    memory_latency: u32,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config`.
    pub fn new(config: &SimConfig) -> Self {
        CacheHierarchy {
            l1i_hit_latency: config.l1i.hit_latency,
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            memory_latency: config.memory_latency,
        }
    }

    fn access_backed(&mut self, first_hit: bool, first_latency: u32, addr: u64) -> MemAccessResult {
        if first_hit {
            return MemAccessResult {
                latency: first_latency,
                l1_miss: false,
                l2_miss: false,
            };
        }
        let l2_hit = self.l2.access(addr);
        if l2_hit {
            MemAccessResult {
                latency: first_latency + self.l2.hit_latency(),
                l1_miss: true,
                l2_miss: false,
            }
        } else {
            MemAccessResult {
                latency: first_latency + self.l2.hit_latency() + self.memory_latency,
                l1_miss: true,
                l2_miss: true,
            }
        }
    }

    /// Data access (load or store).
    pub fn access_data(&mut self, addr: u64) -> MemAccessResult {
        let hit = self.l1d.access(addr);
        let lat = self.l1d.hit_latency();
        self.access_backed(hit, lat, addr)
    }

    /// Completes an instruction fetch whose L1i outcome was precomputed as
    /// a *miss*: performs the shared-L2 access and charges the L1i hit
    /// latency plus the L2 (and, on an L2 miss, memory) latency.
    pub fn refill_instruction_after_l1i_miss(&mut self, addr: u64) -> MemAccessResult {
        self.access_backed(false, self.l1i_hit_latency, addr)
    }

    /// D-cache statistics: (accesses, misses).
    pub fn dcache_stats(&self) -> (u64, u64) {
        (self.l1d.hits() + self.l1d.misses(), self.l1d.misses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize, sets_times_line: usize) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: sets_times_line * ways,
            ways,
            line_bytes: 32,
            hit_latency: 2,
        })
    }

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let mut c = small_cache(2, 128);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004), "same line");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        // Direct the accesses at a single set of a 2-way cache.
        let mut c = small_cache(2, 64); // 2 sets of 32B lines
        let sets = c.sets as u64;
        let line = 32u64;
        let a = 0;
        let b = a + sets * line;
        let d = b + sets * line;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is now MRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn hierarchy_latencies_accumulate() {
        let config = SimConfig::hpca2005();
        let mut h = CacheHierarchy::new(&config);
        // Cold access: L1 miss, L2 miss → 2 + 10 + 50.
        let first = h.access_data(0x8000);
        assert!(first.l1_miss && first.l2_miss);
        assert_eq!(first.latency, 2 + 10 + 50);
        // Second access: L1 hit → 2.
        let second = h.access_data(0x8000);
        assert!(!second.l1_miss);
        assert_eq!(second.latency, 2);
    }

    #[test]
    fn l1_miss_l2_hit_costs_l1_plus_l2() {
        let config = SimConfig::small_for_tests();
        let mut h = CacheHierarchy::new(&config);
        // Fill L2 with the line via a first access, then evict it from L1 by
        // touching many distinct lines, then access again: L1 miss, L2 hit.
        let target = 0x40_0000u64;
        let _ = h.access_data(target);
        for i in 0..1024u64 {
            let _ = h.access_data(0x10_0000 + i * 32);
        }
        let again = h.access_data(target);
        if again.l1_miss && !again.l2_miss {
            assert_eq!(again.latency, 2 + 10);
        }
        let (acc, miss) = h.dcache_stats();
        assert!(acc >= 1026);
        assert!(miss >= 2);
    }

    #[test]
    fn instruction_and_data_paths_are_separate() {
        let config = SimConfig::hpca2005();
        let mut h = CacheHierarchy::new(&config);
        // A cold instruction refill misses the L2 and never touches the
        // D-cache.
        let refill = h.refill_instruction_after_l1i_miss(0x400000);
        assert!(refill.l1_miss && refill.l2_miss);
        assert_eq!(refill.latency, 1 + 10 + 50);
        assert_eq!(h.dcache_stats(), (0, 0));
        // The L2 is shared: a data access to the same line misses the
        // separate L1d but hits the line the refill brought into the L2.
        let data = h.access_data(0x400000);
        assert!(data.l1_miss && !data.l2_miss);
        assert_eq!(h.dcache_stats(), (1, 1));
    }
}
