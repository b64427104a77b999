//! The banked, non-collapsible issue queue with the paper's `new_head`
//! pointer and `max_new_range` dispatch limiting (§3.1).
//!
//! The queue is a circular buffer of `capacity` slots split into banks.
//! Instructions are dispatched at `tail` in program order and issue out of
//! order, leaving holes (the queue is non-collapsible, as in Folegnani &
//! González and Buyuktosunoglu et al. — compaction would cost significant
//! energy every cycle). `head` tracks the oldest resident instruction.
//!
//! The paper adds a second pointer, `new_head`, which marks the start of the
//! *current program region*. When the compiler's hint (special NOOP or tag)
//! is processed at dispatch, `new_head` is set to `tail` and `max_new_range`
//! to the advertised number of entries: dispatch then stalls whenever the
//! region between `new_head` and `tail` already holds `max_new_range`
//! instructions. When the instruction `new_head` points at issues, the
//! pointer advances towards `tail` until it finds a non-empty slot (or
//! becomes `tail`), exactly as Figure 2 describes.
//!
//! Wakeup gating follows Folegnani & González: empty entries and already-
//! ready operands are not woken. A broadcast reports the comparisons of the
//! non-empty scheme (two per resident) and of the gated scheme (one per
//! waiting operand); the full-queue scheme's two per slot is a static total
//! the plan bakes. Together they are the three schemes Figure 8 compares.
//!
//! # Layout: O(actual work) per event
//!
//! * **Struct-of-arrays slots.** Ids and operand state live in parallel
//!   flat arrays; occupancy is a bitmask, so the head-advance walk of
//!   `remove` is a word-wise next-set-bit scan.
//! * **Consumer lists.** Each dense physical register heads an intrusive
//!   list of the operands waiting on it, linked by packed
//!   `slot << 1 | operand`; a broadcast empties exactly its register's
//!   list, and the incremental `waiting_total` is its gated-comparison
//!   count. Operand readiness is a two-bit mask per slot, zero when the
//!   entry is ready; only ready entries are removed, so nothing unlinks.
//! * **Incremental counts.** Per-bank resident counts, updated without a
//!   branch, make `banks_on` O(1), and the current-region resident count
//!   makes `can_dispatch` O(1): two compares against limits precomputed
//!   when a hint or the adaptive controller sets them.
//! * **Pay-for-what-the-policy-observes.** Age ranks come straight off the
//!   occupancy bitmask (a popcount over `[head, slot)`), and `head` — their
//!   only consumer — is only maintained when `track_age` is set, because
//!   only the adaptive policy reads ranks. Region accounting
//!   (`new_head` / `region_count`) only becomes observable once a hint has
//!   set `max_new_range`, so it is maintained only from the first
//!   [`PlanQueue::apply_hint`] on (the hint resets the window, which is
//!   what makes the late start exact, not approximate).
//!
//! `issue_queue.rs` holds a test-only reference model that recomputes every
//! one of these quantities by scanning all slots; its unit and property
//! tests drive both through the same sequences.

/// End of a consumer list.
const NIL: u32 = u32::MAX;

/// The issue queue. See the module docs.
#[derive(Debug)]
pub(crate) struct PlanQueue {
    capacity: usize,
    /// Bank of each slot (`slot / bank_size`), so dispatch and issue do
    /// not divide by a bank size known only at run time.
    bank_of: Vec<u32>,
    /// Slot occupancy bitmask: slot `s` is resident iff
    /// `occ[s / 64] >> (s % 64) & 1 == 1`.
    occ: Vec<u64>,
    /// In-flight id per slot.
    ids: Vec<u64>,
    /// Bits 0/1: operand still waiting for its value. Zero = entry ready.
    wait_bits: Vec<u8>,
    head: usize,
    tail: usize,
    new_head: usize,
    count: usize,
    /// Software region limit; `None` until the first hint (region state is
    /// not maintained before then — the hint resets it).
    max_new_range: Option<usize>,
    /// Hardware resident limit (adaptive policy); `None` = full capacity.
    hard_limit: Option<usize>,
    /// What [`PlanQueue::can_dispatch`] compares against: the resident
    /// limit (the hardware limit, or the capacity) and the region limit
    /// (`max_new_range`, or no limit before the first hint).
    resident_limit: usize,
    region_limit: usize,
    bank_occupancy: Vec<u32>,
    banks_nonempty: usize,
    /// Filled slots in the circular window `[new_head, tail)`.
    region_count: usize,
    /// Waiting (not-yet-ready) operands across all residents — the gated
    /// wakeup-comparison count of one broadcast.
    waiting_total: u64,
    /// Consumer lists, [`NIL`]-terminated: the first packed waiting
    /// operand per dense register, and the next one per packed operand.
    first_waiting: Vec<u32>,
    next_waiting: Vec<u32>,
    /// Maintain `head` (the oldest resident) so [`PlanQueue::age_rank`]
    /// can answer; only the adaptive policy observes it.
    track_age: bool,
}

impl PlanQueue {
    /// Creates an empty queue. `dense_regs` is the size of the dense
    /// physical-register universe the consumer lists must cover;
    /// `track_age` keeps `head` current so [`PlanQueue::age_rank`] can
    /// answer.
    pub(crate) fn new(
        capacity: usize,
        bank_size: usize,
        dense_regs: usize,
        track_age: bool,
    ) -> Self {
        let bank_size = bank_size.max(1);
        PlanQueue {
            capacity,
            bank_of: (0..capacity)
                .map(|slot| (slot / bank_size) as u32)
                .collect(),
            occ: vec![0; capacity.div_ceil(64)],
            ids: vec![0; capacity],
            wait_bits: vec![0; capacity],
            head: 0,
            tail: 0,
            new_head: 0,
            count: 0,
            max_new_range: None,
            hard_limit: None,
            resident_limit: capacity,
            region_limit: usize::MAX,
            bank_occupancy: vec![0; capacity.div_ceil(bank_size)],
            banks_nonempty: 0,
            region_count: 0,
            waiting_total: 0,
            first_waiting: vec![NIL; dense_regs],
            next_waiting: vec![NIL; 2 * capacity],
            track_age,
        }
    }

    /// Total capacity in entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident instructions.
    pub(crate) fn occupancy(&self) -> usize {
        self.count
    }

    /// Number of banks holding at least one resident instruction. O(1).
    pub(crate) fn banks_on(&self) -> usize {
        self.banks_nonempty
    }

    /// Current software limit, if any.
    pub(crate) fn max_new_range(&self) -> Option<usize> {
        self.max_new_range
    }

    /// Current hardware limit, if any.
    pub(crate) fn hard_limit(&self) -> Option<usize> {
        self.hard_limit
    }

    /// Sets (or clears) the hardware resident-entry limit.
    pub(crate) fn set_hard_limit(&mut self, limit: Option<usize>) {
        self.hard_limit = limit.map(|l| l.clamp(1, self.capacity));
        self.resident_limit = self.hard_limit.unwrap_or(self.capacity);
    }

    /// Applies a compiler hint: a new region starts at the current tail.
    pub(crate) fn apply_hint(&mut self, max_new_range: usize) {
        self.new_head = self.tail;
        self.region_count = 0;
        self.max_new_range = Some(max_new_range.max(1));
        self.region_limit = max_new_range.max(1);
    }

    #[inline]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occ[slot / 64] >> (slot % 64) & 1 == 1
    }

    #[inline]
    fn next_slot(&self, slot: usize) -> usize {
        let next = slot + 1;
        if next == self.capacity {
            0
        } else {
            next
        }
    }

    #[inline]
    fn circular_distance(&self, from: usize, to: usize) -> usize {
        let diff = to + self.capacity - from;
        if diff >= self.capacity {
            diff - self.capacity
        } else {
            diff
        }
    }

    /// `true` if `slot` lies in the circular window `[new_head, tail)`.
    fn in_region(&self, slot: usize) -> bool {
        self.circular_distance(self.new_head, slot)
            < self.circular_distance(self.new_head, self.tail)
    }

    /// First occupied slot at or cyclically after `start` (the queue must
    /// be non-empty). Word-wise bitmask scan.
    fn next_occupied_from(&self, start: usize) -> usize {
        debug_assert!(self.count > 0);
        let words = self.occ.len();
        let mut word = start / 64;
        let mut mask = !0u64 << (start % 64);
        for _ in 0..=words {
            let bits = self.occ[word] & mask;
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            word += 1;
            if word == words {
                word = 0;
            }
            mask = !0;
        }
        unreachable!("count > 0 implies an occupied slot")
    }

    /// Set occupancy bits in the linear slot range `[from, to)`.
    fn occupied_in_range(&self, from: usize, to: usize) -> usize {
        if from >= to {
            return 0;
        }
        let first = from / 64;
        let last = (to - 1) / 64;
        let lo_mask = !0u64 << (from % 64);
        let hi_mask = !0u64 >> (63 - (to - 1) % 64);
        if first == last {
            return (self.occ[first] & lo_mask & hi_mask).count_ones() as usize;
        }
        let mut total = (self.occ[first] & lo_mask).count_ones();
        for word in &self.occ[first + 1..last] {
            total += word.count_ones();
        }
        total += (self.occ[last] & hi_mask).count_ones();
        total as usize
    }

    /// Number of resident entries older than the one in `slot` — the
    /// occupied count of the circular range `[head, slot)`, straight off
    /// the occupancy bitmask. Only valid when the queue was created with
    /// `track_age` (otherwise `head` is not maintained).
    pub(crate) fn age_rank(&self, slot: usize) -> usize {
        debug_assert!(self.track_age);
        if slot >= self.head {
            self.occupied_in_range(self.head, slot)
        } else {
            self.occupied_in_range(self.head, self.capacity) + self.occupied_in_range(0, slot)
        }
    }

    /// `true` if another instruction may dispatch right now (physical
    /// capacity and hardware limit, software region limit, a free tail
    /// slot). O(1).
    pub(crate) fn can_dispatch(&self) -> bool {
        self.count < self.resident_limit
            && self.region_count < self.region_limit
            && !self.is_occupied(self.tail)
    }

    /// Dispatches at the tail. `ops` holds the dense source registers and
    /// `wait` the operand bits that are present but not yet ready (the
    /// caller renames, so it knows both). Returns `(slot, ready_now)`; the
    /// caller must have checked [`PlanQueue::can_dispatch`].
    pub(crate) fn dispatch(&mut self, id: u64, ops: [u16; 2], wait: u8) -> (usize, bool) {
        debug_assert!(self.can_dispatch());
        let slot = self.tail;
        let mut pending = wait;
        while pending != 0 {
            let operand = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let packed = (slot << 1) | operand;
            let first = &mut self.first_waiting[ops[operand] as usize];
            self.next_waiting[packed] = *first;
            *first = packed as u32;
            self.waiting_total += 1;
        }
        self.wait_bits[slot] = wait;
        self.ids[slot] = id;
        self.occ[slot / 64] |= 1 << (slot % 64);
        let bank = self.bank_of[slot] as usize;
        self.banks_nonempty += usize::from(self.bank_occupancy[bank] == 0);
        self.bank_occupancy[bank] += 1;
        self.tail = self.next_slot(self.tail);
        self.count += 1;
        if self.max_new_range.is_some() {
            // The new resident joins the region window unless the tail
            // wrapped onto `new_head`, which collapses the window.
            if self.tail == self.new_head {
                self.region_count = 0;
            } else {
                self.region_count += 1;
            }
        }
        (slot, wait == 0)
    }

    /// Removes the entry in `slot` (it issued). The entry must be ready:
    /// a waiting operand is still linked into its register's consumer
    /// list.
    pub(crate) fn remove(&mut self, slot: usize) {
        debug_assert!(self.is_occupied(slot));
        debug_assert_eq!(self.wait_bits[slot], 0, "only a ready entry issues");
        if self.max_new_range.is_some() && self.in_region(slot) {
            self.region_count -= 1;
        }
        self.occ[slot / 64] &= !(1 << (slot % 64));
        let bank = self.bank_of[slot] as usize;
        self.bank_occupancy[bank] -= 1;
        self.banks_nonempty -= usize::from(self.bank_occupancy[bank] == 0);
        self.count -= 1;
        if self.count == 0 {
            self.head = self.tail;
            self.new_head = self.tail;
            self.region_count = 0;
            return;
        }
        if self.track_age {
            // Advance head to the oldest resident (age_rank is relative to
            // it). Nothing else observes `head`, so the non-adaptive
            // policies skip the scan entirely.
            self.head = self.next_occupied_from(self.head);
        }
        if self.max_new_range.is_some() {
            while self.new_head != self.tail && !self.is_occupied(self.new_head) {
                self.new_head = self.next_slot(self.new_head);
            }
        }
    }

    /// Broadcasts a completed dense register, waking exactly the operands
    /// on its consumer list and emptying the list. `on_ready` gets the id
    /// of each entry the broadcast makes fully ready. Returns the
    /// broadcast's `(non-empty, gated)` comparison counts — the full-queue
    /// count is a static total the plan bakes.
    pub(crate) fn wakeup(&mut self, dense: u16, mut on_ready: impl FnMut(u64)) -> (u64, u64) {
        let non_empty = 2 * self.count as u64;
        let gated = self.waiting_total;
        let mut packed = std::mem::replace(&mut self.first_waiting[dense as usize], NIL);
        while packed != NIL {
            let slot = (packed >> 1) as usize;
            let operand = packed & 1;
            debug_assert!(self.wait_bits[slot] & (1 << operand) != 0);
            self.wait_bits[slot] &= !(1 << operand) as u8;
            self.waiting_total -= 1;
            if self.wait_bits[slot] == 0 {
                on_ready(self.ids[slot]);
            }
            packed = self.next_waiting[packed as usize];
        }
        (non_empty, gated)
    }
}

/// Read access to the incrementally maintained state, for the reference
/// model's checks in `issue_queue.rs`.
#[cfg(test)]
impl PlanQueue {
    /// Residents in the current region `[new_head, tail)`; zero until the
    /// first hint.
    pub(crate) fn region_occupancy(&self) -> usize {
        self.region_count
    }

    /// Operands still waiting for a value, across all residents.
    pub(crate) fn waiting_total(&self) -> u64 {
        self.waiting_total
    }

    /// `(slot, id, waiting-operand bits)` of every resident, in slot order.
    pub(crate) fn residents(&self) -> Vec<(usize, u64, u8)> {
        (0..self.capacity)
            .filter(|&slot| self.is_occupied(slot))
            .map(|slot| (slot, self.ids[slot], self.wait_bits[slot]))
            .collect()
    }
}
