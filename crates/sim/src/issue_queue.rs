//! A test-only reference model of the issue queue ([`crate::plan_queue`]),
//! and the queue's tests against it.
//!
//! The model is the paper's queue written the obvious way: a circular
//! `Vec<Option<Entry>>` with `head`, `tail` and `new_head`, where every
//! derived quantity — occupancy, powered banks, the current region's
//! residents, waiting operands, age ranks, the entries a broadcast wakes —
//! is recomputed by scanning all slots. `PlanQueue` maintains the same
//! quantities incrementally, skips `head` upkeep unless age ranks are
//! tracked and starts region accounting only at the first hint; the tests
//! drive both through the same operations and compare after every one.

#[cfg(test)]
mod tests {
    use crate::plan_queue::{PlanQueue, ReadyCandidate};

    /// Size of the dense physical-register universe (`index << 1 | class`)
    /// the tests draw source registers from.
    pub(crate) const DENSE_REGS: usize = 48;

    /// One resident of the reference model: its id and, per operand, the
    /// dense register it reads and whether that value has arrived.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Entry {
        id: u64,
        operands: [Option<(u16, bool)>; 2],
    }

    impl Entry {
        fn waiting_bits(&self) -> u8 {
            let mut bits = 0;
            for (operand, slot) in self.operands.iter().enumerate() {
                if let Some((_, false)) = slot {
                    bits |= 1 << operand;
                }
            }
            bits
        }
    }

    /// The reference model. O(capacity) per query; it keeps the paper's
    /// pointers but no counters.
    #[derive(Debug)]
    struct NaiveQueue {
        slots: Vec<Option<Entry>>,
        bank_size: usize,
        head: usize,
        tail: usize,
        new_head: usize,
        max_new_range: Option<usize>,
        hard_limit: Option<usize>,
    }

    impl NaiveQueue {
        fn new(capacity: usize, bank_size: usize) -> Self {
            NaiveQueue {
                slots: vec![None; capacity],
                bank_size,
                head: 0,
                tail: 0,
                new_head: 0,
                max_new_range: None,
                hard_limit: None,
            }
        }

        fn capacity(&self) -> usize {
            self.slots.len()
        }

        fn next(&self, slot: usize) -> usize {
            (slot + 1) % self.capacity()
        }

        fn occupancy(&self) -> usize {
            self.slots.iter().flatten().count()
        }

        fn banks_on(&self) -> usize {
            self.slots
                .chunks(self.bank_size)
                .filter(|bank| bank.iter().any(Option::is_some))
                .count()
        }

        /// Residents in the circular span `[new_head, tail)`.
        fn region_occupancy(&self) -> usize {
            let cap = self.capacity();
            let span = (self.tail + cap - self.new_head) % cap;
            (0..span)
                .filter(|offset| self.slots[(self.new_head + offset) % cap].is_some())
                .count()
        }

        fn waiting_total(&self) -> u64 {
            self.slots
                .iter()
                .flatten()
                .map(|entry| u64::from(entry.waiting_bits().count_ones()))
                .sum()
        }

        /// Residents oldest first: the slots walked from `head`.
        fn age_order(&self) -> Vec<(usize, Entry)> {
            let cap = self.capacity();
            (0..cap)
                .map(|offset| (self.head + offset) % cap)
                .filter_map(|slot| self.slots[slot].map(|entry| (slot, entry)))
                .collect()
        }

        fn can_dispatch(&self) -> bool {
            let count = self.occupancy();
            count < self.capacity()
                && self.slots[self.tail].is_none()
                && self.hard_limit.is_none_or(|limit| count < limit)
                && self
                    .max_new_range
                    .is_none_or(|range| self.region_occupancy() < range)
        }

        fn apply_hint(&mut self, max_new_range: usize) {
            self.new_head = self.tail;
            self.max_new_range = Some(max_new_range.max(1));
        }

        fn set_hard_limit(&mut self, limit: Option<usize>) {
            self.hard_limit = limit.map(|l| l.clamp(1, self.capacity()));
        }

        fn dispatch(&mut self, entry: Entry) -> usize {
            let slot = self.tail;
            self.slots[slot] = Some(entry);
            self.tail = self.next(slot);
            slot
        }

        /// Removes the entry in `slot`; `head` and `new_head` walk forward
        /// over the holes (Figure 2).
        fn remove(&mut self, slot: usize) {
            assert!(self.slots[slot].take().is_some(), "removing an empty slot");
            if self.occupancy() == 0 {
                self.head = self.tail;
                self.new_head = self.tail;
                return;
            }
            while self.slots[self.head].is_none() {
                self.head = self.next(self.head);
            }
            while self.new_head != self.tail && self.slots[self.new_head].is_none() {
                self.new_head = self.next(self.new_head);
            }
        }

        /// Broadcasts `reg` over every slot. Returns the non-empty and
        /// gated comparison counts and the ids the broadcast made ready.
        fn wakeup(&mut self, reg: u16) -> (u64, u64, Vec<u64>) {
            let non_empty = 2 * self.occupancy() as u64;
            let gated = self.waiting_total();
            let mut woken = Vec::new();
            for entry in self.slots.iter_mut().flatten() {
                let mut matched = false;
                for (source, ready) in entry.operands.iter_mut().flatten() {
                    if !*ready && *source == reg {
                        *ready = true;
                        matched = true;
                    }
                }
                if matched && entry.waiting_bits() == 0 {
                    woken.push(entry.id);
                }
            }
            woken.sort_unstable();
            (non_empty, gated, woken)
        }
    }

    /// What one broadcast did, as both queues report it.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) struct Wakeup {
        /// Comparisons of the non-empty scheme (two per resident).
        pub(crate) non_empty: u64,
        /// Comparisons of the gated scheme (one per waiting operand).
        pub(crate) gated: u64,
        /// Ids the broadcast made fully ready, ascending.
        pub(crate) ready: Vec<u64>,
    }

    /// `PlanQueue` and the reference model driven through the same
    /// operations. Every operation asserts the two agree, and
    /// [`Checked::check`] compares all of `PlanQueue`'s incremental state
    /// with the model's recomputation.
    pub(crate) struct Checked {
        plan: PlanQueue,
        model: NaiveQueue,
        track_age: bool,
        next_id: u64,
        woken: Vec<ReadyCandidate>,
    }

    impl Checked {
        pub(crate) fn new(capacity: usize, bank_size: usize, track_age: bool) -> Self {
            Checked {
                plan: PlanQueue::new(capacity, bank_size, DENSE_REGS, track_age),
                model: NaiveQueue::new(capacity, bank_size),
                track_age,
                next_id: 0,
                woken: Vec::new(),
            }
        }

        pub(crate) fn capacity(&self) -> usize {
            self.plan.capacity()
        }

        pub(crate) fn occupancy(&self) -> usize {
            self.plan.occupancy()
        }

        pub(crate) fn banks_on(&self) -> usize {
            self.plan.banks_on()
        }

        pub(crate) fn region_occupancy(&self) -> usize {
            self.plan.region_occupancy()
        }

        pub(crate) fn waiting_total(&self) -> u64 {
            self.plan.waiting_total()
        }

        pub(crate) fn can_dispatch(&self) -> bool {
            let can = self.plan.can_dispatch();
            assert_eq!(can, self.model.can_dispatch(), "can_dispatch");
            can
        }

        /// Dispatches the next id with up to two `(dense register, ready)`
        /// operands and returns its slot.
        pub(crate) fn dispatch(&mut self, operands: &[(u16, bool)]) -> usize {
            assert!(self.can_dispatch(), "dispatch on a full or limited queue");
            let mut entry = Entry {
                id: self.next_id,
                operands: [None, None],
            };
            let mut ops = [0u16; 2];
            for (operand, &(reg, ready)) in operands.iter().take(2).enumerate() {
                entry.operands[operand] = Some((reg, ready));
                ops[operand] = reg;
            }
            self.next_id += 1;
            let wait = entry.waiting_bits();
            let (slot, ready_now) = self.plan.dispatch(entry.id, ops, wait);
            assert_eq!(slot, self.model.dispatch(entry), "dispatch slot");
            assert_eq!(ready_now, wait == 0, "ready on dispatch");
            self.check();
            slot
        }

        pub(crate) fn remove(&mut self, slot: usize) {
            self.plan.remove(slot);
            self.model.remove(slot);
            self.check();
        }

        pub(crate) fn wakeup(&mut self, reg: u16) -> Wakeup {
            self.woken.clear();
            let (non_empty, gated) = self.plan.wakeup(reg, &mut self.woken);
            let mut ready: Vec<u64> = self.woken.iter().map(|c| c.id).collect();
            ready.sort_unstable();
            for candidate in &self.woken {
                assert_eq!(
                    self.model.slots[candidate.slot as usize].map(|e| e.id),
                    Some(candidate.id)
                );
            }
            let wakeup = Wakeup {
                non_empty,
                gated,
                ready,
            };
            let (non_empty, gated, ready) = self.model.wakeup(reg);
            assert_eq!(
                wakeup,
                Wakeup {
                    non_empty,
                    gated,
                    ready
                },
                "wakeup of {reg}"
            );
            self.check();
            wakeup
        }

        pub(crate) fn apply_hint(&mut self, max_new_range: usize) {
            self.plan.apply_hint(max_new_range);
            self.model.apply_hint(max_new_range);
            self.check();
        }

        pub(crate) fn set_hard_limit(&mut self, limit: Option<usize>) {
            self.plan.set_hard_limit(limit);
            self.model.set_hard_limit(limit);
            assert_eq!(self.plan.hard_limit(), self.model.hard_limit);
            self.check();
        }

        /// Resident ids, oldest first.
        pub(crate) fn ids_in_age_order(&self) -> Vec<u64> {
            self.model.age_order().iter().map(|(_, e)| e.id).collect()
        }

        /// Ids of the residents whose operands have all arrived, ascending.
        pub(crate) fn ready_ids(&self) -> Vec<u64> {
            let mut ids: Vec<u64> = self
                .plan
                .residents()
                .into_iter()
                .filter(|&(_, _, wait)| wait == 0)
                .map(|(_, id, _)| id)
                .collect();
            ids.sort_unstable();
            ids
        }

        pub(crate) fn slot_of(&self, id: u64) -> usize {
            self.model
                .age_order()
                .iter()
                .find(|(_, e)| e.id == id)
                .map(|&(slot, _)| slot)
                .expect("id is resident")
        }

        pub(crate) fn age_rank(&self, slot: usize) -> usize {
            self.plan.age_rank(slot)
        }

        /// Asserts every incrementally maintained quantity of `PlanQueue`
        /// equals the model's recomputation.
        pub(crate) fn check(&self) {
            let model = &self.model;
            assert_eq!(self.plan.occupancy(), model.occupancy(), "occupancy");
            assert_eq!(self.plan.banks_on(), model.banks_on(), "banks_on");
            assert_eq!(
                self.plan.waiting_total(),
                model.waiting_total(),
                "waiting_total"
            );
            assert_eq!(self.plan.max_new_range(), model.max_new_range);
            let residents: Vec<(usize, u64, u8)> = model
                .slots
                .iter()
                .enumerate()
                .filter_map(|(slot, e)| e.map(|e| (slot, e.id, e.waiting_bits())))
                .collect();
            assert_eq!(self.plan.residents(), residents, "residents");
            if model.max_new_range.is_some() {
                assert_eq!(
                    self.plan.region_occupancy(),
                    model.region_occupancy(),
                    "region occupancy"
                );
            }
            if self.track_age {
                for (rank, (slot, _)) in model.age_order().into_iter().enumerate() {
                    assert_eq!(self.plan.age_rank(slot), rank, "age_rank({slot})");
                }
            }
        }
    }

    fn queue(entries: usize, bank: usize) -> Checked {
        Checked::new(entries, bank, true)
    }

    /// Dense encoding of integer physical register `index`.
    fn int(index: u16) -> u16 {
        index << 1
    }

    #[test]
    fn dispatch_and_age_order() {
        let mut q = queue(8, 4);
        for _ in 0..5 {
            assert!(q.can_dispatch());
            q.dispatch(&[(int(1), true)]);
        }
        assert_eq!(q.occupancy(), 5);
        assert_eq!(q.ids_in_age_order(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.banks_on(), 2);
    }

    #[test]
    fn capacity_limit_blocks_dispatch() {
        let mut q = queue(4, 4);
        for _ in 0..4 {
            q.dispatch(&[]);
        }
        assert!(!q.can_dispatch());
    }

    #[test]
    fn out_of_order_removal_leaves_holes_and_head_tracks_oldest() {
        let mut q = queue(8, 4);
        let slots: Vec<usize> = (0..4).map(|_| q.dispatch(&[])).collect();
        // Remove the second and third (out of order issue).
        q.remove(slots[1]);
        q.remove(slots[2]);
        assert_eq!(q.occupancy(), 2);
        assert_eq!(q.ids_in_age_order(), vec![0, 3]);
        // Remove the oldest → head advances past the holes to id 3.
        q.remove(slots[0]);
        assert_eq!(q.ids_in_age_order(), vec![3]);
        assert_eq!(q.age_rank(slots[3]), 0);
    }

    #[test]
    fn hint_limits_new_region_dispatch_like_figure2() {
        let mut q = queue(16, 4);
        // Older region: 2 instructions already resident.
        q.dispatch(&[]);
        q.dispatch(&[]);
        // Compiler hint: the next region needs 4 entries.
        q.apply_hint(4);
        let mut dispatched = 0;
        while q.can_dispatch() {
            q.dispatch(&[]);
            dispatched += 1;
        }
        assert_eq!(dispatched, 4, "region limited to max_new_range");
        assert_eq!(q.occupancy(), 6);
        assert_eq!(q.region_occupancy(), 4);
        // One of the region's instructions issues → one more may dispatch.
        q.remove(q.slot_of(2));
        assert!(q.can_dispatch());
        q.dispatch(&[]);
        assert!(!q.can_dispatch());
    }

    #[test]
    fn new_head_advances_to_next_non_empty_slot() {
        let mut q = queue(16, 4);
        q.apply_hint(8);
        let slots: Vec<usize> = (0..4).map(|_| q.dispatch(&[])).collect();
        assert_eq!(q.region_occupancy(), 4);
        // Issue the middle two, then the first: new_head must skip the holes.
        q.remove(slots[1]);
        q.remove(slots[2]);
        q.remove(slots[0]);
        assert_eq!(q.region_occupancy(), 1);
    }

    #[test]
    fn hard_limit_caps_occupancy() {
        let mut q = queue(16, 4);
        q.set_hard_limit(Some(3));
        let mut n = 0;
        while q.can_dispatch() {
            q.dispatch(&[]);
            n += 1;
        }
        assert_eq!(n, 3);
        q.set_hard_limit(None);
        assert!(q.can_dispatch());
    }

    #[test]
    fn wakeup_counts_follow_figure8_schemes() {
        let mut q = queue(8, 4);
        // Three resident entries: one fully ready, one with a waiting operand
        // that matches, one with two waiting operands that do not match.
        q.dispatch(&[(int(1), true), (int(2), true)]);
        q.dispatch(&[(int(5), false)]);
        q.dispatch(&[(int(6), false), (int(7), false)]);
        let activity = q.wakeup(int(5));
        // The full scheme compares 2 operands × 8 entries; the plan bakes it.
        assert_eq!(2 * q.capacity(), 16);
        assert_eq!(activity.non_empty, 6, "2 operands × 3 resident entries");
        assert_eq!(activity.gated, 3, "only waiting operands are compared");
        // One operand matched; the woken entry is reported ready to issue.
        assert_eq!(q.waiting_total(), 2);
        assert_eq!(activity.ready, vec![1]);
        assert_eq!(q.ready_ids(), vec![0, 1]);
    }

    #[test]
    fn wakeup_wakes_both_operands_of_one_entry_once() {
        let mut q = queue(8, 4);
        // Both operands wait on the same register: the broadcast must match
        // both but report the entry ready exactly once.
        q.dispatch(&[(int(9), false), (int(9), false)]);
        let activity = q.wakeup(int(9));
        assert_eq!(activity.gated, 2);
        assert_eq!(q.waiting_total(), 0, "both operands matched");
        assert_eq!(activity.ready, vec![0]);
    }

    #[test]
    fn wakeup_of_unwaited_register_matches_nothing() {
        let mut q = queue(8, 4);
        q.dispatch(&[(int(3), false)]);
        let activity = q.wakeup(int(4));
        assert_eq!(activity.gated, 1, "the waiting operand still compares");
        assert_eq!(q.waiting_total(), 1, "nothing matched");
        assert!(activity.ready.is_empty());
    }

    #[test]
    fn removal_drops_waiting_operands_from_the_index() {
        let mut q = queue(8, 4);
        let slot = q.dispatch(&[(int(5), false)]);
        q.remove(slot);
        // The waiter was dropped with its entry: a later broadcast matches
        // nothing and the gated count is zero.
        let activity = q.wakeup(int(5));
        assert_eq!(activity.gated, 0);
        assert!(activity.ready.is_empty());
    }

    #[test]
    fn wraparound_dispatch_works() {
        let mut q = queue(4, 2);
        let s0 = q.dispatch(&[]);
        let s1 = q.dispatch(&[]);
        q.remove(s0);
        q.remove(s1);
        // Queue empty; head == tail == 2. Fill it completely across the wrap.
        for _ in 2..6 {
            assert!(q.can_dispatch());
            q.dispatch(&[]);
        }
        assert!(!q.can_dispatch());
        assert_eq!(q.ids_in_age_order(), vec![2, 3, 4, 5]);
    }

    /// Regression test for the head-advance walk: with the queue fully
    /// wrapped (head == tail, every slot filled), removing entries in an
    /// order that leaves the head slot empty must land `head` on the
    /// oldest *filled* slot, never on an empty one.
    #[test]
    fn full_wrap_removal_keeps_head_on_a_filled_slot() {
        let mut q = queue(4, 2);
        // Advance head/tail to slot 2, then fill completely (wraps to
        // head == tail == 2 with count == 4).
        let s0 = q.dispatch(&[]);
        let s1 = q.dispatch(&[]);
        q.remove(s0);
        q.remove(s1);
        let slots: Vec<usize> = (2..6).map(|_| q.dispatch(&[])).collect();
        assert_eq!(q.occupancy(), 4);
        // Remove the head entry (id 2) and the one after the wrap (id 4):
        // head must walk across the wrap boundary over the hole at slot 0
        // and stop on id 3's slot.
        q.remove(slots[0]);
        q.remove(slots[2]);
        assert_eq!(q.ids_in_age_order(), vec![3, 5]);
        assert_eq!(q.age_rank(slots[1]), 0);
        // Remove id 3 → head crosses the wrap to id 5's slot.
        q.remove(slots[1]);
        assert_eq!(q.ids_in_age_order(), vec![5]);
        assert_eq!(q.age_rank(slots[3]), 0);
        // Drain to empty and refill across the wrap again.
        q.remove(slots[3]);
        assert_eq!(q.occupancy(), 0);
        for _ in 10..14 {
            assert!(q.can_dispatch());
            q.dispatch(&[]);
        }
        assert_eq!(q.occupancy(), 4);
    }

    #[test]
    fn banks_power_off_as_entries_drain() {
        let mut q = queue(8, 2);
        let slots: Vec<usize> = (0..8).map(|_| q.dispatch(&[])).collect();
        assert_eq!(q.banks_on(), 4);
        for &s in &slots[0..6] {
            q.remove(s);
        }
        assert_eq!(q.banks_on(), 1);
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn empty_queue_resets_pointers_to_tail() {
        let mut q = queue(8, 4);
        q.apply_hint(2);
        let s0 = q.dispatch(&[]);
        let s1 = q.dispatch(&[]);
        q.remove(s0);
        q.remove(s1);
        assert_eq!(q.occupancy(), 0);
        // After draining, the full region limit is available again.
        let mut n = 0;
        while q.can_dispatch() {
            q.dispatch(&[]);
            n += 1;
        }
        assert_eq!(n, 2, "max_new_range still applies to the new region");
    }

    #[test]
    fn age_rank_matches_age_order_position() {
        let mut q = queue(8, 4);
        let slots: Vec<usize> = (0..6).map(|_| q.dispatch(&[])).collect();
        q.remove(slots[1]);
        q.remove(slots[3]);
        for (expected, id) in q.ids_in_age_order().into_iter().enumerate() {
            assert_eq!(q.age_rank(q.slot_of(id)), expected);
        }
    }
}

/// Differential property tests: random dispatch / remove / wakeup / hint /
/// hard-limit sequences through `PlanQueue` and the reference model, with
/// every step compared (see [`tests::Checked`]). Each sequence runs with
/// age tracking on or off, and its first hint may only arrive part-way
/// through, so the queue's late start of region accounting is exercised
/// from a non-empty state.
#[cfg(test)]
mod differential_tests {
    use super::tests::{Checked, DENSE_REGS};
    use proptest::prelude::*;

    /// One step of the randomized workload. Values are interpreted modulo
    /// the currently applicable domain so that every sequence is valid.
    #[derive(Debug, Clone)]
    enum Step {
        /// Dispatch with up to two operands: (dense reg, ready) per operand.
        Dispatch(Option<(u16, bool)>, Option<(u16, bool)>),
        /// Remove the k-th resident entry (in age order).
        RemoveNth(usize),
        /// Broadcast a dense register.
        Wakeup(u16),
        /// Apply a software hint.
        Hint(usize),
        /// Set or clear the hardware limit.
        HardLimit(Option<usize>),
    }

    fn arb_operand() -> impl Strategy<Value = Option<(u16, bool)>> {
        prop_oneof![
            (0usize..3usize).prop_map(|_| None),
            ((0u16..DENSE_REGS as u16), (0usize..4usize)).prop_map(|(reg, r)| Some((reg, r == 0))),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (arb_operand(), arb_operand()).prop_map(|(a, b)| Step::Dispatch(a, b)),
            (0usize..64usize).prop_map(Step::RemoveNth),
            (0u16..DENSE_REGS as u16).prop_map(Step::Wakeup),
            (1usize..12usize).prop_map(Step::Hint),
            (0usize..20usize).prop_map(|v| {
                if v == 0 {
                    Step::HardLimit(None)
                } else {
                    Step::HardLimit(Some(v))
                }
            }),
        ]
    }

    fn run_sequence(
        (entries, bank): (usize, usize),
        track_age: bool,
        first_hint_at: usize,
        steps: &[Step],
    ) {
        let mut q = Checked::new(entries, bank, track_age);
        for (index, step) in steps.iter().enumerate() {
            match step {
                Step::Dispatch(a, b) => {
                    if q.can_dispatch() {
                        let operands: Vec<(u16, bool)> =
                            [a, b].into_iter().flatten().copied().collect();
                        q.dispatch(&operands);
                    }
                }
                Step::RemoveNth(k) => {
                    let ids = q.ids_in_age_order();
                    if !ids.is_empty() {
                        q.remove(q.slot_of(ids[k % ids.len()]));
                    }
                }
                Step::Wakeup(reg) => {
                    q.wakeup(*reg);
                }
                Step::Hint(range) => {
                    if index >= first_hint_at {
                        q.apply_hint(*range);
                    }
                }
                Step::HardLimit(limit) => q.set_hard_limit(*limit),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_state_equals_naive_recomputation(
            steps in prop::collection::vec(arb_step(), 1..120),
            geometry in (0usize..6usize),
            track_age in (0usize..2usize),
            first_hint_at in (0usize..80usize),
        ) {
            // Small capacities maximise wrap-around coverage. The queue
            // takes banks from a table and the model divides, so bank
            // sizes include one that leaves a partial last bank, one slot
            // per bank, and one bank larger than the queue.
            let geometry = [(8, 4), (12, 3), (16, 8), (10, 4), (7, 1), (5, 8)][geometry];
            run_sequence(geometry, track_age == 1, first_hint_at, &steps);
        }
    }
}
