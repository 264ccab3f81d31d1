//! Hierarchical timer wheel: the kernel's O(1)-amortized event queue.
//!
//! The binary heap this replaces paid `O(log n)` per push *and* per pop —
//! 83 ns/op at the queue depths the fleet benches reach, and the dominant
//! cost once a run executes ~10⁸ events. The wheel is the classic
//! calendar-queue design (Varghese & Lauck's hashed hierarchical timing
//! wheels): [`LEVELS`] rings of [`SLOTS`] slots each, where a level-`k`
//! slot spans `64^k` microsecond ticks. An entry at absolute tick `t` is
//! parked at the *lowest* level whose current rotation contains `t` —
//! computed in a handful of bit operations from `t ^ cursor`. When its
//! slot becomes the earliest occupied one, the cursor jumps to the slot's
//! earliest live tick: that tick's entries are staged straight from the
//! slot, and the rest re-park at a lower level. A timer alone in its slot
//! is therefore moved once between push and pop, whatever its level; one
//! that shares a slot with earlier ticks re-parks once per such slot.
//!
//! ## Ordering contract
//!
//! Pops are strictly ordered by `(tick, seq)`. A level-0 slot spans
//! exactly one tick, so by the time an entry has cascaded to level 0 its
//! slot holds *only* entries for that tick, in insertion order — and
//! insertion order is `seq` order, because direct pushes allocate
//! monotonically increasing seqs and cascades preserve the relative order
//! of everything they move. Draining a level-0 slot therefore yields a
//! whole tick's entries FIFO in one pass, which is what the kernel's
//! same-tick batch execution rides on. A tick staged straight from a
//! higher slot comes out in that slot's order, which is `seq` order for
//! the same reason.
//!
//! ## Cursor invariants
//!
//! `cursor` is the wheel's private read head, distinct from the
//! simulator's clock:
//!
//! * The cursor advances to the earliest live entry of the earliest
//!   occupied slot — or, when that entry is past the pop's `limit`, to
//!   the slot's start. Every lower level is empty at that moment, so
//!   nothing parked is earlier. Slots holding only cancelled entries are
//!   discarded in place, without moving the cursor.
//! * Hence `cursor <= at` for every parked entry: an entry behind the
//!   earliest live one in its slot is dead, and drops as the slot empties.
//! * `cursor <= limit` for the `limit` passed to the pop that moved it —
//!   so a bounded drain (`run_until`) can never strand the cursor past
//!   the deadline the caller is about to advance the clock to.
//!
//! Together these guarantee every future push (which the simulator clamps
//! to `now >= cursor`) lands ahead of the read head, which is what makes
//! the `t ^ cursor` level computation sound.
//!
//! Entries further than `64^8` ticks (~8.9 simulated years) ahead of the
//! cursor — in practice only `Duration::MAX`-style sentinel timeouts —
//! park in a far-future overflow map keyed by exact tick, and migrate
//! into the wheel when the cursor crosses into their epoch.

use std::collections::{BTreeMap, VecDeque};

/// Bits of slot index per level (64 slots).
pub const LEVEL_BITS: u32 = 6;

/// Slots per level.
pub const SLOTS: usize = 1 << LEVEL_BITS;

/// Wheel depth. Level `k` slots span `64^k` ticks; eight levels cover
/// `2^48` microsecond ticks before the overflow map takes over.
pub const LEVELS: usize = 8;

/// Total tick span of the wheel proper, as a shift count.
const SPAN_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Low-bit mask selecting a position within the wheel's span.
const SPAN_MASK: u64 = (1 << SPAN_BITS) - 1;

/// One parked entry: an absolute tick, the scheduling sequence number
/// that tie-breaks simultaneous entries, and the payload.
pub struct Entry<T> {
    /// Absolute due tick.
    pub at: u64,
    /// Scheduling sequence number (unique, monotonically increasing).
    pub seq: u64,
    /// The payload (the kernel parks the slab slot of the event's closure
    /// here).
    pub item: T,
}

/// The hierarchical timer wheel. See the module docs for the design.
pub struct TimerWheel<T> {
    /// Read head: every parked entry is at `cursor` or later.
    cursor: u64,
    /// Entries physically parked (wheel + overflow + staged), including
    /// cancelled entries not yet swept — the equivalent of the old heap's
    /// `len()`, which the kernel's queue high-water profiling tracks.
    len: usize,
    /// One bit per slot per level; bit set ⇔ slot non-empty. A level is
    /// a single word, so "earliest occupied slot at or after the cursor"
    /// is a mask and a trailing-zeros count.
    occupied: [u64; LEVELS],
    /// `LEVELS * SLOTS` buckets; drained buckets keep their capacity, so
    /// the steady state allocates nothing.
    slots: Vec<Vec<Entry<T>>>,
    /// Far-future entries, keyed by exact tick (seq order within a key).
    overflow: BTreeMap<u64, Vec<Entry<T>>>,
    /// The level-0 slot currently being drained, all at [`Self::staged_tick`].
    /// `pop_next` hands these out one at a time; `pop_tick_batch` empties
    /// the remainder in one call.
    staged: VecDeque<Entry<T>>,
    /// Tick shared by every staged entry.
    staged_tick: u64,
    /// The seq of every entry a cascade re-parked, in order.
    #[cfg(test)]
    reparked: Vec<u64>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Empty wheel with the cursor at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            cursor: 0,
            len: 0,
            occupied: [0; LEVELS],
            slots: std::iter::repeat_with(Vec::new).take(LEVELS * SLOTS).collect(),
            overflow: BTreeMap::new(),
            staged: VecDeque::new(),
            staged_tick: 0,
            #[cfg(test)]
            reparked: Vec::new(),
        }
    }

    /// Entries physically parked, cancelled-but-unswept ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The read head (test/debug visibility).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The `(level, absolute slot index)` an entry at `at` belongs to,
    /// relative to the current cursor.
    #[inline]
    fn level_slot(&self, at: u64) -> (usize, usize) {
        let x = at ^ self.cursor;
        // x == 0 (entry due exactly at the cursor) is level 0 by
        // convention; 63 ^ leading_zeros is the highest differing bit.
        let level = if x == 0 { 0 } else { ((63 - x.leading_zeros()) / LEVEL_BITS) as usize };
        let slot = ((at >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Park an entry. `at` must be at or after the cursor — the kernel
    /// guarantees this by clamping schedule instants to `now`.
    #[inline]
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.cursor, "push behind the wheel cursor");
        self.len += 1;
        if (at ^ self.cursor) > SPAN_MASK {
            self.overflow.entry(at).or_default().push(Entry { at, seq, item });
            return;
        }
        let (level, slot) = self.level_slot(at);
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(Entry { at, seq, item });
    }

    /// Re-park an entry during a cascade (no length accounting — it never
    /// left the wheel). Cascades always target a strictly lower level, so
    /// this cannot recurse into the overflow map.
    #[inline]
    fn repark(&mut self, e: Entry<T>) {
        debug_assert!(e.at >= self.cursor && (e.at ^ self.cursor) <= SPAN_MASK);
        #[cfg(test)]
        self.reparked.push(e.seq);
        let (level, slot) = self.level_slot(e.at);
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(e);
    }

    /// Earliest occupied `(level, slot, window start tick)` at or after
    /// the cursor, or `None` when the wheel rings are all empty. Levels
    /// are disjoint in time — everything at level `k` is due before
    /// everything at level `k+1` — so the first occupied level wins.
    fn find_earliest(&self) -> Option<(usize, usize, u64)> {
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let cur_slot = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as u32;
            debug_assert_eq!(
                occ & !(!0u64 << cur_slot),
                0,
                "occupied slot behind the cursor at level {level}"
            );
            let slot = occ.trailing_zeros() as usize;
            let window = shift + LEVEL_BITS;
            let base = (self.cursor >> window) << window;
            return Some((level, slot, base | ((slot as u64) << shift)));
        }
        None
    }

    /// Pop the earliest live entry due at or before `limit`; cancelled
    /// entries met along the way are dropped. Live entries behind the
    /// returned one stay parked. Returns `None` when nothing live is due
    /// by `limit` — the wheel (and its cursor) then sits at or before
    /// `limit`, ready for the clock to advance there.
    #[inline]
    pub fn pop_next(
        &mut self,
        limit: u64,
        is_live: impl Fn(&Entry<T>) -> bool,
    ) -> Option<Entry<T>> {
        loop {
            if let Some(e) = self.staged.pop_front() {
                if e.at > limit {
                    self.staged.push_front(e);
                    return None;
                }
                self.len -= 1;
                if is_live(&e) {
                    return Some(e);
                }
                continue;
            }
            if !self.stage_next_tick(limit, &is_live) {
                return None;
            }
        }
    }

    /// Drain *every* entry sharing the earliest live tick at or before
    /// `limit` into `out` (in `(tick, seq)` order), returning that tick.
    /// Entries are **not** liveness-filtered on the way out — the caller
    /// settles each again just before executing it, because an entry
    /// earlier in the batch may cancel a later one. At least one entry in
    /// the batch is guaranteed live at drain time.
    pub fn pop_tick_batch(
        &mut self,
        limit: u64,
        is_live: impl Fn(&Entry<T>) -> bool,
        out: &mut Vec<Entry<T>>,
    ) -> Option<u64> {
        if self.staged.is_empty() && !self.stage_next_tick(limit, &is_live) {
            return None;
        }
        if self.staged_tick > limit {
            // leftover stage from an earlier, laxer pop — keep it parked
            return None;
        }
        self.len -= self.staged.len();
        out.extend(self.staged.drain(..));
        Some(self.staged_tick)
    }

    /// Advance to the next tick holding a live entry (due at or before
    /// `limit`) and stage that tick's entries. Cascades higher-level slots
    /// and sweeps all-cancelled slots in place as it goes. Returns `false`
    /// without staging when nothing live is due by `limit`.
    fn stage_next_tick(&mut self, limit: u64, is_live: &impl Fn(&Entry<T>) -> bool) -> bool {
        debug_assert!(self.staged.is_empty());
        loop {
            let Some((level, slot, start)) = self.find_earliest() else {
                if !self.cascade_overflow(limit, is_live) {
                    return false;
                }
                continue;
            };
            if start > limit {
                return false;
            }
            let idx = level * SLOTS + slot;
            if level == 0 {
                self.occupied[0] &= !(1 << slot);
                if !self.slots[idx].iter().any(is_live) {
                    // Only cancelled entries: discard without moving the
                    // cursor, so an all-cancelled slot can never strand
                    // the cursor ahead of a future (earlier) push.
                    self.len -= self.slots[idx].len();
                    self.slots[idx].clear();
                    continue;
                }
                // One tick's entries, FIFO — stage them.
                self.cursor = start;
                self.staged_tick = start;
                self.staged.extend(self.slots[idx].drain(..));
                return true;
            }
            // Cascade. Dead entries drop first, noting the earliest live
            // tick on the way; the bucket keeps its allocation.
            self.occupied[level] &= !(1 << slot);
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            let (parked, mut first) = (bucket.len(), None);
            bucket.retain(|e| {
                let live = is_live(e);
                if live {
                    first = Some(first.map_or(e.at, |f: u64| f.min(e.at)));
                }
                live
            });
            self.len -= parked - bucket.len();
            if let Some(first) = first {
                // Straight to the earliest live entry when it is due by
                // `limit`: every lower level is empty, so nothing parked
                // is earlier. Its tick is staged from here; everything
                // later re-parks at a lower level. (A slot of cancelled
                // entries only leaves the cursor where it was.)
                self.cursor = if first <= limit { first } else { start };
                for e in bucket.drain(..) {
                    if e.at == self.cursor {
                        self.staged.push_back(e);
                    } else {
                        self.repark(e);
                    }
                }
            }
            self.slots[idx] = bucket;
            if !self.staged.is_empty() {
                self.staged_tick = self.cursor;
                return true;
            }
        }
    }

    /// Move the earliest overflow epoch into the wheel, if it is due by
    /// `limit` and holds anything live. Returns `true` if the wheel rings
    /// gained entries.
    fn cascade_overflow(&mut self, limit: u64, is_live: &impl Fn(&Entry<T>) -> bool) -> bool {
        loop {
            let Some((&first, bucket)) = self.overflow.iter().next() else {
                return false;
            };
            if first > limit {
                return false;
            }
            if !bucket.iter().any(is_live) {
                let dead = self.overflow.remove(&first).expect("first key present");
                self.len -= dead.len();
                continue;
            }
            // Advance the cursor to the start of `first`'s wheel epoch,
            // then migrate every key that now fits the wheel span — later
            // epochs stay put. All wheel rings are empty here, so the
            // whole span belongs to the new epoch.
            let epoch = first & !SPAN_MASK;
            debug_assert!(epoch >= self.cursor);
            self.cursor = epoch;
            let fits = match epoch.checked_add(SPAN_MASK + 1) {
                Some(bound) => {
                    let rest = self.overflow.split_off(&bound);
                    std::mem::replace(&mut self.overflow, rest)
                }
                None => std::mem::take(&mut self.overflow),
            };
            for (_, bucket) in fits {
                for e in bucket {
                    if is_live(&e) {
                        self.repark(e);
                    } else {
                        self.len -= 1;
                    }
                }
            }
            return true;
        }
    }
}

/// The event queue the wheel replaced — a `(tick, seq)` min-heap with
/// lazy cancellation — kept as an executable reference model so the
/// equivalence property tests below can check the wheel against the old
/// kernel's exact pop behavior.
#[cfg(test)]
pub mod heap_model {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// What `BinaryHeap<Scheduled>` used to be in `engine.rs`, stripped
    /// of payloads: ordered by `(at, seq)`, dead entries discarded as
    /// they surface.
    #[derive(Default)]
    pub struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl HeapQueue {
        /// Park an entry.
        pub fn push(&mut self, at: u64, seq: u64) {
            self.heap.push(Reverse((at, seq)));
        }

        /// Earliest live entry due at or before `limit` — the old
        /// kernel's pop loop, cancelled entries dropped lazily.
        pub fn pop_next(
            &mut self,
            limit: u64,
            is_live: impl Fn(u64) -> bool,
        ) -> Option<(u64, u64)> {
            while let Some(&Reverse((at, seq))) = self.heap.peek() {
                if at > limit {
                    return None;
                }
                self.heap.pop();
                if is_live(seq) {
                    return Some((at, seq));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::heap_model::HeapQueue;
    use super::{TimerWheel, LEVEL_BITS};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// One step of an interleaved schedule / cancel / pop program,
    /// mirroring what `Sim` can do to its queue.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `now + delta` (`delta == 0` builds same-tick bursts;
        /// huge deltas land in the wheel's far-future overflow map).
        Push(u64),
        /// Cancel the `nth % outstanding` live entry.
        Cancel(usize),
        /// Pop the next due entry, unbounded (`run` / `step`).
        Pop,
        /// Drain everything due within `horizon` of now, then advance the
        /// clock to the horizon (`run_until`).
        PopUntil(u64),
        /// Cancel the outstanding entry earliest in `(tick, seq)` order:
        /// the earliest entry of the earliest occupied slot.
        CancelEarliest,
        /// `Push` at a tick inside a level-2/3 slot ahead of now (see
        /// [`in_slot_as_delta`]).
        PushInSlot(u32, u64, u64),
        /// `PopUntil` with the limit inside a level-2/3 slot ahead of now.
        PopUntilInSlot(u32, u64, u64),
    }

    /// `op` with an in-slot tick turned into its delta from `now`. The
    /// tick is `offset` (folded into the slot) into the level-`l` slot
    /// `k` slots ahead of now's: a window several pushes share at
    /// distinct ticks.
    fn in_slot_as_delta(op: &Op, now: u64) -> Op {
        let in_slot = |l: u32, k: u64, offset: u64| {
            let shift = LEVEL_BITS * l;
            (((now >> shift) + k) << shift) + offset % (1 << shift) - now
        };
        match *op {
            Op::PushInSlot(l, k, offset) => Op::Push(in_slot(l, k, offset)),
            Op::PopUntilInSlot(l, k, offset) => Op::PopUntil(in_slot(l, k, offset)),
            ref op => op.clone(),
        }
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Push(0)), // same-tick burst pressure
            (0u64..64).prop_map(Op::Push),
            (0u64..1_000_000).prop_map(Op::Push), // spans several levels
            ((1u64 << 48)..(1u64 << 52)).prop_map(Op::Push), // overflow map
            (0usize..1 << 20).prop_map(Op::Cancel),
            Just(Op::CancelEarliest),
            Just(Op::Pop),
            Just(Op::Pop),
            (0u64..200_000).prop_map(Op::PopUntil),
            // distinct ticks sharing one level-2 or level-3 slot, and
            // bounded drains that stop inside such a slot's window
            (2u32..4, 1u64..3, 0u64..1 << 18).prop_map(|(l, k, o)| Op::PushInSlot(l, k, o)),
            (2u32..4, 1u64..3, 0u64..1 << 18).prop_map(|(l, k, o)| Op::PushInSlot(l, k, o)),
            (2u32..4, 1u64..3, 0u64..1 << 18).prop_map(|(l, k, o)| Op::PopUntilInSlot(l, k, o)),
        ]
    }

    proptest! {
        /// The wheel and the retired heap queue produce identical pop
        /// sequences for arbitrary interleaved schedule/cancel/pop
        /// programs — same-tick bursts, bounded drains, and far-future
        /// overflow included. The wheel changes the queue's cost, not
        /// one bit of its observable behavior.
        #[test]
        fn wheel_matches_heap_reference(
            ops in proptest::collection::vec(op_strategy(), 1..250),
        ) {
            let mut wheel: TimerWheel<()> = TimerWheel::new();
            let mut heap = HeapQueue::default();
            let mut live: HashSet<u64> = HashSet::new();
            // (at, seq) of every live entry, in push order
            let mut outstanding: Vec<(u64, u64)> = Vec::new();
            let mut now = 0u64;
            let mut next_seq = 0u64;
            let settle = |popped: Option<(u64, u64)>,
                              now: &mut u64,
                              live: &mut HashSet<u64>,
                              outstanding: &mut Vec<(u64, u64)>| {
                if let Some((at, seq)) = popped {
                    *now = at;
                    live.remove(&seq);
                    outstanding.retain(|&(_, s)| s != seq);
                }
            };
            for op in &ops {
                match in_slot_as_delta(op, now) {
                    Op::Push(delta) => {
                        let at = now.saturating_add(delta);
                        let seq = next_seq;
                        next_seq += 1;
                        live.insert(seq);
                        outstanding.push((at, seq));
                        wheel.push(at, seq, ());
                        heap.push(at, seq);
                    }
                    Op::Cancel(nth) => {
                        if !outstanding.is_empty() {
                            let (_, seq) = outstanding.remove(nth % outstanding.len());
                            live.remove(&seq);
                        }
                    }
                    Op::CancelEarliest => {
                        let earliest = outstanding.iter().enumerate().min_by_key(|(_, e)| **e);
                        if let Some((i, _)) = earliest {
                            let (_, seq) = outstanding.remove(i);
                            live.remove(&seq);
                        }
                    }
                    Op::Pop => {
                        let w = wheel
                            .pop_next(u64::MAX, |e| live.contains(&e.seq))
                            .map(|e| (e.at, e.seq));
                        let h = heap.pop_next(u64::MAX, |s| live.contains(&s));
                        prop_assert_eq!(w, h);
                        settle(w, &mut now, &mut live, &mut outstanding);
                    }
                    Op::PopUntil(horizon) => {
                        let limit = now.saturating_add(horizon);
                        loop {
                            let w = wheel
                                .pop_next(limit, |e| live.contains(&e.seq))
                                .map(|e| (e.at, e.seq));
                            let h = heap.pop_next(limit, |s| live.contains(&s));
                            prop_assert_eq!(w, h);
                            if w.is_none() {
                                break;
                            }
                            settle(w, &mut now, &mut live, &mut outstanding);
                        }
                        now = limit; // run_until advances the clock
                    }
                    Op::PushInSlot(..) | Op::PopUntilInSlot(..) => {
                        unreachable!("turned into deltas above")
                    }
                }
            }
            // final drain: agreement to the last entry, then both empty
            loop {
                let w = wheel
                    .pop_next(u64::MAX, |e| live.contains(&e.seq))
                    .map(|e| (e.at, e.seq));
                let h = heap.pop_next(u64::MAX, |s| live.contains(&s));
                prop_assert_eq!(w, h);
                if w.is_none() {
                    break;
                }
                settle(w, &mut now, &mut live, &mut outstanding);
            }
            prop_assert!(wheel.is_empty());
        }

        /// `pop_tick_batch` with caller-side liveness settling (how the
        /// kernel's batched drain uses it) yields exactly the entries
        /// one-at-a-time `pop_next` would, in the same order.
        #[test]
        fn tick_batch_equals_singles(
            entries in proptest::collection::vec((0u64..5_000, 0u8..4), 1..150),
        ) {
            let mut singles_wheel: TimerWheel<()> = TimerWheel::new();
            let mut batch_wheel: TimerWheel<()> = TimerWheel::new();
            let mut live: HashSet<u64> = HashSet::new();
            for (seq, &(at, cancelled)) in entries.iter().enumerate() {
                let seq = seq as u64;
                singles_wheel.push(at, seq, ());
                batch_wheel.push(at, seq, ());
                if cancelled != 0 {
                    live.insert(seq); // 3-in-4 live, 1-in-4 cancelled
                }
            }
            let mut singles = Vec::new();
            while let Some(e) = singles_wheel.pop_next(u64::MAX, |e| live.contains(&e.seq)) {
                singles.push((e.at, e.seq));
            }
            let mut batched = Vec::new();
            let mut batch = Vec::new();
            while let Some(tick) =
                batch_wheel.pop_tick_batch(u64::MAX, |e| live.contains(&e.seq), &mut batch)
            {
                for e in batch.drain(..) {
                    prop_assert_eq!(e.at, tick);
                    if live.contains(&e.seq) {
                        batched.push((e.at, e.seq));
                    }
                }
            }
            prop_assert_eq!(singles, batched);
            prop_assert!(batch_wheel.is_empty());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop_next(u64::MAX, |_| true) {
            out.push((e.at, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        let ats = [5u64, 1, 70, 70, 5, 4096, 1 << 20, 3, 0];
        for (seq, &at) in ats.iter().enumerate() {
            w.push(at, seq as u64, 0u32);
        }
        let mut expect: Vec<(u64, u64)> =
            ats.iter().enumerate().map(|(s, &a)| (a, s as u64)).collect();
        expect.sort();
        assert_eq!(drain_all(&mut w), expect);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_overflow_cascades_down() {
        let mut w = TimerWheel::new();
        w.push(1 << 55, 0, 0u32); // beyond the 2^48 wheel span
        w.push((1 << 55) + 3, 1, 0);
        w.push(7, 2, 0);
        w.push(u64::MAX, 3, 0);
        assert_eq!(
            drain_all(&mut w),
            vec![(7, 2), (1 << 55, 0), ((1 << 55) + 3, 1), (u64::MAX, 3)]
        );
    }

    #[test]
    fn cancelled_only_slots_do_not_advance_the_cursor() {
        let mut w = TimerWheel::new();
        w.push(100_000, 0, 0u32); // level ≥ 2
        assert!(w.pop_next(u64::MAX, |_| false).is_none());
        assert!(w.is_empty());
        // the cursor must not have run ahead: an earlier push still works
        w.push(5, 1, 0);
        let e = w.pop_next(u64::MAX, |_| true).expect("live entry");
        assert_eq!((e.at, e.seq), (5, 1));
    }

    #[test]
    fn limit_bounds_the_pop_and_the_cursor() {
        let mut w = TimerWheel::new();
        w.push(70, 0, 0u32);
        w.push(200, 1, 0);
        assert!(w.pop_next(63, |_| true).is_none());
        assert!(w.cursor() <= 63);
        let e = w.pop_next(70, |_| true).expect("due at 70");
        assert_eq!(e.at, 70);
        assert!(w.pop_next(199, |_| true).is_none());
        assert!(w.cursor() <= 199);
        assert_eq!(w.pop_next(200, |_| true).expect("due at 200").seq, 1);
    }

    #[test]
    fn tick_batch_drains_one_tick_fifo() {
        let mut w = TimerWheel::new();
        for seq in 0..5u64 {
            w.push(1000, seq, 0u32);
        }
        w.push(1001, 5, 0);
        let mut out = Vec::new();
        assert_eq!(w.pop_tick_batch(u64::MAX, |_| true, &mut out), Some(1000));
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(w.len(), 1);
        out.clear();
        assert_eq!(w.pop_tick_batch(u64::MAX, |_| true, &mut out), Some(1001));
        assert_eq!(out.len(), 1);
        assert!(w.is_empty());
    }

    #[test]
    fn push_during_staged_tick_lands_behind_the_staged_entries() {
        let mut w = TimerWheel::new();
        w.push(50, 0, 0u32);
        w.push(50, 1, 0);
        let first = w.pop_next(u64::MAX, |_| true).expect("first");
        assert_eq!(first.seq, 0);
        // the kernel schedules a same-tick follow-up mid-batch
        w.push(50, 2, 0);
        assert_eq!(w.pop_next(u64::MAX, |_| true).expect("staged").seq, 1);
        assert_eq!(w.pop_next(u64::MAX, |_| true).expect("follow-up").seq, 2);
    }

    /// How often each entry was re-parked, by seq.
    fn repark_counts(w: &TimerWheel<u32>, entries: usize) -> Vec<usize> {
        let mut counts = vec![0; entries];
        for &seq in &w.reparked {
            counts[seq as usize] += 1;
        }
        counts
    }

    #[test]
    fn without_cancels_an_entry_re_parks_at_most_once() {
        let mut w = TimerWheel::new();
        // one lone timer per level, 1 through 7: a one-level-per-cascade
        // wheel moved the level-7 one seven times
        let lone = [100u64, 5_000, 300_000, 20_000_000, 1 << 30, 1 << 36, 1 << 42];
        // four ticks sharing the level-2 slot [8192, 12288), each in a
        // level-1 slot of its own
        let shared = [8_192 + 10, 8_192 + 700, 8_192 + 1_500, 8_192 + 4_000];
        let ats: Vec<u64> = lone.iter().chain(&shared).copied().collect();
        for (seq, &at) in ats.iter().enumerate() {
            w.push(at, seq as u64, 0u32);
        }
        let mut expect: Vec<(u64, u64)> =
            ats.iter().enumerate().map(|(s, &a)| (a, s as u64)).collect();
        expect.sort();
        assert_eq!(drain_all(&mut w), expect);
        let counts = repark_counts(&w, ats.len());
        assert!(counts[..lone.len()].iter().all(|&c| c == 0), "lone timers: {counts:?}");
        // the slot's earliest tick is staged straight; the other three
        // re-park once, into level-1 slots they are alone in
        assert_eq!(&counts[lone.len()..], &[0, 1, 1, 1]);
    }

    #[test]
    fn door_shaped_timers_re_park_less_than_once_per_push() {
        // arrivals about 16.7 ms apart (a fixed LCG's exponential gaps),
        // each scheduling the next arrival and its answer 25 ms on
        let mut w = TimerWheel::new();
        let mut arrival = vec![true];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        w.push(0, 0, 0u32);
        while let Some(e) = w.pop_next(u64::MAX, |_| true) {
            if !arrival[e.seq as usize] || arrival.len() >= 20_000 {
                continue;
            }
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let u = ((rng >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            let gap = (-u.ln() * 16_667.0) as u64;
            for (delay, is_arrival) in [(gap, true), (25_000, false)] {
                w.push(e.at + delay, arrival.len() as u64, 0);
                arrival.push(is_arrival);
            }
        }
        let reparks = w.reparked.len();
        assert!(
            reparks * 4 < arrival.len(),
            "{reparks} re-parks for {} pushes",
            arrival.len()
        );
    }

    #[test]
    fn len_counts_cancelled_until_swept() {
        let mut w = TimerWheel::new();
        w.push(10, 0, 0u32);
        w.push(20, 1, 0);
        assert_eq!(w.len(), 2);
        // "cancel" seq 0: the entry stays parked until its tick comes up
        let e = w.pop_next(u64::MAX, |e| e.seq != 0).expect("live entry");
        assert_eq!(e.seq, 1);
        assert!(w.is_empty(), "the dead entry was swept on the way");
    }
}
