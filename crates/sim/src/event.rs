//! Deterministic discrete-event calendar.
//!
//! The queue is the single hottest structure in the simulator: every cache
//! fill, TLB probe, walker step, and DRAM burst passes through it. The
//! implementation is a calendar wheel — a power-of-two ring of per-cycle
//! buckets covering the near future, plus a binary-heap overflow for events
//! scheduled beyond the ring. Near events (the overwhelming majority:
//! pipeline, cache, and DRAM latencies are all well under the ring span)
//! cost O(1) push and amortized-O(1) pop instead of the O(log n)
//! sift of a global heap.
//!
//! Event payloads live in a **slab**: a single grow-only arena of slots
//! threaded into per-bucket singly-linked lists through `u32` indices, with
//! a free list recycling retired slots. Scheduling an event in steady state
//! allocates nothing and moves no enum values through the calendar — a
//! bucket is just a `(head, tail)` index pair. An occupancy bitmap (one bit
//! per bucket) lets `pop` jump straight to the next occupied cycle instead
//! of draining empty buckets one at a time; the cycles skipped that way are
//! reported as `idle_cycles_skipped` (the engine surfaces them in
//! [`crate::stats::Stats`]). The jump can be disabled
//! ([`EventQueue::set_fast_forward`]) to force the legacy linear scan —
//! both paths visit the identical event sequence, which a workspace test
//! pins byte-for-byte.
//!
//! Ordering semantics are identical to the heap it replaced and are pinned
//! by differential tests below: events pop in ascending cycle order, and
//! events scheduled for the same cycle pop in the order they were pushed
//! (FIFO by a global sequence number), which keeps whole-simulation runs
//! bit-reproducible.

use crate::config::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ring span in cycles. Must be a power of two. Events scheduled less than
/// `WINDOW` cycles ahead of the calendar cursor go into the ring; the rest
/// (UVM far-faults, long DRAM refresh horizons) go to the overflow heap.
const WINDOW: u64 = 1024;
/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = (WINDOW / 64) as usize;
/// Null slab index (list terminator / empty bucket).
const NIL: u32 = u32::MAX;

/// One slab slot: an event plus its calendar linkage.
#[derive(Debug)]
struct Slot<E> {
    time: Cycle,
    seq: u64,
    /// Next slot in the same bucket's FIFO list.
    next: u32,
    /// `None` only while the slot sits on the free list.
    event: Option<E>,
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same cycle pop in the order they were pushed,
/// which keeps whole-simulation runs bit-reproducible.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pool-recycled event storage; buckets and the overflow heap hold
    /// `u32` indices into this arena.
    slab: Vec<Slot<E>>,
    /// Retired slot indices, reused LIFO.
    free: Vec<u32>,
    /// Near-future ring: bucket `t & (WINDOW-1)` is the FIFO list head for
    /// cycle `t` while `t` lies within `[cursor, cursor + WINDOW)`. Because
    /// the cursor only moves forward to popped-event times, every live
    /// bucket holds events of exactly one cycle, already in sequence order.
    heads: Vec<u32>,
    /// Tail of each bucket's list (for O(1) FIFO append).
    tails: Vec<u32>,
    /// One bit per bucket: set iff the bucket list is non-empty. `pop`
    /// scans this to jump over empty cycles in O(words) instead of
    /// O(elapsed cycles).
    occupied: [u64; OCC_WORDS],
    /// Events at least `WINDOW` cycles ahead of the cursor at the time
    /// they were scheduled. Popped by `(time, seq)` comparison against the
    /// ring head, so an early-scheduled far event still wins FIFO ties.
    overflow: BinaryHeap<Reverse<FarEntry>>,
    /// Number of events currently in the ring.
    ring_len: usize,
    /// Scan position: no pending event anywhere is earlier than `cursor`.
    cursor: Cycle,
    seq: u64,
    now: Cycle,
    /// Whether `pop` may jump over empty buckets via the occupancy bitmap.
    fast_forward: bool,
    /// Cycles jumped over while fast-forwarding (0 when disabled).
    idle_skipped: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct FarEntry {
    time: Cycle,
    seq: u64,
    slot: u32,
}

impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0 with fast-forward enabled.
    pub fn new() -> Self {
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; WINDOW as usize],
            tails: vec![NIL; WINDOW as usize],
            occupied: [0; OCC_WORDS],
            overflow: BinaryHeap::new(),
            ring_len: 0,
            cursor: 0,
            seq: 0,
            now: 0,
            fast_forward: true,
            idle_skipped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Enables or disables the empty-bucket jump. Popping order is
    /// identical either way; only the scan cost and the
    /// [`idle_cycles_skipped`](Self::idle_cycles_skipped) accounting
    /// change.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Cycles jumped over by fast-forward so far (0 while disabled).
    pub fn idle_cycles_skipped(&self) -> u64 {
        self.idle_skipped
    }

    /// Takes a slot from the free list or grows the slab.
    #[inline]
    fn alloc_slot(&mut self, time: Cycle, seq: u64, event: E) -> u32 {
        if let Some(i) = self.free.pop() {
            let s = &mut self.slab[i as usize];
            s.time = time;
            s.seq = seq;
            s.next = NIL;
            s.event = Some(event);
            i
        } else {
            let i = self.slab.len() as u32;
            self.slab.push(Slot { time, seq, next: NIL, event: Some(event) });
            i
        }
    }

    /// Schedules `event` at absolute cycle `time`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is in the past.
    pub fn schedule(&mut self, time: Cycle, event: E) {
        debug_assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc_slot(time, seq, event);
        if time - self.cursor < WINDOW {
            let b = (time & (WINDOW - 1)) as usize;
            if self.heads[b] == NIL {
                self.heads[b] = slot;
                self.occupied[b / 64] |= 1 << (b % 64);
            } else {
                self.slab[self.tails[b] as usize].next = slot;
            }
            self.tails[b] = slot;
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(FarEntry { time, seq, slot }));
        }
    }

    /// Schedules `event` `delta` cycles from now.
    pub fn schedule_in(&mut self, delta: Cycle, event: E) {
        self.schedule(self.now + delta, event);
    }

    /// Schedules `event` at `time` under a caller-assigned sequence
    /// number instead of the queue's own allocator. The engine stripes
    /// sequence numbers per actor and its domains exchange events at
    /// barriers, so a delivery can land an older seq in a bucket that
    /// already holds a directly-scheduled newer one; this insert keeps
    /// each bucket's list sorted by seq rather than blindly appending.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is in the past.
    pub fn schedule_at_seq(&mut self, time: Cycle, seq: u64, event: E) {
        debug_assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        self.seq = self.seq.max(seq + 1);
        let slot = self.alloc_slot(time, seq, event);
        if time - self.cursor < WINDOW {
            let b = (time & (WINDOW - 1)) as usize;
            if self.heads[b] == NIL {
                self.heads[b] = slot;
                self.tails[b] = slot;
                self.occupied[b / 64] |= 1 << (b % 64);
            } else if self.slab[self.tails[b] as usize].seq < seq {
                // Fast path: appending keeps the list sorted.
                self.slab[self.tails[b] as usize].next = slot;
                self.tails[b] = slot;
            } else if seq < self.slab[self.heads[b] as usize].seq {
                self.slab[slot as usize].next = self.heads[b];
                self.heads[b] = slot;
            } else {
                let mut prev = self.heads[b];
                loop {
                    let next = self.slab[prev as usize].next;
                    if next == NIL || self.slab[next as usize].seq > seq {
                        break;
                    }
                    prev = next;
                }
                let next = self.slab[prev as usize].next;
                self.slab[slot as usize].next = next;
                self.slab[prev as usize].next = slot;
                if next == NIL {
                    self.tails[b] = slot;
                }
            }
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(FarEntry { time, seq, slot }));
        }
    }

    /// `(time, seq)` of the event `pop` would return next, without
    /// popping. Read-only; the engine's window loop compares lane heads
    /// this way when choosing the next window start.
    pub fn peek_key(&self) -> Option<(Cycle, u64)> {
        let ring = if self.ring_len > 0 {
            let t = self.next_occupied();
            let head = self.heads[(t & (WINDOW - 1)) as usize];
            let s = &self.slab[head as usize];
            Some((s.time, s.seq))
        } else {
            None
        };
        let over = self.overflow.peek().map(|Reverse(e)| (e.time, e.seq));
        match (ring, over) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Cycle of the earliest non-empty ring bucket at or after `cursor`,
    /// via the occupancy bitmap: scans at most `OCC_WORDS` words.
    #[inline]
    fn next_occupied(&self) -> Cycle {
        let start = (self.cursor & (WINDOW - 1)) as usize;
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        for scanned in 0..=OCC_WORDS {
            if bits != 0 {
                let bucket = (word * 64) as u64 + bits.trailing_zeros() as u64;
                let dist = bucket.wrapping_sub(self.cursor) & (WINDOW - 1);
                return self.cursor + dist;
            }
            debug_assert!(scanned < OCC_WORDS, "ring_len desynchronized from bitmap");
            word = (word + 1) % OCC_WORDS;
            bits = self.occupied[word];
        }
        // The loop scans every OCC_WORDS word; ring_len > 0 guarantees a
        // set bit, and the debug_assert above fires first if the bitmap
        // ever desynchronizes. lint:allow(hot-path-panic)
        unreachable!("ring_len > 0 guarantees an occupied bucket");
    }

    /// Cycle of the earliest non-empty ring bucket, by the legacy
    /// one-bucket-per-cycle scan (fast-forward disabled).
    #[inline]
    fn next_occupied_scan(&self) -> Cycle {
        let mut t = self.cursor;
        loop {
            if self.heads[(t & (WINDOW - 1)) as usize] != NIL {
                return t;
            }
            t += 1;
            debug_assert!(t - self.cursor <= WINDOW, "ring_len desynchronized");
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let ring_head = if self.ring_len > 0 {
            let t = if self.fast_forward { self.next_occupied() } else { self.next_occupied_scan() };
            let head = self.heads[(t & (WINDOW - 1)) as usize];
            debug_assert_ne!(head, NIL);
            let s = &self.slab[head as usize];
            debug_assert_eq!(s.time, t, "bucket holds a foreign cycle");
            Some((s.time, s.seq))
        } else {
            None
        };
        let overflow_head = self.overflow.peek().map(|Reverse(e)| (e.time, e.seq));

        let take_ring = match (ring_head, overflow_head) {
            (Some(r), Some(o)) => r < o,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let (time, slot) = if take_ring {
            let (t, _) = ring_head.expect("take_ring implies the ring head exists");
            let b = (t & (WINDOW - 1)) as usize;
            let slot = self.heads[b];
            self.heads[b] = self.slab[slot as usize].next;
            if self.heads[b] == NIL {
                self.tails[b] = NIL;
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
            self.ring_len -= 1;
            (t, slot)
        } else {
            let Reverse(e) = self.overflow.pop().expect("overflow head vanished");
            (e.time, e.slot)
        };
        let event = self.slab[slot as usize].event.take().expect("slot holds an event");
        self.free.push(slot);
        if self.fast_forward {
            // Cycles strictly between the previous and the new clock carry
            // no events at all — they were never visited.
            self.idle_skipped += (time - self.now).saturating_sub(1);
        }
        self.now = time;
        self.cursor = time;
        Some((time, event))
    }

    /// Pops the next event only if its timestamp is strictly below
    /// `horizon`, advancing the clock to it. Returns `None` when the
    /// queue is empty or its head lies at or beyond the horizon — in
    /// the latter case the clock does not move. This is the engine's
    /// window drain primitive: a domain pops until the window's horizon
    /// without paying a separate peek scan per event.
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, E)> {
        let ring_head = if self.ring_len > 0 {
            let t = if self.fast_forward { self.next_occupied() } else { self.next_occupied_scan() };
            let head = self.heads[(t & (WINDOW - 1)) as usize];
            debug_assert_ne!(head, NIL);
            let s = &self.slab[head as usize];
            debug_assert_eq!(s.time, t, "bucket holds a foreign cycle");
            Some((s.time, s.seq))
        } else {
            None
        };
        let overflow_head = self.overflow.peek().map(|Reverse(e)| (e.time, e.seq));

        let take_ring = match (ring_head, overflow_head) {
            (Some(r), Some(o)) => {
                if r.min(o).0 >= horizon {
                    return None;
                }
                r < o
            }
            (Some(r), None) => {
                if r.0 >= horizon {
                    return None;
                }
                true
            }
            (None, Some(o)) => {
                if o.0 >= horizon {
                    return None;
                }
                false
            }
            (None, None) => return None,
        };
        let (time, slot) = if take_ring {
            let (t, _) = ring_head.expect("take_ring implies the ring head exists");
            let b = (t & (WINDOW - 1)) as usize;
            let slot = self.heads[b];
            self.heads[b] = self.slab[slot as usize].next;
            if self.heads[b] == NIL {
                self.tails[b] = NIL;
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
            self.ring_len -= 1;
            (t, slot)
        } else {
            let Reverse(e) = self.overflow.pop().expect("overflow head vanished");
            (e.time, e.slot)
        };
        let event = self.slab[slot as usize].event.take().expect("slot holds an event");
        self.free.push(slot);
        if self.fast_forward {
            self.idle_skipped += (time - self.now).saturating_sub(1);
        }
        self.now = time;
        self.cursor = time;
        Some((time, event))
    }

    /// Visits every pending event (ring and overflow) in unspecified
    /// order. Read-only; checked-mode reference audits recompute
    /// per-request refcounts this way.
    pub fn for_each_event(&self, mut f: impl FnMut(&E)) {
        for s in &self.slab {
            if let Some(e) = &s.event {
                f(e);
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Asserts the calendar's full internal consistency: slab accounting
    /// (every slot is on the free list, in a ring bucket, or in the
    /// overflow heap — exactly once), bucket-list acyclicity and FIFO
    /// sequence order, head/tail/occupancy-bitmap agreement, and that
    /// every pending event lies at or after the cursor.
    ///
    /// O(slab + WINDOW) and read-only; the engine calls it periodically in
    /// checked (`invariants` feature) builds.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn audit_invariants(&self) {
        assert_eq!(
            self.slab.len(),
            self.free.len() + self.ring_len + self.overflow.len(),
            "slab slots leaked: {} slots, {} free + {} ring + {} overflow",
            self.slab.len(),
            self.free.len(),
            self.ring_len,
            self.overflow.len()
        );
        // Every slot must be claimed by exactly one owner.
        let mut seen = vec![false; self.slab.len()];
        let mut claim = |slot: u32, role: &str| {
            let i = slot as usize;
            assert!(i < self.slab.len(), "{role} holds out-of-range slot {slot}");
            assert!(!seen[i], "slot {slot} claimed twice (second owner: {role})");
            seen[i] = true;
        };
        for &f in &self.free {
            claim(f, "free list");
            assert!(
                self.slab[f as usize].event.is_none(),
                "free slot {f} still holds an event"
            );
        }
        let mut ring_count = 0usize;
        for b in 0..WINDOW as usize {
            let head = self.heads[b];
            let bit_set = self.occupied[b / 64] >> (b % 64) & 1 == 1;
            assert_eq!(bit_set, head != NIL, "occupancy bit disagrees with bucket {b}");
            assert_eq!(head == NIL, self.tails[b] == NIL, "head/tail disagree in bucket {b}");
            let mut cur = head;
            let mut prev_seq = None;
            let mut last = NIL;
            let mut steps = 0usize;
            while cur != NIL {
                steps += 1;
                assert!(steps <= self.slab.len(), "cycle in bucket {b} list");
                claim(cur, "ring bucket");
                let s = &self.slab[cur as usize];
                assert!(s.event.is_some(), "ring slot {cur} holds no event");
                assert_eq!(
                    (s.time & (WINDOW - 1)) as usize,
                    b,
                    "slot in bucket {b} carries a time that maps elsewhere"
                );
                assert!(
                    s.time >= self.cursor && s.time - self.cursor < WINDOW,
                    "ring event at cycle {} outside window [{}, {})",
                    s.time,
                    self.cursor,
                    self.cursor + WINDOW
                );
                assert!(s.seq < self.seq, "slot seq {} from the future", s.seq);
                if let Some(p) = prev_seq {
                    assert!(s.seq > p, "bucket {b} FIFO order broken: {} after {p}", s.seq);
                }
                prev_seq = Some(s.seq);
                last = cur;
                cur = s.next;
            }
            if head != NIL {
                assert_eq!(self.tails[b], last, "tail of bucket {b} is not its last node");
            }
            ring_count += steps;
        }
        assert_eq!(ring_count, self.ring_len, "ring_len desynchronized from bucket lists");
        for Reverse(e) in self.overflow.iter() {
            claim(e.slot, "overflow heap");
            let s = &self.slab[e.slot as usize];
            assert!(s.event.is_some(), "overflow slot {} holds no event", e.slot);
            assert_eq!(
                (s.time, s.seq),
                (e.time, e.seq),
                "overflow entry disagrees with its slab slot"
            );
            assert!(e.time >= self.cursor, "overflow event at {} behind cursor {}", e.time, self.cursor);
            assert!(e.seq < self.seq, "overflow seq {} from the future", e.seq);
        }
    }

    /// Deliberately pushes an in-use slot onto the free list, breaking the
    /// slab accounting. Exists only so the checked-mode test suite can
    /// prove [`audit_invariants`](Self::audit_invariants) actually catches
    /// corruption.
    #[cfg(feature = "invariants")]
    pub fn corrupt_free_list_for_test(&mut self) {
        // Prefer double-freeing a live slot; an empty calendar gets an
        // out-of-range index instead. Either way the slab accounting no
        // longer balances.
        let victim = self
            .slab
            .iter()
            .position(|s| s.event.is_some())
            .map(|i| i as u32)
            .unwrap_or(self.slab.len() as u32 + 7);
        self.free.push(victim);
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Heap entry for the oracle below (the slab queue no longer stores
    /// events inline, so the oracle keeps its own owning entry type).
    struct Entry<E> {
        time: Cycle,
        seq: u64,
        event: E,
    }
    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            (self.time, self.seq) == (other.time, other.seq)
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.seq).cmp(&(other.time, other.seq))
        }
    }

    /// The pre-calendar implementation — a single binary heap ordered by
    /// `(time, seq)` — kept as the ordering oracle for differential tests.
    struct ClassicHeap<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
        now: Cycle,
    }

    impl<E> ClassicHeap<E> {
        fn new() -> Self {
            Self { heap: BinaryHeap::new(), seq: 0, now: 0 }
        }
        fn schedule(&mut self, time: Cycle, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry { time, seq, event }));
        }
        fn pop(&mut self) -> Option<(Cycle, E)> {
            let Reverse(e) = self.heap.pop()?;
            self.now = e.time;
            Some((e.time, e.event))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.schedule_in(3, ());
        assert_eq!(q.pop(), Some((10, ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = EventQueue::new();
        q.schedule(WINDOW * 10, "far");
        q.schedule(3, "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((WINDOW * 10, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_wins_fifo_tie_against_ring() {
        // An event scheduled early (low seq) for a then-distant cycle must
        // still pop before a later-scheduled (high seq) event for the same
        // cycle, even though the former sits in the overflow heap and the
        // latter entered the ring once the cursor caught up.
        let mut q = EventQueue::new();
        let t = WINDOW + 100;
        q.schedule(t, "early-far"); // seq 0, overflow
        q.schedule(200, "mid"); // seq 1, ring
        assert_eq!(q.pop(), Some((200, "mid")));
        // Cursor is now 200; t - cursor < WINDOW, so this lands in the ring.
        q.schedule(t, "late-near"); // seq 2, ring
        assert_eq!(q.pop(), Some((t, "early-far")));
        assert_eq!(q.pop(), Some((t, "late-near")));
    }

    #[test]
    fn bucket_aliasing_across_windows_is_impossible_but_checked() {
        // Events exactly WINDOW apart share a bucket index; the second must
        // go to overflow until the cursor advances.
        let mut q = EventQueue::new();
        q.schedule(1, "a");
        q.schedule(1 + WINDOW, "b");
        q.schedule(1 + 2 * WINDOW, "c");
        assert_eq!(q.pop(), Some((1, "a")));
        assert_eq!(q.pop(), Some((1 + WINDOW, "b")));
        assert_eq!(q.pop(), Some((1 + 2 * WINDOW, "c")));
    }

    /// Differential test: random schedule/pop interleavings produce the
    /// exact same (time, event) stream as the classic binary heap. This is
    /// the property the whole simulator's bit-reproducibility rests on.
    #[test]
    fn differential_matches_classic_heap() {
        for trial in 0..50u64 {
            let mut rng = SimRng::seed_from_u64(0xD1FF ^ trial);
            let mut calendar = EventQueue::new();
            // Cover both pop paths: bitmap jump and legacy linear scan.
            calendar.set_fast_forward(trial % 2 == 0);
            let mut classic = ClassicHeap::new();
            let mut next_tag = 0u32;
            for _ in 0..2000 {
                // Biased interleaving: mostly schedules early, mostly pops
                // late, with occasional same-cycle bursts to stress FIFO.
                if rng.next_f64() < 0.55 {
                    let horizon = if rng.next_f64() < 0.1 {
                        // Stress the overflow heap and ring hand-off.
                        WINDOW * 4
                    } else {
                        WINDOW / 2
                    };
                    let t = calendar.now() + rng.next_below(horizon);
                    let burst = 1 + rng.index(4);
                    for _ in 0..burst {
                        calendar.schedule(t, next_tag);
                        classic.schedule(t, next_tag);
                        next_tag += 1;
                    }
                } else {
                    assert_eq!(calendar.pop(), classic.pop(), "trial {trial} diverged");
                    assert_eq!(calendar.now(), classic.now);
                }
            }
            // Drain both completely.
            loop {
                let (a, b) = (calendar.pop(), classic.pop());
                assert_eq!(a, b, "trial {trial} diverged during drain");
                if a.is_none() {
                    break;
                }
            }
            assert!(calendar.is_empty());
            assert_eq!(calendar.len(), 0);
        }
    }

    #[test]
    fn len_tracks_ring_and_overflow() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(5, 0);
        q.schedule(WINDOW * 2, 1);
        q.schedule(5, 2);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn fast_forward_counts_skipped_idle_cycles() {
        let mut q = EventQueue::new();
        q.schedule(10, "a"); // skips cycles 1..=9 -> 9 idle
        q.schedule(10, "b"); // same cycle -> no idle
        q.schedule(12, "c"); // skips cycle 11 -> 1 idle
        q.schedule(WINDOW * 3, "far"); // overflow pop also fast-forwards
        while q.pop().is_some() {}
        assert_eq!(q.idle_cycles_skipped(), 9 + 1 + (WINDOW * 3 - 12 - 1));
    }

    #[test]
    fn disabled_fast_forward_reports_zero_idle() {
        let mut q = EventQueue::new();
        q.set_fast_forward(false);
        q.schedule(10, "a");
        q.schedule(500, "b");
        while q.pop().is_some() {}
        assert_eq!(q.idle_cycles_skipped(), 0);
    }

    #[test]
    fn audit_passes_under_random_churn() {
        let mut q = EventQueue::new();
        q.audit_invariants();
        let mut rng = SimRng::seed_from_u64(0xA0D1);
        for step in 0..3000u32 {
            if rng.next_f64() < 0.6 {
                let horizon = if rng.next_f64() < 0.1 { WINDOW * 3 } else { WINDOW / 2 };
                let t = q.now() + rng.next_below(horizon);
                q.schedule(t, step);
            } else {
                q.pop();
            }
            if step % 64 == 0 {
                q.audit_invariants();
            }
        }
        while q.pop().is_some() {}
        q.audit_invariants();
    }

    #[test]
    fn for_each_event_visits_exactly_the_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(5, 1u32);
        q.schedule(WINDOW * 2, 2); // overflow
        q.schedule(5, 3);
        q.pop(); // retire event 1; its slot goes to the free list
        let mut seen = Vec::new();
        q.for_each_event(|e| seen.push(*e));
        seen.sort_unstable();
        assert_eq!(seen, vec![2, 3]);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut q = EventQueue::new();
        // Steady-state churn: never more than 4 events live, so the slab
        // should never grow past the high-water mark.
        for round in 0..1000u64 {
            for k in 0..4 {
                q.schedule_in(1 + k, round * 10 + k);
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(q.slab.len() <= 8, "slab grew to {} despite recycling", q.slab.len());
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_at_seq_restores_fifo_order() {
        // Out-of-seq inserts into one bucket (what a barrier drain does
        // after direct schedules landed first) must still pop in seq
        // order, and the queue's own allocator must resume past the max.
        let mut q = EventQueue::new();
        q.schedule_at_seq(5, 10, "d");
        q.schedule_at_seq(5, 3, "a");
        q.schedule_at_seq(5, 7, "c");
        q.schedule_at_seq(5, 4, "b");
        q.schedule_at_seq(9, 1, "z");
        q.audit_invariants();
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.pop(), Some((5, "d")));
        assert_eq!(q.pop(), Some((9, "z")));
        // The allocator resumed after seq 10: the next plain schedule
        // gets seq 11, and later inserts interleave by seq as expected.
        q.schedule(20, "w"); // seq 11
        q.schedule_at_seq(20, 13, "y");
        q.schedule(20, "x"); // seq 14, after the explicit 13
        assert_eq!(q.pop(), Some((20, "w")));
        assert_eq!(q.pop(), Some((20, "y")));
        assert_eq!(q.pop(), Some((20, "x")));
    }

    #[test]
    fn schedule_at_seq_routes_far_events_to_overflow() {
        let mut q = EventQueue::new();
        q.schedule_at_seq(WINDOW * 5, 2, "far");
        q.schedule_at_seq(1, 9, "near");
        q.audit_invariants();
        assert_eq!(q.pop(), Some((1, "near")));
        assert_eq!(q.pop(), Some((WINDOW * 5, "far")));
    }

    #[test]
    fn peek_key_matches_pop() {
        let mut rng = SimRng::seed_from_u64(0xBEEF);
        let mut q = EventQueue::new();
        for step in 0..2000u32 {
            if rng.next_f64() < 0.55 {
                let horizon = if rng.next_f64() < 0.1 { WINDOW * 4 } else { WINDOW / 2 };
                q.schedule(q.now() + rng.next_below(horizon), step);
            } else {
                let peeked = q.peek_key();
                let popped = q.pop();
                assert_eq!(peeked.map(|(t, _)| t), popped.map(|(t, _)| t));
                if let (Some((_, s1)), Some((_, s2))) = (peeked, q.peek_key()) {
                    assert!(s1 != s2, "peek did not advance past the popped event");
                }
            }
        }
    }

    #[test]
    fn pop_before_respects_horizon_and_matches_pop() {
        let mut rng = SimRng::seed_from_u64(0xFACE);
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for step in 0..3000u32 {
            if rng.next_f64() < 0.6 {
                let span = if rng.next_f64() < 0.1 { WINDOW * 3 } else { WINDOW / 2 };
                let t = a.now() + rng.next_below(span);
                a.schedule(t, step);
                b.schedule(t, step);
            } else {
                // `pop_before(now + k)` must return exactly what `pop`
                // would, whenever the head falls below the horizon — and
                // must not move the clock when it does not.
                let horizon = a.now() + rng.next_below(WINDOW);
                let head = a.peek_key();
                let got = a.pop_before(horizon);
                match head {
                    Some((t, _)) if t < horizon => {
                        assert_eq!(got, b.pop());
                    }
                    _ => {
                        assert_eq!(got, None);
                        assert_eq!(a.now(), b.now(), "refused pop must not advance the clock");
                    }
                }
                assert_eq!(a.peek_key(), b.peek_key());
            }
        }
        assert_eq!(a.len(), b.len());
    }

    /// Per-actor striped sequence numbers make the global `(time, seq)`
    /// order independent of how actors are packed into queues: replaying
    /// the same striped schedule into one queue or into two and merging by
    /// key yields the identical stream. This is the property the engine's
    /// two domains rely on: their merged order is a pure function of the
    /// striped schedule.
    #[test]
    fn striped_seqs_are_packing_invariant() {
        const ACTORS: u64 = 5;
        let mut rng = SimRng::seed_from_u64(0x571219ED);
        // (time, seq, actor) schedule: each actor owns seqs ≡ actor (mod ACTORS).
        let mut counters = [0u64; ACTORS as usize];
        let mut sched: Vec<(Cycle, u64, u64)> = Vec::new();
        let mut t = 0u64;
        for _ in 0..800 {
            t += rng.next_below(3);
            let actor = rng.next_below(ACTORS);
            let seq = counters[actor as usize] * ACTORS + actor;
            counters[actor as usize] += 1;
            sched.push((t, seq, actor));
        }

        let mut single = EventQueue::new();
        for &(t, s, a) in &sched {
            single.schedule_at_seq(t, s, a);
        }
        let mut expect = Vec::new();
        while let Some((t, a)) = single.pop() {
            expect.push((t, a));
        }

        // Partition actors into two lanes and merge by (time, seq) key.
        for split in 1..ACTORS {
            let mut lanes = [EventQueue::new(), EventQueue::new()];
            for &(t, s, a) in &sched {
                lanes[usize::from(a >= split)].schedule_at_seq(t, s, a);
            }
            let mut merged = Vec::new();
            loop {
                let pick = match (lanes[0].peek_key(), lanes[1].peek_key()) {
                    (Some(k0), Some(k1)) => usize::from(k1 < k0),
                    (Some(_), None) => 0,
                    (None, Some(_)) => 1,
                    (None, None) => break,
                };
                let (t, a) = lanes[pick].pop().expect("peeked head exists");
                merged.push((t, a));
            }
            assert_eq!(merged, expect, "packing split at {split} changed the stream");
        }
    }
}
