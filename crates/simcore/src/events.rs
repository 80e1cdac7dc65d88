//! The central event queue of the discrete-event engine.
//!
//! [`EventQueue`] is a hierarchical timing wheel in the style of the
//! kernel's timer wheel: two fixed-size near levels of slotted FIFO
//! buckets plus an overflow heap for far timers. Schedule and pop are
//! O(1) amortized for the near levels, which is where a discrete-event
//! simulation's events overwhelmingly land (device completions and CPU
//! work sit microseconds out).
//!
//! Events are ordered by `(instant, schedule sequence)`, so events at
//! the same instant pop in the order they were scheduled — the
//! determinism invariant every simulation in this workspace leans on.
//! The `wheel_matches_model_*` tests below check the pop order against
//! a plain binary-heap model. See DESIGN.md §"Engine internals" for the
//! wheel layout and the cursor invariants.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::SimTime;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The queue's total order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// Log2 of the level-0 slot width: 1024 ns (~1 µs) per slot.
const SLOT_SHIFT: u32 = 10;
/// Slots per level (both levels). 256 slots × 1 µs ≈ 262 µs near horizon.
const SLOTS: usize = 256;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Log2 of the level-1 slot width: one L1 slot spans a whole L0 wheel
/// (~262 µs); 256 of them cover ~67 ms. Anything farther is a far timer.
const L1_SHIFT: u32 = SLOT_SHIFT + 8;

/// A time-ordered queue of events with FIFO tie-breaking, implemented as
/// a hierarchical timing wheel.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which keeps simulations deterministic without requiring the
/// payload type to be `Ord`.
///
/// Wheel invariants (absolute L0 slot number = `at >> SLOT_SHIFT`):
///
/// 1. `bucket` holds every pending event whose slot ≤ `cursor`, sorted
///    **descending** by `(at, seq)` so the next event pops from the back.
/// 2. `l0[s & 255]` holds events with slot `s` ∈ (`cursor`, `cursor`+256);
///    at most one absolute slot maps to an index at a time (older
///    occupants were drained before the cursor could advance this far).
/// 3. `l1[s1 & 255]` holds events with L1 slot `s1` ∈ (`cursor1`,
///    `cursor1`+256) that are beyond the L0 window.
/// 4. `far` (a min-heap) holds only events with L1 slot ≥ `cursor1`+256;
///    `advance_cursor` re-files newly eligible far events into `l1`
///    every time `cursor1` grows, so levels never hide an earlier event.
///
/// # Example
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), 'b');
/// q.schedule(SimTime::from_nanos(10), 'c');
/// q.schedule(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Absolute L0 slot currently draining through `bucket`.
    cursor: u64,
    bucket: Vec<Entry<E>>,
    l0: Vec<Vec<Entry<E>>>,
    l0_occ: [u64; SLOTS / 64],
    l1: Vec<Vec<Entry<E>>>,
    l1_occ: [u64; SLOTS / 64],
    far: BinaryHeap<Entry<E>>,
    len: usize,
    /// Next FIFO tie-break sequence number.
    seq: u64,
}

fn slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> SLOT_SHIFT
}

fn l1_slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> L1_SHIFT
}

fn occ_set(occ: &mut [u64; SLOTS / 64], idx: usize) {
    occ[idx / 64] |= 1 << (idx % 64);
}

fn occ_clear(occ: &mut [u64; SLOTS / 64], idx: usize) {
    occ[idx / 64] &= !(1 << (idx % 64));
}

/// First occupied index at wrapped offsets `1..SLOTS` from `from`, as
/// that offset; `None` if the level is empty. The bit at `from` itself
/// is always clear (the active slot drains into the bucket, and window
/// bounds keep `from + SLOTS` out of the level), so a full wrapped scan
/// starting at `from` never yields offset 0.
fn occ_next(occ: &[u64; SLOTS / 64], from: usize) -> Option<u64> {
    const WORDS: usize = SLOTS / 64;
    let (w0, b0) = (from / 64, from % 64);
    for k in 0..=WORDS {
        let wi = (w0 + k) % WORDS;
        let mut word = occ[wi];
        if k == 0 {
            word &= !0u64 << b0; // only bits at or above `from`
        } else if k == WORDS {
            word &= !(!0u64 << b0); // the wrapped remainder below `from`
        }
        if word != 0 {
            let idx = wi * 64 + word.trailing_zeros() as usize;
            let off = (idx + SLOTS - from) % SLOTS;
            debug_assert_ne!(off, 0, "active slot bit must be clear");
            return Some(off as u64);
        }
    }
    None
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `cap` pending events.
    ///
    /// Simulations whose pending-event count has a knowable upper bound
    /// (e.g. one timer per component plus one completion per in-flight
    /// request) can pre-size once and keep the hot schedule/pop loop
    /// (nearly) allocation-free.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            cursor: 0,
            bucket: Vec::with_capacity(cap.min(1024)),
            l0: (0..SLOTS).map(|_| Vec::new()).collect(),
            l0_occ: [0; SLOTS / 64],
            l1: (0..SLOTS).map(|_| Vec::new()).collect(),
            l1_occ: [0; SLOTS / 64],
            far: BinaryHeap::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Number of events the queue can hold without reallocating its main
    /// storage (the drain bucket + far heap; the slot lists grow
    /// independently on demand).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.bucket.capacity() + self.far.capacity()
    }

    /// Schedules `payload` to fire at instant `at`, returning the FIFO
    /// tie-break seq assigned to it (callers tracking the queue's front
    /// key can min-update their cache without a peek).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.alloc_seq();
        self.len += 1;
        self.place(Entry { at, seq, payload });
        seq
    }

    /// Claims the next FIFO tie-break sequence number without
    /// scheduling anything.
    ///
    /// Engines that keep some event classes *outside* the queue (e.g. a
    /// tournament merge over per-source frontiers) draw their keys from
    /// here so queue events and merged events share one total
    /// `(time, seq)` order.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, payload)| (at, payload))
    }

    /// Removes and returns the earliest event together with its FIFO
    /// tie-break sequence number (the queue's total order is
    /// `(time, seq)`). See [`EventQueue::alloc_seq`] for how external
    /// event sources join that order.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        self.settle()?;
        let e = self.bucket.pop().expect("settled wheel has a front event");
        self.len -= 1;
        Some((e.at, e.seq, e.payload))
    }

    /// The instant of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.bucket.last() {
            return Some(e.at);
        }
        // The earliest pending event sits in the first occupied slot of
        // L0 *or* of L1: an event filed into L1 under an older cursor
        // can precede an L0 event inserted later (pop's scatter-first
        // rule covers the same case), so compare both levels.
        let l0_min = occ_next(&self.l0_occ, (self.cursor & SLOT_MASK) as usize).and_then(|off| {
            let idx = ((self.cursor + off) & SLOT_MASK) as usize;
            self.l0[idx].iter().map(|e| e.at).min()
        });
        let cursor1 = self.cursor >> 8;
        let l1_min = occ_next(&self.l1_occ, (cursor1 & SLOT_MASK) as usize).and_then(|off| {
            let idx = ((cursor1 + off) & SLOT_MASK) as usize;
            self.l1[idx].iter().map(|e| e.at).min()
        });
        match (l0_min, l1_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            // Far timers are strictly beyond the L1 window by invariant 4.
            (None, None) => self.far.peek().map(|e| e.at),
        }
    }

    /// The full `(time, seq)` key of the earliest pending event, without
    /// removing it.
    ///
    /// Takes `&mut self` because the wheel may advance its internal
    /// levels to surface the front event (storage movement only — the
    /// pop sequence is unaffected). External-frontier merges compare
    /// this key against their own candidates to decide which source pops
    /// next; unlike [`EventQueue::peek_time`], the seq resolves
    /// same-instant ties exactly.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.settle()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events and resets the queue to a clean
    /// deterministic state: the FIFO tie-break counter restarts at 0 and
    /// the cursor rewinds to the time origin, so a reused queue behaves
    /// exactly like a freshly built one. Allocated storage is kept for
    /// reuse; see [`EventQueue::reset`] to also drop it.
    pub fn clear(&mut self) {
        self.cursor = 0;
        self.bucket.clear();
        for v in &mut self.l0 {
            v.clear();
        }
        self.l0_occ = [0; SLOTS / 64];
        for v in &mut self.l1 {
            v.clear();
        }
        self.l1_occ = [0; SLOTS / 64];
        self.far.clear();
        self.len = 0;
        self.seq = 0;
    }

    /// Rebuilds the queue from scratch: like [`EventQueue::clear`], but
    /// also discards all retained storage. Use when recycling a queue
    /// across simulations of very different sizes.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Files one entry into the level its slot falls in, relative to the
    /// current cursor. Never moves the cursor.
    fn place(&mut self, e: Entry<E>) {
        let slot = slot_of(e.at);
        if slot <= self.cursor {
            // At or before the active instant (e.g. an event scheduled
            // for "now" from inside a handler): ordered insert into the
            // draining bucket, which is sorted descending by (at, seq).
            let pos = self
                .bucket
                .binary_search_by_key(&Reverse(e.key()), |p| Reverse(p.key()))
                .unwrap_err();
            self.bucket.insert(pos, e);
        } else if slot < self.cursor + SLOTS as u64 {
            let idx = (slot & SLOT_MASK) as usize;
            self.l0[idx].push(e);
            occ_set(&mut self.l0_occ, idx);
        } else {
            let s1 = l1_slot_of(e.at);
            let cursor1 = self.cursor >> 8;
            if s1 < cursor1 + SLOTS as u64 {
                let idx = (s1 & SLOT_MASK) as usize;
                self.l1[idx].push(e);
                occ_set(&mut self.l1_occ, idx);
            } else {
                self.far.push(e);
            }
        }
    }

    /// Moves the cursor forward, re-filing far timers that the larger
    /// `cursor1` window now admits (wheel invariant 4).
    fn advance_cursor(&mut self, new_cursor: u64) {
        debug_assert!(new_cursor >= self.cursor);
        self.cursor = new_cursor;
        let cursor1 = self.cursor >> 8;
        while let Some(top) = self.far.peek() {
            if l1_slot_of(top.at) < cursor1 + SLOTS as u64 {
                let e = self.far.pop().expect("peeked entry exists");
                self.place(e);
            } else {
                break;
            }
        }
    }

    /// Loads L0 slot `slot` (== the new cursor) into the drain bucket.
    fn load_bucket(&mut self, slot: u64) {
        let idx = (slot & SLOT_MASK) as usize;
        occ_clear(&mut self.l0_occ, idx);
        // append + sort keeps both the slot's and the bucket's allocation.
        let slot_vec = &mut self.l0[idx];
        self.bucket.append(slot_vec);
        // Descending by (at, seq): unique keys, so unstable sort is exact.
        self.bucket.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
    }

    /// Scatters L1 slot `s1` down into L0 after jumping the cursor to
    /// the start of its range.
    fn scatter_l1(&mut self, s1: u64) {
        self.advance_cursor(s1 << 8);
        // L0 may already hold events at exactly the boundary slot the
        // cursor just landed on (`next0 == s1 << 8`); fold them into the
        // bucket first so `place` below can't file around them.
        self.load_bucket(self.cursor);
        let idx = (s1 & SLOT_MASK) as usize;
        occ_clear(&mut self.l1_occ, idx);
        let mut pending = std::mem::take(&mut self.l1[idx]);
        for e in pending.drain(..) {
            self.place(e);
        }
        // Hand the emptied Vec back so the slot keeps its capacity.
        self.l1[idx] = pending;
    }

    /// Advances levels until the earliest pending event sits at the back
    /// of the drain bucket, and returns its key without removing it
    /// (`None` on an empty wheel). Cursor movement only ever reorders
    /// storage, never the pop sequence, so settling from a peek is
    /// unobservable.
    fn settle(&mut self) -> Option<(SimTime, u64)> {
        loop {
            if let Some(e) = self.bucket.last() {
                return Some(e.key());
            }
            let next0 = occ_next(&self.l0_occ, (self.cursor & SLOT_MASK) as usize)
                .map(|off| self.cursor + off);
            let cursor1 = self.cursor >> 8;
            let next1 =
                occ_next(&self.l1_occ, (cursor1 & SLOT_MASK) as usize).map(|off| cursor1 + off);
            // An occupied L1 slot must scatter before the L0 scan may
            // advance into (or past) its range, or its events would be
            // skipped; ties (`s1 << 8 <= slot`) also scatter first.
            match (next0, next1) {
                (Some(slot), Some(s1)) if (s1 << 8) <= slot => self.scatter_l1(s1),
                (None, Some(s1)) => self.scatter_l1(s1),
                (Some(slot), _) => {
                    self.advance_cursor(slot);
                    self.load_bucket(slot);
                }
                (None, None) => {
                    let min_at = self.far.peek()?.at;
                    self.advance_cursor(slot_of(min_at));
                    // advance_cursor re-filed every newly eligible far
                    // timer (at least the minimum); loop to drain it.
                }
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetRng, SimDuration};

    /// Reference model for the wheel: a plain min-heap on `(time, seq)`
    /// with the same FIFO tie-break counter.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        payloads: std::collections::HashMap<u64, u64>,
        seq: u64,
    }

    impl Model {
        fn schedule(&mut self, at: SimTime, payload: u64) {
            self.heap.push(Reverse((at, self.seq)));
            self.payloads.insert(self.seq, payload);
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let Reverse((at, seq)) = self.heap.pop()?;
            Some((at, self.payloads.remove(&seq).expect("payload filed")))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, _))| *at)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn with_capacity_pre_sizes_wheel_without_growth() {
        let mut q = EventQueue::<u64>::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        // Same-slot events land in the drain bucket; far timers in the
        // overflow heap. Neither may reallocate within the bound.
        for i in 0..64u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        assert_eq!(
            q.capacity(),
            cap,
            "no reallocation within the pre-sized bound"
        );
        assert_eq!(q.len(), 64);
        assert_eq!(q.bucket.len(), 64, "same-slot events fill the bucket");
        assert!(q.far.is_empty());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_nanos(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_far_timers_and_l1() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 'f'); // far heap
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        q.schedule(SimTime::from_millis(3), 'm'); // L1 range
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.schedule(SimTime::from_micros(9), 'n'); // L0 range
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.pop().unwrap().1, 'n');
        assert_eq!(q.pop().unwrap().1, 'm');
        assert_eq!(q.pop().unwrap().1, 'f');
    }

    #[test]
    fn clear_empties_queue_and_resets_fifo_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1);
        q.schedule(SimTime::from_nanos(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.seq, 0, "clear() must rewind the tie-break counter");
        // A reused queue behaves exactly like a fresh one.
        q.schedule(SimTime::from_nanos(7), 10);
        q.schedule(SimTime::from_nanos(7), 11);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 10)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 11)));
    }

    #[test]
    fn reset_rebuilds_pristine_state() {
        let mut q = EventQueue::with_capacity(512);
        for i in 0..1000u64 {
            q.schedule(SimTime::from_micros(i * 37), i);
        }
        for _ in 0..500 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.seq, 0);
        assert_eq!(q.cursor, 0);
        q.schedule(SimTime::from_nanos(3), 99);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3), 99)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), 'a');
        q.schedule(SimTime::from_nanos(15), 'c');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.schedule(SimTime::from_nanos(10), 'b');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
    }

    #[test]
    fn same_instant_reschedule_from_handler_pops_after_pending() {
        // An event scheduled for "now" while draining that instant must
        // pop after events already pending at the same instant.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(50);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 2); // "handler" re-arms at the same instant
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    /// The guarantee everything rests on: for arbitrary interleavings of
    /// schedules and pops — including same-instant ties, far timers, and
    /// re-arms at the current instant — the wheel pops the exact
    /// sequence the binary-heap model pops.
    #[test]
    fn wheel_matches_model_on_randomized_workloads() {
        for seed in 0..8u64 {
            let mut rng = DetRng::new(0xC0FFEE ^ seed);
            let mut wheel = EventQueue::new();
            let mut model = Model::default();
            let mut now = SimTime::ZERO;
            let mut next_payload = 0u64;
            for _ in 0..20_000 {
                if rng.chance(0.55) || wheel.is_empty() {
                    // Mix of near, clustered-tie, L1-range, and far offsets.
                    let offset = match rng.below(10) {
                        0 => 0,                                   // exactly "now"
                        1..=2 => rng.below(4) * 1_000,            // tie-heavy near
                        3..=6 => rng.below(200_000),              // L0 range
                        7..=8 => 300_000 + rng.below(50_000_000), // L1 range
                        _ => rng.below(5_000_000_000),            // far timers
                    };
                    let at = now + SimDuration::from_nanos(offset);
                    wheel.schedule(at, next_payload);
                    model.schedule(at, next_payload);
                    next_payload += 1;
                } else {
                    let w = wheel.pop();
                    assert_eq!(w, model.pop(), "seed {seed}: wheel diverged from model");
                    if let Some((t, _)) = w {
                        assert!(t >= now, "time went backwards");
                        now = t;
                    }
                }
                assert_eq!(wheel.len(), model.len());
                assert_eq!(wheel.peek_time(), model.peek_time());
            }
            // Drain both to the end.
            loop {
                let w = wheel.pop();
                assert_eq!(w, model.pop(), "seed {seed}: drain diverged");
                if w.is_none() {
                    break;
                }
            }
        }
    }

    /// Monotone-advancing variant that exercises L1 scatter and far-heap
    /// rebasing heavily: long quiet gaps force the cursor to jump.
    #[test]
    fn wheel_matches_model_across_long_gaps() {
        let mut rng = DetRng::new(42);
        let mut wheel = EventQueue::new();
        let mut model = Model::default();
        let mut now = SimTime::ZERO;
        for round in 0..200 {
            // A burst of events spread across all three levels...
            for _ in 0..rng.below(40) + 1 {
                let at = now + SimDuration::from_nanos(rng.below(200_000_000));
                wheel.schedule(at, round);
                model.schedule(at, round);
            }
            // ...then drain most of them, letting time leap forward.
            for _ in 0..rng.below(45) {
                let w = wheel.pop();
                assert_eq!(w, model.pop(), "round {round}");
                match w {
                    Some((t, _)) => now = t,
                    None => break,
                }
            }
        }
        loop {
            let w = wheel.pop();
            assert_eq!(w, model.pop());
            if w.is_none() {
                break;
            }
        }
    }
}
