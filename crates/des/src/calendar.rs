//! An indexed calendar event queue for instantaneous-heavy workloads.
//!
//! [`CalendarQueue`] is a drop-in alternative to [`EventQueue`] with the
//! **same tie-break contract** — events pop in `(time ascending, priority
//! descending, insertion order)` — but a different internal shape, tuned
//! for the SAN engine's traffic at large model sizes:
//!
//! * A **slot arena** with a free list replaces the per-queue `HashSet`s
//!   of pending/cancelled ids: cancellation is an O(1) slot write, and a
//!   handle ([`CalEventId`]) is an index + generation pair that can never
//!   alias a reused slot.
//! * The **current-instant zone** holds every event scheduled at the
//!   instant currently being processed, bucketed by priority. The zone is
//!   *anchored* at that instant: it keeps the instant when its last event
//!   pops, so an event scheduled at the same instant afterwards still goes
//!   straight into a bucket. The paper model's period-1 clock is alone at
//!   its instant, and its firing activates thousands of instantaneous
//!   activities at that same instant across a handful of priority levels;
//!   each of those schedules is a deque `push_back` and each pop a
//!   `pop_front`, never a heap sift over the future-event list.
//! * A conventional binary **future heap** holds everything later than the
//!   anchor. Only an empty zone that needs a head pulls the next time
//!   cohort — every live heap entry at the minimum time, in one pass — and
//!   re-anchors at it. A schedule *earlier* than the anchor (the engine
//!   never makes one) spills the zone back to the heap and un-anchors it.
//!
//! While the zone is anchored at `t`, every live heap entry is later than
//! `t`, which is what keeps the pop order identical to [`EventQueue`]'s.
//! Equivalence is pinned by unit tests below and by a randomized
//! schedule/schedule-now/cancel/pop/peek proptest in
//! `crates/des/tests/proptest_event_queue.rs`.
//!
//! [`EventQueue`]: crate::event::EventQueue

use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Cancellation handle for an event scheduled on a [`CalendarQueue`].
///
/// Slot index plus generation: a handle kept after its event popped or
/// cancelled can never refer to a later occupant of the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CalEventId {
    slot: u32,
    generation: u32,
}

/// One arena slot. `seq` identifies the occupant: zone/heap entries carry
/// the seq they were created for, so entries left behind by a cancelled
/// (and possibly reused) slot are recognized and skipped on encounter.
#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    seq: u64,
    time: SimTime,
    priority: i32,
    live: bool,
    payload: Option<T>,
}

/// A future-heap entry; ordering matches `event::Entry`: earliest time
/// first, then highest priority, then lowest seq (insertion order).
#[derive(Debug, PartialEq, Eq)]
struct FutureEntry {
    time: SimTime,
    priority: i32,
    seq: u64,
    slot: u32,
}

impl Ord for FutureEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| self.priority.cmp(&other.priority))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for FutureEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The indexed calendar/bucket event queue. See the module docs.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
    /// The instant the zone is anchored at (`None` = unanchored: nothing
    /// popped yet, or spilled/cleared). Stays set while the zone is empty,
    /// so same-instant schedules keep bypassing the heap; every live heap
    /// entry is later than it.
    zone_time: Option<SimTime>,
    /// Priority buckets at `zone_time`, highest priority first. Each
    /// deque is in seq (insertion) order; entries carry the seq they were
    /// enqueued for so stale entries are skipped.
    zone: Vec<(i32, VecDeque<(u32, u64)>)>,
    future: BinaryHeap<FutureEntry>,
    last_popped: Option<SimTime>,
    monotonicity_check: bool,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            zone_time: None,
            zone: Vec::new(),
            future: BinaryHeap::new(),
            last_popped: None,
            monotonicity_check: false,
        }
    }

    /// Enables the event-clock monotonicity check: every subsequent
    /// [`CalendarQueue::pop`] asserts event times never decrease (same
    /// contract as [`crate::EventQueue::enable_monotonicity_check`]).
    pub fn enable_monotonicity_check(&mut self) {
        self.monotonicity_check = true;
    }

    /// Whether the monotonicity check is enabled.
    #[must_use]
    pub fn monotonicity_check_enabled(&self) -> bool {
        self.monotonicity_check
    }

    /// Number of scheduled (non-cancelled, non-popped) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` at `time` with `priority` (higher fires first
    /// at equal times). Returns a cancellation handle.
    pub fn schedule(&mut self, time: SimTime, priority: i32, payload: T) -> CalEventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.generation = s.generation.wrapping_add(1);
                s.seq = seq;
                s.time = time;
                s.priority = priority;
                s.live = true;
                s.payload = Some(payload);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("calendar slot count fits u32");
                self.slots.push(Slot {
                    generation: 0,
                    seq,
                    time,
                    priority,
                    live: true,
                    payload: Some(payload),
                });
                i
            }
        };
        self.live += 1;
        match self.zone_time {
            Some(zt) if time == zt => self.zone_insert(priority, slot, seq),
            Some(zt) if time < zt => {
                // An event landed before the instant being processed:
                // spill the zone back to the heap and let the next pull
                // re-establish the earliest cohort. (The engine never does
                // this — its clock only moves forward — but the queue
                // stays correct if a client does.)
                self.spill_zone();
                self.future.push(FutureEntry {
                    time,
                    priority,
                    seq,
                    slot,
                });
            }
            _ => self.future.push(FutureEntry {
                time,
                priority,
                seq,
                slot,
            }),
        }
        CalEventId {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Cancels a scheduled event. Returns `true` if the event was still
    /// pending; `false` if it already popped, was already cancelled, or
    /// the handle is stale. O(1): the slot is freed immediately and any
    /// zone/heap entry left behind is recognized by seq and skipped.
    pub fn cancel(&mut self, id: CalEventId) -> bool {
        let Some(s) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if !s.live || s.generation != id.generation {
            return false;
        }
        s.live = false;
        s.payload = None;
        self.free.push(id.slot);
        self.live -= 1;
        true
    }

    /// Time of the next event, without removing it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure_zone_head()
            .map(|_| self.zone_time.expect("zone set"))
    }

    /// The next event as `(time, priority, &payload)`, without removing
    /// it. Lets a caller group consecutive events before popping.
    #[must_use]
    pub fn peek(&mut self) -> Option<(SimTime, i32, &T)> {
        let (slot, _) = self.ensure_zone_head()?;
        let time = self.zone_time.expect("zone set");
        let s = &self.slots[slot as usize];
        Some((time, s.priority, s.payload.as_ref().expect("live slot")))
    }

    /// Removes and returns the next event as `(time, id, payload)`.
    /// The returned id is the (now spent) handle the event was scheduled
    /// under — callers that map ids to model state can clear the mapping.
    pub fn pop(&mut self) -> Option<(SimTime, CalEventId, T)> {
        let (slot, _) = self.ensure_zone_head()?;
        let time = self.zone_time.expect("zone set");
        // Detach the head entry.
        let bucket = &mut self.zone[0].1;
        bucket.pop_front();
        if bucket.is_empty() {
            // The zone stays anchored at `time` even if this was its last
            // event: the popped event's firing typically schedules more
            // events at this very instant.
            self.zone.remove(0);
        }
        if self.monotonicity_check {
            if let Some(last) = self.last_popped {
                assert!(
                    time >= last,
                    "event clock moved backwards: popped t={time} after t={last}"
                );
            }
            self.last_popped = Some(time);
        }
        let s = &mut self.slots[slot as usize];
        let id = CalEventId {
            slot,
            generation: s.generation,
        };
        s.live = false;
        let payload = s.payload.take().expect("live slot has payload");
        self.free.push(slot);
        self.live -= 1;
        Some((time, id, payload))
    }

    /// Drops every scheduled event.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.zone.clear();
        self.zone_time = None;
        self.future.clear();
        self.live = 0;
    }

    /// Entries on the future heap, stale ones included — lets tests pin
    /// that same-instant traffic never touches the heap.
    #[cfg(test)]
    fn future_len(&self) -> usize {
        self.future.len()
    }

    /// Inserts a live entry into the zone's priority buckets.
    fn zone_insert(&mut self, priority: i32, slot: u32, seq: u64) {
        // Buckets are sorted by priority descending; the priority alphabet
        // is tiny (the SAN engine uses < 10 levels), so a linear probe
        // beats a search structure.
        match self.zone.iter().position(|&(p, _)| p <= priority) {
            Some(i) if self.zone[i].0 == priority => self.zone[i].1.push_back((slot, seq)),
            Some(i) => self
                .zone
                .insert(i, (priority, VecDeque::from([(slot, seq)]))),
            None => self.zone.push((priority, VecDeque::from([(slot, seq)]))),
        }
    }

    /// Moves every zone entry back onto the future heap (rare path: an
    /// event was scheduled before the zone's instant).
    fn spill_zone(&mut self) {
        let Some(zt) = self.zone_time.take() else {
            return;
        };
        for (priority, bucket) in self.zone.drain(..) {
            for (slot, seq) in bucket {
                let s = &self.slots[slot as usize];
                if s.live && s.seq == seq {
                    self.future.push(FutureEntry {
                        time: zt,
                        priority,
                        seq,
                        slot,
                    });
                }
            }
        }
    }

    /// Ensures the zone's head entry is live, pulling the next time
    /// cohort from the heap (and re-anchoring the zone at its time) when
    /// the zone is empty. Returns the head `(slot, seq)` or `None` if the
    /// queue is empty, in which case the anchor is left where it was.
    fn ensure_zone_head(&mut self) -> Option<(u32, u64)> {
        loop {
            // Prune stale entries off the zone front.
            while let Some((_, bucket)) = self.zone.first_mut() {
                match bucket.front() {
                    Some(&(slot, seq)) => {
                        let s = &self.slots[slot as usize];
                        if s.live && s.seq == seq {
                            return Some((slot, seq));
                        }
                        bucket.pop_front();
                    }
                    None => {
                        self.zone.remove(0);
                    }
                }
            }
            // Pull the earliest cohort (all events at the minimum time)
            // from the heap. Heap order pops same-time entries priority-
            // descending then seq-ascending, so bucket order is right. The
            // zone is empty, so every entry pulled is later than the old
            // anchor, and the anchor moves only once a live entry exists.
            let mut cohort_time: Option<SimTime> = None;
            while let Some(top) = self.future.peek() {
                let s = &self.slots[top.slot as usize];
                if !s.live || s.seq != top.seq {
                    self.future.pop();
                    continue;
                }
                match cohort_time {
                    None => {
                        cohort_time = Some(top.time);
                    }
                    Some(t) if top.time == t => {}
                    Some(_) => break,
                }
                let e = self.future.pop().expect("peeked entry");
                self.zone_insert(e.priority, e.slot, e.seq);
            }
            match cohort_time {
                Some(t) => self.zone_time = Some(t),
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::new(2.0), 0, "b");
        q.schedule(SimTime::new(1.0), 0, "a");
        q.schedule(SimTime::new(3.0), 0, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_time_pops_priority_descending_then_insertion_order() {
        let mut q = CalendarQueue::new();
        let t = SimTime::new(5.0);
        q.schedule(t, 1, "low-first");
        q.schedule(t, 9, "high-first");
        q.schedule(t, 9, "high-second");
        q.schedule(t, 1, "low-second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(
            order,
            ["high-first", "high-second", "low-first", "low-second"]
        );
    }

    #[test]
    fn cancel_prevents_pop_and_is_idempotent() {
        let mut q = CalendarQueue::new();
        let id = q.schedule(SimTime::new(1.0), 0, "x");
        let keep = q.schedule(SimTime::new(2.0), 0, "y");
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "second cancel reports false");
        assert_eq!(q.len(), 1);
        let (t, got, p) = q.pop().unwrap();
        assert_eq!((t, got, p), (SimTime::new(2.0), keep, "y"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_handle_after_slot_reuse_is_rejected() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(SimTime::new(1.0), 0, "a");
        assert!(q.cancel(a));
        // The freed slot is reused with a bumped generation.
        let b = q.schedule(SimTime::new(2.0), 0, "b");
        assert!(!q.cancel(a), "stale handle must not cancel the new event");
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn events_scheduled_mid_instant_join_the_current_cohort() {
        // The SAN engine's instantaneous cascades do exactly this: pop an
        // event at time t, schedule more events at time t, and expect them
        // to fire before anything later — ordered by priority, then seq.
        let mut q = CalendarQueue::new();
        let t = SimTime::new(1.0);
        q.schedule(t, 5, "first");
        q.schedule(SimTime::new(2.0), 9, "later");
        let (_, _, p) = q.pop().unwrap();
        assert_eq!(p, "first");
        q.schedule(t, 3, "cascade-low");
        q.schedule(t, 7, "cascade-high");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["cascade-high", "cascade-low", "later"]);
    }

    #[test]
    fn drained_zone_stays_anchored_for_same_instant_schedules() {
        // The zone's only event pops, draining it; events scheduled at
        // that instant afterwards must still pop before the later heap
        // event, by priority, then by insertion order.
        let mut q = CalendarQueue::new();
        let t = SimTime::new(1.0);
        q.schedule(t, 0, "clock");
        q.schedule(SimTime::new(2.0), 9, "later");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("clock"));
        q.schedule(t, 3, "low-a");
        q.schedule(t, 7, "high-a");
        q.schedule(t, 3, "low-b");
        q.schedule(t, 7, "high-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["high-a", "high-b", "low-a", "low-b", "later"]);
    }

    #[test]
    fn instantaneous_cascade_never_touches_the_future_heap() {
        // The SAN clock pattern: the period-1 clock is alone at its
        // instant; popping it schedules its next tick and a cascade of
        // same-instant events, each of which schedules the next link.
        // Only the next tick may ever sit on the heap.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::new(1.0), 0, 0u32);
        for tick in 1..=3u32 {
            let (t, _, _) = q.pop().expect("clock pops");
            assert_eq!(t, SimTime::new(f64::from(tick)));
            assert_eq!(q.future_len(), 0, "zone drained, heap empty");
            q.schedule(SimTime::new(f64::from(tick + 1)), 0, 0);
            q.schedule(t, 5, 1);
            for link in 1..100u32 {
                let (now, _, p) = q.pop().expect("cascade link pops");
                assert_eq!((now, p), (t, link));
                if link < 99 {
                    q.schedule(t, 5, link + 1);
                }
                assert_eq!(q.future_len(), 1, "only the next tick is on the heap");
            }
        }
    }

    #[test]
    fn earlier_schedule_than_zone_time_spills_and_reorders() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::new(5.0), 0, "zone");
        assert_eq!(q.peek_time(), Some(SimTime::new(5.0)));
        // Zone is now at t=5; an earlier event must still pop first.
        q.schedule(SimTime::new(1.0), 0, "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["early", "zone"]);
    }

    #[test]
    fn peek_does_not_disturb_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::new(1.0), 2, 10u32);
        q.schedule(SimTime::new(1.0), 7, 20u32);
        let (t, prio, &payload) = q.peek().unwrap();
        assert_eq!((t, prio, payload), (SimTime::new(1.0), 7, 20));
        let (_, _, first) = q.pop().unwrap();
        assert_eq!(first, 20);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_tracks_schedule_cancel_pop() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(SimTime::new(1.0), 0, ());
        q.schedule(SimTime::new(2.0), 0, ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::new(1.0), 0, ());
        q.schedule(SimTime::new(2.0), 0, ());
        let _ = q.peek_time();
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "event clock moved backwards")]
    fn monotonicity_check_fires_on_backwards_pop() {
        let mut q = CalendarQueue::new();
        q.enable_monotonicity_check();
        assert!(q.monotonicity_check_enabled());
        q.schedule(SimTime::new(5.0), 0, ());
        q.pop();
        q.schedule(SimTime::new(1.0), 0, ());
        q.pop();
    }

    /// The pinning test the tentpole rests on: a mixed schedule/cancel
    /// workload driven through both queues pops in exactly the same
    /// order. (The randomized version lives in the proptest suite.)
    #[test]
    fn matches_event_queue_on_a_mixed_workload() {
        let mut old: EventQueue<u32> = EventQueue::new();
        let mut new: CalendarQueue<u32> = CalendarQueue::new();
        let mut old_ids = Vec::new();
        let mut new_ids = Vec::new();
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x1234_5678_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for i in 0..500u32 {
            match next(4) {
                0 | 1 => {
                    let t = SimTime::new(next(20) as f64);
                    let prio = next(5) as i32;
                    old_ids.push(old.schedule(t, prio, i));
                    new_ids.push(new.schedule(t, prio, i));
                }
                2 => {
                    assert_eq!(
                        old.pop().map(|(t, _, p)| (t, p)),
                        new.pop().map(|(t, _, p)| (t, p))
                    );
                }
                _ => {
                    if !old_ids.is_empty() {
                        let k = next(old_ids.len() as u64) as usize;
                        assert_eq!(old.cancel(old_ids[k]), new.cancel(new_ids[k]));
                    }
                }
            }
            assert_eq!(old.len(), new.len());
        }
        loop {
            let a = old.pop().map(|(t, _, p)| (t, p));
            let b = new.pop().map(|(t, _, p)| (t, p));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
