//! Future-event queues.
//!
//! Three future-event lists implement [`EventQueue`]:
//!
//! * [`HeapQueue`] — a binary heap keyed by `(time, seq)` with a monotone
//!   sequence number breaking ties deterministically. O(log n) per
//!   operation, no tuning knobs; the reference implementation.
//! * [`CalendarQueue`] — the classic O(1)-amortized calendar queue with
//!   sorted buckets and Brown-style dynamic resizing.
//! * [`LaneQueue`] — the simulator's queue (see `EngineSpec`): an ordered
//!   FIFO lane beside a calendar, one sequence counter shared by both.
//!   Events offered in time order (unit-service departures, scheduled at
//!   `now + 1` with `now` non-decreasing) append to the FIFO; everything
//!   else, and any offer that would break the FIFO's order, goes to the
//!   calendar. Both lanes stay sorted by `(time, seq)`, so popping the
//!   smaller head gives the order of one queue holding everything.
//!
//! All three pop events in exactly the same `(time, seq)` order, so a
//! simulation produces bit-identical results whichever queue drives it —
//! the cross-queue property tests below and the engine-equivalence suite
//! pin that guarantee.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An entry in a future-event queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled<E> {
    /// Firing time.
    pub time: f64,
    /// Tie-break sequence number (monotone per push).
    pub seq: u64,
    /// Payload.
    pub event: E,
}

impl<E> Eq for Scheduled<E> where E: PartialEq {}

impl<E: PartialEq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: PartialEq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list.
pub trait EventQueue<E> {
    /// Schedules `event` at `time`.
    fn schedule(&mut self, time: f64, event: E);
    /// Removes and returns the earliest event.
    fn next(&mut self) -> Option<(f64, E)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Binary-heap event queue (the reference implementation).
#[derive(Debug)]
pub struct HeapQueue<E: PartialEq> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E: PartialEq> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PartialEq> HeapQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E: PartialEq> EventQueue<E> for HeapQueue<E> {
    #[inline]
    fn schedule(&mut self, time: f64, event: E) {
        debug_assert!(time.is_finite(), "cannot schedule at non-finite time");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    #[inline]
    fn next(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Smallest and largest bucket-width exponents the calendar accepts.
///
/// Widths are powers of two inside this range, so `time / width` is an
/// exact float operation and bucket assignment can never disagree with the
/// cursor arithmetic (see [`CalendarQueue`]). With `|exp| ≤ 24` and event
/// times below `2^28` time units, every virtual bucket index stays well
/// under `2^53` and all conversions are exact.
const MIN_WIDTH_EXP: i32 = -24;
const MAX_WIDTH_EXP: i32 = 24;

/// Upper bound on the bucket count (a memory guard, ~64 MiB of headers).
const MAX_BUCKETS: usize = 1 << 22;

/// Ceiling on virtual bucket indices (see `CalendarQueue::vbucket`): far
/// enough below `u64::MAX` that the cursor can still advance whole laps
/// past it without overflowing.
const VB_CAP: u64 = u64::MAX - 2 * (MAX_BUCKETS as u64) - 2;

/// Rounds `w` to the nearest power of two inside the supported range.
fn round_width(w: f64) -> f64 {
    assert!(w > 0.0 && w.is_finite(), "bucket width must be positive");
    let exp = w
        .log2()
        .round()
        .clamp(f64::from(MIN_WIDTH_EXP), f64::from(MAX_WIDTH_EXP));
    f64::exp2(exp)
}

/// A production calendar queue: an array of time buckets of power-of-two
/// width, scanned cyclically, each bucket kept sorted so the next event
/// pops in O(1).
///
/// Design notes (all load-bearing for the bit-identical-order guarantee):
///
/// * **Sorted buckets.** Each bucket is a `Vec` sorted *descending* by
///   `(time, seq)`, so the bucket minimum sits at the tail: `next()` is a
///   bounds check plus `pop()`, and `schedule` is a binary search plus an
///   insert into a short vector.
/// * **Exact bucket math.** The width is always a power of two
///   (`round_width`), so `time / width` only adjusts the float exponent
///   and the virtual bucket index `⌊time / width⌋` is computed exactly —
///   bucket assignment, cursor laps and the "does this event belong to the
///   current lap" test can never disagree by a rounding error.
/// * **Past events land under the cursor.** An event scheduled at or
///   before the cursor's bucket window goes into the *cursor* bucket, so it
///   pops next rather than waiting a full lap for the cursor to come back
///   around (the pre-overhaul implementation had exactly that bug).
/// * **Brown-style resizing.** When the event count outgrows (or far
///   undershoots) the bucket count, the calendar rebuilds to match it; a
///   bucket overloaded with events re-keys the width to its local density
///   of *distinct* times (tied events cannot be split by any width), so
///   the hot window stays at O(1) times per bucket whatever the
///   workload's time scale.
/// * **Empty-lap jump.** If a whole lap passes without a pop (all pending
///   events far in the future), the cursor jumps straight to the earliest
///   pending bucket instead of spinning lap by lap.
///
/// Together these give amortized O(1) `schedule`/`next` while popping in
/// exactly the same `(time, seq)` order as [`HeapQueue`].
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// Buckets, each sorted descending by `(time, seq)` (minimum at tail).
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Bucket width; always a power of two in `[2^-24, 2^24]`.
    width: f64,
    /// `1 / width` (exact for powers of two): bucket assignment is a
    /// multiply, not a divide.
    inv_width: f64,
    /// Virtual index of the cursor bucket: `⌊cursor time / width⌋`.
    cursor_vb: u64,
    /// `cursor_vb % buckets.len()`, cached.
    cursor: usize,
    /// Total pending events (buckets + overflow).
    len: usize,
    /// Monotone tie-break counter.
    seq: u64,
    /// Events beyond the current calendar span, repatriated lazily.
    overflow: Vec<Scheduled<E>>,
    /// The bucket count never shrinks below this floor.
    min_buckets: usize,
    /// Cursor advances since the last rebuild (width-too-narrow signal).
    advances: u64,
    /// Pops since the last rebuild.
    pops: u64,
}

/// A single bucket holding more than this many events triggers a
/// density-keyed width resize (the Brown adaptation signal).
const OVERLOAD: usize = 16;

impl<E> CalendarQueue<E> {
    /// Creates a calendar with `nbuckets` buckets (rounded up to a power
    /// of two, so ring arithmetic is a mask instead of a modulo) of
    /// roughly `width` time units (rounded to the nearest power of two for
    /// exact bucket math). The calendar resizes itself as the population
    /// grows or shrinks; `nbuckets` is the initial geometry and the shrink
    /// floor.
    ///
    /// # Panics
    ///
    /// Panics if `nbuckets == 0` or `width` is not positive and finite.
    #[must_use]
    pub fn new(nbuckets: usize, width: f64) -> Self {
        assert!(nbuckets > 0, "calendar needs at least one bucket");
        let nbuckets = nbuckets.next_power_of_two().min(MAX_BUCKETS);
        let width = round_width(width);
        Self {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            width,
            inv_width: 1.0 / width,
            cursor_vb: 0,
            cursor: 0,
            len: 0,
            seq: 0,
            overflow: Vec::new(),
            min_buckets: nbuckets,
            advances: 0,
            pops: 0,
        }
    }

    /// A calendar sized for a simulation expected to hold about
    /// `expected_events` concurrent events with service times of order one
    /// time unit. The geometry is only a starting point — resizing keys the
    /// width to the density actually observed.
    #[must_use]
    pub fn for_simulation(expected_events: usize) -> Self {
        let nbuckets = (2 * expected_events.max(1))
            .next_power_of_two()
            .clamp(64, 1 << 16);
        let mut cal = Self::new(nbuckets, 1.0 / 32.0);
        cal.min_buckets = 64;
        cal
    }

    /// The virtual bucket index of `time` — exact because `width` is a
    /// power of two (`time * 2^k` only shifts the exponent).
    ///
    /// Capped at [`VB_CAP`] so a huge `time / width` ratio (the f64→u64
    /// cast saturates at `u64::MAX`) cannot overflow the cursor
    /// arithmetic: capped events share one far-future virtual bucket,
    /// where the sorted-bucket `(time, seq)` order still pops them
    /// correctly, and the cursor — which never moves past the earliest
    /// pending event's bucket by more than one lap — stays clear of
    /// `u64::MAX`.
    #[inline]
    fn vbucket(&self, time: f64) -> u64 {
        debug_assert!(time >= 0.0, "calendar times must be non-negative");
        ((time * self.inv_width) as u64).min(VB_CAP)
    }

    /// Inserts into the right bucket (or overflow). Does not touch `len`.
    /// Returns the bucket index used and the event's position in it
    /// (`None` for overflow).
    ///
    /// `NEWEST` marks a fresh `file` call: the event then carries the
    /// largest sequence number ever issued, so among equal times it sorts
    /// before every resident entry and comparing times alone suffices.
    /// Re-placement during rebuilds and overflow repatriation moves *old*
    /// events and must compare the full `(time, seq)` key.
    #[inline]
    fn place<const NEWEST: bool>(&mut self, s: Scheduled<E>) -> Option<(usize, usize)> {
        let n = self.buckets.len() as u64;
        let vb = self.vbucket(s.time);
        if vb >= self.cursor_vb.saturating_add(n) {
            self.overflow.push(s);
            return None;
        }
        // An event at or before the cursor's window goes into the cursor
        // bucket so it is found *now*, not a full lap later.
        let idx = if vb <= self.cursor_vb {
            self.cursor
        } else {
            // The bucket count is always a power of two: mask, not modulo.
            (vb & (n - 1)) as usize
        };
        let bucket = &mut self.buckets[idx];
        // Descending by (time, seq); see the `NEWEST` contract above.
        let pos = if NEWEST {
            bucket.partition_point(|x| x.time > s.time)
        } else {
            bucket.partition_point(|x| (x.time, x.seq) > (s.time, s.seq))
        };
        bucket.insert(pos, s);
        Some((idx, pos))
    }

    /// Pulls overflow events whose bucket now lies within the calendar
    /// span back into the buckets.
    fn repatriate_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        for s in std::mem::take(&mut self.overflow) {
            self.place::<false>(s); // re-defers anything still beyond the span
        }
    }

    /// Jumps the cursor to the earliest pending event's bucket, or to
    /// `limit_vb` if that comes first (called after a full lap produced no
    /// pop, so every pending event is ahead of the cursor).
    fn jump_to_min(&mut self, limit_vb: u64) {
        debug_assert!(self.len > 0);
        let mut min_vb = u64::MAX;
        for bucket in &self.buckets {
            if let Some(last) = bucket.last() {
                min_vb = min_vb.min(self.vbucket(last.time));
            }
        }
        for s in &self.overflow {
            min_vb = min_vb.min(self.vbucket(s.time));
        }
        // A silent lap re-checked every bucket before over-running it, so
        // nothing pending lies behind the cursor; the earliest bucket can
        // coincide with the cursor's, never precede it.
        debug_assert!(min_vb >= self.cursor_vb && limit_vb >= self.cursor_vb);
        self.cursor_vb = min_vb.min(limit_vb);
        self.cursor = (self.cursor_vb & (self.buckets.len() as u64 - 1)) as usize;
        self.repatriate_overflow();
    }

    /// The bucket count matched to the current population: ~1 bucket per
    /// event (occupancy near one balances cursor advances against
    /// sorted-insert work).
    fn target_buckets(&self) -> usize {
        self.len
            .max(1)
            .next_power_of_two()
            .clamp(self.min_buckets, MAX_BUCKETS)
    }

    /// Rebuilds the calendar with the given geometry, re-anchoring the
    /// cursor at the same point in time and re-distributing every pending
    /// event.
    fn rebuild(&mut self, nbuckets: usize, width: f64) {
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        all.append(&mut self.overflow);
        // cursor_vb * width is exact: power-of-two scaling.
        let now = self.cursor_vb as f64 * self.width;
        self.width = width;
        self.inv_width = 1.0 / width;
        // Same cap as `vbucket`: a width-narrowing rebuild while the
        // cursor sits in the capped far-future bucket must not saturate
        // the cursor to `u64::MAX` (which would funnel every future event
        // into one bucket).
        self.cursor_vb = ((now * self.inv_width) as u64).min(VB_CAP);
        if nbuckets != self.buckets.len() {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        }
        self.cursor = (self.cursor_vb & (nbuckets as u64 - 1)) as usize;
        self.advances = 0;
        self.pops = 0;
        for s in all {
            self.place::<false>(s);
        }
    }

    /// Files `event` at `time` under the caller-given sequence number
    /// `seq`, which must exceed every sequence number filed before it (the
    /// `NEWEST` contract of `place`).
    #[inline]
    fn file(&mut self, time: f64, seq: u64, event: E) {
        debug_assert!(time.is_finite() && time >= 0.0);
        self.len += 1;
        let placed = self.place::<true>(Scheduled { time, seq, event });
        // Grow: keep the expected occupancy below one event per bucket.
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.target_buckets(), self.width);
            return;
        }
        // Density overload: one bucket collecting many events means the
        // width is too coarse for the hot window. Re-key it to that
        // bucket's *local* density (Brown's adaptation, deterministic,
        // and robust against far-future outliers that poison any global
        // range estimate).
        //
        // The density is that of distinct times: narrowing can never split
        // a tie, so tied clumps (unit-service chains started together)
        // must not drive the width down. An event that ties a resident
        // adds no distinct time and skips the check; otherwise the sorted
        // bucket's ties are adjacent, so one pass counts its times.
        if let Some((idx, pos)) = placed {
            let bucket = &self.buckets[idx];
            // The newest event sorts before its equal-time peers, so a
            // tie sits right behind it.
            let tied = bucket.get(pos + 1).is_some_and(|x| x.time == time);
            if bucket.len() > OVERLOAD && !tied {
                let range = bucket[0].time - bucket[bucket.len() - 1].time;
                if range > 0.0 && round_width(2.0 * range / bucket.len() as f64) < self.width {
                    let distinct = 1 + bucket.windows(2).filter(|p| p[0].time != p[1].time).count();
                    if distinct > OVERLOAD {
                        let w = round_width(2.0 * range / distinct as f64);
                        if w < self.width {
                            self.rebuild(self.target_buckets(), w);
                        }
                    }
                }
            }
        }
    }

    /// The cursor scan: advances the cursor to the bucket holding the
    /// earliest pending event and returns that event's `(time, seq)` key,
    /// leaving the event in place for [`pop`](Self::pop).
    ///
    /// The cursor never moves past virtual bucket `limit_vb` (`u64::MAX`
    /// for no limit). When nothing is due by then the scan returns `None`
    /// and every pending event lies after `limit_vb`'s bucket — so a caller
    /// holding an earlier event elsewhere can pop that one first without
    /// the cursor running ahead of the simulated clock.
    #[inline]
    fn scan(&mut self, limit_vb: u64) -> Option<(f64, u64)> {
        if self.len == 0 {
            return None;
        }
        let mut empty_advances = 0usize;
        loop {
            if let Some(last) = self.buckets[self.cursor].last() {
                if self.vbucket(last.time) <= self.cursor_vb {
                    return Some((last.time, last.seq));
                }
            }
            if self.cursor_vb >= limit_vb {
                return None;
            }
            // Nothing due in this bucket's current window: advance.
            self.cursor_vb += 1;
            self.cursor += 1;
            self.advances += 1;
            if self.cursor == self.buckets.len() {
                self.cursor = 0;
                self.repatriate_overflow();
            }
            empty_advances += 1;
            if empty_advances > self.buckets.len() {
                // A full silent lap: everything pending is far ahead.
                self.jump_to_min(limit_vb);
                empty_advances = 0;
            }
        }
    }

    /// Removes the event the preceding [`scan`](Self::scan) returned.
    #[inline]
    fn pop(&mut self) -> Scheduled<E> {
        let s = self.buckets[self.cursor]
            .pop()
            .expect("pop follows a scan that found a due event");
        self.len -= 1;
        self.pops += 1;
        if self.buckets.len() > self.min_buckets && 4 * self.len < self.buckets.len() {
            self.rebuild(self.target_buckets(), self.width);
        } else if self.advances > 8 * self.pops + 2 * self.buckets.len() as u64 {
            // Chronically sparse laps: the width is too narrow for the
            // event spread — widen it.
            let w = round_width(self.width * 8.0);
            if w > self.width {
                self.rebuild(self.target_buckets(), w);
            } else {
                self.advances = 0;
                self.pops = 0;
            }
        }
        s
    }
}

impl<E> EventQueue<E> for CalendarQueue<E> {
    #[inline]
    fn schedule(&mut self, time: f64, event: E) {
        self.seq += 1;
        self.file(time, self.seq - 1, event);
    }

    #[inline]
    fn next(&mut self) -> Option<(f64, E)> {
        self.scan(u64::MAX)?;
        let s = self.pop();
        Some((s.time, s.event))
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The engine's future-event list: an ordered FIFO lane beside a
/// [`CalendarQueue`], sharing one sequence counter.
///
/// [`schedule_ordered`](Self::schedule_ordered) appends to the FIFO when
/// the event is not earlier than the FIFO's last entry and otherwise files
/// it into the calendar; [`EventQueue::schedule`] always uses the
/// calendar. Either way the event gets the next number from the shared
/// counter, exactly the number a lone calendar would have given it. Both
/// lanes are sorted by `(time, seq)` — the FIFO because it only ever
/// appends a key no smaller than its back — so popping whichever head has
/// the smaller key yields the same `(time, seq)` order as one queue
/// holding everything, bit for bit the order of [`HeapQueue`].
///
/// The lane pays off when most events arrive already in time order:
/// unit-service departures are scheduled at `now + 1` with `now`
/// non-decreasing, so they skip the calendar's bucket arithmetic and
/// sorted inserts, and the calendar only holds the events that need it.
/// Exponential service and unequal per-edge rates fall back to the
/// calendar through the same test, event by event.
#[derive(Debug)]
pub struct LaneQueue<E> {
    /// Events offered in time order, sorted by `(time, seq)`.
    fifo: VecDeque<Scheduled<E>>,
    /// Everything else.
    cal: CalendarQueue<E>,
    /// Monotone tie-break counter shared by both lanes.
    seq: u64,
}

impl<E> LaneQueue<E> {
    /// A lane queue whose general lane is `calendar`.
    ///
    /// # Panics
    ///
    /// Panics if `calendar` already holds events (their sequence numbers
    /// would collide with the shared counter's).
    #[must_use]
    pub fn new(calendar: CalendarQueue<E>) -> Self {
        assert!(calendar.is_empty(), "a lane queue starts empty");
        Self {
            fifo: VecDeque::new(),
            cal: calendar,
            seq: 0,
        }
    }

    /// Schedules `event` at `time`, appending it to the ordered lane when
    /// `time` is not earlier than that lane's last entry and filing it
    /// into the calendar otherwise. Pop order is the same as
    /// [`EventQueue::schedule`] would give.
    #[inline]
    pub fn schedule_ordered(&mut self, time: f64, event: E) {
        debug_assert!(time.is_finite() && time >= 0.0);
        let seq = self.seq;
        self.seq += 1;
        match self.fifo.back() {
            Some(back) if time < back.time => self.cal.file(time, seq, event),
            _ => self.fifo.push_back(Scheduled { time, seq, event }),
        }
    }
}

impl<E> EventQueue<E> for LaneQueue<E> {
    #[inline]
    fn schedule(&mut self, time: f64, event: E) {
        self.seq += 1;
        self.cal.file(time, self.seq - 1, event);
    }

    #[inline]
    fn next(&mut self) -> Option<(f64, E)> {
        // The calendar scan stops at the FIFO head's bucket, so its cursor
        // never runs ahead of the earliest pending event.
        let head = self.fifo.front().map(|f| (f.time, f.seq));
        let limit_vb = head.map_or(u64::MAX, |(t, _)| self.cal.vbucket(t));
        let s = match (self.cal.scan(limit_vb), head) {
            (Some(c), Some(f)) if f < c => self.fifo.pop_front(),
            (Some(_), _) => Some(self.cal.pop()),
            (None, _) => self.fifo.pop_front(),
        }?;
        Some((s.time, s.event))
    }

    fn len(&self) -> usize {
        self.fifo.len() + self.cal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn heap_orders_by_time_then_seq() {
        let mut q = HeapQueue::new();
        q.schedule(2.0, "b");
        q.schedule(1.0, "a");
        q.schedule(2.0, "c");
        assert_eq!(q.next(), Some((1.0, "a")));
        assert_eq!(q.next(), Some((2.0, "b"))); // earlier seq first
        assert_eq!(q.next(), Some((2.0, "c")));
        assert_eq!(q.next(), None);
    }

    #[test]
    fn widths_round_to_powers_of_two() {
        assert_eq!(round_width(1.0), 1.0);
        assert_eq!(round_width(0.75), 1.0);
        assert_eq!(round_width(0.125), 0.125);
        assert_eq!(round_width(3.0), 4.0);
        assert_eq!(round_width(1e-30), f64::exp2(-24.0));
        assert_eq!(round_width(1e30), f64::exp2(24.0));
    }

    #[test]
    fn calendar_matches_heap_order() {
        let times = [0.3, 7.9, 2.2, 2.2, 15.0, 0.1, 99.5, 42.0, 3.3, 8.8];
        let mut heap = HeapQueue::new();
        let mut cal = CalendarQueue::new(8, 1.0);
        for (i, &t) in times.iter().enumerate() {
            heap.schedule(t, i);
            cal.schedule(t, i);
        }
        loop {
            let a = heap.next();
            let b = cal.next();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_interleaved_push_pop() {
        let mut cal = CalendarQueue::new(4, 0.5);
        cal.schedule(0.2, 1u32);
        cal.schedule(5.0, 2);
        assert_eq!(cal.next(), Some((0.2, 1)));
        cal.schedule(1.0, 3);
        assert_eq!(cal.next(), Some((1.0, 3)));
        assert_eq!(cal.next(), Some((5.0, 2)));
        assert!(cal.is_empty());
    }

    /// Regression: an event scheduled at a time at-or-before the cursor
    /// bucket's already-drained portion must pop immediately, not one full
    /// lap later. The pre-overhaul calendar filed it under a bucket the
    /// cursor had already passed, so later-lap events popped first.
    #[test]
    fn schedule_behind_cursor_pops_before_later_events() {
        let mut cal = CalendarQueue::new(4, 1.0);
        cal.schedule(2.5, "mid");
        cal.schedule(3.5, "late");
        assert_eq!(cal.next(), Some((2.5, "mid"))); // cursor now in bucket 2
                                                    // Behind the cursor's drained portion — and in an earlier bucket.
        cal.schedule(1.0, "past");
        // At the cursor's exact window start.
        cal.schedule(2.0, "edge");
        assert_eq!(cal.next(), Some((1.0, "past")));
        assert_eq!(cal.next(), Some((2.0, "edge")));
        assert_eq!(cal.next(), Some((3.5, "late")));
        assert_eq!(cal.next(), None);
    }

    /// The same interleaving, pinned against the heap so the order is the
    /// specified one rather than merely a plausible one.
    #[test]
    fn interleaved_schedule_pop_order_matches_heap() {
        let ops: &[(bool, f64)] = &[
            (false, 2.5),
            (false, 3.5),
            (true, 0.0),
            (false, 1.0), // behind the cursor
            (false, 2.5), // equal to an already-popped time
            (true, 0.0),
            (true, 0.0),
            (false, 0.25), // far behind, earlier lap bucket
            (true, 0.0),
            (true, 0.0),
            (true, 0.0),
        ];
        let mut heap = HeapQueue::new();
        let mut cal = CalendarQueue::new(4, 1.0);
        let mut id = 0u32;
        for &(pop, t) in ops {
            if pop {
                assert_eq!(heap.next(), cal.next());
            } else {
                heap.schedule(t, id);
                cal.schedule(t, id);
                id += 1;
            }
        }
        assert_eq!(heap.next(), None);
        assert_eq!(cal.next(), None);
    }

    #[test]
    fn resizing_keeps_order_under_growth_and_drain() {
        // Grow far past the initial 4 buckets, then drain to empty; every
        // pop must match the heap bit for bit through grows and shrinks.
        let mut heap = HeapQueue::new();
        let mut cal = CalendarQueue::new(4, 1.0);
        let mut x = 0x9E37_79B9u64;
        for i in 0..2_000u32 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let t = (x >> 11) as f64 / (1u64 << 53) as f64 * 50.0;
            heap.schedule(t, i);
            cal.schedule(t, i);
        }
        assert!(cal.buckets.len() > 4, "growth should have triggered");
        loop {
            let a = heap.next();
            let b = cal.next();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Regression: a time so far beyond the width scale that
    /// `time / width` saturates the u64 cast must still pop (in heap
    /// order) instead of overflowing the cursor arithmetic — `vbucket`
    /// caps at `VB_CAP`, leaving the cursor headroom.
    #[test]
    fn saturating_virtual_buckets_pop_in_order() {
        let mut cal = CalendarQueue::new(4, f64::exp2(-24.0));
        let mut heap = HeapQueue::new();
        for (i, t) in [2e12, 0.5, 3e12, 1e19].into_iter().enumerate() {
            cal.schedule(t, i);
            heap.schedule(t, i);
        }
        for _ in 0..4 {
            assert_eq!(cal.next(), heap.next());
        }
        assert!(cal.is_empty());
        // Interleaved: schedule another capped-bucket event after popping.
        cal.schedule(5e12, 9);
        cal.schedule(1.0, 10);
        assert_eq!(cal.next(), Some((1.0, 10)));
        assert_eq!(cal.next(), Some((5e12, 9)));
    }

    #[test]
    fn far_future_events_pop_without_lap_spinning() {
        // One event 10^6 spans ahead: the empty-lap jump must find it.
        let mut cal = CalendarQueue::new(4, 0.5);
        cal.schedule(2_000_000.0, "far");
        cal.schedule(0.1, "near");
        assert_eq!(cal.next(), Some((0.1, "near")));
        assert_eq!(cal.next(), Some((2_000_000.0, "far")));
    }

    /// Regression: tied times must not collapse the calendar's width.
    /// Unit-service chains started together stay tied forever, so a
    /// bucket holding one clump overflows `OVERLOAD` at any width; keying
    /// the density-overload resize to the bucket's event count instead of
    /// its distinct times narrowed the width toward `2^-24` and left most
    /// pending events in overflow.
    #[test]
    fn tied_unit_service_clumps_do_not_collapse_the_width() {
        let mut x = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut unit = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        // 400 Poisson sources at the Table-I rate (λ = 0.16 per node) and
        // 1000 unit-service chains in 50 clumps of 20 tied start times.
        let (sources, rate) = (400u32, 0.16);
        let mut cal = CalendarQueue::for_simulation(4 * sources as usize);
        for i in 0..sources {
            cal.schedule(-(1.0 - unit()).ln() / rate, i);
        }
        for clump in 0..50u32 {
            let t0 = unit();
            for k in 0..20 {
                cal.schedule(t0, sources + 20 * clump + k);
            }
        }
        let floor = f64::exp2(-12.0);
        for _ in 0..400_000 {
            let (t, id) = cal.next().expect("the hold model keeps its population");
            let dt = if id < sources {
                -(1.0 - unit()).ln() / rate
            } else {
                1.0
            };
            cal.schedule(t + dt, id);
            assert!(cal.width >= floor, "width collapsed to {:e}", cal.width);
        }
    }

    /// The lane queue's merge: an ordered offer that goes back in time
    /// lands in the calendar and must still pop before later FIFO
    /// entries, and equal times pop in sequence order whichever lane holds
    /// them.
    #[test]
    fn lane_queue_merges_its_lanes_in_time_then_sequence_order() {
        let mut q = LaneQueue::new(CalendarQueue::new(8, 0.5));
        q.schedule_ordered(2.0, "fifo 2.0");
        q.schedule_ordered(3.0, "fifo 3.0");
        q.schedule_ordered(1.5, "back in time"); // behind the FIFO's back
        q.schedule(3.0, "calendar 3.0");
        q.schedule_ordered(3.0, "fifo 3.0 again");
        q.schedule_ordered(2.5, "calendar 2.5"); // behind the FIFO's back
        assert_eq!(q.fifo.len(), 3);
        assert_eq!(q.cal.len(), 3);
        assert_eq!(q.len(), 6);
        let order: Vec<_> = std::iter::from_fn(|| q.next()).collect();
        assert_eq!(
            order,
            [
                (1.5, "back in time"),
                (2.0, "fifo 2.0"),
                (2.5, "calendar 2.5"),
                (3.0, "fifo 3.0"),
                (3.0, "calendar 3.0"),
                (3.0, "fifo 3.0 again"),
            ]
        );
        assert!(q.is_empty());
    }

    proptest! {
        #[test]
        fn prop_calendar_equals_heap(ops in proptest::collection::vec((0.0f64..50.0, any::<bool>()), 1..300)) {
            let mut heap = HeapQueue::new();
            let mut cal = CalendarQueue::new(16, 0.75);
            let mut id = 0u32;
            let mut last_time = 0.0f64;
            for (t, do_pop) in ops {
                if do_pop {
                    let a = heap.next();
                    let b = cal.next();
                    prop_assert_eq!(a, b);
                    if let Some((t, _)) = a { last_time = t; }
                } else {
                    // Schedule in the future of the last popped time, as a
                    // simulator does.
                    let t = last_time + t;
                    heap.schedule(t, id);
                    cal.schedule(t, id);
                    id += 1;
                }
            }
            // Drain and compare the remainder.
            loop {
                let a = heap.next();
                let b = cal.next();
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }

        /// The lane queue against the heap under the engine's traffic and
        /// worse: ordered offers at `now + d` with `d` from {0.5, 1, 1, 2}
        /// (so some go back in time and fall back to the calendar), offers
        /// tied with the last one, and plain schedules ahead, behind the
        /// clock and far in the future. Every pop must match, and the
        /// calendar's cursor must never run ahead of the latest pop.
        #[test]
        fn prop_lane_queue_equals_heap(
            ops in proptest::collection::vec((0u8..6, 0usize..4, 0.0f64..8.0), 1..400),
        ) {
            let mut heap = HeapQueue::new();
            let mut lane = LaneQueue::new(CalendarQueue::new(8, 0.5));
            let mut id = 0u32;
            let mut now = 0.0f64;
            let mut last_offer = 0.0f64;
            for (kind, d, x) in ops {
                let t = match kind {
                    0 => {
                        let a = heap.next();
                        prop_assert_eq!(a, lane.next());
                        if let Some((t, _)) = a {
                            now = now.max(t);
                            prop_assert!(lane.cal.cursor_vb <= lane.cal.vbucket(now));
                        }
                        continue;
                    }
                    1 => now + [0.5, 1.0, 1.0, 2.0][d],
                    2 => last_offer,
                    3 => now + x,
                    4 => (now - x).max(0.0),
                    _ => now + 100.0 + x * 40.0,
                };
                heap.schedule(t, id);
                if kind <= 2 {
                    lane.schedule_ordered(t, id);
                    last_offer = t;
                } else {
                    lane.schedule(t, id);
                }
                id += 1;
                prop_assert_eq!(heap.len(), lane.len());
            }
            loop {
                let a = heap.next();
                prop_assert_eq!(a, lane.next());
                if a.is_none() { break; }
            }
        }

        /// Adversarial variant: pops interleaved with schedules that may
        /// land *behind* the last popped time (the fixed bug's territory),
        /// plus occasional far-future outliers exercising overflow,
        /// repatriation, resizing and the empty-lap jump.
        #[test]
        fn prop_calendar_equals_heap_with_past_and_far_events(
            ops in proptest::collection::vec((0.0f64..8.0, 0u8..4), 1..300),
        ) {
            let mut heap = HeapQueue::new();
            let mut cal = CalendarQueue::new(8, 0.5);
            let mut id = 0u32;
            let mut last_time = 0.0f64;
            for (t, kind) in ops {
                match kind {
                    0 => {
                        let a = heap.next();
                        let b = cal.next();
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a { last_time = t; }
                    }
                    // Future of the current time.
                    1 => {
                        heap.schedule(last_time + t, id);
                        cal.schedule(last_time + t, id);
                        id += 1;
                    }
                    // At or before the current time (a "past" schedule).
                    2 => {
                        let t = (last_time - t).max(0.0);
                        heap.schedule(t, id);
                        cal.schedule(t, id);
                        id += 1;
                    }
                    // Far future: beyond the calendar span.
                    _ => {
                        let t = last_time + 100.0 + t * 40.0;
                        heap.schedule(t, id);
                        cal.schedule(t, id);
                        id += 1;
                    }
                }
            }
            loop {
                let a = heap.next();
                let b = cal.next();
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }
}
