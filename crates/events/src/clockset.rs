//! The static clock-tick scheduler: the O(1), allocation-free fast path for
//! purely periodic event sets.
//!
//! The general [`Engine`](crate::Engine) pays a heap pop, a re-push of a
//! boxed handler and a cancellation probe on **every simulated clock edge**.
//! For the workload that dominates this repository — five free-running
//! domain clocks and nothing else — none of that machinery is needed: the
//! classic calendar-queue/timing-wheel observation is that a fixed set of
//! periodic clocks admits a constant-time scheduler with no queue at all.
//!
//! [`ClockSet`] keeps one `(next_edge, period, priority)` record per clock
//! in a fixed inline array and advances by a branchless min-scan over at
//! most [`MAX_CLOCKS`] entries. There is no allocation after construction,
//! no dynamic dispatch, and no cancellation bookkeeping; the caller decides
//! when to stop ticking.
//!
//! Edge ordering matches the engine's `(time, priority)` order. The
//! two-scheduler contract requires every clock to carry a **distinct
//! priority** (how the pipeline registers its five domains) — then the edge
//! sequence is identical to `Engine::schedule_periodic`, a property pinned
//! by a differential test in `tests/properties.rs`. Duplicate priorities
//! would silently diverge the two schedulers (slot order here, insertion
//! sequence there), so [`ClockSet::add_clock`] rejects them with a debug
//! assertion.
//!
//! ## Stretchable (pausible) clocks
//!
//! [`ClockSet::stretch`] delays a clock's next edge by a one-shot amount —
//! the simulator's model of a pausible clock whose ring oscillator is held
//! by an arbiter while an inter-domain handshake completes. The stretch
//! targets the first edge *strictly after* the current time; an edge at
//! exactly `now` that is still pending (mid-batch) fires unstretched and the
//! request is deferred to the edge after it, which is exactly the lazy
//! semantics of [`Engine::stretch`](crate::Engine::stretch) — so the
//! differential contract extends to stretched clocks.
//!
//! # Examples
//!
//! ```
//! use gals_events::{ClockSet, Time};
//!
//! // The paper's Figure 4 clocks: periods 2 ns, 3 ns, 2.5 ns.
//! let mut clocks = ClockSet::new();
//! clocks.add_clock(Time::from_ps(500), Time::from_ns(2), 0);
//! clocks.add_clock(Time::from_ns(1), Time::from_ns(3), 1);
//! clocks.add_clock(Time::ZERO, Time::from_ps(2500), 2);
//! let mut edges = 0;
//! while let Some((t, _slot)) = clocks.peek() {
//!     if t >= Time::from_ns(8) {
//!         break;
//!     }
//!     clocks.tick();
//!     edges += 1;
//! }
//! assert_eq!(edges, 11);
//! ```

use crate::engine::Priority;
use crate::time::Time;

/// Maximum number of clocks in one [`ClockSet`]. The pipeline needs five;
/// the headroom is for experiments with extra observer clocks.
pub const MAX_CLOCKS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct ClockEntry {
    /// Absolute time of the next edge.
    next: Time,
    period: Time,
    priority: Priority,
}

const IDLE: ClockEntry = ClockEntry {
    // An empty slot never wins the min-scan.
    next: Time::MAX,
    period: Time::MAX,
    priority: Priority::MAX,
};

/// A fixed set of free-running periodic clocks dispatched in
/// `(time, priority)` order with no per-edge allocation.
///
/// See the [crate docs](crate) for the design rationale and the ordering
/// contract relative to [`Engine`](crate::Engine).
#[derive(Debug, Clone)]
pub struct ClockSet {
    entries: [ClockEntry; MAX_CLOCKS],
    /// Stretch requested while the target's edge at `now` was still
    /// pending; applied when that edge dispatches (see [`ClockSet::stretch`]).
    deferred: [Time; MAX_CLOCKS],
    len: usize,
    now: Time,
    edges: u64,
}

impl Default for ClockSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSet {
    /// An empty clock set with the timer at [`Time::ZERO`].
    pub fn new() -> Self {
        ClockSet {
            entries: [IDLE; MAX_CLOCKS],
            deferred: [Time::ZERO; MAX_CLOCKS],
            len: 0,
            now: Time::ZERO,
            edges: 0,
        }
    }

    /// Registers a clock whose first edge is at `phase` and which then fires
    /// every `period`. Returns the clock's slot index (reported back by
    /// [`ClockSet::tick`] and the batch dispatchers).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, the set already holds [`MAX_CLOCKS`]
    /// clocks, or `priority` is already held by another clock: duplicate
    /// priorities silently diverge the ClockSet-vs-Engine ordering contract
    /// (see the module docs), so the violation is made loud — in every build
    /// profile — where it is introduced, before any simulation runs on the
    /// mis-configured set.
    pub fn add_clock(&mut self, phase: Time, period: Time, priority: Priority) -> usize {
        assert!(period > Time::ZERO, "clock period must be non-zero");
        assert!(
            self.len < MAX_CLOCKS,
            "ClockSet holds at most {MAX_CLOCKS} clocks"
        );
        assert!(
            self.entries[..self.len]
                .iter()
                .all(|e| e.priority != priority),
            "duplicate clock priority {priority}: the two-scheduler ordering \
             contract requires a distinct priority per clock"
        );
        let slot = self.len;
        self.entries[slot] = ClockEntry {
            next: phase,
            period,
            priority,
        };
        self.len += 1;
        slot
    }

    /// Number of registered clocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no clocks are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The timestamp of the most recently dispatched edge.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total edges dispatched so far.
    #[inline]
    pub fn edges_dispatched(&self) -> u64 {
        self.edges
    }

    /// The slot winning the `(next, priority, slot)` min-scan. The loop is a
    /// fixed-trip conditional-move scan over at most [`MAX_CLOCKS`] records —
    /// no heap, no branch misprediction cliff.
    #[inline]
    fn min_slot(&self) -> usize {
        let mut best = 0usize;
        for i in 1..self.len {
            let e = &self.entries[i];
            let b = &self.entries[best];
            let better = (e.next, e.priority) < (b.next, b.priority);
            best = if better { i } else { best };
        }
        best
    }

    /// The `(time, slot)` of the next edge without dispatching it.
    #[inline]
    pub fn peek(&self) -> Option<(Time, usize)> {
        if self.len == 0 {
            return None;
        }
        let s = self.min_slot();
        Some((self.entries[s].next, s))
    }

    /// Dispatches the single earliest edge, returning its `(time, slot)`.
    /// Returns `None` only for an empty set.
    #[inline]
    pub fn tick(&mut self) -> Option<(Time, usize)> {
        if self.len == 0 {
            return None;
        }
        let s = self.min_slot();
        let t = self.entries[s].next;
        self.entries[s].next = t + self.entries[s].period + std::mem::take(&mut self.deferred[s]);
        self.now = t;
        self.edges += 1;
        Some((t, s))
    }

    /// Requests a one-shot stretch of a clock: its first edge strictly after
    /// the current time is delayed by `extra`, and later edges follow
    /// `period` from the stretched edge. Requests accumulate. If the clock
    /// still has a pending edge at exactly the current time (mid-batch), that
    /// edge fires unstretched and the request applies to the edge after it —
    /// matching [`Engine::stretch`](crate::Engine::stretch), so the
    /// differential ordering contract holds for stretched clocks too.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a registered clock.
    pub fn stretch(&mut self, slot: usize, extra: Time) {
        assert!(slot < self.len, "stretch of unregistered clock slot {slot}");
        if extra == Time::ZERO {
            return;
        }
        if self.entries[slot].next > self.now {
            self.entries[slot].next += extra;
        } else {
            self.deferred[slot] += extra;
        }
    }

    /// Dispatches **all** edges sharing the earliest timestamp in ascending
    /// `(priority, slot)` order with one callback per edge, amortising the
    /// min-scan across the batch. For the fully synchronous machine (five
    /// domains, one period and phase) this coalesces every time step into a
    /// single scan + five dispatches.
    ///
    /// `dispatch(slot, time)` returns `false` to stop mid-batch; remaining
    /// same-time edges stay pending (exactly like the general engine halting
    /// between two simultaneous events). Returns the batch timestamp, or
    /// `None` for an empty set.
    pub fn tick_batch_while(
        &mut self,
        mut dispatch: impl FnMut(usize, Time) -> bool,
    ) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let first = self.min_slot();
        let t = self.entries[first].next;
        self.now = t;
        loop {
            let s = self.min_slot();
            if self.entries[s].next != t {
                return Some(t);
            }
            self.entries[s].next =
                t + self.entries[s].period + std::mem::take(&mut self.deferred[s]);
            self.edges += 1;
            if !dispatch(s, t) {
                return Some(t);
            }
        }
    }

    /// [`ClockSet::tick_batch_while`] without early exit.
    pub fn tick_batch(&mut self, mut dispatch: impl FnMut(usize, Time)) -> Option<Time> {
        self.tick_batch_while(|slot, time| {
            dispatch(slot, time);
            true
        })
    }

    /// Dispatches every edge with a timestamp strictly below `deadline`,
    /// batching simultaneous edges. Returns the number of edges dispatched.
    pub fn run_until(&mut self, deadline: Time, mut dispatch: impl FnMut(usize, Time)) -> u64 {
        let before = self.edges;
        while let Some((t, _)) = self.peek() {
            if t >= deadline {
                break;
            }
            self.tick_batch(&mut dispatch);
        }
        self.edges - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_edge_sequence_matches_engine_semantics() {
        // Same scenario as the engine's figure4 test, but with distinct
        // priorities (the ClockSet ordering contract).
        let mut cs = ClockSet::new();
        let c1 = cs.add_clock(Time::from_ps(500), Time::from_ns(2), 1);
        let c2 = cs.add_clock(Time::from_ns(1), Time::from_ns(3), 2);
        let c3 = cs.add_clock(Time::ZERO, Time::from_ps(2500), 3);
        let mut log = Vec::new();
        cs.run_until(Time::from_ns(8), |slot, t| log.push((slot, t.as_fs())));
        let expect = [
            (c3, 0u64),
            (c1, 500_000),
            (c2, 1_000_000),
            // Simultaneous at 2.5 ns: priority 1 (c1) precedes priority 3.
            (c1, 2_500_000),
            (c3, 2_500_000),
            (c2, 4_000_000),
            (c1, 4_500_000),
            (c3, 5_000_000),
            (c1, 6_500_000),
            (c2, 7_000_000),
            (c3, 7_500_000),
        ];
        assert_eq!(log, expect);
        assert_eq!(cs.edges_dispatched(), 11);
        assert_eq!(cs.now(), Time::from_ps(7_500));
    }

    #[test]
    fn synchronous_clocks_coalesce_into_one_batch() {
        let mut cs = ClockSet::new();
        for p in 0..5 {
            cs.add_clock(Time::ZERO, Time::from_ns(1), p);
        }
        let mut batch = Vec::new();
        let t = cs
            .tick_batch(|slot, time| batch.push((slot, time)))
            .unwrap();
        assert_eq!(t, Time::ZERO);
        // All five domains dispatched at t=0, in priority order.
        assert_eq!(batch, (0..5).map(|s| (s, Time::ZERO)).collect::<Vec<_>>());
        // Next batch is a full nanosecond later.
        assert_eq!(cs.peek(), Some((Time::from_ns(1), 0)));
    }

    #[test]
    fn batch_early_exit_leaves_remaining_edges_pending() {
        let mut cs = ClockSet::new();
        for p in 0..3 {
            cs.add_clock(Time::ZERO, Time::from_ns(1), p);
        }
        let mut seen = Vec::new();
        cs.tick_batch_while(|slot, _| {
            seen.push(slot);
            slot < 1 // stop after the second dispatch
        });
        assert_eq!(seen, vec![0, 1]);
        // Slot 2's t=0 edge is still pending.
        assert_eq!(cs.peek(), Some((Time::ZERO, 2)));
    }

    #[test]
    fn single_tick_order_breaks_ties_by_priority() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 5);
        cs.add_clock(Time::ZERO, Time::from_ns(1), -1);
        cs.add_clock(Time::ZERO, Time::from_ns(1), 3);
        let order: Vec<usize> = (0..3).map(|_| cs.tick().unwrap().1).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate clock priority")]
    fn duplicate_priorities_are_loud() {
        // Regression for the two-scheduler contract: duplicate priorities
        // used to be accepted silently, diverging ClockSet (slot order) from
        // Engine (insertion-sequence order).
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 7);
        cs.add_clock(Time::from_ps(500), Time::from_ns(2), 7);
    }

    #[test]
    fn stretch_delays_one_edge_then_returns_to_period() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        assert_eq!(cs.tick(), Some((Time::ZERO, 0)));
        // Next edge would be 1 ns; stretch it by 300 ps.
        cs.stretch(0, Time::from_ps(300));
        assert_eq!(cs.tick(), Some((Time::from_ps(1_300), 0)));
        // The period resumes from the stretched edge.
        assert_eq!(cs.tick(), Some((Time::from_ps(2_300), 0)));
    }

    #[test]
    fn stretch_requests_accumulate() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.tick();
        cs.stretch(0, Time::from_ps(100));
        cs.stretch(0, Time::from_ps(200));
        assert_eq!(cs.tick(), Some((Time::from_ps(1_300), 0)));
    }

    #[test]
    fn stretch_of_pending_same_time_edge_defers_to_the_next() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.add_clock(Time::ZERO, Time::from_ns(1), 1);
        // Dispatch only clock 0's t=0 edge; clock 1's t=0 edge is pending.
        assert_eq!(cs.tick(), Some((Time::ZERO, 0)));
        cs.stretch(1, Time::from_ps(400));
        // The pending edge fires unstretched...
        assert_eq!(cs.tick(), Some((Time::ZERO, 1)));
        // ...and the stretch lands on the edge after it.
        assert_eq!(cs.tick(), Some((Time::from_ns(1), 0)));
        assert_eq!(cs.tick(), Some((Time::from_ps(1_400), 1)));
    }

    #[test]
    fn zero_stretch_is_a_no_op() {
        let mut cs = ClockSet::new();
        cs.add_clock(Time::ZERO, Time::from_ns(1), 0);
        cs.tick();
        cs.stretch(0, Time::ZERO);
        assert_eq!(cs.peek(), Some((Time::from_ns(1), 0)));
    }

    #[test]
    #[should_panic(expected = "unregistered clock")]
    fn stretch_of_unknown_slot_panics() {
        ClockSet::new().stretch(0, Time::from_ns(1));
    }

    #[test]
    fn empty_set_is_inert() {
        let mut cs = ClockSet::new();
        assert!(cs.is_empty());
        assert_eq!(cs.peek(), None);
        assert_eq!(cs.tick(), None);
        assert_eq!(cs.tick_batch(|_, _| ()), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_rejected() {
        ClockSet::new().add_clock(Time::ZERO, Time::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn overfull_set_rejected() {
        let mut cs = ClockSet::new();
        for p in 0..=MAX_CLOCKS {
            cs.add_clock(Time::ZERO, Time::from_ns(1), p as Priority);
        }
    }
}
