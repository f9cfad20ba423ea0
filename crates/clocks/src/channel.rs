//! Inter-domain communication channels: synchronous pipeline latches and
//! mixed-clock asynchronous FIFOs.
//!
//! The paper replaces the baseline's pipeline registers with the
//! low-latency mixed-clock FIFO of Chelcea and Nowick. Its timing-relevant
//! behaviour, modelled here:
//!
//! * The **empty** flag is controlled by the producer and *synchronised to
//!   the consumer's clock*: an item enqueued at producer-edge time `t`
//!   becomes visible at the first consumer edge at least one
//!   synchronisation delay after `t`.
//! * The **full** flag is controlled by the consumer and synchronised to the
//!   producer's clock: a slot freed by a dequeue at time `t` becomes usable
//!   by the producer only one synchronisation delay later.
//!
//! With forward/backward synchronisation delays of zero the same structure
//! degenerates to an ordinary 1-cycle pipeline latch (an item written at
//! edge `t` is readable at any strictly later edge), so the synchronous
//! baseline and the GALS processor share all pipeline code and differ only
//! in channel construction — mirroring how the paper's two simulators share
//! the SimpleScalar pipeline model.

use std::collections::VecDeque;

use gals_events::Time;

/// Statistics of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChannelStats {
    /// Items enqueued.
    pub pushes: u64,
    /// Items dequeued.
    pub pops: u64,
    /// Push attempts rejected because the producer saw the FIFO full.
    pub full_stalls: u64,
    /// Total residency time (pop time minus push time) of dequeued items.
    pub residency: Time,
    /// Peak occupancy observed.
    pub peak_occupancy: usize,
    /// Items flushed by squashes.
    pub flushed: u64,
}

impl ChannelStats {
    /// Mean residency of dequeued items.
    pub fn mean_residency(&self) -> Time {
        if self.pops == 0 {
            Time::ZERO
        } else {
            self.residency / self.pops
        }
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    item: T,
    pushed_at: Time,
}

/// A bounded point-to-point channel between two clock domains.
///
/// Use [`Channel::sync_latch`] for the synchronous baseline and
/// [`Channel::mixed_clock_fifo`] for GALS domain crossings.
///
/// # Examples
///
/// ```
/// use gals_clocks::Channel;
/// use gals_events::Time;
///
/// // A FIFO whose consumer needs 1 ns to synchronise the empty flag.
/// let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_ns(1), Time::from_ns(1));
/// ch.try_push(7, Time::from_ns(10)).unwrap();
/// // Not yet visible half a nanosecond later...
/// assert_eq!(ch.try_pop(Time::from_fs(10_500_000)), None);
/// // ...but visible from 11 ns on.
/// assert_eq!(ch.try_pop(Time::from_ns(11)), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Channel<T> {
    slots: VecDeque<Slot<T>>,
    /// Slots freed by pops but not yet visible to the producer's full flag.
    frees_pending: VecDeque<Time>,
    capacity: usize,
    /// Forward (empty-flag) synchronisation delay.
    fwd_delay: Time,
    /// Backward (full-flag) synchronisation delay.
    bwd_delay: Time,
    /// True for single-entry rendezvous ports (see [`Channel::rendezvous`]).
    rendezvous: bool,
    stats: ChannelStats,
}

impl<T> Channel<T> {
    /// A synchronous pipeline latch of the given capacity: an item pushed at
    /// edge `t` is poppable at any strictly later edge, and a freed slot is
    /// reusable immediately.
    pub fn sync_latch(capacity: usize) -> Self {
        Self::with_delays(capacity, Time::ZERO, Time::ZERO)
    }

    /// A mixed-clock FIFO with the given capacity and synchronisation
    /// delays. `fwd_delay` is the consumer-side empty-flag synchronisation
    /// time (typically one consumer clock period); `bwd_delay` the
    /// producer-side full-flag synchronisation time (typically one producer
    /// period).
    pub fn mixed_clock_fifo(capacity: usize, fwd_delay: Time, bwd_delay: Time) -> Self {
        Self::with_delays(capacity, fwd_delay, bwd_delay)
    }

    /// A single-entry **rendezvous port**: the unbuffered crossing of a
    /// pausible-clock interface (`PausibleModel::Rendezvous`).
    ///
    /// The port holds at most one item and has no synchronisation delays —
    /// the handshake cost is charged to the participating *clocks*, not to
    /// the channel. Producer-block/consumer-release semantics fall out of
    /// the occupancy rule: a push against an occupied port fails
    /// ([`Channel::try_push`] returns the item, [`Channel::can_push`] is
    /// `false`) until the consumer pops, so the producer must park or
    /// retry; the freeing pop is the release event. A stored item still
    /// obeys the strictly-after-push read rule, exactly like a latch.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_clocks::Channel;
    /// use gals_events::Time;
    ///
    /// let mut port: Channel<u32> = Channel::rendezvous();
    /// assert!(port.is_rendezvous());
    /// port.try_push(1, Time::from_ns(1)).unwrap();
    /// // Occupied: the producer blocks until the consumer pops.
    /// assert_eq!(port.try_push(2, Time::from_ns(2)), Err(2));
    /// assert_eq!(port.try_pop(Time::from_ns(2)), Some(1));
    /// port.try_push(2, Time::from_ns(2)).unwrap();
    /// ```
    pub fn rendezvous() -> Self {
        Channel {
            rendezvous: true,
            ..Self::with_delays(1, Time::ZERO, Time::ZERO)
        }
    }

    /// True for a single-entry rendezvous port ([`Channel::rendezvous`]).
    pub fn is_rendezvous(&self) -> bool {
        self.rendezvous
    }

    fn with_delays(capacity: usize, fwd_delay: Time, bwd_delay: Time) -> Self {
        assert!(capacity > 0, "channel capacity must be non-zero");
        Channel {
            slots: VecDeque::with_capacity(capacity),
            // At most one pending full-flag synchronisation per slot.
            frees_pending: VecDeque::with_capacity(capacity),
            capacity,
            fwd_delay,
            bwd_delay,
            rendezvous: false,
            stats: ChannelStats::default(),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently stored (whether or not yet visible).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Drops full-flag synchronisations that have completed by `now`.
    /// `frees_pending` is sorted (simulation time is globally monotonic and
    /// the backward delay is a per-channel constant), so expiry only ever
    /// pops from the front.
    #[inline]
    fn expire_frees(&mut self, now: Time) {
        while matches!(self.frees_pending.front(), Some(&f) if f <= now) {
            self.frees_pending.pop_front();
        }
    }

    /// True if the producer can push at time `now`. Takes `&mut self` to
    /// expire completed full-flag synchronisations eagerly, making the
    /// producer-visible occupancy check (stored items plus slots whose
    /// full-flag update has not yet synchronised back) O(1) — this runs for
    /// every candidate push on the simulator's hot path.
    pub fn can_push(&mut self, now: Time) -> bool {
        self.expire_frees(now);
        self.slots.len() + self.frees_pending.len() < self.capacity
    }

    /// Earliest time a consumer edge may observe a slot pushed at `at`.
    #[inline]
    fn visible_from(&self, at: Time) -> Time {
        at + self.fwd_delay
    }

    /// Number of items a consumer edge at `now` could pop.
    pub fn visible(&self, now: Time) -> usize {
        self.slots
            .iter()
            .take_while(|s| self.visible_from(s.pushed_at) <= now && s.pushed_at < now)
            .count()
    }

    /// Pushes an item at producer-edge time `now`.
    ///
    /// # Errors
    ///
    /// Returns the item back when the producer-visible occupancy equals the
    /// capacity (the producer stalls, exactly like a full pipeline stage).
    pub fn try_push(&mut self, item: T, now: Time) -> Result<(), T> {
        self.expire_frees(now);
        if self.slots.len() + self.frees_pending.len() >= self.capacity {
            self.stats.full_stalls += 1;
            return Err(item);
        }
        self.slots.push_back(Slot {
            item,
            pushed_at: now,
        });
        self.stats.pushes += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.slots.len());
        Ok(())
    }

    /// Pops the oldest visible item at consumer-edge time `now`.
    ///
    /// Visibility requires `now >= pushed_at + fwd_delay` **and**
    /// `now > pushed_at` (even a zero-delay latch cannot be read at the very
    /// edge that wrote it).
    pub fn try_pop(&mut self, now: Time) -> Option<T> {
        self.try_pop_timed(now).map(|(item, _)| item)
    }

    /// Like [`Channel::try_pop`], but also returns how long the item sat in
    /// the channel (pop time minus push time). The pipeline simulator uses
    /// this to attribute slip to FIFO residency (the paper's Figure 7).
    pub fn try_pop_timed(&mut self, now: Time) -> Option<(T, Time)> {
        let front = self.slots.front()?;
        if self.visible_from(front.pushed_at) > now || front.pushed_at >= now {
            return None;
        }
        let slot = self.slots.pop_front().expect("front exists");
        self.stats.pops += 1;
        let residency = now - slot.pushed_at;
        self.stats.residency += residency;
        self.frees_pending.push_back(now + self.bwd_delay);
        Some((slot.item, residency))
    }

    /// Peeks the oldest visible item without removing it.
    pub fn peek(&self, now: Time) -> Option<&T> {
        let front = self.slots.front()?;
        if self.visible_from(front.pushed_at) > now || front.pushed_at >= now {
            return None;
        }
        Some(&front.item)
    }

    /// Removes items for which `keep` returns `false` (squash support);
    /// freed slots synchronise back to the producer after the backward
    /// delay, measured from `now`. Returns the number removed.
    pub fn flush_where(&mut self, now: Time, mut keep: impl FnMut(&T) -> bool) -> usize {
        let before = self.slots.len();
        // Retain in place (order-preserving); no replacement deque is
        // allocated per squash.
        let frees = &mut self.frees_pending;
        let freed_at = now + self.bwd_delay;
        self.slots.retain(|slot| {
            if keep(&slot.item) {
                true
            } else {
                frees.push_back(freed_at);
                false
            }
        });
        let removed = before - self.slots.len();
        self.stats.flushed += removed as u64;
        removed
    }

    /// Removes everything (full squash of the channel).
    pub fn clear(&mut self, now: Time) -> usize {
        self.flush_where(now, |_| false)
    }

    /// Iterates over stored items oldest-first (diagnostics; ignores
    /// visibility).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u64 = 1_000_000;

    #[test]
    fn sync_latch_is_one_cycle() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        // Same edge: not readable.
        assert_eq!(ch.try_pop(Time::from_fs(NS)), None);
        // Next edge: readable.
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(1));
    }

    #[test]
    fn fifo_forward_delay_gates_visibility() {
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_fs(NS), Time::ZERO);
        ch.try_push(9, Time::from_fs(10 * NS)).unwrap();
        assert_eq!(ch.try_pop(Time::from_fs(10 * NS + NS / 2)), None);
        assert_eq!(ch.peek(Time::from_fs(11 * NS)), Some(&9));
        assert_eq!(ch.try_pop(Time::from_fs(11 * NS)), Some(9));
    }

    #[test]
    fn fifo_orders_items() {
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::ZERO, Time::ZERO);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(NS)).unwrap();
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(1));
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(2));
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), None);
    }

    #[test]
    fn capacity_blocks_and_counts_stalls() {
        let mut ch: Channel<u32> = Channel::sync_latch(2);
        let t = Time::from_fs(NS);
        ch.try_push(1, t).unwrap();
        ch.try_push(2, t).unwrap();
        assert_eq!(ch.try_push(3, t), Err(3));
        assert_eq!(ch.stats().full_stalls, 1);
    }

    #[test]
    fn backward_delay_keeps_slot_occupied() {
        // Capacity 1, full flag takes 1 ns to synchronise back.
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(1, Time::ZERO, Time::from_fs(NS));
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        assert_eq!(ch.try_pop(Time::from_fs(2 * NS)), Some(1));
        // The slot frees at 3 ns from the producer's perspective.
        assert!(!ch.can_push(Time::from_fs(2 * NS)));
        assert_eq!(ch.try_push(2, Time::from_fs(2 * NS)), Err(2));
        assert!(ch.can_push(Time::from_fs(3 * NS)));
        ch.try_push(2, Time::from_fs(3 * NS)).unwrap();
    }

    #[test]
    fn rendezvous_port_blocks_until_the_consuming_pop() {
        let mut port: Channel<u32> = Channel::rendezvous();
        assert!(port.is_rendezvous());
        assert_eq!(port.capacity(), 1);
        port.try_push(1, Time::from_fs(NS)).unwrap();
        // Same-edge reads are still forbidden (latch rule)...
        assert_eq!(port.try_pop(Time::from_fs(NS)), None);
        // ...and the occupied port rejects the producer until the pop.
        assert!(!port.can_push(Time::from_fs(2 * NS)));
        assert_eq!(port.try_push(2, Time::from_fs(2 * NS)), Err(2));
        assert_eq!(port.stats().full_stalls, 1);
        assert_eq!(port.try_pop(Time::from_fs(2 * NS)), Some(1));
        // The pop releases the port immediately (no backward delay).
        assert!(port.can_push(Time::from_fs(2 * NS)));
        port.try_push(2, Time::from_fs(2 * NS)).unwrap();
        // Latches and FIFOs are not rendezvous ports.
        assert!(!Channel::<u32>::sync_latch(1).is_rendezvous());
        assert!(!Channel::<u32>::mixed_clock_fifo(1, Time::ZERO, Time::ZERO).is_rendezvous());
    }

    #[test]
    fn residency_is_tracked() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(NS)).unwrap();
        let _ = ch.try_pop(Time::from_fs(3 * NS));
        let _ = ch.try_pop(Time::from_fs(4 * NS));
        assert_eq!(ch.stats().residency, Time::from_fs(2 * NS + 3 * NS));
        assert_eq!(ch.stats().mean_residency(), Time::from_fs(5 * NS / 2));
    }

    #[test]
    fn flush_where_drops_and_frees() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        let t = Time::from_fs(NS);
        for i in 0..4 {
            ch.try_push(i, t).unwrap();
        }
        let removed = ch.flush_where(Time::from_fs(2 * NS), |&x| x % 2 == 0);
        assert_eq!(removed, 2);
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.stats().flushed, 2);
        assert!(ch.can_push(Time::from_fs(2 * NS)));
        let items: Vec<u32> = ch.iter().copied().collect();
        assert_eq!(items, vec![0, 2]);
    }

    #[test]
    fn clear_empties_channel() {
        let mut ch: Channel<u32> = Channel::sync_latch(4);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(NS)).unwrap();
        assert_eq!(ch.clear(Time::from_fs(NS)), 2);
        assert!(ch.is_empty());
    }

    #[test]
    fn visible_counts_ready_items() {
        let mut ch: Channel<u32> = Channel::mixed_clock_fifo(4, Time::from_fs(NS), Time::ZERO);
        ch.try_push(1, Time::from_fs(NS)).unwrap();
        ch.try_push(2, Time::from_fs(2 * NS)).unwrap();
        // First item visible from 2 ns (push + fwd delay), second from 3 ns.
        assert_eq!(ch.visible(Time::from_fs(NS + NS / 2)), 0);
        assert_eq!(ch.visible(Time::from_fs(2 * NS)), 1);
        assert_eq!(ch.visible(Time::from_fs(2 * NS + NS / 2)), 1);
        assert_eq!(ch.visible(Time::from_fs(3 * NS)), 2);
    }

    #[test]
    fn random_phase_crossing_latency_averages_1_5_periods() {
        // Statistical check of the GALS crossing cost: with equal producer
        // and consumer frequencies and a uniformly random consumer phase,
        // the mean FIFO crossing latency approaches 1.5 consumer periods
        // (against 1.0 for the synchronous latch).
        let period = NS;
        let mut total = 0u64;
        let trials = 1_000;
        for k in 0..trials {
            let phase = gals_isa::rng::hash3(7, 1, k) % period;
            let mut ch: Channel<u32> =
                Channel::mixed_clock_fifo(4, Time::from_fs(period), Time::ZERO);
            let push_t = 10 * period;
            ch.try_push(1, Time::from_fs(push_t)).unwrap();
            // Consumer edges at phase + n*period; find the first that pops.
            let mut edge = phase + ((push_t - phase) / period) * period;
            loop {
                if edge > push_t && ch.try_pop(Time::from_fs(edge)).is_some() {
                    break;
                }
                edge += period;
            }
            total += edge - push_t;
        }
        let mean = total as f64 / trials as f64 / period as f64;
        assert!(
            (1.4..1.6).contains(&mean),
            "mean crossing latency {mean} periods"
        );
    }
}
