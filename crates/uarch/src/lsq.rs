//! Store buffer with store-to-load forwarding.
//!
//! Slots are **reserved in program order at dispatch** and the address is
//! filled in when the store issues; this prevents the classic deadlock
//! where out-of-order younger stores exhaust the buffer and starve an older
//! store at the ROB head. Stores drain at commit; loads that match a
//! pending *filled* store's word receive their data by forwarding and skip
//! the D-cache.

use std::collections::VecDeque;

/// Granularity of forwarding matches (a 64-bit word).
const WORD_BYTES: u64 = 8;

/// Statistics for the store buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBufferStats {
    /// Stores reserved (dispatched).
    pub stores: u64,
    /// Loads that forwarded from a pending store.
    pub forwards: u64,
    /// Occupancy integral for mean occupancy.
    pub occupancy_sum: u64,
    /// Samples taken.
    pub occupancy_samples: u64,
}

/// A bounded buffer of pending stores, ordered by age (program order).
///
/// # Examples
///
/// ```
/// use gals_uarch::StoreBuffer;
///
/// let mut sb = StoreBuffer::new(4);
/// sb.reserve(7).unwrap();      // at dispatch
/// assert!(!sb.forwards_to(0x1000)); // address unknown yet
/// sb.fill(7, 0x1000);          // at issue
/// assert!(sb.forwards_to(0x1000));  // same word: forward
/// sb.retire_through(7);        // at commit
/// assert!(!sb.forwards_to(0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    /// `(seq, word-aligned address once filled)`, oldest first.
    entries: VecDeque<(u64, Option<u64>)>,
    capacity: usize,
    stats: StoreBufferStats,
}

impl StoreBuffer {
    /// Creates a buffer holding up to `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer capacity must be non-zero");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            stats: StoreBufferStats::default(),
        }
    }

    /// Number of pending stores (reserved or filled).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another store can be reserved.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Statistics.
    pub fn stats(&self) -> StoreBufferStats {
        self.stats
    }

    /// Reserves a slot for the store with sequence `seq` at dispatch time.
    /// Must be called in program order.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when full — dispatch must stall (in program order,
    /// so no deadlock is possible).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not older-to-younger monotonic.
    #[allow(clippy::result_unit_err)] // full/not-full is the entire story
    pub fn reserve(&mut self, seq: u64) -> Result<(), ()> {
        if !self.has_space() {
            return Err(());
        }
        if let Some(&(tail, _)) = self.entries.back() {
            assert!(seq > tail, "store buffer reservation out of program order");
        }
        self.stats.stores += 1;
        self.entries.push_back((seq, None));
        Ok(())
    }

    /// Fills the reserved slot's address when the store issues. Returns
    /// `true` if the reservation existed (it may have been squashed).
    pub fn fill(&mut self, seq: u64, addr: u64) -> bool {
        for (s, slot) in &mut self.entries {
            if *s == seq {
                *slot = Some(addr / WORD_BYTES);
                return true;
            }
        }
        false
    }

    /// True if a load from `addr` can forward from a pending *filled* store
    /// to the same word. Records the forward in the statistics on a match.
    pub fn forwards_to(&mut self, addr: u64) -> bool {
        let word = addr / WORD_BYTES;
        let hit = self.entries.iter().any(|&(_, w)| w == Some(word));
        if hit {
            self.stats.forwards += 1;
        }
        hit
    }

    /// Drains stores with sequence `<= seq` (they committed and wrote the
    /// cache). Returns how many retired.
    pub fn retire_through(&mut self, seq: u64) -> usize {
        let before = self.entries.len();
        while matches!(self.entries.front(), Some(&(s, _)) if s <= seq) {
            self.entries.pop_front();
        }
        before - self.entries.len()
    }

    /// Removes stores younger than `seq` (squashed by a misprediction).
    pub fn squash_younger(&mut self, seq: u64) -> usize {
        let before = self.entries.len();
        while matches!(self.entries.back(), Some(&(s, _)) if s > seq) {
            self.entries.pop_back();
        }
        before - self.entries.len()
    }

    /// Records an occupancy sample.
    pub fn sample_occupancy(&mut self) {
        self.stats.occupancy_samples += 1;
        self.stats.occupancy_sum += self.entries.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_same_word_only_after_fill() {
        let mut sb = StoreBuffer::new(4);
        sb.reserve(1).unwrap();
        assert!(!sb.forwards_to(0x100), "unfilled store cannot forward");
        assert!(sb.fill(1, 0x100));
        assert!(sb.forwards_to(0x100));
        assert!(sb.forwards_to(0x107)); // same 8-byte word
        assert!(!sb.forwards_to(0x108)); // next word
        assert_eq!(sb.stats().forwards, 2);
    }

    #[test]
    fn capacity_limit() {
        let mut sb = StoreBuffer::new(2);
        sb.reserve(1).unwrap();
        sb.reserve(2).unwrap();
        assert!(sb.reserve(3).is_err());
        assert!(!sb.has_space());
    }

    #[test]
    fn retire_drains_oldest() {
        let mut sb = StoreBuffer::new(4);
        for s in [1, 2, 3] {
            sb.reserve(s).unwrap();
            sb.fill(s, (s - 1) * 8);
        }
        assert_eq!(sb.retire_through(2), 2);
        assert_eq!(sb.len(), 1);
        assert!(!sb.forwards_to(0));
        assert!(sb.forwards_to(16));
    }

    #[test]
    fn squash_drops_youngest() {
        let mut sb = StoreBuffer::new(4);
        for s in [1, 5, 9] {
            sb.reserve(s).unwrap();
            sb.fill(s, s * 8);
        }
        assert_eq!(sb.squash_younger(5), 1);
        assert_eq!(sb.len(), 2);
        assert!(sb.forwards_to(40));
        assert!(!sb.forwards_to(72));
    }

    #[test]
    fn fill_missing_reservation_is_false() {
        let mut sb = StoreBuffer::new(4);
        sb.reserve(1).unwrap();
        assert!(!sb.fill(99, 0));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_reserve_panics() {
        let mut sb = StoreBuffer::new(4);
        sb.reserve(5).unwrap();
        let _ = sb.reserve(4);
    }

    #[test]
    fn occupancy_sampling() {
        let mut sb = StoreBuffer::new(4);
        sb.reserve(1).unwrap();
        sb.sample_occupancy();
        sb.sample_occupancy();
        assert_eq!(sb.stats().occupancy_sum, 2);
        assert_eq!(sb.stats().occupancy_samples, 2);
    }
}
