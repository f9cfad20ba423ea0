//! Reorder buffer: in-order allocation and commit, out-of-order completion,
//! squash-after-branch.

use std::collections::VecDeque;

/// Status of a reorder buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobStatus {
    /// Dispatched, waiting to issue or execute.
    InFlight,
    /// Finished execution; may commit when it reaches the head.
    Complete,
}

#[derive(Debug, Clone)]
struct RobEntry<T> {
    seq: u64,
    status: RobStatus,
    payload: T,
}

/// A bounded reorder buffer over payload type `T`, keyed by the dynamic
/// sequence numbers the pipeline already carries.
///
/// # Examples
///
/// ```
/// use gals_uarch::Rob;
///
/// let mut rob: Rob<&'static str> = Rob::new(4);
/// rob.alloc(0, "a").unwrap();
/// rob.alloc(1, "b").unwrap();
/// rob.complete(1);
/// assert!(rob.try_commit().is_none()); // head ("a") not complete
/// rob.complete(0);
/// assert_eq!(rob.try_commit(), Some((0, "a")));
/// assert_eq!(rob.try_commit(), Some((1, "b")));
/// ```
#[derive(Debug, Clone)]
pub struct Rob<T> {
    entries: VecDeque<RobEntry<T>>,
    capacity: usize,
    /// Peak/mean occupancy statistics.
    occupancy_sum: u64,
    occupancy_samples: u64,
    occupancy_peak: usize,
}

impl<T> Rob<T> {
    /// Creates a reorder buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be non-zero");
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            occupancy_sum: 0,
            occupancy_samples: 0,
            occupancy_peak: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when an entry can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at the tail.
    ///
    /// # Errors
    ///
    /// Returns the payload back when full (dispatch must stall).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not strictly greater than the current tail's
    /// sequence (allocation must be in program order).
    pub fn alloc(&mut self, seq: u64, payload: T) -> Result<(), T> {
        if !self.has_space() {
            return Err(payload);
        }
        if let Some(tail) = self.entries.back() {
            assert!(seq > tail.seq, "ROB allocation out of program order");
        }
        self.entries.push_back(RobEntry {
            seq,
            status: RobStatus::InFlight,
            payload,
        });
        Ok(())
    }

    /// Marks the entry with sequence `seq` complete. Returns `true` if the
    /// entry exists (it may have been squashed).
    pub fn complete(&mut self, seq: u64) -> bool {
        match self.entries.binary_search_by_key(&seq, |e| e.seq) {
            Ok(i) => {
                self.entries[i].status = RobStatus::Complete;
                true
            }
            Err(_) => false,
        }
    }

    /// Commits the head entry if complete, returning `(seq, payload)`.
    pub fn try_commit(&mut self) -> Option<(u64, T)> {
        if self.entries.front()?.status == RobStatus::Complete {
            let e = self.entries.pop_front().expect("peeked front exists");
            Some((e.seq, e.payload))
        } else {
            None
        }
    }

    /// Commits the head entry unconditionally, returning `(seq, payload)`.
    ///
    /// For callers that track completion outside the ROB (the pipeline keeps
    /// a completed flag on its in-flight table, making the per-completion
    /// [`Rob::complete`] search unnecessary): the ROB then only enforces
    /// program order.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_uarch::Rob;
    ///
    /// let mut rob: Rob<&str> = Rob::new(4);
    /// rob.alloc(7, "head").unwrap();
    /// rob.alloc(8, "next").unwrap();
    /// assert_eq!(rob.pop_head(), Some((7, "head")));
    /// assert_eq!(rob.len(), 1);
    /// ```
    pub fn pop_head(&mut self) -> Option<(u64, T)> {
        self.entries.pop_front().map(|e| (e.seq, e.payload))
    }

    /// Peeks the head entry without committing.
    pub fn head(&self) -> Option<(u64, RobStatus, &T)> {
        self.entries.front().map(|e| (e.seq, e.status, &e.payload))
    }

    /// Squashes every entry with sequence strictly greater than `seq`,
    /// returning the squashed payloads youngest-last.
    ///
    /// Convenience wrapper over [`Rob::squash_younger_into`]; hot callers
    /// (misprediction recovery under branchy workloads) should pass a
    /// reusable scratch buffer to the `_into` form instead.
    pub fn squash_younger(&mut self, seq: u64) -> Vec<T> {
        let mut squashed = Vec::new();
        self.squash_younger_into(seq, &mut squashed);
        squashed
    }

    /// Allocation-free form of [`Rob::squash_younger`]: clears `out` and
    /// fills it with the squashed payloads, oldest first. With a reused
    /// `out` buffer, recovery performs no heap allocation here.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_uarch::Rob;
    ///
    /// let mut rob = Rob::new(8);
    /// let mut scratch = Vec::new();
    /// for s in 0u64..4 {
    ///     rob.alloc(s, s).unwrap();
    /// }
    /// rob.squash_younger_into(1, &mut scratch);
    /// assert_eq!(scratch, vec![2, 3]);
    /// assert_eq!(rob.len(), 2);
    /// ```
    pub fn squash_younger_into(&mut self, seq: u64, out: &mut Vec<T>) {
        out.clear();
        while let Some(back) = self.entries.back() {
            if back.seq > seq {
                out.push(self.entries.pop_back().expect("back exists").payload);
            } else {
                break;
            }
        }
        out.reverse();
    }

    /// Iterates over `(seq, status)` of live entries, oldest first.
    pub fn iter_status(&self) -> impl Iterator<Item = (u64, RobStatus)> + '_ {
        self.entries.iter().map(|e| (e.seq, e.status))
    }

    /// Records an occupancy sample (the paper reports higher in-flight
    /// counts for GALS).
    pub fn sample_occupancy(&mut self) {
        let occupancy = self.entries.len();
        self.occupancy_samples += 1;
        self.occupancy_sum += occupancy as u64;
        self.occupancy_peak = self.occupancy_peak.max(occupancy);
    }

    /// Mean sampled occupancy.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    /// Peak sampled occupancy.
    pub fn peak_occupancy(&self) -> usize {
        self.occupancy_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_commit_order() {
        let mut rob = Rob::new(8);
        for s in 0..4 {
            rob.alloc(s, s * 10).unwrap();
        }
        for s in (0..4).rev() {
            rob.complete(s);
        }
        for s in 0..4 {
            assert_eq!(rob.try_commit(), Some((s, s * 10)));
        }
        assert!(rob.is_empty());
    }

    #[test]
    fn head_blocks_commit() {
        let mut rob = Rob::new(4);
        rob.alloc(0, ()).unwrap();
        rob.alloc(1, ()).unwrap();
        rob.complete(1);
        assert_eq!(rob.try_commit(), None);
        assert_eq!(
            rob.head().map(|(s, st, _)| (s, st)),
            Some((0, RobStatus::InFlight))
        );
    }

    #[test]
    fn capacity_rejects() {
        let mut rob = Rob::new(2);
        rob.alloc(0, "x").unwrap();
        rob.alloc(1, "y").unwrap();
        assert_eq!(rob.alloc(2, "z"), Err("z"));
    }

    #[test]
    fn squash_younger_pops_tail() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.alloc(s, s).unwrap();
        }
        let squashed = rob.squash_younger(2);
        assert_eq!(squashed, vec![3, 4]);
        assert_eq!(rob.len(), 3);
        // Sequence numbers may repeat the squashed range afterwards.
        rob.alloc(3, 33).unwrap();
        assert_eq!(rob.len(), 4);
    }

    #[test]
    fn squash_younger_into_reuses_caller_buffer() {
        let mut rob = Rob::new(8);
        let mut scratch = vec![99, 98]; // stale contents must be cleared
        for s in 0..6 {
            rob.alloc(s, s).unwrap();
        }
        rob.squash_younger_into(3, &mut scratch);
        assert_eq!(scratch, vec![4, 5]);
        assert_eq!(rob.len(), 4);
        // Nothing younger: the buffer empties rather than keeping old hits.
        rob.squash_younger_into(3, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn complete_missing_entry_is_false() {
        let mut rob: Rob<()> = Rob::new(4);
        rob.alloc(5, ()).unwrap();
        assert!(!rob.complete(99));
        assert!(rob.complete(5));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_alloc_panics() {
        let mut rob = Rob::new(4);
        rob.alloc(5, ()).unwrap();
        let _ = rob.alloc(4, ());
    }

    #[test]
    fn occupancy_stats() {
        let mut rob = Rob::new(4);
        rob.alloc(0, ()).unwrap();
        rob.sample_occupancy();
        rob.alloc(1, ()).unwrap();
        rob.sample_occupancy();
        assert_eq!(rob.mean_occupancy(), 1.5);
        assert_eq!(rob.peak_occupancy(), 2);
    }
}
