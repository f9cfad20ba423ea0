//! Reorder buffer: in-order allocation and commit, squash-after-branch.

use std::collections::VecDeque;

/// A bounded reorder buffer over payload type `T`, keyed by the dynamic
/// sequence numbers the pipeline already carries. It keeps program order
/// only: the caller tracks completion and pops the head once it is done.
///
/// # Examples
///
/// ```
/// use gals_uarch::Rob;
///
/// let mut rob: Rob<&'static str> = Rob::new(4);
/// rob.alloc(0, "a").unwrap();
/// rob.alloc(1, "b").unwrap();
/// assert_eq!(rob.head(), Some((0, &"a")));
/// assert_eq!(rob.pop_head(), Some((0, "a")));
/// assert_eq!(rob.pop_head(), Some((1, "b")));
/// assert!(rob.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Rob<T> {
    /// `(seq, payload)`, oldest first.
    entries: VecDeque<(u64, T)>,
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
        if let Some(&(tail, _)) = self.entries.back() {
            assert!(seq > tail, "ROB allocation out of program order");
        }
        self.entries.push_back((seq, payload));
        Ok(())
    }

    /// Commits the head entry, returning `(seq, payload)`.
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
        self.entries.pop_front()
    }

    /// Peeks the head entry without committing.
    pub fn head(&self) -> Option<(u64, &T)> {
        self.entries.front().map(|(seq, payload)| (*seq, payload))
    }

    /// Drops every entry with sequence strictly greater than `seq` (squash
    /// after a mispredicted branch). Allocates nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_uarch::Rob;
    ///
    /// let mut rob = Rob::new(8);
    /// for s in 0u64..4 {
    ///     rob.alloc(s, s).unwrap();
    /// }
    /// rob.squash_younger(1);
    /// assert_eq!(rob.len(), 2);
    /// assert_eq!(rob.head(), Some((0, &0)));
    /// ```
    pub fn squash_younger(&mut self, seq: u64) {
        while self.entries.back().is_some_and(|&(s, _)| s > seq) {
            self.entries.pop_back();
        }
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
        for s in 0..4 {
            assert_eq!(rob.head(), Some((s, &(s * 10))));
            assert_eq!(rob.pop_head(), Some((s, s * 10)));
        }
        assert!(rob.is_empty());
        assert_eq!(rob.pop_head(), None);
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
        rob.squash_younger(2);
        assert_eq!(rob.len(), 3);
        // Sequence numbers may repeat the squashed range afterwards.
        rob.alloc(3, 33).unwrap();
        assert_eq!(rob.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| rob.pop_head()).collect();
        assert_eq!(order, vec![(0, 0), (1, 1), (2, 2), (3, 33)]);
    }

    #[test]
    fn squash_younger_into_reuses_caller_buffer() {
        // A squash drops entries in place: the freed slots of a full ROB
        // take the refetched path without growing it.
        let mut rob = Rob::new(4);
        for s in 0..4 {
            rob.alloc(s, s).unwrap();
        }
        assert!(!rob.has_space());
        rob.squash_younger(1);
        assert_eq!(rob.len(), 2);
        // Nothing younger: a second squash is a no-op.
        rob.squash_younger(1);
        assert_eq!(rob.len(), 2);
        rob.alloc(2, 22).unwrap();
        rob.alloc(3, 33).unwrap();
        assert!(!rob.has_space());
        assert_eq!(rob.alloc(4, 44), Err(44));
        assert_eq!(rob.head(), Some((0, &0)));
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
