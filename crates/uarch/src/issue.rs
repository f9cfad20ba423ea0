//! Out-of-order issue queues with tag-based wakeup and oldest-first select.
//!
//! The paper's design has three queues — integer (20 entries), FP (16) and
//! memory (16) — each co-located with its functional units in one clock
//! domain so that "dependent instructions within the integer issue queue can
//! be issued back-to-back as soon as operands are available".

use crate::rename::PhysReg;

/// Token identifying an instruction waiting in a queue (opaque payload key).
pub type IqToken = u64;

/// Maximum outstanding source tags per queued instruction. Two register
/// sources is the ISA ceiling; the headroom is free (the array is inline).
const MAX_WAITING: usize = 4;

/// One waiting instruction. The outstanding-source set is an inline array —
/// inserting into the queue performs no heap allocation.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    token: IqToken,
    /// Age for oldest-first selection (dynamic sequence number works well).
    age: u64,
    /// Source operands still outstanding. Tags are destination physical
    /// registers of producer instructions.
    waiting: [PhysReg; MAX_WAITING],
    /// Live prefix length of `waiting`.
    nwait: u8,
}

impl IqEntry {
    #[inline]
    fn is_ready(&self) -> bool {
        self.nwait == 0
    }

    #[inline]
    fn drop_tag(&mut self, tag: PhysReg) {
        let mut i = 0;
        while i < self.nwait as usize {
            if self.waiting[i] == tag {
                self.nwait -= 1;
                self.waiting[i] = self.waiting[self.nwait as usize];
            } else {
                i += 1;
            }
        }
    }
}

/// Statistics of one issue queue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IssueQueueStats {
    /// Instructions inserted.
    pub inserted: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Occupancy integral (entries x samples) for mean occupancy.
    pub occupancy_sum: u64,
    /// Number of occupancy samples.
    pub occupancy_samples: u64,
    /// Peak occupancy.
    pub occupancy_peak: usize,
    /// Cycles in which at least one instruction was ready but the issue
    /// width was exhausted.
    pub width_stalls: u64,
}

impl IssueQueueStats {
    /// Mean occupancy per sample.
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }
}

/// A bounded issue queue: insert renamed instructions with outstanding
/// source tags, wake them as producers complete, select the oldest ready
/// ones each cycle.
///
/// Entries are kept in **age order** (dispatch inserts in program order and
/// removals preserve order), so oldest-first selection is a single forward
/// scan — no per-cycle sort.
///
/// # Examples
///
/// ```
/// use gals_uarch::{IssueQueue, PhysReg};
///
/// let mut iq = IssueQueue::new(4);
/// iq.insert(1, 10, vec![PhysReg(40)]).unwrap(); // waits on p40
/// iq.insert(2, 11, vec![]).unwrap();            // ready at once
/// assert_eq!(iq.select(4), vec![2]);
/// iq.wakeup(PhysReg(40));
/// assert_eq!(iq.select(4), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct IssueQueue {
    capacity: usize,
    entries: Vec<IqEntry>,
    stats: IssueQueueStats,
    /// Selection scratch (indices picked this cycle), reused across cycles
    /// so steady-state selection allocates nothing.
    chosen_scratch: Vec<usize>,
}

impl IssueQueue {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "issue queue capacity must be non-zero");
        IssueQueue {
            capacity,
            entries: Vec::with_capacity(capacity),
            stats: IssueQueueStats::default(),
            chosen_scratch: Vec::with_capacity(capacity),
        }
    }

    /// Current number of waiting instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instructions wait.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when another instruction can be inserted.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Statistics.
    pub fn stats(&self) -> IssueQueueStats {
        self.stats
    }

    /// Inserts an instruction.
    ///
    /// `waiting` lists the source tags not yet produced; an empty list means
    /// the instruction is immediately ready. Any iterator works — the tags
    /// are stored inline, so dispatch need not build a `Vec`.
    ///
    /// # Errors
    ///
    /// Returns `Err(token)` (the rejected token) when the queue is full —
    /// dispatch must stall.
    ///
    /// # Panics
    ///
    /// Panics if `waiting` yields more than four tags (the ISA has at most
    /// two register sources), or if `age` is not strictly greater than
    /// every age already queued — insertion must be in program order, the
    /// invariant that lets selection scan instead of sort (dispatch
    /// naturally satisfies it; see [`Rob::alloc`](crate::Rob::alloc) for
    /// the same contract).
    pub fn insert(
        &mut self,
        token: IqToken,
        age: u64,
        waiting: impl IntoIterator<Item = PhysReg>,
    ) -> Result<(), IqToken> {
        if !self.has_space() {
            return Err(token);
        }
        if let Some(tail) = self.entries.last() {
            assert!(age > tail.age, "issue queue insertion out of program order");
        }
        self.stats.inserted += 1;
        let mut entry = IqEntry {
            token,
            age,
            waiting: [PhysReg(0); MAX_WAITING],
            nwait: 0,
        };
        for tag in waiting {
            assert!(
                (entry.nwait as usize) < MAX_WAITING,
                "instruction waits on more than {MAX_WAITING} source tags"
            );
            entry.waiting[entry.nwait as usize] = tag;
            entry.nwait += 1;
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Broadcasts a completed producer tag, marking dependents ready.
    pub fn wakeup(&mut self, tag: PhysReg) {
        for e in &mut self.entries {
            e.drop_tag(tag);
        }
    }

    /// Selects up to `width` ready instructions, oldest first, removing them
    /// from the queue. Returns their tokens in selection order.
    pub fn select(&mut self, width: u32) -> Vec<IqToken> {
        let mut out = Vec::new();
        self.select_into(width, |_| true, &mut out);
        out
    }

    /// Selects ready instructions for which `admit` also returns true
    /// (e.g. a functional unit is free), oldest first, up to `width`:
    /// clears `out` and fills it with the selected tokens. With a reused
    /// `out` buffer the steady-state selection path performs no heap
    /// allocation (internal scratch is owned by the queue).
    pub fn select_into(
        &mut self,
        width: u32,
        mut admit: impl FnMut(IqToken) -> bool,
        out: &mut Vec<IqToken>,
    ) {
        out.clear();
        // The entries are age-ordered (see the type docs), so one forward
        // scan visits ready instructions oldest-first. The chosen scratch
        // is moved out so the borrow checker allows `admit` to run while
        // indices are collected.
        let mut chosen = std::mem::take(&mut self.chosen_scratch);
        chosen.clear();
        for (i, e) in self.entries.iter().enumerate() {
            if !e.is_ready() {
                continue;
            }
            if chosen.len() == width as usize {
                self.stats.width_stalls += 1;
                break;
            }
            if admit(e.token) {
                chosen.push(i);
            }
        }
        // `chosen` is in ascending age order; emit tokens before removal
        // invalidates indices.
        for &i in &chosen {
            out.push(self.entries[i].token);
        }
        // Remove back-to-front, preserving the age order of the rest.
        for &i in chosen.iter().rev() {
            self.entries.remove(i);
        }
        self.stats.issued += out.len() as u64;
        self.chosen_scratch = chosen;
    }

    /// Drops every instruction younger than `age` (squash after a
    /// mispredicted branch). Allocates nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use gals_uarch::{IssueQueue, PhysReg};
    ///
    /// let mut iq = IssueQueue::new(8);
    /// iq.insert(1, 10, vec![PhysReg(40)]).unwrap();
    /// iq.insert(2, 20, vec![PhysReg(40)]).unwrap();
    /// iq.squash_younger(15);
    /// assert_eq!(iq.len(), 1);
    /// ```
    pub fn squash_younger(&mut self, age: u64) {
        self.entries.retain(|e| e.age <= age);
    }

    /// Records an occupancy sample.
    pub fn sample_occupancy(&mut self) {
        self.stats.occupancy_samples += 1;
        self.stats.occupancy_sum += self.entries.len() as u64;
        self.stats.occupancy_peak = self.stats.occupancy_peak.max(self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_instructions_issue_oldest_first() {
        let mut iq = IssueQueue::new(8);
        iq.insert(11, 3, vec![]).unwrap();
        iq.insert(12, 4, vec![]).unwrap();
        iq.insert(10, 5, vec![PhysReg(40)]).unwrap();
        assert_eq!(iq.select(2), vec![11, 12]);
        iq.wakeup(PhysReg(40));
        assert_eq!(iq.select(2), vec![10]);
        assert!(iq.is_empty());
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_insert_panics() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 5, vec![]).unwrap();
        let _ = iq.insert(2, 3, vec![]);
    }

    #[test]
    fn wakeup_enables_dependents() {
        let mut iq = IssueQueue::new(4);
        iq.insert(1, 0, vec![PhysReg(33), PhysReg(34)]).unwrap();
        assert!(iq.select(4).is_empty());
        iq.wakeup(PhysReg(33));
        assert!(iq.select(4).is_empty());
        iq.wakeup(PhysReg(34));
        assert_eq!(iq.select(4), vec![1]);
    }

    #[test]
    fn full_queue_rejects() {
        let mut iq = IssueQueue::new(2);
        iq.insert(1, 0, vec![]).unwrap();
        iq.insert(2, 1, vec![]).unwrap();
        assert_eq!(iq.insert(3, 2, vec![]), Err(3));
        assert!(!iq.has_space());
    }

    #[test]
    fn squash_removes_younger_only() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 10, vec![]).unwrap();
        iq.insert(2, 20, vec![]).unwrap();
        iq.insert(3, 30, vec![]).unwrap();
        iq.squash_younger(15);
        assert_eq!(iq.len(), 1);
        assert_eq!(iq.select(4), vec![1]);
    }

    #[test]
    fn squash_younger_into_reuses_caller_buffer() {
        // A squash drops entries in place: the freed entries of a full
        // queue take the refetched path.
        let mut iq = IssueQueue::new(3);
        iq.insert(1, 10, vec![PhysReg(40)]).unwrap();
        iq.insert(2, 20, vec![PhysReg(40)]).unwrap();
        iq.insert(3, 30, vec![PhysReg(40)]).unwrap();
        assert!(!iq.has_space());
        iq.squash_younger(15);
        assert_eq!(iq.len(), 1);
        // Nothing younger: a second squash is a no-op.
        iq.squash_younger(15);
        assert_eq!(iq.len(), 1);
        iq.insert(4, 20, vec![]).unwrap();
        iq.insert(5, 30, vec![]).unwrap();
        assert!(!iq.has_space());
        iq.wakeup(PhysReg(40));
        assert_eq!(iq.select(4), vec![1, 4, 5]);
    }

    #[test]
    fn select_into_admission_control() {
        let mut iq = IssueQueue::new(8);
        let mut out = Vec::new();
        iq.insert(1, 0, vec![]).unwrap();
        iq.insert(2, 1, vec![]).unwrap();
        iq.insert(3, 2, vec![]).unwrap();
        // Admit only even tokens.
        iq.select_into(4, |t| t % 2 == 0, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(iq.len(), 2);
    }

    #[test]
    fn width_limits_issue() {
        let mut iq = IssueQueue::new(8);
        for i in 0..6 {
            iq.insert(i, i, vec![]).unwrap();
        }
        assert_eq!(iq.select(4).len(), 4);
        assert!(iq.stats().width_stalls > 0);
    }

    #[test]
    fn occupancy_sampling() {
        let mut iq = IssueQueue::new(8);
        iq.insert(1, 0, vec![PhysReg(40)]).unwrap();
        iq.sample_occupancy();
        iq.insert(2, 1, vec![PhysReg(40)]).unwrap();
        iq.sample_occupancy();
        assert_eq!(iq.stats().mean_occupancy(), 1.5);
        assert_eq!(iq.stats().occupancy_peak, 2);
    }

    #[test]
    fn select_into_reuses_caller_buffer() {
        let mut iq = IssueQueue::new(8);
        let mut out = Vec::new();
        iq.insert(1, 0, std::iter::empty()).unwrap();
        iq.insert(2, 1, [PhysReg(9)]).unwrap();
        iq.select_into(4, |_| true, &mut out);
        assert_eq!(out, vec![1]);
        iq.wakeup(PhysReg(9));
        iq.select_into(4, |_| true, &mut out);
        assert_eq!(out, vec![2]);
        iq.select_into(4, |_| true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_tags_both_cleared() {
        let mut iq = IssueQueue::new(4);
        iq.insert(1, 0, vec![PhysReg(40), PhysReg(40)]).unwrap();
        iq.wakeup(PhysReg(40));
        assert_eq!(iq.select(4), vec![1]);
    }
}
