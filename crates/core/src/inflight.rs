//! In-flight instruction state and inter-domain messages.
//!
//! ## The handle-based instruction store
//!
//! An in-flight instruction lives in exactly one place — one [`InFlight`]
//! record in a slot of [`InFlightTable`] — and every pipeline structure
//! (the decode buffer, the inter-domain [`gals_clocks::Channel`]s, the ROB,
//! the issue queues) carries only an 8-byte [`InstrId`] handle. Each stage
//! reads and writes the record's fields through
//! [`InFlightTable::get`]/[`InFlightTable::get_mut`]. The table is a slab:
//! freed slots are recycled through a free list, so its footprint tracks
//! the *live* instruction count (bounded by ROB + channel capacities — a
//! few hundred entries) rather than the sequence spread, which grows with
//! wrong-path squash bursts.
//!
//! Handles are generation-checked: [`InstrId`] packs a slot index with the
//! slot's generation, which every removal bumps. A handle whose
//! instruction has been removed (committed or squashed) therefore reads as
//! `None`, even after the slot has been reused — so a stale completion or
//! issue message is a no-op.

use gals_events::Time;
use gals_isa::{ArchReg, OpClass};
use gals_uarch::PhysReg;

/// A unified wakeup tag covering both register classes: integer physical
/// registers map to `0..512`, FP registers to `512..1024`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u16);

/// Size of the unified tag space.
pub const TAG_SPACE: usize = 1024;
const FP_TAG_BASE: u16 = 512;

impl Tag {
    /// Builds a tag from a class-local physical register.
    pub fn new(reg: PhysReg, is_fp: bool) -> Self {
        debug_assert!(reg.0 < FP_TAG_BASE);
        Tag(if is_fp { reg.0 + FP_TAG_BASE } else { reg.0 })
    }

    /// The class-local physical register.
    pub fn phys(self) -> PhysReg {
        PhysReg(self.0 % FP_TAG_BASE)
    }

    /// True for FP tags.
    pub fn is_fp(self) -> bool {
        self.0 >= FP_TAG_BASE
    }

    /// Dense index into `TAG_SPACE`-sized tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The `PhysReg` encoding used by [`gals_uarch::IssueQueue`] (which is
    /// class-agnostic and just matches 16-bit tokens).
    pub fn as_iq_tag(self) -> PhysReg {
        PhysReg(self.0)
    }
}

/// Fixed-capacity source-operand list. An instruction has at most two
/// register sources, so boxing them in a heap `Vec` put one allocation on
/// every renamed instruction; this inline array removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcTags {
    tags: [Tag; 2],
    len: u8,
}

impl Default for SrcTags {
    fn default() -> Self {
        SrcTags {
            tags: [Tag(0); 2],
            len: 0,
        }
    }
}

impl SrcTags {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a tag.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds two tags.
    pub fn push(&mut self, tag: Tag) {
        assert!(
            (self.len as usize) < 2,
            "an instruction has at most two sources"
        );
        self.tags[self.len as usize] = tag;
        self.len += 1;
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when there are no sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the tags.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.tags[..self.len as usize].iter().copied()
    }
}

impl FromIterator<Tag> for SrcTags {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        let mut s = SrcTags::new();
        for t in iter {
            s.push(t);
        }
        s
    }
}

/// Control-flow details of a fetched branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Direction the front end predicted.
    pub predicted_taken: bool,
    /// Architectural direction (meaningless for wrong-path branches).
    pub actual_taken: bool,
    /// Architectural next PC — the recovery target on a misprediction.
    pub recovery_pc: u64,
    /// True when the front end detected (at fetch, against the
    /// architectural stream) that this correct-path branch was mispredicted
    /// and fetch has gone down the wrong path.
    pub mispredicted: bool,
}

/// Destination rename record: `(arch, new phys tag, old phys reg)`.
pub type DstRename = (ArchReg, Tag, PhysReg);

/// The handle to one live in-flight instruction: a slot index into
/// [`InFlightTable`] packed with the slot's generation. 8 bytes — the only
/// thing pipeline structures store per instruction.
///
/// A handle whose instruction has been removed is *stale*; every table
/// accessor detects staleness through the generation check and treats the
/// handle as referring to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstrId {
    slot: u32,
    gen: u32,
}

impl InstrId {
    /// Packs the handle into a `u64` (for structures keyed by opaque
    /// tokens, e.g. [`gals_uarch::IssueQueue`]).
    #[inline]
    pub fn bits(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.slot)
    }

    /// Reverses [`InstrId::bits`].
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        InstrId {
            slot: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

/// One in-flight instruction: what the front end records at fetch, plus
/// the fields later stages fill in (the rename results, the completion
/// flag and the accumulated channel residency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Global fetch sequence number (never reused; program order among
    /// correct-path instructions).
    pub seq: u64,
    /// Byte PC.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// True if fetched while the front end was on a mispredicted path.
    pub wrong_path: bool,
    /// True for the program's final instruction.
    pub is_exit: bool,
    /// Set when the completion notice reaches the decode domain; commit
    /// waits for it at the ROB head.
    pub completed: bool,
    /// Architectural destination register (copied from the static
    /// instruction at fetch so rename never re-locates the PC).
    pub arch_dst: Option<ArchReg>,
    /// Architectural source registers, same provenance.
    pub arch_srcs: [Option<ArchReg>; 2],
    /// Memory byte address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Branch details.
    pub branch: Option<BranchInfo>,
    /// Renamed source tags (filled at rename).
    pub srcs: SrcTags,
    /// Destination rename (filled at rename).
    pub dst: Option<DstRename>,
    /// Fetch timestamp (slip starts here).
    pub fetched_at: Time,
    /// Accumulated channel residency (the FIFO share of slip).
    pub fifo_time: Time,
}

/// One slab slot: the generation stamped into handles, and the occupant.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bumped at each removal, so older handles to this slot go stale.
    gen: u32,
    instr: Option<InFlight>,
}

const EMPTY_SLOT: Slot = Slot {
    gen: 0,
    instr: None,
};

/// The slab-backed in-flight instruction store (see the module docs).
///
/// # Examples
///
/// ```
/// use gals_core::inflight::{InFlight, InFlightTable, SrcTags};
/// use gals_events::Time;
/// use gals_isa::OpClass;
///
/// let mut t = InFlightTable::with_capacity(8);
/// let id = t.insert(InFlight {
///     seq: 7,
///     pc: 28,
///     op: OpClass::IntAlu,
///     wrong_path: false,
///     is_exit: false,
///     completed: false,
///     arch_dst: None,
///     arch_srcs: [None, None],
///     mem_addr: None,
///     branch: None,
///     srcs: SrcTags::new(),
///     dst: None,
///     fetched_at: Time::ZERO,
///     fifo_time: Time::ZERO,
/// });
/// assert_eq!(t.get(id).map(|f| f.seq), Some(7));
/// t.get_mut(id).expect("live").completed = true;
/// assert!(t.remove(id).is_some_and(|f| f.completed));
/// assert!(t.get(id).is_none()); // stale handle: refers to nothing
/// ```
#[derive(Debug)]
pub struct InFlightTable {
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<u32>,
    live: usize,
}

/// Growth ceiling: a table this large means instructions leak (they are
/// inserted but never committed or squashed), which is a simulator bug.
const INFLIGHT_CAP_CEILING: usize = 1 << 24;

impl InFlightTable {
    /// A table pre-sized for `capacity` simultaneously live instructions
    /// (it grows slot-by-slot beyond that, amortised O(1); the live count
    /// is bounded by ROB + channel capacities, so a correctly sized table
    /// never grows after construction).
    pub fn with_capacity(capacity: usize) -> Self {
        InFlightTable {
            slots: vec![EMPTY_SLOT; capacity],
            free: (0..capacity as u32).rev().collect(),
            live: 0,
        }
    }

    /// Number of live instructions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no instructions are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a fetched instruction and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if growth passes `INFLIGHT_CAP_CEILING` (2²⁴ slots) —
    /// instructions are leaking, which indicates a simulator bug, never a
    /// user error.
    pub fn insert(&mut self, instr: InFlight) -> InstrId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                assert!(
                    self.slots.len() < INFLIGHT_CAP_CEILING,
                    "in-flight table grew past {INFLIGHT_CAP_CEILING} slots: instruction leak"
                );
                self.slots.push(EMPTY_SLOT);
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.instr.is_none(), "free list returned a live slot");
        s.instr = Some(instr);
        self.live += 1;
        InstrId { slot, gen: s.gen }
    }

    /// The instruction behind a live handle, or `None` for a stale one.
    #[inline]
    pub fn get(&self, id: InstrId) -> Option<&InFlight> {
        let s = self.slots.get(id.slot as usize)?;
        if s.gen == id.gen {
            s.instr.as_ref()
        } else {
            None
        }
    }

    /// Mutable form of [`InFlightTable::get`].
    #[inline]
    pub fn get_mut(&mut self, id: InstrId) -> Option<&mut InFlight> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen == id.gen {
            s.instr.as_mut()
        } else {
            None
        }
    }

    /// Removes the instruction, freeing its slot for reuse, and returns
    /// it. `None` for a stale handle.
    pub fn remove(&mut self, id: InstrId) -> Option<InFlight> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        let instr = s.instr.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        Some(instr)
    }

    /// Removes every live instruction with `seq > older_than` — the squash
    /// shape: everything younger than the mispredicted branch. The scan is
    /// O(capacity), and the capacity tracks the peak live count (a few
    /// hundred slots), so recovery stays cheap and allocation-free.
    pub fn remove_younger(&mut self, older_than: u64) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.instr.as_ref().is_some_and(|f| f.seq > older_than) {
                s.instr = None;
                s.gen = s.gen.wrapping_add(1);
                self.free.push(i as u32);
                self.live -= 1;
            }
        }
    }
}

/// A fetch-redirect message (mispredicted branch resolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Redirect {
    /// Handle of the mispredicted branch (for slip attribution).
    pub branch: InstrId,
    /// Sequence number of the mispredicted branch (the squash bound).
    pub branch_seq: u64,
    /// PC fetch must resume from.
    pub target_pc: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(seq: u64) -> InFlight {
        InFlight {
            seq,
            pc: seq * 4,
            op: OpClass::IntAlu,
            wrong_path: false,
            is_exit: false,
            completed: false,
            arch_dst: None,
            arch_srcs: [None, None],
            mem_addr: None,
            branch: None,
            srcs: SrcTags::new(),
            dst: None,
            fetched_at: Time::ZERO,
            fifo_time: Time::ZERO,
        }
    }

    #[test]
    fn inflight_table_round_trips() {
        let mut t = InFlightTable::with_capacity(8);
        assert!(t.is_empty());
        let a = t.insert(dummy(5));
        let b = t.insert(dummy(6));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).map(|f| f.pc), Some(20));
        assert_eq!(t.get(b).map(|f| f.seq), Some(6));
        t.get_mut(b).expect("live").completed = true;
        assert!(!t.get(a).expect("live").completed);
        let removed = t.remove(b).expect("live handle");
        assert!(removed.completed);
        assert!(t.remove(b).is_none(), "double remove is a stale no-op");
        assert_eq!(t.len(), 1);
        assert!(t.get(b).is_none());
    }

    #[test]
    fn rename_fields_are_stored_on_the_hot_side() {
        let mut t = InFlightTable::with_capacity(4);
        let id = t.insert(dummy(3));
        let dst = Some((ArchReg::int(1), Tag(40), PhysReg(9)));
        let f = t.get_mut(id).expect("live");
        f.srcs.push(Tag(17));
        f.dst = dst;
        let f = t.get(id).expect("live");
        assert_eq!(f.srcs.iter().collect::<Vec<_>>(), vec![Tag(17)]);
        assert_eq!(f.dst, dst);
        let removed = t.remove(id).expect("live handle");
        assert_eq!(removed.srcs.iter().collect::<Vec<_>>(), vec![Tag(17)]);
        assert_eq!(removed.dst, dst);
    }

    #[test]
    fn fifo_time_accumulates_in_the_cold_record() {
        let mut t = InFlightTable::with_capacity(4);
        let id = t.insert(dummy(3));
        t.get_mut(id).expect("live").fifo_time += Time::from_ns(2);
        t.get_mut(id).expect("live").fifo_time += Time::from_ns(1);
        assert_eq!(t.get(id).map(|f| f.fifo_time), Some(Time::from_ns(3)));
        t.remove(id);
        assert!(t.get_mut(id).is_none());
    }

    #[test]
    fn stale_handles_survive_slot_reuse() {
        let mut t = InFlightTable::with_capacity(1);
        let a = t.insert(dummy(1));
        t.remove(a);
        let b = t.insert(dummy(2));
        // `b` reuses `a`'s slot; the generation check keeps them distinct.
        assert_ne!(a, b);
        assert!(t.get(a).is_none());
        assert!(t.get_mut(a).is_none());
        assert!(t.remove(a).is_none());
        assert_eq!(t.get(b).map(|f| f.seq), Some(2));
    }

    #[test]
    fn table_grows_past_its_initial_capacity() {
        let mut t = InFlightTable::with_capacity(2);
        let ids: Vec<InstrId> = (0..10).map(|s| t.insert(dummy(s))).collect();
        assert_eq!(t.len(), 10);
        assert!(t.capacity() >= 10);
        for (s, id) in ids.iter().enumerate() {
            assert_eq!(t.get(*id).map(|f| f.seq), Some(s as u64));
        }
    }

    #[test]
    fn remove_younger_squashes_by_sequence() {
        let mut t = InFlightTable::with_capacity(8);
        let ids: Vec<InstrId> = (0..10).map(|s| t.insert(dummy(s))).collect();
        t.remove_younger(3);
        assert_eq!(t.len(), 4);
        assert!(t.get(ids[3]).is_some());
        assert!(t.get(ids[4]).is_none());
        assert!(t.get(ids[9]).is_none());
    }

    #[test]
    fn instr_id_bits_round_trip() {
        let id = InstrId {
            slot: 123,
            gen: 456,
        };
        assert_eq!(InstrId::from_bits(id.bits()), id);
    }

    #[test]
    fn tag_round_trips_both_classes() {
        let int_tag = Tag::new(PhysReg(37), false);
        assert!(!int_tag.is_fp());
        assert_eq!(int_tag.phys(), PhysReg(37));
        assert_eq!(int_tag.index(), 37);
        let fp_tag = Tag::new(PhysReg(37), true);
        assert!(fp_tag.is_fp());
        assert_eq!(fp_tag.phys(), PhysReg(37));
        assert_eq!(fp_tag.index(), 512 + 37);
        assert_ne!(int_tag, fp_tag);
    }

    #[test]
    fn iq_tags_stay_distinct_across_classes() {
        let a = Tag::new(PhysReg(5), false).as_iq_tag();
        let b = Tag::new(PhysReg(5), true).as_iq_tag();
        assert_ne!(a, b);
    }

    #[test]
    fn src_tags_hold_up_to_two() {
        let mut s = SrcTags::new();
        assert!(s.is_empty());
        s.push(Tag(3));
        s.push(Tag(700));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Tag(3), Tag(700)]);
        let collected: SrcTags = [Tag(1), Tag(2)].into_iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn src_tags_reject_a_third_source() {
        let mut s = SrcTags::new();
        s.push(Tag(1));
        s.push(Tag(2));
        s.push(Tag(3));
    }
}
