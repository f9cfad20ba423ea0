//! Register renaming: register alias table (RAT), physical register free
//! lists and branch checkpoints.
//!
//! The paper's processor has 72 integer and 72 floating-point physical
//! registers (Table 3). Renaming stalls when a class runs out of free
//! registers; the *occupancy* of the alias table (number of in-flight
//! renames) is one of the statistics the paper reports (section 5.1: "the
//! integer register allocation table occupancy went up from 15 in base to
//! 24 in GALS for the ijpeg benchmark").

use gals_isa::ArchReg;

/// Architectural registers per class (int or fp).
pub const NUM_ARCH_PER_CLASS: usize = 32;

/// A physical register: class is implicit in the owning table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg(pub u16);

/// A saved RAT + free-list snapshot taken at a branch. Plain value — the
/// RAT is a fixed 32-entry array, so taking or restoring a checkpoint
/// performs no heap allocation (the steady-state zero-allocation claim
/// covers branchy code too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    map: [u16; NUM_ARCH_PER_CLASS],
    free: u128,
    seq: u64,
}

/// Error returned when renaming cannot proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameError {
    /// No free physical register in the required class.
    OutOfRegisters,
}

impl std::fmt::Display for RenameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenameError::OutOfRegisters => write!(f, "no free physical register"),
        }
    }
}

impl std::error::Error for RenameError {}

/// One register class's rename state (the processor holds one for int, one
/// for fp).
#[derive(Debug, Clone)]
struct ClassRename {
    /// arch index -> physical register.
    map: [u16; NUM_ARCH_PER_CLASS],
    /// Bitset of free physical registers (supports up to 128).
    free: u128,
    num_phys: u16,
}

impl ClassRename {
    fn new(num_phys: u16) -> Self {
        assert!(
            (NUM_ARCH_PER_CLASS..=128).contains(&usize::from(num_phys)),
            "physical register count {num_phys} out of supported range"
        );
        // p0..p31 initially hold architectural state; the rest are free.
        let map: [u16; NUM_ARCH_PER_CLASS] = std::array::from_fn(|i| i as u16);
        let mut free: u128 = 0;
        for p in NUM_ARCH_PER_CLASS as u16..num_phys {
            free |= 1 << p;
        }
        ClassRename {
            map,
            free,
            num_phys,
        }
    }

    fn alloc(&mut self) -> Option<PhysReg> {
        if self.free == 0 {
            return None;
        }
        let p = self.free.trailing_zeros() as u16;
        self.free &= !(1u128 << p);
        Some(PhysReg(p))
    }

    fn release(&mut self, p: PhysReg) {
        debug_assert!(p.0 < self.num_phys);
        debug_assert!(self.free & (1 << p.0) == 0, "double free of {p:?}");
        self.free |= 1 << p.0;
    }

    fn free_count(&self) -> u32 {
        self.free.count_ones()
    }

    fn in_flight(&self) -> u32 {
        u32::from(self.num_phys) - self.free_count() - NUM_ARCH_PER_CLASS as u32
    }
}

/// The rename stage state: two register classes plus a stack of branch
/// checkpoints.
///
/// # Recovery protocol
///
/// * `checkpoint(seq)` snapshots the RAT and free lists when a branch with
///   dynamic sequence number `seq` is renamed.
/// * On misprediction, `recover(seq)` restores the snapshot taken *at* that
///   branch and discards all younger checkpoints; registers allocated by
///   squashed instructions return to the free list automatically because
///   the snapshot predates them.
/// * `commit_release(old)` frees the *previous* mapping of a committed
///   instruction's destination. To keep live checkpoints consistent, the
///   freed register is also marked free in every outstanding snapshot (a
///   committed instruction is older than any live checkpoint, so its
///   `old` register can never be referenced again on any path).
#[derive(Debug, Clone)]
pub struct RenameUnit {
    int: ClassRename,
    fp: ClassRename,
    checkpoints: Vec<(u64, Checkpoint, Checkpoint)>,
    max_checkpoints: usize,
    /// Peak and accumulated occupancy statistics.
    occupancy_samples: u64,
    occupancy_sum: u64,
    occupancy_peak: u32,
}

/// Result of renaming one destination register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenamedDst {
    /// Newly allocated physical register now holding the architectural
    /// destination.
    pub new: PhysReg,
    /// The physical register previously mapped to that architectural
    /// register; freed when the instruction commits.
    pub old: PhysReg,
}

impl RenameUnit {
    /// Creates rename state for `int_phys`/`fp_phys` physical registers per
    /// class and at most `max_checkpoints` unresolved branches.
    pub fn new(int_phys: u16, fp_phys: u16, max_checkpoints: usize) -> Self {
        RenameUnit {
            int: ClassRename::new(int_phys),
            fp: ClassRename::new(fp_phys),
            checkpoints: Vec::with_capacity(max_checkpoints),
            max_checkpoints,
            occupancy_samples: 0,
            occupancy_sum: 0,
            occupancy_peak: 0,
        }
    }

    /// Current mapping of an architectural register.
    pub fn lookup(&self, reg: ArchReg) -> PhysReg {
        let class = if reg.is_fp() { &self.fp } else { &self.int };
        PhysReg(class.map[reg.index() as usize])
    }

    /// Renames a destination: allocates a fresh physical register and
    /// installs it in the RAT.
    ///
    /// # Errors
    ///
    /// [`RenameError::OutOfRegisters`] when the class's free list is empty;
    /// the rename stage must stall this cycle.
    pub fn rename_dst(&mut self, reg: ArchReg) -> Result<RenamedDst, RenameError> {
        let class = if reg.is_fp() {
            &mut self.fp
        } else {
            &mut self.int
        };
        let new = class.alloc().ok_or(RenameError::OutOfRegisters)?;
        let idx = reg.index() as usize;
        let old = PhysReg(class.map[idx]);
        class.map[idx] = new.0;
        Ok(RenamedDst { new, old })
    }

    /// Undoes a `rename_dst` performed earlier in the *same cycle* (used
    /// when a later operation of a multi-dest bundle stalls).
    pub fn undo_rename(&mut self, reg: ArchReg, renamed: RenamedDst) {
        let class = if reg.is_fp() {
            &mut self.fp
        } else {
            &mut self.int
        };
        let idx = reg.index() as usize;
        debug_assert_eq!(class.map[idx], renamed.new.0);
        class.map[idx] = renamed.old.0;
        class.release(renamed.new);
    }

    /// True if a checkpoint slot is available for another in-flight branch.
    pub fn can_checkpoint(&self) -> bool {
        self.checkpoints.len() < self.max_checkpoints
    }

    /// Snapshots the RAT at the branch with dynamic sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint slot is free (guard with
    /// [`RenameUnit::can_checkpoint`]).
    pub fn checkpoint(&mut self, seq: u64) {
        assert!(self.can_checkpoint(), "checkpoint stack full");
        let snap = |c: &ClassRename| Checkpoint {
            map: c.map,
            free: c.free,
            seq,
        };
        self.checkpoints
            .push((seq, snap(&self.int), snap(&self.fp)));
    }

    /// Restores the checkpoint taken at branch `seq`, discarding it and all
    /// younger checkpoints. Returns `true` if a checkpoint for `seq`
    /// existed.
    pub fn recover(&mut self, seq: u64) -> bool {
        let Some(pos) = self.checkpoints.iter().position(|(s, _, _)| *s == seq) else {
            return false;
        };
        let (_, int_cp, fp_cp) = self.checkpoints[pos];
        self.int.map = int_cp.map;
        self.int.free = int_cp.free;
        self.fp.map = fp_cp.map;
        self.fp.free = fp_cp.free;
        self.checkpoints.truncate(pos);
        true
    }

    /// Releases the checkpoint of a branch that resolved correctly (or
    /// committed); also discards checkpoints older than `seq` (they cannot
    /// be recovery targets any more).
    pub fn release_checkpoint(&mut self, seq: u64) {
        self.checkpoints.retain(|(s, _, _)| *s > seq);
    }

    /// Frees the previous mapping of a committed destination and patches
    /// all live checkpoints (see the recovery-protocol note on the type).
    pub fn commit_release(&mut self, reg: ArchReg, old: PhysReg) {
        let is_fp = reg.is_fp();
        {
            let class = if is_fp { &mut self.fp } else { &mut self.int };
            class.release(old);
        }
        for (_, int_cp, fp_cp) in &mut self.checkpoints {
            let cp = if is_fp { fp_cp } else { int_cp };
            cp.free |= 1 << old.0;
        }
    }

    /// Frees the destination register of a squashed instruction whose
    /// rename is *not* covered by any restored checkpoint (used only by
    /// non-checkpoint recovery paths; unnecessary when `recover` is used).
    pub fn squash_release(&mut self, reg: ArchReg, new: PhysReg) {
        let class = if reg.is_fp() {
            &mut self.fp
        } else {
            &mut self.int
        };
        class.release(new);
    }

    /// Number of in-flight renames (allocated beyond architectural state)
    /// for the integer class — the paper's "register allocation table
    /// occupancy".
    pub fn int_occupancy(&self) -> u32 {
        self.int.in_flight()
    }

    /// In-flight renames for the FP class.
    pub fn fp_occupancy(&self) -> u32 {
        self.fp.in_flight()
    }

    /// Free registers per class `(int, fp)`.
    pub fn free_counts(&self) -> (u32, u32) {
        (self.int.free_count(), self.fp.free_count())
    }

    /// Number of live checkpoints (unresolved branches).
    pub fn live_checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Records an occupancy sample for statistics.
    pub fn sample_occupancy(&mut self) {
        let occupancy = self.int_occupancy() + self.fp_occupancy();
        self.occupancy_samples += 1;
        self.occupancy_sum += u64::from(occupancy);
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
    pub fn peak_occupancy(&self) -> u32 {
        self.occupancy_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> RenameUnit {
        RenameUnit::new(72, 72, 8)
    }

    #[test]
    fn initial_map_is_identity() {
        let u = unit();
        for i in 0..32 {
            assert_eq!(u.lookup(ArchReg::int(i)), PhysReg(u16::from(i)));
            assert_eq!(u.lookup(ArchReg::fp(i)), PhysReg(u16::from(i)));
        }
        assert_eq!(u.free_counts(), (40, 40));
        assert_eq!(u.int_occupancy(), 0);
    }

    #[test]
    fn rename_allocates_and_remaps() {
        let mut u = unit();
        let r3 = ArchReg::int(3);
        let renamed = u.rename_dst(r3).unwrap();
        assert_eq!(renamed.old, PhysReg(3));
        assert!(renamed.new.0 >= 32);
        assert_eq!(u.lookup(r3), renamed.new);
        assert_eq!(u.int_occupancy(), 1);
        assert_eq!(u.fp_occupancy(), 0);
    }

    #[test]
    fn exhaustion_returns_error() {
        let mut u = unit();
        for _ in 0..40 {
            u.rename_dst(ArchReg::int(1)).unwrap();
        }
        assert_eq!(
            u.rename_dst(ArchReg::int(1)),
            Err(RenameError::OutOfRegisters)
        );
        // FP class unaffected.
        assert!(u.rename_dst(ArchReg::fp(1)).is_ok());
    }

    #[test]
    fn commit_release_refills_free_list() {
        let mut u = unit();
        let renamed = u.rename_dst(ArchReg::int(5)).unwrap();
        assert_eq!(u.free_counts().0, 39);
        u.commit_release(ArchReg::int(5), renamed.old);
        assert_eq!(u.free_counts().0, 40);
        assert_eq!(u.int_occupancy(), 0);
    }

    #[test]
    fn checkpoint_recovery_restores_map_and_free_list() {
        let mut u = unit();
        let before = u.lookup(ArchReg::int(7));
        u.checkpoint(100);
        let a = u.rename_dst(ArchReg::int(7)).unwrap();
        let _b = u.rename_dst(ArchReg::int(8)).unwrap();
        assert_ne!(u.lookup(ArchReg::int(7)), before);
        assert!(u.recover(100));
        assert_eq!(u.lookup(ArchReg::int(7)), before);
        assert_eq!(u.free_counts(), (40, 40));
        // The squashed allocation is free again.
        let c = u.rename_dst(ArchReg::int(9)).unwrap();
        assert_eq!(c.new, a.new, "lowest free register is reused");
    }

    #[test]
    fn nested_checkpoints_recover_to_the_right_branch() {
        let mut u = unit();
        u.checkpoint(1);
        let _x = u.rename_dst(ArchReg::int(1)).unwrap();
        u.checkpoint(2);
        let _y = u.rename_dst(ArchReg::int(2)).unwrap();
        u.checkpoint(3);
        let _z = u.rename_dst(ArchReg::int(3)).unwrap();
        assert_eq!(u.live_checkpoints(), 3);
        assert!(u.recover(2));
        // Checkpoints 2 and 3 discarded; 1 remains.
        assert_eq!(u.live_checkpoints(), 1);
        // int2/int3 renames rolled back, int1 survives.
        assert_ne!(u.lookup(ArchReg::int(1)), PhysReg(1));
        assert_eq!(u.lookup(ArchReg::int(2)), PhysReg(2));
        assert_eq!(u.lookup(ArchReg::int(3)), PhysReg(3));
    }

    #[test]
    fn commit_patches_live_checkpoints() {
        let mut u = unit();
        // Rename int1 (old p1 will be freed at commit).
        let first = u.rename_dst(ArchReg::int(1)).unwrap();
        u.checkpoint(10);
        let _spec = u.rename_dst(ArchReg::int(2)).unwrap();
        // The older instruction commits: p_old freed and patched into the
        // checkpoint.
        u.commit_release(ArchReg::int(1), first.old);
        assert!(u.recover(10));
        // After recovery, p1 (the committed-free register) must be free.
        let (free_int, _) = u.free_counts();
        assert_eq!(free_int, 40, "committed release survives recovery");
    }

    #[test]
    fn release_checkpoint_drops_older_ones() {
        let mut u = unit();
        u.checkpoint(1);
        u.checkpoint(2);
        u.checkpoint(3);
        u.release_checkpoint(2);
        assert_eq!(u.live_checkpoints(), 1);
        assert!(!u.recover(1));
        assert!(!u.recover(2));
        assert!(u.recover(3));
    }

    #[test]
    fn undo_rename_same_cycle() {
        let mut u = unit();
        let before = u.lookup(ArchReg::int(4));
        let renamed = u.rename_dst(ArchReg::int(4)).unwrap();
        u.undo_rename(ArchReg::int(4), renamed);
        assert_eq!(u.lookup(ArchReg::int(4)), before);
        assert_eq!(u.free_counts(), (40, 40));
    }

    #[test]
    fn occupancy_sampling() {
        let mut u = unit();
        u.sample_occupancy();
        let _ = u.rename_dst(ArchReg::int(1)).unwrap();
        let _ = u.rename_dst(ArchReg::fp(1)).unwrap();
        u.sample_occupancy();
        assert_eq!(u.mean_occupancy(), 1.0);
        assert_eq!(u.peak_occupancy(), 2);
    }

    #[test]
    fn can_checkpoint_respects_limit() {
        let mut u = RenameUnit::new(72, 72, 2);
        u.checkpoint(1);
        u.checkpoint(2);
        assert!(!u.can_checkpoint());
    }
}
