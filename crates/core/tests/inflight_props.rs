//! Property test for the slab-backed instruction store: under arbitrary
//! interleavings of insert (fetch), remove (commit) and `remove_younger`
//! (squash) — including streams that force the slab to grow past its
//! initial capacity and to recycle freed slots — every *live* handle keeps
//! returning exactly the fields it was inserted and updated with, and
//! every *stale* handle keeps reading as nothing.

#![allow(clippy::manual_is_multiple_of)] // seq % k patterns mirror the derivation rules

use gals_core::inflight::{InFlight, InFlightTable, InstrId, SrcTags, Tag};
use gals_core::BranchInfo;
use gals_events::Time;
use gals_isa::{ArchReg, OpClass};
use proptest::prelude::*;

/// One step of the random op stream, decoded from two raw integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert the next instruction (sequence numbers are allocated
    /// monotonically, like the pipeline's fetch stage).
    Insert,
    /// Remove the k-th oldest live instruction (commit-shaped for k = 0,
    /// and an out-of-order removal stress otherwise).
    Remove(usize),
    /// Squash everything younger than the k-th oldest live sequence.
    Squash(usize),
}

fn decode(kind: u8, arg: usize) -> Op {
    match kind % 4 {
        // Insert twice as often as the others so streams grow.
        0 | 1 => Op::Insert,
        2 => Op::Remove(arg),
        _ => Op::Squash(arg),
    }
}

/// The fetch-time record for sequence `seq`, with every field derived from
/// the sequence so the reference model needs to store nothing.
fn instr(seq: u64) -> InFlight {
    let branchy = seq % 5 == 0;
    InFlight {
        seq,
        pc: seq * 4 + 0x1000,
        op: match seq % 4 {
            0 => OpClass::IntAlu,
            1 => OpClass::Load,
            2 => OpClass::FpMul,
            _ => OpClass::BranchCond,
        },
        wrong_path: seq % 3 == 0,
        is_exit: false,
        completed: false,
        arch_dst: (seq % 2 == 0).then(|| ArchReg::int((seq % 31) as u8)),
        arch_srcs: [Some(ArchReg::int(((seq + 7) % 31) as u8)), None],
        mem_addr: (seq % 4 == 1).then_some(seq * 64),
        branch: branchy.then_some(BranchInfo {
            predicted_taken: seq % 2 == 0,
            actual_taken: seq % 3 == 0,
            recovery_pc: seq * 4 + 0x1004,
            // Only correct-path instructions may carry a misprediction.
            mispredicted: seq % 3 != 0,
        }),
        srcs: SrcTags::new(),
        dst: None,
        fetched_at: Time::from_fs(seq * 1_000),
        fifo_time: Time::ZERO,
    }
}

/// The record as it stands after the updates every inserted instruction
/// receives below: rename results, completion on odd sequences, and one
/// residency grain.
fn updated(seq: u64) -> InFlight {
    let mut f = instr(seq);
    f.srcs.push(Tag((seq % 512) as u16));
    f.dst = f
        .arch_dst
        .map(|a| (a, Tag(((seq + 1) % 512) as u16), gals_uarch::PhysReg(3)));
    f.completed = seq % 2 == 1;
    f.fifo_time = Time::from_fs(7);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert/commit/squash streams over a deliberately tiny
    /// initial table: slab growth and slot recycling must preserve every
    /// live handle's fields, and stale handles must read as nothing
    /// forever.
    #[test]
    fn slab_growth_preserves_live_handles(
        ops in prop::collection::vec((0u8..255, 0usize..32), 1..200),
        initial_capacity in 0usize..4,
    ) {
        let mut t = InFlightTable::with_capacity(initial_capacity);
        // Reference model: the live set as (seq, id), oldest first, plus
        // every handle ever retired.
        let mut live: Vec<(u64, InstrId)> = Vec::new();
        let mut dead: Vec<(u64, InstrId)> = Vec::new();
        let mut next_seq = 0u64;

        for &(kind, arg) in &ops {
            match decode(kind, arg) {
                Op::Insert => {
                    let seq = next_seq;
                    next_seq += 1;
                    let id = t.insert(instr(seq));
                    // Exercise the mutable path immediately: the rename
                    // stage's fields, completion, one slip grain.
                    let f = t.get_mut(id).expect("just inserted");
                    let want = updated(seq);
                    f.srcs = want.srcs;
                    f.dst = want.dst;
                    f.completed = want.completed;
                    f.fifo_time += Time::from_fs(7);
                    live.push((seq, id));
                }
                Op::Remove(k) if !live.is_empty() => {
                    let (seq, id) = live.remove(k % live.len());
                    prop_assert_eq!(t.remove(id), Some(updated(seq)));
                    dead.push((seq, id));
                }
                Op::Squash(k) if !live.is_empty() => {
                    let pivot = live[k % live.len()].0;
                    t.remove_younger(pivot);
                    let (kept, squashed): (Vec<_>, Vec<_>) =
                        live.drain(..).partition(|&(s, _)| s <= pivot);
                    live = kept;
                    dead.extend(squashed);
                }
                _ => {} // remove/squash on an empty table: no-op step
            }

            // Invariants after every step.
            prop_assert_eq!(t.len(), live.len());
            for &(seq, id) in &live {
                prop_assert_eq!(t.get(id), Some(&updated(seq)));
            }
            for &(_, id) in &dead {
                prop_assert!(t.get(id).is_none(), "stale handle came back to life");
                prop_assert!(t.get_mut(id).is_none());
                prop_assert!(t.remove(id).is_none());
            }
        }
        // The slab never leaks: capacity tracks the peak live count, not
        // the total inserted.
        prop_assert!(t.capacity() <= next_seq.max(4) as usize);
    }
}
