//! The architectural instruction stream: a deterministic walk of a
//! [`Program`]'s control-flow graph resolving every branch and memory
//! reference.
//!
//! This is the "golden" correct-path stream both processor models consume.
//! The front end of the simulated pipeline additionally fetches *wrong-path*
//! instructions from the static program after a misprediction; those never
//! appear here — they are squashed before retirement.

use crate::op::OpClass;
use crate::program::{BlockId, Program, EXIT_PC};

/// One dynamic (committed-path) instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct DynInst {
    /// Dynamic sequence number (0-based).
    pub seq: u64,
    /// Byte program counter.
    pub pc: u64,
    /// Owning basic block.
    pub block: BlockId,
    /// Index within the block.
    pub index: u32,
    /// Operation class (copied out of the static instruction for
    /// convenience).
    pub op: OpClass,
    /// For control transfers: whether the branch was architecturally taken.
    pub taken: bool,
    /// Architectural next PC ([`EXIT_PC`] when the program ends after this
    /// instruction).
    pub next_pc: u64,
    /// Resolved byte address for loads/stores.
    pub mem_addr: Option<u64>,
}

impl DynInst {
    /// True if this is the last architectural instruction of the program.
    #[inline]
    pub fn is_exit(&self) -> bool {
        self.next_pc == EXIT_PC
    }
}

/// Iterator over the architectural dynamic instruction stream of a program.
///
/// The stream is infinite for programs whose CFG loops forever; callers
/// bound it (`.take(n)`) or rely on loop behaviours with finite trip counts.
///
/// # Examples
///
/// ```
/// use gals_isa::{ProgramBuilder, Inst, OpClass, ArchReg, BranchBehavior, DynStream};
///
/// let mut b = ProgramBuilder::new(1);
/// let beh = b.add_branch_behavior(BranchBehavior::Loop { trip: 3 });
/// let blk = b.add_block(
///     vec![Inst::alu(OpClass::IntAlu, ArchReg::int(1), None, None),
///          Inst::branch(Some(ArchReg::int(1)), beh)],
///     None,
///     None,
/// );
/// b.set_edges(blk, Some(blk), None);
/// let program = b.build()?;
/// let stream: Vec<_> = DynStream::new(&program).collect();
/// // 3 loop iterations of 2 instructions each.
/// assert_eq!(stream.len(), 6);
/// assert!(stream.last().unwrap().is_exit());
/// # Ok::<(), gals_isa::ProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynStream<'p> {
    program: &'p Program,
    /// Current (block, index); `None` once the program has exited.
    cursor: Option<(BlockId, u32)>,
    /// Per-static-instruction dynamic execution counters (branch outcome /
    /// address stream positions).
    exec_counts: Vec<u64>,
    /// Simulated call stack of return-target blocks.
    call_stack: Vec<BlockId>,
    seq: u64,
}

impl<'p> DynStream<'p> {
    /// Starts a walk at the program's entry block.
    pub fn new(program: &'p Program) -> Self {
        DynStream {
            program,
            cursor: Some((program.entry(), 0)),
            exec_counts: vec![0; program.static_inst_count() as usize],
            call_stack: Vec::new(),
            seq: 0,
        }
    }

    /// The number of instructions produced so far.
    #[inline]
    pub fn produced(&self) -> u64 {
        self.seq
    }
}

impl Iterator for DynStream<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let (block, index) = self.cursor?;
        let program = self.program;
        let bb = program.block(block);
        let inst = &bb.insts[index as usize];
        let flat = program.flat_index(block, index) as usize;
        let n = self.exec_counts[flat];
        self.exec_counts[flat] += 1;

        let pc = program.pc_of(block, index);
        let seed = program.seed();

        let mut taken = false;
        let mut mem_addr = None;
        let next_pc;

        match inst.op {
            OpClass::BranchCond => {
                let behavior = program.branch_behavior(inst.branch.expect("validated"));
                taken = behavior.outcome(seed, flat as u64, n);
                next_pc = if taken {
                    program
                        .taken_target_pc(block)
                        .expect("validated taken edge")
                } else {
                    program.fallthrough_pc(block)
                };
            }
            OpClass::Jump => {
                taken = true;
                next_pc = program
                    .taken_target_pc(block)
                    .expect("validated taken edge");
            }
            OpClass::Call => {
                taken = true;
                if let Some(ret_to) = bb.fallthrough {
                    self.call_stack.push(ret_to);
                }
                next_pc = program
                    .taken_target_pc(block)
                    .expect("validated taken edge");
            }
            OpClass::Ret => {
                taken = true;
                next_pc = match self.call_stack.pop() {
                    Some(ret_block) => program.block_start_pc(ret_block),
                    // Returning with an empty stack exits the program, like
                    // returning from main.
                    None => EXIT_PC,
                };
            }
            OpClass::Load | OpClass::Store => {
                let behavior = program.mem_behavior(inst.mem.expect("validated"));
                mem_addr = Some(behavior.address(seed, flat as u64, n));
                next_pc = program.next_sequential_pc(block, index);
            }
            _ => {
                next_pc = program.next_sequential_pc(block, index);
            }
        }

        let dyn_inst = DynInst {
            seq: self.seq,
            pc,
            block,
            index,
            op: inst.op,
            taken,
            next_pc,
            mem_addr,
        };
        self.seq += 1;
        self.cursor = program.locate(next_pc).map(|(b, i, _)| (b, i));
        Some(dyn_inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{BranchBehavior, MemBehavior};
    use crate::op::ArchReg;
    use crate::program::{Inst, ProgramBuilder};

    #[test]
    fn straight_line_program_exits() {
        let mut b = ProgramBuilder::new(0);
        b.add_block(vec![Inst::nop(), Inst::nop(), Inst::nop()], None, None);
        let p = b.build().unwrap();
        let insts: Vec<_> = DynStream::new(&p).collect();
        assert_eq!(insts.len(), 3);
        assert_eq!(insts[0].pc, 0);
        assert_eq!(insts[1].pc, 4);
        assert_eq!(insts[2].pc, 8);
        assert!(insts[2].is_exit());
    }

    #[test]
    fn loop_trip_count_is_exact() {
        let mut b = ProgramBuilder::new(5);
        let beh = b.add_branch_behavior(BranchBehavior::Loop { trip: 4 });
        let blk = b.add_block(
            vec![
                Inst::alu(OpClass::IntAlu, ArchReg::int(1), None, None),
                Inst::branch(Some(ArchReg::int(1)), beh),
            ],
            None,
            None,
        );
        b.set_edges(blk, Some(blk), None);
        let p = b.build().unwrap();
        let insts: Vec<_> = DynStream::new(&p).collect();
        assert_eq!(insts.len(), 8);
        // Branch taken 3 times then not taken.
        let outcomes: Vec<bool> = insts
            .iter()
            .filter(|i| i.op.is_branch())
            .map(|i| i.taken)
            .collect();
        assert_eq!(outcomes, [true, true, true, false]);
    }

    #[test]
    fn call_and_ret_use_stack() {
        let mut b = ProgramBuilder::new(0);
        // b0: call -> b2 (function), return lands at b1, which exits.
        let b0 = b.add_block(vec![Inst::call()], None, None);
        let b1 = b.add_block(vec![Inst::nop()], None, None);
        let b2 = b.add_block(vec![Inst::nop(), Inst::ret()], None, None);
        b.set_edges(b0, Some(b2), Some(b1));
        b.set_edges(b1, None, None);
        b.set_edges(b2, None, None);
        let p = b.build().unwrap();
        let pcs: Vec<u64> = DynStream::new(&p).map(|i| i.pc).collect();
        // call @0, nop @8 (b2), ret @12, nop @4 (b1)
        assert_eq!(pcs, [0, 8, 12, 4]);
    }

    #[test]
    fn ret_with_empty_stack_exits() {
        let mut b = ProgramBuilder::new(0);
        b.add_block(vec![Inst::ret()], None, None);
        let p = b.build().unwrap();
        let insts: Vec<_> = DynStream::new(&p).collect();
        assert_eq!(insts.len(), 1);
        assert!(insts[0].is_exit());
    }

    #[test]
    fn mem_addresses_advance_per_execution() {
        let mut b = ProgramBuilder::new(0);
        let mem = b.add_mem_behavior(MemBehavior::Stride {
            base: 0x100,
            stride: 4,
            footprint: 1 << 20,
        });
        let beh = b.add_branch_behavior(BranchBehavior::Loop { trip: 3 });
        let blk = b.add_block(
            vec![
                Inst::load(ArchReg::int(1), None, mem),
                Inst::branch(Some(ArchReg::int(1)), beh),
            ],
            None,
            None,
        );
        b.set_edges(blk, Some(blk), None);
        let p = b.build().unwrap();
        let addrs: Vec<u64> = DynStream::new(&p).filter_map(|i| i.mem_addr).collect();
        assert_eq!(addrs, [0x100, 0x104, 0x108]);
    }

    #[test]
    fn stream_is_reproducible() {
        let mut b = ProgramBuilder::new(99);
        let beh = b.add_branch_behavior(BranchBehavior::TakenProb(0.5));
        let blk = b.add_block(vec![Inst::branch(None, beh)], None, None);
        let exit = b.add_block(vec![Inst::nop()], None, None);
        b.set_edges(blk, Some(blk), Some(exit));
        b.set_edges(exit, None, None);
        let p = b.build().unwrap();
        let a: Vec<_> = DynStream::new(&p).take(1000).collect();
        let b2: Vec<_> = DynStream::new(&p).take(1000).collect();
        assert_eq!(a, b2);
    }
}
