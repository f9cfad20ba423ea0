//! The `.gasm` assembly front end: a small text format over the
//! timing-semantic ISA.
//!
//! A `.gasm` module mixes two instruction vocabularies:
//!
//! * **Behavioral ops** use the [`OpClass`] display names (`int.alu`,
//!   `load`, `br.cond`, …) and reference *declared behaviours* by name
//!   (`@heap`, `@backedge`), exactly mirroring what the synthetic workload
//!   generator emits. Any valid [`Program`] pretty-prints to this subset
//!   ([`print_gasm`]) and re-parses to an equal program
//!   ([`AsmModule::to_program`]).
//! * **Architectural ops** (`li`, `add`, `beqz`, `ld`, …) compute with real
//!   register values: conditional branch outcomes and memory addresses come
//!   from executed data, not behaviour draws. They require the functional
//!   executor (`AsmModule::execute` in [`crate::exec`]), which records the
//!   executed outcome/address streams as [`BranchBehavior::Trace`] /
//!   [`MemBehavior::Trace`] entries of the compiled [`Program`] — so the
//!   pipeline consumes program-driven workloads through the same stream
//!   interface as synthetic ones.
//!
//! ## Format
//!
//! ```text
//! ; comments run to end of line (also '#')
//! .entry main              ; optional, defaults to the first block
//! .brbeh flip prob 0.5     ; prob P | loop N | pattern TNT.. | trace TNT..
//! .membeh heap stride 0 8 65536
//!                          ; stride B S F | random B F | hotcold B H C P
//!                          ; | trace A0 A1 ..
//!
//! main:
//!     li   r1, 100
//! loop:                    ; labels start basic blocks
//!     addi r1, r1, -1
//!     load r2, [r1] @heap  ; behavioral load
//!     bnez r1, loop        ; architectural branch: outcome from r1
//!     .fall done           ; explicit non-adjacent fall-through
//! tail:
//!     ret
//! done:
//!     j    tail
//! ```
//!
//! Blocks split at labels and after every control transfer (`br.cond`,
//! `j`/`jump`, `call`, `ret`, and the architectural branches); instructions
//! following a terminator without a label continue in a fresh anonymous
//! block. Branch targets are `label` or `label+K` (K instructions past the
//! label) and must land on a block leader — `label+K` into the middle of a
//! block is a typed [`AsmErrorKind::BranchIntoMidBlock`] error. The
//! fall-through of a block defaults to the next block in the file;
//! `.fall LABEL` overrides it and `.exit` ends the program there. The CFG
//! verifier additionally rejects unreachable blocks and control falling off
//! the end of the file as typed [`ProgramError`] diagnostics with
//! line/column positions.

use std::collections::BTreeMap;
use std::fmt;

use crate::behavior::{BranchBehavior, BranchBehaviorId, MemBehavior, MemBehaviorId};
use crate::op::{ArchReg, OpClass};
use crate::program::{Inst, Program, ProgramBuilder, ProgramError};

/// What went wrong while parsing or verifying a `.gasm` module.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmErrorKind {
    /// The mnemonic is not part of either vocabulary.
    UnknownMnemonic(String),
    /// An operand list does not fit the mnemonic (wrong count or shape).
    MalformedOperand(String),
    /// A register operand is not `r0`–`r31` / `f0`–`f31` (or `-`).
    BadRegister(String),
    /// An immediate or behaviour argument failed to parse.
    BadImmediate(String),
    /// A directive is unknown, misplaced, or duplicated.
    BadDirective(String),
    /// The same label is defined twice.
    DuplicateLabel(String),
    /// The same behaviour name is declared twice.
    DuplicateBehavior(String),
    /// `@name` does not match any declared behaviour of the required kind.
    UnknownBehavior(String),
    /// A branch target, `.fall`, or `.entry` names an undefined label.
    UndefinedLabel(String),
    /// A `label+K` target resolves into the middle of a basic block
    /// (targets must be block leaders).
    BranchIntoMidBlock(String),
    /// An instruction appears before the first label.
    InstructionBeforeLabel,
    /// [`AsmModule::to_program`] was called on a module containing
    /// architectural ops; those need [`AsmModule::execute`].
    RequiresExecution(String),
    /// A CFG-level diagnostic (empty block, unreachable block, control
    /// falling off the end, …) from the verifier.
    Program(ProgramError),
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic {m:?}"),
            AsmErrorKind::MalformedOperand(m) => write!(f, "malformed operand: {m}"),
            AsmErrorKind::BadRegister(r) => write!(f, "bad register {r:?}"),
            AsmErrorKind::BadImmediate(i) => write!(f, "bad immediate {i:?}"),
            AsmErrorKind::BadDirective(d) => write!(f, "bad directive: {d}"),
            AsmErrorKind::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            AsmErrorKind::DuplicateBehavior(b) => write!(f, "duplicate behaviour {b:?}"),
            AsmErrorKind::UnknownBehavior(b) => write!(f, "unknown behaviour {b:?}"),
            AsmErrorKind::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            AsmErrorKind::BranchIntoMidBlock(t) => {
                write!(
                    f,
                    "target {t:?} lands inside a basic block, not at a leader"
                )
            }
            AsmErrorKind::InstructionBeforeLabel => {
                write!(f, "instruction before the first label")
            }
            AsmErrorKind::RequiresExecution(m) => {
                write!(
                    f,
                    "architectural op {m:?} requires the executor (AsmModule::execute); \
                     to_program links behavioral-only modules"
                )
            }
            AsmErrorKind::Program(e) => write!(f, "{e}"),
        }
    }
}

/// A `.gasm` parse/verify error with its 1-based source position.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmError {
    /// What went wrong.
    pub kind: AsmErrorKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.kind)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(kind: AsmErrorKind, line: u32, col: u32) -> Result<T, AsmError> {
    Err(AsmError { kind, line, col })
}

/// Three-register integer ops (architectural).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntKind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Mul,
    Div,
    Rem,
}

impl IntKind {
    pub(crate) fn class(self) -> OpClass {
        match self {
            IntKind::Mul => OpClass::IntMul,
            IntKind::Div | IntKind::Rem => OpClass::IntDiv,
            _ => OpClass::IntAlu,
        }
    }
}

/// Three-register FP ops (architectural).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FpKind {
    Add,
    Sub,
    Mul,
    Div,
}

impl FpKind {
    pub(crate) fn class(self) -> OpClass {
        match self {
            FpKind::Add | FpKind::Sub => OpClass::FpAdd,
            FpKind::Mul => OpClass::FpMul,
            FpKind::Div => OpClass::FpDiv,
        }
    }
}

/// FP compares producing an integer 0/1 (architectural).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpKind {
    Eq,
    Lt,
    Le,
}

/// Two-register architectural branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BrKind {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// One parsed instruction. Control transfers do not carry their target —
/// the owning block's `taken` edge does.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AsmOp {
    /// A fully-formed behavioral non-control instruction (alu/load/store/nop).
    Beh(Inst),
    /// Behavioral conditional branch (outcome from a declared behaviour).
    BehBranch {
        /// Condition dependence register.
        cond: Option<ArchReg>,
        /// The declared behaviour resolving outcomes.
        beh: BranchBehaviorId,
    },
    /// Unconditional jump (terminator; target on the block).
    Jump,
    /// Call (terminator; target on the block, returns to the fall-through).
    Call,
    /// Return (terminator).
    Ret,
    /// Load immediate into an integer register.
    Li {
        /// Destination integer register.
        dst: u8,
        /// The immediate value.
        imm: i64,
    },
    /// Load an FP immediate.
    Fli {
        /// Destination FP register.
        dst: u8,
        /// The immediate value.
        imm: f64,
    },
    /// Three-register integer op.
    Int3 {
        /// Operation.
        kind: IntKind,
        /// Destination register.
        dst: u8,
        /// First source.
        s1: u8,
        /// Second source.
        s2: u8,
    },
    /// Register-immediate integer op.
    IntImm {
        /// Operation.
        kind: IntKind,
        /// Destination register.
        dst: u8,
        /// Source register.
        s1: u8,
        /// The immediate.
        imm: i64,
    },
    /// Three-register FP op.
    Fp3 {
        /// Operation.
        kind: FpKind,
        /// Destination FP register.
        dst: u8,
        /// First FP source.
        s1: u8,
        /// Second FP source.
        s2: u8,
    },
    /// FP compare into an integer register.
    FpCmp {
        /// Compare relation.
        kind: CmpKind,
        /// Destination integer register.
        dst: u8,
        /// First FP source.
        s1: u8,
        /// Second FP source.
        s2: u8,
    },
    /// Architectural load/store at `off(base)`.
    MemArch {
        /// Store (`true`) or load (`false`).
        store: bool,
        /// FP data register (`fld`/`fst`).
        fp: bool,
        /// Data register (destination for loads, source for stores).
        reg: u8,
        /// Byte offset.
        off: i64,
        /// Integer base register.
        base: u8,
    },
    /// `beqz`/`bnez` (terminator; target on the block).
    BrZ {
        /// Taken when the register is zero (`beqz`) vs non-zero (`bnez`).
        expect_zero: bool,
        /// Tested integer register.
        src: u8,
    },
    /// Two-register compare-and-branch (terminator; target on the block).
    BrCmp {
        /// Compare relation.
        kind: BrKind,
        /// First integer source.
        s1: u8,
        /// Second integer source.
        s2: u8,
    },
}

impl AsmOp {
    /// True for ops whose semantics need the functional executor.
    pub(crate) fn is_architectural(&self) -> bool {
        !matches!(
            self,
            AsmOp::Beh(_) | AsmOp::BehBranch { .. } | AsmOp::Jump | AsmOp::Call | AsmOp::Ret
        )
    }

    /// True for ops that terminate a basic block.
    fn is_terminator(&self) -> bool {
        matches!(
            self,
            AsmOp::BehBranch { .. }
                | AsmOp::Jump
                | AsmOp::Call
                | AsmOp::Ret
                | AsmOp::BrZ { .. }
                | AsmOp::BrCmp { .. }
        )
    }

    fn mnemonic(&self) -> &'static str {
        match self {
            AsmOp::Beh(i) => match i.op {
                OpClass::IntAlu => "int.alu",
                OpClass::IntMul => "int.mul",
                OpClass::IntDiv => "int.div",
                OpClass::FpAdd => "fp.add",
                OpClass::FpMul => "fp.mul",
                OpClass::FpDiv => "fp.div",
                OpClass::Load => "load",
                OpClass::Store => "store",
                _ => "nop",
            },
            AsmOp::BehBranch { .. } => "br.cond",
            AsmOp::Jump => "j",
            AsmOp::Call => "call",
            AsmOp::Ret => "ret",
            AsmOp::Li { .. } => "li",
            AsmOp::Fli { .. } => "fli",
            AsmOp::Int3 { kind, .. } => match kind {
                IntKind::Add => "add",
                IntKind::Sub => "sub",
                IntKind::And => "and",
                IntKind::Or => "or",
                IntKind::Xor => "xor",
                IntKind::Sll => "sll",
                IntKind::Srl => "srl",
                IntKind::Sra => "sra",
                IntKind::Slt => "slt",
                IntKind::Sltu => "sltu",
                IntKind::Mul => "mul",
                IntKind::Div => "div",
                IntKind::Rem => "rem",
            },
            AsmOp::IntImm { kind, .. } => match kind {
                IntKind::Add => "addi",
                IntKind::And => "andi",
                IntKind::Or => "ori",
                IntKind::Xor => "xori",
                IntKind::Sll => "slli",
                IntKind::Srl => "srli",
                IntKind::Sra => "srai",
                IntKind::Slt => "slti",
                _ => "addi",
            },
            AsmOp::Fp3 { kind, .. } => match kind {
                FpKind::Add => "fadd",
                FpKind::Sub => "fsub",
                FpKind::Mul => "fmul",
                FpKind::Div => "fdiv",
            },
            AsmOp::FpCmp { kind, .. } => match kind {
                CmpKind::Eq => "feq",
                CmpKind::Lt => "flt",
                CmpKind::Le => "fle",
            },
            AsmOp::MemArch { store, fp, .. } => match (store, fp) {
                (false, false) => "ld",
                (false, true) => "fld",
                (true, false) => "st",
                (true, true) => "fst",
            },
            AsmOp::BrZ { expect_zero, .. } => {
                if *expect_zero {
                    "beqz"
                } else {
                    "bnez"
                }
            }
            AsmOp::BrCmp { kind, .. } => match kind {
                BrKind::Eq => "beq",
                BrKind::Ne => "bne",
                BrKind::Lt => "blt",
                BrKind::Ge => "bge",
                BrKind::Ltu => "bltu",
                BrKind::Geu => "bgeu",
            },
        }
    }
}

/// A parsed instruction with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AsmInst {
    pub(crate) op: AsmOp,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// A verified basic block of a parsed module (targets resolved to indices).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModBlock {
    pub(crate) insts: Vec<AsmInst>,
    /// Taken-edge successor of the terminating control transfer.
    pub(crate) taken: Option<usize>,
    /// Fall-through successor; `None` exits the program.
    pub(crate) fall: Option<usize>,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// A parsed and CFG-verified `.gasm` module.
///
/// Behavioral-only modules link straight to a [`Program`] with
/// [`AsmModule::to_program`]; modules with architectural ops run through
/// the functional executor (`AsmModule::execute`, see [`crate::exec`]),
/// which compiles them to a [`Program`] carrying recorded `Trace`
/// behaviours.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmModule {
    pub(crate) blocks: Vec<ModBlock>,
    pub(crate) entry: usize,
    pub(crate) br_behaviors: Vec<BranchBehavior>,
    pub(crate) mem_behaviors: Vec<MemBehavior>,
    /// First flat instruction index of each block.
    pub(crate) start_flat: Vec<u64>,
}

impl AsmModule {
    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of static instructions.
    pub fn static_inst_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.insts.len() as u64).sum()
    }

    /// True if any instruction needs the functional executor.
    pub fn has_architectural_ops(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| i.op.is_architectural()))
    }

    /// Links a behavioral-only module into a validated [`Program`].
    ///
    /// # Errors
    ///
    /// [`AsmErrorKind::RequiresExecution`] if the module contains
    /// architectural ops (run those through `execute`), or a wrapped
    /// [`ProgramError`] if final validation fails.
    pub fn to_program(&self, seed: u64) -> Result<Program, AsmError> {
        for block in &self.blocks {
            if let Some(inst) = block.insts.iter().find(|i| i.op.is_architectural()) {
                return err(
                    AsmErrorKind::RequiresExecution(inst.op.mnemonic().to_string()),
                    inst.line,
                    inst.col,
                );
            }
        }
        self.link(seed, &[], &[])
    }

    /// Flat-order slot assignment for architectural branches and memory
    /// ops: `(branch_slots, mem_slots)` mapping flat instruction index to
    /// the ordinal of its appended `Trace` behaviour.
    pub(crate) fn arch_slots(&self) -> (BTreeMap<u64, usize>, BTreeMap<u64, usize>) {
        let mut br = BTreeMap::new();
        let mut mem = BTreeMap::new();
        let mut flat = 0u64;
        for block in &self.blocks {
            for inst in &block.insts {
                match inst.op {
                    AsmOp::BrZ { .. } | AsmOp::BrCmp { .. } => {
                        let next = br.len();
                        br.insert(flat, next);
                    }
                    AsmOp::MemArch { .. } => {
                        let next = mem.len();
                        mem.insert(flat, next);
                    }
                    _ => {}
                }
                flat += 1;
            }
        }
        (br, mem)
    }

    /// Compiles the module to a [`Program`], appending one `Trace`
    /// behaviour per architectural branch/memory instruction from the
    /// supplied recordings (empty slices for behavioral-only modules).
    pub(crate) fn link(
        &self,
        seed: u64,
        br_traces: &[Vec<bool>],
        mem_traces: &[Vec<u64>],
    ) -> Result<Program, AsmError> {
        let (br_slots, mem_slots) = self.arch_slots();
        let mut b = ProgramBuilder::new(seed);
        for beh in &self.br_behaviors {
            b.add_branch_behavior(beh.clone());
        }
        for beh in &self.mem_behaviors {
            b.add_mem_behavior(beh.clone());
        }
        let arch_br_base = self.br_behaviors.len() as u32;
        let arch_mem_base = self.mem_behaviors.len() as u32;
        for (i, _) in br_slots.iter().enumerate() {
            let trace = br_traces.get(i).cloned().unwrap_or_default();
            b.add_branch_behavior(BranchBehavior::Trace(trace));
        }
        for (i, _) in mem_slots.iter().enumerate() {
            let trace = mem_traces.get(i).cloned().unwrap_or_default();
            b.add_mem_behavior(MemBehavior::Trace(trace));
        }

        let mut flat = 0u64;
        for block in &self.blocks {
            let mut insts = Vec::with_capacity(block.insts.len());
            for ai in &block.insts {
                insts.push(lower(
                    ai,
                    flat,
                    &br_slots,
                    &mem_slots,
                    arch_br_base,
                    arch_mem_base,
                ));
                flat += 1;
            }
            let taken = block.taken.map(|t| crate::program::BlockId(t as u32));
            let fall = block.fall.map(|t| crate::program::BlockId(t as u32));
            b.add_block(insts, taken, fall);
        }
        b.set_entry(crate::program::BlockId(self.entry as u32));
        match b.build() {
            Ok(p) => Ok(p),
            Err(e) => {
                // The parser's own verifier should have caught everything;
                // surface any residue with the offending block's position.
                let at = match &e {
                    ProgramError::BranchNotTerminator(b, _)
                    | ProgramError::MissingSuccessor(b)
                    | ProgramError::BadBehavior(b, _)
                    | ProgramError::MissingBehavior(b, _)
                    | ProgramError::EmptyBlock(b)
                    | ProgramError::Unreachable(b)
                    | ProgramError::FallsOffEnd(b)
                    | ProgramError::BadEntry(b) => self.blocks.get(b.0 as usize),
                    ProgramError::BadEdge { from, .. } => self.blocks.get(from.0 as usize),
                    ProgramError::Empty => None,
                };
                let (line, col) = at.map_or((1, 1), |blk| (blk.line, blk.col));
                err(AsmErrorKind::Program(e), line, col)
            }
        }
    }
}

/// Lowers one parsed instruction to a timing-ISA [`Inst`].
fn lower(
    ai: &AsmInst,
    flat: u64,
    br_slots: &BTreeMap<u64, usize>,
    mem_slots: &BTreeMap<u64, usize>,
    arch_br_base: u32,
    arch_mem_base: u32,
) -> Inst {
    match &ai.op {
        AsmOp::Beh(inst) => inst.clone(),
        AsmOp::BehBranch { cond, beh } => Inst::branch(*cond, *beh),
        AsmOp::Jump => Inst::jump(),
        AsmOp::Call => Inst::call(),
        AsmOp::Ret => Inst::ret(),
        AsmOp::Li { dst, .. } => Inst {
            op: OpClass::IntAlu,
            dst: Some(ArchReg::int(*dst)),
            src1: None,
            src2: None,
            mem: None,
            branch: None,
        },
        AsmOp::Fli { dst, .. } => Inst {
            op: OpClass::FpAdd,
            dst: Some(ArchReg::fp(*dst)),
            src1: None,
            src2: None,
            mem: None,
            branch: None,
        },
        AsmOp::Int3 { kind, dst, s1, s2 } => Inst::alu(
            kind.class(),
            ArchReg::int(*dst),
            Some(ArchReg::int(*s1)),
            Some(ArchReg::int(*s2)),
        ),
        AsmOp::IntImm { kind, dst, s1, .. } => Inst::alu(
            kind.class(),
            ArchReg::int(*dst),
            Some(ArchReg::int(*s1)),
            None,
        ),
        AsmOp::Fp3 { kind, dst, s1, s2 } => Inst::alu(
            kind.class(),
            ArchReg::fp(*dst),
            Some(ArchReg::fp(*s1)),
            Some(ArchReg::fp(*s2)),
        ),
        AsmOp::FpCmp { dst, s1, s2, .. } => Inst::alu(
            OpClass::FpAdd,
            ArchReg::int(*dst),
            Some(ArchReg::fp(*s1)),
            Some(ArchReg::fp(*s2)),
        ),
        AsmOp::MemArch {
            store,
            fp,
            reg,
            base,
            ..
        } => {
            let mem = MemBehaviorId(arch_mem_base + mem_slots[&flat] as u32);
            let data = if *fp {
                ArchReg::fp(*reg)
            } else {
                ArchReg::int(*reg)
            };
            if *store {
                Inst::store(Some(data), Some(ArchReg::int(*base)), mem)
            } else {
                Inst::load(data, Some(ArchReg::int(*base)), mem)
            }
        }
        AsmOp::BrZ { src, .. } => Inst::branch(
            Some(ArchReg::int(*src)),
            BranchBehaviorId(arch_br_base + br_slots[&flat] as u32),
        ),
        AsmOp::BrCmp { s1, s2, .. } => Inst {
            op: OpClass::BranchCond,
            dst: None,
            src1: Some(ArchReg::int(*s1)),
            src2: Some(ArchReg::int(*s2)),
            mem: None,
            branch: Some(BranchBehaviorId(arch_br_base + br_slots[&flat] as u32)),
        },
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Tok<'a> {
    text: &'a str,
    col: u32,
}

fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let mut toks = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in line.char_indices() {
        if c == ';' || c == '#' {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    text: &line[s..i],
                    col: s as u32 + 1,
                });
            }
            return toks;
        }
        if c.is_whitespace() || c == ',' {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    text: &line[s..i],
                    col: s as u32 + 1,
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        toks.push(Tok {
            text: &line[s..],
            col: s as u32 + 1,
        });
    }
    toks
}

/// An unresolved control-transfer target: `label` or `label+K`.
#[derive(Debug, Clone)]
struct RawTarget {
    label: String,
    offset: u64,
    line: u32,
    col: u32,
}

#[derive(Debug, Clone)]
enum RawFall {
    Default,
    To(RawTarget),
    Exit,
}

struct RawBlock {
    insts: Vec<AsmInst>,
    taken: Option<RawTarget>,
    fall: RawFall,
    closed: bool,
    line: u32,
    col: u32,
}

impl RawBlock {
    fn new(line: u32, col: u32) -> Self {
        RawBlock {
            insts: Vec::new(),
            taken: None,
            fall: RawFall::Default,
            closed: false,
            line,
            col,
        }
    }
}

#[derive(Default)]
struct Parser {
    br_behaviors: Vec<BranchBehavior>,
    mem_behaviors: Vec<MemBehavior>,
    br_names: BTreeMap<String, u32>,
    mem_names: BTreeMap<String, u32>,
    blocks: Vec<RawBlock>,
    labels: BTreeMap<String, usize>,
    entry: Option<RawTarget>,
}

/// Parses `.gasm` text into a CFG-verified [`AsmModule`].
///
/// # Errors
///
/// Every syntactic and structural problem is a typed [`AsmError`] with a
/// 1-based line/column: unknown mnemonics, malformed operands, undefined
/// labels, `label+K` targets landing mid-block, duplicate labels or
/// behaviour names, and the CFG diagnostics (empty or unreachable blocks,
/// control falling off the end) wrapped as
/// [`AsmErrorKind::Program`].
pub fn parse(text: &str) -> Result<AsmModule, AsmError> {
    let mut p = Parser::default();
    for (i, raw_line) in text.lines().enumerate() {
        p.line(raw_line, i as u32 + 1)?;
    }
    p.finish()
}

impl Parser {
    fn line(&mut self, raw: &str, line: u32) -> Result<(), AsmError> {
        let toks = tokenize(raw);
        if toks.is_empty() {
            return Ok(());
        }
        let mut rest = &toks[..];
        let first = &toks[0];
        if let Some(label) = first.text.strip_suffix(':') {
            if label.is_empty() {
                return err(
                    AsmErrorKind::MalformedOperand("empty label".into()),
                    line,
                    first.col,
                );
            }
            if self.labels.contains_key(label) {
                return err(AsmErrorKind::DuplicateLabel(label.into()), line, first.col);
            }
            self.labels.insert(label.to_string(), self.blocks.len());
            self.blocks.push(RawBlock::new(line, first.col));
            rest = &toks[1..];
            if rest.is_empty() {
                return Ok(());
            }
        }
        if rest[0].text.starts_with('.') {
            return self.directive(rest, line);
        }
        // An instruction: needs an open block; a terminator in the current
        // block splits off a fresh anonymous one.
        match self.blocks.last() {
            None => return err(AsmErrorKind::InstructionBeforeLabel, line, rest[0].col),
            Some(b) if b.closed => self.blocks.push(RawBlock::new(line, rest[0].col)),
            Some(_) => {}
        }
        self.instruction(rest, line)
    }

    fn directive(&mut self, toks: &[Tok<'_>], line: u32) -> Result<(), AsmError> {
        let name = toks[0].text;
        let col = toks[0].col;
        match name {
            ".entry" => {
                if toks.len() != 2 {
                    return err(
                        AsmErrorKind::BadDirective(".entry expects one label".into()),
                        line,
                        col,
                    );
                }
                if self.entry.is_some() {
                    return err(
                        AsmErrorKind::BadDirective("duplicate .entry".into()),
                        line,
                        col,
                    );
                }
                self.entry = Some(parse_target(&toks[1], line)?);
                Ok(())
            }
            ".fall" | ".exit" => {
                let Some(block) = self.blocks.last_mut() else {
                    return err(
                        AsmErrorKind::BadDirective(format!("{name} outside a block")),
                        line,
                        col,
                    );
                };
                if !matches!(block.fall, RawFall::Default) {
                    return err(
                        AsmErrorKind::BadDirective(format!("{name}: fall-through already set")),
                        line,
                        col,
                    );
                }
                if name == ".exit" {
                    if toks.len() != 1 {
                        return err(
                            AsmErrorKind::BadDirective(".exit takes no operands".into()),
                            line,
                            col,
                        );
                    }
                    block.fall = RawFall::Exit;
                } else {
                    if toks.len() != 2 {
                        return err(
                            AsmErrorKind::BadDirective(".fall expects one label".into()),
                            line,
                            col,
                        );
                    }
                    block.fall = RawFall::To(parse_target(&toks[1], line)?);
                }
                Ok(())
            }
            ".brbeh" => self.brbeh(toks, line),
            ".membeh" => self.membeh(toks, line),
            _ => err(
                AsmErrorKind::BadDirective(format!("unknown directive {name:?}")),
                line,
                col,
            ),
        }
    }

    fn brbeh(&mut self, toks: &[Tok<'_>], line: u32) -> Result<(), AsmError> {
        if toks.len() < 3 {
            return err(
                AsmErrorKind::BadDirective(".brbeh expects: name kind args".into()),
                line,
                toks[0].col,
            );
        }
        let name = toks[1].text;
        if self.br_names.contains_key(name) {
            return err(
                AsmErrorKind::DuplicateBehavior(name.into()),
                line,
                toks[1].col,
            );
        }
        let kind = toks[2].text;
        let args = &toks[3..];
        let beh = match kind {
            "prob" => {
                let [p] = args else {
                    return err(
                        AsmErrorKind::BadDirective("prob expects one probability".into()),
                        line,
                        toks[2].col,
                    );
                };
                BranchBehavior::TakenProb(parse_f64(p, line)?)
            }
            "loop" => {
                let [t] = args else {
                    return err(
                        AsmErrorKind::BadDirective("loop expects one trip count".into()),
                        line,
                        toks[2].col,
                    );
                };
                BranchBehavior::Loop {
                    trip: parse_u64(t, line)? as u32,
                }
            }
            "pattern" | "trace" => {
                let [p] = args else {
                    return err(
                        AsmErrorKind::BadDirective(format!("{kind} expects one T/N string")),
                        line,
                        toks[2].col,
                    );
                };
                let bits = parse_tn(p, line)?;
                if kind == "pattern" {
                    BranchBehavior::Pattern(bits)
                } else {
                    BranchBehavior::Trace(bits)
                }
            }
            _ => {
                return err(
                    AsmErrorKind::BadDirective(format!(
                        ".brbeh kind {kind:?} (want prob/loop/pattern/trace)"
                    )),
                    line,
                    toks[2].col,
                )
            }
        };
        self.br_names
            .insert(name.to_string(), self.br_behaviors.len() as u32);
        self.br_behaviors.push(beh);
        Ok(())
    }

    fn membeh(&mut self, toks: &[Tok<'_>], line: u32) -> Result<(), AsmError> {
        if toks.len() < 3 {
            return err(
                AsmErrorKind::BadDirective(".membeh expects: name kind args".into()),
                line,
                toks[0].col,
            );
        }
        let name = toks[1].text;
        if self.mem_names.contains_key(name) {
            return err(
                AsmErrorKind::DuplicateBehavior(name.into()),
                line,
                toks[1].col,
            );
        }
        let kind = toks[2].text;
        let args = &toks[3..];
        let beh = match (kind, args) {
            ("stride", [b, s, f]) => MemBehavior::Stride {
                base: parse_u64(b, line)?,
                stride: parse_u64(s, line)?,
                footprint: parse_u64(f, line)?,
            },
            ("random", [b, f]) => MemBehavior::Random {
                base: parse_u64(b, line)?,
                footprint: parse_u64(f, line)?,
            },
            ("hotcold", [b, h, c, p]) => MemBehavior::HotCold {
                base: parse_u64(b, line)?,
                hot: parse_u64(h, line)?,
                cold: parse_u64(c, line)?,
                hot_frac: parse_f64(p, line)?,
            },
            ("trace", [one]) if one.text == "-" => MemBehavior::Trace(Vec::new()),
            ("trace", addrs) if !addrs.is_empty() => {
                let mut v = Vec::with_capacity(addrs.len());
                for a in addrs {
                    v.push(parse_u64(a, line)?);
                }
                MemBehavior::Trace(v)
            }
            _ => {
                return err(
                    AsmErrorKind::BadDirective(format!(
                        ".membeh {kind:?}: want stride B S F | random B F | hotcold B H C P | \
                         trace A.. | trace -"
                    )),
                    line,
                    toks[2].col,
                )
            }
        };
        self.mem_names
            .insert(name.to_string(), self.mem_behaviors.len() as u32);
        self.mem_behaviors.push(beh);
        Ok(())
    }

    fn instruction(&mut self, toks: &[Tok<'_>], line: u32) -> Result<(), AsmError> {
        let mn = toks[0].text;
        let col = toks[0].col;
        let args = &toks[1..];
        let argn = |n: usize| -> Result<(), AsmError> {
            if args.len() == n {
                Ok(())
            } else {
                err(
                    AsmErrorKind::MalformedOperand(format!(
                        "{mn} expects {n} operand(s), got {}",
                        args.len()
                    )),
                    line,
                    col,
                )
            }
        };

        let beh_alu = |class: OpClass, args: &[Tok<'_>]| -> Result<AsmOp, AsmError> {
            let dst = parse_opt_reg(&args[0], line)?;
            let s1 = parse_opt_reg(&args[1], line)?;
            let s2 = parse_opt_reg(&args[2], line)?;
            Ok(AsmOp::Beh(Inst {
                op: class,
                dst,
                src1: s1,
                src2: s2,
                mem: None,
                branch: None,
            }))
        };

        let mut target: Option<RawTarget> = None;
        let op = match mn {
            "int.alu" | "int.mul" | "int.div" | "fp.add" | "fp.mul" | "fp.div" => {
                argn(3)?;
                let class = match mn {
                    "int.alu" => OpClass::IntAlu,
                    "int.mul" => OpClass::IntMul,
                    "int.div" => OpClass::IntDiv,
                    "fp.add" => OpClass::FpAdd,
                    "fp.mul" => OpClass::FpMul,
                    _ => OpClass::FpDiv,
                };
                beh_alu(class, args)?
            }
            "load" => {
                argn(3)?;
                let dst = parse_opt_reg(&args[0], line)?;
                let addr = parse_bracket_reg(&args[1], line)?;
                let mem = self.mem_ref(&args[2], line)?;
                AsmOp::Beh(Inst {
                    op: OpClass::Load,
                    dst,
                    src1: addr,
                    src2: None,
                    mem: Some(mem),
                    branch: None,
                })
            }
            "store" => {
                argn(3)?;
                let data = parse_opt_reg(&args[0], line)?;
                let addr = parse_bracket_reg(&args[1], line)?;
                let mem = self.mem_ref(&args[2], line)?;
                AsmOp::Beh(Inst {
                    op: OpClass::Store,
                    dst: None,
                    src1: addr,
                    src2: data,
                    mem: Some(mem),
                    branch: None,
                })
            }
            "br.cond" => {
                argn(3)?;
                let cond = parse_opt_reg(&args[0], line)?;
                target = Some(parse_target(&args[1], line)?);
                let beh = self.br_ref(&args[2], line)?;
                AsmOp::BehBranch { cond, beh }
            }
            "j" | "jump" => {
                argn(1)?;
                target = Some(parse_target(&args[0], line)?);
                AsmOp::Jump
            }
            "call" => {
                argn(1)?;
                target = Some(parse_target(&args[0], line)?);
                AsmOp::Call
            }
            "ret" => {
                argn(0)?;
                AsmOp::Ret
            }
            "nop" => {
                argn(0)?;
                AsmOp::Beh(Inst::nop())
            }
            "li" => {
                argn(2)?;
                AsmOp::Li {
                    dst: parse_int_reg(&args[0], line)?,
                    imm: parse_i64(&args[1], line)?,
                }
            }
            "fli" => {
                argn(2)?;
                AsmOp::Fli {
                    dst: parse_fp_reg(&args[0], line)?,
                    imm: parse_f64(&args[1], line)?,
                }
            }
            "add" | "sub" | "and" | "or" | "xor" | "sll" | "srl" | "sra" | "slt" | "sltu"
            | "mul" | "div" | "rem" => {
                argn(3)?;
                AsmOp::Int3 {
                    kind: int_kind(mn),
                    dst: parse_int_reg(&args[0], line)?,
                    s1: parse_int_reg(&args[1], line)?,
                    s2: parse_int_reg(&args[2], line)?,
                }
            }
            "addi" | "andi" | "ori" | "xori" | "slli" | "srli" | "srai" | "slti" => {
                argn(3)?;
                AsmOp::IntImm {
                    kind: int_kind(mn.trim_end_matches('i')),
                    dst: parse_int_reg(&args[0], line)?,
                    s1: parse_int_reg(&args[1], line)?,
                    imm: parse_i64(&args[2], line)?,
                }
            }
            "fadd" | "fsub" | "fmul" | "fdiv" => {
                argn(3)?;
                let kind = match mn {
                    "fadd" => FpKind::Add,
                    "fsub" => FpKind::Sub,
                    "fmul" => FpKind::Mul,
                    _ => FpKind::Div,
                };
                AsmOp::Fp3 {
                    kind,
                    dst: parse_fp_reg(&args[0], line)?,
                    s1: parse_fp_reg(&args[1], line)?,
                    s2: parse_fp_reg(&args[2], line)?,
                }
            }
            "feq" | "flt" | "fle" => {
                argn(3)?;
                let kind = match mn {
                    "feq" => CmpKind::Eq,
                    "flt" => CmpKind::Lt,
                    _ => CmpKind::Le,
                };
                AsmOp::FpCmp {
                    kind,
                    dst: parse_int_reg(&args[0], line)?,
                    s1: parse_fp_reg(&args[1], line)?,
                    s2: parse_fp_reg(&args[2], line)?,
                }
            }
            "ld" | "fld" | "st" | "fst" => {
                argn(2)?;
                let fp = mn.starts_with('f');
                let store = mn.ends_with("st");
                let reg = if fp {
                    parse_fp_reg(&args[0], line)?
                } else {
                    parse_int_reg(&args[0], line)?
                };
                let (off, base) = parse_addr(&args[1], line)?;
                AsmOp::MemArch {
                    store,
                    fp,
                    reg,
                    off,
                    base,
                }
            }
            "beqz" | "bnez" => {
                argn(2)?;
                let src = parse_int_reg(&args[0], line)?;
                target = Some(parse_target(&args[1], line)?);
                AsmOp::BrZ {
                    expect_zero: mn == "beqz",
                    src,
                }
            }
            "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
                argn(3)?;
                let s1 = parse_int_reg(&args[0], line)?;
                let s2 = parse_int_reg(&args[1], line)?;
                target = Some(parse_target(&args[2], line)?);
                let kind = match mn {
                    "beq" => BrKind::Eq,
                    "bne" => BrKind::Ne,
                    "blt" => BrKind::Lt,
                    "bge" => BrKind::Ge,
                    "bltu" => BrKind::Ltu,
                    _ => BrKind::Geu,
                };
                AsmOp::BrCmp { kind, s1, s2 }
            }
            _ => return err(AsmErrorKind::UnknownMnemonic(mn.into()), line, col),
        };

        let block = self.blocks.last_mut().expect("open block checked");
        if op.is_terminator() {
            block.closed = true;
            block.taken = target;
        }
        block.insts.push(AsmInst { op, line, col });
        Ok(())
    }

    fn br_ref(&self, tok: &Tok<'_>, line: u32) -> Result<BranchBehaviorId, AsmError> {
        let Some(name) = tok.text.strip_prefix('@') else {
            return err(
                AsmErrorKind::MalformedOperand(format!("expected @behaviour, got {:?}", tok.text)),
                line,
                tok.col,
            );
        };
        match self.br_names.get(name) {
            Some(&id) => Ok(BranchBehaviorId(id)),
            None => err(AsmErrorKind::UnknownBehavior(name.into()), line, tok.col),
        }
    }

    fn mem_ref(&self, tok: &Tok<'_>, line: u32) -> Result<MemBehaviorId, AsmError> {
        let Some(name) = tok.text.strip_prefix('@') else {
            return err(
                AsmErrorKind::MalformedOperand(format!("expected @behaviour, got {:?}", tok.text)),
                line,
                tok.col,
            );
        };
        match self.mem_names.get(name) {
            Some(&id) => Ok(MemBehaviorId(id)),
            None => err(AsmErrorKind::UnknownBehavior(name.into()), line, tok.col),
        }
    }

    fn finish(self) -> Result<AsmModule, AsmError> {
        if self.blocks.is_empty() {
            return err(AsmErrorKind::Program(ProgramError::Empty), 1, 1);
        }
        let mut start_flat = Vec::with_capacity(self.blocks.len());
        let mut total = 0u64;
        for b in &self.blocks {
            start_flat.push(total);
            total += b.insts.len() as u64;
        }
        let resolve = |t: &RawTarget| -> Result<usize, AsmError> {
            let Some(&base) = self.labels.get(&t.label) else {
                return err(AsmErrorKind::UndefinedLabel(t.label.clone()), t.line, t.col);
            };
            if t.offset == 0 {
                return Ok(base);
            }
            let flat = start_flat[base] + t.offset;
            match start_flat.binary_search(&flat) {
                Ok(i) if flat < total => Ok(i),
                _ => err(
                    AsmErrorKind::BranchIntoMidBlock(format!("{}+{}", t.label, t.offset)),
                    t.line,
                    t.col,
                ),
            }
        };

        let entry = match &self.entry {
            Some(t) => resolve(t)?,
            None => 0,
        };

        let nblocks = self.blocks.len();
        let mut blocks = Vec::with_capacity(nblocks);
        for (i, raw) in self.blocks.iter().enumerate() {
            if raw.insts.is_empty() {
                return err(
                    AsmErrorKind::Program(ProgramError::EmptyBlock(crate::program::BlockId(
                        i as u32,
                    ))),
                    raw.line,
                    raw.col,
                );
            }
            let taken = match &raw.taken {
                Some(t) => Some(resolve(t)?),
                None => None,
            };
            let ends_unconditionally = matches!(
                raw.insts.last().map(|x| &x.op),
                Some(AsmOp::Jump) | Some(AsmOp::Ret)
            );
            let fall = match &raw.fall {
                RawFall::To(t) => Some(resolve(t)?),
                RawFall::Exit => None,
                RawFall::Default => {
                    if ends_unconditionally {
                        None
                    } else if i + 1 < nblocks {
                        Some(i + 1)
                    } else {
                        return err(
                            AsmErrorKind::Program(ProgramError::FallsOffEnd(
                                crate::program::BlockId(i as u32),
                            )),
                            raw.line,
                            raw.col,
                        );
                    }
                }
            };
            blocks.push(ModBlock {
                insts: raw.insts.clone(),
                taken,
                fall,
                line: raw.line,
                col: raw.col,
            });
        }

        // Reachability over taken + fall edges from the entry block.
        let mut seen = vec![false; nblocks];
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            for succ in [blocks[b].taken, blocks[b].fall].into_iter().flatten() {
                if !seen[succ] {
                    stack.push(succ);
                }
            }
        }
        if let Some(dead) = seen.iter().position(|&s| !s) {
            return err(
                AsmErrorKind::Program(ProgramError::Unreachable(crate::program::BlockId(
                    dead as u32,
                ))),
                blocks[dead].line,
                blocks[dead].col,
            );
        }

        Ok(AsmModule {
            blocks,
            entry,
            br_behaviors: self.br_behaviors,
            mem_behaviors: self.mem_behaviors,
            start_flat,
        })
    }
}

fn int_kind(mn: &str) -> IntKind {
    match mn {
        "add" => IntKind::Add,
        "sub" => IntKind::Sub,
        "and" => IntKind::And,
        "or" => IntKind::Or,
        "xor" => IntKind::Xor,
        "sll" => IntKind::Sll,
        "srl" => IntKind::Srl,
        "sra" => IntKind::Sra,
        "slt" => IntKind::Slt,
        "sltu" => IntKind::Sltu,
        "mul" => IntKind::Mul,
        "div" => IntKind::Div,
        _ => IntKind::Rem,
    }
}

fn parse_target(tok: &Tok<'_>, line: u32) -> Result<RawTarget, AsmError> {
    let (label, offset) = match tok.text.split_once('+') {
        Some((l, k)) => {
            let off: u64 = k.parse().map_err(|_| AsmError {
                kind: AsmErrorKind::BadImmediate(k.into()),
                line,
                col: tok.col,
            })?;
            (l, off)
        }
        None => (tok.text, 0),
    };
    if label.is_empty() {
        return err(
            AsmErrorKind::MalformedOperand(format!("bad target {:?}", tok.text)),
            line,
            tok.col,
        );
    }
    Ok(RawTarget {
        label: label.to_string(),
        offset,
        line,
        col: tok.col,
    })
}

fn parse_reg(tok: &Tok<'_>, line: u32) -> Result<ArchReg, AsmError> {
    let t = tok.text;
    let (fp, idx) = if let Some(rest) = t.strip_prefix('r') {
        (false, rest)
    } else if let Some(rest) = t.strip_prefix('f') {
        (true, rest)
    } else {
        return err(AsmErrorKind::BadRegister(t.into()), line, tok.col);
    };
    match idx.parse::<u8>() {
        Ok(i) if i < 32 && !idx.starts_with('+') => {
            Ok(if fp { ArchReg::fp(i) } else { ArchReg::int(i) })
        }
        _ => err(AsmErrorKind::BadRegister(t.into()), line, tok.col),
    }
}

fn parse_opt_reg(tok: &Tok<'_>, line: u32) -> Result<Option<ArchReg>, AsmError> {
    if tok.text == "-" {
        Ok(None)
    } else {
        parse_reg(tok, line).map(Some)
    }
}

fn parse_int_reg(tok: &Tok<'_>, line: u32) -> Result<u8, AsmError> {
    match parse_reg(tok, line)? {
        r if !r.is_fp() => Ok(r.index()),
        _ => err(
            AsmErrorKind::BadRegister(format!("{} (integer register required)", tok.text)),
            line,
            tok.col,
        ),
    }
}

fn parse_fp_reg(tok: &Tok<'_>, line: u32) -> Result<u8, AsmError> {
    match parse_reg(tok, line)? {
        r if r.is_fp() => Ok(r.index()),
        _ => err(
            AsmErrorKind::BadRegister(format!("{} (fp register required)", tok.text)),
            line,
            tok.col,
        ),
    }
}

/// `[rN]`, `[fN]` or `[-]` — the behavioral address dependence.
fn parse_bracket_reg(tok: &Tok<'_>, line: u32) -> Result<Option<ArchReg>, AsmError> {
    let inner = tok.text.strip_prefix('[').and_then(|t| t.strip_suffix(']'));
    match inner {
        Some(inner) => parse_opt_reg(
            &Tok {
                text: inner,
                col: tok.col + 1,
            },
            line,
        ),
        None => err(
            AsmErrorKind::MalformedOperand(format!("expected [reg], got {:?}", tok.text)),
            line,
            tok.col,
        ),
    }
}

/// `OFF(rN)` — architectural effective-address operand.
fn parse_addr(tok: &Tok<'_>, line: u32) -> Result<(i64, u8), AsmError> {
    let body = tok.text.strip_suffix(')');
    let parts = body.and_then(|b| b.split_once('('));
    let Some((off_s, base_s)) = parts else {
        return err(
            AsmErrorKind::MalformedOperand(format!("expected OFF(reg), got {:?}", tok.text)),
            line,
            tok.col,
        );
    };
    let off = parse_i64(
        &Tok {
            text: off_s,
            col: tok.col,
        },
        line,
    )?;
    let base = parse_int_reg(
        &Tok {
            text: base_s,
            col: tok.col + off_s.len() as u32 + 1,
        },
        line,
    )?;
    Ok((off, base))
}

/// Unsigned decimal or `0x` hex digits. A sign is rejected explicitly:
/// `str::parse` and `from_str_radix` would accept a leading `+`.
fn parse_magnitude(text: &str) -> Option<u64> {
    let (digits, radix) = match text.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (text, 10),
    };
    if digits.starts_with(['+', '-']) {
        return None;
    }
    u64::from_str_radix(digits, radix).ok()
}

fn parse_i64(tok: &Tok<'_>, line: u32) -> Result<i64, AsmError> {
    let t = tok.text;
    let (neg, body) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let magnitude = parse_magnitude(body).map(i128::from);
    match magnitude.and_then(|m| i64::try_from(if neg { -m } else { m }).ok()) {
        Some(v) => Ok(v),
        None => err(AsmErrorKind::BadImmediate(t.into()), line, tok.col),
    }
}

fn parse_u64(tok: &Tok<'_>, line: u32) -> Result<u64, AsmError> {
    parse_magnitude(tok.text).ok_or_else(|| AsmError {
        kind: AsmErrorKind::BadImmediate(tok.text.into()),
        line,
        col: tok.col,
    })
}

fn parse_f64(tok: &Tok<'_>, line: u32) -> Result<f64, AsmError> {
    tok.text.parse::<f64>().map_err(|_| AsmError {
        kind: AsmErrorKind::BadImmediate(tok.text.into()),
        line,
        col: tok.col,
    })
}

/// `TNT..` taken/not-taken string, or `-` for the empty pattern.
fn parse_tn(tok: &Tok<'_>, line: u32) -> Result<Vec<bool>, AsmError> {
    if tok.text == "-" {
        return Ok(Vec::new());
    }
    tok.text
        .chars()
        .map(|c| match c {
            'T' => Ok(true),
            'N' => Ok(false),
            _ => err(
                AsmErrorKind::BadImmediate(format!("{} (want T/N)", tok.text)),
                line,
                tok.col,
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn fmt_opt_reg(r: Option<ArchReg>) -> String {
    match r {
        Some(r) => r.to_string(),
        None => "-".to_string(),
    }
}

fn fmt_tn(bits: &[bool]) -> String {
    if bits.is_empty() {
        return "-".to_string();
    }
    bits.iter().map(|&b| if b { 'T' } else { 'N' }).collect()
}

/// Pretty-prints a validated [`Program`] as `.gasm` text.
///
/// The rendering uses the behavioral vocabulary only (a [`Program`] carries
/// no architectural data), with labels `b0..`, branch behaviours `br0..`
/// and memory behaviours `m0..` in table order — so
/// `parse(print_gasm(p))?.to_program(p.seed())` rebuilds a program equal
/// to `p` (behaviour ids, edges and entry included; pinned by the
/// round-trip proptest in `crates/isa/tests`).
pub fn print_gasm(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, ".entry b{}", program.entry().0);
    for i in 0..program.branch_behavior_count() as u32 {
        let beh = program.branch_behavior(BranchBehaviorId(i));
        let body = match beh {
            BranchBehavior::TakenProb(p) => format!("prob {p:?}"),
            BranchBehavior::Loop { trip } => format!("loop {trip}"),
            BranchBehavior::Pattern(v) => format!("pattern {}", fmt_tn(v)),
            BranchBehavior::Trace(v) => format!("trace {}", fmt_tn(v)),
        };
        let _ = writeln!(s, ".brbeh br{i} {body}");
    }
    for i in 0..program.mem_behavior_count() as u32 {
        let beh = program.mem_behavior(MemBehaviorId(i));
        let body = match beh {
            MemBehavior::Stride {
                base,
                stride,
                footprint,
            } => format!("stride {base} {stride} {footprint}"),
            MemBehavior::Random { base, footprint } => format!("random {base} {footprint}"),
            MemBehavior::HotCold {
                base,
                hot,
                cold,
                hot_frac,
            } => format!("hotcold {base} {hot} {cold} {hot_frac:?}"),
            MemBehavior::Trace(addrs) => {
                if addrs.is_empty() {
                    "trace -".to_string()
                } else {
                    let list: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
                    format!("trace {}", list.join(" "))
                }
            }
        };
        let _ = writeln!(s, ".membeh m{i} {body}");
    }

    for (bid, block) in program.blocks() {
        let _ = writeln!(s, "b{}:", bid.0);
        let last = block.insts.len() - 1;
        for (i, inst) in block.insts.iter().enumerate() {
            let text = match inst.op {
                OpClass::IntAlu
                | OpClass::IntMul
                | OpClass::IntDiv
                | OpClass::FpAdd
                | OpClass::FpMul
                | OpClass::FpDiv => format!(
                    "{} {}, {}, {}",
                    inst.op,
                    fmt_opt_reg(inst.dst),
                    fmt_opt_reg(inst.src1),
                    fmt_opt_reg(inst.src2)
                ),
                OpClass::Load => format!(
                    "load {}, [{}] @m{}",
                    fmt_opt_reg(inst.dst),
                    fmt_opt_reg(inst.src1),
                    inst.mem.expect("validated load").0
                ),
                OpClass::Store => format!(
                    "store {}, [{}] @m{}",
                    fmt_opt_reg(inst.src2),
                    fmt_opt_reg(inst.src1),
                    inst.mem.expect("validated store").0
                ),
                OpClass::BranchCond => format!(
                    "br.cond {}, b{} @br{}",
                    fmt_opt_reg(inst.src1),
                    block.taken.expect("validated branch").0,
                    inst.branch.expect("validated branch").0
                ),
                OpClass::Jump => format!("j b{}", block.taken.expect("validated jump").0),
                OpClass::Call => format!("call b{}", block.taken.expect("validated call").0),
                OpClass::Ret => "ret".to_string(),
                OpClass::Nop => "nop".to_string(),
            };
            let _ = writeln!(s, "    {text}");
            debug_assert!(i == last || !inst.op.is_branch(), "validated program");
        }
        let ends_unconditionally = matches!(
            block.insts.last().map(|x| x.op),
            Some(OpClass::Jump) | Some(OpClass::Ret)
        );
        match block.fallthrough {
            Some(f) => {
                let is_next = f.0 == bid.0 + 1;
                if ends_unconditionally || !is_next {
                    let _ = writeln!(s, "    .fall b{}", f.0);
                }
            }
            None => {
                if !ends_unconditionally {
                    let _ = writeln!(s, "    .exit");
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_links_a_behavioral_module() {
        let src = "\
.entry top
.brbeh back loop 3
.membeh heap stride 0 8 64
top:
    int.alu r1, r2, -
    load r3, [r1] @heap
    br.cond r1, top @back
done:
    ret
";
        let m = parse(src).expect("parses");
        assert!(!m.has_architectural_ops());
        assert_eq!(m.block_count(), 2);
        let p = m.to_program(7).expect("links");
        assert_eq!(p.static_inst_count(), 4);
        let insts: Vec<_> = crate::stream::DynStream::new(&p).collect();
        // 3 loop trips of 3 insts, then ret.
        assert_eq!(insts.len(), 10);
    }

    #[test]
    fn roundtrips_through_print() {
        let src = "\
.entry top
.brbeh back loop 3
.membeh heap stride 0 8 64
top:
    int.alu r1, r2, -
    br.cond r1, top @back
done:
    store r1, [-] @heap
    .exit
";
        let p = parse(src).unwrap().to_program(5).unwrap();
        let printed = print_gasm(&p);
        let p2 = parse(&printed)
            .expect("printed text parses")
            .to_program(5)
            .expect("links");
        assert_eq!(p, p2);
    }

    #[test]
    fn architectural_ops_require_execution() {
        let src = "main:\n    li r1, 4\n    ret\n";
        let m = parse(src).expect("parses");
        assert!(m.has_architectural_ops());
        let e = m.to_program(0).unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::RequiresExecution(_)));
        assert_eq!((e.line, e.col), (2, 5));
    }

    #[test]
    fn label_plus_k_resolves_to_leaders_only() {
        let ok = "main:\n    nop\n    nop\nnext:\n    j main+2\n";
        assert!(parse(ok).is_ok(), "main+2 is the leader of next");
        let bad = "main:\n    nop\n    nop\nnext:\n    j main+1\n";
        let e = parse(bad).unwrap_err();
        assert!(matches!(e.kind, AsmErrorKind::BranchIntoMidBlock(_)));
        assert_eq!((e.line, e.col), (5, 7));
    }

    #[test]
    fn cfg_diagnostics_are_typed() {
        let dead = "main:\n    ret\nlost:\n    ret\n";
        let e = parse(dead).unwrap_err();
        assert!(matches!(
            e.kind,
            AsmErrorKind::Program(ProgramError::Unreachable(_))
        ));
        let off_end = "main:\n    li r1, 1\n";
        let e = parse(off_end).unwrap_err();
        assert!(matches!(
            e.kind,
            AsmErrorKind::Program(ProgramError::FallsOffEnd(_))
        ));
    }

    #[test]
    fn terminators_split_blocks() {
        let src = "main:\n    call fun\n    nop\n    .exit\nfun:\n    ret\n";
        let m = parse(src).expect("anonymous block after call");
        assert_eq!(m.block_count(), 3);
        // call returns to the anonymous fall-through block.
        assert_eq!(m.blocks[0].fall, Some(1));
        assert_eq!(m.blocks[0].taken, Some(2));
    }
}
