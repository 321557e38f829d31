//! Lowering resolved virus programs to flat register bytecode.
//!
//! The tree-walking [`crate::interp`] pays a step-budget check, a `Box`
//! pointer chase, and a `Result` unwind frame *per AST node*. A GA campaign
//! re-executes the same chromosome-instantiated program for every averaging
//! run, so that overhead multiplies into campaign wall-clock. This module
//! compiles the resolved tree once into a linear `Vec<Op>` the
//! [`crate::vm`] executes in a tight loop.
//!
//! # Registers
//!
//! A slot that no global uses is a local: it never lives in DRAM, so it
//! becomes a fixed VM register (registers `0..locals`, temporaries above
//! them). Reading it is an `Operand::Reg`, not an op; assigning it is a
//! register op, or the op that computed the value writes the register
//! directly. Only global slots keep the slot ops (`LoadSlot`, `StoreSlot`,
//! `FoldSlot`, `DivSlot`, `DeclSlot`), because a global's kind changes at
//! run time when a local declaration of the same name shadows it. A local
//! used as an array base is a `malloc` pointer and indexes through
//! `LoadPtr`/`StorePtr`, unchecked like the interpreter.
//!
//! # Step accounting
//!
//! The interpreter increments `ExecStats::steps` once per statement and
//! once per expression node (pre-order), checking the budget at every
//! increment. The VM must be **bit-identical** — same step totals, same
//! `ExecutionLimit`-vs-runtime-error ordering, same bus trace — while
//! checking far less often. The compiler achieves this with a static
//! `pending` counter:
//!
//! * visiting a node during lowering adds `+1` to `pending` (pre-order,
//!   mirroring the interpreter exactly);
//! * every op that can touch the bus or fail (`LoadPtr`, `StoreIndex`,
//!   `DivRem`, `Malloc`, the slot ops, …) *takes* the accumulated
//!   `pending` as its `charge`: at run time the VM adds the charge to
//!   `steps` and checks the budget **before** the side effect or error;
//! * control-flow edges (`Jump`, `Branch`) also carry the outstanding
//!   charge, and a `Bump` op flushes it on fall-through edges, so `pending`
//!   is zero at every join point and charges are never double- or
//!   under-counted on any path; a loop's flush is its `Bump` placeholder
//!   (or the `FusedLoop` op that replaces it);
//! * `Halt` carries the final residue.
//!
//! Register ops (`Const`, `Alu`, so also every local assignment but a
//! division) carry no charge and are never budget-checked: their node counts stay in `pending` for the next
//! charged op. The VM may execute a handful of them past the point where
//! the interpreter would have stopped, but registers are not observable,
//! and the next charged op (every loop has a back-edge jump) raises the
//! identical `ExecutionLimit`. The net effect is one budget check per
//! basic block with provably identical observable behaviour — pinned by
//! the `dstress-tests` differential suite.
//!
//! # Branches
//!
//! One conditional op, `Branch`, jumps when its comparison is false. A
//! condition whose last op is a comparison into a temporary folds into the
//! branch; any other condition `c` branches on `c != 0` (or `c == 0` for
//! the `||` short circuit) against `#0`.
//!
//! # Fusion
//!
//! Constants fold into `Operand::Imm` at compile time, so the paper's
//! inner-loop shapes cost one op each: `v[i] = 0x3333…` becomes a single
//! store with an immediate source, and `acc += v[i]` a load plus one
//! register `Alu` instead of five tree nodes.
//!
//! On top of that, a peephole pass recognizes five counted-loop shapes
//! that dominate the virus templates and plants an `Op::FusedLoop`
//! superinstruction in front of the ordinary loop code:
//!
//! * the background fill `for (i = 0; i < N; i += 1) { buf[i] = C; }`;
//! * the read-pressure reduction `acc ∘= buf[i]`;
//! * the offset reduction `acc ∘= buf[off + i]` (or `buf[i + off]`);
//! * the span copy `dst[off + i] = src[i]`;
//! * the access templates' gather
//!   `base = table[i * K + lane]; acc ∘= buf[base + off]`, with `off`
//!   computed between the two reads by loop-invariant ops: register
//!   arithmetic, division by a nonzero immediate, and reads at invariant
//!   indices (see `Gather`).
//!
//! The counter, the accumulator, a gather's `base` and the offset must be
//! locals — that is decided at compile time, so no slot kind is checked
//! at run time. An offset is a loop-invariant local plus or minus an
//! immediate, added with the unfused code's wrapping arithmetic; it may not
//! be the counter, the accumulator or an array the loop indexes. A gather
//! writes no local but the counter, `base` and the accumulator, and stores
//! nothing. A fused loop runs in one of two ways. When control reaches it,
//! the VM checks that the whole loop fits the step budget and that its
//! spans (a gather's table indices) are in range without wrapping; if both
//! hold, it runs the loop in bulk — as one bus span call, or for a gather
//! as a native loop making the same reads in the same order — and adds
//! the loop's total charge: the per-iteration charges read back from the
//! emitted ops (condition branch, bus access — a copy's read and its write
//! separately, a gather's charged ops summed — and back edge) times the
//! iterations, plus the final failing condition. Otherwise it falls
//! through to the unfused ops that still follow it, which run the loop
//! exactly, a mid-loop budget trip or fault included.
//!
//! A fused loop's description lives in the [`CompiledProgram`]'s side
//! table (`fused`); `Op::FusedLoop` carries only its index and the loop's
//! entry charge. Every op the dispatch loop copies out of the stream
//! therefore stays at most 48 bytes — a compile-time assertion — however
//! rich a fused body grows, so programs that run mostly unfused ops pay
//! nothing for new shapes.

use crate::ast::{AssignOp, BinOp, Program, UnOp};
use crate::error::VplError;
use crate::resolve::{resolve, RExpr, RLValue, RStmt};

/// An op input: an immediate folded at compile time, or a register (a
/// local's, or a temporary holding an intermediate value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    Imm(u64),
    Reg(u32),
}

/// Infallible arithmetic (wrapping semantics; comparisons yield 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluOp {
    Add,
    Sub,
    Mul,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl AluOp {
    /// The comparison true exactly when `self` is false (`None` for
    /// arithmetic).
    pub(crate) fn negated(self) -> Option<AluOp> {
        Some(match self {
            AluOp::Eq => AluOp::Ne,
            AluOp::Ne => AluOp::Eq,
            AluOp::Lt => AluOp::Ge,
            AluOp::Ge => AluOp::Lt,
            AluOp::Gt => AluOp::Le,
            AluOp::Le => AluOp::Gt,
            _ => return None,
        })
    }
}

/// Evaluates an infallible ALU op with the interpreter's exact semantics.
#[inline]
pub(crate) fn alu(op: AluOp, l: u64, r: u64) -> u64 {
    match op {
        AluOp::Add => l.wrapping_add(r),
        AluOp::Sub => l.wrapping_sub(r),
        AluOp::Mul => l.wrapping_mul(r),
        AluOp::Shl => l.wrapping_shl(r as u32),
        AluOp::Shr => l.wrapping_shr(r as u32),
        AluOp::BitAnd => l & r,
        AluOp::BitOr => l | r,
        AluOp::BitXor => l ^ r,
        AluOp::Eq => (l == r) as u64,
        AluOp::Ne => (l != r) as u64,
        AluOp::Lt => (l < r) as u64,
        AluOp::Gt => (l > r) as u64,
        AluOp::Le => (l <= r) as u64,
        AluOp::Ge => (l >= r) as u64,
    }
}

fn alu_of(op: BinOp) -> AluOp {
    match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Shl => AluOp::Shl,
        BinOp::Shr => AluOp::Shr,
        BinOp::BitAnd => AluOp::BitAnd,
        BinOp::BitOr => AluOp::BitOr,
        BinOp::BitXor => AluOp::BitXor,
        BinOp::Eq => AluOp::Eq,
        BinOp::Ne => AluOp::Ne,
        BinOp::Lt => AluOp::Lt,
        BinOp::Gt => AluOp::Gt,
        BinOp::Le => AluOp::Le,
        BinOp::Ge => AluOp::Ge,
        BinOp::Div | BinOp::Rem | BinOp::And | BinOp::Or => {
            unreachable!("fallible/short-circuit ops are lowered separately")
        }
    }
}

/// One bytecode instruction. `charge` fields hold the step-budget debt
/// accumulated since the previous charged op (see module docs). `slot`
/// and `base` fields name global slots; `dst` and `ptr` fields registers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `regs[dst] = value`. Pure.
    Const { dst: u32, value: u64 },
    /// `regs[dst] = alu(op, lhs, rhs)`. Pure.
    Alu {
        op: AluOp,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
    },
    /// `regs[dst] = lhs / rhs` (or `%`). Fails on a zero divisor.
    DivRem {
        rem: bool,
        dst: u32,
        lhs: Operand,
        rhs: Operand,
        charge: u32,
    },
    /// Reads global slot `slot`: register copy, DRAM scalar load, or
    /// array-to-base-address decay, resolved dynamically like the
    /// interpreter's bare-variable evaluation.
    LoadSlot { dst: u32, slot: u32, charge: u32 },
    /// Writes global slot `slot` (register set or DRAM scalar store).
    StoreSlot {
        slot: u32,
        src: Operand,
        charge: u32,
    },
    /// Compound assignment `slot ∘= src` to a global slot for infallible
    /// `∘` (read-modify-write in one dispatch).
    FoldSlot {
        op: AluOp,
        slot: u32,
        src: Operand,
        charge: u32,
    },
    /// `slot /= src` on a global slot: read, zero check, write.
    DivSlot {
        slot: u32,
        src: Operand,
        charge: u32,
    },
    /// `regs[dst] = base[index]` through global slot `base` —
    /// bounds-checked when it holds a DRAM array.
    LoadIndex {
        dst: u32,
        base: u32,
        index: Operand,
        charge: u32,
    },
    /// `base[index] = src` through global slot `base`.
    StoreIndex {
        base: u32,
        index: Operand,
        src: Operand,
        charge: u32,
    },
    /// `regs[dst] = regs[ptr][index]` — unchecked pointer load.
    LoadPtr {
        dst: u32,
        ptr: u32,
        index: Operand,
        charge: u32,
    },
    /// `regs[ptr][index] = src` — unchecked pointer store.
    StorePtr {
        ptr: u32,
        index: Operand,
        src: Operand,
        charge: u32,
    },
    /// `regs[dst] = malloc(bytes)`.
    Malloc {
        dst: u32,
        bytes: Operand,
        charge: u32,
    },
    /// Declares (or re-declares, shadowing a global) global slot `slot`
    /// as a register initialized to `init`. Pure.
    DeclSlot { slot: u32, init: Operand },
    /// Flushes `n` pending steps on a fall-through edge into a join point;
    /// also the placeholder in front of a loop the peephole did not fuse.
    Bump { n: u32 },
    /// Unconditional jump.
    Jump { target: u32, charge: u32 },
    /// Jump when `alu(cmp, lhs, rhs)` is false (`cmp` a comparison).
    Branch {
        cmp: AluOp,
        lhs: Operand,
        rhs: Operand,
        target: u32,
        charge: u32,
    },
    /// A whole counted loop in one dispatch (see module docs, "Fusion"):
    /// flushes `charge` like the `Bump` it replaced, then runs fused loop
    /// `index` of [`CompiledProgram::fused`] in bulk, or falls through to
    /// the equivalent unfused ops when it cannot.
    FusedLoop { index: u32, charge: u32 },
    /// End of program: flush the residual charge and return the stats.
    Halt { charge: u32 },
}

// Every op the dispatch loop copies out of the stream is at most this
// size; fused loops live in a side table so a richer body cannot grow it.
const _: () = assert!(std::mem::size_of::<Op>() <= 48);

/// The array a fused loop indexes: a global slot (a DRAM array, or a
/// pointer when a local declaration shadows it) or a local pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Base {
    Slot(u32),
    Reg(u32),
}

/// A fused `for (var = …; var < bound; var += 1)` loop over one bus access
/// (one read and one write for a copy) per iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedLoop {
    /// The counter's register.
    pub var: u32,
    /// Loop bound (`var < bound`), folded to an immediate.
    pub bound: u64,
    /// The bus access(es) performed each iteration.
    pub body: FusedBody,
    /// Steps charged at the condition check (final failing check included).
    pub c_cond: u32,
    /// Steps charged at the bus-access check (a copy's read).
    pub c_access: u32,
    /// Steps charged at the back edge.
    pub c_back: u32,
    /// First op after the loop.
    pub exit: u32,
}

/// A loop-invariant index offset `reg + imm` (wrapping; `reg - k` is
/// stored as `imm = k.wrapping_neg()`). `reg` is a local's register and is
/// never the counter, the accumulator or an array the loop indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Offset {
    /// The offset's register.
    pub reg: u32,
    /// The immediate added to it.
    pub imm: u64,
}

/// The per-iteration body of a [`FusedLoop`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedBody {
    /// `base[var] = value` — the background-fill shape.
    StoreImm {
        /// Array being written.
        base: Base,
        /// The immediate pattern.
        value: u64,
    },
    /// `acc ∘= base[off + var]` — the read-pressure reduction shape, with
    /// or without an offset.
    Accumulate {
        /// The fold operator.
        op: AluOp,
        /// Array being read.
        base: Base,
        /// Accumulator register.
        acc: u32,
        /// Index offset (`None`: `base[var]`).
        off: Option<Offset>,
    },
    /// `dst[off + var] = src[var]` — the span-copy shape: a read charged
    /// at [`FusedLoop::c_access`], then a write charged at `c_write`.
    Copy {
        /// Array being written.
        dst: Base,
        /// Destination index offset.
        off: Offset,
        /// Array being read.
        src: Base,
        /// Steps charged at the write check.
        c_write: u32,
    },
    /// The access templates' gather (see [`Gather`]); every charge of its
    /// body sums into [`FusedLoop::c_access`].
    Gather(Gather),
}

/// `base = table[var * stride + lane]; acc ∘= array[base + off]`, with
/// `off` computed by `ops[invariant.0..invariant.1]`: loop-invariant
/// register arithmetic, division by a nonzero immediate, and reads at
/// loop-invariant indices (which stay on the bus every iteration).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gather {
    /// The table read first each iteration.
    pub table: Base,
    /// The counter's multiplier in the table index.
    pub stride: u64,
    /// The loop-invariant term of the table index.
    pub lane: Operand,
    /// The local register the table word lands in.
    pub base: u32,
    /// The op range computing `off`, between the two reads.
    pub invariant: (u32, u32),
    /// The gather offset added to `base`: an immediate, an invariant local,
    /// or a temporary the invariant ops compute.
    pub off: Operand,
    /// Array being gathered from.
    pub array: Base,
    /// The fold operator.
    pub op: AluOp,
    /// Accumulator register.
    pub acc: u32,
}

impl FusedBody {
    /// The loop-invariant index offset, if the body has one.
    pub(crate) fn offset(&self) -> Option<Offset> {
        match *self {
            FusedBody::StoreImm { .. } => None,
            FusedBody::Accumulate { off, .. } => off,
            FusedBody::Copy { off, .. } => Some(off),
            FusedBody::Gather(_) => None,
        }
    }

    fn shape(&self) -> FusedShape {
        match self {
            FusedBody::StoreImm { .. } => FusedShape::Fill,
            FusedBody::Accumulate { off: None, .. } => FusedShape::Reduce,
            FusedBody::Accumulate { off: Some(_), .. } => FusedShape::OffsetReduce,
            FusedBody::Copy { .. } => FusedShape::Copy,
            FusedBody::Gather(_) => FusedShape::Gather,
        }
    }
}

/// Which loop shape a fused loop has — the public view of the fusion
/// coverage, so template tests can pin which loops run as one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedShape {
    /// `base[var] = imm`.
    Fill,
    /// `acc ∘= base[var]`.
    Reduce,
    /// `acc ∘= base[off + var]`.
    OffsetReduce,
    /// `dst[off + var] = src[var]`.
    Copy,
    /// `base = table[var * k + lane]; acc ∘= array[base + off]`.
    Gather,
}

/// A virus program lowered to flat bytecode, ready for repeated execution
/// by [`crate::vm::Vm`].
///
/// Compile once per chromosome (resolution, constant folding, and step
/// accounting are all done here), then run it against a fresh bus per
/// averaging run.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) names: Vec<String>,
    pub(crate) globals: Vec<(u32, Vec<u64>)>,
    pub(crate) ops: Vec<Op>,
    /// The fused loops `Op::FusedLoop` indexes, in program order.
    pub(crate) fused: Vec<FusedLoop>,
    /// The slot of each local register, in register order (listings).
    pub(crate) local_slots: Vec<u32>,
    pub(crate) num_regs: u32,
}

impl CompiledProgram {
    /// Number of bytecode ops (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program lowered to nothing but a `Halt`.
    pub fn is_empty(&self) -> bool {
        self.ops.len() <= 1
    }

    /// The shape of every fused loop, in program order.
    pub fn fused_shapes(&self) -> Vec<FusedShape> {
        self.fused.iter().map(|f| f.body.shape()).collect()
    }
}

/// Compiles a fully-instantiated program to bytecode.
///
/// # Errors
///
/// Returns the same resolution errors as [`crate::Interpreter::run`]
/// (leftover placeholder, undeclared variable, unknown function,
/// non-constant global initializer), surfaced at compile time instead of
/// run time.
pub fn compile(program: &Program) -> Result<CompiledProgram, VplError> {
    let resolved = resolve(program)?;
    // Every slot no global uses gets the next register.
    let mut reg_of = vec![Some(0); resolved.names.len()];
    for (slot, _) in &resolved.globals {
        reg_of[*slot as usize] = None;
    }
    let mut local_slots = Vec::new();
    for (slot, reg) in reg_of.iter_mut().enumerate() {
        if reg.is_some() {
            *reg = Some(local_slots.len() as u32);
            local_slots.push(slot as u32);
        }
    }
    let locals = local_slots.len() as u32;
    let mut e = Emitter {
        ops: Vec::new(),
        fused: Vec::new(),
        pending: 0,
        reg_of,
        locals,
        next_reg: locals,
        max_regs: locals,
    };
    for s in resolved.locals.iter().chain(&resolved.body) {
        e.stmt(s);
    }
    let charge = e.take();
    e.ops.push(Op::Halt { charge });
    Ok(CompiledProgram {
        names: resolved.names,
        globals: resolved.globals,
        ops: e.ops,
        fused: e.fused,
        local_slots,
        num_regs: e.max_regs,
    })
}

/// Bytecode emitter: tracks the pending step debt and the register
/// high-water mark while walking the resolved tree.
struct Emitter {
    ops: Vec<Op>,
    fused: Vec<FusedLoop>,
    pending: u32,
    /// Each slot's register, `None` for global slots.
    reg_of: Vec<Option<u32>>,
    /// Registers `0..locals` hold locals; temporaries start above them.
    locals: u32,
    next_reg: u32,
    max_regs: u32,
}

impl Emitter {
    fn take(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }

    /// Flushes pending steps before binding a fall-through join point.
    fn flush(&mut self) {
        if self.pending > 0 {
            let n = self.take();
            self.ops.push(Op::Bump { n });
        }
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn alloc_reg(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_regs = self.max_regs.max(self.next_reg);
        r
    }

    fn is_local(&self, reg: u32) -> bool {
        reg < self.locals
    }

    /// Emits an unconditional jump (flushing pending into its charge) and
    /// returns its index for patching.
    fn emit_jump(&mut self) -> usize {
        let charge = self.take();
        self.ops.push(Op::Jump {
            target: u32::MAX,
            charge,
        });
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { target: t, .. } | Op::Branch { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    /// Emits a branch taken when `cond` is zero (or, with `if_nonzero`,
    /// nonzero), flushing pending into its charge, and returns its index
    /// for patching. A comparison into a temporary emitted since `start`
    /// as `cond`'s last op folds into the branch.
    fn branch(&mut self, cond: Operand, start: usize, if_nonzero: bool) -> usize {
        let (mut cmp, mut lhs, mut rhs) = (AluOp::Ne, cond, Operand::Imm(0));
        if let (
            Some(&Op::Alu {
                op,
                dst,
                lhs: l,
                rhs: r,
            }),
            Operand::Reg(c),
        ) = (self.ops.last(), cond)
        {
            if self.ops.len() > start && dst == c && !self.is_local(c) && op.negated().is_some() {
                self.ops.pop();
                (cmp, lhs, rhs) = (op, l, r);
            }
        }
        if if_nonzero {
            cmp = cmp.negated().expect("a comparison");
        }
        let charge = self.take();
        self.ops.push(Op::Branch {
            cmp,
            lhs,
            rhs,
            target: u32::MAX,
            charge,
        });
        self.ops.len() - 1
    }

    /// Emits an ALU op, folding when both inputs are immediates. Folding is
    /// step-exact: the interpreter walks the same nodes, and their counts
    /// stay in `pending` either way.
    fn alu(&mut self, op: AluOp, lhs: Operand, rhs: Operand) -> Operand {
        if let (Operand::Imm(l), Operand::Imm(r)) = (lhs, rhs) {
            return Operand::Imm(alu(op, l, r));
        }
        let dst = self.alloc_reg();
        self.ops.push(Op::Alu { op, dst, lhs, rhs });
        Operand::Reg(dst)
    }

    /// `lhs / rhs` (or `%`): a charged `DivRem` with its zero check.
    fn div_rem(&mut self, rem: bool, lhs: Operand, rhs: Operand) -> Operand {
        let dst = self.alloc_reg();
        let charge = self.take();
        self.ops.push(Op::DivRem {
            rem,
            dst,
            lhs,
            rhs,
            charge,
        });
        Operand::Reg(dst)
    }

    /// `regs[reg] = v`: retargets the op that just computed `v` into a
    /// temporary, or emits a register move.
    fn set_local(&mut self, reg: u32, v: Operand) {
        match v {
            Operand::Imm(value) => self.ops.push(Op::Const { dst: reg, value }),
            Operand::Reg(r) if r == reg => {}
            Operand::Reg(r) => {
                if !self.is_local(r) {
                    if let Some(
                        Op::Alu { dst, .. }
                        | Op::DivRem { dst, .. }
                        | Op::LoadSlot { dst, .. }
                        | Op::LoadIndex { dst, .. }
                        | Op::LoadPtr { dst, .. }
                        | Op::Malloc { dst, .. },
                    ) = self.ops.last_mut()
                    {
                        if *dst == r {
                            *dst = reg;
                            return;
                        }
                    }
                }
                self.ops.push(Op::Alu {
                    op: AluOp::Add,
                    dst: reg,
                    lhs: v,
                    rhs: Operand::Imm(0),
                });
            }
        }
    }

    /// `base[index]`, charged: a pointer load for a local base.
    fn load(&mut self, base: u32, index: Operand) -> Operand {
        let dst = self.alloc_reg();
        let charge = self.take();
        self.ops.push(match self.reg_of[base as usize] {
            Some(ptr) => Op::LoadPtr {
                dst,
                ptr,
                index,
                charge,
            },
            None => Op::LoadIndex {
                dst,
                base,
                index,
                charge,
            },
        });
        Operand::Reg(dst)
    }

    /// `base[index] = src`, charged: a pointer store for a local base.
    fn store(&mut self, base: u32, index: Operand, src: Operand) {
        let charge = self.take();
        self.ops.push(match self.reg_of[base as usize] {
            Some(ptr) => Op::StorePtr {
                ptr,
                index,
                src,
                charge,
            },
            None => Op::StoreIndex {
                base,
                index,
                src,
                charge,
            },
        });
    }

    fn expr(&mut self, e: &RExpr) -> Operand {
        self.pending += 1;
        match e {
            RExpr::Num(n) => Operand::Imm(*n),
            RExpr::Slot(slot) => match self.reg_of[*slot as usize] {
                Some(reg) => Operand::Reg(reg),
                None => {
                    let dst = self.alloc_reg();
                    let charge = self.take();
                    self.ops.push(Op::LoadSlot {
                        dst,
                        slot: *slot,
                        charge,
                    });
                    Operand::Reg(dst)
                }
            },
            RExpr::Index { base, index } => {
                let index = self.expr(index);
                self.load(*base, index)
            }
            RExpr::Unary { op, operand } => {
                let v = self.expr(operand);
                match op {
                    UnOp::Neg => self.alu(AluOp::Sub, Operand::Imm(0), v),
                    UnOp::Not => self.alu(AluOp::Eq, v, Operand::Imm(0)),
                }
            }
            RExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And => self.short_circuit(lhs, rhs, true),
                BinOp::Or => self.short_circuit(lhs, rhs, false),
                BinOp::Div | BinOp::Rem => {
                    let l = self.expr(lhs);
                    let r = self.expr(rhs);
                    self.div_rem(matches!(op, BinOp::Rem), l, r)
                }
                _ => {
                    let l = self.expr(lhs);
                    let r = self.expr(rhs);
                    self.alu(alu_of(*op), l, r)
                }
            },
            RExpr::Malloc(bytes) => {
                let bytes = self.expr(bytes);
                let dst = self.alloc_reg();
                let charge = self.take();
                self.ops.push(Op::Malloc { dst, bytes, charge });
                Operand::Reg(dst)
            }
        }
    }

    /// Lowers `lhs && rhs` / `lhs || rhs` with the interpreter's exact
    /// short-circuit semantics: `rhs` (and its step counts) only on the
    /// non-short path, result normalized to 0/1.
    fn short_circuit(&mut self, lhs: &RExpr, rhs: &RExpr, is_and: bool) -> Operand {
        let start = self.ops.len();
        let l = self.expr(lhs);
        if let Operand::Imm(v) = l {
            // Statically decided: either the rhs never runs…
            if is_and && v == 0 {
                return Operand::Imm(0);
            }
            if !is_and && v != 0 {
                return Operand::Imm(1);
            }
            // …or the result is just the normalized rhs.
            let r = self.expr(rhs);
            return self.alu(AluOp::Ne, r, Operand::Imm(0));
        }
        let dst = self.alloc_reg();
        let br = self.branch(l, start, !is_and);
        let r = self.expr(rhs);
        self.ops.push(Op::Alu {
            op: AluOp::Ne,
            dst,
            lhs: r,
            rhs: Operand::Imm(0),
        });
        let jend = self.emit_jump();
        self.patch(br, self.here());
        self.ops.push(Op::Const {
            dst,
            value: if is_and { 0 } else { 1 },
        });
        self.patch(jend, self.here());
        Operand::Reg(dst)
    }

    fn stmt(&mut self, s: &RStmt) {
        // Temporaries only carry values within one statement (variables
        // live in locals' registers or slots), so they reset at every
        // statement boundary.
        let reg_base = self.next_reg;
        self.pending += 1;
        match s {
            RStmt::DeclInit { slot, init } => {
                let v = match init {
                    Some(e) => self.expr(e),
                    None => Operand::Imm(0),
                };
                match self.reg_of[*slot as usize] {
                    Some(reg) => self.set_local(reg, v),
                    None => self.ops.push(Op::DeclSlot {
                        slot: *slot,
                        init: v,
                    }),
                }
            }
            RStmt::Expr(e) => {
                self.expr(e);
            }
            RStmt::Assign { target, op, value } => {
                // The interpreter evaluates the value before touching the
                // target, and compound assignment to `base[index]`
                // evaluates the index twice (read, then write) — both
                // reproduced exactly here.
                let v = self.expr(value);
                match target {
                    RLValue::Slot(slot) => self.assign_slot(*slot, *op, v),
                    RLValue::Index { base, index } => {
                        let i = self.expr(index);
                        let new = match op {
                            AssignOp::Set => v,
                            compound => {
                                let old = self.load(*base, i);
                                self.compound(*compound, old, v)
                            }
                        };
                        let i = match op {
                            AssignOp::Set => i,
                            _ => self.expr(index),
                        };
                        self.store(*base, i, new);
                    }
                }
            }
            RStmt::IncDec { target, increment } => {
                let op = if *increment {
                    AssignOp::Add
                } else {
                    AssignOp::Sub
                };
                match target {
                    RLValue::Slot(slot) => self.assign_slot(*slot, op, Operand::Imm(1)),
                    RLValue::Index { base, index } => {
                        let i1 = self.expr(index);
                        let old = self.load(*base, i1);
                        let new = self.compound(op, old, Operand::Imm(1));
                        let i2 = self.expr(index);
                        self.store(*base, i2, new);
                    }
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init);
                // The loop's flush doubles as the placeholder for a loop
                // superinstruction; the peephole pass replaces it after the
                // loop is emitted, so no jump target ever shifts.
                let fuse_at = self.ops.len();
                let n = self.take();
                self.ops.push(Op::Bump { n });
                let top = self.here();
                // The interpreter pays one step per iteration before
                // evaluating the condition (including the final failing
                // check).
                self.pending += 1;
                let start = self.ops.len();
                let c = self.expr(cond);
                match c {
                    // Constant-false condition: evaluated once, loop never
                    // entered; its counts stay pending.
                    Operand::Imm(0) => {}
                    // Constant-true condition: no exit edge; the back-edge
                    // jump's budget check bounds the loop.
                    Operand::Imm(_) => {
                        for s in body {
                            self.stmt(s);
                        }
                        self.stmt(step);
                        let j = self.emit_jump();
                        self.patch(j, top);
                    }
                    Operand::Reg(_) => {
                        let exit = self.branch(c, start, false);
                        for s in body {
                            self.stmt(s);
                        }
                        self.stmt(step);
                        let j = self.emit_jump();
                        self.patch(j, top);
                        self.patch(exit, self.here());
                        self.try_fuse(fuse_at, top);
                    }
                }
            }
            RStmt::If { cond, then, els } => {
                let start = self.ops.len();
                let c = self.expr(cond);
                match c {
                    Operand::Imm(0) => {
                        for s in els {
                            self.stmt(s);
                        }
                    }
                    Operand::Imm(_) => {
                        for s in then {
                            self.stmt(s);
                        }
                    }
                    Operand::Reg(_) => {
                        let br = self.branch(c, start, false);
                        for s in then {
                            self.stmt(s);
                        }
                        if els.is_empty() {
                            self.flush();
                            self.patch(br, self.here());
                        } else {
                            let j = self.emit_jump();
                            self.patch(br, self.here());
                            for s in els {
                                self.stmt(s);
                            }
                            self.flush();
                            self.patch(j, self.here());
                        }
                    }
                }
            }
            RStmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s);
                }
            }
        }
        self.next_reg = reg_base;
    }

    /// `old ∘ v` for a compound assignment or `++`/`--`.
    fn compound(&mut self, op: AssignOp, old: Operand, v: Operand) -> Operand {
        match op {
            AssignOp::Add => self.alu(AluOp::Add, old, v),
            AssignOp::Sub => self.alu(AluOp::Sub, old, v),
            AssignOp::Mul => self.alu(AluOp::Mul, old, v),
            AssignOp::Div => self.div_rem(false, old, v),
            AssignOp::Set => v,
        }
    }

    /// `slot ∘= v` (or `slot = v`): register ops for a local, slot ops for
    /// a global, whose kind is only known at run time.
    fn assign_slot(&mut self, slot: u32, op: AssignOp, v: Operand) {
        if let Some(reg) = self.reg_of[slot as usize] {
            let new = self.compound(op, Operand::Reg(reg), v);
            self.set_local(reg, new);
            return;
        }
        let charge = self.take();
        let fold = |op| Op::FoldSlot {
            op,
            slot,
            src: v,
            charge,
        };
        self.ops.push(match op {
            AssignOp::Set => Op::StoreSlot {
                slot,
                src: v,
                charge,
            },
            AssignOp::Add => fold(AluOp::Add),
            AssignOp::Sub => fold(AluOp::Sub),
            AssignOp::Mul => fold(AluOp::Mul),
            AssignOp::Div => Op::DivSlot {
                slot,
                src: v,
                charge,
            },
        });
    }

    /// Peephole pass over a just-emitted loop: when the window between the
    /// loop head and exit is one of the canonical template shapes, the
    /// placeholder `Bump` becomes an [`Op::FusedLoop`] with the same charge
    /// whose side-table entry carries the window's own charges. The
    /// unfused ops stay in place as the path for loops that cannot run in
    /// bulk.
    fn try_fuse(&mut self, fuse_at: usize, top: u32) {
        let exit = self.here();
        let Op::Bump { n: charge } = self.ops[fuse_at] else {
            unreachable!("a loop starts with its placeholder");
        };
        // Condition prologue shared by every shape: `var < bound` on a
        // local counter, one branch to the exit.
        let [Op::Branch {
            cmp: AluOp::Lt,
            lhs: Operand::Reg(var),
            rhs: Operand::Imm(bound),
            target,
            charge: c_cond,
        }, ref rest @ ..] = self.ops[top as usize..]
        else {
            return;
        };
        if target != exit || !self.is_local(var) {
            return;
        }
        let Some((body, c_access, c_back)) = fused_body(rest, var, top, self.locals)
            .or_else(|| gather_body(rest, top + 1, var, top, self.locals))
        else {
            return;
        };
        let index = self.fused.len() as u32;
        self.fused.push(FusedLoop {
            var,
            bound,
            body,
            c_cond,
            c_access,
            c_back,
            exit,
        });
        self.ops[fuse_at] = Op::FusedLoop { index, charge };
    }
}

/// Matches an index computation at the head of `ops`: `var`, or
/// `off + var` / `var + off` with `off` a local other than `var`,
/// optionally plus or minus an immediate. Returns the ops consumed, the
/// register holding the index and the offset. The matched ops are pure
/// register ops into temporaries (an op retargeted into a local is an
/// assignment, not an index), so their step counts settle at the next
/// charged op.
fn index_at(ops: &[Op], var: u32, locals: u32) -> (usize, u32, Option<Offset>) {
    let offset = |reg: u32, imm: u64| (reg < locals && reg != var).then_some(Offset { reg, imm });
    let add = |k: usize| match ops.get(k) {
        Some(&Op::Alu {
            op: AluOp::Add,
            dst,
            lhs: Operand::Reg(l),
            rhs: Operand::Reg(r),
        }) if dst >= locals => Some((dst, l, r)),
        _ => None,
    };
    // `off ± k` into a temporary, then added to `var` in either order.
    if let Some(&Op::Alu {
        op: op @ (AluOp::Add | AluOp::Sub),
        dst: t,
        lhs: Operand::Reg(o),
        rhs: Operand::Imm(k),
    }) = ops.first()
    {
        let t = (t >= locals).then_some(t);
        let imm = if op == AluOp::Sub {
            k.wrapping_neg()
        } else {
            k
        };
        if let (Some((dst, l, r)), Some(off)) = (add(1), offset(o, imm)) {
            if t.is_some_and(|t| (l, r) == (t, var) || (l, r) == (var, t)) {
                return (2, dst, Some(off));
            }
        }
    }
    // `off + var` or `var + off`.
    if let Some((dst, l, r)) = add(0) {
        let other = if l == var { r } else { l };
        if (l == var || r == var) && other != var {
            if let Some(off) = offset(other, 0) {
                return (1, dst, Some(off));
            }
        }
    }
    (0, var, None)
}

/// Matches a loop body plus its step tail (`var += 1; jump top`) against
/// the fused shapes. Returns the body, its access charge, and its back-edge
/// charge (everything the back edge settles: a reduce's fold, the step and
/// the jump).
fn fused_body(ops: &[Op], var: u32, top: u32, locals: u32) -> Option<(FusedBody, u32, u32)> {
    // An array the loop indexes, as a `Base`, unless it is the counter.
    let base_of = |op: &Op| -> Option<(Base, Operand, u32)> {
        let (base, index, charge) = match *op {
            Op::LoadIndex {
                base,
                index,
                charge,
                ..
            }
            | Op::StoreIndex {
                base,
                index,
                charge,
                ..
            } => (Base::Slot(base), index, charge),
            Op::LoadPtr {
                ptr, index, charge, ..
            }
            | Op::StorePtr {
                ptr, index, charge, ..
            } => (Base::Reg(ptr), index, charge),
            _ => return None,
        };
        (base != Base::Reg(var)).then_some((base, index, charge))
    };
    // An offset may not be a register the loop writes or indexes
    // (`index_at` already keeps it off the counter).
    let off_ok =
        |off: Option<Offset>, regs: &[Base]| off.is_none_or(|o| !regs.contains(&Base::Reg(o.reg)));
    let (n, r_idx, off) = index_at(ops, var, locals);
    let (first, rest) = ops[n..].split_first()?;
    let (base, index, charge) = base_of(first)?;
    if index != Operand::Reg(r_idx) {
        return None;
    }
    let (body, c_access, tail) = match (*first, rest) {
        // Fill: base[var] = imm.
        (
            Op::StoreIndex {
                src: Operand::Imm(value),
                ..
            }
            | Op::StorePtr {
                src: Operand::Imm(value),
                ..
            },
            tail,
        ) if off.is_none() => (FusedBody::StoreImm { base, value }, charge, tail),
        // Reduce: acc ∘= base[off + var].
        (
            Op::LoadIndex { dst: r_elem, .. } | Op::LoadPtr { dst: r_elem, .. },
            &[Op::Alu {
                op,
                dst: acc,
                lhs: Operand::Reg(a),
                rhs: Operand::Reg(s),
            }, ref tail @ ..],
        ) if a == acc
            && s == r_elem
            && r_elem >= locals
            && acc < locals
            && acc != var
            && base != Base::Reg(acc)
            && off_ok(off, &[Base::Reg(acc), base]) =>
        {
            (FusedBody::Accumulate { op, base, acc, off }, charge, tail)
        }
        // Copy: dst[off + var] = src[var] (the value is evaluated first).
        (Op::LoadIndex { dst: r_elem, .. } | Op::LoadPtr { dst: r_elem, .. }, after_read)
            if off.is_none() && r_elem >= locals =>
        {
            let (m, r_dst, Some(off)) = index_at(after_read, var, locals) else {
                return None;
            };
            let (store, tail) = after_read[m..].split_first()?;
            let (dst, index, c_write) = base_of(store)?;
            match *store {
                Op::StoreIndex {
                    src: Operand::Reg(e),
                    ..
                }
                | Op::StorePtr {
                    src: Operand::Reg(e),
                    ..
                } if index == Operand::Reg(r_dst)
                    && e == r_elem
                    && off_ok(Some(off), &[base, dst]) =>
                {
                    (
                        FusedBody::Copy {
                            dst,
                            off,
                            src: base,
                            c_write,
                        },
                        charge,
                        tail,
                    )
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    match *tail {
        [Op::Alu {
            op: AluOp::Add,
            dst,
            lhs: Operand::Reg(v),
            rhs: Operand::Imm(1),
        }, Op::Jump { target, charge }]
            if dst == var && v == var && target == top =>
        {
            Some((body, c_access, charge))
        }
        _ => None,
    }
}

/// A load op as `(dst, array, index, charge)`.
fn load_of(op: &Op) -> Option<(u32, Base, Operand, u32)> {
    match *op {
        Op::LoadIndex {
            dst,
            base,
            index,
            charge,
        } => Some((dst, Base::Slot(base), index, charge)),
        Op::LoadPtr {
            dst,
            ptr,
            index,
            charge,
        } => Some((dst, Base::Reg(ptr), index, charge)),
        _ => None,
    }
}

/// Matches a loop body plus its step tail against the gather shape (see
/// [`Gather`]); `at` is the program index of `ops[0]`. Returns the body,
/// the sum of its charges, and its back-edge charge.
///
/// The counter, `base` and the accumulator are distinct locals, and they
/// are the only locals the body writes; everything else it reads (the
/// lane, the offset's inputs, a pointer it indexes) is a local the body
/// does not write, an immediate, or a temporary an earlier invariant op
/// computed. So the offset is the same in every iteration, and so are the
/// addresses of the invariant reads, since nothing in the body writes.
fn gather_body(
    ops: &[Op],
    at: u32,
    var: u32,
    top: u32,
    locals: u32,
) -> Option<(FusedBody, u32, u32)> {
    let [ref body @ .., gather, Op::Alu {
        op,
        dst: acc,
        lhs: Operand::Reg(a),
        rhs: Operand::Reg(e),
    }, Op::Alu {
        op: AluOp::Add,
        dst: step,
        lhs: Operand::Reg(s),
        rhs: Operand::Imm(1),
    }, Op::Jump {
        target,
        charge: c_back,
    }] = *ops
    else {
        return None;
    };
    let (elem, array, gather_index, c_gather) = load_of(&gather)?;
    if (step, s, target) != (var, var, top) || a != acc || acc >= locals || acc == var {
        return None;
    }
    if elem != e || e < locals {
        return None;
    }
    // The table index `var * stride + lane`, either part optional.
    let (mut k, mut idx, mut stride, mut lane) = (0, var, 1, Operand::Imm(0));
    if let Some(
        &Op::Alu {
            op: AluOp::Mul,
            dst,
            lhs: Operand::Reg(v),
            rhs: Operand::Imm(c),
        }
        | &Op::Alu {
            op: AluOp::Mul,
            dst,
            lhs: Operand::Imm(c),
            rhs: Operand::Reg(v),
        },
    ) = body.first()
    {
        if v == var && dst >= locals {
            (k, idx, stride) = (1, dst, c);
        }
    }
    if let Some(&Op::Alu {
        op: AluOp::Add,
        dst,
        lhs,
        rhs,
    }) = body.get(k)
    {
        match (lhs, rhs) {
            (Operand::Reg(i), l) | (l, Operand::Reg(i)) if i == idx && dst >= locals => {
                (k, idx, lane) = (k + 1, dst, l);
            }
            _ => {}
        }
    }
    let (base, table, index, c_table) = load_of(body.get(k)?)?;
    if index != Operand::Reg(idx) || base >= locals || base == var || base == acc {
        return None;
    }
    k += 1;
    // The gather index `base + off` (or `off + base`, or bare `base`).
    let (end, off) = match (gather_index, body[k..].last()) {
        (Operand::Reg(r), _) if r == base => (body.len(), Operand::Imm(0)),
        (
            Operand::Reg(t),
            Some(&Op::Alu {
                op: AluOp::Add,
                dst,
                lhs,
                rhs,
            }),
        ) if dst == t && t >= locals => match (lhs, rhs) {
            (Operand::Reg(b), o) | (o, Operand::Reg(b)) if b == base => (body.len() - 1, o),
            _ => return None,
        },
        _ => return None,
    };
    // The invariant ops between the two reads.
    let variant = [var, base, acc];
    let invariant = |o: Operand, defined: &[u32]| match o {
        Operand::Imm(_) => true,
        Operand::Reg(r) if r < locals => !variant.contains(&r),
        Operand::Reg(t) => defined.contains(&t),
    };
    // A read through a local pointer also reads that register.
    let pointer = |b: Base| match b {
        Base::Slot(_) => Operand::Imm(0),
        Base::Reg(p) => Operand::Reg(p),
    };
    let mut defined = Vec::new();
    let mut charge = c_table.checked_add(c_gather)?;
    for op in &body[k..end] {
        let (dst, inputs, c) = match *op {
            Op::Alu { dst, lhs, rhs, .. } => (dst, [lhs, rhs], 0),
            Op::DivRem {
                dst,
                lhs,
                rhs: rhs @ Operand::Imm(1..),
                charge,
                ..
            } => (dst, [lhs, rhs], charge),
            _ => {
                let (dst, array, index, charge) = load_of(op)?;
                (dst, [pointer(array), index], charge)
            }
        };
        if dst < locals || !inputs.iter().all(|&o| invariant(o, &defined)) {
            return None;
        }
        defined.push(dst);
        charge = charge.checked_add(c)?;
    }
    if !invariant(off, &defined)
        || ![lane, pointer(table), pointer(array)]
            .iter()
            .all(|&o| invariant(o, &[]))
    {
        return None;
    }
    let gather = Gather {
        table,
        stride,
        lane,
        base,
        invariant: (at + k as u32, at + end as u32),
        off,
        array,
        op,
        acc,
    };
    Some((FusedBody::Gather(gather), charge, c_back))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compiled(global: &str, local: &str, body: &str) -> CompiledProgram {
        compile(&parse_program(global, local, body).expect("parses")).expect("compiles")
    }

    #[test]
    fn template_loop_shapes_fuse() {
        let p = compiled(
            "volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (i = 0; i < 4; i += 1) { v[i] = 51; } \
             for (i = 0; i < 4; i += 1) { acc += v[i]; }",
        );
        let fused = &p.fused;
        assert_eq!(fused.len(), 2, "both template shapes must fuse");
        assert!(matches!(
            fused[0].body,
            FusedBody::StoreImm { value: 51, .. }
        ));
        assert!(matches!(
            fused[1].body,
            FusedBody::Accumulate {
                op: AluOp::Add,
                off: None,
                ..
            }
        ));
        assert_eq!(fused[0].bound, 4);
        // Each `Op::FusedLoop` indexes its own side-table entry.
        let indices: Vec<u32> = p
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::FusedLoop { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, [0, 1]);
    }

    #[test]
    fn offset_copy_and_offset_reduce_fuse() {
        // Both operand orders, and an offset slot plus or minus an
        // immediate, match the offset shapes.
        let p = compiled(
            "volatile unsigned long long src[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long s = 2; unsigned long long acc = 0;",
            "unsigned long long buf = malloc(128); \
             for (i = 0; i < 4; i += 1) { buf[s + i] = src[i]; } \
             for (i = 0; i < 4; i += 1) { buf[i + (s - 1)] = src[i]; } \
             for (i = 0; i < 4; i += 1) { acc += buf[i]; } \
             for (i = 0; i < 4; i += 1) { acc += buf[s + i]; } \
             for (i = 0; i < 4; i += 1) { acc *= buf[i + (s + 3)]; } \
             for (i = 0; i < 4; i += 1) { acc -= buf[s - 2 + i]; }",
        );
        assert_eq!(
            p.fused_shapes(),
            [
                FusedShape::Copy,
                FusedShape::Copy,
                FusedShape::Reduce,
                FusedShape::OffsetReduce,
                FusedShape::OffsetReduce,
                FusedShape::OffsetReduce,
            ]
        );
        let offsets: Vec<Option<Offset>> = p.fused.iter().map(|f| f.body.offset()).collect();
        let slot = p.names.iter().position(|n| n == "s").unwrap() as u32;
        let s = p.local_slots.iter().position(|&l| l == slot).unwrap() as u32;
        assert_eq!(offsets[0], Some(Offset { reg: s, imm: 0 }));
        assert_eq!(
            offsets[1],
            Some(Offset {
                reg: s,
                imm: 1u64.wrapping_neg()
            })
        );
        assert_eq!(offsets[2], None);
        assert_eq!(offsets[4], Some(Offset { reg: s, imm: 3 }));
        assert_eq!(
            offsets[5],
            Some(Offset {
                reg: s,
                imm: 2u64.wrapping_neg()
            })
        );
        let FusedBody::Copy { c_write, .. } = p.fused[0].body else {
            unreachable!()
        };
        assert!(c_write > 0 && p.fused[0].c_access > 0);
    }

    #[test]
    fn gather_loops_fuse() {
        // The access templates' two gathers, and the index forms around
        // them: lane before the scaled counter, an immediate or no lane, no
        // multiplier, a bare `base`, an invariant local or immediate
        // offset, a global array gathered from.
        let p = compiled(
            "volatile unsigned long long c[] = { 1, 2, 3, 4 }; \
             volatile unsigned long long t[] = { 0, 1, 2, 3, 4, 5, 6, 7 };",
            "unsigned long long x = 1; unsigned long long r = 1; unsigned long long v = 0; \
             unsigned long long base = 0; unsigned long long acc = 0;",
            "unsigned long long buf = malloc(256); \
             for (v = 0; v < 2; v += 1) { base = t[v * 4 + r]; acc += buf[base + (c[r] * x + c[2 + r]) % 8]; } \
             for (v = 0; v < 2; v += 1) { base = t[v * 4 + r]; acc += buf[base + (x * 9) % 8]; } \
             for (v = 0; v < 2; v += 1) { base = t[r + 4 * v]; acc *= buf[(x * 9) % 8 + base]; } \
             for (v = 0; v < 2; v += 1) { base = t[v * 2 + 1]; acc -= buf[base]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + x]; } \
             for (v = 0; v < 2; v += 1) { base = t[v + r]; acc += c[base + 1]; }",
        );
        assert_eq!(p.fused_shapes(), [FusedShape::Gather; 6]);
        let gathers: Vec<Gather> = p
            .fused
            .iter()
            .map(|f| match f.body {
                FusedBody::Gather(g) => g,
                other => unreachable!("{other:?}"),
            })
            .collect();
        let reg = |name: &str| {
            let slot = p.names.iter().position(|n| n == name).unwrap() as u32;
            p.local_slots.iter().position(|&l| l == slot).unwrap() as u32
        };
        let (x, r) = (reg("x"), reg("r"));
        assert_eq!((gathers[0].stride, gathers[0].lane), (4, Operand::Reg(r)));
        // Two reads, a multiply, two adds and the remainder.
        let (start, end) = gathers[0].invariant;
        assert_eq!(end - start, 6);
        assert_eq!(p.fused[0].c_access, 7 + 9 + 5 + 1);
        assert_eq!(gathers[1].invariant.1 - gathers[1].invariant.0, 2);
        assert_eq!(gathers[2].op, AluOp::Mul);
        assert_eq!((gathers[3].stride, gathers[3].lane), (2, Operand::Imm(1)));
        assert_eq!(gathers[3].off, Operand::Imm(0));
        assert_eq!((gathers[4].stride, gathers[4].off), (1, Operand::Reg(x)));
        assert_eq!(gathers[4].invariant.0, gathers[4].invariant.1);
        assert_eq!(gathers[5].off, Operand::Imm(1));
        assert!(matches!(gathers[5].array, Base::Slot(_)));
    }

    #[test]
    fn gather_near_misses_do_not_fuse() {
        // A store, an offset that depends on the counter, `base` or the
        // accumulator, a zero or non-immediate divisor, `base` or the
        // counter written in the body, a global `base` or accumulator,
        // the counter as `base`, and `base` as the accumulator: keep the ops.
        let p = compiled(
            "volatile unsigned long long t[] = { 0, 1, 2, 3 }; volatile unsigned long long g = 0;",
            "unsigned long long x = 1; unsigned long long v = 0; \
             unsigned long long base = 0; unsigned long long acc = 0;",
            "unsigned long long buf = malloc(256); \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + x]; t[0] = acc; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + (v * 9) % 8]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + base % 8]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + acc % 8]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + (x * 9) % 0]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + (x * 9) % x]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; base += 1; acc += buf[base]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; v += 0; acc += buf[base]; } \
             for (v = 0; v < 2; v += 1) { g = t[v]; acc += buf[g]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; g += buf[base]; } \
             for (v = 0; v < 2; v += 1) { v = t[v]; acc += buf[v]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; base += buf[base]; } \
             for (v = 0; v < 2; v += 1) { base = t[v]; acc += buf[base + t[v]]; }",
        );
        assert!(p.fused.is_empty(), "{:?}", p.fused_shapes());
    }

    #[test]
    fn aliasing_offsets_do_not_fuse() {
        // An offset that is the counter, the accumulator or an indexed
        // array changes inside the loop or aliases it: keep the ops.
        let p = compiled(
            "volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long acc = 0;",
            "unsigned long long p = malloc(64); \
             for (i = 0; i < 4; i += 1) { p[i + i] = v[i]; } \
             for (i = 0; i < 4; i += 1) { acc += p[acc + i]; } \
             for (i = 0; i < 4; i += 1) { acc += p[p + i]; } \
             for (i = 0; i < 4; i += 1) { p[p + i] = v[i]; } \
             for (i = 0; i < 4; i += 1) { p[v + i] = v[i]; } \
             for (i = 0; i < 4; i += 1) { p[i] = v[i + 1]; } \
             for (i = 0; i < 4; i += 1) { v[acc + i] = 7; }",
        );
        assert!(p.fused.is_empty(), "{:?}", p.fused_shapes());
    }

    #[test]
    fn global_counters_offsets_and_accumulators_do_not_fuse() {
        // A global's kind is only known at run time, so a loop whose
        // counter, offset or accumulator is one keeps its ordinary ops; a
        // global array base still fuses.
        let p = compiled(
            "volatile unsigned long long g = 0; volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (g = 0; g < 4; g += 1) { v[g] = 5; } \
             for (i = 0; i < 3; i += 1) { v[g + i] = v[i]; } \
             for (i = 0; i < 4; i += 1) { g += v[i]; } \
             for (i = 0; i < 4; i += 1) { acc += v[i]; }",
        );
        assert_eq!(p.fused_shapes(), [FusedShape::Reduce]);
    }

    #[test]
    fn loop_bodies_that_assign_locals_do_not_fuse() {
        // A value loaded into a local, or an index computed into one, is
        // an assignment the bulk path would skip: keep the ops.
        let p = compiled(
            "volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long x = 0; unsigned long long s = 0; \
             unsigned long long acc = 0;",
            "for (i = 0; i < 4; i += 1) { x = v[i]; acc += x; } \
             for (i = 0; i < 4; i += 1) { s = s + 1; acc += v[s + 1 + i]; } \
             for (i = 0; i < 4; i += 1) { s = i + s; acc += v[s]; }",
        );
        assert!(p.fused.is_empty(), "{:?}", p.fused_shapes());
    }

    #[test]
    fn register_locals_leave_only_global_slot_ops() {
        // Locals read as operands and assign through register ops; the
        // slot ops, and the pointer ops' unchecked indexing, stay only
        // where a global or a local pointer needs them.
        let p = compiled(
            "volatile unsigned long long g = 1;",
            "unsigned long long a = 3; unsigned long long b = 0;",
            "unsigned long long p = malloc(64); b = a * 2; a += b; a /= 4; b++; \
             p[a] = b; g = a; g /= 3;",
        );
        let kinds: Vec<&str> = p
            .ops
            .iter()
            .map(|op| match op {
                Op::Const { .. } => "const",
                Op::Alu { .. } => "alu",
                Op::DivRem { .. } => "divrem",
                Op::Malloc { .. } => "malloc",
                Op::StorePtr { .. } => "storep",
                Op::StoreSlot { .. } => "store",
                Op::DivSlot { .. } => "divslot",
                Op::Halt { .. } => "halt",
                other => unreachable!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "const", "const", "malloc", "alu", "alu", "divrem", "alu", "storep", "store",
                "divslot", "halt"
            ]
        );
    }

    #[test]
    fn non_canonical_loops_do_not_fuse() {
        // Computed source value, complex index, and non-unit step must all
        // keep the ordinary op sequence (placeholder stays a `Bump`).
        let p = compiled(
            "volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0;",
            "for (i = 0; i < 4; i += 1) { v[i] = i * 2; } \
             for (i = 0; i < 2; i += 1) { v[i + 1] = 9; } \
             for (i = 0; i < 4; i += 2) { v[i] = 1; }",
        );
        assert!(p.fused.is_empty(), "no non-canonical loop may fuse");
        assert!(!p.ops.iter().any(|op| matches!(op, Op::FusedLoop { .. })));
        assert!(p.ops.iter().any(|op| matches!(op, Op::Bump { .. })));
    }
}
