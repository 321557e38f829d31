//! Lowering resolved virus programs to flat register bytecode.
//!
//! The tree-walking [`crate::interp`] pays a step-budget check, a `Box`
//! pointer chase, and a `Result` unwind frame *per AST node*. A GA campaign
//! re-executes the same chromosome-instantiated program for every averaging
//! run, so that overhead multiplies into campaign wall-clock. This module
//! compiles the resolved tree once into a linear `Vec<Op>` the
//! [`crate::vm`] executes in a tight loop.
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
//! * every op that can touch the bus or fail (`LoadIndex`, `StoreIndex`,
//!   `DivRem`, `Malloc`, …) *takes* the accumulated `pending` as its
//!   `charge`: at run time the VM adds the charge to `steps` and checks the
//!   budget **before** the side effect or error;
//! * control-flow edges (`Jump*`) also carry the outstanding charge, and a
//!   `Bump` op flushes it on fall-through edges, so `pending` is zero at
//!   every join point and charges are never double- or under-counted on any
//!   path;
//! * `Halt` carries the final residue.
//!
//! Pure register ops (`Const`, `Alu`, `DeclSlot`) carry no charge and are
//! never budget-checked: the VM may execute a handful of them past the
//! point where the interpreter would have stopped, but they have no
//! observable effect, and the next charged op (every loop has a back-edge
//! jump) raises the identical `ExecutionLimit`. The net effect is the
//! issue's "one budget check per basic block" with provably identical
//! observable behaviour — pinned by the `dstress-tests` differential suite.
//!
//! # Fusion
//!
//! Constants fold into `Operand::Imm` at compile time, so the paper's
//! inner-loop shapes cost one op each: `v[i] = 0x3333…` becomes a single
//! `StoreIndex` with an immediate source, and `acc += v[i]` becomes
//! `LoadIndex` + `FoldSlot` (read-modify-write of a variable slot in one
//! dispatch) instead of five tree nodes.
//!
//! On top of that, a peephole pass recognizes four counted-loop shapes
//! that dominate the virus templates and plants an `Op::FusedLoop`
//! superinstruction in front of the ordinary loop code:
//!
//! * the background fill `for (i = 0; i < N; i += 1) { buf[i] = C; }`;
//! * the read-pressure reduction `acc ∘= buf[i]`;
//! * the offset reduction `acc ∘= buf[off + i]` (or `buf[i + off]`);
//! * the span copy `dst[off + i] = src[i]`.
//!
//! An offset is a loop-invariant variable slot plus or minus an immediate,
//! added with the unfused code's wrapping arithmetic; it may not be the
//! counter, the accumulator or an array the loop indexes. A fused loop
//! runs in one of two ways. When control reaches it, the VM checks its
//! slot-kind guards (the counter re-declared over a DRAM scalar, or an
//! offset held in one, fail them), that the whole loop fits the step
//! budget, and that its spans are in range without wrapping; if all hold,
//! it runs the loop in bulk, as one bus span call, and adds the loop's
//! total charge — the per-iteration charges read back from the emitted ops
//! (condition jump, bus access — a copy's read and its write separately —
//! and back edge) times the iterations, plus the final failing condition.
//! Otherwise it falls through to the unfused ops that still follow it,
//! which run the loop exactly, a mid-loop budget trip or fault included.
//!
//! A fused loop's description lives in the [`CompiledProgram`]'s side
//! table (`fused`); `Op::FusedLoop` carries only its index. Every op the
//! dispatch loop copies out of the stream therefore stays 48 bytes — a
//! compile-time assertion — however rich a fused body grows, so programs
//! that run mostly unfused ops pay nothing for new shapes.

use crate::ast::{AssignOp, BinOp, Program, UnOp};
use crate::error::VplError;
use crate::resolve::{resolve, RExpr, RLValue, RStmt};

/// An op input: an immediate folded at compile time, or a virtual register
/// holding an intermediate value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Operand {
    Imm(u64),
    Reg(u16),
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
/// accumulated since the previous charged op (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `regs[dst] = value`. Pure.
    Const { dst: u16, value: u64 },
    /// `regs[dst] = alu(op, lhs, rhs)`. Pure.
    Alu {
        op: AluOp,
        dst: u16,
        lhs: Operand,
        rhs: Operand,
    },
    /// `regs[dst] = lhs / rhs` (or `%`). Fails on a zero divisor.
    DivRem {
        rem: bool,
        dst: u16,
        lhs: Operand,
        rhs: Operand,
        charge: u32,
    },
    /// Reads variable slot `slot`: register copy, DRAM scalar load, or
    /// array-to-base-address decay, resolved dynamically like the
    /// interpreter's bare-variable evaluation.
    LoadSlot { dst: u16, slot: u32, charge: u32 },
    /// Writes variable slot `slot` (register set or DRAM scalar store).
    StoreSlot {
        slot: u32,
        src: Operand,
        charge: u32,
    },
    /// Fused compound assignment `slot ∘= src` for infallible `∘`
    /// (read-modify-write in one dispatch).
    FoldSlot {
        op: AluOp,
        slot: u32,
        src: Operand,
        charge: u32,
    },
    /// `regs[dst] = base[index]` — bounds-checked DRAM load.
    LoadIndex {
        dst: u16,
        base: u32,
        index: Operand,
        charge: u32,
    },
    /// `base[index] = src` — bounds-checked DRAM store.
    StoreIndex {
        base: u32,
        index: Operand,
        src: Operand,
        charge: u32,
    },
    /// `regs[dst] = malloc(bytes)`.
    Malloc {
        dst: u16,
        bytes: Operand,
        charge: u32,
    },
    /// Declares (or re-declares, shadowing a global) slot as a register
    /// initialized to `init`. Pure.
    DeclSlot { slot: u32, init: Operand },
    /// Flushes `n` pending steps on a fall-through edge into a join point.
    Bump { n: u32 },
    /// Unconditional jump.
    Jump { target: u32, charge: u32 },
    /// Jump when `cond == 0`.
    JumpIfZero {
        cond: Operand,
        target: u32,
        charge: u32,
    },
    /// Jump when `cond != 0`.
    JumpIfNonZero {
        cond: Operand,
        target: u32,
        charge: u32,
    },
    /// Placeholder in front of a loop the peephole pass did not fuse.
    Nop,
    /// A whole counted loop in one dispatch (see module docs, "Fusion"):
    /// the index of its [`FusedLoop`] in [`CompiledProgram::fused`]. Falls
    /// through to the equivalent unfused ops when it cannot run in bulk.
    FusedLoop(u32),
    /// End of program: flush the residual charge and return the stats.
    Halt { charge: u32 },
}

// Every op the dispatch loop copies out of the stream is this size; fused
// loops live in a side table so a richer loop body cannot grow it.
const _: () = assert!(std::mem::size_of::<Op>() == 48);

/// A fused `for (var = …; var < bound; var += 1)` loop over one bus access
/// (one read and one write for a copy) per iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedLoop {
    /// Counter slot; must hold a register at loop entry (guarded).
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

/// A loop-invariant index offset `slot + imm` (wrapping; `slot - k` is
/// stored as `imm = k.wrapping_neg()`). `slot` must hold a register at
/// loop entry (guarded) and is never the counter, the accumulator or an
/// array the loop indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Offset {
    /// The offset's variable slot.
    pub slot: u32,
    /// The immediate added to it.
    pub imm: u64,
}

/// The per-iteration body of a [`FusedLoop`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum FusedBody {
    /// `base[var] = value` — the background-fill shape.
    StoreImm {
        /// Array/pointer slot being written.
        base: u32,
        /// The immediate pattern.
        value: u64,
    },
    /// `acc ∘= base[off + var]` — the read-pressure reduction shape, with
    /// or without an offset. `acc` must hold a register at loop entry
    /// (guarded).
    Accumulate {
        /// The fold operator.
        op: AluOp,
        /// Array/pointer slot being read.
        base: u32,
        /// Accumulator slot.
        acc: u32,
        /// Index offset (`None`: `base[var]`).
        off: Option<Offset>,
    },
    /// `dst[off + var] = src[var]` — the span-copy shape: a read charged
    /// at [`FusedLoop::c_access`], then a write charged at `c_write`.
    Copy {
        /// Array/pointer slot being written.
        dst: u32,
        /// Destination index offset.
        off: Offset,
        /// Array/pointer slot being read.
        src: u32,
        /// Steps charged at the write check.
        c_write: u32,
    },
}

impl FusedBody {
    /// The loop-invariant index offset, if the body has one.
    pub(crate) fn offset(&self) -> Option<Offset> {
        match *self {
            FusedBody::StoreImm { .. } => None,
            FusedBody::Accumulate { off, .. } => off,
            FusedBody::Copy { off, .. } => Some(off),
        }
    }

    fn shape(&self) -> FusedShape {
        match self {
            FusedBody::StoreImm { .. } => FusedShape::Fill,
            FusedBody::Accumulate { off: None, .. } => FusedShape::Reduce,
            FusedBody::Accumulate { off: Some(_), .. } => FusedShape::OffsetReduce,
            FusedBody::Copy { .. } => FusedShape::Copy,
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
    pub(crate) num_slots: u32,
    pub(crate) num_regs: u16,
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
    let mut e = Emitter::default();
    for s in &resolved.locals {
        e.stmt(s);
    }
    for s in &resolved.body {
        e.stmt(s);
    }
    let charge = e.take();
    e.ops.push(Op::Halt { charge });
    Ok(CompiledProgram {
        num_slots: resolved.names.len() as u32,
        names: resolved.names,
        globals: resolved.globals,
        ops: e.ops,
        fused: e.fused,
        num_regs: e.max_regs,
    })
}

/// Bytecode emitter: tracks the pending step debt and the virtual register
/// high-water mark while walking the resolved tree.
#[derive(Default)]
struct Emitter {
    ops: Vec<Op>,
    fused: Vec<FusedLoop>,
    pending: u32,
    next_reg: u16,
    max_regs: u16,
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

    fn alloc_reg(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_regs = self.max_regs.max(self.next_reg);
        r
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
            Op::Jump { target: t, .. }
            | Op::JumpIfZero { target: t, .. }
            | Op::JumpIfNonZero { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
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

    fn expr(&mut self, e: &RExpr) -> Operand {
        self.pending += 1;
        match e {
            RExpr::Num(n) => Operand::Imm(*n),
            RExpr::Slot(slot) => {
                let dst = self.alloc_reg();
                let charge = self.take();
                self.ops.push(Op::LoadSlot {
                    dst,
                    slot: *slot,
                    charge,
                });
                Operand::Reg(dst)
            }
            RExpr::Index { base, index } => {
                let index = self.expr(index);
                let dst = self.alloc_reg();
                let charge = self.take();
                self.ops.push(Op::LoadIndex {
                    dst,
                    base: *base,
                    index,
                    charge,
                });
                Operand::Reg(dst)
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
                    let dst = self.alloc_reg();
                    let charge = self.take();
                    self.ops.push(Op::DivRem {
                        rem: matches!(op, BinOp::Rem),
                        dst,
                        lhs: l,
                        rhs: r,
                        charge,
                    });
                    Operand::Reg(dst)
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
        let charge = self.take();
        let br = self.ops.len();
        self.ops.push(if is_and {
            Op::JumpIfZero {
                cond: l,
                target: u32::MAX,
                charge,
            }
        } else {
            Op::JumpIfNonZero {
                cond: l,
                target: u32::MAX,
                charge,
            }
        });
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
        // Registers only carry values within one statement (variables live
        // in slots), so the temp file resets at every statement boundary.
        let reg_base = self.next_reg;
        self.pending += 1;
        match s {
            RStmt::DeclInit { slot, init } => {
                let v = match init {
                    Some(e) => self.expr(e),
                    None => Operand::Imm(0),
                };
                self.ops.push(Op::DeclSlot {
                    slot: *slot,
                    init: v,
                });
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
                match (target, op) {
                    (RLValue::Slot(slot), AssignOp::Set) => {
                        let charge = self.take();
                        self.ops.push(Op::StoreSlot {
                            slot: *slot,
                            src: v,
                            charge,
                        });
                    }
                    (RLValue::Slot(slot), AssignOp::Add | AssignOp::Sub | AssignOp::Mul) => {
                        let charge = self.take();
                        self.ops.push(Op::FoldSlot {
                            op: match op {
                                AssignOp::Add => AluOp::Add,
                                AssignOp::Sub => AluOp::Sub,
                                _ => AluOp::Mul,
                            },
                            slot: *slot,
                            src: v,
                            charge,
                        });
                    }
                    (RLValue::Slot(slot), AssignOp::Div) => {
                        let old = self.alloc_reg();
                        let charge = self.take();
                        self.ops.push(Op::LoadSlot {
                            dst: old,
                            slot: *slot,
                            charge,
                        });
                        let dst = self.alloc_reg();
                        self.ops.push(Op::DivRem {
                            rem: false,
                            dst,
                            lhs: Operand::Reg(old),
                            rhs: v,
                            charge: 0,
                        });
                        self.ops.push(Op::StoreSlot {
                            slot: *slot,
                            src: Operand::Reg(dst),
                            charge: 0,
                        });
                    }
                    (RLValue::Index { base, index }, AssignOp::Set) => {
                        let i = self.expr(index);
                        let charge = self.take();
                        self.ops.push(Op::StoreIndex {
                            base: *base,
                            index: i,
                            src: v,
                            charge,
                        });
                    }
                    (RLValue::Index { base, index }, compound) => {
                        let i1 = self.expr(index);
                        let old = self.alloc_reg();
                        let charge = self.take();
                        self.ops.push(Op::LoadIndex {
                            dst: old,
                            base: *base,
                            index: i1,
                            charge,
                        });
                        let new = match compound {
                            AssignOp::Add => self.alu(AluOp::Add, Operand::Reg(old), v),
                            AssignOp::Sub => self.alu(AluOp::Sub, Operand::Reg(old), v),
                            AssignOp::Mul => self.alu(AluOp::Mul, Operand::Reg(old), v),
                            _ => {
                                let dst = self.alloc_reg();
                                self.ops.push(Op::DivRem {
                                    rem: false,
                                    dst,
                                    lhs: Operand::Reg(old),
                                    rhs: v,
                                    charge: 0,
                                });
                                Operand::Reg(dst)
                            }
                        };
                        let i2 = self.expr(index);
                        let charge = self.take();
                        self.ops.push(Op::StoreIndex {
                            base: *base,
                            index: i2,
                            src: new,
                            charge,
                        });
                    }
                }
            }
            RStmt::IncDec { target, increment } => {
                let op = if *increment { AluOp::Add } else { AluOp::Sub };
                match target {
                    RLValue::Slot(slot) => {
                        let charge = self.take();
                        self.ops.push(Op::FoldSlot {
                            op,
                            slot: *slot,
                            src: Operand::Imm(1),
                            charge,
                        });
                    }
                    RLValue::Index { base, index } => {
                        let i1 = self.expr(index);
                        let old = self.alloc_reg();
                        let charge = self.take();
                        self.ops.push(Op::LoadIndex {
                            dst: old,
                            base: *base,
                            index: i1,
                            charge,
                        });
                        let new = self.alu(op, Operand::Reg(old), Operand::Imm(1));
                        let i2 = self.expr(index);
                        let charge = self.take();
                        self.ops.push(Op::StoreIndex {
                            base: *base,
                            index: i2,
                            src: new,
                            charge,
                        });
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
                self.flush();
                // Reserve a slot for a possible loop superinstruction; the
                // peephole pass replaces it after the loop is emitted, so
                // no jump target ever shifts.
                let fuse_at = self.ops.len();
                self.ops.push(Op::Nop);
                let top = self.here();
                // The interpreter pays one step per iteration before
                // evaluating the condition (including the final failing
                // check).
                self.pending += 1;
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
                        let charge = self.take();
                        let exit = self.ops.len();
                        self.ops.push(Op::JumpIfZero {
                            cond: c,
                            target: u32::MAX,
                            charge,
                        });
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
                        let charge = self.take();
                        let br = self.ops.len();
                        self.ops.push(Op::JumpIfZero {
                            cond: c,
                            target: u32::MAX,
                            charge,
                        });
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

    /// Peephole pass over a just-emitted loop: when the window between the
    /// loop head and exit is one of the canonical template shapes, the
    /// reserved `Nop` becomes an [`Op::FusedLoop`] whose side-table entry
    /// carries the window's own charges. The unfused ops stay in place as
    /// the guard-failure path.
    fn try_fuse(&mut self, fuse_at: usize, top: u32) {
        let exit = self.here();
        // Condition prologue shared by every shape:
        //   LoadSlot var → Alu Lt (reg, imm bound) → JumpIfZero exit
        let window = &self.ops[top as usize..];
        let Some((
            &[Op::LoadSlot {
                dst: r_var,
                slot: var,
                charge: c0,
            }, Op::Alu {
                op: AluOp::Lt,
                dst: r_cond,
                lhs: Operand::Reg(l),
                rhs: Operand::Imm(bound),
            }, Op::JumpIfZero {
                cond: Operand::Reg(c),
                target: t_exit,
                charge: c1,
            }],
            rest,
        )) = window.split_first_chunk::<3>()
        else {
            return;
        };
        if l != r_var || c != r_cond || t_exit != exit {
            return;
        }
        let Some((body, c_access, c_back)) = fused_body(rest, var, top) else {
            return;
        };
        let index = self.fused.len() as u32;
        self.fused.push(FusedLoop {
            var,
            bound,
            body,
            c_cond: c0 + c1,
            c_access,
            c_back,
            exit,
        });
        self.ops[fuse_at] = Op::FusedLoop(index);
    }
}

/// Matches an index computation at the head of `ops`: `var`, or
/// `off + var` / `var + off` with `off` a slot, optionally plus or minus an
/// immediate. Returns the ops consumed, the register holding the index,
/// the offset, and the summed charges of the slot loads. All the matched
/// ops are pure register ops once the slots hold registers (guarded), so
/// their charges settle at the next checked op.
fn index_at(ops: &[Op], var: u32) -> Option<(usize, u16, Option<Offset>, u32)> {
    // One term: a slot load, optionally followed by `± imm` on it.
    let term = |k: usize| -> Option<(usize, u16, u32, u64, u32)> {
        let Some(&Op::LoadSlot { dst, slot, charge }) = ops.get(k) else {
            return None;
        };
        match ops.get(k + 1) {
            Some(&Op::Alu {
                op: op @ (AluOp::Add | AluOp::Sub),
                dst: d,
                lhs: Operand::Reg(r),
                rhs: Operand::Imm(imm),
            }) if r == dst => {
                let imm = if op == AluOp::Sub {
                    imm.wrapping_neg()
                } else {
                    imm
                };
                Some((k + 2, d, slot, imm, charge))
            }
            _ => Some((k + 1, dst, slot, 0, charge)),
        }
    };
    let (k1, r1, s1, imm1, c1) = term(0)?;
    if let Some((k2, r2, s2, imm2, c2)) = term(k1) {
        if let Some(&Op::Alu {
            op: AluOp::Add,
            dst,
            lhs: Operand::Reg(l),
            rhs: Operand::Reg(r),
        }) = ops.get(k2)
        {
            match ((s1, imm1), (s2, imm2)) {
                ((s, 0), (slot, imm)) | ((slot, imm), (s, 0))
                    if s == var && slot != var && l == r1 && r == r2 =>
                {
                    return Some((k2 + 1, dst, Some(Offset { slot, imm }), c1 + c2));
                }
                _ => {}
            }
        }
    }
    (s1 == var && imm1 == 0).then_some((k1, r1, None, c1))
}

/// Matches a loop body plus its step tail (`var += 1; jump top`) against
/// the fused shapes. Returns the body, its access charge, and its back-edge
/// charge (a reduce's fold, the step and the jump).
fn fused_body(ops: &[Op], var: u32, top: u32) -> Option<(FusedBody, u32, u32)> {
    // An offset may not be a slot the loop writes or indexes (`index_at`
    // already keeps it off the counter).
    let off_ok = |off: Option<Offset>, slots: &[u32]| off.is_none_or(|o| !slots.contains(&o.slot));
    let (n, r_idx, off, c_idx) = index_at(ops, var)?;
    let (body, c_access, c_fold, tail) = match ops[n..] {
        // Fill: base[var] = imm.
        [Op::StoreIndex {
            base,
            index: Operand::Reg(i),
            src: Operand::Imm(value),
            charge,
        }, ref tail @ ..]
            if i == r_idx && off.is_none() && base != var =>
        {
            (FusedBody::StoreImm { base, value }, c_idx + charge, 0, tail)
        }
        // Reduce: acc ∘= base[off + var].
        [Op::LoadIndex {
            dst: r_elem,
            base,
            index: Operand::Reg(i),
            charge,
        }, Op::FoldSlot {
            op,
            slot: acc,
            src: Operand::Reg(s),
            charge: c_fold,
        }, ref tail @ ..]
            if i == r_idx
                && s == r_elem
                && base != var
                && acc != var
                && acc != base
                && off_ok(off, &[acc, base]) =>
        {
            (
                FusedBody::Accumulate { op, base, acc, off },
                c_idx + charge,
                c_fold,
                tail,
            )
        }
        // Copy: dst[off + var] = src[var] (the value is evaluated first).
        [Op::LoadIndex {
            dst: r_elem,
            base: src,
            index: Operand::Reg(i),
            charge,
        }, ref after_read @ ..]
            if i == r_idx && off.is_none() && src != var =>
        {
            let (m, r_dst, Some(off), c_dst) = index_at(after_read, var)? else {
                return None;
            };
            match after_read[m..] {
                [Op::StoreIndex {
                    base: dst,
                    index: Operand::Reg(j),
                    src: Operand::Reg(e),
                    charge: c_store,
                }, ref tail @ ..]
                    if j == r_dst
                        && e == r_elem
                        && dst != var
                        && off_ok(Some(off), &[src, dst]) =>
                {
                    let c_write = c_dst + c_store;
                    (
                        FusedBody::Copy {
                            dst,
                            off,
                            src,
                            c_write,
                        },
                        c_idx + charge,
                        0,
                        tail,
                    )
                }
                _ => return None,
            }
        }
        _ => return None,
    };
    match *tail {
        [Op::FoldSlot {
            op: AluOp::Add,
            slot,
            src: Operand::Imm(1),
            charge: c_step,
        }, Op::Jump {
            target,
            charge: c_jump,
        }] if slot == var && target == top => Some((body, c_access, c_fold + c_step + c_jump)),
        _ => None,
    }
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
                Op::FusedLoop(k) => Some(*k),
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
        let s = p.names.iter().position(|n| n == "s").unwrap() as u32;
        assert_eq!(offsets[0], Some(Offset { slot: s, imm: 0 }));
        assert_eq!(
            offsets[1],
            Some(Offset {
                slot: s,
                imm: 1u64.wrapping_neg()
            })
        );
        assert_eq!(offsets[2], None);
        assert_eq!(offsets[4], Some(Offset { slot: s, imm: 3 }));
        assert_eq!(
            offsets[5],
            Some(Offset {
                slot: s,
                imm: 2u64.wrapping_neg()
            })
        );
        let FusedBody::Copy { c_write, .. } = p.fused[0].body else {
            unreachable!()
        };
        assert!(c_write > 0 && p.fused[0].c_access > 0);
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
    fn non_canonical_loops_do_not_fuse() {
        // Computed source value, complex index, and non-unit step must all
        // keep the ordinary op sequence (placeholder stays a Nop).
        let p = compiled(
            "volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0;",
            "for (i = 0; i < 4; i += 1) { v[i] = i * 2; } \
             for (i = 0; i < 2; i += 1) { v[i + 1] = 9; } \
             for (i = 0; i < 4; i += 2) { v[i] = 1; }",
        );
        assert!(p.fused.is_empty(), "no non-canonical loop may fuse");
        assert!(!p.ops.iter().any(|op| matches!(op, Op::FusedLoop(_))));
        assert!(p.ops.iter().any(|op| matches!(op, Op::Nop)));
    }
}
