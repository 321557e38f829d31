//! The optimizing pass pipeline over flat bytecode.
//!
//! [`crate::bytecode::compile`] produces straightforward bytecode: one op
//! per resolved tree node plus the fused-loop peephole. A GA campaign
//! re-executes the same chromosome-shaped programs thousands of times, so
//! classic loop optimizations pay for themselves many times over. This
//! module adds four of them — loop-invariant code motion (`licm`),
//! strength reduction of induction-variable arithmetic (`strength`),
//! dead-store elimination (`dse`), and unrolling of short constant trip
//! counts (`unroll`) — each individually toggleable through
//! [`PassConfig`] and each differential-tested against the tree-walking
//! interpreter oracle.
//!
//! # The charge discipline under transformation
//!
//! Every pass must preserve the full observable contract of a run: the
//! `Result` (same [`crate::ExecStats`] totals or the same error value at
//! the same crossing point), the bus memory image, and the recorded trace.
//! The bytecode's charge discipline (see [`crate::bytecode`]) makes this
//! tractable because the step accounting is *static*: charges ride on ops,
//! so a transformation is sound as long as every execution path pays the
//! same charges in the same order relative to side effects. Two facts do
//! the heavy lifting:
//!
//! * **Adding a budget check is always safe.** A check raises
//!   `ExecutionLimit { steps: max_steps }` — a constant error value — and
//!   fires exactly when the accumulated steps first exceed the budget.
//!   Ops between one check and the next are never side-effecting (every
//!   op that can touch the bus or fail checks first), so an earlier check
//!   only skips unobservable register work. This licenses replacing a
//!   non-checking charge carrier (a `LoadSlot` of a register slot) with a
//!   checking `Op::Bump`.
//! * **Removing a check is safe when nothing observable can happen before
//!   the next check.** This licenses coalescing adjacent `Bump`s and
//!   folding a `Bump` into a following jump.
//!
//! Ops inside a fused-loop window (the unfused fallback body behind an
//! `Op::FusedLoop`) are *frozen*: the superinstruction replays their
//! charges and falls back to them when its guards fail, so no pass may
//! rewrite them. The fused bulk fast paths — the campaign's
//! hot loops — are therefore preserved verbatim.

use crate::ast::Program;
use crate::bytecode::{self, CompiledProgram, Op};
use crate::error::VplError;

pub mod disasm;
mod dse;
mod licm;
mod strength;
mod unroll;

pub use disasm::disassemble;

/// Which optimization passes to run, each independently toggleable.
///
/// The default is [`PassConfig::all`]; [`PassConfig::none`] reproduces the
/// plain [`crate::compile`] output bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassConfig {
    /// Loop-invariant code motion.
    pub licm: bool,
    /// Strength reduction of induction-variable arithmetic.
    pub strength: bool,
    /// Dead-store elimination over register slots.
    pub dse: bool,
    /// Unrolling of short constant trip counts.
    pub unroll: bool,
}

impl PassConfig {
    /// Every pass disabled: identical output to [`crate::compile`].
    pub const fn none() -> Self {
        PassConfig {
            licm: false,
            strength: false,
            dse: false,
            unroll: false,
        }
    }

    /// Every pass enabled (the default).
    pub const fn all() -> Self {
        PassConfig {
            licm: true,
            strength: true,
            dse: true,
            unroll: true,
        }
    }

    /// True when at least one pass is enabled.
    pub const fn any(&self) -> bool {
        self.licm || self.strength || self.dse || self.unroll
    }

    /// The passes that are enabled, in pipeline order, as short names.
    pub fn enabled(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.licm {
            v.push("licm");
        }
        if self.strength {
            v.push("strength");
        }
        if self.unroll {
            v.push("unroll");
        }
        if self.dse {
            v.push("dse");
        }
        v
    }
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig::all()
    }
}

/// Coarse optimization level selection for callers that don't need
/// per-pass control (the GA evaluator's knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// No optimization: plain [`crate::compile`] output.
    None,
    /// The full pipeline (the default).
    #[default]
    Full,
}

impl OptLevel {
    /// The pass selection this level stands for.
    pub const fn config(self) -> PassConfig {
        match self {
            OptLevel::None => PassConfig::none(),
            OptLevel::Full => PassConfig::all(),
        }
    }
}

/// Compiles a fully-instantiated program and runs the selected passes.
///
/// With [`PassConfig::none`] this is exactly [`crate::compile`]; any other
/// selection produces a program with identical observable behaviour
/// (stats, trace, error values, every `ExecutionLimit` crossing) that the
/// differential suites pin against the interpreter oracle.
///
/// # Errors
///
/// The same compile-time errors as [`crate::compile`]; passes themselves
/// are infallible (they decline rather than fail).
pub fn compile_opt(program: &Program, config: &PassConfig) -> Result<CompiledProgram, VplError> {
    let mut compiled = bytecode::compile(program)?;
    optimize(&mut compiled, config);
    Ok(compiled)
}

/// Runs the selected passes, in pipeline order, on compiled bytecode.
pub fn optimize(program: &mut CompiledProgram, config: &PassConfig) {
    if config.licm {
        licm::run(program);
    }
    if config.strength {
        strength::run(program);
    }
    if config.unroll {
        unroll::run(program);
    }
    if config.dse {
        dse::run(program);
    }
    if config.any() {
        coalesce(program);
    }
}

/// A pass-pipeline stage name paired with the disassembled bytecode
/// listing as it stood after that stage ran.
pub type StageListing = (&'static str, String);

/// Compiles with per-stage bytecode dumps for `dstress disasm`: the
/// baseline listing plus one listing after each enabled pass (and the
/// final charge-coalescing cleanup), in pipeline order.
///
/// # Errors
///
/// The same compile-time errors as [`crate::compile`].
pub fn compile_staged(
    program: &Program,
    config: &PassConfig,
) -> Result<(CompiledProgram, Vec<StageListing>), VplError> {
    let mut compiled = bytecode::compile(program)?;
    let mut stages = vec![("baseline", disassemble(&compiled))];
    if config.licm {
        licm::run(&mut compiled);
        stages.push(("licm", disassemble(&compiled)));
    }
    if config.strength {
        strength::run(&mut compiled);
        stages.push(("strength", disassemble(&compiled)));
    }
    if config.unroll {
        unroll::run(&mut compiled);
        stages.push(("unroll", disassemble(&compiled)));
    }
    if config.dse {
        dse::run(&mut compiled);
        stages.push(("dse", disassemble(&compiled)));
    }
    if config.any() {
        coalesce(&mut compiled);
        stages.push(("coalesce", disassemble(&compiled)));
    }
    Ok((compiled, stages))
}

// ---- shared pass infrastructure --------------------------------------

/// A natural loop found by its back edge: `ops[back]` is a `Jump` whose
/// target `top` is at or before it. The window `[top, back]` is the loop
/// body including the condition prologue and the back edge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NaturalLoop {
    pub(crate) top: usize,
    pub(crate) back: usize,
}

/// Finds every natural loop, in program order of their back edges.
/// Backward jumps only arise from `for` loops (short-circuit lowering
/// emits forward jumps), so this is exact.
pub(crate) fn find_loops(ops: &[Op]) -> Vec<NaturalLoop> {
    ops.iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            Op::Jump { target, .. } if (*target as usize) <= i => Some(NaturalLoop {
                top: *target as usize,
                back: i,
            }),
            _ => None,
        })
        .collect()
}

/// Marks every op covered by a fused-loop superinstruction: the
/// `FusedLoop` itself and its unfused fallback window `[i, exit)`. Frozen
/// ops must never be rewritten — the superinstruction replays their
/// charges and falls back to them at run time.
pub(crate) fn frozen_mask(ops: &[Op]) -> Vec<bool> {
    let mut mask = vec![false; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        if let Op::FusedLoop(f) = op {
            for m in mask
                .iter_mut()
                .take((f.exit as usize).min(ops.len()))
                .skip(i)
            {
                *m = true;
            }
        }
    }
    mask
}

/// True per slot when the slot can never hold [`crate::resolve::Slot::Memory`]:
/// only the globals prologue creates memory slots, and every later write
/// (`DeclSlot`, `StoreSlot`, `FoldSlot`) preserves the register kind, so a
/// slot outside the globals list is a register on every path. Ops on such
/// slots never touch the bus and never budget-check.
pub(crate) fn register_slots(program: &CompiledProgram) -> Vec<bool> {
    let mut reg = vec![true; program.num_slots as usize];
    for (slot, _) in &program.globals {
        reg[*slot as usize] = false;
    }
    reg
}

/// The register an op writes, if any.
pub(crate) fn reg_def(op: &Op) -> Option<u16> {
    match op {
        Op::Const { dst, .. }
        | Op::Alu { dst, .. }
        | Op::DivRem { dst, .. }
        | Op::LoadSlot { dst, .. }
        | Op::LoadIndex { dst, .. }
        | Op::Malloc { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Calls `f` for every register an op reads.
pub(crate) fn for_each_reg_use(op: &Op, mut f: impl FnMut(u16)) {
    use crate::bytecode::Operand;
    let mut operand = |o: &Operand| {
        if let Operand::Reg(r) = o {
            f(*r);
        }
    };
    match op {
        Op::Alu { lhs, rhs, .. } | Op::DivRem { lhs, rhs, .. } => {
            operand(lhs);
            operand(rhs);
        }
        Op::LoadIndex { index, .. } => operand(index),
        Op::StoreIndex { index, src, .. } => {
            operand(index);
            operand(src);
        }
        Op::StoreSlot { src, .. } | Op::FoldSlot { src, .. } => operand(src),
        Op::Malloc { bytes, .. } => operand(bytes),
        Op::DeclSlot { init, .. } => operand(init),
        Op::JumpIfZero { cond, .. } | Op::JumpIfNonZero { cond, .. } => operand(cond),
        Op::Const { .. }
        | Op::LoadSlot { .. }
        | Op::Bump { .. }
        | Op::Jump { .. }
        | Op::Nop
        | Op::FusedLoop(_)
        | Op::Halt { .. } => {}
    }
}

/// True when the op writes variable slot `slot` (conservatively including
/// a `FusedLoop` whose counter or accumulator is `slot`).
pub(crate) fn writes_slot(op: &Op, slot: u32) -> bool {
    match op {
        Op::StoreSlot { slot: s, .. }
        | Op::FoldSlot { slot: s, .. }
        | Op::DeclSlot { slot: s, .. } => *s == slot,
        Op::FusedLoop(f) => {
            f.var == slot
                || matches!(f.body, crate::bytecode::FusedBody::Accumulate { acc, .. } if acc == slot)
        }
        _ => false,
    }
}

/// Rewrites every jump target (including `FusedLoop::exit`) through an
/// old-index → new-index map built during a rebuild.
pub(crate) fn remap_targets(ops: &mut [Op], map: &[u32]) {
    for op in ops {
        match op {
            Op::Jump { target, .. }
            | Op::JumpIfZero { target, .. }
            | Op::JumpIfNonZero { target, .. } => *target = map[*target as usize],
            Op::FusedLoop(f) => f.exit = map[f.exit as usize],
            _ => {}
        }
    }
}

/// The set of jump-target indices (including `FusedLoop::exit`).
pub(crate) fn jump_targets(ops: &[Op]) -> Vec<bool> {
    let mut targets = vec![false; ops.len() + 1];
    for op in ops {
        match op {
            Op::Jump { target, .. }
            | Op::JumpIfZero { target, .. }
            | Op::JumpIfNonZero { target, .. } => targets[*target as usize] = true,
            Op::FusedLoop(f) => targets[f.exit as usize] = true,
            _ => {}
        }
    }
    targets
}

/// Charge-coalescing cleanup: merges a `Bump` into an immediately
/// following `Bump`, `Jump`, conditional jump, or `Halt` when the
/// follower is not a jump target (an inbound jump would otherwise skip
/// the merged charge). Dropping the intermediate check is safe — nothing
/// observable happens between two adjacent charge carriers — and the
/// merged check fires at the identical cumulative step count.
pub(crate) fn coalesce(program: &mut CompiledProgram) {
    loop {
        let frozen = frozen_mask(&program.ops);
        let targets = jump_targets(&program.ops);
        let mut merge_at = None;
        for i in 0..program.ops.len().saturating_sub(1) {
            if frozen[i] || frozen[i + 1] || targets[i + 1] {
                continue;
            }
            let Op::Bump { n } = program.ops[i] else {
                continue;
            };
            let follower_charge = match program.ops[i + 1] {
                Op::Bump { n: m } => m,
                Op::Jump { charge, .. }
                | Op::JumpIfZero { charge, .. }
                | Op::JumpIfNonZero { charge, .. }
                | Op::Halt { charge } => charge,
                _ => continue,
            };
            if n.checked_add(follower_charge).is_some() {
                merge_at = Some(i);
                break;
            }
        }
        let Some(i) = merge_at else { return };
        let Op::Bump { n } = program.ops[i] else {
            unreachable!("merge_at points at a Bump");
        };
        let old = std::mem::take(&mut program.ops);
        let mut out = Vec::with_capacity(old.len() - 1);
        let mut map = vec![0u32; old.len() + 1];
        for (idx, op) in old.into_iter().enumerate() {
            map[idx] = out.len() as u32;
            if idx == i {
                continue; // the Bump folds into its follower
            }
            if idx == i + 1 {
                let merged = match op {
                    Op::Bump { n: m } => Op::Bump { n: n + m },
                    Op::Jump { target, charge } => Op::Jump {
                        target,
                        charge: charge + n,
                    },
                    Op::JumpIfZero {
                        cond,
                        target,
                        charge,
                    } => Op::JumpIfZero {
                        cond,
                        target,
                        charge: charge + n,
                    },
                    Op::JumpIfNonZero {
                        cond,
                        target,
                        charge,
                    } => Op::JumpIfNonZero {
                        cond,
                        target,
                        charge: charge + n,
                    },
                    Op::Halt { charge } => Op::Halt { charge: charge + n },
                    other => unreachable!("non-mergeable follower {other:?}"),
                };
                out.push(merged);
                continue;
            }
            out.push(op);
        }
        let last = map.len() - 1;
        map[last] = out.len() as u32;
        remap_targets(&mut out, &map);
        program.ops = out;
    }
}

#[cfg(test)]
mod tests;
