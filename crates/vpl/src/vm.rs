//! The bytecode VM: executes a [`CompiledProgram`] against a memory bus.
//!
//! Unlike [`crate::Interpreter`], which takes `&mut dyn MemoryBus` and pays
//! a virtual call per access, [`Vm::run`] is generic over [`BusOps`]: each
//! concrete bus (the platform `Session`, a test mock) gets its own
//! monomorphized copy of the dispatch loop, so reads, writes, and the trace
//! recording behind them inline into the op handlers.
//!
//! Execution is bit-identical to the interpreter — same [`ExecStats`], same
//! bus trace, same error kind at the same point — by the charge discipline
//! documented in [`crate::bytecode`]: charged ops settle the step debt and
//! check the budget *before* any side effect, and every loop passes a
//! checked back edge, so an over-budget program raises exactly the
//! interpreter's `ExecutionLimit`.

use crate::bytecode::{
    alu, AluOp, Base, CompiledProgram, FusedBody, FusedLoop, Gather, Op, Operand,
};
use crate::error::VplError;
use crate::interp::{ExecLimits, ExecStats};
use crate::resolve::Slot;
use dstress_platform::session::MemoryBus;

/// Marker trait for buses the VM can drive monomorphically.
///
/// Blanket-implemented for every [`MemoryBus`], including the platform's
/// recording `Session`; the point is that [`Vm::run`] takes `&mut B`
/// (static dispatch) rather than `&mut dyn MemoryBus`.
pub trait BusOps: MemoryBus {}

impl<B: MemoryBus + ?Sized> BusOps for B {}

/// The bytecode executor. Stateless between runs: compile a program once
/// with [`crate::compile`] and run it against a fresh bus per averaging
/// run.
///
/// # Examples
///
/// See the crate-level docs; usage mirrors [`crate::Interpreter`] with
/// [`crate::compile`] hoisted out of the per-run loop.
#[derive(Debug, Clone, Copy)]
pub struct Vm {
    limits: ExecLimits,
}

impl Vm {
    /// Creates a VM with the given execution limits.
    pub fn new(limits: ExecLimits) -> Self {
        Vm { limits }
    }

    /// A VM with only a step budget configured — the supervised evaluation
    /// runtime's watchdog entry point. The budget check is deterministic:
    /// a given compiled virus either always finishes within `max_steps` or
    /// always trips [`VplError::ExecutionLimit`] at the same step count,
    /// regardless of which worker runs it.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Vm::new(ExecLimits::with_max_steps(max_steps))
    }

    /// The configured execution limits.
    pub fn limits(&self) -> ExecLimits {
        self.limits
    }

    /// Executes a compiled program against a memory bus.
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's run-time errors: [`VplError::Runtime`] for
    /// dynamic errors, [`VplError::ExecutionLimit`] on budget exhaustion,
    /// [`VplError::Memory`] when the bus rejects an access. (Resolution
    /// errors were already surfaced by [`crate::compile`].)
    pub fn run<B: BusOps>(
        &self,
        program: &CompiledProgram,
        bus: &mut B,
    ) -> Result<ExecStats, VplError> {
        let mut stats = ExecStats::default();
        let mut slots = vec![Slot::Register(0); program.names.len()];

        // Globals prologue — identical to the interpreter's.
        for (slot, values) in &program.globals {
            let words = values.len() as u64;
            let base = bus.alloc(words * 8)?;
            stats.allocs += 1;
            bus.fill(base, values)?;
            stats.writes += words;
            slots[*slot as usize] = Slot::Memory { base, words };
        }

        // Locals start at 0, as the interpreter's register slots do.
        let mut regs = vec![0u64; program.num_regs as usize];
        // Scratch for the bulk accumulate fast path (reused across loops).
        let mut span_buf: Vec<u64> = Vec::new();
        let max_steps = self.limits.max_steps;
        let ops = program.ops.as_slice();
        let mut pc = 0usize;

        // Reads an operand. Kept as a macro so the borrow of `regs` is
        // scoped to the use site.
        macro_rules! val {
            ($o:expr) => {
                match $o {
                    Operand::Imm(v) => v,
                    Operand::Reg(r) => regs[r as usize],
                }
            };
        }
        // Settles a charge and checks the budget (used by every op that is
        // about to touch the bus or fail).
        macro_rules! charge {
            ($c:expr) => {
                stats.steps += $c as u64;
                if stats.steps > max_steps {
                    return Err(VplError::ExecutionLimit { steps: max_steps });
                }
            };
        }

        loop {
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, value } => regs[dst as usize] = value,
                Op::Alu { op, dst, lhs, rhs } => {
                    regs[dst as usize] = alu(op, val!(lhs), val!(rhs));
                }
                Op::DivRem {
                    rem,
                    dst,
                    lhs,
                    rhs,
                    charge,
                } => {
                    charge!(charge);
                    let r = val!(rhs);
                    if r == 0 {
                        return Err(VplError::Runtime(
                            if rem {
                                "remainder by zero"
                            } else {
                                "division by zero"
                            }
                            .into(),
                        ));
                    }
                    let l = val!(lhs);
                    regs[dst as usize] = if rem { l % r } else { l / r };
                }
                Op::LoadSlot { dst, slot, charge } => {
                    charge!(charge);
                    regs[dst as usize] = match slots[slot as usize] {
                        Slot::Register(v) => v,
                        Slot::Memory { base, words } => {
                            if words == 1 {
                                stats.reads += 1;
                                bus.read_u64(base)?
                            } else {
                                // Bare array reference decays to its base.
                                base
                            }
                        }
                    };
                }
                Op::StoreSlot { slot, src, charge } => {
                    charge!(charge);
                    write_slot(&mut slots, slot, val!(src), &mut stats, bus)?;
                }
                Op::FoldSlot {
                    op,
                    slot,
                    src,
                    charge,
                } => {
                    charge!(charge);
                    let old = read_slot(&slots, slot, &mut stats, bus)?;
                    write_slot(&mut slots, slot, alu(op, old, val!(src)), &mut stats, bus)?;
                }
                Op::DivSlot { slot, src, charge } => {
                    charge!(charge);
                    let old = read_slot(&slots, slot, &mut stats, bus)?;
                    let d = val!(src);
                    if d == 0 {
                        return Err(VplError::Runtime("division by zero".into()));
                    }
                    write_slot(&mut slots, slot, old / d, &mut stats, bus)?;
                }
                Op::LoadIndex {
                    dst,
                    base,
                    index,
                    charge,
                } => {
                    charge!(charge);
                    let addr = element_addr(&slots, &program.names, base, val!(index))?;
                    stats.reads += 1;
                    regs[dst as usize] = bus.read_u64(addr)?;
                }
                Op::StoreIndex {
                    base,
                    index,
                    src,
                    charge,
                } => {
                    charge!(charge);
                    let addr = element_addr(&slots, &program.names, base, val!(index))?;
                    stats.writes += 1;
                    bus.write_u64(addr, val!(src))?;
                }
                Op::LoadPtr {
                    dst,
                    ptr,
                    index,
                    charge,
                } => {
                    charge!(charge);
                    let addr = pointer_addr(regs[ptr as usize], val!(index));
                    stats.reads += 1;
                    regs[dst as usize] = bus.read_u64(addr)?;
                }
                Op::StorePtr {
                    ptr,
                    index,
                    src,
                    charge,
                } => {
                    charge!(charge);
                    let addr = pointer_addr(regs[ptr as usize], val!(index));
                    stats.writes += 1;
                    bus.write_u64(addr, val!(src))?;
                }
                Op::Malloc { dst, bytes, charge } => {
                    charge!(charge);
                    let bytes = val!(bytes);
                    if bytes == 0 {
                        return Err(VplError::Runtime("malloc(0) is not allowed".into()));
                    }
                    stats.allocs += 1;
                    regs[dst as usize] = bus.alloc(bytes)?;
                }
                Op::DeclSlot { slot, init } => {
                    slots[slot as usize] = Slot::Register(val!(init));
                }
                Op::Bump { n } => {
                    charge!(n);
                }
                Op::Jump { target, charge } => {
                    charge!(charge);
                    pc = target as usize;
                }
                Op::Branch {
                    cmp,
                    lhs,
                    rhs,
                    target,
                    charge,
                } => {
                    charge!(charge);
                    if alu(cmp, val!(lhs), val!(rhs)) == 0 {
                        pc = target as usize;
                    }
                }
                Op::FusedLoop { index, charge } => {
                    charge!(charge);
                    let f = &program.fused[index as usize];
                    if self.run_fused(
                        program,
                        f,
                        &slots,
                        &mut regs,
                        &mut stats,
                        bus,
                        &mut span_buf,
                    )? {
                        pc = f.exit as usize;
                    }
                }
                Op::Halt { charge } => {
                    charge!(charge);
                    return Ok(stats);
                }
            }
        }
    }

    /// Runs one fused loop in bulk and returns `true`, or returns `false`
    /// without any effect; the caller then falls through to the unfused
    /// loop that still follows the op, which runs it exactly, so a budget
    /// trip, fault or wrap happens as unfused. It declines when the loop
    /// runs no iteration, when the whole loop might not fit the step
    /// budget, or when a span it touches (a gather's table indices) is out
    /// of range or wraps. (The counter, the offset, a gather's `base` and
    /// the accumulator are locals, so no slot kind needs checking.)
    ///
    /// Otherwise the per-word stores collapse into one
    /// [`MemoryBus::fill_const`], the per-word loads into one
    /// [`MemoryBus::read_span`] (folded here in iteration order), and a
    /// copy into one [`MemoryBus::copy_span`], which the bus specifies for
    /// overlapping spans too. A gather runs as a native loop over
    /// [`MemoryBus::read_u64`] (see [`gather`]). The bus records the same
    /// per-word trace, the stats advance by the same totals, and a bus
    /// failure surfaces at the same first failing word.
    ///
    /// Out of line so the per-op dispatch loop in [`Vm::run`] carries none
    /// of this code.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn run_fused<B: BusOps>(
        &self,
        program: &CompiledProgram,
        f: &FusedLoop,
        slots: &[Slot],
        regs: &mut [u64],
        stats: &mut ExecStats,
        bus: &mut B,
        span_buf: &mut Vec<u64>,
    ) -> Result<bool, VplError> {
        let v = regs[f.var as usize];
        let off = f
            .body
            .offset()
            .map_or(0, |o| regs[o.reg as usize].wrapping_add(o.imm));
        if v >= f.bound {
            return Ok(false);
        }
        let n = f.bound - v;
        let c_write = match f.body {
            FusedBody::Copy { c_write, .. } => c_write,
            _ => 0,
        };
        let per_iter = f.c_cond as u128 + f.c_access as u128 + c_write as u128 + f.c_back as u128;
        let total = n as u128 * per_iter + f.c_cond as u128;
        if stats.steps as u128 + total > self.limits.max_steps as u128 {
            return Ok(false);
        }
        let span = |base: Base, first: u64| {
            let array = match base {
                Base::Slot(s) => slots[s as usize],
                Base::Reg(r) => Slot::Register(regs[r as usize]),
            };
            span_start(array, first, n)
        };
        match f.body {
            FusedBody::StoreImm { base, value } => {
                let Some(start) = span(base, v) else {
                    return Ok(false);
                };
                bus.fill_const(start, value, n)?;
                stats.writes += n;
            }
            FusedBody::Accumulate { op, base, acc, .. } => {
                let Some(start) = span(base, off.wrapping_add(v)) else {
                    return Ok(false);
                };
                bus.read_span(start, n, span_buf)?;
                stats.reads += n;
                regs[acc as usize] = fold_span(op, regs[acc as usize], span_buf);
            }
            FusedBody::Copy { dst, src, .. } => {
                let (Some(from), Some(to)) = (span(src, v), span(dst, off.wrapping_add(v))) else {
                    return Ok(false);
                };
                bus.copy_span(to, from, n)?;
                stats.reads += n;
                stats.writes += n;
            }
            FusedBody::Gather(g) => {
                let Some(reads) = gather(&g, program, v, n, slots, regs, span_buf, bus)? else {
                    return Ok(false);
                };
                stats.reads += reads;
            }
        }
        stats.steps += total as u64;
        regs[f.var as usize] = f.bound;
        Ok(true)
    }
}

/// The bulk path of a fused [`Gather`] over the `n ≥ 1` iterations from
/// counter value `v`: `None`, without any effect, when a table index might
/// leave its array or wrap; otherwise the number of reads made. The first
/// iteration runs the invariant ops and keeps their read addresses in
/// `addrs`; later iterations re-read those addresses, so every read stays
/// on the bus in program order, and reuse the offset, which no write in the
/// loop can change. The caller has proved that the whole loop fits the step
/// budget, so an out-of-bounds gather or a bus error surfaces at the same
/// access as in the unfused loop.
#[allow(clippy::too_many_arguments)]
fn gather<B: BusOps>(
    g: &Gather,
    program: &CompiledProgram,
    v: u64,
    n: u64,
    slots: &[Slot],
    regs: &mut [u64],
    addrs: &mut Vec<u64>,
    bus: &mut B,
) -> Result<Option<u64>, VplError> {
    let array_of = |b: Base| match b {
        Base::Slot(s) => slots[s as usize],
        Base::Reg(r) => Slot::Register(regs[r as usize]),
    };
    let lane = value(g.lane, regs);
    let table = array_of(g.table);
    let array = array_of(g.array);
    let table_index = |v: u64| v.wrapping_mul(g.stride).wrapping_add(lane);
    if let Slot::Memory { words, .. } = table {
        let last = (v + n - 1)
            .checked_mul(g.stride)
            .and_then(|i| i.checked_add(lane));
        if last.is_none_or(|last| last >= words) {
            return Ok(None);
        }
    }
    let gather_addr = |idx: u64| match (g.array, array) {
        (Base::Slot(s), Slot::Memory { .. }) => element_addr(slots, &program.names, s, idx),
        (_, array) => Ok(in_range_addr(array, idx)),
    };
    let (mut word, mut off, mut acc) = (0, 0, regs[g.acc as usize]);
    addrs.clear();
    for k in v..v + n {
        word = bus.read_u64(in_range_addr(table, table_index(k)))?;
        if k == v {
            let (start, end) = g.invariant;
            let ops = &program.ops[start as usize..end as usize];
            invariant_ops(ops, &program.names, slots, regs, addrs, bus)?;
            off = value(g.off, regs);
        } else {
            for &addr in addrs.iter() {
                bus.read_u64(addr)?;
            }
        }
        acc = alu(
            g.op,
            acc,
            bus.read_u64(gather_addr(word.wrapping_add(off))?)?,
        );
    }
    regs[g.base as usize] = word;
    regs[g.acc as usize] = acc;
    Ok(Some(n * (2 + addrs.len() as u64)))
}

/// Runs a gather's invariant ops once, pushing the address of each read
/// onto `addrs`. The matcher admits only these four ops, and a `DivRem`
/// only with a nonzero immediate divisor.
fn invariant_ops<B: BusOps>(
    ops: &[Op],
    names: &[String],
    slots: &[Slot],
    regs: &mut [u64],
    addrs: &mut Vec<u64>,
    bus: &mut B,
) -> Result<(), VplError> {
    for op in ops {
        match *op {
            Op::Alu { op, dst, lhs, rhs } => {
                regs[dst as usize] = alu(op, value(lhs, regs), value(rhs, regs));
            }
            Op::DivRem {
                rem, dst, lhs, rhs, ..
            } => {
                let (l, r) = (value(lhs, regs), value(rhs, regs));
                regs[dst as usize] = if rem { l % r } else { l / r };
            }
            Op::LoadIndex {
                dst, base, index, ..
            } => {
                let addr = element_addr(slots, names, base, value(index, regs))?;
                addrs.push(addr);
                regs[dst as usize] = bus.read_u64(addr)?;
            }
            Op::LoadPtr {
                dst, ptr, index, ..
            } => {
                let addr = pointer_addr(regs[ptr as usize], value(index, regs));
                addrs.push(addr);
                regs[dst as usize] = bus.read_u64(addr)?;
            }
            other => unreachable!("{other:?} is not an invariant gather op"),
        }
    }
    Ok(())
}

/// Folds `words` into `init` in order with `op`, matched once outside the
/// loop so each arm compiles to a tight loop over the span.
fn fold_span(op: AluOp, init: u64, words: &[u64]) -> u64 {
    let fold = |f: fn(u64, u64) -> u64| words.iter().fold(init, |a, &w| f(a, w));
    match op {
        AluOp::Add => fold(u64::wrapping_add),
        AluOp::Sub => fold(u64::wrapping_sub),
        AluOp::Mul => fold(u64::wrapping_mul),
        other => words.iter().fold(init, |a, &w| alu(other, a, w)),
    }
}

/// Address of `array[first]` when the `n ≥ 1` indices `first..first + n`
/// are all in range and neither the indices nor the addresses wrap — the
/// condition under which a fused loop's accesses form one ascending span.
fn span_start(array: Slot, first: u64, n: u64) -> Option<u64> {
    let last = first.checked_add(n - 1)?;
    match array {
        Slot::Memory { base: addr, words } => (last < words).then(|| addr + first * 8),
        Slot::Register(pointer) => {
            pointer.checked_add(last.checked_mul(8)?)?;
            Some(pointer + first * 8)
        }
    }
}

/// The interpreter's `read_lvalue` of a global slot: its register, or one
/// bus load of its first word.
#[inline]
fn read_slot<B: BusOps>(
    slots: &[Slot],
    slot: u32,
    stats: &mut ExecStats,
    bus: &mut B,
) -> Result<u64, VplError> {
    match slots[slot as usize] {
        Slot::Register(v) => Ok(v),
        Slot::Memory { base, .. } => {
            stats.reads += 1;
            Ok(bus.read_u64(base)?)
        }
    }
}

/// The interpreter's `write_lvalue` of a global slot.
#[inline]
fn write_slot<B: BusOps>(
    slots: &mut [Slot],
    slot: u32,
    value: u64,
    stats: &mut ExecStats,
    bus: &mut B,
) -> Result<(), VplError> {
    match slots[slot as usize] {
        Slot::Register(_) => slots[slot as usize] = Slot::Register(value),
        Slot::Memory { base, .. } => {
            stats.writes += 1;
            bus.write_u64(base, value)?;
        }
    }
    Ok(())
}

/// An operand's value (outside the dispatch loop's `val!`).
#[inline]
fn value(o: Operand, regs: &[u64]) -> u64 {
    match o {
        Operand::Imm(x) => x,
        Operand::Reg(r) => regs[r as usize],
    }
}

/// `array[idx]` for an index known to be in range, or through a pointer.
#[inline]
fn in_range_addr(array: Slot, idx: u64) -> u64 {
    match array {
        Slot::Memory { base, .. } => base + idx * 8,
        Slot::Register(pointer) => pointer_addr(pointer, idx),
    }
}

/// `pointer[idx]`, unchecked like the C it models.
#[inline]
fn pointer_addr(pointer: u64, idx: u64) -> u64 {
    pointer.wrapping_add(idx.wrapping_mul(8))
}

/// Resolves `base[index]` through a global slot to a DRAM virtual
/// address — the interpreter's `element_addr`, byte for byte
/// (bounds-checked named arrays, unchecked pointers when a local
/// declaration shadows the global, identical error message).
#[inline]
fn element_addr(slots: &[Slot], names: &[String], base: u32, idx: u64) -> Result<u64, VplError> {
    match slots[base as usize] {
        Slot::Memory { base: addr, words } => {
            if idx >= words {
                return Err(VplError::Runtime(format!(
                    "index {idx} out of bounds for `{}` ({words} words)",
                    names[base as usize]
                )));
            }
            Ok(addr + idx * 8)
        }
        Slot::Register(pointer) => Ok(pointer_addr(pointer, idx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile, FusedShape};
    use crate::interp::Interpreter;
    use crate::parser::parse_program;
    use dstress_platform::session::{SessionError, VirtAddr};
    use std::collections::HashMap;

    /// Same flat in-memory bus as the interpreter unit tests.
    #[derive(Debug, Default, PartialEq)]
    struct MockBus {
        memory: HashMap<u64, u64>,
        cursor: u64,
        reads: u64,
        writes: u64,
    }

    impl MemoryBus for MockBus {
        fn alloc(&mut self, bytes: u64) -> Result<VirtAddr, SessionError> {
            if bytes == 0 {
                return Err(SessionError::ZeroAllocation);
            }
            let base = self.cursor + 0x1000;
            self.cursor = base + bytes.div_ceil(8) * 8;
            Ok(base)
        }

        fn read_u64(&mut self, addr: VirtAddr) -> Result<u64, SessionError> {
            if !addr.is_multiple_of(8) {
                return Err(SessionError::Unaligned(addr));
            }
            self.reads += 1;
            Ok(self.memory.get(&addr).copied().unwrap_or(0))
        }

        fn write_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), SessionError> {
            if !addr.is_multiple_of(8) {
                return Err(SessionError::Unaligned(addr));
            }
            self.writes += 1;
            self.memory.insert(addr, value);
            Ok(())
        }
    }

    /// Runs both tiers on the same program and asserts the full observable
    /// state matches: the `Result` (stats or error), the bus memory image,
    /// and the bus-side access counters.
    fn assert_parity(global: &str, local: &str, body: &str, limits: ExecLimits) {
        let program = parse_program(global, local, body).expect("parses");
        let mut ibus = MockBus::default();
        let iresult = Interpreter::new(limits).run(&program, &mut ibus);
        let mut vbus = MockBus::default();
        let vresult = compile(&program).and_then(|c| Vm::new(limits).run(&c, &mut vbus));
        assert_eq!(iresult, vresult, "result mismatch for body: {body}");
        assert_eq!(ibus, vbus, "bus state mismatch for body: {body}");
    }

    fn parity(global: &str, local: &str, body: &str) {
        assert_parity(global, local, body, ExecLimits::default());
    }

    #[test]
    fn fill_loop_parity() {
        parity(
            "volatile unsigned long long v[] = { 0, 0, 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 4; i += 1) { v[i] = 0x3333; }",
        );
    }

    #[test]
    fn accumulate_parity() {
        parity(
            "volatile unsigned long long v[] = { 1, 2, 3, 4, 5 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (i = 0; i < 5; i += 1) { acc += v[i]; } v[0] = acc;",
        );
    }

    #[test]
    fn malloc_pointer_parity() {
        parity(
            "",
            "int i = 0;",
            "unsigned long long p = malloc(64);\
             for (i = 0; i < 8; i += 1) { p[i] = i * 2; }\
             unsigned long long x = p[3]; p[0] = x;",
        );
    }

    #[test]
    fn arithmetic_and_branch_parity() {
        parity(
            "volatile unsigned long long out[] = { 0, 0 };",
            "unsigned long long a = 0; int i = 0;",
            "a = (2 + 3) * 4; \
             if (a > 10) { out[0] = a; } else { out[1] = a; } \
             for (i = 0; i < 3; i += 1) { if (i == 1) { out[1] += i; } } \
             a = 0 - 1; out[0] = a >> 1;",
        );
    }

    #[test]
    fn short_circuit_parity() {
        parity(
            "volatile unsigned long long g = 2;",
            "int a = 0; int b = 5;",
            "a = b && g; a = 0 && 1 / 0; a = 1 || 1 / 0; a = g || b; a = !a && -b;",
        );
    }

    #[test]
    fn compound_index_parity() {
        parity(
            "volatile unsigned long long v[] = { 10, 20, 30 };",
            "int i = 1;",
            "v[i] += 5; v[i + 1] *= 2; v[0] -= 1; v[i]++; v[0]--; i++;",
        );
    }

    #[test]
    fn scalar_global_and_decay_parity() {
        parity(
            "volatile unsigned long long g = 7; volatile unsigned long long v[] = { 1, 2 };",
            "unsigned long long p = 0; unsigned long long x = 0;",
            "x = g + g; g = x; p = v; p[1] = 9; g /= 2;",
        );
    }

    #[test]
    fn shadowing_global_with_local_decl_parity() {
        parity(
            "volatile unsigned long long g = 7;",
            "",
            "g = 1; unsigned long long g = 3; g = g + 1;",
        );
    }

    #[test]
    fn division_by_zero_parity() {
        parity("", "int a = 1; int z = 0;", "a = a / z;");
        parity("", "int a = 1; int z = 0;", "a = a % z;");
        parity("", "int a = 9; int z = 0;", "a /= z;");
        parity(
            "volatile unsigned long long v[] = { 8 };",
            "int z = 0;",
            "v[0] /= z;",
        );
    }

    #[test]
    fn out_of_bounds_parity() {
        parity(
            "volatile unsigned long long v[] = { 1 };",
            "int i = 5;",
            "v[i] = 0;",
        );
        parity(
            "volatile unsigned long long v[] = { 1, 2 };",
            "int i = 0; int x = 0;",
            "for (i = 0; i < 9; i += 1) { x += v[i]; }",
        );
    }

    #[test]
    fn malloc_zero_parity() {
        parity("", "int a = 0; int z = 0;", "a = malloc(z);");
    }

    #[test]
    fn resolution_errors_surface_identically() {
        for (global, local, body) in [
            ("", "int i = 0;", "i = $$$_P_$$$;"),
            ("", "", "ghost = 1;"),
            ("", "int a = 0;", "a = calloc(8);"),
            ("volatile unsigned long long v[] = { malloc(8) };", "", ""),
        ] {
            let program = parse_program(global, local, body).unwrap();
            let ierr = Interpreter::new(ExecLimits::default())
                .run(&program, &mut MockBus::default())
                .unwrap_err();
            let verr = compile(&program).unwrap_err();
            assert_eq!(ierr, verr);
        }
    }

    /// The decisive check on the charge discipline: sweep the step budget
    /// across every possible crossing point of a program that mixes loops,
    /// branches, DRAM traffic, and a trailing runtime error. At every
    /// budget the two tiers must agree on the exact `Result` *and* on the
    /// bus state (no stray access past the limit).
    #[test]
    fn fused_fill_and_reduce_budget_sweep_parity() {
        // Both fused shapes back to back, swept over every budget so the
        // superinstruction's three check points land on every possible
        // crossing — including mid-fused-loop exhaustion.
        let global = "volatile unsigned long long v[] = { 1, 2, 3, 4, 5, 6 };";
        let local = "int i = 0; unsigned long long acc = 0;";
        let body = "for (i = 0; i < 6; i += 1) { v[i] = 7; } \
                    for (i = 0; i < 6; i += 1) { acc += v[i]; } \
                    v[0] = acc;";
        for max_steps in 0..160 {
            assert_parity(global, local, body, ExecLimits { max_steps });
        }
    }

    /// Pins the bulk-fill path against the interpreter: same `Result`, same
    /// stats, same bus image, at every budget crossing — including budgets
    /// where the bulk path must decline and the unfused ops trip
    /// `ExecutionLimit` mid-fill.
    #[test]
    fn bulk_fill_matches_strict_accounting() {
        let program = parse_program(
            "",
            "int i = 0;",
            "unsigned long long p = malloc(512);\
             for (i = 0; i < 64; i += 1) { p[i] = 0xCCCC; }\
             unsigned long long x = p[63]; p[0] = x;",
        )
        .expect("parses");
        assert_bulk_matches_interpreter(&program, &[FusedShape::Fill], 0..400);
    }

    /// Same sweep for the bulk accumulate path: a read-pressure loop over
    /// filled memory must fold to the identical accumulator value, stats,
    /// and bus trace at every budget crossing, including budgets where the
    /// bulk path declines mid-program.
    #[test]
    fn bulk_accumulate_matches_strict_accounting() {
        let program = parse_program(
            "",
            "int i = 0; unsigned long long acc = 7;",
            "unsigned long long p = malloc(512);\
             for (i = 0; i < 64; i += 1) { p[i] = 0xCCCC; }\
             for (i = 0; i < 64; i += 1) { acc += p[i]; }\
             p[0] = acc;",
        )
        .expect("parses");
        assert_bulk_matches_interpreter(&program, &[FusedShape::Fill, FusedShape::Reduce], 0..700);
    }

    /// Checks that `program` compiles to exactly the fused `shapes`, then
    /// sweeps `budgets` on the VM and the interpreter and asserts the same
    /// `Result` and bus state at every one.
    fn assert_bulk_matches_interpreter(
        program: &crate::ast::Program,
        shapes: &[FusedShape],
        budgets: std::ops::Range<u64>,
    ) {
        let compiled = compile(program).expect("compiles");
        assert_eq!(compiled.fused_shapes(), shapes);
        for max_steps in budgets.chain([u64::MAX]) {
            let limits = ExecLimits { max_steps };
            let mut vbus = MockBus::default();
            let vresult = Vm::new(limits).run(&compiled, &mut vbus);
            let mut ibus = MockBus::default();
            let iresult = Interpreter::new(limits).run(program, &mut ibus);
            assert_eq!(vresult, iresult, "result mismatch at budget {max_steps}");
            assert_eq!(vbus, ibus, "bus mismatch at budget {max_steps}");
        }
    }

    /// The bulk copy path against the interpreter at every budget crossing,
    /// including budgets that land between one iteration's read and its
    /// write; the overlapping copies smear forward word by word.
    #[test]
    fn bulk_copy_matches_strict_accounting() {
        let program = parse_program(
            "volatile unsigned long long pat[] = { 1, 2, 3, 4, 5, 6, 7, 8 };",
            "int i = 0; unsigned long long s = 3;",
            "unsigned long long p = malloc(256);\
             for (i = 0; i < 8; i += 1) { p[s + i] = pat[i]; }\
             for (i = 0; i < 8; i += 1) { p[s + i] = p[i]; }\
             for (i = 0; i < 8; i += 1) { p[i + (s - 2)] = p[i]; }\
             unsigned long long x = p[10]; pat[0] = x;",
        )
        .expect("parses");
        let copy = FusedShape::Copy;
        assert_bulk_matches_interpreter(&program, &[copy, copy, copy], 0..400);
    }

    /// Same sweep for the offset accumulate path.
    #[test]
    fn bulk_offset_accumulate_matches_strict_accounting() {
        let program = parse_program(
            "",
            "int i = 0; unsigned long long acc = 7; unsigned long long s = 5;",
            "unsigned long long p = malloc(512);\
             for (i = 0; i < 64; i += 1) { p[i] = 0xCCCC; }\
             for (i = 0; i < 32; i += 1) { acc += p[s + i]; }\
             for (i = 0; i < 32; i += 1) { acc *= p[i + (s + 9)]; }\
             p[0] = acc;",
        )
        .expect("parses");
        let reduce = FusedShape::OffsetReduce;
        assert_bulk_matches_interpreter(&program, &[FusedShape::Fill, reduce, reduce], 0..700);
    }

    #[test]
    fn offset_copy_and_reduce_budget_sweep_parity() {
        let global = "volatile unsigned long long v[] = { 1, 2, 3, 4, 5, 6, 7, 8 };";
        let local = "int i = 0; unsigned long long s = 2; unsigned long long acc = 0;";
        for body in [
            // Disjoint spans inside one array.
            "for (i = 0; i < 3; i += 1) { v[s + 3 + i] = v[i]; } \
             for (i = 0; i < 4; i += 1) { acc += v[i + s]; } v[0] = acc;",
            // Overlapping spans: the copy smears forward word by word.
            "for (i = 0; i < 6; i += 1) { v[s + i] = v[i]; } v[0] = v[7];",
            // The offset runs the destination out of bounds mid-span.
            "for (i = 0; i < 8; i += 1) { v[s + i] = v[i]; }",
            "for (i = 0; i < 8; i += 1) { acc += v[i + (s - 1)]; }",
            // A wrapping offset: index `s - 3 + 0` is u64::MAX.
            "for (i = 0; i < 4; i += 1) { acc += v[s - 3 + i]; }",
        ] {
            for max_steps in 0..150 {
                assert_parity(global, local, body, ExecLimits { max_steps });
            }
        }
    }

    /// The gather path against the interpreter at every budget crossing,
    /// including budgets between a fused loop's iterations and between the
    /// reads of one iteration: invariant reads of a global, a pointer and
    /// a global array gathered from, then a gather that runs its array out
    /// of bounds mid-loop or a table index that runs past the table.
    #[test]
    fn bulk_gather_matches_strict_accounting() {
        let head = "unsigned long long buf = malloc(128); \
             for (v = 0; v < 16; v += 1) { buf[v] = v * 3; } \
             for (x = 0; x < 2; x += 1) { for (r = 0; r < 2; r += 1) { \
               for (v = 0; v < 3; v += 1) { \
                 base = t[v * 2 + r]; acc += buf[base + (c[r] * x + c[2 + r]) % 4]; } } } \
             for (v = 0; v < 3; v += 1) { base = t[v]; acc *= w[base + (x * 9) % 2]; }";
        for (tail, array) in [
            (
                "for (v = 0; v < 4; v += 1) { base = t[v + 1]; acc += w[base]; }",
                "w",
            ),
            (
                "for (v = 0; v < 8; v += 1) { base = t[v]; acc += buf[base]; }",
                "t",
            ),
        ] {
            let program = parse_program(
                "volatile unsigned long long c[] = { 3, 1, 4, 1 }; \
                 volatile unsigned long long t[] = { 0, 2, 4, 6, 8, 10 }; \
                 volatile unsigned long long w[] = { 5, 6, 7, 8, 9, 10 };",
                "unsigned long long x = 0; unsigned long long r = 0; unsigned long long v = 0; \
                 unsigned long long base = 0; unsigned long long acc = 7;",
                &format!("{head} {tail}"),
            )
            .expect("parses");
            // The sweep's top budget already runs into the error.
            let err = Interpreter::new(ExecLimits { max_steps: 999 })
                .run(&program, &mut MockBus::default())
                .unwrap_err();
            assert!(
                format!("{err}").contains(&format!("out of bounds for `{array}`")),
                "{err}"
            );
            let shapes = [FusedShape::Gather; 3];
            assert_bulk_matches_interpreter(&program, &shapes, 0..1000);
        }
    }

    #[test]
    fn gather_through_pointer_tables_and_wrapping_indices_parity() {
        // A local declaration shadows the table with a pointer (unchecked
        // reads), a table index that wraps past `u64::MAX`, and a table
        // index that overflows a named table's range check.
        parity(
            "volatile unsigned long long t[] = { 1, 2, 3, 4 };",
            "unsigned long long v = 0; unsigned long long base = 0; \
             unsigned long long acc = 0; unsigned long long r = 0;",
            "unsigned long long buf = malloc(64); \
             for (v = 0; v < 8; v += 1) { buf[v] = v + 1; } \
             unsigned long long t = buf; \
             for (v = 0; v < 4; v += 1) { base = t[v * 2 + 1]; acc += buf[base - 1]; } \
             r = 0 - 16; \
             for (v = 0; v < 4; v += 1) { base = t[v * 8 + r]; acc += buf[base]; } \
             buf[0] = acc;",
        );
        parity(
            "volatile unsigned long long t[] = { 1, 2, 3, 4 };",
            "unsigned long long v = 0; unsigned long long base = 0; \
             unsigned long long acc = 0; unsigned long long r = 0;",
            "unsigned long long buf = malloc(64); r = 0 - 1; \
             for (v = 0; v < 3; v += 1) { base = t[v * 0x8000000000000000 + r]; acc += buf[base]; }",
        );
    }

    #[test]
    fn offset_loops_over_wrapping_malloc_pointer_parity() {
        // The offset makes a pointer index wrap: unchecked addressing wraps
        // through zero, which the bulk path must leave to the word loop.
        parity(
            "",
            "int i = 0; unsigned long long s = 0; unsigned long long acc = 0;",
            "unsigned long long p = malloc(64); s = 0 - (p / 8) - 2; \
             for (i = 0; i < 4; i += 1) { p[s + i] = 5; } \
             for (i = 0; i < 4; i += 1) { p[s + i] = p[i]; } \
             for (i = 0; i < 4; i += 1) { acc += p[s + i]; } p[0] = acc;",
        );
    }

    #[test]
    fn fused_loop_guard_declines_memory_offset() {
        // A DRAM-scalar offset reads the bus in its `LoadSlot` every
        // iteration: a global offset never fuses, and the unfused ops run.
        parity(
            "volatile unsigned long long g = 1; volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (i = 0; i < 3; i += 1) { v[g + i] = v[i]; } \
             for (i = 0; i < 3; i += 1) { acc += v[g + i]; } v[0] = acc;",
        );
    }

    #[test]
    fn fused_loop_out_of_bounds_parity() {
        // The loop bound overruns the array: the fused handler must raise
        // the interpreter's exact out-of-bounds error mid-loop.
        parity(
            "volatile unsigned long long v[] = { 1, 2, 3 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (i = 0; i < 5; i += 1) { v[i] = 9; }",
        );
        parity(
            "volatile unsigned long long v[] = { 1, 2, 3 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (i = 0; i < 9; i += 1) { acc += v[i]; } v[0] = acc;",
        );
    }

    #[test]
    fn fused_loop_over_malloc_pointer_parity() {
        // Register-kind base (malloc pointer): unchecked addressing, still
        // bit-identical through the fused path.
        parity(
            "",
            "int i = 0; unsigned long long acc = 0;",
            "unsigned long long p = malloc(64); \
             for (i = 0; i < 8; i += 1) { p[i] = 3; } \
             for (i = 0; i < 8; i += 1) { acc += p[i]; } p[0] = acc;",
        );
    }

    #[test]
    fn fused_loop_guard_falls_back_on_memory_counter() {
        // A DRAM-scalar loop counter (its condition loads are bus reads)
        // never fuses; the unfused ops stay bit-identical, also once a
        // local declaration has made the counter's name a register.
        parity(
            "volatile unsigned long long g = 0; volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "",
            "for (g = 0; g < 4; g += 1) { v[g] = 5; } \
             unsigned long long g = 1; for (g = 0; g < 4; g += 1) { v[g] = 6; }",
        );
    }

    #[test]
    fn compound_assignment_to_a_global_array_reads_its_first_word() {
        // `v op= x` on a bare global array reads and writes its first word,
        // like a scalar; only a bare read decays to the base address. The
        // quotient by zero fails after the read.
        for body in [
            "v /= 2;",
            "v /= 3;",
            "v /= 0;",
            "v += 1;",
            "v++;",
            "v = v / 3;",
        ] {
            parity("volatile unsigned long long v[] = { 9, 10 };", "", body);
        }
    }

    #[test]
    fn immediate_divisors_and_folded_conditions_parity() {
        // Immediate divisors, powers of two and zero among them, on locals;
        // comparisons fold into the branch of `if`, `for`, `&&` and `||`,
        // and stay values elsewhere.
        let global = "volatile unsigned long long out[] = { 0, 0, 0, 0, 0, 0 };";
        let local = "unsigned long long x = 0 - 7; int i = 0;";
        let body = "out[0] = x / 1 + x % 1; out[1] = x / 0x8000000000000000 + x % 4; \
                    x /= 2; out[2] = x; out[3] = (x < 9) + (x >= 9); \
                    if (x > 3 && !(x == 4)) { out[4] = 1; } \
                    if (x < 3 || x != 4) { out[5] = 2; } \
                    for (i = 0; i <= 4 && i != 9; i += 1) { out[i] += i < 2; } \
                    x = x % 0;";
        for max_steps in 0..160 {
            assert_parity(global, local, body, ExecLimits { max_steps });
        }
    }

    #[test]
    fn budget_sweep_parity() {
        let program = parse_program(
            "volatile unsigned long long v[] = { 1, 2, 3, 4 };",
            "int i = 0; unsigned long long acc = 0; int z = 0;",
            "for (i = 0; i < 4; i += 1) { acc += v[i]; if (acc > 3) { v[0] = acc; } } acc = acc / z;",
        )
        .expect("parses");
        let compiled = compile(&program).expect("compiles");
        let full_steps = {
            let mut bus = MockBus::default();
            // Runs to the trailing division-by-zero error at default limits.
            let err = Interpreter::new(ExecLimits::default())
                .run(&program, &mut bus)
                .unwrap_err();
            assert!(matches!(err, VplError::Runtime(_)));
            200u64
        };
        for max_steps in 0..full_steps {
            let limits = ExecLimits { max_steps };
            let mut ibus = MockBus::default();
            let iresult = Interpreter::new(limits).run(&program, &mut ibus);
            let mut vbus = MockBus::default();
            let vresult = Vm::new(limits).run(&compiled, &mut vbus);
            assert_eq!(iresult, vresult, "result diverged at budget {max_steps}");
            assert_eq!(ibus, vbus, "bus state diverged at budget {max_steps}");
        }
    }

    #[test]
    fn infinite_loop_budget_parity() {
        assert_parity(
            "",
            "int i = 0;",
            "for (;;) { i += 1; }",
            ExecLimits { max_steps: 10_000 },
        );
    }

    #[test]
    fn stats_match_on_success() {
        let program = parse_program(
            "volatile unsigned long long v[] = { 0, 0, 0, 0, 0, 0, 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 8; i += 1) { v[i] = i; }",
        )
        .unwrap();
        let istats = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap();
        let compiled = compile(&program).unwrap();
        let vstats = Vm::new(ExecLimits::default())
            .run(&compiled, &mut MockBus::default())
            .unwrap();
        assert_eq!(istats, vstats);
        assert_eq!(vstats.writes, 8 + 8);
        assert_eq!(vstats.reads, 0);
    }

    #[test]
    fn watchdog_budget_trips_deterministically() {
        let program = parse_program(
            "volatile unsigned long long v[] = { 0 };",
            "int i = 0;",
            "for (;;) { v[0] = i; i += 1; }",
        )
        .unwrap();
        let compiled = compile(&program).unwrap();
        let vm = Vm::with_max_steps(5_000);
        assert_eq!(vm.limits(), ExecLimits::with_max_steps(5_000));
        // The watchdog fires identically on every run — same error, same
        // step count — which is what lets supervised evaluation classify
        // budget blowouts without retrying them.
        let a = vm.run(&compiled, &mut MockBus::default()).unwrap_err();
        let b = vm.run(&compiled, &mut MockBus::default()).unwrap_err();
        assert!(a.is_execution_limit());
        assert_eq!(a, b);
        assert_eq!(a, VplError::ExecutionLimit { steps: 5_000 });
    }

    #[test]
    fn compiled_program_is_reusable_across_runs() {
        let program = parse_program(
            "volatile unsigned long long v[] = { 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 2; i += 1) { v[i] = 7; }",
        )
        .unwrap();
        let compiled = compile(&program).unwrap();
        let vm = Vm::new(ExecLimits::default());
        let a = vm.run(&compiled, &mut MockBus::default()).unwrap();
        let b = vm.run(&compiled, &mut MockBus::default()).unwrap();
        assert_eq!(a, b);
    }
}
