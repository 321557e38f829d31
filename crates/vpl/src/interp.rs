//! The virus interpreter: executes an instantiated program against a
//! platform memory bus (the execution half of the paper's evaluation phase).
//!
//! Semantics:
//!
//! * all values are wrapping 64-bit unsigned integers;
//! * `->global_data` variables live in DRAM (allocated through the bus);
//!   every read/write of them is a real memory access;
//! * `->local_data` and body-declared variables are registers;
//! * pointers returned by `malloc` index 64-bit elements (`p[i]` touches
//!   byte `p + 8·i`);
//! * a step budget bounds execution, so a pathological candidate virus
//!   cannot wedge a search campaign.
//!
//! Internally the program is first resolved (see `crate::resolve`): every
//! variable name becomes a slot index, so the execution loop never hashes a
//! string.
//!
//! This tree-walker is the *reference oracle* for VPL semantics. The
//! production tier — [`crate::bytecode`] + [`crate::vm`] — must match it
//! bit-for-bit ([`ExecStats`] included); the `dstress-tests` differential
//! suite pins that equivalence.

use crate::ast::{AssignOp, BinOp, Program, UnOp};
use crate::error::VplError;
use crate::resolve::{resolve, RExpr, RLValue, RStmt, Slot};
use dstress_platform::session::MemoryBus;
use serde::{Deserialize, Serialize};

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecLimits {
    /// Maximum interpreter steps (roughly: statements + expression nodes).
    pub max_steps: u64,
}

impl ExecLimits {
    /// A budget of `max_steps` interpreter/VM steps. This is the
    /// deterministic watchdog the supervised evaluation runtime plumbs
    /// through: the same virus always trips (or clears) the same budget at
    /// the same step count, on every worker.
    pub fn with_max_steps(max_steps: u64) -> Self {
        ExecLimits { max_steps }
    }
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_steps: 50_000_000,
        }
    }
}

/// Counters describing one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Interpreter steps consumed.
    pub steps: u64,
    /// DRAM loads issued.
    pub reads: u64,
    /// DRAM stores issued.
    pub writes: u64,
    /// `malloc` calls.
    pub allocs: u64,
}

/// The interpreter.
///
/// # Examples
///
/// See [the crate-level example](crate) and the `dstress-vpl` integration
/// tests.
#[derive(Debug)]
pub struct Interpreter {
    limits: ExecLimits,
    stats: ExecStats,
    slots: Vec<Slot>,
    names: Vec<String>,
}

impl Interpreter {
    /// Creates an interpreter with the given limits.
    pub fn new(limits: ExecLimits) -> Self {
        Interpreter {
            limits,
            stats: ExecStats::default(),
            slots: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Executes a fully-instantiated program against a memory bus.
    ///
    /// # Errors
    ///
    /// Returns [`VplError::Runtime`] for dynamic errors (division by zero,
    /// out-of-bounds global index, leftover placeholder),
    /// [`VplError::ExecutionLimit`] when the step budget is exhausted, and
    /// [`VplError::Memory`] when the bus rejects an access.
    pub fn run(
        mut self,
        program: &Program,
        bus: &mut dyn MemoryBus,
    ) -> Result<ExecStats, VplError> {
        let resolved = resolve(program)?;
        // The names move out of the resolver — they are only read for
        // runtime diagnostics, never mutated, so no per-evaluation clone.
        self.names = resolved.names;
        self.slots = vec![Slot::Register(0); self.names.len()];

        // Materialize globals in DRAM. The bound pattern arrays (24 KB row
        // triples and larger) land here, so use the bus's batched fill.
        for (slot, values) in resolved.globals {
            let words = values.len() as u64;
            let base = bus.alloc(words * 8)?;
            self.stats.allocs += 1;
            bus.fill(base, &values)?;
            self.stats.writes += words;
            self.slots[slot as usize] = Slot::Memory { base, words };
        }
        for stmt in &resolved.locals {
            self.exec_stmt(stmt, bus)?;
        }
        for s in &resolved.body {
            self.exec_stmt(s, bus)?;
        }
        Ok(self.stats)
    }

    #[inline]
    fn step(&mut self) -> Result<(), VplError> {
        self.stats.steps += 1;
        if self.stats.steps > self.limits.max_steps {
            Err(VplError::ExecutionLimit {
                steps: self.limits.max_steps,
            })
        } else {
            Ok(())
        }
    }

    fn exec_stmt(&mut self, s: &RStmt, bus: &mut dyn MemoryBus) -> Result<(), VplError> {
        self.step()?;
        match s {
            RStmt::DeclInit { slot, init } => {
                let value = match init {
                    Some(e) => self.eval(e, bus)?,
                    None => 0,
                };
                self.slots[*slot as usize] = Slot::Register(value);
                Ok(())
            }
            RStmt::Expr(e) => self.eval(e, bus).map(|_| ()),
            RStmt::Assign { target, op, value } => {
                let rhs = self.eval(value, bus)?;
                let new = match op {
                    AssignOp::Set => rhs,
                    _ => {
                        let old = self.read_lvalue(target, bus)?;
                        match op {
                            AssignOp::Add => old.wrapping_add(rhs),
                            AssignOp::Sub => old.wrapping_sub(rhs),
                            AssignOp::Mul => old.wrapping_mul(rhs),
                            AssignOp::Div => {
                                if rhs == 0 {
                                    return Err(VplError::Runtime("division by zero".into()));
                                }
                                old / rhs
                            }
                            AssignOp::Set => unreachable!("handled above"),
                        }
                    }
                };
                self.write_lvalue(target, new, bus)
            }
            RStmt::IncDec { target, increment } => {
                let old = self.read_lvalue(target, bus)?;
                let new = if *increment {
                    old.wrapping_add(1)
                } else {
                    old.wrapping_sub(1)
                };
                self.write_lvalue(target, new, bus)
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.exec_stmt(init, bus)?;
                loop {
                    self.step()?;
                    if self.eval(cond, bus)? == 0 {
                        break;
                    }
                    for s in body {
                        self.exec_stmt(s, bus)?;
                    }
                    self.exec_stmt(step, bus)?;
                }
                Ok(())
            }
            RStmt::If { cond, then, els } => {
                let branch = if self.eval(cond, bus)? != 0 {
                    then
                } else {
                    els
                };
                for s in branch {
                    self.exec_stmt(s, bus)?;
                }
                Ok(())
            }
            RStmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(s, bus)?;
                }
                Ok(())
            }
        }
    }

    /// Resolves `base[index]` to a DRAM virtual address, bounds-checking
    /// named global arrays (raw pointers from `malloc` are unchecked, like
    /// the C they model — the bus still rejects unmapped addresses).
    fn element_addr(
        &mut self,
        base: u32,
        index: &RExpr,
        bus: &mut dyn MemoryBus,
    ) -> Result<u64, VplError> {
        let idx = self.eval(index, bus)?;
        match self.slots[base as usize] {
            Slot::Memory { base: addr, words } => {
                if idx >= words {
                    return Err(VplError::Runtime(format!(
                        "index {idx} out of bounds for `{}` ({words} words)",
                        self.names[base as usize]
                    )));
                }
                Ok(addr + idx * 8)
            }
            Slot::Register(pointer) => Ok(pointer.wrapping_add(idx.wrapping_mul(8))),
        }
    }

    fn read_lvalue(&mut self, lv: &RLValue, bus: &mut dyn MemoryBus) -> Result<u64, VplError> {
        match lv {
            RLValue::Slot(slot) => match self.slots[*slot as usize] {
                Slot::Register(v) => Ok(v),
                Slot::Memory { base, .. } => {
                    self.stats.reads += 1;
                    Ok(bus.read_u64(base)?)
                }
            },
            RLValue::Index { base, index } => {
                let addr = self.element_addr(*base, index, bus)?;
                self.stats.reads += 1;
                Ok(bus.read_u64(addr)?)
            }
        }
    }

    fn write_lvalue(
        &mut self,
        lv: &RLValue,
        value: u64,
        bus: &mut dyn MemoryBus,
    ) -> Result<(), VplError> {
        match lv {
            RLValue::Slot(slot) => match self.slots[*slot as usize] {
                Slot::Register(_) => {
                    self.slots[*slot as usize] = Slot::Register(value);
                    Ok(())
                }
                Slot::Memory { base, .. } => {
                    self.stats.writes += 1;
                    Ok(bus.write_u64(base, value)?)
                }
            },
            RLValue::Index { base, index } => {
                let addr = self.element_addr(*base, index, bus)?;
                self.stats.writes += 1;
                Ok(bus.write_u64(addr, value)?)
            }
        }
    }

    fn eval(&mut self, e: &RExpr, bus: &mut dyn MemoryBus) -> Result<u64, VplError> {
        self.step()?;
        match e {
            RExpr::Num(n) => Ok(*n),
            RExpr::Slot(slot) => match self.slots[*slot as usize] {
                Slot::Register(v) => Ok(v),
                // A bare global scalar reference reads its memory cell; a
                // bare global *array* reference decays to its base address.
                Slot::Memory { base, words } => {
                    if words == 1 {
                        self.stats.reads += 1;
                        Ok(bus.read_u64(base)?)
                    } else {
                        Ok(base)
                    }
                }
            },
            RExpr::Index { base, index } => {
                let addr = self.element_addr(*base, index, bus)?;
                self.stats.reads += 1;
                Ok(bus.read_u64(addr)?)
            }
            RExpr::Unary { op, operand } => {
                let v = self.eval(operand, bus)?;
                Ok(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => (v == 0) as u64,
                })
            }
            RExpr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                if matches!(op, BinOp::And) {
                    let l = self.eval(lhs, bus)?;
                    if l == 0 {
                        return Ok(0);
                    }
                    return Ok((self.eval(rhs, bus)? != 0) as u64);
                }
                if matches!(op, BinOp::Or) {
                    let l = self.eval(lhs, bus)?;
                    if l != 0 {
                        return Ok(1);
                    }
                    return Ok((self.eval(rhs, bus)? != 0) as u64);
                }
                let l = self.eval(lhs, bus)?;
                let r = self.eval(rhs, bus)?;
                Ok(match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::Div => {
                        if r == 0 {
                            return Err(VplError::Runtime("division by zero".into()));
                        }
                        l / r
                    }
                    BinOp::Rem => {
                        if r == 0 {
                            return Err(VplError::Runtime("remainder by zero".into()));
                        }
                        l % r
                    }
                    BinOp::Shl => l.wrapping_shl(r as u32),
                    BinOp::Shr => l.wrapping_shr(r as u32),
                    BinOp::BitAnd => l & r,
                    BinOp::BitOr => l | r,
                    BinOp::BitXor => l ^ r,
                    BinOp::Eq => (l == r) as u64,
                    BinOp::Ne => (l != r) as u64,
                    BinOp::Lt => (l < r) as u64,
                    BinOp::Gt => (l > r) as u64,
                    BinOp::Le => (l <= r) as u64,
                    BinOp::Ge => (l >= r) as u64,
                    BinOp::And | BinOp::Or => unreachable!("short-circuited above"),
                })
            }
            RExpr::Malloc(bytes_expr) => {
                let bytes = self.eval(bytes_expr, bus)?;
                if bytes == 0 {
                    return Err(VplError::Runtime("malloc(0) is not allowed".into()));
                }
                self.stats.allocs += 1;
                Ok(bus.alloc(bytes)?)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use dstress_platform::session::{SessionError, VirtAddr};
    use std::collections::HashMap;

    /// A flat in-memory bus for interpreter unit tests.
    #[derive(Debug, Default)]
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

    fn run(global: &str, local: &str, body: &str) -> (MockBus, ExecStats) {
        let program = parse_program(global, local, body).expect("parses");
        let mut bus = MockBus::default();
        let stats = Interpreter::new(ExecLimits::default())
            .run(&program, &mut bus)
            .expect("executes");
        (bus, stats)
    }

    #[test]
    fn globals_are_written_to_memory() {
        let (bus, stats) = run("volatile unsigned long long v[] = { 7, 8, 9 };", "", "");
        assert_eq!(stats.writes, 3);
        assert_eq!(stats.allocs, 1);
        let values: Vec<u64> = bus.memory.values().copied().collect();
        assert!(values.contains(&7) && values.contains(&8) && values.contains(&9));
    }

    #[test]
    fn fill_loop_writes_pattern() {
        let (bus, stats) = run(
            "volatile unsigned long long v[] = { 0, 0, 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 4; i += 1) { v[i] = 0x3333; }",
        );
        assert!(bus.memory.values().filter(|&&v| v == 0x3333).count() == 4);
        assert_eq!(stats.writes, 4 + 4, "4 init writes + 4 loop writes");
    }

    #[test]
    fn locals_are_registers_not_memory() {
        let (bus, _) = run("", "unsigned long long x = 42;", "x = x + 1;");
        assert_eq!(bus.writes, 0, "register traffic must not reach DRAM");
    }

    #[test]
    fn malloc_pointer_indexing_works() {
        let (bus, stats) = run(
            "",
            "int i = 0;",
            "unsigned long long p = malloc(64);\
             for (i = 0; i < 8; i += 1) { p[i] = i * 2; }\
             unsigned long long x = p[3];",
        );
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.writes, 8);
        assert!(bus.memory.values().any(|&v| v == 6));
    }

    #[test]
    fn arithmetic_semantics() {
        let (_, _) = run(
            "",
            "unsigned long long a = 0;",
            "a = (2 + 3) * 4; \
             if (a != 20) { a = 1 / 0; } \
             a = 1 << 63; \
             a = a + a; \
             if (a != 0) { a = 1 / 0; } \
             a = 0 - 1; \
             if (a != 18446744073709551615) { a = 1 / 0; }",
        );
        // Reaching here without a division-by-zero error proves wrapping +,
        // <<, and unsigned underflow semantics.
    }

    #[test]
    fn division_by_zero_is_a_runtime_error() {
        let program = parse_program("", "int a = 1;", "a = a / 0;").unwrap();
        let err = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert!(matches!(err, VplError::Runtime(_)));
    }

    #[test]
    fn remainder_by_zero_is_a_runtime_error() {
        let program = parse_program("", "int a = 1;", "a = a % 0;").unwrap();
        assert!(Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .is_err());
    }

    #[test]
    fn global_array_bounds_are_checked() {
        let program =
            parse_program("volatile unsigned long long v[] = { 1 };", "", "v[5] = 0;").unwrap();
        let err = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        let program = parse_program("", "int i = 0;", "for (;;) { i += 1; }").unwrap();
        let err = Interpreter::new(ExecLimits { max_steps: 10_000 })
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert_eq!(err, VplError::ExecutionLimit { steps: 10_000 });
    }

    #[test]
    fn leftover_placeholder_is_a_runtime_error() {
        let program = parse_program("", "int i = 0;", "i = $$$_P_$$$;").unwrap();
        let err = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert!(err.to_string().contains("survived instantiation"));
    }

    #[test]
    fn undeclared_variable_is_a_runtime_error() {
        let program = parse_program("", "", "ghost = 1;").unwrap();
        let err = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn unknown_function_is_a_runtime_error() {
        let program = parse_program("", "int a = 0;", "a = calloc(8);").unwrap();
        let err = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert!(err.to_string().contains("calloc"));
    }

    #[test]
    fn short_circuit_avoids_rhs_evaluation() {
        // `0 && (1/0)` must not divide; `1 || (1/0)` must not divide.
        run("", "int a = 0;", "a = 0 && 1 / 0; a = 1 || 1 / 0;");
    }

    #[test]
    fn if_else_branches() {
        let (bus, _) = run(
            "volatile unsigned long long out[] = { 0 };",
            "int i = 7;",
            "if (i > 5) { out[0] = 1; } else { out[0] = 2; }",
        );
        assert!(bus.memory.values().any(|&v| v == 1));
    }

    #[test]
    fn global_scalar_reference_reads_memory() {
        let (bus, _) = run(
            "volatile unsigned long long g = 5;",
            "unsigned long long x = 0;",
            "x = g + g;",
        );
        // One init write + two reads of g.
        assert_eq!(bus.reads, 2);
    }

    #[test]
    fn array_reference_decays_to_base_address() {
        let (_, stats) = run(
            "volatile unsigned long long v[] = { 1, 2 };",
            "unsigned long long p = 0;",
            "p = v; p[1] = 9;",
        );
        // Writing through the decayed pointer works: 2 init + 1 store.
        assert_eq!(stats.writes, 3);
    }

    #[test]
    fn stride_expression_like_paper_eq1() {
        // index = a*x + b over a malloc'd row — the paper's Eq. 1 pattern.
        let (bus, _) = run(
            "",
            "int x = 0; unsigned long long a = 3; unsigned long long b = 2;",
            "unsigned long long row = malloc(512);\
             for (x = 0; x < 10; x += 1) { row[(a * x + b) % 64] = 1; }",
        );
        assert!(bus.memory.values().filter(|&&v| v == 1).count() <= 10);
        assert!(bus.writes >= 10);
    }

    #[test]
    fn constant_global_initializer_expressions() {
        let (bus, _) = run(
            "volatile unsigned long long v[] = { 2 + 3, 1 << 4, 100 / 5 };",
            "",
            "",
        );
        let values: Vec<u64> = bus.memory.values().copied().collect();
        assert!(values.contains(&5) && values.contains(&16) && values.contains(&20));
    }

    #[test]
    fn non_constant_global_initializer_is_an_error() {
        let program =
            parse_program("volatile unsigned long long v[] = { malloc(8) };", "", "").unwrap();
        let err = Interpreter::new(ExecLimits::default())
            .run(&program, &mut MockBus::default())
            .unwrap_err();
        assert!(err.to_string().contains("constant"));
    }
}
