//! The public names of the retired optimizing pass pipeline.
//!
//! [`crate::compile`] is the only compile path: the baseline compiler with
//! its fused-loop peephole. The loop passes that used to run after it
//! (LICM, strength reduction, dead-store elimination, unrolling) never
//! paid for their compile time on any benchmarked workload (DESIGN.md,
//! "One compile path"), so they are gone. What stays are the three names
//! the perfbench harness compiles through; none of them carries a value or
//! selects a behaviour. Remove them together with perfbench's use of them
//! at the next change to the benchmark.

use crate::ast::Program;
use crate::bytecode::{self, CompiledProgram};
use crate::error::VplError;

/// The pass selection [`compile_opt`] takes: there is nothing to select.
/// Kept for perfbench; goes with the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassConfig;

/// The optimization level perfbench asks for: there is only one.
/// Kept for perfbench; goes with the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptLevel;

impl OptLevel {
    /// The (empty) pass selection.
    pub const fn config(self) -> PassConfig {
        PassConfig
    }
}

/// [`crate::compile`] under the pass pipeline's old name. Kept for
/// perfbench; goes with the next change to the benchmark.
///
/// # Errors
///
/// The compile-time errors of [`crate::compile`].
pub fn compile_opt(program: &Program, _config: &PassConfig) -> Result<CompiledProgram, VplError> {
    bytecode::compile(program)
}

#[cfg(test)]
mod tests {
    //! Differential tests of the compile path: every crafted loop shape is
    //! compiled, run on the VM and held against the interpreter oracle,
    //! including a full budget sweep so every `ExecutionLimit` crossing
    //! point is pinned.

    use super::*;
    use crate::disasm::disassemble;
    use crate::interp::{ExecLimits, Interpreter};
    use crate::parser::parse_program;
    use crate::vm::Vm;
    use dstress_platform::session::{MemoryBus, SessionError, VirtAddr};
    use std::collections::HashMap;

    /// Same flat in-memory bus as the vm unit tests.
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

    /// Asserts interpreter/VM parity for one program under one limit: the
    /// `Result` (stats or error value), the bus memory image, and the bus
    /// access counters must all match.
    fn assert_parity(global: &str, local: &str, body: &str, limits: ExecLimits) {
        let program = parse_program(global, local, body).expect("parses");
        let mut ibus = MockBus::default();
        let iresult = Interpreter::new(limits).run(&program, &mut ibus);
        let mut vbus = MockBus::default();
        let vresult = compile_opt(&program, &OptLevel.config())
            .and_then(|c| Vm::new(limits).run(&c, &mut vbus));
        assert_eq!(
            iresult, vresult,
            "result mismatch (max_steps {}) for body: {body}",
            limits.max_steps
        );
        assert_eq!(
            ibus, vbus,
            "bus mismatch (max_steps {}) for body: {body}",
            limits.max_steps
        );
    }

    /// Parity at the default budget plus a full sweep over tight budgets,
    /// so every `ExecutionLimit` crossing point is exercised.
    fn sweep(global: &str, local: &str, body: &str, max: u64) {
        assert_parity(global, local, body, ExecLimits::default());
        for max_steps in 0..max {
            assert_parity(global, local, body, ExecLimits { max_steps });
        }
    }

    #[test]
    fn licm_shape_invariant_arithmetic() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0, 0, 0 };",
            "int i = 0; unsigned long long a = 7;",
            "for (i = 0; i < 6; i += 1) { v[i] = a * 3 + 9; }",
            220,
        );
    }

    #[test]
    fn strength_shape_induction_multiply() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0, 0, 0, 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 8; i += 1) { v[i] = i * 24; }",
            260,
        );
    }

    #[test]
    fn strength_shape_power_of_two_and_identities() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0 };",
            "int i = 0; unsigned long long x = 5;",
            "for (i = 0; i < 4; i += 1) { v[i] = i * 8 + x * 1 + 0; } v[0] = x & 0;",
            200,
        );
    }

    #[test]
    fn dse_shape_overwritten_and_unused_locals() {
        sweep(
            "volatile unsigned long long v[] = { 3, 1, 4, 1, 5 };",
            "int i = 0; unsigned long long t = 0; unsigned long long dead = 0;",
            "for (i = 0; i < 5; i += 1) { t = v[i]; dead = t + 1; } v[0] = t;",
            260,
        );
    }

    #[test]
    fn unroll_shape_short_constant_trips() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 3; i += 1) { v[i] = i + 40; }",
            160,
        );
    }

    #[test]
    fn unroll_shape_zero_trip_and_nonzero_start() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0 };",
            "int i = 0;",
            "for (i = 5; i < 3; i += 1) { v[i] = 1; } \
             for (i = 2; i < 4; i += 1) { v[i] = i; }",
            160,
        );
    }

    #[test]
    fn unroll_shape_branch_in_body() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 3; i += 1) { if (i == 1) { v[i] = 10; } else { v[i] = 20; } }",
            200,
        );
    }

    #[test]
    fn nested_loops_with_aliasing_stores() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0, 0 };",
            "int i = 0; int j = 0;",
            "for (i = 0; i < 3; i += 1) { \
               for (j = 0; j < 2; j += 1) { v[i + j] += i * 2 + 1; } \
               v[0] = v[i]; \
             }",
            400,
        );
    }

    #[test]
    fn loop_carried_dependence_accumulator() {
        sweep(
            "volatile unsigned long long v[] = { 1, 2, 3, 4, 5, 6 };",
            "int i = 0; unsigned long long acc = 0;",
            "for (i = 0; i < 6; i += 1) { acc += v[i] + i * 4; } v[0] = acc;",
            300,
        );
    }

    #[test]
    fn fused_fill_loop_stays_exact_through_passes() {
        // The fill shape fuses into a superinstruction that replays its
        // fallback window's charges; both the fast path and the fallback
        // must stay byte-exact under every budget.
        sweep(
            "volatile unsigned long long v[] = { 0, 0, 0, 0, 0, 0, 0, 0 };",
            "int i = 0; unsigned long long s = 0;",
            "for (i = 0; i < 8; i += 1) { v[i] = 12297829382473034410; } \
             for (i = 0; i < 8; i += 1) { s += v[i]; } \
             v[0] = s;",
            320,
        );
    }

    #[test]
    fn out_of_bounds_error_is_identical_through_passes() {
        sweep(
            "volatile unsigned long long v[] = { 0, 0 };",
            "int i = 0;",
            "for (i = 0; i < 4; i += 1) { v[i] = i * 2; }",
            120,
        );
    }

    #[test]
    fn none_config_is_bit_identical_to_plain_compile() {
        let program = parse_program(
            "volatile unsigned long long v[] = { 0, 0, 0, 0 };",
            "int i = 0; unsigned long long a = 7;",
            "for (i = 0; i < 4; i += 1) { v[i] = a * 3; }",
        )
        .expect("parses");
        let plain = crate::bytecode::compile(&program).expect("compiles");
        let opt = compile_opt(&program, &OptLevel.config()).expect("compiles");
        assert_eq!(format!("{:?}", plain.ops), format!("{:?}", opt.ops));
    }

    #[test]
    fn disassembly_names_slots_and_indexes_ops() {
        let program = parse_program(
            "volatile unsigned long long buf[] = { 1, 2 };",
            "int i = 0;",
            "for (i = 0; i < 2; i += 1) { buf[i] += 1; }",
        )
        .expect("parses");
        let c = crate::bytecode::compile(&program).expect("compiles");
        let text = disassemble(&c);
        assert!(text.contains("<buf>"), "global name missing:\n{text}");
        assert!(text.contains("<i>"), "local name missing:\n{text}");
        assert!(text.starts_with("; slots="), "header missing:\n{text}");
    }
}
