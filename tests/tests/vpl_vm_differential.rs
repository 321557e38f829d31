//! Differential property tests: the tree-walking [`Interpreter`] is the
//! reference oracle for the bytecode [`Vm`]. Randomly generated VPL
//! programs — covering `for` loops, `if`/`else`, compound assignment,
//! array indexing, and malloc'd pointers — must produce bit-identical
//! observable behaviour on both tiers: the same `Result` (stats or
//! error, including `ExecutionLimit` and out-of-bounds), the same bus
//! memory image, and the same recorded DRAM trace.

use dstress_platform::session::{SessionError, VirtAddr};
use dstress_platform::{MemoryBus, ServerConfig, XGene2Server};
use dstress_vpl::parser::parse_program;
use dstress_vpl::{compile, ExecLimits, Interpreter, Vm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Flat in-memory bus with full state equality, mirroring the unit-test
/// mock inside the `vpl` crate: bump allocation from 0x1000, 8-byte
/// alignment checks, zero-default loads.
#[derive(Debug, Default, PartialEq)]
struct MirrorBus {
    memory: HashMap<u64, u64>,
    cursor: u64,
    reads: u64,
    writes: u64,
}

impl MemoryBus for MirrorBus {
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

/// Seeded random VPL source generator. Every emitted program parses; the
/// interesting divergence surface is runtime behaviour — loop budgets,
/// out-of-bounds indices, division by zero — which the generator reaches
/// by construction (small arrays, unclamped index arithmetic, random
/// divisors).
struct Gen {
    rng: StdRng,
    /// Declared arrays (name, words) usable as index bases.
    arrays: Vec<(String, u64)>,
    /// Declared scalar variables usable in expressions.
    scalars: Vec<String>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            arrays: Vec::new(),
            scalars: Vec::new(),
        }
    }

    fn leaf(&mut self) -> String {
        if !self.scalars.is_empty() && self.rng.gen_range(0u32..3) > 0 {
            let i = self.rng.gen_range(0..self.scalars.len());
            self.scalars[i].clone()
        } else {
            format!("{}", self.rng.gen_range(0u64..10))
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self.leaf();
        }
        match self.rng.gen_range(0u32..10) {
            0..=2 => self.leaf(),
            3 if !self.arrays.is_empty() => {
                let i = self.rng.gen_range(0..self.arrays.len());
                let base = self.arrays[i].0.clone();
                let idx = self.index_expr(depth - 1, self.arrays[i].1);
                format!("{base}[{idx}]")
            }
            4 => {
                let inner = self.expr(depth - 1);
                let op = ["!", "-"][self.rng.gen_range(0usize..2)];
                format!("{op}({inner})")
            }
            _ => {
                let ops = [
                    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "!=", "<", ">", "<=",
                    ">=", "&&", "||",
                ];
                let op = ops[self.rng.gen_range(0usize..ops.len())];
                let l = self.expr(depth - 1);
                let r = self.expr(depth - 1);
                format!("({l} {op} {r})")
            }
        }
    }

    /// An index expression for an array of `words` elements: usually in
    /// range, sometimes arbitrary arithmetic (which may or may not land in
    /// bounds), sometimes guaranteed out of bounds.
    fn index_expr(&mut self, depth: u32, words: u64) -> String {
        match self.rng.gen_range(0u32..8) {
            0..=4 => format!("{}", self.rng.gen_range(0..words)),
            5 | 6 => self.expr(depth),
            _ => format!("{}", words + self.rng.gen_range(0u64..3)),
        }
    }

    fn lvalue(&mut self, depth: u32) -> String {
        if !self.arrays.is_empty() && self.rng.gen_range(0u32..3) > 0 {
            let i = self.rng.gen_range(0..self.arrays.len());
            let base = self.arrays[i].0.clone();
            let idx = self.index_expr(depth, self.arrays[i].1);
            format!("{base}[{idx}]")
        } else if !self.scalars.is_empty() {
            let i = self.rng.gen_range(0..self.scalars.len());
            self.scalars[i].clone()
        } else {
            // Both pools empty cannot happen (locals are always emitted),
            // but keep the generator total.
            "0".to_string()
        }
    }

    /// A counted loop with a random (possibly nonzero) start: starts at or
    /// past the bound produce zero-trip loops, small spans run a trip or
    /// two, larger ones exercise the back edge.
    fn for_loop(&mut self, depth: u32) -> String {
        let var = ["i", "j"][self.rng.gen_range(0usize..2)];
        let start = self.rng.gen_range(0u64..5);
        let bound = self.rng.gen_range(0u64..7);
        let body = self.block(depth - 1);
        format!("for ({var} = {start}; {var} < {bound}; {var} += 1) {{ {body} }}")
    }

    fn stmt(&mut self, depth: u32) -> String {
        match self.rng.gen_range(0u32..14) {
            0..=3 => {
                let lv = self.lvalue(1);
                let op = ["=", "+=", "-=", "*=", "/="][self.rng.gen_range(0usize..5)];
                let value = self.expr(2);
                format!("{lv} {op} {value};")
            }
            4 => {
                let lv = self.lvalue(1);
                let op = ["++", "--"][self.rng.gen_range(0usize..2)];
                format!("{lv}{op};")
            }
            5 | 6 if depth > 0 => {
                let cond = self.expr(2);
                let then = self.block(depth - 1);
                if self.rng.gen_range(0u32..2) == 0 {
                    format!("if ({cond}) {{ {then} }}")
                } else {
                    let els = self.block(depth - 1);
                    format!("if ({cond}) {{ {then} }} else {{ {els} }}")
                }
            }
            7 | 8 if depth > 0 => self.for_loop(depth),
            // Guaranteed nesting: an outer `i` loop around an inner `j`
            // loop, regardless of what the depth-driven recursion rolls.
            9 if depth > 1 => {
                let outer_bound = self.rng.gen_range(1u64..4);
                let inner = self.for_loop(depth - 1);
                format!("for (i = 0; i < {outer_bound}; i += 1) {{ {inner} }}")
            }
            // Aliasing stores: two writes into the same array through
            // different index expressions (which may collide), with a read
            // of a third index in between — a trap for any compiler rewrite
            // that assumes distinct syntactic indices are distinct cells.
            10 if !self.arrays.is_empty() => {
                let k = self.rng.gen_range(0..self.arrays.len());
                let (base, words) = self.arrays[k].clone();
                let i1 = self.index_expr(1, words);
                let i2 = self.index_expr(1, words);
                let i3 = self.index_expr(1, words);
                let v = self.expr(1);
                format!("{base}[{i1}] = {v}; {base}[{i2}] += {base}[{i3}];")
            }
            // A loop-carried dependence: a scalar accumulator folded over
            // the induction variable and an expression — the accumulator's
            // value flows around the back edge, so it must never be hoisted
            // or dropped.
            11 | 12 if depth > 0 && !self.scalars.is_empty() => {
                let s = self.rng.gen_range(0..self.scalars.len());
                let acc = self.scalars[s].clone();
                let var = ["i", "j"][self.rng.gen_range(0usize..2)];
                let start = self.rng.gen_range(0u64..3);
                let bound = self.rng.gen_range(0u64..6);
                let k = self.rng.gen_range(1u64..9);
                let extra = self.expr(1);
                format!(
                    "for ({var} = {start}; {var} < {bound}; {var} += 1) \
                     {{ {acc} += {var} * {k} + {extra}; }}"
                )
            }
            _ => {
                let lv = self.lvalue(1);
                format!("{lv} = {};", self.expr(1))
            }
        }
    }

    fn block(&mut self, depth: u32) -> String {
        let n = self.rng.gen_range(1usize..4);
        (0..n)
            .map(|_| self.stmt(depth))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Emits one complete random program as (global, local, body) source.
    fn program(&mut self) -> (String, String, String) {
        let mut global = String::new();
        for k in 0..self.rng.gen_range(1usize..3) {
            let words = self.rng.gen_range(1u64..6);
            let init: Vec<String> = (0..words)
                .map(|_| format!("{:#x}", self.rng.gen_range(0u64..=u64::MAX)))
                .collect();
            global.push_str(&format!(
                "volatile unsigned long long g{k}[] = {{ {} }};\n",
                init.join(", ")
            ));
            self.arrays.push((format!("g{k}"), words));
        }
        if self.rng.gen_range(0u32..2) == 0 {
            global.push_str(&format!(
                "volatile unsigned long long gs = {};\n",
                self.rng.gen_range(0u64..100)
            ));
            self.scalars.push("gs".to_string());
        }
        let local = format!(
            "int i = 0; int j = 0; unsigned long long a = {}; unsigned long long b = {};",
            self.rng.gen_range(0u64..50),
            self.rng.gen_range(0u64..50)
        );
        for name in ["i", "j", "a", "b"] {
            self.scalars.push(name.to_string());
        }
        let mut body = String::new();
        if self.rng.gen_range(0u32..2) == 0 {
            let words = self.rng.gen_range(1u64..8);
            body.push_str(&format!("unsigned long long p = malloc({});\n", words * 8));
            self.arrays.push(("p".to_string(), words));
        }
        let n = self.rng.gen_range(2usize..6);
        for _ in 0..n {
            body.push_str(&self.stmt(2));
            body.push('\n');
        }
        (global, local, body)
    }
}

/// Runs one generated program through both tiers on mirrored buses and
/// asserts the full observable state matches.
fn assert_mirror_parity(seed: u64, limits: ExecLimits) -> Result<(), TestCaseError> {
    let (global, local, body) = Gen::new(seed).program();
    let program = parse_program(&global, &local, &body)
        .unwrap_or_else(|e| panic!("generated program must parse ({e}):\n{body}"));
    let mut ibus = MirrorBus::default();
    let iresult = Interpreter::new(limits).run(&program, &mut ibus);
    let mut vbus = MirrorBus::default();
    let vresult = compile(&program).and_then(|c| Vm::new(limits).run(&c, &mut vbus));
    prop_assert_eq!(
        &iresult,
        &vresult,
        "result mismatch (seed {}, max_steps {}):\n{}",
        seed,
        limits.max_steps,
        body
    );
    prop_assert_eq!(
        &ibus,
        &vbus,
        "bus state mismatch (seed {}, max_steps {}):\n{}",
        seed,
        limits.max_steps,
        body
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Generated programs — loops, branches, compound assigns, array and
    /// pointer indexing — behave identically under a generous budget.
    /// Runtime errors (out-of-bounds indices, division by zero) arise by
    /// construction and must carry identical error values.
    #[test]
    fn generated_programs_agree(seed in any::<u64>()) {
        let limits = ExecLimits { max_steps: 100_000 };
        assert_mirror_parity(seed, limits)?;
    }

    /// Tight budgets: every possible `ExecutionLimit` crossing point must
    /// be hit identically — same error, same partial bus state. Budgets
    /// below the program's step count land mid-loop, mid-branch, and
    /// mid-statement across seeds.
    #[test]
    fn generated_programs_agree_under_tight_budgets(
        seed in any::<u64>(),
        max_steps in 0u64..300,
    ) {
        assert_mirror_parity(seed, ExecLimits { max_steps })?;
    }
}

/// Out-of-bounds error parity, pinned (not left to generator luck): the
/// index, the array name, and the word count in the error must match.
#[test]
fn out_of_bounds_errors_match_exactly() {
    for (body, idx) in [
        ("a = g0[7];", 7u64),
        ("g0[3 + 4] = 1;", 7),
        ("g0[2 * 5] += 3;", 10),
        ("g0[4]++;", 4),
    ] {
        let program = parse_program(
            "volatile unsigned long long g0[] = { 1, 2, 3 };",
            "unsigned long long a = 0;",
            body,
        )
        .expect("parses");
        let limits = ExecLimits::default();
        let mut ibus = MirrorBus::default();
        let ierr = Interpreter::new(limits)
            .run(&program, &mut ibus)
            .unwrap_err();
        let mut vbus = MirrorBus::default();
        let verr = compile(&program)
            .and_then(|c| Vm::new(limits).run(&c, &mut vbus))
            .unwrap_err();
        assert_eq!(ierr, verr, "OOB error mismatch for `{body}`");
        assert!(
            format!("{ierr}").contains(&format!("index {idx} out of bounds")),
            "unexpected message: {ierr}"
        );
        assert_eq!(ibus, vbus);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end trace parity through the real platform: the same
    /// generated program run against identically configured servers —
    /// one via the interpreter, one via the compiled VM — must record the exact same DRAM trace and session
    /// stats (the trace feeds the replay model, so any divergence here
    /// changes manifested errors).
    #[test]
    fn session_traces_are_bit_identical(seed in any::<u64>()) {
        let (global, local, body) = Gen::new(seed).program();
        let program = parse_program(&global, &local, &body).expect("generated program parses");
        let limits = ExecLimits { max_steps: 100_000 };

        let mut iserver = XGene2Server::new(ServerConfig::default());
        let mut isession = iserver.session(2);
        let iresult = Interpreter::new(limits).run(&program, &mut isession);
        let itrace = isession.finish();

        let mut vserver = XGene2Server::new(ServerConfig::default());
        let mut vsession = vserver.session(2);
        let vresult = compile(&program).and_then(|c| Vm::new(limits).run(&c, &mut vsession));
        let vtrace = vsession.finish();

        prop_assert_eq!(
            &iresult, &vresult,
            "session result mismatch (seed {}):\n{}", seed, body
        );
        prop_assert_eq!(
            &itrace, &vtrace,
            "recorded trace mismatch (seed {}):\n{}", seed, body
        );
    }
}
