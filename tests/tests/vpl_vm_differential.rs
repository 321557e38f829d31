//! Differential property tests: the tree-walking [`Interpreter`] is the
//! reference oracle for the bytecode [`Vm`]. Randomly generated VPL
//! programs — covering `for` loops, `if`/`else`, compound assignment,
//! array indexing, malloc'd pointers, the offset copy and reduce loops
//! the VM fuses, comparisons as values and as conditions, division by
//! immediates (zero included), and local declarations that shadow a
//! global — must produce bit-identical
//! observable behaviour on both tiers: the same `Result` (stats or
//! error, including `ExecutionLimit` and out-of-bounds), the same bus
//! memory image, and the same recorded DRAM trace.

use dstress::templates::{process, ROW_ACCESS, STRIDE_ACCESS};
use dstress::{EnvKind, ExperimentScale, WORST_WORD};
use dstress_dram::geometry::RowKey;
use dstress_platform::session::{SessionError, VirtAddr};
use dstress_platform::{MemoryBus, ServerConfig, XGene2Server};
use dstress_vpl::parser::parse_program;
use dstress_vpl::{compile, BoundValue, ExecLimits, FusedShape, Interpreter, ParamShape, Vm};
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

/// The gather loops [`Gen::gather_loop`] emits: the fused shape and each
/// of its near misses, which must run unfused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GatherKind {
    /// `base = gt[v * k + lane]; acc ∘= arr[base + off]`, `off` invariant.
    Fused,
    /// A store after the gather.
    Store,
    /// An immediate-lane table index that runs past `gt` inside the loop.
    TablePastEnd,
    /// An offset that depends on the counter.
    CounterOffset,
    /// An offset taken modulo zero.
    ZeroDivisor,
    /// An offset taken modulo a local.
    RegisterDivisor,
    /// `base` written between the two reads.
    BaseWritten,
    /// The counter written between the two reads.
    CounterWritten,
    /// `base` is the global `gs`, just shadowed by a local declaration.
    GlobalBase,
    /// The accumulator is the global `gs`, just shadowed.
    GlobalAcc,
}

impl GatherKind {
    const ALL: [GatherKind; 10] = [
        GatherKind::Fused,
        GatherKind::Store,
        GatherKind::TablePastEnd,
        GatherKind::CounterOffset,
        GatherKind::ZeroDivisor,
        GatherKind::RegisterDivisor,
        GatherKind::BaseWritten,
        GatherKind::CounterWritten,
        GatherKind::GlobalBase,
        GatherKind::GlobalAcc,
    ];
}

/// Words of the gather table `gt`.
const GATHER_TABLE_WORDS: u64 = 6;

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
    /// The gather loops emitted so far, by kind.
    gathers: Vec<GatherKind>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            arrays: Vec::new(),
            scalars: Vec::new(),
            gathers: Vec::new(),
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
            // `/` and `%` by an immediate: powers of two (the top bit
            // included), 1, and 0, which must fail at the same step.
            5 => {
                let inner = self.expr(depth - 1);
                let op = ["/", "%"][self.rng.gen_range(0usize..2)];
                format!("({inner} {op} {})", self.divisor())
            }
            // A comparison used as a value.
            6 => {
                let l = self.expr(depth - 1);
                let r = self.expr(depth - 1);
                format!("({l} {} {r})", self.comparison())
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

    /// An immediate divisor: a power of two (`0x8000000000000000` the
    /// largest), 1, 3, or 0.
    fn divisor(&mut self) -> &'static str {
        ["1", "2", "4", "0x8000000000000000", "0", "3"][self.rng.gen_range(0usize..6)]
    }

    fn comparison(&mut self) -> &'static str {
        ["==", "!=", "<", ">", "<=", ">="][self.rng.gen_range(0usize..6)]
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
        // Every condition ends the loop once `var` passes `bound`.
        let cond = match self.rng.gen_range(0u32..6) {
            0 => format!("{var} <= {bound}"),
            1 => format!("{bound} > {var}"),
            2 => format!("!({var} >= {bound})"),
            3 => format!("{var} < {bound} && {var} != 9"),
            _ => format!("{var} < {bound}"),
        };
        format!("for ({var} = {start}; {cond}; {var} += 1) {{ {body} }}")
    }

    /// A loop in the offset copy or offset reduce shape the VM fuses:
    /// `dst[off + v] = src[v]` or `acc ∘= base[off + v]`, with the offset a
    /// local or the DRAM scalar `gs` (whose guard must decline), set just
    /// before the loop, plus or minus an immediate. Source and destination
    /// may be one array with overlapping spans, the offset may run a named
    /// array out of bounds or wrap a `malloc` pointer mid-span, and a start
    /// at or past the bound gives a zero-trip loop.
    fn offset_loop(&mut self) -> String {
        let var = ["i", "j"][self.rng.gen_range(0usize..2)];
        let start = self.rng.gen_range(0u64..3);
        let bound = self.rng.gen_range(0u64..8);
        let mut offsets = vec!["a", "b"];
        if self.scalars.iter().any(|s| s == "gs") {
            offsets.push("gs");
        }
        let off_slot = offsets[self.rng.gen_range(0..offsets.len())];
        let set = format!("{off_slot} = {};", self.rng.gen_range(0u64..5));
        let k = self.rng.gen_range(1u64..4);
        let off = match self.rng.gen_range(0u32..3) {
            0 => off_slot.to_string(),
            1 => format!("{off_slot} + {k}"),
            _ => format!("{off_slot} - {k}"),
        };
        let index = if self.rng.gen_range(0u32..2) == 0 {
            format!("{off} + {var}")
        } else {
            format!("{var} + ({off})")
        };
        let pick = |g: &mut Self| g.arrays[g.rng.gen_range(0..g.arrays.len())].0.clone();
        let body = if self.rng.gen_range(0u32..2) == 0 {
            let (dst, src) = (pick(self), pick(self));
            format!("{dst}[{index}] = {src}[{var}];")
        } else {
            let acc = if off_slot == "a" { "b" } else { "a" };
            let op = ["+=", "-=", "*="][self.rng.gen_range(0usize..3)];
            let base = pick(self);
            format!("{acc} {op} {base}[{index}];")
        };
        format!("{set} for ({var} = {start}; {var} < {bound}; {var} += 1) {{ {body} }}")
    }

    /// A loop in the access templates' gather shape the VM fuses,
    /// `base = gt[v * k + lane]; acc ∘= arr[base + off]` with `off`
    /// loop-invariant (reads of `gt` at invariant indices, arithmetic on
    /// the other counter, an immediate divisor), or one of its near misses
    /// ([`GatherKind`]). `gt` holds small words, so a gather into a named
    /// array lands in bounds or runs out of them mid-loop, and one through
    /// `p` stays near its allocation; an invariant read may also run past
    /// `gt` in the first iteration.
    fn gather_loop(&mut self) -> String {
        let has_gs = self.scalars.iter().any(|s| s == "gs");
        let mut kind = GatherKind::ALL[self.rng.gen_range(0..GatherKind::ALL.len())];
        if matches!(kind, GatherKind::GlobalBase | GatherKind::GlobalAcc) && !has_gs {
            kind = GatherKind::Fused;
        }
        let (var, other) = [("i", "j"), ("j", "i")][self.rng.gen_range(0usize..2)];
        let (mut base, mut acc) = [("a", "b"), ("b", "a")][self.rng.gen_range(0usize..2)];
        let mut prefix = String::new();
        match kind {
            GatherKind::GlobalBase => base = "gs",
            GatherKind::GlobalAcc => acc = "gs",
            _ => {}
        }
        if base == "gs" || acc == "gs" {
            prefix = format!("unsigned long long gs = {}; ", self.rng.gen_range(0u64..4));
        }
        let stride = self.rng.gen_range(1u64..3);
        let start = self.rng.gen_range(0u64..2);
        let (lane, bound) = if kind == GatherKind::TablePastEnd {
            let lane = self.rng.gen_range(0u64..2);
            (lane.to_string(), (GATHER_TABLE_WORDS - lane) / stride + 2)
        } else if self.rng.gen_range(0u32..3) == 0 {
            (other.to_string(), self.rng.gen_range(0u64..4))
        } else {
            let lane = self.rng.gen_range(0u64..2);
            let last = (GATHER_TABLE_WORDS - 1 - lane) / stride;
            (lane.to_string(), self.rng.gen_range(0..=last + 1))
        };
        let m = [1u64, 3, 4, 128][self.rng.gen_range(0usize..4)];
        let off = match kind {
            GatherKind::CounterOffset => format!("({var} * 3) % {m}"),
            GatherKind::ZeroDivisor => format!("({other} * 9) % 0"),
            GatherKind::RegisterDivisor => format!("({other} * 9) % {other}"),
            _ => match self.rng.gen_range(0u32..4) {
                0 => format!(
                    "(gt[{}] * {other} + gt[{}]) % {m}",
                    self.rng.gen_range(0..GATHER_TABLE_WORDS + 1),
                    self.rng.gen_range(0..GATHER_TABLE_WORDS)
                ),
                1 => format!("({other} * 9) % {m}"),
                2 => other.to_string(),
                _ => self.rng.gen_range(0u64..3).to_string(),
            },
        };
        let arr = if self.arrays.iter().any(|(a, _)| a == "p") && self.rng.gen_range(0u32..2) == 0 {
            "p".to_string()
        } else {
            self.arrays[self.rng.gen_range(0..self.arrays.len())]
                .0
                .clone()
        };
        let op = ["+=", "-=", "*="][self.rng.gen_range(0usize..3)];
        let between = match kind {
            GatherKind::BaseWritten => format!("{base} += 1; "),
            GatherKind::CounterWritten => format!("{var} += 0; "),
            _ => String::new(),
        };
        let after = match kind {
            GatherKind::Store => format!(" {arr}[0] = {acc};"),
            _ => String::new(),
        };
        self.gathers.push(kind);
        format!(
            "{prefix}for ({var} = {start}; {var} < {bound}; {var} += 1) {{ \
             {base} = gt[{var} * {stride} + {lane}]; {between}\
             {acc} {op} {arr}[{base} + {off}];{after} }}"
        )
    }

    fn stmt(&mut self, depth: u32) -> String {
        match self.rng.gen_range(0u32..20) {
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
            13 if depth > 0 && !self.arrays.is_empty() => self.gather_loop(),
            14 | 15 if depth > 0 && !self.arrays.is_empty() => self.offset_loop(),
            // `/=` on a local by an immediate divisor.
            16 => {
                let local = ["i", "j", "a", "b"][self.rng.gen_range(0usize..4)];
                format!("{local} /= {};", self.divisor())
            }
            // A comparison as an `if` condition.
            17 if depth > 0 => {
                let l = self.expr(1);
                let r = self.expr(1);
                let cmp = self.comparison();
                let then = self.block(depth - 1);
                let els = self.block(depth - 1);
                format!("if ({l} {cmp} {r}) {{ {then} }} else {{ {els} }}")
            }
            // A local declaration that shadows a global: from here on the
            // global's name is a register, the one run-time change of a
            // slot's kind. Inside a branch or loop the change is taken on
            // some paths only.
            18 if self.scalars.iter().any(|s| s == "gs") => {
                format!("unsigned long long gs = {};", self.expr(1))
            }
            19 if !self.arrays.is_empty() => {
                let (name, words) = self.arrays[self.rng.gen_range(0..self.arrays.len())].clone();
                format!("unsigned long long {name} = malloc({});", words * 8)
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
        if !self.gathers.is_empty() {
            let words: Vec<String> = (0..GATHER_TABLE_WORDS)
                .map(|_| self.rng.gen_range(0u64..6).to_string())
                .collect();
            global.push_str(&format!(
                "volatile unsigned long long gt[] = {{ {} }};\n",
                words.join(", ")
            ));
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

/// The generator must actually reach the fused offset shapes, or the
/// proptests above would not cover them.
#[test]
fn generator_reaches_the_offset_shapes() {
    let mut shapes = Vec::new();
    for seed in 0..200 {
        let (global, local, body) = Gen::new(seed).program();
        let program = parse_program(&global, &local, &body).expect("generated program parses");
        shapes.extend(compile(&program).expect("compiles").fused_shapes());
    }
    for shape in [FusedShape::Copy, FusedShape::OffsetReduce] {
        assert!(shapes.contains(&shape), "no {shape:?} loop in 200 seeds");
    }
}

/// The generator must reach the fused gather and each of its near misses,
/// and the plain shape must fuse.
#[test]
fn generator_reaches_the_gather_shapes() {
    let mut kinds = Vec::new();
    let mut fused = false;
    for seed in 0..200 {
        let mut gen = Gen::new(seed);
        let (global, local, body) = gen.program();
        let program = parse_program(&global, &local, &body).expect("generated program parses");
        let shapes = compile(&program).expect("compiles").fused_shapes();
        fused |= shapes.contains(&FusedShape::Gather);
        kinds.extend(gen.gathers);
    }
    assert!(fused, "no fused gather in 200 seeds");
    for kind in GatherKind::ALL {
        assert!(
            kinds.contains(&kind),
            "no {kind:?} gather loop in 200 seeds"
        );
    }
}

/// The generator must also reach the shapes that change what the
/// compiler emits: a global shadowed by a local declaration, division by
/// an immediate power of two and by zero, `/=` on a local, and
/// comparisons as values and as conditions.
#[test]
fn generator_reaches_shadowing_divisors_and_comparisons() {
    let sources: Vec<String> = (0..200).map(|seed| Gen::new(seed).program().2).collect();
    for needle in [
        "unsigned long long gs = ",
        "unsigned long long g0 = malloc(",
        " / 0x8000000000000000)",
        " % 4)",
        " / 0)",
        "a /= ",
        "if ((",
        " <= ",
        "!(i >= ",
    ] {
        assert!(
            sources.iter().any(|s| s.contains(needle)),
            "no `{needle}` in 200 seeds"
        );
    }
}

/// More locals than a 16-bit register index can name: every one of them
/// keeps its value, the last ones serve as loop counter, accumulator and
/// pointer, and both tiers agree on the result and the bus.
#[test]
fn seventy_thousand_locals_run_identically() {
    const N: usize = 70_000;
    let local: String = (0..N)
        .map(|k| format!("unsigned long long l{k} = {};", k % 97))
        .collect();
    let body = format!(
        "unsigned long long p = malloc(64); \
         for (l{c} = 0; l{c} < 8; l{c} += 1) {{ p[l{c}] = l{c} * 3 + l{a}; }} \
         for (l{c} = 0; l{c} < 8; l{c} += 1) {{ l{a} += p[l{c}]; }} \
         l{b} /= 4; l{b} += l{a} + l1 + l{mid}; out[0] = l{b}; out[1] = l{c}; out[2] = p[7];",
        a = N - 1,
        b = N - 2,
        c = N - 3,
        mid = N / 2,
    );
    let program = parse_program(
        "volatile unsigned long long out[] = { 0, 0, 0 };",
        &local,
        &body,
    )
    .expect("parses");
    let limits = ExecLimits::default();
    let mut ibus = MirrorBus::default();
    let iresult = Interpreter::new(limits).run(&program, &mut ibus);
    let mut vbus = MirrorBus::default();
    let vresult = compile(&program).and_then(|c| Vm::new(limits).run(&c, &mut vbus));
    assert!(iresult.is_ok(), "{iresult:?}");
    assert_eq!(iresult, vresult);
    assert_eq!(ibus, vbus);
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

/// A bus fault inside a fused gather surfaces at the same read on both
/// tiers, with the same trace before it: a gather read that leaves every
/// allocation in the third iteration, and an invariant read through a
/// pointer to unmapped memory in the first.
#[test]
fn gather_bus_faults_surface_at_the_same_read() {
    for off in ["(x * 9) % 8", "q[1] % 4"] {
        let program = parse_program(
            "volatile unsigned long long t[] = { 0, 1, 100000000, 3 };",
            "unsigned long long x = 1; unsigned long long v = 0; unsigned long long base = 0; \
             unsigned long long acc = 0; unsigned long long q = 8;",
            &format!(
                "unsigned long long buf = malloc(64); \
                 for (v = 0; v < 4; v += 1) {{ base = t[v]; acc += buf[base + {off}]; }}"
            ),
        )
        .expect("parses");
        let compiled = compile(&program).expect("compiles");
        assert_eq!(compiled.fused_shapes(), [FusedShape::Gather]);
        let limits = ExecLimits::default();
        let mut iserver = XGene2Server::new(ServerConfig::default());
        let mut isession = iserver.session(2);
        let iresult = Interpreter::new(limits).run(&program, &mut isession);
        let itrace = isession.finish();
        let mut vserver = XGene2Server::new(ServerConfig::default());
        let mut vsession = vserver.session(2);
        let vresult = Vm::new(limits).run(&compiled, &mut vsession);
        let vtrace = vsession.finish();
        assert!(
            matches!(
                iresult,
                Err(dstress_vpl::VplError::Memory(SessionError::Unmapped(_)))
            ),
            "{iresult:?}"
        );
        assert_eq!(iresult, vresult, "{off}");
        assert_eq!(itrace, vtrace, "{off}");
    }
}

/// An access template instantiated at `scale` with `cuts` overriding
/// environment bindings. The stride coefficients and the row selection
/// vary per element, so both arms of `if (sel[r])` run.
fn access_virus(
    scale: &ExperimentScale,
    template: &str,
    env: &EnvKind,
    cuts: &[(&str, u64)],
) -> dstress_vpl::ast::Program {
    let template = process(template, scale).expect("template processes");
    let mut bindings = env.bindings(scale).expect("env bindings");
    for &(name, value) in cuts {
        bindings.insert(name.into(), BoundValue::Scalar(value));
    }
    for p in template.params() {
        let ParamShape::Array { len, hi, .. } = p.shape else {
            panic!("access templates search arrays");
        };
        let values = (0..len).map(|k| (k * 7 + 3) % (hi + 1)).collect();
        bindings.insert(p.name.clone(), BoundValue::Array(values));
    }
    template.instantiate(&bindings).expect("instantiates")
}

/// The stride and row access viruses around `victims` mid-DIMM rows in
/// adjacent banks, with their repetition counts cut to `reps` (`None`:
/// as the scale binds them) and the background fill to `fill_words`.
fn access_viruses(
    scale: &ExperimentScale,
    victims: u8,
    reps: Option<u64>,
    fill_words: Option<u64>,
) -> [dstress_vpl::ast::Program; 2] {
    let geo = scale.server.dimm.geometry;
    let victims: Vec<RowKey> = (1..=victims)
        .map(|bank| RowKey::new(0, bank, geo.rows_per_bank / 2))
        .collect();
    let stride = EnvKind::StrideAccess {
        victims: victims.clone(),
        fill: WORST_WORD,
    };
    let row = EnvKind::RowAccess {
        victims,
        fill: WORST_WORD,
    };
    let cuts = |reps_name| {
        let mut cuts: Vec<(&str, u64)> = Vec::new();
        cuts.extend(reps.map(|r| (reps_name, r)));
        cuts.extend(fill_words.map(|w| ("MEM_WORDS", w)));
        cuts
    };
    [
        access_virus(scale, STRIDE_ACCESS, &stride, &cuts("X_ITERS")),
        access_virus(scale, ROW_ACCESS, &row, &cuts("REPS")),
    ]
}

/// Every `ExecutionLimit` crossing of the quick-scale stride and row access
/// viruses, from a zero budget to the full run: the same `Result` and bus
/// state on both tiers at each one. The repetitions are cut to 2 and the
/// background fill to 16 words so that sweeping every budget stays cheap:
/// the gather loops and their branches are what this pins; the fused fill
/// is swept elsewhere. With one victim a fused gather runs one iteration;
/// with two, a budget also lands between its iterations.
#[test]
fn access_templates_agree_at_every_budget() {
    let scale = ExperimentScale::quick();
    for victims in [1, 2] {
        for program in access_viruses(&scale, victims, Some(2), Some(16)) {
            let compiled = compile(&program).expect("compiles");
            assert_eq!(
                compiled.fused_shapes(),
                [FusedShape::Fill, FusedShape::Gather]
            );
            let steps = Interpreter::new(ExecLimits::default())
                .run(&program, &mut MirrorBus::default())
                .expect("runs to completion")
                .steps;
            assert!(steps > 500, "the gather loops ran: {steps} steps");
            for max_steps in 0..=steps {
                let limits = ExecLimits { max_steps };
                let mut ibus = MirrorBus::default();
                let iresult = Interpreter::new(limits).run(&program, &mut ibus);
                let mut vbus = MirrorBus::default();
                let vresult = Vm::new(limits).run(&compiled, &mut vbus);
                assert_eq!(iresult, vresult, "result mismatch at budget {max_steps}");
                assert_eq!(ibus, vbus, "bus mismatch at budget {max_steps}");
            }
        }
    }
}

/// The paper-scale access viruses, uncut, around four victims: the VM and
/// the interpreter agree on the stats and the bus state of the full run.
#[test]
fn paper_scale_access_viruses_agree_with_four_victims() {
    let limits = ExecLimits::default();
    for program in access_viruses(&ExperimentScale::paper(), 4, None, None) {
        let mut ibus = MirrorBus::default();
        let iresult = Interpreter::new(limits).run(&program, &mut ibus);
        let mut vbus = MirrorBus::default();
        let vresult = compile(&program).and_then(|c| Vm::new(limits).run(&c, &mut vbus));
        assert!(iresult.is_ok(), "{iresult:?}");
        assert_eq!(iresult, vresult);
        assert_eq!(ibus, vbus);
    }
}
