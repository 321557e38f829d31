//! VPL execution tiers: the tree-walking interpreter vs the compiled
//! bytecode VM on the same instantiated virus.
//!
//! `virus/…` runs the WORD64 data-pattern virus (two full-memory loops at
//! quick scale, ~65k DRAM operations) against a minimal flat bus, so the
//! measured difference is engine dispatch overhead — the cost the bytecode
//! tier exists to remove. `session/…` runs the same virus through a real
//! recording [`Session`] (address translation + trace append per access),
//! the configuration `core::evaluate` uses. `kernel/…` runs a loop nest
//! the fused-loop peephole does not match, so it prices ordinary op
//! dispatch. `compile/program` prices the one-time lowering.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress::templates::{process, WORD64};
use dstress::{EnvKind, ExperimentScale};
use dstress_platform::session::{SessionError, VirtAddr};
use dstress_platform::{MemoryBus, XGene2Server};
use dstress_vpl::ast::Program;
use dstress_vpl::parser::parse_program;
use dstress_vpl::{compile, BoundValue, ExecLimits, Interpreter, Vm};

/// A flat, allocation-free bus: loads and stores are a bounds check and a
/// vector index. Keeps the bus out of the measurement so the two engines'
/// dispatch costs dominate.
struct FlatBus {
    words: Vec<u64>,
    cursor: u64,
}

impl FlatBus {
    fn new(words: usize) -> Self {
        FlatBus {
            words: vec![0; words],
            cursor: 0,
        }
    }

    /// Rewinds allocation for the next pass; contents deliberately persist
    /// (the virus overwrites them, exactly as DIMM memory would).
    fn rewind(&mut self) {
        self.cursor = 0;
    }
}

impl MemoryBus for FlatBus {
    fn alloc(&mut self, bytes: u64) -> Result<VirtAddr, SessionError> {
        if bytes == 0 {
            return Err(SessionError::ZeroAllocation);
        }
        let base = self.cursor;
        let words = bytes.div_ceil(8);
        if (base / 8 + words) as usize > self.words.len() {
            return Err(SessionError::OutOfMemory {
                requested: bytes,
                available: (self.words.len() as u64 * 8).saturating_sub(base),
            });
        }
        self.cursor = base + words * 8;
        Ok(base)
    }

    #[inline]
    fn read_u64(&mut self, addr: VirtAddr) -> Result<u64, SessionError> {
        if !addr.is_multiple_of(8) {
            return Err(SessionError::Unaligned(addr));
        }
        self.words
            .get((addr / 8) as usize)
            .copied()
            .ok_or(SessionError::Unmapped(addr))
    }

    #[inline]
    fn write_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), SessionError> {
        if !addr.is_multiple_of(8) {
            return Err(SessionError::Unaligned(addr));
        }
        match self.words.get_mut((addr / 8) as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(SessionError::Unmapped(addr)),
        }
    }
}

/// The WORD64 virus instantiated at quick scale with a worst-case pattern.
fn word64_virus(scale: &ExperimentScale) -> Program {
    let template = process(WORD64, scale).expect("template processes");
    let mut bindings = EnvKind::Word64.bindings(scale).expect("env bindings");
    bindings.insert("PATTERN".into(), BoundValue::Scalar(0x3333_3333_3333_3333));
    template.instantiate(&bindings).expect("instantiates")
}

/// A loop nest outside the fused-loop peephole: invariant arithmetic and
/// an induction-variable multiply in the hot loop, a short constant-trip
/// reduction, and a store that dies every outer iteration.
fn unfused_kernel() -> Program {
    let init = vec!["0"; 64];
    let global = format!(
        "volatile unsigned long long v[] = {{ {} }};",
        init.join(", ")
    );
    parse_program(
        &global,
        "int i = 0; int j = 0; unsigned long long a = 7; \
         unsigned long long acc = 0; unsigned long long dead = 0;",
        "for (j = 0; j < 200; j += 1) { \
           for (i = 0; i < 64; i += 1) { v[i] = a * 3 + 9 + i * 24; } \
           for (i = 0; i < 4; i += 1) { acc += v[i] + i * 8; } \
           dead = acc + j; \
         } \
         v[0] = acc;",
    )
    .expect("kernel parses")
}

fn bench(c: &mut Criterion) {
    let scale = ExperimentScale::quick();
    let program = word64_virus(&scale);
    let limits = ExecLimits::default();
    let flat_words = scale.dimm_words() as usize + 1024;

    c.bench_function("compile/program", |b| {
        b.iter(|| std::hint::black_box(compile(&program).expect("compiles").len()))
    });

    let compiled = compile(&program).expect("compiles");
    let mut bus = FlatBus::new(flat_words);
    c.bench_function("virus/interp", |b| {
        b.iter(|| {
            bus.rewind();
            let stats = Interpreter::new(limits)
                .run(&program, &mut bus)
                .expect("runs");
            std::hint::black_box(stats.steps)
        })
    });
    c.bench_function("virus/vm", |b| {
        b.iter(|| {
            bus.rewind();
            let stats = Vm::new(limits).run(&compiled, &mut bus).expect("runs");
            std::hint::black_box(stats.steps)
        })
    });

    // The unfused kernel on both engines.
    let kernel = unfused_kernel();
    let kernel_compiled = compile(&kernel).expect("compiles");
    let mut kbus = FlatBus::new(1024);
    c.bench_function("kernel/interp", |b| {
        b.iter(|| {
            kbus.rewind();
            let stats = Interpreter::new(limits)
                .run(&kernel, &mut kbus)
                .expect("runs");
            std::hint::black_box(stats.steps)
        })
    });
    c.bench_function("kernel/vm", |b| {
        b.iter(|| {
            kbus.rewind();
            let stats = Vm::new(limits)
                .run(&kernel_compiled, &mut kbus)
                .expect("runs");
            std::hint::black_box(stats.steps)
        })
    });

    // Through the real recording session: translation + span-batched trace
    // recording per access on both sides, quick-scale DIMMs so the
    // per-iteration memory reset stays small.
    let mut server = XGene2Server::new(scale.server);
    c.bench_function("session/interp", |b| {
        b.iter(|| {
            server.reset_memory();
            let mut session = server.session(2);
            let stats = Interpreter::new(limits)
                .run(&program, &mut session)
                .expect("runs");
            std::hint::black_box((stats.steps, session.finish().len()))
        })
    });
    c.bench_function("session/vm", |b| {
        b.iter(|| {
            server.reset_memory();
            let mut session = server.session(2);
            let stats = Vm::new(limits).run(&compiled, &mut session).expect("runs");
            std::hint::black_box((stats.steps, session.finish().len()))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
