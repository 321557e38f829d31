//! VPL execution: the tree-walking interpreter vs the compiled bytecode VM
//! on the same instantiated virus.
//!
//! `virus/…` runs the WORD64 data-pattern virus (two full-memory loops at
//! quick scale, ~65k DRAM operations) against a minimal flat bus, so the
//! measured difference is engine dispatch overhead — the cost the bytecode
//! tier exists to remove. `session/…` runs the same virus through a real
//! recording [`Session`] (address translation + trace append per access),
//! the configuration `core::evaluate` uses. `chunks/session-vm` runs the
//! quick-scale CHUNKS virus (fill, 64-chunk span copy, offset reduce — all
//! three fused, each run as one bus span call) through the recording
//! session, pricing the copy path. `stride/session-vm` and `row/session-vm`
//! run the STRIDE_ACCESS and ROW_ACCESS viruses through the recording
//! session, around three victims (as many as the paper-scale stride search
//! profiles) and with the paper-scale `X_ITERS`: their fused gather loops
//! (four traced reads per stride iteration, two per row-access iteration,
//! 24,576 and 12,288 iterations) outweigh the memory reset and the fused
//! fill, so the rows price the gather. `kernel/…` runs a loop nest the
//! fused-loop peephole does not match, so it prices ordinary op dispatch,
//! which is also what a fused loop costs when it falls back to its unfused
//! ops. `compile/program` prices the one-time lowering.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress::templates::{instantiate_uniform, process, WORD64};
use dstress::{EnvKind, ExperimentScale, WORST_WORD};
use dstress_dram::geometry::RowKey;
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

    // The chunk-span virus around one mid-DIMM victim row, every pattern
    // word the worst-case word.
    let geo = scale.server.dimm.geometry;
    let chunks = EnvKind::Chunks {
        victims: vec![RowKey::new(0, 1, geo.rows_per_bank / 2)],
    };
    let chunks_compiled = compile(
        &instantiate_uniform(&chunks, &scale, WORST_WORD).expect("chunks virus instantiates"),
    )
    .expect("compiles");
    c.bench_function("chunks/session-vm", |b| {
        b.iter(|| {
            server.reset_memory();
            let mut session = server.session(2);
            let stats = Vm::new(limits)
                .run(&chunks_compiled, &mut session)
                .expect("runs");
            std::hint::black_box((stats.steps, session.finish().len()))
        })
    });

    // The access viruses around three mid-DIMM victims in adjacent banks,
    // with the paper-scale stride repetitions: a fused fill, then the
    // fused gather loop nests.
    let mut gather_scale = scale;
    gather_scale.stride_iters = ExperimentScale::paper().stride_iters;
    let victims: Vec<RowKey> = (1..4)
        .map(|bank| RowKey::new(0, bank, geo.rows_per_bank / 2))
        .collect();
    for (name, env) in [
        (
            "stride/session-vm",
            EnvKind::StrideAccess {
                victims: victims.clone(),
                fill: WORST_WORD,
            },
        ),
        (
            "row/session-vm",
            EnvKind::RowAccess {
                victims: victims.clone(),
                fill: WORST_WORD,
            },
        ),
    ] {
        let compiled = compile(
            &instantiate_uniform(&env, &gather_scale, WORST_WORD).expect("virus instantiates"),
        )
        .expect("compiles");
        c.bench_function(name, |b| {
            b.iter(|| {
                server.reset_memory();
                let mut session = server.session(2);
                let stats = Vm::new(limits).run(&compiled, &mut session).expect("runs");
                std::hint::black_box((stats.steps, session.finish().len()))
            })
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
