//! Lane-mask run-plan kernel vs the reference per-cell retention loop.
//!
//! `window/…` compares one refresh window at the DIMM layer over the full
//! default weak-cell population. `plan/refresh` times a row rewrite plus
//! one plan build at a fixed operating point: the one plan pass over the
//! cells the memoized live-cell screen kept. `plan/rescreen` alternates two
//! refresh periods, so every build screens the population again, as a
//! margin sweep (Fig. 14) does. `run/reference` and `runs/…` compare
//! complete multi-window evaluations at the server layer. The planned path
//! re-examines only the VRT-contingent cells each window (everything else
//! is pre-partitioned into static events at `prepare_run` time), so it
//! must win by a wide margin. `window/lanes` times the one kernel writing one lane's masks,
//! and `runs/batched` one run of the one fold, the like-for-like rows
//! against the reference. `runs/batched10` times the ten runs of one virus
//! as ten per-run outcomes; `runs/total10` times them as the one summed
//! total the GA scores per candidate.
//!
//! The binary takes a substring filter: `cargo bench -p dstress-bench
//! --bench window_kernel -- runs/` runs the `runs/…` rows only, `-- plan/`
//! the two plan-build rows.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress_dram::geometry::RowKey;
use dstress_dram::{ActivationCounts, Dimm, DimmConfig, Location, OperatingEnv};
use dstress_platform::session::MemoryBus;
use dstress_platform::{ServerConfig, XGene2Server};

fn bench(c: &mut Criterion) {
    // DIMM layer: one refresh window, default population (~8k weak cells),
    // worst-case fill in the hammered bank, heavy activation pressure.
    let mut dimm = Dimm::new(DimmConfig::default(), 1);
    let words = dimm.geometry().words_per_row();
    for col in 0..words {
        dimm.write_word(Location::new(0, 0, 0, col as u32), 0x3333_3333_3333_3333);
    }
    let env = OperatingEnv::relaxed(60.0);
    let mut acts = ActivationCounts::new();
    for row in 0..8 {
        acts.add(RowKey::new(0, 0, row), 40_000);
    }
    let disturbance = dimm.disturbance_profile(&acts);
    let plan = dimm.prepare_run(&env, &disturbance).expect("plan builds");
    let mut nonce = 0u64;
    c.bench_function("window/reference", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(
                dimm.advance_window_profiled(&env, &disturbance, nonce)
                    .len(),
            )
        })
    });
    let mut masks = vec![0u64; plan.vrt_cells()];
    c.bench_function("window/lanes", |b| {
        b.iter(|| {
            nonce += 1;
            dimm.advance_window_planned_lanes(&plan, &[nonce], 1, &mut masks)
                .expect("plan is fresh");
            std::hint::black_box(masks.iter().map(|m| m.count_ones()).sum::<u32>())
        })
    });
    // One plan build per evaluation: every candidate rewrites memory, so
    // no plan carries over, while the operating point and its live-cell
    // screen do.
    let rows = [
        vec![0x3333_3333_3333_3333u64; words],
        vec![0xCCCC_CCCC_CCCC_CCCCu64; words],
    ];
    let mut flip = 0;
    c.bench_function("plan/refresh", |b| {
        b.iter(|| {
            flip ^= 1;
            dimm.write_row(RowKey::new(0, 0, 0), &rows[flip]);
            std::hint::black_box(
                dimm.prepare_run(&env, &disturbance)
                    .expect("plan builds")
                    .static_events()
                    .len(),
            )
        })
    });
    let trefps = [env, env.with_trefp(2.0)];
    c.bench_function("plan/rescreen", |b| {
        b.iter(|| {
            flip ^= 1;
            dimm.write_row(RowKey::new(0, 0, 0), &rows[flip]);
            std::hint::black_box(
                dimm.prepare_run(&trefps[flip], &disturbance)
                    .expect("plan builds")
                    .static_events()
                    .len(),
            )
        })
    });

    // Server layer: a recorded run evaluated over the default number of
    // refresh windows across all four MCUs.
    let mut server = XGene2Server::new(ServerConfig::default());
    server.relax_second_domain();
    server.set_dimm_temperature(2, 60.0).unwrap();
    server.set_dimm_temperature(3, 60.0).unwrap();
    let mut session = server.session(2);
    let base = session.alloc(64 * 1024).expect("alloc");
    let data = vec![0x3333_3333_3333_3333u64; 8192];
    session.fill(base, &data).expect("fill");
    for _ in 0..2 {
        for w in 0..8192u64 {
            session.read_u64(base + w * 8).expect("read");
        }
    }
    let run = session.finish();
    let prepared = server.prepare_run(&run).expect("plans build");
    c.bench_function("run/reference", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(server.evaluate_run_reference(&run, nonce).totals)
        })
    });
    c.bench_function("runs/batched", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(
                server
                    .evaluate_prepared_runs(&prepared, 1, nonce)
                    .expect("fresh")[0]
                    .totals,
            )
        })
    });
    c.bench_function("runs/batched10", |b| {
        b.iter(|| {
            nonce += 10;
            std::hint::black_box(
                server
                    .evaluate_prepared_runs(&prepared, 10, nonce)
                    .expect("fresh")
                    .len(),
            )
        })
    });
    c.bench_function("runs/total10", |b| {
        b.iter(|| {
            nonce += 10;
            std::hint::black_box(
                server
                    .evaluate_prepared_total(&prepared, 10, nonce)
                    .expect("fresh")
                    .totals,
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
