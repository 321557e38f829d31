//! Criterion micro-benchmarks for the substrates: the DRAM fault kernel,
//! the SECDED code, the cache model and the similarity measures.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress_dram::{ActivationCounts, Dimm, DimmConfig, OperatingEnv};
use dstress_ecc::Codeword;
use dstress_ga::{BitGenome, Genome};
use dstress_platform::cache::Cache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench(c: &mut Criterion) {
    // DRAM refresh-window fault evaluation.
    let dimm = Dimm::new(DimmConfig::default(), 1);
    let env = OperatingEnv::relaxed(60.0);
    let acts = ActivationCounts::new();
    let mut nonce = 0u64;
    c.bench_function("dram_advance_window", |b| {
        b.iter(|| {
            nonce += 1;
            std::hint::black_box(dimm.advance_window(&env, &acts, nonce).len())
        })
    });

    // SECDED encode + decode.
    let mut rng = StdRng::seed_from_u64(2);
    c.bench_function("ecc_encode_decode", |b| {
        b.iter(|| {
            let data: u64 = rng.gen();
            let cw = Codeword::encode(data).with_data_flips(1 << (data % 64));
            std::hint::black_box(cw.decode())
        })
    });

    // Cache model streaming.
    let mut cache = Cache::new(256 * 1024, 8, 64);
    let mut addr = 0u64;
    c.bench_function("cache_streaming_access", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(64) % (1 << 22);
            std::hint::black_box(cache.access(addr))
        })
    });

    // Leaderboard similarity over large pattern chromosomes.
    let mut rng = StdRng::seed_from_u64(3);
    let a = BitGenome::random(&mut rng, 49_152);
    let b_g = BitGenome::random(&mut rng, 49_152);
    c.bench_function("bitgenome_similarity_49k", |b| {
        b.iter(|| std::hint::black_box(a.similarity(&b_g)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
