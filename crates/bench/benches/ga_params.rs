//! Criterion bench for the §V GA calibration kernel: one popcount GA run
//! at the paper's optimum parameters.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress_ga::{BitGenome, FnFitness, GaConfig, GaEngine};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_params");
    group.sample_size(10);
    group.bench_function("popcount_ga_paper_params", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut engine = GaEngine::new(GaConfig::paper_defaults(), seed);
            let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
            let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
            std::hint::black_box(result.best_fitness)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
