//! Ablation benches for the design choices DESIGN.md §6 calls out:
//! selection scheme and the cache model's effect on access-virus
//! evaluation. (Averaging depth is measured on the real evaluator by the
//! `ablation` experiment, whose `runs` knob repeats the VRT replay.)

use criterion::{criterion_group, criterion_main, Criterion};
use dstress::experiments::ablation::chromosome_noise;
use dstress::{DStress, EnvKind, ExperimentScale, Metric, WORST_WORD};
use dstress_ga::{BitGenome, FnFitness, GaConfig, GaEngine, SelectionScheme};
use dstress_vpl::BoundValue;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    // Selection schemes on a noisy popcount (how fast each converges).
    for (name, scheme) in [
        ("selection_roulette", SelectionScheme::Roulette),
        (
            "selection_tournament2",
            SelectionScheme::Tournament { k: 2 },
        ),
        (
            "selection_truncation50",
            SelectionScheme::Truncation { keep_percent: 50 },
        ),
    ] {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut config = GaConfig::paper_defaults();
                config.selection = scheme;
                config.max_generations = 60;
                let mut engine = GaEngine::new(config, seed);
                let mut fitness = FnFitness::new(move |g: &BitGenome| {
                    g.count_ones() as f64 + 4.0 * chromosome_noise(seed, g)
                });
                let r = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
                std::hint::black_box(r.best_fitness)
            })
        });
    }

    // Cache model on the access-virus path: evaluation cost with the
    // full replay pipeline.
    let scale = ExperimentScale::quick();
    let mut dstress = DStress::new(scale, 1);
    let victims = dstress.profile_victims(60.0, WORST_WORD).expect("victims");
    let metric = Metric::CeInRows(victims.clone());
    let mut evaluator = dstress
        .evaluator(
            &EnvKind::RowAccess {
                victims,
                fill: WORST_WORD,
            },
            60.0,
            metric,
        )
        .expect("evaluator");
    group.bench_function("access_eval_with_cache_model", |b| {
        b.iter(|| {
            let outcome = evaluator
                .evaluate_bindings([("SEL".to_string(), BoundValue::Array(vec![1u64; 64]))].into())
                .expect("evaluation");
            std::hint::black_box(outcome.fitness)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
