//! Persistent evaluation pool throughput, and multi-campaign fair-share
//! scheduling throughput.
//!
//! Every row drives a full multi-generation GA campaign over a synthetic
//! fitness whose cost is a pure, deterministic function of the chromosome:
//!
//! * `even` — every candidate costs the same.
//! * `uneven` — roughly a quarter of random chromosomes cost ~32× more
//!   (the adversarial shape of retry storms, step-budget blowouts and
//!   cold plan caches); the workers balance it by claiming tasks from one
//!   shared queue as they come free.
//!
//! `scheduler/serialN` vs `scheduler/multiplexN` compare running N uneven
//! campaigns back to back (each on its own pool) against the
//! `CampaignScheduler` fair-sharing them over one pool.
//!
//! Run with `cargo bench -p dstress-bench --bench scheduler`; it prints the
//! median of every row (`-- pool_` runs only the single-campaign rows). Rows at a worker count above the host's cores
//! measure oversubscription, not scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use dstress_ga::{
    BitGenome, CampaignScheduler, EvalPool, Fitness, GaConfig, ParallelFitness, SearchSession,
};
use rand::rngs::StdRng;

/// Deterministic busy work: `rounds` iterations of an FNV-1a fold over the
/// chromosome words. Returns the hash so the optimizer cannot drop it.
fn spin(genome: &BitGenome, rounds: u64) -> u64 {
    let words = genome.to_words();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..rounds {
        for &w in &words {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    std::hint::black_box(h)
}

/// Whether a chromosome lands in the expensive cost class (~1/4 of random
/// 64-bit genomes): a pure function of the candidate, exactly like a
/// retry-storm or cold-cache blowout on the real substrate.
fn is_heavy(genome: &BitGenome) -> bool {
    genome.count_ones().is_multiple_of(4)
}

const LIGHT_ROUNDS: u64 = 100;
const HEAVY_FACTOR: u64 = 32;

/// A synthetic fitness with a configurable cost profile.
#[derive(Clone)]
struct SpinFitness {
    uneven: bool,
}

impl Fitness<BitGenome> for SpinFitness {
    fn evaluate(&mut self, genome: &BitGenome) -> f64 {
        let rounds = if self.uneven && is_heavy(genome) {
            LIGHT_ROUNDS * HEAVY_FACTOR
        } else {
            LIGHT_ROUNDS
        };
        let h = spin(genome, rounds);
        // Popcount fitness with a hash-derived tiebreak: a real search
        // gradient, deterministic for any evaluation order.
        genome.count_ones() as f64 + (h % 97) as f64 / 1e3
    }
}

impl ParallelFitness<BitGenome> for SpinFitness {
    fn replicate(&self) -> Self {
        self.clone()
    }
}

fn config() -> GaConfig {
    let mut config = GaConfig::paper_defaults();
    config.population_size = 40;
    config.max_generations = 10;
    config
}

fn session(seed: u64) -> SearchSession<BitGenome> {
    SearchSession::start(config(), seed, |rng: &mut StdRng| {
        BitGenome::random(rng, 64)
    })
}

/// One full campaign on the persistent pool, alone on its scheduler.
fn campaign_pooled(seed: u64, workers: usize, uneven: bool) -> f64 {
    let mut scheduler = CampaignScheduler::new(EvalPool::new(&SpinFitness { uneven }, workers));
    scheduler.add(session(seed), None);
    scheduler.run();
    let (mut sessions, _replicas) = scheduler.finish();
    sessions.pop().expect("one campaign").finish().best_fitness
}

/// N uneven campaigns run back to back, each on its own fresh pool.
fn campaigns_serial(n: u64, workers: usize) -> f64 {
    (0..n)
        .map(|i| campaign_pooled(1000 + i, workers, true))
        .sum()
}

/// N uneven campaigns fair-share multiplexed over one pool.
fn campaigns_multiplexed(n: u64, workers: usize) -> f64 {
    let mut scheduler =
        CampaignScheduler::new(EvalPool::new(&SpinFitness { uneven: true }, workers));
    for i in 0..n {
        scheduler.add(session(1000 + i), None);
    }
    scheduler.run();
    let (sessions, _replicas) = scheduler.finish();
    sessions.into_iter().map(|s| s.finish().best_fitness).sum()
}

fn bench(c: &mut Criterion) {
    for workers in [1usize, 4, 8] {
        for (shape, uneven) in [("even", false), ("uneven", true)] {
            c.bench_function(&format!("scheduler/pool_{shape}_w{workers}"), |b| {
                b.iter(|| std::hint::black_box(campaign_pooled(7, workers, uneven)))
            });
        }
    }
    for n in [2u64, 4] {
        c.bench_function(&format!("scheduler/serial{n}_w8"), |b| {
            b.iter(|| std::hint::black_box(campaigns_serial(n, 8)))
        });
        c.bench_function(&format!("scheduler/multiplex{n}_w8"), |b| {
            b.iter(|| std::hint::black_box(campaigns_multiplexed(n, 8)))
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
