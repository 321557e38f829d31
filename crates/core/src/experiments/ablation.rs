//! Ablation study of the framework's design choices (DESIGN.md §6).
//!
//! Four knobs, each isolated on a controlled objective:
//!
//! 1. **selection scheme** — roulette vs tournament vs truncation on a
//!    noisy popcount (time-to-solution and solve rate);
//! 2. **crossover operator** — single-point vs two-point vs uniform on the
//!    same objective;
//! 3. **fitness averaging depth** — the paper's 10-run averaging vs single
//!    noisy evaluations, measured as the run-to-run spread of one fixed
//!    virus on the real evaluator (VRT is the noise source);
//! 4. **convergence threshold** — how the 0.85 similarity bar trades
//!    search length against result quality.

use crate::error::DStressError;
use crate::evaluate::Metric;
use crate::report::TextTable;
use crate::scale::ExperimentScale;
use crate::search::{DStress, EnvKind, WORST_WORD};
use dstress_ga::{BitGenome, CrossoverOp, FnFitness, GaConfig, GaEngine, Genome, SelectionScheme};
use dstress_stats::Moments;
use dstress_vpl::BoundValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One row of a GA-knob ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnobRow {
    /// The knob value ("tournament k=2", "uniform", "0.85"…).
    pub setting: String,
    /// Mean generations to reach the optimum (budget-capped).
    pub mean_generations: f64,
    /// Fraction of seeds reaching the optimum.
    pub solve_rate: f64,
}

/// The averaging-depth measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AveragingRow {
    /// Runs averaged per evaluation.
    pub runs: u32,
    /// Relative standard deviation of the fitness across repeat
    /// evaluations of one fixed virus.
    pub relative_std_dev: f64,
}

/// The full ablation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationReport {
    /// Selection-scheme comparison.
    pub selection: Vec<KnobRow>,
    /// Crossover-operator comparison.
    pub crossover: Vec<KnobRow>,
    /// Averaging-depth comparison (paper: 10 runs).
    pub averaging: Vec<AveragingRow>,
    /// Convergence-threshold comparison.
    pub threshold: Vec<KnobRow>,
}

/// Chromosome-derived noise in `[0, 1)`: an FNV-1a hash of `seed` and the
/// genome's words. Like the DStress evaluator's VRT nonce, the noise is a
/// pure function of the chromosome — re-scoring a chromosome reproduces
/// its value, so the engine's evaluation cache stays transparent — while
/// distinct chromosomes (and distinct seeds) draw independent noise.
pub fn chromosome_noise(seed: u64, genome: &BitGenome) -> f64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in std::iter::once(seed).chain(genome.to_words()) {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Noisy popcount: the calibration objective plus VRT-like noise in
/// `[0, 3)`.
fn noisy_popcount_run(config: GaConfig, seed: u64) -> (bool, u32) {
    let mut engine = GaEngine::new(config, seed);
    let noise_seed = seed ^ 0xAB1A;
    let mut fitness = FnFitness::new(move |g: &BitGenome| {
        g.count_ones() as f64 + 3.0 * chromosome_noise(noise_seed, g)
    });
    let result = engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
    // "Solved" = the true optimum appeared (noise-free criterion).
    let solved = result.leaderboard.iter().any(|(g, _)| g.count_ones() == 64);
    let solved_at = result
        .history
        .iter()
        .find(|h| h.best >= 64.0)
        .map(|h| h.generation)
        .unwrap_or(result.generations);
    (solved, solved_at)
}

fn knob_sweep<F: Fn(&mut GaConfig)>(label: &str, seeds: u64, apply: F) -> KnobRow {
    let mut solved = 0u64;
    let mut gens = 0.0;
    for seed in 0..seeds {
        let mut config = GaConfig::paper_defaults();
        config.max_generations = 200;
        apply(&mut config);
        let (ok, at) = noisy_popcount_run(config, seed * 31 + 7);
        if ok {
            solved += 1;
        }
        gens += at as f64;
    }
    KnobRow {
        setting: label.to_string(),
        mean_generations: gens / seeds as f64,
        solve_rate: solved as f64 / seeds as f64,
    }
}

/// Runs the ablation study.
///
/// # Errors
///
/// Propagates evaluator failures from the averaging-depth measurement.
pub fn run(scale: ExperimentScale, seeds: u64) -> Result<AblationReport, DStressError> {
    // 1. Selection schemes.
    let selection = vec![
        knob_sweep("tournament k=2 (default)", seeds, |c| {
            c.selection = SelectionScheme::Tournament { k: 2 }
        }),
        knob_sweep("tournament k=4", seeds, |c| {
            c.selection = SelectionScheme::Tournament { k: 4 }
        }),
        knob_sweep("roulette", seeds, |c| {
            c.selection = SelectionScheme::Roulette
        }),
        knob_sweep("truncation 50%", seeds, |c| {
            c.selection = SelectionScheme::Truncation { keep_percent: 50 }
        }),
    ];

    // 2. Crossover operators (exercised through a direct mini-GA since the
    //    engine's inner loop uses the genome's native single-point; the
    //    comparison isolates the recombination step).
    let mut crossover = Vec::new();
    for (label, op) in [
        ("single-point (default)", CrossoverOp::SinglePoint),
        ("two-point", CrossoverOp::TwoPoint),
        ("uniform", CrossoverOp::Uniform),
    ] {
        let mut solved = 0u64;
        let mut gens = 0.0;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed * 97 + 3);
            let mut noise = StdRng::seed_from_u64(seed ^ 0xAB1A);
            let mut population: Vec<BitGenome> =
                (0..40).map(|_| BitGenome::random(&mut rng, 64)).collect();
            let mut best_gen = None;
            let budget = 200;
            for generation in 0..budget {
                let mut scored: Vec<(f64, BitGenome)> = population
                    .iter()
                    .map(|g| (g.count_ones() as f64 + noise.gen_range(0.0..3.0), g.clone()))
                    .collect();
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
                if scored.iter().any(|(_, g)| g.count_ones() == 64) {
                    best_gen = Some(generation);
                    break;
                }
                let mut next: Vec<BitGenome> =
                    scored.iter().take(2).map(|(_, g)| g.clone()).collect();
                while next.len() < 40 {
                    let pick = |rng: &mut StdRng| {
                        let a = rng.gen_range(0..scored.len());
                        let b = rng.gen_range(0..scored.len());
                        scored[a.min(b)].1.clone()
                    };
                    let (pa, pb) = (pick(&mut rng), pick(&mut rng));
                    let (mut c, mut d) = if rng.gen::<f64>() < 0.9 {
                        op.cross_bits(&pa, &pb, &mut rng)
                    } else {
                        (pa, pb)
                    };
                    for child in [&mut c, &mut d] {
                        if rng.gen::<f64>() < 0.5 {
                            child.mutate(&mut rng, 1.5 / 64.0);
                        }
                    }
                    next.push(c);
                    if next.len() < 40 {
                        next.push(d);
                    }
                }
                population = next;
            }
            if let Some(g) = best_gen {
                solved += 1;
                gens += g as f64;
            } else {
                gens += budget as f64;
            }
        }
        crossover.push(KnobRow {
            setting: label.to_string(),
            mean_generations: gens / seeds as f64,
            solve_rate: solved as f64 / seeds as f64,
        });
    }

    // 3. Averaging depth on the real evaluator.
    let mut averaging = Vec::new();
    let dstress = DStress::new(scale, 5);
    for runs in [1u32, 3, 10] {
        // An evaluator with the requested averaging depth.
        let server = dstress
            .evaluator(&EnvKind::Word64, 60.0, Metric::CeAverage)?
            .into_server();
        let template = crate::templates::process(crate::templates::WORD64, &scale)?;
        let env = EnvKind::Word64.bindings(&scale)?;
        let mut scaled =
            crate::evaluate::VirusEvaluator::new(server, template, env, Metric::CeAverage, runs, 2);
        let samples: Moments = (0..12)
            .map(|_| {
                scaled
                    .evaluate_bindings(
                        [("PATTERN".to_string(), BoundValue::Scalar(WORST_WORD))].into(),
                    )
                    .map(|o| o.fitness)
                    .unwrap_or(0.0)
            })
            .collect();
        let rel = if samples.mean() > 0.0 {
            samples.sample_std_dev() / samples.mean()
        } else {
            0.0
        };
        averaging.push(AveragingRow {
            runs,
            relative_std_dev: rel,
        });
    }

    // 4. Convergence threshold.
    let threshold = vec![
        knob_sweep("threshold 0.75", seeds, |c| c.convergence_threshold = 0.75),
        knob_sweep("threshold 0.85 (paper)", seeds, |c| {
            c.convergence_threshold = 0.85
        }),
        knob_sweep("threshold 0.95", seeds, |c| c.convergence_threshold = 0.95),
    ];

    Ok(AblationReport {
        selection,
        crossover,
        averaging,
        threshold,
    })
}

impl AblationReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, rows) in [
            ("selection scheme", &self.selection),
            ("crossover operator", &self.crossover),
            ("convergence threshold", &self.threshold),
        ] {
            out.push_str(&format!("ablation: {title}\n"));
            let mut t = TextTable::new(vec!["setting", "mean generations", "solve rate"]);
            for r in rows {
                t.row(vec![
                    r.setting.clone(),
                    format!("{:.1}", r.mean_generations),
                    format!("{:.0} %", r.solve_rate * 100.0),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out.push_str("ablation: fitness averaging depth (real evaluator, VRT noise)\n");
        let mut t = TextTable::new(vec!["runs averaged", "relative std dev"]);
        for r in &self.averaging {
            t.row(vec![
                r.runs.to_string(),
                format!("{:.4}", r.relative_std_dev),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("(the paper averages 10 runs per virus, §V-A.1)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_averaging_reduces_noise() {
        let report = run(ExperimentScale::quick(), 2).unwrap();
        assert_eq!(report.selection.len(), 4);
        assert_eq!(report.crossover.len(), 3);
        assert_eq!(report.threshold.len(), 3);
        assert_eq!(report.averaging.len(), 3);
        // Deeper averaging must not increase the relative spread.
        let one = report.averaging[0].relative_std_dev;
        let ten = report.averaging[2].relative_std_dev;
        assert!(
            ten <= one + 0.02,
            "10-run averaging ({ten}) should not be noisier than single runs ({one})"
        );
        assert!(!report.render().is_empty());
    }
}
