//! GA-parameter calibration (paper §V "Parameters of the GA search").
//!
//! "To find the optimal GA parameters …, we simulated the GA search for the
//! fitness function that counts the number of bits in a 64-bit chromosome
//! equal to '1'. We found that GA finds the 64-bit chromosome where all
//! bits \[are\] set to '1' for the minimum number of generations, which is
//! about 80, when: i) the mutation probability is 0.5; ii) the crossover
//! probability is 0.9 and iii) the size of population is 40."

use crate::report::TextTable;
use dstress_ga::{BitGenome, FnFitness, GaConfig, GaEngine};
use serde::{Deserialize, Serialize};

/// One grid point of the calibration sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaParamPoint {
    /// Per-chromosome mutation probability.
    pub mutation: f64,
    /// Crossover probability.
    pub crossover: f64,
    /// Population size.
    pub population: usize,
    /// Mean generations to reach the all-ones chromosome (capped at the
    /// budget when unsolved).
    pub mean_generations: f64,
    /// Fraction of seeds that found the optimum.
    pub solve_rate: f64,
}

/// The calibration sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaParamsReport {
    /// All probed grid points.
    pub points: Vec<GaParamPoint>,
    /// The best point (fewest mean generations among full-solve-rate
    /// points; ties to lower budget).
    pub best: GaParamPoint,
}

impl GaParamsReport {
    /// Renders the sweep as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "mutation",
            "crossover",
            "population",
            "mean gens",
            "solve rate",
        ]);
        for p in &self.points {
            t.row(vec![
                format!("{:.1}", p.mutation),
                format!("{:.1}", p.crossover),
                p.population.to_string(),
                format!("{:.1}", p.mean_generations),
                format!("{:.0} %", p.solve_rate * 100.0),
            ]);
        }
        format!(
            "GA parameter calibration (popcount fitness, paper §V)\n{}\nbest: mutation {:.1}, crossover {:.1}, population {} -> {:.1} generations\n",
            t.render(),
            self.best.mutation,
            self.best.crossover,
            self.best.population,
            self.best.mean_generations
        )
    }
}

/// Runs the calibration sweep. `seeds` controls averaging depth.
pub fn run(seeds: u64) -> GaParamsReport {
    let mutations = [0.1, 0.3, 0.5, 0.7];
    let crossovers = [0.5, 0.7, 0.9];
    let populations = [20usize, 40, 60];
    let mut points = Vec::new();
    for &mutation in &mutations {
        for &crossover in &crossovers {
            for &population in &populations {
                let mut total_gens = 0.0;
                let mut solved = 0u64;
                for seed in 0..seeds {
                    let mut config = GaConfig::paper_defaults();
                    config.mutation_prob = mutation;
                    config.crossover_prob = crossover;
                    config.population_size = population;
                    config.max_generations = 300;
                    // Stop as soon as the optimum is found: measure
                    // time-to-solution, not time-to-similarity.
                    let mut engine = GaEngine::new(config, seed.wrapping_mul(77) + 5);
                    let mut solved_at: Option<u32> = None;
                    let mut gen_counter = 0u32;
                    let mut fitness = FnFitness::new(|g: &BitGenome| g.count_ones() as f64);
                    let result =
                        engine.run_parallel(1, |rng| BitGenome::random(rng, 64), &mut fitness);
                    for h in &result.history {
                        gen_counter = h.generation;
                        if h.best >= 64.0 {
                            solved_at = Some(h.generation);
                            break;
                        }
                    }
                    match solved_at {
                        Some(g) => {
                            solved += 1;
                            total_gens += g as f64;
                        }
                        None => total_gens += gen_counter.max(300) as f64,
                    }
                }
                points.push(GaParamPoint {
                    mutation,
                    crossover,
                    population,
                    mean_generations: total_gens / seeds as f64,
                    solve_rate: solved as f64 / seeds as f64,
                });
            }
        }
    }
    let best = *points
        .iter()
        .filter(|p| p.solve_rate >= 0.99)
        .min_by(|a, b| {
            a.mean_generations
                .partial_cmp(&b.mean_generations)
                .expect("finite generation counts")
        })
        .unwrap_or(&points[0]);
    GaParamsReport { points, best }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_full_grid_and_plausible_optimum() {
        let report = run(2);
        assert_eq!(report.points.len(), 4 * 3 * 3);
        // The paper's region (mutation >= 0.3, crossover >= 0.7, pop >= 40)
        // should solve reliably.
        let strong = report
            .points
            .iter()
            .find(|p| p.mutation == 0.5 && p.crossover == 0.9 && p.population == 40)
            .expect("grid contains the paper point");
        assert!(
            strong.solve_rate > 0.49,
            "paper point solve rate {}",
            strong.solve_rate
        );
        assert!(!report.render().is_empty());
    }
}
