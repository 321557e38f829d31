//! Fig. 13 — efficiency of the GA search.
//!
//! The paper samples randomized data / access patterns, confirms with the
//! D'Agostino–Pearson test that the CE counts are normally distributed, and
//! integrates the fitted Gaussian's upper tail beyond the GA result to
//! estimate "the probability that there exist patterns that trigger more
//! errors than the patterns discovered by GA". The abstract's summary:
//! DStress finds the worst-case data pattern with probability `1 − 4×10⁻⁷`
//! and the worst-case access pattern with probability `0.95`.

use crate::error::DStressError;
use crate::evaluate::Metric;
use crate::scale::ExperimentScale;
use crate::search::{DStress, EnvKind, WORST_WORD};
use dstress_stats::{
    bootstrap_ci, dagostino_pearson, ConfidenceInterval, DagostinoPearson, Histogram, Moments,
    Normal,
};
use dstress_vpl::BoundValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The distribution summary for one random-virus family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomDistribution {
    /// Sample count.
    pub samples: u64,
    /// Sample mean CEs/run.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// The D'Agostino–Pearson omnibus test result.
    pub normality: DagostinoPearson,
    /// Histogram of the sampled CE counts (20 bins over the data range).
    pub histogram: Histogram,
    /// The GA-discovered best fitness this family is compared against.
    pub ga_best: f64,
    /// Upper-tail probability `P(random > ga_best)` under the fitted
    /// Gaussian — the paper's "probability that a better pattern exists".
    pub p_better_exists: f64,
    /// 95 % percentile-bootstrap interval on `p_better_exists` (the paper
    /// reports a point estimate; the bootstrap quantifies how much the
    /// handful of random samples constrain it).
    pub p_better_ci: ConfidenceInterval,
}

impl RandomDistribution {
    /// The abstract's framing: the probability the GA found the worst case.
    pub fn p_found_worst(&self) -> f64 {
        1.0 - self.p_better_exists
    }
}

/// The Fig. 13 report: random data patterns (a) and random access patterns
/// (b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig13Report {
    /// (a) random 64-bit data patterns vs the GA worst-case data pattern.
    pub data_patterns: RandomDistribution,
    /// (b) random row-bitmap access patterns vs the GA worst-case access
    /// pattern.
    pub access_patterns: RandomDistribution,
}

fn summarize(values: &[f64], ga_best: f64) -> Result<RandomDistribution, DStressError> {
    let moments: Moments = values.iter().copied().collect();
    let normality = dagostino_pearson(&moments)
        .map_err(|e| DStressError::Experiment(format!("normality test failed: {e}")))?;
    let normal = Normal::fit(&moments)
        .map_err(|e| DStressError::Experiment(format!("gaussian fit failed: {e}")))?;
    let histogram = Histogram::from_data(values, 20)
        .map_err(|e| DStressError::Experiment(format!("histogram failed: {e}")))?;
    let tail_stat = move |xs: &[f64]| -> f64 {
        let m: Moments = xs.iter().copied().collect();
        match Normal::fit(&m) {
            Ok(n) => n.sf(ga_best),
            Err(_) => 0.0,
        }
    };
    let p_better_ci = bootstrap_ci(values, tail_stat, 400, 0.95, 0xB007)
        .map_err(|e| DStressError::Experiment(format!("bootstrap failed: {e}")))?;
    Ok(RandomDistribution {
        samples: moments.count(),
        mean: moments.mean(),
        std_dev: moments.sample_std_dev(),
        normality,
        histogram,
        ga_best,
        p_better_exists: normal.sf(ga_best),
        p_better_ci,
    })
}

/// Runs the Fig. 13 experiment.
///
/// `ga_data_best` / `ga_access_best` are the discovered worst-case fitness
/// values the random samples are compared against: the Fig. 8 GA worst
/// case at 60 °C and the Fig. 11 access-template-1 GA best.
///
/// # Errors
///
/// Propagates evaluation and statistics failures.
pub fn run(
    scale: ExperimentScale,
    seed: u64,
    ga_data_best: f64,
    ga_access_best: f64,
) -> Result<Fig13Report, DStressError> {
    let mut dstress = DStress::new(scale, seed);
    let temp = 60.0;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1613);

    // (a) random 64-bit data patterns.
    let mut evaluator = dstress.evaluator(&EnvKind::Word64, temp, Metric::CeAverage)?;
    let mut data_values = Vec::with_capacity(scale.random_samples);
    for _ in 0..scale.random_samples {
        let word: u64 = rng.gen();
        let outcome = evaluator
            .evaluate_bindings([("PATTERN".to_string(), BoundValue::Scalar(word))].into())?;
        data_values.push(outcome.fitness);
    }

    // (b) random access patterns over the victim neighbourhood.
    let victims = dstress.profile_victims(temp, WORST_WORD)?;
    let env = EnvKind::RowAccess {
        victims: victims.clone(),
        fill: WORST_WORD,
    };
    let metric = Metric::CeInRows(victims.clone());
    let mut evaluator = dstress.evaluator(&env, temp, metric)?;
    let mut access_values = Vec::with_capacity(scale.random_samples);
    for _ in 0..scale.random_samples {
        let flags: Vec<u64> = (0..64).map(|_| rng.gen_range(0..=1u64)).collect();
        let outcome =
            evaluator.evaluate_bindings([("SEL".to_string(), BoundValue::Array(flags))].into())?;
        access_values.push(outcome.fitness);
    }
    Ok(Fig13Report {
        data_patterns: summarize(&data_values, ga_data_best)?,
        access_patterns: summarize(&access_values, ga_access_best)?,
    })
}

impl Fig13Report {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, d) in [
            ("Fig. 13a - random data patterns", &self.data_patterns),
            ("Fig. 13b - random access patterns", &self.access_patterns),
        ] {
            out.push_str(&format!(
                "{label}\n  n = {}, mean = {:.1}, sd = {:.1}\n  D'Agostino-Pearson: K2 = {:.2}, p = {:.3} ({})\n",
                d.samples,
                d.mean,
                d.std_dev,
                d.normality.k2,
                d.normality.p_value,
                if d.normality.is_normal(0.05) { "normal" } else { "NOT normal" },
            ));
            out.push_str(&format!(
                "  GA best = {:.1}; P(better pattern exists) = {:.2e} (95% bootstrap CI [{:.2e}, {:.2e}]); P(GA found worst) = {:.6}\n",
                d.ga_best,
                d.p_better_exists,
                d.p_better_ci.lo,
                d.p_better_ci.hi,
                d.p_found_worst(),
            ));
            out.push_str(&d.histogram.render_ascii(40));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_computes_tail_probability() {
        // A clean Gaussian-ish sample via deterministic jitter.
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f64> = (0..500)
            .map(|_| {
                let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
                100.0 + 10.0 * (s - 6.0)
            })
            .collect();
        let d = summarize(&values, 150.0).unwrap();
        assert!(d.normality.is_normal(0.01));
        assert!(
            d.p_better_exists < 1e-4,
            "5-sigma tail: {}",
            d.p_better_exists
        );
        assert!(d.p_found_worst() > 0.999);
        // A mid-distribution "best" leaves a large tail.
        let weak = summarize(&values, 100.0).unwrap();
        assert!((weak.p_better_exists - 0.5).abs() < 0.1);
    }
}
