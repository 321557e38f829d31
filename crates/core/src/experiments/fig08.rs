//! Fig. 8 — the 64-bit data-pattern searches.
//!
//! * (a) 40 worst-case 64-bit patterns maximizing CEs at 55 °C — the GA
//!   converges (SMF ≈ 0.89) onto patterns dominated by the repeating
//!   `1100` sub-pattern;
//! * (b) the same search at 60 °C converges to the *same* pattern
//!   (cross-temperature SMF ≈ 0.90);
//! * (c) minimizing CEs finds the best-case pattern: ≈ 8× fewer CEs;
//! * (d) at 62 °C a UE-maximizing search triggers UEs in 100 % of runs but
//!   does *not* converge (SMF ≈ 0.58);
//! * (e) the discovered worst-case pattern beats every classic
//!   micro-benchmark by ≥ 45 %, and the best-case pattern undercuts all of
//!   them, on every DIMM/rank.

use crate::error::DStressError;
use crate::evaluate::Metric;
use crate::microbench::Baseline;
use crate::report::{pattern_prefix, percent_delta, TextTable};
use crate::scale::ExperimentScale;
use crate::search::{DStress, EnvKind};
use dstress_ga::Genome;
use dstress_vpl::BoundValue;
use serde::{Deserialize, Serialize};

/// One completed 64-bit pattern search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternSearchSummary {
    /// Campaign name.
    pub name: String,
    /// The leaderboard patterns (packed words) with fitness.
    pub leaderboard: Vec<(u64, f64)>,
    /// Best fitness (CEs/run, or UE-runs for the UE search).
    pub best_fitness: f64,
    /// Final leaderboard similarity (SMF).
    pub similarity: f64,
    /// Whether the search converged before the budget.
    pub converged: bool,
    /// Generations executed.
    pub generations: u32,
    /// Fraction of 2-bit-aligned positions of the best pattern that match
    /// the canonical `1100` phase (1.0 = pure repeating `1100`).
    pub best_1100_match: f64,
}

/// The full Fig. 8 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig08Report {
    /// (a) worst-case search at 55 °C.
    pub worst_55c: PatternSearchSummary,
    /// (b) worst-case search at 60 °C.
    pub worst_60c: PatternSearchSummary,
    /// Mean SMF between the 55 °C and 60 °C leaderboards.
    pub cross_temperature_smf: f64,
    /// (c) best-case (minimizing) search at 55 °C.
    pub best_55c: PatternSearchSummary,
    /// Mean SMF between worst-case and best-case leaderboards.
    pub worst_vs_best_smf: f64,
    /// worst-case CEs ÷ best-case CEs (paper: ≈ 8×).
    pub worst_over_best: f64,
    /// (d) UE search at 62 °C.
    pub ue_62c: PatternSearchSummary,
    /// (e) micro-benchmark comparison at 60 °C: (name, CEs/run).
    pub baselines_60c: Vec<(String, f64)>,
    /// GA worst-case CEs/run at 60 °C (same measurement protocol).
    pub ga_worst_ce: f64,
    /// GA best-case CEs/run at 60 °C.
    pub ga_best_ce: f64,
}

fn summarize(campaign: &crate::search::BitCampaign) -> PatternSearchSummary {
    let leaderboard: Vec<(u64, f64)> = campaign
        .result
        .leaderboard
        .iter()
        .map(|(g, f)| (g.to_words()[0], *f))
        .collect();
    let best = campaign.result.best.to_words()[0];
    // Match against the canonical phase-insensitive `1100` tiling: the best
    // of the four phase shifts of 0x3333… .
    let best_1100_match = (0..4)
        .map(|shift| {
            let canon = 0x3333_3333_3333_3333u64.rotate_left(shift as u32);
            (64 - (best ^ canon).count_ones()) as f64 / 64.0
        })
        .fold(0.0f64, f64::max);
    PatternSearchSummary {
        name: campaign.name.clone(),
        leaderboard,
        best_fitness: campaign.result.best_fitness,
        similarity: campaign.result.similarity,
        converged: campaign.result.converged,
        generations: campaign.result.generations,
        best_1100_match,
    }
}

fn cross_smf(a: &crate::search::BitCampaign, b: &crate::search::BitCampaign) -> f64 {
    // Mean similarity over all cross pairs of the two leaderboards.
    let mut sum = 0.0;
    let mut n = 0usize;
    for (ga, _) in &a.result.leaderboard {
        for (gb, _) in &b.result.leaderboard {
            sum += ga.similarity(gb);
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        sum / n as f64
    }
}

/// Runs the full Fig. 8 experiment family.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<Fig08Report, DStressError> {
    let mut dstress = DStress::new(scale, seed);

    // (a) + (b): worst-case CE searches at 55 and 60 °C.
    let worst_55 = dstress.search_word64(55.0, Metric::CeAverage, false)?;
    let worst_60 = dstress.search_word64(60.0, Metric::CeAverage, false)?;
    // (c): best-case search at 55 °C.
    let best_55 = dstress.search_word64(55.0, Metric::CeAverage, true)?;
    // (d): UE search at 62 °C.
    let ue_62 = dstress.search_word64(62.0, Metric::UeRuns, false)?;

    // (e): micro-benchmark comparison at 60 °C, same protocol.
    let mut baselines = Vec::new();
    for b in Baseline::all(seed ^ 0xBA5E) {
        let outcome = dstress.measure(
            &EnvKind::CycleFill { cycle: b.cycle() },
            Default::default(),
            60.0,
            Metric::CeAverage,
        )?;
        baselines.push((b.name().to_string(), outcome.fitness));
    }
    let ga_worst_word = worst_60.result.best.to_words()[0];
    let ga_best_word = best_55.result.best.to_words()[0];
    let ga_worst_ce = dstress
        .measure(
            &EnvKind::Word64,
            [("PATTERN".to_string(), BoundValue::Scalar(ga_worst_word))].into(),
            60.0,
            Metric::CeAverage,
        )?
        .fitness;
    let ga_best_ce = dstress
        .measure(
            &EnvKind::Word64,
            [("PATTERN".to_string(), BoundValue::Scalar(ga_best_word))].into(),
            60.0,
            Metric::CeAverage,
        )?
        .fitness;

    let worst_over_best = if ga_best_ce > 0.0 {
        ga_worst_ce / ga_best_ce
    } else {
        f64::INFINITY
    };
    let report = Fig08Report {
        cross_temperature_smf: cross_smf(&worst_55, &worst_60),
        worst_vs_best_smf: cross_smf(&worst_55, &best_55),
        worst_over_best,
        worst_55c: summarize(&worst_55),
        worst_60c: summarize(&worst_60),
        best_55c: summarize(&best_55),
        ue_62c: summarize(&ue_62),
        baselines_60c: baselines,
        ga_worst_ce,
        ga_best_ce,
    };
    Ok(report)
}

impl Fig08Report {
    /// Renders the whole figure family as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, s) in [
            ("Fig. 8a - worst-case 64-bit patterns, 55C", &self.worst_55c),
            ("Fig. 8b - worst-case 64-bit patterns, 60C", &self.worst_60c),
            ("Fig. 8c - best-case 64-bit patterns, 55C", &self.best_55c),
            ("Fig. 8d - UE-triggering 64-bit patterns, 62C", &self.ue_62c),
        ] {
            out.push_str(&format!(
                "{label}\n  best fitness {:.1}, SMF {:.2}, converged {}, {} generations, 1100-match {:.2}\n",
                s.best_fitness, s.similarity, s.converged, s.generations, s.best_1100_match
            ));
            let mut t = TextTable::new(vec!["#", "pattern (bits 0..31)", "fitness"]);
            for (i, (w, f)) in s.leaderboard.iter().take(8).enumerate() {
                t.row(vec![
                    i.to_string(),
                    pattern_prefix(&[*w], 32),
                    format!("{f:.1}"),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "cross-temperature SMF (55C vs 60C worst boards): {:.2}\n",
            self.cross_temperature_smf
        ));
        out.push_str(&format!(
            "worst-vs-best SMF: {:.2}; worst/best CE ratio: {:.1}x\n\n",
            self.worst_vs_best_smf, self.worst_over_best
        ));
        out.push_str("Fig. 8e - micro-benchmark comparison, 60C\n");
        let mut t = TextTable::new(vec!["pattern", "CEs/run", "vs GA worst"]);
        t.row(vec![
            "GA worst-case".into(),
            format!("{:.1}", self.ga_worst_ce),
            "-".into(),
        ]);
        for (name, ce) in &self.baselines_60c {
            t.row(vec![
                name.clone(),
                format!("{ce:.1}"),
                percent_delta(*ce, self.ga_worst_ce),
            ]);
        }
        t.row(vec![
            "GA best-case".into(),
            format!("{:.1}", self.ga_best_ce),
            percent_delta(self.ga_best_ce, self.ga_worst_ce),
        ]);
        out.push_str(&t.render());
        let strongest_baseline = self
            .baselines_60c
            .iter()
            .map(|(_, ce)| *ce)
            .fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "\nGA worst vs strongest micro-benchmark: {}\n",
            percent_delta(self.ga_worst_ce, strongest_baseline)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn canonical_worst_word_scores_full_1100_match() {
        let campaign_best = 0x3333_3333_3333_3333u64;
        let m = (0..4)
            .map(|shift| {
                let canon = 0x3333_3333_3333_3333u64.rotate_left(shift as u32);
                (64 - (campaign_best ^ canon).count_ones()) as f64 / 64.0
            })
            .fold(0.0f64, f64::max);
        assert_eq!(m, 1.0);
        // The complement phase (0xCCCC…) also tiles 1100 shifted by two.
        let complement = 0xCCCC_CCCC_CCCC_CCCCu64;
        let m2 = (0..4)
            .map(|shift| {
                let canon = 0x3333_3333_3333_3333u64.rotate_left(shift as u32);
                (64 - (complement ^ canon).count_ones()) as f64 / 64.0
            })
            .fold(0.0f64, f64::max);
        assert_eq!(m2, 1.0);
    }
}
