//! Figs. 11 & 12 — the memory-access-pattern searches.
//!
//! Paper observations reproduced here:
//!
//! * access template 1 (neighbour-row bitmap) raises victim-row CEs ≈ 71 %
//!   over the worst 24 KB data pattern, but the search does *not* converge
//!   (SMF ≈ 0.5): disturbance saturates, so many row subsets are equally
//!   effective (Fig. 11);
//! * access template 2 (`aᵢ·x + bᵢ` strides over 16 rows) sits ≈ 56 %
//!   below template 1 (fewer aggressor rows) yet ≈ 10 % above the 24 KB
//!   data pattern; weighted-Jaccard similarity stays ≈ 0.45 (Fig. 12).

use crate::error::DStressError;
use crate::report::{percent_delta, TextTable};
use crate::scale::ExperimentScale;
use crate::search::{DStress, WORST_WORD};
use dstress_dram::geometry::RowKey;
use serde::{Deserialize, Serialize};

/// The Figs. 11–12 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1112Report {
    /// The error-prone rows the experiment centres on.
    pub victims: Vec<RowKey>,
    /// Victim-row CEs/run of the 24 KB-class data-pattern reference.
    pub data_pattern_ce: f64,
    /// Best victim-row CEs/run of access template 1.
    pub row_access_ce: f64,
    /// Template 1 leaderboard similarity (SMF).
    pub row_access_smf: f64,
    /// Whether template 1 converged.
    pub row_access_converged: bool,
    /// Per-row selection frequency across the template-1 leaderboard
    /// (index 0..64 ↔ rows −32..−1, +1..+32 of the victims).
    pub selection_frequency: Vec<f64>,
    /// Best victim-row CEs/run of access template 2.
    pub stride_ce: f64,
    /// Template 2 leaderboard similarity (weighted Jaccard).
    pub stride_jw: f64,
    /// Whether template 2 converged.
    pub stride_converged: bool,
    /// The winning stride coefficients (a₁…a₁₆, b₁…b₁₆).
    pub stride_coeffs: Vec<u64>,
}

/// Runs the Fig. 11 + Fig. 12 experiments.
///
/// `data_pattern_ce` is the 24 KB-class reference fitness: the Fig. 9 GA
/// best on the same victim rows.
///
/// # Errors
///
/// Propagates profiling and campaign failures.
pub fn run(
    scale: ExperimentScale,
    seed: u64,
    data_pattern_ce: f64,
) -> Result<Fig1112Report, DStressError> {
    let mut dstress = DStress::new(scale, seed);
    let temp = 60.0;
    let victims = dstress.profile_victims(temp, WORST_WORD)?;

    let row_access = dstress.search_row_access(temp, victims.clone(), WORST_WORD)?;
    let stride = dstress.search_stride_access(temp, victims.clone(), WORST_WORD)?;

    // Per-row selection frequency across the leaderboard (the Fig. 11
    // scatter: which rows the 40 best access patterns touch).
    let mut selection_frequency = vec![0.0; 64];
    for (genome, _) in &row_access.result.leaderboard {
        for (r, freq) in selection_frequency.iter_mut().enumerate() {
            if genome.bit(r) {
                *freq += 1.0;
            }
        }
    }
    let n = row_access.result.leaderboard.len().max(1) as f64;
    for f in &mut selection_frequency {
        *f /= n;
    }

    Ok(Fig1112Report {
        victims,
        data_pattern_ce,
        row_access_ce: row_access.result.best_fitness,
        row_access_smf: row_access.result.similarity,
        row_access_converged: row_access.result.converged,
        selection_frequency,
        stride_ce: stride.result.best_fitness,
        stride_jw: stride.result.similarity,
        stride_converged: stride.result.converged,
        stride_coeffs: stride.result.best.values().to_vec(),
    })
}

impl Fig1112Report {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fig. 11 - access virus (row bitmap), 60C\n  victims: {:?}\n",
            self.victims
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        ));
        let mut t = TextTable::new(vec!["virus", "victim-row CEs/run", "vs data pattern"]);
        t.row(vec![
            "worst data pattern (reference)".into(),
            format!("{:.1}", self.data_pattern_ce),
            "-".into(),
        ]);
        t.row(vec![
            "access template 1 GA best".into(),
            format!("{:.1}", self.row_access_ce),
            percent_delta(self.row_access_ce, self.data_pattern_ce),
        ]);
        t.row(vec![
            "access template 2 GA best".into(),
            format!("{:.1}", self.stride_ce),
            percent_delta(self.stride_ce, self.data_pattern_ce),
        ]);
        out.push_str(&t.render());
        out.push_str(&format!(
            "\ntemplate 1: SMF {:.2}, converged {} (paper: non-convergent, SMF ~0.5)\n",
            self.row_access_smf, self.row_access_converged
        ));
        out.push_str("row-selection frequency over the leaderboard (rows -32..+32):\n  ");
        for (i, f) in self.selection_frequency.iter().enumerate() {
            if i == 32 {
                out.push_str("| ");
            }
            out.push(match (f * 10.0) as u32 {
                0..=2 => '.',
                3..=5 => 'o',
                6..=8 => 'O',
                _ => '#',
            });
        }
        out.push('\n');
        out.push_str(&format!(
            "\nFig. 12 - access virus (a*x+b strides): JW {:.2}, converged {}, vs template 1 {}\n",
            self.stride_jw,
            self.stride_converged,
            percent_delta(self.stride_ce, self.row_access_ce),
        ));
        out.push_str(&format!(
            "  winning coefficients a = {:?}\n                       b = {:?}\n",
            &self.stride_coeffs[..16],
            &self.stride_coeffs[16..],
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_handles_synthetic_report() {
        let report = Fig1112Report {
            victims: vec![RowKey::new(0, 0, 13)],
            data_pattern_ce: 100.0,
            row_access_ce: 171.0,
            row_access_smf: 0.5,
            row_access_converged: false,
            selection_frequency: vec![0.5; 64],
            stride_ce: 110.0,
            stride_jw: 0.45,
            stride_converged: false,
            stride_coeffs: (0..32).collect(),
        };
        let s = report.render();
        assert!(s.contains("+71.0 %"));
        assert!(s.contains("+10.0 %"));
        assert!(s.contains("JW 0.45"));
    }
}
