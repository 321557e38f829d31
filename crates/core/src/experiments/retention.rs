//! Retention profiling under worst-case vs benign fill (extension, paper
//! §I/§VI): the RAIDR-style per-row profile a refresh-reduction scheme
//! would bank on, taken with the 64-bit worst-case pattern and with its
//! complement. Profiling under a benign pattern overestimates the margins —
//! the paper's §I critique of retention-profiling micro-benchmarks.

use crate::error::DStressError;
use crate::scale::ExperimentScale;
use crate::search::{DStress, BEST_WORD, WORST_WORD};
use crate::usecases_retention::{profile_retention, RetentionProfile};
use serde::{Deserialize, Serialize};

/// The retention-profiling report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetentionReport {
    /// `(label, profile)` under the worst-case fill, then the benign fill.
    pub profiles: Vec<(String, RetentionProfile)>,
}

/// Profiles DIMM2 at 60 °C over an 8-point refresh-period grid under both
/// fills.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<RetentionReport, DStressError> {
    let dstress = DStress::new(scale, seed);
    let profiles = [("worst-case fill", WORST_WORD), ("benign fill", BEST_WORD)]
        .into_iter()
        .map(|(label, fill)| {
            Ok((
                label.to_string(),
                profile_retention(&dstress, fill, 60.0, 8)?,
            ))
        })
        .collect::<Result<_, DStressError>>()?;
    Ok(RetentionReport { profiles })
}

impl RetentionReport {
    /// Renders the cumulative row bins of each profile.
    pub fn render(&self) -> String {
        let mut out = String::from("Retention profiling (extension, paper §I/§VI), 60C\n");
        for (label, profile) in &self.profiles {
            out.push_str(&format!(
                "\n{label} ({:#018x}): {} weak rows of {} total\n",
                profile.fill,
                profile.weak_rows.len(),
                profile.total_rows
            ));
            for (trefp, rows) in profile.bins() {
                out.push_str(&format!("  rows needing refresh <= {trefp:.3} s: {rows}\n"));
            }
            out.push_str(&format!(
                "  fraction of rows safe at 4x nominal refresh: {:.3}\n",
                profile.strong_fraction_at(4.0 * 0.064)
            ));
        }
        out.push_str(
            "\n(profiling under a benign pattern overestimates margins - the paper's §I critique)\n",
        );
        out
    }
}
