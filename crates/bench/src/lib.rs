//! The DStress figure runner and its claim checks.
//!
//! One binary, `all_figures`, regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §5 for the index) plus the extension
//! experiments. [`figures`] names them, orders them by what they read from
//! each other and archives their typed reports as JSON; [`claims`] checks
//! the paper's claims against those reports; [`render`] turns the reports
//! and the run's metadata into EXPERIMENTS.md.
//!
//! The experiment scale comes from the `DSTRESS_SCALE` environment variable
//! (`paper` by default, `quick` for smoke runs). The crate's Criterion
//! benches compare each fast path with its reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod figures;
pub mod render;

use dstress::ExperimentScale;
use std::path::PathBuf;

/// Resolves the experiment scale from the environment.
pub fn scale() -> ExperimentScale {
    ExperimentScale::from_env()
}

/// A fixed campaign seed, so reruns reproduce exactly.
pub const CAMPAIGN_SEED: u64 = 0x00D5_7E55;

/// The workspace root: where `results/` and EXPERIMENTS.md live.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // The test environment does not set DSTRESS_SCALE.
        if std::env::var("DSTRESS_SCALE").is_err() {
            assert_eq!(scale().name, "paper");
        }
    }
}
