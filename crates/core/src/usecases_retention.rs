//! Per-row retention-time profiling (paper §I/§VII context).
//!
//! The refresh-optimization literature the paper builds on (RAIDR — Liu et
//! al.; REAPER — Patel et al.) profiles the retention time of rows so that
//! strong rows can be refreshed less often. DStress's stress viruses make
//! such profiles trustworthy: profiling under the worst-case data pattern
//! bounds the true retention from below, whereas profiling with a benign
//! pattern overestimates it (the paper's §I critique of retention-profiling
//! micro-benchmarks).

use crate::error::DStressError;
use crate::evaluate::Metric;
use crate::search::{DStress, EnvKind};
use crate::usecases::trefp_grid;
use dstress_dram::geometry::RowKey;
use dstress_vpl::BoundValue;
use serde::{Deserialize, Serialize};

/// The retention profile of one DIMM under a given fill pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetentionProfile {
    /// The fill pattern the profile was taken under.
    pub fill: u64,
    /// The probed refresh-period grid (ascending).
    pub grid: Vec<f64>,
    /// Per-row largest safe refresh period: `(row, trefp_s)`. Rows absent
    /// from the map were safe even at the largest probed period.
    pub weak_rows: Vec<(RowKey, f64)>,
    /// Rows safe at every probed period.
    pub strong_rows: u64,
    /// Total rows on the DIMM.
    pub total_rows: u64,
}

impl RetentionProfile {
    /// RAIDR-style bin counts: how many rows need refresh at ≤ each grid
    /// period (cumulative).
    pub fn bins(&self) -> Vec<(f64, u64)> {
        self.grid
            .iter()
            .map(|&t| {
                let rows = self.weak_rows.iter().filter(|(_, m)| *m <= t).count() as u64;
                (t, rows)
            })
            .collect()
    }

    /// The fraction of rows that can tolerate a refresh period of at least
    /// `trefp_s` — the quantity refresh-reduction schemes bank on.
    pub fn strong_fraction_at(&self, trefp_s: f64) -> f64 {
        let weak = self.weak_rows.iter().filter(|(_, m)| *m < trefp_s).count() as u64;
        (self.total_rows - weak) as f64 / self.total_rows as f64
    }
}

/// Profiles per-row retention on DIMM2: sweeps the refresh-period grid
/// under the given fill pattern and records, per row, the largest period at
/// which the row stayed error-free.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn profile_retention(
    dstress: &DStress,
    fill: u64,
    temp_c: f64,
    grid_points: usize,
) -> Result<RetentionProfile, DStressError> {
    let grid = trefp_grid(grid_points);
    let geo = dstress.scale.server.dimm.geometry;
    let total_rows = geo.ranks as u64 * geo.banks as u64 * geo.rows_per_bank as u64;
    // Every (row, grid index) at which a row erred; a row's safe margin is
    // one grid step below the first.
    let mut failing: Vec<(RowKey, usize)> = Vec::new();
    for (i, &trefp) in grid.iter().enumerate() {
        if i == 0 {
            // The nominal period is the reference "always safe" floor.
            continue;
        }
        let mut evaluator = dstress.evaluator(&EnvKind::Word64, temp_c, Metric::CeAverage)?;
        let server = evaluator.server_mut();
        server.set_trefp(2, trefp);
        server.set_trefp(3, trefp);
        evaluator.evaluate_bindings([("PATTERN".to_string(), BoundValue::Scalar(fill))].into())?;
        // Re-run once more to capture rows (VRT may blink rows in/out; the
        // union over runs is what a profiler would record).
        let template = crate::templates::process(crate::templates::WORD64, &dstress.scale)?;
        let mut bindings = EnvKind::Word64.bindings(&dstress.scale)?;
        bindings.insert("PATTERN".into(), BoundValue::Scalar(fill));
        let program = template.instantiate(&bindings)?;
        let server = evaluator.server_mut();
        server.reset_memory();
        let mut session = server.session(2);
        let compiled = dstress_vpl::compile(&program).map_err(DStressError::from)?;
        dstress_vpl::Vm::new(dstress_vpl::ExecLimits::default())
            .run(&compiled, &mut session)
            .map_err(DStressError::from)?;
        let run = session.finish();
        let total = server.evaluate_runs_total(run, dstress.scale.runs_per_virus, 0x6E7E)?;
        failing.extend(
            total
                .row_errors
                .iter()
                .filter(|e| e.mcu == 2)
                .map(|e| (e.row, i)),
        );
    }
    // Keep each row's first failing grid point.
    failing.sort_unstable();
    failing.dedup_by_key(|&mut (row, _)| row);
    let weak_rows: Vec<(RowKey, f64)> = {
        let mut rows: Vec<(RowKey, f64)> = failing
            .into_iter()
            .map(|(row, i)| (row, grid[i - 1]))
            .collect();
        rows.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite margins")
                .then(a.0.cmp(&b.0))
        });
        rows
    };
    let strong_rows = total_rows - weak_rows.len() as u64;
    Ok(RetentionProfile {
        fill,
        grid,
        weak_rows,
        strong_rows,
        total_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use crate::search::{BEST_WORD, WORST_WORD};

    #[test]
    fn worst_pattern_profile_is_more_pessimistic_than_best_pattern() {
        // The paper's §I point: retention profiles depend on the data
        // pattern; profiling with a benign pattern overestimates margins.
        let dstress = DStress::new(ExperimentScale::quick(), 31);
        let worst = profile_retention(&dstress, WORST_WORD, 60.0, 6).unwrap();
        let best = profile_retention(&dstress, BEST_WORD, 60.0, 6).unwrap();
        assert!(
            worst.weak_rows.len() > best.weak_rows.len(),
            "worst-pattern profile ({} weak rows) must find more weak rows than the benign \
             profile ({})",
            worst.weak_rows.len(),
            best.weak_rows.len()
        );
        assert_eq!(worst.total_rows, 2 * 8 * 16);
        assert_eq!(
            worst.strong_rows + worst.weak_rows.len() as u64,
            worst.total_rows
        );
    }

    #[test]
    fn bins_are_cumulative_and_strong_fraction_is_monotone() {
        let dstress = DStress::new(ExperimentScale::quick(), 32);
        let profile = profile_retention(&dstress, WORST_WORD, 60.0, 6).unwrap();
        let bins = profile.bins();
        for w in bins.windows(2) {
            assert!(w[1].1 >= w[0].1, "bins must be cumulative");
        }
        let f_nominal = profile.strong_fraction_at(0.064);
        let f_max = profile.strong_fraction_at(2.283);
        assert!(f_nominal >= f_max);
        assert!((0.0..=1.0).contains(&f_max));
        // Most rows tolerate far more than the nominal period (RAIDR's
        // premise).
        assert!(
            f_nominal > 0.99,
            "nominal refresh must be safe for ~all rows"
        );
    }
}
