//! Fig. 1b — workload-dependent DRAM error behaviour.
//!
//! The paper's motivating polar plot: single-bit errors per DIMM/rank for
//! *kmeans* vs *memcached* under relaxed parameters at 50 °C; the counts
//! differ by up to 1000× between workloads on one DIMM and 633× between
//! DIMMs under one workload.

use crate::error::DStressError;
use crate::report::TextTable;
use crate::scale::ExperimentScale;
use crate::workloads::Workload;
use dstress_platform::{XGene2Server, MCUS, RANKS};
use serde::{Deserialize, Serialize};

/// CE counts per (DIMM, rank) for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadErrors {
    /// The workload.
    pub workload: Workload,
    /// `counts[mcu][rank]` = CEs summed over the runs.
    pub counts: Vec<[u64; RANKS]>,
}

/// The Fig. 1b report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig01bReport {
    /// Per-workload per-domain counts.
    pub workloads: Vec<WorkloadErrors>,
    /// Largest per-domain ratio between the two workloads.
    pub max_workload_ratio: f64,
    /// Largest cross-DIMM ratio under a single workload.
    pub max_dimm_ratio: f64,
}

/// Runs the Fig. 1b experiment: both workloads deployed across all DIMMs,
/// the whole second domain relaxed, every DIMM held at 50 °C.
///
/// # Errors
///
/// Propagates workload deployment failures.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<Fig01bReport, DStressError> {
    let mut results = Vec::new();
    for workload in [Workload::Kmeans, Workload::Memcached] {
        let mut server = XGene2Server::new(scale.server);
        // Fig. 1b relaxes parameters for the observed DIMMs; apply the
        // §IV configuration and heat every DIMM to 50 °C.
        server.relax_second_domain();
        server.set_trefp(0, dstress_dram::env::MAX_TREFP_S);
        server.set_trefp(1, dstress_dram::env::MAX_TREFP_S);
        server.set_vdd(0, 1.428);
        for mcu in 0..MCUS {
            server
                .set_dimm_temperature(mcu, 50.0)
                .map_err(crate::error::PlatformError::from)?;
        }
        let run = workload
            .deploy(&mut server, seed)
            .map_err(|e| DStressError::Experiment(format!("workload deployment failed: {e}")))?;
        let mut counts = vec![[0u64; RANKS]; MCUS];
        for d in server
            .evaluate_runs_total(run, scale.runs_per_virus, seed)?
            .per_domain
        {
            counts[d.mcu][d.rank] = d.counts.ce;
        }
        results.push(WorkloadErrors { workload, counts });
    }

    // Ratios.
    let mut max_workload_ratio: f64 = 1.0;
    for mcu in 0..MCUS {
        for rank in 0..RANKS {
            let a = results[0].counts[mcu][rank].max(1) as f64;
            let b = results[1].counts[mcu][rank].max(1) as f64;
            max_workload_ratio = max_workload_ratio.max(a / b).max(b / a);
        }
    }
    let mut max_dimm_ratio: f64 = 1.0;
    for w in &results {
        let per_dimm: Vec<u64> = w.counts.iter().map(|r| r[0] + r[1]).collect();
        for &a in &per_dimm {
            for &b in &per_dimm {
                if b > 0 && a > 0 {
                    max_dimm_ratio = max_dimm_ratio.max(a as f64 / b as f64);
                }
            }
        }
    }

    Ok(Fig01bReport {
        workloads: results,
        max_workload_ratio,
        max_dimm_ratio,
    })
}

impl Fig01bReport {
    /// Renders the polar data as a table (θ = DIMM/rank, ρ = CE count).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Fig. 1b - single-bit errors per DIMM/rank (relaxed parameters, 50C)\n");
        let mut t = TextTable::new(vec!["domain", "kmeans", "memcached"]);
        for mcu in 0..MCUS {
            for rank in 0..RANKS {
                t.row(vec![
                    format!("DIMM{mcu}/rank{rank}"),
                    self.workloads[0].counts[mcu][rank].to_string(),
                    self.workloads[1].counts[mcu][rank].to_string(),
                ]);
            }
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nmax workload-to-workload ratio (same domain): {:.0}x\nmax DIMM-to-DIMM ratio (same workload): {:.0}x\n",
            self.max_workload_ratio, self.max_dimm_ratio
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig01b_shows_workload_and_dimm_variation() {
        let report = run(ExperimentScale::quick(), 11).unwrap();
        assert_eq!(report.workloads.len(), 2);
        assert!(
            report.max_workload_ratio > 1.5,
            "workloads should differ: ratio {}",
            report.max_workload_ratio
        );
        assert!(
            report.max_dimm_ratio > 2.0,
            "DIMMs should differ: ratio {}",
            report.max_dimm_ratio
        );
        let s = report.render();
        assert!(s.contains("DIMM2/rank0"));
    }
}
