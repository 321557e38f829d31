//! Experiment scales.
//!
//! The paper's campaign ran for seven months on 8 GB modules; the
//! reproduction compresses both time (refresh windows instead of 2-hour
//! exposures) and space (a scaled DIMM with proportionally dense weak
//! cells). Two presets are provided:
//!
//! * [`ExperimentScale::paper`] — the figure runner's default scale.
//!   Rows are 2 KB (¼ of the real 8 KB), so the paper's
//!   "24 KB pattern" (one victim row + both same-bank neighbours) is a
//!   6 KB chromosome here and the "512 KB pattern" (64 consecutive chunks)
//!   is 128 KB. All structural relationships are preserved; EXPERIMENTS.md
//!   records the scale next to every figure.
//! * [`ExperimentScale::quick`] — a miniature for unit/integration tests.

use dstress_dram::DimmGeometry;
use dstress_ga::GaConfig;
use dstress_platform::ServerConfig;
use serde::{Deserialize, Serialize};

/// Everything that sizes an experimental campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Human-readable scale name (appears in reports).
    pub name: &'static str,
    /// The server (and DIMM physics) configuration.
    pub server: ServerConfig,
    /// Base GA configuration (searches tweak genome-specific fields).
    pub ga: GaConfig,
    /// Virus runs averaged per fitness evaluation (paper: 10).
    pub runs_per_virus: u32,
    /// Victim (error-prone) rows the neighbour-row experiments centre on.
    pub victims: usize,
    /// Iterations of the stride loop in access template 2 (paper: 65536;
    /// scaled so one trace pass stays small — replay supplies intensity).
    pub stride_iters: u64,
    /// Random viruses sampled by the efficiency experiment (Fig. 13).
    pub random_samples: usize,
}

impl ExperimentScale {
    /// The figure runner's default scale (see module docs).
    pub fn paper() -> Self {
        let mut server = ServerConfig::default();
        server.dimm.geometry = DimmGeometry {
            ranks: 2,
            banks: 8,
            rows_per_bank: 32,
            row_bytes: 2048,
        };
        server.windows_per_run = 12;
        // The DIMM is scaled 4x down from 8 KB rows, so scale the cache the
        // same way (the paper's viruses are cache-filtered, not cache-free).
        server.access.cache_bytes = 64 * 1024;
        // The DIMM capacity is scaled down ~4000x from 8 GB, so the load
        // rate is scaled too: per-row activation rates (the quantity the
        // disturbance physics consumes) stay realistic.
        server.access.accesses_per_s = 150.0e3;
        // Quiescent (scrubbed) content outside the virus footprint.
        server.dimm.default_fill = 0xCCCC_CCCC_CCCC_CCCC;
        server.density_multipliers = [0.5, 0.25, 1.0, 0.02];
        let mut ga = GaConfig::paper_defaults();
        // The popcount calibration converges in ~60-90 generations; 150
        // caps the non-convergent searches (the stand-in for the paper's
        // two-week wall-clock limit).
        ga.max_generations = 150;
        ExperimentScale {
            name: "paper",
            server,
            ga,
            runs_per_virus: 10,
            victims: 4,
            stride_iters: 512,
            random_samples: 400,
        }
    }

    /// A miniature scale for tests: tiny DIMMs, small populations, few
    /// generations — seconds instead of minutes.
    pub fn quick() -> Self {
        let mut server = ServerConfig::default();
        server.dimm.geometry = DimmGeometry {
            ranks: 2,
            banks: 8,
            rows_per_bank: 16,
            row_bytes: 1024,
        };
        server.dimm.weak.singles_per_rank = 800;
        server.dimm.weak.pairs_per_rank = 30;
        server.windows_per_run = 4;
        server.access.cache_bytes = 16 * 1024;
        server.access.accesses_per_s = 150.0e3;
        server.dimm.default_fill = 0xCCCC_CCCC_CCCC_CCCC;
        server.density_multipliers = [0.5, 0.25, 1.0, 0.02];
        let mut ga = GaConfig::paper_defaults();
        ga.population_size = 12;
        ga.max_generations = 12;
        ga.stagnation_window = 4;
        ExperimentScale {
            name: "quick",
            server,
            ga,
            runs_per_virus: 3,
            victims: 2,
            stride_iters: 64,
            random_samples: 40,
        }
    }

    /// Reads the scale from the `DSTRESS_SCALE` environment variable
    /// (`paper` default, `quick` for smoke runs).
    pub fn from_env() -> Self {
        match std::env::var("DSTRESS_SCALE").as_deref() {
            Ok("quick") => ExperimentScale::quick(),
            _ => ExperimentScale::paper(),
        }
    }

    /// 64-bit words per DRAM row at this scale.
    pub fn row_words(&self) -> u64 {
        self.server.dimm.geometry.row_bytes as u64 / 8
    }

    /// Chunk stride (in words) between same-bank adjacent rows — 8 KB
    /// chunks stripe across the banks (paper Fig. 1a), so consecutive rows
    /// of one bank sit `banks × row_words` words apart in the address
    /// space.
    pub fn bank_stride_words(&self) -> u64 {
        self.server.dimm.geometry.banks as u64 * self.row_words()
    }

    /// Total 64-bit words per DIMM.
    pub fn dimm_words(&self) -> u64 {
        self.server.dimm.geometry.capacity_bytes() / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_consistent() {
        let s = ExperimentScale::paper();
        assert_eq!(s.row_words(), 256);
        assert_eq!(s.bank_stride_words(), 8 * 256);
        assert_eq!(s.dimm_words(), 2 * 8 * 32 * 256);
        assert_eq!(s.ga.population_size, 40);
    }

    #[test]
    fn quick_scale_is_smaller() {
        let q = ExperimentScale::quick();
        let p = ExperimentScale::paper();
        assert!(q.dimm_words() < p.dimm_words());
        assert!(q.ga.population_size < p.ga.population_size);
        assert!(q.runs_per_virus < p.runs_per_virus);
    }
}
