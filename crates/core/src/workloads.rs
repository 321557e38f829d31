//! Synthetic application workloads (paper §II, Fig. 1b).
//!
//! Fig. 1b contrasts the single-bit errors manifested by *kmeans* and
//! *memcached* across the four DIMMs: up to 1000× between workloads on the
//! same DIMM and 633× between DIMMs under the same workload. The paper's
//! point is that error behaviour is workload-dependent — through the data
//! each program stores and the access pattern it drives. These two models
//! generate the same qualitative contrast:
//!
//! * [`Workload::Kmeans`] — numeric working set: arrays of IEEE-754 doubles
//!   in `[0, 1)` (sign/exponent bits largely constant at `0x3F…`),
//!   streamed sequentially, moderate footprint;
//! * [`Workload::Memcached`] — key-value store: ASCII keys and values
//!   (bytes `0x20–0x7E`), hash-scattered accesses, large footprint.

use dstress_platform::session::{MemoryBus, RecordedRun, SessionError};
use dstress_platform::XGene2Server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A synthetic application workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// Sequential numeric scans over double-precision data.
    Kmeans,
    /// Hash-scattered reads/writes over ASCII key-value data.
    Memcached,
}

impl Workload {
    /// Workload name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Kmeans => "kmeans",
            Workload::Memcached => "memcached",
        }
    }

    /// Fraction of each DIMM the workload's data occupies.
    fn footprint(&self) -> f64 {
        match self {
            Workload::Kmeans => 0.35,
            Workload::Memcached => 0.85,
        }
    }

    /// One "data word" of this workload.
    fn data_word(&self, rng: &mut StdRng) -> u64 {
        match self {
            Workload::Kmeans => {
                // A double in [1, 2): sign 0, exponent 0x3FF, random
                // mantissa — the top 12 bits are constant across the array.
                let mantissa: u64 = rng.gen::<u64>() & ((1 << 52) - 1);
                0x3FF0_0000_0000_0000 | mantissa
            }
            Workload::Memcached => {
                // Eight printable ASCII bytes.
                let mut w = 0u64;
                for i in 0..8 {
                    w |= (rng.gen_range(0x20u64..0x7F)) << (8 * i);
                }
                w
            }
        }
    }

    /// Populates one MCU's share of the workload through a session and
    /// issues a bounded access pass.
    ///
    /// # Errors
    ///
    /// Propagates session memory errors.
    fn drive(
        &self,
        session: &mut dyn MemoryBus,
        bytes: u64,
        seed: u64,
    ) -> Result<(), SessionError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = session.alloc(bytes)?;
        let words = bytes / 8;
        // Same values in the same order as a write_u64 loop, batched per row.
        let data: Vec<u64> = (0..words).map(|_| self.data_word(&mut rng)).collect();
        session.fill(base, &data)?;
        match self {
            Workload::Kmeans => {
                // Sequential distance-computation scans.
                for w in 0..words {
                    session.read_u64(base + w * 8)?;
                }
            }
            Workload::Memcached => {
                // Hash-scattered GET/SET mix (~10 % writes).
                for _ in 0..words {
                    let slot = rng.gen_range(0..words);
                    if rng.gen::<f64>() < 0.1 {
                        session.write_u64(base + slot * 8, self.data_word(&mut rng))?;
                    } else {
                        session.read_u64(base + slot * 8)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deploys the workload across all four DIMMs of a server (the paper
    /// observes errors in every DIMM slot) and returns the merged recorded
    /// run.
    ///
    /// # Errors
    ///
    /// Propagates session memory errors.
    pub fn deploy(
        &self,
        server: &mut XGene2Server,
        seed: u64,
    ) -> Result<RecordedRun, SessionError> {
        server.reset_memory();
        let capacity = server.config().dimm.geometry.capacity_bytes();
        let row = server.row_bytes();
        let bytes = ((capacity as f64 * self.footprint()) as u64 / row).max(1) * row;
        let mut merged = RecordedRun::idle(2);
        for mcu in 0..dstress_platform::MCUS {
            let mut session = server.session(mcu);
            self.drive(&mut session, bytes, seed ^ (mcu as u64) << 8)?;
            let run = session.finish();
            merged.append_run(&run);
            merged.truncated |= run.truncated;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_platform::ServerConfig;

    fn server() -> XGene2Server {
        let mut config = ServerConfig::small();
        config.dimm.geometry.rows_per_bank = 16;
        config.dimm.geometry.row_bytes = 1024;
        XGene2Server::new(config)
    }

    #[test]
    fn kmeans_data_looks_like_doubles() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let w = Workload::Kmeans.data_word(&mut rng);
            assert_eq!(w >> 52, 0x3FF, "exponent field must be constant");
        }
    }

    #[test]
    fn memcached_data_is_printable_ascii() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let w = Workload::Memcached.data_word(&mut rng);
            for i in 0..8 {
                let b = (w >> (8 * i)) & 0xFF;
                assert!((0x20..0x7F).contains(&b), "byte {b:#x} not printable");
            }
        }
    }

    #[test]
    fn deploy_touches_all_mcus() {
        let mut sv = server();
        let run = Workload::Kmeans.deploy(&mut sv, 3).unwrap();
        let mcus: std::collections::HashSet<u8> = run.iter().map(|t| t.mcu).collect();
        assert_eq!(mcus.len(), 4);
        assert!(!run.is_empty());
    }

    #[test]
    fn memcached_has_larger_footprint_than_kmeans() {
        let mut sv = server();
        Workload::Kmeans.deploy(&mut sv, 3).unwrap();
        let kmeans_rows = sv.dimm(2).materialized_rows();
        Workload::Memcached.deploy(&mut sv, 3).unwrap();
        let memcached_rows = sv.dimm(2).materialized_rows();
        assert!(memcached_rows > kmeans_rows);
    }

    #[test]
    fn workloads_manifest_different_error_counts() {
        let mut sv = server();
        sv.relax_second_domain();
        sv.set_dimm_temperature(2, 60.0).unwrap();
        sv.set_dimm_temperature(3, 60.0).unwrap();
        let kmeans_run = Workload::Kmeans.deploy(&mut sv, 5).unwrap();
        let kmeans = sv.evaluate_runs_total(kmeans_run, 3, 1).unwrap().totals.ce;
        let memcached_run = Workload::Memcached.deploy(&mut sv, 5).unwrap();
        let memcached = sv
            .evaluate_runs_total(memcached_run, 3, 2)
            .unwrap()
            .totals
            .ce;
        assert_ne!(kmeans, memcached, "workloads must differ in error counts");
    }
}
