//! Fig. 2 — the address → physical-layout mapping (paper §II),
//! demonstrated on the first row-sized chunks of a default DIMM.
//!
//! Consecutive chunks stripe across the banks, so chunks `c`, `c + 8` and
//! `c + 16` are adjacent rows of one bank (paper Fig. 1a). The mapping is
//! pinned bit-exactly by the `dram::address` unit and property tests; this
//! report prints it.

use crate::error::DStressError;
use crate::report::TextTable;
use dstress_dram::geometry::Location;
use dstress_dram::{AddressMap, DimmGeometry};
use serde::{Deserialize, Serialize};

/// Chunks listed by the report.
const CHUNKS: u64 = 20;

/// The Fig. 2 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingReport {
    /// `(address, location)` of the first row-sized chunks, in order.
    pub chunks: Vec<(u64, Location)>,
}

/// Maps the first 20 row-sized chunks of a default DIMM.
///
/// # Errors
///
/// Fails only if a chunk address falls outside the DIMM.
pub fn run() -> Result<MappingReport, DStressError> {
    let geo = DimmGeometry::default();
    let map = AddressMap::new(geo);
    let chunks = (0..CHUNKS)
        .map(|chunk| {
            let addr = chunk * geo.row_bytes as u64;
            map.map(addr)
                .map(|loc| (addr, loc))
                .map_err(|e| DStressError::Experiment(format!("address {addr}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    Ok(MappingReport { chunks })
}

impl MappingReport {
    /// Renders the mapping table and the same-bank adjacency it implies.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 2 - address mapping (8KB-chunk striping)\n");
        let mut t = TextTable::new(vec!["addr", "rank", "bank", "row"]);
        for (addr, loc) in &self.chunks {
            t.row(vec![
                addr.to_string(),
                loc.rank.to_string(),
                loc.bank.to_string(),
                loc.row.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str("\nchunks 0, 8, 16 land in adjacent rows of bank 0 (paper Fig. 1a):\n");
        for chunk in [0usize, 8, 16] {
            if let Some((_, loc)) = self.chunks.get(chunk) {
                out.push_str(&format!("  chunk {chunk:>2} -> {loc}\n"));
            }
        }
        out
    }
}
