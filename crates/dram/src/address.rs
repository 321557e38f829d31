//! The address-to-physical-layout mapping function (paper §II, Fig. 2).
//!
//! The paper documents, for the 8 GB DDR3 DIMMs of its testbed, that each
//! 8 KB chunk of the physical address space maps to exactly one DRAM row and
//! that *consecutive* chunks stripe across banks: chunk 1 → Row1.Bank1,
//! chunk 2 → Row1.Bank2, …, chunk 9 → Row2.Bank1. Hence chunks `c`, `c+8`
//! and `c+16` occupy three *adjacent rows of the same bank* — the property
//! every neighbour-row experiment (24 KB patterns, access viruses) builds on.
//!
//! [`AddressMap`] implements exactly that layout for arbitrary geometry:
//!
//! ```text
//! addr = ((rank * rows + row) * banks + bank) * row_bytes + col * 8
//! ```

use crate::geometry::{DimmGeometry, Location};
use serde::{Deserialize, Serialize};

/// Maps 64-bit-aligned DIMM-local physical addresses to physical-layout
/// coordinates and back.
///
/// # Examples
///
/// ```
/// use dstress_dram::{AddressMap, DimmGeometry};
///
/// let map = AddressMap::new(DimmGeometry::default());
/// // Chunk 0 and chunk 8 are adjacent rows of the same bank (Fig. 1a).
/// let a = map.map(0).unwrap();
/// let b = map.map(8 * 8192).unwrap();
/// assert_eq!(a.bank, b.bank);
/// assert_eq!(a.row + 1, b.row);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMap {
    geometry: DimmGeometry,
}

/// Error mapping an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressError {
    /// The address is beyond the DIMM capacity.
    OutOfRange {
        /// The offending address.
        addr: u64,
        /// The DIMM capacity in bytes.
        capacity: u64,
    },
    /// The address is not 8-byte aligned.
    Unaligned {
        /// The offending address.
        addr: u64,
    },
    /// The location does not exist in the geometry.
    BadLocation,
}

impl std::fmt::Display for AddressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddressError::OutOfRange { addr, capacity } => {
                write!(f, "address {addr:#x} exceeds DIMM capacity {capacity:#x}")
            }
            AddressError::Unaligned { addr } => {
                write!(f, "address {addr:#x} is not 64-bit aligned")
            }
            AddressError::BadLocation => write!(f, "location outside DIMM geometry"),
        }
    }
}

impl std::error::Error for AddressError {}

impl AddressMap {
    /// Creates the mapping function for a geometry.
    pub fn new(geometry: DimmGeometry) -> Self {
        AddressMap { geometry }
    }

    /// The geometry this map was built for.
    pub fn geometry(&self) -> DimmGeometry {
        self.geometry
    }

    /// Maps a 64-bit-aligned DIMM-local address to its physical location.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError::Unaligned`] for addresses that are not 8-byte
    /// aligned and [`AddressError::OutOfRange`] for addresses beyond the
    /// DIMM capacity.
    pub fn map(&self, addr: u64) -> Result<Location, AddressError> {
        if !addr.is_multiple_of(8) {
            return Err(AddressError::Unaligned { addr });
        }
        let capacity = self.geometry.capacity_bytes();
        if addr >= capacity {
            return Err(AddressError::OutOfRange { addr, capacity });
        }
        let row_bytes = self.geometry.row_bytes as u64;
        let banks = self.geometry.banks as u64;
        let rows = self.geometry.rows_per_bank as u64;
        let col = (addr % row_bytes) / 8;
        let chunk = addr / row_bytes;
        let bank = chunk % banks;
        let row = (chunk / banks) % rows;
        let rank = chunk / (banks * rows);
        Ok(Location::new(
            rank as u8, bank as u8, row as u32, col as u32,
        ))
    }

    /// Inverse of [`Self::map`]: physical location back to the DIMM-local
    /// address.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError::BadLocation`] when the location lies outside
    /// the geometry.
    pub fn unmap(&self, loc: Location) -> Result<u64, AddressError> {
        if !self.geometry.contains(loc) {
            return Err(AddressError::BadLocation);
        }
        let row_bytes = self.geometry.row_bytes as u64;
        let banks = self.geometry.banks as u64;
        let rows = self.geometry.rows_per_bank as u64;
        let chunk = (loc.rank as u64 * rows + loc.row as u64) * banks + loc.bank as u64;
        Ok(chunk * row_bytes + loc.col as u64 * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map() -> AddressMap {
        AddressMap::new(DimmGeometry::default())
    }

    #[test]
    fn chunk_zero_is_bank0_row0() {
        let loc = map().map(0).unwrap();
        assert_eq!(loc, Location::new(0, 0, 0, 0));
    }

    #[test]
    fn consecutive_chunks_stripe_across_banks() {
        // Paper Fig. 1a: chunk c -> Bank (c mod 8), same row index.
        let m = map();
        for c in 0..8u64 {
            let loc = m.map(c * 8192).unwrap();
            assert_eq!(loc.bank, c as u8);
            assert_eq!(loc.row, 0);
            assert_eq!(loc.rank, 0);
        }
    }

    #[test]
    fn chunks_1_9_17_are_adjacent_rows_of_bank0() {
        // Paper: "the first 8-KByte chunk of data, the 9-th data chunk and
        // the 17-th data chunk are mapped to the first three adjacent rows
        // of the first bank" (1-indexed chunks).
        let m = map();
        for (i, chunk) in [0u64, 8, 16].iter().enumerate() {
            let loc = m.map(chunk * 8192).unwrap();
            assert_eq!(loc.bank, 0);
            assert_eq!(loc.row, i as u32);
        }
    }

    #[test]
    fn columns_fill_within_a_row() {
        let m = map();
        for w in 0..1024u64 {
            let loc = m.map(w * 8).unwrap();
            assert_eq!(loc.row_key(), Location::new(0, 0, 0, 0).row_key());
            assert_eq!(loc.col, w as u32);
        }
    }

    #[test]
    fn second_rank_follows_first() {
        let m = map();
        let per_rank = 8u64 * 64 * 8192;
        let loc = m.map(per_rank).unwrap();
        assert_eq!(loc.rank, 1);
        assert_eq!((loc.bank, loc.row, loc.col), (0, 0, 0));
    }

    #[test]
    fn unaligned_and_out_of_range_rejected() {
        let m = map();
        assert!(matches!(m.map(7), Err(AddressError::Unaligned { .. })));
        let cap = DimmGeometry::default().capacity_bytes();
        assert!(matches!(m.map(cap), Err(AddressError::OutOfRange { .. })));
    }

    #[test]
    fn unmap_rejects_bad_location() {
        assert_eq!(
            map().unmap(Location::new(5, 0, 0, 0)).unwrap_err(),
            AddressError::BadLocation
        );
    }

    proptest! {
        #[test]
        fn map_unmap_roundtrip(word in 0u64..(2 * 8 * 64 * 1024)) {
            let m = map();
            let addr = word * 8;
            let loc = m.map(addr).unwrap();
            prop_assert_eq!(m.unmap(loc).unwrap(), addr);
        }

        #[test]
        fn mapping_is_injective_within_a_chunk_pair(a in 0u64..16384, b in 0u64..16384) {
            let m = map();
            let la = m.map(a * 8).unwrap();
            let lb = m.map(b * 8).unwrap();
            if a != b {
                prop_assert_ne!(la, lb);
            } else {
                prop_assert_eq!(la, lb);
            }
        }

        #[test]
        fn adjacent_chunks_same_bank_are_adjacent_rows(chunk in 0u64..(8 * 63)) {
            let m = map();
            let a = m.map(chunk * 8192).unwrap();
            let b = m.map((chunk + 8) * 8192).unwrap();
            prop_assert_eq!(a.bank, b.bank);
            prop_assert_eq!(a.rank, b.rank);
            prop_assert_eq!(a.row + 1, b.row);
        }
    }
}
