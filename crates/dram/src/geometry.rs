//! DIMM geometry and cell addressing.

use serde::{Deserialize, Serialize};

/// The organization of one DIMM (paper §II, Fig. 1a): ranks of banks of
/// two-dimensional row/column arrays. Row size follows the paper's 8 KB
/// rows ("each 8-KByte data chunk is mapped to exactly one DRAM row").
///
/// The default is a scaled-down device (fewer rows than an 8 GB module) so a
/// seven-month experimental campaign fits in seconds of simulation; all
/// structural relationships (chunk→bank striping, row adjacency, 8 KB rows)
/// are preserved.
///
/// # Examples
///
/// ```
/// use dstress_dram::DimmGeometry;
///
/// let geo = DimmGeometry::default();
/// assert_eq!(geo.row_bytes, 8192);
/// assert_eq!(geo.words_per_row(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimmGeometry {
    /// Number of ranks (sides) on the DIMM. DDR3 server DIMMs have 2.
    pub ranks: u8,
    /// Number of banks per rank. DDR3 has 8.
    pub banks: u8,
    /// Number of rows per bank.
    pub rows_per_bank: u32,
    /// Bytes per row (the paper's modules use 8 KB rows).
    pub row_bytes: u32,
}

impl Default for DimmGeometry {
    fn default() -> Self {
        DimmGeometry {
            ranks: 2,
            banks: 8,
            rows_per_bank: 64,
            row_bytes: 8192,
        }
    }
}

impl DimmGeometry {
    /// 64-bit words per row.
    pub fn words_per_row(&self) -> usize {
        self.row_bytes as usize / 8
    }

    /// Bits per row.
    pub fn bits_per_row(&self) -> usize {
        self.row_bytes as usize * 8
    }

    /// Total capacity of the DIMM in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.ranks as u64 * self.banks as u64 * self.rows_per_bank as u64 * self.row_bytes as u64
    }

    /// Validates that every dimension is non-zero and the row size is a
    /// multiple of 8 bytes.
    pub fn validate(&self) -> Result<(), GeometryError> {
        if self.ranks == 0 || self.banks == 0 || self.rows_per_bank == 0 || self.row_bytes == 0 {
            return Err(GeometryError::ZeroDimension);
        }
        if !self.row_bytes.is_multiple_of(8) {
            return Err(GeometryError::UnalignedRow);
        }
        Ok(())
    }

    /// Whether a location lies inside this geometry.
    pub fn contains(&self, loc: Location) -> bool {
        loc.rank < self.ranks
            && loc.bank < self.banks
            && loc.row < self.rows_per_bank
            && (loc.col as usize) < self.words_per_row()
    }
}

/// Error validating a [`DimmGeometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// Some dimension was zero.
    ZeroDimension,
    /// The row size was not a multiple of 8 bytes.
    UnalignedRow,
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::ZeroDimension => write!(f, "geometry dimensions must be non-zero"),
            GeometryError::UnalignedRow => write!(f, "row size must be a multiple of 8 bytes"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// The physical-layout coordinates of one 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Location {
    /// Rank (side of the DIMM).
    pub rank: u8,
    /// Bank within the rank.
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
    /// 64-bit word column within the row.
    pub col: u32,
}

impl Location {
    /// Creates a location from raw coordinates.
    pub fn new(rank: u8, bank: u8, row: u32, col: u32) -> Self {
        Location {
            rank,
            bank,
            row,
            col,
        }
    }

    /// The (rank, bank, row) triple identifying the row this word lives in.
    pub fn row_key(&self) -> RowKey {
        RowKey {
            rank: self.rank,
            bank: self.bank,
            row: self.row,
        }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank{}/bank{}/row{}/col{}",
            self.rank, self.bank, self.row, self.col
        )
    }
}

/// Identifies one row on a DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowKey {
    /// Rank (side of the DIMM).
    pub rank: u8,
    /// Bank within the rank.
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
}

impl RowKey {
    /// Creates a row key from raw coordinates.
    pub fn new(rank: u8, bank: u8, row: u32) -> Self {
        RowKey { rank, bank, row }
    }
}

impl std::fmt::Display for RowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}/bank{}/row{}", self.rank, self.bank, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_valid() {
        let geo = DimmGeometry::default();
        assert!(geo.validate().is_ok());
        assert_eq!(geo.words_per_row(), 1024);
        assert_eq!(geo.bits_per_row(), 65536);
        assert_eq!(geo.capacity_bytes(), 2 * 8 * 64 * 8192);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let geo = DimmGeometry {
            banks: 0,
            ..Default::default()
        };
        assert_eq!(geo.validate().unwrap_err(), GeometryError::ZeroDimension);
        let geo = DimmGeometry {
            row_bytes: 12,
            ..Default::default()
        };
        assert_eq!(geo.validate().unwrap_err(), GeometryError::UnalignedRow);
    }

    #[test]
    fn contains_checks_every_dimension() {
        let geo = DimmGeometry::default();
        assert!(geo.contains(Location::new(0, 0, 0, 0)));
        assert!(geo.contains(Location::new(1, 7, 63, 1023)));
        assert!(!geo.contains(Location::new(2, 0, 0, 0)));
        assert!(!geo.contains(Location::new(0, 8, 0, 0)));
        assert!(!geo.contains(Location::new(0, 0, 64, 0)));
        assert!(!geo.contains(Location::new(0, 0, 0, 1024)));
    }

    #[test]
    fn location_row_key_strips_column() {
        let loc = Location::new(1, 3, 17, 99);
        assert_eq!(loc.row_key(), RowKey::new(1, 3, 17));
    }

    #[test]
    fn display_formats_are_informative() {
        assert_eq!(
            Location::new(0, 1, 2, 3).to_string(),
            "rank0/bank1/row2/col3"
        );
        assert_eq!(RowKey::new(1, 2, 3).to_string(), "rank1/bank2/row3");
    }
}
