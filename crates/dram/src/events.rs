//! Fault events reported by the device model.

use crate::geometry::Location;
use serde::{Deserialize, Serialize};

/// One 64-bit word whose stored bits leaked during a refresh window.
///
/// The platform layer pushes each event through the SECDED decoder
/// (`dstress-ecc`) to classify it as a CE, UE or SDC — exactly what the real
/// memory controller would observe on the next scrub of the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WordEvent {
    /// The affected word.
    pub loc: Location,
    /// The value that was written (ground truth).
    pub written: u64,
    /// Mask of data bits that flipped this window.
    pub flip_mask: u64,
}

impl WordEvent {
    /// Number of flipped bits.
    pub fn flipped_bits(&self) -> u32 {
        self.flip_mask.count_ones()
    }
}

impl std::fmt::Display for WordEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} bit(s) flipped (mask {:#018x})",
            self.loc,
            self.flipped_bits(),
            self.flip_mask
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_accounting() {
        let e = WordEvent {
            loc: Location::new(0, 1, 2, 3),
            written: 0b1100,
            flip_mask: 0b0110,
        };
        assert_eq!(e.flipped_bits(), 2);
    }

    #[test]
    fn display_mentions_location_and_count() {
        let e = WordEvent {
            loc: Location::new(0, 0, 0, 0),
            written: 0,
            flip_mask: 1,
        };
        let s = e.to_string();
        assert!(s.contains("rank0/bank0/row0/col0"));
        assert!(s.contains("1 bit(s)"));
    }
}
