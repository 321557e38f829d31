//! The hidden internal design of a DIMM.
//!
//! Vendors never disclose the cell-array layout (paper §II): which cells are
//! true-cells vs anti-cells, which rows are scrambled, and which columns were
//! remapped to redundant columns. This module models exactly those three
//! mechanisms. The topology is *internal* to the device simulation — the
//! framework layers above never query it, mirroring the paper's "no
//! knowledge of DRAM internals" premise.
//!
//! The default layout repeats `true, true, anti, anti` along the bitlines —
//! the design the paper infers from its `1100` worst-case result ("such a
//! sub-pattern will increase the probability of DRAM failures in the designs
//! where cells are organized in the following order: true-cell, true-cell,
//! anti-cell, anti-cell", §V-A.1).

use crate::geometry::{DimmGeometry, RowKey};
use serde::{Deserialize, Serialize};

/// The polarity of a DRAM cell (paper §II).
///
/// A *true-cell* stores logic `1` in the charged state; an *anti-cell*
/// stores logic `0` in the charged state. Retention errors discharge a cell,
/// so true-cells fail `1 → 0` and anti-cells fail `0 → 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Charged state stores logic `1`.
    True,
    /// Charged state stores logic `0`.
    Anti,
}

impl CellKind {
    /// Whether a cell of this kind holding `value` is in the charged state
    /// (and can therefore leak).
    pub fn charged(self, value: bool) -> bool {
        match self {
            CellKind::True => value,
            CellKind::Anti => !value,
        }
    }
}

/// Configuration of the hidden topology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Fraction of rows whose intra-row column order is scrambled.
    pub scrambled_row_fraction: f64,
    /// XOR mask applied to physical bit positions of scrambled rows (a
    /// self-inverse column permutation). The default, `0b10`, swaps columns
    /// two apart — the paper's Fig. 1a example ("the right neighbor … is a
    /// cell from the third column").
    pub scramble_mask: u32,
    /// Number of word-column swap pairs remapped per bank (faulty columns
    /// steered to redundant columns, Fig. 1a).
    pub remapped_pairs_per_bank: u32,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            scrambled_row_fraction: 0.10,
            scramble_mask: 0b10,
            remapped_pairs_per_bank: 2,
        }
    }
}

/// The hidden internal design of one DIMM: cell polarity layout, per-row
/// scrambling and per-bank column remapping.
///
/// All mappings are deterministic functions of the DIMM seed, so a device is
/// perfectly reproducible, and all are self-inverse, so physical→logical and
/// logical→physical share one code path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    geometry: DimmGeometry,
    config: TopologyConfig,
    seed: u64,
}

impl Topology {
    /// Builds the hidden topology of a DIMM from its seed.
    pub fn new(geometry: DimmGeometry, config: TopologyConfig, seed: u64) -> Self {
        Topology {
            geometry,
            config,
            seed,
        }
    }

    /// The geometry this topology covers.
    pub fn geometry(&self) -> DimmGeometry {
        self.geometry
    }

    /// Whether a row's column order is scrambled.
    pub fn is_scrambled(&self, row: RowKey) -> bool {
        let h = splitmix64(
            self.seed
                ^ 0x5C3A_11ED_u64
                ^ ((row.rank as u64) << 48)
                ^ ((row.bank as u64) << 40)
                ^ row.row as u64,
        );
        (h as f64 / u64::MAX as f64) < self.config.scrambled_row_fraction
    }

    /// Word-column remapping for a bank (self-inverse swap of word columns).
    fn remap_word_col(&self, rank: u8, bank: u8, col: u32) -> u32 {
        let words = self.geometry.words_per_row() as u64;
        for pair in 0..self.config.remapped_pairs_per_bank {
            let h = splitmix64(
                self.seed
                    ^ 0x00C0_FFEE_D00D_u64
                    ^ ((rank as u64) << 32)
                    ^ ((bank as u64) << 24)
                    ^ pair as u64,
            );
            let a = (h % words) as u32;
            let b = ((h >> 32) % words) as u32;
            if a != b {
                if col == a {
                    return b;
                }
                if col == b {
                    return a;
                }
            }
        }
        col
    }

    /// Maps a logical bit position within a row (word column × 64 + bit) to
    /// the *physical* bitline position, applying column remapping and
    /// row scrambling. The mapping is a self-inverse bijection.
    pub fn physical_bit(&self, row: RowKey, logical_bit: u32) -> u32 {
        debug_assert!((logical_bit as usize) < self.geometry.bits_per_row());
        let word = logical_bit / 64;
        let bit = logical_bit % 64;
        let word = self.remap_word_col(row.rank, row.bank, word);
        let pos = word * 64 + bit;
        if self.is_scrambled(row) {
            pos ^ self.config.scramble_mask
        } else {
            pos
        }
    }

    /// Inverse of [`Self::physical_bit`]. Because both remapping and
    /// scrambling are self-inverse, this is the same transformation.
    pub fn logical_bit(&self, row: RowKey, physical_bit: u32) -> u32 {
        // Scramble first (inverse order of application), then un-remap; both
        // steps are involutions so the composition below is the true inverse.
        let pos = if self.is_scrambled(row) {
            physical_bit ^ self.config.scramble_mask
        } else {
            physical_bit
        };
        let word = pos / 64;
        let bit = pos % 64;
        let word = self.remap_word_col(row.rank, row.bank, word);
        word * 64 + bit
    }

    /// The polarity of the cell at a *physical* bitline position: the layout
    /// repeats `T T A A` along the bitlines.
    pub fn kind_at_physical(&self, physical_bit: u32) -> CellKind {
        if physical_bit % 4 < 2 {
            CellKind::True
        } else {
            CellKind::Anti
        }
    }

    /// The physical bitline neighbours of a physical position (left, right),
    /// clipped at the row boundary.
    pub fn physical_neighbours(&self, physical_bit: u32) -> (Option<u32>, Option<u32>) {
        let last = self.geometry.bits_per_row() as u32 - 1;
        let left = physical_bit.checked_sub(1);
        let right = if physical_bit < last {
            Some(physical_bit + 1)
        } else {
            None
        };
        (left, right)
    }
}

/// SplitMix64 — a tiny, high-quality mixing function used to derive all
/// hidden per-row/per-bank decisions from the DIMM seed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn topo(seed: u64) -> Topology {
        Topology::new(DimmGeometry::default(), TopologyConfig::default(), seed)
    }

    #[test]
    fn cell_kind_charge_logic() {
        assert!(CellKind::True.charged(true));
        assert!(!CellKind::True.charged(false));
        assert!(CellKind::Anti.charged(false));
        assert!(!CellKind::Anti.charged(true));
    }

    #[test]
    fn ttaa_layout_repeats_every_four_bitlines() {
        let t = topo(1);
        for p in (0..256).step_by(4) {
            assert_eq!(t.kind_at_physical(p), CellKind::True);
            assert_eq!(t.kind_at_physical(p + 1), CellKind::True);
            assert_eq!(t.kind_at_physical(p + 2), CellKind::Anti);
            assert_eq!(t.kind_at_physical(p + 3), CellKind::Anti);
        }
    }

    #[test]
    fn scrambled_fraction_is_roughly_configured() {
        let t = topo(7);
        let geo = t.geometry();
        let mut scrambled = 0usize;
        let mut total = 0usize;
        for rank in 0..geo.ranks {
            for bank in 0..geo.banks {
                for row in 0..geo.rows_per_bank {
                    total += 1;
                    if t.is_scrambled(RowKey::new(rank, bank, row)) {
                        scrambled += 1;
                    }
                }
            }
        }
        let frac = scrambled as f64 / total as f64;
        assert!((0.10..0.40).contains(&frac), "scrambled fraction {frac}");
    }

    #[test]
    fn scrambling_changes_adjacency_as_in_fig_1a() {
        // Find a scrambled row; with mask 0b10 the physical successor of the
        // first cell is logical column 3 ("a cell from the third column").
        let t = topo(3);
        let row = (0..64)
            .map(|r| RowKey::new(0, 0, r))
            .find(|r| t.is_scrambled(*r))
            .expect("some row should be scrambled");
        // Physical position of logical bit 0 in a scrambled row is 0 ^ 2 = 2;
        // the cell at physical position 1 is logical bit 3.
        assert_eq!(t.physical_bit(row, 0), 2);
        assert_eq!(t.logical_bit(row, 1), 3);
    }

    #[test]
    fn unscrambled_rows_are_identity_modulo_remap() {
        let t = Topology::new(
            DimmGeometry::default(),
            TopologyConfig {
                remapped_pairs_per_bank: 0,
                ..TopologyConfig::default()
            },
            9,
        );
        let row = (0..64)
            .map(|r| RowKey::new(0, 1, r))
            .find(|r| !t.is_scrambled(*r))
            .expect("some row should be unscrambled");
        for bit in [0u32, 5, 64, 1000] {
            assert_eq!(t.physical_bit(row, bit), bit);
        }
    }

    #[test]
    fn physical_neighbours_clip_at_row_edges() {
        let t = topo(5);
        assert_eq!(t.physical_neighbours(0), (None, Some(1)));
        let last = t.geometry().bits_per_row() as u32 - 1;
        assert_eq!(t.physical_neighbours(last), (Some(last - 1), None));
        assert_eq!(t.physical_neighbours(10), (Some(9), Some(11)));
    }

    #[test]
    fn topology_is_deterministic_per_seed() {
        let a = topo(77);
        let b = topo(77);
        let c = topo(78);
        let row = RowKey::new(1, 3, 11);
        assert_eq!(a.physical_bit(row, 123), b.physical_bit(row, 123));
        // Different seeds should differ somewhere.
        let differs = (0..64).any(|r| {
            let k = RowKey::new(0, 0, r);
            a.is_scrambled(k) != c.is_scrambled(k)
        });
        assert!(differs, "seeds 77 and 78 produced identical scrambling");
    }

    proptest! {
        #[test]
        fn physical_logical_roundtrip(seed in any::<u64>(), rank in 0u8..2, bank in 0u8..8,
                                      row in 0u32..64, bit in 0u32..65536) {
            let t = topo(seed);
            let key = RowKey::new(rank, bank, row);
            let phys = t.physical_bit(key, bit);
            prop_assert!(phys < t.geometry().bits_per_row() as u32);
            prop_assert_eq!(t.logical_bit(key, phys), bit);
        }

        #[test]
        fn mapping_is_injective(seed in any::<u64>(), row in 0u32..64,
                                a in 0u32..65536, b in 0u32..65536) {
            let t = topo(seed);
            let key = RowKey::new(0, 0, row);
            if a != b {
                prop_assert_ne!(t.physical_bit(key, a), t.physical_bit(key, b));
            }
        }
    }
}
