//! Sparse storage of DIMM contents.
//!
//! Only rows that were actually written are materialized; everything else
//! reads as the configured default fill (the content the OS/firmware left
//! behind). A generation counter lets the device model cache data-dependent
//! interference terms and invalidate them when contents change.

use crate::geometry::{DimmGeometry, Location, RowKey};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sparse row-granular storage of every 64-bit word on a DIMM.
///
/// # Examples
///
/// ```
/// use dstress_dram::contents::RowStore;
/// use dstress_dram::{DimmGeometry, Location};
///
/// let mut store = RowStore::new(DimmGeometry::default(), 0);
/// let loc = Location::new(0, 0, 0, 9);
/// assert_eq!(store.read_word(loc), 0);
/// store.write_word(loc, 0xFF);
/// assert_eq!(store.read_word(loc), 0xFF);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowStore {
    geometry: DimmGeometry,
    default_word: u64,
    rows: HashMap<RowKey, Vec<u64>>,
    generation: u64,
}

impl RowStore {
    /// Creates a store where every word initially reads `default_word`.
    pub fn new(geometry: DimmGeometry, default_word: u64) -> Self {
        RowStore {
            geometry,
            default_word,
            rows: HashMap::new(),
            generation: 0,
        }
    }

    /// The geometry this store covers.
    pub fn geometry(&self) -> DimmGeometry {
        self.geometry
    }

    /// Monotonic counter bumped on every mutation that changes stored bits;
    /// used to invalidate derived caches. No-op writes (storing the value a
    /// word already holds) leave it untouched, so they never force a cache
    /// rebuild.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of materialized (written) rows.
    pub fn materialized_rows(&self) -> usize {
        self.rows.len()
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn read_word(&self, loc: Location) -> u64 {
        assert!(
            self.geometry.contains(loc),
            "location {loc} outside geometry"
        );
        match self.rows.get(&loc.row_key()) {
            Some(row) => row[loc.col as usize],
            None => self.default_word,
        }
    }

    /// Writes one word, materializing the row on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn write_word(&mut self, loc: Location, value: u64) {
        assert!(
            self.geometry.contains(loc),
            "location {loc} outside geometry"
        );
        let words = self.geometry.words_per_row();
        let default = self.default_word;
        let row = self
            .rows
            .entry(loc.row_key())
            .or_insert_with(|| vec![default; words]);
        if row[loc.col as usize] != value {
            row[loc.col as usize] = value;
            self.generation += 1;
        }
    }

    /// Writes a contiguous run of words starting at `start`, staying within
    /// one row: the row is looked up once instead of once per word (the fast
    /// path behind [`crate::Dimm::write_words`] and session fills).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn write_words(&mut self, start: Location, values: &[u64]) {
        assert!(
            self.geometry.contains(start),
            "location {start} outside geometry"
        );
        let col = start.col as usize;
        assert!(
            col + values.len() <= self.geometry.words_per_row(),
            "span of {} words from column {col} runs past the row end",
            values.len()
        );
        if values.is_empty() {
            return;
        }
        let words = self.geometry.words_per_row();
        let default = self.default_word;
        let row = self
            .rows
            .entry(start.row_key())
            .or_insert_with(|| vec![default; words]);
        let slice = &mut row[col..col + values.len()];
        if slice != values {
            slice.copy_from_slice(values);
            self.generation += 1;
        }
    }

    /// Reads a contiguous run of words starting at `start`, staying within
    /// one row: the row is looked up once instead of once per word (the
    /// fast path behind [`crate::Dimm::read_words`] and session bulk
    /// reads).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn read_words(&self, start: Location, out: &mut [u64]) {
        assert!(
            self.geometry.contains(start),
            "location {start} outside geometry"
        );
        let col = start.col as usize;
        assert!(
            col + out.len() <= self.geometry.words_per_row(),
            "span of {} words from column {col} runs past the row end",
            out.len()
        );
        match self.rows.get(&start.row_key()) {
            Some(row) => out.copy_from_slice(&row[col..col + out.len()]),
            None => out.fill(self.default_word),
        }
    }

    /// The word value unwritten memory reads as.
    pub(crate) fn default_word(&self) -> u64 {
        self.default_word
    }

    /// The stored words of a row, or `None` when the row was never written
    /// (every word then reads [`Self::default_word`]). One lookup serves
    /// any number of bit tests on the row.
    pub(crate) fn row_words(&self, row: RowKey) -> Option<&[u64]> {
        self.rows.get(&row).map(Vec::as_slice)
    }

    /// Reads the logical bit `bit_in_row` (word column × 64 + bit) of a row.
    ///
    /// # Panics
    ///
    /// Panics if the row or bit is outside the geometry.
    pub fn read_bit(&self, row: RowKey, bit_in_row: u32) -> bool {
        assert!(
            (bit_in_row as usize) < self.geometry.bits_per_row(),
            "bit {bit_in_row} outside row"
        );
        let loc = Location::new(row.rank, row.bank, row.row, bit_in_row / 64);
        (self.read_word(loc) >> (bit_in_row % 64)) & 1 == 1
    }

    /// Overwrites a whole row from a word slice.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not match the row length or the row is outside
    /// the geometry.
    pub fn write_row(&mut self, row: RowKey, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.geometry.words_per_row(),
            "row length mismatch"
        );
        assert!(
            row.rank < self.geometry.ranks
                && row.bank < self.geometry.banks
                && row.row < self.geometry.rows_per_bank,
            "row {row} outside geometry"
        );
        match self.rows.entry(row) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().as_slice() != words {
                    e.get_mut().copy_from_slice(words);
                    self.generation += 1;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let default = self.default_word;
                e.insert(words.to_vec());
                if words.iter().any(|&w| w != default) {
                    self.generation += 1;
                }
            }
        }
    }

    /// Forgets all written rows, restoring the default fill.
    pub fn clear(&mut self) {
        if !self.rows.is_empty() {
            self.rows.clear();
            self.generation += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store() -> RowStore {
        RowStore::new(DimmGeometry::default(), 0xAAAA_AAAA_AAAA_AAAA)
    }

    #[test]
    fn unwritten_words_read_default() {
        let s = store();
        assert_eq!(
            s.read_word(Location::new(1, 7, 63, 1023)),
            0xAAAA_AAAA_AAAA_AAAA
        );
        assert_eq!(s.materialized_rows(), 0);
    }

    #[test]
    fn writes_materialize_one_row() {
        let mut s = store();
        s.write_word(Location::new(0, 0, 5, 10), 42);
        assert_eq!(s.materialized_rows(), 1);
        assert_eq!(s.read_word(Location::new(0, 0, 5, 10)), 42);
        // Other words of the same row read default.
        assert_eq!(
            s.read_word(Location::new(0, 0, 5, 11)),
            0xAAAA_AAAA_AAAA_AAAA
        );
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let mut s = store();
        let g0 = s.generation();
        s.write_word(Location::new(0, 0, 0, 0), 1);
        assert!(s.generation() > g0);
        let g1 = s.generation();
        s.clear();
        assert!(s.generation() > g1);
    }

    #[test]
    fn noop_writes_do_not_bump_generation() {
        let mut s = store();
        let loc = Location::new(0, 0, 5, 10);
        s.write_word(loc, 42);
        let g = s.generation();
        // Rewriting the same value — word, row and span granular — must not
        // invalidate derived caches.
        s.write_word(loc, 42);
        assert_eq!(s.generation(), g, "no-op write_word bumped generation");
        // Writing the default fill to an untouched word is also a no-op.
        s.write_word(Location::new(0, 0, 6, 0), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(s.generation(), g, "default-valued write bumped generation");
        let row: Vec<u64> = (0..1024)
            .map(|c| if c == 10 { 42 } else { 0xAAAA_AAAA_AAAA_AAAA })
            .collect();
        s.write_row(RowKey::new(0, 0, 5), &row);
        assert_eq!(s.generation(), g, "no-op write_row bumped generation");
        s.write_words(Location::new(0, 0, 5, 9), &[0xAAAA_AAAA_AAAA_AAAA, 42]);
        assert_eq!(s.generation(), g, "no-op write_words bumped generation");
        // A real change still bumps.
        s.write_word(loc, 43);
        assert!(s.generation() > g);
    }

    #[test]
    fn clear_of_empty_store_is_a_noop() {
        let mut s = store();
        let g = s.generation();
        s.clear();
        assert_eq!(s.generation(), g);
        s.write_word(Location::new(0, 0, 0, 0), 1);
        s.clear();
        assert!(s.generation() > g);
    }

    #[test]
    fn write_words_spans_columns() {
        let mut s = store();
        s.write_words(Location::new(0, 2, 3, 100), &[1, 2, 3]);
        assert_eq!(s.read_word(Location::new(0, 2, 3, 100)), 1);
        assert_eq!(s.read_word(Location::new(0, 2, 3, 101)), 2);
        assert_eq!(s.read_word(Location::new(0, 2, 3, 102)), 3);
        assert_eq!(
            s.read_word(Location::new(0, 2, 3, 103)),
            0xAAAA_AAAA_AAAA_AAAA
        );
    }

    #[test]
    #[should_panic(expected = "runs past the row end")]
    fn write_words_rejects_row_overrun() {
        let mut s = store();
        s.write_words(Location::new(0, 0, 0, 1023), &[1, 2]);
    }

    #[test]
    fn read_bit_addresses_lsb_first() {
        let mut s = store();
        s.write_word(Location::new(0, 0, 0, 2), 0b101);
        let row = RowKey::new(0, 0, 0);
        assert!(s.read_bit(row, 2 * 64));
        assert!(!s.read_bit(row, 2 * 64 + 1));
        assert!(s.read_bit(row, 2 * 64 + 2));
    }

    #[test]
    fn write_row_replaces_contents() {
        let mut s = store();
        let words = vec![7u64; 1024];
        s.write_row(RowKey::new(0, 1, 2), &words);
        assert_eq!(s.read_word(Location::new(0, 1, 2, 500)), 7);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn write_row_validates_length() {
        let mut s = store();
        s.write_row(RowKey::new(0, 0, 0), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn read_outside_geometry_panics() {
        store().read_word(Location::new(3, 0, 0, 0));
    }

    #[test]
    fn clear_restores_default() {
        let mut s = store();
        s.write_word(Location::new(0, 0, 0, 0), 5);
        s.clear();
        assert_eq!(
            s.read_word(Location::new(0, 0, 0, 0)),
            0xAAAA_AAAA_AAAA_AAAA
        );
        assert_eq!(s.materialized_rows(), 0);
    }

    proptest! {
        #[test]
        fn read_back_what_was_written(
            bank in 0u8..8, row in 0u32..64, col in 0u32..1024, value in any::<u64>(),
        ) {
            let mut s = store();
            let loc = Location::new(0, bank, row, col);
            s.write_word(loc, value);
            prop_assert_eq!(s.read_word(loc), value);
        }

        #[test]
        fn word_and_bit_views_agree(col in 0u32..1024, value in any::<u64>(), bit in 0u32..64) {
            let mut s = store();
            s.write_word(Location::new(0, 0, 0, col), value);
            let got = s.read_bit(RowKey::new(0, 0, 0), col * 64 + bit);
            prop_assert_eq!(got, (value >> bit) & 1 == 1);
        }
    }
}
