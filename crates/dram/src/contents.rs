//! Row-granular storage of DIMM contents in address-map order.
//!
//! The store keeps one slot per row, laid out the way the address map
//! numbers rows: slot `(rank · rows_per_bank + row) · banks + bank`, which is
//! `local_addr / row_bytes` (see [`crate::address`]). A DIMM-local address
//! therefore reaches its word with one divide and one table index, with no
//! hashing and no [`Location`] decode.
//!
//! Only rows that were actually written are materialized; an empty slot
//! reads as the configured default fill (the content the OS/firmware left
//! behind). [`RowStore::clear`] empties every slot but keeps its
//! allocation, so refilling memory between evaluations does not allocate
//! again. A generation counter lets the device model cache data-dependent
//! interference terms and invalidate them when contents change.

use crate::geometry::{DimmGeometry, Location, RowKey};
use serde::{Deserialize, Serialize};

/// Row-granular storage of every 64-bit word on a DIMM, in a dense
/// address-ordered row table whose rows materialize on first write.
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
/// // Word 9 of the first row is DIMM-local address 9 × 8.
/// assert_eq!(store.read_addr(72), 0xFF);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowStore {
    geometry: DimmGeometry,
    default_word: u64,
    /// One slot per row in address-map order; an empty slot is a row that
    /// was never written (or was cleared) and reads as `default_word`.
    rows: Vec<Vec<u64>>,
    /// Number of non-empty slots.
    materialized: usize,
    generation: u64,
}

impl RowStore {
    /// Creates a store where every word initially reads `default_word`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(geometry: DimmGeometry, default_word: u64) -> Self {
        geometry.validate().expect("invalid DIMM geometry");
        let slots =
            geometry.ranks as usize * geometry.banks as usize * geometry.rows_per_bank as usize;
        RowStore {
            geometry,
            default_word,
            rows: vec![Vec::new(); slots],
            materialized: 0,
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
        self.materialized
    }

    /// The table slot of a row, checking its coordinates (not the flat
    /// index: `row == rows_per_bank` would otherwise alias a row of the
    /// next rank).
    fn slot(&self, row: RowKey) -> Option<usize> {
        let geo = self.geometry;
        (row.rank < geo.ranks && row.bank < geo.banks && row.row < geo.rows_per_bank).then(|| {
            (row.rank as usize * geo.rows_per_bank as usize + row.row as usize) * geo.banks as usize
                + row.bank as usize
        })
    }

    /// The slot and column of a word location.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    fn locate(&self, loc: Location) -> (usize, usize) {
        let col = loc.col as usize;
        match self.slot(loc.row_key()) {
            Some(slot) if col < self.geometry.words_per_row() => (slot, col),
            _ => panic!("location {loc} outside geometry"),
        }
    }

    /// The slot and column of a DIMM-local address: one divide, since the
    /// table is in address-map order. The low three bits are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the DIMM capacity.
    #[inline]
    fn decode(&self, addr: u64) -> (usize, usize) {
        let row_bytes = self.geometry.row_bytes as u64;
        let slot = addr / row_bytes;
        assert!(
            slot < self.rows.len() as u64,
            "address {addr:#x} exceeds DIMM capacity"
        );
        (slot as usize, ((addr % row_bytes) / 8) as usize)
    }

    /// Fills the empty row in `slot` with the default fill, reusing the
    /// allocation a [`Self::clear`] left behind.
    fn materialize(&mut self, slot: usize) {
        let words = self.geometry.words_per_row();
        self.rows[slot].resize(words, self.default_word);
        self.materialized += 1;
    }

    #[inline]
    fn read_at(&self, slot: usize, col: usize) -> u64 {
        match self.rows[slot].as_slice() {
            [] => self.default_word,
            row => row[col],
        }
    }

    /// Stores `values` from column `col` of the row in `slot`,
    /// materializing the row first (even when the write turns out to be a
    /// no-op) and bumping the generation only if stored bits change.
    #[inline]
    fn write_at(&mut self, slot: usize, col: usize, values: &[u64]) {
        if self.rows[slot].is_empty() {
            self.materialize(slot);
        }
        let span = &mut self.rows[slot][col..col + values.len()];
        if span != values {
            span.copy_from_slice(values);
            self.generation += 1;
        }
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn read_word(&self, loc: Location) -> u64 {
        let (slot, col) = self.locate(loc);
        self.read_at(slot, col)
    }

    /// Writes one word, materializing the row on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the location is outside the geometry.
    pub fn write_word(&mut self, loc: Location, value: u64) {
        let (slot, col) = self.locate(loc);
        self.write_at(slot, col, &[value]);
    }

    /// Reads the word at a DIMM-local address (the low three bits are
    /// ignored): the same word [`Self::read_word`] reads at the address's
    /// [`crate::AddressMap::map`] location.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the DIMM capacity.
    #[inline]
    pub fn read_addr(&self, addr: u64) -> u64 {
        let (slot, col) = self.decode(addr);
        self.read_at(slot, col)
    }

    /// Writes the word at a DIMM-local address (the low three bits are
    /// ignored), materializing the row on first touch.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the DIMM capacity.
    #[inline]
    pub fn write_addr(&mut self, addr: u64, value: u64) {
        let (slot, col) = self.decode(addr);
        self.write_at(slot, col, &[value]);
    }

    /// Writes a contiguous run of words starting at `start`, staying within
    /// one row: the row is located once instead of once per word (the fast
    /// path behind [`crate::Dimm::write_words`] and session fills).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn write_words(&mut self, start: Location, values: &[u64]) {
        let (slot, col) = self.locate(start);
        assert!(
            col + values.len() <= self.geometry.words_per_row(),
            "span of {} words from column {col} runs past the row end",
            values.len()
        );
        if !values.is_empty() {
            self.write_at(slot, col, values);
        }
    }

    /// Reads a contiguous run of words starting at `start`, staying within
    /// one row: the row is located once instead of once per word (the
    /// fast path behind [`crate::Dimm::read_words`] and session bulk
    /// reads).
    ///
    /// # Panics
    ///
    /// Panics if the span starts outside the geometry or runs past the end
    /// of the row.
    pub fn read_words(&self, start: Location, out: &mut [u64]) {
        let (slot, col) = self.locate(start);
        assert!(
            col + out.len() <= self.geometry.words_per_row(),
            "span of {} words from column {col} runs past the row end",
            out.len()
        );
        match self.rows[slot].as_slice() {
            [] => out.fill(self.default_word),
            row => out.copy_from_slice(&row[col..col + out.len()]),
        }
    }

    /// The stored words of a row, or `None` when the row was never written
    /// or lies outside the geometry (every word then reads the default
    /// word). One lookup serves any number of bit tests on the row.
    pub(crate) fn row_words(&self, row: RowKey) -> Option<&[u64]> {
        let words = self.rows[self.slot(row)?].as_slice();
        (!words.is_empty()).then_some(words)
    }

    /// Reads the logical bit `bit_in_row` (word column × 64 + bit) of a row.
    ///
    /// # Panics
    ///
    /// Panics if the row or bit is outside the geometry.
    #[cfg(test)]
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
        let slot = self
            .slot(row)
            .unwrap_or_else(|| panic!("row {row} outside geometry"));
        self.write_at(slot, 0, words);
    }

    /// Forgets all written rows, restoring the default fill. Emptied rows
    /// keep their allocations for the next fill.
    pub fn clear(&mut self) {
        if self.materialized > 0 {
            self.rows.iter_mut().for_each(Vec::clear);
            self.materialized = 0;
            self.generation += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn write_row_rejects_row_past_bank_end() {
        // In address-map order this key's flat index is rank 1's row 0.
        let mut s = store();
        s.write_row(RowKey::new(0, 0, 64), &[1; 1024]);
    }

    #[test]
    #[should_panic(expected = "exceeds DIMM capacity")]
    fn read_addr_past_capacity_panics() {
        let s = store();
        s.read_addr(DimmGeometry::default().capacity_bytes());
    }

    #[test]
    fn clear_keeps_row_allocations() {
        let mut s = store();
        s.write_word(Location::new(1, 3, 9, 0), 5);
        s.clear();
        assert_eq!(s.materialized_rows(), 0);
        assert_eq!(s.row_words(RowKey::new(1, 3, 9)), None);
        let slot = s.slot(RowKey::new(1, 3, 9)).unwrap();
        assert!(s.rows[slot].capacity() >= 1024);
    }

    /// The differential test's geometry: small and not a power of two in
    /// any dimension, so stores collide on rows and edges are common.
    const DIFF_GEO: DimmGeometry = DimmGeometry {
        ranks: 2,
        banks: 3,
        rows_per_bank: 5,
        row_bytes: 32,
    };
    const DIFF_DEFAULT: u64 = 0xAAAA_AAAA_AAAA_AAAA;

    /// The reference model: the hash map of materialized rows the row
    /// table replaced, with the same generation rules.
    struct Model {
        rows: HashMap<RowKey, Vec<u64>>,
        generation: u64,
    }

    impl Model {
        fn read(&self, loc: Location) -> u64 {
            self.rows
                .get(&loc.row_key())
                .map_or(DIFF_DEFAULT, |row| row[loc.col as usize])
        }

        fn write(&mut self, start: Location, values: &[u64]) {
            if values.is_empty() {
                return;
            }
            let words = DIFF_GEO.words_per_row();
            let row = self
                .rows
                .entry(start.row_key())
                .or_insert_with(|| vec![DIFF_DEFAULT; words]);
            let col = start.col as usize;
            let span = &mut row[col..col + values.len()];
            if span != values {
                span.copy_from_slice(values);
                self.generation += 1;
            }
        }

        fn clear(&mut self) {
            if !self.rows.is_empty() {
                self.rows.clear();
                self.generation += 1;
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        WriteWord(Location, u64),
        WriteAddr(u64, u64),
        WriteWords(Location, Vec<u64>),
        WriteRow(RowKey, Vec<u64>),
        Clear,
        ReadWords(Location, usize),
    }

    /// Values drawn from a small set that includes the default fill, so
    /// no-op writes (same value, default onto an unwritten row) are
    /// frequent.
    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![Just(DIFF_DEFAULT), Just(0), Just(1), any::<u64>()]
    }

    fn location() -> impl Strategy<Value = Location> {
        let words = DIFF_GEO.words_per_row() as u32;
        (
            0..DIFF_GEO.ranks,
            0..DIFF_GEO.banks,
            0..DIFF_GEO.rows_per_bank,
            0..words,
        )
            .prop_map(|(rank, bank, row, col)| Location::new(rank, bank, row, col))
    }

    fn op() -> impl Strategy<Value = Op> {
        let words = DIFF_GEO.words_per_row();
        prop_oneof![
            (location(), value()).prop_map(|(loc, v)| Op::WriteWord(loc, v)),
            (0..DIFF_GEO.capacity_bytes(), value()).prop_map(|(addr, v)| Op::WriteAddr(addr, v)),
            (location(), proptest::collection::vec(value(), 0..=words)).prop_map(
                move |(loc, mut vs)| {
                    vs.truncate(words - loc.col as usize);
                    Op::WriteWords(loc, vs)
                }
            ),
            (location(), proptest::collection::vec(value(), words))
                .prop_map(|(loc, vs)| Op::WriteRow(loc.row_key(), vs)),
            Just(Op::Clear),
            (location(), 0..=words)
                .prop_map(move |(loc, n)| Op::ReadWords(loc, n.min(words - loc.col as usize))),
        ]
    }

    /// Every row key of the geometry plus its out-of-geometry neighbours
    /// (one past the last rank, bank and row), which must read as absent.
    fn all_keys() -> impl Iterator<Item = RowKey> {
        (0..=DIFF_GEO.ranks).flat_map(|rank| {
            (0..=DIFF_GEO.banks).flat_map(move |bank| {
                (0..=DIFF_GEO.rows_per_bank).map(move |row| RowKey::new(rank, bank, row))
            })
        })
    }

    proptest! {
        #[test]
        fn row_table_matches_hash_map_model(ops in proptest::collection::vec(op(), 1..48)) {
            let map = crate::AddressMap::new(DIFF_GEO);
            let mut s = RowStore::new(DIFF_GEO, DIFF_DEFAULT);
            let mut m = Model { rows: HashMap::new(), generation: 0 };
            for op in ops {
                match op {
                    Op::WriteWord(loc, v) => {
                        s.write_word(loc, v);
                        m.write(loc, &[v]);
                    }
                    Op::WriteAddr(addr, v) => {
                        s.write_addr(addr, v);
                        m.write(map.map(addr & !7).unwrap(), &[v]);
                    }
                    Op::WriteWords(loc, vs) => {
                        s.write_words(loc, &vs);
                        m.write(loc, &vs);
                    }
                    Op::WriteRow(row, vs) => {
                        s.write_row(row, &vs);
                        m.write(Location::new(row.rank, row.bank, row.row, 0), &vs);
                    }
                    Op::Clear => {
                        s.clear();
                        m.clear();
                    }
                    Op::ReadWords(loc, n) => {
                        let mut got = vec![0; n];
                        s.read_words(loc, &mut got);
                        for (i, &g) in got.iter().enumerate() {
                            let at = Location::new(loc.rank, loc.bank, loc.row, loc.col + i as u32);
                            prop_assert_eq!(g, m.read(at));
                        }
                    }
                }
                prop_assert_eq!(s.generation(), m.generation);
                prop_assert_eq!(s.materialized_rows(), m.rows.len());
                for key in all_keys() {
                    prop_assert_eq!(
                        s.row_words(key),
                        m.rows.get(&key).map(Vec::as_slice),
                        "row_words({})", key
                    );
                }
                for addr in (0..DIFF_GEO.capacity_bytes()).step_by(8) {
                    let loc = map.map(addr).unwrap();
                    prop_assert_eq!(s.read_word(loc), m.read(loc));
                    prop_assert_eq!(s.read_addr(addr), m.read(loc));
                }
            }
        }

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
