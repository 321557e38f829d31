//! The weak-cell population of a DIMM.
//!
//! Real DRAM retention errors come from a sparse population of marginal
//! cells in the tail of the retention distribution (paper §II; Liu et al.).
//! Simulating every cell of even a scaled DIMM is wasteful — cells with
//! seconds of margin can never fail — so the device model samples, per rank,
//! a seeded population of *weak* cells with log-normally distributed base
//! retention, and evaluates only those.
//!
//! Two sub-populations exist:
//!
//! * **singles** — isolated weak cells; when they fail, the word suffers a
//!   single-bit error (a CE after ECC);
//! * **clustered pairs** — two weak bits sharing a 64-bit word with
//!   correlated, *tighter and longer* retention (a physically adjacent
//!   defect). Pairs fail only at higher temperature, and when they do, the
//!   word has two flipped bits — an uncorrectable error. This is what makes
//!   UEs appear only at ≈62 °C in the paper (§V-A.1) while CEs appear tens
//!   of degrees earlier.

use crate::geometry::{DimmGeometry, Location};
use crate::topology::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the weak-cell population sampler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeakCellConfig {
    /// Number of isolated weak cells per rank.
    pub singles_per_rank: usize,
    /// Median base retention (seconds) of isolated weak cells at reference
    /// conditions.
    pub single_median_s: f64,
    /// Log-normal sigma of isolated weak-cell retention.
    pub single_sigma: f64,
    /// Fraction of isolated weak cells exhibiting variable retention time.
    pub vrt_fraction: f64,
    /// Number of clustered (UE-prone) weak-bit pairs per rank.
    pub pairs_per_rank: usize,
    /// Median base retention (seconds) of clustered pairs — higher than
    /// singles so pairs only fail at elevated temperature.
    pub pair_median_s: f64,
    /// Log-normal sigma of pair retention (tight: a sharp UE onset).
    pub pair_sigma: f64,
    /// Relative retention jitter between the two bits of a pair.
    pub pair_jitter: f64,
    /// Number of clustered *triple* defects per rank (three weak bits in
    /// one word). When all three leak, the word defeats SECDED — the
    /// silent-data-corruption class of §III-C ("errors where more than 2
    /// bit are corrupted may be not detected"). Defaults to 0; the SDC
    /// accounting experiment opts in.
    pub triples_per_rank: usize,
    /// Median base retention (seconds) of triple clusters.
    pub triple_median_s: f64,
    /// Log-normal sigma of triple-cluster retention.
    pub triple_sigma: f64,
}

impl Default for WeakCellConfig {
    fn default() -> Self {
        WeakCellConfig {
            singles_per_rank: 4000,
            single_median_s: 30.0,
            single_sigma: 1.0,
            vrt_fraction: 0.15,
            pairs_per_rank: 80,
            pair_median_s: 13.0,
            pair_sigma: 0.055,
            pair_jitter: 0.03,
            triples_per_rank: 0,
            triple_median_s: 11.0,
            triple_sigma: 0.08,
        }
    }
}

/// One weak bit within a word.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeakCell {
    /// Bit index within the 64-bit word (0 = LSB).
    pub bit: u8,
    /// Base retention in seconds at reference temperature and nominal VDD.
    pub base_retention_s: f64,
    /// Whether this cell exhibits variable retention time.
    pub is_vrt: bool,
    /// Stable index used to derive per-window VRT state deterministically.
    pub vrt_index: u32,
}

/// All weak bits sharing one 64-bit word.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeakWord {
    /// The word these cells live in.
    pub loc: Location,
    /// The weak bits of the word (1 for singles, 2 for clustered pairs).
    pub cells: Vec<WeakCell>,
}

/// The sampled weak-cell population of one DIMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeakCellPopulation {
    words: Vec<WeakWord>,
    total_cells: usize,
}

impl WeakCellPopulation {
    /// Samples a population for the given geometry. Deterministic in
    /// `seed` — the same seed always reproduces the same DIMM.
    pub fn sample(geometry: DimmGeometry, config: &WeakCellConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x0BAD_CE11_5EED));
        let mut by_word: HashMap<Location, Vec<WeakCell>> = HashMap::new();
        let mut occupied: HashMap<Location, u64> = HashMap::new();
        let mut vrt_index = 0u32;

        // Singles demand a fresh word (so a word carries at most one
        // isolated weak bit — accidental multi-bit words would blur the UE
        // temperature onset); a pair's second bit is forced into its
        // sibling's word.
        let place = |rng: &mut StdRng,
                     by_word: &mut HashMap<Location, Vec<WeakCell>>,
                     occupied: &mut HashMap<Location, u64>,
                     rank: u8,
                     cell: WeakCell,
                     forced_loc: Option<Location>|
         -> Option<Location> {
            for _attempt in 0..64 {
                let loc = forced_loc.unwrap_or_else(|| {
                    Location::new(
                        rank,
                        rng.gen_range(0..geometry.banks),
                        rng.gen_range(0..geometry.rows_per_bank),
                        rng.gen_range(0..geometry.words_per_row() as u32),
                    )
                });
                let vacant_word = !occupied.contains_key(&loc);
                let mask = occupied.entry(loc).or_insert(0);
                let bit_free = *mask & (1u64 << cell.bit) == 0;
                let ok = if forced_loc.is_some() {
                    bit_free
                } else {
                    vacant_word
                };
                if ok {
                    *mask |= 1u64 << cell.bit;
                    by_word.entry(loc).or_default().push(cell);
                    return Some(loc);
                }
                if forced_loc.is_some() {
                    return None;
                }
            }
            None
        };

        for rank in 0..geometry.ranks {
            // Isolated weak cells.
            for _ in 0..config.singles_per_rank {
                let z = standard_normal(&mut rng);
                let base = config.single_median_s * (config.single_sigma * z).exp();
                let is_vrt = rng.gen::<f64>() < config.vrt_fraction;
                let cell = WeakCell {
                    bit: rng.gen_range(0..64),
                    base_retention_s: base,
                    is_vrt,
                    vrt_index,
                };
                vrt_index += 1;
                place(&mut rng, &mut by_word, &mut occupied, rank, cell, None);
            }
            // Clustered SDC-prone triples: three bits of one word with
            // correlated retention (opt-in; see `triples_per_rank`).
            for _ in 0..config.triples_per_rank {
                let z = standard_normal(&mut rng);
                let base = config.triple_median_s * (config.triple_sigma * z).exp();
                let first_bit = rng.gen_range(0..62u8);
                let mut anchor = None;
                for k in 0..3u8 {
                    let jitter = 1.0 + config.pair_jitter * (rng.gen::<f64>() - 0.5);
                    let cell = WeakCell {
                        bit: first_bit + k,
                        base_retention_s: base * jitter,
                        is_vrt: false,
                        vrt_index,
                    };
                    vrt_index += 1;
                    match anchor {
                        None => {
                            anchor = place(&mut rng, &mut by_word, &mut occupied, rank, cell, None);
                        }
                        Some(loc) => {
                            place(&mut rng, &mut by_word, &mut occupied, rank, cell, Some(loc));
                        }
                    }
                }
            }
            // Clustered UE-prone pairs: two bits of the same word with
            // correlated retention.
            for _ in 0..config.pairs_per_rank {
                let z = standard_normal(&mut rng);
                let base = config.pair_median_s * (config.pair_sigma * z).exp();
                let bit_a = rng.gen_range(0..64u8);
                let bit_b = (bit_a + rng.gen_range(1..64u8)) % 64;
                let jitter = 1.0 + config.pair_jitter * (rng.gen::<f64>() - 0.5);
                let cell_a = WeakCell {
                    bit: bit_a,
                    base_retention_s: base,
                    is_vrt: false,
                    vrt_index,
                };
                vrt_index += 1;
                let cell_b = WeakCell {
                    bit: bit_b,
                    base_retention_s: base * jitter,
                    is_vrt: false,
                    vrt_index,
                };
                vrt_index += 1;
                if let Some(loc) = place(&mut rng, &mut by_word, &mut occupied, rank, cell_a, None)
                {
                    place(
                        &mut rng,
                        &mut by_word,
                        &mut occupied,
                        rank,
                        cell_b,
                        Some(loc),
                    );
                }
            }
        }

        let mut words: Vec<WeakWord> = by_word
            .into_iter()
            .map(|(loc, cells)| WeakWord { loc, cells })
            .collect();
        words.sort_by_key(|w| w.loc);
        let total_cells = words.iter().map(|w| w.cells.len()).sum();
        WeakCellPopulation { words, total_cells }
    }

    /// A hand-placed population (tests that need cells at exact
    /// positions); words are sorted by location as [`Self::sample`] does.
    pub fn from_words(mut words: Vec<WeakWord>) -> Self {
        words.sort_by_key(|w| w.loc);
        let total_cells = words.iter().map(|w| w.cells.len()).sum();
        WeakCellPopulation { words, total_cells }
    }

    /// The weak words, sorted by location.
    pub fn words(&self) -> &[WeakWord] {
        &self.words
    }

    /// Total number of weak bits on the DIMM.
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }
}

/// Draws a standard-normal variate via Box–Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Deterministic per-window VRT state: whether VRT cell `vrt_index` sits in
/// its degraded state during the window identified by `nonce`.
pub fn vrt_degraded(dimm_seed: u64, nonce: u64, vrt_index: u32, degraded_prob: f64) -> bool {
    let h = splitmix64(dimm_seed ^ nonce.rotate_left(17) ^ ((vrt_index as u64) << 40));
    (h as f64 / u64::MAX as f64) < degraded_prob
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(seed: u64) -> WeakCellPopulation {
        WeakCellPopulation::sample(DimmGeometry::default(), &WeakCellConfig::default(), seed)
    }

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(population(1), population(1));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(population(1), population(2));
    }

    #[test]
    fn population_size_is_close_to_configured() {
        let config = WeakCellConfig::default();
        let pop = population(3);
        let expected = 2 * (config.singles_per_rank + 2 * config.pairs_per_rank);
        // A few placements can fail on collision; tolerate 1 %.
        assert!(pop.total_cells() as f64 > 0.99 * expected as f64);
        assert!(pop.total_cells() <= expected);
    }

    #[test]
    fn pairs_create_multi_bit_words() {
        let pop = population(4);
        let pairs = pop.words().iter().filter(|w| w.cells.len() >= 2).count();
        // 50 pairs per rank x 2 ranks, minus rare collisions with singles
        // that can merge words (making them multi-bit too).
        assert!(pairs >= 90, "only {pairs} multi-bit words");
    }

    #[test]
    fn all_locations_are_within_geometry() {
        let geo = DimmGeometry::default();
        let pop = population(5);
        for w in pop.words() {
            assert!(geo.contains(w.loc), "{} outside geometry", w.loc);
            for c in &w.cells {
                assert!(c.bit < 64);
                assert!(c.base_retention_s > 0.0);
            }
        }
    }

    #[test]
    fn no_duplicate_bits_within_a_word() {
        let pop = population(6);
        for w in pop.words() {
            let mut mask = 0u64;
            for c in &w.cells {
                assert_eq!(
                    mask & (1 << c.bit),
                    0,
                    "duplicate bit {} in {}",
                    c.bit,
                    w.loc
                );
                mask |= 1 << c.bit;
            }
        }
    }

    #[test]
    fn pair_retention_is_longer_and_tighter_than_singles() {
        let pop = population(7);
        let mut singles = Vec::new();
        let mut pairs = Vec::new();
        for w in pop.words() {
            if w.cells.len() == 1 {
                singles.push(w.cells[0].base_retention_s);
            } else {
                pairs.extend(w.cells.iter().map(|c| c.base_retention_s));
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("retention values are finite"));
            v[v.len() / 2]
        };
        let single_median = med(&mut singles);
        let pair_min = pairs.iter().copied().fold(f64::INFINITY, f64::min);
        // Pairs are drawn with sigma 0.15 around 14 s: their minimum stays
        // far above the weakest singles (lognormal sigma 1.0 around 30 s).
        let single_min = singles.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            single_min < pair_min,
            "weakest single {single_min} vs weakest pair {pair_min}"
        );
        assert!((10.0..=80.0).contains(&single_median));
    }

    #[test]
    fn vrt_fraction_is_roughly_configured() {
        let pop = population(8);
        let vrt = pop
            .words()
            .iter()
            .flat_map(|w| &w.cells)
            .filter(|c| c.is_vrt)
            .count();
        let frac = vrt as f64 / pop.total_cells() as f64;
        assert!((0.08..0.22).contains(&frac), "vrt fraction {frac}");
    }

    #[test]
    fn vrt_state_is_deterministic_and_varies_by_nonce() {
        let a = vrt_degraded(1, 100, 7, 0.3);
        let b = vrt_degraded(1, 100, 7, 0.3);
        assert_eq!(a, b);
        let flips = (0..1000).filter(|&n| vrt_degraded(1, n, 7, 0.3)).count();
        assert!(
            (200..400).contains(&flips),
            "degraded in {flips}/1000 windows"
        );
    }

    #[test]
    fn vrt_probability_extremes() {
        assert!(!vrt_degraded(1, 5, 3, 0.0));
        assert!(vrt_degraded(1, 5, 3, 1.1));
    }
}
