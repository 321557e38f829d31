//! Chromosome encodings.
//!
//! [`BitGenome`] is bit-packed: the paper's 24 KB and 512 KB data-pattern
//! chromosomes run to hundreds of thousands of bits, and the convergence
//! criterion computes ~800 pairwise similarities per generation, so
//! similarity and crossover work on whole 64-bit words (XOR + popcount)
//! and mutation draws the number of flipped genes from the binomial instead
//! of rolling every gene.

use dstress_stats::weighted_jaccard;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A chromosome: something the GA can mutate, recombine and compare.
///
/// The two implementations mirror the paper's two encodings: binary vectors
/// (data patterns, row bitmaps — compared with Sokal–Michener, Eq. 2) and
/// bounded integer vectors (access-stride coefficients — compared with
/// weighted Jaccard, Eq. 3).
pub trait Genome: Clone + Send {
    /// Stochastically perturbs the chromosome. `gene_rate` is the per-gene
    /// perturbation probability.
    fn mutate(&mut self, rng: &mut StdRng, gene_rate: f64);

    /// Single-point crossover, producing two offspring.
    fn crossover(&self, other: &Self, rng: &mut StdRng) -> (Self, Self);

    /// Similarity in `[0, 1]` (1 = identical) — the convergence measure.
    fn similarity(&self, other: &Self) -> f64;

    /// Number of genes.
    fn len(&self) -> usize;

    /// Whether the chromosome has no genes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A binary chromosome, bit-packed LSB-first into 64-bit words.
///
/// # Examples
///
/// ```
/// use dstress_ga::BitGenome;
///
/// let g = BitGenome::from_words(&[0x3333_3333_3333_3333], 64);
/// assert_eq!(g.count_ones(), 32);
/// assert_eq!(g.to_words()[0], 0x3333_3333_3333_3333);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitGenome {
    words: Vec<u64>,
    len: usize,
}

impl BitGenome {
    /// A uniformly random chromosome of `len` bits.
    pub fn random(rng: &mut StdRng, len: usize) -> Self {
        let mut words: Vec<u64> = (0..len.div_ceil(64)).map(|_| rng.gen()).collect();
        mask_tail(&mut words, len);
        BitGenome { words, len }
    }

    /// All-zero chromosome.
    pub fn zeros(len: usize) -> Self {
        BitGenome {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds from packed 64-bit words (LSB-first within each word),
    /// truncated to `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(words.len() * 64 >= len, "not enough words for {len} bits");
        let mut words = words[..len.div_ceil(64)].to_vec();
        mask_tail(&mut words, len);
        BitGenome { words, len }
    }

    /// Builds a chromosome by repeating a 64-bit word.
    #[cfg(test)]
    pub fn repeat_word(word: u64, len: usize) -> Self {
        let mut words = vec![word; len.div_ceil(64)];
        mask_tail(&mut words, len);
        BitGenome { words, len }
    }

    /// Packs into 64-bit words (LSB-first; the tail is zero-padded).
    pub fn to_words(&self) -> Vec<u64> {
        self.words.clone()
    }

    /// The value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range");
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The bits expanded to a `Vec<bool>` (bit 0 first).
    pub fn bits(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.bit(i)).collect()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another chromosome of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "hamming requires equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Renders the chromosome as a `0`/`1` string, bit 0 first — the
    /// orientation of the paper's Fig. 8 x-axis.
    pub fn render(&self) -> String {
        (0..self.len)
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }
}

/// Clears bits beyond `len` in the last word.
fn mask_tail(words: &mut [u64], len: usize) {
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Draws `Binomial(n, p)` — the number of mutated genes — cheaply: exact
/// Bernoulli summation for small `n`, Poisson/normal approximations beyond.
fn binomial_draw(rng: &mut StdRng, n: usize, p: f64) -> usize {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        return (0..n).filter(|_| rng.gen::<f64>() < p).count();
    }
    let lambda = n as f64 * p;
    if lambda < 30.0 {
        // Knuth's Poisson sampler.
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut prod = 1.0;
        loop {
            prod *= rng.gen::<f64>();
            if prod <= l || k > n {
                break;
            }
            k += 1;
        }
        k.min(n)
    } else {
        // Normal approximation with continuity correction.
        let sigma = (lambda * (1.0 - p)).sqrt();
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        ((lambda + sigma * z).round().max(0.0) as usize).min(n)
    }
}

impl Genome for BitGenome {
    fn mutate(&mut self, rng: &mut StdRng, gene_rate: f64) {
        let flips = binomial_draw(rng, self.len, gene_rate);
        if flips == 0 {
            return;
        }
        let mut chosen = HashSet::with_capacity(flips);
        while chosen.len() < flips {
            chosen.insert(rng.gen_range(0..self.len));
        }
        for i in chosen {
            self.words[i / 64] ^= 1 << (i % 64);
        }
    }

    fn crossover(&self, other: &Self, rng: &mut StdRng) -> (Self, Self) {
        assert_eq!(self.len, other.len, "crossover needs equal lengths");
        if self.len < 2 {
            return (self.clone(), other.clone());
        }
        let point = rng.gen_range(1..self.len);
        let mut a = self.clone();
        let mut b = other.clone();
        // Words wholly after the point swap; the boundary word splits.
        let boundary = point / 64;
        let within = point % 64;
        for w in (boundary + 1)..self.words.len() {
            a.words[w] = other.words[w];
            b.words[w] = self.words[w];
        }
        if within != 0 {
            let low_mask = (1u64 << within) - 1;
            a.words[boundary] =
                (self.words[boundary] & low_mask) | (other.words[boundary] & !low_mask);
            b.words[boundary] =
                (other.words[boundary] & low_mask) | (self.words[boundary] & !low_mask);
        } else {
            a.words[boundary] = other.words[boundary];
            b.words[boundary] = self.words[boundary];
        }
        (a, b)
    }

    fn similarity(&self, other: &Self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        let hamming = self.hamming(other);
        (self.len - hamming) as f64 / self.len as f64
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A bounded integer-vector chromosome (each gene in `[lo, hi]` inclusive).
///
/// # Examples
///
/// ```
/// use dstress_ga::IntGenome;
///
/// let g = IntGenome::new(vec![3, 7], 0, 20).unwrap();
/// assert_eq!(g.values(), &[3, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntGenome {
    values: Vec<u64>,
    lo: u64,
    hi: u64,
}

impl IntGenome {
    /// Builds a chromosome, validating the genes against the domain.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when `lo > hi` or a gene lies outside
    /// the domain.
    pub fn new(values: Vec<u64>, lo: u64, hi: u64) -> Result<Self, String> {
        if lo > hi {
            return Err(format!("empty domain [{lo}, {hi}]"));
        }
        if let Some(v) = values.iter().find(|v| **v < lo || **v > hi) {
            return Err(format!("gene {v} outside [{lo}, {hi}]"));
        }
        Ok(IntGenome { values, lo, hi })
    }

    /// A uniformly random chromosome of `len` genes in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn random(rng: &mut StdRng, len: usize, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty domain [{lo}, {hi}]");
        IntGenome {
            values: (0..len).map(|_| rng.gen_range(lo..=hi)).collect(),
            lo,
            hi,
        }
    }

    /// The gene values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The inclusive gene domain.
    pub fn bounds(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

impl Genome for IntGenome {
    fn mutate(&mut self, rng: &mut StdRng, gene_rate: f64) {
        for v in &mut self.values {
            if rng.gen::<f64>() < gene_rate {
                *v = rng.gen_range(self.lo..=self.hi);
            }
        }
    }

    fn crossover(&self, other: &Self, rng: &mut StdRng) -> (Self, Self) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "crossover needs equal lengths"
        );
        if self.values.len() < 2 {
            return (self.clone(), other.clone());
        }
        let point = rng.gen_range(1..self.values.len());
        let mut a = self.clone();
        let mut b = other.clone();
        for i in point..self.values.len() {
            a.values[i] = other.values[i];
            b.values[i] = self.values[i];
        }
        (a, b)
    }

    fn similarity(&self, other: &Self) -> f64 {
        let xs: Vec<f64> = self.values.iter().map(|&v| v as f64).collect();
        let ys: Vec<f64> = other.values.iter().map(|&v| v as f64).collect();
        weighted_jaccard(&xs, &ys)
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn bit_words_roundtrip() {
        let words = [0xDEAD_BEEF_0123_4567u64, 0x0000_0000_0000_ffff];
        let g = BitGenome::from_words(&words, 128);
        assert_eq!(g.to_words(), words.to_vec());
    }

    #[test]
    fn from_words_masks_the_tail() {
        let g = BitGenome::from_words(&[u64::MAX], 8);
        assert_eq!(g.to_words(), vec![0xFF]);
        assert_eq!(g.count_ones(), 8);
    }

    #[test]
    fn bit_render_is_lsb_first() {
        let g = BitGenome::from_words(&[0b0011], 8);
        assert_eq!(g.render(), "11000000");
    }

    #[test]
    fn paper_worst_pattern_renders_1100_repeating() {
        // 0x3333… prints as `1100 1100 …` bit-0-first — the paper's Fig. 8
        // worst-case sub-pattern.
        let g = BitGenome::from_words(&[0x3333_3333_3333_3333], 64);
        assert!(g.render().starts_with("110011001100"));
    }

    #[test]
    fn repeat_word_tiles() {
        let g = BitGenome::repeat_word(0x3333_3333_3333_3333, 128);
        assert_eq!(g.to_words(), vec![0x3333_3333_3333_3333; 2]);
    }

    #[test]
    fn bit_get_set() {
        let mut g = BitGenome::zeros(70);
        g.set_bit(69, true);
        assert!(g.bit(69));
        assert_eq!(g.count_ones(), 1);
        g.set_bit(69, false);
        assert_eq!(g.count_ones(), 0);
    }

    #[test]
    fn bit_mutation_rate_extremes() {
        let mut g = BitGenome::zeros(128);
        g.mutate(&mut rng(), 0.0);
        assert_eq!(g.count_ones(), 0);
        g.mutate(&mut rng(), 1.0);
        assert_eq!(g.count_ones(), 128);
    }

    #[test]
    fn bit_mutation_flips_roughly_rate_fraction() {
        let mut total = 0usize;
        let mut r = rng();
        for _ in 0..50 {
            let mut g = BitGenome::zeros(10_000);
            g.mutate(&mut r, 0.01);
            total += g.count_ones();
        }
        let avg = total as f64 / 50.0;
        assert!(
            (60.0..140.0).contains(&avg),
            "average flips {avg}, expected ~100"
        );
    }

    #[test]
    fn bit_crossover_preserves_genes() {
        let a = BitGenome::zeros(64);
        let mut ones = BitGenome::zeros(64);
        ones.mutate(&mut rng(), 1.0);
        let (c, d) = a.crossover(&ones, &mut rng());
        assert_eq!(c.count_ones() + d.count_ones(), 64);
        // Single-point: exactly one 0/1 boundary across the concatenation.
        let flips = (0..63).filter(|&i| c.bit(i) != c.bit(i + 1)).count();
        assert_eq!(flips, 1, "single-point crossover has one boundary");
    }

    #[test]
    fn bit_similarity_is_match_fraction() {
        let a = BitGenome::from_words(&[0b1100], 4);
        let b = BitGenome::from_words(&[0b1000], 4);
        assert!((a.similarity(&b) - 0.75).abs() < 1e-12);
        assert_eq!(a.similarity(&a), 1.0);
    }

    #[test]
    fn bit_similarity_matches_smf_reference() {
        // Packed similarity must agree with the OTU-based definition.
        let mut r = rng();
        for _ in 0..20 {
            let a = BitGenome::random(&mut r, 131);
            let b = BitGenome::random(&mut r, 131);
            let reference = dstress_stats::sokal_michener(&a.bits(), &b.bits());
            assert!((a.similarity(&b) - reference).abs() < 1e-12);
        }
    }

    #[test]
    fn hamming_distance() {
        let a = BitGenome::from_words(&[0b1010], 4);
        let b = BitGenome::from_words(&[0b0101], 4);
        assert_eq!(a.hamming(&b), 4);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn int_construction_validates() {
        assert!(IntGenome::new(vec![1, 2], 0, 20).is_ok());
        assert!(IntGenome::new(vec![21], 0, 20).is_err());
        assert!(IntGenome::new(vec![], 5, 2).is_err());
    }

    #[test]
    fn int_mutation_respects_bounds() {
        let mut g = IntGenome::random(&mut rng(), 32, 0, 20);
        for _ in 0..50 {
            g.mutate(&mut rng(), 1.0);
            assert!(g.values().iter().all(|&v| v <= 20));
        }
    }

    #[test]
    fn int_similarity_is_weighted_jaccard() {
        let a = IntGenome::new(vec![1, 2], 0, 20).unwrap();
        let b = IntGenome::new(vec![2, 2], 0, 20).unwrap();
        assert!((a.similarity(&b) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn random_genomes_differ() {
        let mut r = rng();
        let a = BitGenome::random(&mut r, 64);
        let b = BitGenome::random(&mut r, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn binomial_draw_sane_in_all_regimes() {
        let mut r = rng();
        // Exact regime.
        let small: usize = (0..200).map(|_| binomial_draw(&mut r, 32, 0.5)).sum();
        assert!((2000..4500).contains(&small), "sum {small}, expected ~3200");
        // Poisson regime.
        let poisson: usize = (0..200).map(|_| binomial_draw(&mut r, 10_000, 0.001)).sum();
        assert!(
            (1300..2800).contains(&poisson),
            "sum {poisson}, expected ~2000"
        );
        // Normal regime.
        let normal: usize = (0..50).map(|_| binomial_draw(&mut r, 100_000, 0.01)).sum();
        assert!(
            (40_000..60_000).contains(&normal),
            "sum {normal}, expected ~50000"
        );
        // Edge cases.
        assert_eq!(binomial_draw(&mut r, 0, 0.5), 0);
        assert_eq!(binomial_draw(&mut r, 100, 0.0), 0);
        assert_eq!(binomial_draw(&mut r, 100, 1.0), 100);
    }

    proptest! {
        #[test]
        fn bit_crossover_children_are_blends(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let a = BitGenome::random(&mut r, 100);
            let b = BitGenome::random(&mut r, 100);
            let (c, d) = a.crossover(&b, &mut r);
            for i in 0..100 {
                let (ai, bi) = (a.bit(i), b.bit(i));
                prop_assert!(c.bit(i) == ai || c.bit(i) == bi);
                prop_assert!(d.bit(i) == ai || d.bit(i) == bi);
                prop_assert!((c.bit(i) == ai) == (d.bit(i) == bi));
            }
        }

        #[test]
        fn int_crossover_children_stay_in_domain(seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let a = IntGenome::random(&mut r, 16, 0, 20);
            let b = IntGenome::random(&mut r, 16, 0, 20);
            let (c, d) = a.crossover(&b, &mut r);
            prop_assert!(c.values().iter().all(|&v| v <= 20));
            prop_assert!(d.values().iter().all(|&v| v <= 20));
        }

        #[test]
        fn packed_tail_never_leaks(len in 1usize..200, seed in any::<u64>()) {
            let mut r = StdRng::seed_from_u64(seed);
            let mut g = BitGenome::random(&mut r, len);
            g.mutate(&mut r, 0.3);
            prop_assert!(g.count_ones() <= len);
            let h = BitGenome::from_words(&g.to_words(), len);
            prop_assert_eq!(g, h);
        }
    }
}
