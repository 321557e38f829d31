//! Crossover strategies.
//!
//! The engine's default is single-point crossover (implemented directly on
//! the genomes for speed); this module adds the classic alternatives for
//! the ablation benches — two-point and uniform recombination — behind a
//! common strategy enum.

use crate::genome::{BitGenome, Genome};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A recombination strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CrossoverOp {
    /// One cut point; tails swap (the classic choice, and the default).
    #[default]
    SinglePoint,
    /// Two cut points; the middle segment swaps.
    TwoPoint,
    /// Every gene independently picks a parent (50/50).
    Uniform,
}

impl CrossoverOp {
    /// Recombines two bit genomes.
    ///
    /// # Panics
    ///
    /// Panics if the genomes have different lengths.
    pub fn cross_bits(
        &self,
        a: &BitGenome,
        b: &BitGenome,
        rng: &mut StdRng,
    ) -> (BitGenome, BitGenome) {
        assert_eq!(a.len(), b.len(), "crossover needs equal lengths");
        match self {
            CrossoverOp::SinglePoint => a.crossover(b, rng),
            CrossoverOp::TwoPoint => {
                if a.len() < 3 {
                    return a.crossover(b, rng);
                }
                let mut p1 = rng.gen_range(1..a.len());
                let mut p2 = rng.gen_range(1..a.len());
                if p1 > p2 {
                    std::mem::swap(&mut p1, &mut p2);
                }
                let mut c = a.clone();
                let mut d = b.clone();
                for i in p1..p2 {
                    c.set_bit(i, b.bit(i));
                    d.set_bit(i, a.bit(i));
                }
                (c, d)
            }
            CrossoverOp::Uniform => {
                let mut c = a.clone();
                let mut d = b.clone();
                for i in 0..a.len() {
                    if rng.gen::<bool>() {
                        c.set_bit(i, b.bit(i));
                        d.set_bit(i, a.bit(i));
                    }
                }
                (c, d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn parents() -> (BitGenome, BitGenome) {
        (BitGenome::zeros(64), BitGenome::repeat_word(u64::MAX, 64))
    }

    fn boundaries(g: &BitGenome) -> usize {
        (0..g.len() - 1)
            .filter(|&i| g.bit(i) != g.bit(i + 1))
            .count()
    }

    #[test]
    fn single_point_has_one_boundary() {
        let (a, b) = parents();
        let (c, _) = CrossoverOp::SinglePoint.cross_bits(&a, &b, &mut rng());
        assert_eq!(boundaries(&c), 1);
    }

    #[test]
    fn two_point_has_at_most_two_boundaries() {
        let (a, b) = parents();
        for _ in 0..20 {
            let (c, d) = CrossoverOp::TwoPoint.cross_bits(&a, &b, &mut rng());
            assert!(boundaries(&c) <= 2, "{}", c.render());
            assert_eq!(c.count_ones() + d.count_ones(), 64, "genes conserved");
        }
    }

    #[test]
    fn uniform_mixes_thoroughly() {
        let (a, b) = parents();
        let (c, d) = CrossoverOp::Uniform.cross_bits(&a, &b, &mut rng());
        // Roughly half the genes from each parent, complementary children.
        assert!((16..48).contains(&c.count_ones()), "{}", c.count_ones());
        assert_eq!(c.count_ones() + d.count_ones(), 64);
        assert!(boundaries(&c) > 5, "uniform crossover fragments heavily");
    }

    #[test]
    fn children_genes_come_from_parents() {
        let mut r = rng();
        let a = BitGenome::random(&mut r, 48);
        let b = BitGenome::random(&mut r, 48);
        for op in [
            CrossoverOp::SinglePoint,
            CrossoverOp::TwoPoint,
            CrossoverOp::Uniform,
        ] {
            let (c, d) = op.cross_bits(&a, &b, &mut r);
            for i in 0..48 {
                assert!(c.bit(i) == a.bit(i) || c.bit(i) == b.bit(i));
                assert!((c.bit(i) == a.bit(i)) == (d.bit(i) == b.bit(i)));
            }
        }
    }

    #[test]
    fn tiny_genomes_fall_back_gracefully() {
        let a = BitGenome::zeros(2);
        let b = BitGenome::repeat_word(u64::MAX, 2);
        let (c, d) = CrossoverOp::TwoPoint.cross_bits(&a, &b, &mut rng());
        assert_eq!(c.count_ones() + d.count_ones(), 2);
    }
}
