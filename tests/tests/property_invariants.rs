//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the ECC ↔ DRAM ↔ platform ↔ framework boundaries.

use dstress::{EnvKind, ExperimentScale};
use dstress_dram::{ActivationCounts, Dimm, DimmConfig, OperatingEnv};
use dstress_ecc::{classify_flips, Codeword, EventKind};
use dstress_ga::{BitGenome, Genome, IntGenome};
use dstress_stats::{mean_pairwise, sokal_michener};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every fault event the DRAM model reports classifies to a *visible or
    /// silent* ECC event — never `None` (a reported flip can't vanish).
    #[test]
    fn every_dram_event_classifies_nontrivially(seed in 0u64..500, temp in 55.0f64..70.0) {
        let mut config = DimmConfig::default();
        config.geometry.rows_per_bank = 8;
        config.weak.singles_per_rank = 200;
        config.weak.pairs_per_rank = 10;
        let dimm = Dimm::new(config, seed);
        let env = OperatingEnv::relaxed(temp);
        for event in dimm.advance_window(&env, &ActivationCounts::new(), seed) {
            let kind = classify_flips(event.written, event.flip_mask, 0);
            prop_assert_ne!(kind, EventKind::None, "event {} vanished", event.loc);
            match event.flipped_bits() {
                1 => prop_assert_eq!(kind, EventKind::Ce),
                2 => prop_assert_eq!(kind, EventKind::Ue),
                _ => prop_assert!(kind != EventKind::Ce || kind.corrupts_data()),
            }
        }
    }

    /// ECC correction is exact for any data under any single-bit fault, and
    /// the corrected data always round-trips through re-encoding.
    #[test]
    fn ecc_single_fault_roundtrip(data in any::<u64>(), bit in 0u32..64) {
        let faulty = Codeword::encode(data).with_data_flips(1u64 << bit);
        match faulty.decode() {
            dstress_ecc::EccEvent::Corrected { data: d, .. } => {
                prop_assert_eq!(d, data);
                let reencoded_clean =
                    matches!(Codeword::encode(d).decode(), dstress_ecc::EccEvent::Clean { .. });
                prop_assert!(reencoded_clean);
            }
            other => prop_assert!(false, "expected correction, got {:?}", other),
        }
    }

    /// Genome similarity is a proper similarity: reflexive, symmetric,
    /// bounded — for both encodings.
    #[test]
    fn genome_similarity_axioms(seed in any::<u64>(), len in 1usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BitGenome::random(&mut rng, len);
        let b = BitGenome::random(&mut rng, len);
        prop_assert_eq!(a.similarity(&a), 1.0);
        prop_assert!((a.similarity(&b) - b.similarity(&a)).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&a.similarity(&b)));
        let c = IntGenome::random(&mut rng, (len % 32) + 1, 0, 20);
        let d = IntGenome::random(&mut rng, (len % 32) + 1, 0, 20);
        prop_assert_eq!(c.similarity(&c), 1.0);
        prop_assert!((c.similarity(&d) - d.similarity(&c)).abs() < 1e-12);
    }

    /// Packed-genome similarity agrees with the OTU-based Sokal–Michener
    /// definition for arbitrary lengths (including non-word-aligned ones).
    #[test]
    fn packed_similarity_matches_reference(seed in any::<u64>(), len in 1usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = BitGenome::random(&mut rng, len);
        let b = BitGenome::random(&mut rng, len);
        let reference = sokal_michener(&a.bits(), &b.bits());
        prop_assert!((a.similarity(&b) - reference).abs() < 1e-12);
    }

    /// Mean pairwise similarity of identical chromosomes is exactly 1 and
    /// never exceeds 1 for arbitrary populations.
    #[test]
    fn mean_pairwise_bounds(seed in any::<u64>(), n in 2usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop: Vec<BitGenome> = (0..n).map(|_| BitGenome::random(&mut rng, 64)).collect();
        let sim = mean_pairwise(&pop, |a, b| a.similarity(b));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&sim));
        let clones = vec![pop[0].clone(); n];
        prop_assert_eq!(mean_pairwise(&clones, |a, b| a.similarity(b)), 1.0);
    }

    /// Environment bindings always fit inside the DIMM: `MEM_WORDS` plus
    /// the global rows never exceed capacity, for any victim row that the
    /// binding accepts.
    #[test]
    fn environment_bindings_fit_the_dimm(bank in 0u8..8, row in 0u32..16, rank in 0u8..2) {
        let scale = ExperimentScale::quick();
        let victim = dstress_dram::geometry::RowKey::new(rank, bank, row);
        for env in [
            EnvKind::RowTriple { victims: vec![victim] },
            EnvKind::Chunks { victims: vec![victim] },
            EnvKind::RowAccess { victims: vec![victim], fill: 0 },
            EnvKind::StrideAccess { victims: vec![victim], fill: 0 },
        ] {
            if let Ok(bindings) = env.bindings(&scale) {
                let mem_words = match bindings["MEM_WORDS"] {
                    dstress_vpl::BoundValue::Scalar(w) => w,
                    _ => unreachable!("MEM_WORDS is scalar"),
                };
                prop_assert!(mem_words <= scale.dimm_words());
                prop_assert!(mem_words > 0);
            }
        }
    }

    /// The disturbance factor is monotone in every aggressor's activation
    /// count and bounded by `max_factor`, whatever the activation layout.
    #[test]
    fn disturbance_monotone_bounded(counts in proptest::collection::vec(0u64..100_000, 1..6)) {
        use dstress_dram::geometry::RowKey;
        let model = dstress_dram::DisturbanceModel::default();
        let victim = RowKey::new(0, 0, 16);
        let acts: ActivationCounts = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (RowKey::new(0, 0, 10 + i as u32), c))
            .collect();
        let f = model.factor(victim, &acts);
        prop_assert!((0.0..=model.max_factor).contains(&f));
        let boosted: ActivationCounts = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (RowKey::new(0, 0, 10 + i as u32), c + 1000))
            .collect();
        prop_assert!(model.factor(victim, &boosted) >= f);
    }
}
