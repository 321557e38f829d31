//! Classification of raw in-DRAM bit flips into ECC events.
//!
//! The DRAM simulator reports which stored bits of a word leaked; this module
//! answers "what does the platform observe": a correctable error (CE), an
//! uncorrectable error (UE), or silent data corruption (SDC) — either an
//! undetected multi-bit error or a miscorrection that *changes* the data.

use crate::hamming::{Codeword, EccEvent};
use serde::{Deserialize, Serialize};

/// The observable outcome of reading one ECC word that suffered bit flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// No bits flipped; the read is clean.
    None,
    /// Correctable error: the controller restored the original data
    /// (single-bit error, counted as a CE by the paper's fitness function).
    Ce,
    /// Detected uncorrectable error (2-bit, or an invalid syndrome). The
    /// paper's framework stops the virus run when a UE is raised (§V-A.1).
    Ue,
    /// The decoder "corrected" the word to something other than the original
    /// data: silent data corruption by miscorrection (≥3 flips).
    SdcMiscorrected,
    /// The flips formed another valid codeword and passed undetected (≥4
    /// flips): silent data corruption.
    SdcUndetected,
}

impl EventKind {
    /// Whether this event is visible to the platform's error counters at all
    /// (SDCs by definition are not).
    pub fn is_visible(&self) -> bool {
        matches!(self, EventKind::Ce | EventKind::Ue)
    }

    /// Whether the delivered data differs from what was written.
    pub fn corrupts_data(&self) -> bool {
        matches!(self, EventKind::SdcMiscorrected | EventKind::SdcUndetected)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EventKind::None => "none",
            EventKind::Ce => "CE",
            EventKind::Ue => "UE",
            EventKind::SdcMiscorrected => "SDC(miscorrected)",
            EventKind::SdcUndetected => "SDC(undetected)",
        };
        f.write_str(s)
    }
}

/// Classifies the flips suffered by one stored word.
///
/// `data` is the originally written 64-bit value; `data_flips` / `check_flips`
/// are masks of the bits that leaked in the array (data bits and ECC-chip
/// bits respectively).
///
/// With no check-bit flips, a mask of 0, 1 or 2 data bits is classified by
/// its popcount alone: the code is linear with minimum distance 4, so every
/// single flip is corrected and every double flip detected, whatever the
/// data word. Only masks of three or more bits — the ones that can end in
/// silent corruption — go through the full encode and decode.
///
/// # Examples
///
/// ```
/// use dstress_ecc::{classify_flips, EventKind};
///
/// assert_eq!(classify_flips(0xFFFF, 0, 0), EventKind::None);
/// assert_eq!(classify_flips(0xFFFF, 0b1, 0), EventKind::Ce);
/// assert_eq!(classify_flips(0xFFFF, 0b11, 0), EventKind::Ue);
/// ```
pub fn classify_flips(data: u64, data_flips: u64, check_flips: u8) -> EventKind {
    if check_flips == 0 {
        match data_flips.count_ones() {
            0 => return EventKind::None,
            1 => return EventKind::Ce,
            2 => return EventKind::Ue,
            _ => {}
        }
    }
    let stored = Codeword::encode(data)
        .with_data_flips(data_flips)
        .with_check_flips(check_flips);
    match stored.decode() {
        EccEvent::Clean { data: d } => {
            if d == data {
                // Flips cancelled out inside check bits only and parity —
                // impossible for a non-zero mask in a linear code, but keep
                // the honest classification.
                EventKind::None
            } else {
                EventKind::SdcUndetected
            }
        }
        EccEvent::Corrected { data: d, .. } => {
            if d == data {
                EventKind::Ce
            } else {
                EventKind::SdcMiscorrected
            }
        }
        EccEvent::DetectedUncorrectable => EventKind::Ue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_flips_is_none() {
        assert_eq!(classify_flips(123, 0, 0), EventKind::None);
    }

    #[test]
    fn one_data_flip_is_ce() {
        for i in [0, 17, 63] {
            assert_eq!(
                classify_flips(u64::MAX, 1 << i, 0),
                EventKind::Ce,
                "bit {i}"
            );
        }
    }

    #[test]
    fn one_check_flip_is_ce() {
        for j in 0..8 {
            assert_eq!(
                classify_flips(0xABCD, 0, 1 << j),
                EventKind::Ce,
                "check {j}"
            );
        }
    }

    #[test]
    fn two_flips_are_ue() {
        assert_eq!(classify_flips(0, 0b101, 0), EventKind::Ue);
        assert_eq!(classify_flips(0, 0b1, 0b1), EventKind::Ue);
        assert_eq!(classify_flips(0, 0, 0b11), EventKind::Ue);
    }

    #[test]
    fn triple_flips_are_never_ce_or_none() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let data: u64 = rng.gen();
            let mut mask = 0u64;
            while mask.count_ones() < 3 {
                mask |= 1u64 << rng.gen_range(0..64);
            }
            let kind = classify_flips(data, mask, 0);
            assert!(
                matches!(kind, EventKind::Ue | EventKind::SdcMiscorrected),
                "3 flips gave {kind}"
            );
        }
    }

    #[test]
    fn some_triple_flips_miscorrect() {
        // Find at least one miscorrecting triple: flip two data bits plus the
        // bit the decoder would blame. Exhaustively scan a few words.
        let mut found = false;
        'outer: for a in 0..16u32 {
            for b in (a + 1)..24 {
                for c in (b + 1)..32 {
                    let mask = (1u64 << a) | (1u64 << b) | (1u64 << c);
                    if classify_flips(0, mask, 0) == EventKind::SdcMiscorrected {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "no miscorrecting 3-bit pattern found in scan");
    }

    #[test]
    fn quadruple_flips_can_be_undetected() {
        // Two pairs of data bits whose positions XOR to zero form a valid
        // codeword offset -> undetected. Search exhaustively over small bits.
        let mut found = false;
        'outer: for a in 0..20u32 {
            for b in (a + 1)..24 {
                for c in (b + 1)..28 {
                    for d in (c + 1)..32 {
                        let mask = (1u64 << a) | (1u64 << b) | (1u64 << c) | (1u64 << d);
                        if classify_flips(0, mask, 0) == EventKind::SdcUndetected {
                            found = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(found, "no undetected 4-bit pattern found in scan");
    }

    #[test]
    fn visibility_and_corruption_flags() {
        assert!(!EventKind::None.is_visible());
        assert!(EventKind::Ce.is_visible());
        assert!(EventKind::Ue.is_visible());
        assert!(!EventKind::SdcUndetected.is_visible());
        assert!(EventKind::SdcUndetected.corrupts_data());
        assert!(EventKind::SdcMiscorrected.corrupts_data());
        assert!(!EventKind::Ce.corrupts_data());
    }

    #[test]
    fn display_is_nonempty() {
        for k in [
            EventKind::None,
            EventKind::Ce,
            EventKind::Ue,
            EventKind::SdcMiscorrected,
            EventKind::SdcUndetected,
        ] {
            assert!(!k.to_string().is_empty());
        }
    }

    /// The full decode of `data` with `data_flips` flipped, classified the
    /// way [`classify_flips`] reads a decoder outcome.
    fn decoded_kind(data: u64, data_flips: u64) -> EventKind {
        match Codeword::encode(data).with_data_flips(data_flips).decode() {
            EccEvent::Clean { data: d } if d == data => EventKind::None,
            EccEvent::Clean { .. } => EventKind::SdcUndetected,
            EccEvent::Corrected { data: d, .. } if d == data => EventKind::Ce,
            EccEvent::Corrected { .. } => EventKind::SdcMiscorrected,
            EccEvent::DetectedUncorrectable => EventKind::Ue,
        }
    }

    #[test]
    fn popcount_fast_path_matches_full_decode_for_every_low_weight_mask() {
        let mut masks = vec![0u64];
        for a in 0..64 {
            masks.push(1 << a);
            for b in (a + 1)..64 {
                masks.push((1 << a) | (1 << b));
            }
        }
        assert_eq!(masks.len(), 1 + 64 + 64 * 63 / 2);
        let mut rng = StdRng::seed_from_u64(19);
        let mut words = vec![0, u64::MAX, 0x3333_3333_3333_3333, 0xCCCC_CCCC_CCCC_CCCC];
        words.extend((0..4).map(|_| rng.gen::<u64>()));
        for &data in &words {
            for &mask in &masks {
                assert_eq!(
                    classify_flips(data, mask, 0),
                    decoded_kind(data, mask),
                    "data {data:#x} mask {mask:#x}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn classification_matches_flip_count_for_0_to_2(data in any::<u64>(),
                                                        a in 0usize..64, b in 0usize..64) {
            prop_assert_eq!(classify_flips(data, 0, 0), EventKind::None);
            prop_assert_eq!(classify_flips(data, 1 << a, 0), EventKind::Ce);
            if a != b {
                prop_assert_eq!(classify_flips(data, (1u64 << a) | (1u64 << b), 0), EventKind::Ue);
            }
        }
    }
}
