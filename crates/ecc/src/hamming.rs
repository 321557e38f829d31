//! Extended Hamming (72,64) SECDED code.
//!
//! The code stores 64 data bits plus 8 check bits per word: seven Hamming
//! check bits (placed at power-of-two syndrome positions) and one overall
//! parity bit. Single-bit errors produce a non-zero syndrome *and* odd
//! overall parity and are correctable; double-bit errors produce a non-zero
//! syndrome with even parity and are detected-uncorrectable; three or more
//! flipped bits may alias onto a valid single-bit syndrome (miscorrection) or
//! onto the zero syndrome (undetected) — silent data corruption.

use serde::{Deserialize, Serialize};

/// Number of data bits per ECC word.
pub const DATA_BITS: usize = 64;
/// Number of check bits per ECC word (7 Hamming + 1 overall parity).
pub const CHECK_BITS: usize = 8;
/// Total stored bits per ECC word.
pub const TOTAL_BITS: usize = DATA_BITS + CHECK_BITS;

/// Syndrome position assigned to each data bit: the `i`-th positive integer
/// that is not a power of two (Hamming positions 3, 5, 6, 7, 9, …).
const fn data_positions() -> [u8; DATA_BITS] {
    let mut positions = [0u8; DATA_BITS];
    let mut pos: u8 = 1;
    let mut i = 0;
    while i < DATA_BITS {
        pos += 1;
        if pos & (pos - 1) != 0 {
            positions[i] = pos;
            i += 1;
        }
    }
    positions
}

/// Hamming positions of the 64 data bits (data bit `i` ↔ position
/// `DATA_POSITIONS[i]`).
pub const DATA_POSITIONS: [u8; DATA_BITS] = data_positions();

/// Inverse map: syndrome value → data bit index (or `u8::MAX` when the
/// syndrome does not address a data bit).
const fn syndrome_to_data() -> [u8; 128] {
    let mut map = [u8::MAX; 128];
    let positions = data_positions();
    let mut i = 0;
    while i < DATA_BITS {
        map[positions[i] as usize] = i as u8;
        i += 1;
    }
    map
}

const SYNDROME_TO_DATA: [u8; 128] = syndrome_to_data();

/// A stored 72-bit ECC word: 64 data bits plus the 8-bit check byte.
///
/// Bit 7 of [`Self::check`] is the overall parity bit; bits 0–6 are the
/// Hamming check bits `c_j` (position `2^j`).
///
/// # Examples
///
/// ```
/// use dstress_ecc::Codeword;
///
/// let cw = Codeword::encode(42);
/// assert_eq!(cw.data(), 42);
/// assert!(matches!(cw.decode(), dstress_ecc::EccEvent::Clean { data: 42 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Codeword {
    data: u64,
    check: u8,
}

/// What the memory controller observes when reading a (possibly corrupted)
/// ECC word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EccEvent {
    /// Zero syndrome, even parity: the word is accepted as error-free.
    Clean {
        /// The data returned to the reader.
        data: u64,
    },
    /// A single-bit error was corrected (in a data bit, a check bit, or the
    /// parity bit itself).
    Corrected {
        /// The data returned to the reader after correction.
        data: u64,
        /// Which stored bit was corrected: `0..64` = data bit, `64..71` =
        /// Hamming check bit, `71` = overall parity bit.
        bit: u8,
    },
    /// Non-zero syndrome with even overall parity (or a syndrome addressing
    /// no stored bit): detected but uncorrectable. Server firmware typically
    /// raises a machine-check; the paper's framework stops the virus run.
    DetectedUncorrectable,
}

impl Codeword {
    /// Encodes 64 data bits into a SECDED codeword.
    pub fn encode(data: u64) -> Self {
        let mut syndrome = 0u8;
        let mut bits = data;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            syndrome ^= DATA_POSITIONS[i];
            bits &= bits - 1;
        }
        // Hamming check bits cancel the data syndrome (c_j = syndrome bit j).
        let hamming = syndrome & 0x7F;
        // Overall parity covers all 71 Hamming-position bits; choose the
        // parity bit so the total number of ones is even.
        let ones = data.count_ones() + (hamming as u32).count_ones();
        let parity = (ones & 1) as u8;
        Codeword {
            data,
            check: hamming | (parity << 7),
        }
    }

    /// Builds a codeword from raw stored bits without any checking, so
    /// tests can state arbitrary check bytes.
    #[cfg(test)]
    pub fn from_raw(data: u64, check: u8) -> Self {
        Codeword { data, check }
    }

    /// The stored data bits (as stored, before any decode/correction).
    pub fn data(&self) -> u64 {
        self.data
    }

    /// The stored check byte (bits 0–6 Hamming, bit 7 overall parity).
    pub fn check(&self) -> u8 {
        self.check
    }

    /// Returns a copy with the given data bits flipped (a fault-injection
    /// helper modelling in-array retention errors).
    #[must_use]
    pub fn with_data_flips(&self, mask: u64) -> Self {
        Codeword {
            data: self.data ^ mask,
            check: self.check,
        }
    }

    /// Returns a copy with the given check bits flipped (faults in the ECC
    /// chip of the DIMM).
    #[must_use]
    pub fn with_check_flips(&self, mask: u8) -> Self {
        Codeword {
            data: self.data,
            check: self.check ^ mask,
        }
    }

    /// Computes the 7-bit Hamming syndrome of the stored word.
    fn syndrome(&self) -> u8 {
        let mut syndrome = 0u8;
        let mut bits = self.data;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            syndrome ^= DATA_POSITIONS[i];
            bits &= bits - 1;
        }
        // Check bit j sits at position 2^j and contributes itself.
        syndrome ^ (self.check & 0x7F)
    }

    /// Overall parity of all 72 stored bits (0 = even, as encoded).
    fn overall_parity(&self) -> u8 {
        ((self.data.count_ones() + (self.check as u32).count_ones()) & 1) as u8
    }

    /// Syndrome-decodes the stored word, exactly as a SECDED memory
    /// controller would.
    pub fn decode(&self) -> EccEvent {
        let syndrome = self.syndrome();
        let parity = self.overall_parity();
        match (syndrome, parity == 1) {
            (0, false) => EccEvent::Clean { data: self.data },
            (0, true) => {
                // Only the overall parity bit disagrees: correct it.
                EccEvent::Corrected {
                    data: self.data,
                    bit: 71,
                }
            }
            (s, true) => {
                // Odd parity, non-zero syndrome: single-bit error at
                // position `s` (if that position is in use).
                if s.count_ones() == 1 {
                    let j = s.trailing_zeros() as u8;
                    EccEvent::Corrected {
                        data: self.data,
                        bit: 64 + j,
                    }
                } else {
                    let idx = SYNDROME_TO_DATA[s as usize];
                    if idx == u8::MAX {
                        // Syndrome addresses an unused (shortened) position:
                        // cannot be a single-bit error.
                        EccEvent::DetectedUncorrectable
                    } else {
                        EccEvent::Corrected {
                            data: self.data ^ (1u64 << idx),
                            bit: idx,
                        }
                    }
                }
            }
            (_, false) => {
                // Even parity with a non-zero syndrome: an even number of
                // bits (>= 2) flipped. Always detected, never corrected.
                EccEvent::DetectedUncorrectable
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn data_positions_are_distinct_non_powers_of_two() {
        let mut seen = [false; 128];
        for &p in DATA_POSITIONS.iter() {
            assert!(p >= 3);
            assert_ne!(p & (p - 1), 0, "position {p} is a power of two");
            assert!(!seen[p as usize], "duplicate position {p}");
            seen[p as usize] = true;
        }
    }

    #[test]
    fn clean_roundtrip() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63] {
            let cw = Codeword::encode(data);
            assert_eq!(cw.decode(), EccEvent::Clean { data });
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let data = 0xA5A5_5A5A_0FF0_1234u64;
        let cw = Codeword::encode(data);
        for i in 0..64 {
            let faulty = cw.with_data_flips(1u64 << i);
            match faulty.decode() {
                EccEvent::Corrected { data: d, bit } => {
                    assert_eq!(d, data, "bit {i} not restored");
                    assert_eq!(bit, i as u8);
                }
                other => panic!("bit {i}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_corrected() {
        let cw = Codeword::encode(0x0123_4567_89AB_CDEF);
        for j in 0..8u8 {
            let faulty = cw.with_check_flips(1 << j);
            match faulty.decode() {
                EccEvent::Corrected { data, bit } => {
                    assert_eq!(data, 0x0123_4567_89AB_CDEF);
                    assert_eq!(bit, 64 + j.min(7), "check bit {j}");
                    if j == 7 {
                        assert_eq!(bit, 71);
                    }
                }
                other => panic!("check bit {j}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_double_data_bit_flips_are_detected() {
        // SECDED guarantees 100 % detection of 2-bit errors (paper §III-C).
        let data = 0xFEDC_BA98_7654_3210u64;
        let cw = Codeword::encode(data);
        for i in 0..64 {
            for j in (i + 1)..64 {
                let faulty = cw.with_data_flips((1u64 << i) | (1u64 << j));
                assert_eq!(
                    faulty.decode(),
                    EccEvent::DetectedUncorrectable,
                    "bits ({i},{j}) escaped detection"
                );
            }
        }
    }

    #[test]
    fn mixed_data_check_double_flips_are_detected() {
        let cw = Codeword::encode(0x1122_3344_5566_7788);
        for i in 0..64 {
            for j in 0..8 {
                let faulty = cw.with_data_flips(1u64 << i).with_check_flips(1 << j);
                assert_eq!(
                    faulty.decode(),
                    EccEvent::DetectedUncorrectable,
                    "data {i} + check {j}"
                );
            }
        }
    }

    #[test]
    fn triple_flips_never_decode_clean_silently_as_clean_with_wrong_data() {
        // A 3-bit error has odd parity, so it is never reported Clean; it is
        // either miscorrected (SDC) or flagged via an invalid syndrome.
        let data = 0x0F0F_F0F0_3C3C_C3C3u64;
        let cw = Codeword::encode(data);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let mut mask = 0u64;
            while mask.count_ones() < 3 {
                mask |= 1u64 << rng.gen_range(0..64);
            }
            let faulty = cw.with_data_flips(mask);
            match faulty.decode() {
                EccEvent::Clean { .. } => panic!("3-bit error decoded Clean"),
                EccEvent::Corrected { data: d, .. } => {
                    // Miscorrection: returned data differs from the original.
                    assert_ne!(d, data, "3-bit error cannot be truly corrected");
                }
                EccEvent::DetectedUncorrectable => {}
            }
        }
    }

    #[test]
    fn from_raw_preserves_bits() {
        let cw = Codeword::from_raw(0xABCD, 0x5A);
        assert_eq!(cw.data(), 0xABCD);
        assert_eq!(cw.check(), 0x5A);
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(data in any::<u64>()) {
            prop_assert_eq!(Codeword::encode(data).decode(), EccEvent::Clean { data });
        }

        #[test]
        fn single_flip_always_corrects_to_original(data in any::<u64>(), bit in 0usize..72) {
            let cw = Codeword::encode(data);
            let faulty = if bit < 64 {
                cw.with_data_flips(1u64 << bit)
            } else {
                cw.with_check_flips(1u8 << (bit - 64))
            };
            match faulty.decode() {
                EccEvent::Corrected { data: d, .. } => prop_assert_eq!(d, data),
                other => prop_assert!(false, "expected correction, got {:?}", other),
            }
        }

        #[test]
        fn double_flip_always_detected(data in any::<u64>(), a in 0usize..72, b in 0usize..72) {
            prop_assume!(a != b);
            let cw = Codeword::encode(data);
            let mut faulty = cw;
            for &bit in &[a, b] {
                faulty = if bit < 64 {
                    faulty.with_data_flips(1u64 << bit)
                } else {
                    faulty.with_check_flips(1u8 << (bit - 64))
                };
            }
            prop_assert_eq!(faulty.decode(), EccEvent::DetectedUncorrectable);
        }

        #[test]
        fn encoded_words_have_even_total_parity(data in any::<u64>()) {
            let cw = Codeword::encode(data);
            let ones = cw.data().count_ones() + (cw.check() as u32).count_ones();
            prop_assert_eq!(ones % 2, 0);
        }
    }
}
