//! Bit-sequence helpers shared by the statistical tests.
//!
//! Bits are represented as `u8` values restricted to `{0, 1}`; helper functions validate
//! that restriction, pack/unpack bytes and compute elementary counts.
//!
//! Validation and packing work a word at a time: eight samples are loaded as one
//! little-endian `u64` of byte lanes, checked with one mask and packed MSB-first by one
//! multiplication (see [`pack_into`]); [`unpack_into`] spreads each byte back over
//! eight lanes with a multiplication and a mask.

use crate::{AisError, Result};

/// The low bit of every byte lane.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Any bit set here marks a byte lane that is not 0 or 1.
const NOT_A_BIT: u64 = !LOW_BITS;

/// Multiplier that gathers eight 0/1 byte lanes MSB-first into the top byte: lane `i`
/// contributes `2^(8i + 9k)` for the multiplier's byte `k`, and only `k = 7 − i` lands
/// in bits 56..64, at bit `63 − i`.  No two terms share a bit, so nothing carries.
const GATHER: u64 = 0x8040_2010_0804_0201;

/// Lane `i` keeps bit `7 − i` of a byte replicated into every lane.
const SCATTER: u64 = 0x0102_0408_1020_4080;

/// Eight samples as byte lanes, sample `i` in lane `i`.
#[inline]
fn lanes(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("an 8-sample chunk"))
}

/// The low bits of eight byte lanes packed MSB-first (lane 0 is the top bit).
#[inline]
fn gather(lanes: u64) -> u8 {
    ((lanes & LOW_BITS).wrapping_mul(GATHER) >> 56) as u8
}

/// The bits of `byte` as eight 0/1 byte lanes, MSB first (the inverse of [`gather`]).
#[inline]
fn scatter(byte: u8) -> u64 {
    // A masked lane is zero or a single set bit ≤ 0x80; adding 0x7f sets its top bit
    // exactly when it is non-zero, without carrying into the next lane.
    let spread = (u64::from(byte) * LOW_BITS) & SCATTER;
    ((spread + 0x7f7f_7f7f_7f7f_7f7f) >> 7) & LOW_BITS
}

/// Index of the first sample of `bits` that is not 0 or 1.
pub fn first_non_bit(bits: &[u8]) -> Option<usize> {
    let mut chunks = bits.chunks_exact(8);
    for (chunk_index, chunk) in (&mut chunks).enumerate() {
        let bad = lanes(chunk) & NOT_A_BIT;
        if bad != 0 {
            return Some(chunk_index * 8 + bad.trailing_zeros() as usize / 8);
        }
    }
    let offset = bits.len() - chunks.remainder().len();
    chunks
        .remainder()
        .iter()
        .position(|&value| value > 1)
        .map(|index| offset + index)
}

/// Validates that every sample of `bits` is 0 or 1.
///
/// # Errors
///
/// Returns [`AisError::NotABit`] with the index of the first offending sample.
pub fn ensure_bits(bits: &[u8]) -> Result<()> {
    match first_non_bit(bits) {
        Some(index) => Err(AisError::NotABit {
            index,
            value: bits[index],
        }),
        None => Ok(()),
    }
}

/// Validates that `bits` has at least `needed` samples (after validating bit values).
///
/// # Errors
///
/// Returns an error when the sequence is too short or contains non-bit values.
pub fn ensure_bit_len(bits: &[u8], needed: usize) -> Result<()> {
    ensure_bits(bits)?;
    if bits.len() < needed {
        return Err(AisError::SequenceTooShort {
            len: bits.len(),
            needed,
        });
    }
    Ok(())
}

/// Converts a slice of booleans to a bit vector.
pub fn from_bools(bools: &[bool]) -> Vec<u8> {
    bools.iter().map(|&b| u8::from(b)).collect()
}

/// Packs every whole byte of `bits` MSB-first onto `out` and returns the trailing
/// samples (fewer than eight) that do not fill a byte.
///
/// Each sample contributes its low bit, so callers validate first where a sample
/// outside `{0, 1}` is an error.
pub fn pack_into<'a>(bits: &'a [u8], out: &mut Vec<u8>) -> &'a [u8] {
    let chunks = bits.chunks_exact(8);
    let tail = chunks.remainder();
    out.extend(chunks.map(|chunk| gather(lanes(chunk))));
    tail
}

/// Appends the bits of `bytes` onto `out`, most significant bit first.
pub fn unpack_into(bytes: &[u8], out: &mut Vec<u8>) {
    out.reserve(bytes.len() * 8);
    for &byte in bytes {
        out.extend_from_slice(&scatter(byte).to_le_bytes());
    }
}

/// Packs up to 64 samples MSB-first into the top of a word: sample `i` lands at bit
/// `63 − i`, and the bits below the last sample are zero.  Each sample contributes its
/// low bit.
///
/// # Panics
///
/// Panics when `bits` holds more than 64 samples.
pub fn pack_word(bits: &[u8]) -> u64 {
    assert!(bits.len() <= 64, "a word holds at most 64 bits");
    let mut bytes = [0u8; 8];
    for (byte, chunk) in bytes.iter_mut().zip(bits.chunks(8)) {
        let mut lane = [0u8; 8];
        lane[..chunk.len()].copy_from_slice(chunk);
        *byte = gather(u64::from_le_bytes(lane));
    }
    u64::from_be_bytes(bytes)
}

/// Unpacks bytes into bits, most significant bit first.
pub fn unpack_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::new();
    unpack_into(bytes, &mut bits);
    bits
}

/// Packs bits into bytes, most significant bit first.  The last byte is zero-padded if
/// the bit count is not a multiple of 8.
///
/// # Errors
///
/// Returns an error when a sample is not a bit.
pub fn pack_bits(bits: &[u8]) -> Result<Vec<u8>> {
    ensure_bits(bits)?;
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    let tail = pack_into(bits, &mut bytes);
    if !tail.is_empty() {
        let mut lane = [0u8; 8];
        lane[..tail.len()].copy_from_slice(tail);
        pack_into(&lane, &mut bytes);
    }
    Ok(bytes)
}

/// An MSB-first packer that carries a partial byte across calls: bits arrive in
/// slices of any length, and every byte they complete is appended to the caller's
/// buffer.
#[derive(Debug, Clone, Default)]
pub struct PartialByte {
    /// The pending samples, `len` of them, waiting for the rest of their byte.
    lanes: [u8; 8],
    len: usize,
}

impl PartialByte {
    /// An empty carry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs `bits` after the pending ones, appends every completed byte onto `out`
    /// and keeps the rest.  Each sample contributes its low bit.
    pub fn pack(&mut self, bits: &[u8], out: &mut Vec<u8>) {
        let mut rest = bits;
        if self.len > 0 {
            let take = rest.len().min(8 - self.len);
            self.lanes[self.len..self.len + take].copy_from_slice(&rest[..take]);
            self.len += take;
            rest = &rest[take..];
            if self.len < 8 {
                return;
            }
            pack_into(&self.lanes, out);
        }
        let tail = pack_into(rest, out);
        self.lanes[..tail.len()].copy_from_slice(tail);
        self.len = tail.len();
    }

    /// Number of pending bits (0..8).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bit is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Number of ones in the sequence.
///
/// # Errors
///
/// Returns an error when a sample is not a bit.
pub fn count_ones(bits: &[u8]) -> Result<usize> {
    ensure_bits(bits)?;
    Ok(bits.iter().map(|&b| b as usize).sum())
}

/// Interprets consecutive non-overlapping `width`-bit blocks as unsigned integers
/// (most significant bit first).  A trailing partial block is discarded.
///
/// # Errors
///
/// Returns an error when `width` is 0 or larger than 32, or a sample is not a bit.
pub fn blocks_as_integers(bits: &[u8], width: usize) -> Result<Vec<u32>> {
    ensure_bits(bits)?;
    if width == 0 || width > 32 {
        return Err(AisError::InvalidParameter {
            name: "width",
            reason: format!("block width must be in 1..=32, got {width}"),
        });
    }
    Ok(bits
        .chunks_exact(width)
        .map(|chunk| chunk.iter().fold(0u32, |acc, &b| (acc << 1) | b as u32))
        .collect())
}

/// Lengths of the maximal runs (of either value) in the sequence.
///
/// # Errors
///
/// Returns an error when a sample is not a bit.
pub fn run_lengths(bits: &[u8]) -> Result<Vec<usize>> {
    ensure_bits(bits)?;
    let mut runs = Vec::new();
    let mut iter = bits.iter();
    let mut current = match iter.next() {
        Some(&b) => b,
        None => return Ok(runs),
    };
    let mut len = 1usize;
    for &b in iter {
        if b == current {
            len += 1;
        } else {
            runs.push(len);
            current = b;
            len = 1;
        }
    }
    runs.push(len);
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-bit MSB-first packing loop the word kernel replaced (low bit of each
    /// sample, last byte zero-padded).
    fn pack_per_bit(bits: &[u8]) -> Vec<u8> {
        bits.chunks(8)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u8, |byte, (i, &bit)| byte | (bit & 1) << (7 - i))
            })
            .collect()
    }

    /// The per-bit MSB-first unpacking loop the word kernel replaced.
    fn unpack_per_bit(bytes: &[u8]) -> Vec<u8> {
        let mut bits = Vec::with_capacity(bytes.len() * 8);
        for &byte in bytes {
            for shift in (0..8).rev() {
                bits.push((byte >> shift) & 1);
            }
        }
        bits
    }

    #[test]
    fn gather_and_scatter_match_the_per_bit_loops_on_every_byte() {
        for byte in 0..=255u8 {
            let bits = unpack_per_bit(&[byte]);
            assert_eq!(
                scatter(byte).to_le_bytes().to_vec(),
                bits,
                "byte {byte:#04x}"
            );
            assert_eq!(gather(lanes(&bits)), byte);
            // Only the low bit of a lane counts.
            let noisy: Vec<u8> = bits.iter().map(|&bit| bit | 0xa4).collect();
            assert_eq!(gather(lanes(&noisy)), byte);
        }
    }

    #[test]
    fn first_non_bit_finds_every_position_and_value() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 200] {
            for index in 0..len {
                for value in [2u8, 3, 0x80, 0xff] {
                    let mut bits = vec![1u8; len];
                    bits[index] = value;
                    // A second offender later must not mask the first.
                    if index + 3 < len {
                        bits[index + 3] = 7;
                    }
                    assert_eq!(first_non_bit(&bits), Some(index));
                    assert_eq!(
                        ensure_bits(&bits).unwrap_err(),
                        AisError::NotABit { index, value }
                    );
                }
            }
            assert_eq!(first_non_bit(&vec![0u8; len]), None);
        }
    }

    #[test]
    fn bit_validation() {
        assert!(ensure_bits(&[0, 1, 1, 0]).is_ok());
        assert_eq!(
            ensure_bits(&[0, 2]).unwrap_err(),
            AisError::NotABit { index: 1, value: 2 }
        );
        assert!(ensure_bit_len(&[0, 1], 3).is_err());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let bytes = vec![0b1010_1100, 0b0001_1111, 0xff, 0x00];
        let bits = unpack_bytes(&bytes);
        assert_eq!(bits.len(), 32);
        assert_eq!(&bits[..8], &[1, 0, 1, 0, 1, 1, 0, 0]);
        let packed = pack_bits(&bits).unwrap();
        assert_eq!(packed, bytes);
    }

    #[test]
    fn pack_pads_partial_bytes() {
        let packed = pack_bits(&[1, 1, 1]).unwrap();
        assert_eq!(packed, vec![0b1110_0000]);
    }

    #[test]
    fn from_bools_and_count_ones() {
        let bits = from_bools(&[true, false, true, true]);
        assert_eq!(bits, vec![1, 0, 1, 1]);
        assert_eq!(count_ones(&bits).unwrap(), 3);
        assert!(count_ones(&[3]).is_err());
    }

    #[test]
    fn blocks_as_integers_msb_first() {
        let bits = [1, 0, 1, 1, 0, 0, 0, 1, 1]; // trailing bit discarded for width 4
        let blocks = blocks_as_integers(&bits, 4).unwrap();
        assert_eq!(blocks, vec![0b1011, 0b0001]);
        assert!(blocks_as_integers(&bits, 0).is_err());
        assert!(blocks_as_integers(&bits, 33).is_err());
    }

    #[test]
    fn run_lengths_cover_the_sequence() {
        let runs = run_lengths(&[0, 0, 1, 1, 1, 0, 1]).unwrap();
        assert_eq!(runs, vec![2, 3, 1, 1]);
        assert_eq!(run_lengths(&[]).unwrap(), Vec::<usize>::new());
        assert_eq!(run_lengths(&[1]).unwrap(), vec![1]);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn pack_unpack_identity(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
                let bits = unpack_bytes(&bytes);
                let packed = pack_bits(&bits).unwrap();
                prop_assert_eq!(packed, bytes);
            }

            #[test]
            fn pack_kernels_match_the_per_bit_loops(
                bits in proptest::collection::vec(0u8..=1, 0..300),
                bytes in proptest::collection::vec(0u8..=255, 0..40),
            ) {
                prop_assert_eq!(pack_bits(&bits).unwrap(), pack_per_bit(&bits));
                prop_assert_eq!(unpack_bytes(&bytes), unpack_per_bit(&bytes));
                let word_len = bits.len().min(64);
                let mut expected = [0u8; 8];
                for (byte, packed) in expected.iter_mut().zip(pack_per_bit(&bits[..word_len])) {
                    *byte = packed;
                }
                prop_assert_eq!(pack_word(&bits[..word_len]), u64::from_be_bytes(expected));
            }

            #[test]
            fn ensure_bits_reports_the_first_offender(
                bits in proptest::collection::vec(0u8..=1, 0..300),
                planted in proptest::collection::vec(0usize..300, 0..4),
                values in proptest::collection::vec(2u8..=255, 4),
            ) {
                let mut bits = bits.clone();
                for (&index, &value) in planted.iter().zip(&values) {
                    if index < bits.len() {
                        bits[index] = value;
                    }
                }
                let expected = bits.iter().position(|&value| value > 1);
                prop_assert_eq!(first_non_bit(&bits), expected);
                let error = expected.map(|index| AisError::NotABit { index, value: bits[index] });
                prop_assert_eq!(ensure_bits(&bits).err(), error.clone());
                prop_assert_eq!(pack_bits(&bits).err(), error);
            }

            #[test]
            fn partial_byte_packs_any_split_like_one_call(
                bits in proptest::collection::vec(0u8..=255, 0..300),
                cuts in proptest::collection::vec(0usize..300, 0..6),
            ) {
                let mut cuts: Vec<usize> =
                    cuts.iter().copied().filter(|&cut| cut <= bits.len()).collect();
                cuts.sort_unstable();
                let mut carry = PartialByte::new();
                let mut packed = Vec::new();
                let mut from = 0;
                for cut in cuts.into_iter().chain([bits.len()]) {
                    carry.pack(&bits[from..cut], &mut packed);
                    from = cut;
                    prop_assert_eq!(packed.len() * 8 + carry.len(), cut);
                }
                let whole = bits.len() / 8 * 8;
                prop_assert_eq!(packed, pack_per_bit(&bits[..whole]));
                prop_assert_eq!(carry.len(), bits.len() - whole);
            }

            #[test]
            fn run_lengths_sum_to_length(bits in proptest::collection::vec(0u8..=1, 0..256)) {
                let runs = run_lengths(&bits).unwrap();
                prop_assert_eq!(runs.iter().sum::<usize>(), bits.len());
            }
        }
    }
}
