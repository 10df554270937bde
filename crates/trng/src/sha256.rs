//! SHA-256 (FIPS 180-4), hand-rolled for the vetted conditioning stage.
//!
//! The container building this workspace has no registry access, so the SP 800-90B
//! §3.1.5 vetted conditioner cannot pull in a crypto crate; this module implements
//! the full FIPS 180-4 algorithm (padding, message schedule, compression) and is
//! tested against the FIPS 180-4 / NIST CAVS example vectors.  The implementation
//! favours clarity over speed — the streaming [`Sha256::update`] path compresses
//! one 64-byte block at a time with no allocation, which is already far faster
//! than the simulated entropy sources feeding it.

/// FIPS 180-4 §4.2.2 round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// FIPS 180-4 §5.3.3 initial hash value: the first 32 bits of the fractional parts
/// of the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Digest size in bytes.
pub const DIGEST_BYTES: usize = 32;

/// Digest size in bits (the conditioner's output block width and, being an
/// unkeyed hash, also its narrowest internal width for SP 800-90B accounting).
pub const DIGEST_BITS: usize = 256;

/// Compression block size in bytes (512 bits).
pub const BLOCK_BYTES: usize = 64;

/// The FIPS 180-4 §5.3.3 initial hash value, exposed for single-block callers.
///
/// [`crate::drbg`]'s Hashgen loop hashes millions of identically-padded one-block
/// messages; seeding a state with `INITIAL_STATE` and calling [`compress_block`]
/// once skips the per-message buffer and padding work of the streaming hasher.
pub const INITIAL_STATE: [u32; 8] = H0;

/// FIPS 180-4 §6.2.2 compression of one already-padded 512-bit block into `state`.
///
/// This is the single-block fast path behind [`Sha256`]: a message of at most
/// 55 bytes pads to exactly one block (`msg || 0x80 || zeros || bit-length`), so
/// callers that hash many same-length short messages can build the padded block
/// once, mutate the message bytes in place and re-compress from [`INITIAL_STATE`].
pub fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
    let mut w = [0u32; 64];
    for (t, chunk) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Incremental SHA-256 state: feed bytes with [`Sha256::update`], extract the
/// digest with [`Sha256::finalize`] or — to reuse the state for the next message
/// without reallocation — [`Sha256::finalize_reset`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: [u8; BLOCK_BYTES],
    block_len: usize,
    total_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            block: [0; BLOCK_BYTES],
            block_len: 0,
            total_bytes: 0,
        }
    }

    /// Absorbs `data` into the running hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_bytes += data.len() as u64;
        let mut rest = data;
        if self.block_len > 0 {
            let take = rest.len().min(BLOCK_BYTES - self.block_len);
            self.block[self.block_len..self.block_len + take].copy_from_slice(&rest[..take]);
            self.block_len += take;
            rest = &rest[take..];
            if self.block_len < BLOCK_BYTES {
                // The buffered block is still partial (rest is exhausted); falling
                // through would overwrite it with the empty remainder.
                return;
            }
            let block = self.block;
            self.compress(&block);
            self.block_len = 0;
        }
        let mut chunks = rest.chunks_exact(BLOCK_BYTES);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().expect("a whole block"));
        }
        let tail = chunks.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
        self.block_len = tail.len();
    }

    /// Pads, compresses the final block(s) and returns the digest, consuming the
    /// hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        self.finalize_reset()
    }

    /// Like [`Sha256::finalize`], but resets the hasher to the initial state so it
    /// can absorb the next message — the streaming conditioner's steady-state path.
    pub fn finalize_reset(&mut self) -> [u8; DIGEST_BYTES] {
        let bit_len = self.total_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit length,
        // written into the block buffer at once.  The length needs the last 8 bytes,
        // so a message ending past byte 55 of its block pads into a second block.
        let mut block = self.block;
        block[self.block_len] = 0x80;
        block[self.block_len + 1..].fill(0);
        if self.block_len >= BLOCK_BYTES - 8 {
            self.compress(&block);
            block = [0; BLOCK_BYTES];
        }
        block[BLOCK_BYTES - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut digest = [0u8; DIGEST_BYTES];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        self.state = H0;
        self.block_len = 0;
        self.total_bytes = 0;
        digest
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// FIPS 180-4 §6.2.2 compression of one 512-bit block.
    fn compress(&mut self, block: &[u8; BLOCK_BYTES]) {
        compress_block(&mut self.state, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-4 / NIST CAVS example vectors.
    #[test]
    fn fips_180_4_vectors() {
        let cases: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (message, expected) in cases {
            assert_eq!(
                hex(&Sha256::digest(message)),
                expected,
                "message {message:?}"
            );
        }
    }

    /// FIPS 180-4 long-message vector: one million repetitions of `a`.
    #[test]
    fn fips_180_4_million_a() {
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(
            hex(&hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_for_every_split() {
        let message: Vec<u8> = (0u16..257).map(|i| (i % 251) as u8).collect();
        let reference = Sha256::digest(&message);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 200, message.len()] {
            let mut hasher = Sha256::new();
            hasher.update(&message[..split]);
            hasher.update(&message[split..]);
            assert_eq!(hasher.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn single_block_fast_path_matches_streaming() {
        // 55 bytes is the longest message that pads to exactly one block — the
        // shape the DRBG Hashgen loop compresses millions of times.
        let message: Vec<u8> = (0..55u8).map(|i| i ^ 0x5a).collect();
        let mut block = [0u8; BLOCK_BYTES];
        block[..55].copy_from_slice(&message);
        block[55] = 0x80;
        block[56..].copy_from_slice(&(55u64 * 8).to_be_bytes());
        let mut state = INITIAL_STATE;
        compress_block(&mut state, &block);
        let mut digest = [0u8; DIGEST_BYTES];
        for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        assert_eq!(digest, Sha256::digest(&message));
    }

    #[test]
    fn one_step_padding_matches_byte_by_byte_padding() {
        // The padding as FIPS 180-4 §5.1.1 spells it, one byte at a time, around
        // every block boundary (one or two final compressions).
        let by_bytes = |message: &[u8]| {
            let mut hasher = Sha256::new();
            hasher.update(message);
            let bit_len = (message.len() as u64) * 8;
            hasher.update(&[0x80]);
            while hasher.block_len != 56 {
                hasher.update(&[0x00]);
            }
            hasher.update(&bit_len.to_be_bytes());
            assert_eq!(hasher.block_len, 0);
            let mut digest = [0u8; DIGEST_BYTES];
            for (chunk, word) in digest.chunks_exact_mut(4).zip(hasher.state) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
            digest
        };
        let message: Vec<u8> = (0..200u32).map(|i| (i * 37 % 256) as u8).collect();
        for len in 0..=message.len() {
            assert_eq!(
                Sha256::digest(&message[..len]),
                by_bytes(&message[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn finalize_reset_starts_a_fresh_message() {
        let mut hasher = Sha256::new();
        hasher.update(b"abc");
        let first = hasher.finalize_reset();
        assert_eq!(first, Sha256::digest(b"abc"));
        hasher.update(b"abc");
        assert_eq!(hasher.finalize_reset(), first);
        // And an interleaved different message is unaffected by the history.
        hasher.update(b"");
        assert_eq!(hasher.finalize_reset(), Sha256::digest(b""));
    }
}
