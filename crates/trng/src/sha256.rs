//! SHA-256 (FIPS 180-4), hand-rolled for the vetted conditioning stage and the DRBG.
//!
//! The container building this workspace has no registry access, so the SP 800-90B
//! §3.1.5 vetted conditioner cannot pull in a crypto crate; this module implements
//! the full FIPS 180-4 algorithm (padding, message schedule, compression) and is
//! tested against the FIPS 180-4 / NIST CAVS example vectors.
//!
//! The compression runs on one of two kernels, picked once per process by
//! [`kernel`]:
//!
//! * `"sha-ni"` — the x86 SHA extensions (`sha256rnds2`, `sha256msg1/2`), on an
//!   x86-64 CPU that reports them: about six times the scalar rate.  The kernel is
//!   a `#[target_feature]` function built only from safe intrinsics; the call
//!   after the run-time feature check is this crate's one `unsafe` block;
//! * `"scalar"` — the FIPS 180-4 §6.2.2 rounds in plain Rust: the only path on
//!   other CPUs, and the reference the SHA-NI kernel is tested against.
//!
//! Both kernels compute the same function, so the choice never moves a byte; no
//! flag or environment variable picks one.  The `/random` tier is bound by this
//! compression, so `/metrics` names the kernel in `ptrng_sha256_kernel_info`.

use std::sync::OnceLock;

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
/// It runs on the kernel [`kernel`] names.
pub fn compress_block(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni() {
        // SAFETY: `sha_ni()` is true only after `is_x86_feature_detected!`
        // confirmed every feature `sha_ni::compress` is compiled for (sha, sse2,
        // ssse3, sse4.1) on this CPU; the kernel itself takes only references.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress(state, block);
        }
        return;
    }
    compress_scalar(state, block);
}

/// The name of the compression kernel this process runs: `"sha-ni"` or
/// `"scalar"` (see the module documentation).
pub fn kernel() -> &'static str {
    if sha_ni() {
        "sha-ni"
    } else {
        "scalar"
    }
}

/// Whether this CPU runs the SHA-NI kernel, detected once per process.
fn sha_ni() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    })
}

/// The big-endian digest bytes of a compression state (FIPS 180-4 §6.2.2 step 4).
pub fn digest_bytes(state: &[u32; 8]) -> [u8; DIGEST_BYTES] {
    let mut digest = [0u8; DIGEST_BYTES];
    for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// The scalar compression kernel: FIPS 180-4 §6.2.2 as written.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
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

/// The SHA-NI compression kernel, on the state layout of Intel's reference code:
/// the eight working variables live as two lane vectors, ABEF and CDGH, that
/// `sha256rnds2` advances two rounds at a time, while `sha256msg1`/`sha256msg2`
/// extend the message schedule four words at a time.
///
/// Every intrinsic here is a safe function inside a function compiled for its
/// features; bytes move in and out through 64-bit lanes (`_mm_set_epi64x`,
/// `_mm_extract_epi64`), so the kernel takes no raw pointers.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi64, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };

    use super::{BLOCK_BYTES, K};

    /// Compresses `block` into `state`; equal to [`super::compress_scalar`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
        // `pshufb` mask that byte-swaps every 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let pair = |lo: u32, hi: u32| (u64::from(hi) << 32 | u64::from(lo)) as i64;
        let dcba = _mm_set_epi64x(pair(state[2], state[3]), pair(state[0], state[1]));
        let hgfe = _mm_set_epi64x(pair(state[6], state[7]), pair(state[4], state[5]));
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // Message words 4j..4j+4 of the block, one vector per j, as a ring of
        // four: group j ≥ 4 replaces group j − 4.
        let (bytes, _) = block.as_chunks::<8>();
        let mut w = [_mm_set_epi64x(0, 0); 4];
        for (j, slot) in w.iter_mut().enumerate() {
            let lo = u64::from_le_bytes(bytes[2 * j]) as i64;
            let hi = u64::from_le_bytes(bytes[2 * j + 1]) as i64;
            *slot = _mm_shuffle_epi8(_mm_set_epi64x(hi, lo), bswap);
        }
        for group in 0..16 {
            if group >= 4 {
                w[group % 4] = schedule(
                    w[group % 4],
                    w[(group + 1) % 4],
                    w[(group + 2) % 4],
                    w[(group + 3) % 4],
                );
            }
            let k = &K[4 * group..4 * group + 4];
            let wk = _mm_add_epi32(
                w[group % 4],
                _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        let lanes = [
            _mm_extract_epi64::<0>(dcba),
            _mm_extract_epi64::<1>(dcba),
            _mm_extract_epi64::<0>(hgef),
            _mm_extract_epi64::<1>(hgef),
        ];
        for (words, lane) in state.as_chunks_mut::<2>().0.iter_mut().zip(lanes) {
            let lane = lane as u64;
            *words = [lane as u32, (lane >> 32) as u32];
        }
    }

    /// The next four schedule words from the previous sixteen
    /// (`W[t−16..t−12]`, …, `W[t−4..t]`).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let t7 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, t7), w3)
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
            compress_block(&mut self.state, &self.block);
            self.block_len = 0;
        }
        let mut chunks = rest.chunks_exact(BLOCK_BYTES);
        for chunk in &mut chunks {
            compress_block(&mut self.state, chunk.try_into().expect("a whole block"));
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
            compress_block(&mut self.state, &block);
            block = [0; BLOCK_BYTES];
        }
        block[BLOCK_BYTES - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress_block(&mut self.state, &block);
        let digest = digest_bytes(&self.state);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One-shot digest of `message` padded in full (FIPS 180-4 §5.1.1) and
    /// compressed block by block with `compress`.
    fn digest_with(
        compress: fn(&mut [u32; 8], &[u8; BLOCK_BYTES]),
        message: &[u8],
    ) -> [u8; DIGEST_BYTES] {
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_BYTES != BLOCK_BYTES - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(message.len() as u64 * 8).to_be_bytes());
        let mut state = INITIAL_STATE;
        for block in padded.chunks_exact(BLOCK_BYTES) {
            compress(&mut state, block.try_into().expect("a whole block"));
        }
        digest_bytes(&state)
    }

    /// Checks `message` against `expected` through the streaming hasher, the
    /// scalar kernel and the dispatched kernel.
    fn check_every_path(message: &[u8], expected: &str) {
        assert_eq!(hex(&Sha256::digest(message)), expected, "streaming");
        assert_eq!(
            hex(&digest_with(compress_scalar, message)),
            expected,
            "compress_scalar"
        );
        assert_eq!(
            hex(&digest_with(compress_block, message)),
            expected,
            "compress_block on the {} kernel",
            kernel()
        );
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
            check_every_path(message, expected);
        }
    }

    /// FIPS 180-4 long-message vector: one million repetitions of `a`.
    #[test]
    fn fips_180_4_million_a() {
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(hex(&hasher.finalize()), expected, "chunked streaming");
        check_every_path(&[b'a'; 1_000_000], expected);
    }

    #[test]
    fn the_kernel_is_sha_ni_exactly_when_the_cpu_reports_it() {
        #[cfg(target_arch = "x86_64")]
        let sha_ni = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let sha_ni = false;
        assert_eq!(kernel(), if sha_ni { "sha-ni" } else { "scalar" });
    }

    mod property {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any state and any block: the dispatched kernel and the scalar
            /// reference compress to the same state.
            #[test]
            fn kernels_agree_on_random_states_and_blocks(
                words in proptest::collection::vec(0u32..=u32::MAX, 8),
                bytes in proptest::collection::vec(0u8..=u8::MAX, BLOCK_BYTES),
            ) {
                let mut dispatched: [u32; 8] = words.as_slice().try_into().expect("eight words");
                let mut scalar = dispatched;
                let block: &[u8; BLOCK_BYTES] = bytes.as_slice().try_into().expect("one block");
                compress_block(&mut dispatched, block);
                compress_scalar(&mut scalar, block);
                prop_assert_eq!(dispatched, scalar);
            }
        }
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
        assert_eq!(digest_bytes(&state), Sha256::digest(&message));
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
            digest_bytes(&hasher.state)
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
