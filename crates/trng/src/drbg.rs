//! SP 800-90A §10.1 Hash_DRBG over the in-tree FIPS 180-4 SHA-256.
//!
//! The physical source tops out orders of magnitude below serving demand, so the
//! engine decouples the two the way SP 800-90C sketches: a slow **full-entropy**
//! stream seeds a deterministic bit generator whose output rate is bounded only
//! by the hash.  This module is the mechanism half of that split — the
//! *instantiate / reseed / generate* state machine of SP 800-90A §10.1.1,
//! hand-rolled and std-only like the rest of the workspace.  The policy half
//! (how many ledger-accounted bits a seed must carry, when a reseed is due, and
//! what happens when the source cannot fund one) lives in the engine's
//! `ExpandedTap`, which owns a [`HashDrbg`] and feeds it conditioned output.
//!
//! Spec mapping (SP 800-90A, SHA-256 instantiation):
//!
//! * `seedlen` = 440 bits ([`SEEDLEN_BYTES`]), working state `V`, `C` and
//!   `reseed_counter` ([`HashDrbg`]);
//! * `Hash_df` (§10.3.1) derives seeds ([`HashDrbg::instantiate`],
//!   [`HashDrbg::reseed`]);
//! * `Generate` (§10.1.1.4) runs in two parts: [`HashDrbg::reserve`] checks the
//!   counters, folds in the additional input, copies `V` into a [`Hashgen`] job
//!   and advances the state (steps 4–6 read only that `V`, never the output),
//!   then [`Hashgen::fill`] writes the bytes.  [`HashDrbg::generate`] is the two
//!   in a row; a caller that shares one DRBG between threads reserves under its
//!   lock and fills after releasing it, so the hashing runs in parallel;
//! * `Hashgen` expands output one digest per 32 bytes — a 55-byte message pads
//!   to exactly one SHA-256 block, so the hot loop is a single
//!   [`crate::sha256::compress_block`] per 32 output bytes;
//! * per-request cap 2^19 bits ([`MAX_REQUEST_BYTES`]) and the reseed interval
//!   (≤ 2^48, [`MAX_RESEED_INTERVAL`]) are enforced, not advisory;
//! * uninstantiate zeroizes the working state ([`HashDrbg::uninstantiate`],
//!   also on drop), and a [`Hashgen`] job zeroizes its copy of `V` on drop.
//!
//! Known-answer coverage lives in `tests/drbg_vectors.rs` against DRBGVS-format
//! vector files under `tests/data/drbg/`.
//!
//! # Example
//!
//! ```
//! use ptrng_trng::drbg::HashDrbg;
//!
//! # fn main() -> Result<(), ptrng_trng::drbg::DrbgError> {
//! let entropy = [0x5a; 32]; // ≥ 256 bits of accounted entropy in deployment
//! let nonce = [0xa5; 16];
//! let mut drbg = HashDrbg::instantiate(&entropy, &nonce, b"example")?;
//! let mut out = [0u8; 64];
//! drbg.generate(&mut out, &[])?;
//! assert_ne!(out, [0u8; 64]);
//! drbg.uninstantiate();
//! # Ok(())
//! # }
//! ```

use thiserror::Error;

use crate::sha256::{
    compress_block, digest_bytes, Sha256, BLOCK_BYTES, DIGEST_BYTES, INITIAL_STATE,
};

/// `seedlen` for the SHA-256 instantiation: 440 bits (SP 800-90A Table 2).
pub const SEEDLEN_BYTES: usize = 55;

/// Per-request output cap: 2^19 bits (SP 800-90A Table 2), in bytes.
pub const MAX_REQUEST_BYTES: usize = (1 << 19) / 8;

/// Largest admissible `reseed_interval`: 2^48 generate calls (SP 800-90A Table 2).
pub const MAX_RESEED_INTERVAL: u64 = 1 << 48;

/// Security strength of the SHA-256 instantiation, in bits.
pub const SECURITY_STRENGTH_BITS: usize = 256;

/// Minimum entropy-input length: the security strength (§8.6.7), in bytes.
pub const MIN_ENTROPY_INPUT_BYTES: usize = SECURITY_STRENGTH_BITS / 8;

/// Minimum instantiation-nonce length: half the security strength (§8.6.7), in bytes.
pub const MIN_NONCE_BYTES: usize = SECURITY_STRENGTH_BITS / 16;

/// Errors of the Hash_DRBG state machine.
///
/// `ReseedRequired` is the one callers must treat as control flow, not failure:
/// the generator refuses to run past its reseed interval and the owner must fund
/// a [`HashDrbg::reseed`] with fresh accounted entropy (or give up, which is the
/// engine's `EntropyDeficit` refusal path — never silent degradation).
#[derive(Debug, Clone, PartialEq, Eq, Error)]
#[non_exhaustive]
pub enum DrbgError {
    /// The reseed interval elapsed; `generate` refuses until a reseed lands.
    #[error("reseed required: reseed counter {counter} exceeds the interval {interval}")]
    ReseedRequired {
        /// Current reseed counter (generate calls since the last (re)seed, +1).
        counter: u64,
        /// Configured reseed interval.
        interval: u64,
    },
    /// One generate call asked for more than 2^19 bits.
    #[error(
        "request of {requested} bytes exceeds the 2^19-bit per-request cap \
         ({MAX_REQUEST_BYTES} bytes)"
    )]
    RequestTooLarge {
        /// Bytes asked for in the offending call.
        requested: usize,
    },
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
}

/// SP 800-90A §10.1.1 Hash_DRBG working state (SHA-256, `seedlen` 440).
///
/// Construct with [`HashDrbg::instantiate`]; the state zeroizes on
/// [`HashDrbg::uninstantiate`] and on drop.  The type deliberately implements
/// neither `Clone` (two copies of one DRBG state would silently replay output)
/// nor a state-revealing `Debug`.
pub struct HashDrbg {
    v: [u8; SEEDLEN_BYTES],
    c: [u8; SEEDLEN_BYTES],
    reseed_counter: u64,
    reseed_interval: u64,
}

impl std::fmt::Debug for HashDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // V and C are key material — only the counters are printable.
        f.debug_struct("HashDrbg")
            .field("reseed_counter", &self.reseed_counter)
            .field("reseed_interval", &self.reseed_interval)
            .finish_non_exhaustive()
    }
}

impl HashDrbg {
    /// §10.1.1.2 `Instantiate`: derives `V` and `C` from
    /// `entropy_input || nonce || personalization` via `Hash_df`.
    ///
    /// `entropy_input` must be at least [`MIN_ENTROPY_INPUT_BYTES`] and the nonce
    /// at least [`MIN_NONCE_BYTES`]; the *entropy content* of the input is the
    /// caller's contract (the engine funds it from the ledger).
    pub fn instantiate(
        entropy_input: &[u8],
        nonce: &[u8],
        personalization: &[u8],
    ) -> Result<Self, DrbgError> {
        check_min_len("entropy_input", entropy_input, MIN_ENTROPY_INPUT_BYTES)?;
        check_min_len("nonce", nonce, MIN_NONCE_BYTES)?;
        let mut drbg = Self {
            v: [0; SEEDLEN_BYTES],
            c: [0; SEEDLEN_BYTES],
            reseed_counter: 1,
            reseed_interval: MAX_RESEED_INTERVAL,
        };
        hash_df(&[entropy_input, nonce, personalization], &mut drbg.v);
        hash_df(&[&[0x00], &drbg.v], &mut drbg.c);
        Ok(drbg)
    }

    /// Lowers the reseed interval below the spec maximum (builder-style).
    pub fn with_reseed_interval(mut self, interval: u64) -> Result<Self, DrbgError> {
        if interval == 0 || interval > MAX_RESEED_INTERVAL {
            return Err(DrbgError::InvalidParameter {
                name: "reseed_interval",
                reason: format!("must be in 1..=2^48, got {interval}"),
            });
        }
        self.reseed_interval = interval;
        Ok(self)
    }

    /// §10.1.1.3 `Reseed`: folds fresh entropy (and optional additional input)
    /// into the state and resets the reseed counter.
    pub fn reseed(&mut self, entropy_input: &[u8], additional: &[u8]) -> Result<(), DrbgError> {
        check_min_len("entropy_input", entropy_input, MIN_ENTROPY_INPUT_BYTES)?;
        let mut seed = [0u8; SEEDLEN_BYTES];
        hash_df(&[&[0x01], &self.v, entropy_input, additional], &mut seed);
        self.v = seed;
        hash_df(&[&[0x00], &self.v], &mut self.c);
        self.reseed_counter = 1;
        Ok(())
    }

    /// §10.1.1.4 `Generate`: fills `out` with pseudorandom bytes.
    ///
    /// Equal to [`HashDrbg::reserve`] for `out.len()` bytes followed by
    /// [`Hashgen::fill`].  Refuses with [`DrbgError::RequestTooLarge`] past the
    /// 2^19-bit cap and with [`DrbgError::ReseedRequired`] once the reseed
    /// interval elapses — on that error `out` is untouched and the call may be
    /// retried after [`HashDrbg::reseed`].
    pub fn generate(&mut self, out: &mut [u8], additional: &[u8]) -> Result<(), DrbgError> {
        self.reserve(out.len(), additional)?.fill(out);
        Ok(())
    }

    /// §10.1.1.4 `Generate` without its output: reserves the next `len` bytes
    /// of the stream as a [`Hashgen`] job and advances the working state past
    /// them.
    ///
    /// Runs steps 1–2 (counter checks, additional input), copies `V` into the
    /// job, then steps 4–6: `V = (V + Hash(0x03 || V) + C + reseed_counter)`
    /// and `reseed_counter += 1`.  Those steps read only the copied `V`, never
    /// the output, so jobs may be filled in any order and on any thread; each
    /// yields exactly the bytes its `generate` call would have.  Errors as
    /// [`HashDrbg::generate`], with the state untouched.
    pub fn reserve(&mut self, len: usize, additional: &[u8]) -> Result<Hashgen, DrbgError> {
        if len > MAX_REQUEST_BYTES {
            return Err(DrbgError::RequestTooLarge { requested: len });
        }
        if self.reseed_counter > self.reseed_interval {
            return Err(DrbgError::ReseedRequired {
                counter: self.reseed_counter,
                interval: self.reseed_interval,
            });
        }
        if !additional.is_empty() {
            // w = Hash(0x02 || V || additional_input); V = (V + w) mod 2^seedlen.
            let mut hasher = Sha256::new();
            hasher.update(&[0x02]);
            hasher.update(&self.v);
            hasher.update(additional);
            let w = hasher.finalize();
            add_into(&mut self.v, &w);
        }
        let job = Hashgen::new(&self.v, len);
        // H = Hash(0x03 || V); V = (V + H + C + reseed_counter) mod 2^seedlen.
        let mut hasher = Sha256::new();
        hasher.update(&[0x03]);
        hasher.update(&self.v);
        let h = hasher.finalize();
        add_into(&mut self.v, &h);
        let c = self.c;
        add_into(&mut self.v, &c);
        add_into(&mut self.v, &self.reseed_counter.to_be_bytes());
        self.reseed_counter += 1;
        Ok(job)
    }

    /// Generate calls since the last (re)seed, plus one (§10.1.1 state).
    pub fn reseed_counter(&self) -> u64 {
        self.reseed_counter
    }

    /// Configured reseed interval.
    pub fn reseed_interval(&self) -> u64 {
        self.reseed_interval
    }

    /// §10.1.1 `Uninstantiate`: consumes the generator and zeroizes `V`/`C`.
    ///
    /// Dropping has the same effect; this form makes the intent explicit at the
    /// end of a generator's service life.
    pub fn uninstantiate(self) {
        // Drop does the zeroization.
    }
}

impl Drop for HashDrbg {
    fn drop(&mut self) {
        self.v.fill(0);
        self.c.fill(0);
        self.reseed_counter = 0;
        // Best-effort zeroization without unsafe: the opaque use keeps the
        // compiler from eliding the clearing stores above.
        std::hint::black_box(&mut self.v);
        std::hint::black_box(&mut self.c);
    }
}

/// One reserved `Generate` output: §10.1.1.4 `Hashgen` over the `V` that
/// [`HashDrbg::reserve`] copied, `len` bytes long.
///
/// `out` = leftmost bytes of Hash(data) || Hash(data + 1) || … with data
/// starting at that `V`.  The job holds key material, so like [`HashDrbg`] it
/// implements neither `Clone` (a copy would replay output) nor a
/// state-revealing `Debug`, and it zeroizes its copy of `V` on drop;
/// [`Hashgen::fill`] consumes it, so each reservation is written once.
pub struct Hashgen {
    /// The pre-padded SHA-256 block whose first [`SEEDLEN_BYTES`] bytes are data.
    block: [u8; BLOCK_BYTES],
    len: usize,
}

impl std::fmt::Debug for Hashgen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hashgen")
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl Hashgen {
    /// A job starting at data = `v`.  `data` is always exactly `seedlen` = 55
    /// bytes, which pads to a single SHA-256 block — so the padded block is built
    /// once and only the 55 message bytes are incremented between compressions.
    fn new(v: &[u8; SEEDLEN_BYTES], len: usize) -> Self {
        let mut block = [0u8; BLOCK_BYTES];
        block[..SEEDLEN_BYTES].copy_from_slice(v);
        block[SEEDLEN_BYTES] = 0x80;
        block[SEEDLEN_BYTES + 1..].copy_from_slice(&((SEEDLEN_BYTES as u64) * 8).to_be_bytes());
        Self { block, len }
    }

    /// Writes the reserved bytes into `out`.
    ///
    /// # Panics
    ///
    /// When `out.len()` differs from the reserved length: a longer fill would
    /// pass the per-request cap the reservation checked.
    pub fn fill(mut self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.len,
            "a Hashgen job fills its reserved length"
        );
        for chunk in out.chunks_mut(DIGEST_BYTES) {
            let mut state = INITIAL_STATE;
            compress_block(&mut state, &self.block);
            chunk.copy_from_slice(&digest_bytes(&state)[..chunk.len()]);
            increment_data(&mut self.block);
        }
    }
}

impl Drop for Hashgen {
    fn drop(&mut self) {
        self.block.fill(0);
        // As in `HashDrbg`'s drop: keeps the clearing stores.
        std::hint::black_box(&mut self.block);
    }
}

/// §10.3.1 `Hash_df`: out = leftmost bytes of
/// Hash(1 || bits || input) || Hash(2 || bits || input) || … where `input` is the
/// concatenation of `chunks` and `bits` the 32-bit big-endian output bit count.
fn hash_df(chunks: &[&[u8]], out: &mut [u8]) {
    debug_assert!(out.len() <= 255 * DIGEST_BYTES);
    let bits = (out.len() as u32) * 8;
    let mut hasher = Sha256::new();
    let mut counter: u8 = 1;
    let mut written = 0;
    while written < out.len() {
        hasher.update(&[counter]);
        hasher.update(&bits.to_be_bytes());
        for chunk in chunks {
            hasher.update(chunk);
        }
        let digest = hasher.finalize_reset();
        let take = (out.len() - written).min(DIGEST_BYTES);
        out[written..written + take].copy_from_slice(&digest[..take]);
        written += take;
        counter = counter.wrapping_add(1);
    }
}

/// Big-endian `acc = (acc + addend) mod 2^(8·SEEDLEN_BYTES)`; `addend` is
/// right-aligned (at most `SEEDLEN_BYTES` long).
fn add_into(acc: &mut [u8; SEEDLEN_BYTES], addend: &[u8]) {
    debug_assert!(addend.len() <= SEEDLEN_BYTES);
    let mut carry = 0u16;
    let mut addend_bytes = addend.iter().rev();
    for byte in acc.iter_mut().rev() {
        let sum = *byte as u16 + addend_bytes.next().copied().unwrap_or(0) as u16 + carry;
        *byte = sum as u8;
        carry = sum >> 8;
    }
}

/// Big-endian `data = (data + 1) mod 2^seedlen` over the 55 message bytes of the
/// pre-padded Hashgen block.
fn increment_data(block: &mut [u8; BLOCK_BYTES]) {
    for byte in block[..SEEDLEN_BYTES].iter_mut().rev() {
        let (sum, overflowed) = byte.overflowing_add(1);
        *byte = sum;
        if !overflowed {
            return;
        }
    }
}

fn check_min_len(name: &'static str, value: &[u8], min: usize) -> Result<(), DrbgError> {
    if value.len() < min {
        return Err(DrbgError::InvalidParameter {
            name,
            reason: format!("must be at least {min} bytes, got {}", value.len()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drbg() -> HashDrbg {
        HashDrbg::instantiate(&[0x11; 32], &[0x22; 16], b"unit").expect("valid instantiation")
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        let mut a = drbg();
        let mut b = drbg();
        let mut out_a = [0u8; 80];
        let mut out_b = [0u8; 80];
        a.generate(&mut out_a, &[]).expect("generate");
        b.generate(&mut out_b, &[]).expect("generate");
        assert_eq!(out_a, out_b);
        // The second call continues the stream rather than repeating it.
        a.generate(&mut out_b, &[]).expect("generate");
        assert_ne!(out_a, out_b);
    }

    #[test]
    fn instantiation_inputs_all_matter() {
        let base = drbg();
        let nonce = HashDrbg::instantiate(&[0x11; 32], &[0x23; 16], b"unit").expect("valid");
        let person = HashDrbg::instantiate(&[0x11; 32], &[0x22; 16], b"other").expect("valid");
        let mut outs = Vec::new();
        for mut d in [base, nonce, person] {
            let mut out = [0u8; 32];
            d.generate(&mut out, &[]).expect("generate");
            outs.push(out);
        }
        assert_ne!(outs[0], outs[1]);
        assert_ne!(outs[0], outs[2]);
        assert_ne!(outs[1], outs[2]);
    }

    #[test]
    fn additional_input_perturbs_the_stream() {
        let mut plain = drbg();
        let mut extra = drbg();
        let mut out_plain = [0u8; 32];
        let mut out_extra = [0u8; 32];
        plain.generate(&mut out_plain, &[]).expect("generate");
        extra
            .generate(&mut out_extra, b"additional")
            .expect("generate");
        assert_ne!(out_plain, out_extra);
    }

    #[test]
    fn reseed_resets_the_counter_and_forks_the_stream() {
        let mut reseeded = drbg();
        let mut straight = drbg();
        let mut sink = [0u8; 32];
        reseeded.generate(&mut sink, &[]).expect("generate");
        straight.generate(&mut sink, &[]).expect("generate");
        assert_eq!(reseeded.reseed_counter(), 2);
        reseeded.reseed(&[0x33; 32], &[]).expect("reseed");
        assert_eq!(reseeded.reseed_counter(), 1);
        let mut out_reseeded = [0u8; 32];
        let mut out_straight = [0u8; 32];
        reseeded.generate(&mut out_reseeded, &[]).expect("generate");
        straight.generate(&mut out_straight, &[]).expect("generate");
        assert_ne!(out_reseeded, out_straight);
    }

    #[test]
    fn reseed_interval_is_enforced() {
        let mut d = drbg().with_reseed_interval(2).expect("valid interval");
        let mut out = [0u8; 16];
        d.generate(&mut out, &[]).expect("first");
        d.generate(&mut out, &[]).expect("second");
        let err = d.generate(&mut out, &[]).expect_err("third must refuse");
        assert_eq!(
            err,
            DrbgError::ReseedRequired {
                counter: 3,
                interval: 2
            }
        );
        d.reseed(&[0x44; 32], &[]).expect("reseed");
        d.generate(&mut out, &[])
            .expect("serves again after reseed");
    }

    #[test]
    fn request_cap_is_enforced() {
        let mut d = drbg();
        let mut exact = vec![0u8; MAX_REQUEST_BYTES];
        d.generate(&mut exact, &[]).expect("cap itself is fine");
        let mut over = vec![0u8; MAX_REQUEST_BYTES + 1];
        assert_eq!(
            d.generate(&mut over, &[]).expect_err("over the cap"),
            DrbgError::RequestTooLarge {
                requested: MAX_REQUEST_BYTES + 1
            }
        );
    }

    #[test]
    fn short_inputs_are_rejected() {
        assert!(matches!(
            HashDrbg::instantiate(&[0; 31], &[0; 16], &[]),
            Err(DrbgError::InvalidParameter {
                name: "entropy_input",
                ..
            })
        ));
        assert!(matches!(
            HashDrbg::instantiate(&[0; 32], &[0; 15], &[]),
            Err(DrbgError::InvalidParameter { name: "nonce", .. })
        ));
        let mut d = drbg();
        assert!(d.reseed(&[0; 31], &[]).is_err());
        assert!(drbg().with_reseed_interval(0).is_err());
        assert!(drbg()
            .with_reseed_interval(MAX_RESEED_INTERVAL + 1)
            .is_err());
    }

    #[test]
    fn chunked_draws_match_one_shot() {
        // Hashgen's tail handling: any split of one generate request is a
        // different call pattern, but within one call the bytes must be the
        // leftmost prefix of the same digest stream.
        let mut whole = drbg();
        let mut out = [0u8; 100];
        whole.generate(&mut out, &[]).expect("generate");
        let mut prefix = drbg();
        let mut short = [0u8; 33];
        prefix.generate(&mut short, &[]).expect("generate");
        assert_eq!(short, out[..33]);
    }

    #[test]
    fn jobs_filled_out_of_order_equal_sequential_generates() {
        let mut sequential = drbg();
        let mut first = vec![0u8; 1000];
        let mut second = vec![0u8; 77];
        sequential.generate(&mut first, b"first").expect("generate");
        sequential.generate(&mut second, &[]).expect("generate");

        let mut reserved = drbg();
        let job_one = reserved.reserve(1000, b"first").expect("reserve");
        let job_two = reserved.reserve(77, &[]).expect("reserve");
        let mut second_filled = vec![0u8; 77];
        job_two.fill(&mut second_filled);
        let mut first_filled = vec![0u8; 1000];
        job_one.fill(&mut first_filled);

        assert_eq!(first_filled, first);
        assert_eq!(second_filled, second);
        assert_eq!(reserved.v, sequential.v);
        assert_eq!(reserved.c, sequential.c);
        assert_eq!(reserved.reseed_counter, sequential.reseed_counter);
    }

    #[test]
    fn reserve_refuses_like_generate_and_leaves_the_state() {
        let mut d = drbg().with_reseed_interval(1).expect("valid interval");
        assert!(matches!(
            d.reserve(MAX_REQUEST_BYTES + 1, &[]),
            Err(DrbgError::RequestTooLarge { .. })
        ));
        let v = d.v;
        d.reserve(16, &[]).expect("first").fill(&mut [0u8; 16]);
        assert_ne!(d.v, v);
        let v = d.v;
        assert!(matches!(
            d.reserve(16, b"ignored"),
            Err(DrbgError::ReseedRequired { .. })
        ));
        assert_eq!(d.v, v, "a refused reservation folds in no additional input");
    }

    #[test]
    #[should_panic(expected = "reserved length")]
    fn a_job_fills_only_its_reserved_length() {
        let job = drbg().reserve(32, &[]).expect("reserve");
        job.fill(&mut [0u8; 33]);
    }

    #[test]
    fn debug_does_not_leak_state() {
        let mut d = drbg();
        let printed = format!("{d:?}");
        assert!(printed.contains("reseed_counter"));
        assert!(!printed.contains("v:"), "V must not be printable");
        let job = d.reserve(64, &[]).expect("reserve");
        let printed = format!("{job:?}");
        assert!(printed.contains("len: 64"));
        assert!(
            !printed.contains("block"),
            "the copied V must not be printable"
        );
    }

    #[test]
    fn add_into_carries_across_the_whole_width() {
        let mut acc = [0xffu8; SEEDLEN_BYTES];
        add_into(&mut acc, &[0x01]);
        assert_eq!(acc, [0u8; SEEDLEN_BYTES], "wraps mod 2^440");
        let mut acc = [0u8; SEEDLEN_BYTES];
        add_into(&mut acc, &[0xff; 32]);
        assert_eq!(acc[SEEDLEN_BYTES - 32..], [0xff; 32]);
        assert_eq!(acc[..SEEDLEN_BYTES - 32], [0; 23]);
    }
}
