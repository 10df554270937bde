//! The DRBG expansion tier: [`ExpandedTap`] wraps an [`EntropyTap`] with an
//! SP 800-90A Hash_DRBG whose seeds are funded from the tap's **ledger-accounted**
//! conditioned output.
//!
//! The physical source bounds the full-entropy tier to well under a MB/s on this
//! container; the expansion tier decouples serving throughput from the oscillator
//! by spending accounted entropy only on *seeds* and letting SHA-256 expand them.
//! The paper's never-overclaim discipline extends into this tier through
//! [`DrbgPolicy`], which states the reseed economy in the ledger's own terms:
//!
//! * every (re)seed must carry [`DrbgPolicy::seed_bits_accounted`] bits of
//!   accounted min-entropy.  The seed draw length is sized from the **static**
//!   ledger claim at construction; at (re)seed time the **dynamic** claim (which
//!   follows pool quarantines) must still cover the same bits, or the reseed is
//!   refused with the engine's existing [`EngineError::EntropyDeficit`] — never
//!   silently degraded entropy;
//! * the DRBG never emits more than [`DrbgPolicy::reseed_after_bytes`] of output
//!   on one seed — draws are clamped to the allowance, so the bound is exact,
//!   not chunk-granular;
//! * [`DrbgPolicy::prediction_resistance`] forces a funded reseed before every
//!   generate call (SP 800-90A §9.3.1), trading throughput for backtracking
//!   resistance.
//!
//! Between reseeds the tier deliberately keeps serving while the full-entropy
//! credit dips (e.g. a pool child in quarantine): the bits it emits were funded
//! by a seed that *was* accounted when drawn.  The dip only bites when the next
//! reseed comes due.
//!
//! One mutex guards the DRBG's state machine, not its hashing: a draw takes it
//! to (re)seed when due, reserve one generate call ([`HashDrbg::reserve`]:
//! counter checks and the state advance) and count it, then releases it and
//! runs that call's Hashgen alone, so concurrent drawers (the server's
//! `--threads` workers) hash in parallel.  Each reserved call's bytes go to
//! exactly one drawer, and one drawer's calls fill its buffer in order; a draw
//! longer than one call may interleave its calls with another drawer's.
//!
//! Every (re)seed lands on the consumer-side flight recorder as an
//! [`EventKind::DrbgReseed`](ptrng_obs::EventKind) event (and the `--journal`
//! sink), with its latency on the `ptrng_drbg_reseed_seconds` histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ptrng_trng::drbg::{DrbgError, HashDrbg, Hashgen, MAX_REQUEST_BYTES, MIN_ENTROPY_INPUT_BYTES};

use crate::tap::EntropyTap;
use crate::{EngineError, Result};

/// Default accounted bits per (re)seed: the DRBG's 256-bit security strength
/// plus a 128-bit margin against accounting slack.
pub const DEFAULT_SEED_BITS_ACCOUNTED: u64 = 384;

/// Default DRBG output allowance per seed: 128 MiB.
pub const DEFAULT_RESEED_AFTER_BYTES: u64 = 128 << 20;

/// Nonce length drawn (on top of the seed) at instantiation, in bytes.
const NONCE_BYTES: usize = 16;

/// Relative tolerance of the funding comparison (the static sizing rounds the
/// seed length *up*, so an exactly-healthy claim always funds).
const FUNDING_EPSILON: f64 = 1e-9;

/// Reseed economy of the expansion tier, in the entropy ledger's own terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrbgPolicy {
    /// Accounted min-entropy bits each (re)seed must carry (≥ 256, the SHA-256
    /// instantiation's security strength).
    pub seed_bits_accounted: u64,
    /// DRBG output bytes one seed may fund before a reseed is due (≥ 1).
    pub reseed_after_bytes: u64,
    /// Reseed before *every* generate call (SP 800-90A prediction resistance).
    pub prediction_resistance: bool,
}

impl Default for DrbgPolicy {
    fn default() -> Self {
        Self {
            seed_bits_accounted: DEFAULT_SEED_BITS_ACCOUNTED,
            reseed_after_bytes: DEFAULT_RESEED_AFTER_BYTES,
            prediction_resistance: false,
        }
    }
}

impl DrbgPolicy {
    fn validate(&self) -> Result<()> {
        if self.seed_bits_accounted < (MIN_ENTROPY_INPUT_BYTES * 8) as u64 {
            return Err(EngineError::InvalidParameter {
                name: "seed_bits_accounted",
                reason: format!(
                    "must cover the DRBG security strength ({} bits), got {}",
                    MIN_ENTROPY_INPUT_BYTES * 8,
                    self.seed_bits_accounted
                ),
            });
        }
        if self.reseed_after_bytes == 0 {
            return Err(EngineError::InvalidParameter {
                name: "reseed_after_bytes",
                reason: "must be at least 1 byte of output per seed".to_string(),
            });
        }
        Ok(())
    }
}

/// Point-in-time counters of one [`ExpandedTap`], exported as the
/// `ptrng_drbg_*` Prometheus families and the bench `drbg` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrbgSnapshot {
    /// Completed DRBG generate calls.
    pub generates: u64,
    /// Completed (re)seeds, the instantiation included.
    pub reseeds: u64,
    /// Total expanded output bytes.
    pub bytes_total: u64,
    /// Output bytes emitted on the current seed.
    pub bytes_since_reseed: u64,
    /// Total accounted min-entropy bits debited from the ledger for seeds.
    pub seed_bits_debited: u64,
    /// Wall-clock nanoseconds of the most recent (re)seed (0 before the first).
    pub last_reseed_ns: u64,
}

struct Expansion {
    drbg: Option<HashDrbg>,
}

/// A DRBG-expanded view of an [`EntropyTap`]: the `/random` product tier.
///
/// Unlike the tap's short-count contract, [`ExpandedTap::draw`] either fills
/// the whole buffer or fails — partial pseudorandom output has no use, and the
/// failure modes (unfundable reseed, ended stream) are policy refusals, not
/// backpressure.
pub struct ExpandedTap {
    tap: EntropyTap,
    policy: DrbgPolicy,
    /// Entropy-input bytes drawn per (re)seed, sized from the static ledger.
    seed_draw_bytes: usize,
    /// Dynamic per-bit claim below which a reseed can no longer be funded.
    required_h_per_bit: f64,
    /// The DRBG state machine; held to reseed and reserve, never to hash.
    inner: Mutex<Expansion>,
    generates: AtomicU64,
    reseeds: AtomicU64,
    bytes_total: AtomicU64,
    bytes_since_reseed: AtomicU64,
    seed_bits_debited: AtomicU64,
    last_reseed_ns: AtomicU64,
}

impl std::fmt::Debug for ExpandedTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpandedTap")
            .field("policy", &self.policy)
            .field("seed_draw_bytes", &self.seed_draw_bytes)
            .field("snapshot", &self.snapshot())
            .finish_non_exhaustive()
    }
}

impl ExpandedTap {
    /// Wraps `tap` under `policy`.
    ///
    /// The seed draw length is fixed here from the tap's **static** ledger:
    /// enough conditioned bytes that their accounted min-entropy covers
    /// `policy.seed_bits_accounted` (never less than the DRBG's 32-byte
    /// minimum entropy input).  Instantiation itself is lazy — the first
    /// [`ExpandedTap::draw`] funds it — so construction cannot consume entropy
    /// that is never served.
    pub fn new(tap: EntropyTap, policy: DrbgPolicy) -> Result<Self> {
        policy.validate()?;
        let h_static = tap.ledger().min_entropy_per_bit();
        let seed_bits = policy.seed_bits_accounted as f64;
        let seed_draw_bytes =
            ((seed_bits / (8.0 * h_static)).ceil() as usize).max(MIN_ENTROPY_INPUT_BYTES);
        let required_h_per_bit = seed_bits / (8.0 * seed_draw_bytes as f64);
        Ok(Self {
            tap,
            policy,
            seed_draw_bytes,
            required_h_per_bit,
            inner: Mutex::new(Expansion { drbg: None }),
            generates: AtomicU64::new(0),
            reseeds: AtomicU64::new(0),
            bytes_total: AtomicU64::new(0),
            bytes_since_reseed: AtomicU64::new(0),
            seed_bits_debited: AtomicU64::new(0),
            last_reseed_ns: AtomicU64::new(0),
        })
    }

    /// The wrapped full-entropy tap.
    pub fn tap(&self) -> &EntropyTap {
        &self.tap
    }

    /// Current counters.
    pub fn snapshot(&self) -> DrbgSnapshot {
        DrbgSnapshot {
            generates: self.generates.load(Ordering::Relaxed),
            reseeds: self.reseeds.load(Ordering::Relaxed),
            bytes_total: self.bytes_total.load(Ordering::Relaxed),
            bytes_since_reseed: self.bytes_since_reseed.load(Ordering::Relaxed),
            seed_bits_debited: self.seed_bits_debited.load(Ordering::Relaxed),
            last_reseed_ns: self.last_reseed_ns.load(Ordering::Relaxed),
        }
    }

    /// Fills `out` with DRBG-expanded bytes, (re)seeding as the policy demands.
    ///
    /// # Errors
    /// [`EngineError::EntropyDeficit`] when a due reseed cannot be funded by the
    /// currently accounted claim (the ledger rides along, exactly like the
    /// full-entropy refusal), [`EngineError::SourceFault`] when the underlying
    /// stream ends mid-seed.  On error `out` may be partially overwritten but
    /// nothing unaccounted was ever *emitted* as valid output.
    pub fn draw(&self, out: &mut [u8]) -> Result<()> {
        let mut offset = 0;
        while offset < out.len() {
            let (job, len) = self.reserve(out.len() - offset)?;
            job.fill(&mut out[offset..offset + len]);
            offset += len;
        }
        Ok(())
    }

    /// Under the lock: (re)seeds if the policy demands it, reserves the next
    /// generate call — `wanted` bytes clamped to the request cap and the seed's
    /// remaining allowance — and counts it.  The caller fills the returned job
    /// after the lock is released.
    fn reserve(&self, wanted: usize) -> Result<(Hashgen, usize)> {
        let mut inner = self.inner.lock().expect("expanded tap lock poisoned");
        self.ensure_seeded(&mut inner)?;
        let since = self.bytes_since_reseed.load(Ordering::Relaxed);
        let allowance = self.policy.reseed_after_bytes.saturating_sub(since);
        let len = wanted.min(MAX_REQUEST_BYTES).min(allowance as usize);
        let drbg = inner.drbg.as_mut().expect("seeded above");
        let job = drbg.reserve(len, &[]).map_err(|e| drbg_fault(&e))?;
        self.generates.fetch_add(1, Ordering::Relaxed);
        self.bytes_total.fetch_add(len as u64, Ordering::Relaxed);
        self.bytes_since_reseed
            .fetch_add(len as u64, Ordering::Relaxed);
        Ok((job, len))
    }

    /// Forces a funded reseed now, regardless of the allowance (operational
    /// hygiene after suspected compromise, and the bench's latency probe).
    pub fn reseed_now(&self) -> Result<()> {
        let mut inner = self.inner.lock().expect("expanded tap lock poisoned");
        self.reseed_locked(&mut inner)
    }

    /// Uninstantiates the DRBG (zeroizing its state) and shuts the tap down.
    pub fn shutdown(&self) -> Result<()> {
        let mut inner = self.inner.lock().expect("expanded tap lock poisoned");
        if let Some(drbg) = inner.drbg.take() {
            drbg.uninstantiate();
        }
        drop(inner);
        self.tap.shutdown()
    }

    /// (Re)seeds if the policy demands it: missing instantiation, exhausted
    /// allowance, or prediction resistance (every generate).
    fn ensure_seeded(&self, inner: &mut Expansion) -> Result<()> {
        let due = inner.drbg.is_none()
            || self.policy.prediction_resistance
            || self.bytes_since_reseed.load(Ordering::Relaxed) >= self.policy.reseed_after_bytes;
        if due {
            self.reseed_locked(inner)?;
        }
        Ok(())
    }

    fn reseed_locked(&self, inner: &mut Expansion) -> Result<()> {
        let start = Instant::now();
        // Funding check against the *dynamic* claim: the static sizing fixed the
        // draw length, so a dipped claim (pool quarantine, re-accounting) means
        // those bytes no longer carry the policy's accounted bits.
        let h_now = self.tap.min_entropy_per_bit();
        if h_now + FUNDING_EPSILON < self.required_h_per_bit {
            return Err(EngineError::EntropyDeficit {
                shard: 0,
                accounted: h_now,
                required: self.required_h_per_bit,
                ledger: Box::new(self.tap.ledger().clone()),
            });
        }
        let mut seed = vec![0u8; self.seed_draw_bytes];
        self.draw_exact(&mut seed)?;
        if let Some(drbg) = inner.drbg.as_mut() {
            drbg.reseed(&seed, &[]).map_err(|e| drbg_fault(&e))?;
        } else {
            let mut nonce = [0u8; NONCE_BYTES];
            self.draw_exact(&mut nonce)?;
            inner.drbg = Some(
                HashDrbg::instantiate(&seed, &nonce, b"ptrng expanded tap")
                    .map_err(|e| drbg_fault(&e))?,
            );
        }
        let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let since = self.bytes_since_reseed.swap(0, Ordering::Relaxed);
        self.reseeds.fetch_add(1, Ordering::Relaxed);
        self.seed_bits_debited
            .fetch_add(self.policy.seed_bits_accounted, Ordering::Relaxed);
        self.last_reseed_ns.store(elapsed_ns, Ordering::Relaxed);
        self.tap.observatory().record_drbg_reseed(elapsed_ns, since);
        Ok(())
    }

    /// Draws exactly `buf.len()` accounted bytes from the tap, or fails — a
    /// short count means the stream ended and no seed can be completed.
    fn draw_exact(&self, buf: &mut [u8]) -> Result<()> {
        let got = self.tap.draw(buf);
        if got < buf.len() {
            return Err(EngineError::SourceFault {
                reason: format!(
                    "entropy stream ended after {got} of {} seed bytes",
                    buf.len()
                ),
            });
        }
        Ok(())
    }
}

/// Maps DRBG mechanism errors (which the tap's own pacing should never hit)
/// onto the engine's fault variant.
fn drbg_fault(error: &DrbgError) -> EngineError {
    EngineError::SourceFault {
        reason: format!("drbg: {error}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::pool::{Engine, EngineConfig};
    use crate::source::SourceSpec;
    use ptrng_obs::EventKind;

    fn expanded(policy: DrbgPolicy) -> ExpandedTap {
        let config = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
            .shards(1)
            .seed(7)
            .health(HealthConfig::default().without_startup_battery());
        let tap = Engine::spawn(config).expect("engine spawns").into_tap();
        ExpandedTap::new(tap, policy).expect("valid policy")
    }

    #[test]
    fn draw_fills_and_counts() {
        let tap = expanded(DrbgPolicy::default());
        let mut out = vec![0u8; 100_000];
        tap.draw(&mut out).expect("draw succeeds");
        assert!(out.iter().any(|&b| b != 0), "output is not all-zero");
        let snap = tap.snapshot();
        assert_eq!(snap.bytes_total, 100_000);
        assert_eq!(snap.bytes_since_reseed, 100_000);
        assert_eq!(snap.reseeds, 1, "lazy instantiation counts as one seed");
        // 100_000 bytes at the 2^19-bit request cap is two calls.
        assert_eq!(snap.generates, 2);
        assert_eq!(
            snap.seed_bits_debited, DEFAULT_SEED_BITS_ACCOUNTED,
            "debit is the policy amount, once"
        );
        tap.shutdown().expect("shutdown");
    }

    #[test]
    fn reseed_allowance_is_exact_not_chunk_granular() {
        let tap = expanded(DrbgPolicy {
            reseed_after_bytes: 10_000,
            ..DrbgPolicy::default()
        });
        let mut out = vec![0u8; 35_000];
        tap.draw(&mut out).expect("draw succeeds");
        let snap = tap.snapshot();
        // 35_000 bytes at 10_000 per seed: seeds at 0, 10_000, 20_000, 30_000.
        assert_eq!(snap.reseeds, 4);
        assert_eq!(snap.bytes_since_reseed, 5_000);
        assert_eq!(snap.seed_bits_debited, 4 * DEFAULT_SEED_BITS_ACCOUNTED);
        // A reseed event landed on the consumer recorder.
        assert!(tap
            .tap()
            .observatory()
            .events()
            .iter()
            .any(|e| e.kind == EventKind::DrbgReseed));
        assert!(tap.tap().observatory().drbg_reseed_histogram().count() >= 4);
        tap.shutdown().expect("shutdown");
    }

    #[test]
    fn prediction_resistance_reseeds_every_generate() {
        let tap = expanded(DrbgPolicy {
            prediction_resistance: true,
            ..DrbgPolicy::default()
        });
        let mut out = [0u8; 64];
        tap.draw(&mut out).expect("draw");
        tap.draw(&mut out).expect("draw");
        let snap = tap.snapshot();
        assert_eq!(snap.generates, 2);
        assert_eq!(snap.reseeds, 2, "one fresh seed per generate");
        tap.shutdown().expect("shutdown");
    }

    #[test]
    fn expanded_output_is_deterministic_only_across_reseeds() {
        // Two engines with the same seed produce the same conditioned stream,
        // so the expansion is reproducible — the determinism the fault-drill
        // discipline of this repo relies on for tests.
        let mut outs = Vec::new();
        for _ in 0..2 {
            let tap = expanded(DrbgPolicy::default());
            let mut out = vec![0u8; 4096];
            tap.draw(&mut out).expect("draw");
            tap.shutdown().expect("shutdown");
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn reseed_now_forces_a_funded_reseed() {
        let tap = expanded(DrbgPolicy::default());
        let mut out = [0u8; 32];
        tap.draw(&mut out).expect("draw");
        tap.reseed_now().expect("reseed");
        let snap = tap.snapshot();
        assert_eq!(snap.reseeds, 2);
        assert_eq!(snap.bytes_since_reseed, 0);
        assert_eq!(snap.seed_bits_debited, 2 * DEFAULT_SEED_BITS_ACCOUNTED);
        tap.shutdown().expect("shutdown");
    }

    #[test]
    fn policy_domain_is_validated() {
        let config = EngineConfig::new(SourceSpec::model(0.5).expect("valid spec"))
            .shards(1)
            .health(HealthConfig::default().without_startup_battery());
        let tap = Engine::spawn(config).expect("engine spawns").into_tap();
        let short_seed = DrbgPolicy {
            seed_bits_accounted: 128,
            ..DrbgPolicy::default()
        };
        assert!(matches!(
            ExpandedTap::new(tap.clone(), short_seed),
            Err(EngineError::InvalidParameter {
                name: "seed_bits_accounted",
                ..
            })
        ));
        let no_allowance = DrbgPolicy {
            reseed_after_bytes: 0,
            ..DrbgPolicy::default()
        };
        assert!(matches!(
            ExpandedTap::new(tap.clone(), no_allowance),
            Err(EngineError::InvalidParameter {
                name: "reseed_after_bytes",
                ..
            })
        ));
        tap.shutdown().expect("shutdown");
    }

    #[test]
    fn seed_draw_is_sized_from_the_static_claim() {
        let tap = expanded(DrbgPolicy::default());
        let h_static = tap.tap().ledger().min_entropy_per_bit();
        let want = ((DEFAULT_SEED_BITS_ACCOUNTED as f64 / (8.0 * h_static)).ceil() as usize)
            .max(MIN_ENTROPY_INPUT_BYTES);
        assert_eq!(tap.seed_draw_bytes, want);
        // The rounded-up draw means the static claim always funds itself.
        assert!(h_static + FUNDING_EPSILON >= tap.required_h_per_bit);
        tap.shutdown().expect("shutdown");
    }
}
