//! Pluggable entropy sources for the generation runtime.
//!
//! Every shard of the pool owns one [`EntropySource`] built from a shared
//! [`SourceSpec`] and a per-shard seed.  Besides the paper's plain eRO-TRNG, a
//! calibrated stochastic-model source trades physical fidelity for raw speed
//! (per-shard entropy accounting in the spirit of Saarinen's bit-pattern analysis:
//! the claimed min-entropy per bit is derived from the model, not assumed to be
//! 1).  Every XOR of sources — the `xor:K` multi-ring combiner included, which
//! parses to a pool of K identical rings — runs through
//! [`crate::pooled::PoolSource`], so each ring keeps its own health lanes and can
//! be quarantined alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ptrng_osc::phase::PhaseNoiseModel;
use ptrng_stats::minentropy::min_entropy_from_p_max;
use ptrng_stats::sn::{sigma2_n_sweep, SnSampling};
use ptrng_trng::ero::{EroSampler, EroTrng, EroTrngConfig};
use ptrng_trng::stochastic::EntropyModel;

use crate::audit::AuditRecord;
use crate::metrics::AlarmKind;
use crate::pooled::PoolOptions;
use crate::{EngineError, Result};

/// A lifecycle event emitted by a composite source (today: the pool's child
/// quarantine/reinstatement transitions), drained by the shard worker through
/// [`EntropySource::poll_events`] and forwarded to the observability stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceEvent {
    /// Index of the child the event concerns.
    pub child: usize,
    /// The child's label.
    pub label: String,
    /// The typed event class (a **non-terminal** [`AlarmKind`]).
    pub kind: AlarmKind,
    /// Human-readable reason.
    pub reason: String,
}

/// Status of one pool child, published per batch through
/// [`EntropySource::children_status`] into the metrics snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChildStatus {
    /// Child index inside the pool.
    pub child: usize,
    /// The child's label.
    pub label: String,
    /// Lifecycle state: `serving`, `quarantined` or `probation`.
    pub state: String,
    /// The child's own model-backed min-entropy claim per raw bit.
    pub entropy_per_bit: f64,
    /// The claim currently credited to the pool mix (zero unless serving).
    pub credited_entropy_per_bit: f64,
    /// Number of times this child has been quarantined.
    pub quarantines: u64,
    /// Number of times this child has been reinstated.
    pub reinstatements: u64,
}

/// A producer of raw random bits (one `0`/`1` byte per bit).
///
/// Implementations own their RNG state, so a boxed source is self-contained and can be
/// moved onto a shard worker thread.
pub trait EntropySource: Send {
    /// Short human-readable description of the source.
    fn label(&self) -> String;

    /// Nominal output bit rate of the modelled hardware, in bits per second.
    fn nominal_bit_rate(&self) -> f64;

    /// Model-backed claim for the min-entropy per raw bit, in `(0, 1]`.
    ///
    /// The health layer calibrates its SP 800-90B cutoffs from this claim.
    fn entropy_per_bit(&self) -> f64;

    /// Fills `out` with raw bits.
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying simulation fails.
    fn fill_bits(&mut self, out: &mut [u8]) -> Result<()>;

    /// Whether [`EntropySource::sigma2_sweep`] produces data — i.e. whether the source
    /// carries the paper's embedded edge counter that the thermal online test reads.
    /// Sources without one (the calibrated stochastic-model fast path, the record
    /// walk of flicker profiles) return `false`, and configuring a thermal test on
    /// them is rejected at engine spawn.
    fn supports_thermal_sweep(&self) -> bool {
        false
    }

    /// Reads one `σ²_N` sweep over `depths`, in periods, from the embedded counter's
    /// values over the last fill, returning a point at each depth that fill resolves
    /// (none before the first fill), or `None` when the source has no counter.
    ///
    /// # Errors
    ///
    /// Returns an error when the reduction fails.
    fn sigma2_sweep(&mut self, depths: &[usize]) -> Result<Option<Vec<Sigma2NPoint>>> {
        let _ = depths;
        Ok(None)
    }

    /// Drains lifecycle events accumulated since the last poll (child quarantines
    /// and reinstatements for a pool).  Simple sources never emit any.
    fn poll_events(&mut self) -> Vec<SourceEvent> {
        Vec::new()
    }

    /// Drains the audit windows a composite source's child lanes completed since
    /// the last poll, each with its child index (a pool's `pool-child-K` lanes).
    /// Simple sources have none.
    fn poll_audits(&mut self) -> Vec<(usize, AuditRecord)> {
        Vec::new()
    }

    /// The min-entropy per raw bit the source credits **right now** — for a pool
    /// this shrinks when children are quarantined and recovers on reinstatement;
    /// simple sources report their static [`EntropySource::entropy_per_bit`].
    fn current_entropy_per_bit(&self) -> f64 {
        self.entropy_per_bit()
    }

    /// Per-child statuses of a composite source (empty for simple sources).
    fn children_status(&self) -> Vec<ChildStatus> {
        Vec::new()
    }
}

/// Accumulation depths a shard's or pool child's raw-bit lane sweeps when its
/// monitor has a thermal online test.
pub const THERMAL_SWEEP_DEPTHS: [usize; 5] = [256, 512, 1024, 2048, 4096];

/// A sweep reads a depth only from a fill that holds at least this many windows of it.
const SWEEP_MIN_WINDOWS: usize = 8;

/// Jitter profile of the simulated ring pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JitterProfile {
    /// The paper's fitted DATE 2014 experiment (thermal + flicker, 103 MHz rings).
    Date14,
    /// A deliberately jitter-rich design whose raw bits approach full entropy at small
    /// division factors (the profile used by the workspace's integration tests).
    Strong,
}

impl JitterProfile {
    /// Builds the eRO-TRNG configuration for this profile at the given division.
    pub fn ero_config(self, division: u32) -> Result<EroTrngConfig> {
        match self {
            JitterProfile::Date14 => Ok(EroTrngConfig::date14_experiment(division)),
            JitterProfile::Strong => {
                let sampled = PhaseNoiseModel::new(1.2e6, 0.0, 103.0e6)?;
                let sampling = PhaseNoiseModel::new(1.2e6, 0.0, 102.3e6)?;
                Ok(EroTrngConfig {
                    sampled,
                    sampling,
                    division,
                    duty_cycle: 0.5,
                })
            }
        }
    }

    fn name(self) -> &'static str {
        match self {
            JitterProfile::Date14 => "date14",
            JitterProfile::Strong => "strong",
        }
    }
}

/// Declarative description of a source; `build` instantiates it with a shard seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceSpec {
    /// A single elementary RO-TRNG.
    Ero {
        /// Frequency-division factor (accumulation depth per bit).
        division: u32,
        /// Jitter profile of the ring pair.
        profile: JitterProfile,
    },
    /// Calibrated stochastic-model source: i.i.d. bits with the given probability of
    /// one.  No physical simulation — the fast path for scale and failure-injection
    /// testing.
    Model {
        /// Probability of emitting a one, in `(0, 1)`.
        p_one: f64,
    },
    /// A multi-source pool: N heterogeneous children XOR-mixed bit-for-bit with
    /// per-child ledger accounting, health lanes and a quarantine state machine
    /// (see [`crate::pooled::PoolSource`]).
    Pool {
        /// The child specifications (at least two; pools do not nest).
        children: Vec<SourceSpec>,
        /// Quarantine/probation tuning of the pool.
        options: PoolOptions,
    },
}

impl SourceSpec {
    /// Parses a CLI-style specification:
    ///
    /// * `ero[:DIVISION[:PROFILE]]` (default division 16, profile `strong`),
    /// * `xor:RINGS[:DIVISION[:PROFILE]]` (default division 8) — shorthand for a
    ///   pool of `RINGS ≥ 2` identical `ero:DIVISION:PROFILE` children,
    /// * `model[:P_ONE]` (default 0.5),
    /// * `pool:CHILD+CHILD[+CHILD...]` — a multi-source pool whose children are
    ///   any of the above except `xor:` (pools do not nest), separated by `+`
    ///   (e.g. `pool:ero:16+ero:8:date14+model:0.5`); a pool needs at least two
    ///   children,
    ///
    /// where `PROFILE` is `strong` or `date14`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown kinds or out-of-domain parameters.
    pub fn parse(spec: &str) -> Result<Self> {
        Self::parse_in(spec, false)
    }

    /// [`SourceSpec::parse`], told whether `spec` is a child of a `pool:` list.
    fn parse_in(spec: &str, in_pool: bool) -> Result<Self> {
        let err = |reason: &str| EngineError::SpecParse {
            spec: spec.to_string(),
            reason: reason.to_string(),
        };
        if let Some(list) = spec.strip_prefix("pool:") {
            let children = list
                .split('+')
                .map(|child| Self::parse_in(child, true))
                .collect::<Result<Vec<SourceSpec>>>()?;
            return Self::pool(children, PoolOptions::default());
        }
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let parse_profile = |s: &str| match s {
            "strong" => Ok(JitterProfile::Strong),
            "date14" => Ok(JitterProfile::Date14),
            other => Err(err(&format!("unknown profile `{other}`"))),
        };
        // `[DIVISION[:PROFILE]]` of one ring pair.
        let parse_ring = |args: &[&str], default_division: u32| {
            let division = match args.first() {
                Some(d) => d
                    .parse::<u32>()
                    .map_err(|_| err("division must be an integer"))?,
                None => default_division,
            };
            let profile = match args.get(1) {
                Some(p) => parse_profile(p)?,
                None => JitterProfile::Strong,
            };
            Ok::<_, EngineError>((division, profile))
        };
        match kind {
            "ero" => {
                let (division, profile) = parse_ring(&rest, 16)?;
                Self::ero(division, profile)
            }
            "xor" => {
                let rings = rest
                    .first()
                    .ok_or_else(|| err("xor needs a ring count, e.g. `xor:4`"))?
                    .parse::<usize>()
                    .map_err(|_| err("ring count must be an integer"))?;
                let (division, profile) = parse_ring(&rest[1..], 8)?;
                let ring = Self::ero(division, profile)?;
                let ring_spec = format!("ero:{division}:{}", profile.name());
                if rings < 2 {
                    return Err(err(&format!(
                        "xor needs at least two rings, got {rings}; one ring is `{ring_spec}`"
                    )));
                }
                if in_pool {
                    return Err(err(&format!(
                        "pools do not nest: list the {rings} rings as pool children, \
                         `{ring_spec}` each"
                    )));
                }
                Self::pool(vec![ring; rings], PoolOptions::default())
            }
            "model" => {
                let p_one = match rest.first() {
                    Some(p) => p.parse::<f64>().map_err(|_| err("p_one must be a float"))?,
                    None => 0.5,
                };
                Self::model(p_one)
            }
            "pool" => Err(err(
                "pool needs a `+`-separated child list, e.g. `pool:ero:16+model:0.5`",
            )),
            other => Err(err(&format!(
                "unknown source kind `{other}` (expected ero, xor, model or pool)"
            ))),
        }
    }

    /// A validated [`SourceSpec::Ero`].
    ///
    /// # Errors
    ///
    /// Returns an error when `division == 0`.
    pub fn ero(division: u32, profile: JitterProfile) -> Result<Self> {
        if division == 0 {
            return Err(EngineError::InvalidParameter {
                name: "division",
                reason: "the division factor must be at least 1".to_string(),
            });
        }
        Ok(SourceSpec::Ero { division, profile })
    }

    /// A validated [`SourceSpec::Model`].
    ///
    /// # Errors
    ///
    /// Returns an error when `p_one` is not strictly inside `(0, 1)`.
    pub fn model(p_one: f64) -> Result<Self> {
        if !(p_one > 0.0 && p_one < 1.0) {
            return Err(EngineError::InvalidParameter {
                name: "p_one",
                reason: format!("must be in (0, 1), got {p_one}"),
            });
        }
        Ok(SourceSpec::Model { p_one })
    }

    /// A validated [`SourceSpec::Pool`].
    ///
    /// # Errors
    ///
    /// Returns an error when fewer than two children are given, a child is itself
    /// a pool (pools do not nest), or the options are invalid.
    pub fn pool(children: Vec<SourceSpec>, options: PoolOptions) -> Result<Self> {
        if children.len() < 2 {
            return Err(EngineError::InvalidParameter {
                name: "children",
                reason: format!(
                    "a pool needs at least two children to mix, got {}",
                    children.len()
                ),
            });
        }
        if children
            .iter()
            .any(|c| matches!(c, SourceSpec::Pool { .. }))
        {
            return Err(EngineError::InvalidParameter {
                name: "children",
                reason: "pools do not nest".to_string(),
            });
        }
        options.validate()?;
        Ok(SourceSpec::Pool { children, options })
    }

    /// Instantiates the source with a seed (each shard passes a distinct one).
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying models reject the configuration.
    pub fn build(&self, seed: u64) -> Result<Box<dyn EntropySource>> {
        match self {
            SourceSpec::Ero { division, profile } => {
                Ok(Box::new(EroSource::new(*division, *profile, seed)?))
            }
            SourceSpec::Model { p_one } => Ok(Box::new(ModelSource::new(*p_one, seed)?)),
            SourceSpec::Pool { children, options } => Ok(Box::new(
                crate::pooled::PoolSource::from_specs(children, options.clone(), seed)?,
            )),
        }
    }
}

/// Entropy claim of one eRO-TRNG configuration: Baudet's bound at the thermal phase
/// variance the walk samples (flicker is never credited).
fn ero_entropy_claim(config: &EroTrngConfig) -> f64 {
    // Credited as modelled, never floored upward: the claim seeds the entropy ledger
    // that drives the emission-refusal policy.  (The Baudet-style bound is itself
    // ≥ 1 − 4/(π²·ln 2) ≈ 0.415, so it is always a usable positive claim; only the
    // health-test cutoff calibration applies its own conservative floor.)
    EntropyModel::entropy_lower_bound(config.thermal_phase_variance()).min(1.0)
}

/// Adapter for the workspace's [`EroTrng`] simulator.
///
/// The source holds a persistent [`EroSampler`] (oscillator phase continuous across
/// calls, reusable scratch), so steady-state batch generation performs no per-call
/// allocation, and its `σ²_N` sweep reads the sampler's own edge counter.
pub struct EroSource {
    trng: EroTrng,
    sampler: EroSampler,
    rng: StdRng,
    entropy_claim: f64,
    division: u32,
    profile: JitterProfile,
}

impl EroSource {
    /// Creates the source.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid division or profile configuration.
    pub fn new(division: u32, profile: JitterProfile, seed: u64) -> Result<Self> {
        let config = profile.ero_config(division)?;
        let entropy_claim = ero_entropy_claim(&config);
        let trng = EroTrng::new(config)?;
        let sampler = trng.sampler()?;
        Ok(Self {
            trng,
            sampler,
            rng: StdRng::seed_from_u64(seed),
            entropy_claim,
            division,
            profile,
        })
    }
}

impl EntropySource for EroSource {
    fn label(&self) -> String {
        format!(
            "ero(division={}, profile={})",
            self.division,
            self.profile.name()
        )
    }

    fn nominal_bit_rate(&self) -> f64 {
        self.trng.bit_rate()
    }

    fn entropy_per_bit(&self) -> f64 {
        self.entropy_claim
    }

    fn fill_bits(&mut self, out: &mut [u8]) -> Result<()> {
        self.sampler.fill_bits(&mut self.rng, out)?;
        Ok(())
    }

    fn supports_thermal_sweep(&self) -> bool {
        self.sampler.edge_counts().is_some()
    }

    /// Reads the walk's edge counter over the last fill with the paper's Eq. 12: a
    /// depth of N periods is read over windows of `m = round(N/D)` bits (at least 1),
    /// and the variance of the difference of adjacent window counts over `f₁²` is
    /// `σ²_N` at the depth `m·D`.  Only depths with at least 8 windows in the fill
    /// are read.  Draws no randomness.
    fn sigma2_sweep(&mut self, depths: &[usize]) -> Result<Option<Vec<Sigma2NPoint>>> {
        let Some(counts) = self.sampler.edge_counts() else {
            return Ok(None);
        };
        let division = self.division as usize;
        let mut windows: Vec<usize> = depths
            .iter()
            .map(|&n| ((n as f64 / division as f64).round() as usize).max(1))
            .filter(|&m| counts.len() / m >= SWEEP_MIN_WINDOWS)
            .collect();
        windows.dedup();
        if windows.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let mut points = sigma2_n_sweep(counts, &windows, SnSampling::Overlapping)
            .map_err(ptrng_trng::TrngError::from)?;
        for point in &mut points {
            point.n *= division;
            point.sigma2_n /= self.trng.config().sampled.frequency().powi(2);
        }
        Ok(Some(points))
    }
}

/// Calibrated stochastic-model source: i.i.d. Bernoulli bits, no physical simulation.
pub struct ModelSource {
    p_one: f64,
    rng: StdRng,
    entropy_claim: f64,
}

impl ModelSource {
    /// Creates the source.
    ///
    /// # Errors
    ///
    /// Returns an error when `p_one` is not strictly inside `(0, 1)`.
    pub fn new(p_one: f64, seed: u64) -> Result<Self> {
        if !(p_one > 0.0 && p_one < 1.0) {
            return Err(EngineError::InvalidParameter {
                name: "p_one",
                reason: format!("must be in (0, 1), got {p_one}"),
            });
        }
        // Min-entropy of a Bernoulli(p) bit, credited exactly (p strictly inside
        // (0, 1) keeps it positive); the health layer floors its own cutoff claim.
        let entropy_claim = min_entropy_from_p_max(p_one.max(1.0 - p_one))
            .map_err(ptrng_trng::TrngError::from)?
            .min(1.0);
        Ok(Self {
            p_one,
            rng: StdRng::seed_from_u64(seed),
            entropy_claim,
        })
    }
}

impl EntropySource for ModelSource {
    fn label(&self) -> String {
        format!("model(p_one={})", self.p_one)
    }

    fn nominal_bit_rate(&self) -> f64 {
        // Not hardware-backed; report an effectively unlimited nominal rate.
        f64::INFINITY
    }

    fn entropy_per_bit(&self) -> f64 {
        self.entropy_claim
    }

    fn fill_bits(&mut self, out: &mut [u8]) -> Result<()> {
        for slot in out.iter_mut() {
            *slot = u8::from(self.rng.gen_bool(self.p_one));
        }
        Ok(())
    }
}

pub use ptrng_stats::seed::derive_seed;
pub use ptrng_stats::sn::Sigma2NPoint;

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_trng::online::{OnlineTestConfig, OnlineThermalTest};

    #[test]
    fn spec_parsing_round_trips_every_kind() {
        assert_eq!(
            SourceSpec::parse("ero").unwrap(),
            SourceSpec::Ero {
                division: 16,
                profile: JitterProfile::Strong
            }
        );
        assert_eq!(
            SourceSpec::parse("ero:4:date14").unwrap(),
            SourceSpec::Ero {
                division: 4,
                profile: JitterProfile::Date14
            }
        );
        assert_eq!(
            SourceSpec::parse("xor:3").unwrap(),
            SourceSpec::Pool {
                children: vec![
                    SourceSpec::Ero {
                        division: 8,
                        profile: JitterProfile::Strong
                    };
                    3
                ],
                options: PoolOptions::default(),
            }
        );
        assert_eq!(
            SourceSpec::parse("model:0.52").unwrap(),
            SourceSpec::Model { p_one: 0.52 }
        );
        assert_eq!(
            SourceSpec::parse("pool:ero:4+ero:8:date14+model:0.5").unwrap(),
            SourceSpec::Pool {
                children: vec![
                    SourceSpec::Ero {
                        division: 4,
                        profile: JitterProfile::Strong
                    },
                    SourceSpec::Ero {
                        division: 8,
                        profile: JitterProfile::Date14
                    },
                    SourceSpec::Model { p_one: 0.5 },
                ],
                options: PoolOptions::default(),
            }
        );
    }

    #[test]
    fn xor_parses_to_the_pool_of_its_rings() {
        let parse = |spec: &str| SourceSpec::parse(spec).unwrap();
        assert_eq!(parse("xor:2"), parse("pool:ero:8+ero:8"));
        assert_eq!(
            parse("xor:3:4:date14"),
            SourceSpec::Pool {
                children: vec![
                    SourceSpec::Ero {
                        division: 4,
                        profile: JitterProfile::Date14
                    };
                    3
                ],
                options: PoolOptions::default(),
            }
        );
        // Each rejection names what to write instead.
        let reason = |spec: &str| SourceSpec::parse(spec).unwrap_err().to_string();
        for (spec, ring) in [
            ("xor:0", "`ero:8:strong`"),
            ("xor:1", "`ero:8:strong`"),
            ("xor:1:16:date14", "`ero:16:date14`"),
        ] {
            assert!(reason(spec).contains(ring), "{spec}: {}", reason(spec));
        }
        let nested = reason("pool:ero:4+xor:2:8");
        assert!(
            nested.contains("pools do not nest") && nested.contains("`ero:8:strong` each"),
            "{nested}"
        );
    }

    #[test]
    fn spec_parsing_rejects_nonsense() {
        assert!(SourceSpec::parse("laser").is_err());
        assert!(SourceSpec::parse("ero:0").is_err());
        assert!(SourceSpec::parse("ero:16:weak").is_err());
        assert!(SourceSpec::parse("xor").is_err());
        assert!(SourceSpec::parse("xor:0").is_err());
        assert!(SourceSpec::parse("model:1.5").is_err());
        // Pools need at least two well-formed children and do not nest.
        assert!(SourceSpec::parse("pool").is_err());
        assert!(SourceSpec::parse("pool:model:0.5").is_err());
        assert!(SourceSpec::parse("pool:model:0.5+laser").is_err());
        let inner = SourceSpec::parse("pool:model:0.5+model:0.6").unwrap();
        assert!(SourceSpec::pool(
            vec![inner, SourceSpec::Model { p_one: 0.5 }],
            PoolOptions::default()
        )
        .is_err());
    }

    #[test]
    fn model_source_matches_its_bias() {
        let mut src = ModelSource::new(0.25, 9).unwrap();
        let mut bits = vec![0u8; 40_000];
        src.fill_bits(&mut bits).unwrap();
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        let p = ones as f64 / bits.len() as f64;
        assert!((p - 0.25).abs() < 0.02, "p = {p}");
        assert!((src.entropy_per_bit() - 0.415).abs() < 0.01);
    }

    #[test]
    fn distinct_seeds_produce_distinct_streams() {
        let mut a = ModelSource::new(0.5, 1).unwrap();
        let mut b = ModelSource::new(0.5, 2).unwrap();
        let mut bits_a = vec![0u8; 256];
        let mut bits_b = vec![0u8; 256];
        a.fill_bits(&mut bits_a).unwrap();
        b.fill_bits(&mut bits_b).unwrap();
        assert_ne!(bits_a, bits_b);
    }

    #[test]
    fn ero_source_produces_bits_and_a_sane_claim() {
        let mut src = EroSource::new(8, JitterProfile::Strong, 3).unwrap();
        let mut bits = vec![0u8; 2_000];
        src.fill_bits(&mut bits).unwrap();
        assert!(bits.iter().all(|&b| b <= 1));
        let h = src.entropy_per_bit();
        assert!(h > 0.05 && h <= 1.0, "claim {h}");
        assert!(src.label().contains("strong"));
        assert!(src.nominal_bit_rate() > 1.0e6);
    }

    #[test]
    fn the_sweep_reads_the_walks_edge_counter() {
        // Over m bits the walk's phase advances by N(m·D·f₁/f₂, m·Q), so the difference
        // of two adjacent m-bit window counts, ⌊φ_2m⌋ − 2⌊φ_m⌋ + ⌊φ_0⌋, is the phase's
        // second difference (variance 2·m·Q) minus that of its fractional parts at the
        // three window edges, which are uniform and independent at these depths:
        // (1 + 4 + 1)/12 = ½ count².  The sweep reports that variance over f₁² at
        // depth N = m·D, wherever the draw holds at least 8 windows.
        //
        // Tolerance, measured over 4000 draws: at 16 windows one draw reads the variance
        // to 30 % (standard deviation) and 0.3–0.6 % low on average (the estimator
        // subtracts the windows' own mean, itself noisy), so the mean over 2000 draws
        // sits that far low give or take 0.7 %, inside the 2 % bound; more windows read
        // tighter.  At 8 windows the bias reaches 2–3 %, so those depths are read but
        // not checked.  4096-bit draws hold 16 windows of a depth at every division.
        let draws = 2000;
        let mut bits = vec![0u8; 4096];
        for division in [1u32, 2, 16] {
            let config = JitterProfile::Strong.ero_config(division).unwrap();
            let (q, f1) = (config.thermal_phase_variance(), config.sampled.frequency());
            let mut source =
                EroSource::new(division, JitterProfile::Strong, u64::from(division)).unwrap();
            let mut sums = vec![0.0; THERMAL_SWEEP_DEPTHS.len()];
            let mut read = Vec::new();
            for _ in 0..draws {
                source.fill_bits(&mut bits).unwrap();
                let points = source.sigma2_sweep(&THERMAL_SWEEP_DEPTHS).unwrap().unwrap();
                read = points.iter().map(|p| p.n).collect();
                for (sum, point) in sums.iter_mut().zip(&points) {
                    *sum += point.sigma2_n * f1 * f1;
                }
            }
            let resolved: Vec<usize> = THERMAL_SWEEP_DEPTHS
                .into_iter()
                .filter(|&n| bits.len() * division as usize / n >= SWEEP_MIN_WINDOWS)
                .collect();
            assert_eq!(read, resolved, "D = {division}");
            for (&n, sum) in read.iter().zip(&sums) {
                let m = n / division as usize;
                if bits.len() / m < 16 {
                    continue;
                }
                let expected = 2.0 * m as f64 * q + 0.5;
                let mean = sum / f64::from(draws);
                assert!(
                    (mean / expected - 1.0).abs() < 0.02,
                    "D = {division}, N = {n}: {mean} counts² against 2·m·Q + ½ = {expected}"
                );
            }
        }
    }

    #[test]
    fn the_thermal_test_passes_healthy_rings_and_catches_a_tenfold_reference() {
        // `ero:16:strong` at the deployment's 8192-bit batches, against the rings' own
        // thermal jitter and against ten times it (a hundredth of the commissioned
        // variance).  Measured over 2000 sweeps: healthy ratios from 0.62 up, and at
        // most 0.13 against the tenfold reference, either side of the 0.5 threshold.
        let config = JitterProfile::Strong.ero_config(16).unwrap();
        let relative = config.sampled.relative_to(&config.sampling).unwrap();
        let test = |scale: f64| {
            OnlineThermalTest::new(
                OnlineTestConfig::new(
                    relative.frequency(),
                    scale * relative.thermal_period_jitter(),
                    0.5,
                )
                .unwrap(),
            )
        };
        let (healthy, tenfold) = (test(1.0), test(10.0));
        let mut source = EroSource::new(16, JitterProfile::Strong, 5).unwrap();
        let mut bits = vec![0u8; 8192];
        for draw in 0..500 {
            source.fill_bits(&mut bits).unwrap();
            let points = source.sigma2_sweep(&THERMAL_SWEEP_DEPTHS).unwrap().unwrap();
            let (depths, variances): (Vec<f64>, Vec<f64>) =
                points.iter().map(|p| (p.n as f64, p.sigma2_n)).unzip();
            let outcome = healthy.evaluate_points(&depths, &variances).unwrap();
            assert!(!outcome.alarm, "draw {draw}: {outcome:?}");
            let outcome = tenfold.evaluate_points(&depths, &variances).unwrap();
            assert!(outcome.alarm, "draw {draw}: {outcome:?}");
        }
    }

    #[test]
    fn the_record_walk_has_no_counter_and_an_unfilled_walk_reads_nothing() {
        let mut record = EroSource::new(64, JitterProfile::Date14, 1).unwrap();
        assert!(!record.supports_thermal_sweep());
        assert_eq!(record.sigma2_sweep(&THERMAL_SWEEP_DEPTHS).unwrap(), None);
        let mut walk = EroSource::new(16, JitterProfile::Strong, 1).unwrap();
        assert!(walk.supports_thermal_sweep());
        assert_eq!(
            walk.sigma2_sweep(&THERMAL_SWEEP_DEPTHS).unwrap(),
            Some(Vec::new())
        );
    }

    #[test]
    fn record_walk_does_not_restart_on_each_call() {
        // `date14` has flicker, so it runs the record walk.  Its phase advances only
        // frac(64·f₁/f₂) ≈ 0.045 cycles per bit at D = 64, so a walk that restarted
        // phase-aligned on every call would read the same first bits in every call
        // (P(1) ≥ 0.99 for bits 0–8).  A continuous walk reads each position at the
        // stationary frequency, ½.
        //
        // Tolerance: 4σ of `calls` independent fair reads, 4·√(¼/calls) = 0.1.  That
        // is conservative: one position's successive reads are 2048 periods apart,
        // where the phase has moved frac(2048·f₁/f₂) ≈ 0.43 cycles plus ≈ 0.09 cycles
        // rms of jitter, so they alternate between the halves of the period and
        // average out faster than independent reads would.
        let mut source = SourceSpec::parse("ero:64:date14")
            .unwrap()
            .build(7)
            .unwrap();
        let calls = 400;
        let mut ones = [0usize; 8];
        let mut bits = [0u8; 32];
        for _ in 0..calls {
            source.fill_bits(&mut bits).unwrap();
            for (count, &bit) in ones.iter_mut().zip(&bits) {
                *count += usize::from(bit);
            }
        }
        let tolerance = 4.0 * (0.25 / calls as f64).sqrt();
        for (position, &count) in ones.iter().enumerate() {
            let p = count as f64 / calls as f64;
            assert!(
                (p - 0.5).abs() < tolerance,
                "bit {position} of each call: P(1) = {p} (±{tolerance})"
            );
        }
    }

    #[test]
    fn xor_source_combines_rings() {
        let mut src = SourceSpec::parse("xor:2:4").unwrap().build(5).unwrap();
        let mut bits = vec![0u8; 1_000];
        src.fill_bits(&mut bits).unwrap();
        assert!(bits.iter().all(|&b| b <= 1));
        // Each ring is a pool child with its own lanes, serving at its own claim,
        // and the mix credits their piling-up combination.
        let single = EroSource::new(4, JitterProfile::Strong, 5).unwrap();
        let children = src.children_status();
        assert_eq!(children.len(), 2);
        for child in &children {
            assert_eq!(child.label, single.label());
            assert_eq!(child.state, "serving");
            assert_eq!(child.credited_entropy_per_bit, single.entropy_per_bit());
        }
        assert!(src.entropy_per_bit() >= single.entropy_per_bit());
        assert_eq!(
            src.label(),
            format!("pool({} ⊕ {})", single.label(), single.label())
        );
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let seeds: Vec<u64> = (0..64).map(|k| derive_seed(42, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
