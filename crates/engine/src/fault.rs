//! Deterministic fault injection for pool drills.
//!
//! A [`FaultSource`] wraps any [`EntropySource`] and, inside a byte-offset window
//! described by a [`FaultPlan`], replaces the wrapped source's behavior with one
//! of six scripted pathologies — the failure modes the pool's quarantine machinery
//! must absorb.  Everything is seeded and counted in drawn bytes, so a drill
//! (fault ⇒ quarantine ⇒ reduced credit ⇒ recovery ⇒ reinstatement) replays
//! bit-for-bit.
//!
//! The plan is a `key=value` comma list, e.g. `child=1,at=2MiB,kind=stuck` — the
//! grammar of the `--fault` flag on `ptrngd` and `ptrng-serve`:
//!
//! | key    | meaning                                            | default  |
//! |--------|----------------------------------------------------|----------|
//! | `child`| pool child index the fault targets                 | required |
//! | `kind` | fault kind (see [`FaultKind`])                     | required |
//! | `at`   | drawn-byte offset where the fault activates        | `0`      |
//! | `for`  | fault window length in drawn bytes                 | forever  |
//! | `ms`   | stall latency per draw (`kind=stall`)              | `300`    |
//! | `p`    | kind parameter: `bias-drift` p(1), `overclaim` stay| kind's   |
//! | `seed` | RNG seed of the fault's own bit generator          | `0xFA17` |
//!
//! Sizes accept `b`/`kib`/`mib`/`gib` suffixes (case-insensitive) or plain bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::audit::AuditRecord;
use crate::source::{ChildStatus, EntropySource, Sigma2NPoint, SourceEvent};
use crate::{EngineError, Result};

/// Default seed of a fault's own bit generator.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA17;

/// Default stall latency, in milliseconds per draw.
pub const DEFAULT_STALL_MS: u64 = 300;

/// Default probability of a one during a bias-drift fault.
pub const DEFAULT_BIAS_DRIFT_P_ONE: f64 = 0.9;

/// Default stay probability of the silent-overclaim Markov fault: balanced
/// marginals (invisible to RCT/APT calibrated at the claim), true min-entropy
/// rate `−log₂(0.7) ≈ 0.515` bits/bit — the dependence-that-marginal-tests-miss
/// pathology the paper warns about, caught only by the per-child audit battery.
pub const DEFAULT_OVERCLAIM_P_STAY: f64 = 0.7;

/// The scripted pathology a [`FaultPlan`] injects while its window is active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Stuck-at-zero output (total failure; tripped by the repetition-count lane).
    Stuck,
    /// Bias drift: bits become i.i.d. Bernoulli with the given probability of one
    /// (tripped by the adaptive-proportion lane).
    BiasDrift {
        /// Probability of a one while the fault is active, in `(0, 1)`.
        p_one: f64,
    },
    /// Thermal variance collapse: bits pass through unchanged, but the `σ²_N`
    /// counter sweep reads `10⁻⁴×` its true value (tripped by the thermal lane).
    VarianceCollapse,
    /// Output stall: every draw sleeps the given latency before producing
    /// (tripped by the pool's stall watchdog).
    Stall {
        /// Added latency per draw, in milliseconds.
        ms: u64,
    },
    /// Intermittent death: draws fail outright during the window (tripped as a
    /// child source failure).
    Intermittent,
    /// Silent overclaim: a first-order Markov chain with balanced marginals and
    /// the given stay probability replaces the bits, so the child's claimed
    /// min-entropy silently exceeds what it delivers (caught only by the
    /// per-child audit battery).
    Overclaim {
        /// Probability of repeating the previous bit, in `(0, 1)`.
        p_stay: f64,
    },
}

/// A deterministic fault script: which pool child, where in the drawn stream the
/// fault activates and how long it lasts, and what goes wrong.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Index of the pool child the fault wraps.
    pub child: usize,
    /// Drawn-byte offset at which the fault activates.
    pub at_bytes: u64,
    /// Length of the fault window in drawn bytes (saturating: `u64::MAX` means
    /// the fault never recovers).
    pub for_bytes: u64,
    /// The injected pathology.
    pub kind: FaultKind,
    /// Seed of the fault's own bit generator.
    pub seed: u64,
}

impl FaultPlan {
    /// Parses the `--fault` DSL (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown keys, missing `child`/`kind`, or
    /// out-of-domain parameters.
    pub fn parse(text: &str) -> Result<Self> {
        let err = |reason: String| EngineError::SpecParse {
            spec: text.to_string(),
            reason,
        };
        let mut child: Option<usize> = None;
        let mut kind_code: Option<String> = None;
        let mut at_bytes = 0u64;
        let mut for_bytes = u64::MAX;
        let mut ms = DEFAULT_STALL_MS;
        let mut p: Option<f64> = None;
        let mut seed = DEFAULT_FAULT_SEED;
        for item in text.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got `{item}`")))?;
            match key.trim() {
                "child" => {
                    child = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| err("child must be an integer index".to_string()))?,
                    );
                }
                "kind" => kind_code = Some(value.trim().to_string()),
                "at" => at_bytes = parse_size(value.trim()).map_err(&err)?,
                "for" => for_bytes = parse_size(value.trim()).map_err(&err)?,
                "ms" => {
                    ms = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| err("ms must be an integer".to_string()))?;
                }
                "p" => {
                    let value = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| err("p must be a float".to_string()))?;
                    if !(value > 0.0 && value < 1.0) {
                        return Err(err(format!("p must be in (0, 1), got {value}")));
                    }
                    p = Some(value);
                }
                "seed" => {
                    seed = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| err("seed must be an integer".to_string()))?;
                }
                other => return Err(err(format!("unknown fault key `{other}`"))),
            }
        }
        let child = child.ok_or_else(|| err("a fault needs `child=N`".to_string()))?;
        let kind = match kind_code
            .ok_or_else(|| err("a fault needs `kind=...`".to_string()))?
            .as_str()
        {
            "stuck" => FaultKind::Stuck,
            "bias-drift" => FaultKind::BiasDrift {
                p_one: p.unwrap_or(DEFAULT_BIAS_DRIFT_P_ONE),
            },
            "variance-collapse" => FaultKind::VarianceCollapse,
            "stall" => FaultKind::Stall { ms },
            "intermittent" => FaultKind::Intermittent,
            "overclaim" => FaultKind::Overclaim {
                p_stay: p.unwrap_or(DEFAULT_OVERCLAIM_P_STAY),
            },
            other => {
                return Err(err(format!(
                    "unknown fault kind `{other}` (expected stuck, bias-drift, \
                     variance-collapse, stall, intermittent or overclaim)"
                )))
            }
        };
        Ok(Self {
            child,
            at_bytes,
            for_bytes,
            kind,
            seed,
        })
    }

    /// End of the fault window in drawn bytes (saturating).
    fn end_bytes(&self) -> u64 {
        self.at_bytes.saturating_add(self.for_bytes)
    }
}

/// Parses a human-friendly byte size: `4096`, `64KiB`, `1MiB`, `2GiB` — the
/// grammar of every size flag on `ptrngd` and `ptrng-serve`.
///
/// # Errors
///
/// Returns a usage message for malformed or overflowing sizes.
pub fn parse_size(text: &str) -> std::result::Result<u64, String> {
    let lower = text.trim().to_ascii_lowercase();
    let lower = lower.as_str();
    let (digits, multiplier) = if let Some(d) = lower.strip_suffix("gib") {
        (d, 1u64 << 30)
    } else if let Some(d) = lower.strip_suffix("mib") {
        (d, 1u64 << 20)
    } else if let Some(d) = lower.strip_suffix("kib") {
        (d, 1u64 << 10)
    } else if let Some(d) = lower.strip_suffix('b') {
        (d, 1)
    } else {
        (lower, 1)
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
        .ok_or_else(|| format!("invalid size `{text}` (expected e.g. 4096, 512KiB, 1MiB)"))
}

/// An [`EntropySource`] decorator executing one [`FaultPlan`].
///
/// Outside the fault window every call passes straight through to the wrapped
/// source; the label and the entropy claim pass through *always* — a fault never
/// announces itself, which is exactly what makes the silent-overclaim drill
/// meaningful.
pub struct FaultSource {
    inner: Box<dyn EntropySource>,
    plan: FaultPlan,
    drawn_bits: u64,
    rng: StdRng,
    /// Previous emitted bit of the overclaim Markov chain (carried across calls).
    last_bit: Option<u8>,
}

impl FaultSource {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Box<dyn EntropySource>, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        Self {
            inner,
            plan,
            drawn_bits: 0,
            rng,
            last_bit: None,
        }
    }

    /// Whether the fault window is active at the current drawn offset.
    pub fn active(&self) -> bool {
        let drawn_bytes = self.drawn_bits / 8;
        drawn_bytes >= self.plan.at_bytes && drawn_bytes < self.plan.end_bytes()
    }
}

impl EntropySource for FaultSource {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn nominal_bit_rate(&self) -> f64 {
        self.inner.nominal_bit_rate()
    }

    fn entropy_per_bit(&self) -> f64 {
        self.inner.entropy_per_bit()
    }

    fn fill_bits(&mut self, out: &mut [u8]) -> Result<()> {
        let active = self.active();
        self.drawn_bits = self.drawn_bits.saturating_add(out.len() as u64);
        if !active {
            return self.inner.fill_bits(out);
        }
        match self.plan.kind {
            FaultKind::Stuck => {
                out.fill(0);
                Ok(())
            }
            FaultKind::BiasDrift { p_one } => {
                for slot in out.iter_mut() {
                    *slot = u8::from(self.rng.gen_bool(p_one));
                }
                Ok(())
            }
            FaultKind::VarianceCollapse => self.inner.fill_bits(out),
            FaultKind::Stall { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.fill_bits(out)
            }
            FaultKind::Intermittent => Err(EngineError::SourceFault {
                reason: format!(
                    "injected intermittent death on child {} ({})",
                    self.plan.child,
                    self.inner.label()
                ),
            }),
            FaultKind::Overclaim { p_stay } => {
                for slot in out.iter_mut() {
                    let bit = match self.last_bit {
                        Some(last) if self.rng.gen_bool(p_stay) => last,
                        Some(last) => 1 - last,
                        None => u8::from(self.rng.gen_bool(0.5)),
                    };
                    self.last_bit = Some(bit);
                    *slot = bit;
                }
                Ok(())
            }
        }
    }

    fn supports_thermal_sweep(&self) -> bool {
        self.inner.supports_thermal_sweep()
    }

    fn sigma2_sweep(&mut self, depths: &[usize]) -> Result<Option<Vec<Sigma2NPoint>>> {
        let collapsed = self.active() && matches!(self.plan.kind, FaultKind::VarianceCollapse);
        let mut sweep = self.inner.sigma2_sweep(depths)?;
        for point in sweep.iter_mut().flatten().filter(|_| collapsed) {
            point.sigma2_n *= 1e-4;
        }
        Ok(sweep)
    }

    fn poll_events(&mut self) -> Vec<SourceEvent> {
        self.inner.poll_events()
    }

    fn poll_audits(&mut self) -> Vec<(usize, AuditRecord)> {
        self.inner.poll_audits()
    }

    fn current_entropy_per_bit(&self) -> f64 {
        self.inner.current_entropy_per_bit()
    }

    fn children_status(&self) -> Vec<ChildStatus> {
        self.inner.children_status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ModelSource, SourceSpec};

    fn model() -> Box<dyn EntropySource> {
        Box::new(ModelSource::new(0.5, 7).unwrap())
    }

    #[test]
    fn plans_parse_with_defaults_and_sizes() {
        let plan = FaultPlan::parse("child=1,at=2MiB,kind=stuck").unwrap();
        assert_eq!(plan.child, 1);
        assert_eq!(plan.at_bytes, 2 << 20);
        assert_eq!(plan.for_bytes, u64::MAX);
        assert_eq!(plan.kind, FaultKind::Stuck);
        assert_eq!(plan.seed, DEFAULT_FAULT_SEED);

        let plan = FaultPlan::parse("child=0,kind=stall,ms=50,at=4KiB,for=8KiB,seed=9").unwrap();
        assert_eq!(plan.kind, FaultKind::Stall { ms: 50 });
        assert_eq!(plan.at_bytes, 4096);
        assert_eq!(plan.for_bytes, 8192);
        assert_eq!(plan.seed, 9);

        let plan = FaultPlan::parse("child=2,kind=bias-drift,p=0.8").unwrap();
        assert_eq!(plan.kind, FaultKind::BiasDrift { p_one: 0.8 });
        let plan = FaultPlan::parse("child=2,kind=overclaim").unwrap();
        assert_eq!(
            plan.kind,
            FaultKind::Overclaim {
                p_stay: DEFAULT_OVERCLAIM_P_STAY
            }
        );
        let plan = FaultPlan::parse("child=0,kind=intermittent,at=100b").unwrap();
        assert_eq!(plan.at_bytes, 100);
        assert_eq!(
            FaultPlan::parse("child=0,kind=variance-collapse")
                .unwrap()
                .kind,
            FaultKind::VarianceCollapse
        );
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(FaultPlan::parse("kind=stuck").is_err());
        assert!(FaultPlan::parse("child=0").is_err());
        assert!(FaultPlan::parse("child=0,kind=meteor").is_err());
        assert!(FaultPlan::parse("child=0,kind=stuck,at=oops").is_err());
        assert!(FaultPlan::parse("child=0,kind=stuck,banana").is_err());
        assert!(FaultPlan::parse("child=0,kind=stuck,zone=5").is_err());
        assert!(FaultPlan::parse("child=0,kind=overclaim,p=1.5").is_err());
    }

    #[test]
    fn stuck_fault_activates_inside_its_window_only() {
        let plan = FaultPlan::parse("child=0,kind=stuck,at=128b,for=128b").unwrap();
        let mut source = FaultSource::new(model(), plan);
        assert_eq!(source.label(), "model(p_one=0.5)");
        assert_eq!(source.entropy_per_bit(), 1.0);

        let mut bits = vec![0u8; 1024]; // 128 bytes: before the window.
        source.fill_bits(&mut bits).unwrap();
        assert!(bits.contains(&1), "healthy bits before `at`");
        source.fill_bits(&mut bits).unwrap();
        assert!(bits.iter().all(|&b| b == 0), "stuck inside the window");
        source.fill_bits(&mut bits).unwrap();
        assert!(bits.contains(&1), "recovered after `for`");
    }

    #[test]
    fn bias_drift_and_overclaim_shape_the_bits() {
        let plan = FaultPlan::parse("child=0,kind=bias-drift,p=0.95").unwrap();
        let mut source = FaultSource::new(model(), plan);
        let mut bits = vec![0u8; 20_000];
        source.fill_bits(&mut bits).unwrap();
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        assert!(ones as f64 / bits.len() as f64 > 0.9);

        let plan = FaultPlan::parse("child=0,kind=overclaim,p=0.8").unwrap();
        let mut source = FaultSource::new(model(), plan);
        source.fill_bits(&mut bits).unwrap();
        // Balanced marginals...
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        let p_one = ones as f64 / bits.len() as f64;
        assert!((p_one - 0.5).abs() < 0.05, "marginal p = {p_one}");
        // ...but strong first-order dependence: stay fraction near p_stay.
        let stays = bits.windows(2).filter(|w| w[0] == w[1]).count();
        let p_stay = stays as f64 / (bits.len() - 1) as f64;
        assert!((p_stay - 0.8).abs() < 0.02, "stay fraction {p_stay}");
    }

    #[test]
    fn intermittent_fault_fails_draws_then_recovers() {
        let plan = FaultPlan::parse("child=0,kind=intermittent,for=16b").unwrap();
        let mut source = FaultSource::new(model(), plan);
        let mut bits = vec![0u8; 64];
        assert!(source.fill_bits(&mut bits).is_err());
        assert!(source.fill_bits(&mut bits).is_err());
        // 16 bytes = 128 bits drawn; the window has passed.
        assert!(source.fill_bits(&mut bits).is_ok());
    }

    #[test]
    fn variance_collapse_scales_the_sweep_but_not_the_bits() {
        let spec = SourceSpec::parse("ero:4").unwrap();
        let inner = spec.build(11).unwrap();
        let plan = FaultPlan::parse("child=0,kind=variance-collapse").unwrap();
        let mut faulted = FaultSource::new(inner, plan);
        let mut healthy = spec.build(11).unwrap();
        assert!(faulted.supports_thermal_sweep());

        // The bits pass through unchanged...
        let mut bits = vec![0u8; 4096];
        let mut twin = vec![0u8; 4096];
        faulted.fill_bits(&mut bits).unwrap();
        healthy.fill_bits(&mut twin).unwrap();
        assert_eq!(bits, twin);

        // ...while the sweep of the same counts reads collapsed.
        let depths = [256usize, 512];
        let collapsed = faulted.sigma2_sweep(&depths).unwrap().unwrap();
        let reference = healthy.sigma2_sweep(&depths).unwrap().unwrap();
        assert!(collapsed.len() >= 2, "{collapsed:?}");
        assert_eq!(collapsed.len(), reference.len());
        for (c, r) in collapsed.iter().zip(&reference) {
            assert_eq!(c.n, r.n);
            assert!(
                c.sigma2_n / r.sigma2_n < 1e-3,
                "collapsed {c:?} vs reference {r:?}"
            );
        }
    }

    #[test]
    fn stall_fault_adds_latency() {
        let plan = FaultPlan::parse("child=0,kind=stall,ms=30").unwrap();
        let mut source = FaultSource::new(model(), plan);
        let mut bits = vec![0u8; 64];
        let start = std::time::Instant::now();
        source.fill_bits(&mut bits).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(30));
    }
}
