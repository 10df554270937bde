//! The conditioning pipeline: composable post-processing stages that carry an
//! explicit **entropy ledger** from the noise source to the emitted bits.
//!
//! The paper's central warning is that crediting entropy under the mutual-independence
//! assumption overstates what an eRO-TRNG actually delivers; the corrected
//! (dependent-jitter-aware) bound must therefore be *propagated*, not asserted.  This
//! module makes that propagation a first-class object:
//!
//! * [`EntropyLedger`] — the accounted min-entropy per bit, the worst-case bias it
//!   corresponds to, and the throughput rate, seeded from the stochastic model's
//!   thermal-only (dependent-jitter) lower bound and transformed by every stage,
//! * [`ConditioningStage`] — a block-in/block-out streaming transformation with zero
//!   steady-state allocation (partial groups are carried across calls), mirroring the
//!   block pipeline's `fill_block` style,
//! * [`XorDecimateStage`] / [`VonNeumannStage`] — the algebraic correctors with their
//!   exact bias/rate algebra (piling-up lemma; von Neumann pair statistics),
//! * [`Sha256Stage`] — an SP 800-90B §3.1.5 *vetted conditioner* built on the
//!   workspace's FIPS 180-4 [`crate::sha256`] implementation, whose ledger update uses
//!   the specification's output-entropy bound,
//! * [`ConditioningChain`] — a sequence of stages processed through ping-pong scratch
//!   buffers, with the folded ledger of the whole chain.
//!
//! Bits are represented as one `0`/`1` value per byte, like everywhere else in the
//! workspace; stages *append* to their output buffer so a chain can stream through
//! reused scratch.

use serde::{Deserialize, Serialize};

use ptrng_ais::bits::{ensure_bits, unpack_into, PartialByte};
use ptrng_ais::sp80090b::conditioned_output_entropy;
use ptrng_obs::Probe;
use ptrng_stats::minentropy::{bias_from_min_entropy, min_entropy_from_bias};

use crate::postprocess::xor_output_bias;
use crate::sha256::{Sha256, DIGEST_BITS};
use crate::{Result, TrngError};

/// End-to-end entropy accounting of a conditioning pipeline.
///
/// The ledger tracks three coupled quantities:
///
/// * **min-entropy per bit** `h ∈ (0, 1]` — the quantity emission policies and
///   SP 800-90B cutoff calibration consume,
/// * **bias** `ε = 2^{−h} − 1/2` — the worst-case bias consistent with `h`, the
///   representation in which the algebraic stages compose exactly,
/// * **rate** — expected output bits per raw source bit, so throughput planning and
///   entropy accounting share one object.
///
/// A trail of human-readable entries records every transformation for reports and
/// refusal diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyLedger {
    min_entropy_per_bit: f64,
    bias: f64,
    rate: f64,
    trail: Vec<String>,
}

impl EntropyLedger {
    /// Seeds the ledger at the noise source from a model-backed min-entropy claim —
    /// for an eRO-TRNG, the stochastic model's *thermal-only* lower bound
    /// ([`crate::stochastic::EntropyModel::entropy_bound_thermal`]), i.e. the
    /// dependent-jitter-aware reading the paper mandates.
    ///
    /// # Errors
    ///
    /// Returns an error when `min_entropy_per_bit` is outside `(0, 1]`.
    pub fn source(label: &str, min_entropy_per_bit: f64) -> Result<Self> {
        let bias = bias_from_min_entropy(min_entropy_per_bit)?;
        Ok(Self {
            min_entropy_per_bit,
            bias,
            rate: 1.0,
            trail: vec![format!(
                "source {label}: h/bit {min_entropy_per_bit:.6}, bias {bias:.3e}"
            )],
        })
    }

    /// Accounted min-entropy per bit at this point of the pipeline, in `(0, 1]`.
    pub fn min_entropy_per_bit(&self) -> f64 {
        self.min_entropy_per_bit
    }

    /// Worst-case bias `|p − 1/2|` consistent with the accounted min-entropy.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Expected output bits per raw source bit at this point of the pipeline.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The transformation trail, one entry per source/stage.
    pub fn trail(&self) -> &[String] {
        &self.trail
    }

    /// Accounted min-entropy (in bits) carried by `output_bits` emitted bits.
    pub fn accounted_bits(&self, output_bits: u64) -> f64 {
        self.min_entropy_per_bit * output_bits as f64
    }

    /// The canonical machine-readable rendering of the ledger: compact JSON with the
    /// fields `min_entropy_per_bit`, `bias`, `rate` and `trail`.
    ///
    /// This is the **public contract** consumed outside the process — `ptrngd --stats`
    /// prints it, the engine's entropy-deficit refusal carries it, and `ptrng-serve`
    /// returns it verbatim in the `X-PTRNG-Ledger` header and the HTTP 503 refusal
    /// body.  [`EntropyLedger::from_json`] round-trips it bit-exactly (floats use
    /// shortest round-trip formatting).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a ledger contains only finite floats and strings")
    }

    /// Parses a ledger from its canonical JSON form (see [`EntropyLedger::to_json`])
    /// and re-validates the accounting invariants.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or when the parsed accounting is outside its
    /// valid domain (`h ∉ (0, 1]`, negative bias, non-positive rate).
    pub fn from_json(text: &str) -> Result<Self> {
        let ledger: Self = serde_json::from_str(text).map_err(|e| TrngError::InvalidParameter {
            name: "ledger_json",
            reason: e.to_string(),
        })?;
        if !(ledger.min_entropy_per_bit > 0.0 && ledger.min_entropy_per_bit <= 1.0) {
            return Err(TrngError::InvalidParameter {
                name: "ledger_json",
                reason: format!(
                    "min_entropy_per_bit must be in (0, 1], got {}",
                    ledger.min_entropy_per_bit
                ),
            });
        }
        if !(ledger.bias >= 0.0 && ledger.bias <= 0.5) {
            return Err(TrngError::InvalidParameter {
                name: "ledger_json",
                reason: format!("bias must be in [0, 1/2], got {}", ledger.bias),
            });
        }
        if !(ledger.rate.is_finite() && ledger.rate > 0.0) {
            return Err(TrngError::InvalidParameter {
                name: "ledger_json",
                reason: format!("rate must be positive and finite, got {}", ledger.rate),
            });
        }
        Ok(ledger)
    }

    /// Combines the ledgers of pool children whose bits are XOR-mixed
    /// bit-for-bit into one output bit.
    ///
    /// The accounting is the heterogeneous piling-up lemma:
    /// `ε = 2^{K−1}·∏εᵢ = ½·∏(2εᵢ)` — each factor `2εᵢ ≤ 1`, so the mixed bias is
    /// never worse than **any** child's bias and the credited min-entropy is at
    /// least the best child's.  Crucially the combination stays *conservative*:
    /// every child contributes only its own (dependent-jitter-aware) bound, and
    /// since the credit is monotone increasing in each child's claim, a pool fed
    /// honest per-child bounds can never account more than the same pool fed the
    /// independence-assuming (optimistic) claims the paper warns against.
    /// Removing a child (quarantine) divides the product by its `2εⱼ ≤ 1`, so the
    /// credit is monotone non-increasing under quarantine.
    ///
    /// The rate is `1/K`: the pool consumes one raw bit from each of the `K`
    /// children per emitted bit.
    ///
    /// # Errors
    ///
    /// Returns an error when `children` is empty.
    pub fn xor_mix(label: &str, children: &[EntropyLedger]) -> Result<Self> {
        if children.is_empty() {
            return Err(TrngError::InvalidParameter {
                name: "children",
                reason: "an XOR mix needs at least one child ledger".to_string(),
            });
        }
        let mut bias = 0.5;
        for child in children {
            bias *= 2.0 * child.bias();
        }
        let min_entropy_per_bit = min_entropy_from_bias(bias)?;
        let rate = 1.0 / children.len() as f64;
        let mut trail: Vec<String> = Vec::with_capacity(children.len() + 1);
        for (index, child) in children.iter().enumerate() {
            trail.push(format!(
                "pool child {index}: h/bit {:.6}, bias {:.3e} [{}]",
                child.min_entropy_per_bit(),
                child.bias(),
                child.trail().join(" → ")
            ));
        }
        trail.push(format!(
            "xor-mix {label}: h/bit {min_entropy_per_bit:.6}, bias {bias:.3e}, rate ×{rate:.4}"
        ));
        Ok(Self {
            min_entropy_per_bit,
            bias,
            rate,
            trail,
        })
    }

    /// A new ledger with the given stage transformation appended.
    fn derived(&self, label: &str, min_entropy_per_bit: f64, bias: f64, rate_factor: f64) -> Self {
        let mut trail = self.trail.clone();
        trail.push(format!(
            "{label}: h/bit {min_entropy_per_bit:.6}, bias {bias:.3e}, rate ×{rate_factor:.4}"
        ));
        Self {
            min_entropy_per_bit,
            bias,
            rate: self.rate * rate_factor,
            trail,
        }
    }
}

impl std::fmt::Display for EntropyLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "h/bit {:.6} (bias {:.3e}, rate {:.4}): {}",
            self.min_entropy_per_bit,
            self.bias,
            self.rate,
            self.trail.join(" → ")
        )
    }
}

/// One streaming conditioning transformation: bits in, bits out, ledger through.
///
/// Implementations buffer partial groups (XOR groups, von Neumann pairs, SHA-256
/// input blocks) across calls, so arbitrary batch boundaries are transparent and the
/// steady state allocates nothing beyond the caller's output buffer.
pub trait ConditioningStage: Send {
    /// Short human-readable stage description (CLI-spec style, e.g. `xor:4`).
    fn label(&self) -> String;

    /// Consumes `input` bits and **appends** the conditioned bits to `out`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input contains non-bit values.
    fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()>;

    /// The ledger of this stage's output, given the ledger of its input.
    ///
    /// # Errors
    ///
    /// Returns an error when the resulting accounting leaves the valid domain.
    fn transform(&self, ledger: &EntropyLedger) -> Result<EntropyLedger>;
}

/// Streaming XOR decimation: each output bit is the parity of `factor` consecutive
/// input bits; a partial group is carried to the next call.
///
/// Ledger algebra (piling-up lemma): `ε' = 2^{K−1}·ε^K`, rate `×1/K` — exactly
/// [`xor_output_bias`], so chained XOR stages compose like a single stage with the
/// product of the factors.
#[derive(Debug, Clone)]
pub struct XorDecimateStage {
    factor: usize,
    parity: u8,
    filled: usize,
}

impl XorDecimateStage {
    /// Creates the stage.
    ///
    /// # Errors
    ///
    /// Returns an error when `factor == 0`.
    pub fn new(factor: usize) -> Result<Self> {
        if factor == 0 {
            return Err(TrngError::InvalidParameter {
                name: "factor",
                reason: "the decimation factor must be at least 1".to_string(),
            });
        }
        Ok(Self {
            factor,
            parity: 0,
            filled: 0,
        })
    }
}

impl ConditioningStage for XorDecimateStage {
    fn label(&self) -> String {
        format!("xor:{}", self.factor)
    }

    fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        ensure_bits(input)?;
        out.reserve((self.filled + input.len()) / self.factor);
        for &bit in input {
            self.parity ^= bit;
            self.filled += 1;
            if self.filled == self.factor {
                out.push(self.parity);
                self.parity = 0;
                self.filled = 0;
            }
        }
        Ok(())
    }

    fn transform(&self, ledger: &EntropyLedger) -> Result<EntropyLedger> {
        let bias = xor_output_bias(ledger.bias(), self.factor)?;
        let h = min_entropy_from_bias(bias)?;
        Ok(ledger.derived(&self.label(), h, bias, 1.0 / self.factor as f64))
    }
}

/// Streaming von Neumann corrector: non-overlapping pairs, `01 → 0`, `10 → 1`,
/// `00`/`11` dropped; an odd trailing bit is carried to the next call.
///
/// Ledger algebra: the expected rate per input bit is `2p(1−p)/2 = 1/4 − ε²`.
/// The classical exactness result (output exactly unbiased) holds only for
/// *independent* pairs — precisely the assumption the paper warns against — so the
/// ledger does not saturate the claim at 1 bit/bit: the credited min-entropy is
/// capped by the `2·h` budget the kept pair actually carried (a corrector cannot
/// create entropy), which keeps a degraded source from laundering its deficit
/// through `vn` past a `min-h` emission policy.
#[derive(Debug, Clone, Default)]
pub struct VonNeumannStage {
    pending: Option<u8>,
}

impl VonNeumannStage {
    /// Creates the stage.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConditioningStage for VonNeumannStage {
    fn label(&self) -> String {
        "vn".to_string()
    }

    fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        ensure_bits(input)?;
        for &bit in input {
            match self.pending.take() {
                None => self.pending = Some(bit),
                Some(first) => {
                    if first != bit {
                        out.push(first);
                    }
                }
            }
        }
        Ok(())
    }

    fn transform(&self, ledger: &EntropyLedger) -> Result<EntropyLedger> {
        // Credit at most the budget of the consumed pair: exactly unbiased under the
        // independent-pair model, but never more than 2·h bits per emitted bit.
        let h = (2.0 * ledger.min_entropy_per_bit()).min(1.0);
        let bias = bias_from_min_entropy(h)?;
        let rate_factor = 0.25 - ledger.bias() * ledger.bias();
        Ok(ledger.derived(&self.label(), h, bias, rate_factor))
    }
}

/// Default input/output compression ratio of the SHA-256 conditioning stage.
pub const SHA256_DEFAULT_RATIO: usize = 2;

/// Streaming SP 800-90B §3.1.5 vetted conditioner: collects `ratio × 256` input
/// bits (packed MSB-first as they arrive), hashes them with [`Sha256`] and emits the
/// 256-bit digest as output bits.
///
/// Ledger algebra: the accounted output min-entropy per block follows the
/// specification's vetted-conditioner bound
/// ([`conditioned_output_entropy`]) with `n_in = 256·ratio`, `n_out = nw = 256`
/// and `h_in = h·n_in`; the rate is `×1/ratio`.
pub struct Sha256Stage {
    ratio: usize,
    /// Packed input bytes of the current conditioning block.
    message: Vec<u8>,
    /// Input bits of a byte not yet complete, carried across calls.
    partial: PartialByte,
}

impl Sha256Stage {
    /// Creates the stage with the given input/output ratio (input bits consumed per
    /// output bit).
    ///
    /// # Errors
    ///
    /// Returns an error when `ratio == 0`.
    pub fn new(ratio: usize) -> Result<Self> {
        if ratio == 0 {
            return Err(TrngError::InvalidParameter {
                name: "ratio",
                reason: "the conditioning ratio must be at least 1".to_string(),
            });
        }
        Ok(Self {
            ratio,
            message: Vec::new(),
            partial: PartialByte::new(),
        })
    }

    /// Input bits consumed per conditioning block.
    fn block_bits(&self) -> usize {
        self.ratio * DIGEST_BITS
    }
}

impl ConditioningStage for Sha256Stage {
    fn label(&self) -> String {
        format!("sha256:{}", self.ratio)
    }

    fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        ensure_bits(input)?;
        let block_bits = self.block_bits();
        let mut rest = input;
        while !rest.is_empty() {
            let fed_bits = self.message.len() * 8 + self.partial.len();
            let (now, later) = rest.split_at(rest.len().min(block_bits - fed_bits));
            self.partial.pack(now, &mut self.message);
            rest = later;
            // Block widths are multiples of 8, so a complete block leaves no partial
            // byte, and its message is whole 64-byte blocks (plus 32 bytes for an odd
            // ratio).
            if self.message.len() * 8 == block_bits {
                unpack_into(&Sha256::digest(&self.message), out);
                self.message.clear();
            }
        }
        Ok(())
    }

    fn transform(&self, ledger: &EntropyLedger) -> Result<EntropyLedger> {
        let n_in = self.block_bits() as f64;
        let h_in = ledger.min_entropy_per_bit() * n_in;
        let h_out_block =
            conditioned_output_entropy(n_in, DIGEST_BITS as f64, DIGEST_BITS as f64, h_in)?;
        // Per output bit; the block never credits more than 1 bit/bit.
        let h = (h_out_block / DIGEST_BITS as f64).min(1.0);
        if h <= 0.0 {
            return Err(TrngError::InvalidParameter {
                name: "ledger",
                reason: format!("conditioned output entropy collapsed to {h}"),
            });
        }
        let bias = bias_from_min_entropy(h)?;
        Ok(ledger.derived(&self.label(), h, bias, 1.0 / self.ratio as f64))
    }
}

/// A sequence of conditioning stages streamed through ping-pong scratch buffers.
///
/// The empty chain is the identity (raw bits pass through); [`ConditioningChain::process`]
/// performs no steady-state allocation beyond growing the caller's output buffer.
pub struct ConditioningChain {
    stages: Vec<Box<dyn ConditioningStage>>,
    /// Optional per-stage latency probes (`probes[i]` times `stages[i]`); empty when
    /// the chain is not instrumented, in which case [`ConditioningChain::process`]
    /// takes no timestamps at all.
    probes: Vec<Probe>,
    ping: Vec<u8>,
    pong: Vec<u8>,
}

impl ConditioningChain {
    /// Builds a chain from stages (first stage sees the raw bits).
    pub fn new(stages: Vec<Box<dyn ConditioningStage>>) -> Self {
        Self {
            stages,
            probes: Vec::new(),
            ping: Vec::new(),
            pong: Vec::new(),
        }
    }

    /// The identity chain: output bits are the input bits.
    pub fn identity() -> Self {
        Self::new(Vec::new())
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages — i.e. it is the identity.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Whether this is the identity chain (alias of [`ConditioningChain::is_empty`]
    /// reading as intent at call sites).
    pub fn is_identity(&self) -> bool {
        self.is_empty()
    }

    /// Per-stage labels in pipeline order, e.g. `["xor:4", "sha256:2"]` (empty for
    /// the identity chain) — the label vocabulary latency histograms key on.
    pub fn stage_labels(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.label()).collect()
    }

    /// Attaches one latency [`Probe`] per stage; each call to
    /// [`ConditioningChain::process`] then records every stage's wall-clock time
    /// into the matching probe.  Passing an empty vector removes instrumentation.
    ///
    /// # Panics
    ///
    /// Panics when a non-empty `probes` does not have exactly one probe per stage.
    pub fn instrument(&mut self, probes: Vec<Probe>) {
        assert!(
            probes.is_empty() || probes.len() == self.stages.len(),
            "probe count {} does not match stage count {}",
            probes.len(),
            self.stages.len()
        );
        self.probes = probes;
    }

    /// Human-readable chain description, e.g. `xor:4 → sha256:2` (or `identity`).
    pub fn label(&self) -> String {
        if self.stages.is_empty() {
            return "identity".to_string();
        }
        self.stages
            .iter()
            .map(|s| s.label())
            .collect::<Vec<_>>()
            .join(" → ")
    }

    /// Streams `input` through every stage, **appending** the conditioned bits to
    /// `out`.  Partial groups buffered inside the stages carry over to the next call.
    ///
    /// # Errors
    ///
    /// Returns an error when the input contains non-bit values.
    pub fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
        match self.stages.len() {
            0 => {
                ensure_bits(input)?;
                out.extend_from_slice(input);
                Ok(())
            }
            1 => run_stage(&mut self.stages[0], self.probes.first(), input, out),
            n => {
                let Self {
                    stages,
                    probes,
                    ping,
                    pong,
                } = self;
                ping.clear();
                run_stage(&mut stages[0], probes.first(), input, ping)?;
                for (index, stage) in stages[1..n - 1].iter_mut().enumerate() {
                    pong.clear();
                    run_stage(stage, probes.get(index + 1), ping, pong)?;
                    std::mem::swap(ping, pong);
                }
                run_stage(&mut stages[n - 1], probes.get(n - 1), ping, out)
            }
        }
    }

    /// Folds the ledger of the whole chain from the source ledger.
    ///
    /// # Errors
    ///
    /// Returns an error when a stage's accounting leaves the valid domain.
    pub fn transform(&self, ledger: &EntropyLedger) -> Result<EntropyLedger> {
        let mut current = ledger.clone();
        for stage in &self.stages {
            current = stage.transform(&current)?;
        }
        Ok(current)
    }
}

/// Runs one stage, timing it through `probe` when the chain is instrumented.
fn run_stage(
    stage: &mut Box<dyn ConditioningStage>,
    probe: Option<&Probe>,
    input: &[u8],
    out: &mut Vec<u8>,
) -> Result<()> {
    match probe {
        Some(probe) => probe.time(|| stage.process(input, out)),
        None => stage.process(input, out),
    }
}

impl std::fmt::Debug for ConditioningChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConditioningChain")
            .field("stages", &self.label())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postprocess::{von_neumann, xor_decimate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn biased_bits(len: usize, p_one: f64, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| u8::from(rng.gen_bool(p_one))).collect()
    }

    #[test]
    fn ledger_seeds_from_a_claim() {
        let ledger = EntropyLedger::source("test", 0.9).unwrap();
        assert_eq!(ledger.min_entropy_per_bit(), 0.9);
        assert!((ledger.bias() - (2.0f64.powf(-0.9) - 0.5)).abs() < 1e-15);
        assert_eq!(ledger.rate(), 1.0);
        assert_eq!(ledger.trail().len(), 1);
        assert!(EntropyLedger::source("bad", 0.0).is_err());
        assert!(EntropyLedger::source("bad", 1.5).is_err());
        assert!((ledger.accounted_bits(1000) - 900.0).abs() < 1e-9);
        assert!(ledger.to_string().contains("source test"));
    }

    #[test]
    fn ledger_json_round_trips_bit_exactly() {
        // A multi-stage ledger exercises every field: irrational h/bias/rate values
        // and a multi-entry trail.
        let source = EntropyLedger::source("ero:16:strong", 0.9973).unwrap();
        let chain = ConditioningChain::new(vec![
            Box::new(XorDecimateStage::new(3).unwrap()),
            Box::new(Sha256Stage::new(2).unwrap()),
        ]);
        let ledger = chain.transform(&source).unwrap();

        let json = ledger.to_json();
        assert!(json.contains("\"min_entropy_per_bit\""), "{json}");
        assert!(json.contains("xor:3"), "{json}");
        let back = EntropyLedger::from_json(&json).unwrap();
        // Bit-exact: the vendored serde_json renders floats with shortest
        // round-trip formatting.
        assert_eq!(back, ledger);
        assert_eq!(back.to_json(), json);

        // The canonical form is validated on the way in, not just parsed.
        assert!(EntropyLedger::from_json("{not json").is_err());
        let mut bad = ledger.clone();
        bad.min_entropy_per_bit = 1.5;
        assert!(EntropyLedger::from_json(&bad.to_json()).is_err());
        bad.min_entropy_per_bit = 0.5;
        bad.rate = 0.0;
        assert!(EntropyLedger::from_json(&bad.to_json()).is_err());
        bad.rate = 0.5;
        bad.bias = -0.1;
        assert!(EntropyLedger::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn xor_mix_follows_the_piling_up_algebra() {
        let a = EntropyLedger::source("a", 0.2).unwrap();
        let b = EntropyLedger::source("b", 0.5).unwrap();
        let c = EntropyLedger::source("c", 0.9).unwrap();
        let mix = EntropyLedger::xor_mix("pool", &[a.clone(), b.clone(), c.clone()]).unwrap();

        // ε = ½·(2ε_a)(2ε_b)(2ε_c).
        let expected = 0.5 * (2.0 * a.bias()) * (2.0 * b.bias()) * (2.0 * c.bias());
        assert!((mix.bias() - expected).abs() < 1e-15);
        // The mix is never worse than the best child.
        assert!(mix.min_entropy_per_bit() >= c.min_entropy_per_bit());
        assert!((mix.rate() - 1.0 / 3.0).abs() < 1e-15);
        // Trail: one entry per child plus the mix line.
        assert_eq!(mix.trail().len(), 4);
        assert!(mix.trail()[3].contains("xor-mix pool"));

        // Quarantining the strongest child strictly reduces the credit.
        let reduced = EntropyLedger::xor_mix("pool", &[a.clone(), b.clone()]).unwrap();
        assert!(reduced.min_entropy_per_bit() < mix.min_entropy_per_bit());

        // Degenerate single-child mix: the child's own accounting at rate 1.
        let single = EntropyLedger::xor_mix("pool", std::slice::from_ref(&a)).unwrap();
        assert!((single.bias() - a.bias()).abs() < 1e-15);
        assert!((single.min_entropy_per_bit() - a.min_entropy_per_bit()).abs() < 1e-12);

        assert!(EntropyLedger::xor_mix("pool", &[]).is_err());
    }

    #[test]
    fn xor_stage_streams_like_the_batch_function() {
        let bits = biased_bits(10_000, 0.6, 1);
        let mut stage = XorDecimateStage::new(3).unwrap();
        let mut streamed = Vec::new();
        // Deliberately misaligned chunking: carries must bridge the boundaries.
        for chunk in bits.chunks(7) {
            stage.process(chunk, &mut streamed).unwrap();
        }
        let reference = xor_decimate(&bits[..(bits.len() / 3) * 3], 3).unwrap();
        assert_eq!(streamed, reference);
    }

    #[test]
    fn von_neumann_stage_streams_like_the_batch_function() {
        let bits = biased_bits(10_000, 0.7, 2);
        let mut stage = VonNeumannStage::new();
        let mut streamed = Vec::new();
        for chunk in bits.chunks(5) {
            stage.process(chunk, &mut streamed).unwrap();
        }
        assert_eq!(streamed, von_neumann(&bits).unwrap());
    }

    #[test]
    fn stages_reject_non_bits() {
        let mut out = Vec::new();
        assert!(XorDecimateStage::new(0).is_err());
        assert!(XorDecimateStage::new(2)
            .unwrap()
            .process(&[0, 2], &mut out)
            .is_err());
        assert!(VonNeumannStage::new().process(&[3], &mut out).is_err());
        assert!(Sha256Stage::new(0).is_err());
        assert!(Sha256Stage::new(1)
            .unwrap()
            .process(&[9], &mut out)
            .is_err());
        assert!(ConditioningChain::identity()
            .process(&[7], &mut out)
            .is_err());
    }

    #[test]
    fn sha256_stage_emits_digest_blocks() {
        // ratio 2: 512 input bits per 256 output bits.
        let bits = biased_bits(512 * 3 + 100, 0.5, 3);
        let mut stage = Sha256Stage::new(2).unwrap();
        let mut out = Vec::new();
        for chunk in bits.chunks(111) {
            stage.process(chunk, &mut out).unwrap();
        }
        // Three full blocks emitted; the trailing 100 bits are still buffered.
        assert_eq!(out.len(), 3 * 256);
        assert!(out.iter().all(|&b| b <= 1));

        // First block must equal the one-shot digest of the packed first 512 bits.
        let packed = ptrng_ais::bits::pack_bits(&bits[..512]).unwrap();
        let digest = Sha256::digest(&packed);
        let expected: Vec<u8> = digest
            .iter()
            .flat_map(|&byte| (0..8).rev().map(move |s| (byte >> s) & 1))
            .collect();
        assert_eq!(&out[..256], &expected[..]);
    }

    #[test]
    fn sha256_stage_debiases_a_biased_stream() {
        let bits = biased_bits(512 * 40, 0.6, 4);
        let mut stage = Sha256Stage::new(2).unwrap();
        let mut out = Vec::new();
        stage.process(&bits, &mut out).unwrap();
        assert_eq!(out.len(), 256 * 40);
        let p = out.iter().map(|&b| b as f64).sum::<f64>() / out.len() as f64;
        assert!((p - 0.5).abs() < 0.02, "p(1) = {p}");
    }

    #[test]
    fn ledger_follows_the_xor_algebra() {
        let ledger = EntropyLedger::source("model", 0.415).unwrap();
        let out = XorDecimateStage::new(4)
            .unwrap()
            .transform(&ledger)
            .unwrap();
        let expected = xor_output_bias(ledger.bias(), 4).unwrap();
        assert!((out.bias() - expected).abs() < 1e-15);
        assert!(out.min_entropy_per_bit() > ledger.min_entropy_per_bit());
        assert!((out.rate() - 0.25).abs() < 1e-15);
        assert_eq!(out.trail().len(), 2);
    }

    #[test]
    fn ledger_follows_the_von_neumann_algebra() {
        // Near-full-entropy input: the pair budget 2·h exceeds 1, so the classical
        // exactly-unbiased credit applies.
        let strong = EntropyLedger::source("model", 0.9).unwrap();
        let eps = strong.bias();
        let out = VonNeumannStage::new().transform(&strong).unwrap();
        assert_eq!(out.min_entropy_per_bit(), 1.0);
        assert_eq!(out.bias(), 0.0);
        assert!((out.rate() - (0.25 - eps * eps)).abs() < 1e-15);

        // Degraded input: the credit is capped by the consumed pair budget, so `vn`
        // cannot launder an entropy deficit past an emission policy.
        let weak = EntropyLedger::source("model", 0.074).unwrap();
        let out = VonNeumannStage::new().transform(&weak).unwrap();
        assert!((out.min_entropy_per_bit() - 0.148).abs() < 1e-12);
        assert!(out.bias() > 0.0);
    }

    #[test]
    fn sha256_ledger_caps_at_output_width_and_respects_input_entropy() {
        // Near-full-entropy input: ratio 2 accounts (essentially) full output entropy.
        let strong = EntropyLedger::source("strong", 0.9996).unwrap();
        let out = Sha256Stage::new(2).unwrap().transform(&strong).unwrap();
        assert!(out.min_entropy_per_bit() > 0.999, "{}", out);
        assert!((out.rate() - 0.5).abs() < 1e-15);

        // Degraded input: the conditioner cannot create entropy.
        let weak = EntropyLedger::source("weak", 0.074).unwrap();
        let out = Sha256Stage::new(2).unwrap().transform(&weak).unwrap();
        assert!(
            out.min_entropy_per_bit() < 2.0 * 0.074 + 1e-6,
            "{}",
            out.min_entropy_per_bit()
        );
        assert!(out.min_entropy_per_bit() > 0.074);
    }

    #[test]
    fn chain_processes_and_accounts_multi_stage() {
        let bits = biased_bits(512 * 8 * 4, 0.6, 5);
        let mut chain = ConditioningChain::new(vec![
            Box::new(XorDecimateStage::new(2).unwrap()),
            Box::new(Sha256Stage::new(2).unwrap()),
        ]);
        assert_eq!(chain.len(), 2);
        assert!(!chain.is_identity());
        assert_eq!(chain.label(), "xor:2 → sha256:2");
        let mut out = Vec::new();
        for chunk in bits.chunks(1000) {
            chain.process(chunk, &mut out).unwrap();
        }
        assert_eq!(out.len(), bits.len() / 4);

        let ledger = chain
            .transform(&EntropyLedger::source("model", 0.415).unwrap())
            .unwrap();
        assert!((ledger.rate() - 0.25).abs() < 1e-12);
        assert_eq!(ledger.trail().len(), 3);

        // Equivalence with running the stages by hand.
        let mut xor = XorDecimateStage::new(2).unwrap();
        let mut sha = Sha256Stage::new(2).unwrap();
        let mut mid = Vec::new();
        xor.process(&bits, &mut mid).unwrap();
        let mut reference = Vec::new();
        sha.process(&mid, &mut reference).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn instrumented_chain_times_every_stage_without_changing_output() {
        use ptrng_obs::{EventKind, LogLinearHistogram};
        use std::sync::Arc;

        let bits = biased_bits(512 * 8 * 4, 0.6, 5);
        let make = || {
            ConditioningChain::new(vec![
                Box::new(XorDecimateStage::new(2).unwrap()) as Box<dyn ConditioningStage>,
                Box::new(Sha256Stage::new(2).unwrap()),
            ])
        };
        let mut plain = make();
        let mut timed = make();
        assert_eq!(timed.stage_labels(), vec!["xor:2", "sha256:2"]);
        let histograms: Vec<Arc<LogLinearHistogram>> = (0..2)
            .map(|_| Arc::new(LogLinearHistogram::new()))
            .collect();
        timed.instrument(
            histograms
                .iter()
                .map(|h| Probe::new(Arc::clone(h), EventKind::StageApplied))
                .collect(),
        );

        let (mut expected, mut got) = (Vec::new(), Vec::new());
        for chunk in bits.chunks(1000) {
            plain.process(chunk, &mut expected).unwrap();
            timed.process(chunk, &mut got).unwrap();
        }
        assert_eq!(got, expected);
        for histogram in &histograms {
            assert_eq!(histogram.count(), bits.chunks(1000).count() as u64);
        }
    }

    #[test]
    fn identity_chain_is_a_pass_through() {
        let bits = biased_bits(1000, 0.5, 6);
        let mut chain = ConditioningChain::identity();
        assert!(chain.is_identity());
        assert_eq!(chain.len(), 0);
        assert_eq!(chain.label(), "identity");
        let mut out = Vec::new();
        chain.process(&bits, &mut out).unwrap();
        assert_eq!(out, bits);
        let ledger = EntropyLedger::source("s", 0.8).unwrap();
        assert_eq!(chain.transform(&ledger).unwrap(), ledger);
    }

    #[test]
    fn three_stage_chain_ping_pongs_correctly() {
        let bits = biased_bits(512 * 4 * 2 * 3, 0.55, 7);
        let mut chain = ConditioningChain::new(vec![
            Box::new(XorDecimateStage::new(2).unwrap()),
            Box::new(XorDecimateStage::new(3).unwrap()),
            Box::new(Sha256Stage::new(2).unwrap()),
        ]);
        let mut out = Vec::new();
        chain.process(&bits, &mut out).unwrap();

        let mut single = ConditioningChain::new(vec![
            Box::new(XorDecimateStage::new(6).unwrap()),
            Box::new(Sha256Stage::new(2).unwrap()),
        ]);
        let mut reference = Vec::new();
        single.process(&bits, &mut reference).unwrap();
        assert_eq!(out, reference, "xor:2 → xor:3 must equal xor:6");
    }

    /// The per-bit SHA-256 stage the word kernels replaced: bits enter a byte one at
    /// a time, every byte is one `Sha256::update`, and every digest is unpacked bit by
    /// bit.
    struct PerBitSha256 {
        ratio: usize,
        hasher: Sha256,
        byte: u8,
        byte_filled: u8,
        fed_bits: usize,
    }

    impl PerBitSha256 {
        fn new(ratio: usize) -> Self {
            Self {
                ratio,
                hasher: Sha256::new(),
                byte: 0,
                byte_filled: 0,
                fed_bits: 0,
            }
        }

        fn process(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<()> {
            ensure_bits(input)?;
            for &bit in input {
                self.byte = (self.byte << 1) | bit;
                self.byte_filled += 1;
                if self.byte_filled == 8 {
                    self.hasher.update(&[self.byte]);
                    self.byte = 0;
                    self.byte_filled = 0;
                }
                self.fed_bits += 1;
                if self.fed_bits == self.ratio * DIGEST_BITS {
                    for byte in self.hasher.finalize_reset() {
                        for shift in (0..8).rev() {
                            out.push((byte >> shift) & 1);
                        }
                    }
                    self.fed_bits = 0;
                }
            }
            Ok(())
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Split anywhere, with or without a bad sample, the stage emits the bytes
            /// and errors of the per-bit stage.
            #[test]
            fn sha256_stage_matches_the_per_bit_stage(
                bits in proptest::collection::vec(0u8..=1, 0..3000),
                cuts in proptest::collection::vec(0usize..3000, 0..6),
                ratio in 1usize..4,
                bad in proptest::collection::vec(0usize..6000, 1),
            ) {
                let mut bits = bits.clone();
                if let Some(sample) = bits.get_mut(bad[0]) {
                    *sample = 2;
                }
                let mut cuts: Vec<usize> =
                    cuts.iter().copied().filter(|&cut| cut <= bits.len()).collect();
                cuts.sort_unstable();
                let mut stage = Sha256Stage::new(ratio).unwrap();
                let mut oracle = PerBitSha256::new(ratio);
                let (mut out, mut expected) = (Vec::new(), Vec::new());
                let mut from = 0;
                for cut in cuts.into_iter().chain([bits.len()]) {
                    let got = stage.process(&bits[from..cut], &mut out).map_err(|e| e.to_string());
                    let want = oracle
                        .process(&bits[from..cut], &mut expected)
                        .map_err(|e| e.to_string());
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(&out, &expected);
                    from = cut;
                }
            }

            /// The acceptance property: the ledger of chained XOR stages matches the
            /// closed-form piling-up algebra of a single stage with the product factor.
            #[test]
            fn chained_xor_ledger_matches_closed_form(
                h in 0.05f64..1.0,
                k1 in 1usize..6,
                k2 in 1usize..6,
            ) {
                let source = EntropyLedger::source("prop", h).unwrap();
                let chained = ConditioningChain::new(vec![
                    Box::new(XorDecimateStage::new(k1).unwrap()),
                    Box::new(XorDecimateStage::new(k2).unwrap()),
                ])
                .transform(&source)
                .unwrap();
                let closed_form = xor_output_bias(source.bias(), k1 * k2).unwrap();
                prop_assert!((chained.bias() - closed_form).abs() < 1e-12 * closed_form.max(1.0));
                prop_assert!((chained.rate() - 1.0 / (k1 * k2) as f64).abs() < 1e-15);
                // Entropy accounting stays a probability and never decreases under XOR.
                prop_assert!(chained.min_entropy_per_bit() >= h - 1e-12);
                prop_assert!(chained.min_entropy_per_bit() <= 1.0);
            }

            /// The pool credit is conservative: monotone increasing in every child's
            /// claim, so feeding honest (dependent-jitter) bounds can never account
            /// more than any independence-assuming (optimistic) combination.
            #[test]
            fn pool_credit_is_below_every_optimistic_combination(
                hs in proptest::collection::vec(0.02f64..1.0, 2..6),
                bumps in proptest::collection::vec(0.0f64..1.0, 2..6),
            ) {
                let n = hs.len().min(bumps.len());
                let children: Vec<EntropyLedger> = hs[..n]
                    .iter()
                    .map(|&h| EntropyLedger::source("child", h).unwrap())
                    .collect();
                let honest = EntropyLedger::xor_mix("pool", &children).unwrap();

                // Inflate each claim toward 1 (the independence-assuming reading).
                let optimistic: Vec<EntropyLedger> = hs[..n]
                    .iter()
                    .zip(&bumps[..n])
                    .map(|(&h, &t)| EntropyLedger::source("child", h + (1.0 - h) * t).unwrap())
                    .collect();
                let inflated = EntropyLedger::xor_mix("pool", &optimistic).unwrap();
                prop_assert!(honest.min_entropy_per_bit() <= inflated.min_entropy_per_bit() + 1e-12);

                // Sanity: the mix is a valid claim, at least as good as the best child.
                let best = hs[..n].iter().cloned().fold(0.0f64, f64::max);
                prop_assert!(honest.min_entropy_per_bit() >= best - 1e-12);
                prop_assert!(honest.min_entropy_per_bit() <= 1.0);
                prop_assert!(honest.bias() >= 0.0 && honest.bias() < 0.5);
            }

            /// Quarantine monotonicity: dropping any child never increases the
            /// accounted credit.
            #[test]
            fn pool_credit_is_monotone_under_quarantine(
                hs in proptest::collection::vec(0.02f64..1.0, 2..6),
                drop_index in 0usize..6,
            ) {
                let children: Vec<EntropyLedger> = hs
                    .iter()
                    .map(|&h| EntropyLedger::source("child", h).unwrap())
                    .collect();
                let full = EntropyLedger::xor_mix("pool", &children).unwrap();
                let mut survivors = children.clone();
                survivors.remove(drop_index % children.len());
                let reduced = EntropyLedger::xor_mix("pool", &survivors).unwrap();
                prop_assert!(
                    reduced.min_entropy_per_bit() <= full.min_entropy_per_bit() + 1e-12,
                    "quarantine raised credit: {} -> {}",
                    full.min_entropy_per_bit(),
                    reduced.min_entropy_per_bit()
                );
            }

            /// Streaming through arbitrary chunk boundaries equals batch processing.
            #[test]
            fn streaming_is_chunking_invariant(
                bits in proptest::collection::vec(0u8..=1, 0..2048),
                chunk in 1usize..97,
                factor in 1usize..5,
            ) {
                let mut streamed = Vec::new();
                let mut stage = XorDecimateStage::new(factor).unwrap();
                for piece in bits.chunks(chunk) {
                    stage.process(piece, &mut streamed).unwrap();
                }
                let mut batch = Vec::new();
                XorDecimateStage::new(factor).unwrap().process(&bits, &mut batch).unwrap();
                prop_assert_eq!(&streamed, &batch);

                let mut streamed_vn = Vec::new();
                let mut vn = VonNeumannStage::new();
                for piece in bits.chunks(chunk) {
                    vn.process(piece, &mut streamed_vn).unwrap();
                }
                prop_assert_eq!(streamed_vn, von_neumann(&bits).unwrap());
            }
        }
    }
}
