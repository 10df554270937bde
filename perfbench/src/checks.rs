//! Output checks: a number is reported only from responses that passed them.

use ptrng_ais::fips::{self, FIPS_BLOCK_BITS};
use ptrng_engine::expanded::DEFAULT_SEED_BITS_ACCOUNTED;
use ptrng_engine::stream::unpack_bits;
use ptrng_trng::conditioning::EntropyLedger;
use serde::Value;

use crate::client::Response;
use crate::workload::{Tier, MIN_H};

/// FIPS 140-2 blocks checked per tier sample.
pub const FIPS_BLOCKS: usize = 4;

/// Checks the responses of one client.
#[derive(Debug)]
pub struct Checker {
    tier: Tier,
    want: u64,
    /// The last `X-PTRNG-Ledger` that parsed and round-tripped.
    verified_ledger: String,
}

impl Checker {
    /// A checker for responses of `tier` carrying `want` body bytes.
    pub fn new(tier: Tier, want: u64) -> Self {
        Self {
            tier,
            want,
            verified_ledger: String::new(),
        }
    }

    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Checks one response and returns the goodput bytes it carries (the
    /// audited window for `/selftest`).
    pub fn check(&mut self, response: &Response) -> Result<u64, String> {
        if response.status != 200 {
            return Err(format!("HTTP {}", response.status));
        }
        match self.tier {
            Tier::Entropy => {
                self.check_length(response)?;
                let h: f64 = response
                    .header("x-ptrng-minentropy")
                    .ok_or("no X-PTRNG-MinEntropy header")?
                    .parse()
                    .map_err(|_| "X-PTRNG-MinEntropy is not a number")?;
                if h.is_nan() || h < MIN_H {
                    return Err(format!("X-PTRNG-MinEntropy {h} is below {MIN_H}"));
                }
                let ledger = response
                    .header("x-ptrng-ledger")
                    .ok_or("no X-PTRNG-Ledger header")?;
                // A ledger byte-identical to one already verified needs no second parse.
                if ledger != self.verified_ledger {
                    let parsed = EntropyLedger::from_json(ledger)
                        .map_err(|e| format!("X-PTRNG-Ledger does not parse: {e}"))?;
                    if parsed.to_json() != ledger {
                        return Err("X-PTRNG-Ledger does not round-trip".to_string());
                    }
                    self.verified_ledger = ledger.to_string();
                }
                Ok(response.body_len)
            }
            Tier::Random => {
                self.check_length(response)?;
                match response.header("x-ptrng-tier") {
                    Some("drbg-sha256") => Ok(response.body_len),
                    other => Err(format!("X-PTRNG-Tier is {other:?}, not drbg-sha256")),
                }
            }
            Tier::Selftest => {
                if response.body.len() as u64 != response.body_len {
                    return Err("selftest report longer than the kept body".to_string());
                }
                let text = std::str::from_utf8(&response.body)
                    .map_err(|_| "selftest body is not UTF-8")?;
                let report: Value = serde_json::from_str(text)
                    .map_err(|e| format!("selftest body is not JSON: {e}"))?;
                match field(&report, "overclaim") {
                    Some(Value::Bool(false)) => Ok(self.want),
                    other => Err(format!("selftest overclaim is {other:?}")),
                }
            }
        }
    }

    fn check_length(&self, response: &Response) -> Result<(), String> {
        if response.body_len == self.want {
            Ok(())
        } else {
            Err(format!(
                "body holds {} bytes, {} were asked for",
                response.body_len, self.want
            ))
        }
    }
}

/// Runs the FIPS 140-2 battery on [`FIPS_BLOCKS`] blocks of `sample`.  One
/// failing block is tolerated: the battery rejects about 0.1–0.3 % of
/// blocks of ideal data, so demanding four clean blocks would fail an honest
/// run now and then, while a defective tier fails every block.
pub fn fips_sample(label: &str, sample: &[u8]) -> Result<(), String> {
    let bits = unpack_bits(sample);
    if bits.len() < FIPS_BLOCKS * FIPS_BLOCK_BITS {
        return Err(format!(
            "{label}: the FIPS sample holds {} bits, {} are needed",
            bits.len(),
            FIPS_BLOCKS * FIPS_BLOCK_BITS
        ));
    }
    let failed = bits
        .chunks_exact(FIPS_BLOCK_BITS)
        .take(FIPS_BLOCKS)
        .filter(|block| fips::run_all(block).map_or(true, |tests| tests.iter().any(|t| !t.passed)))
        .count();
    if failed > 1 {
        return Err(format!(
            "{label}: {failed} of {FIPS_BLOCKS} FIPS 140-2 blocks failed"
        ));
    }
    Ok(())
}

/// The entropy books close: `/entropy` bits the client received, at the
/// claimed `h`, do not exceed the bits the server accounted, and every DRBG
/// (re)seed debited exactly the policy's seed bits.  Bytes are counted on the
/// client: the server's served-bytes counter also counts `/random`.
pub fn books(exposition: &str, entropy_bytes: u64, claimed_h: f64) -> Result<(), String> {
    let value =
        |name: &str| prom_value(exposition, name).ok_or_else(|| format!("/metrics has no {name}"));
    let accounted = value("ptrng_accounted_entropy_bits_total")?;
    let claimed = entropy_bytes as f64 * 8.0 * claimed_h;
    if claimed > accounted {
        return Err(format!(
            "the books do not close: {claimed:.0} bits served on /entropy at h = {claimed_h} \
             exceed the {accounted:.0} bits accounted"
        ));
    }
    let debited = value("ptrng_drbg_seed_bits_debited_total")?;
    let reseeds = value("ptrng_drbg_reseeds_total")?;
    if debited != reseeds * DEFAULT_SEED_BITS_ACCOUNTED as f64 {
        return Err(format!(
            "DRBG seeds debited {debited} bits over {reseeds} (re)seeds, not \
             {DEFAULT_SEED_BITS_ACCOUNTED} each"
        ));
    }
    Ok(())
}

/// Sum of every sample of metric `name` (all label sets) in a Prometheus
/// text exposition.
pub fn prom_value(exposition: &str, name: &str) -> Option<f64> {
    let mut total = None;
    for line in exposition.lines().filter(|line| !line.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if series.split('{').next() == Some(name) {
            if let Ok(value) = value.parse::<f64>() {
                *total.get_or_insert(0.0) += value;
            }
        }
    }
    total
}

/// Member `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(name, _)| name == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::Float(v) => Some(v),
        Value::Int(v) => Some(v as f64),
        Value::UInt(v) => Some(v as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_samples_sum_over_label_sets() {
        let text = "# HELP x demo\n# TYPE x counter\nptrng_drbg_reseeds_total 3\n\
                    ptrng_stage_seconds_sum{stage=\"a\"} 0.5\nptrng_stage_seconds_sum{stage=\"b\"} 0.25\n";
        assert_eq!(prom_value(text, "ptrng_drbg_reseeds_total"), Some(3.0));
        assert_eq!(prom_value(text, "ptrng_stage_seconds_sum"), Some(0.75));
        assert_eq!(prom_value(text, "ptrng_missing"), None);
    }

    #[test]
    fn a_constant_stream_fails_the_fips_sample() {
        assert!(fips_sample("zeros", &[0u8; 10_000]).is_err());
        assert!(fips_sample("short", &[0x5a; 100]).is_err());
    }
}
