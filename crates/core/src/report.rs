//! Aggregated, serializable analysis reports.
//!
//! [`AnalysisReport`] is the one-stop artifact an evaluation lab (or a CI job) would
//! archive for a device: the acquired `σ²_N` dataset summary, the fitted phase-noise
//! model, the independence verdict, the thermal-jitter extraction and the entropy
//! implications for an eRO-TRNG built from the measured oscillators.

use serde::{Deserialize, Serialize};

use ptrng_measure::dataset::Sigma2NDataset;
use ptrng_trng::conditioning::EntropyLedger;
use ptrng_trng::stochastic::EntropyModel;

use crate::independence::{IndependenceAnalysis, IndependenceVerdict};
use crate::thermal::ThermalNoiseEstimate;
use crate::{CoreError, Result};

/// Entropy implications of the analysis at one accumulation depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EntropyImplication {
    /// Accumulation depth (sampled-oscillator periods per output bit).
    pub depth: usize,
    /// Entropy per bit claimed when the total measured jitter is (incorrectly) treated
    /// as independent.
    pub naive_bound: f64,
    /// Entropy per bit guaranteed when only the thermal contribution is credited.
    pub thermal_bound: f64,
    /// Over-estimation `naive − thermal` (the paper's security warning).
    pub overestimation: f64,
}

/// The aggregated analysis report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Name of the estimator that produced the dataset.
    pub estimator: String,
    /// Number of acquired `(N, σ²_N)` points.
    pub dataset_points: usize,
    /// Deepest measured accumulation depth.
    pub max_depth: usize,
    /// Nominal oscillator frequency in hertz.
    pub frequency: f64,
    /// Fitted thermal phase-noise coefficient `b_th` (Hz).
    pub b_thermal: f64,
    /// Fitted flicker phase-noise coefficient `b_fl` (Hz²).
    pub b_flicker: f64,
    /// Extracted thermal period jitter in seconds.
    pub thermal_sigma: f64,
    /// Extracted relative jitter `σ·f0`.
    pub jitter_ratio: f64,
    /// Ratio constant `K` of `r_N = K/(K+N)` (`None` when no flicker was detected).
    pub rn_constant: Option<f64>,
    /// Depth below which `r_N > 95 %` (`None` when no flicker was detected).
    pub independence_threshold_95: Option<u64>,
    /// Verdict of the independence analysis.
    pub verdict: IndependenceVerdict,
    /// Entropy implications at selected depths.
    pub entropy: Vec<EntropyImplication>,
}

impl AnalysisReport {
    /// Builds the full report from a measured dataset, evaluating the entropy
    /// implications at the provided depths.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset cannot be analysed (fewer than three points, no
    /// measurable thermal component, …).
    pub fn from_dataset(dataset: &Sigma2NDataset, entropy_depths: &[usize]) -> Result<Self> {
        let analysis = IndependenceAnalysis::from_dataset(dataset)?;
        let thermal = ThermalNoiseEstimate::from_dataset(dataset)?;
        let entropy_model = EntropyModel::new(*analysis.fitted_model());
        let entropy = entropy_depths
            .iter()
            .map(|&depth| {
                let naive = entropy_model.entropy_bound_naive(depth);
                let strict = entropy_model.entropy_bound_thermal(depth);
                EntropyImplication {
                    depth,
                    naive_bound: naive,
                    thermal_bound: strict,
                    overestimation: (naive - strict).max(0.0),
                }
            })
            .collect();
        Ok(Self {
            estimator: dataset.estimator().to_string(),
            dataset_points: dataset.points().len(),
            max_depth: analysis.max_depth(),
            frequency: dataset.frequency(),
            b_thermal: thermal.b_thermal,
            b_flicker: thermal.b_flicker,
            thermal_sigma: thermal.thermal_sigma,
            jitter_ratio: thermal.jitter_ratio,
            rn_constant: analysis.fitted_model().rn_constant(),
            independence_threshold_95: analysis.independence_threshold_95(),
            verdict: analysis.verdict(),
            entropy,
        })
    }

    /// Seeds a conditioning-pipeline [`EntropyLedger`] from the **measured** device at
    /// one of the report's evaluated accumulation depths, crediting only the
    /// thermal-only (dependent-jitter-aware) bound — the commissioning path: run the
    /// paper's measurement campaign on real hardware, analyse it, and hand the
    /// resulting ledger to the generation runtime instead of a design-time claim.
    ///
    /// The bound is credited as measured (capped at 1 bit/bit), **never floored
    /// upward**: the ledger drives the runtime's emission-refusal policy, and
    /// inflating a degraded device's accounting would defeat exactly the guarantee
    /// this path exists to provide.
    ///
    /// # Errors
    ///
    /// Returns an error when `depth` was not among the report's evaluated depths, or
    /// the measured thermal bound credits no entropy at all.
    pub fn seed_ledger(&self, depth: usize) -> Result<EntropyLedger> {
        let implication = self
            .entropy
            .iter()
            .find(|e| e.depth == depth)
            .ok_or_else(|| CoreError::InvalidParameter {
                name: "depth",
                reason: format!(
                    "depth {depth} was not evaluated by this report (available: {:?})",
                    self.entropy.iter().map(|e| e.depth).collect::<Vec<_>>()
                ),
            })?;
        if implication.thermal_bound <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "thermal_bound",
                reason: format!(
                    "the measured thermal-only bound at depth {depth} credits no entropy \
                     ({}); the device cannot seed a ledger",
                    implication.thermal_bound
                ),
            });
        }
        Ok(EntropyLedger::source(
            &format!(
                "measured {} @ {:.1} MHz, depth {depth}",
                self.estimator,
                self.frequency / 1.0e6
            ),
            implication.thermal_bound.min(1.0),
        )?)
    }

    /// Serializes the report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (it cannot for this type).
    pub fn to_json(&self) -> Result<String> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserializes a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error when the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self> {
        Ok(serde_json::from_str(json)?)
    }

    /// Renders the report as a small human-readable table (one line per headline value).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("estimator                 : {}\n", self.estimator));
        out.push_str(&format!(
            "points / max depth        : {} / {}\n",
            self.dataset_points, self.max_depth
        ));
        out.push_str(&format!(
            "frequency                 : {:.3} MHz\n",
            self.frequency / 1.0e6
        ));
        out.push_str(&format!(
            "b_thermal                 : {:.2} Hz\n",
            self.b_thermal
        ));
        out.push_str(&format!(
            "b_flicker                 : {:.3e} Hz^2\n",
            self.b_flicker
        ));
        out.push_str(&format!(
            "thermal period jitter     : {:.2} ps ({:.2} permil of T0)\n",
            self.thermal_sigma * 1.0e12,
            self.jitter_ratio * 1.0e3
        ));
        match self.rn_constant {
            Some(k) => out.push_str(&format!("r_N constant K            : {k:.0}\n")),
            None => out.push_str("r_N constant K            : none (thermal only)\n"),
        }
        match self.independence_threshold_95 {
            Some(n) => out.push_str(&format!("independence threshold 95%: N < {n}\n")),
            None => out.push_str("independence threshold 95%: unlimited (thermal only)\n"),
        }
        out.push_str(&format!("verdict                   : {:?}\n", self.verdict));
        for e in &self.entropy {
            out.push_str(&format!(
                "entropy @ N = {:<8}: naive {:.4}  thermal-only {:.4}  overestimation {:.4}\n",
                e.depth, e.naive_bound, e.thermal_bound, e.overestimation
            ));
        }
        out
    }
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Validates that a report's headline numbers are internally consistent (useful when a
/// report is loaded from an external file).
///
/// # Errors
///
/// Returns an error when `σ ≠ sqrt(b_th/f0³)` (within 1 %) or a probability field is out
/// of range.
pub fn validate_report(report: &AnalysisReport) -> Result<()> {
    let expected_sigma = (report.b_thermal / report.frequency.powi(3)).sqrt();
    if (report.thermal_sigma - expected_sigma).abs() > 0.01 * expected_sigma {
        return Err(CoreError::InvalidParameter {
            name: "report.thermal_sigma",
            reason: "inconsistent with b_thermal and the frequency".to_string(),
        });
    }
    for e in &report.entropy {
        if !(0.0..=1.0).contains(&e.naive_bound) || !(0.0..=1.0).contains(&e.thermal_bound) {
            return Err(CoreError::InvalidParameter {
                name: "report.entropy",
                reason: format!("entropy bounds at depth {} are out of range", e.depth),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_measure::dataset::DatasetPoint;
    use ptrng_osc::model::AccumulationModel;
    use ptrng_osc::phase::PhaseNoiseModel;

    fn paper_dataset() -> Sigma2NDataset {
        let model = PhaseNoiseModel::date14_experiment();
        let acc = AccumulationModel::new(model);
        let points = [100usize, 500, 1000, 5000, 10_000, 30_000]
            .iter()
            .map(|&n| DatasetPoint {
                n,
                sigma2_n: acc.sigma2_n(n),
                samples: 2000,
            })
            .collect();
        Sigma2NDataset::new(model.frequency(), "synthetic", points).unwrap()
    }

    #[test]
    fn report_collects_the_headline_numbers() {
        let report = AnalysisReport::from_dataset(&paper_dataset(), &[1000, 60_000]).unwrap();
        assert_eq!(report.dataset_points, 6);
        assert_eq!(report.max_depth, 30_000);
        assert!((report.b_thermal - 276.04).abs() / 276.04 < 1e-3);
        assert!((report.thermal_sigma - 15.89e-12).abs() < 0.05e-12);
        assert_eq!(report.independence_threshold_95, Some(281));
        assert_eq!(
            report.verdict,
            IndependenceVerdict::DependentBeyondThreshold
        );
        assert_eq!(report.entropy.len(), 2);
        assert!(report.entropy[1].overestimation > 0.0);
        validate_report(&report).unwrap();
    }

    #[test]
    fn measured_ledgers_credit_only_the_thermal_bound() {
        let report = AnalysisReport::from_dataset(&paper_dataset(), &[1000, 20_000]).unwrap();
        let ledger = report.seed_ledger(20_000).unwrap();
        let expected = report.entropy[1].thermal_bound.min(1.0);
        assert!((ledger.min_entropy_per_bit() - expected).abs() < 1e-12);
        assert!(
            ledger.min_entropy_per_bit() < report.entropy[1].naive_bound,
            "the ledger must not credit the naive (independence-assuming) bound"
        );
        assert!(ledger.trail()[0].contains("measured"));
        assert!(report.seed_ledger(777).is_err());
    }

    #[test]
    fn json_round_trip_and_text_rendering() {
        let report = AnalysisReport::from_dataset(&paper_dataset(), &[5000]).unwrap();
        let json = report.to_json().unwrap();
        let back = AnalysisReport::from_json(&json).unwrap();
        // Floating-point fields may lose the last ulp through the JSON text form.
        assert_eq!(report.estimator, back.estimator);
        assert_eq!(report.verdict, back.verdict);
        assert_eq!(
            report.independence_threshold_95,
            back.independence_threshold_95
        );
        assert!((report.b_thermal - back.b_thermal).abs() / report.b_thermal < 1e-12);
        assert!((report.thermal_sigma - back.thermal_sigma).abs() / report.thermal_sigma < 1e-9);
        let text = report.to_string();
        assert!(text.contains("b_thermal"));
        assert!(text.contains("verdict"));
        assert!(text.contains("entropy @ N"));
        assert!(json.contains("b_thermal"));
    }

    #[test]
    fn validation_catches_tampered_reports() {
        let mut report = AnalysisReport::from_dataset(&paper_dataset(), &[5000]).unwrap();
        report.thermal_sigma *= 2.0;
        assert!(validate_report(&report).is_err());
        let mut report = AnalysisReport::from_dataset(&paper_dataset(), &[5000]).unwrap();
        report.entropy[0].naive_bound = 1.5;
        assert!(validate_report(&report).is_err());
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(AnalysisReport::from_json("{").is_err());
    }
}
