//! Acquisition campaigns: sweep `σ²_N` over a range of accumulation depths.
//!
//! A campaign drives the [`DifferentialCircuit`] over a list of depths and produces a
//! [`Sigma2NDataset`] — the software counterpart of letting the paper's FPGA measurement
//! run over night.  Counter-mode campaigns evaluate every depth independently (and in
//! parallel on scoped threads); period-domain campaigns reuse a single long record.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ptrng_stats::seed::derive_seed;
use ptrng_stats::sn::log_spaced_depths;

use crate::circuit::DifferentialCircuit;
use crate::dataset::{DatasetPoint, Sigma2NDataset};
use crate::{MeasureError, Result};

/// The estimator a campaign uses at each depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Estimator {
    /// Hardware-faithful counter circuit (Eq. 12): `windows` counter values per depth.
    CounterCircuit {
        /// Number of consecutive counter windows acquired per depth.
        windows: usize,
    },
    /// Direct evaluation of Eq. 4 on one simulated record of the relative period jitter.
    PeriodDomain {
        /// Number of oscillator periods in the simulated record.
        record_len: usize,
    },
}

/// Configuration of an acquisition campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Accumulation depths to acquire.
    pub depths: Vec<usize>,
    /// Estimator to use.
    pub estimator: Estimator,
    /// Base seed; every depth derives its own deterministic sub-seed.
    pub seed: u64,
}

impl CampaignConfig {
    /// A configuration with `count` log-spaced depths between `min_n` and `max_n`.
    ///
    /// # Errors
    ///
    /// Returns an error when the depth range is invalid.
    pub fn log_spaced(
        min_n: usize,
        max_n: usize,
        count: usize,
        estimator: Estimator,
        seed: u64,
    ) -> Result<Self> {
        let depths = log_spaced_depths(min_n, max_n, count)?;
        Ok(Self {
            depths,
            estimator,
            seed,
        })
    }
}

/// A reproducible acquisition campaign over one differential circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementCampaign {
    circuit: DifferentialCircuit,
    config: CampaignConfig,
}

impl MeasurementCampaign {
    /// Creates a campaign.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration has no depths or a depth of zero.
    pub fn new(circuit: DifferentialCircuit, config: CampaignConfig) -> Result<Self> {
        if config.depths.is_empty() {
            return Err(MeasureError::InvalidParameter {
                name: "depths",
                reason: "at least one depth is required".to_string(),
            });
        }
        if config.depths.contains(&0) {
            return Err(MeasureError::InvalidParameter {
                name: "depths",
                reason: "accumulation depths must be at least 1".to_string(),
            });
        }
        Ok(Self { circuit, config })
    }

    /// The circuit under measurement.
    pub fn circuit(&self) -> &DifferentialCircuit {
        &self.circuit
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs the campaign, evaluating the counter-mode depths in parallel.
    ///
    /// # Errors
    ///
    /// Returns an error when any individual acquisition fails.
    pub fn run(&self) -> Result<Sigma2NDataset> {
        match self.config.estimator {
            Estimator::PeriodDomain { record_len } => {
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                self.circuit
                    .measure_period_domain(&mut rng, &self.config.depths, record_len)
            }
            Estimator::CounterCircuit { windows } => {
                let measure = |n: usize| -> Result<DatasetPoint> {
                    let mut rng = StdRng::seed_from_u64(derive_seed(self.config.seed, n as u64));
                    let run = self.circuit.measure_counters(&mut rng, n, windows)?;
                    Ok(DatasetPoint {
                        n,
                        sigma2_n: run.sigma2_n,
                        samples: run.sn.len(),
                    })
                };
                // Each depth has its own derived seed, so splitting the depths into
                // one contiguous run per core reproduces the serial sweep, in order.
                let depths = &self.config.depths;
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                let points = std::thread::scope(|scope| {
                    let workers: Vec<_> = depths
                        .chunks(depths.len().div_ceil(cores).max(1))
                        .map(|run| {
                            scope.spawn(move || run.iter().map(|&n| measure(n)).collect::<Vec<_>>())
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|worker| worker.join().expect("campaign worker panicked"))
                        .collect::<Result<Vec<_>>>()
                })?;
                Sigma2NDataset::new(
                    self.circuit.target().model().frequency(),
                    "counter-circuit",
                    points,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_osc::model::AccumulationModel;
    use ptrng_osc::phase::PhaseNoiseModel;

    fn assert_rel(a: f64, b: f64, rel: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!((a - b).abs() / scale <= rel, "{a} vs {b} (rel {rel})");
    }

    #[test]
    fn period_domain_campaign_is_deterministic_and_accurate() {
        let circuit = DifferentialCircuit::date14_experiment();
        let config = CampaignConfig {
            depths: vec![1, 8, 32, 128],
            estimator: Estimator::PeriodDomain {
                record_len: 1 << 16,
            },
            seed: 42,
        };
        let campaign = MeasurementCampaign::new(circuit, config.clone()).unwrap();
        let a = campaign.run().unwrap();
        let b = MeasurementCampaign::new(circuit, config)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a, b);
        let acc = AccumulationModel::new(circuit.relative_model().unwrap());
        for p in a.points() {
            assert_rel(p.sigma2_n, acc.sigma2_n(p.n), 0.3);
        }
    }

    #[test]
    fn counter_campaign_runs_depths_in_parallel() {
        // Exaggerated jitter so the counters see it above the quantization floor.
        let f0 = 1.0e8;
        let per_osc = PhaseNoiseModel::thermal_only(1.0e6, f0).unwrap();
        let circuit = DifferentialCircuit::new(per_osc, per_osc);
        let config = CampaignConfig {
            depths: vec![50, 100, 200],
            estimator: Estimator::CounterCircuit { windows: 300 },
            seed: 7,
        };
        let dataset = MeasurementCampaign::new(circuit, config)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(dataset.len(), 3);
        assert_eq!(dataset.estimator(), "counter-circuit");
        let acc = AccumulationModel::new(circuit.relative_model().unwrap());
        for p in dataset.points() {
            assert_rel(p.sigma2_n, acc.sigma2_n(p.n), 0.4);
        }
        // The thermal-only model must look linear: doubling N roughly doubles σ²_N.
        let v = dataset.variances();
        assert_rel(v[1] / v[0], 2.0, 0.4);
        assert_rel(v[2] / v[1], 2.0, 0.4);
    }

    #[test]
    fn log_spaced_config_builds_sorted_depths() {
        let config = CampaignConfig::log_spaced(
            1,
            1000,
            10,
            Estimator::PeriodDomain { record_len: 4096 },
            1,
        )
        .unwrap();
        assert!(config.depths.len() <= 10);
        assert_eq!(*config.depths.first().unwrap(), 1);
        assert_eq!(*config.depths.last().unwrap(), 1000);
    }

    #[test]
    fn construction_rejects_bad_configs() {
        let circuit = DifferentialCircuit::date14_experiment();
        let empty = CampaignConfig {
            depths: vec![],
            estimator: Estimator::PeriodDomain { record_len: 1024 },
            seed: 0,
        };
        assert!(MeasurementCampaign::new(circuit, empty).is_err());
        let zero = CampaignConfig {
            depths: vec![0, 1],
            estimator: Estimator::PeriodDomain { record_len: 1024 },
            seed: 0,
        };
        assert!(MeasurementCampaign::new(circuit, zero).is_err());
        assert!(CampaignConfig::log_spaced(
            0,
            10,
            5,
            Estimator::PeriodDomain { record_len: 1024 },
            0
        )
        .is_err());
    }

    #[test]
    fn derived_seeds_differ_between_depths() {
        let seeds: Vec<u64> = (1..100u64).map(|n| derive_seed(12345, n)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }
}
