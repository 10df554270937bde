//! `σ²_N` vs `N` acquisition datasets.

use serde::{Deserialize, Serialize};

use crate::{MeasureError, Result};

/// One acquired point: the estimated variance of `s_N` at accumulation depth `N`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetPoint {
    /// Accumulation depth `N` (number of reference periods per window).
    pub n: usize,
    /// Estimated `σ²_N` in s².
    pub sigma2_n: f64,
    /// Number of `s_N` realizations behind the estimate.
    pub samples: usize,
}

/// A full `σ²_N` vs `N` sweep, as produced by an acquisition campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sigma2NDataset {
    frequency: f64,
    estimator: String,
    points: Vec<DatasetPoint>,
}

impl Sigma2NDataset {
    /// Creates a dataset for an oscillator of nominal frequency `frequency`, sorting the
    /// points by depth.
    ///
    /// # Errors
    ///
    /// Returns an error when the frequency is not positive, the point list is empty, a
    /// variance is negative/non-finite, or two points share a depth.
    pub fn new(
        frequency: f64,
        estimator: impl Into<String>,
        mut points: Vec<DatasetPoint>,
    ) -> Result<Self> {
        if frequency <= 0.0 || !frequency.is_finite() {
            return Err(MeasureError::InvalidParameter {
                name: "frequency",
                reason: format!("must be positive and finite, got {frequency}"),
            });
        }
        if points.is_empty() {
            return Err(MeasureError::InvalidParameter {
                name: "points",
                reason: "at least one point is required".to_string(),
            });
        }
        for p in &points {
            if !p.sigma2_n.is_finite() || p.sigma2_n < 0.0 {
                return Err(MeasureError::InvalidParameter {
                    name: "points",
                    reason: format!("sigma2_n at depth {} must be non-negative and finite", p.n),
                });
            }
            if p.n == 0 {
                return Err(MeasureError::InvalidParameter {
                    name: "points",
                    reason: "accumulation depths must be at least 1".to_string(),
                });
            }
        }
        points.sort_by_key(|p| p.n);
        if points.windows(2).any(|w| w[0].n == w[1].n) {
            return Err(MeasureError::InvalidParameter {
                name: "points",
                reason: "duplicate accumulation depth".to_string(),
            });
        }
        Ok(Self {
            frequency,
            estimator: estimator.into(),
            points,
        })
    }

    /// Nominal frequency `f0` of the counted oscillator, in hertz.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// Human-readable name of the estimator that produced the dataset.
    pub fn estimator(&self) -> &str {
        &self.estimator
    }

    /// The acquired points, sorted by depth.
    pub fn points(&self) -> &[DatasetPoint] {
        &self.points
    }

    /// The accumulation depths as `f64`, in ascending order.
    pub fn depths(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.n as f64).collect()
    }

    /// The `σ²_N` estimates in the same order as [`Sigma2NDataset::depths`].
    pub fn variances(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.sigma2_n).collect()
    }

    /// The points normalized as in the paper's Fig. 7: `(N, σ²_N·f0²)`.
    pub fn normalized_points(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.n as f64, p.sigma2_n * self.frequency * self.frequency))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_points() -> Vec<DatasetPoint> {
        vec![
            DatasetPoint {
                n: 100,
                sigma2_n: 2.0e-18,
                samples: 500,
            },
            DatasetPoint {
                n: 1,
                sigma2_n: 1.0e-20,
                samples: 1000,
            },
            DatasetPoint {
                n: 10,
                sigma2_n: 1.5e-19,
                samples: 800,
            },
        ]
    }

    #[test]
    fn construction_sorts_points_by_depth() {
        let ds = Sigma2NDataset::new(103.0e6, "period-domain", demo_points()).unwrap();
        let depths: Vec<usize> = ds.points().iter().map(|p| p.n).collect();
        assert_eq!(depths, vec![1, 10, 100]);
        assert_eq!(ds.estimator(), "period-domain");
    }

    #[test]
    fn accessors_produce_parallel_vectors() {
        let ds = Sigma2NDataset::new(1.0e8, "counter", demo_points()).unwrap();
        assert_eq!(ds.depths(), vec![1.0, 10.0, 100.0]);
        assert_eq!(ds.variances().len(), 3);
        let norm = ds.normalized_points();
        assert!((norm[0].1 - 1.0e-20 * 1.0e16).abs() < 1e-12);
    }

    #[test]
    fn construction_rejects_invalid_inputs() {
        assert!(Sigma2NDataset::new(0.0, "x", demo_points()).is_err());
        assert!(Sigma2NDataset::new(1.0e8, "x", vec![]).is_err());
        let mut bad = demo_points();
        bad[0].sigma2_n = -1.0;
        assert!(Sigma2NDataset::new(1.0e8, "x", bad).is_err());
        let mut zero_depth = demo_points();
        zero_depth[0].n = 0;
        assert!(Sigma2NDataset::new(1.0e8, "x", zero_depth).is_err());
        let mut dup = demo_points();
        dup[0].n = 10;
        assert!(Sigma2NDataset::new(1.0e8, "x", dup).is_err());
    }
}
