//! Component-based energy modelling for complex platforms.
//!
//! Paper refs \[18\]/\[19\] model heterogeneous platform power as a base draw
//! plus per-component utilisation terms:
//!
//! ```text
//!   P(t) ≈ P_base + Σ_k β_k · u_k(t)
//! ```
//!
//! which is fitted from coarse-grained measurements and then used by the
//! coordination layer for in-flight, battery-aware schedulability (the
//! precision-agriculture use case, Section IV-C). The same OLS machinery
//! as the ISA model applies, just over utilisation columns.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One coarse measurement: component utilisations (each 0–1) and the
/// observed total power in milliwatts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSample {
    /// Utilisation per component, in the model's component order.
    pub utilisation: Vec<f64>,
    /// Measured platform power (mW).
    pub power_mw: f64,
}

/// A fitted component-based power model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentModel {
    /// Component names, fixing the column order.
    pub components: Vec<String>,
    /// Baseline platform power (mW).
    pub base_mw: f64,
    /// Per-component full-utilisation power (mW).
    pub coefficients: Vec<f64>,
}

/// Fitting errors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentFitError {
    /// Fewer samples than coefficients.
    TooFewSamples,
    /// A sample's utilisation vector length disagrees with the component
    /// list.
    ShapeMismatch,
    /// Singular normal equations.
    Singular,
}

impl fmt::Display for ComponentFitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentFitError::TooFewSamples => write!(f, "not enough samples to fit"),
            ComponentFitError::ShapeMismatch => {
                write!(f, "sample utilisation length differs from component count")
            }
            ComponentFitError::Singular => write!(f, "degenerate utilisation samples"),
        }
    }
}

impl std::error::Error for ComponentFitError {}

impl ComponentModel {
    /// Fit from samples (OLS with an intercept).
    ///
    /// # Errors
    /// See [`ComponentFitError`].
    pub fn fit(
        components: Vec<String>,
        samples: &[ComponentSample],
    ) -> Result<ComponentModel, ComponentFitError> {
        let k = components.len();
        let n_coef = k + 1;
        if samples.len() < n_coef {
            return Err(ComponentFitError::TooFewSamples);
        }
        if samples.iter().any(|s| s.utilisation.len() != k) {
            return Err(ComponentFitError::ShapeMismatch);
        }
        let mut xtx = vec![vec![0.0f64; n_coef]; n_coef];
        let mut xty = vec![0.0f64; n_coef];
        for s in samples {
            let mut row = Vec::with_capacity(n_coef);
            row.push(1.0);
            row.extend_from_slice(&s.utilisation);
            for i in 0..n_coef {
                for j in 0..n_coef {
                    xtx[i][j] += row[i] * row[j];
                }
                xty[i] += row[i] * s.power_mw;
            }
        }
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-9;
        }
        let beta = crate::fitting::solve(xtx, xty).ok_or(ComponentFitError::Singular)?;
        Ok(ComponentModel {
            components,
            base_mw: beta[0].max(0.0),
            coefficients: beta[1..].iter().map(|b| b.max(0.0)).collect(),
        })
    }

    /// Predict platform power for the given utilisations (mW).
    ///
    /// # Panics
    /// Panics if `utilisation.len()` differs from the component count.
    pub fn predict_mw(&self, utilisation: &[f64]) -> f64 {
        assert_eq!(
            utilisation.len(),
            self.coefficients.len(),
            "utilisation shape"
        );
        self.base_mw
            + self
                .coefficients
                .iter()
                .zip(utilisation)
                .map(|(c, u)| c * u)
                .sum::<f64>()
    }

    /// Predict energy (mJ) over a duration at constant utilisation.
    pub fn predict_energy_mj(&self, utilisation: &[f64], duration_ms: f64) -> f64 {
        self.predict_mw(utilisation) * duration_ms / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synth(n: usize, seed: u64) -> Vec<ComponentSample> {
        // Truth: base 2000 mW, cpu 4500 mW, gpu 6000 mW, radio 800 mW.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
                let p = 2000.0 + 4500.0 * u[0] + 6000.0 * u[1] + 800.0 * u[2];
                ComponentSample {
                    utilisation: u,
                    power_mw: p,
                }
            })
            .collect()
    }

    fn names() -> Vec<String> {
        vec!["cpu".into(), "gpu".into(), "radio".into()]
    }

    #[test]
    fn recovers_exact_linear_truth() {
        let model = ComponentModel::fit(names(), &synth(50, 1)).expect("fit");
        // The ridge dust on the normal equations perturbs the exact
        // solution at the ~1e-4 level; compare with a relative tolerance.
        let close = |got: f64, truth: f64| (got - truth).abs() / truth < 1e-4;
        assert!(close(model.base_mw, 2000.0), "base {}", model.base_mw);
        assert!(
            close(model.coefficients[0], 4500.0),
            "cpu {}",
            model.coefficients[0]
        );
        assert!(
            close(model.coefficients[1], 6000.0),
            "gpu {}",
            model.coefficients[1]
        );
        assert!(
            close(model.coefficients[2], 800.0),
            "radio {}",
            model.coefficients[2]
        );
    }

    #[test]
    fn prediction_matches_truth() {
        let model = ComponentModel::fit(names(), &synth(50, 2)).expect("fit");
        let p = model.predict_mw(&[0.5, 0.25, 1.0]);
        let truth = 2000.0 + 4500.0 * 0.5 + 6000.0 * 0.25 + 800.0;
        assert!((p - truth).abs() / truth < 1e-4, "{p} vs {truth}");
        let e = model.predict_energy_mj(&[0.5, 0.25, 1.0], 2000.0);
        assert!((e - truth * 2.0).abs() / (truth * 2.0) < 1e-4);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let bad = vec![
            ComponentSample {
                utilisation: vec![0.5],
                power_mw: 100.0
            };
            10
        ];
        assert_eq!(
            ComponentModel::fit(names(), &bad),
            Err(ComponentFitError::ShapeMismatch)
        );
    }

    #[test]
    fn too_few_samples_rejected() {
        let s = synth(2, 3);
        assert_eq!(
            ComponentModel::fit(names(), &s),
            Err(ComponentFitError::TooFewSamples)
        );
    }

    #[test]
    #[should_panic(expected = "utilisation shape")]
    fn predict_checks_shape() {
        let model = ComponentModel::fit(names(), &synth(50, 4)).expect("fit");
        let _ = model.predict_mw(&[0.5]);
    }
}
