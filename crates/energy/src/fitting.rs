//! Energy-model fitting from measurements.
//!
//! Paper ref \[8\] ("Robust and accurate fine-grain power models for
//! embedded systems with no on-chip PMU") builds linear power models by
//! regressing measured energy against software-visible event counts. The
//! reproduction does the same: the simulator reports per-class retirement
//! counts and (noisy) measured energy per run; [`fit_isa_model`] solves
//! the ordinary-least-squares problem
//!
//! ```text
//!   E ≈ Σ_class β_class · count_class + β_leak · cycles
//! ```
//!
//! with a hand-rolled normal-equations solver (the matrix is only
//! 10 × 10). [`FitQuality`] reports MAPE and maximum error on a held-out
//! set, which the ablation bench sweeps against trace count.

use crate::model::IsaEnergyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use teamplay_isa::ENERGY_CLASS_COUNT;

/// One measured run: event counts plus observed energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitSample {
    /// Instructions retired per energy class.
    pub class_counts: [u64; ENERGY_CLASS_COUNT],
    /// Total cycles of the run.
    pub cycles: u64,
    /// Measured energy (pJ), noise included.
    pub energy_pj: f64,
}

impl FitSample {
    /// Apply multiplicative Gaussian measurement noise (σ relative), as a
    /// power rig would introduce. Deterministic given the seed.
    pub fn with_noise(mut self, sigma: f64, rng: &mut StdRng) -> FitSample {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.energy_pj *= 1.0 + sigma * z.clamp(-3.0, 3.0);
        self
    }
}

/// Fit failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// Fewer samples than coefficients.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The normal-equations matrix was singular (degenerate workload mix —
    /// e.g. every run had identical class ratios).
    Singular,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { got, need } => {
                write!(f, "need at least {need} samples to fit, got {got}")
            }
            FitError::Singular => {
                write!(
                    f,
                    "degenerate sample set: workloads must vary their instruction mix"
                )
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Accuracy of a fitted model on an evaluation set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitQuality {
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Worst-case absolute percentage error.
    pub max_ape: f64,
}

const N_COEF: usize = ENERGY_CLASS_COUNT + 1; // classes + leakage·cycles

/// Solve `A x = b` for a small dense system by Gaussian elimination with
/// partial pivoting. Returns `None` when singular. The component model
/// fits with it too.
pub(crate) fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite matrix")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col].clone();
        for row in (col + 1)..n {
            let factor = a[row][col] / pivot_row[col];
            for (entry, pivot) in a[row][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *entry -= factor * pivot;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

fn design_row(s: &FitSample) -> [f64; N_COEF] {
    let mut row = [0.0; N_COEF];
    for (i, c) in s.class_counts.iter().enumerate() {
        row[i] = *c as f64;
    }
    row[ENERGY_CLASS_COUNT] = s.cycles as f64;
    row
}

/// Fit an ISA energy model from measured runs via OLS.
///
/// Negative fitted coefficients are clamped to zero (they arise only from
/// noise on rarely exercised classes) — the shipped ref \[8\] methodology
/// applies the same non-negativity post-processing.
///
/// # Errors
/// [`FitError::TooFewSamples`] below `classes + 1` samples;
/// [`FitError::Singular`] for degenerate mixes.
pub fn fit_isa_model(samples: &[FitSample]) -> Result<IsaEnergyModel, FitError> {
    if samples.len() < N_COEF {
        return Err(FitError::TooFewSamples {
            got: samples.len(),
            need: N_COEF,
        });
    }
    // Normal equations: (XᵀX) β = Xᵀy.
    let mut xtx = vec![vec![0.0f64; N_COEF]; N_COEF];
    let mut xty = vec![0.0f64; N_COEF];
    for s in samples {
        let row = design_row(s);
        for i in 0..N_COEF {
            for j in 0..N_COEF {
                xtx[i][j] += row[i] * row[j];
            }
            xty[i] += row[i] * s.energy_pj;
        }
    }
    // Ridge dust on the diagonal stabilises near-collinear mixes without
    // visibly biasing well-conditioned fits.
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += 1e-6;
    }
    let beta = solve(xtx, xty).ok_or(FitError::Singular)?;
    let mut base = [0.0; ENERGY_CLASS_COUNT];
    for (i, b) in beta.iter().take(ENERGY_CLASS_COUNT).enumerate() {
        base[i] = b.max(0.0);
    }
    let leakage = beta[ENERGY_CLASS_COUNT].max(0.0);
    Ok(IsaEnergyModel::from_coefficients(base, leakage))
}

/// Evaluate a model against samples.
pub fn evaluate(model: &IsaEnergyModel, samples: &[FitSample]) -> FitQuality {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0usize;
    for s in samples {
        if s.energy_pj <= 0.0 {
            continue;
        }
        let pred = model.predict_pj(&s.class_counts, s.cycles);
        let ape = ((pred - s.energy_pj) / s.energy_pj).abs();
        sum += ape;
        max = max.max(ape);
        n += 1;
    }
    FitQuality {
        mape: if n == 0 { 0.0 } else { sum / n as f64 },
        max_ape: max,
    }
}

/// Deterministic RNG for noise injection in experiments.
pub fn noise_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_isa::EnergyClass;

    /// Generate synthetic samples from a known linear truth.
    fn synth_samples(n: usize, seed: u64, noise: f64) -> (Vec<FitSample>, [f64; N_COEF]) {
        let truth: [f64; N_COEF] = [
            800.0, 1900.0, 2700.0, 1600.0, 1500.0, 1100.0, 1300.0, 2900.0, 400.0, 95.0,
        ];
        let mut rng = noise_rng(seed);
        let samples = (0..n)
            .map(|_| {
                let mut counts = [0u64; ENERGY_CLASS_COUNT];
                let mut cycles = 0u64;
                for c in counts.iter_mut() {
                    *c = rng.gen_range(0..500);
                    cycles += *c * rng.gen_range(1..3);
                }
                let mut energy = truth[N_COEF - 1] * cycles as f64;
                for (i, c) in counts.iter().enumerate() {
                    energy += truth[i] * *c as f64;
                }
                let s = FitSample {
                    class_counts: counts,
                    cycles,
                    energy_pj: energy,
                };
                if noise > 0.0 {
                    s.with_noise(noise, &mut rng)
                } else {
                    s
                }
            })
            .collect();
        (samples, truth)
    }

    #[test]
    fn exact_recovery_without_noise() {
        let (samples, truth) = synth_samples(200, 1, 0.0);
        let model = fit_isa_model(&samples).expect("fit");
        for (i, class) in EnergyClass::ALL.iter().enumerate() {
            let rel = (model.base(*class) - truth[i]).abs() / truth[i];
            assert!(
                rel < 1e-6,
                "class {class}: {} vs {}",
                model.base(*class),
                truth[i]
            );
        }
        assert!((model.leakage_per_cycle - truth[N_COEF - 1]).abs() < 1e-3);
    }

    #[test]
    fn noisy_recovery_is_close_and_quality_reported() {
        let (samples, _) = synth_samples(400, 2, 0.02);
        let model = fit_isa_model(&samples).expect("fit");
        let (eval, _) = synth_samples(100, 3, 0.0);
        let q = evaluate(&model, &eval);
        assert!(q.mape < 0.02, "MAPE too high: {}", q.mape);
    }

    #[test]
    fn more_samples_fit_better() {
        let (few, _) = synth_samples(12, 4, 0.05);
        let (many, _) = synth_samples(600, 4, 0.05);
        let (eval, _) = synth_samples(200, 5, 0.0);
        let m_few = fit_isa_model(&few).expect("fit few");
        let m_many = fit_isa_model(&many).expect("fit many");
        let q_few = evaluate(&m_few, &eval);
        let q_many = evaluate(&m_many, &eval);
        assert!(
            q_many.mape <= q_few.mape,
            "more data should not fit worse: {} vs {}",
            q_many.mape,
            q_few.mape
        );
    }

    #[test]
    fn too_few_samples_rejected() {
        let (samples, _) = synth_samples(5, 6, 0.0);
        assert!(matches!(
            fit_isa_model(&samples),
            Err(FitError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn degenerate_mix_rejected() {
        // Every sample has the same single-class mix → columns collinear.
        let samples: Vec<FitSample> = (0..40)
            .map(|i| {
                let mut counts = [0u64; ENERGY_CLASS_COUNT];
                counts[0] = 10 * (i + 1) as u64;
                FitSample {
                    class_counts: counts,
                    cycles: 10 * (i + 1) as u64,
                    energy_pj: 1000.0 * (i + 1) as f64,
                }
            })
            .collect();
        // Columns 0 and `cycles` are perfectly collinear; the remaining
        // class columns are all zero → singular despite ridge dust.
        let result = fit_isa_model(&samples);
        match result {
            Err(FitError::Singular) => {}
            Ok(model) => {
                // With ridge regularisation the solver may return a model;
                // it must at least reproduce the (degenerate) data.
                let q = evaluate(&model, &samples);
                assert!(
                    q.mape < 0.05,
                    "degenerate fit must still explain its own data"
                );
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn noise_is_deterministic_given_seed() {
        let (s1, _) = synth_samples(10, 9, 0.05);
        let (s2, _) = synth_samples(10, 9, 0.05);
        assert_eq!(s1, s2);
    }
}
