//! # teamplay-bench — the evaluation harness
//!
//! One function per experiment of the paper's evaluation (Section IV) and
//! per design-choice ablation, each returning a structured result *and*
//! rendering the paper-vs-measured table. `cargo bench` prints every
//! table (via `benches/criterion_suite.rs`) and then times the toolchain
//! components with Criterion; the `EXPERIMENTS.md` at the repository root
//! records a captured run.
//!
//! | id | paper claim | function |
//! |----|-------------|----------|
//! | E0a/E0b | Fig. 1 / Fig. 2 workflows run end-to-end | [`experiments::e0_workflows`] |
//! | E1 | camera pill: 18 % perf / 19 % energy | [`experiments::e1_camera_pill`] |
//! | E2 | SpaceWire: 52 % energy, deadlines met | [`experiments::e2_spacewire`] |
//! | E3 | UAV: 18 % energy ⇒ ≈ +4 min flight | [`experiments::e3_uav`] |
//! | E4 | DL: variant table + parity with hand-tuned | [`experiments::e4_parking`] |
//! | E5 | security metrics + ladderisation on synthetic M0 benchmarks | [`experiments::e5_security`] |
//! | A1 | FPA vs random search | [`ablations::a1_fpa_vs_random`] |
//! | A2 | multi-version vs single-version scheduling | [`ablations::a2_multiversion`] |
//! | A3 | energy-model fit vs trace count | [`ablations::a3_model_fit`] |

pub mod ablations;
pub mod experiments;
pub mod kernels;
pub mod timing;

/// Render a percentage improvement `(base - new) / base`.
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

/// Print a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert_eq!(improvement_pct(100.0, 82.0), 18.0);
        assert_eq!(improvement_pct(0.0, 5.0), 0.0);
    }
}
