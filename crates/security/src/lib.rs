//! # teamplay-security — side-channel analysis and hardening
//!
//! The reproduction of TeamPlay's SecurityAnalyser and SecurityOptimiser
//! (paper refs \[10\]–\[12\]):
//!
//! * [`metrics`] — the **Indiscernibility Methodology** (ref \[10\]):
//!   objective, attack-agnostic metrics that quantify how distinguishable
//!   two secret classes are from observable time/energy traces, with no
//!   prior knowledge of the leakage model (Welch's t — the TVLA statistic
//!   — Kolmogorov–Smirnov distance, and histogram-overlap
//!   indiscernibility). Every statistic is total: degenerate sample sets
//!   (zero variance, identical traces) saturate at [`WELCH_T_CAP`]
//!   instead of producing NaN/∞, so scores can feed straight into
//!   numeric optimisers.
//! * [`analyser`] — drives the PG32 simulator as the "measurement rig":
//!   runs a compiled task on the pre-decoded engine under two fixed
//!   secrets over many random public inputs and scores the timing and
//!   power channels.
//! * [`ladder`] — the SecurityOptimiser: taint-driven **ladderisation**
//!   (refs \[11\], \[12\]) that if-converts secret-guarded branches into
//!   straight-line code over constant-time selects, making the
//!   instruction stream secret-independent.
//!
//! # Security as a search objective
//!
//! Since the 3-D search landed, these pieces are not a standalone study
//! but the **third objective family of the compiler's Pareto search**
//! (`teamplay_compiler::secure`): a ladder-rung gene picks whether a
//! candidate compiles from the plain or the [`ladderise_module`]-hardened
//! IR, [`assess_leakage`] scores each compiled variant's worse channel,
//! and the resulting time/energy/leakage fronts flow into the
//! coordination layer, where per-variant security levels are matched
//! against each task's CSL `security_floor(n)` clause before placement.
//! The finiteness guarantee above is what makes that wiring safe: the
//! archive's crowding-distance arithmetic rejects non-finite objectives
//! structurally, and capped |t| scores never trip it.
//!
//! Per Section IV of the paper, security was validated on *synthetic
//! benchmarks on the Cortex-M0*; bench `e5_security` reproduces that
//! study on PG32, and `BENCH_search.json`'s `security` section tracks
//! the per-rung leakage of the camera-pill crypto front.

pub mod analyser;
pub mod ladder;
pub mod metrics;

pub use analyser::{assess_leakage, LeakageReport, SecretSpec};
pub use ladder::{ladderise, ladderise_module, secret_params_of, LadderReport};
pub use metrics::{
    indiscernibility, ks_distance, welch_t, LeakageAssessment, Verdict, WELCH_T_CAP,
};
