//! # teamplay-energy — energy modelling and static energy analysis
//!
//! The reproduction of TeamPlay's EnergyAnalyser (paper refs \[7\]–\[9\]) and
//! of its energy-modelling methodology:
//!
//! * [`model`] — the analytical ISA-level energy model (Tiwari-style base
//!   cost + inter-instruction overhead + leakage). The "datasheet" model
//!   is a deliberately *conservative* hand-written characterisation; it is
//!   close to, but not identical with, the simulator's hidden ground
//!   truth, so analysis-vs-measurement comparisons stay meaningful.
//! * [`analysis`] — static worst-case energy consumption (WCEC) analysis
//!   over PG32 programs: the [`EnergyLane`] the WCET crate's engine
//!   solves beside (or instead of) the cycle lane.
//! * [`fitting`] — ordinary-least-squares model *fitting* from measured
//!   runs (per-class retirement counters + energy), the reproduction of
//!   ref \[8\]'s "robust and accurate fine-grain power models with no
//!   on-chip PMU".
//! * [`component`] — the coarse component-based utilisation model for
//!   complex platforms (refs \[18\], \[19\]) used by the dynamic-profiling
//!   workflow.

pub mod analysis;
pub mod component;
pub mod fitting;
pub mod model;

pub use analysis::{
    analyze_program_energy, analyze_program_energy_cached, mpj_to_pj, EnergyLane, EnergyReport,
};
pub use component::{ComponentModel, ComponentSample};
pub use fitting::{fit_isa_model, FitQuality, FitSample};
pub use model::IsaEnergyModel;
