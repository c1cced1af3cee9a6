//! # teamplay-sim — the COTS platform substitutes
//!
//! The paper evaluates on real hardware (Cortex-M0 camera pill, LEON3FT
//! GR712RC, Apalis TK1 / Jetson TX2 / Nano). This crate provides the
//! simulated equivalents the reproduction runs on.
//!
//! ## The PG32 execution stack: reference, decoded, fault wrapper
//!
//! PG32 programs execute on three layers with one contract:
//!
//! * [`machine`] — the **reference interpreter**. It walks the CFG form
//!   directly, instruction by instruction, calling the cost models as it
//!   goes. It is deliberately simple — close to a transliteration of the
//!   PG32 semantics — and is the *authoritative* definition of what a run
//!   costs: every other execution path is judged against it. Loading is
//!   fallible with a structured [`LoadError`] (matchable alongside the
//!   [`MachineError`] runtime traps), and every run executes under a
//!   cycle-budget watchdog ([`machine::DEFAULT_MAX_CYCLES`] unless
//!   overridden) so runaway kernels trap `CycleLimit` deterministically.
//! * [`decoded`] — the **pre-decoded engine**. A one-time lowering bakes
//!   a validated program into flat, index-addressed op and cost arrays
//!   ([`DecodedProgram`]) and tiles the ops into superinstructions that
//!   retire up to 13 guest ops per dispatch. Each fused unit is one row
//!   `Name = Left + Right` of the module's fusion table, which generates
//!   the unit's type, width, merge rule and dispatch arm; each base op's
//!   semantics is written once, as a step every unit shares. A
//!   direct-threaded dispatch loop ([`DecodedEngine`]) then executes
//!   with no per-step map lookups, operand matches or cost-model calls.
//!   Its [`RunResult`]s are
//!   **bit-identical** to the reference (energy included, to the last
//!   f64 bit) — enforced by the differential oracle suite — so it is the
//!   engine of choice wherever throughput matters: batched measurement,
//!   bound validation, energy-model fitting, fault campaigns and the
//!   leakage rig.
//! * [`fault`] — **fault injection**. [`Machine::call_faulted`] runs to
//!   a target cycle, applies one single-event upset (register/memory
//!   bit flip or instruction skip), and keeps executing;
//!   [`DecodedEngine::call_faulted`] injects identically on the decoded
//!   engine. [`fault::run_campaign`] fans seeded [`fault::FaultPlan`]s
//!   across the pool on the decoded engine and classifies each run as
//!   masked / silent data corruption / trapped / timing violation /
//!   hang against the observables of a fault-free reference run on the
//!   [`Machine`]. Each injection resumes from a checkpoint of the golden
//!   decoded run and is cut off, masked, where its state rejoins that
//!   run, with the verdict of the whole run. With no fault attached
//!   either engine's path is bit-identical to its plain `call`, and a
//!   masked verdict certifies agreement with both engines.
//!
//! The reference stays authoritative (new ISA semantics land there
//! first); the decoded engine is a performance artefact whose only
//! license to exist is bit-identity, faulted runs included; a fault
//! perturbs a single run but never redefines semantics. [`batch`]
//! builds on the decoded engine: [`simulate_batch`], its one entry
//! point, fans deterministic seeded input vectors ([`seeded_inputs`])
//! across a `minipool` pool under an explicit per-run cycle watchdog
//! (callers pass the static bound they hold), with results in input
//! order, bit-identical at any pool width — and fault campaigns reuse
//! exactly that fixed-chunk determinism discipline.
//!
//! Both engines charge a *hidden ground-truth energy model* ([`truth`]).
//! Static analyses never see this model directly; they see either the
//! fitted analytical model (`teamplay-energy`) or noisy "measurements"
//! from runs here — exactly the epistemic situation of the real
//! toolchain, where aiT and the EnergyAnalyser predict what the lab
//! power rig then measures.
//!
//! ## Task-level simulation
//!
//! * [`complex`] — a task-level simulator for complex heterogeneous
//!   platforms (TK1-like big CPU cluster + GPU) with DVFS operating
//!   points, execution-time jitter and sampled power measurement: the
//!   substrate for the dynamic-profiling workflow of paper Fig. 2.
//! * [`battery`] — the UAV battery/endurance model used by the
//!   search-and-rescue use case (Section IV-C).
//! * [`ports`] — simulated sensor/radio port devices shared with the
//!   front-end interpreter conventions.

pub mod batch;
pub mod battery;
pub mod complex;
pub mod decoded;
pub mod fault;
pub mod machine;
pub mod ports;
pub mod truth;

pub use batch::{seeded_inputs, simulate_batch};
pub use battery::Battery;
pub use complex::{ComplexPlatform, CoreDesc, CoreKind, OperatingPoint, TaskExecution, WorkItem};
pub use decoded::{DecodedEngine, DecodedProgram};
pub use fault::{
    run_campaign, run_campaign_with_plan, CampaignConfig, CampaignResult, CampaignStats,
    CampaignWork, FaultKind, FaultOutcome, FaultPlan, FaultSpec,
};
pub use machine::{LoadError, Machine, MachineError, RunResult};
pub use ports::{NullDevice, PortDevice, RecordingDevice};
pub use truth::GroundTruthEnergy;
