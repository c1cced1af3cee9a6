//! # teamplay-compiler — the multi-criteria optimising compiler
//!
//! The reproduction of TeamPlay's WCC-based compiler (paper refs \[2\]–\[5\]
//! and Fig. 1): it consumes Mini-C IR, applies a configurable set of
//! optimisation passes, generates PG32 code, and evaluates every candidate
//! configuration with the WCET and energy analyser plug-ins. A
//! multi-objective **Flower Pollination Algorithm** (ref \[5\]) searches the
//! configuration space and returns a Pareto front of *task variants* with
//! distinct (WCET, WCEC, code size) trade-offs — the raw material the
//! coordination layer's multi-version scheduler selects from.
//!
//! * [`codegen`] — IR → PG32 with a stack-frame base strategy,
//!   liveness-driven copy coalescing at the IR→ISA transfer, plus an
//!   optional register-pinning allocator (the main time/energy knob),
//! * [`dataflow`] — the analysis backbone the passes and codegen share:
//!   dominator tree, global liveness, def-use chains and a hash-consed
//!   constant-folding value graph,
//! * [`passes`] — the trait-based pass framework: an analysis-aware
//!   [`passes::Pass`] trait (each pass pulls dominance, liveness,
//!   def-use chains and the value graph lazily from a
//!   [`passes::PassContext`] cache and declares what it preserves), a
//!   static name registry (twelve passes, from `inline` and `licm`
//!   through `gvn`, `load_fwd`, `unroll` and `block_layout`), and a
//!   [`passes::PassManager`] with fixpoint iteration and per-pass
//!   instrumentation, whose one application core both the reference
//!   `PassManager::run` and the compile memo run. Pipelines are constructible by name
//!   (`PassManager::from_str("const_fold,dce")`), by optimisation
//!   level (`o0()`–`o3()`), and by catalogue lookup
//!   ([`passes::PipelineCatalog`]); every configuration the search
//!   explores is such a pipeline — and since the genome encodes pass
//!   *order* (random-key permutation decoding), the search space is
//!   the classic phase-ordering space, not an on/off subset,
//! * [`fpa`] — the multi-objective Flower Pollination search, run in
//!   deterministic generational batches whose candidate evaluations fan
//!   out over the vendored `minipool` work-stealing pool (see the
//!   module docs for the batched-generation determinism contract),
//! * [`driver`] — configuration plumbing, per-task variant evaluation
//!   (memoized through a four-tier cache hierarchy: the config-keyed
//!   [`driver::EvalCache`], its per-function compile memo of pass
//!   transitions and codegen results, the per-function
//!   [`driver::AnalysisMemo`], and an optional persistent
//!   [`store::DiskStore`] — see the [`driver`] module docs), the one
//!   Pareto search entry point,
//!   [`driver::pareto_search`], which runs a [`driver::SearchRequest`]
//!   over a caller-built cache, and the multi-version final build,
//!   [`driver::EvalCache::final_build`], one more compile through the
//!   search's compile memo, which builds every function byte-identically
//!   to the variant the search measured,
//! * [`secure`] — the search's optional leakage axis: a ladder-rung gene
//!   selects the countermeasure level each candidate compiles under, and
//!   the leakage measured on the simulator rig joins the objective
//!   vector, yielding time/energy/leakage Pareto fronts
//!   ([`secure::LeakageAxis`]),
//! * [`store`] — the content-addressed on-disk evaluation store that
//!   lets searches warm-start across processes (keys commit to the IR,
//!   the cost models and a format version, so stale entries are
//!   unreachable by construction),
//! * [`service`] — the batched [`service::compile_many`] front-end:
//!   many module+contract jobs, deduplicated by content hash and
//!   sharded across the pool with one shared persistent store.
//!
//! ```
//! use teamplay_compiler::{compile_module, CompilerConfig};
//! use teamplay_minic::compile_to_ir;
//!
//! let ir = compile_to_ir("int main() { return 21 * 2; }")?;
//! let program = compile_module(&ir, &CompilerConfig::balanced())?;
//! assert!(program.function("main").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codegen;
mod compile_memo;
pub mod dataflow;
pub mod driver;
pub mod fpa;
pub mod passes;
pub mod secure;
pub mod service;
pub mod store;

pub use codegen::{generate_function, generate_program, CodegenError, CodegenOpts};
pub use compile_memo::CompileMemoStats;
pub use dataflow::{DefUse, DomTree, Liveness, ValueGraph};
pub use driver::{
    compile_module, compile_module_per_function_on, evaluate_module, pareto_search, AnalysisMemo,
    CachedEval, CompilerConfig, EvalCache, ModuleMetrics, ParetoFront, SearchRequest, TaskVariant,
    VariantMetrics, VariantSecurity,
};
pub use fpa::{FpaConfig, FpaOutcome, MultiObjectiveFpa, ParetoPoint, SearchStats};
pub use passes::{
    gvn, load_fwd, value_graph_loop_bounds, Pass, PassContext, PassManager, PassSpec, PassStats,
    Pipeline, PipelineCatalog, PipelineError, Preserves, REGISTRY,
};
pub use secure::{
    genome_with_rung, ladderised_ir, rung_of_genome, LeakageAxis, LeakageRig, LADDER_RUNGS,
    SECURE_GENOME_DIMS,
};
pub use service::{compile_many, BatchStats, CompileJob, JobResult};
pub use store::{DiskStore, StoreFootprint, StoreStats, STORE_FORMAT_VERSION};
