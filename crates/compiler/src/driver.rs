//! Compiler driver: configurations, evaluation, Pareto variant search.
//!
//! A [`CompilerConfig`] is one point in the optimisation space (Fig. 1's
//! "multi-criteria optimising compiler" explores many). The driver
//! compiles a configuration, invokes the WCET and energy analyser
//! plug-ins, and [`pareto_search`] runs the FPA over an [`EvalCache`] to
//! produce the multi-version task variants the coordination layer
//! schedules, as one [`SearchRequest`] per task.
//!
//! # The cache hierarchy
//!
//! Every evaluation the search performs flows through up to four
//! memoization tiers, each answering a different repetition pattern:
//!
//! 1. **[`EvalCache`]** (in-memory, config-keyed): the many genomes
//!    that decode to the same [`CompilerConfig`] — and the archive
//!    reconstruction after a search — compile and analyse exactly once
//!    per process. Concurrent probes of one configuration block on a
//!    per-entry `OnceLock`, so `misses()` counts distinct
//!    configurations at any pool width.
//! 2. **The compile memo** (in-memory, per-function state-keyed): below
//!    the config tier, distinct configurations mostly repeat each
//!    other's pass invocations and codegen calls. Each cache interns
//!    every IR function state its compiles pass through and records
//!    every pass invocation as a `(state, pass spec) → (next state,
//!    changed)` transition and every codegen call as `(final state,
//!    codegen knobs) → code`, so a repeated invocation is one lookup
//!    ([`EvalCache::compile`]; the contract replay rests on is in the
//!    [`crate::passes`] module docs). The multi-version final build
//!    ([`EvalCache::final_build`]) is one more compile through it, with
//!    a configuration per function, so after a search it is mostly
//!    replays.
//! 3. **The analysis memo** (in-memory, keyed on code identity): distinct
//!    configurations mostly produce the same compiled functions. The
//!    compile memo gives each codegen entry a dense code id, so a
//!    function's WCET and WCEC are keyed exactly on `(code id, callee
//!    bounds)` and replayed instead of re-solving IPET; a miss solves
//!    the function's flow structure once for both. The key is built
//!    from ids the compile already has: an evaluation hashes no
//!    compiled code, re-validates nothing but the call targets, and
//!    reads each function's code size from its codegen entry. It is the
//!    workspace's only analysis memo; [`AnalysisMemo`] memoises nothing.
//!
//!    The counters of tiers 2 and 3 — `pass_runs`/`pass_replays`,
//!    `states`, `codegen_hits`/`codegen_misses`,
//!    `analysis_hits`/`analysis_misses` — come from
//!    [`EvalCache::compile_memo_stats`]; they can vary with pool width,
//!    so they stay out of [`SearchStats`] and every byte-compared
//!    artifact.
//! 4. **[`DiskStore`]** (persistent,
//!    content-addressed): an optional bottom tier
//!    ([`EvalCache::with_store`]) that spills every evaluation —
//!    including *infeasible* ones — to a directory keyed by a versioned
//!    hash of the IR, both cost models, and the configuration. A fresh
//!    process (or a [`compile_many`](crate::service::compile_many)
//!    batch) warm-starts from it and skips compilation entirely; stale
//!    poisoning is impossible because any input change moves the key.
//!    Each entry is a small manifest (metrics plus blob hashes) over
//!    function and globals blobs shared by every configuration that
//!    compiled them byte-identically, and each store handle memoizes the
//!    blobs it has decoded: like tier 3 one level down, a warm run parses
//!    each distinct function once, however many configurations use it.
//!
//! Tier-1 counters surface as `cache_hits`/`cache_misses` and tier-4
//! counters as `disk_hits`/`disk_misses` in [`SearchStats`]:
//! `disk_hits + disk_misses == cache_misses` when a store is attached,
//! and `disk_misses` is the number of actual compiles. A disk hit
//! bypasses tiers 2 and 3.

use crate::codegen::{generate_program, CodegenError, CodegenOpts};
use crate::compile_memo::{Bounds, CompileMemo, CompileMemoStats, Compiled};
use crate::fpa::{FpaConfig, MultiObjectiveFpa, ParetoPoint, SearchStats};
use crate::passes::{PassManager, PassSpec, PassStats, Pipeline};
use crate::secure::{rung_of_genome, LeakMemo, LeakageAxis, SECURE_GENOME_DIMS};
use crate::store::{self, DiskStore, STORE_FORMAT_VERSION};
use minipool::Pool;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use teamplay_energy::{mpj_to_pj, EnergyLane, IsaEnergyModel};
use teamplay_isa::{encode::encode_sequence, CycleModel, Function, Program};
use teamplay_minic::ir::IrModule;
use teamplay_wcet::{analyze, AnalysisCache, Preset};

/// One compiler configuration — the genome the multi-objective search
/// explores: a registry-backed IR pass [`Pipeline`] plus the two codegen
/// knobs the PG32 backend exposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// The IR optimisation pipeline (see [`crate::passes::REGISTRY`]).
    pub pipeline: Pipeline,
    /// Shift-add decomposition of small multipliers, register-resident
    /// in codegen (energy ↓, cycles ↑).
    pub mul_shift_add: bool,
    /// Register-pinning level (0, 2 or 4 callee-saved registers).
    pub pinned_regs: usize,
}

impl CompilerConfig {
    /// Everything off: the unoptimised reference point (O0).
    pub fn all_off() -> CompilerConfig {
        CompilerConfig {
            pipeline: Pipeline::o0(),
            mul_shift_add: false,
            pinned_regs: 0,
        }
    }

    /// The "traditional toolchain" baseline of the paper's evaluation:
    /// a generic single-objective setting (the O1 cleanup trio, no
    /// ETS-aware choices).
    pub fn traditional() -> CompilerConfig {
        CompilerConfig {
            pipeline: Pipeline::o1(),
            mul_shift_add: false,
            pinned_regs: 0,
        }
    }

    /// A balanced multi-criteria default (O2).
    pub fn balanced() -> CompilerConfig {
        CompilerConfig {
            pipeline: Pipeline::o2(),
            mul_shift_add: false,
            pinned_regs: 2,
        }
    }

    /// Time-first: every speed lever pulled (O3 + full pinning).
    pub fn performance() -> CompilerConfig {
        CompilerConfig {
            pipeline: Pipeline::o3(),
            mul_shift_add: false,
            pinned_regs: 4,
        }
    }

    /// Energy-first: accepts extra cycles for lower picojoules.
    pub fn energy_saver() -> CompilerConfig {
        CompilerConfig {
            pipeline: "inline(60),strength_reduce,const_fold,copy_prop,dce"
                .parse()
                .expect("preset pipeline is valid"),
            mul_shift_add: true,
            pinned_regs: 4,
        }
    }

    /// The pass menu the genome selects and *orders* from. The array
    /// order is only the tie-break for equal ordering keys; the decoded
    /// pipeline order is the argsort of the keys (random-key encoding),
    /// so every permutation of every subset is reachable.
    pub const SEARCH_PASSES: [&'static str; 12] = [
        "inline",
        "licm",
        "cse",
        "unroll",
        "strength_reduce",
        "mul_shift_add",
        "const_fold",
        "copy_prop",
        "dce",
        "block_layout",
        "gvn",
        "load_fwd",
    ];

    /// Number of genome dimensions used by [`CompilerConfig::from_genome`]:
    /// one selection/ordering key per menu pass, then the `inline`
    /// threshold, the `unroll` trip ceiling, the duplicated-cleanup bit,
    /// and the two codegen knobs.
    pub const GENOME_DIMS: usize = Self::SEARCH_PASSES.len() + 5;

    /// Decode a genome in `[0,1]^17` into a configuration (the FPA's
    /// phenotype mapping) — a *phase-ordering* encoding, not an on/off
    /// subset of one canonical order:
    ///
    /// * genes `0..12` — one per [`CompilerConfig::SEARCH_PASSES`] entry:
    ///   the pass is selected iff its gene exceeds 0.5, and the selected
    ///   passes run in ascending gene order (argsort → permutation, the
    ///   classic random-key trick; ties break on menu position);
    /// * gene `12` — `inline` callee-size threshold (20–80 IR ops);
    /// * gene `13` — `unroll` trip-count ceiling (2–16);
    /// * gene `14` — duplicated cleanup round: appends a second
    ///   `const_fold,copy_prop,dce` tail when set;
    /// * gene `15` — codegen shift-add multiplier decomposition;
    /// * gene `16` — register-pinning level (0 / 2 / 4, by thirds).
    ///
    /// Decoding is pure and deterministic: equal genomes always decode
    /// to equal configurations, which the [`EvalCache`] keys on, and the
    /// pool-width bit-identity of [`pareto_search`] carries over
    /// unchanged.
    pub fn from_genome(genome: &[f64]) -> CompilerConfig {
        let g = |i: usize| genome.get(i).copied().unwrap_or(0.0);
        let menu = Self::SEARCH_PASSES.len();
        let mut picks: Vec<(f64, usize)> = (0..menu)
            .filter(|&i| g(i) > 0.5)
            .map(|i| (g(i), i))
            .collect();
        picks.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut pipeline = Pipeline::default();
        for (_, i) in picks {
            match Self::SEARCH_PASSES[i] {
                "inline" => {
                    let threshold = 20 + (g(menu) * 60.0) as usize;
                    pipeline.push(PassSpec::with_param("inline", threshold));
                }
                "unroll" => {
                    let trips = 2 + (g(menu + 1) * 14.0) as usize;
                    pipeline.push(PassSpec::with_param("unroll", trips));
                }
                name => pipeline.push(PassSpec::new(name)),
            }
        }
        if g(menu + 2) > 0.5 {
            for name in ["const_fold", "copy_prop", "dce"] {
                pipeline.push(PassSpec::new(name));
            }
        }
        CompilerConfig {
            pipeline,
            mul_shift_add: g(menu + 3) > 0.5,
            pinned_regs: Self::pinned_level(g(menu + 4)),
        }
    }

    /// Encode this configuration as a genome [`CompilerConfig::from_genome`]
    /// decodes back to it — the inverse phenotype mapping, used to *seed*
    /// the FPA population with a known-good configuration (e.g. an
    /// application's `recommended_pipeline()`), so the search starts from
    /// the tuned point instead of the corners.
    ///
    /// Returns `None` when the configuration is outside the genome's
    /// range: a pass not on [`CompilerConfig::SEARCH_PASSES`], a repeated
    /// pass other than the `const_fold,copy_prop,dce` cleanup tail, an
    /// `inline` threshold outside 20–80 or an `unroll` ceiling outside
    /// 2–16. Every `Some` genome is verified by decoding, so round-trips
    /// are exact by construction.
    pub fn to_genome(&self) -> Option<Vec<f64>> {
        let menu = Self::SEARCH_PASSES.len();
        let encode = |passes: &[PassSpec], cleanup_tail: bool| -> Option<Vec<f64>> {
            let mut genome = vec![0.0; Self::GENOME_DIMS];
            for (j, spec) in passes.iter().enumerate() {
                let i = Self::SEARCH_PASSES.iter().position(|n| *n == spec.name)?;
                if genome[i] > 0.0 {
                    return None; // repeated pass — not representable
                }
                // Selection keys above 0.5, ascending in pipeline order
                // (the argsort decode reproduces exactly this order).
                genome[i] = 0.5 + 0.5 * (j + 1) as f64 / (passes.len() + 1) as f64;
                // Parameter genes: centre the gene on its truncation
                // window so `(g * scale) as usize` lands on the value.
                match (spec.name.as_str(), spec.param) {
                    ("inline", Some(threshold)) => {
                        genome[menu] = ((threshold as f64 - 20.0 + 0.5) / 60.0).clamp(0.0, 1.0);
                    }
                    ("unroll", Some(trips)) => {
                        genome[menu + 1] = ((trips as f64 - 2.0 + 0.5) / 14.0).clamp(0.0, 1.0);
                    }
                    _ => {}
                }
            }
            if cleanup_tail {
                genome[menu + 2] = 1.0;
            }
            genome[menu + 3] = if self.mul_shift_add { 1.0 } else { 0.0 };
            genome[menu + 4] = match self.pinned_regs {
                0 => 0.0,
                2 => 0.5,
                _ => 1.0,
            };
            (Self::from_genome(&genome) == *self).then_some(genome)
        };
        let passes = &self.pipeline.passes;
        // Direct encoding first; a pipeline ending in the cleanup trio
        // can alternatively spend the duplicated-cleanup gene on it,
        // which is the only way to represent a repeated cleanup round.
        encode(passes, false).or_else(|| {
            let tail: Vec<String> = ["const_fold", "copy_prop", "dce"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let stem = passes.len().checked_sub(3)?;
            let tail_matches = passes[stem..]
                .iter()
                .zip(&tail)
                .all(|(p, name)| p.param.is_none() && &p.name == name);
            tail_matches
                .then(|| encode(&passes[..stem], true))
                .flatten()
        })
    }

    /// Map a `[0,1]` gene to the 0/2/4 register-pinning levels.
    fn pinned_level(g: f64) -> usize {
        if g < 1.0 / 3.0 {
            0
        } else if g < 2.0 / 3.0 {
            2
        } else {
            4
        }
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig::balanced()
    }
}

/// The codegen knobs of a configuration.
pub(crate) fn codegen_opts(config: &CompilerConfig) -> CodegenOpts {
    CodegenOpts {
        pinned_regs: config.pinned_regs,
        mul_shift_add: config.mul_shift_add,
    }
}

/// Compile an IR module under a configuration: the whole-module
/// [`PassManager::run`] the search measures every variant with, then
/// codegen.
///
/// # Errors
/// [`CodegenError::InvalidPipeline`] if the pipeline names a pass outside
/// the registry; otherwise propagates codegen failures.
pub fn compile_module(ir: &IrModule, config: &CompilerConfig) -> Result<Program, CodegenError> {
    let mut module = ir.clone();
    PassManager::new(config.pipeline.clone())?.run(&mut module);
    generate_program(&module, codegen_opts(config))
}

/// Compile a module with per-function configurations: every function is
/// optimised and code-generated under its own [`CompilerConfig`] (tasks
/// keep their selected Pareto variants; everything else uses `default`).
///
/// Each function comes out byte-identical to the same function of
/// [`compile_module`] under its configuration, so the final build is the
/// variant the search measured. This is [`EvalCache::final_build`]'s
/// compile on a fresh compile memo, without the analysis. `pool` is
/// unused: the compile runs on the calling thread, and the parameter
/// stays until no caller passes one.
///
/// # Errors
/// As [`compile_module`].
pub fn compile_module_per_function_on(
    _pool: &Pool,
    ir: &IrModule,
    configs: &HashMap<String, CompilerConfig>,
    default: &CompilerConfig,
) -> Result<Program, CodegenError> {
    CompileMemo::new(ir)
        .compile(default, configs)
        .map(|compiled| compiled.program)
}

/// Encoded size of a function in 16-bit halfwords (terminators count one
/// halfword each, as a branch would).
pub fn code_size_halfwords(f: &Function) -> usize {
    let mut words = 0usize;
    for b in &f.blocks {
        words += encode_sequence(&b.insns).len();
        words += 1;
    }
    words
}

/// The three ETS-relevant metrics of one compiled task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariantMetrics {
    /// Static WCET bound (cycles).
    pub wcet_cycles: u64,
    /// Static worst-case energy bound (picojoules).
    pub wcec_pj: f64,
    /// Encoded size (16-bit halfwords).
    pub code_halfwords: usize,
}

/// Whole-module metrics for a configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModuleMetrics {
    // Per-function metrics, sorted by name — every constructor
    // (`new`, and `Deserialize` through it) funnels through the sort, so
    // `of` can binary search.
    functions: Vec<(String, VariantMetrics)>,
}

impl ModuleMetrics {
    /// Build metrics from per-function entries (sorted here; callers may
    /// supply any order).
    pub fn new(mut functions: Vec<(String, VariantMetrics)>) -> ModuleMetrics {
        functions.sort_by(|(a, _), (b, _)| a.cmp(b));
        ModuleMetrics { functions }
    }

    /// Metrics for one function (binary search over the name-sorted
    /// entries — callers probe this once per genome per task).
    pub fn of(&self, name: &str) -> Option<&VariantMetrics> {
        self.functions
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.functions[i].1)
    }

    /// All per-function metrics, sorted by name.
    pub fn functions(&self) -> &[(String, VariantMetrics)] {
        &self.functions
    }
}

/// [`ModuleMetrics`] as written, before its entries are sorted.
#[derive(Deserialize)]
struct RawModuleMetrics {
    functions: Vec<(String, VariantMetrics)>,
}

impl serde::Deserialize for ModuleMetrics {
    fn deserialize(r: &mut serde::de::Reader<'_>) -> Result<Self, serde::DeError> {
        // Re-sorting on ingest keeps the binary-search invariant even for
        // hand-written or reordered JSON.
        RawModuleMetrics::deserialize(r).map(|raw| ModuleMetrics::new(raw.functions))
    }
}

/// Two inert [`AnalysisCache`] counters, for the one-lane wrappers
/// [`teamplay_wcet::analyze_program_cached`] and
/// [`teamplay_energy::analyze_program_energy_cached`]. It memoises
/// nothing: the one analysis memo is the compile memo's `(code id,
/// callee bounds)` table (see the module docs), and no [`EvalCache`]
/// uses this type. It is kept, with its fields, only because the
/// end-to-end benchmark's workflow replay names it.
#[derive(Debug, Default)]
pub struct AnalysisMemo {
    /// Counts the functions the cycle wrapper analyses.
    pub wcet: AnalysisCache,
    /// Counts the functions the energy wrapper analyses.
    pub energy: AnalysisCache,
}

impl AnalysisMemo {
    /// Both counters at zero.
    pub fn new() -> AnalysisMemo {
        AnalysisMemo::default()
    }
}

/// Compile and statically analyse a module under a configuration, with
/// no memo: the plain [`compile_module`] and one [`analyze`] of both
/// lanes, the result every cached evaluation must equal.
///
/// # Errors
/// Codegen errors are returned as `Err`; analysis errors (unbounded
/// loops, recursion) are folded into the error string.
pub fn evaluate_module(
    ir: &IrModule,
    config: &CompilerConfig,
    cycle_model: &CycleModel,
    energy_model: &IsaEnergyModel,
) -> Result<(Program, ModuleMetrics), String> {
    let program = compile_module(ir, config).map_err(|e| e.to_string())?;
    let energy = EnergyLane::new(energy_model, cycle_model);
    let bounds =
        analyze(&program, [cycle_model, &energy], Preset::Ipet).map_err(|e| e.to_string())?;
    let functions = program
        .functions
        .iter()
        .zip(bounds.into_values())
        .map(|((name, f), bounds)| metrics(name, bounds, code_size_halfwords(f)))
        .collect();
    Ok((program, ModuleMetrics::new(functions)))
}

/// One function's metrics from its bounds (cycles, millipicojoules) and
/// its code size.
fn metrics(
    name: &str,
    [wcet_cycles, mpj]: Bounds,
    code_halfwords: usize,
) -> (String, VariantMetrics) {
    let metrics = VariantMetrics {
        wcet_cycles,
        wcec_pj: mpj_to_pj(mpj),
        code_halfwords,
    };
    (name.to_string(), metrics)
}

/// The analysis half of every [`EvalCache`] evaluation and final build:
/// the bounds of each function of `compiled` through the compile memo's
/// exact `(code id, callee bounds)` table ([`CompileMemo::bounds`]),
/// whose misses solve each function once for both lanes, and its code
/// size from its codegen entry. The metrics and any error equal
/// [`evaluate_module`]'s: the same engine, walked in the same
/// callee-first order.
fn analyse_program(
    memo: &CompileMemo,
    compiled: Compiled,
    cycle_model: &CycleModel,
    energy_model: &IsaEnergyModel,
) -> Result<(Program, ModuleMetrics), String> {
    let energy = EnergyLane::new(energy_model, cycle_model);
    let bounds = memo
        .bounds(&compiled.code, &[cycle_model, &energy])
        .map_err(|e| e.to_string())?;
    let functions = compiled
        .code
        .iter()
        .zip(bounds)
        .map(|(code, bounds)| metrics(&code.function.name, bounds, code.halfwords))
        .collect();
    Ok((compiled.program, ModuleMetrics::new(functions)))
}

/// A memoized, thread-safe view of [`evaluate_module`] for one module and
/// platform: results are keyed by the decoded [`CompilerConfig`], so the
/// many genomes that decode to the same configuration — and the archive
/// reconstruction after a search — compile and analyse exactly once.
///
/// Concurrent lookups of the same configuration block on a per-entry
/// [`OnceLock`], so each distinct configuration is evaluated by exactly
/// one thread: `misses()` equals the number of distinct configurations
/// probed, whatever the pool width. Failed evaluations are cached as
/// `None` (infeasible), so repeated failures are free too. Every
/// evaluation the cache computes compiles through its own compile memo
/// ([`EvalCache::compile`]) and analyses through the same memo's exact
/// analysis table, keyed on code identity.
///
/// With [`EvalCache::with_store`] the cache additionally spills to (and
/// warm-starts from) a persistent [`DiskStore`]: an in-memory miss first
/// probes the store under a content-addressed key before compiling, and
/// every computed result — feasible or not — is written back. The
/// module docs describe the full cache hierarchy.
pub struct EvalCache<'a> {
    pub(crate) ir: &'a IrModule,
    pub(crate) cycle_model: &'a CycleModel,
    pub(crate) energy_model: &'a IsaEnergyModel,
    entries: Mutex<HashMap<CompilerConfig, Arc<OnceLock<Option<CachedEval>>>>>,
    /// Per-function pass transitions, codegen results and analyses
    /// shared by every configuration this cache compiles and evaluates,
    /// built on first compile.
    compile_memo: OnceLock<CompileMemo>,
    /// Optional persistent bottom tier.
    pub(crate) disk: Option<&'a DiskStore>,
    /// FNV chain over (format version, IR, cost models); each probe
    /// extends it with the configuration to form the store key. Zero
    /// when no store is attached.
    key_prefix: u128,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_hits: AtomicUsize,
    disk_misses: AtomicUsize,
}

/// One memoized evaluation: the compiled program (shared, never
/// deep-cloned) and its module metrics.
pub type CachedEval = (Arc<Program>, ModuleMetrics);

impl<'a> EvalCache<'a> {
    /// An empty cache over one module and platform pair.
    pub fn new(
        ir: &'a IrModule,
        cycle_model: &'a CycleModel,
        energy_model: &'a IsaEnergyModel,
    ) -> EvalCache<'a> {
        EvalCache {
            ir,
            cycle_model,
            energy_model,
            entries: Mutex::new(HashMap::new()),
            compile_memo: OnceLock::new(),
            disk: None,
            key_prefix: 0,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
            disk_misses: AtomicUsize::new(0),
        }
    }

    /// An [`EvalCache`] backed by a persistent [`DiskStore`]: in-memory
    /// misses probe the store before compiling, and computed results
    /// (feasible or infeasible) are written back. The store key commits
    /// to the IR, both cost models, the configuration, and
    /// [`STORE_FORMAT_VERSION`], so a store shared across modules or
    /// model revisions can never serve a stale entry.
    pub fn with_store(
        ir: &'a IrModule,
        cycle_model: &'a CycleModel,
        energy_model: &'a IsaEnergyModel,
        disk: &'a DiskStore,
    ) -> EvalCache<'a> {
        let mut cache = EvalCache::new(ir, cycle_model, energy_model);
        cache.key_prefix = store::hash_json(
            store::fnv_offset(),
            &(STORE_FORMAT_VERSION, ir, cycle_model, energy_model),
        );
        cache.disk = Some(disk);
        cache
    }

    /// [`evaluate_module`] through the cache. `None` means the
    /// configuration is infeasible (codegen or analysis failed).
    pub fn evaluate(&self, config: &CompilerConfig) -> Option<CachedEval> {
        let cell = {
            let mut entries = self.entries.lock().expect("eval cache lock");
            entries
                .entry(config.clone())
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        let mut computed = false;
        let mut from_disk = false;
        let value = cell.get_or_init(|| {
            computed = true;
            let compute = || {
                let memo = self.compile_memo();
                let compiled = memo.compile(config, &HashMap::new()).ok()?;
                analyse_program(memo, compiled, self.cycle_model, self.energy_model)
                    .ok()
                    .map(|(program, metrics)| (Arc::new(program), metrics))
            };
            match self.disk {
                Some(disk) => {
                    let key = store::hash_json(self.key_prefix, config);
                    if let Some(found) = disk.load(key) {
                        from_disk = true;
                        found
                    } else {
                        let fresh = compute();
                        disk.store(key, &fresh);
                        fresh
                    }
                }
                None => compute(),
            }
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if self.disk.is_some() {
                if from_disk {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.disk_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }

    /// Lookups answered without compiling (including waits on another
    /// thread's in-flight evaluation of the same configuration).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that compiled + analysed (= distinct configurations
    /// probed). With a disk store attached, "compiled" includes replays
    /// from disk: `misses() == disk_hits() + disk_misses()`.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// In-memory misses answered from the disk store without compiling
    /// (always 0 without [`EvalCache::with_store`]).
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// In-memory misses that compiled + analysed and were written back
    /// to the disk store (always 0 without [`EvalCache::with_store`]).
    pub fn disk_misses(&self) -> usize {
        self.disk_misses.load(Ordering::Relaxed)
    }

    /// Compile `config` through this cache's compile memo, bypassing the
    /// configuration tier and the store: the compile every computed
    /// evaluation runs. The program is byte-identical to
    /// [`compile_module`]'s and the stats to an unmemoised
    /// [`PassManager::run`]'s; only the work done differs.
    ///
    /// # Errors
    /// As [`compile_module`].
    pub fn compile(
        &self,
        config: &CompilerConfig,
    ) -> Result<(Program, Vec<PassStats>), CodegenError> {
        self.compile_memo()
            .compile(config, &HashMap::new())
            .map(|compiled| (compiled.program, compiled.stats))
    }

    /// The multi-version final build: compile every function under its
    /// chosen configuration (`chosen` by function name, `default` for
    /// the rest) through this cache's compile memo, and analyse the
    /// program through the memo's analysis table, as every evaluation
    /// does.
    /// Each function is byte-identical to the same function of
    /// [`compile_module`] under its configuration, the compile the
    /// search measured; after a search most of the build is replays.
    /// Like [`EvalCache::compile`], it bypasses the configuration tier
    /// and the store, so no hit, miss or store counter moves.
    ///
    /// # Errors
    /// As [`evaluate_module`].
    pub fn final_build(
        &self,
        chosen: &HashMap<String, CompilerConfig>,
        default: &CompilerConfig,
    ) -> Result<(Program, ModuleMetrics), String> {
        let memo = self.compile_memo();
        let compiled = memo.compile(default, chosen).map_err(|e| e.to_string())?;
        analyse_program(memo, compiled, self.cycle_model, self.energy_model)
    }

    fn compile_memo(&self) -> &CompileMemo {
        self.compile_memo.get_or_init(|| CompileMemo::new(self.ir))
    }

    /// The compile memo's work counters: pass invocations run and
    /// replayed, interned states, codegen hits and misses, function
    /// analyses replayed and run (all zero before the first compile). They can vary with pool width, so
    /// keep them out of byte-compared output.
    pub fn compile_memo_stats(&self) -> CompileMemoStats {
        self.compile_memo
            .get()
            .map_or_else(CompileMemoStats::default, CompileMemo::stats)
    }
}

/// The security coordinates of a variant found with a leakage axis: which
/// countermeasure rung it was compiled under and the leakage the rig
/// measured for it (the third Pareto axis — always finite, capped by
/// [`WELCH_T_CAP`](teamplay_security::WELCH_T_CAP)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariantSecurity {
    /// Countermeasure ladder rung (0 = plain IR, 1 = ladderised).
    pub rung: u32,
    /// Measured leakage score: the worse channel's |Welch t|.
    pub leakage: f64,
}

/// A compiled task variant on the Pareto front.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskVariant {
    /// The configuration that produced it.
    pub config: CompilerConfig,
    /// Its static metrics for the task function.
    pub metrics: VariantMetrics,
    /// The full compiled program (all functions under this config),
    /// shared with the evaluation cache — cloning a variant or a front
    /// bumps a refcount instead of deep-copying compiled modules.
    pub program: Arc<Program>,
    /// Rung and measured leakage when the search ran with a leakage
    /// axis ([`SearchRequest::leakage`]); `None` for the
    /// time/energy/size-only search.
    pub security: Option<VariantSecurity>,
}

/// A task's Pareto front plus the search instrumentation that produced
/// it.
#[derive(Debug, Clone)]
pub struct ParetoFront {
    /// Non-dominated variants, sorted by (WCET, rung).
    pub variants: Vec<TaskVariant>,
    /// Evaluation counts and cache behaviour of the search.
    pub stats: SearchStats,
}

/// What one Pareto search looks for: the task, the FPA budget and seed,
/// optional seed genomes, and an optional leakage axis. The IR, the cost
/// models and the persistent store are not part of the request: they
/// are fixed by the [`EvalCache`] the search runs over
/// ([`EvalCache::new`] or [`EvalCache::with_store`]).
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest<'a> {
    /// The task function whose metrics form the objective vector.
    pub task: &'a str,
    /// Search budget and parameters.
    pub fpa: FpaConfig,
    /// RNG seed of the FPA.
    pub seed: u64,
    /// Genomes mixed into the initial population, typically a tuned
    /// pipeline encoded by [`CompilerConfig::to_genome`], so generation
    /// 0 already weakly dominates it. Empty by default; an empty slice
    /// leaves the RNG stream and the evaluation budget unchanged.
    pub seeds: &'a [Vec<f64>],
    /// The leakage axis: when set, the genome gains the ladder-rung gene
    /// and the measured leakage joins the objectives (see
    /// [`crate::secure`]). `None` by default.
    pub leakage: Option<LeakageAxis<'a>>,
}

impl<'a> SearchRequest<'a> {
    /// A plain time/energy/size search for `task`: no seed genomes, no
    /// leakage axis.
    pub fn new(task: &'a str, fpa: FpaConfig, seed: u64) -> SearchRequest<'a> {
        SearchRequest {
            task,
            fpa,
            seed,
            seeds: &[],
            leakage: None,
        }
    }
}

/// Run the FPA over compiler configurations and return the Pareto front
/// of variants for `request.task`.
///
/// The objectives are (WCET, WCEC, code size), plus the measured leakage
/// when the request carries a leakage axis; every evaluation goes
/// through `cache` (and, on rung 1, through a hardened-IR cache built
/// from it), and the final archive is rebuilt from the caches rather
/// than recompiled. Variants are deduplicated by (configuration, rung)
/// and sorted by (WCET, rung); without a leakage axis every rung is 0.
/// Bit-identical output for any pool width given the same seed: the
/// FPA's batched-generation contract plus a deterministic, memoized
/// evaluation. The returned stats follow the [`SearchStats`] counter
/// contract.
pub fn pareto_search(
    pool: &Pool,
    cache: &EvalCache<'_>,
    request: &SearchRequest<'_>,
) -> ParetoFront {
    let task = request.task;
    let leak = request.leakage.map(|axis| LeakMemo::new(cache, axis, task));
    let leak = leak.as_ref();
    let dims = match leak {
        Some(_) => SECURE_GENOME_DIMS,
        None => CompilerConfig::GENOME_DIMS,
    };
    // A plain genome has no rung gene, so it always decodes to rung 0.
    let decode = |genome: &[f64]| (CompilerConfig::from_genome(genome), rung_of_genome(genome));
    let evaluate = |config: CompilerConfig, rung: u32| -> Option<TaskVariant> {
        let rung_cache = match rung {
            0 => cache,
            _ => &leak?.hardened,
        };
        let (program, metrics) = rung_cache.evaluate(&config)?;
        let metrics = *metrics.of(task)?;
        let security = match leak {
            Some(leak) => Some(VariantSecurity {
                rung,
                leakage: leak.score(rung, &config, &program)?,
            }),
            None => None,
        };
        Some(TaskVariant {
            config,
            metrics,
            program,
            security,
        })
    };
    let fpa = MultiObjectiveFpa::new(request.fpa);
    let outcome = fpa.run_on_seeded(pool, dims, request.seed, request.seeds, |genome| {
        let (config, rung) = decode(genome);
        evaluate(config, rung).map(|v| objectives(&v))
    });

    let mut variants: Vec<TaskVariant> = Vec::new();
    for ParetoPoint {
        genome,
        objectives: archived,
    } in outcome.archive
    {
        let (config, rung) = decode(&genome);
        if variants
            .iter()
            .any(|v| v.config == config && rung_of(v) == rung)
        {
            continue;
        }
        // Every archived point was evaluated during the search, so this
        // is a cache hit and a memo replay: no recompile, no re-simulation.
        let Some(variant) = evaluate(config, rung) else {
            continue;
        };
        // The objective vector carries the cycle bound *exactly* (u64 →
        // f64 is lossless far beyond any realistic bound), so a 1-cycle
        // IPET improvement can never hide behind an epsilon.
        debug_assert!(objectives(&variant)
            .iter()
            .zip(&archived)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        variants.push(variant);
    }
    variants.sort_by_key(|v| (v.metrics.wcet_cycles, rung_of(v)));

    let mut stats = outcome.stats;
    add_cache_counters(&mut stats, cache);
    if let Some(leak) = leak {
        add_cache_counters(&mut stats, &leak.hardened);
    }
    ParetoFront { variants, stats }
}

/// A variant's objective vector, in the order the FPA minimises it.
fn objectives(v: &TaskVariant) -> Vec<f64> {
    let m = &v.metrics;
    let mut o = vec![m.wcet_cycles as f64, m.wcec_pj, m.code_halfwords as f64];
    o.extend(v.security.map(|s| s.leakage));
    o
}

/// A variant's countermeasure rung (0 without a leakage axis).
fn rung_of(v: &TaskVariant) -> u32 {
    v.security.map_or(0, |s| s.rung)
}

/// Add a cache's hit/miss counters (config and disk tiers) to `stats`.
pub(crate) fn add_cache_counters(stats: &mut SearchStats, cache: &EvalCache<'_>) {
    stats.cache_hits += cache.hits();
    stats.cache_misses += cache.misses();
    stats.disk_hits += cache.disk_hits();
    stats.disk_misses += cache.disk_misses();
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_minic::compile_to_ir;
    use teamplay_sim::{Machine, RecordingDevice};

    const TASK: &str = "
        int coeff[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
        int scale(int v) { return v * 10; }
        int filter(int x) {
            int acc = 0;
            for (int i = 0; i < 16; i = i + 1) {
                acc = acc + coeff[i] * (x + i);
            }
            return scale(acc);
        }";

    /// A plain search for `task` over a fresh cache of `ir` on the pg32
    /// models.
    fn fresh_search(
        pool: &Pool,
        ir: &IrModule,
        task: &str,
        fpa: FpaConfig,
        seed: u64,
    ) -> ParetoFront {
        let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
        let cache = EvalCache::new(ir, &cm, &em);
        pareto_search(pool, &cache, &SearchRequest::new(task, fpa, seed))
    }

    #[test]
    fn evaluate_module_reports_all_functions() {
        let ir = compile_to_ir(TASK).expect("front-end");
        let (_, metrics) = evaluate_module(
            &ir,
            &CompilerConfig::balanced(),
            &CycleModel::pg32(),
            &IsaEnergyModel::pg32_datasheet(),
        )
        .expect("evaluate");
        assert!(metrics.of("filter").is_some());
        assert!(metrics.of("scale").is_some());
        assert!(metrics.of("missing").is_none());
    }

    #[test]
    fn presets_order_as_expected() {
        let ir = compile_to_ir(TASK).expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let eval = |c: &CompilerConfig| {
            evaluate_module(&ir, c, &cm, &em)
                .expect("evaluate")
                .1
                .of("filter")
                .copied()
                .expect("filter")
        };
        let off = eval(&CompilerConfig::all_off());
        let traditional = eval(&CompilerConfig::traditional());
        let perf = eval(&CompilerConfig::performance());
        let energy = eval(&CompilerConfig::energy_saver());
        assert!(perf.wcet_cycles < traditional.wcet_cycles);
        assert!(traditional.wcet_cycles <= off.wcet_cycles);
        assert!(energy.wcec_pj < traditional.wcec_pj);
        // The performance preset is the fastest; the energy preset trades
        // cycles away (shift-add chains) and must never be faster.
        assert!(perf.wcet_cycles <= energy.wcet_cycles);
    }

    #[test]
    fn every_preset_compiles_to_working_code() {
        let ir = compile_to_ir(TASK).expect("front-end");
        let mut reference: Option<i32> = None;
        for config in [
            CompilerConfig::all_off(),
            CompilerConfig::traditional(),
            CompilerConfig::balanced(),
            CompilerConfig::performance(),
            CompilerConfig::energy_saver(),
        ] {
            let program = compile_module(&ir, &config).expect("compile");
            let mut machine = Machine::new(program).expect("load");
            let r = machine
                .call("filter", &[5], &mut RecordingDevice::new())
                .expect("run");
            match reference {
                None => reference = Some(r.return_value),
                Some(v) => assert_eq!(v, r.return_value, "config {config:?} diverged"),
            }
        }
    }

    #[test]
    fn genome_decoding_covers_the_space() {
        let lo = CompilerConfig::from_genome(&[0.0; CompilerConfig::GENOME_DIMS]);
        assert!(lo.pipeline.passes.is_empty() && lo.pinned_regs == 0 && !lo.mul_shift_add);
        let hi = CompilerConfig::from_genome(&[1.0; CompilerConfig::GENOME_DIMS]);
        assert!(hi.pipeline.contains("inline") && hi.pinned_regs == 4 && hi.mul_shift_add);
        assert_eq!(
            hi.pipeline.param_of("inline"),
            Some(80),
            "threshold scales with its gene"
        );
        assert_eq!(
            hi.pipeline.param_of("unroll"),
            Some(16),
            "trip ceiling scales with its gene"
        );
        for name in CompilerConfig::SEARCH_PASSES {
            assert!(
                hi.pipeline.contains(name),
                "{name} missing from the full genome"
            );
        }
        // All keys tied at 1.0: menu order, plus the duplicated cleanup tail.
        assert_eq!(
            hi.pipeline.passes.len(),
            CompilerConfig::SEARCH_PASSES.len() + 3,
            "full genome selects every pass and appends the cleanup round"
        );
        let mid = CompilerConfig::from_genome(&[0.5; CompilerConfig::GENOME_DIMS]);
        assert_eq!(mid.pinned_regs, 2);
        assert!(mid.pipeline.passes.is_empty(), "0.5 keys select nothing");
        // Every decoded pipeline resolves against the registry.
        crate::passes::PassManager::new(hi.pipeline).expect("genome pipelines are registry-backed");
    }

    #[test]
    fn genome_order_keys_permute_the_pipeline() {
        // Menu indices: inline 0, licm 1, cse 2, unroll 3,
        // strength_reduce 4, mul_shift_add 5, const_fold 6, copy_prop 7,
        // dce 8, block_layout 9, gvn 10, load_fwd 11.
        let mut genome = vec![0.0; CompilerConfig::GENOME_DIMS];
        genome[8] = 0.6; // dce — lowest key, runs first
        genome[9] = 0.7; // block_layout
        genome[6] = 0.9; // const_fold — highest key, runs last
        let c = CompilerConfig::from_genome(&genome);
        assert_eq!(c.pipeline.to_string(), "dce,block_layout,const_fold");

        // Swapping two keys swaps the decoded order — same subset,
        // different phase order, distinct cache key.
        genome.swap(8, 6);
        let swapped = CompilerConfig::from_genome(&genome);
        assert_eq!(swapped.pipeline.to_string(), "const_fold,block_layout,dce");
        assert_ne!(c, swapped, "permutations memoize independently");

        // The duplicated cleanup round is an explicit tail.
        genome[14] = 1.0;
        let dup = CompilerConfig::from_genome(&genome);
        assert_eq!(
            dup.pipeline.to_string(),
            "const_fold,block_layout,dce,const_fold,copy_prop,dce"
        );
    }

    #[test]
    fn pareto_front_contains_distinct_tradeoffs() {
        let ir = compile_to_ir(TASK).expect("front-end");
        let variants =
            fresh_search(minipool::global(), &ir, "filter", FpaConfig::tiny(), 1234).variants;
        assert!(!variants.is_empty());
        // Sorted by WCET and mutually non-dominated in (wcet, wcec, size).
        for pair in variants.windows(2) {
            assert!(pair[0].metrics.wcet_cycles <= pair[1].metrics.wcet_cycles);
        }
        for a in &variants {
            for b in &variants {
                if a.config == b.config {
                    continue;
                }
                let adom = a.metrics.wcet_cycles <= b.metrics.wcet_cycles
                    && a.metrics.wcec_pj <= b.metrics.wcec_pj
                    && a.metrics.code_halfwords <= b.metrics.code_halfwords
                    && (a.metrics.wcet_cycles < b.metrics.wcet_cycles
                        || a.metrics.wcec_pj < b.metrics.wcec_pj
                        || a.metrics.code_halfwords < b.metrics.code_halfwords);
                assert!(
                    !adom,
                    "archive member dominated: {:?} vs {:?}",
                    a.metrics, b.metrics
                );
            }
        }
        // All variants still compute the same function.
        let mut reference: Option<i32> = None;
        for v in &variants {
            let mut machine = Machine::new(v.program.as_ref().clone()).expect("load");
            let r = machine
                .call("filter", &[3], &mut RecordingDevice::new())
                .expect("run");
            match reference {
                None => reference = Some(r.return_value),
                Some(x) => assert_eq!(x, r.return_value),
            }
        }
    }

    #[test]
    fn parallel_search_is_byte_identical_to_single_thread() {
        // The tentpole contract: forcing a 1-thread pool and wide pools
        // over the same seed yields byte-identical fronts (compared via
        // their serialized form, programs included).
        let ir = compile_to_ir(TASK).expect("front-end");
        let sequential = fresh_search(&Pool::new(1), &ir, "filter", FpaConfig::standard(), 77);
        let seq_bytes = serde_json::to_string(&sequential.variants).expect("serializes");
        for threads in [2, 4] {
            let parallel = fresh_search(
                &Pool::new(threads),
                &ir,
                "filter",
                FpaConfig::standard(),
                77,
            );
            let par_bytes = serde_json::to_string(&parallel.variants).expect("serializes");
            assert_eq!(seq_bytes, par_bytes, "{threads}-thread front diverged");
            assert_eq!(
                sequential.stats, parallel.stats,
                "{threads}-thread stats diverged"
            );
        }
    }

    #[test]
    fn search_memoizes_and_reuses_the_archive_compiles() {
        let ir = compile_to_ir(TASK).expect("front-end");
        let front = fresh_search(
            minipool::global(),
            &ir,
            "filter",
            FpaConfig::standard(),
            1234,
        );
        let stats = front.stats;
        let cfg = FpaConfig::standard();
        assert_eq!(stats.evaluations, cfg.population * (1 + cfg.iterations));
        assert_eq!(stats.generations, cfg.iterations);
        // Distinct genomes still collide on decoded configurations —
        // less often than under the old fixed-order encoding (ordering
        // keys distinguish permutations), but every collision and the
        // whole archive reconstruction stay compile-free.
        assert!(stats.cache_misses < stats.evaluations, "{stats:?}");
        assert!(stats.cache_hits > front.variants.len(), "{stats:?}");
        // Every cache probe is either a hit or a miss, and the archive
        // reconstruction probes are all hits (≥ one per variant).
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            stats.evaluations + front.variants.len()
        );
        assert!(stats.cache_hits >= front.variants.len(), "{stats:?}");
    }

    #[test]
    fn search_stats_are_the_cache_totals_when_the_search_returns() {
        // Two searches share one cache: each front reports the cache's
        // counters as they stand when it returns, so the second one
        // counts the first search's probes too.
        let ir = compile_to_ir(TASK).expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let cache = EvalCache::new(&ir, &cm, &em);
        let pool = Pool::new(1);
        let first = pareto_search(
            &pool,
            &cache,
            &SearchRequest::new("filter", FpaConfig::tiny(), 1),
        );
        let after_first = (cache.hits(), cache.misses());
        let second = pareto_search(
            &pool,
            &cache,
            &SearchRequest::new("scale", FpaConfig::tiny(), 2),
        );
        let counters = |f: &ParetoFront| (f.stats.cache_hits, f.stats.cache_misses);
        assert_eq!(counters(&first), after_first);
        assert_eq!(counters(&second), (cache.hits(), cache.misses()));
        // Every probe of either search is in the totals: one per
        // evaluation, one per rebuilt archive point.
        let probes = |f: &ParetoFront| f.stats.evaluations + f.variants.len();
        assert_eq!(
            second.stats.cache_hits + second.stats.cache_misses,
            probes(&first) + probes(&second)
        );
    }

    #[test]
    fn unregistered_pass_is_a_typed_error_in_both_builds() {
        let ir = compile_to_ir(TASK).expect("front-end");
        let mut bad = CompilerConfig::balanced();
        bad.pipeline.push(PassSpec::new("no_such_pass"));
        assert!(matches!(
            compile_module(&ir, &bad),
            Err(CodegenError::InvalidPipeline(_))
        ));
        let configs = HashMap::from([("filter".to_string(), bad)]);
        for width in [1, 2] {
            assert!(matches!(
                compile_module_per_function_on(
                    &Pool::new(width),
                    &ir,
                    &configs,
                    &CompilerConfig::balanced()
                ),
                Err(CodegenError::InvalidPipeline(_))
            ));
        }
    }

    /// Genome dimensions of [`from_genome_fixed_order`].
    const FIXED_ORDER_GENOME_DIMS: usize = 8;

    /// The fixed-order decoder of the pre-phase-ordering search: 8
    /// genes, each pass bit contributing its pipeline element in one
    /// canonical order — the baseline the permutation space is compared
    /// against.
    fn from_genome_fixed_order(genome: &[f64]) -> CompilerConfig {
        let bit = |i: usize| genome.get(i).copied().unwrap_or(0.0) > 0.5;
        let g7 = genome.get(7).copied().unwrap_or(0.0);
        let mut pipeline = Pipeline::default();
        if bit(0) {
            let threshold = 20 + (genome.get(1).copied().unwrap_or(0.0) * 60.0) as usize;
            pipeline.push(PassSpec::with_param("inline", threshold));
        }
        if bit(5) {
            pipeline.push(PassSpec::new("strength_reduce"));
        }
        if bit(2) {
            pipeline.push(PassSpec::new("const_fold"));
        }
        if bit(3) {
            pipeline.push(PassSpec::new("copy_prop"));
        }
        if bit(4) {
            pipeline.push(PassSpec::new("dce"));
        }
        CompilerConfig {
            pipeline,
            mul_shift_add: bit(6),
            pinned_regs: CompilerConfig::pinned_level(g7),
        }
    }

    #[test]
    fn permutation_front_dominates_a_fixed_order_point() {
        // The phase-ordering claim, measured: same module, same task,
        // same FPA budget and seed — the permutation genome's front must
        // contain a variant that strictly dominates a point of the
        // fixed-order (PR-2 era) front in (WCET, WCEC, size).
        let ir = compile_to_ir(TASK).expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let seed = 77;

        let cache = EvalCache::new(&ir, &cm, &em);
        let fpa = MultiObjectiveFpa::new(FpaConfig::standard());
        let fixed = fpa.run_on_seeded(
            &Pool::new(1),
            FIXED_ORDER_GENOME_DIMS,
            seed,
            &[],
            |genome| {
                let config = from_genome_fixed_order(genome);
                let (_, metrics) = cache.evaluate(&config)?;
                let m = metrics.of("filter")?;
                Some(vec![
                    m.wcet_cycles as f64,
                    m.wcec_pj,
                    m.code_halfwords as f64,
                ])
            },
        );
        assert!(!fixed.archive.is_empty());

        let permuted = fresh_search(
            minipool::global(),
            &ir,
            "filter",
            FpaConfig::standard(),
            seed,
        )
        .variants;
        let dominates = |new: &VariantMetrics, old: &[f64]| {
            let n = [
                new.wcet_cycles as f64,
                new.wcec_pj,
                new.code_halfwords as f64,
            ];
            n.iter().zip(old).all(|(a, b)| a <= b) && n.iter().zip(old).any(|(a, b)| a < b)
        };
        assert!(
            permuted.iter().any(|v| {
                fixed.archive.iter().any(|p| dominates(&v.metrics, &p.objectives))
            }),
            "no permutation-front variant dominates any fixed-order point:\n  new: {:?}\n  old: {:?}",
            permuted.iter().map(|v| v.metrics).collect::<Vec<_>>(),
            fixed.archive.iter().map(|p| p.objectives.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn to_genome_round_trips_representable_configs() {
        // Presets and tuned-pipeline-shaped configurations encode to
        // genomes that decode back bit-exactly (to_genome verifies the
        // round-trip, so Some == exact).
        for config in [
            CompilerConfig::all_off(),
            CompilerConfig::traditional(),
            CompilerConfig::balanced(),
            CompilerConfig::performance(),
            CompilerConfig { // a camera-pill-style tuned pipeline
                pipeline: "inline(24),licm,cse,const_fold,copy_prop,dce".parse().expect("valid"),
                ..CompilerConfig::balanced()
            },
            CompilerConfig { // unroll parameter + trailing block_layout
                pipeline: "inline(40),licm,cse,unroll(8),strength_reduce,const_fold,copy_prop,dce,block_layout"
                    .parse()
                    .expect("valid"),
                ..CompilerConfig::balanced()
            },
            CompilerConfig { // repeated cleanup round → the dup-tail gene
                pipeline: "inline(30),dce,const_fold,copy_prop,dce".parse().expect("valid"),
                mul_shift_add: true,
                pinned_regs: 4,
            },
        ] {
            let genome = config.to_genome().unwrap_or_else(|| panic!("{config:?} representable"));
            assert_eq!(genome.len(), CompilerConfig::GENOME_DIMS);
            assert_eq!(CompilerConfig::from_genome(&genome), config);
        }
        // Out-of-range parameters and off-menu repetitions are refused,
        // not silently approximated.
        let too_deep = CompilerConfig {
            pipeline: "unroll(64),const_fold".parse().expect("valid"),
            ..CompilerConfig::balanced()
        };
        assert_eq!(
            too_deep.to_genome(),
            None,
            "unroll(64) is outside the genome range"
        );
        let doubled = CompilerConfig {
            pipeline: "licm,licm".parse().expect("valid"),
            ..CompilerConfig::balanced()
        };
        assert_eq!(
            doubled.to_genome(),
            None,
            "non-tail repetition is not representable"
        );
    }

    #[test]
    fn seeded_search_weakly_dominates_the_tuned_point_at_generation_zero() {
        // The ROADMAP follow-up, measured: seeding the FPA with a tuned
        // pipeline's genome puts (at least) that point on the archive
        // before a single generation runs, so the generation-0 front
        // weakly dominates the tuned configuration.
        let ir = compile_to_ir(TASK).expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let tuned = CompilerConfig {
            pipeline: "inline(24),licm,cse,const_fold,copy_prop,dce"
                .parse()
                .expect("valid"),
            ..CompilerConfig::balanced()
        };
        let genome = tuned.to_genome().expect("tuned pipeline is representable");
        let cache = EvalCache::new(&ir, &cm, &em);
        let tuned_metrics = *cache
            .evaluate(&tuned)
            .expect("tuned compiles")
            .1
            .of("filter")
            .expect("task");

        let gen0 = FpaConfig {
            iterations: 0,
            ..FpaConfig::tiny()
        };
        let seeds = std::slice::from_ref(&genome);
        let request = SearchRequest {
            seeds,
            ..SearchRequest::new("filter", gen0, 2024)
        };
        let front = pareto_search(&Pool::new(1), &cache, &request);
        let weakly_dominates = |v: &VariantMetrics| {
            v.wcet_cycles <= tuned_metrics.wcet_cycles
                && v.wcec_pj <= tuned_metrics.wcec_pj
                && v.code_halfwords <= tuned_metrics.code_halfwords
        };
        assert!(
            front.variants.iter().any(|v| weakly_dominates(&v.metrics)),
            "generation-0 front {:?} does not cover the tuned point {tuned_metrics:?}",
            front.variants.iter().map(|v| v.metrics).collect::<Vec<_>>()
        );
        // The seeded search stays pool-width bit-identical.
        let wide = pareto_search(&Pool::new(4), &cache, &request);
        let bytes = |f: &ParetoFront| serde_json::to_string(&f.variants).expect("serializes");
        assert_eq!(bytes(&front), bytes(&wide));
    }

    #[test]
    fn eval_cache_failures_are_memoized_as_infeasible() {
        // Unbounded loop: WCET analysis fails, so evaluation must yield
        // None — from the cache on the second probe.
        let ir = compile_to_ir(
            "int spin(int n) { int s = 0; while (n > 0) { n = n - 1; s = s + 1; } return s; }",
        )
        .expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let cache = EvalCache::new(&ir, &cm, &em);
        assert!(cache.evaluate(&CompilerConfig::balanced()).is_none());
        assert!(cache.evaluate(&CompilerConfig::balanced()).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn loops_whose_induction_value_wraps_are_unbounded() {
        // `i` passes `i32::MAX` before the exit compare fails, wraps
        // negative and keeps the loop running: counting in unbounded
        // integers would bound it by 1 and 48 body runs.
        for src in [
            "int f() { int n = 0; for (int i = 2147483000; i < 2147483500; i = i + 1000) { n = n + 1; } return n; }",
            "int f() { int n = 0; for (int i = 2147483600; i <= 2147483647; i = i + 1) { n = n + 1; } return n; }",
        ] {
            let ir = compile_to_ir(src).expect("front-end");
            assert!(ir.functions[0].loop_bounds.is_empty(), "{src}");
            for config in [CompilerConfig::all_off(), CompilerConfig::balanced()] {
                let program = compile_module(&ir, &config).expect("codegen");
                let analysis = teamplay_wcet::analyze_program(&program, &CycleModel::pg32());
                assert!(
                    matches!(analysis, Err(teamplay_wcet::WcetError::UnboundedLoop { .. })),
                    "{src}: {analysis:?}"
                );
            }
        }
    }

    #[test]
    fn analysis_memo_replays_functions_untouched_by_a_config_change() {
        // Two configurations whose pipelines differ only in a pass that
        // rewrites one function: the untouched function compiles to the
        // same code entry under both, so its WCET/WCEC analysis is a
        // replay from the memo's `(code id, callee bounds)` table, not a
        // re-analysis.
        let src = "
            int leaf(int v) { return v + v + 3; }
            int hot(int x) {
                int s = 0;
                for (int i = 0; i < 6; i = i + 1) { s = s + x * i; }
                return s + leaf(x);
            }";
        let ir = compile_to_ir(src).expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let cache = EvalCache::new(&ir, &cm, &em);
        let base = CompilerConfig::all_off();
        cache.evaluate(&base).expect("base evaluates");
        let analyses = |c: &EvalCache<'_>| {
            let stats = c.compile_memo_stats();
            (stats.analysis_hits, stats.analysis_misses)
        };
        let (h0, m0) = analyses(&cache);
        assert_eq!((h0, m0), (0, 2), "leaf and hot analysed once each");

        // `unroll(8)` rewrites `hot` (provable 6-trip loop) and leaves
        // `leaf` untouched.
        let unrolled = CompilerConfig {
            pipeline: "unroll(8)".parse().expect("valid"),
            ..CompilerConfig::all_off()
        };
        let (_, metrics) = cache.evaluate(&unrolled).expect("unrolled evaluates");
        let (h1, m1) = analyses(&cache);
        assert_eq!(h1, h0 + 1, "leaf's analysis must be a replay");
        assert_eq!(m1, m0 + 1, "only hot is re-analysed");
        // Memoized evaluation is observationally identical to a fresh
        // one.
        let (_, fresh) = evaluate_module(&ir, &unrolled, &cm, &em).expect("fresh");
        assert_eq!(&fresh, &metrics);
    }

    #[test]
    fn analysis_memo_never_shares_an_entry_between_two_functions() {
        // `caller` has no loop, so `unroll` leaves its code alone while
        // it rewrites `leaf`: the same caller code under two different
        // callee bounds. `twin_a` and `twin_b` have the same body under
        // different names. Each must get its own fresh analysis.
        let src = "
            int leaf(int v) {
                int s = 0;
                for (int i = 0; i < 5; i = i + 1) { s = s + v * i; }
                return s;
            }
            int caller(int x) { return leaf(x) + x * 7; }
            int twin_a(int x) { return x * 3 + 1; }
            int twin_b(int x) { return x * 3 + 1; }";
        let ir = compile_to_ir(src).expect("front-end");
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let cache = EvalCache::new(&ir, &cm, &em);
        let base = CompilerConfig::all_off();
        let unrolled = CompilerConfig {
            pipeline: "unroll(8)".parse().expect("valid"),
            ..CompilerConfig::all_off()
        };
        let (p0, m0) = cache.evaluate(&base).expect("base evaluates");
        let stats = cache.compile_memo_stats();
        assert_eq!(
            (stats.analysis_hits, stats.analysis_misses),
            (0, 4),
            "every function, both twins included, is analysed afresh"
        );
        let (p1, m1) = cache.evaluate(&unrolled).expect("unrolled evaluates");
        assert_eq!(p0.function("caller"), p1.function("caller"));
        assert_ne!(p0.function("leaf"), p1.function("leaf"));
        let stats = cache.compile_memo_stats();
        assert_eq!(
            (stats.analysis_hits, stats.analysis_misses),
            (2, 6),
            "the twins replay; leaf and caller (new callee bounds) do not"
        );
        for (config, metrics) in [(&base, &m0), (&unrolled, &m1)] {
            let (_, fresh) = evaluate_module(&ir, config, &cm, &em).expect("fresh");
            assert_eq!(&fresh, metrics);
        }
        let wcet = |m: &ModuleMetrics, name| m.of(name).expect("analysed").wcet_cycles;
        assert_ne!(wcet(&m0, "caller"), wcet(&m1, "caller"));
        assert_eq!(wcet(&m0, "twin_a"), wcet(&m0, "twin_b"));
    }

    #[test]
    fn analysis_errors_match_the_unmemoised_evaluation() {
        // Recursion (found by the call-graph walk before any function is
        // analysed) and an unbounded loop (found by one function's solve,
        // after its callee was analysed and recorded): the final build
        // through the memo words each exactly as `evaluate_module` does.
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let config = CompilerConfig::all_off();
        for (src, wording, analysed) in [
            (
                "int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }",
                "recursion involving `fact`",
                (0, 0),
            ),
            (
                "int one(int x) { return x + 1; }
                 int spin(int n) { int s = 0; while (n > 0) { n = n - one(s); s = s + 1; } return s; }",
                "function `spin`: loop at block",
                (0, 1),
            ),
        ] {
            let ir = compile_to_ir(src).expect("front-end");
            let plain = evaluate_module(&ir, &config, &cm, &em).expect_err("unanalysable");
            assert!(plain.starts_with(wording), "{plain}");
            let cache = EvalCache::new(&ir, &cm, &em);
            let built = cache
                .final_build(&HashMap::new(), &config)
                .expect_err("unanalysable");
            assert_eq!(built, plain);
            let stats = cache.compile_memo_stats();
            assert_eq!((stats.analysis_hits, stats.analysis_misses), analysed);
            assert!(cache.evaluate(&config).is_none());
        }
    }

    #[test]
    fn module_metrics_sort_and_binary_search() {
        let m = |w| VariantMetrics {
            wcet_cycles: w,
            wcec_pj: 1.0,
            code_halfwords: 4,
        };
        let metrics = ModuleMetrics::new(vec![
            ("zeta".into(), m(3)),
            ("alpha".into(), m(1)),
            ("mid".into(), m(2)),
        ]);
        assert!(metrics.functions().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(metrics.of("alpha").map(|v| v.wcet_cycles), Some(1));
        assert_eq!(metrics.of("mid").map(|v| v.wcet_cycles), Some(2));
        assert_eq!(metrics.of("zeta").map(|v| v.wcet_cycles), Some(3));
        assert!(metrics.of("aardvark").is_none());
        assert!(metrics.of("zz").is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 16, ..proptest::ProptestConfig::default() })]

        /// Cached and uncached evaluation agree for random pipelines:
        /// whatever genome the search proposes, `EvalCache` returns
        /// exactly what a fresh `evaluate_module` computes.
        #[test]
        fn cached_and_uncached_evaluation_agree(genome in proptest::collection::vec(0.0f64..1.0, CompilerConfig::GENOME_DIMS)) {
            let ir = compile_to_ir(TASK).expect("front-end");
            let cm = CycleModel::pg32();
            let em = IsaEnergyModel::pg32_datasheet();
            let config = CompilerConfig::from_genome(&genome);
            let cache = EvalCache::new(&ir, &cm, &em);
            let direct = evaluate_module(&ir, &config, &cm, &em).ok();
            let first = cache.evaluate(&config);
            let second = cache.evaluate(&config);
            match (direct, first, second) {
                (Some((dp, dm)), Some((p1, m1)), Some((p2, m2))) => {
                    proptest::prop_assert!(dp == *p1 && *p1 == *p2, "programs diverged for {config:?}");
                    proptest::prop_assert_eq!(&dm, &m1);
                    proptest::prop_assert_eq!(&m1, &m2);
                }
                (None, None, None) => {}
                other => proptest::prop_assert!(false, "cached/uncached disagree: {:?}", other.0.is_some()),
            }
            proptest::prop_assert_eq!((cache.hits(), cache.misses()), (1, 1));
        }
    }

    #[test]
    fn code_size_metric_counts_halfwords() {
        let ir = compile_to_ir("int f() { return 1; }").expect("front-end");
        let program = compile_module(&ir, &CompilerConfig::all_off()).expect("compile");
        let f = program.function("f").expect("f");
        assert!(code_size_halfwords(f) > 0);
    }
}
