//! The compile memo: per-function pass transitions and codegen results
//! shared by every configuration one
//! [`EvalCache`](crate::driver::EvalCache) compiles, including the final
//! build, which compiles each function under its own configuration.
//!
//! Distinct configurations mostly repeat each other's work: they run the
//! same passes on the same function states and generate code for the
//! same optimised bodies. The memo interns every IR function state it
//! sees (a state is a whole [`IrFunction`], name included) and records
//!
//! * every pass invocation as a transition
//!   `(state, pass spec) → (next state, changed)`, so a repeated
//!   invocation costs one lookup;
//! * what codegen reads of a state alone (validation, storage classes
//!   and their usage ranking, proven loop bounds: [`Prepared`]), once per
//!   state, the first time the state is generated;
//! * every codegen call as `(final state, effective options) → code`.
//!   The effective options ([`Prepared::effective`]) drop what codegen
//!   of that state would not read: pinning beyond the registers it can
//!   pin, shift-add decomposition when no multiply decomposes. So two
//!   configurations that differ only there share one entry;
//! * every distinct compiled function, interned by content: a dense
//!   [`CodeId`] names one distinct body, name included, and keeps the
//!   facts every evaluation reads of it: its callee names, its encoded
//!   size and whether it validates. Two codegen entries with equal
//!   output share one code id;
//! * every function analysis as `(code id, callee bounds) → (WCET,
//!   WCEC)` ([`CompileMemo::bounds`]): one solve of the function's flow
//!   structure for both cost lanes, walked callee-first by
//!   [`teamplay_wcet::callee_first`].
//!
//! No lookup trusts a hash alone. The interners bucket states and code
//! by their structural hash and compare for equality within the bucket
//! before they return an existing id; transitions, codegen entries and
//! analyses are keyed by ids. This is hash-consing (Filliâtre &
//! Conchon, "Type-safe modular hash-consing", ML Workshop 2006): equal
//! code ids mean equal compiled functions and distinct ids distinct
//! ones, by construction, so the analysis table is exact and shared by
//! duplicates, and an evaluation hashes no compiled code (a codegen miss
//! hashes its output once, to intern it). A state is a whole function,
//! name included, and so is compiled code, so two same-body functions
//! under different names never share a code id.
//!
//! A compile returns code entries, not a program: an evaluation's
//! objectives need only its metrics, so its [`Program`] is assembled
//! from the entries ([`CompileMemo::assemble`]) only when something asks
//! for it. A store writes an evaluation from the entries too, so which
//! function bodies are the same is decided here alone.
//!
//! Replay rests on the pass contract in the [`crate::passes`] module
//! docs: every pass is pure in (body, spec, callee snapshot), and a pass
//! that reports no change leaves the body untouched. The callee snapshot
//! `inline` reads (the unoptimised module) and the codegen data layout
//! are fixed for the lifetime of one memo, which is why each cache owns
//! its own; so are the cost models the analysis table's bounds were
//! computed under. Every pass invocation can therefore replay, `inline`
//! included.
//!
//! The counters ([`CompileMemoStats`]) can vary with pool width: two
//! threads that miss on the same transition or analysis at once both
//! run it.
//! Results never vary, so the counters stay out of every byte-compared
//! artifact.

use crate::codegen::{emit, prepare, CodegenError, CodegenOpts, Prepared};
use crate::driver::{code_size_halfwords, codegen_opts, CompilerConfig};
use crate::passes::{snapshot_functions, PassManager, PassSpec, PassStats};
use crate::store::{Blob, Globals};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use teamplay_isa::{DataLayout, Function, Program};
use teamplay_minic::ir::{IrFunction, IrModule};
use teamplay_wcet::{bound_function, callee_first, CostLane, Preset, WcetError};

/// A fast non-cryptographic hasher (the multiply-rotate scheme of
/// rustc's `FxHasher`): one rotate, xor and multiply per word.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The structural hash of `t` with [`FxHasher`]; an [`IrFunction`]'s
/// leaves its name out.
pub(crate) fn content_hash<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut hasher = FxHasher::default();
    t.hash(&mut hasher);
    hasher.finish()
}

/// An interned IR function state.
type StateId = u32;

/// An interned [`PassSpec`].
type SpecId = u32;

/// One distinct compiled function, dense from 0 in the order the memo
/// first generated them.
pub(crate) type CodeId = u32;

/// A function's analysed bounds: WCET in cycles and WCEC in
/// millipicojoules (the energy lane's integer unit).
pub(crate) type Bounds = [u64; 2];

/// One distinct compiled function and the facts every evaluation reads
/// of it, computed once when the function is first generated, and its
/// store blob's name once a [`DiskStore`](crate::DiskStore) has written it.
#[derive(Debug)]
pub(crate) struct Code {
    pub(crate) id: CodeId,
    pub(crate) function: Function,
    /// The FNV-1a-128 name of the function's store blob, once written.
    pub(crate) blob: OnceLock<u128>,
    /// [`Function::callees`]: the callee names, in program order.
    pub(crate) callees: Vec<String>,
    /// [`code_size_halfwords`] of the function.
    pub(crate) halfwords: usize,
    /// Whether [`Function::validate`] accepts the function.
    pub(crate) valid: bool,
}

/// One compile through the memo: the code of each function of its
/// program, in the program's (name) order.
pub(crate) struct Compiled {
    pub(crate) code: Vec<Arc<Code>>,
    /// The [`PassStats`] of the functions compiled under the default
    /// configuration.
    pub(crate) stats: Vec<PassStats>,
}

/// Work counters of one cache's compile memo
/// ([`EvalCache::compile_memo_stats`](crate::driver::EvalCache::compile_memo_stats)).
///
/// `pass_runs + pass_replays` is the number of pass invocations the
/// cache's compiles made, the sum of their
/// [`PassStats::invocations`]. The split between runs and replays (and
/// between codegen hits and misses) can vary with pool width, so keep
/// these counts out of byte-compared output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileMemoStats {
    /// Pass invocations that ran: transition misses, each then
    /// recorded.
    pub pass_runs: usize,
    /// Pass invocations replayed from a recorded transition.
    pub pass_replays: usize,
    /// Distinct IR function states interned.
    pub states: usize,
    /// Codegen calls answered from the memo.
    pub codegen_hits: usize,
    /// Codegen calls that generated code: distinct `(state, effective
    /// options)` pairs at pool width 1.
    pub codegen_misses: usize,
    /// Distinct compiled functions interned, name included.
    pub codes: usize,
    /// Programs assembled from code entries: one per evaluation whose
    /// program was asked for, per [`EvalCache::compile`], per final build,
    /// and per compile that fails validation (to word its error).
    ///
    /// [`EvalCache::compile`]: crate::driver::EvalCache::compile
    pub programs_built: usize,
    /// Function analyses answered from the memo's exact
    /// `(code id, callee bounds)` table.
    pub analysis_hits: usize,
    /// Function analyses that ran and were recorded. Every function of
    /// every evaluated program is one hit or one miss, unless the
    /// program's analysis fails (errors are not memoised).
    pub analysis_misses: usize,
}

/// An interned IR function state.
struct State {
    body: Arc<IrFunction>,
    /// What codegen reads of the body alone, prepared when codegen first
    /// asks.
    prepared: OnceLock<Result<Prepared, CodegenError>>,
}

/// The memo's tables, behind one lock.
#[derive(Default)]
struct Tables {
    /// Every interned state, by id.
    states: Vec<Arc<State>>,
    /// State ids by structural hash: the equality-checked buckets.
    by_hash: FxMap<u64, Vec<StateId>>,
    specs: HashMap<PassSpec, SpecId>,
    transitions: FxMap<(StateId, SpecId), (StateId, bool)>,
    /// Codegen entries, keyed on the effective options.
    code_ids: FxMap<(StateId, CodegenOpts), CodeId>,
    /// Every distinct compiled function, by id.
    code: Vec<Arc<Code>>,
    /// Code ids by structural hash: the equality-checked buckets.
    code_by_hash: FxMap<u64, Vec<CodeId>>,
}

/// The per-function compile memo of one [`EvalCache`](crate::driver::EvalCache):
/// interned IR states, a `(state, pass)` transition memo, a codegen memo
/// and an analysis memo over one fixed module and platform.
pub(crate) struct CompileMemo {
    /// The unoptimised module's bodies: the snapshot `inline` reads.
    snapshot: HashMap<String, IrFunction>,
    /// The module's globals with no functions: every compile's start.
    blank: Program,
    /// The name of the globals' store blob, once written.
    globals_blob: OnceLock<u128>,
    layout: DataLayout,
    /// The module's functions as interned states, in module order.
    roots: Vec<StateId>,
    tables: Mutex<Tables>,
    /// Function bounds by code id and callee bounds (in `callees`
    /// order); behind its own lock, as analyses and compiles interleave.
    analyses: Mutex<FxMap<(CodeId, Vec<Bounds>), Bounds>>,
    pass_runs: AtomicUsize,
    pass_replays: AtomicUsize,
    codegen_hits: AtomicUsize,
    codegen_misses: AtomicUsize,
    analysis_hits: AtomicUsize,
    analysis_misses: AtomicUsize,
    programs_built: AtomicUsize,
}

impl CompileMemo {
    /// An empty memo over `ir`.
    pub(crate) fn new(ir: &IrModule) -> CompileMemo {
        let mut blank = Program::new();
        blank.globals.extend(ir.globals.iter().cloned());
        let layout = DataLayout::of_program(&blank);
        let mut memo = CompileMemo {
            snapshot: snapshot_functions(ir),
            blank,
            globals_blob: OnceLock::new(),
            layout,
            roots: Vec::new(),
            tables: Mutex::new(Tables::default()),
            analyses: Mutex::new(FxMap::default()),
            pass_runs: AtomicUsize::new(0),
            pass_replays: AtomicUsize::new(0),
            codegen_hits: AtomicUsize::new(0),
            codegen_misses: AtomicUsize::new(0),
            analysis_hits: AtomicUsize::new(0),
            analysis_misses: AtomicUsize::new(0),
            programs_built: AtomicUsize::new(0),
        };
        memo.roots = ir
            .functions
            .iter()
            .map(|f| memo.intern(&Arc::new(f.clone())))
            .collect();
        memo
    }

    fn tables(&self) -> std::sync::MutexGuard<'_, Tables> {
        self.tables.lock().expect("compile memo lock")
    }

    /// Compile the module with every function under its own
    /// configuration (`overrides` by name, `default` for the rest),
    /// every pass invocation and codegen call going through the memo.
    /// Each function comes out exactly as
    /// [`crate::driver::compile_module`] under its configuration leaves
    /// it: a function's pipeline reads only its own body and the
    /// unoptimised snapshot. Returns each function's code entry, from
    /// which [`CompileMemo::assemble`] builds the program, and the
    /// [`PassStats`] of the functions compiled under `default`, which
    /// count replays as invocations; with no overrides they are the
    /// whole compile's.
    ///
    /// The program is validated from the code entries' cached facts: a
    /// function's own [`Function::validate`] result, and a check that
    /// every callee is in the program. Only a program that fails them is
    /// assembled, to run [`Program::validate`] for its error.
    pub(crate) fn compile<'c>(
        &self,
        default: &'c CompilerConfig,
        overrides: &'c HashMap<String, CompilerConfig>,
    ) -> Result<Compiled, CodegenError> {
        // One manager per distinct configuration, `default` first: a
        // manager's stats align with its own pipeline.
        let manager = |config: &'c CompilerConfig| -> Result<_, CodegenError> {
            let pm = PassManager::new(config.pipeline.clone())?;
            Ok((config, pm, self.spec_ids(&config.pipeline.passes)))
        };
        let mut managers = vec![manager(default)?];
        // Every pipeline first, then codegen, as `compile_module` orders
        // them: a codegen failure leaves the same pass work behind.
        let mut optimised: Vec<(StateId, CodegenOpts)> = Vec::new();
        for &root in &self.roots {
            let mut body = Arc::clone(&self.state(root).body);
            let config = overrides.get(&body.name).unwrap_or(default);
            let k = match managers.iter().position(|(c, ..)| *c == config) {
                Some(k) => k,
                None => {
                    managers.push(manager(config)?);
                    managers.len() - 1
                }
            };
            let (config, pm, specs) = &mut managers[k];
            let mut cursor = MemoCursor {
                memo: self,
                specs,
                state: root,
            };
            pm.run_pipeline(&mut body, &self.snapshot, Some(&mut cursor));
            optimised.push((cursor.state, codegen_opts(config)));
        }
        let mut code = Vec::with_capacity(optimised.len());
        for &(state, opts) in &optimised {
            code.push(self.codegen(state, opts)?);
        }
        // Into the program's order. A later function replaces an earlier
        // one of the same name, as in `Program::add_function`.
        code.sort_by(|a, b| a.function.name.cmp(&b.function.name));
        code.dedup_by(|later, kept| {
            let same = later.function.name == kept.function.name;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        let valid = code.iter().all(|c| {
            c.valid
                && c.callees.iter().all(|callee| {
                    code.binary_search_by(|c| c.function.name.as_str().cmp(callee))
                        .is_ok()
                })
        });
        if !valid {
            self.assemble(&code)
                .validate()
                .map_err(CodegenError::InvalidIr)?;
        }
        Ok(Compiled {
            code,
            stats: managers[0].1.stats().to_vec(),
        })
    }

    /// The program of a compile's `code` (in program order, as
    /// [`CompileMemo::compile`] returns it): the module's globals and a
    /// copy of each function.
    pub(crate) fn assemble(&self, code: &[Arc<Code>]) -> Program {
        self.programs_built.fetch_add(1, Ordering::Relaxed);
        let mut program = self.blank.clone();
        program.functions = code
            .iter()
            .map(|c| (c.function.name.clone(), c.function.clone()))
            .collect();
        program
    }

    /// The module's globals, with the cell naming their store blob.
    pub(crate) fn globals(&self) -> Blob<'_, Globals> {
        (&self.globals_blob, &self.blank.globals)
    }

    /// The bounds of every function of a compiled program, `code` in the
    /// program's order as [`CompileMemo::compile`] returns it, in the
    /// `lanes` (cycles, then energy), walked callee-first over the cached
    /// callee lists by [`callee_first`]. Each function's bounds come from
    /// the analysis table, keyed on its code id and its callees' bounds,
    /// or else from one [`bound_function`] solve for both lanes, which is
    /// recorded in the table.
    ///
    /// # Errors
    /// The walk's: recursion, or the first function in callee-first
    /// order whose analysis fails. Nothing is recorded for a function
    /// that fails.
    pub(crate) fn bounds(
        &self,
        code: &[Arc<Code>],
        lanes: &[&dyn CostLane; 2],
    ) -> Result<Vec<Bounds>, WcetError> {
        let calls: Vec<(&str, &[String])> = code
            .iter()
            .map(|c| (c.function.name.as_str(), c.callees.as_slice()))
            .collect();
        callee_first(&calls, |i, callee_bounds: &[Bounds]| {
            let code = &code[i];
            let key = (code.id, callee_bounds.to_vec());
            if let Some(&found) = self.analyses().get(&key) {
                self.analysis_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(found);
            }
            let found = bound_function(
                &code.function,
                &code.callees,
                callee_bounds,
                lanes,
                Preset::Ipet,
            )?;
            self.analysis_misses.fetch_add(1, Ordering::Relaxed);
            self.analyses().insert(key, found);
            Ok(found)
        })
    }

    fn analyses(&self) -> std::sync::MutexGuard<'_, FxMap<(CodeId, Vec<Bounds>), Bounds>> {
        self.analyses.lock().expect("analysis memo lock")
    }

    /// The memo's counters.
    pub(crate) fn stats(&self) -> CompileMemoStats {
        let tables = self.tables();
        CompileMemoStats {
            pass_runs: self.pass_runs.load(Ordering::Relaxed),
            pass_replays: self.pass_replays.load(Ordering::Relaxed),
            states: tables.states.len(),
            codegen_hits: self.codegen_hits.load(Ordering::Relaxed),
            codegen_misses: self.codegen_misses.load(Ordering::Relaxed),
            codes: tables.code.len(),
            programs_built: self.programs_built.load(Ordering::Relaxed),
            analysis_hits: self.analysis_hits.load(Ordering::Relaxed),
            analysis_misses: self.analysis_misses.load(Ordering::Relaxed),
        }
    }

    fn spec_ids(&self, specs: &[PassSpec]) -> Vec<SpecId> {
        let mut tables = self.tables();
        specs
            .iter()
            .map(|spec| match tables.specs.get(spec) {
                Some(&id) => id,
                None => {
                    let id = tables.specs.len() as SpecId;
                    tables.specs.insert(spec.clone(), id);
                    id
                }
            })
            .collect()
    }

    fn state(&self, id: StateId) -> Arc<State> {
        Arc::clone(&self.tables().states[id as usize])
    }

    /// The id of `f`'s state, interning it if it is new.
    fn intern(&self, f: &Arc<IrFunction>) -> StateId {
        let hash = content_hash(f);
        let mut tables = self.tables();
        let Tables {
            states, by_hash, ..
        } = &mut *tables;
        let bucket = by_hash.entry(hash).or_default();
        if let Some(&id) = bucket.iter().find(|&&id| *states[id as usize].body == **f) {
            return id;
        }
        let id = states.len() as StateId;
        states.push(Arc::new(State {
            body: Arc::clone(f),
            prepared: OnceLock::new(),
        }));
        bucket.push(id);
        id
    }

    /// The code of state `state` under `opts`, keyed on the options
    /// codegen of the state reads.
    fn codegen(&self, state: StateId, opts: CodegenOpts) -> Result<Arc<Code>, CodegenError> {
        let state_entry = self.state(state);
        let prepared = state_entry
            .prepared
            .get_or_init(|| prepare(&state_entry.body));
        let prepared = prepared.as_ref().map_err(Clone::clone)?;
        let key = (state, prepared.effective(opts));
        {
            let tables = self.tables();
            if let Some(&id) = tables.code_ids.get(&key) {
                self.codegen_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&tables.code[id as usize]));
            }
        }
        self.codegen_misses.fetch_add(1, Ordering::Relaxed);
        let code = self.intern_code(emit(&state_entry.body, prepared, &self.layout, key.1)?);
        self.tables().code_ids.insert(key, code.id);
        Ok(code)
    }

    /// The code entry of `function`, interning it with its facts if it is
    /// new.
    fn intern_code(&self, function: Function) -> Arc<Code> {
        let hash = content_hash(&function);
        let mut tables = self.tables();
        let Tables {
            code, code_by_hash, ..
        } = &mut *tables;
        let bucket = code_by_hash.entry(hash).or_default();
        if let Some(&id) = bucket
            .iter()
            .find(|&&id| code[id as usize].function == function)
        {
            return Arc::clone(&code[id as usize]);
        }
        let entry = Arc::new(Code {
            id: code.len() as CodeId,
            callees: function.callees(),
            halfwords: code_size_halfwords(&function),
            valid: function.validate().is_ok(),
            function,
            blob: OnceLock::new(),
        });
        bucket.push(entry.id);
        code.push(Arc::clone(&entry));
        entry
    }
}

/// Where one function's pipeline stands in a [`CompileMemo`]: the state
/// the working body is in, and the interned specs of the pipeline's
/// slots. [`PassManager`]'s application core consults it before running
/// each pass and reports every pass that ran.
pub(crate) struct MemoCursor<'m> {
    memo: &'m CompileMemo,
    specs: &'m [SpecId],
    state: StateId,
}

impl MemoCursor<'_> {
    /// Replay the pass in pipeline slot `slot` from the current state,
    /// if that transition is recorded, returning its change flag. On a
    /// change the cursor moves and `f` becomes the recorded output
    /// state, shared with the memo rather than copied.
    pub(crate) fn replay(&mut self, slot: usize, f: &mut Arc<IrFunction>) -> Option<bool> {
        let (next, changed) = {
            let tables = self.memo.tables();
            let &(next, changed) = tables.transitions.get(&(self.state, self.specs[slot]))?;
            if changed {
                *f = Arc::clone(&tables.states[next as usize].body);
            }
            (next, changed)
        };
        self.memo.pass_replays.fetch_add(1, Ordering::Relaxed);
        self.state = next;
        Some(changed)
    }

    /// Report that the pass in `slot` ran from the current state, left
    /// `f` and reported `changed`; record the transition and move the
    /// cursor to `f`'s state.
    pub(crate) fn record(&mut self, slot: usize, f: &Arc<IrFunction>, changed: bool) {
        let memo = self.memo;
        memo.pass_runs.fetch_add(1, Ordering::Relaxed);
        let next = if changed {
            memo.intern(f)
        } else {
            debug_assert_eq!(
                **f,
                *memo.state(self.state).body,
                "a pass that reported no change edited the body"
            );
            self.state
        };
        memo.tables()
            .transitions
            .insert((self.state, self.specs[slot]), (next, changed));
        self.state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_minic::compile_to_ir;
    use teamplay_minic::ir::IrBlockId;

    fn module() -> IrModule {
        compile_to_ir(
            "int f(int x) { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + x; } return s; }
             int g(int x) { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + x; } return s; }",
        )
        .expect("front-end")
    }

    #[test]
    fn content_hash_ignores_the_name_and_the_loop_bound_order() {
        let ir = module();
        let (f, g) = (&ir.functions[0], &ir.functions[1]);
        let renamed = IrFunction {
            name: g.name.clone(),
            ..f.clone()
        };
        assert!(renamed == *g && f != g);
        assert_eq!(content_hash(f), content_hash(g));

        let mut a = f.clone();
        let mut b = f.clone();
        a.loop_bounds.clear();
        b.loop_bounds.clear();
        for n in 0..16 {
            a.loop_bounds.insert(IrBlockId(n), n + 1);
            b.loop_bounds.insert(IrBlockId(15 - n), 16 - n);
        }
        assert_eq!(a, b);
        assert_eq!(content_hash(&a), content_hash(&b));
        b.loop_bounds.insert(IrBlockId(3), 99);
        assert_ne!(content_hash(&a), content_hash(&b));
    }

    #[test]
    fn codegen_entries_with_equal_output_share_one_code_and_analysis() {
        // `bound(64)` on a loop the value graph proves runs 8 times: the
        // two states differ only in the annotation, which codegen
        // tightens to 8, so they generate equal code.
        let src = |annotation: &str| {
            format!(
                "int f(int x) {{ int s = 0; {annotation}
                 for (int i = 0; i < 8; i = i + 1) {{ s = s + x; }} return s; }}"
            )
        };
        let wide = compile_to_ir(&src("/*@ loop bound(64) @*/")).expect("front-end");
        let tight = compile_to_ir(&src("")).expect("front-end");
        assert_ne!(wide.functions[0], tight.functions[0]);
        let memo = CompileMemo::new(&wide);
        let tight_state = memo.intern(&Arc::new(tight.functions[0].clone()));
        assert_ne!(tight_state, memo.roots[0]);

        // No multiply: `mul_shift_add` is not an effective option, so
        // both settings are one codegen entry.
        let plain = CodegenOpts::from(2);
        let shift_add = CodegenOpts {
            mul_shift_add: true,
            ..plain
        };
        let a = memo.codegen(memo.roots[0], plain).expect("codegen");
        let b = memo.codegen(memo.roots[0], shift_add).expect("codegen");
        let c = memo.codegen(tight_state, plain).expect("codegen");
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c));
        let stats = memo.stats();
        assert_eq!(
            (stats.codegen_hits, stats.codegen_misses, stats.codes),
            (1, 2, 1)
        );

        let (cm, em) = (
            teamplay_isa::CycleModel::pg32(),
            teamplay_energy::IsaEnergyModel::pg32_datasheet(),
        );
        let energy = teamplay_energy::EnergyLane::new(&em, &cm);
        let first = memo.bounds(&[a], &[&cm, &energy]).expect("bounded");
        let second = memo.bounds(&[c], &[&cm, &energy]).expect("bounded");
        assert_eq!(first, second);
        let stats = memo.stats();
        assert_eq!((stats.analysis_hits, stats.analysis_misses), (1, 1));
    }

    #[test]
    fn interning_compares_states_not_hashes() {
        let ir = module();
        let memo = CompileMemo::new(&ir);
        // Same body, different names: one hash bucket, two states.
        assert_ne!(memo.roots[0], memo.roots[1]);
        assert_eq!(memo.stats().states, 2);
        // An equal state interns to the existing id.
        let again = Arc::new(ir.functions[1].clone());
        assert_eq!(memo.intern(&again), memo.roots[1]);
        assert_eq!(memo.stats().states, 2);
    }
}
