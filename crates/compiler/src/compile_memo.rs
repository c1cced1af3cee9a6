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
//! * every codegen call as `(final state, CodegenOpts) → Arc<Function>`.
//!
//! No lookup trusts a hash alone. The interner buckets states by their
//! structural hash and compares for equality within the bucket before it
//! returns an existing id; transitions and codegen entries are keyed by
//! ids.
//!
//! Replay rests on the pass contract in the [`crate::passes`] module
//! docs: a memoisable pass is pure in (body, spec, snapshot), and a pass
//! that reports no change leaves the body untouched. The inline snapshot
//! (the unoptimised module) and the codegen data layout are fixed for
//! the lifetime of one memo, which is why each cache owns its own.
//!
//! The counters ([`CompileMemoStats`]) can vary with pool width: two
//! threads that miss on the same transition at once both run the pass.
//! Results never vary, so the counters stay out of every byte-compared
//! artifact.

use crate::codegen::{generate_function, CodegenError, CodegenOpts};
use crate::driver::{codegen_opts, CompilerConfig};
use crate::passes::{snapshot_functions, PassManager, PassSpec, PassStats};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use teamplay_isa::{DataLayout, Function, Program};
use teamplay_minic::ir::{IrFunction, IrModule};

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

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The structural hash of a function body (its name left out), with
/// [`FxHasher`].
pub(crate) fn content_hash(f: &IrFunction) -> u64 {
    let mut hasher = FxHasher::default();
    f.hash(&mut hasher);
    hasher.finish()
}

/// An interned IR function state.
type StateId = u32;

/// An interned [`PassSpec`].
type SpecId = u32;

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
    /// Pass invocations that ran: transition misses, plus every
    /// invocation of a pass that opts out of the memo
    /// ([`Pass::memoisable`](crate::passes::Pass::memoisable)).
    pub pass_runs: usize,
    /// Pass invocations replayed from a recorded transition.
    pub pass_replays: usize,
    /// Distinct IR function states interned.
    pub states: usize,
    /// Codegen calls answered from the memo.
    pub codegen_hits: usize,
    /// Codegen calls that generated code.
    pub codegen_misses: usize,
}

/// The memo's tables, behind one lock.
#[derive(Default)]
struct Tables {
    /// Every interned state, by id.
    states: Vec<Arc<IrFunction>>,
    /// State ids by structural hash: the equality-checked buckets.
    by_hash: FxMap<u64, Vec<StateId>>,
    specs: HashMap<PassSpec, SpecId>,
    transitions: FxMap<(StateId, SpecId), (StateId, bool)>,
    code: FxMap<(StateId, CodegenOpts), Arc<Function>>,
}

/// The per-function compile memo of one [`EvalCache`](crate::driver::EvalCache):
/// interned IR states, a `(state, pass)` transition memo and a codegen
/// memo over one fixed module.
pub(crate) struct CompileMemo {
    /// The unoptimised module's bodies: the snapshot `inline` reads.
    snapshot: HashMap<String, IrFunction>,
    /// The module's globals with no functions: every compile's start.
    blank: Program,
    layout: DataLayout,
    /// The module's functions as interned states, in module order.
    roots: Vec<StateId>,
    tables: Mutex<Tables>,
    pass_runs: AtomicUsize,
    pass_replays: AtomicUsize,
    codegen_hits: AtomicUsize,
    codegen_misses: AtomicUsize,
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
            layout,
            roots: Vec::new(),
            tables: Mutex::new(Tables::default()),
            pass_runs: AtomicUsize::new(0),
            pass_replays: AtomicUsize::new(0),
            codegen_hits: AtomicUsize::new(0),
            codegen_misses: AtomicUsize::new(0),
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
    /// unoptimised snapshot. Also returns the [`PassStats`] of the
    /// functions compiled under `default`, which count replays as
    /// invocations; with no overrides they are the whole compile's.
    pub(crate) fn compile<'c>(
        &self,
        default: &'c CompilerConfig,
        overrides: &'c HashMap<String, CompilerConfig>,
    ) -> Result<(Program, Vec<PassStats>), CodegenError> {
        // One manager per distinct configuration, `default` first: a
        // manager's stats align with its own pipeline.
        let manager = |config: &'c CompilerConfig| -> Result<_, CodegenError> {
            let pm = PassManager::new(config.pipeline.clone())?;
            Ok((config, pm, self.spec_ids(&config.pipeline.passes)))
        };
        let mut managers = vec![manager(default)?];
        // Every pipeline first, then codegen, as `compile_module` orders
        // them: a codegen failure leaves the same pass work behind.
        let mut optimised: Vec<(StateId, Arc<IrFunction>, CodegenOpts)> = Vec::new();
        for &root in &self.roots {
            let mut body = self.state(root);
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
            optimised.push((cursor.state, body, codegen_opts(config)));
        }
        let mut program = self.blank.clone();
        for (state, body, opts) in &optimised {
            let code = self.codegen(*state, body, *opts)?;
            program.add_function(Function::clone(&code));
        }
        program.validate().map_err(CodegenError::InvalidIr)?;
        Ok((program, managers[0].1.stats().to_vec()))
    }

    /// The memo's counters.
    pub(crate) fn stats(&self) -> CompileMemoStats {
        CompileMemoStats {
            pass_runs: self.pass_runs.load(Ordering::Relaxed),
            pass_replays: self.pass_replays.load(Ordering::Relaxed),
            states: self.tables().states.len(),
            codegen_hits: self.codegen_hits.load(Ordering::Relaxed),
            codegen_misses: self.codegen_misses.load(Ordering::Relaxed),
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

    fn state(&self, id: StateId) -> Arc<IrFunction> {
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
        if let Some(&id) = bucket.iter().find(|&&id| *states[id as usize] == **f) {
            return id;
        }
        let id = states.len() as StateId;
        states.push(Arc::clone(f));
        bucket.push(id);
        id
    }

    /// The code of state `state` (whose body is `f`) under `opts`.
    fn codegen(
        &self,
        state: StateId,
        f: &IrFunction,
        opts: CodegenOpts,
    ) -> Result<Arc<Function>, CodegenError> {
        if let Some(code) = self.tables().code.get(&(state, opts)).cloned() {
            self.codegen_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(code);
        }
        self.codegen_misses.fetch_add(1, Ordering::Relaxed);
        let code = Arc::new(generate_function(f, &self.layout, opts)?);
        Ok(Arc::clone(
            self.tables().code.entry((state, opts)).or_insert(code),
        ))
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
                *f = Arc::clone(&tables.states[next as usize]);
            }
            (next, changed)
        };
        self.memo.pass_replays.fetch_add(1, Ordering::Relaxed);
        self.state = next;
        Some(changed)
    }

    /// Report that the pass in `slot` ran from the current state, left
    /// `f` and reported `changed`; move the cursor to `f`'s state, and
    /// record the transition if the pass is `memoisable`.
    pub(crate) fn record(
        &mut self,
        slot: usize,
        f: &Arc<IrFunction>,
        changed: bool,
        memoisable: bool,
    ) {
        let memo = self.memo;
        memo.pass_runs.fetch_add(1, Ordering::Relaxed);
        let next = if changed {
            memo.intern(f)
        } else {
            debug_assert_eq!(
                **f,
                *memo.state(self.state),
                "a pass that reported no change edited the body"
            );
            self.state
        };
        if memoisable {
            memo.tables()
                .transitions
                .insert((self.state, self.specs[slot]), (next, changed));
        }
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
        assert!(f.same_body(g) && f != g);
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
