//! The leakage axis of the Pareto search: leakage as the third
//! objective family.
//!
//! A plain [`pareto_search`](crate::driver::pareto_search) optimises
//! (WCET, WCEC, code size). A [`SearchRequest`](crate::driver::SearchRequest)
//! with a [`LeakageAxis`] extends the genome with one *ladder-rung gene*
//! selecting the countermeasure level the variant is compiled under —
//! rung 0 is the task's plain IR, rung 1 the [`ladderise_module`]-hardened
//! IR — and appends a fourth objective: the leakage the
//! [`assess_leakage`] measurement rig observes on the compiled variant
//! (the worse channel's |Welch t|, always finite since
//! [`WELCH_T_CAP`](teamplay_security::WELCH_T_CAP) bounds degenerate
//! sample sets). The FPA then explores the full time/energy/leakage
//! trade-off space the paper's Fig. 1 promises: a hardened variant costs
//! cycles and picojoules but crushes the leakage axis, and the archive
//! keeps both ends of that trade.
//!
//! This module holds only the leakage pieces: the rung gene, the
//! measurement rig, the hardened module, and the leakage-score memo the
//! search consults. Determinism carries over unchanged from the plain
//! search: the rung gene decodes purely, each rung evaluates through its
//! own [`EvalCache`] (one per IR), and leakage scores are memoized behind
//! per-(rung, config) `OnceLock`s with a deterministic simulator seed —
//! so fronts with the leakage axis are bit-identical at any pool width.
//!
//! When the search's cache has a [`DiskStore`] attached, leakage scores
//! persist alongside evaluation entries under their own key chain (a
//! `"leak"` discriminator keeps the two entry kinds collision-free);
//! [`STORE_FORMAT_VERSION`] was bumped to 2 when these entries were
//! introduced.

use crate::driver::{CompilerConfig, EvalCache};
use crate::store::{self, DiskStore, STORE_FORMAT_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use teamplay_isa::Program;
use teamplay_minic::ir::IrModule;
use teamplay_security::{
    assess_leakage, ladderise_module, secret_params_of, LadderReport, SecretSpec,
};

/// Genome dimensions of a search with the leakage axis: the plain
/// [`CompilerConfig::GENOME_DIMS`] plus the trailing ladder-rung gene.
/// [`CompilerConfig::from_genome`] ignores genes past its own dims, so
/// the first 17 genes decode exactly as in the plain search.
pub const SECURE_GENOME_DIMS: usize = CompilerConfig::GENOME_DIMS + 1;

/// Number of countermeasure rungs the rung gene selects from.
pub const LADDER_RUNGS: u32 = 2;

/// Decode the ladder-rung gene (index [`CompilerConfig::GENOME_DIMS`],
/// absent = 0): `[0, 0.5)` → rung 0 (plain), `[0.5, 1]` → rung 1
/// (ladderised).
pub fn rung_of_genome(genome: &[f64]) -> u32 {
    let g = genome
        .get(CompilerConfig::GENOME_DIMS)
        .copied()
        .unwrap_or(0.0);
    u32::from(g >= 0.5)
}

/// Extend a plain 17-gene genome with an explicit rung gene (encoded at
/// the centre of its decoding window, mirroring
/// [`CompilerConfig::to_genome`]'s parameter style).
pub fn genome_with_rung(genome: &[f64], rung: u32) -> Vec<f64> {
    let mut g = genome.to_vec();
    g.resize(CompilerConfig::GENOME_DIMS, 0.0);
    g.push(if rung == 0 { 0.25 } else { 0.75 });
    g
}

/// The measurement-rig configuration of one leakage axis: which
/// argument of the task is secret, which two classes to compare, and
/// how to drive the simulator. Serializable so leakage-score store keys
/// can commit to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageRig {
    /// Total scalar argument count of the task function.
    pub arg_count: usize,
    /// The secret argument and its two classes.
    pub secret: SecretSpec,
    /// Traces per class (paired public draws).
    pub traces_per_class: usize,
    /// Lower bound (inclusive) of the public-input range.
    pub public_lo: i32,
    /// Upper bound (exclusive) of the public-input range.
    pub public_hi: i32,
    /// RNG seed of the rig (independent of the search seed).
    pub seed: u64,
}

/// Clone `ir` and run the countermeasure ladder over every function
/// with `secret(...)` annotations — the rung-1 module of a
/// [`LeakageAxis`]. Returns the hardened module and the per-function ladder
/// reports (callers deciding policy can check
/// [`LadderReport::fully_hardened`]).
pub fn ladderised_ir(ir: &IrModule) -> (IrModule, HashMap<String, LadderReport>) {
    let mut hard = ir.clone();
    let secrets: HashMap<_, _> = hard
        .functions
        .iter()
        .map(|f| (f.name.clone(), secret_params_of(f)))
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let reports = ladderise_module(&mut hard, &secrets);
    (hard, reports)
}

/// Score one compiled variant on the rig: the worse channel's |Welch t|
/// (finite by construction). `None` when the measurement run traps —
/// treated as infeasible, exactly like a failed compile.
fn leak_score(program: &Program, task: &str, rig: &LeakageRig) -> Option<f64> {
    let report = assess_leakage(
        program,
        task,
        rig.arg_count,
        rig.secret,
        rig.traces_per_class,
        rig.public_lo..rig.public_hi,
        rig.seed,
    )
    .ok()?;
    Some(report.time.welch_t.max(report.energy.welch_t))
}

/// The leakage axis of a [`SearchRequest`](crate::driver::SearchRequest):
/// the task module hardened by [`ladderised_ir`] (the rung-1 IR) and the
/// rig that measures each variant's leakage.
#[derive(Debug, Clone, Copy)]
pub struct LeakageAxis<'a> {
    /// The ladderised counterpart of the search cache's IR.
    pub hardened: &'a IrModule,
    /// The measurement rig.
    pub rig: &'a LeakageRig,
}

/// One memo slot: the `OnceLock` serialises concurrent probes of the
/// same (rung, config) variant.
type LeakSlot = Arc<OnceLock<Option<f64>>>;

/// The leakage side of one search: the rung-1 evaluation cache and a
/// per-(rung, config) leakage memo. Concurrent probes of one variant
/// block on a per-entry `OnceLock`, so each variant is simulated by
/// exactly one thread (the same discipline [`EvalCache`] applies to
/// compiles) and results are identical at any pool width. With a store
/// attached, misses probe/spill score entries keyed by the rung's own
/// prefix chain.
pub(crate) struct LeakMemo<'a> {
    /// Evaluations of the hardened IR (rung 1).
    pub(crate) hardened: EvalCache<'a>,
    rig: &'a LeakageRig,
    task: &'a str,
    entries: Mutex<HashMap<(u32, CompilerConfig), LeakSlot>>,
    /// The store and, per rung, the FNV chain over (format version,
    /// "leak" discriminator, task, rig), then the cost models, then the
    /// rung's IR. `None` without a store.
    disk: Option<(&'a DiskStore, [u128; 2])>,
}

impl<'a> LeakMemo<'a> {
    /// The leakage side of a search over `plain`: the hardened cache and
    /// the score keys take their cost models and store from `plain`, so
    /// the two rungs can never disagree on either.
    pub(crate) fn new(plain: &EvalCache<'a>, axis: LeakageAxis<'a>, task: &'a str) -> LeakMemo<'a> {
        let (cycle_model, energy_model) = (plain.cycle_model, plain.energy_model);
        let (hardened, disk) = match plain.disk {
            Some(disk) => {
                let base = store::hash_json(
                    store::fnv_offset(),
                    &(STORE_FORMAT_VERSION, "leak", task, axis.rig),
                );
                let base = store::hash_json(base, &(cycle_model, energy_model));
                let keys = [plain.ir, axis.hardened].map(|ir| store::hash_json(base, ir));
                let cache = EvalCache::with_store(axis.hardened, cycle_model, energy_model, disk);
                (cache, Some((disk, keys)))
            }
            None => (
                EvalCache::new(axis.hardened, cycle_model, energy_model),
                None,
            ),
        };
        LeakMemo {
            hardened,
            rig: axis.rig,
            task,
            entries: Mutex::new(HashMap::new()),
            disk,
        }
    }

    /// The leakage score of `program`, the rung-`rung` compile of
    /// `config`; `None` when the measurement run traps.
    pub(crate) fn score(
        &self,
        rung: u32,
        config: &CompilerConfig,
        program: &Program,
    ) -> Option<f64> {
        let cell = {
            let mut entries = self.entries.lock().expect("leak memo lock");
            entries
                .entry((rung, config.clone()))
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        *cell.get_or_init(|| match self.disk {
            Some((disk, keys)) => {
                let key = store::hash_json(keys[rung as usize], config);
                if let Some(found) = disk.load_score(key) {
                    found
                } else {
                    let fresh = leak_score(program, self.task, self.rig);
                    disk.store_score(key, &fresh);
                    fresh
                }
            }
            None => leak_score(program, self.task, self.rig),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{pareto_search, ParetoFront, SearchRequest};
    use crate::FpaConfig;
    use minipool::Pool;
    use teamplay_energy::IsaEnergyModel;
    use teamplay_isa::CycleModel;
    use teamplay_minic::compile_to_ir;

    /// A branchy secret comparator: rung 0 leaks, rung 1 must not.
    const SECRET_TASK: &str = "/*@ secret(k) @*/
        int gate(int k, int x) {
            int r = 0;
            if (k > 100) { r = (x * 3 + k) * (x - 2) + x / 3; } else { r = x; }
            return r;
        }";

    fn rig() -> LeakageRig {
        LeakageRig {
            arg_count: 2,
            secret: SecretSpec {
                arg_index: 0,
                class0: 0,
                class1: 200,
            },
            traces_per_class: 24,
            public_lo: 0,
            public_hi: 1000,
            seed: 7,
        }
    }

    /// A `gate` search with the leakage axis over `cache`.
    fn search(pool: &Pool, cache: &EvalCache<'_>, hardened: &IrModule, seed: u64) -> ParetoFront {
        let rig = rig();
        let request = SearchRequest {
            leakage: Some(LeakageAxis {
                hardened,
                rig: &rig,
            }),
            ..SearchRequest::new("gate", FpaConfig::tiny(), seed)
        };
        pareto_search(pool, cache, &request)
    }

    #[test]
    fn rung_gene_round_trips_and_prefix_decodes_identically() {
        for rung in [0, 1] {
            let plain = vec![0.3; CompilerConfig::GENOME_DIMS];
            let g = genome_with_rung(&plain, rung);
            assert_eq!(g.len(), SECURE_GENOME_DIMS);
            assert_eq!(rung_of_genome(&g), rung);
            // The rung gene is invisible to the config decoder.
            assert_eq!(
                CompilerConfig::from_genome(&g),
                CompilerConfig::from_genome(&plain)
            );
        }
        // A bare 17-gene genome is rung 0.
        assert_eq!(rung_of_genome(&[0.9; CompilerConfig::GENOME_DIMS]), 0);
    }

    #[test]
    fn secure_front_mixes_rungs_and_the_ladder_cuts_leakage() {
        let ir = compile_to_ir(SECRET_TASK).expect("front-end");
        let (hard, reports) = ladderised_ir(&ir);
        assert!(reports["gate"].fully_hardened(), "{reports:?}");
        let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
        let front = search(&Pool::new(1), &EvalCache::new(&ir, &cm, &em), &hard, 42);
        assert!(!front.variants.is_empty());
        // Each probe lands in exactly one rung's cache, and the stats sum
        // both: one probe per evaluation and per rebuilt archive point.
        let stats = front.stats;
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            stats.evaluations + front.variants.len(),
            "{stats:?}"
        );
        for v in &front.variants {
            let s = v.security.expect("secure variants carry security");
            assert!(s.leakage.is_finite());
            assert!(s.rung < LADDER_RUNGS);
        }
        // The hardened rung must appear on the front (it owns the
        // leakage axis) and beat every rung-0 variant on it.
        let best_hard = front
            .variants
            .iter()
            .filter_map(|v| v.security.filter(|s| s.rung == 1))
            .map(|s| s.leakage)
            .fold(f64::INFINITY, f64::min);
        let best_plain = front
            .variants
            .iter()
            .filter_map(|v| v.security.filter(|s| s.rung == 0))
            .map(|s| s.leakage)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_hard < best_plain,
            "ladderised variants must dominate the leakage axis: \
             rung1 {best_hard} vs rung0 {best_plain}"
        );
    }

    #[test]
    fn secure_search_is_byte_identical_across_pool_widths() {
        let ir = compile_to_ir(SECRET_TASK).expect("front-end");
        let (hard, _) = ladderised_ir(&ir);
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let run = |threads: usize| {
            search(
                &Pool::new(threads),
                &EvalCache::new(&ir, &cm, &em),
                &hard,
                42,
            )
        };
        let seq = run(1);
        let seq_bytes = serde_json::to_string(&seq.variants).expect("serializes");
        for threads in [2, 4] {
            let par = run(threads);
            let par_bytes = serde_json::to_string(&par.variants).expect("serializes");
            assert_eq!(seq_bytes, par_bytes, "{threads}-thread front diverged");
            assert_eq!(seq.stats, par.stats, "{threads}-thread stats diverged");
        }
    }

    /// FNV-1a-128 of `value`'s compact JSON, continuing from `hash`:
    /// the store's key step, restated so the test derives keys on its
    /// own.
    fn chain<T: Serialize>(hash: u128, value: &T) -> u128 {
        serde_json::to_string(value)
            .expect("serializes")
            .bytes()
            .fold(hash, |hash, b| {
                (hash ^ u128::from(b)).wrapping_mul(0x0000000001000000000000000000013B)
            })
    }

    #[test]
    fn secure_search_warm_starts_from_the_store() {
        let dir =
            std::env::temp_dir().join(format!("teamplay-secure-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ir = compile_to_ir(SECRET_TASK).expect("front-end");
        let (hard, _) = ladderised_ir(&ir);
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let run = |disk: &DiskStore| {
            search(
                &Pool::new(2),
                &EvalCache::with_store(&ir, &cm, &em, disk),
                &hard,
                9,
            )
        };
        let cold = run(&DiskStore::open(&dir).expect("store dir"));
        assert!(cold.stats.disk_misses > 0);
        assert_eq!(cold.stats.disk_hits, 0);

        // Every archived variant's score sits at the key the documented
        // chain names: (format version, "leak", task, rig), then the
        // cost models, then the rung's IR, then the configuration.
        let base = chain(
            0x6c62272e07bb014262b821756295c58d,
            &(STORE_FORMAT_VERSION, "leak", "gate", rig()),
        );
        let base = chain(base, &(&cm, &em));
        let probe = DiskStore::open(&dir).expect("store reopens");
        assert!(!cold.variants.is_empty());
        for v in &cold.variants {
            let security = v.security.expect("leakage axis on");
            let rung_ir = if security.rung == 0 { &ir } else { &hard };
            let key = chain(chain(base, rung_ir), &v.config);
            assert_eq!(
                probe.load_score(key),
                Some(Some(security.leakage)),
                "score key of {security:?}"
            );
        }

        let warm_store = DiskStore::open(&dir).expect("store reopens");
        let warm = run(&warm_store);
        assert_eq!(warm.stats.disk_misses, 0, "everything replays from disk");
        assert_eq!(warm.stats.disk_hits, cold.stats.disk_misses);
        // Evaluations and leakage scores alike: every probe hits.
        let disk = warm_store.stats();
        assert!(disk.loads > 0);
        assert_eq!(disk.hits, disk.loads, "{disk:?}");
        assert_eq!(disk.corrupt_misses, 0, "{disk:?}");
        let bytes = |f: &ParetoFront| serde_json::to_string(&f.variants).expect("serializes");
        assert_eq!(bytes(&cold), bytes(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
