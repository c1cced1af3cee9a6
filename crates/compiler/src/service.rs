//! Batched compile front-end: the toolchain as a service.
//!
//! [`compile_many`] takes a stream of module+contract jobs — each an IR
//! module, the task functions to search, and a search budget — and
//! shards them across a [`minipool`] pool with one shared persistent
//! [`DiskStore`]. Identical jobs (same IR, tasks, budget, and seed) are
//! deduplicated by content hash before any work is scheduled, so a
//! fleet of clients submitting the same module costs one search.
//!
//! Determinism: the returned fronts are byte-identical at any pool
//! width and for any store state (warm entries replay exactly what a
//! cold compile would produce). The *disk* counters in [`BatchStats`]
//! are the one timing-dependent observable — concurrent jobs over the
//! same module race benignly for who writes a store entry first.

use crate::driver::{add_cache_counters, pareto_search, EvalCache, ParetoFront, SearchRequest};
use crate::fpa::{FpaConfig, SearchStats};
use crate::store::{self, DiskStore};
use minipool::Pool;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use teamplay_energy::IsaEnergyModel;
use teamplay_isa::CycleModel;
use teamplay_minic::ir::IrModule;

/// One unit of batched work: search Pareto fronts for `tasks` within
/// `ir` under one FPA budget.
#[derive(Debug, Clone)]
pub struct CompileJob {
    /// Caller-chosen identifier, echoed in the matching [`JobResult`]
    /// (not part of the dedup key — two ids with identical work share
    /// one search).
    pub id: String,
    /// The module to compile.
    pub ir: IrModule,
    /// Task functions to search fronts for, in order.
    pub tasks: Vec<String>,
    /// Search budget and parameters.
    pub fpa: FpaConfig,
    /// Base RNG seed; task `t` searches with `seed + t`.
    pub seed: u64,
}

/// The fronts of one [`CompileJob`], in the job's task order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's [`CompileJob::id`].
    pub id: String,
    /// `(task, front)` per requested task.
    pub fronts: Vec<(String, ParetoFront)>,
}

/// Batch-level instrumentation of one [`compile_many`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs actually searched (after content-hash dedup).
    pub unique_jobs: usize,
    /// Fraction of submitted jobs answered by another job's search
    /// (`(jobs - unique_jobs) / jobs`; 0 for an empty batch).
    pub dedup_rate: f64,
    /// Search counters merged across the unique jobs (cache tiers
    /// included; disk counters are timing-dependent across concurrent
    /// jobs sharing a store).
    pub search: SearchStats,
}

/// Compile a batch of jobs on `pool`, deduplicating identical jobs and
/// optionally warm-starting every search from (and spilling back to)
/// one shared persistent store.
///
/// Each unique job evaluates through its own [`EvalCache`] — per-task
/// searches within one job share compiles — while `disk` (when given)
/// is shared by *all* jobs, so jobs over the same module also share
/// work across job boundaries and across processes. Results for
/// deduplicated jobs are cloned from their representative (cheap:
/// compiled programs are `Arc`-shared).
pub fn compile_many(
    pool: &Pool,
    jobs: &[CompileJob],
    cycle_model: &CycleModel,
    energy_model: &IsaEnergyModel,
    disk: Option<&DiskStore>,
) -> (Vec<JobResult>, BatchStats) {
    let groups = group_indices_by_key(
        jobs.iter()
            .map(|job| {
                store::hash_json(
                    store::fnv_offset(),
                    &(&job.ir, &job.tasks, &job.fpa, job.seed),
                )
            })
            .collect::<Vec<_>>(),
    );
    let reps: Vec<&CompileJob> = groups.iter().map(|g| &jobs[g[0]]).collect();
    let inner = pool.split_across(reps.len());
    let searched = pool.par_map(&reps, |_, job| {
        let cache = match disk {
            Some(disk) => EvalCache::with_store(&job.ir, cycle_model, energy_model, disk),
            None => EvalCache::new(&job.ir, cycle_model, energy_model),
        };
        let mut stats = SearchStats::default();
        let fronts: Vec<(String, ParetoFront)> = job
            .tasks
            .iter()
            .enumerate()
            .map(|(t, task)| {
                let request = SearchRequest::new(task, job.fpa, job.seed.wrapping_add(t as u64));
                let front = pareto_search(&inner, &cache, &request);
                stats.evaluations += front.stats.evaluations;
                stats.generations += front.stats.generations;
                (task.clone(), front)
            })
            .collect();
        add_cache_counters(&mut stats, &cache);
        (fronts, stats)
    });

    let mut results: Vec<Option<JobResult>> = jobs.iter().map(|_| None).collect();
    let mut merged = SearchStats::default();
    for (group, (fronts, stats)) in groups.iter().zip(searched) {
        merged.evaluations += stats.evaluations;
        merged.generations += stats.generations;
        merged.cache_hits += stats.cache_hits;
        merged.cache_misses += stats.cache_misses;
        merged.disk_hits += stats.disk_hits;
        merged.disk_misses += stats.disk_misses;
        for &i in group {
            results[i] = Some(JobResult {
                id: jobs[i].id.clone(),
                fronts: fronts.clone(),
            });
        }
    }
    let results: Vec<JobResult> = results
        .into_iter()
        .map(|r| r.expect("every job grouped"))
        .collect();

    let stats = BatchStats {
        jobs: jobs.len(),
        unique_jobs: reps.len(),
        dedup_rate: if jobs.is_empty() {
            0.0
        } else {
            (jobs.len() - reps.len()) as f64 / jobs.len() as f64
        },
        search: merged,
    };
    (results, stats)
}

/// Group item indices by a per-item key, preserving first-seen order:
/// `groups[k][0]` is the representative of group `k`.
fn group_indices_by_key<K: std::hash::Hash + Eq>(keys: Vec<K>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index_of: HashMap<K, usize> = HashMap::new();
    for (i, key) in keys.into_iter().enumerate() {
        match index_of.entry(key) {
            Entry::Occupied(slot) => groups[*slot.get()].push(i),
            Entry::Vacant(slot) => {
                slot.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}
