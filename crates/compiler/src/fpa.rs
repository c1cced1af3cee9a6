//! Multi-objective Flower Pollination Algorithm (FPA).
//!
//! Paper ref \[5\] ("Multi-Objective Optimization for the Compiler of
//! Real-Time Systems based on Flower Pollination Algorithm", SCOPES '19)
//! drives WCC's optimisation-sequence search with FPA; this module is
//! that search engine. Genomes are points in `[0,1]^d` that the caller
//! decodes into compiler configurations; the algorithm alternates
//!
//! * **global pollination** — a Lévy flight towards a randomly chosen
//!   leader from the non-dominated archive (long, heavy-tailed jumps),
//! * **local pollination** — uniform mixing of two population members,
//!
//! and maintains a Pareto archive pruned by crowding distance.
//!
//! # Batched generations and the determinism contract
//!
//! Each generation is processed in three phases so that candidate
//! evaluation — by far the expensive step when genomes decode to full
//! compile + WCET + WCEC analyses — can fan out over a
//! [`minipool::Pool`]:
//!
//! 1. **Draw** — ALL randomness for the generation is drawn up front on
//!    the single-threaded seeded RNG, in population-index order: every
//!    candidate proposal (Lévy/local moves against the archive as frozen
//!    at generation start) and every 0.35 acceptance draw, whether or not
//!    the draw ends up being consulted.
//! 2. **Evaluate** — the candidate batch is mapped through the `Sync`
//!    eval closure with [`minipool::Pool::par_map`], which returns
//!    results in index order regardless of pool width.
//! 3. **Apply** — archive insertions and population acceptance updates
//!    are applied sequentially in index order.
//!
//! Because no phase observes scheduling order,
//! [`MultiObjectiveFpa::run_on_seeded`] returns **bit-identical**
//! outcomes for any pool size given the same seed and a deterministic
//! eval — and is provably identical to a sequential run (pool of 1) of
//! the same batched algorithm. The archive a generation's proposals
//! lean on is the one from the *previous* generation's end, which is
//! what makes intra-generation evaluation order irrelevant.

use minipool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpaConfig {
    /// Population size.
    pub population: usize,
    /// Iterations (generations).
    pub iterations: usize,
    /// Probability of global (vs local) pollination per move.
    pub switch_prob: f64,
    /// Maximum archive size (crowding-distance pruned).
    pub archive_cap: usize,
    /// Lévy exponent λ (1 < λ ≤ 3; ref \[5\] uses 1.5).
    pub levy_lambda: f64,
    /// Global step scale.
    pub step_scale: f64,
}

impl FpaConfig {
    /// The setting used by the compiler searches: small but effective.
    pub fn standard() -> FpaConfig {
        FpaConfig {
            population: 16,
            iterations: 12,
            switch_prob: 0.8,
            archive_cap: 24,
            levy_lambda: 1.5,
            step_scale: 0.12,
        }
    }

    /// A smoke-test-sized configuration.
    pub fn tiny() -> FpaConfig {
        FpaConfig {
            population: 6,
            iterations: 4,
            ..FpaConfig::standard()
        }
    }
}

impl Default for FpaConfig {
    fn default() -> Self {
        FpaConfig::standard()
    }
}

/// A non-dominated solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// The genome in `[0,1]^d`.
    pub genome: Vec<f64>,
    /// Objective values (all minimised).
    pub objectives: Vec<f64>,
}

/// `a` dominates `b` (all objectives ≤, at least one <).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Instrumentation of one search run.
///
/// `evaluations` and `generations` are filled by the FPA itself; the
/// cache counters are zero in a bare [`MultiObjectiveFpa`] outcome.
/// [`pareto_search`](crate::driver::pareto_search) fills them with the
/// totals of the [`EvalCache`](crate::driver::EvalCache)s it ran over,
/// read at the moment the search returns and summed over both rungs when
/// the leakage axis is on. A cache shared by several searches therefore
/// reports everything it served so far, not only this search's share.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Eval-closure invocations (population init + one per candidate).
    pub evaluations: usize,
    /// Generations processed.
    pub generations: usize,
    /// Memoized evaluations answered from cache (0 when uncached).
    pub cache_hits: usize,
    /// Memoized evaluations that had to compile + analyse (0 when
    /// uncached).
    pub cache_misses: usize,
    /// Cache misses answered from the persistent disk store without
    /// compiling (0 unless the cache spills to a
    /// `crate::store::DiskStore`).
    pub disk_hits: usize,
    /// Cache misses that actually compiled + analysed and were written
    /// back to the disk store (0 when no store is attached; equals
    /// `cache_misses` on a fully cold store).
    pub disk_misses: usize,
}

/// Search outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpaOutcome {
    /// The final non-dominated archive.
    pub archive: Vec<ParetoPoint>,
    /// Run instrumentation (evaluation counts, cache behaviour).
    pub stats: SearchStats,
}

/// The multi-objective FPA driver.
#[derive(Debug, Clone)]
pub struct MultiObjectiveFpa {
    config: FpaConfig,
}

impl MultiObjectiveFpa {
    /// Create a driver with the given parameters.
    pub fn new(config: FpaConfig) -> MultiObjectiveFpa {
        MultiObjectiveFpa { config }
    }

    /// Run the search on `pool` (pass `Pool::new(1)` to force a
    /// sequential run). `eval` maps a genome to its objective vector, or
    /// `None` for infeasible genomes (they are discarded). Deterministic
    /// for a fixed seed and deterministic `eval`, whatever the pool width
    /// — see the module docs for the batched-generation contract.
    ///
    /// Caller-supplied *seed genomes* are mixed into the initial
    /// population (after the two corner points, before the random fill,
    /// capped at the population size). Seeding a known-good genome —
    /// e.g. an application's tuned pipeline encoded via
    /// `CompilerConfig::to_genome` — starts the search from that point
    /// instead of the corners, so its objectives are on the archive from
    /// generation 0 onward. Seeding keeps the evaluation count and the
    /// pool-width bit-identity contract; with `seeds` empty the initial
    /// population is the corners plus the random fill.
    pub fn run_on_seeded(
        &self,
        pool: &Pool,
        dims: usize,
        seed: u64,
        seeds: &[Vec<f64>],
        eval: impl Fn(&[f64]) -> Option<Vec<f64>> + Sync,
    ) -> FpaOutcome {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = SearchStats::default();

        // Initial population: corner points, then seed genomes (resized
        // and clamped into `[0,1]^dims`), then uniform random fill.
        let mut population: Vec<Vec<f64>> = Vec::with_capacity(cfg.population);
        population.push(vec![0.0; dims]);
        population.push(vec![1.0; dims]);
        for s in seeds
            .iter()
            .take(cfg.population.saturating_sub(population.len()))
        {
            let mut g = s.clone();
            g.resize(dims, 0.0);
            for x in &mut g {
                *x = x.clamp(0.0, 1.0);
            }
            population.push(g);
        }
        while population.len() < cfg.population {
            population.push((0..dims).map(|_| rng.gen_range(0.0..1.0)).collect());
        }

        let mut archive: Vec<ParetoPoint> = Vec::new();
        let initial = pool.par_map(&population, |_, genome| eval(genome));
        stats.evaluations += initial.len();
        let mut scores: Vec<Option<Vec<f64>>> = Vec::with_capacity(population.len());
        for (genome, obj) in population.iter().zip(initial) {
            // A non-finite objective vector is demoted to infeasible: it
            // may neither enter the archive nor linger in `scores` where
            // later dominance comparisons would consult it.
            let feasible = match &obj {
                Some(o) => insert_archive(&mut archive, genome, o, cfg.archive_cap).is_ok(),
                None => false,
            };
            scores.push(if feasible { obj } else { None });
        }

        for _iter in 0..cfg.iterations {
            stats.generations += 1;

            // Phase 1 — draw the whole generation's randomness in index
            // order against the archive as of generation start. The 0.35
            // acceptance draw happens unconditionally so the RNG stream
            // does not depend on evaluation results.
            let moves: Vec<(Vec<f64>, bool)> = (0..population.len())
                .map(|i| {
                    let candidate: Vec<f64> = if rng.gen_bool(cfg.switch_prob)
                        && !archive.is_empty()
                    {
                        // Global pollination: Lévy flight toward an
                        // archive leader.
                        let leader = &archive[rng.gen_range(0..archive.len())].genome;
                        population[i]
                            .iter()
                            .zip(leader)
                            .map(|(x, g)| {
                                let l = levy(&mut rng, cfg.levy_lambda);
                                (x + cfg.step_scale * l * (g - x)).clamp(0.0, 1.0)
                            })
                            .collect()
                    } else {
                        // Local pollination: mix two random flowers.
                        let a = rng.gen_range(0..population.len());
                        let b = rng.gen_range(0..population.len());
                        let eps: f64 = rng.gen_range(0.0..1.0);
                        population[i]
                            .iter()
                            .enumerate()
                            .map(|(d, x)| {
                                (x + eps * (population[a][d] - population[b][d])).clamp(0.0, 1.0)
                            })
                            .collect()
                    };
                    let lucky = rng.gen_bool(0.35);
                    (candidate, lucky)
                })
                .collect();

            // Phase 2 — evaluate the batch on the pool (index order out).
            let objs = pool.par_map(&moves, |_, (candidate, _)| eval(candidate));
            stats.evaluations += moves.len();

            // Phase 3 — apply archive/acceptance updates in index order.
            for (i, ((candidate, lucky), obj)) in moves.into_iter().zip(objs).enumerate() {
                let Some(o) = obj else { continue };
                if insert_archive(&mut archive, &candidate, &o, cfg.archive_cap).is_err() {
                    // Non-finite objectives: the candidate is treated as
                    // infeasible rather than panicking downstream in the
                    // crowding-distance sort.
                    continue;
                }
                // Replace if the candidate dominates (or the old one was
                // infeasible, or neither dominates and the pre-drawn
                // acceptance coin came up heads).
                let accept = match &scores[i] {
                    None => true,
                    Some(old) => dominates(&o, old) || !dominates(old, &o) && lucky,
                };
                if accept {
                    population[i] = candidate;
                    scores[i] = Some(o);
                }
            }
        }

        FpaOutcome { archive, stats }
    }
}

/// Mantegna's algorithm for a Lévy-stable step.
fn levy(rng: &mut StdRng, lambda: f64) -> f64 {
    let sigma = ((gamma_approx(1.0 + lambda) * (lambda * std::f64::consts::PI / 2.0).sin())
        / (gamma_approx((1.0 + lambda) / 2.0) * lambda * 2f64.powf((lambda - 1.0) / 2.0)))
    .powf(1.0 / lambda);
    let u = normal(rng) * sigma;
    let v = normal(rng).abs().max(1e-12);
    u / v.powf(1.0 / lambda)
}

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Stirling-series gamma approximation (accurate enough for Lévy scale).
fn gamma_approx(x: f64) -> f64 {
    // Lanczos approximation, g = 7.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_approx(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// A candidate carried a NaN or ±∞ objective and was refused at the
/// archive boundary. Structured so callers can distinguish "infeasible
/// genome" (an expected search outcome) from "an objective function
/// produced garbage" (a caller bug worth surfacing) — and so the
/// non-finite value never reaches the crowding-distance sort, which
/// used to panic on it far from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NonFiniteObjective {
    /// Index of the first offending objective in the vector.
    pub index: usize,
}

impl std::fmt::Display for NonFiniteObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-finite value at objective index {}", self.index)
    }
}

impl std::error::Error for NonFiniteObjective {}

/// The bit pattern of an objective for duplicate detection, with `-0.0`
/// normalised to `+0.0` (they compare equal and describe the same
/// objective value, so they must dedup together; distinct NaN payloads
/// must *not* silently collapse an archive invariant — but NaN is
/// rejected before ever reaching this comparison).
fn objective_bits(x: f64) -> u64 {
    (x + 0.0).to_bits()
}

/// Exact duplicate check by (normalised) bit pattern rather than `==`,
/// so `-0.0`/`0.0` pairs dedup and NaN can never satisfy *nor* defeat
/// the check in surprising ways.
fn same_objectives(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| objective_bits(*x) == objective_bits(*y))
}

/// Insert into the archive, keeping it non-dominated and within `cap`
/// (crowding-distance pruning, NSGA-II style).
///
/// # Errors
/// [`NonFiniteObjective`] when `objectives` contains NaN or ±∞; the
/// archive is left untouched. The search loop treats such candidates as
/// infeasible, so an objective function that misbehaves on one genome
/// degrades the search instead of panicking it.
pub(crate) fn insert_archive(
    archive: &mut Vec<ParetoPoint>,
    genome: &[f64],
    objectives: &[f64],
    cap: usize,
) -> Result<(), NonFiniteObjective> {
    if let Some(index) = objectives.iter().position(|x| !x.is_finite()) {
        return Err(NonFiniteObjective { index });
    }
    if archive
        .iter()
        .any(|p| dominates(&p.objectives, objectives) || same_objectives(&p.objectives, objectives))
    {
        return Ok(());
    }
    archive.retain(|p| !dominates(objectives, &p.objectives));
    archive.push(ParetoPoint {
        genome: genome.to_vec(),
        objectives: objectives.to_vec(),
    });
    if archive.len() > cap {
        let distances = crowding_distances(archive);
        let (victim, _) = distances
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty archive");
        archive.remove(victim);
    }
    Ok(())
}

/// NSGA-II crowding distance per archive member. Archived objectives
/// are finite by construction ([`insert_archive`] rejects the rest), and
/// `total_cmp` keeps the sort total even if that invariant is ever
/// violated — boundary distances are ±∞ on purpose and must still sort.
fn crowding_distances(archive: &[ParetoPoint]) -> Vec<f64> {
    let n = archive.len();
    let m = archive[0].objectives.len();
    let mut dist = vec![0.0f64; n];
    for obj in 0..m {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| archive[a].objectives[obj].total_cmp(&archive[b].objectives[obj]));
        let lo = archive[idx[0]].objectives[obj];
        let hi = archive[idx[n - 1]].objectives[obj];
        let range = (hi - lo).max(1e-12);
        dist[idx[0]] = f64::INFINITY;
        dist[idx[n - 1]] = f64::INFINITY;
        for w in 1..n - 1 {
            dist[idx[w]] +=
                (archive[idx[w + 1]].objectives[obj] - archive[idx[w - 1]].objectives[obj]) / range;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
    }

    /// ZDT1-like bi-objective test problem on [0,1]^3:
    /// f1 = x0; f2 = g·(1 − sqrt(x0/g)), g = 1 + 9·mean(x1..).
    fn zdt1(x: &[f64]) -> Option<Vec<f64>> {
        let f1 = x[0];
        let g = 1.0 + 9.0 * (x[1..].iter().sum::<f64>() / (x.len() - 1) as f64);
        let f2 = g * (1.0 - (f1 / g).sqrt());
        Some(vec![f1, f2])
    }

    #[test]
    fn archive_is_mutually_non_dominated() {
        let fpa = MultiObjectiveFpa::new(FpaConfig::standard());
        let out = fpa.run_on_seeded(minipool::global(), 3, 42, &[], zdt1);
        assert!(!out.archive.is_empty());
        for a in &out.archive {
            for b in &out.archive {
                if a.objectives != b.objectives {
                    assert!(
                        !dominates(&a.objectives, &b.objectives)
                            || !dominates(&b.objectives, &a.objectives)
                    );
                }
            }
        }
    }

    #[test]
    fn search_approaches_the_zdt1_front() {
        // The true front has g = 1 (x1..=0). After a short run the
        // archive should contain points with small g.
        let fpa = MultiObjectiveFpa::new(FpaConfig {
            iterations: 40,
            ..FpaConfig::standard()
        });
        let out = fpa.run_on_seeded(minipool::global(), 3, 7, &[], zdt1);
        let best_g = out
            .archive
            .iter()
            .map(|p| {
                // Reconstruct g from the genome.
                1.0 + 9.0 * (p.genome[1..].iter().sum::<f64>() / 2.0)
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best_g < 2.0, "search failed to reduce g: {best_g}");
    }

    #[test]
    fn deterministic_given_seed() {
        let fpa = MultiObjectiveFpa::new(FpaConfig::tiny());
        let a = fpa.run_on_seeded(minipool::global(), 3, 9, &[], zdt1);
        let b = fpa.run_on_seeded(minipool::global(), 3, 9, &[], zdt1);
        assert_eq!(a.archive, b.archive);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn pool_width_does_not_change_the_outcome() {
        // The batched-generation contract: a 1-thread run and wide runs
        // of the same seed are bit-identical (f64 bits and all).
        let fpa = MultiObjectiveFpa::new(FpaConfig::standard());
        let sequential = fpa.run_on_seeded(&Pool::new(1), 3, 1337, &[], zdt1);
        for threads in [2, 4, 8] {
            let parallel = fpa.run_on_seeded(&Pool::new(threads), 3, 1337, &[], zdt1);
            assert_eq!(
                sequential.archive, parallel.archive,
                "{threads} threads diverged"
            );
            assert_eq!(sequential.stats, parallel.stats);
        }
        assert_eq!(
            sequential.stats.generations,
            FpaConfig::standard().iterations
        );
    }

    #[test]
    fn seed_genomes_reach_the_archive_at_generation_zero() {
        // A known-good point seeds the population; with zero iterations
        // the archive can only come from the initial population, so the
        // front must weakly dominate the seed's objectives.
        let seed_genome = vec![0.2, 0.0, 0.0]; // on the true ZDT1 front
        let expected = zdt1(&seed_genome).expect("feasible");
        let fpa = MultiObjectiveFpa::new(FpaConfig {
            iterations: 0,
            ..FpaConfig::tiny()
        });
        let out = fpa.run_on_seeded(
            &Pool::new(1),
            3,
            5,
            std::slice::from_ref(&seed_genome),
            zdt1,
        );
        assert!(
            out.archive.iter().any(|p| {
                p.objectives
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| *a <= b + 1e-12)
            }),
            "no archive point weakly dominates the seed: {:?}",
            out.archive
        );
        // Seeds count toward (not on top of) the population budget.
        assert_eq!(out.stats.evaluations, FpaConfig::tiny().population);
        // The seeded path honours the pool-width bit-identity contract.
        let wide = fpa.run_on_seeded(&Pool::new(4), 3, 5, &[seed_genome], zdt1);
        assert_eq!(out.archive, wide.archive);
        assert_eq!(out.stats, wide.stats);
    }

    #[test]
    fn infeasible_genomes_are_skipped() {
        let fpa = MultiObjectiveFpa::new(FpaConfig::tiny());
        let out = fpa.run_on_seeded(minipool::global(), 2, 3, &[], |x| {
            if x[0] > 0.5 {
                None
            } else {
                Some(vec![x[0], 1.0 - x[0]])
            }
        });
        for p in &out.archive {
            assert!(p.genome[0] <= 0.5);
        }
    }

    #[test]
    fn archive_cap_is_respected() {
        let cfg = FpaConfig {
            archive_cap: 5,
            iterations: 30,
            ..FpaConfig::standard()
        };
        let fpa = MultiObjectiveFpa::new(cfg);
        let out = fpa.run_on_seeded(minipool::global(), 3, 11, &[], zdt1);
        assert!(out.archive.len() <= 5);
    }

    #[test]
    fn non_finite_objectives_are_rejected_with_a_structured_error() {
        let mut archive = Vec::new();
        insert_archive(&mut archive, &[0.5], &[1.0, 2.0], 8).expect("finite");
        for bad in [
            vec![f64::NAN, 1.0],
            vec![1.0, f64::INFINITY],
            vec![f64::NEG_INFINITY, 0.0],
        ] {
            let idx = bad.iter().position(|x| !x.is_finite()).expect("bad value");
            let err = insert_archive(&mut archive, &[0.5], &bad, 8)
                .expect_err("non-finite objectives must be refused");
            assert_eq!(err, NonFiniteObjective { index: idx });
        }
        // The archive is untouched by refused insertions.
        assert_eq!(archive.len(), 1);
        assert_eq!(archive[0].objectives, vec![1.0, 2.0]);
    }

    #[test]
    fn non_finite_evals_are_skipped_without_panicking() {
        // An objective function that sometimes produces NaN used to
        // panic in the crowding-distance sort ("finite objectives");
        // now those candidates degrade to infeasible.
        let fpa = MultiObjectiveFpa::new(FpaConfig {
            archive_cap: 4,
            iterations: 20,
            ..FpaConfig::standard()
        });
        let out = fpa.run_on_seeded(minipool::global(), 2, 13, &[], |x| {
            if x[0] > 0.6 {
                Some(vec![f64::NAN, x[1]])
            } else if x[1] > 0.8 {
                Some(vec![x[0], f64::INFINITY])
            } else {
                Some(vec![x[0], 1.0 - x[0]])
            }
        });
        assert!(!out.archive.is_empty());
        for p in &out.archive {
            assert!(p.objectives.iter().all(|o| o.is_finite()), "{p:?}");
        }
    }

    #[test]
    fn negative_zero_deduplicates_against_positive_zero() {
        // -0.0 == 0.0 describes the same objective value; the bit-pattern
        // dedup must normalise the sign so the archive can't accumulate
        // both spellings of one point.
        let mut archive = Vec::new();
        insert_archive(&mut archive, &[0.1], &[0.0, 1.0], 8).expect("finite");
        insert_archive(&mut archive, &[0.9], &[-0.0, 1.0], 8).expect("finite");
        assert_eq!(archive.len(), 1, "{archive:?}");
        assert_eq!(archive[0].genome, vec![0.1], "first spelling wins");
        // Genuinely distinct non-dominated points still coexist.
        insert_archive(&mut archive, &[0.5], &[1.0, 0.0], 8).expect("finite");
        assert_eq!(archive.len(), 2);
    }

    #[test]
    fn gamma_approximation_sane() {
        assert!((gamma_approx(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma_approx(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma_approx(5.0) - 24.0).abs() < 1e-6);
        assert!((gamma_approx(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }
}
