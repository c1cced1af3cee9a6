//! End-to-end oracles for the security-aware Pareto search on the
//! camera-pill crypto task.
//!
//! The search with a leakage axis ([`pareto_search`] with a
//! [`LeakageAxis`]) promises four things this suite pins at the
//! application level:
//!
//! 1. **determinism** — fronts are byte-identical at any pool width;
//! 2. **conservatism** — a rung-0 variant is exactly the plain
//!    evaluation of its 17-gene prefix (the rung gene is invisible to
//!    the config decoder and to the analyses);
//! 3. **effectiveness** — the ladderised rung strictly reduces the
//!    measured leakage of `encrypt`'s key-whitening diamond;
//! 4. **front shape** — returned variants are mutually non-dominating
//!    in all four objectives, with finite leakage scores.
//!
//! A fifth group checks the coordination side of the tentpole: HEFT
//! refuses task sets whose options cannot reach the declared
//! `security_floor`, and filters below-floor options when they can.

use minipool::Pool;
use teamplay_compiler::{
    evaluate_module, ladderised_ir, pareto_search, CompilerConfig, EvalCache, FpaConfig,
    LeakageAxis, LeakageRig, ParetoFront, SearchRequest, SECURE_GENOME_DIMS,
};
use teamplay_coord::task::TaskSetError;
use teamplay_coord::{schedule_energy_aware, CoordTask, ExecOption, TaskSet};
use teamplay_energy::IsaEnergyModel;
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::IrModule;
use teamplay_security::SecretSpec;

/// The camera-pill rig: `encrypt(key)`'s only argument is the secret,
/// and the two classes straddle the key-whitening diamond (negative
/// keys take the whitening arm).
fn rig() -> LeakageRig {
    LeakageRig {
        arg_count: 1,
        secret: SecretSpec {
            arg_index: 0,
            class0: -123,
            class1: 77,
        },
        traces_per_class: 8,
        public_lo: 0,
        public_hi: 256,
        seed: 11,
    }
}

fn camera_irs() -> (IrModule, IrModule) {
    let ir = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("camera pill compiles");
    let (hard, reports) = ladderised_ir(&ir);
    assert!(
        reports["encrypt"].fully_hardened(),
        "the whitening diamond must ladderise completely: {reports:?}"
    );
    (ir, hard)
}

fn search(pool_width: usize, seed: u64) -> ParetoFront {
    let (ir, hard) = camera_irs();
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    let rig = rig();
    let request = SearchRequest {
        leakage: Some(LeakageAxis {
            hardened: &hard,
            rig: &rig,
        }),
        ..SearchRequest::new("encrypt", FpaConfig::tiny(), seed)
    };
    pareto_search(
        &Pool::new(pool_width),
        &EvalCache::new(&ir, &cm, &em),
        &request,
    )
}

#[test]
fn secure_camera_front_is_byte_identical_across_pool_widths() {
    let baseline = search(1, 0xA11CE);
    let bytes = serde_json::to_string(&baseline.variants).expect("serializes");
    for width in [2usize, 4] {
        let front = search(width, 0xA11CE);
        assert_eq!(
            bytes,
            serde_json::to_string(&front.variants).expect("serializes"),
            "pool width {width} changed the front"
        );
        assert_eq!(baseline.stats, front.stats, "pool width {width} stats");
    }
}

#[test]
fn ladderised_variant_strictly_reduces_encrypt_leakage() {
    let front = search(2, 0xA11CE);
    assert!(!front.variants.is_empty());
    let best = |rung: u32| {
        front
            .variants
            .iter()
            .filter_map(|v| v.security.filter(|s| s.rung == rung))
            .map(|s| s.leakage)
            .fold(f64::INFINITY, f64::min)
    };
    let (plain, hard) = (best(0), best(1));
    assert!(
        hard.is_finite(),
        "the front must keep at least one ladderised variant"
    );
    assert!(
        hard < plain,
        "rung 1 must strictly cut the diamond's leakage: rung1 {hard} vs rung0 {plain}"
    );
}

#[test]
fn rung_zero_variants_bit_match_the_plain_evaluation() {
    let front = search(2, 0xA11CE);
    let (ir, _) = camera_irs();
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let mut checked = 0;
    for v in &front.variants {
        if v.security.map(|s| s.rung) != Some(0) {
            continue;
        }
        let (_, metrics) = evaluate_module(&ir, &v.config, &cm, &em).expect("plain evaluation");
        let m = metrics.of("encrypt").expect("encrypt analysed");
        assert_eq!(v.metrics.wcet_cycles, m.wcet_cycles);
        assert_eq!(v.metrics.wcec_pj.to_bits(), m.wcec_pj.to_bits());
        assert_eq!(v.metrics.code_halfwords, m.code_halfwords);
        checked += 1;
    }
    assert!(checked > 0, "the tiny search should keep a rung-0 variant");
}

#[test]
fn secure_front_is_mutually_non_dominating_in_four_objectives() {
    let front = search(2, 0xA11CE);
    let objs: Vec<[f64; 4]> = front
        .variants
        .iter()
        .map(|v| {
            let s = v.security.expect("secure variants carry security");
            assert!(s.leakage.is_finite(), "leakage must be finite");
            [
                v.metrics.wcet_cycles as f64,
                v.metrics.wcec_pj,
                v.metrics.code_halfwords as f64,
                s.leakage,
            ]
        })
        .collect();
    for (i, a) in objs.iter().enumerate() {
        for (j, b) in objs.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates =
                a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y);
            assert!(!dominates, "variant {i} {a:?} dominates variant {j} {b:?}");
        }
    }
}

fn leveled(label: &str, time_us: f64, level: u32) -> ExecOption {
    ExecOption {
        label: label.into(),
        core: "cpu0".into(),
        time_us,
        energy_uj: time_us * 2.0,
        security_level: level,
    }
}

#[test]
fn heft_rejects_task_sets_that_cannot_reach_the_floor() {
    let task = CoordTask::new(
        "encrypt",
        vec![leveled("v0", 10.0, 0), leveled("v1", 12.0, 0)],
    )
    .with_security_floor(1);
    match TaskSet::new(vec![task], vec!["cpu0".into()], 1_000.0) {
        Err(TaskSetError::BelowSecurityFloor {
            task,
            floor,
            best_level,
        }) => {
            assert_eq!(task, "encrypt");
            assert_eq!(floor, 1);
            assert_eq!(best_level, 0);
        }
        other => panic!("expected BelowSecurityFloor, got {other:?}"),
    }
}

#[test]
fn heft_filters_below_floor_options_before_placement() {
    // The unhardened option is faster and greener, but the floor must
    // keep it out of the schedule entirely.
    let task = CoordTask::new(
        "encrypt",
        vec![leveled("plain", 5.0, 0), leveled("hardened", 20.0, 1)],
    )
    .with_security_floor(1);
    let set = TaskSet::new(vec![task], vec!["cpu0".into()], 1_000.0).expect("set builds");
    let schedule = schedule_energy_aware(&set).expect("schedulable");
    schedule.validate(&set).expect("valid");
    assert_eq!(schedule.entries.len(), 1);
    assert_eq!(
        schedule.entries[0].option, "hardened",
        "below-floor options must never be placed: {schedule:?}"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig {
        cases: 32, ..proptest::ProptestConfig::default()
    })]

    /// The rung gene never perturbs the configuration decoder: any
    /// 18-gene genome decodes to the same [`CompilerConfig`] as its
    /// 17-gene prefix, and the rung is a pure threshold on gene 17.
    #[test]
    fn rung_gene_is_invisible_to_the_config_decoder(
        genome in proptest::collection::vec(0.0f64..1.0, SECURE_GENOME_DIMS),
    ) {
        let rung = teamplay_compiler::rung_of_genome(&genome);
        proptest::prop_assert_eq!(rung, u32::from(genome[CompilerConfig::GENOME_DIMS] >= 0.5));
        let prefix = &genome[..CompilerConfig::GENOME_DIMS];
        proptest::prop_assert_eq!(
            CompilerConfig::from_genome(&genome),
            CompilerConfig::from_genome(prefix)
        );
        // And the explicit encoder round-trips the rung.
        let re = teamplay_compiler::genome_with_rung(prefix, rung);
        proptest::prop_assert_eq!(teamplay_compiler::rung_of_genome(&re), rung);
        proptest::prop_assert_eq!(
            CompilerConfig::from_genome(&re),
            CompilerConfig::from_genome(prefix)
        );
    }
}
