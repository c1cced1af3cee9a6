//! Analysis-engine suite: one flow structure per function, solved for
//! both cost lanes at once, must give each lane exactly what solving it
//! alone gives.
//!
//! * **Lane independence** — under both presets, `analyze` with the
//!   cycle and energy lanes together equals each lane analysed alone
//!   (and the swapped lane order), bound for bound, or fails with the
//!   same error. Checked on the four app kernels under their tuned
//!   pipelines, on generated Mini-C kernels, and on random PG32 CFGs
//!   that include unbounded loops, irreducible cycles, unreachable
//!   blocks and calls.
//! * **Saturation** — a callee whose bound saturates at `u64::MAX`
//!   saturates its callers in both lanes instead of wrapping around.
//! * **No irreducible fallback** — wherever the IPET preset reports an
//!   irreducible CFG, the structural preset does too: both condense the
//!   same loops in the same order, so the IPET engine has nothing to
//!   fall back to.
//! * **Inert counted wrappers** — on the app kernels,
//!   `analyze_program_cached` and `analyze_program_energy_cached` equal
//!   `analyze_program` and `analyze_program_energy`, and their
//!   `AnalysisCache` counts every function as a miss and nothing as a
//!   hit: it memoises nothing.

#[path = "common/cfgs.rs"]
mod cfgs;
#[path = "common/kernels.rs"]
mod kernels;

use proptest::prelude::*;
use std::collections::BTreeMap;
use teamplay_compiler::{generate_program, AnalysisMemo, CodegenOpts, PassManager, Pipeline};
use teamplay_energy::{
    analyze_program_energy, analyze_program_energy_cached, EnergyLane, IsaEnergyModel,
};
use teamplay_isa::{
    Block, BlockId, Cond, CycleModel, Function, Insn, Operand, Program, Reg, Terminator,
};
use teamplay_minic::compile_to_ir;
use teamplay_wcet::{analyze, analyze_program, analyze_program_cached, Preset, WcetError};

type Bounds<const L: usize> = Result<BTreeMap<String, [u64; L]>, WcetError>;

/// The first way solving both lanes together differs from solving each
/// alone (or in the other order), under either preset.
fn lane_divergence(program: &Program) -> Option<String> {
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let energy = EnergyLane::new(&em, &cm);
    for preset in [Preset::Ipet, Preset::Structural] {
        let both: Bounds<2> = analyze(program, [&cm, &energy], preset);
        let swapped: Bounds<2> = analyze(program, [&energy, &cm], preset);
        let cycles: Bounds<1> = analyze(program, [&cm], preset);
        let mpj: Bounds<1> = analyze(program, [&energy], preset);
        let joined: Bounds<2> = match (cycles, mpj) {
            (Ok(c), Ok(e)) => Ok(c
                .into_iter()
                .zip(e)
                .map(|((name, [c]), (_, [e]))| (name, [c, e]))
                .collect()),
            (Err(a), Err(b)) if a == b => Err(a),
            (c, e) => {
                return Some(format!(
                    "{preset:?}: the lanes alone disagree on failing: {:?} vs {:?}",
                    c.err(),
                    e.err()
                ))
            }
        };
        if both != joined {
            return Some(format!("{preset:?}: together {both:?}, alone {joined:?}"));
        }
        let unswapped = swapped.map(|b| b.into_iter().map(|(n, [e, c])| (n, [c, e])).collect());
        if both != unswapped {
            return Some(format!("{preset:?}: lane order changes {both:?}"));
        }
    }
    None
}

fn compiled(src: &str, pipeline: Pipeline) -> Program {
    let mut module = compile_to_ir(src).expect("kernel compiles");
    PassManager::new(pipeline)
        .expect("pipeline resolves")
        .run(&mut module);
    generate_program(&module, CodegenOpts::default()).expect("codegen succeeds")
}

/// The four app kernels under their tuned pipelines.
fn app_kernels() -> Vec<(&'static str, Program)> {
    let cat = teamplay_apps::catalog();
    [
        ("camera_pill", teamplay_apps::camera_pill::SOURCE),
        ("spacewire", teamplay_apps::spacewire::SOURCE),
        ("uav", teamplay_apps::uav::DETECT_KERNEL_SOURCE),
        ("parking", teamplay_apps::parking::CONV_KERNEL_SOURCE),
    ]
    .into_iter()
    .map(|(app, src)| {
        (
            app,
            compiled(src, cat.get(app).expect("registered").clone()),
        )
    })
    .collect()
}

#[test]
fn lanes_are_independent_on_the_app_kernels() {
    for (app, program) in app_kernels() {
        assert!(analyze(&program, [&CycleModel::pg32()], Preset::Ipet).is_ok());
        if let Some(divergence) = lane_divergence(&program) {
            panic!("{app}: {divergence}");
        }
    }
}

#[test]
fn counted_wrappers_equal_the_plain_analyses_on_the_app_kernels() {
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let memo = AnalysisMemo::new();
    let mut functions = 0;
    // Twice over: a second pass must analyse everything again.
    for (app, program) in app_kernels().iter().chain(&app_kernels()) {
        assert_eq!(
            analyze_program_cached(program, &cm, &memo.wcet),
            analyze_program(program, &cm),
            "{app}"
        );
        assert_eq!(
            analyze_program_energy_cached(program, &em, &cm, &memo.energy),
            analyze_program_energy(program, &em, &cm),
            "{app}"
        );
        functions += program.functions.len();
        for cache in [&memo.wcet, &memo.energy] {
            assert_eq!((cache.hits(), cache.misses()), (0, functions), "{app}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lanes_are_independent_on_generated_kernels(src in kernels::arb_kernel()) {
        for pipeline in [Pipeline::default(), Pipeline::o2()] {
            let program = compiled(&src, pipeline);
            if let Some(divergence) = lane_divergence(&program) {
                prop_assert!(false, "{divergence}\n{src}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    #[test]
    fn lanes_are_independent_on_random_cfgs(program in cfgs::arb_program()) {
        if let Some(divergence) = lane_divergence(&program) {
            prop_assert!(false, "{divergence}\n{program:?}");
        }
    }
}

#[test]
fn structural_is_irreducible_wherever_ipet_is() {
    let cm = CycleModel::pg32();
    let strategy = cfgs::arb_program();
    let mut irreducible_cases = 0;
    for case in 0..20_000 {
        let program = strategy.sample(&mut proptest::case_rng(case));
        let irreducible = |preset| {
            matches!(
                analyze(&program, [&cm], preset),
                Err(WcetError::IrreducibleCfg(_))
            )
        };
        if irreducible(Preset::Ipet) {
            irreducible_cases += 1;
            assert!(irreducible(Preset::Structural), "case {case}: {program:?}");
        }
    }
    // The generator does reach the case the property is about.
    assert!(irreducible_cases > 100, "{irreducible_cases}");
}

#[test]
fn saturated_callee_bounds_saturate_their_callers() {
    // Three nested loops of u32::MAX iterations each: the leaf's bound
    // saturates in both lanes. Its caller adds a call and an ALU op on
    // top, which must saturate too rather than wrap to a tiny bound.
    let head = |r: Reg, body: u32, exit: u32| Block {
        insns: vec![Insn::Cmp {
            rn: r,
            src: Operand::Imm(0),
        }],
        terminator: Terminator::CondBranch {
            cond: Cond::Lt,
            taken: BlockId(body),
            fallthrough: BlockId(exit),
        },
    };
    let leaf = Function {
        name: "leaf".into(),
        blocks: vec![
            Block::empty(Terminator::Branch(BlockId(1))),
            head(Reg::R1, 2, 5),
            head(Reg::R2, 3, 1),
            head(Reg::R3, 4, 2),
            Block {
                insns: vec![Insn::Nop],
                terminator: Terminator::Branch(BlockId(3)),
            },
            Block::empty(Terminator::Return),
        ],
        loop_bounds: (1..4).map(|h| (BlockId(h), u32::MAX)).collect(),
        frame_size: 0,
    };
    let mut caller = Function::stub("caller");
    caller.blocks[0].insns = vec![
        Insn::Call {
            func: "leaf".into(),
        },
        Insn::Mov {
            rd: Reg::R0,
            src: Operand::Imm(1),
        },
    ];
    let mut program = Program::new();
    program.add_function(leaf);
    program.add_function(caller);
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let energy = EnergyLane::new(&em, &cm);
    for preset in [Preset::Ipet, Preset::Structural] {
        let bounds = analyze(&program, [&cm, &energy], preset).expect("bounded");
        assert_eq!(bounds["leaf"], [u64::MAX; 2], "{preset:?}");
        assert_eq!(bounds["caller"], [u64::MAX; 2], "{preset:?}");
    }
}
