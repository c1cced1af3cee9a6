//! The WCET/WCEC tightness oracle (PR 5 acceptance suite, extended to
//! the pre-decoded engine in PR 6).
//!
//! For randomly generated Mini-C kernels, compiled under **every**
//! registry pipeline (each single-pass pipeline, the `o1`–`o3` presets
//! and the tuned per-app pipelines), the three bounds must order:
//!
//! ```text
//! simulator-observed cycles  ≤  IPET bound  ≤  structural bound
//! ```
//!
//! The left inequality is soundness (the analyser may never promise less
//! than the machine spends), the right is the tightness contract of the
//! IPET engine (it can only sharpen the structural condensation, never
//! exceed it). The same sandwich is asserted for energy against the
//! simulator's hidden ground truth being *estimated* by the analytical
//! model — energy soundness is already property-tested elsewhere, so
//! here only `WCEC(ipet) ≤ WCEC(structural)` is checked.
//!
//! Since PR 6 the simulator leg runs on **both** engines: the reference
//! [`Machine`] interpreter and the pre-decoded direct-threaded
//! [`DecodedProgram`] engine. Every run is asserted bit-identical
//! between the two (full [`RunResult`], energy compared by bit pattern),
//! so the observed-cycles side of the sandwich is simultaneously a
//! differential oracle for the fast engine — across every pipeline,
//! every preset, the proptest kernels and the four app kernels.
//!
//! A deterministic regression case pins the *strict* part: an if/else
//! with unbalanced arms inside a bounded loop, where the structural
//! engine must charge the worst full iteration once more than IPET.

use teamplay_compiler::{generate_program, CodegenOpts, PassManager, Pipeline, REGISTRY};
use teamplay_energy::{mpj_to_pj, EnergyLane};
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;
use teamplay_sim::{DecodedProgram, Machine, NullDevice, RecordingDevice};
use teamplay_wcet::{analyze, analyze_program, Preset};

/// `func`'s structural bounds in cycles and picojoules: both lanes from
/// one solve of the structural preset.
fn structural_bounds(program: &teamplay_isa::Program, func: &str) -> Result<(u64, f64), String> {
    let (cm, em) = (
        CycleModel::pg32(),
        teamplay_energy::IsaEnergyModel::pg32_datasheet(),
    );
    let energy = EnergyLane::new(&em, &cm);
    let bounds = analyze(program, [&cm, &energy], Preset::Structural).map_err(|e| e.to_string())?;
    let [cycles, mpj] = *bounds.get(func).ok_or("function not analysed")?;
    Ok((cycles, mpj_to_pj(mpj)))
}

/// Every single-pass registry pipeline plus the level presets and the
/// tuned application pipelines — the same menu the differential suite
/// uses.
fn pipelines_under_test() -> Vec<(String, Pipeline)> {
    let mut out: Vec<(String, Pipeline)> = REGISTRY
        .iter()
        .map(|d| {
            let p: Pipeline = d.name.parse().expect("registry names parse");
            (format!("pass:{}", d.name), p)
        })
        .collect();
    out.push(("preset:o1".into(), Pipeline::o1()));
    out.push(("preset:o2".into(), Pipeline::o2()));
    out.push(("preset:o3".into(), Pipeline::o3()));
    for (app, pipeline) in teamplay_apps::recommended_pipelines() {
        out.push((
            format!("app:{app}"),
            pipeline.parse().expect("tuned pipelines parse"),
        ));
    }
    out
}

/// Check `sim ≤ ipet ≤ structural` for one kernel source under one
/// pipeline, over the given argument vectors. Returns the bounds for
/// the caller's labelling.
fn assert_sandwich(label: &str, src: &str, func: &str, args_sets: &[Vec<i32>]) -> (u64, u64) {
    let cm = CycleModel::pg32();
    let em = teamplay_energy::IsaEnergyModel::pg32_datasheet();
    let reference = compile_to_ir(src).unwrap_or_else(|e| panic!("{label}: front-end: {e}"));
    for (plabel, pipeline) in pipelines_under_test() {
        let mut module = reference.clone();
        let mut pm = PassManager::new(pipeline).expect("pipeline resolves");
        pm.run(&mut module);
        let program = generate_program(&module, CodegenOpts::default())
            .unwrap_or_else(|e| panic!("{label}/{plabel}: codegen: {e}"));
        let ipet = analyze_program(&program, &cm)
            .unwrap_or_else(|e| panic!("{label}/{plabel}: IPET analysis: {e}"))
            .wcet_cycles(func)
            .expect("bounded");
        let (structural, wcec_structural) = structural_bounds(&program, func)
            .unwrap_or_else(|e| panic!("{label}/{plabel}: structural analysis: {e}"));
        assert!(
            ipet <= structural,
            "{label}/{plabel}: IPET {ipet} exceeds structural {structural}"
        );
        let wcec = teamplay_energy::analyze_program_energy(&program, &em, &cm)
            .unwrap_or_else(|e| panic!("{label}/{plabel}: WCEC analysis: {e}"))
            .wcec_pj(func)
            .expect("bounded");
        assert!(
            wcec <= wcec_structural + 1e-6,
            "{label}/{plabel}: WCEC {wcec} exceeds structural {wcec_structural}"
        );
        let decoded = DecodedProgram::new(&program)
            .unwrap_or_else(|e| panic!("{label}/{plabel}: decode: {e:?}"));
        for args in args_sets {
            let mut machine = Machine::new(program.clone()).expect("loads");
            let r = machine
                .call(func, args, &mut RecordingDevice::new())
                .unwrap_or_else(|e| panic!("{label}/{plabel}: run {args:?}: {e:?}"));
            let mut engine = decoded.engine();
            let d = engine
                .call(func, args, &mut RecordingDevice::new())
                .unwrap_or_else(|e| panic!("{label}/{plabel}: decoded run {args:?}: {e:?}"));
            assert_eq!(
                r, d,
                "{label}/{plabel}: engines diverge for {args:?} (reference vs pre-decoded)"
            );
            assert_eq!(
                r.energy_pj.to_bits(),
                d.energy_pj.to_bits(),
                "{label}/{plabel}: energy bit patterns diverge for {args:?}"
            );
            assert!(
                r.cycles <= ipet,
                "{label}/{plabel}: observed {} cycles over IPET bound {ipet} for {args:?}",
                r.cycles
            );
        }
    }
    // Bounds under the empty pipeline, for the deterministic case below.
    let program = generate_program(&reference, CodegenOpts::default()).expect("codegen");
    let ipet = analyze_program(&program, &cm)
        .expect("ipet")
        .wcet_cycles(func)
        .expect("bounded");
    let (structural, _) = structural_bounds(&program, func).expect("structural");
    (ipet, structural)
}

#[test]
fn unbalanced_if_else_in_a_bounded_loop_is_strictly_tighter() {
    // The canonical IPET-vs-structural gap: a 10-trip loop whose body
    // branches into a heavy multiply/divide arm or a trivial one. The
    // structural engine charges (bound + 1) worst iterations (the final
    // header check pays a whole heavy arm); IPET charges the body
    // `bound` times and routes the final check through the cheap exit
    // edge.
    let src = "int f(int x) {
        int s = 0;
        for (int i = 0; i < 10; i = i + 1) {
            if (x > i) {
                s = s + (x * 3 + i) / (i + 1) + x * x;
            } else {
                s = s - 1;
            }
        }
        return s;
    }";
    let args: Vec<Vec<i32>> = vec![vec![0], vec![5], vec![11], vec![-3]];
    let (ipet, structural) = assert_sandwich("unbalanced", src, "f", &args);
    assert!(
        ipet < structural,
        "IPET {ipet} must be strictly below structural {structural} on the unbalanced loop"
    );
}

#[test]
fn app_kernels_bit_identical_across_engines_and_inside_the_sandwich() {
    // The four benchmark kernels under their tuned pipelines — the same
    // configurations `sim_throughput` times. Each kernel is run four
    // times back to back *without* data resets, so the differential
    // check also covers evolving global state (the regime the
    // throughput bench measures), not just the fresh-image run.
    let cm = CycleModel::pg32();
    let cat = teamplay_apps::catalog();
    for (app, src, task, args) in [
        (
            "camera_pill",
            teamplay_apps::camera_pill::SOURCE,
            "compress",
            vec![],
        ),
        (
            "spacewire",
            teamplay_apps::spacewire::SOURCE,
            "crc_frame",
            vec![],
        ),
        (
            "uav",
            teamplay_apps::uav::DETECT_KERNEL_SOURCE,
            "predetect",
            vec![40],
        ),
        (
            "parking",
            teamplay_apps::parking::CONV_KERNEL_SOURCE,
            "conv_layer",
            vec![],
        ),
    ] {
        let mut module = compile_to_ir(src).expect("kernel compiles");
        let mut pm =
            PassManager::new(cat.get(app).expect("registered").clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let program = generate_program(&module, CodegenOpts::default()).expect("codegen succeeds");
        let ipet = analyze_program(&program, &cm)
            .expect("ipet")
            .wcet_cycles(task)
            .expect("bounded");
        let (structural, _) = structural_bounds(&program, task).expect("structural");
        assert!(
            ipet <= structural,
            "{app}/{task}: IPET {ipet} exceeds structural {structural}"
        );
        let decoded = DecodedProgram::new(&program).expect("decodes");
        let mut machine = Machine::new(program.clone()).expect("loads");
        let mut engine = decoded.engine();
        for round in 0..4 {
            let want = machine
                .call(task, &args, &mut NullDevice::new())
                .expect("reference runs");
            let got = engine
                .call(task, &args, &mut NullDevice::new())
                .expect("decoded runs");
            assert_eq!(want, got, "{app}/{task}: engines diverge on round {round}");
            assert_eq!(
                want.energy_pj.to_bits(),
                got.energy_pj.to_bits(),
                "{app}/{task}: energy bit patterns diverge on round {round}"
            );
            if round == 0 {
                // Only the fresh-image run is IPET-comparable; later
                // rounds see globals mutated by earlier ones.
                assert!(
                    want.cycles <= ipet,
                    "{app}/{task}: observed {} cycles over IPET bound {ipet}",
                    want.cycles
                );
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig {
        cases: 64, ..proptest::ProptestConfig::default()
    })]

    /// Random loop-nest kernels: two sequential loops (one with a
    /// branchy body, optionally a nested inner loop), random bounds,
    /// steps, constants and comparison pivots — under every registry
    /// pipeline, simulated cycles ≤ IPET ≤ structural.
    #[test]
    fn random_kernels_respect_the_bound_sandwich(
        n1 in 1u32..12,
        n2 in 1u32..9,
        inner in 0u32..5,
        step in 1u32..3,
        pivot in -4i32..12,
        c1 in -9i32..9,
        c2 in 1i32..7,
        heavy_on_else in proptest::any::<bool>(),
        x in -50i32..50,
        y in -50i32..50,
    ) {
        let heavy = "acc = acc + (a * c + j) / d + a * a;";
        let light = "acc = acc - 1;";
        let (then_arm, else_arm) =
            if heavy_on_else { (light, heavy) } else { (heavy, light) };
        let src = format!(
            "int kernel(int a, int b) {{
                int acc = {c1};
                for (int j = 0; j < {n1}; j = j + {step}) {{
                    int c = 3; int d = {c2};
                    if (a > {pivot}) {{ {then_arm} }} else {{ {else_arm} }}
                    for (int k = 0; k < {inner}; k = k + 1) {{
                        acc = acc + b * k;
                    }}
                }}
                int t = b;
                for (int j = 0; j < {n2}; j = j + 1) {{
                    t = t + j * a - acc;
                }}
                return acc + t;
            }}"
        );
        let args = vec![vec![x, y], vec![pivot, y], vec![pivot + 1, -y]];
        assert_sandwich("random", &src, "kernel", &args);
    }
}
