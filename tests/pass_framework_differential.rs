//! Differential correctness of the pass framework, per pass and per
//! optimisation level: on the shipped Mini-C application kernels, every
//! registered pass — and the `o1()`–`o3()` preset pipelines — must
//! preserve
//!
//! 1. **reference-interpreter semantics**: return values and the full
//!    port-output trace of every scalar-argument function match the
//!    unoptimised module, and
//! 2. **loop-bound flow facts**: the static WCET analysis still bounds
//!    every function it bounded before optimisation (lost bounds make
//!    the analysis fail, so analysability is the flow-fact witness).
//!
//! Generated kernels (the shared generator in `common/kernels.rs`) add
//! the memory shapes the app kernels lack — constant-index global cells,
//! a zero-initialised local array, an aliasing array parameter, a call
//! between a store and its load — so `load_fwd` and `gvn` meet facts
//! they can actually forward.

#[path = "common/kernels.rs"]
mod kernels;

use teamplay_compiler::{
    generate_program, CodegenOpts, CompilerConfig, PassManager, Pipeline, REGISTRY,
};
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;
use teamplay_minic::interp::RecordingPorts;
use teamplay_minic::ir::{exec_module, IrModule};
use teamplay_wcet::analyze_program;

/// The Mini-C kernels of all four applications: the camera pill
/// pipeline, the SpaceWire downlink kernels, the UAV pre-detector and
/// the parking CNN convolution layer.
fn kernels() -> Vec<(&'static str, &'static str)> {
    vec![
        ("camera_pill", teamplay_apps::camera_pill::SOURCE),
        ("spacewire", teamplay_apps::spacewire::SOURCE),
        ("uav", teamplay_apps::uav::DETECT_KERNEL_SOURCE),
        ("parking_cnn", teamplay_apps::parking::CONV_KERNEL_SOURCE),
    ]
}

/// Every single-pass pipeline from the registry, the level presets, and
/// every application's tuned pipeline.
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

/// Deterministic argument pool; functions draw as many as they need.
const ARG_POOL: [i32; 8] = [0, 1, -1, 7, -13, 255, 4096, -100_000];

fn arg_sets(arity: usize) -> Vec<Vec<i32>> {
    (0..3)
        .map(|round| {
            (0..arity)
                .map(|i| ARG_POOL[(i + round * 3) % ARG_POOL.len()])
                .collect()
        })
        .collect()
}

/// Run a function against a fresh port device with a deterministic
/// input stream, returning the value and the full output trace.
fn run(module: &IrModule, func: &str, args: &[i32]) -> (Option<i32>, Vec<(u8, i32)>) {
    let mut ports = RecordingPorts::new();
    for port in 0..4u8 {
        ports.queue(
            port,
            (0..512).map(|i| (i * 37 + i32::from(port) * 11 + 5) & 0xFFFF),
        );
    }
    let value = exec_module(module, func, args, &mut ports, 200_000_000)
        .unwrap_or_else(|e| panic!("{func} must run: {e:?}"));
    (value, ports.outputs)
}

#[test]
fn every_registered_pass_and_preset_preserves_semantics_and_flow_facts() {
    let cm = CycleModel::pg32();
    for (kernel, src) in kernels() {
        let reference = compile_to_ir(src).expect("kernel compiles");
        let ref_program =
            generate_program(&reference, CodegenOpts::default()).expect("reference codegen");
        let ref_wcet =
            analyze_program(&ref_program, &cm).expect("reference kernels are analysable");

        // The scalar-argument functions are the differential drivers.
        let scalar_functions: Vec<(String, usize)> = reference
            .functions
            .iter()
            .filter(|f| f.params.iter().all(|p| !p.is_array))
            .map(|f| (f.name.clone(), f.params.len()))
            .collect();
        assert!(
            !scalar_functions.is_empty(),
            "{kernel}: no scalar entry points"
        );

        for (label, pipeline) in pipelines_under_test() {
            let mut optimised = reference.clone();
            let mut pm = PassManager::new(pipeline).expect("pipeline resolves");
            pm.run(&mut optimised);
            optimised
                .validate()
                .unwrap_or_else(|e| panic!("{kernel}/{label}: invalid IR after pipeline: {e}"));

            // 1. Interpreter semantics: values and port traces agree.
            for (func, arity) in &scalar_functions {
                for args in arg_sets(*arity) {
                    let (expect_val, expect_out) = run(&reference, func, &args);
                    let (got_val, got_out) = run(&optimised, func, &args);
                    assert_eq!(
                        got_val, expect_val,
                        "{kernel}/{label}: `{func}({args:?})` diverged"
                    );
                    assert_eq!(
                        got_out, expect_out,
                        "{kernel}/{label}: `{func}({args:?})` port trace diverged"
                    );
                }
            }

            // 2. Flow facts: everything the reference analysis bounded
            // stays bounded (and the analysis itself still succeeds).
            let program = generate_program(&optimised, CodegenOpts::default())
                .unwrap_or_else(|e| panic!("{kernel}/{label}: codegen failed: {e}"));
            let wcet = analyze_program(&program, &cm)
                .unwrap_or_else(|e| panic!("{kernel}/{label}: flow facts lost: {e}"));
            for (func, _) in &scalar_functions {
                if ref_wcet.wcet_cycles(func).is_some() {
                    assert!(
                        wcet.wcet_cycles(func).is_some(),
                        "{kernel}/{label}: `{func}` lost its WCET bound"
                    );
                }
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 6, ..proptest::ProptestConfig::default() })]

    /// Phase-ordering fuzz: ANY genome — any pass subset in any order,
    /// any duplicated cleanup round, any parameters — must decode to a
    /// pipeline that preserves interpreter semantics, port traces and
    /// WCET flow facts on all four application kernels.
    #[test]
    fn random_permutation_pipelines_preserve_semantics_and_flow_facts(
        genome in proptest::collection::vec(0.0f64..1.0, CompilerConfig::GENOME_DIMS),
    ) {
        let pipeline = CompilerConfig::from_genome(&genome).pipeline;
        let label = format!("genome:{pipeline}");
        let cm = CycleModel::pg32();
        for (kernel, src) in kernels() {
            let reference = compile_to_ir(src).expect("kernel compiles");
            let ref_program =
                generate_program(&reference, CodegenOpts::default()).expect("reference codegen");
            let ref_wcet =
                analyze_program(&ref_program, &cm).expect("reference kernels are analysable");
            let scalar_functions: Vec<(String, usize)> = reference
                .functions
                .iter()
                .filter(|f| f.params.iter().all(|p| !p.is_array))
                .map(|f| (f.name.clone(), f.params.len()))
                .collect();

            let mut optimised = reference.clone();
            let mut pm = PassManager::new(pipeline.clone()).expect("genome pipelines resolve");
            pm.run(&mut optimised);
            optimised
                .validate()
                .unwrap_or_else(|e| panic!("{kernel}/{label}: invalid IR after pipeline: {e}"));

            for (func, arity) in &scalar_functions {
                for args in arg_sets(*arity).into_iter().take(1) {
                    let (expect_val, expect_out) = run(&reference, func, &args);
                    let (got_val, got_out) = run(&optimised, func, &args);
                    proptest::prop_assert_eq!(
                        got_val, expect_val,
                        "{}/{}: `{}({:?})` diverged", kernel, label, func, args
                    );
                    proptest::prop_assert_eq!(
                        got_out, expect_out,
                        "{}/{}: `{}({:?})` port trace diverged", kernel, label, func, args
                    );
                }
            }

            let program = generate_program(&optimised, CodegenOpts::default())
                .unwrap_or_else(|e| panic!("{kernel}/{label}: codegen failed: {e}"));
            let wcet = analyze_program(&program, &cm)
                .unwrap_or_else(|e| panic!("{kernel}/{label}: flow facts lost: {e}"));
            for (func, _) in &scalar_functions {
                if ref_wcet.wcet_cycles(func).is_some() {
                    proptest::prop_assert!(
                        wcet.wcet_cycles(func).is_some(),
                        "{}/{}: `{}` lost its WCET bound", kernel, label, func
                    );
                }
            }
        }
    }

    /// Decoding is a pure function and its phenotype survives the full
    /// serialisation cycle: decode → render → parse and decode → JSON →
    /// parse both land on the identical configuration.
    #[test]
    fn genome_decode_serialize_parse_round_trips(
        genome in proptest::collection::vec(0.0f64..1.0, CompilerConfig::GENOME_DIMS),
    ) {
        let config = CompilerConfig::from_genome(&genome);
        let again = CompilerConfig::from_genome(&genome);
        proptest::prop_assert_eq!(&config, &again, "decoding must be deterministic");

        let rendered = config.pipeline.to_string();
        let reparsed: Pipeline = rendered.parse().expect("rendered pipelines parse");
        proptest::prop_assert_eq!(&reparsed, &config.pipeline, "string form: {}", rendered);

        let json = serde_json::to_string(&config).expect("serializes");
        let back: CompilerConfig = serde_json::from_str(&json).expect("deserializes");
        proptest::prop_assert_eq!(&back, &config, "JSON form: {}", json);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 24, ..proptest::ProptestConfig::default() })]

    /// `load_fwd`, `gvn`, a forwarding pipeline after inlining, and every
    /// app's tuned pipeline keep a generated kernel's interpreter
    /// semantics: return value and port trace of `f`.
    #[test]
    fn forwarding_pipelines_preserve_semantics_on_memory_shaped_kernels(
        src in kernels::arb_kernel(),
    ) {
        let reference = compile_to_ir(&src).expect("generated kernels lower");
        let mut pipelines = vec![
            "load_fwd",
            "gvn",
            "inline(40),load_fwd,gvn,const_fold,copy_prop,dce",
        ];
        pipelines.extend(teamplay_apps::recommended_pipelines().into_iter().map(|(_, p)| p));
        for pipeline in pipelines {
            let mut optimised = reference.clone();
            let mut pm = PassManager::from_str(pipeline).expect("pipeline parses");
            pm.run(&mut optimised);
            optimised
                .validate()
                .unwrap_or_else(|e| panic!("{pipeline}: invalid IR: {e}\n{src}"));
            for args in [[3, 4], [-7, 2], [0, 0], [100, -100]] {
                let expect = run(&reference, "f", &args);
                let got = run(&optimised, "f", &args);
                proptest::prop_assert_eq!(
                    got, expect,
                    "{}: `f({:?})` diverged on\n{}", pipeline, args, src
                );
            }
        }
    }
}

#[test]
fn optimisation_levels_do_not_regress_wcet() {
    // Sanity on top of correctness: each preset's WCET for the camera
    // pill tasks is no worse than the unoptimised build — optimisation
    // levels must never pessimise the bound.
    let cm = CycleModel::pg32();
    let reference = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("kernel compiles");
    let base = analyze_program(
        &generate_program(&reference, CodegenOpts::default()).expect("codegen"),
        &cm,
    )
    .expect("analysable");
    for (label, pipeline) in [
        ("o1", Pipeline::o1()),
        ("o2", Pipeline::o2()),
        ("o3", Pipeline::o3()),
    ] {
        let mut optimised = reference.clone();
        PassManager::new(pipeline)
            .expect("preset pipeline is valid")
            .run(&mut optimised);
        let wcet = analyze_program(
            &generate_program(&optimised, CodegenOpts::default()).expect("codegen"),
            &cm,
        )
        .expect("analysable");
        for (task, _) in teamplay_apps::camera_pill::TASKS {
            let b = base.wcet_cycles(task).expect("bounded");
            let o = wcet.wcet_cycles(task).expect("bounded");
            assert!(o <= b, "{label}: task `{task}` WCET regressed: {o} > {b}");
        }
    }
}
