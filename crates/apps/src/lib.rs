//! # teamplay-apps — the four TeamPlay use cases
//!
//! Section IV of the paper validates the methodology on four
//! industrial-grade applications; this crate reproduces each as a
//! laptop-scale workload with the same structure:
//!
//! * [`camera_pill`] — the capsule-endoscopy imaging pipeline on a
//!   Cortex-M0-class core (capture → compress → encrypt → transmit),
//!   written in annotated Mini-C and compiled by the full predictable
//!   toolchain (paper Section IV-A: 18 % performance / 19 % energy
//!   improvement);
//! * [`spacewire`] — the LEON3/GR712RC image processing and SpaceWire
//!   downlink application with DVFS-based energy minimisation under a
//!   hard deadline (Section IV-B: 52 % energy improvement);
//! * [`uav`] — the fixed-wing search-and-rescue drone's detection
//!   pipeline on a TK1-class payload, with the battery/endurance model
//!   behind the "+4 minutes of flight" result (Section IV-C), plus the
//!   M0 co-processor's Mini-C pre-detector kernel
//!   ([`uav::DETECT_KERNEL_SOURCE`]);
//! * [`parking`] — the free-parking-spot CNN (Section IV-D), as
//!   fixed-point Rust inference for the complex flow and as Mini-C
//!   kernels for the per-layer compiler variant study.
//!
//! # Per-app pipelines
//!
//! Each application ships a tuned pass pipeline through a common
//! `recommended_pipeline()` accessor — a *string*, so the layers above
//! (workflow configuration, coordination, benches) can select it by
//! name without constructing compiler structs. The per-app rationale
//! lives on each accessor:
//!
//! * [`camera_pill::recommended_pipeline`] — inline the packer, hoist
//!   and share the frame-loop subterms (block-locally and globally via
//!   `gvn`), no unrolling on pill-sized flash;
//! * [`spacewire::recommended_pipeline`] — inline the per-pixel/per-byte
//!   callees, hoist row terms, unroll the 8-trip CRC bit loop,
//!   strength-reduce the strides;
//! * [`uav::recommended_pipeline`] — inline the gradient magnitude,
//!   hoist/share row addressing, unroll the tile load for the
//!   endurance budget;
//! * [`parking::recommended_pipeline`] — hoist/share stencil
//!   addressing and shift-add the 2-bit-popcount weights (the
//!   battery-side trade the weights were chosen for).
//!
//! [`catalog`] bundles all four (plus the generic `o0`–`o3` levels)
//! into a [`PipelineCatalog`] for name-based selection.

use teamplay_compiler::PipelineCatalog;

pub mod camera_pill;
pub mod parking;
pub mod spacewire;
pub mod uav;

/// Every application's `(name, recommended pipeline)` pair.
pub fn recommended_pipelines() -> [(&'static str, &'static str); 4] {
    [
        ("camera_pill", camera_pill::recommended_pipeline()),
        ("spacewire", spacewire::recommended_pipeline()),
        ("uav", uav::recommended_pipeline()),
        ("parking", parking::recommended_pipeline()),
    ]
}

/// The pipeline catalogue the workflows and benches select from: the
/// generic optimisation levels (`o0`–`o3`) plus the four tuned per-app
/// pipelines, each under its application name.
pub fn catalog() -> PipelineCatalog {
    let mut cat = PipelineCatalog::builtin();
    for (name, pipeline) in recommended_pipelines() {
        cat.register(name, pipeline)
            .expect("recommended pipelines are valid");
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_compiler::{generate_program, CodegenOpts, PassManager, Pipeline};
    use teamplay_isa::CycleModel;
    use teamplay_minic::compile_to_ir;
    use teamplay_wcet::analyze_program;

    /// Each app's `(kernel source, task function)` pair for the
    /// recommended-pipeline study.
    fn kernels() -> [(&'static str, &'static str, &'static str); 4] {
        [
            ("camera_pill", camera_pill::SOURCE, "compress"),
            ("spacewire", spacewire::SOURCE, "crc_frame"),
            ("uav", uav::DETECT_KERNEL_SOURCE, "predetect"),
            ("parking", parking::CONV_KERNEL_SOURCE, "conv_layer"),
        ]
    }

    #[test]
    fn catalog_serves_every_app_and_the_levels() {
        let cat = catalog();
        for name in [
            "o0",
            "o1",
            "o2",
            "o3",
            "camera_pill",
            "spacewire",
            "uav",
            "parking",
        ] {
            assert!(cat.get(name).is_some(), "{name} missing from the catalogue");
        }
    }

    #[test]
    fn tuned_pipelines_encode_as_search_seeds_where_representable() {
        use teamplay_compiler::CompilerConfig;
        // The predictable workflow seeds each task's FPA with the
        // configured pipeline's genome; three of the four tuned
        // pipelines sit inside the genome's range and round-trip
        // exactly. The UAV pipeline's `unroll(64)` exceeds the genome's
        // trip ceiling (16), so it is refused rather than approximated.
        for (name, pipeline) in recommended_pipelines() {
            let config = CompilerConfig {
                pipeline: pipeline.parse().expect("valid"),
                ..CompilerConfig::balanced()
            };
            match name {
                "uav" => assert_eq!(config.to_genome(), None, "unroll(64) must be refused"),
                _ => {
                    let genome = config
                        .to_genome()
                        .unwrap_or_else(|| panic!("{name} pipeline should encode"));
                    assert_eq!(CompilerConfig::from_genome(&genome), config, "{name}");
                }
            }
        }
    }

    #[test]
    fn recommended_pipelines_beat_the_generic_cleanup_level() {
        // Every tuned pipeline must preserve analysability on its own
        // kernel and beat the o1 "traditional toolchain" on its hottest
        // task — on WCET, and without paying for it in energy.
        let cat = catalog();
        let cm = CycleModel::pg32();
        let em = teamplay_energy::IsaEnergyModel::pg32_datasheet();
        for (app, src, task) in kernels() {
            let reference = compile_to_ir(src).expect("kernel compiles");
            let bounds_under = |pipeline: Pipeline| {
                let mut m = reference.clone();
                let mut pm = PassManager::new(pipeline).expect("pipeline resolves");
                pm.run(&mut m);
                let p = generate_program(&m, CodegenOpts::default()).expect("codegen");
                let wcet = analyze_program(&p, &cm)
                    .unwrap_or_else(|e| panic!("{app}: flow facts lost: {e}"))
                    .wcet_cycles(task)
                    .expect("task bounded");
                let wcec = teamplay_energy::analyze_program_energy(&p, &em, &cm)
                    .expect("energy analysable")
                    .wcec_pj(task)
                    .expect("task bounded");
                (wcet, wcec)
            };
            let tuned = bounds_under(cat.get(app).expect("registered").clone());
            let generic = bounds_under(Pipeline::o1());
            assert!(
                tuned.0 < generic.0,
                "{app}: tuned {tuned:?} not faster than o1 {generic:?}"
            );
            assert!(
                tuned.1 <= generic.1,
                "{app}: tuned {tuned:?} costlier than o1 {generic:?}"
            );
        }
    }

    #[test]
    fn ipet_strictly_tightens_every_kernel_bound() {
        // The PR-5 acceptance criterion, asserted at app level: on every
        // kernel's hot task, the IPET bound is at most the structural
        // bound — and strictly below it (all four kernels are loop
        // nests, where IPET stops charging the worst full iteration for
        // the final header check). The same flow solver carries the
        // energy model, so WCEC must tighten in lock-step.
        let cat = catalog();
        let cm = CycleModel::pg32();
        let em = teamplay_energy::IsaEnergyModel::pg32_datasheet();
        for (app, src, task) in kernels() {
            let mut m = compile_to_ir(src).expect("kernel compiles");
            let mut pm =
                PassManager::new(cat.get(app).expect("registered").clone()).expect("resolves");
            pm.run(&mut m);
            let p = generate_program(&m, CodegenOpts::default()).expect("codegen");
            let ipet = analyze_program(&p, &cm)
                .expect("analysable")
                .wcet_cycles(task)
                .expect("bounded");
            let energy = teamplay_energy::EnergyLane::new(&em, &cm);
            let [structural, structural_mpj] =
                teamplay_wcet::analyze(&p, [&cm, &energy], teamplay_wcet::Preset::Structural)
                    .expect("analysable")[task];
            assert!(
                ipet < structural,
                "{app}/{task}: IPET {ipet} not strictly tighter than structural {structural}"
            );
            let wcec = teamplay_energy::analyze_program_energy(&p, &em, &cm)
                .expect("analysable")
                .wcec_pj(task)
                .expect("bounded");
            let wcec_structural = teamplay_energy::mpj_to_pj(structural_mpj);
            assert!(
                wcec < wcec_structural,
                "{app}/{task}: WCEC {wcec} not strictly tighter than {wcec_structural}"
            );
        }
    }
}
