//! Pool-width determinism oracle for the batched trace fleet.
//!
//! `simulate_batch` promises results in **input order, bit-identical at
//! any pool width**: a batch is a pure function of `(function, inputs)`
//! and the pool is only an execution detail. This suite pins that
//! contract by running the same seeded batch on pools of 1, 2 and 4
//! workers and requiring the *serialized* result vectors — every field
//! of every [`RunResult`](teamplay_sim::RunResult), with energy going
//! through its exact `f64` bit pattern — to be byte-for-byte equal.
//!
//! A second case checks the single-worker pool against a plain
//! sequential loop over one engine, so the chunked fleet is anchored to
//! the reference semantics and not merely self-consistent.

use minipool::Pool;
use teamplay_compiler::{generate_program, CodegenOpts, PassManager};
use teamplay_minic::compile_to_ir;
use teamplay_sim::machine::DEFAULT_MAX_CYCLES;
use teamplay_sim::{seeded_inputs, simulate_batch, DecodedProgram, NullDevice};

/// The four app kernels under their tuned pipelines, as
/// `(app, task, arg_count, program)`.
fn kernels() -> Vec<(String, String, usize, teamplay_isa::Program)> {
    let cat = teamplay_apps::catalog();
    [
        (
            "camera_pill",
            teamplay_apps::camera_pill::SOURCE,
            "compress",
            0usize,
        ),
        (
            "spacewire",
            teamplay_apps::spacewire::SOURCE,
            "crc_frame",
            0,
        ),
        (
            "uav",
            teamplay_apps::uav::DETECT_KERNEL_SOURCE,
            "predetect",
            1,
        ),
        (
            "parking",
            teamplay_apps::parking::CONV_KERNEL_SOURCE,
            "conv_layer",
            0,
        ),
    ]
    .into_iter()
    .map(|(app, src, task, arg_count)| {
        let mut module = compile_to_ir(src).expect("kernel compiles");
        let mut pm =
            PassManager::new(cat.get(app).expect("registered").clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let program = generate_program(&module, CodegenOpts::default()).expect("codegen succeeds");
        (app.to_string(), task.to_string(), arg_count, program)
    })
    .collect()
}

#[test]
fn batch_results_are_byte_identical_across_pool_widths() {
    for (app, task, arg_count, program) in kernels() {
        let decoded = DecodedProgram::new(&program).expect("decodes");
        // 67 runs: not a multiple of the fleet's chunk size, so the last
        // chunk is ragged and chunk-boundary bookkeeping is exercised.
        let inputs = seeded_inputs(0xD07, 67, arg_count, -64, 64);
        // Every seeded run must complete (a trap would be a bug in its
        // own right), so the serialized form is the full `RunResult`
        // vector — exact `f64` energy bits included.
        let run = |width: usize| {
            let results = simulate_batch(
                &Pool::new(width),
                &decoded,
                &task,
                &inputs,
                DEFAULT_MAX_CYCLES,
            );
            let results: Vec<_> = results
                .into_iter()
                .map(|r| r.unwrap_or_else(|e| panic!("{app}/{task}: batch run trapped: {e:?}")))
                .collect();
            serde_json::to_string(&results).expect("serializes")
        };
        let baseline = run(1);
        for width in [2usize, 4] {
            assert_eq!(
                baseline,
                run(width),
                "{app}/{task}: batch results differ between pool width 1 and {width}"
            );
        }
    }
}

#[test]
fn single_worker_batch_matches_a_sequential_engine_loop() {
    for (app, task, arg_count, program) in kernels() {
        let decoded = DecodedProgram::new(&program).expect("decodes");
        let inputs = seeded_inputs(0x5EED, 33, arg_count, -64, 64);
        let batch = simulate_batch(&Pool::new(1), &decoded, &task, &inputs, DEFAULT_MAX_CYCLES);
        assert_eq!(batch.len(), inputs.len(), "{app}/{task}: result arity");
        for (args, got) in inputs.iter().zip(&batch) {
            // A fresh engine per run mirrors the fleet's fresh-image
            // contract (every result a pure function of the input).
            let mut engine = decoded.engine();
            let want = engine
                .call(&task, args, &mut NullDevice::new())
                .unwrap_or_else(|e| panic!("{app}/{task}: sequential run trapped: {e:?}"));
            let got = got
                .as_ref()
                .unwrap_or_else(|e| panic!("{app}/{task}: batch run trapped: {e:?}"));
            assert_eq!(
                &want, got,
                "{app}/{task}: sequential run diverges for {args:?}"
            );
            assert_eq!(
                want.energy_pj.to_bits(),
                got.energy_pj.to_bits(),
                "{app}/{task}: energy bit patterns diverge for {args:?}"
            );
        }
    }
}
