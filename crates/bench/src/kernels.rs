//! The tuned-kernel fixture the simulator, fault-campaign and
//! WCET-tightness benches share.

use teamplay_compiler::{generate_program, CodegenOpts, PassManager};
use teamplay_isa::Program;
use teamplay_minic::compile_to_ir;

/// The four app kernels under their tuned pipelines, compiled once:
/// `(app, task, args, program)`, where `args` is the argument vector the
/// benches call the task with.
pub fn compiled_kernels() -> Vec<(String, String, Vec<i32>, Program)> {
    let cat = teamplay_apps::catalog();
    [
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
    ]
    .into_iter()
    .map(|(app, src, task, args)| {
        let mut module = compile_to_ir(src).expect("kernel compiles");
        let mut pm =
            PassManager::new(cat.get(app).expect("registered").clone()).expect("pipeline resolves");
        pm.run(&mut module);
        let program = generate_program(&module, CodegenOpts::default()).expect("codegen succeeds");
        (app.to_string(), task.to_string(), args, program)
    })
    .collect()
}
