//! Deterministic fault-injection campaigns over the app kernels.
//!
//! Dependable CPS deployments care about *architectural vulnerability*:
//! what fraction of single-event upsets a kernel masks, silently
//! corrupts, traps on, stretches past its timing bound, or turns into a
//! hang. This bench runs a seeded [`teamplay_sim::run_campaign`] against
//! each of the four app kernels under its tuned pipeline and records the
//! per-kernel outcome rates.
//!
//! Every campaign runs under an **explicit watchdog cycle budget**
//! (twice the kernel's static IPET bound — generous for any legitimate
//! run, tiny against a faulted endless loop) and supplies the IPET bound
//! as the timing-violation threshold, so a fault that makes the kernel
//! outlive its proven WCET is reported as a timing violation even when
//! it eventually completes.
//!
//! Determinism contract, asserted here on every kernel before anything
//! is written: the zero-fault control run is bit-identical to the
//! fault-free reference, the serialized campaign is byte-equal at pool
//! widths 1 and 2 (the width-4 leg lives in
//! `tests/fault_campaign_oracle.rs`), and the rates of a non-empty
//! campaign sum to 1.
//!
//! It also prints each campaign's deterministic work counters: the
//! simulated cycles its injections executed, the golden-run cycles they
//! skipped by resuming from checkpoints or after a convergence cut-off,
//! and the runs cut off. Their sum is what replaying every injection
//! from cycle 0 to its end would execute. The counters are not written
//! to the baseline, which holds only outcome rates.
//!
//! The run writes `BENCH_fault.json` at the repository root (validated
//! in CI by `support/ci/validate_bench.py`), then registers a Criterion
//! timing for one campaign. Run with
//! `cargo bench --bench fault_campaign`.

use criterion::Criterion;
use minipool::Pool;
use serde::Serialize;
use std::time::Duration;
use teamplay_compiler::{generate_program, CodegenOpts, PassManager};
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::compile_to_ir;
use teamplay_sim::{run_campaign, CampaignConfig, RecordingDevice};
use teamplay_wcet::analyze_program;

/// One kernel's campaign summary.
#[derive(Serialize)]
struct KernelVulnerability {
    app: String,
    task: String,
    /// Injections classified.
    injections: usize,
    /// Fault-free reference cycles.
    reference_cycles: u64,
    /// Static IPET bound — the timing-violation threshold.
    ipet_cycles: u64,
    /// Watchdog budget every run executed under.
    watchdog_cycles: u64,
    /// Fraction with no architecturally visible effect.
    masked_rate: f64,
    /// Fraction that silently corrupted results.
    sdc_rate: f64,
    /// Fraction that trapped (bad address, call-depth overflow…).
    trapped_rate: f64,
    /// Fraction that completed past the IPET bound.
    timing_rate: f64,
    /// Fraction that tripped the watchdog.
    hang_rate: f64,
    /// The zero-fault control reproduced the reference bit-identically.
    control_masked: bool,
    /// Serialized campaign byte-equal at pool widths 1 and 2.
    pool_width_invariant: bool,
}

#[derive(Serialize)]
struct Baseline {
    bench: String,
    seed: u64,
    injections_per_kernel: usize,
    kernels: Vec<KernelVulnerability>,
}

/// The four kernels under their tuned pipelines, compiled once, with the
/// argument vector the campaigns replay.
fn compiled_kernels() -> Vec<(String, String, Vec<i32>, Program)> {
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

const SEED: u64 = 0x5EED_FA17;
const INJECTIONS: usize = 512;

fn main() {
    let cm = CycleModel::pg32();
    let pool = minipool::global();
    let kernels = compiled_kernels();
    let mut records = Vec::new();

    for (i, (app, task, args, program)) in kernels.iter().enumerate() {
        let ipet = analyze_program(program, &cm)
            .expect("ipet")
            .wcet_cycles(task)
            .expect("bounded");
        let config = CampaignConfig {
            seed: SEED.wrapping_add(i as u64),
            injections: INJECTIONS,
            watchdog_cycles: ipet * 2,
            ipet_bound_cycles: Some(ipet),
        };

        let result = run_campaign(pool, program, task, args, &config, RecordingDevice::new);
        assert!(
            result.control_masked,
            "{app}/{task}: zero-fault control diverged from the reference"
        );
        let rates_sum: f64 = result.stats.rates().iter().sum();
        assert!(
            (rates_sum - 1.0).abs() < 1e-12,
            "{app}/{task}: rates sum to {rates_sum}"
        );

        // Pool-width determinism: the serialized campaign must be
        // byte-equal however wide the fleet is.
        let narrow = run_campaign(
            &Pool::new(1),
            program,
            task,
            args,
            &config,
            RecordingDevice::new,
        );
        let wide = run_campaign(
            &Pool::new(2),
            program,
            task,
            args,
            &config,
            RecordingDevice::new,
        );
        let pool_width_invariant = serde_json::to_string(&result).expect("serializes")
            == serde_json::to_string(&narrow).expect("serializes")
            && serde_json::to_string(&narrow).expect("serializes")
                == serde_json::to_string(&wide).expect("serializes");
        assert!(
            pool_width_invariant,
            "{app}/{task}: campaign depends on pool width"
        );
        let work = result.work;
        println!(
            "fault_campaign work {app}/{task}: executed {} cycles, restored {}, cut {} \
             ({} of {} runs converged); from scratch {}",
            work.executed_cycles,
            work.restored_cycles,
            work.cut_cycles,
            work.converged_runs,
            result.stats.total(),
            work.executed_cycles + work.restored_cycles + work.cut_cycles,
        );

        let [masked, sdc, trapped, timing, hang] = result.stats.rates();
        records.push(KernelVulnerability {
            app: app.clone(),
            task: task.clone(),
            injections: result.stats.total(),
            reference_cycles: result.reference_cycles,
            ipet_cycles: ipet,
            watchdog_cycles: config.watchdog_cycles,
            masked_rate: masked,
            sdc_rate: sdc,
            trapped_rate: trapped,
            timing_rate: timing,
            hang_rate: hang,
            control_masked: result.control_masked,
            pool_width_invariant,
        });
    }

    let baseline = Baseline {
        bench: "fault_campaign".into(),
        seed: SEED,
        injections_per_kernel: INJECTIONS,
        kernels: records,
    };
    println!(
        "fault_campaign: {:?}",
        baseline
            .kernels
            .iter()
            .map(|k| format!(
                "{}/{}: masked {:.2} sdc {:.2} trap {:.2} timing {:.2} hang {:.2}",
                k.app,
                k.task,
                k.masked_rate,
                k.sdc_rate,
                k.trapped_rate,
                k.timing_rate,
                k.hang_rate
            ))
            .collect::<Vec<_>>()
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serializes");
    std::fs::write(path, json + "\n").expect("baseline written");

    // Criterion timing: one full campaign on the smallest kernel.
    let (app, task, args, program) = &kernels[2];
    let ipet = analyze_program(program, &cm)
        .expect("ipet")
        .wcet_cycles(task)
        .expect("bounded");
    let config = CampaignConfig {
        seed: SEED,
        injections: 128,
        watchdog_cycles: ipet * 2,
        ipet_bound_cycles: Some(ipet),
    };
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    c.bench_function(&format!("fault_campaign_{app}_{task}"), |b| {
        b.iter(|| {
            run_campaign(
                pool,
                std::hint::black_box(program),
                task,
                args,
                &config,
                RecordingDevice::new,
            )
        })
    });
    c.final_summary();
}
