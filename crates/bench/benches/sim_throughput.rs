//! Simulation throughput benchmark: pre-decoded engine vs the reference
//! interpreter, in simulated cycles per second.
//!
//! Every measurement-heavy mode of the toolchain (bound validation,
//! energy-model fitting, the predictable workflow's measure step) is
//! gated on simulator throughput, so this bench records — per app kernel
//! under its tuned pipeline — how fast each engine retires simulated
//! cycles:
//!
//! * **reference** — [`teamplay_sim::Machine`], the CFG-walking
//!   interpreter that defines the semantics;
//! * **pre-decoded** — [`teamplay_sim::DecodedProgram`] +
//!   [`teamplay_sim::DecodedEngine`], the direct-threaded engine whose
//!   results are bit-identical to the reference (asserted here on every
//!   kernel before anything is timed);
//! * **batched** — [`teamplay_sim::simulate_batch`] fanning
//!   seeded input vectors across the global `minipool` under an explicit
//!   watchdog budget (the kernel's IPET bound).
//!
//! Each figure is the best wall-clock round of at least 20, and the
//! rounds of every kernel and engine are interleaved over at least
//! 20 s, so a shared host's quiet windows serve every figure.
//!
//! The run writes `BENCH_sim.json` at the repository root (validated in
//! CI by `support/ci/validate_bench.py`), then registers a Criterion
//! timing for the pre-decoded engine itself. Run with
//! `cargo bench --bench sim_throughput`.

use criterion::Criterion;
use serde::Serialize;
use std::rc::Rc;
use std::time::Duration;
use teamplay_bench::kernels::compiled_kernels;
use teamplay_bench::timing::{sample_interleaved, Timer};
use teamplay_isa::CycleModel;
use teamplay_sim::{seeded_inputs, simulate_batch, DecodedProgram, Machine, NullDevice};
use teamplay_wcet::analyze_program;

/// One kernel's throughput under both engines.
#[derive(Serialize)]
struct KernelThroughput {
    app: String,
    task: String,
    /// Simulated cycles of one fresh-state run.
    cycles_per_run: u64,
    /// Reference interpreter, single thread.
    ref_cycles_per_sec: f64,
    /// Pre-decoded engine, single thread.
    decoded_cycles_per_sec: f64,
    /// `decoded / ref` — the headline single-thread gain.
    speedup: f64,
    /// Pooled `simulate_batch` over seeded inputs.
    batch_cycles_per_sec: f64,
    batch_runs: usize,
    /// Worst observed cycles across the seeded batch.
    observed_max_cycles: u64,
    /// Static IPET bound for the kernel.
    ipet_cycles: u64,
    /// `observed_max / ipet` — tightness evidence, in `(0, 1]`.
    observed_over_ipet: f64,
}

#[derive(Serialize)]
struct Baseline {
    bench: String,
    engine: String,
    pool_threads: usize,
    kernels: Vec<KernelThroughput>,
    /// Worst single-thread speedup across the kernels (the gate).
    min_single_thread_speedup: f64,
}

/// Simulated cycles of one stream of `reps` back-to-back runs of `call`.
fn run_stream(reps: usize, mut call: impl FnMut() -> u64) -> u64 {
    (0..reps).map(|_| call()).sum()
}

fn main() {
    let cm = CycleModel::pg32();
    let pool = minipool::global();
    let kernels = compiled_kernels();
    let mut records = Vec::new();
    // Per kernel: the reference stream, the decoded stream and the
    // batch, in `records` order.
    let mut timers = Vec::new();
    let mut cycles = Vec::new();

    for (app, task, args, program) in &kernels {
        let ipet = analyze_program(program, &cm)
            .expect("ipet")
            .wcet_cycles(task)
            .expect("bounded");
        let decoded = Rc::new(DecodedProgram::new(program).expect("decodes"));

        // Differential guard: nothing is timed unless the engines agree
        // bit for bit on this kernel.
        let mut machine = Machine::new(program.clone()).expect("loads");
        let mut engine = decoded.engine();
        let want = machine
            .call(task, args, &mut NullDevice::new())
            .expect("reference runs");
        let got = engine
            .call(task, args, &mut NullDevice::new())
            .expect("decoded runs");
        assert_eq!(want, got, "{app}/{task}: engines diverge");
        assert_eq!(want.energy_pj.to_bits(), got.energy_pj.to_bits());

        // Repetitions sized so each timed round simulates a few tens of
        // millions of cycles. Runs go back to back *without* data resets:
        // globals evolve identically under both engines, so the two time
        // the exact same cycle stream (asserted here, untimed).
        let reps = (30_000_000 / want.cycles.max(1)).clamp(3, 5_000) as usize;
        let ref_stream = move || {
            let mut machine = Machine::new(program.clone()).expect("loads");
            run_stream(reps, || {
                machine
                    .call(task, args, &mut NullDevice::new())
                    .expect("runs")
                    .cycles
            })
        };
        let dec_stream = {
            let decoded = Rc::clone(&decoded);
            move || {
                let mut engine = decoded.engine();
                run_stream(reps, || {
                    engine
                        .call(task, args, &mut NullDevice::new())
                        .expect("runs")
                        .cycles
                })
            }
        };
        let stream_cycles = ref_stream();
        assert_eq!(stream_cycles, dec_stream(), "{app}/{task}: streams diverge");

        // Pooled batch over seeded inputs (fresh data image per run, so
        // every result is IPET-comparable) under an explicit watchdog:
        // the IPET bound itself, so any run past the proven WCET trips
        // `CycleLimit` here instead of inflating the throughput figures.
        let batch_runs = 256usize;
        let arg_count = args.len();
        let inputs = seeded_inputs(
            0x51B0 + records.len() as u64,
            batch_runs,
            arg_count,
            -64,
            64,
        );
        let results = simulate_batch(pool, &decoded, task, &inputs, ipet);
        let observed_max = results
            .iter()
            .map(|r| r.as_ref().expect("batch runs").cycles)
            .max()
            .expect("non-empty batch");
        let batch_cycles: u64 = results
            .iter()
            .map(|r| r.as_ref().expect("batch runs").cycles)
            .sum();

        timers.push(Timer::new(move || {
            ref_stream();
        }));
        timers.push(Timer::new(move || {
            dec_stream();
        }));
        timers.push(Timer::new(move || {
            simulate_batch(pool, &decoded, task, &inputs, ipet);
        }));
        cycles.push((stream_cycles, batch_cycles));
        records.push(KernelThroughput {
            app: app.clone(),
            task: task.clone(),
            cycles_per_run: want.cycles,
            ref_cycles_per_sec: 0.0,
            decoded_cycles_per_sec: 0.0,
            speedup: 0.0,
            batch_cycles_per_sec: 0.0,
            batch_runs,
            observed_max_cycles: observed_max,
            ipet_cycles: ipet,
            observed_over_ipet: observed_max as f64 / ipet as f64,
        });
    }

    sample_interleaved(&mut timers);
    let per_sec = |cycles: u64, t: &Timer<'_>| cycles as f64 / t.best.as_secs_f64().max(1e-9);
    for ((record, timers), (stream_cycles, batch_cycles)) in
        records.iter_mut().zip(timers.chunks(3)).zip(cycles)
    {
        record.ref_cycles_per_sec = per_sec(stream_cycles, &timers[0]);
        record.decoded_cycles_per_sec = per_sec(stream_cycles, &timers[1]);
        record.speedup = record.decoded_cycles_per_sec / record.ref_cycles_per_sec;
        record.batch_cycles_per_sec = per_sec(batch_cycles, &timers[2]);
    }

    let min_speedup = records
        .iter()
        .map(|k| k.speedup)
        .fold(f64::INFINITY, f64::min);
    let baseline = Baseline {
        bench: "sim_throughput".into(),
        engine: "pre_decoded_direct_threaded".into(),
        pool_threads: pool.threads(),
        kernels: records,
        min_single_thread_speedup: min_speedup,
    };
    println!(
        "sim_throughput: {:?}; min single-thread speedup {:.1}x",
        baseline
            .kernels
            .iter()
            .map(|k| format!(
                "{}:{:.1}x ({:.1}M→{:.1}M cyc/s)",
                k.app,
                k.speedup,
                k.ref_cycles_per_sec / 1e6,
                k.decoded_cycles_per_sec / 1e6
            ))
            .collect::<Vec<_>>(),
        baseline.min_single_thread_speedup,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serializes");
    std::fs::write(path, json + "\n").expect("baseline written");

    let decoded_kernels: Vec<(String, Vec<i32>, DecodedProgram)> = kernels
        .iter()
        .map(|(_, task, args, program)| {
            (
                task.clone(),
                args.clone(),
                DecodedProgram::new(program).expect("decodes"),
            )
        })
        .collect();
    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    c.bench_function("sim_decoded_four_kernels", |b| {
        b.iter(|| {
            for (task, args, decoded) in &decoded_kernels {
                let mut engine = decoded.engine();
                engine
                    .call(std::hint::black_box(task), args, &mut NullDevice::new())
                    .expect("runs");
            }
        })
    });
    c.final_summary();
}
