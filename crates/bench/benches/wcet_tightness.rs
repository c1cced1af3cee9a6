//! WCET/WCEC tightness benchmark: structural-vs-IPET bound ratios per
//! application kernel, plus analysis throughput (analyses/second).
//!
//! `analyze_program` runs once per compiled variant — thousands of times
//! per multi-objective search — so it is the hottest analysis path in
//! the repository. This bench records two things the CI gate then
//! guards:
//!
//! * **tightness** — for each app kernel under its tuned pipeline, the
//!   ratio `IPET / structural` for both the cycle and the energy bound
//!   (must sit in `(0, 1]`, with at least one kernel strictly below 1);
//! * **throughput** — full-program analyses per second, each one fresh:
//!   the one analysis memo is the driver's, keyed on the compile memo's
//!   code ids, and it needs a compile to key on. The figure is the best
//!   of at least 20 rounds over at least 20 s (see
//!   [`teamplay_bench::timing`]).
//!
//! The run writes the tightness rows to `BENCH_wcet.json` and the
//! wall-clock throughput to `BENCH_wcet_memo.json`, both at the repository
//! root and validated in CI by `support/ci/validate_bench.py`. The
//! tightness rows are deterministic, so CI also fails if a rerun changes
//! `BENCH_wcet.json` at all; the timings vary from run to run and live
//! in their own file for that reason. The run then registers a Criterion
//! timing for the IPET analysis itself. Run with
//! `cargo bench --bench wcet_tightness`.

use criterion::Criterion;
use serde::Serialize;
use std::time::Duration;
use teamplay_bench::kernels::compiled_kernels;
use teamplay_bench::timing::{sample_interleaved, Timer};
use teamplay_energy::{analyze_program_energy, mpj_to_pj, EnergyLane, IsaEnergyModel};
use teamplay_isa::{CycleModel, Program};
use teamplay_wcet::{analyze, analyze_program, Preset};

/// One kernel's bounds under both engines.
#[derive(Serialize)]
struct KernelTightness {
    app: String,
    task: String,
    structural_cycles: u64,
    ipet_cycles: u64,
    /// `ipet / structural` — in `(0, 1]`, lower is tighter.
    tightness_ratio: f64,
    structural_wcec_pj: f64,
    ipet_wcec_pj: f64,
    wcec_tightness_ratio: f64,
}

/// `BENCH_wcet.json`: deterministic, so byte-compared in CI.
#[derive(Serialize)]
struct Baseline {
    bench: String,
    engine: String,
    kernels: Vec<KernelTightness>,
}

/// `BENCH_wcet_memo.json`: wall-clock throughput, different every run.
#[derive(Serialize)]
struct Throughput {
    bench: String,
    /// Whole-program IPET analyses per second, fresh every time.
    analyses_per_sec_uncached: f64,
}

fn main() {
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let kernels = compiled_kernels();

    let tightness: Vec<KernelTightness> = kernels
        .iter()
        .map(|(app, task, _, program)| {
            let ipet = analyze_program(program, &cm)
                .expect("ipet")
                .wcet_cycles(task)
                .expect("bounded");
            let energy = EnergyLane::new(&em, &cm);
            let [structural, structural_mpj] =
                analyze(program, [&cm, &energy], Preset::Structural).expect("structural")[task];
            let ipet_pj = analyze_program_energy(program, &em, &cm)
                .expect("wcec")
                .wcec_pj(task)
                .expect("bounded");
            let structural_pj = mpj_to_pj(structural_mpj);
            KernelTightness {
                app: app.clone(),
                task: task.clone(),
                structural_cycles: structural,
                ipet_cycles: ipet,
                tightness_ratio: ipet as f64 / structural as f64,
                structural_wcec_pj: structural_pj,
                ipet_wcec_pj: ipet_pj,
                wcec_tightness_ratio: ipet_pj / structural_pj,
            }
        })
        .collect();

    // Throughput: whole-program analyses over all four kernels, the
    // best of the sampled rounds.
    const REPS: usize = 50;
    let programs: Vec<&Program> = kernels.iter().map(|(_, _, _, p)| p).collect();
    let mut timers = [Timer::new(|| {
        for _ in 0..REPS {
            for p in &programs {
                analyze_program(std::hint::black_box(p), &cm).expect("analyses");
            }
        }
    })];
    sample_interleaved(&mut timers);
    let [uncached] = timers.map(|t| t.best);
    let analyses = (REPS * programs.len()) as f64;
    let per_sec = |t: Duration| analyses / t.as_secs_f64().max(1e-9);

    let baseline = Baseline {
        bench: "wcet_tightness".into(),
        engine: "ipet_loop_nest_dp".into(),
        kernels: tightness,
    };
    let throughput = Throughput {
        bench: "wcet_tightness".into(),
        analyses_per_sec_uncached: per_sec(uncached),
    };
    println!(
        "wcet_tightness: ratios {:?}; {:.0} analyses/s",
        baseline
            .kernels
            .iter()
            .map(|k| format!("{}:{:.3}", k.app, k.tightness_ratio))
            .collect::<Vec<_>>(),
        throughput.analyses_per_sec_uncached,
    );

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let write = |name: &str, json: String| {
        std::fs::write(format!("{root}/{name}"), json + "\n").expect("baseline written");
    };
    write(
        "BENCH_wcet.json",
        serde_json::to_string_pretty(&baseline).expect("serializes"),
    );
    write(
        "BENCH_wcet_memo.json",
        serde_json::to_string_pretty(&throughput).expect("serializes"),
    );

    let mut c = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    c.bench_function("wcet_ipet_analyze_four_kernels", |b| {
        b.iter(|| {
            for p in &programs {
                analyze_program(std::hint::black_box(p), &cm).expect("analyses");
            }
        })
    });
    c.final_summary();
}
