//! The Section IV experiments (E0–E5).

use crate::improvement_pct;
use teamplay::complex::{ComplexTask, ComplexWorkflow};
use teamplay::predictable::{PredictableWorkflow, WorkflowConfig};
use teamplay_apps::{camera_pill, parking, spacewire, uav};
use teamplay_compiler::{
    compile_module, pareto_search, CompilerConfig, EvalCache, FpaConfig, SearchRequest,
};
use teamplay_contracts::verify_certificate;
use teamplay_coord::freq::gr712_levels;
use teamplay_coord::{
    dvfs_options, schedule_branch_and_bound, schedule_energy_aware, CoordTask, ExecOption, TaskSet,
};
use teamplay_csl::extract_model;
use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
use teamplay_isa::CycleModel;
use teamplay_minic::{compile_to_ir, parse_and_check};
use teamplay_security::ladder::secret_params_of;
use teamplay_security::{assess_leakage, ladderise, SecretSpec};
use teamplay_sim::{Battery, ComplexPlatform, Machine};
use teamplay_wcet::analyze_program;

/// The "traditional toolchain" baseline the experiments compare
/// against: the preset's codegen knobs with the pipeline selected from
/// the catalogue *by name* — the same string-based selection the
/// workflow's default build uses, and a single source of truth for the
/// knobs ([`CompilerConfig::traditional`]).
fn traditional_baseline() -> CompilerConfig {
    CompilerConfig {
        pipeline: teamplay_apps::catalog().resolve("o1").expect("catalogued"),
        ..CompilerConfig::traditional()
    }
}

/// Measure one full camera-pill frame (4 tasks) on a machine.
fn pill_frame_cost(machine: &mut Machine, seed: u32, key: i32) -> (u64, f64) {
    machine.reset_data();
    let mut dev = camera_pill::frame_device(seed);
    let mut cycles = 0u64;
    let mut energy = 0.0;
    for (task, _) in camera_pill::TASKS {
        let args: &[i32] = if task == "encrypt" { &[key] } else { &[] };
        let r = machine.call(task, args, &mut dev).expect("task runs");
        cycles += r.cycles;
        energy += r.energy_pj;
    }
    (cycles, energy)
}

/// E0: both workflow figures run end-to-end (Fig. 1 and Fig. 2).
pub fn e0_workflows() -> String {
    let mut out = String::new();
    out.push_str("## E0 — workflow figures as executable pipelines\n\n");

    let mut cfg = WorkflowConfig::pg32();
    cfg.fpa = FpaConfig::tiny();
    cfg.leakage_traces = 24;
    let fig1 = PredictableWorkflow::new(cfg)
        .run(camera_pill::SOURCE)
        .expect("Fig. 1 workflow completes");
    verify_certificate(&fig1.certificate, &fig1.evidence).expect("certificate verifies");
    out.push_str(&format!(
        "Fig. 1 (predictable): {} tasks compiled, scheduled (makespan {:.0}µs), \
         certificate with {} obligations VERIFIED\n",
        fig1.tasks.len(),
        fig1.schedule.makespan_us,
        fig1.certificate.obligation_count(),
    ));

    let tasks: Vec<ComplexTask> = uav::sar_pipeline()
        .into_iter()
        .map(|(name, work, after)| ComplexTask { name, work, after })
        .collect();
    let fig2 = ComplexWorkflow::new(ComplexPlatform::tk1())
        .run(&tasks, uav::FRAME_PERIOD_US)
        .expect("Fig. 2 workflow completes");
    out.push_str(&format!(
        "Fig. 2 (complex): {} profiles measured, schedule makespan {:.0}µs, \
         frame energy {:.0}µJ, glue generated ({} bytes)\n\n",
        fig2.profile.profiles.len(),
        fig2.schedule.makespan_us,
        fig2.frame_energy_uj,
        fig2.parallel_glue.len(),
    ));
    out
}

/// Result of E1.
#[derive(Debug, Clone, Copy)]
pub struct E1Result {
    /// Performance improvement over the traditional toolchain (%).
    pub perf_improvement_pct: f64,
    /// Energy improvement (%).
    pub energy_improvement_pct: f64,
}

/// E1 — camera pill (paper: 18 % performance, 19 % energy improvement).
pub fn e1_camera_pill() -> (E1Result, String) {
    let ir = compile_to_ir(camera_pill::SOURCE).expect("pipeline parses");
    // Baseline: the traditional single-objective toolchain.
    let baseline = compile_module(&ir, &traditional_baseline()).expect("baseline compiles");
    let mut base_machine = Machine::new(baseline).expect("baseline loads");
    let (base_cycles, base_energy) = pill_frame_cost(&mut base_machine, 1, 0x5EED);

    // TeamPlay: the full Fig. 1 workflow (per-task Pareto selection).
    let mut cfg = WorkflowConfig::pg32();
    cfg.fpa = FpaConfig::standard();
    cfg.leakage_traces = 24;
    let outcome = PredictableWorkflow::new(cfg)
        .run(camera_pill::SOURCE)
        .expect("workflow completes");
    let mut tp_machine = Machine::new(outcome.program.clone()).expect("teamplay loads");
    let (tp_cycles, tp_energy) = pill_frame_cost(&mut tp_machine, 1, 0x5EED);

    let result = E1Result {
        perf_improvement_pct: improvement_pct(base_cycles as f64, tp_cycles as f64),
        energy_improvement_pct: improvement_pct(base_energy, tp_energy),
    };
    let mut out = String::new();
    out.push_str("## E1 — camera pill (Section IV-A)\n\n");
    out.push_str("| toolchain | frame cycles | frame energy (µJ) |\n|---|---|---|\n");
    out.push_str(&format!(
        "| traditional | {} | {:.1} |\n",
        base_cycles,
        base_energy / 1e6
    ));
    out.push_str(&format!(
        "| TeamPlay | {} | {:.1} |\n\n",
        tp_cycles,
        tp_energy / 1e6
    ));
    out.push_str(&format!(
        "measured: {:.1} % performance, {:.1} % energy improvement (paper: 18 %, 19 %)\n\n",
        result.perf_improvement_pct, result.energy_improvement_pct
    ));
    (result, out)
}

/// Result of E2.
#[derive(Debug, Clone, Copy)]
pub struct E2Result {
    /// Energy improvement over max-frequency baseline (%).
    pub energy_improvement_pct: f64,
    /// Deadline satisfied by the optimised schedule.
    pub deadlines_met: bool,
}

/// E2 — SpaceWire downlink (paper: 52 % energy, all deadlines met).
pub fn e2_spacewire() -> (E2Result, String) {
    let ir = compile_to_ir(spacewire::SOURCE).expect("pipeline parses");
    let cm = CycleModel::leon3();
    let em = IsaEnergyModel::leon3_datasheet();
    let model = extract_model(&parse_and_check(spacewire::SOURCE).expect("front-end"))
        .expect("CSL extracts");
    let levels = gr712_levels();

    // Baseline: traditional compiler, always at the nominal frequency.
    let baseline = compile_module(&ir, &traditional_baseline()).expect("compiles");
    let base_wcet = analyze_program(&baseline, &cm).expect("wcet");
    let base_energy_report = analyze_program_energy(&baseline, &em, &cm).expect("wcec");
    let nominal = *levels.last().expect("levels");
    let mut base_time_us = 0.0;
    let mut base_energy_uj = 0.0;
    for task in spacewire::TASKS {
        let cycles = base_wcet.wcet_cycles(task).expect("bounded");
        let dyn_uj = base_energy_report.wcec_uj(task).expect("bounded");
        let opts = dvfs_options("base", "cpu0", cycles, dyn_uj, &[nominal]);
        base_time_us += opts[0].time_us;
        base_energy_uj += opts[0].energy_uj;
    }

    // TeamPlay: per-task Pareto variants × DVFS levels, scheduled under
    // the 100 ms frame deadline. The per-task searches are independent,
    // so they fan out over the global pool (index-ordered results keep
    // the experiment deterministic); each search gets a slice of the
    // remaining width so the nested batches don't oversubscribe cores,
    // and all four share one evaluation cache over the module so a
    // configuration any task compiled is free for the rest.
    let pool = minipool::global();
    let inner = pool.split_across(model.tasks.len());
    let eval_cache = EvalCache::new(&ir, &cm, &em);
    let fronts = pool.par_map(&model.tasks, |_, spec| {
        let request = SearchRequest::new(&spec.function, FpaConfig::standard(), 0x5AC3);
        pareto_search(&inner, &eval_cache, &request).variants
    });
    let mut coord_tasks = Vec::new();
    for (spec, variants) in model.tasks.iter().zip(fronts) {
        let mut options: Vec<ExecOption> = Vec::new();
        for (vi, v) in variants.iter().enumerate() {
            options.extend(dvfs_options(
                &format!("v{vi}"),
                "cpu0",
                v.metrics.wcet_cycles,
                v.metrics.wcec_pj / 1e6,
                &levels,
            ));
        }
        let mut ct = CoordTask::new(spec.name.clone(), options);
        ct.after = spec.after.clone();
        ct.deadline_us = spec.deadline.map(|d| d.as_us());
        coord_tasks.push(ct);
    }
    let set = TaskSet::new(
        coord_tasks,
        vec!["cpu0".into()],
        spacewire::FRAME_DEADLINE_US,
    )
    .expect("task set");
    let schedule = schedule_energy_aware(&set).expect("schedulable");
    schedule.validate(&set).expect("valid schedule");

    let result = E2Result {
        energy_improvement_pct: improvement_pct(base_energy_uj, schedule.total_energy_uj),
        deadlines_met: schedule.makespan_us <= spacewire::FRAME_DEADLINE_US,
    };
    let mut out = String::new();
    out.push_str("## E2 — SpaceWire downlink (Section IV-B)\n\n");
    out.push_str("| approach | frame time (µs) | frame energy (µJ) |\n|---|---|---|\n");
    out.push_str(&format!(
        "| traditional @ 100 MHz | {base_time_us:.0} | {base_energy_uj:.1} |\n"
    ));
    out.push_str(&format!(
        "| TeamPlay (variants × DVFS) | {:.0} | {:.1} |\n\n",
        schedule.makespan_us, schedule.total_energy_uj
    ));
    for e in &schedule.entries {
        out.push_str(&format!(
            "  {} -> {} (finish {:.0}µs)\n",
            e.task, e.option, e.finish_us
        ));
    }
    out.push_str(&format!(
        "\nmeasured: {:.1} % energy improvement, deadlines met: {} (paper: 52 %, all met)\n\n",
        result.energy_improvement_pct, result.deadlines_met
    ));
    (result, out)
}

/// Result of E3.
#[derive(Debug, Clone, Copy)]
pub struct E3Result {
    /// Software energy improvement (%).
    pub energy_improvement_pct: f64,
    /// Flight minutes gained.
    pub minutes_gained: f64,
    /// Software power of the optimised mapping (W).
    pub software_power_w: f64,
}

/// E3 — UAV search and rescue (paper: 18 % energy ⇒ ≈ +4 min flight;
/// PA: mechanical ≈ 28 W, software 2–11 W).
pub fn e3_uav() -> (E3Result, String) {
    let platform = ComplexPlatform::tk1();
    let tasks: Vec<ComplexTask> = uav::sar_pipeline()
        .into_iter()
        .map(|(name, work, after)| ComplexTask { name, work, after })
        .collect();
    let wf = ComplexWorkflow::new(platform.clone());

    // Baseline: the pre-TeamPlay port — the human mapping already uses
    // the right accelerators, but every core races at its maximum
    // frequency and no energy-aware version selection happens.
    let profile = teamplay_profiler::profile_tasks(
        &platform,
        &tasks
            .iter()
            .map(|t| (t.name.clone(), t.work))
            .collect::<Vec<_>>(),
        wf.runs,
        wf.seed,
    );
    let max_op_label = |core: &str| {
        let c = platform.core(core).expect("profiled core exists");
        format!("#op{}", c.ops.len() - 1)
    };
    let naive_tasks: Vec<CoordTask> = tasks
        .iter()
        .map(|t| {
            let options =
                teamplay_profiler::exec_options_from_profile(&profile, &t.name, wf.margin)
                    .into_iter()
                    .filter(|o| o.label.ends_with(&max_op_label(&o.core)))
                    .collect();
            let mut ct = CoordTask::new(t.name.clone(), options);
            ct.after = t.after.clone();
            ct
        })
        .collect();
    let naive_set = TaskSet::new(
        naive_tasks,
        platform.cores.iter().map(|c| c.name.clone()).collect(),
        uav::FRAME_PERIOD_US,
    )
    .expect("naive set");
    let naive = schedule_energy_aware(&naive_set).expect("naive schedulable");

    // TeamPlay: the full complex workflow.
    let outcome = wf.run(&tasks, uav::FRAME_PERIOD_US).expect("workflow");

    let battery = Battery::sar_drone();
    let idle_w = 0.8; // sensors, memory, radio keep-alive
    let base_est = uav::mission_estimate(&battery, naive.total_energy_uj, idle_w);
    let tp_est = uav::mission_estimate(&battery, outcome.frame_energy_uj, idle_w);

    let result = E3Result {
        energy_improvement_pct: improvement_pct(naive.total_energy_uj, outcome.frame_energy_uj),
        minutes_gained: tp_est.endurance_min - base_est.endurance_min,
        software_power_w: tp_est.software_power_w,
    };
    let mut out = String::new();
    out.push_str("## E3 — UAV search and rescue (Section IV-C)\n\n");
    out.push_str(
        "| mapping | frame energy (µJ) | software power (W) | total power (W) | flight (min) | coverage (km²) |\n|---|---|---|---|---|---|\n",
    );
    out.push_str(&format!(
        "| pre-TeamPlay (all cores @ fmax) | {:.0} | {:.2} | {:.2} | {:.1} | {:.1} |\n",
        naive.total_energy_uj,
        base_est.software_power_w,
        base_est.total_power_w,
        base_est.endurance_min,
        uav::coverage_km2(base_est.endurance_min),
    ));
    out.push_str(&format!(
        "| TeamPlay | {:.0} | {:.2} | {:.2} | {:.1} | {:.1} |\n\n",
        outcome.frame_energy_uj,
        tp_est.software_power_w,
        tp_est.total_power_w,
        tp_est.endurance_min,
        uav::coverage_km2(tp_est.endurance_min),
    ));
    out.push_str(&format!(
        "measured: {:.1} % software-energy improvement, +{:.1} min flight \
         (paper: 18 %, ≈ +4 min); mechanical power {} W, software {:.1} W \
         (paper envelope 2–11 W)\n\n",
        result.energy_improvement_pct,
        result.minutes_gained,
        uav::MECHANICAL_POWER_W,
        result.software_power_w,
    ));
    (result, out)
}

/// Result of E4.
#[derive(Debug, Clone)]
pub struct E4Result {
    /// `(wcet_us, energy_uj, halfwords)` per compiler variant of the
    /// conv layer.
    pub variants: Vec<(f64, f64, usize)>,
    /// TeamPlay vs hand-optimised energy ratio on the TK1 leg.
    pub coordination_vs_hand_ratio: f64,
}

/// E4 — deep-learning deployment (paper: the compiler offers variants
/// with different energy/WCET characteristics; coordination matches the
/// hand-optimised version).
pub fn e4_parking() -> (E4Result, String) {
    // M0 leg: Pareto variants of the convolution layer.
    let ir = compile_to_ir(parking::CONV_KERNEL_SOURCE).expect("kernel parses");
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    let request = SearchRequest::new("conv_layer", FpaConfig::standard(), 0xD1);
    let cache = EvalCache::new(&ir, &cm, &em);
    let variants = pareto_search(minipool::global(), &cache, &request).variants;
    let clock = camera_pill::CLOCK_MHZ;
    let rows: Vec<(f64, f64, usize)> = variants
        .iter()
        .map(|v| {
            (
                v.metrics.wcet_cycles as f64 / clock,
                v.metrics.wcec_pj / 1e6,
                v.metrics.code_halfwords,
            )
        })
        .collect();

    // TK1 leg: CNN pipeline scheduled by the coordination layer vs the
    // hand-optimised mapping (exhaustive optimum as the expert stand-in).
    let platform = ComplexPlatform::tk1();
    let cnn: Vec<ComplexTask> = vec![
        ComplexTask {
            name: "conv1".into(),
            work: teamplay_sim::WorkItem {
                ref_mcycles: 90.0,
                gpu_speedup: 9.0,
                utilisation: 1.0,
            },
            after: vec![],
        },
        ComplexTask {
            name: "conv2".into(),
            work: teamplay_sim::WorkItem {
                ref_mcycles: 60.0,
                gpu_speedup: 8.0,
                utilisation: 1.0,
            },
            after: vec!["conv1".into()],
        },
        ComplexTask {
            name: "dense".into(),
            work: teamplay_sim::WorkItem {
                ref_mcycles: 14.0,
                gpu_speedup: 2.0,
                utilisation: 0.9,
            },
            after: vec!["conv2".into()],
        },
        ComplexTask {
            name: "report".into(),
            work: teamplay_sim::WorkItem {
                ref_mcycles: 3.0,
                gpu_speedup: 0.4,
                utilisation: 0.5,
            },
            after: vec!["dense".into()],
        },
    ];
    let profile = teamplay_profiler::profile_tasks(
        &platform,
        &cnn.iter()
            .map(|t| (t.name.clone(), t.work))
            .collect::<Vec<_>>(),
        24,
        7,
    );
    let coord_tasks: Vec<CoordTask> = cnn
        .iter()
        .map(|t| {
            let options = teamplay_profiler::exec_options_from_profile(&profile, &t.name, 1.2);
            let mut ct = CoordTask::new(t.name.clone(), options);
            ct.after = t.after.clone();
            ct
        })
        .collect();
    let deadline_us = 150_000.0;
    let set = TaskSet::new(
        coord_tasks,
        platform.cores.iter().map(|c| c.name.clone()).collect(),
        deadline_us,
    )
    .expect("set");
    let teamplay_sched = schedule_energy_aware(&set).expect("heuristic");
    let hand = schedule_branch_and_bound(&set).expect("optimal");
    let ratio = teamplay_sched.total_energy_uj / hand.total_energy_uj;

    let result = E4Result {
        variants: rows.clone(),
        coordination_vs_hand_ratio: ratio,
    };
    let mut out = String::new();
    out.push_str("## E4 — parking CNN (Section IV-D)\n\n");
    out.push_str("Per-layer compiler variants (conv_layer, Cortex-M0 leg):\n\n");
    out.push_str("| variant | WCET (µs) | energy (µJ) | size (halfwords) |\n|---|---|---|---|\n");
    for (i, (t, e, s)) in rows.iter().enumerate() {
        out.push_str(&format!("| v{i} | {t:.1} | {e:.2} | {s} |\n"));
    }
    out.push_str(&format!(
        "\nTK1 leg: TeamPlay coordination energy / hand-optimised energy = {ratio:.3} \
         (paper: \"performs similarly\")\n\n"
    ));
    (result, out)
}

/// Result of E5 for one benchmark.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Benchmark name.
    pub name: String,
    /// Time-channel t-statistic before hardening.
    pub t_before: f64,
    /// Time-channel t-statistic after ladderisation.
    pub t_after: f64,
    /// Indiscernibility before / after.
    pub ind_before: f64,
    /// Indiscernibility after.
    pub ind_after: f64,
    /// WCET overhead of hardening (%).
    pub overhead_pct: f64,
}

/// E5 — security validation on synthetic PG32 benchmarks (the paper
/// validated its security tools on synthetic Cortex-M0 benchmarks).
pub fn e5_security() -> (Vec<E5Row>, String) {
    let benchmarks: Vec<(&str, &str, usize, SecretSpec)> = vec![
        (
            "modexp (square-and-multiply)",
            "/*@ secret(exp) @*/
             int modexp(int base, int exp, int m) {
                 int result = 1;
                 if (m == 0) { m = 1; }
                 base = base % m;
                 /*@ loop bound(16) @*/
                 for (int i = 0; i < 16; i = i + 1) {
                     if ((exp & 1) != 0) { result = (result * base) % m; }
                     exp = exp >> 1;
                     base = (base * base) % m;
                 }
                 return result;
             }",
            3,
            SecretSpec {
                arg_index: 1,
                class0: 0x0001,
                class1: 0x7FFF,
            },
        ),
        (
            "key-parity round select",
            "/*@ secret(key) @*/
             int round_select(int key, int x) {
                 int r = 0;
                 if ((key & 1) != 0) { r = (x * 13 + key) ^ (x >> 2); } else { r = x + 1; }
                 return r;
             }",
            2,
            SecretSpec {
                arg_index: 0,
                class0: 0x2468,
                class1: 0x1357,
            },
        ),
        (
            "threshold gate",
            "/*@ secret(level) @*/
             int gate(int level, int x) {
                 int r = 0;
                 if (level > 128) { r = x * 5 + level * 3 - (x ^ level); } else { r = x; }
                 return r;
             }",
            2,
            SecretSpec {
                arg_index: 0,
                class0: 0,
                class1: 255,
            },
        ),
    ];

    let mut rows = Vec::new();
    let mut out = String::new();
    out.push_str("## E5 — side-channel metrics and ladderisation (synthetic M0 benchmarks)\n\n");
    out.push_str(
        "| benchmark | |t| before | ind. before | |t| after | ind. after | WCET overhead |\n|---|---|---|---|---|---|\n",
    );
    for (name, src, arg_count, spec) in benchmarks {
        let func_name = {
            let ir = compile_to_ir(src).expect("parses");
            ir.functions[0].name.clone()
        };
        // Plain build.
        let ir = compile_to_ir(src).expect("parses");
        let plain = compile_module(&ir, &CompilerConfig::traditional()).expect("compiles");
        let before = assess_leakage(&plain, &func_name, arg_count, spec, 48, 0..4096, 11)
            .expect("assess plain");
        // Hardened build.
        let mut ir2 = compile_to_ir(src).expect("parses");
        for f in &mut ir2.functions {
            let secrets = secret_params_of(f);
            let report = ladderise(f, &secrets);
            assert!(report.fully_hardened(), "{name}: {report:?}");
        }
        let hard = compile_module(&ir2, &CompilerConfig::traditional()).expect("compiles");
        let after = assess_leakage(&hard, &func_name, arg_count, spec, 48, 0..4096, 11)
            .expect("assess hardened");
        // Overhead via WCET.
        let cm = CycleModel::pg32();
        let w_plain = analyze_program(&plain, &cm)
            .expect("wcet")
            .wcet_cycles(&func_name)
            .expect("bounded");
        let w_hard = analyze_program(&hard, &cm)
            .expect("wcet")
            .wcet_cycles(&func_name)
            .expect("bounded");
        let overhead = (w_hard as f64 - w_plain as f64) / w_plain as f64 * 100.0;

        out.push_str(&format!(
            "| {} | {:.1} | {:.2} | {:.1} | {:.2} | {:+.1} % |\n",
            name,
            before.time.welch_t.min(9999.0),
            before.time.indiscernibility,
            after.time.welch_t.min(9999.0),
            after.time.indiscernibility,
            overhead,
        ));
        rows.push(E5Row {
            name: name.to_string(),
            t_before: before.time.welch_t,
            t_after: after.time.welch_t,
            ind_before: before.time.indiscernibility,
            ind_after: after.time.indiscernibility,
            overhead_pct: overhead,
        });
    }
    out.push_str(
        "\nladderised code is statistically indistinguishable on both channels; \
         protection costs bounded extra cycles (the paper's ETS trade-off)\n\n",
    );
    (rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_matches_paper() {
        let (r, table) = e1_camera_pill();
        assert!(table.contains("E1"));
        assert!(
            (8.0..40.0).contains(&r.perf_improvement_pct),
            "performance improvement {:.1}% out of the paper's ballpark",
            r.perf_improvement_pct
        );
        assert!(
            (8.0..40.0).contains(&r.energy_improvement_pct),
            "energy improvement {:.1}% out of the paper's ballpark",
            r.energy_improvement_pct
        );
    }

    #[test]
    fn e2_shape_matches_paper() {
        let (r, _) = e2_spacewire();
        assert!(r.deadlines_met, "all deadlines must be met");
        assert!(
            (30.0..70.0).contains(&r.energy_improvement_pct),
            "energy improvement {:.1}% out of the paper's ballpark (52%)",
            r.energy_improvement_pct
        );
    }

    #[test]
    fn e3_shape_matches_paper() {
        let (r, _) = e3_uav();
        assert!((5.0..45.0).contains(&r.energy_improvement_pct), "{r:?}");
        assert!((1.5..8.0).contains(&r.minutes_gained), "{r:?}");
        assert!((2.0..=11.0).contains(&r.software_power_w), "{r:?}");
    }

    #[test]
    fn e4_offers_variants_and_parity() {
        let (r, _) = e4_parking();
        assert!(r.variants.len() >= 2, "need a variant table");
        assert!(
            r.coordination_vs_hand_ratio <= 1.15,
            "coordination should be within 15% of hand-optimised: {}",
            r.coordination_vs_hand_ratio
        );
    }

    #[test]
    fn e5_hardening_closes_the_channel() {
        let (rows, _) = e5_security();
        for row in rows {
            assert!(
                row.t_before > 4.5,
                "{}: expected leak before, t={}",
                row.name,
                row.t_before
            );
            assert!(
                row.t_after <= 4.5,
                "{}: still leaking after, t={}",
                row.name,
                row.t_after
            );
            assert!(row.ind_after < row.ind_before + 1e-9, "{}", row.name);
        }
    }
}
