//! The space-communication use case (paper Section IV-B): DVFS sweet-spot
//! scheduling of the SpaceWire downlink pipeline on a GR712RC-class
//! platform — the experiment behind the paper's 52 % energy headline.
//!
//! ```sh
//! cargo run --example spacewire_downlink
//! ```

use teamplay_apps::spacewire;
use teamplay_compiler::{
    compile_module, pareto_search, CompilerConfig, EvalCache, FpaConfig, SearchRequest,
};
use teamplay_coord::{
    dvfs_options, gr712_levels, schedule_energy_aware, CoordTask, ExecOption, TaskSet,
};
use teamplay_csl::extract_model;
use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
use teamplay_isa::CycleModel;
use teamplay_minic::{compile_to_ir, parse_and_check};
use teamplay_sim::{GroundTruthEnergy, Machine};
use teamplay_wcet::analyze_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("SpaceWire downlink on GR712RC-class LEON3 — 100 ms frame deadline\n");

    let cm = CycleModel::leon3();
    let em = IsaEnergyModel::leon3_datasheet();
    let ir = compile_to_ir(spacewire::SOURCE)?;
    let model = extract_model(&parse_and_check(spacewire::SOURCE)?)?;
    let levels = gr712_levels();

    // First, demonstrate the packet actually works on the simulator.
    let program = compile_module(&ir, &CompilerConfig::balanced())?;
    let mut machine = Machine::with_models(program, cm.clone(), GroundTruthEnergy::leon3())
        .map_err(std::io::Error::other)?;
    let mut dev = spacewire::frame_device(7);
    for task in spacewire::TASKS {
        let args: &[i32] = if task == "auth" {
            &[spacewire::DEMO_TOKEN]
        } else {
            &[]
        };
        machine
            .call(task, args, &mut dev)
            .map_err(std::io::Error::other)?;
    }
    println!(
        "downlink packet: dest {:#04x}, protocol {:#04x}, {} payload words, crc {:#06x}, auth {:#010x}\n",
        dev.outputs[0].1,
        dev.outputs[1].1,
        dev.outputs[2].1,
        dev.outputs[3 + spacewire::FRAME_WORDS].1,
        dev.outputs.last().expect("auth tag").1
    );

    // Baseline: traditional compiler at the nominal frequency.
    let baseline = compile_module(&ir, &CompilerConfig::traditional())?;
    let wcet = analyze_program(&baseline, &cm)?;
    let wcec = analyze_program_energy(&baseline, &em, &cm)?;
    let nominal = *levels.last().expect("levels");
    let (mut base_t, mut base_e) = (0.0f64, 0.0f64);
    for task in spacewire::TASKS {
        let o = dvfs_options(
            "base",
            "cpu0",
            wcet.wcet_cycles(task).expect("bounded"),
            wcec.wcec_uj(task).expect("bounded"),
            &[nominal],
        );
        base_t += o[0].time_us;
        base_e += o[0].energy_uj;
    }

    // TeamPlay: Pareto variants × DVFS levels under the frame deadline.
    let mut coord_tasks = Vec::new();
    let cache = EvalCache::new(&ir, &cm, &em);
    for spec in &model.tasks {
        let request = SearchRequest::new(&spec.function, FpaConfig::standard(), 1);
        let variants = pareto_search(minipool::global(), &cache, &request).variants;
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
    )?;
    let schedule = schedule_energy_aware(&set)?;
    schedule.validate(&set).map_err(std::io::Error::other)?;

    println!("energy-aware schedule (variant @ frequency per task):");
    for e in &schedule.entries {
        println!(
            "  {:<10} {:<14} {:>9.0} → {:>9.0} µs   {:>8.1} µJ",
            e.task, e.option, e.start_us, e.finish_us, e.energy_uj
        );
    }
    println!("\n| approach | frame time (µs) | frame energy (µJ) |");
    println!("|---|---|---|");
    println!("| traditional @ 100 MHz | {base_t:.0} | {base_e:.1} |");
    println!(
        "| TeamPlay | {:.0} | {:.1} |",
        schedule.makespan_us, schedule.total_energy_uj
    );
    println!(
        "\nenergy improvement: {:.1} % while meeting the {} ms deadline (paper: 52 %)",
        (base_e - schedule.total_energy_uj) / base_e * 100.0,
        spacewire::FRAME_DEADLINE_US / 1e3
    );
    Ok(())
}
