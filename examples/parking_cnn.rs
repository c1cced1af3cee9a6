//! The deep-learning deployment use case (paper Section IV-D): run the
//! free-parking-spot detector on synthetic lots, then show the per-layer
//! compiler variants the multi-criteria compiler offers for the
//! Cortex-M0-class leg.
//!
//! ```sh
//! cargo run --example parking_cnn
//! ```

use teamplay_apps::parking::{
    classification_accuracy, synthetic_lot, ParkingNet, CONV_KERNEL_SOURCE, SPOTS,
};
use teamplay_compiler::{pareto_search, EvalCache, FpaConfig, SearchRequest};
use teamplay_energy::IsaEnergyModel;
use teamplay_isa::CycleModel;
use teamplay_minic::compile_to_ir;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("free-parking-spot CNN — fixed-point inference + compiler variant study\n");

    let net = ParkingNet::new();
    println!("inference on five synthetic lots:");
    for seed in 0..5u64 {
        let (img, truth) = synthetic_lot(seed);
        let pred = net.infer(&img);
        let render = |flags: &[bool]| -> String {
            flags.iter().map(|o| if *o { 'X' } else { '.' }).collect()
        };
        println!(
            "  lot {seed}: truth [{}]  predicted [{}]  free: {}/{}",
            render(&truth),
            render(&pred),
            net.free_spots(&img),
            SPOTS
        );
    }
    let acc = classification_accuracy(&net, 200, 99);
    println!(
        "\nclassification accuracy over 200 lots: {:.1} %",
        acc * 100.0
    );

    // Cortex-M0 leg: per-layer Pareto variants.
    let ir = compile_to_ir(CONV_KERNEL_SOURCE)?;
    let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
    let request = SearchRequest::new("conv_layer", FpaConfig::standard(), 7);
    let variants =
        pareto_search(minipool::global(), &EvalCache::new(&ir, &cm, &em), &request).variants;
    println!("\nconv-layer compiler variants (the designer's menu, Section IV-D):");
    println!(
        "  {:<4} {:>11} {:>12} {:>10}",
        "id", "WCET (µs)", "energy (µJ)", "halfwords"
    );
    for (i, v) in variants.iter().enumerate() {
        println!(
            "  v{:<3} {:>11.1} {:>12.2} {:>10}",
            i,
            v.metrics.wcet_cycles as f64 / 48.0,
            v.metrics.wcec_pj / 1e6,
            v.metrics.code_halfwords
        );
    }
    println!(
        "\n{} distinct trade-off points — the paper's \"great guide for the application designer\"",
        variants.len()
    );
    Ok(())
}
