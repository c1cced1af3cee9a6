//! The deep-learning deployment use case (paper Section IV-D).
//!
//! A free-parking-spot detector: a camera looks down on a row of parking
//! spots and a small convolutional network reports how many are free.
//! The reproduction provides
//!
//! * fixed-point (Q8.8) **inference kernels** — [`conv2d`], [`relu`],
//!   [`maxpool2`], [`dense`] — the computational substrate of any CNN
//!   deployment,
//! * a concrete [`ParkingNet`] built from those kernels with handcrafted
//!   occupancy-detector weights, evaluated on a synthetic image generator
//!   ([`synthetic_lot`]),
//! * the Mini-C convolution kernel ([`CONV_KERNEL_SOURCE`]) used for the
//!   Cortex-M0 leg of the study, where the multi-criteria compiler offers
//!   per-layer variants with distinct WCET/energy characteristics
//!   (bench `e4_parking` regenerates that variant table).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Q8.8 fixed-point one.
pub const FP_ONE: i32 = 256;

/// A simple HxW fixed-point tensor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor {
    /// Rows.
    pub h: usize,
    /// Columns.
    pub w: usize,
    /// Row-major Q8.8 data.
    pub data: Vec<i32>,
}

impl Tensor {
    /// A zero tensor.
    pub fn zeros(h: usize, w: usize) -> Tensor {
        Tensor {
            h,
            w,
            data: vec![0; h * w],
        }
    }

    /// Build from raw data.
    ///
    /// # Panics
    /// Panics if `data.len() != h * w`.
    pub fn from_data(h: usize, w: usize, data: Vec<i32>) -> Tensor {
        assert_eq!(data.len(), h * w, "tensor shape mismatch");
        Tensor { h, w, data }
    }

    /// Element accessor.
    pub fn at(&self, y: usize, x: usize) -> i32 {
        self.data[y * self.w + x]
    }

    /// Mutable element accessor.
    pub fn at_mut(&mut self, y: usize, x: usize) -> &mut i32 {
        &mut self.data[y * self.w + x]
    }
}

/// Valid (no-padding) 3×3 convolution in Q8.8: output is
/// `(h-2) × (w-2)`.
///
/// # Panics
/// Panics if the input is smaller than 3×3 or the kernel is not 9 long.
pub fn conv2d(input: &Tensor, kernel: &[i32]) -> Tensor {
    assert!(input.h >= 3 && input.w >= 3, "input too small for 3x3 conv");
    assert_eq!(kernel.len(), 9, "3x3 kernel required");
    let mut out = Tensor::zeros(input.h - 2, input.w - 2);
    for y in 0..out.h {
        for x in 0..out.w {
            let mut acc: i64 = 0;
            for ky in 0..3 {
                for kx in 0..3 {
                    acc += input.at(y + ky, x + kx) as i64 * kernel[ky * 3 + kx] as i64;
                }
            }
            *out.at_mut(y, x) = (acc >> 8) as i32; // Q8.8 renormalise
        }
    }
    out
}

/// Rectified linear unit, in place.
pub fn relu(t: &mut Tensor) {
    for v in &mut t.data {
        if *v < 0 {
            *v = 0;
        }
    }
}

/// 2×2 max pooling (floor semantics on odd dimensions).
pub fn maxpool2(input: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(input.h / 2, input.w / 2);
    for y in 0..out.h {
        for x in 0..out.w {
            let m = input
                .at(2 * y, 2 * x)
                .max(input.at(2 * y, 2 * x + 1))
                .max(input.at(2 * y + 1, 2 * x))
                .max(input.at(2 * y + 1, 2 * x + 1));
            *out.at_mut(y, x) = m;
        }
    }
    out
}

/// Fully connected layer: `out[i] = Σ_j w[i][j]·x[j] + b[i]` in Q8.8.
///
/// # Panics
/// Panics if shapes disagree.
pub fn dense(input: &[i32], weights: &[Vec<i32>], bias: &[i32]) -> Vec<i32> {
    assert_eq!(weights.len(), bias.len(), "one bias per output");
    weights
        .iter()
        .zip(bias)
        .map(|(row, b)| {
            assert_eq!(row.len(), input.len(), "weight row shape");
            let acc: i64 = row
                .iter()
                .zip(input)
                .map(|(w, x)| *w as i64 * *x as i64)
                .sum::<i64>()
                >> 8;
            acc as i32 + b
        })
        .collect()
}

/// Parking-lot geometry: `SPOTS` spots of `SPOT_DIM`×`SPOT_DIM` pixels in
/// a row.
pub const SPOTS: usize = 6;
/// Pixels per spot side.
pub const SPOT_DIM: usize = 8;
/// Image height.
pub const IMG_H: usize = SPOT_DIM;
/// Image width.
pub const IMG_W: usize = SPOTS * SPOT_DIM;

/// Generate a synthetic top-down lot image and its ground truth
/// (occupied flags). Pixels are Q8.8 luminance: dark asphalt background,
/// bright car bodies, Gaussian-ish noise.
pub fn synthetic_lot(seed: u64) -> (Tensor, [bool; SPOTS]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut occupied = [false; SPOTS];
    for o in &mut occupied {
        *o = rng.gen_bool(0.5);
    }
    let mut img = Tensor::zeros(IMG_H, IMG_W);
    for (spot, occ) in occupied.iter().enumerate() {
        for y in 0..SPOT_DIM {
            for x in 0..SPOT_DIM {
                let noise: i32 = rng.gen_range(-12..=12);
                let base =
                    if *occ && (1..SPOT_DIM - 1).contains(&y) && (1..SPOT_DIM - 1).contains(&x) {
                        180 // car body
                    } else {
                        35 // asphalt
                    };
                *img.at_mut(y, spot * SPOT_DIM + x) = (base + noise) * FP_ONE / 256;
            }
        }
    }
    (img, occupied)
}

/// The free-spot counting network: conv3×3 (blur) → ReLU → maxpool2 →
/// per-spot dense scoring → threshold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParkingNet {
    blur_kernel: [i32; 9],
    threshold: i32,
}

impl ParkingNet {
    /// The handcrafted detector used by the use case.
    pub fn new() -> ParkingNet {
        // Normalised blur kernel in Q8.8 (sums to ~1.0).
        let k = FP_ONE / 9;
        ParkingNet {
            blur_kernel: [k; 9],
            threshold: 90 * FP_ONE / 256,
        }
    }

    /// `true` per spot that is occupied.
    pub fn infer(&self, img: &Tensor) -> [bool; SPOTS] {
        let mut conv = conv2d(img, &self.blur_kernel);
        relu(&mut conv);
        let pooled = maxpool2(&conv);
        // Dense layer: one output per spot, averaging the pooled columns
        // that belong to it (one-hot-ish weights).
        let flat: Vec<i32> = pooled.data.clone();
        let mut weights = Vec::with_capacity(SPOTS);
        for spot in 0..SPOTS {
            let mut row = vec![0i32; flat.len()];
            let mut members = 0i32;
            for y in 0..pooled.h {
                for x in 0..pooled.w {
                    // Map pooled column back to original image column.
                    let orig_x = x * 2 + 1;
                    if orig_x / SPOT_DIM == spot {
                        row[y * pooled.w + x] = FP_ONE;
                        members += 1;
                    }
                }
            }
            if members > 0 {
                for v in &mut row {
                    *v /= members;
                }
            }
            weights.push(row);
        }
        let scores = dense(&flat, &weights, &[0; SPOTS]);
        let mut out = [false; SPOTS];
        for (spot, s) in scores.iter().enumerate() {
            out[spot] = *s > self.threshold;
        }
        out
    }

    /// Count free spots in an image.
    pub fn free_spots(&self, img: &Tensor) -> usize {
        self.infer(img).iter().filter(|o| !**o).count()
    }
}

impl Default for ParkingNet {
    fn default() -> Self {
        ParkingNet::new()
    }
}

/// Accuracy of the detector over `n` synthetic images (fraction of spots
/// classified correctly).
pub fn classification_accuracy(net: &ParkingNet, n: usize, seed: u64) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        let (img, truth) = synthetic_lot(seed.wrapping_add(i as u64));
        let pred = net.infer(&img);
        for (p, t) in pred.iter().zip(&truth) {
            total += 1;
            if p == t {
                correct += 1;
            }
        }
    }
    correct as f64 / total as f64
}

/// The per-layer Mini-C kernel for the Cortex-M0 leg: an 8×8 single-
/// channel 3×3 convolution + ReLU, the unit of the compiler's per-layer
/// variant study.
pub const CONV_KERNEL_SOURCE: &str = r#"
int conv_in[64];
int conv_out[36];

/*@ task conv_layer wcet_budget(4ms) energy_budget(400uJ) @*/
void conv_layer() {
    for (int y = 0; y < 6; y = y + 1) {
        for (int x = 0; x < 6; x = x + 1) {
            int base = y * 8 + x;
            int acc = conv_in[base] * 12 + conv_in[base + 1] * 20 + conv_in[base + 2] * 12;
            acc = acc + conv_in[base + 8] * 20 + conv_in[base + 9] * 40 + conv_in[base + 10] * 20;
            acc = acc + conv_in[base + 16] * 12 + conv_in[base + 17] * 20 + conv_in[base + 18] * 12;
            acc = acc >> 8;
            if (acc < 0) { acc = 0; }
            conv_out[y * 6 + x] = acc;
        }
    }
    return;
}
"#;

/// The baked-in Q8.8 weights of [`CONV_KERNEL_SOURCE`] (a Gaussian-ish
/// blur whose coefficients have 2-bit popcounts, so the compiler's
/// shift-add decomposition applies).
pub const CONV_KERNEL_WEIGHTS: [i32; 9] = [12, 20, 12, 20, 40, 20, 12, 20, 12];

/// The tuned pass pipeline for the M0 leg's conv kernel (registered in
/// the [`crate::catalog`] under `"parking"`).
///
/// Rationale: the kernel is one tight 6×6 nest over a baked-in 3×3
/// stencil — `licm` hoists the row term (`y * 8`) out of the column
/// loop and `strength_reduce` then turns it into a shift; `cse` shares
/// the stencil's address arithmetic; cleanup folds the exposed
/// constants and `block_layout` straightens the ReLU branch diamond.
/// The battery-side shift-add decomposition of the 2-bit-popcount
/// weights stays on the *codegen* knob
/// (`CompilerConfig::mul_shift_add`), where the chain lives in
/// registers — the IR-level `mul_shift_add` pass would spill every
/// partial sum to the stack and lose on both time and energy. No
/// `inline` (no callees) and no `unroll`: the 6-trip nests fit the
/// ceiling, but 36 stencil copies blow the M0 flash budget for a few
/// cycles.
pub fn recommended_pipeline() -> &'static str {
    "licm,cse,strength_reduce,const_fold,copy_prop,dce,block_layout"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_spot_conv_layers_spread_across_two_cores() {
        use teamplay_compiler::{evaluate_module, CompilerConfig};
        use teamplay_coord::{schedule_energy_aware, CoordTask, ExecOption, TaskSet};
        use teamplay_minic::compile_to_ir;
        // Six independent per-spot conv layers, each runnable on either
        // of two M0 cores at identical cost. The energy-greedy start
        // piles everything on one core; only the earliest-finish witness
        // spreads the spots 3+3, so a deadline between the serial and
        // the balanced makespan proves the HEFT witness (not the greedy
        // loop) decides schedulability.
        let ir = compile_to_ir(CONV_KERNEL_SOURCE).expect("parses");
        let tuned = CompilerConfig {
            pipeline: recommended_pipeline().parse().expect("valid"),
            ..CompilerConfig::balanced()
        };
        let (_, metrics) = evaluate_module(
            &ir,
            &tuned,
            &teamplay_isa::CycleModel::pg32(),
            &teamplay_energy::IsaEnergyModel::pg32_datasheet(),
        )
        .expect("analyses");
        let m = metrics.of("conv_layer").expect("kernel analysed");
        let t_us = m.wcet_cycles as f64 / 48.0;
        let e_uj = m.wcec_pj / 1e6;
        let tasks: Vec<CoordTask> = (0..SPOTS)
            .map(|i| {
                CoordTask::new(
                    format!("spot{i}"),
                    ["m0a", "m0b"]
                        .iter()
                        .map(|core| ExecOption {
                            label: (*core).into(),
                            core: (*core).into(),
                            time_us: t_us,
                            energy_uj: e_uj,
                            security_level: 0,
                        })
                        .collect(),
                )
            })
            .collect();
        let deadline = t_us * (SPOTS as f64 / 2.0 + 0.5);
        let set = TaskSet::new(tasks, vec!["m0a".into(), "m0b".into()], deadline).expect("set");
        let s = schedule_energy_aware(&set).expect("balanced mapping fits the deadline");
        s.validate(&set).expect("valid");
        for core in ["m0a", "m0b"] {
            assert!(
                s.entries.iter().any(|e| e.core == core),
                "core {core} unused: {s:?}"
            );
        }
        assert!(
            (s.makespan_us - t_us * 3.0).abs() <= 1e-6,
            "six equal spots over two cores should finish in three rounds: {s:?}"
        );
    }

    #[test]
    fn conv2d_identity_kernel() {
        let img = Tensor::from_data(4, 4, (0..16).map(|v| v * FP_ONE).collect());
        let mut kernel = [0i32; 9];
        kernel[4] = FP_ONE; // identity
        let out = conv2d(&img, &kernel);
        assert_eq!(out.h, 2);
        assert_eq!(out.w, 2);
        assert_eq!(out.at(0, 0), img.at(1, 1));
        assert_eq!(out.at(1, 1), img.at(2, 2));
    }

    #[test]
    fn conv2d_blur_averages() {
        let img = Tensor::from_data(3, 3, vec![9 * FP_ONE; 9]);
        let out = conv2d(&img, &[FP_ONE / 9; 9]);
        // 9 pixels of 9.0 with weight ⌊1/9⌋ each, renormalised by >>8.
        let expected = ((9i64 * (9 * FP_ONE) as i64 * (FP_ONE / 9) as i64) >> 8) as i32;
        assert_eq!(out.at(0, 0), expected);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor::from_data(1, 4, vec![-5, 0, 3, -1]);
        relu(&mut t);
        assert_eq!(t.data, vec![0, 0, 3, 0]);
    }

    #[test]
    fn maxpool_takes_maxima() {
        let t = Tensor::from_data(2, 4, vec![1, 5, 2, 0, 3, 4, 9, 1]);
        let p = maxpool2(&t);
        assert_eq!(p.data, vec![5, 9]);
    }

    #[test]
    fn dense_computes_weighted_sums() {
        let out = dense(
            &[FP_ONE, 2 * FP_ONE],
            &[vec![FP_ONE, 0], vec![FP_ONE / 2, FP_ONE]],
            &[0, 10],
        );
        assert_eq!(out[0], FP_ONE);
        assert_eq!(out[1], FP_ONE / 2 + 2 * FP_ONE + 10);
    }

    #[test]
    fn detector_is_accurate_on_synthetic_lots() {
        let net = ParkingNet::new();
        let acc = classification_accuracy(&net, 100, 2024);
        assert!(acc >= 0.95, "accuracy {acc} too low");
    }

    #[test]
    fn free_spot_count_matches_truth_on_clean_examples() {
        let net = ParkingNet::new();
        let mut agreement = 0usize;
        for seed in 0..50u64 {
            let (img, truth) = synthetic_lot(seed);
            let truth_free = truth.iter().filter(|o| !**o).count();
            if net.free_spots(&img) == truth_free {
                agreement += 1;
            }
        }
        assert!(agreement >= 45, "only {agreement}/50 exact counts");
    }

    #[test]
    fn minic_conv_kernel_matches_rust_kernels() {
        use teamplay_compiler::{compile_module, CompilerConfig};
        use teamplay_minic::compile_to_ir;
        use teamplay_sim::{Machine, NullDevice};

        // Initialise the kernel's input/weight globals with random data
        // before compiling, then compare against the Rust kernels.
        let mut rng = StdRng::seed_from_u64(5);
        let input: Vec<i32> = (0..64).map(|_| rng.gen_range(0..4 * FP_ONE)).collect();
        let kernel: Vec<i32> = CONV_KERNEL_WEIGHTS.to_vec();
        let mut ir = compile_to_ir(CONV_KERNEL_SOURCE).expect("kernel parses");
        for (name, words) in &mut ir.globals {
            if name == "conv_in" {
                *words = input.clone();
            }
        }
        let program = compile_module(&ir, &CompilerConfig::balanced()).expect("compiles");
        let mut machine = Machine::new(program).expect("loads");
        machine
            .call("conv_layer", &[], &mut NullDevice::new())
            .expect("runs");

        let img = Tensor::from_data(8, 8, input);
        let mut expected = conv2d(&img, &kernel);
        relu(&mut expected);
        for (i, e) in expected.data.iter().enumerate() {
            assert_eq!(machine.read_global("conv_out", i), Some(*e), "pixel {i}");
        }
    }

    #[test]
    fn conv_kernel_offers_distinct_compiler_variants() {
        use teamplay_compiler::{pareto_search, EvalCache, FpaConfig, SearchRequest};
        use teamplay_energy::IsaEnergyModel;
        use teamplay_isa::CycleModel;
        use teamplay_minic::compile_to_ir;

        let ir = compile_to_ir(CONV_KERNEL_SOURCE).expect("parses");
        // The phase-ordering genome needs the standard budget here: under
        // the tiny one a single licm+layout variant dominates the whole
        // front (better on all three objectives at once).
        let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
        let request = SearchRequest::new("conv_layer", FpaConfig::standard(), 7);
        let variants =
            pareto_search(minipool::global(), &EvalCache::new(&ir, &cm, &em), &request).variants;
        assert!(variants.len() >= 2, "expected multiple trade-off variants");
        let wcets: Vec<u64> = variants.iter().map(|v| v.metrics.wcet_cycles).collect();
        assert!(wcets.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            wcets.first() != wcets.last(),
            "variants must differ in WCET"
        );
    }
}
