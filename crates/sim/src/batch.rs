//! Batched trace fleets over the pre-decoded engine.
//!
//! Measurement-driven flows (bound validation, energy-model fitting, the
//! predictable workflow's "measure" step) all need the same shape of
//! experiment: run one kernel over many input vectors and collect every
//! [`RunResult`]. [`simulate_batch`] fans a batch across a
//! [`minipool::Pool`] in fixed-size chunks — one [`DecodedEngine`] per
//! chunk, its data image reset before every run — so each result is a
//! pure function of `(function, input)` and the batch output is
//! **bit-identical at any pool width** (the same discipline as the
//! phase-ordering search's batched generation contract).
//!
//! [`seeded_inputs`] generates the deterministic input vectors: a single
//! seeded stream, drawn up front, so the batch is reproducible from
//! `(seed, runs, arg_count, range)` alone.

use crate::decoded::{DecodedEngine, DecodedProgram};
use crate::machine::{MachineError, RunResult};
use crate::ports::NullDevice;
use minipool::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs per engine instance: large enough to amortise the engine's
/// memory-image allocation, small enough to keep a pool busy on modest
/// batches.
const CHUNK: usize = 16;

/// Deterministic input vectors for a batch: `runs` vectors of
/// `arg_count` values drawn uniformly from `lo..hi`, all from one stream
/// seeded with `seed`.
pub fn seeded_inputs(seed: u64, runs: usize, arg_count: usize, lo: i32, hi: i32) -> Vec<Vec<i32>> {
    assert!(lo < hi, "empty input range");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..runs)
        .map(|_| (0..arg_count).map(|_| rng.gen_range(lo..hi)).collect())
        .collect()
}

/// Simulate `func` over every input vector on the pool, with a
/// [`NullDevice`] per run, under a per-run cycle-budget watchdog: any run
/// that exceeds `watchdog_cycles` traps [`MachineError::CycleLimit`]
/// deterministically. Measurement flows pass the static bound they hold
/// (the workflow's measure step and the throughput bench pass each
/// variant's IPET WCET). Results are in input order and bit-identical for
/// any pool width.
pub fn simulate_batch(
    pool: &Pool,
    program: &DecodedProgram,
    func: &str,
    inputs: &[Vec<i32>],
    watchdog_cycles: u64,
) -> Vec<Result<RunResult, MachineError>> {
    // Fixed-size chunks (never pool-width-derived): the chunk boundaries,
    // and therefore each run's engine state, are independent of how many
    // workers execute them.
    let chunks: Vec<&[Vec<i32>]> = inputs.chunks(CHUNK).collect();
    let per_chunk: Vec<Vec<Result<RunResult, MachineError>>> = pool.par_map(&chunks, |_, chunk| {
        let mut engine: DecodedEngine<'_> = program.engine();
        engine.set_max_cycles(watchdog_cycles);
        chunk
            .iter()
            .map(|args| {
                // Globals mutate during a run; reset so every run sees
                // the pristine image regardless of chunk position.
                engine.reset_data();
                engine.call(func, args, &mut NullDevice::new())
            })
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DEFAULT_MAX_CYCLES;
    use std::collections::BTreeMap;
    use teamplay_isa::{
        AluOp, Block, BlockId, Cond, Function, Insn, Operand, Program, Reg, Terminator,
    };

    /// triangle(n): sum 0..n via a loop — input-dependent cycles.
    fn triangle_program() -> Program {
        let mut p = Program::new();
        let f = Function {
            name: "tri".into(),
            blocks: vec![
                Block {
                    insns: vec![
                        Insn::Mov {
                            rd: Reg::R1,
                            src: Operand::Imm(0),
                        },
                        Insn::Mov {
                            rd: Reg::R2,
                            src: Operand::Imm(0),
                        },
                    ],
                    terminator: Terminator::Branch(BlockId(1)),
                },
                Block {
                    insns: vec![Insn::Cmp {
                        rn: Reg::R2,
                        src: Operand::Reg(Reg::R0),
                    }],
                    terminator: Terminator::CondBranch {
                        cond: Cond::Lt,
                        taken: BlockId(2),
                        fallthrough: BlockId(3),
                    },
                },
                Block {
                    insns: vec![
                        Insn::Alu {
                            op: AluOp::Add,
                            rd: Reg::R1,
                            rn: Reg::R1,
                            src: Operand::Reg(Reg::R2),
                        },
                        Insn::Alu {
                            op: AluOp::Add,
                            rd: Reg::R2,
                            rn: Reg::R2,
                            src: Operand::Imm(1),
                        },
                    ],
                    terminator: Terminator::Branch(BlockId(1)),
                },
                Block {
                    insns: vec![Insn::Mov {
                        rd: Reg::R0,
                        src: Operand::Reg(Reg::R1),
                    }],
                    terminator: Terminator::Return,
                },
            ],
            loop_bounds: BTreeMap::new(),
            frame_size: 0,
        };
        p.add_function(f);
        p
    }

    #[test]
    fn seeded_inputs_are_reproducible_and_ranged() {
        let a = seeded_inputs(42, 20, 3, -5, 5);
        let b = seeded_inputs(42, 20, 3, -5, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|v| v.len() == 3));
        assert!(a.iter().flatten().all(|&x| (-5..5).contains(&x)));
        assert_ne!(a, seeded_inputs(43, 20, 3, -5, 5));
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let p = triangle_program();
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let inputs = seeded_inputs(7, 37, 1, 0, 40);
        let batch = simulate_batch(&Pool::new(4), &decoded, "tri", &inputs, DEFAULT_MAX_CYCLES);
        assert_eq!(batch.len(), inputs.len());
        let mut engine = decoded.engine();
        for (args, got) in inputs.iter().zip(&batch) {
            engine.reset_data();
            let want = engine.call("tri", args, &mut NullDevice::new());
            assert_eq!(&want, got, "{args:?}");
            let n = args[0].max(0);
            assert_eq!(got.as_ref().expect("runs").return_value, n * (n - 1) / 2);
        }
    }

    #[test]
    fn pool_width_never_changes_results() {
        let p = triangle_program();
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let inputs = seeded_inputs(11, 50, 1, 0, 60);
        let narrow = simulate_batch(&Pool::new(1), &decoded, "tri", &inputs, DEFAULT_MAX_CYCLES);
        for width in [2, 4, 7] {
            let wide = simulate_batch(
                &Pool::new(width),
                &decoded,
                "tri",
                &inputs,
                DEFAULT_MAX_CYCLES,
            );
            assert_eq!(narrow, wide, "pool width {width}");
            for (a, b) in narrow.iter().zip(&wide) {
                if let (Ok(x), Ok(y)) = (a, b) {
                    assert_eq!(x.energy_pj.to_bits(), y.energy_pj.to_bits());
                }
            }
        }
    }

    #[test]
    fn budgeted_batch_traps_runaway_runs_and_matches_otherwise() {
        let p = triangle_program();
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let inputs = vec![vec![2], vec![50], vec![3]];
        let batch = simulate_batch(minipool::global(), &decoded, "tri", &inputs, 60);
        // tri(2)/tri(3) fit 60 cycles; tri(50) cannot.
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(MachineError::CycleLimit));
        assert!(batch[2].is_ok());
        // Inside the budget the results are the default-budget results.
        let free = simulate_batch(
            minipool::global(),
            &decoded,
            "tri",
            &inputs,
            DEFAULT_MAX_CYCLES,
        );
        assert_eq!(batch[0], free[0]);
        assert_eq!(batch[2], free[2]);
    }

    #[test]
    fn errors_surface_per_input() {
        let p = triangle_program();
        let decoded = DecodedProgram::new(&p).expect("decodes");
        let inputs = vec![vec![3], vec![0; 7], vec![5]];
        let batch = simulate_batch(
            minipool::global(),
            &decoded,
            "tri",
            &inputs,
            DEFAULT_MAX_CYCLES,
        );
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(MachineError::TooManyArgs));
        assert!(batch[2].is_ok());
    }
}
