//! The optimisation passes and the table that names them.
//!
//! # Architecture
//!
//! Every pass is a plain function over one [`IrFunction`], named by one
//! row of the static [`REGISTRY`] table: a name, a one-line summary, a
//! default parameter and the function that runs the pass. The
//! [`PassManager`] applies an ordered [`Pipeline`] of rows to fixpoint
//! with per-pass change instrumentation ([`PassManager::stats`]).
//! One application core applies passes, for both callers: the
//! whole-module reference [`PassManager::run`], and the compile memo
//! behind every [`crate::driver::EvalCache`], which runs each function's
//! full pipeline through the same core for the search's compiles and
//! for the multi-version final build
//! ([`crate::driver::EvalCache::final_build`]). A pipeline therefore
//! means the same thing everywhere, and the final build compiles every
//! function exactly as the search measured it.
//!
//! A pass that needs an analysis from [`crate::dataflow`] (`gvn` and
//! `licm` want the dominator tree and def-use chains) builds it from the
//! body it is handed; nothing is cached between passes, so no pass can
//! see an analysis of a body that another pass has since rewritten.
//!
//! ## The compile-memo contract
//!
//! Every [`crate::driver::EvalCache`] compiles through a memo that
//! replays pass invocations instead of running them: one
//! `(function state, pass spec)` pair, seen before, yields the recorded
//! next state and change flag. Replay is exact only because every pass
//! keeps two promises:
//!
//! * **purity** — a pass is a function of (body, parameter, callee
//!   snapshot) alone: no hidden state carried between invocations. The
//!   snapshot (the module's unoptimised bodies, read only by `inline`)
//!   is fixed for a memo's lifetime, so every pass invocation can
//!   replay;
//! * **honest change flags** — a pass that returns `false` leaves the
//!   body exactly as it found it, operand order included. Debug builds
//!   assert this against the interned input state on every pass the
//!   memo runs, so every oracle that searches checks it.
//!
//! Pipelines are data, not code: they are built
//!
//! * **by name** — `PassManager::from_str("const_fold,copy_prop,dce")`
//!   resolves each element against the static [`REGISTRY`]
//!   (parameterised passes use `name(arg)`, e.g. `"inline(40)"`);
//! * **by optimisation level** — `PassManager::new(Pipeline::o2())`,
//!   with the [`Pipeline::o0`]…[`Pipeline::o3`] presets à la binaryen's
//!   `OptimizationOptions`;
//! * **by the search** — the FPA driver decodes genomes into pipelines
//!   ([`crate::driver::CompilerConfig::from_genome`]), so every point of
//!   the multi-objective search space is a registry-backed pipeline;
//! * **by catalogue name** — a [`PipelineCatalog`] maps strings like
//!   `"o2"` or `"camera_pill"` to pipelines, so the coordination layer
//!   and the benches pick pipelines from names, not structs.
//!
//! Every pass is semantics-preserving (the differential tests run each
//! pipeline against the reference interpreter) and *flow-fact
//! preserving*: loop bounds survive, because the WCET analysis downstream
//! depends on them. The registered passes are the knobs of the
//! multi-objective search:
//!
//! * `inline` — saves call/prologue overhead, grows code
//!   (parameterised by the callee-size threshold);
//! * `licm` — hoists loop-invariant computations into preheaders
//!   (cycles ↓ and energy ↓ by the loop bound, code ≈), with
//!   dominator-tree speculation safety;
//! * `cse` — block-local common-subexpression elimination, including
//!   redundant loads under coarse aliasing;
//! * `gvn` — global value numbering over the dominator tree: an
//!   expression already computed on *every* path is replaced by a copy
//!   of the temp that still holds it (subsumes `cse` across blocks);
//! * `load_fwd` — global store-to-load forwarding: a load whose cell
//!   provably holds a known value on every incoming path becomes a
//!   copy of that value. `gvn` and `load_fwd` share one forward
//!   must-availability solver ([`dataflow::forward_must`]) that iterates
//!   per-block gen/kill summaries; each pass tracks only the facts a
//!   replacement could consult (cells some load reads, expressions
//!   computed twice), kills through indexes, and breaks ties toward the
//!   lowest-numbered fact;
//! * `unroll` — fully unrolls *provably* constant-trip loops up to a
//!   trip ceiling (cycles ↓, code ↑: the classic size/speed trade);
//! * `strength_reduce` — `x * 2ⁿ` → shift (strictly better);
//! * `mul_shift_add` — `x * c` → shift-add decomposition in the IR,
//!   which *trades cycles for energy* on PG32's power-hungry multiplier
//!   (the codegen-level variant is
//!   [`crate::codegen::CodegenOpts::mul_shift_add`]);
//! * `const_fold` + `copy_prop` + `dce` — the cleanup trio, iterated to
//!   fixpoint by the manager;
//! * `block_layout` — CFG straightening ahead of codegen: threads and
//!   merges blocks so their terminators (each a cycle/energy/halfword
//!   cost on PG32) disappear.
//!
//! # The phase-ordering search space
//!
//! Pass *order* matters — `licm` before `cse` exposes different
//! subexpressions than after, cleanup between `inline` and `unroll`
//! changes what is provably constant-trip — so the genome the FPA
//! explores encodes order, not just membership. Decoding uses a
//! random-key (argsort) scheme: one gene per menu pass doubles as the
//! selection bit (`> 0.5`) *and* the ordering key (selected passes run
//! in ascending key order), further genes set the `inline`/`unroll`
//! parameters, an optional duplicated cleanup round, and the codegen
//! knobs. See [`crate::driver::CompilerConfig::from_genome`]. Decoding
//! is pure and deterministic, which is what lets the parallel search
//! stay bit-identical across pool widths and lets the evaluation cache
//! key on the decoded configuration.
//!
//! # Writing a new pass
//!
//! Write the pass as a function of the body (and, if it takes one, its
//! parameter) that reports whether it changed the body (and leaves the
//! body untouched when it did not), then add a row to [`REGISTRY`],
//! whose `run` adapts it to the one row signature
//! `fn(&mut IrFunction, usize, &HashMap<String, IrFunction>) -> bool`
//! (body, parameter, callee snapshot); the pass
//! immediately becomes available to [`PassManager::from_str`], the
//! optimisation levels and (if added to the genome's pass menu,
//! [`crate::driver::CompilerConfig::SEARCH_PASSES`]) the Pareto search —
//! no driver changes needed.
//!
//! ```
//! use teamplay_compiler::passes::PassManager;
//! use teamplay_minic::compile_to_ir;
//!
//! let mut module = compile_to_ir("int f() { return 2 * 8; }")?;
//! let mut pm = PassManager::from_str("const_fold,dce")?;
//! pm.run(&mut module);
//! assert!(pm.stats().iter().any(|s| s.changes > 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::compile_memo::MemoCursor;
use crate::dataflow::{self, may_alias, BitSet, DefUse, DomTree, ValueGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use teamplay_minic::ast::{BinOp, UnOp};
use teamplay_minic::interp::eval_binop;
use teamplay_minic::ir::{
    CallArg, IrBlockId, IrFunction, IrModule, IrOp, IrTerm, MemBase, Operand, Temp,
};
use teamplay_minic::loops::trip_count;

// =====================================================================
// Pass implementations (free functions — the reusable cores)
// =====================================================================

/// Fold constant expressions and propagate constants within blocks.
///
/// Returns `true` if anything changed.
pub fn const_fold(f: &mut IrFunction) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        // Block-local constant environment.
        let mut env: HashMap<Temp, i32> = HashMap::new();
        // Replace a temp with its known constant; report whether it did.
        let resolve = |env: &HashMap<Temp, i32>, o: &mut Operand| -> bool {
            match *o {
                Operand::Temp(t) => env.get(&t).map(|&v| *o = Operand::Const(v)).is_some(),
                Operand::Const(_) => false,
            }
        };
        for op in &mut b.ops {
            // First, rewrite operands using known constants.
            dataflow::for_each_operand_mut(op, |o| changed |= resolve(&env, o));
            // Then fold.
            let folded: Option<(Temp, i32)> = match op {
                IrOp::Bin {
                    op: bop,
                    dst,
                    a: Operand::Const(x),
                    b: Operand::Const(y),
                } => Some((*dst, eval_binop(*bop, *x, *y))),
                IrOp::Un {
                    op: uop,
                    dst,
                    a: Operand::Const(x),
                } => {
                    let v = match uop {
                        UnOp::Neg => x.wrapping_neg(),
                        UnOp::BitNot => !*x,
                        UnOp::LogNot => (*x == 0) as i32,
                    };
                    Some((*dst, v))
                }
                IrOp::Copy {
                    dst,
                    src: Operand::Const(x),
                } => Some((*dst, *x)),
                IrOp::Select {
                    dst,
                    cond: Operand::Const(c),
                    t,
                    f: fv,
                } => {
                    let chosen = if *c != 0 { *t } else { *fv };
                    if let Operand::Const(v) = chosen {
                        Some((*dst, v))
                    } else {
                        *op = IrOp::Copy {
                            dst: *dst,
                            src: chosen,
                        };
                        changed = true;
                        // The copy may still bind a constant next pass.
                        None
                    }
                }
                _ => None,
            };
            // Track definitions: any write invalidates the old binding.
            dataflow::for_each_write(op, |d| {
                env.remove(&d);
            });
            if let Some((dst, v)) = folded {
                if !matches!(
                    op,
                    IrOp::Copy {
                        src: Operand::Const(_),
                        ..
                    }
                ) {
                    *op = IrOp::Copy {
                        dst,
                        src: Operand::Const(v),
                    };
                    changed = true;
                }
                env.insert(dst, v);
            }
        }
        // Terminator folding: constant branches become jumps.
        if let IrTerm::Branch {
            cond,
            taken,
            fallthrough,
        } = &b.term
        {
            let folded = match cond {
                Operand::Const(c) => Some(if *c != 0 { *taken } else { *fallthrough }),
                Operand::Temp(t) => env
                    .get(t)
                    .map(|v| if *v != 0 { *taken } else { *fallthrough }),
            };
            if let Some(target) = folded {
                b.term = IrTerm::Jump(target);
                changed = true;
            }
        }
    }
    changed
}

/// Propagate copies within blocks (`t2 = t1; use t2` → `use t1`).
///
/// Returns `true` if anything changed.
pub fn copy_propagate(f: &mut IrFunction) -> bool {
    let mut changed = false;
    for b in &mut f.blocks {
        // dst -> source operand, valid while neither side is redefined.
        let mut env: HashMap<Temp, Operand> = HashMap::new();
        let resolve = |env: &HashMap<Temp, Operand>, o: Operand| -> Operand {
            match o {
                Operand::Temp(t) => env.get(&t).copied().unwrap_or(o),
                c => c,
            }
        };
        for op in &mut b.ops {
            dataflow::for_each_operand_mut(op, |o| {
                let new = resolve(&env, *o);
                if new != *o {
                    *o = new;
                    changed = true;
                }
            });
            // Kill bindings invalidated by this op's writes.
            dataflow::for_each_write(op, |d| {
                env.remove(&d);
                env.retain(|_, src| *src != Operand::Temp(d));
            });
            // Record new copies.
            if let IrOp::Copy { dst, src } = op {
                if *src != Operand::Temp(*dst) {
                    env.insert(*dst, *src);
                }
            }
        }
        if let IrTerm::Branch { cond, .. } = &mut b.term {
            let new = resolve(&env, *cond);
            if new != *cond {
                *cond = new;
                changed = true;
            }
        }
        if let IrTerm::Ret(Some(v)) = &mut b.term {
            let new = resolve(&env, *v);
            if new != *v {
                *v = new;
                changed = true;
            }
        }
    }
    changed
}

/// Remove pure operations whose results are never read.
///
/// Returns `true` if anything changed.
pub fn dead_code_elim(f: &mut IrFunction) -> bool {
    let mut changed = false;
    loop {
        let mut used = vec![false; f.temp_count as usize];
        let mut mark = |t: Temp| used[t.0 as usize] = true;
        for b in &f.blocks {
            for op in &b.ops {
                dataflow::for_each_read(op, &mut mark);
            }
            dataflow::for_each_term_read(&b.term, &mut mark);
        }
        let mut removed = false;
        for b in &mut f.blocks {
            let before = b.ops.len();
            b.ops.retain(|op| match op {
                IrOp::Bin { dst, .. }
                | IrOp::Un { dst, .. }
                | IrOp::Copy { dst, .. }
                | IrOp::Load { dst, .. }
                | IrOp::Select { dst, .. } => used[dst.0 as usize],
                // Calls, stores, port I/O have effects; `In` consumes an
                // input value even if the result is unused.
                _ => true,
            });
            if b.ops.len() != before {
                removed = true;
            }
        }
        if removed {
            changed = true;
        } else {
            return changed;
        }
    }
}

/// Is `c` a power of two (≥ 2)?
fn pow2_shift(c: i32) -> Option<i32> {
    if c >= 2 && (c & (c - 1)) == 0 {
        Some(c.trailing_zeros() as i32)
    } else {
        None
    }
}

/// Strength-reduce multiplications by constants.
///
/// * Always (when enabled): `x * 2ⁿ` → `x << n`, `x * 1` → copy,
///   `x * 0` → 0 — strictly better in time and energy.
/// * With `shift_add`: `x * c` for small positive `c` with ≤ 3 set bits
///   → a shift/add sequence. On PG32 this costs extra cycles but less
///   energy than the power-hungry multiplier: a pure energy/time
///   trade-off for the Pareto search.
///
/// Returns `true` if anything changed.
pub fn strength_reduce_mul(f: &mut IrFunction, shift_add: bool) -> bool {
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let mut new_ops: Vec<IrOp> = Vec::with_capacity(f.blocks[bi].ops.len());
        let ops = std::mem::take(&mut f.blocks[bi].ops);
        for op in ops {
            // A multiplication by a constant on either side; a multiply
            // that is not rewritten below is kept exactly as it was.
            let (dst, x, c) = match op {
                IrOp::Bin {
                    op: BinOp::Mul,
                    dst,
                    a: x,
                    b: Operand::Const(c),
                }
                | IrOp::Bin {
                    op: BinOp::Mul,
                    dst,
                    a: Operand::Const(c),
                    b: x,
                } => (dst, x, c),
                other => {
                    new_ops.push(other);
                    continue;
                }
            };
            match c {
                0 => {
                    new_ops.push(IrOp::Copy {
                        dst,
                        src: Operand::Const(0),
                    });
                    changed = true;
                }
                1 => {
                    new_ops.push(IrOp::Copy { dst, src: x });
                    changed = true;
                }
                _ => {
                    if let Some(sh) = pow2_shift(c) {
                        new_ops.push(IrOp::Bin {
                            op: BinOp::Shl,
                            dst,
                            a: x,
                            b: Operand::Const(sh),
                        });
                        changed = true;
                    } else if shift_add && (2..=255).contains(&c) && c.count_ones() <= 3 {
                        // x*c = Σ x << kᵢ over the set bits of c (wrapping
                        // arithmetic makes this exact for all x).
                        let mut parts: Vec<Temp> = Vec::new();
                        for bit in 0..8 {
                            if c & (1 << bit) != 0 {
                                let t = f.fresh_temp();
                                new_ops.push(IrOp::Bin {
                                    op: BinOp::Shl,
                                    dst: t,
                                    a: x,
                                    b: Operand::Const(bit),
                                });
                                parts.push(t);
                            }
                        }
                        let mut acc = parts[0];
                        for p in &parts[1..] {
                            let t = f.fresh_temp();
                            new_ops.push(IrOp::Bin {
                                op: BinOp::Add,
                                dst: t,
                                a: Operand::Temp(acc),
                                b: Operand::Temp(*p),
                            });
                            acc = t;
                        }
                        new_ops.push(IrOp::Copy {
                            dst,
                            src: Operand::Temp(acc),
                        });
                        changed = true;
                    } else {
                        new_ops.push(op);
                    }
                }
            }
        }
        f.blocks[bi].ops = new_ops;
    }
    changed
}

/// Expansions one `inline` run may make. With at most
/// [`PassManager::MAX_ROUNDS`] runs per pipeline slot, this bounds code
/// growth per function.
const MAX_INLINES_PER_RUN: usize = 24;

/// Clone every function body by name — the callee snapshot inlining
/// reads from.
pub fn snapshot_functions(module: &IrModule) -> HashMap<String, IrFunction> {
    module
        .functions
        .iter()
        .map(|f| (f.name.clone(), f.clone()))
        .collect()
}

/// Is `start` (even mutually) recursive, judged on a body snapshot?
fn is_recursive(snapshot: &HashMap<String, IrFunction>, start: &str) -> bool {
    let mut stack = vec![start.to_string()];
    let mut seen = vec![start.to_string()];
    while let Some(cur) = stack.pop() {
        let Some(f) = snapshot.get(&cur) else {
            continue;
        };
        for b in &f.blocks {
            for op in &b.ops {
                if let IrOp::Call { func, .. } = op {
                    if func == start {
                        return true;
                    }
                    if !seen.contains(func) {
                        seen.push(func.clone());
                        stack.push(func.clone());
                    }
                }
            }
        }
    }
    false
}

fn op_count(f: &IrFunction) -> usize {
    f.blocks.iter().map(|b| b.ops.len() + 1).sum::<usize>()
}

/// Inline eligible call sites of one caller, reading callee bodies from
/// `snapshot`. A call site is eligible when the callee (a) is not (even
/// mutually) recursive, (b) has at most `threshold` IR operations, and
/// (c) is not the caller itself. One run makes at most
/// [`MAX_INLINES_PER_RUN`] expansions; the next fixpoint round runs
/// again with a fresh budget. Loop bounds of the callee transfer to the
/// caller (block ids remapped), keeping the result analysable.
///
/// Returns `true` if anything changed.
fn inline(f: &mut IrFunction, snapshot: &HashMap<String, IrFunction>, threshold: usize) -> bool {
    let mut changed = false;
    for _ in 0..MAX_INLINES_PER_RUN {
        // Find the first eligible call site.
        let mut site: Option<(usize, usize, String)> = None;
        'outer: for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                if let IrOp::Call { func, .. } = op {
                    if func != &f.name
                        && snapshot.get(func).is_some_and(|c| op_count(c) <= threshold)
                        && !is_recursive(snapshot, func)
                    {
                        site = Some((bi, oi, func.clone()));
                        break 'outer;
                    }
                }
            }
        }
        let Some((bi, oi, callee_name)) = site else {
            break;
        };
        let callee = snapshot[&callee_name].clone();
        inline_site(f, bi, oi, &callee);
        changed = true;
    }
    changed
}

/// Expand one call site in place.
fn inline_site(caller: &mut IrFunction, bi: usize, oi: usize, callee: &IrFunction) {
    let IrOp::Call { dst, args, .. } = caller.blocks[bi].ops[oi].clone() else {
        unreachable!("inline_site requires a call at the given position");
    };

    let temp_offset = caller.temp_count;
    caller.temp_count += callee.temp_count;
    let block_offset = caller.blocks.len() as u32;
    let array_offset = caller.local_arrays.len() as u32;
    caller.local_arrays.extend_from_slice(&callee.local_arrays);

    // Split the call block: ops after the call move to a continuation.
    let mut pre_ops: Vec<IrOp> = caller.blocks[bi].ops.drain(..).collect();
    let post_ops: Vec<IrOp> = pre_ops.split_off(oi + 1);
    pre_ops.pop(); // the call itself
    let original_term = caller.blocks[bi].term.clone();
    caller.blocks[bi].ops = pre_ops;

    // Map the callee's array-parameter temps to actual caller bases and
    // bind scalar parameters by copy.
    let mut param_arrays: HashMap<Temp, MemBase> = HashMap::new();
    for (p, a) in callee.params.iter().zip(&args) {
        match a {
            CallArg::Value(v) => {
                caller.blocks[bi].ops.push(IrOp::Copy {
                    dst: Temp(p.temp.0 + temp_offset),
                    src: *v,
                });
            }
            CallArg::ArrayRef(m) => {
                param_arrays.insert(p.temp, m.clone());
            }
        }
    }

    let remap_operand = |o: Operand| match o {
        Operand::Temp(t) => Operand::Temp(Temp(t.0 + temp_offset)),
        c => c,
    };
    let remap_base = |m: &MemBase| -> MemBase {
        match m {
            MemBase::Global(g) => MemBase::Global(g.clone()),
            MemBase::Local(id) => MemBase::Local(id + array_offset),
            MemBase::Param(t) => match param_arrays.get(t) {
                Some(actual) => actual.clone(),
                None => MemBase::Param(Temp(t.0 + temp_offset)),
            },
        }
    };

    // The continuation block receives the post-call ops + original term.
    let cont_id = IrBlockId(block_offset + callee.blocks.len() as u32);

    // Splice remapped callee blocks.
    for cb in &callee.blocks {
        let mut ops = Vec::with_capacity(cb.ops.len());
        for op in &cb.ops {
            let new_op = match op {
                IrOp::Bin { op, dst, a, b } => IrOp::Bin {
                    op: *op,
                    dst: Temp(dst.0 + temp_offset),
                    a: remap_operand(*a),
                    b: remap_operand(*b),
                },
                IrOp::Un { op, dst, a } => IrOp::Un {
                    op: *op,
                    dst: Temp(dst.0 + temp_offset),
                    a: remap_operand(*a),
                },
                IrOp::Copy { dst, src } => IrOp::Copy {
                    dst: Temp(dst.0 + temp_offset),
                    src: remap_operand(*src),
                },
                IrOp::Load { dst, base, index } => IrOp::Load {
                    dst: Temp(dst.0 + temp_offset),
                    base: remap_base(base),
                    index: remap_operand(*index),
                },
                IrOp::Store { base, index, value } => IrOp::Store {
                    base: remap_base(base),
                    index: remap_operand(*index),
                    value: remap_operand(*value),
                },
                IrOp::Call { dst, func, args } => IrOp::Call {
                    dst: dst.map(|d| Temp(d.0 + temp_offset)),
                    func: func.clone(),
                    args: args
                        .iter()
                        .map(|a| match a {
                            CallArg::Value(v) => CallArg::Value(remap_operand(*v)),
                            CallArg::ArrayRef(m) => CallArg::ArrayRef(remap_base(m)),
                        })
                        .collect(),
                },
                IrOp::Select { dst, cond, t, f } => IrOp::Select {
                    dst: Temp(dst.0 + temp_offset),
                    cond: remap_operand(*cond),
                    t: remap_operand(*t),
                    f: remap_operand(*f),
                },
                IrOp::In { dst, port } => IrOp::In {
                    dst: Temp(dst.0 + temp_offset),
                    port: *port,
                },
                IrOp::Out { port, value } => IrOp::Out {
                    port: *port,
                    value: remap_operand(*value),
                },
            };
            ops.push(new_op);
        }
        let term = match &cb.term {
            IrTerm::Jump(t) => IrTerm::Jump(IrBlockId(t.0 + block_offset)),
            IrTerm::Branch {
                cond,
                taken,
                fallthrough,
            } => IrTerm::Branch {
                cond: remap_operand(*cond),
                taken: IrBlockId(taken.0 + block_offset),
                fallthrough: IrBlockId(fallthrough.0 + block_offset),
            },
            IrTerm::Ret(v) => {
                // Return becomes: bind the destination, jump to the
                // continuation.
                if let (Some(d), Some(v)) = (dst, v) {
                    ops.push(IrOp::Copy {
                        dst: d,
                        src: remap_operand(*v),
                    });
                }
                IrTerm::Jump(cont_id)
            }
        };
        caller
            .blocks
            .push(teamplay_minic::ir::IrBlock { ops, term });
    }

    // Continuation block.
    caller.blocks.push(teamplay_minic::ir::IrBlock {
        ops: post_ops,
        term: original_term,
    });

    // Callee loop bounds transfer (remapped).
    for (hb, bound) in &callee.loop_bounds {
        caller
            .loop_bounds
            .insert(IrBlockId(hb.0 + block_offset), *bound);
    }

    // Enter the inlined body.
    caller.blocks[bi].term = IrTerm::Jump(IrBlockId(block_offset));
}

/// Loop-invariant code motion.
///
/// Hoists pure, *total* operations (`Bin`/`Un`/`Copy`/`Select` — every
/// arithmetic op of this IR is defined for all inputs, so speculation is
/// safe) out of natural loops into a preheader when, over the real
/// dominator tree ([`DomTree`]) and def-use chains ([`DefUse`]):
///
/// * every operand is loop-invariant (no definition inside the loop),
/// * the op is the *only* definition of its destination inside the loop
///   (the IR is not SSA; other defs outside the loop are fine because
///   the conditions below pin which def each read observes),
/// * the op's site dominates every in-loop read of the destination (so
///   each iteration's reads observe the op's value, which the invariant
///   operands keep identical across iterations), and
/// * either the op's block dominates every loop exit block (the op runs
///   on every trip through the loop, zero-trip included — e.g. ops in
///   the header itself), or every read of the destination anywhere in
///   the function sits inside the loop (a zero-trip entry that skips
///   the definition also skips every read, so the speculated value is
///   unobservable).
///
/// This subsumes the old single-static-definition rule: any dominated
/// invariant def hoists, even when the destination is also written
/// elsewhere in the function.
///
/// Loads are never hoisted: an out-of-bounds index would turn a
/// dynamically dead access into a trap. Hoisting chains (`t1 = c + 1;
/// t2 = t1 * 4`) resolve over the internal restart loop: once `t1`
/// leaves the loop, `t2` becomes invariant.
///
/// Returns `true` if anything was hoisted.
pub fn licm(f: &mut IrFunction) -> bool {
    let mut changed = false;
    // Each hoist invalidates the analyses; restart (bounded) after every
    // move. The bound only caps work per invocation — the manager's
    // fixpoint loop will call again while the pass keeps reporting
    // changes.
    for _ in 0..64 {
        let dom = DomTree::build(f);
        let du = DefUse::build(f);
        if !licm_step(f, &dom, &du) {
            break;
        }
        changed = true;
    }
    changed
}

/// One `licm` hoist attempt against prebuilt analyses. Performs at most
/// one hoist (which invalidates `dom`/`du`) and reports whether it did.
fn licm_step(f: &mut IrFunction, dom: &DomTree, du: &DefUse) -> bool {
    let loops = teamplay_minic::cfg::natural_loops(f);
    for l in &loops {
        if l.header == 0 {
            continue; // no edge to put a preheader on
        }
        let in_body = |b: usize| l.body.contains(&b);
        let invariant = |o: &Operand| match o {
            Operand::Const(_) => true,
            Operand::Temp(t) => !du.defs(*t).iter().any(|&(b, _)| in_body(b)),
        };
        // Loop exit blocks: body blocks with a successor outside.
        let exits: Vec<usize> = l
            .body
            .iter()
            .copied()
            .filter(|&b| {
                f.blocks[b]
                    .term
                    .successors()
                    .iter()
                    .any(|s| !in_body(s.index()))
            })
            .collect();
        let candidate = l.body.iter().find_map(|&bi| {
            f.blocks[bi].ops.iter().enumerate().find_map(|(oi, op)| {
                let dst = match op {
                    IrOp::Bin { dst, .. }
                    | IrOp::Un { dst, .. }
                    | IrOp::Copy { dst, .. }
                    | IrOp::Select { dst, .. } => *dst,
                    _ => return None, // effectful, memory or call
                };
                let mut reads = Vec::new();
                dataflow::for_each_read(op, |t| reads.push(t));
                if !reads.iter().all(|t| invariant(&Operand::Temp(*t))) {
                    return None;
                }
                // The only def of `dst` inside the loop.
                if du
                    .defs(dst)
                    .iter()
                    .any(|&site| in_body(site.0) && site != (bi, oi))
                {
                    return None;
                }
                // The op's site dominates every in-loop read of `dst`
                // (terminator reads sit at op index `ops.len()`).
                let site_dominates = |&(rb, ro): &(usize, usize)| {
                    if rb == bi {
                        ro > oi
                    } else {
                        dom.dominates(bi, rb)
                    }
                };
                if !du
                    .uses(dst)
                    .iter()
                    .filter(|&&(rb, _)| in_body(rb))
                    .all(site_dominates)
                {
                    return None;
                }
                // Zero-trip safety, by any of three arguments: the op
                // runs on every pass through the loop; nothing outside
                // the loop observes `dst`; or (the old conservative
                // rule) `dst` has one global def and every read is
                // dominated by it, so a zero-trip entry that skips the
                // def is unreachable for every read.
                let runs_every_trip = exits.iter().all(|&e| dom.dominates(bi, e));
                let observed_only_inside = du.uses(dst).iter().all(|&(rb, _)| in_body(rb));
                let single_def_dominates_all =
                    du.def_count(dst) == 1 && du.uses(dst).iter().all(site_dominates);
                if !(runs_every_trip || observed_only_inside || single_def_dominates_all) {
                    return None;
                }
                Some((bi, oi))
            })
        });
        if let Some((bi, oi)) = candidate {
            let hoisted = f.blocks[bi].ops.remove(oi);
            let pre = ensure_preheader(f, l.header, &l.body);
            f.blocks[pre].ops.push(hoisted);
            return true;
        }
    }
    false
}

/// The block every entry edge of `header`'s loop runs through, creating
/// one if needed. If the single outside predecessor already ends in an
/// unconditional jump to the header, it *is* the preheader (appending
/// ops to its end executes exactly once per loop entry); otherwise a
/// fresh forwarding block is spliced onto every outside edge.
fn ensure_preheader(
    f: &mut IrFunction,
    header: usize,
    body: &std::collections::BTreeSet<usize>,
) -> usize {
    let outside: Vec<usize> = (0..f.blocks.len())
        .filter(|bi| !body.contains(bi))
        .filter(|bi| {
            f.blocks[*bi]
                .term
                .successors()
                .iter()
                .any(|s| s.index() == header)
        })
        .collect();
    if let [single] = outside[..] {
        if matches!(f.blocks[single].term, IrTerm::Jump(_)) {
            return single;
        }
    }
    let pre = f.blocks.len();
    f.blocks.push(teamplay_minic::ir::IrBlock {
        ops: Vec::new(),
        term: IrTerm::Jump(IrBlockId(header as u32)),
    });
    let target = IrBlockId(pre as u32);
    for bi in outside {
        let retarget = |t: &mut IrBlockId| {
            if t.index() == header {
                *t = target;
            }
        };
        match &mut f.blocks[bi].term {
            IrTerm::Jump(t) => retarget(t),
            IrTerm::Branch {
                taken, fallthrough, ..
            } => {
                retarget(taken);
                retarget(fallthrough);
            }
            IrTerm::Ret(_) => {}
        }
    }
    pre
}

/// A value-numbering key for pure, recomputable operations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, Operand, Operand),
    Un(UnOp, Operand),
    Select(Operand, Operand, Operand),
    Load(MemBase, Operand),
}

impl ExprKey {
    /// The key of an op, with commutative operand normalisation.
    fn of(op: &IrOp) -> Option<ExprKey> {
        let rank = |o: &Operand| match o {
            Operand::Const(c) => (0u8, *c as i64),
            Operand::Temp(t) => (1, t.0 as i64),
        };
        Some(match op {
            IrOp::Bin { op, a, b, .. } => {
                let (a, b) = match op {
                    BinOp::Add
                    | BinOp::Mul
                    | BinOp::And
                    | BinOp::Or
                    | BinOp::Xor
                    | BinOp::Eq
                    | BinOp::Ne
                        if rank(b) < rank(a) =>
                    {
                        (*b, *a)
                    }
                    _ => (*a, *b),
                };
                ExprKey::Bin(*op, a, b)
            }
            IrOp::Un { op, a, .. } => ExprKey::Un(*op, *a),
            IrOp::Select { cond, t, f, .. } => ExprKey::Select(*cond, *t, *f),
            IrOp::Load { base, index, .. } => ExprKey::Load(base.clone(), *index),
            _ => return None,
        })
    }

    /// Visit the temps the keyed expression reads (redefinition
    /// invalidates).
    fn for_each_temp(&self, mut visit: impl FnMut(Temp)) {
        let mut operand = |o: &Operand| {
            if let Operand::Temp(t) = o {
                visit(*t);
            }
        };
        match self {
            ExprKey::Bin(_, a, b) => {
                operand(a);
                operand(b);
            }
            ExprKey::Un(_, a) => operand(a),
            ExprKey::Select(c, t, f) => {
                operand(c);
                operand(t);
                operand(f);
            }
            ExprKey::Load(base, index) => {
                operand(index);
                if let MemBase::Param(t) = base {
                    operand(&Operand::Temp(*t));
                }
            }
        }
    }

    /// Does the keyed expression read `t`?
    fn reads(&self, t: Temp) -> bool {
        let mut hit = false;
        self.for_each_temp(|r| hit |= r == t);
        hit
    }
}

/// Local (block-scoped) common-subexpression elimination.
///
/// Within each block, a pure recomputation of an expression whose
/// operands (and previous result) are still live becomes a copy of the
/// first result. Loads participate too, with coarse alias analysis: any
/// store or call invalidates every remembered load (the callee may write
/// any global or by-reference array).
///
/// Returns `true` if anything changed.
pub fn local_cse(f: &mut IrFunction) -> bool {
    let mut changed = false;
    // The block's entries: `available` maps a key to its latest entry,
    // `holder[e]` is the temp holding entry `e`'s value and `alive[e]`
    // whether it still does. Kills go through indexes instead of a
    // scan: `by_temp[t]` lists the entries that read or are held by
    // `t`, `loads` the load entries. A killed entry stays in `available`
    // as a dead id until a new entry for its key replaces it.
    let mut available: HashMap<ExprKey, usize> = HashMap::new();
    let mut holder: Vec<Temp> = Vec::new();
    let mut alive: Vec<bool> = Vec::new();
    let mut by_temp: Vec<Vec<usize>> = vec![Vec::new(); f.temp_count as usize];
    let mut touched: Vec<Temp> = Vec::new();
    let mut loads: Vec<usize> = Vec::new();
    for b in &mut f.blocks {
        available.clear();
        holder.clear();
        alive.clear();
        loads.clear();
        for t in touched.drain(..) {
            by_temp[t.0 as usize].clear();
        }
        for op in &mut b.ops {
            let key = ExprKey::of(op);
            // Reuse an identical, still-valid prior computation.
            let mut replaced = false;
            if let (Some(key), Some(dst)) = (&key, op_dst(op)) {
                if let Some(&e) = available.get(key) {
                    if alive[e] && holder[e] != dst {
                        *op = IrOp::Copy {
                            dst,
                            src: Operand::Temp(holder[e]),
                        };
                        changed = true;
                        replaced = true;
                    }
                }
            }
            // Invalidate what this op clobbers — the rewritten copy
            // still writes `dst`, so the non-SSA IR's other entries
            // reading (or valued by) `dst` go stale either way.
            dataflow::for_each_write(op, |d| {
                for e in by_temp[d.0 as usize].drain(..) {
                    alive[e] = false;
                }
            });
            if matches!(op, IrOp::Store { .. } | IrOp::Call { .. }) {
                for e in loads.drain(..) {
                    alive[e] = false;
                }
            }
            // Record the *original* computation, unless it was replaced
            // (the surviving `key → prev` entry already covers it) or it
            // reads its own destination (the keyed value is stale the
            // moment the op runs).
            if !replaced {
                if let (Some(key), Some(dst)) = (key, op_dst(op)) {
                    if !key.reads(dst) {
                        let e = holder.len();
                        holder.push(dst);
                        alive.push(true);
                        let mut index = |t: Temp| {
                            by_temp[t.0 as usize].push(e);
                            touched.push(t);
                        };
                        key.for_each_temp(&mut index);
                        index(dst);
                        if matches!(key, ExprKey::Load(..)) {
                            loads.push(e);
                        }
                        available.insert(key, e);
                    }
                }
            }
        }
    }
    changed
}

/// The single destination temp of a pure op, if any.
fn op_dst(op: &IrOp) -> Option<Temp> {
    match op {
        IrOp::Bin { dst, .. }
        | IrOp::Un { dst, .. }
        | IrOp::Copy { dst, .. }
        | IrOp::Load { dst, .. }
        | IrOp::Select { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Global value numbering over available expression *holders*.
///
/// The cross-block generalisation of [`local_cse`], sound on the
/// non-SSA IR by tracking per-site facts instead of bare expressions:
/// every computation `d = expr` whose destination has exactly **one**
/// definition in the whole function generates the fact "`d` holds the
/// current value of `expr`". A forward all-paths dataflow (meet =
/// intersection, entry = ∅) kills a fact when any temp its expression
/// reads is redefined — and, for loads, when an aliasing store or any
/// call lands ([`may_alias`]). A fact available at a recomputation of
/// the same expression proves the holder still carries exactly the
/// value the op would compute, on **every** incoming path — including
/// around loop back-edges — so the op becomes a copy of the holder.
///
/// The universe is demand-driven: only expressions computed at two or
/// more non-self-reading sites get facts, since a lone computation has
/// nothing to share. Kills go through indexes (facts by the temps they
/// read, load facts by interned base), each block's ops fold once into
/// a gen/kill summary for the shared [`dataflow::forward_must`] solver,
/// and when several facts are available the first computed (lowest
/// site) wins.
///
/// Sites whose destination is multi-def generate no facts (the holder
/// can go stale without its expression changing); [`local_cse`] still
/// covers those within a block by tracking redefinitions positionally.
///
/// Returns `true` if anything changed.
pub fn gvn(f: &mut IrFunction) -> bool {
    let dom = DomTree::build(f);
    let du = DefUse::build(f);
    match ExprFacts::build(f, &du) {
        Some(facts) => rewrite_available(f, dom.rpo(), &facts),
        None => false,
    }
}

/// A forward must-availability problem over one function, solved and
/// applied by [`rewrite_available`]: a fact universe with per-op gen/kill
/// rules, plus the rule that turns an op into a copy.
trait Availability {
    /// The size of the fact universe.
    fn fact_count(&self) -> usize;
    /// Apply op `oi` of block `b` to `s`: its kills, then its gen.
    fn transfer(&self, b: usize, oi: usize, op: &IrOp, s: &mut impl dataflow::GenKill);
    /// Whether op `oi` of block `b` is one [`Availability::replacement`]
    /// may rewrite.
    fn is_candidate(&self, b: usize, oi: usize, op: &IrOp) -> bool;
    /// What the candidate op `dst = …` becomes a copy of, given the
    /// facts available just before it; `None` leaves it alone.
    fn replacement(&self, b: usize, oi: usize, op: &IrOp, avail: &BitSet) -> Option<Operand>;
}

/// Solve `facts` over `f`, then walk each reachable block from its
/// in-set and turn every candidate with a replacement into `dst = src`.
/// The rewrites land after the walk, so every transfer sees the original
/// op: its own fact still holds after the copy, and chains keep folding.
///
/// Returns `true` if anything changed.
fn rewrite_available(f: &mut IrFunction, rpo: &[usize], facts: &impl Availability) -> bool {
    let preds = teamplay_minic::cfg::predecessors(f);
    let avail_in = dataflow::forward_must(facts.fact_count(), rpo, &preds, |b, t| {
        for (oi, op) in f.blocks[b].ops.iter().enumerate() {
            facts.transfer(b, oi, op, t);
        }
    });
    let mut copies = Vec::new();
    for &b in rpo {
        let ops = &f.blocks[b].ops;
        // Nothing after a block's last candidate can matter.
        let candidate = |(oi, op): (usize, &IrOp)| facts.is_candidate(b, oi, op);
        let Some(last) = ops.iter().enumerate().rposition(candidate) else {
            continue;
        };
        let mut cur = avail_in[b].clone();
        for (oi, op) in ops[..=last].iter().enumerate() {
            if facts.is_candidate(b, oi, op) {
                if let Some(src) = facts.replacement(b, oi, op, &cur) {
                    let dst = op_dst(op).expect("candidates have a destination");
                    copies.push((b, oi, dst, src));
                }
            }
            facts.transfer(b, oi, op, &mut cur);
        }
    }
    for &(b, oi, dst, src) in &copies {
        f.blocks[b].ops[oi] = IrOp::Copy { dst, src };
    }
    !copies.is_empty()
}

/// A per-op side table over one function: row `(b, oi)` describes op
/// `oi` of block `b`, so the summaries and the replacement walk never
/// hash an op.
struct OpTable<T> {
    start: Vec<usize>,
    rows: Vec<T>,
}

impl<T: Copy + Default> OpTable<T> {
    fn new(f: &IrFunction) -> OpTable<T> {
        let mut start = Vec::with_capacity(f.blocks.len());
        let mut total = 0;
        for b in &f.blocks {
            start.push(total);
            total += b.ops.len();
        }
        OpTable {
            start,
            rows: vec![T::default(); total],
        }
    }

    fn at(&self, b: usize, oi: usize) -> T {
        self.rows[self.start[b] + oi]
    }

    fn at_mut(&mut self, b: usize, oi: usize) -> &mut T {
        &mut self.rows[self.start[b] + oi]
    }
}

/// What `gvn` knows about one op.
#[derive(Clone, Copy, Default)]
struct ExprSite {
    /// The fact the op generates.
    fact: Option<usize>,
    /// The op's key group, when the key is computed at two or more sites.
    group: Option<usize>,
}

/// `gvn`'s fact universe and kill indexes.
struct ExprFacts {
    sites: OpTable<ExprSite>,
    /// Each shared key's facts, in site order.
    groups: Vec<Vec<usize>>,
    /// The temp holding each fact's value.
    holder: Vec<Temp>,
    /// `by_temp[t]`: the facts whose expression reads `t`.
    by_temp: Vec<Vec<usize>>,
    /// The load facts a store to each interned base kills ([`may_alias`]).
    store_bases: Vec<(MemBase, BitSet)>,
    /// Load facts on a `Param` base: a store to any other base kills them.
    param_loads: BitSet,
    /// Every load fact: a call kills them all, as does a `Param` store.
    all_loads: BitSet,
}

impl ExprFacts {
    /// The demand-driven universe: the single-def sites of keys computed
    /// at two or more non-self-reading sites, numbered in site order;
    /// `None` when it is empty.
    fn build(f: &IrFunction, du: &DefUse) -> Option<ExprFacts> {
        let mut sites = OpTable::<ExprSite>::new(f);
        // 1. Group every non-self-reading keyed op by its key.
        let mut group_of: HashMap<ExprKey, usize> = HashMap::new();
        let mut sizes: Vec<usize> = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let (Some(key), Some(dst)) = (ExprKey::of(op), op_dst(op)) else {
                    continue;
                };
                if key.reads(dst) {
                    continue;
                }
                let g = *group_of.entry(key).or_insert(sizes.len());
                if g == sizes.len() {
                    sizes.push(0);
                }
                sizes[g] += 1;
                sites.at_mut(bi, oi).group = Some(g);
            }
        }
        // 2. The facts: single-def sites of shared keys.
        let mut groups = vec![Vec::new(); sizes.len()];
        let mut holder = Vec::new();
        let mut by_temp = vec![Vec::new(); f.temp_count as usize];
        let mut loads: Vec<(usize, &MemBase)> = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let site = sites.at_mut(bi, oi);
                let Some(g) = site.group else { continue };
                if sizes[g] < 2 {
                    site.group = None;
                    continue;
                }
                let dst = op_dst(op).expect("keyed ops have a destination");
                if du.single_def(dst) != Some((bi, oi)) {
                    continue;
                }
                let id = holder.len();
                holder.push(dst);
                site.fact = Some(id);
                groups[g].push(id);
                let key = ExprKey::of(op).expect("grouped ops are keyed");
                key.for_each_temp(|t| by_temp[t.0 as usize].push(id));
                if let IrOp::Load { base, .. } = op {
                    loads.push((id, base));
                }
            }
        }
        let n = holder.len();
        if n == 0 {
            return None;
        }
        // 3. Load kills, by the interned bases of the load facts.
        let mut store_bases: Vec<(MemBase, BitSet)> = Vec::new();
        for &(_, base) in &loads {
            if store_bases.iter().all(|(b, _)| b != base) {
                let hit = loads.iter().filter(|(_, fb)| may_alias(base, fb));
                let set = BitSet::from_members(n, hit.map(|&(id, _)| id));
                store_bases.push((base.clone(), set));
            }
        }
        let is_param = |base: &MemBase| matches!(base, MemBase::Param(_));
        let param_loads = loads.iter().filter(|(_, b)| is_param(b)).map(|&(id, _)| id);
        Some(ExprFacts {
            sites,
            groups,
            holder,
            by_temp,
            store_bases,
            param_loads: BitSet::from_members(n, param_loads),
            all_loads: BitSet::from_members(n, loads.iter().map(|&(id, _)| id)),
        })
    }
}

impl Availability for ExprFacts {
    fn fact_count(&self) -> usize {
        self.holder.len()
    }

    /// Writes kill the facts reading the temp, stores kill aliasing load
    /// facts, calls kill every load fact; then the site's own fact.
    fn transfer(&self, b: usize, oi: usize, op: &IrOp, s: &mut impl dataflow::GenKill) {
        dataflow::for_each_write(op, |t| {
            for &id in &self.by_temp[t.0 as usize] {
                s.kill(id);
            }
        });
        match op {
            IrOp::Store { base, .. } => {
                let known = self.store_bases.iter().find(|(b, _)| b == base);
                s.kill_set(match known {
                    Some((_, set)) => set,
                    None if matches!(base, MemBase::Param(_)) => &self.all_loads,
                    None => &self.param_loads,
                });
            }
            IrOp::Call { .. } => s.kill_set(&self.all_loads),
            _ => {}
        }
        if let Some(id) = self.sites.at(b, oi).fact {
            s.gen(id);
        }
    }

    fn is_candidate(&self, b: usize, oi: usize, _op: &IrOp) -> bool {
        self.sites.at(b, oi).group.is_some()
    }

    /// The holder of the first available fact for the op's key, other
    /// than the op's own.
    fn replacement(&self, b: usize, oi: usize, op: &IrOp, avail: &BitSet) -> Option<Operand> {
        let site = self.sites.at(b, oi);
        let id = self.groups[site.group?]
            .iter()
            .copied()
            .find(|&id| avail.contains(id) && Some(id) != site.fact)?;
        let holder = self.holder[id];
        (Some(holder) != op_dst(op)).then_some(Operand::Temp(holder))
    }
}

/// Store-to-load forwarding across block boundaries.
///
/// Tracks memory facts `mem[base][index] == value` generated by stores
/// through a forward all-paths dataflow, and replaces a `Load` whose
/// cell has a proven value on every incoming path with a copy of that
/// value.
///
/// A fact dies when its index/value temp (or `Param` base temp) is
/// redefined, when a call runs (callees may write any global or
/// by-reference array), or when an aliasing store lands on it — unless
/// both stores address the *same* base at provably distinct constant
/// indexes.
///
/// The universe is demand-driven: only facts on a cell `(base, index)`
/// that some `Load` reads are tracked, so the zero-initialising stores
/// of a large local array cost one scan and nothing after. Bases are
/// interned and kills indexed: a constant-index store to a global or
/// local kills its own cell, the variable-index facts on its base and
/// every `Param` fact; a variable-index store kills its whole base and
/// every `Param` fact; a `Param` store kills everything except the
/// distinct-constant cells of its own base. Each block's ops fold once
/// into a gen/kill summary for the shared [`dataflow::forward_must`]
/// solver. Facts are numbered in first-encounter order, and a load with
/// several available facts for its cell takes the lowest-numbered one.
///
/// Returns `true` if anything changed.
pub fn load_fwd(f: &mut IrFunction) -> bool {
    match CellFacts::build(f) {
        Some(facts) => rewrite_available(f, &teamplay_minic::cfg::reverse_postorder(f), &facts),
        None => false,
    }
}

/// What `load_fwd` knows about one op.
#[derive(Clone, Copy, Default)]
struct CellSite {
    /// The interned base of a `Load`/`Store`.
    base: usize,
    /// The demanded cell a `Load`/`Store` addresses.
    cell: Option<usize>,
    /// The fact a `Store` generates.
    fact: Option<usize>,
}

/// `load_fwd`'s fact universe and kill indexes.
struct CellFacts {
    sites: OpTable<CellSite>,
    /// The value each fact says its cell holds.
    value: Vec<Operand>,
    /// `on_cell[c]`: the facts about demanded cell `c`.
    on_cell: Vec<BitSet>,
    /// `by_temp[t]`: the facts reading `t` (as base, index or value).
    by_temp: Vec<Vec<usize>>,
    /// Per interned base: the facts a variable-index store kills, and
    /// those a constant-index store kills besides its own cell's.
    var_store_kill: Vec<BitSet>,
    const_store_kill: Vec<BitSet>,
}

impl CellFacts {
    /// The demand-driven universe: the distinct `(cell, value)` pairs
    /// stored to cells some `Load` reads, in first-encounter order;
    /// `None` when it is empty.
    fn build(f: &IrFunction) -> Option<CellFacts> {
        let mut sites = OpTable::<CellSite>::new(f);
        // 1. Intern every memory op's base (runs of ops mostly share
        //    one); each load demands its cell `(base, index)`.
        let mut bases: Vec<&MemBase> = Vec::new();
        let mut cells: Vec<(usize, Operand)> = Vec::new();
        let mut cells_of_base: Vec<Vec<usize>> = Vec::new();
        let mut last = 0;
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let (IrOp::Load { base, index, .. } | IrOp::Store { base, index, .. }) = op else {
                    continue;
                };
                if bases.get(last) != Some(&base) {
                    last = bases.iter().position(|b| *b == base).unwrap_or_else(|| {
                        bases.push(base);
                        cells_of_base.push(Vec::new());
                        bases.len() - 1
                    });
                }
                sites.at_mut(bi, oi).base = last;
                let is_load = matches!(op, IrOp::Load { .. });
                if is_load && !cells_of_base[last].iter().any(|&c| cells[c].1 == *index) {
                    cells_of_base[last].push(cells.len());
                    cells.push((last, *index));
                }
            }
        }
        // 2. Resolve every memory op's cell; stores to demanded cells
        //    generate the facts.
        let mut value: Vec<Operand> = Vec::new();
        let mut fact_cell: Vec<usize> = Vec::new();
        let mut on_cell: Vec<Vec<usize>> = vec![Vec::new(); cells.len()];
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let (IrOp::Load { index, .. } | IrOp::Store { index, .. }) = op else {
                    continue;
                };
                let site = sites.at_mut(bi, oi);
                site.cell = cells_of_base[site.base]
                    .iter()
                    .copied()
                    .find(|&c| cells[c].1 == *index);
                let (Some(cell), IrOp::Store { value: v, .. }) = (site.cell, op) else {
                    continue;
                };
                let known = on_cell[cell].iter().copied().find(|&id| value[id] == *v);
                site.fact = Some(known.unwrap_or_else(|| {
                    value.push(*v);
                    fact_cell.push(cell);
                    on_cell[cell].push(value.len() - 1);
                    value.len() - 1
                }));
            }
        }
        let n = value.len();
        if n == 0 {
            return None;
        }
        // 3. Kill indexes.
        let mut by_temp = vec![Vec::new(); f.temp_count as usize];
        for (id, &cell) in fact_cell.iter().enumerate() {
            let (base, index) = cells[cell];
            let temp = |o: Operand| match o {
                Operand::Temp(t) => Some(t),
                Operand::Const(_) => None,
            };
            let base_temp = match bases[base] {
                MemBase::Param(t) => Some(*t),
                _ => None,
            };
            for t in [base_temp, temp(index), temp(value[id])]
                .into_iter()
                .flatten()
            {
                by_temp[t.0 as usize].push(id);
            }
        }
        let mut var_store_kill = Vec::with_capacity(bases.len());
        let mut const_store_kill = Vec::with_capacity(bases.len());
        for (k, store_base) in bases.iter().enumerate() {
            let aliased = |id: &usize| may_alias(store_base, bases[cells[fact_cell[*id]].0]);
            // A constant-index store spares the constant cells of its
            // own base; its own cell dies through `on_cell`.
            let spared = |id: &usize| {
                let (base, index) = cells[fact_cell[*id]];
                base == k && matches!(index, Operand::Const(_))
            };
            var_store_kill.push(BitSet::from_members(n, (0..n).filter(aliased)));
            let hit = (0..n).filter(|id| aliased(id) && !spared(id));
            const_store_kill.push(BitSet::from_members(n, hit));
        }
        Some(CellFacts {
            sites,
            value,
            on_cell: on_cell
                .into_iter()
                .map(|ids| BitSet::from_members(n, ids))
                .collect(),
            by_temp,
            var_store_kill,
            const_store_kill,
        })
    }
}

impl Availability for CellFacts {
    fn fact_count(&self) -> usize {
        self.value.len()
    }

    /// Writes kill the facts reading the temp, stores kill by the
    /// aliasing rules, calls kill everything; then a store's own fact.
    fn transfer(&self, b: usize, oi: usize, op: &IrOp, s: &mut impl dataflow::GenKill) {
        dataflow::for_each_write(op, |t| {
            for &id in &self.by_temp[t.0 as usize] {
                s.kill(id);
            }
        });
        let site = self.sites.at(b, oi);
        match op {
            IrOp::Store {
                index: Operand::Const(_),
                ..
            } => {
                s.kill_set(&self.const_store_kill[site.base]);
                if let Some(cell) = site.cell {
                    s.kill_set(&self.on_cell[cell]);
                }
            }
            IrOp::Store { .. } => s.kill_set(&self.var_store_kill[site.base]),
            IrOp::Call { .. } => s.kill_all(),
            _ => {}
        }
        if let Some(id) = site.fact {
            s.gen(id);
        }
    }

    fn is_candidate(&self, _b: usize, _oi: usize, op: &IrOp) -> bool {
        matches!(op, IrOp::Load { .. })
    }

    /// The value of the lowest-numbered available fact on the load's
    /// cell.
    fn replacement(&self, b: usize, oi: usize, op: &IrOp, avail: &BitSet) -> Option<Operand> {
        let IrOp::Load { dst, .. } = op else {
            return None;
        };
        let cell = self.sites.at(b, oi).cell?;
        let value = self.value[avail.first_shared(&self.on_cell[cell])?];
        (value != Operand::Temp(*dst)).then_some(value)
    }
}

/// A recognised canonical counted loop with a provable exact trip
/// count: shared between [`unroll_loops`] (which replays the body
/// `trips` times) and [`value_graph_loop_bounds`] (which surfaces `trips`
/// as a WCET flow fact even when the loop is *not* unrolled).
struct CountedLoop {
    /// Header block index.
    header: usize,
    /// The single body block.
    body: usize,
    /// The header's condition temp (`ct = i <cmp> limit`).
    ct: Temp,
    /// The induction temp.
    i: Temp,
    /// The header comparison.
    cmp: BinOp,
    /// The constant limit.
    limit: i32,
    /// The loop's exit block.
    exit: IrBlockId,
    /// Exact body-execution count, provable from IR constants.
    trips: u32,
}

/// How a counted-loop recogniser resolves an operand to a compile-time
/// constant at a given `(block, op index)` site. The classic resolver
/// accepts literal `Const` operands only; the value-graph resolver also
/// accepts temps whose def chain provably folds to a constant valid at
/// that site (see [`value_graph_loop_bounds`]).
type ConstResolver<'r> = &'r dyn Fn(&Operand, (usize, usize)) -> Option<i32>;

/// Does `op` read temp `t`?
fn reads_temp(op: &IrOp, t: Temp) -> bool {
    let mut hit = false;
    dataflow::for_each_read(op, |r| hit |= r == t);
    hit
}

/// Does `op` write temp `t`?
fn writes_temp(op: &IrOp, t: Temp) -> bool {
    let mut hit = false;
    dataflow::for_each_write(op, |w| hit |= w == t);
    hit
}

/// Recognise the canonical lowered counted-loop shape over natural loop
/// `l` — a two-block loop whose header's only op compares the induction
/// temp against a resolvable limit, whose body jumps straight back,
/// updates the induction temp exactly once by a resolvable step
/// (directly or through the lowered `t = i ± s; i = t` pair) and never
/// reads the condition temp, with a resolvable init in the unique entry
/// predecessor — and compute its exact trip count. Upper-bound
/// annotations are never trusted; only what `resolve` proves is.
fn recognise_counted_loop_with(
    f: &IrFunction,
    l: &teamplay_minic::cfg::NaturalLoop,
    resolve: ConstResolver<'_>,
) -> Option<CountedLoop> {
    if l.body.len() != 2 || l.header == 0 {
        return None;
    }
    let h = l.header;
    let &bb = l.body.iter().find(|b| **b != h).expect("two-block loop");
    // Header: exactly `ct = i <cmp> limit`, branching into the body.
    let [IrOp::Bin {
        op: cmp,
        dst: ct,
        a: Operand::Temp(i),
        b: limit_op,
    }] = &f.blocks[h].ops[..]
    else {
        return None;
    };
    let limit = resolve(limit_op, (h, 0))?;
    let (cmp, ct, i) = (*cmp, *ct, *i);
    let (taken, exit) = match &f.blocks[h].term {
        IrTerm::Branch {
            cond: Operand::Temp(bc),
            taken,
            fallthrough,
        } if *bc == ct => (*taken, *fallthrough),
        _ => return None,
    };
    if ct == i || taken.index() != bb || exit.index() == bb {
        return None;
    }
    if !matches!(f.blocks[bb].term, IrTerm::Jump(t) if t.index() == h) {
        return None;
    }
    // The body must not read the condition temp (it goes stale in the
    // unrolled form) and must update `i` exactly once by a constant
    // step — either directly or through the lowered `t = i + s; i = t`
    // pair.
    let body_ops = &f.blocks[bb].ops;
    if body_ops.iter().any(|op| reads_temp(op, ct)) {
        return None;
    }
    let writes_of = |needle: Temp| -> Vec<usize> {
        body_ops
            .iter()
            .enumerate()
            .filter(|(_, op)| writes_temp(op, needle))
            .map(|(oi, _)| oi)
            .collect()
    };
    let const_step = |op: &IrOp, oi: usize, dst_want: Temp| -> Option<i64> {
        match op {
            IrOp::Bin {
                op: BinOp::Add,
                dst,
                a,
                b,
            } if *dst == dst_want => match (a, b) {
                (Operand::Temp(t), s) | (s, Operand::Temp(t)) if *t == i => {
                    Some(i64::from(resolve(s, (bb, oi))?))
                }
                _ => None,
            },
            IrOp::Bin {
                op: BinOp::Sub,
                dst,
                a: Operand::Temp(t),
                b: s,
            } if *dst == dst_want && *t == i => Some(-i64::from(resolve(s, (bb, oi))?)),
            _ => None,
        }
    };
    let i_writes = writes_of(i);
    let [iw] = i_writes[..] else { return None };
    let step = match const_step(&body_ops[iw], iw, i) {
        Some(s) => s,
        None => {
            // Lowered pair: `t = i ± s; ...; i = copy t`.
            let IrOp::Copy {
                src: Operand::Temp(t),
                ..
            } = &body_ops[iw]
            else {
                return None;
            };
            let t = *t;
            if t == i {
                return None;
            }
            let t_writes = writes_of(t);
            let [tw] = t_writes[..] else { return None };
            if tw >= iw {
                return None;
            }
            const_step(&body_ops[tw], tw, t)?
        }
    };
    if step == 0 {
        return None;
    }
    // Constant init: the unique outside predecessor's last write of `i`
    // must be a constant copy.
    let outside: Vec<usize> = (0..f.blocks.len())
        .filter(|p| !l.body.contains(p))
        .filter(|p| {
            f.blocks[*p]
                .term
                .successors()
                .iter()
                .any(|s| s.index() == h)
        })
        .collect();
    let [pre] = outside[..] else { return None };
    let init = f.blocks[pre]
        .ops
        .iter()
        .enumerate()
        .rev()
        .find_map(|(oi, op)| {
            if !writes_temp(op, i) {
                return None;
            }
            match op {
                IrOp::Copy { src, .. } => Some(resolve(src, (pre, oi)).map(i64::from)),
                _ => Some(None), // last write is not resolvable: give up
            }
        });
    let Some(Some(init)) = init else { return None };
    // `i != limit` loops are left to the front end's inference: neither
    // unrolled nor bounded on an IR-level proof.
    if cmp == BinOp::Ne {
        return None;
    }
    let trips = trip_count(init, i64::from(limit), step, cmp)?;
    Some(CountedLoop {
        header: h,
        body: bb,
        ct,
        i,
        cmp,
        limit,
        exit,
        trips,
    })
}

/// [`recognise_counted_loop_with`] under the classic resolver: only
/// literal `Const` operands count (what `unroll` replays must be
/// syntactically constant).
fn recognise_counted_loop(
    f: &IrFunction,
    l: &teamplay_minic::cfg::NaturalLoop,
) -> Option<CountedLoop> {
    recognise_counted_loop_with(f, l, &|op, _| match op {
        Operand::Const(c) => Some(*c),
        Operand::Temp(_) => None,
    })
}

/// Loop bounds provable from the IR itself: the exact trip counts of the
/// counted loops `unroll` recognises, surfaced as flow facts for the
/// WCET/WCEC analyses even when the loop is *not* unrolled (trip count
/// above the unroll ceiling, or `unroll` absent from the pipeline).
/// Codegen intersects them with the annotation/inference bounds: a
/// proven count can only tighten, never replace, an annotated bound.
///
/// Unlike `unroll`'s recogniser, the limit, step and init of a counted
/// loop may be *temps* whose def chains fold to constants, provided the
/// chain is **well-anchored** — every temp on it has a single
/// definition whose operands' definitions dominate it, and the root def
/// dominates the site consuming the value. Anchoring is what makes a
/// folded constant valid at the consuming site on the non-SSA IR: each
/// chain def re-executes to the same constant on every path, so the
/// value observed at the site equals the folded one.
///
/// This is the value-graph → IPET flow-fact layer: bounds that only
/// become visible after constants flow through copies and arithmetic
/// (e.g. `n = 8; lim = n * 4` feeding a loop compare) tighten the WCET
/// exactly like syntactic bounds do.
pub fn value_graph_loop_bounds(f: &IrFunction) -> Vec<(IrBlockId, u32)> {
    let du = DefUse::build(f);
    let vg = ValueGraph::build(f, &du);
    let dom = DomTree::build(f);
    // Does the def at `d` strictly precede the site `s` on every path?
    let site_dominates = |d: (usize, usize), s: (usize, usize)| -> bool {
        if d.0 == s.0 {
            d.1 < s.1
        } else {
            dom.dominates(d.0, s.0)
        }
    };
    // Well-anchored temps, memoized; in-progress entries read `false`,
    // so cyclic chains (inductions) are refused.
    let anchored = std::cell::RefCell::new(HashMap::<Temp, bool>::new());
    fn well_anchored(
        t: Temp,
        du: &DefUse,
        vg: &ValueGraph,
        site_dominates: &dyn Fn((usize, usize), (usize, usize)) -> bool,
        memo: &std::cell::RefCell<HashMap<Temp, bool>>,
    ) -> bool {
        if let Some(&v) = memo.borrow().get(&t) {
            return v;
        }
        memo.borrow_mut().insert(t, false);
        let ok = du.single_def(t).is_some_and(|site| {
            vg.operand_temps(t).iter().all(|&u| {
                well_anchored(u, du, vg, site_dominates, memo)
                    && du.single_def(u).is_some_and(|us| site_dominates(us, site))
            })
        });
        memo.borrow_mut().insert(t, ok);
        ok
    }
    let resolve = |op: &Operand, site: (usize, usize)| -> Option<i32> {
        match op {
            Operand::Const(c) => Some(*c),
            Operand::Temp(t) => {
                let c = vg.const_of_temp(*t)?;
                let def = du.single_def(*t)?;
                (well_anchored(*t, &du, &vg, &site_dominates, &anchored)
                    && site_dominates(def, site))
                .then_some(c)
            }
        }
    };
    teamplay_minic::cfg::natural_loops(f)
        .iter()
        .filter_map(|l| {
            let c = recognise_counted_loop_with(f, l, &resolve)?;
            Some((IrBlockId(c.header as u32), c.trips))
        })
        .collect()
}

/// Bound-aware full unrolling of constant-trip counted loops.
///
/// Recognises the canonical lowered shape (see
/// `recognise_counted_loop`), computes the *exact* trip count from the
/// IR constants, and replaces the loop with that many straight-line
/// copies of the body followed by one final compare (so the condition
/// temp and the induction temp leave the loop with exactly the values
/// the rolled form produced). The per-iteration compare + branch
/// disappear: WCET and energy drop, code size grows — the classic
/// unrolling trade-off the search can now weigh.
///
/// Upper-bound annotations are never trusted as trip counts; only loops
/// whose count is provable from the IR are touched, and only up to
/// `max_trips` iterations (with a hard op-growth cap).
///
/// Returns `true` if anything was unrolled.
pub fn unroll_loops(f: &mut IrFunction, max_trips: usize) -> bool {
    /// Op-growth cap per unrolled loop, whatever the parameter says.
    const MAX_UNROLLED_OPS: usize = 512;
    let mut changed = false;
    'restart: loop {
        let loops = teamplay_minic::cfg::natural_loops(f);
        for l in &loops {
            let Some(counted) = recognise_counted_loop(f, l) else {
                continue;
            };
            let CountedLoop {
                header: h,
                body: bb,
                ct,
                i,
                cmp,
                limit,
                exit,
                trips,
            } = counted;
            let body_ops = &f.blocks[bb].ops;
            let trips = match usize::try_from(trips) {
                Ok(t) if t <= max_trips => t,
                _ => continue,
            };
            if trips.saturating_mul(body_ops.len().max(1)) > MAX_UNROLLED_OPS {
                continue;
            }
            // Rewrite: the header becomes the straight-line unrolling.
            let body_clone = f.blocks[bb].ops.clone();
            let mut new_ops = Vec::with_capacity(trips * body_clone.len() + 1);
            for _ in 0..trips {
                new_ops.extend(body_clone.iter().cloned());
            }
            new_ops.push(IrOp::Bin {
                op: cmp,
                dst: ct,
                a: Operand::Temp(i),
                b: Operand::Const(limit),
            });
            f.blocks[h].ops = new_ops;
            f.blocks[h].term = IrTerm::Jump(exit);
            f.loop_bounds.remove(&IrBlockId(h as u32));
            changed = true;
            continue 'restart;
        }
        break;
    }
    if changed {
        remove_unreachable_blocks(f);
    }
    changed
}

/// Branch-cost-aware CFG straightening ahead of codegen.
///
/// The PG32 cost model charges every block terminator — an unconditional
/// branch costs cycles, energy and an encoded halfword regardless of
/// layout — so the pass *removes* terminators rather than shuffling
/// them: empty forwarding blocks are threaded past, single-predecessor
/// jump targets are merged into their predecessor, unreachable blocks
/// (e.g. left behind by constant-branch folding) are dropped, and the
/// survivors are renumbered into reverse postorder so hot fallthrough
/// paths stay contiguous for codegen. Blocks carrying loop bounds are
/// never threaded or merged away, keeping every flow fact anchored.
///
/// Returns `true` if anything changed.
pub fn block_layout(f: &mut IrFunction) -> bool {
    let mut changed = false;

    // 1. Thread empty forwarding blocks (chase chains, guard cycles).
    let resolve = |f: &IrFunction, start: IrBlockId| -> IrBlockId {
        let mut cur = start;
        let mut seen = vec![false; f.blocks.len()];
        loop {
            let b = &f.blocks[cur.index()];
            let IrTerm::Jump(next) = &b.term else {
                return cur;
            };
            if cur.index() == 0
                || !b.ops.is_empty()
                || f.loop_bounds.contains_key(&cur)
                || seen[cur.index()]
            {
                return cur;
            }
            seen[cur.index()] = true;
            cur = *next;
        }
    };
    for bi in 0..f.blocks.len() {
        let mut term = f.blocks[bi].term.clone();
        let mut rewired = false;
        {
            let mut thread = |t: &mut IrBlockId| {
                let dst = resolve(f, *t);
                if dst != *t {
                    *t = dst;
                    rewired = true;
                }
            };
            match &mut term {
                IrTerm::Jump(t) => thread(t),
                IrTerm::Branch {
                    taken, fallthrough, ..
                } => {
                    thread(taken);
                    thread(fallthrough);
                }
                IrTerm::Ret(_) => {}
            }
        }
        if rewired {
            f.blocks[bi].term = term;
            changed = true;
        }
    }

    // 2. Merge unconditional jumps to single-predecessor targets.
    loop {
        // Count edges from *reachable* blocks only, so dead jumpers left
        // behind by constant-branch folding don't pin their targets.
        let reachable = teamplay_minic::cfg::reverse_postorder(f);
        let mut preds = vec![0usize; f.blocks.len()];
        for &bi in &reachable {
            for s in f.blocks[bi].term.successors() {
                preds[s.index()] += 1;
            }
        }
        let merge = reachable.iter().find_map(|&a| match f.blocks[a].term {
            IrTerm::Jump(t)
                if t.index() != a
                    && t.index() != 0
                    && preds[t.index()] == 1
                    && !f.loop_bounds.contains_key(&t) =>
            {
                Some((a, t.index()))
            }
            _ => None,
        });
        let Some((a, b)) = merge else { break };
        let absorbed = std::mem::take(&mut f.blocks[b].ops);
        f.blocks[a].ops.extend(absorbed);
        f.blocks[a].term = f.blocks[b].term.clone();
        // `b` is now unreachable; step 3 reclaims it.
        changed = true;
    }

    // 3. Drop unreachable blocks.
    changed |= remove_unreachable_blocks(f);

    // 4. Renumber into reverse postorder (entry-first by construction).
    let rpo = teamplay_minic::cfg::reverse_postorder(f);
    debug_assert_eq!(
        rpo.len(),
        f.blocks.len(),
        "unreachable blocks already dropped"
    );
    if !rpo.iter().enumerate().all(|(new, old)| new == *old) {
        let keep = vec![true; f.blocks.len()];
        let mut remap = vec![u32::MAX; f.blocks.len()];
        for (new, old) in rpo.iter().enumerate() {
            remap[*old] = new as u32;
        }
        renumber_blocks(f, &keep, &remap);
        changed = true;
    }
    changed
}

// =====================================================================
// CFG utilities shared by the loop passes
// =====================================================================

/// Drop blocks unreachable from the entry, compacting ids and remapping
/// terminators and loop bounds. Returns `true` if anything was removed.
pub fn remove_unreachable_blocks(f: &mut IrFunction) -> bool {
    let reachable = teamplay_minic::cfg::reverse_postorder(f);
    if reachable.len() == f.blocks.len() {
        return false;
    }
    let mut keep = vec![false; f.blocks.len()];
    for b in &reachable {
        keep[*b] = true;
    }
    // Compact in index order so the entry stays block 0.
    let mut remap = vec![u32::MAX; f.blocks.len()];
    let mut next = 0u32;
    for (i, kept) in keep.iter().enumerate() {
        if *kept {
            remap[i] = next;
            next += 1;
        }
    }
    renumber_blocks(f, &keep, &remap);
    true
}

/// Apply a block renumbering: retain blocks with `keep[i]`, reindex via
/// `remap[old] = new`, and rewrite terminators and loop bounds. Every
/// retained terminator target must itself be retained.
fn renumber_blocks(f: &mut IrFunction, keep: &[bool], remap: &[u32]) {
    let old_blocks = std::mem::take(&mut f.blocks);
    let mut new_blocks: Vec<(u32, teamplay_minic::ir::IrBlock)> = old_blocks
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep[*i])
        .map(|(i, b)| (remap[i], b))
        .collect();
    new_blocks.sort_by_key(|(new_id, _)| *new_id);
    let retarget = |t: IrBlockId| IrBlockId(remap[t.index()]);
    f.blocks = new_blocks
        .into_iter()
        .map(|(_, mut b)| {
            b.term = match b.term {
                IrTerm::Jump(t) => IrTerm::Jump(retarget(t)),
                IrTerm::Branch {
                    cond,
                    taken,
                    fallthrough,
                } => IrTerm::Branch {
                    cond,
                    taken: retarget(taken),
                    fallthrough: retarget(fallthrough),
                },
                ret => ret,
            };
            b
        })
        .collect();
    let old_bounds = std::mem::take(&mut f.loop_bounds);
    f.loop_bounds = old_bounds
        .into_iter()
        .filter(|(h, _)| keep[h.index()])
        .map(|(h, n)| (IrBlockId(remap[h.index()]), n))
        .collect();
}

// =====================================================================
// Registry
// =====================================================================

/// One row of the pass table: a name, a summary, a default parameter
/// and the function that runs the pass.
pub struct PassDescriptor {
    /// Stable pipeline name.
    pub name: &'static str,
    /// One-line description (for tooling / docs).
    pub summary: &'static str,
    /// Default parameter, for parameterised passes.
    pub default_param: Option<usize>,
    /// Runs the pass once on a body under a parameter (the spec's, or
    /// the default; `0` for passes that take none), reading callees from
    /// the module's unoptimised bodies. Pure: one input yields one
    /// output body and change flag, so the compile memo may replay it.
    run: fn(&mut IrFunction, usize, &HashMap<String, IrFunction>) -> bool,
}

/// Every registered pass. A new pass is a new row.
pub static REGISTRY: &[PassDescriptor] = &[
    PassDescriptor {
        name: "inline",
        summary: "inline callees up to a size threshold (param, IR ops)",
        default_param: Some(40),
        run: |f, threshold, snapshot| inline(f, snapshot, threshold),
    },
    PassDescriptor {
        name: "const_fold",
        summary: "fold constants and resolve constant branches",
        default_param: None,
        run: |f, _, _| const_fold(f),
    },
    PassDescriptor {
        name: "copy_prop",
        summary: "propagate copies within blocks",
        default_param: None,
        run: |f, _, _| copy_propagate(f),
    },
    PassDescriptor {
        name: "dce",
        summary: "remove pure operations whose results are never read",
        default_param: None,
        run: |f, _, _| dead_code_elim(f),
    },
    PassDescriptor {
        name: "strength_reduce",
        summary: "rewrite power-of-two multiplies into shifts",
        default_param: None,
        run: |f, _, _| strength_reduce_mul(f, false),
    },
    PassDescriptor {
        name: "mul_shift_add",
        summary: "decompose small multipliers into shift-add chains (energy ↓, cycles ↑)",
        default_param: None,
        run: |f, _, _| strength_reduce_mul(f, true),
    },
    PassDescriptor {
        name: "licm",
        summary: "hoist loop-invariant computations into loop preheaders",
        default_param: None,
        run: |f, _, _| licm(f),
    },
    PassDescriptor {
        name: "cse",
        summary: "eliminate block-local common subexpressions",
        default_param: None,
        run: |f, _, _| local_cse(f),
    },
    PassDescriptor {
        name: "gvn",
        summary: "eliminate redundant expressions across blocks (dominator-scoped value numbering)",
        default_param: None,
        run: |f, _, _| gvn(f),
    },
    PassDescriptor {
        name: "load_fwd",
        summary: "forward stored values to later loads of the same cell across blocks",
        default_param: None,
        run: |f, _, _| load_fwd(f),
    },
    PassDescriptor {
        name: "unroll",
        summary: "fully unroll constant-trip loops up to a trip ceiling (param)",
        default_param: Some(8),
        run: |f, max_trips, _| unroll_loops(f, max_trips),
    },
    PassDescriptor {
        name: "block_layout",
        summary: "straighten the CFG: thread, merge and drop blocks, reorder for codegen",
        default_param: None,
        run: |f, _, _| block_layout(f),
    },
];

/// Look up a pass descriptor by registry name.
pub fn lookup_pass(name: &str) -> Option<&'static PassDescriptor> {
    REGISTRY.iter().find(|d| d.name == name)
}

/// One pipeline slot resolved against the registry: the row and the
/// parameter it runs with.
#[derive(Clone, Copy)]
struct Slot {
    pass: &'static PassDescriptor,
    param: usize,
}

impl Slot {
    fn resolve(spec: &PassSpec) -> Result<Slot, PipelineError> {
        let pass =
            lookup_pass(&spec.name).ok_or_else(|| PipelineError::UnknownPass(spec.name.clone()))?;
        let param = spec.param.or(pass.default_param).unwrap_or(0);
        Ok(Slot { pass, param })
    }

    /// Run the pass once on `f`.
    fn run(&self, f: &mut IrFunction, snapshot: &HashMap<String, IrFunction>) -> bool {
        (self.pass.run)(f, self.param, snapshot)
    }
}

// =====================================================================
// Pipelines
// =====================================================================

/// One pipeline element: a registry name plus an optional parameter
/// (rendered `name` or `name(param)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PassSpec {
    /// Registry name of the pass.
    pub name: String,
    /// Parameter (e.g. the inline threshold); `None` uses the default.
    pub param: Option<usize>,
}

impl PassSpec {
    /// A spec without a parameter.
    pub fn new(name: &str) -> PassSpec {
        PassSpec {
            name: name.to_string(),
            param: None,
        }
    }

    /// A spec with a parameter.
    pub fn with_param(name: &str, param: usize) -> PassSpec {
        PassSpec {
            name: name.to_string(),
            param: Some(param),
        }
    }
}

impl fmt::Display for PassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.param {
            Some(p) => write!(f, "{}({p})", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// An ordered, registry-backed pass pipeline — the optimisation genome's
/// phenotype, and the unit of configuration everywhere (presets, search
/// points, per-task variants).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pipeline {
    /// Passes in application order.
    pub passes: Vec<PassSpec>,
}

/// Pipeline construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A name that no registry entry carries.
    UnknownPass(String),
    /// A malformed element (bad parentheses / parameter).
    Malformed(String),
    /// A parameter given to a pass that takes none.
    UnexpectedParam(String),
    /// A [`PipelineCatalog::resolve`] spec that is neither a registered
    /// catalogue name nor a valid pipeline.
    UnknownName {
        /// The unresolved spec.
        spec: String,
        /// The nearest catalogue or pass name (edit distance ≤ 2), if
        /// one is close enough to be a plausible typo.
        nearest: Option<String>,
    },
}

/// Levenshtein distance, for near-miss pass-name suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The registry name closest to `name`, if it is close enough
/// (edit distance ≤ 2) to be a plausible typo.
fn nearest_pass_name(name: &str) -> Option<&'static str> {
    REGISTRY
        .iter()
        .map(|d| (edit_distance(name, d.name), d.name))
        .filter(|(dist, _)| *dist <= 2)
        .min_by_key(|(dist, _)| *dist)
        .map(|(_, best)| best)
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::UnknownPass(name) => match nearest_pass_name(name) {
                Some(best) => write!(f, "unknown pass `{name}`; did you mean `{best}`?"),
                None => {
                    let known: Vec<&str> = REGISTRY.iter().map(|d| d.name).collect();
                    write!(f, "unknown pass `{name}` (known: {})", known.join(", "))
                }
            },
            PipelineError::Malformed(el) => write!(f, "malformed pipeline element `{el}`"),
            PipelineError::UnexpectedParam(name) => {
                write!(f, "pass `{name}` takes no parameter")
            }
            PipelineError::UnknownName { spec, nearest } => match nearest {
                Some(best) => {
                    write!(
                        f,
                        "unknown pipeline or pass `{spec}`; did you mean `{best}`?"
                    )
                }
                None => write!(
                    f,
                    "unknown pipeline or pass `{spec}` (catalogue names and \
                     `pass,pass(param),…` lists are accepted)"
                ),
            },
        }
    }
}

impl std::error::Error for PipelineError {}

impl Pipeline {
    /// The empty pipeline (O0: no IR optimisation).
    pub fn o0() -> Pipeline {
        Pipeline::default()
    }

    /// Cleanup trio (the "traditional toolchain" baseline).
    pub fn o1() -> Pipeline {
        "const_fold,copy_prop,dce"
            .parse()
            .expect("preset pipeline is valid")
    }

    /// Balanced: moderate inlining plus strength reduction and cleanup.
    pub fn o2() -> Pipeline {
        "inline(40),strength_reduce,const_fold,copy_prop,dce"
            .parse()
            .expect("preset pipeline is valid")
    }

    /// Aggressive: large inline threshold, all speed levers — invariant
    /// hoisting and CSE after inlining, the cleanup trio, and CFG
    /// straightening last so codegen sees the final shape.
    pub fn o3() -> Pipeline {
        "inline(80),licm,cse,strength_reduce,const_fold,copy_prop,dce,block_layout"
            .parse()
            .expect("preset pipeline is valid")
    }

    /// Does the pipeline contain a pass with this registry name?
    pub fn contains(&self, name: &str) -> bool {
        self.passes.iter().any(|p| p.name == name)
    }

    /// The parameter of the first pass with this name, if any.
    pub fn param_of(&self, name: &str) -> Option<usize> {
        self.passes
            .iter()
            .find(|p| p.name == name)
            .and_then(|p| p.param)
    }

    /// Append a pass spec.
    pub fn push(&mut self, spec: PassSpec) {
        self.passes.push(spec);
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.passes.iter().map(PassSpec::to_string).collect();
        write!(f, "{}", rendered.join(","))
    }
}

impl FromStr for Pipeline {
    type Err = PipelineError;

    /// Parse `"const_fold,dce"` / `"inline(40),dce"` style pipelines.
    /// Whitespace around elements is ignored; the empty string is the
    /// empty pipeline.
    fn from_str(s: &str) -> Result<Pipeline, PipelineError> {
        let mut passes = Vec::new();
        for raw in s.split(',') {
            let el = raw.trim();
            if el.is_empty() {
                if s.trim().is_empty() {
                    continue;
                }
                return Err(PipelineError::Malformed(raw.to_string()));
            }
            let (name, param) = match el.split_once('(') {
                None => (el, None),
                Some((name, rest)) => {
                    let arg = rest
                        .strip_suffix(')')
                        .ok_or_else(|| PipelineError::Malformed(el.to_string()))?;
                    let value: usize = arg
                        .trim()
                        .parse()
                        .map_err(|_| PipelineError::Malformed(el.to_string()))?;
                    (name.trim(), Some(value))
                }
            };
            let descriptor =
                lookup_pass(name).ok_or_else(|| PipelineError::UnknownPass(name.to_string()))?;
            if param.is_some() && descriptor.default_param.is_none() {
                return Err(PipelineError::UnexpectedParam(name.to_string()));
            }
            passes.push(PassSpec {
                name: name.to_string(),
                param,
            });
        }
        Ok(Pipeline { passes })
    }
}

// =====================================================================
// PipelineCatalog
// =====================================================================

/// A name → [`Pipeline`] catalogue, so layers above the compiler
/// (coordination, workflows, benches) select pipelines by *string* —
/// `"o2"`, `"camera_pill"`, or a literal pipeline like
/// `"licm,const_fold,dce"` — instead of passing preset structs around.
///
/// [`PipelineCatalog::builtin`] carries the generic optimisation levels;
/// applications register their tuned pipelines on top (see
/// `teamplay_apps::catalog`). [`PipelineCatalog::resolve`] falls back to
/// parsing the string as a pipeline, so every call-site accepts both
/// catalogue names and inline pass lists.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineCatalog {
    /// Registered `(name, pipeline)` entries, in registration order.
    entries: Vec<(String, Pipeline)>,
}

impl PipelineCatalog {
    /// An empty catalogue.
    pub fn new() -> PipelineCatalog {
        PipelineCatalog::default()
    }

    /// The generic optimisation levels (`o0`–`o3`).
    pub fn builtin() -> PipelineCatalog {
        let mut cat = PipelineCatalog::new();
        for (name, p) in [
            ("o0", Pipeline::o0()),
            ("o1", Pipeline::o1()),
            ("o2", Pipeline::o2()),
            ("o3", Pipeline::o3()),
        ] {
            cat.entries.push((name.to_string(), p));
        }
        cat
    }

    /// Register (or replace) a named pipeline, parsed from a string.
    ///
    /// # Errors
    /// [`PipelineError`] if the pipeline string does not parse.
    pub fn register(&mut self, name: &str, pipeline: &str) -> Result<(), PipelineError> {
        let parsed: Pipeline = pipeline.parse()?;
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = parsed,
            None => self.entries.push((name.to_string(), parsed)),
        }
        Ok(())
    }

    /// Look up a registered pipeline by name.
    pub fn get(&self, name: &str) -> Option<&Pipeline> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }

    /// Resolve `spec` as a catalogue name, falling back to parsing it as
    /// a literal pipeline string.
    ///
    /// # Errors
    /// [`PipelineError`] if `spec` is neither a registered name nor a
    /// valid pipeline string; a single unresolvable element reports
    /// [`PipelineError::UnknownName`] with the nearest catalogue (or
    /// registry) name, so a mistyped entry like `"camera_pil"` points
    /// back at `"camera_pill"` instead of at the pass registry.
    pub fn resolve(&self, spec: &str) -> Result<Pipeline, PipelineError> {
        if let Some(p) = self.get(spec) {
            return Ok(p.clone());
        }
        match spec.parse() {
            Ok(p) => Ok(p),
            // The whole spec is one unknown element: it may just as well
            // be a mistyped catalogue name — suggest across both
            // namespaces, nearest catalogue entry first.
            Err(PipelineError::UnknownPass(name)) if name == spec.trim() => {
                let nearest = self
                    .names()
                    .map(|n| (edit_distance(&name, n), n))
                    .filter(|(dist, _)| *dist <= 2)
                    .min_by_key(|(dist, _)| *dist)
                    .map(|(_, n)| n.to_string())
                    .or_else(|| nearest_pass_name(&name).map(str::to_string));
                Err(PipelineError::UnknownName {
                    spec: spec.to_string(),
                    nearest,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }
}

// =====================================================================
// PassManager
// =====================================================================

/// Per-pass instrumentation collected by the manager.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PassStats {
    /// Registry name.
    pub name: String,
    /// How often the pass ran (per function, per fixpoint round).
    pub invocations: usize,
    /// How many invocations reported a change.
    pub changes: usize,
}

/// Fresh zeroed per-pass stats aligned with a pipeline's order.
fn pipeline_stats(pipeline: &Pipeline) -> Vec<PassStats> {
    pipeline
        .passes
        .iter()
        .map(|spec| PassStats {
            name: spec.name.clone(),
            invocations: 0,
            changes: 0,
        })
        .collect()
}

/// Applies a [`Pipeline`] to modules/functions, iterating to fixpoint
/// (bounded) and recording per-pass [`PassStats`].
pub struct PassManager {
    pipeline: Pipeline,
    slots: Vec<Slot>,
    stats: Vec<PassStats>,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("pipeline", &self.pipeline.to_string())
            .finish()
    }
}

impl PassManager {
    /// Fixpoint bound: the most rounds of the full pipeline one
    /// function runs. Every compile uses it, which the compile memo's
    /// replays rely on.
    pub const MAX_ROUNDS: usize = 4;

    /// Build a manager for a pipeline.
    ///
    /// # Errors
    /// [`PipelineError`] if a pass does not resolve in the registry.
    pub fn new(pipeline: Pipeline) -> Result<PassManager, PipelineError> {
        let slots = pipeline
            .passes
            .iter()
            .map(Slot::resolve)
            .collect::<Result<_, _>>()?;
        let stats = pipeline_stats(&pipeline);
        Ok(PassManager {
            pipeline,
            slots,
            stats,
        })
    }

    /// Build a manager by parsing a pipeline string
    /// (`"const_fold,copy_prop,dce"`, `"inline(40),dce"` …).
    ///
    /// # Errors
    /// [`PipelineError`] on unknown names or malformed elements.
    #[allow(clippy::should_implement_trait)] // mirrors binaryen-style API; FromStr exists on Pipeline
    pub fn from_str(s: &str) -> Result<PassManager, PipelineError> {
        PassManager::new(s.parse()?)
    }

    /// The managed pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Per-pass instrumentation, aligned with the pipeline order.
    pub fn stats(&self) -> &[PassStats] {
        &self.stats
    }

    /// Run the pipeline over every function of a module. Callee bodies
    /// for inlining are snapshotted once, up front. Returns `true` if
    /// anything changed.
    pub fn run(&mut self, module: &mut IrModule) -> bool {
        let snapshot = snapshot_functions(module);
        let mut changed = false;
        for f in &mut module.functions {
            // Unshared, so the core edits it in place and nothing is
            // copied on the way in or out.
            let mut body = Arc::new(std::mem::take(f));
            changed |= self.run_pipeline(&mut body, &snapshot, None);
            *f = Arc::unwrap_or_clone(body);
        }
        changed
    }

    /// The one code path that applies passes — [`PassManager::run`] and
    /// the compile memo's compiles (the search's and the final build's)
    /// both call it: iterates the pipeline over one function to
    /// (bounded) fixpoint.
    ///
    /// With a `memo` cursor, a pass whose transition from the current
    /// state is recorded is replayed instead of run: a replayed
    /// change swaps in the recorded output state (shared, not copied).
    /// The body is copied out of the memo only when a pass must actually
    /// run ([`Arc::make_mut`]). Replays count in [`PassStats`] exactly as
    /// runs do.
    pub(crate) fn run_pipeline(
        &mut self,
        f: &mut Arc<IrFunction>,
        functions: &HashMap<String, IrFunction>,
        mut memo: Option<&mut MemoCursor<'_>>,
    ) -> bool {
        let mut changed = false;
        for _ in 0..Self::MAX_ROUNDS {
            let mut round_changed = false;
            let slots = self.slots.iter().zip(self.stats.iter_mut());
            for (i, (slot, stat)) in slots.enumerate() {
                let replayed = memo.as_deref_mut().and_then(|cursor| cursor.replay(i, f));
                let pass_changed = replayed.unwrap_or_else(|| {
                    let pass_changed = slot.run(Arc::make_mut(f), functions);
                    if let Some(cursor) = memo.as_deref_mut() {
                        cursor.record(i, f, pass_changed);
                    }
                    pass_changed
                });
                stat.invocations += 1;
                if pass_changed {
                    stat.changes += 1;
                    round_changed = true;
                }
            }
            changed |= round_changed;
            if !round_changed {
                break;
            }
        }
        changed
    }
}

/// The random Mini-C kernel generator of the integration tests.
#[cfg(test)]
#[path = "../../../tests/common/kernels.rs"]
mod test_kernels;

/// The `gvn` and `load_fwd` bodies as they stood before the shared
/// availability solver, kept verbatim as test-only oracles: the rebuilt
/// passes must reproduce their output byte for byte.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::driver::CompilerConfig;
    use proptest::Strategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use teamplay_minic::compile_to_ir;

    impl ExprKey {
        /// Temps the keyed expression reads, collected.
        fn read_temps(&self) -> Vec<Temp> {
            let mut out = Vec::new();
            self.for_each_temp(|t| out.push(t));
            out
        }
    }

    pub(super) fn gvn(f: &mut IrFunction) -> bool {
        let (dom, du) = (&DomTree::build(f), &DefUse::build(f));
        // 1. The fact universe: every keyed pure op with a single-def
        //    destination, in deterministic site order. Self-reading ops
        //    (`t = t + 1`) are not keyed — their value goes stale the
        //    moment they run.
        struct Fact {
            site: (usize, usize),
            key: ExprKey,
            holder: Temp,
        }
        let mut facts: Vec<Fact> = Vec::new();
        let mut fact_at: HashMap<(usize, usize), usize> = HashMap::new();
        let mut facts_of_key: HashMap<ExprKey, Vec<usize>> = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let (Some(key), Some(dst)) = (ExprKey::of(op), op_dst(op)) else {
                    continue;
                };
                if key.read_temps().contains(&dst) || du.single_def(dst) != Some((bi, oi)) {
                    continue;
                }
                let id = facts.len();
                fact_at.insert((bi, oi), id);
                facts_of_key.entry(key.clone()).or_default().push(id);
                facts.push(Fact {
                    site: (bi, oi),
                    key,
                    holder: dst,
                });
            }
        }
        let n = facts.len();
        if n == 0 {
            return false;
        }
        // Inverted indexes for the kill sets. (A fact's holder needs no
        // kill entry: it is single-def, and its one def *is* the gen site.)
        let mut killed_by_temp: HashMap<Temp, Vec<usize>> = HashMap::new();
        let mut load_facts: Vec<(usize, MemBase)> = Vec::new();
        for (id, fact) in facts.iter().enumerate() {
            for t in fact.key.read_temps() {
                killed_by_temp.entry(t).or_default().push(id);
            }
            if let ExprKey::Load(base, _) = &fact.key {
                load_facts.push((id, base.clone()));
            }
        }
        // The transfer of one op at one site: kills first (writes clobber
        // facts whose expression reads the temp; stores/calls clobber load
        // facts), then the site's own fact becomes available.
        let apply = |site: (usize, usize), op: &IrOp, avail: &mut BitSet| {
            dataflow::for_each_write(op, |t| {
                for &id in killed_by_temp.get(&t).map_or(&[][..], |v| v) {
                    avail.remove(id);
                }
            });
            match op {
                IrOp::Store { base, .. } => {
                    for (id, kb) in &load_facts {
                        if may_alias(base, kb) {
                            avail.remove(*id);
                        }
                    }
                }
                IrOp::Call { .. } => {
                    for (id, _) in &load_facts {
                        avail.remove(*id);
                    }
                }
                _ => {}
            }
            if let Some(&id) = fact_at.get(&site) {
                avail.insert(id);
            }
        };
        // 2. Forward fixpoint over the reachable blocks in reverse
        //    postorder: in = ∩ preds' out, entry = ∅, unreached inits full.
        let nb = f.blocks.len();
        let preds = teamplay_minic::cfg::predecessors(f);
        let mut avail_in: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        let mut avail_out: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        avail_in[0] = BitSet::new(n);
        loop {
            let mut changed = false;
            for &b in dom.rpo() {
                if b != 0 {
                    let mut inn = BitSet::full(n);
                    for &p in &preds[b] {
                        inn.intersect_with(&avail_out[p]);
                    }
                    changed |= avail_in[b] != inn;
                    avail_in[b] = inn;
                }
                let mut out = avail_in[b].clone();
                for (oi, op) in f.blocks[b].ops.iter().enumerate() {
                    apply((b, oi), op, &mut out);
                }
                changed |= avail_out[b] != out;
                avail_out[b] = out;
            }
            if !changed {
                break;
            }
        }
        // 3. Replacement walk: a keyed op with an available fact for the
        //    same expression (held by a *different* temp) becomes a copy of
        //    the holder. The transfer uses the *original* op — its own fact
        //    (if any) still holds after the copy, so chains keep folding.
        let mut changed = false;
        for &b in dom.rpo() {
            let mut cur = avail_in[b].clone();
            for oi in 0..f.blocks[b].ops.len() {
                let op = f.blocks[b].ops[oi].clone();
                let replacement = (|| {
                    let (key, dst) = (ExprKey::of(&op)?, op_dst(&op)?);
                    if key.read_temps().contains(&dst) {
                        return None;
                    }
                    let holder = facts_of_key
                        .get(&key)?
                        .iter()
                        .copied()
                        .filter(|&id| cur.contains(id) && facts[id].site != (b, oi))
                        .map(|id| facts[id].holder)
                        .next()?;
                    (holder != dst).then_some(IrOp::Copy {
                        dst,
                        src: Operand::Temp(holder),
                    })
                })();
                if let Some(copy) = replacement {
                    f.blocks[b].ops[oi] = copy;
                    changed = true;
                }
                apply((b, oi), &op, &mut cur);
            }
        }
        changed
    }

    pub(super) fn load_fwd(f: &mut IrFunction) -> bool {
        // 1. The fact universe, in deterministic first-encounter order.
        type Fact = (MemBase, Operand, Operand);
        let fact_of = |op: &IrOp| -> Option<Fact> {
            match op {
                IrOp::Store { base, index, value } => Some((base.clone(), *index, *value)),
                IrOp::Load { dst, base, index } => {
                    Some((base.clone(), *index, Operand::Temp(*dst)))
                }
                _ => None,
            }
        };
        // Temps a fact reads: redefinition invalidates it.
        let fact_temps = |(base, index, value): &Fact| -> Vec<Temp> {
            let mut out = Vec::new();
            if let MemBase::Param(t) = base {
                out.push(*t);
            }
            for o in [index, value] {
                if let Operand::Temp(t) = o {
                    out.push(*t);
                }
            }
            out
        };
        // A load's own fact is unusable when it reads the destination.
        let valid = |op: &IrOp, fact: &Fact| -> bool {
            match op {
                IrOp::Load { dst, .. } => !fact_temps(fact).contains(dst),
                _ => true,
            }
        };
        let mut fact_id: HashMap<Fact, usize> = HashMap::new();
        let mut facts: Vec<Fact> = Vec::new();
        for b in &f.blocks {
            for op in &b.ops {
                let Some(fact) = fact_of(op) else { continue };
                if !valid(op, &fact) {
                    continue;
                }
                fact_id.entry(fact.clone()).or_insert_with(|| {
                    facts.push(fact);
                    facts.len() - 1
                });
            }
        }
        let n = facts.len();
        if n == 0 {
            return false;
        }
        let mut killed_by_temp: HashMap<Temp, Vec<usize>> = HashMap::new();
        for (id, fact) in facts.iter().enumerate() {
            for t in fact_temps(fact) {
                killed_by_temp.entry(t).or_default().push(id);
            }
        }
        // Does a store to `(sb, si)` kill the fact about `(fb, fi)`? Not
        // when both name the same base at distinct constant indexes.
        let store_kills = |sb: &MemBase, si: &Operand, (fb, fi, _): &Fact| -> bool {
            if !may_alias(sb, fb) {
                return false;
            }
            !(sb == fb && matches!((si, fi), (Operand::Const(a), Operand::Const(b)) if a != b))
        };
        let apply = |op: &IrOp, avail: &mut BitSet| {
            dataflow::for_each_write(op, |t| {
                for &id in killed_by_temp.get(&t).map_or(&[][..], |v| v) {
                    avail.remove(id);
                }
            });
            match op {
                IrOp::Store { base, index, .. } => {
                    for (id, fact) in facts.iter().enumerate() {
                        if store_kills(base, index, fact) {
                            avail.remove(id);
                        }
                    }
                }
                IrOp::Call { .. } => {
                    *avail = BitSet::new(n);
                }
                _ => {}
            }
            if let Some(fact) = fact_of(op) {
                if valid(op, &fact) {
                    avail.insert(fact_id[&fact]);
                }
            }
        };
        // 2. Forward all-paths fixpoint (entry = ∅, meet = intersection).
        let nb = f.blocks.len();
        let rpo = teamplay_minic::cfg::reverse_postorder(f);
        let preds = teamplay_minic::cfg::predecessors(f);
        let mut avail_in: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        let mut avail_out: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        avail_in[0] = BitSet::new(n);
        loop {
            let mut changed = false;
            for &b in &rpo {
                if b != 0 {
                    let mut inn = BitSet::full(n);
                    for &p in &preds[b] {
                        inn.intersect_with(&avail_out[p]);
                    }
                    changed |= avail_in[b] != inn;
                    avail_in[b] = inn;
                }
                let mut out = avail_in[b].clone();
                for op in &f.blocks[b].ops {
                    apply(op, &mut out);
                }
                changed |= avail_out[b] != out;
                avail_out[b] = out;
            }
            if !changed {
                break;
            }
        }
        // 3. Replacement walk: a load whose cell has an available fact
        //    becomes a copy of the proven value. The transfer keeps the
        //    original load semantics (its own fact still holds — the copy
        //    leaves `dst` equal to the cell).
        let mut changed = false;
        for &b in &rpo {
            let mut cur = avail_in[b].clone();
            for oi in 0..f.blocks[b].ops.len() {
                let op = f.blocks[b].ops[oi].clone();
                if let IrOp::Load { dst, base, index } = &op {
                    let known = cur.iter().find_map(|id| {
                        let (fb, fi, value) = &facts[id];
                        (fb == base && fi == index).then_some(*value)
                    });
                    if let Some(value) = known {
                        if value != Operand::Temp(*dst) {
                            f.blocks[b].ops[oi] = IrOp::Copy {
                                dst: *dst,
                                src: value,
                            };
                            changed = true;
                        }
                    }
                }
                apply(&op, &mut cur);
            }
        }
        changed
    }

    // --- the rebuilt passes against the frozen bodies ----------------

    const APP_KERNELS: [(&str, &str); 4] = [
        ("camera_pill", teamplay_apps::camera_pill::SOURCE),
        ("spacewire", teamplay_apps::spacewire::SOURCE),
        ("uav", teamplay_apps::uav::DETECT_KERNEL_SOURCE),
        ("parking", teamplay_apps::parking::CONV_KERNEL_SOURCE),
    ];

    /// Run `rebuilt` and `frozen` on copies of `f`: the `changed` flags
    /// and the serialized results must match. Returns the flag.
    fn agree(
        label: &str,
        f: &IrFunction,
        rebuilt: impl FnOnce(&mut IrFunction) -> bool,
        frozen: impl FnOnce(&mut IrFunction) -> bool,
    ) -> bool {
        let (mut new, mut old) = (f.clone(), f.clone());
        let changed = rebuilt(&mut new);
        assert_eq!(changed, frozen(&mut old), "{label}: changed flag");
        assert_eq!(
            serde_json::to_string(&new).expect("IR serializes"),
            serde_json::to_string(&old).expect("IR serializes"),
            "{label}: rewritten function"
        );
        changed
    }

    /// Check both passes on every function of `m`; `changes` counts the
    /// functions each pass changed (`[gvn, load_fwd]`).
    fn check_module(label: &str, m: &IrModule, changes: &mut [usize; 2]) {
        for f in &m.functions {
            let name = &f.name;
            let gvn_changed = agree(&format!("{label}/{name}: gvn"), f, super::gvn, gvn);
            let load_fwd_changed = agree(
                &format!("{label}/{name}: load_fwd"),
                f,
                super::load_fwd,
                load_fwd,
            );
            changes[0] += usize::from(gvn_changed);
            changes[1] += usize::from(load_fwd_changed);
        }
    }

    fn optimised(module: &IrModule, pipeline: &str) -> IrModule {
        let mut m = module.clone();
        let mut pm = PassManager::from_str(pipeline).expect("pipeline parses");
        pm.run(&mut m);
        m
    }

    #[test]
    fn rebuilt_passes_match_reference_on_app_kernels_and_prefix_pipelines() {
        let mut changes = [0; 2];
        for (app, src) in APP_KERNELS {
            let raw = compile_to_ir(src).expect("kernel compiles");
            check_module(app, &raw, &mut changes);
            for k in [1, 2, 4, 8] {
                let inline = format!("inline({})", 8 * k);
                let unroll = format!("unroll({k})");
                let steps = [&inline, &unroll, "const_fold", "copy_prop", "gvn", "dce"];
                for len in 1..=steps.len() {
                    let pipeline = steps[..len].join(",");
                    check_module(
                        &format!("{app}+{pipeline}"),
                        &optimised(&raw, &pipeline),
                        &mut changes,
                    );
                }
            }
        }
        assert!(changes[0] > 0, "gvn never fired on the app kernels");
    }

    #[test]
    fn rebuilt_passes_match_reference_after_random_genome_pipelines() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut changes = [0; 2];
        for (app, src) in APP_KERNELS {
            let raw = compile_to_ir(src).expect("kernel compiles");
            for _ in 0..100 {
                let genome: Vec<f64> = (0..CompilerConfig::GENOME_DIMS)
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect();
                let pipeline = CompilerConfig::from_genome(&genome).pipeline.to_string();
                check_module(
                    &format!("{app}+{pipeline}"),
                    &optimised(&raw, &pipeline),
                    &mut changes,
                );
            }
        }
        assert!(changes[0] > 0, "gvn never fired after genome pipelines");
    }

    #[test]
    fn rebuilt_passes_match_reference_on_generated_kernels() {
        let mut changes = [0; 2];
        for case in 0..48 {
            let src = test_kernels::arb_kernel().sample(&mut proptest::case_rng(case));
            let raw = compile_to_ir(&src).expect("generated kernels lower");
            for pipeline in [
                "",
                "inline(40)",
                "inline(40),unroll(4),const_fold,copy_prop",
            ] {
                let m = if pipeline.is_empty() {
                    raw.clone()
                } else {
                    optimised(&raw, pipeline)
                };
                check_module(&format!("case {case}+{pipeline}"), &m, &mut changes);
            }
        }
        assert!(
            changes[1] > 0,
            "load_fwd never forwarded on generated kernels"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CompilerConfig;
    use teamplay_minic::compile_to_ir;
    use teamplay_minic::interp::RecordingPorts;
    use teamplay_minic::ir::exec_module;

    fn ir_of(src: &str) -> IrModule {
        compile_to_ir(src).expect("front-end")
    }

    fn run_ir(module: &IrModule, func: &str, args: &[i32]) -> Option<i32> {
        let mut ports = RecordingPorts::new();
        exec_module(module, func, args, &mut ports, 10_000_000).expect("run")
    }

    fn op_total(module: &IrModule) -> usize {
        module
            .functions
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.ops.len()).sum::<usize>())
            .sum()
    }

    #[test]
    fn const_fold_collapses_arithmetic() {
        let mut m = ir_of("int f() { return (2 + 3) * 4 - 6 / 2; }");
        let f = m.function_mut("f").expect("f");
        assert!(const_fold(f));
        assert_eq!(run_ir(&m, "f", &[]), Some(17));
    }

    #[test]
    fn const_fold_resolves_constant_branches() {
        let mut m = ir_of("int f() { if (1 < 2) { return 10; } return 20; }");
        let f = m.function_mut("f").expect("f");
        const_fold(f);
        // At least one branch terminator should have become a jump.
        let jumps = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, IrTerm::Jump(_)))
            .count();
        assert!(jumps > 0);
        assert_eq!(run_ir(&m, "f", &[]), Some(10));
    }

    #[test]
    fn dce_removes_unused_computation() {
        let mut m = ir_of("int f(int x) { int unused = x * 37; return x + 1; }");
        let before = op_total(&m);
        let f = m.function_mut("f").expect("f");
        assert!(dead_code_elim(f));
        assert!(op_total(&m) < before);
        assert_eq!(run_ir(&m, "f", &[4]), Some(5));
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut m = ir_of(
            "int g;
             void set(int v) { g = v; return; }
             int f(int x) { set(x); __out(1, x); return g; }",
        );
        let f = m.function_mut("f").expect("f");
        dead_code_elim(f);
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(o, IrOp::Call { .. } | IrOp::Out { .. }))
            .count();
        assert_eq!(calls, 2, "calls and port writes must survive DCE");
    }

    #[test]
    fn copy_prop_then_dce_shrinks_chains() {
        let mut m = ir_of("int f(int x) { int a = x; int b = a; int c = b; return c; }");
        let f = m.function_mut("f").expect("f");
        copy_propagate(f);
        dead_code_elim(f);
        let remaining: usize = f.blocks.iter().map(|b| b.ops.len()).sum();
        assert!(
            remaining <= 1,
            "copy chain should collapse, {remaining} ops left"
        );
        assert_eq!(run_ir(&m, "f", &[9]), Some(9));
    }

    #[test]
    fn strength_reduction_pow2_becomes_shift() {
        let mut m = ir_of("int f(int x) { return x * 8; }");
        let f = m.function_mut("f").expect("f");
        assert!(strength_reduce_mul(f, false));
        let has_mul = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .any(|o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. }));
        assert!(!has_mul);
        for x in [-5, 0, 7, i32::MAX / 4] {
            assert_eq!(run_ir(&m, "f", &[x]), Some(x.wrapping_mul(8)));
        }
    }

    #[test]
    fn strength_reduction_shift_add_is_exact() {
        let mut m = ir_of("int f(int x) { return x * 10; }");
        let f = m.function_mut("f").expect("f");
        assert!(strength_reduce_mul(f, true));
        let has_mul = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .any(|o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. }));
        assert!(!has_mul);
        for x in [-5, 0, 7, 123_456_789, i32::MIN] {
            assert_eq!(run_ir(&m, "f", &[x]), Some(x.wrapping_mul(10)));
        }
    }

    #[test]
    fn strength_reduction_leaves_dense_constants() {
        // 0xEF has 7 set bits — not worth a shift-add chain.
        let mut m = ir_of("int f(int x) { return x * 239; }");
        let f = m.function_mut("f").expect("f");
        strength_reduce_mul(f, true);
        let has_mul = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .any(|o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. }));
        assert!(has_mul, "dense multiplier should stay a mul");
    }

    #[test]
    fn strength_reduction_leaves_unrewritten_multiplies_untouched() {
        // A dense multiplier on the left stays a multiply, operands in
        // place: the pass reports no change, so it must make none.
        let mut m = ir_of("int f(int x) { return 239 * x; }");
        let f = m.function_mut("f").expect("f");
        let before = f.clone();
        assert!(!strength_reduce_mul(f, true));
        assert_eq!(*f, before);
    }

    #[test]
    fn const_fold_reports_operand_substitutions() {
        // `x + k` does not fold, but `k` becomes the constant 3: a change.
        let mut m = ir_of("int f(int x) { int k = 3; return x + k; }");
        let f = m.function_mut("f").expect("f");
        let before = f.clone();
        assert!(const_fold(f));
        assert_ne!(*f, before);
        let folded = f.clone();
        assert!(!const_fold(f));
        assert_eq!(*f, folded);
        assert_eq!(run_ir(&m, "f", &[4]), Some(7));
    }

    /// The contract compile-memo replay rests on: a pass that reports no
    /// change leaves the body equal to its input. Every registered pass
    /// is checked from every state a registry-order walk (two rounds)
    /// reaches, on the app kernels and on generated kernels.
    #[test]
    fn passes_that_report_no_change_leave_the_body_untouched() {
        let apps = [
            teamplay_apps::camera_pill::SOURCE,
            teamplay_apps::spacewire::SOURCE,
            teamplay_apps::uav::DETECT_KERNEL_SOURCE,
            teamplay_apps::parking::CONV_KERNEL_SOURCE,
        ];
        let generated = (0..32).map(|case| {
            proptest::Strategy::sample(&test_kernels::arb_kernel(), &mut proptest::case_rng(case))
        });
        for src in apps.iter().map(|s| s.to_string()).chain(generated) {
            let mut m = ir_of(&src);
            let snapshot = snapshot_functions(&m);
            for f in &mut m.functions {
                // One fresh invocation of a row, with its default parameter.
                let run = |d: &PassDescriptor, g: &mut IrFunction| {
                    let slot = Slot::resolve(&PassSpec::new(d.name)).expect("registered");
                    slot.run(g, &snapshot)
                };
                for step in REGISTRY.iter().chain(REGISTRY) {
                    for d in REGISTRY {
                        let mut g = f.clone();
                        if !run(d, &mut g) {
                            assert_eq!(g, *f, "{} edited {} silently", d.name, f.name);
                        }
                    }
                    run(step, f);
                }
            }
        }
    }

    #[test]
    fn inline_replaces_call_and_preserves_semantics() {
        let src = "int sq(int v) { return v * v; }
                   int f(int x) { return sq(x) + sq(x + 1); }";
        let mut m = ir_of(src);
        assert!(PassManager::from_str("inline(100)")
            .expect("pipeline")
            .run(&mut m));
        m.validate().expect("valid after inline");
        let f = m.function("f").expect("f");
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(o, IrOp::Call { .. }))
            .count();
        assert_eq!(calls, 0, "both call sites should be inlined");
        for x in [0, 3, -7] {
            assert_eq!(run_ir(&m, "f", &[x]), Some(x * x + (x + 1) * (x + 1)));
        }
    }

    #[test]
    fn inline_handles_array_params_and_loop_bounds() {
        let src = "int acc(int a[], int n) {
                       int s = 0;
                       for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
                       return s + n;
                   }
                   int buf[8] = {1,2,3,4,5,6,7,8};
                   int f(int n) { int loc[8]; loc[0] = 100; return acc(buf, n) + acc(loc, n); }";
        let mut m = ir_of(src);
        let bounds_before: usize = m.functions.iter().map(|f| f.loop_bounds.len()).sum();
        assert!(bounds_before >= 1);
        assert!(PassManager::from_str("inline(100)")
            .expect("pipeline")
            .run(&mut m));
        m.validate().expect("valid after inline");
        let f = m.function("f").expect("f");
        assert_eq!(
            f.loop_bounds.len(),
            2,
            "both inlined loops must carry their bounds"
        );
        assert_eq!(run_ir(&m, "f", &[5]), Some(36 + 5 + 100 + 5));
    }

    #[test]
    fn inline_skips_recursive_functions() {
        let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
                   int f(int n) { return fact(n); }";
        let mut m = ir_of(src);
        PassManager::from_str("inline(1000)")
            .expect("pipeline")
            .run(&mut m);
        let f = m.function("f").expect("f");
        let calls = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| matches!(o, IrOp::Call { .. }))
            .count();
        assert_eq!(calls, 1, "recursive callee must not be inlined");
        assert_eq!(run_ir(&m, "f", &[5]), Some(120));
    }

    /// One `inline` run makes at most 24 expansions; each fixpoint round
    /// runs it again with a fresh budget, so the manager inlines all 30
    /// calls whether the pipeline has one `inline` slot or two.
    #[test]
    fn inline_budget_is_per_run() {
        let calls = (0..30)
            .map(|k| format!("s = s + leaf(x + {k});"))
            .collect::<String>();
        let src = format!(
            "int leaf(int v) {{ return v + 1; }}
             int f(int x) {{ int s = 0; {calls} return s; }}"
        );
        let count_calls = |f: &IrFunction| {
            f.blocks
                .iter()
                .flat_map(|b| &b.ops)
                .filter(|o| matches!(o, IrOp::Call { .. }))
                .count()
        };
        let m = ir_of(&src);
        let mut once = m.function("f").expect("f").clone();
        assert!(inline(&mut once, &snapshot_functions(&m), 40));
        assert_eq!(count_calls(&once), 6, "one run spends its 24 expansions");
        let calls_left = |pipeline: &str| {
            let mut m = ir_of(&src);
            PassManager::from_str(pipeline)
                .expect("pipeline")
                .run(&mut m);
            assert_eq!(run_ir(&m, "f", &[2]), Some(30 * 3 + (0..30).sum::<i32>()));
            count_calls(m.function("f").expect("f"))
        };
        assert_eq!(calls_left("inline"), 0, "a fresh budget every round");
        assert_eq!(calls_left("inline,inline"), 0, "a fresh budget every run");
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        let src = "int mac(int a, int b, int c) { return a * b + c; }
                   int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 6; i = i + 1) { s = mac(x, i, s); }
                       return s * 12;
                   }";
        let reference = ir_of(src);
        let expected = run_ir(&reference, "f", &[7]);
        let mut m = ir_of(src);
        PassManager::from_str("inline(50),mul_shift_add,const_fold,copy_prop,dce")
            .expect("pipeline")
            .run(&mut m);
        m.validate().expect("valid after pipeline");
        assert_eq!(run_ir(&m, "f", &[7]), expected);
    }

    // --- licm ------------------------------------------------------

    #[test]
    fn licm_hoists_invariant_multiply_out_of_the_loop() {
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 10; i = i + 1) { s = s + x * 7 + i; }
                       return s;
                   }";
        let reference = ir_of(src);
        let mut m = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert!(licm(f), "x * 7 is loop-invariant");
        m.validate().expect("valid after licm");
        // The multiply left every loop body.
        let f = m.function("f").expect("f");
        let loops = teamplay_minic::cfg::natural_loops(f);
        assert!(!loops.is_empty());
        for l in &loops {
            for &bi in &l.body {
                assert!(
                    !f.blocks[bi]
                        .ops
                        .iter()
                        .any(|o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. })),
                    "multiply must be hoisted out of block {bi}"
                );
            }
        }
        for x in [0, 3, -9] {
            assert_eq!(run_ir(&m, "f", &[x]), run_ir(&reference, "f", &[x]));
        }
    }

    #[test]
    fn licm_shrinks_the_wcet_bound() {
        use teamplay_isa::CycleModel;
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 32; i = i + 1) { s = s + (x * 3) / 5; }
                       return s;
                   }";
        let wcet = |m: &IrModule| {
            let p = crate::codegen::generate_program(m, crate::codegen::CodegenOpts::default())
                .expect("codegen");
            teamplay_wcet::analyze_program(&p, &CycleModel::pg32())
                .expect("analysable")
                .wcet_cycles("f")
                .expect("bounded")
        };
        let mut m = ir_of(src);
        let before = wcet(&m);
        assert!(licm(m.function_mut("f").expect("f")));
        let after = wcet(&m);
        assert!(
            after < before,
            "hoisting must shrink the bound: {after} vs {before}"
        );
    }

    #[test]
    fn licm_preserves_zero_trip_loops_and_multi_def_temps() {
        // `t` has two definitions (init + loop) so its copy must stay in
        // the loop; with a zero-trip loop the post-loop read of `t` then
        // still sees the initial 0.
        let src = "int f(int x) {
                       int s = 0;
                       int t = 0;
                       for (int i = 0; i < 0; i = i + 1) { t = x * 3; s = s + t; }
                       return s + t + 1;
                   }";
        let mut m = ir_of(src);
        licm(m.function_mut("f").expect("f"));
        m.validate().expect("valid after licm");
        assert_eq!(
            run_ir(&m, "f", &[50]),
            Some(1),
            "zero-trip loop leaves t at 0"
        );
    }

    // --- cse -------------------------------------------------------

    fn count_matching(f: &IrFunction, pred: impl Fn(&IrOp) -> bool) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| pred(o))
            .count()
    }

    #[test]
    fn cse_reuses_repeated_and_commuted_expressions() {
        let mut m = ir_of("int f(int x, int y) { return (x * y) + (y * x); }");
        let f = m.function_mut("f").expect("f");
        assert!(local_cse(f));
        assert_eq!(
            count_matching(f, |o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. })),
            1,
            "commuted product must be shared"
        );
        assert_eq!(run_ir(&m, "f", &[7, -3]), Some(2 * 7 * -3));
    }

    #[test]
    fn cse_shares_loads_but_respects_stores() {
        let src = "int g[4];
                   int f(int i) {
                       int a = g[1] + g[1];
                       g[1] = a;
                       int b = g[1];
                       return a + b + i;
                   }";
        let mut m = ir_of(src);
        let reference = ir_of(src);
        let f = m.function_mut("f").expect("f");
        let loads_before = count_matching(f, |o| matches!(o, IrOp::Load { .. }));
        assert!(local_cse(f));
        let loads_after = count_matching(f, |o| matches!(o, IrOp::Load { .. }));
        // The duplicated pre-store load collapses; the post-store load
        // survives the invalidation.
        assert_eq!(
            loads_before - loads_after,
            1,
            "exactly the safe load is shared"
        );
        assert_eq!(run_ir(&m, "f", &[5]), run_ir(&reference, "f", &[5]));
    }

    #[test]
    fn cse_replacement_copy_still_invalidates_its_destination() {
        // Non-SSA regression: when `t2 = a+1` is rewritten into a copy
        // of the earlier `a+1`, the *write* to t2 must still evict the
        // stale `(a+5) → t2` entry — otherwise the later `t4 = a+5`
        // becomes a copy of the redefined t2. Multi-def temps like this
        // come straight out of `unroll_loops`' cloned bodies, and the
        // permutation genome can order `unroll` before `cse`.
        use teamplay_minic::ir::{IrBlock, IrParam};
        let a = Temp(0);
        let (t1, t2, t3, t4) = (Temp(1), Temp(2), Temp(3), Temp(4));
        let add = |dst, c| IrOp::Bin {
            op: BinOp::Add,
            dst,
            a: Operand::Temp(a),
            b: Operand::Const(c),
        };
        let f = IrFunction {
            name: "f".into(),
            params: vec![IrParam {
                name: "a".into(),
                is_array: false,
                temp: a,
            }],
            returns_value: true,
            blocks: vec![IrBlock {
                ops: vec![
                    add(t1, 1),
                    add(t2, 5),
                    IrOp::Bin {
                        op: BinOp::Mul,
                        dst: t3,
                        a: Operand::Temp(t2),
                        b: Operand::Const(3),
                    },
                    add(t2, 1),
                    add(t4, 5),
                ],
                term: IrTerm::Ret(Some(Operand::Temp(t4))),
            }],
            temp_count: 5,
            local_arrays: vec![],
            loop_bounds: HashMap::new(),
            annotations: vec![],
        };
        let module = IrModule {
            functions: vec![f],
            globals: vec![],
        };
        let expected = run_ir(&module, "f", &[10]);
        assert_eq!(expected, Some(15));
        let mut m = module.clone();
        assert!(local_cse(m.function_mut("f").expect("f")));
        m.validate().expect("valid after cse");
        assert_eq!(run_ir(&m, "f", &[10]), expected);
    }

    #[test]
    fn cse_does_not_key_on_clobbered_operands() {
        // x + 1 recomputed after x changed: must NOT be shared.
        let src = "int f(int x) { int a = x + 1; x = x + 1; int b = x + 1; return a * 100 + b; }";
        let mut m = ir_of(src);
        let f = m.function_mut("f").expect("f");
        local_cse(f);
        assert_eq!(run_ir(&m, "f", &[4]), Some(5 * 100 + 6));
    }

    // --- gvn -------------------------------------------------------

    #[test]
    fn gvn_shares_expressions_across_blocks() {
        let src = "int f(int x, int y) {
                       int a = x * y;
                       int b = 2;
                       if (x > 0) { b = x * y + 1; }
                       return a + b + x * y;
                   }";
        let mut m = ir_of(src);
        let reference = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert!(gvn(f));
        assert_eq!(
            count_matching(f, |o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. })),
            1,
            "the dominating product is the only one left"
        );
        m.validate().expect("valid after gvn");
        for args in [[3, 4], [-3, 4], [0, 9]] {
            assert_eq!(run_ir(&m, "f", &args), run_ir(&reference, "f", &args));
        }
    }

    #[test]
    fn gvn_respects_redefinitions_across_paths() {
        // `x + 1` recomputed after a path that may change x: the fact
        // dies at the join (meet = intersection), so no sharing.
        let src = "int f(int x) {
                       int a = x + 1;
                       if (x > 0) { x = x + 1; }
                       int b = x + 1;
                       return a * 100 + b;
                   }";
        let mut m = ir_of(src);
        let reference = ir_of(src);
        gvn(m.function_mut("f").expect("f"));
        m.validate().expect("valid after gvn");
        assert_eq!(run_ir(&m, "f", &[4]), Some(5 * 100 + 6));
        assert_eq!(run_ir(&m, "f", &[-4]), run_ir(&reference, "f", &[-4]));
    }

    // --- load_fwd --------------------------------------------------

    #[test]
    fn load_fwd_forwards_stores_to_loads_across_blocks() {
        let src = "int g[4];
                   int f(int x) {
                       g[0] = x;
                       int b = 1;
                       if (x > 0) { b = g[0]; }
                       return b + g[0];
                   }";
        let mut m = ir_of(src);
        let reference = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert!(load_fwd(f));
        assert_eq!(
            count_matching(f, |o| matches!(o, IrOp::Load { .. })),
            0,
            "every load of g[0] sees the dominating store's value"
        );
        m.validate().expect("valid after load_fwd");
        for args in [[5], [-5]] {
            assert_eq!(run_ir(&m, "f", &args), run_ir(&reference, "f", &args));
        }
    }

    #[test]
    fn load_fwd_respects_aliasing_stores_and_calls() {
        let src = "int g[4];
                   int h[4];
                   int set(int v) { g[1] = v; return 0; }
                   int f(int x) {
                       g[0] = x;
                       h[2] = 7;
                       int a = g[0];
                       g[1] = 9;
                       int b = g[0];
                       int dummy = set(3);
                       int c = g[0];
                       return a + b + c + dummy;
                   }";
        let mut m = ir_of(src);
        let reference = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert!(load_fwd(f));
        // `a` and `b` forward (distinct global / distinct constant
        // index don't kill); `c` reloads after the call.
        assert_eq!(
            count_matching(f, |o| matches!(o, IrOp::Load { .. })),
            1,
            "only the post-call load survives"
        );
        m.validate().expect("valid after load_fwd");
        assert_eq!(run_ir(&m, "f", &[5]), run_ir(&reference, "f", &[5]));
    }

    #[test]
    fn licm_hoists_multi_def_invariants_observed_only_inside() {
        // The destination has a second (dead) definition before the
        // loop — the old single-static-definition rule refused this;
        // the dominator-tree rule hoists because every read of `t`
        // sits inside the loop, dominated by the in-loop def.
        let src = "int f(int n, int c) {
                       int s = 0;
                       int t = 9;
                       int i = 0;
                       while (i < n) { t = c * 3; s = s + t; i = i + 1; }
                       return s;
                   }";
        let mut m = ir_of(src);
        let reference = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert!(licm(f), "the invariant multiply hoists");
        for l in teamplay_minic::cfg::natural_loops(f) {
            for bi in &l.body {
                assert!(
                    !f.blocks[*bi]
                        .ops
                        .iter()
                        .any(|o| matches!(o, IrOp::Bin { op: BinOp::Mul, .. })),
                    "no multiply left inside the loop"
                );
            }
        }
        m.validate().expect("valid after licm");
        for args in [[3, 5], [0, 5]] {
            assert_eq!(run_ir(&m, "f", &args), run_ir(&reference, "f", &args));
        }
    }

    // --- value-graph loop bounds -----------------------------------

    fn counted_loop_ir(entry_ops: Vec<IrOp>) -> IrModule {
        use teamplay_minic::ir::IrBlock;
        let (i, ct) = (Temp(2), Temp(3));
        let f = IrFunction {
            name: "f".into(),
            params: vec![],
            returns_value: true,
            blocks: vec![
                IrBlock {
                    ops: entry_ops,
                    term: IrTerm::Jump(IrBlockId(1)),
                },
                IrBlock {
                    ops: vec![IrOp::Bin {
                        op: BinOp::Lt,
                        dst: ct,
                        a: Operand::Temp(i),
                        b: Operand::Temp(Temp(1)),
                    }],
                    term: IrTerm::Branch {
                        cond: Operand::Temp(ct),
                        taken: IrBlockId(2),
                        fallthrough: IrBlockId(3),
                    },
                },
                IrBlock {
                    ops: vec![IrOp::Bin {
                        op: BinOp::Add,
                        dst: i,
                        a: Operand::Temp(i),
                        b: Operand::Const(1),
                    }],
                    term: IrTerm::Jump(IrBlockId(1)),
                },
                IrBlock {
                    ops: vec![],
                    term: IrTerm::Ret(Some(Operand::Const(0))),
                },
            ],
            temp_count: 4,
            local_arrays: vec![],
            loop_bounds: HashMap::new(),
            annotations: vec![],
        };
        IrModule {
            functions: vec![f],
            globals: vec![],
        }
    }

    #[test]
    fn value_graph_bounds_resolve_computed_limits() {
        // limit = u + 1 with u = 9 defined *before* it: well-anchored,
        // folds to 10 — a bound the syntactic prover cannot see.
        let (u, t, i) = (Temp(0), Temp(1), Temp(2));
        let m = counted_loop_ir(vec![
            IrOp::Copy {
                dst: u,
                src: Operand::Const(9),
            },
            IrOp::Bin {
                op: BinOp::Add,
                dst: t,
                a: Operand::Temp(u),
                b: Operand::Const(1),
            },
            IrOp::Copy {
                dst: i,
                src: Operand::Const(0),
            },
        ]);
        m.validate().expect("valid");
        let f = &m.functions[0];
        let loops = teamplay_minic::cfg::natural_loops(f);
        assert!(loops.iter().all(|l| recognise_counted_loop(f, l).is_none()));
        assert_eq!(value_graph_loop_bounds(f), vec![(IrBlockId(1), 10)]);
    }

    #[test]
    fn value_graph_bounds_require_anchored_chains() {
        // Same fold target, but `u = 9` lands *after* `t = u + 1`: at
        // runtime t reads the zero-initialised u (t == 1), while the
        // value graph would fold t to 10. The dominance anchoring must
        // refuse the chain.
        let (u, t, i) = (Temp(0), Temp(1), Temp(2));
        let m = counted_loop_ir(vec![
            IrOp::Bin {
                op: BinOp::Add,
                dst: t,
                a: Operand::Temp(u),
                b: Operand::Const(1),
            },
            IrOp::Copy {
                dst: u,
                src: Operand::Const(9),
            },
            IrOp::Copy {
                dst: i,
                src: Operand::Const(0),
            },
        ]);
        m.validate().expect("valid");
        let f = &m.functions[0];
        assert_eq!(value_graph_loop_bounds(f), vec![]);
    }

    // --- unroll ----------------------------------------------------

    fn loop_count(f: &IrFunction) -> usize {
        teamplay_minic::cfg::natural_loops(f).len()
    }

    #[test]
    fn unroll_flattens_constant_trip_loops() {
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 4; i = i + 1) { s = s + x + i; }
                       return s;
                   }";
        let reference = ir_of(src);
        let mut m = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert_eq!(loop_count(f), 1);
        assert!(unroll_loops(f, 8));
        assert_eq!(loop_count(f), 0, "the loop is gone");
        assert!(f.loop_bounds.is_empty(), "no residual flow facts");
        m.validate().expect("valid after unroll");
        for x in [0, 9, -2] {
            assert_eq!(run_ir(&m, "f", &[x]), run_ir(&reference, "f", &[x]));
        }
    }

    #[test]
    fn unroll_trades_cycles_for_code_size() {
        use teamplay_isa::CycleModel;
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 6; i = i + 1) { s = s + x * i; }
                       return s;
                   }";
        let build = |m: &IrModule| {
            crate::codegen::generate_program(m, crate::codegen::CodegenOpts::default())
                .expect("codegen")
        };
        let m0 = ir_of(src);
        let rolled = build(&m0);
        let mut m = ir_of(src);
        assert!(unroll_loops(m.function_mut("f").expect("f"), 8));
        let unrolled = build(&m);
        let wcet = |p: &teamplay_isa::Program| {
            teamplay_wcet::analyze_program(p, &CycleModel::pg32())
                .expect("analysable")
                .wcet_cycles("f")
                .expect("bounded")
        };
        assert!(
            wcet(&unrolled) < wcet(&rolled),
            "no per-iteration compare+branch"
        );
        let size = |p: &teamplay_isa::Program| {
            crate::driver::code_size_halfwords(p.function("f").expect("f"))
        };
        assert!(
            size(&unrolled) > size(&rolled),
            "six body copies cost code size"
        );
    }

    #[test]
    fn unroll_skips_variable_bounds_and_respects_the_ceiling() {
        // Variable trip count: must not unroll even though annotated.
        let src = "int f(int n) {
                       int s = 0;
                       /*@ loop bound(64) @*/
                       while (n > 0) { n = n - 1; s = s + 1; }
                       return s;
                   }";
        let mut m = ir_of(src);
        assert!(
            !unroll_loops(m.function_mut("f").expect("f"), 64),
            "bound is not a trip count"
        );

        // Provable 6-trip loop under a ceiling of 4: left rolled.
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 6; i = i + 1) { s = s + x; }
                       return s;
                   }";
        let mut m = ir_of(src);
        let f = m.function_mut("f").expect("f");
        assert!(!unroll_loops(f, 4));
        assert_eq!(loop_count(f), 1);
        assert!(unroll_loops(f, 6), "raising the ceiling unrolls it");
    }

    #[test]
    fn unroll_handles_down_counting_and_strided_loops() {
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 10; i > 0; i = i - 3) { s = s + x + i; }
                       return s;
                   }";
        let reference = ir_of(src);
        let mut m = ir_of(src);
        assert!(unroll_loops(m.function_mut("f").expect("f"), 8));
        assert_eq!(loop_count(m.function("f").expect("f")), 0);
        for x in [1, -4] {
            assert_eq!(run_ir(&m, "f", &[x]), run_ir(&reference, "f", &[x]));
        }
    }

    // --- block_layout ----------------------------------------------

    #[test]
    fn block_layout_straightens_folded_branches() {
        let src = "int f(int x) { if (1 < 2) { return x + 10; } return 20; }";
        let mut m = ir_of(src);
        let f = m.function_mut("f").expect("f");
        const_fold(f); // the branch becomes a jump; dead blocks remain
        let before = f.blocks.len();
        assert!(block_layout(f));
        assert!(f.blocks.len() < before, "dead + forwarding blocks collapse");
        m.validate().expect("valid after layout");
        assert_eq!(run_ir(&m, "f", &[1]), Some(11));
    }

    #[test]
    fn block_layout_preserves_loops_and_their_bounds() {
        let src = "int f(int x) {
                       int s = 0;
                       for (int i = 0; i < 12; i = i + 1) { s = s + x; }
                       return s;
                   }";
        let reference = ir_of(src);
        let mut m = ir_of(src);
        let f = m.function_mut("f").expect("f");
        block_layout(f);
        m.validate().expect("valid after layout");
        let f = m.function("f").expect("f");
        assert_eq!(loop_count(f), 1, "the loop survives");
        assert_eq!(
            f.loop_bounds.values().copied().collect::<Vec<_>>(),
            vec![12]
        );
        assert_eq!(run_ir(&m, "f", &[3]), run_ir(&reference, "f", &[3]));
    }

    #[test]
    fn block_layout_reduces_wcet_and_size_on_branchy_code() {
        use teamplay_isa::CycleModel;
        let src = "int f(int x) {
                       int s = 0;
                       if (x > 0) { s = s + 1; } else { s = s - 1; }
                       if (x > 10) { s = s + 2; } else { s = s - 2; }
                       return s;
                   }";
        let measure = |m: &IrModule| {
            let p = crate::codegen::generate_program(m, crate::codegen::CodegenOpts::default())
                .expect("codegen");
            let w = teamplay_wcet::analyze_program(&p, &CycleModel::pg32())
                .expect("analysable")
                .wcet_cycles("f")
                .expect("bounded");
            (
                w,
                crate::driver::code_size_halfwords(p.function("f").expect("f")),
            )
        };
        let m0 = ir_of(src);
        let (w0, s0) = measure(&m0);
        let mut m = ir_of(src);
        assert!(block_layout(m.function_mut("f").expect("f")));
        let (w1, s1) = measure(&m);
        assert!(w1 <= w0 && s1 < s0, "({w1},{s1}) vs ({w0},{s0})");
        for x in [-5, 5, 50] {
            assert_eq!(run_ir(&m, "f", &[x]), run_ir(&m0, "f", &[x]));
        }
    }

    #[test]
    fn block_layout_reaches_a_fixpoint() {
        let mut m = ir_of("int f(int x) { if (x > 0) { return 1; } return 2; }");
        let f = m.function_mut("f").expect("f");
        block_layout(f);
        assert!(!block_layout(f), "second application must be a no-op");
    }

    // --- catalog and error ergonomics ------------------------------

    #[test]
    fn catalog_resolves_names_and_literal_pipelines() {
        let mut cat = PipelineCatalog::builtin();
        assert_eq!(cat.get("o2"), Some(&Pipeline::o2()));
        cat.register(
            "camera_pill",
            "inline(24),licm,cse,const_fold,copy_prop,dce",
        )
        .expect("registers");
        assert!(cat.get("camera_pill").expect("registered").contains("licm"));
        // Re-registration replaces.
        cat.register("camera_pill", "dce").expect("re-registers");
        assert_eq!(cat.get("camera_pill").expect("registered").passes.len(), 1);
        // Fallback: a literal pipeline string resolves without registration.
        let lit = cat
            .resolve("strength_reduce,dce")
            .expect("literal resolves");
        assert_eq!(lit.passes.len(), 2);
        // A mistyped catalogue name points back at the catalogue…
        cat.register("camera_pill", "dce").expect("re-registers");
        let err = cat.resolve("camera_pil").expect_err("unknown");
        assert_eq!(
            err.to_string(),
            "unknown pipeline or pass `camera_pil`; did you mean `camera_pill`?"
        );
        // …a mistyped pass name still points at the registry…
        let err = cat.resolve("licn").expect_err("unknown");
        assert_eq!(
            err.to_string(),
            "unknown pipeline or pass `licn`; did you mean `licm`?"
        );
        // …and something unlike either namespace explains the contract.
        let err = cat.resolve("no_such_name_or_pass").expect_err("unknown");
        assert!(
            matches!(&err, PipelineError::UnknownName { nearest: None, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("catalogue names"), "{err}");
        // Multi-element specs keep the precise per-element error.
        assert!(matches!(
            cat.resolve("dce,turbo_encabulate"),
            Err(PipelineError::UnknownPass(_))
        ));
        assert!(cat.register("bad", "turbo(7)").is_err());
        let builtin = PipelineCatalog::builtin();
        let names: Vec<&str> = builtin.names().collect();
        assert_eq!(names, ["o0", "o1", "o2", "o3"]);
    }

    #[test]
    fn unknown_pass_error_suggests_the_nearest_name() {
        let err = "licn".parse::<Pipeline>().expect_err("unknown");
        assert_eq!(err.to_string(), "unknown pass `licn`; did you mean `licm`?");
        let err = "unrol(4)".parse::<Pipeline>().expect_err("unknown");
        assert_eq!(
            err.to_string(),
            "unknown pass `unrol`; did you mean `unroll`?"
        );
        // Nothing within distance 2: fall back to the full listing.
        let err = "turbo_encabulate".parse::<Pipeline>().expect_err("unknown");
        assert!(err.to_string().contains("known:"), "{err}");
    }

    // --- framework-level tests -------------------------------------

    #[test]
    fn every_registry_pass_is_resolvable_by_name() {
        for d in REGISTRY {
            let mut pm = PassManager::from_str(d.name).expect("resolves");
            assert_eq!(pm.pipeline().passes.len(), 1);
            let mut m = ir_of("int f(int x) { return x * 8 + 0; }");
            pm.run(&mut m); // must not panic
        }
        assert_eq!(
            REGISTRY.len(),
            12,
            "all twelve optimisations are registered"
        );
    }

    #[test]
    fn pipeline_parses_names_params_and_rejects_junk() {
        let p: Pipeline = "const_fold, copy_prop ,dce".parse().expect("parses");
        assert_eq!(p.passes.len(), 3);
        let p: Pipeline = "inline(64),dce".parse().expect("parses");
        assert_eq!(p.param_of("inline"), Some(64));
        assert_eq!(p.to_string(), "inline(64),dce");
        let back: Pipeline = p.to_string().parse().expect("round-trips");
        assert_eq!(back, p);
        assert_eq!(Pipeline::from_str("").expect("empty ok"), Pipeline::o0());

        assert!(matches!(
            "turbo_encabulate".parse::<Pipeline>(),
            Err(PipelineError::UnknownPass(_))
        ));
        assert!(matches!(
            "inline(".parse::<Pipeline>(),
            Err(PipelineError::Malformed(_))
        ));
        assert!(matches!(
            "inline(x)".parse::<Pipeline>(),
            Err(PipelineError::Malformed(_))
        ));
        assert!(matches!(
            "dce,,dce".parse::<Pipeline>(),
            Err(PipelineError::Malformed(_))
        ));
        assert!(matches!(
            "dce(7)".parse::<Pipeline>(),
            Err(PipelineError::UnexpectedParam(name)) if name == "dce"
        ));
    }

    #[test]
    fn manager_reaches_fixpoint_and_records_stats() {
        let mut m = ir_of("int f(int x) { int a = 2 * 8; int b = a; return b + x; }");
        let mut pm = PassManager::from_str("const_fold,copy_prop,dce").expect("pipeline");
        assert!(pm.run(&mut m));
        let stats = pm.stats();
        assert_eq!(stats.len(), 3);
        assert!(
            stats.iter().any(|s| s.changes > 0),
            "cleanup must report changes"
        );
        for s in stats {
            assert!(s.invocations >= s.changes);
        }
        // A second run is a no-op: the pipeline already converged.
        assert!(!pm.run(&mut m), "second run must find a fixpoint");
        assert_eq!(run_ir(&m, "f", &[1]), Some(17));
    }

    #[test]
    fn optimisation_levels_are_ordered_pipelines() {
        let level = |p: Pipeline| PassManager::new(p).expect("preset pipeline is valid");
        assert!(level(Pipeline::o0()).pipeline().passes.is_empty());
        assert_eq!(level(Pipeline::o1()).pipeline(), &Pipeline::o1());
        assert!(level(Pipeline::o2()).pipeline().contains("inline"));
        assert_eq!(
            level(Pipeline::o3()).pipeline().param_of("inline"),
            Some(80)
        );
        // Higher levels strictly extend the optimisation surface.
        let counts: Vec<usize> = [Pipeline::o0(), Pipeline::o1(), Pipeline::o2()]
            .iter()
            .map(|p| p.passes.len())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn per_function_configs_apply_their_own_pipelines() {
        let src = "int sq(int v) { return v * v; }
                   int hot(int x) { return sq(x) + 1; }
                   int cold(int x) { return sq(x) + 2; }";
        let m = ir_of(src);
        let mut configs = HashMap::new();
        configs.insert(
            "hot".to_string(),
            CompilerConfig {
                pipeline: Pipeline::o3(),
                mul_shift_add: false,
                pinned_regs: 0,
            },
        );
        let default = CompilerConfig {
            pipeline: Pipeline::o0(),
            mul_shift_add: false,
            pinned_regs: 0,
        };
        let program = crate::driver::compile_module_per_function_on(
            &minipool::Pool::new(1),
            &m,
            &configs,
            &default,
        )
        .expect("pipelines resolve");
        let calls = |name: &str| {
            program
                .function(name)
                .expect("compiled")
                .blocks
                .iter()
                .flat_map(|b| &b.insns)
                .filter(|i| matches!(i, teamplay_isa::Insn::Call { .. }))
                .count()
        };
        assert_eq!(calls("hot"), 0, "hot inlines sq");
        assert_eq!(calls("cold"), 1, "cold keeps the call");
        let mut machine = teamplay_sim::Machine::new(program).expect("loads");
        let mut run = |name: &str| {
            let mut dev = teamplay_sim::RecordingDevice::new();
            machine
                .call(name, &[3], &mut dev)
                .expect("runs")
                .return_value
        };
        assert_eq!(run("hot"), 10);
        assert_eq!(run("cold"), 11);
    }
}
