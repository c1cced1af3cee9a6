//! Oracle tests for the dataflow backbone. On randomly generated Mini-C
//! kernels the packed fixpoint analyses must agree with naive,
//! obviously-correct recomputation. The kernels come from the shared
//! generator in `common/kernels.rs`, whose memory shapes (constant-index
//! global cells, a zero-initialised local array, an aliasing array
//! parameter, a call between a store and its load) are what `load_fwd`
//! and `gvn` act on. Registry pipelines reshape them further, so the
//! CFGs carry diamonds, loops and unreachable-after-folding shapes:
//!
//! * **dominance** — `a dom b` iff deleting `a` disconnects `b` from
//!   the entry (path-based definition, checked by DFS per pair);
//! * **liveness** — `t` live into `b` iff some path from the start of
//!   `b` reads `t` before writing it (checked by first-touch DFS);
//! * **def-use** — def/use sites match a per-op rescan, and
//!   `single_def` answers exactly the temps with one op definition.

#[path = "common/kernels.rs"]
mod kernels;

use kernels::arb_kernel;
use proptest::prelude::*;
use teamplay_compiler::dataflow::{for_each_read, for_each_term_read, for_each_write};
use teamplay_compiler::{DefUse, DomTree, Liveness, PassManager};
use teamplay_minic::cfg::CfgView;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::{IrFunction, Temp};

/// Pipelines that reshape the CFG in different ways before the oracle
/// runs, so the analyses face more than front-end-shaped graphs.
const RESHAPERS: [&str; 5] = [
    "",
    "const_fold,copy_prop,dce",
    "inline(40),licm,cse,const_fold,dce",
    "unroll(4),block_layout,const_fold,copy_prop,dce",
    "inline(40),load_fwd,gvn,const_fold,copy_prop,dce",
];

/// Blocks reachable from the entry, optionally pretending `skip` and
/// its out-edges are deleted.
fn reachable(f: &IrFunction, skip: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    if Some(0) == skip {
        return seen;
    }
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in f.successors(b) {
            if Some(s) != skip && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Naive path-based liveness: is some read of `t` reachable from the
/// start of `b` before any write to `t`?
fn naive_live_in(f: &IrFunction, b: usize, t: Temp) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![b];
    seen[b] = true;
    while let Some(cur) = stack.pop() {
        let blk = &f.blocks[cur];
        let mut verdict: Option<bool> = None;
        for op in &blk.ops {
            let mut read = false;
            for_each_read(op, |r| read |= r == t);
            if read {
                verdict = Some(true);
                break;
            }
            let mut written = false;
            for_each_write(op, |w| written |= w == t);
            if written {
                verdict = Some(false);
                break;
            }
        }
        if verdict.is_none() {
            let mut read = false;
            for_each_term_read(&blk.term, |r| read |= r == t);
            if read {
                verdict = Some(true);
            }
        }
        match verdict {
            Some(true) => return true,
            Some(false) => {}
            None => {
                for s in f.successors(cur) {
                    if !seen[s] {
                        seen[s] = true;
                        stack.push(s);
                    }
                }
            }
        }
    }
    false
}

fn oracle_check(f: &IrFunction) {
    let name = &f.name;
    let dom = DomTree::build(f);
    let live = Liveness::build(f);
    let du = DefUse::build(f);
    let n = f.blocks.len();
    let from_entry = reachable(f, None);

    // Dominance against the path definition, every reachable pair.
    for a in (0..n).filter(|&a| from_entry[a]) {
        let cut = reachable(f, Some(a));
        for b in (0..n).filter(|&b| from_entry[b]) {
            let expect = a == b || !cut[b];
            assert_eq!(
                dom.dominates(a, b),
                expect,
                "{name}: dominates({a}, {b}) disagrees with the path oracle"
            );
        }
    }

    // Liveness against first-touch path search, every block × temp.
    for b in (0..n).filter(|&b| from_entry[b]) {
        for t in 0..f.temp_count {
            assert_eq!(
                live.is_live_in(b, Temp(t)),
                naive_live_in(f, b, Temp(t)),
                "{name}: live-in of t{t} at block {b} disagrees with the path oracle"
            );
        }
    }

    // Def-use against a naive rescan.
    let nt = f.temp_count as usize;
    let mut defs = vec![Vec::new(); nt];
    let mut uses = vec![Vec::new(); nt];
    for (bi, blk) in f.blocks.iter().enumerate() {
        for (oi, op) in blk.ops.iter().enumerate() {
            for_each_read(op, |r| uses[r.0 as usize].push((bi, oi)));
            for_each_write(op, |w| defs[w.0 as usize].push((bi, oi)));
        }
        for_each_term_read(&blk.term, |r| uses[r.0 as usize].push((bi, blk.ops.len())));
    }
    for t in 0..nt {
        let temp = Temp(t as u32);
        assert_eq!(du.defs(temp), &defs[t][..], "{name}: defs of t{t}");
        assert_eq!(du.uses(temp), &uses[t][..], "{name}: uses of t{t}");
        let is_param = f.params.iter().any(|p| p.temp == temp);
        assert_eq!(du.is_param(temp), is_param, "{name}: is_param of t{t}");
        let expect_single = (!is_param && defs[t].len() == 1).then(|| defs[t][0]);
        assert_eq!(
            du.single_def(temp),
            expect_single,
            "{name}: single_def of t{t}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn packed_analyses_agree_with_naive_recomputation(
        src in arb_kernel(),
        reshape in 0usize..RESHAPERS.len(),
    ) {
        let mut module = compile_to_ir(&src).expect("generated kernels lower");
        let pipeline = RESHAPERS[reshape];
        if !pipeline.is_empty() {
            let mut pm = PassManager::from_str(pipeline).expect("reshaper parses");
            pm.run(&mut module);
            module.validate().expect("valid after reshaping");
        }
        for f in &module.functions {
            oracle_check(f);
        }
    }
}

/// The shipped application kernels are free extra coverage: real CFGs
/// with nested loops and calls, before and after their tuned pipelines.
#[test]
fn packed_analyses_agree_on_the_app_kernels() {
    for (app, src) in [
        ("camera_pill", teamplay_apps::camera_pill::SOURCE),
        ("spacewire", teamplay_apps::spacewire::SOURCE),
        ("uav", teamplay_apps::uav::DETECT_KERNEL_SOURCE),
        ("parking", teamplay_apps::parking::CONV_KERNEL_SOURCE),
    ] {
        let module = compile_to_ir(src).expect("kernel compiles");
        for f in &module.functions {
            oracle_check(f);
        }
        let (_, tuned) = teamplay_apps::recommended_pipelines()
            .into_iter()
            .find(|(a, _)| *a == app)
            .expect("every app has a tuned pipeline");
        let mut optimised = compile_to_ir(src).expect("kernel compiles");
        let mut pm = PassManager::from_str(tuned).expect("tuned pipelines parse");
        pm.run(&mut optimised);
        for f in &optimised.functions {
            oracle_check(f);
        }
    }
}
