//! Loop-bound determination.
//!
//! Static WCET analysis needs an upper bound on every loop (paper
//! Section II-A: the CSL layer and the WCC compiler exchange exactly this
//! flow-fact information). Bounds come from two sources, in priority
//! order:
//!
//! 1. an explicit `/*@ loop bound(n) @*/` annotation on the loop, and
//! 2. *counted-loop inference* for the canonical `for`/`while` patterns
//!    `for (i = c0; i < c1; i = i + c2)` where the induction variable is
//!    not otherwise written in the body.
//!
//! Inference is deliberately conservative: anything non-canonical returns
//! `None` and the toolchain demands an annotation instead — matching how
//! industrial WCET tools (aiT) treat unbounded flow facts.

use crate::ast::{Annotation, BinOp, Expr, LValue, Stmt};

/// Parse a `loop bound(n)` annotation payload.
///
/// Returns `None` if the payload is not a loop-bound annotation at all;
/// `Some(Err(...))` if it is but the bound is malformed.
pub fn parse_bound_annotation(ann: &Annotation) -> Option<Result<u32, String>> {
    let text = ann.text.trim();
    let rest = text.strip_prefix("loop")?.trim_start();
    let rest = rest.strip_prefix("bound")?.trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .map(str::trim);
    Some(match inner {
        Some(num) => num
            .parse::<u32>()
            .map_err(|_| format!("line {}: invalid loop bound `{num}`", ann.line)),
        None => Err(format!(
            "line {}: malformed loop bound annotation",
            ann.line
        )),
    })
}

/// The explicit bound attached to a loop, if any.
///
/// # Errors
/// Returns an error when an annotation looks like a loop bound but cannot
/// be parsed.
pub fn annotated_bound(annotations: &[Annotation]) -> Result<Option<u32>, String> {
    for ann in annotations {
        if let Some(parsed) = parse_bound_annotation(ann) {
            return parsed.map(Some);
        }
    }
    Ok(None)
}

/// Does `stmt` (transitively) assign to the scalar variable `name` or
/// shadow it? Used to ensure the induction variable is only advanced by
/// the loop's step expression.
fn assigns_or_shadows(stmt: &Stmt, name: &str) -> bool {
    match stmt {
        Stmt::Decl { name: n, .. } => n == name, // shadowing changes meaning
        Stmt::Assign { target, .. } => match target {
            LValue::Var(n) => n == name,
            LValue::Index { .. } => false,
        },
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            assigns_or_shadows(then_branch, name)
                || else_branch
                    .as_deref()
                    .is_some_and(|e| assigns_or_shadows(e, name))
        }
        Stmt::While { body, .. } => assigns_or_shadows(body, name),
        Stmt::For {
            init, step, body, ..
        } => {
            init.as_deref().is_some_and(|s| assigns_or_shadows(s, name))
                || step.as_deref().is_some_and(|s| assigns_or_shadows(s, name))
                || assigns_or_shadows(body, name)
        }
        Stmt::Block(stmts) => stmts.iter().any(|s| assigns_or_shadows(s, name)),
        Stmt::Return(_) | Stmt::ExprStmt(_) => false,
    }
}

/// The variable name of a `var = const` init statement (declaration or
/// assignment), used by the lowerer to confirm the induction variable is a
/// function-local scalar before trusting [`infer_for_bound`] /
/// [`infer_while_bound`].
pub fn const_init_var(stmt: &Stmt) -> Option<&str> {
    as_const_init(stmt).map(|(v, _)| v)
}

/// Recognise `var = const` (declaration or assignment), returning
/// `(var, const)`.
fn as_const_init(stmt: &Stmt) -> Option<(&str, i64)> {
    match stmt {
        Stmt::Decl {
            name,
            array_len: None,
            init: Some(Expr::Lit(v)),
        } => Some((name.as_str(), *v as i64)),
        Stmt::Assign {
            target: LValue::Var(name),
            value: Expr::Lit(v),
        } => Some((name.as_str(), *v as i64)),
        _ => None,
    }
}

/// Recognise `var = var + const` / `var = var - const` with `const != 0`,
/// returning the signed step.
fn as_step(stmt: &Stmt, var: &str) -> Option<i64> {
    let Stmt::Assign {
        target: LValue::Var(name),
        value,
    } = stmt
    else {
        return None;
    };
    if name != var {
        return None;
    }
    let Expr::Bin { op, lhs, rhs } = value else {
        return None;
    };
    let step = match (op, lhs.as_ref(), rhs.as_ref()) {
        (BinOp::Add, Expr::Var(v), Expr::Lit(c)) if v == var => *c as i64,
        (BinOp::Add, Expr::Lit(c), Expr::Var(v)) if v == var => *c as i64,
        (BinOp::Sub, Expr::Var(v), Expr::Lit(c)) if v == var => -(*c as i64),
        _ => return None,
    };
    if step == 0 {
        None
    } else {
        Some(step)
    }
}

/// Recognise a comparison of the induction variable against a constant:
/// `var < c`, `var <= c`, `var > c`, `var >= c`, `var != c` (and the
/// mirrored forms), returning the normalised `(op-as-if-var-on-left, c)`.
fn as_limit(cond: &Expr, var: &str) -> Option<(BinOp, i64)> {
    let Expr::Bin { op, lhs, rhs } = cond else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Var(v), Expr::Lit(c)) if v == var => Some((*op, *c as i64)),
        (Expr::Lit(c), Expr::Var(v)) if v == var => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                BinOp::Eq => BinOp::Eq,
                BinOp::Ne => BinOp::Ne,
                _ => return None,
            };
            Some((flipped, *c as i64))
        }
        _ => None,
    }
}

/// Iteration count of a canonical counted loop, computed exactly, or
/// `None` if the induction variable would wrap.
fn trip_count(init: i64, limit: i64, step: i64, op: BinOp) -> Option<u32> {
    let count: i64 = match (op, step > 0) {
        (BinOp::Lt, true) => (limit - init + step - 1).max(0) / step,
        (BinOp::Le, true) => (limit - init + step).max(0) / step,
        (BinOp::Gt, false) => (init - limit + (-step) - 1).max(0) / (-step),
        (BinOp::Ge, false) => (init - limit + (-step)).max(0) / (-step),
        (BinOp::Ne, true) => {
            // i != limit counting up: exact only if the step divides.
            let diff = limit - init;
            if diff >= 0 && diff % step == 0 {
                diff / step
            } else {
                return None;
            }
        }
        (BinOp::Ne, false) => {
            let diff = init - limit;
            let s = -step;
            if diff >= 0 && diff % s == 0 {
                diff / s
            } else {
                return None;
            }
        }
        _ => return None,
    };
    // The count above assumes unbounded integers. An `int` induction
    // value wraps past `i32::MAX`/`i32::MIN`, so the loop's exit compare
    // would see a different value: the count holds only if the last
    // value, `init + count·step`, is still an i32.
    let last = init + count * step;
    if last < i64::from(i32::MIN) || last > i64::from(i32::MAX) {
        return None;
    }
    u32::try_from(count).ok()
}

/// Infer a bound for a `for` loop from its clauses, or `None` if the loop
/// is not canonical. The returned bound counts **body executions**.
pub fn infer_for_bound(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    step: Option<&Stmt>,
    body: &Stmt,
) -> Option<u32> {
    let (var, init_val) = as_const_init(init?)?;
    let step_val = as_step(step?, var)?;
    let (op, limit) = as_limit(cond?, var)?;
    if assigns_or_shadows(body, var) {
        return None;
    }
    trip_count(init_val, limit, step_val, op)
}

/// Infer a bound for `init; while (cond) { body; step; }` shapes where the
/// predecessor statement is the constant init. Used when lowering `while`
/// loops directly preceded by `var = const`.
pub fn infer_while_bound(prev: Option<&Stmt>, cond: &Expr, body: &Stmt) -> Option<u32> {
    let (var, init_val) = as_const_init(prev?)?;
    let (op, limit) = as_limit(cond, var)?;
    // The body must advance the variable exactly once, at its end, and not
    // touch it elsewhere. We accept a trailing step in a Block body.
    let Stmt::Block(stmts) = body else {
        return None;
    };
    let (step_stmt, rest) = stmts.split_last()?;
    let step_val = as_step(step_stmt, var)?;
    if rest.iter().any(|s| assigns_or_shadows(s, var)) {
        return None;
    }
    trip_count(init_val, limit, step_val, op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(text: &str) -> Annotation {
        Annotation {
            text: text.into(),
            line: 1,
        }
    }

    #[test]
    fn parses_valid_bound_annotation() {
        assert_eq!(parse_bound_annotation(&ann("loop bound(64)")), Some(Ok(64)));
        assert_eq!(parse_bound_annotation(&ann("loop bound( 8 )")), Some(Ok(8)));
    }

    #[test]
    fn non_bound_annotations_are_ignored() {
        assert_eq!(parse_bound_annotation(&ann("task cam period(40)")), None);
        assert!(annotated_bound(&[ann("task x"), ann("loop bound(3)")]).expect("ok") == Some(3));
    }

    #[test]
    fn malformed_bound_is_error() {
        assert!(matches!(
            parse_bound_annotation(&ann("loop bound(-1)")),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_bound_annotation(&ann("loop bound")),
            Some(Err(_))
        ));
        assert!(annotated_bound(&[ann("loop bound(huge)")]).is_err());
    }

    fn stmt_assign(var: &str, value: Expr) -> Stmt {
        Stmt::Assign {
            target: LValue::Var(var.into()),
            value,
        }
    }

    fn step_plus(var: &str, c: i32) -> Stmt {
        stmt_assign(
            var,
            Expr::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::Var(var.into())),
                rhs: Box::new(Expr::Lit(c)),
            },
        )
    }

    fn cond_lt(var: &str, c: i32) -> Expr {
        Expr::Bin {
            op: BinOp::Lt,
            lhs: Box::new(Expr::Var(var.into())),
            rhs: Box::new(Expr::Lit(c)),
        }
    }

    #[test]
    fn infers_canonical_up_loop() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let body = Stmt::Block(vec![]);
        let step = step_plus("i", 1);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&cond_lt("i", 10)), Some(&step), &body),
            Some(10)
        );
    }

    #[test]
    fn infers_strided_and_le_loops() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let body = Stmt::Block(vec![]);
        let step3 = step_plus("i", 3);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&cond_lt("i", 10)), Some(&step3), &body),
            Some(4)
        );
        let le = Expr::Bin {
            op: BinOp::Le,
            lhs: Box::new(Expr::Var("i".into())),
            rhs: Box::new(Expr::Lit(10)),
        };
        let step1 = step_plus("i", 1);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&le), Some(&step1), &body),
            Some(11)
        );
    }

    #[test]
    fn infers_down_counting_loop() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(10)),
        };
        let cond = Expr::Bin {
            op: BinOp::Gt,
            lhs: Box::new(Expr::Var("i".into())),
            rhs: Box::new(Expr::Lit(0)),
        };
        let step = stmt_assign(
            "i",
            Expr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(Expr::Var("i".into())),
                rhs: Box::new(Expr::Lit(2)),
            },
        );
        let body = Stmt::Block(vec![]);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&cond), Some(&step), &body),
            Some(5)
        );
    }

    #[test]
    fn rejects_counts_whose_induction_value_wraps() {
        let decl = |v: i32| Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(v)),
        };
        let cmp = |op: BinOp, c: i32| Expr::Bin {
            op,
            lhs: Box::new(Expr::Var("i".into())),
            rhs: Box::new(Expr::Lit(c)),
        };
        let body = Stmt::Block(vec![]);
        let bound = |init: i32, cond: Expr, step: i32| {
            infer_for_bound(
                Some(&decl(init)),
                Some(&cond),
                Some(&step_plus("i", step)),
                &body,
            )
        };
        // One step of 1000 from 2147483000 leaves i32 below the limit.
        assert_eq!(
            bound(2_147_483_000, cmp(BinOp::Lt, 2_147_483_500), 1000),
            None
        );
        // `i <= i32::MAX` holds for every i32: the loop never exits.
        assert_eq!(bound(i32::MAX - 47, cmp(BinOp::Le, i32::MAX), 1), None);
        assert_eq!(
            bound(i32::MIN + 400, cmp(BinOp::Gt, i32::MIN + 100), -1000),
            None
        );
        // The same loops one step short of the edge keep their counts.
        assert_eq!(
            bound(2_147_482_000, cmp(BinOp::Lt, 2_147_482_500), 1000),
            Some(1)
        );
        assert_eq!(bound(i32::MAX - 47, cmp(BinOp::Lt, i32::MAX), 1), Some(47));
    }

    #[test]
    fn rejects_body_writes_to_induction_var() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let step = step_plus("i", 1);
        let body = Stmt::Block(vec![stmt_assign("i", Expr::Lit(0))]);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&cond_lt("i", 10)), Some(&step), &body),
            None
        );
    }

    #[test]
    fn rejects_non_constant_limit() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let step = step_plus("i", 1);
        let cond = Expr::Bin {
            op: BinOp::Lt,
            lhs: Box::new(Expr::Var("i".into())),
            rhs: Box::new(Expr::Var("n".into())),
        };
        let body = Stmt::Block(vec![]);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&cond), Some(&step), &body),
            None
        );
    }

    #[test]
    fn ne_condition_requires_divisible_step() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let body = Stmt::Block(vec![]);
        let ne = |c: i32| Expr::Bin {
            op: BinOp::Ne,
            lhs: Box::new(Expr::Var("i".into())),
            rhs: Box::new(Expr::Lit(c)),
        };
        let step2 = step_plus("i", 2);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&ne(10)), Some(&step2), &body),
            Some(5)
        );
        assert_eq!(
            infer_for_bound(Some(&init), Some(&ne(9)), Some(&step2), &body),
            None
        );
    }

    #[test]
    fn zero_or_negative_trip_counts() {
        let init = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(20)),
        };
        let step = step_plus("i", 1);
        let body = Stmt::Block(vec![]);
        assert_eq!(
            infer_for_bound(Some(&init), Some(&cond_lt("i", 10)), Some(&step), &body),
            Some(0)
        );
    }

    #[test]
    fn while_bound_with_trailing_step() {
        let prev = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let body = Stmt::Block(vec![
            Stmt::ExprStmt(Expr::Call {
                func: "work".into(),
                args: vec![],
            }),
            step_plus("i", 1),
        ]);
        assert_eq!(
            infer_while_bound(Some(&prev), &cond_lt("i", 7), &body),
            Some(7)
        );
    }

    #[test]
    fn while_bound_rejects_midbody_writes() {
        let prev = Stmt::Decl {
            name: "i".into(),
            array_len: None,
            init: Some(Expr::Lit(0)),
        };
        let body = Stmt::Block(vec![stmt_assign("i", Expr::Lit(5)), step_plus("i", 1)]);
        assert_eq!(
            infer_while_bound(Some(&prev), &cond_lt("i", 7), &body),
            None
        );
    }
}
