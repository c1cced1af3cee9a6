//! The random Mini-C kernel generator shared by the dataflow oracle, the
//! pass-framework differential suite and the compiler's own reference
//! tests for `gvn`/`load_fwd`.
//!
//! Every kernel defines `int f(int x, int y)` with a branch, a bounded
//! loop over a global buffer, random arithmetic and optional calls. On
//! top of that come the memory shapes store-to-load forwarding acts on,
//! each switched on independently:
//!
//! * constant-index stores and loads on a global array, optionally
//!   behind a branch;
//! * a zero-initialised local array read at a stored and an unstored
//!   cell;
//! * an array parameter that aliases a global (`mix(tab, …)` stores
//!   through `a[]` between a store to `tab` and its reload);
//! * a call between a store and its load, and between two loads of
//!   the cell the callee writes (`poke` writes `tab`).

use proptest::prelude::*;

/// Small Mini-C kernels: `f(x, y)` plus its helpers.
pub fn arb_kernel() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-50i32..50).prop_map(|v| v.to_string()),
        Just("x".to_string()),
        Just("y".to_string()),
        Just("acc".to_string()),
    ];
    let op = prop_oneof![Just("+"), Just("-"), Just("*"), Just("&"), Just("^")];
    let expr = (leaf.clone(), op, leaf).prop_map(|(a, op, b)| format!("(({a}) {op} ({b}))"));
    (
        proptest::collection::vec(expr, 1..4),
        2u32..7,
        proptest::collection::vec(any::<bool>(), 7),
        proptest::collection::vec(0usize..4, 6),
        proptest::collection::vec(0usize..6, 2),
    )
        .prop_map(|(exprs, bound, flags, cell, local)| {
            let [with_if, with_call, global, guarded, local_array, alias, store_call] =
                flags[..].try_into().expect("seven flags");
            let mut body = String::from("int acc = x ^ 5;\n");
            if local_array {
                body.push_str("    int loc[6];\n");
            }
            if with_if {
                body.push_str("    if (y > 0) { acc = acc + y; } else { acc = acc - 1; }\n");
            }
            body.push_str(&format!(
                "    for (int i = 0; i < {bound}; i = i + 1) {{ buf[i % 8] = acc; acc = acc + buf[(i + 3) % 8] + i; }}\n"
            ));
            if global {
                body.push_str(&format!("    tab[{}] = x;\n", cell[0]));
                let store = format!("tab[{}] = y + 1;", cell[1]);
                if guarded {
                    body.push_str(&format!("    if (x > y) {{ {store} }}\n"));
                } else {
                    body.push_str(&format!("    {store}\n"));
                }
                body.push_str(&format!(
                    "    acc = acc + tab[{}] * 3 + tab[{}];\n",
                    cell[0], cell[1]
                ));
            }
            if local_array {
                body.push_str(&format!(
                    "    loc[{}] = acc;\n    acc = acc + loc[{}] + loc[{}];\n",
                    local[0], local[0], local[1]
                ));
            }
            if alias {
                body.push_str(&format!(
                    "    tab[{}] = y;\n    acc = acc + mix(tab, acc) + tab[{}];\n",
                    cell[2], cell[2]
                ));
            }
            if store_call {
                body.push_str(&format!(
                    "    tab[{c}] = acc;\n    acc = acc + tab[{p}] + poke(y) + tab[{c}] + tab[{p}];\n",
                    c = cell[3],
                    p = cell[4],
                ));
            }
            for (k, e) in exprs.iter().enumerate() {
                body.push_str(&format!("    acc = acc ^ ({e}) * {};\n", k as i32 + 1));
            }
            if with_call {
                body.push_str("    acc = acc + twist(acc, y);\n");
            }
            format!(
                "int buf[8];\n\
                 int tab[4];\n\
                 int twist(int a, int b) {{ return (a << 1) ^ (b & 0xFF); }}\n\
                 int poke(int v) {{ tab[{p}] = v; return v + 1; }}\n\
                 int mix(int a[], int v) {{ tab[{j}] = v + 3; a[{i}] = v; return tab[{j}] + a[{i}] + a[{k}]; }}\n\
                 int f(int x, int y) {{\n    {body}\n    return acc;\n}}",
                p = cell[4],
                i = cell[5],
                j = cell[0],
                k = cell[1],
            )
        })
}
