//! The four interprocedural rules: panic-reachability over the
//! serve/repair cones, determinism taint into save sinks, allocation
//! discipline in the route-hot cone, and octave/weight arithmetic
//! taint.
//!
//! Each rule is a reachability cone over [`crate::callgraph`] plus a
//! token predicate applied to every fn body inside the cone:
//!
//! | rule | roots | what fires |
//! |---|---|---|
//! | `panic-free-serve` | `route` methods, `serve_batch`, `from_wire`, `Scheme::repair` | `unwrap`/`expect`, panic macros; `assert*!` and raw `[..]` indexing in the serve cone only |
//! | `deterministic-output` | `save`, `to_wire`, `encode_*`, `write_*`, `render_*` | `HashMap`/`HashSet` mention, `.keys()`, `.values()` |
//! | `no-alloc-in-route` | `route` methods | `Vec::new`, `vec!`, `.to_vec()`, `format!`, `.clone()`, `Box::new`; stops at decode constructors ([`alloc_cold`]) |
//! | `octave-taint` | (per-fn dataflow, no cone) | `+`/`<<` on a value derived from `octave_radius` |
//!
//! The **repair cone** (`Scheme::repair`) deliberately checks only
//! panics, not raw indexing: repair re-enters the whole construction
//! pipeline, whose CSR-arena index arithmetic is bounds-correct by
//! construction and exercised by every build test — flagging hundreds
//! of those sites would drown the signal. The **serve cone** (route /
//! serve_batch / from_wire) gets full strictness including indexing:
//! those paths face adversarial input (corrupt snapshots) and
//! long-lived uptime, where a single panicking index is an outage.
//!
//! Root selection is restricted to the serving crates (`core`,
//! `treeroute`, `graphkit`, `sim`) so the offline baselines — which
//! also implement `Router::route` — don't drag their Dijkstra arenas
//! into the cone.

use std::collections::HashMap;

use crate::callgraph::CallGraph;
use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::{matching_paren, save_fn, test_path, Finding};

/// Allocation constructors flagged by `no-alloc-in-route`.
const ALLOC_HEADS: [&str; 4] = ["to_vec", "clone", "to_string", "to_owned"];

/// Is this file allowed to contribute cone roots? (The baselines
/// crate implements `Router::route` too, but is explicitly out of
/// scope — it exists to be compared against, not served.)
fn cone_crate(path: &str) -> bool {
    !path.starts_with("crates/")
        || ["crates/core/", "crates/treeroute/", "crates/graphkit/", "crates/sim/"]
            .iter()
            .any(|p| path.starts_with(p))
}

/// Home of `octave_radius`/`cost_add`: arithmetic here *defines* the
/// blessed operations, so octave-taint does not apply.
fn octave_home(path: &str) -> bool {
    path.ends_with("graphkit/src/ids.rs")
}

/// Cold boundary for `no-alloc-in-route`: decode constructors rebuild
/// whole stores and allocate by design, off the per-hop path, so the
/// allocation cone stops there. `panic-free-serve` still covers these
/// fns via its own decode roots.
fn alloc_cold(name: &str) -> bool {
    name.starts_with("from_") || name.starts_with("try_from_")
}

/// Run all four interprocedural rules. `sources` maps each relative
/// path to its lexed tokens (the same ones the graph was built from).
pub fn run_interproc(g: &CallGraph, sources: &HashMap<String, &Lexed>) -> Vec<(String, Finding)> {
    let serve_roots = g.find(|n| {
        !n.item.in_tests
            && !test_path(&n.file)
            && cone_crate(&n.file)
            && (n.item.name == "serve_batch"
                || n.item.name == "from_wire"
                || (n.item.name == "route" && n.item.owner.is_some())
                // Snapshot loading is the other decode entry.
                || ((n.item.name == "load" || n.item.name == "load_lazy")
                    && n.item.owner.is_some())
                // The wire primitive layer is rooted directly:
                // Reader and Writer mirror method names (u32 reads /
                // u32 writes — deliberate API symmetry), so every
                // `.u32()` call is two-candidate ambiguous and the
                // resolver refuses the edge. Rooting Reader keeps the
                // primitive decode surface inside the cone anyway.
                || (n.item.owner.as_deref() == Some("Reader") && n.file.ends_with("wire.rs")))
    });
    // from_wire is a universal decode contract: root it everywhere,
    // even outside the serving crates.
    let decode_roots =
        g.find(|n| !n.item.in_tests && !test_path(&n.file) && n.item.name == "from_wire");
    let serve_roots: Vec<usize> = {
        let mut r = serve_roots;
        r.extend(decode_roots);
        r.sort_unstable();
        r.dedup();
        r
    };
    let repair_roots = g.find(|n| {
        !n.item.in_tests
            && !test_path(&n.file)
            && cone_crate(&n.file)
            && n.item.name == "repair"
            && n.item.owner.is_some()
    });
    let route_roots = g.find(|n| {
        !n.item.in_tests
            && !test_path(&n.file)
            && cone_crate(&n.file)
            && n.item.name == "route"
            && n.item.owner.is_some()
    });
    let save_roots = g.find(|n| !n.item.in_tests && !test_path(&n.file) && save_fn(&n.item.name));

    let serve_pred = g.reachable(&serve_roots);
    let repair_pred = g.reachable(&repair_roots);
    let route_pred = g.reachable_except(&route_roots, |n| alloc_cold(&n.item.name));
    let save_pred = g.reachable(&save_roots);

    let mut out: Vec<(String, Finding)> = Vec::new();
    for (i, node) in g.fns.iter().enumerate() {
        if node.item.in_tests || test_path(&node.file) {
            continue;
        }
        let Some((bs, be)) = node.item.body else { continue };
        let Some(lx) = sources.get(&node.file) else { continue };
        let body = &lx.toks[bs..=be.min(lx.toks.len() - 1)];

        let in_serve = serve_pred.contains_key(&i);
        let in_repair = repair_pred.contains_key(&i);
        if in_serve || in_repair {
            let (pred, cone) =
                if in_serve { (&serve_pred, "serve") } else { (&repair_pred, "repair") };
            let chain = g.chain(pred, i);
            scan_panic_sites(body, in_serve, cone, &chain, |f| out.push((node.file.clone(), f)));
        }
        if save_pred.contains_key(&i) {
            let chain = g.chain(&save_pred, i);
            scan_unordered_iteration(body, &chain, |f| out.push((node.file.clone(), f)));
        }
        if route_pred.contains_key(&i) {
            let chain = g.chain(&route_pred, i);
            scan_allocations(body, &chain, |f| out.push((node.file.clone(), f)));
        }
        if !octave_home(&node.file)
            && node.item.name != "octave_radius"
            && node.item.name != "cost_add"
        {
            scan_octave_taint(body, |f| out.push((node.file.clone(), f)));
        }
    }
    out
}

/// Token index ranges covered by `debug_assert*!(…)` invocations —
/// their argument expressions are compiled out of release builds, so
/// panic/indexing rules skip them.
fn debug_assert_spans(body: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..body.len() {
        if body[i].kind == TokKind::Ident
            && matches!(
                body[i].text.as_str(),
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
            )
            && body.get(i + 1).is_some_and(|t| t.text == "!")
            && body.get(i + 2).is_some_and(|t| t.text == "(")
        {
            if let Some(close) = matching_paren(body, i + 2) {
                spans.push((i, close));
            }
        }
    }
    spans
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(s, e)| s <= i && i <= e)
}

/// `panic-free-serve`: unwrap/expect, panic macros, and (serve cone
/// only) `assert!`/`assert_eq!`/`assert_ne!` and raw indexing.
fn scan_panic_sites(
    body: &[Tok],
    strict_indexing: bool,
    cone: &str,
    chain: &str,
    mut emit: impl FnMut(Finding),
) {
    let dbg = debug_assert_spans(body);
    for i in 0..body.len() {
        if in_spans(&dbg, i) {
            continue;
        }
        let t = &body[i];
        let nxt = |k: usize| body.get(i + k).map(|t| t.text.as_str());
        let msg: Option<String> = if t.kind == TokKind::Punct
            && t.text == "."
            && body.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && (n.text == "unwrap" || n.text == "expect")
            })
            && nxt(2) == Some("(")
        {
            Some(format!(
                "`.{}()` in the {cone} cone ({chain}): a corrupt store or lost worker must \
                 surface as an error or fallback, never a panic",
                body[i + 1].text
            ))
        } else if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && nxt(1) == Some("!")
        {
            Some(format!(
                "`{}!` in the {cone} cone ({chain}): return an error/fallback outcome instead",
                t.text
            ))
        } else if strict_indexing
            && t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "assert" | "assert_eq" | "assert_ne")
            && nxt(1) == Some("!")
        {
            // Serve cone only: repair's construction-invariant asserts
            // check the builder's own output, not adversarial bytes.
            Some(format!(
                "`{}!` in the serve cone ({chain}): an assertion on stored or caller data \
                 panics on corrupt input; check it and return an error/fallback instead",
                t.text
            ))
        } else if strict_indexing
            && t.kind == TokKind::Punct
            && t.text == "["
            && i > 0
            && (body[i - 1].kind == TokKind::Ident
                || body[i - 1].text == ")"
                || body[i - 1].text == "]"
                || body[i - 1].text == "?")
            // A keyword before `[` is a slice pattern or array
            // expression (`let [a, b] = …`, `for [x, y] in …`), not an
            // index on a receiver.
            && !matches!(
                body[i - 1].text.as_str(),
                "vec" | "let" | "else" | "in" | "if" | "while" | "for" | "match" | "return"
                    | "mut" | "ref" | "move" | "box"
            )
        {
            Some(format!(
                "raw `[..]` indexing in the serve cone ({chain}): can panic on corrupt input; \
                 use `get()` with a documented fallback"
            ))
        } else {
            None
        };
        if let Some(msg) = msg {
            emit(Finding { rule: "panic-free-serve", line: t.line, msg });
        }
    }
}

/// `deterministic-output`: unordered-map iteration anywhere in a save
/// sink's cone.
fn scan_unordered_iteration(body: &[Tok], chain: &str, mut emit: impl FnMut(Finding)) {
    for i in 0..body.len() {
        let t = &body[i];
        let unordered_ty = t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet");
        let unordered_iter = t.kind == TokKind::Punct
            && t.text == "."
            && body.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && (n.text == "keys" || n.text == "values")
            })
            && body.get(i + 2).is_some_and(|n| n.text == "(");
        if unordered_ty || unordered_iter {
            emit(Finding {
                rule: "deterministic-output",
                line: t.line,
                msg: format!(
                    "unordered HashMap/HashSet feeding a serialization sink ({chain}) breaks \
                     byte-deterministic saves; sort keys before writing (and document with a \
                     pragma)"
                ),
            });
        }
    }
}

/// `no-alloc-in-route`: allocation constructors in the route-hot cone.
fn scan_allocations(body: &[Tok], chain: &str, mut emit: impl FnMut(Finding)) {
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let nxt = |k: usize| body.get(i + k).map(|t| t.text.as_str());
        let hit: Option<&str> = if (t.text == "Vec" || t.text == "Box" || t.text == "String")
            && nxt(1) == Some(":")
            && nxt(2) == Some(":")
            && matches!(nxt(3), Some("new") | Some("with_capacity"))
        {
            Some("container constructor")
        } else if (t.text == "vec" || t.text == "format") && nxt(1) == Some("!") {
            Some("allocating macro")
        } else if ALLOC_HEADS.contains(&t.text.as_str())
            && i > 0
            && body[i - 1].text == "."
            && nxt(1) == Some("(")
        {
            Some("allocating method")
        } else {
            None
        };
        if let Some(kind) = hit {
            emit(Finding {
                rule: "no-alloc-in-route",
                line: t.line,
                msg: format!(
                    "{kind} `{}` in the route-hot cone ({chain}): reuse a scratch buffer or \
                     justify with a pragma (per-route output buffers are legitimate)",
                    t.text
                ),
            });
        }
    }
}

/// `octave-taint`: intra-fn forward dataflow from `octave_radius`
/// results into raw `+`/`<<` arithmetic. Radius values saturate at
/// `u64::MAX`, so any unchecked addition on one can wrap; sums must go
/// through `graphkit::ids::cost_add`.
fn scan_octave_taint(body: &[Tok], mut emit: impl FnMut(Finding)) {
    // Pass 1: collect tainted let-bindings (two sweeps so a taint
    // introduced late still propagates through earlier-scanned
    // bindings on the second sweep — enough for straight-line code).
    let mut tainted: Vec<String> = Vec::new();
    for _ in 0..2 {
        let mut i = 0usize;
        while i < body.len() {
            if body[i].kind == TokKind::Ident && body[i].text == "let" {
                let mut j = i + 1;
                while body.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                let var = match body.get(j) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                // Scan the initializer up to the statement `;`.
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut hit = false;
                while let Some(t) = body.get(k) {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => break,
                        _ => {}
                    }
                    if t.kind == TokKind::Ident
                        && (t.text == "octave_radius" || tainted.contains(&t.text))
                    {
                        hit = true;
                    }
                    k += 1;
                }
                if hit && !tainted.contains(&var) {
                    tainted.push(var);
                }
                i = k;
                continue;
            }
            i += 1;
        }
    }

    // Pass 2: flag `+`/`<<` whose operand is tainted or a direct
    // `octave_radius(..)` result.
    let flag_line = |emit: &mut dyn FnMut(Finding), line: u32, what: &str| {
        emit(Finding {
            rule: "octave-taint",
            line,
            msg: format!(
                "raw arithmetic on {what}: octave radii saturate at u64::MAX, so `+`/`<<` can \
                 wrap; use graphkit::ids::cost_add"
            ),
        });
    };
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind == TokKind::Punct && (t.text == "+" || t.text == "<<") {
            let prev_tainted =
                i > 0 && body[i - 1].kind == TokKind::Ident && tainted.contains(&body[i - 1].text);
            let next_tainted = body
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && tainted.contains(&n.text));
            let next_call = body
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Ident && n.text == "octave_radius");
            if prev_tainted || next_tainted || next_call {
                flag_line(&mut emit, t.line, "an octave-radius-derived value");
            }
        }
        // `octave_radius(..) + x` / `octave_radius(..) << x`.
        if t.kind == TokKind::Ident
            && t.text == "octave_radius"
            && body.get(i + 1).is_some_and(|n| n.text == "(")
        {
            if let Some(close) = matching_paren(body, i + 1) {
                if body.get(close + 1).is_some_and(|n| n.text == "+" || n.text == "<<") {
                    flag_line(&mut emit, body[close + 1].line, "an octave_radius() result");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn taint(src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let mut out = Vec::new();
        scan_octave_taint(&lx.toks, |f| out.push(f));
        out
    }

    #[test]
    fn octave_taint_flows_through_lets() {
        let f = taint("fn f(o: u32) { let r = octave_radius(o); let d = base(r); let s = d + 1; }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("cost_add"));
    }

    #[test]
    fn octave_taint_direct_result_addition() {
        let f = taint("fn f(o: u32) { let s = octave_radius(o) + 1; }");
        // Fires twice is fine conceptually, but dedupe expectations:
        assert!(!f.is_empty());
    }

    #[test]
    fn octave_taint_silent_on_cost_add_usage() {
        let f = taint("fn f(o: u32) { let r = octave_radius(o); let s = cost_add(d, r); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn octave_taint_untainted_arithmetic_is_fine() {
        assert!(taint("fn f(a: u64, b: u64) -> u64 { a + b }").is_empty());
    }
}
