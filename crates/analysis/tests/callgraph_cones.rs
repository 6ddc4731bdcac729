//! Integration tests for the call-graph layer: multi-file fixture
//! crates driven through the full `lint_files` pipeline (lex → item
//! parse → call resolution → cones → rules), plus a property test
//! that reachability is monotone under edge addition.
//!
//! The headline acceptance case lives here: an `unwrap()` injected
//! *three calls below* `serve_batch` — across files — is caught, and
//! the finding cites the full call chain.

use analysis::callgraph::CallGraph;
use analysis::lexer::{lex, Lexed};
use analysis::rules::Finding;
use analysis::{lint_files, Report};

fn report(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    lint_files(&owned)
}

fn findings(files: &[(&str, &str)]) -> Vec<(String, Finding)> {
    report(files).findings
}

fn graph(files: &[(&str, &str)]) -> CallGraph {
    let lexed: Vec<(String, Lexed)> = files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
    let refs: Vec<(String, &Lexed)> = lexed.iter().map(|(p, l)| (p.clone(), l)).collect();
    CallGraph::build(&refs)
}

// ---- cross-file serve cone ---------------------------------------------

/// The acceptance fixture: `serve_batch -> dispatch -> lookup ->
/// fetch`, with the `unwrap()` in `fetch`, three call edges below the
/// root and two files away. The finding must name the deep fn's line
/// and cite a chain anchored at `serve_batch`.
#[test]
fn unwrap_three_calls_below_serve_batch_is_caught() {
    let f = findings(&[
        ("src/serve.rs", "pub fn serve_batch(q: &[u32]) { for &u in q { dispatch(u); } }"),
        (
            "src/dispatch.rs",
            "pub fn dispatch(u: u32) { lookup(u); }\n\
             fn lookup(u: u32) { fetch(u); }\n\
             fn fetch(u: u32) -> u32 { table(u).unwrap() }\n\
             fn table(u: u32) -> Option<u32> { Some(u) }",
        ),
    ]);
    assert_eq!(f.len(), 1, "{f:?}");
    let (file, finding) = &f[0];
    assert_eq!(file, "src/dispatch.rs");
    assert_eq!(finding.rule, "panic-free-serve");
    assert_eq!(finding.line, 3);
    assert!(
        finding.msg.contains("serve_batch -> dispatch -> lookup -> fetch"),
        "finding must cite the call chain: {}",
        finding.msg
    );
}

/// The identical code with the root renamed is outside every cone:
/// reachability, not file location, decides coverage.
#[test]
fn same_code_without_a_root_is_silent() {
    let f = findings(&[
        ("src/serve.rs", "pub fn batch_helper(q: &[u32]) { for &u in q { dispatch(u); } }"),
        (
            "src/dispatch.rs",
            "pub fn dispatch(u: u32) { lookup(u); }\n\
             fn lookup(u: u32) { fetch(u); }\n\
             fn fetch(u: u32) -> u32 { table(u).unwrap() }\n\
             fn table(u: u32) -> Option<u32> { Some(u) }",
        ),
    ]);
    assert!(f.is_empty(), "{f:?}");
}

/// Raw indexing is flagged with the same cross-file reach as panics.
#[test]
fn indexing_deep_in_the_serve_cone_is_caught() {
    let f = findings(&[
        ("src/serve.rs", "pub fn serve_batch(q: &[u32]) { step(q); }"),
        ("src/deep.rs", "pub fn step(q: &[u32]) -> u32 { q[0] }"),
    ]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].1.rule, "panic-free-serve");
    assert!(f[0].1.msg.contains("indexing"), "{}", f[0].1.msg);
}

/// `assert!`, `assert_eq!` and `assert_ne!` on data reached from a
/// serve root are panics like any other; `debug_assert!` compiles out
/// of release builds and stays silent.
#[test]
fn asserts_in_the_serve_cone_are_caught() {
    let f = findings(&[
        ("src/serve.rs", "pub fn serve_batch(q: &[u32]) { check(q); }"),
        (
            "src/check.rs",
            "pub fn check(q: &[u32]) {\n\
             assert!(q.len() > 1);\n\
             assert_eq!(q.len(), 2);\n\
             assert_ne!(q.len(), 3);\n\
             debug_assert!(q.is_empty());\n\
             }",
        ),
    ]);
    let lines: Vec<u32> = f.iter().map(|(_, x)| x.line).collect();
    assert_eq!(lines, vec![2, 3, 4], "{f:?}");
    assert!(f.iter().all(|(_, x)| x.rule == "panic-free-serve" && x.msg.contains("assert")));
    assert!(f[0].1.msg.contains("serve_batch -> check"), "{}", f[0].1.msg);
}

/// The repair cone checks panics but not asserts: repair re-runs the
/// builder, whose asserts check its own output, not stored bytes.
#[test]
fn asserts_in_the_repair_cone_are_not_counted() {
    let f = findings(&[(
        "crates/core/src/repair.rs",
        "struct Scheme;\n\
         impl Scheme { pub fn repair(&mut self, n: usize) { rebuild(n); } }\n\
         fn rebuild(n: usize) { assert!(n > 0); let x: Option<u32> = None; x.unwrap(); }",
    )]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert!(f[0].1.msg.contains("unwrap"), "{}", f[0].1.msg);
}

/// A reasoned validate-then-index pragma suppresses an assert like any
/// other serve-cone finding.
#[test]
fn a_pragma_covers_a_checked_assert() {
    let f = findings(&[(
        "src/serve.rs",
        "pub fn serve_batch(q: &[u32]) {\n\
         // lint:allow(panic-free-serve): validate-then-index — callers pass validated input\n\
         assert!(!q.is_empty());\n\
         }",
    )]);
    assert!(f.is_empty(), "{f:?}");
}

// ---- collisions and trait objects --------------------------------------

/// A method-name collision must land in the ambiguous bucket and emit
/// NO edge: flagging `A::pick` because `B::pick` happens to share the
/// name would be misattribution, so both bodies stay uncovered (and
/// the bucket makes that auditable).
#[test]
fn method_collision_is_ambiguous_not_a_wrong_edge() {
    let files = [(
        "src/a.rs",
        "struct A; struct B;\n\
         impl A { fn pick(&self) -> u32 { self.v.unwrap() } }\n\
         impl B { fn pick(&self) -> u32 { 0 } }\n\
         pub fn serve_batch(a: &A) { a.pick(); }",
    )];
    let f = findings(&files);
    assert!(f.is_empty(), "colliding method must not be pulled into the cone: {f:?}");
    let g = graph(&files);
    assert_eq!(g.ambiguous.len(), 1);
    assert_eq!(g.ambiguous[0].name, "pick");
    assert_eq!(g.ambiguous[0].candidates.len(), 2);
    let caller = &g.fns[g.ambiguous[0].caller];
    assert_eq!(caller.item.name, "serve_batch");
}

/// The same call with a `Type::` qualifier resolves, and the unwrap
/// in the chosen impl is then covered.
#[test]
fn qualified_collision_resolves_and_is_covered() {
    let f = findings(&[(
        "src/a.rs",
        "struct A; struct B;\n\
         impl A { fn pick(&self) -> u32 { self.v.unwrap() } }\n\
         impl B { fn pick(&self) -> u32 { 0 } }\n\
         pub fn serve_batch(a: &A) { A::pick(a); }",
    )]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].1.rule, "panic-free-serve");
    assert_eq!(f[0].1.line, 2);
}

/// Trait-object dispatch is the documented blind spot: the receiver's
/// concrete type is unknowable without type inference, so the call is
/// recorded as ambiguous (every impl a candidate) rather than edged
/// to an arbitrary impl.
#[test]
fn trait_object_call_lands_in_ambiguous_bucket() {
    let files = [(
        "src/a.rs",
        "trait Router { fn decide(&self) -> u32; }\n\
         struct Fast; struct Slow;\n\
         impl Router for Fast { fn decide(&self) -> u32 { self.t.unwrap() } }\n\
         impl Router for Slow { fn decide(&self) -> u32 { 1 } }\n\
         pub fn serve_batch(r: &dyn Router) { r.decide(); }",
    )];
    let f = findings(&files);
    assert!(f.is_empty(), "dyn dispatch must not guess an impl: {f:?}");
    let g = graph(&files);
    let amb: Vec<_> = g.ambiguous.iter().filter(|a| a.name == "decide").collect();
    assert_eq!(amb.len(), 1);
    // Both inherent impls and the trait declaration's signature-only
    // fn (no body) are candidates; at least the two impls must be.
    assert!(amb[0].candidates.len() >= 2);
}

// ---- recursion ---------------------------------------------------------

/// Recursive fns terminate the BFS and are covered exactly once.
#[test]
fn recursive_fn_in_cone_fires_once() {
    let f = findings(&[(
        "src/a.rs",
        "pub fn serve_batch(n: u32) { step(n); }\n\
         fn step(n: u32) { if n > 0 { step(n - 1); } probe(n).unwrap(); }\n\
         fn probe(n: u32) -> Option<u32> { Some(n) }",
    )]);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].1.line, 2);
}

/// Mutual recursion across files also terminates.
#[test]
fn mutual_recursion_across_files_terminates() {
    let files = [
        ("src/a.rs", "pub fn serve_batch(n: u32) { ping(n); }\npub fn ping(n: u32) { if n > 0 { pong(n - 1); } }"),
        ("src/b.rs", "pub fn pong(n: u32) { ping(n); bad(n).unwrap(); }\nfn bad(n: u32) -> Option<u32> { Some(n) }"),
    ];
    let f = findings(&files);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].0, "src/b.rs");
}

// ---- reachability is monotone ------------------------------------------

/// Small deterministic generator (no external proptest dep).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// Render a random call graph as source: `n` fns, calling per `adj`.
fn synth(n: usize, adj: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("fn f{i}() {{ "));
        for &(c, d) in adj.iter().filter(|&&(c, _)| c == i) {
            assert_eq!(c, i);
            src.push_str(&format!("f{d}(); "));
        }
        src.push_str("}\n");
    }
    src
}

/// Property: adding one call edge never shrinks the reachable set —
/// checked through the whole pipeline (source → lexer → item parser →
/// resolver → BFS), not on a hand-built adjacency list.
#[test]
fn reachability_is_monotone_under_edge_addition() {
    let mut rng = Lcg(0x5eed_cafe);
    for _case in 0..40 {
        let n = 4 + rng.below(10); // 4..14 fns
        let m = rng.below(2 * n as u64 + 1);
        let mut adj: Vec<(usize, usize)> = Vec::new();
        for _ in 0..m {
            adj.push((rng.below(n as u64), rng.below(n as u64)));
        }
        let roots_src = [0usize, rng.below(n as u64)];

        let g0 = graph(&[("src/a.rs", &synth(n, &adj))]);
        let roots: Vec<usize> =
            roots_src.iter().map(|&r| g0.find(|x| x.item.name == format!("f{r}"))[0]).collect();
        let before: std::collections::HashSet<String> =
            g0.reachable(&roots).keys().map(|&k| g0.fns[k].item.name.clone()).collect();

        // Add one random edge and rebuild.
        adj.push((rng.below(n as u64), rng.below(n as u64)));
        let g1 = graph(&[("src/a.rs", &synth(n, &adj))]);
        let roots1: Vec<usize> =
            roots_src.iter().map(|&r| g1.find(|x| x.item.name == format!("f{r}"))[0]).collect();
        let after: std::collections::HashSet<String> =
            g1.reachable(&roots1).keys().map(|&k| g1.fns[k].item.name.clone()).collect();

        assert!(
            before.is_subset(&after),
            "edge addition shrank reachability: {before:?} vs {after:?} (adj {adj:?})"
        );

        // Monotone in roots too: a superset of roots reaches a
        // superset of fns.
        let extra = format!("f{}", rng.below(n as u64));
        let mut more_roots = roots1.clone();
        more_roots.push(g1.find(|x| x.item.name == extra)[0]);
        let wider: std::collections::HashSet<String> =
            g1.reachable(&more_roots).keys().map(|&k| g1.fns[k].item.name.clone()).collect();
        assert!(after.is_subset(&wider));
    }
}

// ---- report summary counters -------------------------------------------

/// The report's graph counters reflect the fixture (the CI summary
/// line and acceptance floor "call graph covers every non-shim fn"
/// depend on these being real).
#[test]
fn report_counts_fns_and_edges() {
    let r = report(&[
        ("src/a.rs", "fn top() { helper(); }"),
        ("src/b.rs", "pub fn helper() { leaf(); } fn leaf() {}"),
    ]);
    assert_eq!(r.fns, 3);
    assert_eq!(r.edges, 2);
    assert_eq!(r.files, 2);
}
