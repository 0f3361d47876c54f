//! Fixture tests for the hot-path discipline analyzer (L010/L011/L012):
//! call-graph construction edge cases, conservative over-approximation
//! guarantees, and lock-order cycle detection on seeded deadlocks.
//!
//! The analyzer's contract is *conservative over-approximation*: a call
//! that cannot be resolved precisely is resolved to every in-workspace
//! candidate (never silently dropped), and calls with zero candidates
//! are counted in `analyzer.unresolved` instead of being hidden.

use std::time::{Duration, Instant};

use vortex_devtools::baseline::Counts;
use vortex_devtools::callgraph::{analyze_texts, AnalyzerStats};
use vortex_devtools::rules::Violation;
use vortex_devtools::{scan_workspace, workspace_root_from_manifest, ScanReport};

/// One non-test production file in crate `vortex-wos`.
fn one(src: &str) -> (Vec<Violation>, AnalyzerStats) {
    analyze_texts(&[("crates/wos/src/x.rs", "vortex-wos", false, src)])
}

fn rules_of(vs: &[Violation]) -> Vec<&'static str> {
    vs.iter().map(|v| v.rule).collect()
}

// ------------------------------------------------- L010 reachability

#[test]
fn l010_direct_alloc_in_root() {
    let src = "\
// lint:hotpath(append)
fn root() { let _v = Vec::new(); }
";
    let (vs, stats) = one(src);
    assert_eq!(rules_of(&vs), ["L010"]);
    assert!(vs[0].message.contains("Vec::new("), "{}", vs[0].message);
    assert!(vs[0].message.contains("`append`"), "{}", vs[0].message);
    assert_eq!(stats.roots, 1);
}

#[test]
fn l010_reaches_through_helper_with_chain() {
    let src = "\
// lint:hotpath(append)
fn root() { helper(); }
fn helper() { deep(); }
fn deep() { let _s = String::new(); }
";
    let (vs, _) = one(src);
    assert_eq!(rules_of(&vs), ["L010"]);
    assert!(
        vs[0].message.contains("root → helper → deep"),
        "chain missing: {}",
        vs[0].message
    );
}

#[test]
fn l010_cross_crate_call_resolves() {
    let caller = "\
// lint:hotpath(append)
pub fn root() { vortex_wos::encode(); }
";
    let callee = "pub fn encode() { let _b = vec![0u8; 16]; }\n";
    let (vs, _) = analyze_texts(&[
        ("crates/server/src/a.rs", "vortex-server", false, caller),
        ("crates/wos/src/b.rs", "vortex-wos", false, callee),
    ]);
    assert_eq!(rules_of(&vs), ["L010"]);
    assert_eq!(vs[0].crate_name, "vortex-wos");
    assert!(vs[0].message.contains("root → encode"), "{}", vs[0].message);
}

#[test]
fn unreachable_alloc_is_silent() {
    let src = "\
// lint:hotpath(append)
fn root() {}
fn cold() { let _v = Vec::new(); }
";
    let (vs, stats) = one(src);
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(stats.reachable, 1);
    assert_eq!(stats.functions, 2);
}

// ------------------------------- resolution: methods vs functions

#[test]
fn method_call_over_approximates_to_all_same_name_fns() {
    // A method call `x.encode()` cannot be typed by a lexer-level
    // analyzer: it must resolve to EVERY fn named `encode`, so the
    // alloc inside either candidate is flagged (never dropped).
    let src = "\
// lint:hotpath(append)
fn root(x: Foo) { x.encode(); }
struct Foo;
impl Foo { fn encode(&self) {} }
struct Bar;
impl Bar { fn encode(&self) { let _v = Vec::new(); } }
";
    let (vs, _) = one(src);
    assert_eq!(rules_of(&vs), ["L010"]);
    assert!(
        vs[0].message.contains("Bar::encode"),
        "conservative edge dropped: {}",
        vs[0].message
    );
}

#[test]
fn qualified_call_prefers_owner_match() {
    // `Foo::encode()` resolves to the Foo impl specifically — the Bar
    // impl's alloc must NOT fire.
    let src = "\
// lint:hotpath(append)
fn root() { Foo::encode(); }
struct Foo;
impl Foo { fn encode() {} }
struct Bar;
impl Bar { fn encode() { let _v = Vec::new(); } }
";
    let (vs, _) = one(src);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn trait_method_reaches_every_impl() {
    let src = "\
// lint:hotpath(scan)
fn root(c: &dyn Codec) { c.decode(); }
trait Codec { fn decode(&self); }
struct A;
impl Codec for A { fn decode(&self) {} }
struct B;
impl Codec for B { fn decode(&self) { let _s = format!(\"x\"); } }
";
    let (vs, _) = one(src);
    assert_eq!(rules_of(&vs), ["L010"]);
    assert!(vs[0].message.contains("B::decode"), "{}", vs[0].message);
}

#[test]
fn closure_body_is_scanned_as_part_of_enclosing_fn() {
    // Closures are not separate graph nodes; their bodies belong to the
    // enclosing fn, so an alloc inside a closure passed to a helper
    // still fires at the enclosing (reachable) fn.
    let src = "\
// lint:hotpath(append)
fn root() { run(|| { let _v = Vec::new(); }); }
fn run(f: impl Fn()) { f(); }
";
    let (vs, _) = one(src);
    assert_eq!(rules_of(&vs), ["L010"]);
}

#[test]
fn recursion_terminates_and_still_flags() {
    let src = "\
// lint:hotpath(append)
fn root(n: u32) { if n > 0 { root(n - 1); } leaf(); }
fn leaf() { let _v = Vec::new(); }
";
    let (vs, _) = one(src);
    assert_eq!(rules_of(&vs), ["L010"]);
}

#[test]
fn unresolved_external_calls_are_counted_not_hidden() {
    let src = "\
// lint:hotpath(append)
fn root() { std::process::abort(); }
";
    let (vs, stats) = one(src);
    assert!(vs.is_empty(), "{vs:?}");
    assert!(
        stats.unresolved > 0,
        "external call must count as unresolved"
    );
}

#[test]
fn test_fns_are_excluded_from_the_graph() {
    let src = "\
// lint:hotpath(append)
fn root() { helper(); }
fn helper() {}
#[cfg(test)]
mod tests {
    fn helper() { let _v = Vec::new(); }
}
";
    let (vs, stats) = one(src);
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(stats.functions, 2);
}

// ----------------------------------------------------------- L011

#[test]
fn l011_lock_through_helper() {
    let src = "\
// lint:hotpath(scan)
fn root(s: &S) { s.snapshot(); }
struct S { m: std::sync::Mutex<u32> }
impl S { fn snapshot(&self) -> u32 { *self.m.lock().unwrap() } }
";
    let (vs, _) = one(src);
    assert!(rules_of(&vs).contains(&"L011"), "{vs:?}");
    let l011 = vs.iter().find(|v| v.rule == "L011").unwrap();
    assert!(
        l011.message.contains("root → S::snapshot"),
        "{}",
        l011.message
    );
}

#[test]
fn l011_suppression_is_honored() {
    let src = "\
// lint:hotpath(scan)
fn root(s: &S) { s.snapshot(); }
struct S { m: std::sync::Mutex<u32> }
impl S {
    fn snapshot(&self) -> u32 {
        // lint:allow(L011, coarse per-streamlet lock is the design)
        *self.m.lock().unwrap()
    }
}
";
    let (vs, _) = one(src);
    assert!(!rules_of(&vs).contains(&"L011"), "{vs:?}");
}

// ---------------------------------------------- hotpath annotations

#[test]
fn dangling_hotpath_annotation_is_l000() {
    let src = "// lint:hotpath(append)\n\nstruct NotAFn;\n";
    let (vs, stats) = one(src);
    assert_eq!(rules_of(&vs), ["L000"]);
    assert_eq!(stats.roots, 0);
}

#[test]
fn malformed_hotpath_name_is_l000() {
    let src = "// lint:hotpath(Fast Path!)\nfn root() {}\n";
    let (vs, _) = one(src);
    assert_eq!(rules_of(&vs), ["L000"]);
}

// ----------------------------------------------------------- L012

#[test]
fn l012_flags_seeded_ab_ba_deadlock() {
    let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
fn fwd(s: &S) {
    let ga = s.a.lock().unwrap();
    let _gb = s.b.lock().unwrap();
    drop(ga);
}
fn rev(s: &S) {
    let gb = s.b.lock().unwrap();
    let _ga = s.a.lock().unwrap();
    drop(gb);
}
";
    let (vs, stats) = one(src);
    assert_eq!(rules_of(&vs), ["L012"], "{vs:?}");
    assert!(
        vs[0].message.contains("lock-order cycle"),
        "{}",
        vs[0].message
    );
    assert!(stats.lock_edges >= 2, "stats: {stats:?}");
}

#[test]
fn l012_silent_on_consistent_global_order() {
    let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
fn one(s: &S) {
    let ga = s.a.lock().unwrap();
    let _gb = s.b.lock().unwrap();
    drop(ga);
}
fn two(s: &S) {
    let ga = s.a.lock().unwrap();
    let _gb = s.b.lock().unwrap();
    drop(ga);
}
";
    let (vs, _) = one(src);
    assert!(vs.is_empty(), "{vs:?}");
}

#[test]
fn l012_drop_ends_the_guard_scope() {
    // `drop(ga)` before the second acquisition: no nesting, no edge.
    let src = "\
struct S { a: std::sync::Mutex<u32>, b: std::sync::Mutex<u32> }
fn fwd(s: &S) {
    let ga = s.a.lock().unwrap();
    drop(ga);
    let _gb = s.b.lock().unwrap();
}
fn rev(s: &S) {
    let gb = s.b.lock().unwrap();
    drop(gb);
    let _ga = s.a.lock().unwrap();
}
";
    let (vs, stats) = one(src);
    assert!(vs.is_empty(), "{vs:?}");
    assert_eq!(stats.lock_edges, 0, "stats: {stats:?}");
}

#[test]
fn l012_cross_crate_cycle_is_workspace_global() {
    let fwd = "\
pub struct S { pub a: std::sync::Mutex<u32>, pub b: std::sync::Mutex<u32> }
pub fn fwd(s: &S) {
    let _ga = s.a.lock().unwrap();
    let _gb = s.b.lock().unwrap();
}
";
    let rev = "\
pub fn rev(s: &vortex_wos::S) {
    let _gb = s.b.lock().unwrap();
    let _ga = s.a.lock().unwrap();
}
";
    let (vs, _) = analyze_texts(&[
        ("crates/wos/src/x.rs", "vortex-wos", false, fwd),
        ("crates/sms/src/y.rs", "vortex-sms", false, rev),
    ]);
    assert_eq!(rules_of(&vs), ["L012"], "{vs:?}");
}

// ------------------------------------------------- analyzer stats

#[test]
fn full_workspace_analysis_stays_in_wall_clock_budget() {
    // The analyzer runs on every `cargo test` and in CI: it must stay
    // interactive. Budget: one full-workspace scan (lex + parse + graph
    // + reachability + lock-order) in well under 10 seconds.
    let root = workspace_root_from_manifest();
    let t0 = Instant::now();
    let report = scan_workspace(&root).expect("workspace scan");
    let elapsed = t0.elapsed();
    assert!(report.analyzer.functions > 100, "{:?}", report.analyzer);
    assert!(
        report.analyzer.roots >= 2,
        "append + scan roots must be annotated: {:?}",
        report.analyzer
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "full-workspace analysis took {elapsed:?} (budget 10s)"
    );
}

#[test]
fn json_report_is_well_formed() {
    let (violations, analyzer) = one("\
// lint:hotpath(append)
fn root() { let _v = Vec::new(); }
");
    let report = ScanReport {
        violations,
        files_scanned: 1,
        analyzer,
        non_test_lines: [("vortex-wos".to_string(), 2)].into(),
    };
    let mut base = Counts::new();
    base.insert(("L010".into(), "vortex-wos".into()), 0);
    let json = report.to_json(&base);
    for needle in [
        "\"schema\": 1",
        "\"files_scanned\": 1",
        "\"non_test_lines_total\": 2",
        "{\"crate\": \"vortex-wos\", \"lines\": 2}",
        "\"analyzer\": {\"functions\": 1",
        "\"rule\": \"L010\", \"crate\": \"vortex-wos\", \"count\": 1, \"baseline\": 0",
        "\"regressions\": [",
        "\"violations\": [",
        "call chain",
    ] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }
    // Escaping: a quote in a message must not break the document.
    assert!(!json.contains("`Vec::new(…\" "), "unescaped quote:\n{json}");
}

#[test]
fn stats_account_for_every_edge() {
    let src = "\
// lint:hotpath(append)
fn root() { a(); b(); }
fn a() { b(); }
fn b() {}
";
    let (_, stats) = one(src);
    assert_eq!(stats.functions, 3);
    assert_eq!(stats.edges, 3); // root→a, root→b, a→b
    assert_eq!(stats.roots, 1);
    assert_eq!(stats.reachable, 3);
    assert_eq!(stats.unresolved, 0);
}
