//! Fixture tests for the vortex-lint rule engines: each rule must fire
//! on a minimal positive snippet and stay silent in comment, string,
//! `#[cfg(test)]`, and suppressed contexts — plus end-to-end ratchet
//! behaviour against a synthetic on-disk workspace.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use vortex_devtools::lexer::mask_source;
use vortex_devtools::rules::{check_crash_points_global, registry_names, CrashPointSite};
use vortex_devtools::{baseline, enforce_ratchet, scan_str};

/// Shorthand: rule ids reported for a snippet scanned as the given
/// crate/path.
fn rules_for(text: &str, path: &str, krate: &str) -> Vec<&'static str> {
    scan_str(text, path, krate, false)
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_fires_on_instant_now() {
    let src = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(
        rules_for(src, "crates/wos/src/x.rs", "vortex-wos"),
        ["L001"]
    );
}

#[test]
fn l001_fires_on_system_time_now() {
    let src = "fn f() { let _ = std::time::SystemTime::now(); }\n";
    assert_eq!(rules_for(src, "crates/core/src/x.rs", "vortex"), ["L001"]);
}

#[test]
fn l001_exempts_the_truetime_substrate() {
    let src = "fn f() { let _ = std::time::Instant::now(); }\n";
    assert!(rules_for(src, "crates/common/src/truetime.rs", "vortex-common").is_empty());
    assert!(rules_for(src, "crates/common/src/latency.rs", "vortex-common").is_empty());
}

#[test]
fn l001_silent_in_comment_and_string() {
    let src = "// Instant::now() is banned\nfn f() { let s = \"Instant::now()\"; let _ = s; }\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn l001_silent_inside_cfg_test() {
    let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::Instant::now(); }\n}\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn l001_silent_in_test_file() {
    let src = "fn t() { let _ = std::time::Instant::now(); }\n";
    assert!(scan_str(src, "tests/chaos.rs", "vortex", true).is_empty());
}

// ---------------------------------------------------------------- L002

#[test]
fn l002_fires_on_unwrap_expect_panic_in_storage_crates() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
               fn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
               fn h() { panic!(\"boom\"); }\n";
    assert_eq!(
        rules_for(src, "crates/colossus/src/x.rs", "vortex-colossus"),
        ["L002", "L002", "L002"]
    );
}

#[test]
fn l002_does_not_apply_outside_storage_path_crates() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    assert!(rules_for(src, "crates/bench/src/x.rs", "vortex-bench").is_empty());
    assert!(rules_for(src, "crates/query/src/x.rs", "vortex-query").is_empty());
}

#[test]
fn l002_does_not_match_unwrap_or_family() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
               fn g(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n\
               fn h(r: Result<u8, u8>) -> u8 { r.unwrap_or_else(|_| 0) }\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn l002_silent_inside_cfg_test_module() {
    let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(rules_for(src, "crates/sms/src/x.rs", "vortex-sms").is_empty());
}

// -------------------------------------------------------- suppressions

#[test]
fn trailing_suppression_silences_its_line() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(L002, provably Some here)\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn standalone_suppression_silences_next_line() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(L002, checked by caller)\n    x.unwrap()\n}\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn suppression_is_rule_specific() {
    // An L003 allow must not silence an L002 violation.
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(L003, wrong rule)\n";
    assert_eq!(
        rules_for(src, "crates/wos/src/x.rs", "vortex-wos"),
        ["L002"]
    );
}

#[test]
fn suppression_without_reason_reports_l000() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(L002)\n";
    let got = rules_for(src, "crates/wos/src/x.rs", "vortex-wos");
    assert!(
        got.contains(&"L000"),
        "missing reason must be flagged: {got:?}"
    );
    assert!(
        got.contains(&"L002"),
        "malformed suppression must not suppress"
    );
}

#[test]
fn suppression_with_unknown_rule_reports_l000() {
    let src = "fn f() {} // lint:allow(L999, no such rule)\n";
    assert_eq!(
        rules_for(src, "crates/wos/src/x.rs", "vortex-wos"),
        ["L000"]
    );
}

#[test]
fn doc_comments_mentioning_the_syntax_are_not_suppressions() {
    let src = "/// Use `// lint:allow(L002, reason)` to suppress.\nfn f() {}\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

// ---------------------------------------------------------------- L003

#[test]
fn l003_fires_on_thread_sleep_anywhere_in_prod_code() {
    let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n";
    assert_eq!(
        rules_for(src, "crates/core/src/daemon.rs", "vortex"),
        ["L003"]
    );
    assert_eq!(
        rules_for(src, "crates/query/src/x.rs", "vortex-query"),
        ["L003"]
    );
}

#[test]
fn l003_exempts_latency_substrate_and_tests() {
    let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n";
    assert!(rules_for(src, "crates/common/src/latency.rs", "vortex-common").is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(std::time::Duration::ZERO); }\n}\n";
    assert!(rules_for(in_test, "crates/core/src/x.rs", "vortex").is_empty());
}

// ---------------------------------------------------------------- L004

#[test]
fn l004_fires_on_non_vortex_result_in_public_storage_api() {
    let src = "pub fn open(p: &str) -> Result<u8, String> { let _ = p; Ok(0) }\n";
    assert_eq!(
        rules_for(src, "crates/wos/src/x.rs", "vortex-wos"),
        ["L004"]
    );
    let io = "pub fn read_all(p: &str) -> std::io::Result<Vec<u8>> { std::fs::read(p) }\n";
    assert_eq!(rules_for(io, "crates/ros/src/x.rs", "vortex-ros"), ["L004"]);
}

#[test]
fn l004_accepts_vortex_result_and_vortex_error() {
    let src = "pub fn open(p: &str) -> VortexResult<u8> { let _ = p; Ok(0) }\n\
               pub fn raw(p: &str) -> Result<u8, VortexError> { let _ = p; Ok(0) }\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn l004_ignores_private_fns_and_non_storage_crates() {
    let private = "fn helper() -> Result<u8, String> { Ok(0) }\n";
    assert!(rules_for(private, "crates/wos/src/x.rs", "vortex-wos").is_empty());
    let other = "pub fn open() -> Result<u8, String> { Ok(0) }\n";
    assert!(rules_for(other, "crates/optimizer/src/x.rs", "vortex-optimizer").is_empty());
}

#[test]
fn l004_ignores_fns_without_result_or_with_fmt_result() {
    let src = "pub fn name(&self) -> &str { \"x\" }\n\
               pub fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

// ---------------------------------------------------------------- L005

#[test]
fn l005_fires_when_guard_spans_an_append() {
    let src = "fn f(&self) {\n    let mut files = self.files.lock();\n    files.push(1);\n    self.colossus.append(\"p\", &[], ts);\n}\n";
    assert_eq!(
        rules_for(src, "crates/wos/src/x.rs", "vortex-wos"),
        ["L005"]
    );
}

#[test]
fn l005_silent_when_guard_dropped_first() {
    let src = "fn f(&self) {\n    let mut files = self.files.lock();\n    files.push(1);\n    drop(files);\n    self.colossus.append(\"p\", &[], ts);\n}\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn l005_silent_when_scope_closes_before_append() {
    let src = "fn f(&self) {\n    {\n        let mut files = self.files.lock();\n        files.push(1);\n    }\n    self.colossus.append(\"p\", &[], ts);\n}\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

#[test]
fn l005_ignores_temporary_guards() {
    // A lock in a larger expression is released at the semicolon.
    let src = "fn f(&self) {\n    let n: Vec<u64> = self.tables.lock().iter().copied().collect();\n    self.colossus.append(\"p\", &[], ts);\n    let _ = n;\n}\n";
    assert!(rules_for(src, "crates/wos/src/x.rs", "vortex-wos").is_empty());
}

// ---------------------------------------------------------------- L006

#[test]
fn l006_fires_on_direct_service_types_in_consumer_crates() {
    let src = "pub fn f(sms: &Arc<SmsTask>) { let _ = sms; }\n\
               pub fn g(srv: &StreamServer) { let _ = srv; }\n";
    assert_eq!(
        rules_for(src, "crates/client/src/x.rs", "vortex-client"),
        ["L006", "L006"]
    );
    assert_eq!(
        rules_for(src, "crates/core/src/daemon.rs", "vortex"),
        ["L006", "L006"]
    );
}

#[test]
fn l006_matches_identifier_boundaries_only() {
    // `SmsTaskId` and `StreamServerApi` are different, allowed
    // identifiers; so is a prefixed name.
    let src = "pub fn f(id: SmsTaskId, api: &dyn StreamServerApi) { let _ = (id, api); }\n\
               pub fn g(x: MockStreamServer) { let _ = x; }\n";
    assert!(rules_for(src, "crates/client/src/x.rs", "vortex-client").is_empty());
}

#[test]
fn l006_exempts_region_wiring_service_crates_and_tests() {
    let src = "pub fn f(t: &SmsTask, s: &StreamServer) { let _ = (t, s); }\n";
    // The wiring file constructs and wraps the services.
    assert!(rules_for(src, "crates/core/src/region.rs", "vortex").is_empty());
    // The service crates themselves are not consumers.
    assert!(rules_for(src, "crates/sms/src/api.rs", "vortex-sms").is_empty());
    assert!(rules_for(src, "crates/server/src/server.rs", "vortex-server").is_empty());
    // Test context is free to grab the concrete types.
    assert!(scan_str(src, "tests/rpc_faults.rs", "vortex", true).is_empty());
    let in_mod = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use vortex_sms::sms::SmsTask;\n}\n";
    assert!(rules_for(in_mod, "crates/verify/src/lib.rs", "vortex-verify").is_empty());
}

// ---------------------------------------------------------------- L007

#[test]
fn l007_fires_on_malformed_names() {
    // Two segments, an uppercase segment, and four segments all break
    // the `component.operation.moment` convention.
    let src = "fn f() -> vortex_common::error::VortexResult<()> {\n\
               vortex_common::crash_point!(\"server.append\");\n\
               vortex_common::crash_point!(\"Server.append.pre_ack\");\n\
               vortex_common::crash_point!(\"a.b.c.d\");\n\
               Ok(()) }\n";
    assert_eq!(
        rules_for(src, "crates/server/src/x.rs", "vortex-server"),
        ["L007", "L007", "L007"]
    );
}

#[test]
fn l007_fires_on_within_file_duplicate() {
    let src = "fn f() -> vortex_common::error::VortexResult<()> {\n\
               vortex_common::crash_point!(\"server.append.pre_ack\");\n\
               vortex_common::crash_point!(\"server.append.pre_ack\");\n\
               Ok(()) }\n";
    assert_eq!(
        rules_for(src, "crates/server/src/x.rs", "vortex-server"),
        ["L007"]
    );
}

#[test]
fn l007_silent_on_valid_unique_names_and_test_context() {
    let src = "fn f() -> vortex_common::error::VortexResult<()> {\n\
               vortex_common::crash_point!(\"server.append.pre_ack\");\n\
               vortex_common::crash_point!(\"server.gc.mid\");\n\
               Ok(()) }\n";
    assert!(rules_for(src, "crates/server/src/x.rs", "vortex-server").is_empty());
    // Bad names in test files and `#[cfg(test)]` modules are exempt —
    // tests may exercise the macro with throwaway names.
    let bad = "vortex_common::crash_point!(\"whatever\");\n";
    assert!(scan_str(bad, "tests/chaos.rs", "vortex", true).is_empty());
    let in_mod =
        format!("fn prod() {{}}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ {bad} }}\n}}\n");
    assert!(rules_for(&in_mod, "crates/server/src/x.rs", "vortex-server").is_empty());
}

/// Shorthand for a [`CrashPointSite`] in the global-pass tests.
fn site(name: &str, path: &str, line: usize) -> CrashPointSite {
    CrashPointSite {
        name: name.to_string(),
        crate_name: "vortex-server".to_string(),
        path: path.to_string(),
        line,
    }
}

#[test]
fn l007_global_cross_file_duplicate_fires() {
    let sites = [
        site("server.gc.mid", "crates/server/src/a.rs", 10),
        site("server.gc.mid", "crates/server/src/b.rs", 20),
    ];
    let out = check_crash_points_global(&sites, None);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rule, "L007");
    assert_eq!(out[0].path, "crates/server/src/b.rs");
    assert!(out[0].message.contains("crates/server/src/a.rs:10"));
    // Same-file duplicates are the per-file rule's job: silent here.
    let same = [
        site("server.gc.mid", "crates/server/src/a.rs", 10),
        site("server.gc.mid", "crates/server/src/a.rs", 20),
    ];
    assert!(check_crash_points_global(&same, None).is_empty());
}

#[test]
fn l007_global_registration_checked_only_with_registry() {
    let sites = [site("server.gc.mid", "crates/server/src/a.rs", 10)];
    let registry = ["server.append.pre_ack".to_string()];
    let out = check_crash_points_global(&sites, Some(&registry));
    assert_eq!(out.len(), 1);
    assert!(out[0].message.contains("REGISTRY"));
    // Registered name: silent.
    let ok_registry = ["server.gc.mid".to_string()];
    assert!(check_crash_points_global(&sites, Some(&ok_registry)).is_empty());
    // No registry in the scan (partial tree): the check is skipped.
    assert!(check_crash_points_global(&sites, None).is_empty());
}

#[test]
fn l007_registry_names_parse_the_const_array() {
    let src = "/// Catalogue.\n\
               pub const REGISTRY: &[&str] = &[\n\
               \"server.append.pre_ack\",\n\
               \"sms.open_streamlet.post_txn\",\n\
               ];\n\
               fn other() { let _ = \"not.a.registration\"; }\n";
    let masked = mask_source(src);
    assert_eq!(
        registry_names(&masked).unwrap(),
        ["server.append.pre_ack", "sms.open_streamlet.post_txn"]
    );
    assert_eq!(registry_names(&mask_source("fn f() {}")), None);
}

// ---------------------------------------------------------------- L008

#[test]
fn l008_fires_on_module_scope_atomic_static() {
    let src = "use std::sync::atomic::AtomicU64;\n\
               static APPENDS: AtomicU64 = AtomicU64::new(0);\n\
               pub static PUB_HITS: AtomicUsize = AtomicUsize::new(0);\n";
    assert_eq!(
        rules_for(src, "crates/server/src/x.rs", "vortex-server"),
        ["L008", "L008"]
    );
}

#[test]
fn l008_fires_on_function_local_atomic_static() {
    let src = "fn f() {\n    static CALLS: AtomicU32 = AtomicU32::new(0);\n}\n";
    assert_eq!(
        rules_for(src, "crates/query/src/x.rs", "vortex-query"),
        ["L008"]
    );
}

#[test]
fn l008_silent_on_lifetimes_fields_and_non_atomic_statics() {
    // `&'static` lifetimes, struct-field atomics (per-instance state),
    // and non-atomic statics (lookup tables) are all fine.
    let src = "pub struct C { hits: std::sync::atomic::AtomicU64 }\n\
               static TABLES: [u32; 4] = [0, 1, 2, 3];\n\
               fn f(s: &'static str) -> &'static str { s }\n";
    assert!(rules_for(src, "crates/client/src/x.rs", "vortex-client").is_empty());
}

#[test]
fn l008_exempts_the_obs_layer() {
    let src = "static TOTAL_FIRES: AtomicU64 = AtomicU64::new(0);\n";
    assert!(rules_for(src, "crates/common/src/obs.rs", "vortex-common").is_empty());
    assert!(rules_for(src, "crates/common/src/crashpoints.rs", "vortex-common").is_empty());
}

#[test]
fn l008_silent_in_test_context_and_suppressible() {
    let src = "static N: AtomicU64 = AtomicU64::new(0);\n";
    assert!(scan_str(src, "tests/chaos.rs", "vortex", true).is_empty());
    let in_mod = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    \
                  static N: AtomicU64 = AtomicU64::new(0);\n}\n";
    assert!(rules_for(in_mod, "crates/server/src/x.rs", "vortex-server").is_empty());
    let suppressed = "// lint:allow(L008, fixture-local scratch counter)\n\
                      static N: AtomicU64 = AtomicU64::new(0);\n";
    assert!(rules_for(suppressed, "crates/server/src/x.rs", "vortex-server").is_empty());
}

// ---------------------------------------------------------------- L009

#[test]
fn l009_fires_on_zero_retry_after_hint() {
    let src = "fn f() -> VortexError {\n    VortexError::ResourceExhausted {\n        \
               scope: \"tenant\".into(),\n        retry_after_us: 0,\n    }\n}\n";
    assert_eq!(
        rules_for(src, "crates/server/src/x.rs", "vortex-server"),
        ["L009"]
    );
    let spaced =
        "fn f() { let e = VortexError::ResourceExhausted { scope: s, retry_after_us : 0 }; }\n";
    assert_eq!(
        rules_for(spaced, "crates/sms/src/x.rs", "vortex-sms"),
        ["L009"]
    );
}

#[test]
fn l009_silent_on_nonzero_hints_bindings_and_patterns() {
    let src = "fn f(w: u64) {\n    \
               let _a = VortexError::ResourceExhausted { scope: s(), retry_after_us: w.max(1) };\n    \
               let _b = VortexError::ResourceExhausted { scope: s(), retry_after_us: 5_000 };\n    \
               if let VortexError::ResourceExhausted { retry_after_us, .. } = _b { let _ = retry_after_us; }\n}\n";
    assert!(rules_for(src, "crates/client/src/x.rs", "vortex-client").is_empty());
}

#[test]
fn l009_fires_on_throttling_sleep_outside_admission() {
    let src = "fn f(throttle_us: u64) {\n    \
               std::thread::sleep(std::time::Duration::from_micros(throttle_us));\n}\n";
    assert_eq!(
        rules_for(src, "crates/client/src/x.rs", "vortex-client"),
        // L003 (sleep outside the latency substrate) stacks with the
        // throttle-specific charge.
        ["L003", "L009"]
    );
    // The latency substrate is L003-exempt, but a throttling sleep
    // there still violates throttle-discipline.
    let in_substrate =
        "fn f(backoff_us: u64) { thread::sleep(Duration::from_micros(backoff_us)); }\n";
    assert_eq!(
        rules_for(
            in_substrate,
            "crates/common/src/latency.rs",
            "vortex-common"
        ),
        ["L009"]
    );
}

#[test]
fn l009_exempts_admission_and_non_throttle_sleeps() {
    // Inside the admission crate the throttle-specific charge is
    // waived (L003's general sleep ban still applies — admission runs
    // on virtual time).
    let src = "fn f(throttle_us: u64) { thread::sleep(Duration::from_micros(throttle_us)); }\n";
    assert_eq!(
        rules_for(src, "crates/admission/src/lib.rs", "vortex-admission"),
        ["L003"]
    );
    // A sleep with no throttling context is L003's business alone.
    let plain = "fn f() { std::thread::sleep(POLL_INTERVAL); }\n";
    assert_eq!(rules_for(plain, "crates/core/src/x.rs", "vortex"), ["L003"]);
}

#[test]
fn l009_silent_in_test_context_and_suppressible() {
    let src =
        "fn f() { let _ = VortexError::ResourceExhausted { scope: s(), retry_after_us: 0 }; }\n";
    assert!(scan_str(src, "tests/chaos.rs", "vortex", true).is_empty());
    let suppressed = "// lint:allow(L009, fixture exercises the zero-hint path)\n\
                      fn f() { let _ = VortexError::ResourceExhausted { scope: s(), retry_after_us: 0 }; }\n";
    assert!(rules_for(suppressed, "crates/server/src/x.rs", "vortex-server").is_empty());
}

// ------------------------------------------------------------- ratchet

/// Builds a miniature workspace on disk so `enforce_ratchet` can be
/// exercised end to end.
struct MiniRepo {
    root: PathBuf,
}

impl MiniRepo {
    fn new(tag: &str, lib_rs: &str, baseline: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("vortex-lint-fixture-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/wos/src")).unwrap();
        fs::create_dir_all(root.join("crates/devtools")).unwrap();
        fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        fs::write(
            root.join("crates/wos/Cargo.toml"),
            "[package]\nname = \"vortex-wos\"\n",
        )
        .unwrap();
        fs::write(root.join("crates/wos/src/lib.rs"), lib_rs).unwrap();
        fs::write(root.join("crates/devtools/baseline.toml"), baseline).unwrap();
        MiniRepo { root }
    }
}

impl Drop for MiniRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const ONE_UNWRAP: &str = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";

#[test]
fn ratchet_fails_when_count_exceeds_baseline() {
    let repo = MiniRepo::new("exceed", ONE_UNWRAP, "");
    let err = enforce_ratchet(&repo.root).unwrap_err();
    assert!(err.contains("L002"), "diagnostic names the rule: {err}");
    assert!(
        err.contains("crates/wos/src/lib.rs:1"),
        "diagnostic carries file:line: {err}"
    );
}

#[test]
fn ratchet_passes_at_baseline() {
    let repo = MiniRepo::new("at", ONE_UNWRAP, "[L002]\nvortex-wos = 1\n");
    let report = enforce_ratchet(&repo.root).unwrap();
    assert_eq!(report.violations.len(), 1);
}

#[test]
fn ratchet_passes_below_baseline_and_update_locks_it_in() {
    // Baseline says 3, tree has 1: passes, and the improvement is
    // visible to `compare` for --update-baseline to lock in.
    let repo = MiniRepo::new("below", ONE_UNWRAP, "[L002]\nvortex-wos = 3\n");
    let report = enforce_ratchet(&repo.root).unwrap();
    let base = vortex_devtools::load_baseline(&repo.root).unwrap();
    let (regressions, improvements) = baseline::compare(&report.counts(), &base);
    assert!(regressions.is_empty());
    // The L002 count, and the line total this baseline does not hold yet.
    assert_eq!(improvements.len(), 2);
    assert_eq!((improvements[0].baseline, improvements[0].actual), (3, 1));
    assert_eq!(improvements[1].rule, "non_test_lines");

    let rewritten = baseline::serialize(&report.counts());
    let reparsed = baseline::parse(&rewritten).unwrap();
    let mut expect = BTreeMap::new();
    expect.insert(("L002".to_string(), "vortex-wos".to_string()), 1);
    expect.insert(("non_test_lines".to_string(), "total".to_string()), 1);
    assert_eq!(reparsed, expect);
}

const TWO_LINES: &str = "\
// a comment is not a line of code

pub fn a() {}
pub fn b() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";

#[test]
fn line_total_above_baseline_fails_and_names_the_way_out() {
    let repo = MiniRepo::new("lines-up", TWO_LINES, "[non_test_lines]\ntotal = 1\n");
    let err = enforce_ratchet(&repo.root).unwrap_err();
    assert!(err.contains("2 non-test line(s)"), "{err}");
    assert!(err.contains("baseline allows 1"), "{err}");
    assert!(err.contains("--update-baseline --force"), "{err}");
}

#[test]
fn line_total_at_or_below_baseline_passes_and_ratchets_down() {
    let at = MiniRepo::new("lines-at", TWO_LINES, "[non_test_lines]\ntotal = 2\n");
    enforce_ratchet(&at.root).unwrap();
    let below = MiniRepo::new("lines-down", TWO_LINES, "[non_test_lines]\ntotal = 9\n");
    let report = enforce_ratchet(&below.root).unwrap();
    let base = vortex_devtools::load_baseline(&below.root).unwrap();
    let (regressions, improvements) = baseline::compare(&report.counts(), &base);
    assert!(regressions.is_empty());
    assert_eq!(improvements.len(), 1);
    assert_eq!((improvements[0].baseline, improvements[0].actual), (9, 2));
    assert!(baseline::serialize(&report.counts()).contains("[non_test_lines]\ntotal = 2\n"));
}

#[test]
fn ratchet_rejects_a_malformed_baseline() {
    let repo = MiniRepo::new("badbase", ONE_UNWRAP, "[L002]\nvortex-wos = lots\n");
    assert!(enforce_ratchet(&repo.root).is_err());
}
