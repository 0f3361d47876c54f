//! vortex-devtools: the repo-wide invariant linter (`vortex-lint`).
//!
//! Vortex's correctness story leans on a handful of cross-cutting
//! invariants that the Rust compiler cannot see: wall-clock time may
//! only enter through the TrueTime/latency substrate (otherwise
//! simulated-time tests quietly read the host clock), the storage path
//! must not panic, daemons must not ad-hoc sleep, public storage-path
//! errors must be `VortexResult`, and streamlet locks must not be held
//! across durable appends. This crate enforces those invariants with a
//! from-scratch static-analysis pass — a comment/string-stripping lexer
//! plus per-rule pattern engines — and a one-way ratchet baseline so
//! existing debt is frozen while new debt is rejected.
//!
//! Three enforcement points share this library:
//! - the `vortex-lint` binary (CI and local runs),
//! - a `#[test]` in this crate, so plain `cargo test` enforces the
//!   ratchet,
//! - `.github/workflows/ci.yml`.
//!
//! Rule catalogue and suppression syntax are documented in
//! CONTRIBUTING.md ("Static analysis & invariants").

pub mod baseline;
pub mod callgraph;
pub mod context;
pub mod items;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use baseline::Counts;
use rules::Violation;

/// Repo-relative path of the committed ratchet baseline.
pub const BASELINE_PATH: &str = "crates/devtools/baseline.toml";

/// Baseline section holding the workspace non-test line total (its one
/// entry is `total`). It ratchets like a rule count: the ROADMAP wants
/// the number to go down, so a rise fails until someone writes it with
/// `--update-baseline --force` and says why.
pub const LINES_RULE: &str = "non_test_lines";

/// Result of scanning the whole workspace.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All post-suppression violations, in path/line order.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Call-graph analyzer figures (L010–L012 pass).
    pub analyzer: callgraph::AnalyzerStats,
    /// Per crate: lines of code under `crates/<crate>/src` that are not
    /// test code — non-blank once comments are masked, outside test
    /// files and `#[cfg(test)]` / `#[test]` items. The size trend the
    /// ROADMAP tracks; comment or blank-line edits do not move it.
    pub non_test_lines: BTreeMap<String, usize>,
}

impl ScanReport {
    /// Aggregates violations into per-(rule, crate) counts, plus the
    /// workspace non-test line total under [`LINES_RULE`].
    pub fn counts(&self) -> Counts {
        let mut counts = Counts::new();
        counts.insert(
            (LINES_RULE.to_string(), "total".to_string()),
            self.non_test_lines.values().sum(),
        );
        for v in &self.violations {
            *counts
                .entry((v.rule.to_string(), v.crate_name.clone()))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Renders the report as a machine-readable JSON document (schema
    /// version 1) for CI artifacts: per-(rule, crate) counts against
    /// the given baseline, every violation, and the analyzer figures.
    /// Hand-rolled — the workspace takes no serialization dependency
    /// for one stable, flat document.
    pub fn to_json(&self, base: &Counts) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let counts = self.counts();
        let (regressions, improvements) = baseline::compare(&counts, base);
        let mut out = String::from("{\n  \"schema\": 1,\n");
        out.push_str(&format!(
            "  \"files_scanned\": {},\n  \"total_violations\": {},\n",
            self.files_scanned,
            self.violations.len()
        ));
        let line_rows: Vec<String> = self
            .non_test_lines
            .iter()
            .map(|(krate, n)| format!("    {{\"crate\": \"{}\", \"lines\": {}}}", esc(krate), n))
            .collect();
        out.push_str(&format!(
            "  \"non_test_lines_total\": {},\n  \"non_test_lines\": [\n{}\n  ],\n",
            self.non_test_lines.values().sum::<usize>(),
            line_rows.join(",\n")
        ));
        let a = &self.analyzer;
        out.push_str(&format!(
            "  \"analyzer\": {{\"functions\": {}, \"call_sites\": {}, \"edges\": {}, \
             \"unresolved\": {}, \"roots\": {}, \"reachable\": {}, \"lock_sites\": {}, \
             \"lock_edges\": {}, \"lock_unnamed\": {}}},\n",
            a.functions,
            a.call_sites,
            a.edges,
            a.unresolved,
            a.roots,
            a.reachable,
            a.lock_sites,
            a.lock_edges,
            a.lock_unnamed
        ));
        let count_rows: Vec<String> =
            counts
                .iter()
                .map(|((rule, krate), n)| {
                    format!(
                    "    {{\"rule\": \"{}\", \"crate\": \"{}\", \"count\": {}, \"baseline\": {}}}",
                    esc(rule),
                    esc(krate),
                    n,
                    base.get(&(rule.clone(), krate.clone())).copied().unwrap_or(0)
                )
                })
                .collect();
        out.push_str(&format!(
            "  \"counts\": [\n{}\n  ],\n",
            count_rows.join(",\n")
        ));
        let delta_rows = |ds: &[baseline::Regression]| -> String {
            ds.iter()
                .map(|d| {
                    format!(
                        "    {{\"rule\": \"{}\", \"crate\": \"{}\", \"baseline\": {}, \
                         \"actual\": {}}}",
                        esc(&d.rule),
                        esc(&d.crate_name),
                        d.baseline,
                        d.actual
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let reg = delta_rows(&regressions);
        let imp = delta_rows(&improvements);
        out.push_str(&format!(
            "  \"regressions\": [{}],\n",
            if reg.is_empty() {
                String::new()
            } else {
                format!("\n{reg}\n  ")
            }
        ));
        out.push_str(&format!(
            "  \"improvements\": [{}],\n",
            if imp.is_empty() {
                String::new()
            } else {
                format!("\n{imp}\n  ")
            }
        ));
        let viol_rows: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "    {{\"rule\": \"{}\", \"crate\": \"{}\", \"path\": \"{}\", \
                     \"line\": {}, \"message\": \"{}\"}}",
                    v.rule,
                    esc(&v.crate_name),
                    esc(&v.path),
                    v.line,
                    esc(&v.message)
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"violations\": [{}]\n}}\n",
            if viol_rows.is_empty() {
                String::new()
            } else {
                format!("\n{}\n  ", viol_rows.join(",\n"))
            }
        ));
        out
    }
}

/// Scans every Rust source in the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let sources = context::collect_sources(root);
    if sources.is_empty() {
        return Err(format!(
            "no sources found under {} — is this the workspace root?",
            root.display()
        ));
    }
    let mut report = ScanReport::default();
    // Workspace-wide state for L007's global half: every non-test
    // `crash_point!` call site, plus the registry catalogue. Masked
    // sources are retained so the call-graph pass (L010–L012) can see
    // the whole workspace at once.
    let mut sites: Vec<rules::CrashPointSite> = Vec::new();
    let mut registry: Option<Vec<String>> = None;
    let mut masked_files: Vec<lexer::MaskedSource> = Vec::with_capacity(sources.len());
    for src in &sources {
        let abs = root.join(&src.rel_path);
        let text = fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        let masked = lexer::mask_source(&text);
        report
            .violations
            .extend(rules::check_file(&rules::FileInput {
                rel_path: &src.rel_path,
                crate_name: &src.crate_name,
                is_test_file: src.is_test_file,
                masked: &masked,
            }));
        report.files_scanned += 1;
        if src.rel_path == rules::CRASHPOINT_REGISTRY_FILE {
            registry = rules::registry_names(&masked);
        }
        if !src.is_test_file {
            let spans = context::test_line_spans(&masked.code);
            if src.rel_path.starts_with("crates/") && src.rel_path.contains("/src/") {
                let code_lines = masked
                    .code
                    .lines()
                    .enumerate()
                    .filter(|(i, l)| !l.trim().is_empty() && !context::in_spans(&spans, i + 1))
                    .count();
                *report
                    .non_test_lines
                    .entry(src.crate_name.clone())
                    .or_insert(0) += code_lines;
            }
            for (name, line) in rules::crash_point_call_sites(&masked) {
                if !context::in_spans(&spans, line) {
                    sites.push(rules::CrashPointSite {
                        name,
                        crate_name: src.crate_name.clone(),
                        path: src.rel_path.clone(),
                        line,
                    });
                }
            }
        }
        masked_files.push(masked);
    }
    report.violations.extend(rules::check_crash_points_global(
        &sites,
        registry.as_deref(),
    ));
    let inputs: Vec<callgraph::SourceInput<'_>> = sources
        .iter()
        .zip(&masked_files)
        .map(|(src, masked)| callgraph::SourceInput {
            rel_path: &src.rel_path,
            crate_name: &src.crate_name,
            is_test_file: src.is_test_file,
            masked,
        })
        .collect();
    let (graph_violations, analyzer) = callgraph::analyze(&inputs);
    report.violations.extend(graph_violations);
    report.analyzer = analyzer;
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Scans a single source text — the unit the fixture tests drive.
pub fn scan_str(
    text: &str,
    rel_path: &str,
    crate_name: &str,
    is_test_file: bool,
) -> Vec<Violation> {
    let masked = lexer::mask_source(text);
    rules::check_file(&rules::FileInput {
        rel_path,
        crate_name,
        is_test_file,
        masked: &masked,
    })
}

/// Loads the committed baseline, or an empty one if the file does not
/// exist yet (first run). A baseline with no [`LINES_RULE`] entry does
/// not ratchet the line total yet: any total passes, and the first
/// `--update-baseline` writes it.
pub fn load_baseline(root: &Path) -> Result<Counts, String> {
    let path = root.join(BASELINE_PATH);
    let mut base = match fs::read_to_string(&path) {
        Ok(text) => baseline::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Counts::new(),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    base.entry((LINES_RULE.to_string(), "total".to_string()))
        .or_insert(usize::MAX);
    Ok(base)
}

/// Resolves the workspace root for in-repo callers (the ratchet test
/// and the binary when invoked via `cargo run`).
pub fn workspace_root_from_manifest() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    context::find_workspace_root(&manifest).unwrap_or_else(|| manifest.join("../.."))
}

/// The ratchet check used by both the test and the binary: scan,
/// compare, and describe any regressions.
///
/// Returns `Ok(report)` when the tree is at or below baseline, and
/// `Err(message)` with full diagnostics when it is not.
pub fn enforce_ratchet(root: &Path) -> Result<ScanReport, String> {
    let report = scan_workspace(root)?;
    let base = load_baseline(root)?;
    let (regressions, _improvements) = baseline::compare(&report.counts(), &base);
    if regressions.is_empty() {
        return Ok(report);
    }
    let mut msg = String::from("vortex-lint: new invariant violations above baseline:\n");
    for r in &regressions {
        if r.rule == LINES_RULE {
            msg.push_str(&format!(
                "  {} non-test line(s) under crates/*/src, baseline allows {}: delete what the \
                 change made unnecessary, or justify the growth and write it with \
                 `--update-baseline --force`\n",
                r.actual, r.baseline
            ));
            continue;
        }
        msg.push_str(&format!(
            "  {} in {}: {} violation(s), baseline allows {}\n",
            r.rule, r.crate_name, r.actual, r.baseline
        ));
        for v in report
            .violations
            .iter()
            .filter(|v| v.rule == r.rule && v.crate_name == r.crate_name)
        {
            msg.push_str(&format!("    {}\n", v.render()));
        }
    }
    msg.push_str(
        "fix the violation, or suppress with `// lint:allow(RULE, reason)` \
         if it is genuinely exempt (see CONTRIBUTING.md)\n",
    );
    Err(msg)
}

#[cfg(test)]
mod ratchet_test {
    //! The enforcement point for plain `cargo test`: the committed
    //! tree must never exceed the committed baseline.

    use super::*;

    #[test]
    fn workspace_is_at_or_below_baseline() {
        let root = workspace_root_from_manifest();
        match enforce_ratchet(&root) {
            Ok(report) => {
                assert!(report.files_scanned > 50, "suspiciously few files scanned");
            }
            Err(msg) => panic!("{msg}"),
        }
    }
}
