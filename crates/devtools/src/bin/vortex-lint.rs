//! vortex-lint: CLI front-end for the Vortex invariant linter.
//!
//! ```text
//! cargo run -p vortex-devtools --bin vortex-lint            # check
//! cargo run -p vortex-devtools --bin vortex-lint -- --update-baseline
//! cargo run -p vortex-devtools --bin vortex-lint -- --list  # dump all
//! cargo run -p vortex-devtools --bin vortex-lint -- --json  # CI artifact
//! ```
//!
//! Exit codes: 0 = at or below baseline, 1 = new violations (or
//! baseline needs updating was requested and failed), 2 = usage/IO
//! error.
#![allow(clippy::print_stdout)] // a CLI's diagnostics go to stdout by design

use std::path::PathBuf;
use std::process::ExitCode;

use vortex_devtools::{
    baseline, enforce_ratchet, load_baseline, scan_workspace, workspace_root_from_manifest,
    BASELINE_PATH,
};

fn main() -> ExitCode {
    let mut update = false;
    let mut force = false;
    let mut list = false;
    let mut json = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--update-baseline" => update = true,
            "--force" => force = true,
            "--list" => list = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root_arg = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = root_arg.unwrap_or_else(workspace_root_from_manifest);

    if json {
        // Machine-readable report to stdout (CI redirects to a file and
        // uploads it as an artifact). Exit code still enforces the
        // ratchet so one invocation serves both purposes.
        return match (scan_workspace(&root), load_baseline(&root)) {
            (Ok(report), Ok(base)) => {
                print!("{}", report.to_json(&base));
                let (regressions, _) = baseline::compare(&report.counts(), &base);
                if regressions.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("vortex-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if list {
        return match scan_workspace(&root) {
            Ok(report) => {
                for v in &report.violations {
                    println!("{}", v.render());
                }
                println!(
                    "{} violation(s) across {} file(s)",
                    report.violations.len(),
                    report.files_scanned
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("vortex-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if update {
        return update_baseline(&root, force);
    }

    match enforce_ratchet(&root) {
        Ok(report) => {
            let counts = report.counts();
            let base = match load_baseline(&root) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("vortex-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            let (_, improvements) = baseline::compare(&counts, &base);
            println!(
                "vortex-lint: OK — {} file(s), {} baselined violation(s), 0 new",
                report.files_scanned,
                report.violations.len()
            );
            println!(
                "vortex-lint: {} non-test line(s) under crates/*/src:",
                report.non_test_lines.values().sum::<usize>()
            );
            for (krate, n) in &report.non_test_lines {
                println!("  {krate:<18} {n:>6}");
            }
            if !improvements.is_empty() {
                println!(
                    "vortex-lint: {} count(s) improved below baseline; run with \
                     --update-baseline to lock them in:",
                    improvements.len()
                );
                for i in &improvements {
                    println!(
                        "  {} in {}: {} -> {}",
                        i.rule, i.crate_name, i.baseline, i.actual
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}", msg.trim_end());
            ExitCode::FAILURE
        }
    }
}

/// Rewrites the baseline to current counts — but only downward. An
/// attempt to ratchet *up* is refused with the offending diagnostics,
/// so `--update-baseline` can never be used to smuggle in new debt.
/// `--force` overrides the refusal for bootstrapping a fresh baseline;
/// in a repo with a committed baseline it should never be needed.
fn update_baseline(root: &std::path::Path, force: bool) -> ExitCode {
    let report = match scan_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vortex-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let base = match load_baseline(root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("vortex-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let counts = report.counts();
    let (regressions, improvements) = baseline::compare(&counts, &base);
    if !regressions.is_empty() && !force {
        eprintln!(
            "vortex-lint: refusing to update baseline upward; fix or suppress \
             these first (or pass --force to bootstrap a fresh baseline):"
        );
        for r in &regressions {
            eprintln!(
                "  {} in {}: {} -> {}",
                r.rule, r.crate_name, r.baseline, r.actual
            );
            for v in report
                .violations
                .iter()
                .filter(|v| v.rule == r.rule && v.crate_name == r.crate_name)
            {
                eprintln!("    {}", v.render());
            }
        }
        return ExitCode::FAILURE;
    }
    let path = root.join(BASELINE_PATH);
    if let Err(e) = std::fs::write(&path, baseline::serialize(&counts)) {
        eprintln!("vortex-lint: write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "vortex-lint: baseline written to {} ({} improvement(s) locked in)",
        path.display(),
        improvements.len()
    );
    ExitCode::SUCCESS
}

fn print_help() {
    println!(
        "vortex-lint — Vortex repo invariant linter\n\n\
         USAGE: vortex-lint [--list] [--json] [--update-baseline] [--root <path>]\n\n\
         Checks workspace sources against rules L000..L012 — lexical \
         invariants,\nthe crash-point registry, and the hot-path \
         discipline analyzer (L010\nno-alloc, L011 no-block, L012 \
         lock-order cycles; see CONTRIBUTING.md)\n— and the ratchet \
         baseline at {BASELINE_PATH}.\n\n\
         OPTIONS:\n  \
         --list              print every violation (including baselined ones)\n  \
         --json              print a machine-readable JSON report (schema 1), incl.\n                      \
         per-crate non_test_lines\n  \
         --update-baseline   rewrite the baseline downward after paying off debt\n  \
         --force             with --update-baseline: allow writing a higher count\n                      \
         (bootstrap, or a justified rise of the non_test_lines total)\n  \
         --root <path>       workspace root (default: auto-detected)\n  \
         -h, --help          this text"
    );
}
