//! The ratchet baseline: committed per-rule, per-crate violation
//! counts in `crates/devtools/baseline.toml`.
//!
//! The ratchet only turns one way. A run fails if any (rule, crate)
//! count exceeds its baseline entry (missing entry = 0); when counts
//! shrink, `vortex-lint --update-baseline` rewrites the file downward
//! so the improvement is locked in by the next run.
//!
//! The file is a deliberately tiny TOML subset — `[RULE]` tables with
//! `crate = count` integer entries and `#` comments — read and written
//! without any TOML dependency. One table is not a rule:
//! `[non_test_lines]` holds `total = N`, the workspace's non-test line
//! count, and ratchets the same way.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts keyed by `(rule, crate)`. BTreeMap so serialisation is
/// deterministic and diffs are stable.
pub type Counts = BTreeMap<(String, String), usize>;

/// One ratchet regression: a count above its baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    pub rule: String,
    pub crate_name: String,
    pub baseline: usize,
    pub actual: usize,
}

/// Parses the baseline file format. Unknown syntax is an error — a
/// typo in the baseline must not silently relax the ratchet.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    let mut section: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = Some(name.trim().to_string());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "baseline.toml:{}: expected `crate = count`",
                idx + 1
            ));
        };
        let Some(rule) = section.clone() else {
            return Err(format!(
                "baseline.toml:{}: entry before any [RULE] section",
                idx + 1
            ));
        };
        let crate_name = key.trim().trim_matches('"').to_string();
        let count: usize = value
            .trim()
            .parse()
            .map_err(|_| format!("baseline.toml:{}: count is not an integer", idx + 1))?;
        counts.insert((rule, crate_name), count);
    }
    Ok(counts)
}

/// Serialises counts back into the baseline format. Zero entries are
/// omitted — absent means zero, so the file only lists residual debt.
pub fn serialize(counts: &Counts) -> String {
    let mut out = String::from(
        "# vortex-lint ratchet baseline. Counts are existing debt, frozen:\n\
         # any increase fails CI; run `cargo run -p vortex-devtools --bin \
         vortex-lint -- --update-baseline`\n\
         # after paying debt down to lock in the lower count. See \
         CONTRIBUTING.md.\n",
    );
    let mut by_rule: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for ((rule, crate_name), &n) in counts {
        if n > 0 {
            by_rule.entry(rule).or_default().push((crate_name, n));
        }
    }
    for (rule, entries) in by_rule {
        let _ = write!(out, "\n[{rule}]\n");
        for (crate_name, n) in entries {
            let _ = writeln!(out, "{} = {}", toml_key(crate_name), n);
        }
    }
    out
}

/// Bare keys in TOML cannot contain most punctuation besides `-`/`_`;
/// crate names are fine bare, but quote defensively if ever needed.
fn toml_key(k: &str) -> String {
    if k.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        k.to_string()
    } else {
        format!("\"{k}\"")
    }
}

/// Compares actual counts against the baseline.
///
/// Returns `(regressions, improvements)`: regressions are counts above
/// baseline (fail); improvements are counts below a non-zero baseline
/// entry (eligible for `--update-baseline`).
pub fn compare(actual: &Counts, baseline: &Counts) -> (Vec<Regression>, Vec<Regression>) {
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    let mut keys: Vec<&(String, String)> = actual.keys().chain(baseline.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let a = actual.get(key).copied().unwrap_or(0);
        let b = baseline.get(key).copied().unwrap_or(0);
        let entry = Regression {
            rule: key.0.clone(),
            crate_name: key.1.clone(),
            baseline: b,
            actual: a,
        };
        if a > b {
            regressions.push(entry);
        } else if a < b {
            improvements.push(entry);
        }
    }
    (regressions, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, usize)]) -> Counts {
        entries
            .iter()
            .map(|(r, c, n)| ((r.to_string(), c.to_string()), *n))
            .collect()
    }

    #[test]
    fn round_trip() {
        let c = counts(&[
            ("L001", "vortex-bench", 3),
            ("L002", "vortex-client", 7),
            ("L003", "vortex", 2),
        ]);
        let text = serialize(&c);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn zero_entries_are_omitted() {
        let c = counts(&[("L001", "vortex-bench", 0), ("L002", "vortex-wos", 1)]);
        let text = serialize(&c);
        assert!(!text.contains("vortex-bench"));
        assert!(text.contains("vortex-wos = 1"));
    }

    #[test]
    fn increase_is_a_regression() {
        let base = counts(&[("L002", "vortex-client", 2)]);
        let actual = counts(&[("L002", "vortex-client", 3)]);
        let (reg, imp) = compare(&actual, &base);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].baseline, 2);
        assert_eq!(reg[0].actual, 3);
        assert!(imp.is_empty());
    }

    #[test]
    fn new_crate_entry_regresses_from_zero() {
        let base = Counts::new();
        let actual = counts(&[("L003", "vortex-wos", 1)]);
        let (reg, _) = compare(&actual, &base);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].baseline, 0);
    }

    #[test]
    fn decrease_is_an_improvement_not_a_failure() {
        let base = counts(&[("L002", "vortex-client", 5)]);
        let actual = counts(&[("L002", "vortex-client", 1)]);
        let (reg, imp) = compare(&actual, &base);
        assert!(reg.is_empty());
        assert_eq!(imp.len(), 1);
        assert_eq!(imp[0].actual, 1);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(parse("vortex-wos = 1\n").is_err(), "entry before section");
        assert!(parse("[L002]\nnot a kv line\n").is_err());
        assert!(parse("[L002]\nvortex-wos = many\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\n[L001]\n# note\nvortex-bench = 2\n";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.len(), 1);
    }
}
