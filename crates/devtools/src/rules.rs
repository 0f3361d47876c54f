//! The rule engines and the suppression syntax.
//!
//! Every rule operates on masked source (see [`crate::lexer`]), so
//! occurrences inside comments and string literals never fire. Rules
//! report [`Violation`]s; suppressions (`// lint:allow(L00X, reason)`)
//! are applied afterwards, and a malformed suppression is itself
//! reported under the pseudo-rule `L000`.

use crate::context::{in_spans, line_of, test_line_spans};
use crate::lexer::MaskedSource;

/// Rules enforced by vortex-lint, in catalogue order. L010–L012 are
/// the call-graph rules, run by the workspace pass
/// ([`crate::callgraph`]) rather than per-file.
pub const RULES: &[&str] = &[
    "L000", "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010", "L011",
    "L012",
];

/// The file defining the crash-point registry: L007's source of truth
/// for which names are registered.
pub const CRASHPOINT_REGISTRY_FILE: &str = "crates/common/src/crashpoints.rs";

/// Crates on the storage path: a panic here can take down an ingest
/// server or corrupt a commit sequence, so L002/L004/L005 apply.
pub const STORAGE_PATH_CRATES: &[&str] = &[
    "vortex-colossus",
    "vortex-metastore",
    "vortex-wos",
    "vortex-ros",
    "vortex-server",
    "vortex-sms",
    "vortex-client",
];

/// Consumer crates that must reach the SMS and Stream Server services
/// through the `RpcChannel`-wrapped handles (`SmsHandle`/`ServerHandle`)
/// rather than the concrete task types, so fault injection, deadlines,
/// and metrics see every call (L006).
pub const RPC_CONSUMER_CRATES: &[&str] = &[
    "vortex-client",
    "vortex-query",
    "vortex-optimizer",
    "vortex-verify",
    "vortex-connector",
    "vortex",
];

/// Files allowed to name the concrete service types: region wiring is
/// the single place services are constructed and channel-wrapped.
pub const RPC_WIRING_ALLOWED_FILES: &[&str] = &["crates/core/src/region.rs"];

/// Files allowed to read the real clock and the real sleep: the
/// TrueTime/latency substrate is the single place wall-clock time may
/// enter the system (everything else must go through `Clock`).
pub const CLOCK_ALLOWED_FILES: &[&str] = &[
    "crates/common/src/truetime.rs",
    "crates/common/src/latency.rs",
];

/// The admission-control subsystem: the single owner of throttling
/// policy (token buckets, queue bounds, the concurrency window). Ad-hoc
/// throttling waits elsewhere bypass its per-class accounting (L009).
pub const ADMISSION_CRATE_PREFIX: &str = "crates/admission/";

/// Files allowed to declare process-wide atomic statics: the unified
/// metrics registry and the crash-point framework are the two sanctioned
/// owners of global mutable counters (L008).
pub const OBS_ALLOWED_FILES: &[&str] = &[
    "crates/common/src/obs.rs",
    "crates/common/src/crashpoints.rs",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id, e.g. `L002`.
    pub rule: &'static str,
    /// Crate charged in the baseline, e.g. `vortex-colossus`.
    pub crate_name: String,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl Violation {
    /// Renders as `path:line: [RULE] message (crate)`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {} ({})",
            self.path, self.line, self.rule, self.message, self.crate_name
        )
    }
}

/// A parsed `// lint:allow(RULE, reason)` comment.
#[derive(Debug, Clone)]
struct Suppression {
    rule: String,
    /// The line the suppression covers.
    target_line: usize,
}

/// Per-file input to the rule engines.
pub struct FileInput<'a> {
    pub rel_path: &'a str,
    pub crate_name: &'a str,
    pub is_test_file: bool,
    pub masked: &'a MaskedSource,
}

/// Runs every rule over one file and applies suppressions.
pub fn check_file(input: &FileInput<'_>) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (suppressions, malformed) = parse_suppressions(input);
    violations.extend(malformed);

    let spans = if input.is_test_file {
        Vec::new() // whole file is test context; rules check the flag
    } else {
        test_line_spans(&input.masked.code)
    };
    let is_test_line = |line: usize| input.is_test_file || in_spans(&spans, line);

    rule_l001(input, &is_test_line, &mut violations);
    rule_l002(input, &is_test_line, &mut violations);
    rule_l003(input, &is_test_line, &mut violations);
    rule_l004(input, &is_test_line, &mut violations);
    rule_l005(input, &is_test_line, &mut violations);
    rule_l006(input, &is_test_line, &mut violations);
    rule_l007(input, &is_test_line, &mut violations);
    rule_l008(input, &is_test_line, &mut violations);
    rule_l009(input, &is_test_line, &mut violations);

    violations.retain(|v| {
        v.rule == "L000"
            || !suppressions
                .iter()
                .any(|s| s.rule == v.rule && s.target_line == v.line)
    });
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    violations
}

/// Parses `// lint:allow(RULE, reason)` comments.
///
/// A suppression must be a plain `//` comment (not a `///`/`//!` doc
/// comment, which merely *documents*) whose content starts with
/// `lint:allow(`. A trailing suppression covers its own line; a
/// standalone comment line covers the next line (attribute style).
/// The reason is mandatory — a suppression without one is reported as
/// `L000` so debt can never be waved through silently.
fn parse_suppressions(input: &FileInput<'_>) -> (Vec<Suppression>, Vec<Violation>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    let code_lines: Vec<&str> = input.masked.code.lines().collect();

    for c in &input.masked.comments {
        let Some(body) = c.text.strip_prefix("//") else {
            continue; // block comments cannot carry suppressions
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comments talk *about* the syntax, never invoke it
        }
        let body = body.trim_start();
        let Some(rest) = body.strip_prefix("lint:allow") else {
            continue;
        };
        let parsed = parse_allow_args(rest);
        match parsed {
            Some((rule, reason)) if !reason.is_empty() && RULES.contains(&rule.as_str()) => {
                // Standalone comment (no code on its line) covers the
                // next line; trailing comment covers its own line.
                let own = code_lines
                    .get(c.line - 1)
                    .map(|l| l.trim().is_empty())
                    .unwrap_or(true);
                let target_line = if own { c.line + 1 } else { c.line };
                sups.push(Suppression { rule, target_line });
            }
            _ => bad.push(Violation {
                rule: "L000",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line: c.line,
                message: format!(
                    "malformed suppression `{}`: expected `lint:allow(L00X, reason)` \
                     with a known rule and a non-empty reason",
                    c.text.trim()
                ),
            }),
        }
    }
    (sups, bad)
}

/// Valid suppression targets of one masked file, as `(rule, line)`
/// pairs. The workspace analyzer uses this to honor `lint:allow` on
/// L010–L012 findings, which are produced outside [`check_file`];
/// malformed comments are already reported as `L000` by the per-file
/// pass, so they are simply skipped here.
pub(crate) fn suppression_targets(masked: &MaskedSource) -> Vec<(String, usize)> {
    let input = FileInput {
        rel_path: "",
        crate_name: "",
        is_test_file: false,
        masked,
    };
    let (sups, _) = parse_suppressions(&input);
    sups.into_iter().map(|s| (s.rule, s.target_line)).collect()
}

/// Parses `(RULE, reason...)` from the text following `lint:allow`.
fn parse_allow_args(rest: &str) -> Option<(String, String)> {
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule, reason) = inner.split_once(',')?;
    Some((rule.trim().to_string(), reason.trim().to_string()))
}

/// Finds every occurrence of `pat` in the masked code, yielding
/// 1-based line numbers, filtered by the per-line predicate.
fn occurrences<'a>(code: &'a str, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    std::iter::from_fn(move || {
        let off = code[from..].find(pat)?;
        let at = from + off;
        from = at + pat.len();
        Some(line_of(bytes, at))
    })
}

/// L001 clock-discipline: `Instant::now` / `SystemTime::now` only in
/// the TrueTime/latency substrate. Everything else must take a
/// `Clock`, or fault-injection and simulated-time tests silently read
/// the host clock.
fn rule_l001(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if CLOCK_ALLOWED_FILES.contains(&input.rel_path) {
        return;
    }
    for pat in ["Instant::now", "SystemTime::now"] {
        for line in occurrences(&input.masked.code, pat) {
            if is_test_line(line) {
                continue;
            }
            out.push(Violation {
                rule: "L001",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: format!(
                    "`{pat}` outside the TrueTime/latency substrate; \
                     thread a `Clock` through instead"
                ),
            });
        }
    }
}

/// L002 panic-discipline: no `.unwrap()` / `.expect(` / `panic!` in
/// non-test code of storage-path crates. A panic on the ingest path
/// drops a streamlet mid-commit; return `VortexResult` instead.
fn rule_l002(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !STORAGE_PATH_CRATES.contains(&input.crate_name) {
        return;
    }
    for pat in [".unwrap()", ".expect(", "panic!("] {
        for line in occurrences(&input.masked.code, pat) {
            if is_test_line(line) {
                continue;
            }
            out.push(Violation {
                rule: "L002",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: format!(
                    "`{pat}` on the storage path; propagate a `VortexResult` \
                     (or suppress with a reason if provably infallible)"
                ),
            });
        }
    }
}

/// L003 sleep-discipline: `thread::sleep` only in the latency/TrueTime
/// substrate. Ad-hoc sleeps make simulated-time tests wall-clock-slow
/// and flaky; daemons must block on a shutdown-aware condvar.
fn rule_l003(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if CLOCK_ALLOWED_FILES.contains(&input.rel_path) {
        return;
    }
    for line in occurrences(&input.masked.code, "thread::sleep(") {
        if is_test_line(line) {
            continue;
        }
        out.push(Violation {
            rule: "L003",
            crate_name: input.crate_name.to_string(),
            path: input.rel_path.to_string(),
            line,
            message: "`thread::sleep` outside the latency substrate; use a \
                      shutdown-aware condvar wait or the simulated clock"
                .to_string(),
        });
    }
}

/// L004 error-type-discipline: public functions on the storage path
/// returning `Result` must use `VortexResult`/`VortexError` so errors
/// compose across crate boundaries without ad-hoc conversions.
fn rule_l004(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !STORAGE_PATH_CRATES.contains(&input.crate_name) {
        return;
    }
    let code = &input.masked.code;
    let bytes = code.as_bytes();
    for start in occurrences_at(code, "pub fn ") {
        let line = line_of(bytes, start);
        if is_test_line(line) {
            continue;
        }
        // Signature = from `pub fn` to the body brace or a `;`.
        let sig_end = code[start..]
            .find(['{', ';'])
            .map(|o| start + o)
            .unwrap_or(code.len());
        let sig = &code[start..sig_end];
        let Some(arrow) = sig.find("->") else {
            continue;
        };
        let ret = &sig[arrow..];
        let flagged = ret.contains("Result<")
            && !ret.contains("VortexResult")
            && !ret.contains("VortexError");
        if flagged {
            out.push(Violation {
                rule: "L004",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: "public storage-path fn returns a non-`VortexResult` \
                          `Result`; unify on `vortex_common::VortexResult`"
                    .to_string(),
            });
        }
    }
}

/// L005 lock-hold heuristic: a `let guard = ….lock();` (or `.read()` /
/// `.write()`) binding whose lexical scope reaches a Colossus append
/// or Metastore transaction call without an intervening `drop(guard)`.
/// Holding a streamlet lock across a (simulated) multi-millisecond
/// durable append serialises the ingest path.
fn rule_l005(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !STORAGE_PATH_CRATES.contains(&input.crate_name) && input.crate_name != "vortex-core" {
        return;
    }
    const DANGER: &[&str] = &[".append(", ".with_txn", ".commit("];
    let code = &input.masked.code;
    let bytes = code.as_bytes();

    for pat in [".lock();", ".read();", ".write();"] {
        for at in occurrences_at(code, pat) {
            let line = line_of(bytes, at);
            if is_test_line(line) {
                continue;
            }
            // Must be a guard *binding*: the statement starts with `let`.
            let stmt_start = code[..at]
                .rfind(['\n', ';', '{', '}'])
                .map(|p| p + 1)
                .unwrap_or(0);
            let stmt = code[stmt_start..at].trim_start();
            let Some(guard_name) = binding_name(stmt) else {
                continue;
            };
            // `let _ = …` drops immediately; `let _guard` holds.
            if guard_name == "_" {
                continue;
            }
            // Scan the rest of the enclosing block.
            let scope_end = enclosing_scope_end(bytes, at + pat.len());
            let body = &code[at + pat.len()..scope_end];
            let dropped_at = body
                .find(&format!("drop({guard_name})"))
                .unwrap_or(usize::MAX);
            for danger in DANGER {
                if let Some(d) = body.find(danger) {
                    if d < dropped_at {
                        out.push(Violation {
                            rule: "L005",
                            crate_name: input.crate_name.to_string(),
                            path: input.rel_path.to_string(),
                            line,
                            message: format!(
                                "guard `{guard_name}` is held across a `{danger}…)` \
                                 call; drop it before the durable append/commit"
                            ),
                        });
                        break;
                    }
                }
            }
        }
    }
}

/// L006 service-boundary discipline: consumer crates must not touch the
/// concrete `SmsTask` / `StreamServer` types directly — every call goes
/// through the channel-wrapped `SmsHandle` / `ServerHandle`, or the RPC
/// layer's fault plans, deadlines, and per-method metrics silently miss
/// traffic. Matches identifier boundaries, so `SmsTaskId` and
/// `StreamServerApi` (distinct, allowed identifiers) never fire.
fn rule_l006(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if !RPC_CONSUMER_CRATES.contains(&input.crate_name)
        || RPC_WIRING_ALLOWED_FILES.contains(&input.rel_path)
    {
        return;
    }
    let code = &input.masked.code;
    let bytes = code.as_bytes();
    for pat in ["SmsTask", "StreamServer"] {
        for at in occurrences_at(code, pat) {
            let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            if at > 0 && ident(bytes[at - 1]) {
                continue;
            }
            let after = at + pat.len();
            if after < bytes.len() && ident(bytes[after]) {
                continue;
            }
            let line = line_of(bytes, at);
            if is_test_line(line) {
                continue;
            }
            out.push(Violation {
                rule: "L006",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: format!(
                    "direct `{pat}` reference outside the RPC layer; route \
                     through the channel-wrapped handle (`SmsHandle`/`ServerHandle`)"
                ),
            });
        }
    }
}

/// L007 crash-point discipline (per-file half): every `crash_point!`
/// name must follow the `component.operation.moment` convention and be
/// unique within the file. Cross-file uniqueness and registration
/// against the [`CRASHPOINT_REGISTRY_FILE`] catalogue are checked by
/// the workspace pass ([`crate::scan_workspace`]), which sees all files.
fn rule_l007(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let mut seen: Vec<(String, usize)> = Vec::new();
    for (name, line) in crash_point_call_sites(input.masked) {
        if is_test_line(line) {
            continue;
        }
        if !valid_crash_point_name(&name) {
            out.push(Violation {
                rule: "L007",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: format!(
                    "crash point name `{name}` does not follow the \
                     `component.operation.moment` convention \
                     (three lowercase dot-separated segments)"
                ),
            });
        }
        if let Some((_, first)) = seen.iter().find(|(n, _)| *n == name) {
            out.push(Violation {
                rule: "L007",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: format!(
                    "crash point `{name}` already has a call site at line \
                     {first}; every crash point name must be unique"
                ),
            });
        } else {
            seen.push((name, line));
        }
    }
}

/// L008 metric-discipline: no ad-hoc `static …: Atomic*` counters
/// outside the observability layer ([`OBS_ALLOWED_FILES`]). A private
/// atomic static is a metric the unified registry snapshot cannot see —
/// register it through `vortex_common::obs::global()` (counter, gauge,
/// or histogram) so one pane of glass covers the whole process.
/// Struct-field atomics (per-instance state like `ReadCache` hit
/// counters) are fine; only module/function-scope statics fire.
fn rule_l008(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    if OBS_ALLOWED_FILES.contains(&input.rel_path) {
        return;
    }
    let code = &input.masked.code;
    let bytes = code.as_bytes();
    for at in occurrences_at(code, "static ") {
        // Not `&'static` (lifetime) and not the tail of an identifier.
        if at > 0 {
            let prev = bytes[at - 1];
            if prev == b'\'' || prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let line = line_of(bytes, at);
        if is_test_line(line) {
            continue;
        }
        // Declaration head = up to the initializer or terminator; an
        // atomic type annotation there marks an ad-hoc counter.
        let head_end = code[at..]
            .find(['=', ';', '{'])
            .map(|o| at + o)
            .unwrap_or(code.len());
        let head = &code[at..head_end];
        if head.contains(": Atomic") || head.contains(":Atomic") {
            out.push(Violation {
                rule: "L008",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: "ad-hoc atomic counter static outside the obs layer; \
                          register it via `vortex_common::obs::global()` so the \
                          unified snapshot sees it"
                    .to_string(),
            });
        }
    }
}

/// L009 throttle-discipline: overload pushback is retryable and owned
/// by one subsystem.
///
/// (a) Every `ResourceExhausted` construction must quote a nonzero
/// `retry_after_us` — a zero hint tells the client to hammer the
/// exhausted resource immediately (`RpcChannel` honors the hint as its
/// backoff). The check keys on the field name, which only that variant
/// (and its config mirrors) carries.
///
/// (b) Throttling waits (`sleep` on a line mentioning throttle/backoff/
/// retry-after/rate-limit state) are banned outside `crates/admission/`:
/// an ad-hoc sleep throttles invisibly — no shed counter, no class
/// priority, no virtual-time accounting. Queue through the admission
/// controller (or return `ResourceExhausted` and let the channel back
/// off) instead.
fn rule_l009(
    input: &FileInput<'_>,
    is_test_line: &dyn Fn(usize) -> bool,
    out: &mut Vec<Violation>,
) {
    let code = &input.masked.code;
    let bytes = code.as_bytes();

    for at in occurrences_at(code, "retry_after_us") {
        let line = line_of(bytes, at);
        if is_test_line(line) {
            continue;
        }
        // `retry_after_us : 0` with a literal zero (any suffix) fires;
        // `0.`/`01` would be a different number, and bindings/shorthand
        // have no `:`-value at all.
        let mut rest = code[at + "retry_after_us".len()..].chars().peekable();
        while rest.peek().is_some_and(|c| c.is_whitespace()) {
            rest.next();
        }
        if rest.next() != Some(':') {
            continue;
        }
        while rest.peek().is_some_and(|c| c.is_whitespace()) {
            rest.next();
        }
        if rest.next() == Some('0') && !rest.peek().is_some_and(|c| c.is_ascii_digit() || *c == '.')
        {
            out.push(Violation {
                rule: "L009",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: "`ResourceExhausted` with `retry_after_us: 0` tells the \
                          client to retry instantly against an exhausted resource; \
                          quote the actual wait (min 1µs)"
                    .to_string(),
            });
        }
    }

    if input.rel_path.starts_with(ADMISSION_CRATE_PREFIX) {
        return;
    }
    const THROTTLE_MARKERS: &[&str] = &["throttle", "backoff", "retry_after", "rate_limit"];
    for at in occurrences_at(code, "sleep(") {
        let line = line_of(bytes, at);
        if is_test_line(line) {
            continue;
        }
        let start = code[..at].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let end = code[at..].find('\n').map(|p| at + p).unwrap_or(code.len());
        let line_text = &code[start..end];
        if THROTTLE_MARKERS.iter().any(|m| line_text.contains(m)) {
            out.push(Violation {
                rule: "L009",
                crate_name: input.crate_name.to_string(),
                path: input.rel_path.to_string(),
                line,
                message: "ad-hoc throttling sleep outside vortex-admission; route \
                          pushback through the admission controller or return \
                          `ResourceExhausted` and let the channel back off"
                    .to_string(),
            });
        }
    }
}

/// Extracts `crash_point!("name")` call sites from a masked file as
/// `(name, 1-based line)` pairs, in file order. Test context is NOT
/// filtered here — callers apply their own predicate.
pub fn crash_point_call_sites(masked: &MaskedSource) -> Vec<(String, usize)> {
    let code = &masked.code;
    let bytes = code.as_bytes();
    let mut sites = Vec::new();
    for at in occurrences_at(code, "crash_point!") {
        let after = at + "crash_point!".len();
        // The name is the next string literal, with only `(` and
        // whitespace between it and the macro bang.
        let Some(lit) = masked.strings.iter().find(|s| s.offset >= after) else {
            continue;
        };
        if !code[after..lit.offset]
            .chars()
            .all(|c| c.is_whitespace() || c == '(')
        {
            continue;
        }
        sites.push((lit.text.clone(), line_of(bytes, at)));
    }
    sites
}

/// Whether `name` follows `component.operation.moment`: exactly three
/// dot-separated segments, each starting with a lowercase letter and
/// containing only lowercase letters, digits, and underscores.
pub fn valid_crash_point_name(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() == 3
        && segs.iter().all(|s| {
            s.starts_with(|c: char| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Extracts the registered crash-point names from the masked source of
/// [`CRASHPOINT_REGISTRY_FILE`]: the string literals inside the
/// `pub const REGISTRY` array. Returns `None` if no registry const is
/// present (partial trees, fixtures).
pub fn registry_names(masked: &MaskedSource) -> Option<Vec<String>> {
    let start = masked.code.find("pub const REGISTRY")?;
    let end = start + masked.code[start..].find("];")?;
    Some(
        masked
            .strings
            .iter()
            .filter(|s| s.offset > start && s.offset < end)
            .map(|s| s.text.clone())
            .collect(),
    )
}

/// One non-test `crash_point!` call site, as collected by the workspace
/// pass for the global half of L007.
#[derive(Debug, Clone)]
pub struct CrashPointSite {
    /// Crash point name (the macro's string-literal argument).
    pub name: String,
    /// Crate charged in the baseline.
    pub crate_name: String,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line of the call site.
    pub line: usize,
}

/// The global half of L007: cross-file uniqueness and registration.
/// `registry` is `None` when the registry file was not part of the scan
/// (the registration check is skipped); same-file duplicates are the
/// per-file rule's job and are not re-reported here.
pub fn check_crash_points_global(
    sites: &[CrashPointSite],
    registry: Option<&[String]>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut first: Vec<&CrashPointSite> = Vec::new();
    for site in sites {
        match first.iter().find(|s| s.name == site.name) {
            Some(prev) if prev.path != site.path => out.push(Violation {
                rule: "L007",
                crate_name: site.crate_name.clone(),
                path: site.path.clone(),
                line: site.line,
                message: format!(
                    "crash point `{}` already has a call site at {}:{}; \
                     every crash point name must be unique across the repo",
                    site.name, prev.path, prev.line
                ),
            }),
            Some(_) => {} // same-file duplicate: reported per-file
            None => first.push(site),
        }
        if let Some(reg) = registry {
            if !reg.iter().any(|r| r == &site.name) {
                out.push(Violation {
                    rule: "L007",
                    crate_name: site.crate_name.clone(),
                    path: site.path.clone(),
                    line: site.line,
                    message: format!(
                        "crash point `{}` is not listed in \
                         `vortex_common::crashpoints::REGISTRY` \
                         ({CRASHPOINT_REGISTRY_FILE})",
                        site.name
                    ),
                });
            }
        }
    }
    out
}

/// Byte offsets of every occurrence of `pat`.
fn occurrences_at<'a>(code: &'a str, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        let off = code[from..].find(pat)?;
        let at = from + off;
        from = at + pat.len();
        Some(at)
    })
}

/// Extracts `name` from a statement prefix `let [mut] name = …`.
pub(crate) fn binding_name(stmt: &str) -> Option<String> {
    let rest = stmt.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Byte offset where the innermost scope enclosing `pos` closes.
pub(crate) fn enclosing_scope_end(bytes: &[u8], pos: usize) -> usize {
    let mut depth = 0isize;
    let mut i = pos;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}
