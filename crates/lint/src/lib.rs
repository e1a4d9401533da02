//! `stopss-lint` — project-invariant checker for the S-ToPSS workspace.
//!
//! Offline static analysis over the workspace's own source, enforcing
//! conventions that `rustc`/`clippy` can't express because they are
//! *project* rules, not language rules:
//!
//! * `sync-facade` — runtime code uses `stopss_types::sync` (which
//!   swaps to `loom-lite` under the `loom` feature), never `std::sync`
//!   / `parking_lot` directly. A type that bypasses the facade
//!   silently falls out of model checking.
//! * `no-panic-hot-path` — no `.unwrap()` / `panic!` in broker/core
//!   hot paths; `.expect(...)` only with a message starting
//!   `"invariant: "` that names the invariant relied on.
//! * `ordering-justified` — every `Ordering::Relaxed` /
//!   `Ordering::SeqCst` carries an `// ordering:` justification in the
//!   same paragraph.
//! * `no-wall-clock` — deterministic chaos/session code never reads
//!   `Instant::now` / `SystemTime::now`; time is logical ticks so
//!   seeded runs stay bit-reproducible.
//! * `wire-tags-sync` — the wire tag tables in
//!   `crates/broker/src/wire.rs` match `docs/WIRE_PROTOCOL.md` and
//!   keep their append-only frozen prefix.
//! * `conservation-counters` — every counter named in a
//!   `// conservation:` identity anchor has at least one increment
//!   site in the workspace.
//!
//! Findings are suppressed per-site with `// lint: allow(rule-name)`
//! on the offending line or the line above, or per-file with
//! `// lint: allow-file(rule-name)` anywhere in the file. Suppression
//! is deliberate and greppable — the point is an audit trail, not a
//! gate that gets wedged open.
//!
//! The analysis is line-oriented and intentionally dumb: comments and
//! string literals are stripped first, `#[cfg(test)]` regions are
//! skipped by brace tracking, and everything else is substring
//! matching. Dumb is a feature — the checker has zero dependencies,
//! runs in milliseconds, and anyone can read the whole engine in one
//! sitting. See `docs/STATIC_ANALYSIS.md` for the catalogue and the
//! escalation story.

use std::fmt;
use std::path::{Path, PathBuf};

/// Rule name: runtime code must import sync primitives from the
/// `stopss_types::sync` facade.
pub const RULE_SYNC_FACADE: &str = "sync-facade";
/// Rule name: no `.unwrap()`/`panic!`/unjustified `.expect` in hot paths.
pub const RULE_NO_PANIC: &str = "no-panic-hot-path";
/// Rule name: relaxed/seq-cst atomics need an `// ordering:` comment.
pub const RULE_ORDERING: &str = "ordering-justified";
/// Rule name: no wall-clock reads in deterministic code.
pub const RULE_WALL_CLOCK: &str = "no-wall-clock";
/// Rule name: wire tag tables stay append-only and doc-synced.
pub const RULE_WIRE_TAGS: &str = "wire-tags-sync";
/// Rule name: conservation-identity counters have increment sites.
pub const RULE_CONSERVATION: &str = "conservation-counters";

/// Hot-path files for `no-panic-hot-path`: the publish → match →
/// notify pipeline and the serving path. Harness/demo code
/// (`chaos.rs`, `server.rs`, `client.rs`) is excluded — it asserts
/// freely.
const HOT_PATHS: &[&str] = &[
    "crates/broker/src/eventloop.rs",
    "crates/broker/src/session.rs",
    "crates/broker/src/wire.rs",
    "crates/broker/src/dispatcher.rs",
    "crates/broker/src/notify.rs",
    "crates/broker/src/transport.rs",
    "crates/core/src/matcher.rs",
    "crates/core/src/frontend.rs",
];

/// Deterministic files for `no-wall-clock`: anything a seeded
/// chaos/workload run replays must not observe wall time.
const DETERMINISTIC_PATHS: &[&str] =
    &["crates/broker/src/chaos.rs", "crates/broker/src/session.rs", "crates/workload/src/"];

/// The facade itself is the one place allowed to name the real
/// primitives.
const FACADE_PATH: &str = "crates/types/src/sync.rs";

/// Every path a rule is scoped by, paired with that rule. The rules match
/// these against the files they scan, so an entry naming nothing under
/// the root would silently scope nothing; [`check_workspace`] reports it.
fn configured_paths() -> Vec<(&'static str, &'static str)> {
    let hot = HOT_PATHS.iter().map(|p| (RULE_NO_PANIC, *p));
    let deterministic = DETERMINISTIC_PATHS.iter().map(|p| (RULE_WALL_CLOCK, *p));
    hot.chain(deterministic).chain([(RULE_SYNC_FACADE, FACADE_PATH)]).collect()
}

/// Append-only baseline for the wire tag tables: the frozen prefix
/// that deployed peers already speak. `wire-tags-sync` fails if any of
/// these entries moves; new variants may only be appended after them
/// (and must reach `docs/WIRE_PROTOCOL.md` in the same change).
const CLIENT_TAG_BASELINE: &[&str] = &[
    "Register",
    "Subscribe",
    "Unsubscribe",
    "Publish",
    "SetMode",
    "Hello",
    "Ack",
    "Ping",
    "SetOntology",
];
/// Server-side half of the frozen baseline (see [`CLIENT_TAG_BASELINE`]).
const SERVER_TAG_BASELINE: &[&str] = &[
    "Registered",
    "Subscribed",
    "Unsubscribed",
    "Published",
    "ModeSet",
    "Error",
    "Notification",
    "Welcome",
    "Pong",
    "OntologyUpdated",
];
/// Value tags are closed: the set is frozen, not just the prefix.
const VALUE_TAG_BASELINE: &[&str] = &["Int", "Float", "Term", "Bool"];

/// A named rule, for `--list-rules`.
pub struct RuleInfo {
    /// Stable rule name, usable in `// lint: allow(...)`.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// All rules the checker knows, in evaluation order.
pub fn rules() -> Vec<RuleInfo> {
    vec![
        RuleInfo {
            name: RULE_SYNC_FACADE,
            summary: "runtime code uses stopss_types::sync, not std::sync/parking_lot",
        },
        RuleInfo {
            name: RULE_NO_PANIC,
            summary: "no unwrap()/panic!/unjustified expect() in broker/core hot paths",
        },
        RuleInfo {
            name: RULE_ORDERING,
            summary: "Ordering::Relaxed/SeqCst sites carry an `// ordering:` justification",
        },
        RuleInfo {
            name: RULE_WALL_CLOCK,
            summary: "no Instant::now/SystemTime::now in deterministic chaos/session code",
        },
        RuleInfo {
            name: RULE_WIRE_TAGS,
            summary: "wire tag tables append-only and in sync with docs/WIRE_PROTOCOL.md",
        },
        RuleInfo {
            name: RULE_CONSERVATION,
            summary: "every counter in a `// conservation:` identity has an increment site",
        },
    ]
}

/// One finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One source line after preprocessing.
struct Line {
    /// Code with comments removed and string/char literal *contents*
    /// blanked (the quotes remain, so `.expect(` stays visible).
    code: String,
    /// Comment text on this line (`//` and `/* */` contents).
    comment: String,
    /// Raw line as written, for expect-message extraction.
    raw: String,
    /// Inside a `#[cfg(test)]` item.
    in_test: bool,
}

/// A preprocessed source file.
struct SourceFile {
    rel: String,
    lines: Vec<Line>,
}

impl SourceFile {
    fn new(rel: &str, content: &str) -> Self {
        let (codes, comments) = strip(content);
        let in_test = mark_test_regions(&codes);
        let lines = content
            .lines()
            .enumerate()
            .map(|(i, raw)| Line {
                code: codes[i].clone(),
                comment: comments[i].clone(),
                raw: raw.to_string(),
                in_test: in_test[i],
            })
            .collect();
        SourceFile { rel: rel.to_string(), lines }
    }

    /// Whole-file suppression: `// lint: allow-file(rule)`.
    fn allows_file(&self, rule: &str) -> bool {
        let needle = format!("lint: allow-file({rule})");
        self.lines.iter().any(|l| l.comment.contains(&needle))
    }

    /// Per-site suppression: `// lint: allow(rule)` on the line or the
    /// line above.
    fn allows_line(&self, rule: &str, idx: usize) -> bool {
        let needle = format!("lint: allow({rule})");
        if self.lines[idx].comment.contains(&needle) {
            return true;
        }
        idx > 0 && self.lines[idx - 1].comment.contains(&needle)
    }
}

/// Splits source into per-line (code, comment) with string and char
/// literal contents blanked out of the code half. Handles `//` and
/// nested `/* */` comments, escapes, and `r"…"`/`r#"…"#` raw strings.
fn strip(content: &str) -> (Vec<String>, Vec<String>) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Code,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let mut mode = Mode::Code;
    let mut codes = Vec::new();
    let mut comments = Vec::new();
    for line in content.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            match mode {
                Mode::Code => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        comment.extend(&chars[i + 2..]);
                        break;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    } else if c == 'r'
                        && matches!(next, Some('"') | Some('#'))
                        && !prev_is_ident(&code)
                    {
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') {
                            code.push_str("r\"");
                            mode = Mode::RawStr(hashes);
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        if chars.get(i + 1) == Some(&'\\') {
                            // escaped char literal: skip to closing quote
                            match chars[i + 2..].iter().position(|&c| c == '\'') {
                                Some(off) => {
                                    code.push_str("' '");
                                    i += off + 3;
                                }
                                None => i += 1,
                            }
                        } else if chars.get(i + 2) == Some(&'\'') {
                            code.push_str("' '");
                            i += 3;
                        } else {
                            // lifetime — keep as-is
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                Mode::Block(depth) => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '*' && next == Some('/') {
                        mode = if depth == 1 { Mode::Code } else { Mode::Block(depth - 1) };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => {
                    let c = chars[i];
                    if c == '\\' {
                        i += 2; // skip escape
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if chars[i] == '"'
                        && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
                    {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1 + hashes as usize;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        codes.push(code);
        comments.push(comment.trim().to_string());
    }
    (codes, comments)
}

/// True if the stripped code so far ends in an identifier char —
/// distinguishes the raw-string sigil `r"` from an identifier ending
/// in `r` followed by a string.
fn prev_is_ident(code: &str) -> bool {
    code.chars().last().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Marks lines inside `#[cfg(test)]` items by brace tracking over the
/// stripped code: from the attribute to the matching close brace of
/// the item that follows it.
fn mark_test_regions(codes: &[String]) -> Vec<bool> {
    let mut flags = vec![false; codes.len()];
    let mut i = 0;
    while i < codes.len() {
        if codes[i].contains("#[cfg(test)]") {
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < codes.len() {
                flags[j] = true;
                for c in codes[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// Runs every rule over the workspace rooted at `root`.
///
/// `root` must contain `Cargo.toml` and `crates/`. Returns findings
/// sorted by file then line; an empty vector means clean.
pub fn check_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    if !root.join("Cargo.toml").exists() {
        return Err(format!("{} does not look like the workspace root", root.display()));
    }
    let files = collect_sources(root)?;
    let mut violations = Vec::new();
    for (rel, content) in &files {
        violations.extend(check_file(rel, content));
    }
    violations.extend(check_configured_paths(root, &configured_paths()));
    violations.extend(check_wire_tags_in_tree(root, &files));
    violations.extend(check_conservation(&files));
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// One violation per `(rule, path)` entry whose path does not exist
/// under `root`.
fn check_configured_paths(root: &Path, paths: &[(&'static str, &str)]) -> Vec<Violation> {
    paths
        .iter()
        .filter(|(_, rel)| !root.join(rel).exists())
        .map(|&(rule, rel)| Violation {
            rule,
            file: rel.to_string(),
            line: 0,
            message: format!(
                "`{rule}` is configured for `{rel}`, which does not exist under the root, \
                 so the entry scopes nothing; fix or drop it in crates/lint/src/lib.rs"
            ),
        })
        .collect()
}

/// Collects workspace-relative `.rs` sources the file rules run over:
/// the `src/` trees of the root package and every `crates/*` member.
/// The lint crate itself and `vendor/` are out of scope (vendored code
/// is what the facade hides; the linter's own sources and tests must
/// name every forbidden token).
fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut stack: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            if entry.file_name() == "lint" {
                continue;
            }
            let src = entry.path().join("src");
            if src.is_dir() {
                stack.push(src);
            }
        }
    }
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                let content = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
                out.push((rel, content));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs all single-file rules over one source file. Public so rule
/// unit tests can feed violating snippets without a filesystem.
pub fn check_file(rel: &str, content: &str) -> Vec<Violation> {
    let file = SourceFile::new(rel, content);
    let mut out = Vec::new();
    rule_sync_facade(&file, &mut out);
    rule_no_panic(&file, &mut out);
    rule_ordering(&file, &mut out);
    rule_wall_clock(&file, &mut out);
    out
}

fn rule_sync_facade(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel == FACADE_PATH || file.allows_file(RULE_SYNC_FACADE) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || file.allows_line(RULE_SYNC_FACADE, idx) {
            continue;
        }
        for token in ["std::sync::", "parking_lot::"] {
            if line.code.contains(token) {
                out.push(Violation {
                    rule: RULE_SYNC_FACADE,
                    file: file.rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{}` bypasses the sync facade; import from `stopss_types::sync` \
                         so the type participates in loom-lite model checking",
                        token.trim_end_matches(':')
                    ),
                });
                break;
            }
        }
    }
}

fn rule_no_panic(file: &SourceFile, out: &mut Vec<Violation>) {
    if !HOT_PATHS.contains(&file.rel.as_str()) || file.allows_file(RULE_NO_PANIC) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || file.allows_line(RULE_NO_PANIC, idx) {
            continue;
        }
        if line.code.contains(".unwrap()") {
            out.push(Violation {
                rule: RULE_NO_PANIC,
                file: file.rel.clone(),
                line: idx + 1,
                message: "`.unwrap()` in a hot path; return a typed error or use \
                          `.expect(\"invariant: ...\")` naming the invariant"
                    .into(),
            });
        }
        if line.code.contains("panic!(") {
            out.push(Violation {
                rule: RULE_NO_PANIC,
                file: file.rel.clone(),
                line: idx + 1,
                message: "`panic!` in a hot path; hot-path failures must be typed errors".into(),
            });
        }
        if let Some(pos) = line.raw.find(".expect(") {
            // The justification must open on the same line and start
            // with "invariant: ". Check the raw line — string contents
            // are blanked in `code` — but only when `code` also shows
            // the call (so comments/strings don't trigger).
            if line.code.contains(".expect(")
                && !line.raw[pos + ".expect(".len()..].trim_start().starts_with("\"invariant: ")
            {
                out.push(Violation {
                    rule: RULE_NO_PANIC,
                    file: file.rel.clone(),
                    line: idx + 1,
                    message: "`.expect()` in a hot path without an `\"invariant: ...\"` \
                              message naming the invariant that makes it unreachable"
                        .into(),
                });
            }
        }
    }
}

fn rule_ordering(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.allows_file(RULE_ORDERING) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || file.allows_line(RULE_ORDERING, idx) {
            continue;
        }
        let which =
            ["Ordering::Relaxed", "Ordering::SeqCst"].into_iter().find(|t| line.code.contains(t));
        let Some(which) = which else { continue };
        // Look for `ordering:` in a comment on this line or any line
        // of the contiguous paragraph above (stop at a blank line).
        let mut justified = line.comment.contains("ordering:");
        let mut j = idx;
        while !justified && j > 0 {
            j -= 1;
            let above = &file.lines[j];
            if above.raw.trim().is_empty() {
                break;
            }
            justified = above.comment.contains("ordering:");
        }
        if !justified {
            out.push(Violation {
                rule: RULE_ORDERING,
                file: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "`{which}` without an `// ordering:` justification in the same \
                     paragraph; say why this ordering is sufficient"
                ),
            });
        }
    }
}

fn rule_wall_clock(file: &SourceFile, out: &mut Vec<Violation>) {
    let scoped = DETERMINISTIC_PATHS.iter().any(|p| {
        if p.ends_with('/') {
            file.rel.starts_with(p)
        } else {
            file.rel == *p
        }
    });
    if !scoped || file.allows_file(RULE_WALL_CLOCK) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || file.allows_line(RULE_WALL_CLOCK, idx) {
            continue;
        }
        for token in ["Instant::now", "SystemTime::now"] {
            if line.code.contains(token) {
                out.push(Violation {
                    rule: RULE_WALL_CLOCK,
                    file: file.rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{token}` in deterministic code; seeded runs must be \
                         bit-reproducible — use logical ticks"
                    ),
                });
            }
        }
    }
}

/// Extracts the variant names of a `pub const *_TAG_TABLE` block from
/// `wire.rs` source text.
fn parse_code_table(wire_src: &str, table: &str) -> Vec<String> {
    let Some(start) = wire_src.find(&format!("pub const {table}")) else {
        return Vec::new();
    };
    let mut names = Vec::new();
    for line in wire_src[start..].lines().skip(1) {
        let line = line.trim();
        if line.starts_with("];") {
            break;
        }
        // Rows look like: (client_tag::REGISTER, "Register"),
        if let Some(q1) = line.find('"') {
            if let Some(q2) = line[q1 + 1..].find('"') {
                names.push(line[q1 + 1..q1 + 1 + q2].to_string());
            }
        }
    }
    names
}

/// Extracts the variant column of the markdown tag table after
/// `heading` in `docs/WIRE_PROTOCOL.md` text.
fn parse_doc_table(doc: &str, heading: &str) -> Vec<String> {
    let Some((_, section)) = doc.split_once(heading) else { return Vec::new() };
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in section.lines() {
        let line = line.trim();
        if !in_table {
            if line.starts_with("| Tag | Variant |") {
                in_table = true;
            }
            continue;
        }
        if !line.starts_with('|') {
            break;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 || cells[0].starts_with("---") {
            continue;
        }
        rows.push(cells[1].trim_matches('`').to_string());
    }
    rows
}

/// `wire-tags-sync` over in-memory sources. Public for unit tests.
pub fn check_wire_tags(wire_src: &str, doc: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let wire_rel = "crates/broker/src/wire.rs";
    let checks: [(&str, &str, &[&str], bool); 3] = [
        ("CLIENT_TAG_TABLE", "## Client → server messages", CLIENT_TAG_BASELINE, false),
        ("SERVER_TAG_TABLE", "## Server → client messages", SERVER_TAG_BASELINE, false),
        ("VALUE_TAG_TABLE", "", VALUE_TAG_BASELINE, true),
    ];
    for (table, heading, baseline, closed) in checks {
        let code = parse_code_table(wire_src, table);
        if code.is_empty() {
            out.push(Violation {
                rule: RULE_WIRE_TAGS,
                file: wire_rel.into(),
                line: 0,
                message: format!("could not parse `{table}` out of wire.rs"),
            });
            continue;
        }
        // Append-only against the frozen baseline.
        for (i, want) in baseline.iter().enumerate() {
            match code.get(i) {
                Some(got) if got == want => {}
                Some(got) => out.push(Violation {
                    rule: RULE_WIRE_TAGS,
                    file: wire_rel.into(),
                    line: 0,
                    message: format!(
                        "`{table}` tag {i} is `{got}` but the frozen baseline says \
                         `{want}` — tags are append-only, never renumbered"
                    ),
                }),
                None => out.push(Violation {
                    rule: RULE_WIRE_TAGS,
                    file: wire_rel.into(),
                    line: 0,
                    message: format!(
                        "`{table}` lost baseline entry {i} (`{want}`) — tags are \
                         append-only, never removed"
                    ),
                }),
            }
        }
        if closed && code.len() > baseline.len() {
            out.push(Violation {
                rule: RULE_WIRE_TAGS,
                file: wire_rel.into(),
                line: 0,
                message: format!(
                    "`{table}` grew past the closed set {baseline:?}; adding a value \
                     kind needs a protocol revision, not a tag"
                ),
            });
        }
        // Doc sync (markdown tables only; the value block has its own
        // format and is covered by tests/wire_doc_drift.rs).
        if heading.is_empty() {
            continue;
        }
        let doc_rows = parse_doc_table(doc, heading);
        if doc_rows != code {
            out.push(Violation {
                rule: RULE_WIRE_TAGS,
                file: "docs/WIRE_PROTOCOL.md".into(),
                line: 0,
                message: format!(
                    "tag table under `{heading}` lists {doc_rows:?} but wire.rs \
                     `{table}` has {code:?} — update the doc in the same change"
                ),
            });
        }
    }
    out
}

fn check_wire_tags_in_tree(root: &Path, files: &[(String, String)]) -> Vec<Violation> {
    let wire = files.iter().find(|(rel, _)| rel == "crates/broker/src/wire.rs");
    let doc = std::fs::read_to_string(root.join("docs/WIRE_PROTOCOL.md"));
    match (wire, doc) {
        (Some((_, wire_src)), Ok(doc)) => check_wire_tags(wire_src, &doc),
        (None, _) => vec![Violation {
            rule: RULE_WIRE_TAGS,
            file: "crates/broker/src/wire.rs".into(),
            line: 0,
            message: "wire.rs missing from workspace".into(),
        }],
        (_, Err(e)) => vec![Violation {
            rule: RULE_WIRE_TAGS,
            file: "docs/WIRE_PROTOCOL.md".into(),
            line: 0,
            message: format!("cannot read docs/WIRE_PROTOCOL.md: {e}"),
        }],
    }
}

/// `conservation-counters`: finds `// conservation: <identity>`
/// anchors, takes every identifier in the identity as a counter name,
/// and requires `name +=` or `name.fetch_add(` somewhere in the
/// workspace. Public for unit tests.
pub fn check_conservation(files: &[(String, String)]) -> Vec<Violation> {
    let stripped: Vec<(String, Vec<String>, Vec<String>)> = files
        .iter()
        .map(|(rel, content)| {
            let (codes, comments) = strip(content);
            (rel.clone(), codes, comments)
        })
        .collect();
    let mut counters: Vec<(String, String, usize)> = Vec::new();
    for (rel, _, comments) in &stripped {
        for (idx, comment) in comments.iter().enumerate() {
            let Some(pos) = comment.find("conservation:") else { continue };
            let identity = &comment[pos + "conservation:".len()..];
            for name in identifiers(identity) {
                counters.push((name, rel.clone(), idx + 1));
            }
        }
    }
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (name, rel, line) in counters {
        if !seen.insert(name.clone()) {
            continue;
        }
        let add = format!("{name} +=");
        let fetch = format!("{name}.fetch_add(");
        let incremented = stripped
            .iter()
            .any(|(_, codes, _)| codes.iter().any(|c| c.contains(&add) || c.contains(&fetch)));
        if !incremented {
            out.push(Violation {
                rule: RULE_CONSERVATION,
                file: rel,
                line,
                message: format!(
                    "counter `{name}` appears in a conservation identity but has no \
                     `{name} +=` / `{name}.fetch_add(` increment site in the workspace"
                ),
            });
        }
    }
    out
}

/// Identifiers in an identity expression, skipping operators and
/// numbers.
fn identifiers(identity: &str) -> Vec<String> {
    identity
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty() && !t.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn only_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
        violations.iter().filter(|v| v.rule == rule).collect()
    }

    // --- sync-facade -----------------------------------------------------

    #[test]
    fn sync_facade_flags_std_sync_import() {
        let src = "use std::sync::Mutex;\nfn f() {}\n";
        let v = check_file("crates/broker/src/dispatcher.rs", src);
        let hits = only_rule(&v, RULE_SYNC_FACADE);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
        assert!(hits[0].message.contains("stopss_types::sync"));
    }

    #[test]
    fn sync_facade_flags_parking_lot() {
        let src = "use parking_lot::RwLock;\n";
        let v = check_file("crates/core/src/matcher.rs", src);
        assert_eq!(only_rule(&v, RULE_SYNC_FACADE).len(), 1);
    }

    #[test]
    fn sync_facade_ignores_tests_comments_strings_and_facade() {
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::Arc;\n}\n";
        assert!(only_rule(&check_file("crates/broker/src/server.rs", in_test), RULE_SYNC_FACADE)
            .is_empty());
        let in_comment = "// std::sync::Mutex is banned here\nfn f() {}\n";
        assert!(only_rule(
            &check_file("crates/broker/src/server.rs", in_comment),
            RULE_SYNC_FACADE
        )
        .is_empty());
        let in_string = "fn f() -> &'static str { \"std::sync::Mutex\" }\n";
        assert!(only_rule(&check_file("crates/broker/src/server.rs", in_string), RULE_SYNC_FACADE)
            .is_empty());
        let facade = "pub use std::sync::{atomic, Arc};\n";
        assert!(only_rule(&check_file(FACADE_PATH, facade), RULE_SYNC_FACADE).is_empty());
    }

    #[test]
    fn sync_facade_suppression_works() {
        let line_above = "// lint: allow(sync-facade)\nuse std::sync::Weak;\n";
        assert!(only_rule(
            &check_file("crates/broker/src/notify.rs", line_above),
            RULE_SYNC_FACADE
        )
        .is_empty());
        let file_wide =
            "// lint: allow-file(sync-facade)\nuse std::sync::Weak;\nuse std::sync::Arc;\n";
        assert!(only_rule(&check_file("crates/broker/src/notify.rs", file_wide), RULE_SYNC_FACADE)
            .is_empty());
    }

    // --- no-panic-hot-path ----------------------------------------------

    #[test]
    fn no_panic_flags_unwrap_in_hot_path() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = check_file("crates/broker/src/eventloop.rs", src);
        let hits = only_rule(&v, RULE_NO_PANIC);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("unwrap"));
    }

    #[test]
    fn no_panic_flags_bare_and_unjustified_expect() {
        let bare = "fn f(x: Option<u8>) -> u8 { x.expect(\"oops\") }\n";
        assert_eq!(
            only_rule(&check_file("crates/broker/src/session.rs", bare), RULE_NO_PANIC).len(),
            1
        );
        let justified = "fn f(x: Option<u8>) -> u8 { x.expect(\"invariant: caller checked\") }\n";
        assert!(only_rule(&check_file("crates/broker/src/session.rs", justified), RULE_NO_PANIC)
            .is_empty());
    }

    #[test]
    fn no_panic_flags_panic_macro_but_not_outside_hot_paths() {
        let src = "fn f() { panic!(\"boom\") }\n";
        assert_eq!(
            only_rule(&check_file("crates/core/src/matcher.rs", src), RULE_NO_PANIC).len(),
            1
        );
        // chaos.rs is harness code, not a hot path.
        assert!(only_rule(&check_file("crates/broker/src/chaos.rs", src), RULE_NO_PANIC).is_empty());
        // unwrap() in tests inside a hot-path file is fine.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(
            only_rule(&check_file("crates/broker/src/wire.rs", in_test), RULE_NO_PANIC).is_empty()
        );
    }

    // --- ordering-justified ----------------------------------------------

    #[test]
    fn ordering_flags_unjustified_relaxed() {
        let src = "fn f(c: &A) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = check_file("crates/broker/src/dispatcher.rs", src);
        let hits = only_rule(&v, RULE_ORDERING);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("Ordering::Relaxed"));
    }

    #[test]
    fn ordering_accepts_paragraph_justification() {
        let same_line =
            "fn f(c: &A) { c.fetch_add(1, Ordering::Relaxed); // ordering: monotone\n}\n";
        assert!(only_rule(
            &check_file("crates/broker/src/dispatcher.rs", same_line),
            RULE_ORDERING
        )
        .is_empty());
        let above = "fn f(c: &A) {\n    // ordering: monotone counter, adds commute\n    // and no other state is paired with it\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(only_rule(&check_file("crates/broker/src/dispatcher.rs", above), RULE_ORDERING)
            .is_empty());
        // A blank line cuts the paragraph: justification no longer reaches.
        let cut = "fn f(c: &A) {\n    // ordering: monotone\n\n    c.fetch_add(1, Ordering::SeqCst);\n}\n";
        assert_eq!(
            only_rule(&check_file("crates/broker/src/dispatcher.rs", cut), RULE_ORDERING).len(),
            1
        );
    }

    // --- no-wall-clock ---------------------------------------------------

    #[test]
    fn wall_clock_flags_instant_now_in_deterministic_code() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let v = check_file("crates/broker/src/chaos.rs", src);
        assert_eq!(only_rule(&v, RULE_WALL_CLOCK).len(), 1);
        let wl = check_file("crates/workload/src/scenario.rs", src);
        assert_eq!(only_rule(&wl, RULE_WALL_CLOCK).len(), 1);
        // Bench is wall-clock by design — out of scope.
        assert!(only_rule(&check_file("crates/bench/src/lib.rs", src), RULE_WALL_CLOCK).is_empty());
    }

    // --- wire-tags-sync --------------------------------------------------

    const WIRE_OK: &str = r#"
pub const CLIENT_TAG_TABLE: &[(u8, &str)] = &[
    (client_tag::REGISTER, "Register"),
    (client_tag::SUBSCRIBE, "Subscribe"),
    (client_tag::UNSUBSCRIBE, "Unsubscribe"),
    (client_tag::PUBLISH, "Publish"),
    (client_tag::SET_MODE, "SetMode"),
    (client_tag::HELLO, "Hello"),
    (client_tag::ACK, "Ack"),
    (client_tag::PING, "Ping"),
    (client_tag::SET_ONTOLOGY, "SetOntology"),
];
pub const SERVER_TAG_TABLE: &[(u8, &str)] = &[
    (server_tag::REGISTERED, "Registered"),
    (server_tag::SUBSCRIBED, "Subscribed"),
    (server_tag::UNSUBSCRIBED, "Unsubscribed"),
    (server_tag::PUBLISHED, "Published"),
    (server_tag::MODE_SET, "ModeSet"),
    (server_tag::ERROR, "Error"),
    (server_tag::NOTIFICATION, "Notification"),
    (server_tag::WELCOME, "Welcome"),
    (server_tag::PONG, "Pong"),
    (server_tag::ONTOLOGY_UPDATED, "OntologyUpdated"),
];
pub const VALUE_TAG_TABLE: &[(u8, &str)] = &[
    (value_tag::INT, "Int"),
    (value_tag::FLOAT, "Float"),
    (value_tag::TERM, "Term"),
    (value_tag::BOOL, "Bool"),
];
"#;

    fn doc_for(client: &[&str], server: &[&str]) -> String {
        let mut doc = String::from(
            "## Client → server messages\n\n| Tag | Variant | Body |\n|---|---|---|\n",
        );
        for (i, v) in client.iter().enumerate() {
            doc.push_str(&format!("| {i} | `{v}` | x |\n"));
        }
        doc.push_str("\n## Server → client messages\n\n| Tag | Variant | Body |\n|---|---|---|\n");
        for (i, v) in server.iter().enumerate() {
            doc.push_str(&format!("| {i} | `{v}` | x |\n"));
        }
        doc
    }

    #[test]
    fn wire_tags_clean_when_in_sync() {
        let doc = doc_for(CLIENT_TAG_BASELINE, SERVER_TAG_BASELINE);
        assert!(check_wire_tags(WIRE_OK, &doc).is_empty());
    }

    #[test]
    fn wire_tags_catches_renumbered_baseline() {
        // Swap Register/Subscribe in the code table: a renumbering.
        let bad = WIRE_OK
            .replace("\"Register\"", "\"TMP\"")
            .replace("\"Subscribe\"", "\"Register\"")
            .replace("\"TMP\"", "\"Subscribe\"");
        let doc = doc_for(CLIENT_TAG_BASELINE, SERVER_TAG_BASELINE);
        let v = check_wire_tags(&bad, &doc);
        assert!(
            v.iter().any(|v| v.message.contains("append-only")),
            "expected an append-only violation, got {v:?}"
        );
    }

    #[test]
    fn wire_tags_catches_doc_drift() {
        // Code gains a tag the doc doesn't know.
        let grown = WIRE_OK.replace(
            "    (client_tag::SET_ONTOLOGY, \"SetOntology\"),\n];",
            "    (client_tag::SET_ONTOLOGY, \"SetOntology\"),\n    (client_tag::BYE, \"Bye\"),\n];",
        );
        let doc = doc_for(CLIENT_TAG_BASELINE, SERVER_TAG_BASELINE);
        let v = check_wire_tags(&grown, &doc);
        assert!(
            v.iter().any(|v| v.file == "docs/WIRE_PROTOCOL.md"),
            "expected a doc-drift violation, got {v:?}"
        );
    }

    #[test]
    fn wire_tags_value_set_is_closed() {
        let grown = WIRE_OK.replace(
            "    (value_tag::BOOL, \"Bool\"),\n];",
            "    (value_tag::BOOL, \"Bool\"),\n    (value_tag::BLOB, \"Blob\"),\n];",
        );
        let doc = doc_for(CLIENT_TAG_BASELINE, SERVER_TAG_BASELINE);
        let v = check_wire_tags(&grown, &doc);
        assert!(
            v.iter().any(|v| v.message.contains("closed set")),
            "expected a closed-set violation, got {v:?}"
        );
    }

    // --- conservation-counters -------------------------------------------

    #[test]
    fn conservation_clean_when_counters_increment() {
        let files = vec![
            (
                "crates/broker/src/eventloop.rs".to_string(),
                "// conservation: seen == lost + kept\nfn f(s: &mut S) { s.seen += 1; s.kept += 1; }\n"
                    .to_string(),
            ),
            (
                "crates/broker/src/notify.rs".to_string(),
                "fn g(c: &A) { c.lost.fetch_add(1, O::Relaxed); }\n".to_string(),
            ),
        ];
        assert!(check_conservation(&files).is_empty());
    }

    #[test]
    fn conservation_flags_counter_with_no_increment_site() {
        let files = vec![(
            "crates/broker/src/eventloop.rs".to_string(),
            "// conservation: seen == lost + kept\nfn f(s: &mut S) { s.seen += 1; s.kept += 1; }\n"
                .to_string(),
        )];
        let v = check_conservation(&files);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_CONSERVATION);
        assert!(v[0].message.contains("`lost`"));
    }

    // --- engine plumbing -------------------------------------------------

    #[test]
    fn rules_catalogue_matches_rule_constants() {
        let names: Vec<&str> = rules().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                RULE_SYNC_FACADE,
                RULE_NO_PANIC,
                RULE_ORDERING,
                RULE_WALL_CLOCK,
                RULE_WIRE_TAGS,
                RULE_CONSERVATION
            ]
        );
    }

    #[test]
    fn strip_handles_block_comments_and_raw_strings() {
        let src = "let a = 1; /* std::sync::Mutex */ let b = r\"std::sync\"; // tail\n";
        let (codes, comments) = strip(src);
        assert!(!codes[0].contains("std::sync"));
        assert!(comments[0].contains("std::sync::Mutex"));
        assert!(comments[0].contains("tail"));
    }

    #[test]
    fn configured_path_missing_under_the_root_is_a_violation() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert!(check_configured_paths(&root, &configured_paths()).is_empty());
        let mut paths = configured_paths();
        paths.push((RULE_NO_PANIC, "crates/core/src/removed.rs"));
        let v = check_configured_paths(&root, &paths);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].file.as_str()), (RULE_NO_PANIC, "crates/core/src/removed.rs"));
        // Through the whole `--check`: this crate's directory is a root
        // (it has a Cargo.toml) holding none of the configured paths.
        let lint_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let v = check_workspace(lint_root).expect("the lint crate should be scannable");
        for (rule, rel) in configured_paths() {
            assert!(v.iter().any(|v| v.rule == rule && v.file == rel), "{rel} unreported: {v:?}");
        }
    }

    #[test]
    fn workspace_self_check_is_clean() {
        // The real tree must stay lint-clean; this is the same check CI
        // runs via `cargo run -p stopss-lint -- --check`.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = check_workspace(&root).expect("workspace should be scannable");
        assert!(violations.is_empty(), "workspace has lint violations:\n{violations:#?}");
    }
}
