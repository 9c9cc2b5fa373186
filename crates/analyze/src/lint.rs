//! Source-level lint for the serving hot path.
//!
//! PR 2 established a rule the compiler cannot enforce: code on the
//! serving path — selection cache, resilient executor, selector,
//! simulated runtime — must not contain latent panics. This module
//! makes the rule mechanical. It is deliberately *not* a Rust parser:
//! a scanner strips comments and string literals (preserving line
//! structure), carves out `#[cfg(test)]` regions, and then matches a
//! small set of token patterns. That is crude but fast (the whole hot
//! path lints in milliseconds), has no dependencies, and the escape
//! hatch — `// lint:allow(<rule>)` on the offending or preceding line —
//! keeps false positives cheap to silence *visibly*, in the diff.
//!
//! Rules:
//!
//! | id                 | bans                                         |
//! |--------------------|----------------------------------------------|
//! | `no-unwrap`        | `.unwrap(`                                   |
//! | `no-expect`        | `.expect(`                                   |
//! | `no-panic`         | `panic!`                                     |
//! | `no-todo`          | `todo!`                                      |
//! | `no-unimplemented` | `unimplemented!`                             |
//! | `no-partial-cmp`   | `partial_cmp` (prefer `total_cmp`)           |
//! | `no-index`         | non-literal slice/array indexing `xs[i]`     |
//! | `no-alloc`         | allocation on the decide path                |
//!
//! `no-index` permits integer-literal subscripts (`range[0]` on a
//! `[usize; 2]` cannot move out of bounds at runtime) and fires on
//! everything else, including range slicing.
//!
//! `no-alloc` bans `Vec::new`, `Box::new`, `String::from`, `format!`,
//! `.push(`, `.to_vec(` and `.clone()` — the allocation idioms that
//! can sneak onto the sub-100ns decide path. It applies only to
//! [`DECIDE_PATH_FILES`] (the panic rules cover all of
//! [`HOT_PATH_FILES`]); cold paths inside those files opt out
//! per-item with `// lint:allow-fn(no-alloc) <justification>`, which
//! suppresses the named rules from the comment through the end of the
//! next item's body.
//!
//! To add a rule: extend [`Rule`], its `ALL`/`id`/`from_id` tables, and
//! the matching arm in `scan_line` (or `scan_indexing` for token-level
//! rules), then add a fixture case in `tests/lint_fixtures.rs`.

use std::fmt;
use std::path::Path;

/// Workspace-relative source files on the serving hot path, the default
/// lint target set for the `hotpath_lint` binary. The mlkit inference
/// modules are included because every selector prediction (knn/forest)
/// and shape-cluster assignment (kmeans) runs inside the serving loop;
/// the sharded scheduler, the ingress layer in front of it, and their
/// acceptance examples are included because a panic in the fleet front
/// door takes down every device's traffic at once; the snapshot
/// restore path is included because a corrupted snapshot must degrade
/// typed, never panic a restarting server.
pub const HOT_PATH_FILES: [&str; 14] = [
    "crates/core/src/cache.rs",
    "crates/core/src/ingress.rs",
    "crates/core/src/online.rs",
    "crates/core/src/persist.rs",
    "crates/core/src/resilient.rs",
    "crates/core/src/sched.rs",
    "crates/core/src/select.rs",
    "crates/core/src/telemetry.rs",
    "crates/mlkit/src/forest.rs",
    "crates/mlkit/src/kmeans.rs",
    "crates/mlkit/src/knn.rs",
    "crates/sycl-sim/src/runtime.rs",
    "examples/ingress_serving.rs",
    "examples/sharded_serving.rs",
];

/// Files whose non-cold code is the *decide path* — the sub-microsecond
/// cached-selection route a serving request takes on every pick. These
/// additionally carry the `no-alloc` rule (ROADMAP item 4): a malloc on
/// this path costs more than the decision itself. Matched by file name
/// so both workspace-relative and absolute invocations agree.
pub const DECIDE_PATH_FILES: [&str; 4] = ["cache.rs", "online.rs", "select.rs", "telemetry.rs"];

/// Files carrying *only* the `no-partial-cmp` rule: training-time code
/// whose NaN-ordering panics were swept in the hdbscan/svm/tree/eigen
/// and tuner cleanups. They legitimately use `unwrap`/indexing off the
/// serving path, so the full panic-safety set would drown them in
/// false positives — but a `partial_cmp` regression here reintroduces
/// the exact bug class the sweep removed. Matched by path suffix so
/// workspace-relative and absolute invocations agree.
pub const TOTAL_CMP_FILES: [&str; 6] = [
    "crates/mlkit/src/eigen.rs",
    "crates/mlkit/src/hdbscan.rs",
    "crates/mlkit/src/svm.rs",
    "crates/mlkit/src/tree.rs",
    "crates/tuner/src/objective.rs",
    "crates/tuner/src/strategies.rs",
];

/// A lint rule the hot path must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Ban `.unwrap(` — a latent panic on `None`/`Err`.
    NoUnwrap,
    /// Ban `.expect(` — a latent panic with a message.
    NoExpect,
    /// Ban `panic!` invocations.
    NoPanic,
    /// Ban `todo!` placeholders.
    NoTodo,
    /// Ban `unimplemented!` placeholders.
    NoUnimplemented,
    /// Ban `partial_cmp` — `total_cmp` cannot return `None` on NaN.
    NoPartialCmp,
    /// Ban non-literal slice indexing — prefer `.get(...)`.
    NoIndex,
    /// Ban allocation idioms on the decide path.
    NoAlloc,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::NoUnwrap,
        Rule::NoExpect,
        Rule::NoPanic,
        Rule::NoTodo,
        Rule::NoUnimplemented,
        Rule::NoPartialCmp,
        Rule::NoIndex,
        Rule::NoAlloc,
    ];

    /// The panic-safety rules applied to every hot-path file.
    pub const PANIC_SAFETY: [Rule; 7] = [
        Rule::NoUnwrap,
        Rule::NoExpect,
        Rule::NoPanic,
        Rule::NoTodo,
        Rule::NoUnimplemented,
        Rule::NoPartialCmp,
        Rule::NoIndex,
    ];

    /// Stable id used in diagnostics and `lint:allow(...)` comments.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::NoExpect => "no-expect",
            Rule::NoPanic => "no-panic",
            Rule::NoTodo => "no-todo",
            Rule::NoUnimplemented => "no-unimplemented",
            Rule::NoPartialCmp => "no-partial-cmp",
            Rule::NoIndex => "no-index",
            Rule::NoAlloc => "no-alloc",
        }
    }

    /// Parse an id back into a rule.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The file the violation is in (as given to the linter).
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// The trimmed offending source line.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// The rule set a given path must satisfy: `no-partial-cmp` alone for
/// [`TOTAL_CMP_FILES`], otherwise panic safety everywhere, plus
/// `no-alloc` when the file name is one of [`DECIDE_PATH_FILES`].
pub fn rules_for(path: &str) -> Vec<Rule> {
    let name = Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(path);
    let normalized = path.replace('\\', "/");
    if TOTAL_CMP_FILES.iter().any(|f| normalized.ends_with(f)) {
        return vec![Rule::NoPartialCmp];
    }
    let mut rules: Vec<Rule> = Rule::PANIC_SAFETY.to_vec();
    if DECIDE_PATH_FILES.contains(&name) {
        rules.push(Rule::NoAlloc);
    }
    rules
}

/// Lint a file on disk with the rule set from [`rules_for`].
pub fn lint_file(path: &Path) -> std::io::Result<Vec<Violation>> {
    let source = std::fs::read_to_string(path)?;
    let display = path.display().to_string();
    let rules = rules_for(&display);
    Ok(lint_source_with(&display, &source, &rules))
}

/// Lint source text with the panic-safety rule set, reporting violations
/// outside `#[cfg(test)]` code that are not suppressed by a
/// `// lint:allow(<rule>)` comment on the same or the preceding line.
pub fn lint_source(file: &str, source: &str) -> Vec<Violation> {
    lint_source_with(file, source, &Rule::PANIC_SAFETY)
}

/// Lint source text against an explicit rule set. Suppression comes in
/// two scopes: `lint:allow(<rules>)` on the same or preceding line, and
/// `lint:allow-fn(<rules>)` covering the whole next item body.
pub fn lint_source_with(file: &str, source: &str, rules: &[Rule]) -> Vec<Violation> {
    let allows = collect_allows(source);
    let sanitized = sanitize(source);
    let fn_allows = collect_fn_allows(source, &sanitized);
    let test_lines = test_region_lines(&sanitized);
    let raw_lines: Vec<&str> = source.lines().collect();

    let mut violations = Vec::new();
    for (idx, line) in sanitized.lines().enumerate() {
        let lineno = idx + 1;
        if test_lines.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for rule in scan_line(line) {
            if !rules.contains(&rule) {
                continue;
            }
            let allowed = allows_rule(&allows, lineno, rule)
                || fn_allows
                    .iter()
                    .any(|&(r, start, end)| r == rule && (start..=end).contains(&lineno));
            if !allowed {
                violations.push(Violation {
                    file: file.to_string(),
                    line: lineno,
                    rule,
                    snippet: raw_lines
                        .get(idx)
                        .map_or(String::new(), |l| l.trim().to_string()),
                });
            }
        }
    }
    violations
}

/// Whether `rule` is allowed at `lineno` (1-based): an allow comment on
/// the same line or the line directly above suppresses it.
fn allows_rule(allows: &[Vec<Rule>], lineno: usize, rule: Rule) -> bool {
    let at = |l: usize| l >= 1 && allows.get(l - 1).is_some_and(|v| v.contains(&rule));
    at(lineno) || at(lineno - 1)
}

/// Per-line `lint:allow(...)` rule lists, parsed from the raw source so
/// comment stripping cannot eat them.
fn collect_allows(source: &str) -> Vec<Vec<Rule>> {
    source
        .lines()
        .map(|line| {
            let mut rules = Vec::new();
            let mut rest = line;
            while let Some(pos) = rest.find("lint:allow(") {
                rest = &rest[pos + "lint:allow(".len()..];
                if let Some(end) = rest.find(')') {
                    for id in rest[..end].split(',') {
                        if let Some(rule) = Rule::from_id(id.trim()) {
                            rules.push(rule);
                        }
                    }
                    rest = &rest[end + 1..];
                } else {
                    break;
                }
            }
            rules
        })
        .collect()
}

/// Item-scoped allows. A `// lint:allow-fn(<rules>) <why>` comment
/// suppresses the named rules from its own line through the end of the
/// next item's brace-matched body (or its terminating semicolon, for
/// braceless items). Returns `(rule, start_line, end_line)` triples,
/// 1-based inclusive.
fn collect_fn_allows(source: &str, sanitized: &str) -> Vec<(Rule, usize, usize)> {
    let bytes = sanitized.as_bytes();
    // Byte offset where each sanitized line starts, and line of each byte.
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |offset: usize| -> usize {
        match line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        }
    };

    let mut regions = Vec::new();
    for (idx, raw_line) in source.lines().enumerate() {
        let Some(pos) = raw_line.find("lint:allow-fn(") else {
            continue;
        };
        let rest = &raw_line[pos + "lint:allow-fn(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let listed: Vec<Rule> = rest[..close]
            .split(',')
            .filter_map(|id| Rule::from_id(id.trim()))
            .collect();
        if listed.is_empty() {
            continue;
        }
        // Walk the sanitized source from this line for the item body:
        // first `{` opens a brace-matched region; a `;` first means a
        // braceless item ending there.
        let mut j = *line_starts.get(idx).unwrap_or(&bytes.len());
        let mut end = bytes.len().saturating_sub(1);
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    let mut depth = 0usize;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    end = j;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    break;
                }
                b';' => {
                    end = j;
                    break;
                }
                _ => j += 1,
            }
        }
        let end_line = line_of(end.min(bytes.len().saturating_sub(1))) + 1;
        for rule in listed {
            regions.push((rule, idx + 1, end_line));
        }
    }
    regions
}

/// Replace comments and string/char literals with spaces, preserving
/// line structure, so token scans cannot fire inside text.
pub(crate) fn sanitize(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (consumed, blanked) = skip_raw_string(bytes, i);
                out.extend_from_slice(&blanked);
                i += consumed;
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' if is_char_literal(bytes, i) => {
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'\\') {
                    j += 2; // skip the escape lead-in
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                } else {
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                }
                let end = j.min(bytes.len() - 1);
                out.extend(std::iter::repeat_n(b' ', end - i + 1));
                i = j + 1;
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn skip_raw_string(bytes: &[u8], i: usize) -> (usize, Vec<u8>) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    let mut end = bytes.len();
    let mut k = j;
    while k < bytes.len() {
        if bytes[k..].starts_with(&closer) {
            end = k + closer.len();
            break;
        }
        k += 1;
    }
    let blanked = bytes[i..end]
        .iter()
        .map(|&b| if b == b'\n' { b'\n' } else { b' ' })
        .collect();
    (end - i, blanked)
}

/// Distinguish a char literal from a lifetime: `'x'` or `'\...'` closes
/// with a quote nearby; `'a` in `&'a str` does not.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(&b'\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

/// Mark the lines covered by `#[cfg(test)]` items (attribute through
/// the matching close brace, or the terminating semicolon for
/// braceless items).
pub(crate) fn test_region_lines(sanitized: &str) -> Vec<bool> {
    let n_lines = sanitized.lines().count();
    let mut flags = vec![false; n_lines];
    let bytes = sanitized.as_bytes();
    let line_of: Vec<usize> = {
        let mut v = Vec::with_capacity(bytes.len());
        let mut line = 0;
        for &b in bytes {
            v.push(line);
            if b == b'\n' {
                line += 1;
            }
        }
        v
    };

    let needle = b"#[cfg(test)]";
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] != needle.as_slice() {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + needle.len();
        // Find the item body: first `{` opens a brace-matched region;
        // a `;` first means a braceless item.
        let mut end = bytes.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    let mut depth = 0usize;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    end = j + 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    break;
                }
                b';' => {
                    end = j + 1;
                    break;
                }
                _ => j += 1,
            }
        }
        let (a, b) = (line_of[start], line_of[(end - 1).min(bytes.len() - 1)]);
        for flag in flags.iter_mut().take(b + 1).skip(a) {
            *flag = true;
        }
        i = end.max(i + 1);
    }
    flags
}

pub(crate) fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `pat` occurs in `line` starting at a non-identifier boundary.
pub(crate) fn contains_token(line: &str, pat: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(pat) {
        let at = from + pos;
        let boundary = at == 0 || !is_ident(bytes[at - 1]);
        if boundary {
            return true;
        }
        from = at + 1;
    }
    false
}

/// All rule hits on one sanitized line.
fn scan_line(line: &str) -> Vec<Rule> {
    let mut hits = Vec::new();
    if line.contains(".unwrap(") {
        hits.push(Rule::NoUnwrap);
    }
    if line.contains(".expect(") {
        hits.push(Rule::NoExpect);
    }
    if contains_token(line, "panic!") {
        hits.push(Rule::NoPanic);
    }
    if contains_token(line, "todo!") {
        hits.push(Rule::NoTodo);
    }
    if contains_token(line, "unimplemented!") {
        hits.push(Rule::NoUnimplemented);
    }
    if contains_token(line, "partial_cmp") {
        hits.push(Rule::NoPartialCmp);
    }
    if scan_indexing(line) {
        hits.push(Rule::NoIndex);
    }
    if scan_alloc(line) {
        hits.push(Rule::NoAlloc);
    }
    hits
}

/// Detect allocation idioms: constructor paths (`Vec::new`, `Box::new`,
/// `String::from`), the `format!` macro, and allocating method calls
/// (`.push(`, `.to_vec(`, `.clone()`).
fn scan_alloc(line: &str) -> bool {
    contains_token(line, "Vec::new")
        || contains_token(line, "Box::new")
        || contains_token(line, "String::from")
        || contains_token(line, "format!")
        || line.contains(".push(")
        || line.contains(".to_vec(")
        || line.contains(".clone()")
}

/// Detect non-literal index expressions `expr[subscript]`: a `[`
/// directly preceded by an identifier character, `]` or `)`, whose
/// subscript is not a bare integer literal.
fn scan_indexing(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (pos, &b) in bytes.iter().enumerate() {
        if b != b'[' || pos == 0 {
            continue;
        }
        let prev = bytes[pos - 1];
        if !(is_ident(prev) || prev == b']' || prev == b')') {
            continue;
        }
        // Find the matching close bracket on this line.
        let mut depth = 0usize;
        let mut close = None;
        for (k, &c) in bytes.iter().enumerate().skip(pos) {
            match c {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(k);
                        break;
                    }
                }
                _ => {}
            }
        }
        let content = match close {
            Some(k) => line[pos + 1..k].trim(),
            // Subscript continues past the line: conservatively flag.
            None => return true,
        };
        let literal =
            !content.is_empty() && content.bytes().all(|c| c.is_ascii_digit() || c == b'_');
        if !literal {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_in(src: &str) -> Vec<Rule> {
        lint_source("mem.rs", src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn flags_each_banned_construct() {
        assert_eq!(rules_in("let x = y.unwrap();"), vec![Rule::NoUnwrap]);
        assert_eq!(rules_in("let x = y.expect(\"m\");"), vec![Rule::NoExpect]);
        assert_eq!(rules_in("panic!(\"boom\");"), vec![Rule::NoPanic]);
        assert_eq!(rules_in("todo!()"), vec![Rule::NoTodo]);
        assert_eq!(rules_in("unimplemented!()"), vec![Rule::NoUnimplemented]);
        assert_eq!(rules_in("a.partial_cmp(&b)"), vec![Rule::NoPartialCmp]);
        assert_eq!(rules_in("let v = xs[i];"), vec![Rule::NoIndex]);
    }

    #[test]
    fn literal_indexing_and_non_index_brackets_pass() {
        assert!(rules_in("let v = r.global()[0];").is_empty());
        assert!(rules_in("let a: [usize; 2] = [m, n];").is_empty());
        assert!(rules_in("let v = vec![1, 2, 3];").is_empty());
        assert!(rules_in("let x = xs[1_0];").is_empty());
        // Slicing can panic just like indexing.
        assert_eq!(rules_in("let s = &xs[1..];"), vec![Rule::NoIndex]);
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        assert!(rules_in("// calls .unwrap() on purpose").is_empty());
        assert!(rules_in("let s = \"don't panic!\";").is_empty());
        assert!(rules_in("/* block .expect( comment */").is_empty());
        assert!(rules_in("let c = 'x'; let l: &'static str = \"ok\";").is_empty());
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let same = "let x = y.unwrap(); // lint:allow(no-unwrap)";
        assert!(rules_in(same).is_empty());
        let prev = "// lint:allow(no-index) slot is masked to len\nlet v = xs[slot];";
        assert!(rules_in(prev).is_empty());
        // The allow names a different rule: violation stands.
        let wrong = "let x = y.unwrap(); // lint:allow(no-index)";
        assert_eq!(rules_in(wrong), vec![Rule::NoUnwrap]);
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail(i: usize, xs: &[u32]) -> u32 { xs[i] }\n";
        let v = lint_source("mem.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoIndex);
        assert_eq!(v[0].line, 6);
    }

    fn alloc_rules_in(src: &str) -> Vec<Rule> {
        lint_source_with("cache.rs", src, &[Rule::NoAlloc])
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn no_alloc_flags_each_allocation_idiom() {
        for src in [
            "let v: Vec<u32> = Vec::new();",
            "let b = Box::new(1u32);",
            "let s = String::from(name);",
            "let m = format!(\"{n}\");",
            "xs.push(1);",
            "let v = xs.to_vec();",
            "let c = cfg.clone();",
        ] {
            assert_eq!(alloc_rules_in(src), vec![Rule::NoAlloc], "src: {src}");
        }
        // Non-allocating lookalikes pass.
        assert!(alloc_rules_in("let r = Clone::clone_from(&mut a, &b);").is_empty());
        assert!(alloc_rules_in("let v = MyVec::newish();").is_empty());
    }

    #[test]
    fn no_alloc_applies_only_to_decide_path_files() {
        assert!(rules_for("crates/core/src/cache.rs").contains(&Rule::NoAlloc));
        assert!(rules_for("crates/core/src/online.rs").contains(&Rule::NoAlloc));
        assert!(rules_for("crates/core/src/select.rs").contains(&Rule::NoAlloc));
        assert!(!rules_for("crates/core/src/ingress.rs").contains(&Rule::NoAlloc));
        assert!(!rules_for("crates/core/src/sched.rs").contains(&Rule::NoAlloc));
    }

    #[test]
    fn allow_fn_covers_the_whole_next_item_body() {
        let src = "\
// lint:allow-fn(no-alloc) cold restore path
fn restore(xs: &[u32]) -> Vec<u32> {
    let mut v = Vec::new();
    v.push(xs.to_vec().len() as u32);
    v
}

fn hot(v: &mut Vec<u32>) {
    v.push(1);
}
";
        let v = lint_source_with("cache.rs", src, &[Rule::NoAlloc]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 9);
    }

    #[test]
    fn allow_fn_names_only_the_listed_rules() {
        let src = "\
// lint:allow-fn(no-alloc) justified
fn f(xs: &[u32], i: usize) -> u32 {
    let v = xs.to_vec();
    v[i]
}
";
        let v = lint_source_with("cache.rs", src, &[Rule::NoAlloc, Rule::NoIndex]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NoIndex);
    }

    #[test]
    fn rule_ids_roundtrip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("no-such"), None);
    }
}
