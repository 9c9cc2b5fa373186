//! Static concurrency audit: atomic-ordering roles and lock ordering.
//!
//! The serving stack is deeply concurrent — lock-free LRU/Bloom
//! decision caches, lock-free latency histograms, an ingress occupancy
//! counter, snapshot-while-serving — and `analyze::lint`
//! only proves panic-freedom. This module makes the *memory-ordering
//! contracts* mechanical, in the same comment-stripping token-scanner
//! style (no Rust parser, no dependencies):
//!
//! **Atomic-ordering audit.** Every atomic operation site in the
//! audited modules must declare a role with a structured comment,
//! `// atomic:role(counter|publish|tick|flag)`, on the same line as the
//! operation or within the two lines above it. Each annotation binds to
//! exactly one site. The scanner finds atomic operations by method
//! token (`.load(`, `.store(`, `.fetch_*`, `.swap(`,
//! `.compare_exchange*`) carrying at least one `Ordering::` argument —
//! matching across line breaks inside the call's parentheses — and
//! checks the declared role against the orderings actually used:
//!
//! | role      | intent                                   | allowed orderings            |
//! |-----------|------------------------------------------|------------------------------|
//! | `counter` | monotone statistic, no data guarded      | `Relaxed` everywhere         |
//! | `tick`    | LRU clock / logical timestamp            | `Relaxed` everywhere         |
//! | `publish` | guards dependent data written before it  | `Acquire` loads, `Release` stores, non-`Relaxed` RMW |
//! | `flag`    | state flip observed by other threads     | same as `publish`            |
//!
//! Undeclared sites, role/ordering mismatches, unknown roles and
//! orphan annotations are all findings. `#[cfg(test)]` regions are
//! exempt, as in the lint.
//!
//! **Lock-order analysis.** For every function in the audited files the
//! scanner extracts the in-order sequence of lock acquisitions
//! (`.lock()`, `.read()`, `.write()` with empty argument lists), names
//! each lock `module::field` by the receiver's last path component, and
//! adds a lock-order edge for each consecutive pair of *distinct* locks
//! (repeat acquisitions of the same lock — per-shard loops — are
//! sequential, not nested). A cycle in the union graph is a potential
//! deadlock and is reported as a finding. This is textual and
//! per-function, so it over-approximates nesting (an edge `a → b` does
//! not prove `a` is still held at `b`) — cheap, and exact on the
//! straight-line acquisition patterns this codebase uses.
//!
//! Findings and per-module summaries render as a SARIF report via
//! [`render_concurrency_report`]; the `concurrency_audit` binary
//! compares it byte-for-byte against the committed golden in
//! `reports/concurrency_audit.json`.

use crate::lint::{is_ident, sanitize, test_region_lines};
use crate::report::{int, obj, rule_descriptor, s};
use serde_json::Value;
use std::fmt;
use std::path::Path;

/// Tool name recorded in the SARIF run.
pub const TOOL_NAME: &str = "concurrency-auditor";

/// The audited modules: `(label, workspace-relative path)`. Five core
/// serving modules plus the hand-rolled `parking_lot` synchronisation
/// shim.
pub const AUDIT_TARGETS: [(&str, &str); 6] = [
    ("core::cache", "crates/core/src/cache.rs"),
    ("core::ingress", "crates/core/src/ingress.rs"),
    ("core::online", "crates/core/src/online.rs"),
    ("core::sched", "crates/core/src/sched.rs"),
    ("core::resilient", "crates/core/src/resilient.rs"),
    ("shims::parking_lot", "shims/parking_lot/src/lib.rs"),
];

/// Declared role of an atomic site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Monotone statistic; no data is guarded by it.
    Counter,
    /// LRU clock / logical timestamp; ordering is irrelevant.
    Tick,
    /// Publishes dependent data written before the store.
    Publish,
    /// State flip observed by other threads with acquire/release.
    Flag,
}

impl Role {
    /// All roles, in reporting order.
    pub const ALL: [Role; 4] = [Role::Counter, Role::Tick, Role::Publish, Role::Flag];

    /// Stable id used in `atomic:role(...)` comments and reports.
    pub fn id(&self) -> &'static str {
        match self {
            Role::Counter => "counter",
            Role::Tick => "tick",
            Role::Publish => "publish",
            Role::Flag => "flag",
        }
    }

    /// Parse an id back into a role.
    pub fn from_id(id: &str) -> Option<Role> {
        Role::ALL.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Kind of atomic operation at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `.load(ordering)`
    Load,
    /// `.store(value, ordering)`
    Store,
    /// `fetch_add` / `fetch_sub` / `fetch_or` / `fetch_and` / `swap`
    Rmw,
    /// `compare_exchange` / `compare_exchange_weak`
    Cas,
}

impl AtomicOp {
    fn name(&self) -> &'static str {
        match self {
            AtomicOp::Load => "load",
            AtomicOp::Store => "store",
            AtomicOp::Rmw => "rmw",
            AtomicOp::Cas => "compare_exchange",
        }
    }
}

/// A memory ordering named at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrd {
    /// `Ordering::Relaxed`
    Relaxed,
    /// `Ordering::Acquire`
    Acquire,
    /// `Ordering::Release`
    Release,
    /// `Ordering::AcqRel`
    AcqRel,
    /// `Ordering::SeqCst`
    SeqCst,
}

impl MemOrd {
    fn from_id(id: &str) -> Option<MemOrd> {
        match id {
            "Relaxed" => Some(MemOrd::Relaxed),
            "Acquire" => Some(MemOrd::Acquire),
            "Release" => Some(MemOrd::Release),
            "AcqRel" => Some(MemOrd::AcqRel),
            "SeqCst" => Some(MemOrd::SeqCst),
            _ => None,
        }
    }

    fn id(&self) -> &'static str {
        match self {
            MemOrd::Relaxed => "Relaxed",
            MemOrd::Acquire => "Acquire",
            MemOrd::Release => "Release",
            MemOrd::AcqRel => "AcqRel",
            MemOrd::SeqCst => "SeqCst",
        }
    }
}

/// One atomic operation site found in a module.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// 1-based source line of the operation's method token.
    pub line: usize,
    /// Receiver expression (e.g. `self.count`).
    pub receiver: String,
    /// Operation kind.
    pub op: AtomicOp,
    /// Orderings named inside the call, in argument order.
    pub orderings: Vec<MemOrd>,
    /// Declared role, if an annotation bound to this site.
    pub role: Option<Role>,
}

/// One lock acquisition inside a function.
#[derive(Debug, Clone)]
pub struct LockAcquisition {
    /// Qualified lock name, `module::field`.
    pub lock: String,
    /// 1-based source line.
    pub line: usize,
}

/// The in-order lock acquisitions of one function.
#[derive(Debug, Clone)]
pub struct FunctionLocks {
    /// Function name as written at the `fn` keyword.
    pub function: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Acquisitions in source order.
    pub acquisitions: Vec<LockAcquisition>,
}

/// A directed lock-order edge: `from` acquired before `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock acquired first.
    pub from: String,
    /// Lock acquired while `from` may still be held.
    pub to: String,
    /// Function the pair was observed in.
    pub function: String,
    /// Module label.
    pub module: String,
    /// 1-based line of the second acquisition.
    pub line: usize,
}

/// Audit finding categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingRule {
    /// Atomic site with no bound `atomic:role(...)` annotation.
    UndeclaredAtomic,
    /// Orderings at a site incompatible with its declared role.
    RoleOrderingMismatch,
    /// Annotation that bound to no site, or names an unknown role.
    OrphanAnnotation,
    /// Cycle in the lock-order graph — potential deadlock.
    LockOrderCycle,
}

impl FindingRule {
    /// Stable SARIF rule id.
    pub fn id(&self) -> &'static str {
        match self {
            FindingRule::UndeclaredAtomic => "undeclared-atomic",
            FindingRule::RoleOrderingMismatch => "role-ordering-mismatch",
            FindingRule::OrphanAnnotation => "orphan-annotation",
            FindingRule::LockOrderCycle => "lock-order-cycle",
        }
    }
}

/// One audit finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Finding category.
    pub rule: FindingRule,
    /// Module label (or `lock-graph` for cross-module cycles).
    pub module: String,
    /// File the finding is in, when file-local.
    pub file: String,
    /// 1-based line, 0 when not line-local (cycles).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Audit of one module: atomic sites, lock sequences, local findings.
#[derive(Debug, Clone)]
pub struct ModuleAudit {
    /// Module label, e.g. `core::cache`.
    pub label: String,
    /// Workspace-relative path.
    pub file: String,
    /// Atomic sites outside `#[cfg(test)]`, in source order.
    pub sites: Vec<AtomicSite>,
    /// Per-function lock-acquisition sequences (only functions that
    /// acquire at least one lock).
    pub functions: Vec<FunctionLocks>,
    /// Findings local to this module.
    pub findings: Vec<Finding>,
}

/// Whole-workspace audit: per-module results plus the union lock graph.
#[derive(Debug, Clone)]
pub struct ConcurrencyAudit {
    /// Per-module audits in [`AUDIT_TARGETS`] order.
    pub modules: Vec<ModuleAudit>,
    /// Union lock-order edges across all modules, deduplicated.
    pub edges: Vec<LockEdge>,
    /// Lock-name cycles found in the union graph.
    pub cycles: Vec<Vec<String>>,
    /// All findings: module-local ones plus one per cycle.
    pub findings: Vec<Finding>,
}

impl ConcurrencyAudit {
    /// Total atomic sites across all modules.
    pub fn total_sites(&self) -> usize {
        self.modules.iter().map(|m| m.sites.len()).sum()
    }

    /// Total sites with a bound role annotation.
    pub fn declared_sites(&self) -> usize {
        self.modules
            .iter()
            .flat_map(|m| &m.sites)
            .filter(|site| site.role.is_some())
            .count()
    }
}

const ATOMIC_METHODS: [(&str, AtomicOp); 9] = [
    (".load(", AtomicOp::Load),
    (".store(", AtomicOp::Store),
    (".fetch_add(", AtomicOp::Rmw),
    (".fetch_sub(", AtomicOp::Rmw),
    (".fetch_or(", AtomicOp::Rmw),
    (".fetch_and(", AtomicOp::Rmw),
    (".swap(", AtomicOp::Rmw),
    (".compare_exchange(", AtomicOp::Cas),
    (".compare_exchange_weak(", AtomicOp::Cas),
];

/// Audit one module's source text.
pub fn audit_source(label: &str, file: &str, source: &str) -> ModuleAudit {
    let sanitized = sanitize(source);
    let test_lines = test_region_lines(&sanitized);
    let in_test = |line: usize| test_lines.get(line - 1).copied().unwrap_or(false);

    let mut findings = Vec::new();
    let mut sites = find_atomic_sites(&sanitized, &in_test);
    let annotations = collect_role_annotations(source, label, file, &in_test, &mut findings);
    bind_annotations(&mut sites, &annotations, label, file, &mut findings);

    for site in &sites {
        match site.role {
            None => findings.push(Finding {
                rule: FindingRule::UndeclaredAtomic,
                module: label.to_string(),
                file: file.to_string(),
                line: site.line,
                message: format!(
                    "atomic {} on `{}` has no atomic:role(...) annotation",
                    site.op.name(),
                    site.receiver
                ),
            }),
            Some(role) => {
                if let Some(msg) = role_mismatch(role, site) {
                    findings.push(Finding {
                        rule: FindingRule::RoleOrderingMismatch,
                        module: label.to_string(),
                        file: file.to_string(),
                        line: site.line,
                        message: msg,
                    });
                }
            }
        }
    }

    let functions = find_function_locks(label, &sanitized, &in_test);

    ModuleAudit {
        label: label.to_string(),
        file: file.to_string(),
        sites,
        functions,
        findings,
    }
}

/// Audit all [`AUDIT_TARGETS`] under a workspace root.
pub fn audit_workspace(root: &Path) -> std::io::Result<ConcurrencyAudit> {
    let mut modules = Vec::new();
    for (label, rel) in AUDIT_TARGETS {
        let source = std::fs::read_to_string(root.join(rel))?;
        modules.push(audit_source(label, rel, &source));
    }
    Ok(assemble(modules))
}

/// Combine per-module audits into the whole-workspace result: union
/// lock graph, cycle detection, flattened findings.
pub fn assemble(modules: Vec<ModuleAudit>) -> ConcurrencyAudit {
    let mut edges: Vec<LockEdge> = Vec::new();
    for module in &modules {
        for f in &module.functions {
            for pair in f.acquisitions.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if a.lock == b.lock {
                    continue;
                }
                if edges.iter().any(|e| e.from == a.lock && e.to == b.lock) {
                    continue;
                }
                edges.push(LockEdge {
                    from: a.lock.clone(),
                    to: b.lock.clone(),
                    function: f.function.clone(),
                    module: module.label.clone(),
                    line: b.line,
                });
            }
        }
    }

    let cycles = find_cycles(&edges);
    let mut findings: Vec<Finding> = modules.iter().flat_map(|m| m.findings.clone()).collect();
    for cycle in &cycles {
        findings.push(Finding {
            rule: FindingRule::LockOrderCycle,
            module: "lock-graph".to_string(),
            file: String::new(),
            line: 0,
            message: format!(
                "lock-order cycle (potential deadlock): {}",
                cycle.join(" -> ")
            ),
        });
    }

    ConcurrencyAudit {
        modules,
        edges,
        cycles,
        findings,
    }
}

/// Find atomic operation sites: a known method token whose parenthesised
/// argument region (matched across lines) names at least one
/// `Ordering::` constant.
fn find_atomic_sites(sanitized: &str, in_test: &dyn Fn(usize) -> bool) -> Vec<AtomicSite> {
    let bytes = sanitized.as_bytes();
    let line_of = line_index(bytes);
    let mut sites = Vec::new();

    let mut i = 0;
    while i < bytes.len() {
        let Some((token, op)) = ATOMIC_METHODS
            .iter()
            .find(|(t, _)| sanitized[i..].starts_with(t))
            .copied()
        else {
            i += 1;
            continue;
        };
        let line = line_of[i] + 1;
        let open = i + token.len() - 1;
        let (_, orderings) = scan_call_args(sanitized, open);
        if !orderings.is_empty() && !in_test(line) {
            sites.push(AtomicSite {
                line,
                receiver: receiver_before(bytes, i),
                op,
                orderings,
                role: None,
            });
        }
        // Advance by the token only: a nested atomic call inside this
        // call's arguments is its own site.
        i += token.len();
    }
    sites
}

/// Scan a call's argument region from the opening parenthesis, matching
/// nested parens across lines; collect `Ordering::X` names in order.
/// Nested atomic method calls are skipped wholesale — their orderings
/// belong to their own site. Returns the byte offset just past the
/// closing paren.
fn scan_call_args(sanitized: &str, open: usize) -> (usize, Vec<MemOrd>) {
    let bytes = sanitized.as_bytes();
    let mut depth = 0usize;
    let mut orderings = Vec::new();
    let mut j = open;
    while j < bytes.len() {
        if j > open {
            if let Some((token, _)) = ATOMIC_METHODS
                .iter()
                .find(|(t, _)| sanitized[j..].starts_with(t))
            {
                let (nested_end, _) = scan_call_args(sanitized, j + token.len() - 1);
                j = nested_end;
                continue;
            }
        }
        match bytes[j] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, orderings);
                }
            }
            b'O' if sanitized[j..].starts_with("Ordering::")
                && (j == 0 || !is_ident(bytes[j - 1])) =>
            {
                let rest = &sanitized[j + "Ordering::".len()..];
                let end = rest
                    .bytes()
                    .position(|b| !is_ident(b))
                    .unwrap_or(rest.len());
                if let Some(ord) = MemOrd::from_id(&rest[..end]) {
                    orderings.push(ord);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (bytes.len(), orderings)
}

/// Reconstruct the receiver chain ending at the `.` of a method token:
/// walk identifiers and `.` separators backwards, skipping whitespace
/// between components (handles multi-line chains).
fn receiver_before(bytes: &[u8], dot: usize) -> String {
    let mut components: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        // Skip whitespace backwards before an identifier component.
        let mut k = j;
        while k > 0 && (bytes[k - 1] as char).is_whitespace() {
            k -= 1;
        }
        let end = k;
        while k > 0 && is_ident(bytes[k - 1]) {
            k -= 1;
        }
        if k == end {
            break;
        }
        components.push(String::from_utf8_lossy(&bytes[k..end]).into_owned());
        // A `.` before this component continues the chain.
        let mut p = k;
        while p > 0 && (bytes[p - 1] as char).is_whitespace() {
            p -= 1;
        }
        if p > 0 && bytes[p - 1] == b'.' {
            j = p - 1;
        } else {
            break;
        }
    }
    components.reverse();
    components.join(".")
}

/// One parsed `atomic:role(...)` annotation.
struct RoleAnnotation {
    line: usize,
    role: Role,
}

/// Parse `atomic:role(<id>)` annotations from the raw source (comment
/// stripping would eat them). Unknown role ids become findings here.
fn collect_role_annotations(
    source: &str,
    label: &str,
    file: &str,
    in_test: &dyn Fn(usize) -> bool,
    findings: &mut Vec<Finding>,
) -> Vec<RoleAnnotation> {
    let mut annotations = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        let lineno = idx + 1;
        if in_test(lineno) {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("atomic:role(") {
            rest = &rest[pos + "atomic:role(".len()..];
            let Some(end) = rest.find(')') else { break };
            let id = rest[..end].trim();
            match Role::from_id(id) {
                Some(role) => annotations.push(RoleAnnotation { line: lineno, role }),
                None => findings.push(Finding {
                    rule: FindingRule::OrphanAnnotation,
                    module: label.to_string(),
                    file: file.to_string(),
                    line: lineno,
                    message: format!("unknown atomic role `{id}`"),
                }),
            }
            rest = &rest[end + 1..];
        }
    }
    annotations
}

/// Bind annotations to sites: each site takes the earliest unbound
/// annotation within the window `[site.line - 2, site.line]`, in order.
/// Annotations left unbound are orphans.
fn bind_annotations(
    sites: &mut [AtomicSite],
    annotations: &[RoleAnnotation],
    label: &str,
    file: &str,
    findings: &mut Vec<Finding>,
) {
    let mut used = vec![false; annotations.len()];
    for site in sites.iter_mut() {
        let lo = site.line.saturating_sub(2);
        let slot = annotations
            .iter()
            .enumerate()
            .find(|(k, a)| !used[*k] && a.line >= lo && a.line <= site.line);
        if let Some((k, a)) = slot {
            used[k] = true;
            site.role = Some(a.role);
        }
    }
    for (k, a) in annotations.iter().enumerate() {
        if !used[k] {
            findings.push(Finding {
                rule: FindingRule::OrphanAnnotation,
                module: label.to_string(),
                file: file.to_string(),
                line: a.line,
                message: format!(
                    "atomic:role({}) annotation binds to no atomic site within 2 lines",
                    a.role
                ),
            });
        }
    }
}

/// Check a site's orderings against its declared role. Returns the
/// mismatch message, or `None` when compatible.
fn role_mismatch(role: Role, site: &AtomicSite) -> Option<String> {
    let bad = |ord: MemOrd, why: &str| {
        Some(format!(
            "{} on `{}` declared {} but uses Ordering::{} ({})",
            site.op.name(),
            site.receiver,
            role,
            ord.id(),
            why
        ))
    };
    match role {
        Role::Counter | Role::Tick => {
            for &ord in &site.orderings {
                if ord != MemOrd::Relaxed {
                    return bad(ord, "counters and ticks guard no data; use Relaxed");
                }
            }
            None
        }
        Role::Publish | Role::Flag => match site.op {
            AtomicOp::Load => {
                let ord = *site.orderings.first()?;
                if ord == MemOrd::Acquire || ord == MemOrd::SeqCst {
                    None
                } else {
                    bad(ord, "publish/flag loads must be Acquire or SeqCst")
                }
            }
            AtomicOp::Store => {
                let ord = *site.orderings.first()?;
                if ord == MemOrd::Release || ord == MemOrd::SeqCst {
                    None
                } else {
                    bad(ord, "publish/flag stores must be Release or SeqCst")
                }
            }
            AtomicOp::Rmw => {
                let ord = *site.orderings.first()?;
                if ord == MemOrd::Relaxed {
                    bad(ord, "publish/flag RMW must not be Relaxed")
                } else {
                    None
                }
            }
            AtomicOp::Cas => {
                let success = *site.orderings.first()?;
                if success == MemOrd::Relaxed {
                    return bad(success, "publish/flag CAS success must not be Relaxed");
                }
                if let Some(&failure) = site.orderings.get(1) {
                    if failure == MemOrd::Release || failure == MemOrd::AcqRel {
                        return bad(failure, "CAS failure ordering cannot release");
                    }
                }
                None
            }
        },
    }
}

const LOCK_METHODS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Extract per-function lock-acquisition sequences. A function is a
/// top-level-or-impl `fn` with a brace-matched body; acquisitions are
/// empty-argument `.lock()`/`.read()`/`.write()` calls, named by the
/// receiver's last path component and qualified by the module label.
fn find_function_locks(
    label: &str,
    sanitized: &str,
    in_test: &dyn Fn(usize) -> bool,
) -> Vec<FunctionLocks> {
    let bytes = sanitized.as_bytes();
    let line_of = line_index(bytes);
    let mut functions = Vec::new();

    let mut i = 0;
    while i + 2 < bytes.len() {
        let at_fn = sanitized[i..].starts_with("fn")
            && (i == 0 || !is_ident(bytes[i - 1]))
            && bytes.get(i + 2).is_some_and(|&b| b == b' ');
        if !at_fn {
            i += 1;
            continue;
        }
        let fn_line = line_of[i] + 1;
        // Function name follows the keyword.
        let mut j = i + 3;
        let name_start = j;
        while j < bytes.len() && is_ident(bytes[j]) {
            j += 1;
        }
        let name = String::from_utf8_lossy(&bytes[name_start..j]).into_owned();
        // Find the body: first `{` at paren depth 0 (skips the
        // parameter list and any `-> (..)` return type); `;` first
        // means a bodyless declaration.
        let mut depth = 0usize;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                b'{' if depth == 0 => {
                    body = Some(j);
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body_start) = body else {
            i = j.max(i + 1);
            continue;
        };
        // Brace-match the body.
        let mut bd = 0usize;
        let mut k = body_start;
        let mut body_end = bytes.len();
        while k < bytes.len() {
            match bytes[k] {
                b'{' => bd += 1,
                b'}' => {
                    bd -= 1;
                    if bd == 0 {
                        body_end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }

        if !in_test(fn_line) {
            let mut acquisitions = Vec::new();
            let region = &sanitized[body_start..body_end];
            for off in find_lock_tokens(region) {
                let abs = body_start + off;
                let receiver = receiver_before(bytes, abs);
                let Some(field) = receiver.split('.').next_back().filter(|f| !f.is_empty()) else {
                    continue;
                };
                acquisitions.push(LockAcquisition {
                    lock: format!("{label}::{field}"),
                    line: line_of[abs] + 1,
                });
            }
            if !acquisitions.is_empty() {
                functions.push(FunctionLocks {
                    function: name,
                    line: fn_line,
                    acquisitions,
                });
            }
        }
        // Nested `fn` items are rare; continuing past the body keeps the
        // scan linear and attributes closure acquisitions to the
        // enclosing function, which is what lock ordering wants.
        i = body_end;
    }
    functions
}

/// Offsets (relative to `region`) of the `.` of each lock-method token.
fn find_lock_tokens(region: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for token in LOCK_METHODS {
        let mut from = 0;
        while let Some(pos) = region[from..].find(token) {
            hits.push(from + pos);
            from += pos + 1;
        }
    }
    hits.sort_unstable();
    hits
}

/// Find elementary cycles in the lock-order graph via DFS from each
/// node, reporting each distinct cycle once (deduplicated by rotated
/// canonical form).
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut nodes: Vec<&str> = Vec::new();
    for e in edges {
        for name in [e.from.as_str(), e.to.as_str()] {
            if !nodes.contains(&name) {
                nodes.push(name);
            }
        }
    }
    nodes.sort_unstable();

    let succ = |name: &str| -> Vec<&str> {
        edges
            .iter()
            .filter(|e| e.from == name)
            .map(|e| e.to.as_str())
            .collect()
    };

    let mut cycles: Vec<Vec<String>> = Vec::new();
    for &start in &nodes {
        // DFS for paths start -> ... -> start.
        let mut stack: Vec<(Vec<&str>, &str)> = vec![(vec![start], start)];
        while let Some((path, at)) = stack.pop() {
            for next in succ(at) {
                if next == start && path.len() > 1 {
                    let cycle: Vec<String> = path.iter().map(|x| x.to_string()).collect();
                    if !cycles.iter().any(|c| same_cycle(c, &cycle)) {
                        cycles.push(cycle);
                    }
                } else if !path.contains(&next) && path.len() < nodes.len() {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((p, next));
                }
            }
        }
    }
    cycles
}

/// Whether two cycles are rotations of each other.
fn same_cycle(a: &[String], b: &[String]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    (0..a.len()).any(|r| (0..a.len()).all(|k| a[k] == b[(k + r) % b.len()]))
}

fn line_index(bytes: &[u8]) -> Vec<usize> {
    let mut v = Vec::with_capacity(bytes.len());
    let mut line = 0;
    for &b in bytes {
        v.push(line);
        if b == b'\n' {
            line += 1;
        }
    }
    v
}

// ---------------------------------------------------------------------
// SARIF rendering
// ---------------------------------------------------------------------

fn rules() -> Value {
    Value::Array(vec![
        rule_descriptor(
            "undeclared-atomic",
            "Atomic operation site with no atomic:role(...) annotation; its ordering contract is unchecked.",
        ),
        rule_descriptor(
            "role-ordering-mismatch",
            "Memory orderings at the site are incompatible with its declared role (e.g. Relaxed store on a publish site).",
        ),
        rule_descriptor(
            "orphan-annotation",
            "atomic:role(...) annotation that names an unknown role or binds to no atomic site.",
        ),
        rule_descriptor(
            "lock-order-cycle",
            "Cycle in the union lock-order graph: two functions acquire the same locks in opposite orders (potential deadlock).",
        ),
    ])
}

fn finding_result(f: &Finding) -> Value {
    let level = match f.rule {
        FindingRule::OrphanAnnotation => "warning",
        _ => "error",
    };
    obj(vec![
        ("ruleId", s(f.rule.id())),
        ("level", s(level)),
        ("message", obj(vec![("text", s(f.message.clone()))])),
        (
            "locations",
            Value::Array(vec![obj(vec![(
                "physicalLocation",
                obj(vec![
                    ("artifactLocation", obj(vec![("uri", s(f.file.clone()))])),
                    ("region", obj(vec![("startLine", int(f.line))])),
                ]),
            )])]),
        ),
        ("properties", obj(vec![("module", s(f.module.clone()))])),
    ])
}

fn module_summary(m: &ModuleAudit) -> Value {
    let count_role = |role: Role| {
        m.sites
            .iter()
            .filter(|site| site.role == Some(role))
            .count()
    };
    let acquisitions: usize = m.functions.iter().map(|f| f.acquisitions.len()).sum();
    obj(vec![
        ("label", s(m.label.clone())),
        ("file", s(m.file.clone())),
        ("atomicSites", int(m.sites.len())),
        (
            "roles",
            obj(Role::ALL
                .iter()
                .map(|&r| (r.id(), int(count_role(r))))
                .collect()),
        ),
        ("lockAcquisitions", int(acquisitions)),
        ("functionsWithLocks", int(m.functions.len())),
    ])
}

/// One model-checker result row for the SARIF properties bag.
#[derive(Debug, Clone)]
pub struct ModelCheckRow {
    /// Model name.
    pub model: String,
    /// Mutation id, `none` for the faithful model.
    pub mutation: String,
    /// Executions (complete schedules) explored.
    pub executions: usize,
    /// Violation message, if the checker found one.
    pub violation: Option<String>,
    /// Whether the outcome matched expectation (clean models pass,
    /// mutated models are caught).
    pub expected: bool,
}

/// Assemble the SARIF document for an audit plus model-checker rows.
pub fn sarif_concurrency(audit: &ConcurrencyAudit, checks: &[ModelCheckRow]) -> Value {
    let edges = Value::Array(
        audit
            .edges
            .iter()
            .map(|e| {
                obj(vec![
                    ("from", s(e.from.clone())),
                    ("to", s(e.to.clone())),
                    ("function", s(e.function.clone())),
                    ("module", s(e.module.clone())),
                    ("line", int(e.line)),
                ])
            })
            .collect(),
    );
    let mut nodes: Vec<&str> = Vec::new();
    for e in &audit.edges {
        for name in [e.from.as_str(), e.to.as_str()] {
            if !nodes.contains(&name) {
                nodes.push(name);
            }
        }
    }
    nodes.sort_unstable();

    let check_rows = Value::Array(
        checks
            .iter()
            .map(|c| {
                obj(vec![
                    ("model", s(c.model.clone())),
                    ("mutation", s(c.mutation.clone())),
                    ("executions", int(c.executions)),
                    (
                        "violation",
                        match &c.violation {
                            Some(v) => s(v.clone()),
                            None => Value::Null,
                        },
                    ),
                    ("expected", Value::Bool(c.expected)),
                ])
            })
            .collect(),
    );

    let run = obj(vec![
        (
            "tool",
            obj(vec![(
                "driver",
                obj(vec![
                    ("name", s(TOOL_NAME)),
                    ("version", s(env!("CARGO_PKG_VERSION"))),
                    ("rules", rules()),
                ]),
            )]),
        ),
        (
            "properties",
            obj(vec![
                (
                    "modules",
                    Value::Array(audit.modules.iter().map(module_summary).collect()),
                ),
                (
                    "lockGraph",
                    obj(vec![
                        ("nodes", Value::Array(nodes.into_iter().map(s).collect())),
                        ("edges", edges),
                        ("cycles", int(audit.cycles.len())),
                    ]),
                ),
                ("atomicSites", int(audit.total_sites())),
                ("declaredSites", int(audit.declared_sites())),
                ("modelChecker", check_rows),
            ]),
        ),
        (
            "results",
            Value::Array(audit.findings.iter().map(finding_result).collect()),
        ),
    ]);

    obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        ("runs", Value::Array(vec![run])),
    ])
}

/// Render the concurrency SARIF document as pretty-printed JSON.
pub fn render_concurrency_report(
    audit: &ConcurrencyAudit,
    checks: &[ModelCheckRow],
) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(&sarif_concurrency(audit, checks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(src: &str) -> ModuleAudit {
        audit_source("test::mod", "mod.rs", src)
    }

    #[test]
    fn declared_relaxed_counter_is_clean() {
        let m = audit(
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)\n }",
        );
        assert_eq!(m.sites.len(), 1);
        assert_eq!(m.sites[0].role, Some(Role::Counter));
        assert!(m.findings.is_empty());
    }

    #[test]
    fn undeclared_site_is_flagged() {
        let m = audit("fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }");
        assert_eq!(m.findings.len(), 1);
        assert_eq!(m.findings[0].rule, FindingRule::UndeclaredAtomic);
    }

    #[test]
    fn relaxed_store_on_publish_site_is_flagged() {
        let src = "fn f(g: &AtomicU64) {\n    // atomic:role(publish)\n    g.store(1, Ordering::Relaxed);\n}";
        let m = audit(src);
        assert_eq!(m.findings.len(), 1);
        assert_eq!(m.findings[0].rule, FindingRule::RoleOrderingMismatch);
        assert_eq!(m.findings[0].line, 3);
    }

    #[test]
    fn acquire_load_on_counter_site_is_flagged() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Acquire); // atomic:role(counter)\n }";
        let m = audit(src);
        assert_eq!(m.findings.len(), 1);
        assert_eq!(m.findings[0].rule, FindingRule::RoleOrderingMismatch);
    }

    #[test]
    fn nested_atomic_calls_are_separate_sites() {
        let src = "fn f(x: &AtomicU64, t: &AtomicU64) {\n    // atomic:role(tick)\n    x.store(\n        // atomic:role(tick)\n        t.fetch_add(1, Ordering::Relaxed) + 1,\n        Ordering::Relaxed,\n    );\n}";
        let m = audit(src);
        assert_eq!(m.sites.len(), 2);
        // The outer store's orderings exclude the nested call's.
        assert_eq!(m.sites[0].op, AtomicOp::Store);
        assert_eq!(m.sites[0].orderings, vec![MemOrd::Relaxed]);
        assert_eq!(m.sites[0].role, Some(Role::Tick));
        assert_eq!(m.sites[1].op, AtomicOp::Rmw);
        assert_eq!(m.sites[1].role, Some(Role::Tick));
        assert!(m.findings.is_empty());
    }

    #[test]
    fn orphan_and_unknown_annotations_are_flagged() {
        let m = audit("// atomic:role(counter)\nfn f() {}\n// atomic:role(wat)\n");
        assert_eq!(m.findings.len(), 2);
        assert!(m
            .findings
            .iter()
            .all(|f| f.rule == FindingRule::OrphanAnnotation));
    }

    #[test]
    fn cfg_test_sites_are_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t(c: &AtomicU64) { c.load(Ordering::SeqCst); }\n}\n";
        let m = audit(src);
        assert!(m.sites.is_empty());
        assert!(m.findings.is_empty());
    }

    #[test]
    fn non_atomic_read_and_map_are_not_sites() {
        let m = audit("fn f(s: &S) { let g = s.map.read(); let v: Vec<u32> = s.xs.iter().map(|x| x + 1).collect(); }");
        assert!(m.sites.is_empty());
        // But the lock acquisition is recorded.
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].acquisitions[0].lock, "test::mod::map");
    }

    #[test]
    fn opposite_lock_orders_form_a_cycle() {
        let src = "\
fn first(s: &S) {
    let _a = s.a.lock();
    let _b = s.b.lock();
}
fn second(s: &S) {
    let _b = s.b.lock();
    let _a = s.a.lock();
}
";
        let audit = assemble(vec![audit_source("test::mod", "mod.rs", src)]);
        assert_eq!(audit.edges.len(), 2);
        assert_eq!(audit.cycles.len(), 1);
        assert!(audit
            .findings
            .iter()
            .any(|f| f.rule == FindingRule::LockOrderCycle));
    }

    #[test]
    fn repeat_acquisition_of_same_lock_is_not_an_edge() {
        let src = "fn f(s: &S) { for sh in &s.shards { let _g = sh.map.write(); } let _g2 = s.other.map.read(); }";
        let audit = assemble(vec![audit_source("test::mod", "mod.rs", src)]);
        assert!(audit.edges.is_empty());
        assert!(audit.cycles.is_empty());
    }

    #[test]
    fn multi_line_receiver_chain_resolves() {
        let src = "fn f(s: &S) {\n    let _g = s.state\n        .lock();\n}";
        let audit = audit_source("test::mod", "mod.rs", src);
        assert_eq!(audit.functions[0].acquisitions[0].lock, "test::mod::state");
        assert_eq!(audit.functions[0].acquisitions[0].line, 3);
    }

    #[test]
    fn sarif_document_shape() {
        let m = audit_source(
            "test::mod",
            "mod.rs",
            "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)\n }",
        );
        let doc = sarif_concurrency(&assemble(vec![m]), &[]);
        assert_eq!(doc["version"].as_str(), Some("2.1.0"));
        let run = &doc["runs"].as_array().unwrap()[0];
        assert_eq!(run["tool"]["driver"]["name"].as_str(), Some(TOOL_NAME));
        assert_eq!(run["properties"]["atomicSites"].as_u64(), Some(1));
        assert_eq!(run["properties"]["declaredSites"].as_u64(), Some(1));
        assert!(run["results"].as_array().unwrap().is_empty());
    }
}
