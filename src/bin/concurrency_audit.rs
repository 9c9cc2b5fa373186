//! Concurrency audit driver: atomic-ordering roles, lock-order graph,
//! and the interleaving model checker, rolled into one SARIF report.
//!
//! Three passes, mirroring `analyze_space`'s drift-tripwire shape:
//!
//! 1. **Static audit** — every atomic site in the serving modules
//!    ([`autokernel::analyze::concurrency::AUDIT_TARGETS`]) must carry a
//!    bound `// atomic:role(...)` annotation whose role is consistent
//!    with the memory orderings it uses, and the per-function
//!    lock-acquisition graph must be acyclic. Any finding exits 1.
//! 2. **Model checker self-check** — the two interleaving models
//!    explore exhaustively and cleanly, and every seeded mutation is
//!    caught. A clean model that fails, an incomplete exploration, or a
//!    mutation that slips through exits 1.
//! 3. **Golden report** — the combined SARIF document is compared
//!    byte-for-byte against `reports/concurrency_audit.json`; drift
//!    exits 1. Run with `BLESS=1` to re-bless after an intentional
//!    change.
//!
//! Exit status: 0 clean, 1 findings/drift, 2 infrastructure error.
//!
//! ```text
//! cargo run --bin concurrency_audit            # audit + compare
//! BLESS=1 cargo run --bin concurrency_audit    # rewrite the golden
//! ```

use autokernel::analyze::concurrency::{audit_workspace, render_concurrency_report};
use autokernel::analyze::interleave::self_check;
use std::path::Path;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "reports/concurrency_audit.json".to_string());

    let audit = match audit_workspace(Path::new(".")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("concurrency_audit: cannot read audit targets: {e}");
            std::process::exit(2);
        }
    };

    for m in &audit.modules {
        println!(
            "{:<20} sites {:>3}  declared {:>3}  fns-with-locks {:>2}  findings {:>2}",
            m.label,
            m.sites.len(),
            m.sites.iter().filter(|s| s.role.is_some()).count(),
            m.functions.len(),
            m.findings.len()
        );
    }
    println!(
        "lock graph: {} edge(s), {} cycle(s)",
        audit.edges.len(),
        audit.cycles.len()
    );

    let mut failed = false;
    if !audit.findings.is_empty() {
        for f in &audit.findings {
            eprintln!("{f}");
        }
        eprintln!(
            "concurrency_audit: {} finding(s) in the static audit",
            audit.findings.len()
        );
        failed = true;
    }

    let checks = self_check();
    for row in &checks {
        let outcome = match &row.violation {
            Some(v) => format!("violation: {v}"),
            None => format!("clean ({} schedules)", row.executions),
        };
        let verdict = if row.expected { "ok" } else { "UNEXPECTED" };
        println!(
            "model {:<18} mutation {:<24} {:<10} {}",
            row.model, row.mutation, verdict, outcome
        );
        if !row.expected {
            failed = true;
        }
    }
    if failed {
        eprintln!("concurrency_audit: audit or model-checker failures above");
        std::process::exit(1);
    }
    println!(
        "self-check: {} atomic site(s) all declared, lock graph acyclic, {} model-checker row(s) as expected",
        audit.total_sites(),
        checks.len()
    );

    let rendered = match render_concurrency_report(&audit, &checks) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("concurrency_audit: report serialisation failed: {e}");
            std::process::exit(2);
        }
    };

    let bless = std::env::var("BLESS").map(|v| v == "1").unwrap_or(false);
    if bless {
        if let Some(dir) = Path::new(&out_path).parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("concurrency_audit: cannot create {}: {e}", dir.display());
                    std::process::exit(2);
                }
            }
        }
        if let Err(e) = std::fs::write(&out_path, rendered.as_bytes()) {
            eprintln!("concurrency_audit: cannot write {out_path}: {e}");
            std::process::exit(2);
        }
        println!("blessed {out_path}");
        return;
    }

    match std::fs::read_to_string(&out_path) {
        Ok(golden) if golden == rendered => {
            println!("report matches {out_path}");
        }
        Ok(_) => {
            eprintln!(
                "concurrency_audit: report drifted from {out_path} — \
                 re-run with BLESS=1 after reviewing the change"
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("concurrency_audit: cannot read golden {out_path}: {e}");
            std::process::exit(2);
        }
    }
}
