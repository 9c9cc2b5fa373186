//! Integration tests of the concurrency correctness pass: the audit
//! binary against the live repo and its committed golden report, the
//! interleaving model checker's seeded-mutation kill list, the
//! lock-cycle fixture that must fail, and agreement between the audit's
//! site census and an independent scan of the annotations.

use autokernel::analyze::concurrency::{assemble, audit_source, audit_workspace, FindingRule};
use autokernel::analyze::interleave::{check, Model, Mutation};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The audit binary exits 0 on the repo and reports the committed
/// golden as matching; pointed at a perturbed golden it exits 1, and at
/// a missing one it exits 2.
#[test]
fn concurrency_audit_binary_passes_repo_and_detects_drift() {
    let bin = env!("CARGO_BIN_EXE_concurrency_audit");

    let clean = std::process::Command::new(bin)
        .current_dir(repo_root())
        .output()
        .expect("binary runs");
    assert!(
        clean.status.success(),
        "repo must audit clean:\n{}\n{}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&clean.stderr)
    );
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("report matches"), "{stdout}");

    let golden = repo_root().join("reports/concurrency_audit.json");
    let perturbed = std::env::temp_dir().join("concurrency_audit_perturbed.json");
    let mut text = std::fs::read_to_string(&golden).expect("golden exists");
    text.push('\n');
    std::fs::write(&perturbed, text).expect("temp write");
    let drifted = std::process::Command::new(bin)
        .arg(&perturbed)
        .current_dir(repo_root())
        .output()
        .expect("binary runs");
    assert_eq!(drifted.status.code(), Some(1), "drift must exit 1");
    let _ = std::fs::remove_file(&perturbed);

    let missing = std::process::Command::new(bin)
        .arg("does/not/exist.json")
        .current_dir(repo_root())
        .output()
        .expect("binary runs");
    assert_eq!(missing.status.code(), Some(2), "missing golden is exit 2");
}

/// Every faithful model explores exhaustively with zero violations.
#[test]
fn faithful_models_pass_exhaustively() {
    for model in Model::ALL {
        let exploration =
            check(model, None).unwrap_or_else(|cx| panic!("{} must pass, got: {cx}", model.name()));
        assert!(exploration.complete, "{} must be exhaustive", model.name());
        assert!(exploration.executions > 0);
    }
}

/// The checker kills every seeded mutation — each weakened ordering,
/// reordered publication, late reservation or broken accounting step
/// produces a concrete counterexample schedule. (The bar is at least
/// four; the suite carries six across two models.)
#[test]
fn every_seeded_mutation_is_caught() {
    assert!(Mutation::ALL.len() >= 4);
    for mutation in Mutation::ALL {
        let cx = check(mutation.model(), Some(mutation))
            .expect_err(&format!("mutation {} must be caught", mutation.name()));
        assert!(
            !cx.schedule.is_empty(),
            "{}: counterexample must carry its schedule",
            mutation.name()
        );
    }
}

/// The AB/BA fixture must produce a lock-order-cycle finding — proving
/// the cycle detector is live, since the real lock graph is acyclic.
#[test]
fn lock_cycle_fixture_must_fail() {
    let path = repo_root().join("crates/analyze/tests/fixtures/lock_cycle.rs");
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    let module = audit_source("fixture::accounts", "lock_cycle.rs", &source);
    let audit = assemble(vec![module]);
    assert!(
        !audit.cycles.is_empty(),
        "AB/BA acquisition order must form a cycle: {:?}",
        audit.edges
    );
    assert!(
        audit
            .findings
            .iter()
            .any(|f| f.rule == FindingRule::LockOrderCycle),
        "cycle must surface as a finding: {:?}",
        audit.findings
    );
}

/// The audit's atomic-site census agrees with an independent textual
/// scan: every `atomic:role(` annotation in the target files binds to
/// exactly one site, and every site is declared.
#[test]
fn audit_site_census_agrees_with_annotation_scan() {
    let audit = audit_workspace(repo_root()).expect("targets readable");
    assert!(audit.findings.is_empty(), "{:#?}", audit.findings);
    assert_eq!(audit.total_sites(), audit.declared_sites());
    assert!(audit.cycles.is_empty());

    for module in &audit.modules {
        let source =
            std::fs::read_to_string(repo_root().join(&module.file)).expect("target readable");
        let annotations = source.matches("atomic:role(").count();
        let declared = module.sites.iter().filter(|s| s.role.is_some()).count();
        assert_eq!(
            annotations, declared,
            "{}: every annotation must bind to exactly one atomic site",
            module.label
        );
    }

    // The ingress producer path carries the largest atomic surface; a
    // collapse here means the site scanner regressed.
    let ingress = audit
        .modules
        .iter()
        .find(|m| m.label == "core::ingress")
        .expect("ingress is audited");
    assert!(ingress.sites.len() >= 17, "got {}", ingress.sites.len());
    assert!(audit.total_sites() >= 26, "got {}", audit.total_sites());
}
