//! Fixture tests for the hot-path linter: the deliberately violating
//! files under `tests/fixtures/` (never compiled by Cargo) must produce
//! exactly the expected rule hits, `lint:allow` and `lint:allow-fn`
//! must suppress, `#[cfg(test)]` code must be exempt, and the
//! decide-path `no-alloc` rule must apply only to decide-path file
//! names.

use autokernel_analyze::{lint_file, rules_for, Rule, DECIDE_PATH_FILES, TOTAL_CMP_FILES};
use std::path::Path;

fn fixture() -> Vec<autokernel_analyze::Violation> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations.rs");
    lint_file(&path).expect("fixture file is readable")
}

fn alloc_fixture() -> Vec<autokernel_analyze::Violation> {
    // Named `cache.rs` so `rules_for` turns the no-alloc rule on.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/alloc/cache.rs");
    lint_file(&path).expect("fixture file is readable")
}

#[test]
fn fixture_violations_carry_the_right_rules_and_lines() {
    let violations = fixture();
    let got: Vec<(usize, &'static str)> =
        violations.iter().map(|v| (v.line, v.rule.id())).collect();
    assert_eq!(
        got,
        vec![
            (12, "no-unwrap"),
            (13, "no-expect"),
            (15, "no-panic"),
            (17, "no-index"),
            (18, "no-partial-cmp"),
            (18, "no-index"),
            (23, "no-todo"),
            (27, "no-unimplemented"),
        ],
        "full violation list: {violations:#?}"
    );
}

#[test]
fn lint_allow_suppresses_and_nothing_else_leaks() {
    let violations = fixture();
    // The `suppressed` function's two indexed accesses (lines 32-33)
    // carry allow comments — neither may appear.
    assert!(
        violations.iter().all(|v| !(30..=35).contains(&v.line)),
        "lint:allow must suppress the annotated lines: {violations:#?}"
    );
}

#[test]
fn cfg_test_code_is_exempt() {
    let violations = fixture();
    // The trailing #[cfg(test)] module unwraps on line 41 — exempt.
    assert!(
        violations.iter().all(|v| v.line < 37),
        "test-only code must not be linted: {violations:#?}"
    );
    assert!(
        violations.iter().any(|v| v.rule == Rule::NoUnwrap),
        "the same construct outside tests is still flagged"
    );
}

#[test]
fn alloc_fixture_flags_every_allocation_idiom() {
    let violations = alloc_fixture();
    let got: Vec<(usize, &'static str)> = violations
        .iter()
        .filter(|v| v.rule == Rule::NoAlloc)
        .map(|v| (v.line, v.rule.id()))
        .collect();
    // One violation per allocating line in `decide`: Vec::new, push,
    // to_vec, clone, Box::new, String::from, format!.
    assert_eq!(
        got,
        vec![
            (6, "no-alloc"),
            (7, "no-alloc"),
            (8, "no-alloc"),
            (9, "no-alloc"),
            (10, "no-alloc"),
            (11, "no-alloc"),
            (12, "no-alloc"),
        ],
        "full violation list: {violations:#?}"
    );
}

#[test]
fn allow_fn_suppresses_the_whole_item_and_allow_the_line() {
    let violations = alloc_fixture();
    // `warm_up` (lines 16-21) carries lint:allow-fn(no-alloc); its
    // Vec::new/push/to_vec must all be suppressed.
    assert!(
        violations.iter().all(|v| !(16..=21).contains(&v.line)),
        "lint:allow-fn must cover the whole function body: {violations:#?}"
    );
    // The single line-level allow in `partially_allowed` (line 25).
    assert!(
        violations.iter().all(|v| v.line != 25),
        "lint:allow must suppress the annotated line: {violations:#?}"
    );
    // And test-only allocation (lines 29+) is exempt.
    assert!(
        violations.iter().all(|v| v.line < 29),
        "cfg(test) allocation must be exempt: {violations:#?}"
    );
}

#[test]
fn no_alloc_applies_only_to_decide_path_file_names() {
    for file in DECIDE_PATH_FILES {
        assert!(
            rules_for(file).contains(&Rule::NoAlloc),
            "{file} must carry the no-alloc rule"
        );
    }
    // The ingress and the scheduler allocate legitimately per chunk
    // and per wave (envelopes, plan vectors, leftover batches); only
    // the per-pick selection route is on the decide path.
    for file in ["ingress.rs", "sched.rs", "violations.rs"] {
        assert!(
            !rules_for(file).contains(&Rule::NoAlloc),
            "{file} must not carry the no-alloc rule"
        );
    }
    // The panic-safety fixture allocates freely and must stay exactly
    // as clean of no-alloc hits as before the rule existed.
    assert!(fixture().iter().all(|v| v.rule != Rule::NoAlloc));
}

fn sweep_fixture() -> Vec<autokernel_analyze::Violation> {
    // Path suffix matches a TOTAL_CMP_FILES entry, so only the
    // no-partial-cmp rule applies.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/sweep/crates/mlkit/src/eigen.rs");
    lint_file(&path).expect("fixture file is readable")
}

#[test]
fn sweep_fixture_flags_sort_comparators_and_nothing_else() {
    let violations = sweep_fixture();
    let got: Vec<(usize, &'static str)> =
        violations.iter().map(|v| (v.line, v.rule.id())).collect();
    assert_eq!(
        got,
        vec![(7, "no-partial-cmp"), (12, "no-partial-cmp")],
        "full violation list: {violations:#?}"
    );
}

#[test]
fn total_cmp_files_carry_only_the_partial_cmp_rule() {
    for file in TOTAL_CMP_FILES {
        assert_eq!(
            rules_for(file),
            vec![Rule::NoPartialCmp],
            "{file} must carry exactly the no-partial-cmp rule"
        );
        // Absolute invocations (as from CI working dirs) must agree.
        let absolute = format!("/some/checkout/{file}");
        assert_eq!(rules_for(&absolute), vec![Rule::NoPartialCmp]);
    }
    // Hot-path files keep the full panic-safety set.
    assert!(rules_for("crates/core/src/online.rs").contains(&Rule::NoUnwrap));
}

#[test]
fn snippets_point_at_the_offending_source() {
    let violations = fixture();
    let unwrap = violations
        .iter()
        .find(|v| v.rule == Rule::NoUnwrap)
        .expect("unwrap violation present");
    assert!(unwrap.snippet.contains("unwrap()"), "{}", unwrap.snippet);
    assert!(unwrap.file.ends_with("violations.rs"));
    // Display form is file:line: [rule] snippet — what the binary prints.
    let line = unwrap.to_string();
    assert!(line.contains(":12:"), "{line}");
    assert!(line.contains("[no-unwrap]"), "{line}");
}
