//! # autokernel-analyze
//!
//! Static analysis for the kernel-selection system, in three prongs:
//!
//! 1. **Kernel-space analysis** ([`analyzer`]) — every configuration in
//!    the 640-point GEMM space is checked against a device's resource
//!    limits *offline*, using the exact predicate the simulated runtime
//!    applies at submit time ([`autokernel_sycl_sim::resources`]). Each
//!    config is classified `Valid`, `Invalid{reason}` or
//!    `Degraded{occupancy}`, and a dominance pass flags configurations
//!    that a sibling work-group shape beats on every static resource
//!    axis. [`report`] renders the findings as a SARIF 2.1.0 document
//!    (`reports/kernel_space_analysis.json`).
//! 2. **Hot-path lint** ([`lint`]) — a source-level scanner that bans
//!    latent panics (`unwrap`/`expect`/`panic!`/`todo!`/
//!    `unimplemented!`), NaN-hazardous `partial_cmp` and non-literal
//!    slice indexing from the serving modules, plus allocation idioms
//!    (`no-alloc`) from the decide path, with `// lint:allow(<rule>)`
//!    and item-scoped `// lint:allow-fn(<rule>)` escape hatches.
//! 3. **Concurrency analysis** ([`concurrency`], [`interleave`]) — an
//!    atomic-ordering audit (every atomic site declares a role via
//!    `// atomic:role(...)`, checked against the orderings it uses),
//!    per-function lock-order extraction with cycle detection, and a
//!    loom-lite deterministic interleaving model checker that
//!    exhaustively explores small-bound models of the hand-rolled
//!    concurrent protocols (drift publication, ingress accounting),
//!    with seeded mutations proving the checker catches real ordering
//!    bugs.
//!    Findings render as SARIF (`reports/concurrency_audit.json`).
//!
//! The motivating observation (tritonBLAS, arXiv:2512.04226; Lawson,
//! arXiv:1904.05347) is that much of a kernel configuration space can
//! be ranked or rejected *analytically* — before any benchmark runs —
//! and that doing so cheaply pays for itself many times over in a
//! tuning sweep. The `TuningPipeline` consumes [`analyzer`] verdicts to
//! pre-prune statically invalid configurations, and the resilient
//! executor refuses to place them in its fallback chain. The
//! [`scorer`] module pushes the observation to its limit: a
//! zero-benchmark roofline ranking of the full space usable as a
//! cold-start selector, a bandit prior and a pruning oracle.

#![warn(missing_docs)]

pub mod analyzer;
pub mod concurrency;
pub mod interleave;
pub mod lint;
pub mod report;
pub mod scorer;

pub use analyzer::{
    ConfigAnalysis, KernelSpaceAnalyzer, SpaceAnalysis, Verdict, DEGRADED_OCCUPANCY,
};
pub use concurrency::{
    audit_source, audit_workspace, render_concurrency_report, ConcurrencyAudit, Finding,
    FindingRule, ModelCheckRow, Role, AUDIT_TARGETS,
};
pub use interleave::{self_check, CounterExample, Exploration, Model, Mutation};
pub use lint::{
    lint_file, lint_source, lint_source_with, rules_for, Rule, Violation, DECIDE_PATH_FILES,
    HOT_PATH_FILES, TOTAL_CMP_FILES,
};
pub use report::{render_report, sarif_report, TOOL_NAME};
pub use scorer::AnalyticalScorer;
