//! Correctness checks. Every failure is counted (it lands in the
//! reported `failed` count and in `correct_ratio`) and makes the run exit
//! non-zero.

use autokernel_core::IngressReport;

/// The tolerance the `gemm` crate's own kernel tests use.
pub const GEMM_TOLERANCE: f32 = 1e-4;

/// Failures found by the checks, with a line per failure for the log.
#[derive(Debug, Default)]
pub struct Failures {
    /// Failed requests or violated run invariants.
    pub count: u64,
    /// One human-readable line per failure kind.
    pub notes: Vec<String>,
}

impl Failures {
    /// Record `n` failures of one kind (no-op for `n == 0`).
    pub fn add(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.count += n;
            self.notes.push(format!("{n} x {}", what.into()));
        }
    }
}

/// Largest absolute difference between `got` and `expected`, or infinity
/// when the lengths differ or `got` holds a NaN or infinity (a NaN-filled
/// `C` that a kernel never wrote must not pass as "no difference").
pub fn max_abs_err(got: &[f32], expected: &[f32]) -> f32 {
    if got.len() != expected.len() {
        return f32::INFINITY;
    }
    let mut worst = 0.0f32;
    for (g, e) in got.iter().zip(expected) {
        let d = (g - e).abs();
        if !d.is_finite() {
            return f32::INFINITY;
        }
        worst = worst.max(d);
    }
    worst
}

/// Whether a computed `C` matches its reference within tolerance.
pub fn c_is_correct(got: &[f32], expected: &[f32]) -> bool {
    max_abs_err(got, expected) < GEMM_TOLERANCE
}

/// The ingress accounting checks: every submitted request was served,
/// nothing was shed in the measured phases, and the report's identity
/// `submitted == served + shed` holds.
pub fn accounting(report: &IngressReport, submitted: u64, failures: &mut Failures) {
    failures.add(report.shed_total(), "requests shed");
    failures.add(
        submitted.saturating_sub(report.served + report.shed_total()),
        "requests submitted but never served",
    );
    failures.add(
        report.submitted.abs_diff(submitted),
        "submissions missing from the ingress report",
    );
    if !report.accounted() {
        failures.add(1, "ingress report breaks submitted == served + shed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(submitted: u64, served: u64) -> IngressReport {
        IngressReport {
            submitted,
            enqueued: submitted,
            served,
            shed_tenant_quota: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_shutdown: 0,
            snapshots_written: 0,
            snapshot_errors: 0,
            classes: Vec::new(),
            waves: 0,
            fleet_degraded: false,
        }
    }

    #[test]
    fn a_dropped_request_is_caught() {
        let mut clean = Failures::default();
        accounting(&report(100, 100), 100, &mut clean);
        assert_eq!(clean.count, 0);

        let mut dropped = Failures::default();
        accounting(&report(100, 99), 100, &mut dropped);
        assert!(dropped.count >= 1, "{:?}", dropped.notes);
    }

    #[test]
    fn corrupted_and_unwritten_outputs_are_caught() {
        let expected = vec![1.0f32, 2.0, 3.0];
        assert!(c_is_correct(&[1.0, 2.0, 3.00001], &expected));
        assert!(!c_is_correct(&[1.0, 2.5, 3.0], &expected));
        assert!(!c_is_correct(&[1.0, f32::NAN, 3.0], &expected));
        assert!(!c_is_correct(&[1.0, 2.0], &expected));
    }
}
