//! The correctness checks catch a corrupted `C` and a dropped request on
//! the real serving path.

use autokernel_core::IngressReport;
use perfbench::check::{self, Failures};
use perfbench::deploy;
use perfbench::run::{self, Inputs};
use perfbench::workload::Workload;

/// Serve the first `submit` requests of `inputs` through a fresh
/// `real_gemm` deployment with no fault onset.
fn serve(inputs: &Inputs, submit: usize) -> IngressReport {
    // real_gemm has no snapshotter; the path is never written.
    let snapshot = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unused-snapshot.json");
    let deployment = deploy::start(Workload::RealGemm, 5, u64::MAX, &snapshot);
    for i in 0..submit {
        assert!(run::submit(&deployment.ingress, inputs, i));
    }
    let (report, _) = deployment.ingress.finish().expect("the dispatcher drains");
    report
}

#[test]
fn a_corrupted_c_is_caught() {
    let n = 12;
    let inputs = Inputs::new(Workload::RealGemm, 5, n);
    let report = serve(&inputs, n);
    let mut failures = Failures::default();
    check::accounting(&report, n as u64, &mut failures);
    assert_eq!(failures.count, 0, "{:?}", failures.notes);

    inputs.check_served(3);
    assert_eq!(inputs.verdict().0, 0, "the served outputs are right");
    let c = inputs
        .pending_output(3)
        .expect("request 3 is not checked yet");
    c.write()[0] += 1.0;
    inputs.check_served(usize::MAX);
    assert_eq!(inputs.verdict().0, 1, "the corrupted C is caught");
}

#[test]
fn a_dropped_request_is_caught() {
    let n = 6;
    let inputs = Inputs::new(Workload::RealGemm, 6, n);
    let report = serve(&inputs, n - 1);
    // The last request counts as submitted but never reaches a device:
    // it is never served and its C keeps its NaN fill.
    inputs.track(n - 1, &inputs.request(n - 1));
    let mut failures = Failures::default();
    check::accounting(&report, n as u64, &mut failures);
    assert!(failures.count >= 1, "the missing request is counted");
    inputs.check_served(usize::MAX);
    assert_eq!(inputs.verdict().0, 1, "its unwritten C is caught too");
}
