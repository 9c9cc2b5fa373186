//! Deterministic fault injection for the simulated runtime.
//!
//! A real SYCL stack serving a fixed set of pre-compiled kernels must
//! survive the runtime pick being *wrong for the device*: launches that
//! fail transiently under driver pressure, devices that drop off the
//! bus, kernels that hang past their deadline, and configurations whose
//! register/LDS appetite starves the scheduler. A [`FaultPlan`] injects
//! exactly those failure modes at submit time
//! ([`crate::Queue::submit_prepared`], which every submission goes
//! through) — deterministically, from a seed, so every test run and
//! trace is reproducible.
//!
//! Determinism model: the plan keeps a submission counter; the fault
//! decision for submission *n* of kernel *k* is a pure hash of
//! `(seed, n, k)`. A single-queue workload therefore replays its exact
//! fault sequence given the same seed; concurrent queues sharing one
//! plan see a deterministic *set* of faults whose assignment to threads
//! follows the interleaving. A plan with every rate at zero injects
//! nothing and leaves the runtime's behaviour bit-identical to running
//! with no plan attached.

use crate::device::DeviceSpec;
use crate::perf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The failure modes the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The launch failed before the kernel ran (driver/dispatch error);
    /// retrying the same launch may succeed.
    TransientLaunch,
    /// The device dropped and reset; in-flight work is lost, but the
    /// device comes back after a reset interval, so a retry may succeed.
    DeviceLost,
    /// The kernel ran past the watchdog and was killed after consuming
    /// its full timeout budget. Retryable, but expensive.
    KernelTimeout,
    /// The configuration's resource appetite (registers/LDS-driven
    /// occupancy below the plan's floor, or an explicitly doomed
    /// kernel) starves the scheduler every time: retrying the same
    /// configuration can never succeed.
    ResourceStarvation,
}

impl FaultKind {
    /// Whether retrying the identical launch can succeed.
    pub fn is_transient(&self) -> bool {
        !matches!(self, FaultKind::ResourceStarvation)
    }

    /// Short stable label used in trace annotations.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TransientLaunch => "transient_launch",
            FaultKind::DeviceLost => "device_lost",
            FaultKind::KernelTimeout => "kernel_timeout",
            FaultKind::ResourceStarvation => "resource_starvation",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// An injected fault, carried inside [`crate::SimError::Fault`].
///
/// Records *when* on the simulated clock the failure happened and how
/// much device time the failed launch consumed, so failed attempts can
/// be rendered into traces next to successful ones.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultError {
    /// The injected failure mode.
    pub kind: FaultKind,
    /// Name of the kernel whose launch failed.
    pub kernel: String,
    /// Global submission index (per plan) at which the fault fired.
    pub submission: u64,
    /// Simulated time the failed launch started.
    pub at_s: f64,
    /// Simulated device time the failure consumed (launch overhead for
    /// rejected launches, the watchdog budget for timeouts).
    pub consumed_s: f64,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} (submission {}, {:.1} us consumed)",
            self.kind,
            self.kernel,
            self.submission,
            self.consumed_s * 1e6
        )
    }
}

/// A deterministic, seedable schedule of injected faults.
///
/// Attach one to a queue with [`crate::Queue::with_fault_plan`]. Rates
/// are per-submission probabilities evaluated in order (transient,
/// device-lost, timeout) from a single uniform draw, so the sum of the
/// rates must stay ≤ 1. Independently of the rates:
///
/// * kernels whose name contains a [`FaultPlan::doom_kernels_matching`]
///   substring always fail with [`FaultKind::ResourceStarvation`] — the
///   hook for "this shipped configuration is permanently broken on this
///   device";
/// * when [`FaultPlan::with_min_occupancy`] is set, any launch whose
///   modelled occupancy (from the `DeviceSpec`'s VGPR/LDS data) falls
///   below the floor fails the same way — resource exhaustion derived
///   from the device model rather than scripted by name.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    device_lost_rate: f64,
    timeout_rate: f64,
    /// Watchdog budget a timed-out kernel burns, in simulated seconds.
    timeout_s: f64,
    /// Device reset interval consumed by a device-lost event.
    reset_s: f64,
    /// Occupancy floor below which launches starve (0 disables).
    min_occupancy: f64,
    /// Kernel-name substrings that always starve.
    doomed: Vec<String>,
    /// Submission index before which the plan injects nothing — a
    /// device that degrades *mid-stream* (thermal event, driver update)
    /// rather than from its first launch.
    onset: u64,
    submissions: AtomicU64,
}

impl FaultPlan {
    /// A plan injecting nothing — attaching it is bit-identical to
    /// running with no plan.
    pub fn none() -> Self {
        FaultPlan::new(0)
    }

    /// An empty plan with the given seed; set rates with the builder
    /// methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            device_lost_rate: 0.0,
            timeout_rate: 0.0,
            timeout_s: 2.0e-3,
            reset_s: 500.0e-6,
            min_occupancy: 0.0,
            doomed: Vec::new(),
            onset: 0,
            submissions: AtomicU64::new(0),
        }
    }

    /// Probability of a transient launch failure per submission.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability of a device-lost event per submission.
    pub fn with_device_lost_rate(mut self, rate: f64) -> Self {
        self.device_lost_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Probability of a kernel timeout per submission.
    pub fn with_timeout_rate(mut self, rate: f64) -> Self {
        self.timeout_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Simulated watchdog budget a timed-out kernel consumes.
    pub fn with_timeout_duration(mut self, seconds: f64) -> Self {
        self.timeout_s = seconds.max(0.0);
        self
    }

    /// Occupancy floor: launches whose modelled occupancy on the target
    /// device falls below `floor` always fail with
    /// [`FaultKind::ResourceStarvation`].
    pub fn with_min_occupancy(mut self, floor: f64) -> Self {
        self.min_occupancy = floor.clamp(0.0, 1.0);
        self
    }

    /// Permanently fail every kernel whose name contains `substring`.
    pub fn doom_kernels_matching(mut self, substring: impl Into<String>) -> Self {
        self.doomed.push(substring.into());
        self
    }

    /// Hold every injection back until the plan has adjudicated
    /// `submission` launches: the first `submission` submissions behave
    /// as if the plan were inert, then the configured rates, dooms and
    /// occupancy floor apply. Models a device that is healthy when the
    /// stream starts and fault-saturates mid-stream.
    pub fn with_onset(mut self, submission: u64) -> Self {
        self.onset = submission;
        self
    }

    /// Total submissions this plan has adjudicated.
    pub fn submissions(&self) -> u64 {
        self.submissions.load(Ordering::Relaxed)
    }

    /// Whether this plan can ever inject anything.
    pub fn is_inert(&self) -> bool {
        self.transient_rate == 0.0
            && self.device_lost_rate == 0.0
            && self.timeout_rate == 0.0
            && self.min_occupancy == 0.0
            && self.doomed.is_empty()
    }

    /// Adjudicate one submission: `None` lets the launch proceed,
    /// `Some((kind, consumed_s))` fails it after consuming the given
    /// simulated device time. Called by the queue under its own clock.
    pub fn decide(
        &self,
        kernel: &str,
        occupancy: f64,
        device: &DeviceSpec,
    ) -> Option<(FaultKind, f64, u64)> {
        let submission = self.submissions.fetch_add(1, Ordering::Relaxed);
        if submission < self.onset {
            return None;
        }
        if self.doomed.iter().any(|d| kernel.contains(d.as_str())) {
            return Some((
                FaultKind::ResourceStarvation,
                device.launch_overhead,
                submission,
            ));
        }
        if self.min_occupancy > 0.0 && occupancy < self.min_occupancy {
            return Some((
                FaultKind::ResourceStarvation,
                device.launch_overhead,
                submission,
            ));
        }
        let total = self.transient_rate + self.device_lost_rate + self.timeout_rate;
        if total <= 0.0 {
            return None;
        }
        let u = uniform(self.seed, submission, kernel);
        if u < self.transient_rate {
            Some((
                FaultKind::TransientLaunch,
                device.launch_overhead,
                submission,
            ))
        } else if u < self.transient_rate + self.device_lost_rate {
            Some((FaultKind::DeviceLost, self.reset_s, submission))
        } else if u < total {
            Some((FaultKind::KernelTimeout, self.timeout_s, submission))
        } else {
            None
        }
    }

    /// Modelled occupancy helper so callers outside the queue (tests,
    /// examples) can ask "would this launch starve?" without submitting.
    pub fn would_starve(
        &self,
        device: &DeviceSpec,
        profile: &crate::perf::KernelProfile,
        range: &crate::runtime::NDRange,
        kernel: &str,
    ) -> bool {
        if self.doomed.iter().any(|d| kernel.contains(d.as_str())) {
            return true;
        }
        self.min_occupancy > 0.0 && perf::occupancy(device, profile, range) < self.min_occupancy
    }
}

/// Uniform [0, 1) draw from `(seed, submission, kernel)` via the
/// SplitMix64 finaliser — the same mixer the timing noise uses.
fn uniform(seed: u64, submission: u64, kernel: &str) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in kernel.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h
        .wrapping_add(submission.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nano() -> DeviceSpec {
        DeviceSpec::amd_r9_nano()
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        for _ in 0..500 {
            assert!(plan.decide("k", 0.5, &nano()).is_none());
        }
        assert_eq!(plan.submissions(), 500);
    }

    #[test]
    fn same_seed_replays_the_same_fault_sequence() {
        let mk = || {
            FaultPlan::new(7)
                .with_transient_rate(0.3)
                .with_timeout_rate(0.1)
        };
        let a: Vec<_> = {
            let p = mk();
            (0..200)
                .map(|_| p.decide("gemm_x", 0.5, &nano()).map(|(k, ..)| k))
                .collect()
        };
        let b: Vec<_> = {
            let p = mk();
            (0..200)
                .map(|_| p.decide("gemm_x", 0.5, &nano()).map(|(k, ..)| k))
                .collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.is_some()));
        assert!(a.iter().any(|f| f.is_none()));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::new(11).with_transient_rate(0.3);
        let n = 4000;
        let faults = (0..n)
            .filter(|_| plan.decide("gemm_y", 0.5, &nano()).is_some())
            .count();
        let rate = faults as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn doomed_kernels_always_starve() {
        let plan = FaultPlan::new(1).doom_kernels_matching("T8x8A8_WG128x1");
        for _ in 0..50 {
            let f = plan.decide("gemm_T8x8A8_WG128x1_64x64x64", 0.9, &nano());
            assert_eq!(f.map(|(k, ..)| k), Some(FaultKind::ResourceStarvation));
            assert!(plan
                .decide("gemm_T1x1A1_WG8x8_64x64x64", 0.9, &nano())
                .is_none());
        }
    }

    #[test]
    fn onset_delays_injection_until_the_threshold_submission() {
        let plan = FaultPlan::new(5)
            .doom_kernels_matching("gemm")
            .with_onset(10);
        for i in 0..10 {
            assert!(
                plan.decide("gemm_x", 0.5, &nano()).is_none(),
                "submission {i} precedes the onset"
            );
        }
        for _ in 10..20 {
            assert_eq!(
                plan.decide("gemm_x", 0.5, &nano()).map(|(k, ..)| k),
                Some(FaultKind::ResourceStarvation)
            );
        }
    }

    #[test]
    fn occupancy_floor_starves_low_occupancy_launches() {
        let plan = FaultPlan::new(1).with_min_occupancy(0.2);
        assert_eq!(
            plan.decide("k", 0.1, &nano()).map(|(k, ..)| k),
            Some(FaultKind::ResourceStarvation)
        );
        assert!(plan.decide("k", 0.3, &nano()).is_none());
    }

    #[test]
    fn transient_kinds_are_retryable_and_starvation_is_not() {
        assert!(FaultKind::TransientLaunch.is_transient());
        assert!(FaultKind::DeviceLost.is_transient());
        assert!(FaultKind::KernelTimeout.is_transient());
        assert!(!FaultKind::ResourceStarvation.is_transient());
    }

    #[test]
    fn fault_error_formats_with_kind_and_kernel() {
        let e = FaultError {
            kind: FaultKind::KernelTimeout,
            kernel: "gemm_z".into(),
            submission: 3,
            at_s: 1.0,
            consumed_s: 2.0e-3,
        };
        let s = e.to_string();
        assert!(s.contains("kernel_timeout") && s.contains("gemm_z"), "{s}");
    }
}
