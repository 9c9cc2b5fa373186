//! # autokernel-sycl-sim
//!
//! A SYCL-like heterogeneous runtime with *simulated* device timing.
//!
//! The paper benchmarks SYCL kernels on an AMD R9 Nano GPU. Rust has no
//! SYCL implementation and this reproduction has no GPU, so this crate
//! substitutes both:
//!
//! - the **runtime** ([`runtime`]) mirrors the SYCL concepts the study
//!   needs — platforms, devices, in-order queues, buffers, ND-range
//!   kernel dispatch and profiled events — executing kernel bodies on the
//!   host (so results are real and checkable), while
//! - the **device model** ([`perf`], [`device`]) supplies the *timing* an
//!   event reports, from an analytical GPU performance model
//!   (occupancy from register pressure, memory coalescing, tile
//!   quantisation, roofline combination) parameterised by a
//!   [`device::DeviceSpec`].
//!
//! Three device specs ship with the crate: an AMD R9 Nano-like GPU (the
//! paper's benchmark platform), a larger desktop GPU, and an embedded
//! accelerator, supporting the paper's "range of heterogeneous devices"
//! claim.

#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod perf;
pub mod resources;
pub mod runtime;
pub mod trace;

pub use device::{DeviceSpec, DeviceType};
pub use fault::{FaultError, FaultKind, FaultPlan};
pub use perf::{KernelCost, KernelProfile};
pub use resources::{check_launch, footprint, ResourceFootprint};
pub use runtime::{
    validate_launch, Buffer, BufferWriteGuard, CompletionStatus, Context, Event, NDRange, Platform,
    PreparedLaunch, Queue, SimClock, SimKernel,
};
pub use trace::{FallbackLevel, LaunchDecision, TraceRecorder};

use serde::{Deserialize, Serialize};

/// Which device capacity a launch over-subscribed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Work-group size above `DeviceSpec::max_work_group_size`.
    WorkGroupSize,
    /// Work-group size above the device's total SIMD lane count.
    Lanes,
    /// Per-group local memory above `DeviceSpec::lds_bytes_per_cu`.
    Lds,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::WorkGroupSize => write!(f, "work-group size"),
            ResourceKind::Lanes => write!(f, "SIMD lanes"),
            ResourceKind::Lds => write!(f, "local memory bytes"),
        }
    }
}

/// A launch rejected because a configuration demands more of a device
/// resource than the device has — the typed replacement for the old
/// stringly `BadLaunch` work-group check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceExhaustion {
    /// The over-subscribed resource.
    pub resource: ResourceKind,
    /// What the launch asked for.
    pub requested: usize,
    /// What the device offers.
    pub limit: usize,
}

impl std::fmt::Display for ResourceExhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} exceeds device limit {}",
            self.resource, self.requested, self.limit
        )
    }
}

/// Errors produced by the simulated runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No device of the requested type exists on the platform.
    NoSuchDevice(String),
    /// An ND-range was invalid (zero-sized, or global not a multiple of
    /// local).
    BadRange(String),
    /// Kernel rejected the launch configuration (e.g. operand buffers
    /// disagreeing with the problem shape).
    BadLaunch(String),
    /// The launch over-subscribes a device resource (work-group limit,
    /// lane count, local memory) — rejected at submit time.
    Exhausted(ResourceExhaustion),
    /// An injected runtime fault (see [`fault::FaultPlan`]).
    Fault(FaultError),
}

impl SimError {
    /// Whether retrying the *same* launch may succeed: injected
    /// transient faults are retryable, structural rejections
    /// (bad ranges, resource exhaustion) are not.
    pub fn is_transient(&self) -> bool {
        match self {
            SimError::Fault(f) => f.kind.is_transient(),
            _ => false,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoSuchDevice(s) => write!(f, "no such device: {s}"),
            SimError::BadRange(s) => write!(f, "bad nd-range: {s}"),
            SimError::BadLaunch(s) => write!(f, "bad launch: {s}"),
            SimError::Exhausted(e) => write!(f, "resource exhausted: {e}"),
            SimError::Fault(e) => write!(f, "injected fault: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SimError>;
