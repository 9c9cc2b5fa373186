//! # autokernel-core
//!
//! The paper's contribution: machine-learning driven pruning of a kernel
//! configuration space and cheap runtime selection among the survivors.
//!
//! The pipeline, mirroring Sections II-IV of the paper:
//!
//! 1. [`dataset`] — benchmark every [`autokernel_gemm::KernelConfig`]
//!    (640) on every dataset GEMM shape, normalising each shape's
//!    timings to its best configuration (Figure 1 / Figure 2 data).
//! 2. [`prune`] — five strategies that shrink 640 configurations to a
//!    small shipped set: top-N by optimal count, k-means, PCA + k-means,
//!    HDBSCAN and a leaf-bounded decision-tree regression (Figure 4).
//! 3. [`select`] — six runtime classifiers mapping a GEMM shape to one of
//!    the shipped configurations (Table I).
//! 4. [`codegen`] — deployment: exporting the decision tree as nested
//!    `if` statements of plain Rust, the paper's argument for trees in
//!    low-latency libraries.
//! 5. [`pipeline`] — the end-to-end [`pipeline::TuningPipeline`], plus
//!    [`autotune`], the trial-run dynamic autotuner machine-learning
//!    frameworks traditionally use, as the baseline the introduction
//!    argues against.
//!
//! Extensions beyond the paper: [`regression`] implements the related
//! work's predictive-auto-tuning alternative (per-kernel boosted-tree
//! performance models, argmax selection), [`crossval`] adds k-fold
//! evaluation for the tiny-dataset regime the paper worries about, and
//! [`online`] closes the serving loop with bandit refinement and
//! Page–Hinkley drift detection over measured launch times, and
//! [`sched`] shards a serving stream across a fleet of per-device
//! executor stacks with batching, routing policies, bounded queues and
//! failure drain, and [`persist`] makes the learned serving state
//! durable: versioned checksummed snapshots written atomically at a
//! background cadence, restored corruption-tolerantly on startup, and
//! transplantable across devices for cross-device warm start.

#![warn(missing_docs)]

pub mod autotune;
pub mod cache;
pub mod codegen;
pub mod crossval;
pub mod dataset;
pub mod evaluate;
pub mod ingress;
pub mod libsize;
pub mod online;
pub mod persist;
pub mod pipeline;
pub mod prune;
pub mod regression;
pub mod report;
pub mod resilient;
pub mod sched;
pub mod select;

pub use cache::{
    BoundedCacheConfig, CachedSelector, CountingBloom, LatencyHistogram, SelectionOutcome,
    SelectionTelemetry, ShardedCache, TelemetrySnapshot,
};
pub use dataset::{PerformanceDataset, StaticPruneStats};
pub use ingress::{
    ClassReport, Ingress, IngressConfig, IngressReport, IngressRequest, Priority, ShedReason,
    SubmitOutcome, TenantQuota,
};
pub use online::{OnlineConfig, OnlineSelector, OnlineStats};
pub use persist::{
    RestoreOutcome, Snapshot, SnapshotError, SnapshotFault, SnapshotFaultInjector,
    SnapshotterConfig,
};
pub use pipeline::{PipelineConfig, TuningPipeline};
pub use prune::PruneMethod;
pub use regression::{RegressionParams, RegressionSelector};
pub use resilient::{
    BreakerState, CircuitBreaker, FailureRecord, LaunchReport, ResilientExecutor, ResilientPolicy,
};
pub use sched::{
    Assignment, DeviceReport, DeviceShard, GemmRequest, RoutingPolicy, SchedConfig, SchedReport,
    SchedTelemetry, ShardedScheduler,
};
pub use select::{AnalyticalSelector, FeatureSpace, Selector, SelectorKind};

/// Errors from the selection pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// Underlying ML estimator failure.
    Ml(autokernel_mlkit::MlError),
    /// Underlying simulator failure.
    Sim(autokernel_sycl_sim::SimError),
    /// Dataset construction or indexing problem.
    Dataset(String),
    /// A selector produced a configuration index outside the global
    /// 640-config space — a corrupted model artefact, not a user error.
    BadConfigIndex(usize),
    /// No configuration in the candidate set can launch on the target
    /// device (analytical cold-start selection over an empty or fully
    /// rejected set).
    NoLaunchableConfig,
    /// Every shard in the fleet has melted down: the scheduler degraded
    /// the leftover traffic to the reference-kernel path and reports it
    /// here instead of spinning or panicking.
    FleetMeltdown {
        /// Requests that still completed via the reference path.
        degraded: usize,
    },
    /// The ingress is closed: its dispatcher has shut down, or it was
    /// already finished.
    IngressClosed,
    /// The ingress dispatcher thread panicked.
    DispatcherPanicked,
    /// A sharded scheduler was built over no device shards.
    EmptyFleet,
    /// The online layer's offline priors do not cover the shipped set
    /// one-to-one (or the shipped set is empty).
    PriorsMismatch {
        /// Priors supplied.
        priors: usize,
        /// Configurations in the shipped set.
        shipped: usize,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Ml(e) => write!(f, "ml error: {e}"),
            CoreError::Sim(e) => write!(f, "simulator error: {e}"),
            CoreError::Dataset(s) => write!(f, "dataset error: {s}"),
            CoreError::BadConfigIndex(i) => {
                write!(f, "config index {i} outside the kernel configuration space")
            }
            CoreError::NoLaunchableConfig => {
                write!(
                    f,
                    "no candidate configuration can launch on the target device"
                )
            }
            CoreError::FleetMeltdown { degraded } => write!(
                f,
                "all shards melted down; {degraded} request(s) degraded to the reference kernel"
            ),
            CoreError::IngressClosed => {
                write!(f, "ingress is closed: the dispatcher has shut down")
            }
            CoreError::DispatcherPanicked => write!(f, "ingress dispatcher thread panicked"),
            CoreError::EmptyFleet => {
                write!(f, "sharded scheduler needs at least one device shard")
            }
            CoreError::PriorsMismatch { priors, shipped } => write!(
                f,
                "online priors cover {priors} configs, shipped set has {shipped}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<autokernel_mlkit::MlError> for CoreError {
    fn from(e: autokernel_mlkit::MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<autokernel_sycl_sim::SimError> for CoreError {
    fn from(e: autokernel_sycl_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
