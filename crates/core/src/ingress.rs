//! Async SLO-aware ingress: the fleet's concurrent front door.
//!
//! [`ShardedScheduler::serve`] consumes a pre-collected slice — fine
//! for replaying a trace, wrong for a service: a real deployment
//! ingests an unbounded concurrent stream, and *something* must bound
//! queue growth, keep one noisy tenant from starving the rest, and
//! shed work under overload instead of queueing it into latency
//! heat-death. This module is that something:
//!
//! * **MPSC ingestion** — producers on any number of threads submit
//!   through cloneable [`IngressHandle`]s into one bounded channel
//!   (std's [`mpsc::sync_channel`]); a single dispatcher thread owns
//!   the scheduler and drains the channel in chunks, so the
//!   scheduler's deterministic plan/execute waves stay single-writer.
//! * **Per-tenant admission** — each tenant may hold at most
//!   [`TenantQuota::max_queued`] requests in the queue; excess arrivals
//!   are shed with [`ShedReason::TenantQuota`] *at submit time*, so a
//!   hot tenant's overflow never costs queue capacity.
//! * **Priority classes** — [`Priority::Interactive`] blocks on a full
//!   queue (backpressure, never queue-shed), [`Priority::Standard`]
//!   sheds when the queue is full, and [`Priority::Batch`] sheds as
//!   soon as the queue passes its headroom mark — overload evicts
//!   batch work first and interactive work last. The priority also
//!   becomes the request's scheduling class, so the scheduler never
//!   coalesces across classes.
//! * **Deadlines** — a request may carry a deadline; if it is still
//!   queued when its deadline passes, the dispatcher sheds it with
//!   [`ShedReason::DeadlineExpired`] instead of burning device time on
//!   an answer nobody is waiting for.
//! * **Typed shedding, never silent drops** — every submitted request
//!   ends up in exactly one of `served` or one shed counter;
//!   [`IngressReport::accounted`] checks the invariant
//!   `submitted == served + shed`.
//! * **Tail-latency telemetry** — per-class end-to-end latency
//!   (submit to chunk completion, wall clock) lands in
//!   [`LatencyHistogram`]s that the dispatcher settles once per chunk,
//!   under the same lock as the served counts; the report carries
//!   p50/p99 per class.
//!
//! Pair the scheduler's shards with
//! [`crate::TuningPipeline::device_bounded_executor`] so the decision
//! caches behind the ingress are capacity-bounded and Bloom-admitted:
//! millions of distinct shapes then cost bounded memory
//! (`tests/ingress_serving.rs` and the `micro_ingress` bench pin
//! this).

use crate::mix::MixMap;
use crate::persist::{RestoreOutcome, Snapshot, SnapshotterConfig};
use crate::sched::{GemmRequest, ShardedScheduler};
use crate::telemetry::LatencyHistogram;
use crate::{CoreError, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Number of priority classes.
pub const PRIORITY_CLASSES: usize = 3;

/// A request's service class, from most to least latency-sensitive.
/// Doubles as the scheduler's coalescing class, so batches never mix
/// priorities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// User-facing traffic: blocks on a full queue (backpressure) and
    /// is only ever shed by tenant quota or deadline.
    Interactive,
    /// Default traffic: shed when the queue is full.
    Standard,
    /// Best-effort traffic: shed as soon as the queue passes the
    /// configured headroom mark, so overload evicts batch work first.
    Batch,
}

impl Priority {
    /// Every priority, in class order.
    pub const ALL: [Priority; PRIORITY_CLASSES] =
        [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// The scheduling class this priority maps to (0, 1, 2).
    pub fn class(self) -> u16 {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    fn index(self) -> usize {
        self.class() as usize
    }
}

/// Why a request was shed. Every shed is typed and counted — the
/// ingress never drops silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant already holds its full queue quota.
    TenantQuota,
    /// No queue capacity for this priority class.
    QueueFull,
    /// The deadline passed while the request was queued (or already at
    /// submit).
    DeadlineExpired,
    /// The ingress was draining for shutdown and the drain deadline
    /// passed before this request reached a device.
    Shutdown,
}

/// What `submit` did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued for dispatch.
    Enqueued,
    /// Rejected, with the reason (already counted in the telemetry).
    Shed(ShedReason),
}

impl SubmitOutcome {
    /// Whether the request made it into the queue.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, SubmitOutcome::Enqueued)
    }
}

/// Per-tenant admission bound.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuota {
    /// Maximum requests one tenant may hold in the ingress queue at
    /// once (clamped to ≥ 1). Arrivals beyond it shed with
    /// [`ShedReason::TenantQuota`].
    pub max_queued: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { max_queued: 1024 }
    }
}

/// Ingress knobs.
#[derive(Debug, Clone, Copy)]
pub struct IngressConfig {
    /// Bounded channel capacity between producers and the dispatcher
    /// (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Maximum requests the dispatcher hands the scheduler per chunk
    /// (clamped to ≥ 1). Larger chunks coalesce better; smaller chunks
    /// bound per-request queueing delay.
    pub dispatch_chunk: usize,
    /// Admission bound applied to every tenant.
    pub tenant_quota: TenantQuota,
    /// Fraction of the queue that must still be *free* for
    /// [`Priority::Batch`] work to be admitted (in `[0, 1]`; 0 accepts
    /// batch work until the queue is full).
    pub batch_headroom: f64,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            queue_capacity: 4096,
            dispatch_chunk: 1024,
            tenant_quota: TenantQuota::default(),
            batch_headroom: 0.5,
        }
    }
}

/// One ingress submission: the GEMM request plus its service metadata.
#[derive(Clone)]
pub struct IngressRequest {
    /// The underlying GEMM request (its `class` field is overwritten
    /// from `priority` at submit).
    pub request: GemmRequest,
    /// The submitting tenant.
    pub tenant: u32,
    /// Service class.
    pub priority: Priority,
    /// Optional completion deadline.
    pub deadline: Option<Instant>,
}

impl IngressRequest {
    /// A standard-priority request for tenant 0 with no deadline.
    pub fn new(request: GemmRequest) -> Self {
        IngressRequest {
            request,
            tenant: 0,
            priority: Priority::Standard,
            deadline: None,
        }
    }

    /// The same request for a different tenant.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// The same request in a different service class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request with a deadline `d` from now. A deadline past
    /// the end of `Instant` (such as `Duration::MAX`) means no
    /// deadline.
    pub fn with_deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Instant::now().checked_add(d);
        self
    }
}

/// A queued request plus its service metadata and submit stamp.
struct Envelope {
    request: GemmRequest,
    tenant: u32,
    priority: Priority,
    deadline: Option<Instant>,
    submitted: Instant,
}

/// What only the dispatcher writes: completions, their latencies and
/// the snapshotter's write counts. Settled under one lock once per
/// chunk (and once per snapshot write), so a live report sees the
/// served counts and their per-class split agree.
#[derive(Debug, Default)]
struct Settled {
    served: u64,
    class_served: [u64; PRIORITY_CLASSES],
    latency: [LatencyHistogram; PRIORITY_CLASSES],
    snapshots_written: u64,
    snapshot_errors: u64,
}

/// Telemetry shared by producers and the dispatcher. All counters are
/// monotone; the accounting invariant only settles once producers stop.
struct Shared {
    submitted: AtomicU64,
    enqueued: AtomicU64,
    shed_tenant: AtomicU64,
    shed_queue: AtomicU64,
    shed_deadline: AtomicU64,
    class_submitted: [AtomicU64; PRIORITY_CLASSES],
    class_shed: [AtomicU64; PRIORITY_CLASSES],
    settled: Mutex<Settled>,
    /// Requests currently queued, per tenant, on the keyed
    /// [`crate::mix`] hasher: tenant ids are caller-chosen. Never
    /// iterated.
    tenants: Mutex<MixMap<u32, usize>>,
    /// Queue occupancy for Batch-headroom admission (std's channel has
    /// no `len`): `submit` reserves a slot with `fetch_add` before it
    /// sends, and the dispatcher releases a chunk's slots on dequeue.
    /// The count is exact:
    /// * A request's decrement follows its `recv`, which follows its
    ///   send, which follows its `fetch_add`, so the counter never goes
    ///   below zero.
    /// * The reservation itself decides Batch admission, so concurrent
    ///   Batch producers cannot overshoot the headroom mark (reading
    ///   the length and then calling `try_send` could).
    /// * It includes reserved requests not yet in the channel, such as
    ///   an Interactive producer blocked in `send`, so under overload
    ///   Batch work sheds no later than a channel-length check would.
    queued: AtomicUsize,
    shed_shutdown: AtomicU64,
    /// Set by [`IngressHandle::shutdown`]: once this instant passes,
    /// the dispatcher sheds dequeued work instead of serving it. `None`
    /// means no drain in progress (or an unbounded drain).
    drain_deadline: Mutex<Option<Instant>>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            submitted: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            shed_tenant: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            class_submitted: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            class_shed: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            settled: Mutex::new(Settled::default()),
            tenants: Mutex::new(MixMap::default()),
            queued: AtomicUsize::new(0),
            shed_shutdown: AtomicU64::new(0),
            drain_deadline: Mutex::new(None),
        }
    }

    fn bump(counters: &[AtomicU64; PRIORITY_CLASSES], priority: Priority) {
        if let Some(c) = counters.get(priority.index()) {
            c.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        }
    }

    fn shed(&self, priority: Priority, reason: ShedReason) -> SubmitOutcome {
        match reason {
            ShedReason::TenantQuota => self.shed_tenant.fetch_add(1, Ordering::Relaxed), // atomic:role(counter)
            ShedReason::QueueFull => self.shed_queue.fetch_add(1, Ordering::Relaxed), // atomic:role(counter)
            ShedReason::DeadlineExpired => self.shed_deadline.fetch_add(1, Ordering::Relaxed), // atomic:role(counter)
            ShedReason::Shutdown => self.shed_shutdown.fetch_add(1, Ordering::Relaxed), // atomic:role(counter)
        };
        Self::bump(&self.class_shed, priority);
        SubmitOutcome::Shed(reason)
    }

    /// Undo a submit's queue reservation and tenant slot on an exit
    /// that does not enqueue.
    fn unreserve(&self, tenant: u32) {
        self.queued.fetch_sub(1, Ordering::Relaxed); // atomic:role(counter)
        self.release_tenants(&[(tenant, 1)]);
    }

    /// Release queue slots given as `(tenant, slots)` runs, under one
    /// acquisition of the tenant table.
    fn release_tenants(&self, runs: &[(u32, usize)]) {
        let mut tenants = self.tenants.lock();
        for &(tenant, slots) in runs {
            if let Some(count) = tenants.get_mut(&tenant) {
                *count = count.saturating_sub(slots);
                if *count == 0 {
                    tenants.remove(&tenant);
                }
            }
        }
    }

    /// Settle a served chunk's completions at `done`, given each
    /// request's `(submitted, priority)` in chunk order: its served
    /// counts and latency samples land under one acquisition of the
    /// settled lock.
    fn settle_chunk(&self, done: Instant, served: &[(Instant, Priority)]) {
        let mut guard = self.settled.lock();
        let settled = &mut *guard;
        for &(submitted, priority) in served {
            let nanos = done
                .saturating_duration_since(submitted)
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            let i = priority.index();
            if let Some(count) = settled.class_served.get_mut(i) {
                *count += 1;
            }
            if let Some(histogram) = settled.latency.get_mut(i) {
                histogram.record(nanos);
            }
        }
        settled.served += served.len() as u64;
    }
}

/// Per-class slice of an [`IngressReport`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ClassReport {
    /// The class index (0 = interactive, 1 = standard, 2 = batch).
    pub class: u64,
    /// Requests submitted in this class.
    pub submitted: u64,
    /// Requests served in this class.
    pub served: u64,
    /// Requests shed in this class (all reasons).
    pub shed: u64,
    /// Median end-to-end latency, nanoseconds (0 with no samples).
    pub p50_ns: f64,
    /// 99th-percentile end-to-end latency, nanoseconds.
    pub p99_ns: f64,
}

/// A snapshot of the ingress accounting. Taken live it lags in-flight
/// work; after [`Ingress::finish`] it is exact and
/// [`IngressReport::accounted`] must hold.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IngressReport {
    /// Requests presented to `submit`.
    pub submitted: u64,
    /// Requests that entered the queue.
    pub enqueued: u64,
    /// Requests the fleet completed.
    pub served: u64,
    /// Requests shed by tenant quota.
    pub shed_tenant_quota: u64,
    /// Requests shed by queue pressure.
    pub shed_queue_full: u64,
    /// Requests shed because their deadline expired in the queue.
    pub shed_deadline: u64,
    /// Requests shed because the drain deadline passed during
    /// shutdown.
    pub shed_shutdown: u64,
    /// Snapshots the background snapshotter persisted (0 unless the
    /// ingress was started with a [`SnapshotterConfig`]).
    pub snapshots_written: u64,
    /// Snapshot writes that failed (the stream keeps serving; the
    /// previous on-disk snapshot stays intact).
    pub snapshot_errors: u64,
    /// Per-class accounting and tail latency.
    pub classes: Vec<ClassReport>,
    /// Scheduler waves executed by the dispatcher (0 until `finish`).
    pub waves: u64,
    /// Whether the fleet ever degraded to a revived shard's
    /// reference path (false until `finish`).
    pub fleet_degraded: bool,
}

impl IngressReport {
    /// Total shed requests, all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_tenant_quota + self.shed_queue_full + self.shed_deadline + self.shed_shutdown
    }

    /// The zero-silent-drop invariant: every submitted request was
    /// served or shed. Only guaranteed after [`Ingress::finish`].
    pub fn accounted(&self) -> bool {
        self.submitted == self.served + self.shed_total()
    }
}

/// A cloneable producer handle: submit from any thread.
#[derive(Clone)]
pub struct IngressHandle {
    sender: SyncSender<Envelope>,
    shared: Arc<Shared>,
    config: IngressConfig,
}

impl IngressHandle {
    /// Submit one request. Returns the typed outcome;
    /// `Err(CoreError::IngressClosed)` only when the dispatcher is
    /// gone, which is a structural misuse, not load.
    pub fn submit(&self, request: IngressRequest) -> Result<SubmitOutcome> {
        let shared = &self.shared;
        shared.submitted.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        Shared::bump(&shared.class_submitted, request.priority);

        let now = Instant::now();
        if request.deadline.is_some_and(|d| d <= now) {
            return Ok(shared.shed(request.priority, ShedReason::DeadlineExpired));
        }

        // Tenant admission: check-and-hold one queue slot. Released by
        // the dispatcher on dequeue, or below on a queue shed.
        let quota = self.config.tenant_quota.max_queued.max(1);
        {
            let mut tenants = shared.tenants.lock();
            let count = tenants.entry(request.tenant).or_insert(0);
            if *count >= quota {
                drop(tenants);
                return Ok(shared.shed(request.priority, ShedReason::TenantQuota));
            }
            *count += 1;
        }

        // Priority-tiered queue admission: reserve an occupancy slot
        // (released by the dispatcher on dequeue, or below on any exit
        // that does not enqueue). Batch work needs headroom, standard
        // work needs a slot, interactive work waits for one.
        let occupied = shared.queued.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        if request.priority == Priority::Batch {
            let capacity = self.config.queue_capacity.max(1);
            let headroom = self.config.batch_headroom.clamp(0.0, 1.0);
            let admit_below = capacity.saturating_sub((capacity as f64 * headroom) as usize);
            if occupied >= admit_below.max(1) {
                shared.unreserve(request.tenant);
                return Ok(shared.shed(request.priority, ShedReason::QueueFull));
            }
        }

        let mut request = request;
        request.request.class = request.priority.class();
        let tenant = request.tenant;
        let priority = request.priority;
        let envelope = Envelope {
            request: request.request,
            tenant,
            priority,
            deadline: request.deadline,
            submitted: now,
        };

        let sent = if priority == Priority::Interactive {
            self.sender.send(envelope).map_err(|_| ())
        } else {
            match self.sender.try_send(envelope) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => {
                    shared.unreserve(tenant);
                    return Ok(shared.shed(priority, ShedReason::QueueFull));
                }
                Err(TrySendError::Disconnected(_)) => Err(()),
            }
        };
        match sent {
            Ok(()) => {
                shared.enqueued.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
                Ok(SubmitOutcome::Enqueued)
            }
            Err(()) => {
                shared.unreserve(tenant);
                Err(CoreError::IngressClosed)
            }
        }
    }

    /// Begin a graceful drain: requests already queued keep being
    /// served until `deadline` from now; anything still queued after
    /// that is shed with [`ShedReason::Shutdown`] (typed, counted —
    /// never silently dropped). Callable from any handle clone; the
    /// accounting identity `submitted == served + shed` still holds at
    /// [`Ingress::finish`] / [`Ingress::shutdown`]. On the (theoretical)
    /// overflow of `Instant`, the drain is unbounded — everything
    /// queued is served.
    pub fn shutdown(&self, deadline: Duration) {
        *self.shared.drain_deadline.lock() = Instant::now().checked_add(deadline);
    }
}

/// The dispatcher-side background snapshotter: captures the fleet
/// every [`SnapshotterConfig::every_chunks`] served chunks and once
/// more on drain, writing atomically via [`Snapshot::save`]. A failed
/// write is counted and serving continues — the previous on-disk
/// snapshot stays valid.
struct Snapshotter {
    config: SnapshotterConfig,
    /// Sequence number stamped into the next snapshot (restored runs
    /// continue from the loaded snapshot's `seq + 1`).
    next_seq: u64,
    chunks: u64,
}

impl Snapshotter {
    fn write(&mut self, scheduler: &ShardedScheduler, shared: &Shared) {
        let snapshot = Snapshot::new(&self.config.device)
            .with_seq(self.next_seq)
            .capture_fleet(scheduler);
        match snapshot.save(&self.config.path) {
            Ok(()) => {
                self.next_seq = self.next_seq.saturating_add(1);
                shared.settled.lock().snapshots_written += 1;
            }
            Err(_) => shared.settled.lock().snapshot_errors += 1,
        }
    }

    fn after_chunk(&mut self, scheduler: &ShardedScheduler, shared: &Shared) {
        self.chunks += 1;
        if self.config.every_chunks > 0 && self.chunks.is_multiple_of(self.config.every_chunks) {
            self.write(scheduler, shared);
        }
    }
}

/// What the dispatcher thread hands back when the stream drains.
struct DispatchOutcome {
    scheduler: ShardedScheduler,
    waves: u64,
    fleet_degraded: bool,
}

/// The ingress service: owns the dispatcher thread and the primary
/// producer handle.
///
/// ```text
/// producers --IngressHandle::submit--> mpsc::sync_channel --dispatcher--> ShardedScheduler
/// ```
///
/// Call [`Ingress::finish`] to close the primary handle, drain the
/// queue, and get the exact report plus the scheduler back. Any
/// cloned [`IngressHandle`]s must be dropped first, or `finish` waits
/// for them.
pub struct Ingress {
    handle: IngressHandle,
    shared: Arc<Shared>,
    worker: Option<JoinHandle<Result<DispatchOutcome>>>,
}

impl Ingress {
    /// Start the ingress over `scheduler`: spawns the dispatcher
    /// thread, which owns the scheduler until [`Ingress::finish`].
    pub fn start(scheduler: ShardedScheduler, config: IngressConfig) -> Self {
        Self::start_inner(scheduler, config, None)
    }

    /// [`Ingress::start`] with a background snapshotter: the dispatcher
    /// persists the fleet's learned state to `snapshots.path` every
    /// `snapshots.every_chunks` chunks (atomic temp-file + fsync +
    /// rename) and once more when the stream drains, so a crash costs
    /// at most one cadence of learning.
    pub fn start_with_snapshots(
        scheduler: ShardedScheduler,
        config: IngressConfig,
        snapshots: SnapshotterConfig,
    ) -> Self {
        let snapshotter = Snapshotter {
            config: snapshots,
            next_seq: 1,
            chunks: 0,
        };
        Self::start_inner(scheduler, config, Some(snapshotter))
    }

    /// Warm restart: load the last snapshot from `snapshots.path`,
    /// restore it into `scheduler` ([`Snapshot::restore_fleet`]
    /// semantics — corruption-tolerant, typed), and start serving with
    /// the snapshotter continuing from the restored sequence number.
    /// An unreadable or unusable snapshot degrades to a cold start with
    /// the typed reason in the returned [`RestoreOutcome`] — the
    /// ingress always starts.
    pub fn start_restored(
        mut scheduler: ShardedScheduler,
        config: IngressConfig,
        snapshots: SnapshotterConfig,
    ) -> (Self, RestoreOutcome) {
        let (outcome, next_seq) = match Snapshot::load(&snapshots.path) {
            Ok(snapshot) => {
                let outcome = snapshot.restore_fleet(&mut scheduler, &snapshots.device);
                (outcome, snapshot.seq.saturating_add(1))
            }
            Err(error) => (RestoreOutcome::ColdStart { error }, 1),
        };
        let snapshotter = Snapshotter {
            config: snapshots,
            next_seq,
            chunks: 0,
        };
        (
            Self::start_inner(scheduler, config, Some(snapshotter)),
            outcome,
        )
    }

    fn start_inner(
        scheduler: ShardedScheduler,
        config: IngressConfig,
        snapshotter: Option<Snapshotter>,
    ) -> Self {
        let shared = Arc::new(Shared::new());
        let (sender, receiver) = mpsc::sync_channel(config.queue_capacity.max(1));
        let worker_shared = Arc::clone(&shared);
        let chunk = config.dispatch_chunk.max(1);
        let worker = std::thread::spawn(move || {
            dispatch(scheduler, receiver, worker_shared, chunk, snapshotter)
        });
        Ingress {
            handle: IngressHandle {
                sender,
                shared: Arc::clone(&shared),
                config,
            },
            shared,
            worker: Some(worker),
        }
    }

    /// A cloneable producer handle for other threads.
    pub fn handle(&self) -> IngressHandle {
        self.handle.clone()
    }

    /// Submit on the primary handle (see [`IngressHandle::submit`]).
    pub fn submit(&self, request: IngressRequest) -> Result<SubmitOutcome> {
        self.handle.submit(request)
    }

    /// A live snapshot of the accounting. In-flight requests make
    /// `accounted` false here; use [`Ingress::finish`] for the exact
    /// report.
    pub fn report(&self) -> IngressReport {
        report_from(&self.shared, 0, false)
    }

    /// Replace the primary handle's sender with a disconnected dummy,
    /// dropping the real one — once every cloned handle is gone too,
    /// the dispatcher sees the channel close and drains.
    fn close_sender(&mut self) {
        let (closed, _) = mpsc::sync_channel(1);
        drop(std::mem::replace(&mut self.handle.sender, closed));
    }

    fn join_worker(&mut self) -> Result<(IngressReport, ShardedScheduler)> {
        let worker = self.worker.take().ok_or(CoreError::IngressClosed)?;
        self.close_sender();
        let outcome = worker.join().map_err(|_| CoreError::DispatcherPanicked)??;
        let report = report_from(&self.shared, outcome.waves, outcome.fleet_degraded);
        Ok((report, outcome.scheduler))
    }

    /// Close the primary handle, wait for the dispatcher to drain the
    /// queue, and return the exact report plus the scheduler.
    pub fn finish(mut self) -> Result<(IngressReport, ShardedScheduler)> {
        self.join_worker()
    }

    /// Graceful shutdown: serve what is already queued for up to
    /// `deadline`, shed the rest typed ([`ShedReason::Shutdown`]), take
    /// a final snapshot (when a snapshotter is configured), and join
    /// the dispatcher thread. The returned report is exact:
    /// `submitted == served + shed`.
    pub fn shutdown(mut self, deadline: Duration) -> Result<(IngressReport, ShardedScheduler)> {
        self.handle.shutdown(deadline);
        self.join_worker()
    }
}

impl Drop for Ingress {
    /// A dropped ingress no longer leaks its dispatcher thread: the
    /// primary sender is closed and the thread joined (once any cloned
    /// handles are gone). The report and scheduler are discarded — use
    /// [`Ingress::finish`] or [`Ingress::shutdown`] to keep them.
    fn drop(&mut self) {
        if self.worker.is_none() {
            return; // finish()/shutdown() already joined
        }
        self.close_sender();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Read the accounting: the settled counts and each class's latency
/// quantiles are computed under one hold of the settled lock, without
/// copying the histograms out.
fn report_from(shared: &Shared, waves: u64, fleet_degraded: bool) -> IngressReport {
    let mut classes = Vec::with_capacity(PRIORITY_CLASSES);
    let settled = shared.settled.lock();
    for p in Priority::ALL {
        let i = p.index();
        let load = |c: &[AtomicU64; PRIORITY_CLASSES]| {
            c.get(i).map(|v| v.load(Ordering::Relaxed)).unwrap_or(0) // atomic:role(counter)
        };
        let (p50, p99) = settled
            .latency
            .get(i)
            .map(|h| (h.p50(), h.p99()))
            .unwrap_or((0.0, 0.0));
        classes.push(ClassReport {
            class: i as u64,
            submitted: load(&shared.class_submitted),
            served: settled.class_served.get(i).copied().unwrap_or(0),
            shed: load(&shared.class_shed),
            p50_ns: p50,
            p99_ns: p99,
        });
    }
    let (served, snapshots_written, snapshot_errors) = (
        settled.served,
        settled.snapshots_written,
        settled.snapshot_errors,
    );
    drop(settled);
    IngressReport {
        submitted: shared.submitted.load(Ordering::Relaxed), // atomic:role(counter)
        enqueued: shared.enqueued.load(Ordering::Relaxed),   // atomic:role(counter)
        served,
        shed_tenant_quota: shared.shed_tenant.load(Ordering::Relaxed), // atomic:role(counter)
        shed_queue_full: shared.shed_queue.load(Ordering::Relaxed),    // atomic:role(counter)
        shed_deadline: shared.shed_deadline.load(Ordering::Relaxed),   // atomic:role(counter)
        shed_shutdown: shared.shed_shutdown.load(Ordering::Relaxed),   // atomic:role(counter)
        snapshots_written,
        snapshot_errors,
        classes,
        waves,
        fleet_degraded,
    }
}

/// The dispatcher loop: drain the channel in chunks, shed expired
/// deadlines (and everything past the drain deadline during shutdown),
/// serve the rest, record per-class latency, snapshot at the
/// configured cadence and once more on drain.
///
/// Shared state is settled once per chunk, not once per request: the
/// chunk's tenant slots are released under one lock acquisition, and
/// its completions are settled under another by
/// [`Shared::settle_chunk`]. Requests
/// move out of their envelopes into the scheduler's input, and the
/// chunk buffers are reused from chunk to chunk.
fn dispatch(
    mut scheduler: ShardedScheduler,
    receiver: Receiver<Envelope>,
    shared: Arc<Shared>,
    chunk_size: usize,
    mut snapshotter: Option<Snapshotter>,
) -> Result<DispatchOutcome> {
    let mut waves = 0u64;
    let mut fleet_degraded = false;
    let mut envelopes: Vec<Envelope> = Vec::with_capacity(chunk_size);
    let mut requests: Vec<GemmRequest> = Vec::with_capacity(chunk_size);
    // Each kept request's (submitted, priority), in `requests` order.
    let mut kept: Vec<(Instant, Priority)> = Vec::with_capacity(chunk_size);
    // The chunk's tenant slots as (tenant, slots) runs.
    let mut releases: Vec<(u32, usize)> = Vec::new();
    // Block for each chunk head; every sender gone means we are done
    // once the buffer is drained (recv returns leftovers before
    // reporting disconnect).
    while let Ok(first) = receiver.recv() {
        envelopes.push(first);
        while envelopes.len() < chunk_size {
            match receiver.try_recv() {
                Ok(envelope) => envelopes.push(envelope),
                Err(_) => break,
            }
        }
        shared.queued.fetch_sub(envelopes.len(), Ordering::Relaxed); // atomic:role(counter)

        // Dequeued: release tenant slots, shed expired deadlines and —
        // when a graceful drain has run past its deadline — everything
        // else (typed as Shutdown, so the accounting identity holds).
        let now = Instant::now();
        let draining = shared.drain_deadline.lock().is_some_and(|d| d <= now);
        for envelope in envelopes.drain(..) {
            match releases.last_mut() {
                Some((tenant, slots)) if *tenant == envelope.tenant => *slots += 1,
                _ => releases.push((envelope.tenant, 1)),
            }
            if draining {
                shared.shed(envelope.priority, ShedReason::Shutdown);
            } else if envelope.deadline.is_some_and(|d| d <= now) {
                shared.shed(envelope.priority, ShedReason::DeadlineExpired);
            } else {
                kept.push((envelope.submitted, envelope.priority));
                requests.push(envelope.request);
            }
        }
        shared.release_tenants(&releases);
        releases.clear();
        if requests.is_empty() {
            continue;
        }

        let report = scheduler.serve(&requests)?;
        waves += report.waves as u64;
        fleet_degraded |= report.fleet_degraded;

        // Chunk-granular completion stamp: every request in the chunk
        // finished by now, and the histogram's log2 buckets absorb the
        // sub-chunk skew.
        shared.settle_chunk(Instant::now(), &kept);
        requests.clear();
        kept.clear();
        if let Some(snapshotter) = snapshotter.as_mut() {
            snapshotter.after_chunk(&scheduler, &shared);
        }
    }
    // Final snapshot on drain: shutdown never loses more learning than
    // the last chunk.
    if let Some(snapshotter) = snapshotter.as_mut() {
        snapshotter.write(&scheduler, &shared);
    }
    Ok(DispatchOutcome {
        scheduler,
        waves,
        fleet_degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokernel_gemm::GemmShape;

    #[test]
    fn priority_maps_to_distinct_classes() {
        let classes: Vec<u16> = Priority::ALL.iter().map(|p| p.class()).collect();
        assert_eq!(classes, vec![0, 1, 2]);
    }

    #[test]
    fn ingress_request_builder_sets_metadata() {
        let shape = GemmShape::new(8, 8, 8);
        let request = IngressRequest::new(GemmRequest::zeroed(shape))
            .with_tenant(7)
            .with_priority(Priority::Batch)
            .with_deadline_in(Duration::from_secs(3600));
        assert_eq!(request.tenant, 7);
        assert_eq!(request.priority, Priority::Batch);
        assert!(request.deadline.is_some());
        // A deadline past the end of `Instant` is no deadline, not a panic.
        let request = request.with_deadline_in(Duration::MAX);
        assert_eq!(request.deadline, None);
    }

    #[test]
    fn batch_headroom_admission_is_exact_and_a_closed_ingress_is_typed() {
        let (sender, receiver) = mpsc::sync_channel(8);
        let handle = IngressHandle {
            sender,
            shared: Arc::new(Shared::new()),
            config: IngressConfig {
                queue_capacity: 8,
                batch_headroom: 0.5,
                tenant_quota: TenantQuota {
                    max_queued: 1 << 20,
                },
                ..IngressConfig::default()
            },
        };
        let submit = |priority| {
            let request = GemmRequest::zeroed(GemmShape::new(8, 8, 8));
            handle.submit(IngressRequest::new(request).with_priority(priority))
        };
        let shared = &handle.shared;
        let tenant_total = || shared.tenants.lock().values().sum::<usize>();
        let queue_full = SubmitOutcome::Shed(ShedReason::QueueFull);

        // Capacity 8 with half kept free: Batch is admitted below 4.
        for _ in 0..4 {
            assert_eq!(submit(Priority::Batch).unwrap(), SubmitOutcome::Enqueued);
        }
        assert_eq!(submit(Priority::Batch).unwrap(), queue_full);
        // Standard fills the remaining four slots, then sheds.
        for _ in 0..4 {
            assert_eq!(submit(Priority::Standard).unwrap(), SubmitOutcome::Enqueued);
        }
        assert_eq!(submit(Priority::Standard).unwrap(), queue_full);
        assert_eq!(shared.queued.load(Ordering::Relaxed), 8);
        assert_eq!(tenant_total(), 8);
        let report = report_from(shared, 0, false);
        assert_eq!(
            (report.submitted, report.enqueued, report.shed_queue_full),
            (10, 8, 2)
        );

        // With the dispatcher gone, submit fails typed and releases
        // both of its reservations.
        drop(receiver);
        assert!(matches!(
            submit(Priority::Standard),
            Err(CoreError::IngressClosed)
        ));
        assert_eq!(shared.queued.load(Ordering::Relaxed), 8);
        assert_eq!(tenant_total(), 8);
    }

    #[test]
    fn dispatch_settles_a_mixed_chunk_once() {
        use crate::cache::CachedSelector;
        use crate::resilient::{ResilientExecutor, ResilientPolicy};
        use crate::sched::{DeviceShard, SchedConfig};
        use autokernel_sycl_sim::{DeviceSpec, Queue};

        let selector = Arc::new(CachedSelector::new(crate::cache::tests::trained()));
        let ranking = selector.selector().configs().to_vec();
        let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
        let executor = ResilientExecutor::new(selector, queue, ranking, ResilientPolicy::default());
        let scheduler = ShardedScheduler::new(
            vec![DeviceShard::new("nano", executor)],
            SchedConfig::default(),
        )
        .unwrap();

        let (sender, receiver) = mpsc::sync_channel(16);
        let shared = Arc::new(Shared::new());
        let handle = IngressHandle {
            sender,
            shared: Arc::clone(&shared),
            config: IngressConfig {
                queue_capacity: 16,
                ..IngressConfig::default()
            },
        };
        // Three tenants interleaved across two classes, with repeat
        // tenants inside one chunk and runs of each length.
        let plan = [
            (0, Priority::Interactive),
            (1, Priority::Standard),
            (1, Priority::Standard),
            (2, Priority::Interactive),
            (0, Priority::Standard),
            (2, Priority::Interactive),
            (0, Priority::Interactive),
            (1, Priority::Standard),
        ];
        for (i, &(tenant, priority)) in plan.iter().enumerate() {
            let shape = GemmShape::new(8 + i % 3, 8, 8);
            let request = IngressRequest::new(GemmRequest::zeroed(shape))
                .with_tenant(tenant)
                .with_priority(priority);
            assert_eq!(handle.submit(request).unwrap(), SubmitOutcome::Enqueued);
        }
        assert_eq!(shared.tenants.lock().len(), 3);
        assert_eq!(shared.queued.load(Ordering::Relaxed), plan.len());
        drop(handle);

        // A chunk larger than the stream: one chunk serves everything.
        let outcome = dispatch(scheduler, receiver, Arc::clone(&shared), 64, None).unwrap();
        assert!(
            shared.tenants.lock().is_empty(),
            "every tenant slot released"
        );
        assert_eq!(shared.queued.load(Ordering::Relaxed), 0);
        let report = report_from(&shared, outcome.waves, outcome.fleet_degraded);
        assert!(report.accounted());
        assert_eq!(report.served, plan.len() as u64);
        for priority in Priority::ALL {
            let i = priority.index();
            let submitted = plan.iter().filter(|&&(_, p)| p == priority).count() as u64;
            let class = &report.classes[i];
            assert_eq!((class.submitted, class.served), (submitted, submitted));
            let latency = shared.settled.lock().latency[i].count();
            assert_eq!(latency, class.served, "class {i}");
        }
    }

    #[test]
    fn report_accounting_identity_holds_when_empty() {
        let shared = Shared::new();
        let report = report_from(&shared, 0, false);
        assert!(report.accounted());
        assert_eq!(report.shed_total(), 0);
    }
}
