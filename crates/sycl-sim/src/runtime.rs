//! SYCL-like runtime objects: platform, queue, buffer, ND-range, event.
//!
//! Semantics mirror the subset of SYCL the study uses: in-order queues
//! with profiling enabled, 2-D ND-range dispatch, and buffers shared
//! between host and "device". Kernel bodies execute on the host (rayon
//! parallel, real results); event timestamps come from the analytical
//! device model, advancing a per-queue simulated clock.
//!
//! Nothing a launch reads per submission takes a lock: a [`Buffer`]'s
//! length is fixed at construction and stored beside its storage, and
//! the simulated clock is one atomic holding the `f64` bits, advanced
//! by a compare-exchange loop (see [`Queue::submit_prepared`]).

use crate::device::DeviceSpec;
use crate::fault::{FaultError, FaultKind, FaultPlan};
use crate::perf::{self, KernelCost, KernelProfile};
use crate::{Result, SimError};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A two-dimensional ND-range: global dispatch size and work-group size.
///
/// As in SYCL, the global size must be a multiple of the local size in
/// each dimension; use [`NDRange::padded`] to round a useful size up.
///
/// ```
/// use autokernel_sycl_sim::NDRange;
/// let r = NDRange::padded([100, 3], [64, 1]).unwrap();
/// assert_eq!(r.global(), [128, 3]);
/// assert!(NDRange::new([65, 1], [64, 1]).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NDRange {
    global: [usize; 2],
    local: [usize; 2],
}

impl NDRange {
    /// Create a range, validating divisibility and non-emptiness.
    pub fn new(global: [usize; 2], local: [usize; 2]) -> Result<Self> {
        if global[0] == 0 || global[1] == 0 || local[0] == 0 || local[1] == 0 {
            return Err(SimError::BadRange("zero-sized range".into()));
        }
        if !global[0].is_multiple_of(local[0]) || !global[1].is_multiple_of(local[1]) {
            return Err(SimError::BadRange(format!(
                "global {:?} not a multiple of local {:?}",
                global, local
            )));
        }
        Ok(NDRange { global, local })
    }

    /// Round a useful size up to work-group multiples (the usual way
    /// GEMM launches are constructed).
    pub fn padded(useful: [usize; 2], local: [usize; 2]) -> Result<Self> {
        if local[0] == 0 || local[1] == 0 {
            return Err(SimError::BadRange("zero-sized work-group".into()));
        }
        let g0 = useful[0].max(1).div_ceil(local[0]) * local[0];
        let g1 = useful[1].max(1).div_ceil(local[1]) * local[1];
        NDRange::new([g0, g1], local)
    }

    /// Global extents.
    pub fn global(&self) -> [usize; 2] {
        self.global
    }

    /// Work-group extents.
    pub fn local(&self) -> [usize; 2] {
        self.local
    }

    /// Total dispatched work-items.
    pub fn global_size(&self) -> usize {
        self.global[0] * self.global[1]
    }

    /// Work-items per work-group.
    pub fn local_size(&self) -> usize {
        self.local[0] * self.local[1]
    }

    /// Number of work-groups dispatched.
    pub fn n_groups(&self) -> usize {
        (self.global[0] / self.local[0]) * (self.global[1] / self.local[1])
    }
}

/// A shared host/device buffer, SYCL-style.
///
/// Cloning is shallow (the clone aliases the same storage), matching
/// SYCL buffer semantics where copies refer to the same memory object.
/// The length is fixed at construction: [`Buffer::write`] hands out a
/// slice, never the `Vec`, so a kernel that checked the length at bind
/// time can index by it at execute time.
#[derive(Debug, Clone)]
pub struct Buffer<T> {
    data: Arc<RwLock<Vec<T>>>,
    /// The storage's length, kept beside the `Arc` so reading it takes
    /// no lock.
    len: usize,
}

/// Exclusive write access to a [`Buffer`]'s elements, returned by
/// [`Buffer::write`]. It derefs to `[T]`, not `Vec<T>`: writers change
/// elements, never the buffer's length.
pub struct BufferWriteGuard<'a, T>(RwLockWriteGuard<'a, Vec<T>>);

impl<T> Deref for BufferWriteGuard<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> DerefMut for BufferWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T: Clone + Send + Sync> Buffer<T> {
    /// Create a buffer owning `data`.
    pub fn from_vec(data: Vec<T>) -> Self {
        Buffer {
            len: data.len(),
            data: Arc::new(RwLock::new(data)),
        }
    }

    /// Create a zero-initialised buffer of `len` default elements.
    pub fn new_filled(len: usize, value: T) -> Self {
        Buffer::from_vec(vec![value; len])
    }

    /// Number of elements (fixed for the buffer's lifetime).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read accessor (shared).
    pub fn read(&self) -> RwLockReadGuard<'_, Vec<T>> {
        self.data.read()
    }

    /// Write accessor (exclusive) over the elements.
    pub fn write(&self) -> BufferWriteGuard<'_, T> {
        BufferWriteGuard(self.data.write())
    }

    /// Copy the contents out to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.data.read().clone()
    }
}

/// A kernel the simulated runtime can launch.
///
/// Implementations do two things: *execute* on the host (producing real,
/// checkable results) and *profile* themselves so the device model can
/// price the launch.
pub trait SimKernel: Send + Sync {
    /// Human-readable kernel name (shows up in event records). Called
    /// once per [`Queue::prepare`]: every event of the prepared launch
    /// shares the one string.
    fn name(&self) -> Arc<str>;

    /// Resource/traffic description for the device model.
    fn profile(&self, device: &DeviceSpec, range: &NDRange) -> KernelProfile;

    /// Run the kernel body on the host for the given range.
    fn execute(&self, range: &NDRange) -> Result<()>;

    /// Seed folded into the deterministic timing noise, so distinct
    /// kernel configurations land on distinct noise samples.
    fn noise_seed(&self) -> u64 {
        0
    }
}

/// How a launch recorded by an [`Event`] ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompletionStatus {
    /// The kernel ran to completion.
    Complete,
    /// The launch died to an injected fault of the given kind; the
    /// event's duration is the device time the failure consumed.
    Failed(FaultKind),
}

impl CompletionStatus {
    /// Short stable label used in trace annotations.
    pub fn label(&self) -> &'static str {
        match self {
            CompletionStatus::Complete => "complete",
            CompletionStatus::Failed(_) => "failed",
        }
    }
}

/// Check a launch's resource demands against a device *before* pricing
/// it. Queues call this at submit time; selection layers can call it
/// directly to pre-screen a candidate configuration.
///
/// The checks themselves live in [`crate::resources::check_launch`],
/// the single resource model shared with the offline static analyzer —
/// this wrapper only lifts its rejection into [`SimError::Exhausted`].
pub fn validate_launch(
    device: &DeviceSpec,
    profile: &KernelProfile,
    range: &NDRange,
) -> Result<()> {
    crate::resources::check_launch(device, profile, range).map_err(SimError::Exhausted)
}

/// A completed launch with simulated profiling information, the analogue
/// of a SYCL event with `info::event_profiling`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Shared with the [`PreparedLaunch`] the event came from, so every
    /// launch of one prepared kernel names it without a copy.
    kernel_name: Arc<str>,
    start_s: f64,
    end_s: f64,
    cost: KernelCost,
    status: CompletionStatus,
}

impl Event {
    /// An event recording a *failed* launch: the span it occupied on the
    /// device clock with a zeroed cost breakdown (nothing useful ran).
    pub fn failed(kernel_name: String, start_s: f64, end_s: f64, kind: FaultKind) -> Self {
        Event {
            kernel_name: kernel_name.into(),
            start_s,
            end_s,
            cost: KernelCost::default(),
            status: CompletionStatus::Failed(kind),
        }
    }

    /// How the launch ended.
    pub fn status(&self) -> CompletionStatus {
        self.status
    }

    /// Whether this event records a failed launch.
    pub fn is_failed(&self) -> bool {
        matches!(self.status, CompletionStatus::Failed(_))
    }

    /// Simulated submission-to-completion duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Simulated completion timestamp on the queue's clock.
    pub fn end_s(&self) -> f64 {
        self.end_s
    }

    /// Simulated start timestamp on the queue's clock.
    pub fn start_s(&self) -> f64 {
        self.start_s
    }

    /// The device model's cost breakdown for this launch.
    pub fn cost(&self) -> &KernelCost {
        &self.cost
    }

    /// Kernel name recorded at submit time.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }
}

/// A launch with every operand-independent step already done: the
/// kernel's profile passed [`validate_launch`], and its range, priced
/// cost (occupancy included) and duration, and name are fixed. Built
/// by [`Queue::prepare`] and consumed by [`Queue::submit_prepared`] on
/// the same queue, any number of times: a batch of same-shape requests
/// prepares its kernel once and submits it once per request.
#[derive(Debug)]
pub struct PreparedLaunch {
    name: Arc<str>,
    range: NDRange,
    cost: KernelCost,
    duration_s: f64,
}

/// A simulated device clock: the bits of an `f64` count of seconds in
/// one atomic, so reading it takes no lock.
type ClockCell = Arc<AtomicU64>;

/// Amplitude of the deterministic timing noise every queue applies to
/// modelled durations: ±3 %.
const NOISE_AMPLITUDE: f64 = 0.03;

/// The current time on `clock`, in simulated seconds.
fn read_clock(clock: &AtomicU64) -> f64 {
    f64::from_bits(clock.load(Ordering::Acquire)) // atomic:role(publish)
}

/// Move `clock` from its current time `now` to `next(now)` and return
/// `now`. A compare-exchange loop: a submitter that loses a race
/// re-reads the clock and recomputes, so concurrent submitters
/// serialise exactly as under a lock, and every stored time is
/// `next` of the time it replaced. The release on success publishes
/// the launch (its kernel body's writes included) to any thread that
/// reads the advanced clock.
fn advance_clock(clock: &AtomicU64, next: impl Fn(f64) -> f64) -> f64 {
    let mut current = clock.load(Ordering::Acquire); // atomic:role(publish)
    loop {
        let now = f64::from_bits(current);
        let next_bits = next(now).to_bits();
        // atomic:role(publish)
        match clock.compare_exchange_weak(current, next_bits, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return now,
            Err(actual) => current = actual,
        }
    }
}

/// A device execution context: queues created from the same context
/// share the device's timeline, so their launches serialise against
/// each other — the contention a real single device imposes on
/// concurrent SYCL queues.
#[derive(Clone)]
pub struct Context {
    device: Arc<DeviceSpec>,
    /// The device name's stable hash, folded into every launch's timing
    /// noise; hashed once here rather than on every price.
    device_hash: u64,
    clock_s: ClockCell,
}

impl Context {
    /// Create a context for `device` with its clock at zero.
    pub fn new(device: Arc<DeviceSpec>) -> Self {
        Context {
            device_hash: fxhash(device.name.as_bytes()),
            device,
            clock_s: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }

    /// Create an executing queue sharing this context's timeline.
    pub fn create_queue(&self) -> Queue {
        Queue {
            device: self.device.clone(),
            device_hash: self.device_hash,
            clock_s: self.clock_s.clone(),
            execute_host: true,
            fault_plan: None,
        }
    }

    /// Create a timing-only queue sharing this context's timeline.
    pub fn create_timing_queue(&self) -> Queue {
        Queue {
            execute_host: false,
            ..self.create_queue()
        }
    }

    /// The context's device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Current simulated time on the shared device clock.
    pub fn now_s(&self) -> f64 {
        read_clock(&self.clock_s)
    }
}

/// A cheap read-only handle on a queue's (or context's) simulated
/// clock. Cloning shares the underlying clock, so a fleet scheduler can
/// hold one handle per device and read in-flight simulated time without
/// holding the queues themselves.
#[derive(Clone)]
pub struct SimClock {
    clock_s: ClockCell,
}

impl SimClock {
    /// Current simulated time on the shared clock.
    pub fn now_s(&self) -> f64 {
        read_clock(&self.clock_s)
    }
}

/// An in-order queue bound to one device.
///
/// Cloning is shallow in the ways that matter: the clone shares the
/// original's device, simulated clock, and fault plan, so a cloned
/// queue's submissions serialise on the same timeline.
#[derive(Clone)]
pub struct Queue {
    device: Arc<DeviceSpec>,
    /// [`Context`]'s hash of the device name.
    device_hash: u64,
    clock_s: ClockCell,
    /// When false, kernel bodies are skipped and only timing is modelled
    /// (used for large benchmark sweeps where results are not consumed).
    execute_host: bool,
    /// Optional injected-fault schedule consulted at submit time.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Queue {
    /// Create a profiling queue on `device` that really executes kernel
    /// bodies on the host (with its own private timeline; use
    /// [`Context`] to share a timeline between queues).
    pub fn new(device: Arc<DeviceSpec>) -> Self {
        Context::new(device).create_queue()
    }

    /// A timing-only queue: kernels are priced by the model but their
    /// host bodies are not run. Benchmark sweeps over the full 640-config
    /// grid use this, exactly as a dry-run profiler would.
    pub fn timing_only(device: Arc<DeviceSpec>) -> Self {
        Queue {
            execute_host: false,
            ..Queue::new(device)
        }
    }

    /// Attach a fault plan: every subsequent submission is adjudicated
    /// by `plan` before it runs. An inert plan (all rates zero, no
    /// doomed kernels) leaves behaviour bit-identical to no plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// A clone of this queue with fault injection disabled — same
    /// device, same shared clock. The resilient executor's terminal
    /// fallback runs here, modelling a host-side safe path that device
    /// faults cannot reach.
    pub fn without_faults(&self) -> Queue {
        Queue {
            fault_plan: None,
            ..self.clone()
        }
    }

    /// The fault plan attached to this queue, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// The device this queue targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Advance this queue's simulated clock by `seconds` — how a
    /// resilient caller models backoff between retries without
    /// sleeping the host thread.
    pub fn wait(&self, seconds: f64) {
        if seconds > 0.0 {
            advance_clock(&self.clock_s, |now| now + seconds);
        }
    }

    /// Submit a kernel over `range`; returns its completion event.
    pub fn submit(&self, kernel: &dyn SimKernel, range: NDRange) -> Result<Event> {
        self.submit_after(kernel, range, &[])
    }

    /// Submit with explicit event dependencies: the launch starts no
    /// earlier than every dependency's completion.
    pub fn submit_after(
        &self,
        kernel: &dyn SimKernel,
        range: NDRange,
        deps: &[Event],
    ) -> Result<Event> {
        let launch = self.prepare(kernel, range)?;
        self.submit_prepared(&launch, kernel, deps)
    }

    /// The operand-independent half of a submission: profile `kernel`
    /// over `range`, reject it if the device cannot launch it, and
    /// compute its priced duration (the cost carries the occupancy) and
    /// name. No side effects: the clock does not move and an attached
    /// fault plan counts no submission, so a launch `validate_launch`
    /// rejects never reaches the plan.
    pub fn prepare(&self, kernel: &dyn SimKernel, range: NDRange) -> Result<PreparedLaunch> {
        let profile = kernel.profile(&self.device, &range);
        validate_launch(&self.device, &profile, &range)?;
        let (cost, duration_s) = self.price_unchecked(&profile, &range, kernel.noise_seed());
        Ok(PreparedLaunch {
            name: kernel.name(),
            range,
            cost,
            duration_s,
        })
    }

    /// The operand-dependent half of a submission: the fault plan
    /// adjudicates the launch, an executing queue runs `kernel`'s body,
    /// and the clock advances by the prepared duration.
    ///
    /// `launch` must come from [`Queue::prepare`] on this queue, and
    /// `kernel` supplies only the body: it must be the kernel `launch`
    /// was prepared from, or one that differs from it only in its
    /// operand buffers. Profile, price and name are taken from
    /// `launch` and never recomputed.
    pub fn submit_prepared(
        &self,
        launch: &PreparedLaunch,
        kernel: &dyn SimKernel,
        deps: &[Event],
    ) -> Result<Event> {
        if let Some(plan) = &self.fault_plan {
            if let Some((kind, consumed, submission)) =
                plan.decide(&launch.name, launch.cost.occupancy, &self.device)
            {
                // The failed launch still occupies the device: charge
                // the consumed time to the shared clock so retries and
                // fallbacks pay for the failure they recover from.
                let dep_end = deps.iter().map(|e| e.end_s).fold(0.0f64, f64::max);
                let start =
                    advance_clock(&self.clock_s, |now| now.max(dep_end) + consumed).max(dep_end);
                return Err(SimError::Fault(FaultError {
                    kind,
                    kernel: launch.name.to_string(),
                    submission,
                    at_s: start,
                    consumed_s: consumed,
                }));
            }
        }
        if self.execute_host {
            kernel.execute(&launch.range)?;
        }

        // `start` and `end` are the expressions the stored time was
        // computed from, so the event's timestamps equal the clock's
        // bit for bit.
        let dep_end = deps.iter().map(|e| e.end_s).fold(0.0f64, f64::max);
        let start =
            advance_clock(&self.clock_s, |now| now.max(dep_end) + launch.duration_s).max(dep_end);
        let end = start + launch.duration_s;
        Ok(Event {
            kernel_name: Arc::clone(&launch.name),
            start_s: start,
            end_s: end,
            cost: launch.cost,
            status: CompletionStatus::Complete,
        })
    }

    /// Price a launch without submitting it: the cost breakdown and the
    /// noised duration an actual submission of the same (profile, range,
    /// seed) would report. Large benchmark sweeps use this directly so
    /// they need not materialise operand buffers.
    ///
    /// Launches that `resources::check_launch` would refuse are rejected
    /// with the same [`SimError`] the submit path raises — a price for an
    /// unlaunchable kernel is fiction, not a benchmark.
    pub fn price(
        &self,
        profile: &KernelProfile,
        range: &NDRange,
        noise_seed: u64,
    ) -> Result<(KernelCost, f64)> {
        validate_launch(&self.device, profile, range)?;
        Ok(self.price_unchecked(profile, range, noise_seed))
    }

    /// Price without re-validating: [`Queue::prepare`] calls this after
    /// its own `validate_launch` so the check runs exactly once per
    /// launch.
    ///
    /// Public for counterfactual accounting only (e.g. "what would the
    /// un-pruned benchmark sweep have charged for this entry"): the
    /// returned duration for an unlaunchable (profile, range) is fiction
    /// the device would never actually execute. Use [`Queue::price`]
    /// everywhere a real launch is being modelled.
    pub fn price_unchecked(
        &self,
        profile: &KernelProfile,
        range: &NDRange,
        noise_seed: u64,
    ) -> (KernelCost, f64) {
        let cost = perf::estimate_cost(&self.device, profile, range);
        let seed = noise_seed
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(range.global_size() as u64)
            .wrapping_add((range.local()[0] as u64) << 32)
            .wrapping_add(self.device_hash);
        let noise = perf::deterministic_noise(seed, NOISE_AMPLITUDE);
        (cost, cost.total_s * noise)
    }

    /// Current simulated time on this queue.
    pub fn now_s(&self) -> f64 {
        read_clock(&self.clock_s)
    }

    /// A [`SimClock`] handle sharing this queue's timeline.
    pub fn clock(&self) -> SimClock {
        SimClock {
            clock_s: self.clock_s.clone(),
        }
    }
}

/// Tiny FNV-style hash for stable string → u64 mapping.
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A platform enumerating the available simulated devices, the analogue
/// of `sycl::platform`.
#[derive(Clone)]
pub struct Platform {
    devices: Vec<Arc<DeviceSpec>>,
}

impl Platform {
    /// The standard simulated platform: R9 Nano, a desktop GPU and an
    /// embedded accelerator.
    pub fn standard() -> Self {
        Platform {
            devices: vec![
                Arc::new(DeviceSpec::amd_r9_nano()),
                Arc::new(DeviceSpec::desktop_gpu()),
                Arc::new(DeviceSpec::embedded_accelerator()),
                Arc::new(DeviceSpec::host_cpu()),
            ],
        }
    }

    /// A platform exposing exactly the given devices.
    pub fn with_devices(devices: Vec<DeviceSpec>) -> Self {
        Platform {
            devices: devices.into_iter().map(Arc::new).collect(),
        }
    }

    /// All devices.
    pub fn devices(&self) -> &[Arc<DeviceSpec>] {
        &self.devices
    }

    /// First device of the requested type.
    pub fn device_by_type(&self, ty: crate::DeviceType) -> Result<Arc<DeviceSpec>> {
        self.devices
            .iter()
            .find(|d| d.device_type == ty)
            .cloned()
            .ok_or_else(|| SimError::NoSuchDevice(format!("{ty:?}")))
    }

    /// Device whose name contains `needle` (case-insensitive).
    pub fn device_by_name(&self, needle: &str) -> Result<Arc<DeviceSpec>> {
        let lower = needle.to_lowercase();
        self.devices
            .iter()
            .find(|d| d.name.to_lowercase().contains(&lower))
            .cloned()
            .ok_or_else(|| SimError::NoSuchDevice(needle.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceType;

    /// A toy kernel doubling a buffer, for runtime-semantics tests.
    struct DoubleKernel {
        buf: Buffer<f32>,
    }

    impl SimKernel for DoubleKernel {
        fn name(&self) -> Arc<str> {
            "double".into()
        }
        fn profile(&self, _device: &DeviceSpec, _range: &NDRange) -> KernelProfile {
            KernelProfile {
                flops_per_item: 1.0,
                bytes_per_item: 8.0,
                cache_reuse: 0.0,
                registers_per_item: 8,
                lds_bytes_per_group: 0,
                coalescing: 1.0,
                useful_items: self.buf.len() as f64,
                ilp: 1.0,
            }
        }
        fn execute(&self, range: &NDRange) -> Result<()> {
            let mut data = self.buf.write();
            let n = data.len();
            for i in 0..range.global_size().min(n) {
                data[i] *= 2.0;
            }
            Ok(())
        }
    }

    #[test]
    fn ndrange_validation() {
        assert!(NDRange::new([64, 64], [8, 8]).is_ok());
        assert!(NDRange::new([65, 64], [8, 8]).is_err());
        assert!(NDRange::new([0, 64], [8, 8]).is_err());
        assert!(NDRange::new([64, 64], [0, 8]).is_err());
    }

    #[test]
    fn ndrange_padding() {
        let r = NDRange::padded([100, 3], [64, 1]).unwrap();
        assert_eq!(r.global(), [128, 3]);
        assert_eq!(r.n_groups(), 2 * 3);
        // Degenerate useful sizes still produce a valid launch.
        let r = NDRange::padded([0, 0], [8, 8]).unwrap();
        assert_eq!(r.global(), [8, 8]);
    }

    #[test]
    fn queue_executes_kernel_bodies() {
        let platform = Platform::standard();
        let dev = platform.device_by_type(DeviceType::Gpu).unwrap();
        let queue = Queue::new(dev);
        let buf = Buffer::from_vec(vec![1.0f32; 64]);
        let k = DoubleKernel { buf: buf.clone() };
        let ev = queue
            .submit(&k, NDRange::new([64, 1], [64, 1]).unwrap())
            .unwrap();
        assert!(ev.duration_s() > 0.0);
        assert!(buf.to_vec().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn timing_only_queue_skips_execution() {
        let platform = Platform::standard();
        let dev = platform.device_by_type(DeviceType::Gpu).unwrap();
        let queue = Queue::timing_only(dev);
        let buf = Buffer::from_vec(vec![1.0f32; 64]);
        let k = DoubleKernel { buf: buf.clone() };
        let ev = queue
            .submit(&k, NDRange::new([64, 1], [64, 1]).unwrap())
            .unwrap();
        assert!(ev.duration_s() > 0.0);
        assert!(buf.to_vec().iter().all(|&v| v == 1.0), "body must not run");
    }

    #[test]
    fn in_order_clock_advances_monotonically() {
        let platform = Platform::standard();
        let dev = platform.device_by_type(DeviceType::Gpu).unwrap();
        let queue = Queue::timing_only(dev);
        let buf = Buffer::from_vec(vec![0.0f32; 64]);
        let k = DoubleKernel { buf };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let e1 = queue.submit(&k, r).unwrap();
        let e2 = queue.submit(&k, r).unwrap();
        assert!(e2.start_s() >= e1.end_s());
        assert!((queue.now_s() - e2.end_s()).abs() < 1e-15);
    }

    #[test]
    fn dependencies_delay_start() {
        let platform = Platform::standard();
        let gpu = platform.device_by_type(DeviceType::Gpu).unwrap();
        let q1 = Queue::timing_only(gpu.clone());
        let q2 = Queue::timing_only(gpu);
        let buf = Buffer::from_vec(vec![0.0f32; 1024 * 1024]);
        let k = DoubleKernel { buf };
        let big = NDRange::new([1024, 1024], [16, 16]).unwrap();
        let dep = q1.submit(&k, big).unwrap();
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let e = q2.submit_after(&k, r, std::slice::from_ref(&dep)).unwrap();
        assert!(e.start_s() >= dep.end_s());
    }

    #[test]
    fn launch_rejected_when_group_too_large() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap(); // max group 256
        let queue = Queue::timing_only(dev);
        let buf = Buffer::from_vec(vec![0.0f32; 4]);
        let k = DoubleKernel { buf };
        let r = NDRange::new([512, 1], [512, 1]).unwrap();
        match queue.submit(&k, r) {
            Err(SimError::Exhausted(e)) => {
                assert_eq!(e.resource, crate::ResourceKind::WorkGroupSize);
                assert_eq!(e.requested, 512);
                assert_eq!(e.limit, 256);
            }
            other => panic!("expected resource exhaustion, got {other:?}"),
        }
    }

    /// A kernel claiming more LDS per group than any device offers.
    struct LdsHogKernel;

    impl SimKernel for LdsHogKernel {
        fn name(&self) -> Arc<str> {
            "lds_hog".into()
        }
        fn profile(&self, _device: &DeviceSpec, _range: &NDRange) -> KernelProfile {
            KernelProfile {
                flops_per_item: 1.0,
                bytes_per_item: 4.0,
                cache_reuse: 0.0,
                registers_per_item: 8,
                lds_bytes_per_group: 1 << 30,
                coalescing: 1.0,
                useful_items: 64.0,
                ilp: 1.0,
            }
        }
        fn execute(&self, _range: &NDRange) -> Result<()> {
            Ok(())
        }
    }

    #[test]
    fn launch_rejected_when_lds_exceeds_device() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let queue = Queue::timing_only(dev);
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        match queue.submit(&LdsHogKernel, r) {
            Err(SimError::Exhausted(e)) => assert_eq!(e.resource, crate::ResourceKind::Lds),
            other => panic!("expected LDS exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_injects_and_charges_the_clock() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let plan = Arc::new(FaultPlan::new(3).doom_kernels_matching("double"));
        let queue = Queue::timing_only(dev).with_fault_plan(plan);
        let buf = Buffer::from_vec(vec![0.0f32; 64]);
        let k = DoubleKernel { buf };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let before = queue.now_s();
        match queue.submit(&k, r) {
            Err(SimError::Fault(f)) => {
                assert_eq!(f.kind, FaultKind::ResourceStarvation);
                assert!(f.consumed_s > 0.0);
                assert!((queue.now_s() - (before + f.consumed_s)).abs() < 1e-15);
            }
            other => panic!("expected injected fault, got {other:?}"),
        }
        // The safe clone shares the clock but not the plan.
        let safe = queue.without_faults();
        assert!(safe.fault_plan().is_none());
        assert!(safe.submit(&k, r).is_ok());
        assert!((safe.now_s() - queue.now_s()).abs() < 1e-15, "shared clock");
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_no_plan() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let plain = Queue::timing_only(dev.clone());
        let guarded = Queue::timing_only(dev).with_fault_plan(Arc::new(FaultPlan::none()));
        let buf = Buffer::from_vec(vec![0.0f32; 64]);
        let k = DoubleKernel { buf };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        for _ in 0..10 {
            let a = plain.submit(&k, r).unwrap();
            let b = guarded.submit(&k, r).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn prepare_has_no_side_effects() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let plan = Arc::new(FaultPlan::new(5).with_transient_rate(0.5));
        let queue = Queue::timing_only(dev).with_fault_plan(plan.clone());
        let k = DoubleKernel {
            buf: Buffer::from_vec(vec![0.0f32; 64]),
        };
        queue
            .prepare(&k, NDRange::new([64, 1], [64, 1]).unwrap())
            .unwrap();
        assert_eq!(queue.now_s(), 0.0, "preparing must not move the clock");
        assert_eq!(
            plan.submissions(),
            0,
            "preparing must not count a submission"
        );
        // A launch validation rejects never reaches the fault plan.
        let too_big = NDRange::new([512, 1], [512, 1]).unwrap();
        assert!(matches!(
            queue.submit(&k, too_big),
            Err(SimError::Exhausted(_))
        ));
        assert_eq!(plan.submissions(), 0);
    }

    #[test]
    fn one_prepared_launch_serves_many_operand_sets() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let plan = || Arc::new(FaultPlan::new(11).with_transient_rate(0.4));
        let plain = Queue::new(dev.clone()).with_fault_plan(plan());
        let prepared = Queue::new(dev).with_fault_plan(plan());
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let first = DoubleKernel {
            buf: Buffer::from_vec(vec![1.0f32; 64]),
        };
        let launch = prepared.prepare(&first, r).unwrap();
        for i in 0..12 {
            let fill = i as f32;
            let a = DoubleKernel {
                buf: Buffer::from_vec(vec![fill; 64]),
            };
            let b = DoubleKernel {
                buf: Buffer::from_vec(vec![fill; 64]),
            };
            let want = plain.submit(&a, r);
            let got = prepared.submit_prepared(&launch, &b, &[]);
            assert_eq!(want, got, "submission {i}");
            assert_eq!(
                a.buf.to_vec(),
                b.buf.to_vec(),
                "body ran on its own operands"
            );
        }
        assert_eq!(plain.now_s().to_bits(), prepared.now_s().to_bits());
    }

    #[test]
    fn clock_handles_share_the_queue_timeline() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let queue = Queue::timing_only(dev.clone());
        let handles = [queue.clock(), queue.without_faults().clock()];
        assert_eq!(handles[0].now_s(), 0.0);
        queue.wait(2.5e-3);
        let other = Queue::timing_only(dev);
        other.wait(7.0e-3);
        for handle in &handles {
            assert!((handle.now_s() - 2.5e-3).abs() < 1e-15);
        }
        assert!((other.clock().now_s() - 7.0e-3).abs() < 1e-15);
    }

    #[test]
    fn queue_wait_advances_the_clock() {
        let platform = Platform::standard();
        let dev = platform.device_by_name("nano").unwrap();
        let queue = Queue::timing_only(dev);
        let t0 = queue.now_s();
        queue.wait(1.5e-3);
        assert!((queue.now_s() - (t0 + 1.5e-3)).abs() < 1e-15);
        queue.wait(-1.0); // negative waits are ignored
        assert!((queue.now_s() - (t0 + 1.5e-3)).abs() < 1e-15);
    }

    #[test]
    fn failed_event_reports_status() {
        let ev = Event::failed("k".into(), 1.0, 1.5, FaultKind::DeviceLost);
        assert!(ev.is_failed());
        assert_eq!(ev.status(), CompletionStatus::Failed(FaultKind::DeviceLost));
        assert_eq!(ev.status().label(), "failed");
        assert!((ev.duration_s() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn buffers_are_shared_on_clone() {
        let a = Buffer::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        b.write()[0] = 9;
        assert_eq!(a.to_vec(), vec![9, 2, 3]);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn platform_lookup() {
        let p = Platform::standard();
        assert_eq!(p.devices().len(), 4);
        assert!(p.device_by_type(DeviceType::Accelerator).is_ok());
        assert!(p.device_by_name("NANO").is_ok());
        assert!(p.device_by_name("does-not-exist").is_err());
        let only_cpu = Platform::with_devices(vec![DeviceSpec::host_cpu()]);
        assert!(only_cpu.device_by_type(DeviceType::Gpu).is_err());
    }

    #[test]
    fn identical_submissions_have_identical_durations() {
        let platform = Platform::standard();
        let dev = platform.device_by_type(DeviceType::Gpu).unwrap();
        let q = Queue::timing_only(dev);
        let buf = Buffer::from_vec(vec![0.0f32; 64]);
        let k = DoubleKernel { buf };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let e1 = q.submit(&k, r).unwrap();
        let e2 = q.submit(&k, r).unwrap();
        assert!((e1.duration_s() - e2.duration_s()).abs() < 1e-18);
    }
}
