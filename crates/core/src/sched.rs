//! Multi-device sharded serving: one scheduler, N per-device stacks.
//!
//! A single [`ResilientExecutor`] serves one queue; real deployments
//! run the same model zoo across a heterogeneous fleet. This module
//! adds the front door: a [`ShardedScheduler`] that accepts a stream of
//! GEMM requests and shards selection + launch traffic across any
//! number of [`DeviceShard`]s, each a full `CachedSelector` →
//! `OnlineSelector` → `ResilientExecutor` stack on its own simulated
//! device (built with [`crate::TuningPipeline::device_executor`] /
//! [`crate::TuningPipeline::device_adaptive_executor`]).
//!
//! The scheduler's mechanics, in the order a request experiences them:
//!
//! 1. **Batching** — same-shape requests are coalesced into one batch
//!    (up to [`SchedConfig::batch_window`]). A batch routes once and
//!    is served by one [`ResilientExecutor::launch_batch`] call, which
//!    decides once and prepares the primary kernel's launch once, so
//!    selection and pricing are amortised over the whole batch.
//! 2. **Routing** — a pluggable [`RoutingPolicy`]: round-robin,
//!    least-loaded by in-flight simulated time (device clock plus the
//!    wave's planned backlog), or perf-aware, which additionally
//!    discounts each device by its shipped-set fitness from the static
//!    [`KernelSpaceAnalyzer`](autokernel_analyze::KernelSpaceAnalyzer)
//!    — a device whose shipped configurations mostly cannot launch is
//!    priced slower and routed less. Peak throughput is only the
//!    cold-start prior: once a device has served work, planning uses
//!    its measured effective rate (completed FLOPs over elapsed device
//!    time), which folds in the kernel inefficiencies and fallback
//!    slowness no static model sees.
//! 3. **Bounded queues + backpressure + stealing** — each device
//!    accepts at most [`SchedConfig::queue_capacity`] batches per wave.
//!    When the policy's choice is full, the batch is *stolen* by the
//!    device with the most free capacity; when every queue is full, the
//!    remainder of the stream waits for the next wave (backpressure).
//! 4. **Failure drain** — a shard turns unhealthy when its fallback
//!    chain is fully quarantined (every ranked config's breaker open)
//!    or when it melts down mid-wave
//!    ([`SchedConfig::meltdown_threshold`] consecutive reference-GEMM
//!    degradations). Its unexecuted batches are *rebalanced* to the
//!    survivors on the next wave. The last live shard is never
//!    drained, and the resilient executor's terminal reference rung
//!    cannot fail, so the scheduler drops nothing: every request
//!    completes.
//!
//! Execution: every wave runs on the calling thread (the ingress
//! dispatcher, when serving behind [`crate::Ingress`]), one shard after
//! another in shard order, each draining its queue in batch order. The
//! kernels themselves are already parallel inside, and wave planning
//! fixes routing and simulated time before any launch, so a host
//! thread per shard could buy only host wall time, and spawning it cost
//! more than it saved.
//!
//! Determinism: waves are planned from device clocks that only move
//! between waves, and each device's launch sequence is a pure function
//! of the batches it was handed. Routing, telemetry and the simulated
//! makespan therefore depend only on the request stream, the seed and
//! the shard configuration, which `tests/sharded_scheduler.rs` pins
//! with a property test replaying random streams on fresh fleets.

use crate::online::OnlineSelector;
use crate::resilient::{LaunchReport, ResilientExecutor};
use crate::{CoreError, Result};
use autokernel_analyze::SpaceAnalysis;
use autokernel_gemm::GemmShape;
use autokernel_sycl_sim::trace::TraceRecorder;
use autokernel_sycl_sim::{Buffer, Event, LaunchDecision, SimClock};
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;

/// How the scheduler picks a device for each batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Rotate over the live shards in index order (the seed offsets the
    /// starting point). Ignores load and device speed.
    RoundRobin,
    /// Send the batch to the shard with the least in-flight simulated
    /// time: its device clock plus the backlog already planned onto it
    /// this wave, plus the batch's estimated cost at the device's peak
    /// throughput.
    LeastLoaded,
    /// [`RoutingPolicy::LeastLoaded`], with each device's throughput
    /// discounted by its shipped-set fitness ([`DeviceShard::fitness`])
    /// — static analysis steering traffic away from devices that would
    /// serve it on fallback rungs.
    PerfAware,
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Device-picking policy.
    pub policy: RoutingPolicy,
    /// Maximum batches a device accepts per wave (≥ 1). Smaller values
    /// mean earlier stealing and more backpressure waves.
    pub queue_capacity: usize,
    /// Maximum same-shape requests coalesced into one batch (≥ 1).
    pub batch_window: usize,
    /// Seed offsetting the round-robin cursor, so distinct schedulers
    /// spread load differently but each replays deterministically.
    pub seed: u64,
    /// Ignored: every wave runs on the calling thread (see the module
    /// docs). Kept only so existing struct literals still compile; it
    /// will be removed.
    #[deprecated(note = "ignored: every wave runs on the calling thread")]
    pub parallel: bool,
    /// Consecutive reference-GEMM degradations that mark a device
    /// melted down mid-wave (≥ 1).
    pub meltdown_threshold: u32,
}

impl Default for SchedConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        SchedConfig {
            policy: RoutingPolicy::LeastLoaded,
            queue_capacity: 4,
            batch_window: 8,
            seed: 0,
            parallel: false,
            meltdown_threshold: 3,
        }
    }
}

/// One GEMM serving request: a shape plus its operand buffers
/// (`C = A · B`). Buffers clone shallowly, SYCL-style.
#[derive(Clone)]
pub struct GemmRequest {
    /// The problem shape.
    pub shape: GemmShape,
    /// Left operand, `m × k`.
    pub a: Buffer<f32>,
    /// Right operand, `k × n`.
    pub b: Buffer<f32>,
    /// Output, `m × n`.
    pub c: Buffer<f32>,
    /// Scheduling class (priority tier / tenant class). Requests only
    /// coalesce into a shared batch when shape *and* class agree, so a
    /// low-priority request can never ride a high-priority batch's
    /// admission decision. 0 by default.
    pub class: u16,
}

impl GemmRequest {
    /// A request carrying existing operands (class 0).
    pub fn new(shape: GemmShape, a: Buffer<f32>, b: Buffer<f32>, c: Buffer<f32>) -> Self {
        GemmRequest {
            shape,
            a,
            b,
            c,
            class: 0,
        }
    }

    /// A request with freshly allocated zero operands — the convenient
    /// form for timing-only serving, where kernel bodies never run.
    pub fn zeroed(shape: GemmShape) -> Self {
        GemmRequest {
            shape,
            a: Buffer::new_filled(shape.m * shape.k, 0.0),
            b: Buffer::new_filled(shape.k * shape.n, 0.0),
            c: Buffer::new_filled(shape.m * shape.n, 0.0),
            class: 0,
        }
    }

    /// The same request in a different scheduling class.
    pub fn with_class(mut self, class: u16) -> Self {
        self.class = class;
        self
    }
}

/// One device's serving stack inside the fleet.
pub struct DeviceShard {
    label: String,
    executor: ResilientExecutor,
    online: Option<Arc<OnlineSelector>>,
    /// Shipped-set fitness on this device in `[0, 1]`, consumed by
    /// [`RoutingPolicy::PerfAware`]. Defaults to 1 (no discount).
    fitness: f64,
    clock: SimClock,
    peak_flops: f64,
    launch_overhead_s: f64,
}

impl DeviceShard {
    /// Wrap an executor as a fleet shard. The shard reads its device
    /// model (peak throughput, launch overhead, clock) from the
    /// executor's queue.
    pub fn new(label: impl Into<String>, executor: ResilientExecutor) -> Self {
        let device = executor.queue().device();
        let peak_flops = device.peak_flops.max(1.0);
        let launch_overhead_s = device.launch_overhead.max(0.0);
        let clock = executor.queue().clock();
        let online = executor.online().cloned();
        DeviceShard {
            label: label.into(),
            executor,
            online,
            fitness: 1.0,
            clock,
            peak_flops,
            launch_overhead_s,
        }
    }

    /// Override the shipped-set fitness (clamped to `[0, 1]`).
    pub fn with_fitness(mut self, fitness: f64) -> Self {
        self.fitness = fitness.clamp(0.0, 1.0);
        self
    }

    /// Derive the fitness from a static analysis of this shard's device
    /// and the deployed shipped set — the
    /// [`SpaceAnalysis::shipped_fitness`] score the perf-aware policy
    /// was designed around.
    pub fn with_shipped_analysis(self, analysis: &SpaceAnalysis, shipped: &[usize]) -> Self {
        let fitness = analysis.shipped_fitness(shipped);
        self.with_fitness(fitness)
    }

    /// The shard's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The wrapped resilient executor.
    pub fn executor(&self) -> &ResilientExecutor {
        &self.executor
    }

    /// The shipped-set fitness the perf-aware policy reads.
    pub fn fitness(&self) -> f64 {
        self.fitness
    }

    /// A handle on this device's simulated clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }
}

/// Fleet-level serving counters. Copy-snapshot semantics: read the
/// scheduler's [`ShardedScheduler::telemetry`] after a `serve` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedTelemetry {
    /// Batches assigned to a device by the routing policy.
    pub routed: u64,
    /// Requests coalesced into an already-open batch (the selector
    /// decisions the batching layer saved).
    pub batched: u64,
    /// Batches redirected because the policy's choice had no queue
    /// capacity left this wave.
    pub stolen: u64,
    /// Requests re-routed to surviving devices after their shard was
    /// drained mid-stream.
    pub rebalanced: u64,
    /// Requests completed across the fleet.
    pub served: u64,
    /// Scheduling waves executed.
    pub waves: u64,
}

/// One routing decision, for reporting and determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The batch's shape.
    pub shape: GemmShape,
    /// The batch's scheduling class.
    pub class: u16,
    /// Requests in the batch.
    pub requests: usize,
    /// Index of the shard that received it.
    pub device: usize,
    /// Whether the batch landed somewhere other than the policy's
    /// first choice (a steal).
    pub stolen: bool,
}

/// Per-device outcome of a `serve` call.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// The shard's label.
    pub label: String,
    /// Requests this device completed.
    pub served: u64,
    /// Batches this device executed.
    pub batches: u64,
    /// Launches that degraded all the way to the reference GEMM.
    pub reference_fallbacks: u64,
    /// Whether the shard was still live when the stream drained.
    pub healthy: bool,
    /// Simulated time this device's clock advanced during the call.
    pub busy_s: f64,
}

/// The outcome of serving one request stream.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Requests completed (always the full stream).
    pub served: usize,
    /// Requests lost (zero by construction: the reference rung cannot
    /// fail and drained queues are re-routed, never discarded).
    pub dropped: usize,
    /// Scheduling waves the stream needed.
    pub waves: usize,
    /// Fleet makespan: the largest simulated-time advance any device
    /// clock saw during the call.
    pub makespan_s: f64,
    /// Whether the whole fleet melted down at some point during the
    /// call and traffic was degraded onto a revived shard's
    /// reference-kernel path. The stream still completes (zero drops);
    /// this flag is the typed signal that it did so in degraded mode.
    pub fleet_degraded: bool,
    /// Every routing decision, in planning order.
    pub assignments: Vec<Assignment>,
    /// Per-device outcomes, in shard order.
    pub devices: Vec<DeviceReport>,
}

impl SchedReport {
    /// Served requests per simulated second — the fleet throughput the
    /// acceptance example compares against a single device.
    pub fn throughput(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.served as f64 / self.makespan_s
        } else {
            0.0
        }
    }
}

/// A same-shape, same-class run of requests, the unit of routing.
#[derive(Debug, Clone)]
struct Batch {
    shape: GemmShape,
    class: u16,
    requests: Vec<usize>,
}

/// What one device's queue drain hands back after a wave.
struct WaveOutcome {
    served: u64,
    batches_done: u64,
    flops_done: f64,
    reference_fallbacks: u64,
    melted: bool,
    /// Batches the device abandoned after melting down.
    leftovers: Vec<Batch>,
    /// Trace items in launch order: absorbed-failure events, then the
    /// completing event with its decision.
    trace: Vec<(Event, Option<LaunchDecision>)>,
}

impl WaveOutcome {
    fn empty() -> Self {
        WaveOutcome {
            served: 0,
            batches_done: 0,
            flops_done: 0.0,
            reference_fallbacks: 0,
            melted: false,
            leftovers: Vec::new(),
            trace: Vec::new(),
        }
    }
}

struct ShardState {
    shard: DeviceShard,
    alive: bool,
    served: u64,
    batches: u64,
    reference_fallbacks: u64,
    /// Simulated cost planned onto this device in the current wave.
    planned_s: f64,
    /// FLOPs this device has completed under the scheduler, and its
    /// clock reading when it joined: together they give the *measured*
    /// effective throughput the planner prefers over the static peak
    /// once the device has history.
    flops_done: f64,
    clock_origin: f64,
    /// Monotonic stamp of the moment this shard was last condemned
    /// (0 = never): the all-dead revive picks the *most recently*
    /// condemned shard, deterministically.
    condemned_seq: u64,
}

/// The fleet front door: shards a request stream across device stacks.
///
/// See the module docs for the full mechanics. `serve` may be called
/// repeatedly; breaker, bandit, cache and health state persist between
/// calls, exactly like a long-running serving process.
pub struct ShardedScheduler {
    shards: Vec<ShardState>,
    config: SchedConfig,
    telemetry: SchedTelemetry,
    rr_cursor: usize,
    /// Source of `ShardState::condemned_seq` stamps.
    condemn_counter: u64,
}

impl ShardedScheduler {
    /// Build a scheduler over at least one shard.
    pub fn new(shards: Vec<DeviceShard>, config: SchedConfig) -> Result<Self> {
        if shards.is_empty() {
            return Err(CoreError::EmptyFleet);
        }
        let rr_cursor = (config.seed % shards.len().max(1) as u64) as usize;
        Ok(ShardedScheduler {
            shards: shards
                .into_iter()
                .map(|shard| {
                    let clock_origin = shard.clock.now_s();
                    ShardState {
                        shard,
                        alive: true,
                        served: 0,
                        batches: 0,
                        reference_fallbacks: 0,
                        planned_s: 0.0,
                        flops_done: 0.0,
                        clock_origin,
                        condemned_seq: 0,
                    }
                })
                .collect(),
            config,
            telemetry: SchedTelemetry::default(),
            rr_cursor,
            condemn_counter: 0,
        })
    }

    /// The configured policy and knobs.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Fleet counters accumulated over every `serve` call so far.
    pub fn telemetry(&self) -> SchedTelemetry {
        self.telemetry
    }

    /// Shard labels in index order.
    pub fn labels(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.shard.label.clone()).collect()
    }

    /// Whether the shard at `index` is still receiving traffic.
    pub fn is_healthy(&self, index: usize) -> bool {
        self.shards.get(index).is_some_and(|s| s.alive)
    }

    /// The shard at `index`, if any.
    pub fn shard(&self, index: usize) -> Option<&DeviceShard> {
        self.shards.get(index).map(|s| &s.shard)
    }

    /// Export every shard's durable state — measured cost model,
    /// health, condemnation stamp, and the nested
    /// online/cache/telemetry blocks — for `core::persist` snapshots.
    pub fn export_state(&self) -> crate::persist::FleetState {
        let shards = self
            .shards
            .iter()
            .map(|state| {
                let serving = state.shard.executor.selector();
                crate::persist::FleetShardState {
                    label: state.shard.label.clone(),
                    device_crc: crate::persist::device_fingerprint(
                        state.shard.executor.queue().device(),
                    ),
                    alive: state.alive,
                    served: state.served,
                    batches: state.batches,
                    reference_fallbacks: state.reference_fallbacks,
                    flops_done: state.flops_done,
                    elapsed_s: (state.shard.clock.now_s() - state.clock_origin).max(0.0),
                    condemned_seq: state.condemned_seq,
                    online: state.shard.online.as_ref().map(|o| o.export_state()),
                    cache: serving.cache().export_state(),
                    telemetry: serving.telemetry().export_state(),
                }
            })
            .collect();
        crate::persist::FleetState {
            condemn_counter: self.condemn_counter,
            shards,
        }
    }

    /// Apply a fleet snapshot to this scheduler. Shards match by label;
    /// every piece validates independently and a failure drops only
    /// that piece, returning its `fleet.<label>.<piece>` name. A
    /// snapshot shard whose device fingerprint differs from the live
    /// shard's is skipped wholesale (its learned state describes other
    /// silicon). Cost-model restore rewinds `clock_origin` so the
    /// measured throughput — completed FLOPs over elapsed device time —
    /// survives the restart instead of resetting to the static peak.
    /// If a restore would leave the whole fleet condemned, the most
    /// recently condemned shard is revived (the same never-drain-all
    /// invariant `serve` maintains) and `fleet.liveness` is reported.
    pub fn restore_state(&mut self, state: &crate::persist::FleetState) -> Vec<String> {
        let mut dropped = Vec::new();
        for saved in &state.shards {
            let Some(live) = self
                .shards
                .iter_mut()
                .find(|s| s.shard.label == saved.label)
            else {
                dropped.push(format!("fleet.{}", saved.label));
                continue;
            };
            let live_crc = crate::persist::device_fingerprint(live.shard.executor.queue().device());
            if live_crc != saved.device_crc {
                dropped.push(format!("fleet.{}.device", saved.label));
                continue;
            }
            if saved.flops_done.is_finite()
                && saved.flops_done >= 0.0
                && saved.elapsed_s.is_finite()
                && saved.elapsed_s >= 0.0
            {
                live.flops_done = saved.flops_done;
                live.clock_origin = live.shard.clock.now_s() - saved.elapsed_s;
            } else {
                dropped.push(format!("fleet.{}.cost-model", saved.label));
            }
            live.alive = saved.alive;
            live.served = saved.served;
            live.batches = saved.batches;
            live.reference_fallbacks = saved.reference_fallbacks;
            live.condemned_seq = saved.condemned_seq;
            match (&live.shard.online, &saved.online) {
                (Some(online), Some(saved_online))
                    if online.restore_state(saved_online).is_err() =>
                {
                    dropped.push(format!("fleet.{}.online", saved.label));
                }
                (Some(_), None) => dropped.push(format!("fleet.{}.online", saved.label)),
                _ => {}
            }
            let serving = live.shard.executor.selector();
            match serving
                .cache()
                .restore_state(&saved.cache, serving.selector().configs())
            {
                Ok(stats) if stats.entries_skipped == 0 && stats.bloom_restored => {}
                _ => dropped.push(format!("fleet.{}.cache", saved.label)),
            }
            if serving.telemetry().restore_state(&saved.telemetry).is_err() {
                dropped.push(format!("fleet.{}.telemetry", saved.label));
            }
        }
        self.condemn_counter = self.condemn_counter.max(state.condemn_counter);
        if self.shards.iter().all(|s| !s.alive) {
            if let Some(revived) = self.shards.iter_mut().max_by_key(|s| s.condemned_seq) {
                revived.alive = true;
            }
            dropped.push("fleet.liveness".to_string());
        }
        dropped
    }

    /// Serve a request stream to completion.
    pub fn serve(&mut self, requests: &[GemmRequest]) -> Result<SchedReport> {
        self.serve_inner(requests, None)
    }

    /// Serve a request stream, rendering every launch (including
    /// absorbed failures) into `trace` with the owning device's label
    /// and a device-tagged [`LaunchDecision`].
    pub fn serve_traced(
        &mut self,
        requests: &[GemmRequest],
        trace: &mut TraceRecorder,
    ) -> Result<SchedReport> {
        self.serve_inner(requests, Some(trace))
    }

    fn serve_inner(
        &mut self,
        requests: &[GemmRequest],
        mut trace: Option<&mut TraceRecorder>,
    ) -> Result<SchedReport> {
        // Per-call baselines: shard counters are cumulative across
        // `serve` calls, but each report covers only its own stream.
        let starts: Vec<(f64, u64, u64, u64)> = self
            .shards
            .iter()
            .map(|s| {
                (
                    s.shard.clock.now_s(),
                    s.served,
                    s.batches,
                    s.reference_fallbacks,
                )
            })
            .collect();
        let collect_trace = trace.is_some();
        let mut pending = self.coalesce(requests);
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut waves = 0usize;
        let mut served = 0usize;
        let mut fleet_degraded = false;

        while !pending.is_empty() {
            waves += 1;
            self.telemetry.waves += 1;

            // Defensive anti-spin guard: the revive invariant below
            // keeps at least one shard alive across waves, so a fully
            // dead fleet here is a logic error — surface it typed
            // instead of looping over empty waves forever.
            if self.shards.iter().all(|s| !s.alive) {
                return Err(CoreError::FleetMeltdown {
                    degraded: pending.iter().map(|b| b.requests.len()).sum(),
                });
            }

            // Plan phase: route batches onto bounded per-device queues.
            // Device clocks are quiescent here, so the plan is a pure
            // function of stream, seed and state.
            let mut wave_queues: Vec<Vec<Batch>> = self.shards.iter().map(|_| Vec::new()).collect();
            for state in &mut self.shards {
                state.planned_s = 0.0;
            }
            while let Some(batch) = pending.pop_front() {
                let Some((device, stolen)) = self.route(&batch, &wave_queues) else {
                    // Every live queue is full: backpressure. The rest
                    // of the stream waits for the next wave.
                    pending.push_front(batch);
                    break;
                };
                let cost = self.planned_cost(device, &batch);
                if let Some(state) = self.shards.get_mut(device) {
                    state.planned_s += cost;
                }
                assignments.push(Assignment {
                    shape: batch.shape,
                    class: batch.class,
                    requests: batch.requests.len(),
                    device,
                    stolen,
                });
                self.telemetry.routed += 1;
                if stolen {
                    self.telemetry.stolen += 1;
                }
                if let Some(queue) = wave_queues.get_mut(device) {
                    queue.push(batch);
                }
            }

            // Execute phase: each device drains its own queue in order,
            // on this thread.
            let outcomes = self.execute_wave(requests, &wave_queues, collect_trace)?;

            // Merge phase (shard order): counters, traces, health
            // transitions, rebalancing.
            let mut rebalanced: Vec<Batch> = Vec::new();
            for (index, (state, outcome)) in self.shards.iter_mut().zip(outcomes).enumerate() {
                state.served += outcome.served;
                state.batches += outcome.batches_done;
                state.flops_done += outcome.flops_done;
                state.reference_fallbacks += outcome.reference_fallbacks;
                served += outcome.served as usize;
                self.telemetry.served += outcome.served;
                if let Some(trace) = trace.as_deref_mut() {
                    for (event, decision) in outcome.trace {
                        match decision {
                            Some(d) => trace.record_with_decision(
                                state.shard.label.as_str(),
                                event,
                                d.with_device(index.min(u16::MAX as usize) as u16),
                            ),
                            None => trace.record(state.shard.label.as_str(), event),
                        }
                    }
                }
                if outcome.melted {
                    state.alive = false;
                    self.condemn_counter += 1;
                    state.condemned_seq = self.condemn_counter;
                }
                if !outcome.leftovers.is_empty() {
                    let moved: u64 = outcome
                        .leftovers
                        .iter()
                        .map(|b| b.requests.len() as u64)
                        .sum();
                    self.telemetry.rebalanced += moved;
                    rebalanced.extend(outcome.leftovers);
                }
            }

            // Post-wave health: a shard whose entire fallback chain is
            // quarantined stops receiving traffic.
            for state in &mut self.shards {
                if !state.alive {
                    continue;
                }
                let ranking = state.shard.executor.ranking();
                if !ranking.is_empty() && state.shard.executor.quarantined().len() >= ranking.len()
                {
                    state.alive = false;
                    self.condemn_counter += 1;
                    state.condemned_seq = self.condemn_counter;
                }
            }
            // Never drain the whole fleet: if nobody survived, the most
            // recently condemned shard (highest condemnation stamp —
            // deterministic, since condemnations happen in shard order
            // on the merge path) is revived and the stream
            // degrades onto its reference-kernel rung, which cannot
            // fail. The report carries `fleet_degraded` as the typed
            // signal.
            if self.shards.iter().all(|s| !s.alive) {
                fleet_degraded = true;
                if let Some(state) = self.shards.iter_mut().max_by_key(|s| s.condemned_seq) {
                    state.alive = true;
                }
            }

            // Re-routed batches go to the head of the stream so drained
            // work is recovered before new work is admitted.
            for batch in rebalanced.into_iter().rev() {
                pending.push_front(batch);
            }
        }

        let devices = self
            .shards
            .iter()
            .zip(&starts)
            .map(
                |(state, &(start_s, served0, batches0, refs0))| DeviceReport {
                    label: state.shard.label.clone(),
                    served: state.served - served0,
                    batches: state.batches - batches0,
                    reference_fallbacks: state.reference_fallbacks - refs0,
                    healthy: state.alive,
                    busy_s: (state.shard.clock.now_s() - start_s).max(0.0),
                },
            )
            .collect::<Vec<_>>();
        let makespan_s = devices.iter().map(|d| d.busy_s).fold(0.0f64, f64::max);
        Ok(SchedReport {
            served,
            dropped: requests.len().saturating_sub(served),
            waves,
            makespan_s,
            fleet_degraded,
            assignments,
            devices,
        })
    }

    /// Coalesce the stream into same-shape, same-class batches,
    /// preserving first-arrival order and capping each batch at
    /// `batch_window`. Class is part of the key on purpose: a batch
    /// routes and is admitted as a unit, and a low-priority request
    /// must not inherit the admission a high-priority sibling earned.
    fn coalesce(&mut self, requests: &[GemmRequest]) -> VecDeque<Batch> {
        let window = self.config.batch_window.max(1);
        let mut order: Vec<Batch> = Vec::new();
        let mut open: HashMap<(GemmShape, u16), usize> = HashMap::new();
        for (index, request) in requests.iter().enumerate() {
            let key = (request.shape, request.class);
            let slot = open.get(&key).copied();
            match slot.and_then(|s| order.get_mut(s)) {
                Some(batch) if batch.requests.len() < window => {
                    batch.requests.push(index);
                    self.telemetry.batched += 1;
                }
                _ => {
                    open.insert(key, order.len());
                    order.push(Batch {
                        shape: request.shape,
                        class: request.class,
                        requests: vec![index],
                    });
                }
            }
        }
        order.into()
    }

    /// Pick a device for `batch`: the policy's choice if it has queue
    /// capacity, else a steal to the fullest-capacity survivor, else
    /// `None` (every live queue is full).
    fn route(&mut self, batch: &Batch, wave_queues: &[Vec<Batch>]) -> Option<(usize, bool)> {
        let capacity = self.config.queue_capacity.max(1);
        let alive: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| i)
            .collect();
        if alive.is_empty() {
            return None;
        }
        let queued = |i: usize| wave_queues.get(i).map(Vec::len).unwrap_or(capacity);
        let preferred = match self.config.policy {
            RoutingPolicy::RoundRobin => {
                let pick = alive
                    .get(self.rr_cursor % alive.len())
                    .copied()
                    .unwrap_or(0);
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
                pick
            }
            RoutingPolicy::LeastLoaded | RoutingPolicy::PerfAware => alive
                .iter()
                .copied()
                .map(|i| (i, self.load_after(i, batch)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i)
                .unwrap_or(0),
        };
        if queued(preferred) < capacity {
            return Some((preferred, false));
        }
        // Steal: among the live devices with queue capacity left, the
        // one with the least projected load — the same metric the
        // least-loaded policy uses, so stolen work still lands where it
        // finishes soonest (ties to the lowest index: deterministic).
        alive
            .iter()
            .copied()
            .filter(|&i| queued(i) < capacity)
            .map(|i| (i, self.load_after(i, batch)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(i, _)| (i, true))
    }

    /// Projected in-flight simulated time of shard `i` if it took
    /// `batch`: device clock + backlog planned this wave + the batch's
    /// estimated cost.
    fn load_after(&self, i: usize, batch: &Batch) -> f64 {
        match self.shards.get(i) {
            Some(state) => {
                state.shard.clock.now_s() + state.planned_s + self.estimate(state, batch)
            }
            None => f64::INFINITY,
        }
    }

    fn planned_cost(&self, i: usize, batch: &Batch) -> f64 {
        self.shards
            .get(i)
            .map(|state| self.estimate(state, batch))
            .unwrap_or(0.0)
    }

    /// Cost model for planning. Cold, it is static: FLOPs over the
    /// device's peak throughput (perf-aware: discounted by shipped-set
    /// fitness), plus per-launch overhead. Once the device has served
    /// work under this scheduler, the measured effective throughput —
    /// completed FLOPs over elapsed device time — replaces the peak:
    /// real devices achieve a workload-dependent fraction of peak, and
    /// the measured rate folds in exactly the kernel inefficiencies and
    /// fallback slowness the static model cannot see. Deliberately
    /// cruder than the simulator — it must be computable without
    /// touching the device.
    fn estimate(&self, state: &ShardState, batch: &Batch) -> f64 {
        let n = batch.requests.len() as f64;
        let elapsed = state.shard.clock.now_s() - state.clock_origin;
        let rate = if state.flops_done > 0.0 && elapsed > 0.0 {
            state.flops_done / elapsed
        } else {
            match self.config.policy {
                RoutingPolicy::PerfAware => state.shard.peak_flops * state.shard.fitness.max(0.05),
                _ => state.shard.peak_flops,
            }
        };
        n * (batch.shape.flops() / rate.max(1.0) + state.shard.launch_overhead_s)
    }

    /// Run one wave's per-device queues on the calling thread, in shard
    /// order. Every cross-device interaction happens at the wave
    /// boundary, so the order does not change any device's outcome.
    fn execute_wave(
        &self,
        requests: &[GemmRequest],
        wave_queues: &[Vec<Batch>],
        collect_trace: bool,
    ) -> Result<Vec<WaveOutcome>> {
        let meltdown = self.config.meltdown_threshold.max(1);
        self.shards
            .iter()
            .zip(wave_queues)
            .map(|(state, batches)| {
                drain_queue(
                    &state.shard.executor,
                    batches,
                    requests,
                    meltdown,
                    collect_trace,
                )
            })
            .collect()
    }
}

/// Drain one device's wave queue in batch order: the shard's submission
/// order (and therefore its simulated timeline and fault sequence) is a
/// pure function of the batches it was handed. On meltdown the device
/// stops launching *now*, not at the next batch boundary: the current
/// batch's unserved tail and every later batch become
/// `outcome.leftovers`.
fn drain_queue(
    executor: &ResilientExecutor,
    batches: &[Batch],
    requests: &[GemmRequest],
    meltdown_threshold: u32,
    collect_trace: bool,
) -> Result<WaveOutcome> {
    let mut outcome = WaveOutcome::empty();
    let mut consecutive_reference = 0u32;
    for (position, batch) in batches.iter().enumerate() {
        if let Some(&bad) = batch.requests.iter().find(|&&i| i >= requests.len()) {
            return Err(CoreError::Dataset(format!(
                "request index {bad} out of range"
            )));
        }
        let members = batch
            .requests
            .iter()
            .filter_map(|&i| requests.get(i))
            .map(|request| (&request.a, &request.b, &request.c));
        let mut served_in_batch = 0usize;
        executor.launch_batch(batch.shape, members, |report| {
            served_in_batch += 1;
            outcome.served += 1;
            outcome.flops_done += batch.shape.flops();
            if is_reference(&report) {
                outcome.reference_fallbacks += 1;
                consecutive_reference += 1;
            } else {
                consecutive_reference = 0;
            }
            if collect_trace {
                for failure in report.failures {
                    if let Some(event) = failure.event {
                        outcome.trace.push((event, None));
                    }
                }
                outcome.trace.push((report.event, Some(report.decision)));
            }
            if consecutive_reference >= meltdown_threshold {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        if consecutive_reference >= meltdown_threshold {
            outcome.melted = true;
            let remaining: Vec<usize> = batch
                .requests
                .iter()
                .skip(served_in_batch)
                .copied()
                .collect();
            if !remaining.is_empty() {
                outcome.leftovers.push(Batch {
                    shape: batch.shape,
                    class: batch.class,
                    requests: remaining,
                });
            }
            outcome
                .leftovers
                .extend(batches.iter().skip(position + 1).cloned());
            return Ok(outcome);
        }
        outcome.batches_done += 1;
    }
    Ok(outcome)
}

fn is_reference(report: &LaunchReport) -> bool {
    matches!(
        report.decision.fallback,
        autokernel_sycl_sim::FallbackLevel::Reference
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TuningPipeline};
    use crate::resilient::ResilientPolicy;
    use autokernel_sycl_sim::{DeviceSpec, FaultPlan, Queue};
    use std::sync::OnceLock;

    fn shapes() -> Vec<(GemmShape, String)> {
        [
            (64, 64, 64),
            (512, 512, 512),
            (1, 4096, 1000),
            (12544, 27, 64),
            (196, 2304, 256),
            (3136, 144, 24),
            (49, 960, 160),
            (784, 1152, 128),
            (32, 4096, 4096),
            (2, 2048, 1000),
            (6272, 576, 128),
            (1024, 1024, 1024),
            (25088, 576, 128),
            (8, 25088, 4096),
            (128, 128, 1000),
            (3136, 576, 192),
        ]
        .iter()
        .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
        .collect()
    }

    fn pipeline() -> &'static TuningPipeline {
        static PIPELINE: OnceLock<TuningPipeline> = OnceLock::new();
        PIPELINE.get_or_init(|| {
            TuningPipeline::run(
                &DeviceSpec::amd_r9_nano(),
                &shapes(),
                PipelineConfig::default(),
            )
            .expect("pipeline trains")
        })
    }

    fn shard_on(device: DeviceSpec, label: &str) -> DeviceShard {
        let queue = Queue::timing_only(Arc::new(device));
        let executor = pipeline()
            .device_executor(queue, ResilientPolicy::default())
            .expect("executor builds");
        DeviceShard::new(label, executor)
    }

    fn stream(n: usize) -> Vec<GemmRequest> {
        let pool: Vec<GemmShape> = shapes().into_iter().map(|(s, _)| s).collect();
        (0..n)
            .map(|i| GemmRequest::zeroed(pool[i % pool.len()]))
            .collect()
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(matches!(
            ShardedScheduler::new(Vec::new(), SchedConfig::default()),
            Err(CoreError::EmptyFleet)
        ));
    }

    #[test]
    fn round_robin_spreads_batches_over_both_devices() {
        let mut sched = ShardedScheduler::new(
            vec![
                shard_on(DeviceSpec::amd_r9_nano(), "nano-0"),
                shard_on(DeviceSpec::amd_r9_nano(), "nano-1"),
            ],
            SchedConfig {
                policy: RoutingPolicy::RoundRobin,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let report = sched.serve(&stream(8)).unwrap();
        assert_eq!(report.served, 8);
        assert_eq!(report.dropped, 0);
        let mut by_device = [0usize; 2];
        for a in &report.assignments {
            by_device[a.device] += a.requests;
        }
        assert_eq!(by_device, [4, 4]);
    }

    #[test]
    fn same_shape_requests_coalesce_into_one_batch() {
        let mut sched = ShardedScheduler::new(
            vec![shard_on(DeviceSpec::amd_r9_nano(), "nano")],
            SchedConfig {
                batch_window: 8,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let shape = GemmShape::new(256, 256, 256);
        let requests: Vec<GemmRequest> = (0..6).map(|_| GemmRequest::zeroed(shape)).collect();
        let report = sched.serve(&requests).unwrap();
        assert_eq!(report.served, 6);
        assert_eq!(report.assignments.len(), 1, "one batch, one decision");
        assert_eq!(sched.telemetry().batched, 5);
        // The batch warmed the shard's cache once; the siblings hit.
        let telemetry = sched.shard(0).unwrap().executor().selector().telemetry();
        assert_eq!(telemetry.misses(), 1);
        assert_eq!(telemetry.hits(), 5);
    }

    #[test]
    fn batch_window_caps_coalescing() {
        let mut sched = ShardedScheduler::new(
            vec![shard_on(DeviceSpec::amd_r9_nano(), "nano")],
            SchedConfig {
                batch_window: 2,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let shape = GemmShape::new(128, 128, 128);
        let requests: Vec<GemmRequest> = (0..5).map(|_| GemmRequest::zeroed(shape)).collect();
        let report = sched.serve(&requests).unwrap();
        assert_eq!(report.assignments.len(), 3, "ceil(5 / 2) batches");
        assert_eq!(sched.telemetry().batched, 2);
    }

    #[test]
    fn different_classes_never_share_a_batch() {
        let mut sched = ShardedScheduler::new(
            vec![shard_on(DeviceSpec::amd_r9_nano(), "nano")],
            SchedConfig {
                batch_window: 8,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let shape = GemmShape::new(256, 256, 256);
        // Interleaved priority classes on one shape: coalescing must
        // split them per class, not pool them under the shape alone.
        let requests: Vec<GemmRequest> = (0..6)
            .map(|i| GemmRequest::zeroed(shape).with_class((i % 2) as u16))
            .collect();
        let report = sched.serve(&requests).unwrap();
        assert_eq!(report.served, 6);
        assert_eq!(
            report.assignments.len(),
            2,
            "one batch per (shape, class), got {:?}",
            report.assignments
        );
        assert!(report
            .assignments
            .iter()
            .any(|a| a.class == 0 && a.requests == 3));
        assert!(report
            .assignments
            .iter()
            .any(|a| a.class == 1 && a.requests == 3));
    }

    #[test]
    fn full_queues_steal_then_backpressure() {
        // Capacity 1 per wave, least-loaded: the first batch fills the
        // fast device, the second steals to the slower one, the third
        // waits for the next wave.
        let mut sched = ShardedScheduler::new(
            vec![
                shard_on(DeviceSpec::amd_r9_nano(), "nano"),
                shard_on(DeviceSpec::edge_dsp(), "edge"),
            ],
            SchedConfig {
                policy: RoutingPolicy::LeastLoaded,
                queue_capacity: 1,
                batch_window: 1,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let shape = GemmShape::new(64, 64, 64);
        let requests: Vec<GemmRequest> = (0..6).map(|_| GemmRequest::zeroed(shape)).collect();
        let report = sched.serve(&requests).unwrap();
        assert_eq!(report.served, 6);
        assert!(report.waves >= 3, "capacity 1 x 2 devices forces waves");
        assert!(
            sched.telemetry().stolen >= 1,
            "the slow device got stolen work"
        );
    }

    #[test]
    fn perf_aware_discounts_unfit_devices() {
        // Same silicon, but one shard is declared unfit: perf-aware
        // routing must starve it.
        let fit = shard_on(DeviceSpec::amd_r9_nano(), "fit").with_fitness(1.0);
        let unfit = shard_on(DeviceSpec::amd_r9_nano(), "unfit").with_fitness(0.05);
        let mut sched = ShardedScheduler::new(
            vec![fit, unfit],
            SchedConfig {
                policy: RoutingPolicy::PerfAware,
                queue_capacity: 64,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let report = sched.serve(&stream(32)).unwrap();
        let fit_requests: usize = report
            .assignments
            .iter()
            .filter(|a| a.device == 0)
            .map(|a| a.requests)
            .sum();
        assert!(
            fit_requests > 32 / 2,
            "fit device should take most of the stream, got {fit_requests}/32"
        );
    }

    #[test]
    fn fitness_comes_from_static_analysis() {
        use autokernel_analyze::KernelSpaceAnalyzer;
        let analysis = KernelSpaceAnalyzer::new(DeviceSpec::edge_dsp())
            .analyze()
            .unwrap();
        let shard = shard_on(DeviceSpec::edge_dsp(), "edge")
            .with_shipped_analysis(&analysis, pipeline().shipped_configs());
        assert!(
            shard.fitness() < 1.0,
            "edge DSP rejects part of the nano-trained shipped set"
        );
    }

    #[test]
    fn doomed_device_drains_to_survivor_with_zero_drops() {
        let doomed_queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()))
            .with_fault_plan(Arc::new(FaultPlan::new(3).doom_kernels_matching("gemm_T")));
        let doomed_exec = pipeline()
            .device_executor(doomed_queue, ResilientPolicy::default())
            .unwrap();
        let mut sched = ShardedScheduler::new(
            vec![
                DeviceShard::new("doomed", doomed_exec),
                shard_on(DeviceSpec::amd_r9_nano(), "healthy"),
            ],
            SchedConfig {
                policy: RoutingPolicy::RoundRobin,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let report = sched.serve(&stream(24)).unwrap();
        assert_eq!(report.served, 24);
        assert_eq!(report.dropped, 0);
        assert!(!sched.is_healthy(0), "the doomed shard must be drained");
        assert!(sched.is_healthy(1));
        let healthy = &report.devices[1];
        assert!(healthy.served > 12, "survivor absorbed re-routed traffic");
    }

    #[test]
    fn meltdown_mid_batch_hands_the_unserved_tail_to_a_survivor() {
        let doomed_queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()))
            .with_fault_plan(Arc::new(FaultPlan::new(5).doom_kernels_matching("gemm_T")));
        let doomed_exec = pipeline()
            .device_executor(doomed_queue, ResilientPolicy::default())
            .unwrap();
        let mut sched = ShardedScheduler::new(
            vec![
                DeviceShard::new("doomed", doomed_exec),
                shard_on(DeviceSpec::amd_r9_nano(), "healthy"),
            ],
            SchedConfig {
                policy: RoutingPolicy::RoundRobin,
                meltdown_threshold: 3,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        // One batch of eight, routed to the doomed shard first.
        let shape = shapes()[0].0;
        let stream: Vec<GemmRequest> = (0..8).map(|_| GemmRequest::zeroed(shape)).collect();
        let report = sched.serve(&stream).unwrap();
        assert_eq!(report.served, 8);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.devices[0].served, 3, "the batch stops at meltdown");
        assert_eq!(report.devices[0].reference_fallbacks, 3);
        assert_eq!(
            report.devices[1].served, 5,
            "the tail moves to the survivor"
        );
        assert!(!sched.is_healthy(0));
    }

    #[test]
    fn last_shard_standing_is_never_drained() {
        let doomed_queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()))
            .with_fault_plan(Arc::new(FaultPlan::new(9).doom_kernels_matching("gemm_T")));
        let doomed_exec = pipeline()
            .device_executor(doomed_queue, ResilientPolicy::default())
            .unwrap();
        let mut sched = ShardedScheduler::new(
            vec![DeviceShard::new("only", doomed_exec)],
            SchedConfig::default(),
        )
        .unwrap();
        let report = sched.serve(&stream(8)).unwrap();
        assert_eq!(report.served, 8);
        assert_eq!(report.dropped, 0);
        assert!(sched.is_healthy(0), "sole survivor keeps serving");
        assert!(report.devices[0].reference_fallbacks > 0);
    }

    #[test]
    fn traced_serving_tags_devices() {
        let mut sched = ShardedScheduler::new(
            vec![
                shard_on(DeviceSpec::amd_r9_nano(), "nano-0"),
                shard_on(DeviceSpec::amd_r9_nano(), "nano-1"),
            ],
            SchedConfig {
                policy: RoutingPolicy::RoundRobin,
                ..SchedConfig::default()
            },
        )
        .unwrap();
        let mut trace = TraceRecorder::new();
        let report = sched.serve_traced(&stream(8), &mut trace).unwrap();
        assert_eq!(trace.decided_launches(), report.served);
        let json = trace.to_chrome_trace();
        assert!(json.contains("\"device\":0") && json.contains("\"device\":1"));
    }

    #[test]
    fn serve_accumulates_across_calls() {
        let mut sched = ShardedScheduler::new(
            vec![shard_on(DeviceSpec::amd_r9_nano(), "nano")],
            SchedConfig::default(),
        )
        .unwrap();
        sched.serve(&stream(4)).unwrap();
        let report = sched.serve(&stream(4)).unwrap();
        assert_eq!(report.served, 4, "per-call report");
        assert_eq!(sched.telemetry().served, 8, "telemetry is cumulative");
        assert!(report.makespan_s > 0.0);
        assert!(report.throughput() > 0.0);
    }
}
