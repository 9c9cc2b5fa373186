//! Resilient kernel execution: retry, circuit breaking and fallback
//! chains on top of the cached selector.
//!
//! The serving layer (`cache`) answers *which* kernel to launch; this
//! module guarantees the launch *completes* even when the runtime
//! injects faults or a shipped configuration is simply broken on the
//! current device. The strategy is the standard production triad:
//!
//! 1. **Retry with backoff** — transient faults (launch failures,
//!    device-lost, timeouts) are retried up to a per-candidate attempt
//!    budget, with exponential backoff plus deterministic jitter charged
//!    to the *simulated* clock, all under a per-launch deadline.
//! 2. **Circuit breakers** — each shipped configuration carries a
//!    closed → open → half-open breaker. A configuration that keeps
//!    failing is quarantined (open) for a cooldown and skipped without
//!    wasting an attempt; after the cooldown exactly one probe launch is
//!    admitted (half-open) to test recovery.
//! 3. **Fallback chain** — the selector's pick, then the remaining
//!    shipped configurations in recorded-performance order, then the
//!    reference GEMM on a fault-free queue. The last rung cannot fail,
//!    so [`ResilientExecutor::launch`] always returns a completed event
//!    with correct results.
//!
//! Every decision is visible: retries, breaker trips, quarantine skips
//! and fallback depths flow into [`SelectionTelemetry`] counters and
//! into the [`LaunchDecision`] annotations a
//! [`autokernel_sycl_sim::TraceRecorder`] renders.
//!
//! [`ResilientExecutor::launch_batch`] serves a coalesced batch of
//! same-shape requests with one decision and one prepared launch of
//! the primary kernel; everything above still happens per request.

use crate::cache::{CachedSelector, SelectionOutcome};
use crate::online::OnlineSelector;
use crate::{CoreError, Result};
use autokernel_analyze::SpaceAnalysis;
use autokernel_gemm::{GemmShape, KernelConfig, ReferenceGemmKernel, TiledGemmKernel};
use autokernel_sycl_sim::perf::deterministic_noise;
use autokernel_sycl_sim::trace::{FallbackLevel, LaunchDecision, TraceRecorder};
use autokernel_sycl_sim::{Buffer, Event, PreparedLaunch, Queue, SimError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Knobs for retry, breaker and deadline behaviour. The defaults suit
/// the simulated device's microsecond-scale kernels; a real deployment
/// would scale them with observed launch latency.
#[derive(Debug, Clone)]
pub struct ResilientPolicy {
    /// Maximum launch attempts per candidate configuration (≥ 1).
    pub max_attempts: u32,
    /// First backoff interval after a transient failure, in simulated
    /// seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_multiplier: f64,
    /// Jitter amplitude on each backoff interval (0 disables, 0.25 means
    /// ±25 %), decorrelating retry storms across concurrent callers.
    pub jitter: f64,
    /// Per-launch deadline in simulated seconds: once spent, remaining
    /// candidates get one attempt each with no backoff waits.
    pub deadline_s: f64,
    /// Consecutive failures that trip a configuration's breaker open.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open, in simulated seconds.
    pub breaker_cooldown_s: f64,
}

impl Default for ResilientPolicy {
    fn default() -> Self {
        ResilientPolicy {
            max_attempts: 4,
            base_backoff_s: 20.0e-6,
            backoff_multiplier: 2.0,
            jitter: 0.25,
            deadline_s: 10.0e-3,
            breaker_threshold: 3,
            breaker_cooldown_s: 5.0e-3,
        }
    }
}

/// Observable breaker state (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: launches flow through, failures are counted.
    Closed,
    /// Quarantined: launches are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed (or probe in flight): exactly one probe launch
    /// is admitted; its outcome closes or re-opens the breaker.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { failures: u32 },
    Open { until_s: f64 },
    HalfOpen,
}

/// A per-configuration circuit breaker over simulated time.
///
/// Thread-safe: all transitions happen under an internal mutex, so
/// concurrent callers racing on [`CircuitBreaker::admit`] see
/// first-come-first-served semantics — in particular the half-open
/// probe is admitted to exactly one caller.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: Mutex<State>,
    threshold: u32,
    cooldown_s: f64,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and quarantining for `cooldown_s` of simulated time.
    pub fn new(threshold: u32, cooldown_s: f64) -> Self {
        CircuitBreaker {
            state: Mutex::new(State::Closed { failures: 0 }),
            threshold: threshold.max(1),
            cooldown_s: cooldown_s.max(0.0),
        }
    }

    /// Whether a launch may proceed at simulated time `now_s`. An open
    /// breaker whose cooldown has elapsed transitions to half-open and
    /// admits *this* caller as the single probe; further callers are
    /// rejected until the probe reports back.
    pub fn admit(&self, now_s: f64) -> bool {
        let mut state = self.state.lock();
        match *state {
            State::Closed { .. } => true,
            State::Open { until_s } => {
                if now_s >= until_s {
                    *state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
            State::HalfOpen => false,
        }
    }

    /// Report a successful launch: the breaker closes and the failure
    /// count resets.
    pub fn on_success(&self) {
        *self.state.lock() = State::Closed { failures: 0 };
    }

    /// Report a failed launch at simulated time `now_s`. Returns `true`
    /// when this failure *trips* the breaker open (threshold reached
    /// while closed, or a half-open probe failing).
    pub fn on_failure(&self, now_s: f64) -> bool {
        let mut state = self.state.lock();
        match *state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    *state = State::Open {
                        until_s: now_s + self.cooldown_s,
                    };
                    true
                } else {
                    *state = State::Closed { failures };
                    false
                }
            }
            State::HalfOpen => {
                *state = State::Open {
                    until_s: now_s + self.cooldown_s,
                };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// The state an observer at `now_s` would see (an open breaker whose
    /// cooldown has elapsed reads as half-open: ready for a probe).
    pub fn state(&self, now_s: f64) -> BreakerState {
        match *self.state.lock() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { until_s } if now_s < until_s => BreakerState::Open,
            State::Open { .. } | State::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// Consecutive failures recorded while closed (0 in other states).
    pub fn failure_count(&self) -> u32 {
        match *self.state.lock() {
            State::Closed { failures } => failures,
            _ => 0,
        }
    }
}

/// One absorbed launch failure, for reporting and trace rendering.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// The configuration whose launch failed.
    pub config_index: usize,
    /// The error the runtime returned.
    pub error: SimError,
    /// The failed launch's span on the device clock, when the fault
    /// consumed device time (injected faults do; structural rejections
    /// like resource exhaustion fail before touching the device).
    pub event: Option<Event>,
}

/// The outcome of one resilient launch: the completed event, the fully
/// annotated decision, and every failure absorbed along the way.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// The completion event of the kernel that finally ran.
    pub event: Event,
    /// Decision annotation: selector pick, cache hit, failed attempts,
    /// fallback depth.
    pub decision: LaunchDecision,
    /// The tiled configuration that served the launch, or `None` when
    /// the reference GEMM did.
    pub config: Option<KernelConfig>,
    /// Failures absorbed before completion (empty on the happy path).
    pub failures: Vec<FailureRecord>,
}

impl LaunchReport {
    /// Whether the launch completed without a single failure on the
    /// selector's own pick.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.decision.fallback == FallbackLevel::Primary
    }
}

/// One decision shared by the requests of a batch: the selector's
/// outcome, the online generation it was made under, its shipped-set
/// slot (for counting a reuse as a pick), and the primary's prepared
/// launch once a request has needed it.
struct BatchDecision {
    outcome: SelectionOutcome,
    generation: u64,
    slot: Option<usize>,
    primary: Option<autokernel_sycl_sim::Result<PreparedLaunch>>,
}

/// A [`CachedSelector`] + [`Queue`] wrapped with retry, per-config
/// circuit breakers and a fallback chain. Shareable across threads by
/// reference (`&self` everywhere; clone the operand [`Buffer`]s per
/// caller as usual).
pub struct ResilientExecutor {
    selector: Arc<CachedSelector>,
    queue: Queue,
    /// The terminal rung runs here: same device and shared clock as
    /// `queue`, but no fault plan — modelling the host-side safe path
    /// device faults cannot reach.
    safe_queue: Queue,
    policy: ResilientPolicy,
    /// Shipped configurations, best recorded performance first; the
    /// fallback chain tries them in this order.
    ranking: Vec<usize>,
    /// `invalid[i]` marks config `i` statically unlaunchable on the
    /// serving device. Empty when no analysis was supplied (legacy
    /// [`ResilientExecutor::new`] path): every config is then trusted.
    invalid: Vec<bool>,
    breakers: HashMap<usize, CircuitBreaker>,
    /// Closed-loop refinement layer, attached via
    /// [`ResilientExecutor::with_online`]. When present, primary picks
    /// flow through it and every launch outcome — including fallback
    /// rungs — feeds its reward estimates and drift detector.
    online: Option<Arc<OnlineSelector>>,
}

impl ResilientExecutor {
    /// Wrap `selector` and `queue`. `ranking` lists the shipped
    /// configuration indices in fallback order (best recorded
    /// performance first); the selector's own shipped set is merged in
    /// so every possible pick has a breaker.
    pub fn new(
        selector: Arc<CachedSelector>,
        queue: Queue,
        ranking: Vec<usize>,
        policy: ResilientPolicy,
    ) -> Self {
        let mut breakers = HashMap::new();
        for &cfg in ranking.iter().chain(selector.selector().configs()) {
            breakers.entry(cfg).or_insert_with(|| {
                CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown_s)
            });
        }
        let safe_queue = queue.without_faults();
        ResilientExecutor {
            selector,
            queue,
            safe_queue,
            policy,
            ranking,
            invalid: Vec::new(),
            breakers,
            online: None,
        }
    }

    /// Attach an [`OnlineSelector`]: primary picks now flow through its
    /// two-stage policy (bit-identical to the cached selector until its
    /// drift detector trips) and every launch outcome feeds its reward
    /// estimates. Without this call the executor behaves exactly as in
    /// the static stack.
    pub fn with_online(mut self, online: Arc<OnlineSelector>) -> Self {
        self.online = Some(online);
        self
    }

    /// The attached online layer, if any.
    pub fn online(&self) -> Option<&Arc<OnlineSelector>> {
        self.online.as_ref()
    }

    /// Like [`ResilientExecutor::new`], but consults a static
    /// [`SpaceAnalysis`] of the serving device first: configurations the
    /// analyzer proved unlaunchable are removed from the fallback chain
    /// (wasting zero attempts on launches the runtime must reject), and
    /// dominated configurations are removed whenever their dominator is
    /// also in the chain (the dominator is pointwise at least as good).
    /// Each removal increments the `fallback_skipped_invalid` telemetry
    /// counter, as does skipping a statically invalid primary pick at
    /// launch time.
    pub fn with_static_analysis(
        selector: Arc<CachedSelector>,
        queue: Queue,
        ranking: Vec<usize>,
        policy: ResilientPolicy,
        analysis: &SpaceAnalysis,
    ) -> Self {
        let invalid = analysis.invalid_mask();
        let telemetry = selector.telemetry();
        let mut kept = Vec::with_capacity(ranking.len());
        for &cfg in &ranking {
            if invalid.get(cfg).copied().unwrap_or(false) {
                telemetry.record_fallback_skipped_invalid();
                continue;
            }
            let dominator_present = analysis
                .configs
                .get(cfg)
                .and_then(|c| c.dominated_by)
                .is_some_and(|d| ranking.contains(&d));
            if dominator_present {
                telemetry.record_fallback_skipped_invalid();
                continue;
            }
            kept.push(cfg);
        }
        let mut executor = Self::new(selector, queue, kept, policy);
        executor.invalid = invalid;
        executor
    }

    /// The policy in force.
    pub fn policy(&self) -> &ResilientPolicy {
        &self.policy
    }

    /// The fallback ranking (shipped configs, best first).
    pub fn ranking(&self) -> &[usize] {
        &self.ranking
    }

    /// The wrapped cached selector (telemetry lives here).
    pub fn selector(&self) -> &CachedSelector {
        &self.selector
    }

    /// The faultable queue launches run on (the device's timeline; a
    /// fleet scheduler reads its clock for load accounting).
    pub fn queue(&self) -> &Queue {
        &self.queue
    }

    /// The breaker state an observer would see for a configuration now.
    pub fn breaker_state(&self, config_index: usize) -> Option<BreakerState> {
        self.breakers
            .get(&config_index)
            .map(|b| b.state(self.queue.now_s()))
    }

    /// Configurations currently quarantined (breaker open).
    pub fn quarantined(&self) -> Vec<usize> {
        let now = self.queue.now_s();
        let mut out: Vec<usize> = self
            .breakers
            .iter()
            .filter(|(_, b)| b.state(now) == BreakerState::Open)
            .map(|(&cfg, _)| cfg)
            .collect();
        out.sort_unstable();
        out
    }

    /// Execute `C = A · B` for `shape`, guaranteeing completion: the
    /// selector's pick with retries, then next-best shipped configs,
    /// then the reference GEMM. Errors surface only for *structural*
    /// problems (operand buffers disagreeing with `shape`, a corrupted
    /// model artefact) — never for injected device faults.
    pub fn launch(
        &self,
        shape: GemmShape,
        a: &Buffer<f32>,
        b: &Buffer<f32>,
        c: &Buffer<f32>,
    ) -> Result<LaunchReport> {
        let mut batch = self.decide(&shape)?;
        self.serve(shape, &mut batch, a, b, c)
    }

    /// Serve a batch of same-`shape` requests, handing each request's
    /// report to `each` in order; the batch stops after the request for
    /// which `each` returns [`ControlFlow::Break`].
    ///
    /// The batch decides once and prepares its primary kernel's launch
    /// once. A later request re-decides only where a per-request
    /// [`ResilientExecutor::launch`] could answer differently: after a
    /// decision that was not a cache hit (a miss, or an adaptive pick),
    /// or once the online layer's generation has moved. A reused
    /// decision counts as one cache hit and one pick. Everything else —
    /// the kernel bound to the request's own operands, breakers,
    /// retries under the deadline, fallback rungs and online feedback —
    /// runs per request exactly as in `launch`, so a batch leaves the
    /// same timeline, fault sequence, results and counters (decision
    /// latency samples aside) as launching its requests one by one.
    pub fn launch_batch<'r>(
        &self,
        shape: GemmShape,
        operands: impl IntoIterator<Item = (&'r Buffer<f32>, &'r Buffer<f32>, &'r Buffer<f32>)>,
        mut each: impl FnMut(LaunchReport) -> ControlFlow<()>,
    ) -> Result<()> {
        let mut batch: Option<BatchDecision> = None;
        for (a, b, c) in operands {
            let current = match batch.as_mut() {
                Some(current) if self.still_holds(current) => {
                    self.deciding_selector()
                        .telemetry()
                        .record_reused_hit(current.slot);
                    current
                }
                _ => {
                    let mut fresh = self.decide(&shape)?;
                    if let Some(previous) = batch.take() {
                        if previous.outcome.config_index == fresh.outcome.config_index {
                            fresh.primary = previous.primary;
                        }
                    }
                    batch.insert(fresh)
                }
            };
            if each(self.serve(shape, current, a, b, c)?).is_break() {
                break;
            }
        }
        Ok(())
    }

    /// The selector whose telemetry a decision is counted in.
    fn deciding_selector(&self) -> &CachedSelector {
        match &self.online {
            Some(online) => online.cached(),
            None => &self.selector,
        }
    }

    /// Decide for `shape` through the online layer when one is
    /// attached, else through the cached selector. The selector
    /// generation is captured with the decision: any reward a launch
    /// under it eventually produces belongs to *this* regime, and the
    /// online layer discards it if drift resets in between.
    fn decide(&self, shape: &GemmShape) -> Result<BatchDecision> {
        let (outcome, generation) = match &self.online {
            Some(online) => (online.select_outcome(shape)?, online.generation()),
            None => (self.selector.select_outcome(shape)?, 0),
        };
        Ok(BatchDecision {
            outcome,
            generation,
            slot: self
                .deciding_selector()
                .telemetry()
                .shipped_slot(outcome.config_index),
            primary: None,
        })
    }

    /// Whether a per-request decision would repeat `batch`'s: it came
    /// from the cache, and no drift has reset the selector since.
    fn still_holds(&self, batch: &BatchDecision) -> bool {
        batch.outcome.cache_hit
            && self
                .online
                .as_ref()
                .is_none_or(|online| online.generation() == batch.generation)
    }

    /// Serve one request under `batch`'s decision: the fallback chain,
    /// with the primary's launch prepared once per decision.
    fn serve(
        &self,
        shape: GemmShape,
        batch: &mut BatchDecision,
        a: &Buffer<f32>,
        b: &Buffer<f32>,
        c: &Buffer<f32>,
    ) -> Result<LaunchReport> {
        let telemetry = self.selector.telemetry();
        telemetry.record_resilient_launch();
        let primary = batch.outcome.config_index;

        let deadline_s = self.queue.now_s() + self.policy.deadline_s;
        let mut failures: Vec<FailureRecord> = Vec::new();

        // A statically invalid primary pick (possible only when the model
        // artefact and the serving device disagree) is skipped without
        // burning an attempt: the runtime would reject every launch of it.
        let primary_ok = !self.invalid.get(primary).copied().unwrap_or(false);
        if !primary_ok {
            telemetry.record_fallback_skipped_invalid();
        }
        let candidates = std::iter::once(primary)
            .filter(|_| primary_ok)
            .chain(self.ranking.iter().copied().filter(|&r| r != primary));
        for (depth, cfg_idx) in candidates.enumerate() {
            let effective_depth = if primary_ok { depth } else { depth + 1 };
            let config =
                KernelConfig::from_index(cfg_idx).ok_or(CoreError::BadConfigIndex(cfg_idx))?;
            let kernel = TiledGemmKernel::new(config, shape, a.clone(), b.clone(), c.clone())?;
            let range = kernel.preferred_range()?;
            // Profile, price and name depend only on (shape, config,
            // device): the primary keeps its prepared launch for the
            // whole batch, a fallback candidate for its own attempts.
            let mut fallback_launch = None;
            let mut backoff_s = self.policy.base_backoff_s;

            for attempt in 0..self.policy.max_attempts.max(1) {
                if let Some(breaker) = self.breakers.get(&cfg_idx) {
                    if !breaker.admit(self.queue.now_s()) {
                        telemetry.record_quarantine_skip();
                        break; // quarantined: next candidate
                    }
                }
                let prepared = if depth == 0 && primary_ok {
                    &mut batch.primary
                } else {
                    &mut fallback_launch
                };
                let submitted =
                    match prepared.get_or_insert_with(|| self.queue.prepare(&kernel, range)) {
                        Ok(launch) => self.queue.submit_prepared(launch, &kernel, &[]),
                        Err(error) => Err(error.clone()),
                    };
                match submitted {
                    Ok(event) => {
                        if let Some(breaker) = self.breakers.get(&cfg_idx) {
                            breaker.on_success();
                        }
                        if let Some(online) = &self.online {
                            online.record_success(
                                &shape,
                                cfg_idx,
                                event.duration_s(),
                                batch.generation,
                            );
                        }
                        let fallback = if effective_depth == 0 {
                            FallbackLevel::Primary
                        } else {
                            telemetry.record_fallback_next_best();
                            FallbackLevel::NextBest(effective_depth.min(u8::MAX as usize) as u8)
                        };
                        let decision = LaunchDecision::new(cfg_idx, batch.outcome.cache_hit)
                            .with_resilience(failures.len() as u32, fallback);
                        return Ok(LaunchReport {
                            event,
                            decision,
                            config: Some(config),
                            failures,
                        });
                    }
                    Err(error) => {
                        telemetry.record_launch_failure();
                        let now = self.queue.now_s();
                        let tripped = match self.breakers.get(&cfg_idx) {
                            Some(breaker) => breaker.on_failure(now),
                            None => false,
                        };
                        if tripped {
                            telemetry.record_breaker_trip();
                        }
                        let event = match &error {
                            SimError::Fault(f) => Some(Event::failed(
                                f.kernel.clone(),
                                f.at_s,
                                f.at_s + f.consumed_s,
                                f.kind,
                            )),
                            _ => None,
                        };
                        let transient = error.is_transient();
                        if let Some(online) = &self.online {
                            online.record_failure(&shape, cfg_idx, transient, batch.generation);
                        }
                        failures.push(FailureRecord {
                            config_index: cfg_idx,
                            error,
                            event,
                        });
                        if !transient || tripped {
                            break; // this config is a lost cause: next candidate
                        }
                        if attempt + 1 < self.policy.max_attempts {
                            if now >= deadline_s {
                                break; // deadline spent: stop retrying, fall through
                            }
                            telemetry.record_retry();
                            let jitter_seed = (cfg_idx as u64)
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                .wrapping_add(attempt as u64)
                                .wrapping_add(shape.stable_hash());
                            let wait =
                                backoff_s * deterministic_noise(jitter_seed, self.policy.jitter);
                            self.queue.wait(wait);
                            backoff_s *= self.policy.backoff_multiplier.max(1.0);
                        }
                    }
                }
            }
        }

        // Terminal rung: the reference GEMM on the fault-free queue.
        // Exact results, untuned speed, cannot be quarantined.
        telemetry.record_fallback_reference();
        let kernel = ReferenceGemmKernel::new(shape, a.clone(), b.clone(), c.clone())?;
        let range = kernel.preferred_range()?;
        let event = self.safe_queue.submit(&kernel, range)?;
        let decision = LaunchDecision::new(primary, batch.outcome.cache_hit)
            .with_resilience(failures.len() as u32, FallbackLevel::Reference);
        Ok(LaunchReport {
            event,
            decision,
            config: None,
            failures,
        })
    }

    /// Like [`ResilientExecutor::launch`], also rendering the outcome
    /// into `trace`: every absorbed failure that consumed device time
    /// appears as a `kernel_fault` span, and the completing launch
    /// carries the full [`LaunchDecision`] annotation.
    pub fn launch_traced(
        &self,
        shape: GemmShape,
        a: &Buffer<f32>,
        b: &Buffer<f32>,
        c: &Buffer<f32>,
        trace: &mut TraceRecorder,
        queue_label: &str,
    ) -> Result<LaunchReport> {
        let report = self.launch(shape, a, b, c)?;
        for failure in &report.failures {
            if let Some(event) = &failure.event {
                trace.record(queue_label, event.clone());
            }
        }
        trace.record_with_decision(queue_label, report.event.clone(), report.decision);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_probe() {
        let b = CircuitBreaker::new(3, 1.0);
        assert_eq!(b.state(0.0), BreakerState::Closed);
        assert!(!b.on_failure(0.0));
        assert!(!b.on_failure(0.0));
        assert_eq!(b.failure_count(), 2);
        assert!(b.on_failure(0.0), "third failure trips");
        assert_eq!(b.state(0.5), BreakerState::Open);
        assert!(!b.admit(0.5), "open rejects");
        // Cooldown elapsed: exactly one probe admitted.
        assert!(b.admit(1.5));
        assert!(!b.admit(1.5), "second caller waits for the probe");
        b.on_success();
        assert_eq!(b.state(1.5), BreakerState::Closed);
        assert!(b.admit(1.6));
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let b = CircuitBreaker::new(1, 2.0);
        assert!(b.on_failure(0.0));
        assert!(b.admit(2.5), "probe after cooldown");
        assert!(b.on_failure(2.5), "failed probe re-trips");
        assert_eq!(b.state(3.0), BreakerState::Open);
        assert!(!b.admit(3.0));
        assert!(b.admit(5.0), "new cooldown counted from the re-trip");
    }

    #[test]
    fn success_resets_the_failure_count() {
        let b = CircuitBreaker::new(2, 1.0);
        assert!(!b.on_failure(0.0));
        b.on_success();
        assert!(!b.on_failure(0.0), "count restarted");
        assert_eq!(b.failure_count(), 1);
    }

    #[test]
    fn policy_defaults_are_sane() {
        let p = ResilientPolicy::default();
        assert!(p.max_attempts >= 1);
        assert!(p.base_backoff_s > 0.0 && p.deadline_s > p.base_backoff_s);
        assert!(p.breaker_threshold >= 1 && p.breaker_cooldown_s > 0.0);
    }
}
