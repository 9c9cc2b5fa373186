//! Selection telemetry: the counters and the decision-latency
//! histogram every [`crate::cache::CachedSelector`] carries.
//!
//! [`SelectionTelemetry`] counts cache hits and misses, per-shipped-
//! configuration picks, resilient-serving outcomes and online-adaptation
//! events; [`LatencyHistogram`] buckets decision (and ingress) latencies
//! in log2 buckets. Both update lock-free atomics and allocate nothing
//! per record, so they stay on in production.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, so 64 buckets span every expressible
/// `u64` latency.
pub const LATENCY_BUCKETS: usize = 64;

/// A fixed-bucket log2 latency histogram over lock-free atomics.
///
/// The record path is two atomic increments and zero allocation —
/// cheap enough for every request on the ingress hot path (and
/// `hotpath_lint`-clean). The bucket increment is relaxed; the `count`
/// increment *releases* it, and quantile reads load `count` with
/// acquire, so a reader can never observe more counted samples than
/// bucketed ones (the `analyze::interleave` latency-histogram model
/// checks exactly this invariant — with both increments relaxed, a
/// reader could fall off the cumulative walk and return the `f64::MAX`
/// sentinel). Quantiles walk the 64 bucket counters and interpolate
/// linearly inside the winning bucket, which bounds the error by the
/// bucket's width (a factor of two — plenty for p50/p99 SLO
/// telemetry).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket a sample of `nanos` lands in (0 is clamped to 1):
    /// bucket `i` spans `[2^i, 2^(i+1))` ns.
    pub fn bucket_of(nanos: u64) -> usize {
        63 - nanos.max(1).leading_zeros() as usize
    }

    /// Record one sample of `nanos` (0 is clamped to 1). Lock-free,
    /// allocation-free. The release on `count` publishes the bucket
    /// increment to acquire readers.
    pub fn record(&self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Record `n` samples of `nanos` with two atomic updates: the bucket
    /// counts and total come out as after `n` calls of
    /// [`LatencyHistogram::record`]. The bucket is bumped first and the
    /// release on `count` publishes it, as in `record`.
    pub fn record_n(&self, nanos: u64, n: u64) {
        if let Some(bucket) = self.buckets.get(Self::bucket_of(nanos)) {
            bucket.fetch_add(n, Ordering::Relaxed); // atomic:role(counter)
            self.count.fetch_add(n, Ordering::Release); // atomic:role(publish)
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire) // atomic:role(publish)
    }

    /// The `q`-quantile latency in nanoseconds (`q` in `[0, 1]`),
    /// linearly interpolated within the winning bucket; 0 with no
    /// samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed); // atomic:role(counter)
            if n == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += n;
            if (cumulative as f64) >= target {
                let lower = (1u64 << i) as f64;
                let width = lower; // bucket spans [2^i, 2^(i+1))
                let frac = (target - before as f64) / n as f64;
                return lower + frac.clamp(0.0, 1.0) * width;
            }
        }
        // Unreachable with a consistent count; report the top edge.
        f64::MAX
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The raw bucket counts (`LATENCY_BUCKETS` entries; bucket `i`
    /// spans `[2^i, 2^(i+1))` ns).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // atomic:role(counter)
            .collect()
    }

    /// Overwrite the histogram from saved bucket counts (the snapshot
    /// restore path). Returns false — leaving the histogram untouched —
    /// unless `counts` has exactly [`LATENCY_BUCKETS`] entries. The
    /// total is recomputed from the buckets (saturating), keeping
    /// quantile reads internally consistent whatever the counts were.
    pub fn restore_counts(&self, counts: &[u64]) -> bool {
        if counts.len() != self.buckets.len() {
            return false;
        }
        let mut total = 0u64;
        for (bucket, &n) in self.buckets.iter().zip(counts) {
            bucket.store(n, Ordering::Relaxed); // atomic:role(counter)
            total = total.saturating_add(n);
        }
        self.count.store(total, Ordering::Release); // atomic:role(publish)
        true
    }
}

/// Lock-free counters describing the serving layer's behaviour.
///
/// All counters are monotonic and updated with relaxed atomics: the
/// numbers are diagnostics, not synchronisation points. `hits + misses`
/// always equals the total number of `select` calls that completed.
#[derive(Debug)]
pub struct SelectionTelemetry {
    hits: AtomicU64,
    misses: AtomicU64,
    hit_nanos: AtomicU64,
    miss_nanos: AtomicU64,
    /// One slot per shipped configuration, in `Selector::configs()`
    /// order, counting how often each was picked.
    picks: Vec<AtomicU64>,
    /// Global config index per slot (frozen copy of the shipped set).
    shipped: Vec<usize>,
    // --- resilient-serving counters (all zero outside a
    // `resilient::ResilientExecutor`) ---
    resilient_launches: AtomicU64,
    launch_failures: AtomicU64,
    retries: AtomicU64,
    breaker_trips: AtomicU64,
    quarantine_skips: AtomicU64,
    fallback_next_best: AtomicU64,
    fallback_reference: AtomicU64,
    fallback_skipped_invalid: AtomicU64,
    // --- online-adaptation counters (all zero without an
    // `online::OnlineSelector`) ---
    reward_updates: AtomicU64,
    drift_events: AtomicU64,
    adaptive_picks: AtomicU64,
    /// Rewards discarded because they were measured under an older
    /// selector generation than the one live when they arrived (the
    /// stale-reward-poisoning guard in `core::online`).
    stale_rewards_dropped: AtomicU64,
    /// Wall-clock decision latency (cache hit or model run), log2
    /// buckets.
    decision_latency: LatencyHistogram,
}

impl SelectionTelemetry {
    // lint:allow-fn(no-alloc) constructed once per selector, not per decision
    pub(crate) fn new(shipped: &[usize]) -> Self {
        SelectionTelemetry {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_nanos: AtomicU64::new(0),
            miss_nanos: AtomicU64::new(0),
            picks: shipped.iter().map(|_| AtomicU64::new(0)).collect(),
            shipped: shipped.to_vec(),
            resilient_launches: AtomicU64::new(0),
            launch_failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            quarantine_skips: AtomicU64::new(0),
            fallback_next_best: AtomicU64::new(0),
            fallback_reference: AtomicU64::new(0),
            fallback_skipped_invalid: AtomicU64::new(0),
            reward_updates: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            adaptive_picks: AtomicU64::new(0),
            stale_rewards_dropped: AtomicU64::new(0),
            decision_latency: LatencyHistogram::new(),
        }
    }

    pub(crate) fn record_stale_reward_dropped(&self) {
        self.stale_rewards_dropped.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_reward_update(&self) {
        self.reward_updates.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_drift_event(&self) {
        self.drift_events.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_adaptive_pick(&self) {
        self.adaptive_picks.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_resilient_launch(&self) {
        self.resilient_launches.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_launch_failure(&self) {
        self.launch_failures.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_quarantine_skip(&self) {
        self.quarantine_skips.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_fallback_next_best(&self) {
        self.fallback_next_best.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_fallback_reference(&self) {
        self.fallback_reference.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record_fallback_skipped_invalid(&self) {
        self.fallback_skipped_invalid
            .fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
    }

    pub(crate) fn record(&self, hit: bool, nanos: u64, config_index: usize) {
        self.decision_latency.record(nanos);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
            self.hit_nanos.fetch_add(nanos, Ordering::Relaxed); // atomic:role(counter)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
            self.miss_nanos.fetch_add(nanos, Ordering::Relaxed); // atomic:role(counter)
        }
        if let Some(slot) = self.shipped.iter().position(|&c| c == config_index) {
            // lint:allow(no-index) slot comes from position() over picks' twin
            self.picks[slot].fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        }
    }

    /// Count a reused decision as one hit and one pick, without a
    /// latency sample (the decision was made, and timed, once for the
    /// whole batch). `slot` is the decision's shipped-set position from
    /// [`SelectionTelemetry::shipped_slot`]; `None` bumps no pick
    /// counter, exactly like a non-shipped pick in
    /// [`SelectionTelemetry::record`].
    #[inline]
    pub(crate) fn record_reused_hit(&self, slot: Option<usize>) {
        self.hits.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        if let Some(pick) = slot.and_then(|slot| self.picks.get(slot)) {
            pick.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        }
    }

    /// The shipped-set slot of `config_index`, if it is shipped.
    pub(crate) fn shipped_slot(&self, config_index: usize) -> Option<usize> {
        self.shipped.iter().position(|&c| c == config_index)
    }

    /// Selections answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Selections that ran the model.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Total completed selections (`hits + misses`).
    pub fn total(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Cache hit rate in `[0, 1]` (0 when nothing was selected yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Mean latency of cache hits, in nanoseconds.
    pub fn mean_hit_nanos(&self) -> f64 {
        let hits = self.hits();
        if hits == 0 {
            0.0
        } else {
            self.hit_nanos.load(Ordering::Relaxed) as f64 / hits as f64 // atomic:role(counter)
        }
    }

    /// Mean latency of cache misses (model inference), in nanoseconds.
    pub fn mean_miss_nanos(&self) -> f64 {
        let misses = self.misses();
        if misses == 0 {
            0.0
        } else {
            self.miss_nanos.load(Ordering::Relaxed) as f64 / misses as f64 // atomic:role(counter)
        }
    }

    /// Launches completed through the resilient executor.
    pub fn resilient_launches(&self) -> u64 {
        self.resilient_launches.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Individual failed launch attempts the executor absorbed.
    pub fn launch_failures(&self) -> u64 {
        self.launch_failures.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Retries of the *same* configuration after a transient fault.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Circuit-breaker transitions into the open state.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Candidate configurations skipped because their breaker was open.
    pub fn quarantine_skips(&self) -> u64 {
        self.quarantine_skips.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Launches served by a next-best shipped configuration.
    pub fn fallback_next_best(&self) -> u64 {
        self.fallback_next_best.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Launches degraded all the way to the reference GEMM.
    pub fn fallback_reference(&self) -> u64 {
        self.fallback_reference.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Configurations excluded from the fallback chain (or skipped as a
    /// primary pick) because static analysis proved them invalid or
    /// dominated on the serving device.
    pub fn fallback_skipped_invalid(&self) -> u64 {
        self.fallback_skipped_invalid.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Measured launch outcomes fed back into the online bandit.
    pub fn reward_updates(&self) -> u64 {
        self.reward_updates.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Drift-detector trips (each re-ranks the bandit and opens a new
    /// online generation).
    pub fn drift_events(&self) -> u64 {
        self.drift_events.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Primary picks made by the adaptive (post-drift) stage rather
    /// than the offline classifier. These bypass the shape cache, so
    /// they are *not* part of `hits + misses`.
    pub fn adaptive_picks(&self) -> u64 {
        self.adaptive_picks.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Rewards discarded for carrying a stale selector generation.
    pub fn stale_rewards_dropped(&self) -> u64 {
        self.stale_rewards_dropped.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// The decision-latency histogram (cache hits and model runs).
    pub fn decision_latency(&self) -> &LatencyHistogram {
        &self.decision_latency
    }

    /// `(global config index, times picked)` per shipped configuration,
    /// in shipped order.
    pub fn picks(&self) -> Vec<(usize, u64)> {
        self.shipped
            .iter()
            .zip(&self.picks)
            .map(|(&c, n)| (c, n.load(Ordering::Relaxed))) // atomic:role(counter)
            .collect()
    }

    /// An owned, consistent-enough copy for reporting/serialisation.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            hits: self.hits(),
            misses: self.misses(),
            mean_hit_nanos: self.mean_hit_nanos(),
            mean_miss_nanos: self.mean_miss_nanos(),
            picks: self
                .picks()
                .into_iter()
                .map(|(config_index, count)| PickCount {
                    config_index,
                    count,
                })
                .collect(),
            resilient_launches: self.resilient_launches(),
            launch_failures: self.launch_failures(),
            retries: self.retries(),
            breaker_trips: self.breaker_trips(),
            quarantine_skips: self.quarantine_skips(),
            fallback_next_best: self.fallback_next_best(),
            fallback_reference: self.fallback_reference(),
            fallback_skipped_invalid: self.fallback_skipped_invalid(),
            reward_updates: self.reward_updates(),
            drift_events: self.drift_events(),
            adaptive_picks: self.adaptive_picks(),
            stale_rewards_dropped: self.stale_rewards_dropped(),
            decision_p50_ns: self.decision_latency.p50(),
            decision_p99_ns: self.decision_latency.p99(),
        }
    }

    /// Export every counter and the latency histogram for
    /// `core::persist` snapshots.
    // lint:allow-fn(no-alloc) snapshot export runs off the decide path
    pub fn export_state(&self) -> crate::persist::TelemetryState {
        crate::persist::TelemetryState {
            hits: self.hits(),
            misses: self.misses(),
            hit_nanos: self.hit_nanos.load(Ordering::Relaxed), // atomic:role(counter)
            miss_nanos: self.miss_nanos.load(Ordering::Relaxed), // atomic:role(counter)
            shipped: self.shipped.clone(),
            picks: self
                .picks
                .iter()
                .map(|p| p.load(Ordering::Relaxed)) // atomic:role(counter)
                .collect(),
            resilient_launches: self.resilient_launches(),
            launch_failures: self.launch_failures(),
            retries: self.retries(),
            breaker_trips: self.breaker_trips(),
            quarantine_skips: self.quarantine_skips(),
            fallback_next_best: self.fallback_next_best(),
            fallback_reference: self.fallback_reference(),
            fallback_skipped_invalid: self.fallback_skipped_invalid(),
            reward_updates: self.reward_updates(),
            drift_events: self.drift_events(),
            adaptive_picks: self.adaptive_picks(),
            stale_rewards_dropped: self.stale_rewards_dropped(),
            latency_buckets: self.decision_latency.bucket_counts(),
        }
    }

    /// Overwrite every counter from an exported state, so restart-
    /// spanning reports stay cumulative. The snapshot's shipped set and
    /// histogram geometry must match the live block exactly.
    // lint:allow-fn(no-alloc) snapshot restore is a cold startup path
    pub fn restore_state(
        &self,
        state: &crate::persist::TelemetryState,
    ) -> std::result::Result<(), String> {
        if state.shipped != self.shipped || state.picks.len() != self.picks.len() {
            return Err(format!(
                "telemetry shipped-set mismatch: snapshot has {} slots, live block {}",
                state.picks.len(),
                self.picks.len()
            ));
        }
        if !self.decision_latency.restore_counts(&state.latency_buckets) {
            return Err(format!(
                "latency histogram geometry mismatch: snapshot has {} buckets, live {}",
                state.latency_buckets.len(),
                LATENCY_BUCKETS
            ));
        }
        self.hits.store(state.hits, Ordering::Relaxed); // atomic:role(counter)
        self.misses.store(state.misses, Ordering::Relaxed); // atomic:role(counter)
        self.hit_nanos.store(state.hit_nanos, Ordering::Relaxed); // atomic:role(counter)
        self.miss_nanos.store(state.miss_nanos, Ordering::Relaxed); // atomic:role(counter)
        for (pick, &n) in self.picks.iter().zip(&state.picks) {
            pick.store(n, Ordering::Relaxed); // atomic:role(counter)
        }
        self.resilient_launches
            .store(state.resilient_launches, Ordering::Relaxed); // atomic:role(counter)
        self.launch_failures
            .store(state.launch_failures, Ordering::Relaxed); // atomic:role(counter)
        self.retries.store(state.retries, Ordering::Relaxed); // atomic:role(counter)
        self.breaker_trips
            .store(state.breaker_trips, Ordering::Relaxed); // atomic:role(counter)
        self.quarantine_skips
            .store(state.quarantine_skips, Ordering::Relaxed); // atomic:role(counter)
        self.fallback_next_best
            .store(state.fallback_next_best, Ordering::Relaxed); // atomic:role(counter)
        self.fallback_reference
            .store(state.fallback_reference, Ordering::Relaxed); // atomic:role(counter)
        self.fallback_skipped_invalid
            .store(state.fallback_skipped_invalid, Ordering::Relaxed); // atomic:role(counter)
        self.reward_updates
            .store(state.reward_updates, Ordering::Relaxed); // atomic:role(counter)
        self.drift_events
            .store(state.drift_events, Ordering::Relaxed); // atomic:role(counter)
        self.adaptive_picks
            .store(state.adaptive_picks, Ordering::Relaxed); // atomic:role(counter)
        self.stale_rewards_dropped
            .store(state.stale_rewards_dropped, Ordering::Relaxed); // atomic:role(counter)
        Ok(())
    }
}

/// How often one shipped configuration was chosen.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PickCount {
    /// Global kernel configuration index.
    pub config_index: usize,
    /// Number of selections that chose it.
    pub count: u64,
}

/// A point-in-time copy of [`SelectionTelemetry`], serialisable for
/// reports.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySnapshot {
    /// Selections answered from the cache.
    pub hits: u64,
    /// Selections that ran the model.
    pub misses: u64,
    /// Mean cache-hit latency in nanoseconds.
    pub mean_hit_nanos: f64,
    /// Mean model-inference latency in nanoseconds.
    pub mean_miss_nanos: f64,
    /// Pick counts per shipped configuration.
    pub picks: Vec<PickCount>,
    /// Launches completed through the resilient executor.
    pub resilient_launches: u64,
    /// Individual failed launch attempts absorbed.
    pub launch_failures: u64,
    /// Same-configuration retries after transient faults.
    pub retries: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_trips: u64,
    /// Candidates skipped while their breaker was open.
    pub quarantine_skips: u64,
    /// Launches served by a next-best shipped configuration.
    pub fallback_next_best: u64,
    /// Launches degraded to the reference GEMM.
    pub fallback_reference: u64,
    /// Configurations skipped because static analysis proved them
    /// invalid or dominated.
    pub fallback_skipped_invalid: u64,
    /// Measured launch outcomes fed back into the online bandit.
    pub reward_updates: u64,
    /// Drift-detector trips.
    pub drift_events: u64,
    /// Primary picks made by the adaptive (post-drift) stage.
    pub adaptive_picks: u64,
    /// Rewards discarded for carrying a stale selector generation.
    pub stale_rewards_dropped: u64,
    /// Median decision latency in nanoseconds (histogram estimate).
    pub decision_p50_ns: f64,
    /// 99th-percentile decision latency in nanoseconds (histogram
    /// estimate).
    pub decision_p99_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{tests::trained, CachedSelector};
    use autokernel_gemm::GemmShape;

    #[test]
    fn snapshot_serialises() {
        let cached = CachedSelector::new(trained());
        cached.select(&GemmShape::new(50, 60, 70)).unwrap();
        let snap = cached.telemetry().snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.misses, 1);
        assert_eq!(back.picks.len(), cached.selector().configs().len());
    }

    #[test]
    fn record_n_equals_n_single_records() {
        for nanos in [0, 1, 1023, 1024, u64::MAX] {
            for n in [0, 1, 5] {
                let batched = LatencyHistogram::new();
                let single = LatencyHistogram::new();
                batched.record_n(nanos, n);
                for _ in 0..n {
                    single.record(nanos);
                }
                assert_eq!(
                    batched.bucket_counts(),
                    single.bucket_counts(),
                    "{nanos} x {n}"
                );
                assert_eq!(batched.count(), single.count(), "{nanos} x {n}");
                assert_eq!(batched.count(), n);
            }
        }
        // 0 and 1 share the lowest bucket; 1023 and 1024 straddle a
        // bucket edge.
        assert_eq!(
            LatencyHistogram::bucket_of(0),
            LatencyHistogram::bucket_of(1)
        );
        assert_eq!(
            LatencyHistogram::bucket_of(1023) + 1,
            LatencyHistogram::bucket_of(1024)
        );
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }
}
