//! Selection telemetry: the counters and the decision-latency
//! histogram every [`crate::cache::CachedSelector`] carries.
//!
//! [`SelectionTelemetry`] keeps one [`TelemetryState`] record behind
//! one mutex: cache hits and misses, per-shipped-configuration picks,
//! resilient-serving outcomes, online-adaptation events and the
//! decision-latency buckets. An update is one short critical section
//! that allocates nothing, so the record stays on in production, and a
//! read copies the whole record under the same lock, so every capture
//! is consistent. [`LatencyHistogram`] is the same log2 bucketing as a
//! plain value, which the ingress layer keeps per priority class.

use parking_lot::Mutex;

/// Number of log2 latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, so 64 buckets span every expressible
/// `u64` latency.
pub const LATENCY_BUCKETS: usize = 64;

/// The `q`-quantile (`q` in `[0, 1]`) of log2 bucket counts holding
/// `total` samples, in nanoseconds, linearly interpolated within the
/// winning bucket; 0 with no samples. The interpolation bounds the
/// error by the bucket's width (a factor of two — plenty for p50/p99
/// SLO telemetry).
fn quantile(buckets: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let before = cumulative;
        cumulative = cumulative.saturating_add(n);
        if (cumulative as f64) >= target {
            let lower = (i as f64).exp2();
            let width = lower; // bucket spans [2^i, 2^(i+1))
            let frac = (target - before as f64) / n as f64;
            return lower + frac.clamp(0.0, 1.0) * width;
        }
    }
    // Unreachable: the walk ends at `total`, which is at least `target`.
    f64::MAX
}

/// A fixed-bucket log2 latency histogram: plain counts, recorded
/// through `&mut self` by the one owner that serves the samples. The
/// total is kept beside the buckets so a quantile read walks only up
/// to the winning bucket, and interpolates linearly inside it.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
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
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
        }
    }

    /// The bucket a sample of `nanos` lands in (0 is clamped to 1):
    /// bucket `i` spans `[2^i, 2^(i+1))` ns.
    pub fn bucket_of(nanos: u64) -> usize {
        63 - nanos.max(1).leading_zeros() as usize
    }

    /// Record one sample of `nanos` (0 is clamped to 1).
    /// Allocation-free.
    pub fn record(&mut self, nanos: u64) {
        if let Some(bucket) = self.buckets.get_mut(Self::bucket_of(nanos)) {
            *bucket += 1;
            self.count += 1;
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile latency in nanoseconds (`q` in `[0, 1]`),
    /// linearly interpolated within the winning bucket; 0 with no
    /// samples.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.buckets, self.count, q)
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Every counter of a [`SelectionTelemetry`] block: the live record
/// the block keeps behind its lock, and the telemetry section of a
/// `core::persist` snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TelemetryState {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Accumulated hit latency, nanoseconds.
    pub hit_nanos: u64,
    /// Accumulated miss latency, nanoseconds.
    pub miss_nanos: u64,
    /// The shipped set the pick counters are aligned with.
    pub shipped: Vec<usize>,
    /// Pick count per shipped slot.
    pub picks: Vec<u64>,
    /// Launches completed through the resilient executor.
    pub resilient_launches: u64,
    /// Failed launch attempts absorbed.
    pub launch_failures: u64,
    /// Same-configuration retries.
    pub retries: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Quarantine skips.
    pub quarantine_skips: u64,
    /// Next-best fallbacks.
    pub fallback_next_best: u64,
    /// Reference-GEMM fallbacks.
    pub fallback_reference: u64,
    /// Statically invalid configs skipped.
    pub fallback_skipped_invalid: u64,
    /// Rewards fed into the bandit.
    pub reward_updates: u64,
    /// Drift-detector trips.
    pub drift_events: u64,
    /// Adaptive-stage primary picks.
    pub adaptive_picks: u64,
    /// Stale-generation rewards dropped.
    pub stale_rewards_dropped: u64,
    /// Decision-latency histogram bucket counts
    /// ([`LATENCY_BUCKETS`] entries).
    pub latency_buckets: Vec<u64>,
}

impl TelemetryState {
    /// A zeroed record whose pick counters align with `shipped`.
    // lint:allow-fn(no-alloc) constructed once per selector, not per decision
    fn new(shipped: &[usize]) -> Self {
        TelemetryState {
            hits: 0,
            misses: 0,
            hit_nanos: 0,
            miss_nanos: 0,
            shipped: shipped.to_vec(),
            picks: vec![0; shipped.len()],
            resilient_launches: 0,
            launch_failures: 0,
            retries: 0,
            breaker_trips: 0,
            quarantine_skips: 0,
            fallback_next_best: 0,
            fallback_reference: 0,
            fallback_skipped_invalid: 0,
            reward_updates: 0,
            drift_events: 0,
            adaptive_picks: 0,
            stale_rewards_dropped: 0,
            latency_buckets: vec![0; LATENCY_BUCKETS],
        }
    }

    /// Count a reused decision as one hit and one pick, without a
    /// latency sample (the decision was made, and timed, once for the
    /// whole batch). `slot` is the decision's shipped-set position from
    /// [`SelectionTelemetry::shipped_slot`]; `None` counts no pick,
    /// exactly like a non-shipped pick in [`SelectionTelemetry::record`].
    pub(crate) fn count_reused_hit(&mut self, slot: Option<usize>) {
        self.hits += 1;
        self.count_pick(slot);
    }

    fn count_pick(&mut self, slot: Option<usize>) {
        if let Some(pick) = slot.and_then(|slot| self.picks.get_mut(slot)) {
            *pick += 1;
        }
    }
}

/// The serving layer's counters: one [`TelemetryState`] record behind
/// one mutex, beside an immutable copy of the shipped set its pick
/// counters align with.
///
/// All counters are monotonic diagnostics. `hits + misses` equals the
/// number of `select` calls that completed, and the picks sum to it
/// whenever every pick is shipped. Every update and every read takes
/// the one lock, so each [`SelectionTelemetry::snapshot`] and
/// [`SelectionTelemetry::export_state`] sees those identities hold,
/// even while other threads serve.
#[derive(Debug)]
pub struct SelectionTelemetry {
    /// Global config index per pick slot (frozen copy of the shipped
    /// set).
    shipped: Vec<usize>,
    record: Mutex<TelemetryState>,
}

impl SelectionTelemetry {
    // lint:allow-fn(no-alloc) constructed once per selector, not per decision
    pub(crate) fn new(shipped: &[usize]) -> Self {
        SelectionTelemetry {
            shipped: shipped.to_vec(),
            record: Mutex::new(TelemetryState::new(shipped)),
        }
    }

    /// Apply `f` to the live record under one acquisition of the lock,
    /// however many counters it moves.
    pub(crate) fn update(&self, f: impl FnOnce(&mut TelemetryState)) {
        f(&mut self.record.lock());
    }

    /// Count one decision: a hit or a model run with its latency, and
    /// the pick of `config_index` when it is shipped.
    pub(crate) fn record(&self, hit: bool, nanos: u64, config_index: usize) {
        let slot = self.shipped_slot(config_index);
        self.update(|t| {
            if let Some(bucket) = t
                .latency_buckets
                .get_mut(LatencyHistogram::bucket_of(nanos))
            {
                *bucket += 1;
            }
            if hit {
                t.hits += 1;
                t.hit_nanos += nanos;
            } else {
                t.misses += 1;
                t.miss_nanos += nanos;
            }
            t.count_pick(slot);
        });
    }

    /// The shipped-set slot of `config_index`, if it is shipped.
    pub(crate) fn shipped_slot(&self, config_index: usize) -> Option<usize> {
        self.shipped.iter().position(|&c| c == config_index)
    }

    /// A consistent point-in-time copy for reporting and
    /// serialisation, taken under one acquisition of the lock.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let t = self.export_state();
        let mean = |nanos: u64, n: u64| if n == 0 { 0.0 } else { nanos as f64 / n as f64 };
        let decisions = t
            .latency_buckets
            .iter()
            .fold(0u64, |sum, &n| sum.saturating_add(n));
        TelemetrySnapshot {
            hits: t.hits,
            misses: t.misses,
            mean_hit_nanos: mean(t.hit_nanos, t.hits),
            mean_miss_nanos: mean(t.miss_nanos, t.misses),
            picks: t
                .shipped
                .iter()
                .zip(&t.picks)
                .map(|(&config_index, &count)| PickCount {
                    config_index,
                    count,
                })
                .collect(),
            resilient_launches: t.resilient_launches,
            launch_failures: t.launch_failures,
            retries: t.retries,
            breaker_trips: t.breaker_trips,
            quarantine_skips: t.quarantine_skips,
            fallback_next_best: t.fallback_next_best,
            fallback_reference: t.fallback_reference,
            fallback_skipped_invalid: t.fallback_skipped_invalid,
            reward_updates: t.reward_updates,
            drift_events: t.drift_events,
            adaptive_picks: t.adaptive_picks,
            stale_rewards_dropped: t.stale_rewards_dropped,
            decision_p50_ns: quantile(&t.latency_buckets, decisions, 0.50),
            decision_p99_ns: quantile(&t.latency_buckets, decisions, 0.99),
        }
    }

    /// A copy of the whole live record, for `core::persist` snapshots.
    // lint:allow-fn(no-alloc) snapshot export runs off the decide path
    pub fn export_state(&self) -> TelemetryState {
        self.record.lock().clone()
    }

    /// Overwrite the live record with an exported one, so restart-
    /// spanning reports stay cumulative. The snapshot's shipped set and
    /// histogram geometry must match the live block exactly; on a
    /// mismatch the live record is left untouched.
    // lint:allow-fn(no-alloc) snapshot restore is a cold startup path
    pub fn restore_state(&self, state: &TelemetryState) -> std::result::Result<(), String> {
        if state.shipped != self.shipped || state.picks.len() != self.shipped.len() {
            return Err(format!(
                "telemetry shipped-set mismatch: snapshot has {} slots, live block {}",
                state.picks.len(),
                self.shipped.len()
            ));
        }
        if state.latency_buckets.len() != LATENCY_BUCKETS {
            return Err(format!(
                "latency histogram geometry mismatch: snapshot has {} buckets, live {}",
                state.latency_buckets.len(),
                LATENCY_BUCKETS
            ));
        }
        *self.record.lock() = state.clone();
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
    /// Configurations excluded from the fallback chain (or skipped as a
    /// primary pick) because static analysis proved them invalid or
    /// dominated on the serving device.
    pub fallback_skipped_invalid: u64,
    /// Measured launch outcomes fed back into the online bandit.
    pub reward_updates: u64,
    /// Drift-detector trips (each re-ranks the bandit and opens a new
    /// online generation).
    pub drift_events: u64,
    /// Primary picks made by the adaptive (post-drift) stage rather
    /// than the offline classifier. These bypass the shape cache, so
    /// they are *not* part of `hits + misses`.
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
    fn histogram_buckets_and_quantiles() {
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

        let mut histogram = LatencyHistogram::new();
        assert_eq!((histogram.count(), histogram.p50()), (0, 0.0));
        for nanos in [0, 1, 1023, 1024, u64::MAX] {
            histogram.record(nanos);
        }
        assert_eq!(histogram.count(), 5);
        // The median sample, 1023, sits in [512, 1024).
        assert!((512.0..1024.0).contains(&histogram.p50()));
        assert!(histogram.p99() >= (63f64).exp2());
        assert!(histogram.quantile(1.0) < f64::MAX);
    }

    #[test]
    fn restore_validates_before_it_assigns() {
        let cached = CachedSelector::new(trained());
        cached.select(&GemmShape::new(50, 60, 70)).unwrap();
        let telemetry = cached.telemetry();
        let saved = telemetry.export_state();

        let mut wrong_set = saved.clone();
        wrong_set.shipped.push(usize::MAX);
        wrong_set.picks.push(0);
        wrong_set.hits = 99;
        assert!(telemetry.restore_state(&wrong_set).is_err());
        let mut wrong_geometry = saved.clone();
        wrong_geometry.latency_buckets.pop();
        wrong_geometry.hits = 99;
        assert!(telemetry.restore_state(&wrong_geometry).is_err());
        assert_eq!(
            telemetry.snapshot().hits,
            0,
            "a rejected state changes nothing"
        );

        let mut grown = saved;
        grown.hits = 7;
        telemetry.restore_state(&grown).unwrap();
        assert_eq!(telemetry.snapshot().hits, 7);
    }
}
