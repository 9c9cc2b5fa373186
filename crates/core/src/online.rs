//! Closed-loop online refinement of kernel selection.
//!
//! The paper ships a classifier trained offline and stops there; its
//! follow-up argues the selector must *adapt* when the serving device's
//! performance profile differs from the training substrate. This module
//! closes that loop. An [`OnlineSelector`] sits between the
//! [`CachedSelector`] and the queue and runs a two-stage policy:
//!
//! * **Mirror** (cold start): every decision delegates verbatim to the
//!   cached offline classifier, so with no drift the serving behaviour
//!   is bit-identical to the static stack. Meanwhile every measured
//!   completion ([`autokernel_sycl_sim::LaunchMeasurement`] durations
//!   fed through [`OnlineSelector::record_success`]) builds per-arm
//!   duration baselines and drives the drift detector.
//! * **Adaptive** (post-drift): decisions come from a UCB1-style bandit
//!   per shape-cluster over the shipped configurations, seeded from the
//!   offline classifier's training-set ranking so the bandit starts
//!   from the best offline knowledge rather than uniform ignorance.
//!
//! Drift is declared by a Page–Hinkley test over per-launch relative
//! slowdown `x = duration / baseline`, where the baseline is the same
//! arm's mean completion time in its cluster: a device swap, a
//! fault-degraded part, or an `edge_dsp`-style train/serve mismatch
//! pushes `x` far above 1 across launches and trips the detector. A
//! trip re-ranks (resets bandit statistics so stale-device evidence
//! cannot outvote fresh reality), bumps the decision-cache generation
//! (O(1) invalidation of every memoised shape decision), and switches
//! the policy to the adaptive stage.

use crate::cache::{CachedSelector, SelectionOutcome};
use crate::{CoreError, Result};
use autokernel_gemm::GemmShape;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for the online layer. The defaults are calibrated for
/// the simulated devices: a nano→edge_dsp swap shifts relative
/// slowdowns by 10–100×, tripping Page–Hinkley within a handful of
/// launches, while the ±3 % deterministic timing noise stays far below
/// `ph_delta` + `ph_lambda`.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// UCB exploration coefficient `c` (0 = pure exploitation).
    pub exploration: f64,
    /// Weight of the offline prior, in pseudo-pulls: how many measured
    /// launches it takes for live evidence to outweigh the classifier.
    pub prior_weight: f64,
    /// Shape-cluster quantisation step in log2 space: shapes whose
    /// `log2(m,k,n)` round to the same lattice point share one bandit.
    pub cluster_quantum: f64,
    /// Page–Hinkley drift tolerance subtracted from every sample.
    pub ph_delta: f64,
    /// Page–Hinkley trip threshold.
    pub ph_lambda: f64,
    /// Minimum slowdown samples before a trip is allowed.
    pub ph_warmup: u32,
    /// Relative-slowdown sample charged for a transient fault (a fault
    /// costs real device time, so it is drift evidence too).
    pub fault_slowdown: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            exploration: 0.15,
            prior_weight: 1.0,
            cluster_quantum: 1.0,
            ph_delta: 0.05,
            ph_lambda: 25.0,
            ph_warmup: 12,
            fault_slowdown: 4.0,
        }
    }
}

/// One shipped configuration's online statistics within a cluster.
#[derive(Debug, Clone, Copy)]
struct Arm {
    /// Offline prior performance in `[0, 1]` (train-set mean normalised
    /// score of this configuration).
    prior: f64,
    /// Times this arm was charged with an outcome (success or failure).
    pulls: u64,
    /// Completed launches among `pulls`.
    completions: u64,
    /// Total simulated seconds across completions.
    sum_duration_s: f64,
    /// Structurally rejected this generation (resource exhaustion):
    /// never picked again until the next drift reset.
    disabled: bool,
}

impl Arm {
    fn fresh(prior: f64) -> Self {
        Arm {
            prior,
            pulls: 0,
            completions: 0,
            sum_duration_s: 0.0,
            disabled: false,
        }
    }

    fn mean_duration_s(&self) -> Option<f64> {
        if self.completions == 0 {
            None
        } else {
            Some(self.sum_duration_s / self.completions as f64)
        }
    }
}

/// Page–Hinkley change detector over relative-slowdown samples.
#[derive(Debug, Clone, Copy, Default)]
struct PageHinkley {
    n: u32,
    mean_x: f64,
    m: f64,
    min_m: f64,
}

impl PageHinkley {
    /// Feed one sample; returns the current test statistic.
    fn update(&mut self, x: f64, delta: f64) -> f64 {
        self.n += 1;
        self.mean_x += (x - self.mean_x) / self.n as f64;
        self.m += x - self.mean_x - delta;
        if self.m < self.min_m {
            self.min_m = self.m;
        }
        self.m - self.min_m
    }

    fn reset(&mut self) {
        *self = PageHinkley::default();
    }
}

/// Bandit state for one shape-cluster: one [`Arm`] per shipped slot.
#[derive(Debug, Clone)]
struct ClusterState {
    arms: Vec<Arm>,
}

/// Mutable interior of the selector, behind one mutex. The Mirror-stage
/// decision path never takes it; only reward recording and adaptive
/// picks do.
#[derive(Debug)]
struct Inner {
    /// Bandit state per shape-cluster lattice point. Iteration order is
    /// unspecified; `export_state` sorts by key.
    clusters: HashMap<[i64; 3], ClusterState>,
    ph: PageHinkley,
}

/// Counters describing the online layer, for reports and tests.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct OnlineStats {
    /// Whether the adaptive (post-drift) stage is active.
    pub adaptive: bool,
    /// Distinct shape-clusters with bandit state.
    pub clusters: u64,
    /// Current Page–Hinkley statistic.
    pub ph_statistic: f64,
    /// Slowdown samples consumed since the last reset.
    pub ph_samples: u64,
}

/// The closed-loop refinement layer: [`CachedSelector`] semantics until
/// drift is detected, per-cluster UCB bandit afterwards. Shareable
/// across threads (`&self` everywhere).
pub struct OnlineSelector {
    cached: Arc<CachedSelector>,
    config: OnlineConfig,
    /// Global config index per slot (frozen copy of the shipped set).
    shipped: Vec<usize>,
    /// Offline prior per slot, aligned with `shipped`.
    priors: Vec<f64>,
    /// Slot indices in descending-prior order: the adaptive argmax
    /// scans in this order with a strict `>`, so with no online
    /// evidence the offline-best arm wins every tie.
    scan_order: Vec<usize>,
    adaptive: AtomicBool,
    /// Selector generation: bumped on every drift transition. Rewards
    /// carry the generation they were *decided* under, and a reward
    /// whose generation no longer matches is discarded — otherwise a
    /// measurement issued before a drift trip and fed back after the
    /// reset would seed the fresh bandit with old-device evidence.
    generation: AtomicU64,
    inner: Mutex<Inner>,
}

impl OnlineSelector {
    /// Wrap `cached` with online refinement. `priors` carries one
    /// offline score in `[0, 1]` per shipped configuration, in
    /// `Selector::configs()` order (the pipeline's train-set mean
    /// normalised performance — see `TuningPipeline::online_selector`).
    // lint:allow-fn(no-alloc) constructed once per deployment, not per decision
    pub fn new(
        cached: Arc<CachedSelector>,
        priors: Vec<f64>,
        config: OnlineConfig,
    ) -> Result<Self> {
        let shipped = cached.selector().configs().to_vec();
        if shipped.is_empty() || shipped.len() != priors.len() {
            return Err(CoreError::PriorsMismatch {
                priors: priors.len(),
                shipped: shipped.len(),
            });
        }
        let mut scan_order: Vec<usize> = (0..shipped.len()).collect();
        scan_order.sort_by(|&a, &b| {
            let pa = priors.get(a).copied().unwrap_or(0.0);
            let pb = priors.get(b).copied().unwrap_or(0.0);
            pb.total_cmp(&pa).then(a.cmp(&b))
        });
        Ok(OnlineSelector {
            cached,
            config,
            shipped,
            priors,
            scan_order,
            adaptive: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                clusters: HashMap::new(),
                ph: PageHinkley::default(),
            }),
        })
    }

    /// The wrapped cached selector (telemetry lives here).
    pub fn cached(&self) -> &CachedSelector {
        &self.cached
    }

    /// The tuning knobs in force.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The shipped configuration indices the bandit chooses among.
    pub fn shipped(&self) -> &[usize] {
        &self.shipped
    }

    /// Whether the adaptive stage is active (false until first drift).
    pub fn is_adaptive(&self) -> bool {
        self.adaptive.load(Ordering::Acquire) // atomic:role(flag)
    }

    /// The current selector generation. Capture this at decision time
    /// and pass it back with the measured reward; rewards from an older
    /// generation are discarded (see
    /// [`OnlineSelector::record_success`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire) // atomic:role(publish)
    }

    /// Point-in-time online counters.
    pub fn stats(&self) -> OnlineStats {
        let inner = self.inner.lock();
        OnlineStats {
            adaptive: self.is_adaptive(),
            clusters: inner.clusters.len() as u64,
            ph_statistic: inner.ph.m - inner.ph.min_m,
            ph_samples: inner.ph.n as u64,
        }
    }

    /// The shape-cluster lattice point `shape` falls on.
    fn cluster_key(&self, shape: &GemmShape) -> [i64; 3] {
        let q = if self.config.cluster_quantum > 0.0 {
            self.config.cluster_quantum
        } else {
            1.0
        };
        shape.log_features().map(|f| (f / q).round() as i64)
    }

    /// Select a configuration for `shape`. Mirror stage: delegates to
    /// the cached offline classifier, bit-identical to the static
    /// stack. Adaptive stage: per-cluster UCB argmax (bypasses the
    /// shape cache; counted in the `adaptive_picks` telemetry rather
    /// than `hits`/`misses`).
    pub fn select_outcome(&self, shape: &GemmShape) -> Result<SelectionOutcome> {
        if !self.is_adaptive() {
            return self.cached.select_outcome(shape);
        }
        let key = self.cluster_key(shape);
        let mut inner = self.inner.lock();
        let cluster = self.cluster_entry(&mut inner, key);
        let slot = self.pick_slot(cluster);
        drop(inner);
        self.cached.telemetry().record_adaptive_pick();
        let config_index = self
            .shipped
            .get(slot)
            .copied()
            .ok_or(CoreError::BadConfigIndex(slot))?;
        Ok(SelectionOutcome {
            config_index,
            cache_hit: false,
        })
    }

    /// Convenience: just the configuration index.
    pub fn select(&self, shape: &GemmShape) -> Result<usize> {
        Ok(self.select_outcome(shape)?.config_index)
    }

    fn cluster_entry<'a>(&self, inner: &'a mut Inner, key: [i64; 3]) -> &'a mut ClusterState {
        inner.clusters.entry(key).or_insert_with(|| ClusterState {
            arms: self.priors.iter().map(|&p| Arm::fresh(p)).collect(),
        })
    }

    /// UCB argmax over the cluster's enabled arms, scanning in
    /// descending-prior order with strict `>` so zero-evidence ties
    /// resolve to the offline-best arm. Per classic UCB1 optimism,
    /// every enabled arm is sampled once (in prior order) before the
    /// estimates compete: at the handful of pulls a shape-cluster sees,
    /// the logarithmic bonus alone can never overcome a rival arm that
    /// the fallback chain happened to complete first. Once all arms
    /// have evidence, performance is measured at decision time as
    /// `cluster_best_mean / arm_mean` (both over completed launches),
    /// discounted by the arm's completion rate so fault-prone arms
    /// sink, then blended with the prior at `prior_weight`
    /// pseudo-pulls.
    fn pick_slot(&self, cluster: &ClusterState) -> usize {
        if let Some(&slot) = self.scan_order.iter().find(|&&slot| {
            cluster
                .arms
                .get(slot)
                .is_some_and(|a| !a.disabled && a.pulls == 0)
        }) {
            return slot;
        }
        let total_pulls: u64 = cluster.arms.iter().map(|a| a.pulls).sum();
        let best_mean = cluster
            .arms
            .iter()
            .filter(|a| !a.disabled)
            .filter_map(Arm::mean_duration_s)
            .fold(f64::INFINITY, f64::min);
        let w = self.config.prior_weight.max(f64::MIN_POSITIVE);
        let mut best: Option<(usize, f64)> = None;
        for &slot in &self.scan_order {
            let Some(arm) = cluster.arms.get(slot) else {
                continue;
            };
            if arm.disabled {
                continue;
            }
            let perf = match arm.mean_duration_s() {
                Some(mean) if best_mean.is_finite() && mean > 0.0 => {
                    let completion_rate = arm.completions as f64 / arm.pulls.max(1) as f64;
                    (best_mean / mean).clamp(0.0, 1.0) * completion_rate
                }
                _ => 0.0,
            };
            let evidence = arm.pulls as f64;
            let value = (arm.prior * w + perf * evidence) / (w + evidence);
            let bonus =
                self.config.exploration * (((1 + total_pulls) as f64).ln() / (w + evidence)).sqrt();
            let score = value + bonus;
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((slot, score));
            }
        }
        // Every arm disabled (the executor's reference rung serves such
        // traffic): fall back to the offline-best slot.
        best.map(|(slot, _)| slot)
            .or_else(|| self.scan_order.first().copied())
            .unwrap_or(0)
    }

    /// Feed one completed launch of shipped configuration
    /// `config_index` on `shape` that took `duration_s` simulated
    /// seconds. `generation` is the value of
    /// [`OnlineSelector::generation`] captured when the decision was
    /// made; if a drift trip has advanced the generation since, the
    /// measurement describes the *old* regime and is discarded (counted
    /// in `stale_rewards_dropped`). Updates the arm's reward estimate
    /// and the drift detector; returns `true` if this measurement
    /// tripped drift.
    pub fn record_success(
        &self,
        shape: &GemmShape,
        config_index: usize,
        duration_s: f64,
        generation: u64,
    ) -> bool {
        if generation != self.generation() {
            self.cached.telemetry().record_stale_reward_dropped();
            return false;
        }
        let Some(slot) = self.shipped.iter().position(|&c| c == config_index) else {
            return false; // not a shipped arm (e.g. the reference GEMM)
        };
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return false;
        }
        let key = self.cluster_key(shape);
        let mut inner = self.inner.lock();
        let cluster = self.cluster_entry(&mut inner, key);
        let slowdown = cluster
            .arms
            .get(slot)
            .and_then(Arm::mean_duration_s)
            .map(|baseline| duration_s / baseline);
        if let Some(arm) = cluster.arms.get_mut(slot) {
            arm.pulls += 1;
            arm.completions += 1;
            arm.sum_duration_s += duration_s;
        }
        self.cached.telemetry().record_reward_update();
        match slowdown {
            Some(x) => self.observe_slowdown(inner, x),
            None => false, // first completion establishes the baseline
        }
    }

    /// Feed one failed launch of `config_index` on `shape`. Transient
    /// faults count as drift evidence at `fault_slowdown`; structural
    /// rejections (resource exhaustion on the new device) disable the
    /// arm for the current generation. `generation` has
    /// [`OnlineSelector::record_success`] semantics: stale-generation
    /// failures are discarded. Returns `true` on a drift trip.
    pub fn record_failure(
        &self,
        shape: &GemmShape,
        config_index: usize,
        transient: bool,
        generation: u64,
    ) -> bool {
        if generation != self.generation() {
            self.cached.telemetry().record_stale_reward_dropped();
            return false;
        }
        let Some(slot) = self.shipped.iter().position(|&c| c == config_index) else {
            return false;
        };
        let key = self.cluster_key(shape);
        let mut inner = self.inner.lock();
        let cluster = self.cluster_entry(&mut inner, key);
        if let Some(arm) = cluster.arms.get_mut(slot) {
            arm.pulls += 1;
            if !transient {
                arm.disabled = true;
            }
        }
        self.cached.telemetry().record_reward_update();
        // Both flavours are drift evidence: a transient fault costs real
        // device time, and a structural rejection of a config the
        // offline model shipped is device mismatch in itself.
        let x = self.config.fault_slowdown;
        self.observe_slowdown(inner, x)
    }

    /// Push a relative-slowdown sample through Page–Hinkley; on a trip,
    /// run the drift transition. Consumes the lock guard so the
    /// transition can re-take state without deadlock.
    fn observe_slowdown(&self, mut inner: parking_lot::MutexGuard<'_, Inner>, x: f64) -> bool {
        let statistic = inner.ph.update(x, self.config.ph_delta);
        let warmed = inner.ph.n >= self.config.ph_warmup;
        if warmed && statistic > self.config.ph_lambda {
            self.drift_locked(&mut inner);
            true
        } else {
            false
        }
    }

    /// Export the full learned state — per-cluster arms, drift
    /// detector, generation, stage — for `core::persist` snapshots.
    /// Clusters are emitted in sorted key order so the encoding is
    /// deterministic (snapshot CRCs are stable across captures of the
    /// same state).
    // lint:allow-fn(no-alloc) snapshot export runs off the decide path
    pub fn export_state(&self) -> crate::persist::OnlineState {
        let inner = self.inner.lock();
        let mut clusters: Vec<crate::persist::ClusterSnapshot> = inner
            .clusters
            .iter()
            .map(|(key, cluster)| crate::persist::ClusterSnapshot {
                key: *key,
                arms: cluster
                    .arms
                    .iter()
                    .map(|a| crate::persist::ArmState {
                        prior: a.prior,
                        pulls: a.pulls,
                        completions: a.completions,
                        sum_duration_s: a.sum_duration_s,
                        disabled: a.disabled,
                    })
                    .collect(),
            })
            .collect();
        clusters.sort_by_key(|c| c.key);
        crate::persist::OnlineState {
            adaptive: self.is_adaptive(),
            generation: self.generation(),
            shipped: self.shipped.clone(),
            ph_n: inner.ph.n as u64,
            ph_mean_x: inner.ph.mean_x,
            ph_m: inner.ph.m,
            ph_min_m: inner.ph.min_m,
            clusters,
        }
    }

    /// Apply a previously exported state. Validates before touching
    /// anything: the shipped set must match exactly, the snapshot
    /// generation must not be older than the live one (monotonicity —
    /// a restored reward stream must never resurrect a pre-drift
    /// regime), and the drift-detector registers must be finite.
    /// Individual clusters whose arms are malformed (wrong arity,
    /// non-finite or negative statistics, `completions > pulls`) are
    /// dropped rather than poisoning the bandit; the return value is
    /// the number of clusters dropped. A restored adaptive selector
    /// resumes in the adaptive stage with its evidence intact.
    // lint:allow-fn(no-alloc) snapshot restore is a cold startup path
    pub fn restore_state(
        &self,
        state: &crate::persist::OnlineState,
    ) -> std::result::Result<u64, String> {
        if state.shipped != self.shipped {
            return Err(format!(
                "shipped set mismatch: snapshot has {} configs, live selector {}",
                state.shipped.len(),
                self.shipped.len()
            ));
        }
        if state.generation < self.generation() {
            return Err(format!(
                "generation regression: snapshot {} < live {}",
                state.generation,
                self.generation()
            ));
        }
        if state.ph_n > u32::MAX as u64
            || !state.ph_mean_x.is_finite()
            || !state.ph_m.is_finite()
            || !state.ph_min_m.is_finite()
        {
            return Err("drift-detector registers out of range".to_string());
        }
        let mut dropped = 0u64;
        let mut clusters = HashMap::with_capacity(state.clusters.len());
        for cluster in &state.clusters {
            let valid = cluster.arms.len() == self.shipped.len()
                && cluster.arms.iter().all(|a| {
                    a.prior.is_finite()
                        && a.prior >= 0.0
                        && a.sum_duration_s.is_finite()
                        && a.sum_duration_s >= 0.0
                        && a.completions <= a.pulls
                });
            if !valid {
                dropped += 1;
                continue;
            }
            clusters.insert(
                cluster.key,
                ClusterState {
                    arms: cluster
                        .arms
                        .iter()
                        .map(|a| Arm {
                            prior: a.prior,
                            pulls: a.pulls,
                            completions: a.completions,
                            sum_duration_s: a.sum_duration_s,
                            disabled: a.disabled,
                        })
                        .collect(),
                },
            );
        }
        let mut inner = self.inner.lock();
        inner.clusters = clusters;
        inner.ph = PageHinkley {
            n: state.ph_n as u32,
            mean_x: state.ph_mean_x,
            m: state.ph_m,
            min_m: state.ph_min_m,
        };
        drop(inner);
        self.generation.store(state.generation, Ordering::Release); // atomic:role(publish)
        self.adaptive.store(state.adaptive, Ordering::Release); // atomic:role(flag)
        Ok(dropped)
    }

    /// Declare drift now, regardless of the detector — for operators
    /// who *know* the device changed (e.g. a scheduled swap).
    pub fn force_drift(&self) {
        let mut inner = self.inner.lock();
        self.drift_locked(&mut inner);
    }

    /// The drift transition: reset bandit statistics (old-device
    /// evidence is now misinformation), reset the detector, bump the
    /// decision-cache generation and enter the adaptive stage.
    fn drift_locked(&self, inner: &mut Inner) {
        inner.clusters.clear();
        inner.ph.reset();
        // Advance the selector generation *before* flipping adaptive on:
        // a reward captured under the old generation must already see
        // the new value and be dropped.
        self.generation.fetch_add(1, Ordering::AcqRel); // atomic:role(publish)
        self.adaptive.store(true, Ordering::Release); // atomic:role(flag)
        self.cached.invalidate_generation();
        self.cached.telemetry().record_drift_event();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cached() -> Arc<CachedSelector> {
        Arc::new(CachedSelector::new(crate::cache::tests::trained()))
    }

    #[test]
    fn priors_must_cover_the_shipped_set() {
        let cached = cached();
        let shipped = cached.selector().configs().len();
        let result = OnlineSelector::new(cached, vec![0.5; shipped + 1], OnlineConfig::default());
        assert!(matches!(
            result,
            Err(CoreError::PriorsMismatch { priors, shipped: live })
                if priors == shipped + 1 && live == shipped
        ));
    }

    #[test]
    fn exported_clusters_are_sorted_and_restore_byte_identically() {
        let cached = cached();
        let priors = vec![0.5; cached.selector().configs().len()];
        let online =
            OnlineSelector::new(Arc::clone(&cached), priors.clone(), OnlineConfig::default())
                .unwrap();
        let generation = online.generation();
        // Ten m values a factor of four apart: ten distinct clusters.
        for i in 0..10u32 {
            let shape = GemmShape::new(1 << (2 * i), 256, 64);
            for (slot, &config) in online.shipped().iter().enumerate() {
                let duration = 1e-4 * (1 + i as usize + slot) as f64;
                online.record_success(&shape, config, duration, generation);
                online.record_success(&shape, config, duration * 1.01, generation);
            }
        }
        assert!(!online.is_adaptive(), "the rewards must not trip drift");

        let state = online.export_state();
        assert!(
            state.clusters.len() >= 8,
            "{} clusters",
            state.clusters.len()
        );
        assert!(
            state.clusters.windows(2).all(|w| w[0].key < w[1].key),
            "clusters must be exported in strictly ascending key order"
        );
        let fresh = OnlineSelector::new(cached, priors, OnlineConfig::default()).unwrap();
        assert_eq!(fresh.restore_state(&state).unwrap(), 0);
        assert_eq!(
            serde_json::to_string(&fresh.export_state()).unwrap(),
            serde_json::to_string(&state).unwrap()
        );
    }

    #[test]
    fn page_hinkley_ignores_stationary_noise() {
        let mut ph = PageHinkley::default();
        let mut worst: f64 = 0.0;
        for i in 0..1000 {
            // ±3 % multiplicative noise around 1.0, like the sim clock.
            let x = 1.0 + 0.03 * ((i * 2654435761u64 % 200) as f64 / 100.0 - 1.0);
            worst = worst.max(ph.update(x, 0.05));
        }
        assert!(worst < 1.0, "stationary stream must not trip ({worst})");
    }

    #[test]
    fn page_hinkley_trips_on_sustained_slowdown() {
        let mut ph = PageHinkley::default();
        for _ in 0..50 {
            ph.update(1.0, 0.05);
        }
        let mut tripped_at = None;
        for i in 0..20 {
            if ph.update(30.0, 0.05) > 25.0 {
                tripped_at = Some(i);
                break;
            }
        }
        assert!(
            matches!(tripped_at, Some(i) if i <= 3),
            "a 30x slowdown must trip within a few samples ({tripped_at:?})"
        );
    }
}
