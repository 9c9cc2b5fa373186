//! Concurrent serving layer: a sharded shape→configuration decision
//! cache with selection telemetry.
//!
//! The paper's pitch for decision trees is *deployment latency*: the
//! selector sits on the hot path of every GEMM dispatch. In a serving
//! system the same handful of layer shapes recurs millions of times, so
//! the model only ever needs to run once per distinct shape — after
//! that the decision is a hash-map lookup. [`CachedSelector`] wraps a
//! trained [`Selector`] with exactly that memoisation:
//!
//! * the cache is split into [`DEFAULT_SHARDS`] independent
//!   [`RwLock`]-protected shards, indexed by the shape's
//!   [`GemmShape::stable_hash`], so read-mostly traffic from many
//!   threads never contends on a single lock;
//! * every decision updates a lock-free [`SelectionTelemetry`] block —
//!   hit/miss counters, per-shipped-configuration pick counts and
//!   latency accumulators — cheap enough to leave on in production and
//!   exactly what you need to see whether the shipped set still matches
//!   the traffic mix.

use crate::select::Selector;
use crate::Result;
use autokernel_gemm::GemmShape;
use parking_lot::RwLock;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default shard count: enough to make lock collisions rare at typical
/// host thread counts without bloating the cache's footprint.
pub const DEFAULT_SHARDS: usize = 16;

/// A counting Bloom filter over GEMM shapes: a fixed array of 8-bit
/// saturating counters indexed by `k` double-hashed probes of the
/// shape's stable hash.
///
/// The ingress layer uses it as a TinyLFU-style *admission* front on
/// the bounded decision cache: a shape only earns a cache slot once the
/// filter has counted it [`BoundedCacheConfig::admit_threshold`] times,
/// so a million one-hit-wonder shapes cost 1 byte of counter each
/// (amortised) instead of a map entry — the Stream-K++ trick for
/// keeping adaptive GEMM decision caches bounded under unbounded shape
/// streams. Counters only ever increase (saturating at 255): the filter
/// estimates "has this shape been seen at least t times", and
/// over-estimates at exactly the classic Bloom false-positive rate.
#[derive(Debug)]
pub struct CountingBloom {
    counters: Vec<AtomicU8>,
    hashes: u32,
    observed: AtomicU64,
}

impl CountingBloom {
    /// A filter with `counters` 8-bit slots probed by `hashes` hash
    /// functions (both clamped to at least 1).
    pub fn new(counters: usize, hashes: u32) -> Self {
        CountingBloom {
            counters: (0..counters.max(1)).map(|_| AtomicU8::new(0)).collect(),
            hashes: hashes.max(1),
            observed: AtomicU64::new(0),
        }
    }

    /// The probe index sequence for `shape`: double hashing from the
    /// two halves of the stable 64-bit shape hash.
    fn probe(&self, shape: &GemmShape, i: u32) -> usize {
        let h = shape.stable_hash();
        let h1 = h ^ (h >> 32);
        // Odd multiplier keeps the stride co-prime with power-of-two
        // table sizes; |1 guards the degenerate zero stride.
        let h2 = (h >> 17).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.counters.len() as u64) as usize
    }

    /// Count one occurrence of `shape` and return the *new* estimated
    /// occurrence count (the minimum probed counter after increment).
    pub fn observe(&self, shape: &GemmShape) -> u8 {
        self.observed.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        let mut min = u8::MAX;
        for i in 0..self.hashes {
            let idx = self.probe(shape, i);
            let Some(counter) = self.counters.get(idx) else {
                continue;
            };
            // Saturating increment via CAS: counters never wrap back to
            // "rare" once a shape has earned its admission.
            let mut current = counter.load(Ordering::Relaxed); // atomic:role(counter)
            loop {
                if current == u8::MAX {
                    break;
                }
                // atomic:role(counter)
                match counter.compare_exchange_weak(
                    current,
                    current + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        current += 1;
                        break;
                    }
                    Err(seen) => current = seen,
                }
            }
            min = min.min(current);
        }
        min
    }

    /// Estimated occurrence count of `shape` (minimum probed counter;
    /// an over-estimate with Bloom false-positive probability).
    pub fn estimate(&self, shape: &GemmShape) -> u8 {
        let mut min = u8::MAX;
        for i in 0..self.hashes {
            let idx = self.probe(shape, i);
            if let Some(counter) = self.counters.get(idx) {
                min = min.min(counter.load(Ordering::Relaxed)); // atomic:role(counter)
            }
        }
        min
    }

    /// Total `observe` calls so far.
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// The configured counter-array size.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// The classic Bloom false-positive bound for `n` distinct inserted
    /// keys: `(1 - e^(-k·n/m))^k`. A query for a never-seen shape reads
    /// a non-zero minimum counter with at most this probability.
    pub fn false_positive_bound(&self, n: u64) -> f64 {
        let m = self.counters.len() as f64;
        let k = self.hashes as f64;
        (1.0 - (-k * n as f64 / m).exp()).powf(k)
    }
}

/// Knobs for the capacity-bounded cache mode
/// ([`ShardedCache::bounded`]).
#[derive(Debug, Clone, Copy)]
pub struct BoundedCacheConfig {
    /// Maximum live entries across all shards (split evenly per shard,
    /// at least one per shard).
    pub capacity: usize,
    /// Counting-Bloom counter slots fronting admission.
    pub bloom_counters: usize,
    /// Bloom probe count `k`.
    pub bloom_hashes: u32,
    /// Occurrences a shape must accumulate before it earns a cache
    /// slot. 1 admits on first sight (plain bounded LRU); 2 filters
    /// one-hit wonders.
    pub admit_threshold: u8,
}

impl Default for BoundedCacheConfig {
    fn default() -> Self {
        BoundedCacheConfig {
            capacity: 4096,
            bloom_counters: 1 << 16,
            bloom_hashes: 4,
            admit_threshold: 2,
        }
    }
}

/// One cached decision, stamped with the cache generation it was made
/// under (entries from older generations are treated as absent) and an
/// LRU timestamp touched on every live read.
#[derive(Debug)]
struct CacheEntry {
    generation: u64,
    config_index: usize,
    last_used: AtomicU64,
}

/// One independent slice of the cache: its map plus the LRU tick
/// counter its entries are stamped from.
#[derive(Debug)]
struct Shard {
    map: RwLock<HashMap<GemmShape, CacheEntry>>,
    tick: AtomicU64,
}

/// A sharded concurrent map from GEMM shape to the chosen global
/// configuration index.
///
/// Two modes:
///
/// * **Unbounded** ([`ShardedCache::new`]) — the original serving
///   cache: every distinct shape is memoised forever. Right when the
///   workload is a fixed model zoo.
/// * **Bounded** ([`ShardedCache::bounded`]) — a hard capacity with
///   per-shard LRU eviction and a [`CountingBloom`] admission filter,
///   so an unbounded stream of *distinct* shapes (a million-tenant
///   ingress) cannot grow memory without bound. LRU (rather than
///   CLOCK) is deliberate: its stack property makes hit rates
///   monotone in capacity, which `tests/ingress_serving.rs` pins.
///
/// Invalidation comes in two flavours: [`ShardedCache::clear`] drops
/// entries eagerly (one write lock per shard), while
/// [`ShardedCache::bump_generation`] is an O(1) atomic increment that
/// makes every existing entry stale at once — the drift path in
/// [`crate::online`] uses it so a device-profile shift can invalidate
/// thousands of cached decisions without stalling concurrent readers.
/// In bounded mode stale entries still occupy their slot (the bound is
/// a *memory* bound) but are evicted preferentially.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Shard>,
    generation: AtomicU64,
    /// Live-entry capacity per shard; 0 means unbounded.
    per_shard_capacity: usize,
    bloom: Option<CountingBloom>,
    admit_threshold: u8,
    evictions: AtomicU64,
    admission_rejects: AtomicU64,
}

impl ShardedCache {
    /// Create an unbounded cache with `n_shards` independent shards.
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        ShardedCache {
            shards: (0..n)
                .map(|_| Shard {
                    map: RwLock::new(HashMap::new()),
                    tick: AtomicU64::new(0),
                })
                .collect(),
            generation: AtomicU64::new(0),
            per_shard_capacity: 0,
            bloom: None,
            admit_threshold: 1,
            evictions: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
        }
    }

    /// Create a capacity-bounded cache: at most `config.capacity`
    /// entries total (split over `n_shards`), LRU-evicting, fronted by
    /// a counting-Bloom admission filter.
    pub fn bounded(n_shards: usize, config: BoundedCacheConfig) -> Self {
        let mut cache = Self::new(n_shards);
        let n = cache.shards.len();
        cache.per_shard_capacity = (config.capacity / n).max(1);
        cache.bloom = Some(CountingBloom::new(
            config.bloom_counters,
            config.bloom_hashes,
        ));
        cache.admit_threshold = config.admit_threshold.max(1);
        cache
    }

    fn shard_of(&self, shape: &GemmShape) -> &Shard {
        // stable_hash is FNV-style; fold the high bits in so shard
        // choice isn't at the mercy of the low bits alone.
        let h = shape.stable_hash();
        let idx = ((h ^ (h >> 32)) as usize) % self.shards.len();
        // lint:allow(no-index) idx is reduced modulo shards.len() above
        &self.shards[idx]
    }

    /// Look up a cached decision (read lock on one shard only). Entries
    /// written before the last [`ShardedCache::bump_generation`] read as
    /// absent. A live hit refreshes the entry's LRU stamp.
    pub fn get(&self, shape: &GemmShape) -> Option<usize> {
        let generation = self.generation.load(Ordering::Acquire); // atomic:role(publish)
        let shard = self.shard_of(shape);
        let map = shard.map.read();
        let entry = map.get(shape).filter(|e| e.generation == generation)?;
        // atomic:role(tick)
        entry.last_used.store(
            shard.tick.fetch_add(1, Ordering::Relaxed) + 1, // atomic:role(tick)
            Ordering::Relaxed,
        );
        Some(entry.config_index)
    }

    /// Store a decision under the current generation. Returns the
    /// previous live value, if any (stale entries count as absent).
    ///
    /// In bounded mode a *new* shape must first clear the Bloom
    /// admission threshold (its decision is simply not memoised until
    /// it has recurred enough), and an admitted insert into a full
    /// shard evicts the least-recently-used entry — stale-generation
    /// entries first.
    pub fn insert(&self, shape: GemmShape, config_index: usize) -> Option<usize> {
        let generation = self.generation.load(Ordering::Acquire); // atomic:role(publish)
        let shard = self.shard_of(&shape);
        let mut map = shard.map.write();
        let tick = shard.tick.fetch_add(1, Ordering::Relaxed) + 1; // atomic:role(tick)
        if let Some(entry) = map.get_mut(&shape) {
            let previous = (entry.generation == generation).then_some(entry.config_index);
            entry.generation = generation;
            entry.config_index = config_index;
            entry.last_used.store(tick, Ordering::Relaxed); // atomic:role(tick)
            return previous;
        }
        if let Some(bloom) = &self.bloom {
            if bloom.observe(&shape) < self.admit_threshold {
                self.admission_rejects.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
                return None;
            }
        }
        if self.per_shard_capacity > 0 && map.len() >= self.per_shard_capacity {
            self.evict_one(&mut map, generation);
        }
        map.insert(
            shape,
            CacheEntry {
                generation,
                config_index,
                last_used: AtomicU64::new(tick),
            },
        );
        None
    }

    /// Remove the best eviction victim from `map`: any stale-generation
    /// entry if one exists, else the least-recently-used live entry.
    fn evict_one(&self, map: &mut HashMap<GemmShape, CacheEntry>, generation: u64) {
        let victim = map
            .iter()
            .map(|(shape, entry)| {
                let stale = entry.generation != generation;
                // Stale entries sort before every live one.
                let key = (!stale, entry.last_used.load(Ordering::Relaxed)); // atomic:role(tick)
                (*shape, key)
            })
            .min_by(|a, b| a.1.cmp(&b.1))
            .map(|(shape, _)| shape);
        if let Some(shape) = victim {
            map.remove(&shape);
            self.evictions.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
        }
    }

    /// Number of distinct shapes cached across all shards (current
    /// generation only).
    pub fn len(&self) -> usize {
        let generation = self.generation.load(Ordering::Acquire); // atomic:role(publish)
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .read()
                    .values()
                    .filter(|e| e.generation == generation)
                    .count()
            })
            .sum()
    }

    /// Total entries held, live *and* stale — the number the capacity
    /// bound actually constrains.
    pub fn footprint(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Whether no live decision is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached decision (e.g. after retraining the selector).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().clear();
        }
    }

    /// Invalidate every cached decision in O(1) by advancing the cache
    /// generation. Stale entries are filtered on read and overwritten on
    /// the next insert for their shape; no lock is taken.
    pub fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1 // atomic:role(publish)
    }

    /// The current cache generation (starts at 0, advanced by
    /// [`ShardedCache::bump_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire) // atomic:role(publish)
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The total entry capacity, or `None` in unbounded mode.
    pub fn capacity(&self) -> Option<usize> {
        (self.per_shard_capacity > 0).then(|| self.per_shard_capacity * self.shards.len())
    }

    /// Entries evicted to make room (0 in unbounded mode).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// Inserts the Bloom admission filter rejected (the shape had not
    /// yet recurred `admit_threshold` times).
    pub fn admission_rejects(&self) -> u64 {
        self.admission_rejects.load(Ordering::Relaxed) // atomic:role(counter)
    }

    /// The Bloom admission filter, when in bounded mode.
    pub fn bloom(&self) -> Option<&CountingBloom> {
        self.bloom.as_ref()
    }

    /// Export the warm set — current-generation entries with their LRU
    /// stamps, per-shard ticks, and the Bloom admission counters — for
    /// `core::persist` snapshots. Entries are sorted by stable shape
    /// hash so the encoding (and hence the section CRC) is
    /// deterministic for a given cache state.
    pub fn export_state(&self) -> crate::persist::CacheState {
        let generation = self.generation.load(Ordering::Acquire); // atomic:role(publish)
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let map = shard.map.read();
                let mut entries: Vec<crate::persist::CacheEntryState> = map
                    .iter()
                    .filter(|(_, e)| e.generation == generation)
                    .map(|(shape, e)| crate::persist::CacheEntryState {
                        shape: *shape,
                        config_index: e.config_index,
                        last_used: e.last_used.load(Ordering::Relaxed), // atomic:role(tick)
                    })
                    .collect();
                entries.sort_by_key(|e| e.shape.stable_hash());
                crate::persist::CacheShardState {
                    tick: shard.tick.load(Ordering::Relaxed), // atomic:role(tick)
                    entries,
                }
            })
            .collect();
        let bloom = self.bloom.as_ref().map(|b| crate::persist::BloomState {
            hashes: b.hashes,
            observed: b.observed(),
            counters: b
                .counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed) as u64) // atomic:role(counter)
                .collect(),
        });
        crate::persist::CacheState {
            generation,
            shards,
            bloom,
        }
    }

    /// Re-warm the cache from an exported state. The snapshot
    /// generation must not be behind the live one (a drift trip after
    /// capture must not be undone); entries whose configuration is no
    /// longer in `shipped` are skipped, as are entries that would
    /// overflow a bounded shard (restore never evicts live entries).
    /// Entries re-route through the *current* shard function, so a
    /// snapshot taken under a different shard count still restores.
    /// Bloom counters apply only when the live filter has the same
    /// geometry; otherwise they are left cold and
    /// [`crate::persist::CacheRestoreStats::bloom_restored`] is false.
    // lint:allow-fn(no-alloc) snapshot restore is a cold startup path
    pub fn restore_state(
        &self,
        state: &crate::persist::CacheState,
        shipped: &[usize],
    ) -> std::result::Result<crate::persist::CacheRestoreStats, String> {
        let live = self.generation.load(Ordering::Acquire); // atomic:role(publish)
        if state.generation < live {
            return Err(format!(
                "cache generation regression: snapshot {} < live {}",
                state.generation, live
            ));
        }
        self.generation.store(state.generation, Ordering::Release); // atomic:role(publish)
        let max_tick = state.shards.iter().map(|s| s.tick).max().unwrap_or(0);
        for shard in &self.shards {
            let current = shard.tick.load(Ordering::Relaxed); // atomic:role(tick)
            shard.tick.store(current.max(max_tick), Ordering::Relaxed); // atomic:role(tick)
        }
        let mut restored = 0u64;
        let mut skipped = 0u64;
        for saved_shard in &state.shards {
            for entry in &saved_shard.entries {
                if !shipped.contains(&entry.config_index) {
                    skipped += 1;
                    continue;
                }
                let shard = self.shard_of(&entry.shape);
                let mut map = shard.map.write();
                if self.per_shard_capacity > 0
                    && map.len() >= self.per_shard_capacity
                    && !map.contains_key(&entry.shape)
                {
                    skipped += 1;
                    continue;
                }
                map.insert(
                    entry.shape,
                    CacheEntry {
                        generation: state.generation,
                        config_index: entry.config_index,
                        last_used: AtomicU64::new(entry.last_used),
                    },
                );
                restored += 1;
            }
        }
        let bloom_restored = match (&self.bloom, &state.bloom) {
            (Some(live), Some(saved))
                if live.counters.len() == saved.counters.len() && live.hashes == saved.hashes =>
            {
                for (counter, &value) in live.counters.iter().zip(&saved.counters) {
                    // atomic:role(counter)
                    counter.store(value.min(u8::MAX as u64) as u8, Ordering::Relaxed);
                }
                live.observed.store(saved.observed, Ordering::Relaxed); // atomic:role(counter)
                true
            }
            (None, None) => true,
            _ => false,
        };
        Ok(crate::persist::CacheRestoreStats {
            entries_restored: restored,
            entries_skipped: skipped,
            bloom_restored,
        })
    }
}

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

    /// Record one sample of `nanos` (0 is clamped to 1). Lock-free,
    /// allocation-free. The release on `count` publishes the bucket
    /// increment to acquire readers.
    pub fn record(&self, nanos: u64) {
        let idx = 63 - nanos.max(1).leading_zeros() as usize;
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed); // atomic:role(counter)
            self.count.fetch_add(1, Ordering::Release); // atomic:role(publish)
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
    fn new(shipped: &[usize]) -> Self {
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

    fn record(&self, hit: bool, nanos: u64, config_index: usize) {
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

    /// Drift-detector trips (each re-ranks the bandit and bumps the
    /// decision-cache generation).
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

/// The outcome of one cached selection, for threading into launch
/// traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionOutcome {
    /// Global kernel configuration index chosen.
    pub config_index: usize,
    /// Whether the decision came from the cache.
    pub cache_hit: bool,
}

impl From<SelectionOutcome> for autokernel_sycl_sim::trace::LaunchDecision {
    fn from(o: SelectionOutcome) -> Self {
        autokernel_sycl_sim::trace::LaunchDecision::new(o.config_index, o.cache_hit)
    }
}

/// A [`Selector`] wrapped with the sharded decision cache and
/// telemetry. Cheap to share across threads (`&self` everywhere).
pub struct CachedSelector {
    selector: Arc<Selector>,
    cache: ShardedCache,
    telemetry: SelectionTelemetry,
}

impl CachedSelector {
    /// Wrap `selector` with a [`DEFAULT_SHARDS`]-way cache.
    pub fn new(selector: Arc<Selector>) -> Self {
        Self::with_shards(selector, DEFAULT_SHARDS)
    }

    /// Wrap `selector` with an explicit shard count.
    pub fn with_shards(selector: Arc<Selector>, n_shards: usize) -> Self {
        let telemetry = SelectionTelemetry::new(selector.configs());
        CachedSelector {
            selector,
            cache: ShardedCache::new(n_shards),
            telemetry,
        }
    }

    /// Wrap `selector` with a capacity-bounded, Bloom-admitted cache
    /// ([`ShardedCache::bounded`]) — the ingress-facing mode where the
    /// shape stream is unbounded and the decision cache must not be.
    pub fn with_bounded_cache(
        selector: Arc<Selector>,
        n_shards: usize,
        config: BoundedCacheConfig,
    ) -> Self {
        let telemetry = SelectionTelemetry::new(selector.configs());
        CachedSelector {
            selector,
            cache: ShardedCache::bounded(n_shards, config),
            telemetry,
        }
    }

    /// Select a configuration index for `shape`, memoised. Identical to
    /// [`Selector::select_shape`] in its results — only faster on
    /// repeated shapes.
    pub fn select(&self, shape: &GemmShape) -> Result<usize> {
        Ok(self.select_outcome(shape)?.config_index)
    }

    /// Like [`CachedSelector::select`], also reporting whether the
    /// decision came from the cache (for launch tracing).
    pub fn select_outcome(&self, shape: &GemmShape) -> Result<SelectionOutcome> {
        let start = Instant::now();
        if let Some(config_index) = self.cache.get(shape) {
            self.telemetry
                .record(true, start.elapsed().as_nanos() as u64, config_index);
            return Ok(SelectionOutcome {
                config_index,
                cache_hit: true,
            });
        }
        let config_index = self.selector.select_shape(shape)?;
        self.cache.insert(*shape, config_index);
        self.telemetry
            .record(false, start.elapsed().as_nanos() as u64, config_index);
        Ok(SelectionOutcome {
            config_index,
            cache_hit: false,
        })
    }

    /// Select for many shapes in parallel (rayon), through the cache.
    pub fn select_batch(&self, shapes: &[GemmShape]) -> Result<Vec<usize>> {
        shapes.par_iter().map(|s| self.select(s)).collect()
    }

    /// [`CachedSelector::select`] as a `u16` configuration index. Kept
    /// only because the end-to-end benchmark still times it; it will be
    /// removed.
    #[deprecated(note = "use `select_outcome`, the one decision path")]
    pub fn decide(&self, shape: &GemmShape) -> Result<u16> {
        let config_index = self.select(shape)?;
        u16::try_from(config_index).map_err(|_| crate::CoreError::BadConfigIndex(config_index))
    }

    /// Run the model for every shape up front so later traffic is all
    /// cache hits. Warm-up counts as misses in the telemetry.
    pub fn warm(&self, shapes: &[GemmShape]) -> Result<()> {
        self.select_batch(shapes).map(|_| ())
    }

    /// The wrapped selector.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// The live telemetry block.
    pub fn telemetry(&self) -> &SelectionTelemetry {
        &self.telemetry
    }

    /// Number of distinct shapes currently cached.
    pub fn cached_shapes(&self) -> usize {
        self.cache.len()
    }

    /// The underlying cache (for shard-level inspection).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Forget every cached decision, keeping telemetry history.
    pub fn invalidate(&self) {
        self.cache.clear();
    }

    /// Forget every cached decision in O(1) via a generation bump —
    /// the drift-invalidation path. Returns the new generation.
    pub fn invalidate_generation(&self) -> u64 {
        self.cache.bump_generation()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataset::PerformanceDataset;
    use crate::prune::PruneMethod;
    use crate::select::{Selector, SelectorKind};
    use autokernel_sycl_sim::DeviceSpec;

    pub(crate) fn trained() -> Arc<Selector> {
        let shapes: Vec<(GemmShape, String)> = [
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
        ]
        .iter()
        .map(|&(m, k, n)| (GemmShape::new(m, k, n), "T".to_string()))
        .collect();
        let ds = PerformanceDataset::collect(&DeviceSpec::amd_r9_nano(), &shapes).unwrap();
        let train: Vec<usize> = (0..ds.n_shapes()).collect();
        let configs = PruneMethod::TopN.select(&ds, &train, 5, 0).unwrap();
        Arc::new(Selector::train(SelectorKind::DecisionTree, &ds, &train, &configs, 0).unwrap())
    }

    #[test]
    #[allow(deprecated)]
    fn cached_agrees_with_uncached() {
        let sel = trained();
        let cached = CachedSelector::new(Arc::clone(&sel));
        for shape in [
            GemmShape::new(64, 64, 64),
            GemmShape::new(300, 300, 300),
            GemmShape::new(7, 4096, 1000),
        ] {
            let direct = sel.select_shape(&shape).unwrap();
            assert_eq!(cached.select(&shape).unwrap(), direct);
            // Second call must come from the cache and still agree.
            assert_eq!(cached.select(&shape).unwrap(), direct);
        }

        // The deprecated `decide` is `select_outcome` by another name:
        // twin bounded caches fed the same stream give the same configs
        // and the same counts, Bloom admission and LRU eviction included.
        let bounded = || {
            CachedSelector::with_bounded_cache(
                Arc::clone(&sel),
                2,
                BoundedCacheConfig {
                    capacity: 8,
                    admit_threshold: 2,
                    ..BoundedCacheConfig::default()
                },
            )
        };
        let (by_select, by_decide) = (bounded(), bounded());
        let mut stream = Vec::new();
        for _ in 0..3 {
            for i in 1..=16 {
                let shape = GemmShape::new(i * 24, 96 + i * 8, 64);
                stream.push(shape);
                if i % 3 == 0 {
                    stream.push(shape);
                }
            }
        }
        for shape in &stream {
            let config = by_select.select_outcome(shape).unwrap().config_index;
            assert_eq!(
                by_decide.decide(shape).unwrap() as usize,
                config,
                "{shape:?}"
            );
        }
        let (s, d) = (by_select.telemetry(), by_decide.telemetry());
        assert!(s.hits() > 0 && by_select.cache().evictions() > 0);
        assert!(by_select.cache().admission_rejects() > 0);
        assert_eq!((d.hits(), d.misses()), (s.hits(), s.misses()));
        assert_eq!(d.picks(), s.picks());
        assert_eq!(by_decide.cache().evictions(), by_select.cache().evictions());
        assert_eq!(
            by_decide.cache().admission_rejects(),
            by_select.cache().admission_rejects()
        );
        assert_eq!(by_decide.cache().footprint(), by_select.cache().footprint());
    }

    #[test]
    fn telemetry_counts_hits_misses_and_picks() {
        let cached = CachedSelector::new(trained());
        let shapes: Vec<GemmShape> = (1..=5).map(|i| GemmShape::new(i * 32, 128, 64)).collect();
        for shape in &shapes {
            cached.select(shape).unwrap();
        }
        for shape in &shapes {
            cached.select(shape).unwrap();
            cached.select(shape).unwrap();
        }
        let t = cached.telemetry();
        assert_eq!(t.misses(), 5);
        assert_eq!(t.hits(), 10);
        assert_eq!(t.total(), 15);
        assert!((t.hit_rate() - 10.0 / 15.0).abs() < 1e-12);
        let picked: u64 = t.picks().iter().map(|&(_, n)| n).sum();
        assert_eq!(picked, 15, "every selection lands in a shipped slot");
        assert_eq!(cached.cached_shapes(), 5);
    }

    #[test]
    fn outcome_reports_cache_hit_flag() {
        let cached = CachedSelector::new(trained());
        let shape = GemmShape::new(640, 640, 640);
        let first = cached.select_outcome(&shape).unwrap();
        let second = cached.select_outcome(&shape).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.config_index, second.config_index);
    }

    #[test]
    fn invalidate_forces_remodelling() {
        let cached = CachedSelector::new(trained());
        let shape = GemmShape::new(96, 96, 96);
        cached.select(&shape).unwrap();
        assert_eq!(cached.cached_shapes(), 1);
        cached.invalidate();
        assert_eq!(cached.cached_shapes(), 0);
        let again = cached.select_outcome(&shape).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(cached.telemetry().misses(), 2);
    }

    #[test]
    fn batch_matches_singles_and_warms_cache() {
        let sel = trained();
        let cached = CachedSelector::with_shards(Arc::clone(&sel), 4);
        let shapes: Vec<GemmShape> = (1..=12).map(|i| GemmShape::new(i * 17, 256, 96)).collect();
        let batch = cached.select_batch(&shapes).unwrap();
        for (shape, &idx) in shapes.iter().zip(&batch) {
            assert_eq!(sel.select_shape(shape).unwrap(), idx);
        }
        assert_eq!(cached.cached_shapes(), shapes.len());
        // Everything is warm now: a second batch is pure hits.
        let before = cached.telemetry().hits();
        cached.select_batch(&shapes).unwrap();
        assert_eq!(cached.telemetry().hits(), before + shapes.len() as u64);
    }

    #[test]
    fn sharded_cache_basics() {
        let cache = ShardedCache::new(8);
        assert_eq!(cache.shard_count(), 8);
        assert!(cache.is_empty());
        let s = GemmShape::new(10, 20, 30);
        assert_eq!(cache.get(&s), None);
        assert_eq!(cache.insert(s, 42), None);
        assert_eq!(cache.insert(s, 43), Some(42));
        assert_eq!(cache.get(&s), Some(43));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = ShardedCache::new(0);
        assert_eq!(cache.shard_count(), 1);
    }

    #[test]
    fn generation_bump_invalidates_without_locks() {
        let cache = ShardedCache::new(4);
        let a = GemmShape::new(10, 20, 30);
        let b = GemmShape::new(40, 50, 60);
        cache.insert(a, 1);
        cache.insert(b, 2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.generation(), 0);

        assert_eq!(cache.bump_generation(), 1);
        assert_eq!(cache.get(&a), None, "stale entry reads as absent");
        assert_eq!(cache.get(&b), None);
        assert!(cache.is_empty());

        // Re-inserting under the new generation revives the slot; the
        // stale previous value does not leak out as "previous".
        assert_eq!(cache.insert(a, 7), None);
        assert_eq!(cache.get(&a), Some(7));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_generation_forces_remodelling() {
        let cached = CachedSelector::new(trained());
        let shape = GemmShape::new(96, 96, 96);
        cached.select(&shape).unwrap();
        assert_eq!(cached.cached_shapes(), 1);
        cached.invalidate_generation();
        assert_eq!(cached.cached_shapes(), 0);
        let again = cached.select_outcome(&shape).unwrap();
        assert!(!again.cache_hit, "stale decision must not be served");
    }

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
}
