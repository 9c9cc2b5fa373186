//! Serving layer: a shape→configuration decision cache in front of the
//! trained selector.
//!
//! The paper's pitch for decision trees is *deployment latency*: the
//! selector sits on the hot path of every GEMM dispatch. In a serving
//! system the same handful of layer shapes recurs millions of times, so
//! the model only ever needs to run once per distinct shape — after
//! that the decision is a hash-map lookup. [`CachedSelector`] wraps a
//! trained [`Selector`] with exactly that memoisation:
//!
//! * the memo is one [`DecisionCache`] table behind one mutex. A single
//!   ingress dispatcher makes every serving decision, so the lock is
//!   uncontended there; it stays so the selector can still be shared by
//!   `Arc` between an executor and its online layer;
//! * every decision updates a [`SelectionTelemetry`] record — hit/miss
//!   counters, per-shipped-configuration pick counts and latency
//!   buckets — in one short critical section, cheap enough to leave on
//!   in production and exactly what you need to see whether the
//!   shipped set still matches the traffic mix.

use crate::mix::MixMap;
use crate::persist::{BloomState, CacheEntryState, CacheRestoreStats, CacheShardState, CacheState};
use crate::select::Selector;
use crate::telemetry::SelectionTelemetry;
use crate::Result;
use autokernel_gemm::GemmShape;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

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
    counters: Vec<u8>,
    hashes: u32,
    observed: u64,
}

impl CountingBloom {
    /// A filter with `counters` 8-bit slots probed by `hashes` hash
    /// functions (both clamped to at least 1).
    pub fn new(counters: usize, hashes: u32) -> Self {
        CountingBloom {
            counters: vec![0; counters.max(1)],
            hashes: hashes.max(1),
            observed: 0,
        }
    }

    /// The `hashes` counter indices `shape` probes among `len`: double
    /// hashing from the two halves of the stable 64-bit shape hash,
    /// which is computed once for all the probes.
    fn probes(shape: &GemmShape, hashes: u32, len: usize) -> impl Iterator<Item = usize> {
        let h = shape.stable_hash();
        let h1 = h ^ (h >> 32);
        // Odd multiplier keeps the stride co-prime with power-of-two
        // table sizes; |1 guards the degenerate zero stride.
        let h2 = (h >> 17).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..hashes)
            .map(move |i| (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % len as u64) as usize)
    }

    /// Count one occurrence of `shape` and return the *new* estimated
    /// occurrence count (the minimum probed counter after increment).
    /// Increments saturate, so a counter never wraps back to "rare"
    /// once a shape has earned its admission.
    pub fn observe(&mut self, shape: &GemmShape) -> u8 {
        self.observed += 1;
        let mut min = u8::MAX;
        for idx in Self::probes(shape, self.hashes, self.counters.len()) {
            if let Some(counter) = self.counters.get_mut(idx) {
                *counter = counter.saturating_add(1);
                min = min.min(*counter);
            }
        }
        min
    }

    /// Estimated occurrence count of `shape` (minimum probed counter;
    /// an over-estimate with Bloom false-positive probability).
    pub fn estimate(&self, shape: &GemmShape) -> u8 {
        let mut min = u8::MAX;
        for idx in Self::probes(shape, self.hashes, self.counters.len()) {
            if let Some(&counter) = self.counters.get(idx) {
                min = min.min(counter);
            }
        }
        min
    }

    /// Total `observe` calls so far.
    pub fn observed(&self) -> u64 {
        self.observed
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
/// ([`DecisionCache::bounded`]).
#[derive(Debug, Clone, Copy)]
pub struct BoundedCacheConfig {
    /// Maximum entries in the table (at least one).
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

/// One cached decision, linked into the table's recency list.
#[derive(Debug)]
struct Node {
    shape: GemmShape,
    config_index: usize,
    /// LRU tick of the latest use.
    last_used: u64,
    /// The next less recently used node.
    older: Option<usize>,
    /// The next more recently used node.
    newer: Option<usize>,
}

/// Everything the cache's lock guards: the entries as nodes of a
/// doubly linked recency list over a slab, so a hit, an insert and an
/// eviction each relink O(1) nodes and a hit allocates nothing.
#[derive(Debug, Default)]
struct Table {
    /// Shape → its node's slot in `nodes`, on the keyed
    /// [`crate::mix`] hasher. Never iterated: exports walk `nodes`.
    index: MixMap<GemmShape, usize>,
    /// One node per entry. An evicted node's slot is reused at once by
    /// the entry that evicted it, so no slot is ever vacant.
    nodes: Vec<Node>,
    oldest: Option<usize>,
    newest: Option<usize>,
    tick: u64,
    bloom: Option<CountingBloom>,
    evictions: u64,
    admission_rejects: u64,
}

impl Table {
    /// A hit: touch the entry and return its decision.
    fn get(&mut self, shape: &GemmShape) -> Option<usize> {
        let slot = *self.index.get(shape)?;
        self.touch(slot);
        self.nodes.get(slot).map(|node| node.config_index)
    }

    /// Stamp the entry in `slot` with a fresh tick and move it to the
    /// most recent end.
    fn touch(&mut self, slot: usize) {
        self.unlink(slot);
        self.tick += 1;
        if let Some(node) = self.nodes.get_mut(slot) {
            node.last_used = self.tick;
        }
        self.link_newest(slot);
    }

    /// Store a new entry in `slot` (a node just evicted) or in a new
    /// node, and link it in as the most recently used.
    fn add(&mut self, shape: GemmShape, config_index: usize, last_used: u64, slot: Option<usize>) {
        let node = Node {
            shape,
            config_index,
            last_used,
            older: None,
            newer: None,
        };
        let slot = match slot.and_then(|slot| self.nodes.get_mut(slot).map(|free| (slot, free))) {
            Some((slot, free)) => {
                *free = node;
                slot
            }
            None => {
                // lint:allow(no-alloc) a new entry grows the slab once; evictions reuse slots
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.index.insert(shape, slot);
        self.link_newest(slot);
    }

    /// Forget the least-recently-used entry, returning its slot.
    fn evict_lru(&mut self) -> Option<usize> {
        let slot = self.oldest?;
        self.unlink(slot);
        let shape = self.nodes.get(slot)?.shape;
        self.index.remove(&shape);
        self.evictions += 1;
        Some(slot)
    }

    fn unlink(&mut self, slot: usize) {
        let Some(node) = self.nodes.get(slot) else {
            return;
        };
        let (older, newer) = (node.older, node.newer);
        match older.and_then(|o| self.nodes.get_mut(o)) {
            Some(node) => node.newer = newer,
            None => self.oldest = newer,
        }
        match newer.and_then(|n| self.nodes.get_mut(n)) {
            Some(node) => node.older = older,
            None => self.newest = older,
        }
    }

    fn link_newest(&mut self, slot: usize) {
        let newest = self.newest;
        if let Some(node) = self.nodes.get_mut(slot) {
            node.older = newest;
            node.newer = None;
        }
        match newest.and_then(|n| self.nodes.get_mut(n)) {
            Some(node) => node.newer = Some(slot),
            None => self.oldest = Some(slot),
        }
        self.newest = Some(slot);
    }

    fn drop_entries(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.oldest = None;
        self.newest = None;
    }
}

/// A map from GEMM shape to the chosen global configuration index: one
/// table behind one mutex.
///
/// Two modes:
///
/// * **Unbounded** ([`DecisionCache::new`]) — every distinct shape is
///   memoised forever. Right when the workload is a fixed model zoo.
/// * **Bounded** ([`DecisionCache::bounded`]) — a hard capacity with
///   exact least-recently-used eviction over the whole table and a
///   [`CountingBloom`] admission filter, so an unbounded stream of
///   *distinct* shapes (a million-tenant ingress) cannot grow memory
///   without bound. LRU (rather than CLOCK) is deliberate: its stack
///   property makes hit rates monotone in capacity, which
///   `tests/ingress_serving.rs` pins.
///
/// Every entry is the trained model's answer for its shape, and the
/// model never changes while serving, so nothing invalidates entries;
/// a retrained model gets a fresh cache. A drift trip leaves the table
/// alone: the online layer's adaptive stage never reads it.
#[derive(Debug, Default)]
pub struct DecisionCache {
    table: Mutex<Table>,
    /// Entry bound; `None` in unbounded mode.
    capacity: Option<usize>,
    admit_threshold: u8,
}

impl DecisionCache {
    /// Create an unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a capacity-bounded cache: at most `config.capacity`
    /// entries, LRU-evicting, fronted by a counting-Bloom admission
    /// filter.
    pub fn bounded(config: BoundedCacheConfig) -> Self {
        let table = Table {
            bloom: Some(CountingBloom::new(
                config.bloom_counters,
                config.bloom_hashes,
            )),
            ..Table::default()
        };
        DecisionCache {
            table: Mutex::new(table),
            capacity: Some(config.capacity.max(1)),
            admit_threshold: config.admit_threshold.max(1),
        }
    }

    /// Look up a cached decision. A hit refreshes the entry's LRU
    /// stamp.
    pub fn get(&self, shape: &GemmShape) -> Option<usize> {
        self.table.lock().get(shape)
    }

    /// Store a decision. Returns the previous value, if any.
    ///
    /// In bounded mode a *new* shape must first clear the Bloom
    /// admission threshold (its decision is simply not memoised until
    /// it has recurred enough), and an admitted insert into a full
    /// table evicts the least-recently-used entry.
    pub fn insert(&self, shape: GemmShape, config_index: usize) -> Option<usize> {
        let mut guard = self.table.lock();
        let table = &mut *guard;
        if let Some(&slot) = table.index.get(&shape) {
            let previous = table
                .nodes
                .get_mut(slot)
                .map(|node| std::mem::replace(&mut node.config_index, config_index));
            table.touch(slot);
            return previous;
        }
        let rejected = table
            .bloom
            .as_mut()
            .is_some_and(|bloom| bloom.observe(&shape) < self.admit_threshold);
        if rejected {
            table.admission_rejects += 1;
            return None;
        }
        let full = self.capacity.is_some_and(|cap| table.index.len() >= cap);
        let slot = if full { table.evict_lru() } else { None };
        table.tick += 1;
        table.add(shape, config_index, table.tick, slot);
        None
    }

    /// Number of distinct shapes cached.
    pub fn len(&self) -> usize {
        self.table.lock().index.len()
    }

    /// Entries held — the number the capacity bound constrains. Equal
    /// to [`DecisionCache::len`]: invalidation drops entries rather
    /// than leaving stale ones in place.
    pub fn footprint(&self) -> usize {
        self.len()
    }

    /// Whether no decision is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The total entry capacity, or `None` in unbounded mode.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted to make room (0 in unbounded mode).
    pub fn evictions(&self) -> u64 {
        self.table.lock().evictions
    }

    /// Inserts the Bloom admission filter rejected (the shape had not
    /// yet recurred `admit_threshold` times).
    pub fn admission_rejects(&self) -> u64 {
        self.table.lock().admission_rejects
    }

    /// Export the warm set — entries with their LRU stamps, the tick,
    /// and the Bloom admission counters — for `core::persist`
    /// snapshots, as one shard. Entries are sorted by stable shape hash
    /// so the encoding (and hence the section CRC) is deterministic for
    /// a given cache state.
    pub fn export_state(&self) -> CacheState {
        let table = self.table.lock();
        let mut entries: Vec<CacheEntryState> = table
            .nodes
            .iter()
            .map(|node| CacheEntryState {
                shape: node.shape,
                config_index: node.config_index,
                last_used: node.last_used,
            })
            .collect();
        entries.sort_by_key(|e| e.shape.stable_hash());
        let bloom = table.bloom.as_ref().map(|b| BloomState {
            hashes: b.hashes,
            observed: b.observed,
            counters: b.counters.iter().map(|&c| u64::from(c)).collect(),
        });
        CacheState {
            shards: vec![CacheShardState {
                tick: table.tick,
                entries,
            }],
            bloom,
        }
    }

    /// Re-warm the cache from an exported state. The entries of every
    /// saved shard merge into the one table, so a snapshot written by a
    /// sharded cache restores whole. Entries whose configuration is no longer in
    /// `shipped` are skipped, as are entries that would overflow a
    /// bounded table (restore never evicts; the most recently used
    /// entries are admitted first). The recency list is relinked in
    /// ascending `last_used` order, so the saved LRU order survives.
    /// Bloom counters apply only when the live filter has the same
    /// geometry; otherwise they are left cold and
    /// [`CacheRestoreStats::bloom_restored`] is false.
    // lint:allow-fn(no-alloc) snapshot restore is a cold startup path
    pub fn restore_state(&self, state: &CacheState, shipped: &[usize]) -> CacheRestoreStats {
        let mut guard = self.table.lock();
        let table = &mut *guard;
        // The live entries, then the saved ones, most recent first, while
        // they fit.
        let mut merged: HashMap<GemmShape, (usize, u64)> = table
            .nodes
            .iter()
            .map(|node| (node.shape, (node.config_index, node.last_used)))
            .collect();
        let mut saved: Vec<&CacheEntryState> =
            state.shards.iter().flat_map(|s| &s.entries).collect();
        saved.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        let mut restored = 0u64;
        let mut skipped = 0u64;
        for entry in saved {
            let full = self.capacity.is_some_and(|cap| merged.len() >= cap);
            if !shipped.contains(&entry.config_index)
                || (full && !merged.contains_key(&entry.shape))
            {
                skipped += 1;
                continue;
            }
            merged.insert(entry.shape, (entry.config_index, entry.last_used));
            restored += 1;
        }
        // Relink from the least recently used up.
        let mut order: Vec<(GemmShape, (usize, u64))> = merged.into_iter().collect();
        order.sort_by_key(|&(shape, (_, last_used))| (last_used, shape.stable_hash()));
        table.drop_entries();
        for (shape, (config_index, last_used)) in order {
            table.tick = table.tick.max(last_used);
            table.add(shape, config_index, last_used, None);
        }
        let saved_tick = state.shards.iter().map(|s| s.tick).max().unwrap_or(0);
        table.tick = table.tick.max(saved_tick);
        let bloom_restored = match (&mut table.bloom, &state.bloom) {
            (Some(live), Some(saved))
                if live.counters.len() == saved.counters.len() && live.hashes == saved.hashes =>
            {
                for (counter, &value) in live.counters.iter_mut().zip(&saved.counters) {
                    *counter = value.min(u64::from(u8::MAX)) as u8;
                }
                live.observed = saved.observed;
                true
            }
            (None, None) => true,
            _ => false,
        };
        CacheRestoreStats {
            entries_restored: restored,
            entries_skipped: skipped,
            bloom_restored,
        }
    }
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

/// A [`Selector`] wrapped with the decision cache and telemetry. Cheap
/// to share across threads (`&self` everywhere).
pub struct CachedSelector {
    selector: Arc<Selector>,
    cache: DecisionCache,
    telemetry: SelectionTelemetry,
}

impl CachedSelector {
    /// Wrap `selector` with an unbounded cache.
    pub fn new(selector: Arc<Selector>) -> Self {
        Self::with_cache(selector, DecisionCache::new())
    }

    /// Wrap `selector` with a capacity-bounded, Bloom-admitted cache
    /// ([`DecisionCache::bounded`]) — the ingress-facing mode where the
    /// shape stream is unbounded and the decision cache must not be.
    pub fn with_bounded_cache(selector: Arc<Selector>, config: BoundedCacheConfig) -> Self {
        Self::with_cache(selector, DecisionCache::bounded(config))
    }

    fn with_cache(selector: Arc<Selector>, cache: DecisionCache) -> Self {
        let telemetry = SelectionTelemetry::new(selector.configs());
        CachedSelector {
            selector,
            cache,
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

    /// [`CachedSelector::select`] as a `u16` configuration index. Kept
    /// only because the end-to-end benchmark still times it; it will be
    /// removed.
    #[deprecated(note = "use `select_outcome`, the one decision path")]
    pub fn decide(&self, shape: &GemmShape) -> Result<u16> {
        let config_index = self.select(shape)?;
        u16::try_from(config_index).map_err(|_| crate::CoreError::BadConfigIndex(config_index))
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

    /// The underlying cache (for capacity, eviction and footprint
    /// inspection).
    pub fn cache(&self) -> &DecisionCache {
        &self.cache
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
        let (s, d) = (
            by_select.telemetry().export_state(),
            by_decide.telemetry().export_state(),
        );
        assert!(s.hits > 0 && by_select.cache().evictions() > 0);
        assert!(by_select.cache().admission_rejects() > 0);
        assert_eq!((d.hits, d.misses), (s.hits, s.misses));
        assert_eq!(d.picks, s.picks);
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
        let t = cached.telemetry().snapshot();
        assert_eq!(t.misses, 5);
        assert_eq!(t.hits, 10);
        let picked: u64 = t.picks.iter().map(|p| p.count).sum();
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
    fn decision_cache_basics() {
        let cache = DecisionCache::new();
        assert!(cache.is_empty());
        let s = GemmShape::new(10, 20, 30);
        assert_eq!(cache.get(&s), None);
        assert_eq!(cache.insert(s, 42), None);
        assert_eq!(cache.insert(s, 43), Some(42));
        assert_eq!(cache.get(&s), Some(43));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    /// A snapshot written by a sharded cache, whose per-shard ticks
    /// repeat across shards, restores whole into the one table: every
    /// entry comes back, the saved LRU order survives (the next
    /// admitted insert evicts the entry with the oldest saved tick), and
    /// so do the Bloom counters.
    #[test]
    fn sharded_snapshot_restores_whole_with_its_lru_order() {
        let config = BoundedCacheConfig {
            capacity: 6,
            bloom_counters: 64,
            bloom_hashes: 2,
            admit_threshold: 1,
        };
        let shape = |i: usize| GemmShape::new(16 * i, 32, 48);
        let donor = DecisionCache::bounded(config);
        for i in 1..=3 {
            donor.insert(shape(i), i);
        }
        let bloom = donor.export_state().bloom;
        let shard = |tick: u64, entries: &[(usize, u64)]| CacheShardState {
            tick,
            entries: entries
                .iter()
                .map(|&(i, last_used)| CacheEntryState {
                    shape: shape(i),
                    config_index: i,
                    last_used,
                })
                .collect(),
        };
        let state = CacheState {
            shards: vec![
                shard(9, &[(1, 5), (2, 9)]),
                shard(5, &[(3, 5), (4, 2)]),
                shard(9, &[(5, 9), (6, 7)]),
            ],
            bloom: bloom.clone(),
        };
        let cache = DecisionCache::bounded(config);
        let stats = cache.restore_state(&state, &[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(stats.entries_restored, 6);
        assert_eq!(stats.entries_skipped, 0);
        assert!(stats.bloom_restored);
        let restored_bloom = cache.export_state().bloom.expect("bounded cache");
        let saved_bloom = bloom.expect("bounded donor");
        assert_eq!(restored_bloom.counters, saved_bloom.counters);
        assert_eq!(restored_bloom.observed, saved_bloom.observed);

        cache.insert(shape(7), 7);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(&shape(4)), None, "oldest saved tick is evicted");
        for i in [1, 2, 3, 5, 6, 7] {
            assert_eq!(cache.get(&shape(i)), Some(i));
        }
    }
}
