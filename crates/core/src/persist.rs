//! Durable serving-state snapshots with corruption-tolerant warm
//! restart.
//!
//! A serving process accumulates state that is expensive to relearn:
//! per-cluster bandit posteriors and the drift generation in
//! [`crate::online`], the warm decision-cache set with its LRU ticks
//! and Bloom admission counters in [`crate::cache`], measured per-shard
//! cost models and condemnation stamps in [`crate::sched`], and the
//! telemetry histograms operators alarm on. A crash or rolling restart
//! throws all of it away and pays the full ~860-launch adaptation
//! latency again. This module makes that state durable:
//!
//! * **Format** — a versioned envelope (`magic` + format version +
//!   sequence number) of independent *sections*, each the compact
//!   serde_json encoding of one state block with its own CRC-32. The
//!   device spec is itself a section, and its CRC doubles as the
//!   snapshot's device fingerprint.
//! * **Atomic writes** — [`Snapshot::save`] writes `<path>.tmp`, fsyncs
//!   and renames, so a crash mid-write leaves the previous snapshot
//!   intact (a torn rename leaves a stray `.tmp` the loader ignores).
//! * **Corruption-tolerant restore** — every section validates
//!   independently (CRC, parse, shipped-set equality, generation
//!   monotonicity, device fingerprint). A bad section is salvaged
//!   around and named in [`RestoreOutcome::Partial`]; a wholly
//!   unreadable snapshot degrades to [`RestoreOutcome::ColdStart`] with
//!   a typed [`SnapshotError`]. Nothing in the restore path panics.
//! * **Fault injection** — [`SnapshotFaultInjector`] deterministically
//!   corrupts a snapshot file (truncation, bit flips, torn rename,
//!   stale version, wrong device) in the spirit of `sycl-sim`'s fault
//!   plans, so crash-recovery behaviour is testable without real
//!   crashes.
//! * **Cross-device transplant** — [`Snapshot::transplant`] re-seeds a
//!   fresh device's bandit priors from another device's measured arm
//!   evidence, and [`nearest`] picks the donor snapshot whose device
//!   spec is closest in log-feature space — the "train once, warm-start
//!   everywhere" reuse the follow-up paper argues for.
//!
//! The background snapshotter lives in [`crate::ingress`]: the
//! dispatcher captures the fleet every
//! [`SnapshotterConfig::every_chunks`] chunks and once more on drain,
//! and [`crate::Ingress::start_restored`] warm-starts a scheduler from
//! the last snapshot on disk.

use crate::cache::CachedSelector;
use crate::online::OnlineSelector;
use crate::sched::ShardedScheduler;
pub use crate::telemetry::TelemetryState;
use autokernel_gemm::GemmShape;
use autokernel_sycl_sim::DeviceSpec;
use serde::Value;
use std::path::{Path, PathBuf};

/// Magic string opening every snapshot envelope.
pub const SNAPSHOT_MAGIC: &str = "autokernel-snapshot";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Reflected CRC-32 (IEEE, polynomial `0xEDB88320`) over `bytes` —
/// the per-section checksum. Bitwise (no table) because snapshots are
/// written at background cadence, not on the launch hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// The device fingerprint: CRC-32 of the device spec's compact JSON
/// encoding. Restore refuses to apply learned state to a device whose
/// fingerprint differs (use [`Snapshot::transplant`] instead).
pub fn device_fingerprint(spec: &DeviceSpec) -> u32 {
    match serde_json::to_string(spec) {
        Ok(json) => crc32(json.as_bytes()),
        // A spec that cannot serialise can never match a stored CRC;
        // the sentinel makes the mismatch explicit rather than silent.
        Err(_) => u32::MAX,
    }
}

// ---------------------------------------------------------------------
// Serialisable state blocks (captured/applied by their owning modules).
// ---------------------------------------------------------------------

/// One bandit arm's statistics (`core::online`'s `Arm`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ArmState {
    /// Offline prior performance in `[0, 1]`.
    pub prior: f64,
    /// Times this arm was charged with an outcome.
    pub pulls: u64,
    /// Completed launches among `pulls`.
    pub completions: u64,
    /// Total simulated seconds across completions.
    pub sum_duration_s: f64,
    /// Structurally rejected this generation.
    pub disabled: bool,
}

/// One shape-cluster's bandit state. Arms with `pulls == 0` are the
/// forced-sampling frontier: the adaptive stage samples them first in
/// prior order, so the cursor survives the round trip implicitly.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ClusterSnapshot {
    /// The cluster's lattice point in quantised log-shape space.
    pub key: [i64; 3],
    /// One arm per shipped slot, in shipped order.
    pub arms: Vec<ArmState>,
}

/// The online layer's full learned state.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OnlineState {
    /// Whether the adaptive (post-drift) stage was active.
    pub adaptive: bool,
    /// Selector generation at capture time.
    pub generation: u64,
    /// The shipped configuration indices (restore refuses a mismatch).
    pub shipped: Vec<usize>,
    /// Page–Hinkley sample count.
    pub ph_n: u64,
    /// Page–Hinkley running mean.
    pub ph_mean_x: f64,
    /// Page–Hinkley cumulative statistic.
    pub ph_m: f64,
    /// Page–Hinkley running minimum of `ph_m`.
    pub ph_min_m: f64,
    /// Per-cluster arms, sorted by key for deterministic encoding.
    pub clusters: Vec<ClusterSnapshot>,
}

/// One warm decision-cache entry.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheEntryState {
    /// The memoised shape.
    pub shape: GemmShape,
    /// The decided global configuration index.
    pub config_index: usize,
    /// The entry's LRU stamp.
    pub last_used: u64,
}

/// One slice of the cache's entries and its LRU tick. The cache exports
/// its one table as a single shard; snapshots written when the cache was
/// split into shards carry one per shard, and restore merges them.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheShardState {
    /// The LRU tick counter.
    pub tick: u64,
    /// The cached entries.
    pub entries: Vec<CacheEntryState>,
}

/// The counting-Bloom admission filter's counters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BloomState {
    /// Probe count `k`.
    pub hashes: u32,
    /// Total observations so far.
    pub observed: u64,
    /// The 8-bit counters, widened for the JSON shim.
    pub counters: Vec<u64>,
}

/// The decision cache's warm state. Snapshots written by older builds
/// also carry a `generation` field, which restore ignores.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheState {
    /// Entries and ticks: one shard from the current cache.
    pub shards: Vec<CacheShardState>,
    /// Admission-filter counters (bounded mode only).
    pub bloom: Option<BloomState>,
}

/// Outcome counters of a cache-state restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheRestoreStats {
    /// Entries re-inserted into the live cache.
    pub entries_restored: u64,
    /// Entries skipped (capacity pressure or an unknown config index).
    pub entries_skipped: u64,
    /// Whether the Bloom counters were applied (false on a
    /// shape/config mismatch between snapshot and live filter).
    pub bloom_restored: bool,
}

/// One fleet shard's durable state.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetShardState {
    /// The shard's label (the restore-time match key).
    pub label: String,
    /// Fingerprint of the shard's own device spec.
    pub device_crc: u32,
    /// Whether the shard was live.
    pub alive: bool,
    /// Requests served (cumulative).
    pub served: u64,
    /// Batches executed (cumulative).
    pub batches: u64,
    /// Reference-GEMM degradations (cumulative).
    pub reference_fallbacks: u64,
    /// FLOPs completed under the scheduler — the measured cost model's
    /// numerator.
    pub flops_done: f64,
    /// Device-clock seconds elapsed since the shard joined — the
    /// measured cost model's denominator.
    pub elapsed_s: f64,
    /// Condemnation stamp (0 = never condemned).
    pub condemned_seq: u64,
    /// The shard's online layer, when it has one.
    pub online: Option<OnlineState>,
    /// The shard's decision cache.
    pub cache: CacheState,
    /// The shard's telemetry block.
    pub telemetry: TelemetryState,
}

/// The whole fleet's durable state.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FleetState {
    /// The scheduler's condemnation-stamp source.
    pub condemn_counter: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<FleetShardState>,
}

// ---------------------------------------------------------------------
// Errors and outcomes.
// ---------------------------------------------------------------------

/// Why a snapshot could not be read or applied. Every variant is a
/// degraded-but-typed path: callers fall back to cold start, never
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(String),
    /// The envelope is not parseable (or its device section is gone, so
    /// provenance cannot be verified).
    Malformed(String),
    /// The file does not open with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The envelope's format version is not the supported one.
    VersionSkew {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The snapshot was captured on a different device.
    DeviceMismatch {
        /// Fingerprint of the live device.
        expected: u32,
        /// Fingerprint stored in the snapshot.
        found: u32,
    },
    /// The envelope was readable but no section could be applied.
    NothingRestored,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::VersionSkew { found, supported } => {
                write!(f, "snapshot version {found} unsupported (want {supported})")
            }
            SnapshotError::DeviceMismatch { expected, found } => write!(
                f,
                "snapshot device fingerprint {found:#010x} does not match live device {expected:#010x}"
            ),
            SnapshotError::NothingRestored => {
                write!(f, "snapshot had no applicable sections")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What a restore achieved. `Partial` names every dropped piece so the
/// degradation is observable; `ColdStart` means the caller should serve
/// from scratch exactly as if no snapshot existed.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreOutcome {
    /// Every section applied cleanly.
    Full,
    /// Some sections applied; the named pieces were salvaged around.
    Partial {
        /// Section (or sub-section) names that failed validation.
        dropped: Vec<String>,
    },
    /// Nothing usable: serve cold, with the typed reason.
    ColdStart {
        /// Why the snapshot was unusable.
        error: SnapshotError,
    },
}

impl RestoreOutcome {
    /// Whether any learned state was recovered.
    pub fn is_warm(&self) -> bool {
        !matches!(self, RestoreOutcome::ColdStart { .. })
    }

    /// The dropped-section names (empty unless `Partial`).
    pub fn dropped(&self) -> &[String] {
        match self {
            RestoreOutcome::Partial { dropped } => dropped,
            _ => &[],
        }
    }
}

// ---------------------------------------------------------------------
// The snapshot itself.
// ---------------------------------------------------------------------

/// A point-in-time capture of the learned serving state, round-tripped
/// through the versioned, checksummed envelope described in the module
/// docs.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`] when written by this
    /// build).
    pub version: u32,
    /// Monotone sequence number stamped by the snapshotter.
    pub seq: u64,
    /// The device the state was learned on.
    pub device: DeviceSpec,
    /// The device section's CRC — the snapshot's device fingerprint.
    pub device_crc: u32,
    /// The online layer's state, when captured.
    pub online: Option<OnlineState>,
    /// The decision cache's state, when captured.
    pub cache: Option<CacheState>,
    /// The telemetry counters, when captured.
    pub telemetry: Option<TelemetryState>,
    /// The fleet scheduler's state, when captured.
    pub fleet: Option<FleetState>,
    /// Sections dropped while *loading* (CRC or parse failures); merged
    /// into the restore outcome.
    pub dropped: Vec<String>,
}

impl Snapshot {
    /// An empty snapshot fingerprinted for `device`.
    pub fn new(device: &DeviceSpec) -> Self {
        Snapshot {
            version: SNAPSHOT_VERSION,
            seq: 0,
            device: device.clone(),
            device_crc: device_fingerprint(device),
            online: None,
            cache: None,
            telemetry: None,
            fleet: None,
            dropped: Vec::new(),
        }
    }

    /// The same snapshot with sequence number `seq`.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Capture a single-device serving stack: the online layer plus the
    /// decision cache and telemetry behind it.
    pub fn capture_stack(mut self, online: &OnlineSelector) -> Self {
        let (online_state, cache, telemetry) = capture(online.cached(), Some(online));
        self.online = online_state;
        self.cache = Some(cache);
        self.telemetry = Some(telemetry);
        self
    }

    /// Capture a whole fleet: per-shard cost models, health, and each
    /// shard's nested online/cache/telemetry state.
    pub fn capture_fleet(mut self, scheduler: &ShardedScheduler) -> Self {
        self.fleet = Some(scheduler.export_state());
        self
    }

    /// Encode the envelope as compact JSON: magic, version, sequence,
    /// then one `{name, crc, body}` object per captured section, each
    /// body an independently checksummed compact-JSON string.
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        let mut sections = Vec::new();
        sections.push(encode_section("device", &self.device)?);
        if let Some(state) = &self.online {
            sections.push(encode_section("online", state)?);
        }
        if let Some(state) = &self.cache {
            sections.push(encode_section("cache", state)?);
        }
        if let Some(state) = &self.telemetry {
            sections.push(encode_section("telemetry", state)?);
        }
        if let Some(state) = &self.fleet {
            sections.push(encode_section("fleet", state)?);
        }
        let envelope = Value::Object(vec![
            ("magic".to_string(), Value::Str(SNAPSHOT_MAGIC.to_string())),
            ("version".to_string(), Value::Num(self.version as f64)),
            ("seq".to_string(), Value::Num(self.seq as f64)),
            ("sections".to_string(), Value::Array(sections)),
        ]);
        serde_json::to_string(&envelope).map_err(|e| SnapshotError::Malformed(e.to_string()))
    }

    /// Decode an envelope. Hard failures (unparseable envelope, bad
    /// magic, version skew, unverifiable device) are typed errors;
    /// individual section failures (CRC mismatch, parse failure,
    /// unknown name) land in [`Snapshot::dropped`] and the rest of the
    /// snapshot is salvaged.
    pub fn from_json(text: &str) -> Result<Snapshot, SnapshotError> {
        let root: Value =
            serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        if root.get("magic").and_then(Value::as_str) != Some(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        let version = root
            .get("version")
            .and_then(Value::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .unwrap_or(0);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionSkew {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let seq = root.get("seq").and_then(Value::as_u64).unwrap_or(0);
        let sections = root
            .get("sections")
            .and_then(Value::as_array)
            .ok_or_else(|| SnapshotError::Malformed("missing sections array".into()))?;

        let mut dropped = Vec::new();
        let mut device: Option<(DeviceSpec, u32)> = None;
        let mut online = None;
        let mut cache = None;
        let mut telemetry = None;
        let mut fleet = None;
        for section in sections {
            let name = section
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let crc = section.get("crc").and_then(Value::as_u64);
            let body = section.get("body").and_then(Value::as_str);
            let (Some(crc), Some(body)) = (crc, body) else {
                dropped.push(name);
                continue;
            };
            if u64::from(crc32(body.as_bytes())) != crc {
                dropped.push(name);
                continue;
            }
            match name.as_str() {
                "device" => match serde_json::from_str::<DeviceSpec>(body) {
                    Ok(spec) => device = Some((spec, crc as u32)),
                    Err(_) => dropped.push(name),
                },
                "online" => match serde_json::from_str::<OnlineState>(body) {
                    Ok(state) => online = Some(state),
                    Err(_) => dropped.push(name),
                },
                "cache" => match serde_json::from_str::<CacheState>(body) {
                    Ok(state) => cache = Some(state),
                    Err(_) => dropped.push(name),
                },
                "telemetry" => match serde_json::from_str::<TelemetryState>(body) {
                    Ok(state) => telemetry = Some(state),
                    Err(_) => dropped.push(name),
                },
                "fleet" => match serde_json::from_str::<FleetState>(body) {
                    Ok(state) => fleet = Some(state),
                    Err(_) => dropped.push(name),
                },
                _ => dropped.push(name),
            }
        }
        // Without a verifiable device section the learned state has no
        // provenance; applying it blind could poison a mismatched
        // device, so the whole snapshot is refused (cold start).
        let Some((device, device_crc)) = device else {
            return Err(SnapshotError::Malformed(
                "device section missing or corrupt: provenance unverifiable".into(),
            ));
        };
        Ok(Snapshot {
            version,
            seq,
            device,
            device_crc,
            online,
            cache,
            telemetry,
            fleet,
            dropped,
        })
    }

    /// Atomically persist the snapshot: write `<path>.tmp`, fsync,
    /// rename over `path`. A crash at any point leaves either the old
    /// snapshot or the new one — never a torn file at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        let tmp = tmp_path(path);
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        {
            use std::io::Write as _;
            let mut file = std::fs::File::create(&tmp).map_err(io)?;
            file.write_all(json.as_bytes()).map_err(io)?;
            file.sync_all().map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Load a snapshot from disk ([`Snapshot::from_json`] semantics).
    /// Stray `.tmp` files from torn renames are never read.
    pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        let text =
            std::fs::read_to_string(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_json(&text)
    }

    /// Apply the snapshot to a single-device serving stack. `device` is
    /// the stack's live device spec; a fingerprint mismatch refuses the
    /// whole snapshot (use [`Snapshot::transplant`] for cross-device
    /// seeding). Sections validate independently: a failed one is named
    /// in [`RestoreOutcome::Partial`] while the rest apply. A restored
    /// selector that was adaptive resumes adaptive with its priors and
    /// arm evidence intact.
    pub fn restore_stack(&self, online: &OnlineSelector, device: &DeviceSpec) -> RestoreOutcome {
        let expected = device_fingerprint(device);
        if expected != self.device_crc {
            return RestoreOutcome::ColdStart {
                error: SnapshotError::DeviceMismatch {
                    expected,
                    found: self.device_crc,
                },
            };
        }
        let mut dropped = self.dropped.clone();
        let saved = (
            self.online.as_ref(),
            self.cache.as_ref(),
            self.telemetry.as_ref(),
        );
        let applied = restore(online.cached(), Some(online), saved, "", &mut dropped);
        if applied == 0 {
            return RestoreOutcome::ColdStart {
                error: SnapshotError::NothingRestored,
            };
        }
        if dropped.is_empty() {
            RestoreOutcome::Full
        } else {
            RestoreOutcome::Partial { dropped }
        }
    }

    /// Apply a fleet snapshot to a live scheduler. Shards match by
    /// label; each shard re-checks its own device fingerprint, and
    /// every nested piece (cost model, online, cache, telemetry)
    /// validates independently. A dropped piece carries the name
    /// [`Snapshot::restore_stack`] would give it, after
    /// `fleet.<label>.` (e.g. `fleet.nano.online:1-clusters`).
    pub fn restore_fleet(
        &self,
        scheduler: &mut ShardedScheduler,
        device: &DeviceSpec,
    ) -> RestoreOutcome {
        let expected = device_fingerprint(device);
        if expected != self.device_crc {
            return RestoreOutcome::ColdStart {
                error: SnapshotError::DeviceMismatch {
                    expected,
                    found: self.device_crc,
                },
            };
        }
        let Some(state) = &self.fleet else {
            return RestoreOutcome::ColdStart {
                error: SnapshotError::NothingRestored,
            };
        };
        let mut dropped = self.dropped.clone();
        dropped.extend(scheduler.restore_state(state));
        if dropped.is_empty() {
            RestoreOutcome::Full
        } else {
            RestoreOutcome::Partial { dropped }
        }
    }

    /// Re-seed a *different* device's bandit from this snapshot's
    /// measured evidence (ROADMAP's train-once/warm-start-everywhere
    /// item). Per cluster, every arm with completions folds its
    /// relative performance (`best_mean / mean`, discounted by
    /// completion rate) into the prior; pull counts, durations and the
    /// drift detector reset, because absolute timings do not transfer
    /// across devices while relative rankings largely do. The result
    /// carries `to`'s fingerprint and starts Adaptive, so the fresh
    /// device explores from the donor's ranking instead of from
    /// scratch. Device-specific sections (cache, telemetry, fleet) are
    /// deliberately not carried over.
    pub fn transplant(&self, to: &DeviceSpec) -> Snapshot {
        let online = self.online.as_ref().map(|state| OnlineState {
            adaptive: true,
            generation: state.generation,
            shipped: state.shipped.clone(),
            ph_n: 0,
            ph_mean_x: 0.0,
            ph_m: 0.0,
            ph_min_m: 0.0,
            clusters: state
                .clusters
                .iter()
                .map(|cluster| ClusterSnapshot {
                    key: cluster.key,
                    arms: transplant_arms(&cluster.arms),
                })
                .collect(),
        });
        Snapshot {
            version: SNAPSHOT_VERSION,
            seq: 0,
            device: to.clone(),
            device_crc: device_fingerprint(to),
            online,
            cache: None,
            telemetry: None,
            fleet: None,
            dropped: Vec::new(),
        }
    }
}

/// Fold one cluster's measured evidence into fresh transplant priors.
fn transplant_arms(arms: &[ArmState]) -> Vec<ArmState> {
    let best_mean = arms
        .iter()
        .filter(|a| a.completions > 0 && a.sum_duration_s > 0.0)
        .map(|a| a.sum_duration_s / a.completions as f64)
        .fold(f64::INFINITY, f64::min);
    arms.iter()
        .map(|a| {
            let prior = if a.completions > 0 && a.sum_duration_s > 0.0 && best_mean.is_finite() {
                let mean = a.sum_duration_s / a.completions as f64;
                let completion_rate = a.completions as f64 / a.pulls.max(1) as f64;
                ((best_mean / mean).clamp(0.0, 1.0) * completion_rate).clamp(0.0, 1.0)
            } else {
                a.prior.clamp(0.0, 1.0)
            };
            ArmState {
                prior: if prior.is_finite() { prior } else { 0.0 },
                pulls: 0,
                completions: 0,
                sum_duration_s: 0.0,
                disabled: false,
            }
        })
        .collect()
}

/// One device stack's learned state — the online layer's, when it has
/// one, then the decision cache's and the telemetry's. Stack and fleet
/// snapshots both capture through here.
pub(crate) fn capture(
    cached: &CachedSelector,
    online: Option<&OnlineSelector>,
) -> (Option<OnlineState>, CacheState, TelemetryState) {
    (
        online.map(OnlineSelector::export_state),
        cached.cache().export_state(),
        cached.telemetry().export_state(),
    )
}

/// Apply a device stack's saved pieces — online, then cache, then
/// telemetry — to the live `cached` selector and its `online` layer.
/// Each piece validates on its own; a dropped or missing one is named
/// in `dropped` after `prefix`. Returns how many pieces applied.
pub(crate) fn restore(
    cached: &CachedSelector,
    online: Option<&OnlineSelector>,
    saved: (
        Option<&OnlineState>,
        Option<&CacheState>,
        Option<&TelemetryState>,
    ),
    prefix: &str,
    dropped: &mut Vec<String>,
) -> usize {
    let (saved_online, saved_cache, saved_telemetry) = saved;
    let mut applied = 0;
    match (online, saved_online) {
        (Some(online), Some(state)) => match online.restore_state(state) {
            Ok(0) => applied += 1,
            Ok(bad_clusters) => {
                applied += 1;
                dropped.push(format!("{prefix}online:{bad_clusters}-clusters"));
            }
            Err(reason) => dropped.push(format!("{prefix}online: {reason}")),
        },
        (Some(_), None) => note_missing(dropped, &format!("{prefix}online")),
        (None, Some(_)) => dropped.push(format!("{prefix}online: no online layer attached")),
        (None, None) => {}
    }
    match saved_cache {
        Some(state) => {
            let stats = cached
                .cache()
                .restore_state(state, cached.selector().configs());
            applied += 1;
            if stats.entries_skipped > 0 {
                dropped.push(format!("{prefix}cache:{}-entries", stats.entries_skipped));
            }
            if !stats.bloom_restored {
                dropped.push(format!("{prefix}cache.bloom"));
            }
        }
        None => note_missing(dropped, &format!("{prefix}cache")),
    }
    match saved_telemetry {
        Some(state) => match cached.telemetry().restore_state(state) {
            Ok(()) => applied += 1,
            Err(reason) => dropped.push(format!("{prefix}telemetry: {reason}")),
        },
        None => note_missing(dropped, &format!("{prefix}telemetry")),
    }
    applied
}

/// Record a missing section, unless loading already recorded a failure
/// for it (a CRC-dropped section should not be reported twice).
fn note_missing(dropped: &mut Vec<String>, name: &str) {
    let already = dropped.iter().any(|d| {
        d == name || d.starts_with(&format!("{name}:")) || d.starts_with(&format!("{name}."))
    });
    if !already {
        dropped.push(format!("{name}:missing"));
    }
}

fn encode_section<T: serde::Serialize>(name: &str, value: &T) -> Result<Value, SnapshotError> {
    let body = serde_json::to_string(value)
        .map_err(|e| SnapshotError::Malformed(format!("{name}: {e}")))?;
    let crc = crc32(body.as_bytes());
    Ok(Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("crc".to_string(), Value::Num(crc as f64)),
        ("body".to_string(), Value::Str(body)),
    ]))
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

// ---------------------------------------------------------------------
// Spec-space distance for cross-device warm start.
// ---------------------------------------------------------------------

fn spec_features(spec: &DeviceSpec) -> [f64; 12] {
    [
        spec.compute_units as f64,
        spec.wave_width as f64,
        spec.simds_per_cu as f64,
        spec.max_waves_per_simd as f64,
        spec.vgprs_per_simd as f64,
        spec.lds_bytes_per_cu as f64,
        spec.max_work_group_size as f64,
        spec.peak_flops,
        spec.mem_bandwidth,
        spec.cache_bandwidth,
        spec.launch_overhead,
        spec.mem_latency,
    ]
}

/// RMS distance between two device specs in log-feature space: scale
/// differences (a 10× faster clock, a 4× wider SIMD) count by ratio,
/// not absolute magnitude, so "nearest profiled device" means nearest
/// in architecture shape.
pub fn spec_distance(a: &DeviceSpec, b: &DeviceSpec) -> f64 {
    let fa = spec_features(a);
    let fb = spec_features(b);
    let mut sum = 0.0;
    for (x, y) in fa.iter().zip(fb.iter()) {
        let d = x.max(1e-12).ln() - y.max(1e-12).ln();
        sum += d * d;
    }
    (sum / fa.len() as f64).sqrt()
}

/// The snapshot whose device is nearest to `to` by [`spec_distance`] —
/// the donor [`Snapshot::transplant`] should seed a fresh device from.
pub fn nearest<'a>(snapshots: &'a [Snapshot], to: &DeviceSpec) -> Option<&'a Snapshot> {
    snapshots.iter().min_by(|a, b| {
        spec_distance(&a.device, to)
            .total_cmp(&spec_distance(&b.device, to))
            .then(a.seq.cmp(&b.seq))
    })
}

// ---------------------------------------------------------------------
// Background snapshotter configuration (driven by `crate::ingress`).
// ---------------------------------------------------------------------

/// Where, how often, and for which device the ingress dispatcher writes
/// snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotterConfig {
    /// The snapshot file (written atomically via `<path>.tmp`).
    pub path: PathBuf,
    /// Capture every N dispatched chunks (0 disables the cadence; the
    /// final on-drain snapshot is still taken).
    pub every_chunks: u64,
    /// The fleet's front-door device spec, fingerprinted into every
    /// snapshot and checked on restore.
    pub device: DeviceSpec,
}

impl SnapshotterConfig {
    /// Snapshot to `path` for `device`, every 8 chunks by default.
    pub fn new(path: impl Into<PathBuf>, device: DeviceSpec) -> Self {
        SnapshotterConfig {
            path: path.into(),
            every_chunks: 8,
            device,
        }
    }

    /// The same config with a different chunk cadence.
    pub fn with_cadence(mut self, every_chunks: u64) -> Self {
        self.every_chunks = every_chunks;
        self
    }
}

// ---------------------------------------------------------------------
// Deterministic snapshot-fault injection.
// ---------------------------------------------------------------------

/// One way to corrupt a snapshot file, in the spirit of
/// `sycl-sim::fault`'s seeded fault plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SnapshotFault {
    /// Keep only the leading `keep_fraction` of the file (a crash
    /// mid-write without the atomic rename, or a torn disk).
    Truncate {
        /// Fraction of the file to keep, clamped to `[0, 1]`.
        keep_fraction: f64,
    },
    /// Flip `count` seeded-pseudorandom bits anywhere in the file.
    BitFlips {
        /// Number of bit flips to inject.
        count: u32,
    },
    /// Simulate a crash between the temp-file write and the rename: a
    /// half-written `<path>.tmp` appears, the real file is untouched.
    TornRename,
    /// Rewrite the envelope's format version to an unsupported value.
    StaleVersion,
    /// Re-tag a valid snapshot with a different device spec — learned
    /// state with the wrong provenance.
    WrongDevice,
}

impl SnapshotFault {
    /// A short label for reports and test names.
    pub fn label(&self) -> &'static str {
        match self {
            SnapshotFault::Truncate { .. } => "truncate",
            SnapshotFault::BitFlips { .. } => "bit-flips",
            SnapshotFault::TornRename => "torn-rename",
            SnapshotFault::StaleVersion => "stale-version",
            SnapshotFault::WrongDevice => "wrong-device",
        }
    }
}

/// Applies [`SnapshotFault`]s to snapshot files, deterministically from
/// a seed: the same seed and fault always produce the same corruption.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotFaultInjector {
    seed: u64,
}

impl SnapshotFaultInjector {
    /// An injector drawing its pseudorandomness from `seed`.
    pub fn new(seed: u64) -> Self {
        SnapshotFaultInjector { seed }
    }

    /// Corrupt the snapshot at `path` with `fault`. Truncation and bit
    /// flips rewrite the file in place; a torn rename writes a partial
    /// `<path>.tmp` beside it; stale-version and wrong-device rewrite
    /// it as a well-formed file with the poisoned field.
    pub fn inject(&self, path: impl AsRef<Path>, fault: &SnapshotFault) -> std::io::Result<()> {
        let path = path.as_ref();
        match fault {
            SnapshotFault::Truncate { keep_fraction } => {
                let bytes = std::fs::read(path)?;
                let keep = (bytes.len() as f64 * keep_fraction.clamp(0.0, 1.0)) as usize;
                std::fs::write(path, bytes.get(..keep).unwrap_or(&bytes))
            }
            SnapshotFault::BitFlips { count } => {
                let mut bytes = std::fs::read(path)?;
                if bytes.is_empty() {
                    return Ok(());
                }
                let len = bytes.len() as u64;
                for i in 0..*count {
                    let r = splitmix(self.seed, i as u64);
                    if let Some(byte) = bytes.get_mut((r % len) as usize) {
                        *byte ^= 1 << ((r >> 48) % 8);
                    }
                }
                std::fs::write(path, bytes)
            }
            SnapshotFault::TornRename => {
                let bytes = std::fs::read(path)?;
                let half = bytes.len() / 2;
                std::fs::write(tmp_path(path), bytes.get(..half).unwrap_or(&bytes))
            }
            SnapshotFault::StaleVersion => {
                let text = std::fs::read_to_string(path)?;
                let from = format!("\"version\":{SNAPSHOT_VERSION}");
                let poisoned = text.replacen(&from, "\"version\":4294967295", 1);
                std::fs::write(path, poisoned)
            }
            SnapshotFault::WrongDevice => {
                let snapshot = Snapshot::load(path).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("wrong-device injection needs a loadable snapshot: {e}"),
                    )
                })?;
                let other = [
                    DeviceSpec::host_cpu(),
                    DeviceSpec::desktop_gpu(),
                    DeviceSpec::edge_dsp(),
                ]
                .into_iter()
                .find(|c| device_fingerprint(c) != snapshot.device_crc)
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "no alternate device preset differs from the snapshot's",
                    )
                })?;
                let mut retagged = snapshot;
                retagged.device_crc = device_fingerprint(&other);
                retagged.device = other;
                retagged.save(path).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })
            }
        }
    }
}

/// SplitMix64-style mix of `(seed, i)` — the same finalizer
/// `sycl-sim::fault` uses for its deterministic uniform draws.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let device = DeviceSpec::amd_r9_nano();
        let snapshot = Snapshot::new(&device).with_seq(7);
        let json = snapshot.to_json().unwrap();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert_eq!(back.seq, 7);
        assert_eq!(back.device_crc, snapshot.device_crc);
        assert_eq!(back.device, device);
        assert!(back.dropped.is_empty());
    }

    #[test]
    fn bad_magic_and_garbage_are_typed() {
        assert!(matches!(
            Snapshot::from_json("{\"magic\":\"nope\",\"version\":1,\"sections\":[]}"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_json("not json at all"),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let json = Snapshot::new(&DeviceSpec::amd_r9_nano())
            .to_json()
            .unwrap()
            .replacen("\"version\":1", "\"version\":9", 1);
        assert!(matches!(
            Snapshot::from_json(&json),
            Err(SnapshotError::VersionSkew {
                found: 9,
                supported: SNAPSHOT_VERSION
            })
        ));
    }

    #[test]
    fn fingerprints_distinguish_presets() {
        let nano = device_fingerprint(&DeviceSpec::amd_r9_nano());
        let edge = device_fingerprint(&DeviceSpec::edge_dsp());
        assert_ne!(nano, edge);
        // Stable across calls (compact JSON is deterministic).
        assert_eq!(nano, device_fingerprint(&DeviceSpec::amd_r9_nano()));
    }

    #[test]
    fn spec_distance_orders_devices_sensibly() {
        let nano = DeviceSpec::amd_r9_nano();
        assert_eq!(spec_distance(&nano, &nano), 0.0);
        let to_gpu = spec_distance(&nano, &DeviceSpec::desktop_gpu());
        let to_dsp = spec_distance(&nano, &DeviceSpec::edge_dsp());
        assert!(
            to_gpu < to_dsp,
            "a desktop GPU is nearer a GPU than an edge DSP ({to_gpu} vs {to_dsp})"
        );
    }

    #[test]
    fn nearest_picks_the_closest_donor() {
        let snapshots = vec![
            Snapshot::new(&DeviceSpec::edge_dsp()),
            Snapshot::new(&DeviceSpec::desktop_gpu()),
            Snapshot::new(&DeviceSpec::host_cpu()),
        ];
        let donor = nearest(&snapshots, &DeviceSpec::amd_r9_nano()).unwrap();
        assert_eq!(donor.device, DeviceSpec::desktop_gpu());
    }

    #[test]
    fn transplant_folds_evidence_into_priors() {
        let mut snapshot = Snapshot::new(&DeviceSpec::amd_r9_nano());
        snapshot.online = Some(OnlineState {
            adaptive: true,
            generation: 3,
            shipped: vec![10, 20],
            ph_n: 40,
            ph_mean_x: 1.0,
            ph_m: 0.5,
            ph_min_m: -0.5,
            clusters: vec![ClusterSnapshot {
                key: [1, 2, 3],
                arms: vec![
                    ArmState {
                        prior: 0.2,
                        pulls: 10,
                        completions: 10,
                        sum_duration_s: 1.0, // mean 0.1 — the fast arm
                        disabled: false,
                    },
                    ArmState {
                        prior: 0.9,
                        pulls: 10,
                        completions: 10,
                        sum_duration_s: 4.0, // mean 0.4 — 4x slower
                        disabled: true,
                    },
                ],
            }],
        });
        let transplanted = snapshot.transplant(&DeviceSpec::edge_dsp());
        assert_eq!(
            transplanted.device_crc,
            device_fingerprint(&DeviceSpec::edge_dsp())
        );
        let online = transplanted.online.unwrap();
        assert!(online.adaptive);
        assert_eq!(online.ph_n, 0, "drift detector resets");
        let arms = &online.clusters[0].arms;
        assert!(
            (arms[0].prior - 1.0).abs() < 1e-12,
            "fast arm seeds prior 1"
        );
        assert!(
            (arms[1].prior - 0.25).abs() < 1e-12,
            "4x slower arm seeds 0.25"
        );
        assert_eq!(arms[0].pulls, 0, "evidence resets to priors only");
        assert!(!arms[1].disabled, "disabled flags do not transfer");
        assert!(transplanted.cache.is_none() && transplanted.telemetry.is_none());
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a: Vec<u64> = (0..8).map(|i| splitmix(42, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| splitmix(42, i)).collect();
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), 8);
    }
}
