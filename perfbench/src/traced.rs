//! The traced run: the per-layer metrics.
//!
//! It is separate from the measured runs and measures every layer from
//! outside, through its public entry points and public telemetry:
//!
//! 1. set-up, stage by stage;
//! 2. the full path twice over the same requests: untraced, then with a
//!    span around every `IngressHandle::submit` and every request (submit
//!    to observed completion) and the counting allocator on. The
//!    difference between the two is the tracing overhead;
//! 3. the same requests replayed layer by layer on identical fresh fleets:
//!    fixed dispatch-size chunks into `ShardedScheduler::serve`, each
//!    assignment's launches in order on its device's
//!    `ResilientExecutor::launch`, each device's decisions through a fresh
//!    `CachedSelector` (`select_outcome` and `decide`) and `OnlineSelector`,
//!    the model alone (`Selector::select_shape`), the picked kernels on a
//!    timing-only and an executing `Queue`, and fleet snapshots.
//!
//! A layer's self time is its time for a set of requests minus its child
//! layer's time for the same requests. Calls shorter than a few clock
//! reads are timed in runs of [`RUN`] consecutive calls. The replays are
//! sequential and deterministic, so their counts (allocations included)
//! repeat exactly for a seed; the full path's chunking depends on when the
//! dispatcher thread wakes, so its counts repeat only approximately.

use crate::check::{self, Failures};
use crate::deploy;
use crate::host;
use crate::run::{self, Inputs, Metric, Outcome};
use crate::workload::Workload;
use autokernel_core::{GemmRequest, IngressReport, ShardedScheduler, Snapshot, TuningPipeline};
use autokernel_gemm::reference::{reference_gemm, test_matrices};
use autokernel_gemm::{GemmShape, KernelConfig, TiledGemmKernel};
use autokernel_sycl_sim::{Buffer, DeviceSpec, Queue};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive calls per timed run for sub-microsecond entry points.
pub const RUN: usize = 64;
/// Spans kept per layer for the Chrome trace (the metrics use every call).
pub const SPAN_CAP: usize = 20_000;
/// Open-loop seconds of the traced run (generator diagnostics only).
pub const TRACED_OPEN_S: f64 = 2.0;
/// Snapshot captures and saves timed per run; medians reported.
pub const PERSIST_REPS: usize = 5;
/// Distinct shapes the gemm layer executes on timing-only workloads.
pub const GEMM_SAMPLE: usize = 8;

const LAYERS: [&str; 11] = [
    "setup",
    "request",
    "ingress",
    "sched",
    "resilient",
    "cache",
    "select",
    "online",
    "sim",
    "gemm",
    "persist",
];

/// One span: a layer boundary crossed by one call or one run of calls.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: u8,
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
    count: u32,
}

/// In-memory span store, written out as a Chrome trace when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    kept: [usize; LAYERS.len()],
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty span store whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAP * LAYERS.len()),
            kept: [0; LAYERS.len()],
        }
    }

    fn layer(name: &str) -> u8 {
        LAYERS.iter().position(|&l| l == name).unwrap_or(0) as u8
    }

    #[allow(clippy::too_many_arguments)]
    fn span(
        &mut self,
        layer: &str,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
        count: usize,
    ) {
        let layer = Self::layer(layer);
        let kept = &mut self.kept[layer as usize];
        if *kept >= SPAN_CAP {
            return;
        }
        *kept += 1;
        self.spans.push(Span {
            layer,
            name,
            id,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            count: count.min(u32::MAX as usize) as u32,
        });
    }

    /// Write the spans as Chrome-trace JSON (opens in Perfetto): one
    /// complete event per span, one track per layer.
    fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        for (i, layer) in LAYERS.iter().enumerate() {
            writeln!(
                out,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {i}, \"args\": {{\"name\": \"{layer}\"}}}},"
            )?;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"calls\": {}}}}}{sep}",
                s.name,
                LAYERS[s.layer as usize],
                s.layer,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.count
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

fn elapsed_ns(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

fn median(values: &mut [u64]) -> f64 {
    run::quantile(values, 0.5)
}

/// Operand buffers per distinct shape for the replays, with the expected
/// product when the fleet executes kernels.
struct ShapeBuffers {
    index: HashMap<GemmShape, usize>,
    requests: Vec<GemmRequest>,
    expected: Vec<Vec<f32>>,
}

impl ShapeBuffers {
    fn new(inputs: &Inputs) -> Self {
        let stream = &inputs.stream;
        let mut index = HashMap::new();
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for i in 0..stream.len() {
            let shape = stream.shape(i);
            if index.contains_key(&shape) {
                continue;
            }
            index.insert(shape, requests.len());
            match &inputs.operands {
                Some(operands) => {
                    requests.push(operands.request(stream, i));
                    expected.push(operands.expected(stream, i).to_vec());
                }
                None => requests.push(inputs.request(i)),
            }
        }
        ShapeBuffers {
            index,
            requests,
            expected,
        }
    }

    fn get(&self, shape: &GemmShape) -> &GemmRequest {
        &self.requests[self.index[shape]]
    }

    /// Largest error of `shape`'s `C` (0 on timing-only fleets), then
    /// refill it with NaN so an unwritten element is caught next time.
    fn check_and_reset(&self, shape: &GemmShape) -> f32 {
        let i = self.index[shape];
        let Some(expected) = self.expected.get(i) else {
            return 0.0;
        };
        let c = &self.requests[i].c;
        let err = check::max_abs_err(&c.read(), expected);
        c.write().fill(f32::NAN);
        err
    }
}

/// One device's launches in execution order; `true` marks the measured
/// requests (after warm-up).
type Launches = Vec<Vec<(GemmShape, bool)>>;

/// Per device, each measured launch's shape and the configuration that
/// served it (`None` for the reference kernel).
pub type Served = Vec<Vec<(GemmShape, Option<KernelConfig>)>>;

/// The deterministic layer-by-layer replays and what they measured.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Measured requests.
    pub requests: u64,
    /// `ShardedScheduler::serve` wall time over the measured chunks.
    pub serve_ns: u64,
    /// Process CPU time over those calls (kernel workers included).
    pub serve_cpu_ns: u64,
    /// Allocations inside those `serve` calls.
    pub serve_allocs: u64,
    /// Scheduler telemetry deltas.
    pub batched: u64,
    /// Batches routed.
    pub routed: u64,
    /// Batches stolen.
    pub stolen: u64,
    /// Scheduler waves.
    pub waves: u64,
    /// Per-device simulated busy time over the measured chunks.
    pub device_busy_s: Vec<f64>,
    /// Fleet makespan over the measured chunks (simulated seconds).
    pub makespan_s: f64,
    /// Launches replayed on the executors.
    pub launches: u64,
    /// `ResilientExecutor::launch` wall time.
    pub launch_ns: u64,
    /// Allocations inside those launches.
    pub launch_allocs: u64,
    /// Launches served by the primary pick with no failure.
    pub clean: u64,
    /// Resilience telemetry deltas.
    pub retries: u64,
    /// Breaker trips.
    pub breaker_trips: u64,
    /// Next-best fallbacks.
    pub fallback_next_best: u64,
    /// Reference fallbacks.
    pub fallback_reference: u64,
    /// Online-layer telemetry deltas.
    pub drift_events: u64,
    /// Adaptive (bandit) picks.
    pub adaptive_picks: u64,
    /// Reward updates.
    pub reward_updates: u64,
    /// Stale rewards dropped.
    pub stale_rewards_dropped: u64,
    /// Failed attempts absorbed (injected faults).
    pub faults: u64,
    /// Device time of all launches, and of failed attempts plus backoff.
    pub launch_device_s: f64,
    /// Device time spent on failed attempts and backoff.
    pub waste_device_s: f64,
    /// Shipped-set oracle and served-config modelled time sums.
    pub oracle_s: f64,
    /// Modelled time of the configurations that served.
    pub pick_s: f64,
    /// Largest `C` error seen in executing replays.
    pub max_abs_err: f32,
    /// Decisions replayed through the cache.
    pub decisions: u64,
    /// `select_outcome` wall time over the measured decisions.
    pub select_ns: u64,
    /// `decide` wall time over the measured decisions.
    pub decide_ns: u64,
    /// Cache hits and misses over the measured decisions.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Mean miss latency, from the selector's own telemetry.
    pub miss_ns: f64,
    /// LRU evictions.
    pub evictions: u64,
    /// Bloom admission rejects.
    pub admission_rejects: u64,
    /// Entries held across the fleet's caches at the end.
    pub footprint: u64,
    /// `Selector::select_shape` wall time, and the calls.
    pub model_ns: u64,
    /// Model calls.
    pub model_calls: u64,
    /// `OnlineSelector::select_outcome` and `record_success` wall times.
    pub online_select_ns: u64,
    /// `record_success` wall time.
    pub online_record_ns: u64,
    /// Timing-only `Queue::submit` wall time, and the submits.
    pub sim_submit_ns: u64,
    /// Submits timed.
    pub sim_submits: u64,
}

impl Replay {
    /// The counts that must repeat exactly for a seed (no wall times).
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("requests", self.requests as f64),
            ("serve_allocs", self.serve_allocs as f64),
            ("batched", self.batched as f64),
            ("routed", self.routed as f64),
            ("stolen", self.stolen as f64),
            ("waves", self.waves as f64),
            ("makespan_s", self.makespan_s),
            ("device_s", self.device_busy_s.iter().sum()),
            ("launches", self.launches as f64),
            ("launch_allocs", self.launch_allocs as f64),
            ("clean", self.clean as f64),
            ("retries", self.retries as f64),
            ("fallback_next_best", self.fallback_next_best as f64),
            ("drift_events", self.drift_events as f64),
            ("faults", self.faults as f64),
            ("hits", self.hits as f64),
            ("misses", self.misses as f64),
            ("evictions", self.evictions as f64),
            ("admission_rejects", self.admission_rejects as f64),
            ("footprint", self.footprint as f64),
        ]
    }
}

/// Replay stream positions `warmup..warmup + n` (after an untimed
/// warm-up over `0..warmup`) layer by layer on fresh fleets.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    workload: Workload,
    seed: u64,
    pipeline: &TuningPipeline,
    inputs: &Inputs,
    warmup: usize,
    n: usize,
    onset: u64,
    tracer: &mut Tracer,
) -> (Replay, ShardedScheduler, Served) {
    let spec = workload.spec();
    let devices = spec.devices.len();
    let buffers = ShapeBuffers::new(inputs);
    let mut r = Replay {
        requests: n as u64,
        ..Replay::default()
    };

    // Scheduler: fixed chunks of the dispatch size.
    let (mut scheduler, clocks) = deploy::scheduler(pipeline, &spec, seed, onset);
    let chunk = spec.ingress.dispatch_chunk.max(1);
    let mut launches: Launches = vec![Vec::new(); devices];
    let mut serve = |scheduler: &mut ShardedScheduler,
                     range: std::ops::Range<usize>,
                     measured: bool,
                     r: &mut Replay,
                     tracer: &mut Tracer,
                     id: u64| {
        let requests: Vec<GemmRequest> = range.clone().map(|i| inputs.request(i)).collect();
        let allocs = host::allocs();
        let cpu = host::process_cpu_ns();
        let start = Instant::now();
        let report = scheduler
            .serve(&requests)
            .expect("the scheduler serves every chunk");
        let end = Instant::now();
        if measured {
            r.serve_cpu_ns += host::process_cpu_ns() - cpu;
            r.serve_allocs += host::allocs() - allocs;
            r.serve_ns += elapsed_ns(start, end);
            tracer.span(
                "sched",
                "ShardedScheduler::serve",
                id,
                0,
                start,
                end,
                requests.len(),
            );
            for (d, device) in report.devices.iter().enumerate() {
                r.device_busy_s[d] += device.busy_s;
            }
        }
        for a in &report.assignments {
            for _ in 0..a.requests {
                launches[a.device].push((a.shape, measured));
            }
        }
    };
    r.device_busy_s = vec![0.0; devices];
    let mut start = 0;
    while start < warmup {
        let end = (start + chunk).min(warmup);
        serve(&mut scheduler, start..end, false, &mut r, tracer, 0);
        start = end;
    }
    let telemetry0 = scheduler.telemetry();
    let clocks0 = run::read_clocks(&clocks);
    let mut id = 0;
    while start < warmup + n {
        let end = (start + chunk).min(warmup + n);
        serve(&mut scheduler, start..end, true, &mut r, tracer, id);
        id += 1;
        start = end;
    }
    let telemetry1 = scheduler.telemetry();
    r.makespan_s = run::sim_advance(&clocks0, &run::read_clocks(&clocks)).0;
    r.batched = telemetry1.batched - telemetry0.batched;
    r.routed = telemetry1.routed - telemetry0.routed;
    r.stolen = telemetry1.stolen - telemetry0.stolen;
    r.waves = telemetry1.waves - telemetry0.waves;

    // Executors: each device's launches in order.
    let shipped = pipeline.shipped_kernel_configs();
    let mut served_by: Served = vec![Vec::new(); devices];
    let fleet = deploy::fleet(pipeline, &spec, seed, onset);
    for (d, shard) in fleet.iter().enumerate() {
        let executor = shard.executor();
        let pricing = Queue::timing_only(Arc::new(spec.devices[d].1.clone()));
        let mut oracle: HashMap<GemmShape, f64> = HashMap::new();
        let mut before = None;
        for (k, &(shape, measured)) in launches[d].iter().enumerate() {
            if measured && before.is_none() {
                before = Some(executor.selector().telemetry().snapshot());
            }
            let request = buffers.get(&shape);
            let clock0 = executor.queue().now_s();
            let allocs = host::allocs();
            let start = Instant::now();
            let report = executor
                .launch(shape, &request.a, &request.b, &request.c)
                .expect("a resilient launch always completes");
            let end = Instant::now();
            let allocs = host::allocs() - allocs;
            let err = buffers.check_and_reset(&shape);
            if !measured {
                continue;
            }
            let advance = executor.queue().now_s() - clock0;
            r.launches += 1;
            r.launch_ns += elapsed_ns(start, end);
            r.launch_allocs += allocs;
            r.clean += u64::from(report.is_clean());
            r.faults += report.failures.len() as u64;
            r.launch_device_s += advance;
            r.waste_device_s += (advance - report.event.duration_s()).max(0.0);
            r.max_abs_err = r.max_abs_err.max(err);
            r.pick_s += report
                .config
                .and_then(|c| run::modelled_s(&pricing, &c, &shape))
                .unwrap_or_else(|| report.event.duration_s());
            r.oracle_s += *oracle.entry(shape).or_insert_with(|| {
                shipped
                    .iter()
                    .filter_map(|c| run::modelled_s(&pricing, c, &shape))
                    .fold(f64::INFINITY, f64::min)
            });
            served_by[d].push((shape, report.config));
            tracer.span(
                "resilient",
                "ResilientExecutor::launch",
                k as u64,
                0,
                start,
                end,
                1,
            );
        }
        if let Some(before) = before {
            let after = executor.selector().telemetry().snapshot();
            r.retries += after.retries - before.retries;
            r.breaker_trips += after.breaker_trips - before.breaker_trips;
            r.fallback_next_best += after.fallback_next_best - before.fallback_next_best;
            r.fallback_reference += after.fallback_reference - before.fallback_reference;
            r.drift_events += after.drift_events - before.drift_events;
            r.adaptive_picks += after.adaptive_picks - before.adaptive_picks;
            r.reward_updates += after.reward_updates - before.reward_updates;
            r.stale_rewards_dropped += after.stale_rewards_dropped - before.stale_rewards_dropped;
        }
    }

    // Decision cache: the same per-device decisions through fresh
    // selectors with the workload's bound, once via today's serving path
    // (`select_outcome`) and once via `decide`.
    let selects = deploy::fleet(pipeline, &spec, seed, onset);
    let decides = deploy::fleet(pipeline, &spec, seed, onset);
    let mut miss_nanos = 0.0;
    for d in 0..devices {
        let sel = selects[d].executor().selector();
        let dec = decides[d].executor().selector();
        let warm: Vec<GemmShape> = launches[d].iter().filter(|l| !l.1).map(|l| l.0).collect();
        let measured: Vec<GemmShape> = launches[d].iter().filter(|l| l.1).map(|l| l.0).collect();
        for shape in &warm {
            sel.select_outcome(shape).expect("the selector picks");
            dec.decide(shape).expect("the selector decides");
        }
        let before = sel.telemetry().snapshot();
        let (evictions, rejects) = (sel.cache().evictions(), sel.cache().admission_rejects());
        for (k, run) in measured.chunks(RUN).enumerate() {
            let start = Instant::now();
            for shape in run {
                black_box(
                    sel.select_outcome(black_box(shape))
                        .expect("the selector picks"),
                );
            }
            let end = Instant::now();
            r.select_ns += elapsed_ns(start, end);
            tracer.span(
                "cache",
                "CachedSelector::select_outcome",
                k as u64,
                0,
                start,
                end,
                run.len(),
            );
        }
        for (k, run) in measured.chunks(RUN).enumerate() {
            let start = Instant::now();
            for shape in run {
                black_box(dec.decide(black_box(shape)).expect("the selector decides"));
            }
            let end = Instant::now();
            r.decide_ns += elapsed_ns(start, end);
            tracer.span(
                "cache",
                "CachedSelector::decide",
                k as u64,
                0,
                start,
                end,
                run.len(),
            );
        }
        let after = sel.telemetry().snapshot();
        let misses = after.misses - before.misses;
        r.decisions += measured.len() as u64;
        r.hits += after.hits - before.hits;
        r.misses += misses;
        miss_nanos += after.mean_miss_nanos * after.misses as f64
            - before.mean_miss_nanos * before.misses as f64;
        r.evictions += sel.cache().evictions() - evictions;
        r.admission_rejects += sel.cache().admission_rejects() - rejects;
        r.footprint += sel.cache().footprint() as u64;
    }
    r.miss_ns = miss_nanos / r.misses.max(1) as f64;

    // The model alone, on the measured stream's distinct shapes.
    let mut distinct: Vec<GemmShape> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for i in warmup..warmup + n {
        let shape = inputs.stream.shape(i);
        if seen.insert(shape) {
            distinct.push(shape);
        }
    }
    for (k, run) in distinct.chunks(RUN).enumerate() {
        let start = Instant::now();
        for shape in run {
            black_box(
                pipeline
                    .selector()
                    .select_shape(black_box(shape))
                    .expect("the model picks"),
            );
        }
        let end = Instant::now();
        r.model_ns += elapsed_ns(start, end);
        r.model_calls += run.len() as u64;
        tracer.span(
            "select",
            "Selector::select_shape",
            k as u64,
            0,
            start,
            end,
            run.len(),
        );
    }

    // Online layer: mirror-stage picks and reward feedback on fresh
    // layers (the fleet's own on `real_gemm`).
    let onlines = deploy::fleet(pipeline, &spec, seed, onset);
    for (d, shard) in onlines.iter().enumerate() {
        let online = match shard.executor().online() {
            Some(online) => Arc::clone(online),
            None => pipeline
                .online_selector(autokernel_core::OnlineConfig::default())
                .expect("the online layer builds"),
        };
        let pricing = Queue::timing_only(Arc::new(spec.devices[d].1.clone()));
        let measured: Vec<GemmShape> = launches[d].iter().filter(|l| l.1).map(|l| l.0).collect();
        let rewards: Vec<(GemmShape, usize, f64)> = measured
            .iter()
            .map(|&shape| {
                let config = pipeline.select(&shape).expect("the selector picks");
                let duration = run::modelled_s(&pricing, &config, &shape).unwrap_or(1e-3);
                (shape, config.index(), duration)
            })
            .collect();
        for (k, run) in measured.chunks(RUN).enumerate() {
            let start = Instant::now();
            for shape in run {
                black_box(
                    online
                        .select_outcome(black_box(shape))
                        .expect("the online layer picks"),
                );
            }
            let end = Instant::now();
            r.online_select_ns += elapsed_ns(start, end);
            tracer.span(
                "online",
                "OnlineSelector::select_outcome",
                k as u64,
                0,
                start,
                end,
                run.len(),
            );
        }
        let generation = online.generation();
        for (k, run) in rewards.chunks(RUN).enumerate() {
            let start = Instant::now();
            for (shape, config, duration) in run {
                black_box(online.record_success(shape, *config, *duration, generation));
            }
            let end = Instant::now();
            r.online_record_ns += elapsed_ns(start, end);
            tracer.span(
                "online",
                "OnlineSelector::record_success",
                k as u64,
                0,
                start,
                end,
                run.len(),
            );
        }
    }

    // Runtime: the configurations that served, submitted on timing-only
    // queues of the same devices.
    for (d, served) in served_by.iter().enumerate() {
        let queue = Queue::timing_only(Arc::new(spec.devices[d].1.clone()));
        let kernels: Vec<_> = served
            .iter()
            .filter_map(|(shape, config)| {
                let config = (*config)?;
                let request = buffers.get(shape);
                let kernel = TiledGemmKernel::new(
                    config,
                    *shape,
                    request.a.clone(),
                    request.b.clone(),
                    request.c.clone(),
                )
                .ok()?;
                let range = kernel.preferred_range().ok()?;
                Some((kernel, range))
            })
            .collect();
        for (k, run) in kernels.chunks(RUN).enumerate() {
            let start = Instant::now();
            for (kernel, range) in run {
                black_box(
                    queue
                        .submit(kernel, *range)
                        .expect("a served config launches"),
                );
            }
            let end = Instant::now();
            r.sim_submit_ns += elapsed_ns(start, end);
            r.sim_submits += run.len() as u64;
            tracer.span("sim", "Queue::submit", k as u64, 0, start, end, run.len());
        }
    }
    (r, scheduler, served_by)
}

/// One executed kernel.
struct GemmJob {
    device: DeviceSpec,
    shape: GemmShape,
    config: KernelConfig,
    a: Buffer<f32>,
    b: Buffer<f32>,
    expected: Vec<f32>,
}

/// What the gemm layer measured.
struct GemmLayer {
    calls: u64,
    kernel_ns: u64,
    flops: f64,
    max_abs_err: f32,
}

/// The kernels the gemm layer executes. On an executing fleet: every
/// measured launch's served configuration on its own device, with the
/// request's operands, so the layer's time is the launches' child time.
/// On a timing-only fleet, which never runs kernel bodies: the selector's
/// pick for the [`GEMM_SAMPLE`] smallest distinct measured shapes, on the
/// R9 Nano, with seeded operands.
fn gemm_jobs(
    workload: Workload,
    seed: u64,
    pipeline: &TuningPipeline,
    inputs: &Inputs,
    range: std::ops::Range<usize>,
    served: &Served,
) -> Vec<GemmJob> {
    let spec = workload.spec();
    let stream = &inputs.stream;
    if let Some(operands) = &inputs.operands {
        let mut first: HashMap<GemmShape, usize> = HashMap::new();
        for i in range {
            first.entry(stream.shape(i)).or_insert(i);
        }
        let mut jobs = Vec::new();
        for (d, launches) in served.iter().enumerate() {
            for &(shape, config) in launches {
                let (Some(config), Some(&i)) = (config, first.get(&shape)) else {
                    continue;
                };
                let request = operands.request(stream, i);
                jobs.push(GemmJob {
                    device: spec.devices[d].1.clone(),
                    shape,
                    config,
                    a: request.a,
                    b: request.b,
                    expected: operands.expected(stream, i).to_vec(),
                });
            }
        }
        return jobs;
    }
    let mut shapes: Vec<GemmShape> = range.map(|i| stream.shape(i)).collect();
    shapes.sort_by(|x, y| x.flops().total_cmp(&y.flops()).then(x.cmp(y)));
    shapes.dedup();
    shapes
        .into_iter()
        .take(GEMM_SAMPLE)
        .map(|shape| {
            let (a, b) = test_matrices(shape, seed ^ workload as u64);
            let mut expected = vec![0.0f32; shape.m * shape.n];
            reference_gemm(shape, &a, &b, &mut expected);
            GemmJob {
                device: DeviceSpec::amd_r9_nano(),
                shape,
                config: pipeline.select(&shape).expect("the selector picks"),
                a: Buffer::from_vec(a),
                b: Buffer::from_vec(b),
                expected,
            }
        })
        .collect()
}

/// Execute `jobs` on executing queues, timing each submit and checking
/// each `C` against its reference.
fn gemm_layer(jobs: Vec<GemmJob>, tracer: &mut Tracer) -> GemmLayer {
    let mut out = GemmLayer {
        calls: 0,
        kernel_ns: 0,
        flops: 0.0,
        max_abs_err: 0.0,
    };
    let mut queues: HashMap<String, Queue> = HashMap::new();
    for (k, job) in jobs.into_iter().enumerate() {
        let queue = queues
            .entry(job.device.name.clone())
            .or_insert_with(|| Queue::new(Arc::new(job.device.clone())));
        let c = Buffer::new_filled(job.shape.m * job.shape.n, f32::NAN);
        let kernel = TiledGemmKernel::new(job.config, job.shape, job.a, job.b, c.clone())
            .expect("operands match the shape");
        let range = kernel
            .preferred_range()
            .expect("a shipped config has a range");
        let start = Instant::now();
        queue
            .submit(&kernel, range)
            .expect("a served configuration launches on its device");
        let end = Instant::now();
        tracer.span(
            "gemm",
            "Queue::submit (executing)",
            k as u64,
            0,
            start,
            end,
            1,
        );
        out.calls += 1;
        out.kernel_ns += elapsed_ns(start, end);
        out.flops += job.shape.flops();
        out.max_abs_err = out
            .max_abs_err
            .max(check::max_abs_err(&c.read(), &job.expected));
    }
    out
}

/// The full path over `warmup..warmup + n`, from a fresh deployment.
struct FullPath {
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
    submit_ns: Vec<u64>,
    open: run::OpenLoop,
    report: Option<IngressReport>,
}

#[allow(clippy::too_many_arguments)]
fn full_path(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    warmup: usize,
    n: usize,
    open: usize,
    onset: u64,
    snapshot: &Path,
    mut tracer: Option<&mut Tracer>,
    failures: &mut Failures,
) -> FullPath {
    let spec = workload.spec();
    let deployment = deploy::start(workload, seed, onset, snapshot);
    let ingress = deployment.ingress;
    let window = (spec.ingress.queue_capacity / 2).max(1);
    let (refused, warm) = run::closed_loop(&ingress, inputs, 0..warmup, window, 1);
    failures.add(refused, "traced warm-up requests refused");
    if warm.is_err() {
        failures.add(1, "traced warm-up stalled");
    }
    let mut submit_ns = Vec::with_capacity(n);
    let mut submitted_at: Vec<Instant> = Vec::with_capacity(if tracer.is_some() { n } else { 0 });
    let cpu0 = host::process_cpu_ns();
    let allocs0 = host::allocs();
    host::set_counting(tracer.is_some());
    let t0 = Instant::now();
    let (mut next, mut done) = (warmup, warmup);
    let mut refused = 0u64;
    let end_at = warmup + n;
    // The same windowed closed loop as the measured run, with a span
    // around every submit and every request when traced.
    while done < end_at {
        if next < end_at {
            let burst_end = (next + window).min(end_at);
            for i in next..burst_end {
                let start = Instant::now();
                let ok = run::submit(&ingress, inputs, i);
                let end = Instant::now();
                refused += u64::from(!ok);
                if let Some(tracer) = tracer.as_deref_mut() {
                    submit_ns.push(elapsed_ns(start, end));
                    submitted_at.push(start);
                    host::quiet(|| {
                        tracer.span(
                            "ingress",
                            "IngressHandle::submit",
                            i as u64,
                            i as u64,
                            start,
                            end,
                            1,
                        )
                    });
                }
            }
            next = burst_end;
        }
        loop {
            let served = (run::served(&ingress) as usize).min(next);
            if served > done {
                let seen = Instant::now();
                if let Some(tracer) = tracer.as_deref_mut() {
                    for j in done..served {
                        host::quiet(|| {
                            tracer.span(
                                "request",
                                "request",
                                j as u64,
                                0,
                                submitted_at[j - warmup],
                                seen,
                                1,
                            )
                        });
                    }
                }
                done = served;
            }
            let in_flight = next - done;
            if done >= end_at || (next < end_at && in_flight <= window) {
                break;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    let t1 = Instant::now();
    host::set_counting(false);
    let allocs = host::allocs() - allocs0;
    let cpu_ns = host::process_cpu_ns() - cpu0;
    failures.add(refused, "traced requests refused");
    inputs.check_served(end_at);
    let open_loop = if tracer.is_some() {
        run::open_loop(
            &ingress,
            inputs,
            end_at,
            open,
            spec.open_rate,
            !spec.executing(),
        )
    } else {
        run::OpenLoop::default()
    };
    let submitted = end_at + if tracer.is_some() { open } else { 0 };
    let report = match ingress.finish() {
        Ok((report, _)) => {
            check::accounting(&report, submitted as u64, failures);
            inputs.check_served(usize::MAX);
            Some(report)
        }
        Err(e) => {
            failures.add(1, format!("traced dispatcher failed: {e}"));
            None
        }
    };
    FullPath {
        wall_ns: elapsed_ns(t0, t1),
        cpu_ns,
        allocs,
        submit_ns,
        open: open_loop,
        report,
    }
}

/// The traced run of `workload`: every per-layer metric, a Chrome trace
/// of the spans under `out_dir`, and the per-layer table on stdout.
pub fn run(workload: Workload, seed: u64, out_dir: &Path) -> Outcome {
    let spec = workload.spec();
    let warmup = spec.warmup;
    let n = spec.traced_requests;
    let open = (spec.open_rate * TRACED_OPEN_S).ceil() as usize;
    let inputs = Inputs::new(workload, seed, warmup + n + open);
    let onset = run::fault_onset(warmup, n, spec.devices.len());
    let snapshot = out_dir.join(format!("snapshot-{}.json", std::process::id()));
    let mut tracer = Tracer::new();
    let mut failures = Failures::default();

    // Set-up, stage by stage.
    let mut stages: [Vec<u64>; 3] = Default::default();
    for _ in 0..run::SETUP_BUILDS {
        let t0 = Instant::now();
        let deployment = deploy::start(workload, seed, onset, &snapshot);
        let s = deployment.stages;
        let t1 = t0 + Duration::from_secs_f64(s.collect_s);
        let t2 = t1 + Duration::from_secs_f64(s.train_s);
        let t3 = t2 + Duration::from_secs_f64(s.fleet_s);
        tracer.span("setup", "collect_paper_dataset", 0, 0, t0, t1, 1);
        tracer.span("setup", "TuningPipeline::from_dataset", 0, 0, t1, t2, 1);
        tracer.span("setup", "fleet + scheduler + ingress", 0, 0, t2, t3, 1);
        for (v, x) in stages.iter_mut().zip([s.collect_s, s.train_s, s.fleet_s]) {
            v.push((x * 1e9) as u64);
        }
        let _ = deployment.ingress.finish();
    }

    // Full path: untraced, then traced, over the same requests.
    let plain = full_path(
        workload,
        seed,
        &inputs,
        warmup,
        n,
        open,
        onset,
        &snapshot,
        None,
        &mut failures,
    );
    let mut traced = full_path(
        workload,
        seed,
        &inputs,
        warmup,
        n,
        open,
        onset,
        &snapshot,
        Some(&mut tracer),
        &mut failures,
    );
    let report = traced.report.clone();

    // Layer-by-layer replays.
    let (pipeline, _, _) = deploy::pipeline();
    host::set_counting(true);
    let (replay, scheduler, served) = replay(
        workload,
        seed,
        &pipeline,
        &inputs,
        warmup,
        n,
        onset,
        &mut tracer,
    );
    host::set_counting(false);
    let jobs = gemm_jobs(
        workload,
        seed,
        &pipeline,
        &inputs,
        warmup..warmup + n,
        &served,
    );
    let gemm = gemm_layer(jobs, &mut tracer);

    // Persistence: capture and save the replayed fleet.
    let (mut capture_ns, mut save_ns) = (Vec::new(), Vec::new());
    let mut snapshot_bytes = 0u64;
    for k in 0..PERSIST_REPS {
        let t0 = Instant::now();
        let snap = Snapshot::new(&DeviceSpec::amd_r9_nano())
            .with_seq(k as u64)
            .capture_fleet(&scheduler);
        let t1 = Instant::now();
        let saved = snap.save(&snapshot);
        let t2 = Instant::now();
        if saved.is_err() {
            failures.add(1, "replay snapshot save failed");
        }
        tracer.span("persist", "Snapshot::capture_fleet", k as u64, 0, t0, t1, 1);
        tracer.span("persist", "Snapshot::save", k as u64, 0, t1, t2, 1);
        capture_ns.push(elapsed_ns(t0, t1));
        save_ns.push(elapsed_ns(t1, t2));
        snapshot_bytes = std::fs::metadata(&snapshot).map(|m| m.len()).unwrap_or(0);
    }
    let _ = std::fs::remove_file(&snapshot);

    // Derived per-layer numbers.
    let nf = n as f64;
    let submit_median = median(&mut traced.submit_ns);
    let serve_per_req = replay.serve_ns as f64 / nf;
    // The dispatcher loop's own cost: the full path's CPU per request
    // minus its children's, in CPU time on both sides (kernel workers
    // included on executing fleets).
    let full_cpu_per_req = traced.cpu_ns as f64 / nf;
    let ingress_self = full_cpu_per_req - submit_median - replay.serve_cpu_ns as f64 / nf;
    let launch_ns = replay.launch_ns as f64 / replay.launches.max(1) as f64;
    let select_ns = replay.select_ns as f64 / replay.decisions.max(1) as f64;
    let decide_ns = replay.decide_ns as f64 / replay.decisions.max(1) as f64;
    let online_select_ns = replay.online_select_ns as f64 / replay.decisions.max(1) as f64;
    let sim_submit_ns = replay.sim_submit_ns as f64 / replay.sim_submits.max(1) as f64;
    let kernel_ns = gemm.kernel_ns as f64 / gemm.calls.max(1) as f64;
    // A launch's children: its decision (the online layer's on adaptive
    // fleets) and its queue submit (an executing one runs the kernel).
    let launch_select = if spec.cache.is_some() {
        select_ns
    } else {
        online_select_ns
    };
    let launch_submit = if spec.executing() {
        kernel_ns
    } else {
        sim_submit_ns
    };
    let wall_per_req = traced.wall_ns as f64 / nf;
    let overhead = traced.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0;
    let stream_range = warmup..warmup + n;
    let mflop = stream_range
        .clone()
        .map(|i| inputs.stream.shape(i).flops())
        .sum::<f64>()
        / nf
        / 1e6;
    let mbytes = stream_range
        .map(|i| {
            let s = inputs.stream.shape(i);
            4.0 * (s.m * s.k + s.k * s.n + s.m * s.n) as f64
        })
        .sum::<f64>()
        / nf
        / 1e6;
    let hit_ratio = replay.hits as f64 / replay.decisions.max(1) as f64;
    let samples = traced.open.latency_ns.len();
    let (shed, waves_per_kreq, snapshots_written, snapshot_errors) = match &report {
        Some(r) => (
            r.shed_total() as f64,
            r.waves as f64 * 1e3 / r.served.max(1) as f64,
            r.snapshots_written as f64,
            r.snapshot_errors as f64,
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let busy = &replay.device_busy_s;
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let fallbacks = replay.fallback_next_best + replay.fallback_reference;

    // What each workload claims to load.
    let is = |w| workload == w;
    if is(Workload::Resnet50Hot) && hit_ratio < 0.99 {
        failures.add(
            1,
            format!("resnet50_hot cache hit ratio {hit_ratio:.4} < 0.99"),
        );
    }
    if is(Workload::ShapeChurn) && hit_ratio > 0.7 {
        failures.add(
            1,
            format!("shape_churn cache hit ratio {hit_ratio:.4} > 0.7"),
        );
    }
    if is(Workload::ShapeChurn) != (replay.evictions > 0) {
        failures.add(1, "evictions must occur on shape_churn and only there");
    }
    if is(Workload::RealGemm) != (replay.drift_events > 0 && fallbacks > 0) {
        failures.add(
            1,
            "drift and fallbacks must occur on real_gemm and only there",
        );
    }
    if is(Workload::RealGemm) && kernel_ns < 0.8 * wall_per_req {
        failures.add(
            1,
            format!(
                "kernel time {:.3} ms is under 80% of the {:.3} ms per request",
                kernel_ns / 1e6,
                wall_per_req / 1e6
            ),
        );
    }
    if gemm.max_abs_err >= check::GEMM_TOLERANCE || replay.max_abs_err >= check::GEMM_TOLERANCE {
        failures.add(1, "an executed kernel produced a wrong C");
    }

    let metric = |name, value: f64, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("ingress.submit_ns", submit_median, "ns"),
        metric("ingress.self_ns_per_req", ingress_self, "ns"),
        metric("ingress.allocs_per_req", traced.allocs as f64 / nf, "count"),
        metric("ingress.waves_per_kreq", waves_per_kreq, "count"),
        metric("ingress.shed", shed, "count"),
        metric("sched.serve_ns_per_req", serve_per_req, "ns"),
        metric(
            "sched.self_ns_per_req",
            (replay.serve_ns as f64 - replay.launch_ns as f64) / nf,
            "ns",
        ),
        metric(
            "sched.allocs_per_req",
            replay.serve_allocs as f64 / nf,
            "count",
        ),
        metric("sched.coalesce_ratio", replay.batched as f64 / nf, "ratio"),
        metric(
            "sched.batches_per_wave",
            replay.routed as f64 / replay.waves.max(1) as f64,
            "count",
        ),
        metric(
            "sched.imbalance",
            busy.iter().copied().fold(0.0, f64::max) / mean_busy.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric(
            "sched.stolen_ratio",
            replay.stolen as f64 / replay.routed.max(1) as f64,
            "ratio",
        ),
        metric("resilient.launch_ns", launch_ns, "ns"),
        metric(
            "resilient.self_ns",
            launch_ns - launch_select - launch_submit,
            "ns",
        ),
        metric(
            "resilient.allocs_per_launch",
            replay.launch_allocs as f64 / replay.launches.max(1) as f64,
            "count",
        ),
        metric(
            "resilient.clean_ratio",
            replay.clean as f64 / replay.launches.max(1) as f64,
            "ratio",
        ),
        metric("resilient.retries", replay.retries as f64, "count"),
        metric(
            "resilient.breaker_trips",
            replay.breaker_trips as f64,
            "count",
        ),
        metric(
            "resilient.fallback_next_best",
            replay.fallback_next_best as f64,
            "count",
        ),
        metric(
            "resilient.fallback_reference",
            replay.fallback_reference as f64,
            "count",
        ),
        metric(
            "resilient.sim_waste_ratio",
            replay.waste_device_s / replay.launch_device_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("cache.select_ns", select_ns, "ns"),
        metric("cache.decide_ns", decide_ns, "ns"),
        metric("cache.hit_ratio", hit_ratio, "ratio"),
        metric("cache.miss_ns", replay.miss_ns, "ns"),
        metric(
            "cache.evictions_per_kreq",
            replay.evictions as f64 * 1e3 / replay.decisions.max(1) as f64,
            "count",
        ),
        metric(
            "cache.admission_rejects_per_kreq",
            replay.admission_rejects as f64 * 1e3 / replay.decisions.max(1) as f64,
            "count",
        ),
        metric("cache.footprint", replay.footprint as f64, "count"),
        metric(
            "select.model_ns",
            replay.model_ns as f64 / replay.model_calls.max(1) as f64,
            "ns",
        ),
        metric(
            "select.oracle_ratio",
            replay.oracle_s / replay.pick_s.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("online.select_ns", online_select_ns, "ns"),
        metric(
            "online.record_ns",
            replay.online_record_ns as f64 / replay.decisions.max(1) as f64,
            "ns",
        ),
        metric("online.drift_events", replay.drift_events as f64, "count"),
        metric(
            "online.adaptive_picks",
            replay.adaptive_picks as f64,
            "count",
        ),
        metric(
            "online.reward_updates",
            replay.reward_updates as f64,
            "count",
        ),
        metric(
            "online.stale_rewards_dropped",
            replay.stale_rewards_dropped as f64,
            "count",
        ),
        metric("sim.submit_ns", sim_submit_ns, "ns"),
        metric("sim.device_busy_s", replay.launch_device_s, "sim-s"),
        metric("sim.faults", replay.faults as f64, "count"),
        metric("gemm.kernel_ms", kernel_ns / 1e6, "ms"),
        metric(
            "gemm.gflops",
            gemm.flops / gemm.kernel_ns.max(1) as f64,
            "GFLOP/s",
        ),
        metric("gemm.mflop_per_req", mflop, "MFLOP"),
        metric("gemm.computed_mb_per_req", mbytes, "MB"),
        metric(
            "gemm.max_abs_err",
            f64::from(gemm.max_abs_err.max(replay.max_abs_err)).min(f64::MAX),
            "abs",
        ),
        metric("persist.capture_ms", median(&mut capture_ns) / 1e6, "ms"),
        metric("persist.save_ms", median(&mut save_ns) / 1e6, "ms"),
        metric("persist.snapshot_kb", snapshot_bytes as f64 / 1024.0, "KiB"),
        metric("persist.snapshots_written", snapshots_written, "count"),
        metric("persist.snapshot_errors", snapshot_errors, "count"),
        metric("setup.collect_s", median(&mut stages[0]) / 1e9, "s"),
        metric("setup.train_s", median(&mut stages[1]) / 1e9, "s"),
        metric("setup.fleet_s", median(&mut stages[2]) / 1e9, "s"),
        metric(
            "loadgen.late_p50_us",
            run::quantile(&mut traced.open.late_ns, 0.5) / 1e3,
            "us",
        ),
        metric(
            "loadgen.late_max_us",
            run::quantile(&mut traced.open.late_ns, 1.0) / 1e3,
            "us",
        ),
        metric(
            "loadgen.latency_p99_us",
            run::quantile(&mut traced.open.latency_ns, 0.99) / 1e3,
            "us",
        ),
        metric("loadgen.samples", samples as f64, "count"),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ];

    // The per-layer table: calls, time and self time per call, counts.
    println!(
        "{} traced run, seed {seed}: {n} requests replayed per layer",
        workload.name()
    );
    println!(
        "{:<10} {:>8} {:>14} {:>14}  counts",
        "layer", "calls", "ns/call", "self ns/call"
    );
    let model_ns = replay.model_ns as f64 / replay.model_calls.max(1) as f64;
    let rows = [
        ("ingress", n as u64, full_cpu_per_req, ingress_self,
            format!("submit p50 {submit_median:.0} ns, allocs/req {:.2}, waves/kreq {waves_per_kreq:.2}, shed {shed}", traced.allocs as f64 / nf)),
        ("sched", n as u64, serve_per_req, (replay.serve_ns as f64 - replay.launch_ns as f64) / nf,
            format!("coalesced {}, routed {}, waves {}, stolen {}", replay.batched, replay.routed, replay.waves, replay.stolen)),
        ("resilient", replay.launches, launch_ns, launch_ns - launch_select - launch_submit,
            format!("clean {}, retries {}, next-best {}, reference {}", replay.clean, replay.retries, replay.fallback_next_best, replay.fallback_reference)),
        ("cache", replay.decisions, select_ns, select_ns - replay.misses as f64 * model_ns / replay.decisions.max(1) as f64,
            format!("hit ratio {hit_ratio:.4}, evictions {}, rejects {}, footprint {}", replay.evictions, replay.admission_rejects, replay.footprint)),
        ("select", replay.model_calls, model_ns, model_ns,
            format!("oracle ratio {:.4}", replay.oracle_s / replay.pick_s.max(f64::MIN_POSITIVE))),
        ("online", replay.decisions, online_select_ns, online_select_ns - select_ns,
            format!("drift {}, adaptive picks {}, rewards {}", replay.drift_events, replay.adaptive_picks, replay.reward_updates)),
        ("sim", replay.sim_submits, sim_submit_ns, sim_submit_ns,
            format!("faults {}, device busy {:.6} sim-s", replay.faults, replay.launch_device_s)),
        ("gemm", gemm.calls, kernel_ns, kernel_ns,
            format!("{:.3} GFLOP/s, max err {:e}", gemm.flops / gemm.kernel_ns.max(1) as f64, gemm.max_abs_err)),
    ];
    for (layer, calls, time, own, counts) in rows {
        println!("{layer:<10} {calls:>8} {time:>14.1} {own:>14.1}  {counts}");
    }
    println!(
        "tracing overhead: traced full path {:.1} ns/req vs untraced {:.1} ns/req ({:+.2}%)",
        wall_per_req,
        plain.wall_ns as f64 / nf,
        overhead * 100.0
    );
    let trace_path = out_dir.join(format!("trace-{}-seed{seed}.json", workload.name()));
    match tracer.write_chrome(&trace_path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            trace_path.display()
        ),
        Err(e) => failures.add(1, format!("cannot write {}: {e}", trace_path.display())),
    }
    for note in &failures.notes {
        println!("FAILED: {note}");
    }
    Outcome {
        metrics,
        attempted: (warmup + n + open) as u64,
        failures,
    }
}
