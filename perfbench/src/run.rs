//! The measured run: set-up, warm-up, a closed-loop phase and an
//! open-loop phase through the public serving surface, then every
//! correctness check and the end-to-end metrics.

use crate::check::{self, Failures};
use crate::deploy;
use crate::host;
use crate::workload::{self, Operands, Rng, Stream, Workload, CHURN_QUALITY_SAMPLE};
use autokernel_core::{GemmRequest, Ingress, IngressRequest, Priority, TuningPipeline};
use autokernel_gemm::{model, GemmShape, KernelConfig};
use autokernel_sycl_sim::Buffer;
use autokernel_sycl_sim::{DeviceSpec, Queue, SimClock};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` the closed-loop phase is sized for.
pub const CLOSED_SHARE: f64 = 0.6;
/// Share of `--seconds` the open-loop phase lasts.
pub const OPEN_SHARE: f64 = 0.4;
/// Back-to-back builds per run; `setup_s` is their median. One build takes
/// 15–34 ms across processes, too short to time once.
pub const SETUP_BUILDS: usize = 15;
/// Segments the closed-loop phase is cut into; throughput and host CPU
/// are medians over them, so a VM stall in one segment does not move
/// the run's figure.
pub const SEGMENTS: usize = 25;

/// A workload's requests, ready to submit.
pub struct Inputs {
    /// The seeded stream.
    pub stream: Stream,
    /// One zero-operand template per distinct shape (timing-only fleets).
    templates: Vec<GemmRequest>,
    /// Operands and expected products (`real_gemm`).
    pub operands: Option<Operands>,
    /// Submitted real-GEMM outputs not yet checked, in submission order.
    pending: RefCell<VecDeque<(usize, Buffer<f32>)>>,
    /// Wrong outputs found so far, and the largest error seen.
    verdict: Cell<(u64, f32)>,
}

impl Inputs {
    /// The first `n` requests of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, n: usize) -> Self {
        let stream = workload::stream(workload, seed, n);
        let (templates, operands) = if workload.spec().executing() {
            (Vec::new(), Some(Operands::generate(&stream.shapes, seed)))
        } else {
            (workload::zeroed_templates(&stream.shapes), None)
        };
        Inputs {
            stream,
            templates,
            operands,
            pending: RefCell::new(VecDeque::new()),
            verdict: Cell::new((0, 0.0)),
        }
    }

    /// Request `i`. Timing-only requests are shallow clones of a template
    /// (buffers are shared, SYCL-style); a real-GEMM request gets its own
    /// NaN-filled `C`.
    pub fn request(&self, i: usize) -> GemmRequest {
        match &self.operands {
            Some(operands) => operands.request(&self.stream, i),
            None => self.templates[self.stream.order[i] as usize].clone(),
        }
    }

    /// Remember the output of submitted request `i` for [`Inputs::check_served`].
    pub fn track(&self, i: usize, request: &GemmRequest) {
        if self.operands.is_some() {
            self.pending.borrow_mut().push_back((i, request.c.clone()));
        }
    }

    /// The output of a submitted request that is not checked yet.
    pub fn pending_output(&self, i: usize) -> Option<Buffer<f32>> {
        let pending = self.pending.borrow();
        pending
            .iter()
            .find(|(j, _)| *j == i)
            .map(|(_, c)| c.clone())
    }

    /// Check, and then drop, the outputs of every tracked request before
    /// stream position `upto` (requests complete in submission order).
    /// Only these outputs are held, so memory stays bounded by the
    /// requests in flight.
    pub fn check_served(&self, upto: usize) {
        let Some(operands) = &self.operands else {
            return;
        };
        let mut pending = self.pending.borrow_mut();
        let (mut wrong, mut worst) = self.verdict.get();
        while pending.front().is_some_and(|(i, _)| *i < upto) {
            let Some((i, c)) = pending.pop_front() else {
                break;
            };
            let err = check::max_abs_err(&c.read(), operands.expected(&self.stream, i));
            worst = worst.max(err);
            wrong += u64::from(err >= check::GEMM_TOLERANCE);
        }
        self.verdict.set((wrong, worst));
    }

    /// Wrong outputs found so far, and the largest error seen.
    pub fn verdict(&self) -> (u64, f32) {
        self.verdict.get()
    }
}

/// Submit request `i` at interactive priority (blocks on a full queue,
/// never sheds); returns whether it was enqueued.
pub fn submit(ingress: &Ingress, inputs: &Inputs, i: usize) -> bool {
    let request = inputs.request(i);
    inputs.track(i, &request);
    let request = IngressRequest::new(request).with_priority(Priority::Interactive);
    matches!(ingress.submit(request), Ok(outcome) if outcome.is_enqueued())
}

/// Requests served so far, read from the ingress report.
pub fn served(ingress: &Ingress) -> u64 {
    host::quiet(|| ingress.report().served)
}

/// How long a phase may go without a single request completing before
/// the run gives up on it (and counts the rest as failed).
pub const STALL_LIMIT: Duration = Duration::from_secs(20);

/// Wait until `target` requests have been served, polling the report.
/// Returns the instant the target was seen, or `Err(served)` if serving
/// stalled for [`STALL_LIMIT`].
pub fn wait_served(ingress: &Ingress, target: u64) -> Result<Instant, u64> {
    let mut last = (served(ingress), Instant::now());
    loop {
        let now_served = served(ingress);
        if now_served >= target {
            return Ok(Instant::now());
        }
        if now_served != last.0 {
            last = (now_served, Instant::now());
        } else if last.1.elapsed() > STALL_LIMIT {
            return Err(now_served);
        }
        std::thread::sleep(Duration::from_micros(20));
    }
}

/// Serve stream positions `range` closed-loop: one producer keeps at
/// most `2 × window` requests in flight, submitting a burst of `window`
/// whenever at most `window` remain. Bursts never meet a full queue
/// (`window` is half its capacity), so the producer never blocks in
/// `submit` and sleeps between polls instead. With `window` at least a
/// few dispatch chunks, the dispatcher always finds a full chunk waiting.
///
/// The range is cut into `segments` equal parts; the returned marks hold
/// the wall instant and process CPU time when each boundary's requests
/// had all been served (the first mark is the start). Returns the
/// refused count and the marks, or `Err(served)` if serving stalled.
pub fn closed_loop(
    ingress: &Ingress,
    inputs: &Inputs,
    range: std::ops::Range<usize>,
    window: usize,
    segments: usize,
) -> (u64, Result<Vec<(Instant, u64)>, u64>) {
    let segments = segments.max(1);
    let len = range.end - range.start;
    let bounds: Vec<u64> = (1..=segments)
        .map(|k| (range.start + len * k / segments) as u64)
        .collect();
    let mut marks = Vec::with_capacity(segments + 1);
    marks.push((Instant::now(), host::process_cpu_ns()));
    let mut refused = 0u64;
    let mut next = range.start;
    let mut last = (0u64, Instant::now());
    loop {
        if next < range.end {
            let burst_end = (next + window).min(range.end);
            for i in next..burst_end {
                refused += u64::from(!submit(ingress, inputs, i));
            }
            next = burst_end;
        }
        let done = served(ingress) + refused;
        inputs.check_served(done as usize);
        while let Some(&bound) = bounds.get(marks.len() - 1) {
            if done < bound {
                break;
            }
            marks.push((Instant::now(), host::process_cpu_ns()));
        }
        if marks.len() > segments {
            return (refused, Ok(marks));
        }
        if done != last.0 {
            last = (done, Instant::now());
        } else if last.1.elapsed() > STALL_LIMIT {
            return (refused, Err(done - refused));
        }
        if next >= range.end || next as u64 - done > window as u64 {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// Median over segments of requests per second and of process CPU
/// nanoseconds per request, from [`closed_loop`] marks over `len`
/// requests.
pub fn segment_medians(marks: &[(Instant, u64)], len: usize) -> (f64, f64) {
    let segments = marks.len().saturating_sub(1).max(1);
    let mut rates = Vec::with_capacity(segments);
    let mut cpus = Vec::with_capacity(segments);
    for (k, pair) in marks.windows(2).enumerate() {
        let requests = (len * (k + 1) / segments - len * k / segments) as f64;
        let wall = pair[1].0.saturating_duration_since(pair[0].0).as_secs_f64();
        rates.push((requests / wall.max(1e-9) * 1e3) as u64);
        cpus.push((pair[1].1.saturating_sub(pair[0].1) as f64 / requests * 1e3) as u64);
    }
    (
        quantile(&mut rates, 0.5) / 1e3,
        quantile(&mut cpus, 0.5) / 1e3,
    )
}

/// Device-clock readings, in simulated seconds.
pub fn read_clocks(clocks: &[SimClock]) -> Vec<f64> {
    clocks.iter().map(SimClock::now_s).collect()
}

/// Fleet makespan and summed device time between two clock readings.
pub fn sim_advance(before: &[f64], after: &[f64]) -> (f64, f64) {
    let advances: Vec<f64> = before
        .iter()
        .zip(after)
        .map(|(b, a)| (a - b).max(0.0))
        .collect();
    let makespan = advances.iter().copied().fold(0.0, f64::max);
    (makespan, advances.iter().sum())
}

/// Modelled duration of `config` on `shape` for `queue`'s device, or
/// `None` when the device cannot launch it.
pub fn modelled_s(queue: &Queue, config: &KernelConfig, shape: &GemmShape) -> Option<f64> {
    let range = model::launch_range(config, shape).ok()?;
    let profile = model::profile(config, shape, queue.device());
    queue
        .price(&profile, &range, model::noise_seed(config, shape))
        .ok()
        .map(|(_, duration)| duration)
}

/// The paper's Table I quantity on served traffic: geometric mean over
/// `shapes` of the fastest launchable configuration's modelled time over
/// the selector's pick's, on the R9 Nano training device.
pub fn selection_geomean(pipeline: &TuningPipeline, shapes: &[GemmShape]) -> f64 {
    let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
    let all = KernelConfig::all();
    let mut log_sum = 0.0;
    for shape in shapes {
        let best = all
            .iter()
            .filter_map(|c| modelled_s(&queue, c, shape))
            .fold(f64::INFINITY, f64::min);
        let pick = pipeline
            .select(shape)
            .ok()
            .and_then(|c| modelled_s(&queue, &c, shape))
            .unwrap_or(f64::INFINITY);
        log_sum += (best / pick).clamp(1e-9, 1.0).ln();
    }
    (log_sum / shapes.len().max(1) as f64).exp()
}

/// The distinct shapes `selection_geomean` scores: all of them, or on
/// `shape_churn` a fixed seeded sample.
pub fn quality_shapes(workload: Workload, stream: &Stream, seed: u64) -> Vec<GemmShape> {
    if workload != Workload::ShapeChurn || stream.shapes.len() <= CHURN_QUALITY_SAMPLE {
        return stream.shapes.clone();
    }
    let mut rng = Rng::new(seed, 0x51a9);
    let mut pool = stream.shapes.clone();
    for i in 0..CHURN_QUALITY_SAMPLE {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(CHURN_QUALITY_SAMPLE);
    pool
}

/// Completion latencies and generator lateness from an open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Observed completion minus due send time, per request (ns).
    pub latency_ns: Vec<u64>,
    /// Actual minus due send time, per request (ns).
    pub late_ns: Vec<u64>,
    /// Requests the ingress refused, plus any still unserved when serving
    /// stalled for [`STALL_LIMIT`].
    pub lost: u64,
}

/// Send `n` requests starting at stream position `first`, request `j`
/// due at `j / rate` seconds. Completion is read from the ingress
/// report: with one producer, FIFO chunks and nothing shed, the `served`
/// count says which requests are done. `spin` busy-polls (sub-µs
/// services); otherwise the generator sleeps between polls, leaving the
/// cores to the kernels.
pub fn open_loop(
    ingress: &Ingress,
    inputs: &Inputs,
    first: usize,
    n: usize,
    rate: f64,
    spin: bool,
) -> OpenLoop {
    let base = served(ingress);
    let period_ns = 1e9 / rate;
    let t0 = Instant::now() + Duration::from_micros(200);
    let due = |j: usize| t0 + Duration::from_nanos((j as f64 * period_ns) as u64);
    let mut out = OpenLoop {
        latency_ns: vec![0; n],
        late_ns: Vec::with_capacity(n),
        lost: 0,
    };
    let (mut next, mut done) = (0usize, 0usize);
    let mut progress = Instant::now();
    while done < n {
        let now = Instant::now();
        if next == n && now.saturating_duration_since(progress) > STALL_LIMIT {
            out.lost += (n - done) as u64;
            out.latency_ns.truncate(done);
            break;
        }
        while next < n && due(next) <= now {
            out.late_ns.push(
                Instant::now()
                    .saturating_duration_since(due(next))
                    .as_nanos() as u64,
            );
            if !submit(ingress, inputs, first + next) {
                out.lost += 1;
            }
            next += 1;
        }
        let finished = ((served(ingress) - base) as usize).min(next);
        inputs.check_served(first + finished);
        if finished > done {
            let seen = Instant::now();
            for (j, slot) in out
                .latency_ns
                .iter_mut()
                .enumerate()
                .take(finished)
                .skip(done)
            {
                *slot = seen.saturating_duration_since(due(j)).as_nanos() as u64;
            }
            done = finished;
            progress = seen;
        }
        if !spin && done < n {
            let wake = if next < n {
                due(next)
            } else {
                now + Duration::from_micros(200)
            };
            let nap = wake
                .saturating_duration_since(Instant::now())
                .min(Duration::from_micros(200));
            std::thread::sleep(nap);
        } else {
            std::hint::spin_loop();
        }
    }
    out
}

/// `q`-quantile of `values` (sorted in place), nearest rank.
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Requests submitted in the measured phases.
    pub attempted: u64,
    /// Failed requests and violated invariants.
    pub failures: Failures,
}

/// Request counts of the three phases for `--seconds`.
pub fn phase_sizes(workload: Workload, seconds: f64) -> (usize, usize, usize) {
    let spec = workload.spec();
    let closed = (spec.closed_rate * seconds * CLOSED_SHARE).ceil().max(1.0) as usize;
    let open = (spec.open_rate * seconds * OPEN_SHARE).ceil().max(1.0) as usize;
    (spec.warmup, closed, open)
}

/// Fault onset for `real_gemm`: a twentieth into the closed-loop phase,
/// counted in the faulty device's submissions (it serves about half).
pub fn fault_onset(warmup: usize, closed: usize, devices: usize) -> u64 {
    ((warmup + closed / 20) / devices.max(1)) as u64
}

/// The measured end-to-end run.
pub fn run(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let spec = workload.spec();
    let (warmup, closed, open) = phase_sizes(workload, seconds);
    let inputs = Inputs::new(workload, seed, warmup + closed + open);
    let onset = fault_onset(warmup, closed, spec.devices.len());
    let snapshot = out_dir.join(format!("snapshot-{}.json", std::process::id()));

    // Set-up: several builds back to back, median reported; the last
    // build serves the phases.
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut deployment = None;
    for _ in 0..SETUP_BUILDS {
        let start = Instant::now();
        let built = deploy::start(workload, seed, onset, &snapshot);
        setup.push(start.elapsed().as_nanos() as u64);
        if let Some(previous) = deployment.replace(built) {
            let previous: deploy::Deployment = previous;
            let _ = previous.ingress.finish();
        }
    }
    let deploy::Deployment {
        pipeline,
        clocks,
        ingress,
        ..
    } = deployment.expect("at least one build");

    let mut failures = Failures::default();
    let window = (spec.ingress.queue_capacity / 2).max(1);
    // Warm-up: caches fill, lazy state settles; untimed.
    let (mut refused, warm) = closed_loop(&ingress, &inputs, 0..warmup, window, 1);
    if let Err(got) = warm {
        failures.add(warmup as u64 - got, "warm-up requests stalled");
    }

    // Closed loop: one producer, as fast as the bounded queue admits.
    let clocks0 = read_clocks(&clocks);
    let (closed_refused, marks) =
        closed_loop(&ingress, &inputs, warmup..warmup + closed, window, SEGMENTS);
    refused += closed_refused;
    let clocks1 = read_clocks(&clocks);
    let (throughput, cpu_ns_per_req) = match &marks {
        Ok(marks) => segment_medians(marks, closed),
        Err(got) => {
            failures.add(
                (warmup + closed) as u64 - got,
                "closed-loop requests stalled",
            );
            (0.0, 0.0)
        }
    };
    let wall_s = marks
        .as_ref()
        .map(|m| {
            m[m.len() - 1]
                .0
                .saturating_duration_since(m[0].0)
                .as_secs_f64()
        })
        .unwrap_or(0.0);
    let (makespan_s, device_s) = sim_advance(&clocks0, &clocks1);
    if let Ok(marks) = &marks {
        let rates: Vec<String> = marks
            .windows(2)
            .map(|w| {
                format!(
                    "{:.0}",
                    closed as f64
                        / SEGMENTS as f64
                        / w[1].0.saturating_duration_since(w[0].0).as_secs_f64()
                )
            })
            .collect();
        println!(
            "diagnostics (not gated): closed-loop segment rates {}",
            rates.join(" ")
        );
    }

    // Open loop at a fixed offered rate.
    let mut open_loop = open_loop(
        &ingress,
        &inputs,
        warmup + closed,
        open,
        spec.open_rate,
        !spec.executing(),
    );
    refused += open_loop.lost;
    failures.add(refused, "requests refused by the ingress or stalled");

    let (report, scheduler) = match ingress.finish() {
        Ok(done) => done,
        Err(e) => {
            failures.add((closed + open) as u64, format!("dispatcher failed: {e}"));
            return Outcome {
                attempted: (closed + open) as u64,
                failures,
                ..Outcome::default()
            };
        }
    };

    // Checks.
    check::accounting(&report, (warmup + closed + open) as u64, &mut failures);
    inputs.check_served(usize::MAX);
    failures.add(inputs.verdict().0, "requests served with a wrong C");
    let mut telemetry = Vec::new();
    for i in 0..spec.devices.len() {
        let Some(shard) = scheduler.shard(i) else {
            failures.add(1, "a shard went missing");
            continue;
        };
        let cache = shard.executor().selector().cache();
        if let Some(bound) = cache.capacity() {
            if cache.footprint() > bound {
                failures.add(1, format!("shard {i} decision cache above its bound"));
            }
        }
        telemetry.push(shard.executor().selector().telemetry().snapshot());
    }
    if spec.snapshot_every_chunks > 0 {
        failures.add(report.snapshot_errors, "snapshot writes failed");
        if report.snapshots_written == 0 {
            failures.add(1, "the snapshotter wrote nothing");
        }
    }
    if workload == Workload::RealGemm {
        let drift: u64 = telemetry.iter().map(|t| t.drift_events).sum();
        let fallbacks: u64 = telemetry
            .iter()
            .map(|t| t.fallback_next_best + t.fallback_reference)
            .sum();
        if drift == 0 {
            failures.add(1, "the scripted fault onset tripped no drift");
        }
        if fallbacks == 0 {
            failures.add(1, "the scripted fault onset caused no fallback");
        }
    }
    let _ = std::fs::remove_file(&snapshot);

    let attempted = (closed + open) as u64;
    let geomean = selection_geomean(&pipeline, &quality_shapes(workload, &inputs.stream, seed));
    let hits: u64 = telemetry.iter().map(|t| t.hits).sum();
    let decisions: u64 = telemetry.iter().map(|t| t.hits + t.misses).sum();
    let samples = open_loop.latency_ns.len();
    let p50 = quantile(&mut open_loop.latency_ns, 0.5);
    let p99 = quantile(&mut open_loop.latency_ns, 0.99);
    let p999 = quantile(&mut open_loop.latency_ns, 0.999);
    let late_p50 = quantile(&mut open_loop.late_ns, 0.5);
    let late_max = quantile(&mut open_loop.late_ns, 1.0);
    println!(
        "{}: closed loop {closed} requests in {wall_s:.3} s; open loop {open} requests at {} req/s",
        workload.name(),
        spec.open_rate
    );
    println!(
        "diagnostics (not gated): wall-clock latency p99 {:.1} us ({} samples beyond), p99.9 {:.1} us ({} beyond) of {samples}; generator late p50 {:.1} us, max {:.1} us",
        p99 / 1e3,
        samples - (samples as f64 * 0.99).ceil() as usize,
        p999 / 1e3,
        samples - (samples as f64 * 0.999).ceil() as usize,
        late_p50 / 1e3,
        late_max / 1e3,
    );
    println!(
        "diagnostics (not gated): cache hit ratio {:.4}, scheduler waves {}, snapshots {}, available parallelism {}",
        hits as f64 / decisions.max(1) as f64,
        report.waves,
        report.snapshots_written,
        host::nproc()
    );
    for note in &failures.notes {
        println!("FAILED: {note}");
    }

    let metric = |name, value, unit| Metric { name, value, unit };
    Outcome {
        metrics: vec![
            metric("throughput_rps", throughput, "req/s"),
            metric("host_cpu_us_per_req", cpu_ns_per_req / 1e3, "us"),
            metric("latency_p50_us", p50 / 1e3, "us"),
            metric(
                "sim_throughput_rps",
                closed as f64 / makespan_s,
                "req/sim-s",
            ),
            metric(
                "sim_device_ms_per_req",
                device_s * 1e3 / closed as f64,
                "sim-ms",
            ),
            metric("selection_geomean", geomean, "ratio"),
            metric(
                "correct_ratio",
                1.0 - failures.count.min(attempted) as f64 / attempted as f64,
                "ratio",
            ),
            metric("setup_s", quantile(&mut setup, 0.5) / 1e9, "s"),
            metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        ],
        attempted,
        failures,
    }
}
