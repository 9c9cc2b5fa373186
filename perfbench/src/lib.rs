//! End-to-end and per-layer benchmark of the autokernel serving stack.
//!
//! One command builds the deployment from nothing and drives a seeded
//! workload through the public serving surface — `Ingress` →
//! `ShardedScheduler` → `ResilientExecutor` → `CachedSelector` /
//! `OnlineSelector` → `sycl-sim` `Queue` → `gemm` kernels — checks every
//! output and prints the end-to-end metrics. `--trace 1` runs the separate
//! traced run ([`traced`]) that prints the per-layer metrics instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet50_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check makes `correct`
//! false and the exit code non-zero. A flag given twice takes its last
//! value, so `BENCHMARK.json`'s command records the default seed.
//!
//! # Workloads
//!
//! The seed is an argument; streams, operands and fault plans all derive
//! from it, and the program sees only the generated requests.
//!
//! * `resnet50_hot` — whole ResNet-50 forward passes (84 distinct GEMMs
//!   over batch 1/4/16/32, batch drawn per pass) on one R9 Nano and two
//!   desktop GPUs, timing-only, with bounded decision caches larger than
//!   the shape set. After warm-up every decision is a cache hit and no
//!   kernel body runs, so host time is pure serving overhead: serving
//!   through `decide` and the stage-cost fixes must show here.
//! * `shape_churn` — half ResNet-50 batch-1 layers, half a tail of about
//!   fifteen thousand distinct transformer shapes (`M = batch × seq`,
//!   `K × N` from the BERT-base projections) against caches bounded far
//!   below that, with the background snapshotter on. Cache inserts, LRU
//!   evictions, Bloom admission and model inference on misses all happen
//!   beside the hits: the write side of the layers `resnet50_hot` only
//!   reads. An O(1) eviction should move only this workload.
//! * `real_gemm` — small real-network GEMMs (batch-1 layers of the paper's
//!   CNNs and BERT-base at short sequences, under a 2.2 MFLOP cap because
//!   the host runs these kernels at 0.2–2.4 GFLOP/s) with seeded operands
//!   and a NaN-filled `C` per request, on two executing devices built with
//!   `TuningPipeline::device_adaptive_executor`. One device's fault plan
//!   turns on early in the closed-loop phase: 2 % transient faults plus
//!   one doomed shipped configuration, so retries, next-best fallbacks and
//!   a drift trip into the bandit all happen. Every `C` is compared with
//!   `reference_gemm`, and the run fails unless drift and fallbacks occur.
//!   Requests are dispatched one at a time, so the `sim_*` figures repeat
//!   exactly for a seed. `BENCHMARK.json` does not gate this workload: its
//!   wall-clock figures spread 20–80 % from run to run on a 2-vCPU VM,
//!   because every kernel spawns and joins a thread per core, so a stall
//!   of either vCPU stalls the kernel. Run it by name for the kernel layer
//!   and the fault path.
//!
//! # Phases of a measured run
//!
//! Set-up (several builds, median), an untimed warm-up, a closed-loop
//! phase sized to 60 % of `--seconds`, and an open-loop phase lasting
//! 40 % of it. The closed loop keeps at most a queue's worth of requests
//! in flight from one producer that submits in half-queue bursts, so it
//! never blocks in `submit` and sleeps while it waits.
//!
//! # End-to-end metrics
//!
//! | name | unit | better | definition |
//! |---|---|---|---|
//! | `throughput_rps` | req/s | higher | closed loop: median over 25 equal segments of requests served ÷ wall time |
//! | `host_cpu_us_per_req` | µs | lower | closed loop: median over the segments of process CPU (user + sys, all threads) ÷ requests |
//! | `latency_p50_us` | µs | lower | open loop at a fixed rate, about a third of capacity or less: median of observed completion minus due send time |
//! | `sim_throughput_rps` | req/sim-s | higher | closed-loop requests ÷ fleet makespan (largest device-clock advance) |
//! | `sim_device_ms_per_req` | sim-ms | lower | summed device-clock advance over the closed loop ÷ requests, failed attempts and backoff included |
//! | `selection_geomean` | ratio | higher | geometric mean over the workload's distinct shapes (a seeded sample of 256 on `shape_churn`) of the fastest launchable configuration's modelled time ÷ the pick's, on the R9 Nano |
//! | `correct_ratio` | ratio | higher | 1 − (requests shed, refused, unserved or with a wrong `C`, plus violated run invariants) ÷ requests submitted in the measured phases |
//! | `setup_s` | s | lower | median of 15 back-to-back builds from nothing to a started ingress |
//! | `peak_rss_mb` | MiB | lower | `VmHWM` of the process at exit |
//!
//! `correct_ratio` is the complement of the failed share: it reads 1 today,
//! and a metric that reads 0 has no relative bound. Completion in the
//! open loop is seen through `Ingress::report().served`, which works
//! because there is one producer, chunks complete in FIFO order and
//! nothing is shed.
//!
//! # Why the metrics are these
//!
//! Probes on a 2-vCPU VM shaped the design:
//!
//! * Wall-clock tails measure VM stalls, not the program: an open-loop p99
//!   ranged from 1.2 ms to 11.3 ms over ten identical runs while the p50
//!   held. So `latency_p50_us` is the only wall-clock latency metric; the
//!   p99 and p99.9 are printed as diagnostics with their sample counts, and
//!   tail behaviour is judged in simulated time.
//! * The parallel executor adds noise on two vCPUs (a thread per shard per
//!   wave), so every workload runs `SchedConfig::parallel = false` and a
//!   measured phase holds at most two busy threads: the generator and the
//!   dispatcher, or on `real_gemm` the kernel's two workers while the
//!   generator sleeps. The parallel and stealing executors stay unmeasured.
//! * The VM loses about an eighth of its CPU time to steal, in bursts, so
//!   one closed-loop figure moved by 15–20 % from run to run. The closed
//!   loop is cut into segments and the median segment is reported.
//! * An idle vCPU halts and wakes slowly, by an amount the host varies.
//!   The open-loop rates keep the dispatcher's idle gaps short (25–40 µs),
//!   where the wake-up cost held steady.
//! * One build of the stack takes 15–34 ms, too short to time once, so
//!   `setup_s` is the median of several builds in one process.
//! * Simulated-clock metrics depend only on how requests are chunked; in
//!   the closed loop chunks are full, so the `sim_*` metrics come from it.
//!
//! The snapshotter writes inside the checkout (the benchmark reads and
//! writes nowhere else), so every snapshot pays a real `fsync`, about
//! 40 ms. Its cadence is in dispatched chunks, and chunks hold 1024
//! requests in the closed loop but one or two in the open loop, so
//! `shape_churn` snapshots every 16 384 chunks: none fall in the closed
//! loop and one lands every second or so of the open loop. The traced run
//! times capture and save directly. Disk latency is out of scope.

pub mod check;
pub mod deploy;
pub mod host;
pub mod run;
pub mod traced;
pub mod workload;

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;
