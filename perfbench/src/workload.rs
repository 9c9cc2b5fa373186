//! The three workloads: their traffic, their fleets and their seeded
//! inputs. Everything a run feeds the program derives from the seed; the
//! program only ever sees the generated requests.

use autokernel_core::{
    BoundedCacheConfig, GemmRequest, IngressConfig, RoutingPolicy, SchedConfig, TenantQuota,
};
use autokernel_gemm::reference::{reference_gemm, test_matrices};
use autokernel_gemm::GemmShape;
use autokernel_sycl_sim::{Buffer, DeviceSpec};
use autokernel_workloads::models::{bert_base, mobilenet_v2, resnet50, vgg16};
use std::collections::{BTreeSet, HashMap};

/// SplitMix64: a tiny seeded generator, so the benchmark's inputs depend
/// on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream `salt` of seed `seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole ResNet-50 forward passes at batch 1/4/16/32 on a timing-only
    /// fleet whose decision caches hold every shape: pure serving overhead.
    Resnet50Hot,
    /// Half ResNet-50 batch-1 layers, half a long tail of distinct
    /// transformer shapes against small bounded caches, with background
    /// snapshots: the write side of the cache and persistence layers.
    ShapeChurn,
    /// Small real-network GEMMs executed on the host with seeded operands
    /// and faults, fallbacks and a drift trip on one device: kernel bodies
    /// and the resilience path, with every `C` checked.
    RealGemm,
}

/// How a workload's fleet and phases are configured.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Fleet devices, shard label and model.
    pub devices: Vec<(&'static str, DeviceSpec)>,
    /// Bounded decision caches on timing-only queues; `None` means
    /// executing queues (kernel bodies run) under adaptive executors, each
    /// with its unbounded cache and online layer.
    pub cache: Option<BoundedCacheConfig>,
    /// Ingress knobs.
    pub ingress: IngressConfig,
    /// Scheduler knobs. `parallel` is always false: on two vCPUs a thread
    /// per shard per wave measured noise, not the program.
    pub sched: SchedConfig,
    /// Background snapshot cadence in dispatched chunks (0: no snapshotter).
    pub snapshot_every_chunks: u64,
    /// Untimed warm-up requests before the closed-loop phase.
    pub warmup: usize,
    /// Nominal closed-loop rate, used only to size the phase to
    /// `--seconds`; the measured rate is what is reported.
    pub closed_rate: f64,
    /// Offered open-loop rate: at most about a third of what the
    /// dispatcher sustains with the open loop's small chunks, and high
    /// enough that its idle gaps stay short (a halted vCPU wakes slowly).
    pub open_rate: f64,
    /// Requests the traced run replays layer by layer.
    pub traced_requests: usize,
}

impl Spec {
    /// Whether kernel bodies run (the adaptive, executing fleet).
    pub fn executing(&self) -> bool {
        self.cache.is_none()
    }
}

/// ResNet-50 batch sizes the hot workload draws per forward pass.
pub const RESNET_BATCHES: [usize; 4] = [1, 4, 16, 32];
/// Real-GEMM FLOP cap: the host runs the kernels at 0.2–2.4 GFLOP/s, so
/// paper-size shapes would take 16 ms to 34 s each. Under the cap each
/// kernel takes 0.1–3 ms, enough requests for steady figures per run.
pub const REAL_GEMM_FLOP_CAP: f64 = 2.2e6;
/// Operand sets per real-GEMM shape; each request draws one.
pub const OPERAND_VARIANTS: usize = 4;
/// Transformer tail: `M = batch × seq` with these ranges, `K × N` from
/// the BERT-base projections.
const TAIL_MAX_BATCH: usize = 16;
const TAIL_MAX_SEQ: usize = 512;
const BERT_PROJECTIONS: [(usize, usize); 4] = [(768, 768), (768, 2304), (768, 3072), (3072, 768)];
/// Distinct shapes `selection_geomean` samples on `shape_churn`.
pub const CHURN_QUALITY_SAMPLE: usize = 256;

fn sched(queue_capacity: usize, batch_window: usize) -> SchedConfig {
    SchedConfig {
        policy: RoutingPolicy::LeastLoaded,
        queue_capacity,
        batch_window,
        seed: 11,
        parallel: false,
        ..SchedConfig::default()
    }
}

fn ingress(queue_capacity: usize, dispatch_chunk: usize) -> IngressConfig {
    IngressConfig {
        queue_capacity,
        dispatch_chunk,
        // One tenant whose quota never binds before the queue does:
        // interactive requests wait for space and nothing is shed.
        tenant_quota: TenantQuota {
            max_queued: usize::MAX,
        },
        ..IngressConfig::default()
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Resnet50Hot,
        Workload::ShapeChurn,
        Workload::RealGemm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Resnet50Hot => "resnet50_hot",
            Workload::ShapeChurn => "shape_churn",
            Workload::RealGemm => "real_gemm",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fleet and phase configuration.
    pub fn spec(self) -> Spec {
        let gpus = vec![
            ("nano-0", DeviceSpec::amd_r9_nano()),
            ("desktop-0", DeviceSpec::desktop_gpu()),
            ("desktop-1", DeviceSpec::desktop_gpu()),
        ];
        match self {
            Workload::Resnet50Hot => Spec {
                devices: gpus,
                cache: Some(BoundedCacheConfig {
                    capacity: 1024,
                    admit_threshold: 1,
                    ..BoundedCacheConfig::default()
                }),
                ingress: ingress(8192, 1024),
                sched: sched(64, 32),
                snapshot_every_chunks: 0,
                warmup: 20_000,
                closed_rate: 300_000.0,
                open_rate: 40_000.0,
                traced_requests: 200_000,
            },
            Workload::ShapeChurn => Spec {
                devices: gpus,
                cache: Some(BoundedCacheConfig {
                    capacity: 512,
                    admit_threshold: 2,
                    ..BoundedCacheConfig::default()
                }),
                ingress: ingress(8192, 1024),
                sched: sched(64, 32),
                snapshot_every_chunks: 16_384,
                warmup: 20_000,
                closed_rate: 220_000.0,
                open_rate: 25_000.0,
                traced_requests: 150_000,
            },
            Workload::RealGemm => Spec {
                devices: vec![
                    ("nano-0", DeviceSpec::amd_r9_nano()),
                    ("desktop-0", DeviceSpec::desktop_gpu()),
                ],
                cache: None,
                // One request per chunk: chunk boundaries then never depend
                // on when the dispatcher wakes, so the routing, the fault
                // sequence and the `sim_*` figures repeat for a seed.
                ingress: ingress(64, 1),
                sched: sched(8, 8),
                snapshot_every_chunks: 0,
                warmup: 130,
                closed_rate: 1_400.0,
                open_rate: 200.0,
                traced_requests: 2_000,
            },
        }
    }
}

/// The distinct shapes a workload draws from, and how requests pick them.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Distinct shapes, in first-use order.
    pub shapes: Vec<GemmShape>,
    /// Shape index per request.
    pub order: Vec<u32>,
    /// Operand variant per request (`real_gemm` only; empty otherwise).
    pub variant: Vec<u8>,
}

impl Stream {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The shape of request `i`.
    pub fn shape(&self, i: usize) -> GemmShape {
        self.shapes[self.order[i] as usize]
    }
}

struct Interner {
    shapes: Vec<GemmShape>,
    index: HashMap<GemmShape, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            shapes: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn id(&mut self, shape: GemmShape) -> u32 {
        *self.index.entry(shape).or_insert_with(|| {
            self.shapes.push(shape);
            (self.shapes.len() - 1) as u32
        })
    }
}

/// ResNet-50's GEMM layers at batch `batch`, in forward order.
fn resnet_pass(batch: usize) -> Vec<GemmShape> {
    resnet50()
        .layers
        .iter()
        .filter_map(|layer| layer.gemm(batch))
        .collect()
}

/// Real-network GEMMs at batch 1 under [`REAL_GEMM_FLOP_CAP`], from the
/// paper's three CNNs and BERT-base at short sequence lengths.
pub fn real_gemm_shapes() -> Vec<GemmShape> {
    let mut set = BTreeSet::new();
    let mut models = vec![resnet50(), vgg16(), mobilenet_v2()];
    models.extend([8, 16, 32, 48, 64, 96, 128].map(bert_base));
    for model in &models {
        for layer in &model.layers {
            if let Some(shape) = layer.gemm(1) {
                if shape.flops() <= REAL_GEMM_FLOP_CAP {
                    set.insert(shape);
                }
            }
        }
    }
    set.into_iter().collect()
}

/// The first `n` requests of `workload`'s stream for `seed`. The stream
/// is a prefix-stable sequence: a longer run sees the same first `n`.
pub fn stream(workload: Workload, seed: u64, n: usize) -> Stream {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let mut interner = Interner::new();
    let mut order = Vec::with_capacity(n);
    let mut variant = Vec::new();
    match workload {
        Workload::Resnet50Hot => {
            let passes: Vec<Vec<GemmShape>> =
                RESNET_BATCHES.iter().map(|&b| resnet_pass(b)).collect();
            while order.len() < n {
                let pass = &passes[rng.below(passes.len())];
                for &shape in pass.iter().take(n - order.len()) {
                    order.push(interner.id(shape));
                }
            }
        }
        Workload::ShapeChurn => {
            let hot = resnet_pass(1);
            let mut layer = 0usize;
            for _ in 0..n {
                let shape = if rng.below(2) == 0 {
                    layer = (layer + 1) % hot.len();
                    hot[layer]
                } else {
                    let rows = (1 + rng.below(TAIL_MAX_BATCH)) * (1 + rng.below(TAIL_MAX_SEQ));
                    let (k, n) = BERT_PROJECTIONS[rng.below(BERT_PROJECTIONS.len())];
                    GemmShape::new(rows, k, n)
                };
                order.push(interner.id(shape));
            }
        }
        Workload::RealGemm => {
            let shapes = real_gemm_shapes();
            for shape in &shapes {
                interner.id(*shape);
            }
            // Rounds over every shape in a seeded order: the shape mix,
            // and with it the work per request, is the same for every
            // seed, so only the order and the operands vary.
            variant.reserve(n);
            let mut round: Vec<u32> = (0..shapes.len() as u32).collect();
            while order.len() < n {
                for i in 0..round.len() {
                    let j = i + rng.below(round.len() - i);
                    round.swap(i, j);
                }
                for &shape in round.iter().take(n - order.len()) {
                    order.push(shape);
                    variant.push(rng.below(OPERAND_VARIANTS) as u8);
                }
            }
        }
    }
    Stream {
        shapes: interner.shapes,
        order,
        variant,
    }
}

/// One request template per distinct shape, for timing-only fleets. Their
/// operands are never read, so buffers of equal length are shared: a
/// zeroed buffer costs address space, not resident memory, until touched.
pub fn zeroed_templates(shapes: &[GemmShape]) -> Vec<GemmRequest> {
    crate::host::fix_mmap_threshold();
    let mut pool: HashMap<usize, Buffer<f32>> = HashMap::new();
    let mut buffer = |len: usize| {
        pool.entry(len)
            .or_insert_with(|| Buffer::new_filled(len, 0.0))
            .clone()
    };
    shapes
        .iter()
        .map(|&s| GemmRequest::new(s, buffer(s.m * s.k), buffer(s.k * s.n), buffer(s.m * s.n)))
        .collect()
}

/// Seeded operands for every (shape, variant) of a real-GEMM stream, with
/// the expected product from `reference_gemm`.
pub struct Operands {
    /// `(a, b)` per `shape * OPERAND_VARIANTS + variant`.
    pub inputs: Vec<(Buffer<f32>, Buffer<f32>)>,
    /// Expected `C` per `shape * OPERAND_VARIANTS + variant`.
    pub expected: Vec<Vec<f32>>,
}

impl Operands {
    /// Generate the operands for `shapes` under `seed`.
    pub fn generate(shapes: &[GemmShape], seed: u64) -> Self {
        let mut inputs = Vec::new();
        let mut expected = Vec::new();
        for (i, &shape) in shapes.iter().enumerate() {
            for v in 0..OPERAND_VARIANTS {
                let salt = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((i * OPERAND_VARIANTS + v) as u64);
                let (a, b) = test_matrices(shape, salt);
                let mut c = vec![0.0f32; shape.m * shape.n];
                reference_gemm(shape, &a, &b, &mut c);
                inputs.push((Buffer::from_vec(a), Buffer::from_vec(b)));
                expected.push(c);
            }
        }
        Operands { inputs, expected }
    }

    /// Request `i` of `stream`, with its own NaN-filled `C`: a kernel that
    /// skips an element leaves a NaN the check cannot miss.
    pub fn request(&self, stream: &Stream, i: usize) -> GemmRequest {
        let shape = stream.shape(i);
        let key = stream.order[i] as usize * OPERAND_VARIANTS + stream.variant[i] as usize;
        let (a, b) = &self.inputs[key];
        GemmRequest::new(
            shape,
            a.clone(),
            b.clone(),
            Buffer::new_filled(shape.m * shape.n, f32::NAN),
        )
    }

    /// The expected `C` of request `i`.
    pub fn expected(&self, stream: &Stream, i: usize) -> &[f32] {
        &self.expected[stream.order[i] as usize * OPERAND_VARIANTS + stream.variant[i] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            let a = stream(workload, 7, 5000);
            let b = stream(workload, 7, 5000);
            let c = stream(workload, 8, 5000);
            assert_eq!(a.order, b.order, "{}", workload.name());
            assert_eq!(a.shapes, b.shapes);
            assert_eq!(a.variant, b.variant);
            let differs = a.order != c.order || a.shapes != c.shapes || a.variant != c.variant;
            assert!(
                differs,
                "{}: another seed must change the stream",
                workload.name()
            );
        }
    }

    #[test]
    fn streams_are_prefix_stable() {
        for workload in Workload::ALL {
            let short = stream(workload, 3, 1000);
            let long = stream(workload, 3, 3000);
            for i in 0..short.len() {
                assert_eq!(short.shape(i), long.shape(i));
            }
        }
    }

    #[test]
    fn resnet_traffic_covers_the_84_layer_gemms() {
        let s = stream(Workload::Resnet50Hot, 1, 54 * 200);
        assert_eq!(s.shapes.len(), 84);
    }

    #[test]
    fn churn_tail_is_wide_and_real_gemms_are_capped() {
        let s = stream(Workload::ShapeChurn, 1, 200_000);
        assert!(
            s.shapes.len() > 10_000,
            "{} distinct shapes",
            s.shapes.len()
        );
        let real = real_gemm_shapes();
        assert!(real.len() >= 10);
        assert!(real.iter().all(|s| s.flops() <= REAL_GEMM_FLOP_CAP));
    }
}
