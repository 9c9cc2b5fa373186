//! Execution-trace recording: collect completed events and export them
//! as a Chrome-trace (`chrome://tracing` / Perfetto) JSON timeline —
//! the profiling view a SYCL runtime would give you for a real run.

use crate::runtime::{CompletionStatus, Event};
use std::collections::BTreeMap;

/// How far down the resilient fallback chain a launch had to go before
/// it completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackLevel {
    /// The selector's own pick ran.
    Primary,
    /// The pick failed (or was quarantined); the Nth-ranked alternative
    /// shipped config ran instead (1 = first alternative tried).
    NextBest(u8),
    /// Every shipped config failed; the host-side reference GEMM ran.
    Reference,
}

impl FallbackLevel {
    /// Short stable label used in trace annotations
    /// (`primary` / `next_best_N` / `reference`).
    pub fn label(&self) -> String {
        match self {
            FallbackLevel::Primary => "primary".to_string(),
            FallbackLevel::NextBest(n) => format!("next_best_{n}"),
            FallbackLevel::Reference => "reference".to_string(),
        }
    }

    /// Whether the launch was served by anything other than the
    /// selector's pick.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, FallbackLevel::Primary)
    }
}

/// Which selection-service decision produced a kernel launch.
///
/// Produced by the selection layer upstream (autokernel-core's cached
/// selector) and attached to trace entries so a timeline shows not just
/// *what* ran but *why that kernel was chosen* — whether the decision
/// was served from the shape cache, how many failed attempts preceded
/// the completion, and how far down the fallback chain it landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDecision {
    /// Global index of the tiled configuration that served the launch
    /// (the selector's pick on the primary path, the substitute on a
    /// next-best fallback). When `fallback` is
    /// [`FallbackLevel::Reference`] no tiled configuration ran, so this
    /// holds the *selector's* pick for attribution.
    pub config_index: usize,
    /// Whether the decision came from the selection cache.
    pub cache_hit: bool,
    /// Failed launch attempts absorbed before this one completed.
    pub attempts: u32,
    /// Where on the fallback chain the completing launch sat.
    pub fallback: FallbackLevel,
    /// Index of the fleet device that served the launch, when a
    /// multi-device scheduler routed it (`None` for single-queue
    /// serving, which has no fleet to attribute across).
    pub device_tag: Option<u16>,
}

impl LaunchDecision {
    /// A plain decision: no failures, selector's pick ran directly.
    pub fn new(config_index: usize, cache_hit: bool) -> Self {
        LaunchDecision {
            config_index,
            cache_hit,
            attempts: 0,
            fallback: FallbackLevel::Primary,
            device_tag: None,
        }
    }

    /// Annotate with the retry/fallback outcome.
    pub fn with_resilience(mut self, attempts: u32, fallback: FallbackLevel) -> Self {
        self.attempts = attempts;
        self.fallback = fallback;
        self
    }

    /// Tag the decision with the fleet device that served it.
    pub fn with_device(mut self, device: u16) -> Self {
        self.device_tag = Some(device);
        self
    }
}

/// A recorded launch: queue label plus the completed event, optionally
/// annotated with the selector decision that produced it.
#[derive(Debug, Clone)]
struct TraceEntry {
    queue: String,
    event: Event,
    decision: Option<LaunchDecision>,
}

/// Collects events and renders timelines / summaries.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    entries: Vec<TraceEntry>,
}

impl TraceRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Record a completed event under a queue label.
    pub fn record(&mut self, queue: impl Into<String>, event: Event) {
        self.entries.push(TraceEntry {
            queue: queue.into(),
            event,
            decision: None,
        });
    }

    /// Record a completed event together with the selector decision
    /// that chose its kernel configuration.
    pub fn record_with_decision(
        &mut self,
        queue: impl Into<String>,
        event: Event,
        decision: LaunchDecision,
    ) {
        self.entries.push(TraceEntry {
            queue: queue.into(),
            event,
            decision: Some(decision),
        });
    }

    /// Number of entries carrying a [`LaunchDecision`].
    pub fn decided_launches(&self) -> usize {
        self.entries.iter().filter(|e| e.decision.is_some()).count()
    }

    /// Of the decision-annotated entries, how many were cache hits.
    pub fn cache_hit_launches(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.decision, Some(d) if d.cache_hit))
            .count()
    }

    /// Number of recorded events that are *failed* launches.
    pub fn failed_launches(&self) -> usize {
        self.entries.iter().filter(|e| e.event.is_failed()).count()
    }

    /// Of the decision-annotated entries, how many completed off the
    /// primary path (next-best config or reference fallback).
    pub fn degraded_launches(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.decision, Some(d) if d.fallback.is_degraded()))
            .count()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total simulated busy time across all recorded events.
    pub fn total_busy_s(&self) -> f64 {
        self.entries.iter().map(|e| e.event.duration_s()).sum()
    }

    /// Simulated makespan: latest end minus earliest start (0 if empty).
    pub fn makespan_s(&self) -> f64 {
        let start = self
            .entries
            .iter()
            .map(|e| e.event.start_s())
            .fold(f64::INFINITY, f64::min);
        let end = self
            .entries
            .iter()
            .map(|e| e.event.end_s())
            .fold(0.0f64, f64::max);
        if self.entries.is_empty() {
            0.0
        } else {
            end - start
        }
    }

    /// Summed duration per kernel name, sorted by name.
    pub fn per_kernel_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for e in &self.entries {
            *totals
                .entry(e.event.kernel_name().to_string())
                .or_insert(0.0) += e.event.duration_s();
        }
        totals
    }

    /// Render as Chrome-trace JSON ("traceEvents" array of complete
    /// events; timestamps in microseconds, one pid per queue label).
    pub fn to_chrome_trace(&self) -> String {
        let mut queues: Vec<&str> = self.entries.iter().map(|e| e.queue.as_str()).collect();
        queues.sort_unstable();
        queues.dedup();
        let pid_of = |q: &str| queues.iter().position(|&x| x == q).unwrap_or(0) + 1;

        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let decision_args = match &e.decision {
                Some(d) => {
                    let device = match d.device_tag {
                        Some(tag) => format!(",\"device\":{tag}"),
                        None => String::new(),
                    };
                    format!(
                        ",\"config_index\":{},\"cache_hit\":{},\"attempts\":{},\"fallback\":{:?}{device}",
                        d.config_index,
                        d.cache_hit,
                        d.attempts,
                        d.fallback.label()
                    )
                }
                None => String::new(),
            };
            let status_args = match e.event.status() {
                CompletionStatus::Complete => String::new(),
                CompletionStatus::Failed(kind) => {
                    format!(",\"status\":\"failed\",\"fault\":{:?}", kind.label())
                }
            };
            // Failed launches render in their own category so Perfetto
            // colours them apart from completed kernels.
            let cat = if e.event.is_failed() {
                "kernel_fault"
            } else {
                "kernel"
            };
            out.push_str(&format!(
                "{{\"name\":{name:?},\"cat\":{cat:?},\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":1,\"args\":{{\"occupancy\":{occ:.3},\"utilization\":{util:.3}{decision_args}{status_args}}}}}",
                name = e.event.kernel_name(),
                ts = e.event.start_s() * 1e6,
                dur = e.event.duration_s() * 1e6,
                pid = pid_of(&e.queue),
                occ = e.event.cost().occupancy,
                util = e.event.cost().utilization,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::perf::KernelProfile;
    use crate::runtime::{Buffer, Event, NDRange, Queue, SimKernel};
    use crate::Result;
    use std::sync::Arc;

    struct Noop {
        buf: Buffer<f32>,
    }
    impl SimKernel for Noop {
        fn name(&self) -> Arc<str> {
            "noop".into()
        }
        fn profile(&self, _d: &DeviceSpec, _r: &NDRange) -> KernelProfile {
            KernelProfile {
                flops_per_item: 10.0,
                bytes_per_item: 4.0,
                cache_reuse: 0.0,
                registers_per_item: 8,
                lds_bytes_per_group: 0,
                coalescing: 1.0,
                useful_items: self.buf.len() as f64,
                ilp: 1.0,
            }
        }
        fn execute(&self, _r: &NDRange) -> Result<()> {
            Ok(())
        }
    }

    fn record_two() -> TraceRecorder {
        let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
        let k = Noop {
            buf: Buffer::from_vec(vec![0.0; 64]),
        };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let mut trace = TraceRecorder::new();
        trace.record("gpu0", queue.submit(&k, r).unwrap());
        trace.record("gpu0", queue.submit(&k, r).unwrap());
        trace
    }

    #[test]
    fn busy_time_and_makespan_agree_for_in_order_queue() {
        let trace = record_two();
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        // In-order queue with back-to-back submissions: makespan == busy.
        assert!((trace.total_busy_s() - trace.makespan_s()).abs() < 1e-15);
    }

    #[test]
    fn per_kernel_totals_aggregate() {
        let trace = record_two();
        let totals = trace.per_kernel_totals();
        assert_eq!(totals.len(), 1);
        assert!((totals["noop"] - trace.total_busy_s()).abs() < 1e-15);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let trace = record_two();
        let json = trace.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["pid"], 1);
        assert!(events[1]["ts"].as_f64().unwrap() >= events[0]["ts"].as_f64().unwrap());
        assert!(events[0]["args"]["occupancy"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn empty_trace_renders_and_measures_zero() {
        let trace = TraceRecorder::new();
        assert_eq!(trace.makespan_s(), 0.0);
        assert_eq!(trace.total_busy_s(), 0.0);
        let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
        assert_eq!(parsed["traceEvents"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn decisions_flow_into_chrome_trace_args() {
        let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
        let k = Noop {
            buf: Buffer::from_vec(vec![0.0; 64]),
        };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let mut trace = TraceRecorder::new();
        trace.record_with_decision(
            "serve",
            queue.submit(&k, r).unwrap(),
            LaunchDecision::new(137, false),
        );
        trace.record_with_decision(
            "serve",
            queue.submit(&k, r).unwrap(),
            LaunchDecision::new(137, true).with_resilience(2, FallbackLevel::NextBest(1)),
        );
        trace.record("serve", queue.submit(&k, r).unwrap());
        assert_eq!(trace.decided_launches(), 2);
        assert_eq!(trace.cache_hit_launches(), 1);
        assert_eq!(trace.degraded_launches(), 1);
        let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["args"]["config_index"], 137);
        assert_eq!(events[0]["args"]["cache_hit"], false);
        assert_eq!(events[0]["args"]["attempts"], 0);
        assert_eq!(events[0]["args"]["fallback"], "primary");
        assert_eq!(events[1]["args"]["cache_hit"], true);
        assert_eq!(events[1]["args"]["attempts"], 2);
        assert_eq!(events[1]["args"]["fallback"], "next_best_1");
        assert!(events[2]["args"]["config_index"].is_null());
    }

    #[test]
    fn device_tags_flow_into_chrome_trace_args() {
        let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
        let k = Noop {
            buf: Buffer::from_vec(vec![0.0; 64]),
        };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let mut trace = TraceRecorder::new();
        trace.record_with_decision(
            "fleet",
            queue.submit(&k, r).unwrap(),
            LaunchDecision::new(7, false).with_device(2),
        );
        trace.record_with_decision(
            "fleet",
            queue.submit(&k, r).unwrap(),
            LaunchDecision::new(7, true),
        );
        let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["args"]["device"], 2);
        assert!(events[1]["args"]["device"].is_null());
    }

    #[test]
    fn failed_events_render_with_fault_annotations() {
        use crate::fault::FaultKind;
        let mut trace = TraceRecorder::new();
        trace.record(
            "serve",
            Event::failed("gemm_bad".into(), 1.0e-3, 1.5e-3, FaultKind::KernelTimeout),
        );
        let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
        let k = Noop {
            buf: Buffer::from_vec(vec![0.0; 64]),
        };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        trace.record("serve", queue.submit(&k, r).unwrap());
        assert_eq!(trace.failed_launches(), 1);
        let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["cat"], "kernel_fault");
        assert_eq!(events[0]["args"]["status"], "failed");
        assert_eq!(events[0]["args"]["fault"], "kernel_timeout");
        assert_eq!(events[1]["cat"], "kernel");
        assert!(events[1]["args"]["status"].is_null());
    }

    #[test]
    fn fallback_labels_are_stable() {
        assert_eq!(FallbackLevel::Primary.label(), "primary");
        assert_eq!(FallbackLevel::NextBest(3).label(), "next_best_3");
        assert_eq!(FallbackLevel::Reference.label(), "reference");
        assert!(!FallbackLevel::Primary.is_degraded());
        assert!(FallbackLevel::Reference.is_degraded());
    }

    #[test]
    fn distinct_queues_get_distinct_pids() {
        let queue = Queue::timing_only(Arc::new(DeviceSpec::amd_r9_nano()));
        let k = Noop {
            buf: Buffer::from_vec(vec![0.0; 64]),
        };
        let r = NDRange::new([64, 1], [64, 1]).unwrap();
        let mut trace = TraceRecorder::new();
        trace.record("a", queue.submit(&k, r).unwrap());
        trace.record("b", queue.submit(&k, r).unwrap());
        let parsed: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert_ne!(events[0]["pid"], events[1]["pid"]);
    }
}
