//! Typed metrics probes: counters, gauges, and time-series histograms
//! threaded through every runtime subsystem.
//!
//! The paper's task-runtime lineage (PLASMA / PaRSEC / StarPU) treats
//! counter- and trace-based performance analysis as a first-class runtime
//! service; this module is that service for the reproduction. A [`Probe`]
//! is a cheap-clone handle passed into the scheduler engine, the streaming
//! window, the communication model, and the virtual-time engine. Disabled
//! (the default), every recording call is a branch on `None` — nothing is
//! allocated, locked, or computed, so probe-free runs pay nothing and the
//! bitwise parity suites are untouched by construction. Enabled, samples
//! land in one [`ProbeSnapshot`] — the store itself, which snapshots copy
//! and exports read back.
//!
//! Three metric shapes cover the runtime's signals:
//!
//! * **counters** — monotone event totals (messages per link, flops per
//!   kernel class);
//! * **gauges** — sampled time series (ready-pool depth over virtual time,
//!   live task records over wall time);
//! * **histograms** — value distributions with log-scale buckets (task
//!   wait in the replay's ready set, panel-wait stalls, retirement lag).
//!
//! Hot paths that cannot afford a lock per event (the streaming window's
//! completion path, the scheduler's pop loop) accumulate into local
//! [`Histogram`]s and merge them into the store once, at drain time
//! ([`Probe::record_batch`]) — same data, none of the contention.
//!
//! On top of the raw streams, [`report::ProbeReport`] carries the
//! makespan-attribution pass (compute / transfer / contention / idle per
//! node and per elimination step, computed inside
//! [`crate::vtime::VirtualSchedule`]), and [`export`] renders everything
//! as Chrome-trace counter tracks, Prometheus text exposition, or
//! structured JSON.

pub mod export;
pub mod report;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

pub use report::{AttribBuckets, Attribution, ProbeReport};

/// Canonical metric names (exported with a `luqr_` prefix in Prometheus).
pub mod metric {
    /// Gauge: ready-pool depth after each policy pop, over virtual time.
    pub const SCHED_READY_DEPTH: &str = "sched_ready_depth";
    /// Histogram: virtual-time wait between a task becoming ready and the
    /// policy selecting it.
    pub const SCHED_TASK_WAIT: &str = "sched_task_wait_seconds";
    /// Gauge: live task records in the streaming window, over wall time.
    pub const STREAM_LIVE_TASKS: &str = "stream_live_tasks";
    /// Histogram: planner stall awaiting each step's panel decision task.
    pub const STREAM_PANEL_WAIT: &str = "stream_panel_wait_seconds";
    /// Histogram: wall delay between a step closing and it retiring.
    pub const STREAM_RETIRE_LAG: &str = "stream_retire_lag_seconds";
    /// Counter: times the streaming driver thread was woken from a sleep
    /// (capacity, decision, drain, or — net mode — frame waits).
    pub const STREAM_PLANNER_WAKEUPS: &str = "stream_planner_wakeups";
    /// Counter: times a streaming worker went to sleep for lack of a
    /// ready task.
    pub const STREAM_WORKER_PARKS: &str = "stream_worker_parks";
    /// Counter: routed protocol messages by kind (data/decision/retire).
    pub const COMM_MSGS: &str = "comm_msgs_total";
    /// Counter: simulated payload messages per (src, dst) link.
    pub const COMM_LINK_MSGS: &str = "comm_link_msgs_total";
    /// Counter: simulated payload bytes per (src, dst) link.
    pub const COMM_LINK_BYTES: &str = "comm_link_bytes_total";
    /// Gauge: per-node cumulative busy seconds over virtual time.
    pub const VTIME_NODE_BUSY: &str = "vtime_node_busy_seconds";
    /// Counter: executed flops per kernel cost class.
    pub const KERNEL_FLOPS: &str = "kernel_flops_total";
    /// Histogram: wall seconds per executed kernel, by cost class.
    pub const KERNEL_SECONDS: &str = "kernel_wall_seconds";
    /// Counter: wire frames sent, by kind (`data`/`decision`/`retire`/`ctrl`).
    pub const NET_FRAMES_SENT: &str = "net_frames_sent_total";
    /// Counter: wire frames received, by kind.
    pub const NET_FRAMES_RECV: &str = "net_frames_received_total";
    /// Counter: serialized payload bytes sent (`Label::Kind("sent")`) and
    /// received (`Label::Kind("received")`) over the transport.
    pub const NET_PAYLOAD_BYTES: &str = "net_payload_bytes_total";
    /// Histogram: wall seconds to serialize one outbound payload.
    pub const NET_SERIALIZE: &str = "net_serialize_seconds";
    /// Histogram: wall seconds to deserialize one inbound payload.
    pub const NET_DESERIALIZE: &str = "net_deserialize_seconds";
}

/// One dimension attached to a metric sample. Kept as a closed enum (not
/// free-form strings) so label sets stay typed, orderable, and cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// No dimension.
    None,
    /// A virtual node.
    Node(usize),
    /// A directed (src, dst) link.
    Link { src: usize, dst: usize },
    /// A message or frame kind (`"data"` / `"decision"` / `"ctrl"`), or a
    /// side (`"sent"` / `"received"`).
    Kind(&'static str),
    /// A kernel cost class (`"gemm"`, `"trsm"`, ...).
    Class(&'static str),
    /// A scheduling policy name.
    Policy(&'static str),
    /// An elimination step.
    Step(usize),
}

impl Label {
    /// Prometheus label-set rendering (`{node="3"}`; empty for
    /// [`Label::None`]).
    pub fn prometheus(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Node(n) => format!("{{node=\"{n}\"}}"),
            Label::Link { src, dst } => format!("{{src=\"{src}\",dst=\"{dst}\"}}"),
            Label::Kind(k) => format!("{{kind=\"{k}\"}}"),
            Label::Class(c) => format!("{{class=\"{c}\"}}"),
            Label::Policy(p) => format!("{{policy=\"{p}\"}}"),
            Label::Step(s) => format!("{{step=\"{s}\"}}"),
        }
    }

    /// JSON object-body rendering (`"node": 3`; empty for [`Label::None`]).
    pub fn json(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Node(n) => format!("\"node\": {n}"),
            Label::Link { src, dst } => format!("\"src\": {src}, \"dst\": {dst}"),
            Label::Kind(k) => format!("\"kind\": \"{k}\""),
            Label::Class(c) => format!("\"class\": \"{c}\""),
            Label::Policy(p) => format!("\"policy\": \"{p}\""),
            Label::Step(s) => format!("\"step\": {s}"),
        }
    }

    /// Short suffix for Chrome counter-track names (`[0->1]`, `[fifo]`).
    pub fn suffix(&self) -> String {
        match self {
            Label::None => String::new(),
            Label::Node(n) => format!("[node{n}]"),
            Label::Link { src, dst } => format!("[{src}->{dst}]"),
            Label::Kind(k) => format!("[{k}]"),
            Label::Class(c) => format!("[{c}]"),
            Label::Policy(p) => format!("[{p}]"),
            Label::Step(s) => format!("[k={s}]"),
        }
    }
}

/// Upper bucket bounds of every [`Histogram`] (seconds; one implicit
/// `+Inf` overflow bucket follows). Log-scale from microseconds to
/// minutes — the span runtime latencies actually occupy.
pub const HISTOGRAM_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// A fixed-bucket log-scale histogram with summary statistics. Plain data
/// with no interior locking, so hot paths can keep a local one and
/// [`ProbeSnapshot::merge_histogram`] it into the store once at drain time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+Inf` when empty).
    pub min: f64,
    /// Largest observed value (`-Inf` when empty).
    pub max: f64,
    /// Per-bucket counts ([`HISTOGRAM_BOUNDS`] plus the overflow bucket).
    pub buckets: [u64; HISTOGRAM_BOUNDS.len() + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BOUNDS.len() + 1],
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let slot = HISTOGRAM_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(HISTOGRAM_BOUNDS.len());
        self.buckets[slot] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }
}

/// One gauge time series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GaugeSeries {
    /// Most recent value.
    pub last: f64,
    /// `(t, value)` samples in recording order.
    pub samples: Vec<(f64, f64)>,
}

/// Every metric recorded so far, keyed by (name, label): the store an
/// enabled [`Probe`] writes into, and the copy [`Probe::snapshot`] hands
/// out. The maps iterate sorted by name, then label — the order every
/// exporter writes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeSnapshot {
    pub counters: BTreeMap<(&'static str, Label), u64>,
    pub gauges: BTreeMap<(&'static str, Label), GaugeSeries>,
    pub histograms: BTreeMap<(&'static str, Label), Histogram>,
}

impl ProbeSnapshot {
    /// Add `delta` to a monotone counter.
    pub fn add_counter(&mut self, name: &'static str, label: Label, delta: u64) {
        *self.counters.entry((name, label)).or_insert(0) += delta;
    }

    /// Record one gauge sample of a time series at time `t`.
    pub fn push_gauge(&mut self, name: &'static str, label: Label, t: f64, value: f64) {
        let series = self.gauges.entry((name, label)).or_default();
        series.last = value;
        series.samples.push((t, value));
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, name: &'static str, label: Label, value: f64) {
        self.histograms
            .entry((name, label))
            .or_default()
            .observe(value);
    }

    /// Fold a locally-accumulated histogram in; empty ones are dropped.
    pub fn merge_histogram(&mut self, name: &'static str, label: Label, histogram: &Histogram) {
        if histogram.count > 0 {
            self.histograms
                .entry((name, label))
                .or_default()
                .merge(histogram);
        }
    }

    /// Value of a counter, 0 when never ticked.
    pub fn counter(&self, name: &'static str, label: Label) -> u64 {
        self.counters.get(&(name, label)).copied().unwrap_or(0)
    }

    /// A histogram, if anything was observed under this (name, label).
    pub fn histogram(&self, name: &'static str, label: Label) -> Option<&Histogram> {
        self.histograms.get(&(name, label))
    }
}

/// The cheap-clone probe handle threaded through the runtime.
///
/// Disabled (the default, [`Probe::disabled`]), every method is a branch
/// on `None` and returns immediately — probes cost nothing when off.
/// Enabled ([`Probe::enabled`]), samples land in one shared
/// [`ProbeReport`] behind a mutex; clones share it, so the handle given to
/// [`crate::stream::StreamOptions`] and the one the caller keeps read the
/// same data.
#[derive(Clone, Default)]
pub struct Probe {
    store: Option<Arc<Mutex<ProbeReport>>>,
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.is_enabled() {
            "enabled"
        } else {
            "disabled"
        };
        write!(f, "Probe({state})")
    }
}

impl Probe {
    /// The no-op probe: recording calls return immediately.
    pub fn disabled() -> Self {
        Probe::default()
    }

    /// A probe recording into a fresh, empty store.
    pub fn enabled() -> Self {
        Probe {
            store: Some(Arc::default()),
        }
    }

    /// Whether recording calls reach the store. Hot paths check this once
    /// before computing anything sample-related.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    #[inline]
    fn lock(&self) -> Option<MutexGuard<'_, ProbeReport>> {
        self.store
            .as_ref()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Add `delta` to a monotone counter.
    #[inline]
    pub fn counter(&self, name: &'static str, label: Label, delta: u64) {
        self.record_batch(|s| s.add_counter(name, label, delta));
    }

    /// Record one gauge sample at time `t`.
    #[inline]
    pub fn gauge(&self, name: &'static str, label: Label, t: f64, value: f64) {
        self.record_batch(|s| s.push_gauge(name, label, t, value));
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, label: Label, value: f64) {
        self.record_batch(|s| s.observe(name, label, value));
    }

    /// Run several recordings under one lock (batch flushes).
    #[inline]
    pub fn record_batch(&self, f: impl FnOnce(&mut ProbeSnapshot)) {
        if let Some(mut store) = self.lock() {
            f(&mut store.snapshot);
        }
    }

    /// Attach the makespan attribution computed by the virtual-time
    /// engine, so [`Probe::report`] carries it.
    pub fn set_attribution(&self, attribution: Attribution) {
        if let Some(mut store) = self.lock() {
            store.attribution = Some(attribution);
        }
    }

    /// Copy of every metric recorded so far (empty when disabled).
    pub fn snapshot(&self) -> ProbeSnapshot {
        self.lock().map(|s| s.snapshot.clone()).unwrap_or_default()
    }

    /// The full probe report: the metric snapshot plus the makespan
    /// attribution, if an attribution-enabled engine ran.
    pub fn report(&self) -> ProbeReport {
        self.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probe_records_nothing() {
        let p = Probe::disabled();
        assert!(!p.is_enabled());
        p.counter(metric::COMM_MSGS, Label::Kind("data"), 3);
        p.gauge(metric::STREAM_LIVE_TASKS, Label::None, 0.0, 5.0);
        p.observe(metric::SCHED_TASK_WAIT, Label::None, 0.1);
        let snap = p.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(p.report().attribution.is_none());
    }

    #[test]
    fn enabled_probe_shares_a_registry_across_clones() {
        let p = Probe::enabled();
        let q = p.clone();
        p.counter(metric::COMM_MSGS, Label::Kind("data"), 2);
        q.counter(metric::COMM_MSGS, Label::Kind("data"), 3);
        q.counter(metric::COMM_MSGS, Label::Kind("decision"), 1);
        let snap = p.snapshot();
        assert_eq!(snap.counter(metric::COMM_MSGS, Label::Kind("data")), 5);
        assert_eq!(snap.counter(metric::COMM_MSGS, Label::Kind("decision")), 1);
    }

    #[test]
    fn gauge_series_keep_samples_in_order() {
        let p = Probe::enabled();
        for i in 0..4 {
            p.gauge(
                metric::SCHED_READY_DEPTH,
                Label::Policy("critical-path"),
                i as f64,
                (i * 2) as f64,
            );
        }
        let snap = p.snapshot();
        assert_eq!(snap.gauges.len(), 1);
        let g = &snap.gauges[&(metric::SCHED_READY_DEPTH, Label::Policy("critical-path"))];
        assert_eq!(g.samples.len(), 4);
        assert_eq!(g.last, 6.0);
        assert_eq!(g.samples[1], (1.0, 2.0));
    }

    #[test]
    fn histogram_buckets_and_summary() {
        let mut h = Histogram::default();
        h.observe(5e-7); // first bucket (<= 1e-6)
        h.observe(0.05); // <= 0.1
        h.observe(100.0); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[HISTOGRAM_BOUNDS.len()], 1);
        assert!((h.min - 5e-7).abs() < 1e-18);
        assert_eq!(h.max, 100.0);

        let mut other = Histogram::default();
        other.observe(0.05);
        h.merge(&other);
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[5], 2, "both 0.05 samples in the <=0.1 bucket");
    }

    #[test]
    fn merged_local_histograms_reach_the_registry() {
        let p = Probe::enabled();
        let mut local = Histogram::default();
        local.observe(1e-4);
        local.observe(2e-4);
        p.record_batch(|s| {
            let label = Label::Policy("fifo");
            s.merge_histogram(metric::SCHED_TASK_WAIT, label, &local);
            s.merge_histogram(metric::SCHED_TASK_WAIT, label, &Histogram::default());
        });
        let snap = p.snapshot();
        let h = snap
            .histogram(metric::SCHED_TASK_WAIT, Label::Policy("fifo"))
            .expect("merged");
        assert_eq!(h.count, 2, "empty merges are dropped");
    }
}
