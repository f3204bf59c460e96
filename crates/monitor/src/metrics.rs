//! Shared monitor counters and a plain-text snapshot renderer.
//!
//! A [`MonitorMetrics`] is a bag of atomics that any number of monitors,
//! pool workers and producer threads bump concurrently; [`snapshot`]
//! freezes the counters into a [`MetricsSnapshot`] whose `Display`
//! renders an aligned table in the style of `tempo-core`'s `render`
//! module.
//!
//! Internally the hot, worker-side counters (events, obligation churn,
//! warnings, slack) are *sharded*: each pool worker records into its own
//! cache-line-aligned [`MetricsShard`], and [`snapshot`] merges the
//! shards with the base counters. Producer-side counters (queue depth,
//! drops, batches, per-stream lag) stay on the base struct — they are
//! either amortized by batching or per-stream to begin with. The public
//! snapshot API is unchanged by the sharding.
//!
//! The per-stream lag list is bounded: once it holds
//! [`STREAM_PRUNE_FLOOR`] entries, registering a stream prunes finished
//! ones (see [`MonitorMetrics::register_stream`]), so a finished stream
//! may leave [`MetricsSnapshot::streams`] while live ones stay listed.
//!
//! [`snapshot`]: MonitorMetrics::snapshot

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tempo_math::Rat;

use crate::ring::CachePadded;

/// Number of buckets in the warning-slack histogram: quartiles of the
/// `slack / horizon` ratio plus a final bucket for full-horizon warnings.
pub const SLACK_BUCKETS: usize = 5;

/// Buckets a warning's slack into the `slack / horizon` histogram. A
/// clamped warning (`slack < horizon`) lands in the quartile of its
/// ratio; a full-horizon warning — and every warning at horizon `0` —
/// lands in the last bucket.
fn slack_bucket(slack: Rat, horizon: Rat) -> usize {
    if horizon.is_zero() || slack >= horizon {
        SLACK_BUCKETS - 1
    } else {
        // slack/horizon ∈ [0, 1): quartile index without division.
        let s4 = slack * Rat::from(4);
        if s4 < horizon {
            0
        } else if s4 < horizon * Rat::from(2) {
            1
        } else if s4 < horizon * Rat::from(3) {
            2
        } else {
            3
        }
    }
}

/// Buckets a forced window's margin into the `margin / horizon`
/// histogram. Forced windows are only reported when `margin ≥ horizon`,
/// so the ratio is at least one: the buckets are doubling intervals
/// `[1,2) [2,4) [4,8) [8,16) [16,∞)`. A zero horizon never reports a
/// forced window, but is defensively sent to the last bucket.
fn margin_bucket(margin: Rat, horizon: Rat) -> usize {
    if horizon.is_zero() {
        return SLACK_BUCKETS - 1;
    }
    // margin/horizon ∈ [1, ∞): doubling index without division.
    let mut bound = horizon * Rat::from(2);
    for bucket in 0..SLACK_BUCKETS - 1 {
        if margin < bound {
            return bucket;
        }
        bound *= Rat::from(2);
    }
    SLACK_BUCKETS - 1
}

/// Size below which the per-stream lag list is never pruned: a pool that
/// has opened fewer streams lists every one of them, finished or not.
pub const STREAM_PRUNE_FLOOR: usize = 1024;

/// The registered streams' lag counters, in registration order, and the
/// list length at which [`MonitorMetrics::register_stream`] next prunes.
#[derive(Debug)]
struct StreamList {
    entries: Vec<(u64, Arc<StreamLag>)>,
    prune_at: usize,
}

impl Default for StreamList {
    fn default() -> StreamList {
        StreamList {
            entries: Vec::new(),
            prune_at: STREAM_PRUNE_FLOOR,
        }
    }
}

/// Lag accounting for one stream: events enqueued by the producer vs
/// events drained (processed or dropped) by the worker.
///
/// The two counters live on separate cache lines: the producer bumps
/// `enqueued` and the worker bumps `drained` at full ingestion rate, so
/// sharing a line would make every send invalidate the worker's cache
/// and vice versa.
#[derive(Debug, Default)]
pub struct StreamLag {
    enqueued: CachePadded<AtomicU64>,
    drained: CachePadded<AtomicU64>,
}

impl StreamLag {
    /// Records one event handed to the stream's queue.
    pub fn record_enqueued(&self) {
        self.enqueued.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` events handed to the stream's queue in one batch.
    pub fn record_enqueued_many(&self, n: u64) {
        self.enqueued.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one event leaving the queue (processed or dropped).
    pub fn record_drained(&self) {
        self.drained.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` events leaving the queue in one drained batch.
    pub fn record_drained_many(&self, n: u64) {
        self.drained.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Events currently in flight for this stream.
    pub fn lag(&self) -> u64 {
        self.enqueued
            .value
            .load(Ordering::Relaxed)
            .saturating_sub(self.drained.value.load(Ordering::Relaxed))
    }

    /// Total events enqueued so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.value.load(Ordering::Relaxed)
    }
}

/// One worker's private slice of the hot counters. Cache-line-aligned so
/// shards never false-share; all fields are bumped by exactly one worker
/// thread and only read across threads at snapshot time.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct MetricsShard {
    events: AtomicU64,
    obligations_opened: AtomicU64,
    obligations_discharged: AtomicU64,
    obligations_violated: AtomicU64,
    warnings: AtomicU64,
    warning_slack_hist: [AtomicU64; SLACK_BUCKETS],
    forced: AtomicU64,
    forced_margin_hist: [AtomicU64; SLACK_BUCKETS],
    min_slack: Mutex<Option<Rat>>,
}

impl MetricsShard {
    pub(crate) fn record_event(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_opened(&self, n: u64) {
        self.obligations_opened.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_discharged(&self) {
        self.obligations_discharged.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_violated(&self) {
        self.obligations_violated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_warning(&self, slack: Rat, horizon: Rat) {
        self.warnings.fetch_add(1, Ordering::Relaxed);
        self.warning_slack_hist[slack_bucket(slack, horizon)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_forced(&self, margin: Rat, horizon: Rat) {
        self.forced.fetch_add(1, Ordering::Relaxed);
        self.forced_margin_hist[margin_bucket(margin, horizon)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_min_slack(&self, slack: Rat) {
        let mut guard = self.min_slack.lock().expect("metrics mutex poisoned");
        match *guard {
            Some(m) if m <= slack => {}
            _ => *guard = Some(slack),
        }
    }
}

/// A monitor's destination for hot-path counters: either the shared base
/// [`MonitorMetrics`] (standalone monitors) or one worker's private
/// [`MetricsShard`] (pool monitors, merged at snapshot time).
#[derive(Debug, Clone)]
pub(crate) enum MetricsRef {
    Base(Arc<MonitorMetrics>),
    Shard(Arc<MetricsShard>),
}

impl MetricsRef {
    pub(crate) fn record_event(&self) {
        match self {
            MetricsRef::Base(m) => m.record_event(),
            MetricsRef::Shard(s) => s.record_event(),
        }
    }

    pub(crate) fn record_opened(&self, n: u64) {
        match self {
            MetricsRef::Base(m) => m.record_opened(n),
            MetricsRef::Shard(s) => s.record_opened(n),
        }
    }

    pub(crate) fn record_discharged(&self) {
        match self {
            MetricsRef::Base(m) => m.record_discharged(),
            MetricsRef::Shard(s) => s.record_discharged(),
        }
    }

    pub(crate) fn record_violated(&self) {
        match self {
            MetricsRef::Base(m) => m.record_violated(),
            MetricsRef::Shard(s) => s.record_violated(),
        }
    }

    pub(crate) fn record_warning(&self, slack: Rat, horizon: Rat) {
        match self {
            MetricsRef::Base(m) => m.record_warning(slack, horizon),
            MetricsRef::Shard(s) => s.record_warning(slack, horizon),
        }
    }

    pub(crate) fn record_forced(&self, margin: Rat, horizon: Rat) {
        match self {
            MetricsRef::Base(m) => m.record_forced(margin, horizon),
            MetricsRef::Shard(s) => s.record_forced(margin, horizon),
        }
    }

    pub(crate) fn record_min_slack(&self, slack: Rat) {
        match self {
            MetricsRef::Base(m) => m.record_min_slack(slack),
            MetricsRef::Shard(s) => s.record_min_slack(slack),
        }
    }
}

/// Atomic counters shared by monitors and pool workers.
#[derive(Debug, Default)]
pub struct MonitorMetrics {
    events: AtomicU64,
    obligations_opened: AtomicU64,
    obligations_discharged: AtomicU64,
    obligations_violated: AtomicU64,
    max_queue_depth: AtomicU64,
    dropped_events: AtomicU64,
    failed_streams: AtomicU64,
    warnings: AtomicU64,
    warning_slack_hist: [AtomicU64; SLACK_BUCKETS],
    forced: AtomicU64,
    forced_margin_hist: [AtomicU64; SLACK_BUCKETS],
    min_slack: Mutex<Option<Rat>>,
    batches: AtomicU64,
    batched_events: AtomicU64,
    max_batch: AtomicU64,
    streams: Mutex<StreamList>,
    shards: Mutex<Vec<Arc<MetricsShard>>>,
}

impl MonitorMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> MonitorMetrics {
        MonitorMetrics::default()
    }

    /// Records one event consumed by a monitor.
    pub fn record_event(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` obligations opened by a trigger.
    pub fn record_opened(&self, n: u64) {
        self.obligations_opened.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one obligation discharged without violation.
    pub fn record_discharged(&self) {
        self.obligations_discharged.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one obligation resolved as a violation.
    pub fn record_violated(&self) {
        self.obligations_violated.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed queue depth into the running maximum.
    pub fn record_queue_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one event discarded by the drop-oldest overload policy.
    pub fn record_dropped(&self) {
        self.dropped_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one stream refused under the fail-stream overload policy.
    pub fn record_failed_stream(&self) {
        self.failed_streams.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one early warning and buckets its slack into the
    /// `slack / horizon` histogram. A clamped warning (`b_u < horizon`,
    /// so `slack < horizon`) lands in the quartile of its ratio; a
    /// full-horizon warning — and every warning at horizon `0` — lands
    /// in the last bucket.
    pub fn record_warning(&self, slack: Rat, horizon: Rat) {
        self.warnings.fetch_add(1, Ordering::Relaxed);
        self.warning_slack_hist[slack_bucket(slack, horizon)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one forced window and buckets its margin into the
    /// `margin / horizon` histogram. Forced windows only exist with
    /// `margin ≥ horizon`, so the buckets are the doubling intervals
    /// `[1,2) [2,4) [4,8) [8,16) [16,∞)` of the ratio.
    pub fn record_forced(&self, margin: Rat, horizon: Rat) {
        self.forced.fetch_add(1, Ordering::Relaxed);
        self.forced_margin_hist[margin_bucket(margin, horizon)].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds an observed minimum remaining slack into the running
    /// all-time low-water mark.
    pub fn record_min_slack(&self, slack: Rat) {
        let mut guard = self.min_slack.lock().expect("metrics mutex poisoned");
        match *guard {
            Some(m) if m <= slack => {}
            _ => *guard = Some(slack),
        }
    }

    /// Records one batch of `n` events pushed through a pool handle.
    pub fn record_batch(&self, n: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_events.fetch_add(n, Ordering::Relaxed);
        self.max_batch.fetch_max(n, Ordering::Relaxed);
    }

    /// Registers a stream for per-stream lag reporting.
    ///
    /// Once the list has grown to twice its size after the last prune
    /// (and to at least [`STREAM_PRUNE_FLOOR`]), this first drops the
    /// finished streams: those whose counters only the list still holds,
    /// the producer's handle and the worker's connection both gone.
    /// Pruning is amortized O(1) per registration and keeps the list
    /// within `max(2 × live, STREAM_PRUNE_FLOOR)` entries, where `live`
    /// counts the streams open at the last prune.
    pub fn register_stream(&self, id: u64) -> Arc<StreamLag> {
        let lag = Arc::new(StreamLag::default());
        let mut list = self.streams.lock().expect("metrics mutex poisoned");
        if list.entries.len() >= list.prune_at {
            list.entries.retain(|(_, l)| Arc::strong_count(l) > 1);
            list.prune_at = (2 * list.entries.len()).max(STREAM_PRUNE_FLOOR);
        }
        list.entries.push((id, Arc::clone(&lag)));
        lag
    }

    /// Registers a new private shard of the hot counters (one per pool
    /// worker). The shard's counts are folded into every subsequent
    /// [`snapshot`](MonitorMetrics::snapshot).
    pub(crate) fn register_shard(&self) -> Arc<MetricsShard> {
        let shard = Arc::new(MetricsShard::default());
        self.shards
            .lock()
            .expect("metrics mutex poisoned")
            .push(Arc::clone(&shard));
        shard
    }

    /// Freezes the counters into an immutable snapshot, merging every
    /// worker shard with the base counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        self.snapshot_into(&mut out);
        out
    }

    /// [`snapshot`](MonitorMetrics::snapshot) into a caller-provided
    /// snapshot, reusing its `streams` buffer instead of allocating a
    /// fresh one per call. A caller polling the counters on a timer —
    /// `tempo-serve`'s metrics egress does, once per subscribed client
    /// interval — holds one `MetricsSnapshot` and refreshes it here,
    /// making the steady-state poll allocation-free.
    pub fn snapshot_into(&self, out: &mut MetricsSnapshot) {
        out.streams.clear();
        {
            let streams = self.streams.lock().expect("metrics mutex poisoned");
            out.streams.reserve(streams.entries.len());
            out.streams
                .extend(streams.entries.iter().map(|(id, lag)| StreamLagSnapshot {
                    stream: *id,
                    enqueued: lag.enqueued(),
                    lag: lag.lag(),
                }));
        }
        let mut events = self.events.load(Ordering::Relaxed);
        let mut opened = self.obligations_opened.load(Ordering::Relaxed);
        let mut discharged = self.obligations_discharged.load(Ordering::Relaxed);
        let mut violated = self.obligations_violated.load(Ordering::Relaxed);
        let mut warnings = self.warnings.load(Ordering::Relaxed);
        let mut hist: [u64; SLACK_BUCKETS] =
            std::array::from_fn(|i| self.warning_slack_hist[i].load(Ordering::Relaxed));
        let mut forced = self.forced.load(Ordering::Relaxed);
        let mut margin_hist: [u64; SLACK_BUCKETS] =
            std::array::from_fn(|i| self.forced_margin_hist[i].load(Ordering::Relaxed));
        let mut min_slack = *self.min_slack.lock().expect("metrics mutex poisoned");
        for shard in self.shards.lock().expect("metrics mutex poisoned").iter() {
            events += shard.events.load(Ordering::Relaxed);
            opened += shard.obligations_opened.load(Ordering::Relaxed);
            discharged += shard.obligations_discharged.load(Ordering::Relaxed);
            violated += shard.obligations_violated.load(Ordering::Relaxed);
            warnings += shard.warnings.load(Ordering::Relaxed);
            for (i, bucket) in shard.warning_slack_hist.iter().enumerate() {
                hist[i] += bucket.load(Ordering::Relaxed);
            }
            forced += shard.forced.load(Ordering::Relaxed);
            for (i, bucket) in shard.forced_margin_hist.iter().enumerate() {
                margin_hist[i] += bucket.load(Ordering::Relaxed);
            }
            let shard_min = *shard.min_slack.lock().expect("metrics mutex poisoned");
            min_slack = match (min_slack, shard_min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        out.events = events;
        out.obligations_opened = opened;
        out.obligations_discharged = discharged;
        out.obligations_violated = violated;
        out.max_queue_depth = self.max_queue_depth.load(Ordering::Relaxed);
        out.dropped_events = self.dropped_events.load(Ordering::Relaxed);
        out.failed_streams = self.failed_streams.load(Ordering::Relaxed);
        out.warnings = warnings;
        out.warning_slack_hist = hist;
        out.forced = forced;
        out.forced_margin_hist = margin_hist;
        out.min_slack = min_slack;
        out.batches = self.batches.load(Ordering::Relaxed);
        out.batched_events = self.batched_events.load(Ordering::Relaxed);
        out.max_batch = self.max_batch.load(Ordering::Relaxed);
    }
}

/// Per-stream lag at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamLagSnapshot {
    /// Stream id.
    pub stream: u64,
    /// Total events the producer has enqueued.
    pub enqueued: u64,
    /// Events enqueued but not yet drained.
    pub lag: u64,
}

/// A frozen copy of every counter, render-able as an aligned table.
///
/// `Default` is the all-zero snapshot — the starting buffer for
/// [`MonitorMetrics::snapshot_into`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Events consumed by monitors.
    pub events: u64,
    /// Obligations opened by triggers.
    pub obligations_opened: u64,
    /// Obligations discharged without violation.
    pub obligations_discharged: u64,
    /// Obligations resolved as violations.
    pub obligations_violated: u64,
    /// Deepest queue observed by any worker.
    pub max_queue_depth: u64,
    /// Events discarded by the drop-oldest policy.
    pub dropped_events: u64,
    /// Streams refused by the fail-stream policy.
    pub failed_streams: u64,
    /// Early warnings emitted by predictors.
    pub warnings: u64,
    /// Warning counts bucketed by `slack / horizon` quartile; the last
    /// bucket holds full-horizon warnings (see
    /// [`record_warning`](MonitorMetrics::record_warning)).
    pub warning_slack_hist: [u64; SLACK_BUCKETS],
    /// Forced windows reported by predictive monitors.
    pub forced: u64,
    /// Forced-window counts bucketed by `margin / horizon` doubling
    /// intervals `[1,2) … [16,∞)` (see
    /// [`record_forced`](MonitorMetrics::record_forced)).
    pub forced_margin_hist: [u64; SLACK_BUCKETS],
    /// All-time minimum remaining slack observed across every open
    /// deadline; `None` until a predictor has reported one.
    pub min_slack: Option<Rat>,
    /// Batches pushed through pool handles.
    pub batches: u64,
    /// Events contained in those batches.
    pub batched_events: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Per-stream lag, in registration order: every live stream, and
    /// finished streams until a prune drops them (see
    /// [`MonitorMetrics::register_stream`]).
    pub streams: Vec<StreamLagSnapshot>,
}

impl MetricsSnapshot {
    /// Obligations still open (opened minus resolved either way).
    pub fn obligations_open(&self) -> u64 {
        self.obligations_opened
            .saturating_sub(self.obligations_discharged + self.obligations_violated)
    }

    /// Renders the snapshot as an aligned two-column table:
    ///
    /// ```text
    ///   events                 10000
    ///   obligations opened       312
    ///   ...
    ///   stream 0 lag               3   (of 5000 enqueued)
    /// ```
    pub fn render(&self) -> String {
        let mut rows: Vec<(String, String, String)> = vec![
            row("events", self.events),
            row("obligations opened", self.obligations_opened),
            row("obligations discharged", self.obligations_discharged),
            row("obligations violated", self.obligations_violated),
            row("obligations open", self.obligations_open()),
            row("max queue depth", self.max_queue_depth),
            row("dropped events", self.dropped_events),
            row("failed streams", self.failed_streams),
            row("warnings", self.warnings),
        ];
        if self.warnings > 0 {
            rows.push((
                "warning slack histogram".to_string(),
                self.warning_slack_hist
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                "(slack/horizon quartiles, full-horizon last)".to_string(),
            ));
        }
        rows.push(row("forced windows", self.forced));
        if self.forced > 0 {
            rows.push((
                "forced margin histogram".to_string(),
                self.forced_margin_hist
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("/"),
                "(margin/horizon doublings from 1x)".to_string(),
            ));
        }
        if let Some(s) = self.min_slack {
            rows.push(("min slack seen".to_string(), s.to_string(), String::new()));
        }
        if self.batches > 0 {
            rows.push(row("batches", self.batches));
            rows.push(row("batched events", self.batched_events));
            rows.push(row("max batch", self.max_batch));
        }
        for s in &self.streams {
            rows.push((
                format!("stream {} lag", s.stream),
                s.lag.to_string(),
                format!("(of {} enqueued)", s.enqueued),
            ));
        }
        render_rows(&rows)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

fn row(label: &str, value: u64) -> (String, String, String) {
    (label.to_string(), value.to_string(), String::new())
}

/// Aligned three-column rendering, after `tempo-core`'s `render` module:
/// left-padded label column, right-aligned value column, trailing note.
fn render_rows(rows: &[(String, String, String)]) -> String {
    let w0 = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let w1 = rows.iter().map(|r| r.1.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value, note) in rows {
        out.push_str(&format!("  {label:<w0$}  {value:>w1$}"));
        if !note.is_empty() {
            out.push_str(&format!("  {note}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MonitorMetrics::new();
        m.record_event();
        m.record_event();
        m.record_opened(3);
        m.record_discharged();
        m.record_violated();
        m.record_queue_depth(5);
        m.record_queue_depth(2);
        let s = m.snapshot();
        assert_eq!(s.events, 2);
        assert_eq!(s.obligations_opened, 3);
        assert_eq!(s.obligations_open(), 1);
        assert_eq!(s.max_queue_depth, 5);
    }

    #[test]
    fn stream_lag_tracks_in_flight() {
        let m = MonitorMetrics::new();
        let lag = m.register_stream(7);
        lag.record_enqueued();
        lag.record_enqueued();
        lag.record_drained();
        let s = m.snapshot();
        assert_eq!(
            s.streams,
            vec![StreamLagSnapshot {
                stream: 7,
                enqueued: 2,
                lag: 1
            }]
        );
    }

    #[test]
    fn finished_streams_are_pruned_and_live_ones_stay_listed() {
        let m = MonitorMetrics::new();
        let live: Vec<Arc<StreamLag>> = (0..3).map(|id| m.register_stream(id)).collect();
        for id in 3..10 * STREAM_PRUNE_FLOOR as u64 {
            drop(m.register_stream(id)); // finished at once
            if id % 64 == 0 {
                assert!(m.snapshot().streams.len() <= STREAM_PRUNE_FLOOR);
            }
        }
        let ids: Vec<u64> = m.snapshot().streams.iter().map(|s| s.stream).collect();
        assert_eq!(ids[..3], [0, 1, 2], "live streams stay listed, in order");
        drop(live);
    }

    #[test]
    fn warning_histogram_buckets_by_slack_ratio() {
        let m = MonitorMetrics::new();
        let h = Rat::from(8);
        m.record_warning(Rat::from(1), h); // 1/8 → bucket 0
        m.record_warning(Rat::from(3), h); // 3/8 → bucket 1
        m.record_warning(Rat::from(4), h); // 4/8 → bucket 2
        m.record_warning(Rat::from(7), h); // 7/8 → bucket 3
        m.record_warning(h, h); // full horizon → bucket 4
        m.record_warning(Rat::ZERO, Rat::ZERO); // horizon 0 → bucket 4
        let s = m.snapshot();
        assert_eq!(s.warnings, 6);
        assert_eq!(s.warning_slack_hist, [1, 1, 1, 1, 2]);
        assert!(s.render().contains("1/1/1/1/2"));
    }

    #[test]
    fn forced_histogram_buckets_by_margin_ratio() {
        let m = MonitorMetrics::new();
        let h = Rat::from(2);
        m.record_forced(Rat::from(2), h); // 1x → bucket 0
        m.record_forced(Rat::from(5), h); // 2.5x → bucket 1
        m.record_forced(Rat::from(9), h); // 4.5x → bucket 2
        m.record_forced(Rat::from(17), h); // 8.5x → bucket 3
        m.record_forced(Rat::from(64), h); // 32x → bucket 4
        m.record_forced(Rat::ZERO, Rat::ZERO); // defensive: horizon 0 → bucket 4
        let s = m.snapshot();
        assert_eq!(s.forced, 6);
        assert_eq!(s.forced_margin_hist, [1, 1, 1, 1, 2]);
        assert!(s.render().contains("forced windows"));
        assert!(s.render().contains("1/1/1/1/2"));
    }

    #[test]
    fn forced_counts_merge_from_shards() {
        let m = MonitorMetrics::new();
        m.record_forced(Rat::from(3), Rat::from(3)); // base, bucket 0
        let a = m.register_shard();
        a.record_forced(Rat::from(10), Rat::from(3)); // shard, bucket 1
        let s = m.snapshot();
        assert_eq!(s.forced, 2);
        assert_eq!(s.forced_margin_hist, [1, 1, 0, 0, 0]);
    }

    #[test]
    fn min_slack_keeps_the_low_water_mark() {
        let m = MonitorMetrics::new();
        assert_eq!(m.snapshot().min_slack, None);
        m.record_min_slack(Rat::from(5));
        m.record_min_slack(Rat::from(9));
        m.record_min_slack(Rat::from(2));
        assert_eq!(m.snapshot().min_slack, Some(Rat::from(2)));
        assert!(m.snapshot().render().contains("min slack seen"));
    }

    #[test]
    fn batches_accumulate_and_track_max() {
        let m = MonitorMetrics::new();
        m.record_batch(3);
        m.record_batch(10);
        m.record_batch(1);
        let s = m.snapshot();
        assert_eq!(s.batches, 3);
        assert_eq!(s.batched_events, 14);
        assert_eq!(s.max_batch, 10);
        let lag = m.register_stream(0);
        lag.record_enqueued_many(4);
        assert_eq!(lag.enqueued(), 4);
        assert_eq!(lag.lag(), 4);
        lag.record_drained_many(3);
        assert_eq!(lag.lag(), 1);
    }

    #[test]
    fn shards_merge_into_the_snapshot() {
        let m = MonitorMetrics::new();
        m.record_event();
        m.record_warning(Rat::from(2), Rat::from(2)); // base, bucket 4
        m.record_min_slack(Rat::from(5));
        let a = m.register_shard();
        let b = m.register_shard();
        a.record_event();
        a.record_opened(2);
        a.record_discharged();
        a.record_warning(Rat::from(1), Rat::from(8)); // bucket 0
        a.record_min_slack(Rat::from(3));
        b.record_event();
        b.record_violated();
        b.record_min_slack(Rat::from(7));
        let s = m.snapshot();
        assert_eq!(s.events, 3);
        assert_eq!(s.obligations_opened, 2);
        assert_eq!(s.obligations_discharged, 1);
        assert_eq!(s.obligations_violated, 1);
        assert_eq!(s.obligations_open(), 0);
        assert_eq!(s.warnings, 2);
        assert_eq!(s.warning_slack_hist, [1, 0, 0, 0, 1]);
        // Minimum slack is the minimum across base and every shard.
        assert_eq!(s.min_slack, Some(Rat::from(3)));
    }

    #[test]
    fn snapshot_into_refreshes_a_reused_buffer() {
        let m = MonitorMetrics::new();
        let shard = m.register_shard();
        let lag = m.register_stream(3);
        lag.record_enqueued_many(5);
        shard.record_event();
        let mut buf = MetricsSnapshot::default();
        m.snapshot_into(&mut buf);
        assert_eq!(buf.events, 1);
        assert_eq!(buf.streams.len(), 1);
        assert_eq!(buf.streams[0].lag, 5);
        // Stale contents are fully overwritten on the next refresh, and
        // the stream buffer does not grow duplicates.
        shard.record_event();
        lag.record_drained_many(5);
        m.snapshot_into(&mut buf);
        assert_eq!(buf.events, 2);
        assert_eq!(buf.streams.len(), 1);
        assert_eq!(buf.streams[0].lag, 0);
        assert_eq!(buf, m.snapshot());
    }

    #[test]
    fn render_is_aligned() {
        let m = MonitorMetrics::new();
        m.record_event();
        let text = m.snapshot().render();
        assert!(text.contains("events"));
        assert!(text.contains("max queue depth"));
        // Every line is indented like render.rs output.
        assert!(text.lines().all(|l| l.starts_with("  ")));
    }
}
