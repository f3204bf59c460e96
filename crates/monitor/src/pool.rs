//! Sharding many event streams across worker threads.
//!
//! A [`MonitorPool`] owns a fixed set of worker threads; every opened
//! stream is pinned to one worker (round robin), so a stream's events
//! are processed in order by a single [`Monitor`]. Producers hand events
//! to [`StreamHandle::send`], which applies the configured
//! [`OverloadPolicy`] when the stream's queue is full: block the
//! producer, drop the oldest queued event, or fail the stream.
//!
//! # Ingestion pipeline
//!
//! The transport is lock-free: each (stream, worker) pair owns a bounded
//! SPSC ring buffer ([`crate::ring`]) carrying only [`Event`]s. The
//! handle keeps the producer half, the worker keeps the consumer half,
//! and stream lifecycle travels out of band — opening a stream registers
//! the ring with the worker through a small injector list, finishing it
//! flips a per-stream atomic flag. Publish and drain are batched (one
//! release store per [`send_batch`](StreamHandle::send_batch), one
//! claim per worker drain of up to [`PoolConfig::drain_batch`] events).
//!
//! # The ready list
//!
//! A stream's verdicts can change only when it has an event or
//! finishes, so a worker visits only such streams: its work grows with
//! events, not with live streams. Each worker keeps its adopted streams
//! in a slab and a FIFO of *ready* slots, fed by a shared ready list.
//! Each stream's control block carries a `queued` flag, `true` while the
//! stream is on a ready list or in the worker's hands:
//!
//! * A producer that published at least one event, or set `finished`,
//!   fences and reads `queued`. Only when it reads `false` does it swap
//!   the flag to `true`, and only the swap that finds it `false` pushes
//!   the stream's slot onto the shared list and wakes the worker: one
//!   push per idle → busy transition, not one per event.
//! * The flag starts `true`: adoption queues every new stream, which
//!   covers events published before adoption, so a producer never
//!   pushes a slot the worker has not assigned yet.
//! * The worker takes the shared list (one flag swap and one lock, only
//!   when the flag is raised) and visits its FIFO once per round: one
//!   batched drain per stream, so no stream starves another. A ring
//!   that is still non-empty goes back to the tail; a finished stream
//!   is drained to empty and filed.
//! * A ring left empty is released: the worker clears `queued`, fences
//!   (`SeqCst`) and re-checks the ring and `finished`. Against the
//!   producer's fence-then-read, either the re-check sees the new work
//!   (and the worker re-queues the stream if it wins the flag back) or
//!   the producer reads the cleared flag and queues the stream.
//!
//! Only hot reload and shutdown still sweep every live stream. Idle, a
//! worker spins briefly, advertises itself sleeping, re-checks under a
//! `SeqCst` fence that nothing is ready, and parks
//! ([`std::thread::park`]); every producer wake goes through the
//! mirror-image fence, so wakeups cannot be lost. A producer blocked on
//! a full ring parks the same way inside [`crate::ring`], woken by the
//! worker's draining pop.
//!
//! All workers report into one [`MonitorMetrics`]; the hot per-event
//! counters are sharded per worker and merged at snapshot time, so a
//! snapshot still sees the whole pool: total events, obligation churn,
//! the deepest queue observed, and per-stream lag.

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

use tempo_core::{SatisfactionMode, TimingCondition, Violation};
use tempo_math::Rat;

use tempo_core::engine::{BackendChoice, CompiledConditionSet, Obligation};
use tempo_spec::SpecRevision;

use crate::event::Event;
use crate::metrics::{MetricsShard, MetricsSnapshot, MonitorMetrics, StreamLag};
use crate::monitor::Monitor;
use crate::predict::{Forced, Warning};
use crate::ring::{self, Consumer, Producer};

/// What [`StreamHandle::send`] does when the stream's queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Block the producer until the worker catches up (lossless,
    /// backpressure).
    Block,
    /// Drop the oldest queued event of *this stream* to make room
    /// (lossy, bounded latency).
    DropOldest,
    /// Refuse the event and mark the stream failed; subsequent sends on
    /// the stream error immediately.
    FailStream,
}

/// Pool sizing and overload behaviour.
///
/// Sizing fields are *normalized* rather than rejected: see
/// [`PoolConfig::validated`] for the exact clamping contract.
/// [`MonitorPool::new`] applies it, so a zero in any sizing field is
/// safe and means "the minimum".
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of worker threads (streams are pinned round robin).
    /// Clamped to at least 1 by [`validated`](PoolConfig::validated).
    pub workers: usize,
    /// Per-stream queue capacity, in events. Normalized by
    /// [`validated`](PoolConfig::validated) to at least 1 and up to the
    /// next power of two (the ring transport indexes by bitmask).
    pub queue_capacity: usize,
    /// What to do when a stream's queue is full.
    pub policy: OverloadPolicy,
    /// How stream ends are judged (Definition 3.1 prefix semantics by
    /// default: open deadlines at the end of a stream are excused).
    pub mode: SatisfactionMode,
    /// Prediction horizon: `Some(h)` arms every stream's engine with
    /// slack horizon `h` (see
    /// [`Monitor::with_predictor`](crate::Monitor::with_predictor)), so
    /// stream reports also carry [`Warning`]s and [`Forced`] windows.
    /// `None` (the default) monitors without prediction.
    pub horizon: Option<Rat>,
    /// How many queued events a worker drains from one stream per ring
    /// claim (default 1024). This is the worker-side latency/throughput
    /// knob: a large batch amortizes the atomic claim and producer
    /// wake-ups over many events (highest throughput, pairs with
    /// [`StreamHandle::send_batch`]), while a small batch bounds how
    /// many events a worker takes from one stream before visiting the
    /// next and before producers blocked on a full ring are woken,
    /// trimming tail latency under backpressure. Clamped to at least 1
    /// by [`validated`](PoolConfig::validated).
    pub drain_batch: usize,
    /// Which engine backend every stream's monitor runs
    /// ([`BackendChoice::Auto`] by default: the integer-tick engine
    /// when the compiled set's bounds fit a common tick grid, the
    /// exact-rational engine otherwise). Set
    /// [`BackendChoice::Exact`] to pin the exact engine, e.g. as the
    /// differential oracle when benchmarking the integer backend.
    pub backend: BackendChoice,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 4,
            queue_capacity: 1024,
            policy: OverloadPolicy::Block,
            mode: SatisfactionMode::Prefix,
            horizon: None,
            drain_batch: 1024,
            backend: BackendChoice::Auto,
        }
    }
}

impl PoolConfig {
    /// Normalizes the sizing fields to the values the pool actually
    /// runs with — the stated contract behind "zero means minimum":
    ///
    /// * `workers` is clamped to at least 1 (a pool always has a
    ///   worker);
    /// * `queue_capacity` is clamped to at least 1 and rounded **up**
    ///   to the next power of two, because the SPSC ring transport
    ///   ([`crate::ring`]) masks sequence numbers into its slot array;
    /// * `drain_batch` is clamped to at least 1 (a worker drain must
    ///   make progress).
    ///
    /// [`MonitorPool::new`] calls this itself; call it directly to see
    /// the effective configuration before building a pool.
    ///
    /// ```
    /// use tempo_monitor::PoolConfig;
    ///
    /// let cfg = PoolConfig {
    ///     workers: 0,
    ///     queue_capacity: 100,
    ///     drain_batch: 0,
    ///     ..PoolConfig::default()
    /// }
    /// .validated();
    /// assert_eq!(cfg.workers, 1);
    /// assert_eq!(cfg.queue_capacity, 128);
    /// assert_eq!(cfg.drain_batch, 1);
    /// ```
    pub fn validated(self) -> PoolConfig {
        PoolConfig {
            workers: self.workers.max(1),
            queue_capacity: self.queue_capacity.max(1).next_power_of_two(),
            drain_batch: self.drain_batch.max(1),
            ..self
        }
    }
}

/// An event was refused because the stream's bounded queue was full, or
/// the stream had already failed.
///
/// Which sends return it depends on the [`OverloadPolicy`]:
///
/// * [`FailStream`](OverloadPolicy::FailStream) — [`StreamHandle::send`]
///   returns it when the stream's queue is full (the event is refused
///   and the stream is marked failed); [`StreamHandle::send_batch`]
///   returns it when the batch does not fit entirely (the fitting
///   prefix is still delivered). Once failed, *every* later send or
///   send_batch on the handle returns it immediately.
/// * [`Block`](OverloadPolicy::Block) — returned only when the pool is
///   shutting down underneath the handle
///   ([`MonitorPool::begin_shutdown`] racing an in-flight send on a
///   full queue): the producer would otherwise wait on a worker that
///   will never drain again. Absent a shutdown, the producer waits for
///   room and `send` never errors. A `send_batch` cut short this way
///   still delivers the prefix it published before the shutdown, as
///   `FailStream` does.
/// * [`DropOldest`](OverloadPolicy::DropOldest) — never returned: the
///   oldest queued event is discarded to make room instead.
///
/// Under every policy, [`accepted`](StreamOverflow::accepted) counts
/// the events of the failing call that were published before it gave
/// up, so a caller's tally of delivered events stays exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamOverflow {
    /// The failed stream's id.
    pub stream: u64,
    /// Events of *this call* that were published into the stream's
    /// queue before the error: the delivered prefix of a batch, 0 for
    /// a single [`send`](StreamHandle::send) or a call on an already
    /// failed stream.
    pub accepted: u64,
}

impl fmt::Display for StreamOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream {} overflowed its monitor queue ({} events of the call accepted)",
            self.stream, self.accepted
        )
    }
}

impl std::error::Error for StreamOverflow {}

/// Idle passes a worker makes over its ready flags before parking. A
/// pass is a few loads and a spin hint (≈ 25 ns on a 2-vCPU Xeon), so
/// this spins ≈ 3 µs: long enough to ride out a producer refilling a
/// small ring without a park/unpark round trip per refill (64 passes
/// were not, EXPERIMENTS §E21a), short enough that a worker woken once
/// per burst of a paced load spends little of what the ready list saves
/// on spinning.
const WORKER_SPIN: u32 = 128;

/// Backstop timeout for worker parking. The fenced sleeping-flag
/// protocol makes lost wakeups impossible; the timeout only bounds the
/// damage of bugs and gives a dropped-without-wake producer thread no
/// way to wedge the pool.
const WORKER_PARK: Duration = Duration::from_millis(1);

/// Per-stream lifecycle flags, shared between the handle (writer) and
/// the worker (reader) — the out-of-band replacement for the old
/// `Finish` control message — plus the stream's ready-list state.
struct ConnCtl {
    /// Set (release) by the handle after its last publish; once the
    /// worker acquires it, every event of the stream is visible.
    finished: AtomicBool,
    /// Whether the fail-stream policy cut the stream short. Written
    /// before `finished`, read after it.
    failed: AtomicBool,
    /// `true` while the stream is on its worker's ready list or in the
    /// worker's hands (see the module docs). Starts `true`: adoption
    /// queues the stream, covering events published before it.
    queued: AtomicBool,
    /// The stream's slot in its worker's slab: written by the worker at
    /// adoption, before it first clears `queued`; read by the producer
    /// after winning `queued`.
    slot: AtomicUsize,
}

impl ConnCtl {
    fn new() -> ConnCtl {
        ConnCtl {
            finished: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            queued: AtomicBool::new(true),
            slot: AtomicUsize::new(0),
        }
    }
}

/// A freshly opened stream, waiting in the worker's injector: the
/// consumer half of its ring plus everything the worker needs to build
/// its monitor — the out-of-band replacement for the old `Open` control
/// message.
struct NewConn<S, A> {
    stream: u64,
    start: S,
    rx: Consumer<Event<S, A>>,
    ctl: Arc<ConnCtl>,
    lag: Arc<StreamLag>,
}

/// One worker's shared face: how producers hand it new streams and
/// ready streams, and wake it from its park.
struct WorkerShared<S, A> {
    /// Streams opened but not yet adopted by the worker loop.
    injector: Mutex<Vec<NewConn<S, A>>>,
    /// Slab slots of adopted streams that became ready (published events
    /// or finished) since the worker last took the list; a stream is
    /// pushed by whoever flips its `queued` flag false → true.
    ready: Mutex<Vec<usize>>,
    /// Set after pushing onto `ready`; cleared by the worker's taking
    /// swap, so an idle worker polls a flag, not the mutex.
    ready_pending: AtomicBool,
    /// Set after pushing into the injector; cleared by the worker's
    /// adopting swap.
    dirty: AtomicBool,
    /// A pending hot-reload command from [`MonitorPool::reload`], taken
    /// by the worker loop.
    reload: Mutex<Option<ReloadCmd<S, A>>>,
    /// Set after depositing a reload command; cleared by the worker's
    /// taking swap.
    reload_pending: AtomicBool,
    /// Set once by [`MonitorPool::begin_shutdown`].
    shutdown: AtomicBool,
    /// Advertised (with a `SeqCst` fence) by the worker before parking.
    sleeping: AtomicBool,
    /// The worker's thread handle, set once at loop start.
    thread: OnceLock<Thread>,
    /// Reports of streams this worker has finished, awaiting collection
    /// by [`MonitorPool::drain_finished`] or the final
    /// [`MonitorPool::shutdown`].
    outbox: Mutex<Vec<StreamReport>>,
}

impl<S, A> Default for WorkerShared<S, A> {
    fn default() -> WorkerShared<S, A> {
        WorkerShared {
            injector: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
            ready_pending: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            reload: Mutex::new(None),
            reload_pending: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            thread: OnceLock::new(),
            outbox: Mutex::new(Vec::new()),
        }
    }
}

/// A hot-reload command in flight to one worker: the new compiled set
/// plus the rendezvous the reloading thread blocks on.
struct ReloadCmd<S, A> {
    set: Arc<CompiledConditionSet<S, A>>,
    gather: Arc<ReloadGather>,
}

/// The rendezvous for one [`MonitorPool::reload`] call: every worker
/// folds its swap outcomes in and decrements `pending`; the reloading
/// thread waits for zero.
struct ReloadGather {
    state: Mutex<ReloadGatherState>,
    cv: Condvar,
}

struct ReloadGatherState {
    pending: usize,
    streams: usize,
    carried: usize,
    dropped: Vec<(u64, String, Obligation)>,
}

/// What [`MonitorPool::reload`] did, aggregated across workers.
#[derive(Clone, Debug)]
pub struct ReloadReport {
    /// Worker threads that acknowledged the swap.
    pub workers: usize,
    /// Live streams whose monitor was swapped onto the new set.
    pub streams: usize,
    /// Open obligations carried forward (summed over streams).
    pub carried: usize,
    /// Obligations closed administratively because their condition does
    /// not exist in the new revision: `(stream id, old condition name,
    /// obligation)`.
    pub dropped: Vec<(u64, String, Obligation)>,
}

impl<S, A> WorkerShared<S, A> {
    /// Unparks the worker if it advertised itself sleeping. The `SeqCst`
    /// fence pairs with the worker's advertise-fence-recheck sequence:
    /// either the worker's recheck sees what this thread just published
    /// (a ready-list entry, an injector entry, a reload or shutdown), or
    /// this load sees the sleeping flag and unparks it.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::Relaxed) {
            if let Some(th) = self.thread.get() {
                th.unpark();
            }
        }
    }
}

/// The monitoring outcome of one stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamReport {
    /// Stream id (in [`MonitorPool::open_stream`] order).
    pub stream: u64,
    /// Events the stream's monitor consumed.
    pub events: usize,
    /// All violations witnessed, in event order.
    pub violations: Vec<Violation>,
    /// Early warnings emitted by the stream's predictive engine, in
    /// event order; empty unless [`PoolConfig::horizon`] was set.
    pub warnings: Vec<Warning>,
    /// Forced windows reported by the stream's predictive engine (the
    /// `Ft(U)` side), in event order; empty unless
    /// [`PoolConfig::horizon`] was set.
    pub forced: Vec<Forced>,
    /// Whether the fail-stream policy cut the stream short (its verdicts
    /// then cover only a prefix).
    pub failed: bool,
}

/// The pool's aggregate outcome: one report per stream plus a final
/// metrics snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolReport {
    /// Per-stream outcomes, ordered by stream id.
    pub streams: Vec<StreamReport>,
    /// Final counter values.
    pub metrics: MetricsSnapshot,
}

impl PoolReport {
    /// `true` when no stream was failed and no violation was witnessed.
    pub fn passed(&self) -> bool {
        self.streams
            .iter()
            .all(|s| !s.failed && s.violations.is_empty())
    }

    /// All violations with their stream ids.
    pub fn violations(&self) -> Vec<(u64, &Violation)> {
        self.streams
            .iter()
            .flat_map(|s| s.violations.iter().map(move |v| (s.stream, v)))
            .collect()
    }

    /// All early warnings with their stream ids.
    pub fn warnings(&self) -> Vec<(u64, &Warning)> {
        self.streams
            .iter()
            .flat_map(|s| s.warnings.iter().map(move |w| (s.stream, w)))
            .collect()
    }

    /// All forced windows with their stream ids.
    pub fn forced(&self) -> Vec<(u64, &Forced)> {
        self.streams
            .iter()
            .flat_map(|s| s.forced.iter().map(move |fw| (s.stream, fw)))
            .collect()
    }
}

/// A handle for feeding one stream — the producer half of the stream's
/// SPSC ring. Dropping the handle finishes the stream implicitly.
pub struct StreamHandle<S, A> {
    stream: u64,
    tx: Producer<Event<S, A>>,
    ctl: Arc<ConnCtl>,
    worker: Arc<WorkerShared<S, A>>,
    lag: Arc<StreamLag>,
    metrics: Arc<MonitorMetrics>,
    policy: OverloadPolicy,
    /// Local cache of the deepest depth this handle has reported, so the
    /// shared `max_queue_depth` atomic is touched O(capacity) times per
    /// stream instead of once per event.
    max_depth_seen: u64,
    failed: bool,
    finished: bool,
}

impl<S, A> StreamHandle<S, A> {
    /// This stream's id, as it will appear in the [`PoolReport`].
    pub fn id(&self) -> u64 {
        self.stream
    }

    /// Folds a post-push queue depth into the pool-wide maximum, through
    /// the handle-local cache.
    fn record_depth(&mut self, depth: usize) {
        let depth = depth as u64;
        if depth > self.max_depth_seen {
            self.max_depth_seen = depth;
            self.metrics.record_queue_depth(depth);
        }
    }

    /// Discards the oldest queued event to make room (the `DropOldest`
    /// policy), keeping the lag and drop accounting exact. Spins when
    /// nothing is evictable (every queued event already claimed by an
    /// in-flight worker drain — room is imminent).
    fn shed_oldest(&mut self) {
        match self.tx.evict_oldest() {
            Some(_victim) => {
                // The evicted event left the queue unprocessed; it still
                // counts against its stream's lag.
                self.lag.record_drained();
                self.metrics.record_dropped();
            }
            None => std::hint::spin_loop(),
        }
    }

    /// Puts the stream on its worker's ready list after a publish or the
    /// finish flag, unless it is already there or in the worker's hands.
    /// The fence pairs with the worker's clear-fence-recheck of `queued`:
    /// either the worker's recheck sees what this thread published, or
    /// the flag read after this fence sees the worker's clear and this
    /// thread queues the stream — one push per idle → busy transition,
    /// not one per event. A `true` read after the fence is the worker's
    /// own re-queue or an earlier push, so only a `false` read pays the
    /// swap that settles a race with the worker's re-check.
    fn mark_ready(&self) {
        fence(Ordering::SeqCst);
        if !self.ctl.queued.load(Ordering::Relaxed) && !self.ctl.queued.swap(true, Ordering::AcqRel)
        {
            let slot = self.ctl.slot.load(Ordering::Relaxed);
            self.worker
                .ready
                .lock()
                .expect("pool ready-list mutex poisoned")
                .push(slot);
            self.worker.ready_pending.store(true, Ordering::Release);
            self.worker.wake();
        }
    }

    /// The error for a call that published `accepted` events and then
    /// gave up.
    fn overflow(&self, accepted: u64) -> StreamOverflow {
        StreamOverflow {
            stream: self.stream,
            accepted,
        }
    }

    /// Hands one event to the stream's worker, applying the overload
    /// policy if the stream's queue is full.
    ///
    /// # Errors
    ///
    /// Under [`OverloadPolicy::FailStream`], returns [`StreamOverflow`]
    /// when the queue is full — and on every later send, the stream
    /// having failed. The other policies only error when the pool is
    /// shutting down underneath the handle (see [`StreamOverflow`] for
    /// the full per-policy contract).
    pub fn send(&mut self, action: A, time: Rat, state: S) -> Result<(), StreamOverflow> {
        if self.failed {
            return Err(self.overflow(0));
        }
        let mut event = Event::new(action, time, state);
        let depth = match self.policy {
            OverloadPolicy::Block => loop {
                match self.tx.try_push(event) {
                    Ok(depth) => break depth,
                    Err(e) => {
                        event = e;
                        // A full ring is queued on the worker, so it is
                        // draining: park until its pop unparks us. A
                        // shutdown racing this send means the worker
                        // will never drain again — bail out instead of
                        // blocking forever.
                        if !self.tx.wait_space_or(&self.worker.shutdown) {
                            self.failed = true;
                            return Err(self.overflow(0));
                        }
                    }
                }
            },
            OverloadPolicy::DropOldest => loop {
                match self.tx.try_push(event) {
                    Ok(depth) => break depth,
                    Err(e) => {
                        event = e;
                        self.shed_oldest();
                    }
                }
            },
            OverloadPolicy::FailStream => match self.tx.try_push(event) {
                Ok(depth) => depth,
                Err(_) => {
                    self.failed = true;
                    self.metrics.record_failed_stream();
                    return Err(self.overflow(0));
                }
            },
        };
        self.lag.record_enqueued();
        self.record_depth(depth);
        self.mark_ready();
        Ok(())
    }

    /// Hands a whole batch of events to the stream's worker, published
    /// with a *single* release store per run of free slots — amortizing
    /// even the atomic traffic of [`send`](StreamHandle::send) (the win
    /// behind the `e11_predictor` and `e13_ingest` batching figures).
    ///
    /// The overload policy applies per event within the batch: `Block`
    /// waits for room as it goes, `DropOldest` evicts per excess event,
    /// and `FailStream` accepts the prefix that fits and fails the
    /// stream if anything is left over.
    ///
    /// # Errors
    ///
    /// Under [`OverloadPolicy::FailStream`], returns [`StreamOverflow`]
    /// when the batch did not fit entirely (the fitting prefix is still
    /// delivered and counted in [`StreamOverflow::accepted`]), and on
    /// every later send. The other policies only error when the pool is
    /// shutting down underneath the handle (see [`StreamOverflow`] for
    /// the full per-policy contract).
    pub fn send_batch<I>(&mut self, events: I) -> Result<(), StreamOverflow>
    where
        I: IntoIterator<Item = (A, Rat, S)>,
    {
        let events: Vec<Event<S, A>> = events
            .into_iter()
            .map(|(action, time, state)| Event::new(action, time, state))
            .collect();
        self.send_batch_exact(events.into_iter())
    }

    /// [`send_batch`](StreamHandle::send_batch) without the intermediate
    /// `Vec`: events are published into the ring *straight out of the
    /// iterator*, so a caller that already knows the batch length — a
    /// wire decoder walking a received frame, a slice iterator — pays no
    /// allocation on the hot path. This is the entry point
    /// `tempo-serve` feeds decoded `BATCH` frames through.
    ///
    /// # Errors
    ///
    /// Exactly [`send_batch`](StreamHandle::send_batch)'s contract.
    pub fn send_batch_exact<I>(&mut self, events: I) -> Result<(), StreamOverflow>
    where
        I: ExactSizeIterator<Item = Event<S, A>>,
    {
        if self.failed {
            return Err(self.overflow(0));
        }
        let n = events.len() as u64;
        if n == 0 {
            return Ok(());
        }
        let mut items = events;
        let mut max_depth = 0usize;
        loop {
            let (depth, accepted) = self.tx.try_push_many(&mut items);
            if accepted > 0 {
                max_depth = max_depth.max(depth);
                self.mark_ready();
            }
            if items.len() == 0 {
                break;
            }
            let cut_short = match self.policy {
                // As in `send`: the full ring is queued, so wait for the
                // worker's pop unless a shutdown calls the wait off.
                OverloadPolicy::Block => !self.tx.wait_space_or(&self.worker.shutdown),
                OverloadPolicy::DropOldest => {
                    self.shed_oldest();
                    false
                }
                OverloadPolicy::FailStream => {
                    self.metrics.record_failed_stream();
                    true
                }
            };
            if cut_short {
                let accepted_total = n - items.len() as u64;
                self.lag.record_enqueued_many(accepted_total);
                self.record_depth(max_depth);
                self.metrics.record_batch(accepted_total);
                self.failed = true;
                return Err(self.overflow(accepted_total));
            }
        }
        self.lag.record_enqueued_many(n);
        self.record_depth(max_depth);
        self.metrics.record_batch(n);
        Ok(())
    }

    /// Ends the stream: the worker drains what remains, finalizes its
    /// monitor and files the stream's report.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        // `failed` first, then the release store of `finished`: a worker
        // that acquires `finished` sees the fail flag and every event
        // published before this point.
        self.ctl.failed.store(self.failed, Ordering::Relaxed);
        self.ctl.finished.store(true, Ordering::Release);
        self.mark_ready();
    }
}

impl<S, A> Drop for StreamHandle<S, A> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// A pool of monitor workers sharding independent event streams.
///
/// # Example
///
/// ```
/// use tempo_core::TimingCondition;
/// use tempo_math::{Interval, Rat};
/// use tempo_monitor::{MonitorPool, PoolConfig};
///
/// let cond: TimingCondition<u32, &str> =
///     TimingCondition::new("G", Interval::closed(Rat::from(1), Rat::from(5)).unwrap())
///         .triggered_at_start(|_| true)
///         .on_actions(|a| *a == "GRANT");
/// let mut pool = MonitorPool::new(&[cond], PoolConfig::default());
/// let mut stream = pool.open_stream(0);
/// stream.send("GRANT", Rat::from(2), 1).unwrap();
/// stream.finish();
/// let report = pool.shutdown();
/// assert!(report.passed());
/// ```
pub struct MonitorPool<S, A> {
    shared: Vec<Arc<WorkerShared<S, A>>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<MonitorMetrics>,
    policy: OverloadPolicy,
    queue_capacity: usize,
    next_stream: u64,
}

impl<S, A> MonitorPool<S, A>
where
    S: Clone + Send + 'static,
    A: Clone + Eq + Hash + Send + Sync + 'static,
{
    /// Spawns `config.workers` worker threads (after
    /// [`PoolConfig::validated`] normalization). The conditions are
    /// compiled into one shared
    /// [`CompiledConditionSet`](tempo_core::engine::CompiledConditionSet)
    /// for the whole pool — every stream's monitor steps the same
    /// compiled engine, paying the compilation exactly once.
    pub fn new(conds: &[TimingCondition<S, A>], config: PoolConfig) -> MonitorPool<S, A>
    where
        A: fmt::Debug,
    {
        MonitorPool::from_compiled(Arc::new(CompiledConditionSet::new(conds)), config)
    }

    /// [`new`](MonitorPool::new) with an already-compiled (possibly
    /// shared) set — e.g. a [`SpecRevision`]'s, so a pool can start on
    /// the same compiled revision it later hot-swaps with
    /// [`reload_spec`](MonitorPool::reload_spec).
    pub fn from_compiled(
        set: Arc<CompiledConditionSet<S, A>>,
        config: PoolConfig,
    ) -> MonitorPool<S, A> {
        let config = config.validated();
        let metrics = Arc::new(MonitorMetrics::new());
        let mut shared = Vec::new();
        let mut workers = Vec::new();
        for i in 0..config.workers {
            let ws: Arc<WorkerShared<S, A>> = Arc::new(WorkerShared::default());
            let shard = metrics.register_shard();
            let worker_ws = Arc::clone(&ws);
            let set = Arc::clone(&set);
            let mode = config.mode;
            let horizon = config.horizon;
            let drain_batch = config.drain_batch;
            let backend = config.backend;
            let worker = thread::Builder::new()
                .name(format!("tempo-worker-{i}"))
                .spawn(move || {
                    worker_loop(
                        &worker_ws,
                        &set,
                        &shard,
                        mode,
                        horizon,
                        drain_batch,
                        backend,
                    )
                })
                .expect("failed to spawn a pool worker thread");
            workers.push(worker);
            shared.push(ws);
        }
        MonitorPool {
            shared,
            workers,
            metrics,
            policy: config.policy,
            queue_capacity: config.queue_capacity,
            next_stream: 0,
        }
    }

    /// Opens a new stream starting in `start`, pinned to a worker round
    /// robin: builds the stream's SPSC ring, hands its consumer half to
    /// the worker through the injector, and returns the producer half
    /// wrapped in a [`StreamHandle`].
    pub fn open_stream(&mut self, start: S) -> StreamHandle<S, A> {
        let worker = (self.next_stream as usize) % self.shared.len();
        self.open_stream_on(worker, start)
    }

    /// [`open_stream`](MonitorPool::open_stream) pinned to a *specific*
    /// worker (`worker` taken modulo the worker count): the hook for
    /// callers that own stream placement — `tempo-serve` routes streams
    /// through a consistent-hash ring over the workers instead of the
    /// pool's round robin, so placement survives worker drain/restore
    /// with minimal movement.
    pub fn open_stream_on(&mut self, worker: usize, start: S) -> StreamHandle<S, A> {
        let stream = self.next_stream;
        self.next_stream += 1;
        let worker = Arc::clone(&self.shared[worker % self.shared.len()]);
        let lag = self.metrics.register_stream(stream);
        let (tx, rx) = ring::ring(self.queue_capacity);
        let ctl = Arc::new(ConnCtl::new());
        worker
            .injector
            .lock()
            .expect("pool injector mutex poisoned")
            .push(NewConn {
                stream,
                start,
                rx,
                ctl: Arc::clone(&ctl),
                lag: Arc::clone(&lag),
            });
        worker.dirty.store(true, Ordering::Release);
        worker.wake();
        StreamHandle {
            stream,
            tx,
            ctl,
            worker,
            lag,
            metrics: Arc::clone(&self.metrics),
            policy: self.policy,
            max_depth_seen: 0,
            failed: false,
            finished: false,
        }
    }

    /// The pool's shared counters (snapshot any time for live lag).
    pub fn metrics(&self) -> Arc<MonitorMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Number of worker threads (after
    /// [`PoolConfig::validated`] normalization) — the shard space
    /// [`open_stream_on`](MonitorPool::open_stream_on) indexes into.
    pub fn workers(&self) -> usize {
        self.shared.len()
    }

    /// Collects the reports of every stream finished since the last
    /// drain, across all workers, sorted by stream id. Reports drained
    /// here do **not** reappear in the final
    /// [`shutdown`](MonitorPool::shutdown) report — this is the live
    /// egress path: `tempo-serve` polls it to stream verdicts back to
    /// clients while the pool keeps running.
    pub fn drain_finished(&self) -> Vec<StreamReport> {
        let mut out: Vec<StreamReport> = Vec::new();
        for ws in &self.shared {
            out.append(&mut ws.outbox.lock().expect("pool outbox mutex poisoned"));
        }
        out.sort_by_key(|r| r.stream);
        out
    }

    /// Signals every worker to stop (after draining its rings) without
    /// waiting for them. Idempotent: any number of calls, from any
    /// thread holding the pool, collapse into one shutdown; in-flight
    /// [`StreamHandle::send`]/[`send_batch`](StreamHandle::send_batch)
    /// calls racing the signal either deliver normally or return
    /// [`StreamOverflow`] — they never block forever on a worker that
    /// will not drain again. [`shutdown`](MonitorPool::shutdown) calls
    /// this itself.
    pub fn begin_shutdown(&self) {
        for ws in &self.shared {
            ws.shutdown.store(true, Ordering::SeqCst);
            ws.wake();
        }
    }

    /// Hot-swaps every live stream (and all future streams) onto a new
    /// condition set, without dropping an event.
    ///
    /// Each worker, at its next loop iteration, swaps each of its
    /// stream monitors via [`Monitor::swap_compiled`]: conditions are
    /// matched across revisions **by name**, open obligations of
    /// preserved conditions carry forward with their absolute deadlines
    /// unchanged (the new bounds govern triggers that fire after the
    /// swap), and obligations of dropped conditions are closed and
    /// returned in the [`ReloadReport`]. Queued events are untouched —
    /// they sit in the stream rings and are processed under the new set
    /// once the swap lands, so nothing is lost; the reload pause per
    /// worker is bounded by the drain batch it was already processing.
    ///
    /// Blocks until every worker has acknowledged, so a stream opened
    /// after `reload` returns is monitored under the new set.
    pub fn reload(&mut self, conds: &[TimingCondition<S, A>]) -> ReloadReport
    where
        A: fmt::Debug,
    {
        self.reload_compiled(Arc::new(CompiledConditionSet::new(conds)))
    }

    /// [`reload`](MonitorPool::reload) with an already-compiled
    /// (possibly shared) set.
    pub fn reload_compiled(&mut self, set: Arc<CompiledConditionSet<S, A>>) -> ReloadReport {
        let gather = Arc::new(ReloadGather {
            state: Mutex::new(ReloadGatherState {
                pending: self.shared.len(),
                streams: 0,
                carried: 0,
                dropped: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        for ws in &self.shared {
            // `reload` takes `&mut self` and blocks until every worker
            // acknowledges, so the slot is always empty here: a command
            // can never overwrite an unprocessed one.
            *ws.reload.lock().expect("pool reload mutex poisoned") = Some(ReloadCmd {
                set: Arc::clone(&set),
                gather: Arc::clone(&gather),
            });
            ws.reload_pending.store(true, Ordering::Release);
            ws.wake();
        }
        let mut st = gather
            .state
            .lock()
            .expect("pool reload gather mutex poisoned");
        while st.pending > 0 {
            st = gather
                .cv
                .wait(st)
                .expect("pool reload gather mutex poisoned");
        }
        ReloadReport {
            workers: self.shared.len(),
            streams: st.streams,
            carried: st.carried,
            dropped: std::mem::take(&mut st.dropped),
        }
    }

    /// [`reload`](MonitorPool::reload) from a compiled `.tspec`
    /// revision (see [`SpecRevision`]): the spec hot-reload entry
    /// point. The revision's set is shared, not recompiled.
    pub fn reload_spec(&mut self, rev: &SpecRevision<S, A>) -> ReloadReport {
        self.reload_compiled(Arc::clone(rev.compiled()))
    }

    /// Stops the workers (after they drain their rings) and collects
    /// every stream's report. Streams never explicitly finished are
    /// finalized here. Streams whose reports were already taken by
    /// [`drain_finished`](MonitorPool::drain_finished) are not repeated.
    pub fn shutdown(self) -> PoolReport {
        self.begin_shutdown();
        for worker in self.workers {
            worker.join().expect("monitor worker panicked");
        }
        let mut streams: Vec<StreamReport> = Vec::new();
        for ws in &self.shared {
            streams.append(&mut ws.outbox.lock().expect("pool outbox mutex poisoned"));
        }
        streams.sort_by_key(|r| r.stream);
        PoolReport {
            streams,
            metrics: self.metrics.snapshot(),
        }
    }
}

/// One adopted stream inside a worker: the consumer half of its ring and
/// its monitor.
struct Conn<S, A> {
    stream: u64,
    rx: Consumer<Event<S, A>>,
    ctl: Arc<ConnCtl>,
    lag: Arc<StreamLag>,
    mon: Monitor<S, A>,
}

impl<S: Clone, A: Clone + Eq + Hash> Conn<S, A> {
    /// Feeds one batched claim of up to `batch` queued events through
    /// the monitor — or, when `to_empty`, claims until the ring is empty.
    fn drain(&mut self, scratch: &mut Vec<Event<S, A>>, batch: usize, to_empty: bool) {
        loop {
            scratch.clear();
            let n = self.rx.pop_many(batch, scratch);
            if n == 0 {
                return;
            }
            for ev in scratch.drain(..) {
                self.mon.observe(&ev.action, Rat::from(ev.time), &ev.state);
            }
            self.lag.record_drained_many(n as u64);
            if !to_empty {
                return;
            }
        }
    }
}

/// A worker's adopted streams, indexed by the slot their producers push
/// onto the ready list. Freed slots are reused, so the slab is sized by
/// the peak number of live streams, not by the lifetime count.
struct Slab<S, A> {
    conns: Vec<Option<Conn<S, A>>>,
    free: Vec<usize>,
}

impl<S, A> Slab<S, A> {
    /// Stores `conn` in a free slot and publishes the slot to its
    /// producer through `ConnCtl::slot` (made visible by the worker's
    /// first release clear of `queued`).
    fn insert(&mut self, conn: Conn<S, A>) -> usize {
        let slot = self.free.pop().unwrap_or(self.conns.len());
        conn.ctl.slot.store(slot, Ordering::Relaxed);
        if slot == self.conns.len() {
            self.conns.push(Some(conn));
        } else {
            self.conns[slot] = Some(conn);
        }
        slot
    }

    /// The stream at a ready slot. A slot is on the ready lists at most
    /// once, and is freed only by the visit that holds it, so a ready
    /// slot always holds its stream.
    fn get(&mut self, slot: usize) -> &mut Conn<S, A> {
        self.conns[slot]
            .as_mut()
            .expect("ready slot holds no stream")
    }

    fn remove(&mut self, slot: usize) -> Option<Conn<S, A>> {
        let conn = self.conns[slot].take()?;
        self.free.push(slot);
        Some(conn)
    }
}

/// `true` while the worker has visible work: new streams to adopt, a
/// reload or shutdown to honour, or ready streams. This is the O(1)
/// recheck an idle worker runs between advertising itself sleeping and
/// parking; its own FIFO is empty whenever it gets here.
fn has_pending<S, A>(shared: &WorkerShared<S, A>) -> bool {
    shared.dirty.load(Ordering::Acquire)
        || shared.reload_pending.load(Ordering::Acquire)
        || shared.shutdown.load(Ordering::Acquire)
        || shared.ready_pending.load(Ordering::Acquire)
}

fn worker_loop<S: Clone, A: Clone + Eq + Hash>(
    shared: &WorkerShared<S, A>,
    set: &Arc<CompiledConditionSet<S, A>>,
    shard: &Arc<MetricsShard>,
    mode: SatisfactionMode,
    horizon: Option<Rat>,
    drain_batch: usize,
    backend: BackendChoice,
) {
    shared
        .thread
        .set(thread::current())
        .expect("worker thread registered twice");
    // The worker's current condition set: starts as the pool's, replaced
    // in place by hot reload.
    let mut set = Arc::clone(set);
    let mut slab: Slab<S, A> = Slab {
        conns: Vec::new(),
        free: Vec::new(),
    };
    // Ready slots in visiting order, and the buffer swapped with the
    // shared ready list (so taking it allocates nothing).
    let mut fifo: VecDeque<usize> = VecDeque::new();
    let mut taken: Vec<usize> = Vec::new();
    let mut scratch: Vec<Event<S, A>> = Vec::with_capacity(drain_batch);
    // Filed reports go straight to the shared outbox, so a live pool
    // can hand them out (`drain_finished`) without waiting for shutdown.
    // `finished` is the flag as loaded before the final drain.
    let file = |conn: Conn<S, A>, finished: bool| {
        let failed = finished && conn.ctl.failed.load(Ordering::Relaxed);
        let events = conn.mon.events_seen();
        let (violations, warnings, forced) = conn.mon.finish_full(mode);
        shared
            .outbox
            .lock()
            .expect("pool outbox mutex poisoned")
            .push(StreamReport {
                stream: conn.stream,
                events,
                violations,
                warnings,
                forced,
                failed,
            });
    };
    // Adopts freshly opened streams into the slab and queues each one:
    // its `queued` flag starts set, so this visit covers whatever was
    // published before adoption.
    let adopt = |set: &Arc<CompiledConditionSet<S, A>>,
                 slab: &mut Slab<S, A>,
                 fifo: &mut VecDeque<usize>|
     -> bool {
        // Load before swapping: the common pass finds nothing and then
        // costs no read-modify-write.
        if !shared.dirty.load(Ordering::Relaxed) || !shared.dirty.swap(false, Ordering::Acquire) {
            return false;
        }
        let adopted = std::mem::take(
            &mut *shared
                .injector
                .lock()
                .expect("pool injector mutex poisoned"),
        );
        let any = !adopted.is_empty();
        for nc in adopted {
            let mut mon = Monitor::from_compiled_with(Arc::clone(set), &nc.start, backend)
                .with_metrics_shard(Arc::clone(shard));
            if let Some(h) = horizon {
                mon = mon.with_predictor(h);
            }
            fifo.push_back(slab.insert(Conn {
                stream: nc.stream,
                rx: nc.rx,
                ctl: nc.ctl,
                lag: nc.lag,
                mon,
            }));
        }
        any
    };
    let mut spins = 0u32;
    loop {
        let mut did_work = adopt(&set, &mut slab, &mut fifo);
        // Apply a pending hot reload: one of the two sweeps over every
        // live stream. Ring contents are untouched — queued events are
        // simply processed under the new set from here on; streams
        // adopted on later iterations are built from the new set
        // directly.
        if shared.reload_pending.load(Ordering::Relaxed)
            && shared.reload_pending.swap(false, Ordering::Acquire)
        {
            // Streams injected before the reload command must be
            // swapped (and counted) with everything else, but this
            // iteration's adoption pass may have read `dirty` before
            // the injector push became visible — the acquire above
            // makes it visible, so adopt once more before swapping.
            adopt(&set, &mut slab, &mut fifo);
            let cmd = shared
                .reload
                .lock()
                .expect("pool reload mutex poisoned")
                .take()
                .expect("reload flag set without a command");
            // Conditions are matched across revisions by name; all of
            // this worker's monitors share one old set, so the map is
            // computed once.
            let map: Vec<Option<usize>> = (0..set.len())
                .map(|ci| cmd.set.index_of(set.name(ci)))
                .collect();
            let mut streams = 0usize;
            let mut carried = 0usize;
            let mut dropped = Vec::new();
            for conn in slab.conns.iter_mut().flatten() {
                let rep = conn.mon.swap_compiled(Arc::clone(&cmd.set), &map);
                streams += 1;
                carried += rep.carried;
                dropped.extend(
                    rep.dropped
                        .into_iter()
                        .map(|(name, ob)| (conn.stream, name, ob)),
                );
            }
            set = cmd.set;
            let mut st = cmd
                .gather
                .state
                .lock()
                .expect("pool reload gather mutex poisoned");
            st.streams += streams;
            st.carried += carried;
            st.dropped.extend(dropped);
            st.pending -= 1;
            cmd.gather.cv.notify_all();
            did_work = true;
        }
        // Shutdown, the other sweep: every stream, ready or idle, is
        // drained to empty and filed. Ready-list entries are moot from
        // here on; streams opened racing the shutdown are adopted and
        // filed on the next pass.
        if shared.shutdown.load(Ordering::Acquire) {
            for slot in 0..slab.conns.len() {
                if let Some(mut conn) = slab.remove(slot) {
                    let finished = conn.ctl.finished.load(Ordering::Acquire);
                    conn.drain(&mut scratch, drain_batch, true);
                    file(conn, finished);
                }
            }
            fifo.clear();
            if !shared.dirty.load(Ordering::Acquire) {
                return;
            }
            continue;
        }
        // Take the shared ready list. The flag is cleared first, so a
        // push that lands after the swap below raises it again.
        if shared.ready_pending.load(Ordering::Relaxed)
            && shared.ready_pending.swap(false, Ordering::Acquire)
        {
            std::mem::swap(
                &mut *shared.ready.lock().expect("pool ready-list mutex poisoned"),
                &mut taken,
            );
            fifo.extend(taken.drain(..));
        }
        // One round over the ready streams: a batched drain each, so no
        // stream starves another. A stream that still has events goes
        // back to the tail. A finished stream is drained to empty and
        // filed — the acquire on `finished` guarantees every published
        // event is visible, so "empty after the flag" means complete.
        for _ in 0..fifo.len() {
            let Some(slot) = fifo.pop_front() else { break };
            did_work = true;
            let conn = slab.get(slot);
            let finished = conn.ctl.finished.load(Ordering::Acquire);
            conn.drain(&mut scratch, drain_batch, finished);
            if finished {
                let conn = slab.remove(slot).expect("ready slot holds no stream");
                file(conn, true);
            } else if !conn.rx.is_empty() {
                fifo.push_back(slot);
            } else {
                // Idle: clear the flag, fence, re-check. The fence pairs
                // with the producer's in `mark_ready`: either this
                // re-check sees its publish (or finish), or the producer
                // reads the cleared flag and queues the stream itself.
                conn.ctl.queued.store(false, Ordering::Release);
                fence(Ordering::SeqCst);
                if (!conn.rx.is_empty() || conn.ctl.finished.load(Ordering::Acquire))
                    && !conn.ctl.queued.swap(true, Ordering::AcqRel)
                {
                    fifo.push_back(slot);
                }
            }
        }
        if did_work {
            spins = 0;
            continue;
        }
        // Idle: spin briefly, then advertise, fence, re-check, park.
        spins += 1;
        if spins < WORKER_SPIN {
            std::hint::spin_loop();
            continue;
        }
        shared.sleeping.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        if has_pending(shared) {
            shared.sleeping.store(false, Ordering::Relaxed);
            spins = 0;
            continue;
        }
        thread::park_timeout(WORKER_PARK);
        shared.sleeping.store(false, Ordering::Relaxed);
        spins = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_math::Interval;

    fn cond() -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(2), Rat::from(10)).unwrap())
            .triggered_at_start(|s| *s == 0)
            .on_actions(|a| *a == "fire")
    }

    #[test]
    fn pool_monitors_many_streams() {
        let mut pool = MonitorPool::new(&[cond()], PoolConfig::default());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let mut h = pool.open_stream(0u8);
            // Odd streams violate the lower bound (fire at t=1 < 2).
            let t = if i % 2 == 1 { 1 } else { 3 };
            h.send("fire", Rat::from(t), 1).unwrap();
            handles.push(h);
        }
        drop(handles); // implicit finish
        let report = pool.shutdown();
        assert_eq!(report.streams.len(), 8);
        assert!(!report.passed());
        let bad: Vec<u64> = report.violations().iter().map(|(s, _)| *s).collect();
        assert_eq!(bad, vec![1, 3, 5, 7]);
        assert_eq!(report.metrics.events, 8);
    }

    #[test]
    fn drop_oldest_policy_sheds_events() {
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 2,
            policy: OverloadPolicy::DropOldest,
            mode: SatisfactionMode::Prefix,
            ..PoolConfig::default()
        };
        // A condition that never triggers: the worker just drains.
        let never: TimingCondition<u8, &'static str> =
            TimingCondition::new("N", Interval::closed(Rat::ZERO, Rat::from(1)).unwrap());
        let mut pool = MonitorPool::new(&[never], config);
        let mut h = pool.open_stream(0u8);
        for t in 0..64 {
            h.send("x", Rat::from(t), 0).unwrap();
        }
        h.finish();
        let report = pool.shutdown();
        assert!(report.passed());
        // Lag accounting is exact even when events were shed.
        assert_eq!(report.metrics.streams[0].enqueued, 64);
        assert_eq!(report.metrics.streams[0].lag, 0);
    }

    #[test]
    fn fail_stream_policy_errors_and_reports() {
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::FailStream,
            mode: SatisfactionMode::Prefix,
            ..PoolConfig::default()
        };
        let never: TimingCondition<u8, &'static str> =
            TimingCondition::new("N", Interval::closed(Rat::ZERO, Rat::from(1)).unwrap());
        let mut pool = MonitorPool::new(&[never], config);
        let mut h = pool.open_stream(0u8);
        // Keep pushing until the bounded queue refuses one.
        let mut failed = false;
        for t in 0..100_000 {
            if h.send("x", Rat::from(t), 0).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "a capacity-1 queue must eventually refuse");
        // Once failed, every send errors.
        assert!(h.send("x", Rat::from(100_000), 0).is_err());
        h.finish();
        let report = pool.shutdown();
        assert!(report.streams[0].failed);
        assert!(!report.passed());
        assert_eq!(report.metrics.failed_streams, 1);
    }

    #[test]
    fn max_queue_depth_is_observed() {
        let mut pool = MonitorPool::new(&[cond()], PoolConfig::default());
        let mut h = pool.open_stream(0u8);
        for t in 0..32 {
            h.send("noise", Rat::from(t), 1).unwrap();
        }
        h.finish();
        let report = pool.shutdown();
        assert!(report.metrics.max_queue_depth >= 1);
        assert_eq!(report.streams[0].events, 32);
    }

    #[test]
    fn pool_horizon_attaches_predictors_per_stream() {
        let config = PoolConfig {
            horizon: Some(Rat::from(3)),
            ..PoolConfig::default()
        };
        // A step-triggered condition with a wide lower-bound window, so
        // a trigger also opens a forced window (the `Ft(U)` side).
        let guarded: TimingCondition<u8, &'static str> =
            TimingCondition::new("G", Interval::closed(Rat::from(10), Rat::from(30)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "serve");
        let mut pool = MonitorPool::new(&[cond(), guarded], config);
        // Stream 0 serves its deadline inside the warning window (near
        // miss), then triggers G, opening a forced window; stream 1
        // lets its deadline lapse (warning, then violation).
        let mut near = pool.open_stream(0u8);
        near.send("fire", Rat::from(9), 1).unwrap();
        near.send("go", Rat::from(15), 1).unwrap();
        near.finish();
        let mut late = pool.open_stream(0u8);
        late.send("noise", Rat::from(20), 1).unwrap();
        late.finish();
        let report = pool.shutdown();
        assert_eq!(report.streams[0].warnings.len(), 1);
        assert!(report.streams[0].violations.is_empty());
        assert_eq!(report.streams[0].forced.len(), 1);
        assert_eq!(report.streams[0].forced[0].earliest, Rat::from(25));
        assert_eq!(report.streams[1].warnings.len(), 1);
        assert_eq!(report.streams[1].violations.len(), 1);
        assert!(report.streams[1].forced.is_empty());
        assert_eq!(report.warnings().len(), 2);
        assert_eq!(report.forced().len(), 1);
        assert_eq!(report.metrics.warnings, 2);
        assert_eq!(report.metrics.forced, 1);
        // Warnings and forced windows do not fail a stream, but the
        // violation does.
        assert!(!report.passed());
    }

    #[test]
    fn send_batch_delivers_in_order_and_counts_batches() {
        let config = PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        };
        let mut pool = MonitorPool::new(&[cond()], config);
        let metrics = pool.metrics();
        let mut h = pool.open_stream(0u8);
        h.send_batch((0..6).map(|t| ("noise", Rat::from(t), 1u8)))
            .unwrap();
        h.send_batch(std::iter::empty()).unwrap();
        h.send("fire", Rat::from(7), 1).unwrap();
        h.finish();
        let report = pool.shutdown();
        assert!(report.passed());
        assert_eq!(report.streams[0].events, 7);
        let s = metrics.snapshot();
        assert_eq!(s.batches, 1); // the empty batch is not counted
        assert_eq!(s.batched_events, 6);
        assert_eq!(s.max_batch, 6);
        assert_eq!(s.streams[0].enqueued, 7);
    }

    #[test]
    fn send_batch_respects_drop_oldest_and_fail_stream() {
        // DropOldest: a batch larger than the queue sheds events but
        // keeps exact lag accounting.
        let never: TimingCondition<u8, &'static str> =
            TimingCondition::new("N", Interval::closed(Rat::ZERO, Rat::from(1)).unwrap());
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 2,
            policy: OverloadPolicy::DropOldest,
            mode: SatisfactionMode::Prefix,
            ..PoolConfig::default()
        };
        let mut pool = MonitorPool::new(std::slice::from_ref(&never), config);
        let mut h = pool.open_stream(0u8);
        h.send_batch((0..64).map(|t| ("x", Rat::from(t), 0u8)))
            .unwrap();
        h.finish();
        let report = pool.shutdown();
        assert!(report.passed());
        assert_eq!(report.metrics.streams[0].enqueued, 64);
        assert_eq!(report.metrics.streams[0].lag, 0);

        // FailStream: an oversized batch delivers its fitting prefix,
        // then fails the stream.
        let config = PoolConfig {
            workers: 1,
            queue_capacity: 1,
            policy: OverloadPolicy::FailStream,
            mode: SatisfactionMode::Prefix,
            ..PoolConfig::default()
        };
        let mut pool = MonitorPool::new(&[never], config);
        let mut h = pool.open_stream(0u8);
        let mut failed = false;
        for round in 0..100_000i64 {
            let base = round * 8;
            if h.send_batch((base..base + 8).map(|t| ("x", Rat::from(t), 0u8)))
                .is_err()
            {
                failed = true;
                break;
            }
        }
        assert!(failed, "a capacity-1 queue must eventually refuse a batch");
        assert!(h.send("x", Rat::from(1_000_000), 0).is_err());
        h.finish();
        let report = pool.shutdown();
        assert!(report.streams[0].failed);
        assert_eq!(report.metrics.failed_streams, 1);
    }

    #[test]
    fn reload_swaps_live_streams_and_carries_obligations() {
        let config = PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        };
        // `cond()` opens a deadline at t=0 (start trigger in state 0).
        let mut pool = MonitorPool::new(&[cond()], config);
        let mut h0 = pool.open_stream(0u8);
        let mut h1 = pool.open_stream(0u8);
        h0.send("noise", Rat::from(1), 1).unwrap();
        h1.send("noise", Rat::from(1), 1).unwrap();

        // The new revision keeps C (so its open deadline at 10 carries,
        // absolute) and drops nothing; it also adds a condition D that
        // triggers on "late" with a tight bound.
        let d: TimingCondition<u8, &'static str> =
            TimingCondition::new("D", Interval::closed(Rat::ZERO, Rat::ONE).unwrap())
                .triggered_by_step(|_, a, _| *a == "late")
                .on_actions(|a| *a == "serve");
        let report = pool.reload(&[cond(), d]);
        assert_eq!(report.workers, 2);
        assert_eq!(report.streams, 2);
        // One Upper obligation per stream carried (lower window at 2 is
        // also still open at t=1, so two obligations per stream).
        assert_eq!(report.carried, 4);
        assert!(report.dropped.is_empty());

        // Stream 0 serves the carried deadline in time; stream 1 lets
        // it lapse — under the *old* absolute deadline of 10.
        h0.send("fire", Rat::from(9), 1).unwrap();
        h1.send("noise", Rat::from(11), 1).unwrap();
        // The new condition D is live post-swap on both streams.
        h0.send("late", Rat::from(12), 1).unwrap();
        h0.send("noise", Rat::from(20), 1).unwrap();
        drop(h0);
        drop(h1);
        let report = pool.shutdown();
        let s0 = &report.streams[0];
        let s1 = &report.streams[1];
        assert_eq!(s0.events, 4, "no event was dropped across the swap");
        assert_eq!(s1.events, 2);
        let v0: Vec<&str> = s0.violations.iter().map(|v| v.condition.as_str()).collect();
        assert_eq!(v0, vec!["D"], "the added condition is enforced");
        let v1: Vec<&str> = s1.violations.iter().map(|v| v.condition.as_str()).collect();
        assert_eq!(v1, vec!["C"], "the carried deadline still fires");
    }

    #[test]
    fn reload_drops_removed_conditions_and_reports_them() {
        let config = PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        };
        let mut pool = MonitorPool::new(&[cond()], config);
        let mut h = pool.open_stream(0u8);
        h.send("noise", Rat::from(1), 1).unwrap();
        // Give the worker a moment to drain so the obligations exist
        // worker-side before the swap (reload itself synchronizes).
        let replacement: TimingCondition<u8, &'static str> =
            TimingCondition::new("Z", Interval::closed(Rat::ZERO, Rat::from(99)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "serve");
        let report = pool.reload(&[replacement]);
        assert_eq!(report.streams, 1);
        assert_eq!(report.carried, 0);
        assert_eq!(report.dropped.len(), 2, "lower window + deadline of C");
        assert!(report
            .dropped
            .iter()
            .all(|(s, name, _)| *s == 0 && name == "C"));
        // C is gone: sailing past its old deadline violates nothing.
        h.send("noise", Rat::from(50), 1).unwrap();
        h.finish();
        assert!(pool.shutdown().passed());
    }

    #[test]
    fn a_ring_slot_of_an_id_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Mutex<Option<Event<u32, u32>>>>(), 32);
    }

    /// A time outside `PackedRat`'s range makes `send` and `send_batch`
    /// panic before they publish anything: the handle keeps working, no
    /// ring slot is left poisoned (a worker taking one would panic and
    /// fail the shutdown), and every report equals the offline fold of
    /// the events that were accepted.
    #[test]
    fn out_of_range_time_panics_before_publishing() {
        let conds = [cond()];
        let config = PoolConfig {
            workers: 2,
            queue_capacity: 4,
            ..PoolConfig::default()
        };
        let mut pool = MonitorPool::new(&conds, config);
        let huge = Rat::from(i128::from(i64::MAX) + 1);
        let mut handles: Vec<_> = (0..4).map(|_| pool.open_stream(0u8)).collect();
        let mut logs = vec![Vec::new(); handles.len()];
        for t in 0..16i64 {
            for (i, (h, log)) in handles.iter_mut().zip(&mut logs).enumerate() {
                // Stream `i` answers its start obligation at time `i + 1`,
                // so only stream 0 violates the lower bound of 2.
                let action = if t == i as i64 + 1 { "fire" } else { "noise" };
                h.send(action, Rat::from(t), 1).unwrap();
                log.push((action, Rat::from(t), 1u8));
            }
            if t == 6 {
                let single = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handles[0].send("fire", huge, 1)
                }));
                let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handles[1].send_batch([("fire", Rat::from(t), 1u8), ("noise", huge, 1)])
                }));
                for outcome in [single, batch] {
                    let payload = outcome.expect_err("an out-of-range time panics");
                    let text = payload.downcast::<String>().expect("a formatted message");
                    assert!(
                        text.contains("event time outside the packed i64/u64 range"),
                        "{text}"
                    );
                }
            }
        }
        drop(handles);
        let report = pool.shutdown();
        let set = CompiledConditionSet::new(&conds);
        assert_eq!(report.streams.len(), logs.len());
        for (r, log) in report.streams.iter().zip(&logs) {
            assert_eq!(r.events, log.len(), "stream {}", r.stream);
            let mut seq = tempo_core::TimedSequence::new(0u8);
            for &(a, t, s) in log {
                seq.push(a, t, s);
            }
            assert_eq!(
                r.violations,
                set.fold_sequence(&seq, SatisfactionMode::Prefix),
                "stream {}",
                r.stream
            );
        }
        assert_eq!(report.metrics.events, 64);
        assert_eq!(report.violations().len(), 1);
    }

    #[test]
    fn pool_config_validated_states_the_clamping_contract() {
        let cfg = PoolConfig {
            workers: 0,
            queue_capacity: 0,
            drain_batch: 0,
            ..PoolConfig::default()
        }
        .validated();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.drain_batch, 1);
        // Capacities round up to the ring's power-of-two slot count.
        let cfg = PoolConfig {
            queue_capacity: 100,
            ..PoolConfig::default()
        }
        .validated();
        assert_eq!(cfg.queue_capacity, 128);
        // Already-normalized configs pass through unchanged.
        let cfg = PoolConfig::default().validated();
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_capacity, 1024);
        assert_eq!(cfg.drain_batch, 1024);
        // A zero-sized pool still works end to end.
        let mut pool = MonitorPool::new(
            &[cond()],
            PoolConfig {
                workers: 0,
                queue_capacity: 0,
                drain_batch: 0,
                ..PoolConfig::default()
            },
        );
        let mut h = pool.open_stream(0u8);
        h.send("fire", Rat::from(3), 1).unwrap();
        h.finish();
        assert!(pool.shutdown().passed());
    }
}
