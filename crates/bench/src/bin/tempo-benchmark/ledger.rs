//! The per-layer cost ledger: the workload's own seeded inputs, in the
//! order the wire carries them, through one more layer per row.
//!
//! * L0 engine — `CompiledConditionSet::fold_sequence`, stream by stream.
//! * L1 monitor — `Monitor::from_compiled` + `observe` + `finish`,
//!   interleaved like the wire.
//! * L2 pool — a `MonitorPool` with the server's `PoolConfig`, fed by
//!   `send_batch_exact`, finished, and drained by a poller thread, the
//!   pool behind a mutex as the server keeps it.
//! * L3 wire — L2 fed from pre-encoded frames through `RecvBuf`, with
//!   every report encoded by `encode_report2`.
//!
//! L1 and L2 read the same 24-byte event records the frames carry and
//! convert each to an `Event` as the wire decoder does, so the L3 − L2
//! difference is framing and egress encoding, not a different memory
//! footprint.
//!
//! L4 is the loopback pass. The difference between adjacent rows is a
//! layer's self cost. Each layer runs [`REPS`] times on the same input
//! and reports its median; a self cost smaller than the run-to-run noise
//! can come out negative.

use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tempo_core::engine::EngineBackend;
use tempo_core::SatisfactionMode;
use tempo_math::Rat;
use tempo_monitor::{Event, Monitor, MonitorPool, PoolConfig, StreamHandle, StreamReport};
use tempo_serve::wire::{
    encode_finish, encode_open, encode_report2, BatchBuilder, Frame, RecvBuf, WireEvent,
};

use crate::child::own_cpu_ns;
use crate::loopback::{sequence, WireSet};
use crate::report::median;
use crate::workload::{Model, Rolling, Step, Traffic, BATCH, SESSION_EVENTS};

/// Timed repetitions per layer.
const REPS: usize = 5;

type Pool = MonitorPool<u32, u32>;
type Handle = StreamHandle<u32, u32>;

/// One ledger row, per event.
#[derive(Clone, Copy, Debug, Default)]
pub struct Row {
    /// Wall time.
    pub wall_ns: f64,
    /// CPU time of every thread of the process. L0 and L1 run on one
    /// thread that never waits, so theirs is their wall time.
    pub cpu_ns: f64,
}

/// The ledger of one workload.
#[derive(Debug)]
pub struct Ledger {
    /// Events fed through each layer.
    pub events: usize,
    /// L0 engine, L1 monitor, L2 pool, L3 wire.
    pub rows: [Row; 4],
    /// Share of L1 monitors with events that ended on the exact backend.
    pub exact_frac: f64,
    /// Mean `open_stream_on` time (with the pool mutex), in ns.
    pub open_ns: f64,
    /// Share of L2 producer wall time inside `send_batch_exact`.
    pub send_frac: f64,
    /// Mean `encode_report2` time per report, in ns.
    pub report2_encode_ns: f64,
    /// Mean `REPORT2` frame size, in bytes.
    pub report2_bytes: f64,
}

/// One input operation, as the wire would carry it.
enum Op {
    Open(u64),
    /// A batch: a range of [`Input::events`].
    Batch(u64, Range<usize>),
    Finish(u64),
}

/// A workload's ledger input, generated once and replayed by every rep.
struct Input {
    ops: Vec<Op>,
    events: Vec<WireEvent>,
    /// Every stream and its length, in open order.
    streams: Vec<(u64, u32)>,
    /// `ops` encoded as ingest frames.
    wire: Vec<u8>,
}

impl Input {
    /// About `budget` events of `traffic`: a rolling workload's round
    /// robin (then every open stream finished), or back-to-back
    /// sessions.
    fn new(model: &Model, traffic: Traffic, base: u64, budget: usize) -> Input {
        let mut input = Input {
            ops: Vec::new(),
            events: Vec::with_capacity(budget + BATCH as usize),
            streams: Vec::new(),
            wire: Vec::new(),
        };
        let batch = |input: &mut Input, id: u64, from: u32, to: u32| {
            let at = input.events.len();
            let mut b = BatchBuilder::begin(&mut input.wire, id);
            for i in from..to {
                let ev = model.event(id, u64::from(i));
                b.push(ev);
                input.events.push(ev);
            }
            b.finish();
            input.ops.push(Op::Batch(id, at..input.events.len()));
        };
        let open = |input: &mut Input, id: u64| {
            encode_open(&mut input.wire, id, 0);
            input.ops.push(Op::Open(id));
        };
        let finish = |input: &mut Input, id: u64, events: u32| {
            encode_finish(&mut input.wire, id);
            input.ops.push(Op::Finish(id));
            input.streams.push((id, events));
        };
        match traffic {
            Traffic::Rolling {
                slots, stream_len, ..
            } => {
                let mut roll = Rolling::new(base, slots, stream_len);
                for id in roll.open_ids() {
                    open(&mut input, id);
                }
                while input.events.len() < budget {
                    match roll.step() {
                        Step::Batch { stream, from, to } => batch(&mut input, stream, from, to),
                        Step::Rollover {
                            finished,
                            events,
                            opened,
                        } => {
                            finish(&mut input, finished, events);
                            open(&mut input, opened);
                        }
                    }
                }
                for (id, sent) in roll.open_streams() {
                    finish(&mut input, id, sent);
                }
            }
            Traffic::Open { .. } => {
                let mut id = base;
                while input.events.len() < budget {
                    open(&mut input, id);
                    batch(&mut input, id, 0, BATCH);
                    batch(&mut input, id, BATCH, SESSION_EVENTS);
                    finish(&mut input, id, SESSION_EVENTS);
                    id += 1;
                }
            }
        }
        input
    }
}

/// Runs L0–L3 on about `budget` events of the workload.
pub fn run(
    set: &Arc<WireSet>,
    pool_config: PoolConfig,
    model: &Model,
    traffic: Traffic,
    base: u64,
    budget: usize,
) -> io::Result<Ledger> {
    let input = Input::new(model, traffic, base, budget);
    let n = input.events.len() as f64;
    let per_event = |d: Duration| d.as_nanos() as f64 / n;
    let single = |wall: Vec<Duration>| {
        let wall_ns = median(wall.into_iter().map(per_event));
        Row {
            wall_ns,
            cpu_ns: wall_ns,
        }
    };

    // Each rep runs every layer once, so a host that slows down part way
    // through slows every layer's reps alike instead of skewing the
    // differences between rows.
    let (mut l0, mut l1, mut l2, mut l3) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut exact_frac = f64::NAN;
    let mut encode = (0u64, 0u64, 0u64);
    for _ in 0..REPS {
        l0.push(engine(set, model, &input));
        let (wall, frac) = monitor(set, &input);
        l1.push(wall);
        exact_frac = frac;
        l2.push(pooled(set, pool_config, &input, false, |pool| {
            drive_pool(pool, &input, false);
        })?);
        let run = pooled(set, pool_config, &input, true, |pool| {
            drive_wire(pool, &input)
        })?;
        encode = run.encoded;
        l3.push(run);
    }
    let row = |runs: &[PoolRun]| Row {
        wall_ns: median(runs.iter().map(|r| per_event(r.wall))),
        cpu_ns: median(runs.iter().map(|r| r.cpu_ns as f64 / n)),
    };
    let rows = [single(l0), single(l1), row(&l2), row(&l3)];

    // One more, instrumented L2 rep for the per-call timings, kept out
    // of the timed reps above.
    let mut detail = Detail::default();
    let run = pooled(set, pool_config, &input, false, |pool| {
        detail = drive_pool(pool, &input, true);
    })?;
    let (encode_ns, bytes, reports) = encode;
    Ok(Ledger {
        events: input.events.len(),
        rows,
        exact_frac,
        open_ns: detail.open_ns as f64 / input.streams.len() as f64,
        send_frac: detail.send_ns as f64 / run.wall.as_nanos() as f64,
        report2_encode_ns: encode_ns as f64 / reports as f64,
        report2_bytes: bytes as f64 / reports as f64,
    })
}

/// L0: `fold_sequence` over each stream, timing only the folds.
fn engine(set: &WireSet, model: &Model, input: &Input) -> Duration {
    let mut wall = Duration::ZERO;
    for &(id, len) in &input.streams {
        let seq = sequence(model, id, len);
        let t = Instant::now();
        black_box(set.fold_sequence(&seq, SatisfactionMode::Prefix));
        wall += t.elapsed();
    }
    wall
}

/// L1: one `Monitor` per open stream, fed in wire order. Returns the
/// wall time and the share of monitors that saw events and ended on the
/// exact backend (a stream finished before its first event never
/// leaves the backend it started on).
fn monitor(set: &Arc<WireSet>, input: &Input) -> (Duration, f64) {
    let mut monitors: HashMap<u64, Monitor<u32, u32>> = HashMap::new();
    let (mut exact, mut observed) = (0usize, 0usize);
    let t = Instant::now();
    for op in &input.ops {
        match op {
            Op::Open(id) => {
                monitors.insert(*id, Monitor::from_compiled(Arc::clone(set), &0));
            }
            Op::Batch(id, range) => {
                let m = monitors.get_mut(id).expect("batch for an open stream");
                for ev in input.events[range.clone()].iter().map(to_event) {
                    black_box(m.observe(&ev.action, ev.time, &ev.state));
                }
            }
            Op::Finish(id) => {
                let m = monitors.remove(id).expect("finish of an open stream");
                if m.events_seen() > 0 {
                    observed += 1;
                    exact += usize::from(m.backend() == EngineBackend::Exact);
                }
                black_box(m.finish(SatisfactionMode::Prefix));
            }
        }
    }
    (t.elapsed(), exact as f64 / observed as f64)
}

/// Per-call timings of the instrumented L2 rep.
#[derive(Default)]
struct Detail {
    open_ns: u64,
    send_ns: u64,
}

/// L2 producer: the ops straight into the pool; `timed` times each
/// open and send.
fn drive_pool(pool: &Mutex<Pool>, input: &Input, timed: bool) -> Detail {
    let mut handles: HashMap<u64, Handle> = HashMap::new();
    let mut detail = Detail::default();
    for op in &input.ops {
        match op {
            Op::Open(id) => {
                let t = timed.then(Instant::now);
                let h = pool.lock().expect("pool poisoned").open_stream_on(0, 0);
                if let Some(t) = t {
                    detail.open_ns += t.elapsed().as_nanos() as u64;
                }
                handles.insert(*id, h);
            }
            Op::Batch(id, range) => {
                let h = handles.get_mut(id).expect("batch for an open stream");
                let t = timed.then(Instant::now);
                h.send_batch_exact(input.events[range.clone()].iter().map(to_event))
                    .expect("a blocking pool never refuses");
                if let Some(t) = t {
                    detail.send_ns += t.elapsed().as_nanos() as u64;
                }
            }
            Op::Finish(id) => {
                handles
                    .remove(id)
                    .expect("finish of an open stream")
                    .finish();
            }
        }
    }
    detail
}

/// A wire record as the pool's event, converted as `EventBatch::events`
/// does.
fn to_event(ev: &WireEvent) -> Event<u32, u32> {
    Event::new(
        ev.action,
        Rat::new(i128::from(ev.num), i128::from(ev.den)),
        ev.state,
    )
}

/// L3 producer: the pre-encoded frames through `RecvBuf` into the pool,
/// 64 KiB at a time like the server's socket reads.
fn drive_wire(pool: &Mutex<Pool>, input: &Input) {
    let mut handles: HashMap<u64, Handle> = HashMap::new();
    let mut recv = RecvBuf::new(1 << 20);
    for chunk in input.wire.chunks(64 * 1024) {
        recv.ingest(chunk);
        while let Some(frame) = recv.next_frame().expect("pre-encoded frames decode") {
            match frame {
                Frame::Open { stream, start, .. } => {
                    let h = pool.lock().expect("pool poisoned").open_stream_on(0, start);
                    handles.insert(stream, h);
                }
                Frame::Batch(batch) => {
                    handles
                        .get_mut(&batch.stream)
                        .expect("batch for an open stream")
                        .send_batch_exact(batch.events())
                        .expect("a blocking pool never refuses");
                }
                Frame::Finish { stream } => {
                    handles
                        .remove(&stream)
                        .expect("finish of an open stream")
                        .finish();
                }
                other => unreachable!("not an ingest frame: {other:?}"),
            }
        }
    }
}

/// What one L2/L3 rep measured.
struct PoolRun {
    wall: Duration,
    cpu_ns: u64,
    /// `(encode ns, bytes, reports)` when reports were encoded.
    encoded: (u64, u64, u64),
}

/// Runs `drive` against a fresh pool while a poller thread drains its
/// reports (encoding each as `REPORT2` when `encode`), until every
/// stream is reported.
fn pooled(
    set: &Arc<WireSet>,
    config: PoolConfig,
    input: &Input,
    encode: bool,
    drive: impl FnOnce(&Mutex<Pool>),
) -> io::Result<PoolRun> {
    let pool = Mutex::new(MonitorPool::from_compiled(Arc::clone(set), config));
    let cpu_before = own_cpu_ns()?;
    let start = Instant::now();
    let run = thread::scope(|s| {
        let poller = s.spawn(|| poll(&pool, input.streams.len(), encode, start));
        drive(&pool);
        poller.join().expect("poller panicked")
    });
    pool.into_inner().expect("pool poisoned").shutdown();
    let mut run = run?;
    run.cpu_ns = run.cpu_ns.saturating_sub(cpu_before);
    Ok(run)
}

/// The poller: `drain_finished` until `streams` reports are in, idling
/// like the server's egress loop. Reads the process CPU clock (into
/// `cpu_ns`, as an absolute reading) before exiting, while the pool
/// worker and this thread still count.
fn poll(pool: &Mutex<Pool>, streams: usize, encode: bool, start: Instant) -> io::Result<PoolRun> {
    let mut reports = 0usize;
    let mut intern = NameIntern::default();
    let mut frame = Vec::new();
    let (mut encode_ns, mut bytes) = (0u64, 0u64);
    while reports < streams {
        let drained: Vec<StreamReport> = pool.lock().expect("pool poisoned").drain_finished();
        if drained.is_empty() {
            thread::sleep(Duration::from_micros(200));
            continue;
        }
        reports += drained.len();
        for report in &drained {
            if encode {
                let t = Instant::now();
                frame.clear();
                encode_report2(&mut frame, report.stream, report, |name| intern.id(name));
                encode_ns += t.elapsed().as_nanos() as u64;
                bytes += frame.len() as u64;
            }
        }
    }
    Ok(PoolRun {
        wall: start.elapsed(),
        cpu_ns: own_cpu_ns()?,
        encoded: (encode_ns, bytes, reports as u64),
    })
}

/// Name ids for `encode_report2`, assigned in first-sight order like the
/// server's interner.
#[derive(Default)]
struct NameIntern(HashMap<String, u32>);

impl NameIntern {
    fn id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.0.get(name) {
            return id;
        }
        let id = self.0.len() as u32;
        self.0.insert(name.to_string(), id);
        id
    }
}
