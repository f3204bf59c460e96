//! One loopback pass: a fresh child server and one connection, driven
//! by a sender thread and a concurrent receiver thread sharing the
//! socket (`&TcpStream` is both `Read` and `Write`).
//!
//! The sender owns the traffic schedule; the receiver owns the
//! correctness oracle. For every stream the sender tells the receiver,
//! over a channel, what it sent and when the verdict clock started; the
//! receiver checks each `REPORT2` against that. The main thread reads
//! the child's `/proc` counters at each boundary of the timed window's
//! slices.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tempo_core::engine::CompiledConditionSet;
use tempo_core::{SatisfactionMode, TimedSequence};
use tempo_math::Rat;
use tempo_monitor::StreamReport;
use tempo_serve::wire::{
    apply_names, cap, decode_report2, encode_finish, encode_open, encode_open_caps, encode_reload,
    BatchBuilder, Frame, RecvBuf,
};

use crate::child::{thread_cpu_ns, Child, Launch, Sample};
use crate::report::ms;
use crate::workload::{Model, Rolling, Scale, Step, Traffic, BATCH, SESSION_EVENTS};

/// Every this many streams one is traced and fold-checked.
pub const SAMPLE_EVERY: u64 = 64;
/// Finished-but-unreported streams a rolling workload may have in
/// flight. Finishing 10,000 `flood-late` streams at once overflows the
/// server's 8 MiB per-connection egress cap, which closes the
/// connection.
const FINISH_CAP: usize = 256;
/// Open-loop sessions in flight before the generator stalls (and its
/// lateness shows in the verdict latency): a bound on the generator's
/// memory should the server stop answering.
const OPEN_LOOP_CAP: usize = 1 << 16;
/// A paced sender sends what is due, then sleeps this long.
const PACE_TICK: Duration = Duration::from_micros(200);
/// Frames are written once this many bytes are buffered.
const FLUSH_BYTES: usize = 64 * 1024;
/// Longest the generator waits on the server before calling it stuck.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// The compiled condition set the oracle folds with.
pub type WireSet = CompiledConditionSet<u32, u32>;

/// What one pass runs.
pub struct PassConfig<'a> {
    /// Event model.
    pub model: Model,
    /// Traffic shape.
    pub traffic: Traffic,
    /// First stream id.
    pub base: u64,
    /// Size and warm-up.
    pub scale: Scale,
    /// Timed window.
    pub window: Duration,
    /// How to start the server.
    pub launch: &'a Launch,
    /// `Some` for the traced pass: time the generator's calls, record
    /// spans, and fold-check every [`SAMPLE_EVERY`]-th stream.
    pub oracle: Option<&'a WireSet>,
}

/// One equal slice of the timed window.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    /// Events written in the slice.
    pub events: u64,
    /// Verdict latency of the reports received in the slice, in ms.
    pub latency_ms: Vec<f64>,
    /// Child CPU time in the slice, in ns.
    pub cpu_ns: u64,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Spawn-to-listen time of every server started.
    pub setups: Vec<Duration>,
    /// Streams opened.
    pub attempted: u64,
    /// One line per failure: a lost stream, a failed or wrong report,
    /// an `ERROR` frame, a transport error.
    pub failures: Vec<String>,
    /// Timed window length.
    pub window: Duration,
    /// The window in [`Scale::slices`] equal parts.
    pub slices: Vec<Slice>,
    /// Child CPU per server thread in the window (worker, io, acceptor,
    /// egress), when the child's threads are the expected set.
    pub thread_cpu_ns: Option<[u64; 4]>,
    /// Child `VmRSS` at the start of the window, in KiB.
    pub rss_warm_kb: u64,
    /// Child `VmRSS` at the end of the window, in KiB.
    pub rss_end_kb: u64,
    /// Child `VmHWM` after the drain, in KiB.
    pub hwm_kb: u64,
    /// The child's final pool metrics.
    pub pool: HashMap<String, u64>,
    /// Generator-side counters.
    pub gen: GenStats,
    /// Spans of the traced streams.
    pub spans: Vec<Span>,
    /// Reports whose violations were compared with `fold_sequence`.
    pub oracle_checked: u64,
}

/// Generator-side counters; the `_ns` timers run only when traced.
#[derive(Debug, Default)]
pub struct GenStats {
    /// Events sent.
    pub events_sent: u64,
    /// Events written in each slice of the timed window. Under the
    /// server's blocking overload policy the sender can run ahead of the
    /// checker only by the bounded socket and ring buffers, and the drain
    /// confirms every one. (Counting by report receipt would lag by a
    /// whole stream: the staggered first generation reports short
    /// streams.)
    pub window_events: Vec<u64>,
    /// Bytes written.
    pub bytes_out: u64,
    /// Bytes read.
    pub bytes_in: u64,
    /// Events confirmed by reports.
    pub events_reported: u64,
    /// Reports decoded.
    pub reports: u64,
    /// Sender time building batch frames.
    pub encode_ns: u64,
    /// Sender time inside `write_all`.
    pub blocked_ns: u64,
    /// Sender time from its first frame to its last write.
    pub sender_ns: u64,
    /// Receiver time inside `decode_report2`.
    pub decode_ns: u64,
    /// CPU time of the sender and receiver threads.
    pub cpu_ns: u64,
    /// How late each scheduled send (open-loop sessions, reloads) hit
    /// the socket, in ms.
    pub late_ms: Vec<f64>,
    /// `RELOAD` written to `RELOADED` received, in ms.
    pub reload_rtt_ms: Vec<f64>,
}

/// One traced interval.
#[derive(Debug)]
pub struct Span {
    /// What the interval covers.
    pub name: &'static str,
    /// Unique within the pass.
    pub id: u64,
    /// The enclosing span.
    pub parent: Option<u64>,
    /// The stream id: every span of one stream shares it.
    pub request: u64,
    /// Start, ns after the pass started.
    pub start_ns: u64,
    /// End, ns after the pass started.
    pub end_ns: u64,
}

/// The pass's phase boundaries.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    warm_end: Instant,
    window_end: Instant,
    slices: u32,
}

impl Clock {
    fn in_window(&self, t: Instant) -> bool {
        t >= self.warm_end && t < self.window_end
    }

    fn slice_len(&self) -> Duration {
        (self.window_end - self.warm_end) / self.slices
    }

    /// The slice of the window `t` falls in.
    fn slice(&self, t: Instant) -> Option<usize> {
        self.in_window(t).then(|| {
            let at = (t - self.warm_end).as_nanos() / self.slice_len().as_nanos().max(1);
            (at as usize).min(self.slices as usize - 1)
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// Sender → receiver.
enum Msg {
    /// A stream's `FINISH` is on the wire.
    Finished(Expect),
    /// A `RELOAD` is on the wire.
    Reload { written: Instant },
    /// The sender is done (or gave up).
    Done,
}

/// What the receiver should see for one stream.
struct Expect {
    id: u64,
    events: u32,
    /// Verdict latency starts here: when its `FINISH` was due on a
    /// paced workload, otherwise when it was written.
    t0: Instant,
    written: Instant,
    /// When its `OPEN` was encoded (traced streams only).
    opened: Option<Instant>,
}

/// Bounded count of streams finished but not yet reported.
struct Credits {
    cap: usize,
    used: Mutex<usize>,
    freed: Condvar,
}

impl Credits {
    fn new(cap: usize) -> Credits {
        Credits {
            cap,
            used: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Takes a credit, waiting until `deadline` for one to be free.
    fn take(&self, deadline: Instant) -> bool {
        let mut used = self.used.lock().expect("credits poisoned");
        while *used >= self.cap {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            used = self
                .freed
                .wait_timeout(used, deadline - now)
                .expect("credits poisoned")
                .0;
        }
        *used += 1;
        true
    }

    fn put(&self) {
        let mut used = self.used.lock().expect("credits poisoned");
        *used = used.saturating_sub(1);
        self.freed.notify_one();
    }
}

/// Runs one pass: spawns `scale.setups` servers (keeping the last),
/// drives it for warm-up + window + drain, and stops it.
pub fn run(cfg: &PassConfig<'_>) -> io::Result<Pass> {
    let spec = cfg.model.spec();
    let mut setups = Vec::new();
    let child = loop {
        let child = Child::spawn(cfg.launch, &spec)?;
        setups.push(child.setup);
        if setups.len() >= cfg.scale.setups {
            break child;
        }
        child.stop()?;
    };

    let tcp = TcpStream::connect(child.addr)?;
    tcp.set_nodelay(true)?;
    tcp.set_write_timeout(Some(STALL_LIMIT))?;
    let start = Instant::now();
    let clock = Clock {
        start,
        warm_end: start + cfg.scale.warmup,
        window_end: start + cfg.scale.warmup + cfg.window,
        slices: cfg.scale.slices(cfg.window),
    };
    let credits = Credits::new(match cfg.traffic {
        Traffic::Rolling { .. } => FINISH_CAP,
        Traffic::Open { .. } => OPEN_LOOP_CAP,
    });
    let (tx, rx) = mpsc::channel();

    let (sent, received, samples) = thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut out = Out::new(&tcp, tx, cfg, clock, &spec);
            let began = Instant::now();
            let result = send(cfg, clock, &credits, &mut out).and_then(|()| out.flush());
            out.stats.sender_ns = began.elapsed().as_nanos() as u64;
            out.stats.cpu_ns = thread_cpu_ns();
            let _ = out.tx.send(Msg::Done);
            (result, out.stats, out.attempted)
        });
        let receiver = s.spawn(|| {
            let mut r = Receiver::new(cfg, clock, &credits, rx);
            r.run(&tcp);
            r.out.cpu_ns = thread_cpu_ns();
            r
        });
        // One reading at each slice boundary.
        let samples: io::Result<Vec<Sample>> = (0..=clock.slices)
            .map(|k| {
                let t = clock.warm_end + clock.slice_len() * k;
                thread::sleep(t.saturating_duration_since(Instant::now()));
                child.sample()
            })
            .collect();
        let sent = sender.join().expect("sender panicked");
        let received = receiver.join().expect("receiver panicked");
        (sent, received, samples)
    });
    let samples = samples?;
    let (warm, end) = (&samples[0], &samples[samples.len() - 1]);
    let thread_cpu_ns = child.server_thread_cpu(warm, end);
    let hwm_kb = child.sample()?.hwm_kb;
    drop(tcp);
    let pool = child.stop()?;

    let (send_result, mut gen, attempted) = sent;
    let Receiver {
        out: got,
        mut failures,
        spans,
        ..
    } = received;
    if let Err(e) = send_result {
        failures.push(format!("sender: {e}"));
    }
    for key in ["dropped_events", "failed_streams"] {
        match pool.get(key) {
            Some(0) => {}
            other => failures.push(format!("server pool {key} = {other:?}")),
        }
    }
    gen.bytes_in = got.bytes_in;
    gen.events_reported = got.events_reported;
    gen.reports = got.reports;
    gen.decode_ns = got.decode_ns;
    gen.cpu_ns += got.cpu_ns;
    gen.reload_rtt_ms = got.reload_rtt_ms;
    let slices = got
        .latency_ms
        .into_iter()
        .zip(&gen.window_events)
        .zip(samples.windows(2))
        .map(|((latency_ms, &events), s)| Slice {
            events,
            latency_ms,
            cpu_ns: s[1].cpu_ns().saturating_sub(s[0].cpu_ns()),
        })
        .collect();
    Ok(Pass {
        setups,
        attempted,
        failures,
        window: clock.window_end - clock.warm_end,
        slices,
        thread_cpu_ns,
        rss_warm_kb: warm.rss_kb,
        rss_end_kb: end.rss_kb,
        hwm_kb,
        pool,
        gen,
        spans,
        oracle_checked: got.oracle_checked,
    })
}

/// The sender's traffic schedule.
fn send(
    cfg: &PassConfig<'_>,
    clock: Clock,
    credits: &Credits,
    out: &mut Out<'_>,
) -> io::Result<()> {
    match cfg.traffic {
        Traffic::Rolling {
            slots,
            stream_len,
            per_sec,
        } => {
            let mut roll = Rolling::new(cfg.base, slots, stream_len);
            for id in roll.open_ids().collect::<Vec<_>>() {
                out.open(id);
                out.flush_if_full()?;
            }
            loop {
                let now = Instant::now();
                if now >= clock.window_end {
                    break;
                }
                // On a schedule, send what is due by now; otherwise read
                // the clock only every 256 steps, to spare the data path.
                let due_by_now = per_sec.map(|r| (now - clock.start).as_secs_f64() * r);
                let caught_up =
                    |out: &Out<'_>| due_by_now.is_some_and(|n| out.encoded() as f64 >= n);
                for _ in 0..256 {
                    if caught_up(out) {
                        break;
                    }
                    match roll.step() {
                        Step::Batch { stream, from, to } => out.batch(stream, from, to),
                        Step::Rollover {
                            finished,
                            events,
                            opened,
                        } => {
                            out.acquire(credits)?;
                            // The verdict clock starts when the FINISH was
                            // due, so a stalled generator counts against
                            // the server.
                            let due = per_sec.map(|r| {
                                clock.start + Duration::from_secs_f64(out.encoded() as f64 / r)
                            });
                            out.finish(finished, events, due);
                            out.open(opened);
                        }
                    }
                    out.flush_if_full()?;
                }
                if caught_up(out) {
                    out.flush()?;
                    thread::sleep(PACE_TICK);
                }
            }
            for (id, sent) in roll.open_streams().collect::<Vec<_>>() {
                out.acquire(credits)?;
                out.finish(id, sent, None);
                out.flush_if_full()?;
            }
        }
        Traffic::Open { per_sec } => {
            let period = Duration::from_secs_f64(1.0 / per_sec);
            let every = cfg.scale.reload_every;
            let mut next_reload = clock.start + every;
            let mut next_id = cfg.base;
            let mut i = 0u32;
            loop {
                let now = Instant::now();
                if now >= clock.window_end {
                    break;
                }
                while clock.start + period * i <= now {
                    out.acquire(credits)?;
                    out.session(next_id, Some(clock.start + period * i));
                    next_id += 1;
                    i += 1;
                }
                if now >= next_reload {
                    out.reload(next_reload);
                    next_reload += every;
                }
                out.flush()?;
                let wake = (clock.start + period * i)
                    .min(next_reload)
                    .min(clock.window_end);
                thread::sleep(wake.saturating_duration_since(Instant::now()));
            }
        }
    }
    Ok(())
}

/// The sender's frame buffer and what it owes the receiver.
struct Out<'a> {
    tcp: &'a TcpStream,
    tx: mpsc::Sender<Msg>,
    clock: Clock,
    model: Model,
    spec: &'a str,
    traced: bool,
    buf: Vec<u8>,
    /// Events in `buf`.
    buf_events: u64,
    /// `(stream, events, due)` of the `FINISH` frames in `buf`.
    finishes: Vec<(u64, u32, Option<Instant>)>,
    /// Due times of the `RELOAD` frames in `buf`.
    reloads: Vec<Instant>,
    /// `OPEN` encode times of traced streams.
    opened: HashMap<u64, Instant>,
    binary_negotiated: bool,
    attempted: u64,
    stats: GenStats,
}

impl<'a> Out<'a> {
    fn new(
        tcp: &'a TcpStream,
        tx: mpsc::Sender<Msg>,
        cfg: &PassConfig<'_>,
        clock: Clock,
        spec: &'a str,
    ) -> Out<'a> {
        Out {
            tcp,
            tx,
            clock,
            model: cfg.model,
            spec,
            traced: cfg.oracle.is_some(),
            buf: Vec::with_capacity(2 * FLUSH_BYTES),
            buf_events: 0,
            finishes: Vec::new(),
            reloads: Vec::new(),
            opened: HashMap::new(),
            binary_negotiated: false,
            attempted: 0,
            stats: GenStats {
                window_events: vec![0; clock.slices as usize],
                ..GenStats::default()
            },
        }
    }

    fn open(&mut self, id: u64) {
        // Binary egress is negotiated once, on the connection's first
        // OPEN; later opens ride the granted capability.
        if self.binary_negotiated {
            encode_open(&mut self.buf, id, 0);
        } else {
            encode_open_caps(&mut self.buf, id, 0, cap::BINARY_EGRESS);
            self.binary_negotiated = true;
        }
        self.attempted += 1;
        if self.traced && id.is_multiple_of(SAMPLE_EVERY) {
            self.opened.insert(id, Instant::now());
        }
    }

    fn batch(&mut self, id: u64, from: u32, to: u32) {
        let began = self.traced.then(Instant::now);
        let mut b = BatchBuilder::begin(&mut self.buf, id);
        for i in from..to {
            b.push(self.model.event(id, u64::from(i)));
        }
        b.finish();
        self.buf_events += u64::from(to - from);
        if let Some(t) = began {
            self.stats.encode_ns += t.elapsed().as_nanos() as u64;
        }
    }

    fn finish(&mut self, id: u64, events: u32, due: Option<Instant>) {
        encode_finish(&mut self.buf, id);
        self.finishes.push((id, events, due));
    }

    /// One session: `OPEN`, two batches, `FINISH`.
    fn session(&mut self, id: u64, due: Option<Instant>) {
        self.open(id);
        self.batch(id, 0, BATCH);
        self.batch(id, BATCH, SESSION_EVENTS);
        self.finish(id, SESSION_EVENTS, due);
    }

    fn reload(&mut self, due: Instant) {
        encode_reload(&mut self.buf, self.spec);
        self.reloads.push(due);
    }

    /// Takes a finish credit, flushing first if it has to wait (the
    /// reports that free credits may be for frames still in `buf`).
    fn acquire(&mut self, credits: &Credits) -> io::Result<()> {
        if credits.take(Instant::now()) {
            return Ok(());
        }
        self.flush()?;
        if credits.take(Instant::now() + STALL_LIMIT) {
            Ok(())
        } else {
            Err(io::Error::other("no report for a finished stream in 60 s"))
        }
    }

    fn flush_if_full(&mut self) -> io::Result<()> {
        if self.buf.len() >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Events encoded so far, flushed or not.
    fn encoded(&self) -> u64 {
        self.stats.events_sent + self.buf_events
    }

    /// Writes `buf`, then tells the receiver what went out.
    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let began = Instant::now();
        let mut tcp = self.tcp;
        tcp.write_all(&self.buf)?;
        let written = Instant::now();
        if self.traced {
            self.stats.blocked_ns += (written - began).as_nanos() as u64;
        }
        self.stats.bytes_out += self.buf.len() as u64;
        self.stats.events_sent += self.buf_events;
        if let Some(k) = self.clock.slice(written) {
            self.stats.window_events[k] += self.buf_events;
        }
        self.buf.clear();
        self.buf_events = 0;
        for (id, events, due) in self.finishes.drain(..) {
            if let Some(due) = due {
                self.stats
                    .late_ms
                    .push(ms(written.saturating_duration_since(due)));
            }
            let msg = Msg::Finished(Expect {
                id,
                events,
                t0: due.unwrap_or(written),
                written,
                opened: self.opened.remove(&id),
            });
            self.tx
                .send(msg)
                .map_err(|_| io::Error::other("receiver gone"))?;
        }
        for due in self.reloads.drain(..) {
            self.stats
                .late_ms
                .push(ms(written.saturating_duration_since(due)));
            self.tx
                .send(Msg::Reload { written })
                .map_err(|_| io::Error::other("receiver gone"))?;
        }
        Ok(())
    }
}

/// Receiver-side counters.
#[derive(Default)]
struct Received {
    bytes_in: u64,
    reports: u64,
    events_reported: u64,
    /// Verdict latencies per slice of the window.
    latency_ms: Vec<Vec<f64>>,
    reload_rtt_ms: Vec<f64>,
    decode_ns: u64,
    cpu_ns: u64,
    oracle_checked: u64,
}

/// The receiving half and the correctness oracle.
struct Receiver<'a> {
    model: Model,
    oracle: Option<&'a WireSet>,
    clock: Clock,
    credits: &'a Credits,
    rx: mpsc::Receiver<Msg>,
    expect: HashMap<u64, Expect>,
    reloads: VecDeque<Instant>,
    done: bool,
    names: Vec<Arc<str>>,
    out: Received,
    failures: Vec<String>,
    spans: Vec<Span>,
}

impl<'a> Receiver<'a> {
    fn new(
        cfg: &PassConfig<'a>,
        clock: Clock,
        credits: &'a Credits,
        rx: mpsc::Receiver<Msg>,
    ) -> Receiver<'a> {
        Receiver {
            model: cfg.model,
            oracle: cfg.oracle,
            clock,
            credits,
            rx,
            expect: HashMap::new(),
            reloads: VecDeque::new(),
            done: false,
            names: Vec::new(),
            out: Received {
                latency_ms: vec![Vec::new(); clock.slices as usize],
                ..Received::default()
            },
            failures: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Reads and checks frames until every stream the sender finished
    /// is reported, or the drain limit passes.
    fn run(&mut self, tcp: &TcpStream) {
        let mut tcp = tcp;
        if let Err(e) = tcp.set_read_timeout(Some(Duration::from_millis(50))) {
            self.failures.push(format!("receiver: {e}"));
            return;
        }
        let mut recv = RecvBuf::new(1 << 26);
        let mut scratch = vec![0u8; 64 * 1024];
        let mut drain_deadline = None;
        loop {
            self.pump(None);
            if self.done {
                if self.expect.is_empty() && self.reloads.is_empty() {
                    break;
                }
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + STALL_LIMIT);
                if Instant::now() > deadline {
                    break;
                }
            }
            match tcp.read(&mut scratch) {
                Ok(0) => {
                    self.failures.push("server closed the connection".into());
                    break;
                }
                Ok(n) => {
                    self.out.bytes_in += n as u64;
                    recv.ingest(&scratch[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    self.failures.push(format!("receiver: {e}"));
                    break;
                }
            }
            loop {
                match recv.next_frame() {
                    Ok(Some(frame)) => self.on_frame(frame, Instant::now()),
                    Ok(None) => break,
                    Err(e) => {
                        self.failures.push(format!("undecodable egress: {e}"));
                        if e.is_fatal() {
                            return;
                        }
                    }
                }
            }
        }
        for id in self.expect.keys() {
            self.failures
                .push(format!("stream {id} was never reported"));
        }
        for _ in &self.reloads {
            self.failures.push("a RELOAD was never answered".into());
        }
    }

    /// Applies sender messages: all queued ones, then, while
    /// `until(self)` is false, blocks for more.
    fn pump(&mut self, until: Option<&dyn Fn(&Self) -> bool>) {
        loop {
            let waiting = until.is_some_and(|f| !f(self)) && !self.done;
            let msg = if waiting {
                match self.rx.recv_timeout(STALL_LIMIT) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => return,
                    Err(RecvTimeoutError::Disconnected) => Msg::Done,
                }
            } else {
                match self.rx.try_recv() {
                    Ok(msg) => msg,
                    Err(mpsc::TryRecvError::Empty) => return,
                    Err(mpsc::TryRecvError::Disconnected) => Msg::Done,
                }
            };
            match msg {
                Msg::Finished(e) => {
                    self.expect.insert(e.id, e);
                }
                Msg::Reload { written } => self.reloads.push_back(written),
                Msg::Done => {
                    self.done = true;
                    if !waiting {
                        return;
                    }
                }
            }
        }
    }

    fn on_frame(&mut self, frame: Frame<'_>, now: Instant) {
        match frame {
            Frame::Names(nf) => {
                if let Err(e) = apply_names(&mut self.names, &nf) {
                    self.failures.push(format!("NAMES: {e}"));
                }
            }
            Frame::Report2 { stream, body } => {
                let began = self.oracle.is_some().then(Instant::now);
                match decode_report2(stream, body, &self.names) {
                    Ok(report) => {
                        let decoded = began.map(|t| (t, Instant::now()));
                        if let Some((t, u)) = decoded {
                            self.out.decode_ns += (u - t).as_nanos() as u64;
                        }
                        self.on_report(stream, &report, now, decoded);
                    }
                    Err(e) => self.failures.push(format!("REPORT2 for {stream}: {e}")),
                }
            }
            Frame::Reloaded { .. } => {
                if self.reloads.is_empty() {
                    self.pump(Some(&|r: &Self| !r.reloads.is_empty()));
                }
                match self.reloads.pop_front() {
                    Some(written) => self.out.reload_rtt_ms.push(ms(now - written)),
                    None => self.failures.push("RELOADED without a RELOAD".into()),
                }
            }
            Frame::Error { code, message } => {
                self.failures
                    .push(format!("ERROR frame {code:?}: {message}"));
            }
            other => self
                .failures
                .push(format!("unexpected egress frame {other:?}")),
        }
    }

    fn on_report(
        &mut self,
        stream: u64,
        report: &StreamReport,
        now: Instant,
        decoded: Option<(Instant, Instant)>,
    ) {
        if !self.expect.contains_key(&stream) {
            self.pump(Some(&|r: &Self| r.expect.contains_key(&stream)));
        }
        let Some(exp) = self.expect.remove(&stream) else {
            self.failures.push(format!(
                "report for stream {stream}, which is not awaiting one"
            ));
            return;
        };
        self.credits.put();
        self.out.reports += 1;
        self.out.events_reported += report.events as u64;
        let want = self
            .model
            .expected_violations(stream, u64::from(exp.events));
        if report.failed
            || report.events != exp.events as usize
            || report.violations.len() as u64 != want
        {
            self.failures.push(format!(
                "stream {stream}: {} events, {} violations, failed {}; expected {} events, {want} violations",
                report.events,
                report.violations.len(),
                report.failed,
                exp.events
            ));
        }
        if let Some(k) = self.clock.slice(now) {
            self.out.latency_ms[k].push(ms(now.saturating_duration_since(exp.t0)));
        }
        if let (Some(set), Some(opened)) = (self.oracle, exp.opened) {
            let checked = Instant::now();
            let folded = set.fold_sequence(
                &sequence(&self.model, stream, exp.events),
                SatisfactionMode::Prefix,
            );
            if folded != report.violations {
                self.failures.push(format!(
                    "stream {stream}: verdict differs from fold_sequence"
                ));
            }
            self.out.oracle_checked += 1;
            let root = self.spans.len() as u64;
            let mut span = |name, parent, start, end| {
                let id = self.spans.len() as u64;
                self.spans.push(Span {
                    name,
                    id,
                    parent,
                    request: stream,
                    start_ns: self.clock.ns(start),
                    end_ns: self.clock.ns(end),
                });
            };
            let done = Instant::now();
            span("stream", None, opened, done);
            span("send", Some(root), opened, exp.written);
            span("await_verdict", Some(root), exp.written, now);
            if let Some((t, u)) = decoded {
                span("decode_report", Some(root), t, u);
            }
            span("oracle_fold", Some(root), checked, done);
        }
    }
}

/// The first `events` events of `stream` as a timed sequence from the
/// start state `0`, for the oracle and the ledger's engine layer.
pub fn sequence(model: &Model, stream: u64, events: u32) -> TimedSequence<u32, u32> {
    let mut seq = TimedSequence::new(0u32);
    for i in 0..u64::from(events) {
        let ev = model.event(stream, i);
        seq.push(
            ev.action,
            Rat::new(i128::from(ev.num), i128::from(ev.den)),
            ev.state,
        );
    }
    seq
}

/// Writes `spans` as a JSON array.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            s.name, s.id, s.request, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}
