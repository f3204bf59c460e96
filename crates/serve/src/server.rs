//! The ingest server: non-blocking acceptor, I/O worker threads, and
//! the verdict/metrics egress loop, all over one [`MonitorPool`].
//!
//! # Threading model
//!
//! * **Acceptor** — one thread on a non-blocking listener; accepted
//!   sockets are registered in the connection slab and handed to an I/O
//!   thread round robin.
//! * **I/O threads** — a fixed set (`ServeConfig::io_threads`), each
//!   owning its connections outright: it reads, decodes frames out of
//!   the connection's [`RecvBuf`], and pushes event batches *directly*
//!   into the pool's SPSC rings via the stream's [`StreamHandle`] — the
//!   zero-copy path is socket buffer → [`EventBatch`] iterator → ring
//!   slot, with no intermediate event vector. Each socket has exactly
//!   one writing thread (its I/O thread), which also drains the
//!   connection's egress outbox filled by the egress thread.
//! * **Pool workers** — the [`MonitorPool`]'s own threads, untouched.
//! * **Egress** — one thread polling
//!   [`drain_finished`](MonitorPool::drain_finished) for stream reports
//!   and serving metrics subscriptions from a single reused
//!   [`MetricsSnapshot`] buffer
//!   ([`snapshot_into`](tempo_monitor::MonitorMetrics::snapshot_into)).
//!   Connections that negotiated [`cap::BINARY_EGRESS`] on `OPEN` get
//!   fixed-layout `REPORT2`/`METRICS_SNAP2` frames (names interned
//!   once per connection via `NAMES`) encoded into reused scratch;
//!   everyone else keeps the v1 JSON frames. Either way a metrics
//!   snapshot is encoded at most once per tick per mode and the frozen
//!   bytes are shared across every due subscriber's outbox.
//!
//! # Placement
//!
//! New streams are pinned to pool workers through the consistent-hash
//! [`HashRing`]: [`Server::drain_worker`] /
//! [`Server::restore_worker`] rebalance *future* stream placement with
//! minimal movement, while live streams stay on their worker (the rings
//! are single-consumer).
//!
//! # Backpressure
//!
//! The pool's [`OverloadPolicy`](tempo_monitor::OverloadPolicy) is the
//! backpressure story end to end: `Block` stalls the I/O thread on the
//! stream's full ring (TCP backpressure propagates to the client),
//! `DropOldest` sheds per-stream load invisibly, and `FailStream`
//! surfaces as an [`ErrorCode::Overload`] egress frame, stating how many
//! of the batch's events were accepted, and a closed stream whose report
//! covers the delivered prefix.

use std::collections::HashMap;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::ser::Error as SerError;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value, ValueError};
use tempo_core::serde_util::{FieldMap, MapBuilder};
use tempo_monitor::{
    MetricsSnapshot, MonitorMetrics, MonitorPool, PoolConfig, PoolReport, StreamHandle,
};
use tempo_spec::{Diagnostic, MapBinder, SpecRevision};

use crate::placement::HashRing;
use crate::wire::{
    cap, encode_error, encode_metrics_snap, encode_metrics_snap2, encode_names, encode_reloaded,
    encode_report, encode_report2, ErrorCode, EventBatch, Frame, RecvBuf,
};

/// Monitor state type served over the wire (a state id).
pub type WireState = u32;
/// Monitor action type served over the wire (an action-table index).
pub type WireAction = u32;
/// The pool type the server runs.
pub type WirePool = MonitorPool<WireState, WireAction>;
/// The binder resolving `.tspec` names for the server's pool.
pub type WireBinder = MapBinder<WireState, WireAction>;

/// Server configuration.
pub struct ServeConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free loopback port).
    pub addr: String,
    /// Number of socket I/O threads (clamped to at least 1).
    pub io_threads: usize,
    /// The monitor pool's own sizing/overload configuration.
    pub pool: PoolConfig,
    /// Initial `.tspec` source compiled at startup.
    pub spec_src: String,
    /// Resolves the spec's action (and predicate) names; shared with
    /// every later reload-over-the-wire.
    pub binder: Arc<WireBinder>,
    /// Largest acceptable frame payload (tag + body), in bytes.
    pub max_frame: u32,
    /// Virtual nodes per worker on the placement ring.
    pub vnodes: usize,
    /// Cap on a connection's queued egress bytes (outbox plus
    /// unflushed socket writes). A client that provokes replies or
    /// subscribes to metrics but never reads hits the cap and is
    /// disconnected instead of growing server memory without bound.
    pub max_conn_egress: usize,
}

impl ServeConfig {
    /// A loopback config for `spec_src` whose action names resolve to
    /// their index in `actions` — the common case where the wire's
    /// `u32` action ids are indices into a shared action table.
    pub fn new(spec_src: impl Into<String>, actions: &[&str]) -> ServeConfig {
        let table: Vec<String> = actions.iter().map(|s| s.to_string()).collect();
        let binder = MapBinder::new(move |name: &str| {
            table.iter().position(|a| a == name).map(|i| i as u32)
        });
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            io_threads: 2,
            pool: PoolConfig::default(),
            spec_src: spec_src.into(),
            binder: Arc::new(binder),
            max_frame: 1 << 20,
            vnodes: 64,
            max_conn_egress: 8 << 20,
        }
    }
}

/// Why the server could not start or reload.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The `.tspec` source failed to compile.
    Spec(Vec<Diagnostic>),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Spec(diags) => {
                write!(f, "spec failed to compile:")?;
                for d in diags {
                    write!(f, " [{}] {};", d.code, d.message)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// What a successful reload-over-the-wire did (the [`tag::RELOADED`]
/// payload).
///
/// [`tag::RELOADED`]: crate::wire::tag::RELOADED
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReloadSummary {
    /// The new spec's declared name.
    pub spec: String,
    /// Monotone revision counter (the initial spec is revision 1).
    pub revision: u64,
    /// Worker threads that acknowledged the swap.
    pub workers: usize,
    /// Live streams swapped onto the new set.
    pub streams: usize,
    /// Open obligations carried forward across the swap.
    pub carried: usize,
    /// Obligations dropped because their condition left the spec.
    pub dropped: usize,
    /// Compile warnings that rode along.
    pub warnings: usize,
}

impl Serialize for ReloadSummary {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let encode = || -> Result<Value, ValueError> {
            let mut m = MapBuilder::new();
            m.put("spec", &self.spec)?;
            m.put("revision", &self.revision)?;
            m.put("workers", &self.workers)?;
            m.put("streams", &self.streams)?;
            m.put("carried", &self.carried)?;
            m.put("dropped", &self.dropped)?;
            m.put("warnings", &self.warnings)?;
            Ok(m.finish())
        };
        serializer.serialize_value(encode().map_err(S::Error::custom)?)
    }
}

impl<'de> Deserialize<'de> for ReloadSummary {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<ReloadSummary, D::Error> {
        let mut m =
            FieldMap::<D::Error>::new(deserializer.deserialize_value()?, "a reload summary")?;
        Ok(ReloadSummary {
            spec: m.take("spec")?,
            revision: m.take("revision")?,
            workers: m.take("workers")?,
            streams: m.take("streams")?,
            carried: m.take("carried")?,
            dropped: m.take("dropped")?,
            warnings: m.take("warnings")?,
        })
    }
}

/// Per-connection state shared between its I/O thread and the egress
/// thread.
struct ConnShared {
    /// Egress frames queued by the egress thread; the connection's I/O
    /// thread (the socket's only writer) drains this into the socket.
    outbox: Mutex<Vec<u8>>,
    /// Metrics subscription interval in ms (`0` = none).
    metrics_every_ms: AtomicU32,
    /// When the egress thread last sent this connection a metrics
    /// snapshot. Lives here (not keyed by slab slot) so it dies with
    /// the connection instead of leaking into whichever connection
    /// reuses the slot. Only the egress thread touches it.
    last_snap: Mutex<Option<Instant>>,
    /// Capability bits negotiated on `OPEN` ([`cap`]); each bit can be
    /// granted at most once per connection.
    caps: AtomicU32,
    /// How many interned names this connection has been sent (a prefix
    /// of the server's [`NameIntern`] table). Only the egress thread
    /// advances it, and only after the `NAMES` delta actually shipped.
    names_sent: AtomicU32,
    /// Set when the I/O thread retired the connection.
    closed: AtomicBool,
}

/// A connection handed from the acceptor to an I/O thread.
struct NewConn {
    tcp: TcpStream,
    slot: usize,
    shared: Arc<ConnShared>,
}

/// State fully owned by one I/O thread.
struct ConnState {
    tcp: TcpStream,
    slot: usize,
    shared: Arc<ConnShared>,
    recv: RecvBuf,
    /// Live streams: client id → pool handle.
    streams: HashMap<u64, StreamHandle<WireState, WireAction>>,
    /// Bytes awaiting a writable socket (error replies + drained
    /// outbox).
    write_pending: Vec<u8>,
    dead: bool,
}

/// Server-wide condition/action name interner backing the `NAMES`
/// frame: ids are assigned in first-sight order and never reused, so
/// every connection's name table is a prefix of this one and a `NAMES`
/// delta is always a contiguous suffix.
#[derive(Default)]
struct NameIntern {
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl NameIntern {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        let arc: Arc<str> = Arc::from(name);
        self.ids.insert(Arc::clone(&arc), id);
        self.names.push(arc);
        id
    }
}

/// State shared across all server threads.
struct Shared {
    pool: Mutex<Option<WirePool>>,
    binder: Arc<WireBinder>,
    routes: Mutex<HashMap<u64, Route>>,
    conns: Mutex<Slab>,
    placement: Mutex<HashRing>,
    names: Mutex<NameIntern>,
    metrics: Arc<MonitorMetrics>,
    revision: AtomicU64,
    shutdown: AtomicBool,
    max_frame: u32,
    max_conn_egress: usize,
}

/// Where a pool stream's report should be delivered. Holds the
/// connection identity itself — slab slots are reused, so a slot index
/// could misroute a retired connection's report to whichever new
/// connection inherited the slot.
struct Route {
    conn: Arc<ConnShared>,
    client_stream: u64,
}

/// Connection slab: the egress loop's view of live connections (for
/// metrics subscriptions). Slots are reused, so anything that must
/// survive a connection's retirement holds the `Arc<ConnShared>`
/// itself, never a slot index.
#[derive(Default)]
struct Slab {
    conns: Vec<Option<Arc<ConnShared>>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Arc<ConnShared>) -> usize {
        if let Some(slot) = self.free.pop() {
            self.conns[slot] = Some(conn);
            slot
        } else {
            self.conns.push(Some(conn));
            self.conns.len() - 1
        }
    }

    fn remove(&mut self, slot: usize) {
        if let Some(entry) = self.conns.get_mut(slot) {
            if entry.take().is_some() {
                self.free.push(slot);
            }
        }
    }

    fn get(&self, slot: usize) -> Option<Arc<ConnShared>> {
        self.conns.get(slot).and_then(Clone::clone)
    }
}

/// A running ingest server.
///
/// Dropping the handle does **not** stop the server; call
/// [`shutdown`](Server::shutdown) for the final [`PoolReport`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    io: Vec<JoinHandle<()>>,
    egress: JoinHandle<()>,
}

impl Server {
    /// Compiles the initial spec, binds the listener, and spawns the
    /// acceptor, I/O, and egress threads.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        let rev: SpecRevision<WireState, WireAction> =
            SpecRevision::compile(&config.spec_src, &*config.binder).map_err(ServeError::Spec)?;
        let pool = MonitorPool::from_compiled(Arc::clone(rev.compiled()), config.pool);
        let metrics = pool.metrics();
        let workers = pool.workers();

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            pool: Mutex::new(Some(pool)),
            binder: Arc::clone(&config.binder),
            routes: Mutex::new(HashMap::new()),
            conns: Mutex::new(Slab::default()),
            placement: Mutex::new(HashRing::with_workers(workers, config.vnodes)),
            names: Mutex::new(NameIntern::default()),
            metrics,
            revision: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            max_frame: config.max_frame,
            max_conn_egress: config.max_conn_egress.max(1),
        });

        let io_threads = config.io_threads.max(1);
        let injectors: Vec<Arc<Mutex<Vec<NewConn>>>> = (0..io_threads)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();

        // Spawned in this order after the pool's workers: external
        // tools attribute per-thread CPU by spawn index.
        let io = injectors
            .iter()
            .enumerate()
            .map(|(i, inj)| {
                let shared = Arc::clone(&shared);
                let inj = Arc::clone(inj);
                spawn_named(format!("tempo-io-{i}"), move || io_loop(&shared, &inj))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            spawn_named("tempo-accept".into(), move || {
                accept_loop(&shared, &listener, &injectors)
            })
        };

        let egress = {
            let shared = Arc::clone(&shared);
            spawn_named("tempo-egress".into(), move || egress_loop(&shared))
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor,
            io,
            egress,
        })
    }

    /// The bound address (with the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The pool's live metrics registry.
    pub fn metrics(&self) -> Arc<MonitorMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Takes worker `w` out of future stream placement (live streams
    /// stay). Returns whether the ring changed.
    pub fn drain_worker(&self, w: u32) -> bool {
        let mut ring = self.shared.placement.lock().expect("placement poisoned");
        if !ring.contains(w) || ring.workers() == 1 {
            return false;
        }
        ring.remove_worker(w);
        true
    }

    /// Restores worker `w` into stream placement. Returns whether the
    /// ring changed.
    pub fn restore_worker(&self, w: u32) -> bool {
        let pool_workers = {
            let g = self.shared.pool.lock().expect("pool poisoned");
            g.as_ref().map(MonitorPool::workers).unwrap_or(0)
        };
        if (w as usize) >= pool_workers {
            return false;
        }
        let mut ring = self.shared.placement.lock().expect("placement poisoned");
        if ring.contains(w) {
            return false;
        }
        ring.add_worker(w);
        true
    }

    /// Stops accepting, retires every connection (finishing its live
    /// streams), drains the pool, and returns the final report.
    /// Reports already streamed out by the egress loop are not
    /// repeated.
    pub fn shutdown(self) -> PoolReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.acceptor.join().expect("acceptor thread panicked");
        for th in self.io {
            th.join().expect("io thread panicked");
        }
        self.egress.join().expect("egress thread panicked");
        let pool = self
            .shared
            .pool
            .lock()
            .expect("pool poisoned")
            .take()
            .expect("pool already shut down");
        pool.shutdown()
    }
}

/// Spawns a server thread under `name`, which is what `top -H` and
/// `/proc/<pid>/task/*/comm` show.
fn spawn_named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("failed to spawn a server thread")
}

fn accept_loop(shared: &Shared, listener: &TcpListener, injectors: &[Arc<Mutex<Vec<NewConn>>>]) {
    let mut next = 0usize;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((tcp, _)) => {
                let _ = tcp.set_nodelay(true);
                if tcp.set_nonblocking(true).is_err() {
                    continue;
                }
                let conn = Arc::new(ConnShared {
                    outbox: Mutex::new(Vec::new()),
                    metrics_every_ms: AtomicU32::new(0),
                    last_snap: Mutex::new(None),
                    caps: AtomicU32::new(0),
                    names_sent: AtomicU32::new(0),
                    closed: AtomicBool::new(false),
                });
                let slot = shared
                    .conns
                    .lock()
                    .expect("conn slab poisoned")
                    .insert(Arc::clone(&conn));
                injectors[next % injectors.len()]
                    .lock()
                    .expect("injector poisoned")
                    .push(NewConn {
                        tcp,
                        slot,
                        shared: conn,
                    });
                next += 1;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_micros(200));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn io_loop(shared: &Shared, injector: &Mutex<Vec<NewConn>>) {
    let mut conns: Vec<ConnState> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            // Dropping the handles finishes every live stream; their
            // reports surface via the egress loop or the final
            // `PoolReport`.
            let mut slab = shared.conns.lock().expect("conn slab poisoned");
            for conn in conns.drain(..) {
                conn.shared.closed.store(true, Ordering::SeqCst);
                slab.remove(conn.slot);
            }
            return;
        }

        let mut progressed = false;
        {
            let mut inj = injector.lock().expect("injector poisoned");
            for nc in inj.drain(..) {
                progressed = true;
                conns.push(ConnState {
                    tcp: nc.tcp,
                    slot: nc.slot,
                    shared: nc.shared,
                    recv: RecvBuf::new(shared.max_frame),
                    streams: HashMap::new(),
                    write_pending: Vec::new(),
                    dead: false,
                });
            }
        }

        for conn in &mut conns {
            progressed |= service_conn(shared, conn, &mut scratch);
        }

        let mut removed = false;
        conns.retain(|c| {
            if c.dead {
                c.shared.closed.store(true, Ordering::SeqCst);
                shared
                    .conns
                    .lock()
                    .expect("conn slab poisoned")
                    .remove(c.slot);
                removed = true;
                false
            } else {
                true
            }
        });
        progressed |= removed;

        if !progressed {
            thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Socket reads per connection per [`service_conn`] pass. Bounding the
/// read loop keeps one firehose client from pinning its I/O thread (and
/// growing its `RecvBuf`) while the thread's other connections starve.
const MAX_READS_PER_PASS: usize = 4;

/// Services one connection: read → decode/dispatch → flush. Returns
/// whether any progress was made.
fn service_conn(shared: &Shared, conn: &mut ConnState, scratch: &mut [u8]) -> bool {
    let mut progressed = false;

    let mut reads = 0usize;
    loop {
        // Stop reading once a full frame's worth of bytes is pending:
        // dispatch below is then guaranteed to make progress, and the
        // unread rest waits in the kernel buffer (TCP backpressure).
        if reads == MAX_READS_PER_PASS || conn.recv.pending() > shared.max_frame as usize + 4 {
            break;
        }
        match conn.tcp.read(scratch) {
            Ok(0) => {
                // Mid-frame disconnects leave `recv.pending() > 0`;
                // either way the streams are finished by handle drop.
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.recv.ingest(&scratch[..n]);
                progressed = true;
                reads += 1;
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }

    if !conn.dead {
        progressed |= dispatch_frames(shared, conn);
    }

    // Drain egress frames queued for this connection; this thread is
    // the socket's only writer.
    {
        let mut outbox = conn.shared.outbox.lock().expect("outbox poisoned");
        if !outbox.is_empty() {
            conn.write_pending.append(&mut outbox);
        }
    }
    if !conn.write_pending.is_empty() {
        match write_some(&mut conn.tcp, &mut conn.write_pending) {
            Ok(wrote) => progressed |= wrote,
            Err(_) => conn.dead = true,
        }
    }
    // Slow-consumer guard: a client that accumulates egress (error
    // replies, reports, metrics) faster than it reads is disconnected
    // rather than allowed to grow server memory without bound.
    if !conn.dead && conn.write_pending.len() > shared.max_conn_egress {
        conn.dead = true;
        progressed = true;
    }

    progressed
}

/// Decodes and dispatches every complete frame in the receive buffer.
fn dispatch_frames(shared: &Shared, conn: &mut ConnState) -> bool {
    let mut progressed = false;
    let ConnState {
        recv,
        streams,
        write_pending,
        slot,
        shared: conn_shared,
        dead,
        ..
    } = conn;
    loop {
        match recv.next_frame() {
            Ok(None) => break,
            Ok(Some(frame)) => {
                progressed = true;
                handle_frame(shared, frame, *slot, conn_shared, streams, write_pending);
            }
            Err(e) => {
                progressed = true;
                encode_error(write_pending, e.code(), &e.to_string());
                if e.is_fatal() {
                    *dead = true;
                    break;
                }
                // Non-fatal: the offending frame was consumed; keep
                // decoding so one bad frame never wedges the stream.
            }
        }
    }
    progressed
}

fn handle_frame(
    shared: &Shared,
    frame: Frame<'_>,
    slot: usize,
    conn: &Arc<ConnShared>,
    streams: &mut HashMap<u64, StreamHandle<WireState, WireAction>>,
    reply: &mut Vec<u8>,
) {
    match frame {
        Frame::Open {
            stream,
            start,
            caps,
        } => {
            // Capability bits are negotiable at most once per
            // connection: a second OPEN re-requesting an already
            // granted bit is rejected (the connection survives, the
            // open does not take effect).
            if caps != 0 {
                let before = conn.caps.load(Ordering::SeqCst);
                if before & caps != 0 {
                    encode_error(
                        reply,
                        ErrorCode::Malformed,
                        "binary egress capability already negotiated",
                    );
                    return;
                }
                conn.caps.store(before | caps, Ordering::SeqCst);
            }
            if streams.contains_key(&stream) {
                encode_error(
                    reply,
                    ErrorCode::DuplicateStream,
                    &format!("stream {stream} is already open"),
                );
                return;
            }
            let key = (slot as u64).rotate_left(40) ^ stream;
            let worker = shared
                .placement
                .lock()
                .expect("placement poisoned")
                .worker_for(key);
            let mut guard = shared.pool.lock().expect("pool poisoned");
            let (Some(pool), Some(worker)) = (guard.as_mut(), worker) else {
                encode_error(reply, ErrorCode::ShuttingDown, "server is shutting down");
                return;
            };
            let handle = pool.open_stream_on(worker as usize, start);
            drop(guard);
            shared.routes.lock().expect("routes poisoned").insert(
                handle.id(),
                Route {
                    conn: Arc::clone(conn),
                    client_stream: stream,
                },
            );
            streams.insert(stream, handle);
        }
        Frame::Batch(batch) => {
            let EventBatch { stream, .. } = batch;
            let Some(handle) = streams.get_mut(&stream) else {
                encode_error(
                    reply,
                    ErrorCode::UnknownStream,
                    &format!("stream {stream} is not open"),
                );
                return;
            };
            // The zero-copy hot path: wire records decode straight into
            // ring slots, batch-shaped (one reservation per batch).
            if let Err(e) = handle.send_batch_exact(batch.events()) {
                encode_error(
                    reply,
                    ErrorCode::Overload,
                    &format!(
                        "stream {stream} overflowed its queue after accepting {} events \
                         of the batch; stream closed",
                        e.accepted
                    ),
                );
                // Retire the stream; its report covers the prefix.
                if let Some(h) = streams.remove(&stream) {
                    h.finish();
                }
            }
        }
        Frame::Finish { stream } => {
            let Some(handle) = streams.remove(&stream) else {
                encode_error(
                    reply,
                    ErrorCode::UnknownStream,
                    &format!("stream {stream} is not open"),
                );
                return;
            };
            handle.finish();
        }
        Frame::Reload { src } => match SpecRevision::compile(src, &*shared.binder) {
            Ok(rev) => {
                let mut guard = shared.pool.lock().expect("pool poisoned");
                let Some(pool) = guard.as_mut() else {
                    encode_error(reply, ErrorCode::ShuttingDown, "server is shutting down");
                    return;
                };
                let report = pool.reload_spec(&rev);
                drop(guard);
                let revision = shared.revision.fetch_add(1, Ordering::SeqCst) + 1;
                let summary = ReloadSummary {
                    spec: rev.name().to_string(),
                    revision,
                    workers: report.workers,
                    streams: report.streams,
                    carried: report.carried,
                    dropped: report.dropped.len(),
                    warnings: rev.warnings().len(),
                };
                match serde_json::to_string(&summary) {
                    Ok(json) => encode_reloaded(reply, &json),
                    Err(e) => encode_error(reply, ErrorCode::SpecError, &e.to_string()),
                }
            }
            Err(diags) => {
                let msg = diags
                    .iter()
                    .map(|d| format!("{}: {}", d.code, d.message))
                    .collect::<Vec<_>>()
                    .join("; ");
                encode_error(reply, ErrorCode::SpecError, &msg);
            }
        },
        Frame::Metrics { interval_ms } => {
            let slab = shared.conns.lock().expect("conn slab poisoned");
            if let Some(cs) = slab.get(slot) {
                cs.metrics_every_ms.store(interval_ms, Ordering::SeqCst);
            }
        }
        // Egress frames arriving on the ingest side are a protocol
        // violation by the client; answer like any unknown frame.
        Frame::Report { .. }
        | Frame::MetricsSnap { .. }
        | Frame::Report2 { .. }
        | Frame::MetricsSnap2 { .. }
        | Frame::Names(_)
        | Frame::Reloaded { .. }
        | Frame::Error { .. } => {
            encode_error(
                reply,
                ErrorCode::UnknownTag,
                "egress frame on the ingest path",
            );
        }
    }
}

/// Writes as much of `pending` as the socket accepts. Returns whether
/// any bytes moved.
fn write_some(tcp: &mut TcpStream, pending: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut off = 0usize;
    let result = loop {
        if off == pending.len() {
            break Ok(off > 0);
        }
        match tcp.write(&pending[off..]) {
            Ok(0) => break Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(off > 0),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    pending.drain(..off);
    result
}

fn egress_loop(shared: &Shared) {
    let mut snap = MetricsSnapshot::default();
    // Reused scratch buffers: steady-state egress encodes binary
    // reports, `NAMES` deltas, and per-tick metrics frames without
    // allocating.
    let mut report_scratch: Vec<u8> = Vec::new();
    let mut names_scratch: Vec<u8> = Vec::new();
    let mut json_snap_frame: Vec<u8> = Vec::new();
    let mut bin_snap_frame: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut progressed = false;

        let reports = {
            let guard = shared.pool.lock().expect("pool poisoned");
            match guard.as_ref() {
                Some(pool) => pool.drain_finished(),
                None => return,
            }
        };
        if !reports.is_empty() {
            progressed = true;
            let mut routes = shared.routes.lock().expect("routes poisoned");
            for report in reports {
                let Some(route) = routes.remove(&report.stream) else {
                    continue;
                };
                if route.conn.closed.load(Ordering::SeqCst) {
                    continue;
                }
                if route.conn.caps.load(Ordering::SeqCst) & cap::BINARY_EGRESS != 0 {
                    // Binary path: fixed-layout records into reused
                    // scratch, plus the `NAMES` delta for any ids this
                    // connection has not seen yet.
                    report_scratch.clear();
                    names_scratch.clear();
                    let sent = route.conn.names_sent.load(Ordering::SeqCst) as usize;
                    let total;
                    {
                        let mut intern = shared.names.lock().expect("names poisoned");
                        encode_report2(&mut report_scratch, route.client_stream, &report, |s| {
                            intern.intern(s)
                        });
                        total = intern.names.len();
                        if total > sent {
                            encode_names(
                                &mut names_scratch,
                                sent as u32,
                                intern.names[sent..].iter().map(|n| &**n),
                            );
                        }
                    }
                    let mut outbox = route.conn.outbox.lock().expect("outbox poisoned");
                    if outbox.len() <= shared.max_conn_egress {
                        outbox.extend_from_slice(&names_scratch);
                        outbox.extend_from_slice(&report_scratch);
                        drop(outbox);
                        // The watermark advances only when the bytes
                        // actually shipped: a report skipped at the
                        // outbox cap must not strand ids the client
                        // has never seen.
                        route.conn.names_sent.store(total as u32, Ordering::SeqCst);
                    }
                } else if let Ok(json) = serde_json::to_string(&report) {
                    let mut outbox = route.conn.outbox.lock().expect("outbox poisoned");
                    // A slow consumer's outbox is bounded: once over the
                    // cap the connection is doomed anyway (its I/O
                    // thread closes it on the next drain), so dropping
                    // the report loses nothing observable.
                    if outbox.len() <= shared.max_conn_egress {
                        encode_report(&mut outbox, route.client_stream, &json);
                    }
                }
            }
        }

        // Metrics subscriptions: one merged snapshot per pass, and at
        // most one encoded frame per egress mode per tick — every due
        // subscriber gets the same frozen bytes appended to its outbox
        // instead of a private re-encoding. Due-ness lives on the
        // connection itself (`last_snap`), so a retired connection
        // takes its timestamp with it.
        let now = Instant::now();
        let due: Vec<Arc<ConnShared>> = {
            let slab = shared.conns.lock().expect("conn slab poisoned");
            slab.conns
                .iter()
                .filter_map(Clone::clone)
                .filter(|c| {
                    let every = c.metrics_every_ms.load(Ordering::SeqCst);
                    if every == 0 || c.closed.load(Ordering::SeqCst) {
                        return false;
                    }
                    c.last_snap
                        .lock()
                        .expect("last_snap poisoned")
                        .map(|t| now.duration_since(t) >= Duration::from_millis(every.into()))
                        .unwrap_or(true)
                })
                .collect()
        };
        if !due.is_empty() {
            progressed = true;
            shared.metrics.snapshot_into(&mut snap);
            json_snap_frame.clear();
            bin_snap_frame.clear();
            let mut json_encoded = false;
            let mut bin_encoded = false;
            for conn in due {
                let frame: &[u8] = if conn.caps.load(Ordering::SeqCst) & cap::BINARY_EGRESS != 0 {
                    if !bin_encoded {
                        encode_metrics_snap2(&mut bin_snap_frame, &snap);
                        bin_encoded = true;
                    }
                    &bin_snap_frame
                } else {
                    if !json_encoded {
                        if let Ok(json) = serde_json::to_string(&snap) {
                            encode_metrics_snap(&mut json_snap_frame, &json);
                        }
                        json_encoded = true;
                    }
                    &json_snap_frame
                };
                if !frame.is_empty() {
                    let mut outbox = conn.outbox.lock().expect("outbox poisoned");
                    if outbox.len() <= shared.max_conn_egress {
                        outbox.extend_from_slice(frame);
                    }
                }
                *conn.last_snap.lock().expect("last_snap poisoned") = Some(now);
            }
        }

        if !progressed {
            thread::sleep(Duration::from_micros(200));
        }
    }
}
