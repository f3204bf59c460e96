//! The named workloads: what traffic each one sends, generated
//! deterministically from `--seed`.
//!
//! Every stream's events are a pure function of `(model, stream id,
//! index)`, so the sender, the receiver's oracle and the in-process
//! ledger regenerate the same inputs without sharing state. The seed
//! sets the stream-id base (`seed << 40`) and, on `backlog-exact`, the
//! sub-millisecond shift of each burst.

use std::time::Duration;

use tempo_serve::wire::WireEvent;
use tempo_sim::loadgen::ReqServe;

/// Events per `BATCH` frame, on every workload.
pub const BATCH: u32 = 10;
/// Events per session on `sessions-open` (two batches).
pub const SESSION_EVENTS: u32 = 2 * BATCH;
/// Requests per burst on `backlog-exact`; one serve closes the burst.
const BURST_REQUESTS: u64 = 256;
/// Burst length in events.
const BURST_EVENTS: u64 = BURST_REQUESTS + 1;
/// Bursts start this many ms apart, so a burst's serve (at +256 ms)
/// always precedes the next burst's first request.
const BURST_PERIOD_MS: i64 = 260;
/// The `backlog-exact` deadline: every serve (at most 256 ms after its
/// requests) is on time, so the expected violation count is 0.
const BACKLOG_DEADLINE_MS: u32 = 1000;

/// The `flood-*` input rate, in events per second: about a fifth of the
/// server's capacity on 2 CPUs. The server's CPU is about one CPU of
/// polling at any rate plus ~100 ns per event (measured at 1.5, 3 and
/// 4.5 M ev/s), so no rate below capacity makes polling a small share.
/// Saturated, the generator and the server's threads contend for the
/// CPUs and throughput read 7.8–9.3 M ev/s over 8 runs; at 4.5 M ev/s
/// `flood-late` fell behind in 3 of 10 runs (verdict p50 of 32–242 ms).
const FLOOD_PER_SEC: f64 = 1.5e6;
/// The `sessions-open` rate, in sessions per second: about half of what
/// the server sustains on a slow host. At 80,000/s it fell behind in 6 of
/// 10 runs (verdict p50 of 21–547 ms, peak RSS up to 834 MB); at
/// 40,000/s CPU per event read 662–872 ns over 10 runs (spread 5%).
const SESSIONS_PER_SEC: f64 = 40_000.0;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload::FloodClean,
    Workload::FloodLate,
    Workload::BacklogExact,
    Workload::SessionsOpen,
];

/// One named traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 10,000 rolling 2,000-event request/serve streams paced at 1.5 M
    /// ev/s, no violations: the ingest data path at light load.
    FloodClean,
    /// `FloodClean` with every 4th serve late: 250 violations per
    /// stream, so `REPORT2` egress carries ~13 KB per report.
    FloodLate,
    /// 1,000 rolling streams of 256-request bursts at sub-ms times, as
    /// fast as TCP admits: every stream spills to the exact-`Rat`
    /// engine, whose worker is the bottleneck.
    BacklogExact,
    /// 20-event sessions, open loop at 40,000 sessions/s, with an
    /// identity `RELOAD` every second: the per-stream control path.
    SessionsOpen,
}

/// How a workload's streams are put on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// `slots` concurrent streams fed round robin, one batch per slot
    /// per round. A finished stream's slot reopens under a fresh id.
    Rolling {
        /// Concurrent streams.
        slots: usize,
        /// Events per stream after the staggered first generation.
        stream_len: u32,
        /// Events sent per second on a fixed schedule, or `None` for as
        /// fast as TCP admits.
        per_sec: Option<f64>,
    },
    /// Sessions started on a fixed schedule regardless of progress,
    /// with an identity `RELOAD` every [`Scale::reload_every`].
    Open {
        /// Sessions started per second.
        per_sec: f64,
    },
}

/// The per-stream event model.
#[derive(Clone, Copy, Debug)]
pub enum Model {
    /// [`ReqServe`] request/serve pairs at integer-ms times.
    ReqServe(ReqServe),
    /// `backlog-exact` bursts; `salt` picks each burst's sub-ms shift.
    Backlog {
        /// The seed.
        salt: u64,
    },
}

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodClean => "flood-clean",
            Workload::FloodLate => "flood-late",
            Workload::BacklogExact => "backlog-exact",
            Workload::SessionsOpen => "sessions-open",
        }
    }

    /// Looks a workload up by [`name`](Workload::name).
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-stream event model; `seed` salts `backlog-exact`.
    pub fn model(self, seed: u64) -> Model {
        let req_serve = |late_every| {
            Model::ReqServe(
                ReqServe {
                    late_every,
                    ..ReqServe::default()
                }
                .validated(),
            )
        };
        match self {
            Workload::FloodClean => req_serve(0),
            Workload::FloodLate => req_serve(4),
            Workload::BacklogExact => Model::Backlog { salt: seed },
            Workload::SessionsOpen => req_serve(17),
        }
    }

    /// The traffic shape at full size divided by `div` (1 for real
    /// runs, 100 for the smoke test).
    pub fn traffic(self, div: u32) -> Traffic {
        let div = f64::from(div);
        match self {
            Workload::FloodClean => Traffic::Rolling {
                slots: (10_000.0 / div) as usize,
                stream_len: 2000,
                per_sec: Some(FLOOD_PER_SEC / div),
            },
            // A tenth of flood-clean's streams: one generation (every
            // slot rolled over once) then fits in the warm-up, so reports
            // are already their steady ~13 KB when the window opens. With
            // 10,000 slots the first generation's reports grow from 0 to
            // 250 violations over 13 s, and verdict latency with them.
            Workload::FloodLate => Traffic::Rolling {
                slots: (1000.0 / div) as usize,
                stream_len: 2000,
                per_sec: Some(FLOOD_PER_SEC / div),
            },
            Workload::BacklogExact => Traffic::Rolling {
                slots: (1000.0 / div) as usize,
                stream_len: (8 * BURST_EVENTS) as u32,
                per_sec: None,
            },
            Workload::SessionsOpen => Traffic::Open {
                per_sec: SESSIONS_PER_SEC / div,
            },
        }
    }

    /// Events the in-process ledger feeds through each layer, divided by
    /// `div`. `backlog-exact` gets one burst per slot, so its streams
    /// carry the same ~128 open obligations as on the wire.
    pub fn ledger_events(self, div: u32) -> usize {
        let n = match self {
            Workload::BacklogExact => 1000 * BURST_EVENTS as usize,
            _ => 1_000_000,
        };
        n / div as usize
    }
}

impl Model {
    /// The `.tspec` the server checks this traffic against.
    pub fn spec(&self) -> String {
        match self {
            Model::ReqServe(rs) => rs.tspec(),
            Model::Backlog { .. } => ReqServe::default().tspec_with_deadline(BACKLOG_DEADLINE_MS),
        }
    }

    /// Event `i` of `stream`.
    pub fn event(&self, stream: u64, i: u64) -> WireEvent {
        match self {
            Model::ReqServe(rs) => {
                let ev = rs.event(stream, i);
                WireEvent::at(ev.action, ev.state, ev.time_ms)
            }
            Model::Backlog { salt } => {
                let (burst, j) = (i / BURST_EVENTS, i % BURST_EVENTS);
                // One shift per burst, in (0, 1) ms: nonzero, so the
                // first event already leaves the integer-ms tick grid,
                // and shared by the burst, so every gap (and hence the
                // expected count) is independent of the seed.
                let frac = 1 + mix(*salt, stream, burst) % 999;
                let ms = BURST_PERIOD_MS * burst as i64 + j as i64;
                let serve = j == BURST_REQUESTS;
                WireEvent {
                    action: u32::from(serve),
                    state: u32::from(!serve),
                    num: ms * 1000 + frac as i64,
                    den: 1000,
                }
            }
        }
    }

    /// Violations a correct server reports for the first `events`
    /// events of `stream`.
    pub fn expected_violations(&self, stream: u64, events: u64) -> u64 {
        match self {
            Model::ReqServe(rs) => rs.expected_violations(stream, events),
            Model::Backlog { .. } => 0,
        }
    }
}

/// Seeds are taken modulo this in stream ids, so that a count of up to
/// 2^40 streams after the base stays clear of `u64` overflow.
pub const SEED_ID_SPAN: u64 = 1 << 23;

/// The first stream id of a run: `(seed mod 2^23) << 40`. Any `u64`
/// seed is accepted; seeds equal modulo 2^23 share ids (each run has a
/// server of its own, so that is harmless).
pub fn stream_base(seed: u64) -> u64 {
    (seed % SEED_ID_SPAN) << 40
}

/// `splitmix64` over `(salt, stream, k)`.
fn mix(salt: u64, stream: u64, k: u64) -> u64 {
    let mut x = salt
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(k);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The round-robin state of a [`Traffic::Rolling`] workload.
pub struct Rolling {
    slots: Vec<Slot>,
    cursor: usize,
    next_id: u64,
    stream_len: u32,
}

struct Slot {
    id: u64,
    len: u32,
    sent: u32,
}

/// What one round-robin step puts on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Events `from..to` of `stream`.
    Batch {
        /// Stream id.
        stream: u64,
        /// First event index.
        from: u32,
        /// One past the last event index.
        to: u32,
    },
    /// `finished` sent all `events` of its events; `opened` takes its
    /// slot.
    Rollover {
        /// The stream to finish.
        finished: u64,
        /// Its event count.
        events: u32,
        /// The stream opened in its place.
        opened: u64,
    },
}

impl Rolling {
    /// `slots` streams with ids from `base`. First-generation lengths
    /// are staggered evenly up to `stream_len`, so finishes are spread
    /// over every round instead of arriving all at once.
    pub fn new(base: u64, slots: usize, stream_len: u32) -> Rolling {
        let slots = (0..slots)
            .map(|k| Slot {
                id: base + k as u64,
                len: ((k as u64 + 1) * u64::from(stream_len)).div_ceil(slots as u64) as u32,
                sent: 0,
            })
            .collect::<Vec<_>>();
        Rolling {
            next_id: base + slots.len() as u64,
            slots,
            cursor: 0,
            stream_len,
        }
    }

    /// Ids of the streams open right now (the opens a run starts with).
    pub fn open_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().map(|s| s.id)
    }

    /// Advances the round robin by one slot.
    pub fn step(&mut self) -> Step {
        let at = self.cursor;
        self.cursor = (at + 1) % self.slots.len();
        let slot = &mut self.slots[at];
        if slot.sent == slot.len {
            let finished = slot.id;
            let events = slot.sent;
            *slot = Slot {
                id: self.next_id,
                len: self.stream_len,
                sent: 0,
            };
            self.next_id += 1;
            return Step::Rollover {
                finished,
                events,
                opened: slot.id,
            };
        }
        let from = slot.sent;
        slot.sent = (from + BATCH).min(slot.len);
        Step::Batch {
            stream: slot.id,
            from,
            to: slot.sent,
        }
    }

    /// `(id, events sent)` of every open stream: what a drain finishes.
    pub fn open_streams(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().map(|s| (s.id, s.sent))
    }
}

/// Scale and timing of one run: [`Scale::FULL`] for real runs, and a
/// 1/100-size variant for the smoke test that takes the same code path.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divides stream counts, rates and ledger sizes.
    pub div: u32,
    /// Traffic before the timed window starts.
    pub warmup: Duration,
    /// Server spawns per pass; `setup_s` is their median.
    pub setups: usize,
    /// `sessions-open` sends an identity `RELOAD` this often.
    pub reload_every: Duration,
    /// About how long each slice of the timed window lasts; a run
    /// reports the median over its slices.
    pub slice: Duration,
}

impl Scale {
    /// Full-size runs.
    pub const FULL: Scale = Scale {
        div: 1,
        warmup: Duration::from_secs(2),
        setups: 9,
        reload_every: Duration::from_secs(1),
        slice: Duration::from_secs(1),
    };

    /// The timed window `window` cut into equal slices of about
    /// [`Scale::slice`], at least one.
    pub fn slices(&self, window: Duration) -> u32 {
        (window.as_secs_f64() / self.slice.as_secs_f64())
            .round()
            .clamp(1.0, 1e4) as u32
    }
}
