//! Streaming runtime verification of timing conditions.
//!
//! The offline checkers in `tempo-core` decide Definition 3.1
//! (semi-satisfaction) by folding the compiled condition engine
//! ([`tempo_core::engine`]) over a complete [`TimedSequence`]; this
//! crate steps the *same* engine incrementally, one event at a time, so
//! timing conditions can be enforced against live executions —
//! simulation runs as they are generated, or any external event source —
//! with online/offline agreement holding by construction.
//!
//! The pieces:
//!
//! * [`Monitor`] — compiles a set of [`TimingCondition`]s (or shares an
//!   already-compiled
//!   [`CompiledConditionSet`](tempo_core::engine::CompiledConditionSet))
//!   and consumes `(action, time, state)` events, holding one engine
//!   [`EngineState`](tempo_core::engine::EngineState) of open
//!   obligations (pending deadlines and un-elapsed lower-bound windows).
//!   Each event costs `O(conditions + open obligations)`, independent of
//!   the stream length; verdicts carry the same
//!   [`Violation`](tempo_core::Violation) payloads as the offline
//!   checker and agree with it exactly. Snapshot the engine state
//!   ([`Monitor::engine_state`]) and [`Monitor::resume`] it — with the
//!   `serde` feature, across process restarts.
//! * Prediction — a monitor built with [`Monitor::with_predictor`]
//!   arms the engine itself with a slack horizon: it emits a
//!   [`Verdict::Warning`] when an open deadline's remaining slack drops
//!   to the horizon (the online reading of the paper's `Lt(U)`,
//!   Section 3.1) and a [`Verdict::Forced`] when a trigger opens a
//!   lower-bound window at least the horizon wide (the `Ft(U)` side).
//!   Both backends of the compiled engine track warning points
//!   natively, so prediction costs no second pass over the obligations.
//!   [`Predictor`] remains as the standalone zone-based (DBM) reading
//!   of the same `Lt(U)` quantity for symbolic use.
//! * [`MonitorPool`] — shards many independent streams across worker
//!   threads and a configurable [`OverloadPolicy`] (block / drop-oldest
//!   / fail-stream). Ingestion is lock-free: each stream feeds its
//!   worker through a bounded SPSC ring buffer ([`mod@ring`]) with
//!   batched publish/drain and spin-then-park wakeups; batch submission
//!   ([`StreamHandle::send_batch`]) amortizes even the atomic traffic.
//! * [`mod@ring`] — the bounded single-producer/single-consumer ring
//!   buffer underneath the pool, usable on its own.
//! * [`MonitorMetrics`] — shared atomic counters (events, obligation
//!   churn, warnings, slack, queue depths, per-stream lag) with a
//!   plain-text [snapshot](MetricsSnapshot) renderer.
//! * [`mod@replay`] — adapters feeding recorded [`TimedSequence`]s through a
//!   monitor, bridging the offline and online worlds;
//!   [`replay_predictive`] replays with early warnings.
//!
//! # Quickstart
//!
//! ```
//! use tempo_core::TimingCondition;
//! use tempo_math::{Interval, Rat};
//! use tempo_monitor::{Monitor, Verdict};
//!
//! // "After a request, a grant within [1, 5]."
//! let cond: TimingCondition<u32, &str> =
//!     TimingCondition::new("RESP", Interval::closed(Rat::ONE, Rat::from(5)).unwrap())
//!         .triggered_by_step(|_, a, _| *a == "REQ")
//!         .on_actions(|a| *a == "GRANT");
//!
//! let mut mon = Monitor::new(&[cond], &0);
//! assert_eq!(mon.observe(&"REQ", Rat::from(2), &1), Verdict::Ok);
//! assert_eq!(mon.observe(&"GRANT", Rat::from(4), &0), Verdict::Ok);
//! assert!(mon.is_ok());
//! ```
//!
//! [`TimedSequence`]: tempo_core::TimedSequence
//! [`TimingCondition`]: tempo_core::TimingCondition

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod metrics;
mod monitor;
mod pool;
mod predict;
pub mod replay;
pub mod ring;
#[cfg(feature = "serde")]
mod serde_impls;
mod verdict;

pub use event::Event;
pub use metrics::{
    MetricsSnapshot, MonitorMetrics, StreamLag, StreamLagSnapshot, SLACK_BUCKETS,
    STREAM_PRUNE_FLOOR,
};
pub use monitor::{Monitor, SwapReport};
// The obligation types moved into the shared condition engine
// (`tempo_core::engine`) — re-exported here so downstream code keeps
// its `tempo_monitor::{Obligation, ObligationKind, Resolution}` paths.
pub use pool::{
    MonitorPool, OverloadPolicy, PoolConfig, PoolReport, ReloadReport, StreamHandle,
    StreamOverflow, StreamReport,
};
pub use predict::{Forced, Outcome, Predictor, Warning};
pub use replay::{
    replay, replay_predictive, replay_predictive_full, replay_semi_satisfies, replay_verdicts,
};
pub use tempo_core::engine::{Obligation, ObligationKind, Resolution};
pub use verdict::Verdict;
