//! The incremental semi-satisfaction monitor.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use tempo_core::engine::{
    BackendChoice, CompiledConditionSet, EngineBackend, EngineEvent, EngineImpl, EngineState,
    Obligation,
};
use tempo_core::{SatisfactionMode, TimingCondition, Violation};
use tempo_math::Rat;

use crate::metrics::{MetricsRef, MetricsShard, MonitorMetrics};
use crate::predict::{Forced, Warning};
use crate::verdict::Verdict;

/// An online monitor for a set of timing conditions over one event
/// stream — the incremental form of Definition 3.1 (semi-satisfaction).
///
/// The monitor is a thin wrapper around the compiled condition engine
/// ([`tempo_core::engine`]): it holds one
/// [`CompiledConditionSet`] (shareable across streams) and one
/// [`EngineState`], classifies each incoming event once, steps the
/// engine, and derives verdicts, metrics, and predictor warnings from
/// the engine's event log. The offline checker
/// ([`tempo_core::semi_satisfies`]) folds the *same* engine over a
/// recorded sequence, so online/offline agreement holds by construction.
///
/// Each event costs `O(conditions + open obligations)`, independent of
/// the stream length: after any finite prefix, the set of violations
/// reported so far (plus [`finish`] for [`SatisfactionMode::Complete`])
/// equals the set reported by [`tempo_core::violations`] on the
/// corresponding [`TimedSequence`].
///
/// # Example
///
/// ```
/// use tempo_core::TimingCondition;
/// use tempo_math::{Interval, Rat};
/// use tempo_monitor::{Monitor, Verdict};
///
/// let cond: TimingCondition<u32, &str> =
///     TimingCondition::new("G", Interval::closed(Rat::from(2), Rat::from(5)).unwrap())
///         .triggered_at_start(|_| true)
///         .on_actions(|a| *a == "GRANT");
/// let mut mon = Monitor::new(&[cond], &0);
/// assert_eq!(mon.observe(&"TICK", Rat::from(1), &1), Verdict::Ok);
/// assert_eq!(mon.observe(&"GRANT", Rat::from(3), &2), Verdict::Ok);
/// assert!(mon.is_ok());
/// ```
///
/// [`finish`]: Monitor::finish
/// [`TimedSequence`]: tempo_core::TimedSequence
pub struct Monitor<S, A> {
    /// The compiled conditions — shared, so a pool of monitors over the
    /// same condition set compiles it exactly once.
    set: Arc<CompiledConditionSet<S, A>>,
    /// The engine's obligation state for this stream, on whichever
    /// backend the compiled set selected (integer ticks when every
    /// bound fits the tick domain, exact `Rat`s otherwise).
    engine: EngineImpl,
    /// Post-state of the last event (initially the start state); the
    /// `pre` argument of `T_step` triggers.
    last_state: S,
    violations: Vec<Violation>,
    warnings: Vec<Warning>,
    forced: Vec<Forced>,
    /// The prediction horizon the engine was armed with (`None`: no
    /// prediction). The engine itself tracks the warning points; the
    /// monitor keeps the horizon to stamp it into report payloads.
    horizon: Option<Rat>,
    /// The backend choice this monitor was built with, re-applied when
    /// the engine state is re-adopted (predictor attach, hot swap).
    choice: BackendChoice,
    /// Hot-counter sink: the shared base metrics for standalone
    /// monitors, or one pool worker's private shard.
    metrics: Option<MetricsRef>,
}

/// What [`Monitor::swap_compiled`] did with the open obligations.
#[derive(Clone, Debug)]
pub struct SwapReport {
    /// Obligations carried forward onto preserved conditions.
    pub carried: usize,
    /// Obligations closed administratively because their condition does
    /// not exist in the new revision, tagged with the old condition's
    /// name.
    pub dropped: Vec<(String, Obligation)>,
}

impl<S, A> fmt::Debug for Monitor<S, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("conditions", &self.set.len())
            .field("events_seen", &self.engine.events_seen())
            .field("open_obligations", &self.engine.open_obligations())
            .field("violations", &self.violations.len())
            .field("warnings", &self.warnings.len())
            .field("forced", &self.forced.len())
            .finish()
    }
}

impl<S: Clone, A: Clone + Eq + Hash> Monitor<S, A> {
    /// Compiles `conds` into a monitor, opening the start-state
    /// obligations (trigger index 0 at time 0) for every condition whose
    /// `T_start` contains `start`.
    pub fn new(conds: &[TimingCondition<S, A>], start: &S) -> Monitor<S, A>
    where
        A: fmt::Debug,
    {
        Monitor::from_compiled(Arc::new(CompiledConditionSet::new(conds)), start)
    }

    /// A monitor over an already-compiled (and possibly shared) condition
    /// set: many concurrent streams can hold the same
    /// `Arc<CompiledConditionSet>` and pay the compilation exactly once —
    /// this is how [`MonitorPool`](crate::MonitorPool) workers build
    /// their per-stream monitors.
    pub fn from_compiled(set: Arc<CompiledConditionSet<S, A>>, start: &S) -> Monitor<S, A> {
        Monitor::from_compiled_with(set, start, BackendChoice::default())
    }

    /// [`from_compiled`](Monitor::from_compiled) with an explicit engine
    /// [`BackendChoice`]: [`BackendChoice::Auto`] (the default) runs the
    /// monomorphized integer-time backend whenever the compiled set's
    /// bounds fit its tick domain; [`BackendChoice::Exact`] pins exact
    /// `Rat` arithmetic — the differential-oracle configuration.
    /// Verdicts are identical either way.
    pub fn from_compiled_with(
        set: Arc<CompiledConditionSet<S, A>>,
        start: &S,
        backend: BackendChoice,
    ) -> Monitor<S, A> {
        let mut engine = set.start_engine_with(start, backend);
        // No metrics yet: nobody consumes obligation lifecycle events,
        // so keep them out of the per-event hot path. `with_metrics`
        // turns the log back on.
        engine.set_log_lifecycle(false);
        Monitor {
            set,
            engine,
            last_state: start.clone(),
            violations: Vec::new(),
            warnings: Vec::new(),
            forced: Vec::new(),
            horizon: None,
            choice: backend,
            metrics: None,
        }
    }

    /// Rebuilds a monitor from a previously snapshotted [`EngineState`]
    /// (see [`engine_state`](Monitor::engine_state)), continuing the
    /// stream exactly where the snapshot left off: the restored monitor
    /// emits the same verdicts on the remaining suffix as the original
    /// would have. With the `serde` feature enabled on `tempo-core`, the
    /// state itself can be serialized, persisted, and restored across
    /// process restarts (the ROADMAP's long-lived streams item).
    ///
    /// `last_state` must be the post-state of the last event the
    /// snapshotted monitor observed (the snapshot is pure obligation
    /// state and deliberately holds no monitored-state data). Pass
    /// `horizon` to re-arm prediction: the engine recomputes every open
    /// deadline's warning point from the snapshot, and obligations
    /// whose warning point had already passed at snapshot time are
    /// marked warned, so no warning is emitted twice across the
    /// snapshot boundary. (Forced windows are reported at the event
    /// that opens them, which the snapshot is strictly after — nothing
    /// is re-reported either.)
    ///
    /// The violation, warning, and forced lists start empty: they cover
    /// the suffix. ([`Monitor::resume_compiled`] is the shared-set
    /// variant.)
    ///
    /// # Panics
    ///
    /// Panics if `state` tracks a different number of conditions than
    /// `conds`, or if `horizon` is negative.
    pub fn resume(
        conds: &[TimingCondition<S, A>],
        state: EngineState,
        last_state: &S,
        horizon: Option<Rat>,
    ) -> Monitor<S, A>
    where
        A: fmt::Debug,
    {
        Monitor::resume_compiled(
            Arc::new(CompiledConditionSet::new(conds)),
            state,
            last_state,
            horizon,
        )
    }

    /// [`Monitor::resume`] over an already-compiled condition set.
    ///
    /// # Panics
    ///
    /// Panics if `state` tracks a different number of conditions than
    /// `set`.
    pub fn resume_compiled(
        set: Arc<CompiledConditionSet<S, A>>,
        state: EngineState,
        last_state: &S,
        horizon: Option<Rat>,
    ) -> Monitor<S, A> {
        assert_eq!(
            set.len(),
            state.conditions(),
            "snapshot was taken over a different condition set"
        );
        if let Some(h) = horizon {
            assert!(!h.is_negative(), "the warning horizon must be nonnegative");
        }
        // Adopt the snapshot onto the automatically selected backend:
        // integer ticks when the set is int-capable and every open
        // obligation (and the horizon) converts exactly, exact `Rat`s
        // otherwise — so a snapshot round-trips across backends. The
        // predictive adoption re-arms warning points from the compiled
        // bounds, silently marking already-passed ones warned.
        let mut engine = set.adopt_state_predictive(state, BackendChoice::default(), horizon);
        // As in `from_compiled`: only log obligation lifecycle events
        // while someone (metrics) consumes them — prediction is native
        // to the engine and needs no lifecycle log.
        engine.set_log_lifecycle(false);
        Monitor {
            set,
            engine,
            last_state: last_state.clone(),
            violations: Vec::new(),
            warnings: Vec::new(),
            forced: Vec::new(),
            horizon,
            choice: BackendChoice::default(),
            metrics: None,
        }
    }

    /// Hot-swaps this monitor onto a new compiled condition set without
    /// losing its place in the stream — the per-stream half of spec hot
    /// reload ([`MonitorPool::reload`](crate::MonitorPool::reload) is
    /// the pool-level driver).
    ///
    /// `map[ci]` names the index in `new` of the condition currently at
    /// index `ci` (hot reload matches conditions across revisions *by
    /// name*), or `None` if the condition was dropped. Open obligations
    /// of preserved conditions carry forward with their absolute
    /// deadlines unchanged — the new bounds govern triggers that fire
    /// after the swap, not history — while obligations of dropped
    /// conditions are closed administratively and returned in the
    /// [`SwapReport`] (and counted as discharged in the metrics, so
    /// `opened = discharged + violated + open` keeps holding). An armed
    /// prediction horizon survives the swap: warning points of carried
    /// obligations travel with them verbatim (they were fixed by the
    /// *old* bounds, like the deadlines themselves), so already-warned
    /// obligations are not re-warned. Recorded violations, warnings,
    /// and forced windows stay: they are stream history, not spec
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not have exactly one entry per current
    /// condition, or maps outside `new`.
    pub fn swap_compiled(
        &mut self,
        new: Arc<CompiledConditionSet<S, A>>,
        map: &[Option<usize>],
    ) -> SwapReport {
        assert_eq!(
            map.len(),
            self.set.len(),
            "swap map must cover every current condition"
        );
        // Remapping works in the exact domain (the snapshot form); the
        // remapped state is then adopted back onto whichever backend the
        // *new* set selects — both conversions are lossless. The remap
        // carries the horizon and each obligation's warning state
        // verbatim, so prediction continues seamlessly: no re-arm, no
        // re-warn.
        let (remapped, dropped) = std::mem::take(&mut self.engine)
            .into_exact()
            .remap(map, new.len());
        self.engine = new.adopt_state(remapped, self.choice);
        self.engine.set_log_lifecycle(self.metrics.is_some());
        if let Some(m) = &self.metrics {
            for _ in &dropped {
                m.record_discharged();
            }
        }
        let carried = self.engine.open_obligations();
        let dropped = dropped
            .into_iter()
            .map(|(ci, ob)| (self.set.name(ci).to_string(), ob))
            .collect();
        self.set = new;
        SwapReport { carried, dropped }
    }

    /// Attaches shared metrics counters; every subsequent event and
    /// obligation transition is recorded there. Obligations already
    /// opened by the start-state trigger are counted retroactively, so
    /// `opened = discharged + violated + open` holds at all times.
    pub fn with_metrics(self, metrics: Arc<MonitorMetrics>) -> Monitor<S, A> {
        self.with_metrics_ref(MetricsRef::Base(metrics))
    }

    /// [`with_metrics`](Monitor::with_metrics), but recording the hot
    /// counters into one pool worker's private [`MetricsShard`] instead
    /// of the shared base struct — the shard is merged back at snapshot
    /// time, so the observable totals are identical.
    pub(crate) fn with_metrics_shard(self, shard: Arc<MetricsShard>) -> Monitor<S, A> {
        self.with_metrics_ref(MetricsRef::Shard(shard))
    }

    fn with_metrics_ref(mut self, metrics: MetricsRef) -> Monitor<S, A> {
        metrics.record_opened(self.engine.open_obligations() as u64);
        self.metrics = Some(metrics);
        // The metrics counters consume obligation lifecycle events.
        self.engine.set_log_lifecycle(true);
        self
    }

    /// Arms engine-native prediction with the given horizon: from now
    /// on the engine tracks every open deadline's warning point
    /// (`Lt(U)` — a [`Verdict::Warning`] the first time the stream's
    /// clock passes strictly beyond `deadline − horizon` with the
    /// obligation unresolved) *and* every qualifying lower window
    /// (`Ft(U)` — a [`Verdict::Forced`] at the trigger whose window is
    /// at least `horizon` wide; see the paper's Section 3.1 for the
    /// symmetric `time(A, U)` construction both are read from). Both
    /// backends predict natively; quiescent events stay on the integer
    /// backend's watermark fast path.
    ///
    /// Deadline obligations already opened by the start-state trigger
    /// are armed retroactively. (Start-state lower windows predate the
    /// first observation, so they surface through
    /// [`earliest_legal`](Monitor::earliest_legal) rather than as a
    /// verdict.)
    ///
    /// # Panics
    ///
    /// Panics if events have already been observed (attach the predictor
    /// right after [`Monitor::new`]) or if `horizon` is negative.
    ///
    /// # Example
    ///
    /// ```
    /// use tempo_core::TimingCondition;
    /// use tempo_math::{Interval, Rat};
    /// use tempo_monitor::{Monitor, Verdict};
    ///
    /// // A deadline of 10 with a warning horizon of 3.
    /// let cond: TimingCondition<u32, &str> =
    ///     TimingCondition::new("G", Interval::closed(Rat::ZERO, Rat::from(10)).unwrap())
    ///         .triggered_at_start(|_| true)
    ///         .on_actions(|a| *a == "GRANT");
    /// let mut mon = Monitor::new(&[cond], &0).with_predictor(Rat::from(3));
    /// // t = 5: slack 5 > horizon, all quiet.
    /// assert_eq!(mon.observe(&"TICK", Rat::from(5), &1), Verdict::Ok);
    /// // t = 8 passes the warning point 10 − 3 = 7: early warning.
    /// let v = mon.observe(&"TICK", Rat::from(8), &1);
    /// let w = v.warning().expect("inside the horizon");
    /// assert_eq!(w.slack, Rat::from(3));
    /// assert!(v.is_ok(), "a warning is a prediction, not a violation");
    /// // The GRANT still makes it: no violation was ever witnessed.
    /// assert_eq!(mon.observe(&"GRANT", Rat::from(9), &0), Verdict::Ok);
    /// assert!(mon.is_ok());
    /// assert_eq!(mon.warnings().len(), 1);
    /// ```
    pub fn with_predictor(mut self, horizon: Rat) -> Monitor<S, A> {
        assert_eq!(
            self.engine.events_seen(),
            0,
            "attach the predictor before observing events"
        );
        assert!(
            !horizon.is_negative(),
            "the warning horizon must be nonnegative"
        );
        // Re-adopt the (still pristine) state predictively: the engine
        // computes warning points for the start-state deadlines and
        // carries the horizon from here on. Prediction is native — no
        // lifecycle logging needed; metrics alone decide that.
        let snapshot = self.engine.snapshot();
        self.engine = self
            .set
            .adopt_state_predictive(snapshot, self.choice, Some(horizon));
        self.engine.set_log_lifecycle(self.metrics.is_some());
        self.horizon = Some(horizon);
        self
    }

    /// Consumes one event: the action, its (nondecreasing) absolute time,
    /// and the post-state. Returns [`Verdict::Ok`] or the event's first
    /// violation; *all* violations are appended to [`violations`].
    ///
    /// One engine step: the event is classified against every condition
    /// once, weighed against the open obligations, and the engine's
    /// event log drives verdicts, metrics, and predictive reports. The
    /// engine sweeps due warnings *before* the event is weighed, so a
    /// warning always precedes the violation (or near-miss discharge)
    /// it predicts; forced windows are reported at the trigger that
    /// opens them.
    ///
    /// # Panics
    ///
    /// Panics if `time` decreases, mirroring
    /// [`TimedSequence::push`](tempo_core::TimedSequence::push).
    ///
    /// `time` is a [`Rat`] or anything that widens into one, such as the
    /// [`PackedRat`](tempo_math::PackedRat) an [`Event`](crate::Event)
    /// carries.
    ///
    /// [`violations`]: Monitor::violations
    pub fn observe(&mut self, action: &A, time: impl Into<Rat>, state: &S) -> Verdict {
        let time = time.into();
        let warnings_before = self.warnings.len();
        let forced_before = self.forced.len();
        let mut first: Option<Violation> = None;
        let Monitor {
            set,
            engine,
            last_state,
            violations,
            warnings,
            forced,
            horizon,
            metrics,
            ..
        } = self;
        let mut opened = 0u64;
        for ev in set.step_engine(engine, last_state, action, state, time) {
            match ev {
                EngineEvent::Opened { .. } => {
                    opened += 1;
                }
                EngineEvent::Discharged { .. } => {
                    if let Some(m) = metrics {
                        m.record_discharged();
                    }
                }
                EngineEvent::Warned {
                    ci,
                    trigger_index,
                    deadline,
                    warn_at,
                } => {
                    let w = Warning {
                        condition: Arc::clone(set.shared_name(*ci)),
                        condition_index: *ci,
                        trigger_index: *trigger_index,
                        deadline: *deadline,
                        at: *warn_at,
                        slack: *deadline - *warn_at,
                        horizon: horizon.expect("the engine only warns when armed"),
                    };
                    if let Some(m) = metrics {
                        m.record_warning(w.slack, w.horizon);
                    }
                    warnings.push(w);
                }
                EngineEvent::Forced {
                    ci,
                    trigger_index,
                    earliest,
                    t_i,
                    margin,
                } => {
                    let fw = Forced {
                        condition: Arc::clone(set.shared_name(*ci)),
                        condition_index: *ci,
                        action: Arc::clone(set.action_label(*ci)),
                        trigger_index: *trigger_index,
                        earliest: *earliest,
                        at: *t_i,
                        margin: *margin,
                        horizon: horizon.expect("the engine only forces when armed"),
                    };
                    if let Some(m) = metrics {
                        m.record_forced(fw.margin, fw.horizon);
                    }
                    forced.push(fw);
                }
                EngineEvent::Violated { ci, kind } => {
                    let v = Violation {
                        condition: set.name(*ci).to_string(),
                        kind: kind.clone(),
                    };
                    if first.is_none() {
                        first = Some(v.clone());
                    }
                    violations.push(v);
                    if let Some(m) = metrics {
                        m.record_violated();
                    }
                }
            }
        }
        if let Some(m) = metrics {
            if opened > 0 {
                m.record_opened(opened);
            }
            m.record_event();
            if horizon.is_some() {
                if let Some(d) = engine.min_deadline() {
                    m.record_min_slack(d - time);
                }
            }
        }
        *last_state = state.clone();
        if let Some(v) = first {
            Verdict::from_violation(v)
        } else if self.warnings.len() > warnings_before {
            Verdict::Warning(self.warnings[warnings_before].clone())
        } else if self.forced.len() > forced_before {
            Verdict::Forced(self.forced[forced_before].clone())
        } else {
            Verdict::Ok
        }
    }

    /// Ends the stream and returns the complete violation list.
    ///
    /// Under [`SatisfactionMode::Complete`] (Definition 2.2) every still
    /// open deadline becomes an upper-bound violation — no further event
    /// can serve it. Under [`SatisfactionMode::Prefix`] (Definition 3.1,
    /// semi-satisfaction) open deadlines are excused: an open deadline
    /// implies `t_end ≤ deadline`, so some extension could still meet it.
    pub fn finish(self, mode: SatisfactionMode) -> Vec<Violation> {
        self.finish_with_warnings(mode).0
    }

    /// Like [`finish`](Monitor::finish), but also returns the warnings
    /// collected over the stream's lifetime, including any owed for the
    /// end-of-stream violations of [`SatisfactionMode::Complete`] (each
    /// such warning precedes its violation in the returned lists, so the
    /// warning-before-violation guarantee survives stream end).
    ///
    /// Without a predictor the warning list is empty.
    pub fn finish_with_warnings(self, mode: SatisfactionMode) -> (Vec<Violation>, Vec<Warning>) {
        let (violations, warnings, _) = self.finish_full(mode);
        (violations, warnings)
    }

    /// Ends the stream and returns everything it produced: the
    /// violations, the warnings, and the forced windows — the full
    /// bidirectional report. [`finish`](Monitor::finish) and
    /// [`finish_with_warnings`](Monitor::finish_with_warnings) are
    /// projections of this.
    pub fn finish_full(
        mut self,
        mode: SatisfactionMode,
    ) -> (Vec<Violation>, Vec<Warning>, Vec<Forced>) {
        let Monitor {
            set,
            engine,
            violations,
            warnings,
            horizon,
            metrics,
            ..
        } = &mut self;
        for ev in set.finish_engine(engine, mode) {
            match ev {
                EngineEvent::Violated { ci, kind } => {
                    violations.push(Violation {
                        condition: set.name(*ci).to_string(),
                        kind: kind.clone(),
                    });
                    if let Some(m) = metrics {
                        m.record_violated();
                    }
                }
                EngineEvent::Warned {
                    ci,
                    trigger_index,
                    deadline,
                    warn_at,
                } => {
                    // End-of-stream violations still owe their pending
                    // warning; the engine emits it immediately before
                    // the violation it predicts.
                    let w = Warning {
                        condition: Arc::clone(set.shared_name(*ci)),
                        condition_index: *ci,
                        trigger_index: *trigger_index,
                        deadline: *deadline,
                        at: *warn_at,
                        slack: *deadline - *warn_at,
                        horizon: horizon.expect("the engine only warns when armed"),
                    };
                    if let Some(m) = metrics {
                        m.record_warning(w.slack, w.horizon);
                    }
                    warnings.push(w);
                }
                EngineEvent::Discharged { .. } => {
                    // Prefix-excused deadlines and open lower windows:
                    // no warning is owed (the stream may yet be extended
                    // to serve them).
                    if let Some(m) = metrics {
                        m.record_discharged();
                    }
                }
                EngineEvent::Opened { .. } | EngineEvent::Forced { .. } => {}
            }
        }
        (
            std::mem::take(&mut self.violations),
            std::mem::take(&mut self.warnings),
            std::mem::take(&mut self.forced),
        )
    }
}

impl<S, A> Monitor<S, A> {
    /// The violations witnessed so far (in discovery order).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The early warnings emitted so far (in discovery order); always
    /// empty without a predictor
    /// ([`with_predictor`](Monitor::with_predictor)).
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// The forced windows reported so far (in discovery order); always
    /// empty without a predictor or with a zero horizon.
    pub fn forced(&self) -> &[Forced] {
        &self.forced
    }

    /// The armed prediction horizon, if any.
    pub fn horizon(&self) -> Option<Rat> {
        self.horizon
    }

    /// The minimum remaining slack over every open deadline — the
    /// stream's distance to its nearest `Lt` expiry, read straight off
    /// the engine (O(1) on the integer backend). `None` without a
    /// predictor or when no deadline is open.
    pub fn min_slack(&self) -> Option<Rat> {
        self.horizon?;
        Some(self.engine.min_deadline()? - self.engine.last_time())
    }

    /// The `Ft` read-out: the earliest time at which `action` could
    /// next legally occur, given the open lower windows whose `Π`
    /// contains it — `None` when no open window constrains it. Works
    /// with or without a predictor (it is a query, not a report; see
    /// [`Verdict::Forced`] for the push form).
    pub fn earliest_legal(&self, action: &A) -> Option<Rat>
    where
        A: Eq + Hash,
    {
        self.set.earliest_legal(&self.engine, action)
    }

    /// `true` while no violation has been witnessed.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of currently open obligations, across all conditions.
    pub fn open_obligations(&self) -> usize {
        self.engine.open_obligations()
    }

    /// Number of events consumed.
    pub fn events_seen(&self) -> usize {
        self.engine.events_seen()
    }

    /// A snapshot of the engine's obligation state — the monitor's whole
    /// resumable position in the stream, always materialized as the
    /// exact [`EngineState`] regardless of the running backend (the
    /// integer backend's tick-to-rational conversion is lossless).
    /// Serialize it (with the `serde` feature of `tempo-core`) and hand
    /// it to [`Monitor::resume`]/[`Monitor::resume_compiled`] to
    /// continue the stream later, or in another process; resume
    /// re-selects the backend, so snapshots round-trip across backends.
    pub fn engine_state(&self) -> EngineState {
        self.engine.snapshot()
    }

    /// Which engine backend this stream is currently running on. A
    /// stream that started on [`EngineBackend::Int`] reports
    /// [`EngineBackend::Exact`] after an event time outside its tick
    /// domain spilled it to exact arithmetic (verdicts are unaffected).
    pub fn backend(&self) -> EngineBackend {
        self.engine.backend()
    }

    /// The compiled condition set this monitor steps — shareable with
    /// further monitors via [`Monitor::from_compiled`].
    pub fn compiled(&self) -> &Arc<CompiledConditionSet<S, A>> {
        &self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_core::ViolationKind;
    use tempo_math::Interval;

    fn cond(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_at_start(|s| *s == 0)
            .on_actions(|a| *a == "fire")
    }

    #[test]
    fn upper_bound_served_in_window() {
        let mut mon = Monitor::new(&[cond(2, 4)], &0u8);
        assert_eq!(mon.observe(&"noise", Rat::from(1), &1), Verdict::Ok);
        assert_eq!(mon.observe(&"fire", Rat::from(3), &2), Verdict::Ok);
        assert_eq!(mon.open_obligations(), 0);
        assert!(mon.finish(SatisfactionMode::Complete).is_empty());
    }

    #[test]
    fn early_fire_is_lower_violation() {
        let mut mon = Monitor::new(&[cond(2, 10)], &0u8);
        let v = mon.observe(&"fire", Rat::from(1), &1);
        match v {
            Verdict::LowerBoundViolation(v) => assert_eq!(
                v.kind,
                ViolationKind::LowerBound {
                    trigger_index: 0,
                    event_index: 1,
                    earliest: Rat::from(2)
                }
            ),
            other => panic!("expected lower violation, got {other:?}"),
        }
    }

    #[test]
    fn deadline_passing_is_definite_immediately() {
        let mut mon = Monitor::new(&[cond(0, 4)], &0u8);
        assert_eq!(mon.observe(&"noise", Rat::from(3), &1), Verdict::Ok);
        // First event past the deadline makes the violation definite —
        // even though it is not itself a Π-event.
        let v = mon.observe(&"noise", Rat::from(5), &1);
        assert!(matches!(v, Verdict::UpperBoundViolation(_)));
    }

    #[test]
    fn finish_mode_distinguishes_prefix_and_complete() {
        let c = cond(0, 4);
        let mut mon = Monitor::new(std::slice::from_ref(&c), &0u8);
        mon.observe(&"noise", Rat::from(3), &1);
        // Prefix: deadline 4 not yet passed at t_end = 3 → excused.
        assert!(mon.finish(SatisfactionMode::Prefix).is_empty());
        let mut mon = Monitor::new(&[c], &0u8);
        mon.observe(&"noise", Rat::from(3), &1);
        // Complete: the pending deadline is a violation.
        let vs = mon.finish(SatisfactionMode::Complete);
        assert_eq!(vs.len(), 1);
        assert!(matches!(vs[0].kind, ViolationKind::UpperBound { .. }));
    }

    #[test]
    fn step_triggers_reset_the_bound() {
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::closed(Rat::from(1), Rat::from(3)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "fire");
        let mut mon = Monitor::new(&[c], &0u8);
        assert_eq!(mon.observe(&"go", Rat::from(5), &1), Verdict::Ok);
        assert_eq!(mon.open_obligations(), 2);
        assert_eq!(mon.observe(&"fire", Rat::from(7), &2), Verdict::Ok);
        assert_eq!(mon.open_obligations(), 0);
        // A go-step re-arms; a too-early fire then violates.
        assert_eq!(mon.observe(&"go", Rat::from(7), &1), Verdict::Ok);
        let v = mon.observe(&"fire", Rat::from(7), &2);
        assert!(matches!(v, Verdict::LowerBoundViolation(_)));
    }

    #[test]
    fn trigger_event_does_not_serve_its_own_deadline() {
        // `go` is both the trigger and a Π-action: the triggering
        // occurrence must not count as serving the freshly opened bound.
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(3)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "go");
        let mut mon = Monitor::new(&[c], &0u8);
        assert_eq!(mon.observe(&"go", Rat::from(1), &1), Verdict::Ok);
        assert_eq!(mon.open_obligations(), 1);
    }

    #[test]
    fn disabling_state_excuses_lower_and_serves_upper() {
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::closed(Rat::from(3), Rat::from(5)).unwrap())
                .triggered_at_start(|s| *s == 0)
                .on_actions(|a| *a == "fire")
                .disabled_in(|s| *s == 9);
        // Passing through the disabling state excuses an early fire.
        let mut mon = Monitor::new(std::slice::from_ref(&c), &0u8);
        assert_eq!(mon.observe(&"noise", Rat::from(1), &9), Verdict::Ok);
        assert_eq!(mon.observe(&"fire", Rat::from(2), &1), Verdict::Ok);
        assert!(mon.is_ok());
        // The same early fire without the disabling state violates.
        let mut mon = Monitor::new(&[c], &0u8);
        assert_eq!(mon.observe(&"noise", Rat::from(1), &1), Verdict::Ok);
        assert!(!mon.observe(&"fire", Rat::from(2), &2).is_ok());
    }

    #[test]
    fn infinite_upper_bound_opens_no_deadline() {
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::unbounded_above(Rat::from(1)))
                .triggered_at_start(|_| true)
                .on_actions(|a| *a == "fire");
        let mon = Monitor::new(&[c], &0u8);
        // Only the lower window is open; no deadline can ever fire.
        assert_eq!(mon.open_obligations(), 1);
        assert!(mon.finish(SatisfactionMode::Complete).is_empty());
    }

    #[test]
    fn zero_lower_bound_opens_no_window() {
        let mon = Monitor::new(&[cond(0, 4)], &0u8);
        assert_eq!(mon.open_obligations(), 1); // the deadline only
    }

    #[test]
    fn metrics_are_recorded() {
        let metrics = Arc::new(MonitorMetrics::new());
        let mut mon = Monitor::new(&[cond(2, 4)], &0u8).with_metrics(Arc::clone(&metrics));
        mon.observe(&"fire", Rat::from(1), &1); // lower violation
        mon.observe(&"fire", Rat::from(3), &1);
        let s = metrics.snapshot();
        assert_eq!(s.events, 2);
        assert_eq!(s.obligations_violated, 1);
        assert!(s.obligations_opened >= 2);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_time_panics() {
        let mut mon = Monitor::new(&[cond(1, 2)], &0u8);
        mon.observe(&"noise", Rat::from(3), &1);
        mon.observe(&"noise", Rat::from(2), &1);
    }

    #[test]
    fn predictor_warns_before_deadline_then_discharges() {
        let mut mon = Monitor::new(&[cond(0, 10)], &0u8).with_predictor(Rat::from(3));
        assert_eq!(mon.observe(&"noise", Rat::from(5), &1), Verdict::Ok);
        assert_eq!(mon.min_slack(), Some(Rat::from(5)));
        // Strictly past the warning point 10 − 3 = 7.
        let v = mon.observe(&"noise", Rat::from(8), &1);
        let w = v.warning().expect("inside horizon");
        assert_eq!(&*w.condition, "C");
        assert_eq!(w.condition_index, 0);
        assert_eq!(w.deadline, Rat::from(10));
        assert_eq!(w.at, Rat::from(7));
        assert_eq!(w.slack, Rat::from(3));
        // Warned once only; serving it keeps the stream violation-free.
        assert_eq!(mon.observe(&"fire", Rat::from(9), &1), Verdict::Ok);
        assert!(mon.is_ok());
        assert_eq!(mon.warnings().len(), 1);
        let (violations, warnings) = mon.finish_with_warnings(SatisfactionMode::Complete);
        assert!(violations.is_empty());
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn warning_always_precedes_the_violation() {
        // Time jumps straight past the deadline: the violating event
        // still files the owed warning first.
        let mut mon = Monitor::new(&[cond(0, 4)], &0u8).with_predictor(Rat::from(1));
        let v = mon.observe(&"noise", Rat::from(50), &1);
        assert!(matches!(v, Verdict::UpperBoundViolation(_)));
        assert_eq!(mon.warnings().len(), 1);
        assert_eq!(mon.warnings()[0].at, Rat::from(3));
        assert_eq!(mon.warnings()[0].deadline, Rat::from(4));
    }

    #[test]
    fn horizon_zero_is_silent_on_violation_free_streams() {
        let mut mon = Monitor::new(&[cond(0, 4)], &0u8).with_predictor(Rat::ZERO);
        assert_eq!(mon.observe(&"noise", Rat::from(4), &1), Verdict::Ok);
        assert_eq!(mon.observe(&"fire", Rat::from(4), &1), Verdict::Ok);
        let (violations, warnings) = mon.finish_with_warnings(SatisfactionMode::Complete);
        assert!(violations.is_empty());
        assert!(warnings.is_empty());
    }

    #[test]
    fn complete_finish_files_warning_before_endstream_violation() {
        // The stream ends before the deadline: Complete mode violates the
        // open obligation and the predictor still owes its warning.
        let mut mon = Monitor::new(&[cond(0, 10)], &0u8).with_predictor(Rat::from(2));
        assert_eq!(mon.observe(&"noise", Rat::from(1), &1), Verdict::Ok);
        let (violations, warnings) = mon.finish_with_warnings(SatisfactionMode::Complete);
        assert_eq!(violations.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].trigger_index, 0);
        // Prefix mode excuses the deadline — and owes no warning either.
        let mut mon = Monitor::new(&[cond(0, 10)], &0u8).with_predictor(Rat::from(2));
        mon.observe(&"noise", Rat::from(1), &1);
        let (violations, warnings) = mon.finish_with_warnings(SatisfactionMode::Prefix);
        assert!(violations.is_empty());
        assert!(warnings.is_empty());
    }

    #[test]
    fn predictor_does_not_change_verdicts() {
        // Same trace, with and without the predictor: identical
        // violations.
        let c = cond(2, 4);
        let trace: &[(&str, i64)] = &[("noise", 1), ("fire", 1), ("noise", 6)];
        let mut plain = Monitor::new(std::slice::from_ref(&c), &0u8);
        let mut predictive =
            Monitor::new(std::slice::from_ref(&c), &0u8).with_predictor(Rat::from(1));
        for (a, t) in trace {
            plain.observe(a, Rat::from(*t), &1);
            predictive.observe(a, Rat::from(*t), &1);
        }
        assert_eq!(plain.violations(), predictive.violations());
        assert_eq!(
            plain.finish(SatisfactionMode::Complete),
            predictive.finish(SatisfactionMode::Complete)
        );
    }

    #[test]
    fn predictor_tracks_step_triggers() {
        let c: TimingCondition<u8, &str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(3)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "fire");
        let mut mon = Monitor::new(&[c], &0u8).with_predictor(Rat::from(1));
        assert_eq!(mon.min_slack(), None);
        assert_eq!(mon.observe(&"go", Rat::from(5), &1), Verdict::Ok);
        // Deadline 8, warn point 7.
        assert_eq!(mon.min_slack(), Some(Rat::from(3)));
        let v = mon.observe(&"noise", Rat::from(7 + 1), &1);
        assert!(v.is_warning());
        assert_eq!(mon.observe(&"fire", Rat::from(8), &1), Verdict::Ok);
        assert!(mon.is_ok());
    }

    #[test]
    fn predictor_metrics_record_warnings_and_slack() {
        let metrics = Arc::new(MonitorMetrics::new());
        let mut mon = Monitor::new(&[cond(0, 10)], &0u8)
            .with_metrics(Arc::clone(&metrics))
            .with_predictor(Rat::from(4));
        mon.observe(&"noise", Rat::from(7), &1); // warn point 6 passed
        mon.observe(&"fire", Rat::from(8), &1);
        let s = metrics.snapshot();
        assert_eq!(s.warnings, 1);
        assert_eq!(s.min_slack, Some(Rat::from(3))); // 10 − 7 at the warned event
    }

    #[test]
    #[should_panic(expected = "before observing")]
    fn predictor_after_events_panics() {
        let mut mon = Monitor::new(&[cond(0, 4)], &0u8);
        mon.observe(&"noise", Rat::from(1), &1);
        let _ = mon.with_predictor(Rat::ZERO);
    }

    #[test]
    fn shared_compiled_set_serves_many_streams() {
        let set = Arc::new(CompiledConditionSet::new(&[cond(2, 4)]));
        let mut a = Monitor::from_compiled(Arc::clone(&set), &0u8);
        let mut b = Monitor::from_compiled(Arc::clone(&set), &0u8);
        assert!(!a.observe(&"fire", Rat::from(1), &1).is_ok()); // early
        assert!(b.observe(&"fire", Rat::from(3), &1).is_ok()); // in window
        assert!(!a.is_ok());
        assert!(b.is_ok());
    }

    #[test]
    fn resumed_monitor_continues_the_stream_exactly() {
        let c = cond(2, 10);
        // Original: trigger at start, snapshot after one quiet event.
        let mut original = Monitor::new(std::slice::from_ref(&c), &0u8);
        assert_eq!(original.observe(&"noise", Rat::from(1), &1), Verdict::Ok);
        let snapshot = original.engine_state().clone();

        let mut restored = Monitor::resume(std::slice::from_ref(&c), snapshot, &1u8, None);
        assert_eq!(restored.events_seen(), 1);
        assert_eq!(restored.open_obligations(), 2);
        // The restored monitor sees the same early fire the original
        // would have: a lower violation at event index 2.
        let (r1, r2) = (
            original.observe(&"fire", Rat::from(1), &1),
            restored.observe(&"fire", Rat::from(1), &1),
        );
        assert_eq!(r1, r2);
        assert!(matches!(r2, Verdict::LowerBoundViolation(_)));
    }

    #[test]
    fn resume_rearms_the_predictor_without_rewarning() {
        // Snapshot *after* the warning fired: the restored predictor
        // must not warn for the same obligation again.
        let mut original = Monitor::new(&[cond(0, 10)], &0u8).with_predictor(Rat::from(3));
        assert!(original.observe(&"noise", Rat::from(8), &1).is_warning());
        let snapshot = original.engine_state().clone();
        let mut restored = Monitor::resume(&[cond(0, 10)], snapshot, &1u8, Some(Rat::from(3)));
        assert_eq!(restored.observe(&"noise", Rat::from(9), &1), Verdict::Ok);
        assert!(restored.warnings().is_empty());
        // Snapshot *before* the warning point: the restored predictor
        // picks the warning up.
        let mut original = Monitor::new(&[cond(0, 10)], &0u8).with_predictor(Rat::from(3));
        assert_eq!(original.observe(&"noise", Rat::from(5), &1), Verdict::Ok);
        let snapshot = original.engine_state().clone();
        let mut restored = Monitor::resume(&[cond(0, 10)], snapshot, &1u8, Some(Rat::from(3)));
        let v = restored.observe(&"noise", Rat::from(8), &1);
        assert_eq!(v.warning().expect("restored warning").at, Rat::from(7));
        assert_eq!(restored.min_slack(), Some(Rat::from(2)));
    }

    fn guarded(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_by_step(|_, a, _| *a == "go")
            .on_actions(|a| *a == "fire")
    }

    #[test]
    fn forced_window_reported_at_the_trigger() {
        let mut mon = Monitor::new(&[guarded(5, 20)], &0u8).with_predictor(Rat::from(3));
        let v = mon.observe(&"go", Rat::from(2), &1);
        let fw = v.forced().expect("margin 5 covers horizon 3");
        assert_eq!(&*fw.condition, "C");
        assert_eq!(fw.condition_index, 0);
        assert_eq!(fw.earliest, Rat::from(7));
        assert_eq!(fw.at, Rat::from(2));
        assert_eq!(fw.margin, Rat::from(5));
        assert_eq!(fw.horizon, Rat::from(3));
        assert!(
            v.is_ok(),
            "a forced window is a prediction, not a violation"
        );
        // The Ft query agrees while the window is open…
        assert_eq!(mon.earliest_legal(&"fire"), Some(Rat::from(7)));
        assert_eq!(mon.earliest_legal(&"go"), None);
        // …and clears once the window closes; the report stays history.
        assert_eq!(mon.observe(&"noise", Rat::from(7), &1), Verdict::Ok);
        assert_eq!(mon.earliest_legal(&"fire"), None);
        assert_eq!(mon.forced().len(), 1);
        assert_eq!(mon.observe(&"fire", Rat::from(8), &1), Verdict::Ok);
        let (violations, _, forced) = mon.finish_full(SatisfactionMode::Complete);
        assert!(violations.is_empty());
        assert_eq!(forced.len(), 1);
    }

    #[test]
    fn short_margins_and_zero_horizon_force_nothing() {
        // Margin 2 < horizon 3: below the reporting threshold.
        let mut mon = Monitor::new(&[guarded(2, 20)], &0u8).with_predictor(Rat::from(3));
        assert_eq!(mon.observe(&"go", Rat::from(2), &1), Verdict::Ok);
        assert!(mon.forced().is_empty());
        // The query still answers: Ft is state, not a report.
        assert_eq!(mon.earliest_legal(&"fire"), Some(Rat::from(4)));
        // Horizon 0: forced reporting is entirely off.
        let mut mon = Monitor::new(&[guarded(5, 20)], &0u8).with_predictor(Rat::ZERO);
        assert_eq!(mon.observe(&"go", Rat::from(2), &1), Verdict::Ok);
        assert!(mon.forced().is_empty());
    }

    #[test]
    fn warning_takes_verdict_precedence_over_forced() {
        // One event both warns (open deadline from a start trigger) and
        // opens a forced window (step trigger): the warning wins the
        // verdict, both payloads are recorded.
        let near = cond(0, 4); // start-trigger deadline 4, warn at 1
        let wide = guarded(10, 20);
        let mut mon = Monitor::new(&[near, wide], &0u8).with_predictor(Rat::from(3));
        let v = mon.observe(&"go", Rat::from(2), &0);
        assert!(v.is_warning());
        assert_eq!(mon.warnings().len(), 1);
        assert_eq!(mon.forced().len(), 1);
    }

    #[test]
    fn shared_names_do_not_allocate_per_warning() {
        let mut mon = Monitor::new(&[cond(0, 4)], &0u8).with_predictor(Rat::from(2));
        assert!(mon.observe(&"noise", Rat::from(3), &1).is_warning());
        let w = &mon.warnings()[0];
        // The warning shares the compiled set's interned name.
        assert!(Arc::ptr_eq(&w.condition, mon.compiled().shared_name(0)));
    }
}
