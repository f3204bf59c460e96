//! The monomorphized integer-time engine backend: Definition 3.1's
//! obligation stepper over `u64` ticks, with the open-obligation table
//! laid out struct-of-arrays.
//!
//! The exact engine ([`super`]) pays `Rat` arithmetic — `i128`
//! normalization, gcd fast paths notwithstanding — on every bound
//! check, even though every shipped system's bounds are integral and
//! Definition 3.1 only ever *compares* times. When
//! [`CompiledConditionSet`](super::CompiledConditionSet) detects at
//! build time that all bounds fit a common `u64` tick domain (an
//! [`IntPlan`]), the engine runs here instead:
//!
//! * **Integer time.** Bounds and event times are scaled by the LCM of
//!   the bound denominators ([`tempo_math::TimeScale`]) into `u64`
//!   ticks; deadline arithmetic is a machine add, comparison a machine
//!   compare, and conversion back to exact [`Rat`]s happens only on the
//!   cold reporting paths (violations, lifecycle logs, snapshots).
//! * **Struct-of-arrays obligations.** Open deadlines live in one flat
//!   `u64` array with condition ids and trigger indices in parallel
//!   arrays (windows likewise), so the resolve scan is a tight loop
//!   over contiguous words with no per-obligation pointer chasing — and
//!   cached `min deadline` / `min earliest` watermarks let a quiescent
//!   event skip the scan entirely: an event that serves nothing and
//!   passes no watermark costs `O(active conditions / 64)` regardless
//!   of how many obligations are open.
//! * **Exact or refused.** Scaling is never approximate: an event time
//!   the scale cannot represent (or that would push a deadline past
//!   `u64::MAX`) makes the engine **spill** — the state converts
//!   losslessly to the exact backend ([`IntEngineState::to_exact`]) and
//!   the stream continues on `Rat`s with identical verdicts.
//!
//! Semantics are pinned to the exact engine by the differential
//! property net (`tests/prop_int_engine.rs`): pointwise-equal verdicts
//! on arbitrary integral-bound condition sets, with the exact engine as
//! the oracle.

use tempo_math::{Rat, TimeScale};

use super::{
    bit_clear, bit_set, Classify, CompiledConditionSet, CondSpec, EngineEvent, EngineState,
    Obligation, ObligationKind, OpenOb,
};
use crate::satisfaction::{SatisfactionMode, ViolationKind};

/// Sentinel in [`IntPlan::upper`] for an infinite upper bound (no
/// deadline obligation ever opens). A real scaled bound of `u64::MAX`
/// is refused at plan time, so the sentinel is unambiguous.
pub(crate) const NO_DEADLINE: u64 = u64::MAX;

/// Sentinel in [`IntEngineState::up_warn`] for an entry whose warning
/// has already been emitted — or never applies (prediction off). Real
/// warn ticks are capped just below it, so the sentinel is unambiguous.
const WARNED: u64 = u64::MAX;

/// The compiled integer-time lowering of a condition set's bound table:
/// the shared [`TimeScale`] plus each condition's bounds as tick
/// counts. Built once per [`CompiledConditionSet`] (or per offline
/// spec table) when — and only when — every bound converts exactly.
#[derive(Clone, Debug)]
pub(crate) struct IntPlan {
    /// The tick scale every time in this plan is expressed in.
    pub(crate) scale: TimeScale,
    /// Per-condition `b_l` in ticks (0 = no window obligation opens).
    pub(crate) lower: Vec<u64>,
    /// Per-condition finite `b_u` in ticks ([`NO_DEADLINE`] = ∞).
    pub(crate) upper: Vec<u64>,
    /// Per-condition `lower_escape` bits (word-packed): whether a
    /// disabling state discharges an open window (Definition 2.2/3.1:
    /// yes; Definition 2.1: no).
    pub(crate) escape: Vec<u64>,
    /// The largest finite bound in ticks — the overflow headroom the
    /// per-event spill check needs: while `ticks ≤ u64::MAX −
    /// max_bound`, every deadline this event can open fits.
    pub(crate) max_bound: u64,
}

impl IntPlan {
    /// Lowers a bound table into the integer domain, or `None` when any
    /// bound refuses exact conversion (non-`u64` denominator LCM,
    /// negative or oversized scaled value) — the engine then stays on
    /// exact arithmetic.
    pub(crate) fn from_specs(specs: &[CondSpec]) -> Option<IntPlan> {
        let scale = TimeScale::for_denominators(
            specs
                .iter()
                .flat_map(|s| [Some(s.lower), s.upper].into_iter().flatten())
                .map(Rat::denom),
        )?;
        let mut plan = IntPlan {
            scale,
            lower: Vec::with_capacity(specs.len()),
            upper: Vec::with_capacity(specs.len()),
            escape: vec![0; specs.len().div_ceil(64).max(1)],
            max_bound: 0,
        };
        for (ci, s) in specs.iter().enumerate() {
            let lo = scale.to_ticks(s.lower)?;
            let up = match s.upper {
                Some(u) => {
                    let t = scale.to_ticks(u)?;
                    // A scaled bound of u64::MAX would collide with the
                    // ∞ sentinel; refuse (and force the exact engine).
                    if t == NO_DEADLINE {
                        return None;
                    }
                    t
                }
                None => NO_DEADLINE,
            };
            plan.lower.push(lo);
            plan.upper.push(up);
            if s.lower_escape {
                bit_set(&mut plan.escape, ci);
            }
            plan.max_bound = plan.max_bound.max(lo);
            if up != NO_DEADLINE {
                plan.max_bound = plan.max_bound.max(up);
            }
        }
        Some(plan)
    }

    /// Whether an event at `ticks` can be stepped without any deadline
    /// arithmetic overflowing. Past this point the engine spills to
    /// exact *before* mutating any state, so a step is never partial.
    #[inline]
    pub(crate) fn safe_ticks(&self, ticks: u64) -> bool {
        ticks <= u64::MAX - self.max_bound
    }
}

/// The integer backend's whole mutable state: the open obligations as
/// parallel flat arrays (deadlines / condition ids / trigger indices,
/// and likewise for lower windows) plus the stream position in ticks.
///
/// This is the struct-of-arrays twin of the exact
/// [`EngineState`](super::EngineState): same logical content, no
/// per-condition `Vec<Obligation>` boxes. Snapshots always go through
/// the exact form (the tick-to-`Rat` conversion is lossless), so
/// serialization and hot-reload remapping are backend-agnostic.
#[derive(Clone, Debug)]
pub struct IntEngineState {
    /// The scale its tick values are expressed in.
    scale: TimeScale,
    // Open upper (deadline) obligations, struct-of-arrays.
    up_deadline: Vec<u64>,
    up_ci: Vec<u32>,
    up_trigger: Vec<u64>,
    /// Per-deadline warning tick (parallel to `up_deadline`):
    /// `max(deadline − horizon, t_i)` in ticks, or [`WARNED`] once the
    /// warning fired (or when prediction is off — entries are then born
    /// warned, so the sweep never inspects them).
    up_warn: Vec<u64>,
    // Open lower (window) obligations, struct-of-arrays.
    lo_earliest: Vec<u64>,
    lo_ci: Vec<u32>,
    lo_trigger: Vec<u64>,
    /// Smallest open deadline (`u64::MAX` when none): an event at
    /// `ticks ≤ min_deadline` that serves nothing skips the upper scan.
    min_deadline: u64,
    /// Smallest open window end (`u64::MAX` when none), gating the
    /// lower scan the same way.
    min_earliest: u64,
    /// Smallest pending (unwarned) warning tick (`u64::MAX` when none):
    /// the generalization of `min_deadline` that keeps prediction off
    /// the quiescent-event fast path — an event at `ticks ≤
    /// warn_watermark` skips the warning sweep with one compare.
    warn_watermark: u64,
    /// The prediction horizon in ticks (0 when prediction is off).
    h_ticks: u64,
    /// Whether prediction is armed: new deadlines get real warn ticks
    /// and qualifying lower windows emit [`EngineEvent::Forced`].
    predict: bool,
    /// The exact-domain horizon, kept for lossless spill to the exact
    /// backend (`h_ticks` alone would lose an off-unit-scale value).
    horizon: Option<Rat>,
    /// Bitmask of conditions with ≥ 1 open obligation (either kind).
    active: Vec<u64>,
    /// Per-condition open-obligation count, keeping `active` in sync
    /// across struct-of-arrays removals.
    open_count: Vec<u32>,
    /// Per-event scratch: which active conditions the event's action
    /// serves (`Π`) / disables — filled by the pre-scan, read by the
    /// resolve scans.
    pi_mask: Vec<u64>,
    dis_mask: Vec<u64>,
    last_ticks: u64,
    events_seen: usize,
    /// Reusable event-log buffer (exact-domain events: ticks convert to
    /// `Rat` only here, on the cold emission path).
    events: Vec<EngineEvent>,
    log_lifecycle: bool,
}

impl IntEngineState {
    /// Empty state for `conditions` conditions at `scale`, no
    /// obligations open.
    pub(crate) fn new(conditions: usize, scale: TimeScale) -> IntEngineState {
        let words = conditions.div_ceil(64).max(1);
        IntEngineState {
            scale,
            up_deadline: Vec::new(),
            up_ci: Vec::new(),
            up_trigger: Vec::new(),
            up_warn: Vec::new(),
            lo_earliest: Vec::new(),
            lo_ci: Vec::new(),
            lo_trigger: Vec::new(),
            min_deadline: u64::MAX,
            min_earliest: u64::MAX,
            warn_watermark: u64::MAX,
            h_ticks: 0,
            predict: false,
            horizon: None,
            active: vec![0; words],
            open_count: vec![0; conditions],
            pi_mask: vec![0; words],
            dis_mask: vec![0; words],
            last_ticks: 0,
            events_seen: 0,
            events: Vec::new(),
            log_lifecycle: true,
        }
    }

    /// Number of conditions this state tracks.
    pub fn conditions(&self) -> usize {
        self.open_count.len()
    }

    /// Number of events stepped so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Total number of currently open obligations.
    pub fn open_obligations(&self) -> usize {
        self.up_deadline.len() + self.lo_earliest.len()
    }

    /// The tick scale this state's times are expressed in.
    pub fn scale(&self) -> TimeScale {
        self.scale
    }

    /// Time of the last stepped event, in the exact domain.
    pub(crate) fn last_time(&self) -> Rat {
        self.scale.from_ticks(self.last_ticks)
    }

    /// The armed prediction horizon, in the exact domain (`None` when
    /// prediction is off).
    pub(crate) fn horizon(&self) -> Option<Rat> {
        self.horizon
    }

    /// The tightest open deadline in the exact domain. O(1): the
    /// `min_deadline` watermark is recomputed by every scan that
    /// removes a deadline and min-folded by every open, so it is the
    /// true minimum at all times — not merely a stale-low gate.
    pub(crate) fn min_deadline_rat(&self) -> Option<Rat> {
        (self.min_deadline != u64::MAX).then(|| self.scale.from_ticks(self.min_deadline))
    }

    /// Visits every open lower window as `(ci, earliest)` in the exact
    /// domain — the `Ft` query's iteration hook.
    pub(crate) fn for_each_open_lower(&self, f: &mut impl FnMut(usize, Rat)) {
        for k in 0..self.lo_earliest.len() {
            f(
                self.lo_ci[k] as usize,
                self.scale.from_ticks(self.lo_earliest[k]),
            );
        }
    }

    pub(crate) fn set_log_lifecycle(&mut self, on: bool) {
        self.log_lifecycle = on;
    }

    /// The reusable event-log buffer — consumers that move violations
    /// out (the offline folds) drain it in place.
    pub(crate) fn events_mut(&mut self) -> &mut Vec<EngineEvent> {
        &mut self.events
    }

    /// Materializes condition `ci`'s open obligations in the exact
    /// domain, ordered by (trigger, window-before-deadline) — the order
    /// the exact engine opens them in.
    pub(crate) fn open_of(&self, ci: usize) -> Vec<Obligation> {
        let mut obs: Vec<(u64, bool, u64)> = Vec::new();
        for k in 0..self.lo_earliest.len() {
            if self.lo_ci[k] as usize == ci {
                obs.push((self.lo_trigger[k], false, self.lo_earliest[k]));
            }
        }
        for k in 0..self.up_deadline.len() {
            if self.up_ci[k] as usize == ci {
                obs.push((self.up_trigger[k], true, self.up_deadline[k]));
            }
        }
        obs.sort_unstable();
        obs.into_iter()
            .map(|(ti, is_upper, t)| Obligation {
                trigger_index: ti as usize,
                kind: if is_upper {
                    ObligationKind::Upper {
                        deadline: self.scale.from_ticks(t),
                    }
                } else {
                    ObligationKind::Lower {
                        earliest: self.scale.from_ticks(t),
                    }
                },
            })
            .collect()
    }

    /// Converts losslessly to the exact backend's state: tick values
    /// become the `Rat`s they represent exactly. This is the spill path
    /// (an unrepresentable event time mid-stream), the snapshot path
    /// (serialization is backend-agnostic), and the hot-reload path
    /// (remapping happens in the exact domain). The exact state's
    /// resolve watermarks start unknown, so its first event per
    /// condition scans and rebuilds them.
    pub(crate) fn to_exact(&self) -> EngineState {
        let n = self.conditions();
        let mut st = EngineState::new(n);
        st.last_time = self.last_time();
        st.events_seen = self.events_seen;
        st.log_lifecycle = self.log_lifecycle;
        st.horizon = self.horizon;
        for ci in 0..n {
            if self.open_count[ci] == 0 {
                continue;
            }
            for (ti, is_upper, t, warn) in self.open_with_warn(ci) {
                let ob = Obligation {
                    trigger_index: ti as usize,
                    kind: if is_upper {
                        ObligationKind::Upper {
                            deadline: self.scale.from_ticks(t),
                        }
                    } else {
                        ObligationKind::Lower {
                            earliest: self.scale.from_ticks(t),
                        }
                    },
                };
                let entry = if warn == WARNED {
                    OpenOb::plain(ob)
                } else {
                    let warn_at = self.scale.from_ticks(warn);
                    st.warn_watermark = Some(st.warn_watermark.map_or(warn_at, |w| w.min(warn_at)));
                    OpenOb {
                        ob,
                        warn_at,
                        warned: false,
                    }
                };
                st.open[ci].push(entry);
                bit_set(&mut st.active, ci);
            }
        }
        st
    }

    /// Condition `ci`'s open obligations as raw `(trigger, is_upper,
    /// tick, warn_tick)` rows in canonical (trigger,
    /// window-before-deadline) order — the warn-state-carrying walk
    /// behind [`to_exact`](IntEngineState::to_exact) and the finish
    /// path. Lowers carry [`WARNED`] (warnings only apply to deadlines).
    fn open_with_warn(&self, ci: usize) -> Vec<(u64, bool, u64, u64)> {
        let mut obs: Vec<(u64, bool, u64, u64)> = Vec::new();
        for k in 0..self.lo_earliest.len() {
            if self.lo_ci[k] as usize == ci {
                obs.push((self.lo_trigger[k], false, self.lo_earliest[k], WARNED));
            }
        }
        for k in 0..self.up_deadline.len() {
            if self.up_ci[k] as usize == ci {
                obs.push((
                    self.up_trigger[k],
                    true,
                    self.up_deadline[k],
                    self.up_warn[k],
                ));
            }
        }
        obs.sort_unstable();
        obs
    }

    /// The reverse adoption: lifts an exact state into this plan's tick
    /// domain, or `None` when any open obligation's time (or the stream
    /// position) refuses exact conversion — the stream then stays on
    /// the exact backend.
    pub(crate) fn from_exact(plan: &IntPlan, st: &EngineState) -> Option<IntEngineState> {
        let mut out = IntEngineState::new(st.open.len(), plan.scale);
        out.last_ticks = plan.scale.to_ticks(st.last_time)?;
        if !plan.safe_ticks(out.last_ticks) {
            return None;
        }
        out.events_seen = st.events_seen;
        out.log_lifecycle = st.log_lifecycle;
        if let Some(h) = st.horizon {
            out.h_ticks = plan.scale.to_ticks(h)?;
            out.predict = true;
            out.horizon = Some(h);
        }
        for (ci, obs) in st.open.iter().enumerate() {
            for o in obs {
                let ti = o.ob.trigger_index as u64;
                match o.ob.kind {
                    ObligationKind::Lower { earliest } => {
                        let t = plan.scale.to_ticks(earliest)?;
                        out.lo_earliest.push(t);
                        out.lo_ci.push(ci as u32);
                        out.lo_trigger.push(ti);
                        out.min_earliest = out.min_earliest.min(t);
                    }
                    ObligationKind::Upper { deadline } => {
                        let t = plan.scale.to_ticks(deadline)?;
                        let warn = if o.warned {
                            WARNED
                        } else {
                            let w = plan.scale.to_ticks(o.warn_at)?.min(WARNED - 1);
                            out.warn_watermark = out.warn_watermark.min(w);
                            w
                        };
                        out.up_deadline.push(t);
                        out.up_ci.push(ci as u32);
                        out.up_trigger.push(ti);
                        out.up_warn.push(warn);
                        out.min_deadline = out.min_deadline.min(t);
                    }
                }
                out.open_count[ci] += 1;
                bit_set(&mut out.active, ci);
            }
        }
        Some(out)
    }

    /// Opens a trigger's (up to two) obligations at trigger time
    /// `ticks` and logs them — the integer twin of
    /// [`EngineState::open_trigger`], and like it pinned inline so the
    /// open phase stays in the steppers' loop bodies.
    #[inline(always)]
    pub(crate) fn open_trigger(
        &mut self,
        plan: &IntPlan,
        ci: usize,
        trigger_index: usize,
        ticks: u64,
    ) {
        let b_l = plan.lower[ci];
        if b_l > 0 {
            // Cannot overflow: the caller's `safe_ticks` precheck
            // guarantees `ticks + max_bound` fits.
            let earliest = ticks + b_l;
            self.lo_earliest.push(earliest);
            self.lo_ci.push(ci as u32);
            self.lo_trigger.push(trigger_index as u64);
            self.min_earliest = self.min_earliest.min(earliest);
            self.open_count[ci] += 1;
            bit_set(&mut self.active, ci);
            if self.log_lifecycle {
                self.events.push(EngineEvent::Opened {
                    ci,
                    obligation: Obligation {
                        trigger_index,
                        kind: ObligationKind::Lower {
                            earliest: self.scale.from_ticks(earliest),
                        },
                    },
                    t_i: self.scale.from_ticks(ticks),
                });
            }
            // Ft(U) at open: the whole window clears the horizon, so
            // report the forced window once, now. Rat conversions here
            // are per-trigger (not per-event) and only on predictive
            // streams with qualifying margins.
            if self.predict && self.h_ticks > 0 && b_l >= self.h_ticks {
                self.events.push(EngineEvent::Forced {
                    ci,
                    trigger_index,
                    earliest: self.scale.from_ticks(earliest),
                    t_i: self.scale.from_ticks(ticks),
                    margin: self.scale.from_ticks(b_l),
                });
            }
        }
        let b_u = plan.upper[ci];
        if b_u != NO_DEADLINE {
            let deadline = ticks + b_u;
            self.up_deadline.push(deadline);
            self.up_ci.push(ci as u32);
            self.up_trigger.push(trigger_index as u64);
            if self.predict {
                // warn tick = deadline − min(h, b_u) = max(deadline − h,
                // t_i); capped below the sentinel (reachable only when
                // the deadline itself is u64::MAX, past any steppable
                // event time anyway).
                let w = (deadline - self.h_ticks.min(b_u)).min(WARNED - 1);
                self.warn_watermark = self.warn_watermark.min(w);
                self.up_warn.push(w);
            } else {
                self.up_warn.push(WARNED);
            }
            self.min_deadline = self.min_deadline.min(deadline);
            self.open_count[ci] += 1;
            bit_set(&mut self.active, ci);
            if self.log_lifecycle {
                self.events.push(EngineEvent::Opened {
                    ci,
                    obligation: Obligation {
                        trigger_index,
                        kind: ObligationKind::Upper {
                            deadline: self.scale.from_ticks(deadline),
                        },
                    },
                    t_i: self.scale.from_ticks(ticks),
                });
            }
        }
    }

    /// Removes one open obligation from the struct-of-arrays store,
    /// keeping the active mask in sync.
    #[inline]
    fn note_removed(&mut self, ci: usize) {
        self.open_count[ci] -= 1;
        if self.open_count[ci] == 0 {
            bit_clear(&mut self.active, ci);
        }
    }

    /// Emits a [`EngineEvent::Warned`] for every pending deadline whose
    /// warning point has passed strictly (`ticks > warn tick`), marks
    /// it [`WARNED`], and recomputes the watermark. Off the fast path:
    /// only entered when an event actually crosses `warn_watermark`.
    #[inline(never)]
    fn sweep_warnings(&mut self, ticks: u64) {
        let mark = self.events.len();
        let mut next = u64::MAX;
        for k in 0..self.up_warn.len() {
            let w = self.up_warn[k];
            if w == WARNED {
                continue;
            }
            if ticks > w {
                self.up_warn[k] = WARNED;
                self.events.push(EngineEvent::Warned {
                    ci: self.up_ci[k] as usize,
                    trigger_index: self.up_trigger[k] as usize,
                    deadline: self.scale.from_ticks(self.up_deadline[k]),
                    warn_at: self.scale.from_ticks(w),
                });
            } else {
                next = next.min(w);
            }
        }
        self.warn_watermark = next;
        if self.events.len() - mark > 1 {
            self.events[mark..].sort_by_key(|ev| match ev {
                EngineEvent::Warned {
                    ci, trigger_index, ..
                } => (*ci, *trigger_index),
                _ => (usize::MAX, usize::MAX),
            });
        }
    }
}

/// Sort key pinning the resolve phase's event order to (condition,
/// trigger, window-before-deadline) — deterministic across the separate
/// lower/upper array scans, and equal to the exact engine's
/// per-condition emission order in the common (unscrambled) case.
fn resolve_order(ev: &EngineEvent) -> (usize, usize, bool) {
    match ev {
        EngineEvent::Discharged { ci, obligation } => (
            *ci,
            obligation.trigger_index,
            matches!(obligation.kind, ObligationKind::Upper { .. }),
        ),
        EngineEvent::Violated { ci, kind } => match kind {
            ViolationKind::LowerBound { trigger_index, .. } => (*ci, *trigger_index, false),
            ViolationKind::UpperBound { trigger_index, .. } => (*ci, *trigger_index, true),
        },
        // The resolve phase never emits Opened, Warned, or Forced.
        EngineEvent::Opened { ci, obligation, .. } => (*ci, obligation.trigger_index, false),
        EngineEvent::Warned { .. } | EngineEvent::Forced { .. } => (usize::MAX, usize::MAX, true),
    }
}

/// Steps one classified event at (nondecreasing) `ticks` against the
/// struct-of-arrays obligation store — the integer twin of
/// [`step_specs`](super::step_specs), with identical Definition 3.1
/// semantics: existing obligations resolve first (a trigger's bounds
/// constrain strictly later events only), then the event's triggers
/// open new ones.
///
/// `dense` selects the open-phase strategy exactly as in the exact
/// steppers: word-mask trigger scans for sets with dispatch-table bits,
/// a per-condition predicate loop otherwise.
pub(crate) fn step_int<'a, C: Classify>(
    plan: &IntPlan,
    st: &'a mut IntEngineState,
    cls: &C,
    ticks: u64,
    dense: bool,
) -> &'a [EngineEvent] {
    assert!(
        ticks >= st.last_ticks,
        "monitored event times must be nondecreasing: {} after {}",
        st.scale.from_ticks(ticks),
        st.scale.from_ticks(st.last_ticks),
    );
    st.events.clear();
    st.events_seen += 1;
    let j = st.events_seen;

    // Warning sweep first: warnings report the passage of time, so they
    // precede whatever this event resolves (a deadline that violates on
    // this very event still gets its owed warning first). One compare on
    // the quiescent path — the watermark generalizes `min_deadline`.
    if ticks > st.warn_watermark {
        st.sweep_warnings(ticks);
    }

    // Pre-scan: classify the event against the *active* conditions only,
    // caching Π / disabling bits in the scratch masks. Quiescent
    // conditions are never classified; a fully quiescent event costs one
    // word read per 64 conditions.
    let words = st.active.len();
    let mut any_serve = 0u64;
    for w in 0..words {
        let mut act = st.active[w];
        let mut pw = 0u64;
        let mut dw = 0u64;
        while act != 0 {
            let b = act.trailing_zeros();
            act &= act - 1;
            let ci = w * 64 + b as usize;
            if cls.pi(ci) {
                pw |= 1u64 << b;
            }
            if cls.disabling(ci) {
                dw |= 1u64 << b;
            }
        }
        st.pi_mask[w] = pw;
        st.dis_mask[w] = dw;
        any_serve |= pw | dw;
    }

    // Resolve phase. The watermark gates are what make the flat store
    // cheap at scale: an event that serves nothing and passes no
    // min-deadline/min-earliest skips the scans entirely, so 100k
    // quiescent obligations cost the same as one.
    let resolved_from = st.events.len();
    if any_serve != 0 || ticks >= st.min_earliest {
        let mut min_e = u64::MAX;
        let mut k = 0;
        while k < st.lo_earliest.len() {
            let e = st.lo_earliest[k];
            let ci = st.lo_ci[k] as usize;
            let (w, b) = (ci / 64, ci % 64);
            // Definition 3.1 order: the closed window discharges before
            // the Π check, and only an *escaping* lower bound lets a
            // disabling state discharge it.
            let violated = ticks < e && st.pi_mask[w] & (1u64 << b) != 0;
            let discharged = ticks >= e
                || (!violated
                    && st.dis_mask[w] & (1u64 << b) != 0
                    && plan.escape[w] & (1u64 << b) != 0);
            if !violated && !discharged {
                min_e = min_e.min(e);
                k += 1;
                continue;
            }
            let ti = st.lo_trigger[k] as usize;
            st.lo_earliest.swap_remove(k);
            st.lo_ci.swap_remove(k);
            st.lo_trigger.swap_remove(k);
            st.note_removed(ci);
            if violated {
                st.events.push(EngineEvent::Violated {
                    ci,
                    kind: ViolationKind::LowerBound {
                        trigger_index: ti,
                        event_index: j,
                        earliest: st.scale.from_ticks(e),
                    },
                });
            } else if st.log_lifecycle {
                st.events.push(EngineEvent::Discharged {
                    ci,
                    obligation: Obligation {
                        trigger_index: ti,
                        kind: ObligationKind::Lower {
                            earliest: st.scale.from_ticks(e),
                        },
                    },
                });
            }
        }
        st.min_earliest = min_e;
    }
    if any_serve != 0 || ticks > st.min_deadline {
        let mut min_d = u64::MAX;
        let mut k = 0;
        while k < st.up_deadline.len() {
            let d = st.up_deadline[k];
            let ci = st.up_ci[k] as usize;
            let (w, b) = (ci / 64, ci % 64);
            // Past-deadline wins over same-event service: times are
            // nondecreasing, so the deadline definitely passed unserved.
            let violated = ticks > d;
            let discharged = !violated && (st.pi_mask[w] | st.dis_mask[w]) & (1u64 << b) != 0;
            if !violated && !discharged {
                min_d = min_d.min(d);
                k += 1;
                continue;
            }
            let ti = st.up_trigger[k] as usize;
            st.up_deadline.swap_remove(k);
            st.up_ci.swap_remove(k);
            st.up_trigger.swap_remove(k);
            st.up_warn.swap_remove(k);
            st.note_removed(ci);
            if violated {
                st.events.push(EngineEvent::Violated {
                    ci,
                    kind: ViolationKind::UpperBound {
                        trigger_index: ti,
                        deadline: st.scale.from_ticks(d),
                    },
                });
            } else if st.log_lifecycle {
                st.events.push(EngineEvent::Discharged {
                    ci,
                    obligation: Obligation {
                        trigger_index: ti,
                        kind: ObligationKind::Upper {
                            deadline: st.scale.from_ticks(d),
                        },
                    },
                });
            }
        }
        st.min_deadline = min_d;
    }
    // The two array scans emit in store order; pin the consumer-visible
    // order to (condition, trigger) like the exact engine's
    // per-condition walk — sorting only the resolve slice, so
    // sweep-emitted warnings keep their place ahead of it. Only paid
    // when something actually resolved.
    if st.events.len() - resolved_from > 1 {
        st.events[resolved_from..].sort_by_key(resolve_order);
    }

    // Open phase — identical shape to the exact steppers.
    if dense {
        for w in 0..words {
            let mut trig = cls.trigger_word(w);
            while trig != 0 {
                let ci = w * 64 + trig.trailing_zeros() as usize;
                trig &= trig - 1;
                st.open_trigger(plan, ci, j, ticks);
            }
        }
    } else {
        for ci in 0..st.open_count.len() {
            if cls.trigger(ci) {
                st.open_trigger(plan, ci, j, ticks);
            }
        }
    }
    st.last_ticks = ticks;
    &st.events
}

/// Ends the stream on the integer backend: the twin of
/// [`finish_specs`](super::finish_specs). Under
/// [`SatisfactionMode::Complete`] every open deadline violates; open
/// windows (and, under Prefix, open deadlines) discharge. Emission is
/// ordered by (condition, trigger) for cross-backend determinism.
pub(crate) fn finish_int(st: &mut IntEngineState, mode: SatisfactionMode) -> &[EngineEvent] {
    st.events.clear();
    for ci in 0..st.conditions() {
        if st.open_count[ci] == 0 {
            continue;
        }
        for (ti, is_upper, t, warn) in st.open_with_warn(ci) {
            let trigger_index = ti as usize;
            if is_upper && matches!(mode, SatisfactionMode::Complete) {
                let deadline = st.scale.from_ticks(t);
                // End-of-stream is "time ran out": a still-pending
                // warning is owed before the violation it predicted.
                if warn != WARNED {
                    st.events.push(EngineEvent::Warned {
                        ci,
                        trigger_index,
                        deadline,
                        warn_at: st.scale.from_ticks(warn),
                    });
                }
                st.events.push(EngineEvent::Violated {
                    ci,
                    kind: ViolationKind::UpperBound {
                        trigger_index,
                        deadline,
                    },
                });
            } else if st.log_lifecycle {
                st.events.push(EngineEvent::Discharged {
                    ci,
                    obligation: Obligation {
                        trigger_index,
                        kind: if is_upper {
                            ObligationKind::Upper {
                                deadline: st.scale.from_ticks(t),
                            }
                        } else {
                            ObligationKind::Lower {
                                earliest: st.scale.from_ticks(t),
                            }
                        },
                    },
                });
            }
        }
    }
    st.up_deadline.clear();
    st.up_ci.clear();
    st.up_trigger.clear();
    st.up_warn.clear();
    st.lo_earliest.clear();
    st.lo_ci.clear();
    st.lo_trigger.clear();
    st.min_deadline = u64::MAX;
    st.min_earliest = u64::MAX;
    st.warn_watermark = u64::MAX;
    st.active.fill(0);
    st.open_count.fill(0);
    &st.events
}

impl<S, A> CompiledConditionSet<S, A> {
    /// The integer twin of [`CompiledConditionSet::start`]: a fresh
    /// [`IntEngineState`] with the start-state obligations open, or
    /// `None` when the set has no int plan.
    pub(crate) fn start_int(&self, start: &S) -> Option<IntEngineState> {
        let plan = self.int_plan.as_ref()?;
        let mut st = IntEngineState::new(self.conds.len(), plan.scale);
        for (ci, c) in self.conds.iter().enumerate() {
            if c.in_t_start(start) {
                st.open_trigger(plan, ci, 0, 0);
            }
        }
        st.events.clear();
        Some(st)
    }

    /// Whether every bound of this set fits the integer-tick domain —
    /// i.e. whether the automatic backend selection picks the
    /// monomorphized integer engine. Sets with non-`u64`-scalable
    /// bounds (denominator LCM overflow, oversized or negative bounds)
    /// stay on the exact engine.
    pub fn int_capable(&self) -> bool {
        self.int_plan.is_some()
    }

    /// The tick scale of the integer backend, when
    /// [`int_capable`](CompiledConditionSet::int_capable): a
    /// denominator of 1 means all bounds were integral and conversion
    /// is a bare cast.
    pub fn int_scale(&self) -> Option<TimeScale> {
        self.int_plan.as_ref().map(|p| p.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lo: i64, hi: Option<i64>) -> CondSpec {
        CondSpec {
            lower: Rat::from(lo),
            upper: hi.map(Rat::from),
            lower_escape: true,
        }
    }

    #[test]
    fn plan_lowers_integral_bounds_to_unit_scale() {
        let plan = IntPlan::from_specs(&[spec(2, Some(5)), spec(0, None)]).unwrap();
        assert!(plan.scale.is_unit());
        assert_eq!(plan.lower, vec![2, 0]);
        assert_eq!(plan.upper, vec![5, NO_DEADLINE]);
        assert_eq!(plan.max_bound, 5);
    }

    #[test]
    fn plan_scales_rational_bounds() {
        let specs = [CondSpec {
            lower: Rat::new(1, 2),
            upper: Some(Rat::new(7, 3)),
            lower_escape: true,
        }];
        let plan = IntPlan::from_specs(&specs).unwrap();
        assert_eq!(plan.scale.denominator(), 6);
        assert_eq!(plan.lower, vec![3]);
        assert_eq!(plan.upper, vec![14]);
    }

    #[test]
    fn plan_refuses_unscalable_bounds() {
        // Denominator LCM overflow: coprime factors past u64.
        let a = CondSpec {
            lower: Rat::new(1, (1i128 << 32) + 1),
            upper: Some(Rat::new(1, (1i128 << 32) - 1)),
            lower_escape: true,
        };
        let b = CondSpec {
            lower: Rat::new(1, 7),
            upper: None,
            lower_escape: true,
        };
        assert!(IntPlan::from_specs(std::slice::from_ref(&a)).is_some());
        assert!(IntPlan::from_specs(&[a, b]).is_none());
        // A bound too large for u64 ticks.
        let big = CondSpec {
            lower: Rat::ZERO,
            upper: Some(Rat::from(1i128 << 70)),
            lower_escape: true,
        };
        assert!(IntPlan::from_specs(&[big]).is_none());
    }

    #[test]
    fn exact_round_trip_preserves_obligations() {
        let plan = IntPlan::from_specs(&[spec(2, Some(5)), spec(1, Some(9))]).unwrap();
        let mut st = IntEngineState::new(2, plan.scale);
        st.open_trigger(&plan, 0, 0, 0);
        st.open_trigger(&plan, 1, 3, 10);
        let exact = st.to_exact();
        assert_eq!(exact.open_obligations(), 4);
        let back = IntEngineState::from_exact(&plan, &exact).unwrap();
        assert_eq!(back.open_obligations(), 4);
        assert_eq!(back.open_of(0), st.open_of(0));
        assert_eq!(back.open_of(1), st.open_of(1));
        assert_eq!(back.min_deadline, 5);
        assert_eq!(back.min_earliest, 2);
        // Prediction off: every deadline is born warned, no watermark.
        assert_eq!(back.up_warn, vec![WARNED; 2]);
        assert_eq!(back.warn_watermark, u64::MAX);
    }

    #[test]
    fn predictive_round_trip_preserves_warning_state() {
        let plan = IntPlan::from_specs(&[spec(0, Some(5))]).unwrap();
        let mut st = IntEngineState::new(1, plan.scale);
        st.predict = true;
        st.h_ticks = 2;
        st.horizon = Some(Rat::from(2));
        st.open_trigger(&plan, 0, 1, 10); // deadline 15, warn point 13
        assert_eq!(st.up_warn, vec![13]);
        assert_eq!(st.warn_watermark, 13);
        let exact = st.to_exact();
        assert_eq!(exact.horizon(), Some(Rat::from(2)));
        let back = IntEngineState::from_exact(&plan, &exact).unwrap();
        assert!(back.predict);
        assert_eq!(back.h_ticks, 2);
        assert_eq!(back.up_warn, vec![13]);
        assert_eq!(back.warn_watermark, 13);
        // An off-grid horizon refuses the lift: the stream stays exact.
        let mut off = exact.clone();
        off.horizon = Some(Rat::new(1, 3));
        assert!(IntEngineState::from_exact(&plan, &off).is_none());
    }
}
