//! The compiled condition engine: **one** obligation stepper under every
//! evaluator of timing-condition semantics.
//!
//! Definition 3.1 (semi-satisfaction) used to be interpreted in several
//! places — the offline scanners in [`satisfaction`](crate::satisfies),
//! the incremental `tempo-monitor` `Monitor`, and the predictor's shadow
//! tracking — each re-evaluating the boxed trigger/action/disable
//! closures of every [`TimingCondition`] per event per consumer. This
//! module factors that out:
//!
//! * [`CompiledConditionSet`] interns a condition set once: the `Arc`'d
//!   predicates plus dense per-condition bound tables (`b_l`, finite
//!   `b_u`), and — for conditions whose `T_step`/`Π`/disabling
//!   components are declarative [`ActionSet`]s — an
//!   action **interner** (dense `u32` ids) with per-action bitmask rows
//!   (which conditions each action triggers / serves / disables). On the
//!   hot path, classifying an event against *n* declarative conditions
//!   is then one hash lookup plus a few word-sized table reads instead
//!   of *n* boxed-closure calls; conditions that keep opaque closures
//!   are tracked in per-component fallback masks and only they pay
//!   closure dispatch (see [`DispatchStats`]).
//! * [`EventClassification`] is the per-event digest — three bitsets
//!   (`Π`-membership, disabling post-state, `T_step` trigger) computed
//!   **once per event for all conditions**, then shared by every
//!   consumer.
//! * [`EngineState`] owns the open-obligation bookkeeping, and
//!   [`CompiledConditionSet::step`] resolves one event against it,
//!   returning the event's [`EngineEvent`] log (obligations opened,
//!   discharged, violated) from which offline violation lists, monitor
//!   verdicts, metrics, and predictor warnings are all derived.
//!
//! * The engine runs on one of two **backends** behind [`EngineImpl`]:
//!   the exact stepper over [`EngineState`] (`Rat` arithmetic,
//!   always available, the semantic reference), and a monomorphized
//!   integer-time stepper over [`IntEngineState`] — bounds scaled to
//!   `u64` ticks at compile time, obligations in a struct-of-arrays
//!   store — selected automatically when every bound fits the tick
//!   domain and **exactly** equivalent (conversion is exact-or-spill,
//!   never rounded; see [`CompiledConditionSet::int_capable`]).
//!
//! The offline checkers ([`violations`](crate::violations),
//! [`semi_satisfies`](crate::semi_satisfies),
//! [`check_timed_execution`](crate::check_timed_execution)) are folds of
//! this engine over a [`TimedSequence`]; the streaming monitor holds one
//! [`EngineImpl`] and feeds it live events. Agreement between them
//! holds by construction — they run the same code.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use tempo_math::Rat;

use crate::satisfaction::{SatisfactionMode, Violation, ViolationKind};
use crate::{ActionSet, TimedSequence, TimingCondition};

// The integer-time fast backend lives in its own file but is a *child*
// module, so it shares this module's private obligation bookkeeping
// (`EngineState` fields, `CondSpec`, the `Classify` carriers).
#[path = "engine_int.rs"]
mod int;

pub use int::IntEngineState;
pub(crate) use int::IntPlan;

/// What an open obligation is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObligationKind {
    /// No `Π`-event may occur strictly before `earliest` (unless a
    /// disabling state intervenes first).
    Lower {
        /// The earliest permitted absolute time `t_i + b_l`.
        earliest: Rat,
    },
    /// Some `Π`-event or disabling state must occur at time `≤ deadline`.
    Upper {
        /// The absolute deadline `t_i + b_u`.
        deadline: Rat,
    },
}

/// An open obligation: a trigger whose bound is still live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// Index of the trigger that opened it (0 = start-state trigger,
    /// `i ≥ 1` = step trigger at event `i`), matching the offline
    /// checker's `trigger_index`.
    pub trigger_index: usize,
    /// What the obligation waits for.
    pub kind: ObligationKind,
}

/// How an obligation was resolved by an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Still open: the event neither discharged nor violated it.
    Open,
    /// Discharged: the obligation can no longer be violated.
    Discharged,
    /// Violated by this event.
    Violated,
}

impl Obligation {
    /// Resolves the obligation against one event at (nondecreasing) time
    /// `t`, where `in_pi` says whether the event's action is in `Π` and
    /// `in_disabling` whether its *post*-state is in the disabling set.
    ///
    /// This is the single point where Definition 3.1's per-trigger
    /// semantics live, including the ordering subtlety that a disabling
    /// post-state excuses only *later* events, never the `Π`-check of
    /// its own event.
    #[inline]
    pub fn resolve(&self, t: Rat, in_pi: bool, in_disabling: bool) -> Resolution {
        self.resolve_in(t, in_pi, in_disabling, true)
    }

    /// [`resolve`](Obligation::resolve) with the lower bound's disabling
    /// escape made optional: Definition 2.1's lower bound (timed
    /// executions of a boundmap) has no escape clause, Definition 2.2's
    /// does.
    #[inline]
    fn resolve_in(
        &self,
        t: Rat,
        in_pi: bool,
        in_disabling: bool,
        lower_escape: bool,
    ) -> Resolution {
        match self.kind {
            ObligationKind::Lower { earliest } => {
                if t >= earliest {
                    // The forbidden window is over; nothing can violate it.
                    Resolution::Discharged
                } else if in_pi {
                    Resolution::Violated
                } else if lower_escape && in_disabling {
                    // An intervening disabling state suspends the bound
                    // for every later event, so the obligation is dead.
                    Resolution::Discharged
                } else {
                    Resolution::Open
                }
            }
            ObligationKind::Upper { deadline } => {
                if t > deadline {
                    // Times are nondecreasing: the deadline has definitely
                    // passed unserved.
                    Resolution::Violated
                } else if in_pi || in_disabling {
                    Resolution::Discharged
                } else {
                    Resolution::Open
                }
            }
        }
    }
}

/// One entry of the dense per-condition bound table: everything the
/// stepper needs about a condition, predicates excluded.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CondSpec {
    /// Cached `b_l` (a window obligation only opens when it is positive).
    pub(crate) lower: Rat,
    /// Cached finite `b_u`, if any (no deadline obligation opens for ∞).
    pub(crate) upper: Option<Rat>,
    /// Whether a disabling state discharges an open lower-bound window
    /// (Definitions 2.2/3.1: yes; Definition 2.1: no).
    pub(crate) lower_escape: bool,
}

/// The compiled action-dispatch tables of one condition set: an
/// interner from actions to dense ids plus, per interned action, three
/// bitmask rows over the conditions (triggered-by / `Π`-of /
/// disabled-by), precomputed from the conditions' declarative
/// [`ActionSet`]s. Row `ids.len()` is the **default row**, shared by
/// every action the interner has never seen — it carries the bits of
/// complement sets ([`ActionSet::AllExcept`]), which contain almost
/// every action.
///
/// Conditions whose component was built from an opaque closure instead
/// of a set have their bit in the corresponding `opaque_*` fallback
/// mask; classification ORs the table row with the closure results for
/// exactly those conditions.
struct Dispatch<A> {
    /// Interned ids of every action listed by some declarative set.
    ids: HashMap<A, u32>,
    /// Bitset words per row (`conditions.div_ceil(64)`).
    words: usize,
    /// `(ids.len() + 1) × words` rows: which conditions each action
    /// `T_step`-triggers.
    trigger: Vec<u64>,
    /// Which conditions' `Π` contain each action.
    pi: Vec<u64>,
    /// Which conditions each action disables.
    disabling: Vec<u64>,
    /// Conditions whose `T_step` is an opaque step predicate.
    opaque_trigger: Vec<u64>,
    /// Conditions whose `Π` is an opaque action predicate.
    opaque_pi: Vec<u64>,
    /// Conditions whose disabling set is an opaque *state* predicate.
    opaque_disabling: Vec<u64>,
    /// Whether any table row carries a bit at all. A fully opaque set
    /// (and one whose declarative sets are all empty) has none — the
    /// stepper then skips the word-mask scans entirely and runs the
    /// plain per-condition loop, so closure-only sets pay nothing for
    /// the dispatch machinery they don't use.
    dense: bool,
}

impl<A: Clone + Eq + Hash> Dispatch<A> {
    fn build<S>(conds: &[TimingCondition<S, A>]) -> Dispatch<A> {
        let words = conds.len().div_ceil(64).max(1);
        // Pass 1: intern every action any declarative set mentions.
        let mut ids: HashMap<A, u32> = HashMap::new();
        for c in conds {
            for set in [c.trigger_set(), c.pi_set(), c.disabling_set()]
                .into_iter()
                .flatten()
            {
                for a in set.listed() {
                    let next = ids.len() as u32;
                    ids.entry(a.clone()).or_insert(next);
                }
            }
        }
        let rows = ids.len() + 1; // + the default row
        let mut d = Dispatch {
            ids,
            words,
            trigger: vec![0; rows * words],
            pi: vec![0; rows * words],
            disabling: vec![0; rows * words],
            opaque_trigger: vec![0; words],
            opaque_pi: vec![0; words],
            opaque_disabling: vec![0; words],
            dense: false,
        };
        // Pass 2: fill each component's column for every condition.
        for (ci, c) in conds.iter().enumerate() {
            Dispatch::fill(
                &d.ids,
                words,
                &mut d.trigger,
                &mut d.opaque_trigger,
                ci,
                c.trigger_set(),
            );
            Dispatch::fill(&d.ids, words, &mut d.pi, &mut d.opaque_pi, ci, c.pi_set());
            Dispatch::fill(
                &d.ids,
                words,
                &mut d.disabling,
                &mut d.opaque_disabling,
                ci,
                c.disabling_set(),
            );
        }
        d.dense = [&d.trigger, &d.pi, &d.disabling]
            .iter()
            .any(|t| t.iter().any(|&w| w != 0));
        d
    }

    /// Sets condition `ci`'s bit in the rows its set dictates (or in the
    /// opaque fallback mask when there is no set).
    fn fill(
        ids: &HashMap<A, u32>,
        words: usize,
        table: &mut [u64],
        opaque: &mut [u64],
        ci: usize,
        set: Option<&ActionSet<A>>,
    ) {
        match set {
            None => bit_set(opaque, ci),
            Some(ActionSet::Of(list)) => {
                for a in list {
                    let row = ids[a] as usize;
                    bit_set(&mut table[row * words..(row + 1) * words], ci);
                }
            }
            Some(ActionSet::AllExcept(list)) => {
                // Every row — the default row included — gets the bit,
                // then the listed exceptions lose it again.
                let rows = table.len() / words;
                for row in 0..rows {
                    bit_set(&mut table[row * words..(row + 1) * words], ci);
                }
                for a in list {
                    let row = ids[a] as usize;
                    bit_clear(&mut table[row * words..(row + 1) * words], ci);
                }
            }
        }
    }
}

impl<A: Eq + Hash> Dispatch<A> {
    /// The row index for `a`: its interned id, or the default row for an
    /// action no declarative set ever listed. When nothing is interned
    /// at all (a fully opaque set) the lookup — including the hash — is
    /// skipped entirely.
    #[inline]
    fn row_of(&self, a: &A) -> usize {
        if self.ids.is_empty() {
            0
        } else {
            self.ids.get(a).map_or(self.ids.len(), |&i| i as usize)
        }
    }
}

impl<A> Dispatch<A> {
    #[inline]
    fn trigger_row(&self, row: usize) -> &[u64] {
        &self.trigger[row * self.words..(row + 1) * self.words]
    }

    #[inline]
    fn pi_row(&self, row: usize) -> &[u64] {
        &self.pi[row * self.words..(row + 1) * self.words]
    }

    #[inline]
    fn disabling_row(&self, row: usize) -> &[u64] {
        &self.disabling[row * self.words..(row + 1) * self.words]
    }
}

/// How a [`CompiledConditionSet`] will dispatch events: how many actions
/// were interned and how many conditions fall back to opaque closures
/// per component (see [`CompiledConditionSet::dispatch_stats`]). A
/// fully declarative set has all three opaque counts at zero — its
/// per-event classification cost is independent of the condition count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchStats {
    /// Conditions in the set.
    pub conditions: usize,
    /// Distinct actions interned from declarative sets.
    pub interned_actions: usize,
    /// Conditions whose `T_step` needs the closure fallback.
    pub opaque_trigger: usize,
    /// Conditions whose `Π` needs the closure fallback.
    pub opaque_pi: usize,
    /// Conditions whose disabling set needs the closure fallback.
    pub opaque_disabling: usize,
}

/// The per-event digest shared by every consumer: for each condition,
/// whether the event's action is in `Π`, whether its post-state is
/// disabling, and whether the step is a `T_step` trigger. Three dense
/// bitsets, filled once per event by
/// [`CompiledConditionSet::classify`] (or by hand for non-condition
/// sources such as boundmap classes) and then read by
/// [`CompiledConditionSet::step`].
#[derive(Clone, Debug, Default)]
pub struct EventClassification {
    pi: Vec<u64>,
    disabling: Vec<u64>,
    trigger: Vec<u64>,
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

impl EventClassification {
    /// An all-clear classification sized for `conditions` conditions.
    pub fn new(conditions: usize) -> EventClassification {
        let words = conditions.div_ceil(64);
        EventClassification {
            pi: vec![0; words],
            disabling: vec![0; words],
            trigger: vec![0; words],
        }
    }

    /// Clears every bit (reuse the buffers between events).
    #[inline]
    pub fn clear(&mut self) {
        self.pi.fill(0);
        self.disabling.fill(0);
        self.trigger.fill(0);
    }

    /// Marks condition `ci`'s action set `Π` as containing the event's
    /// action.
    #[inline]
    pub fn set_pi(&mut self, ci: usize) {
        bit_set(&mut self.pi, ci);
    }

    /// Marks the event's post-state as disabling for condition `ci`.
    #[inline]
    pub fn set_disabling(&mut self, ci: usize) {
        bit_set(&mut self.disabling, ci);
    }

    /// Marks the event as a `T_step` trigger of condition `ci`.
    #[inline]
    pub fn set_trigger(&mut self, ci: usize) {
        bit_set(&mut self.trigger, ci);
    }

    /// Whether the event's action is in condition `ci`'s `Π`.
    #[inline]
    pub fn pi(&self, ci: usize) -> bool {
        bit_get(&self.pi, ci)
    }

    /// Whether the event's post-state is disabling for condition `ci`.
    #[inline]
    pub fn disabling(&self, ci: usize) -> bool {
        bit_get(&self.disabling, ci)
    }

    /// Whether the event is a `T_step` trigger of condition `ci`.
    #[inline]
    pub fn trigger(&self, ci: usize) -> bool {
        bit_get(&self.trigger, ci)
    }
}

/// How the stepper learns one event's per-condition classification:
/// either precomputed bitsets ([`EventClassification`], filled by a
/// caller that classifies by some other key, e.g. boundmap classes) or
/// lazily, straight off the condition predicates — the streaming hot
/// path, where `Π`/disabling are only consulted for conditions that
/// actually hold open obligations.
pub(crate) trait Classify {
    /// Whether the event's action is in condition `ci`'s `Π`.
    fn pi(&self, ci: usize) -> bool;
    /// Whether the event's post-state is disabling for condition `ci`.
    fn disabling(&self, ci: usize) -> bool;
    /// Whether the event is a `T_step` trigger of condition `ci` — the
    /// sparse stepper's per-condition scan.
    fn trigger(&self, ci: usize) -> bool;
    /// The whole `w`-th 64-condition word of trigger bits at once — the
    /// dense stepper's trigger scan iterates set bits of these words, so
    /// an event that triggers nothing costs one word read per 64
    /// conditions.
    fn trigger_word(&self, w: usize) -> u64;
}

impl Classify for EventClassification {
    #[inline]
    fn pi(&self, ci: usize) -> bool {
        bit_get(&self.pi, ci)
    }
    #[inline]
    fn disabling(&self, ci: usize) -> bool {
        bit_get(&self.disabling, ci)
    }
    #[inline]
    fn trigger(&self, ci: usize) -> bool {
        bit_get(&self.trigger, ci)
    }
    #[inline]
    fn trigger_word(&self, w: usize) -> u64 {
        self.trigger[w]
    }
}

/// Lazy classification of one live event against the compiled dispatch
/// tables, with closure fallback for the opaque conditions (see
/// [`CompiledConditionSet::step_event`]). The event action's dispatch
/// row is resolved **once**, when the event is built: the three `*_row`
/// slices below are that row's table words, so the per-condition checks
/// are plain indexed bit reads.
struct LiveEvent<'e, S, A> {
    conds: &'e [TimingCondition<S, A>],
    dispatch: &'e Dispatch<A>,
    trigger_row: &'e [u64],
    pi_row: &'e [u64],
    disabling_row: &'e [u64],
    pre: &'e S,
    action: &'e A,
    post: &'e S,
}

impl<'e, S, A> LiveEvent<'e, S, A> {
    fn new(
        conds: &'e [TimingCondition<S, A>],
        dispatch: &'e Dispatch<A>,
        pre: &'e S,
        action: &'e A,
        post: &'e S,
    ) -> LiveEvent<'e, S, A>
    where
        A: Eq + Hash,
    {
        let row = dispatch.row_of(action);
        LiveEvent {
            conds,
            dispatch,
            trigger_row: dispatch.trigger_row(row),
            pi_row: dispatch.pi_row(row),
            disabling_row: dispatch.disabling_row(row),
            pre,
            action,
            post,
        }
    }
}

impl<S, A: PartialEq> Classify for LiveEvent<'_, S, A> {
    #[inline]
    fn pi(&self, ci: usize) -> bool {
        if bit_get(&self.dispatch.opaque_pi, ci) {
            self.conds[ci].in_pi(self.action)
        } else {
            bit_get(self.pi_row, ci)
        }
    }
    #[inline]
    fn disabling(&self, ci: usize) -> bool {
        if bit_get(&self.dispatch.opaque_disabling, ci) {
            // Opaque disabling is a *state* predicate on the post-state
            // (a declarative set would have table bits instead).
            self.conds[ci].in_disabling(self.post)
        } else {
            bit_get(self.disabling_row, ci)
        }
    }
    #[inline]
    fn trigger(&self, ci: usize) -> bool {
        if bit_get(&self.dispatch.opaque_trigger, ci) {
            self.conds[ci].in_t_step(self.pre, self.action, self.post)
        } else {
            bit_get(self.trigger_row, ci)
        }
    }
    #[inline]
    fn trigger_word(&self, w: usize) -> u64 {
        let mut word = self.trigger_row[w];
        // OR in the opaque conditions whose step predicate fires; the
        // build only sets in-range bits, so `ci` indexes directly.
        let mut opaque = self.dispatch.opaque_trigger[w];
        while opaque != 0 {
            let b = opaque.trailing_zeros();
            opaque &= opaque - 1;
            let ci = w * 64 + b as usize;
            if self.conds[ci].in_t_step(self.pre, self.action, self.post) {
                word |= 1u64 << b;
            }
        }
        word
    }
}

/// Direct classification of one live event, with no dispatch-table
/// reads: every query goes straight to the condition's predicates. The
/// declarative builders install derived closures alongside their sets,
/// so answering through the condition is always correct — the tables
/// are purely the faster route when they are populated. A sparse set
/// (`Dispatch::dense == false`) has nothing in its tables, so
/// [`CompiledConditionSet::step_event`] classifies through this
/// deliberately minimal carrier instead: per event it costs exactly
/// what the pre-dispatch engine paid, one closure call per query.
struct DirectEvent<'e, S, A> {
    conds: &'e [TimingCondition<S, A>],
    pre: &'e S,
    action: &'e A,
    post: &'e S,
}

impl<S, A> Classify for DirectEvent<'_, S, A> {
    #[inline]
    fn pi(&self, ci: usize) -> bool {
        self.conds[ci].in_pi(self.action)
    }
    #[inline]
    fn disabling(&self, ci: usize) -> bool {
        // A non-empty declarative disabling set would have table bits,
        // making the set dense — so here every declarative set is empty
        // and its (reset) state closure returns `false`, exactly what
        // `in_disabling_event` would answer. Only opaque state
        // predicates can fire.
        self.conds[ci].in_disabling(self.post)
    }
    #[inline]
    fn trigger(&self, ci: usize) -> bool {
        self.conds[ci].in_t_step(self.pre, self.action, self.post)
    }
    #[inline]
    fn trigger_word(&self, w: usize) -> u64 {
        // Only the dense stepper reads trigger words, and a sparse set
        // never takes that path; answer correctly anyway.
        let mut word = 0;
        for b in 0..64 {
            let ci = w * 64 + b;
            if ci >= self.conds.len() {
                break;
            }
            if self.trigger(ci) {
                word |= 1u64 << b;
            }
        }
        word
    }
}

/// One entry of the event log produced by a [`step`]: an obligation
/// opened, discharged, or violated. Consumers (the offline fold, the
/// monitor's verdicts and metrics, the predictor's warnings) are all
/// driven from this log, so none keeps obligation bookkeeping of its
/// own.
///
/// [`step`]: CompiledConditionSet::step
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// A trigger opened a new obligation at trigger time `t_i`.
    Opened {
        /// Condition index within the compiled set.
        ci: usize,
        /// The freshly opened obligation.
        obligation: Obligation,
        /// Absolute time of the trigger that opened it.
        t_i: Rat,
    },
    /// An obligation was discharged — it can no longer be violated.
    Discharged {
        /// Condition index within the compiled set.
        ci: usize,
        /// The discharged obligation.
        obligation: Obligation,
    },
    /// An obligation was violated; `kind` carries the full offline
    /// [`ViolationKind`] payload (trigger index, deadline/earliest, and
    /// for lower bounds the offending event index).
    Violated {
        /// Condition index within the compiled set.
        ci: usize,
        /// The violation, exactly as the offline checker reports it.
        kind: ViolationKind,
    },
    /// An open deadline crossed its warning point `max(deadline −
    /// horizon, t_i)` without being served — the `Lt(U)` half of
    /// predictive tracking. Emitted at most once per obligation, by the
    /// first event *strictly* past the warning point, ahead of that
    /// event's resolutions — so a deadline that blows in one time jump
    /// still gets its warning before the violation. Only emitted while
    /// a warning horizon is attached (see
    /// [`CompiledConditionSet::adopt_state_predictive`]).
    Warned {
        /// Condition index within the compiled set.
        ci: usize,
        /// Index of the trigger that opened the deadline.
        trigger_index: usize,
        /// The absolute deadline `t_i + b_u`.
        deadline: Rat,
        /// The absolute warning point that was crossed.
        warn_at: Rat,
    },
    /// A freshly opened lower window forces the condition's `Π`-actions
    /// to stay away for at least the attached horizon — the `Ft(U)`
    /// half ("this GRANT cannot legally arrive for another 3 ticks").
    /// Emitted exactly once, by the trigger event that opens the
    /// window, when `margin = b_l ≥ horizon > 0`; horizon 0 therefore
    /// requests no forced reports at all. The window is absolute and
    /// fixed at open time, so resuming a snapshot or carrying the
    /// obligation across a spec reload never re-reports it.
    Forced {
        /// Condition index within the compiled set.
        ci: usize,
        /// Index of the trigger that opened the window.
        trigger_index: usize,
        /// The earliest legal occurrence `t_i + b_l`.
        earliest: Rat,
        /// Absolute time of the trigger that opened the window.
        t_i: Rat,
        /// The forced wait `earliest − t_i = b_l`.
        margin: Rat,
    },
}

/// One stored open obligation plus its predictive bookkeeping: the
/// absolute warning point of an upper deadline, and whether its
/// [`EngineEvent::Warned`] has already been emitted. Entries that can
/// never warn — lower windows, and every obligation while no horizon is
/// attached — are stored pre-`warned`, so the warning sweep skips them
/// without consulting the kind or the horizon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OpenOb {
    /// The obligation itself (the logical, serialized state).
    pub(crate) ob: Obligation,
    /// Absolute warning point `max(deadline − horizon, t_i)`; only
    /// meaningful while `warned` is false.
    pub(crate) warn_at: Rat,
    /// Whether this entry's warning has been emitted (or never applies).
    pub(crate) warned: bool,
}

impl OpenOb {
    /// A non-predictive entry: no warning will ever be emitted for it.
    pub(crate) fn plain(ob: Obligation) -> OpenOb {
        OpenOb {
            ob,
            warn_at: Rat::ZERO,
            warned: true,
        }
    }
}

/// One condition's watermarks over its open obligations: the exact
/// backend's twin of the integer backend's `min_earliest`/`min_deadline`.
/// Under Definition 3.1 an open obligation only changes state on a `Π`
/// event, a disabling post-state, or time passing its bound, so an event
/// that is neither in `Π` nor disabling and arrives before both minima
/// resolves nothing and skips the scan.
///
/// Derived state, never serialized. Known marks are exact: obligations
/// only leave the store in a full resolve scan, which recomputes the
/// marks from the obligations it keeps, and
/// [`open_trigger`](EngineState::open_trigger) lowers them. Every other
/// path that builds or rewrites the store (construction, remap,
/// deserialization, the int→exact spill, finish) leaves them unknown, so
/// the condition's next event scans.
#[derive(Clone, Copy, Debug)]
struct Marks {
    /// Whether the two minima below are exact.
    known: bool,
    /// Minimum `earliest` over open lower windows (`None`: none open).
    earliest: Option<Rat>,
    /// Minimum `deadline` over open upper obligations (`None`: none open).
    deadline: Option<Rat>,
}

impl Marks {
    /// Marks that force the next event to scan.
    const UNKNOWN: Marks = Marks {
        known: false,
        earliest: None,
        deadline: None,
    };

    /// Whether an event at `time` that is neither in `Π` nor disabling
    /// provably leaves every open obligation open: before every window's
    /// `earliest` and at or before every deadline.
    #[inline]
    fn quiescent(&self, time: Rat) -> bool {
        self.known
            && self.earliest.is_none_or(|e| time < e)
            && self.deadline.is_none_or(|d| time <= d)
    }
}

/// Folds `v` into a running minimum.
#[inline]
fn fold_min(min: &mut Option<Rat>, v: Rat) {
    *min = Some(min.map_or(v, |m| m.min(v)));
}

/// The engine's whole mutable state: the open obligations per condition
/// plus the stream position. Deliberately independent of the monitored
/// state and action types, so it can be snapshotted, restored, and
/// (behind the `serde` feature) serialized to persist a long-lived
/// stream across restarts.
#[derive(Clone, Debug)]
pub struct EngineState {
    /// Open obligations, per condition.
    open: Vec<Vec<OpenOb>>,
    /// Bitmask of conditions with at least one open obligation, kept in
    /// exact sync with `open`: the stepper's resolution scan iterates
    /// its set bits, so quiescent conditions cost one word read per 64.
    active: Vec<u64>,
    /// Time of the last stepped event (initially 0).
    last_time: Rat,
    /// Number of events stepped so far.
    events_seen: usize,
    /// Reusable event-log buffer (not part of the logical state).
    events: Vec<EngineEvent>,
    /// Whether [`EngineEvent::Opened`]/[`EngineEvent::Discharged`] are
    /// logged (violations always are). Runtime configuration, not part
    /// of the logical state: consumers with no obligation-lifecycle
    /// listener turn it off to keep the per-event hot path free of log
    /// traffic.
    log_lifecycle: bool,
    /// The attached warning horizon: `Some(h)` makes the steppers emit
    /// [`EngineEvent::Warned`]/[`EngineEvent::Forced`] predictive
    /// outcomes, `None` (the default) keeps prediction entirely off.
    /// Attached by [`CompiledConditionSet::adopt_state_predictive`],
    /// not serialized — a resumed snapshot re-arms explicitly.
    horizon: Option<Rat>,
    /// The warning watermark: the minimum `warn_at` over open unwarned
    /// deadlines, or `None` when nothing is pending. The steppers only
    /// run the warning sweep when the event time passes it, so events
    /// that cannot owe a warning pay one comparison. May be stale *low*
    /// after an unwarned deadline is discharged (the sweep recomputes
    /// it exactly), never stale high.
    warn_watermark: Option<Rat>,
    /// Per-condition resolve watermarks (see [`Marks`]), next to
    /// `active`: a quiescent event skips the condition's scan.
    marks: Vec<Marks>,
}

impl Default for EngineState {
    /// An empty state tracking no conditions, lifecycle logging on.
    fn default() -> EngineState {
        EngineState::new(0)
    }
}

impl EngineState {
    /// Empty state for `conditions` conditions, with no obligations
    /// open. [`CompiledConditionSet::start`] is the usual constructor —
    /// it also opens the start-state triggers.
    pub fn new(conditions: usize) -> EngineState {
        EngineState {
            open: vec![Vec::new(); conditions],
            active: vec![0; conditions.div_ceil(64)],
            last_time: Rat::ZERO,
            events_seen: 0,
            events: Vec::new(),
            log_lifecycle: true,
            horizon: None,
            warn_watermark: None,
            marks: vec![Marks::UNKNOWN; conditions],
        }
    }

    /// Turns [`EngineEvent::Opened`]/[`EngineEvent::Discharged`] logging
    /// on or off (on by default; [`EngineEvent::Violated`] is always
    /// logged). Checkers that only consume violations turn it off so
    /// obligation churn never touches the event log.
    pub fn set_log_lifecycle(&mut self, on: bool) {
        self.log_lifecycle = on;
    }

    /// Number of conditions this state tracks.
    pub fn conditions(&self) -> usize {
        self.open.len()
    }

    /// Number of events stepped so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Time of the last stepped event (0 before any event).
    pub fn last_time(&self) -> Rat {
        self.last_time
    }

    /// Total number of currently open obligations.
    pub fn open_obligations(&self) -> usize {
        self.open.iter().map(Vec::len).sum()
    }

    /// The open obligations of condition `ci`, in no particular order.
    pub fn open_of(&self, ci: usize) -> Vec<Obligation> {
        self.open[ci].iter().map(|o| o.ob).collect()
    }

    /// The attached warning horizon, if prediction is on (see
    /// [`CompiledConditionSet::adopt_state_predictive`]).
    pub fn horizon(&self) -> Option<Rat> {
        self.horizon
    }

    /// The earliest open deadline, if any deadline is open:
    /// `min_deadline − last_time` is the stream's minimum upper-bound
    /// slack, the `Lt` reading the monitor's metrics track. Reads each
    /// active condition's deadline watermark; only conditions whose
    /// watermark is unknown (nothing stepped since a snapshot, reload,
    /// or spill) scan their obligations.
    pub fn min_deadline(&self) -> Option<Rat> {
        let mut min: Option<Rat> = None;
        for w in 0..self.active.len() {
            let mut act = self.active[w];
            while act != 0 {
                let ci = w * 64 + act.trailing_zeros() as usize;
                act &= act - 1;
                let marks = &self.marks[ci];
                if marks.known {
                    if let Some(d) = marks.deadline {
                        fold_min(&mut min, d);
                    }
                    continue;
                }
                for o in &self.open[ci] {
                    if let ObligationKind::Upper { deadline } = o.ob.kind {
                        fold_min(&mut min, deadline);
                    }
                }
            }
        }
        min
    }

    /// Re-indexes this state for a new condition set — the state-level
    /// half of hot spec reload.
    ///
    /// `map[ci]` gives the index in the *new* set of the condition that
    /// was at index `ci` here, or `None` if it no longer exists (the
    /// map's length must equal [`conditions`](Self::conditions), and
    /// `new_conditions` bounds its targets). Obligations of preserved
    /// conditions carry over **verbatim** — their deadlines are
    /// absolute times fixed when the trigger fired, and revising a spec
    /// does not revise history; the new bounds govern triggers that
    /// fire after the swap. Obligations of dropped conditions are
    /// returned alongside the new state, tagged with their *old*
    /// condition index, so the caller can report them as closed rather
    /// than lose them silently.
    ///
    /// Stream position (`last_time`, `events_seen`), the lifecycle
    /// logging flag, and the predictive state (horizon, per-obligation
    /// warning points and warned flags — warning points were fixed when
    /// each trigger fired, so a reload never re-warns or un-warns
    /// carried obligations) carry over; the event-log buffer starts
    /// empty, and the resolve watermarks start unknown.
    pub fn remap(
        &self,
        map: &[Option<usize>],
        new_conditions: usize,
    ) -> (EngineState, Vec<(usize, Obligation)>) {
        assert_eq!(
            map.len(),
            self.open.len(),
            "remap map must cover every old condition"
        );
        let mut next = EngineState::new(new_conditions);
        next.last_time = self.last_time;
        next.events_seen = self.events_seen;
        next.log_lifecycle = self.log_lifecycle;
        next.horizon = self.horizon;
        let mut dropped = Vec::new();
        for (ci, obs) in self.open.iter().enumerate() {
            match map[ci] {
                Some(ni) => {
                    assert!(ni < new_conditions, "remap target out of range");
                    for &o in obs {
                        next.open[ni].push(o);
                        bit_set(&mut next.active, ni);
                        if !o.warned {
                            fold_min(&mut next.warn_watermark, o.warn_at);
                        }
                    }
                }
                None => dropped.extend(obs.iter().map(|o| (ci, o.ob))),
            }
        }
        (next, dropped)
    }

    /// Opens a trigger's (up to two) obligations and logs them.
    ///
    /// `inline(always)`: this is the open-phase body of both steppers;
    /// left to its own devices LLVM outlines it, which puts a call (and
    /// the spilled loop state around it) on the per-event hot path —
    /// measured at several ns/event on the E12 pulse stream.
    #[inline(always)]
    pub(crate) fn open_trigger(
        &mut self,
        spec: &CondSpec,
        ci: usize,
        trigger_index: usize,
        t_i: Rat,
    ) {
        // A zero lower bound can never be violated (times are
        // nondecreasing), so no window obligation opens for it.
        if spec.lower > Rat::ZERO {
            let earliest = t_i + spec.lower;
            let ob = Obligation {
                trigger_index,
                kind: ObligationKind::Lower { earliest },
            };
            self.open[ci].push(OpenOb::plain(ob));
            bit_set(&mut self.active, ci);
            fold_min(&mut self.marks[ci].earliest, earliest);
            if self.log_lifecycle {
                self.events.push(EngineEvent::Opened {
                    ci,
                    obligation: ob,
                    t_i,
                });
            }
            if let Some(h) = self.horizon {
                // Ft(U): the window keeps Π away for at least a full
                // horizon — report the forced window once, as it opens.
                if h > Rat::ZERO && spec.lower >= h {
                    self.events.push(EngineEvent::Forced {
                        ci,
                        trigger_index,
                        earliest,
                        t_i,
                        margin: spec.lower,
                    });
                }
            }
        }
        // An infinite upper bound imposes no deadline.
        if let Some(b_u) = spec.upper {
            let deadline = t_i + b_u;
            let ob = Obligation {
                trigger_index,
                kind: ObligationKind::Upper { deadline },
            };
            // Lt(U): fix the warning point now; the sweep emits the
            // warning when an event passes it.
            let entry = match self.horizon {
                Some(h) => {
                    let warn_at = if h < b_u { deadline - h } else { t_i };
                    fold_min(&mut self.warn_watermark, warn_at);
                    OpenOb {
                        ob,
                        warn_at,
                        warned: false,
                    }
                }
                None => OpenOb::plain(ob),
            };
            self.open[ci].push(entry);
            bit_set(&mut self.active, ci);
            fold_min(&mut self.marks[ci].deadline, deadline);
            if self.log_lifecycle {
                self.events.push(EngineEvent::Opened {
                    ci,
                    obligation: ob,
                    t_i,
                });
            }
        }
    }

    /// Emits every owed [`EngineEvent::Warned`] — open unwarned
    /// deadlines whose warning point `time` has strictly passed — and
    /// recomputes the warning watermark exactly. Only called once an
    /// event passes the watermark, so it is cold relative to the
    /// steppers; the scan canonicalizes its emission order to
    /// (condition, trigger index) since storage order is a
    /// `swap_remove` artifact that differs across backends.
    #[inline(never)]
    fn sweep_warnings(&mut self, time: Rat) {
        let mark = self.events.len();
        let mut next: Option<Rat> = None;
        for w in 0..self.active.len() {
            let mut act = self.active[w];
            while act != 0 {
                let ci = w * 64 + act.trailing_zeros() as usize;
                act &= act - 1;
                for o in &mut self.open[ci] {
                    if o.warned {
                        continue;
                    }
                    if time > o.warn_at {
                        o.warned = true;
                        if let ObligationKind::Upper { deadline } = o.ob.kind {
                            self.events.push(EngineEvent::Warned {
                                ci,
                                trigger_index: o.ob.trigger_index,
                                deadline,
                                warn_at: o.warn_at,
                            });
                        }
                    } else {
                        fold_min(&mut next, o.warn_at);
                    }
                }
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

/// Which obligation-stepper backend a stream is running on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineBackend {
    /// The exact backend: obligations carry `Rat` bounds and every time
    /// comparison is exact rational arithmetic. Always available;
    /// semantically the reference.
    Exact,
    /// The monomorphized integer backend: bounds scaled to `u64` ticks
    /// at compile time, open obligations in a struct-of-arrays store
    /// ([`IntEngineState`]). Chosen automatically when every bound fits
    /// the tick domain; verdicts are identical to [`EngineBackend::Exact`]
    /// by construction (conversion is exact-or-spill, never rounded).
    Int,
}

/// Backend selection policy for new engine states (and for adopting
/// resumed snapshots).
///
/// There is deliberately no "force integer" choice: the integer backend
/// exists only where it is *exactly* equivalent, so it can only be
/// auto-selected — asking for it on a set with unscalable bounds could
/// not preserve semantics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Integer backend when the compiled set is
    /// [`int_capable`](CompiledConditionSet::int_capable), exact
    /// otherwise. The default.
    #[default]
    Auto,
    /// Always the exact backend — the differential oracle in CI, and
    /// the debugging escape hatch.
    Exact,
}

/// A stream's engine state, on whichever backend it is running — the
/// handle `tempo-monitor`'s `Monitor` and the offline folds thread
/// through the steppers.
///
/// Snapshots always materialize as the exact [`EngineState`]
/// ([`EngineImpl::snapshot`]) — the integer form converts losslessly —
/// so serialization, hot-reload remapping, and resume are
/// backend-agnostic: a snapshot taken on one backend resumes on either.
#[derive(Clone, Debug)]
pub enum EngineImpl {
    /// Running on the exact `Rat` backend.
    Exact(EngineState),
    /// Running on the integer-tick backend.
    Int(IntEngineState),
}

impl EngineImpl {
    /// Which backend this state is currently on. A stream that started
    /// on [`EngineBackend::Int`] reports [`EngineBackend::Exact`] after
    /// spilling (an event time its tick scale could not represent).
    pub fn backend(&self) -> EngineBackend {
        match self {
            EngineImpl::Exact(_) => EngineBackend::Exact,
            EngineImpl::Int(_) => EngineBackend::Int,
        }
    }

    /// Number of conditions this state tracks.
    pub fn conditions(&self) -> usize {
        match self {
            EngineImpl::Exact(st) => st.conditions(),
            EngineImpl::Int(st) => st.conditions(),
        }
    }

    /// Number of events stepped so far.
    pub fn events_seen(&self) -> usize {
        match self {
            EngineImpl::Exact(st) => st.events_seen(),
            EngineImpl::Int(st) => st.events_seen(),
        }
    }

    /// Time of the last stepped event (0 before any event).
    pub fn last_time(&self) -> Rat {
        match self {
            EngineImpl::Exact(st) => st.last_time(),
            EngineImpl::Int(st) => st.last_time(),
        }
    }

    /// Total number of currently open obligations.
    pub fn open_obligations(&self) -> usize {
        match self {
            EngineImpl::Exact(st) => st.open_obligations(),
            EngineImpl::Int(st) => st.open_obligations(),
        }
    }

    /// The open obligations of condition `ci`, materialized in the
    /// exact domain (the integer backend stores them as ticks).
    pub fn open_of(&self, ci: usize) -> Vec<Obligation> {
        match self {
            EngineImpl::Exact(st) => st.open_of(ci),
            EngineImpl::Int(st) => st.open_of(ci),
        }
    }

    /// The attached warning horizon, if prediction is on.
    pub fn horizon(&self) -> Option<Rat> {
        match self {
            EngineImpl::Exact(st) => st.horizon(),
            EngineImpl::Int(st) => st.horizon(),
        }
    }

    /// The earliest open deadline, if any deadline is open:
    /// `min_deadline − last_time` is the stream's minimum upper-bound
    /// slack. O(1) on the integer backend (its deadline watermark is
    /// exact); on the exact backend one watermark read per active
    /// condition (see [`EngineState::min_deadline`]).
    pub fn min_deadline(&self) -> Option<Rat> {
        match self {
            EngineImpl::Exact(st) => st.min_deadline(),
            EngineImpl::Int(st) => st.min_deadline_rat(),
        }
    }

    /// Turns obligation-lifecycle logging on or off (see
    /// [`EngineState::set_log_lifecycle`]).
    pub fn set_log_lifecycle(&mut self, on: bool) {
        match self {
            EngineImpl::Exact(st) => st.set_log_lifecycle(on),
            EngineImpl::Int(st) => st.set_log_lifecycle(on),
        }
    }

    /// A backend-agnostic snapshot of the logical state, as the exact
    /// [`EngineState`]: the serializable, remappable, resumable form.
    /// The integer backend's conversion is lossless (ticks are exact
    /// rationals), so snapshot → resume round-trips across backends.
    pub fn snapshot(&self) -> EngineState {
        match self {
            EngineImpl::Exact(st) => st.clone(),
            EngineImpl::Int(st) => st.to_exact(),
        }
    }

    /// Like [`snapshot`](EngineImpl::snapshot), consuming self (no
    /// clone on the exact backend) — the hot-reload remap path.
    pub fn into_exact(self) -> EngineState {
        match self {
            EngineImpl::Exact(st) => st,
            EngineImpl::Int(st) => st.to_exact(),
        }
    }
}

impl Default for EngineImpl {
    /// An exact state tracking no conditions.
    fn default() -> EngineImpl {
        EngineImpl::Exact(EngineState::default())
    }
}

/// [`step_specs`] lifted over [`EngineImpl`]: routes to the integer
/// stepper when the state is on the integer backend and the event time
/// fits its tick domain, **spilling to exact first** otherwise — the
/// conversion happens before any mutation, so a step is never partial.
/// Shared by [`CompiledConditionSet::step_engine`] and the offline
/// boundmap checker (which builds its own spec table and plan).
#[inline(always)]
pub(crate) fn step_specs_impl<'a, C: Classify>(
    specs: &[CondSpec],
    plan: Option<&IntPlan>,
    st: &'a mut EngineImpl,
    cls: &C,
    time: Rat,
    dense: bool,
) -> &'a [EngineEvent] {
    let ticks = match (&*st, plan) {
        (EngineImpl::Int(_), Some(p)) => p.scale.to_ticks(time).filter(|&t| p.safe_ticks(t)),
        _ => None,
    };
    if ticks.is_none() {
        // Unrepresentable event time (or deadline headroom exhausted):
        // spill losslessly to the exact backend and continue there.
        if let EngineImpl::Int(ist) = &*st {
            let exact = ist.to_exact();
            *st = EngineImpl::Exact(exact);
        }
    }
    match st {
        EngineImpl::Int(ist) => int::step_int(
            plan.expect("integer engine state requires an int plan"),
            ist,
            cls,
            ticks.expect("checked above"),
            dense,
        ),
        EngineImpl::Exact(est) => step_specs(specs, est, cls, time, dense),
    }
}

/// [`finish_specs`] lifted over [`EngineImpl`].
pub(crate) fn finish_specs_impl<'a>(
    specs: &[CondSpec],
    st: &'a mut EngineImpl,
    mode: SatisfactionMode,
) -> &'a [EngineEvent] {
    match st {
        EngineImpl::Exact(est) => finish_specs(specs, est, mode),
        EngineImpl::Int(ist) => int::finish_int(ist, mode),
    }
}

/// Steps one classified event against the open obligations (spec-level:
/// shared by [`CompiledConditionSet`] and the boundmap checker, which
/// classifies by partition class instead of by condition).
///
/// The order inside the returned log is load-bearing and mirrors the
/// definitions exactly: per condition, the event is first weighed
/// against the *existing* obligations (a trigger's bounds constrain
/// strictly later events, `j > i`), and only then may it open new ones —
/// so a trigger event never serves its own freshly opened bound.
///
/// `Π`/disabling classification is only requested for conditions that
/// hold open obligations, so a lazy [`Classify`] source pays nothing
/// for quiescent conditions.
///
/// `dense` selects the loop strategy. A set with any dispatch-table
/// bits walks word masks ([`step_specs_dense`]): the resolve phase
/// visits only the set bits of the active mask, the open phase only the
/// set bits of the trigger words, so classification cost scales with
/// the conditions the event is *relevant to* rather than with the set
/// size. A fully opaque set has no table words to scan — every
/// classification is a closure call regardless — so it runs the plain
/// per-condition loop ([`step_specs_sparse`]) and pays none of the mask
/// machinery.
#[inline]
pub(crate) fn step_specs<'a, C: Classify>(
    specs: &[CondSpec],
    st: &'a mut EngineState,
    cls: &C,
    time: Rat,
    dense: bool,
) -> &'a [EngineEvent] {
    if dense {
        step_specs_dense(specs, st, cls, time)
    } else {
        step_specs_sparse(specs, st, cls, time)
    }
}

/// The word-mask stepper: see [`step_specs`]. Deliberately not
/// inlined: a sparse set's per-event loop never takes this path, and
/// keeping the mask machinery out of line keeps the common fold/observe
/// loop bodies small.
#[inline(never)]
pub(crate) fn step_specs_dense<'a, C: Classify>(
    specs: &[CondSpec],
    st: &'a mut EngineState,
    cls: &C,
    time: Rat,
) -> &'a [EngineEvent] {
    assert!(
        time >= st.last_time,
        "monitored event times must be nondecreasing: {time} after {}",
        st.last_time
    );
    st.events.clear();
    st.events_seen += 1;
    let j = st.events_seen;
    // Warning sweep: owed warnings are emitted before this event's
    // resolutions, so a deadline that blows in one jump still warns
    // first. One comparison when no warning is pending.
    if let Some(w) = st.warn_watermark {
        if time > w {
            st.sweep_warnings(time);
        }
    }
    // Resolve phase: only conditions with open obligations are visited
    // (set bits of the active mask), so `Π`/disabling classification is
    // never requested for quiescent conditions. Per condition this
    // still happens before the open phase below, preserving the
    // definitions' order: a trigger's bounds constrain strictly later
    // events only.
    for w in 0..st.active.len() {
        let mut act = st.active[w];
        while act != 0 {
            let ci = w * 64 + act.trailing_zeros() as usize;
            act &= act - 1;
            resolve_open(&specs[ci], st, cls, time, j, ci);
            if st.open[ci].is_empty() {
                bit_clear(&mut st.active, ci);
            }
        }
    }
    // Open phase: walk the set bits of the trigger words — for a
    // declarative condition set these come straight out of the dispatch
    // table, so an event that triggers nothing costs one word read per
    // 64 conditions.
    for w in 0..st.active.len() {
        let mut trig = cls.trigger_word(w);
        while trig != 0 {
            let ci = w * 64 + trig.trailing_zeros() as usize;
            trig &= trig - 1;
            st.open_trigger(&specs[ci], ci, j, time);
        }
    }
    st.last_time = time;
    &st.events
}

/// The per-condition stepper for sparse sets: see [`step_specs`]. Kept
/// as its own small function so the hot fold/monitor loops over opaque
/// sets inline it whole, exactly like the pre-dispatch engine.
#[inline]
pub(crate) fn step_specs_sparse<'a, C: Classify>(
    specs: &[CondSpec],
    st: &'a mut EngineState,
    cls: &C,
    time: Rat,
) -> &'a [EngineEvent] {
    assert!(
        time >= st.last_time,
        "monitored event times must be nondecreasing: {time} after {}",
        st.last_time
    );
    st.events.clear();
    st.events_seen += 1;
    let j = st.events_seen;
    // Owed warnings first — see `step_specs_dense`.
    if let Some(w) = st.warn_watermark {
        if time > w {
            st.sweep_warnings(time);
        }
    }
    for (ci, spec) in specs.iter().enumerate() {
        if !st.open[ci].is_empty() {
            resolve_open(spec, st, cls, time, j, ci);
            if st.open[ci].is_empty() {
                bit_clear(&mut st.active, ci);
            }
        }
        if cls.trigger(ci) {
            st.open_trigger(spec, ci, j, time);
        }
    }
    st.last_time = time;
    &st.events
}

/// Resolves condition `ci`'s open obligations against one classified
/// event: the shared body of both [`step_specs`] loop strategies.
///
/// An event that is neither in `Π` nor disabling and arrives before the
/// condition's watermarks would leave every obligation open, so it
/// returns before the scan; a scan recomputes the watermarks exactly
/// from the obligations it keeps.
#[inline]
fn resolve_open<C: Classify>(
    spec: &CondSpec,
    st: &mut EngineState,
    cls: &C,
    time: Rat,
    j: usize,
    ci: usize,
) {
    let in_pi = cls.pi(ci);
    let in_disabling = cls.disabling(ci);
    if !in_pi && !in_disabling && st.marks[ci].quiescent(time) {
        return;
    }
    let mark = st.events.len();
    let open = &mut st.open[ci];
    let mut marks = Marks {
        known: true,
        earliest: None,
        deadline: None,
    };
    let mut k = 0;
    while k < open.len() {
        match open[k]
            .ob
            .resolve_in(time, in_pi, in_disabling, spec.lower_escape)
        {
            Resolution::Open => {
                match open[k].ob.kind {
                    ObligationKind::Lower { earliest } => fold_min(&mut marks.earliest, earliest),
                    ObligationKind::Upper { deadline } => fold_min(&mut marks.deadline, deadline),
                }
                k += 1;
            }
            Resolution::Discharged => {
                let ob = open.swap_remove(k).ob;
                if st.log_lifecycle {
                    st.events
                        .push(EngineEvent::Discharged { ci, obligation: ob });
                }
            }
            Resolution::Violated => {
                let ob = open.swap_remove(k).ob;
                let kind = match ob.kind {
                    ObligationKind::Lower { earliest } => ViolationKind::LowerBound {
                        trigger_index: ob.trigger_index,
                        event_index: j,
                        earliest,
                    },
                    ObligationKind::Upper { deadline } => ViolationKind::UpperBound {
                        trigger_index: ob.trigger_index,
                        deadline,
                    },
                };
                st.events.push(EngineEvent::Violated { ci, kind });
            }
        }
    }
    st.marks[ci] = marks;
    // The scan visits obligations in storage order, which is an
    // artifact of earlier `swap_remove` compactions. Canonicalize this
    // event's emissions to (trigger index, lower before upper) so both
    // engine backends report identical within-event order — the
    // monitor's per-event `Verdict` surfaces the *first* violation.
    if st.events.len() - mark > 1 {
        st.events[mark..].sort_by_key(resolve_emission_order);
    }
}

/// Sort key canonicalizing one condition's within-event resolve
/// emissions: by opening trigger, lower window before upper deadline.
/// Matches the integer backend's emission order exactly.
fn resolve_emission_order(ev: &EngineEvent) -> (usize, bool) {
    match ev {
        EngineEvent::Discharged { obligation, .. } => (
            obligation.trigger_index,
            matches!(obligation.kind, ObligationKind::Upper { .. }),
        ),
        EngineEvent::Violated { kind, .. } => match kind {
            ViolationKind::LowerBound { trigger_index, .. } => (*trigger_index, false),
            ViolationKind::UpperBound { trigger_index, .. } => (*trigger_index, true),
        },
        // Never emitted by the resolve phase.
        EngineEvent::Opened { .. } | EngineEvent::Warned { .. } | EngineEvent::Forced { .. } => {
            (usize::MAX, true)
        }
    }
}

/// Ends the stream: drains every still-open obligation, logging a
/// violation for each open deadline under [`SatisfactionMode::Complete`]
/// and a discharge otherwise (spec-level twin of
/// [`CompiledConditionSet::finish`]).
pub(crate) fn finish_specs<'a>(
    _specs: &[CondSpec],
    st: &'a mut EngineState,
    mode: SatisfactionMode,
) -> &'a [EngineEvent] {
    st.events.clear();
    st.active.fill(0);
    st.warn_watermark = None;
    st.marks.fill(Marks::UNKNOWN);
    for ci in 0..st.open.len() {
        let mut open = std::mem::take(&mut st.open[ci]);
        // Same canonical order as the per-event resolve phase (and as
        // the integer backend): by trigger, lower before upper.
        open.sort_by_key(|o| {
            (
                o.ob.trigger_index,
                matches!(o.ob.kind, ObligationKind::Upper { .. }),
            )
        });
        for o in open {
            match (mode, o.ob.kind) {
                (SatisfactionMode::Complete, ObligationKind::Upper { deadline }) => {
                    // The stream ends by violating this deadline: file
                    // the owed warning first, exactly as a stepped
                    // event past the deadline would have.
                    if !o.warned {
                        st.events.push(EngineEvent::Warned {
                            ci,
                            trigger_index: o.ob.trigger_index,
                            deadline,
                            warn_at: o.warn_at,
                        });
                    }
                    st.events.push(EngineEvent::Violated {
                        ci,
                        kind: ViolationKind::UpperBound {
                            trigger_index: o.ob.trigger_index,
                            deadline,
                        },
                    });
                }
                _ => {
                    // An open lower window has outlived nothing — no more
                    // events can violate it; an open deadline under
                    // Prefix semantics implies `t_end ≤ deadline`, so
                    // some extension could still meet it (Definition
                    // 3.1's excuse).
                    if st.log_lifecycle {
                        st.events.push(EngineEvent::Discharged {
                            ci,
                            obligation: o.ob,
                        });
                    }
                }
            }
        }
    }
    &st.events
}

/// A set of timing conditions compiled for shared evaluation: the
/// interned predicates plus the dense bound tables the obligation
/// stepper reads. One compiled set serves any number of concurrent
/// [`EngineState`]s (streams), so a pool of monitors compiles its
/// conditions exactly once.
///
/// This is the engine behind every evaluator of Definition 3.1:
/// [`violations`](crate::violations)/[`semi_satisfies`](crate::semi_satisfies)
/// fold it over a recorded [`TimedSequence`], and `tempo-monitor`'s
/// `Monitor` feeds it live events one at a time.
///
/// # Example
///
/// ```
/// use tempo_core::engine::{CompiledConditionSet, EngineEvent, EventClassification};
/// use tempo_core::TimingCondition;
/// use tempo_math::{Interval, Rat};
///
/// let cond: TimingCondition<u32, &str> =
///     TimingCondition::new("RESP", Interval::closed(Rat::ONE, Rat::from(5)).unwrap())
///         .triggered_by_step(|_, a, _| *a == "REQ")
///         .on_actions(|a| *a == "GRANT");
/// let set = CompiledConditionSet::new(&[cond]);
/// let mut st = set.start(&0);
/// let mut cls = EventClassification::new(set.len());
///
/// set.classify(&0, &"REQ", &1, &mut cls);
/// let opened = set.step(&mut st, &cls, Rat::from(2)).len();
/// assert_eq!(opened, 2); // lower window + deadline
///
/// set.classify(&1, &"GRANT", &0, &mut cls);
/// for ev in set.step(&mut st, &cls, Rat::from(4)) {
///     assert!(matches!(ev, EngineEvent::Discharged { .. }));
/// }
/// assert_eq!(st.open_obligations(), 0);
/// ```
pub struct CompiledConditionSet<S, A> {
    conds: Vec<TimingCondition<S, A>>,
    specs: Vec<CondSpec>,
    dispatch: Dispatch<A>,
    /// The integer-time lowering of the bound table, when every bound
    /// fits the `u64` tick domain — `None` pins the set to the exact
    /// backend (see [`IntPlan::from_specs`]).
    int_plan: Option<IntPlan>,
    /// Condition names as shared strings: verdict payloads clone the
    /// `Arc`, never the bytes.
    names: Vec<Arc<str>>,
    /// Per-condition human-readable label of the `Π` action set, for
    /// forced-window reports ("this GRANT cannot legally arrive yet").
    pi_labels: Vec<Arc<str>>,
}

impl<S, A> fmt::Debug for CompiledConditionSet<S, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledConditionSet")
            .field("conditions", &self.conds.len())
            .finish()
    }
}

impl<S, A: Clone + Eq + Hash + fmt::Debug> CompiledConditionSet<S, A> {
    /// Compiles `conds`: caches each condition's `b_l`/finite `b_u` in a
    /// dense table, interns the (cheaply cloned, `Arc`'d) predicates,
    /// and builds the action-dispatch tables — every action mentioned by
    /// a declarative [`ActionSet`] gets a dense `u32` id and a bitmask
    /// row over the conditions, so classification cost scales with the
    /// conditions *relevant to* an action, not the set size.
    pub fn new(conds: &[TimingCondition<S, A>]) -> CompiledConditionSet<S, A> {
        let specs: Vec<CondSpec> = conds
            .iter()
            .map(|c| CondSpec {
                lower: c.lower(),
                upper: c.upper().finite(),
                lower_escape: true,
            })
            .collect();
        CompiledConditionSet {
            int_plan: IntPlan::from_specs(&specs),
            specs,
            dispatch: Dispatch::build(conds),
            names: conds.iter().map(|c| Arc::from(c.name())).collect(),
            pi_labels: conds.iter().map(pi_label).collect(),
            conds: conds.to_vec(),
        }
    }
}

/// Renders a condition's `Π` component as a short shared label for
/// forced-window reports: the listed actions of a declarative set
/// (`"GRANT"`, `"ack|nack"`, complements as `"not(tick)"`), or `"π"`
/// for an opaque predicate that cannot be enumerated.
fn pi_label<S, A: fmt::Debug>(c: &TimingCondition<S, A>) -> Arc<str> {
    fn join<A: fmt::Debug>(list: &[A]) -> String {
        let parts: Vec<String> = list
            .iter()
            .map(|a| format!("{a:?}").trim_matches('"').to_string())
            .collect();
        if parts.is_empty() {
            "∅".to_string()
        } else {
            parts.join("|")
        }
    }
    match c.pi_set() {
        Some(ActionSet::Of(list)) => join(list).into(),
        Some(ActionSet::AllExcept(list)) => format!("not({})", join(list)).into(),
        None => "π".into(),
    }
}

impl<S, A> CompiledConditionSet<S, A> {
    /// Number of conditions in the set.
    pub fn len(&self) -> usize {
        self.conds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.conds.is_empty()
    }

    /// The compiled conditions, in index order.
    pub fn conditions(&self) -> &[TimingCondition<S, A>] {
        &self.conds
    }

    /// The name of condition `ci`.
    pub fn name(&self, ci: usize) -> &str {
        self.conds[ci].name()
    }

    /// The index of the first condition named `name`, if any. Hot
    /// reload identifies conditions across spec revisions by name, so
    /// this is the lookup behind the obligation carry map.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.conds.iter().position(|c| c.name() == name)
    }

    /// Cached finite upper bound `b_u` of condition `ci` (`None` for ∞).
    pub fn upper(&self, ci: usize) -> Option<Rat> {
        self.specs[ci].upper
    }

    /// The name of condition `ci` as a cheaply clonable shared string —
    /// warning/forced verdict payloads clone the `Arc`, not the bytes.
    pub fn shared_name(&self, ci: usize) -> &Arc<str> {
        &self.names[ci]
    }

    /// A human-readable label of condition `ci`'s `Π` action set, for
    /// forced-window reports: the listed actions of a declarative set
    /// (complements as `not(...)`), `"π"` for an opaque predicate.
    pub fn action_label(&self, ci: usize) -> &Arc<str> {
        &self.pi_labels[ci]
    }

    /// Attaches (or, with `None`, detaches) a warning horizon to an
    /// exact state: recomputes every open deadline's absolute warning
    /// point from the compiled bounds — `warn_at = max(deadline −
    /// horizon, t_i)` with `t_i = deadline − b_u` — and marks entries
    /// whose point has already strictly passed as warned, so resuming
    /// a snapshot never re-emits warnings the stream saw before it was
    /// snapshotted.
    fn arm_state(&self, st: &mut EngineState, horizon: Option<Rat>) {
        st.horizon = horizon;
        let last = st.last_time;
        let mut next: Option<Rat> = None;
        for (ci, obs) in st.open.iter_mut().enumerate() {
            for o in obs.iter_mut() {
                match (horizon, o.ob.kind) {
                    (Some(h), ObligationKind::Upper { deadline }) => {
                        let t_i = self.specs[ci].upper.map_or(Rat::ZERO, |b| deadline - b);
                        o.warn_at = (deadline - h).max(t_i);
                        o.warned = last > o.warn_at;
                        if !o.warned {
                            fold_min(&mut next, o.warn_at);
                        }
                    }
                    _ => {
                        o.warn_at = Rat::ZERO;
                        o.warned = true;
                    }
                }
            }
        }
        st.warn_watermark = next;
    }

    /// A fresh [`EngineState`] with the start-state obligations open:
    /// every condition whose `T_start` contains `start` triggers at
    /// index 0, time 0 (Definition 3.1's start-state trigger).
    pub fn start(&self, start: &S) -> EngineState {
        let mut st = EngineState::new(self.conds.len());
        for (ci, c) in self.conds.iter().enumerate() {
            if c.in_t_start(start) {
                st.open_trigger(&self.specs[ci], ci, 0, Rat::ZERO);
            }
        }
        st.events.clear();
        st
    }

    /// The backend [`start_engine`](CompiledConditionSet::start_engine)
    /// selects for this set under [`BackendChoice::Auto`]: the integer
    /// backend iff the set is
    /// [`int_capable`](CompiledConditionSet::int_capable).
    pub fn backend(&self) -> EngineBackend {
        if self.int_plan.is_some() {
            EngineBackend::Int
        } else {
            EngineBackend::Exact
        }
    }

    /// [`start`](CompiledConditionSet::start) on the automatically
    /// selected backend: a fresh [`EngineImpl`] with the start-state
    /// obligations open.
    pub fn start_engine(&self, start: &S) -> EngineImpl {
        self.start_engine_with(start, BackendChoice::default())
    }

    /// [`start_engine`](CompiledConditionSet::start_engine) with an
    /// explicit [`BackendChoice`] — [`BackendChoice::Exact`] pins the
    /// stream to exact arithmetic (the differential-oracle path).
    pub fn start_engine_with(&self, start: &S, choice: BackendChoice) -> EngineImpl {
        if matches!(choice, BackendChoice::Auto) {
            if let Some(st) = self.start_int(start) {
                return EngineImpl::Int(st);
            }
        }
        EngineImpl::Exact(self.start(start))
    }

    /// Adopts a snapshot (an exact [`EngineState`], from
    /// [`EngineImpl::snapshot`] or a deserialized stream) onto the
    /// chosen backend. Under [`BackendChoice::Auto`] the integer
    /// backend is picked when the set is int-capable **and** every open
    /// obligation's time converts exactly to its tick domain; anything
    /// else resumes on exact. Either way the logical state is
    /// identical — this is what makes snapshots round-trip across
    /// backends.
    pub fn adopt_state(&self, st: EngineState, choice: BackendChoice) -> EngineImpl {
        if matches!(choice, BackendChoice::Auto) {
            if let Some(plan) = &self.int_plan {
                if let Some(ist) = IntEngineState::from_exact(plan, &st) {
                    return EngineImpl::Int(ist);
                }
            }
        }
        EngineImpl::Exact(st)
    }

    /// [`adopt_state`](CompiledConditionSet::adopt_state) with a warning
    /// horizon attached: the adopted engine emits
    /// [`EngineEvent::Warned`]/[`EngineEvent::Forced`] predictive
    /// outcomes natively (`None` detaches prediction). Warning points
    /// for already-open deadlines are reconstructed from the compiled
    /// bounds, and points the stream had already passed stay silent —
    /// resuming never re-warns. Under [`BackendChoice::Auto`] the
    /// integer backend additionally requires the horizon and every
    /// warning point to fit its tick grid; anything else runs exact.
    pub fn adopt_state_predictive(
        &self,
        mut st: EngineState,
        choice: BackendChoice,
        horizon: Option<Rat>,
    ) -> EngineImpl {
        self.arm_state(&mut st, horizon);
        self.adopt_state(st, choice)
    }

    /// [`start_engine_with`](CompiledConditionSet::start_engine_with)
    /// with a warning horizon attached from the first event on.
    pub fn start_engine_predictive(
        &self,
        start: &S,
        choice: BackendChoice,
        horizon: Option<Rat>,
    ) -> EngineImpl {
        let mut st = self.start(start);
        self.arm_state(&mut st, horizon);
        self.adopt_state(st, choice)
    }

    /// `Ft` read-out: the earliest time at which `action` could next
    /// legally occur, given the open lower windows whose `Π` contains
    /// it — `None` when no open window constrains it. This is the
    /// query form of [`EngineEvent::Forced`]: the dispatch tables key
    /// the per-action `Π` rows, the active-condition bitmask names the
    /// candidates, and the answer is the largest `earliest` still ahead
    /// of the stream clock. (As with Definition 3.1's lower bound, an
    /// intervening disabling state would lift the constraint early.)
    pub fn earliest_legal(&self, st: &EngineImpl, action: &A) -> Option<Rat>
    where
        A: Eq + Hash,
    {
        let now = st.last_time();
        let row = self.dispatch.row_of(action);
        let pi_row = self.dispatch.pi_row(row);
        let mut latest: Option<Rat> = None;
        let mut fold = |ci: usize, earliest: Rat| {
            if earliest <= now {
                return;
            }
            let in_pi = if bit_get(&self.dispatch.opaque_pi, ci) {
                self.conds[ci].in_pi(action)
            } else {
                bit_get(pi_row, ci)
            };
            if in_pi {
                latest = Some(match latest {
                    Some(l) if l >= earliest => l,
                    _ => earliest,
                });
            }
        };
        match st {
            EngineImpl::Exact(est) => {
                for (ci, obs) in est.open.iter().enumerate() {
                    for o in obs {
                        if let ObligationKind::Lower { earliest } = o.ob.kind {
                            fold(ci, earliest);
                        }
                    }
                }
            }
            EngineImpl::Int(ist) => ist.for_each_open_lower(&mut fold),
        }
        latest
    }

    /// [`step_event`](CompiledConditionSet::step_event) lifted over
    /// [`EngineImpl`]: the backend-routed per-event path used by the
    /// streaming monitor and the offline folds. On the integer backend
    /// an event time outside the tick domain spills the state to exact
    /// (losslessly, before any mutation) and the stream continues
    /// there with identical semantics.
    ///
    /// # Panics
    ///
    /// Panics if `time` decreases below `st`'s last stepped time.
    #[inline(always)]
    pub fn step_engine<'a>(
        &self,
        st: &'a mut EngineImpl,
        pre: &S,
        action: &A,
        post: &S,
        time: Rat,
    ) -> &'a [EngineEvent]
    where
        A: Eq + Hash,
    {
        if self.dispatch.dense {
            let live = LiveEvent::new(&self.conds, &self.dispatch, pre, action, post);
            step_specs_impl(&self.specs, self.int_plan.as_ref(), st, &live, time, true)
        } else {
            let live = DirectEvent {
                conds: &self.conds,
                pre,
                action,
                post,
            };
            step_specs_impl(&self.specs, self.int_plan.as_ref(), st, &live, time, false)
        }
    }

    /// [`finish`](CompiledConditionSet::finish) lifted over
    /// [`EngineImpl`].
    pub fn finish_engine<'a>(
        &self,
        st: &'a mut EngineImpl,
        mode: SatisfactionMode,
    ) -> &'a [EngineEvent] {
        finish_specs_impl(&self.specs, st, mode)
    }

    /// Classifies one event — pre-state, action, post-state — against
    /// every condition in the set, filling `out`. Each predicate is
    /// evaluated exactly once per event here; every consumer then reads
    /// the shared bits. (Disabling uses
    /// [`TimingCondition::in_disabling_event`], so action-based
    /// declarative disabling sets classify identically to
    /// [`step_event`](CompiledConditionSet::step_event).)
    pub fn classify(&self, pre: &S, action: &A, post: &S, out: &mut EventClassification)
    where
        A: PartialEq,
    {
        out.clear();
        for (ci, c) in self.conds.iter().enumerate() {
            if c.in_pi(action) {
                out.set_pi(ci);
            }
            if c.in_disabling_event(action, post) {
                out.set_disabling(ci);
            }
            if c.in_t_step(pre, action, post) {
                out.set_trigger(ci);
            }
        }
    }

    /// How the set will dispatch events: interned-action count and how
    /// many conditions fall back to opaque closures per component. A
    /// fully declarative set reports zero opaque conditions — its
    /// per-event cost is flat in the condition count.
    pub fn dispatch_stats(&self) -> DispatchStats {
        let ones = |mask: &[u64]| mask.iter().map(|w| w.count_ones() as usize).sum();
        DispatchStats {
            conditions: self.conds.len(),
            interned_actions: self.dispatch.ids.len(),
            opaque_trigger: ones(&self.dispatch.opaque_trigger),
            opaque_pi: ones(&self.dispatch.opaque_pi),
            opaque_disabling: ones(&self.dispatch.opaque_disabling),
        }
    }

    /// Steps one classified event at (nondecreasing) absolute `time`
    /// against the open obligations in `st`, returning the event's log:
    /// existing obligations are resolved first (in open order, so a
    /// trigger's bounds constrain strictly later events only), then the
    /// event's own triggers open new obligations.
    ///
    /// # Panics
    ///
    /// Panics if `time` decreases below `st`'s last stepped time.
    pub fn step<'a>(
        &self,
        st: &'a mut EngineState,
        cls: &EventClassification,
        time: Rat,
    ) -> &'a [EngineEvent] {
        step_specs(&self.specs, st, cls, time, self.dispatch.dense)
    }

    /// [`step`](CompiledConditionSet::step) on a live event, fusing
    /// classification into the stepping pass: the `Π` and disabling
    /// predicates are only evaluated for conditions that hold open
    /// obligations (the trigger predicate always runs). Exactly
    /// equivalent to [`classify`](CompiledConditionSet::classify)
    /// followed by [`step`](CompiledConditionSet::step) — this is the
    /// streaming monitor's per-event path.
    ///
    /// # Panics
    ///
    /// Panics if `time` decreases below `st`'s last stepped time.
    ///
    /// `inline(always)`: per-event consumers (the offline fold, the
    /// monitor's observe loop) must absorb this body so the sparse
    /// stepper's loop state stays in registers across events; an
    /// outlined call here measured ~10 ns/event on the E12 pulse
    /// stream.
    #[inline(always)]
    pub fn step_event<'a>(
        &self,
        st: &'a mut EngineState,
        pre: &S,
        action: &A,
        post: &S,
        time: Rat,
    ) -> &'a [EngineEvent]
    where
        A: Eq + Hash,
    {
        if self.dispatch.dense {
            // One interner lookup per event; every per-condition check
            // is then a table-bit read (or a closure call for the
            // tracked opaque subset).
            let live = LiveEvent::new(&self.conds, &self.dispatch, pre, action, post);
            step_specs_dense(&self.specs, st, &live, time)
        } else {
            // Nothing in the tables: skip the row lookup and the mask
            // scans entirely and classify through the predicates, like
            // the pre-dispatch engine did.
            let live = DirectEvent {
                conds: &self.conds,
                pre,
                action,
                post,
            };
            step_specs_sparse(&self.specs, st, &live, time)
        }
    }

    /// Ends the stream: under [`SatisfactionMode::Complete`]
    /// (Definition 2.2) every still-open deadline becomes an upper-bound
    /// violation; under [`SatisfactionMode::Prefix`] (Definition 3.1,
    /// semi-satisfaction) open deadlines are excused. Open lower windows
    /// are always discharged — no further event can violate them.
    pub fn finish<'a>(&self, st: &'a mut EngineState, mode: SatisfactionMode) -> &'a [EngineEvent] {
        finish_specs(&self.specs, st, mode)
    }
}

impl<S: Clone + fmt::Debug, A: Clone + fmt::Debug + Eq + Hash> CompiledConditionSet<S, A> {
    /// Folds the engine over a complete recorded sequence and collects
    /// every violation, in event (discovery) order — the shared core of
    /// [`violations`](crate::violations) and the replay checkers. Runs
    /// on the automatically selected backend
    /// ([`BackendChoice::Auto`]); use
    /// [`fold_sequence_with`](CompiledConditionSet::fold_sequence_with)
    /// to pin the exact oracle.
    pub fn fold_sequence(
        &self,
        seq: &TimedSequence<S, A>,
        mode: SatisfactionMode,
    ) -> Vec<Violation> {
        self.fold_sequence_with(seq, mode, BackendChoice::default())
    }

    /// [`fold_sequence`](CompiledConditionSet::fold_sequence) with an
    /// explicit [`BackendChoice`] — the differential property net folds
    /// once per backend and compares verdicts pointwise.
    pub fn fold_sequence_with(
        &self,
        seq: &TimedSequence<S, A>,
        mode: SatisfactionMode,
        choice: BackendChoice,
    ) -> Vec<Violation> {
        let mut st = self.start_engine_with(seq.first_state(), choice);
        // Only violations are consumed here; skip the lifecycle log.
        st.set_log_lifecycle(false);
        let mut out = Vec::new();
        for (pre, a, t, post) in seq.step_triples() {
            if !self.step_engine(&mut st, pre, a, post, t).is_empty() {
                self.drain_violations(&mut st, &mut out);
            }
        }
        self.finish_engine(&mut st, mode);
        self.drain_violations(&mut st, &mut out);
        out
    }

    /// Moves every violation out of the state's event log into `out` —
    /// the log is drained, so each `ViolationKind` payload is moved
    /// rather than cloned.
    fn drain_violations(&self, st: &mut EngineImpl, out: &mut Vec<Violation>) {
        let events = match st {
            EngineImpl::Exact(est) => &mut est.events,
            EngineImpl::Int(ist) => ist.events_mut(),
        };
        for ev in events.drain(..) {
            if let EngineEvent::Violated { ci, kind } = ev {
                out.push(Violation {
                    condition: self.name(ci).to_string(),
                    kind,
                });
            }
        }
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    //! Exact snapshot encodings (feature `serde`): an [`Obligation`] as
    //! the triple `[trigger_index, is_upper, bound]` and an
    //! [`EngineState`] as `[events_seen, last_time, open]`, with the
    //! rationals in `tempo-math`'s `"num/den"` string form. The
    //! transient event-log buffer is not part of the snapshot.

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    use super::{EngineState, Obligation, ObligationKind};
    use tempo_math::Rat;

    impl Serialize for Obligation {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let (is_upper, bound) = match self.kind {
                ObligationKind::Lower { earliest } => (false, earliest),
                ObligationKind::Upper { deadline } => (true, deadline),
            };
            (self.trigger_index, is_upper, bound).serialize(serializer)
        }
    }

    impl<'de> Deserialize<'de> for Obligation {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Obligation, D::Error> {
            let (trigger_index, is_upper, bound) = <(usize, bool, Rat)>::deserialize(deserializer)?;
            let kind = if is_upper {
                ObligationKind::Upper { deadline: bound }
            } else {
                ObligationKind::Lower { earliest: bound }
            };
            Ok(Obligation {
                trigger_index,
                kind,
            })
        }
    }

    impl Serialize for EngineState {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            // Predictive bookkeeping (warning points, warned flags,
            // horizon) is deliberately *not* part of the snapshot: it
            // is derived state, reconstructed bit-for-bit by
            // `CompiledConditionSet::adopt_state_predictive` from the
            // compiled bounds — so the wire format is unchanged from
            // pre-predictive snapshots and they resume seamlessly.
            let open: Vec<Vec<Obligation>> = self
                .open
                .iter()
                .map(|obs| obs.iter().map(|o| o.ob).collect())
                .collect();
            (self.events_seen, self.last_time, open).serialize(serializer)
        }
    }

    impl<'de> Deserialize<'de> for EngineState {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<EngineState, D::Error> {
            let (events_seen, last_time, open) =
                <(usize, Rat, Vec<Vec<Obligation>>)>::deserialize(deserializer)?;
            // The active mask is derived state: rebuild it rather than
            // widening the snapshot format.
            let mut active = vec![0u64; open.len().div_ceil(64)];
            for (ci, obs) in open.iter().enumerate() {
                if !obs.is_empty() {
                    active[ci / 64] |= 1u64 << (ci % 64);
                }
            }
            let marks = vec![super::Marks::UNKNOWN; open.len()];
            let open = open
                .into_iter()
                .map(|obs| obs.into_iter().map(super::OpenOb::plain).collect())
                .collect();
            Ok(EngineState {
                open,
                active,
                last_time,
                events_seen,
                events: Vec::new(),
                log_lifecycle: true,
                horizon: None,
                warn_watermark: None,
                marks,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_math::Interval;

    fn lower(trigger: usize, earliest: i64) -> Obligation {
        Obligation {
            trigger_index: trigger,
            kind: ObligationKind::Lower {
                earliest: Rat::from(earliest),
            },
        }
    }

    fn upper(trigger: usize, deadline: i64) -> Obligation {
        Obligation {
            trigger_index: trigger,
            kind: ObligationKind::Upper {
                deadline: Rat::from(deadline),
            },
        }
    }

    #[test]
    fn remap_carries_preserved_obligations_and_reports_dropped() {
        let mut st = EngineState::new(3);
        st.open[0].push(OpenOb::plain(lower(0, 3)));
        bit_set(&mut st.active, 0);
        st.open[2].push(OpenOb::plain(upper(1, 9)));
        bit_set(&mut st.active, 2);
        st.last_time = Rat::from(2);
        st.events_seen = 5;
        // Condition 0 moves to index 1, condition 1 is dropped (it has
        // nothing open), condition 2 moves to index 0.
        let (next, dropped) = st.remap(&[Some(1), None, Some(0)], 2);
        assert_eq!(next.conditions(), 2);
        assert_eq!(next.open_of(1), &[lower(0, 3)]);
        assert_eq!(next.open_of(0), &[upper(1, 9)]);
        assert_eq!(next.last_time(), Rat::from(2));
        assert_eq!(next.events_seen(), 5);
        assert!(dropped.is_empty());
        assert_eq!(next.active[0] & 0b11, 0b11, "bitmask rebuilt in sync");

        let mut st = EngineState::new(2);
        st.open[1].push(OpenOb::plain(upper(0, 4)));
        bit_set(&mut st.active, 1);
        let (next, dropped) = st.remap(&[Some(0), None], 1);
        assert_eq!(dropped, vec![(1, upper(0, 4))]);
        assert_eq!(next.open_obligations(), 0);
        assert_eq!(next.active[0], 0);
    }

    #[test]
    fn remap_carries_warning_state_verbatim() {
        // A predictive stream mid-flight: one deadline already warned,
        // one not. Remapping (hot reload) must neither re-warn the
        // first nor lose the second's pending warning point.
        let mut st = EngineState::new(2);
        st.horizon = Some(Rat::from(3));
        st.open[0].push(OpenOb {
            ob: upper(1, 9),
            warn_at: Rat::from(6),
            warned: true,
        });
        bit_set(&mut st.active, 0);
        st.open[1].push(OpenOb {
            ob: upper(2, 20),
            warn_at: Rat::from(17),
            warned: false,
        });
        bit_set(&mut st.active, 1);
        st.last_time = Rat::from(7);
        let (next, dropped) = st.remap(&[Some(1), Some(0)], 2);
        assert!(dropped.is_empty());
        assert_eq!(next.horizon(), Some(Rat::from(3)));
        assert_eq!(next.warn_watermark, Some(Rat::from(17)));
        assert!(next.open[1][0].warned);
        assert!(!next.open[0][0].warned);
        assert_eq!(next.open[0][0].warn_at, Rat::from(17));
    }

    #[test]
    fn lower_window_resolution() {
        let o = lower(0, 3);
        // Early non-Π event keeps it open.
        assert_eq!(o.resolve(Rat::from(1), false, false), Resolution::Open);
        // Early Π-event violates.
        assert_eq!(o.resolve(Rat::from(1), true, false), Resolution::Violated);
        // Π exactly at the bound is fine (window closed).
        assert_eq!(o.resolve(Rat::from(3), true, false), Resolution::Discharged);
        // Disabling post-state kills the window...
        assert_eq!(o.resolve(Rat::from(1), false, true), Resolution::Discharged);
        // ...but not for its own event's Π-check.
        assert_eq!(o.resolve(Rat::from(1), true, true), Resolution::Violated);
    }

    #[test]
    fn upper_deadline_resolution() {
        let o = upper(2, 5);
        assert_eq!(o.resolve(Rat::from(4), false, false), Resolution::Open);
        // Served by Π at the deadline exactly.
        assert_eq!(o.resolve(Rat::from(5), true, false), Resolution::Discharged);
        // Served by a disabling state.
        assert_eq!(o.resolve(Rat::from(4), false, true), Resolution::Discharged);
        // Past the deadline, even a Π-event is too late.
        assert_eq!(o.resolve(Rat::from(6), true, false), Resolution::Violated);
    }

    #[test]
    fn lower_escape_gates_the_disabling_discharge() {
        // Definition 2.1's lower bound has no disabling escape: the
        // window stays open through a disabling state.
        let o = lower(0, 3);
        assert_eq!(
            o.resolve_in(Rat::from(1), false, true, false),
            Resolution::Open
        );
        assert_eq!(
            o.resolve_in(Rat::from(1), true, true, false),
            Resolution::Violated
        );
    }

    fn cond(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_at_start(|s| *s == 0)
            .on_actions(|a| *a == "fire")
    }

    #[test]
    fn classification_is_per_condition() {
        let c2: TimingCondition<u8, &'static str> =
            TimingCondition::new("D", Interval::closed(Rat::ZERO, Rat::from(9)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "done")
                .disabled_in(|s| *s == 7);
        let set = CompiledConditionSet::new(&[cond(1, 4), c2]);
        let mut cls = EventClassification::new(set.len());
        set.classify(&0, &"go", &7, &mut cls);
        assert!(!cls.pi(0) && !cls.disabling(0) && !cls.trigger(0));
        assert!(!cls.pi(1) && cls.disabling(1) && cls.trigger(1));
        set.classify(&0, &"fire", &1, &mut cls);
        assert!(cls.pi(0) && !cls.trigger(1));
    }

    #[test]
    fn start_opens_trigger_zero_obligations() {
        let set = CompiledConditionSet::new(&[cond(2, 4)]);
        let st = set.start(&0);
        assert_eq!(st.open_obligations(), 2);
        assert_eq!(st.open_of(0)[0], lower(0, 2));
        assert_eq!(st.open_of(0)[1], upper(0, 4));
        // A non-T_start state opens nothing.
        assert_eq!(set.start(&1).open_obligations(), 0);
    }

    #[test]
    fn step_resolves_before_opening() {
        // `go` both triggers and is a Π-action: the triggering event
        // must not serve its own freshly opened deadline.
        let c: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(3)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "go");
        let set = CompiledConditionSet::new(&[c]);
        let mut st = set.start(&0);
        let mut cls = EventClassification::new(1);
        set.classify(&0, &"go", &1, &mut cls);
        let events = set.step(&mut st, &cls, Rat::from(1));
        assert!(matches!(events, [EngineEvent::Opened { .. }]));
        assert_eq!(st.open_obligations(), 1);
    }

    #[test]
    fn fold_matches_the_event_and_trigger_indices() {
        let set = CompiledConditionSet::new(&[cond(2, 10)]);
        let mut seq = TimedSequence::new(0u8);
        seq.push("fire", Rat::from(1), 1);
        let vs = set.fold_sequence(&seq, SatisfactionMode::Prefix);
        assert_eq!(vs.len(), 1);
        assert_eq!(
            vs[0].kind,
            ViolationKind::LowerBound {
                trigger_index: 0,
                event_index: 1,
                earliest: Rat::from(2),
            }
        );
    }

    #[test]
    fn finish_violates_open_deadlines_only_in_complete_mode() {
        let set = CompiledConditionSet::new(&[cond(0, 4)]);
        let mut st = set.start(&0);
        assert!(matches!(
            set.finish(&mut st, SatisfactionMode::Prefix),
            [EngineEvent::Discharged { .. }]
        ));
        let mut st = set.start(&0);
        assert!(matches!(
            set.finish(&mut st, SatisfactionMode::Complete),
            [EngineEvent::Violated { .. }]
        ));
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_time_panics() {
        let set = CompiledConditionSet::new(&[cond(0, 4)]);
        let mut st = set.start(&0);
        let cls = EventClassification::new(1);
        set.step(&mut st, &cls, Rat::from(3));
        set.step(&mut st, &cls, Rat::from(2));
    }

    #[test]
    fn dispatch_stats_report_interning_and_fallbacks() {
        use crate::ActionSet;
        let declarative: TimingCondition<u8, &'static str> =
            TimingCondition::new("D", Interval::closed(Rat::ONE, Rat::from(4)).unwrap())
                .triggered_by_actions(ActionSet::only("go"))
                .on_action_set(ActionSet::of(["done", "go"]));
        let opaque: TimingCondition<u8, &'static str> =
            TimingCondition::new("O", Interval::closed(Rat::ONE, Rat::from(4)).unwrap())
                .triggered_by_step(|_, a, _| *a == "go")
                .on_actions(|a| *a == "done")
                .disabled_in(|s| *s == 7);
        let set = CompiledConditionSet::new(&[declarative, opaque]);
        let stats = set.dispatch_stats();
        assert_eq!(stats.conditions, 2);
        assert_eq!(stats.interned_actions, 2); // "go", "done"
        assert_eq!(stats.opaque_trigger, 1);
        assert_eq!(stats.opaque_pi, 1);
        assert_eq!(stats.opaque_disabling, 1);
    }

    #[test]
    fn declarative_and_opaque_conditions_fold_identically() {
        use crate::ActionSet;
        // The same condition, built both ways; a trace with a lower-bound
        // violation, a discharge, and an unserved deadline.
        let decl: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::from(2), Rat::from(5)).unwrap())
                .triggered_by_actions(ActionSet::only("req"))
                .on_action_set(ActionSet::only("grant"));
        let opaq: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::from(2), Rat::from(5)).unwrap())
                .triggered_by_step(|_, a, _| *a == "req")
                .on_actions(|a| *a == "grant");
        let mut seq = TimedSequence::new(0u8);
        seq.push("req", Rat::from(1), 1);
        seq.push("grant", Rat::from(2), 2); // too early: 1 + 2 > 2
        seq.push("req", Rat::from(3), 3);
        seq.push("idle", Rat::from(9), 4); // deadline 3 + 5 passes unserved
        for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
            let a =
                CompiledConditionSet::new(std::slice::from_ref(&decl)).fold_sequence(&seq, mode);
            let b =
                CompiledConditionSet::new(std::slice::from_ref(&opaq)).fold_sequence(&seq, mode);
            assert_eq!(a, b);
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn complement_sets_cover_uninterned_actions() {
        use crate::ActionSet;
        // Π = everything except "tick": an action the interner has never
        // seen must dispatch through the default row and still serve the
        // deadline.
        let c: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(5)).unwrap())
                .triggered_at_start(|s| *s == 0)
                .on_action_set(ActionSet::all_except(["tick"]));
        let set = CompiledConditionSet::new(std::slice::from_ref(&c));
        let mut st = set.start(&0);
        assert_eq!(st.open_obligations(), 1);
        set.step_event(&mut st, &0, &"tick", &1, Rat::from(1));
        assert_eq!(st.open_obligations(), 1); // excluded action: still open
        set.step_event(&mut st, &1, &"never-mentioned", &2, Rat::from(2));
        assert_eq!(st.open_obligations(), 0); // default row serves it
    }

    #[test]
    fn action_based_disabling_dispatches_on_the_event_action() {
        use crate::ActionSet;
        let c: TimingCondition<u8, &'static str> =
            TimingCondition::new("C", Interval::closed(Rat::ZERO, Rat::from(5)).unwrap())
                .triggered_by_actions(ActionSet::only("req"))
                .on_action_set(ActionSet::only("grant"))
                .disabled_by_actions(ActionSet::only("freeze"));
        let set = CompiledConditionSet::new(std::slice::from_ref(&c));
        let mut st = set.start(&0);
        set.step_event(&mut st, &0, &"req", &1, Rat::from(1));
        assert_eq!(st.open_obligations(), 1);
        set.step_event(&mut st, &1, &"freeze", &2, Rat::from(2));
        assert_eq!(st.open_obligations(), 0); // disabling discharges it
                                              // And the fused path agrees with classify + step.
        let mut st2 = set.start(&0);
        let mut cls = EventClassification::new(set.len());
        set.classify(&0, &"req", &1, &mut cls);
        set.step(&mut st2, &cls, Rat::from(1));
        set.classify(&1, &"freeze", &2, &mut cls);
        set.step(&mut st2, &cls, Rat::from(2));
        assert_eq!(st2.open_obligations(), 0);
    }

    #[test]
    fn active_mask_tracks_open_conditions_across_resolution() {
        // 70 conditions (two mask words), only one ever armed: the
        // resolution scan must visit exactly the active one and keep the
        // mask in sync as obligations discharge.
        let conds: Vec<TimingCondition<u8, &'static str>> = (0..70)
            .map(|i| {
                use crate::ActionSet;
                TimingCondition::new(
                    format!("C{i}"),
                    Interval::closed(Rat::ZERO, Rat::from(5)).unwrap(),
                )
                .triggered_by_actions(ActionSet::only(if i == 69 { "go" } else { "other" }))
                .on_action_set(ActionSet::only("done"))
            })
            .collect();
        let set = CompiledConditionSet::new(&conds);
        let mut st = set.start(&0);
        set.step_event(&mut st, &0, &"go", &1, Rat::from(1));
        assert_eq!(st.open_obligations(), 1);
        assert_eq!(st.open_of(69).len(), 1);
        set.step_event(&mut st, &1, &"done", &2, Rat::from(2));
        assert_eq!(st.open_obligations(), 0);
        // Re-arming after a full discharge works (mask bit set again).
        set.step_event(&mut st, &2, &"go", &3, Rat::from(3));
        assert_eq!(st.open_of(69).len(), 1);
    }

    #[test]
    fn classification_bitsets_span_many_words() {
        let mut cls = EventClassification::new(130);
        cls.set_pi(0);
        cls.set_pi(64);
        cls.set_trigger(129);
        assert!(cls.pi(0) && cls.pi(64) && !cls.pi(63));
        assert!(cls.trigger(129) && !cls.disabling(129));
        cls.clear();
        assert!(!cls.pi(64) && !cls.trigger(129));
    }

    fn req_grant(lo: i64, hi: i64) -> TimingCondition<u8, &'static str> {
        use crate::ActionSet;
        TimingCondition::new("C", Interval::closed(Rat::from(lo), Rat::from(hi)).unwrap())
            .triggered_by_actions(ActionSet::only("req"))
            .on_action_set(ActionSet::only("grant"))
    }

    fn predictive_start(
        set: &CompiledConditionSet<u8, &'static str>,
        h: i64,
        choice: BackendChoice,
    ) -> EngineImpl {
        set.start_engine_predictive(&0, choice, Some(Rat::from(h)))
    }

    #[test]
    fn warning_emitted_once_strictly_past_the_warn_point() {
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
            let mut st = predictive_start(&set, 3, choice);
            st.set_log_lifecycle(false);
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2)); // deadline 12, warn 9
            assert!(set
                .step_engine(&mut st, &0, &"idle", &1, Rat::from(9))
                .is_empty());
            let evs = set.step_engine(&mut st, &0, &"idle", &1, Rat::from(10));
            assert_eq!(
                evs,
                &[EngineEvent::Warned {
                    ci: 0,
                    trigger_index: 1,
                    deadline: Rat::from(12),
                    warn_at: Rat::from(9),
                }],
                "backend {choice:?}"
            );
            // Once only.
            assert!(set
                .step_engine(&mut st, &0, &"idle", &1, Rat::from(11))
                .is_empty());
        }
    }

    #[test]
    fn warning_precedes_violation_on_a_time_jump() {
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
            let mut st = predictive_start(&set, 3, choice);
            st.set_log_lifecycle(false);
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            let evs = set.step_engine(&mut st, &0, &"idle", &1, Rat::from(50));
            assert!(
                matches!(
                    evs,
                    [EngineEvent::Warned { .. }, EngineEvent::Violated { .. }]
                ),
                "backend {choice:?}: {evs:?}"
            );
        }
    }

    #[test]
    fn forced_window_reported_once_at_open_when_margin_covers_horizon() {
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let set = CompiledConditionSet::new(&[req_grant(5, 20)]);
            let mut st = predictive_start(&set, 3, choice);
            st.set_log_lifecycle(false);
            let evs = set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            assert_eq!(
                evs,
                &[EngineEvent::Forced {
                    ci: 0,
                    trigger_index: 1,
                    earliest: Rat::from(7),
                    t_i: Rat::from(2),
                    margin: Rat::from(5),
                }],
                "backend {choice:?}"
            );
            // The Ft query agrees while the window is ahead...
            assert_eq!(
                set.earliest_legal(&st, &"grant"),
                Some(Rat::from(7)),
                "backend {choice:?}"
            );
            assert_eq!(set.earliest_legal(&st, &"req"), None);
            // ...and clears once the stream clock passes it.
            set.step_engine(&mut st, &0, &"idle", &1, Rat::from(7));
            assert_eq!(set.earliest_legal(&st, &"grant"), None);
        }
    }

    #[test]
    fn short_margins_and_zero_horizon_report_no_forced_window() {
        for (lo, h) in [(2i64, 3i64), (5, 0)] {
            let set = CompiledConditionSet::new(&[req_grant(lo, 20)]);
            let mut st = set.start_engine_predictive(&0, BackendChoice::Auto, Some(Rat::from(h)));
            st.set_log_lifecycle(false);
            let evs = set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            assert!(
                !evs.iter().any(|e| matches!(e, EngineEvent::Forced { .. })),
                "lo={lo} h={h}: {evs:?}"
            );
        }
    }

    #[test]
    fn adopting_a_snapshot_rearms_without_rewarning() {
        let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
        let mut st = predictive_start(&set, 3, BackendChoice::Exact);
        st.set_log_lifecycle(false);
        set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
        set.step_engine(&mut st, &0, &"idle", &1, Rat::from(10)); // warned
        let snap = st.snapshot();
        // Re-adopt on each backend: the warned flag must be
        // reconstructed from `last_time`, so no second warning fires.
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let mut resumed = set.adopt_state_predictive(snap.clone(), choice, Some(Rat::from(3)));
            resumed.set_log_lifecycle(false);
            let evs = set.step_engine(&mut resumed, &0, &"idle", &1, Rat::from(11));
            assert!(evs.is_empty(), "backend {choice:?}: {evs:?}");
        }
        // But a *pending* warning survives the round trip.
        let set2 = CompiledConditionSet::new(&[req_grant(0, 10)]);
        let mut st2 = predictive_start(&set2, 3, BackendChoice::Exact);
        st2.set_log_lifecycle(false);
        set2.step_engine(&mut st2, &0, &"req", &1, Rat::from(2));
        let snap2 = st2.snapshot();
        let mut resumed =
            set2.adopt_state_predictive(snap2, BackendChoice::Auto, Some(Rat::from(3)));
        resumed.set_log_lifecycle(false);
        let evs = set2.step_engine(&mut resumed, &0, &"idle", &1, Rat::from(10));
        assert!(
            matches!(evs, [EngineEvent::Warned { .. }]),
            "pending warning lost: {evs:?}"
        );
    }

    #[test]
    fn min_deadline_tracks_the_tightest_open_deadline() {
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
            let mut st = predictive_start(&set, 3, choice);
            st.set_log_lifecycle(false);
            assert_eq!(st.min_deadline(), None);
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(5));
            assert_eq!(st.min_deadline(), Some(Rat::from(12)), "backend {choice:?}");
            set.step_engine(&mut st, &0, &"grant", &1, Rat::from(6));
            assert_eq!(st.min_deadline(), None, "grant serves both deadlines");
        }
    }

    #[test]
    fn watermarks_never_hide_a_window_opened_after_a_time_discharge() {
        // The stale-high hazard: passing time discharges condition 0's
        // only window, so its rescan leaves no window watermark. A later
        // trigger opens a window bounded before anything the old marks
        // knew of; the event reaching that bound must still see it.
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let set = CompiledConditionSet::new(&[req_grant(1, 10)]);
            let mut st = set.start_engine_with(&0, choice);
            let mut step = |a: &'static str, t: i64| {
                set.step_engine(&mut st, &0, &a, &0, Rat::from(t)).to_vec()
            };
            step("req", 1); // j=1: window@2, deadline@11
            assert_eq!(
                step("idle", 2),
                [EngineEvent::Discharged {
                    ci: 0,
                    obligation: lower(1, 2)
                }]
            );
            step("req", 3); // j=3: window@4, deadline@13
            assert_eq!(
                step("idle", 4),
                [EngineEvent::Discharged {
                    ci: 0,
                    obligation: lower(3, 4)
                }],
                "backend {choice:?}"
            );
            assert_eq!(
                step("idle", 12),
                [EngineEvent::Violated {
                    ci: 0,
                    kind: ViolationKind::UpperBound {
                        trigger_index: 1,
                        deadline: Rat::from(11)
                    }
                }],
                "backend {choice:?}"
            );
        }
    }

    #[test]
    fn quiescent_events_skip_the_scan_but_keep_min_deadline() {
        let set = CompiledConditionSet::new(&[req_grant(1, 10)]);
        let mut st = set.start(&0);
        set.step_event(&mut st, &0, &"req", &0, Rat::from(1));
        set.step_event(&mut st, &0, &"req", &0, Rat::from(1));
        // The first event after the triggers scans and learns the marks.
        assert!(set
            .step_event(&mut st, &0, &"idle", &0, Rat::from(1))
            .is_empty());
        assert!(st.marks[0].known);
        assert_eq!(st.marks[0].earliest, Some(Rat::from(2)));
        assert_eq!(st.min_deadline(), Some(Rat::from(11)));
        // A snapshot round trip (here: a remap) forgets them; the scan
        // fallback still answers exactly.
        let (mut st, _) = st.remap(&[Some(0)], 1);
        assert!(!st.marks[0].known);
        assert_eq!(st.min_deadline(), Some(Rat::from(11)));
        set.step_event(&mut st, &0, &"idle", &0, Rat::from(1));
        assert!(st.marks[0].known);
    }

    #[test]
    fn finish_complete_files_the_owed_warning_before_the_violation() {
        for choice in [BackendChoice::Auto, BackendChoice::Exact] {
            let set = CompiledConditionSet::new(&[req_grant(0, 10)]);
            let mut st = predictive_start(&set, 3, choice);
            st.set_log_lifecycle(false);
            set.step_engine(&mut st, &0, &"req", &1, Rat::from(2));
            let evs = set.finish_engine(&mut st, SatisfactionMode::Complete);
            assert!(
                matches!(
                    evs,
                    [EngineEvent::Warned { .. }, EngineEvent::Violated { .. }]
                ),
                "backend {choice:?}: {evs:?}"
            );
        }
    }
}
