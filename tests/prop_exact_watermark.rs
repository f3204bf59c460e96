//! Differential property net for the exact engine's resolve watermarks.
//!
//! The exact backend skips the per-condition scan for events that are
//! neither in `Π` nor disabling and arrive before every open bound. The
//! watermarks behind that skip are derived state: every path that
//! rebuilds the open store (a serde snapshot adopted back, an identity
//! remap as in hot reload, the int→exact spill) leaves them unknown, and
//! the next scan relearns them. Here an uninterrupted exact run is
//! compared, event by event, against a run that takes one of those
//! detours at a random step: the full [`EngineEvent`] log (lifecycle
//! events included), every condition's open obligations, and
//! `min_deadline()` must agree after every event and at finish.

use proptest::prelude::*;
use tempo_core::engine::{
    BackendChoice, CompiledConditionSet, EngineBackend, EngineEvent, EngineImpl, EngineState,
};
use tempo_core::{ActionSet, SatisfactionMode, TimingCondition};
use tempo_math::{Interval, Rat};

const UNIVERSE: u32 = 6;
const START: u32 = 999;

#[derive(Clone, Debug)]
struct CondSpec {
    lo: i64,
    hi: Option<i64>,
    start_trigger: bool,
    trigger: Vec<u32>,
    pi: Vec<u32>,
    disabling: Vec<u32>,
}

impl CondSpec {
    /// Builds the condition from declarative sets (the dense stepper) or,
    /// with `opaque`, from closures over the same sets (the sparse one).
    /// Events carry their action as post-state, so the opaque disabling
    /// state predicate matches the declarative action set.
    fn build(&self, name: &str, opaque: bool) -> TimingCondition<u32, u32> {
        let bounds = match self.hi {
            Some(h) => Interval::closed(Rat::from(self.lo), Rat::from(h)).unwrap(),
            None => Interval::unbounded_above(Rat::from(self.lo)),
        };
        let mut c = TimingCondition::new(name, bounds);
        if opaque {
            let (trigger, pi, disabling) = (
                self.trigger.clone(),
                self.pi.clone(),
                self.disabling.clone(),
            );
            c = c
                .triggered_by_step(move |_, a, _| trigger.contains(a))
                .on_actions(move |a| pi.contains(a))
                .disabled_in(move |s| disabling.contains(s));
        } else {
            c = c
                .triggered_by_actions(ActionSet::of(self.trigger.iter().copied()))
                .on_action_set(ActionSet::of(self.pi.iter().copied()))
                .disabled_by_actions(ActionSet::of(self.disabling.iter().copied()));
        }
        if self.start_trigger {
            c = c.triggered_at_start(|s| *s == START);
        }
        c
    }
}

fn subset() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..UNIVERSE, 0..3)
}

/// Integral bounds, so the spill detour can start on the int backend;
/// lower bounds are mostly nonzero, so windows are open.
fn cond_spec() -> impl Strategy<Value = CondSpec> {
    (
        0i64..=3,
        proptest::option::of(0i64..=5),
        any::<bool>(),
        subset(),
        subset(),
        subset(),
    )
        .prop_map(
            |(lo, spread, start_trigger, trigger, pi, disabling)| CondSpec {
                lo,
                // `Interval` rejects hi == 0, so keep finite uppers ≥ 1.
                hi: spread.map(|s| (lo + s).max(1)),
                start_trigger,
                trigger,
                pi,
                disabling,
            },
        )
}

/// Where the interrupted run leaves the uninterrupted one.
#[derive(Clone, Copy, Debug)]
enum Detour {
    /// Snapshot, serialize, deserialize, and adopt back onto exact.
    Serde,
    /// Identity remap (a hot reload that keeps every condition).
    Remap,
    /// Run on the int backend up to the detour step, whose off-grid
    /// time spills the state to exact.
    Spill,
}

fn detour() -> impl Strategy<Value = Detour> {
    prop_oneof![
        Just(Detour::Serde),
        Just(Detour::Remap),
        Just(Detour::Spill)
    ]
}

/// Event times in quarters of a unit (off the unit tick grid of an
/// integral-bound set). Under [`Detour::Spill`] every step before `at`
/// advances by whole units and step `at` lands off grid, so the
/// int-backed run spills exactly there.
fn times(dts: &[i64], detour: Detour, at: usize) -> Vec<Rat> {
    let mut q = 0i64;
    dts.iter()
        .enumerate()
        .map(|(k, &dt)| {
            q += match detour {
                Detour::Spill if k < at => 4 * dt,
                Detour::Spill if k == at => 4 * dt + 1,
                _ => dt,
            };
            Rat::new(q.into(), 4)
        })
        .collect()
}

/// Every observable the watermarks could disturb, in a comparable form:
/// open obligations per condition (as a sorted multiset — storage order
/// is a `swap_remove` artifact the spill canonicalizes), their count,
/// and the earliest open deadline.
fn observe(st: &EngineImpl) -> (Vec<Vec<String>>, usize, Option<Rat>) {
    let open = (0..st.conditions())
        .map(|ci| {
            let mut obs: Vec<String> = st.open_of(ci).iter().map(|o| format!("{o:?}")).collect();
            obs.sort();
            obs
        })
        .collect();
    (open, st.open_obligations(), st.min_deadline())
}

fn sorted(events: &[EngineEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    keys.sort();
    keys
}

fn take_detour(
    set: &CompiledConditionSet<u32, u32>,
    st: &EngineImpl,
    detour: Detour,
    horizon: Option<Rat>,
) -> EngineImpl {
    match detour {
        Detour::Serde => {
            let json = serde_json::to_string(&st.snapshot()).expect("snapshot serializes");
            let restored: EngineState = serde_json::from_str(&json).expect("snapshot parses");
            set.adopt_state_predictive(restored, BackendChoice::Exact, horizon)
        }
        Detour::Remap => {
            let identity: Vec<Option<usize>> = (0..set.len()).map(Some).collect();
            let (next, dropped) = st.snapshot().remap(&identity, set.len());
            assert!(dropped.is_empty());
            set.adopt_state(next, BackendChoice::Exact)
        }
        // The spill happens inside the step itself.
        Detour::Spill => st.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detours_leave_the_exact_engine_pointwise_equal(
        specs in proptest::collection::vec(cond_spec(), 1..4),
        opaque in any::<bool>(),
        horizon in proptest::option::of(0i64..=3),
        steps in proptest::collection::vec((0..UNIVERSE + 2, 0i64..=6), 1..32),
        detour in detour(),
        at in 0usize..32,
    ) {
        let conds: Vec<TimingCondition<u32, u32>> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.build(&format!("c{i}"), opaque))
            .collect();
        let set = CompiledConditionSet::new(&conds);
        let horizon = horizon.map(Rat::from);
        let at = at % steps.len();
        let dts: Vec<i64> = steps.iter().map(|&(_, dt)| dt).collect();
        let times = times(&dts, detour, at);

        let mut reference = set.start_engine_predictive(&START, BackendChoice::Exact, horizon);
        let detour_choice = match detour {
            Detour::Spill => BackendChoice::Auto,
            _ => BackendChoice::Exact,
        };
        let mut run = set.start_engine_predictive(&START, detour_choice, horizon);
        if matches!(detour, Detour::Spill) {
            prop_assert_eq!(run.backend(), EngineBackend::Int);
        }
        let mut pre = START;
        for (k, (&(a, _), &t)) in steps.iter().zip(&times).enumerate() {
            if k == at {
                run = take_detour(&set, &run, detour, horizon);
            }
            let want: Vec<EngineEvent> = set.step_engine(&mut reference, &pre, &a, &a, t).to_vec();
            let got: Vec<EngineEvent> = set.step_engine(&mut run, &pre, &a, &a, t).to_vec();
            if k < at && matches!(detour, Detour::Spill) {
                // Still int vs exact: on an opaque set the exact stepper
                // interleaves one condition's opens with the next one's
                // resolutions, the int stepper does not. Same events.
                prop_assert_eq!(sorted(&got), sorted(&want), "int log at step {}", k);
            } else {
                prop_assert_eq!(&got, &want, "event log at step {} ({:?} at {})", k, detour, at);
            }
            prop_assert_eq!(observe(&run), observe(&reference), "state at step {}", k);
            if k >= at {
                prop_assert_eq!(run.backend(), EngineBackend::Exact);
            }
            pre = a;
        }
        for mode in [SatisfactionMode::Prefix, SatisfactionMode::Complete] {
            let (mut r, mut d) = (reference.clone(), run.clone());
            let want = set.finish_engine(&mut r, mode).to_vec();
            let got = set.finish_engine(&mut d, mode).to_vec();
            prop_assert_eq!(got, want, "finish, mode {:?}", mode);
        }
    }
}
