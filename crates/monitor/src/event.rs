//! Owned stream events, as carried across pool queues.

use tempo_math::{PackedRat, Rat};

/// One owned event of a timed stream: the action, its absolute time, and
/// the state reached. The owned counterpart of the borrowed triple taken
/// by [`Monitor::observe`](crate::Monitor::observe), suitable for
/// sending over channels.
///
/// The time is stored as a [`PackedRat`] (16 bytes instead of a
/// [`Rat`]'s 32), because events are held in bulk in the pool's
/// per-stream rings: an `Event<u32, u32>` is 24 bytes, and so is an
/// `Option` of one. Read it back with `Rat::from(event.time)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<S, A> {
    /// The action performed.
    pub action: A,
    /// Absolute time of the event (nondecreasing along a stream).
    pub time: PackedRat,
    /// The post-state reached by the action.
    pub state: S,
}

impl<S, A> Event<S, A> {
    /// Bundles an event.
    ///
    /// # Panics
    ///
    /// Panics with "event time outside the packed i64/u64 range" if
    /// `time`'s normalized numerator does not fit an `i64` or its
    /// denominator does not fit a `u64` (see [`PackedRat`]). Every time
    /// the binary wire can carry fits.
    pub fn new(action: A, time: Rat, state: S) -> Event<S, A> {
        Event {
            action,
            time: PackedRat::try_from(time).expect("event time outside the packed i64/u64 range"),
            state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_fields() {
        let e = Event::new("fire", Rat::new(7, 2), 7u8);
        assert_eq!(e.action, "fire");
        assert_eq!(Rat::from(e.time), Rat::new(7, 2));
        assert_eq!(e.state, 7);
    }

    #[test]
    fn an_event_of_ids_is_24_bytes_with_or_without_option() {
        assert_eq!(std::mem::size_of::<Event<u32, u32>>(), 24);
        assert_eq!(std::mem::size_of::<Option<Event<u32, u32>>>(), 24);
    }

    #[test]
    #[should_panic(expected = "event time outside the packed i64/u64 range")]
    fn out_of_range_time_panics() {
        let _ = Event::new((), Rat::from(i128::from(i64::MAX) + 1), ());
    }
}
