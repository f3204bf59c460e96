//! Exact arithmetic substrate for the `tempo` timed-automata library.
//!
//! Lynch and Attiya's *Using Mappings to Prove Timing Properties* (PODC 1990)
//! manipulates real-valued times, time bounds and their sums and differences
//! (`k·c1 − l`, `t + (n − k)·d2`, …). Reproducing the paper's proofs as
//! executable checks requires that such expressions be compared **exactly**:
//! a mapping inequality like `min(Lt(G1), Lt(G2)) ≥ Lt(TICK) + (TIMER−1)·c2 + l`
//! must hold as written, not up to floating-point error.
//!
//! This crate therefore provides:
//!
//! * [`Rat`] — normalized `i128` rationals with overflow-checked arithmetic,
//!   and [`PackedRat`], their 16-byte storage form for values in `i64`/`u64`;
//! * [`TimeVal`] — the extended time domain `ℚ ∪ {+∞}` used for last-time
//!   predictions (`Lt`) and upper bounds of boundmap intervals;
//! * [`Interval`] — closed intervals `[lo, hi]` with `lo` finite, used both
//!   for boundmap entries and for timing-condition bounds, enforcing the
//!   paper's well-formedness rule (`b_l ≠ ∞`, `b_u ≠ 0`).
//!
//! # Example
//!
//! ```
//! use tempo_math::{Rat, TimeVal, Interval};
//!
//! let c1 = Rat::new(3, 2); // 1.5
//! let c2 = Rat::from(2);
//! let tick = Interval::new(c1, TimeVal::from(c2)).unwrap();
//! assert!(tick.contains(Rat::new(7, 4)));
//! assert_eq!(TimeVal::INFINITY + TimeVal::from(c1), TimeVal::INFINITY);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod rat;
mod scale;
#[cfg(feature = "serde")]
mod serde_impls;
mod timeval;

pub use interval::{Interval, IntervalError};
pub use rat::{PackedRat, ParseRatError, Rat};
pub use scale::TimeScale;
pub use timeval::TimeVal;
