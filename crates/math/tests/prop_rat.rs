//! Property tests: `Rat` satisfies the ordered-field axioms (within the
//! magnitudes exercised here) and `TimeVal`/`Interval` respect their laws.

use proptest::prelude::*;
use tempo_math::{Interval, PackedRat, Rat, TimeVal};

fn small_rat() -> impl Strategy<Value = Rat> {
    (-1000i128..1000, 1i128..100).prop_map(|(n, d)| Rat::new(n, d))
}

fn nonneg_rat() -> impl Strategy<Value = Rat> {
    (0i128..1000, 1i128..100).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    #[test]
    fn add_commutative(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_distributes(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse(a in small_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
        prop_assert_eq!(a - a, Rat::ZERO);
    }

    #[test]
    fn multiplicative_inverse(a in small_rat()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Rat::ONE);
        }
    }

    #[test]
    fn ordering_total_and_compatible(a in small_rat(), b in small_rat(), c in small_rat()) {
        // Totality.
        prop_assert!(a <= b || b <= a);
        // Translation invariance.
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
        // Positive scaling preserves order.
        if a <= b && c.is_positive() {
            prop_assert!(a * c <= b * c);
        }
    }

    #[test]
    fn normalization_canonical(a in small_rat(), k in 1i128..50) {
        // num/den scaled by k normalizes back to the same value.
        prop_assert_eq!(Rat::new(a.numer() * k, a.denom() * k), a);
        prop_assert!(a.denom() > 0);
    }

    #[test]
    fn display_parse_round_trip(a in small_rat()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Rat>().unwrap(), a);
    }

    #[test]
    fn timeval_ordering_embeds_rat(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(
            TimeVal::from(a) <= TimeVal::from(b),
            a <= b
        );
        prop_assert!(TimeVal::from(a) < TimeVal::INFINITY);
    }

    #[test]
    fn timeval_addition_monotone(a in small_rat(), b in small_rat(), c in small_rat()) {
        if a <= b {
            prop_assert!(TimeVal::from(a) + c <= TimeVal::from(b) + c);
        }
        prop_assert_eq!(TimeVal::INFINITY + a, TimeVal::INFINITY);
    }

    #[test]
    fn interval_shift_preserves_membership(lo in nonneg_rat(), width in nonneg_rat(),
                                           frac in 0u8..=100, t in nonneg_rat()) {
        let hi = lo + width;
        if hi.is_zero() {
            return Ok(());
        }
        let iv = Interval::closed(lo, hi).unwrap();
        // A point a fraction of the way through the interval.
        let point = lo + width * Rat::new(frac as i128, 100);
        prop_assert!(iv.contains(point));
        prop_assert!(iv.shift(t).contains(point + t));
    }

    #[test]
    fn interval_sum_contains_pointwise_sums(l1 in nonneg_rat(), w1 in nonneg_rat(),
                                            l2 in nonneg_rat(), w2 in nonneg_rat()) {
        let (h1, h2) = (l1 + w1, l2 + w2);
        if h1.is_zero() || h2.is_zero() || (l1 + l2 + w1 + w2).is_zero() {
            return Ok(());
        }
        let a = Interval::closed(l1, h1).unwrap();
        let b = Interval::closed(l2, h2).unwrap();
        let s = a.sum(b);
        prop_assert!(s.contains(l1 + l2));
        prop_assert!(s.contains(h1 + h2));
        prop_assert!(s.contains(l1 + h2));
    }
}

/// `Rat::new` at denominator 1 returns the integer unchanged (its
/// shortcut skips the gcd), at both ends of `i128` too.
#[test]
fn new_at_den_one_is_the_integer() {
    for n in [i128::MIN, i128::MIN + 1, -1, 0, 1, i128::MAX] {
        assert_eq!(Rat::new(n, 1), Rat::from(n));
        assert_eq!(Rat::new(n, 1).denom(), 1);
    }
    let r = Rat::new(2000, 1000);
    assert_eq!((r.numer(), r.denom()), (2, 1));
    assert_eq!(Rat::new(-2000, -1000), Rat::from(2));
}

const I64_MAX: i128 = i64::MAX as i128;
const I64_MIN: i128 = i64::MIN as i128;
const U64_MAX: i128 = u64::MAX as i128;

/// `PackedRat` accepts the extremes of its range and rejects one past
/// each of them.
#[test]
fn packed_rat_range_boundaries() {
    for r in [
        Rat::from(I64_MAX),
        Rat::from(I64_MIN),
        Rat::new(1, U64_MAX),
        Rat::new(-1, U64_MAX),
        Rat::new(I64_MAX, U64_MAX),
        Rat::new(I64_MIN, U64_MAX),
    ] {
        let p = PackedRat::try_from(r).expect("in range");
        assert_eq!(Rat::from(p), r);
    }
    for r in [
        Rat::from(I64_MAX + 1),
        Rat::from(I64_MIN - 1),
        Rat::new(1, U64_MAX + 1),
        Rat::new(-1, U64_MAX + 1),
        Rat::from(i128::MAX),
        Rat::from(i128::MIN),
    ] {
        assert!(PackedRat::try_from(r).is_err(), "{r} should not pack");
    }
    // Normalization decides: 2·(i64::MAX + 1) / 2 is out of range, but
    // (i64::MAX + 1) / (u64::MAX + 1) reduces to 1/2.
    assert!(PackedRat::try_from(Rat::new(2 * (I64_MAX + 1), 2)).is_err());
    let half = PackedRat::try_from(Rat::new(I64_MAX + 1, U64_MAX + 1)).unwrap();
    assert_eq!(Rat::from(half), Rat::new(1, 2));
}

proptest! {
    #[test]
    fn new_at_den_one_matches_from(
        n in (i64::MIN..=i64::MAX, u64::MIN..=u64::MAX)
            .prop_map(|(hi, lo)| (i128::from(hi) << 64) | i128::from(lo)),
    ) {
        prop_assert_eq!(Rat::new(n, 1), Rat::from(n));
    }

    /// Packing round-trips every in-range value, negative numerators
    /// included.
    #[test]
    fn packed_rat_round_trips(n in i64::MIN..=i64::MAX, d in 1u64..=u64::MAX) {
        let r = Rat::new(i128::from(n), i128::from(d));
        let p = PackedRat::try_from(r).expect("a reduced i64/u64 value packs");
        prop_assert_eq!(Rat::from(p), r);
        prop_assert_eq!(format!("{p:?}"), r.to_string());
    }

    /// Packing fails exactly when the normalized numerator leaves `i64`
    /// or the denominator leaves `u64`.
    #[test]
    fn packed_rat_fails_exactly_out_of_range(
        n in (I64_MIN - 4)..=(I64_MAX + 4),
        d in (U64_MAX - 4)..=(U64_MAX + 4),
    ) {
        let r = Rat::new(n, d);
        let fits = i64::try_from(r.numer()).is_ok() && u64::try_from(r.denom()).is_ok();
        prop_assert_eq!(PackedRat::try_from(r).is_ok(), fits);
    }
}
