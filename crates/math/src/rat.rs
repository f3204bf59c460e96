//! Normalized rational numbers over `i128`.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::num::{NonZeroU64, TryFromIntError};
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number with `i128` numerator and denominator.
///
/// Values are kept normalized: the denominator is always positive and
/// `gcd(|num|, den) == 1`. All arithmetic is overflow-checked; an overflow
/// aborts with a panic rather than silently wrapping, because a wrapped time
/// bound would corrupt a verification verdict.
///
/// # Example
///
/// ```
/// use tempo_math::Rat;
///
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert!(a > b);
/// assert_eq!((a - a), Rat::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // invariant: den > 0, gcd(|num|, den) == 1
}

impl Rat {
    /// The rational number zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a rational `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use tempo_math::Rat;
    /// assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
    /// ```
    pub fn new(num: i128, den: i128) -> Rat {
        // Integer times (every wire event at denominator 1) are already
        // normalized: skip the `u128` Euclid and the two divisions.
        if den == 1 {
            return Rat { num, den: 1 };
        }
        assert!(den != 0, "rational denominator must be nonzero");
        let sign = if den < 0 { -1 } else { 1 };
        let num = num
            .checked_mul(sign)
            .expect("rational normalization overflow");
        let den = den
            .checked_mul(sign)
            .expect("rational normalization overflow");
        let g = gcd(num.unsigned_abs(), den.unsigned_abs());
        if g == 0 {
            return Rat { num: 0, den: 1 };
        }
        let g = i128::try_from(g).expect("gcd overflow");
        Rat {
            num: num / g,
            den: den / g,
        }
    }

    /// Returns the numerator of the normalized representation.
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Returns the (positive) denominator of the normalized representation.
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns the absolute value.
    pub fn abs(self) -> Rat {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Returns the smaller of `self` and `other`.
    pub fn min(self, other: Rat) -> Rat {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of `self` and `other`.
    pub fn max(self, other: Rat) -> Rat {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Multiplies by a machine integer (exact).
    ///
    /// # Example
    ///
    /// ```
    /// use tempo_math::Rat;
    /// assert_eq!(Rat::new(1, 3).scale(6), Rat::from(2));
    /// ```
    pub fn scale(self, k: i128) -> Rat {
        Rat::new(
            self.num.checked_mul(k).expect("rational scale overflow"),
            self.den,
        )
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Rat {
        assert!(!self.is_zero(), "cannot invert zero");
        Rat::new(self.den, self.num)
    }

    /// Converts to `f64`, for display and statistics only (never semantics).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    fn checked_add(self, other: Rat) -> Option<Rat> {
        // Fast paths for the overwhelmingly common operands — zero and
        // integers — which need no gcd reduction (each gcd step is an
        // `i128` modulo, a library call on most targets).
        if self.num == 0 {
            return Some(other);
        }
        if other.num == 0 {
            return Some(self);
        }
        if self.den == 1 && other.den == 1 {
            return Some(Rat {
                num: self.num.checked_add(other.num)?,
                den: 1,
            });
        }
        // a/b + c/d = (a*d + c*b) / (b*d), using lcm to keep magnitudes small.
        let g = gcd(self.den.unsigned_abs(), other.den.unsigned_abs()) as i128;
        let lhs = self.num.checked_mul(other.den / g)?;
        let rhs = other.num.checked_mul(self.den / g)?;
        let num = lhs.checked_add(rhs)?;
        let den = self.den.checked_mul(other.den / g)?;
        Some(Rat::new(num, den))
    }

    fn checked_mul(self, other: Rat) -> Option<Rat> {
        if self.num == 0 || other.num == 0 {
            return Some(Rat::ZERO);
        }
        if self.den == 1 && other.den == 1 {
            return Some(Rat {
                num: self.num.checked_mul(other.num)?,
                den: 1,
            });
        }
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd(self.num.unsigned_abs(), other.den.unsigned_abs()) as i128;
        let g2 = gcd(other.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        let (an, ad) = (self.num / g1.max(1), self.den / g2.max(1));
        let (bn, bd) = (other.num / g2.max(1), other.den / g1.max(1));
        let num = an.checked_mul(bn)?;
        let den = ad.checked_mul(bd)?;
        Some(Rat::new(num, den))
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::ZERO
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::from(v as i128)
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat::from(v as i128)
    }
}

impl From<u32> for Rat {
    fn from(v: u32) -> Rat {
        Rat::from(v as i128)
    }
}

impl From<usize> for Rat {
    fn from(v: usize) -> Rat {
        Rat::from(v as i128)
    }
}

/// A normalized [`Rat`] packed into 16 bytes: an `i64` numerator over a
/// nonzero `u64` denominator.
///
/// This is a storage form, not an arithmetic type: it exists so that
/// values held in bulk (event times queued in a monitor pool's rings)
/// cost half of a `Rat`'s 32 bytes, and the `NonZeroU64` niche lets an
/// `Option` of a struct holding one cost nothing extra. Convert with
/// `PackedRat::try_from(rat)`, which fails exactly when the
/// normalized numerator is outside `i64` or the denominator outside
/// `u64`, and back with [`Rat::from`], which copies the two fields with
/// no gcd.
///
/// # Example
///
/// ```
/// use tempo_math::{PackedRat, Rat};
///
/// let t = PackedRat::try_from(Rat::new(-7, 2)).unwrap();
/// assert_eq!(Rat::from(t), Rat::new(-7, 2));
/// assert!(PackedRat::try_from(Rat::from(i128::from(i64::MAX) + 1)).is_err());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedRat {
    num: i64,
    den: NonZeroU64, // invariant: gcd(|num|, den) == 1, as in the source `Rat`
}

impl TryFrom<Rat> for PackedRat {
    type Error = TryFromIntError;

    fn try_from(r: Rat) -> Result<PackedRat, TryFromIntError> {
        let num = i64::try_from(r.num)?;
        // A `Rat`'s denominator is positive, so it is nonzero once it fits.
        let den = NonZeroU64::try_from(u64::try_from(r.den)?)?;
        Ok(PackedRat { num, den })
    }
}

impl From<PackedRat> for Rat {
    fn from(p: PackedRat) -> Rat {
        Rat {
            num: i128::from(p.num),
            den: i128::from(p.den.get()),
        }
    }
}

impl fmt::Debug for PackedRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&Rat::from(*self), f)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, other: Rat) -> Rat {
        self.checked_add(other).expect("rational addition overflow")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, other: Rat) -> Rat {
        self.checked_add(-other)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, other: Rat) -> Rat {
        self.checked_mul(other)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rat {
    type Output = Rat;
    fn div(self, other: Rat) -> Rat {
        self.checked_mul(other.recip())
            .expect("rational division overflow")
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, other: Rat) {
        *self = *self + other;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, other: Rat) {
        *self = *self - other;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, other: Rat) {
        *self = *self * other;
    }
}

impl Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, Add::add)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // Same denominator (in particular: two integers) needs no
        // cross-multiplication at all.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d  with b,d > 0  ⇔  a*d vs c*b.
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatError {
    input: String,
}

impl fmt::Display for ParseRatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal `{}`", self.input)
    }
}

impl std::error::Error for ParseRatError {}

impl FromStr for Rat {
    type Err = ParseRatError;

    /// Parses `"a"` or `"a/b"` into a rational.
    ///
    /// # Example
    ///
    /// ```
    /// use tempo_math::Rat;
    /// let r: Rat = "3/4".parse()?;
    /// assert_eq!(r, Rat::new(3, 4));
    /// # Ok::<(), tempo_math::ParseRatError>(())
    /// ```
    fn from_str(s: &str) -> Result<Rat, ParseRatError> {
        let err = || ParseRatError {
            input: s.to_string(),
        };
        match s.split_once('/') {
            None => s.trim().parse::<i128>().map(Rat::from).map_err(|_| err()),
            Some((a, b)) => {
                let num = a.trim().parse::<i128>().map_err(|_| err())?;
                let den = b.trim().parse::<i128>().map_err(|_| err())?;
                if den == 0 {
                    return Err(err());
                }
                Ok(Rat::new(num, den))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(4, 8), Rat::new(1, 2));
        assert_eq!(Rat::new(-4, 8), Rat::new(1, -2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
        assert_eq!(Rat::new(-3, -9), Rat::new(1, 3));
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
        assert_eq!(a.scale(4), Rat::from(2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::new(7, 7) == Rat::ONE);
        assert_eq!(Rat::new(2, 3).max(Rat::new(3, 4)), Rat::new(3, 4));
        assert_eq!(Rat::new(2, 3).min(Rat::new(3, 4)), Rat::new(2, 3));
    }

    #[test]
    fn predicates() {
        assert!(Rat::ZERO.is_zero());
        assert!(Rat::new(-1, 5).is_negative());
        assert!(Rat::new(1, 5).is_positive());
        assert_eq!(Rat::new(-2, 3).abs(), Rat::new(2, 3));
    }

    #[test]
    fn display_round_trip() {
        for s in ["0", "5", "-5", "3/4", "-7/2"] {
            let r: Rat = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
        assert_eq!("6/8".parse::<Rat>().unwrap().to_string(), "3/4");
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<Rat>().is_err());
        assert!("1/0".parse::<Rat>().is_err());
        assert!("a/b".parse::<Rat>().is_err());
    }

    #[test]
    fn sum_iterator() {
        let total: Rat = (1..=4).map(|i| Rat::new(1, i)).sum();
        assert_eq!(total, Rat::new(25, 12));
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_zero_panics() {
        let _ = Rat::ZERO.recip();
    }
}
