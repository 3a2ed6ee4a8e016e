//! The element type abstraction shared by every crate in the workspace.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A plain-data value that can travel in a message: what the
/// message-passing runtime's `Vec<T>` payloads and collectives are generic
/// over. [`Elem::WIRE_BYTES`] is what one element counts for in traffic
/// accounting and virtual-time pricing. It defaults to `size_of::<Self>()`;
/// a zero-sized element that stands in for real data declares the size of
/// the data instead.
pub trait Elem: Copy + Send + 'static {
    /// Bytes one element occupies on the wire.
    const WIRE_BYTES: usize = std::mem::size_of::<Self>();
}

macro_rules! plain_elem {
    ($($t:ty),*) => {$( impl Elem for $t {} )*};
}
plain_elem!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    ()
);

/// A real floating-point matrix element.
///
/// The paper's artifact supports `float` and `double`; this trait plays the
/// same role. Everything in the workspace — local GEMM, the message-passing
/// runtime, redistribution, and the distributed algorithms — is generic over
/// `Scalar`, and the test suites run both instantiations.
pub trait Scalar:
    Elem
    + Sync
    + Debug
    + Display
    + Default
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;

    /// Lossless conversion from `f64` (lossy for `f32`, as in any BLAS).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `max` that propagates neither NaN nor sign tricks; used for norms.
    fn max_val(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_identities() {
        assert_eq!(<f64 as Scalar>::ZERO + <f64 as Scalar>::ONE, 1.0);
        assert_eq!(<f64 as Scalar>::from_f64(2.5), 2.5);
        assert_eq!(2.5f64.to_f64(), 2.5);
    }

    #[test]
    fn f32_round_trip_is_lossy_but_close() {
        let x = 1.000_000_1_f64;
        let y = <f32 as Scalar>::from_f64(x).to_f64();
        assert!((x - y).abs() < 1e-6);
    }

    #[test]
    fn abs_and_max() {
        assert_eq!((-3.0f64).abs(), 3.0);
        assert_eq!(Scalar::max_val(2.0f32, 5.0f32), 5.0);
        assert_eq!(Scalar::max_val(5.0f64, 2.0f64), 5.0);
    }
}
