//! The phantom element: a zero-sized stand-in for `f64` that lets a
//! virtual-time run execute the unchanged Algorithm-1 code without any
//! matrix memory.
//!
//! When a simulation skips the local GEMMs
//! (`SimOptions::execute_compute = false`), the matrix *values* never
//! matter — only how many bytes each message carries. [`Phantom`] keeps
//! exactly that: it occupies no memory (`Vec<Phantom>` and `Mat<Phantom>`
//! never allocate, and copying or summing them does nothing), yet declares
//! an 8-byte [`Elem::WIRE_BYTES`], so every payload, collective span and
//! virtual-time charge counts what the same `f64` run would. Every arithmetic
//! operation is a no-op.
//!
//! `dense::gemm` derives its blocking from `size_of::<T>()` and must never
//! see this type; [`crate::Ca3dmm::simulate_native`] uses it only when the
//! GEMMs are skipped, which is exactly when the Cannon loop charges flops
//! without calling the kernel.

use dense::{Elem, Scalar};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A zero-sized matrix element that travels as 8 wire bytes (see the module
/// docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub(crate) struct Phantom;

impl Elem for Phantom {
    const WIRE_BYTES: usize = std::mem::size_of::<f64>();
}

impl fmt::Display for Phantom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("phantom")
    }
}

macro_rules! noop_ops {
    ($($op:ident::$f:ident, $op_assign:ident::$f_assign:ident);*) => {$(
        impl $op for Phantom {
            type Output = Phantom;
            #[inline]
            fn $f(self, _: Phantom) -> Phantom {
                Phantom
            }
        }
        impl $op_assign for Phantom {
            #[inline]
            fn $f_assign(&mut self, _: Phantom) {}
        }
    )*};
}
noop_ops!(Add::add, AddAssign::add_assign; Sub::sub, SubAssign::sub_assign; Mul::mul, MulAssign::mul_assign);

impl Div for Phantom {
    type Output = Phantom;
    #[inline]
    fn div(self, _: Phantom) -> Phantom {
        Phantom
    }
}

impl Neg for Phantom {
    type Output = Phantom;
    #[inline]
    fn neg(self) -> Phantom {
        Phantom
    }
}

impl Sum for Phantom {
    fn sum<I: Iterator<Item = Phantom>>(_: I) -> Phantom {
        Phantom
    }
}

impl Scalar for Phantom {
    const ZERO: Self = Phantom;
    const ONE: Self = Phantom;
    const EPSILON: Self = Phantom;

    #[inline]
    fn from_f64(_: f64) -> Self {
        Phantom
    }
    #[inline]
    fn to_f64(self) -> f64 {
        0.0
    }
    #[inline]
    fn abs(self) -> Self {
        Phantom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{to_msg, SharedBlock};
    use dense::Mat;
    use msgpass::Payload;
    use std::sync::Arc;

    #[test]
    fn phantom_blocks_hold_no_memory_but_count_f64_bytes() {
        assert_eq!(std::mem::size_of::<Phantom>(), 0);
        let m = Mat::<Phantom>::zeros(1000, 3000);
        assert_eq!(m.shape(), (1000, 3000));
        let f = Mat::<f64>::zeros(1000, 3000);
        assert_eq!(
            SharedBlock(Arc::new(m.clone())).nbytes(),
            SharedBlock(Arc::new(f.clone())).nbytes()
        );
        assert_eq!(to_msg(m).nbytes(), to_msg(f).nbytes());
        let v = vec![Phantom; 17];
        assert_eq!(v.nbytes(), 17 * 8);
    }
}
