//! The sealed [`Scalar`] trait: the two floating-point element types the
//! stack is generic over.
//!
//! Everything above this crate — kernels, H² construction and sweeps, the
//! sharded executor, the serving codec — is parameterized by `S: Scalar`
//! instead of hard-coding `f64`. The trait is deliberately sealed to `f32`
//! and `f64`: the codec assigns each implementor a stable wire tag, the
//! transport layer sizes messages from [`Scalar::BYTES`], and the numerics
//! (tolerance floors, promotion rules) are audited per type, so an
//! open-ended implementor set would be a liability, not an extension point.
//!
//! Two conversion idioms recur throughout the stack:
//!
//! - [`Scalar::promote`] — `S -> A` through `f64`. Exact for every
//!   widening or same-type pair (`f32 -> f64` is exact, `f64 -> f64` and
//!   `f32 -> f32` are the identity because `f32 -> f64 -> f32` round-trips),
//!   which is what makes the mixed-precision sweeps (`f32` storage, `f64`
//!   accumulation) and the same-type instantiations share one generic code
//!   path with no behaviour change for `f64`.
//! - [`Scalar::as_f64s`] — a zero-cost identity view of an `f64` slice,
//!   `None` for `f32`. Generic code uses it to hand `f64` instantiations to
//!   the existing (virtual-dispatch) kernel entry points so that the `f64`
//!   path stays bit-for-bit what it was before the stack went generic.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A floating-point element type of the precision-generic stack.
///
/// Implemented exactly for `f32` and `f64` (sealed). See the module docs
/// for the conversion idioms.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Clone
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + fmt::LowerExp
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of the type.
    const EPSILON: Self;
    /// The tightest *relative* tolerance a rank-revealing factorization in
    /// this precision can meaningfully resolve (`4 x` machine epsilon, as
    /// an `f64` so it composes with user-facing tolerance knobs, which are
    /// always `f64`). Tolerance-truncated factorizations clamp to this.
    const SAFE_REL_TOL: f64;
    /// Human-readable type name (`"f32"` / `"f64"`), used in reports and
    /// error messages.
    const NAME: &'static str;
    /// Stable one-byte wire tag for the persistence codec (the byte width:
    /// `4` for `f32`, `8` for `f64`).
    const CODE: u8;
    /// Size of one element in bytes (= `std::mem::size_of::<Self>()`).
    const BYTES: usize;

    /// Conversion from `f64` (rounds for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Exact widening conversion to `f64`.
    fn to_f64(self) -> f64;

    /// Converts to another scalar type through `f64`. Exact unless
    /// narrowing `f64 -> f32`.
    #[inline]
    fn promote<A: Scalar>(self) -> A {
        A::from_f64(self.to_f64())
    }

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Sign with `signum` semantics (`±1.0`, propagating NaN).
    fn signum(self) -> Self;
    /// Elementwise maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Elementwise minimum (NaN-ignoring, like `f64::min`).
    fn min(self, other: Self) -> Self;
    /// True for neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// IEEE 754 `totalOrder` comparison.
    fn total_cmp(&self, other: &Self) -> Ordering;

    /// Identity view of a slice when `Self` is `f64`, `None` for `f32`.
    /// Lets generic code route `f64` instantiations through pre-existing
    /// `f64`-typed entry points (preserving virtual dispatch and bitwise
    /// behaviour) without unsafe casts.
    fn as_f64s(xs: &[Self]) -> Option<&[f64]>;
    /// Mutable counterpart of [`Scalar::as_f64s`].
    fn as_f64s_mut(xs: &mut [Self]) -> Option<&mut [f64]>;

    /// Appends the little-endian byte representation (codec primitive).
    fn write_le(self, out: &mut Vec<u8>);
    /// Reads one value from exactly [`Scalar::BYTES`] little-endian bytes.
    ///
    /// # Panics
    /// If `bytes.len() != Self::BYTES`.
    fn read_le(bytes: &[u8]) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const SAFE_REL_TOL: f64 = 4.0 * f64::EPSILON;
    const NAME: &'static str = "f64";
    const CODE: u8 = 8;
    const BYTES: usize = 8;

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
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn signum(self) -> Self {
        f64::signum(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }
    #[inline]
    fn as_f64s(xs: &[Self]) -> Option<&[f64]> {
        Some(xs)
    }
    #[inline]
    fn as_f64s_mut(xs: &mut [Self]) -> Option<&mut [f64]> {
        Some(xs)
    }
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("f64 needs 8 bytes"))
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const SAFE_REL_TOL: f64 = 4.0 * f32::EPSILON as f64;
    const NAME: &'static str = "f32";
    const CODE: u8 = 4;
    const BYTES: usize = 4;

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
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn signum(self) -> Self {
        f32::signum(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f32::total_cmp(self, other)
    }
    #[inline]
    fn as_f64s(_: &[Self]) -> Option<&[f64]> {
        None
    }
    #[inline]
    fn as_f64s_mut(_: &mut [Self]) -> Option<&mut [f64]> {
        None
    }
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("f32 needs 4 bytes"))
    }
}

/// The key on which two outputs must agree to have "the same bits" (the
/// order invariant, DESIGN.md §6.5): each entry's bits as an `f64`, with
/// every NaN mapped to the one quiet NaN. Two keys are equal exactly when
/// every non-NaN entry is bit-equal, `±0` keeping its sign, and the NaNs
/// sit at the same entries. A NaN's sign and payload depend on the operand
/// order of the instruction that produced it, which the order invariant
/// does not fix.
pub fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
    let key = |e: &S| match e.to_f64() {
        e if e.is_nan() => f64::NAN.to_bits(),
        e => e.to_bits(),
    };
    v.iter().map(key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consts_line_up() {
        assert_eq!(f64::BYTES, std::mem::size_of::<f64>());
        assert_eq!(f32::BYTES, std::mem::size_of::<f32>());
        assert_eq!(f64::CODE, 8);
        assert_eq!(f32::CODE, 4);
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::NAME, "f32");
        let (narrow, wide) = (f32::SAFE_REL_TOL, f64::SAFE_REL_TOL);
        assert!(narrow > wide, "f32 tolerance floor must be looser");
    }

    #[test]
    fn promote_round_trips_widening() {
        let x: f32 = 1.234_567_9;
        let wide: f64 = x.promote();
        let back: f32 = wide.promote();
        assert_eq!(back, x, "f32 -> f64 -> f32 must be the identity");
        let y: f64 = 0.1;
        let same: f64 = y.promote();
        assert_eq!(same.to_bits(), y.to_bits());
    }

    #[test]
    fn as_f64s_identity_only_for_f64() {
        let xs = [1.0_f64, 2.0];
        assert_eq!(f64::as_f64s(&xs), Some(&xs[..]));
        let ys = [1.0_f32, 2.0];
        assert!(f32::as_f64s(&ys).is_none());
    }

    #[test]
    fn le_round_trip() {
        let mut buf = Vec::new();
        0.1_f64.write_le(&mut buf);
        (-3.5_f32).write_le(&mut buf);
        assert_eq!(buf.len(), 12);
        assert_eq!(f64::read_le(&buf[..8]).to_bits(), 0.1_f64.to_bits());
        assert_eq!(f32::read_le(&buf[8..]), -3.5_f32);
    }

    #[test]
    fn bits_canonicalise_nan_and_only_nan() {
        let (nan, neg_nan) = (f64::NAN, -f64::NAN);
        assert_ne!(nan.to_bits(), neg_nan.to_bits());
        assert_eq!(bits(&[nan, 1.0]), bits(&[neg_nan, 1.0]));
        assert_eq!(bits(&[f32::NAN]), bits(&[-f32::NAN]));
        assert_ne!(bits(&[0.0]), bits(&[-0.0]), "a zero keeps its sign");
        assert_ne!(bits(&[nan]), bits(&[f64::INFINITY]));
        assert_ne!(bits(&[1.0]), bits(&[f64::from_bits(1.0f64.to_bits() + 1)]));
    }
}
