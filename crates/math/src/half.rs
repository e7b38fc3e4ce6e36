//! Software IEEE-754 binary16 ("half") arithmetic.
//!
//! The GBU Row-Centric Tile Engine computes in FP-16 (Sec. VI-B), which is
//! the source of the paper's tiny quality loss (<0.1 PSNR in Tab. IV). This
//! module models that datapath in software: every arithmetic operation
//! rounds its result to binary16 (round-to-nearest-even), exactly like a
//! hardware FP-16 FMA chain with per-operation rounding.
//!
//! The implementation covers normals, subnormals, infinities and NaN; it is
//! validated against `f32` reference behaviour by unit and property tests.
//!
//! [`F16`] is the reference. Hot loops that keep binary16 values in `f32`
//! storage round with [`round_to_f16`] instead, which gives the same bits
//! as `F16::from_f32(x).to_f32()` for every `f32` without the branches
//! of the field-by-field conversion.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An IEEE-754 binary16 floating-point number.
///
/// Stored as the raw 16-bit pattern; all arithmetic is performed by
/// converting to `f32`, operating, and rounding back — the same numerical
/// behaviour as a native half-precision ALU with per-op rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

const FRAC_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;

impl F16 {
    /// Positive zero.
    pub const ZERO: Self = Self(0x0000);
    /// One.
    pub const ONE: Self = Self(0x3C00);
    /// Positive infinity.
    pub const INFINITY: Self = Self(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Self = Self(0xFC00);
    /// A quiet NaN.
    pub const NAN: Self = Self(0x7E00);
    /// Largest finite value (65504).
    pub const MAX: Self = Self(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴).
    pub const MIN_POSITIVE: Self = Self(0x0400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Self(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN. Preserve NaN-ness with a quiet payload.
            return if frac != 0 { Self(sign | 0x7E00) } else { Self(sign | 0x7C00) };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        if unbiased > EXP_BIAS {
            // Overflows half range -> infinity.
            return Self(sign | 0x7C00);
        }

        if unbiased >= -14 {
            // Normal half. Keep the implicit leading 1; round the 13
            // truncated fraction bits to nearest-even.
            let half_exp = ((unbiased + EXP_BIAS) as u16) << FRAC_BITS;
            let shifted = frac >> 13;
            let round_bits = frac & 0x1FFF;
            let mut out = sign | half_exp | (shifted as u16);
            if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) == 1) {
                // Carry may ripple into the exponent; that is correct
                // behaviour (may round up to infinity).
                out = out.wrapping_add(1);
            }
            return Self(out);
        }

        // Subnormal half (or zero). The significand including the implicit
        // bit, shifted right depending on how far below the normal range we
        // are.
        if unbiased < -14 - FRAC_BITS as i32 - 1 {
            // Too small even for a subnormal: flush to signed zero.
            return Self(sign);
        }
        let significand = frac | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased) as u32 + 13;
        let shifted = (significand >> shift) as u16;
        let remainder = significand & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | shifted;
        if remainder > halfway || (remainder == halfway && (shifted & 1) == 1) {
            out = out.wrapping_add(1);
        }
        Self(out)
    }

    /// Converts to `f32` (exact: every binary16 value is representable).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> FRAC_BITS) & 0x1F) as u32;
        let frac = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalise the fraction. A subnormal half is
                // frac × 2⁻²⁴; after k left-shifts bring the leading 1 to
                // bit 10, the value is 1.f' × 2^(-14-k), i.e. f32 exponent
                // field 113 - k = 114 + e with e = -1 - k.
                let mut e = -1i32;
                let mut f = frac;
                while f & 0x0400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                f &= 0x03FF;
                let exp32 = (e + 114) as u32;
                sign | (exp32 << 23) | (f << 13)
            }
        } else if exp == 0x1F {
            if frac == 0 {
                sign | 0x7F80_0000
            } else {
                sign | 0x7FC0_0000 | (frac << 13)
            }
        } else {
            let exp32 = exp as i32 - EXP_BIAS + 127;
            sign | ((exp32 as u32) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// `true` for NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// `true` for ±infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// `true` for finite values (neither infinite nor NaN).
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// `self * a + b`, evaluated in `f32` and then rounded to binary16.
    ///
    /// This is not a fused multiply-add: the `f32` sum is itself rounded
    /// whenever it is inexact, so the result is rounded twice and can
    /// differ from a single rounding of the exact `self * a + b`.
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::from_f32(self.to_f32() * a.to_f32() + b.to_f32())
    }

    /// `e^{-self}` rounded to binary16, modelling the Row PE's exponent LUT
    /// (Fig. 11(d) shows an `LUT` feeding the opacity path).
    pub fn exp_neg(self) -> Self {
        Self::from_f32((-self.to_f32()).exp())
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Self {
        Self(self.0 & 0x7FFF)
    }
}

/// Rounds `x` to the nearest binary16 value (ties to even) and returns it
/// as `f32`: the bits of `F16::from_f32(x).to_f32()`, for every `f32`.
///
/// Normal binary16 values (|x| ≥ 2⁻¹⁴) round on the `f32` bits: add
/// `0x0FFF` plus the lowest kept bit, then clear the 13 bits binary16 does
/// not have. Subnormals are multiples of 2⁻²⁴, the `f32` spacing just above
/// 0.5, so `(|x| + 0.5) − 0.5` rounds them exactly. |x| ≥ 65520 becomes
/// ±∞, and NaN the quiet NaN the round trip gives.
#[inline]
pub fn round_to_f16(x: f32) -> f32 {
    /// 2⁻¹⁴, the smallest normal binary16 value.
    const MIN_NORMAL: u32 = 0x3880_0000;
    /// 65520, halfway from the largest binary16 value to 2¹⁶.
    const OVERFLOW: u32 = 0x477F_F000;
    const INFINITY: u32 = 0x7F80_0000;
    let (sign, abs) = (x.to_bits() & 0x8000_0000, x.to_bits() & 0x7FFF_FFFF);
    let rounded = if abs >= OVERFLOW {
        if abs > INFINITY {
            0x7FC0_0000
        } else {
            INFINITY
        }
    } else if abs >= MIN_NORMAL {
        (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF
    } else {
        ((f32::from_bits(abs) + 0.5) - 0.5).to_bits()
    };
    f32::from_bits(sign | rounded)
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        Self::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl Add for F16 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl Sub for F16 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl Mul for F16 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl Div for F16 {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        Self::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0_f32.powi(-14));
        assert!(F16::INFINITY.to_f32().is_infinite());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn simple_values_exact() {
        for &v in &[0.5, 1.0, 2.0, -3.25, 0.125, 1024.0, -0.0078125] {
            assert_eq!(F16::from_f32(v).to_f32(), v, "value {v} should be exact in f16");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half value
        // (1 + 2^-10); ties round to even (1.0, whose mantissa LSB is 0).
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0_f32.powi(-10));
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(70000.0).is_infinite());
        assert!(F16::from_f32(-70000.0).to_f32().is_infinite());
        assert!(F16::from_f32(-70000.0).to_f32() < 0.0);
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
    }

    #[test]
    fn subnormals_round_trip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        // Below half the smallest subnormal flushes to zero.
        assert_eq!(F16::from_f32(2.0_f32.powi(-26)).to_f32(), 0.0);
        // A mid-range subnormal.
        let sub = 3.0 * 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn arithmetic_rounds_per_op() {
        // 1 + 2^-12 rounds back to 1 in f16 (the addend is below half ULP).
        let one = F16::ONE;
        let small = F16::from_f32(2.0_f32.powi(-12));
        assert_eq!(one + small, one);
        // But 2^-12 itself is representable.
        assert_eq!(small.to_f32(), 2.0_f32.powi(-12));
    }

    #[test]
    fn mul_add_single_rounding() {
        // a*b = 1 + 2^-9 + 2^-20 and a*b + c = 1 + 2^-8 + 2^-20 are exact
        // in f32, so the binary16 rounding at the end is the only one
        // here. (An inexact f32 sum would be rounded twice.)
        let a = F16::from_f32(1.0 + 2.0_f32.powi(-10));
        let b = F16::from_f32(1.0 + 2.0_f32.powi(-10));
        let c = F16::from_f32(2.0_f32.powi(-9));
        let fused = a.mul_add(b, c);
        let expected = F16::from_f32(a.to_f32() * b.to_f32() + c.to_f32());
        assert_eq!(fused, expected);
    }

    #[test]
    fn exp_neg_matches_f32_within_half_ulp_scale() {
        for &q in &[0.0f32, 0.5, 1.0, 2.5, 8.0] {
            let got = F16::from_f32(q).exp_neg().to_f32();
            let want = (-q).exp();
            assert!((got - want).abs() <= want * 1e-3 + 1e-4, "exp(-{q}): {got} vs {want}");
        }
    }

    #[test]
    fn ordering_matches_f32() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.5);
        assert!(a < b);
        assert!(b > a);
        assert!(F16::NAN.partial_cmp(&a).is_none());
    }

    #[test]
    fn abs_clears_sign() {
        assert_eq!(F16::from_f32(-3.5).abs().to_f32(), 3.5);
        assert_eq!(F16::from_f32(3.5).abs().to_f32(), 3.5);
    }

    #[test]
    fn exhaustive_round_trip_all_finite_bit_patterns() {
        // Every finite f16 bit pattern must survive f16 -> f32 -> f16 exactly.
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }
}
