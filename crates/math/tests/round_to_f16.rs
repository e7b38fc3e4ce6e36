//! `round_to_f16` against the reference round trip through [`F16`]: the
//! same `f32` bits at every binary16 value, every rounding boundary, the
//! flush and overflow edges and every NaN class, with both signs; and, in
//! the ignored tests (`cargo test --release -p gbu_math -- --ignored`), at
//! all 2³² bit patterns. Its two parts, `round_to_f16_normal` and
//! `round_to_f16_finite`, and the range test `in_f16_normal_range` are
//! checked against it on their domains the same two ways.

use gbu_math::half::{in_f16_normal_range, round_to_f16_finite, round_to_f16_normal};
use gbu_math::{round_to_f16, F16};

fn check(x: f32) {
    for x in [x, -x] {
        let want = F16::from_f32(x).to_f32().to_bits();
        let got = round_to_f16(x).to_bits();
        assert_eq!(got, want, "round_to_f16({x:e}) [{:#010x}]", x.to_bits());
    }
}

/// `x` and the `f32` one ulp either side of it.
fn check_with_neighbours(x: f32) {
    check(x);
    check(f32::from_bits(x.to_bits() + 1));
    if x.to_bits() > 0 {
        check(f32::from_bits(x.to_bits() - 1));
    }
}

#[test]
fn every_binary16_value_is_a_fixed_point() {
    for bits in 0..=u16::MAX {
        check(F16::from_bits(bits).to_f32());
    }
}

#[test]
fn midpoints_round_to_even_and_their_neighbours_round_away_from_them() {
    // Consecutive finite positive binary16 values, zero to the largest.
    for bits in 0..0x7BFFu16 {
        let (lo, hi) = (F16::from_bits(bits).to_f32(), F16::from_bits(bits + 1).to_f32());
        check_with_neighbours((lo + hi) * 0.5);
    }
}

#[test]
fn flush_normal_and_overflow_edges() {
    for x in [2f32.powi(-26), 2f32.powi(-25), 2f32.powi(-24), 2f32.powi(-14), 65504.0, 65520.0] {
        check_with_neighbours(x);
    }
}

#[test]
fn zeros_f32_subnormals_and_infinities() {
    for bits in [0u32, 1, 2, 3, 0x0000_1000, 0x0040_0000, 0x007F_FFFE, 0x007F_FFFF] {
        check(f32::from_bits(bits));
    }
    check(f32::INFINITY);
    check(f32::MAX);
}

#[test]
fn quiet_and_signalling_nans_with_payloads() {
    for bits in [
        0x7FC0_0000u32, // the canonical quiet NaN
        0x7FC0_0001,
        0x7FC1_2345,
        0x7FFF_FFFF,
        0x7FA0_0000, // signalling: quiet bit clear
        0x7F80_0001,
        0x7F80_2000,
        0x7FBF_FFFF,
    ] {
        check(f32::from_bits(bits));
    }
}

#[test]
#[ignore = "all 2^32 f32 bit patterns; about 20 s in release"]
fn every_f32_bit_pattern() {
    for bits in 0..=u32::MAX {
        let x = f32::from_bits(bits);
        let want = F16::from_f32(x).to_f32().to_bits();
        assert_eq!(round_to_f16(x).to_bits(), want, "bits {bits:#010x}");
    }
}

/// 2⁻¹⁴, the smallest normal binary16 value.
const MIN_NORMAL: f32 = 1.0 / 16384.0;
/// Where binary16 rounding overflows to infinity.
const OVERFLOW: f32 = 65520.0;

/// The helpers agree with `round_to_f16` wherever their domains hold `x`
/// (and return without panicking elsewhere), and `in_f16_normal_range`
/// is x ∈ [2⁻¹⁴, 65520).
fn check_helpers(x: f32) {
    let want = round_to_f16(x).to_bits();
    let (normal, finite) = (round_to_f16_normal(x).to_bits(), round_to_f16_finite(x).to_bits());
    assert_eq!(
        in_f16_normal_range(x),
        (MIN_NORMAL..OVERFLOW).contains(&x),
        "in_f16_normal_range({x:e}) [{:#010x}]",
        x.to_bits()
    );
    if x.abs() < OVERFLOW {
        assert_eq!(finite, want, "round_to_f16_finite({x:e}) [{:#010x}]", x.to_bits());
    }
    if x == 0.0 || in_f16_normal_range(x.abs()) {
        assert_eq!(normal, want, "round_to_f16_normal({x:e}) [{:#010x}]", x.to_bits());
    }
}

#[test]
fn helpers_match_round_to_f16_at_the_edges_of_their_domains() {
    assert_eq!(MIN_NORMAL, F16::MIN_POSITIVE.to_f32());
    for x in [0.0, 2f32.powi(-25), 2f32.powi(-24), MIN_NORMAL, 0.99, 1.0, 65504.0, OVERFLOW] {
        for x in [x, -x] {
            check_helpers(x);
            check_helpers(f32::from_bits(x.to_bits() + 1));
            if x.to_bits() & 0x7FFF_FFFF > 0 {
                check_helpers(f32::from_bits(x.to_bits() - 1));
            }
        }
    }
    for bits in 0..=u16::MAX {
        check_helpers(F16::from_bits(bits).to_f32());
    }
    for bits in [0x7F80_0000, 0xFF80_0000, 0x7FC0_0000, 0xFFC0_0000, 0x7FFF_FFFF, u32::MAX] {
        check_helpers(f32::from_bits(bits));
    }
}

#[test]
#[ignore = "all 2^32 f32 bit patterns; about 20 s in release"]
fn helpers_on_every_f32_bit_pattern() {
    for bits in 0..=u32::MAX {
        check_helpers(f32::from_bits(bits));
    }
}
