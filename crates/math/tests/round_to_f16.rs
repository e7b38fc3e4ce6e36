//! `round_to_f16` against the reference round trip through [`F16`]: the
//! same `f32` bits at every binary16 value, every rounding boundary, the
//! flush and overflow edges and every NaN class, with both signs; and, in
//! the ignored test (`cargo test --release -p gbu_math -- --ignored`), at
//! all 2³² bit patterns.

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
