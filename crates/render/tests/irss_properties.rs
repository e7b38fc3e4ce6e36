//! Property tests for the IRSS dataflow against brute-force oracles.
//!
//! The paper's correctness claims (Sec. IV-B/C) in property form:
//! the two-step transformation preserves Eq. 7 exactly, the row-skip test
//! never discards a significant fragment, and the first/last-fragment
//! procedure finds exactly the brute-force fragment set. The Row PE's
//! FP-16 blend step ([`Fp16`]) equals a step on [`F16`] values bit for
//! bit, fast path and fallback alike.

use gbu_math::{Sym2, Vec2, Vec3, F16};
use gbu_render::irss::{Datapath, Fp16, IrssSplat, RowOutcome};
use gbu_render::preprocess::pixel_center;
use gbu_render::Splat2D;
use proptest::prelude::*;

/// Positive-definite conic built from eigenvalues and a rotation angle —
/// shaped like regularised projected Gaussians (eigenvalues of Σ*⁻¹ are
/// bounded above by 1/0.3 by the low-pass filter).
fn conic_strategy() -> impl Strategy<Value = Sym2> {
    (0.005f32..3.0, 0.005f32..3.0, 0.0f32..std::f32::consts::PI).prop_map(|(l1, l2, th)| {
        let (s, c) = th.sin_cos();
        Sym2::new(c * c * l1 + s * s * l2, s * c * (l1 - l2), s * s * l1 + c * c * l2)
    })
}

fn splat_strategy() -> impl Strategy<Value = Splat2D> {
    (conic_strategy(), -8.0f32..40.0, -8.0f32..24.0, 0.05f32..0.99).prop_map(
        |(conic, mx, my, opacity)| Splat2D {
            mean: Vec2::new(mx, my),
            cov: conic.inverse().expect("pd conic inverts"),
            conic,
            color: Vec3::ONE,
            opacity,
            depth: 1.0,
            threshold: 2.0 * (opacity * 255.0).ln(),
            source: 0,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `‖P''‖² == q` at arbitrary screen points (Eq. 10/12: no
    /// approximation).
    #[test]
    fn transform_preserves_eq7(
        splat in splat_strategy(),
        x in -20.0f32..52.0,
        y in -20.0f32..36.0,
    ) {
        let isp = IrssSplat::new(&splat);
        let p = Vec2::new(x, y);
        let q_direct = splat.q_at(p);
        let q_irss = isp.transform_point(p).length_squared();
        let tol = 2e-3 * q_direct.abs().max(1.0);
        prop_assert!((q_direct - q_irss).abs() <= tol,
            "q mismatch at ({x},{y}): {q_direct} vs {q_irss}");
    }

    /// The x-step image is axis-aligned after the rotation (Eq. 13):
    /// marching right changes x'' by dx'' and leaves y'' unchanged.
    #[test]
    fn x_step_axis_aligned(splat in splat_strategy(), x in -10i32..40, y in -10i32..30) {
        let isp = IrssSplat::new(&splat);
        let a = isp.transform_point(Vec2::new(x as f32, y as f32));
        let b = isp.transform_point(Vec2::new(x as f32 + 1.0, y as f32));
        prop_assert!((b.x - a.x - isp.dx).abs() < 1e-3 * isp.dx.max(1.0));
        prop_assert!((b.y - a.y).abs() < 1e-4 * a.y.abs().max(1.0));
    }

    /// Row outcomes agree with the brute-force fragment set on every row
    /// of a 32-pixel-wide strip: nothing significant is skipped and
    /// nothing insignificant is shaded.
    #[test]
    fn row_procedure_matches_brute_force(splat in splat_strategy(), y in 0u32..24) {
        let isp = IrssSplat::new(&splat);
        let brute: Vec<u32> = (0..32u32)
            .filter(|&x| splat.q_at(pixel_center(x, y)) <= splat.threshold)
            .collect();
        match isp.row_outcome(y, 0, 32) {
            RowOutcome::SkippedY | RowOutcome::Miss { .. } => {
                // Allow the empty set plus a tolerance for fragments
                // sitting exactly on the threshold boundary (float
                // disagreement between the two evaluation orders).
                for &x in &brute {
                    let q = splat.q_at(pixel_center(x, y));
                    prop_assert!(splat.threshold - q <= 2e-3 * splat.threshold.abs().max(1.0),
                        "row {y}: skipped a clearly-inside fragment at x={x} (q={q})");
                }
            }
            RowOutcome::Span(span) => {
                let mut got = Vec::new();
                isp.march(&span, 32, |x, _| got.push(x));
                // The sets agree except possibly at the boundary.
                let boundary_ok = |x: u32| {
                    let q = splat.q_at(pixel_center(x, y));
                    (q - splat.threshold).abs() <= 2e-3 * splat.threshold.abs().max(1.0)
                };
                for &x in &got {
                    prop_assert!(brute.contains(&x) || boundary_ok(x),
                        "row {y}: IRSS shaded x={x} outside the oracle set {brute:?}");
                }
                for &x in &brute {
                    prop_assert!(got.contains(&x) || boundary_ok(x),
                        "row {y}: IRSS missed x={x}; got {got:?}");
                }
            }
        }
    }

    /// Marched q values are monotone after the minimum (convexity of the
    /// parabola along a row) — the property that justifies stopping at
    /// the first out-of-threshold fragment.
    #[test]
    fn marched_q_is_convex(splat in splat_strategy(), y in 0u32..24) {
        let isp = IrssSplat::new(&splat);
        if let RowOutcome::Span(span) = isp.row_outcome(y, 0, 32) {
            let mut qs = Vec::new();
            isp.march(&span, 32, |_, q| qs.push(q));
            if qs.len() >= 3 {
                let min_idx = qs
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                for w in qs[min_idx..].windows(2) {
                    prop_assert!(w[1] >= w[0] - 1e-4, "q not increasing after minimum: {qs:?}");
                }
                for w in qs[..=min_idx].windows(2) {
                    prop_assert!(w[1] <= w[0] + 1e-4, "q not decreasing before minimum: {qs:?}");
                }
            }
        }
    }
}

/// One front-to-back blend step on binary16 values, every operation
/// rounded: the `Fp16Pixel::blend` of `tests/pipeline_equivalence.rs`.
fn f16_step(color: [F16; 3], trans: F16, alpha: f32, rgb: Vec3) -> ([F16; 3], F16) {
    let a = F16::from_f32(alpha);
    let w = a * trans;
    let mut out = color;
    for (c, v) in out.iter_mut().zip([rgb.x, rgb.y, rgb.z]) {
        *c = F16::from_f32(v).mul_add(w, *c);
    }
    (out, trans * (F16::ONE - a))
}

/// A value of the binary16 class `class` picks: ±0, a subnormal, 2⁻¹⁴,
/// its binary16 or `f32` neighbours, 0.99, 1, 65504, ±∞, NaN (any sign
/// and payload), a negative value, or (for three classes in four) an
/// in-range value, log-uniform over (2⁻¹⁸, 1].
fn class_value(class: u32, bits: u32, unit: f32) -> f32 {
    let min_normal = F16::MIN_POSITIVE.to_f32();
    let in_range = 2f32.powf(-18.0 * unit);
    match class {
        0 => 0.0,
        1 => -0.0,
        2 => F16::from_bits(1 + (bits % 0x03FF) as u16).to_f32(),
        3 => min_normal,
        4 => F16::from_bits(if bits & 1 == 0 { 0x03FF } else { 0x0401 }).to_f32(),
        5 => f32::from_bits(if bits & 1 == 0 {
            min_normal.to_bits() - 1
        } else {
            min_normal.to_bits() + 1
        }),
        6 => 0.99,
        7 => 1.0,
        8 => 65504.0,
        9 => f32::INFINITY,
        10 => f32::NEG_INFINITY,
        11 => f32::from_bits(0x7F80_0001 | bits),
        12 => -in_range,
        _ => in_range,
    }
}

/// The bits of `x`, every NaN as the canonical quiet NaN: Rust leaves
/// the sign and payload of a NaN an operation returns unspecified.
fn canonical_bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// `Fp16::blend` (after `Fp16::color`) equals the step on `F16`
    /// values bit for bit, for α, T, each rgb channel and each color
    /// channel drawn from every binary16 class: its fast path where the
    /// range check holds, its fallback everywhere else. The pixel state
    /// (T and the color) holds binary16 values, as in the kernel. A NaN
    /// result must be NaN in both.
    #[test]
    fn fp16_blend_equals_the_f16_reference_step(
        draws in proptest::collection::vec((0u32..52, any::<u32>(), 0.0f32..1.0), 8..9),
    ) {
        let v: Vec<f32> = draws.iter().map(|&(c, bits, unit)| class_value(c, bits, unit)).collect();
        let (alpha, rgb) = (v[0], Vec3::new(v[1], v[2], v[3]));
        let trans = F16::from_f32(v[4]);
        let color = [F16::from_f32(v[5]), F16::from_f32(v[6]), F16::from_f32(v[7])];
        let (want_color, want_trans) = f16_step(color, trans, alpha, rgb);

        let mut got_color = Vec3::new(color[0].to_f32(), color[1].to_f32(), color[2].to_f32());
        let mut got_trans = trans.to_f32();
        Fp16::blend(&mut got_color, &mut got_trans, alpha, Fp16::color(rgb));
        let got = [got_color.x, got_color.y, got_color.z, got_trans].map(canonical_bits);
        let want = [want_color[0], want_color[1], want_color[2], want_trans]
            .map(|h| canonical_bits(h.to_f32()));
        prop_assert_eq!(
            got, want,
            "α {:e}, rgb {:?}, T {:e}, color {:?}",
            alpha, rgb, trans.to_f32(), color.map(F16::to_f32)
        );
    }
}
