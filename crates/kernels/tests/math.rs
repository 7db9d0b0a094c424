//! Accuracy of the radial kernels' shared math, [`exp`] and [`rsqrt`],
//! against libm and against `1.0 / r2.sqrt()`.

use h2_kernels::radial::{exp, rsqrt};
use h2_kernels::{kernel_by_name, Coulomb, CoulombCubed, RadialKernel};

/// Distance in ulps between two `f64`s of the same sign class, on the
/// ordered integer line of their bits (so `f64::MAX` and `∞` are 1 apart);
/// two NaNs are 0 apart, a NaN and a number `u64::MAX`.
fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    let line = |v: f64| {
        let i = v.to_bits() as i64;
        if i < 0 {
            i64::MIN - i
        } else {
            i
        }
    };
    line(a).abs_diff(line(b))
}

const SAMPLES: u64 = 10_000_000;

#[test]
fn exp_is_within_one_ulp_of_libm() {
    let (lo, hi) = (-745.0, 709.8);
    let mut worst = (0, 0.0);
    for i in 0..SAMPLES {
        let x = lo + (hi - lo) * ((i as f64 + 0.5) / SAMPLES as f64);
        let d = ulps(exp(x), x.exp());
        if d > worst.0 {
            worst = (d, x);
        }
    }
    println!(
        "exp: at most {} ulp from libm, at x = {:e}",
        worst.0, worst.1
    );
    assert!(
        worst.0 <= 1,
        "exp({:e}) is {} ulp from libm",
        worst.1,
        worst.0
    );
}

#[test]
fn rsqrt_is_within_two_ulp_of_one_over_sqrt() {
    let mut worst = (0, 0.0);
    for i in 0..SAMPLES {
        let r2 = 10f64.powf(-300.0 + 600.0 * ((i as f64 + 0.5) / SAMPLES as f64));
        let d = ulps(rsqrt(r2), 1.0 / r2.sqrt());
        if d > worst.0 {
            worst = (d, r2);
        }
    }
    println!(
        "rsqrt: at most {} ulp from 1/sqrt, at r2 = {:e}",
        worst.0, worst.1
    );
    assert!(worst.0 <= 2, "rsqrt({:e}) is {} ulp off", worst.1, worst.0);
}

#[test]
fn exp_special_values() {
    let min_sub = f64::from_bits(1);
    for x in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e-300,
        -1e-300,
        709.782_712_893_384,   // the largest x with a finite e^x
        709.782_712_893_384_1, // the smallest with e^x = ∞
        -708.396_418_532_264,  // e^x near the smallest normal
        -708.5,                // subnormal results
        -730.0,
        -745.133_219_101_941_1, // e^x rounds to the smallest subnormal
        -745.133_219_101_941_2, // e^x rounds to zero
        -746.0,
        -1e4,
        1e4,
        1.0,
        -1.0,
    ] {
        let (got, want) = (exp(x), x.exp());
        assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, libm {want:e}");
    }
    assert_eq!(exp(0.0), 1.0);
    assert_eq!(exp(f64::INFINITY), f64::INFINITY);
    assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0);
    assert_eq!(exp(709.782_712_893_384_1), f64::INFINITY);
    assert_eq!(exp(-745.133_219_101_941_1), min_sub);
    assert!(exp(f64::NAN).is_nan());
}

#[test]
fn rsqrt_special_values() {
    let min_sub = f64::from_bits(1);
    for r2 in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        min_sub,
        3e-320,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE * (1.0 - f64::EPSILON),
        f64::MAX,
        0.25,
        1.0,
        2.0,
        4.0,
        8.0,
    ] {
        let (got, want) = (rsqrt(r2), 1.0 / r2.sqrt());
        assert!(
            ulps(got, want) <= 2,
            "rsqrt({r2:e}) = {got:e}, want {want:e}"
        );
    }
    assert_eq!(rsqrt(0.0), f64::INFINITY);
    assert_eq!(rsqrt(-0.0), f64::NEG_INFINITY);
    assert_eq!(rsqrt(f64::INFINITY).to_bits(), 0);
    assert!(rsqrt(-1.0).is_nan() && rsqrt(f64::NAN).is_nan());
    for k in 0..40 {
        // Even powers of two are exact.
        let r2 = 4f64.powi(k - 20);
        assert_eq!(rsqrt(r2), 2f64.powi(20 - k), "rsqrt(4^{})", k - 20);
    }
    assert_eq!(Coulomb.phi(4.0), 0.5);
    assert_eq!(Coulomb.phi(0.0), 0.0);
    assert_eq!(CoulombCubed.phi(4.0), 0.125);
}

#[test]
fn named_kernels_stay_near_their_libm_forms() {
    // Each shared-math kernel against the same formula with libm's `exp`
    // and `1.0 / sqrt`: a few ulps, from the bounds above.
    type Form = (&'static str, fn(f64) -> f64);
    let forms: [Form; 6] = [
        ("coulomb", |r2| 1.0 / r2.sqrt()),
        ("coulomb3", |r2| 1.0 / (r2 * r2.sqrt())),
        ("exponential", |r2| (-r2.sqrt()).exp()),
        ("gaussian", |r2| (-r2 / 0.1).exp()),
        ("matern32", |r2| {
            let a = 3f64.sqrt() * r2.sqrt();
            (1.0 + a) * (-a).exp()
        }),
        ("imq", |r2| 1.0 / (r2 + 1.0).sqrt()),
    ];
    for (name, libm) in forms {
        let k = kernel_by_name(name).expect("a named kernel");
        let mut worst = 0;
        for i in 0..100_000 {
            let r2 = 10f64.powf(-6.0 + 8.0 * (i as f64 + 0.5) / 1e5);
            let (x, y) = ([0.0], [r2.sqrt()]);
            let got = k.eval(&x, &y);
            worst = worst.max(ulps(got, libm(y[0] * y[0])));
        }
        assert!(worst <= 8, "{name}: {worst} ulp from its libm form");
    }
}
