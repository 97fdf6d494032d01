//! Discrete bounded power-law sampling.
//!
//! LFR draws vertex degrees from a power law with exponent γ (typically
//! 2–3) and community sizes from a power law with exponent β (typically
//! 1–2); BTER's degree sequence is heavy-tailed as well. This module
//! provides inverse-CDF sampling of `P(x) ∝ x^(-exp)` on `[lo, hi]` and a
//! helper that tunes `lo` to hit a target mean.

use rand::Rng;

/// Samples one value from `P(x) ∝ x^(-exp)` on the integer range
/// `[lo, hi]` via the continuous inverse CDF, rounded down.
///
/// Panics if `lo == 0` or `lo > hi`.
pub fn sample<R: Rng + ?Sized>(rng: &mut R, exp: f64, lo: usize, hi: usize) -> usize {
    assert!(lo >= 1 && lo <= hi, "invalid power-law range [{lo}, {hi}]");
    if lo == hi {
        return lo;
    }
    let u: f64 = rng.gen::<f64>();
    let x = if (exp - 1.0).abs() < 1e-9 {
        // P(x) ∝ 1/x: inverse CDF is exponential interpolation.
        let (a, b) = (lo as f64, (hi + 1) as f64);
        a * (b / a).powf(u)
    } else {
        let p = 1.0 - exp;
        let (a, b) = ((lo as f64).powf(p), ((hi + 1) as f64).powf(p));
        (a + u * (b - a)).powf(1.0 / p)
    };
    (x.floor() as usize).clamp(lo, hi)
}

/// Expected value of the continuous power law `x^(-exp)` on `[lo, hi+1)`.
#[must_use]
pub fn mean(exp: f64, lo: usize, hi: usize) -> f64 {
    let (a, b) = (lo as f64, (hi + 1) as f64);
    if (exp - 1.0).abs() < 1e-9 {
        (b - a) / (b / a).ln()
    } else if (exp - 2.0).abs() < 1e-9 {
        (b / a).ln() / (1.0 / a - 1.0 / b)
    } else {
        let p1 = 2.0 - exp;
        let p0 = 1.0 - exp;
        ((b.powf(p1) - a.powf(p1)) / p1) / ((b.powf(p0) - a.powf(p0)) / p0)
    }
}

/// Finds the smallest `lo` such that the power-law mean on `[lo, hi]`
/// reaches `target` (clamped to `[1, hi]`). Used to aim a degree sequence
/// at a requested average degree.
#[must_use]
pub fn lo_for_mean(exp: f64, hi: usize, target: f64) -> usize {
    let mut lo = 1usize;
    while lo < hi && mean(exp, lo, hi) < target {
        lo += 1;
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = sample(&mut rng, 2.5, 3, 50);
            assert!((3..=50).contains(&x));
        }
    }

    #[test]
    fn degenerate_range() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(sample(&mut rng, 2.0, 7, 7), 7);
    }

    #[test]
    fn empirical_mean_matches_analytic() {
        let mut rng = StdRng::seed_from_u64(3);
        let (exp, lo, hi) = (2.5, 4, 200);
        let n = 200_000;
        let s: usize = (0..n).map(|_| sample(&mut rng, exp, lo, hi)).sum();
        let emp = s as f64 / n as f64;
        let ana = mean(exp, lo, hi);
        assert!(
            (emp - ana).abs() / ana < 0.05,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn heavier_tail_for_smaller_exponent() {
        assert!(mean(2.0, 2, 1000) > mean(3.0, 2, 1000));
    }

    #[test]
    fn lo_for_mean_hits_target() {
        let hi = 500;
        let target = 16.0;
        let lo = lo_for_mean(2.5, hi, target);
        assert!(mean(2.5, lo, hi) >= target);
        if lo > 1 {
            assert!(mean(2.5, lo - 1, hi) < target);
        }
    }

    #[test]
    fn exponent_one_special_case() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = sample(&mut rng, 1.0, 2, 100);
            assert!((2..=100).contains(&x));
        }
        assert!(mean(1.0, 2, 100) > 2.0);
    }
}
