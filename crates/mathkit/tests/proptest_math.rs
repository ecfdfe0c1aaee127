//! Property tests for the math kit: sampler laws, statistics algebra, and
//! fit invariances under arbitrary inputs.

use proptest::prelude::*;
use rcb_mathkit::fit::{linear_fit, power_law_fit};
use rcb_mathkit::rng::{RcbRng, SeedSequence};
use rcb_mathkit::sample::{binomial, geometric_failures, sample_slots};
use rcb_mathkit::stats::RunningStats;

proptest! {
    /// Binomial by geometric skips == counting the sampled slot positions.
    #[test]
    fn binomial_consistent_with_slots(seed in any::<u64>(), n in 0u64..5000, p in 0.0f64..1.0) {
        // Same RNG stream, two readings: the count distribution must match
        // in expectation; here we check the structural law count == len on
        // the *same* draw by re-deriving the count from positions.
        let mut rng = RcbRng::new(seed);
        let slots = sample_slots(&mut rng, n, p);
        prop_assert!(slots.len() as u64 <= n);
        // Positions strictly increasing ⇒ count is exactly the cardinality.
        prop_assert!(slots.windows(2).all(|w| w[0] < w[1]));
    }

    /// Geometric sampler stays within [0, ∞) and respects p = 1.
    #[test]
    fn geometric_bounds(seed in any::<u64>(), p in 0.0001f64..1.0) {
        let mut rng = RcbRng::new(seed);
        let g = geometric_failures(&mut rng, p);
        // With p ≥ 0.0001 the skip must be far below the saturation value.
        prop_assert!(g < u64::MAX / 2);
    }

    /// Mean/variance algebra: merging in any split point gives the same
    /// result as a single pass.
    #[test]
    fn running_stats_merge_associative(
        data in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let mut whole = RunningStats::new();
        for &x in &data { whole.push(x); }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &data[..split] { left.push(x); }
        for &x in &data[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// Power-law fit is exactly scale-equivariant: scaling y by c scales the
    /// amplitude, never the exponent.
    #[test]
    fn power_law_scale_invariance(
        alpha in -2.0f64..2.0,
        c in 0.1f64..100.0,
        amp in 0.1f64..10.0,
    ) {
        let xs: Vec<f64> = (1..12).map(|k| (2.0f64).powi(k)).collect();
        let ys: Vec<f64> = xs.iter().map(|x| amp * x.powf(alpha)).collect();
        let ys_scaled: Vec<f64> = ys.iter().map(|y| c * y).collect();
        let f1 = power_law_fit(&xs, &ys).expect("fit");
        let f2 = power_law_fit(&xs, &ys_scaled).expect("fit");
        prop_assert!((f1.exponent - f2.exponent).abs() < 1e-9);
        prop_assert!((f2.amplitude / f1.amplitude - c).abs() < 1e-6 * c);
    }

    /// Linear fit residual orthogonality: slope of residuals vs x is ~0.
    #[test]
    fn linear_fit_residuals_are_unbiased(
        pts in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
    ) {
        let xs: Vec<f64> = pts.iter().map(|(x, _)| *x).collect();
        let ys: Vec<f64> = pts.iter().map(|(_, y)| *y).collect();
        if let Some(f) = linear_fit(&xs, &ys) {
            let residuals: Vec<f64> =
                xs.iter().zip(&ys).map(|(x, y)| y - (f.slope * x + f.intercept)).collect();
            if let Some(rf) = linear_fit(&xs, &residuals) {
                let scale = ys.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
                prop_assert!(rf.slope.abs() < 1e-6 * scale.max(1.0),
                    "residual slope {} should vanish", rf.slope);
            }
        }
    }

    /// Seed streams never collide across nearby masters and indices.
    #[test]
    fn seed_streams_distinct(master in any::<u64>(), i in 0u64..1000, j in 0u64..1000) {
        prop_assume!(i != j);
        let seq = SeedSequence::new(master);
        prop_assert_ne!(seq.child(i), seq.child(j));
    }

    /// Binomial stays within support for extreme p.
    #[test]
    fn binomial_extremes(seed in any::<u64>(), n in 0u64..10_000) {
        let mut rng = RcbRng::new(seed);
        prop_assert_eq!(binomial(&mut rng, n, 0.0), 0);
        prop_assert_eq!(binomial(&mut rng, n, 1.0), n);
    }
}
