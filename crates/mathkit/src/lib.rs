//! # rcb-mathkit
//!
//! Numerical primitives shared by the `rcb` workspace: a deterministic,
//! splittable random-number generator, exact samplers for the distributions
//! the simulation engines need (Bernoulli processes, binomials, geometric
//! skips, distinct-subset sampling), streaming statistics, and power-law
//! fitting for the experiment harness.
//!
//! Everything here is dependency-light on purpose: `rand_distr` is not part
//! of the approved dependency set, so the binomial/geometric samplers are
//! implemented from first principles and validated by property tests.

pub mod binom;
pub mod fit;
pub mod gof;
pub mod histogram;
pub mod hypothesis;
pub mod rng;
pub mod sample;
pub mod stats;

pub use binom::{binomial_cdf_le, binomial_tail_gt, ln_binomial_pmf, ln_choose, ln_factorial};
pub use fit::{
    linear_fit, power_law_fit, power_law_fit_with_offset, LinearFit, OffsetPowerLawFit, PowerLawFit,
};
pub use gof::{chi_square_gof, ks_two_sample, ChiSquare, KsTest};
pub use histogram::LogHistogram;
pub use hypothesis::{mann_whitney_u, normal_cdf, MannWhitney};
pub use rng::{RcbRng, SeedSequence};
pub use sample::{
    bernoulli, binomial, binomial_fast, geometric_failures, multinomial_into, sample_slots,
};
pub use stats::{percentile, RunningStats};

/// The golden ratio φ = (1 + √5)/2, used by the King–Saia–Young baseline and
/// the Theorem 5 lower-bound experiment.
pub const PHI: f64 = 1.618_033_988_749_895;

/// φ − 1 = 1/φ ≈ 0.618, the cost exponent of the KSY baseline.
pub const PHI_MINUS_ONE: f64 = PHI - 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_satisfies_defining_identity() {
        // φ² = φ + 1 and (φ − 1)·φ = 1 are the identities the golden-ratio
        // baseline's self-consistency argument uses.
        assert!((PHI * PHI - (PHI + 1.0)).abs() < 1e-12);
        assert!((PHI_MINUS_ONE * PHI - 1.0).abs() < 1e-12);
    }
}
