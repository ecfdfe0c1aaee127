//! The Theorem 5 spoofing adversary: jam Bob, or *become* Bob.
//!
//! In the Theorem 5 model the 2-uniform adversary can transmit messages
//! indistinguishable from Bob's. Its strategy space in the proof is a binary
//! choice made before the execution:
//!
//! * **Scenario (i) — JamBob**: announce budget `T̃` and jam Bob's group
//!   (only) whenever `a_i·b_i > 1/T̃`, exactly the Theorem 2 rule. The
//!   adversary's realized cost is at most `T = T̃`.
//! * **Scenario (ii) — ImpersonateBob**: there is no Bob; the adversary
//!   simulates Bob's side of the protocol and pays Bob's costs (`T = B`).
//!   No jamming occurs and Alice cannot tell the difference, because she
//!   cannot detect whether Bob's group is being jammed.
//!
//! For a protocol family parameterized by the split `δ` (Bob's expected cost
//! `≈ T̃^δ`, Alice's `≈ T̃^(1−δ)`, their product pinned to `Ω(T̃)` by
//! Theorem 2), the adversary's better scenario forces a good-node cost of
//! `T^max{δ, (1−δ)/δ}` — minimized at `δ = φ − 1`, giving the golden-ratio
//! exponent. [`predicted_exponent`] and [`optimal_delta`] encode that
//! calculation for the E8 experiment.

use rcb_mathkit::PHI_MINUS_ONE;
use serde::{Deserialize, Serialize};

/// Which of the two Theorem-5 scenarios the adversary plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpoofScenario {
    /// Scenario (i): jam Bob with the threshold rule at budget `T̃`.
    JamBob,
    /// Scenario (ii): replace Bob and simulate his protocol.
    ImpersonateBob,
}

/// The good-node cost exponent a δ-split protocol suffers against the
/// better of the two scenarios: `max{δ, (1−δ)/δ}` (proof of Theorem 5).
///
/// * Scenario (i): Bob's cost is `Ω(T̃^δ)` with `T = T̃` → exponent `δ`.
/// * Scenario (ii): `T = B ≈ T̃^δ` while Alice spends `Ω(T̃^(1−δ))` =
///   `Ω(T^((1−δ)/δ))` → exponent `(1−δ)/δ`.
pub fn predicted_exponent(delta: f64) -> f64 {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    let scenario_i = delta;
    let scenario_ii = (1.0 - delta) / delta;
    scenario_i.max(scenario_ii)
}

/// The δ minimizing [`predicted_exponent`]: the golden-ratio point
/// `δ = φ − 1 ≈ 0.618`, where `δ = (1−δ)/δ`.
pub fn optimal_delta() -> f64 {
    PHI_MINUS_ONE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_is_minimized_at_golden_ratio() {
        let best = predicted_exponent(optimal_delta());
        assert!((best - PHI_MINUS_ONE).abs() < 1e-9);
        for d in [0.35, 0.45, 0.5, 0.55, 0.7, 0.8, 0.9] {
            assert!(
                predicted_exponent(d) >= best - 1e-12,
                "delta {d} beat the golden ratio"
            );
        }
    }

    #[test]
    fn both_scenarios_agree_at_optimum() {
        let d = optimal_delta();
        assert!((d - (1.0 - d) / d).abs() < 1e-9, "δ = (1−δ)/δ at optimum");
    }

    #[test]
    fn scenario_i_dominates_for_large_delta() {
        // For δ > φ−1 the jamming scenario is the binding one.
        assert!((predicted_exponent(0.8) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn scenario_ii_dominates_for_small_delta() {
        // For δ < φ−1 impersonation is the binding one.
        assert!((predicted_exponent(0.4) - 0.6 / 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn exponent_rejects_degenerate_delta() {
        predicted_exponent(1.0);
    }
}
