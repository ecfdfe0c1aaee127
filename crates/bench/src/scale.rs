//! Experiment sizing.
//!
//! `rcbsim exp --scale quick` (default) keeps every experiment in the tens
//! of seconds; `--scale full` multiplies trial counts and extends sweeps
//! for publication-grade error bars. `--seed N` overrides the master seed
//! for reproducibility studies.

/// Trial-count and sweep sizing for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Multiplier applied to each experiment's base trial count.
    pub trial_factor: u64,
    /// Extend sweeps by this many extra doublings of the budget axis.
    pub extra_budget_doublings: u32,
    /// Master seed for all experiments.
    pub seed: u64,
}

impl Scale {
    pub fn quick() -> Self {
        Self {
            trial_factor: 1,
            extra_budget_doublings: 0,
            seed: 0x5EED_2014,
        }
    }

    pub fn full() -> Self {
        Self {
            trial_factor: 4,
            extra_budget_doublings: 2,
            seed: 0x5EED_2014,
        }
    }

    /// Scaled trial count for a base of `base` trials.
    pub fn trials(&self, base: u64) -> u64 {
        (base * self.trial_factor).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_and_full_differ() {
        assert!(Scale::full().trial_factor > Scale::quick().trial_factor);
        assert_eq!(Scale::quick().trials(100), 100);
        assert_eq!(Scale::full().trials(100), 400);
    }

    #[test]
    fn trials_floor_is_two() {
        assert_eq!(Scale::quick().trials(0), 2);
    }
}
