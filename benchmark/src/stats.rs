//! The benchmark's own statistics, kept here so that no change to the
//! simulator can change how the benchmark measures.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` ascending
//! samples is the sample at 1-based rank `ceil(n·p/100)`. A percentile is
//! reported only when at least ten samples lie beyond it, so a tail figure
//! always rests on a tail and never on one or two outliers.

use rcb_sim::executor::SpecsRun;

/// Samples that must lie strictly above a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n ≥ 1` samples.
fn nearest_rank(n: usize, pct: f64) -> usize {
    assert!(n >= 1, "percentile of an empty sample");
    assert!(
        pct > 0.0 && pct <= 100.0,
        "percentile {pct} outside (0, 100]"
    );
    ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> T {
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// The percentile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail_percentile<T: Copy>(sorted: &[T], pct: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(sorted.len(), pct);
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts `values` ascending (finite values only) and returns their
/// nearest-rank median.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// Trials attempted and trials failed. A trial fails when it returns a
/// `SimError`, is quarantined by the executor after its retries, or belongs
/// to a batch whose checksum drifted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (`0` before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Tally of an executor run. Quarantined trials leave an empty result
    /// slot but were attempted, so they count in both numerator and
    /// denominator.
    pub fn of_pool_run(run: &SpecsRun) -> Tally {
        let mut tally = Tally::default();
        for slot in run.results.iter().flatten() {
            tally.record(matches!(slot, Some((_, None))));
        }
        debug_assert_eq!(
            run.results.iter().flatten().filter(|s| s.is_none()).count(),
            run.quarantined.len(),
            "an empty slot without a deadline or skip is a quarantined trial"
        );
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_sim::error::{SimError, TrialFailure};
    use rcb_sim::executor::QuarantinedTrial;
    use rcb_sim::outcome::DuelOutcome;
    use rcb_sim::scenario::Outcome;

    #[test]
    fn nearest_rank_median_and_tails() {
        let xs: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&xs, 50.0), 5);
        assert_eq!(percentile(&xs, 90.0), 9);
        assert_eq!(percentile(&xs, 99.0), 10);
        assert_eq!(percentile(&xs, 100.0), 10);
        assert_eq!(percentile(&[7u64], 50.0), 7);
        // Even counts take the lower middle, odd counts the middle.
        assert_eq!(percentile(&[1u64, 2], 50.0), 1);
        assert_eq!(percentile(&[1u64, 2, 3], 50.0), 2);
        let mut ys = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&mut ys), 3.0);
        assert_eq!(ys, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90));
        assert_eq!(tail_percentile(&hundred[..99], 90.0), None);
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990));
        assert_eq!(tail_percentile(&thousand[..999], 99.0), None);
        // The median of eleven samples has five beyond it: not a tail.
        assert_eq!(tail_percentile(&hundred[..11], 50.0), None);
        assert_eq!(tail_percentile::<u64>(&[], 50.0), None);
    }

    fn duel() -> Outcome {
        Outcome::Duel(DuelOutcome {
            delivered: true,
            bob_premature: false,
            alice_cost: 1,
            bob_cost: 1,
            adversary_cost: 0,
            slots: 10,
            delivery_slot: Some(3),
            last_epoch: 8,
            truncated: false,
        })
    }

    #[test]
    fn failed_frac_counts_quarantined_trials_as_attempted() {
        let truncated = SimError::SlotBudgetExhausted {
            max_slots: 10,
            slots: 10,
        };
        let run = SpecsRun {
            results: vec![
                vec![Some((duel(), None)), None, Some((duel(), Some(truncated)))],
                vec![Some((duel(), None)), Some((duel(), None))],
            ],
            quarantined: vec![QuarantinedTrial {
                spec: 0,
                trial: 1,
                failure: TrialFailure::new(1, "boom".into()),
            }],
            deadline_hit: false,
        };
        let tally = Tally::of_pool_run(&run);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(tally.failed_frac(), 0.4);

        let mut serial = Tally::default();
        for ok in [true, true, false, true] {
            serial.record(ok);
        }
        serial.add(tally);
        assert_eq!(serial.attempted, 9);
        assert_eq!(serial.failed, 3);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
