//! End-to-end checks of the paper's theorem-level properties, at test
//! scale (the bench harness re-verifies them at full scale).

use rcb::prelude::*;
use rcb_mathkit::fit::power_law_fit;
use rcb_mathkit::gof::{chi_square_gof, ks_two_sample};
use rcb_mathkit::sample::{bernoulli, binomial, sample_slots};
use rcb_mathkit::PHI_MINUS_ONE;
use rcb_sim::lowerbound::{golden_ratio_game, product_game};

/// Theorem 1 success guarantee: delivery probability ≥ 1 − ε under an
/// adaptive blanket blocker.
#[test]
fn theorem1_success_probability_under_attack() {
    let profile = Fig1Profile::with_start_epoch(0.05, 8);
    let trials = 200u64;
    let outcomes = run_trials(trials, 77, Parallelism::Auto, |_, rng| {
        let mut adv = BudgetedRepBlocker::new(20_000, 1.0);
        run_duel(
            &profile,
            &mut adv,
            rng,
            DuelConfig::default(),
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0
    });
    let delivered = outcomes.iter().filter(|o| o.delivered).count();
    // ε = 0.05 nominal with a scaled-down start epoch: allow 3× slack.
    assert!(
        delivered as f64 / trials as f64 >= 1.0 - 3.0 * 0.05,
        "delivered {delivered}/{trials}"
    );
}

/// Theorem 1 cost shape: fitted exponent of cost vs T near 1/2.
#[test]
fn theorem1_cost_scaling_exponent() {
    let profile = Fig1Profile::with_start_epoch(0.05, 8);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for k in [10u32, 12, 14, 16, 18] {
        let budget = 1u64 << k;
        let outcomes = run_trials(60, 123 ^ budget, Parallelism::Auto, |_, rng| {
            let mut adv = BudgetedRepBlocker::new(budget, 1.0);
            run_duel(
                &profile,
                &mut adv,
                rng,
                DuelConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0
        });
        let mean_t: f64 = outcomes
            .iter()
            .map(|o| o.adversary_cost as f64)
            .sum::<f64>()
            / outcomes.len() as f64;
        let mean_cost: f64 =
            outcomes.iter().map(|o| o.max_cost() as f64).sum::<f64>() / outcomes.len() as f64;
        xs.push(mean_t);
        ys.push(mean_cost);
    }
    let fit = power_law_fit(&xs, &ys).expect("fit");
    assert!(
        (fit.exponent - 0.5).abs() < 0.2,
        "1-to-1 cost exponent {} should be ≈ 0.5 (R² {})",
        fit.exponent,
        fit.r2
    );
    // And clearly sublinear — the resource-competitive claim itself.
    assert!(fit.exponent < 0.8);
}

/// Theorem 3 headline: at fixed adversary budget, per-node cost decreases
/// as the system grows.
#[test]
fn theorem3_cost_decreases_with_n() {
    let params = OneToNParams::practical();
    let budget = 1u64 << 21;
    let mut means = Vec::new();
    for n in [8usize, 32, 64] {
        let outcomes = run_trials(8, 55 + n as u64, Parallelism::Auto, |_, rng| {
            let mut adv = BudgetedRepBlocker::new(budget, 1.0);
            run_broadcast(
                &params,
                n,
                &[0],
                &mut adv,
                rng,
                FastConfig::default(),
                &mut (),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0
        });
        let mean: f64 = outcomes.iter().map(|o| o.mean_cost()).sum::<f64>() / outcomes.len() as f64;
        means.push((n, mean));
    }
    assert!(
        means[2].1 < means[0].1,
        "cost must fall from n=8 ({:.1}) to n=64 ({:.1})",
        means[0].1,
        means[2].1
    );
}

/// Theorem 3 correctness: everyone is informed w.h.p. even under attack.
#[test]
fn theorem3_all_informed_under_attack() {
    let params = OneToNParams::practical();
    let outcomes = run_trials(12, 99, Parallelism::Auto, |_, rng| {
        let mut adv = BudgetedRepBlocker::new(30_000, 1.0);
        run_broadcast(
            &params,
            24,
            &[0],
            &mut adv,
            rng,
            FastConfig::default(),
            &mut (),
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0
    });
    let ok = outcomes
        .iter()
        .filter(|o| o.all_informed && o.all_terminated)
        .count();
    assert!(ok >= 10, "all-informed+terminated in {ok}/12 runs");
}

/// Theorem 2: the cost product is pinned to T for boundary protocols.
#[test]
fn theorem2_product_floor() {
    let mut rng = RcbRng::new(7);
    let row = product_game(2048, 0.5, 2000, &mut rng);
    assert!(
        row.product_over_t > 0.9 && row.product_over_t < 1.15,
        "product/T = {}",
        row.product_over_t
    );
}

/// Theorem 5: the golden-ratio split minimizes the worst-case exponent.
#[test]
fn theorem5_golden_ratio_is_optimal() {
    let mut rng = RcbRng::new(8);
    let t = 1u64 << 12;
    let at_phi = golden_ratio_game(t, PHI_MINUS_ONE, 400, &mut rng);
    assert!(
        (at_phi.worst_exponent - PHI_MINUS_ONE).abs() < 0.1,
        "exponent at φ−1: {}",
        at_phi.worst_exponent
    );
    for delta in [0.45, 0.8] {
        let other = golden_ratio_game(t, delta, 400, &mut rng);
        assert!(
            other.worst_exponent > at_phi.worst_exponent - 0.03,
            "δ = {delta} beat the golden split"
        );
    }
}

/// The KSY baseline's cost curve has the golden-ratio exponent — the
/// comparison target of §1.4 (our reconstruction must reproduce the
/// T^0.618 shape, clearly separated from Figure 1's T^0.5).
#[test]
fn ksy_baseline_has_golden_ratio_exponent() {
    use rcb_baselines::ksy::KsyProfile;
    let profile = KsyProfile::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for k in [10u32, 12, 14, 16, 18, 20] {
        let budget = 1u64 << k;
        let outcomes = run_trials(60, 31 ^ budget, Parallelism::Auto, |_, rng| {
            let mut adv = BudgetedRepBlocker::new(budget, 1.0);
            run_duel(
                &profile,
                &mut adv,
                rng,
                DuelConfig::default(),
                &FaultPlan::none(),
                &Deadline::NONE,
            )
            .0
        });
        let mean_t: f64 = outcomes
            .iter()
            .map(|o| o.adversary_cost as f64)
            .sum::<f64>()
            / outcomes.len() as f64;
        let mean_cost: f64 =
            outcomes.iter().map(|o| o.max_cost() as f64).sum::<f64>() / outcomes.len() as f64;
        xs.push(mean_t);
        ys.push(mean_cost);
    }
    let fit = power_law_fit(&xs, &ys).expect("fit");
    assert!(
        (fit.exponent - PHI_MINUS_ONE).abs() < 0.12,
        "KSY exponent {} should be ≈ φ−1 = 0.618 (R² {})",
        fit.exponent,
        fit.r2
    );
    // And clearly above Figure 1's 0.5 — the gap the paper closes.
    assert!(fit.exponent > 0.55);
}

/// Exact Binomial(n, p) pmf, computed by the stable recurrence.
fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
    let mut pmf = vec![0.0; n as usize + 1];
    pmf[0] = (1.0 - p).powi(n as i32);
    for k in 0..n as usize {
        pmf[k + 1] = pmf[k] * ((n - k as u64) as f64 / (k as f64 + 1.0)) * (p / (1.0 - p));
    }
    pmf
}

/// Histogram counts against scaled pmf expectations, pooling both tails so
/// every chi-square bin has expectation ≥ 5.
fn pooled_histogram(samples: &[u64], pmf: &[f64]) -> (Vec<u64>, Vec<f64>) {
    let trials = samples.len() as f64;
    let mut lo = 0usize;
    let mut hi = pmf.len() - 1;
    while lo < hi && trials * pmf[lo] < 5.0 {
        lo += 1;
    }
    while hi > lo && trials * pmf[hi] < 5.0 {
        hi -= 1;
    }
    // Bins: [0..=lo] pooled, lo+1..hi singletons, [hi..] pooled.
    let mut observed = vec![0u64; hi - lo + 1];
    let mut expected = vec![0.0f64; hi - lo + 1];
    for (k, &q) in pmf.iter().enumerate() {
        let bin = k.clamp(lo, hi) - lo;
        expected[bin] += trials * q;
    }
    for &s in samples {
        let bin = (s as usize).clamp(lo, hi) - lo;
        observed[bin] += 1;
    }
    (observed, expected)
}

/// The fast binomial sampler IS a sum of per-slot coin flips, statistically:
/// KS against a naive flip loop and chi-square against the exact pmf. The
/// engines' equivalence (cross_engine_validation.rs) bottoms out here — the
/// fast engines replace slot loops with these draws.
#[test]
fn sampler_binomial_matches_naive_coin_flips() {
    let (n, p, reps) = (48u64, 0.35f64, 4000usize);
    let mut rng_fast = RcbRng::new(0xB10);
    let mut rng_naive = RcbRng::new(0xF11B);
    let fast: Vec<u64> = (0..reps).map(|_| binomial(&mut rng_fast, n, p)).collect();
    let naive: Vec<u64> = (0..reps)
        .map(|_| (0..n).filter(|_| bernoulli(&mut rng_naive, p)).count() as u64)
        .collect();

    let fast_f: Vec<f64> = fast.iter().map(|&k| k as f64).collect();
    let naive_f: Vec<f64> = naive.iter().map(|&k| k as f64).collect();
    let ks = ks_two_sample(&fast_f, &naive_f);
    assert!(ks.p > 1e-3, "KS fast-vs-naive: D = {}, p = {}", ks.d, ks.p);

    let pmf = binomial_pmf(n, p);
    for (name, samples) in [("fast", &fast), ("naive", &naive)] {
        let (obs, exp) = pooled_histogram(samples, &pmf);
        let chi = chi_square_gof(&obs, &exp);
        assert!(
            chi.p > 1e-3,
            "{name} sampler off the exact pmf: χ² = {} (df {}), p = {}",
            chi.stat,
            chi.df,
            chi.p
        );
    }
}

/// `sample_slots` must match the naive per-slot loop in BOTH marginals the
/// engines rely on: how many slots fire (binomial count) and where they land
/// (uniform positions).
#[test]
fn sampler_slots_match_naive_per_slot_flips() {
    let (n, p, reps) = (96u64, 0.2f64, 2500usize);
    let mut rng_fast = RcbRng::new(0x51075);
    let mut rng_naive = RcbRng::new(0xC0111);
    let mut fast_counts = Vec::with_capacity(reps);
    let mut naive_counts = Vec::with_capacity(reps);
    let mut fast_positions = Vec::new();
    let mut naive_positions = Vec::new();
    for _ in 0..reps {
        let slots = sample_slots(&mut rng_fast, n, p);
        fast_counts.push(slots.len() as u64);
        fast_positions.extend(slots.iter().map(|&s| s as f64));
        let mut c = 0u64;
        for s in 0..n {
            if bernoulli(&mut rng_naive, p) {
                c += 1;
                naive_positions.push(s as f64);
            }
        }
        naive_counts.push(c);
    }

    let fast_f: Vec<f64> = fast_counts.iter().map(|&k| k as f64).collect();
    let naive_f: Vec<f64> = naive_counts.iter().map(|&k| k as f64).collect();
    let ks_counts = ks_two_sample(&fast_f, &naive_f);
    assert!(
        ks_counts.p > 1e-3,
        "slot-count KS: D = {}, p = {}",
        ks_counts.d,
        ks_counts.p
    );
    let ks_pos = ks_two_sample(&fast_positions, &naive_positions);
    assert!(
        ks_pos.p > 1e-3,
        "slot-position KS: D = {}, p = {}",
        ks_pos.d,
        ks_pos.p
    );

    let pmf = binomial_pmf(n, p);
    let (obs, exp) = pooled_histogram(&fast_counts, &pmf);
    let chi = chi_square_gof(&obs, &exp);
    assert!(
        chi.p > 1e-3,
        "sample_slots count off Binomial({n}, {p}): χ² = {}, p = {}",
        chi.stat,
        chi.p
    );
}

/// Latency optimality: both protocols finish in O(T) slots.
#[test]
fn latency_linear_in_t() {
    let profile = Fig1Profile::with_start_epoch(0.05, 8);
    let budget = 1u64 << 16;
    let outcomes = run_trials(40, 31, Parallelism::Auto, |_, rng| {
        let mut adv = BudgetedRepBlocker::new(budget, 1.0);
        run_duel(
            &profile,
            &mut adv,
            rng,
            DuelConfig::default(),
            &FaultPlan::none(),
            &Deadline::NONE,
        )
        .0
    });
    for o in &outcomes {
        assert!(
            o.slots < 64 * o.adversary_cost.max(1),
            "latency {} far exceeds O(T = {})",
            o.slots,
            o.adversary_cost
        );
    }
}
