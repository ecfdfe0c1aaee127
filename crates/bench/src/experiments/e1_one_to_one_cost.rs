//! E1 — Theorem 1 upper bound: 1-to-1 expected cost is
//! `O(√(T·ln(1/ε)) + ln(1/ε))`.
//!
//! Sweep the adversary budget over several decades with the canonical
//! full-phase blocker; the fitted exponent of max-party cost vs realized
//! `T` must sit near 0.5 (and far from the naive baseline's 1.0), and the
//! success rate must stay ≥ 1 − ε.

use crate::experiments::common::{
    budget_axis, duel_budget_sweep, duel_sweep_base, series_from, truncation_note, SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::plot::ascii_loglog;
use rcb_analysis::scaling::{fit_scaling, fit_scaling_above_baseline};
use rcb_analysis::table::{num, TableBuilder};
use rcb_sim::scenario::DuelProtocol;

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();
    let budgets = budget_axis(10, 20 + scale.extra_budget_doublings, 2);
    let trials = scale.trials(150);

    for epsilon in [0.1, 0.01] {
        let protocol = DuelProtocol::fig1(epsilon, 8);
        // τ baseline: unjammed cost, the additive ln(1/ε) term.
        let base = duel_sweep_base(protocol, 1.0, trials, scale.seed ^ 0xBA5E);
        let baseline = duel_budget_sweep(&base, &[0], ctl)?[0].cost.mean;
        let base = duel_sweep_base(protocol, 1.0, trials, scale.seed ^ 0xE1);
        let points = duel_budget_sweep(&base, &budgets, ctl)?;

        let mut table = TableBuilder::new(vec![
            "budget",
            "T (real)",
            "E[max cost]",
            "± sem",
            "cost/√T",
            "success",
            "E[slots]",
        ]);
        for p in &points {
            table.row(vec![
                p.budget.to_string(),
                num(p.mean_t),
                num(p.cost.mean),
                num(p.cost.sem),
                num(p.cost.mean / p.mean_t.max(1.0).sqrt()),
                format!("{:.3}", p.success_rate),
                num(p.latency.mean),
            ]);
        }
        out.push_str(&format!("ε = {epsilon}, trials/cell = {trials}\n\n"));
        out.push_str(&table.markdown());

        let series = series_from(
            &format!("1-to-1 max cost vs T (ε={epsilon})"),
            points.iter().map(|p| (p.mean_t, p.cost)),
        );
        out.push_str(&format!(
            "\nτ baseline (T = 0 mean max cost): {}\n",
            num(baseline)
        ));
        if let Some(v) = fit_scaling(&series, 0.5, 0.15) {
            out.scaling(&v, " [raw]");
        }
        if let Some(v) = fit_scaling_above_baseline(&series, baseline, 0.5, 0.15) {
            out.scaling(&v, " [baseline-subtracted]");
        }
        out.push_str("\n```\n");
        out.push_str(&ascii_loglog(&series, 56, 12, Some(0.5)));
        out.push_str("```\n");
        let min_success = points
            .iter()
            .map(|p| p.success_rate)
            .fold(f64::INFINITY, f64::min);
        out.push_str(&format!(
            "minimum success rate over the sweep: {min_success:.3} (must be ≳ {:.3})\n",
            1.0 - epsilon
        ));
        out.push_str(&truncation_note(&points));
        out.push('\n');
    }
    Ok(out)
}
