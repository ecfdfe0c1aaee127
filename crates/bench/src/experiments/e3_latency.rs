//! E3 — Theorem 1: latency is `Θ(T)`.
//!
//! Same sweep as E1, but the fitted quantity is elapsed slots until both
//! parties halt: the exponent versus realized `T` must sit near 1.0
//! (asymptotically optimal — the adversary can always force `T` latency by
//! jamming everything).

use crate::experiments::common::{
    budget_axis, duel_budget_sweep, duel_sweep_base, series_from, truncation_note, SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::scaling::fit_scaling;
use rcb_analysis::table::{num, TableBuilder};
use rcb_sim::scenario::DuelProtocol;

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();
    let budgets = budget_axis(10, 20 + scale.extra_budget_doublings, 2);
    let trials = scale.trials(100);
    let base = duel_sweep_base(DuelProtocol::fig1(0.01, 8), 1.0, trials, scale.seed ^ 0xE3);
    let points = duel_budget_sweep(&base, &budgets, ctl)?;

    let mut table = TableBuilder::new(vec!["budget", "T (real)", "E[slots]", "slots/T"]);
    for p in &points {
        table.row(vec![
            p.budget.to_string(),
            num(p.mean_t),
            num(p.latency.mean),
            num(p.latency.mean / p.mean_t.max(1.0)),
        ]);
    }
    out.push_str(&format!("ε = 0.01, trials/cell = {trials}\n\n"));
    out.push_str(&table.markdown());

    let series = series_from(
        "1-to-1 latency vs T",
        points.iter().map(|p| (p.mean_t, p.latency)),
    );
    if let Some(v) = fit_scaling(&series, 1.0, 0.15) {
        out.push('\n');
        out.scaling(&v, "");
    }
    out.push_str(&truncation_note(&points));
    Ok(out)
}
