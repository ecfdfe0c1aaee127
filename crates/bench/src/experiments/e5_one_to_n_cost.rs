//! E5 — Theorem 3: per-node cost `O(√(T/n)·log⁴T + log⁶n)`.
//!
//! Two sweeps:
//!
//! * budget sweep at fixed `n` — fitted exponent of mean per-node cost vs
//!   realized `T` ≈ 0.5 (the polylog inflates it slightly);
//! * `n` sweep at fixed budget — fitted exponent ≈ −0.5: **bigger systems
//!   pay less per node**, the headline of the paper.

use crate::experiments::common::{
    broadcast_budget_sweep, broadcast_sweep_base, budget_axis, series_from, truncation_note,
    SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::plot::ascii_loglog;
use rcb_analysis::scaling::{fit_scaling, fit_scaling_with_offset};
use rcb_analysis::table::{num, TableBuilder};

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();

    // (a) Cost vs T at fixed n.
    let n = 32;
    let budgets = budget_axis(17, 23 + scale.extra_budget_doublings.min(1), 2);
    let trials = scale.trials(20);
    // τ baseline: the unjammed (T = 0) cost, i.e. the additive log⁶n-style
    // term of the cost function; subtracted before the scaling fit.
    let baseline = broadcast_budget_sweep(
        &broadcast_sweep_base(n, 1.0, trials, scale.seed ^ 0xBA5E),
        &[0],
        ctl,
    )?[0]
        .mean_cost
        .mean;
    let points = broadcast_budget_sweep(
        &broadcast_sweep_base(n, 1.0, trials, scale.seed ^ 0xE5),
        &budgets,
        ctl,
    )?;

    let mut table = TableBuilder::new(vec![
        "budget",
        "T (real)",
        "E[mean cost]",
        "p95",
        "E[max cost]",
        "mean/√(T/n)",
        "informed",
    ]);
    for p in &points {
        table.row(vec![
            p.budget.to_string(),
            num(p.mean_t),
            num(p.mean_cost.mean),
            num(p.mean_cost.p95),
            num(p.max_cost.mean),
            num(p.mean_cost.mean / (p.mean_t.max(1.0) / n as f64).sqrt()),
            format!("{:.2}", p.all_informed_rate),
        ]);
    }
    out.push_str(&format!("(a) n = {n}, trials/cell = {trials}\n\n"));
    out.push_str(&table.markdown());
    let series = series_from(
        "1-to-n mean cost vs T",
        points.iter().map(|p| (p.mean_t, p.mean_cost)),
    );
    out.push_str(&format!(
        "\nmeasured τ (T = 0 mean cost): {} — note small-T jamming can even
         sit *below* τ (blocked epochs suppress growth-phase listening)\n",
        num(baseline)
    ));
    if let Some(v) = fit_scaling(&series, 0.5, 0.3) {
        out.scaling(&v, " [raw]");
    }
    if let Some((v, _tau)) = fit_scaling_with_offset(&series, 0.5, 0.2) {
        out.scaling(&v, " [offset model ρ(T) + τ]");
    }
    out.push_str("\n```\n");
    out.push_str(&ascii_loglog(&series, 56, 12, Some(0.5)));
    out.push_str("```\n");
    out.push_str(&truncation_note(&points));

    // (b) Cost vs n at fixed budget.
    let budget = 1u64 << 21;
    let ns = [4usize, 8, 16, 32, 64, 128];
    let trials_b = scale.trials(15);
    let mut table_b = TableBuilder::new(vec![
        "n",
        "T (real)",
        "E[mean cost]",
        "E[max cost]",
        "informed",
    ]);
    let mut cells = Vec::new();
    let mut sweep_cells = Vec::new();
    for &n in &ns {
        let pts = broadcast_budget_sweep(
            &broadcast_sweep_base(n, 1.0, trials_b, scale.seed ^ 0x5E5),
            &[budget],
            ctl,
        )?;
        let p = &pts[0];
        table_b.row(vec![
            n.to_string(),
            num(p.mean_t),
            num(p.mean_cost.mean),
            num(p.max_cost.mean),
            format!("{:.2}", p.all_informed_rate),
        ]);
        cells.push((n as f64, p.mean_cost));
        sweep_cells.extend(pts);
    }
    out.push_str(&format!(
        "\n(b) budget = {budget}, trials/cell = {trials_b}\n\n"
    ));
    out.push_str(&table_b.markdown());
    let series_n = series_from("1-to-n mean cost vs n at fixed T", cells);
    let raw = fit_scaling(&series_n, -0.5, 0.35);
    let offset = fit_scaling_with_offset(&series_n, -0.5, 0.35);
    if let Some(v) = &raw {
        out.push('\n');
        out.scaling(v, " [raw]");
    }
    if let Some((v, _)) = &offset {
        out.scaling(v, " [constant-offset model]");
    }
    if let (Some(r), Some((o, _))) = (&raw, &offset) {
        // The true model is cost(n) = τ(n) + B·√(T/n) with τ *growing* in n
        // (the log⁶n term): a raw fit therefore underestimates |α| and a
        // constant-offset fit overestimates it — the prediction must lie
        // between the two.
        let (lo, hi) = (
            r.fitted.exponent.min(o.fitted.exponent),
            r.fitted.exponent.max(o.fitted.exponent),
        );
        let bracketed = (lo..=hi).contains(&-0.5);
        out.check(
            format!("{}: bracket check", series_n.name),
            bracketed,
            &format!(
                "bracket check: predicted −0.5 ∈ [{lo:.3}, {hi:.3}] → {}\n\
                 (raw underestimates |α| because the additive τ(n) term pads \
                 small-n costs; a constant offset overestimates it because τ(n) \
                 itself grows with n — the headline: larger systems beat the \
                 same adversary more cheaply)\n",
                if bracketed { "OK" } else { "MISMATCH" }
            ),
        );
    }
    out.push_str(&truncation_note(&sweep_cells));
    Ok(out)
}
