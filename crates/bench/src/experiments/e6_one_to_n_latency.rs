//! E6 — Theorem 3: latency `O(T + n·log² n)`, all nodes informed w.h.p.
//!
//! * budget sweep: elapsed slots vs realized `T` fit ≈ 1.0 (optimal in T);
//! * unjammed `n` sweep: slots grow near-linearly in `n` (the `n·log² n`
//!   term — fitted exponent ≈ 1 with polylog drift).

use crate::experiments::common::{
    broadcast_budget_sweep, broadcast_sweep_base, budget_axis, series_from, truncation_note,
    SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::scaling::fit_scaling;
use rcb_analysis::table::{num, TableBuilder};

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();

    // (a) Latency vs T at fixed n.
    let n = 32;
    let budgets = budget_axis(17, 23, 2);
    let trials = scale.trials(15);
    let points = broadcast_budget_sweep(
        &broadcast_sweep_base(n, 1.0, trials, scale.seed ^ 0xE6),
        &budgets,
        ctl,
    )?;
    let mut table = TableBuilder::new(vec![
        "budget", "T (real)", "E[slots]", "slots/T", "informed",
    ]);
    for p in &points {
        table.row(vec![
            p.budget.to_string(),
            num(p.mean_t),
            num(p.latency.mean),
            num(p.latency.mean / p.mean_t.max(1.0)),
            format!("{:.2}", p.all_informed_rate),
        ]);
    }
    out.push_str(&format!("(a) n = {n}, trials/cell = {trials}\n\n"));
    out.push_str(&table.markdown());
    let series = series_from(
        "1-to-n latency vs T",
        points.iter().map(|p| (p.mean_t, p.latency)),
    );
    if let Some(v) = fit_scaling(&series, 1.0, 0.2) {
        out.push('\n');
        out.scaling(&v, "");
    }
    out.push_str(&truncation_note(&points));

    // (b) Unjammed latency vs n.
    let ns = [4usize, 8, 16, 32, 64, 128];
    let trials_b = scale.trials(10);
    let mut table_b = TableBuilder::new(vec!["n", "E[slots]", "slots/(n·lg²n)", "informed"]);
    let mut cells = Vec::new();
    let mut sweep_cells = Vec::new();
    for &n in &ns {
        let pts = broadcast_budget_sweep(
            &broadcast_sweep_base(n, 1.0, trials_b, scale.seed ^ 0x6E6),
            &[0],
            ctl,
        )?;
        let p = &pts[0];
        let lg = (n.max(2) as f64).log2();
        table_b.row(vec![
            n.to_string(),
            num(p.latency.mean),
            num(p.latency.mean / (n as f64 * lg * lg)),
            format!("{:.2}", p.all_informed_rate),
        ]);
        cells.push((n as f64, p.latency));
        sweep_cells.extend(pts);
    }
    out.push_str(&format!("\n(b) T = 0, trials/cell = {trials_b}\n\n"));
    out.push_str(&table_b.markdown());
    let series_n = series_from("1-to-n unjammed latency vs n", cells);
    if let Some(v) = fit_scaling(&series_n, 1.0, 0.35) {
        out.push('\n');
        out.scaling(&v, "");
    }
    out.push_str(&truncation_note(&sweep_cells));
    Ok(out)
}
