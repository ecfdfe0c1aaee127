//! E7 — Theorem 4: any fair algorithm pays `Ω(√(T/n))` per node; our
//! algorithm's mean per-node cost must sit **above** that floor and within
//! a polylog factor of it.
//!
//! The table reports `mean cost / √(T/n)` over a `(T, n)` grid: the ratio
//! must be bounded below by a constant (the lower bound) and vary only
//! polylogarithmically across the grid (the upper bound).

use crate::experiments::common::{
    broadcast_budget_sweep, broadcast_sweep_base, truncation_note, SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::table::{num, TableBuilder};
use rcb_core::one_to_n::OneToNParams;

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();
    let params = OneToNParams::practical();
    let budgets = [1u64 << 20, 1 << 22, 1 << 24];
    let ns = [8usize, 32, 128];
    let trials = scale.trials(10);

    let mut table = TableBuilder::new(vec!["", "n=8", "n=32", "n=128"]);
    let mut min_ratio = f64::INFINITY;
    let mut max_ratio: f64 = 0.0;
    let mut sweep_cells = Vec::new();
    for &budget in &budgets {
        let mut row = vec![format!("T≈{budget}")];
        for &n in &ns {
            let pts = broadcast_budget_sweep(
                &broadcast_sweep_base(n, 1.0, trials, scale.seed ^ 0xE7),
                &[budget],
                ctl,
            )?;
            let p = &pts[0];
            let floor = (p.mean_t.max(1.0) / n as f64).sqrt();
            let ratio = p.mean_cost.mean / floor;
            min_ratio = min_ratio.min(ratio);
            max_ratio = max_ratio.max(ratio);
            row.push(num(ratio));
            sweep_cells.extend(pts);
        }
        table.row(row);
    }
    out.push_str(&format!(
        "cells: mean per-node cost / √(T/n); trials/cell = {trials}\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(&format!(
        "\nratio range: [{}, {}] — bounded below (Theorem 4 floor) and within \
         a polylog band above it (Theorem 3 ceiling); spread = {:.1}×\n",
        num(min_ratio),
        num(max_ratio),
        max_ratio / min_ratio.max(1e-9)
    ));
    out.push_str(&truncation_note(&sweep_cells));

    // The proof's actual construction: fold the n receivers into one
    // simulated "Bob" (paired slots) and check that the Theorem 2 product
    // bound — the engine of Theorem 4 — holds through the reduction.
    let trials_r = scale.trials(8);
    let mut table_r = TableBuilder::new(vec![
        "n",
        "T (real)",
        "E[A′ alice]",
        "E[A′ bob]",
        "product/(2T)",
        "g(T)/√(T/n)",
    ]);
    for &n in &ns {
        let r = rcb_sim::reduction::simulate_reduction(
            &params,
            n,
            1 << 21,
            trials_r,
            scale.seed ^ 0x7E7,
        );
        table_r.row(vec![
            n.to_string(),
            num(r.mean_t),
            num(r.alice_cost),
            num(r.bob_cost),
            num(r.product_over_t),
            num(r.fairness_ratio),
        ]);
    }
    out.push_str(&format!(
        "\nTheorem 4 reduction (Bob simulates all receivers; {trials_r} trials/row):\n\n"
    ));
    out.push_str(&table_r.markdown());
    out.push_str(
        "\nthe product column must clear the Theorem 2 constant floor — that \
         is exactly the step that makes Theorem 4 a corollary of Theorem 2.\n",
    );
    Ok(out)
}
