//! E8 — Theorem 5: against a spoof-capable adversary the best achievable
//! 1-to-1 exponent is `φ − 1 ≈ 0.618`.
//!
//! For each split δ the adversary plays the better of jam-Bob (exponent δ)
//! and impersonate-Bob (exponent `(1−δ)/δ`). The measured worst-case
//! exponent column must be minimized at δ = φ−1, matching both the lower
//! bound and the KSY upper bound the paper cites.

use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::table::{num, TableBuilder};
use rcb_mathkit::rng::SeedSequence;
use rcb_mathkit::PHI_MINUS_ONE;
use rcb_sim::lowerbound::golden_ratio_game;

pub fn run(scale: &Scale) -> Report {
    let mut out = Report::default();
    let budget = 1u64 << 14;
    let trials = scale.trials(300);
    let seeds = SeedSequence::new(scale.seed ^ 0xE8);
    let deltas = [0.40, 0.45, 0.50, 0.55, PHI_MINUS_ONE, 0.65, 0.70, 0.80];

    let mut table = TableBuilder::new(vec![
        "δ",
        "exp (jam)",
        "exp (spoof)",
        "worst",
        "predicted",
        "adversary picks",
    ]);
    let mut best = (f64::INFINITY, 0.0);
    for (i, &delta) in deltas.iter().enumerate() {
        let mut rng = seeds.rng(i as u64);
        let row = golden_ratio_game(budget, delta, trials, &mut rng);
        if row.worst_exponent < best.0 {
            best = (row.worst_exponent, delta);
        }
        table.row(vec![
            format!("{delta:.3}"),
            num(row.exponent_jam),
            num(row.exponent_spoof),
            num(row.worst_exponent),
            num(row.predicted),
            format!("{:?}", row.picked),
        ]);
    }
    out.push_str(&format!("T̃ = {budget}, trials/row = {trials}\n\n"));
    out.push_str(&table.markdown());
    out.push_str(&format!(
        "\nbest split: δ = {:.3} with worst exponent {:.3}; theory: δ = φ−1 = {:.3} \
         with exponent φ−1 ≈ 0.618 (matches the KSY upper bound)\n",
        best.1, best.0, PHI_MINUS_ONE
    ));
    out
}
