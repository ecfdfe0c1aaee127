//! E11 — robustness ablation: how much pain does each jamming *style* buy
//! per unit of adversary budget?
//!
//! The Theorem 1 analysis contains two different blocking thresholds, and
//! this experiment exposes both empirically:
//!
//! * to stop *delivery* the adversary must jam a constant fraction ≈ 1/2
//!   of a phase — expensive;
//! * to stop *halting* (keep the parties burning energy) it only needs the
//!   listener's noise count to clear `Θᵢ`, which takes roughly a 1/8
//!   fraction with our constants (the paper's proof uses (1/16)-blocking).
//!
//! So the budget-optimal attack is NOT full blocking: jamming just above
//! the noise threshold keeps the protocol alive for ~4–8× more epochs per
//! unit of energy, extracting correspondingly more good-node cost. Below
//! the threshold the attack collapses entirely — the parties hear a quiet
//! phase, finish, and go home. The q-sweep shows the cliff. The same
//! dilution effect appears for 1-to-n: a q ≥ 1/2 block freezes `S_u`
//! growth outright, but a 1/4 block merely *halves* the growth rate —
//! which often delays termination by whole epochs at a quarter of the
//! price.
//!
//! Lemma 1 (suffix jamming is WLOG) still holds: all strategies here are
//! suffix-shaped except the diffuse random jammer, which behaves like its
//! equal-fraction suffix cousin on average.

use crate::experiments::common::{
    broadcast_results, duel_results, run_sweep_specs, summarize_broadcasts, summarize_duels,
    SweepControl,
};
use crate::experiments::Report;
use crate::scale::Scale;
use rcb_analysis::table::{num, TableBuilder};
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{AdversarySpec, DuelProtocol, ScenarioSpec};

/// The ablation's row label for a jamming strategy.
fn label(strategy: &AdversarySpec) -> String {
    match *strategy {
        AdversarySpec::Budgeted { fraction, .. } => format!("suffix q={fraction}"),
        AdversarySpec::Random { rate, .. } => format!("random {:.0}%", rate * 100.0),
        // Jam only nack phases (where halting decisions are made).
        AdversarySpec::KeepAlive { fraction, .. } => format!("keep-alive q={fraction}"),
        AdversarySpec::NoJam => "no jamming".to_string(),
    }
}

pub fn run(scale: &Scale, ctl: &SweepControl) -> Result<Report, String> {
    let mut out = Report::default();
    let budget = 1u64 << 19;
    let duel_trials = scale.trials(80);
    let bc_trials = scale.trials(8);
    let n = 32;

    let suffix = |fraction| AdversarySpec::Budgeted { budget, fraction };
    let strategies = [
        suffix(1.0),
        suffix(0.55),
        suffix(0.25),
        suffix(0.125),
        suffix(0.0625),
        AdversarySpec::Random { budget, rate: 0.5 },
        AdversarySpec::KeepAlive {
            budget,
            fraction: 0.25,
        },
    ];
    // Each strategy is a 1-to-1 cell followed by a 1-to-n cell.
    let specs: Vec<ScenarioSpec> = strategies
        .iter()
        .flat_map(|&adversary| {
            [
                ScenarioSpec::duel(DuelProtocol::fig1(0.01, 8))
                    .with_adversary(adversary)
                    .with_trials(duel_trials)
                    .with_seed(scale.seed ^ 0xA11),
                ScenarioSpec::broadcast(n)
                    .with_adversary(adversary)
                    .with_trials(bc_trials)
                    .with_seed(scale.seed ^ 0xB11),
            ]
        })
        .collect();
    let mut batches = run_sweep_specs(&specs, Parallelism::Auto, ctl)?.into_iter();

    let mut table = TableBuilder::new(vec![
        "strategy",
        "1-to-1 E[max cost]",
        "1-to-1 success",
        "1-to-n E[mean cost]",
        "1-to-n informed",
    ]);
    let mut truncated_total = 0u64;
    for strategy in &strategies {
        let (outcomes, truncated) = duel_results(batches.next().expect("a duel cell"));
        let duel = summarize_duels(budget, outcomes, truncated);
        let (outcomes, truncated) = broadcast_results(batches.next().expect("a broadcast cell"));
        let bc = summarize_broadcasts(budget, n, outcomes, truncated);
        truncated_total += duel.truncated + bc.truncated;
        table.row(vec![
            label(strategy),
            num(duel.cost.mean),
            format!("{:.2}", duel.success_rate),
            num(bc.mean_cost.mean),
            format!("{:.2}", bc.all_informed_rate),
        ]);
    }
    out.push_str(&format!(
        "budget = {budget} per strategy; duel trials = {duel_trials}, \
         broadcast trials = {bc_trials}, n = {n}\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(
        "\nexpected shape: good-node cost per unit budget *rises* as q falls \
         toward the noise-threshold fraction, because threshold-level \
         jamming keeps the protocol alive for more epochs per jammed slot; \
         just below the threshold the attack collapses outright (quiet \
         phases let the parties finish). With our constants Θᵢ corresponds \
         to a 1/8 jam fraction in expectation, so q = 0.25 still trips it \
         w.h.p. while q = 0.125 — sitting exactly at the expectation — no \
         longer does: the cliff lands between those rows, mirroring the \
         (1/16)-blocking constant in the Theorem 1 proof. Correctness \
         (success / informed columns) is never affected — only cost.\n",
    );
    out.push_str(&format!("\ntruncated trials: {truncated_total}\n"));
    Ok(out)
}
