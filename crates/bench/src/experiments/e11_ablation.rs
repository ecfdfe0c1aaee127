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

use crate::experiments::common::split_truncated;
use crate::scale::Scale;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, KeepAliveBlocker, RandomRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_analysis::table::{num, TableBuilder};
use rcb_core::one_to_n::OneToNParams;
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_mathkit::stats::RunningStats;
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{run_duel, DuelConfig};
use rcb_sim::fast::{run_broadcast, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::{run_trials, Parallelism};

#[derive(Clone, Copy)]
enum Strategy {
    Suffix(f64),
    Random(f64),
    /// Jam only nack phases (where halting decisions are made).
    KeepAlive(f64),
}

impl Strategy {
    fn label(&self) -> String {
        match self {
            Strategy::Suffix(q) => format!("suffix q={q}"),
            Strategy::Random(r) => format!("random {:.0}%", r * 100.0),
            Strategy::KeepAlive(q) => format!("keep-alive q={q}"),
        }
    }

    fn build(&self, budget: u64, seed: u64) -> Box<dyn RepetitionAdversary> {
        match self {
            Strategy::Suffix(q) => Box::new(BudgetedRepBlocker::new(budget, *q)),
            Strategy::Random(r) => Box::new(RandomRep::new(*r, budget, seed)),
            Strategy::KeepAlive(q) => Box::new(KeepAliveBlocker::new(budget, *q)),
        }
    }
}

pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    let budget = 1u64 << 19;
    let duel_trials = scale.trials(80);
    let bc_trials = scale.trials(8);
    let profile = Fig1Profile::with_start_epoch(0.01, 8);
    let params = OneToNParams::practical();
    let n = 32;

    let strategies = [
        Strategy::Suffix(1.0),
        Strategy::Suffix(0.55),
        Strategy::Suffix(0.25),
        Strategy::Suffix(0.125),
        Strategy::Suffix(0.0625),
        Strategy::Random(0.5),
        Strategy::KeepAlive(0.25),
    ];

    let mut table = TableBuilder::new(vec![
        "strategy",
        "1-to-1 E[max cost]",
        "1-to-1 success",
        "1-to-n E[mean cost]",
        "1-to-n informed",
    ]);
    let mut truncated_total = 0u64;
    for strategy in strategies {
        // 1-to-1.
        let duel_results = run_trials(duel_trials, scale.seed ^ 0xA11, Parallelism::Auto, {
            move |i, rng| {
                let mut adv = strategy.build(budget, i ^ 0xE11);
                run_duel(
                    &profile,
                    adv.as_mut(),
                    rng,
                    DuelConfig::default(),
                    &FaultPlan::none(),
                    &Deadline::NONE,
                )
            }
        });
        let (duel_outcomes, duel_trunc) = split_truncated(duel_results);
        assert!(
            !duel_outcomes.is_empty(),
            "{}: every duel trial truncated",
            strategy.label()
        );
        let mut duel_cost = RunningStats::new();
        let mut delivered = 0usize;
        for o in &duel_outcomes {
            duel_cost.push(o.max_cost() as f64);
            delivered += o.delivered as usize;
        }

        // 1-to-n.
        let bc_results = run_trials(bc_trials, scale.seed ^ 0xB11, Parallelism::Auto, {
            move |i, rng| {
                let mut adv = strategy.build(budget, i ^ 0xB11);
                run_broadcast(
                    &params,
                    n,
                    &[0],
                    adv.as_mut(),
                    rng,
                    FastConfig::default(),
                    &mut (),
                    &FaultPlan::none(),
                    &Deadline::NONE,
                )
            }
        });
        let (bc_outcomes, bc_trunc) = split_truncated(bc_results);
        assert!(
            !bc_outcomes.is_empty(),
            "{}: every broadcast trial truncated",
            strategy.label()
        );
        truncated_total += duel_trunc + bc_trunc;
        let mut bc_cost = RunningStats::new();
        let mut informed = 0usize;
        for o in &bc_outcomes {
            bc_cost.push(o.mean_cost());
            informed += o.all_informed as usize;
        }

        table.row(vec![
            strategy.label(),
            num(duel_cost.mean()),
            format!("{:.2}", delivered as f64 / duel_outcomes.len() as f64),
            num(bc_cost.mean()),
            format!("{:.2}", informed as f64 / bc_outcomes.len() as f64),
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
    out
}
