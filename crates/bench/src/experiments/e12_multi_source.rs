//! E12 (extension) — multi-source broadcast.
//!
//! Figure 2's analysis tracks an informed set `A` of any initial size
//! (Lemma 9), so the algorithm natively supports multiple sources. The
//! expectation: extra sources shorten the *dissemination* prefix (fewer
//! epochs until everyone is informed) but leave the termination machinery
//! — and hence the `√(T/n)` cost shape — untouched. Under heavy jamming
//! the advantage disappears entirely: the adversary's budget, not the
//! seeding, dictates the timeline.

use crate::experiments::common::split_truncated;
use crate::scale::Scale;
use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_analysis::table::{num, TableBuilder};
use rcb_core::one_to_n::OneToNNode;
use rcb_core::one_to_n::OneToNParams;
use rcb_mathkit::stats::RunningStats;
use rcb_sim::deadline::Deadline;
use rcb_sim::fast::{run_broadcast, BroadcastObserver, FastConfig};
use rcb_sim::faults::FaultPlan;
use rcb_sim::runner::{run_trials, Parallelism};

/// Records the global repetition index at which dissemination completed.
#[derive(Default)]
struct DisseminationProbe {
    complete_at: Option<u64>,
}

impl BroadcastObserver for DisseminationProbe {
    fn on_repetition(&mut self, _epoch: u32, period: u64, _jam: u64, nodes: &[OneToNNode]) {
        if self.complete_at.is_none() && nodes.iter().all(|v| v.ever_informed()) {
            self.complete_at = Some(period);
        }
    }
}

fn sweep(
    params: &OneToNParams,
    n: usize,
    sources: usize,
    budget: u64,
    trials: u64,
    seed: u64,
) -> (f64, f64, f64, f64, u64) {
    let source_ids: Vec<usize> = (0..sources).map(|k| k * n / sources).collect();
    let results = run_trials(trials, seed, Parallelism::Auto, move |_, rng| {
        let mut adv: Box<dyn RepetitionAdversary> = if budget == 0 {
            Box::new(NoJamRep)
        } else {
            Box::new(BudgetedRepBlocker::new(budget, 1.0))
        };
        let mut probe = DisseminationProbe::default();
        let (o, err) = run_broadcast(
            params,
            n,
            &source_ids,
            adv.as_mut(),
            rng,
            FastConfig::default(),
            &mut probe,
            &FaultPlan::none(),
            &Deadline::NONE,
        );
        ((o, probe.complete_at), err)
    });
    let (outcomes, truncated) = split_truncated(results);
    assert!(
        !outcomes.is_empty(),
        "sources {sources}, budget {budget}: every trial truncated"
    );
    let mut cost = RunningStats::new();
    let mut complete = RunningStats::new();
    let mut informed = 0u64;
    for (o, complete_at) in &outcomes {
        cost.push(o.mean_cost());
        if let Some(rep) = complete_at {
            complete.push(*rep as f64);
        }
        informed += o.all_informed as u64;
    }
    (
        cost.mean(),
        complete.mean(),
        complete.max(),
        informed as f64 / outcomes.len() as f64,
        truncated,
    )
}

pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    let params = OneToNParams::practical();
    let n = 64;
    let trials = scale.trials(10);

    let mut table = TableBuilder::new(vec![
        "sources",
        "T=0: E[cost]",
        "informed-by rep (mean)",
        "(max)",
        "informed",
        "T=2^20: informed-by rep",
    ]);
    let mut truncated_total = 0u64;
    for sources in [1usize, 2, 4, 8, 16] {
        let (c0, rep0, repmax0, i0, t0) = sweep(&params, n, sources, 0, trials, scale.seed ^ 0xE12);
        let (_c1, rep1, _m1, _i1, t1) =
            sweep(&params, n, sources, 1 << 20, trials, scale.seed ^ 0x1E12);
        truncated_total += t0 + t1;
        table.row(vec![
            sources.to_string(),
            num(c0),
            num(rep0),
            num(repmax0),
            format!("{i0:.2}"),
            num(rep1),
        ]);
    }
    out.push_str(&format!("n = {n}, trials/cell = {trials}\n\n"));
    out.push_str(&table.markdown());
    out.push_str(
        "\nexpected shape: more sources complete dissemination in earlier \
         repetitions (the informed set starts larger, so Lemma 9's cascade \
         needs fewer good repetitions), while the *cost* column barely moves \
         — termination is governed by the S_u machinery, not by who was \
         seeded. Under a 2^20 blanket budget dissemination is pushed to \
         whenever the budget runs out, shifting every row by the same \
         adversary-dictated amount.\n",
    );
    out.push_str(&format!("\ntruncated trials: {truncated_total}\n"));
    out
}
