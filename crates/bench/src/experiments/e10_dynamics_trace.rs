//! E10 — §3.1 mechanism claims, observed on instrumented runs:
//!
//! * **Lemma 5**: `S_u/S_w ≤ 2` between any two live nodes throughout an
//!   epoch (the slow `2^(1/2i)` growth keeps rates synchronized);
//! * **Lemma 6**: helpers and uninformed nodes never coexist;
//! * **Lemma 8 (contrapositive)**: a ½-blocked repetition does not grow
//!   `S_V` — the adversary can freeze the rates, but only by paying for
//!   half of every repetition.

use crate::scale::Scale;
use rcb_adversary::rep_strategies::{NoJamRep, SuffixFractionRep};
use rcb_analysis::table::{num, TableBuilder};
use rcb_core::one_to_n::node::Status;
use rcb_core::one_to_n::{OneToNNode, OneToNParams};
use rcb_mathkit::rng::RcbRng;
use rcb_sim::deadline::Deadline;
use rcb_sim::fast::{run_broadcast, BroadcastObserver, FastConfig};
use rcb_sim::faults::FaultPlan;

/// (epoch, rep, S_min, S_max, uninformed, informed, helpers, terminated).
type DynamicsRow = (u32, u64, f64, f64, usize, usize, usize, usize);

/// Records per-repetition aggregates and checks the lemma properties.
#[derive(Debug, Default)]
struct DynamicsProbe {
    rows: Vec<DynamicsRow>,
    max_divergence: f64,
    helper_uninformed_overlap: u64,
    s_v_by_rep: Vec<f64>,
}

impl BroadcastObserver for DynamicsProbe {
    fn on_repetition(&mut self, epoch: u32, period: u64, _jammed: u64, nodes: &[OneToNNode]) {
        let live: Vec<&OneToNNode> = nodes.iter().filter(|v| !v.is_terminated()).collect();
        let (mut s_min, mut s_max) = (f64::INFINITY, 0.0f64);
        let mut counts = [0usize; 4];
        for v in nodes {
            match v.status() {
                Status::Uninformed => counts[0] += 1,
                Status::Informed => counts[1] += 1,
                Status::Helper => counts[2] += 1,
                Status::Terminated => counts[3] += 1,
            }
        }
        let mut s_v = 0.0;
        for v in &live {
            s_min = s_min.min(v.s());
            s_max = s_max.max(v.s());
            s_v += v.s() / (1u64 << epoch) as f64;
        }
        if !live.is_empty() {
            self.max_divergence = self.max_divergence.max(s_max / s_min);
        }
        if counts[2] > 0 && counts[0] > 0 {
            self.helper_uninformed_overlap += 1;
        }
        self.s_v_by_rep.push(s_v);
        self.rows.push((
            epoch,
            period,
            if live.is_empty() { 0.0 } else { s_min },
            s_max,
            counts[0],
            counts[1],
            counts[2],
            counts[3],
        ));
    }
}

pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    let params = OneToNParams::practical();
    let n = 64;

    // Clean run: divergence and helper-wave structure.
    let mut probe = DynamicsProbe::default();
    let mut rng = RcbRng::new(scale.seed ^ 0xE10);
    let mut adv = NoJamRep;
    let (outcome, err) = run_broadcast(
        &params,
        n,
        &[0],
        &mut adv,
        &mut rng,
        FastConfig::default(),
        &mut probe,
        &FaultPlan::none(),
        &Deadline::NONE,
    );
    if let Some(e) = err {
        panic!("unjammed instrumented run must terminate before the epoch cap: {e}");
    }

    let mut table = TableBuilder::new(vec![
        "epoch", "rep", "S min", "S max", "uninf", "inf", "helper", "term",
    ]);
    let stride = (probe.rows.len() / 12).max(1);
    for row in probe.rows.iter().step_by(stride) {
        table.row(vec![
            row.0.to_string(),
            row.1.to_string(),
            num(row.2),
            num(row.3),
            row.4.to_string(),
            row.5.to_string(),
            row.6.to_string(),
            row.7.to_string(),
        ]);
    }
    out.push_str(&format!(
        "n = {n}, unjammed (every {stride}-th repetition shown)\n\n"
    ));
    out.push_str(&table.markdown());
    out.push_str(&format!(
        "\nLemma 5 check — max S_u/S_w among live nodes: {:.3} (theory bound: 2)\n",
        probe.max_divergence
    ));
    out.push_str(&format!(
        "Lemma 6 check — repetitions with helper+uninformed coexistence: {} / {}\n",
        probe.helper_uninformed_overlap,
        probe.rows.len()
    ));
    out.push_str(&format!(
        "outcome: informed {}/{}, terminated at epoch {}\n",
        outcome.informed, outcome.n, outcome.last_epoch
    ));

    // Half-blocked run: S_V must stay frozen (Lemma 8 contrapositive).
    let mut probe2 = DynamicsProbe::default();
    let mut rng2 = RcbRng::new(scale.seed ^ 0x1E10);
    let mut adv2 = SuffixFractionRep::new(0.55);
    let first_epoch_reps = params.reps(params.first_epoch) as usize;
    // This run is *expected* to hit the epoch cap — the probe only needs
    // the first epoch — so the typed truncation error is acknowledged
    // explicitly instead of being swallowed.
    let capped = run_broadcast(
        &params,
        n,
        &[0],
        &mut adv2,
        &mut rng2,
        FastConfig {
            max_epoch: params.first_epoch + 1,
        },
        &mut probe2,
        &FaultPlan::none(),
        &Deadline::NONE,
    )
    .1
    .is_some();
    let start_sv = probe2.s_v_by_rep.first().copied().unwrap_or(0.0);
    let end_first_epoch = probe2
        .s_v_by_rep
        .get(first_epoch_reps.saturating_sub(1))
        .copied()
        .unwrap_or(start_sv);
    out.push_str(&format!(
        "\nLemma 8 check — under 0.55-blocking, S_V over the first epoch moved \
         from {} to {} (growth {:.3}×; unjammed runs multiply it by ≫ 2)\n",
        num(start_sv),
        num(end_first_epoch),
        end_first_epoch / start_sv.max(1e-9)
    ));
    out.push_str(&format!(
        "(blocked run deliberately capped at epoch {}; truncated = {capped})\n",
        params.first_epoch + 1
    ));
    out
}
