//! Calibration harness for `OneToNParams::practical()`.
//!
//! Runs unjammed and jammed broadcasts over a range of `n`, printing the
//! quantities that decide whether the practical constants are sound and
//! tractable: termination epoch vs the ideal epoch, the spread of the
//! per-node population estimates `n_u` (which controls the termination
//! threshold and hence cost), final `S_u` values, per-node cost, and wall
//! time. Used to pick the shipped constants; re-run after any change to
//! the practical preset.

use rcb_adversary::rep_strategies::{BudgetedRepBlocker, NoJamRep};
use rcb_adversary::traits::RepetitionAdversary;
use rcb_core::one_to_n::{OneToNNode, OneToNParams};
use rcb_mathkit::rng::RcbRng;
use rcb_sim::deadline::Deadline;
use rcb_sim::fast::{run_broadcast, BroadcastObserver, FastConfig};
use rcb_sim::faults::FaultPlan;
use std::time::Instant;

#[derive(Default)]
struct Probe {
    n_est_min: f64,
    n_est_max: f64,
    s_max: f64,
    reps_seen: u64,
}

impl Probe {
    fn new() -> Self {
        Self {
            n_est_min: f64::INFINITY,
            n_est_max: 0.0,
            s_max: 0.0,
            reps_seen: 0,
        }
    }
}

impl BroadcastObserver for Probe {
    fn on_repetition(&mut self, _epoch: u32, _period: u64, _jam: u64, nodes: &[OneToNNode]) {
        self.reps_seen += 1;
        for v in nodes {
            if let Some(e) = v.n_estimate() {
                self.n_est_min = self.n_est_min.min(e);
                self.n_est_max = self.n_est_max.max(e);
            }
            if !v.is_terminated() {
                self.s_max = self.s_max.max(v.s());
            }
        }
    }
}

fn one(params: &OneToNParams, n: usize, budget: u64, seed: u64) {
    let mut probe = Probe::new();
    let mut rng = RcbRng::new(seed);
    let mut adversary: Box<dyn RepetitionAdversary> = if budget == 0 {
        Box::new(NoJamRep)
    } else {
        Box::new(BudgetedRepBlocker::new(budget, 1.0))
    };
    let t0 = Instant::now();
    let (out, err) = run_broadcast(
        params,
        n,
        &[0],
        adversary.as_mut(),
        &mut rng,
        FastConfig { max_epoch: 26 },
        &mut probe,
        &FaultPlan::none(),
        &Deadline::NONE,
    );
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "n={n:>4} T={:>8} | epoch {:>2} (ideal {:>2}) | informed {:>4}/{n:<4} safety {:>3} | \
         mean cost {:>9.1} max {:>9} | n_u [{:>7.1}, {:>9.1}] | S_max {:>8.1} | {:>6.2}s{}",
        out.adversary_cost,
        out.last_epoch,
        params.ideal_epoch(n),
        out.informed,
        out.safety_terminations,
        out.mean_cost(),
        out.max_cost(),
        probe.n_est_min,
        probe.n_est_max,
        probe.s_max,
        dt,
        match err {
            Some(e) => format!("  TRUNCATED ({e})"),
            None => String::new(),
        },
    );
}

fn main() {
    let params = OneToNParams::practical();
    println!("practical params: {params:?}\n");
    println!("--- unjammed ---");
    for n in [1usize, 4, 16, 64, 128] {
        one(&params, n, 0, 42 + n as u64);
    }
    println!("--- jammed (budget 2^15) ---");
    for n in [16usize, 64] {
        one(&params, n, 1 << 15, 99 + n as u64);
    }
    println!("--- jammed (budget 2^17) ---");
    for n in [16usize, 64] {
        one(&params, n, 1 << 17, 7 + n as u64);
    }
}
