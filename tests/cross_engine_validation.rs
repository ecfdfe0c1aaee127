//! Cross-engine validation: the fast engines must agree with the exact
//! slot-level engine *in distribution*.
//!
//! The engines consume randomness differently, so trajectories cannot be
//! compared run-for-run. These tests drive the reusable conformance
//! harness (`rcb_sim::conformance`): paired trial batches on both engines
//! with Mann–Whitney and Kolmogorov–Smirnov verdicts per metric, at a
//! significance level where a rejection is a 1-in-1000 fluke under the
//! null. Crucially both engines run the **same** adversary policy — the
//! exact engine through `RepAsSlotAdversary` — which is what the ad-hoc
//! predecessor of these tests got wrong (it compared a 2-units-per-slot
//! slot blocker against a 1-unit-per-slot repetition blocker and papered
//! over the gap with a 15% mean tolerance).

use rcb::prelude::*;
use rcb_sim::conformance::CellReport;

const TRIALS: u64 = 60;
const ALPHA: f64 = 1e-3;

fn cfg(seed: u64) -> ConformanceConfig {
    ConformanceConfig {
        trials: TRIALS,
        seed,
        alpha: ALPHA,
        parallelism: Parallelism::Auto,
    }
}

/// Runs one cell through the grid runner and returns its report.
fn run_cell(cell: Cell, cfg: &ConformanceConfig) -> CellReport {
    run_grid(&[cell], cfg).cells.remove(0)
}

fn assert_conformant(report: &CellReport) {
    assert!(
        !report.diverges(ALPHA),
        "engine divergence in cell `{}` (worst p = {}):\n{:#?}",
        report.name,
        report.worst_p(),
        report.metrics
    );
}

#[test]
fn duel_engines_agree_without_jamming() {
    let cell = Cell::duel(0.05, 6, AdversarySpec::NoJam);
    assert_conformant(&run_cell(cell, &cfg(10)));
}

#[test]
fn duel_engines_agree_under_blanket_jamming() {
    let cell = Cell::duel(
        0.05,
        6,
        AdversarySpec::Budgeted {
            budget: 512,
            fraction: 1.0,
        },
    );
    assert_conformant(&run_cell(cell, &cfg(30)));
}

/// Larger budgets stress the multi-epoch escalation path: the adversary
/// blocks several full epochs before running dry, so any drift in epoch
/// bookkeeping (thresholds, phase lengths, budget spend) shows up here.
#[test]
fn duel_engines_agree_under_heavy_jamming() {
    let cell = Cell::duel(
        0.05,
        6,
        AdversarySpec::Budgeted {
            budget: 2048,
            fraction: 1.0,
        },
    );
    assert_conformant(&run_cell(cell, &cfg(50)));
}

/// Distribution-shape check beyond the cost metrics: the KS verdict inside
/// the harness compares full empirical CDFs, and the keep-alive adversary
/// produces the most structured (bimodal) cost distributions.
#[test]
fn duel_engines_agree_in_distribution() {
    let cell = Cell::duel(
        0.05,
        6,
        AdversarySpec::KeepAlive {
            budget: 1024,
            fraction: 1.0,
        },
    );
    let report = run_cell(cell, &cfg(70));
    assert_conformant(&report);
    // The harness must actually have tested the cost distributions.
    assert!(report.metrics.iter().any(|m| m.metric == "max_cost"));
}

/// 1-to-n: exact engine at slot level vs the fast repetition engine.
#[test]
fn broadcast_engines_agree_on_small_network() {
    // first_epoch 4 keeps the exact engine's slot count tame.
    let cell = Cell::broadcast(5, 4, AdversarySpec::NoJam);
    let c = ConformanceConfig {
        trials: 25,
        ..cfg(1000)
    };
    assert_conformant(&run_cell(cell, &c));
}

/// Jammed 1-to-n: the adapter targets the single uniform group at one
/// budget unit per slot, exactly the fast engine's accounting.
#[test]
fn broadcast_engines_agree_under_jamming() {
    let cell = Cell::broadcast(
        5,
        4,
        AdversarySpec::Budgeted {
            budget: 256,
            fraction: 1.0,
        },
    );
    let c = ConformanceConfig {
        trials: 25,
        ..cfg(2000)
    };
    assert_conformant(&run_cell(cell, &c));
}

/// Fault injection under jamming: the two engines toss the loss coin at
/// different points (on each resolved reception vs. on each sampled
/// message event), so a lossy cell guards that both toss it on the same
/// receptions.
#[test]
fn duel_engines_agree_under_loss_and_jamming() {
    let cell = Cell::duel(
        0.05,
        6,
        AdversarySpec::Budgeted {
            budget: 512,
            fraction: 1.0,
        },
    )
    .with_fault(FaultPlan::none().with_loss(0.15));
    assert_conformant(&run_cell(cell, &cfg(90)));
}

/// Crash–restart in 1-to-n: the window is period-aligned in both engines
/// and the reboot wipes volatile state; any off-by-one in period
/// accounting between the engines diverges here.
#[test]
fn broadcast_engines_agree_under_crash_restart() {
    let cell = Cell::broadcast(5, 4, AdversarySpec::NoJam)
        .with_fault(FaultPlan::none().with_crash(1, 2, 6, true));
    let c = ConformanceConfig {
        trials: 25,
        ..cfg(3000)
    };
    assert_conformant(&run_cell(cell, &c));
}
