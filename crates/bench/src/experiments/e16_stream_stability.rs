//! E16 (extension) — streaming stability boundary: arrival rate × jammer
//! allocation policy.
//!
//! The streaming workload (`Workload::Stream`) turns broadcast into a
//! FIFO single-server queue: messages arrive by a Poisson process, each is
//! served by re-arming one `BroadcastSession` and running it to
//! completion. Classical queueing says the system is stable iff
//! ρ = λ·E\[service\] < 1; past that the queue grows with the horizon and
//! latency diverges. The jammer bends this picture, and *how* it bends it
//! depends on the allocation policy:
//!
//! - **persistent** — one budget `T` spans the whole stream. The jammer
//!   front-loads damage, drains, and every later message is served at the
//!   clean-channel rate. Resource-competitiveness in queueing terms: a
//!   finite budget can delay, but cannot destabilize, an otherwise-stable
//!   arrival rate.
//! - **refill T/msg** — `adversary.rearm()` before every message restores
//!   the budget, modelling an attacker whose budget regenerates faster
//!   than the queue drains. This inflates E\[service\] permanently, so the
//!   throughput cliff moves to a *lower* arrival rate.
//!
//! The cliff is located empirically by horizon doubling: in the stable
//! regime mean latency is horizon-independent, in the unstable regime it
//! scales with the horizon, so `latency(2H)/latency(H)` jumps past ~1.5
//! exactly where the queue stops draining.

use crate::scale::Scale;
use rcb_analysis::table::{num, TableBuilder};
use rcb_mathkit::stats::RunningStats;
use rcb_sim::scenario::{AdversarySpec, ArrivalSpec, ScenarioSpec, StreamAlloc};

const N: usize = 8;
/// Per-message jammer budget. Must dwarf the clean makespan (~40 k slots
/// at n = 8) — latency is Θ(T + clean), so a budget below the clean
/// makespan disappears into the schedule and the two policies coincide.
const BUDGET: u64 = 150_000;
/// Nominal offered loads ρ = λ·E[jammed service]. The grid deliberately
/// runs past the service-inflation factor so the persistent policy's
/// right-shifted cliff lands inside the sweep.
const RHOS: [f64; 8] = [0.4, 0.8, 1.2, 1.8, 2.7, 4.0, 6.0, 9.0];
/// Expected arrivals at the base horizon (doubled for the ratio probe).
const TARGET_ARRIVALS: f64 = 16.0;
/// Latency(2H)/latency(H) above this ⇒ the queue is not draining.
const CLIFF_RATIO: f64 = 1.5;

#[derive(Clone, Copy)]
struct Policy {
    label: &'static str,
    jammed: bool,
    alloc: StreamAlloc,
}

const POLICIES: [Policy; 3] = [
    Policy {
        label: "no-jam",
        jammed: false,
        alloc: StreamAlloc::Persistent,
    },
    Policy {
        label: "persistent T",
        jammed: true,
        alloc: StreamAlloc::Persistent,
    },
    Policy {
        label: "refill T/msg",
        jammed: true,
        alloc: StreamAlloc::PerMessage,
    },
];

struct CellResult {
    mean_arrivals: f64,
    mean_latency: f64,
    mean_p95: f64,
    mean_queue: f64,
    /// Delivered messages per million slots of makespan.
    throughput: f64,
    /// Messages cut off by engine caps, summed across trials. Anything
    /// nonzero means latencies are biased low in that cell.
    truncated_msgs: u64,
}

fn stream_cell(rate: f64, horizon: u64, policy: Policy, trials: u64, seed: u64) -> CellResult {
    let mut spec = ScenarioSpec::stream(N, ArrivalSpec::Poisson { rate }, horizon)
        .with_stream_alloc(policy.alloc)
        .with_trials(trials)
        .with_seed(seed);
    if policy.jammed {
        spec = spec.with_adversary(AdversarySpec::Budgeted {
            budget: BUDGET,
            fraction: 1.0,
        });
    }
    let mut arrivals = RunningStats::new();
    let mut latency = RunningStats::new();
    let mut p95 = RunningStats::new();
    let mut queue = RunningStats::new();
    let mut throughput = RunningStats::new();
    let mut truncated_msgs = 0u64;
    for (out, err) in spec.run_batch_raw() {
        assert!(err.is_none(), "{}: stream trial truncated", policy.label);
        let out = out.into_stream();
        truncated_msgs += out.truncated_msgs;
        if out.arrivals == 0 {
            continue;
        }
        arrivals.push(out.arrivals as f64);
        latency.push(out.mean_latency());
        p95.push(out.latency_p95 as f64);
        queue.push(out.mean_queue());
        throughput.push(out.throughput() * 1e6);
    }
    assert!(
        arrivals.count() > 0,
        "{}: every trial saw zero arrivals",
        policy.label
    );
    CellResult {
        mean_arrivals: arrivals.mean(),
        mean_latency: latency.mean(),
        mean_p95: p95.mean(),
        mean_queue: queue.mean(),
        throughput: throughput.mean(),
        truncated_msgs,
    }
}

/// Mean service time for a single message (a schedule with one arrival at
/// slot 0): the stream's makespan *is* the service time, with no queueing
/// in the way.
fn service_probe(jammed: bool, trials: u64, seed: u64) -> f64 {
    let mut spec = ScenarioSpec::stream(N, ArrivalSpec::Schedule { arrivals: vec![0] }, 1)
        .with_trials(trials)
        .with_seed(seed);
    if jammed {
        spec = spec.with_adversary(AdversarySpec::Budgeted {
            budget: BUDGET,
            fraction: 1.0,
        });
    }
    let mut service = RunningStats::new();
    for (out, err) in spec.run_batch_raw() {
        assert!(err.is_none(), "service probe truncated");
        let out = out.into_stream();
        assert_eq!(out.truncated_msgs, 0, "service probe hit an engine cap");
        service.push(out.latency_max as f64);
    }
    service.mean()
}

pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    let seed = scale.seed ^ 0xE16;
    let trials = scale.trials(3);

    // ---- Calibration: clean vs jammed per-message service time. ----
    let s_clean = service_probe(false, scale.trials(12), seed ^ 0x5E);
    let s_jam = service_probe(true, scale.trials(12), seed ^ 0x5F);
    out.push_str(&format!(
        "calibration (n = {N}, fast engine, blocker T = {BUDGET}): \
         E[service] clean = {}, jammed = {} slots \
         (inflation ×{:.2})\n\n",
        num(s_clean),
        num(s_jam),
        s_jam / s_clean
    ));

    // ---- Sweep: offered load × allocation policy, with horizon doubling. ----
    let mut table = TableBuilder::new(vec![
        "policy",
        "ρ (vs jammed)",
        "λ (/Mslot)",
        "E[arrivals]",
        "E[latency]",
        "E[p95]",
        "E[queue]",
        "tput (msg/Mslot)",
        "lat ×2H",
        "cut off",
    ]);
    let mut cliffs: Vec<(&'static str, Option<f64>)> = Vec::new();
    for (pi, policy) in POLICIES.iter().enumerate() {
        let mut cliff = None;
        for (ri, &rho) in RHOS.iter().enumerate() {
            let rate = rho / s_jam;
            let horizon = ((TARGET_ARRIVALS / rate).ceil() as u64).max(1);
            let cell_seed = seed ^ ((pi as u64) << 24) ^ ((ri as u64) << 8);
            let base = stream_cell(rate, horizon, *policy, trials, cell_seed);
            let doubled = stream_cell(rate, horizon * 2, *policy, trials, cell_seed ^ 0xD0);
            let ratio = if base.mean_latency > 0.0 {
                doubled.mean_latency / base.mean_latency
            } else {
                1.0
            };
            if cliff.is_none() && ratio > CLIFF_RATIO {
                cliff = Some(rho);
            }
            table.row(vec![
                policy.label.to_string(),
                format!("{rho:.1}"),
                format!("{:.1}", rate * 1e6),
                format!("{:.1}", base.mean_arrivals),
                num(base.mean_latency),
                num(base.mean_p95),
                format!("{:.2}", base.mean_queue),
                format!("{:.1}", base.throughput),
                format!("{ratio:.2}"),
                (base.truncated_msgs + doubled.truncated_msgs).to_string(),
            ]);
        }
        cliffs.push((policy.label, cliff));
    }
    out.push_str(&format!(
        "stability sweep (n = {N}, Poisson arrivals, trials/cell = {trials}; \
         `lat ×2H` = mean latency at horizon 2H over horizon H)\n\n"
    ));
    out.push_str(&table.markdown());

    out.push_str("\nthroughput cliff (first ρ with lat ×2H > 1.5):\n");
    for (label, cliff) in &cliffs {
        match cliff {
            Some(rho) => out.push_str(&format!("- {label}: ρ ≈ {rho:.1}\n")),
            None => out.push_str(&format!(
                "- {label}: none in sweep (stable through ρ = {:.1})\n",
                RHOS[RHOS.len() - 1]
            )),
        }
    }
    out.push_str(
        "\nexpected shape: the refill policy keeps E[service] at the jammed \
         calibration, so its cliff sits near ρ = 1 on this axis and its \
         throughput saturates at the jammed service rate; the persistent \
         policy's budget drains after the first messages, the effective \
         service time falls toward the clean rate, and its cliff shifts \
         right to ρ ≈ the service-inflation factor — a finite budget delays \
         the stream but cannot destabilize an arrival rate the clean \
         protocol can absorb. Persistent cells below the cliff show \
         lat ×2H < 1: the jammer's transient damage is amortized over a \
         longer horizon, the signature of a draining budget.\n",
    );
    out
}
