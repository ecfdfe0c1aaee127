//! One module per experiment. The experiment index lives in DESIGN.md §4;
//! paper-vs-measured results are recorded in EXPERIMENTS.md.

pub mod common;
pub mod e10_dynamics_trace;
pub mod e11_ablation;
pub mod e12_multi_source;
pub mod e13_learning_adversary;
pub mod e14_partition_jamming;
pub mod e15_fault_degradation;
pub mod e16_stream_stability;
pub mod e1_one_to_one_cost;
pub mod e2_epsilon;
pub mod e3_latency;
pub mod e4_lower_bound_product;
pub mod e5_one_to_n_cost;
pub mod e6_one_to_n_latency;
pub mod e7_fairness_gap;
pub mod e8_golden_ratio;
pub mod e9_baseline_comparison;

use crate::experiments::common::SweepControl;
use crate::scale::Scale;
use rcb_analysis::scaling::ScalingVerdict;

/// An experiment entry point. The [`SweepControl`] reaches every batch a
/// spec can name: the budget sweeps (E1–E3, E5–E7, E9), E7's reduction,
/// E11, E13's static arms, E15 and E16. Those batches fail on a deadline
/// cut or a quarantined trial. E4, E8, E10, E12 and E14 run what no spec
/// can name, drive their engines directly and ignore it; so do E9's
/// combined device and E13's bandit.
pub type Runner = fn(&Scale, &SweepControl) -> Result<Report, String>;

/// One pass/fail check an experiment printed, named after what it judged.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub name: String,
    pub ok: bool,
}

/// An experiment's printed report plus every verdict printed in it, so a
/// caller can gate on the verdicts without parsing the text.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub text: String,
    pub verdicts: Vec<Verdict>,
}

impl Report {
    pub fn push_str(&mut self, s: &str) {
        self.text.push_str(s);
    }

    pub fn push(&mut self, c: char) {
        self.text.push(c);
    }

    /// Appends `line` to the text and records it as the verdict `name`.
    pub fn check(&mut self, name: String, ok: bool, line: &str) {
        self.text.push_str(line);
        self.verdicts.push(Verdict { name, ok });
    }

    /// Appends a scaling verdict's summary line with `tag` added (e.g.
    /// `" [raw]"`) and records it under the series name plus tag.
    pub fn scaling(&mut self, v: &ScalingVerdict, tag: &str) {
        self.check(
            format!("{}{tag}", v.series),
            v.within_tolerance,
            &format!("{}{tag}\n", v.summary()),
        );
    }

    /// Appends `report` under a `## ID: title` header; each of its verdict
    /// names gains the prefix `ID: `.
    pub fn append(&mut self, id: &str, title: &str, report: Report) {
        self.push_str(&format!("\n## {id}: {title}\n\n{}\n", report.text));
        self.verdicts
            .extend(report.verdicts.into_iter().map(|v| Verdict {
                name: format!("{id}: {}", v.name),
                ..v
            }));
    }

    /// The verdicts that failed, in print order.
    pub fn failures(&self) -> impl Iterator<Item = &Verdict> {
        self.verdicts.iter().filter(|v| !v.ok)
    }
}

/// Every experiment, in index order, as `(id, title, runner)`.
pub fn all() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "E1",
            "Theorem 1 — 1-to-1 cost scales as √T",
            e1_one_to_one_cost::run,
        ),
        ("E2", "Theorem 1 — ε-dependence of cost", e2_epsilon::run),
        ("E3", "Theorem 1 — latency is Θ(T)", e3_latency::run),
        (
            "E4",
            "Theorem 2 — E(A)·E(B) ≥ (1−O(ε))·T",
            |scale, _| Ok(e4_lower_bound_product::run(scale)),
        ),
        (
            "E5",
            "Theorem 3 — per-node cost √(T/n)·polylog",
            e5_one_to_n_cost::run,
        ),
        (
            "E6",
            "Theorem 3 — latency O(T + n·polylog n)",
            e6_one_to_n_latency::run,
        ),
        (
            "E7",
            "Theorem 4 — measured cost vs the √(T/n) floor",
            e7_fairness_gap::run,
        ),
        (
            "E8",
            "Theorem 5 — the golden-ratio tradeoff",
            |scale, _| Ok(e8_golden_ratio::run(scale)),
        ),
        (
            "E9",
            "§1.4 — Figure 1 vs KSY vs combined vs naive",
            e9_baseline_comparison::run,
        ),
        (
            "E10",
            "§3.1 mechanisms — S_u divergence, helper waves",
            |scale, _| Ok(e10_dynamics_trace::run(scale)),
        ),
        (
            "E11",
            "Robustness — jamming-strategy ablation",
            e11_ablation::run,
        ),
        ("E12", "Extension — multi-source broadcast", |scale, _| {
            Ok(e12_multi_source::run(scale))
        }),
        (
            "E13",
            "Extension — a learning adversary rediscovers the threshold attack",
            e13_learning_adversary::run,
        ),
        (
            "E14",
            "Extension — 2-uniform (selective) jamming of 1-to-n",
            |scale, _| Ok(e14_partition_jamming::run(scale)),
        ),
        (
            "E15",
            "Robustness — graceful degradation under non-adversarial faults",
            e15_fault_degradation::run,
        ),
        (
            "E16",
            "Extension — streaming stability boundary under jammer allocation policies",
            e16_stream_stability::run,
        ),
    ]
}

/// Runs `experiments` in order and [appends](Report::append) their
/// reports, stopping at the first that fails. Progress and
/// per-experiment wall times go to stderr, so the text is reproducible.
pub fn run_selected(
    experiments: &[(&'static str, &'static str, Runner)],
    scale: &Scale,
    ctl: &SweepControl,
) -> Result<Report, String> {
    let mut out = Report::default();
    for (id, title, runner) in experiments {
        let started = std::time::Instant::now();
        eprintln!("[{id}] {title} ...");
        let report = runner(scale, ctl).map_err(|e| format!("{id}: {e}"))?;
        eprintln!("[{id}] done in {:.1}s", started.elapsed().as_secs_f64());
        out.append(id, title, report);
    }
    Ok(out)
}
