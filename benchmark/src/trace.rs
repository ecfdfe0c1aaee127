//! The traced pass: the same trials as the untraced pass, driven through
//! the session layer with the adversary wrapped in a timing
//! [`RepetitionAdversary`]. Spans are recorded from the benchmark's side of
//! each layer boundary — adversary build, session construction, engine run
//! (with the adversary as an aggregated child), session re-arm — and kept
//! in memory until the pass ends.
//!
//! A per-repetition duration is the time from one `plan` call to the next
//! (the last repetition of a run ends with the run); they are summarised
//! per trial as a log2 histogram, not recorded as spans.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rcb_adversary::traits::{JamPlan, RepetitionAdversary, RepetitionContext, RepetitionSummary};
use rcb_core::one_to_one::profile::Fig1Profile;
use rcb_mathkit::rng::{RcbRng, SeedSequence};
use rcb_sim::cohort::{run_cohort_instrumented, CohortConfig, CohortSession, CohortStats};
use rcb_sim::deadline::Deadline;
use rcb_sim::duel::{DuelConfig, DuelSession};
use rcb_sim::error::SimError;
use rcb_sim::fast::{BroadcastSession, FastConfig};
use rcb_sim::outcome::{BroadcastOutcome, StreamOutcome};
use rcb_sim::scenario::{
    DuelProtocol, Engine, Outcome, ScenarioSpec, StreamAlloc, StreamWorkload, Workload, FNV_OFFSET,
};
use rcb_sim::session::Session;

use crate::passes::fold_trial;
use crate::stats::{self, Tally};
use crate::Metric;

/// log2 buckets of a per-repetition duration in nanoseconds.
const HIST_BUCKETS: usize = 48;

/// Counters of the adversary calls and repetitions seen by one trial.
#[derive(Debug, Clone, Default)]
struct Probe {
    calls: u64,
    adversary_ns: u64,
    reps: u64,
    slots: u64,
    actions: u64,
    active_nodes: u64,
    last_plan: Option<Instant>,
    rep_hist: Vec<u32>,
}

impl Probe {
    fn repetition_ended(&mut self, ns: u64, rep_ns: &mut Vec<u64>) {
        rep_ns.push(ns);
        let bucket = (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        if self.rep_hist.is_empty() {
            self.rep_hist = vec![0; HIST_BUCKETS];
        }
        self.rep_hist[bucket] += 1;
    }
}

/// Forwards all four trait methods to the wrapped strategy, timing and
/// counting the calls the engines make.
struct TimedAdversary<'a> {
    inner: &'a mut dyn RepetitionAdversary,
    probe: &'a mut Probe,
    rep_ns: &'a mut Vec<u64>,
}

impl RepetitionAdversary for TimedAdversary<'_> {
    fn plan(&mut self, ctx: &RepetitionContext) -> JamPlan {
        let start = Instant::now();
        if let Some(last) = self.probe.last_plan.replace(start) {
            self.probe
                .repetition_ended(nanos(start - last), self.rep_ns);
        }
        let plan = self.inner.plan(ctx);
        self.probe.adversary_ns += nanos(start.elapsed());
        self.probe.calls += 1;
        self.probe.reps += 1;
        self.probe.slots += ctx.slots;
        self.probe.active_nodes += ctx.active_nodes as u64;
        plan
    }

    fn observe(&mut self, ctx: &RepetitionContext, summary: &RepetitionSummary) {
        let start = Instant::now();
        self.inner.observe(ctx, summary);
        self.probe.adversary_ns += nanos(start.elapsed());
        self.probe.calls += 1;
        self.probe.actions += summary.send_actions + summary.listen_actions;
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }

    fn rearm(&mut self) {
        let start = Instant::now();
        self.inner.rearm();
        self.probe.adversary_ns += nanos(start.elapsed());
        self.probe.calls += 1;
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A span as offsets from the start of the pass.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start_ns: u64,
    end_ns: u64,
}

/// The spans of one trial.
#[derive(Debug, Clone, Default)]
struct TrialRecord {
    /// Which run of the batch.
    repeat: u32,
    spec: usize,
    trial: u64,
    trial_span: Span,
    build: Span,
    new: Span,
    /// From the first engine run's start to the last one's end.
    run: Span,
    runs: u64,
    run_busy_ns: u64,
    rearms: u64,
    rearm_ns: u64,
    probe: Probe,
}

/// Everything the traced pass measured.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Checksum of the first run of the batch.
    pub fold: u64,
    /// Runs of the batch, and whether they all reproduced `fold`.
    pub repeats: u32,
    pub repeats_agree: bool,
    pub tally: Tally,
    /// Wall time per run of the batch.
    pub wall: Duration,
    /// The adversary's remaining budget matched its spend after every run.
    pub budget_ok: bool,
    /// Present when the batch runs the cohort engine on a broadcast.
    pub cohort: Option<CohortCheck>,
    records: Vec<TrialRecord>,
    rep_ns: Vec<u64>,
    build_ns: Vec<f64>,
    new_ns: Vec<f64>,
    rearm_ns: Vec<f64>,
    cost_ratios: Vec<f64>,
}

/// State threaded through one traced trial.
struct Tracer<'a> {
    origin: Instant,
    record: TrialRecord,
    rep_ns: &'a mut Vec<u64>,
    rearm_ns: &'a mut Vec<f64>,
    budget: u64,
    /// Adversary spend since it was built or last re-armed.
    spent: u64,
    budget_ok: bool,
}

impl Tracer<'_> {
    fn offset(&self, at: Instant) -> u64 {
        nanos(at - self.origin)
    }

    fn span(&self, start: Instant, end: Instant) -> Span {
        Span {
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        }
    }

    fn timed<'b>(&'b mut self, inner: &'b mut dyn RepetitionAdversary) -> TimedAdversary<'b> {
        TimedAdversary {
            inner,
            probe: &mut self.record.probe,
            rep_ns: self.rep_ns,
        }
    }

    fn new_session<S>(&mut self, new: impl FnOnce() -> S) -> S {
        let start = Instant::now();
        let session = new();
        self.record.new = self.span(start, Instant::now());
        session
    }

    /// One engine run through the timing wrapper, followed by the check
    /// that the wrapper reports the strategy's remaining budget.
    fn run<T>(
        &mut self,
        adversary: &mut dyn RepetitionAdversary,
        run: impl FnOnce(&mut dyn RepetitionAdversary) -> T,
        adversary_cost: impl Fn(&T) -> u64,
    ) -> T {
        self.record.probe.last_plan = None;
        let start = Instant::now();
        let out = run(&mut self.timed(adversary));
        let end = Instant::now();
        if let Some(last) = self.record.probe.last_plan.take() {
            self.record
                .probe
                .repetition_ended(nanos(end - last), self.rep_ns);
        }
        if self.record.runs == 0 {
            self.record.run.start_ns = self.offset(start);
        }
        self.record.run.end_ns = self.offset(end);
        self.record.runs += 1;
        self.record.run_busy_ns += nanos(end - start);

        self.spent += adversary_cost(&out);
        let expected = self.budget.checked_sub(self.spent);
        self.budget_ok &=
            expected.is_some() && self.timed(adversary).remaining_budget() == expected;
        out
    }

    fn rearm_adversary(&mut self, adversary: &mut dyn RepetitionAdversary) {
        self.timed(adversary).rearm();
        self.spent = 0;
    }

    fn rearm_session(&mut self, session: &mut impl Session, seed: u64) {
        let start = Instant::now();
        session.rearm(seed);
        let ns = nanos(start.elapsed());
        self.record.rearms += 1;
        self.record.rearm_ns += ns;
        self.rearm_ns.push(ns as f64);
    }

    /// A single-execution trial: construct, run, then time a re-arm of the
    /// now dirty session (the cost a session-reusing front door would pay).
    fn single<S: Session>(
        &mut self,
        new: impl FnOnce() -> S,
        adversary: &mut dyn RepetitionAdversary,
        adversary_cost: impl Fn(&S::Outcome) -> u64,
        rearm_seed: u64,
    ) -> (S::Outcome, Option<SimError>) {
        let mut session = self.new_session(new);
        let (out, err) = self.run(
            adversary,
            |adv| session.run(adv, &Deadline::NONE),
            |(out, _)| adversary_cost(out),
        );
        self.rearm_session(&mut session, rearm_seed);
        (out, err)
    }

    /// The FIFO drain of `ScenarioSpec`'s stream trial, re-stated on the
    /// session layer so each re-arm and run can be timed. The traced fold
    /// must equal the front door's, which keeps the two in step.
    fn stream<S: Session<Outcome = BroadcastOutcome>>(
        &mut self,
        w: &StreamWorkload,
        new: impl FnOnce() -> S,
        adversary: &mut dyn RepetitionAdversary,
        rng: &mut RcbRng,
    ) -> (StreamOutcome, Option<SimError>) {
        let arrivals = w.arrival.generate(w.horizon, rng);
        let mut session = self.new_session(new);
        let mut out = StreamOutcome {
            n: w.n,
            arrivals: arrivals.len() as u64,
            delivered: 0,
            truncated_msgs: 0,
            slots: 0,
            adversary_cost: 0,
            max_cost: 0,
            queue_area: 0,
            max_queue: 0,
            latency_p50: 0,
            latency_p95: 0,
            latency_max: 0,
            truncated: false,
        };
        let mut latencies = Vec::with_capacity(arrivals.len());
        let mut clock = 0u64;
        let mut seed = [0u64; 1];
        for (k, &arrival) in arrivals.iter().enumerate() {
            let start = clock.max(arrival);
            let backlog = arrivals[k..].iter().take_while(|&&a| a <= start).count() as u64;
            out.max_queue = out.max_queue.max(backlog);
            if w.alloc == StreamAlloc::PerMessage {
                self.rearm_adversary(adversary);
            }
            rng.fill_u64s(&mut seed);
            self.rearm_session(&mut session, seed[0]);
            let (msg, err) = self.run(
                adversary,
                |adv| session.run(adv, &Deadline::NONE),
                |(msg, _)| msg.adversary_cost,
            );
            out.adversary_cost += msg.adversary_cost;
            out.max_cost = out.max_cost.max(msg.max_cost());
            if err.is_some() {
                out.truncated_msgs += 1;
            }
            let completion = start + msg.slots;
            latencies.push(completion - arrival);
            out.queue_area += completion - arrival;
            clock = completion;
            out.delivered += u64::from(msg.all_informed);
        }
        out.slots = clock.max(arrivals.last().copied().unwrap_or(0));
        latencies.sort_unstable();
        if !latencies.is_empty() {
            out.latency_p50 = stats::percentile(&latencies, 50.0);
            out.latency_p95 = stats::percentile(&latencies, 95.0);
            out.latency_max = latencies[latencies.len() - 1];
        }
        (out, None)
    }
}

/// Runs trial `trial` of `spec` on the session-driven path.
fn traced_trial(spec: &ScenarioSpec, trial: u64, tracer: &mut Tracer<'_>) -> (Outcome, bool) {
    let seed = SeedSequence::new(spec.seeds.master).child(trial);
    let rearm_seed = SeedSequence::new(spec.seeds.master).child(trial + 1);
    let start = Instant::now();
    let mut adversary = spec.adversary.build(spec.seeds.adversary_seed(trial));
    tracer.record.build = tracer.span(start, Instant::now());
    let adversary = adversary.as_mut();
    let faults = spec.faults;
    let (outcome, err) = match (&spec.workload, spec.engine) {
        (Workload::Duel(w), Engine::Fast) => {
            let DuelProtocol::Fig1 {
                epsilon,
                start_epoch,
            } = w.protocol
            else {
                panic!("the traced path covers the benchmark's Figure 1 duels only")
            };
            let profile = Fig1Profile::with_start_epoch(epsilon, start_epoch);
            let config = DuelConfig {
                max_slots: w.max_slots,
            };
            let (out, err) = tracer.single(
                || DuelSession::new(profile, config, faults, seed),
                adversary,
                |o| o.adversary_cost,
                rearm_seed,
            );
            (Outcome::Duel(out), err)
        }
        (Workload::Broadcast(w), Engine::Fast) => {
            let config = FastConfig {
                max_epoch: w.max_epoch,
            };
            let (out, err) = tracer.single(
                || BroadcastSession::new(w.params, w.n, w.sources.clone(), config, faults, seed),
                adversary,
                |o| o.adversary_cost,
                rearm_seed,
            );
            (Outcome::Broadcast(out), err)
        }
        (Workload::Broadcast(w), Engine::CohortFast) => {
            let config = cohort_config(w.max_epoch);
            let (out, err) = tracer.single(
                || CohortSession::new(w.params, w.n, w.sources.clone(), config, faults, seed),
                adversary,
                |o| o.adversary_cost,
                rearm_seed,
            );
            (Outcome::Broadcast(out), err)
        }
        (Workload::Stream(w), Engine::Fast) => {
            let config = FastConfig {
                max_epoch: w.max_epoch,
            };
            let (out, err) = tracer.stream(
                w,
                || BroadcastSession::new(w.params, w.n, w.sources.clone(), config, faults, 0),
                adversary,
                &mut RcbRng::new(seed),
            );
            (Outcome::Stream(out), err)
        }
        (Workload::Stream(w), Engine::CohortFast) => {
            let config = cohort_config(w.max_epoch);
            let (out, err) = tracer.stream(
                w,
                || CohortSession::new(w.params, w.n, w.sources.clone(), config, faults, 0),
                adversary,
                &mut RcbRng::new(seed),
            );
            (Outcome::Stream(out), err)
        }
        _ => panic!("the traced path covers the benchmark's engines only"),
    };
    tracer.record.trial_span = tracer.span(start, Instant::now());
    (outcome, err.is_none())
}

fn cohort_config(max_epoch: u32) -> CohortConfig {
    CohortConfig {
        max_epoch,
        ..CohortConfig::default()
    }
}

/// Trial 0 of the first cohort-engine broadcast spec, rerun through
/// `run_cohort_instrumented` for its compression statistics.
#[derive(Debug, Clone, Copy)]
pub struct CohortCheck {
    stats: CohortStats,
    /// Index of the session-driven run of the same trial in the records.
    record: usize,
    /// Both runs produced the same outcome checksum.
    pub matches: bool,
}

fn cohort_instrumented(
    specs: &[ScenarioSpec],
    records: &[TrialRecord],
    checksums: &[u64],
) -> Option<CohortCheck> {
    let (i, spec, w) = specs
        .iter()
        .enumerate()
        .find_map(|(i, s)| match &s.workload {
            Workload::Broadcast(w) if s.engine == Engine::CohortFast && s.faults.is_none() => {
                Some((i, s, w))
            }
            _ => None,
        })?;
    let record = records.iter().position(|r| r.spec == i)?;
    let mut adversary = spec.adversary.build(spec.seeds.adversary_seed(0));
    let (out, stats) = run_cohort_instrumented(
        &w.params,
        w.n,
        &w.sources,
        adversary.as_mut(),
        &mut SeedSequence::new(spec.seeds.master).rng(0),
        cohort_config(w.max_epoch),
    );
    Some(CohortCheck {
        stats,
        record,
        matches: spec.outcome_checksum(&Outcome::Broadcast(out)) == checksums[record],
    })
}

/// Repetitions the traced pass times at the least, so that their p99 has
/// ten samples beyond it; a batch with fewer runs again until it has them.
const MIN_TRACED_REPS: usize = 1000;

/// The traced pass over one batch, repeated until it has timed
/// [`MIN_TRACED_REPS`] repetitions.
pub fn traced_pass(specs: &[ScenarioSpec]) -> TracedPass {
    let mut pass = TracedPass {
        budget_ok: true,
        repeats_agree: true,
        ..TracedPass::default()
    };
    let mut checksums = Vec::new();
    let origin = Instant::now();
    while pass.repeats == 0 || pass.rep_ns.len() < MIN_TRACED_REPS {
        let fold = traced_batch(specs, pass.repeats, origin, &mut pass, &mut checksums);
        if pass.repeats == 0 {
            pass.fold = fold;
        }
        pass.repeats_agree &= fold == pass.fold;
        pass.repeats += 1;
    }
    pass.wall = origin.elapsed() / pass.repeats;
    pass.cohort = cohort_instrumented(specs, &pass.records, &checksums);
    pass
}

/// One traced run of the batch; returns its checksum.
fn traced_batch(
    specs: &[ScenarioSpec],
    repeat: u32,
    origin: Instant,
    pass: &mut TracedPass,
    checksums: &mut Vec<u64>,
) -> u64 {
    let mut fold = FNV_OFFSET;
    for (i, spec) in specs.iter().enumerate() {
        for trial in 0..spec.trials {
            let mut tracer = Tracer {
                origin,
                record: TrialRecord {
                    repeat,
                    spec: i,
                    trial,
                    ..TrialRecord::default()
                },
                rep_ns: &mut pass.rep_ns,
                rearm_ns: &mut pass.rearm_ns,
                budget: spec.adversary.budget(),
                spent: 0,
                budget_ok: true,
            };
            let (outcome, ok) = traced_trial(spec, trial, &mut tracer);
            pass.budget_ok &= tracer.budget_ok;
            let record = tracer.record;
            pass.build_ns
                .push((record.build.end_ns - record.build.start_ns) as f64);
            pass.new_ns
                .push((record.new.end_ns - record.new.start_ns) as f64);
            pass.records.push(record);

            checksums.push(spec.outcome_checksum(&outcome));
            fold = fold_trial(fold, spec, &outcome);
            pass.tally.record(ok);
            if outcome.adversary_cost() > 0 {
                pass.cost_ratios
                    .push(outcome.max_cost() as f64 / (outcome.adversary_cost() as f64).sqrt());
            }
        }
    }
    fold
}

impl TracedPass {
    /// Per-layer metrics as (name, value, unit), in report order.
    pub fn layer_metrics(&mut self) -> Vec<Metric> {
        let trials = self.records.len() as f64;
        let sum = |f: fn(&TrialRecord) -> u64| self.records.iter().map(f).sum::<u64>() as f64;
        let calls = sum(|r| r.probe.calls);
        let adversary_ns = sum(|r| r.probe.adversary_ns);
        let reps = sum(|r| r.probe.reps);
        let slots = sum(|r| r.probe.slots);
        let actions = sum(|r| r.probe.actions);
        let active = sum(|r| r.probe.active_nodes);
        let runs = sum(|r| r.runs);
        let busy_ns = sum(|r| r.run_busy_ns);
        self.rep_ns.sort_unstable();
        let rep_p99 = stats::tail_percentile(&self.rep_ns, 99.0)
            .expect("every workload's traced batch runs at least 1000 repetitions");
        vec![
            (
                "session.new_us",
                stats::median(&mut self.new_ns) / 1e3,
                "us",
            ),
            (
                "session.rearm_us",
                stats::median(&mut self.rearm_ns) / 1e3,
                "us",
            ),
            ("stream.msgs_per_trial", runs / trials, "msgs/trial"),
            (
                "adversary.build_us",
                stats::median(&mut self.build_ns) / 1e3,
                "us",
            ),
            ("adversary.calls_per_trial", calls / trials, "calls/trial"),
            ("adversary.self_frac", adversary_ns / busy_ns, "ratio"),
            ("engine.reps_per_trial", reps / trials, "reps/trial"),
            ("engine.slots_per_rep", slots / reps, "slots/rep"),
            (
                "engine.self_ns_per_slot",
                (busy_ns - adversary_ns) / slots,
                "ns/slot",
            ),
            (
                "engine.rep_us_p50",
                stats::percentile(&self.rep_ns, 50.0) as f64 / 1e3,
                "us",
            ),
            ("engine.rep_us_p99", rep_p99 as f64 / 1e3, "us"),
            ("engine.actions_per_slot", actions / slots, "actions/slot"),
            ("engine.active_nodes_per_rep", active / reps, "nodes/rep"),
            (
                "protocol.cost_per_sqrt_T",
                self.cost_ratios.iter().sum::<f64>() / self.cost_ratios.len() as f64,
                "cost/sqrt_T",
            ),
        ]
    }

    /// The cohort engine's compression statistics of trial 0 (exact), or
    /// why there are none.
    pub fn cohort_note(&self) -> String {
        match self.cohort {
            Some(s) => {
                let reps = self.records[s.record].probe.reps as f64;
                format!(
                    "cohort (trial 0, exact): max_live_cohorts {}  split_rep_frac {}  tracked_nodes {}",
                    s.stats.max_live_cohorts,
                    s.stats.split_repetitions as f64 / reps,
                    s.stats.tracked_nodes
                )
            }
            None => "cohort: n/a (no cohort-engine broadcast in this workload)".into(),
        }
    }

    /// The spans as JSON lines, one trial per line.
    pub fn spans_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for r in &self.records {
            let span = |name: &str, s: Span| {
                format!(
                    r#"{{"span":"{name}","start_ns":{},"end_ns":{}}}"#,
                    s.start_ns, s.end_ns
                )
            };
            let hist: Vec<String> = r
                .probe
                .rep_hist
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, c)| format!(r#""{b}":{c}"#))
                .collect();
            let _ = writeln!(
                out,
                concat!(
                    r#"{{"trace":"{}/{}/{}/{}","span":"trial","start_ns":{},"end_ns":{},"children":["#,
                    r#"{},{},"#,
                    r#"{{"span":"engine.run","start_ns":{},"end_ns":{},"count":{},"busy_ns":{},"#,
                    r#""reps":{},"slots":{},"rep_ns_log2":{{{}}},"#,
                    r#""children":[{{"span":"adversary","count":{},"busy_ns":{}}}]}},"#,
                    r#"{{"span":"session.rearm","count":{},"busy_ns":{}}}]}}"#
                ),
                workload,
                r.repeat,
                r.spec,
                r.trial,
                r.trial_span.start_ns,
                r.trial_span.end_ns,
                span("adversary.build", r.build),
                span("session.new", r.new),
                r.run.start_ns,
                r.run.end_ns,
                r.runs,
                r.run_busy_ns,
                r.probe.reps,
                r.probe.slots,
                hist.join(","),
                r.probe.calls,
                r.probe.adversary_ns,
                r.rearms,
                r.rearm_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcb_adversary::rep_strategies::RandomRep;
    use rcb_sim::scenario::{AdversarySpec, ArrivalSpec, StreamAlloc};

    use crate::passes::{self, batch_trials};

    fn blocker(budget: u64) -> AdversarySpec {
        AdversarySpec::Budgeted {
            budget,
            fraction: 1.0,
        }
    }

    fn random(budget: u64) -> AdversarySpec {
        AdversarySpec::Random { budget, rate: 0.3 }
    }

    /// Each workload's shape at test scale, plus seeded `Random` jammers:
    /// a stream that refills one per message only reproduces the front
    /// door if the wrapper forwards `rearm`.
    fn small_batches(seed: u64) -> Vec<Vec<ScenarioSpec>> {
        let duel = |adversary| {
            ScenarioSpec::duel(DuelProtocol::fig1(0.1, 8))
                .with_adversary(adversary)
                .with_seed(seed)
                .with_trials(20)
        };
        let stream = |engine, n, adversary, alloc| {
            ScenarioSpec::stream(n, ArrivalSpec::Poisson { rate: 1e-4 }, 60_000)
                .with_engine(engine)
                .with_adversary(adversary)
                .with_stream_alloc(alloc)
                .with_seed(seed)
                .with_trials(2)
        };
        vec![
            vec![
                duel(blocker(0)),
                duel(blocker(1 << 10)),
                duel(blocker(1 << 13)),
                duel(random(1 << 13)),
            ],
            vec![ScenarioSpec::broadcast(16)
                .with_adversary(random(20_000))
                .with_seed(seed)
                .with_trials(3)],
            // Above the cohort engine's all-tracked threshold: aggregate mode.
            vec![ScenarioSpec::broadcast(600)
                .with_engine(Engine::CohortFast)
                .with_adversary(blocker(50_000))
                .with_seed(seed)
                .with_trials(2)],
            vec![
                stream(
                    Engine::Fast,
                    8,
                    AdversarySpec::NoJam,
                    StreamAlloc::Persistent,
                ),
                stream(Engine::Fast, 8, blocker(20_000), StreamAlloc::Persistent),
                stream(Engine::Fast, 8, random(20_000), StreamAlloc::PerMessage),
                stream(
                    Engine::CohortFast,
                    16,
                    blocker(20_000),
                    StreamAlloc::PerMessage,
                ),
                stream(
                    Engine::CohortFast,
                    16,
                    random(20_000),
                    StreamAlloc::PerMessage,
                ),
            ],
        ]
    }

    #[test]
    fn traced_session_path_reproduces_the_front_door() {
        for seed in [2014, 7] {
            for specs in small_batches(seed) {
                let mut trial_ns = vec![0; batch_trials(&specs)];
                let front = passes::front_door(&specs, &mut trial_ns);
                let pooled = passes::pool(&specs, 2, &mut trial_ns);
                let traced = traced_pass(&specs);
                let label = specs[0].workload.to_string();
                assert_eq!(traced.fold, front.fold, "{label}: traced fold, seed {seed}");
                assert!(traced.repeats_agree, "{label}: traced repeats, seed {seed}");
                assert_eq!(pooled.fold, front.fold, "{label}: pool fold, seed {seed}");
                assert!(traced.budget_ok, "{label}: remaining budget, seed {seed}");
                assert!(
                    traced.cohort.is_none_or(|c| c.matches),
                    "{label}: instrumented cohort run, seed {seed}"
                );
                assert_eq!(front.tally.failed, 0, "{label}: failed trials");
            }
        }
    }

    #[test]
    fn timing_wrapper_forwards_all_four_methods() {
        let ctx = |repetition| RepetitionContext {
            epoch: 10,
            repetition,
            slots: 1 << 10,
            active_nodes: 4,
        };
        let summary = RepetitionSummary::default();
        let mut bare = RandomRep::new(0.2, 1_000, 9);
        let mut inner = RandomRep::new(0.2, 1_000, 9);
        let mut probe = Probe::default();
        let mut rep_ns = Vec::new();
        let mut timed = TimedAdversary {
            inner: &mut inner,
            probe: &mut probe,
            rep_ns: &mut rep_ns,
        };
        for round in 0..3 {
            for r in 0..6 {
                assert_eq!(
                    timed.plan(&ctx(r)),
                    bare.plan(&ctx(r)),
                    "round {round} plan {r}"
                );
                timed.observe(&ctx(r), &summary);
                bare.observe(&ctx(r), &summary);
                assert_eq!(timed.remaining_budget(), bare.remaining_budget());
            }
            timed.rearm();
            bare.rearm();
            assert_eq!(timed.remaining_budget(), Some(1_000));
        }
        assert_eq!(probe.reps, 18);
        assert_eq!(probe.calls, 18 * 2 + 3);
        assert_eq!(rep_ns.len(), 17, "plan-to-plan durations");
    }
}
