//! `rcbsim` — a command-line driver for one-off simulations.
//!
//! The experiment binaries regenerate the paper's tables; `rcbsim` is the
//! interactive companion: run a single configuration and read the numbers.
//!
//! ```text
//! rcbsim duel      --profile fig1 --epsilon 0.01 --budget 65536 --trials 100
//! rcbsim broadcast --n 64 --budget 1048576 --adversary suffix --q 1.0 --trials 10
//! rcbsim product   --budget 16384 --delta 0.5 --trials 2000
//! rcbsim golden    --budget 16384 --trials 500
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` / `--key=value`): the
//! dependency budget of this workspace is deliberately small and the
//! grammar is trivial.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use crate::experiments::common::{parse_trial_payload, split_truncated, trial_payload};
use crate::perf::{self, PerfScale};
use rcb_analysis::table::{num, TableBuilder};
use rcb_mathkit::rng::SeedSequence;
use rcb_mathkit::stats::RunningStats;
use rcb_mathkit::PHI_MINUS_ONE;
use rcb_sim::conformance::{default_grid, run_grid, ConformanceConfig};
use rcb_sim::deadline::{install_sigint_handler, interrupted, Deadline};
use rcb_sim::error::SimError;
use rcb_sim::executor::{run_specs_ctl, SpecsControl};
use rcb_sim::faults::FaultPlan;
use rcb_sim::journal::{Journal, JournalHeader};
use rcb_sim::json::Json;
use rcb_sim::lowerbound::{golden_ratio_game, product_game};
use rcb_sim::outcome::StreamOutcome;
use rcb_sim::runner::Parallelism;
use rcb_sim::scenario::{
    find_scenario, fnv1a, registry, AdversarySpec, DuelProtocol, Outcome, ScenarioSpec, Workload,
    FNV_OFFSET,
};

/// Parsed command line: one subcommand, optional further positionals
/// (only the `scenario` command takes any), plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    positionals: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name). Positionals after the
    /// command are collected; each command enforces its own arity at
    /// dispatch (only `scenario` accepts any).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(stripped) = token.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err("bare `--` is not a valid option".into());
                }
                let (key, value) = match stripped.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => {
                        let value = iter
                            .next()
                            .ok_or_else(|| format!("option --{stripped} needs a value"))?;
                        (stripped.to_string(), value)
                    }
                };
                if args.options.insert(key.clone(), value).is_some() {
                    return Err(format!("option --{key} given twice"));
                }
            } else if args.command.is_none() {
                args.command = Some(token);
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The `i`-th positional after the command, if present.
    fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Typed option lookup with a default.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        }
    }

    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Typed optional lookup: `Ok(None)` when the flag is absent.
    pub fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse `{raw}`")),
        }
    }
}

/// Builds a validated [`FaultPlan`] from the shared `--fault-*` flags
/// (`duel` and `broadcast` accept all four):
///
/// * `--fault-loss F` — drop each decodable reception with probability `F`
/// * `--fault-crash NODE:START:PERIODS[:lose]` — radio off for the window;
///   `:lose` wipes volatile state on reboot
/// * `--fault-skew NODE:SLOTS` — the first `SLOTS` slots of every period
///   decode as noise for `NODE`
/// * `--fault-battery N` — hard per-node energy cap of `N` slot-units
fn fault_plan_from_args(args: &Args) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    if let Some(p) = args.get_opt::<f64>("fault-loss")? {
        plan = plan.with_loss(p);
    }
    if let Some(spec) = args.options.get("fault-crash") {
        let parts: Vec<&str> = spec.split(':').collect();
        let usage = || format!("--fault-crash: expected NODE:START:PERIODS[:lose], got `{spec}`");
        if !(3..=4).contains(&parts.len()) {
            return Err(usage());
        }
        let node: usize = parts[0].parse().map_err(|_| usage())?;
        let start: u64 = parts[1].parse().map_err(|_| usage())?;
        let periods: u64 = parts[2].parse().map_err(|_| usage())?;
        let lose_state = match parts.get(3) {
            None => false,
            Some(&"lose") => true,
            Some(_) => return Err(usage()),
        };
        plan = plan.with_crash(node, start, periods, lose_state);
    }
    if let Some(spec) = args.options.get("fault-skew") {
        let usage = || format!("--fault-skew: expected NODE:SLOTS, got `{spec}`");
        let (node, slots) = spec.split_once(':').ok_or_else(usage)?;
        let node: usize = node.parse().map_err(|_| usage())?;
        let slots: u64 = slots.parse().map_err(|_| usage())?;
        plan = plan.with_skew(node, slots);
    }
    if let Some(cap) = args.get_opt::<u64>("fault-battery")? {
        plan = plan.with_battery(cap);
    }
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

const HELP: &str = "\
rcbsim — resource-competitive broadcast simulator

USAGE: rcbsim <COMMAND> [--key value ...]

COMMANDS:
  duel       1-to-1 broadcast (Figure 1 / KSY) vs a blanket blocker
             --profile fig1|ksy   --epsilon F   --budget N
             --q F (block fraction)   --trials N   --seed N
  broadcast  1-to-n broadcast (Figure 2)
             --n N   --budget N   --adversary suffix|random|keepalive|none
             --q F   --trials N   --seed N
  product    Theorem 2 product game
             --budget N   --delta F   --trials N   --seed N
  golden     Theorem 5 golden-ratio sweep
             --budget N   --trials N   --seed N
  conformance  cross-engine agreement grid (exact vs fast engines)
             --trials N (default 200)   --seed N (default 2014)
             --alpha F (default 0.001)
  perf       pinned perf grid → BENCH_<git-sha>.json (slots/sec,
             trials/sec, peak RSS, determinism checksums per engine)
             --scale standard|smoke (default standard)
             --cpus N[,N...] (default 1; one timed full-grid pass per
             worker count, recorded as a scaling curve; per-scenario
             stats and RSS come from the first pass)
             --out PATH (default BENCH_<sha>.json; `-` skips the write)
             --against FILE (compare to a recorded baseline; warnings go
             to stderr)   --strict true (warnings fail the gate too)
             --threshold F (default 0.35)   --report-only true
             --notes TEXT   --seed N (default 2014)
             --only NAME[,NAME...] (restrict the grid to these registry
             entries; overrides the smoke scale's exclusion of the
             large-n cohort cells)
  scenario   named declarative scenarios (the perf grid's registry)
             scenario list          table of every registry entry
             scenario names         bare names, one per line
             scenario run <NAME>    run one entry
               --trials N   --seed N  (override the registry defaults)
  help       this text

CRASH SAFETY (perf and scenario run):
  --journal PATH     checkpoint completed cells to an FNV-1a-checksummed
                     JSONL journal (flushed atomically as the run goes)
  --resume PATH      skip the journal's completed cells and continue; a
                     journal from different work is refused, and resumed
                     results are bit-identical to an uninterrupted run
  --deadline SECS    cooperative wall-clock budget: in-flight work
                     finishes, the journal is flushed, and the exact
                     --resume invocation is printed
  While any of these is active, the first Ctrl-C (SIGINT) is graceful —
  finish in-flight cells, flush, print the resume command; a second
  Ctrl-C force-kills.

FAULT INJECTION (duel and broadcast):
  --fault-loss F                       drop decodable receptions w.p. F
  --fault-crash NODE:START:PERIODS[:lose]
                                       radio off for the window; `:lose`
                                       wipes volatile state on reboot
  --fault-skew NODE:SLOTS              first SLOTS slots of each period
                                       decode as noise for NODE
  --fault-battery N                    hard per-node energy cap

  e.g. rcbsim duel --budget 4096 --fault-loss 0.2
       rcbsim broadcast --n 16 --adversary none --fault-crash 3:2:8:lose
";

/// The `--fault-*` flags [`fault_plan_from_args`] reads.
const FAULT_FLAGS: [&str; 4] = ["fault-loss", "fault-crash", "fault-skew", "fault-battery"];

/// The `--flag` names each command reads (`None` for an unknown command).
/// [`run_cli`] rejects any other flag, so a typo such as `--trails` fails
/// loudly instead of silently running with the default.
fn command_flags(command: &str) -> Option<Vec<&'static str>> {
    let (own, shared): (&[&str], &[&str]) = match command {
        "help" => (&[], &[]),
        "duel" => (
            &[
                "profile",
                "epsilon",
                "start-epoch",
                "budget",
                "q",
                "trials",
                "seed",
            ],
            &FAULT_FLAGS,
        ),
        "broadcast" => (
            &["n", "budget", "adversary", "q", "trials", "seed"],
            &FAULT_FLAGS,
        ),
        "product" => (&["budget", "delta", "trials", "seed"], &[]),
        "golden" => (&["budget", "trials", "seed"], &[]),
        "conformance" => (&["trials", "seed", "alpha"], &[]),
        "perf" => (
            &[
                "scale",
                "cpus",
                "out",
                "against",
                "strict",
                "threshold",
                "report-only",
                "notes",
                "seed",
                "only",
            ],
            &RUN_CONTROL_FLAGS,
        ),
        "scenario" => (&["trials", "seed"], &RUN_CONTROL_FLAGS),
        _ => return None,
    };
    Some(own.iter().chain(shared).copied().collect())
}

/// Executes a parsed command line, returning the report text.
pub fn run_cli(args: &Args) -> Result<String, String> {
    let command = args.command().unwrap_or("help");
    if let Some(valid) = command_flags(command) {
        let mut unknown: Vec<&str> = args
            .options
            .keys()
            .map(String::as_str)
            .filter(|flag| !valid.contains(flag))
            .collect();
        if !unknown.is_empty() {
            unknown.sort_unstable();
            let render = |flags: &[&str]| {
                flags
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            return Err(format!(
                "unknown flag {} for `{command}`; valid flags: {}",
                render(&unknown),
                if valid.is_empty() {
                    "none".to_string()
                } else {
                    render(&valid)
                }
            ));
        }
    }
    if args.command() != Some("scenario") {
        if let Some(extra) = args.positional(0) {
            return Err(format!("unexpected positional argument `{extra}`"));
        }
    }
    match args.command() {
        None | Some("help") => Ok(HELP.to_string()),
        Some("duel") => cmd_duel(args),
        Some("broadcast") => cmd_broadcast(args),
        Some("product") => cmd_product(args),
        Some("golden") => cmd_golden(args),
        Some("conformance") => cmd_conformance(args),
        Some("perf") => cmd_perf(args),
        Some("scenario") => cmd_scenario(args),
        Some(other) => Err(format!("unknown command `{other}`; try `rcbsim help`")),
    }
}

fn duel_report(spec: &ScenarioSpec) -> String {
    render_duel(spec.trials, spec.run_batch_raw())
}

fn render_duel(trials: u64, results: Vec<(Outcome, Option<SimError>)>) -> String {
    let (outcomes, truncated) =
        split_truncated(results.into_iter().map(|(o, err)| (o.into_duel(), err)));
    if outcomes.is_empty() {
        return format!("every one of the {trials} trials truncated at an engine cap\n");
    }
    let mut alice = RunningStats::new();
    let mut bob = RunningStats::new();
    let mut slots = RunningStats::new();
    let mut spend = RunningStats::new();
    let mut delivered = 0u64;
    for o in &outcomes {
        alice.push(o.alice_cost as f64);
        bob.push(o.bob_cost as f64);
        slots.push(o.slots as f64);
        spend.push(o.adversary_cost as f64);
        delivered += o.delivered as u64;
    }
    let mut t = TableBuilder::new(vec!["metric", "mean", "min", "max"]);
    t.row(vec![
        "alice cost".into(),
        num(alice.mean()),
        num(alice.min()),
        num(alice.max()),
    ]);
    t.row(vec![
        "bob cost".into(),
        num(bob.mean()),
        num(bob.min()),
        num(bob.max()),
    ]);
    t.row(vec![
        "latency (slots)".into(),
        num(slots.mean()),
        num(slots.min()),
        num(slots.max()),
    ]);
    t.row(vec![
        "adversary spend T".into(),
        num(spend.mean()),
        num(spend.min()),
        num(spend.max()),
    ]);
    let mut hist = rcb_mathkit::histogram::LogHistogram::doubling();
    for o in &outcomes {
        hist.record(o.max_cost() as f64);
    }
    format!(
        "{}\ndelivered: {}/{} ({:.1}%)\ntruncated trials: {}\n\n\
         max-cost distribution (p50 ≈ {:.0}, p95 ≈ {:.0}):\n{}",
        t.markdown(),
        delivered,
        outcomes.len(),
        100.0 * delivered as f64 / outcomes.len() as f64,
        truncated,
        hist.quantile(0.5),
        hist.quantile(0.95),
        hist.render(32)
    )
}

fn cmd_duel(args: &Args) -> Result<String, String> {
    let budget: u64 = args.get("budget", 65536)?;
    let q: f64 = args.get("q", 1.0)?;
    let trials: u64 = args.get("trials", 100)?;
    let seed: u64 = args.get("seed", 2014)?;
    let faults = fault_plan_from_args(args)?;
    let profile_name = args.get_str("profile", "fig1");
    let protocol = match profile_name.as_str() {
        "fig1" => {
            let epsilon: f64 = args.get("epsilon", 0.01)?;
            let start: u32 = args.get("start-epoch", 8)?;
            DuelProtocol::fig1(epsilon, start)
        }
        "ksy" => DuelProtocol::ksy(),
        other => return Err(format!("--profile must be fig1 or ksy, got `{other}`")),
    };
    let spec = ScenarioSpec::duel(protocol)
        .with_adversary(AdversarySpec::Budgeted {
            budget,
            fraction: q,
        })
        .with_faults(faults)
        .with_seed(seed)
        .with_trials(trials);
    spec.validate()?;
    Ok(duel_report(&spec))
}

fn broadcast_report(spec: &ScenarioSpec) -> String {
    render_broadcast(spec.trials, spec.run_batch_raw())
}

fn render_broadcast(trials: u64, results: Vec<(Outcome, Option<SimError>)>) -> String {
    let (outcomes, truncated) = split_truncated(
        results
            .into_iter()
            .map(|(o, err)| (o.into_broadcast(), err)),
    );
    if outcomes.is_empty() {
        return format!("every one of the {trials} trials truncated at the epoch cap\n");
    }
    let mut mean_cost = RunningStats::new();
    let mut max_cost = RunningStats::new();
    let mut slots = RunningStats::new();
    let mut spend = RunningStats::new();
    let mut informed = 0u64;
    for o in &outcomes {
        mean_cost.push(o.mean_cost());
        max_cost.push(o.max_cost() as f64);
        slots.push(o.slots as f64);
        spend.push(o.adversary_cost as f64);
        informed += o.all_informed as u64;
    }
    let mut t = TableBuilder::new(vec!["metric", "mean", "min", "max"]);
    t.row(vec![
        "mean node cost".into(),
        num(mean_cost.mean()),
        num(mean_cost.min()),
        num(mean_cost.max()),
    ]);
    t.row(vec![
        "max node cost".into(),
        num(max_cost.mean()),
        num(max_cost.min()),
        num(max_cost.max()),
    ]);
    t.row(vec![
        "latency (slots)".into(),
        num(slots.mean()),
        num(slots.min()),
        num(slots.max()),
    ]);
    t.row(vec![
        "adversary spend T".into(),
        num(spend.mean()),
        num(spend.min()),
        num(spend.max()),
    ]);
    format!(
        "{}\nall informed: {}/{} runs\ntruncated trials: {}\n",
        t.markdown(),
        informed,
        outcomes.len(),
        truncated
    )
}

fn render_stream(trials: u64, results: Vec<(Outcome, Option<SimError>)>) -> String {
    // Stream trials only fail as a whole on a deadline cut (per-message
    // caps are folded into `truncated_msgs`); both arms carry a stream
    // outcome worth summarising, so flatten errors away here.
    let outcomes: Vec<StreamOutcome> = results
        .into_iter()
        .filter_map(|(o, err)| err.is_none().then(|| o.into_stream()))
        .collect();
    if outcomes.is_empty() {
        return format!("every one of the {trials} trials was cut off by the deadline\n");
    }
    let mut arrivals = RunningStats::new();
    let mut delivered = RunningStats::new();
    let mut latency_p50 = RunningStats::new();
    let mut latency_p95 = RunningStats::new();
    let mut latency_max = RunningStats::new();
    let mut mean_queue = RunningStats::new();
    let mut throughput = RunningStats::new();
    let mut spend = RunningStats::new();
    let mut truncated_msgs = 0u64;
    for o in &outcomes {
        arrivals.push(o.arrivals as f64);
        delivered.push(o.delivered as f64);
        latency_p50.push(o.latency_p50 as f64);
        latency_p95.push(o.latency_p95 as f64);
        latency_max.push(o.latency_max as f64);
        mean_queue.push(o.mean_queue());
        throughput.push(o.throughput() * 1e6);
        spend.push(o.adversary_cost as f64);
        truncated_msgs += o.truncated_msgs;
    }
    let mut t = TableBuilder::new(vec!["metric", "mean", "min", "max"]);
    for (label, s) in [
        ("messages arrived", &arrivals),
        ("messages delivered", &delivered),
        ("latency p50 (slots)", &latency_p50),
        ("latency p95 (slots)", &latency_p95),
        ("latency max (slots)", &latency_max),
        ("mean queue length", &mean_queue),
        ("throughput (msg/Mslot)", &throughput),
        ("adversary spend T", &spend),
    ] {
        t.row(vec![
            label.into(),
            num(s.mean()),
            num(s.min()),
            num(s.max()),
        ]);
    }
    format!(
        "{}\nmessages cut off by engine caps: {truncated_msgs}\n",
        t.markdown()
    )
}

/// Comma-separated registry names for unknown-name error messages.
fn registry_name_list() -> String {
    registry()
        .iter()
        .map(|e| e.name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn cmd_broadcast(args: &Args) -> Result<String, String> {
    let n: usize = args.get("n", 32)?;
    let budget: u64 = args.get("budget", 1 << 20)?;
    let q: f64 = args.get("q", 1.0)?;
    let trials: u64 = args.get("trials", 10)?;
    let seed: u64 = args.get("seed", 2014)?;
    let kind = args.get_str("adversary", "suffix");
    let adversary = match kind.as_str() {
        "suffix" => AdversarySpec::Budgeted {
            budget,
            fraction: q,
        },
        "random" => AdversarySpec::Random {
            budget,
            rate: q.min(0.999),
        },
        "keepalive" => AdversarySpec::KeepAlive {
            budget,
            fraction: q,
        },
        "none" => AdversarySpec::NoJam,
        other => {
            return Err(format!(
                "--adversary must be suffix|random|keepalive|none, got `{other}`"
            ))
        }
    };
    let faults = fault_plan_from_args(args)?;
    let spec = ScenarioSpec::broadcast(n)
        .with_adversary(adversary)
        .with_faults(faults)
        .with_seed(seed)
        .with_trials(trials);
    spec.validate()?;
    Ok(broadcast_report(&spec))
}

/// `scenario list|names|run <NAME>` — the named registry behind the perf
/// grid, exposed for direct use. `run` accepts `--trials`/`--seed`
/// overrides and reports the same FNV-1a determinism checksum the perf
/// harness records, folded in trial order over every outcome (including
/// truncated trials, which surface as a count rather than vanishing).
fn cmd_scenario(args: &Args) -> Result<String, String> {
    let entries = registry();
    match args.positional(0) {
        None | Some("list") => {
            let mut t = TableBuilder::new(vec![
                "name",
                "engine",
                "workload",
                "adversary",
                "faults",
                "trials",
            ]);
            for e in &entries {
                t.row(vec![
                    e.name.to_string(),
                    e.spec.engine_label().to_string(),
                    e.spec.workload.to_string(),
                    e.spec.adversary.to_string(),
                    e.spec.faults.to_string(),
                    e.spec.trials.to_string(),
                ]);
            }
            Ok(format!(
                "{}\nrun one with `rcbsim scenario run <NAME>` (--trials/--seed override)\n",
                t.markdown()
            ))
        }
        Some("names") => {
            let mut out = String::new();
            for e in &entries {
                out.push_str(e.name);
                out.push('\n');
            }
            Ok(out)
        }
        Some("run") => {
            let name = args.positional(1).ok_or_else(|| {
                "scenario run needs a NAME; try `rcbsim scenario list`".to_string()
            })?;
            if let Some(extra) = args.positional(2) {
                return Err(format!("unexpected positional argument `{extra}`"));
            }
            let entry = find_scenario(name).ok_or_else(|| {
                format!(
                    "unknown scenario `{name}`; valid names: {}",
                    registry_name_list()
                )
            })?;
            let mut spec = entry.spec;
            if let Some(trials) = args.get_opt::<u64>("trials")? {
                spec = spec.with_trials(trials);
            }
            if let Some(seed) = args.get_opt::<u64>("seed")? {
                spec = spec.with_seed(seed);
            }
            spec.validate()?;
            let rc = run_control_args(args)?;
            let results = run_scenario_trials(name, &spec, args, &rc)?;
            let mut checksum = FNV_OFFSET;
            for (outcome, _) in &results {
                checksum = fnv1a(checksum, &[spec.outcome_checksum(outcome)]);
            }
            let header = format!(
                "scenario {name}: {summary}\n{engine} · {workload} · {adversary} · faults: {faults} \
                 · seed {seed} · {trials} trials\n",
                summary = entry.summary,
                engine = spec.engine_label(),
                workload = spec.workload,
                adversary = spec.adversary,
                faults = spec.faults,
                seed = spec.seeds.master,
                trials = spec.trials,
            );
            let body = match spec.workload {
                Workload::Duel(_) => render_duel(spec.trials, results),
                Workload::Broadcast(_) => render_broadcast(spec.trials, results),
                Workload::Stream(_) => render_stream(spec.trials, results),
            };
            let mut out = format!("{header}\n{body}\ndeterminism checksum: {checksum:016x}\n");
            if let Some(from) = &rc.resume {
                out.push_str(&format!("resumed journal: {}\n", from.display()));
            }
            Ok(out)
        }
        Some(other) => Err(format!(
            "unknown scenario action `{other}`; expected list, names, or run"
        )),
    }
}

/// Runs one scenario's trial batch under the crash-safety flags. With no
/// flags this is exactly [`ScenarioSpec::run_batch_raw`] — a byte-identical
/// no-op relative to the uncontrolled path. With a journal, completed
/// trials are checkpointed (`trial/<i>` cells) and a resume skips them;
/// the seed fold per trial is untouched, so resumed runs are bit-identical
/// to uninterrupted ones.
fn run_scenario_trials(
    name: &str,
    spec: &ScenarioSpec,
    args: &Args,
    rc: &RunControlArgs,
) -> Result<Vec<(Outcome, Option<SimError>)>, String> {
    if !rc.active() {
        return Ok(spec.run_batch_raw());
    }
    let fingerprint = spec.fingerprint();
    let mut journal = match (&rc.resume, &rc.journal) {
        (Some(path), _) => {
            Some(Journal::open_resume(path, "scenario", fingerprint).map_err(|e| e.to_string())?)
        }
        (None, Some(path)) => Some(Journal::create(
            path,
            JournalHeader::new(
                "scenario",
                fingerprint,
                Json::obj(vec![("scenario", Json::Str(name.to_string()))]),
            ),
        )),
        (None, None) => None,
    };

    let trial_key = |i: u64| format!("trial/{i}");
    let done: Vec<bool> = (0..spec.trials)
        .map(|i| journal.as_ref().is_some_and(|j| j.contains(&trial_key(i))))
        .collect();
    let skip = |_spec: usize, trial: u64| done[trial as usize];
    let ctl = SpecsControl {
        deadline: rc.deadline(),
        trial_deadline: None,
        max_attempts: 1,
        skip: Some(&skip),
    };
    let specs = [spec.clone()];
    let run = run_specs_ctl(&specs, spec.parallelism, &ctl);
    let fresh = &run.results[0];

    if let Some(j) = journal.as_mut() {
        for (i, slot) in fresh.iter().enumerate() {
            if let Some((outcome, err)) = slot {
                if !matches!(err, Some(SimError::DeadlineExceeded { .. })) {
                    j.append(trial_key(i as u64), trial_payload(outcome, err));
                }
            }
        }
        j.flush().map_err(|e| e.to_string())?;
    }

    if let Some(q) = run.quarantined.first() {
        return Err(format!(
            "scenario `{name}`: trial {} quarantined: {}",
            q.trial, q.failure
        ));
    }
    if run.deadline_hit {
        let mut base = format!("rcbsim scenario run {name}");
        if args.get_opt::<u64>("trials").ok().flatten().is_some() {
            base.push_str(&format!(" --trials {}", spec.trials));
        }
        if args.get_opt::<u64>("seed").ok().flatten().is_some() {
            base.push_str(&format!(" --seed {}", spec.seeds.master));
        }
        return Err(cut_report(
            &format!("scenario `{name}`"),
            journal.as_ref().map(Journal::path),
            &base,
        ));
    }

    (0..spec.trials as usize)
        .map(|i| {
            if done[i] {
                let j = journal.as_ref().expect("done trials imply a journal");
                let payload = j.get(&trial_key(i as u64)).expect("done implies journaled");
                parse_trial_payload(payload)
                    .map_err(|e| format!("{}: trial {i}: {e}", j.path().display()))
            } else {
                Ok(fresh[i]
                    .clone()
                    .expect("neither skipped nor deadline-cut: the trial ran"))
            }
        })
        .collect()
}

fn cmd_product(args: &Args) -> Result<String, String> {
    let budget: u64 = args.get("budget", 16384)?;
    let delta: f64 = args.get("delta", 0.5)?;
    let trials: u64 = args.get("trials", 2000)?;
    let seed: u64 = args.get("seed", 2014)?;
    if !(0.0..1.0).contains(&delta) || delta <= 0.0 {
        return Err("--delta must be in (0,1)".into());
    }
    let mut rng = SeedSequence::new(seed).rng(0);
    let row = product_game(budget, delta, trials, &mut rng);
    Ok(format!(
        "δ = {delta}, T = {budget}, {trials} trials\n\
         E(A) = {:.1}, E(B) = {:.1}, E(A)·E(B)/T = {:.3} (Theorem 2 floor: ≥ 1 − O(ε))\n",
        row.mean_a, row.mean_b, row.product_over_t
    ))
}

fn cmd_golden(args: &Args) -> Result<String, String> {
    let budget: u64 = args.get("budget", 16384)?;
    let trials: u64 = args.get("trials", 500)?;
    let seed: u64 = args.get("seed", 2014)?;
    let seeds = SeedSequence::new(seed);
    let mut t = TableBuilder::new(vec!["δ", "worst exponent", "predicted", "adversary plays"]);
    for (i, delta) in [0.45, 0.5, 0.55, PHI_MINUS_ONE, 0.65, 0.7, 0.8]
        .iter()
        .enumerate()
    {
        let mut rng = seeds.rng(i as u64);
        let row = golden_ratio_game(budget, *delta, trials, &mut rng);
        t.row(vec![
            format!("{delta:.3}"),
            num(row.worst_exponent),
            num(row.predicted),
            format!("{:?}", row.picked),
        ]);
    }
    Ok(format!(
        "{}\nthe minimum sits at δ = φ−1 ≈ 0.618 (Theorem 5)\n",
        t.markdown()
    ))
}

fn cmd_conformance(args: &Args) -> Result<String, String> {
    let trials: u64 = args.get("trials", 200)?;
    let seed: u64 = args.get("seed", 2014)?;
    let alpha: f64 = args.get("alpha", 1e-3)?;
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    if !(0.0..1.0).contains(&alpha) || alpha <= 0.0 {
        return Err("--alpha must be in (0,1)".into());
    }
    let cfg = ConformanceConfig {
        trials,
        seed,
        alpha,
        parallelism: Parallelism::Auto,
    };
    let (duels, broadcasts) = default_grid();
    let report = run_grid(&duels, &broadcasts, &cfg);
    let text = report.render();
    if report.passed() {
        Ok(text)
    } else {
        // A failed grid is a real engine divergence: make the exit status
        // reflect it so CI can gate on `rcbsim conformance`.
        Err(text)
    }
}

/// The shared crash-safety flags (`perf` and `scenario run`):
/// `--journal PATH` checkpoints, `--resume PATH` continues a previous
/// journal, `--deadline SECS` bounds the run's wall clock.
struct RunControlArgs {
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    deadline_budget: Option<Duration>,
}

/// The crash-safety flags [`run_control_args`] reads.
const RUN_CONTROL_FLAGS: [&str; 3] = ["journal", "resume", "deadline"];

fn run_control_args(args: &Args) -> Result<RunControlArgs, String> {
    let journal = args.get_opt::<String>("journal")?.map(PathBuf::from);
    let resume = args.get_opt::<String>("resume")?.map(PathBuf::from);
    if journal.is_some() && resume.is_some() {
        return Err(
            "--journal and --resume are mutually exclusive; --resume keeps \
             checkpointing into the journal it continues"
                .into(),
        );
    }
    let deadline_budget = match args.get_opt::<f64>("deadline")? {
        None => None,
        Some(secs) if secs.is_finite() && secs >= 0.0 => Some(Duration::from_secs_f64(secs)),
        Some(_) => return Err("--deadline must be a non-negative number of seconds".into()),
    };
    Ok(RunControlArgs {
        journal,
        resume,
        deadline_budget,
    })
}

impl RunControlArgs {
    fn active(&self) -> bool {
        self.journal.is_some() || self.resume.is_some() || self.deadline_budget.is_some()
    }

    /// The run deadline. When any crash-safety flag is active the SIGINT
    /// latch is folded in, so Ctrl-C finishes in-flight cells, flushes
    /// the journal, and surfaces the resume invocation instead of killing
    /// the process mid-write. With no flags this is [`Deadline::NONE`]
    /// and the default SIGINT disposition is left untouched.
    fn deadline(&self) -> Deadline {
        let base = match self.deadline_budget {
            Some(budget) => Deadline::after(budget),
            None => Deadline::NONE,
        };
        if self.active() {
            base.with_cancel(install_sigint_handler())
        } else {
            base
        }
    }
}

/// The message for a deadline- or SIGINT-cut run: what stopped it, where
/// the checkpoints went, and the exact invocation that resumes it.
fn cut_report(what: &str, journal: Option<&Path>, base_invocation: &str) -> String {
    let why = if interrupted() {
        "interrupted (SIGINT)"
    } else {
        "wall-clock deadline exceeded"
    };
    match journal {
        Some(path) => format!(
            "{what}: {why}; completed cells are journaled in {path}\nresume with:\n  \
             {base_invocation} --resume {path}",
            path = path.display()
        ),
        None => format!(
            "{what}: {why}; no --journal was given, so partial progress was not \
             persisted — re-run with --journal PATH to make the run resumable"
        ),
    }
}

/// `--cpus 1,2,4` → worker counts for the perf scaling passes.
fn parse_cpus_list(raw: &str) -> Result<Vec<u64>, String> {
    let cpus = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.parse::<u64>() {
            Ok(0) | Err(_) => Err(format!(
                "--cpus entries must be positive integers, got `{s}`"
            )),
            Ok(n) => Ok(n),
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if cpus.is_empty() {
        return Err("--cpus needs at least one worker count".into());
    }
    Ok(cpus)
}

fn cmd_perf(args: &Args) -> Result<String, String> {
    let seed: u64 = args.get("seed", 2014)?;
    let scale = PerfScale::parse(&args.get_str("scale", "standard"))?;
    let threshold: f64 = args.get("threshold", perf::DEFAULT_THRESHOLD)?;
    if !threshold.is_finite() || threshold <= 0.0 {
        return Err("--threshold must be a positive number".into());
    }
    let report_only: bool = args.get("report-only", false)?;
    let strict: bool = args.get("strict", false)?;
    let notes = args.get_str("notes", "");
    let cpus_raw = args.get_str("cpus", "1");
    let cpus = parse_cpus_list(&cpus_raw)?;
    let sha = perf::git_short_sha();
    let out_path = args.get_str("out", &format!("BENCH_{sha}.json"));

    let only: Vec<String> = args
        .get_str("only", "")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let unknown = perf::resolve_only(&only);
    if !unknown.is_empty() {
        return Err(format!(
            "--only names not in the registry: {}; valid names: {}",
            unknown.join(", "),
            registry_name_list()
        ));
    }

    let rc = run_control_args(args)?;
    let ctl = perf::PerfControl {
        journal: rc.journal.clone(),
        resume: rc.resume.clone(),
        deadline: rc.deadline(),
        only,
    };
    let run =
        perf::run_perf_ctl(seed, scale, &sha, &notes, &cpus, &ctl).map_err(|e| e.to_string())?;
    let report = match run.report {
        Some(report) => report,
        None => {
            // A cut grid is a nonzero exit (no report was produced), but a
            // typed one: say why, and how to pick the run back up.
            let base = format!(
                "rcbsim perf --scale {} --seed {seed} --cpus {cpus_raw}",
                scale.label()
            );
            return Err(cut_report("perf grid", run.journal_path.as_deref(), &base));
        }
    };

    let mut text = String::new();
    if run.resumed_cells > 0 {
        let from = rc.resume.as_ref().expect("resumed cells imply --resume");
        text.push_str(&format!(
            "resumed {} journaled cell(s) from {}\n\n",
            run.resumed_cells,
            from.display()
        ));
    }
    text.push_str(&report.render());
    if out_path != "-" {
        std::fs::write(&out_path, report.to_json().render())
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
        text.push_str(&format!("\nwrote {out_path}\n"));
    }

    if let Some(baseline_path) = args.get_opt::<String>("against")? {
        let baseline_text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
        let baseline = perf::BenchReport::parse(&baseline_text)
            .map_err(|e| format!("{baseline_path}: {e}"))?;
        let cmp = perf::compare(&baseline, &report, threshold);
        // Warnings are advisory diagnostics, not report content: stderr.
        for warning in &cmp.warnings {
            eprintln!("warning: {warning}");
        }
        text.push('\n');
        text.push_str(&cmp.text);
        let gate_failed = if strict {
            !cmp.passed_strict()
        } else {
            !cmp.passed()
        };
        if gate_failed && !report_only {
            // Nonzero exit so CI can gate on `rcbsim perf --against`.
            return Err(text);
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["duel", "--budget", "1024", "--q=0.5"]).expect("parse");
        assert_eq!(a.command(), Some("duel"));
        assert_eq!(a.get::<u64>("budget", 0).expect("budget"), 1024);
        assert_eq!(a.get::<f64>("q", 1.0).expect("q"), 0.5);
        // Defaults pass through.
        assert_eq!(a.get::<u64>("trials", 7).expect("trials"), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&["duel", "--budget"]).is_err(), "missing value");
        assert!(parse(&["duel", "--q", "1", "--q", "2"]).is_err(), "dup");
        // Extra positionals parse (the `scenario` command needs them) but
        // every other command rejects them at dispatch.
        let extra = parse(&["duel", "extra"]).expect("parse collects positionals");
        assert!(run_cli(&extra).is_err(), "second positional");
        assert!(parse(&["--"]).is_err(), "bare dashes");
        let a = parse(&["duel", "--budget", "abc"]).expect("parse ok");
        assert!(a.get::<u64>("budget", 0).is_err(), "type error surfaces");
    }

    #[test]
    fn cpus_list_parses_and_rejects_garbage() {
        assert_eq!(parse_cpus_list("1").expect("single"), vec![1]);
        assert_eq!(parse_cpus_list("1, 2,4").expect("list"), vec![1, 2, 4]);
        assert!(parse_cpus_list("").is_err(), "empty list");
        assert!(parse_cpus_list("0").is_err(), "zero workers");
        assert!(parse_cpus_list("two").is_err(), "non-numeric");
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        let err = run_cli(&parse(&["duel", "--trails", "5"]).expect("parse"))
            .expect_err("a typo must not fall back to the default trial count");
        assert!(err.contains("--trails"), "names the flag: {err}");
        assert!(err.contains("--trials"), "lists the valid ones: {err}");
        // A flag valid for one command is still foreign to another.
        let err = run_cli(&parse(&["golden", "--fault-loss", "0.2"]).expect("parse"))
            .expect_err("golden takes no fault flags");
        assert!(err.contains("--fault-loss"), "{err}");
        assert!(run_cli(&parse(&["help", "--n", "3"]).expect("parse")).is_err());
    }

    #[test]
    fn documented_invocations_use_accepted_flags() {
        // Every `rcbsim` command line in CI and the docs must pass the
        // unknown-flag gate, or the gate would break them.
        let sources = [
            ("ci.yml", include_str!("../../../.github/workflows/ci.yml")),
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ];
        let mut checked = 0;
        for (file, text) in sources {
            let joined = text.replace("\\\n", " ");
            for line in joined.lines() {
                let Some((_, tail)) = line.rsplit_once("rcbsim") else {
                    continue;
                };
                let tail = tail.trim_start().trim_start_matches("-- ");
                let end = tail.find(['`', '|', '#', ';', '&', '>', ')']);
                let mut tokens = tail[..end.unwrap_or(tail.len())].split_whitespace();
                let Some(valid) = tokens.next().and_then(command_flags) else {
                    continue;
                };
                for token in tokens {
                    if let Some(flag) = token.strip_prefix("--") {
                        let flag = flag.split('=').next().unwrap_or(flag);
                        assert!(valid.contains(&flag), "{file}: `--{flag}` in `{line}`");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 40, "only {checked} documented flags found");
    }

    #[test]
    fn help_and_unknown_commands() {
        let help = run_cli(&parse(&["help"]).expect("parse")).expect("help");
        assert!(help.contains("USAGE"));
        let none = run_cli(&parse(&[]).expect("parse")).expect("default");
        assert!(none.contains("USAGE"));
        assert!(run_cli(&parse(&["frobnicate"]).expect("parse")).is_err());
    }

    #[test]
    fn duel_command_smoke() {
        let a = parse(&[
            "duel",
            "--budget",
            "1024",
            "--trials",
            "5",
            "--epsilon",
            "0.1",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("alice cost"));
        assert!(report.contains("delivered"));
    }

    #[test]
    fn duel_ksy_profile_smoke() {
        let a = parse(&[
            "duel",
            "--profile",
            "ksy",
            "--budget",
            "512",
            "--trials",
            "5",
        ])
        .expect("parse");
        assert!(run_cli(&a).expect("run").contains("bob cost"));
        let bad = parse(&["duel", "--profile", "nope"]).expect("parse");
        assert!(run_cli(&bad).is_err());
    }

    #[test]
    fn broadcast_command_smoke() {
        let a =
            parse(&["broadcast", "--n", "8", "--budget", "2048", "--trials", "2"]).expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("mean node cost"));
        assert!(report.contains("all informed"));
        let bad = parse(&["broadcast", "--adversary", "nuke"]).expect("parse");
        assert!(run_cli(&bad).is_err());
    }

    #[test]
    fn product_command_smoke() {
        let a = parse(&["product", "--budget", "256", "--trials", "200"]).expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("E(A)·E(B)/T"));
        let bad = parse(&["product", "--delta", "1.5"]).expect("parse");
        assert!(run_cli(&bad).is_err());
    }

    #[test]
    fn golden_command_smoke() {
        let a = parse(&["golden", "--budget", "256", "--trials", "50"]).expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("0.618"));
    }

    #[test]
    fn conformance_command_smoke() {
        // Tiny trial count: this checks plumbing, not statistical power —
        // the sim crate's own tests and the default 200-trial CLI run do
        // that. Even at 25 trials a grid-wide p < 1e-6 would be a real bug.
        let a = parse(&[
            "conformance",
            "--trials",
            "25",
            "--seed",
            "2014",
            "--alpha=0.000001",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("conformance grid diverged");
        assert!(report.contains("grid PASSED"));
        assert!(report.contains("alice_cost"));
        assert!(report.contains("broadcast n=5"));
    }

    #[test]
    fn fault_flags_parse_into_a_plan() {
        let a = parse(&[
            "duel",
            "--fault-loss",
            "0.25",
            "--fault-crash",
            "1:4:8:lose",
            "--fault-skew",
            "0:2",
            "--fault-battery",
            "500",
        ])
        .expect("parse");
        let plan = fault_plan_from_args(&a).expect("valid plan");
        assert_eq!(plan.loss_p(), 0.25);
        assert!(plan.crashed(1, 4) && !plan.crashed(1, 12));
        assert_eq!(plan.reboot_at(), Some((1, 12)));
        assert_eq!(plan.skew_slots(0), 2);
        assert_eq!(plan.battery_capacity(), Some(500));
        // No flags → the empty plan.
        let none = fault_plan_from_args(&parse(&["duel"]).expect("parse")).expect("plan");
        assert!(none.is_none());
    }

    fn tmp_journal(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("rcb_cli_test_{}_{name}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn crash_safety_flags_parse_and_reject_conflicts() {
        let a = parse(&["perf", "--journal", "j.jsonl", "--deadline", "1.5"]).expect("parse");
        let rc = run_control_args(&a).expect("valid flags");
        assert!(rc.active());
        assert_eq!(rc.journal.as_deref(), Some(Path::new("j.jsonl")));
        assert_eq!(rc.deadline_budget, Some(Duration::from_millis(1500)));

        let none = run_control_args(&parse(&["perf"]).expect("parse")).expect("no flags");
        assert!(!none.active());
        assert!(
            none.deadline().is_unbounded(),
            "no flags → unbounded, handler-free"
        );

        let both = parse(&["perf", "--journal", "a", "--resume", "b"]).expect("parse");
        assert!(run_control_args(&both).is_err(), "journal+resume conflict");
        let neg = parse(&["perf", "--deadline", "-1"]).expect("parse");
        assert!(run_control_args(&neg).is_err(), "negative deadline");
    }

    #[test]
    fn perf_deadline_cut_exits_nonzero_with_a_resume_hint() {
        let journal = tmp_journal("perf_cut");
        let a = parse(&[
            "perf",
            "--scale",
            "smoke",
            "--cpus",
            "1",
            "--out",
            "-",
            "--deadline",
            "0",
            "--journal",
            &journal,
        ])
        .expect("parse");
        let err = run_cli(&a).expect_err("a cut grid produces no report");
        assert!(err.contains("deadline exceeded"), "{err}");
        assert!(
            err.contains(&format!("--resume {journal}")),
            "the exact resume invocation must be printed: {err}"
        );
        assert!(err.contains("--scale smoke"), "{err}");
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn scenario_run_journals_and_resumes_with_the_same_checksum() {
        let journal = tmp_journal("scenario_resume");
        let name = registry()[0].name;
        let base_args = |extra: &[&str]| {
            let mut v = vec!["scenario", "run", name, "--trials", "6", "--seed", "9"];
            v.extend_from_slice(extra);
            parse(&v).expect("parse")
        };
        let checksum_line = |report: &str| {
            report
                .lines()
                .find(|l| l.starts_with("determinism checksum"))
                .expect("checksum line")
                .to_string()
        };

        let straight = run_cli(&base_args(&[])).expect("straight run");
        let journaled = run_cli(&base_args(&["--journal", &journal])).expect("journaled run");
        assert_eq!(
            straight, journaled,
            "a journal must not perturb the report (byte-identical no-op)"
        );

        // The journal now holds every trial: a resume skips them all and
        // reconstructs the identical checksum from the records alone.
        let resumed = run_cli(&base_args(&["--resume", &journal])).expect("resume");
        assert_eq!(checksum_line(&straight), checksum_line(&resumed));
        assert!(resumed.contains("resumed journal:"), "{resumed}");

        // A different seed is different work: typed refusal.
        let mut v = vec!["scenario", "run", name, "--trials", "6", "--seed", "10"];
        v.extend_from_slice(&["--resume", &journal]);
        let err = run_cli(&parse(&v).expect("parse")).expect_err("wrong fingerprint");
        assert!(err.contains("fingerprint mismatch"), "{err}");
        std::fs::remove_file(&journal).ok();
    }

    #[test]
    fn fault_flags_reject_malformed_specs() {
        let bad_crash = parse(&["duel", "--fault-crash", "1:4"]).expect("parse");
        assert!(fault_plan_from_args(&bad_crash).is_err(), "too few fields");
        let bad_tail = parse(&["duel", "--fault-crash", "1:4:8:explode"]).expect("parse");
        assert!(fault_plan_from_args(&bad_tail).is_err(), "bad lose marker");
        let bad_skew = parse(&["duel", "--fault-skew", "7"]).expect("parse");
        assert!(fault_plan_from_args(&bad_skew).is_err(), "missing colon");
        let bad_loss = parse(&["duel", "--fault-loss", "1.5"]).expect("parse");
        assert!(fault_plan_from_args(&bad_loss).is_err(), "p out of range");
        let bad_battery = parse(&["duel", "--fault-battery", "0"]).expect("parse");
        assert!(fault_plan_from_args(&bad_battery).is_err(), "zero capacity");
    }

    #[test]
    fn faulted_duel_command_smoke() {
        let a = parse(&[
            "duel",
            "--budget",
            "1024",
            "--trials",
            "5",
            "--epsilon",
            "0.1",
            "--fault-loss",
            "0.2",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("delivered"));
    }

    #[test]
    fn faulted_broadcast_command_smoke() {
        let a = parse(&[
            "broadcast",
            "--n",
            "8",
            "--adversary",
            "none",
            "--trials",
            "2",
            "--fault-crash",
            "3:2:6:lose",
        ])
        .expect("parse");
        let report = run_cli(&a).expect("run");
        assert!(report.contains("all informed"));
    }

    #[test]
    fn conformance_rejects_bad_flags() {
        let zero = parse(&["conformance", "--trials", "0"]).expect("parse");
        assert!(run_cli(&zero).is_err());
        let alpha = parse(&["conformance", "--alpha", "2.0"]).expect("parse");
        assert!(run_cli(&alpha).is_err());
    }

    #[test]
    fn scenario_list_and_names() {
        let list = run_cli(&parse(&["scenario", "list"]).expect("parse")).expect("list");
        let names = run_cli(&parse(&["scenario", "names"]).expect("parse")).expect("names");
        for entry in registry() {
            assert!(list.contains(entry.name), "list shows {}", entry.name);
            assert!(names.contains(entry.name), "names shows {}", entry.name);
        }
        // Bare `scenario` defaults to `list`.
        let bare = run_cli(&parse(&["scenario"]).expect("parse")).expect("bare");
        assert_eq!(bare, list);
    }

    #[test]
    fn scenario_run_smoke_with_overrides() {
        let duel = run_cli(
            &parse(&[
                "scenario",
                "run",
                "duel_jammed",
                "--trials",
                "3",
                "--seed",
                "7",
            ])
            .expect("parse"),
        )
        .expect("run");
        assert!(duel.contains("scenario duel_jammed"));
        assert!(duel.contains("3 trials"));
        assert!(duel.contains("alice cost"));
        assert!(duel.contains("determinism checksum"));
        let bcast = run_cli(
            &parse(&["scenario", "run", "bcast_n8_jammed", "--trials", "2"]).expect("parse"),
        )
        .expect("run");
        assert!(bcast.contains("mean node cost"));
        assert!(bcast.contains("determinism checksum"));
    }

    #[test]
    fn scenario_run_is_deterministic() {
        let args = parse(&["scenario", "run", "duel_jammed", "--trials", "4"]).expect("parse");
        let a = run_cli(&args).expect("first run");
        let b = run_cli(&args).expect("second run");
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_rejects_bad_input() {
        assert!(
            run_cli(&parse(&["scenario", "run"]).expect("parse")).is_err(),
            "missing name"
        );
        assert!(
            run_cli(&parse(&["scenario", "run", "nonexistent"]).expect("parse")).is_err(),
            "unknown name"
        );
        assert!(
            run_cli(&parse(&["scenario", "run", "duel_jammed", "extra"]).expect("parse")).is_err(),
            "trailing positional"
        );
        assert!(
            run_cli(&parse(&["scenario", "explode"]).expect("parse")).is_err(),
            "unknown action"
        );
    }
}
